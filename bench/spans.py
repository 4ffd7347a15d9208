"""In-memory spans around lamit's public functions, for traced runs.

Tracing wraps module-level functions in place, in every lamit module
that holds a reference to them (so `from .dsp import x` call sites are
covered too), and restores the originals on `uninstall`.  Nothing is
wrapped unless a Recorder is installed, so untraced runs call the
program exactly as a user would.
"""
from __future__ import annotations

import functools
import sys
import time

# (module, function, span name); a function missing from the program is
# skipped, so its span and the metrics built on it read zero
WRAPPED = (
    ('lamit.features', 'load_inventory', 'features.load_inventory'),
    ('lamit.lexicon', 'load_lexicon', 'lexicon.load_lexicon'),
    ('lamit.corpus', 'parse_corpus', 'corpus.parse_corpus'),
    ('lamit.corpus', 'phoneme_frequencies', 'corpus.phoneme_frequencies'),
    ('lamit.textgrid', 'parse_textgrid', 'textgrid.parse'),
    ('lamit.textgrid', 'serialize_textgrid', 'textgrid.serialize'),
    ('lamit.annotation', 'generate_lexi_tier', 'annotation.lexi_tier'),
    ('lamit.dsp', 'read_wav', 'dsp.read_wav'),
    ('lamit.dsp', 'compute_spectrogram', 'dsp.spectrogram'),
    ('lamit.dsp', 'band_energies', 'dsp.band_energies'),
    ('lamit.dsp', 'estimate_f0', 'dsp.f0'),
    ('lamit.dsp', 'parameter_frames', 'dsp.parameter_frames'),
    ('lamit.landmarks', 'detect_vowel_landmarks', 'landmarks.vowel'),
    ('lamit.landmarks', 'detect_glide_landmarks', 'landmarks.glide'),
    ('lamit.landmarks', 'detect_consonant_landmarks', 'landmarks.consonant'),
    ('lamit.landmarks', 'landmark_sequence', 'landmarks.merge'),
    ('lamit.access', 'cues_to_bundles', 'access.cues'),
    ('lamit.access', 'match_in_word_intervals', 'access.word_match'),
    ('lamit.access', 'cohort_match', 'access.cohort'),
)

BROAD_FEATURES = frozenset({'vowel', 'glide', 'cons', 'son', 'cont'})


def _counts(name, args, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if name == 'dsp.read_wav':
        return {'audio_s': result.duration}
    if name == 'dsp.spectrogram':
        return {'frames': result.n_frames}
    if name == 'landmarks.merge':
        kinds = {}
        for lm in result.items:
            key = 'n_' + lm.kind.name.lower()
            kinds[key] = kinds.get(key, 0) + 1
        return kinds
    if name == 'access.word_match':
        return {'segments': len(args[1]), 'orphans': len(result[1])}
    if name == 'access.cohort':
        broad = all(set(s.bundle) <= BROAD_FEATURES for s in args[0])
        return {'broad': int(broad)}
    return {}


class Recorder:
    """Spans as [name, start_ns, end_ns, parent, request, error, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self._saved: list[tuple] = []

    def open(self, name) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.request, False, {}])
        self.stack.append(sid)
        return sid

    def close(self, sid, error=False, counts=None):
        span = self.spans[sid]
        span[2] = time.perf_counter_ns()
        span[5] = error
        if counts:
            span[6] = counts
        self.stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, error=True)
                raise
            self.close(sid, counts=_counts(name, args, result))
            return result
        return traced

    def install(self):
        """Wrap every WRAPPED function that the imported program has."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == 'lamit' or n.startswith('lamit.'))]
        for modname, attr, name in WRAPPED:
            home = sys.modules.get(modname)
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    def add(self, spans, request):
        """Append spans recorded by another process, re-based."""
        base = len(self.spans)
        for name, t0, t1, parent, _, error, counts in spans:
            self.spans.append([name, t0, t1,
                               None if parent is None else parent + base,
                               request, error, counts])


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own
