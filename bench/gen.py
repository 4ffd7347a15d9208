"""Seeded input generator for the benchmark.

Everything here depends only on the seed and on the shipped data files
(inventory and lexicon TSVs), never on lamit code, so a change to the
program cannot change the inputs it is measured on.  Signals follow the
recipes of the test fixtures (harmonic source with formant weights,
dB arches for vowels, high-passed noise for frication, silent closures
with abrupt edges) but are written independently of them.
"""
from __future__ import annotations

import io
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SR = 16000

# vowel formants (Hz) by ARPAbet label
VOWEL_FORMANTS = {
    'AA': (750.0, 1250.0, 2600.0), 'EY': (450.0, 1950.0, 2600.0),
    'EH': (580.0, 1800.0, 2550.0), 'IY': (300.0, 2300.0, 3000.0),
    'OW': (450.0, 850.0, 2500.0), 'AO': (580.0, 900.0, 2500.0),
    'UW': (320.0, 750.0, 2400.0),
}
GLIDE_FORMANTS = {'Y': (280.0, 2200.0, 3000.0), 'W': (320.0, 700.0, 2400.0)}

# segment classes: V vowel, G glide, N nasal, L liquid, F fricative,
# A affricate, S stop.  Durations in seconds before jitter.
BASE_DUR = {'V': 0.11, 'G': 0.07, 'N': 0.07, 'L': 0.06, 'F': 0.10,
            'A': 0.11, 'S': 0.08}
MANNER = {'N': 'sonorant', 'L': 'sonorant', 'F': 'continuant',
          'A': 'noncontinuant', 'S': 'noncontinuant'}
ARTICULATOR_FREE_KEEP = ('vowel', 'glide', 'cons')
FILL_TRIES = 20


# ------------------------------------------------------------------ data

@dataclass(frozen=True)
class Phone:
    arpabet: str
    cls: str
    voiced: bool
    strident: bool
    geminate: bool


@dataclass
class Tables:
    bundles: dict[str, dict[str, str]]     # arpabet -> specified features
    phones: dict[str, Phone]
    lexicon: list[tuple[str, list[str]]]   # orthography, arpabet tokens


def load_tables(data_dir: Path) -> Tables:
    """Parse the shipped inventory and lexicon files (format per README)."""
    rows, header = [], None
    for line in (data_dir / 'italian_features.tsv').read_text(
            'utf-8').splitlines():
        if not line or line.startswith('#'):
            continue
        cells = line.split('\t')
        if header is None:
            header = cells
            continue
        rows.append(cells)
    features = header[2:-1]
    by_ipa, bundles, bases = {}, {}, {}
    for cells in rows:
        ipa, arp, vals, base = cells[0], cells[1], cells[2:-1], cells[-1]
        by_ipa[ipa] = arp
        if base != '.':
            bases[arp] = base
        else:
            bundles[arp] = {f: v for f, v in zip(features, vals) if v != '.'}
    for arp, base in bases.items():
        bundles[arp] = bundles[by_ipa[base]]
    phones = {arp: _phone(arp, b, arp in bases) for arp, b in bundles.items()}
    lexicon = []
    for line in (data_dir / 'lamit_lexicon.tsv').read_text(
            'utf-8').splitlines():
        line = line.strip()
        if not line or line.startswith('#'):
            continue
        orth, rest = line.split(None, 1)
        lexicon.append((orth.upper(), [t.rstrip('1') for t in rest.split()]))
    return Tables(bundles, phones, lexicon)


def _phone(arp, b, geminate) -> Phone:
    if b.get('vowel') == '+':
        cls = 'V'
    elif b.get('glide') == '+':
        cls = 'G'
    elif b.get('nasal') == '+':
        cls = 'N'
    elif b.get('son') == '+':
        cls = 'L'
    elif b.get('cont') == '+':
        cls = 'F'
    elif b.get('cont') == '±':
        cls = 'A'
    else:
        cls = 'S'
    return Phone(arp, cls, b.get('slack') == '+', b.get('strid') == '+',
                 geminate)


# --------------------------------------------------------------- signals

def _harmonics(t, f0, formants, highcut=None):
    """Harmonics of f0 weighted by formant resonances over a -12 dB/oct
    rolloff; harmonics above highcut[0] Hz attenuated by highcut[1] dB."""
    ks = np.arange(1, int((SR / 2 - 200) // f0) + 1)
    freqs = ks * f0
    w = np.zeros(len(ks))
    for fc in formants:
        w += 1.0 / (1.0 + ((freqs - fc) / (90.0 + 0.06 * fc)) ** 2)
    w = (w + 0.003) * (freqs / freqs[0]) ** (-12.0 / 6.02)
    if highcut is not None:
        w = np.where(freqs > highcut[0], w * 10 ** (highcut[1] / 20.0), w)
    w /= w.sum()
    return w @ np.sin(2 * np.pi * np.outer(freqs, t) + 0.7 * ks[:, None])


def _noise(rng, n, cutoff):
    spec = np.fft.rfft(rng.standard_normal(n))
    spec[np.fft.rfftfreq(n, 1 / SR) < cutoff] *= 0.01
    shaped = np.fft.irfft(spec, n=n)
    return shaped / np.max(np.abs(shaped))


def _arch(n, depth_db):
    x = np.linspace(-1.0, 1.0, n)
    return 10 ** (-depth_db * x * x / 20.0)


def _ramp(sig, ms=4.0):
    r = min(len(sig) // 2, int(SR * ms / 1000))
    if r:
        sig[:r] *= np.linspace(0, 1, r)
        sig[-r:] *= np.linspace(1, 0, r)
    return sig


def _segment(rng, ph: Phone, t, f0):
    """Samples of one phone over the absolute sample times t (seconds)."""
    n = len(t)
    c = ph.cls
    if c == 'V':
        return 0.3 * _harmonics(t, f0, VOWEL_FORMANTS[ph.arpabet]) * \
            _arch(n, 10.0)
    if c == 'G':
        dip = 10 ** (-10.0 * np.sin(np.pi * np.arange(n) / n) / 20.0)
        return 0.25 * _harmonics(t, f0, GLIDE_FORMANTS[ph.arpabet]) * dip
    if c == 'N':
        return 0.1 * _harmonics(t, f0, (250.0, 1100.0, 2500.0),
                                highcut=(400.0, -25.0))
    if c == 'L':
        return 0.15 * _harmonics(t, f0, (350.0, 1200.0, 2700.0),
                                 highcut=(1500.0, -12.0))
    voice = (0.02 * _harmonics(t, f0, (250.0,), highcut=(300.0, -40.0))
             if ph.voiced else np.zeros(n))
    if c == 'F':
        amp, cut = (0.12, 1500.0) if ph.strident else (0.05, 1000.0)
        return _ramp(amp * _noise(rng, n, cut) + voice)
    # stops and affricates: silent (or voice-bar) closure, then release
    rel = int(0.015 * SR) if c == 'S' else int(0.06 * SR)
    sig = voice.copy()
    burst = 0.15 * _noise(rng, rel, 1500.0 if c == 'A' else 800.0)
    if c == 'S':
        burst *= np.exp(-np.arange(rel) / (0.004 * SR))
    sig[n - rel:] += burst
    return _ramp(sig)


# ------------------------------------------------------------ utterances

@dataclass
class Utterance:
    samples: np.ndarray                      # int16
    words: list[tuple[float, float, str]]    # Word tier, contiguous
    landmarks: list[tuple[float, str, str]]  # time, kind, manner

    @property
    def duration(self) -> float:
        return len(self.samples) / SR


def make_utterance(rng, tables: Tables, duration: float) -> Utterance:
    """Words from the lexicon, one synthetic segment per phone, with
    leading/trailing silence and occasional pauses as empty intervals.
    Words are drawn until FILL_TRIES in a row do not fit, so every
    utterance is about as full of speech as the next."""
    total = int(round(duration * SR))
    sig = np.zeros(total)
    pos = int(rng.uniform(0.15, 0.3) * SR)
    end_limit = total - int(0.15 * SR)
    words: list[tuple[int, int, str]] = []
    lms: list[tuple[float, str, str]] = []
    f0 = rng.uniform(100.0, 200.0)
    misses = 0
    while misses < FILL_TRIES:
        orth, tokens = tables.lexicon[rng.integers(len(tables.lexicon))]
        durs = []
        for arp in tokens:
            ph = tables.phones[arp]
            d = BASE_DUR[ph.cls] * rng.uniform(0.85, 1.2)
            durs.append(int(d * (1.8 if ph.geminate else 1.0) * SR))
        if pos + sum(durs) > end_limit:
            misses += 1
            continue
        misses = 0
        start = pos
        for arp, n in zip(tokens, durs):
            ph = tables.phones[arp]
            t = (pos + np.arange(n)) / SR
            sig[pos:pos + n] += _segment(rng, ph, t, f0 * rng.uniform(0.97,
                                                                     1.03))
            a, b = pos / SR, (pos + n) / SR
            if ph.cls == 'V':
                lms.append(((a + b) / 2, 'Vowel', ''))
            elif ph.cls == 'G':
                lms.append(((a + b) / 2, 'Glide', ''))
            else:
                lms.append((a + 0.005, 'ConsonantClosure', MANNER[ph.cls]))
                lms.append((b - 0.005, 'ConsonantRelease', MANNER[ph.cls]))
            pos += n
        words.append((start, pos, orth))
        if rng.random() < 0.15:
            pos += int(rng.uniform(0.05, 0.2) * SR)
        f0 *= rng.uniform(0.97, 1.02)
    sig += 3e-4 * rng.standard_normal(total)
    pcm = np.round(sig / np.max(np.abs(sig)) * 0.5 * 32767).astype(np.int16)
    tier, cursor = [], 0
    for a, b, orth in words:
        if a > cursor:
            tier.append((cursor / SR, a / SR, ''))
        tier.append((a / SR, b / SR, orth))
        cursor = b
    tier.append((cursor / SR, total / SR, ''))
    return Utterance(pcm, tier, lms)


def wav_bytes(utt: Utterance) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, 'wb') as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SR)
        w.writeframes(utt.samples.astype('<i2').tobytes())
    return buf.getvalue()


def _t(x: float) -> str:
    return f'{x:.7f}'.rstrip('0').rstrip('.') or '0'


def textgrid_text(duration: float, words) -> str:
    """Praat long-format TextGrid with one Word interval tier."""
    out = ['File type = "ooTextFile"', 'Object class = "TextGrid"', '',
           'xmin = 0', f'xmax = {_t(duration)}', 'tiers? <exists>',
           'size = 1', 'item []:', '    item [1]:',
           '        class = "IntervalTier"', '        name = "Word"',
           '        xmin = 0', f'        xmax = {_t(duration)}',
           f'        intervals: size = {len(words)}']
    for i, (a, b, label) in enumerate(words, 1):
        out += [f'        intervals [{i}]:', f'            xmin = {_t(a)}',
                f'            xmax = {_t(b)}', f'            text = "{label}"']
    return '\n'.join(out) + '\n'


def landmarks_text(lms) -> str:
    """Landmark CSV in the `lamit landmarks` output format."""
    lines = ['time_s,kind,manner,strength_dB']
    lines += [f'{t:.6f},{kind},{manner},20.00' for t, kind, manner in lms]
    return '\n'.join(lines) + '\n'


def write_utterance(utt: Utterance, stem: Path) -> dict[str, Path]:
    """Write stem.wav, stem.TextGrid (Word tier) and stem.lm.csv."""
    paths = {'wav': stem.with_suffix('.wav'),
             'textgrid': stem.with_suffix('.TextGrid'),
             'landmarks': stem.with_suffix('.lm.csv')}
    paths['wav'].write_bytes(wav_bytes(utt))
    paths['textgrid'].write_text(textgrid_text(utt.duration, utt.words),
                                 encoding='utf-8')
    paths['landmarks'].write_text(landmarks_text(utt.landmarks),
                                  encoding='utf-8')
    return paths


# --------------------------------------------------------------- queries

def broad_bundle(bundle: dict[str, str]) -> dict[str, str]:
    """Major class plus manner, as `match --landmarks` estimates them."""
    if bundle.get('vowel') == '+':
        return {'vowel': '+'}
    if bundle.get('glide') == '+':
        return {'glide': '+'}
    if bundle.get('son') == '+':
        return {'cons': '+', 'son': '+'}
    if bundle.get('cont') == '+':
        return {'cons': '+', 'son': '-', 'cont': '+'}
    return {'cons': '+', 'son': '-', 'cont': '-'}


def degrade(rng, segments):
    """Drop or flip features and sometimes the final segment, the way the
    matcher acceptance test builds its noisy queries."""
    out = []
    for seg in segments:
        seg = dict(seg)
        for f in list(seg):
            if f in ARTICULATOR_FREE_KEEP:
                continue
            roll = rng.random()
            if roll < 0.25:
                del seg[f]
            elif roll < 0.35 and seg[f] in '+-':
                seg[f] = '-' if seg[f] == '+' else '+'
        out.append(seg)
    if rng.random() < 0.3 and len(out) > 1:
        out.pop()
    return out


@dataclass(frozen=True)
class Query:
    kind: str                  # 'exact', 'degraded' or 'broad'
    word: str                  # lexicon entry the query was built from
    segments: tuple            # of dicts feature -> '+', '-', '±'


def make_queries(rng, tables: Tables) -> list[Query]:
    """Three queries per lexicon entry, in seeded order: its exact
    bundles, a seeded degraded copy and its broad form."""
    out = []
    for orth, tokens in tables.lexicon:
        exact = tuple(dict(tables.bundles[a]) for a in tokens)
        out += [Query('exact', orth, exact),
                Query('degraded', orth, tuple(degrade(rng, exact))),
                Query('broad', orth, tuple(broad_bundle(s) for s in exact))]
    return [out[i] for i in rng.permutation(len(out))]


def rng_for(seed: int, stream: str):
    """Independent generator per (seed, stream name)."""
    return np.random.default_rng([seed, *stream.encode('utf-8')])
