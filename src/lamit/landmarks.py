"""Landmark detection: vowel peaks, glide dips, consonantal discontinuities."""
from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import AnalysisConfig
from .dsp import HIGH, LOW, MID, AudioBuffer, BandEnergyTracks, median, \
    rate_of_rise, standard_tracks
from .features import Checked, Frozen


class LandmarkError(ValueError):
    pass


class LandmarkKind(enum.Enum):
    VOWEL = 'Vowel'
    GLIDE = 'Glide'
    CLOSURE = 'ConsonantClosure'
    RELEASE = 'ConsonantRelease'


class Manner(enum.Enum):
    SONORANT = 'sonorant'
    CONTINUANT = 'continuant'
    NONCONTINUANT = 'noncontinuant'


class _Landmark(NamedTuple):
    time: float
    kind: LandmarkKind
    manner: Manner | None = None
    strength: float = 0.0      # dB prominence or peak |rate of rise|


class Landmark(Checked, _Landmark):
    __slots__ = ()

    def _check(self):
        if not (math.isfinite(self.time) and math.isfinite(self.strength)):
            raise LandmarkError('time and strength must be finite')
        is_consonant = self.kind in (LandmarkKind.CLOSURE,
                                     LandmarkKind.RELEASE)
        if is_consonant != (self.manner is not None):
            raise LandmarkError(
                'manner is set exactly on consonant landmarks')


class LandmarkSequence(Frozen):
    _fields = ('items',)

    def __init__(self, items=()):
        items: tuple[Landmark, ...] = tuple(items)
        times = [lm.time for lm in items]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise LandmarkError('landmark times must strictly increase')
        self._bind(items=items)


# an utterance exists only when the low band rises above this level;
# below it the whole buffer is treated as silence
SILENCE_DB = -90.0


def _relative(tracks: BandEnergyTracks, cfg: AnalysisConfig) -> np.ndarray:
    """Energies relative to the utterance peak, clipped at -gate_db.

    The clip level moves with the recording gain, which is what makes
    every detection decision (and every reported strength) invariant
    under rescaling of the input samples.
    """
    e = tracks.energy
    return np.maximum(e - float(e.max()), -cfg.gate_db)


def _frames(seconds: float, step: float, n: int) -> int:
    """A duration as a whole number of frames, at least one.  On a
    track of n frames every caller treats n + 1 frames as it treats any
    longer span, so a longer duration, inf included, counts as n + 1."""
    return max(1, int(round(min(seconds / step, n + 1))))


def _gate(tracks: BandEnergyTracks, cfg: AnalysisConfig, rel: np.ndarray):
    """Active utterance span, padded by the rate-of-rise window; rel is
    `_relative(tracks, cfg)`."""
    if float(tracks.energy[LOW].max()) <= SILENCE_DB:
        return None
    starts, stops = _runs(rel[LOW] > -cfg.gate_db)
    min_run = _frames(cfg.gate_min_duration, tracks.frame_step,
                      len(tracks.times))
    long = stops - starts >= min_run
    if not long.any():
        return None
    return (tracks.times[starts[long][0]] - cfg.ror_window,
            tracks.times[stops[long][-1] - 1] + cfg.ror_window)


def _sparse_table(x: np.ndarray, pick) -> list[np.ndarray]:
    """table[j][i] = pick over x[i:i + 2**j], from two halves per level."""
    table = [x]
    w = 1
    while 2 * w <= len(x):
        prev = table[-1]
        table.append(pick(prev[:-w], prev[w:]))
        w *= 2
    return table


def _right_bases(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Per peak p, the first minimum of x[p:r], where r is the first
    sample after p strictly higher than x[p] (or the end of x)."""
    n = len(x)
    top = _sparse_table(x, np.maximum)
    first_min = _sparse_table(np.arange(n),
                              lambda a, b: np.where(x[b] < x[a], b, a))
    # binary lifting: grow [p, end) by halving steps while it stays <= x[p]
    vals = x[peaks]
    end = peaks + 1
    for j in range(len(top) - 1, -1, -1):
        w = 1 << j
        ok = (end + w <= n) & (top[j][np.minimum(end, n - w)] <= vals)
        end[ok] += w
    # the range minimum from two overlapping power-of-two windows; on a
    # tie the left window's index is the smaller one
    level = np.frexp(end - peaks)[1] - 1
    base = np.empty_like(peaks)
    for j in sorted(set(level.tolist())):
        sel = level == j
        a = first_min[j][peaks[sel]]
        b = first_min[j][end[sel] - (1 << j)]
        base[sel] = np.where(x[b] < x[a], b, a)
    return base


def _find_peaks(x, prominence: float, distance: int = 1):
    """Peaks of x as `scipy.signal.find_peaks(x, prominence=prominence,
    distance=distance)` finds them, with the same `prominences`,
    `left_bases` and `right_bases`.

    A plateau's peak is its midpoint and edge samples are never peaks.
    The distance filter runs first, keeping peaks in descending
    `np.argsort` order of height.  A base search stops at the first
    sample strictly higher than the peak; the left base is the minimum
    nearest the peak, the right base the first minimum.  The bases cost
    O(n log n) array work per call, with no per-peak Python loop.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    peaks = np.zeros(0, dtype=np.intp)
    if n >= 3:
        # runs of equal samples; a run above both neighbouring runs peaks
        starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
        ends = np.r_[starts[1:], n] - 1
        v = x[starts]
        runs = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
        peaks = (starts[runs] + ends[runs]) // 2
    if distance > 1 and len(peaks) > 1:
        lo = np.searchsorted(peaks, peaks - distance, 'right')
        hi = np.searchsorted(peaks, peaks + distance, 'left')
        keep = np.ones(len(peaks), dtype=bool)
        for j in np.argsort(x[peaks])[::-1].tolist():
            if keep[j]:
                keep[lo[j]:j] = False
                keep[j + 1:hi[j]] = False
        peaks = peaks[keep]
    right = _right_bases(x, peaks)
    left = n - 1 - _right_bases(x[::-1], n - 1 - peaks)
    prom = x[peaks] - np.maximum(x[left], x[right])
    keep = prom >= prominence
    return peaks[keep], {'prominences': prom[keep],
                         'left_bases': left[keep],
                         'right_bases': right[keep]}


def _landmarks(kind: LandmarkKind, times: np.ndarray,
               strengths: np.ndarray) -> list[Landmark]:
    return [Landmark(t, kind, strength=s)
            for t, s in zip(times.tolist(), strengths.tolist())]


def detect_vowel_landmarks(tracks: BandEnergyTracks) -> list[Landmark]:
    """Local maxima of the low-band energy with sufficient prominence,
    inside the utterance gate; thresholds from `tracks.cfg`."""
    cfg = tracks.cfg
    _require_bands(tracks, 1)
    rel = _relative(tracks, cfg)
    span = _gate(tracks, cfg, rel)
    if span is None:
        return []
    dist = _frames(cfg.vowel_min_separation, tracks.frame_step,
                   len(tracks.times))
    peaks, props = _find_peaks(rel[LOW], cfg.vowel_prominence_db, dist)
    t = tracks.times[peaks]
    keep = (span[0] <= t) & (t <= span[1])
    return _landmarks(LandmarkKind.VOWEL, t[keep],
                      props['prominences'][keep])


def detect_glide_landmarks(tracks: BandEnergyTracks,
                           vowels: list[Landmark]) -> list[Landmark]:
    """Smooth low-band dips near vowel landmarks; thresholds from
    `tracks.cfg`."""
    cfg = tracks.cfg
    _require_bands(tracks, 1)
    if not vowels:
        return []
    rel = _relative(tracks, cfg)
    low = rel[LOW]
    ror = rate_of_rise(low, cfg.ror_window, tracks.frame_step)
    dips, props = _find_peaks(-low, cfg.glide_dip_db)
    t = tracks.times[dips]
    # the nearest vowel is one of the two on either side of each dip
    vtimes = np.sort([v.time for v in vowels])
    i = np.searchsorted(vtimes, t)
    gap = np.minimum(np.abs(vtimes[np.maximum(i - 1, 0)] - t),
                     np.abs(vtimes[np.minimum(i, len(vtimes) - 1)] - t))
    # the whole dip [lo, hi] must be free of abrupt frames, else it is
    # a consonant
    abrupt = np.concatenate(
        ([0], np.cumsum(np.abs(ror) >= cfg.ror_threshold)))
    smooth = abrupt[props['right_bases'] + 1] == abrupt[props['left_bases']]
    keep = (gap <= cfg.glide_window) & smooth
    return _landmarks(LandmarkKind.GLIDE, t[keep],
                      props['prominences'][keep])


def detect_consonant_landmarks(tracks: BandEnergyTracks) -> list[Landmark]:
    """Abrupt multi-band discontinuities, split into closures/releases;
    thresholds from `tracks.cfg`."""
    cfg = tracks.cfg
    _require_bands(tracks, 4)
    rel = _relative(tracks, cfg)
    span = _gate(tracks, cfg, rel)
    if span is None:
        return []
    step = tracks.frame_step
    rors = np.vstack([rate_of_rise(rel[b], cfg.ror_window, step)
                      for b in (LOW, MID, HIGH)])
    # a frame qualifies when >= 2 bands cross the magnitude threshold;
    # polarity comes from the low band (vocal-tract openness), so a
    # vowel-to-fricative transition reads as a closure even though the
    # high band rises
    size = np.abs(rors)
    hits = (size >= cfg.ror_threshold).sum(axis=0) >= 2
    mag = size.sum(axis=0)
    # one candidate per run of hits: its frame of largest summed |rate|
    cands = []
    for i0, i1 in zip(*_runs(hits)):
        k = int(i0) + int(np.argmax(mag[i0:i1]))
        if span[0] <= float(tracks.times[k]) <= span[1]:
            cands.append(k)
    manners = _classify_manner(rel, np.array(cands, dtype=np.intp), step,
                               cfg)
    out = []
    for k, manner in zip(cands, manners):
        polarity = rors[0, k] if abs(rors[0, k]) > 1e-9 else rors[:, k].sum()
        kind = (LandmarkKind.RELEASE if polarity > 0
                else LandmarkKind.CLOSURE)
        out.append(Landmark(float(tracks.times[k]), kind, manner,
                            strength=float(size[:, k].max())))
    return out


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and (exclusive) stops of the runs of True in mask."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def _frication(rel: np.ndarray, starts: np.ndarray, n: int,
               cfg: AnalysisConfig) -> np.ndarray:
    """Sustained frication in each window [s, s + n), clipped to the
    track: high band dominant and energetic.  An empty window has none.

    Whole windows read their medians from one sliding-window median per
    band; the few clipped at the track edges are computed one by one.
    """
    total = rel.shape[1]
    dominance = rel[HIGH] - rel[LOW]
    med_dominance = np.full(len(starts), -np.inf)
    med_high = np.full(len(starts), -np.inf)
    whole = (starts >= 0) & (starts + n <= total)
    if whole.any():
        s = starts[whole]
        med_dominance[whole] = median(sliding_window_view(dominance, n)[s])
        med_high[whole] = median(sliding_window_view(rel[HIGH], n)[s])
    for i in np.flatnonzero(~whole).tolist():
        lo, hi = max(0, int(starts[i])), min(total, int(starts[i]) + n)
        if hi > lo:
            med_dominance[i] = median(dominance[lo:hi])
            med_high[i] = median(rel[HIGH, lo:hi])
    return ((med_dominance >= cfg.noise_dominance_db)
            & (med_high > -(cfg.gate_db - 10.0)))


def _classify_manner(rel: np.ndarray, ks: np.ndarray, step: float,
                     cfg: AnalysisConfig) -> list[Manner]:
    """Manner of the consonantal events at frames ks: sonorant when the
    low band is about as strong on both sides, continuant with sustained
    high-band noise on either side, else noncontinuant."""
    low = rel[LOW]
    d = _frames(0.030, step, len(low))
    before = low[np.maximum(ks - d, 0)]
    after = low[np.minimum(ks + d, len(low) - 1)]
    sonorant = np.abs(after - before) <= cfg.sonorant_window_db
    n = _frames(cfg.noise_min_duration, step, len(low))
    off = _frames(0.005, step, len(low))
    fricated = _frication(rel, np.concatenate([ks + off, ks - off - n]),
                          n, cfg).reshape(2, -1).any(axis=0)
    return [Manner.SONORANT if s else
            Manner.CONTINUANT if f else Manner.NONCONTINUANT
            for s, f in zip(sonorant.tolist(), fricated.tolist())]


def _require_bands(tracks: BandEnergyTracks, n: int):
    if tracks.energy.shape[0] < n:
        raise LandmarkError(
            f'expected the standard band stack (low, f1, mid, high); '
            f'got {tracks.energy.shape[0]} bands')


_PRIORITY = {LandmarkKind.CLOSURE: 2, LandmarkKind.RELEASE: 2,
             LandmarkKind.VOWEL: 1, LandmarkKind.GLIDE: 0}


def landmark_sequence(vowels, glides, consonants,
                      cfg: AnalysisConfig) -> LandmarkSequence:
    """Merge detector outputs; landmarks closer than `cfg.merge_window`
    collapse by priority C > V > G.  Pass the config of the tracks the
    detectors ran on (`tracks.cfg`), as `detect_landmarks` does."""
    pool = sorted([*vowels, *glides, *consonants], key=lambda lm: lm.time)
    kept: list[Landmark] = []
    for lm in pool:
        if kept and lm.time - kept[-1].time < cfg.merge_window:
            prev = kept[-1]
            if (_PRIORITY[lm.kind], lm.strength) > \
                    (_PRIORITY[prev.kind], prev.strength):
                kept[-1] = lm
            continue
        kept.append(lm)
    return LandmarkSequence(kept)


def detect_landmarks(tracks: BandEnergyTracks) -> LandmarkSequence:
    """All three detectors over the standard band tracks, merged, with
    the config the tracks were measured with (`tracks.cfg`)."""
    vowels = detect_vowel_landmarks(tracks)
    glides = detect_glide_landmarks(tracks, vowels)
    consonants = detect_consonant_landmarks(tracks)
    return landmark_sequence(vowels, glides, consonants, tracks.cfg)


def detect_all(audio: AudioBuffer,
               cfg: AnalysisConfig | None = None) -> LandmarkSequence:
    """Full detection pipeline over one utterance."""
    return detect_landmarks(standard_tracks(audio, cfg))


CSV_HEADER = 'time_s,kind,manner,strength_dB'


def landmarks_csv(seq: LandmarkSequence) -> str:
    """CSV 'time_s,kind,manner,strength_dB'."""
    lines = [CSV_HEADER]
    for lm in seq.items:
        manner = lm.manner.value if lm.manner else ''
        lines.append(f'{lm.time:.6f},{lm.kind.value},{manner},'
                     f'{lm.strength:.2f}')
    return '\n'.join(lines) + '\n'


def parse_landmarks_csv(text: str) -> LandmarkSequence:
    """Inverse of `landmarks_csv`; errors name the offending line.  Line 1
    is the header, unless the text is empty."""
    lines = text.splitlines()
    if lines and lines[0].strip() != CSV_HEADER:
        raise LandmarkError(f'line 1: expected the header {CSV_HEADER}, '
                            f'got {lines[0][:60]!r}')
    items = []
    for lineno, ln in enumerate(lines[1:], 2):
        if not ln.strip():
            continue
        fields = ln.split(',')
        if len(fields) != 4:
            raise LandmarkError(f'line {lineno}: expected 4 fields '
                                f'(time_s,kind,manner,strength_dB), '
                                f'got {len(fields)}')
        t, kind, manner, strength = fields
        try:
            lm = Landmark(float(t), LandmarkKind(kind),
                          Manner(manner) if manner else None,
                          float(strength))
            if items and lm.time <= items[-1].time:
                raise ValueError('landmark times must strictly increase')
            items.append(lm)
        except ValueError as e:
            raise LandmarkError(f'line {lineno}: {e}') from None
    return LandmarkSequence(items)
