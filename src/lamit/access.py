"""Lexical access: estimated feature bundles matched against the lexicon."""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .config import AnalysisConfig, weight_problem
from .dsp import F1, HIGH, LOW, ParameterTrack, median
from .features import (ARTICULATOR_FREE, Checked, FeatureBundle,
                       FeatureInventory, MINUS, PLUS, PLUSMINUS, UNSPECIFIED)
from .landmarks import LandmarkKind, LandmarkSequence, Manner
from .lexicon import Lexicon, PhonemeIndex
from .textgrid import AnnotationDocument


class MatchError(ValueError):
    pass


class EstimatedSegment(NamedTuple):
    window: tuple[float, float]
    bundle: FeatureBundle

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.window[0] + self.window[1])


_DEFAULT = AnalysisConfig._field_defaults


class _DistanceWeights(NamedTuple):
    w_free: float = _DEFAULT['w_free']
    w_bound: float = _DEFAULT['w_bound']
    unspecified_cost: float = _DEFAULT['unspecified_cost']


class DistanceWeights(Checked, _DistanceWeights):
    __slots__ = ()

    def _check(self):
        problem = weight_problem(*self)
        if problem:
            raise MatchError(problem)

    @classmethod
    def from_config(cls, cfg: AnalysisConfig) -> 'DistanceWeights':
        return cls(cfg.w_free, cfg.w_bound, cfg.unspecified_cost)


class MatchResult(NamedTuple):
    word: str
    score: float
    cohort_rank: int


# ------------------------------------------------------------------ cues

# a segment's broad features: a vowel's or a glide's from its landmark's
# kind, a consonant's from its manner
_BROAD_FEATURES = {
    LandmarkKind.VOWEL: {'vowel': PLUS},
    LandmarkKind.GLIDE: {'glide': PLUS},
    Manner.SONORANT: {'cons': PLUS, 'son': PLUS},
    Manner.CONTINUANT: {'cons': PLUS, 'son': MINUS, 'cont': PLUS},
    Manner.NONCONTINUANT: {'cons': PLUS, 'son': MINUS, 'cont': MINUS},
}
_SLACK = {'slack': PLUS, 'stiff': MINUS}
_STIFF = {'stiff': PLUS, 'slack': MINUS}
_OPEN = {'low': PLUS, 'high': MINUS}
_CLOSE = {'high': PLUS, 'low': MINUS}
_BACK = {'back': PLUS, 'round': PLUS}


def _vowel_rules(params: ParameterTrack, i: int) -> dict:
    """Vowel height from the F1 band over the low band at frame i, and
    [+back +round] from the spectral tilt."""
    cfg = params.cfg
    energy = params.tracks.energy
    openness = energy[F1, i] - energy[LOW, i]
    height = (_OPEN if openness >= cfg.open_vowel_db else
              _CLOSE if openness <= cfg.close_vowel_db else {})
    return {**height, **(_BACK if params.tilt[i] <= cfg.back_tilt_db else {})}


def _strident_rule(params: ParameterTrack, closure, release,
                   inside: slice) -> dict:
    """[±strid] where the pair's neighbourhood has frames: whether the
    high band between its landmarks stands above the band around them
    by more than `strident_margin_db`."""
    high = params.tracks.energy[HIGH]
    neighbours = np.concatenate([
        high[params.window(closure.time - 0.08, closure.time - 0.02)],
        high[params.window(release.time + 0.02, release.time + 0.08)]])
    if not neighbours.size:
        return {}
    inner, outer = float(median(high[inside])), float(median(neighbours))
    return {'strid': PLUS if inner > outer + params.cfg.strident_margin_db
            else MINUS}


def _voiced_counts(params: ParameterTrack,
                   frames: dict[int, Sequence[int]]) -> dict[int, int]:
    """How many of each window's given frames are voiced, from one
    `params.voiced` call, or from none when there is no window."""
    if not frames:
        return {}
    voiced = params.voiced([f for r in frames.values() for f in r])
    out = {}
    pos = 0
    for n, r in frames.items():
        out[n] = int(np.count_nonzero(voiced[pos:pos + len(r)]))
        pos += len(r)
    return out


def _voicing_rule(params: ParameterTrack,
                  inside: dict[int, slice]) -> dict[int, dict]:
    """[+slack -stiff] for each window at least half of whose frames are
    voiced, else [+stiff -slack].

    A frame's F0 does not depend on the frames that share its call, so
    the frames are voiced in at most two calls.  The first takes the
    middle k // 2 + 1 of each window's k frames, whose F0 windows reach
    least into the neighbouring vowels: a window needs k - k // 2 voiced
    frames (a mean of at least 0.5), so it is [+slack] when that many of
    them are voiced, and [+stiff] when none is, its other frames being
    one too few.  The second call takes the other frames of the windows
    still open."""
    middle, need = {}, {}
    for n, frames in inside.items():
        k = frames.stop - frames.start
        start = frames.start + (k - k // 2 - 1) // 2
        middle[n] = range(start, start + k // 2 + 1)
        need[n] = k - k // 2
    counts = _voiced_counts(params, middle)
    ends = {n: [*range(frames.start, middle[n].start),
                *range(middle[n].stop, frames.stop)]
            for n, frames in inside.items() if 0 < counts[n] < need[n]}
    for n, count in _voiced_counts(params, ends).items():
        counts[n] += count
    return {n: _SLACK if counts[n] >= need[n] else _STIFF for n in inside}


def cues_to_bundles(seq: LandmarkSequence,
                    params: ParameterTrack | None = None
                    ) -> list[EstimatedSegment]:
    """One estimated segment per vowel/glide landmark and per
    closure-release pair; articulator-bound features only where a
    parameter rule fires, everything else unspecified.  Without params
    (landmarks alone) the segments carry the broad features only; with
    them, every threshold is read from `params.cfg`, the config the
    track was measured with.

    The landmarks are paired first: a vowel, glide or unpaired
    consonant landmark is a pair whose two ends are the same landmark.
    The voicing rule reads only the frames between the landmarks of
    each non-sonorant closure-release pair; they are voiced by at most
    two `ParameterTrack.voiced` calls (see `_voicing_rule`).  Each rule
    returns the features it sets, and each segment is made once, its
    bundle from one dict of its broad features, rules and voicing."""
    items = seq.items
    pairs = []
    i = 0
    while i < len(items):
        first = last = items[i]
        if first.kind is LandmarkKind.CLOSURE and i + 1 < len(items) \
                and items[i + 1].kind is LandmarkKind.RELEASE:
            last = items[i + 1]
        pairs.append((first, last))
        i += 1 if last is first else 2
    # the frames between the landmarks of each non-sonorant pair that
    # has any, by the pair's index
    inside: dict[int, slice] = {}
    voicing: dict[int, dict] = {}
    if params is not None:
        for n, (first, last) in enumerate(pairs):
            if first is not last and last.manner is not Manner.SONORANT:
                frames = params.window(first.time, last.time)
                if frames.start < frames.stop:
                    inside[n] = frames
        voicing = _voicing_rule(params, inside)
    out = []
    for n, (first, last) in enumerate(pairs):
        rules = {}
        if params is not None and last.kind is LandmarkKind.VOWEL:
            rules = _vowel_rules(params, params.at(last.time))
        elif last.manner is Manner.CONTINUANT and n in inside:
            rules = _strident_rule(params, first, last, inside[n])
        after = 0.05 if last.manner is None else 0.08
        out.append(EstimatedSegment(
            (first.time - 0.05, last.time + after),
            FeatureBundle({**_BROAD_FEATURES[last.manner or last.kind],
                           **rules, **voicing.get(n, {})})))
    return out


# -------------------------------------------------------------- distance

def feature_distance(est: FeatureBundle, lexical: FeatureBundle,
                     w: DistanceWeights, inv: FeatureInventory) -> float:
    """Weighted per-feature mismatch; see DistanceWeights for the knobs."""
    _check_names(est, inv)
    _check_names(lexical, inv)
    return _distance(est, lexical, w, inv)


def _check_names(bundle: FeatureBundle, inv: FeatureInventory):
    for name in bundle:
        if name not in inv.features:
            raise MatchError(f'feature {name!r} not in this inventory')


def _distance(est: FeatureBundle, lexical: FeatureBundle,
              w: DistanceWeights, inv: FeatureInventory) -> float:
    """`feature_distance` of two bundles whose names are checked."""
    total = 0.0
    unspecified_cost = w.unspecified_cost   # read once, not per feature
    for f in inv.features:
        e, l = est.value(f), lexical.value(f)
        if e is l:
            continue
        if l is PLUSMINUS and e in (PLUS, MINUS):
            continue        # the lexical ± accepts either polarity
        if e is UNSPECIFIED:
            total += unspecified_cost
        elif l is UNSPECIFIED:
            continue        # lexicon requires nothing here
        else:
            total += w.w_free if f in ARTICULATOR_FREE else w.w_bound
    return total


# ---------------------------------------------------------------- cohort

def score_candidate(segments, bundles, w: DistanceWeights,
                    inv: FeatureInventory) -> float:
    """Left-to-right alignment with end-gap penalties of w_free each."""
    n = min(len(segments), len(bundles))
    total = sum(feature_distance(segments[i].bundle, bundles[i], w, inv)
                for i in range(n))
    total += w.w_free * abs(len(segments) - len(bundles))
    return _finite(total)


def cohort_match(segments, lex: Lexicon, w: DistanceWeights | None = None,
                 k: int = 10) -> list[MatchResult]:
    """Top-k candidates by cohort scoring over the whole lexicon.

    Each segment is scored against every distinct inventory bundle
    once, and segments with equal bundles share one row of distances,
    computed afresh on every call; every entry's score is then summed
    from those rows at once (see `_top_k`).
    """
    w = w or DistanceWeights()
    _check_query(lex, k)
    segments = list(segments)
    if not segments:
        raise MatchError('no segments to match')
    table = lex.phoneme_index
    cost = _cost_rows(segments, table.bundles, lex.inventory, w, {})
    with np.errstate(over='ignore'):    # see _finite
        return _top_k(cost, table, w, k)


def _check_query(lex: Lexicon, k: int):
    if not lex.entries:
        raise MatchError('empty lexicon')
    if k < 1:
        raise MatchError('k must be positive')


def _cost_rows(segments, bundles, inv: FeatureInventory,
               w: DistanceWeights, rows: dict) -> list[np.ndarray]:
    """Each segment's distances to the distinct inventory `bundles` of
    the lexicon's `phoneme_index`, plus a trailing 0.0 for its pad.

    Lexical bundles are shared per phoneme, so a segment needs one
    distance per distinct inventory bundle, rather than one per lexicon
    entry.  A row depends only on the segment's bundle: `rows`, owned by
    the caller, holds one per distinct bundle, so segments with equal
    bundles share it, and each bundle's names are checked once.
    """
    out = []
    for seg in segments:
        key = frozenset(seg.bundle.items())
        row = rows.get(key)
        if row is None:
            _check_names(seg.bundle, inv)
            row = rows[key] = np.array(
                [_distance(seg.bundle, b, w, inv) for b in bundles] + [0.0])
        out.append(row)
    return out


def _top_k(cost: list[np.ndarray], table: PhonemeIndex, w: DistanceWeights,
           k: int) -> list[MatchResult]:
    """Every entry scored, then the k best by score and orthography.

    Column i of the index matrix holds each entry's i-th bundle column,
    or the pad past its end, so one gather of cost row i adds position i
    to all entries.  The sums run left to right from 0.0 and adding the
    pad's 0.0 is exact, so each score is the float `score_candidate`
    gives.
    """
    n = len(cost)
    scores = np.zeros(len(table.orthographies))
    for row, column in zip(cost, table.index.T):
        scores += row[column]
    scores += w.w_free * np.abs(table.lengths - n)
    _finite(scores.max())
    # the rows are in orthography order, so a stable sort breaks ties
    best = np.argsort(scores, kind='stable')[:k]
    # competition ranking: candidates with equal scores (homophones)
    # share a rank
    results = []
    rank = 0
    prev_score = None
    for pos, e in enumerate(best.tolist(), 1):
        score = float(scores[e])
        if prev_score is None or score > prev_score:
            rank = pos
            prev_score = score
        results.append(MatchResult(table.orthographies[e], score, rank))
    return results


def _finite(score: float) -> float:
    """The score, or MatchError if it overflowed to inf.

    Costs and weights are finite and >= 0, so a sum can only overflow to
    inf.  The callers of `_top_k` run its array sums under
    `np.errstate(over='ignore')`, entered once per call, so numpy warns
    of nothing and the overflow is this one error.
    """
    if not math.isfinite(score):
        raise MatchError('a candidate score overflows: the matcher '
                         'weights are too large')
    return score


class WordMatch(NamedTuple):
    interval_index: int     # in the Word tier, which holds the label
    results: tuple[MatchResult, ...] = ()

    @property
    def no_evidence(self) -> bool:
        """No segment fell in the word, so nothing was ranked."""
        return not self.results


def match_in_word_intervals(doc: AnnotationDocument, segments, lex: Lexicon,
                            w: DistanceWeights | None = None, k: int = 10):
    """Per-word cohort matching; segments are assigned to the word
    interval containing their midpoint (the earlier one on a shared
    boundary).  Returns (matches, orphans).

    Each word is ranked as `cohort_match` ranks it, but the words share
    one row of distances per distinct bundle, computed during this call
    only; orphans are never scored.
    """
    w = w or DistanceWeights()
    labelled = [(i, iv) for i, iv in enumerate(doc.tier('Word').items)
                if iv.label]
    # the tier is sorted and non-overlapping, so the first labelled
    # interval ending at or after t is the only one that can hold t
    ends = [iv.t_end for _, iv in labelled]
    per_word: list[list] = [[] for _ in labelled]
    orphans = []
    for seg in segments:
        t = seg.midpoint
        j = bisect_left(ends, t)
        if j < len(labelled) and labelled[j][1].t_start <= t:
            per_word[j].append(seg)
        else:
            orphans.append(seg)
    rows: dict = {}
    if any(per_word):
        _check_query(lex, k)
        table = lex.phoneme_index
    matches = []
    with np.errstate(over='ignore'):    # see _finite
        for (i, _), segs in zip(labelled, per_word):
            if not segs:
                matches.append(WordMatch(i))
                continue
            cost = _cost_rows(segs, table.bundles, lex.inventory, w, rows)
            matches.append(WordMatch(i, tuple(_top_k(cost, table, w, k))))
    return matches, orphans


def matches_csv(matches: list[WordMatch]) -> str:
    """CSV 'word_interval_index,candidate,score,rank'."""
    lines = ['word_interval_index,candidate,score,rank']
    for m in matches:
        if m.no_evidence:
            lines.append(f'{m.interval_index},<no evidence>,,')
        for r in m.results:
            lines.append(f'{m.interval_index},{r.word},{r.score:.4f},'
                         f'{r.cohort_rank}')
    return '\n'.join(lines) + '\n'
