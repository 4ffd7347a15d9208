import random
import warnings

import pytest

from lamit.access import (DistanceWeights, EstimatedSegment, MatchError,
                          MatchResult, WordMatch, cohort_match, cues_to_bundles,
                          feature_distance, match_in_word_intervals,
                          matches_csv, score_candidate)
from lamit.config import AnalysisConfig
from lamit.dsp import parameter_frames
from lamit.features import (FeatureBundle, FeatureInventory, InventoryError,
                            MINUS, MajorClass, PLUS, PLUSMINUS, PhonemeId,
                            UNSPECIFIED, features_of)
from lamit.landmarks import detect_all, detect_landmarks
from lamit.lexicon import (Lexicon, expand_word, load_lexicon,
                           serialize_lexicon)
from lamit.textgrid import AnnotationDocument, Interval, IntervalTier

import synth

W = DistanceWeights()


def seg(bundle, t0=0.0, t1=0.1):
    return EstimatedSegment((t0, t1), bundle)


def segs_for(lex, word, spacing=0.2):
    out = []
    for i, b in enumerate(expand_word(lex, word)):
        t = 0.05 + i * spacing
        out.append(EstimatedSegment((t - 0.04, t + 0.04), FeatureBundle(b)))
    return out


def brute_force(segments, lex, w, k):
    """Exhaustive scorer, independent of the incremental matcher."""
    inv = lex.inventory
    scored = []
    for orth, entry in lex.entries.items():
        bundles = [inv.bundles[t.phoneme.ipa] for t in entry.phonemes]
        scored.append((score_candidate(segments, bundles, w, inv), 0, orth))
    scored.sort()
    return scored[:k]


# ------------------------------------------------------------- distance

def test_distance_identity(italian):
    b = features_of(italian, 'a')
    assert feature_distance(b, b, W, italian) == 0.0


def test_distance_single_bound_conflict(italian):
    a = FeatureBundle({'cons': PLUS, 'ant': PLUS})
    b = FeatureBundle({'cons': PLUS, 'ant': MINUS})
    assert feature_distance(a, b, W, italian) == W.w_bound


def test_distance_t_vs_d(italian):
    # t and d differ in the two voicing features in the shipped chart
    t = features_of(italian, 't')
    d = features_of(italian, 'd')
    assert feature_distance(t, d, DistanceWeights(w_bound=1.0),
                            italian) == 2.0


def test_distance_free_vs_bound_weights(italian):
    a = FeatureBundle({'cons': PLUS})
    b = FeatureBundle({'vowel': PLUS})
    # cons +/unspec and vowel unspec/+ -> one unspecified_cost each way
    d = feature_distance(a, b, W, italian)
    assert d == pytest.approx(W.unspecified_cost)
    c = FeatureBundle({'cons': MINUS})
    d2 = feature_distance(c, FeatureBundle({'cons': PLUS}), W, italian)
    assert d2 == W.w_free


def test_distance_plusminus_matches_both(italian):
    ts = features_of(italian, 'ts')        # cont is ±
    stop = FeatureBundle(dict(ts, cont=MINUS))
    fric = FeatureBundle(dict(ts, cont=PLUS))
    assert feature_distance(stop, ts, W, italian) == 0.0
    assert feature_distance(fric, ts, W, italian) == 0.0


def test_distance_unspecified_estimate_costs(italian):
    est = FeatureBundle({'cons': PLUS})
    lexical = features_of(italian, 't')
    d = feature_distance(est, lexical, W, italian)
    specified = len(lexical) - 1    # cons matches
    assert d == pytest.approx(specified * W.unspecified_cost)


def test_distance_unknown_feature_errors(italian):
    with pytest.raises(MatchError):
        feature_distance(FeatureBundle({'nasalized': PLUS}),
                         FeatureBundle(), W, italian)


def test_distance_symmetric_in_polarity(italian):
    a = FeatureBundle({'ant': PLUS})
    b = FeatureBundle({'ant': MINUS})
    assert feature_distance(a, b, W, italian) == \
        feature_distance(b, a, W, italian)


def test_weights_validation():
    with pytest.raises(MatchError):
        DistanceWeights(w_free=1.0, w_bound=2.0)
    with pytest.raises(MatchError):
        DistanceWeights(unspecified_cost=-1)


def test_weights_defaults_and_replace_are_checked():
    assert DistanceWeights() == DistanceWeights.from_config(AnalysisConfig())
    assert DistanceWeights()._replace(w_free=3.0) == DistanceWeights(3.0)
    with pytest.raises(MatchError):
        DistanceWeights()._replace(w_bound=3.0)


@pytest.mark.parametrize('bad', [
    {'unspecified_cost': float('nan')}, {'unspecified_cost': float('inf')},
    {'w_free': float('inf')}, {'w_free': float('nan')},
    {'w_free': float('inf'), 'w_bound': float('inf')},
    {'w_bound': float('nan')}])
def test_weights_must_be_finite(bad):
    # a NaN score would order differently under lexsort and tuple sort
    with pytest.raises(MatchError, match='finite'):
        DistanceWeights(**bad)


# --------------------------------------------------------------- cohort

def test_exact_match_casa(lamit_lexicon):
    results = cohort_match(segs_for(lamit_lexicon, 'CASA'), lamit_lexicon,
                           W, k=5)
    assert results[0].word == 'CASA'
    assert results[0].score == 0.0
    assert results[0].cohort_rank == 1
    # unique zero score
    assert all(r.score > 0 for r in results[1:])


def test_underspecified_final_vowel_cohort(lamit_lexicon):
    segments = segs_for(lamit_lexicon, 'CASA')
    segments[-1] = seg(FeatureBundle({'vowel': PLUS}),
                       *segments[-1].window)
    results = cohort_match(segments, lamit_lexicon, W, k=5)
    top_score = results[0].score
    top_set = {r.word for r in results if r.score == top_score}
    assert top_set == {'CASA', 'CASO'}


def test_word_not_in_lexicon_scores_positive(italian, lamit_lexicon):
    from lamit.lexicon import load_lexicon, serialize_lexicon
    text = '\n'.join(ln for ln in
                     serialize_lexicon(lamit_lexicon).splitlines()
                     if not ln.startswith('ZOO\t'))
    smaller = load_lexicon(text, italian)
    zoo = segs_for(lamit_lexicon, 'ZOO')
    results = cohort_match(zoo, smaller, W, k=3)
    assert results[0].score > 0


def test_cohort_errors(lamit_lexicon, italian):
    with pytest.raises(MatchError):
        cohort_match([], lamit_lexicon, W, k=5)
    with pytest.raises(MatchError):
        cohort_match(segs_for(lamit_lexicon, 'CASA'), lamit_lexicon, W, k=0)
    empty = Lexicon({}, italian)
    with pytest.raises(MatchError):
        cohort_match(segs_for(lamit_lexicon, 'CASA'), empty, W, k=5)


def test_overflowing_scores_raise_without_warnings(lamit_lexicon, italian):
    """Weights so large that a score overflows to inf are an error, with
    no numpy warning, even when the k best scores are finite."""
    huge = DistanceWeights(w_free=1e308, w_bound=1e308)
    casa = segs_for(lamit_lexicon, 'CASA')
    doc, words = make_word_doc(lamit_lexicon, ['CASA'])
    mamma = [italian.bundles[t.phoneme.ipa]
             for t in lamit_lexicon.entries['MAMMA'].phonemes]
    assert cohort_match(casa, lamit_lexicon, DistanceWeights(
        w_free=1e307, w_bound=1e307), k=1)[0].score == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        with pytest.raises(MatchError, match='overflows'):
            cohort_match(casa, lamit_lexicon, huge, k=1)
        with pytest.raises(MatchError, match='overflows'):
            match_in_word_intervals(doc, words, lamit_lexicon, huge, k=1)
        with pytest.raises(MatchError, match='overflows'):
            score_candidate(casa, mamma, huge, italian)


def _random_segments(rng, lex, max_len=6):
    orth = rng.choice(sorted(lex.entries))
    segments = []
    for s in segs_for(lex, orth)[:max_len]:
        b = dict(s.bundle)
        for f in list(b):
            roll = rng.random()
            if roll < 0.25 and f not in ('vowel', 'glide', 'cons'):
                del b[f]                       # forget the feature
            elif roll < 0.35 and b[f] in (PLUS, MINUS) \
                    and f not in ('vowel', 'glide', 'cons'):
                b[f] = MINUS if b[f] is PLUS else PLUS
        segments.append(s._replace(bundle=FeatureBundle(b)))
    if rng.random() < 0.3 and len(segments) > 1:
        segments = segments[:-1]               # missing final landmark
    return segments


def test_oracle_equivalence_random(lamit_lexicon, italian):
    from lamit.lexicon import load_lexicon, serialize_lexicon
    rng = random.Random(42)
    all_lines = [ln for ln in
                 serialize_lexicon(lamit_lexicon).splitlines() if ln]
    for trial in range(60):
        lines = rng.sample(all_lines, 50)
        sub = load_lexicon('\n'.join(lines), italian)
        segments = _random_segments(rng, sub)
        mine = cohort_match(segments, sub, W, k=10)
        oracle = brute_force(segments, sub, W, k=10)
        assert [r.score for r in mine] == \
            pytest.approx([s for s, _, _ in oracle])
        # equal-score groups must contain the same words
        by_score = {}
        for r in mine:
            by_score.setdefault(round(r.score, 9), set()).add(r.word)
        for s, _, o in oracle:
            assert o in by_score[round(s, 9)]


# score-0 ties in the shipped lexicon: A/HA are true homophones (silent
# h); an estimated affricate also matches the fricative entry through
# the two-sided [cont] cell (SCI -> CI)
HOMOPHONE_SETS = {
    'A': {'A', 'HA'}, 'HA': {'A', 'HA'},
    'SCI': {'SCI', 'CI'},
}


def test_self_retrieval_all_entries(lamit_lexicon):
    failures = []
    for orth in lamit_lexicon.entries:
        results = cohort_match(segs_for(lamit_lexicon, orth),
                               lamit_lexicon, W, k=3)
        hit = next((r for r in results if r.word == orth), None)
        if hit is None or hit.cohort_rank != 1 or hit.score != 0.0:
            failures.append(orth)
            continue
        zero = {r.word for r in results if r.score == 0.0}
        if zero != HOMOPHONE_SETS.get(orth, {orth}):
            failures.append(f'{orth} (score-0 set {sorted(zero)})')
    assert not failures, failures


def test_score_monotone_in_conflicts(lamit_lexicon, italian):
    segments = segs_for(lamit_lexicon, 'MAMMA')
    entry_bundles = [italian.bundles[t.phoneme.ipa]
                     for t in lamit_lexicon.entry('MAMMA').phonemes]
    base = score_candidate(segments, entry_bundles, W, italian)
    # flipping one specified feature strictly increases the score
    segments[1] = segments[1]._replace(
        bundle=FeatureBundle({**segments[1].bundle, 'low': MINUS}))
    one = score_candidate(segments, entry_bundles, W, italian)
    assert one > base
    segments[1] = segments[1]._replace(
        bundle=FeatureBundle({**segments[1].bundle, 'back': PLUS}))
    two = score_candidate(segments, entry_bundles, W, italian)
    assert two > one


def test_ranking_invariant_under_weight_scaling(lamit_lexicon):
    segments = segs_for(lamit_lexicon, 'BENE')
    b = {f: v for f, v in segments[0].bundle.items() if f != 'slack'}
    segments[0] = segments[0]._replace(bundle=FeatureBundle(b))
    a = cohort_match(segments, lamit_lexicon, W, k=10)
    scaled = DistanceWeights(W.w_free * 3, W.w_bound * 3,
                             W.unspecified_cost * 3)
    b = cohort_match(segments, lamit_lexicon, scaled, k=10)
    assert [r.word for r in a] == [r.word for r in b]
    for x, y in zip(a, b):
        assert y.score == pytest.approx(3 * x.score)


# ------------------------------------------------------------ cue rules

def test_open_vowel_cue():
    audio, peak_t = synth.vowel_rise_fall(0.3,
                                          formants=(700., 1200., 2600.))
    cfg = AnalysisConfig()
    seq = detect_all(audio, cfg)
    segments = cues_to_bundles(seq, parameter_frames(audio, cfg))
    vowel = next(s for s in segments if s.bundle.value('vowel') is PLUS)
    assert vowel.bundle.value('low') is PLUS


def test_close_vowel_cue():
    audio, _ = synth.vowel_rise_fall(0.3, formants=(280., 2300., 3000.))
    cfg = AnalysisConfig()
    seq = detect_all(audio, cfg)
    segments = cues_to_bundles(seq, parameter_frames(audio, cfg))
    vowel = next(s for s in segments if s.bundle.value('vowel') is PLUS)
    assert vowel.bundle.value('high') is PLUS


def test_back_vowel_cue():
    audio, _ = synth.vowel_rise_fall(0.3, formants=(300., 700., 2200.))
    cfg = AnalysisConfig()
    seq = detect_all(audio, cfg)
    segments = cues_to_bundles(seq, parameter_frames(audio, cfg))
    vowel = next(s for s in segments if s.bundle.value('vowel') is PLUS)
    assert vowel.bundle.value('back') is PLUS
    assert vowel.bundle.value('round') is PLUS


def test_strident_continuant_cue():
    audio, _ = synth.fricative_vcv()
    cfg = AnalysisConfig()
    seq = detect_all(audio, cfg)
    segments = cues_to_bundles(seq, parameter_frames(audio, cfg))
    fric = next(s for s in segments if s.bundle.value('cons') is PLUS)
    assert fric.bundle.value('cont') is PLUS
    assert fric.bundle.value('strid') is PLUS
    assert fric.bundle.value('son') is MINUS


def test_stop_segment_default_underspecified():
    audio, _ = synth.vcv_stop()
    cfg = AnalysisConfig()
    seq = detect_all(audio, cfg)
    segments = cues_to_bundles(seq, parameter_frames(audio, cfg))
    stop = next(s for s in segments if s.bundle.value('cons') is PLUS)
    assert stop.bundle.value('cont') is MINUS
    # no place evidence: articulator features left unspecified
    for f in ('lips', 'blade', 'body', 'ant'):
        assert stop.bundle.value(f) is UNSPECIFIED


def test_cue_thresholds_come_from_the_tracks_config():
    """Every cue rule reads its threshold from the config its track was
    measured with; thresholds no frame can meet set no feature."""
    audio = synth.utterances()['concatenated']
    strict = AnalysisConfig(open_vowel_db=100.0, close_vowel_db=-100.0,
                            back_tilt_db=-100.0, strident_margin_db=1000.0)
    for cfg, fired in ((AnalysisConfig(), True), (strict, False)):
        seq = detect_all(audio, cfg)
        segments = cues_to_bundles(seq, parameter_frames(audio, cfg))
        values = [s.bundle.value(f) for s in segments
                  for f in ('low', 'high', 'back')]
        assert any(v is not UNSPECIFIED for v in values) is fired
        strid = [s.bundle.value('strid') for s in segments]
        assert (PLUS in strid) is fired
        assert MINUS in strid


def test_empty_landmark_sequence_gives_no_segments():
    from lamit.landmarks import LandmarkSequence
    audio = synth.steady_vowel(0.2)
    params = parameter_frames(audio)
    assert cues_to_bundles(LandmarkSequence([]), params) == []


def test_pair_with_no_frames_between_gets_only_broad_features():
    """A continuant closure-release pair that falls between two frame
    times has no frames to read: neither the strident nor the voicing
    rule fires on it."""
    from lamit.landmarks import (Landmark, LandmarkKind, LandmarkSequence,
                                 Manner)
    params = parameter_frames(synth.vcv_stop()[0])
    t = float(params.tracks.times[40])
    closure, release = t + 0.0001, t + 0.0002
    inside = params.window(closure, release)
    assert inside.start == inside.stop
    seq = LandmarkSequence([
        Landmark(closure, LandmarkKind.CLOSURE, Manner.CONTINUANT),
        Landmark(release, LandmarkKind.RELEASE, Manner.CONTINUANT)])
    [segment] = cues_to_bundles(seq, params)
    assert segment.bundle == {'cons': PLUS, 'son': MINUS, 'cont': PLUS}
    assert segment.window == (closure - 0.05, release + 0.08)


def test_pair_with_no_frames_around_it_gets_no_strident_feature():
    """On 0.1 s of audio, a continuant pair at 0.03 and 0.07 s has frames
    between its landmarks but none in the bands 20-80 ms before and
    after them that the strident rule compares them with: the segment
    gets no [strid], and the voicing rule still reads its frames."""
    from lamit.landmarks import (Landmark, LandmarkKind, LandmarkSequence,
                                 Manner)
    params = parameter_frames(synth.steady_vowel(0.1))
    closure, release = 0.03, 0.07
    inside = params.window(closure, release)
    assert inside.start < inside.stop
    for t0, t1 in ((closure - 0.08, closure - 0.02),
                   (release + 0.02, release + 0.08)):
        window = params.window(t0, t1)
        assert window.start == window.stop
    seq = LandmarkSequence([
        Landmark(closure, LandmarkKind.CLOSURE, Manner.CONTINUANT),
        Landmark(release, LandmarkKind.RELEASE, Manner.CONTINUANT)])
    [segment] = cues_to_bundles(seq, params)
    assert segment.bundle.value('strid') is UNSPECIFIED
    assert list(segment.bundle)[:3] == ['cons', 'son', 'cont']
    assert {'slack', 'stiff'} <= set(segment.bundle)


# -------------------------------------------------- word-interval match

def make_word_doc(lex, words, word_dur=1.0):
    items = []
    for i, w in enumerate(words):
        items.append(Interval(i * word_dur, (i + 1) * word_dur, w))
    doc = AnnotationDocument(len(words) * word_dur,
                             [IntervalTier('Word', items)])
    segments = []
    for i, w in enumerate(words):
        for j, b in enumerate(expand_word(lex, w)):
            t = i * word_dur + 0.1 + 0.08 * j
            segments.append(EstimatedSegment((t - 0.03, t + 0.03),
                                             FeatureBundle(b)))
    return doc, segments


def test_match_per_word_exact(lamit_lexicon):
    words = ['MAMMA', 'E', 'PAPÀ', 'TI', 'VOGLIONO', 'BENE']
    doc, segments = make_word_doc(lamit_lexicon, words)
    matches, orphans = match_in_word_intervals(doc, segments, lamit_lexicon,
                                               W, k=3)
    assert not orphans
    assert [m.results[0].word for m in matches] == words
    assert all(m.results[0].score == 0.0 for m in matches)


def test_match_empty_word_flagged(lamit_lexicon):
    doc, segments = make_word_doc(lamit_lexicon, ['MAMMA', 'BENE'])
    segments = [s for s in segments if s.midpoint < 1.0]
    matches, _ = match_in_word_intervals(doc, segments, lamit_lexicon, W)
    assert matches[0].results
    assert matches[1].no_evidence


def test_match_orphan_excluded(lamit_lexicon):
    doc, segments = make_word_doc(lamit_lexicon, ['MAMMA'])
    stray = EstimatedSegment((5.0, 5.1), FeatureBundle({'vowel': PLUS}))
    matches, orphans = match_in_word_intervals(doc, segments + [stray],
                                               lamit_lexicon, W)
    assert orphans == [stray]
    assert matches[0].results[0].word == 'MAMMA'


def test_straddling_segment_assigned_by_midpoint(lamit_lexicon):
    doc, segments = make_word_doc(lamit_lexicon, ['MAMMA', 'BENE'])
    straddler = EstimatedSegment((0.9, 1.3), FeatureBundle({'vowel': PLUS}))
    matches, orphans = match_in_word_intervals(doc, [straddler],
                                               lamit_lexicon, W)
    assert not orphans
    # midpoint 1.1 belongs to the second word
    assert matches[0].no_evidence
    assert matches[1].results


def test_matches_csv(lamit_lexicon):
    doc, segments = make_word_doc(lamit_lexicon, ['MAMMA'])
    matches, _ = match_in_word_intervals(doc, segments, lamit_lexicon, W,
                                         k=2)
    csv = matches_csv(matches)
    lines = csv.strip().split('\n')
    assert lines[0] == 'word_interval_index,candidate,score,rank'
    assert lines[1].startswith('0,MAMMA,0.0000,1')


# ------------------------------------- word-interval match vs per word

W_ODD = DistanceWeights(w_free=2.0, w_bound=0.1, unspecified_cost=0.3)


def per_word_reference(doc, segments, lex, w, k=10):
    """Segments assigned by a linear scan over the labelled intervals,
    then one independent cohort_match call per word."""
    labelled = [(i, iv) for i, iv in enumerate(doc.tier('Word').items)
                if iv.label]
    per_word = {i: [] for i, _ in labelled}
    orphans = []
    for s in segments:
        home = next((i for i, iv in labelled
                     if iv.t_start <= s.midpoint <= iv.t_end), None)
        (orphans if home is None else per_word[home]).append(s)
    matches = [WordMatch(i, tuple(cohort_match(per_word[i], lex, w, k))
                         if per_word[i] else ())
               for i, _ in labelled]
    return matches, orphans


def assert_same_as_per_word(doc, segments, lex, w, k=10):
    matches, orphans = match_in_word_intervals(doc, segments, lex, w, k)
    want, want_orphans = per_word_reference(doc, segments, lex, w, k)
    assert matches == want
    assert [id(s) for s in orphans] == [id(s) for s in want_orphans]
    return matches


def fixture_segments(audio):
    params = parameter_frames(audio)
    return cues_to_bundles(detect_landmarks(params.tracks), params)


@pytest.mark.parametrize('w', [W, W_ODD], ids=['default', 'non-dyadic'])
def test_word_match_equals_per_word_on_fixtures(lamit_lexicon, w):
    ranked = 0
    for name, audio in synth.utterances().items():
        segments = fixture_segments(audio)
        doc = synth.word_doc(audio.duration)
        matches = assert_same_as_per_word(doc, segments, lamit_lexicon, w)
        ranked += sum(bool(m.results) for m in matches)
    assert ranked >= 20


def random_word_doc(rng, pool):
    """Contiguous intervals, some unlabelled, with segments drawn from a
    small bundle pool (so bundles repeat) at random midpoints, on shared
    boundaries and past the end."""
    edges = [0.0]
    for _ in range(rng.randint(1, 8)):
        edges.append(round(edges[-1] + rng.choice([0.1, 0.25, 0.3, 0.7]),
                           3))
    items = [Interval(a, b, rng.choice(['', 'W', 'W', 'W']))
             for a, b in zip(edges, edges[1:])]
    doc = AnnotationDocument(edges[-1] + 0.5, [IntervalTier('Word', items)])
    segments = []
    for _ in range(rng.randint(0, 25)):
        t = rng.choice([rng.uniform(0, edges[-1] + 0.5), rng.choice(edges)])
        segments.append(EstimatedSegment((t - 0.02, t + 0.02),
                                         FeatureBundle(rng.choice(pool))))
    segments.sort(key=lambda s: s.midpoint)
    return doc, segments


def bundle_pool(rng, lex, size=12):
    pool = []
    while len(pool) < size:
        pool.extend(s.bundle for s in _random_segments(rng, lex))
    return pool[:size]


@pytest.mark.parametrize('w', [W, W_ODD], ids=['default', 'non-dyadic'])
def test_word_match_equals_per_word_random(lamit_lexicon, italian, w):
    from lamit.lexicon import load_lexicon, serialize_lexicon
    rng = random.Random(7)
    lines = [ln for ln in serialize_lexicon(lamit_lexicon).splitlines()
             if ln]
    for trial in range(25):
        sub = load_lexicon('\n'.join(rng.sample(lines, 80)), italian)
        doc, segments = random_word_doc(rng, bundle_pool(rng, sub))
        assert_same_as_per_word(doc, segments, sub, w,
                                k=rng.choice([1, 3, 10]))


def test_midpoint_on_shared_boundary_goes_to_earlier_word(lamit_lexicon):
    items = [Interval(0.0, 1.0, 'MAMMA'), Interval(1.0, 2.0, 'BENE'),
             Interval(2.0, 3.0, ''), Interval(3.0, 4.0, 'CASA')]
    doc = AnnotationDocument(4.0, [IntervalTier('Word', items)])
    vowel = FeatureBundle({'vowel': PLUS})
    at = [EstimatedSegment((t - 0.05, t + 0.05), vowel)
          for t in (0.0, 1.0, 2.0, 2.5, 3.0, 4.0)]
    matches, orphans = match_in_word_intervals(doc, at, lamit_lexicon, W)
    # 0.0 and 1.0 to MAMMA, 2.0 to BENE (not the unlabelled interval it
    # starts), 2.5 inside the unlabelled one, 3.0 and 4.0 to CASA
    assert [m.no_evidence for m in matches] == [False, False, False]
    assert orphans == [at[3]]
    assert_same_as_per_word(doc, at, lamit_lexicon, W)
    one = [EstimatedSegment((0.95, 1.05), vowel)]
    matches, _ = match_in_word_intervals(doc, one, lamit_lexicon, W)
    assert [m.no_evidence for m in matches] == [False, True, True]


def test_distance_computed_once_per_distinct_bundle(lamit_lexicon,
                                                    monkeypatch):
    import lamit.access as access
    calls = []
    real = access._distance

    def counted(*args):
        calls.append(1)
        return real(*args)

    def oracle(*args):
        raise AssertionError('the matcher called feature_distance')
    monkeypatch.setattr(access, '_distance', counted)
    monkeypatch.setattr(access, 'feature_distance', oracle)
    doc, segments = make_word_doc(lamit_lexicon,
                                  ['MAMMA', 'MAMMA', 'BENE', 'CASA'])
    # orphans are never scored, so an unknown feature there is harmless
    stray = EstimatedSegment((9.0, 9.1), FeatureBundle({'bogus': PLUS}))
    distinct = {frozenset(s.bundle.items()) for s in segments}
    assert len(distinct) < len(segments)
    # geminates share their singleton's bundle: 30 of 50 are distinct
    assert len(lamit_lexicon.phoneme_index.bundles) == 30
    for _ in range(2):
        calls.clear()
        _, orphans = match_in_word_intervals(doc, segments + [stray],
                                             lamit_lexicon, W)
        assert orphans == [stray]
        assert len(calls) == len(distinct) * 30


def test_no_state_survives_a_call(lamit_lexicon):
    doc, segments = make_word_doc(lamit_lexicon, ['MAMMA', 'CASA', 'BENE'])
    for n in range(1, len(segments), 3):
        b = {f: v for f, v in segments[n].bundle.items() if f != 'high'}
        segments[n] = segments[n]._replace(bundle=FeatureBundle(b))
    first = match_in_word_intervals(doc, segments, lamit_lexicon, W)
    odd = match_in_word_intervals(doc, segments, lamit_lexicon, W_ODD)
    assert first == match_in_word_intervals(doc, segments, lamit_lexicon, W)
    assert odd == per_word_reference(doc, segments, lamit_lexicon, W_ODD)
    assert [r.score for r in first[0][0].results] != \
        [r.score for r in odd[0][0].results]


def test_word_match_errors_in_word_order(lamit_lexicon, italian):
    doc, segments = make_word_doc(lamit_lexicon, ['MAMMA', 'BENE', 'CASA'])
    for n, name in ((7, 'nasalized'), (9, 'creaky')):     # BENE, CASA
        segments[n] = segments[n]._replace(
            bundle=FeatureBundle({**segments[n].bundle, name: PLUS}))
    for call in (match_in_word_intervals, per_word_reference):
        with pytest.raises(MatchError, match="'nasalized'"):
            call(doc, segments, lamit_lexicon, W)
    with pytest.raises(MatchError, match='k must be positive'):
        match_in_word_intervals(doc, segments, lamit_lexicon, W, k=0)
    with pytest.raises(MatchError, match='empty lexicon'):
        match_in_word_intervals(doc, segments, Lexicon({}, italian), W)
    # with no evidence in any word nothing is matched, so nothing raises
    matches, _ = match_in_word_intervals(doc, [], Lexicon({}, italian), W,
                                         k=0)
    assert all(m.no_evidence for m in matches)


# ------------------------------------------ distinct bundles, hand-built

def hand_built_lexicon(stray=()):
    """Five phonemes over eight features.  The geminate 'tt' comes
    before 't' and is given an equal copy of its bundle, not the same
    object; `stray` adds (ipa, name) pairs the features do not list."""
    t = {'cons': PLUS, 'son': MINUS, 'cont': MINUS, 'stiff': PLUS}
    cells = {'a': {'vowel': PLUS, 'low': PLUS, 'high': MINUS},
             'tt': dict(t),
             'i': {'vowel': PLUS, 'high': PLUS, 'low': MINUS},
             't': t,
             's': {'cons': PLUS, 'son': MINUS, 'cont': PLUS, 'strid': PLUS,
                   'stiff': PLUSMINUS}}
    for ipa, name in stray:
        cells[ipa][name] = PLUS
    phonemes = [PhonemeId('a', 'AA', MajorClass.VOWEL),
                PhonemeId('tt', 'TT', MajorClass.CONSONANT, 't'),
                PhonemeId('i', 'IY', MajorClass.VOWEL),
                PhonemeId('t', 'T', MajorClass.CONSONANT),
                PhonemeId('s', 'S', MajorClass.CONSONANT)]
    inv = FeatureInventory(
        phonemes, {k: FeatureBundle(v) for k, v in cells.items()},
        ('vowel', 'cons', 'son', 'cont', 'strid', 'high', 'low', 'stiff'))
    words = {'TA': 'T AA1', 'ATTA': 'AA1 TT AA', 'SI': 'S IY1',
             'ITS': 'IY1 T S', 'SASSI': 'S AA1 S S IY', 'TI': 'T IY1',
             'A': 'AA1', 'TATTI': 'T AA1 TT IY', 'STA': 'S T AA1'}
    return load_lexicon('\n'.join(f'{o}\t{p}' for o, p in words.items()),
                        inv)


def brute_force_ranks(segments, lex, w, k):
    """`brute_force` with competition ranks, as MatchResults."""
    results = []
    for pos, (score, _, orth) in enumerate(brute_force(segments, lex, w, k),
                                           1):
        rank = results[-1].cohort_rank if results and \
            results[-1].score == score else pos
        results.append(MatchResult(orth, score, rank))
    return results


def test_equal_bundles_in_separate_objects_share_a_column():
    lex = hand_built_lexicon()
    inv = lex.inventory
    # the geminate's copy is stored as its singleton's object
    assert inv.bundles['tt'] is inv.bundles['t']
    table = lex.phoneme_index
    assert table is lex.phoneme_index           # built once
    # in order of first use: 'tt' comes before 't' and takes its column
    assert table.bundles == (inv.bundles['a'], inv.bundles['t'],
                             inv.bundles['i'], inv.bundles['s'])
    assert all(b is inv.bundles[ipa]
               for b, ipa in zip(table.bundles, ['a', 't', 'i', 's']))
    row = dict(zip(table.orthographies, table.index.tolist()))
    assert row['ATTA'] == [0, 1, 0, 4, 4]
    assert row['TATTI'] == [1, 0, 1, 2, 4]
    assert row['STA'] == [3, 1, 0, 4, 4]


def test_hand_built_inventory_ranks_equal_brute_force():
    lex = hand_built_lexicon()
    pool = [FeatureBundle(b) for b in lex.inventory.bundles.values()] + [
        FeatureBundle({'vowel': PLUS}), FeatureBundle({'cons': PLUS}),
        FeatureBundle({'cons': PLUS, 'son': MINUS, 'stiff': MINUS}),
        FeatureBundle({'vowel': PLUS, 'high': PLUS, 'low': PLUS})]
    rng = random.Random(5)
    for _ in range(40):
        words = [[seg(FeatureBundle(rng.choice(pool)))
                  for _ in range(rng.randint(1, 6))]
                 for _ in range(rng.randint(1, 4))]
        k = rng.choice([1, 3, 20])
        for segments in words:
            assert cohort_match(segments, lex, W_ODD, k) == \
                brute_force_ranks(segments, lex, W_ODD, k)
        items, segments = [], []
        for i, word in enumerate(words):
            items.append(Interval(float(i), i + 1.0, 'W'))
            segments += [EstimatedSegment((i + 0.1 * j, i + 0.1 * j + 0.05),
                                          s.bundle)
                         for j, s in enumerate(word)]
        doc = AnnotationDocument(len(words), [IntervalTier('Word', items)])
        matches, orphans = match_in_word_intervals(doc, segments, lex,
                                                   W_ODD, k)
        assert orphans == []
        assert [list(m.results) for m in matches] == \
            [brute_force_ranks(word, lex, W_ODD, k) for word in words]


def test_unknown_names_raise_as_the_oracle_does():
    vowel = seg(FeatureBundle({'vowel': PLUS}))
    bogus = seg(FeatureBundle({'vowel': PLUS, 'bogus': PLUS}))
    doc = AnnotationDocument(1.0, [IntervalTier('Word', [
        Interval(0.0, 1.0, 'W')])])
    # the inventory refuses its first stray name, in phoneme order,
    # when built
    with pytest.raises(InventoryError) as e:
        hand_built_lexicon(stray=[('s', 'creaky'), ('i', 'nasalized')])
    assert str(e.value) == \
        "phoneme 'i': feature 'nasalized' is not in the inventory"
    # an estimate's stray name
    lex = hand_built_lexicon()
    with pytest.raises(MatchError) as oracle:
        feature_distance(bogus.bundle, lex.inventory.bundles['i'], W_ODD,
                         lex.inventory)
    assert str(oracle.value) == "feature 'bogus' not in this inventory"
    for segments in ([bogus, vowel], [vowel, bogus], [vowel, vowel, bogus]):
        with pytest.raises(MatchError) as e:
            cohort_match(segments, lex, W_ODD)
        assert str(e.value) == str(oracle.value)
        with pytest.raises(MatchError) as e:
            match_in_word_intervals(doc, segments, lex, W_ODD)
        assert str(e.value) == str(oracle.value)


def test_a_callers_bundle_cannot_change_the_ranking():
    """The geminate 'ss' comes before 's' and is given an equal copy;
    neither the inventory's bundles nor the caller's objects can make
    the matcher differ from `score_candidate` after a first call."""
    s = {'cons': PLUS, 'cont': MINUS, 'strid': PLUS}
    t = FeatureBundle({'cons': PLUS, 'cont': MINUS})
    inv = FeatureInventory(
        [PhonemeId('t', 'T', MajorClass.CONSONANT),
         PhonemeId('a', 'AA', MajorClass.VOWEL),
         PhonemeId('ss', 'SS', MajorClass.CONSONANT, 's'),
         PhonemeId('s', 'S', MajorClass.CONSONANT)],
        {'t': t, 'a': FeatureBundle({'vowel': PLUS}), 'ss': FeatureBundle(s),
         's': s},
        ('vowel', 'cons', 'cont', 'strid'))
    lex = load_lexicon('TA\tT AA1\nSA\tS AA1', inv)
    query = [seg(FeatureBundle({'cons': PLUS, 'cont': PLUS})),
             seg(FeatureBundle({'vowel': PLUS}))]
    first = cohort_match(query, lex, W_ODD)
    with pytest.raises(TypeError):
        inv.bundles['s']['cont'] = PLUS
    s['cont'] = PLUS
    assert inv.bundles['s'].value('cont') is MINUS
    assert cohort_match(query, lex, W_ODD) == first == \
        brute_force_ranks(query, lex, W_ODD, 10)


# ------------------------------------------- array ranking vs the old loop

def old_phones(lex):
    return {orth: [t.phoneme.ipa for t in entry.phonemes]
            for orth, entry in lex.entries.items()}


def old_rank(cost, phones, w, k):
    """The seeded-bound, prefix-pruned ranking the array ranking
    replaced, kept as an oracle: one dict of distances per segment."""
    n = len(cost)

    def full_score(orth):
        ps = phones[orth]
        m = min(len(ps), n)
        return sum(cost[i][ps[i]] for i in range(m)) + \
            w.w_free * abs(len(ps) - n)

    seeds = sorted(phones, key=lambda o: abs(len(phones[o]) - n))[:k]
    seed_scores = sorted(full_score(o) for o in seeds)
    bound = seed_scores[min(k, len(seed_scores)) - 1]

    alive = {orth: 0.0 for orth in phones}
    for i in range(n):
        ci = cost[i]
        nxt = {}
        for orth, prefix in alive.items():
            ps = phones[orth]
            if i < len(ps):
                prefix += ci[ps[i]]
            if prefix <= bound:
                nxt[orth] = prefix
        alive = nxt
    finals = []
    for orth, prefix in alive.items():
        score = prefix + w.w_free * abs(len(phones[orth]) - n)
        finals.append((score, orth))
    finals.sort()
    results = []
    rank = 0
    prev_score = None
    for pos, (score, orth) in enumerate(finals[:k], 1):
        if prev_score is None or score > prev_score:
            rank = pos
            prev_score = score
        results.append(MatchResult(orth, score, rank))
    return results


def old_cost(segments, lex, w):
    inv = lex.inventory
    return [{ipa: feature_distance(s.bundle, bundle, w, inv)
             for ipa, bundle in inv.bundles.items()} for s in segments]


def old_cohort_match(segments, lex, w, k):
    return old_rank(old_cost(segments, lex, w), old_phones(lex), w, k)


BROAD_FEATURES = ('vowel', 'glide', 'cons', 'son', 'cont')


def random_query(rng, lex):
    """Degraded, broad or concatenated entries: the last are longer than
    the longest entry."""
    kind = rng.choice(['degraded', 'broad', 'long'])
    if kind == 'long':
        segments = []
        while len(segments) <= lex.phoneme_index.index.shape[1]:
            segments += _random_segments(rng, lex)
        return segments
    segments = _random_segments(rng, lex)
    if kind == 'broad':
        segments = [s._replace(bundle=FeatureBundle(
            {f: v for f, v in s.bundle.items() if f in BROAD_FEATURES}))
            for s in segments]
    return segments


@pytest.mark.parametrize('w', [W, W_ODD], ids=['default', 'non-dyadic'])
def test_array_ranking_equals_old_rank(lamit_lexicon, w):
    rng = random.Random(11)
    n_entries = len(lamit_lexicon)
    longest = lamit_lexicon.phoneme_index.index.shape[1]
    seen_long = seen_shared_rank = 0
    for trial in range(120):
        segments = random_query(rng, lamit_lexicon)
        k = rng.choice([1, 3, 10, n_entries, n_entries + 7])
        mine = cohort_match(segments, lamit_lexicon, w, k)
        assert mine == old_cohort_match(segments, lamit_lexicon, w, k)
        assert len(mine) == min(k, n_entries)
        seen_long += len(segments) > longest
        ranks = [r.cohort_rank for r in mine]
        seen_shared_rank += len(set(ranks)) < len(ranks)
    assert seen_long and seen_shared_rank


def test_array_ranking_homophones(lamit_lexicon):
    segments = segs_for(lamit_lexicon, 'A')
    for k in (1, 2, 10, len(lamit_lexicon)):
        mine = cohort_match(segments, lamit_lexicon, W, k)
        assert mine == old_cohort_match(segments, lamit_lexicon, W, k)
    top = cohort_match(segments, lamit_lexicon, W, 2)
    assert [(r.word, r.cohort_rank) for r in top] == [('A', 1), ('HA', 1)]


def test_array_ranking_on_small_lexicons(lamit_lexicon, italian):
    """Sub-lexicons, so that k often exceeds the lexicon and entry order
    differs from sorted order."""
    rng = random.Random(3)
    lines = [ln for ln in serialize_lexicon(lamit_lexicon).splitlines()
             if ln]
    for trial in range(40):
        sample = rng.sample(lines, rng.randint(1, 12))
        sub = load_lexicon('\n'.join(sample), italian)
        # ties go by orthography whatever the file's order
        flipped = load_lexicon('\n'.join(sorted(sample, reverse=True)),
                               italian)
        segments = random_query(rng, sub)
        for w in (W, W_ODD):
            cost = old_cost(segments, sub, w)
            for k in (1, 5, 20):
                expected = old_rank(cost, old_phones(sub), w, k)
                assert cohort_match(segments, sub, w, k) == expected
                assert cohort_match(segments, flipped, w, k) == expected


def test_empty_lexicon_raises_before_index_is_built(lamit_lexicon, italian):
    empty = Lexicon({}, italian)
    with pytest.raises(MatchError, match='empty lexicon'):
        cohort_match(segs_for(lamit_lexicon, 'CASA'), empty, W)
    doc, segments = make_word_doc(lamit_lexicon, ['CASA'])
    with pytest.raises(MatchError, match='empty lexicon'):
        match_in_word_intervals(doc, segments, empty, W)
    assert 'phoneme_index' not in vars(empty)


def test_phoneme_index_read_only(lamit_lexicon):
    table = lamit_lexicon.phoneme_index
    assert table is lamit_lexicon.phoneme_index
    for a in (table.index, table.lengths):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def test_phoneme_index_layout(lamit_lexicon, italian):
    table = lamit_lexicon.phoneme_index
    pad = len(table.bundles)
    orths = sorted(lamit_lexicon.entries)
    assert list(table.orthographies) == orths
    for row, length, orth in zip(table.index, table.lengths, orths):
        phonemes = lamit_lexicon.entries[orth].phonemes
        assert length == len(phonemes)
        assert all(table.bundles[j] is italian.bundles[t.phoneme.ipa]
                   for j, t in zip(row[:length], phonemes))
        assert all(row[length:] == pad)
    # whatever the file's order
    flipped = load_lexicon('\n'.join(
        reversed(serialize_lexicon(lamit_lexicon).splitlines())), italian)
    assert list(flipped.entries) == orths[::-1]
    assert flipped.phoneme_index.orthographies == table.orthographies
    assert flipped.phoneme_index.index.tolist() == table.index.tolist()
