import math

import numpy as np
import pytest

from lamit.config import AnalysisConfig
from lamit.dsp import AudioBuffer, BandEnergyTracks, rate_of_rise, \
    standard_tracks
from lamit.landmarks import (HIGH, LOW, SILENCE_DB, Landmark, LandmarkError,
                             LandmarkKind, LandmarkSequence, Manner,
                             _classify_manner, _find_peaks, _frication,
                             _gate, _relative, _runs, detect_all,
                             detect_consonant_landmarks,
                             detect_glide_landmarks, detect_landmarks,
                             detect_vowel_landmarks,
                             landmark_sequence, landmarks_csv,
                             parse_landmarks_csv)

import synth


def kinds(seq):
    return [lm.kind for lm in seq.items]


def test_single_vowel_peak():
    audio, peak_t = synth.vowel_rise_fall(0.2)
    lms = detect_vowel_landmarks(standard_tracks(audio))
    assert len(lms) == 1
    assert abs(lms[0].time - peak_t) <= 0.02
    assert lms[0].strength > 0


def test_silence_no_landmarks():
    audio = synth.buf(synth.silence(0.5))
    assert detect_all(audio).items == ()


def test_two_vowels_two_landmarks():
    audio, (t1, t2) = synth.two_vowels()
    lms = detect_vowel_landmarks(standard_tracks(audio))
    assert len(lms) == 2
    assert abs(lms[0].time - t1) <= 0.03
    assert abs(lms[1].time - t2) <= 0.03


def test_glide_dip_detected():
    audio, dip_t = synth.awa_glide()
    tracks = standard_tracks(audio)
    vowels = detect_vowel_landmarks(tracks)
    glides = detect_glide_landmarks(tracks, vowels)
    assert len(glides) == 1
    assert abs(glides[0].time - dip_t) <= 0.02


def test_isolated_vowel_has_no_glide():
    audio, _ = synth.vowel_rise_fall(0.3)
    tracks = standard_tracks(audio)
    vowels = detect_vowel_landmarks(tracks)
    assert detect_glide_landmarks(tracks, vowels) == []


def test_abrupt_dip_is_not_a_glide():
    audio, _ = synth.apa_stop()
    tracks = standard_tracks(audio)
    vowels = detect_vowel_landmarks(tracks)
    assert detect_glide_landmarks(tracks, vowels) == []
    cons = detect_consonant_landmarks(tracks)
    assert LandmarkKind.CLOSURE in [lm.kind for lm in cons]
    assert LandmarkKind.RELEASE in [lm.kind for lm in cons]


def test_noise_onset_is_continuant_release():
    audio, onset = synth.noise_onset()
    cons = detect_consonant_landmarks(standard_tracks(audio))
    releases = [lm for lm in cons if lm.kind is LandmarkKind.RELEASE]
    assert len(releases) == 1
    assert abs(releases[0].time - onset) <= 0.02
    assert releases[0].manner is Manner.CONTINUANT


def test_stop_gap_closure_release_pair():
    audio, (t_cl, t_rel) = synth.vcv_stop()
    cons = detect_consonant_landmarks(standard_tracks(audio))
    assert [lm.kind for lm in cons] == [LandmarkKind.CLOSURE,
                                        LandmarkKind.RELEASE]
    assert abs(cons[0].time - t_cl) <= 0.02
    assert abs(cons[1].time - t_rel) <= 0.02
    assert all(lm.manner is Manner.NONCONTINUANT for lm in cons)


def test_steady_vowel_no_consonants():
    audio = synth.steady_vowel(0.4)
    assert detect_consonant_landmarks(standard_tracks(audio)) == []


def test_nasal_murmur_sonorant_sequence():
    audio, (t_cl, t_rel) = synth.ama_nasal()
    seq = detect_all(audio)
    assert [lm.kind for lm in seq.items] == [
        LandmarkKind.VOWEL, LandmarkKind.CLOSURE, LandmarkKind.RELEASE,
        LandmarkKind.VOWEL]
    cons = [lm for lm in seq.items
            if lm.kind in (LandmarkKind.CLOSURE, LandmarkKind.RELEASE)]
    assert all(lm.manner is Manner.SONORANT for lm in cons)
    assert abs(cons[0].time - t_cl) <= 0.03
    assert abs(cons[1].time - t_rel) <= 0.03


def test_closure_release_alternation():
    for make in (synth.vcv_stop, synth.ama_nasal):
        audio = make()[0]
        seq = detect_all(audio)
        cons = [lm.kind for lm in seq.items
                if lm.kind in (LandmarkKind.CLOSURE, LandmarkKind.RELEASE)]
        for a, b in zip(cons, cons[1:]):
            assert a != b
        if cons:
            assert cons[0] is LandmarkKind.CLOSURE


def test_gain_invariance():
    audio, _ = synth.vcv_stop()
    outputs = []
    for gain in (0.1, 1.0, 10.0):
        scaled = AudioBuffer(audio.samples * gain, audio.sample_rate)
        outputs.append(detect_all(scaled))
    base = [(lm.time, lm.kind, lm.manner) for lm in outputs[1].items]
    for seq in outputs:
        assert [(lm.time, lm.kind, lm.manner) for lm in seq.items] == base
        for a, b in zip(seq.items, outputs[1].items):
            assert abs(a.strength - b.strength) < 1e-6


def test_determinism():
    audio, _ = synth.awa_glide()
    a = detect_all(audio)
    b = detect_all(audio)
    assert [(lm.time, lm.kind, lm.manner, lm.strength) for lm in a.items] == \
        [(lm.time, lm.kind, lm.manner, lm.strength) for lm in b.items]


def test_landmarks_within_gated_span():
    cfg = AnalysisConfig()
    for make in (synth.cv_syllable, synth.vcv_stop, synth.noise_onset):
        audio = make()[0]
        tracks = standard_tracks(audio, cfg)
        low = tracks.energy[0]
        active = np.where(low >= low.max() - cfg.gate_db)[0]
        lo = tracks.times[active[0]] - cfg.ror_window
        hi = tracks.times[active[-1]] + cfg.ror_window
        for lm in detect_all(audio, cfg).items:
            assert lo <= lm.time <= hi


def test_sequence_merge_and_priority():
    v = Landmark(0.2, LandmarkKind.VOWEL, strength=10)
    c1 = Landmark(0.05, LandmarkKind.RELEASE, Manner.NONCONTINUANT, 5)
    c2 = Landmark(0.35, LandmarkKind.CLOSURE, Manner.NONCONTINUANT, 5)
    seq = landmark_sequence([v], [], [c1, c2], AnalysisConfig())
    assert [lm.kind for lm in seq.items] == [
        LandmarkKind.RELEASE, LandmarkKind.VOWEL, LandmarkKind.CLOSURE]
    # collision: consonant wins over vowel within the merge window
    g = Landmark(0.201, LandmarkKind.GLIDE, strength=1)
    seq2 = landmark_sequence([v], [g], [], AnalysisConfig())
    assert [lm.kind for lm in seq2.items] == [LandmarkKind.VOWEL]


def test_empty_sequence():
    cfg = AnalysisConfig()
    assert landmark_sequence([], [], [], cfg).items == ()


def test_sequence_requires_increasing_times():
    a = Landmark(0.5, LandmarkKind.VOWEL)
    b = Landmark(0.5, LandmarkKind.VOWEL)
    with pytest.raises(LandmarkError):
        LandmarkSequence([a, b])


def test_manner_only_on_consonants():
    with pytest.raises(LandmarkError):
        Landmark(0.1, LandmarkKind.VOWEL, Manner.SONORANT)
    with pytest.raises(LandmarkError):
        Landmark(0.1, LandmarkKind.CLOSURE)


def test_replace_keeps_manner_on_consonants_only():
    vowel = Landmark(0.1, LandmarkKind.VOWEL)
    with pytest.raises(LandmarkError):
        vowel._replace(manner=Manner.SONORANT)
    assert vowel._replace(time=0.2) == Landmark(0.2, LandmarkKind.VOWEL)


@pytest.mark.parametrize('time, strength', [
    (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, -math.inf),
])
def test_landmark_refuses_non_finite_values(time, strength):
    with pytest.raises(LandmarkError,
                       match='^time and strength must be finite$'):
        Landmark(time, LandmarkKind.VOWEL, strength=strength)
    with pytest.raises(LandmarkError, match='finite'):
        Landmark(0.1, LandmarkKind.VOWEL)._replace(time=time,
                                                   strength=strength)


def test_sequence_fields_cannot_be_rebound_or_deleted():
    first = Landmark(0.1, LandmarkKind.VOWEL)
    seq = LandmarkSequence([first, Landmark(0.2, LandmarkKind.GLIDE)])
    with pytest.raises(AttributeError):
        seq.items = [Landmark(0.3, LandmarkKind.VOWEL), first]
    with pytest.raises(AttributeError):
        del seq.items
    with pytest.raises(AttributeError):
        seq.items.append(first)
    with pytest.raises(TypeError):
        seq.items[1] = first
    assert seq == LandmarkSequence([first, Landmark(0.2, LandmarkKind.GLIDE)])
    assert seq != tuple(seq.items)
    with pytest.raises(TypeError):
        hash(seq)


def test_cv_full_pipeline():
    audio, release_t, _ = synth.cv_syllable()
    seq = detect_all(audio)
    rel = [lm for lm in seq.items if lm.kind is LandmarkKind.RELEASE]
    vow = [lm for lm in seq.items if lm.kind is LandmarkKind.VOWEL]
    assert len(rel) == 1 and len(vow) == 1
    assert rel[0].time < vow[0].time
    assert abs(rel[0].time - release_t) <= 0.02


def test_csv_format():
    audio, release_t, _ = synth.cv_syllable()
    csv = landmarks_csv(detect_all(audio))
    lines = csv.strip().split('\n')
    assert lines[0] == 'time_s,kind,manner,strength_dB'
    assert len(lines) >= 2
    cells = lines[1].split(',')
    assert len(cells) == 4
    float(cells[0])
    float(cells[3])


def test_csv_roundtrip():
    for audio in (synth.cv_syllable()[0], synth.vcv_stop()[0],
                  synth.fricative_vcv()[0]):
        csv = landmarks_csv(detect_all(audio))
        assert landmarks_csv(parse_landmarks_csv(csv)) == csv


@pytest.mark.parametrize('row,message', [
    ('0.1,Bogus,,1.0', 'not a valid LandmarkKind'),
    ('0.1,Vowel,1.0', 'expected 4 fields'),
    ('0.1,Vowel,,1.0,extra', 'expected 4 fields'),
    ('abc,Vowel,,1.0', 'could not convert'),
    ('0.1,Vowel,,nan', 'finite'),
    ('0.1,ConsonantRelease,gliding,1.0', 'not a valid Manner'),
    ('0.1,Vowel,sonorant,1.0', 'manner is set exactly'),
])
def test_csv_parse_errors_name_the_line(row, message):
    text = 'time_s,kind,manner,strength_dB\n0.050000,Vowel,,3.00\n' + row
    with pytest.raises(LandmarkError, match=f'line 3: .*{message}'):
        parse_landmarks_csv(text)


def test_csv_parse_rejects_unordered_times():
    text = 'time_s,kind,manner,strength_dB\n0.2,Vowel,,1\n0.1,Glide,,1\n'
    with pytest.raises(LandmarkError, match='line 3: .*increase'):
        parse_landmarks_csv(text)


@pytest.mark.parametrize('row', ['-inf,Vowel,,1.0', 'nan,Vowel,,1.0'])
def test_csv_non_finite_time_names_its_line(row):
    """A time of -inf is also out of order; it is reported as not
    finite, since `Landmark` checks it before the order is checked."""
    text = 'time_s,kind,manner,strength_dB\n0.050000,Vowel,,3.00\n' + row
    with pytest.raises(LandmarkError, match='^line 3: time and strength '
                       'must be finite$'):
        parse_landmarks_csv(text)


# ------------------------------------- vectorised detectors vs the loops

def runs_loop(mask):
    """Reference runs of True: the per-frame while loop."""
    i, n = 0, len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            yield i, j
            i = j
        else:
            i += 1


def gate_loop(tracks, cfg):
    """Reference gate: the longest-run scan as a per-frame while loop."""
    if float(tracks.energy[LOW].max()) <= SILENCE_DB:
        return None
    active = _relative(tracks, cfg)[LOW] > -cfg.gate_db
    min_run = max(1, int(round(cfg.gate_min_duration / tracks.frame_step)))
    best = None
    for i, j in runs_loop(active):
        if j - i >= min_run:
            best = (i, j - 1) if best is None else (best[0], j - 1)
    if best is None:
        return None
    return (tracks.times[best[0]] - cfg.ror_window,
            tracks.times[best[1]] + cfg.ror_window)


def frication_one(rel, lo, hi, cfg):
    """Reference frication test of one window [lo, hi)."""
    lo = max(0, lo)
    hi = min(rel.shape[1], hi)
    if hi <= lo:
        return False
    high = rel[HIGH, lo:hi]
    low = rel[LOW, lo:hi]
    dominant = float(np.median(high - low)) >= cfg.noise_dominance_db
    energetic = float(np.median(high)) > -(cfg.gate_db - 10.0)
    return dominant and energetic


def manner_one(rel, k, step, cfg):
    """Reference manner of one candidate frame k."""
    low = rel[LOW]
    d = max(1, int(round(0.030 / step)))
    before = low[max(0, k - d)]
    after = low[min(len(low) - 1, k + d)]
    if abs(after - before) <= cfg.sonorant_window_db:
        return Manner.SONORANT
    n = max(1, int(round(cfg.noise_min_duration / step)))
    off = max(1, int(round(0.005 / step)))
    if frication_one(rel, k + off, k + off + n, cfg) or \
            frication_one(rel, k - off - n, k - off, cfg):
        return Manner.CONTINUANT
    return Manner.NONCONTINUANT


def random_masks(seed, count=300):
    rng = np.random.default_rng(seed)
    yield np.zeros(0, dtype=bool)
    for n in (1, 2, 7):
        yield np.ones(n, dtype=bool)
        yield np.zeros(n, dtype=bool)
    for _ in range(count):
        n = int(rng.integers(1, 80))
        yield rng.random(n) < rng.uniform(0.05, 0.95)


def test_runs_equal_while_loop_on_random_masks():
    for mask in random_masks(0):
        starts, stops = _runs(mask)
        assert list(zip(starts.tolist(), stops.tolist())) == \
            list(runs_loop(mask))


def test_gate_equals_while_loop_on_random_masks():
    rng = np.random.default_rng(1)
    for mask in random_masks(2):
        if not len(mask):
            continue
        # low band within the gate where the mask is set, far below it
        # elsewhere; sometimes all below the silence level
        low = np.where(mask, rng.uniform(-50.0, 0.0, len(mask)),
                       rng.uniform(-200.0, -61.0, len(mask)))
        if rng.random() < 0.1:
            low -= 100.0
        energy = np.vstack([low, rng.uniform(-150.0, 0.0, (3, len(mask)))])
        tracks = BandEnergyTracks(
            [(0.0, 400.0), (300.0, 900.0), (800.0, 2500.0), (2500.0, 8000.0)],
            energy, 0.0125 + 0.005 * np.arange(len(mask)), 0.005)
        cfg = AnalysisConfig(
            gate_min_duration=float(rng.choice([0.001, 0.01, 0.02, 0.1])))
        assert _gate(tracks, cfg, _relative(tracks, cfg)) == \
            gate_loop(tracks, cfg)


def assert_manners_match(tracks, cfg):
    rel = _relative(tracks, cfg)
    n = rel.shape[1]
    # every frame, both track edges included
    ks = np.arange(n)
    got = _classify_manner(rel, ks, tracks.frame_step, cfg)
    want = [manner_one(rel, int(k), tracks.frame_step, cfg) for k in ks]
    assert got == want
    width = max(1, int(round(cfg.noise_min_duration / tracks.frame_step)))
    starts = np.arange(-width - 2, n + 2)
    np.testing.assert_array_equal(
        _frication(rel, starts, width, cfg),
        [frication_one(rel, int(s), int(s) + width, cfg) for s in starts])
    return set(got)


def manner_fixtures():
    def first(x):
        return x[0] if isinstance(x, tuple) else x
    return {name: first(make()) for name, make in (
        ('steady_vowel', synth.steady_vowel),
        ('vowel_rise_fall', lambda: synth.vowel_rise_fall(0.3)),
        ('two_vowels', synth.two_vowels), ('cv_syllable', synth.cv_syllable),
        ('vcv_stop', synth.vcv_stop), ('noise_onset', synth.noise_onset),
        ('awa_glide', synth.awa_glide), ('apa_stop', synth.apa_stop),
        ('ama_nasal', synth.ama_nasal),
        ('fricative_vcv', synth.fricative_vcv),
        ('short_noise', lambda: synth.buf(synth.frication_noise(0.04))))}


@pytest.mark.parametrize('name', manner_fixtures().keys())
def test_vectorised_manner_equals_per_candidate(name):
    tracks = standard_tracks(manner_fixtures()[name])
    assert_manners_match(tracks, AnalysisConfig())


@pytest.mark.parametrize('seed', range(20))
def test_vectorised_manner_equals_per_candidate_on_random_tracks(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    # coarse levels, so medians tie and sit on the thresholds
    energy = rng.choice(np.arange(-70.0, 1.0, 5.0), (4, n))
    step = float(rng.choice([0.002, 0.005, 0.01]))
    tracks = BandEnergyTracks(
        [(0.0, 400.0), (300.0, 900.0), (800.0, 2500.0), (2500.0, 8000.0)],
        energy, step / 2 + step * np.arange(n), step)
    cfg = AnalysisConfig(
        noise_min_duration=float(rng.uniform(0.001, 0.08)),
        noise_dominance_db=float(rng.choice([-10.0, 0.0, 5.0])),
        sonorant_window_db=float(rng.choice([0.0, 5.0, 10.0])),
        gate_db=float(rng.choice([40.0, 60.0])))
    assert_manners_match(tracks, cfg)


def test_vectorised_manner_covers_every_manner():
    seen = set()
    for audio in manner_fixtures().values():
        tracks = standard_tracks(audio)
        for cfg in (AnalysisConfig(),
                    AnalysisConfig(noise_min_duration=0.1,
                                   noise_dominance_db=-10.0,
                                   sonorant_window_db=3.0),
                    AnalysisConfig(noise_min_duration=0.004)):
            seen |= assert_manners_match(tracks, cfg)
    assert seen == set(Manner)


def vowels_loop(tracks, cfg):
    """Reference vowel detector: one gate test per candidate peak."""
    rel = _relative(tracks, cfg)
    span = _gate(tracks, cfg, rel)
    if span is None:
        return []
    dist = max(1, int(round(cfg.vowel_min_separation / tracks.frame_step)))
    peaks, props = _find_peaks(rel[LOW], cfg.vowel_prominence_db, dist)
    out = []
    for p, prom in zip(peaks, props['prominences']):
        t = float(tracks.times[p])
        if span[0] <= t <= span[1]:
            out.append(Landmark(t, LandmarkKind.VOWEL, strength=float(prom)))
    return out


def glides_loop(tracks, vowels, cfg):
    """Reference glide detector: every vowel and every dip frame read per
    candidate dip."""
    if not vowels:
        return []
    low = _relative(tracks, cfg)[LOW]
    ror = rate_of_rise(low, cfg.ror_window, tracks.frame_step)
    dips, props = _find_peaks(-low, cfg.glide_dip_db)
    vtimes = np.array([v.time for v in vowels])
    out = []
    for d, prom, lo, hi in zip(dips, props['prominences'],
                               props['left_bases'], props['right_bases']):
        t = float(tracks.times[d])
        if not np.any(np.abs(vtimes - t) <= cfg.glide_window):
            continue
        if np.max(np.abs(ror[lo:hi + 1])) >= cfg.ror_threshold:
            continue
        out.append(Landmark(t, LandmarkKind.GLIDE, strength=float(prom)))
    return out


def assert_vowels_and_glides_match(tracks, vowels=None):
    got = detect_vowel_landmarks(tracks)
    assert got == vowels_loop(tracks, tracks.cfg)
    vowels = got if vowels is None else vowels
    assert detect_glide_landmarks(tracks, vowels) == \
        glides_loop(tracks, vowels, tracks.cfg)
    return got


@pytest.mark.parametrize('name', manner_fixtures().keys())
def test_masked_vowels_and_glides_equal_per_candidate(name):
    audio = manner_fixtures()[name]
    for cfg in (AnalysisConfig(), AnalysisConfig(glide_dip_db=1.0),
                AnalysisConfig(vowel_prominence_db=2.0, glide_window=0.05,
                               ror_threshold=100.0)):
        assert_vowels_and_glides_match(standard_tracks(audio, cfg))


@pytest.mark.parametrize('seed', range(30))
def test_masked_vowels_and_glides_equal_per_candidate_on_random_tracks(
        seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 400))
    step = float(rng.choice([0.002, 0.005, 0.01]))
    # a random walk, coarsely quantised so that peaks and bases tie
    scale = float(rng.choice([0.5, 1.5, 3.0]))
    low = np.round(np.cumsum(rng.normal(0.0, scale, n)) / 2.0) * 2.0
    energy = np.vstack([low, rng.uniform(-80.0, 0.0, (3, n))])
    cfg = AnalysisConfig(
        vowel_prominence_db=float(rng.choice([2.0, 6.0, 9.0])),
        vowel_min_separation=float(rng.choice([0.01, 0.06])),
        glide_dip_db=float(rng.choice([1.0, 4.0, 6.0])),
        glide_window=float(rng.choice([0.0, 0.03, 0.15, 10.0])),
        ror_threshold=float(rng.choice([50.0, 300.0, 1000.0, 3000.0])),
        ror_window=max(0.02, 2 * step),
        gate_db=float(rng.choice([20.0, 60.0])),
        gate_min_duration=float(rng.choice([0.01, 0.1])))
    tracks = BandEnergyTracks(
        [(0.0, 400.0), (300.0, 900.0), (800.0, 2500.0), (2500.0, 8000.0)],
        energy, step / 2 + step * np.arange(n), step, cfg)
    vowels = assert_vowels_and_glides_match(tracks)
    # vowels anywhere, on frame times or between them, in any order
    times = rng.choice(tracks.times, int(rng.integers(1, 6)))
    times = times + rng.choice([0.0, step / 3], len(times))
    others = [Landmark(float(t), LandmarkKind.VOWEL) for t in times]
    assert_vowels_and_glides_match(tracks, others)
    assert_vowels_and_glides_match(tracks, [*vowels, *others])
    # thresholds equal to the |rate of rise| at a dip's base frame, so a
    # dip's two edges decide whether it is smooth
    low = _relative(tracks, cfg)[LOW]
    size = np.abs(rate_of_rise(low, cfg.ror_window, step))
    _, props = _find_peaks(-low, cfg.glide_dip_db)
    bases = np.concatenate([props['left_bases'], props['right_bases']])
    for k in rng.choice(bases, min(len(bases), 8)).tolist():
        edged = tracks._replace(cfg=cfg._replace(glide_window=10.0,
                                                 ror_threshold=size[k]))
        assert_vowels_and_glides_match(edged, others)


def test_detectors_refuse_a_short_band_stack():
    audio, _ = synth.vowel_rise_fall(0.2)
    full = standard_tracks(audio)
    one = BandEnergyTracks(full.bands[:1], full.energy[:1], full.times,
                           full.frame_step)
    for detect in (detect_consonant_landmarks, detect_landmarks):
        with pytest.raises(LandmarkError, match=r'^expected the standard '
                           r'band stack \(low, f1, mid, high\); got 1 bands$'):
            detect(one)
    none = BandEnergyTracks([], full.energy[:0], full.times, full.frame_step)
    with pytest.raises(LandmarkError, match='; got 0 bands$'):
        detect_vowel_landmarks(none)
