"""The block-batched front end against the per-frame loops it replaced."""
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamit import dsp
from lamit.access import cues_to_bundles
from lamit.config import AnalysisConfig
from lamit.dsp import (DB_FLOOR, AudioBuffer, DspError, band_energies,
                       compute_spectrogram, estimate_f0, parameter_frames,
                       standard_tracks)
from lamit.landmarks import detect_all, detect_landmarks

import synth

BROAD = {'vowel', 'glide', 'cons', 'son', 'cont'}

# frames per block under the default settings, by pass and sample rate:
# as many 201-, 552-, 513- or 2049-bin complex rows as BLOCK_BYTES holds
# (pinned by test_block_rows_follow_the_byte_budget)
ROWS = {'spectra': {16000: 81, 44100: 29}, 'f0': {16000: 31, 44100: 7}}
SPECTRA_ROWS, F0_ROWS = ROWS['spectra'][16000], ROWS['f0'][16000]


def f0_loop(audio, times, cfg=None):
    """Reference F0: one np.correlate autocorrelation per frame."""
    cfg = cfg or AnalysisConfig()
    sr = audio.sample_rate
    nwin = int(round(cfg.f0_frame_length * sr))
    lag_min = int(sr / cfg.f0_max)
    lag_max = min(int(np.ceil(sr / cfg.f0_min)), nwin - 2)
    x = audio.samples
    out = np.full(len(times), np.nan)
    for i, t in enumerate(np.asarray(times)):
        start = int(round(t * sr)) - nwin // 2
        start = max(0, min(start, len(x) - nwin))
        if len(x) < nwin:
            break
        frame = x[start:start + nwin]
        frame = frame - frame.mean()
        e0 = float(np.dot(frame, frame))
        if e0 < 1e-12:
            continue
        ac = np.correlate(frame, frame, mode='full')[nwin - 1:]
        ac = ac / e0
        seg = ac[lag_min:lag_max + 1]
        if len(seg) < 3:
            continue
        best = float(seg.max())
        if best < cfg.f0_voicing_threshold:
            continue
        k = int(np.argmax(seg >= 0.9 * best))
        lag = lag_min + k
        if 0 < k < len(seg) - 1:
            a, b, c = seg[k - 1], seg[k], seg[k + 1]
            denom = a - 2 * b + c
            if abs(denom) > 1e-12:
                lag = lag + 0.5 * (a - c) / denom
        f0 = sr / lag
        if cfg.f0_min <= f0 <= cfg.f0_max:
            out[i] = f0
    return out


def spectrogram_gather(audio, frame_length, frame_step):
    """Reference spectrogram from an (n_frames x nwin) index matrix."""
    sr = audio.sample_rate
    nwin = int(round(frame_length * sr))
    step = int(round(frame_step * sr))
    n_frames = (len(audio.samples) - nwin) // step + 1
    idx = np.arange(nwin)[None, :] + step * np.arange(n_frames)[:, None]
    mag = np.abs(np.fft.rfft(audio.samples[idx] * np.hanning(nwin), axis=1))
    return 20.0 * np.log10(np.maximum(mag, 10 ** (DB_FLOOR / 20.0)))


def fixtures():
    def first(x):
        return x[0] if isinstance(x, tuple) else x
    return {
        'steady_vowel': synth.steady_vowel(),
        'vowel_rise_fall': first(synth.vowel_rise_fall(0.3)),
        'two_vowels': first(synth.two_vowels()),
        'cv_syllable': first(synth.cv_syllable()),
        'vcv_stop': first(synth.vcv_stop()),
        'noise_onset': first(synth.noise_onset()),
        'awa_glide': first(synth.awa_glide()),
        'apa_stop': first(synth.apa_stop()),
        'ama_nasal': first(synth.ama_nasal()),
        'fricative_vcv': first(synth.fricative_vcv()),
        'pulse_train': synth.buf(synth.pulse_train(0.5, f0=120.0)),
        'pulse_train_high': synth.buf(synth.pulse_train(0.4, f0=410.0)),
        # peaks at the first and the last lag searched, and a long lag
        # at 22.05 kHz, where the FFT length leaves the least headroom
        'pulse_train_f0_max': synth.buf(synth.pulse_train(0.3, f0=500.0)),
        'pulse_train_f0_min': synth.buf(synth.pulse_train(0.3, f0=50.0)),
        'pulse_train_22k': AudioBuffer(
            synth.pulse_train(0.3, f0=60.0, sr=22050), 22050),
        'white_noise': synth.buf(synth.white_noise(0.5, seed=1)),
        'frication_noise': synth.buf(synth.frication_noise(0.3)),
        'silence': synth.buf(synth.silence(0.3)),
    }


def random_signal(seed):
    """A seeded mix of voiced, noisy, clipped and silent stretches."""
    rng = np.random.default_rng(seed)
    sr = int(rng.choice([16000, 22050]))
    n = int(rng.integers(sr // 4, sr))
    t = np.arange(n) / sr
    f0 = rng.uniform(45.0, 520.0) * (1 + 0.2 * np.sin(2 * np.pi * t))
    phase = 2 * np.pi * np.cumsum(f0) / sr
    harmonics = sum(rng.uniform(0, 1) * np.sin(k * phase)
                    for k in range(1, 8))
    sig = harmonics * rng.uniform(0.01, 1.0)
    sig += rng.uniform(0, 1.5) * rng.standard_normal(n)
    sig *= np.abs(np.sin(np.pi * t * rng.uniform(0.5, 6.0)))
    sig = np.clip(sig, -rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))
    sig[rng.integers(0, n):][:rng.integers(0, n // 4)] = 0.0
    return AudioBuffer(sig, sr)


def assert_f0_matches_loop(audio, times, cfg=None):
    got = estimate_f0(audio, times, cfg)
    want = f0_loop(audio, times, cfg)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    voiced = ~np.isnan(want)
    if voiced.any():
        assert np.max(np.abs(got[voiced] - want[voiced])) <= 1e-6


def frame_times(audio):
    """The spectrogram's frame times, plus times before the start and
    past the end whose F0 frames are clipped to the signal."""
    times = standard_tracks(audio).times
    return np.concatenate([[-0.05, 0.0, 0.001], times,
                           [audio.duration - 0.001, audio.duration + 0.1]])


@pytest.mark.parametrize('name', fixtures().keys())
def test_f0_matches_loop_on_fixtures(name):
    audio = fixtures()[name]
    assert_f0_matches_loop(audio, frame_times(audio))


@pytest.mark.parametrize('seed', range(12))
def test_f0_matches_loop_on_random_signals(seed):
    audio = random_signal(seed)
    assert_f0_matches_loop(audio, frame_times(audio))


def test_f0_matches_loop_with_other_settings():
    cfg = AnalysisConfig(f0_frame_length=0.025, f0_min=70.0, f0_max=300.0,
                         f0_voicing_threshold=0.5)
    for seed in range(4):
        audio = random_signal(100 + seed)
        assert_f0_matches_loop(audio, frame_times(audio), cfg)


def test_f0_audio_shorter_than_window():
    # 0.03 s: long enough for a spectrogram frame, short of the 40 ms
    # F0 frame, so every frame is unvoiced
    audio = synth.buf(synth.harmonic_source(0.03))
    times = standard_tracks(audio).times
    assert np.all(np.isnan(estimate_f0(audio, times)))
    assert_f0_matches_loop(audio, times)
    assert len(estimate_f0(audio, np.zeros(0))) == 0


@functools.cache
def f0_whole_call(sr):
    """Seeded 150 Hz tone bursts in noise at sr, its frame times (some
    clipped to the signal) and their F0 from one call."""
    rng = np.random.default_rng(sr)
    t = np.arange(sr // 2) / sr
    audio = AudioBuffer(np.sin(2 * np.pi * 150.0 * t) * (t % 0.2 < 0.1)
                        + 0.3 * rng.standard_normal(len(t)), sr)
    times = frame_times(audio)
    whole = estimate_f0(audio, times)
    assert np.isnan(whole).any() and not np.isnan(whole).all()
    return audio, times, whole


@pytest.mark.parametrize('sr', [16000, 44100])
@settings(max_examples=60)
@given(data=st.data())
def test_f0_of_any_subset_of_times_equals_the_whole_call(sr, data):
    """A frame's F0 does not depend on the frames that share its call:
    on any subset of the times, in any order, estimate_f0 returns what
    the call on all of them returns for those times, NaN included.  The
    voicing rule's two calls rest on this."""
    audio, times, whole = f0_whole_call(sr)
    order = data.draw(st.permutations(range(len(times))))
    idx = order[:data.draw(st.integers(0, len(times)))]
    np.testing.assert_array_equal(estimate_f0(audio, times[idx]),
                                  whole[idx])


# one frame, a block's frames and one either side, and counts around and
# past 128, a power of two
@pytest.mark.parametrize('n_frames', [1, 7, SPECTRA_ROWS - 1, SPECTRA_ROWS,
                                      SPECTRA_ROWS + 1, 127, 128, 129, 384,
                                      425])
def test_spectrogram_bit_identical_to_gather(n_frames):
    nwin, step = 400, 80
    rng = np.random.default_rng(n_frames)
    # a few samples past the last frame, which no frame covers
    n = nwin + (n_frames - 1) * step + int(rng.integers(0, step))
    audio = AudioBuffer(rng.standard_normal(n) * rng.uniform(0, 1, n), 16000)
    spec = compute_spectrogram(audio, 0.025, 0.005)
    assert spec.n_frames == n_frames
    np.testing.assert_array_equal(spec.frames,
                                  spectrogram_gather(audio, 0.025, 0.005))


def spy_rfft(monkeypatch):
    """The row count of each np.fft.rfft call from now on."""
    rows, rfft = [], np.fft.rfft

    def spy(a, *args, **kwargs):
        rows.append(len(a))
        return rfft(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, 'rfft', spy)
    return rows


def block_pass(name, sr, n_frames):
    """The outputs of one pass over n_frames frames of a seeded signal,
    100 ms bursts of a 150 Hz tone in noise: the spectrogram and the band
    tracks, or F0 at random times in and past the signal."""
    rng = np.random.default_rng(n_frames)
    if name == 'spectra':
        nwin, step = round(0.025 * sr), round(0.005 * sr)
        n = nwin + (n_frames - 1) * step + int(rng.integers(0, step))
    else:
        n = sr // 2
    t = np.arange(n) / sr
    audio = AudioBuffer(np.sin(2 * np.pi * 150.0 * t) * (t % 0.2 < 0.1)
                        + 0.3 * rng.standard_normal(n), sr)
    if name == 'spectra':
        return (compute_spectrogram(audio).frames,
                standard_tracks(audio).energy)
    return (estimate_f0(audio, rng.uniform(-0.05, 0.55, n_frames)),)


@pytest.mark.parametrize('sr', [16000, 44100])
@pytest.mark.parametrize('name', ['spectra', 'f0'])
def test_block_rows_follow_the_byte_budget(monkeypatch, name, sr):
    """Each pass works in blocks of ROWS frames, and its outputs equal
    those of a pass one frame at a time, bit for bit."""
    rows, budget = ROWS[name][sr], dsp.BLOCK_BYTES
    calls = spy_rfft(monkeypatch)
    for n_frames in (1, rows - 1, rows, rows + 1, 3 * rows + 41):
        monkeypatch.setattr(dsp, 'BLOCK_BYTES', budget)
        calls.clear()
        blocked = block_pass(name, sr, n_frames)
        blocks = [rows] * (n_frames // rows) + [n_frames % rows] * (
            n_frames % rows > 0)
        assert calls == blocks * len(blocked)
        monkeypatch.setattr(dsp, 'BLOCK_BYTES', 1)
        calls.clear()
        single = block_pass(name, sr, n_frames)
        assert calls == [1] * n_frames * len(single)
        for got, want in zip(blocked, single):
            assert n_frames in got.shape
            np.testing.assert_array_equal(got, want)
    f0 = block_pass('f0', sr, 200)[0]
    assert np.isnan(f0).any() and not np.isnan(f0).all()


@pytest.mark.parametrize('sr', [16000, 44100])
def test_frame_passes_work_in_fixed_memory(sr):
    """Over 60 s, the band-track and F0 passes allocate, beside their
    outputs, a few blocks at most, whatever the sample rate."""
    audio = AudioBuffer(
        0.1 * np.random.default_rng(sr).standard_normal(60 * sr), sr)
    tracks = standard_tracks(audio)
    times = tracks.times
    estimate_f0(audio, times)          # FFT plans are made once, here
    # each pass, and the bytes of the arrays it returns
    for run, kept in ((lambda: standard_tracks(audio),
                       tracks.energy.nbytes + times.nbytes),
                      (lambda: estimate_f0(audio, times), times.nbytes)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - kept <= 6 * dsp.BLOCK_BYTES


def test_spectrogram_bit_identical_on_fixtures():
    for audio in fixtures().values():
        for length, step in ((0.025, 0.005), (0.030, 0.010)):
            spec = compute_spectrogram(audio, length, step)
            np.testing.assert_array_equal(
                spec.frames, spectrogram_gather(audio, length, step))


def test_parameter_track_arrays():
    audio, _ = synth.vowel_rise_fall(0.3)
    params = parameter_frames(audio)
    n = len(params.tracks.times)
    assert params.tilt.shape == (n,)
    assert params.audio is audio
    assert not hasattr(params, 'f0')
    np.testing.assert_array_equal(params.tracks.energy,
                                  standard_tracks(audio).energy)
    voiced = params.voiced(np.arange(n))
    assert voiced.dtype == bool and voiced.any()
    np.testing.assert_array_equal(
        voiced, ~np.isnan(estimate_f0(audio, params.tracks.times)))


def frame_sets(n, rng):
    """Empty, single-frame, edge, whole-track and random frame sets."""
    yield []
    yield [0]
    yield [n - 1]
    yield [0, n - 1]
    yield list(range(n))
    yield list(range(max(0, n - F0_ROWS - 3), n))
    for size in (1, 5, F0_ROWS + 1):
        yield rng.integers(0, n, size).tolist()
    yield sorted(rng.choice(n, n // 3, replace=False).tolist())


def assert_voiced_on_demand(audio, cfg=None, seed=0):
    params = parameter_frames(audio, cfg)
    times = params.tracks.times
    whole = ~np.isnan(estimate_f0(audio, times, cfg))
    for frames in frame_sets(len(times), np.random.default_rng(seed)):
        got = params.voiced(frames)
        assert got.dtype == bool and got.shape == (len(frames),)
        np.testing.assert_array_equal(got, whole[frames])


@pytest.mark.parametrize('name', fixtures().keys())
def test_voiced_on_demand_on_fixtures(name):
    assert_voiced_on_demand(fixtures()[name])


@pytest.mark.parametrize('seed', range(6))
def test_voiced_on_demand_on_random_signals(seed):
    assert_voiced_on_demand(random_signal(seed), seed=seed)


def test_voiced_on_demand_reads_the_track_settings():
    cfg = AnalysisConfig(f0_frame_length=0.025, f0_min=70.0, f0_max=300.0,
                         f0_voicing_threshold=0.5)
    for seed in range(3):
        assert_voiced_on_demand(random_signal(200 + seed), cfg, seed)


def band_energies_masked(spec, bands):
    """Reference band energies: dB bins back to power, summed under a
    boolean frequency mask per band."""
    power = 10.0 ** (spec.frames / 10.0)
    freqs = spec.freq_resolution * np.arange(spec.frames.shape[1])
    return np.vstack([
        10.0 * np.log10(np.maximum(
            power[:, (freqs >= lo) & (freqs <= hi)].sum(axis=1),
            10 ** (DB_FLOOR / 10.0)))
        for lo, hi in bands])


def assert_fused_tracks_match(audio, cfg=None):
    cfg = cfg or AnalysisConfig()
    fused = standard_tracks(audio, cfg)
    spec = compute_spectrogram(audio, cfg.frame_length, cfg.frame_step)
    oracle = band_energies(spec, fused.bands)
    # a sum over a slice adds in another order than one over a masked
    # copy, so the last bits may differ
    assert np.max(np.abs(oracle.energy - band_energies_masked(
        spec, fused.bands))) <= 1e-12
    assert fused.bands == oracle.bands
    assert fused.frame_step == oracle.frame_step
    np.testing.assert_array_equal(fused.times, oracle.times)
    assert fused.energy.shape == oracle.energy.shape
    assert np.max(np.abs(fused.energy - oracle.energy)) <= 1e-12


@pytest.mark.parametrize('name', fixtures().keys())
def test_fused_band_energies_match_spectrogram(name):
    assert_fused_tracks_match(fixtures()[name])


@pytest.mark.parametrize('seed', range(12))
def test_fused_band_energies_match_on_random_signals(seed):
    assert_fused_tracks_match(random_signal(seed))


def test_fused_band_energies_with_other_settings():
    cfg = AnalysisConfig(frame_length=0.030, frame_step=0.010,
                         low_band=(50.0, 350.0), high_band=(3000.0, 9000.0))
    for seed in range(4):
        # at 16 kHz the high band is clipped at Nyquist
        assert_fused_tracks_match(random_signal(300 + seed), cfg)
    # one frame, and frames ending on the block boundaries
    for n_frames in (1, SPECTRA_ROWS, SPECTRA_ROWS + 1):
        n = 400 + 80 * (n_frames - 1)
        audio = AudioBuffer(np.random.default_rng(n).standard_normal(n),
                            16000)
        assert len(standard_tracks(audio).times) == n_frames
        assert_fused_tracks_match(audio)


@pytest.mark.parametrize('cfg, message', [
    (AnalysisConfig(low_band=(400.0, 300.0)), 'degenerate band'),
    (AnalysisConfig(low_band=(100.0, 110.0)), 'contains no bins'),
    (AnalysisConfig(frame_step=0.030), 'frame_length >= frame_step'),
])
def test_fused_band_energies_raise_as_the_spectrogram_does(cfg, message):
    audio = fixtures()['steady_vowel']
    with pytest.raises(DspError, match=message):
        standard_tracks(audio, cfg)
    with pytest.raises(DspError, match=message):
        band_energies(compute_spectrogram(audio, cfg.frame_length,
                                          cfg.frame_step),
                      [cfg.low_band, cfg.high_band])


def test_parameter_track_window_includes_both_ends():
    params = parameter_frames(synth.vowel_rise_fall(0.3)[0])
    times = params.tracks.times
    assert params.window(times[10], times[20]) == slice(10, 21)
    assert params.window(times[10] + 1e-9, times[20] - 1e-9) == slice(11, 20)
    assert params.window(times[5], times[5]) == slice(5, 6)
    assert params.window(-1.0, times[0]) == slice(0, 1)
    assert params.window(times[-1], 99.0) == slice(len(times) - 1,
                                                   len(times))
    rng = np.random.default_rng(0)
    for t0, t1 in rng.uniform(-0.05, 0.35, (200, 2)):
        want = [i for i, t in enumerate(times) if t0 <= t <= t1]
        got = range(len(times))[params.window(t0, t1)]
        assert list(got) == want


def test_parameter_track_at_is_nearest_frame():
    params = parameter_frames(synth.vowel_rise_fall(0.3)[0])
    times = params.tracks.times
    for t in np.random.default_rng(1).uniform(-0.1, 0.4, 300):
        i = params.at(t)
        assert abs(times[i] - t) == np.min(np.abs(times - t))
    assert params.at(times[7]) == 7


def test_parameter_track_at_equals_the_np_clip_formula():
    """`at` picks the frame np.clip's searchsorted formula picked: on the
    frame times, halfway between them (ties go to the earlier frame),
    before the first, past the last, at +-inf and at NaN."""
    params = parameter_frames(synth.vcv_stop()[0])
    times = params.tracks.times

    def at_clip(t):
        i = int(np.clip(np.searchsorted(times, t), 0, len(times) - 1))
        if i > 0 and abs(times[i - 1] - t) < abs(times[i] - t):
            i -= 1
        return i
    probes = [*times, *(times[:-1] + times[1:]) / 2, *(times + 1e-4),
              *(times - 1e-4), -1.0, 0.0, times[-1] + 1.0, np.inf, -np.inf,
              np.nan]
    for t in probes:
        assert params.at(t) == at_clip(t), t
        assert params.at(float(t)) == at_clip(t), t
    assert params.at(np.nan) == len(times) - 1


@pytest.mark.parametrize('name', ['vcv_stop', 'fricative_vcv', 'ama_nasal',
                                  'awa_glide', 'two_vowels'])
def test_detect_landmarks_reads_parameter_tracks(name):
    audio = fixtures()[name]
    params = parameter_frames(audio)
    assert detect_landmarks(params.tracks) == detect_all(audio)


@pytest.mark.parametrize('name', ['vcv_stop', 'fricative_vcv', 'ama_nasal',
                                  'awa_glide', 'cv_syllable'])
def test_cues_without_parameters_are_broad(name):
    audio = fixtures()[name]
    seq = detect_all(audio)
    full = cues_to_bundles(seq, parameter_frames(audio))
    broad = cues_to_bundles(seq)
    assert [s.window for s in broad] == [s.window for s in full]
    for b, f in zip(broad, full):
        assert set(b.bundle) <= BROAD
        assert {k: b.bundle.value(k) for k in b.bundle} == \
            {k: f.bundle.value(k) for k in f.bundle if k in BROAD}
    assert broad
