import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io.wavfile
from numpy.lib.stride_tricks import sliding_window_view

from lamit.config import AnalysisConfig
from lamit.dsp import (AudioBuffer, DspError, band_energies,
                       compute_spectrogram, estimate_f0, median,
                       parameter_frames, rate_of_rise, read_wav,
                       standard_tracks, write_wav)

import synth


def test_frame_count_formula():
    audio = synth.buf(synth.silence(0.5))
    spec = compute_spectrogram(audio, 0.025, 0.010)
    assert spec.n_frames == 48


def test_silence_hits_floor():
    spec = compute_spectrogram(synth.buf(synth.silence(1.0)), 0.025, 0.010)
    assert np.all(spec.frames == -120.0)


def test_tone_bin_localization():
    sr = 16000
    t = np.arange(sr) / sr
    audio = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000 * t), sr)
    spec = compute_spectrogram(audio, 0.025, 0.010)
    # independent DFT oracle on one raw frame
    frame = audio.samples[:400] * np.hanning(400)
    oracle = np.array([sum(frame[n] * np.exp(-2j * np.pi * k * n / 400)
                           for n in range(400)) for k in range(201)])
    k_oracle = int(np.argmax(np.abs(oracle)))
    assert abs(k_oracle * spec.freq_resolution - 1000) <= spec.freq_resolution
    peaks = np.argmax(spec.frames, axis=1)
    assert np.all(np.abs(peaks - k_oracle) <= 1)


def test_empty_and_short_audio_errors():
    with pytest.raises(DspError):
        compute_spectrogram(synth.buf(np.zeros(0)), 0.025, 0.005)
    with pytest.raises(DspError):
        compute_spectrogram(synth.buf(np.zeros(100)), 0.025, 0.005)


def test_db_shift_linearity():
    audio, _ = synth.vowel_rise_fall(0.3)
    spec1 = compute_spectrogram(audio, 0.025, 0.005)
    spec2 = compute_spectrogram(AudioBuffer(audio.samples * 10.0, 16000),
                                0.025, 0.005)
    mask = spec1.frames > -90      # keep clear of the floor
    shift = spec2.frames[mask] - spec1.frames[mask]
    assert np.max(np.abs(shift - 20.0)) < 1e-6


def test_band_energy_superset_monotonicity():
    audio, _ = synth.vowel_rise_fall(0.3)
    spec = compute_spectrogram(audio, 0.025, 0.005)
    nyquist = spec.freq_resolution * (spec.frames.shape[1] - 1)
    full = band_energies(spec, [(0, nyquist)]).energy[0]
    sub = band_energies(spec, [(300, 900)]).energy[0]
    assert np.all(full >= sub - 1e-9)


def test_band_beyond_nyquist():
    spec = compute_spectrogram(synth.buf(synth.silence(0.2)), 0.025, 0.005)
    with pytest.raises(DspError, match='Nyquist'):
        band_energies(spec, [(0, 9000)])
    with pytest.raises(DspError, match='degenerate'):
        band_energies(spec, [(500, 500)])


def test_formant_band_dominance():
    audio = synth.buf(synth.harmonic_source(0.4, formants=(700.0,)))
    tracks = standard_tracks(audio)
    mid_frames = slice(20, -20)
    f1 = tracks.energy[1][mid_frames]
    high = tracks.energy[3][mid_frames]
    assert np.all(f1 - high >= 10.0)


def test_rate_of_rise_constant_zero():
    out = rate_of_rise(np.full(200, -35.0), 0.02, 0.005)
    assert np.allclose(out, 0.0)


def test_rate_of_rise_step():
    track = np.full(200, -80.0)
    track[100:] = -50.0
    out = rate_of_rise(track, 0.02, 0.005)
    peak = int(np.argmax(out))
    assert abs(peak - 100) * 0.005 <= 0.01 + 1e-9
    assert out[peak] > 0
    assert np.all(out[:90] == 0) or np.allclose(out[:90], 0)


def test_rate_of_rise_ramp():
    r = 120.0   # dB/s
    track = -90 + r * 0.005 * np.arange(300)
    out = rate_of_rise(track, 0.02, 0.005)
    interior = out[10:-10]
    assert np.all(np.abs(interior - r) <= 0.05 * r)


def test_rate_of_rise_window_too_small():
    with pytest.raises(DspError):
        rate_of_rise(np.zeros(50), 0.004, 0.005)


def test_rate_of_rise_window_over_twice_the_track():
    # edge padding of n // 2 frames may equal the track, not exceed it
    assert not rate_of_rise(np.zeros(3), 0.02, 0.005).any()
    assert not rate_of_rise(np.zeros(50), 0.5, 0.005).any()
    with pytest.raises(DspError, match='longer than twice the track'):
        rate_of_rise(np.zeros(50), 0.51, 0.005)


def test_rate_of_rise_under_three_frames_is_zero():
    # a window any longer track would refuse: too short to difference
    for n in (0, 1, 2):
        out = rate_of_rise(np.full(n, -35.0), 1.0, 0.005)
        assert out.shape == (n,) and out.dtype == np.float64
        assert not out.any()


def rate_of_rise_reference(track, window, frame_step):
    """The rate of rise with its window rule inline, as before it moved
    to `dsp._frames`."""
    track = np.asarray(track, dtype=np.float64)
    n = int(round(min(window / frame_step, 2 * len(track) + 3)))
    if n < 2:
        raise DspError(f'window {window}s shorter than two frame steps')
    if n % 2 == 0:
        n += 1
    if len(track) < 3:
        return np.zeros_like(track)
    if n // 2 > len(track):
        raise DspError(f'rate-of-rise window {window:g}s longer than twice '
                       f'the track ({len(track)} frames)')
    pad = np.pad(track, n // 2, mode='edge')
    smooth = np.convolve(pad, np.ones(n) / n, mode='valid')
    out = np.zeros_like(track)
    out[1:-1] = (smooth[2:] - smooth[:-2]) / (2.0 * frame_step)
    return out


def test_rate_of_rise_window_rule_equals_the_inline_rule():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        size = int(rng.choice([0, 1, 2, 3, 4, int(rng.integers(5, 40))]))
        track = rng.uniform(-90.0, 0.0, size)
        # steps of a power of two make k + .5 steps an exact tie
        step = float(rng.choice([0.005, 0.01, 2.0 ** -7, 0.25]))
        k = float(rng.integers(0, 2 * size + 6))
        window = float(rng.choice([
            (k + 0.5) * step, k * step, rng.uniform(0.0, 2.0) * step,
            (2 * size + rng.uniform(0.0, 6.0)) * step, math.inf,
            rng.uniform(0.0, 2 * size + 6) * step]))
        try:
            want = rate_of_rise_reference(track, window, step)
        except DspError as e:
            with pytest.raises(DspError, match=f'^{re.escape(str(e))}$'):
                rate_of_rise(track, window, step)
        else:
            assert rate_of_rise(track, window, step).tobytes() == \
                want.tobytes()


def test_f0_pulse_train():
    audio = synth.buf(synth.pulse_train(0.5, f0=120.0))
    times = np.arange(0.05, 0.45, 0.01)
    f0 = estimate_f0(audio, times)
    voiced = f0[~np.isnan(f0)]
    assert len(voiced) >= 0.9 * len(times)
    assert np.all(np.abs(voiced - 120.0) <= 2.0)


def test_f0_white_noise_mostly_unvoiced():
    audio = synth.buf(synth.white_noise(0.5, seed=1))
    times = np.arange(0.05, 0.45, 0.01)
    f0 = estimate_f0(audio, times)
    assert np.mean(np.isnan(f0)) >= 0.95


def test_f0_silence_unvoiced():
    audio = synth.buf(synth.silence(0.3))
    f0 = estimate_f0(audio, np.array([0.1, 0.2]))
    assert np.all(np.isnan(f0))


def test_f0_range_clipped():
    audio, _ = synth.vowel_rise_fall(0.4)
    f0 = estimate_f0(audio, np.arange(0.1, 0.3, 0.01))
    voiced = f0[~np.isnan(f0)]
    assert np.all((voiced >= 50) & (voiced <= 500))


def test_f0_empty_lag_range_raises():
    audio = synth.buf(synth.pulse_train(0.3, f0=120.0))
    times = np.array([0.1, 0.2])
    # a frame too short for f0_max, and limits the wrong way round
    for cfg in (AnalysisConfig(f0_frame_length=0.002),
                AnalysisConfig(f0_min=400.0, f0_max=100.0)):
        with pytest.raises(DspError, match='no F0 lag range'):
            estimate_f0(audio, times, cfg)


def test_f0_audio_shorter_than_frame_is_unvoiced():
    audio = synth.buf(synth.pulse_train(0.02, f0=120.0))
    f0 = estimate_f0(audio, np.array([0.005, 0.01]))
    assert f0.shape == (2,) and np.all(np.isnan(f0))


def test_time_shift_equivariance():
    audio, _ = synth.vowel_rise_fall(0.3)
    k = 8   # frames of 5 ms at 16 kHz = 640 samples
    shifted = AudioBuffer(
        np.concatenate([np.zeros(k * 80), audio.samples]), 16000)
    t1 = standard_tracks(audio)
    t2 = standard_tracks(shifted)
    a = t1.energy[0][:-k] if k else t1.energy[0]
    b = t2.energy[0][k:len(t1.energy[0])]
    assert np.allclose(a, b, atol=1e-9)


def test_outputs_finite():
    for sig in (synth.white_noise(0.2, seed=2), synth.silence(0.2),
                synth.harmonic_source(0.2)):
        tracks = standard_tracks(synth.buf(sig))
        assert np.all(np.isfinite(tracks.energy))


def test_wav_roundtrip(tmp_path):
    audio, _ = synth.vowel_rise_fall(0.2)
    path = tmp_path / 'v.wav'
    write_wav(path, audio)
    again = read_wav(path)
    assert again.sample_rate == audio.sample_rate
    assert np.allclose(again.samples, audio.samples, atol=1e-6)


def test_wav_pcm16(tmp_path):
    import scipy.io.wavfile
    sig = (synth.harmonic_source(0.2) * 32767).astype(np.int16)
    path = tmp_path / 'p.wav'
    scipy.io.wavfile.write(path, 16000, sig)
    audio = read_wav(path)
    assert np.max(np.abs(audio.samples)) <= 1.0


def test_wav_rejects_stereo(tmp_path):
    import scipy.io.wavfile
    sig = np.zeros((1000, 2), dtype=np.int16)
    path = tmp_path / 's.wav'
    scipy.io.wavfile.write(path, 44100, sig)
    with pytest.raises(DspError, match='mono'):
        read_wav(path)


def test_low_rate_rejected():
    with pytest.raises(DspError, match='16 kHz'):
        AudioBuffer(np.zeros(100), 8000)


def test_two_dimensional_buffer_rejected():
    with pytest.raises(DspError, match='^audio must be mono$'):
        AudioBuffer(np.zeros((2, 16000)), 16000)


def test_buffer_fields_cannot_be_rebound_or_deleted():
    audio = AudioBuffer(np.zeros(16000), 16000)
    with pytest.raises(AttributeError):
        audio.sample_rate = 8000
    with pytest.raises(AttributeError):
        audio.samples = np.full(16000, np.nan)
    with pytest.raises(AttributeError):
        del audio.samples
    assert audio.sample_rate == 16000 and not audio.samples.any()
    # compared and hashed by identity, as before it was frozen
    assert audio == audio and audio != AudioBuffer(audio.samples, 16000)
    assert hash(audio) == hash(audio)


def test_buffer_samples_are_a_read_only_copy():
    samples = np.zeros(16000)
    audio = AudioBuffer(samples, 16000)
    with pytest.raises(ValueError, match='read-only'):
        audio.samples[0] = np.nan
    assert not audio.samples.flags.writeable
    # the caller's own array is copied, and stays writeable
    assert samples.flags.writeable
    assert not np.shares_memory(samples, audio.samples)


def test_a_callers_later_write_cannot_reach_the_buffer():
    samples = np.zeros(16000)
    audio = AudioBuffer(samples, 16000)
    samples[0] = np.nan
    assert np.all(audio.samples == 0.0)
    assert np.all(np.isfinite(standard_tracks(audio).energy))


@pytest.mark.parametrize('bad', [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize('at', [0, 8000, -1])
def test_buffer_refuses_a_non_finite_sample_anywhere(bad, at):
    samples = np.zeros(16001)
    samples[at] = bad
    with pytest.raises(DspError,
                       match='^audio contains non-finite samples$'):
        AudioBuffer(samples, 16000)


def test_empty_buffer_is_made_and_refused_by_analysis():
    audio = AudioBuffer(np.zeros(0), 16000)
    assert audio.duration == 0.0 and audio.samples.shape == (0,)
    with pytest.raises(DspError, match='^empty audio$'):
        standard_tracks(audio)


def test_buffer_check_allocates_nothing_as_long_as_the_audio():
    samples = np.zeros(160000)
    tracemalloc.start()
    try:
        AudioBuffer(samples, 16000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the buffer's own copy, and no temporary of one byte per sample
    assert peak < samples.nbytes + len(samples) // 16


def test_read_wav_makes_one_float64_array(tmp_path):
    """read_wav hands the array it made to its buffer, with no copy."""
    path = tmp_path / 'x.wav'
    write_wav(path, synth.buf(synth.white_noise(2.0, seed=3)))
    tracemalloc.start()
    try:
        audio = read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes and one float64 array, not two
    assert peak < path.stat().st_size + 1.5 * audio.samples.nbytes


def test_median_equals_numpy_median():
    rng = np.random.default_rng(7)
    for n in [1, 2, 3, 4, 9, 10, 31, 64]:
        x = rng.normal(size=n)
        assert median(x).tobytes() == np.median(x).tobytes()
        windows = sliding_window_view(rng.normal(size=n + 40), n)
        assert median(windows).tobytes() == \
            np.median(windows, axis=1).tobytes()


def test_analysis_arrays_are_read_only():
    audio = synth.buf(synth.white_noise(0.2, seed=2))
    spec = compute_spectrogram(audio)
    params = parameter_frames(audio)
    tracks = [standard_tracks(audio), params.tracks,
              band_energies(spec, [(0.0, 1000.0), (1000.0, 4000.0)])]
    arrays = [spec.frames, spec.times, params.tilt]
    arrays += [a for t in tracks for a in (t.energy, t.times)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match='read-only'):
            a[0] = 0.0
    for t in tracks:
        assert isinstance(t.bands, tuple)


# ------------------------------------------------ wav reader vs scipy

GUID_TAIL = b'\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71'


def riff(*chunks):
    """A RIFF/WAVE file from (id, body) chunks, each padded to even size."""
    body = b'WAVE' + b''.join(
        cid + struct.pack('<I', len(data)) + data + b'\0' * (len(data) % 2)
        for cid, data in chunks)
    return b'RIFF' + struct.pack('<I', len(body)) + body


def fmt_chunk(tag, bits, rate=16000, channels=1):
    align = channels * bits // 8
    body = struct.pack('<HHIIHH', tag, channels, rate, rate * align, align,
                       bits)
    return b'fmt ', body


def extensible_fmt_chunk(subformat, bits, rate=16000):
    _, body = fmt_chunk(0xFFFE, bits, rate)
    return b'fmt ', (body + struct.pack('<HHII', 22, bits, 4, subformat)
                     + GUID_TAIL)


def samples_of(dtype, n=401, seed=0):
    x = 0.4 * np.random.default_rng(seed).standard_normal(n)
    if dtype == np.int16:
        return (x * 32767).astype(np.int16)
    return x.astype(dtype)


def scipy_oracle(path):
    """scipy's reader followed by the conversion read_wav promises."""
    with warnings.catch_warnings():
        warnings.simplefilter('ignore', scipy.io.wavfile.WavFileWarning)
        rate, data = scipy.io.wavfile.read(path)
    if data.dtype == np.int16:
        return rate, data / 32768.0
    return rate, data.astype(np.float64)


def assert_reads_like_scipy(path):
    rate, want = scipy_oracle(path)
    audio = read_wav(path)
    assert audio.sample_rate == rate
    assert audio.samples.dtype == np.float64
    np.testing.assert_array_equal(audio.samples, want)


@pytest.mark.parametrize('dtype', [np.int16, np.float32, np.float64])
def test_wav_matches_scipy_reader(tmp_path, dtype):
    path = tmp_path / 'x.wav'
    scipy.io.wavfile.write(path, 22050, samples_of(dtype))
    assert_reads_like_scipy(path)


@pytest.mark.parametrize('subformat,dtype', [(1, np.int16), (3, np.float32),
                                             (3, np.float64)])
def test_wav_extensible_header(tmp_path, subformat, dtype):
    data = samples_of(dtype)
    path = tmp_path / 'ext.wav'
    path.write_bytes(riff(extensible_fmt_chunk(subformat, data.itemsize * 8),
                          (b'data', data.tobytes())))
    assert_reads_like_scipy(path)


def test_wav_skips_list_and_odd_sized_chunks(tmp_path):
    data = samples_of(np.int16)
    path = tmp_path / 'chunks.wav'
    path.write_bytes(riff((b'LIST', b'INFOISFT\x05\x00\x00\x00lamit\x00'),
                          fmt_chunk(1, 16),
                          (b'odd ', b'abc'),         # pad byte follows
                          (b'data', data.tobytes())))
    assert_reads_like_scipy(path)


def test_write_wav_bytes_match_scipy_writer(tmp_path):
    audio = synth.buf(samples_of(np.float64))
    ours, theirs = tmp_path / 'ours.wav', tmp_path / 'theirs.wav'
    write_wav(ours, audio)
    scipy.io.wavfile.write(theirs, audio.sample_rate,
                           audio.samples.astype(np.float32))
    assert ours.read_bytes() == theirs.read_bytes()


MALFORMED = {
    'empty': (b'', 'RIFF'),
    'mp3': (b'ID3\x03' + bytes(60), 'RIFF'),
    'riff-avi': (b'RIFF\x04\x00\x00\x00AVI ', 'RIFF'),
    'no-data': (riff(fmt_chunk(1, 16)), 'no data chunk'),
    'data-first': (riff((b'data', bytes(8)), fmt_chunk(1, 16)), 'before fmt'),
    'short-data': (riff(fmt_chunk(1, 16), (b'data', bytes(64)))[:-10],
                   'truncated'),
    'short-fmt': (riff(fmt_chunk(1, 16))[:-4], 'truncated'),
    'tiny-fmt': (riff((b'fmt ', bytes(12)), (b'data', bytes(8))),
                 'fmt chunk'),
    'stereo': (riff(fmt_chunk(1, 16, channels=2), (b'data', bytes(8))),
               'mono'),
    'pcm8': (riff(fmt_chunk(1, 8), (b'data', bytes(8))), 'unsupported'),
    'pcm24': (riff(fmt_chunk(1, 24), (b'data', bytes(9))), 'unsupported'),
    'adpcm': (riff(fmt_chunk(2, 16), (b'data', bytes(8))), 'unsupported'),
    'ext-no-guid': (riff(fmt_chunk(0xFFFE, 16), (b'data', bytes(8))),
                    'extensible'),
    'ext-bad-guid': (riff((b'fmt ', extensible_fmt_chunk(1, 16)[1][:-1]
                           + b'\x00'), (b'data', bytes(8))), 'extensible'),
    '8khz': (riff(fmt_chunk(1, 16, rate=8000), (b'data', bytes(8))),
             '16 kHz'),
}


@pytest.mark.parametrize('raw,message', MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_wav_malformed_raises_dsp_error(tmp_path, raw, message):
    path = tmp_path / 'bad.wav'
    path.write_bytes(raw)
    with pytest.raises(DspError, match=message):
        read_wav(path)
