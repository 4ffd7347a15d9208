"""One frame grid, cut in whole samples.

Frames of round(frame_length * sr) samples start every round(frame_step
* sr) samples, and every frame time is the centre of such a frame.  At
22.05 and 44.1 kHz the nominal 5 ms step is 110.25 and 220.5 samples,
so times counted in nominal seconds would drift from the audio by 0.23%.
"""
import numpy as np
import pytest
from scipy.signal import resample_poly

from lamit.cli import main
from lamit.config import AnalysisConfig
from lamit.dsp import (AudioBuffer, DspError, compute_spectrogram,
                       standard_tracks, write_wav)
from lamit.landmarks import LandmarkKind, detect_all
from lamit.textgrid import parse_textgrid, serialize_textgrid

import synth


def resampled(audio, sr):
    """audio (16 kHz) at sample rate sr."""
    g = np.gcd(sr, audio.sample_rate)
    return AudioBuffer(resample_poly(audio.samples, sr // g,
                                     audio.sample_rate // g), sr)


def sample_grid(n, sr, cfg):
    """Centres of n frames of nwin samples started every step samples."""
    nwin = round(cfg.frame_length * sr)
    step = round(cfg.frame_step * sr)
    return (nwin / 2 + step * np.arange(n)) / sr, step / sr


@pytest.mark.parametrize('sr', [22050, 44100])
def test_frame_times_are_sample_grid_centres(sr):
    cfg = AnalysisConfig()
    audio = resampled(synth.utterances()['concatenated'], sr)
    tracks = standard_tracks(audio, cfg)
    spec = compute_spectrogram(audio, cfg.frame_length, cfg.frame_step)
    want, hop = sample_grid(len(tracks.times), sr, cfg)
    # the grid is computed as nwin/sr/2 + step/sr * k, which rounds twice
    # and may differ from the centres in the last bits, far below a sample
    np.testing.assert_allclose(tracks.times, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(spec.times, tracks.times)
    assert tracks.frame_step == spec.frame_step == hop
    assert spec.n_frames == len(tracks.times)
    assert tracks.times[-1] < audio.duration


def test_frame_times_at_16k_are_the_nominal_ones():
    cfg = AnalysisConfig()
    tracks = standard_tracks(synth.utterances()['concatenated'], cfg)
    n = len(tracks.times)
    np.testing.assert_array_equal(
        tracks.times, cfg.frame_length / 2 + cfg.frame_step * np.arange(n))
    assert tracks.frame_step == cfg.frame_step


def test_sub_sample_hop_raises():
    audio = synth.steady_vowel()
    with pytest.raises(DspError, match='frame_length >= frame_step'):
        standard_tracks(audio, AnalysisConfig(frame_step=0.00001))
    with pytest.raises(DspError, match='frame_length >= frame_step'):
        compute_spectrogram(audio, 0.025, 0.00001)


@pytest.mark.parametrize('command', ['landmarks', 'match'])
def test_sub_sample_hop_is_one_line_error(tmp_path, capsys, command):
    audio = synth.steady_vowel()
    wav = tmp_path / 'v.wav'
    write_wav(wav, audio)
    cfg = tmp_path / 'hop.cfg'
    cfg.write_text('frame_step = 0.00001\n', encoding='utf-8')
    argv = [command, '--wav', str(wav), '--config', str(cfg),
            '--out', str(tmp_path / 'o')]
    if command == 'match':
        tg = tmp_path / 'w.TextGrid'
        tg.write_text(serialize_textgrid(synth.word_doc(audio.duration)),
                      encoding='utf-8')
        argv += ['--textgrid', str(tg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith('error: ') and err.count('\n') == 1, err
    assert 'frame_step' in err and str(wav) in err


def test_landmarks_textgrid_ends_at_the_audio_end(tmp_path):
    audio = resampled(synth.utterances()['concatenated'], 44100)
    wav = tmp_path / 'u44.wav'
    write_wav(wav, audio)
    assert main(['landmarks', '--wav', str(wav),
                 '--out', str(tmp_path / 'u44')]) == 0
    doc = parse_textgrid((tmp_path / 'u44.TextGrid').read_bytes())
    assert doc.duration == pytest.approx(audio.duration, abs=1e-9)
    assert doc.tiers[0].t_end < audio.duration


def nearest_same_kind(seq, other):
    """For each landmark of seq, its distance to the nearest landmark of
    the same kind in other (inf when other has none)."""
    out = []
    for lm in seq:
        times = np.array([o.time for o in other if o.kind == lm.kind])
        out.append(np.min(np.abs(times - lm.time)) if len(times)
                   else np.inf)
    return np.array(out)


def test_resampled_recording_keeps_its_landmark_times():
    # two passes over the joined fixtures: 11.6 s, over which a nominal
    # 5 ms hop at 44.1 kHz would drift by 26 ms
    x = np.concatenate([synth.utterances()['concatenated'].samples] * 2)
    audio = AudioBuffer(x, 16000)
    assert audio.duration >= 10.0
    at16 = detect_all(audio).items
    at44 = detect_all(resampled(audio, 44100)).items
    # closures and releases are abrupt, so each one is found again, in
    # order, within 5 ms (one 44.1 kHz hop is 4.99 ms)
    consonant = (LandmarkKind.CLOSURE, LandmarkKind.RELEASE)
    c16 = [lm for lm in at16 if lm.kind in consonant]
    c44 = [lm for lm in at44 if lm.kind in consonant]
    assert len(c16) > 30
    assert [(lm.kind, lm.manner) for lm in c16] == \
        [(lm.kind, lm.manner) for lm in c44]
    offsets = np.abs([a.time - b.time for a, b in zip(c16, c44)])
    assert offsets.max() <= 0.005, offsets
    # a vowel peak or glide dip on a flat stretch may move to another
    # frame of it, so over all kinds the median offset is what is held
    assert np.median(nearest_same_kind(at16, at44)) <= 0.0025
