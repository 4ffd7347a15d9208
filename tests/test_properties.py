"""Hypothesis checks for the distance metric, frequency counting, the
WAV reader and the analysis under any config that `check_config`
passes."""
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from lamit.access import DistanceWeights, cues_to_bundles, feature_distance
from lamit.config import (AnalysisConfig, ConfigError, _TUPLE_FIELDS,
                          check_config, parse_config_values)
from lamit.corpus import parse_transcription, phoneme_frequencies
from lamit.dsp import AudioBuffer, DspError, parameter_frames, read_wav, \
    write_wav
from lamit.features import (FeatureBundle, MINUS, PLUS, UNSPECIFIED,
                            load_italian)
from lamit.landmarks import LandmarkError, detect_landmarks

import synth

ITALIAN = load_italian()
FEATS = [f for f in ITALIAN.features if f not in ('vowel', 'glide', 'cons')]

values = st.sampled_from([PLUS, MINUS, UNSPECIFIED])


@st.composite
def bundles(draw):
    major = draw(st.sampled_from(['vowel', 'glide', 'cons']))
    b = {major: PLUS}
    for f in draw(st.lists(st.sampled_from(FEATS), unique=True,
                           max_size=8)):
        v = draw(values)
        if v is not UNSPECIFIED:
            b[f] = v
    return FeatureBundle(b)


@given(bundles(), bundles())
def test_distance_nonnegative_and_zero_on_equal(a, b):
    w = DistanceWeights()
    assert feature_distance(a, b, w, ITALIAN) >= 0.0
    assert feature_distance(a, a, w, ITALIAN) == 0.0


@given(bundles(), bundles(), st.floats(min_value=0.1, max_value=50))
def test_distance_scales_linearly(a, b, c):
    w = DistanceWeights()
    scaled = DistanceWeights(w.w_free * c, w.w_bound * c,
                             w.unspecified_cost * c)
    d1 = feature_distance(a, b, w, ITALIAN)
    d2 = feature_distance(a, b, scaled, ITALIAN)
    assert abs(d2 - c * d1) < 1e-9 * max(1.0, d2)


@given(bundles(), bundles(), st.sampled_from(FEATS))
def test_polarity_conflicts_are_symmetric(a, b, f):
    w = DistanceWeights()
    a, b = FeatureBundle({**a, f: PLUS}), FeatureBundle({**b, f: MINUS})
    flipped_a = FeatureBundle(dict(a, **{f: MINUS}))
    flipped_b = FeatureBundle(dict(b, **{f: PLUS}))
    assert feature_distance(a, b, w, ITALIAN) == \
        feature_distance(flipped_a, flipped_b, w, ITALIAN)


@settings(max_examples=25)
@given(st.permutations(["'mamma 'bɛne", "'e ppa'pa", "'tti", "'a"]))
def test_counts_invariant_under_sentence_order(lines):
    sents = [parse_transcription(ln, ITALIAN, i)
             for i, ln in enumerate(lines, 1)]
    base = phoneme_frequencies(
        [parse_transcription(ln, ITALIAN) for ln in sorted(lines)], ITALIAN)
    table = phoneme_frequencies(sents, ITALIAN)
    assert table.counts == base.counts
    assert table.total == base.total


# ------------------------------------------------------------ WAV header

WAV_AUDIO = synth.buf(synth.harmonic_source(0.05))
WAV_HEADER = 58     # RIFF + 'fmt ' (18 bytes) + 'fact' + 'data' headers


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, WAV_HEADER - 1),
                          st.integers(0, 255)), min_size=1, max_size=6),
       st.one_of(st.none(), st.integers(0, WAV_HEADER + 8)))
def test_mutated_wav_header_reads_or_raises_dsp_error(tmp_path_factory,
                                                      edits, cut):
    path = tmp_path_factory.getbasetemp() / 'mutated.wav'
    write_wav(path, WAV_AUDIO)
    raw = bytearray(path.read_bytes())
    for pos, byte in edits:
        raw[pos] = byte
    path.write_bytes(bytes(raw[:cut]))
    try:
        audio = read_wav(path)
    except DspError:
        return
    assert audio.samples.ndim == 1 and audio.sample_rate >= 16000


# ----------------------------------------------- analysis under configs

def at_rate(audio, sr):
    """audio (16 kHz) linearly resampled to sr."""
    n = len(audio.samples) * sr // audio.sample_rate
    t = np.arange(n) * audio.sample_rate / sr
    return AudioBuffer(np.interp(t, np.arange(len(audio.samples)),
                                 audio.samples), sr)


CONFIG_AUDIO = synth.vcv_stop(vdur=0.15)[0]
CONFIG_RATES = {16000: CONFIG_AUDIO, 44100: at_rate(CONFIG_AUDIO, 44100)}

FLOAT_MAX = float(np.finfo(float).max)
extreme = st.one_of(
    st.just(0.0),
    st.floats(max_value=-5e-324, min_value=-FLOAT_MAX),     # negative
    st.floats(min_value=5e-324, max_value=1e-6),            # tiny
    st.floats(min_value=1e6, max_value=FLOAT_MAX))          # huge


@st.composite
def band(draw):
    """Two extreme edges, or a band reaching past the Nyquist frequency
    of 16 kHz (8 kHz) or of 44.1 kHz (22.05 kHz)."""
    if draw(st.booleans()):
        return draw(extreme), draw(extreme)
    lo = draw(st.floats(0.0, 30000.0))
    return lo, lo + draw(st.floats(1.0, 30000.0))


@st.composite
def extreme_configs(draw):
    """Configs with 1-5 keys set to extreme values, as a config file
    sets them; only those `check_config` passes."""
    keys = draw(st.lists(st.sampled_from(AnalysisConfig._fields),
                         min_size=1, max_size=5, unique=True))
    lines = []
    for key in keys:
        value = draw(band()) if key in _TUPLE_FIELDS else (draw(extreme),)
        lines.append(f'{key} = ' + ' '.join(map(repr, value)))
    try:
        return check_config(AnalysisConfig()._replace(
            **parse_config_values('\n'.join(lines))))
    except ConfigError:
        assume(False)


def analyse(cfg, sr):
    """The segments of the fixture at sample rate sr under cfg, with any
    RuntimeWarning an error; None on DspError or LandmarkError."""
    with warnings.catch_warnings():
        warnings.simplefilter('error', RuntimeWarning)
        try:
            params = parameter_frames(CONFIG_RATES[sr], cfg)
            return cues_to_bundles(detect_landmarks(params.tracks), params)
        except (DspError, LandmarkError):
            return None


@settings(max_examples=100, deadline=None)
@given(extreme_configs(), st.sampled_from(sorted(CONFIG_RATES)))
def test_analysis_under_extreme_configs_ends_in_output_or_error(cfg, sr):
    segments = analyse(cfg, sr)
    assert segments is None or all(s.window[0] < s.window[1]
                                   for s in segments)


@pytest.mark.parametrize('sr', sorted(CONFIG_RATES))
@pytest.mark.parametrize('change', [
    {'frame_length': FLOAT_MAX}, {'frame_step': FLOAT_MAX},
    {'ror_window': FLOAT_MAX}, {'f0_frame_length': FLOAT_MAX},
    {'f0_min': 5e-324}, {'f0_min': 5e-324, 'f0_max': 1e-320},
    {'f0_max': 1e6}, {'vowel_min_separation': FLOAT_MAX},
    {'noise_min_duration': 1e300}, {'gate_min_duration': FLOAT_MAX},
    {'f1_band': (0.0, 1.0), 'mid_band': (0.0, 1.0),
     'high_band': (0.0, 1.0)},
    {'f1_band': (0.0, 5e-324)}], ids='+'.join)
def test_extreme_config_values_end_in_output_or_error(change, sr):
    """Single values at the float limits, each ending in an output or an
    error: no int conversion of inf, no division by a zero lag and no
    slope fitted to one band centre."""
    analyse(check_config(AnalysisConfig()._replace(**change)), sr)
