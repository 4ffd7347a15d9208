"""The numpy peak finder against scipy.signal.find_peaks as the oracle."""
import numpy as np
import pytest
import scipy.signal

from lamit.config import AnalysisConfig
from lamit.dsp import standard_tracks
from lamit.landmarks import LOW, _find_peaks, _relative

import synth

PROPS = ('prominences', 'left_bases', 'right_bases')


def assert_same_as_scipy(x, prominence, distance=1):
    want, want_props = scipy.signal.find_peaks(
        x, prominence=prominence, distance=distance)
    got, got_props = _find_peaks(x, prominence, distance)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    for key in PROPS:
        np.testing.assert_array_equal(got_props[key], want_props[key])
        assert got_props[key].dtype == want_props[key].dtype


def test_random_tracks_with_plateaus_and_ties():
    # rounding makes equal neighbours (plateaus) and equal peak heights
    # (ties in the distance filter's argsort); clipping adds long floors
    rng = np.random.default_rng(20210706)
    for r in range(400):
        n = int(rng.integers(0, 400))
        x = np.round(rng.normal(size=n).cumsum()
                     * rng.uniform(0.2, 3.0), int(rng.integers(0, 2)))
        if r % 3 == 0 and n:
            x = np.maximum(x, np.quantile(x, 0.3))
        distance = int(rng.integers(1, 9))
        prominence = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
        assert_same_as_scipy(x, prominence, distance)
        assert_same_as_scipy(-x, prominence, distance)


@pytest.mark.parametrize('x', [
    [], [1.0], [1.0, 2.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0],
    [0.0, 1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 2.0],
    [0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0], [0.0, 1.0, 1.0, 2.0, 0.0],
])
def test_small_cases(x):
    for distance in (1, 2, 3):
        assert_same_as_scipy(np.array(x, dtype=float), 0.0, distance)


FIXTURES = [
    synth.steady_vowel(),
    synth.vowel_rise_fall()[0],
    synth.two_vowels()[0],
    synth.cv_syllable()[0],
    synth.vcv_stop()[0],
    synth.noise_onset()[0],
    synth.awa_glide()[0],
    synth.apa_stop()[0],
    synth.ama_nasal()[0],
    synth.fricative_vcv()[0],
]


@pytest.mark.parametrize('audio', FIXTURES)
def test_fixture_low_band(audio):
    cfg = AnalysisConfig()
    tracks = standard_tracks(audio, cfg)
    low = _relative(tracks, cfg)[LOW]
    dist = max(1, int(round(cfg.vowel_min_separation / tracks.frame_step)))
    # the two detector call forms: vowel peaks and glide dips
    assert_same_as_scipy(low, cfg.vowel_prominence_db, dist)
    assert_same_as_scipy(-low, cfg.glide_dip_db)
    for distance in range(1, 9):
        assert_same_as_scipy(tracks.energy[LOW], 0.0, distance)
