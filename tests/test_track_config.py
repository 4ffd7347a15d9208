"""Band tracks carry the config they were measured with, and the landmark
detectors and cue rules read that one config."""
import inspect

import pytest

from lamit import landmarks
from lamit.config import AnalysisConfig
from lamit.dsp import BandEnergyTracks, band_energies, compute_spectrogram, \
    parameter_frames, standard_tracks
from lamit.landmarks import LandmarkKind, detect_all, detect_landmarks

import synth

# each moves the landmarks of the joined fixtures far from the defaults'
CONFIGS = [AnalysisConfig(vowel_prominence_db=30.0),
           AnalysisConfig(ror_threshold=3000.0),
           AnalysisConfig(merge_window=0.2)]


@pytest.fixture(scope='module')
def joined():
    return synth.utterances()['concatenated']


@pytest.mark.parametrize('cfg', CONFIGS, ids=['vowel_prominence_db',
                                               'ror_threshold',
                                               'merge_window'])
def test_parameter_tracks_detect_with_their_own_config(joined, cfg):
    seq = detect_landmarks(parameter_frames(joined, cfg).tracks)
    assert seq == detect_all(joined, cfg)
    assert seq != detect_all(joined)


def test_raised_vowel_prominence_keeps_five_vowels(joined):
    cfg = AnalysisConfig(vowel_prominence_db=30.0)
    seq = detect_landmarks(parameter_frames(joined, cfg).tracks)
    kinds = [lm.kind for lm in seq.items]
    assert kinds.count(LandmarkKind.VOWEL) == 5
    assert [lm.kind for lm in detect_all(joined).items].count(
        LandmarkKind.VOWEL) == 15


def test_tracks_keep_the_config_object(joined):
    cfg = AnalysisConfig(merge_window=0.2)
    assert standard_tracks(joined, cfg).cfg is cfg
    params = parameter_frames(joined, cfg)
    assert params.cfg is cfg
    assert params.cfg is params.tracks.cfg


def test_tracks_without_a_config_carry_the_defaults(joined):
    assert standard_tracks(joined).cfg == AnalysisConfig()
    assert parameter_frames(joined).cfg == AnalysisConfig()
    spec = compute_spectrogram(joined)
    assert band_energies(spec, [(0.0, 400.0)]).cfg == AnalysisConfig()


def test_parameter_track_config_is_read_only(joined):
    params = parameter_frames(joined)
    with pytest.raises(AttributeError):
        params.cfg = AnalysisConfig()
    assert 'cfg' not in params._fields
    assert 'cfg' in BandEnergyTracks._fields


def test_only_whole_pipeline_functions_take_a_config():
    takes_cfg = {name for name, fn in vars(landmarks).items()
                 if inspect.isfunction(fn) and not name.startswith('_')
                 and fn.__module__ == landmarks.__name__
                 and 'cfg' in inspect.signature(fn).parameters}
    assert takes_cfg == {'detect_all', 'landmark_sequence'}
