"""The voicing rule's two calls, middle frames first, against the one call
over every frame that it replaced."""
import numpy as np
import pytest

from lamit import access
from lamit.access import _voicing_rule
from lamit.dsp import ParameterTrack, parameter_frames
from lamit.landmarks import LandmarkKind, Manner, detect_landmarks

import synth
from test_frontend import fixtures, random_signal


def voicing_oracle(params, inside):
    """The rule as one `voiced` call over all frames of every window:
    [+slack -stiff] where the mean of a window's voicing is >= 0.5."""
    voiced = params.voiced([f for w in inside.values()
                            for f in range(w.start, w.stop)])
    out, pos = {}, 0
    for n, w in inside.items():
        k = w.stop - w.start
        out[n] = (access._SLACK if np.mean(voiced[pos:pos + k]) >= 0.5
                  else access._STIFF)
        pos += k
    return out


def spy_voiced(monkeypatch, voiced=ParameterTrack.voiced):
    """Record the frames of each `ParameterTrack.voiced` call from now on;
    `voiced` answers them."""
    calls = []

    def spy(self, frames):
        calls.append(list(frames))
        return voiced(self, frames)
    monkeypatch.setattr(ParameterTrack, 'voiced', spy)
    return calls


def check_calls(calls, inside, voiced):
    """At most two calls and no frame twice.  The first holds the middle
    k // 2 + 1 of each window's k frames, centred; the second holds the
    other frames of the windows whose middle frames left them open (some
    voiced, fewer than k - k // 2), and there is none without such a
    window.  `voiced` is the set of voiced frames."""
    flat = [f for c in calls for f in c]
    assert len(flat) == len(set(flat))
    if not inside:
        assert calls == []
        return
    assert 1 <= len(calls) <= 2
    first = set(calls[0])
    open_frames = set()
    for w in inside.values():
        k = w.stop - w.start
        mid = sorted(first & set(range(w.start, w.stop)))
        assert len(mid) == k // 2 + 1
        assert mid == list(range(mid[0], mid[-1] + 1))
        assert 0 <= (w.stop - 1 - mid[-1]) - (mid[0] - w.start) <= 1
        count = len(voiced & set(mid))
        if 0 < count < k - k // 2:
            open_frames |= set(range(w.start, w.stop)) - first
    assert len(calls[0]) == sum((w.stop - w.start) // 2 + 1
                                for w in inside.values())
    if open_frames:
        assert len(calls) == 2 and set(calls[1]) == open_frames
    else:
        assert len(calls) == 1


def assert_rule_equals_oracle(monkeypatch, params, inside, voiced=None,
                              label=''):
    """`_voicing_rule` == the one-call oracle, through two checked calls.
    `voiced` stubs `ParameterTrack.voiced` as a set of voiced frames;
    without it the audio is voiced."""
    if voiced is None:
        everything = params.voiced(range(len(params.tracks.times)))
        voiced = set(np.flatnonzero(everything).tolist())
        calls = spy_voiced(monkeypatch)
    else:
        calls = spy_voiced(monkeypatch, lambda self, frames: np.isin(
            np.asarray(frames, dtype=np.intp), sorted(voiced)))
    want = voicing_oracle(params, inside)
    calls.clear()
    got = _voicing_rule(params, inside)
    assert got == want, label
    check_calls(calls, inside, voiced)
    return got


# ---------------------------------------------------------- stubbed voicing

N_FRAMES = 100


def middle(w):
    k = w.stop - w.start
    start = w.start + (k - k // 2 - 1) // 2
    return range(start, start + k // 2 + 1)


def run_of_windows():
    """One window of each length from 1 to 12, disjoint, between a
    one-frame window at the first frame and a three-frame one at the
    last; keyed as pair indices are, with gaps."""
    out, start = {0: slice(0, 1)}, 1
    for k in range(1, 13):
        out[2 * k + 1] = slice(start, start + k)
        start += k + k % 2
    assert start <= N_FRAMES - 3
    out[99] = slice(N_FRAMES - 3, N_FRAMES)
    return out


# k = 1, 2 and 3 at the first and at the last frame, and the run
WINDOW_SETS = {
    'none': {},
    **{f'k{k}_{end}': {0: slice(a, a + k)}
       for k in (1, 2, 3)
       for end, a in (('first', 0), ('last', N_FRAMES - k))},
    'run': run_of_windows(),
}


def patterns(inside):
    """Voiced frame sets: none, every frame, only each window's end
    frames (those outside its middle, or its first and last), exactly
    the first or last half, every other frame, and seeded random sets."""
    windows = list(inside.values())
    every = set(range(N_FRAMES))
    yield 'no frame', set()
    yield 'every frame', every
    yield 'ends', {f for w in windows
                   for f in set(range(w.start, w.stop)) - set(middle(w))}
    yield 'first and last', {f for w in windows for f in (w.start, w.stop - 1)}
    yield 'first half', {f for w in windows
                         for f in range(w.start, w.start + (w.stop - w.start)
                                        // 2)}
    yield 'last half', {f for w in windows
                        for f in range(w.start + (w.stop - w.start) // 2,
                                       w.stop)}
    yield 'every other', set(range(0, N_FRAMES, 2))
    rng = np.random.default_rng(len(windows))
    for p in (0.2, 0.5, 0.8):
        for _ in range(4):
            yield f'random {p}', set(np.flatnonzero(
                rng.random(N_FRAMES) < p).tolist())


@pytest.fixture(scope='module')
def stub_params():
    params = parameter_frames(synth.steady_vowel(0.52))
    assert len(params.tracks.times) == N_FRAMES
    return params


@pytest.mark.parametrize('name', WINDOW_SETS)
def test_rule_equals_oracle_on_stubbed_voicing(monkeypatch, stub_params,
                                               name):
    inside = WINDOW_SETS[name]
    for label, voiced in patterns(inside):
        with monkeypatch.context() as m:
            assert_rule_equals_oracle(m, stub_params, inside, voiced, label)


def test_exactly_half_voiced_is_slack(monkeypatch, stub_params):
    """The tie goes to [+slack], as `np.mean(voiced) >= 0.5` sends it;
    one frame short of half is [+stiff]."""
    inside = {n: slice(10 * n, 10 * n + k)
              for n, k in enumerate((2, 4, 6, 3, 5))}
    half = {f for w in inside.values()
            for f in range(w.start, w.start + (w.stop - w.start + 1) // 2)}
    got = assert_rule_equals_oracle(monkeypatch, stub_params, inside, half)
    assert all(v == access._SLACK for v in got.values())
    short = half - {w.start for w in inside.values()}
    got = assert_rule_equals_oracle(monkeypatch, stub_params, inside, short)
    assert all(v == access._STIFF for v in got.values())


# ------------------------------------------------------------- real audio

def closure_windows(params):
    """The frames inside each non-sonorant closure-release pair that has
    any, keyed by the pair's position among the landmarks."""
    items = detect_landmarks(params.tracks).items
    out = {}
    for i in range(len(items) - 1):
        cl, rel = items[i], items[i + 1]
        if cl.kind is LandmarkKind.CLOSURE \
                and rel.kind is LandmarkKind.RELEASE \
                and rel.manner is not Manner.SONORANT:
            w = params.window(cl.time, rel.time)
            if w.start < w.stop:
                out[i] = w
    return out


def random_windows(n, rng):
    """Disjoint windows of 1 to 24 frames over n frames, the first and
    the last frame among them when the draw reaches them."""
    out, start = {}, int(rng.integers(0, 2))
    while start < n:
        k = int(rng.integers(1, 25))
        out[len(out)] = slice(start, min(start + k, n))
        start += k + int(rng.integers(0, 4))
    return out


@pytest.mark.parametrize('name', [*fixtures(), 'concatenated'])
def test_rule_equals_oracle_on_fixtures(monkeypatch, name):
    audio = (synth.utterances()[name] if name == 'concatenated'
             else fixtures()[name])
    params = parameter_frames(audio)
    rng = np.random.default_rng(len(params.tracks.times))
    for inside in (closure_windows(params),
                   random_windows(len(params.tracks.times), rng)):
        with monkeypatch.context() as m:
            assert_rule_equals_oracle(m, params, inside)


@pytest.mark.parametrize('seed', range(8))
def test_rule_equals_oracle_on_random_audio(monkeypatch, seed):
    params = parameter_frames(random_signal(seed))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        with monkeypatch.context() as m:
            assert_rule_equals_oracle(
                m, params, random_windows(len(params.tracks.times), rng))


def test_synth_closures_are_decided_by_their_middle_frames(monkeypatch):
    """The synth utterance's closures are cleanly voiced or not, so one
    call on each window's middle frames decides all six: 121 of their
    231 frames are voiced."""
    params = parameter_frames(synth.utterances()['concatenated'])
    inside = closure_windows(params)
    calls = spy_voiced(monkeypatch)
    _voicing_rule(params, inside)
    assert len(inside) == 6
    assert sum(w.stop - w.start for w in inside.values()) == 231
    assert [len(c) for c in calls] == [121]
