"""Deterministic synthetic signals with known landmark ground truth."""
import numpy as np

from lamit.dsp import AudioBuffer
from lamit.textgrid import AnnotationDocument, Interval, IntervalTier

SR = 16000


def _resonance_weights(freqs, formants, rolloff_db_oct=-12.0):
    """Formant resonances over a glottal-like spectral rolloff."""
    w = np.zeros_like(freqs)
    for fc in formants:
        bw = 90.0 + 0.06 * fc
        w += 1.0 / (1.0 + ((freqs - fc) / bw) ** 2)
    w += 0.003
    w *= (freqs / freqs[0]) ** (rolloff_db_oct / 6.02)
    return w


def harmonic_source(dur, f0=120.0, formants=(700.0, 1200.0, 2600.0),
                    amp=0.3, sr=SR, highcut=None):
    """Sum of harmonics with formant-shaped amplitudes; no envelope.

    highcut=(fc, att_db) attenuates all harmonics above fc, keeping the
    ones below exactly as in the unfiltered signal (for murmur splices).
    """
    n = int(round(dur * sr))
    t = np.arange(n) / sr
    ks = np.arange(1, int((sr / 2 - 200) // f0) + 1)
    freqs = ks * f0
    weights = _resonance_weights(freqs, formants)
    sig = np.zeros(n)
    ref = np.zeros(n)
    for k, f, w in zip(ks, freqs, weights):
        component = w * np.sin(2 * np.pi * f * t + 0.7 * k)
        ref += component
        if highcut is not None and f > highcut[0]:
            component = component * 10 ** (highcut[1] / 20.0)
        sig += component
    return amp * sig / np.max(np.abs(ref))


def env_from_db_points(n, points, sr=SR):
    """Envelope through (time, dB) control points, half-cosine segments."""
    times = np.arange(n) / sr
    db = np.zeros(n)
    for (t0, d0), (t1, d1) in zip(points, points[1:]):
        mask = (times >= t0) & (times <= t1)
        x = (times[mask] - t0) / max(t1 - t0, 1e-9)
        db[mask] = d0 + (d1 - d0) * 0.5 * (1 - np.cos(np.pi * x))
    db[times < points[0][0]] = points[0][1]
    db[times > points[-1][0]] = points[-1][1]
    return 10 ** (db / 20.0)


def pulse_train(dur, f0=120.0, amp=0.5, sr=SR):
    n = int(round(dur * sr))
    sig = np.zeros(n)
    period = sr / f0
    k = 0
    while int(round(k * period)) < n:
        sig[int(round(k * period))] = amp
        k += 1
    return sig


def white_noise(dur, amp=0.3, sr=SR, seed=0):
    rng = np.random.default_rng(seed)
    return amp * rng.standard_normal(int(round(dur * sr)))


def frication_noise(dur, amp=0.3, sr=SR, seed=0, cutoff=1500.0):
    """High-passed noise: the spectral signature of a strident."""
    raw = white_noise(dur, 1.0, sr, seed)
    spec = np.fft.rfft(raw)
    freqs = np.fft.rfftfreq(len(raw), 1 / sr)
    spec[freqs < cutoff] *= 10 ** (-40 / 20.0)
    shaped = np.fft.irfft(spec, n=len(raw))
    return amp * shaped / np.max(np.abs(shaped))


def silence(dur, sr=SR):
    return np.zeros(int(round(dur * sr)))


def smoothstep_edges(n, rise, fall, sr=SR):
    """Unit envelope with cosine rise/fall of the given durations."""
    env = np.ones(n)
    nr = int(round(rise * sr))
    nf = int(round(fall * sr))
    if nr:
        x = np.linspace(0, np.pi, nr)
        env[:nr] = 0.5 * (1 - np.cos(x))
    if nf:
        x = np.linspace(0, np.pi, nf)
        env[n - nf:] = 0.5 * (1 + np.cos(x))
    return env


def buf(sig):
    return AudioBuffer(np.asarray(sig), SR)


# ------------------------------------------------------------- fixtures
#
# Utterance-internal fixtures start and end mid-vowel (at the buffer
# edge) rather than rising out of silence: an amplitude rise from zero
# is arbitrarily steep in dB and would read as a spurious consonant.
# Gentle dB arches give the vowel detector its low-band peaks.

def arch_db(n, depth_db, center=None):
    """Parabolic gain in dB: 0 at the center, -depth at the edges."""
    i = np.arange(n)
    c = (n - 1) / 2 if center is None else center
    half = max(c, n - 1 - c)
    return 10 ** (-depth_db * ((i - c) / half) ** 2 / 20.0)


def steady_vowel(dur=0.4, **kw):
    """Constant vowel, no envelope at all."""
    return buf(harmonic_source(dur, **kw))


def vowel_rise_fall(dur=0.2, **kw):
    """Isolated vowel with a sinusoidal amplitude arch; peak at dur/2."""
    sig = harmonic_source(dur, **kw)
    n = len(sig)
    env = np.sin(np.pi * (np.arange(n) + 0.5) / n)
    return buf(sig * env), dur / 2


def two_vowels(vdur=0.25, gap=0.1):
    v1, _ = vowel_rise_fall(vdur)
    v2, _ = vowel_rise_fall(vdur)
    sig = np.concatenate([v1.samples, silence(gap), v2.samples])
    return buf(sig), (vdur / 2, vdur + gap + vdur / 2)


def cv_syllable(lead=0.2, vdur=0.5):
    """Silence, abrupt vowel onset (the release), vowel to buffer end."""
    v = harmonic_source(vdur) * arch_db(int(round(vdur * SR)), 12.0)
    ramp = int(round(0.002 * SR))
    v[:ramp] *= np.linspace(0, 1, ramp)
    sig = np.concatenate([silence(lead), v])
    return buf(sig), lead, lead + vdur / 2


def vcv_stop(vdur=0.3, gap=0.06):
    """Two arched vowels around a 60 ms silence gap with abrupt edges."""
    nv = int(round(vdur * SR))
    ramp = int(round(0.004 * SR))
    v1 = harmonic_source(vdur) * arch_db(nv, 14.0)
    v1[-ramp:] *= np.linspace(1, 0, ramp)
    v2 = harmonic_source(vdur) * arch_db(nv, 14.0)
    v2[:ramp] *= np.linspace(0, 1, ramp)
    sig = np.concatenate([v1, silence(gap), v2])
    return buf(sig), (vdur, vdur + gap)


def noise_onset(lead=0.5, ndur=0.3, seed=3):
    """Silence then sustained broadband noise to the buffer end."""
    noise = white_noise(ndur, amp=0.3, seed=seed)
    ramp = int(round(0.002 * SR))
    noise[:ramp] *= np.linspace(0, 1, ramp)
    sig = np.concatenate([silence(lead), noise])
    return buf(sig), lead


def awa_glide(vdur=0.5, depth_db=10.0):
    """Vowel with a smooth mid dip: a glide, not a consonant."""
    sig = harmonic_source(vdur)
    n = len(sig)
    center = vdur / 2
    env = env_from_db_points(n, [
        (0.0, -16.0), (vdur * 0.25, 0.0), (center, -depth_db),
        (vdur * 0.75, 0.0), (vdur, -16.0)])
    return buf(sig * env), center


def apa_stop(vdur=0.5, closure=0.09):
    """Vowel with an abrupt deep closure: consonant, not glide."""
    sig = harmonic_source(vdur)
    n = len(sig)
    c0 = int(round((vdur / 2 - closure / 2) * SR))
    c1 = int(round((vdur / 2 + closure / 2) * SR))
    env = np.ones(n)
    ramp = int(round(0.004 * SR))
    env[c0:c1] = 10 ** (-40 / 20.0)
    env[c0 - ramp:c0] = np.linspace(1, 10 ** (-40 / 20.0), ramp)
    env[c1:c1 + ramp] = np.linspace(10 ** (-40 / 20.0), 1, ramp)
    return buf(sig * env), vdur / 2


def ama_nasal(vdur=0.25, mdur=0.15):
    """Vowel-murmur-vowel: low band continuous, mid/high band gated.

    The murmur keeps the vowel's harmonics below 400 Hz untouched and
    attenuates the rest, so the low band runs smoothly through it.
    """
    total = 2 * vdur + mdur
    full = harmonic_source(total)
    murmur = harmonic_source(total, highcut=(400.0, -25.0))
    n = len(full)
    t = np.arange(n) / SR
    ramp = 0.004
    m = np.clip((t - vdur) / ramp, 0, 1) * np.clip((vdur + mdur - t) / ramp,
                                                   0, 1)
    m = np.clip(m, 0, 1)
    sig = full * (1 - m) + murmur * m
    # vowel arches on both sides, murmur held at the arch edge level
    env = env_from_db_points(n, [
        (0.0, -14.0), (vdur / 2, 0.0), (vdur, -10.0),
        (vdur + mdur, -10.0), (vdur + mdur + vdur / 2, 0.0), (total, -14.0)])
    return buf(sig * env), (vdur, vdur + mdur)


def fricative_vcv(vdur=0.25, fdur=0.18, seed=5, noise_amp=0.25):
    """Vowel, sustained strident noise, vowel."""
    nv = int(round(vdur * SR))
    ramp = int(round(0.004 * SR))
    v1 = harmonic_source(vdur) * arch_db(nv, 14.0)
    v1[-ramp:] *= np.linspace(1, 0, ramp)
    fric = frication_noise(fdur, amp=noise_amp, seed=seed)
    v2 = harmonic_source(vdur) * arch_db(nv, 14.0)
    v2[:ramp] *= np.linspace(0, 1, ramp)
    sig = np.concatenate([v1, fric, v2])
    return buf(sig), (vdur, vdur + fdur)


# ---------------------------------------------------------- utterances

WORDS = ['MAMMA', 'BENE', 'CASA', 'PAPÀ', 'TI', 'VOGLIONO', 'E', 'ZOO']


def utterances():
    """The fixtures above by name, and all of them concatenated."""
    def first(x):
        return x[0] if isinstance(x, tuple) else x
    out = {
        'steady_vowel': steady_vowel(),
        'vowel_rise_fall': first(vowel_rise_fall(0.3)),
        'two_vowels': first(two_vowels()),
        'cv_syllable': first(cv_syllable()),
        'vcv_stop': first(vcv_stop()),
        'noise_onset': first(noise_onset()),
        'awa_glide': first(awa_glide()),
        'apa_stop': first(apa_stop()),
        'ama_nasal': first(ama_nasal()),
        'fricative_vcv': first(fricative_vcv()),
    }
    out['concatenated'] = buf(np.concatenate(
        [a.samples for a in out.values()]))
    return out


def word_doc(duration, step=0.15):
    """A Word tier of contiguous `step`-second intervals; every third is
    unlabelled, so segments there become orphans."""
    edges = list(np.arange(0.0, duration, step)) + [duration]
    items = [Interval(float(a), float(b),
                      '' if i % 3 == 2 else WORDS[i % len(WORDS)])
             for i, (a, b) in enumerate(zip(edges, edges[1:])) if b > a]
    return AnnotationDocument(duration, [IntervalTier('Word', items)])
