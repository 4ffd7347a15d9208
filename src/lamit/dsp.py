"""Signal-analysis substrate: spectrograms, band energies, rate of rise, F0."""
from __future__ import annotations

import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import AnalysisConfig

DB_FLOOR = -120.0

# frames per batch in the spectrogram and F0 passes: enough to amortise
# numpy's per-call cost, few enough to keep peak memory flat
BLOCK_FRAMES = 128


class DspError(ValueError):
    pass


class AudioBuffer:
    def __init__(self, samples, sample_rate: int):
        # float, nominally within [-1, 1]
        self.samples: np.ndarray = np.asarray(samples, dtype=np.float64)
        self.sample_rate = sample_rate
        if self.samples.ndim != 1:
            raise DspError('audio must be mono')
        if sample_rate < 16000:
            raise DspError(
                f'sample rate {sample_rate} Hz below the 16 kHz minimum')
        if not np.all(np.isfinite(self.samples)):
            raise DspError('audio contains non-finite samples')

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


# WAVE format tags, the extensible subformat GUID tail shared by all of
# them, and the (tag, bits) pairs that map to a sample dtype
_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = b'\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71'
_WAV_DTYPES = {(_WAVE_PCM, 16): '<i2', (_WAVE_FLOAT, 32): '<f4',
               (_WAVE_FLOAT, 64): '<f8'}


def _wav_format(body: bytes) -> tuple[int, str]:
    """(sample rate, sample dtype) from the body of a 'fmt ' chunk."""
    if len(body) < 16:
        raise DspError('fmt chunk shorter than 16 bytes')
    tag, channels, rate, _, block_align, bits = struct.unpack_from(
        '<HHIIHH', body)
    if tag == _WAVE_EXTENSIBLE:
        guid = body[24:40]
        if len(body) < 40 or not guid.endswith(_GUID_TAIL):
            raise DspError('unsupported extensible WAVE subformat')
        tag = struct.unpack_from('<I', guid)[0]
    if channels != 1:
        raise DspError(f'expected mono audio, got {channels} channels')
    dtype = _WAV_DTYPES.get((tag, bits))
    if dtype is None:
        raise DspError(f'unsupported sample format: format tag {tag}, '
                       f'{bits} bits')
    if block_align != bits // 8:
        raise DspError(f'block align {block_align} does not match '
                       f'{bits}-bit mono samples')
    return rate, dtype


def read_wav(path) -> AudioBuffer:
    """RIFF/WAVE, mono, >= 16 kHz: PCM 16-bit or IEEE float 32/64 bit,
    plain or in an extensible header.  Unknown chunks are skipped."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b'RIFF' or raw[8:12] != b'WAVE':
        raise DspError('not a RIFF/WAVE file')
    fmt = None
    pos = 12
    while True:
        if pos + 8 > len(raw):
            raise DspError('no data chunk')
        chunk = raw[pos:pos + 4]
        size = struct.unpack_from('<I', raw, pos + 4)[0]
        pos += 8
        if pos + size > len(raw):
            raise DspError(f'truncated {chunk.decode("latin-1")!r} chunk')
        if chunk == b'data':
            break
        if chunk == b'fmt ':
            fmt = _wav_format(raw[pos:pos + size])
        pos += size + size % 2             # chunks are padded to even size
    if fmt is None:
        raise DspError('data chunk before fmt chunk')
    rate, dtype = fmt
    data = np.frombuffer(raw, dtype=dtype, offset=pos,
                         count=size // np.dtype(dtype).itemsize)
    if dtype == '<i2':
        samples = data / 32768.0
    else:
        samples = data.astype(np.float64)
    return AudioBuffer(samples, rate)


def write_wav(path, audio: AudioBuffer):
    """IEEE float-32 mono, laid out as scipy.io.wavfile writes it."""
    data = audio.samples.astype('<f4')
    sr = audio.sample_rate
    fmt = struct.pack('<HHIIHHH', _WAVE_FLOAT, 1, sr, 4 * sr, 4, 32, 0)
    header = (b'RIFF' + struct.pack('<I', 50 + data.nbytes) + b'WAVE'
              + b'fmt ' + struct.pack('<I', len(fmt)) + fmt
              + b'fact' + struct.pack('<II', 4, len(data))
              + b'data' + struct.pack('<I', data.nbytes))
    Path(path).write_bytes(header + data.tobytes())


class Spectrogram(NamedTuple):
    frames: np.ndarray         # (n_frames, n_bins) log magnitude, dB
    times: np.ndarray          # frame centres, s
    frame_step: float          # the hop, s
    freq_resolution: float

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def nyquist(self) -> float:
        return self.freq_resolution * (self.frames.shape[1] - 1)


def _frame_spectra(audio: AudioBuffer, frame_length: float,
                   frame_step: float):
    """Frames of round(frame_length * sr) samples every round(frame_step *
    sr) samples: their centre times, the hop (s), the window length in
    samples and a generator of (first frame, rfft of the Hann-windowed
    frames) over blocks of BLOCK_FRAMES frames."""
    sr = audio.sample_rate
    nwin, step = np.rint(np.array([frame_length, frame_step]) * sr)
    if not nwin >= step >= 1:
        raise DspError(f'need frame_length >= frame_step >= one sample '
                       f'({1 / sr:.3g} s at {sr} Hz)')
    if len(audio.samples) == 0:
        raise DspError('empty audio')
    if nwin > len(audio.samples):
        raise DspError('frame length exceeds signal duration')
    nwin, step = int(nwin), int(step)
    frames = sliding_window_view(audio.samples, nwin)[::step]
    times = nwin / sr / 2 + step / sr * np.arange(len(frames))
    window = np.hanning(nwin)
    blocks = ((b, np.fft.rfft(frames[b:b + BLOCK_FRAMES] * window, axis=1))
              for b in range(0, len(frames), BLOCK_FRAMES))
    return times, step / sr, nwin, blocks


_DEFAULT = AnalysisConfig._field_defaults


def compute_spectrogram(audio: AudioBuffer,
                        frame_length: float = _DEFAULT['frame_length'],
                        frame_step: float = _DEFAULT['frame_step']
                        ) -> Spectrogram:
    """Hann-windowed magnitude spectrogram in dB, floored at -120 dB."""
    times, hop, nwin, blocks = _frame_spectra(audio, frame_length,
                                              frame_step)
    floor = 10 ** (DB_FLOOR / 20.0)
    db = np.empty((len(times), nwin // 2 + 1))
    for b, spec in blocks:
        db[b:b + len(spec)] = 20.0 * np.log10(np.maximum(np.abs(spec), floor))
    return Spectrogram(db, times, hop, audio.sample_rate / nwin)


class BandEnergyTracks(NamedTuple):
    bands: list[tuple[float, float]]
    energy: np.ndarray         # (n_bands, n_frames) dB
    times: np.ndarray
    frame_step: float
    # the config the tracks were measured with; the detectors read it
    cfg: AnalysisConfig = AnalysisConfig()


def _band_bins(bands, freq_resolution: float, n_bins: int) -> list[slice]:
    """The bins of each band (lo <= bin frequency <= hi), as slices."""
    nyq = freq_resolution * (n_bins - 1)
    for lo, hi in bands:
        if not 0 <= lo < hi:
            raise DspError(f'degenerate band ({lo}, {hi})')
        if hi > nyq + 1e-9:
            raise DspError(f'band ({lo}, {hi}) beyond Nyquist {nyq:.0f} Hz')
    freqs = freq_resolution * np.arange(n_bins)
    out = []
    for lo, hi in bands:
        inside = np.flatnonzero((freqs >= lo) & (freqs <= hi))
        if not inside.size:
            raise DspError(f'band ({lo}, {hi}) contains no bins')
        out.append(slice(int(inside[0]), int(inside[-1]) + 1))
    return out


def _power_to_db(power: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(power, 10 ** (DB_FLOOR / 10.0)))


def band_energies(spec: Spectrogram,
                  bands: list[tuple[float, float]]) -> BandEnergyTracks:
    """Per-frame energy of each band: bin powers summed, then to dB."""
    bins = _band_bins(bands, spec.freq_resolution, spec.frames.shape[1])
    power = 10.0 ** (spec.frames / 10.0)
    energy = np.vstack([_power_to_db(power[:, b].sum(axis=1)) for b in bins])
    return BandEnergyTracks(list(bands), energy, spec.times, spec.frame_step)


def rate_of_rise(track: np.ndarray, window: float,
                 frame_step: float) -> np.ndarray:
    """Centered difference of the smoothed track, in dB/s.

    `window` is the moving-average smoothing span; edges are padded with
    the end values so the output length equals the input length.  A
    window under two frame steps, or over twice the track (so that one
    edge's padding would outgrow it), is a DspError.
    """
    track = np.asarray(track, dtype=np.float64)
    n = int(round(window / frame_step))
    if n < 2:
        raise DspError(f'window {window}s shorter than two frame steps')
    if n % 2 == 0:
        n += 1
    if len(track) < 3:
        return np.zeros_like(track)
    if n // 2 > len(track):     # checked before the kernel is allocated
        raise DspError(f'rate-of-rise window {window:g}s longer than twice '
                       f'the track ({len(track)} frames)')
    kernel = np.ones(n) / n
    pad = np.pad(track, n // 2, mode='edge')
    smooth = np.convolve(pad, kernel, mode='valid')
    out = np.zeros_like(track)
    out[1:-1] = (smooth[2:] - smooth[:-2]) / (2.0 * frame_step)
    return out


def _f0_lags(sr: int, cfg: AnalysisConfig) -> tuple[int, int, int]:
    """(frame samples, shortest lag, longest lag) of the F0 search at
    sample rate sr; DspError when fewer than three lags are left."""
    nwin = int(round(cfg.f0_frame_length * sr))
    lag_min = int(sr / cfg.f0_max)
    lag_max = min(int(np.ceil(sr / cfg.f0_min)), nwin - 2)
    if lag_max - lag_min < 2:
        raise DspError(
            f'no F0 lag range at {sr} Hz: f0_min {cfg.f0_min:g} Hz, '
            f'f0_max {cfg.f0_max:g} Hz, f0_frame_length '
            f'{cfg.f0_frame_length:g} s')
    return nwin, lag_min, lag_max


def estimate_f0(audio: AudioBuffer, times: np.ndarray,
                cfg: AnalysisConfig | None = None) -> np.ndarray:
    """Autocorrelation F0 per frame; NaN where unvoiced, and everywhere
    when the audio is shorter than one F0 frame.  DspError when the
    config leaves fewer than three lags to search at this sample rate.

    The frame for time t starts at sample rint(t * sr) - nwin // 2,
    clipped to the signal.  Each block of frames, mean removed, gets its
    autocorrelation from one rfft/irfft pair, zero-padded to a power of
    two of at least nwin + lag_max samples so that no lag up to lag_max
    wraps around.
    """
    cfg = cfg or AnalysisConfig()
    sr = audio.sample_rate
    nwin, lag_min, lag_max = _f0_lags(sr, cfg)
    x = audio.samples
    times = np.asarray(times, dtype=np.float64)
    out = np.full(len(times), np.nan)
    if len(x) < nwin:
        return out
    starts = np.clip(np.rint(times * sr).astype(np.intp) - nwin // 2,
                     0, len(x) - nwin)
    frames = sliding_window_view(x, nwin)
    nfft = 1 << (nwin + lag_max - 1).bit_length()
    for b in range(0, len(times), BLOCK_FRAMES):
        block = frames[starts[b:b + BLOCK_FRAMES]]
        block = block - block.mean(axis=1, keepdims=True)
        spec = np.fft.rfft(block, nfft, axis=1)
        ac = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft, axis=1)
        out[b:b + BLOCK_FRAMES] = _f0_from_autocorrelation(
            ac[:, lag_min:lag_max + 1], np.einsum('ij,ij->i', block, block),
            lag_min, sr, cfg)
    return out


def _f0_from_autocorrelation(seg: np.ndarray, e0: np.ndarray, lag_min: int,
                             sr: int, cfg: AnalysisConfig) -> np.ndarray:
    """F0 per row of seg, the autocorrelation over lags lag_min..lag_max
    of frames with energies e0; NaN where a frame is unvoiced."""
    energetic = e0 >= 1e-12
    seg = seg / np.where(energetic, e0, 1.0)[:, None]
    best = seg.max(axis=1)
    # earliest near-maximal lag, to avoid subharmonic octave errors
    k = np.argmax(seg >= 0.9 * best[:, None], axis=1)
    # parabolic interpolation around the peak
    rows = np.arange(len(seg))
    a = seg[rows, np.maximum(k - 1, 0)]
    b = seg[rows, k]
    c = seg[rows, np.minimum(k + 1, seg.shape[1] - 1)]
    denom = a - 2 * b + c
    refine = (k > 0) & (k < seg.shape[1] - 1) & (np.abs(denom) > 1e-12)
    shift = 0.5 * (a - c) / np.where(refine, denom, 1.0)
    f0 = sr / ((lag_min + k) + np.where(refine, shift, 0.0))
    voiced = (energetic & (best >= cfg.f0_voicing_threshold)
              & (cfg.f0_min <= f0) & (f0 <= cfg.f0_max))
    return np.where(voiced, f0, np.nan)


# the standard band stack, and each band's row in it
STANDARD_BANDS = ('low_band', 'f1_band', 'mid_band', 'high_band')
LOW, F1, MID, HIGH = range(4)


def spectral_tilt(tracks: BandEnergyTracks) -> np.ndarray:
    """Least-squares spectral slope in dB/octave over the standard
    stack's f1, mid and high bands."""
    rows = [F1, MID, HIGH]
    centers = np.array([0.5 * (tracks.bands[i][0] + tracks.bands[i][1])
                        for i in rows])
    x = np.log2(centers)
    x = x - x.mean()
    y = tracks.energy[rows, :]
    return (x @ (y - y.mean(axis=0))) / float(x @ x)


class ParameterTrack(NamedTuple):
    """Cue parameters as arrays, one value per band-track frame, and the
    audio they were measured on, for the cues computed only on demand."""
    tracks: BandEnergyTracks   # the standard bands: low, f1, mid, high
    tilt: np.ndarray           # dB/octave over the f1, mid and high bands
    audio: AudioBuffer

    @property
    def cfg(self) -> AnalysisConfig:
        """The config the tracks were measured with."""
        return self.tracks.cfg

    def at(self, t: float) -> int:
        """Index of the frame nearest to t."""
        times = self.tracks.times
        i = int(np.clip(np.searchsorted(times, t), 0, len(times) - 1))
        if i > 0 and abs(times[i - 1] - t) < abs(times[i] - t):
            i -= 1
        return i

    def window(self, t0: float, t1: float) -> slice:
        """The frames with t0 <= time <= t1."""
        times = self.tracks.times
        return slice(int(np.searchsorted(times, t0, 'left')),
                     int(np.searchsorted(times, t1, 'right')))

    def voiced(self, frames) -> np.ndarray:
        """Whether each of the given frame indices is voiced, from one
        `estimate_f0` call on those frames' times only."""
        times = self.tracks.times[np.asarray(frames, dtype=np.intp)]
        return ~np.isnan(estimate_f0(self.audio, times, self.cfg))


def standard_tracks(audio: AudioBuffer,
                    cfg: AnalysisConfig | None = None) -> BandEnergyTracks:
    """The standard band energies, as `band_energies(compute_spectrogram(
    ...))` gives them (bands clipped at Nyquist), but summed from each
    block's bin powers: no dB spectrogram is built.  The tracks keep
    `cfg`, so that the landmark detectors apply its thresholds."""
    cfg = cfg or AnalysisConfig()
    times, hop, nwin, blocks = _frame_spectra(audio, cfg.frame_length,
                                              cfg.frame_step)
    resolution = audio.sample_rate / nwin
    nyq = resolution * (nwin // 2)
    bands = []
    for name in STANDARD_BANDS:
        lo, hi = getattr(cfg, name)
        bands.append((lo, min(hi, nyq)))
    bins = _band_bins(bands, resolution, nwin // 2 + 1)
    power = np.empty((len(bands), len(times)))
    for b, spec in blocks:
        bin_power = np.maximum(spec.real ** 2 + spec.imag ** 2,
                               10 ** (DB_FLOOR / 10.0))
        for row, band in zip(power, bins):
            row[b:b + len(spec)] = bin_power[:, band].sum(axis=1)
    return BandEnergyTracks(bands, _power_to_db(power), times, hop, cfg)


def parameter_frames(audio: AudioBuffer,
                     cfg: AnalysisConfig | None = None) -> ParameterTrack:
    """Per-frame acoustic parameters used for cue extraction: the standard
    band tracks and spectral tilt on the spectrogram's frames.  Voicing
    is computed later, only on the frames a cue rule reads, so its F0
    lag range is checked here, before any analysis."""
    cfg = cfg or AnalysisConfig()
    _f0_lags(audio.sample_rate, cfg)
    tracks = standard_tracks(audio, cfg)
    return ParameterTrack(tracks, spectral_tilt(tracks), audio)
