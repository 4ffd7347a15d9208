"""Analysis parameters with file overrides (key = value format)."""
from __future__ import annotations

import math
from typing import NamedTuple


class ConfigError(ValueError):
    pass


class AnalysisConfig(NamedTuple):
    # front-end framing
    frame_length: float = 0.025
    frame_step: float = 0.005
    # analysis bands (Hz); the f1 band proxies first-formant strength
    low_band: tuple[float, float] = (0.0, 400.0)
    f1_band: tuple[float, float] = (300.0, 900.0)
    mid_band: tuple[float, float] = (800.0, 2500.0)
    high_band: tuple[float, float] = (2500.0, 8000.0)
    # rate-of-rise smoothing window (s)
    ror_window: float = 0.020
    # F0 tracking
    f0_frame_length: float = 0.040
    f0_min: float = 50.0
    f0_max: float = 500.0
    f0_voicing_threshold: float = 0.30
    # landmark detection thresholds
    vowel_prominence_db: float = 9.0       # P_v
    vowel_min_separation: float = 0.060    # D_v
    glide_dip_db: float = 6.0              # P_g
    glide_window: float = 0.150            # W_g
    ror_threshold: float = 300.0           # R_c, dB/s
    sonorant_window_db: float = 10.0       # S_son
    noise_min_duration: float = 0.030      # N_ms
    noise_dominance_db: float = 0.0        # high minus low band for frication
    merge_window: float = 0.015            # T_merge
    # utterance energy gate: active within gate_db of the peak
    gate_db: float = 60.0
    gate_min_duration: float = 0.100
    # cue-rule thresholds (articulator-bound feature stand-ins)
    open_vowel_db: float = -6.0      # f1 minus low band >= this -> [+low]
    close_vowel_db: float = -13.0    # f1 minus low band <= this -> [+high]
    back_tilt_db: float = -11.0      # spectral tilt (dB/oct) <= this -> [+back]
    strident_margin_db: float = 0.0
    # matcher weights
    w_free: float = 2.0
    w_bound: float = 1.0
    unspecified_cost: float = 0.25


# the analysis bands, each a (low, high) pair in Hz
_TUPLE_FIELDS = tuple(name for name, v in
                      AnalysisConfig._field_defaults.items()
                      if isinstance(v, tuple))

# durations turned into frame counts, F0 limits used as divisors, the
# merge window, which keeps two landmarks off one frame, and the gate's
# depth below the peak, within which no frame would be active at <= 0
_POSITIVE_FIELDS = {'frame_length', 'frame_step', 'ror_window',
                    'f0_frame_length', 'f0_min', 'f0_max',
                    'vowel_min_separation', 'noise_min_duration',
                    'gate_min_duration', 'merge_window', 'gate_db'}


def parse_config_values(text: str) -> dict:
    """The values a config file sets, by name; each line is checked on
    its own (known key, finite value, positive where it must be)."""
    known = set(AnalysisConfig._fields)
    changes = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        if '=' not in line:
            raise ConfigError(f'line {lineno}: expected key = value')
        key, _, val = line.partition('=')
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ConfigError(f'line {lineno}: unknown parameter {key!r}')
        try:
            if key in _TUPLE_FIELDS:
                lo, hi = (float(x) for x in val.replace(',', ' ').split())
                value = (lo, hi)
            else:
                value = float(val)
        except ValueError:
            raise ConfigError(f'line {lineno}: bad value {val!r}') from None
        numbers = value if key in _TUPLE_FIELDS else (value,)
        if not all(math.isfinite(x) for x in numbers):
            raise ConfigError(f'line {lineno}: {key} must be finite, '
                              f'got {val!r}')
        if key in _POSITIVE_FIELDS and not value > 0:
            raise ConfigError(f'line {lineno}: {key} must be positive, '
                              f'got {val!r}')
        changes[key] = value
    return changes


def weight_problem(w_free: float, w_bound: float,
                   unspecified_cost: float) -> str | None:
    """What is wrong with these matcher weights, or None if nothing:
    they must be finite, with w_free >= w_bound > 0 and
    unspecified_cost >= 0."""
    if not all(math.isfinite(x) for x in (w_free, w_bound,
                                          unspecified_cost)):
        return 'weights must be finite'
    if not w_free >= w_bound > 0:
        return 'need w_free >= w_bound > 0'
    if unspecified_cost < 0:
        return 'unspecified_cost must be non-negative'
    return None


def check_config(cfg: AnalysisConfig) -> AnalysisConfig:
    """cfg, once the values that constrain each other agree.  Band
    edges are checked against the sample rate only when audio is read."""
    for name in _TUPLE_FIELDS:
        lo, hi = getattr(cfg, name)
        if not 0 <= lo < hi:
            raise ConfigError(f'{name} ({lo:g}, {hi:g}) must have '
                              f'0 <= low < high')
    if not cfg.f0_min < cfg.f0_max:
        raise ConfigError(f'f0_min ({cfg.f0_min:g}) must be below f0_max '
                          f'({cfg.f0_max:g})')
    problem = weight_problem(cfg.w_free, cfg.w_bound, cfg.unspecified_cost)
    if problem:
        raise ConfigError(problem)
    return cfg


def render_config(cfg: AnalysisConfig) -> str:
    lines = []
    for name, v in zip(cfg._fields, cfg):
        if isinstance(v, tuple):
            v = f'{v[0]:g} {v[1]:g}'
        else:
            v = f'{v:g}'
        lines.append(f'{name} = {v}')
    return '\n'.join(lines) + '\n'
