"""Synthetic half-hourly load generator, as columns or raw trial wire lines.

Stands in for the request-only trial data so the full pipeline can run
unattended: each meter gets a double-peaked daily shape (morning and
evening), a weekend daytime uplift, a sinusoidal seasonal term peaking in
winter, a per-meter scale factor, and truncated Gaussian noise clamped at
zero. With noise_sd = 0 every value is an exact deterministic function of
(meter, day type, day of year, slot).

``synth_columns`` gives the readings as numpy columns; ``synth_raw_lines``
renders them in the raw wire format (meter id, 5-digit code, kWh to six
decimals) for ``gridwatch ingest`` and the raw-file paths. A synthetic
scenario skips that text and rounds the columns with ``ingest.wire_kwh``
to the values the lines parse back to. Day codes start on a Monday so
week-based splitting needs no alignment fudge, and end by code 999, the
last day a raw timestamp holds (``MAX_WEEKS``).

Values are computed one meter at a time as a (day, slot) array: the
per-(weekend, slot) shape and the per-day seasonal factor come from the
same scalar ``math`` calls as ``expected_kwh`` and are multiplied in the
same order, so every value equals the scalar formula bit for bit.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
from typing import Iterator

import numpy as np

from .ingest import SLOTS_PER_DAY, MeterReading, Readings, date_of, encode_timestamp

# day code 5 = Monday 2009-01-05
DEFAULT_START_DAY_CODE = 5
# a raw timestamp holds three day-code digits, so the last day is code 999
MAX_WEEKS = (999 - DEFAULT_START_DAY_CODE + 1) // 7


@dataclasses.dataclass(frozen=True)
class SynthProfile:
    """Shape parameters; amplitudes are in kWh per half-hour slot."""

    base_load: float = 0.18
    morning_peak: float = 0.42
    evening_peak: float = 0.60
    morning_center: float = 8.0     # wall-clock hours
    evening_center: float = 20.0
    peak_width: float = 1.8         # gaussian width, hours
    weekend_shift: float = 0.08     # daytime uplift on weekends
    seasonal_amplitude: float = 0.10  # relative, peaks mid-winter
    noise_sd: float = 0.035
    meter_spread: float = 0.25      # per-meter scale in [1-spread, 1+spread]


def meter_scale(profile: SynthProfile, seed: int, meter_id: int) -> float:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CA1E, meter_id)))
    return 1.0 + profile.meter_spread * (2.0 * float(rng.random()) - 1.0)


def _shape(profile: SynthProfile, weekend: bool, slot: int) -> float:
    """Noise-free daily shape of one slot, before the meter and season factors."""
    t = (slot - 1) * 0.5 + 0.25  # slot midpoint in wall-clock hours
    shape = profile.base_load
    shape += profile.morning_peak * math.exp(-0.5 * ((t - profile.morning_center) / profile.peak_width) ** 2)
    shape += profile.evening_peak * math.exp(-0.5 * ((t - profile.evening_center) / profile.peak_width) ** 2)
    if weekend and 8.0 <= t <= 23.0:
        shape += profile.weekend_shift
    return shape


def _seasonal(profile: SynthProfile, date: dt.date) -> float:
    """Seasonal factor of one day, peaking mid-winter."""
    doy = date.timetuple().tm_yday
    return 1.0 + profile.seasonal_amplitude * math.cos(2.0 * math.pi * (doy - 15) / 365.25)


def expected_kwh(profile: SynthProfile, scale: float, date: dt.date, slot: int) -> float:
    """Noise-free kWh for one half-hour slot of one meter."""
    return _shape(profile, date.weekday() >= 5, slot) * scale * _seasonal(profile, date)


def _day_codes(nb_sh: int, weeks: int) -> list[int]:
    """The synthesized day codes, once the requested size is checked."""
    if nb_sh < 1:
        raise ValueError("nb_sh must be >= 1")
    if weeks < 1:
        raise ValueError("weeks must be >= 1")
    if weeks > MAX_WEEKS:
        raise ValueError(f"weeks must be <= {MAX_WEEKS} (day codes end at 999), not {weeks}")
    return list(range(DEFAULT_START_DAY_CODE, DEFAULT_START_DAY_CODE + weeks * 7))


def _meter_kwh(profile: SynthProfile, seed: int, meter_id: int,
               day_codes: list[int]) -> np.ndarray:
    """One meter's kWh as a (day, slot) array.

    Each entry is ``max(0, expected_kwh + noise)`` with the same float
    operations in the same order: the shape and seasonal factors come from
    the scalar helpers of ``expected_kwh``, once per (weekend, slot) and once
    per day, and are multiplied elementwise.
    """
    dates = [date_of(d) for d in day_codes]
    shapes = np.array([[_shape(profile, weekend, slot) for slot in range(1, SLOTS_PER_DAY + 1)]
                       for weekend in (False, True)])
    weekend = np.array([date.weekday() >= 5 for date in dates], dtype=np.intp)
    seasonal = np.array([_seasonal(profile, date) for date in dates])
    kwh = shapes[weekend] * meter_scale(profile, seed, meter_id) * seasonal[:, None]
    if profile.noise_sd > 0:
        kwh += np.array([np.random.default_rng(np.random.SeedSequence((seed, meter_id, d)))
                         .normal(0.0, profile.noise_sd, SLOTS_PER_DAY) for d in day_codes])
    return np.where(kwh > 0.0, kwh, 0.0)


def synth_columns(profile: SynthProfile, nb_sh: int, weeks: int, seed: int) -> Readings:
    """Readings for nb_sh meters over the given number of weeks, as columns,
    ordered by meter, day and slot."""
    day_codes = _day_codes(nb_sh, weeks)
    per_meter = SLOTS_PER_DAY * len(day_codes)
    return Readings(
        np.repeat(np.arange(1, nb_sh + 1, dtype=np.int64), per_meter),
        np.tile(np.repeat(np.array(day_codes, dtype=np.int64), SLOTS_PER_DAY), nb_sh),
        np.tile(np.arange(1, SLOTS_PER_DAY + 1, dtype=np.int64), nb_sh * len(day_codes)),
        np.concatenate([_meter_kwh(profile, seed, m, day_codes).ravel()
                        for m in range(1, nb_sh + 1)]),
    )


def synth_readings(profile: SynthProfile, nb_sh: int, weeks: int,
                   seed: int) -> Iterator[MeterReading]:
    """Yield readings for nb_sh meters over the given number of weeks."""
    yield from synth_columns(profile, nb_sh, weeks, seed)


def synth_raw_lines(profile: SynthProfile, nb_sh: int, weeks: int,
                    seed: int) -> Iterator[str]:
    """The same readings rendered in the raw three-field wire format, one
    meter at a time."""
    day_codes = _day_codes(nb_sh, weeks)
    codes = [f"{encode_timestamp(d, slot):05d}" for d in day_codes
             for slot in range(1, SLOTS_PER_DAY + 1)]
    for meter_id in range(1, nb_sh + 1):
        kwh = _meter_kwh(profile, seed, meter_id, day_codes).ravel().tolist()
        yield from [f"{meter_id} {code} {k:.6f}" for code, k in zip(codes, kwh)]
