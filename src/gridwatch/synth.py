"""Synthetic half-hourly load generator in the raw trial wire format.

Stands in for the request-only trial data so the full pipeline can run
unattended: each meter gets a double-peaked daily shape (morning and
evening), a weekend daytime uplift, a sinusoidal seasonal term peaking in
winter, a per-meter scale factor, and truncated Gaussian noise clamped at
zero. With noise_sd = 0 every value is an exact deterministic function of
(meter, day type, day of year, slot).

Output is emitted as raw text lines (meter id, 5-digit code, kWh) so
ingestion is exercised end to end; day codes start on a Monday
so week-based splitting needs no alignment fudge.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
from typing import Iterator

import numpy as np

from .ingest import EPOCH, SLOTS_PER_DAY, MeterReading, encode_timestamp

# day code 5 = Monday 2009-01-05
DEFAULT_START_DAY_CODE = 5


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


def expected_kwh(profile: SynthProfile, scale: float, date: dt.date, slot: int) -> float:
    """Noise-free kWh for one half-hour slot of one meter."""
    t = (slot - 1) * 0.5 + 0.25  # slot midpoint in wall-clock hours
    shape = profile.base_load
    shape += profile.morning_peak * math.exp(-0.5 * ((t - profile.morning_center) / profile.peak_width) ** 2)
    shape += profile.evening_peak * math.exp(-0.5 * ((t - profile.evening_center) / profile.peak_width) ** 2)
    if date.weekday() >= 5 and 8.0 <= t <= 23.0:
        shape += profile.weekend_shift
    doy = date.timetuple().tm_yday
    seasonal = 1.0 + profile.seasonal_amplitude * math.cos(2.0 * math.pi * (doy - 15) / 365.25)
    return shape * scale * seasonal


def synth_readings(profile: SynthProfile, nb_sh: int, weeks: int,
                   seed: int) -> Iterator[MeterReading]:
    """Yield readings for nb_sh meters over the given number of weeks."""
    if nb_sh < 1:
        raise ValueError("nb_sh must be >= 1")
    if weeks < 1:
        raise ValueError("weeks must be >= 1")
    n_days = weeks * 7
    for meter_id in range(1, nb_sh + 1):
        scale = meter_scale(profile, seed, meter_id)
        for day_code in range(DEFAULT_START_DAY_CODE, DEFAULT_START_DAY_CODE + n_days):
            date = EPOCH + dt.timedelta(days=day_code - 1)
            if profile.noise_sd > 0:
                rng = np.random.default_rng(np.random.SeedSequence((seed, meter_id, day_code)))
                noise = rng.normal(0.0, profile.noise_sd, SLOTS_PER_DAY)
            else:
                noise = np.zeros(SLOTS_PER_DAY)
            for slot in range(1, SLOTS_PER_DAY + 1):
                kwh = max(0.0, expected_kwh(profile, scale, date, slot) + float(noise[slot - 1]))
                yield MeterReading(meter_id, day_code, slot, kwh)


def synth_raw_lines(profile: SynthProfile, nb_sh: int, weeks: int,
                    seed: int) -> Iterator[str]:
    """The same readings rendered in the raw three-field wire format."""
    for r in synth_readings(profile, nb_sh, weeks, seed):
        yield f"{r.meter_id} {encode_timestamp(r.day_code, r.slot):05d} {r.kwh:.6f}"
