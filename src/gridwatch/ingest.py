"""Raw meter-data ingestion: decoding, attribute derivation, dataset building.

Raw trial files carry one half-hourly reading per line with three fields:
a meter id, a five-digit encoded timestamp (three day-code digits, day 1 =
2009-01-01, followed by two slot digits, slot 1 = 00:00:00-00:29:59), and a
kWh value. This module decodes those lines, derives the calendar attributes
the consumption models are trained on (hour/slot, day period, day type,
month, season), aggregates half-hours into per-home hourly datasets and
neighborhood half-hourly totals, removes outliers with a per-(month,
interval) three-sigma rule, and splits datasets into training and validation
portions by whole weeks (one validation week per four-week block).

Readings and datasets are held as numpy columns: ``Readings`` has meter id,
day code, slot and kWh; ``Dataset`` has day code, interval and kWh. The
calendar attributes are never stored: ``Dataset.calendar`` computes month
and day type by ``datetime64`` arithmetic from day code 0 (``_DAY0``), and
day period and season from tables built once from the scalar rules that
``feature_vector`` uses (``_day_period``, ``season_of_month``).

``parse_raw`` reads its input in chunks. A chunk whose every line is
canonical (``<digits> <5 digits> <digits>.<digits>``, one space apart, an
optional line break at the end) is split and converted in bulk with the
same ``int``/``float`` calls as the per-line path; a chunk with any other
line, or with a meter id, slot or day code the per-line checks would
reject, goes through the per-line path, which reports every bad line as a
``ParseIssue`` with its line number. ``wire_kwh`` gives, without any text,
the kWh that a value's six-decimal raw line parses back to.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import functools
import gzip
import itertools
import logging
import math
import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolation, RangeError, SplitError, UserInputError

log = logging.getLogger(__name__)

EPOCH = dt.date(2009, 1, 1)  # day code 1
_DAY0 = np.datetime64(EPOCH, "D") - 1   # day code 0: _DAY0 + code is a datetime64[D]
SLOTS_PER_DAY = 48
HOURS_PER_DAY = 24

# Wall-clock hours counted as "day" for the day/night attribute (inclusive).
DAY_START_HOUR = 7
DAY_END_HOUR = 22

SEASONS = ("winter", "spring", "summer", "autumn")
# Column codes of the two binary attributes: the index into these tuples.
DAY_PERIODS = ("night", "day")
DAY_TYPES = ("weekday", "weekend")

# Attribute names in tie-breaking order for split selection. "interval" holds
# the hour index (1..24) for SH datasets and the slot index (1..48) for NBH.
SH_ATTRIBUTES = ("interval", "day_type", "month", "season")
NBH_ATTRIBUTES = ("interval", "day_period", "day_type", "month", "season")

DATASET_CSV_HEADER = [
    "level", "meter_id", "date", "interval", "hour_or_slot",
    "day_period", "day_type", "month", "season", "consumption_kwh",
]

_MAX_METER_ID = 2 ** 63 - 1   # meter ids are held as int64
# Lines per parse chunk; a chunk with one non-canonical line is parsed line by line.
_CHUNK_LINES = 8192
# Canonical raw line: at most 15 meter digits, so the id fits the int64
# column, and a kWh of plain digits around one point, so it is finite and
# non-negative.
_CANONICAL_LINE = re.compile(r"[0-9]{1,15} [0-9]{5} [0-9]{1,20}\.[0-9]{1,20}\r?\n?")


@dataclasses.dataclass(frozen=True, slots=True)
class MeterReading:
    """One decoded half-hourly consumption sample (slotted: callers that
    iterate ``Readings`` may hold hundreds of thousands of them)."""

    meter_id: int
    day_code: int
    slot: int
    kwh: float

    @property
    def date(self) -> dt.date:
        return date_of(self.day_code)


class FeatureVector(NamedTuple):
    """One model instance: calendar attributes plus the consumption target.

    A named tuple: immutable, hashable, cheap to build once per streamed
    observation, and equal to the plain tuple of its fields in this order.
    Its interval, day period, day type and month give its calendar key
    code; its season is its month's, as ``feature_vector`` makes it."""

    date: dt.date
    interval: int        # hour 1..24 (SH) or slot 1..48 (NBH)
    day_period: str      # "day" | "night"
    day_type: str        # "weekday" | "weekend"
    month: int           # 1..12
    season: str          # "winter" | "spring" | "summer" | "autumn"
    consumption: float   # kWh, the regression target


@dataclasses.dataclass(frozen=True, eq=False)
class Readings:
    """Decoded readings as columns, in input order.

    Iterating or indexing yields ``MeterReading`` objects; ``len`` builds none.
    """

    meter: np.ndarray   # int64 meter ids
    day: np.ndarray     # int64 day codes
    slot: np.ndarray    # int64 half-hour slots 1..48
    kwh: np.ndarray     # float64

    @classmethod
    def from_records(cls, records: Iterable[MeterReading]) -> "Readings":
        records = list(records)
        return cls(np.array([r.meter_id for r in records], dtype=np.int64),
                   np.array([r.day_code for r in records], dtype=np.int64),
                   np.array([r.slot for r in records], dtype=np.int64),
                   np.array([r.kwh for r in records], dtype=np.float64))

    def __len__(self) -> int:
        return self.kwh.size

    def __iter__(self) -> Iterator[MeterReading]:
        return map(MeterReading, self.meter.tolist(), self.day.tolist(),
                   self.slot.tolist(), self.kwh.tolist())

    def __getitem__(self, i: int) -> MeterReading:
        return MeterReading(int(self.meter[i]), int(self.day[i]), int(self.slot[i]),
                            float(self.kwh[i]))

    def take(self, idx: np.ndarray) -> "Readings":
        return Readings(self.meter[idx], self.day[idx], self.slot[idx], self.kwh[idx])


def _concat_readings(parts: Sequence[Readings]) -> Readings:
    if not parts:
        return Readings.from_records([])
    return Readings(*(np.concatenate([getattr(p, f) for p in parts])
                      for f in ("meter", "day", "slot", "kwh")))


def _as_readings(readings: Readings | Iterable[MeterReading]) -> Readings:
    if isinstance(readings, Readings):
        return readings
    return Readings.from_records(readings)


@dataclasses.dataclass(frozen=True, eq=False)
class Dataset:
    """The rows of one monitoring level as columns, in row order.

    The calendar attributes of a row are computed from its day code and
    interval, a whole column at a time (see ``calendar``); ``rows``
    renders the rows as feature vectors for the per-observation API.
    """

    level: str                      # "SH" | "NBH"
    meter_id: int | None            # None for NBH
    day: np.ndarray                 # int64 day codes (day 1 = EPOCH)
    interval: np.ndarray            # int64 hour 1..24 (SH) or slot 1..48 (NBH)
    kwh: np.ndarray                 # float64 consumption, the regression target
    attributes: tuple[str, ...]     # model-input attributes, in declared order

    @classmethod
    def from_rows(cls, level: str, meter_id: int | None, rows: Iterable[FeatureVector],
                  attributes: Sequence[str]) -> "Dataset":
        """A dataset of feature vectors, whose attributes must be the derived ones."""
        rows = list(rows)
        ds = cls(level, meter_id,
                 np.array([day_code_of(r.date) for r in rows], dtype=np.int64),
                 np.array([r.interval for r in rows], dtype=np.int64),
                 np.array([r.consumption for r in rows], dtype=np.float64),
                 tuple(attributes))
        derived = [(r.day_period, r.day_type, r.month, r.season) for r in ds.rows]
        if derived != [(r.day_period, r.day_type, r.month, r.season) for r in rows]:
            raise ContractViolation("feature vectors disagree with the calendar of their "
                                    "date and interval")
        return ds

    def __len__(self) -> int:
        return self.kwh.size

    @property
    def interval_kind(self) -> str:
        return "hour" if self.level == "SH" else "slot"

    def take(self, idx: np.ndarray) -> "Dataset":
        """The rows idx (indices, or a boolean mask), in that order."""
        return dataclasses.replace(self, day=self.day[idx], interval=self.interval[idx],
                                   kwh=self.kwh[idx])

    def chronological(self) -> "Dataset":
        """The rows in (date, interval) order; ties keep row order."""
        return self.take(np.lexsort((self.interval, self.day)))

    def dates(self) -> list[dt.date]:
        """The date of every row."""
        return dates_of(self.day)

    def calendar(self) -> dict[str, np.ndarray]:
        """Per-row codes of the derived attributes: day_period (DAY_PERIODS
        index), day_type (DAY_TYPES index), month, season (SEASONS index).
        An interval outside the level's range raises as ``clock_hour``."""
        days = _DAY0 + self.day
        month = days.astype("M8[M]").view(np.int64) % 12 + 1
        weekend = (days.view(np.int64) + 3) % 7 >= 5     # 1970-01-01 was a Thursday
        return {"day_period": interval_codes(self.interval, self.interval_kind)[:, 1],
                "day_type": weekend.astype(np.int64), "month": month,
                "season": _SEASON_OF_MONTH[month]}

    def calendar_key(self) -> np.ndarray:
        """Per row, its calendar key code (``calendar_code``): its index into
        a model's prediction table. Codes increase with the interval first."""
        cal = self.calendar()
        return calendar_code(self.interval, cal["day_period"], cal["day_type"], cal["month"])

    @property
    def rows(self) -> list[FeatureVector]:
        """Every row as a feature vector (built on each access)."""
        kind = self.interval_kind
        return [feature_vector(d, i, kind, k) for d, i, k in
                zip(self.dates(), self.interval.tolist(), self.kwh.tolist())]


@dataclasses.dataclass
class ParseIssue:
    line_no: int
    message: str
    line: str


@dataclasses.dataclass
class ParseResult:
    readings: Readings
    issues: list[ParseIssue]


@dataclasses.dataclass
class BuildReport:
    """Side report from dataset building: what was flagged and skipped."""

    flagged: list[tuple[dt.date, int]]  # (date, hour) excluded / (date, slot) partial
    duplicates: int = 0


def date_of(day_code: int) -> dt.date:
    return EPOCH + dt.timedelta(days=day_code - 1)


def dates_of(day_codes: np.ndarray | Sequence[int]) -> list[dt.date]:
    """``date_of`` of each day code of an int array or sequence."""
    return (_DAY0 + np.asarray(day_codes, dtype=np.int64)).tolist()


def iso_dates(day_codes: np.ndarray) -> list[str]:
    """The ISO text (``date.isoformat()``) of each day code of an int array."""
    return np.datetime_as_string(_DAY0 + day_codes).tolist()


def day_code_of(date: dt.date) -> int:
    return (date - EPOCH).days + 1


def encode_timestamp(day_code: int, slot: int) -> int:
    """Inverse of :func:`decode_timestamp` (day_code * 100 + slot)."""
    return day_code * 100 + slot


def decode_timestamp(code: int) -> tuple[dt.date, int]:
    """Decode a raw timestamp into (calendar date, half-hour slot)."""
    if code < 101:
        raise RangeError(f"encoded timestamp {code} below minimum 00101")
    day_code, slot = divmod(code, 100)
    if not 1 <= slot <= SLOTS_PER_DAY:
        raise RangeError(f"slot {slot} outside 1..{SLOTS_PER_DAY} in code {code}")
    try:
        return date_of(day_code), slot
    except OverflowError:
        raise RangeError(f"day code {day_code} beyond the last calendar date") from None


def clock_hour(interval: int, kind: str) -> int:
    """Wall-clock hour (0..23) at which the given hour/slot interval starts."""
    if kind == "hour":
        if not 1 <= interval <= HOURS_PER_DAY:
            raise RangeError(f"hour {interval} outside 1..{HOURS_PER_DAY}")
        return interval - 1
    if kind == "slot":
        if not 1 <= interval <= SLOTS_PER_DAY:
            raise RangeError(f"slot {interval} outside 1..{SLOTS_PER_DAY}")
        return (interval - 1) // 2
    raise ValueError(f"unknown interval kind {kind!r}")


def season_of_month(month: int) -> str:
    """Meteorological season: Dec-Feb winter, Mar-May spring, and so on."""
    if month in (12, 1, 2):
        return "winter"
    if month in (3, 4, 5):
        return "spring"
    if month in (6, 7, 8):
        return "summer"
    return "autumn"


@functools.lru_cache(maxsize=4096)
def _calendar(date: dt.date) -> tuple[str, int, str]:
    """(day_type, month, season) of a date, for ``feature_vector``.

    Cached (immutable results, at most 4096 dates, over eleven years) because
    every streamed observation asks for it."""
    day_type = "weekend" if date.weekday() >= 5 else "weekday"
    return day_type, date.month, season_of_month(date.month)


@functools.cache
def _day_period(interval: int, kind: str) -> str:
    """"day" or "night" of an hour/slot interval: the one per-interval rule.

    Cached: only the 72 valid (interval, kind) pairs return, the rest raise."""
    return "day" if DAY_START_HOUR <= clock_hour(interval, kind) <= DAY_END_HOUR else "night"


# Per interval kind, row i: interval i's clock hour and DAY_PERIODS code (row 0 is no interval's)
_INTERVAL_ROWS = {
    kind: np.array([(0, 0)] + [(clock_hour(i, kind), DAY_PERIODS.index(_day_period(i, kind)))
                               for i in range(1, count + 1)])
    for kind, count in (("hour", HOURS_PER_DAY), ("slot", SLOTS_PER_DAY))}
# SEASONS code of each month 1..12 (entry 0 is no month's)
_SEASON_OF_MONTH = np.array([0] + [SEASONS.index(season_of_month(m)) for m in range(1, 13)])


def interval_codes(interval: np.ndarray, kind: str) -> np.ndarray:
    """Per interval of an int array, its (clock hour, DAY_PERIODS code) row;
    the first interval outside the kind's range raises as ``clock_hour``."""
    rows = _INTERVAL_ROWS[kind]
    outside = (interval < 1) | (interval >= len(rows))
    if outside.any():
        clock_hour(int(interval[outside][0]), kind)     # raises
    return rows.take(interval, axis=0)


def calendar_code(interval, day_period, day_type, month):
    """The code of a calendar key, of ints or int arrays (day period and
    day type as codes; the season follows from the month): row k of
    ``calendar_grid`` has code k."""
    return ((interval * 2 + day_period) * 2 + day_type) * 12 + month - 1


def calendar_grid() -> dict[str, np.ndarray]:
    """The attribute codes of every calendar key, as ``Dataset.calendar``
    gives them plus the interval, in code order (interval 0 is no reading's)."""
    interval, period, day_type, month = np.indices((SLOTS_PER_DAY + 1, 2, 2, 12)).reshape(4, -1)
    return {"interval": interval, "day_period": period, "day_type": day_type,
            "month": month + 1, "season": _SEASON_OF_MONTH[month + 1]}


def feature_vector(date: dt.date, interval: int, kind: str, consumption: float) -> FeatureVector:
    return FeatureVector._make((date, interval, _day_period(interval, kind), *_calendar(date),
                                consumption))


def parse_raw(lines: Iterable[str]) -> ParseResult:
    """Parse raw text lines into readings, reporting bad lines by number.

    The meter id must be ASCII digits and the timestamp exactly five ASCII
    digits. Malformed lines are skipped and recorded as issues rather than
    aborting the parse; blank lines are ignored. Chunks of canonical lines
    take a bulk path with the same result as the per-line one (see the
    module docstring).
    """
    parts: list[Readings] = []
    issues: list[ParseIssue] = []
    it = iter(lines)
    line_no = 0
    while chunk := list(itertools.islice(it, _CHUNK_LINES)):
        part = _parse_canonical(chunk)
        if part is None:
            part, chunk_issues = _parse_lines(chunk, line_no + 1)
            issues.extend(chunk_issues)
        parts.append(part)
        line_no += len(chunk)
    if issues:
        log.warning("parse_raw: %d malformed line(s) skipped", len(issues))
    return ParseResult(_concat_readings(parts), issues)


def _parse_canonical(chunk: list[str]) -> Readings | None:
    """The chunk's readings when every line is canonical and valid, else None."""
    if not all(map(_CANONICAL_LINE.fullmatch, chunk)):
        return None
    fields = " ".join(chunk).split()
    meter = np.array(list(map(int, fields[0::3])), dtype=np.int64)
    day, slot = np.divmod(np.array(list(map(int, fields[1::3])), dtype=np.int64), 100)
    kwh = np.array(list(map(float, fields[2::3])), dtype=np.float64)
    if not ((meter > 0).all() and (day >= 1).all()
            and ((slot >= 1) & (slot <= SLOTS_PER_DAY)).all()):
        return None
    return Readings(meter, day, slot, kwh)


def _parse_lines(lines: Iterable[str], first_line_no: int = 1) -> tuple[Readings, list[ParseIssue]]:
    """The per-line parse: every line checked on its own, bad ones reported."""
    meters: list[int] = []
    days: list[int] = []
    slots: list[int] = []
    kwhs: list[float] = []
    issues: list[ParseIssue] = []
    for line_no, raw in enumerate(lines, start=first_line_no):
        line = raw.strip()
        if not line:
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != 3:
            issues.append(ParseIssue(line_no, f"expected 3 fields, got {len(fields)}", line))
            continue
        meter_field, code_field, kwh_field = fields
        # int() would also take signs, underscores and non-ASCII digits
        if not (meter_field.isascii() and meter_field.isdigit()):
            issues.append(ParseIssue(line_no, f"meter id {meter_field!r} is not ASCII digits",
                                     line))
            continue
        if not (len(code_field) == 5 and code_field.isascii() and code_field.isdigit()):
            issues.append(ParseIssue(
                line_no, f"timestamp {code_field!r} is not 5 ASCII digits", line))
            continue
        try:
            kwh = float(kwh_field)
        except ValueError as exc:
            issues.append(ParseIssue(line_no, f"non-numeric field: {exc}", line))
            continue
        meter_id = int(meter_field)
        code = int(code_field)
        if meter_id <= 0:
            issues.append(ParseIssue(line_no, f"meter id {meter_id} not positive", line))
            continue
        if meter_id > _MAX_METER_ID:
            issues.append(ParseIssue(line_no, f"meter id {meter_id} above {_MAX_METER_ID}", line))
            continue
        if fault := kwh_fault(kwh):
            issues.append(ParseIssue(line_no, fault, line))
            continue
        try:
            _, slot = decode_timestamp(code)
        except RangeError as exc:
            issues.append(ParseIssue(line_no, str(exc), line))
            continue
        meters.append(meter_id)
        days.append(code // 100)
        slots.append(slot)
        kwhs.append(kwh)
    readings = Readings(np.array(meters, dtype=np.int64), np.array(days, dtype=np.int64),
                        np.array(slots, dtype=np.int64), np.array(kwhs, dtype=np.float64))
    return readings, issues


def kwh_fault(kwh: float) -> str | None:
    """Why a consumption value is refused (non-finite or negative), or None."""
    if not math.isfinite(kwh):
        return f"non-finite consumption {kwh!r}"
    if kwh < 0:
        return f"negative consumption {kwh!r}"
    return None


def wire_kwh(kwh: np.ndarray) -> np.ndarray:
    """The float64 that the raw-line text ``f"{k:.6f}"`` of each value
    parses back to, without making the text.

    ``k * 1e6`` is rounded half to even and divided by 1e6: an integer
    below 2**52 over an exact power of ten rounds once, as ``float`` reads
    the decimal (Clinger's fast path). The product itself is rounded, so a
    value whose product lies within two ulps of a tie, whose product
    reaches 2**52, or that is not finite takes the text route on its own.
    The values are rounded ``_WIRE_BLOCK`` at a time, so the temporaries
    stay small beside the input and the result.
    """
    kwh = np.asarray(kwh, dtype=np.float64)
    out = np.empty_like(kwh)
    flat, result = kwh.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _WIRE_BLOCK):
        _wire_block(flat[start:start + _WIRE_BLOCK], result[start:start + _WIRE_BLOCK])
    return out


_WIRE_BLOCK = 1 << 16


def _wire_block(kwh: np.ndarray, out: np.ndarray) -> None:
    """``wire_kwh`` of one block of values, written to ``out``."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = kwh * 1e6
        np.rint(p, out=out)
        out /= 1e6
        a = np.abs(p, out=p)            # np.spacing of a negative value is negative
        gap = np.floor(a)
        np.subtract(a, gap, out=gap)    # the fraction
        gap -= 0.5
        np.abs(gap, out=gap)            # its distance to a tie
        slow = gap <= 2.0 * np.spacing(a)
        slow |= ~(a < 2.0 ** 52)
    for i in np.flatnonzero(slow).tolist():
        out[i] = float(f"{kwh[i]:.6f}")


def open_raw(path: str | Path) -> Iterator[str]:
    """Open a raw file (gzip-compressed accepted) as an iterator of lines."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt") as fh:
            yield from fh
    else:
        with open(path, "rt") as fh:
            yield from fh


def _runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values, plus the end, in a sorted array."""
    if not sorted_keys.size:
        return np.zeros(1, dtype=np.int64)
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.concatenate(([0], change, [sorted_keys.size]))


def group_by_meter(readings: Readings | Iterable[MeterReading]) -> dict[int, Readings]:
    """Each meter's readings in input order, keyed and ordered by meter id."""
    r = _as_readings(readings)
    order = np.argsort(r.meter, kind="stable")
    bounds = _runs(r.meter[order])
    return {int(r.meter[order[a]]): r.take(order[a:b])
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())}


def build_sh_dataset(readings: Readings | Iterable[MeterReading]) -> tuple[Dataset, BuildReport]:
    """Aggregate one meter's half-hour readings into an hourly SH dataset.

    Slot pairs (2k-1, 2k) are summed into hour k. Hours with exactly one of
    the two half-hours missing are excluded and flagged in the report;
    duplicate (day, slot) readings keep the first occurrence.
    """
    r = _as_readings(readings)
    meter_ids = np.unique(r.meter)
    if meter_ids.size > 1:
        raise ContractViolation(f"build_sh_dataset got readings from meters {meter_ids.tolist()}")
    meter_id = int(meter_ids[0]) if meter_ids.size else None

    # first occurrence of each (day, slot), in (day, slot) order
    keys, first = np.unique(r.day * 100 + r.slot, return_index=True)
    kwh = r.kwh[first]
    day, slot = np.divmod(keys, 100)
    hour = (slot + 1) // 2
    bounds = _runs(day * 100 + hour)
    starts, counts = bounds[:-1], np.diff(bounds)
    pairs = starts[counts == 2]          # odd slot at pairs, even slot at pairs + 1
    lone = starts[counts == 1]

    ds = Dataset("SH", meter_id, day[pairs], hour[pairs], kwh[pairs] + kwh[pairs + 1],
                 SH_ATTRIBUTES)
    flagged = list(zip(dates_of(day[lone]), hour[lone].tolist()))
    return ds, BuildReport(flagged, len(r) - keys.size)


def build_nbh_dataset(readings: Readings | Iterable[MeterReading]) -> tuple[Dataset, BuildReport]:
    """Sum readings across meters into the neighborhood half-hourly dataset.

    Slots where some meters are missing still contribute the total over the
    meters present; those slots are flagged as partial in the report. A
    slot's total adds its meters' readings one at a time in meter-id order,
    so it does not depend on how the Python version sums floats.
    """
    r = _as_readings(readings)
    n_meters = np.unique(r.meter).size
    # first occurrence of each (day, slot, meter), in (day, slot, meter) order
    order = np.lexsort((r.meter, r.slot, r.day))
    slot_key = (r.day * 100 + r.slot)[order]
    meter = r.meter[order]
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = (slot_key[1:] != slot_key[:-1]) | (meter[1:] != meter[:-1])
    slot_key, kwh = slot_key[keep], r.kwh[order[keep]]

    bounds = _runs(slot_key)
    starts, counts = bounds[:-1], np.diff(bounds)
    # bincount adds its weights one by one in array order, here meter-id order
    total = np.bincount(np.repeat(np.arange(starts.size), counts), kwh, starts.size)

    day, slot = np.divmod(slot_key[starts], 100)
    partial = counts < n_meters
    flagged = list(zip(dates_of(day[partial]), slot[partial].tolist()))
    ds = Dataset("NBH", None, day, slot, total, NBH_ATTRIBUTES)
    return ds, BuildReport(flagged, len(r) - slot_key.size)


def clean_dataset(ds: Dataset) -> tuple[Dataset, Dataset]:
    """Remove consumption outliers beyond 3 sigma of their group mean.

    Groups are (month, interval); mean and sigma are the population
    statistics of each group, over its rows in row order. Groups with
    sigma = 0 keep all rows, and groups with fewer than two rows are skipped
    with a warning. Returns the kept and the removed rows, each in (date,
    interval) order.
    """
    key = ds.calendar()["month"] * 100 + ds.interval
    order = np.argsort(key, kind="stable")
    bounds = _runs(key[order])
    starts, sizes = bounds[:-1], np.diff(bounds)
    removed = np.zeros(len(ds), dtype=bool)
    skipped_groups = int((sizes < 2).sum())
    # the groups of one size as the rows of a matrix: numpy sums each row
    # as it sums one group alone, so every mean and sigma keeps its bits
    for size in np.unique(sizes[sizes >= 2]).tolist():
        idx = order[starts[sizes == size, None] + np.arange(size)]
        values = ds.kwh[idx]
        mu = values.mean(axis=1, keepdims=True)
        sigma = values.std(axis=1, keepdims=True)
        removed[idx] = (np.abs(values - mu) > 3.0 * sigma) & (sigma != 0.0)

    if skipped_groups:
        log.warning("clean_dataset: %d (month, interval) group(s) below 2 rows skipped",
                    skipped_groups)
    return (ds.take(np.flatnonzero(~removed)).chronological(),
            ds.take(np.flatnonzero(removed)).chronological())


def split_train_validation(ds: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Split by whole weeks: one validation week per four-week block.

    Weeks start on Monday, anchored at the first Monday in the data. Within
    every complete block of four weeks one week is chosen (seeded) for
    validation; leftover weeks at either edge stay in training. The same
    seed always produces the same membership.
    """
    valid = _validation_mask(ds, seed)
    return ds.take(np.flatnonzero(~valid)), ds.take(np.flatnonzero(valid))


def _validation_mask(ds: Dataset, seed: int) -> np.ndarray:
    """True on the rows of the validation weeks of ``split_train_validation``."""
    if not len(ds):
        raise SplitError("cannot split an empty dataset")
    start = int(ds.day.min())
    end = int(ds.day.max())
    span_days = end - start + 1
    if span_days < 28:
        raise SplitError(f"dataset spans {span_days} day(s); need at least 4 whole weeks")
    anchor = start + (7 - date_of(start).weekday()) % 7  # first Monday >= start
    complete_weeks = (end - anchor + 1) // 7
    n_blocks = complete_weeks // 4
    if n_blocks < 1:
        raise SplitError(
            f"only {complete_weeks} whole Monday-aligned week(s); need at least 4"
        )

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A7)))
    valid_weeks = [4 * b + int(rng.integers(4)) for b in range(n_blocks)]
    return np.isin((ds.day - anchor) // 7, valid_weeks)


def _row_lines(ds: Dataset, tail: str = "\r\n") -> list[str]:
    """The rows of a dataset as CSV lines in the dataset schema, each ending
    in ``tail``.

    The ``interval`` column holds the interval kind ("hour" for SH, "slot"
    for NBH) and ``hour_or_slot`` holds its number. Lines are what
    ``csv.writer`` writes for these fields (no field needs quoting).
    """
    meter = "" if ds.meter_id is None else ds.meter_id
    head = f"{ds.level},{meter},"
    kind_text = f",{ds.interval_kind},"
    cal = ds.calendar()
    return [f"{head}{d}{kind_text}{i},{DAY_PERIODS[p]},{DAY_TYPES[t]},{m},{SEASONS[s]},{k!r}{tail}"
            for d, i, p, t, m, s, k in zip(iso_dates(ds.day), ds.interval.tolist(),
                                           cal["day_period"].tolist(), cal["day_type"].tolist(),
                                           cal["month"].tolist(), cal["season"].tolist(),
                                           ds.kwh.tolist())]


def _write_lines(path: str | Path, header: list[str], lines: Iterable[str]) -> None:
    """A CSV file of the pinned header and the given rendered lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def write_dataset_csv(ds: Dataset, path: str | Path, split_paths: Sequence[str | Path] = (),
                      seed: int = 0) -> None:
    """Write a dataset CSV. Given (train path, validation path) as
    ``split_paths``, also write there the two halves that
    ``split_train_validation(ds, seed)`` makes, from the same rendered
    lines, so no row is rendered twice."""
    lines = _row_lines(ds)
    _write_lines(path, DATASET_CSV_HEADER, lines)
    if split_paths:
        valid = _validation_mask(ds, seed)
        for split_path, keep in zip(split_paths, (~valid, valid)):
            _write_lines(split_path, DATASET_CSV_HEADER, itertools.compress(lines, keep))


def write_removed_csv(removed: Dataset, path: str | Path) -> None:
    """Persist the cleaning report (removed rows) in the dataset schema."""
    _write_lines(path, DATASET_CSV_HEADER, _row_lines(removed))


def write_labeled_csv(parts: Iterable[Dataset], label: str, path: str | Path) -> None:
    """The rows of each dataset in turn, in the dataset schema plus a
    trailing label column (suspect/attack/benign)."""
    _write_lines(path, DATASET_CSV_HEADER + ["label"],
                 itertools.chain.from_iterable(_row_lines(ds, f",{label}\r\n") for ds in parts))


def _record_line(path: str | Path, index: int) -> int:
    """Line number of the index-th non-empty record after the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        seen = -1
        for rec in reader:
            if rec:
                seen += 1
                if seen == index + 1:
                    return reader.line_num
    return reader.line_num


def read_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset CSV back into columns.

    Every row must hold the file's one level ("SH" or "NBH") and meter id,
    and its derived columns (day_period, day_type, month, season) must be
    the ones its date and interval give, and its kWh finite and not
    negative. A missing column, a malformed value or a disagreement raises
    ``UserInputError`` naming the file and line.
    """
    with open(path, newline="") as fh:
        records = [rec for rec in csv.reader(fh) if rec]
    header = records.pop(0) if records else []

    def fail(i: int, why: str) -> UserInputError:
        return UserInputError(f"malformed dataset {path} at line {_record_line(path, i)}: {why}")

    if not records:
        return Dataset("SH", None, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                       np.zeros(0), SH_ATTRIBUTES)
    if min(map(len, records)) < len(header):
        short = next(i for i, rec in enumerate(records) if len(rec) < len(header))
        raise fail(short, f"missing column or bad value: {len(records[short])} field(s)")
    columns = {}
    for name in DATASET_CSV_HEADER:
        if name == "interval":      # the interval kind follows from the level
            continue
        if name not in header:
            raise fail(0, f"missing column or bad value {name!r}")
        j = header.index(name)
        columns[name] = [rec[j] for rec in records]

    def convert(name: str, fn) -> list:
        values = columns[name]
        try:
            return list(map(fn, values))
        except ValueError:
            for i, v in enumerate(values):
                try:
                    fn(v)
                except ValueError as exc:
                    raise fail(i, f"missing column or bad value {exc}") from exc
            raise

    level, meter = columns["level"][-1], columns["meter_id"][-1]
    for name, want in (("level", level), ("meter_id", meter)):
        i = next((i for i, v in enumerate(columns[name]) if v != want), None)
        if i is not None:
            raise fail(i, f"{name} {columns[name][i]!r} differs from the file's {want!r}")
    if level not in ("SH", "NBH"):
        raise fail(0, f"level {level!r} is neither 'SH' nor 'NBH'")
    try:
        meter_id = int(meter) if meter else None
    except ValueError as exc:
        raise fail(0, f"missing column or bad value {exc}") from exc
    kind = "hour" if level == "SH" else "slot"

    dates = columns["date"]
    codes: dict[str, int] = {}
    for text in dict.fromkeys(dates):   # distinct, in row order
        try:
            codes[text] = day_code_of(dt.date.fromisoformat(text))
        except ValueError as exc:
            raise fail(dates.index(text), f"missing column or bad value {exc}") from exc
    intervals = convert("hour_or_slot", int)
    for interval in dict.fromkeys(intervals):
        try:
            clock_hour(interval, kind)
        except RangeError as exc:
            raise fail(intervals.index(interval), str(exc)) from exc

    # the kWh column is checked after the derived ones
    ds = Dataset(level, meter_id, np.array([codes[t] for t in dates], dtype=np.int64),
                 np.array(intervals, dtype=np.int64), np.zeros(len(dates)),
                 NBH_ATTRIBUTES if level == "NBH" else SH_ATTRIBUTES)
    calendar = ds.calendar()
    for name, texts in (("day_period", DAY_PERIODS), ("day_type", DAY_TYPES),
                        ("month", [str(m) for m in range(13)]), ("season", SEASONS)):
        got, want = columns[name], [texts[c] for c in calendar[name].tolist()]
        if got != want:
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            raise fail(i, f"{name} {got[i]!r} does not match date {dates[i]} and {kind} "
                          f"{intervals[i]} (expected {want[i]!r})")

    kwh = np.array(convert("consumption_kwh", float), dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(kwh) & (kwh >= 0)))
    if bad.size:
        raise fail(int(bad[0]), kwh_fault(float(kwh[bad[0]])))
    return dataclasses.replace(ds, kwh=kwh)
