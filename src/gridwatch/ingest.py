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
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import gzip
import logging
import math
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ContractViolation, RangeError, SplitError, UserInputError

log = logging.getLogger(__name__)

EPOCH = dt.date(2009, 1, 1)  # day code 1
SLOTS_PER_DAY = 48
HOURS_PER_DAY = 24

# Wall-clock hours counted as "day" for the day/night attribute (inclusive).
DAY_START_HOUR = 7
DAY_END_HOUR = 22

SEASONS = ("winter", "spring", "summer", "autumn")

# Attribute names in tie-breaking order for split selection. "interval" holds
# the hour index (1..24) for SH datasets and the slot index (1..48) for NBH.
SH_ATTRIBUTES = ("interval", "day_type", "month", "season")
SH_ATTRIBUTES_WITH_DAY_PERIOD = ("interval", "day_period", "day_type", "month", "season")
NBH_ATTRIBUTES = ("interval", "day_period", "day_type", "month", "season")

DATASET_CSV_HEADER = [
    "level", "meter_id", "date", "interval", "hour_or_slot",
    "day_period", "day_type", "month", "season", "consumption_kwh",
]


@dataclasses.dataclass(frozen=True)
class MeterReading:
    """One decoded half-hourly consumption sample."""

    meter_id: int
    day_code: int
    slot: int
    kwh: float

    @property
    def date(self) -> dt.date:
        return EPOCH + dt.timedelta(days=self.day_code - 1)


@dataclasses.dataclass(frozen=True)
class FeatureVector:
    """One model instance: calendar attributes plus the consumption target."""

    date: dt.date
    interval: int        # hour 1..24 (SH) or slot 1..48 (NBH)
    day_period: str      # "day" | "night"
    day_type: str        # "weekday" | "weekend"
    month: int           # 1..12
    season: str          # "winter" | "spring" | "summer" | "autumn"
    consumption: float   # kWh, the regression target


@dataclasses.dataclass
class Dataset:
    """An ordered collection of feature vectors for one monitoring level."""

    level: str                      # "SH" | "NBH"
    meter_id: int | None            # None for NBH
    rows: list[FeatureVector]
    attributes: tuple[str, ...]     # model-input attributes, in declared order

    @property
    def interval_kind(self) -> str:
        return "hour" if self.level == "SH" else "slot"

    def replace_rows(self, rows: list[FeatureVector]) -> "Dataset":
        return Dataset(self.level, self.meter_id, rows, self.attributes)


@dataclasses.dataclass
class ParseIssue:
    line_no: int
    message: str
    line: str


@dataclasses.dataclass
class ParseResult:
    readings: list[MeterReading]
    issues: list[ParseIssue]


@dataclasses.dataclass
class BuildReport:
    """Side report from dataset building: what was flagged and skipped."""

    flagged: list[tuple[dt.date, int]]  # (date, hour) excluded / (date, slot) partial
    duplicates: int = 0


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
        return EPOCH + dt.timedelta(days=day_code - 1), slot
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


def derive_features(date: dt.date, interval: int, kind: str = "hour") -> tuple[str, str, int, str]:
    """Return (day_period, day_type, month, season) for a date and interval."""
    ch = clock_hour(interval, kind)
    day_period = "day" if DAY_START_HOUR <= ch <= DAY_END_HOUR else "night"
    day_type = "weekend" if date.weekday() >= 5 else "weekday"
    return day_period, day_type, date.month, season_of_month(date.month)


def feature_vector(date: dt.date, interval: int, kind: str, consumption: float) -> FeatureVector:
    day_period, day_type, month, season = derive_features(date, interval, kind)
    return FeatureVector(date, interval, day_period, day_type, month, season, consumption)


def parse_raw(lines: Iterable[str]) -> ParseResult:
    """Parse raw text lines into readings, reporting bad lines by number.

    The meter id must be ASCII digits and the timestamp exactly five ASCII
    digits. Malformed lines are skipped and recorded as issues rather than
    aborting the parse; blank lines are ignored.
    """
    readings: list[MeterReading] = []
    issues: list[ParseIssue] = []
    for line_no, raw in enumerate(lines, start=1):
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
        if not math.isfinite(kwh):
            issues.append(ParseIssue(line_no, f"non-finite consumption {kwh_field!r}", line))
            continue
        if kwh < 0:
            issues.append(ParseIssue(line_no, f"negative consumption {kwh}", line))
            continue
        try:
            _, slot = decode_timestamp(code)
        except RangeError as exc:
            issues.append(ParseIssue(line_no, str(exc), line))
            continue
        readings.append(MeterReading(meter_id, code // 100, slot, kwh))
    if issues:
        log.warning("parse_raw: %d malformed line(s) skipped", len(issues))
    return ParseResult(readings, issues)


def open_raw(path: str | Path) -> Iterator[str]:
    """Open a raw file (gzip-compressed accepted) as an iterator of lines."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt") as fh:
            yield from fh
    else:
        with open(path, "rt") as fh:
            yield from fh


def group_by_meter(readings: Iterable[MeterReading]) -> dict[int, list[MeterReading]]:
    """Each meter's readings in input order, keyed and ordered by meter id."""
    per_meter: dict[int, list[MeterReading]] = {}
    for r in readings:
        per_meter.setdefault(r.meter_id, []).append(r)
    return dict(sorted(per_meter.items()))


def build_sh_dataset(
    readings: Iterable[MeterReading],
    include_day_period: bool = False,
) -> tuple[Dataset, BuildReport]:
    """Aggregate one meter's half-hour readings into an hourly SH dataset.

    Slot pairs (2k-1, 2k) are summed into hour k. Hours with exactly one of
    the two half-hours missing are excluded and flagged in the report;
    duplicate (day, slot) readings keep the first occurrence.
    """
    readings = list(readings)
    meter_ids = {r.meter_id for r in readings}
    if len(meter_ids) > 1:
        raise ContractViolation(f"build_sh_dataset got readings from meters {sorted(meter_ids)}")
    meter_id = next(iter(meter_ids)) if meter_ids else None

    by_day: dict[int, dict[int, float]] = {}
    duplicates = 0
    for r in readings:
        slots = by_day.setdefault(r.day_code, {})
        if r.slot in slots:
            duplicates += 1
            continue
        slots[r.slot] = r.kwh

    rows: list[FeatureVector] = []
    flagged: list[tuple[dt.date, int]] = []
    for day_code in sorted(by_day):
        date = EPOCH + dt.timedelta(days=day_code - 1)
        slots = by_day[day_code]
        for hour in range(1, HOURS_PER_DAY + 1):
            first = slots.get(2 * hour - 1)
            second = slots.get(2 * hour)
            if first is not None and second is not None:
                rows.append(feature_vector(date, hour, "hour", first + second))
            elif first is not None or second is not None:
                flagged.append((date, hour))

    attributes = SH_ATTRIBUTES_WITH_DAY_PERIOD if include_day_period else SH_ATTRIBUTES
    ds = Dataset("SH", meter_id, rows, attributes)
    return ds, BuildReport(flagged, duplicates)


def build_nbh_dataset(readings: Iterable[MeterReading]) -> tuple[Dataset, BuildReport]:
    """Sum readings across meters into the neighborhood half-hourly dataset.

    Slots where some meters are missing still contribute the total over the
    meters present; those slots are flagged as partial in the report.
    """
    readings = list(readings)
    all_meters = {r.meter_id for r in readings}
    by_slot: dict[tuple[int, int], dict[int, float]] = {}
    duplicates = 0
    for r in readings:
        per_meter = by_slot.setdefault((r.day_code, r.slot), {})
        if r.meter_id in per_meter:
            duplicates += 1
            continue
        per_meter[r.meter_id] = r.kwh

    rows: list[FeatureVector] = []
    flagged: list[tuple[dt.date, int]] = []
    for day_code, slot in sorted(by_slot):
        date = EPOCH + dt.timedelta(days=day_code - 1)
        per_meter = by_slot[(day_code, slot)]
        total = sum(per_meter[m] for m in sorted(per_meter))
        rows.append(feature_vector(date, slot, "slot", total))
        if len(per_meter) < len(all_meters):
            flagged.append((date, slot))

    ds = Dataset("NBH", None, rows, NBH_ATTRIBUTES)
    return ds, BuildReport(flagged, duplicates)


def clean_dataset(ds: Dataset) -> tuple[Dataset, list[FeatureVector]]:
    """Remove consumption outliers beyond 3 sigma of their group mean.

    Groups are (month, interval); mean and sigma are the population
    statistics of each group. Groups with sigma = 0 keep all rows, and
    groups with fewer than two rows are skipped with a warning.
    """
    groups: dict[tuple[int, int], list[FeatureVector]] = {}
    for row in ds.rows:
        groups.setdefault((row.month, row.interval), []).append(row)

    kept: list[FeatureVector] = []
    removed: list[FeatureVector] = []
    skipped_groups = 0
    for key in sorted(groups):
        rows = groups[key]
        if len(rows) < 2:
            skipped_groups += 1
            kept.extend(rows)
            continue
        values = np.array([r.consumption for r in rows])
        mu = float(values.mean())
        sigma = float(values.std())
        if sigma == 0.0:
            kept.extend(rows)
            continue
        for row in rows:
            if abs(row.consumption - mu) > 3.0 * sigma:
                removed.append(row)
            else:
                kept.append(row)

    if skipped_groups:
        log.warning("clean_dataset: %d (month, interval) group(s) below 2 rows skipped",
                    skipped_groups)
    kept.sort(key=lambda r: (r.date, r.interval))
    removed.sort(key=lambda r: (r.date, r.interval))
    return ds.replace_rows(kept), removed


def split_train_validation(ds: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Split by whole weeks: one validation week per four-week block.

    Weeks start on Monday, anchored at the first Monday in the data. Within
    every complete block of four weeks one week is chosen (seeded) for
    validation; leftover weeks at either edge stay in training. The same
    seed always produces the same membership.
    """
    if not ds.rows:
        raise SplitError("cannot split an empty dataset")
    start = min(r.date for r in ds.rows)
    end = max(r.date for r in ds.rows)
    span_days = (end - start).days + 1
    if span_days < 28:
        raise SplitError(f"dataset spans {span_days} day(s); need at least 4 whole weeks")
    anchor = start + dt.timedelta(days=(7 - start.weekday()) % 7)  # first Monday >= start
    complete_weeks = ((end - anchor).days + 1) // 7
    n_blocks = complete_weeks // 4
    if n_blocks < 1:
        raise SplitError(
            f"only {complete_weeks} whole Monday-aligned week(s); need at least 4"
        )

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A7)))
    valid_weeks = {4 * b + int(rng.integers(4)) for b in range(n_blocks)}

    train_rows: list[FeatureVector] = []
    valid_rows: list[FeatureVector] = []
    for row in ds.rows:
        week = (row.date - anchor).days // 7
        if week in valid_weeks:
            valid_rows.append(row)
        else:
            train_rows.append(row)
    return ds.replace_rows(train_rows), ds.replace_rows(valid_rows)


def _write_rows(path: str | Path, level: str, meter_id: int | None,
                rows: Iterable[FeatureVector], label: str | None = None) -> None:
    """Write rows in the dataset schema, plus a trailing label column if given.

    The header is pinned: the ``interval`` column holds the interval kind
    ("hour" for SH, "slot" for NBH) and ``hour_or_slot`` holds its number.
    """
    kind = "hour" if level == "SH" else "slot"
    meter = "" if meter_id is None else meter_id
    header, tail = DATASET_CSV_HEADER, []
    if label is not None:
        header, tail = header + ["label"], [label]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([level, meter, row.date.isoformat(), kind, row.interval,
                             row.day_period, row.day_type, row.month, row.season,
                             repr(row.consumption), *tail])


def write_dataset_csv(ds: Dataset, path: str | Path) -> None:
    _write_rows(path, ds.level, ds.meter_id, ds.rows)


def write_removed_csv(level: str, meter_id: int | None, removed: list[FeatureVector],
                      path: str | Path) -> None:
    """Persist the cleaning report (removed rows) in the dataset schema."""
    _write_rows(path, level, meter_id, removed)


def write_labeled_csv(level: str, meter_id: int | None, rows: list[FeatureVector],
                      label: str, path: str | Path) -> None:
    """Dataset schema plus a trailing label column (suspect/attack/benign)."""
    _write_rows(path, level, meter_id, rows, label)


def read_dataset_csv(path: str | Path, include_day_period: bool = False) -> Dataset:
    rows: list[FeatureVector] = []
    level = "SH"
    meter_id: int | None = None
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for rec in reader:
                level = rec["level"]
                meter_id = int(rec["meter_id"]) if rec["meter_id"] else None
                rows.append(FeatureVector(
                    date=dt.date.fromisoformat(rec["date"]),
                    interval=int(rec["hour_or_slot"]),
                    day_period=rec["day_period"],
                    day_type=rec["day_type"],
                    month=int(rec["month"]),
                    season=rec["season"],
                    consumption=float(rec["consumption_kwh"]),
                ))
        except (KeyError, ValueError) as exc:
            raise UserInputError(f"malformed dataset {path} at line {reader.line_num}: "
                                 f"missing column or bad value {exc}") from exc
    if level == "NBH":
        attributes = NBH_ATTRIBUTES
    else:
        attributes = SH_ATTRIBUTES_WITH_DAY_PERIOD if include_day_period else SH_ATTRIBUTES
    return Dataset(level, meter_id, rows, attributes)
