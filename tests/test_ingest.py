import datetime as dt
import statistics

import numpy as np
import pytest

from gridwatch.errors import ContractViolation, RangeError, SplitError
from gridwatch.ingest import (EPOCH, Dataset, FeatureVector, MeterReading,
                              build_nbh_dataset, build_sh_dataset, clean_dataset,
                              decode_timestamp, encode_timestamp,
                              feature_vector, parse_raw, read_dataset_csv,
                              split_train_validation, write_dataset_csv)


def make_reading(meter=1, day=195, slot=1, kwh=0.5):
    return MeterReading(meter, day, slot, kwh)


# ---------------------------------------------------------------------------
# timestamp decoding

def test_decode_first_slot_of_epoch():
    assert decode_timestamp(101) == (dt.date(2009, 1, 1), 1)


def test_decode_table_sample():
    # day 195 = 2009-01-01 + 194 days; slot 35 starts at (35-1)*30 min = 17:00
    date, slot = decode_timestamp(19535)
    assert date == EPOCH + dt.timedelta(days=194)
    assert date == dt.date(2009, 7, 14)
    assert slot == 35


def test_decode_day_366_rolls_into_next_year():
    date, slot = decode_timestamp(36648)
    assert date == EPOCH + dt.timedelta(days=365)
    assert date == dt.date(2010, 1, 1)
    assert slot == 48


def test_decode_rejects_bad_slots():
    with pytest.raises(RangeError):
        decode_timestamp(19599)
    with pytest.raises(RangeError):
        decode_timestamp(19500)
    with pytest.raises(RangeError):
        decode_timestamp(100)


def test_encode_decode_round_trip_exhaustive():
    for day in range(1, 1000):
        base = day * 100
        for slot in (1, 7, 24, 48):
            assert decode_timestamp(base + slot) == (EPOCH + dt.timedelta(days=day - 1), slot)
    # full slot sweep on a handful of days
    for day in (1, 195, 366, 999):
        for slot in range(1, 49):
            code = encode_timestamp(day, slot)
            assert decode_timestamp(code) == (EPOCH + dt.timedelta(days=day - 1), slot)


# ---------------------------------------------------------------------------
# parsing

def test_parse_table_rows():
    result = parse_raw(["1392 19535 0.256", "1951 19605 0.021"])
    assert not result.issues
    assert result.readings[0] == MeterReading(1392, 195, 35, 0.256)
    assert result.readings[1] == MeterReading(1951, 196, 5, 0.021)


def test_parse_comma_separated_and_blank_lines():
    result = parse_raw(["1392,19535,0.256", "", "  "])
    assert [r.meter_id for r in result.readings] == [1392]
    assert not result.issues


def test_parse_reports_bad_lines_with_numbers():
    lines = [
        "1392 19535 0.256",
        "1392 19599 0.1",      # slot 99
        "oops 19535 0.1",      # non-numeric meter
        "1392 19536",          # missing field
        "1392 19537 -0.5",     # negative kWh
        "1392 19538 nan",      # non-finite kWh
        "1392 19539 inf",
        "1392 19540 1e400",    # overflows to inf
        "1392 400000001 0.1",  # day code past the last calendar date
        "1 1_00501 0.5",       # int() would read day code 1005
        "1 +0501 0.5",         # signed timestamp
        "1 100501 0.5",        # six digits: day code past the 3-digit field
        "1 \u0661\u0669\u0665\u0663\u0665 0.5",  # Arabic-Indic digits
        "\u0661 19535 0.5",    # non-ASCII meter id
        "+1392 19535 0.5",     # signed meter id
    ]
    result = parse_raw(lines)
    assert len(result.readings) == 1
    assert [i.line_no for i in result.issues] == list(range(2, 16))
    assert "slot 99" in result.issues[0].message
    assert all("non-finite" in i.message for i in result.issues[4:7])
    assert all("5 ASCII digits" in i.message for i in result.issues[7:12])
    assert all("ASCII digits" in i.message for i in result.issues[12:])


# ---------------------------------------------------------------------------
# attribute derivation

def derived(date, interval, kind="hour"):
    """(day_period, day_type, month, season) of a date and interval."""
    fv = feature_vector(date, interval, kind, 0.0)
    return fv.day_period, fv.day_type, fv.month, fv.season


def test_features_summer_weekday_daytime():
    # 2009-07-14 was a Tuesday; hour 17 covers 16:00-16:59
    day_period, day_type, month, season = derived(dt.date(2009, 7, 14), 17)
    assert (day_period, day_type, month, season) == ("day", "weekday", 7, "summer")


def test_features_winter_weekend_night():
    # 2009-01-03 was a Saturday; hour 2 covers 01:00-01:59
    day_period, day_type, month, season = derived(dt.date(2009, 1, 3), 2)
    assert (day_period, day_type, month, season) == ("night", "weekend", 1, "winter")


def test_december_is_winter():
    *_, season = derived(dt.date(2009, 12, 1), 12)
    assert season == "winter"


def test_season_is_pure_function_of_month():
    expected = {12: "winter", 1: "winter", 2: "winter", 3: "spring", 4: "spring",
                5: "spring", 6: "summer", 7: "summer", 8: "summer", 9: "autumn",
                10: "autumn", 11: "autumn"}
    for month, season in expected.items():
        assert derived(dt.date(2009, month, 10), 5)[3] == season


def test_day_period_boundaries():
    d = dt.date(2009, 6, 1)
    # hour index h covers wall clock h-1; day is clock 7..22 inclusive
    assert derived(d, 7)[0] == "night"   # 06:00
    assert derived(d, 8)[0] == "day"     # 07:00
    assert derived(d, 23)[0] == "day"    # 22:00
    assert derived(d, 24)[0] == "night"  # 23:00
    assert derived(d, 15, kind="slot")[0] == "day"    # slot 15 starts 07:00
    assert derived(d, 14, kind="slot")[0] == "night"  # slot 14 starts 06:30


# ---------------------------------------------------------------------------
# SH dataset building

def test_sh_hour_sums_slot_pairs():
    readings = [make_reading(1392, 195, 35, 0.256), make_reading(1392, 195, 36, 0.265)]
    ds, report = build_sh_dataset(readings)
    assert len(ds.rows) == 1
    row = ds.rows[0]
    assert row.interval == 18
    assert row.consumption == pytest.approx(0.256 + 0.265, abs=1e-15)
    assert not report.flagged


def test_sh_empty_input():
    ds, report = build_sh_dataset([])
    assert ds.rows == [] and not report.flagged


def test_sh_half_missing_hour_excluded_and_flagged():
    ds, report = build_sh_dataset([make_reading(1392, 195, 35, 0.256)])
    assert ds.rows == []
    assert report.flagged == [(dt.date(2009, 7, 14), 18)]


def test_sh_rejects_mixed_meters():
    with pytest.raises(ContractViolation):
        build_sh_dataset([make_reading(1, 1, 1, 0.1), make_reading(2, 1, 2, 0.1)])


def test_sh_hourly_aggregation_conserves_total():
    rng = np.random.default_rng(3)
    readings = [make_reading(9, 10, slot, float(rng.uniform(0, 1))) for slot in range(1, 49)]
    ds, _ = build_sh_dataset(readings)
    assert len(ds.rows) == 24
    assert sum(r.consumption for r in ds.rows) == pytest.approx(
        sum(r.kwh for r in readings), rel=1e-12)


def test_sh_duplicate_slots_keep_first():
    readings = [make_reading(1, 1, 1, 0.2), make_reading(1, 1, 1, 9.9), make_reading(1, 1, 2, 0.3)]
    ds, report = build_sh_dataset(readings)
    assert report.duplicates == 1
    assert ds.rows[0].consumption == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# NBH dataset building

def test_nbh_sums_across_meters():
    readings = [make_reading(1392, 195, 35, 0.256), make_reading(1951, 195, 35, 0.042)]
    ds, report = build_nbh_dataset(readings)
    assert len(ds.rows) == 1
    assert ds.rows[0].interval == 35
    assert ds.rows[0].consumption == pytest.approx(0.298)
    assert not report.flagged


def test_nbh_single_meter_is_identity():
    readings = [make_reading(7, 2, slot, 0.1 * slot) for slot in range(1, 49)]
    ds, _ = build_nbh_dataset(readings)
    assert [r.consumption for r in ds.rows] == pytest.approx(
        [r.kwh for r in readings])


def test_nbh_partial_slot_flagged():
    readings = [
        make_reading(1, 1, 1, 0.1), make_reading(2, 1, 1, 0.2),
        make_reading(1, 1, 2, 0.1),  # meter 2 missing at slot 2
    ]
    ds, report = build_nbh_dataset(readings)
    totals = {r.interval: r.consumption for r in ds.rows}
    assert totals[1] == pytest.approx(0.3)
    assert totals[2] == pytest.approx(0.1)
    assert report.flagged == [(dt.date(2009, 1, 1), 2)]


def test_nbh_conservation_when_all_meters_present():
    rng = np.random.default_rng(11)
    readings = [make_reading(m, 4, slot, float(rng.uniform(0, 2)))
                for m in (1, 2, 3) for slot in range(1, 49)]
    ds, report = build_nbh_dataset(readings)
    assert not report.flagged
    per_slot = {}
    for r in readings:
        per_slot[r.slot] = per_slot.get(r.slot, 0.0) + r.kwh
    for row in ds.rows:
        assert row.consumption == pytest.approx(per_slot[row.interval], rel=1e-12)


# ---------------------------------------------------------------------------
# cleaning

def _dataset_from_values(values, interval=1):
    # all rows in January so they share one (month, interval) cleaning group
    assert len(values) <= 31
    rows = []
    day = dt.date(2009, 1, 1)
    for i, v in enumerate(values):
        rows.append(feature_vector(day + dt.timedelta(days=i), interval, "hour", v))
    return Dataset.from_rows("SH", 1, rows, ("interval", "day_type", "month", "season"))


def test_clean_keeps_outlier_within_three_sigma():
    values = [1.0, 1.0, 1.0, 1.0, 100.0]
    mu = statistics.fmean(values)
    sigma = statistics.pstdev(values)
    assert abs(100.0 - mu) <= 3 * sigma  # oracle: 79.2 <= 118.8
    kept, removed = clean_dataset(_dataset_from_values(values))
    assert len(removed) == 0
    assert len(kept.rows) == 5


def test_clean_constant_group_removes_nothing():
    kept, removed = clean_dataset(_dataset_from_values([2.0, 2.0, 2.0, 2.0]))
    assert len(removed) == 0
    assert len(kept.rows) == 4


def test_clean_removes_far_outlier():
    values = [1.0] * 30 + [50.0]
    mu = statistics.fmean(values)
    sigma = statistics.pstdev(values)
    assert 50.0 - mu > 3 * sigma  # oracle: mu ~ 2.58, sigma ~ 8.66
    kept, removed = clean_dataset(_dataset_from_values(values))
    assert [r.consumption for r in removed.rows] == [50.0]
    assert len(kept.rows) == 30


def test_clean_small_group_skipped():
    kept, removed = clean_dataset(_dataset_from_values([5.0]))
    assert len(removed) == 0 and len(kept.rows) == 1


def test_clean_is_idempotent_on_fixture():
    values = [1.0] * 30 + [50.0]
    once, removed1 = clean_dataset(_dataset_from_values(values))
    twice, removed2 = clean_dataset(once)
    assert len(removed1) and not len(removed2)
    assert [r.consumption for r in twice.rows] == [r.consumption for r in once.rows]


def test_clean_groups_by_month_and_interval():
    # same values in two different hours must be judged separately
    day = dt.date(2009, 1, 1)
    rows = []
    for i in range(20):
        rows.append(feature_vector(day + dt.timedelta(days=i), 1, "hour", 1.0))
        rows.append(feature_vector(day + dt.timedelta(days=i), 2, "hour", 100.0))
    ds = Dataset.from_rows("SH", 1, rows, ("interval", "day_type", "month", "season"))
    kept, removed = clean_dataset(ds)
    assert len(removed) == 0  # each group is constant


# ---------------------------------------------------------------------------
# splitting

def _weekly_dataset(weeks, start=dt.date(2009, 1, 5)):
    rows = []
    for d in range(weeks * 7):
        date = start + dt.timedelta(days=d)
        for hour in range(1, 25):
            rows.append(feature_vector(date, hour, "hour", 1.0))
    return Dataset.from_rows("SH", 1, rows, ("interval", "day_type", "month", "season"))


def test_split_eight_weeks_yields_two_validation_weeks():
    ds = _weekly_dataset(8)
    train, valid = split_train_validation(ds, seed=1)
    valid_dates = sorted({r.date for r in valid.rows})
    assert len(valid_dates) == 14  # two whole weeks
    # each validation week is contiguous Monday..Sunday
    for i in (0, 7):
        week = valid_dates[i:i + 7]
        assert week[0].weekday() == 0
        assert (week[-1] - week[0]).days == 6
    assert len(valid.rows) / len(ds.rows) == pytest.approx(0.25)


def test_split_partitions_dataset():
    ds = _weekly_dataset(8)
    train, valid = split_train_validation(ds, seed=5)
    key = lambda r: (r.date, r.interval)
    merged = sorted(train.rows + valid.rows, key=key)
    assert merged == sorted(ds.rows, key=key)
    assert not ({key(r) for r in train.rows} & {key(r) for r in valid.rows})


def test_split_deterministic_for_seed():
    ds = _weekly_dataset(8)
    a = split_train_validation(ds, seed=42)
    b = split_train_validation(ds, seed=42)
    assert [r.date for r in a[1].rows] == [r.date for r in b[1].rows]


def test_split_three_weeks_fails():
    with pytest.raises(SplitError):
        split_train_validation(_weekly_dataset(3), seed=0)


def test_split_leftover_weeks_go_to_training():
    ds = _weekly_dataset(9)
    train, valid = split_train_validation(ds, seed=3)
    valid_dates = sorted({r.date for r in valid.rows})
    assert len(valid_dates) == 14  # still one week per complete 4-week block
    last_week_start = dt.date(2009, 1, 5) + dt.timedelta(weeks=8)
    assert all(d < last_week_start for d in valid_dates)


# ---------------------------------------------------------------------------
# CSV round trip

def test_dataset_csv_round_trip(tmp_path):
    ds, _ = build_sh_dataset([make_reading(1392, 195, 35, 0.256),
                              make_reading(1392, 195, 36, 0.265)])
    path = tmp_path / "sh.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back.level == "SH" and back.meter_id == 1392
    assert back.rows == ds.rows
    header = path.read_text().splitlines()[0]
    assert header == ("level,meter_id,date,interval,hour_or_slot,"
                      "day_period,day_type,month,season,consumption_kwh")
