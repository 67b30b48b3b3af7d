"""Exactness oracles for the columnar data path.

Each fast path is checked against the slow path it replaced, bit for bit:
the chunked parser against the per-line parser, the array synthesis
against the scalar ``expected_kwh`` formula, the columnar build, clean
and split against the row-by-row algorithms kept below as references, and
the synthetic ingest against parsing the synthesized raw lines.
"""

import dataclasses
import datetime as dt
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import ingest
from gridwatch.ingest import (EPOCH, FeatureVector, MeterReading, build_nbh_dataset,
                              build_sh_dataset, clean_dataset, group_by_meter, parse_raw,
                              split_train_validation, wire_kwh)
from gridwatch.scenario import ScenarioConfig, _ingest
from gridwatch.synth import (DEFAULT_START_DAY_CODE, SynthProfile, expected_kwh, meter_scale,
                             synth_columns, synth_raw_lines, synth_readings)


def bits(values) -> list[int]:
    """The float64 bit patterns, so -0.0 != 0.0 and every ulp counts."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# (a) parsing: the chunked path equals the per-line path

CANONICAL = st.builds(lambda m, day, slot, whole, frac: f"{m} {day * 100 + slot:05d} {whole}.{frac}",
                      st.integers(1, 10 ** 6), st.integers(1, 999), st.integers(1, 48),
                      st.integers(0, 10 ** 4), st.integers(0, 10 ** 7))
TRICKY = st.sampled_from([
    "1,00101,0.5", "1, 00101 ,0.5", "1 00101 0.5\r\n", "1 00101 0.5\n", "1 00101 0.5\r",
    "", "   ", "\n", "\r\n", "0001 00101 0.25", "1 00101 00.250", "1 00101 1e3",
    "1 00101 nan", "1 00101 -0.5", "1 00101 -0.0", "1 00100 0.5", "1 00149 0.5",
    "1 00001 0.5", "0 00101 0.5", "000 00101 0.5", "1 00101 0.", "1 00101 .5",
    "1 00101 0.5 7", "1  00101 0.5", " 1 00101 0.5", "1\t00101\t0.5", "1 00101 1_0.5",
    "1234567890123456 00101 0.5", "1 00101 " + "9" * 30 + ".5", "1 00101 0.5\n2 00101 0.5",
    "100101 0.5", "1 001010.5", "1 00101 0.5 ", "1 0010 10.5",
    "9223372036854775807 00101 0.5", "9223372036854775808 00101 0.5",
])
MIXED = st.lists(st.one_of(CANONICAL, CANONICAL, TRICKY, st.text(max_size=12)), max_size=40)


def _same_parse(got, want) -> None:
    (readings, issues), (ref_readings, ref_issues) = got, want
    assert readings.meter.tolist() == ref_readings.meter.tolist()
    assert readings.day.tolist() == ref_readings.day.tolist()
    assert readings.slot.tolist() == ref_readings.slot.tolist()
    assert bits(readings.kwh) == bits(ref_readings.kwh)
    assert issues == ref_issues     # line numbers, messages and line text


@settings(max_examples=300, deadline=None)
@given(MIXED, st.integers(1, 7))
def test_parse_raw_equals_the_per_line_path(lines, chunk):
    """Chunks of 1..7 lines, so runs of canonical lines straddle chunk
    boundaries next to lines that force the per-line path."""
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
        result = parse_raw(iter(lines))
    _same_parse((result.readings, result.issues), ingest._parse_lines(lines, 1))


def test_parse_raw_canonical_chunks_take_the_bulk_path():
    lines = list(synth_raw_lines(SynthProfile(), 2, 1, seed=4))
    reference = ingest._parse_lines(lines, 1)
    with mock.patch.object(ingest, "_parse_lines", side_effect=AssertionError("per-line path")):
        result = parse_raw(lines)
    _same_parse((result.readings, result.issues), reference)


# ---------------------------------------------------------------------------
# (b) synthesis: the arrays equal the scalar formula

def _reference_readings(profile, nb_sh, weeks, seed):
    """The scalar generator: one expected_kwh call per reading."""
    for meter_id in range(1, nb_sh + 1):
        scale = meter_scale(profile, seed, meter_id)
        for day_code in range(DEFAULT_START_DAY_CODE, DEFAULT_START_DAY_CODE + 7 * weeks):
            date = EPOCH + dt.timedelta(days=day_code - 1)
            if profile.noise_sd > 0:
                rng = np.random.default_rng(np.random.SeedSequence((seed, meter_id, day_code)))
                noise = rng.normal(0.0, profile.noise_sd, 48)
            else:
                noise = np.zeros(48)
            for slot in range(1, 49):
                kwh = max(0.0, expected_kwh(profile, scale, date, slot) + float(noise[slot - 1]))
                yield MeterReading(meter_id, day_code, slot, kwh)


PROFILES = {
    "default": SynthProfile(),
    "noise_free": dataclasses.replace(SynthProfile(), noise_sd=0.0),
    "clamped": dataclasses.replace(SynthProfile(), noise_sd=0.4, base_load=0.01),
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_synthesis_equals_scalar_reference(name):
    profile = PROFILES[name]
    reference = list(_reference_readings(profile, 3, 2, seed=11))
    columns = synth_columns(profile, 3, 2, seed=11)
    assert list(columns) == reference
    assert bits(columns.kwh) == bits([r.kwh for r in reference])
    assert list(synth_readings(profile, 3, 2, seed=11)) == reference
    lines = [f"{r.meter_id} {r.day_code * 100 + r.slot:05d} {r.kwh:.6f}" for r in reference]
    assert list(synth_raw_lines(profile, 3, 2, seed=11)) == lines
    if name == "clamped":
        assert any(r.kwh == 0.0 for r in reference)


# ---------------------------------------------------------------------------
# (c) build, clean and split: columns equal the row-by-row algorithms

def _reference_vector(date, interval, kind, kwh):
    clock = interval - 1 if kind == "hour" else (interval - 1) // 2
    month = date.month
    season = {12: "winter", 1: "winter", 2: "winter", 3: "spring", 4: "spring",
              5: "spring", 6: "summer", 7: "summer", 8: "summer"}.get(month, "autumn")
    return FeatureVector(date, interval, "day" if 7 <= clock <= 22 else "night",
                         "weekend" if date.weekday() >= 5 else "weekday", month, season, kwh)


def _reference_build_sh(readings):
    by_day, duplicates = {}, 0
    for r in readings:
        slots = by_day.setdefault(r.day_code, {})
        if r.slot in slots:
            duplicates += 1
            continue
        slots[r.slot] = r.kwh
    rows, flagged = [], []
    for day_code in sorted(by_day):
        date = EPOCH + dt.timedelta(days=day_code - 1)
        slots = by_day[day_code]
        for hour in range(1, 25):
            first, second = slots.get(2 * hour - 1), slots.get(2 * hour)
            if first is not None and second is not None:
                rows.append(_reference_vector(date, hour, "hour", first + second))
            elif first is not None or second is not None:
                flagged.append((date, hour))
    return rows, flagged, duplicates


def _reference_build_nbh(readings):
    all_meters = {r.meter_id for r in readings}
    by_slot, duplicates = {}, 0
    for r in readings:
        per_meter = by_slot.setdefault((r.day_code, r.slot), {})
        if r.meter_id in per_meter:
            duplicates += 1
            continue
        per_meter[r.meter_id] = r.kwh
    rows, flagged = [], []
    for day_code, slot in sorted(by_slot):
        date = EPOCH + dt.timedelta(days=day_code - 1)
        per_meter = by_slot[(day_code, slot)]
        total = 0.0
        for m in sorted(per_meter):     # left to right, as sum() adds on Python <= 3.11
            total += per_meter[m]
        rows.append(_reference_vector(date, slot, "slot", total))
        if len(per_meter) < len(all_meters):
            flagged.append((date, slot))
    return rows, flagged, duplicates


def _reference_clean(rows):
    groups = {}
    for row in rows:
        groups.setdefault((row.month, row.interval), []).append(row)
    kept, removed = [], []
    for key in sorted(groups):
        group = groups[key]
        if len(group) < 2:
            kept.extend(group)
            continue
        values = np.array([r.consumption for r in group])
        mu, sigma = float(values.mean()), float(values.std())
        if sigma == 0.0:
            kept.extend(group)
            continue
        for row in group:
            (removed if abs(row.consumption - mu) > 3.0 * sigma else kept).append(row)
    kept.sort(key=lambda r: (r.date, r.interval))
    removed.sort(key=lambda r: (r.date, r.interval))
    return kept, removed


def _reference_split(rows, seed):
    start = min(r.date for r in rows)
    end = max(r.date for r in rows)
    anchor = start + dt.timedelta(days=(7 - start.weekday()) % 7)
    n_blocks = ((end - anchor).days + 1) // 7 // 4
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A7)))
    valid_weeks = {4 * b + int(rng.integers(4)) for b in range(n_blocks)}
    train = [r for r in rows if (r.date - anchor).days // 7 not in valid_weeks]
    valid = [r for r in rows if (r.date - anchor).days // 7 in valid_weeks]
    return train, valid


def _random_readings(seed):
    """Readings with gaps, duplicates, partial slots, outliers, one-row
    (month, interval) groups and non-contiguous meter ids, shuffled."""
    rng = np.random.default_rng(seed)
    meters = sorted(rng.choice(np.arange(1, 40), size=int(rng.integers(1, 5)), replace=False))
    first = int(rng.integers(1, 60))
    days = list(range(first, first + int(rng.integers(29, 50))))
    out = []
    for m in meters:
        for day in days:
            for slot in range(1, 49):
                if rng.random() < 0.04:
                    continue                                  # gap
                kwh = float(rng.uniform(0.0, 2.0))
                if rng.random() < 0.3:
                    kwh = round(kwh, 6)                       # as parsed from the wire
                if rng.random() < 0.01:
                    kwh *= 40.0                               # outlier
                out.append(MeterReading(int(m), day, slot, kwh))
                if rng.random() < 0.01:
                    out.append(MeterReading(int(m), day, slot, float(rng.uniform(0, 9))))
        lone = first + 200 + int(rng.integers(0, 30))       # a far day: one-row groups
        out += [MeterReading(int(m), lone, 5, 0.25), MeterReading(int(m), lone, 6, 0.5)]
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _same_rows(ds, rows) -> None:
    assert ds.rows == rows
    assert bits(ds.kwh) == bits([r.consumption for r in rows])


@pytest.mark.parametrize("seed", range(12))
def test_columnar_build_clean_split_equal_the_row_algorithms(seed):
    readings = _random_readings(seed)
    per_meter = group_by_meter(readings)
    assert list(per_meter) == sorted({r.meter_id for r in readings})
    for meter_id, columns in per_meter.items():
        mine = [r for r in readings if r.meter_id == meter_id]
        assert list(columns) == mine

        ds, report = build_sh_dataset(mine)
        rows, flagged, duplicates = _reference_build_sh(mine)
        _same_rows(ds, rows)
        assert (report.flagged, report.duplicates) == (flagged, duplicates)

        kept, removed = clean_dataset(ds)
        ref_kept, ref_removed = _reference_clean(rows)
        _same_rows(kept, ref_kept)
        _same_rows(removed, ref_removed)

        train, valid = split_train_validation(kept, seed)
        ref_train, ref_valid = _reference_split(ref_kept, seed)
        _same_rows(train, ref_train)
        _same_rows(valid, ref_valid)

    nbh, report = build_nbh_dataset(readings)
    rows, flagged, duplicates = _reference_build_nbh(readings)
    _same_rows(nbh, rows)
    assert (report.flagged, report.duplicates) == (flagged, duplicates)
    kept, removed = clean_dataset(nbh)
    ref_kept, ref_removed = _reference_clean(rows)
    _same_rows(kept, ref_kept)
    _same_rows(removed, ref_removed)


def test_clean_keeps_row_order_among_equal_keys():
    """Rows sharing (date, interval) keep their input order in both outputs."""
    rng = np.random.default_rng(5)
    rows = [_reference_vector(dt.date(2009, 3, 2 + int(rng.integers(0, 6))), 4, "hour",
                              float(rng.uniform(0, 1)) * (60.0 if i % 50 == 7 else 1.0))
            for i in range(300)]
    ds = ingest.Dataset.from_rows("SH", 1, rows, ingest.SH_ATTRIBUTES)
    kept, removed = clean_dataset(ds)
    ref_kept, ref_removed = _reference_clean(rows)
    assert len(ref_removed) > 1
    _same_rows(kept, ref_kept)
    _same_rows(removed, ref_removed)


GROUP_SIZES = st.one_of(st.sampled_from([1, 2, 8, 9, 128, 129, 300]), st.integers(1, 300))


@settings(max_examples=60, deadline=None)
@given(st.lists(GROUP_SIZES, min_size=1, max_size=6), st.sampled_from(["hour", "slot"]),
       st.sampled_from([1e-170, 1e-3, 1.0, 1e6]), st.integers(0, 2 ** 32 - 1))
def test_clean_equals_the_per_group_loop(sizes, kind, scale, seed):
    """Groups of 1 to 300 rows, among them sizes where numpy's pairwise sum
    changes its blocks (8 and 9, 128 and 129), interleaved in row order,
    with outliers and with constant groups, and at a scale where squared
    deviations underflow (sigma 0 keeps a group whole). ``_reference_clean``
    takes each group's mean and sigma with its own ``np.mean``/``np.std``
    call."""
    rng = np.random.default_rng(seed)
    rows = []
    for g, size in enumerate(sizes):
        month, interval = g % 12 + 1, g // 12 + 3
        constant = rng.random() < 0.2
        for _ in range(size):
            value = 0.5 if constant else float(rng.lognormal()) * (30.0 if rng.random() < 0.03
                                                                    else 1.0)
            rows.append(_reference_vector(dt.date(2010, month, int(rng.integers(1, 29))),
                                          interval, kind, scale * value))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    level = ("SH", 1, ingest.SH_ATTRIBUTES) if kind == "hour" \
        else ("NBH", None, ingest.NBH_ATTRIBUTES)
    ds = ingest.Dataset.from_rows(level[0], level[1], rows, level[2])
    kept, removed = clean_dataset(ds)
    ref_kept, ref_removed = _reference_clean(rows)
    _same_rows(kept, ref_kept)
    _same_rows(removed, ref_removed)


@pytest.mark.parametrize("size", [2, 7, 8, 9, 16, 17, 127, 128, 129, 130, 255, 256, 257, 300])
def test_row_statistics_keep_the_bits_of_one_group(size):
    """What ``clean_dataset`` relies on: numpy's mean and std of each row of
    a matrix have the bits of the same call on that row alone."""
    values = np.random.default_rng(size).lognormal(size=(5, size)) * 1e3
    assert bits(values.mean(axis=1)) == bits([row.mean() for row in values])
    assert bits(values.std(axis=1)) == bits([row.std() for row in values])


def test_nbh_total_adds_meters_left_to_right():
    """Ten meters of 0.1 kWh: plain left-to-right addition gives
    0.9999999999999999; compensated summation (sum() from Python 3.12 on)
    would give 1.0."""
    readings = [MeterReading(m, 10, 7, 0.1) for m in range(10, 0, -1)]
    ds, _ = build_nbh_dataset(readings)
    assert ds.kwh.tolist() == [0.9999999999999999]


def test_parse_raw_reports_meter_ids_beyond_int64():
    result = parse_raw(["9223372036854775807 00101 0.5", "9223372036854775808 00101 0.5"])
    assert result.readings.meter.tolist() == [2 ** 63 - 1]
    assert [(i.line_no, i.message) for i in result.issues] == [
        (2, "meter id 9223372036854775808 above 9223372036854775807")]


# ---------------------------------------------------------------------------
# (d) synthetic ingest: the columns equal the parsed raw lines

def _nudged(k: float, step: int) -> float:
    """k moved one ulp up (step 1) or down (-1), or kept (0)."""
    return math.nextafter(k, step * math.inf) if step else k


# exact ties: k * 1e6 is n + 0.5 exactly only for k an odd multiple of 1/128
EXACT_TIES = st.integers(-2 ** 50, 2 ** 50).map(lambda j: (2 * j + 1) / 128)
NEAR_TIES = st.integers(-10 ** 16, 10 ** 16).map(lambda n: (n + 0.5) / 1e6)
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 5e-7, -5e-7,
                         2 ** 52 / 1e6, -2 ** 52 / 1e6, 2 ** 53 / 1e6, 1e300, 1.8e302,
                         -1.8e302, 1.7976931348623157e308, float("inf"), float("-inf"),
                         float("nan")])
WIRE_VALUES = st.tuples(
    st.one_of(st.floats(), st.floats(-1e-300, 1e-300), st.floats(-1e4, 1e4), EXACT_TIES,
              NEAR_TIES, EDGES),
    st.sampled_from([0, 0, -1, 1])).map(lambda kn: _nudged(*kn))


@settings(max_examples=500, deadline=None)
@given(st.lists(WIRE_VALUES, min_size=1, max_size=40), st.integers(0, 40))
def test_wire_kwh_equals_parsing_the_six_decimal_text(values, before):
    """Both signs, zeros, subnormals, exact ties and ties one ulp off,
    products at or beyond 2**52 and products that overflow, mixed in one
    array so the fast and the per-value route interleave; and the same
    values again across the boundary of two rounding blocks, ``before`` of
    them (at most) in the first."""
    want = [float(f"{k:.6f}") for k in values]
    assert bits(wire_kwh(np.array(values))) == bits(want)
    at = ingest._WIRE_BLOCK - min(before, len(values))
    wide, expected = np.full(ingest._WIRE_BLOCK + 40, 0.25), np.full(ingest._WIRE_BLOCK + 40, 0.25)
    wide[at:at + len(values)], expected[at:at + len(values)] = values, want
    got = wire_kwh(wide)
    assert bits(got[at:at + len(values)]) == bits(want)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_wire_kwh_rounds_exact_ties_half_to_even():
    ties = np.array([1 / 128, 3 / 128, -1 / 128, 2 ** 40 + 1 / 128])
    assert [f"{k:.6f}" for k in ties] == ["0.007812", "0.023438", "-0.007812",
                                         "1099511627776.007812"]
    assert bits(wire_kwh(ties)) == bits([0.007812, 0.023438, -0.007812, 1099511627776.007812])


SYNTH_PROFILES = st.sampled_from([
    SynthProfile(), PROFILES["noise_free"], PROFILES["clamped"],
    dataclasses.replace(SynthProfile(), base_load=3e3),
    dataclasses.replace(SynthProfile(), base_load=1e10),   # products beyond 2**52
])


@settings(max_examples=30, deadline=None)
@given(SYNTH_PROFILES, st.integers(1, 3), st.integers(4, 6), st.integers(0, 2 ** 32))
def test_synthetic_ingest_equals_parsing_the_raw_lines(profile, nb_sh, weeks, seed):
    cfg = ScenarioConfig(nb_sh=nb_sh, weeks=weeks, seed=seed, profile=profile)
    got = _ingest(cfg)
    want = parse_raw(synth_raw_lines(profile, nb_sh, weeks, seed))
    assert got.issues == want.issues == []
    _same_parse((got.readings, got.issues), (want.readings, want.issues))
    if profile is PROFILES["clamped"]:
        assert (got.readings.kwh == 0.0).any()


def test_synthetic_ingest_refuses_a_profile_that_overflows():
    cfg = ScenarioConfig(nb_sh=1, weeks=4, profile=SynthProfile(base_load=float("inf")))
    assert parse_raw(synth_raw_lines(cfg.profile, 1, 4, cfg.seed)).issues   # "inf" lines
    with pytest.raises(ValueError, match="non-finite"):
        _ingest(cfg)
