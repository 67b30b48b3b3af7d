import csv
import dataclasses
import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.attacks import (ATTACK_TYPES, AttackSpec, Corpus, Series, apply_attack,
                               corpus_csv_rows, default_spec, generate_corpus,
                               select_attack_dates, series_from_dataset)
from gridwatch.errors import ContractViolation
from gridwatch.ingest import Dataset, clock_hour, day_code_of, feature_vector

START = dt.date(2009, 1, 5)


def _series(kind, meter_id, dates, intervals, values):
    return Series(Dataset("SH" if kind == "hour" else "NBH", meter_id,
                          np.array([day_code_of(d) for d in dates], dtype=np.int64),
                          np.array(intervals, dtype=np.int64),
                          np.array(values, dtype=float), ()))


def hourly_series(days=7, value=1.0, meter_id=1, values=None):
    dates, intervals, vals = [], [], []
    i = 0
    for d in range(days):
        for hour in range(1, 25):
            dates.append(START + dt.timedelta(days=d))
            intervals.append(hour)
            vals.append(value if values is None else values[i])
            i += 1
    return _series("hour", meter_id, dates, intervals, vals)


def slot_series(days=2, value=10.0):
    dates, intervals = [], []
    for d in range(days):
        for slot in range(1, 49):
            dates.append(START + dt.timedelta(days=d))
            intervals.append(slot)
    n = len(intervals)
    return _series("slot", None, dates, intervals, np.full(n, value))


PEAK_CLOCK_HOURS = {7, 8, 9, 19, 20, 21, 22}


# ---------------------------------------------------------------------------
# t1 / t3: peak windows

def test_t1_off_peak_hours_untouched():
    s = hourly_series(days=3, value=0.5)
    out = apply_attack(s, default_spec("t1", seed=1))
    for i in range(len(s)):
        ch = clock_hour(s.intervals[i], "hour")
        if ch not in PEAK_CLOCK_HOURS:
            assert out.attacked[i] == s.values[i]  # bit-exact
            assert not out.labels[i]


def test_t1_peak_hours_scaled_within_range_and_labeled():
    s = hourly_series(days=5, value=0.5)
    out = apply_attack(s, default_spec("t1", seed=2))
    hit = 0
    for i in range(len(s)):
        ch = clock_hour(s.intervals[i], "hour")
        if ch in PEAK_CLOCK_HOURS:
            factor = out.attacked[i] / s.values[i]
            assert 0.8 <= factor <= 4.0
            assert out.labels[i]
            hit += 1
    assert hit == 5 * len(PEAK_CLOCK_HOURS)


def test_t1_deterministic():
    s = hourly_series(days=4, value=0.7)
    a = apply_attack(s, default_spec("t1", seed=9))
    b = apply_attack(s, default_spec("t1", seed=9))
    assert np.array_equal(a.attacked, b.attacked)
    assert np.array_equal(a.labels, b.labels)


def test_t3_factor_range():
    s = hourly_series(days=5, value=1.0)
    out = apply_attack(s, default_spec("t3", seed=3))
    factors = out.attacked[out.labels] / s.values[out.labels]
    assert factors.min() >= 4.0 and factors.max() <= 8.0


def test_t3_mean_uplift_exceeds_t1_monte_carlo():
    # E[t3 factor] = 6 vs E[t1 factor] = 2.4 over 1000 seeded days
    s = hourly_series(days=1000, value=1.0)
    t1 = apply_attack(s, default_spec("t1", seed=7))
    t3 = apply_attack(s, default_spec("t3", seed=7))
    assert t3.attacked[t3.labels].mean() > t1.attacked[t1.labels].mean()
    assert t1.attacked[t1.labels].mean() == pytest.approx(2.4, rel=0.05)
    assert t3.attacked[t3.labels].mean() == pytest.approx(6.0, rel=0.05)


def test_t1_applies_to_slot_series():
    s = slot_series(days=2)
    out = apply_attack(s, default_spec("t1", seed=1))
    for i in range(len(s)):
        in_peak = clock_hour(s.intervals[i], "slot") in PEAK_CLOCK_HOURS
        assert out.labels[i] == in_peak


# ---------------------------------------------------------------------------
# t2: daily windows

def test_t2_windows_are_contiguous_and_long_enough():
    s = hourly_series(days=50, value=0.2)
    out = apply_attack(s, default_spec("t2", seed=11))
    for d in range(50):
        day = slice(d * 24, (d + 1) * 24)
        flags = out.labels[day]
        hours = [h for h, f in enumerate(flags) if f]
        assert hours, "every day draws an attack window"
        assert len(hours) >= 4  # minOffTime
        assert hours == list(range(hours[0], hours[-1] + 1))  # contiguous
        assert hours[0] <= 23 - 4


def test_t2_inside_window_scaled_outside_unchanged():
    s = hourly_series(days=20, value=0.2)
    out = apply_attack(s, default_spec("t2", seed=5))
    inside = out.labels
    factors = out.attacked[inside] / s.values[inside]
    assert factors.min() >= 0.8 and factors.max() <= 4.0
    assert np.array_equal(out.attacked[~inside], s.values[~inside])


def test_t2_rejects_unsorted_series():
    s = hourly_series(days=2)
    shuffled = Series(s.data.take(np.arange(len(s))[::-1]))
    with pytest.raises(ContractViolation):
        apply_attack(shuffled, default_spec("t2"))
    repeated = Series(s.data.take(np.r_[0, np.arange(len(s))]))   # first key twice
    with pytest.raises(ContractViolation):
        apply_attack(repeated, default_spec("t2"))


# ---------------------------------------------------------------------------
# t4: fluctuation

def test_t4_even_intervals_unchanged_odd_attacked():
    s = hourly_series(days=3, value=0.4)
    out = apply_attack(s, default_spec("t4", seed=2))
    for d in range(3):
        for k in range(24):
            i = d * 24 + k
            if k % 2 == 0:
                assert out.attacked[i] == s.values[i]
                assert not out.labels[i]
            else:
                assert out.labels[i]
                assert 2.0 <= out.attacked[i] / s.values[i] <= 4.0


def test_t4_increases_first_difference_variance():
    rng = np.random.default_rng(0)
    base = 0.5 + 0.2 * np.sin(np.linspace(0, 40, 1008))
    s = hourly_series(days=42, values=list(base))
    out = apply_attack(s, default_spec("t4", seed=6))
    var_base = np.diff(s.values).var()
    var_attacked = np.diff(out.attacked).var()
    assert var_attacked > var_base


def test_t4_period_parameter():
    s = hourly_series(days=1, value=1.0)
    spec = AttackSpec("t4", 2.0, 4.0, period=4, seed=1)
    out = apply_attack(s, spec)
    assert not out.labels[:4].any()
    assert out.labels[4:8].all()
    assert not out.labels[8:12].any()


# ---------------------------------------------------------------------------
# shared invariants

@pytest.mark.parametrize("attack_type", ATTACK_TYPES)
def test_benign_intervals_identical(attack_type):
    s = hourly_series(days=10, values=list(np.random.default_rng(1).uniform(0.1, 2.0, 240)))
    out = apply_attack(s, default_spec(attack_type, seed=4))
    assert np.array_equal(out.attacked[~out.labels], s.values[~out.labels])
    assert (out.attacked >= 0).all()


@pytest.mark.parametrize("attack_type", ATTACK_TYPES)
def test_scale_freeness(attack_type):
    values = list(np.random.default_rng(2).uniform(0.1, 2.0, 240))
    s1 = hourly_series(days=10, values=values)
    s2 = hourly_series(days=10, values=[2.0 * v for v in values])
    a1 = apply_attack(s1, default_spec(attack_type, seed=8))
    a2 = apply_attack(s2, default_spec(attack_type, seed=8))
    assert np.array_equal(a2.attacked, 2.0 * a1.attacked)  # exact for c = 2
    s3 = hourly_series(days=10, values=[1.7 * v for v in values])
    a3 = apply_attack(s3, default_spec(attack_type, seed=8))
    np.testing.assert_allclose(a3.attacked, 1.7 * a1.attacked, rtol=1e-12)


def test_empty_series_is_noop():
    s = _series("hour", 1, [], [], [])
    out = apply_attack(s, default_spec("t1"))
    assert len(out.attacked) == 0 and len(out.labels) == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec("t1", 0.0, 4.0)
    with pytest.raises(ValueError):
        AttackSpec("t1", 0.8, 4.0, peak_windows=((22, 25),))
    with pytest.raises(ValueError):
        AttackSpec("t9", 0.8, 4.0)
    with pytest.raises(ValueError):
        AttackSpec("t2", 0.8, 4.0, min_off_time=0)


# ---------------------------------------------------------------------------
# corpus generation

def _sh_dataset(days=8, meter_id=1):
    rows = []
    for d in range(days):
        date = START + dt.timedelta(days=d)
        for hour in range(1, 25):
            rows.append(feature_vector(date, hour, "hour", 0.5 + 0.01 * hour))
    return Dataset.from_rows("SH", meter_id, rows, ("interval", "day_type", "month", "season"))


def test_corpus_counting_single_type():
    ds = _sh_dataset(days=8)
    corpus = generate_corpus({1: ds}, None, {"t1": 1.0}, seed=3)
    by_type = {v.attack_type: v for v in corpus.variants}
    assert set(by_type) == {"none", "t1"}
    assert len({d for d in by_type["none"].labeled.base.dates}) == 8
    assert len({d for d in by_type["t1"].labeled.base.dates}) == 8
    # every day carries the attack when the mix proportion is 1
    attacked_days = {by_type["t1"].labeled.base.dates[i]
                     for i in np.nonzero(by_type["t1"].labeled.labels)[0]}
    assert len(attacked_days) == 8


def test_corpus_half_mix_selects_half_the_days():
    ds = _sh_dataset(days=8)
    corpus = generate_corpus({1: ds}, None, {"t2": 0.5}, seed=3)
    t2 = next(v for v in corpus.variants if v.attack_type == "t2")
    attacked_days = {t2.labeled.base.dates[i] for i in np.nonzero(t2.labeled.labels)[0]}
    assert len(attacked_days) == 4
    assert attacked_days == select_attack_dates(t2.labeled.base.dates, 0.5, 3, "t2")


def test_corpus_labels_partition():
    ds = _sh_dataset(days=4)
    corpus = generate_corpus({1: ds}, None, {t: 1.0 for t in ATTACK_TYPES}, seed=1)
    for variant in corpus.variants:
        labels = variant.labeled.labels
        assert labels.dtype == bool and len(labels) == len(variant.labeled.base)


def test_corpus_byte_identical_for_same_seed():
    ds = _sh_dataset(days=8)
    rows_a = list(corpus_csv_rows(generate_corpus({1: ds}, None, {"t1": 1.0, "t4": 1.0}, seed=5)))
    rows_b = list(corpus_csv_rows(generate_corpus({1: ds}, None, {"t1": 1.0, "t4": 1.0}, seed=5)))
    assert rows_a == rows_b


def _nbh_dataset(days=8):
    rows = []
    for d in range(days):
        date = START + dt.timedelta(days=d)
        for slot in range(1, 49):
            rows.append(feature_vector(date, slot, "slot", 25.0))
    return Dataset.from_rows("NBH", None, rows,
                             ("interval", "day_period", "day_type", "month", "season"))


def test_corpus_attack_days_shared_across_meters_and_levels():
    sh = {1: _sh_dataset(days=8, meter_id=1), 2: _sh_dataset(days=8, meter_id=2)}
    corpus = generate_corpus(sh, _nbh_dataset(days=8), {"t3": 0.5}, seed=9)
    attacked = {}
    for v in corpus.variants:
        if v.attack_type == "t3":
            days = {v.labeled.base.dates[i] for i in np.nonzero(v.labeled.labels)[0]}
            attacked[(v.level, v.labeled.base.meter_id)] = days
    assert len(set(map(frozenset, attacked.values()))) == 1  # same days everywhere


def test_corpus_requires_data():
    with pytest.raises(ValueError):
        generate_corpus({}, None, {"t1": 1.0}, seed=0)


def _without_day(ds, date):
    return ds.take(ds.day != day_code_of(date))


def test_corpus_attack_days_chosen_once_when_a_series_lacks_a_day():
    """Meter 2 and the neighborhood each lack one day; every series attacks
    the days chosen over all series' days that it has."""
    sh = {1: _sh_dataset(days=28, meter_id=1),
          2: _without_day(_sh_dataset(days=28, meter_id=2), dt.date(2009, 1, 8))}
    nbh = _without_day(_nbh_dataset(days=28), dt.date(2009, 1, 20))
    corpus = generate_corpus(sh, nbh, {"t1": 0.5}, seed=3)
    chosen = select_attack_dates([START + dt.timedelta(days=d) for d in range(28)], 0.5, 3, "t1")
    assert len(chosen) == 14
    t1 = [v for v in corpus.variants if v.attack_type == "t1"]
    assert [(v.level, v.labeled.base.meter_id) for v in t1] == [("SH", 1), ("SH", 2),
                                                                ("NBH", None)]
    for v in t1:
        base = v.labeled.base
        attacked_days = {base.dates[i] for i in np.flatnonzero(v.labeled.labels)}
        assert attacked_days == chosen & set(base.dates)


def test_series_view_lists_are_python_values_built_once():
    s = series_from_dataset(_sh_dataset(days=2).take(np.arange(48)[::-1]))
    assert type(s.dates[0]) is dt.date and type(s.intervals[0]) is int
    assert (s.dates[0], s.intervals[0], s.dates[-1], s.intervals[-1]) == \
        (START, 1, START + dt.timedelta(days=1), 24)
    assert s.dates is s.dates and s.intervals is s.intervals
    assert (s.kind, s.meter_id, len(s)) == ("hour", 1, 48) and s.values is s.data.kwh


# ---------------------------------------------------------------------------
# exactness oracle: the per-row attack the array version replaced

def _reference_attack(series, spec):
    """Per row and per day, with one scalar draw per attacked row."""
    keys = list(zip(series.dates, series.intervals))
    if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
        raise ContractViolation("series is not strictly chronological")
    attacked = series.values.copy()
    labels = np.zeros(len(series), dtype=bool)
    groups = []
    for i, date in enumerate(series.dates):
        if groups and groups[-1][0] == date:
            groups[-1][1].append(i)
        else:
            groups.append((date, [i]))
    for date, ix in groups:
        rng = np.random.default_rng(np.random.SeedSequence(
            (spec.seed, series.meter_id or 0, date.toordinal(),
             ATTACK_TYPES.index(spec.attack_type) + 1)))
        windows = spec.peak_windows
        if spec.attack_type == "t2":
            start = int(rng.integers(0, 24 - spec.min_off_time))
            windows = [(start, min(start + int(rng.integers(spec.min_off_time, 24)), 23))]
        for k, i in enumerate(ix):
            if spec.attack_type == "t4":
                hit = (k // spec.period) % 2 == 1
            else:
                ch = clock_hour(series.intervals[i], series.kind)
                hit = any(start <= ch <= end for start, end in windows)
            if hit:
                attacked[i] = series.values[i] * rng.uniform(spec.factor_low, spec.factor_high)
                labels[i] = True
    return attacked, labels


def _reference_restrict(series, attacked, labels, keep_dates):
    attacked, labels = attacked.copy(), labels.copy()
    for i, date in enumerate(series.dates):
        if date not in keep_dates:
            attacked[i] = series.values[i]
            labels[i] = False
    return attacked, labels


@st.composite
def _series_rows(draw, kind):
    """Chronological (dates, intervals) with rows missing inside days and
    whole days missing."""
    per_day = 24 if kind == "hour" else 48
    first = START + dt.timedelta(days=draw(st.integers(0, 800)))
    days = draw(st.lists(st.one_of(st.just(range(1, per_day + 1)),
                                   st.sets(st.integers(1, per_day), max_size=per_day)),
                         min_size=1, max_size=5))
    rows = [(first + dt.timedelta(days=d), i) for d, day in enumerate(days) for i in sorted(day)]
    return [r[0] for r in rows], [r[1] for r in rows]


@st.composite
def _specs(draw):
    low = draw(st.floats(0.1, 5.0))
    windows = draw(st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)).map(sorted)
                            .map(tuple), max_size=3))
    return AttackSpec(draw(st.sampled_from(ATTACK_TYPES)), low, low + draw(st.floats(0.0, 4.0)),
                      peak_windows=tuple(windows), min_off_time=draw(st.integers(1, 23)),
                      period=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["hour", "slot"]), spec=_specs(),
       meter_id=st.one_of(st.none(), st.integers(0, 2**31)), value_seed=st.integers(0, 2**16))
def test_apply_attack_equals_per_row_reference(data, kind, spec, meter_id, value_seed):
    dates, intervals = data.draw(_series_rows(kind))
    values = np.random.default_rng(value_seed).uniform(0.0, 3.0, len(dates))
    s = _series(kind, meter_id, dates, intervals, values)
    out = apply_attack(s, spec)
    attacked, labels = _reference_attack(s, spec)
    assert out.attacked.tobytes() == attacked.tobytes()
    assert out.labels.tolist() == labels.tolist()


def _reference_csv_text(corpus):
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["meter_id", "date", "interval", "base_kwh", "attacked_kwh", "label",
                     "attack_type", "seed"])
    for variant in corpus.variants:
        ls, s = variant.labeled, variant.labeled.base
        for i in range(len(s)):
            writer.writerow(["" if s.meter_id is None else s.meter_id, s.dates[i].isoformat(),
                             s.intervals[i], repr(float(s.values[i])),
                             repr(float(ls.attacked[i])),
                             "malicious" if ls.labels[i] else "benign", variant.attack_type,
                             corpus.seed])
    return fh.getvalue()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_sh=st.integers(0, 3), with_nbh=st.booleans(),
       mix=st.dictionaries(st.sampled_from(ATTACK_TYPES),
                           st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])),
       seed=st.integers(0, 2**32 - 1))
def test_corpus_equals_per_row_reference(data, n_sh, with_nbh, mix, seed):
    """generate_corpus on shuffled datasets equals the per-row attack and
    day restriction over the days chosen once per corpus; its CSV text is
    what csv.writer writes for the reference rows."""
    levels = [("SH", m, "hour") for m in range(1, n_sh + 1)] + \
        ([("NBH", None, "slot")] if with_nbh or not n_sh else [])
    datasets = {}
    for level, meter_id, kind in levels:
        dates, intervals = data.draw(_series_rows(kind))
        order = np.random.default_rng(seed).permutation(len(dates))
        values = np.random.default_rng(seed).uniform(0.0, 3.0, len(dates))
        # zero bases of either sign: attacked rows whose value keeps the base's bits
        if len(dates):
            for i, zero in data.draw(st.lists(st.tuples(st.integers(0, len(dates) - 1),
                                                        st.sampled_from([0.0, -0.0])))):
                values[i] = zero
        datasets[meter_id] = _series(kind, meter_id, dates, intervals, values).data.take(order)
    corpus = generate_corpus({m: ds for m, ds in datasets.items() if m is not None},
                             datasets.get(None), mix, seed)

    all_dates = set()
    bases = [series_from_dataset(datasets[m]) for _, m, _ in levels]
    for s in bases:
        assert sorted(zip(s.dates, s.intervals)) == list(zip(s.dates, s.intervals))
        all_dates |= set(s.dates)
    want = []
    for (level, _, _), s in zip(levels, bases):
        if not len(s):
            continue        # an empty dataset has no variants
        want.append((level, "none", s.values, np.zeros(len(s), dtype=bool)))
        for attack_type in ATTACK_TYPES:
            if mix.get(attack_type, 0.0) > 0:
                keep = select_attack_dates(sorted(all_dates), mix[attack_type], seed, attack_type)
                attacked, labels = _reference_attack(s, default_spec(attack_type, seed=seed))
                want.append((level, attack_type,
                             *_reference_restrict(s, attacked, labels, keep)))
    got = [(v.level, v.attack_type, v.labeled.attacked, v.labeled.labels)
           for v in corpus.variants]
    assert [w[:2] for w in want] == [g[:2] for g in got]
    for (_, _, attacked, labels), (_, _, got_attacked, got_labels) in zip(want, got):
        assert got_attacked.tobytes() == attacked.tobytes()
        assert got_labels.tolist() == labels.tolist()
    assert "".join(corpus_csv_rows(corpus)) == _reference_csv_text(corpus)
