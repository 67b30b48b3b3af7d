import datetime as dt

import numpy as np
import pytest

from gridwatch.attacks import (ATTACK_TYPES, AttackSpec, Corpus, Series, apply_attack,
                               corpus_csv_rows, default_spec, generate_corpus,
                               select_attack_dates, series_from_dataset)
from gridwatch.errors import ContractViolation
from gridwatch.ingest import Dataset, clock_hour, feature_vector

START = dt.date(2009, 1, 5)


def hourly_series(days=7, value=1.0, meter_id=1, values=None):
    dates, intervals, vals = [], [], []
    i = 0
    for d in range(days):
        for hour in range(1, 25):
            dates.append(START + dt.timedelta(days=d))
            intervals.append(hour)
            vals.append(value if values is None else values[i])
            i += 1
    return Series("hour", meter_id, tuple(dates), tuple(intervals),
                  np.array(vals, dtype=float))


def slot_series(days=2, value=10.0):
    dates, intervals = [], []
    for d in range(days):
        for slot in range(1, 49):
            dates.append(START + dt.timedelta(days=d))
            intervals.append(slot)
    n = len(intervals)
    return Series("slot", None, tuple(dates), tuple(intervals), np.full(n, value))


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
    shuffled = Series(s.kind, s.meter_id, s.dates[::-1], s.intervals[::-1], s.values)
    with pytest.raises(ContractViolation):
        apply_attack(shuffled, default_spec("t2"))


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
    s = Series("hour", 1, (), (), np.array([]))
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


def test_corpus_attack_days_shared_across_meters_and_levels():
    sh = {1: _sh_dataset(days=8, meter_id=1), 2: _sh_dataset(days=8, meter_id=2)}
    nbh_rows = []
    for d in range(8):
        date = START + dt.timedelta(days=d)
        for slot in range(1, 49):
            nbh_rows.append(feature_vector(date, slot, "slot", 25.0))
    nbh = Dataset.from_rows("NBH", None, nbh_rows,
                            ("interval", "day_period", "day_type", "month", "season"))
    corpus = generate_corpus(sh, nbh, {"t3": 0.5}, seed=9)
    attacked = {}
    for v in corpus.variants:
        if v.attack_type == "t3":
            days = {v.labeled.base.dates[i] for i in np.nonzero(v.labeled.labels)[0]}
            attacked[(v.level, v.labeled.base.meter_id)] = days
    assert len(set(map(frozenset, attacked.values()))) == 1  # same days everywhere


def test_corpus_requires_data():
    with pytest.raises(ValueError):
        generate_corpus({}, None, {"t1": 1.0}, seed=0)
