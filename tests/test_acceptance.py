"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale scenario
(50 meters, 16 weeks so 4 validation weeks, seed 7) is shared by the
detection-rate, neighborhood, and error-separation gates.
"""

import dataclasses
import datetime as dt
import itertools
import json
import statistics
import time

import numpy as np
import pytest

from gridwatch.cli import main
from gridwatch.detect import ShDetectorState, decide, sh_step
from gridwatch.ingest import (DAY_PERIODS, DAY_TYPES, SEASONS, SH_ATTRIBUTES, Dataset,
                              build_sh_dataset, clean_dataset, feature_vector,
                              split_train_validation)
from gridwatch.metrics import rates_from_counts
from gridwatch.scenario import ScenarioConfig, run_scenario, train_sh_fleet
from gridwatch.synth import SynthProfile, synth_readings
from gridwatch.trees import (Leaf, TreeModel, TreeParams, _grow, _key_table, encode_matrix,
                             train_model_tree, train_rep_tree)

DESK = ScenarioConfig(nb_sh=50, weeks=16, seed=7, jobs=1)


def _line(n, ok, message):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n:02d} {status}: {message}")
    assert ok, message


@pytest.fixture(scope="module")
def desk_scenario():
    t0 = time.perf_counter()
    result = run_scenario(DESK)
    return result, time.perf_counter() - t0


def _random_rows(rng, n):
    rows = []
    start = dt.date(2009, 1, 5)
    for _ in range(n):
        date = start + dt.timedelta(days=int(rng.integers(0, 360)))
        hour = int(rng.integers(1, 25))
        rows.append(feature_vector(date, hour, "hour", float(rng.uniform(0, 3))))
    return rows


# ---------------------------------------------------------------------------

def test_criterion_01_split_oracle():
    """Root splits match brute-force enumeration of the SD-reduction gain."""
    rng = np.random.default_rng(1)
    min_instances = 5
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        rows = _random_rows(rng, int(rng.integers(12, 201)))
        ds = Dataset.from_rows("SH", 1, rows, SH_ATTRIBUTES)
        X = encode_matrix(ds)
        y = ds.kwh
        root = _grow(_key_table(ds), SH_ATTRIBUTES, min_instances, 0.0)[0][0]
        oracle = _brute_force_gain(rows, SH_ATTRIBUTES, min_instances)
        if isinstance(root, Leaf):
            assert oracle <= 1e-9, f"splitter stopped but gain {oracle} was available"
        else:
            realized = _realized_gain(root, X, y)
            assert abs(realized - oracle) <= 1e-9, f"{realized} vs brute force {oracle}"
        checked += 1
    took = time.perf_counter() - t0
    _line(1, checked == 100 and took < 10.0,
          f"{checked} random datasets matched brute force in {took:.2f}s (< 10s)")


def _encode_value(attr, fv):
    """The code of one attribute of a vector: the interval and month as
    numbers, a category as its index in DAY_PERIODS, DAY_TYPES or SEASONS."""
    if attr in ("interval", "month"):
        return float(getattr(fv, attr))
    categories = {"day_period": DAY_PERIODS, "day_type": DAY_TYPES, "season": SEASONS}
    if attr in categories:
        return float(categories[attr].index(getattr(fv, attr)))
    raise ValueError(f"unknown attribute {attr!r}")


def _brute_force_gain(rows, attributes, min_instances):
    y = [r.consumption for r in rows]
    n = len(y)
    sd_parent = statistics.pstdev(y)

    def gain(mask):
        left = [v for m, v in zip(mask, y) if m]
        right = [v for m, v in zip(mask, y) if not m]
        if len(left) < min_instances or len(right) < min_instances:
            return None
        return sd_parent - (len(left) / n) * statistics.pstdev(left) \
            - (len(right) / n) * statistics.pstdev(right)

    best = 0.0
    for attr in attributes:
        values = [_encode_value(attr, r) for r in rows]
        distinct = sorted(set(values))
        if attr == "season":
            for size in range(1, len(distinct)):
                for combo in itertools.combinations(distinct, size):
                    g = gain([v in combo for v in values])
                    if g is not None:
                        best = max(best, g)
        else:
            for a, b in zip(distinct, distinct[1:]):
                threshold = (a + b) / 2
                g = gain([v <= threshold for v in values])
                if g is not None:
                    best = max(best, g)
    return best


def _realized_gain(root, X, y):
    v = X[:, root.attr_index]
    mask = (v <= root.threshold) if root.kind == "numeric" else np.isin(v, list(root.subset))
    yl = list(y[mask])
    yr = list(y[~mask])
    return statistics.pstdev(list(y)) - (len(yl) / len(y)) * statistics.pstdev(yl) \
        - (len(yr) / len(y)) * statistics.pstdev(yr)


def test_criterion_02_pruning_monotonicity():
    """Reduced-error pruning never increases holdout RMSE at any step."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for seed in range(50):
        rows = _random_rows(rng, 150)
        model = train_rep_tree(Dataset.from_rows("SH", 1, rows, SH_ATTRIBUTES),
                               TreeParams(min_instances=3, seed=seed))
        trace = model.training_meta["prune_trace"]
        for before, after in zip(trace, trace[1:]):
            worst = max(worst, after - before)
            assert after <= before + 1e-12, f"seed {seed}: {before} -> {after}"
    _line(2, True, f"50 seeded trainings, max holdout RMSE increase {worst:.2e} (<= 0)")


def test_criterion_03_error_ordering_mirror():
    """Model tree beats the rep tree on at least 45 of 50 smooth meters."""
    t0 = time.perf_counter()
    readings = list(synth_readings(DESK.profile, 50, 8, seed=7))
    per_meter = {}
    for r in readings:
        per_meter.setdefault(r.meter_id, []).append(r)
    wins = 0
    for m in sorted(per_meter):
        ds, _ = build_sh_dataset(per_meter[m])
        ds, _ = clean_dataset(ds)
        train, valid = split_train_validation(ds, 7)
        params = TreeParams(seed=7)
        rep = train_rep_tree(train, params, valid=valid)
        m5 = train_model_tree(train, params, valid=valid)
        wins += m5.trained_rmse <= rep.trained_rmse
    took = time.perf_counter() - t0
    _line(3, wins >= 45 and took < 120.0,
          f"model tree <= rep tree validation RMSE on {wins}/50 meters "
          f"in {took:.1f}s (need >= 45, < 120s)")


def test_criterion_04_sh_detection_rates(desk_scenario):
    """SH per-interval rates: TPR >= 0.95 (t3/t4), >= 0.85 (t1/t2), FPR <= 0.20."""
    result, took = desk_scenario
    pooled = result.report["levels"]["SH"]["pooled"]
    summary = []
    ok = took < 300.0
    for attack_type, tpr_floor in (("t1", 0.85), ("t2", 0.85), ("t3", 0.95), ("t4", 0.95)):
        entry = pooled[attack_type]
        ok &= entry["tpr"] >= tpr_floor and entry["fpr"] <= 0.20
        summary.append(f"{attack_type}: tpr {entry['tpr']:.3f} (>= {tpr_floor}) "
                       f"fpr {entry['fpr']:.3f} (<= 0.20)")
    _line(4, ok, f"scenario {took:.0f}s (< 300s); " + "; ".join(summary))


def test_criterion_05_nbh_detection_rates(desk_scenario):
    """NBH NACR rates: TPR >= 0.95 for t3/t4, FPR <= 0.20."""
    result, _ = desk_scenario
    pooled = result.report["levels"]["NBH"]["pooled"]
    ok = True
    summary = []
    for attack_type in ("t3", "t4"):
        entry = pooled[attack_type]
        ok &= entry["tpr"] >= 0.95 and entry["fpr"] <= 0.20
        summary.append(f"{attack_type}: tpr {entry['tpr']:.3f} fpr {entry['fpr']:.3f}")
    _line(5, ok, "; ".join(summary))


def test_criterion_06_rmse_separation(desk_scenario):
    """RMSE on attacked samples dominates benign RMSE (>= 2x t3/t4, >= 1.3x t1/t2)."""
    result, _ = desk_scenario
    ok = True
    summary = []
    for level in ("SH", "NBH"):
        pooled = result.report["levels"][level]["pooled"]
        for attack_type, floor in (("t1", 1.3), ("t2", 1.3), ("t3", 2.0), ("t4", 2.0)):
            entry = pooled[attack_type]
            ratio = entry["rmse_attack"] / entry["rmse_benign"]
            ok &= ratio >= floor
            summary.append(f"{level}/{attack_type}: {ratio:.1f}x (>= {floor})")
    _line(6, ok, "; ".join(summary))


def test_criterion_07_counter_automaton_oracle():
    """sh_step alert timing equals the window-scan reference on all 2^12 sequences."""

    def reference(flags, nbr_incr=2, n_window=4):
        fired, history = [], []
        for step, flag in enumerate(flags):
            history.append(flag)
            if flag and sum(history[-n_window:]) > nbr_incr:
                fired.append(step)
                history = []
        return fired

    model = TreeModel("rep_tree", Leaf(0.0, 1), tuple(SH_ATTRIBUTES), trained_rmse=0.5)
    start = dt.date(2009, 1, 5)
    checked = 0
    for bits in range(2 ** 12):
        flags = [(bits >> i) & 1 == 1 for i in range(12)]
        state = ShDetectorState(1, model, nbr_incr=2, n_window=4)
        fired = []
        for step, flag in enumerate(flags):
            fv = feature_vector(start + dt.timedelta(days=step // 24), step % 24 + 1,
                                "hour", 1.0 if flag else 0.2)
            if sh_step(state, fv) is not None:
                fired.append(step)
        assert fired == reference(flags), f"sequence {flags}"
        checked += 1
    _line(7, checked == 4096, f"all {checked} flag sequences of length 12 match the reference")


def test_criterion_08_fusion_truth_table():
    """decide() equals the disjunction formula exhaustively plus 500-home edges."""
    checked = 0
    for nb_sh in range(1, 9):
        for nb_alert in range(nb_sh + 1):
            for nacr in (False, True):
                assert decide(nacr, nb_alert, nb_sh) == (nacr or nb_alert > nb_sh / 2)
                checked += 1
    assert decide(False, 251, 500) is True
    assert decide(False, 250, 500) is False
    assert decide(True, 0, 500) is True
    _line(8, True, f"{checked} exhaustive cases plus 250/251-of-500 boundaries")


def test_criterion_09_metric_count_fixture():
    """Confusion counts TP 918 / FN 82 / FP 104 / TN 896 reproduce their rates exactly."""
    rates = rates_from_counts(tp=918, fn=82, fp=104, tn=896)
    ok = (rates["tpr"] == 0.918 and rates["fpr"] == 0.104
          and rates["tnr"] == 0.896 and rates["fnr"] == 0.082)
    _line(9, ok, f"tpr {rates['tpr']} fpr {rates['fpr']} exact from the counts")


def test_criterion_10_training_speed():
    """One SH model in < 2s on 3 weeks of hourly data; 500-meter fleet < 5 min."""
    rows = []
    rng = np.random.default_rng(10)
    start = dt.date(2009, 1, 5)
    for d in range(21):
        for hour in range(1, 25):
            rows.append(feature_vector(start + dt.timedelta(days=d), hour, "hour",
                                       0.4 + 0.3 * (8 <= hour <= 22) + float(rng.normal(0, 0.05))))
    t0 = time.perf_counter()
    train_model_tree(Dataset.from_rows("SH", 1, rows, SH_ATTRIBUTES), TreeParams(seed=1))
    single = time.perf_counter() - t0

    readings = synth_readings(DESK.profile, 500, 4, seed=7)
    per_meter = {}
    for r in readings:
        per_meter.setdefault(r.meter_id, []).append(r)
    splits = {}
    for m in sorted(per_meter):
        ds, _ = build_sh_dataset(per_meter[m])
        ds, _ = clean_dataset(ds)
        splits[m] = split_train_validation(ds, 7)
    t0 = time.perf_counter()
    models = train_sh_fleet(splits, TreeParams(seed=7), jobs=4)
    fleet = time.perf_counter() - t0
    ok = single < 2.0 and fleet < 300.0 and len(models) == 500
    _line(10, ok, f"single model {single * 1000:.0f}ms (< 2s); "
                  f"500-meter fleet with 4 jobs {fleet:.1f}s (< 300s)")


def test_criterion_11_end_to_end_determinism(tmp_path):
    """Two simulate runs with one config produce byte-identical reports and logs."""
    cfg = {"nb_sh": 10, "weeks": 8, "seed": 21, "jobs": 1}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg))
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--benchmark-meters", "1"]) == 0
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("report.json", "alerts.jsonl", "detection_summary.csv", "corpus_sh.csv")
    )
    _line(11, same, "report.json, alerts.jsonl, detection_summary.csv, corpus_sh.csv "
                    "byte-identical across runs")
