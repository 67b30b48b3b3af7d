import dataclasses
import datetime as dt
import json

import numpy as np
import pytest

from gridwatch import scenario as scn
from gridwatch.detect import (AlertEvent, NbhDetectorState, ShDetectorState, decide,
                              nbh_step, sh_step)
from gridwatch.errors import ScenarioError
from gridwatch.ingest import (EPOCH, build_sh_dataset, clean_dataset, feature_vector,
                              parse_raw, split_train_validation)
from gridwatch.scenario import ScenarioConfig, benchmark_models, run_scenario, summary_rows
from gridwatch.synth import (DEFAULT_START_DAY_CODE, SynthProfile, expected_kwh,
                             meter_scale, synth_raw_lines, synth_readings)
from gridwatch.trees import TreeParams, predict, train_model_tree

SMALL = ScenarioConfig(nb_sh=3, weeks=4, seed=3, jobs=1)


@pytest.fixture(scope="module")
def small_result():
    return run_scenario(SMALL)


# ---------------------------------------------------------------------------
# synthetic generator

def test_synth_counting():
    readings = list(synth_readings(SynthProfile(), 10, 4, seed=1))
    assert len(readings) == 10 * 4 * 7 * 48


def test_synth_wire_format_parses_cleanly():
    lines = list(synth_raw_lines(SynthProfile(), 2, 4, seed=2))
    parsed = parse_raw(lines)
    assert not parsed.issues
    assert len(parsed.readings) == 2 * 4 * 7 * 48
    assert lines[0].split()[1].isdigit() and len(lines[0].split()[1]) == 5


def test_synth_noise_free_is_deterministic_function():
    profile = dataclasses.replace(SynthProfile(), noise_sd=0.0)
    readings = list(synth_readings(profile, 1, 4, seed=9))
    again = list(synth_readings(profile, 1, 4, seed=9))
    assert readings == again
    scale = meter_scale(profile, 9, 1)
    for r in readings[:96]:
        assert r.kwh == pytest.approx(expected_kwh(profile, scale, r.date, r.slot), abs=1e-12)


def test_synth_zero_weekend_shift_equalizes_day_types():
    profile = dataclasses.replace(SynthProfile(), weekend_shift=0.0,
                                  seasonal_amplitude=0.0, noise_sd=0.0)
    scale = meter_scale(profile, 4, 1)
    monday = EPOCH + dt.timedelta(days=DEFAULT_START_DAY_CODE - 1)
    saturday = monday + dt.timedelta(days=5)
    for slot in range(1, 49):
        assert expected_kwh(profile, scale, monday, slot) == \
            pytest.approx(expected_kwh(profile, scale, saturday, slot), abs=1e-12)


def test_synth_weekend_shift_visible_daytime():
    profile = dataclasses.replace(SynthProfile(), seasonal_amplitude=0.0, noise_sd=0.0)
    scale = meter_scale(profile, 4, 1)
    monday = EPOCH + dt.timedelta(days=DEFAULT_START_DAY_CODE - 1)
    saturday = monday + dt.timedelta(days=5)
    assert expected_kwh(profile, scale, saturday, 25) > expected_kwh(profile, scale, monday, 25)


def test_synth_values_non_negative():
    profile = dataclasses.replace(SynthProfile(), noise_sd=0.5)
    assert all(r.kwh >= 0 for r in synth_readings(profile, 1, 4, seed=5))


# ---------------------------------------------------------------------------
# scenario

def test_scenario_deterministic(small_result):
    again = run_scenario(SMALL)
    assert json.dumps(small_result.report, sort_keys=True) == \
        json.dumps(again.report, sort_keys=True)
    assert [(t, e.to_json_obj()) for t, e in small_result.alerts] == \
        [(t, e.to_json_obj()) for t, e in again.alerts]


def test_scenario_rate_identities(small_result):
    for level in ("SH", "NBH"):
        for entry in small_result.report["levels"][level]["pooled"].values():
            if entry["tpr"] is not None:
                assert entry["tpr"] + entry["fnr"] == pytest.approx(1.0, abs=1e-12)
            assert entry["tnr"] + entry["fpr"] == pytest.approx(1.0, abs=1e-12)
            total = entry["tp"] + entry["fn"] + entry["fp"] + entry["tn"]
            assert entry["ac"] == pytest.approx(
                (entry["tp"] + entry["tn"]) / total, abs=1e-12)


def test_scenario_attacked_rmse_exceeds_benign(small_result):
    for level in ("SH", "NBH"):
        for entry in small_result.report["levels"][level]["pooled"].values():
            assert entry["rmse_attack"] > entry["rmse_benign"]


def test_scenario_sharp_attacks_separate_more_than_mild_ones(small_result):
    for level in ("SH", "NBH"):
        pooled = small_result.report["levels"][level]["pooled"]
        assert pooled["t3"]["rmse_attack"] > pooled["t1"]["rmse_attack"]
        assert pooled["t4"]["rmse_attack"] > pooled["t2"]["rmse_attack"]


def test_scenario_alert_events_satisfy_threshold_invariant(small_result):
    checked = 0
    for _, event in small_result.alerts:
        if event.kind in ("sh_anomaly", "nacr"):
            assert event.observed > event.predicted + event.threshold
            checked += 1
    assert checked > 0


def test_scenario_roc_curves_valid(small_result):
    for (level, attack_type), (fpr, tpr) in small_result.roc.items():
        points = list(zip(fpr.tolist(), tpr.tolist()))
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
        assert xs == sorted(xs) and ys == sorted(ys)


def test_scenario_auc_in_unit_interval(small_result):
    for level in ("SH", "NBH"):
        for entry in small_result.report["levels"][level]["pooled"].values():
            assert 0.0 <= entry["auc"] <= 1.0


def test_scenario_no_attacks_reports_absent_tpr():
    cfg = dataclasses.replace(SMALL, mix={})
    result = run_scenario(cfg)
    entry = result.report["levels"]["SH"]["pooled"]["none"]
    assert entry["tpr"] is None          # no positives: undefined, reported absent
    assert 0.0 <= entry["fpr"] <= 1.0    # false-positive rate still measured
    assert entry["rmse_attack"] is None
    assert result.report["alerts"]["attack_confirmed"] == 0


def test_scenario_single_type_mix():
    cfg = dataclasses.replace(SMALL, mix={"t3": 1.0})
    result = run_scenario(cfg)
    pooled = result.report["levels"]["SH"]["pooled"]
    assert set(pooled) == {"t3"}
    assert pooled["t3"]["tpr"] is not None


def test_scenario_macro_rates_present(small_result):
    macro = small_result.report["levels"]["SH"]["macro"]
    for attack_type, entry in macro.items():
        assert entry["meters"] == SMALL.nb_sh
        assert 0.0 <= entry["tpr_mean"] <= 1.0


def test_scenario_fusion_confirms_attacks(small_result):
    fusion = small_result.report["fusion"]
    assert set(fusion) == {"t1", "t2", "t3", "t4"}
    for entry in fusion.values():
        assert entry["confirmed"] > 0
        assert entry["ticks"] == 7 * 48  # one validation week at slot granularity


@pytest.fixture(scope="module")
def detect_inputs():
    """Corpus and models of a 4-home, 8-week scenario, built stage by stage."""
    cfg = ScenarioConfig(nb_sh=4, weeks=8, seed=5, jobs=1)
    sh_raw, nbh_raw = scn._build(scn._ingest(cfg).readings, cfg)
    sh_clean, nbh_clean, _ = scn._clean(sh_raw, nbh_raw)
    sh_splits, nbh_split = scn._split(sh_clean, nbh_clean, cfg.seed)
    sh_models, nbh_model = scn._train(sh_splits, nbh_split, cfg)
    corpus = scn._attack(sh_splits, nbh_split, cfg)
    return cfg, corpus, sh_models, nbh_model, (sh_splits, nbh_split)


def _replay_oracle(cfg, corpus, sh_models, nbh_model):
    """Every variant replayed through the public sh_step/nbh_step with freshly
    built feature vectors, fused by detect.decide."""
    alerts, fusion = [], {}
    home_alerts, nacr = {}, {}
    for variant in corpus.variants:
        s, t = variant.labeled.base, variant.attack_type
        if variant.level == "SH":
            state = ShDetectorState(s.meter_id, sh_models[s.meter_id], nbr_incr=cfg.nbr_incr,
                                    n_window=cfg.n_window, mode=cfg.counter_mode)
            step = sh_step
        else:
            state, step = NbhDetectorState(nbh_model), nbh_step
        for i in range(len(s)):
            fv = feature_vector(s.dates[i], s.intervals[i], s.kind,
                                float(variant.labeled.attacked[i]))
            event = step(state, fv)
            if event is None:
                continue
            alerts.append((t, event))
            if event.kind == "nacr":
                nacr.setdefault(t, set()).add((event.date, event.interval))
            else:
                for slot in (2 * event.interval - 1, 2 * event.interval):
                    home_alerts.setdefault(t, {}).setdefault((event.date, slot), set()).add(
                        event.meter_id)
    base = next(v.labeled.base for v in corpus.variants
                if v.level == "NBH" and v.attack_type == "none")
    ticks = sorted(zip(base.dates, base.intervals))
    nb_sh = len(sh_models)
    for t in sorted({v.attack_type for v in corpus.variants} - {"none"}):
        homes = home_alerts.get(t, {})
        confirmed = 0
        for date, slot in ticks:
            if decide((date, slot) in nacr.get(t, set()),
                      min(len(homes.get((date, slot), ())), nb_sh), nb_sh):
                confirmed += 1
                alerts.append((t, AlertEvent("attack_confirmed", None, date, slot, "slot",
                                             0.0, 0.0, 0.0)))
        fusion[t] = {"ticks": len(ticks), "confirmed": confirmed,
                     "alerting_dates": len({d for d, _ in homes})}
    alerts.sort(key=lambda ta: (ta[1].kind, ta[1].timestamp(), ta[1].meter_id or 0, ta[0]))
    return alerts, fusion


def test_predict_stage_matches_per_row_predict(detect_inputs):
    """The predict stage equals the per-row public predict on every row of
    every base series, in series order. The reference runs on copies of the
    models with empty memos."""
    cfg, corpus, sh_models, nbh_model, splits = detect_inputs
    predictions = scn._predict(corpus, sh_models, nbh_model)
    bases = {(v.level, v.labeled.base.meter_id): v.labeled.base for v in corpus.variants}
    assert len(bases) == len(sh_models) + 1
    for (level, meter_id), s in bases.items():
        model = dataclasses.replace(nbh_model if level == "NBH" else sh_models[meter_id])
        want = [predict(model, feature_vector(s.dates[i], s.intervals[i], s.kind,
                                              float(s.values[i])))
                for i in range(len(s))]
        assert predictions[(level, meter_id)].tolist() == want


@pytest.mark.parametrize("mode", ["windowed", "lifetime"])
def test_detect_matches_public_step_replay(detect_inputs, mode):
    cfg, corpus, sh_models, nbh_model, splits = detect_inputs
    cfg = dataclasses.replace(cfg, counter_mode=mode)
    predictions = scn._predict(corpus, sh_models, nbh_model)
    detection = scn._detect(corpus, predictions, sh_models, nbh_model, cfg)
    alerts, fusion = _replay_oracle(cfg, corpus, sh_models, nbh_model)
    assert {e.kind for _, e in alerts} == {"sh_anomaly", "nacr", "attack_confirmed"}
    assert len(detection["alerts"]) == len(alerts)
    for got, want in zip(detection["alerts"], alerts):
        assert got == want          # every field: observed, predicted, threshold too
    assert detection["fusion"] == fusion


def test_scenario_stage_error_names_stage():
    bad = dataclasses.replace(SMALL, raw_path="/nonexistent/raw.txt")
    with pytest.raises(ScenarioError) as err:
        run_scenario(bad)
    assert err.value.stage == "ingest"


def test_scenario_config_json_round_trip():
    cfg = dataclasses.replace(SMALL, factors={"t3": (5.0, 9.0)},
                              profile=dataclasses.replace(SynthProfile(), noise_sd=0.01))
    back = ScenarioConfig.from_json_obj(json.loads(json.dumps(cfg.to_json_obj())))
    assert back == cfg


def test_scenario_rejects_short_runs():
    with pytest.raises(ValueError):
        ScenarioConfig(nb_sh=2, weeks=3)


@pytest.mark.parametrize("change", [{"mix": {"t9": 1.0}}, {"mix": {"t1": 1.7}},
                                    {"mix": {"t2": "half"}}, {"jobs": 0}])
def test_scenario_config_rejects_bad_mix_and_jobs(change):
    with pytest.raises(ValueError, match=next(iter(change.get("mix", change)))):
        dataclasses.replace(SMALL, **change)


def test_summary_rows_shape(small_result):
    rows = summary_rows(small_result.report)
    assert rows[0] == ["level", "attack_type", "rmse", "rmse_a",
                       "ac", "tpr", "fpr", "tnr", "fnr"]
    levels = {row[0] for row in rows[1:]}
    assert levels == {"SH", "NBH"}


# ---------------------------------------------------------------------------
# benchmark

@pytest.fixture(scope="module")
def benchmark_splits():
    readings = list(synth_readings(SynthProfile(), 6, 8, seed=7))
    per_meter = {}
    for r in readings:
        per_meter.setdefault(r.meter_id, []).append(r)
    splits, models = {}, {}
    for m in sorted(per_meter):
        ds, _ = build_sh_dataset(per_meter[m])
        ds, _ = clean_dataset(ds)
        splits[m] = split_train_validation(ds, 7)
        models[m] = train_model_tree(splits[m][0], TreeParams(seed=7), valid=splits[m][1])
    return splits, models


def test_benchmark_empty_algorithm_list(benchmark_splits):
    splits, _models = benchmark_splits
    assert benchmark_models(splits, {}, TreeParams(seed=7)) == []


def test_benchmark_model_tree_beats_rep_tree_on_smooth_data(benchmark_splits):
    rows = benchmark_models(*benchmark_splits, TreeParams(seed=7))
    rep = {r["dataset"]: r["rmse"] for r in rows if r["algorithm"] == "rep_tree"}
    m5 = {r["dataset"]: r["rmse"] for r in rows if r["algorithm"] == "model_tree"}
    assert all(m5[k] <= rep[k] for k in rep)


def test_benchmark_rep_tree_trains_faster(benchmark_splits):
    rows = benchmark_models(*benchmark_splits, TreeParams(seed=7))
    rep = sum(r["train_seconds"] for r in rows if r["algorithm"] == "rep_tree")
    m5 = sum(r["train_seconds"] for r in rows if r["algorithm"] == "model_tree")
    assert rep < m5
