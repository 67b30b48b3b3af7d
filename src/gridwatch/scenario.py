"""End-to-end scenario execution and evaluation reporting.

A scenario is a pure function of its configuration: synthesize (or ingest)
raw readings, build and clean SH/NBH datasets, split by weeks, train the
per-home model trees and the neighborhood rep tree, inject the configured
attack mix into the validation streams, replay them through the detectors
and the decision maker, and score everything against the ground-truth
labels.

Scoring is per interval. The score of an interval is its residual margin,
observed - (predicted + pe); the confusion rates threshold that margin at
zero and the ROC curve sweeps it. Negatives come from the benign variant
of the validation stream, positives from the malicious-labeled intervals
of each attack variant, so the benign-side RMSE column is identical across
attack types while RMSE on attacked samples moves with the attack
strength.

Wall-clock timings are kept out of the report structure so that two runs
of the same configuration produce byte-identical reports; timings travel
separately (and end up in the run manifest).
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable

import numpy as np

from . import attacks as atk
from .detect import AlertEvent, DecisionMaker, NbhDetectorState, ShDetectorState, replay
from .errors import ScenarioError
from .ingest import (Dataset, ParseResult, Readings, build_nbh_dataset, build_sh_dataset,
                     clean_dataset, group_by_meter, open_raw, parse_raw, split_train_validation)
from .metrics import rates_from_counts, roc_curve
from .synth import SynthProfile, synth_raw_lines
from .trees import (TreeModel, TreeParams, _predict_dataset, count_leaves, serialize,
                    train_model_tree, train_rep_tree, tree_depth)

SUMMARY_HEADER = ["level", "attack_type", "rmse", "rmse_a", "ac", "tpr", "fpr", "tnr", "fnr"]
BENCHMARK_HEADER = ["dataset", "algorithm", "mae", "rmse", "train_seconds", "model_bytes",
                    "leaves", "depth"]
TRAINING_REPORT_HEADER = ["meter_id", "kind", "mae", "rmse", "train_seconds", "model_bytes",
                          "leaves", "depth"]


@dataclasses.dataclass
class ScenarioConfig:
    nb_sh: int = 50
    weeks: int = 16
    seed: int = 7
    mix: dict = dataclasses.field(default_factory=lambda: {t: 1.0 for t in atk.ATTACK_TYPES})
    profile: SynthProfile = dataclasses.field(default_factory=SynthProfile)
    factors: dict = dataclasses.field(default_factory=dict)  # type -> (low, high) overrides
    peak_windows: tuple = atk.DEFAULT_PEAK_WINDOWS
    min_off_time: int = atk.DEFAULT_MIN_OFF_TIME
    t4_period: int = 1
    nbr_incr: int = 2
    n_window: int = 4
    counter_mode: str = "windowed"  # or "lifetime" (paper-literal counter)
    min_instances: int = 10
    prune_fraction: float = 0.25
    smoothing: bool = False
    jobs: int = 1
    raw_path: str | None = None

    def __post_init__(self):
        if self.nb_sh < 1:
            raise ValueError("nb_sh must be >= 1")
        if self.weeks < 4:
            raise ValueError("weeks must be >= 4 (train/validation split needs 4 whole weeks)")
        for key, proportion in self.mix.items():
            if key not in atk.ATTACK_TYPES:
                raise ValueError(f"mix key {key!r} is not one of {', '.join(atk.ATTACK_TYPES)}")
            if not (isinstance(proportion, (int, float)) and 0.0 <= proportion <= 1.0):
                raise ValueError(f"mix {key!r} is {proportion!r}; a proportion lies in [0, 1]")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, not {self.jobs!r}")

    def attack_specs(self) -> dict[str, atk.AttackSpec]:
        specs = {}
        for t in atk.ATTACK_TYPES:
            low, high = self.factors.get(t, atk.DEFAULT_FACTORS[t])
            specs[t] = atk.AttackSpec(
                t, low, high,
                peak_windows=tuple(tuple(w) for w in self.peak_windows),
                min_off_time=self.min_off_time,
                period=self.t4_period,
                seed=self.seed,
            )
        return specs

    def tree_params(self) -> TreeParams:
        return TreeParams(self.min_instances, self.prune_fraction, self.smoothing,
                          seed=self.seed)

    def to_json_obj(self) -> dict:
        obj = dataclasses.asdict(self)
        obj["profile"] = dataclasses.asdict(self.profile)
        obj["peak_windows"] = [list(w) for w in self.peak_windows]
        obj["factors"] = {k: list(v) for k, v in self.factors.items()}
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "ScenarioConfig":
        obj = dict(obj)
        if "profile" in obj:
            obj["profile"] = SynthProfile(**obj["profile"])
        if "peak_windows" in obj:
            obj["peak_windows"] = tuple(tuple(w) for w in obj["peak_windows"])
        if "factors" in obj:
            obj["factors"] = {k: tuple(v) for k, v in obj["factors"].items()}
        return ScenarioConfig(**obj)


@dataclasses.dataclass
class ScenarioResult:
    report: dict
    alerts: list[tuple[str, AlertEvent]]  # (replayed stream's attack type, event)
    roc: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]  # (fpr, tpr) per curve
    corpus: atk.Corpus
    training_rows: list[dict]
    benchmark_rows: list[dict]
    timings: dict[str, float]


def _train_sh_worker(args) -> tuple[int, TreeModel]:
    meter_id, train, valid, params = args
    return meter_id, train_model_tree(train, params, valid=valid)


def model_report_row(meter_id, model: TreeModel) -> dict:
    return {
        "meter_id": meter_id,
        "kind": model.kind,
        "mae": model.trained_mae,
        "rmse": model.trained_rmse,
        "train_seconds": model.training_meta.get("train_seconds", 0.0),
        "model_bytes": len(serialize(model)),
        "leaves": count_leaves(model.root),
        "depth": tree_depth(model.root),
    }


def train_sh_fleet(splits: dict[int, tuple[Dataset, Dataset]], params: TreeParams,
                   jobs: int = 1) -> dict[int, TreeModel]:
    """Train one model tree per meter, optionally across processes.

    Results are keyed and reassembled by meter id so the degree of
    parallelism cannot change any output.
    """
    tasks = [(m, splits[m][0], splits[m][1], params) for m in sorted(splits)]
    models: dict[int, TreeModel] = {}
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for meter_id, model in pool.map(_train_sh_worker, tasks, chunksize=8):
                models[meter_id] = model
    else:
        for task in tasks:
            meter_id, model = _train_sh_worker(task)
            models[meter_id] = model
    return dict(sorted(models.items()))


@dataclasses.dataclass
class _LevelScores:
    """Per-interval margins split into the benign pool and per-type positives."""

    benign_margins: np.ndarray
    benign_sqerr: np.ndarray
    pos_margins: dict[str, np.ndarray]
    pos_sqerr: dict[str, np.ndarray]


def _score_rates(neg: np.ndarray, pos: np.ndarray) -> dict:
    tp = int((pos > 0).sum())
    fn = int(pos.size - tp)
    fp = int((neg > 0).sum())
    tn = int(neg.size - fp)
    return rates_from_counts(tp, fn, fp, tn)


def _type_report(scores: _LevelScores, attack_type: str) -> tuple[dict, tuple | None]:
    if attack_type == "all":
        pos = np.concatenate([v for v in scores.pos_margins.values()]) \
            if scores.pos_margins else np.empty(0)
        pos_sq = np.concatenate([v for v in scores.pos_sqerr.values()]) \
            if scores.pos_sqerr else np.empty(0)
    else:
        pos = scores.pos_margins.get(attack_type, np.empty(0))
        pos_sq = scores.pos_sqerr.get(attack_type, np.empty(0))
    neg = scores.benign_margins
    entry = _score_rates(neg, pos)
    entry["rmse_benign"] = float(np.sqrt(scores.benign_sqerr.mean())) if neg.size else None
    entry["rmse_attack"] = float(np.sqrt(pos_sq.mean())) if pos.size else None
    curve = None
    if pos.size and neg.size:
        fpr, tpr, auc = roc_curve(
            np.concatenate([neg, pos]),
            np.concatenate([np.zeros(neg.size, bool), np.ones(pos.size, bool)]),
        )
        curve = (fpr, tpr)
        entry["auc"] = auc
    return entry, curve


def run_scenario(cfg: ScenarioConfig, benchmark_meters: int = 0) -> ScenarioResult:
    """Execute the full pipeline; any stage failure names the stage.

    The benchmark stage sets a rep tree, trained on the same split, beside
    the model tree of each of the first ``benchmark_meters`` homes.
    """
    timings: dict[str, float] = {}

    def stage(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            raise ScenarioError(name, exc) from exc
        timings[name] = time.perf_counter() - t0
        return out

    parsed = stage("ingest", _ingest, cfg)
    parse_counts = {"readings": len(parsed.readings), "issues": len(parsed.issues)}
    sh_raw, nbh_raw = stage("build", _build, parsed.readings, cfg)
    del parsed  # nothing after build reads the readings; free them before training
    sh_clean, nbh_clean, removed_counts = stage("clean", _clean, sh_raw, nbh_raw)
    sh_splits, nbh_split = stage("split", _split, sh_clean, nbh_clean, cfg.seed)
    sh_models, nbh_model = stage("train", _train, sh_splits, nbh_split, cfg)
    corpus = stage("attack", _attack, sh_splits, nbh_split, cfg)
    predictions = stage("predict", _predict, corpus, sh_models, nbh_model)
    detection = stage("detect", _detect, corpus, predictions, sh_models, nbh_model, cfg)
    report, roc_curves = stage("score", _score, cfg, parse_counts, removed_counts,
                               sh_models, nbh_model, corpus, predictions, detection)
    first = sorted(sh_models)[:max(benchmark_meters, 0)]
    benchmark_rows = stage("benchmark", benchmark_models, sh_splits,
                           {m: sh_models[m] for m in first}, cfg.tree_params())

    training_rows = [model_report_row(m, sh_models[m]) for m in sorted(sh_models)]
    training_rows.append(model_report_row("NBH", nbh_model))

    return ScenarioResult(
        report=report,
        alerts=detection["alerts"],
        roc=roc_curves,
        corpus=corpus,
        training_rows=training_rows,
        benchmark_rows=benchmark_rows,
        timings=timings,
    )


def _ingest(cfg: ScenarioConfig) -> ParseResult:
    if cfg.raw_path:
        lines: Iterable[str] = open_raw(cfg.raw_path)
    else:
        lines = synth_raw_lines(cfg.profile, cfg.nb_sh, cfg.weeks, cfg.seed)
    return parse_raw(lines)


def _build(readings: Readings, cfg: ScenarioConfig):
    """One hourly dataset per meter, keyed and ordered by meter id, and the
    neighborhood dataset."""
    sh = {m: build_sh_dataset(rs)[0] for m, rs in group_by_meter(readings).items()}
    return sh, build_nbh_dataset(readings)[0]


def _clean(sh: dict[int, Dataset], nbh: Dataset):
    cleaned = {m: clean_dataset(ds) for m, ds in sh.items()}
    nbh_clean, nbh_removed = clean_dataset(nbh)
    return ({m: ds for m, (ds, _) in cleaned.items()}, nbh_clean,
            {"sh": sum(len(removed) for _, removed in cleaned.values()), "nbh": len(nbh_removed)})


def _split(sh: dict[int, Dataset], nbh: Dataset, seed: int):
    return ({m: split_train_validation(ds, seed) for m, ds in sh.items()},
            split_train_validation(nbh, seed))


def _train(sh_splits, nbh_split, cfg: ScenarioConfig):
    params = cfg.tree_params()
    sh_models = train_sh_fleet(sh_splits, params, cfg.jobs)
    nbh_model = train_rep_tree(nbh_split[0], params, valid=nbh_split[1])
    return sh_models, nbh_model


def _attack(sh_splits, nbh_split, cfg: ScenarioConfig) -> atk.Corpus:
    sh_valid = {m: sh_splits[m][1] for m in sorted(sh_splits)}
    return atk.generate_corpus(sh_valid, nbh_split[1], cfg.mix, cfg.seed,
                               specs=cfg.attack_specs())


def _predict(corpus: atk.Corpus, sh_models: dict[int, TreeModel],
             nbh_model: TreeModel) -> dict[tuple, np.ndarray]:
    """The model's prediction for every row of each corpus base series, in
    series order, keyed by (level, meter id).

    A prediction depends only on the calendar attributes, never on the
    consumption, so every variant of a series (all share ``labeled.base``)
    is judged against the same array.
    """
    return {(v.level, v.labeled.base.meter_id): _predict_dataset(
                nbh_model if v.level == "NBH" else sh_models[v.labeled.base.meter_id],
                v.labeled.base.data)
            for v in corpus.variants if v.attack_type == "none"}


def _detect(corpus: atk.Corpus, predictions: dict[tuple, np.ndarray],
            sh_models: dict[int, TreeModel], nbh_model: TreeModel,
            cfg: ScenarioConfig) -> dict:
    """Stateful replay of every corpus variant plus per-tick decision fusion.

    Each variant is replayed against its base series' prediction by
    ``detect.replay``. Alerts are returned as (attack type of the replayed
    stream, event) so the log records which variant fired them.
    """
    attack_types = sorted({v.attack_type for v in corpus.variants})
    alerts: list[tuple[str, AlertEvent]] = []
    sh_alert_keys = {t: {} for t in attack_types}   # type -> (date, slot) -> meters
    nacr_keys = {t: set() for t in attack_types}    # type -> {(date, slot)}
    for variant in corpus.variants:
        s, attack_type = variant.labeled.base, variant.attack_type
        if variant.level == "SH":
            state = ShDetectorState(s.meter_id, sh_models[s.meter_id], nbr_incr=cfg.nbr_incr,
                                    n_window=cfg.n_window, mode=cfg.counter_mode)
        else:
            state = NbhDetectorState(nbh_model)
        for _, event in replay(state, s.dates, s.intervals, variant.labeled.attacked,
                               predictions[(variant.level, s.meter_id)]):
            alerts.append((attack_type, event))
            if event.kind == "nacr":
                nacr_keys[attack_type].add((event.date, event.interval))
            else:
                for slot in (2 * event.interval - 1, 2 * event.interval):
                    sh_alert_keys[attack_type].setdefault((event.date, slot), set()).add(
                        event.meter_id)

    # decision fusion over the validation timeline, per attack type
    benign = [v for v in corpus.variants if v.attack_type == "none"]
    nbh_base = next((v.labeled.base for v in benign if v.level == "NBH"), None)
    ticks = list(zip(nbh_base.dates, nbh_base.intervals)) if nbh_base else []
    nb_sh = sum(1 for v in benign if v.level == "SH")
    fusion: dict[str, dict] = {}
    for attack_type in attack_types:
        if attack_type == "none" or not ticks or nb_sh == 0:
            continue
        alerting_dates = {d for d, _slot in sh_alert_keys[attack_type]}
        maker = DecisionMaker(nb_sh)
        confirmed = 0
        for date, slot in ticks:
            nacr = (date, slot) in nacr_keys[attack_type]
            nb_alert = len(sh_alert_keys[attack_type].get((date, slot), set()))
            event = maker.tick(date, slot, nacr, min(nb_alert, nb_sh))
            if event is not None:
                confirmed += 1
                alerts.append((attack_type, event))
        fusion[attack_type] = {
            "ticks": len(ticks),
            "confirmed": confirmed,
            "alerting_dates": len(alerting_dates),
        }

    alerts.sort(key=lambda ta: (ta[1].kind, ta[1].timestamp(), ta[1].meter_id or 0, ta[0]))
    return {"alerts": alerts, "fusion": fusion}


def _score(cfg: ScenarioConfig, parse_counts: dict, removed_counts: dict,
           sh_models: dict[int, TreeModel], nbh_model: TreeModel,
           corpus: atk.Corpus, predictions: dict[tuple, np.ndarray], detection: dict):
    per_level: dict[str, _LevelScores] = {}
    per_meter_rates: dict[str, dict] = {}

    for level in ("SH", "NBH"):
        benign_m, benign_sq = [], []
        pos_m: dict[str, list] = {}
        pos_sq: dict[str, list] = {}
        meter_pools: dict[int, dict] = {}
        for variant in corpus.variants:
            if variant.level != level:
                continue
            ls = variant.labeled
            s = ls.base
            model = nbh_model if level == "NBH" else sh_models[s.meter_id]
            pe = model.trained_rmse
            preds = predictions[(level, s.meter_id)]
            if variant.attack_type == "none":
                margins = s.values - (preds + pe)
                benign_m.append(margins)
                benign_sq.append((s.values - preds) ** 2)
                if level == "SH":
                    pool = meter_pools.setdefault(s.meter_id, {"neg": [], "pos": {}})
                    pool["neg"].append(margins)
            else:
                mask = ls.labels
                if not mask.any():
                    continue
                margins = ls.attacked[mask] - (preds[mask] + pe)
                pos_m.setdefault(variant.attack_type, []).append(margins)
                pos_sq.setdefault(variant.attack_type, []).append(
                    (ls.attacked[mask] - preds[mask]) ** 2)
                if level == "SH":
                    pool = meter_pools.setdefault(s.meter_id, {"neg": [], "pos": {}})
                    pool["pos"].setdefault(variant.attack_type, []).append(margins)

        per_level[level] = _LevelScores(
            benign_margins=np.concatenate(benign_m) if benign_m else np.empty(0),
            benign_sqerr=np.concatenate(benign_sq) if benign_sq else np.empty(0),
            pos_margins={t: np.concatenate(v) for t, v in pos_m.items()},
            pos_sqerr={t: np.concatenate(v) for t, v in pos_sq.items()},
        )
        if level == "SH":
            per_meter_rates = _macro_rates(meter_pools)

    attack_types = [t for t in atk.ATTACK_TYPES if cfg.mix.get(t, 0.0) > 0]
    if attack_types:
        report_types = attack_types + (["all"] if len(attack_types) > 1 else [])
    else:
        report_types = ["none"]  # benign-only run: fpr still measured, tpr absent
    report_levels: dict = {}
    roc_curves: dict[tuple[str, str], tuple] = {}
    for level in ("SH", "NBH"):
        pooled = {}
        for attack_type in report_types:
            entry, curve = _type_report(per_level[level], attack_type)
            pooled[attack_type] = entry
            if curve is not None:
                roc_curves[(level, attack_type)] = curve
        report_levels[level] = {"pooled": pooled}
    report_levels["SH"]["macro"] = per_meter_rates

    sh_rmses = [sh_models[m].trained_rmse for m in sorted(sh_models)]
    sh_bytes = [len(serialize(sh_models[m])) for m in sorted(sh_models)]
    report = {
        "seed": cfg.seed,
        "nb_sh": cfg.nb_sh,
        "weeks": cfg.weeks,
        "mix": {t: cfg.mix.get(t, 0.0) for t in atk.ATTACK_TYPES},
        "parse": parse_counts,
        "cleaning": removed_counts,
        "models": {
            "sh": {
                "count": len(sh_models),
                "rmse_mean": float(np.mean(sh_rmses)) if sh_rmses else None,
                "rmse_min": float(np.min(sh_rmses)) if sh_rmses else None,
                "rmse_max": float(np.max(sh_rmses)) if sh_rmses else None,
                "bytes_mean": float(np.mean(sh_bytes)) if sh_bytes else None,
            },
            "nbh": {"rmse": nbh_model.trained_rmse, "mae": nbh_model.trained_mae,
                    "bytes": len(serialize(nbh_model))},
        },
        "levels": report_levels,
        "fusion": detection["fusion"],
        "alerts": {
            "sh_anomaly": sum(1 for _, a in detection["alerts"] if a.kind == "sh_anomaly"),
            "nacr": sum(1 for _, a in detection["alerts"] if a.kind == "nacr"),
            "attack_confirmed": sum(1 for _, a in detection["alerts"]
                                    if a.kind == "attack_confirmed"),
        },
    }
    return report, roc_curves


def _macro_rates(meter_pools: dict[int, dict]) -> dict:
    """Average per-meter rates (macro) next to the pooled figures."""
    per_type: dict[str, dict[str, list]] = {}
    for meter_id in sorted(meter_pools):
        pool = meter_pools[meter_id]
        neg = np.concatenate(pool["neg"]) if pool["neg"] else np.empty(0)
        for attack_type, chunks in pool["pos"].items():
            pos = np.concatenate(chunks)
            rates = _score_rates(neg, pos)
            acc = per_type.setdefault(attack_type, {"tpr": [], "fpr": []})
            if rates["tpr"] is not None:
                acc["tpr"].append(rates["tpr"])
            if rates["fpr"] is not None:
                acc["fpr"].append(rates["fpr"])
    return {
        t: {
            "tpr_mean": float(np.mean(v["tpr"])) if v["tpr"] else None,
            "fpr_mean": float(np.mean(v["fpr"])) if v["fpr"] else None,
            "meters": len(v["tpr"]),
        }
        for t, v in sorted(per_type.items())
    }


def summary_rows(report: dict) -> list[list]:
    """Detection-summary CSV rows (one per level and attack type)."""
    rows = [SUMMARY_HEADER]
    for level in ("SH", "NBH"):
        pooled = report["levels"][level]["pooled"]
        for attack_type, entry in pooled.items():
            rows.append([
                level, attack_type,
                _fmt(entry.get("rmse_benign")), _fmt(entry.get("rmse_attack")),
                _fmt(entry.get("ac")), _fmt(entry.get("tpr")), _fmt(entry.get("fpr")),
                _fmt(entry.get("tnr")), _fmt(entry.get("fnr")),
            ])
    return rows


def _fmt(v) -> str:
    return "" if v is None else repr(v)


def benchmark_models(splits: dict[int, tuple[Dataset, Dataset]],
                     models: dict[int, TreeModel], params: TreeParams) -> list[dict]:
    """Set a rep tree beside each home's trained model tree: cost and accuracy.

    Each meter of ``models`` gets a ``rep_tree`` row, trained on its split,
    and a ``model_tree`` row, the report row of its model. Training on the
    split's validation part stamps the validation MAE and RMSE on the
    model, so the rows carry them without a re-evaluation.
    """
    rows: list[dict] = []
    for meter_id in sorted(models):
        train, valid = splits[meter_id]
        for algorithm, model in (("rep_tree", train_rep_tree(train, params, valid=valid)),
                                 ("model_tree", models[meter_id])):
            rows.append({"dataset": meter_id, "algorithm": algorithm,
                         **model_report_row(meter_id, model)})
    return rows
