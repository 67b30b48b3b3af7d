"""End-to-end scenario execution and evaluation reporting.

A scenario is a pure function of its configuration: synthesize readings
(rounded to the six decimals of the raw wire format, as parsing their raw
lines would give them) or parse a raw file, build and clean SH/NBH
datasets, split by weeks, train the per-home model trees and the
neighborhood rep tree, inject the configured attack mix into the
validation streams, replay them through the detectors and the decision
maker, and score everything against the ground-truth labels.

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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import attacks as atk
from .detect import (DEFAULT_N_WINDOW, DEFAULT_NBR_INCR, AlertEvent, NbhDetectorState,
                     ShDetectorState, check_counter, confirms, replay)
from .errors import ScenarioError
from .ingest import (Dataset, ParseResult, Readings, build_nbh_dataset, build_sh_dataset,
                     clean_dataset, dates_of, group_by_meter, open_raw, parse_raw,
                     split_train_validation, wire_kwh)
from .metrics import roc_curve, score_rates
from .synth import MAX_WEEKS, SynthProfile, synth_columns
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
    nbr_incr: int = DEFAULT_NBR_INCR
    n_window: int = DEFAULT_N_WINDOW
    counter_mode: str = "windowed"  # or "lifetime" (paper-literal counter)
    min_instances: int = TreeParams().min_instances
    prune_fraction: float = TreeParams().prune_fraction
    smoothing: bool = TreeParams().smoothing
    jobs: int = 1
    raw_path: str | None = None

    def __post_init__(self):
        if self.nb_sh < 1:
            raise ValueError("nb_sh must be >= 1")
        if self.weeks < 4:
            raise ValueError("weeks must be >= 4 (train/validation split needs 4 whole weeks)")
        if self.weeks > MAX_WEEKS:
            raise ValueError(f"weeks must be <= {MAX_WEEKS} (day codes end at 999), "
                             f"not {self.weeks}")
        for key, proportion in self.mix.items():
            if key not in atk.ATTACK_TYPES:
                raise ValueError(f"mix key {key!r} is not one of {', '.join(atk.ATTACK_TYPES)}")
            if not (isinstance(proportion, (int, float)) and 0.0 <= proportion <= 1.0):
                raise ValueError(f"mix {key!r} is {proportion!r}; a proportion lies in [0, 1]")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, not {self.jobs!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed!r}")
        if not isinstance(self.factors, dict):
            raise ValueError(f"factors {self.factors!r}: expected {{type: [low, high]}}")
        for key, bounds in self.factors.items():
            if key not in atk.ATTACK_TYPES:
                raise ValueError(f"factors key {key!r} is not one of "
                                 f"{', '.join(atk.ATTACK_TYPES)}")
            if not _is_pair(bounds):
                raise ValueError(f"factors of {key} {bounds!r}: expected [low, high]")
        if not isinstance(self.peak_windows, (list, tuple)):
            raise ValueError(f"peak_windows {self.peak_windows!r}: expected a list of [start, end]")
        for window in self.peak_windows:
            if not _is_pair(window):
                raise ValueError(f"peak_windows entry {window!r}: expected [start, end]")
        self.factors = {key: tuple(bounds) for key, bounds in self.factors.items()}
        self.peak_windows = tuple(tuple(window) for window in self.peak_windows)
        check_counter(self.nbr_incr, self.n_window, self.counter_mode)
        self.tree_params().validate()
        self.attack_specs()

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
        return ScenarioConfig(**obj)


def _is_pair(entry) -> bool:
    return isinstance(entry, (list, tuple)) and len(entry) == 2


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


def model_report_row(meter_id, model: TreeModel, model_bytes: int) -> dict:
    """A model's row of the training and benchmark reports; ``model_bytes``
    is the length of its ``serialize`` payload."""
    return {
        "meter_id": meter_id,
        "kind": model.kind,
        "mae": model.trained_mae,
        "rmse": model.trained_rmse,
        "train_seconds": model.training_meta.get("train_seconds", 0.0),
        "model_bytes": model_bytes,
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
    # every model is serialized once, for the report, its row and the benchmark
    model_bytes = {m: len(serialize(model))
                   for m, model in [*sh_models.items(), ("NBH", nbh_model)]}
    report, roc_curves = stage("score", _score, cfg, parse_counts, removed_counts,
                               sh_models, nbh_model, model_bytes, corpus, predictions, detection)
    first = sorted(sh_models)[:max(benchmark_meters, 0)]
    benchmark_rows = stage("benchmark", benchmark_models, sh_splits,
                           {m: sh_models[m] for m in first}, cfg.tree_params(), model_bytes)

    training_rows = [model_report_row(m, sh_models[m], model_bytes[m]) for m in sorted(sh_models)]
    training_rows.append(model_report_row("NBH", nbh_model, model_bytes["NBH"]))

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
    """The raw file parsed, or the synthesized readings as they would parse.

    A synthetic config skips the text: ``wire_kwh`` gives each kWh the value
    its ``synth_raw_lines`` line parses back to, and every such line is
    valid, so the result equals ``parse_raw(synth_raw_lines(...))`` with no
    issues. A profile whose kWh overflow to infinity would write lines the
    parser rejects, so it is refused.
    """
    if cfg.raw_path:
        return parse_raw(open_raw(cfg.raw_path))
    synth = synth_columns(cfg.profile, cfg.nb_sh, cfg.weeks, cfg.seed)
    kwh = wire_kwh(synth.kwh)
    if not np.isfinite(kwh).all():
        raise ValueError("the synthesis profile gives non-finite kWh")
    return ParseResult(dataclasses.replace(synth, kwh=kwh), [])


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


# alert kinds ranked as their names sort
_KIND_RANK = {kind: i for i, kind in enumerate(sorted(("attack_confirmed", "nacr", "sh_anomaly")))}


def _detect(corpus: atk.Corpus, predictions: dict[tuple, np.ndarray],
            sh_models: dict[int, TreeModel], nbh_model: TreeModel,
            cfg: ScenarioConfig) -> dict:
    """Stateful replay of every corpus variant plus per-tick decision fusion.

    Each variant is replayed against its base series' prediction by
    ``detect.replay``. Alerts are returned as (attack type of the replayed
    stream, event) so the log records which variant fired them, ordered by
    kind, timestamp, meter id and attack type. Fusion counts, per tick of
    the neighborhood series, the homes whose hourly alert covers it, and
    confirms the ticks that ``detect.confirms``.
    """
    attack_types = sorted({v.attack_type for v in corpus.variants})
    alerts: list[tuple[str, AlertEvent]] = []
    sort_keys = ([], [], [], [])   # per alert: kind, minute since day 0, meter id, attack type
    # per attack type, the ticks of its alerts: a home's hourly alert covers
    # both half-hours of the hour, and a home alerts at most once an hour
    homes = {t: [np.empty(0, np.int64)] for t in attack_types}
    nacr = {t: [np.empty(0, np.int64)] for t in attack_types}

    def add(attack_type, events, kind, minute, meter_id):
        alerts.extend((attack_type, event) for event in events)
        for column, key in zip(sort_keys, (_KIND_RANK[kind], minute, meter_id,
                                           attack_types.index(attack_type))):
            column.append(np.broadcast_to(key, minute.shape))

    for variant in corpus.variants:
        s, attack_type = variant.labeled.base, variant.attack_type
        if variant.level == "SH":
            state = ShDetectorState(s.meter_id, sh_models[s.meter_id], nbr_incr=cfg.nbr_incr,
                                    n_window=cfg.n_window, mode=cfg.counter_mode)
        else:
            state = NbhDetectorState(nbh_model)
        fired = replay(state, s.data.day, s.data.interval, variant.labeled.attacked,
                       predictions[(variant.level, s.meter_id)])
        rows = np.array([i for i, _ in fired], dtype=np.int64)
        day, interval = s.data.day[rows], s.data.interval[rows]
        events = [event for _, event in fired]
        if variant.level == "SH":
            add(attack_type, events, "sh_anomaly", day * 1440 + (interval - 1) * 60, s.meter_id)
            homes[attack_type] += [day * 100 + 2 * interval - 1, day * 100 + 2 * interval]
        else:
            add(attack_type, events, "nacr", day * 1440 + (interval - 1) * 30, 0)
            nacr[attack_type].append(day * 100 + interval)

    # decision fusion over the validation timeline, per attack type
    benign = [v for v in corpus.variants if v.attack_type == "none"]
    nbh_base = next((v.labeled.base.data for v in benign if v.level == "NBH"), None)
    nb_sh = sum(1 for v in benign if v.level == "SH")
    fusion: dict[str, dict] = {}
    for attack_type in attack_types:
        if attack_type == "none" or nbh_base is None or not len(nbh_base) or nb_sh == 0:
            continue
        ticks = nbh_base.day * 100 + nbh_base.interval
        alerting = np.sort(np.concatenate(homes[attack_type]))
        nb_alert = np.searchsorted(alerting, ticks, "right") \
            - np.searchsorted(alerting, ticks, "left")
        hit = np.flatnonzero(confirms(np.isin(ticks, np.concatenate(nacr[attack_type])),
                                      np.minimum(nb_alert, nb_sh), nb_sh))
        day, slot = nbh_base.day[hit], nbh_base.interval[hit]
        events = [AlertEvent("attack_confirmed", None, d, i, "slot", 0.0, 0.0, 0.0)
                  for d, i in zip(dates_of(day), slot.tolist())]
        add(attack_type, events, "attack_confirmed", day * 1440 + (slot - 1) * 30, 0)
        fusion[attack_type] = {
            "ticks": len(nbh_base),
            "confirmed": int(hit.size),
            "alerting_dates": int(np.unique(alerting // 100).size),
        }

    order = np.lexsort([np.concatenate(column) for column in reversed(sort_keys)]).tolist() \
        if alerts else []
    return {"alerts": [alerts[i] for i in order], "fusion": fusion}


def _score(cfg: ScenarioConfig, parse_counts: dict, removed_counts: dict,
           sh_models: dict[int, TreeModel], nbh_model: TreeModel, model_bytes: dict,
           corpus: atk.Corpus, predictions: dict[tuple, np.ndarray], detection: dict):
    """The report and its ROC curves, from one table of per-series margins.

    ``scored[(level, attack type)][meter id]`` holds (margins, squared
    errors) of every row of a benign variant and of the labeled rows of an
    attack variant, in corpus order. Each figure concatenates entries of
    it: a type pools its meters, ``"all"`` its types in ``ATTACK_TYPES``
    order, and the SH macro means rate each meter's entry of a type
    against that meter's benign entry.
    """
    scored: dict[tuple[str, str], dict] = {}
    for variant in corpus.variants:
        s, observed = variant.labeled.base, variant.labeled.attacked
        preds = predictions[(variant.level, s.meter_id)]
        if variant.attack_type != "none":
            labels = variant.labeled.labels
            if not labels.any():
                continue
            observed, preds = observed[labels], preds[labels]
        pe = (nbh_model if variant.level == "NBH" else sh_models[s.meter_id]).trained_rmse
        scored.setdefault((variant.level, variant.attack_type), {})[s.meter_id] = (
            observed - (preds + pe), (observed - preds) ** 2)

    def pool(level: str, types) -> tuple[np.ndarray, np.ndarray]:
        entries = [e for t in types for e in scored.get((level, t), {}).values()]
        return tuple(np.concatenate([e[i] for e in entries] or [np.empty(0)]) for i in (0, 1))

    attack_types = [t for t in atk.ATTACK_TYPES if cfg.mix.get(t, 0.0) > 0]
    if attack_types:
        report_types = attack_types + (["all"] if len(attack_types) > 1 else [])
    else:
        report_types = ["none"]  # benign-only run: fpr still measured, tpr absent
    report_levels: dict = {}
    roc_curves: dict[tuple[str, str], tuple] = {}
    for level in ("SH", "NBH"):
        neg, neg_sq = pool(level, ["none"])
        pooled = {}
        report_levels[level] = {"pooled": pooled}
        for report_type in report_types:
            pos, pos_sq = pool(level, [t for t in attack_types if report_type in (t, "all")])
            entry = pooled[report_type] = score_rates(neg, pos)
            entry["rmse_benign"] = float(np.sqrt(neg_sq.mean())) if neg.size else None
            entry["rmse_attack"] = float(np.sqrt(pos_sq.mean())) if pos.size else None
            if pos.size and neg.size:
                fpr, tpr, entry["auc"] = roc_curve(
                    np.concatenate([neg, pos]),
                    np.concatenate([np.zeros(neg.size, bool), np.ones(pos.size, bool)]))
                roc_curves[(level, report_type)] = (fpr, tpr)

    benign = scored.get(("SH", "none"), {})
    macro = {}
    for attack_type in atk.ATTACK_TYPES:
        rates = [score_rates(benign[m][0], pos)
                 for m, (pos, _) in scored.get(("SH", attack_type), {}).items()]
        if rates:
            macro[attack_type] = {"tpr_mean": float(np.mean([r["tpr"] for r in rates])),
                                  "fpr_mean": float(np.mean([r["fpr"] for r in rates])),
                                  "meters": len(rates)}
    report_levels["SH"]["macro"] = macro

    alerts = Counter(event.kind for _, event in detection["alerts"])
    sh_rmses = [sh_models[m].trained_rmse for m in sorted(sh_models)]
    sh_bytes = [model_bytes[m] for m in sorted(sh_models)]
    return {
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
                    "bytes": model_bytes["NBH"]},
        },
        "levels": report_levels,
        "fusion": detection["fusion"],
        "alerts": {kind: alerts[kind] for kind in ("sh_anomaly", "nacr", "attack_confirmed")},
    }, roc_curves


def summary_rows(report: dict) -> list[list]:
    """Detection-summary CSV rows (one per level and attack type)."""
    rows = [SUMMARY_HEADER]
    for level in ("SH", "NBH"):
        for attack_type, entry in pooled_entries(report, level):
            rows.append([
                level, attack_type,
                _fmt(entry.get("rmse_benign")), _fmt(entry.get("rmse_attack")),
                _fmt(entry.get("ac")), _fmt(entry.get("tpr")), _fmt(entry.get("fpr")),
                _fmt(entry.get("tnr")), _fmt(entry.get("fnr")),
            ])
    return rows


def pooled_entries(report: dict, level: str) -> list[tuple[str, dict]]:
    """A level's pooled (attack type, entry) pairs, in ``ATTACK_TYPES`` order
    and then "all" or "none", whatever order the report's keys are in."""
    pooled = report["levels"][level]["pooled"]
    return [(t, pooled[t]) for t in (*atk.ATTACK_TYPES, "all", "none") if t in pooled]


def _fmt(v) -> str:
    return "" if v is None else repr(v)


def benchmark_models(splits: dict[int, tuple[Dataset, Dataset]],
                     models: dict[int, TreeModel], params: TreeParams,
                     model_bytes: dict | None = None) -> list[dict]:
    """Set a rep tree beside each home's trained model tree: cost and accuracy.

    Each meter of ``models`` gets a ``rep_tree`` row, trained on its split,
    and a ``model_tree`` row, the report row of its model. Training on the
    split's validation part stamps the validation MAE and RMSE on the
    model, so the rows carry them without a re-evaluation. ``model_bytes``
    holds the payload length of each of ``models`` where the caller has
    serialized them; the others are serialized here.
    """
    model_bytes = model_bytes or {}
    rows: list[dict] = []
    for meter_id in sorted(models):
        train, valid = splits[meter_id]
        rep_tree, model = train_rep_tree(train, params, valid=valid), models[meter_id]
        size = model_bytes[meter_id] if meter_id in model_bytes else len(serialize(model))
        rows += [{"dataset": meter_id, "algorithm": "rep_tree",
                  **model_report_row(meter_id, rep_tree, len(serialize(rep_tree)))},
                 {"dataset": meter_id, "algorithm": "model_tree",
                  **model_report_row(meter_id, model, size)}]
    return rows
