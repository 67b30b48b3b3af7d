"""Command-line entry point: the pipeline as reproducible subcommands.

    gridwatch ingest raw.txt --out out/ [--split] [--meter ID]
    gridwatch train --data out/ --out models/
    gridwatch attack --data out/ --attack all --out corpus/
    gridwatch detect --models models/ --corpus corpus/corpus_sh.csv --out alerts/
    gridwatch simulate --config scenario.json --out run/
    gridwatch report --run run/

Exit codes: 0 success, 1 internal error, 2 user/input error. Seed
precedence: config file < --seed flag < GRIDWATCH_SEED environment
variable. All data artifacts are byte-reproducible from identical inputs
and seed; the only exceptions are wall-clock timing fields (train_seconds
columns and the manifest's stage timings).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Iterator

import numpy as np

from . import attacks as atk
from . import scenario as scn
from .detect import (COUNTER_MODES, DEFAULT_N_WINDOW, DEFAULT_NBR_INCR, NbhDetectorState,
                     ShDetectorState, check_counter, replay)
from .errors import GridwatchError, ScenarioError, SequencingError, UserInputError
from .ingest import (Dataset, build_nbh_dataset, build_sh_dataset, clean_dataset,
                     clock_hour, day_code_of, group_by_meter, open_raw, parse_raw,
                     read_dataset_csv, write_dataset_csv, write_labeled_csv,
                     write_removed_csv)
from .manifest import MANIFEST_NAME, verify_manifest, write_json, write_manifest
from .trees import (_predict_dataset, deserialize, serialize, to_text, train_model_tree,
                    train_rep_tree)

ENV_SEED = "GRIDWATCH_SEED"
ROWS_PER_WRITE = 8192   # rows rendered into one string, so no file's whole text is held


def _resolve_seed(args, config_seed: int | None = None) -> int:
    seed = config_seed if config_seed is not None else 0
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if os.environ.get(ENV_SEED):
        seed = int(os.environ[ENV_SEED])
    if seed < 0:
        raise UserInputError(f"seed must be >= 0, not {seed}")
    return seed


def _write_csv(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


def _write_table(path: Path, header: list[str], records) -> None:
    """A CSV of dict records, one column per header key."""
    _write_csv(path, [header] + [[r[k] for k in header] for r in records])


def float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each float64 in ``values``, rendering each distinct bit
    pattern once (so ``-0.0`` and ``0.0`` stay apart)."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64),
                              return_inverse=True)
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return [texts[i] for i in inverse.tolist()]


def _missing(path: Path, what: str) -> None:
    if not path.exists():
        raise UserInputError(f"missing {what}: {path}")


# ---------------------------------------------------------------------------
# ingest

def cmd_ingest(args) -> int:
    seed = _resolve_seed(args)
    raw_path = Path(args.raw)
    _missing(raw_path, "raw input file")
    out = Path(args.out)
    t0 = time.perf_counter()

    parsed = parse_raw(open_raw(raw_path))
    if len(parsed.issues) > args.max_bad_lines:
        for issue in parsed.issues[:20]:
            print(f"line {issue.line_no}: {issue.message}", file=sys.stderr)
        raise UserInputError(
            f"{len(parsed.issues)} malformed line(s) exceed --max-bad-lines={args.max_bad_lines}")

    per_meter = group_by_meter(parsed.readings)
    if args.meter is not None:
        if args.meter not in per_meter:
            raise UserInputError(f"meter {args.meter} not present in {raw_path}")
        per_meter = {args.meter: per_meter[args.meter]}

    # one meter at a time: built, written and dropped before the next
    removed_total = 0
    for meter_id, readings in per_meter.items():
        ds, _report = build_sh_dataset(readings)
        removed_total += _write_datasets(ds, out, f"sh_{meter_id}", args.split, seed)
    nbh_source = parsed.readings if args.meter is None else per_meter[args.meter]
    nbh, _report = build_nbh_dataset(nbh_source)
    removed_total += _write_datasets(nbh, out, "nbh", args.split, seed)

    write_manifest(out, "ingest", {
        "raw": str(raw_path), "meter": args.meter, "split": args.split,
        "max_bad_lines": args.max_bad_lines,
    }, seed, [str(raw_path)], {"ingest": time.perf_counter() - t0})
    print(f"ingest: {len(parsed.readings)} readings, {len(parsed.issues)} bad line(s), "
          f"{len(per_meter)} meter(s), {removed_total} outlier row(s) removed -> {out}")
    return 0


def _write_datasets(ds: Dataset, out: Path, stem: str, split: bool, seed: int) -> int:
    """Clean a dataset, then write it, its removed rows and optionally its
    train/validation split; returns the number of rows removed."""
    ds, removed = clean_dataset(ds)
    split_paths = (out / "splits" / f"{stem}_train.csv",
                   out / "splits" / f"{stem}_valid.csv") if split else ()
    write_dataset_csv(ds, out / "datasets" / f"{stem}.csv", split_paths, seed)
    write_removed_csv(removed, out / "datasets" / f"removed_{stem}.csv")
    return len(removed)


# ---------------------------------------------------------------------------
# train

def _load_split(splits_dir: Path, stem: str) -> tuple[Dataset, Dataset]:
    train_path = splits_dir / f"{stem}_train.csv"
    valid_path = splits_dir / f"{stem}_valid.csv"
    _missing(train_path, "training dataset")
    _missing(valid_path, "validation dataset")
    return read_dataset_csv(train_path), read_dataset_csv(valid_path)


def cmd_train(args) -> int:
    seed = _resolve_seed(args)
    data = Path(args.data)
    splits_dir = data / "splits"
    _missing(splits_dir, "splits directory (run `gridwatch ingest --split` first)")
    params = scn.TreeParams(args.min_instances, args.prune_fraction,
                            args.smoothing, seed=seed)
    try:
        params.validate()
    except ValueError as exc:
        raise UserInputError(f"bad training settings: {exc}") from exc
    out = Path(args.out)
    models_dir = out / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    report_rows = []

    def save(stem: str, meter_key, model) -> None:
        payload = serialize(model)
        (models_dir / f"{stem}.amim").write_bytes(payload)
        if args.dump_text:
            (models_dir / f"{stem}.txt").write_text(to_text(model) + "\n")
        report_rows.append(scn.model_report_row(meter_key, model, len(payload)))

    if args.level in ("sh", "both"):
        stems = sorted(p.name[:-len("_train.csv")] for p in splits_dir.glob("sh_*_train.csv"))
        if not stems:
            raise UserInputError(f"missing SH split datasets under {splits_dir}")
        for stem in stems:
            train, valid = _load_split(splits_dir, stem)
            save(stem, train.meter_id, train_model_tree(train, params, valid=valid))
    if args.level in ("nbh", "both"):
        train, valid = _load_split(splits_dir, "nbh")
        save("nbh", "NBH", train_rep_tree(train, params, valid=valid))

    _write_table(out / "training_report.csv", scn.TRAINING_REPORT_HEADER, report_rows)
    write_manifest(out, "train", {
        "data": str(data), "level": args.level, "min_instances": args.min_instances,
        "prune_fraction": args.prune_fraction, "smoothing": args.smoothing,
    }, seed, [str(data)], {"train": time.perf_counter() - t0})
    print(f"train: {len(report_rows)} model(s) -> {models_dir}")
    return 0


# ---------------------------------------------------------------------------
# attack

def cmd_attack(args) -> int:
    seed = _resolve_seed(args)
    data = Path(args.data)
    splits_dir = data / "splits"
    _missing(splits_dir, "splits directory (run `gridwatch ingest --split` first)")
    out = Path(args.out)
    types = list(atk.ATTACK_TYPES) if args.attack == "all" else [args.attack]
    mix = {t: (1.0 if t in types else 0.0) for t in atk.ATTACK_TYPES}
    t0 = time.perf_counter()

    sh_valid = {}
    for path in sorted(splits_dir.glob("sh_*_valid.csv")):
        ds = read_dataset_csv(path)
        sh_valid[ds.meter_id] = ds
    nbh_path = splits_dir / "nbh_valid.csv"
    nbh_valid = read_dataset_csv(nbh_path) if nbh_path.exists() else None
    if not sh_valid and nbh_valid is None:
        raise UserInputError(f"missing validation datasets under {splits_dir}")

    corpus = atk.generate_corpus(sh_valid, nbh_valid, mix, seed)
    levels = (["SH"] if sh_valid else []) + (["NBH"] if nbh_valid is not None else [])
    _write_corpora(out, corpus, levels)

    write_manifest(out, "attack", {"data": str(data), "attack": args.attack},
                   seed, [str(data)], {"attack": time.perf_counter() - t0})
    print(f"attack: {len(corpus.variants)} variant stream(s) -> {out}")
    return 0


def _write_corpora(out: Path, corpus: atk.Corpus, levels=("SH", "NBH")) -> None:
    """One corpus CSV per monitoring level: corpus_sh.csv, corpus_nbh.csv."""
    out.mkdir(parents=True, exist_ok=True)
    for level in levels:
        variants = [v for v in corpus.variants if v.level == level]
        with open(out / f"corpus_{level.lower()}.csv", "w", newline="") as fh:
            fh.writelines(atk.corpus_csv_rows(atk.Corpus(variants, corpus.seed)))


# ---------------------------------------------------------------------------
# detect

def _corpus_streams(path: Path, level: str) -> list[tuple[str, Dataset]]:
    """Corpus CSV rows as (attack_type, dataset of attacked observations)
    replay streams, one per (meter_id, attack_type), rows in file order.

    SH rows carry a meter id and NBH rows none; a row that disagrees with
    ``level`` is a user error naming the file and line.
    """
    kind = "hour" if level == "sh" else "slot"
    streams: dict[tuple, list[tuple[int, int, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for rec in reader:
                meter_id = int(rec["meter_id"]) if rec["meter_id"] else None
                if (meter_id is None) == (level == "sh"):
                    raise UserInputError(
                        f"corpus {path} at line {reader.line_num} does not fit --level {level}: "
                        f"meter_id {rec['meter_id']!r} (SH rows carry one, NBH rows none)")
                interval = int(rec["interval"])
                clock_hour(interval, kind)
                streams.setdefault((meter_id, rec["attack_type"]), []).append(
                    (day_code_of(dt.date.fromisoformat(rec["date"])), interval,
                     float(rec["attacked_kwh"])))
        except (KeyError, ValueError, TypeError) as exc:   # TypeError: a short row
            raise UserInputError(f"malformed corpus {path} at line {reader.line_num}: "
                                 f"missing column or bad value {exc}") from exc
    # columns: int64 day codes and intervals, float64 kWh
    return [(attack_type, Dataset(level.upper(), meter_id, *map(np.array, zip(*rows)), ()))
            for (meter_id, attack_type), rows in sorted(
                streams.items(), key=lambda kv: (kv[0][0] or 0, kv[0][1]))]


def cmd_detect(args) -> int:
    try:
        check_counter(args.nbr_incr, args.n_window, args.counter_mode)
    except ValueError as exc:
        raise UserInputError(f"bad detector settings: {exc}") from exc
    models_dir = Path(args.models)
    _missing(models_dir, "models directory")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    if args.corpus:
        stream_path = Path(args.corpus)
        _missing(stream_path, "corpus file")
        level = args.level
        streams = _corpus_streams(stream_path, level)
    else:
        stream_path = Path(args.dataset)
        _missing(stream_path, "dataset file")
        ds = read_dataset_csv(stream_path)
        level = ds.level.lower()
        streams = [("none", ds.chronological())]

    # each row once: the alerting ones as suspects, the rest as benign;
    # each model is loaded once and every stream gets a fresh detector state
    alerts, suspects, benign = [], [], []
    models = {}
    for attack_type, ds in streams:
        if ds.meter_id not in models:
            models[ds.meter_id] = _load_model(models_dir, level, ds.meter_id)
        state = (ShDetectorState(ds.meter_id, models[ds.meter_id], nbr_incr=args.nbr_incr,
                                 n_window=args.n_window, mode=args.counter_mode)
                 if level == "sh" else NbhDetectorState(models[ds.meter_id]))
        try:
            fired = replay(state, ds.day, ds.interval, ds.kwh, _predict_dataset(state.model, ds))
        except SequencingError as exc:
            raise UserInputError(f"bad stream in {stream_path}: {exc}") from exc
        alerts += [(attack_type, event) for _, event in fired]
        hit = np.zeros(len(ds), dtype=bool)
        hit[[i for i, _ in fired]] = True
        suspects.append(ds.take(hit))
        benign.append(ds.take(~hit))

    log_path = out / "alerts.jsonl"
    _write_alerts(log_path, alerts)
    write_labeled_csv(suspects, "suspect", out / "suspects.csv")
    write_labeled_csv(benign, "benign", out / "benign.csv")
    write_manifest(out, "detect", {
        "models": str(models_dir), "corpus": args.corpus, "dataset": args.dataset,
        "level": level, "nbr_incr": args.nbr_incr, "n_window": args.n_window,
        "counter_mode": args.counter_mode,
    }, _resolve_seed(args), [str(models_dir)], {"detect": time.perf_counter() - t0})
    print(f"detect: {len(alerts)} alert(s) -> {log_path}")
    return 0


def alert_lines(alerts: list) -> Iterator[str]:
    """The alerts.jsonl line of each (attack type, event), made lazily: the
    event's fields and its stream's attack type as ``json.dumps(obj,
    sort_keys=True, allow_nan=False)`` writes them, then a newline.

    Strict JSON: a NaN or infinity in any alert raises ValueError at the
    call, before any line is made. The strings are quoted once per distinct
    (attack type, interval kind, kind) and the timestamp once per (date,
    interval, interval kind).
    """
    if not all(math.isfinite(v) for _, e in alerts
               for v in (e.observed, e.predicted, e.threshold)):
        raise ValueError("non-finite alert value: out of range for strict JSON")
    quoted, stamps = {}, {}

    def line(attack_type, e) -> str:
        labels = (attack_type, e.interval_kind, e.kind)
        if labels not in quoted:
            quoted[labels] = tuple(map(json.dumps, labels))
        attack, interval_kind, kind = quoted[labels]
        key = (e.date, e.interval, e.interval_kind)
        if key not in stamps:
            stamps[key] = json.dumps(e.timestamp().isoformat())
        meter = "null" if e.meter_id is None else int(e.meter_id)
        return (f'{{"attack_type": {attack}, "interval": {int(e.interval)}, '
                f'"interval_kind": {interval_kind}, "kind": {kind}, "meter_id": {meter}, '
                f'"observed": {float(e.observed)!r}, "predicted": {float(e.predicted)!r}, '
                f'"threshold": {float(e.threshold)!r}, "timestamp": {stamps[key]}}}\n')

    return itertools.starmap(line, alerts)


def _write_alerts(path: Path, alerts: list) -> None:
    """alerts.jsonl: ``alert_lines``, ROWS_PER_WRITE lines per write. A NaN
    or infinity raises ValueError before the file is opened, so no partial
    file is left behind."""
    lines = alert_lines(alerts)
    with open(path, "w") as fh:
        while chunk := "".join(itertools.islice(lines, ROWS_PER_WRITE)):
            fh.write(chunk)


def _write_roc(path: Path, fpr: np.ndarray, tpr: np.ndarray) -> None:
    """A ROC curve CSV: the header and the ``repr`` of each point's rates,
    the text ``csv.writer`` writes for them, ROWS_PER_WRITE rows per write."""
    with open(path, "w", newline="") as fh:
        fh.write("fpr,tpr\r\n")
        for lo in range(0, len(fpr), ROWS_PER_WRITE):
            rows = zip(float_texts(fpr[lo:lo + ROWS_PER_WRITE]),
                       float_texts(tpr[lo:lo + ROWS_PER_WRITE]))
            fh.write("".join([f"{f},{t}\r\n" for f, t in rows]))


def _load_model(models_dir: Path, level: str, meter_id):
    if level == "sh":
        path = models_dir / f"sh_{meter_id}.amim"
        _missing(path, f"model for meter {meter_id}")
    else:
        path = models_dir / "nbh.amim"
        _missing(path, "neighborhood model")
    return deserialize(path.read_bytes())


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    source = args.config or "<defaults>"
    if args.config:
        _missing(Path(args.config), "scenario config")
    try:
        cfg = scn.ScenarioConfig.from_json_obj(
            json.loads(Path(args.config).read_text()) if args.config else {})
        cfg = dataclasses.replace(cfg, seed=_resolve_seed(args, cfg.seed),
                                  jobs=cfg.jobs if args.jobs is None else args.jobs)
    except (TypeError, ValueError, KeyError) as exc:
        raise UserInputError(f"bad scenario config {source}: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = scn.run_scenario(cfg, args.benchmark_meters)

    t0 = time.perf_counter()
    write_json(out / "report.json", result.report)
    _write_csv(out / "detection_summary.csv", scn.summary_rows(result.report))
    for (level, attack_type), (fpr, tpr) in sorted(result.roc.items()):
        _write_roc(out / f"roc_{level.lower()}_{attack_type}.csv", fpr, tpr)
    _write_alerts(out / "alerts.jsonl", result.alerts)
    _write_corpora(out, result.corpus)

    _write_table(out / "training_report.csv", scn.TRAINING_REPORT_HEADER, result.training_rows)
    _write_table(out / "model_benchmark.csv", scn.BENCHMARK_HEADER, result.benchmark_rows)

    write_manifest(out, "simulate", cfg.to_json_obj(), cfg.seed, [source],
                   {**result.timings, "write": time.perf_counter() - t0})
    sh_all = result.report["levels"]["SH"]["pooled"].get("all") or \
        next(iter(result.report["levels"]["SH"]["pooled"].values()), {})
    print(f"simulate: seed {cfg.seed}, {cfg.nb_sh} meter(s), {cfg.weeks} week(s); "
          f"SH tpr={sh_all.get('tpr')} fpr={sh_all.get('fpr')} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# report

def cmd_report(args) -> int:
    run_dir = Path(args.run)
    report_path = run_dir / "report.json"
    _missing(report_path, "report.json (run `gridwatch simulate` first)")
    _verify_run(run_dir)
    with open(report_path) as fh:
        report = json.load(fh)
    _write_csv(run_dir / "detection_summary.csv", scn.summary_rows(report))

    bench_path = run_dir / "model_benchmark.csv"
    if bench_path.exists():
        with open(bench_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        agg_rows = [["algorithm", "mae", "rmse", "train_seconds", "model_kb", "models"]]
        for algorithm in ("rep_tree", "model_tree"):
            sub = [r for r in rows if r["algorithm"] == algorithm]
            if not sub:
                continue
            mean = lambda key: sum(float(r[key]) for r in sub) / len(sub)
            agg_rows.append([algorithm, mean("mae"), mean("rmse"),
                             mean("train_seconds"), mean("model_bytes") / 1024.0, len(sub)])
        _write_csv(run_dir / "model_benchmark_summary.csv", agg_rows)

    for level in ("SH", "NBH"):
        for attack_type, entry in report["levels"][level]["pooled"].items():
            print(f"{level:3s} {attack_type:4s} "
                  f"tpr={_num(entry.get('tpr'))} fpr={_num(entry.get('fpr'))} "
                  f"ac={_num(entry.get('ac'))} rmse={_num(entry.get('rmse_benign'))} "
                  f"rmse_a={_num(entry.get('rmse_attack'))}")
    print(f"report: tables written under {run_dir}")
    return 0


def _verify_run(run_dir: Path) -> None:
    """The run's artifacts must still match the checksums in its manifest."""
    manifest_path = run_dir / MANIFEST_NAME
    _missing(manifest_path, "run manifest")
    try:
        changed = verify_manifest(run_dir)
    except (ValueError, KeyError) as exc:
        raise UserInputError(f"malformed run manifest {manifest_path}: {exc!r}") from exc
    if changed:
        raise UserInputError(f"{run_dir} does not match {manifest_path}; "
                             f"changed or missing: {', '.join(changed)}")


def _num(v) -> str:
    return "n/a" if v is None else f"{v:.3f}"


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridwatch",
        description="Consumption-pattern detection of power-overloading attacks on metering data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw readings into SH/NBH datasets")
    p.add_argument("raw", help="raw readings file (.gz accepted)")
    p.add_argument("--out", required=True)
    p.add_argument("--meter", type=int, default=None, help="keep only this meter id")
    p.add_argument("--split", action="store_true", help="also write train/validation splits")
    p.add_argument("--max-bad-lines", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train per-home model trees and the neighborhood rep tree")
    p.add_argument("--data", required=True, help="ingest output directory (with splits/)")
    p.add_argument("--out", required=True)
    p.add_argument("--level", choices=("sh", "nbh", "both"), default="both")
    p.add_argument("--min-instances", type=int, default=scn.TreeParams().min_instances)
    p.add_argument("--prune-fraction", type=float, default=scn.TreeParams().prune_fraction)
    p.add_argument("--smoothing", action="store_true")
    p.add_argument("--dump-text", action="store_true",
                   help="also write a readable .txt rendering of each tree")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="generate labeled attack corpora from validation data")
    p.add_argument("--data", required=True, help="ingest output directory (with splits/)")
    p.add_argument("--out", required=True)
    p.add_argument("--attack", choices=atk.ATTACK_TYPES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("detect", help="replay a stream through the detectors")
    p.add_argument("--models", required=True, help="directory holding .amim model files")
    p.add_argument("--corpus", default=None, help="corpus CSV to replay")
    p.add_argument("--dataset", default=None, help="dataset CSV to replay (benign stream)")
    p.add_argument("--level", choices=("sh", "nbh"), default="sh")
    p.add_argument("--nbr-incr", type=int, default=DEFAULT_NBR_INCR)
    p.add_argument("--n-window", type=int, default=DEFAULT_N_WINDOW)
    p.add_argument("--counter-mode", choices=COUNTER_MODES, default="windowed")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="run a full synthetic scenario end to end")
    p.add_argument("--config", default=None, help="scenario config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--benchmark-meters", type=int, default=5)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="emit summary tables from a simulate run")
    p.add_argument("--run", required=True, help="simulate output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "detect" and bool(args.corpus) == bool(args.dataset):
        print("error: detect needs one of --corpus or --dataset", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, UserInputError) else 1
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridwatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
