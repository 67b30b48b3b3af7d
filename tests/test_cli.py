import collections
import csv
import dataclasses
import datetime as dt
import io
import gzip
import json
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridwatch import cli
from gridwatch.cli import _write_alerts, _write_roc, alert_lines, float_texts, main
from gridwatch.detect import DEFAULT_N_WINDOW, DEFAULT_NBR_INCR, AlertEvent
from gridwatch.ingest import read_dataset_csv, split_train_validation, write_dataset_csv
from gridwatch.manifest import read_manifest, verify_manifest, write_json, write_manifest
from gridwatch.synth import SynthProfile, synth_raw_lines
from gridwatch.trees import TreeParams, serialize


@pytest.fixture(scope="module")
def raw_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("raw") / "readings.txt"
    lines = synth_raw_lines(SynthProfile(), 3, 8, seed=13)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def ingested(raw_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("ingested")
    assert main(["ingest", str(raw_file), "--out", str(out), "--split", "--seed", "13"]) == 0
    return out


@pytest.fixture(scope="module")
def trained(ingested, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(["train", "--data", str(ingested), "--out", str(out), "--seed", "13"]) == 0
    return out


def test_train_serializes_each_model_once(ingested, tmp_path):
    """The model file and the training report's ``model_bytes`` share one
    payload."""
    spy = mock.Mock(wraps=serialize)
    with mock.patch.object(cli, "serialize", spy), mock.patch.object(cli.scn, "serialize", spy):
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path), "--seed", "13"]) == 0
    models = [call.args[0] for call in spy.call_args_list]
    files = sorted((tmp_path / "models").glob("*.amim"))
    assert len(models) == len({id(m) for m in models}) == len(files) == 4
    with open(tmp_path / "training_report.csv", newline="") as fh:
        sizes = sorted(int(row["model_bytes"]) for row in csv.DictReader(fh))
    assert sizes == sorted(path.stat().st_size for path in files)


def test_ingest_writes_datasets_and_manifest(ingested):
    assert (ingested / "datasets" / "sh_1.csv").exists()
    assert (ingested / "datasets" / "nbh.csv").exists()
    assert (ingested / "datasets" / "removed_nbh.csv").exists()
    assert (ingested / "splits" / "sh_1_train.csv").exists()
    manifest = read_manifest(ingested)
    assert manifest["command"] == "ingest"
    assert "datasets/sh_1.csv" in manifest["artifacts"]
    assert verify_manifest(ingested) == []


def test_ingest_split_files_equal_writing_each_half(ingested, tmp_path):
    """The split files, cut from the dataset's rendered lines, are the bytes
    of writing each half of split_train_validation on its own."""
    stems = [p.stem for p in (ingested / "datasets").glob("*.csv")
             if not p.stem.startswith("removed_")]
    assert sorted(stems) == ["nbh", "sh_1", "sh_2", "sh_3"]
    for stem in stems:
        halves = split_train_validation(read_dataset_csv(ingested / "datasets" / f"{stem}.csv"), 13)
        for half, part in zip(halves, ("train", "valid")):
            write_dataset_csv(half, tmp_path / f"{stem}_{part}.csv")
            assert (tmp_path / f"{stem}_{part}.csv").read_bytes() == \
                (ingested / "splits" / f"{stem}_{part}.csv").read_bytes()


def test_ingest_meter_filter(raw_file, tmp_path):
    out = tmp_path / "single"
    assert main(["ingest", str(raw_file), "--out", str(out), "--meter", "2"]) == 0
    datasets = {p.name for p in (out / "datasets").glob("sh_*.csv")}
    assert datasets == {"sh_2.csv"}


def test_ingest_unknown_meter_is_user_error(raw_file, tmp_path):
    assert main(["ingest", str(raw_file), "--out", str(tmp_path / "x"), "--meter", "999"]) == 2


def test_ingest_missing_file_is_user_error(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "out")]) == 2


def test_ingest_three_weeks_with_split_fails(tmp_path):
    raw = tmp_path / "short.txt"
    raw.write_text("\n".join(synth_raw_lines(SynthProfile(), 1, 3, seed=1)) + "\n")
    assert main(["ingest", str(raw), "--out", str(tmp_path / "out"), "--split"]) == 2
    assert main(["ingest", str(raw), "--out", str(tmp_path / "out2")]) == 0  # fine without


def test_ingest_bad_lines_threshold(tmp_path):
    raw = tmp_path / "bad.txt"
    good = list(synth_raw_lines(SynthProfile(), 1, 4, seed=2))
    raw.write_text("\n".join(good[:100] + ["garbage line here"] * 5 + good[100:]) + "\n")
    assert main(["ingest", str(raw), "--out", str(tmp_path / "a"), "--max-bad-lines", "0"]) == 2
    assert main(["ingest", str(raw), "--out", str(tmp_path / "b"), "--max-bad-lines", "10"]) == 0


def test_ingest_accepts_gzip(raw_file, tmp_path):
    gz = tmp_path / "readings.txt.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(raw_file.read_text())
    assert main(["ingest", str(gz), "--out", str(tmp_path / "out")]) == 0


def test_train_writes_models_and_report(trained):
    assert (trained / "models" / "sh_1.amim").exists()
    assert (trained / "models" / "nbh.amim").exists()
    report = (trained / "training_report.csv").read_text().splitlines()
    assert report[0] == "meter_id,kind,mae,rmse,train_seconds,model_bytes,leaves,depth"
    assert len(report) == 1 + 3 + 1  # three meters plus the neighborhood model


def test_train_missing_splits_is_user_error(tmp_path):
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m")]) == 2


def test_attack_then_detect(ingested, trained, tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert main(["attack", "--data", str(ingested), "--out", str(corpus_dir),
                 "--attack", "t3", "--seed", "13"]) == 0
    corpus = corpus_dir / "corpus_sh.csv"
    assert corpus.exists()

    alerts_dir = tmp_path / "alerts"
    assert main(["detect", "--models", str(trained / "models"), "--corpus", str(corpus),
                 "--level", "sh", "--out", str(alerts_dir)]) == 0
    lines = (alerts_dir / "alerts.jsonl").read_text().splitlines()
    assert lines, "t3 attacks must raise alerts"
    event = json.loads(lines[0])
    assert event["kind"] == "sh_anomaly" and "timestamp" in event

    # routed rows persisted in the dataset schema plus a label column
    suspects = (alerts_dir / "suspects.csv").read_text().splitlines()
    assert suspects[0].endswith(",label")
    assert len(suspects) > 1 and suspects[1].endswith(",suspect")
    assert (alerts_dir / "benign.csv").exists()


def _records(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("level", ["sh", "nbh"])
def test_detect_routes_each_corpus_row_once(ingested, trained, tmp_path, level):
    corpus_dir = tmp_path / "corpus"
    assert main(["attack", "--data", str(ingested), "--out", str(corpus_dir),
                 "--seed", "13"]) == 0
    corpus = corpus_dir / f"corpus_{level}.csv"
    out = tmp_path / "alerts"
    assert main(["detect", "--models", str(trained / "models"), "--corpus", str(corpus),
                 "--level", level, "--out", str(out)]) == 0
    alerts = [json.loads(line) for line in (out / "alerts.jsonl").read_text().splitlines()]
    suspects, benign = _records(out / "suspects.csv"), _records(out / "benign.csv")
    # one suspect row per alert, at the alert's (date, interval) and in its order
    assert alerts
    assert [(r["date"], int(r["hour_or_slot"])) for r in suspects] == \
        [(a["timestamp"][:10], a["interval"]) for a in alerts]
    # ... and from the alert's home (none at the neighborhood level)
    assert [r["meter_id"] for r in suspects] == \
        ["" if a["meter_id"] is None else str(a["meter_id"]) for a in alerts]
    # suspects and benign rows together are exactly the replayed corpus rows
    assert collections.Counter((r["date"], r["hour_or_slot"], r["consumption_kwh"])
                               for r in suspects + benign) == \
        collections.Counter((r["date"], r["interval"], r["attacked_kwh"])
                            for r in _records(corpus))


@pytest.fixture(scope="module")
def corpora(ingested, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpora")
    assert main(["attack", "--data", str(ingested), "--out", str(out), "--seed", "13"]) == 0
    return out


@pytest.mark.parametrize("stream, named", [
    (["--corpus", "corpus_sh.csv", "--level", "nbh"],
     "corpus_sh.csv at line 2 does not fit --level nbh"),
    (["--corpus", "corpus_nbh.csv", "--level", "sh"],
     "corpus_nbh.csv at line 2 does not fit --level sh"),
    (["--corpus", "corpus_sh.csv", "--dataset", "corpus_sh.csv"], "one of --corpus or --dataset"),
], ids=["nbh_on_sh_corpus", "sh_on_nbh_corpus", "corpus_and_dataset"])
def test_detect_refuses_mismatched_stream(corpora, trained, tmp_path, capsys, stream, named):
    args = [str(corpora / a) if a.endswith(".csv") else a for a in stream]
    capsys.readouterr()
    assert main(["detect", "--models", str(trained / "models"), *args,
                 "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flags, key", [
    (["--nbr-incr", "4"], "nbr_incr"),
    (["--nbr-incr", "-1"], "nbr_incr"),
    (["--n-window", "0"], "n_window"),
    (["--counter-mode", "lifetime", "--nbr-incr", "-1"], "nbr_incr"),
])
def test_detect_rejects_counter_flags_that_never_alert(corpora, trained, tmp_path, capsys,
                                                       flags, key):
    out = tmp_path / "o"
    assert main(["detect", "--models", str(trained / "models"),
                 "--corpus", str(corpora / "corpus_sh.csv"), "--out", str(out), *flags]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, key", [
    (["--min-instances", "0"], "min_instances"),
    (["--prune-fraction", "1.5"], "prune_fraction"),
    (["--prune-fraction", "0"], "prune_fraction"),
])
def test_train_rejects_bad_tree_flags(ingested, tmp_path, capsys, flags, key):
    out = tmp_path / "m"
    assert main(["train", "--data", str(ingested), "--out", str(out), *flags]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    detect = parser.parse_args(["detect", "--models", "m", "--out", "o"])
    assert (detect.nbr_incr, detect.n_window) == (DEFAULT_NBR_INCR, DEFAULT_N_WINDOW)
    train = parser.parse_args(["train", "--data", "d", "--out", "o"])
    assert (train.min_instances, train.prune_fraction) == \
        (TreeParams().min_instances, TreeParams().prune_fraction)


def test_cli_chain_reproduces_simulate(corpora, trained, tmp_path):
    """ingest -> train -> attack -> detect gives simulate's corpora and its
    home and neighborhood alerts."""
    detected = collections.Counter()
    for level in ("sh", "nbh"):
        out = tmp_path / f"detect_{level}"
        assert main(["detect", "--models", str(trained / "models"), "--level", level,
                     "--corpus", str(corpora / f"corpus_{level}.csv"), "--out", str(out)]) == 0
        detected.update((out / "alerts.jsonl").read_text().splitlines())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"nb_sh": 3, "weeks": 8, "seed": 13}))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(run),
                 "--benchmark-meters", "0"]) == 0
    for name in ("corpus_sh.csv", "corpus_nbh.csv"):
        assert (corpora / name).read_bytes() == (run / name).read_bytes()
    simulated = collections.Counter(
        line for line in (run / "alerts.jsonl").read_text().splitlines()
        if json.loads(line)["kind"] in ("sh_anomaly", "nacr"))
    assert detected and detected == simulated


def test_simulate_from_the_raw_file_equals_the_synthetic_run(tmp_path):
    """A raw_path config over the synthesized raw lines gives the synthetic
    run's artifacts byte for byte: the synthetic ingest skips only text."""
    raw = tmp_path / "raw.txt"
    raw.write_text("".join(f"{line}\n" for line in synth_raw_lines(SynthProfile(), 3, 6, 5)))
    runs = {}
    for name, extra in (("synthetic", {}), ("raw", {"raw_path": str(raw)})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"nb_sh": 3, "weeks": 6, "seed": 5, **extra}))
        runs[name] = tmp_path / name
        assert main(["simulate", "--config", str(config), "--out", str(runs[name]),
                     "--benchmark-meters", "0"]) == 0
    names = sorted(p.name for p in runs["synthetic"].iterdir()
                   if p.name == "report.json" or p.suffix in (".csv", ".jsonl"))
    assert {"report.json", "alerts.jsonl", "corpus_sh.csv", "corpus_nbh.csv"} <= set(names)
    alerts = (runs["raw"] / "alerts.jsonl").read_text().splitlines()
    assert {"sh_anomaly", "nacr"} <= {json.loads(line)["kind"] for line in alerts}
    for name in names:
        if name != "training_report.csv":   # train_seconds differ
            assert (runs["raw"] / name).read_bytes() == (runs["synthetic"] / name).read_bytes(), name


def test_detect_manifest_records_replayed_level(ingested, trained, tmp_path):
    out = tmp_path / "o"
    assert main(["detect", "--models", str(trained / "models"),
                 "--dataset", str(ingested / "datasets" / "nbh.csv"), "--out", str(out)]) == 0
    assert read_manifest(out)["config"]["level"] == "nbh"


@pytest.mark.parametrize("level, loads", [("sh", 3), ("nbh", 1)])
def test_detect_loads_each_model_once(corpora, trained, tmp_path, monkeypatch, level, loads):
    loaded = []
    real = cli.deserialize
    monkeypatch.setattr(cli, "deserialize", lambda data: loaded.append(data) or real(data))
    assert main(["detect", "--models", str(trained / "models"), "--level", level,
                 "--corpus", str(corpora / f"corpus_{level}.csv"),
                 "--out", str(tmp_path / "o")]) == 0
    assert len(loaded) == loads


def test_train_dump_text(ingested, tmp_path):
    out = tmp_path / "texty"
    assert main(["train", "--data", str(ingested), "--out", str(out),
                 "--level", "nbh", "--dump-text", "--seed", "13"]) == 0
    text = (out / "models" / "nbh.txt").read_text()
    assert text.startswith("rep_tree")


def test_detect_benign_stream_with_perfect_model(tmp_path):
    # constant consumption: the trained model predicts it exactly, pe = 0,
    # and the strict threshold yields zero alerts
    raw = tmp_path / "flat.txt"
    lines = []
    for day in range(5, 5 + 28):
        for slot in range(1, 49):
            lines.append(f"77 {day * 100 + slot:05d} 0.250000")
    raw.write_text("\n".join(lines) + "\n")
    ingest_dir = tmp_path / "ingest"
    assert main(["ingest", str(raw), "--out", str(ingest_dir), "--split", "--seed", "1"]) == 0
    model_dir = tmp_path / "models"
    assert main(["train", "--data", str(ingest_dir), "--out", str(model_dir),
                 "--seed", "1"]) == 0
    alerts_dir = tmp_path / "alerts"
    assert main(["detect", "--models", str(model_dir / "models"),
                 "--dataset", str(ingest_dir / "datasets" / "sh_77.csv"),
                 "--out", str(alerts_dir)]) == 0
    assert (alerts_dir / "alerts.jsonl").read_text() == ""


def test_detect_needs_a_stream(tmp_path):
    assert main(["detect", "--models", str(tmp_path), "--out", str(tmp_path / "o")]) == 2


def test_detect_missing_model_is_user_error(ingested, tmp_path):
    assert main(["detect", "--models", str(tmp_path / "nothing"),
                 "--dataset", str(ingested / "datasets" / "sh_1.csv"),
                 "--out", str(tmp_path / "o")]) == 2


def test_detect_repeated_corpus_row_is_user_error(ingested, trained, tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert main(["attack", "--data", str(ingested), "--out", str(corpus_dir),
                 "--attack", "t3", "--seed", "13"]) == 0
    lines = (corpus_dir / "corpus_sh.csv").read_text().splitlines()
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("\n".join(lines[:3] + lines[2:]) + "\n")
    capsys.readouterr()
    assert main(["detect", "--models", str(trained / "models"), "--corpus", str(repeated),
                 "--level", "sh", "--out", str(tmp_path / "o")]) == 2
    assert str(repeated) in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--corpus", "--dataset"])
def test_detect_missing_columns_is_user_error(trained, tmp_path, capsys, flag):
    stream = tmp_path / "columns.csv"
    stream.write_text("meter_id,date\n1,2009-01-05\n")
    assert main(["detect", "--models", str(trained / "models"), flag, str(stream),
                 "--out", str(tmp_path / "o")]) == 2
    assert str(stream) in capsys.readouterr().err


SHORT_ROW = {
    "--corpus": "meter_id,date,interval,base_kwh,attacked_kwh,label,attack_type,seed\n"
                "1,2009-01-05,3\n",
    "--dataset": "level,meter_id,date,interval,hour_or_slot,day_period,day_type,month,season,"
                 "consumption_kwh\nSH,1,2009-01-05,hour,3\n",
}


@pytest.mark.parametrize("flag", sorted(SHORT_ROW))
def test_detect_short_row_is_user_error(trained, tmp_path, capsys, flag):
    stream = tmp_path / "short.csv"
    stream.write_text(SHORT_ROW[flag])
    assert main(["detect", "--models", str(trained / "models"), flag, str(stream),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{stream} at line 2" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [("season", "summer"), ("day_period", "day"),
                                           ("month", "7"), ("hour_or_slot", "25")])
def test_train_refuses_edited_derived_column(ingested, tmp_path, capsys, column, value):
    """The dataset columns derive day period, day type, month and season from
    the date and interval, so a split CSV that disagrees is a user error."""
    data = tmp_path / "data"
    shutil.copytree(ingested / "splits", data / "splits")
    path = data / "splits" / "sh_2_valid.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    assert row[header.index("date")].startswith("2009-0")   # a January..March date
    assert row[header.index(column)] != value
    row[header.index(column)] = value
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o"), "--seed", "13"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 6" in err and column.split("_or_")[0] in err


def _set_field(path: Path, line_no: int, column: str, value: str) -> None:
    """Overwrite one field of a CSV file, at its 1-based line number."""
    lines = path.read_text().splitlines()
    row = lines[line_no - 1].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[line_no - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kwh", ["nan", "inf", "-1"])
def test_train_refuses_non_finite_or_negative_kwh(ingested, tmp_path, capsys, kwh):
    data = tmp_path / "data"
    shutil.copytree(ingested / "splits", data / "splits")
    path = data / "splits" / "sh_1_train.csv"
    _set_field(path, 6, "consumption_kwh", kwh)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o"), "--seed", "13"]) == 2
    err = capsys.readouterr().err
    assert f"{path} at line 6" in err and "consumption" in err


@pytest.mark.parametrize("kwh", ["nan", "inf", "-1"])
def test_detect_refuses_non_finite_or_negative_corpus_kwh(corpora, trained, tmp_path, capsys,
                                                          kwh):
    corpus = tmp_path / "corpus_sh.csv"
    shutil.copy(corpora / "corpus_sh.csv", corpus)
    _set_field(corpus, 6, "attacked_kwh", kwh)
    capsys.readouterr()
    assert main(["detect", "--models", str(trained / "models"), "--corpus", str(corpus),
                 "--level", "sh", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{corpus} at line 6" in err and "attacked_kwh" in err


def test_simulate_deterministic_and_report(tmp_path):
    cfg = {"nb_sh": 3, "weeks": 4, "seed": 5, "jobs": 1}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg))

    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    for out in (out_a, out_b):
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--benchmark-meters", "1"]) == 0

    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "alerts.jsonl").read_bytes() == (out_b / "alerts.jsonl").read_bytes()
    assert (out_a / "corpus_sh.csv").read_bytes() == (out_b / "corpus_sh.csv").read_bytes()
    assert (out_a / "detection_summary.csv").read_bytes() == \
        (out_b / "detection_summary.csv").read_bytes()

    assert main(["report", "--run", str(out_a)]) == 0
    assert (out_a / "model_benchmark_summary.csv").exists()
    summary = (out_a / "detection_summary.csv").read_text().splitlines()
    assert summary[0].startswith("level,attack_type,rmse,rmse_a")
    roc_files = list(out_a.glob("roc_*.csv"))
    assert roc_files


def test_simulate_env_seed_overrides_flag(tmp_path, monkeypatch):
    cfg = {"nb_sh": 2, "weeks": 4, "seed": 5, "jobs": 1, "mix": {"t3": 1.0}}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("GRIDWATCH_SEED", "99")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--seed", "42", "--benchmark-meters", "0"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 99


def test_simulate_bad_config_is_user_error(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"nb_sh": 2, "weeks": 4, "typo_key": 1}))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("extra, key", [
    ({"mix": {"t9": 1.0}}, "t9"),
    ({"mix": {"t1": 1.7}}, "t1"),
    ({"mix": {"t1": -0.5}}, "t1"),
    ({"jobs": 0}, "jobs"),
    ({"include_day_period": True}, "include_day_period"),
    ({"counter_mode": "bogus"}, "counter_mode"),
    ({"factors": {"t1": [3, 1]}}, "factors"),
    ({"factors": {"t9": [1, 2]}}, "factors"),
    ({"peak_windows": [[25, 30]]}, "peak_windows"),
    ({"seed": -1}, "seed"),
    ({"min_instances": 0}, "min_instances"),
    ({"prune_fraction": 1.5}, "prune_fraction"),
    ({"n_window": 0}, "n_window"),
    ({"nbr_incr": 4}, "nbr_incr"),
    ({"nbr_incr": -1}, "nbr_incr"),
    ({"weeks": 143}, "weeks"),
])
def test_simulate_rejects_config_naming_key(tmp_path, capsys, extra, key):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"nb_sh": 2, "weeks": 4, **extra}))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(config_path) in err and key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, message", [
    ({"factors": {"t1": [3]}}, "factors of t1 [3]: expected [low, high]"),
    ({"factors": {"t1": 3}}, "factors of t1 3: expected [low, high]"),
    ({"peak_windows": [[7]]}, "peak_windows entry [7]: expected [start, end]"),
    ({"peak_windows": 7}, "peak_windows 7: expected a list of [start, end]"),
    ({"factors": [3, 1]}, "factors [3, 1]: expected {type: [low, high]}"),
])
def test_simulate_rejects_entry_of_wrong_shape(tmp_path, capsys, extra, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"nb_sh": 2, "weeks": 4, **extra}))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "ingest"])
def test_seed_flag_below_zero_is_user_error(raw_file, tmp_path, capsys, command):
    inputs = [str(raw_file), "--split"] if command == "ingest" else []
    assert main([command, *inputs, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_jobs_flag_below_one_is_user_error(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"nb_sh": 2, "weeks": 4}))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                 "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_benchmark_model_tree_rows_are_the_trained_models(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"nb_sh": 3, "weeks": 4, "seed": 5, "mix": {"t3": 1.0}}))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(run),
                 "--benchmark-meters", "2"]) == 0
    with open(run / "model_benchmark.csv", newline="") as fh:
        bench = list(csv.DictReader(fh))
    with open(run / "training_report.csv", newline="") as fh:
        trained = {r.pop("meter_id"): r for r in csv.DictReader(fh)}
    assert {r.pop("kind") for r in trained.values()} == {"model_tree", "rep_tree"}
    assert [(r["dataset"], r["algorithm"]) for r in bench] == [
        ("1", "rep_tree"), ("1", "model_tree"), ("2", "rep_tree"), ("2", "model_tree")]
    for row in bench:
        meter = row.pop("dataset")
        if row.pop("algorithm") == "model_tree":
            assert row == trained[meter]
    assert "benchmark" in read_manifest(run)["stage_seconds"]


def test_simulate_manifest_times_the_write_phase(small_run):
    stages = read_manifest(small_run)["stage_seconds"]
    assert set(stages) == {"ingest", "build", "clean", "split", "train", "attack", "predict",
                           "detect", "score", "benchmark", "write"}
    assert stages["write"] >= 0.0


def test_report_missing_run_is_user_error(tmp_path):
    assert main(["report", "--run", str(tmp_path)]) == 2


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_run")
    config_path = root / "cfg.json"
    config_path.write_text(json.dumps({"nb_sh": 2, "weeks": 4, "seed": 5,
                                       "mix": {"t1": 1.0, "t3": 1.0}}))
    assert main(["simulate", "--config", str(config_path), "--out", str(root / "run"),
                 "--benchmark-meters", "0"]) == 0
    return root / "run"


def _damage_report(run: Path) -> None:
    (run / "report.json").write_bytes((run / "report.json").read_bytes() + b" ")


def _drop_manifest(run: Path) -> None:
    (run / "manifest.json").unlink()


@pytest.mark.parametrize("damage, named", [(_damage_report, "report.json"),
                                           (_drop_manifest, "manifest.json")],
                         ids=["tampered_report", "missing_manifest"])
def test_report_refuses_unverified_run(small_run, tmp_path, capsys, damage, named):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    damage(run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and captured.out == ""
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before  # nothing written


def test_report_twice_passes_verification(small_run, tmp_path):
    """``report`` rewrites detection_summary.csv from report.json, whose keys
    are sorted; the rows keep the order simulate wrote, so the run still
    matches its manifest and a second report passes."""
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    summary = (run / "detection_summary.csv").read_bytes()
    assert [line.split(b",")[1] for line in summary.splitlines()[1:4]] == [b"t1", b"t3", b"all"]
    for _ in range(2):
        assert main(["report", "--run", str(run)]) == 0
        assert (run / "detection_summary.csv").read_bytes() == summary


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_json_outputs_refuse_non_finite_numbers(tmp_path, bad):
    # report.json and manifest.json go through write_json, alerts.jsonl through
    # _write_alerts; none may emit the invalid-JSON tokens NaN/Infinity
    with pytest.raises(ValueError):
        write_json(tmp_path / "report.json", {"levels": {"SH": {"tpr": bad}}})
    assert not (tmp_path / "report.json").exists()
    with pytest.raises(ValueError):
        write_manifest(tmp_path / "run", "simulate", {"factor": bad}, 7, [])
    assert not (tmp_path / "run" / "manifest.json").exists()
    good = AlertEvent("nacr", None, dt.date(2009, 1, 5), 3, "slot", 1.5, 0.5, 0.1)
    for field in ("observed", "predicted", "threshold"):
        event = dataclasses.replace(good, date=dt.date(2009, 1, 6), **{field: bad})
        with pytest.raises(ValueError):
            _write_alerts(tmp_path / "alerts.jsonl", [("none", good), ("t1", event)])
        assert not (tmp_path / "alerts.jsonl").exists()


# ---------------------------------------------------------------------------
# run-directory writers against the csv.writer / json.dumps references they replace

EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
               0.1, 1e-05, 1e16, 123456789.125]


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(0, 40),
                         elements=st.one_of(st.sampled_from(EDGE_FLOATS),
                                            st.floats(allow_subnormal=True))),
       start=st.integers(0, 3), step=st.integers(1, 3))
@example(values=np.array([0.0, -0.0, 0.0]), start=0, step=1)
@example(values=np.array([-0.0, 0.0]), start=0, step=1)
def test_float_texts_equals_repr(values, start, step):
    view = values[start::step]
    assert float_texts(view) == [repr(x) for x in view.tolist()]


def _reference_roc_csv(fpr, tpr) -> bytes:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["fpr", "tpr"])
    for row in zip(map(repr, fpr.tolist()), map(repr, tpr.tolist())):
        writer.writerow(row)
    return fh.getvalue().encode()


@pytest.mark.parametrize("points", [1, 8191, 8192, 8193, 20000])
def test_roc_csv_equals_csv_writer_text(tmp_path, points):
    rng = np.random.default_rng(points)
    fpr = np.sort(np.round(rng.uniform(0.0, 1.0, points), 3))   # runs of repeated rates
    tpr = np.sort(rng.uniform(0.0, 1.0, points))
    tpr[:: 7] = rng.choice(EDGE_FLOATS, len(tpr[:: 7]))
    _write_roc(tmp_path / "roc.csv", fpr, tpr)
    assert (tmp_path / "roc.csv").read_bytes() == _reference_roc_csv(fpr, tpr)


def test_small_run_roc_csvs_equal_csv_writer_text(small_run):
    paths = sorted(small_run.glob("roc_*.csv"))
    assert len(paths) == 6      # SH and NBH; t1, t3 and all
    for path in paths:
        with open(path, newline="") as fh:
            points = list(csv.DictReader(fh))
        fpr = np.array([float(r["fpr"]) for r in points])
        tpr = np.array([float(r["tpr"]) for r in points])
        assert len(points) > 1
        assert path.read_bytes() == _reference_roc_csv(fpr, tpr)


def _reference_alert_line(attack_type, e) -> str:
    obj = {"kind": e.kind, "meter_id": e.meter_id, "timestamp": e.timestamp().isoformat(),
           "interval_kind": e.interval_kind, "interval": e.interval, "observed": e.observed,
           "predicted": e.predicted, "threshold": e.threshold, "attack_type": attack_type}
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


@st.composite
def _alerts(draw):
    kind = draw(st.sampled_from(["hour", "slot"]))
    value = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats().map(np.float64))
    return (draw(st.one_of(st.sampled_from(["none", "t1", "t2", "t3", "t4"]), st.text())),
            AlertEvent(draw(st.sampled_from(["sh_anomaly", "nacr", "attack_confirmed"])),
                       draw(st.one_of(st.none(), st.integers(0, 2**40))), draw(st.dates()),
                       draw(st.integers(1, 24 if kind == "hour" else 48)), kind,
                       draw(value), draw(value), draw(value)))


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(alerts=st.lists(_alerts(), max_size=6))
def test_alert_lines_equal_json_dumps(alerts):
    try:
        want = [_reference_alert_line(t, e) for t, e in alerts]
    except ValueError:          # a NaN or infinity: refused before any line is made
        with pytest.raises(ValueError):
            alert_lines(alerts)
        return
    assert list(alert_lines(alerts)) == want
