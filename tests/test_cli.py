import collections
import csv
import datetime as dt
import gzip
import json
import shutil
from pathlib import Path

import pytest

from gridwatch import cli
from gridwatch.cli import _write_alerts, main
from gridwatch.detect import AlertEvent
from gridwatch.ingest import read_dataset_csv, split_train_validation, write_dataset_csv
from gridwatch.manifest import read_manifest, verify_manifest, write_json, write_manifest
from gridwatch.synth import SynthProfile, synth_raw_lines


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
])
def test_simulate_rejects_config_naming_key(tmp_path, capsys, extra, key):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"nb_sh": 2, "weeks": 4, **extra}))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(config_path) in err and key in err
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


def test_report_missing_run_is_user_error(tmp_path):
    assert main(["report", "--run", str(tmp_path)]) == 2


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_run")
    config_path = root / "cfg.json"
    config_path.write_text(json.dumps({"nb_sh": 2, "weeks": 4, "seed": 5, "mix": {"t3": 1.0}}))
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
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    assert main(["report", "--run", str(run)]) == 0
    assert main(["report", "--run", str(run)]) == 0


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
    event = AlertEvent("nacr", None, dt.date(2009, 1, 5), 3, "slot", bad, 0.5, 0.1)
    with pytest.raises(ValueError):
        _write_alerts(tmp_path / "alerts.jsonl", [("none", event)])
