"""The three benchmark workloads: desk, fleet and stream.

Each workload is set up (possibly several times, to time set-up), then run
pass after pass. A pass is timed whole, or in the parts a workload times
itself; its outputs are checked outside the timed section. The program's public functions are always looked up on
their modules at call time, so a traced run sees every call.

- desk: ``gridwatch simulate`` on the desk scenario, in process. Every layer
  does real work; detect and score dominate.
- fleet: ``gridwatch ingest --split`` then ``gridwatch train`` on a raw file
  written during set-up. Ingest and training only, and the only workload
  that writes datasets as CSV and reads them back.
- stream: the online detector as a closed loop. One client plays the
  head-end and sends the next hour only after the previous hour's verdict.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gridwatch.attacks as attacks
import gridwatch.cli as cli
import gridwatch.detect as detect
import gridwatch.ingest as ingest
import gridwatch.manifest as manifest
import gridwatch.scenario as scenario
import gridwatch.synth as synth
import gridwatch.trees as trees

SIZES = {
    "full": {"desk": {"nb_sh": 50, "weeks": 16},
             "fleet": {"meters": 8, "weeks": 26},
             "stream": {"nb_sh": 50, "weeks": 16}},
    "tiny": {"desk": {"nb_sh": 4, "weeks": 8},
             "fleet": {"meters": 3, "weeks": 8},
             "stream": {"nb_sh": 4, "weeks": 8}},
}

# Acceptance criteria 04 and 05: per-type TPR floors and the FPR ceiling.
SH_TPR_FLOORS = {"t1": 0.85, "t2": 0.85, "t3": 0.95, "t4": 0.95}
NBH_TPR_FLOORS = {"t3": 0.95, "t4": 0.95}
FPR_CEILING = 0.20

ALERT_KINDS = ("sh_anomaly", "nacr", "attack_confirmed")
VARIANTS = ("none",) + attacks.ATTACK_TYPES


def _cli(argv) -> int:
    """Run one ``gridwatch`` command; its progress lines go to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main([str(a) for a in argv])


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Pass:
    """What one pass did: work items, timed parts, attempts and failures.

    ``parts`` maps each part the workload timed itself to its seconds and
    its per-operation latencies; a pass without parts is timed whole.
    """

    def __init__(self, readings=0, parts=None, attempted=1, failed=0, alerts=None):
        self.readings = readings
        self.parts = parts or {}
        self.attempted = attempted
        self.failed = failed
        self.alerts = alerts or dict.fromkeys(ALERT_KINDS, 0)


class Desk:
    """``gridwatch simulate`` on the desk scenario (default attack mix)."""

    def __init__(self, work: Path, seed: int, nb_sh: int, weeks: int):
        self.work = work
        self.config = {"nb_sh": nb_sh, "weeks": weeks, "seed": seed}
        self.config_path = work / "desk.json"
        self.src = Path(cli.__file__).resolve().parents[1]
        self.digest = None

    def setup(self) -> None:
        """Write the config and import the program in a fresh interpreter."""
        self.config_path.write_text(json.dumps(self.config))
        # no timeout: with one, Popen.wait polls in 50 ms steps and quantizes the time
        subprocess.run([sys.executable, "-c", "import gridwatch.cli"], check=True,
                       cwd=self.work, env=dict(os.environ, PYTHONPATH=str(self.src)))

    def run_pass(self, i: int):
        out = self.work / f"desk{i}"
        rc = _cli(["simulate", "--config", self.config_path, "--out", out])
        return out, rc

    def verify(self, i: int, ran) -> tuple[Pass, list[str]]:
        out, rc = ran
        problems = []
        report = {}
        if rc != 0:
            problems.append(f"simulate exited {rc}")
        else:
            problems += [f"manifest mismatch: {name}" for name in manifest.verify_manifest(out)]
            report_bytes = (out / "report.json").read_bytes()
            report = json.loads(report_bytes)
            problems += _rate_floor_problems(report)
            digest = hashlib.sha256(report_bytes).hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"report.json sha256 {digest} differs from first pass")
        shutil.rmtree(out, ignore_errors=True)
        alerts = dict.fromkeys(ALERT_KINDS, 0)
        alerts.update(report.get("alerts", {}))
        readings = report.get("parse", {}).get("readings", 0)
        return Pass(readings=readings, failed=int(bool(problems)), alerts=alerts), problems

    def finish(self) -> list[str]:
        return []

    def facts(self) -> dict:
        return {"report_sha256": self.digest}


def _rate_floor_problems(report: dict) -> list[str]:
    problems = []
    for level, floors in (("SH", SH_TPR_FLOORS), ("NBH", NBH_TPR_FLOORS)):
        pooled = report["levels"][level]["pooled"]
        for attack_type, floor in floors.items():
            entry = pooled[attack_type]
            if not (entry["tpr"] >= floor and entry["fpr"] <= FPR_CEILING):
                problems.append(f"{level}/{attack_type}: tpr {entry['tpr']} (>= {floor}), "
                                f"fpr {entry['fpr']} (<= {FPR_CEILING})")
    return problems


class Fleet:
    """``gridwatch ingest --split`` and ``gridwatch train`` on a raw file."""

    def __init__(self, work: Path, seed: int, meters: int, weeks: int):
        self.work = work
        self.seed = seed
        self.meters = meters
        self.weeks = weeks
        self.raw = work / "fleet_raw.txt"
        self.lines = 0
        self.digest = None

    def setup(self) -> None:
        """Write the synthetic raw file the CLI ingests."""
        lines = 0
        with open(self.raw, "w") as fh:
            for line in synth.synth_raw_lines(synth.SynthProfile(), self.meters,
                                              self.weeks, self.seed):
                fh.write(line + "\n")
                lines += 1
        self.lines = lines

    def run_pass(self, i: int):
        """Ingest, then train; each command is a timed part."""
        data = self.work / f"fleet{i}"
        parts = {}
        t0 = time.perf_counter()
        rc = _cli(["ingest", self.raw, "--out", data, "--split", "--seed", self.seed])
        parts["ingest"] = (time.perf_counter() - t0, [])
        if rc == 0:
            t0 = time.perf_counter()
            rc = _cli(["train", "--data", data, "--out", data / "run", "--seed", self.seed])
            parts["train"] = (time.perf_counter() - t0, [])
        return data, rc, parts

    def verify(self, i: int, ran) -> tuple[Pass, list[str]]:
        data, rc, parts = ran
        problems = []
        if rc != 0:
            problems.append(f"ingest/train exited {rc}")
        else:
            models_dir = data / "run" / "models"
            paths = sorted(models_dir.glob("*.amim"))
            expected = {f"sh_{m}.amim" for m in range(1, self.meters + 1)} | {"nbh.amim"}
            if {p.name for p in paths} != expected:
                problems.append(f"models {sorted(p.name for p in paths)}, "
                                f"expected one per meter plus nbh")
            for path in paths:
                rmse = trees.deserialize(path.read_bytes()).trained_rmse
                if not math.isfinite(rmse):
                    problems.append(f"{path.name}: trained_rmse {rmse}")
            digest = _sha256_files(paths)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"model digest {digest} differs from first pass")
        shutil.rmtree(data, ignore_errors=True)
        return Pass(readings=self.lines, parts=parts, failed=int(bool(problems))), problems

    def finish(self) -> list[str]:
        return []

    def facts(self) -> dict:
        return {"raw_lines": self.lines, "amim_sha256": self.digest}


class Stream:
    """The online detector replayed hour by hour over the validation weeks.

    Set-up trains the desk-size neighborhood's models, passes them through
    serialize/deserialize as ``gridwatch detect`` loads them, and builds the
    attack corpus. One tick is one wall-clock hour: both neighborhood slots,
    then every home's hour, then the decision maker for both slots. Hourly
    home alerts count for both half-hours. Every variant is replayed with
    fresh detector states, and each tick is a timed part.
    """

    def __init__(self, work: Path, seed: int, nb_sh: int, weeks: int):
        self.cfg = scenario.ScenarioConfig(nb_sh=nb_sh, weeks=weeks, seed=seed)
        self.counts = None

    def setup(self) -> None:
        cfg = self.cfg
        parsed = ingest.parse_raw(synth.synth_raw_lines(cfg.profile, cfg.nb_sh, cfg.weeks,
                                                        cfg.seed))
        per_meter = collections.defaultdict(list)
        for r in parsed.readings:
            per_meter[r.meter_id].append(r)
        params = cfg.tree_params()
        sh_valid, sh_models = {}, {}
        for m in sorted(per_meter):
            ds, _ = ingest.clean_dataset(ingest.build_sh_dataset(per_meter[m])[0])
            train, sh_valid[m] = ingest.split_train_validation(ds, cfg.seed)
            model = trees.train_model_tree(train, params, valid=sh_valid[m])
            sh_models[m] = trees.deserialize(trees.serialize(model))
        nbh, _ = ingest.clean_dataset(ingest.build_nbh_dataset(parsed.readings)[0])
        train, nbh_valid = ingest.split_train_validation(nbh, cfg.seed)
        model = trees.train_rep_tree(train, params, valid=nbh_valid)
        self.nbh_model = trees.deserialize(trees.serialize(model))
        self.sh_models = sh_models
        self.corpus = attacks.generate_corpus(sh_valid, nbh_valid, cfg.mix, cfg.seed,
                                              specs=cfg.attack_specs())
        self.ticks = _hourly_ticks(self.corpus)
        self.readings = sum(len(nbh) + len(sh) for ticks in self.ticks.values()
                            for _, _, nbh, sh in ticks)

    def run_pass(self, i: int) -> Pass:
        sh_step, nbh_step, fvec = detect.sh_step, detect.nbh_step, ingest.feature_vector
        clock = time.perf_counter
        parts = {}
        alerts = collections.Counter()
        attempted = failed = 0
        for attack_type in VARIANTS:
            sh_states = {m: detect.ShDetectorState(m, model, nbr_incr=self.cfg.nbr_incr,
                                                   n_window=self.cfg.n_window,
                                                   mode=self.cfg.counter_mode)
                         for m, model in self.sh_models.items()}
            nbh_state = detect.NbhDetectorState(self.nbh_model)
            maker = detect.DecisionMaker(self.cfg.nb_sh)
            for date, hour, nbh, sh in self.ticks[attack_type]:
                attempted += 1
                t0 = clock()
                try:
                    nacr = set()
                    for slot, kwh in nbh:
                        if nbh_step(nbh_state, fvec(date, slot, "slot", kwh)) is not None:
                            nacr.add(slot)
                    homes = 0
                    for meter, kwh in sh:
                        if sh_step(sh_states[meter], fvec(date, hour, "hour", kwh)) is not None:
                            homes += 1
                    confirmed = 0
                    for slot in (2 * hour - 1, 2 * hour):
                        if maker.tick(date, slot, slot in nacr, homes) is not None:
                            confirmed += 1
                except Exception as exc:  # a failed tick is counted, the replay goes on
                    print(f"stream tick {attack_type} {date} {hour}: {exc!r}", file=sys.stderr)
                    failed += 1
                    continue
                latency = clock() - t0
                parts[(attack_type, date, hour)] = (latency, [latency])
                alerts[(attack_type, "nacr")] += len(nacr)
                alerts[(attack_type, "sh_anomaly")] += homes
                alerts[(attack_type, "attack_confirmed")] += confirmed
        return Pass(self.readings, parts, attempted, failed, alerts)

    def verify(self, i: int, ran: Pass) -> tuple[Pass, list[str]]:
        counts = {key: n for key, n in ran.alerts.items() if n}
        ran.alerts = {kind: sum(n for (_, k), n in counts.items() if k == kind)
                      for kind in ALERT_KINDS}
        problems = [f"{ran.failed} tick(s) raised"] if ran.failed else []
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            problems.append("alert counts differ from the first pass")
        return ran, problems

    def finish(self) -> list[str]:
        """Replay each stream meter by meter; its alert counts must match."""
        reference = _replay_by_meter(self.corpus, self.sh_models, self.nbh_model, self.cfg)
        if self.counts != reference:
            return [f"tick replay alerts {sorted(self.counts.items())} != "
                    f"meter-by-meter replay {sorted(reference.items())}"]
        return []

    def facts(self) -> dict:
        return {"alerts": {f"{t}.{k}": n for (t, k), n in sorted((self.counts or {}).items())},
                "readings_per_pass": self.readings}


def _hourly_ticks(corpus) -> dict:
    """Per variant, the hours in time order with their readings.

    A tick is (date, hour, [(slot, kwh)] of the neighborhood, [(meter, kwh)]
    of the homes).
    """
    per_type: dict = {}
    for variant in corpus.variants:
        s = variant.labeled.base
        values = variant.labeled.attacked
        hours = per_type.setdefault(variant.attack_type, {})
        for i in range(len(s)):
            if variant.level == "NBH":
                hour = (s.intervals[i] + 1) // 2
                hours.setdefault((s.dates[i], hour), ([], []))[0].append(
                    (s.intervals[i], float(values[i])))
            else:
                hours.setdefault((s.dates[i], s.intervals[i]), ([], []))[1].append(
                    (s.meter_id, float(values[i])))
    return {t: [(date, hour, nbh, sh) for (date, hour), (nbh, sh) in sorted(hours.items())]
            for t, hours in per_type.items()}


def _replay_by_meter(corpus, sh_models, nbh_model, cfg) -> dict:
    """Reference replay: each series on its own, fusion by ``detect.decide``."""
    counts = collections.Counter()
    home_alerts = {t: collections.Counter() for t in VARIANTS}   # (date, hour) -> homes
    nacr = {t: set() for t in VARIANTS}                           # {(date, slot)}
    hours = {t: set() for t in VARIANTS}
    for variant in corpus.variants:
        s = variant.labeled.base
        t = variant.attack_type
        if variant.level == "SH":
            state = detect.ShDetectorState(s.meter_id, sh_models[s.meter_id],
                                           nbr_incr=cfg.nbr_incr, n_window=cfg.n_window,
                                           mode=cfg.counter_mode)
        else:
            state = detect.NbhDetectorState(nbh_model)
        for i in range(len(s)):
            fv = ingest.feature_vector(s.dates[i], s.intervals[i], s.kind,
                                       float(variant.labeled.attacked[i]))
            if variant.level == "SH":
                hours[t].add((s.dates[i], s.intervals[i]))
                if detect.sh_step(state, fv) is not None:
                    home_alerts[t][(s.dates[i], s.intervals[i])] += 1
                    counts[(t, "sh_anomaly")] += 1
            else:
                hours[t].add((s.dates[i], (s.intervals[i] + 1) // 2))
                if detect.nbh_step(state, fv) is not None:
                    nacr[t].add((s.dates[i], s.intervals[i]))
                    counts[(t, "nacr")] += 1
    for t in VARIANTS:
        for date, hour in hours[t]:
            for slot in (2 * hour - 1, 2 * hour):
                if detect.decide((date, slot) in nacr[t], home_alerts[t][(date, hour)],
                                 cfg.nb_sh):
                    counts[(t, "attack_confirmed")] += 1
    return {key: n for key, n in counts.items() if n}


WORKLOADS = {"desk": Desk, "fleet": Fleet, "stream": Stream}
