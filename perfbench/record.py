"""Record a baseline: repeated runs of every workload, summarised to one file.

    python3 perfbench/record.py --label 0

Runs ``run.py`` once for each of the seeds 1 to 10 on each workload of
``BENCHMARK.json`` in turn, then one traced run of that workload at seed 7. Writes ``perfbench/BENCH_<label>.json`` with
each end-to-end metric's values, median, quartiles and spread (the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) and the traced run's
per-layer metrics. A speed claim compares two such files made on one host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 7


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    out = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            details, result = run(name, seed, seconds, 0)
            out["host"] = details["host"]
            results.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={m['value']:.5g}{m['unit']}" for k, m in result["metrics"].items()),
                flush=True)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            end_to_end[metric["name"]] = {"unit": metric["unit"], **summarise(values)}
            print(f"{name} {metric['name']}: median {end_to_end[metric['name']]['median']:.5g} "
                  f"{metric['unit']}, spread {end_to_end[metric['name']]['spread']:.3f} "
                  f"(bound {metric['bound']})", flush=True)
        _, traced = run(name, TRACE_SEED, seconds, 1)
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer_seed": TRACE_SEED,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
