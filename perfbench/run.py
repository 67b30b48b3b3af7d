"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout and measured unchanged. With ``--trace 0`` the run sets the
workload up several times (``setup_s`` is the median), then runs timed
passes until the next one would pass ``--seconds``, and prints the
end-to-end metrics. A run makes at least two passes, so that outputs can be
compared across repetitions; a desk pass alone takes 11-18 s on a
2-vCPU Xeon VM.

The timings are those of a pass put together from the fastest run of each
of its parts: a stream pass has one part per tick (about 0.7 ms), a fleet
pass one per command (about 1 s), a desk pass is one part. A shared 2-vCPU
VM switches between its normal speed and about 1.7 times slower in
stretches of a tenth of a second to several minutes. Per 10 s, the median
of a fixed 0.1 s loop's time then spreads by 0.27 (IQR/median), its minimum
by 0.06; taking each part's fastest run keeps the shorter stretches out.
The tail needs the most runs of each part: over 4 stream passes the 99th
percentile of the fastest tick latencies varied between 0.79 and 1.47 ms,
over 14 passes between 0.76 and 0.81 ms.

With ``--trace 1`` it sets up once under the tracer, runs one untraced and
one traced pass, and prints the per-layer metrics and the tracing overhead.
Every pass's outputs are checked; the last stdout line is the result, the
line before it the host facts and per-run details (error rate, tick count,
pass times). Scratch files live under ``.perfbench_work/`` in the
checkout and are removed before exit.

BLAS is pinned to one thread so that a host with few cores measures the
program, not BLAS threads contending with it; the host line says so.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED_ENV = "GRIDWATCH_SEED"     # overrides --seed inside the program, so it must be unset
SETUP_REPEATS = {"desk": 5, "fleet": 5, "stream": 2}   # a stream set-up trains 51 models
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "fleet", "stream"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at smoke-test size")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(SEED_ENV) is not None:
        print(f"error: {SEED_ENV} is set; it would override --seed", file=sys.stderr)
        return 2
    if not (SRC / "gridwatch" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'gridwatch'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads  # after the BLAS pin: numpy reads it on import

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](
            work, args.seed, **workloads.SIZES[args.size][args.workload])
        if args.trace:
            details, result = _traced(wl)
        else:
            details, result = _measure(wl, args.workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    details.update({"workload": args.workload, "seed": args.seed, "size": args.size,
                    "trace": args.trace, "facts": wl.facts(), "host": host_facts()})
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _run_pass(wl, i, problems):
    ran, seconds = _timed(wl.run_pass, i)
    done, found = wl.verify(i, ran)
    for problem in found:
        print(f"check failed, pass {i}: {problem}", file=sys.stderr)
    problems += found
    return seconds, done


def _measure(wl, name: str, seconds: float):
    setups = [_timed(wl.setup)[1] for _ in range(SETUP_REPEATS[name])]
    setup_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    problems: list[str] = []
    passes = []
    while (len(passes) < MIN_PASSES
           or sum(t for t, _ in passes) + statistics.median(t for t, _ in passes) <= seconds):
        passes.append(_run_pass(wl, len(passes), problems))
    final = wl.finish()
    problems += final

    import numpy as np
    fastest = {}    # part -> (seconds, latencies) of its fastest run
    for t, p in passes:
        for part, (part_s, latencies) in (p.parts or {"pass": (t, [])}).items():
            if part not in fastest or part_s < fastest[part][0]:
                fastest[part] = (part_s, latencies)
    run_s = sum(part_s for part_s, _ in fastest.values())
    # a desk or fleet pass is a single operation, its own latency
    latencies = [x for _, lat in fastest.values() for x in lat] or [run_s]
    p50, p99 = np.percentile(latencies, [50, 99])
    attempted = sum(p.attempted for _, p in passes)
    failed = min(attempted, sum(p.failed for _, p in passes) + len(final))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss of children is the largest child's peak; it counts only if a
    # child of the passes outgrew set-up's own (desk's import-only interpreter,
    # which never runs beside the program)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children == setup_children:
        children = 0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": ((own + children) / 1024.0, "MB"),
        "readings_per_s": (passes[0][1].readings / run_s, "readings/s"),
        "tick_p50_ms": (1e3 * float(p50), "ms"),
        "tick_p99_ms": (1e3 * float(p99), "ms"),
    }
    details = {"passes": len(passes), "pass_s": [t for t, _ in passes], "setup_s": setups,
               "parts": len(fastest), "ticks": len(latencies),
               "error_rate": failed / attempted, "problems": problems[:20]}
    return details, _result(not problems, attempted, failed, metrics)


def _traced(wl):
    from tracer import Tracer
    tracer = Tracer()
    problems: list[str] = []
    with tracer:
        wl.setup()
    cpu0 = time.process_time()
    untraced_s, _ = _run_pass(wl, 0, problems)
    cpu_s = time.process_time() - cpu0
    with tracer:
        ran, traced_s = _timed(wl.run_pass, 1)
    done, found = wl.verify(1, ran)
    problems += found + wl.finish()

    metrics = tracer.layer_metrics()
    for kind, name in (("sh_anomaly", "sh_anomaly"), ("nacr", "nacr"),
                       ("attack_confirmed", "confirmed")):
        metrics[f"detect.alerts.{name}"] = (done.alerts[kind], "count")
    metrics["process.cpu_s"] = (cpu_s, "s")
    metrics["tracing_overhead_s"] = (traced_s - untraced_s, "s")
    attempted = 2 * done.attempted
    failed = min(attempted, len(problems))
    details = {"untraced_run_s": untraced_s, "traced_run_s": traced_s,
               "problems": problems[:20]}
    return details, _result(not problems, attempted, failed, metrics)


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def host_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(np),
        "blas_threads_pinned": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads(np):
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            return int(lib.scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


if __name__ == "__main__":
    sys.exit(main())
