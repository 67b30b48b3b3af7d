"""Per-layer spans recorded from outside the program.

A traced run replaces each function in ``SPANS`` by a timing wrapper. The
wrapper is installed under every name that refers to the function in any
loaded ``gridwatch`` module, so ``scenario.predict``, ``detect.predict`` and
``trees.predict`` (the name ``evaluate`` calls) all report to one span. A
generator function is timed per ``next``, so the lazy synthesis generator
that ``parse_raw`` consumes is a child span of ``parse_raw`` rather than
part of its self time.

Self time is a span's duration minus the time covered by its child spans.
Helpers inside a layer are left unwrapped, so their time counts towards the
span that called them.
"""

from __future__ import annotations

import inspect
import sys
import time

# (module, attribute) of each span. "Class.method" names a method.
SPANS = [
    ("synth", "synth_readings"),
    ("synth", "synth_raw_lines"),
    ("ingest", "parse_raw"),
    ("ingest", "feature_vector"),
    ("ingest", "build_sh_dataset"),
    ("ingest", "build_nbh_dataset"),
    ("ingest", "clean_dataset"),
    ("ingest", "split_train_validation"),
    ("ingest", "write_dataset_csv"),
    ("ingest", "write_removed_csv"),
    ("ingest", "write_labeled_csv"),
    ("ingest", "read_dataset_csv"),
    ("trees", "train_model_tree"),
    ("trees", "train_rep_tree"),
    ("trees", "evaluate"),
    ("trees", "predict"),
    ("trees", "serialize"),
    ("trees", "deserialize"),
    ("attacks", "generate_corpus"),
    ("attacks", "corpus_csv_rows"),
    ("detect", "sh_step"),
    ("detect", "nbh_step"),
    ("detect", "DecisionMaker.tick"),
    ("metrics", "roc_curve"),
    ("scenario", "run_scenario"),
    ("scenario", "benchmark_models"),
    ("cli", "main"),
    ("manifest", "write_manifest"),
]

_END = object()


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0


class Tracer:
    """Installs the span wrappers and accumulates per-span statistics."""

    def __init__(self):
        self.stats = {f"{m}.{a}": Stat() for m, a in SPANS}
        self.predict_keys: set = set()
        self._models: dict = {}     # keeps each model alive so its id stays unique
        self._stack = [0.0]         # child time accumulated by each open span
        self._restore: list = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        observe = {"ingest.parse_raw": self._count_lines,
                   "trees.predict": self._predict_key}.get(name)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it, _END)
                    finally:
                        dt = clock() - t0
                        child = stack.pop()
                        stack[-1] += dt
                        stat.total_s += dt
                        stat.self_s += dt - child
                    if item is _END:
                        return
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
            if observe is not None:
                observe(stat, args, out)
            return out
        return traced

    @staticmethod
    def _count_lines(stat, args, out):
        stat.items += len(out.readings) + len(out.issues)

    def _predict_key(self, stat, args, out):
        model, fv = args
        self._models[id(model)] = model
        self.predict_keys.add((id(model), fv.interval, fv.day_period, fv.day_type,
                               fv.month, fv.season))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gridwatch" or n.startswith("gridwatch."))]
        for mod_name, attr in SPANS:
            name = f"{mod_name}.{attr}"
            owner = sys.modules[f"gridwatch.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, orig, wrapper)

    def _set(self, target, key, orig, wrapper) -> None:
        setattr(target, key, wrapper)
        self._restore.append((target, key, orig))

    def uninstall(self) -> None:
        while self._restore:
            target, key, orig = self._restore.pop()
            setattr(target, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- metrics ------------------------------------------------------------

    def _self(self, *names) -> float:
        return sum(self.stats[n].self_s for n in names)

    def layer_metrics(self) -> dict:
        """Per-layer figures, each as (value, unit)."""
        st = self.stats
        parse = st["ingest.parse_raw"]
        predict = st["trees.predict"]
        sh, nbh, tick = st["detect.sh_step"], st["detect.nbh_step"], st["detect.DecisionMaker.tick"]
        mt, rt = st["trees.train_model_tree"], st["trees.train_rep_tree"]
        fv = st["ingest.feature_vector"]
        return {
            "synth.self_s": (self._self("synth.synth_readings", "synth.synth_raw_lines"), "s"),
            "ingest.parse_raw.lines_per_s": (_ratio(parse.items, parse.self_s), "lines/s"),
            "ingest.parse_raw.self_s": (parse.self_s, "s"),
            "ingest.build.self_s": (self._self("ingest.build_sh_dataset",
                                               "ingest.build_nbh_dataset"), "s"),
            "ingest.clean.self_s": (self._self("ingest.clean_dataset"), "s"),
            "ingest.split.self_s": (self._self("ingest.split_train_validation"), "s"),
            "ingest.csv_write.self_s": (self._self("ingest.write_dataset_csv",
                                                   "ingest.write_removed_csv",
                                                   "ingest.write_labeled_csv"), "s"),
            "ingest.csv_read.self_s": (self._self("ingest.read_dataset_csv"), "s"),
            "ingest.feature_vector.calls": (fv.calls, "count"),
            "ingest.feature_vector.self_s": (fv.self_s, "s"),
            "trees.train_model_tree.calls": (mt.calls, "count"),
            "trees.train_model_tree.ms_per_model": (1e3 * _ratio(mt.total_s, mt.calls), "ms"),
            "trees.train_rep_tree.ms_per_model": (1e3 * _ratio(rt.total_s, rt.calls), "ms"),
            "trees.evaluate.self_s": (self._self("trees.evaluate"), "s"),
            "trees.predict.calls": (predict.calls, "count"),
            "trees.predict.us_per_call": (1e6 * _ratio(predict.self_s, predict.calls), "us"),
            "trees.predict.distinct_ratio": (_ratio(len(self.predict_keys), predict.calls),
                                             "ratio"),
            "trees.amim.self_s": (self._self("trees.serialize", "trees.deserialize"), "s"),
            "attacks.generate_corpus.self_s": (self._self("attacks.generate_corpus"), "s"),
            "attacks.corpus_csv_rows.self_s": (self._self("attacks.corpus_csv_rows"), "s"),
            "detect.sh_step.calls": (sh.calls, "count"),
            "detect.sh_step.us_per_call": (1e6 * _ratio(sh.self_s, sh.calls), "us"),
            "detect.nbh_step.calls": (nbh.calls, "count"),
            "detect.nbh_step.us_per_call": (1e6 * _ratio(nbh.self_s, nbh.calls), "us"),
            "detect.decision_tick.us_per_call": (1e6 * _ratio(tick.self_s, tick.calls), "us"),
            "metrics.roc_curve.self_s": (self._self("metrics.roc_curve"), "s"),
            "scenario.run_scenario.self_s": (self._self("scenario.run_scenario"), "s"),
            "scenario.benchmark_models.self_s": (self._self("scenario.benchmark_models"), "s"),
            "cli.self_s": (self._self("cli.main"), "s"),
            "manifest.write_manifest.self_s": (self._self("manifest.write_manifest"), "s"),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
