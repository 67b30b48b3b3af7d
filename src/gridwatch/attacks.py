"""Overloading-attack generators producing labeled malicious series.

Four attack types manipulate a benign consumption series multiplicatively
(attacked = base * factor, factor = 1 off-attack, so benign intervals are
bit-identical to the base):

* t1  peak-forming: factor ~ U(0.8, 4) inside the configured peak windows
* t2  bill-reduction: a fresh window per day (start in [0, 23 - min_off],
      integer duration >= min_off hours) with factor ~ U(0.8, 4)
* t3  sharp increase: t1 windows with factor ~ U(4, 8)
* t4  load fluctuation: alternating intervals attacked with factor ~ U(2, 4)

All draws come from counter-style streams keyed by (seed, meter, day,
attack type), so corpora are reproducible and independent of generation
order, and factors never depend on the consumption values (scaling the
base scales the attacked series by exactly the same constant).

Labels mark where a factor was applied, never re-derived from values.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import logging
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation
from .ingest import Dataset, clock_hour

log = logging.getLogger(__name__)

ATTACK_TYPES = ("t1", "t2", "t3", "t4")
_TYPE_CODE = {name: i + 1 for i, name in enumerate(ATTACK_TYPES)}

DEFAULT_FACTORS = {
    "t1": (0.8, 4.0),
    "t2": (0.8, 4.0),
    "t3": (4.0, 8.0),
    "t4": (2.0, 4.0),
}
DEFAULT_PEAK_WINDOWS = ((7, 9), (19, 22))  # inclusive wall-clock hours
DEFAULT_MIN_OFF_TIME = 4


@dataclasses.dataclass(frozen=True)
class AttackSpec:
    attack_type: str
    factor_low: float
    factor_high: float
    peak_windows: tuple[tuple[int, int], ...] = DEFAULT_PEAK_WINDOWS
    min_off_time: int = DEFAULT_MIN_OFF_TIME
    period: int = 1  # t4 alternation period, in intervals
    seed: int = 0

    def __post_init__(self):
        if self.attack_type not in ATTACK_TYPES:
            raise ValueError(f"unknown attack type {self.attack_type!r}")
        if self.factor_low <= 0:
            raise ValueError("factor range lower bound must be > 0")
        if self.factor_high < self.factor_low:
            raise ValueError("factor range upper bound below lower bound")
        for start, end in self.peak_windows:
            if not (0 <= start <= end <= 23):
                raise ValueError(f"peak window ({start}, {end}) outside wall-clock hours")
        if not 1 <= self.min_off_time <= 23:
            raise ValueError("min_off_time must lie in [1, 23]")
        if self.period < 1:
            raise ValueError("period must be >= 1")


def default_spec(attack_type: str, seed: int = 0) -> AttackSpec:
    low, high = DEFAULT_FACTORS[attack_type]
    return AttackSpec(attack_type, low, high, seed=seed)


@dataclasses.dataclass
class Series:
    """A chronological consumption series at one monitoring level."""

    kind: str                       # "hour" | "slot"
    meter_id: int | None
    dates: tuple[dt.date, ...]
    intervals: tuple[int, ...]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.intervals)


@dataclasses.dataclass
class LabeledSeries:
    """An attacked copy of a base series with per-interval malice labels."""

    base: Series
    attacked: np.ndarray
    labels: np.ndarray              # bool, True = malicious
    spec: AttackSpec | None


def series_from_dataset(ds: Dataset) -> Series:
    """The dataset's rows in chronological order (``Dataset.chronological``)."""
    ds = ds.chronological()
    return Series(kind=ds.interval_kind, meter_id=ds.meter_id, dates=tuple(ds.dates()),
                  intervals=tuple(ds.interval.tolist()), values=ds.kwh)


def _check_chronological(series: Series) -> None:
    keys = list(zip(series.dates, series.intervals))
    if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
        raise ContractViolation("series is not strictly chronological")


def _day_rng(spec: AttackSpec, meter_id: int | None, date: dt.date) -> np.random.Generator:
    day_code = date.toordinal()
    seq = np.random.SeedSequence((spec.seed, meter_id or 0, day_code, _TYPE_CODE[spec.attack_type]))
    return np.random.default_rng(seq)


def _day_groups(series: Series) -> list[tuple[dt.date, np.ndarray]]:
    groups: list[tuple[dt.date, list[int]]] = []
    for i, date in enumerate(series.dates):
        if groups and groups[-1][0] == date:
            groups[-1][1].append(i)
        else:
            groups.append((date, [i]))
    return [(date, np.array(ix)) for date, ix in groups]


def _in_windows(ch: int, windows: Sequence[tuple[int, int]]) -> bool:
    return any(start <= ch <= end for start, end in windows)


def apply_attack(series: Series, spec: AttackSpec) -> LabeledSeries:
    """Apply one attack type; dispatches on ``spec.attack_type``."""
    if len(series) == 0:
        log.warning("apply_attack: empty series, nothing to do")
        return LabeledSeries(series, series.values.copy(), np.zeros(0, dtype=bool), spec)
    _check_chronological(series)
    attacked = series.values.copy()
    labels = np.zeros(len(series), dtype=bool)

    for date, ix in _day_groups(series):
        rng = _day_rng(spec, series.meter_id, date)
        if spec.attack_type in ("t1", "t3"):
            for i in ix:
                if _in_windows(clock_hour(series.intervals[i], series.kind), spec.peak_windows):
                    factor = rng.uniform(spec.factor_low, spec.factor_high)
                    attacked[i] = series.values[i] * factor
                    labels[i] = True
        elif spec.attack_type == "t2":
            start = int(rng.integers(0, 24 - spec.min_off_time))
            duration = int(rng.integers(spec.min_off_time, 24))
            end = min(start + duration, 23)
            for i in ix:
                if start <= clock_hour(series.intervals[i], series.kind) <= end:
                    factor = rng.uniform(spec.factor_low, spec.factor_high)
                    attacked[i] = series.values[i] * factor
                    labels[i] = True
        elif spec.attack_type == "t4":
            for k, i in enumerate(ix):
                if (k // spec.period) % 2 == 1:
                    factor = rng.uniform(spec.factor_low, spec.factor_high)
                    attacked[i] = series.values[i] * factor
                    labels[i] = True
    return LabeledSeries(series, attacked, labels, spec)


@dataclasses.dataclass
class CorpusVariant:
    """One replayable stream: a meter-day series, benign or attacked."""

    level: str                      # "SH" | "NBH"
    attack_type: str                # "none" | one of ATTACK_TYPES
    labeled: LabeledSeries


@dataclasses.dataclass
class Corpus:
    variants: list[CorpusVariant]
    seed: int


def select_attack_dates(dates: Sequence[dt.date], proportion: float, seed: int,
                        attack_type: str) -> set[dt.date]:
    """Seeded choice of which days receive a given attack type.

    Keyed only by (seed, attack type) so every meter and the neighborhood
    series attack the same days, which keeps decision fusion aligned.
    """
    distinct = sorted(set(dates))
    k = int(round(proportion * len(distinct)))
    if k <= 0:
        return set()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7E, _TYPE_CODE[attack_type])))
    chosen = rng.choice(len(distinct), size=min(k, len(distinct)), replace=False)
    return {distinct[i] for i in sorted(chosen)}


def _restrict_labels(labeled: LabeledSeries, keep_dates: set[dt.date]) -> LabeledSeries:
    """Blank the attack outside the selected dates (attacked = base there)."""
    attacked = labeled.attacked.copy()
    labels = labeled.labels.copy()
    for i, date in enumerate(labeled.base.dates):
        if date not in keep_dates:
            attacked[i] = labeled.base.values[i]
            labels[i] = False
    return LabeledSeries(labeled.base, attacked, labels, labeled.spec)


def generate_corpus(
    sh_datasets: dict[int, Dataset],
    nbh_dataset: Dataset | None,
    mix: dict[str, float],
    seed: int,
    specs: dict[str, AttackSpec] | None = None,
) -> Corpus:
    """Emit benign plus per-type attacked variants for SH and NBH series.

    ``mix`` maps attack type to the proportion of days attacked; the same
    multiplicative factors apply unchanged to neighborhood totals (being
    scale-free they adjust automatically to the neighborhood consumption
    scale). The corpus is a pure function of its inputs and ``seed``.
    """
    if not sh_datasets and nbh_dataset is None:
        raise ValueError("generate_corpus: no datasets given")
    specs = specs or {}
    variants: list[CorpusVariant] = []

    def emit(level: str, ds: Dataset) -> None:
        series = series_from_dataset(ds)
        benign = LabeledSeries(series, series.values.copy(),
                               np.zeros(len(series), dtype=bool), None)
        variants.append(CorpusVariant(level, "none", benign))
        for attack_type in ATTACK_TYPES:
            proportion = mix.get(attack_type, 0.0)
            if proportion <= 0:
                continue
            spec = specs.get(attack_type) or default_spec(attack_type, seed=seed)
            spec = dataclasses.replace(spec, seed=seed)
            labeled = apply_attack(series, spec)
            keep = select_attack_dates(series.dates, proportion, seed, attack_type)
            variants.append(CorpusVariant(level, attack_type, _restrict_labels(labeled, keep)))

    for meter_id in sorted(sh_datasets):
        if len(sh_datasets[meter_id]):
            emit("SH", sh_datasets[meter_id])
    if nbh_dataset is not None and len(nbh_dataset):
        emit("NBH", nbh_dataset)
    return Corpus(variants, seed)


def corpus_csv_rows(corpus: Corpus) -> Iterable[list]:
    """Rows for the corpus CSV: meter, date, interval, base, attacked, label."""
    yield ["meter_id", "date", "interval", "base_kwh", "attacked_kwh",
           "label", "attack_type", "seed"]
    for variant in corpus.variants:
        ls = variant.labeled
        s = ls.base
        for i in range(len(s)):
            yield [
                "" if s.meter_id is None else s.meter_id,
                s.dates[i].isoformat(),
                s.intervals[i],
                repr(float(s.values[i])),
                repr(float(ls.attacked[i])),
                "malicious" if ls.labels[i] else "benign",
                variant.attack_type,
                corpus.seed,
            ]

