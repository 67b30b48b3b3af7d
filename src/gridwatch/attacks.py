"""Overloading-attack generators producing labeled malicious series.

Four attack types manipulate a benign consumption series multiplicatively
(attacked = base * factor, factor = 1 off-attack, so benign intervals are
bit-identical to the base):

* t1  peak-forming: factor ~ U(0.8, 4) inside the configured peak windows
* t2  bill-reduction: a fresh window per day (start in [0, 23 - min_off],
      integer duration >= min_off hours) with factor ~ U(0.8, 4)
* t3  sharp increase: t1 windows with factor ~ U(4, 8)
* t4  load fluctuation: alternating intervals attacked with factor ~ U(2, 4),
      counted by position within the day

A ``Series`` is a read-only view over one chronological ``Dataset``, and an
attack works on its columns: clock hours come from the interval column,
the attacked rows are one boolean mask, and the only loop runs over days.
Each day draws from a counter-style stream keyed by (seed, meter, day,
attack type): t2 first draws its window, then the day's k attacked rows
draw k factors in row order. So corpora are reproducible and independent
of generation order, and factors never depend on the consumption values
(scaling the base scales the attacked series by exactly the same constant).

``generate_corpus`` chooses the attacked days once per attack type over
the union of its series' days, so every meter and the neighborhood attack
the same calendar days even when a series lacks some of them.

Labels mark where a factor was applied, never re-derived from values.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import functools
import logging
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractViolation
from .ingest import EPOCH, Dataset, dates_of, day_code_of, interval_codes, iso_dates

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
        factors = f"factors of {self.attack_type} ({self.factor_low}, {self.factor_high})"
        if self.factor_low <= 0:
            raise ValueError(f"{factors}: lower bound must be > 0")
        if self.factor_high < self.factor_low:
            raise ValueError(f"{factors}: upper bound below lower bound")
        for start, end in self.peak_windows:
            if not (0 <= start <= end <= 23):
                raise ValueError(f"peak_windows entry ({start}, {end}) outside wall-clock "
                                 f"hours 0..23")
        if not 1 <= self.min_off_time <= 23:
            raise ValueError(f"min_off_time must lie in [1, 23], not {self.min_off_time!r}")
        if self.period < 1:
            raise ValueError(f"t4 period must be >= 1, not {self.period!r}")


def default_spec(attack_type: str, seed: int = 0) -> AttackSpec:
    low, high = DEFAULT_FACTORS[attack_type]
    return AttackSpec(attack_type, low, high, seed=seed)


@dataclasses.dataclass(frozen=True, eq=False)
class Series:
    """A read-only view over one chronological dataset at one monitoring level.

    ``dates`` and ``intervals`` are per-row lists of ``dt.date`` and ``int``
    for per-observation callers, built once on first read.
    """

    data: Dataset

    @property
    def kind(self) -> str:              # "hour" | "slot"
        return self.data.interval_kind

    @property
    def meter_id(self) -> int | None:
        return self.data.meter_id

    @property
    def values(self) -> np.ndarray:
        return self.data.kwh

    @functools.cached_property
    def dates(self) -> list[dt.date]:
        return self.data.dates()

    @functools.cached_property
    def intervals(self) -> list[int]:
        return self.data.interval.tolist()

    def __len__(self) -> int:
        return len(self.data)


@dataclasses.dataclass
class LabeledSeries:
    """An attacked copy of a base series with per-interval malice labels."""

    base: Series
    attacked: np.ndarray
    labels: np.ndarray              # bool, True = malicious


def series_from_dataset(ds: Dataset) -> Series:
    """The dataset's rows in chronological order (``Dataset.chronological``)."""
    return Series(ds.chronological())


def _day_rng(spec: AttackSpec, meter_id: int | None, day: int) -> np.random.Generator:
    ordinal = EPOCH.toordinal() - 1 + day     # date_of(day).toordinal()
    seq = np.random.SeedSequence((spec.seed, meter_id or 0, ordinal, _TYPE_CODE[spec.attack_type]))
    return np.random.default_rng(seq)


def apply_attack(series: Series, spec: AttackSpec) -> LabeledSeries:
    """Apply one attack type; dispatches on ``spec.attack_type``."""
    ds = series.data
    if len(ds) == 0:
        log.warning("apply_attack: empty series, nothing to do")
        return LabeledSeries(series, ds.kwh.copy(), np.zeros(0, dtype=bool))
    step_day, step_interval = np.diff(ds.day), np.diff(ds.interval)
    if not ((step_day > 0) | ((step_day == 0) & (step_interval > 0))).all():
        raise ContractViolation("series is not strictly chronological")
    hour = interval_codes(ds.interval, series.kind)[:, 0]
    starts = np.flatnonzero(np.diff(ds.day, prepend=ds.day[0] - 1))
    ends = np.append(starts[1:], len(ds))

    if spec.attack_type == "t4":
        position = np.arange(len(ds)) - np.repeat(starts, ends - starts)   # within the day
        labels = (position // spec.period) % 2 == 1
    else:   # t1/t3 peak windows; t2 overwrites each day with its drawn window
        labels = np.zeros(len(ds), dtype=bool)
        for start, end in spec.peak_windows:
            labels |= (start <= hour) & (hour <= end)

    factors = []
    for day, lo, hi in zip(ds.day[starts].tolist(), starts.tolist(), ends.tolist()):
        rng = _day_rng(spec, series.meter_id, day)
        if spec.attack_type == "t2":
            start = int(rng.integers(0, 24 - spec.min_off_time))
            end = min(start + int(rng.integers(spec.min_off_time, 24)), 23)
            labels[lo:hi] = (start <= hour[lo:hi]) & (hour[lo:hi] <= end)
        factors.append(rng.uniform(spec.factor_low, spec.factor_high,
                                   size=np.count_nonzero(labels[lo:hi])))
    attacked = ds.kwh.copy()
    attacked[labels] *= np.concatenate(factors)
    return LabeledSeries(series, attacked, labels)


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
    """Seeded choice of which of the distinct ``dates`` receive an attack type.

    Keyed only by (seed, attack type); ``generate_corpus`` chooses once over
    the days of all its series, so every meter and the neighborhood series
    attack the same days, which keeps decision fusion aligned.
    """
    distinct = sorted(set(dates))
    k = int(round(proportion * len(distinct)))
    if k <= 0:
        return set()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7E, _TYPE_CODE[attack_type])))
    chosen = rng.choice(len(distinct), size=min(k, len(distinct)), replace=False)
    return {distinct[i] for i in sorted(chosen)}


def generate_corpus(
    sh_datasets: dict[int, Dataset],
    nbh_dataset: Dataset | None,
    mix: dict[str, float],
    seed: int,
    specs: dict[str, AttackSpec] | None = None,
) -> Corpus:
    """Emit benign plus per-type attacked variants for SH and NBH series.

    ``mix`` maps attack type to the proportion of days attacked, chosen
    once over the union of all series' days; the same multiplicative
    factors apply unchanged to neighborhood totals (being scale-free they
    adjust automatically to the neighborhood consumption scale). The corpus
    is a pure function of its inputs and ``seed``.
    """
    if not sh_datasets and nbh_dataset is None:
        raise ValueError("generate_corpus: no datasets given")
    specs = specs or {}
    series = [("SH", series_from_dataset(sh_datasets[m])) for m in sorted(sh_datasets)
              if len(sh_datasets[m])]
    if nbh_dataset is not None and len(nbh_dataset):
        series.append(("NBH", series_from_dataset(nbh_dataset)))
    days = np.unique(np.concatenate([s.data.day for _, s in series] + [np.empty(0, np.int64)]))
    dates = dates_of(days)
    attack_days = {t: [day_code_of(d) for d in select_attack_dates(dates, mix[t], seed, t)]
                   for t in ATTACK_TYPES if mix.get(t, 0.0) > 0}

    variants: list[CorpusVariant] = []
    for level, s in series:
        variants.append(CorpusVariant(level, "none", LabeledSeries(
            s, s.values.copy(), np.zeros(len(s), dtype=bool))))
        for attack_type, chosen in attack_days.items():
            spec = specs.get(attack_type) or default_spec(attack_type)
            labeled = apply_attack(s, dataclasses.replace(spec, seed=seed))
            keep = np.isin(s.data.day, chosen)
            variants.append(CorpusVariant(level, attack_type, LabeledSeries(
                s, np.where(keep, labeled.attacked, s.values), labeled.labels & keep)))
    return Corpus(variants, seed)


def corpus_csv_rows(corpus: Corpus) -> Iterator[str]:
    """The corpus CSV text (meter, date, interval, base, attacked, label,
    attack type, seed), one variant per string after the header line.

    The text is what ``csv.writer`` writes for these fields (no field needs
    quoting), with each float as its ``repr``. Consecutive variants of one
    base series share its per-row head (meter, date, interval, base), and
    an attacked value with the bits of its base value reuses the base text.
    """
    yield "meter_id,date,interval,base_kwh,attacked_kwh,label,attack_type,seed\r\n"
    base = None
    for variant in corpus.variants:
        ls = variant.labeled
        if ls.base is not base:
            base, ds = ls.base, ls.base.data
            meter = "" if ds.meter_id is None else ds.meter_id
            base_text = list(map(repr, ds.kwh.tolist()))
            heads = [f"{meter},{d},{i},{b},"
                     for d, i, b in zip(iso_dates(ds.day), ds.interval.tolist(), base_text)]
        attacked = np.asarray(ls.attacked, dtype=np.float64)
        text = base_text.copy()
        changed = np.flatnonzero(attacked.view(np.uint64) != ds.kwh.view(np.uint64))
        for i, a in zip(changed.tolist(), attacked[changed].tolist()):
            text[i] = repr(a)
        tail = [f",{label},{variant.attack_type},{corpus.seed}\r\n"
                for label in ("benign", "malicious")]
        yield "".join([f"{h}{a}{tail[m]}" for h, a, m in zip(heads, text, ls.labels.tolist())])
