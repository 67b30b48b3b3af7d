"""Two-level residual-threshold anomaly detection and decision fusion.

Per home, each hourly observation is compared against the trained model's
prediction plus its stored prediction error (validation RMSE). Exceedances
feed a sliding window of the last ``n_window`` flags, held as an
``n_window``-bit int whose lowest bit is the newest flag; an alert fires
when an exceeding observation brings the window's flag count (its set
bits) strictly above ``nbr_incr`` (default 2, i.e. more than two tolerated
successive increases), after which the window is cleared. A paper-literal
lifetime counter mode is available behind ``mode="lifetime"``.

At the neighborhood level every half-hourly exceedance raises an immediate
abnormal-consumption alert (no counter). The decision maker confirms an
attack per half-hour tick when the neighborhood alert is set or a strict
majority of homes are alerting; hourly home alerts count for both
half-hours of their hour.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from typing import Sequence

import numpy as np

from .errors import SequencingError
from .ingest import FeatureVector, date_of, day_code_of
from .trees import TreeModel, predict

DEFAULT_NBR_INCR = 2
DEFAULT_N_WINDOW = 4
COUNTER_MODES = ("windowed", "lifetime")


def check_counter(nbr_incr: int, n_window: int, mode: str) -> None:
    """Reject home-detector settings under which it could never alert or
    would not count: a window of n_window flags counts at most n_window."""
    if mode not in COUNTER_MODES:
        raise ValueError(f"unknown counter_mode {mode!r}; expected one of "
                         f"{', '.join(COUNTER_MODES)}")
    if n_window < 1:
        raise ValueError(f"n_window must be >= 1, not {n_window!r}")
    if mode == "windowed" and not 0 <= nbr_incr < n_window:
        raise ValueError(f"nbr_incr {nbr_incr!r} lies outside [0, n_window) = [0, {n_window}) "
                         f"in windowed mode")
    if nbr_incr < 0:
        raise ValueError(f"nbr_incr must be >= 0, not {nbr_incr!r}")


@dataclasses.dataclass(slots=True)
class AlertEvent:
    kind: str                # "sh_anomaly" | "nacr" | "attack_confirmed"
    meter_id: int | None
    date: dt.date
    interval: int
    interval_kind: str       # "hour" | "slot"
    observed: float
    predicted: float
    threshold: float         # the pe margin in force when the alert fired

    def timestamp(self) -> dt.datetime:
        if self.interval_kind == "hour":
            return dt.datetime.combine(self.date, dt.time(self.interval - 1, 0))
        return dt.datetime.combine(
            self.date, dt.time((self.interval - 1) // 2, 30 * ((self.interval - 1) % 2)))


class _DetectorState:
    """State shared by both levels: the model, its pe margin and the order key."""

    def __init__(self, model: TreeModel):
        self.model = model
        self.pe = model.trained_rmse
        self._last_key: tuple[dt.date, int] | None = None


class ShDetectorState(_DetectorState):
    """Per-meter detector state; confined to a single logical stream."""

    def __init__(self, meter_id: int, model: TreeModel, nbr_incr: int = DEFAULT_NBR_INCR,
                 n_window: int = DEFAULT_N_WINDOW, mode: str = "windowed"):
        check_counter(nbr_incr, n_window, mode)
        super().__init__(model)
        self.meter_id = meter_id
        self.nbr_incr = nbr_incr
        self.n_window = n_window
        self.mode = mode
        self.bits = 0                       # the window: bit i is the flag i steps back
        self._mask = (1 << n_window) - 1
        self.lifetime_counter = 0

    @property
    def counter(self) -> int:
        return self.bits.bit_count()


class NbhDetectorState(_DetectorState):
    """Neighborhood detector state (no counter: single-interval test)."""


def sh_step(state: ShDetectorState, fv: FeatureVector) -> AlertEvent | None:
    """Process the next hourly observation for one home.

    Returns the alert event when one fires, else None.
    """
    return _sh_decide(state, fv.date, fv.interval, fv.consumption, predict(state.model, fv))


def _sh_decide(state: ShDetectorState, date: dt.date, interval: int, observed: float,
               predicted: float) -> AlertEvent | None:
    """The home detector once the prediction is known: order check,
    exceedance, window (or lifetime) counter and alert. The order check is
    written out here and in ``_nbh_decide``: it runs once per reading."""
    key = (date, interval)
    if state._last_key is not None and key <= state._last_key:
        raise SequencingError(f"observation {key} not after {state._last_key}")
    state._last_key = key
    exceeded = observed > predicted + state.pe

    if state.mode == "lifetime":
        fired = exceeded and state.lifetime_counter > state.nbr_incr
        if exceeded and not fired:
            state.lifetime_counter += 1
    else:
        bits = state.bits << 1 & state._mask
        fired = False
        if exceeded:
            bits |= 1
            fired = bits.bit_count() > state.nbr_incr
        state.bits = 0 if fired else bits
    if not fired:
        return None
    return AlertEvent("sh_anomaly", state.meter_id, date, interval, "hour",
                      observed, predicted, state.pe)


def nbh_step(state: NbhDetectorState, fv: FeatureVector) -> AlertEvent | None:
    """Process the next half-hourly neighborhood total; NACR is immediate."""
    return _nbh_decide(state, fv.date, fv.interval, fv.consumption, predict(state.model, fv))


def _nbh_decide(state: NbhDetectorState, date: dt.date, interval: int, observed: float,
                predicted: float) -> AlertEvent | None:
    """The neighborhood detector once the prediction is known: order check
    and an immediate alert on exceedance."""
    key = (date, interval)
    if state._last_key is not None and key <= state._last_key:
        raise SequencingError(f"observation {key} not after {state._last_key}")
    state._last_key = key
    if observed > predicted + state.pe:
        return AlertEvent("nacr", None, date, interval, "slot", observed, predicted, state.pe)
    return None


def replay(state: _DetectorState, dates: Sequence[int], intervals: Sequence[int],
           observed: np.ndarray, predicted: np.ndarray) -> list[tuple[int, AlertEvent]]:
    """Replay a stream whose predictions are known through one detector.

    ``dates`` holds each row's day code (``Dataset.day``: day 1 is
    ``ingest.EPOCH``). Row i is judged exactly as ``sh_step`` (for an
    ``ShDetectorState``) or ``nbh_step`` judges it, and the state ends as
    theirs would. Returns (row index, event) of every alert, in row order.

    The whole stream is checked before any row is judged: a row that is not
    after the one before it (the first, not after the state's last key)
    raises the ``SequencingError`` that stepping would raise there, and
    leaves the state as it was. Exceedances are one array comparison; the
    window (or lifetime counter) runs over the exceeding rows only, and
    events are made for the rows that fire.
    """
    days = np.asarray(dates, dtype=np.int64)
    intervals = np.asarray(intervals, dtype=np.int64)
    if not days.size:
        return []
    later = (days[1:] > days[:-1]) | ((days[1:] == days[:-1]) & (intervals[1:] > intervals[:-1]))
    if state._last_key is not None:
        last_day, last_interval = day_code_of(state._last_key[0]), state._last_key[1]
        later = np.concatenate(([(int(days[0]), int(intervals[0])) > (last_day, last_interval)],
                                later))
    if not later.all():
        row = int(np.argmin(later)) + (state._last_key is None)
        before = state._last_key if row == 0 else _key(days, intervals, row - 1)
        raise SequencingError(f"observation {_key(days, intervals, row)} not after {before}")

    observed, predicted = np.asarray(observed, dtype=float), np.asarray(predicted, dtype=float)
    exceeded = np.flatnonzero(observed > predicted + state.pe)
    state._last_key = _key(days, intervals, days.size - 1)
    if isinstance(state, NbhDetectorState):
        fired, kind, meter_id, interval_kind = exceeded, "nacr", None, "slot"
    else:
        fired = np.array(_count(state, exceeded, days.size), dtype=np.int64)
        kind, meter_id, interval_kind = "sh_anomaly", state.meter_id, "hour"
    return [(i, AlertEvent(kind, meter_id, date_of(d), interval, interval_kind, o, p, state.pe))
            for i, d, interval, o, p in zip(fired.tolist(), days[fired].tolist(),
                                            intervals[fired].tolist(), observed[fired].tolist(),
                                            predicted[fired].tolist())]


def _key(days: np.ndarray, intervals: np.ndarray, row: int) -> tuple[dt.date, int]:
    return date_of(int(days[row])), int(intervals[row])


def _count(state: ShDetectorState, exceeded: np.ndarray, rows: int) -> list[int]:
    """The rows of ``exceeded`` (row indices, increasing, of a stream of
    ``rows`` rows) on which the home detector fires; updates its counter.

    Every row shifts the window one place, so between two exceeding rows
    the window shifts by their distance; a shift past the window clears it.
    In lifetime mode the first exceedances raise the counter until it
    passes ``nbr_incr``, and every later one fires."""
    if state.mode == "lifetime":
        spare = max(state.nbr_incr + 1 - state.lifetime_counter, 0)
        state.lifetime_counter += min(spare, exceeded.size)
        return exceeded[spare:].tolist()
    bits, mask, width, nbr_incr = state.bits, state._mask, state.n_window, state.nbr_incr
    shifts = np.minimum(np.diff(exceeded, prepend=-1), width)
    fired = []
    for row, shift in zip(exceeded.tolist(), shifts.tolist()):
        bits = (bits << shift) & mask | 1
        if bits.bit_count() > nbr_incr:
            fired.append(row)
            bits = 0
    last = int(exceeded[-1]) if exceeded.size else -1
    state.bits = (bits << min(rows - 1 - last, width)) & mask
    return fired


def decide(nacr: bool, nb_alert: int, nb_sh: int) -> bool:
    """Attack confirmed when NACR is set or a strict majority of homes alert."""
    if nb_sh < 1:
        raise ValueError("nb_sh must be >= 1")
    if not 0 <= nb_alert <= nb_sh:
        raise ValueError(f"nb_alert {nb_alert} outside [0, {nb_sh}]")
    return bool(confirms(nacr, nb_alert, nb_sh))


def confirms(nacr, nb_alert, nb_sh: int):
    """The rule of ``decide`` without its input checks, elementwise over
    arrays of ticks as well as on one tick."""
    return nacr | (nb_alert > nb_sh / 2)


class DecisionMaker:
    """Decision fusion for a neighborhood of ``nb_sh`` homes: each half-hour
    tick whose alerts ``decide`` confirms yields an ``attack_confirmed`` event."""

    def __init__(self, nb_sh: int):
        self.nb_sh = nb_sh

    def tick(self, date: dt.date, slot: int, nacr: bool, nb_alert: int) -> AlertEvent | None:
        if not decide(nacr, nb_alert, self.nb_sh):
            return None
        return AlertEvent("attack_confirmed", None, date, slot, "slot", 0.0, 0.0, 0.0)
