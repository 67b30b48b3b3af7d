"""Two-level residual-threshold anomaly detection and decision fusion.

Per home, each hourly observation is compared against the trained model's
prediction plus its stored prediction error (validation RMSE). Exceedances
feed a sliding window of the last ``n_window`` flags; an alert fires when
an exceeding observation brings the window's flag count strictly above
``nbr_incr`` (default 2, i.e. more than two tolerated successive
increases), after which the window is cleared. A paper-literal lifetime
counter mode is available behind ``mode="lifetime"``.

At the neighborhood level every half-hourly exceedance raises an immediate
abnormal-consumption alert (no counter). The decision maker confirms an
attack per half-hour tick when the neighborhood alert is set or a strict
majority of homes are alerting; hourly home alerts count for both
half-hours of their hour.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from collections import deque
from typing import Sequence

import numpy as np

from .errors import SequencingError
from .ingest import FeatureVector
from .trees import TreeModel, predict

DEFAULT_NBR_INCR = 2
DEFAULT_N_WINDOW = 4


@dataclasses.dataclass
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

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "meter_id": self.meter_id,
            "timestamp": self.timestamp().isoformat(),
            "interval_kind": self.interval_kind,
            "interval": self.interval,
            "observed": self.observed,
            "predicted": self.predicted,
            "threshold": self.threshold,
        }


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
        if mode not in ("windowed", "lifetime"):
            raise ValueError(f"unknown counter mode {mode!r}")
        super().__init__(model)
        self.meter_id = meter_id
        self.nbr_incr = nbr_incr
        self.n_window = n_window
        self.mode = mode
        self.window: deque[bool] = deque(maxlen=n_window)
        self.lifetime_counter = 0

    @property
    def counter(self) -> int:
        return sum(self.window)


class NbhDetectorState(_DetectorState):
    """Neighborhood detector state (no counter: single-interval test)."""


def _check_order(state, date: dt.date, interval: int) -> None:
    key = (date, interval)
    if state._last_key is not None and key <= state._last_key:
        raise SequencingError(
            f"observation {key} not after {state._last_key}")
    state._last_key = key


def sh_step(state: ShDetectorState, fv: FeatureVector) -> AlertEvent | None:
    """Process the next hourly observation for one home.

    Returns the alert event when one fires, else None.
    """
    return _sh_decide(state, fv.date, fv.interval, fv.consumption, predict(state.model, fv))


def _sh_decide(state: ShDetectorState, date: dt.date, interval: int, observed: float,
               predicted: float) -> AlertEvent | None:
    """The home detector once the prediction is known: order check,
    exceedance, window (or lifetime) counter and alert."""
    _check_order(state, date, interval)
    exceeded = observed > predicted + state.pe

    if state.mode == "lifetime":
        fired = exceeded and state.lifetime_counter > state.nbr_incr
        if exceeded and not fired:
            state.lifetime_counter += 1
    else:
        state.window.append(exceeded)
        fired = exceeded and state.counter > state.nbr_incr
        if fired:
            state.window.clear()
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
    _check_order(state, date, interval)
    if observed > predicted + state.pe:
        return AlertEvent("nacr", None, date, interval, "slot", observed, predicted, state.pe)
    return None


def replay(state: _DetectorState, dates: Sequence[dt.date], intervals: Sequence[int],
           observed: np.ndarray, predicted: np.ndarray) -> list[tuple[int, AlertEvent]]:
    """Replay a stream whose predictions are known through one detector.

    Row i is judged exactly as ``sh_step`` (for an ``ShDetectorState``) or
    ``nbh_step`` judges it. Returns (row index, event) of every alert, in
    row order.
    """
    decide_row = _sh_decide if isinstance(state, ShDetectorState) else _nbh_decide
    rows = zip(dates, np.asarray(intervals).tolist(), np.asarray(observed, dtype=float).tolist(),
               np.asarray(predicted, dtype=float).tolist())
    return [(i, event) for i, row in enumerate(rows)
            if (event := decide_row(state, *row)) is not None]


def decide(nacr: bool, nb_alert: int, nb_sh: int) -> bool:
    """Attack confirmed when NACR is set or a strict majority of homes alert."""
    if nb_sh < 1:
        raise ValueError("nb_sh must be >= 1")
    if not 0 <= nb_alert <= nb_sh:
        raise ValueError(f"nb_alert {nb_alert} outside [0, {nb_sh}]")
    return nacr or nb_alert > nb_sh / 2


class DecisionMaker:
    """Decision fusion for a neighborhood of ``nb_sh`` homes: each half-hour
    tick whose alerts ``decide`` confirms yields an ``attack_confirmed`` event."""

    def __init__(self, nb_sh: int):
        self.nb_sh = nb_sh

    def tick(self, date: dt.date, slot: int, nacr: bool, nb_alert: int) -> AlertEvent | None:
        if not decide(nacr, nb_alert, self.nb_sh):
            return None
        return AlertEvent("attack_confirmed", None, date, slot, "slot", 0.0, 0.0, 0.0)
