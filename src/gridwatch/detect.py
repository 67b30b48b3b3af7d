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

Every processed row lands in exactly one of the benign buffer (used for
periodic retraining) or the suspect store.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from collections import deque
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientData, SequencingError, TrainingError
from .ingest import Dataset, FeatureVector, split_train_validation
from .trees import TreeModel, TreeParams, predict, train_model_tree, train_rep_tree

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
    """State shared by both levels: the model/pe pair, routed rows, order key
    and the optional retraining context."""

    def __init__(self, model: TreeModel):
        # model and pe swap together; readers unpack the tuple once per step
        self._model_pe = (model, model.trained_rmse)
        self.benign_buffer: list[FeatureVector] = []
        self.suspects: list[FeatureVector] = []
        self.alerts: list[AlertEvent] = []
        self._last_key: tuple[dt.date, int] | None = None
        # retraining context (optional)
        self.history: Dataset | None = None
        self.params: TreeParams | None = None

    @property
    def model(self) -> TreeModel:
        return self._model_pe[0]

    @property
    def pe(self) -> float:
        return self._model_pe[1]

    def swap_model(self, model: TreeModel, pe: float) -> None:
        self._model_pe = (model, pe)


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

    Returns the alert event when one fires, else None. The alerting row is
    diverted to the suspect store; every other row (including pre-alert
    exceedances) is appended to the benign buffer.
    """
    model, pe = state._model_pe
    event = _sh_decide(state, fv.date, fv.interval, fv.consumption, predict(model, fv), pe)
    (state.benign_buffer if event is None else state.suspects).append(fv)
    return event


def _sh_decide(state: ShDetectorState, date: dt.date, interval: int, observed: float,
               predicted: float, pe: float) -> AlertEvent | None:
    """The home detector once the prediction is known: order check,
    exceedance, window (or lifetime) counter and alert."""
    _check_order(state, date, interval)
    exceeded = observed > predicted + pe

    if state.mode == "lifetime":
        if exceeded and state.lifetime_counter > state.nbr_incr:
            return _sh_alert(state, date, interval, observed, predicted, pe)
        if exceeded:
            state.lifetime_counter += 1
        return None

    state.window.append(exceeded)
    if exceeded and state.counter > state.nbr_incr:
        state.window.clear()
        return _sh_alert(state, date, interval, observed, predicted, pe)
    return None


def _sh_alert(state: ShDetectorState, date: dt.date, interval: int, observed: float,
              predicted: float, pe: float) -> AlertEvent:
    event = AlertEvent("sh_anomaly", state.meter_id, date, interval, "hour",
                       observed, predicted, pe)
    state.alerts.append(event)
    return event


def nbh_step(state: NbhDetectorState, fv: FeatureVector) -> AlertEvent | None:
    """Process the next half-hourly neighborhood total; NACR is immediate."""
    model, pe = state._model_pe
    event = _nbh_decide(state, fv.date, fv.interval, fv.consumption, predict(model, fv), pe)
    (state.benign_buffer if event is None else state.suspects).append(fv)
    return event


def _nbh_decide(state: NbhDetectorState, date: dt.date, interval: int, observed: float,
                predicted: float, pe: float) -> AlertEvent | None:
    """The neighborhood detector once the prediction is known: order check
    and an immediate alert on exceedance."""
    _check_order(state, date, interval)
    if observed > predicted + pe:
        event = AlertEvent("nacr", None, date, interval, "slot", observed, predicted, pe)
        state.alerts.append(event)
        return event
    return None


def decide(nacr: bool, nb_alert: int, nb_sh: int) -> bool:
    """Attack confirmed when NACR is set or a strict majority of homes alert."""
    if nb_sh < 1:
        raise ValueError("nb_sh must be >= 1")
    if not 0 <= nb_alert <= nb_sh:
        raise ValueError(f"nb_alert {nb_alert} outside [0, {nb_sh}]")
    return nacr or nb_alert > nb_sh / 2


class DecisionMaker:
    """Serialized aggregator fusing neighborhood and per-home alerts.

    ``confirm`` models the operator's confirmation step; when it returns
    True the tick's samples are routed to the attack store, otherwise to
    the benign store.
    """

    def __init__(self, nb_sh: int, confirm: Callable[[AlertEvent], bool] | None = None):
        self.nb_sh = nb_sh
        self.confirm = confirm
        self.attack_store: list[FeatureVector] = []
        self.benign_store: list[FeatureVector] = []

    def tick(self, date: dt.date, slot: int, nacr: bool, nb_alert: int,
             samples: Sequence[FeatureVector] = ()) -> AlertEvent | None:
        if not decide(nacr, nb_alert, self.nb_sh):
            self.benign_store.extend(samples)
            return None
        event = AlertEvent("attack_confirmed", None, date, slot, "slot", 0.0, 0.0, 0.0)
        confirmed = self.confirm(event) if self.confirm is not None else True
        if confirmed:
            self.attack_store.extend(samples)
        else:
            self.benign_store.extend(samples)
        return event


@dataclasses.dataclass
class GradualCheck:
    slope: float
    threshold: float
    flagged: bool


def gradual_overload_check(daily_totals: Sequence[float], min_days: int = 28,
                           slope_threshold: float | None = None,
                           pe: float | None = None) -> GradualCheck:
    """Least-squares slope of daily totals; flags a sustained upward drift.

    Without an explicit threshold the cumulative drift over the analysis
    window is compared against twice the model's prediction error:
    slope * n > 2 * pe.
    """
    y = np.asarray(daily_totals, dtype=float)
    n = y.size
    if n < min_days:
        raise InsufficientData(f"need at least {min_days} daily totals, got {n}")
    x = np.arange(n, dtype=float)
    xc = x - x.mean()
    slope = float((xc * (y - y.mean())).sum() / (xc * xc).sum())
    if slope_threshold is None:
        if pe is None:
            raise ValueError("either slope_threshold or pe must be given")
        slope_threshold = 2.0 * pe / n
    return GradualCheck(slope, slope_threshold, slope > slope_threshold)


def retrain_tick(state, min_rows: int, split_seed: int = 0) -> TreeModel | None:
    """Retrain once the benign buffer is large enough, swapping atomically.

    The buffer is merged with the prior training history, re-split into
    train/validation, and a fresh model of the same kind is trained; its
    validation RMSE becomes the new pe. On any training failure the old
    model stays in place and the error propagates. Returns the new model,
    or None when the buffer is still below ``min_rows``.
    """
    if len(state.benign_buffer) < min_rows:
        return None
    if state.history is None:
        raise TrainingError("retrain_tick: detector has no training history attached")
    merged_rows = sorted(
        {(r.date, r.interval): r for r in list(state.history.rows) + list(state.benign_buffer)}.values(),
        key=lambda r: (r.date, r.interval),
    )
    merged = state.history.replace_rows(list(merged_rows))
    params = state.params or TreeParams()
    train, valid = split_train_validation(merged, split_seed)
    trainer = train_model_tree if state.model.kind == "model_tree" else train_rep_tree
    new_model = trainer(train, params, valid=valid)
    state.swap_model(new_model, new_model.trained_rmse)
    state.history = merged
    state.benign_buffer.clear()
    return new_model
