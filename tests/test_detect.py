import csv
import dataclasses
import datetime as dt
import itertools
import json
import pickle
from collections import deque
from collections.abc import Sized

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.cli import main
from gridwatch.detect import (DEFAULT_N_WINDOW, AlertEvent, DecisionMaker, NbhDetectorState,
                              ShDetectorState, _nbh_decide, _sh_decide, confirms, decide,
                              nbh_step, replay, sh_step)
from gridwatch.errors import SequencingError
from gridwatch.ingest import NBH_ATTRIBUTES, SH_ATTRIBUTES, date_of, feature_vector
from gridwatch.trees import Leaf, TreeModel, serialize

START = dt.date(2009, 1, 5)


def leaf_model(value=0.0, pe=0.5, kind="rep_tree", attributes=SH_ATTRIBUTES):
    return TreeModel(kind=kind, root=Leaf(value, 1), attributes=tuple(attributes),
                     trained_rmse=pe)


def hourly_fv(step, consumption, kind="hour"):
    date = START + dt.timedelta(days=step // 24)
    return feature_vector(date, step % 24 + 1, kind, consumption)


def slot_fv(step, consumption):
    date = START + dt.timedelta(days=step // 48)
    return feature_vector(date, step % 48 + 1, "slot", consumption)


@pytest.mark.parametrize("settings, key", [
    ({"n_window": 0}, "n_window"),
    ({"nbr_incr": DEFAULT_N_WINDOW}, "nbr_incr"),   # a window never counts more flags
    ({"nbr_incr": -1}, "nbr_incr"),
    ({"nbr_incr": -1, "mode": "lifetime"}, "nbr_incr"),
    ({"mode": "bogus"}, "counter_mode"),
])
def test_sh_state_rejects_settings_that_never_alert_or_never_count(settings, key):
    with pytest.raises(ValueError, match=key):
        ShDetectorState(1, leaf_model(), **settings)


def test_lifetime_counter_takes_no_window_bound():
    state = ShDetectorState(1, leaf_model(), nbr_incr=10, n_window=4, mode="lifetime")
    assert state.nbr_incr == 10


def drive(flags, nbr_incr=2, n_window=4, mode="windowed"):
    """Feed a boolean exceed sequence through sh_step; returns alert steps."""
    state = ShDetectorState(1, leaf_model(0.0, pe=0.5), nbr_incr=nbr_incr,
                            n_window=n_window, mode=mode)
    fired = []
    for step, flag in enumerate(flags):
        fv = hourly_fv(step, 1.0 if flag else 0.2)  # 1.0 > 0.5, 0.2 <= 0.5
        if sh_step(state, fv) is not None:
            fired.append(step)
    return fired, state


def detect_csvs(tmp_path, level, model, fvs):
    """Replay rows as a one-stream corpus through `gridwatch detect`; returns
    the alerts and the suspect and benign rows it wrote. Checks that the
    suspect rows are the alerting rows, in alert order, and that every
    replayed row lands in exactly one of the two CSVs."""
    models = tmp_path / "models"
    models.mkdir()
    (models / ("sh_1.amim" if level == "sh" else "nbh.amim")).write_bytes(serialize(model))
    meter = "1" if level == "sh" else ""
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("meter_id,date,interval,attacked_kwh,attack_type\n" + "".join(
        f"{meter},{fv.date.isoformat()},{fv.interval},{fv.consumption!r},none\n" for fv in fvs))
    out = tmp_path / "out"
    assert main(["detect", "--models", str(models), "--corpus", str(corpus),
                 "--level", level, "--out", str(out)]) == 0
    alerts = [json.loads(line) for line in (out / "alerts.jsonl").read_text().splitlines()]
    rows = {}
    for label, name in (("suspect", "suspects.csv"), ("benign", "benign.csv")):
        with open(out / name, newline="") as fh:
            rows[label] = list(csv.DictReader(fh))
        assert all(r["label"] == label for r in rows[label])
    key = lambda r: (r["date"], int(r["hour_or_slot"]))
    assert [key(r) for r in rows["suspect"]] == \
        [(a["timestamp"][:10], a["interval"]) for a in alerts]
    assert [key(r) + (float(r["consumption_kwh"]),)
            for r in sorted(rows["suspect"] + rows["benign"], key=key)] == \
        [(fv.date.isoformat(), fv.interval, fv.consumption) for fv in fvs]
    return alerts, rows["suspect"], rows["benign"]


def reference_alerts(flags, nbr_incr=2, n_window=4):
    """Independent window-scan reference: at every exceeding step, count the
    flags inside the trailing window (since the last alert) and fire when
    strictly more than nbr_incr; clear the history after an alert."""
    fired = []
    history = []
    for step, flag in enumerate(flags):
        history.append(flag)
        if flag and sum(history[-n_window:]) > nbr_incr:
            fired.append(step)
            history = []
    return fired


# ---------------------------------------------------------------------------
# SH detector

def test_sh_no_flag_when_within_threshold():
    state = ShDetectorState(1, leaf_model(0.5, pe=0.3))
    event = sh_step(state, hourly_fv(0, 0.7))  # 0.7 <= 0.5 + 0.3
    assert event is None


def test_sh_exactly_threshold_never_flags():
    state = ShDetectorState(1, leaf_model(0.5, pe=0.3))
    for step in range(6):
        assert sh_step(state, hourly_fv(step, 0.8)) is None
    assert state.counter == 0


def test_sh_three_consecutive_increases_alert_on_third():
    fired, state = drive([True, True, True])
    assert fired == [2]
    assert state.counter == 0  # window cleared after the alert


def test_sh_alert_row_goes_to_suspects_not_benign(tmp_path):
    fvs = [hourly_fv(step, 1.0 if flag else 0.2)
           for step, flag in enumerate([True, True, True, False])]
    _, suspects, benign = detect_csvs(tmp_path, "sh", leaf_model(0.0, pe=0.5), fvs)
    assert [r["hour_or_slot"] for r in suspects] == ["3"]
    assert len(benign) == 3  # two pre-alert exceedances + benign row


def test_sh_windowed_matches_reference_exhaustive_length_8():
    for n in range(1, 9):
        for flags in itertools.product([False, True], repeat=n):
            assert drive(flags)[0] == reference_alerts(flags), flags


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_window=st.integers(1, 70))
def test_bit_window_equals_deque_automaton_and_window_scan(data, n_window):
    # The window is an n_window-bit int; the automaton it replaced kept a
    # deque of the last n_window flags, summed it and cleared it on an alert.
    # Flags are drawn as the run of non-exceeding steps before each
    # exceedance, so sparse sequences, whose flags leave the window by age,
    # are common.
    nbr_incr = data.draw(st.integers(0, n_window - 1), label="nbr_incr")
    gaps = data.draw(st.lists(st.integers(0, 2 * n_window), max_size=40), label="gaps")
    flags = [flag for gap in gaps for flag in [False] * gap + [True]]
    state = ShDetectorState(1, leaf_model(0.0, pe=0.5), nbr_incr=nbr_incr, n_window=n_window)
    window = deque(maxlen=n_window)
    fired = []
    for step, flag in enumerate(flags):
        event = sh_step(state, hourly_fv(step, 1.0 if flag else 0.2))
        window.append(flag)
        deque_fires = flag and sum(window) > nbr_incr
        if deque_fires:
            window.clear()
            fired.append(step)
        assert (event is not None) == deque_fires, step
        assert state.counter == sum(window), step
    assert fired == reference_alerts(flags, nbr_incr, n_window)


def test_sh_window_size_matters():
    # five flags spaced so a window of 4 holds at most 2 until the last step
    flags = [True, False, True, False, True, True]
    assert drive(flags, n_window=4)[0] == reference_alerts(flags, n_window=4)
    assert drive(flags, n_window=6)[0] == reference_alerts(flags, n_window=6)


def test_sh_lifetime_mode_alerts_on_fourth_exceedance():
    fired, _ = drive([True] * 6, mode="lifetime")
    assert fired == [3, 4, 5]  # counter: 0,1,2 then > 2 from the fourth on


def test_sh_out_of_order_rejected():
    state = ShDetectorState(1, leaf_model())
    sh_step(state, hourly_fv(5, 0.1))
    with pytest.raises(SequencingError):
        sh_step(state, hourly_fv(4, 0.1))


def test_sh_monotone_in_observed():
    # raising the observation at the alerting step keeps the alert
    base = [True, True, True]
    _, state_low = drive(base)
    state = ShDetectorState(1, leaf_model(0.0, pe=0.5))
    for step in range(2):
        sh_step(state, hourly_fv(step, 1.0))
    event = sh_step(state, hourly_fv(2, 5.0))  # even larger consumption
    assert event is not None


def test_sh_zero_false_alarms_on_perfect_predictions():
    state = ShDetectorState(1, leaf_model(0.5, pe=0.0))
    for step in range(48):
        assert sh_step(state, hourly_fv(step, 0.5)) is None


def test_sh_benign_routing_conservation(tmp_path):
    rng = np.random.default_rng(4)
    n = 200
    fvs = [hourly_fv(step, float(rng.uniform(0, 1.2))) for step in range(n)]
    alerts, suspects, benign = detect_csvs(tmp_path, "sh", leaf_model(0.5, pe=0.1), fvs)
    assert alerts and len(suspects) + len(benign) == n


@pytest.mark.parametrize("level", ["windowed", "lifetime", "nbh"])
def test_state_is_bounded_by_window(level):
    rng = np.random.default_rng(6)
    if level == "nbh":
        state = NbhDetectorState(leaf_model(0.5, pe=0.1, attributes=NBH_ATTRIBUTES))
        step, make_fv = nbh_step, slot_fv
    else:
        state, step, make_fv = ShDetectorState(1, leaf_model(0.5, pe=0.1), mode=level), \
            sh_step, hourly_fv
    fired = 0
    for i in range(5000):
        fired += step(state, make_fv(i, float(rng.uniform(0, 1.2)))) is not None
        if level == "windowed":   # an int window, which the sizes below do not see
            assert 0 <= state.bits < 2 ** DEFAULT_N_WINDOW, (i, state.bits)
    assert fired > 0
    sizes = {name: len(value) for name, value in vars(state).items()
             if isinstance(value, Sized) and not isinstance(value, str)}
    assert max(sizes.values()) <= DEFAULT_N_WINDOW, sizes


def test_alert_event_is_slotted():
    # a desk run holds about 18,000 events: no per-event __dict__
    event = nbh_step(NbhDetectorState(leaf_model(240.0, pe=48.0, attributes=NBH_ATTRIBUTES)),
                     slot_fv(0, 300.0))
    assert type(event) is AlertEvent and not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.note = "extra"
    assert pickle.loads(pickle.dumps(event)) == event
    assert dataclasses.replace(event, observed=1.0).observed == 1.0


# ---------------------------------------------------------------------------
# NBH detector

def test_nbh_immediate_alert():
    state = NbhDetectorState(leaf_model(240.0, pe=48.0, attributes=NBH_ATTRIBUTES))
    event = nbh_step(state, slot_fv(0, 300.0))  # 300 > 288
    assert event is not None and event.kind == "nacr"


def test_nbh_boundary_is_strict():
    state = NbhDetectorState(leaf_model(240.0, pe=48.0, attributes=NBH_ATTRIBUTES))
    assert nbh_step(state, slot_fv(0, 288.0)) is None


def test_nbh_benign_rows_buffered(tmp_path):
    fvs = [slot_fv(step, 300.0 if step == 4 else 200.0) for step in range(11)]
    model = leaf_model(240.0, pe=48.0, attributes=NBH_ATTRIBUTES)
    _, suspects, benign = detect_csvs(tmp_path, "nbh", model, fvs)
    assert [r["hour_or_slot"] for r in suspects] == ["5"]
    assert len(benign) == 10


def test_nbh_alert_timestamp_is_half_hour():
    state = NbhDetectorState(leaf_model(0.0, pe=0.1, attributes=NBH_ATTRIBUTES))
    event = nbh_step(state, slot_fv(3, 10.0))  # slot 4 starts at 01:30
    assert event.timestamp().isoformat() == "2009-01-05T01:30:00"


# ---------------------------------------------------------------------------
# replay: the stream kernel against stepping row by row

def fresh_state(level, nbr_incr=2, n_window=4):
    """A detector state of ``level`` ("windowed", "lifetime" or "nbh")."""
    if level == "nbh":
        return NbhDetectorState(leaf_model(0.0, pe=0.25, attributes=NBH_ATTRIBUTES))
    return ShDetectorState(7, leaf_model(0.0, pe=0.25), nbr_incr=nbr_incr, n_window=n_window,
                           mode=level)


def state_of(state):
    return (getattr(state, "bits", None), getattr(state, "lifetime_counter", None),
            state._last_key)


def step_rows(state, days, intervals, observed, predicted):
    """The reference: every row through ``_sh_decide``/``_nbh_decide``."""
    decide_row = _nbh_decide if isinstance(state, NbhDetectorState) else _sh_decide
    events = []
    for i, row in enumerate(zip(days, intervals, observed, predicted)):
        event = decide_row(state, date_of(row[0]), *row[1:])
        if event is not None:
            events.append((i, event))
    return events


@settings(max_examples=400, deadline=None)
@given(data=st.data(), level=st.sampled_from(["windowed", "lifetime", "nbh"]),
       n_window=st.integers(1, 70))
def test_replay_equals_stepping_row_by_row(data, level, n_window):
    """Events and final state, in both counter modes and at the neighborhood
    level, over streams with gaps, from a state left by earlier rows. Each
    row exceeds, sits on the threshold or stays below it."""
    per_day = 48 if level == "nbh" else 24
    nbr_incr = data.draw(st.integers(0, n_window - 1 if level == "windowed" else n_window + 2),
                         label="nbr_incr")
    gaps = data.draw(st.lists(st.integers(1, 2 * n_window + 2), max_size=60), label="gaps")
    position = 4000 + np.cumsum(gaps, dtype=np.int64)       # steps from day 0, slot 1
    days, intervals = position // per_day, position % per_day + 1
    predicted = np.array(data.draw(st.lists(st.floats(0, 3), min_size=len(gaps),
                                            max_size=len(gaps)), label="predicted"))
    margin = np.array(data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.125, 2.0]),
                                         min_size=len(gaps), max_size=len(gaps)),
                                label="margin"))
    observed = predicted + 0.25 + margin
    back = data.draw(st.sampled_from([None, 1, 2, 5 * per_day]), label="last key, steps back")
    bits = data.draw(st.integers(0, 2 ** n_window - 1), label="bits")
    count = data.draw(st.integers(0, nbr_incr + 2), label="lifetime counter")
    states = [fresh_state(level, nbr_incr, n_window) for _ in range(2)]
    for state in states:
        if back is not None:
            last = 4000 - back
            state._last_key = (date_of(last // per_day), last % per_day + 1)
        if level != "nbh":
            state.bits, state.lifetime_counter = bits, count
    got = replay(states[0], days, intervals, observed, predicted)
    want = step_rows(states[1], days.tolist(), intervals.tolist(), observed.tolist(),
                     predicted.tolist())
    assert got == want
    assert state_of(states[0]) == state_of(states[1])


@pytest.mark.parametrize("level", ["windowed", "lifetime", "nbh"])
@pytest.mark.parametrize("fault, last", [
    ("repeated row", 3999), ("earlier interval", 3999), ("earlier day", 3999),
    ("repeated row", None), ("earlier interval", None), ("earlier day", None),
    ("first row at the last key", 4000), ("first row before it", 4003)])
def test_replay_rejects_an_out_of_order_stream_before_judging_a_row(level, fault, last):
    """The error names the pair that stepping would name, and the state,
    fresh or set by earlier rows (``last``), is left as it was; every row
    exceeds, so a judged row would change it."""
    per_day = 48 if level == "nbh" else 24
    position = np.arange(4000, 4012)
    position[6:] = {"repeated row": position[5:11], "earlier interval": position[4:10],
                    "earlier day": position[6:] - per_day}.get(fault, position[6:])
    days, intervals = position // per_day, position % per_day + 1
    observed, predicted = np.full(12, 9.0), np.zeros(12)
    states = [fresh_state(level) for _ in range(2)]
    for state in states:
        if last is not None:
            state._last_key = (date_of(last // per_day), last % per_day + 1)
        if level != "nbh":
            state.bits, state.lifetime_counter = 0b10, 1
    found = state_of(states[0])
    with pytest.raises(SequencingError) as stepping:
        step_rows(states[1], days.tolist(), intervals.tolist(), observed.tolist(),
                  predicted.tolist())
    with pytest.raises(SequencingError) as replaying:
        replay(states[0], days, intervals, observed, predicted)
    assert str(replaying.value) == str(stepping.value)
    assert state_of(states[0]) == found


def test_replay_of_an_empty_stream_changes_nothing():
    state = fresh_state("windowed")
    state.bits, state._last_key = 0b11, (START, 3)
    assert replay(state, [], [], np.empty(0), np.empty(0)) == []
    assert state_of(state) == (0b11, 0, (START, 3))


# ---------------------------------------------------------------------------
# decision fusion

def test_decide_examples():
    assert decide(False, 251, 500) is True
    assert decide(False, 250, 500) is False
    assert decide(True, 0, 500) is True


def test_decide_matches_formula_exhaustive():
    for nb_sh in range(1, 9):
        for nb_alert in range(nb_sh + 1):
            for nacr in (False, True):
                assert decide(nacr, nb_alert, nb_sh) == (nacr or nb_alert > nb_sh / 2)


def test_decide_validates_inputs():
    with pytest.raises(ValueError):
        decide(False, 0, 0)
    with pytest.raises(ValueError):
        decide(False, 5, 4)


def test_confirms_is_decide_over_arrays():
    for nb_sh in range(1, 9):
        nacr, nb_alert = np.array([[False], [True]]), np.arange(nb_sh + 1)
        want = [[decide(bool(n), int(a), nb_sh) for a in nb_alert] for n in nacr[:, 0]]
        assert confirms(nacr, nb_alert, nb_sh).tolist() == want


def test_decision_maker_confirms_exactly_when_decide():
    for nb_sh in range(1, 6):
        maker = DecisionMaker(nb_sh)
        cases = itertools.product((False, True), range(nb_sh + 1))
        for slot, (nacr, nb_alert) in enumerate(cases, start=1):
            event = maker.tick(START, slot, nacr, nb_alert)
            if decide(nacr, nb_alert, nb_sh):
                assert (event.kind, event.meter_id, event.date, event.interval,
                        event.interval_kind) == ("attack_confirmed", None, START, slot, "slot")
            else:
                assert event is None
