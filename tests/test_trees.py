import dataclasses
import datetime as dt
import itertools
import pickle
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.errors import ContractViolation, ModelDecodeError, TrainingError
from gridwatch.ingest import (NBH_ATTRIBUTES, SEASONS, SH_ATTRIBUTES, Dataset,
                              FeatureVector, feature_vector, season_of_month)
from gridwatch.trees import (CATEGORICAL_ATTRIBUTES, Leaf, LinearModel, Split, TreeModel,
                             TreeParams, _best_split, _grow, _predict_dataset,
                             _predict_encoded, _split_indices, count_leaves, deserialize,
                             design_columns, encode_matrix, encode_value, evaluate, predict,
                             sd_reduction, serialize, to_text,
                             train_model_tree, train_rep_tree, tree_depth)

ATTRS = SH_ATTRIBUTES


# ---------------------------------------------------------------------------
# reference: the per-row walk, node by node, that the columnar walk replaced

def encode_row(fv, attributes):
    return np.array([encode_value(attr, fv) for attr in attributes])


def reference_path(model, x):
    """The nodes that one encoded row passes, from the root to its leaf."""
    path = [model.root]
    while isinstance(node := path[-1], Split):
        v = x[node.attr_index]
        if node.kind == "numeric":
            path.append(node.left if v <= node.threshold else node.right)
        elif v in node.subset:
            path.append(node.left)
        elif v in node.seen:
            path.append(node.right)
        else:   # unseen category: the child that held more training rows
            path.append(node.left if node.left.n >= node.right.n else node.right)
    return path


def reference_walk(model, x):
    """Route one encoded row to a leaf, blend along the path, clamp at 0."""
    *path, node = reference_path(model, x)
    if model.kind != "model_tree":
        return max(0.0, node.value)
    d = []
    for j, attr in enumerate(model.attributes):
        if attr == "season":
            d.extend(1.0 if x[j] == code else 0.0 for code in range(len(SEASONS)))
        else:
            d.append(float(x[j]))

    def linear(lm):
        total = lm.intercept
        for c, v in zip(lm.coef, d):
            total += c * v
        return total

    raw = linear(node.model) if node.model is not None else node.value
    if model.smoothing:
        below = node
        for ancestor in reversed(path):
            if ancestor.model is not None:
                k = model.smoothing_k
                raw = (below.n * raw + k * linear(ancestor.model)) / (below.n + k)
            below = ancestor
    return max(0.0, raw)


def reference_predict(model, fv):
    return reference_walk(model, encode_row(fv, model.attributes))


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def random_rows(rng, n):
    rows = []
    start = dt.date(2009, 1, 5)
    for i in range(n):
        date = start + dt.timedelta(days=int(rng.integers(0, 360)))
        hour = int(rng.integers(1, 25))
        rows.append(feature_vector(date, hour, "hour", float(rng.uniform(0, 3))))
    return rows


def dataset(rows, attributes=ATTRS):
    return Dataset.from_rows("SH", 1, rows, attributes)


def constant_leaf_model(value, attributes=ATTRS, pe=0.0, kind="rep_tree"):
    return TreeModel(kind=kind, root=Leaf(value, 1), attributes=tuple(attributes),
                     trained_rmse=pe)


# ---------------------------------------------------------------------------
# sd reduction

def test_sd_reduction_perfect_binary_split():
    assert sd_reduction([0, 0, 10, 10], [[0, 0], [10, 10]]) == pytest.approx(5.0, abs=1e-12)


def test_sd_reduction_constant_multiset_is_zero():
    assert sd_reduction([3, 3, 3, 3], [[3, 3], [3, 3]]) == pytest.approx(0.0, abs=1e-15)


def test_sd_reduction_two_points():
    assert sd_reduction([0, 10], [[0], [10]]) == pytest.approx(5.0, abs=1e-12)


def test_sd_reduction_rejects_non_partition():
    with pytest.raises(ContractViolation):
        sd_reduction([1, 2, 3], [[1], [2]])
    with pytest.raises(ContractViolation):
        sd_reduction([1, 2], [[1], [3]])


def test_sd_reduction_matches_statistics_module():
    rng = np.random.default_rng(0)
    for _ in range(25):
        parent = list(rng.uniform(0, 5, 12))
        left, right = parent[:5], parent[5:]
        expected = statistics.pstdev(parent) - (5 / 12) * statistics.pstdev(left) \
            - (7 / 12) * statistics.pstdev(right)
        assert sd_reduction(parent, [left, right]) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# split optimality against brute force

def brute_force_best_gain(rows, attributes, min_instances):
    """Enumerate every (attribute, threshold/subset) pair with pure python."""
    y = [r.consumption for r in rows]
    n = len(y)
    sd_parent = statistics.pstdev(y)

    def gain_for(mask):
        left = [yv for m, yv in zip(mask, y) if m]
        right = [yv for m, yv in zip(mask, y) if not m]
        if len(left) < min_instances or len(right) < min_instances:
            return None
        return sd_parent - (len(left) / n) * statistics.pstdev(left) \
            - (len(right) / n) * statistics.pstdev(right)

    best = 0.0
    for attr in attributes:
        values = [encode_value(attr, r) for r in rows]
        distinct = sorted(set(values))
        if attr == "season":
            for size in range(1, len(distinct)):
                for combo in itertools.combinations(distinct, size):
                    g = gain_for([v in combo for v in values])
                    if g is not None:
                        best = max(best, g)
        else:
            for a, b in zip(distinct, distinct[1:]):
                threshold = (a + b) / 2
                g = gain_for([v <= threshold for v in values])
                if g is not None:
                    best = max(best, g)
    return best


def realized_root_gain(root, rows, attributes):
    if isinstance(root, Leaf):
        return 0.0
    X = encode_matrix(dataset(rows, attributes))
    y = [r.consumption for r in rows]
    v = X[:, root.attr_index]
    if root.kind == "numeric":
        mask = v <= root.threshold
    else:
        mask = np.isin(v, list(root.subset))
    left = [yv for m, yv in zip(mask, y) if m]
    right = [yv for m, yv in zip(mask, y) if not m]
    return statistics.pstdev(y) - (len(left) / len(y)) * statistics.pstdev(left) \
        - (len(right) / len(y)) * statistics.pstdev(right)


def test_root_split_matches_brute_force_sample():
    rng = np.random.default_rng(101)
    min_instances = 5
    for _ in range(20):
        rows = random_rows(rng, int(rng.integers(20, 120)))
        ds = dataset(rows)
        X = encode_matrix(ds)
        y = ds.kwh
        root = _grow(X, y, np.arange(len(rows)), ATTRS, min_instances, 0.0)
        oracle = brute_force_best_gain(rows, ATTRS, min_instances)
        if isinstance(root, Leaf):
            assert oracle <= 1e-9
        else:
            assert realized_root_gain(root, rows, ATTRS) == pytest.approx(oracle, abs=1e-9)


def test_tie_break_prefers_first_attribute_and_lowest_threshold():
    # two identical-gain candidates: interval <= 1.5 and day_type; interval wins
    rows = []
    for i, (hour, day) in enumerate([(1, dt.date(2009, 1, 5)), (1, dt.date(2009, 1, 6)),
                                     (2, dt.date(2009, 1, 10)), (2, dt.date(2009, 1, 11))]):
        rows.append(feature_vector(day, hour, "hour", 0.0 if hour == 1 else 10.0))
    ds = dataset(rows)
    X = encode_matrix(ds)
    y = ds.kwh
    cand = _best_split(X, y, np.arange(4), ATTRS, 1)
    assert ATTRS[cand.attr_index] == "interval"
    assert cand.threshold == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# rep tree

def test_rep_tree_constant_target_is_single_leaf():
    rows = random_rows(np.random.default_rng(2), 40)
    rows = [dataclasses.replace(r, consumption=0.7) for r in rows]
    model = train_rep_tree(dataset(rows), TreeParams(min_instances=2, seed=1))
    assert isinstance(model.root, Leaf)
    assert predict(model, rows[0]) == pytest.approx(0.7)


def test_rep_tree_perfect_binary_attribute():
    # 4 rows, day_type perfectly separates targets; enumerate splits by hand:
    # only the day_type split (or an equivalent) achieves full reduction
    rows = [
        feature_vector(dt.date(2009, 1, 5), 10, "hour", 1.0),   # weekday
        feature_vector(dt.date(2009, 1, 6), 10, "hour", 1.0),   # weekday
        feature_vector(dt.date(2009, 1, 10), 10, "hour", 3.0),  # weekend
        feature_vector(dt.date(2009, 1, 11), 10, "hour", 3.0),  # weekend
    ]
    model = train_rep_tree(dataset(rows), TreeParams(min_instances=1, prune_fraction=0.01, seed=0))
    assert tree_depth(model.root) == 1
    assert model.root.attribute == "day_type"
    assert predict(model, rows[0]) == pytest.approx(1.0)
    assert predict(model, rows[2]) == pytest.approx(3.0)


def test_rep_tree_leaf_means_are_exact():
    # prune_fraction small enough that the holdout is empty: the grow set is
    # the whole training set, so every leaf must predict the mean of the
    # training targets routed to it
    rows = random_rows(np.random.default_rng(7), 40)
    model = train_rep_tree(dataset(rows), TreeParams(min_instances=3, prune_fraction=0.01, seed=3))
    assert model.training_meta["holdout_rows"] == 0

    leaf_targets: dict[int, tuple[float, list[float]]] = {}
    for fv in rows:
        node = reference_path(model, encode_row(fv, model.attributes))[-1]
        leaf_targets.setdefault(id(node), (node.value, []))[1].append(fv.consumption)
    assert len(leaf_targets) == count_leaves(model.root)
    for value, targets in leaf_targets.values():
        assert value == pytest.approx(statistics.fmean(targets), abs=1e-12)


def test_rep_tree_prune_trace_never_increases():
    rng = np.random.default_rng(13)
    for seed in range(10):
        rows = random_rows(rng, 150)
        model = train_rep_tree(dataset(rows), TreeParams(min_instances=3, seed=seed))
        trace = model.training_meta["prune_trace"]
        assert trace, "pruning pass should record the holdout RMSE"
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_rep_tree_deterministic():
    rows = random_rows(np.random.default_rng(5), 120)
    a = train_rep_tree(dataset(rows), TreeParams(seed=9))
    b = train_rep_tree(dataset(rows), TreeParams(seed=9))
    for fv in rows:
        assert predict(a, fv) == predict(b, fv)
    assert serialize(a) == serialize(b)  # payloads carry no wall-clock state


def test_rep_tree_empty_training_set():
    with pytest.raises(TrainingError):
        train_rep_tree(dataset([]))


# ---------------------------------------------------------------------------
# model tree

def _linear_rows(slope=0.02, intercept=0.1, days=28):
    rows = []
    start = dt.date(2009, 1, 5)
    for d in range(days):
        for hour in range(1, 25):
            rows.append(feature_vector(start + dt.timedelta(days=d), hour, "hour",
                                       intercept + slope * hour))
    return rows


def test_model_tree_recovers_exact_linear_target():
    rows = _linear_rows()
    model = train_model_tree(dataset(rows), TreeParams(seed=0))
    assert isinstance(model.root, Leaf)
    scores = evaluate(model, dataset(rows))
    assert scores["rmse"] <= 1e-9


def test_model_tree_constant_target():
    rows = [dataclasses.replace(r, consumption=1.5) for r in _linear_rows()]
    model = train_model_tree(dataset(rows), TreeParams(seed=0))
    assert isinstance(model.root, Leaf)
    assert predict(model, rows[0]) == pytest.approx(1.5, abs=1e-9)


def test_model_tree_piecewise_linear_breakpoint_on_day_type():
    # different slope and intercept per day type: not realizable by one
    # additive linear model, so the root split must survive pruning
    rows = []
    start = dt.date(2009, 1, 5)
    for d in range(56):
        date = start + dt.timedelta(days=d)
        weekend = date.weekday() >= 5
        for hour in range(1, 25):
            target = (3.0 + 0.15 * hour) if weekend else (1.0 + 0.02 * hour)
            rows.append(feature_vector(date, hour, "hour", target))
    model = train_model_tree(dataset(rows), TreeParams(seed=1, smoothing=False))
    assert tree_depth(model.root) == 1
    assert model.root.attribute == "day_type"

    # oracle: closed-form least squares per side
    for weekend in (False, True):
        side = [r for r in rows if (r.day_type == "weekend") == weekend]
        A = np.array([[1.0, r.interval] for r in side])
        b = np.array([r.consumption for r in side])
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        for fv in side[:48]:
            expected = coef[0] + coef[1] * fv.interval
            assert predict(model, fv) == pytest.approx(expected, abs=1e-8)


def test_model_tree_leaf_arithmetic():
    # leaf 0.1 + 0.02*hour evaluated at hour 10 must be 0.30
    from gridwatch.trees import design_columns
    coef = [0.0] * len(design_columns(ATTRS))
    coef[0] = 0.02  # interval column
    leaf = Leaf(0.0, 1, model=LinearModel(0.1, tuple(coef)))
    model = TreeModel("model_tree", leaf, tuple(ATTRS))
    fv = feature_vector(dt.date(2009, 1, 5), 10, "hour", 0.0)
    assert predict(model, fv) == pytest.approx(0.30)


def test_predict_clamps_negative_leaf():
    model = constant_leaf_model(-0.05)
    fv = feature_vector(dt.date(2009, 1, 5), 1, "hour", 0.0)
    assert predict(model, fv) == 0.0


def test_predict_single_leaf_constant():
    model = constant_leaf_model(0.42)
    for hour in (1, 12, 24):
        fv = feature_vector(dt.date(2009, 3, 3), hour, "hour", 0.0)
        assert predict(model, fv) == pytest.approx(0.42)


def test_model_tree_tiny_leaves_fall_back_to_means():
    # min_instances 2 grows leaves smaller than the design dimension, so the
    # underdetermined fits must fall back to leaf means and be counted
    rows = random_rows(np.random.default_rng(17), 60)
    model = train_model_tree(dataset(rows), TreeParams(min_instances=2, seed=1))
    assert model.training_meta["linear_fallbacks"] > 0
    for fv in rows[:10]:
        assert predict(model, fv) >= 0.0


def test_model_tree_smoothing_changes_only_split_trees():
    rows = _linear_rows()
    smooth = train_model_tree(dataset(rows), TreeParams(seed=0, smoothing=True))
    plain = train_model_tree(dataset(rows), TreeParams(seed=0, smoothing=False))
    # single-leaf trees: smoothing has no ancestors to blend with
    assert isinstance(smooth.root, Leaf)
    for fv in rows[:24]:
        assert predict(smooth, fv) == predict(plain, fv)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_perfect_predictions():
    rows = [dataclasses.replace(r, consumption=2.0) for r in _linear_rows(days=2)]
    model = constant_leaf_model(2.0)
    assert evaluate(model, dataset(rows)) == {"mae": 0.0, "rmse": 0.0}


def test_evaluate_unit_residuals():
    model = constant_leaf_model(2.0)
    rows = [dataclasses.replace(r, consumption=c)
            for r, c in zip(_linear_rows(days=1), [1.0, 3.0, 1.0, 3.0])]
    scores = evaluate(model, dataset(rows[:4]))
    assert scores["mae"] == pytest.approx(1.0)
    assert scores["rmse"] == pytest.approx(1.0)


def test_evaluate_rmse_weights_large_errors():
    model = constant_leaf_model(2.0)
    rows = [dataclasses.replace(r, consumption=c)
            for r, c in zip(_linear_rows(days=1), [2.0, 2.0, 2.0, 4.0])]
    scores = evaluate(model, dataset(rows[:4]))
    assert scores["mae"] == pytest.approx(0.5)
    assert scores["rmse"] == pytest.approx(1.0)
    assert scores["rmse"] >= scores["mae"]


def test_rmse_at_least_mae_on_random_models():
    rng = np.random.default_rng(23)
    for seed in range(5):
        rows = random_rows(rng, 80)
        model = train_rep_tree(dataset(rows[:60]), TreeParams(seed=seed))
        scores = evaluate(model, dataset(rows[60:]))
        assert scores["rmse"] >= scores["mae"] - 1e-12


# ---------------------------------------------------------------------------
# serialization

def test_serialize_round_trip_predictions_bit_exact():
    rng = np.random.default_rng(31)
    rows = random_rows(rng, 200)
    for trainer in (train_rep_tree, train_model_tree):
        model = trainer(dataset(rows[:150]), TreeParams(seed=4), valid=dataset(rows[150:]))
        back = deserialize(serialize(model))
        probe = random_rows(rng, 1000)
        for fv in probe:
            assert predict(model, fv) == predict(back, fv)
        assert back.trained_rmse == model.trained_rmse


def test_serialize_single_leaf_under_one_kb():
    model = constant_leaf_model(0.5)
    assert len(serialize(model)) < 1024


def test_deserialize_rejects_truncated_payload():
    payload = serialize(constant_leaf_model(0.5))
    with pytest.raises(ModelDecodeError):
        deserialize(payload[: len(payload) // 2])
    with pytest.raises(ModelDecodeError):
        deserialize(b"NOPE" + payload[4:])


def test_to_text_renders_tree():
    rows = random_rows(np.random.default_rng(3), 60)
    model = train_rep_tree(dataset(rows), TreeParams(seed=2))
    text = to_text(model)
    assert "rep_tree" in text and "leaf" in text


def unseen_season_model():
    """Trained on winter/spring only: season codes 2 and 3 were never seen."""
    root = Split(
        attribute="season", attr_index=3, kind="subset",
        subset=frozenset({0.0}), seen=frozenset({0.0, 1.0}),
        left=Leaf(1.0, 30), right=Leaf(2.0, 10), n=40, value=1.25,
    )
    return TreeModel("rep_tree", root, tuple(ATTRS))


def test_unseen_season_routes_to_majority_child():
    # predicting an autumn vector must follow the child that saw more
    # training rows
    model = unseen_season_model()
    autumn = feature_vector(dt.date(2009, 10, 5), 3, "hour", 0.0)
    assert predict(model, autumn) == 1.0  # left child holds the majority
    winter = feature_vector(dt.date(2009, 1, 5), 3, "hour", 0.0)
    spring = feature_vector(dt.date(2009, 4, 6), 3, "hour", 0.0)
    assert predict(model, winter) == 1.0
    assert predict(model, spring) == 2.0


# ---------------------------------------------------------------------------
# prediction cache

def _patterned_rows(kind, n, seed):
    """Rows whose consumption depends on every calendar attribute, so trained
    trees split on several of them."""
    rng = np.random.default_rng(seed)
    top = 24 if kind == "hour" else 48
    rows = []
    for _ in range(n):
        date = dt.date(2009, 1, 5) + dt.timedelta(days=int(rng.integers(0, 360)))
        interval = int(rng.integers(1, top + 1))
        fv = feature_vector(date, interval, kind, 0.0)
        value = (0.3 + 0.05 * interval * (2.0 if fv.day_type == "weekend" else 1.0)
                 + 0.1 * (fv.month % 4) + (0.4 if fv.day_period == "day" else 0.0)
                 + float(rng.normal(0, 0.05)))
        rows.append(dataclasses.replace(fv, consumption=value))
    return rows


CACHE_MODELS = ["rep_hour", "model_hour", "model_hour_smoothed",
                "rep_slot", "model_slot", "model_slot_smoothed", "unseen_season"]


@pytest.fixture(scope="module")
def cache_models():
    """name -> (model, interval kind): trained rep and model trees over hours
    and slots, with and without smoothing, plus the unseen-season tree."""
    models = {"unseen_season": (unseen_season_model(), "hour")}
    for kind, level, attrs in (("hour", "SH", ATTRS), ("slot", "NBH", NBH_ATTRIBUTES)):
        rows = _patterned_rows(kind, 900, seed=len(attrs))
        meter = 1 if level == "SH" else None
        train = Dataset.from_rows(level, meter, rows[:700], attrs)
        valid = Dataset.from_rows(level, meter, rows[700:], attrs)
        models[f"rep_{kind}"] = (train_rep_tree(train, TreeParams(seed=3), valid=valid), kind)
        for suffix, smoothing in (("", False), ("_smoothed", True)):
            model = train_model_tree(train, TreeParams(seed=3, smoothing=smoothing), valid=valid)
            models[f"model_{kind}{suffix}"] = (model, kind)
    assert sorted(models) == sorted(CACHE_MODELS)
    return models


def _every_calendar_key(kind):
    """One vector per (interval, day period, day type, month, season),
    inconsistent combinations included."""
    top = 24 if kind == "hour" else 48
    date = dt.date(2009, 1, 5)
    return [FeatureVector(date, interval, period, day_type, month, season, 0.0)
            for interval in range(1, top + 1) for period in ("day", "night")
            for day_type in ("weekday", "weekend") for month in range(1, 13)
            for season in SEASONS]


def test_cache_models_split_and_smooth(cache_models):
    for name, (model, kind) in cache_models.items():
        assert isinstance(model.root, Split), name
        if model.smoothing:
            plain = dataclasses.replace(model, smoothing=False)
            assert any(reference_predict(model, fv) != reference_predict(plain, fv)
                       for fv in _every_calendar_key(kind))


@pytest.mark.parametrize("name", CACHE_MODELS)
def test_cached_predict_equals_uncached_walk(cache_models, name):
    model, kind = cache_models[name]
    vectors = _every_calendar_key(kind)
    blob = serialize(model)
    for fv in vectors:
        assert bits(predict(model, fv)) == bits(reference_predict(model, fv))
    assert len(model._predictions) == len(vectors)
    for fv in reversed(vectors):
        assert bits(predict(model, dataclasses.replace(fv, consumption=9.0))) \
            == bits(reference_predict(model, fv))
    assert len(model._predictions) == len(vectors)
    assert serialize(model) == blob

    back = deserialize(blob)
    assert back._predictions == {}
    pickled = pickle.loads(pickle.dumps(model))
    for fv in vectors:
        expected = bits(reference_predict(model, fv))
        assert bits(predict(back, fv)) == expected
        assert bits(predict(pickled, fv)) == expected


@pytest.mark.parametrize("name", CACHE_MODELS)
def test_predict_dataset_equals_reference_on_every_row(cache_models, name):
    # a replay stream carries no attributes: rows are encoded by the model's;
    # the batch walk neither reads nor fills the per-vector memo
    model, kind = cache_models[name]
    model = deserialize(serialize(model))
    level = "SH" if kind == "hour" else "NBH"
    rows = _patterned_rows(kind, 400, seed=11)
    stream = Dataset.from_rows(level, 1 if level == "SH" else None, rows, ())
    got = _predict_dataset(model, stream)
    assert [bits(v) for v in got] == [bits(reference_predict(model, fv)) for fv in rows]
    assert model._predictions == {}


def test_split_indices_sends_unseen_codes_to_the_majority_child():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [0.0]])
    split = Split("season", 0, "subset", subset=frozenset({0.0}), seen=frozenset({0.0, 1.0}),
                  left=Leaf(1.0, 30), right=Leaf(2.0, 10))
    left, right = _split_indices(split, X, np.arange(5))
    assert (left.tolist(), right.tolist()) == ([0, 2, 3, 4], [1])
    split.left, split.right = Leaf(1.0, 10), Leaf(2.0, 30)
    left, right = _split_indices(split, X, np.arange(5))
    assert (left.tolist(), right.tolist()) == ([0, 4], [1, 2, 3])
    split.left = Leaf(1.0, 30)       # a tie goes left
    left, right = _split_indices(split, X, np.array([3, 1]))
    assert (left.tolist(), right.tolist()) == ([3], [1])


# ---------------------------------------------------------------------------
# the columnar walk against the reference, on random trees

# negative raw values, -0.0 and NaN on purpose: each must clamp as max(0.0, raw)
VALUES = st.floats(-3.0, 3.0) | st.sampled_from([-0.0, float("nan")])
TOPS = {"interval": 48, "day_period": 1, "day_type": 1, "month": 12, "season": 3}


@st.composite
def random_models(draw):
    """Random trees over one attribute set: numeric and subset splits whose
    seen codes leave some season codes unseen, mean or linear leaves,
    interior models for smoothing, and row counts that tie."""
    attributes = draw(st.sampled_from([SH_ATTRIBUTES, NBH_ATTRIBUTES]))
    kind = draw(st.sampled_from(["rep_tree", "model_tree"]))
    width = len(design_columns(attributes))
    models = st.builds(LinearModel, VALUES, st.tuples(*[VALUES] * width))

    def linear():
        return draw(st.none() | models) if kind == "model_tree" else None

    def node(depth):
        n = draw(st.integers(1, 6))
        if depth == 0 or draw(st.booleans()):
            return Leaf(draw(VALUES), n, model=linear())
        j = draw(st.integers(0, len(attributes) - 1))
        attr = attributes[j]
        if attr in CATEGORICAL_ATTRIBUTES:
            seen = sorted(draw(st.sets(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=2)))
            subset = draw(st.sets(st.sampled_from(seen), min_size=1, max_size=len(seen) - 1))
            split = Split(attr, j, "subset", subset=frozenset(subset), seen=frozenset(seen))
        else:
            threshold = draw(st.integers(-1, 2 * TOPS[attr] + 1)) / 2
            split = Split(attr, j, "numeric", threshold=threshold)
        split.left, split.right = node(depth - 1), node(depth - 1)
        split.n, split.value, split.model = n, draw(VALUES), linear()
        return split

    return TreeModel(kind, node(draw(st.integers(0, 5))), tuple(attributes),
                     smoothing=draw(st.booleans()),
                     smoothing_k=draw(st.sampled_from([15.0, 0.5, 3.0])))


@settings(max_examples=300, deadline=None)
@given(random_models(), st.data())
def test_columnar_walk_equals_reference_bit_for_bit(model, data):
    row = st.tuples(*[st.integers(0 if attr != "interval" else 1, TOPS[attr])
                      for attr in model.attributes])
    X = np.array(data.draw(st.lists(row, min_size=1, max_size=30)), dtype=float)
    got = _predict_encoded(model, X)
    assert [bits(v) for v in got] == [bits(reference_walk(model, x)) for x in X]


def test_prediction_cache_is_per_model():
    a, b = constant_leaf_model(1.0), constant_leaf_model(2.0)
    fv = feature_vector(dt.date(2009, 1, 5), 3, "hour", 0.0)
    assert (predict(a, fv), predict(b, fv)) == (1.0, 2.0)
    assert a == constant_leaf_model(1.0)      # the cache takes no part in equality
    assert "_predictions" not in repr(a)
    assert dataclasses.replace(a)._predictions == {}
