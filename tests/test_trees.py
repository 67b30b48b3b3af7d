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
from gridwatch.ingest import (DAY_PERIODS, DAY_TYPES, NBH_ATTRIBUTES, SEASONS, SH_ATTRIBUTES,
                              Dataset, FeatureVector, day_code_of, feature_vector,
                              season_of_month)
from gridwatch.trees import (CATEGORICAL_ATTRIBUTES, Leaf, LinearModel, Split, TreeModel,
                             TreeParams, _grow, _key_table, _predict_dataset,
                             _predict_encoded, _rep_prune, _sd, _split_indices,
                             _subtree_sse, count_leaves, deserialize, design_columns,
                             design_matrix, encode_matrix, evaluate, predict,
                             sd_reduction, serialize, to_text, train_model_tree,
                             train_rep_tree, tree_depth)

ATTRS = SH_ATTRIBUTES


# ---------------------------------------------------------------------------
# reference: the per-row walk, node by node, that the columnar walk replaced

def encode_value(attr, fv):
    """The code of one attribute of a vector: the interval and month as
    numbers, a category as its index in DAY_PERIODS, DAY_TYPES or SEASONS."""
    if attr in ("interval", "month"):
        return float(getattr(fv, attr))
    categories = {"day_period": DAY_PERIODS, "day_type": DAY_TYPES, "season": SEASONS}
    if attr in categories:
        return float(categories[attr].index(getattr(fv, attr)))
    raise ValueError(f"unknown attribute {attr!r}")


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


# ---------------------------------------------------------------------------
# reference: the recursive row grower and M5 fits that key-table training
# replaced, with the two changes it made to split search: a side's SD is
# two-pass (numpy's std), and gains within 1e-9 of the node's SD tie, the
# first candidate declared winning (the one-pass row sums broke such ties,
# as between candidates that part the rows alike, by rounding)

def _numeric_candidates(v, y, sd_parent, min_instances):
    """Gains and thresholds, in increasing threshold order, for one attribute."""
    distinct, n = np.unique(v), v.size
    found = []
    for threshold in (distinct[:-1] + distinct[1:]) / 2.0:
        mask = v <= threshold
        nl = int(mask.sum())
        if min(nl, n - nl) >= min_instances:
            found.append((sd_parent - (nl / n) * y[mask].std() - ((n - nl) / n) * y[~mask].std(),
                          threshold))
    return np.array(found).reshape(-1, 2).T


def _subset_candidates(values):
    """Proper bipartitions of the observed category codes, deduplicated by
    always keeping the lowest code on the left."""
    distinct = sorted(set(values.tolist()))
    if len(distinct) < 2:
        return []
    first, rest = distinct[0], distinct[1:]
    subsets = []
    for mask in range(2 ** len(rest)):
        left = {first} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        if len(left) < len(distinct):
            subsets.append(frozenset(left))
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    return subsets


def _best_split(X, y, idx, attributes, min_instances):
    """The best split of the rows idx, without children, or None."""
    yv = y[idx]
    sd_parent = _sd(yv)
    found = []   # (gain, split) of every admissible candidate, in tie-break order
    for j, attr in enumerate(attributes):
        v = X[idx, j]
        if attr in CATEGORICAL_ATTRIBUTES:
            seen = frozenset(set(v.tolist()))
            n = v.size
            for subset in _subset_candidates(v):
                mask = np.isin(v, list(subset))
                nl = int(mask.sum())
                if nl < min_instances or n - nl < min_instances:
                    continue
                gain = sd_parent - (nl / n) * yv[mask].std() - ((n - nl) / n) * yv[~mask].std()
                found.append((gain, Split(attr, j, "subset", subset=subset, seen=seen)))
        else:
            gains, thresholds = _numeric_candidates(v, yv, sd_parent, min_instances)
            found += [(float(g), Split(attr, j, "numeric", threshold=float(t)))
                      for g, t in zip(gains, thresholds)]
    best_gain = max((gain for gain, _ in found), default=0.0)
    if best_gain <= 1e-12:
        return None
    return next(split for gain, split in found
                if gain >= max(best_gain - 1e-9 * sd_parent, 1e-12))


def _row_grow(X, y, idx, attributes, min_instances, sd_floor):
    n = idx.size
    yv = y[idx]
    mean = float(yv.mean())
    if n < 2 * min_instances or yv.min() == yv.max() or _sd(yv) <= sd_floor:
        return Leaf(mean, n)
    split = _best_split(X, y, idx, attributes, min_instances)
    if split is None:
        return Leaf(mean, n)
    left_idx, right_idx = _split_indices(split, X, idx)
    split.left = _row_grow(X, y, left_idx, attributes, min_instances, sd_floor)
    split.right = _row_grow(X, y, right_idx, attributes, min_instances, sd_floor)
    split.n, split.value = n, mean
    return split


def _fit_linear(D, y, idx):
    """Least-squares fit on the rows idx; falls back to the mean when the
    system is too small. Returns (model, rmse, n_params, fell_back)."""
    yv = y[idx]
    n = idx.size
    p_full = D.shape[1] + 1
    if yv.min() == yv.max():
        return LinearModel(float(yv[0]), (0.0,) * D.shape[1]), 0.0, 1, False
    if n > p_full:
        A = np.hstack([np.ones((n, 1)), D[idx]])
        coef, _, _, _ = np.linalg.lstsq(A, yv, rcond=None)
        rmse = float(np.sqrt(((yv - A @ coef) ** 2).mean()))
        return LinearModel(float(coef[0]), tuple(float(c) for c in coef[1:])), rmse, p_full, False
    mean = float(yv.mean())
    return (LinearModel(mean, (0.0,) * D.shape[1]), float(np.sqrt(((yv - mean) ** 2).mean())),
            1, True)


def _inflated(rmse, n, p):
    return rmse * (n + p) / (n - p) if n > p else float("inf")


def _m5_prune(node, X, D, y, idx, stats):
    """Fit linear models bottom-up and prune by inflated error estimates."""
    model, rmse, p, fell_back = _fit_linear(D, y, idx)
    stats["linear_fallbacks"] += fell_back
    est_here = _inflated(rmse, idx.size, p)
    if isinstance(node, Leaf):
        node.model = model
        return node, est_here
    l_idx, r_idx = _split_indices(node, X, idx)
    node.left, est_l = _m5_prune(node.left, X, D, y, l_idx, stats)
    node.right, est_r = _m5_prune(node.right, X, D, y, r_idx, stats)
    est_subtree = (l_idx.size / idx.size) * est_l + (r_idx.size / idx.size) * est_r
    if est_here <= est_subtree * (1.0 + 1e-9) + 1e-12:
        stats["pruned_nodes"] += 1
        return Leaf(node.value, node.n, model=model), est_here
    node.model = model
    return node, est_subtree


def reference_tree(kind, train, params):
    """The root and training stats of the tree the row learner grows."""
    X, y = encode_matrix(train), train.kwh
    if kind == "model_tree":
        idx = np.arange(len(train))
        root = _row_grow(X, y, idx, train.attributes, params.min_instances, 0.05 * _sd(y))
        stats = {"linear_fallbacks": 0, "pruned_nodes": 0}
        root, _ = _m5_prune(root, X, design_matrix(X, train.attributes), y, idx, stats)
        return root, stats
    perm = np.random.default_rng(np.random.SeedSequence((params.seed, 0x9E9))).permutation(len(y))
    n_hold = int(round(params.prune_fraction * len(y)))
    hold, grow = np.sort(perm[:n_hold]), np.sort(perm[n_hold:])
    if grow.size == 0:
        grow, hold = hold, grow
    root = _row_grow(X, y, grow, train.attributes, params.min_instances, 0.0)
    if hold.size:
        root, _ = _rep_prune(root, X, y, hold, [_subtree_sse(root, X, y, hold)])
    return root, {}


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
        root = _grow(_key_table(dataset(rows)), ATTRS, min_instances, 0.0)[0][0]
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
    root = _grow(_key_table(dataset(rows)), ATTRS, 1, 0.0)[0][0]
    assert ATTRS[root.attr_index] == "interval"
    assert root.threshold == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# rep tree

def test_rep_tree_constant_target_is_single_leaf():
    rows = random_rows(np.random.default_rng(2), 40)
    rows = [r._replace(consumption=0.7) for r in rows]
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
    rows = [r._replace(consumption=1.5) for r in _linear_rows()]
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
    rows = [r._replace(consumption=2.0) for r in _linear_rows(days=2)]
    model = constant_leaf_model(2.0)
    assert evaluate(model, dataset(rows)) == {"mae": 0.0, "rmse": 0.0}


def test_evaluate_unit_residuals():
    model = constant_leaf_model(2.0)
    rows = [r._replace(consumption=c)
            for r, c in zip(_linear_rows(days=1), [1.0, 3.0, 1.0, 3.0])]
    scores = evaluate(model, dataset(rows[:4]))
    assert scores["mae"] == pytest.approx(1.0)
    assert scores["rmse"] == pytest.approx(1.0)


def test_evaluate_rmse_weights_large_errors():
    model = constant_leaf_model(2.0)
    rows = [r._replace(consumption=c)
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
        rows.append(fv._replace(consumption=value))
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
    """One vector per calendar key: every interval, day type and month, as
    ``feature_vector`` builds it (a vector whose season disagrees with its
    month is outside ``predict``'s domain)."""
    top = 24 if kind == "hour" else 48
    week = [dt.date(2009, month, 1) + dt.timedelta(days=d)
            for month in range(1, 13) for d in range(7)]
    dates = {(date.month, date.weekday() >= 5): date for date in week}
    assert len(dates) == 24
    return [feature_vector(date, interval, kind, 0.0)
            for date in dates.values() for interval in range(1, top + 1)]


def test_cache_models_split_and_smooth(cache_models):
    for name, (model, kind) in cache_models.items():
        assert isinstance(model.root, Split), name
        if model.smoothing:
            plain = dataclasses.replace(model, smoothing=False)
            assert any(reference_predict(model, fv) != reference_predict(plain, fv)
                       for fv in _every_calendar_key(kind))


def test_feature_vector_is_a_frozen_tuple_whose_calendar_is_the_table_key():
    fv = feature_vector(dt.date(2009, 3, 7), 14, "hour", 1.25)
    assert FeatureVector._fields == ("date", "interval", "day_period", "day_type", "month",
                                     "season", "consumption")
    assert fv == (dt.date(2009, 3, 7), 14, "day", "weekend", 3, "spring", 1.25)
    for field in FeatureVector._fields:
        with pytest.raises(AttributeError):
            setattr(fv, field, None)
    with pytest.raises(TypeError):
        fv[6] = 2.0
    assert hash(fv) == hash(tuple(fv)) == hash(fv._replace(consumption=1.25))
    assert {fv, fv._replace(consumption=1.25), fv._replace(consumption=2.0)} == \
        {fv, fv._replace(consumption=2.0)}

    # predict reads one table entry per 5-tuple (interval, day_period,
    # day_type, month, season), whatever the date and consumption
    model = constant_leaf_model(0.5, attributes=NBH_ATTRIBUTES)
    model.table = np.arange(float(model.table.size))   # each entry its own index
    vectors = [feature_vector(dt.date(2009, 1, 5) + dt.timedelta(days=d), slot, "slot", 0.0)
               for d in range(0, 360, 9) for slot in (1, 14, 15, 44, 48)]
    entries = {}
    for vector in vectors:
        entry = predict(model, vector)
        assert predict(model, vector._replace(consumption=3.0)) == entry
        entries.setdefault(vector[1:6], set()).add(entry)
    assert all(len(found) == 1 for found in entries.values())
    assert len(set().union(*entries.values())) == len(entries)


@pytest.mark.parametrize("name", CACHE_MODELS)
def test_cached_predict_equals_uncached_walk(cache_models, name):
    model, kind = cache_models[name]
    vectors = _every_calendar_key(kind)
    blob = serialize(model)
    for fv in vectors:
        assert bits(predict(model, fv)) == bits(reference_predict(model, fv))
    table = model.table
    for fv in reversed(vectors):
        assert bits(predict(model, fv._replace(consumption=9.0))) \
            == bits(reference_predict(model, fv))
    assert model.table is table and table.shape == (2352,)   # compiled once
    assert serialize(model) == blob

    back = deserialize(blob)
    assert "table" not in vars(back)
    pickled = pickle.loads(pickle.dumps(model))
    for fv in vectors:
        expected = bits(reference_predict(model, fv))
        assert bits(predict(back, fv)) == expected
        assert bits(predict(pickled, fv)) == expected


@pytest.mark.parametrize("name", CACHE_MODELS)
def test_predict_dataset_equals_reference_on_every_row(cache_models, name):
    # a replay stream carries no attributes; the dataset and per-vector
    # paths read the one table, compiled on first use
    model, kind = cache_models[name]
    model = deserialize(serialize(model))
    level = "SH" if kind == "hour" else "NBH"
    rows = _patterned_rows(kind, 400, seed=11)
    stream = Dataset.from_rows(level, 1 if level == "SH" else None, rows, ())
    assert "table" not in vars(model)
    got = _predict_dataset(model, stream)
    table = vars(model)["table"]
    assert [bits(v) for v in got] == [bits(reference_predict(model, fv)) for fv in rows]
    assert [bits(predict(model, fv)) for fv in rows] == [bits(v) for v in got]
    assert model.table is table


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


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
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
    assert a.table is not b.table
    fresh = constant_leaf_model(1.0)
    assert a == fresh                          # the table takes no part in equality
    assert repr(a) == repr(fresh) and "table" not in repr(a)
    assert serialize(a) == serialize(fresh)    # nor in the payload
    assert "table" not in vars(dataclasses.replace(a))
    assert predict(dataclasses.replace(a, root=Leaf(3.0, 1)), fv) == 3.0   # compiled anew


@pytest.mark.parametrize("name", CACHE_MODELS)
def test_py_table_is_the_table_bit_for_bit_after_replace(cache_models, name):
    """``predict`` reads ``py_table``, a copy derived like ``table``: a
    replaced model compiles both anew."""
    model, kind = cache_models[name]
    vectors = _every_calendar_key(kind)
    predict(model, vectors[0])
    copy = dataclasses.replace(model, root=Leaf(3.0, 1))
    assert "py_table" not in vars(copy)
    for m in (model, copy):
        assert [bits(predict(m, fv)) for fv in vectors] == \
            [bits(reference_predict(m, fv)) for fv in vectors]
        assert type(predict(m, vectors[0])) is float
        assert m.py_table.tobytes() == m.table.tobytes()
    assert set(copy.py_table) == {3.0} and model.py_table != copy.py_table
    assert "py_table" not in repr(model)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(random_models(), st.data())
def test_table_lookup_equals_walk_bit_for_bit(model, data):
    """Random trees, whose splits leave months and seasons unseen, against
    random dates over eleven years at every interval of the model's level."""
    level, top = ("SH", 24) if model.attributes == SH_ATTRIBUTES else ("NBH", 48)
    rows = data.draw(st.lists(st.tuples(st.dates(dt.date(2009, 1, 1), dt.date(2019, 12, 31)),
                                        st.integers(1, top)), min_size=1, max_size=30))
    ds = Dataset(level, 1 if level == "SH" else None,
                 np.array([day_code_of(date) for date, _ in rows], dtype=np.int64),
                 np.array([interval for _, interval in rows], dtype=np.int64),
                 np.zeros(len(rows)), ())
    want = _predict_encoded(model, encode_matrix(ds, model.attributes))
    assert [bits(v) for v in model.table[ds.calendar_key()]] == [bits(v) for v in want]


@pytest.mark.parametrize("year", [2012, 2013])   # a leap year and a common one
def test_predict_reads_the_calendar_key_of_its_vector(year):
    model = constant_leaf_model(0.5)
    model.table = np.arange(float(model.table.size))   # each entry its own index
    first = dt.date(year, 1, 1)
    dates = [first + dt.timedelta(days=d) for d in range((dt.date(year + 1, 1, 1) - first).days)]
    for kind, level, top in (("hour", "SH", 24), ("slot", "NBH", 48)):
        rows = [feature_vector(date, interval, kind, 0.0)
                for date in dates for interval in range(1, top + 1)]
        keys = Dataset.from_rows(level, 1 if level == "SH" else None, rows, ()).calendar_key()
        assert [predict(model, fv) for fv in rows] == keys.tolist()


# ---------------------------------------------------------------------------
# key-table training against the row reference, on random training sets

@st.composite
def training_sets(draw):
    """Few calendar keys with many rows each: targets constant within a key
    (noise 0), on all keys of the first month or everywhere; one season or
    several; and nodes with fewer keys than design columns."""
    level = draw(st.sampled_from(["SH", "NBH"]))
    top, attributes = (24, SH_ATTRIBUTES) if level == "SH" else (48, NBH_ATTRIBUTES)
    months = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    keys = draw(st.lists(st.tuples(st.sampled_from(months), st.booleans(), st.integers(1, top)),
                         min_size=1, max_size=12, unique=True))
    counts = draw(st.lists(st.integers(1, 12), min_size=len(keys), max_size=len(keys)))
    constant = draw(st.sampled_from(["none", "first month", "all"]))
    noise = draw(st.sampled_from([0.0, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for (month, weekend, interval), count in zip(keys, counts):
        first = dt.date(2009, month, 1)
        days = [first + dt.timedelta(days=d) for d in range(28)
                if ((first + dt.timedelta(days=d)).weekday() >= 5) == weekend]
        fixed = constant == "all" or (constant == "first month" and month == months[0])
        base = float(rng.uniform(0.1, 3.0))
        for _ in range(count):
            value = 1.25 if fixed else base + noise * float(rng.random())
            rows.append(feature_vector(days[int(rng.integers(len(days)))], interval,
                                       "hour" if level == "SH" else "slot", value))
    return Dataset.from_rows(level, 1 if level == "SH" else None, rows, attributes)


def assert_same_tree(got, want):
    """Equal structure; node means within the rounding of their sums."""
    assert type(got) is type(want) and got.n == want.n
    # a sum of n non-negative terms is exact to (n - 1) units of roundoff
    # in any order, so two orders differ by at most n * eps after dividing
    assert abs(got.value - want.value) <= got.n * np.finfo(float).eps * abs(want.value)
    if isinstance(got, Split):
        assert (got.attribute, got.attr_index, got.kind, got.threshold, got.subset, got.seen) \
            == (want.attribute, want.attr_index, want.kind, want.threshold, want.subset, want.seen)
        assert_same_tree(got.left, want.left)
        assert_same_tree(got.right, want.right)


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(training_sets(), st.sampled_from(["model_tree", "rep_tree"]), st.integers(1, 6),
       st.integers(0, 3))
def test_key_table_training_equals_row_reference(train, kind, min_instances, seed):
    params = TreeParams(min_instances=min_instances, seed=seed)
    model = (train_model_tree if kind == "model_tree" else train_rep_tree)(train, params)
    root, stats = reference_tree(kind, train, params)
    assert_same_tree(model.root, root)
    assert {key: model.training_meta[key] for key in stats} == stats
    reference = dataclasses.replace(model, root=root)
    assert np.abs(_predict_dataset(model, train)
                  - _predict_dataset(reference, train)).max() <= 1e-9
