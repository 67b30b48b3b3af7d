"""Regression-tree learners for consumption prediction.

Two learners share one induction engine, which greedily picks the split
maximizing the standard-deviation reduction

    SD(S) - sum_i (|D_i| / |D|) * SD(D_i)

over all candidate (attribute, threshold/subset) pairs, with ties broken by
attribute declaration order and then lowest threshold:

* ``rep_tree``: constant (mean) leaves. The tree is grown on a seeded
  internal grow set and reduced-error-pruned bottom-up against the held-out
  remainder: a subtree collapses to a leaf whenever the leaf's holdout
  squared error is no larger than the subtree's, so holdout RMSE never
  increases during pruning.
* ``model_tree``: least-squares linear models at the leaves over
  numerically encoded attributes (binary 0/1, month and hour/slot as
  integers, season one-hot). Pruning compares small-sample-inflated error
  estimates, rmse * (n + p) / (n - p), of a node's own linear model against
  its subtree; optional smoothing blends the leaf prediction with ancestor
  models along the root path at prediction time.

A prediction depends only on a vector's calendar attributes (interval,
day period, day type, month, season), never on its consumption, so each
model memoises its predictions per calendar key. The memo lives on the
model instance: it is bounded by the number of distinct keys (at most
48 x 2 x 2 x 12 x 4), is never serialized, and starts empty after
``deserialize``. It is exact under one rule: a model is not mutated after
its first ``predict``. Nothing in this package mutates a model once
training has returned it. Concurrent ``predict`` calls on one model are
safe: two threads that miss on the same key store the same value.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from typing import Sequence, Union

import numpy as np

from .errors import ContractViolation, ModelDecodeError, TrainingError
from .ingest import Dataset, FeatureVector, SEASONS

log = logging.getLogger(__name__)

MAGIC = b"AMIM"
FORMAT_VERSION = 1

SEASON_CODE = {name: float(i) for i, name in enumerate(SEASONS)}
BINARY_CODE = {"night": 0.0, "day": 1.0, "weekday": 0.0, "weekend": 1.0}
CATEGORICAL_ATTRIBUTES = frozenset({"season"})

_EPS_GAIN = 1e-12
SMOOTHING_K = 15.0   # M5 smoothing constant: weight of the ancestor model's prediction


@dataclasses.dataclass
class TreeParams:
    min_instances: int = 10
    prune_fraction: float = 0.25
    # smoothing measurably hurts accuracy on smooth load profiles (ancestor
    # models are global linear fits); off by default, available when wanted
    smoothing: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        if not 0.0 < self.prune_fraction < 1.0:
            raise ValueError("prune_fraction must lie in (0, 1)")


@dataclasses.dataclass
class LinearModel:
    """intercept + coef . design_row, with coef aligned to design columns."""

    intercept: float
    coef: tuple[float, ...]

    def predict_design(self, d: np.ndarray) -> float:
        total = self.intercept
        for c, v in zip(self.coef, d):
            total += c * v
        return total


@dataclasses.dataclass
class Leaf:
    value: float                     # mean of training targets routed here
    n: int
    model: LinearModel | None = None  # set for model-tree leaves


@dataclasses.dataclass
class Split:
    attribute: str
    attr_index: int
    kind: str                        # "numeric" | "subset"
    threshold: float = 0.0           # numeric: left iff value <= threshold
    subset: frozenset = frozenset()  # subset: left iff encoded value in subset
    seen: frozenset = frozenset()    # category codes observed at induction
    left: "Node" = None              # type: ignore[assignment]
    right: "Node" = None             # type: ignore[assignment]
    n: int = 0
    value: float = 0.0               # node training mean
    model: LinearModel | None = None  # interior model kept for smoothing


Node = Union[Leaf, Split]


@dataclasses.dataclass
class TreeModel:
    kind: str                        # "rep_tree" | "model_tree"
    root: Node
    attributes: tuple[str, ...]
    smoothing: bool = False
    smoothing_k: float = SMOOTHING_K
    trained_rmse: float = 0.0        # the detector threshold margin (PE)
    trained_mae: float = 0.0
    training_meta: dict = dataclasses.field(default_factory=dict)
    # calendar key -> prediction, filled by predict; never serialized
    _predictions: dict = dataclasses.field(default_factory=dict, init=False,
                                           compare=False, repr=False)


# ---------------------------------------------------------------------------
# encoding

def encode_value(attr: str, fv: FeatureVector) -> float:
    if attr == "interval":
        return float(fv.interval)
    if attr == "day_period":
        return BINARY_CODE[fv.day_period]
    if attr == "day_type":
        return BINARY_CODE[fv.day_type]
    if attr == "month":
        return float(fv.month)
    if attr == "season":
        return SEASON_CODE[fv.season]
    raise ValueError(f"unknown attribute {attr!r}")


def encode_matrix(ds: Dataset) -> np.ndarray:
    """One row per dataset row, one column per attribute of ``ds.attributes``;
    entry (i, j) equals ``encode_value`` of attribute j on row i's vector."""
    codes = {"interval": ds.interval, **ds.calendar()}
    out = np.empty((len(ds), len(ds.attributes)))
    for j, attr in enumerate(ds.attributes):
        if attr not in codes:
            raise ValueError(f"unknown attribute {attr!r}")
        out[:, j] = codes[attr]
    return out


def design_columns(attributes: Sequence[str]) -> list[str]:
    """Column names of the linear-leaf design matrix (no intercept column)."""
    cols: list[str] = []
    for attr in attributes:
        if attr == "season":
            cols.extend(f"season_{name}" for name in SEASONS)
        else:
            cols.append(attr)
    return cols


def design_matrix(encoded: np.ndarray, attributes: Sequence[str]) -> np.ndarray:
    """Expand the encoded attribute matrix into the regression design."""
    blocks: list[np.ndarray] = []
    for j, attr in enumerate(attributes):
        col = encoded[:, j]
        if attr == "season":
            onehot = np.zeros((encoded.shape[0], len(SEASONS)))
            for code in range(len(SEASONS)):
                onehot[:, code] = (col == code).astype(float)
            blocks.append(onehot)
        else:
            blocks.append(col.reshape(-1, 1))
    return np.hstack(blocks)


def encode_row(fv: FeatureVector, attributes: Sequence[str]) -> np.ndarray:
    return np.array([encode_value(attr, fv) for attr in attributes])


def design_row(x: np.ndarray, attributes: Sequence[str]) -> np.ndarray:
    parts: list[float] = []
    for j, attr in enumerate(attributes):
        if attr == "season":
            parts.extend(1.0 if x[j] == code else 0.0 for code in range(len(SEASONS)))
        else:
            parts.append(float(x[j]))
    return np.array(parts)


# ---------------------------------------------------------------------------
# split criterion

def _sd(y: np.ndarray) -> float:
    """Population standard deviation, guarded against negative rounding."""
    if y.size == 0:
        return 0.0
    m = y.mean()
    return float(np.sqrt(max((y * y).mean() - m * m, 0.0)))


def sd_reduction(parent: Sequence[float], children: Sequence[Sequence[float]]) -> float:
    """SD(S) - sum (|D_i|/|D|) SD(D_i) for a partition of parent."""
    p = np.asarray(parent, dtype=float)
    if p.size == 0:
        raise ContractViolation("sd_reduction: parent is empty")
    kids = [np.asarray(c, dtype=float) for c in children]
    merged = np.sort(np.concatenate(kids)) if kids else np.array([])
    if merged.size != p.size or not np.array_equal(merged, np.sort(p)):
        raise ContractViolation("sd_reduction: children do not partition parent")
    total = _sd(p)
    for c in kids:
        total -= (c.size / p.size) * _sd(c)
    return total


@dataclasses.dataclass
class _Candidate:
    attr_index: int
    kind: str
    threshold: float = 0.0
    subset: frozenset = frozenset()
    seen: frozenset = frozenset()
    gain: float = 0.0


def _numeric_candidates(v: np.ndarray, y: np.ndarray, sd_parent: float,
                        min_instances: int) -> tuple[np.ndarray, np.ndarray]:
    """Gains and thresholds, in increasing threshold order, for one attribute."""
    order = np.argsort(v, kind="stable")
    vs = v[order]
    ys = y[order]
    n = vs.size
    cut = np.nonzero(vs[:-1] != vs[1:])[0] + 1  # left sizes at value boundaries
    if cut.size:
        cut = cut[(cut >= min_instances) & (n - cut >= min_instances)]
    if not cut.size:
        return np.empty(0), np.empty(0)
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    nl = cut.astype(float)
    nr = n - nl
    mean_l = csum[cut - 1] / nl
    mean_r = (csum[-1] - csum[cut - 1]) / nr
    sd_l = np.sqrt(np.maximum(csq[cut - 1] / nl - mean_l ** 2, 0.0))
    sd_r = np.sqrt(np.maximum((csq[-1] - csq[cut - 1]) / nr - mean_r ** 2, 0.0))
    gains = sd_parent - (nl / n) * sd_l - (nr / n) * sd_r
    thresholds = (vs[cut - 1] + vs[cut]) / 2.0
    return gains, thresholds


def _subset_candidates(values: np.ndarray) -> list[frozenset]:
    """Proper bipartitions of the observed category codes, deduplicated by
    always keeping the lowest code on the left."""
    distinct = sorted(set(values.tolist()))
    if len(distinct) < 2:
        return []
    first, rest = distinct[0], distinct[1:]
    subsets: list[frozenset] = []
    for mask in range(2 ** len(rest)):
        left = {first} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        if len(left) < len(distinct):
            subsets.append(frozenset(left))
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    return subsets


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                attributes: Sequence[str], min_instances: int) -> _Candidate | None:
    yv = y[idx]
    sd_parent = _sd(yv)
    best: _Candidate | None = None
    best_gain = _EPS_GAIN
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
                gain = sd_parent - (nl / n) * _sd(yv[mask]) - ((n - nl) / n) * _sd(yv[~mask])
                if gain > best_gain:
                    best_gain = gain
                    best = _Candidate(j, "subset", subset=subset, seen=seen, gain=gain)
        else:
            gains, thresholds = _numeric_candidates(v, yv, sd_parent, min_instances)
            if gains.size:
                k = int(np.argmax(gains))  # first max: lowest threshold wins ties
                if gains[k] > best_gain:
                    best_gain = float(gains[k])
                    best = _Candidate(j, "numeric", threshold=float(thresholds[k]),
                                      gain=float(gains[k]))
    return best


# ---------------------------------------------------------------------------
# growing

def _split_indices(split: _Candidate | Split, X: np.ndarray,
                   idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partition the rows idx into the left and right sides of a split."""
    v = X[idx, split.attr_index]
    if split.kind == "numeric":
        mask = v <= split.threshold
    else:
        mask = np.isin(v, list(split.subset))
    return idx[mask], idx[~mask]


def _grow(X: np.ndarray, y: np.ndarray, idx: np.ndarray, attributes: Sequence[str],
          min_instances: int, sd_floor: float) -> Node:
    n = idx.size
    yv = y[idx]
    mean = float(yv.mean())
    # min == max is the robust constant-target stop; one-pass SD of a
    # constant array is only zero up to rounding
    if n < 2 * min_instances or yv.min() == yv.max() or _sd(yv) <= sd_floor:
        return Leaf(mean, n)
    cand = _best_split(X, y, idx, attributes, min_instances)
    if cand is None:
        return Leaf(mean, n)
    left_idx, right_idx = _split_indices(cand, X, idx)
    return Split(
        attribute=attributes[cand.attr_index],
        attr_index=cand.attr_index,
        kind=cand.kind,
        threshold=cand.threshold,
        subset=cand.subset,
        seen=cand.seen,
        left=_grow(X, y, left_idx, attributes, min_instances, sd_floor),
        right=_grow(X, y, right_idx, attributes, min_instances, sd_floor),
        n=n,
        value=mean,
    )


def _route(node: Split, x: np.ndarray) -> Node:
    v = x[node.attr_index]
    if node.kind == "numeric":
        return node.left if v <= node.threshold else node.right
    if v in node.subset:
        return node.left
    if v in node.seen:
        return node.right
    # unseen category: follow the majority child
    log.debug("routing unseen %s code %s to majority child", node.attribute, v)
    return node.left if node.left.n >= node.right.n else node.right


def count_leaves(node: Node) -> int:
    if isinstance(node, Leaf):
        return 1
    return count_leaves(node.left) + count_leaves(node.right)


def tree_depth(node: Node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


# ---------------------------------------------------------------------------
# rep tree: reduced-error pruning

def _subtree_sse(node: Node, X: np.ndarray, y: np.ndarray, idx: np.ndarray) -> float:
    if idx.size == 0:
        return 0.0
    if isinstance(node, Leaf):
        return float(((y[idx] - node.value) ** 2).sum())
    l_idx, r_idx = _split_indices(node, X, idx)
    return _subtree_sse(node.left, X, y, l_idx) + _subtree_sse(node.right, X, y, r_idx)


def _rep_prune(node: Node, X: np.ndarray, y: np.ndarray, idx: np.ndarray,
               tracker: "_PruneTracker") -> tuple[Node, float]:
    """Bottom-up reduced-error pruning; returns (pruned node, holdout SSE)."""
    if isinstance(node, Leaf):
        return node, _subtree_sse(node, X, y, idx)
    l_idx, r_idx = _split_indices(node, X, idx)
    node.left, sse_l = _rep_prune(node.left, X, y, l_idx, tracker)
    node.right, sse_r = _rep_prune(node.right, X, y, r_idx, tracker)
    sse_subtree = sse_l + sse_r
    sse_leaf = float(((y[idx] - node.value) ** 2).sum()) if idx.size else 0.0
    if sse_leaf <= sse_subtree:
        tracker.record(sse_leaf - sse_subtree)
        return Leaf(node.value, node.n), sse_leaf
    return node, sse_subtree


class _PruneTracker:
    """Tracks total holdout RMSE after every accepted prune."""

    def __init__(self, total_sse: float, holdout_n: int):
        self.total_sse = total_sse
        self.holdout_n = holdout_n
        self.trace: list[float] = [self._rmse()]

    def _rmse(self) -> float:
        if self.holdout_n == 0:
            return 0.0
        return float(np.sqrt(self.total_sse / self.holdout_n))

    def record(self, delta_sse: float) -> None:
        self.total_sse += delta_sse
        self.trace.append(self._rmse())


def train_rep_tree(train: Dataset, params: TreeParams | None = None,
                   valid: Dataset | None = None) -> TreeModel:
    """Grow and reduced-error-prune a regression tree with mean leaves.

    The internal holdout (``prune_fraction`` of the training rows, seeded)
    is carved out before growing; pruning only ever accepts collapses that
    do not increase holdout RMSE. When ``valid`` is given, the stored
    prediction error is the validation RMSE, otherwise the post-prune
    holdout RMSE.
    """
    params = params or TreeParams()
    params.validate()
    if not len(train):
        raise TrainingError("rep tree: empty training set")
    t0 = time.perf_counter()
    X = encode_matrix(train)
    y = train.kwh
    n = len(train)

    rng = np.random.default_rng(np.random.SeedSequence((params.seed, 0x9E9)))
    perm = rng.permutation(n)
    n_hold = int(round(params.prune_fraction * n))
    hold_idx = np.sort(perm[:n_hold])
    grow_idx = np.sort(perm[n_hold:])
    if grow_idx.size == 0:
        grow_idx, hold_idx = hold_idx, grow_idx

    root = _grow(X, y, grow_idx, train.attributes, params.min_instances, 0.0)

    prune_trace: list[float] = []
    if hold_idx.size:
        tracker = _PruneTracker(_subtree_sse(root, X, y, hold_idx), int(hold_idx.size))
        root, _ = _rep_prune(root, X, y, hold_idx, tracker)
        prune_trace = tracker.trace

    model = TreeModel(
        kind="rep_tree",
        root=root,
        attributes=tuple(train.attributes),
        smoothing=False,
        training_meta={
            "rows": n,
            "grow_rows": int(grow_idx.size),
            "holdout_rows": int(hold_idx.size),
            "split_criterion": "sd_reduction",
            "prune_trace": prune_trace,
            "train_seconds": 0.0,
            "seed": params.seed,
        },
    )
    _stamp_errors(model, train, valid, fallback_rmse=prune_trace[-1] if prune_trace else None)
    model.training_meta["train_seconds"] = time.perf_counter() - t0
    return model


# ---------------------------------------------------------------------------
# model tree

def _fit_linear(D: np.ndarray, y: np.ndarray, idx: np.ndarray) -> tuple[LinearModel, float, int, bool]:
    """Least-squares fit on the rows idx; falls back to the mean when the
    system is too small or fails. Returns (model, rmse, n_params, fell_back)."""
    yv = y[idx]
    n = idx.size
    p_full = D.shape[1] + 1
    if yv.min() == yv.max():
        # constant target: lstsq would only add rounding noise
        return LinearModel(float(yv[0]), (0.0,) * D.shape[1]), 0.0, 1, False
    if n > p_full:
        A = np.hstack([np.ones((n, 1)), D[idx]])
        try:
            coef, _, _, _ = np.linalg.lstsq(A, yv, rcond=None)
        except np.linalg.LinAlgError:
            pass
        else:
            resid = yv - A @ coef
            rmse = float(np.sqrt((resid ** 2).mean()))
            model = LinearModel(float(coef[0]), tuple(float(c) for c in coef[1:]))
            return model, rmse, p_full, False
    mean = float(yv.mean())
    resid = yv - mean
    return LinearModel(mean, (0.0,) * D.shape[1]), float(np.sqrt((resid ** 2).mean())), 1, True


def _inflated(rmse: float, n: int, p: int) -> float:
    if n - p <= 0:
        return float("inf")
    return rmse * (n + p) / (n - p)


def _m5_prune(node: Node, X: np.ndarray, D: np.ndarray, y: np.ndarray,
              idx: np.ndarray, stats: dict) -> tuple[Node, float]:
    """Fit linear models bottom-up and prune by inflated error estimates."""
    model, rmse, p, fell_back = _fit_linear(D, y, idx)
    if fell_back:
        stats["linear_fallbacks"] += 1
    est_here = _inflated(rmse, idx.size, p)
    if isinstance(node, Leaf):
        node.model = model
        return node, est_here
    l_idx, r_idx = _split_indices(node, X, idx)
    node.left, est_l = _m5_prune(node.left, X, D, y, l_idx, stats)
    node.right, est_r = _m5_prune(node.right, X, D, y, r_idx, stats)
    est_subtree = (l_idx.size / idx.size) * est_l + (r_idx.size / idx.size) * est_r
    # the tolerance only matters when both estimates are rounding noise
    # (exact fits), where the collapse must still win
    if est_here <= est_subtree * (1.0 + 1e-9) + 1e-12:
        stats["pruned_nodes"] += 1
        return Leaf(node.value, node.n, model=model), est_here
    node.model = model
    return node, est_subtree


def train_model_tree(train: Dataset, params: TreeParams | None = None,
                     valid: Dataset | None = None) -> TreeModel:
    """Grow an SD-reduction tree and fit linear leaf models, M5 style.

    Growing stops below ``min_instances`` pairs or once a node's target SD
    falls under 5% of the root SD. Pruning replaces a subtree with the
    node's own linear model whenever the inflated model error estimate is
    no worse; singular or underdetermined fits fall back to the node mean
    and are counted in ``training_meta``.
    """
    params = params or TreeParams()
    params.validate()
    if not len(train):
        raise TrainingError("model tree: empty training set")
    t0 = time.perf_counter()
    X = encode_matrix(train)
    D = design_matrix(X, train.attributes)
    y = train.kwh
    idx = np.arange(len(train))

    sd_floor = 0.05 * _sd(y)
    root = _grow(X, y, idx, train.attributes, params.min_instances, sd_floor)
    stats = {"linear_fallbacks": 0, "pruned_nodes": 0}
    root, _ = _m5_prune(root, X, D, y, idx, stats)

    model = TreeModel(
        kind="model_tree",
        root=root,
        attributes=tuple(train.attributes),
        smoothing=params.smoothing,
        training_meta={
            "rows": len(train),
            "split_criterion": "sd_reduction",
            "linear_fallbacks": stats["linear_fallbacks"],
            "pruned_nodes": stats["pruned_nodes"],
            "train_seconds": 0.0,
            "seed": params.seed,
        },
    )
    _stamp_errors(model, train, valid, fallback_rmse=None)
    model.training_meta["train_seconds"] = time.perf_counter() - t0
    return model


def _stamp_errors(model: TreeModel, train: Dataset, valid: Dataset | None,
                  fallback_rmse: float | None) -> None:
    if valid is not None and len(valid):
        scores = evaluate(model, valid)
        model.trained_rmse = scores["rmse"]
        model.trained_mae = scores["mae"]
        model.training_meta["error_source"] = "validation"
    else:
        scores = evaluate(model, train)
        model.trained_rmse = fallback_rmse if fallback_rmse is not None else scores["rmse"]
        model.trained_mae = scores["mae"]
        model.training_meta["error_source"] = "holdout" if fallback_rmse is not None else "training"


# ---------------------------------------------------------------------------
# prediction and evaluation

def predict(model: TreeModel, fv: FeatureVector) -> float:
    """Route the vector to a leaf and return its prediction, clamped at 0.

    The result is memoised on the model per calendar key; the key holds
    every attribute the tree walk reads, so the memo is exact.
    """
    key = (fv.interval, fv.day_period, fv.day_type, fv.month, fv.season)
    value = model._predictions.get(key)
    if value is None:
        value = model._predictions[key] = _walk(model, fv)
    return value


def _walk(model: TreeModel, fv: FeatureVector) -> float:
    """The uncached prediction: route to a leaf, blend, clamp at 0."""
    x = encode_row(fv, model.attributes)
    path: list[Split] = []
    node = model.root
    while isinstance(node, Split):
        path.append(node)
        node = _route(node, x)

    if model.kind == "model_tree":
        d = design_row(x, model.attributes)
        raw = node.model.predict_design(d) if node.model is not None else node.value
        if model.smoothing and path:
            below: Node = node
            for ancestor in reversed(path):
                if ancestor.model is not None:
                    k = model.smoothing_k
                    raw = (below.n * raw + k * ancestor.model.predict_design(d)) / (below.n + k)
                below = ancestor
    else:
        raw = node.value
    return max(0.0, raw)


def _predict_dataset(model: TreeModel, ds: Dataset) -> np.ndarray:
    """``predict`` of every row of a dataset, called once per calendar key."""
    cal = ds.calendar()
    key = (((ds.interval * 2 + cal["day_period"]) * 2 + cal["day_type"]) * 13
           + cal["month"]) * 4 + cal["season"]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    values = np.array([predict(model, fv) for fv in ds.vectors(first)])
    return values[inverse]


def evaluate(model: TreeModel, valid: Dataset) -> dict:
    """MAE and RMSE of the model over a validation dataset."""
    if not len(valid):
        raise ValueError("evaluate: empty validation set")
    errors = _predict_dataset(model, valid) - valid.kwh
    return {
        "mae": float(np.abs(errors).mean()),
        "rmse": float(np.sqrt((errors ** 2).mean())),
    }


# ---------------------------------------------------------------------------
# serialization

def _model_to_obj(m: LinearModel | None):
    if m is None:
        return None
    return {"b": m.intercept, "w": list(m.coef)}


def _model_from_obj(obj) -> LinearModel | None:
    if obj is None:
        return None
    return LinearModel(float(obj["b"]), tuple(float(w) for w in obj["w"]))


def _node_to_obj(node: Node):
    if isinstance(node, Leaf):
        return {"t": "leaf", "value": node.value, "n": node.n,
                "model": _model_to_obj(node.model)}
    return {
        "t": "split",
        "attribute": node.attribute,
        "attr_index": node.attr_index,
        "kind": node.kind,
        "threshold": node.threshold,
        "subset": sorted(node.subset),
        "seen": sorted(node.seen),
        "n": node.n,
        "value": node.value,
        "model": _model_to_obj(node.model),
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _node_from_obj(obj) -> Node:
    if obj["t"] == "leaf":
        return Leaf(float(obj["value"]), int(obj["n"]), _model_from_obj(obj["model"]))
    return Split(
        attribute=obj["attribute"],
        attr_index=int(obj["attr_index"]),
        kind=obj["kind"],
        threshold=float(obj["threshold"]),
        subset=frozenset(float(v) for v in obj["subset"]),
        seen=frozenset(float(v) for v in obj["seen"]),
        left=_node_from_obj(obj["left"]),
        right=_node_from_obj(obj["right"]),
        n=int(obj["n"]),
        value=float(obj["value"]),
        model=_model_from_obj(obj["model"]),
    )


def serialize(model: TreeModel) -> bytes:
    """Versioned binary payload; its length is the reported model size.

    Wall-clock training duration is dropped from the stored metadata so the
    payload is byte-identical across runs of the same seeded training.
    """
    meta = {k: v for k, v in model.training_meta.items() if k != "train_seconds"}
    payload = {
        "kind": model.kind,
        "attributes": list(model.attributes),
        "smoothing": model.smoothing,
        "smoothing_k": model.smoothing_k,
        "trained_rmse": model.trained_rmse,
        "trained_mae": model.trained_mae,
        "training_meta": meta,
        "root": _node_to_obj(model.root),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + bytes([FORMAT_VERSION]) + body


def deserialize(blob: bytes) -> TreeModel:
    if len(blob) < len(MAGIC) + 1 or blob[: len(MAGIC)] != MAGIC:
        raise ModelDecodeError("not a model payload (bad magic header)")
    version = blob[len(MAGIC)]
    if version != FORMAT_VERSION:
        raise ModelDecodeError(f"unsupported model format version {version}")
    try:
        payload = json.loads(blob[len(MAGIC) + 1:].decode())
        return TreeModel(
            kind=payload["kind"],
            root=_node_from_obj(payload["root"]),
            attributes=tuple(payload["attributes"]),
            smoothing=bool(payload["smoothing"]),
            smoothing_k=float(payload["smoothing_k"]),
            trained_rmse=float(payload["trained_rmse"]),
            trained_mae=float(payload["trained_mae"]),
            training_meta=payload["training_meta"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelDecodeError(f"corrupt model payload: {exc}") from exc


def to_text(model: TreeModel) -> str:
    """Human-readable indented rendering of the tree."""
    lines = [f"{model.kind} rmse={model.trained_rmse:.6g} mae={model.trained_mae:.6g}"]

    def walk(node: Node, indent: int) -> None:
        pad = "  " * indent
        if isinstance(node, Leaf):
            if node.model is not None:
                terms = " ".join(f"{c:+.4g}*{name}" for c, name
                                 in zip(node.model.coef, design_columns(model.attributes)) if c)
                lines.append(f"{pad}leaf n={node.n}: {node.model.intercept:.4g} {terms}".rstrip())
            else:
                lines.append(f"{pad}leaf n={node.n}: {node.value:.6g}")
            return
        if node.kind == "numeric":
            lines.append(f"{pad}{node.attribute} <= {node.threshold:g} (n={node.n})")
        else:
            lines.append(f"{pad}{node.attribute} in {sorted(node.subset)} (n={node.n})")
        walk(node.left, indent + 1)
        lines.append(f"{pad}else")
        walk(node.right, indent + 1)

    walk(model.root, 1)
    return "\n".join(lines)
