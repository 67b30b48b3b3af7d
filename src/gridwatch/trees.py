"""Regression-tree learners for consumption prediction.

Two learners share one induction engine, which greedily picks the split
maximizing the standard-deviation reduction

    SD(S) - sum_i (|D_i| / |D|) * SD(D_i)

over all candidate (attribute, threshold/subset) pairs; gains within 1e-9
of SD(S) tie, and ties go to attribute declaration order, then the lowest
threshold:

* ``rep_tree``: mean leaves, grown on a seeded internal grow set and
  reduced-error-pruned bottom-up against the held-out rows: a subtree
  collapses whenever a leaf's holdout squared error is no larger, so
  holdout RMSE never increases during pruning.
* ``model_tree``: least-squares linear leaves over numerically encoded
  attributes (binary 0/1, month and hour/slot as integers, season one-hot),
  pruned by small-sample-inflated error, rmse * (n + p) / (n - p), of a
  node's own model against its subtree; optional smoothing blends in the
  ancestor models along the root path at prediction time.

Training reads a key table, not rows: rows with the same calendar key
(``Dataset.calendar_key``) share their encoded attributes and design row,
so a training set is summed once per key (n, sum y, sum y^2, min, max and
within-key scatter). Trees grow level by level; a candidate's side SDs are
two-pass sums over its keys in key order, so candidates that part a node
alike gain alike to the bit. M5 fits solve all nodes from summed Gram
matrices with one batched ``eigh`` pseudo-inverse. Only summation order
differs from row-by-row learning: means and predictions move in the last
bits.

A prediction depends only on the calendar key, so a fitted tree predicts
through one table, ``TreeModel.table``, indexed by ``ingest.calendar_code``.
One tree walk, ``_predict_encoded``, compiles it over ``calendar_grid``: it
routes rows of encoded calendar attributes, as columns, with
``_split_indices`` (a code a split never saw follows the child that held
more training rows), applies the leaf models and smoothing column by
column, and clamps at 0. ``predict``, ``_predict_dataset`` and ``evaluate``
read the table, so a model must not be mutated after its first prediction.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import json
import time
from typing import Sequence, Union

import numpy as np

from .errors import ContractViolation, ModelDecodeError, TrainingError
from .ingest import (DAY_PERIODS, DAY_TYPES, SEASONS, Dataset, FeatureVector, calendar_code,
                     calendar_grid)

MAGIC = b"AMIM"
FORMAT_VERSION = 1

CATEGORICAL_ATTRIBUTES = frozenset({"season"})
# a day period's or day type's code: its index in DAY_PERIODS or DAY_TYPES
_CODES = {name: i for names in (DAY_PERIODS, DAY_TYPES) for i, name in enumerate(names)}

_EPS_GAIN = 1e-12
_TIE = 1e-9          # gains this close, relative to the node's SD, tie
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
    """intercept + coef . (a design-matrix row), coef aligned to design columns."""

    intercept: float
    coef: tuple[float, ...]


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
    """A fitted tree. For prediction it is ``table``, its prediction for
    every calendar key code, compiled on first use by one walk of the
    calendar grid, and ``py_table``, a copy of its bits as a Python
    ``array.array`` for per-vector lookups: derived state, never
    serialized, outside eq and repr, and compiled anew for a
    ``dataclasses.replace`` copy."""

    kind: str                        # "rep_tree" | "model_tree"
    root: Node
    attributes: tuple[str, ...]
    smoothing: bool = False
    smoothing_k: float = SMOOTHING_K
    trained_rmse: float = 0.0        # the detector threshold margin (PE)
    trained_mae: float = 0.0
    training_meta: dict = dataclasses.field(default_factory=dict)

    @functools.cached_property
    def table(self) -> np.ndarray:
        return _predict_encoded(self, _encode(calendar_grid(), self.attributes))

    @functools.cached_property
    def py_table(self) -> array.array:
        # one read returns a Python float for about 40% of ndarray.item's
        # cost, at 8 bytes an entry, where a list of floats would hold 32
        return array.array("d", self.table.tobytes())


# ---------------------------------------------------------------------------
# encoding

def encode_matrix(ds: Dataset, attributes: Sequence[str] | None = None) -> np.ndarray:
    """One row per dataset row, one column per attribute (``ds.attributes``
    unless given): the interval and month as numbers, a category as its
    index in DAY_PERIODS, DAY_TYPES or SEASONS."""
    return _encode({"interval": ds.interval, **ds.calendar()},
                   ds.attributes if attributes is None else attributes)


def _encode(codes: dict[str, np.ndarray], attributes: Sequence[str]) -> np.ndarray:
    out = np.empty((codes["interval"].size, len(attributes)))
    for j, attr in enumerate(attributes):
        if attr not in codes:
            raise ValueError(f"unknown attribute {attr!r}")
        out[:, j] = codes[attr]
    return out


def design_columns(attributes: Sequence[str]) -> list[str]:
    """Column names of the linear-leaf design matrix (no intercept column)."""
    return [col for attr in attributes
            for col in ([f"season_{name}" for name in SEASONS] if attr == "season" else [attr])]


def design_matrix(encoded: np.ndarray, attributes: Sequence[str]) -> np.ndarray:
    """Expand the encoded attribute matrix into the regression design."""
    blocks: list[np.ndarray] = []
    for j, attr in enumerate(attributes):
        col = encoded[:, j]
        if attr == "season":
            blocks.append((col[:, None] == np.arange(len(SEASONS))).astype(float))
        else:
            blocks.append(col.reshape(-1, 1))
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# split criterion

def _sd_of(n, s, q):
    """Population SD from the row count, sum and sum of squares, guarded
    against negative rounding (0 when empty)."""
    n = np.maximum(n, 1.0)
    m = s / n
    return np.sqrt(np.maximum(q / n - m * m, 0.0))


def _sd(y: np.ndarray) -> float:
    return float(_sd_of(y.size, y.sum(), (y * y).sum()))


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


# ---------------------------------------------------------------------------
# growing

def _split_indices(split: Split, X: np.ndarray,
                   idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partition the rows idx into the left and right sides of a split.

    A category code outside the split's ``seen`` codes follows the child
    that holds more training rows (left on a tie).
    """
    v = X[idx, split.attr_index]
    if split.kind == "numeric":
        mask = v <= split.threshold
    else:
        mask = np.isin(v, list(split.subset))
        unseen = ~np.isin(v, list(split.seen))
        if unseen.any() and split.left.n >= split.right.n:
            mask |= unseen
    return idx[mask], idx[~mask]


# season subsets as code bit sets, in the order split search tries them
_SUBSETS = np.array(sorted(range(1, 2 ** len(SEASONS)), key=lambda bits: (
    bin(bits).count("1"), [c for c in range(len(SEASONS)) if bits >> c & 1])))


def _codes(bits: int) -> frozenset:   # the season codes of a bit set
    return frozenset(float(c) for c in range(len(SEASONS)) if bits >> c & 1)


@dataclasses.dataclass
class _KeyTable:
    """A training set summed per distinct calendar key, in key code order."""

    codes: np.ndarray    # (keys, attributes) encoded attributes
    index: np.ndarray    # as ints: a season code, else the index into values
    values: list         # per attribute, its sorted distinct codes
    sums: np.ndarray     # (keys, 3): rows, sum y, sum y^2
    lo: np.ndarray       # min y
    hi: np.ndarray       # max y
    scatter: np.ndarray  # sum (y - key mean)^2


def _key_table(ds: Dataset) -> _KeyTable:
    _, first, inverse = np.unique(ds.calendar_key(), return_index=True, return_inverse=True)
    y, n, s = ds.kwh, np.bincount(inverse), np.bincount(inverse, ds.kwh)
    ys, starts = y[np.argsort(inverse, kind="stable")], np.cumsum(n) - n
    codes = encode_matrix(ds.take(first))
    values = [np.unique(col) for col in codes.T]
    index = np.column_stack([col.astype(np.int64) if attr in CATEGORICAL_ATTRIBUTES
                             else np.searchsorted(vals, col)
                             for attr, col, vals in zip(ds.attributes, codes.T, values)])
    return _KeyTable(codes, index, values, np.column_stack([n, s, np.bincount(inverse, y * y)]),
                     np.minimum.reduceat(ys, starts), np.maximum.reduceat(ys, starts),
                     np.bincount(inverse, (y - (s / n)[inverse]) ** 2))


def _gains(left: np.ndarray, table: _KeyTable, keys: np.ndarray, loc: np.ndarray,
           starts: np.ndarray, sd_parent: np.ndarray,
           min_instances: int) -> tuple[np.ndarray, np.ndarray]:
    """The gain of candidate c at node m, and its left row count, where key
    ``keys[i]`` of node ``loc[i]`` takes side ``left[i, c]``. A side's SD is
    two-pass (its mean, then its keys' scatter and spread about it), so a
    constant side has SD 0, not the rounding of sum y^2 - n mean^2. A side
    under ``min_instances`` rows gains -inf."""
    c, both = left.shape[1], np.hstack([left, ~left])
    n_k, s_k = table.sums[keys, 0], table.sums[keys, 1]
    count, s = (np.add.reduceat(col[:, None] * both, starts) for col in (n_k, s_k))
    count1 = np.maximum(count, 1.0)
    mean_k = (s_k / n_k)[:, None]
    spread_k = table.scatter[keys, None] + n_k[:, None] * (mean_k - (s / count1)[loc]) ** 2
    sd = np.sqrt(np.add.reduceat(both * spread_k, starts) / count1)
    n = count[:, :c] + count[:, c:]
    spread = (count[:, :c] / n) * sd[:, :c] + (count[:, c:] / n) * sd[:, c:]
    enough = np.minimum(count[:, :c], count[:, c:]) >= min_instances
    return np.where(enough, sd_parent[:, None] - spread, -np.inf), count[:, :c]


def _starts(loc: np.ndarray) -> np.ndarray:
    """Where each node's keys start, ``loc`` being sorted and holding every
    node number from 0 to its last."""
    return np.searchsorted(loc, np.arange(loc[-1] + 1))


def _best_splits(table: _KeyTable, keys: np.ndarray, loc: np.ndarray,
                 attributes: Sequence[str], min_instances: int):
    """The best childless split (or None) of each node, the keys being
    grouped by node (``loc``, numbered from 0 up), and whether each key goes
    left. A split leaves ``min_instances`` rows a side and gains more than
    ``_EPS_GAIN``; gains within ``_TIE`` times the node's SD of the best
    tie, and the attribute declared first wins, then the lowest threshold
    or the first subset in ``_SUBSETS`` order of the node's seen codes that
    holds the lowest one.

    Every attribute's candidates are columns of one matrix, in declaration
    order, so one ``_gains`` call scores them all and one ``argmax`` over
    the tied columns applies the rule."""
    starts = _starts(loc)
    sd = _sd_of(*np.add.reduceat(table.sums[keys], starts).T)
    lefts, value, seen = [], [], {}   # per attribute: candidate sides, their thresholds
    for j, attr in enumerate(attributes):
        code = table.index[keys, j]
        if attr in CATEGORICAL_ATTRIBUTES:
            seen[j] = np.bitwise_or.reduceat(1 << code, starts)
            lefts.append((_SUBSETS >> code[:, None]) & 1 == 1)
            value.append(np.full(_SUBSETS.size, np.nan))
        else:
            lefts.append(code[:, None] <= np.arange(table.values[j].size))
            value.append(table.values[j])
    edges = np.cumsum([0] + [v.size for v in value])
    left, value = np.hstack(lefts), np.concatenate(value + [[np.nan]])
    gains, nl = _gains(left, table, keys, loc, starts, sd, min_instances)
    ok = np.diff(nl, axis=1, prepend=0.0) > 0    # a numeric value the node holds
    ok[:, edges[:-1]] = nl[:, edges[:-1]] > 0
    for j, bits in seen.items():                 # a subset of the seen codes with the lowest
        ok[:, edges[j]:edges[j + 1]] = ((_SUBSETS & ~bits[:, None]) == 0) \
            & ((_SUBSETS & (bits & -bits)[:, None]) > 0)
    gains = np.where(ok, gains, -np.inf)
    top = gains.max(axis=1)
    bar = np.where(top > _EPS_GAIN, np.maximum(top - _TIE * sd, _EPS_GAIN), np.inf)
    tied = gains >= bar[:, None]
    col, found = tied.argmax(axis=1), tied.any(axis=1)
    goes_left = found[loc] & left[np.arange(keys.size), col[loc]]

    nodes = np.flatnonzero(found)
    col = col[nodes]
    attr_of = np.searchsorted(edges, col, side="right") - 1
    # a numeric split lies halfway to the next value the node holds: the
    # first held column after its own (past the last, the NaN at edges[-1])
    held = np.where(ok[nodes], np.arange(edges[-1]), edges[-1])
    held = np.minimum.accumulate(held[:, ::-1], axis=1)[:, ::-1]
    above = held[np.arange(nodes.size), np.minimum(col + 1, edges[-1] - 1)]
    threshold = (value[col] + value[above]) / 2
    pick = [None] * starts.size
    for m, j, c, t in zip(nodes.tolist(), attr_of.tolist(), (col - edges[attr_of]).tolist(),
                          threshold.tolist()):
        if j in seen:
            pick[m] = Split(attributes[j], j, "subset", subset=_codes(_SUBSETS[c]),
                            seen=_codes(seen[j][m]))
        else:
            pick[m] = Split(attributes[j], j, "numeric", threshold=t)
    return pick, goes_left


def _grow(table: _KeyTable, attributes: Sequence[str], min_instances: int,
          sd_floor: float) -> tuple[list[Node], np.ndarray]:
    """Grow an SD-reduction tree level by level over a key table.

    A node stays a leaf below ``2 * min_instances`` rows, on constant
    targets (min == max), at an SD of at most ``sd_floor``, or when no
    split qualifies. Returns the nodes, root first and level by level, and
    ``path``: ``path[d, k]`` indexes key k's node at depth d (-1 if none)."""
    where = np.zeros(table.lo.size, dtype=np.int64)
    nodes, levels, links = [], [], []
    while (live := np.flatnonzero(where >= 0)).size:
        levels.append(where.copy())
        keys = live[np.argsort(where[live], kind="stable")]
        loc = where[keys] - len(nodes)   # every node of the level holds keys
        starts = _starts(loc)
        n, s, q = np.add.reduceat(table.sums[keys], starts).T
        constant = np.minimum.reduceat(table.lo[keys], starts) \
            == np.maximum.reduceat(table.hi[keys], starts)
        grow = (n >= 2 * min_instances) & ~constant & (_sd_of(n, s, q) > sd_floor)
        found, goes_left = [], np.zeros(keys.size, dtype=bool)
        if grow.any():
            sel, rank = grow[loc], np.cumsum(grow) - 1   # rank: its number among the growing
            found, goes_left[sel] = _best_splits(table, keys[sel], rank[loc[sel]], attributes,
                                                 min_instances)
        found = iter(found)   # one split or None per growing node, in order
        splits = [next(found) if g else None for g in grow.tolist()]
        is_split = np.array([split is not None for split in splits])
        child = len(nodes) + n.size + 2 * np.cumsum(is_split) - 2
        for split, first, count, value in zip(splits, child.tolist(),
                                              n.astype(np.int64).tolist(), (s / n).tolist()):
            if split is not None:
                split.n, split.value = count, value
                links.append((len(nodes), first))
            nodes.append(Leaf(value, count) if split is None else split)
        where[keys] = np.where(is_split[loc], child[loc] + ~goes_left, -1)
    for parent, left in links:
        nodes[parent].left, nodes[parent].right = nodes[left], nodes[left + 1]
    return nodes, np.array(levels)


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
               sse: list[float]) -> tuple[Node, float]:
    """Bottom-up reduced-error pruning; returns (pruned node, holdout SSE).
    ``sse`` gets the total holdout SSE after every accepted prune."""
    if isinstance(node, Leaf):
        return node, _subtree_sse(node, X, y, idx)
    l_idx, r_idx = _split_indices(node, X, idx)
    node.left, sse_l = _rep_prune(node.left, X, y, l_idx, sse)
    node.right, sse_r = _rep_prune(node.right, X, y, r_idx, sse)
    sse_subtree = sse_l + sse_r
    sse_leaf = float(((y[idx] - node.value) ** 2).sum()) if idx.size else 0.0
    if sse_leaf <= sse_subtree:
        sse.append(sse[-1] + (sse_leaf - sse_subtree))
        return Leaf(node.value, node.n), sse_leaf
    return node, sse_subtree


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
    X, y, n = encode_matrix(train), train.kwh, len(train)
    rng = np.random.default_rng(np.random.SeedSequence((params.seed, 0x9E9)))
    perm = rng.permutation(n)
    n_hold = int(round(params.prune_fraction * n))
    hold_idx = np.sort(perm[:n_hold])
    grow_idx = np.sort(perm[n_hold:])
    if grow_idx.size == 0:
        grow_idx, hold_idx = hold_idx, grow_idx
    root = _grow(_key_table(train.take(grow_idx)), train.attributes,
                 params.min_instances, 0.0)[0][0]
    prune_trace: list[float] = []
    if hold_idx.size:
        sse = [_subtree_sse(root, X, y, hold_idx)]
        root, _ = _rep_prune(root, X, y, hold_idx, sse)
        prune_trace = [float(np.sqrt(total / hold_idx.size)) for total in sse]

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

_RCOND = 1e-12   # eigenvalues below this share of the largest are zero


def _fit_nodes(table: _KeyTable, path: np.ndarray,
               attributes: Sequence[str]) -> tuple[list, list, int]:
    """Per grown node its least-squares linear model and inflated error
    estimate rmse * (n + p) / (n - p); and the number of mean fallbacks.

    Summed Gram matrices sum_k n_k a_k a_k' over design rows (1, row) and
    one batched ``eigh`` pseudo-inverse give the minimum-norm solution, as
    ``lstsq`` does on the rank-deficient season one-hot plus intercept.
    Constant targets keep their constant and a node with no more rows than
    columns falls back to its mean, each with p = 1. The SSE,
    sum_k scatter_k + n_k (mean_k - a_k'c)^2, does not cancel.

    Each sum is one ``bincount`` over (node, entry) bins, which adds its
    (node, key) pairs one at a time in pair order, entry by entry."""
    A = np.hstack([np.ones((table.lo.size, 1)), design_matrix(table.codes, attributes)])
    p, size = A.shape[1], path.max() + 1
    node, key = path[path >= 0], np.nonzero(path >= 0)[1]   # (node, key) pairs
    a, n_k, mean_k = A[key], table.sums[key, 0], table.sums[:, 1] / table.sums[:, 0]

    def sums(terms: np.ndarray) -> np.ndarray:   # per node: the sum of each pair's terms
        width = terms[0].size
        bins = node[:, None] * width + np.arange(width)
        total = np.bincount(bins.ravel(), terms.ravel(), size * width)
        return total.reshape(size, *terms.shape[1:])

    count, s = np.bincount(node, n_k, minlength=size), np.bincount(node, table.sums[key, 1])
    lo, hi = np.full(size, np.inf), np.full(size, -np.inf)
    np.minimum.at(lo, node, table.lo[key])
    np.maximum.at(hi, node, table.hi[key])
    const = lo == hi
    solve = (count > p) & ~const
    gram = sums(a[:, :, None] * (n_k[:, None] * a)[:, None, :])   # [m, j, i]: n_k a_i a_j
    w, V = np.linalg.eigh(gram[solve])
    kept = w > _RCOND * w[:, -1:]
    inverse = np.where(kept, 1.0 / np.where(kept, w, 1.0), 0.0)
    coef = np.zeros((size, p))
    # solve, then refine once on the key residuals, as the normal equations
    # square the condition number; both steps stay in the span of the Gram
    # matrix, so the solution keeps the minimum norm
    for _ in range(2):
        resid = mean_k[key] - (a * coef[node]).sum(axis=1)
        along = inverse * (V * sums((n_k * resid)[:, None] * a)[solve][:, :, None]).sum(axis=1)
        coef[solve] += (V * along[:, None, :]).sum(axis=2)
    coef[~solve, 0] = np.where(const, lo, s / count)[~solve]
    resid = mean_k[key] - (a * coef[node]).sum(axis=1)
    sse = np.bincount(node, table.scatter[key] + n_k * resid ** 2, minlength=size)
    rmse, params = np.where(const, 0.0, np.sqrt(sse / count)), np.where(solve, p, 1)
    estimate = np.where(count > params,
                        rmse * (count + params) / np.maximum(count - params, 1), np.inf)
    models = [LinearModel(c[0], tuple(c[1:])) for c in coef.tolist()]
    return models, estimate.tolist(), int((~solve & ~const).sum())


def _m5_prune(node: Node, fits: dict, stats: dict) -> tuple[Node, float]:
    """Give a subtree the models of ``fits`` (by node id: model, estimate)
    and prune it bottom-up by inflated error; returns (node, estimate)."""
    model, est_here = fits[id(node)]
    if isinstance(node, Leaf):
        node.model = model
        return node, est_here
    node.left, est_l = _m5_prune(node.left, fits, stats)
    node.right, est_r = _m5_prune(node.right, fits, stats)
    est_subtree = (node.left.n / node.n) * est_l + (node.right.n / node.n) * est_r
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
    no worse; underdetermined fits fall back to the node mean and are
    counted in ``training_meta``.
    """
    params = params or TreeParams()
    params.validate()
    if not len(train):
        raise TrainingError("model tree: empty training set")
    t0 = time.perf_counter()
    table = _key_table(train)
    nodes, path = _grow(table, train.attributes, params.min_instances, 0.05 * _sd(train.kwh))
    models, estimate, fallbacks = _fit_nodes(table, path, train.attributes)
    stats = {"linear_fallbacks": fallbacks, "pruned_nodes": 0}
    root, _ = _m5_prune(nodes[0], dict(zip(map(id, nodes), zip(models, estimate))), stats)

    model = TreeModel(
        kind="model_tree",
        root=root,
        attributes=tuple(train.attributes),
        smoothing=params.smoothing,
        training_meta={
            "rows": len(train),
            "split_criterion": "sd_reduction",
            **stats,
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
    """The prediction for one vector: its calendar key's entry in
    ``model.py_table``. Its season is taken to be its month's, as
    ``feature_vector``, ``Dataset.from_rows`` and ``read_dataset_csv`` make it."""
    return model.py_table[calendar_code(fv.interval, _CODES[fv.day_period],
                                        _CODES[fv.day_type], fv.month)]


def _predict_encoded(model: TreeModel, X: np.ndarray) -> np.ndarray:
    """The one tree walk, which compiles ``TreeModel.table``: the
    prediction of every row of X, one encoded column per model attribute.

    Rows are routed by ``_split_indices`` and empty branches are skipped.
    A model-tree leaf applies its linear model column by column in
    coefficient order; with smoothing, each ancestor's model is blended in
    from the deepest up, weighted by the row count of the child on the
    path. The result is clamped at 0 (``-0.0`` and NaN give 0.0).
    """
    linear = model.kind == "model_tree"
    smooth = linear and model.smoothing
    D = design_matrix(X, model.attributes) if linear else None
    raw = np.empty(X.shape[0])

    def fit(lm: LinearModel, idx: np.ndarray):
        total = lm.intercept
        for c, col in zip(lm.coef, D[idx].T):
            total = total + c * col
        return total

    def walk(node: Node, idx: np.ndarray) -> None:
        if isinstance(node, Leaf):
            raw[idx] = fit(node.model, idx) if linear and node.model is not None else node.value
            return
        for child, part in zip((node.left, node.right), _split_indices(node, X, idx)):
            if part.size:
                walk(child, part)
                if smooth and node.model is not None:
                    k = model.smoothing_k
                    raw[part] = (child.n * raw[part] + k * fit(node.model, part)) / (child.n + k)

    walk(model.root, np.arange(X.shape[0]))
    return np.where(raw > 0.0, raw, 0.0)


def _predict_dataset(model: TreeModel, ds: Dataset) -> np.ndarray:
    """The prediction of every row of a dataset: its calendar key's entry
    in ``model.table``, whatever attributes the dataset carries (a replay
    stream's carries none)."""
    return model.table[ds.calendar_key()]


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
    return None if m is None else {"b": m.intercept, "w": list(m.coef)}


def _model_from_obj(obj) -> LinearModel | None:
    return None if obj is None else LinearModel(float(obj["b"]),
                                                tuple(float(w) for w in obj["w"]))


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
