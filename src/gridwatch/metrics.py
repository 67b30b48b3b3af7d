"""Confusion-matrix rates and ROC curves for detection scoring.

The attack class is the positive class throughout. Rates that are
undefined for a run (no positives, or no negatives) come back as None and
are omitted from reports rather than reported as NaN.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def rates_from_counts(tp: int, fn: int, fp: int, tn: int) -> dict:
    total = tp + fn + fp + tn
    pos = tp + fn
    neg = fp + tn
    return {
        "tp": tp, "fn": fn, "fp": fp, "tn": tn,
        "ac": (tp + tn) / total if total else None,
        "tpr": tp / pos if pos else None,
        "fnr": fn / pos if pos else None,
        "fpr": fp / neg if neg else None,
        "tnr": tn / neg if neg else None,
    }


def compute_metrics(predicted: Sequence[bool], truth: Sequence[bool]) -> dict:
    """Accuracy and the four confusion rates; attack = positive class."""
    if len(predicted) != len(truth):
        raise ValueError(f"length mismatch: {len(predicted)} predictions, {len(truth)} truths")
    p = np.asarray(predicted, dtype=bool)
    t = np.asarray(truth, dtype=bool)
    tp = int((p & t).sum())
    fn = int((~p & t).sum())
    fp = int((p & ~t).sum())
    tn = int((~p & ~t).sum())
    return rates_from_counts(tp, fn, fp, tn)


def roc_curve(scores: Sequence[float],
              truth: Sequence[bool]) -> tuple[np.ndarray, np.ndarray, float]:
    """Threshold sweep over the residual-margin scores.

    Classifies positive where score >= threshold, sweeping every distinct
    score from high to low; returns the float64 ``fpr`` and ``tpr`` of the
    curve's points, from (0, 0) to (1, 1), and the trapezoidal AUC, its
    terms added in point order. Requires both classes present.
    """
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth, dtype=bool)
    if s.size != t.size:
        raise ValueError("scores and truth must have equal length")
    if s.size == 0:
        raise ValueError("roc_curve: empty input")
    n_pos = int(t.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_curve: both classes must be present")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    # the last index of each distinct score (all ties classified together);
    # the last of all counts every row, so the curve ends at (1, 1)
    last_of_score = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    fpr = np.concatenate(([0.0], np.cumsum(~t_sorted)[last_of_score] / n_neg))
    tpr = np.concatenate(([0.0], np.cumsum(t_sorted)[last_of_score] / n_pos))
    # cumsum adds left to right, as a running total over the points would
    auc = np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1]
    return fpr, tpr, float(auc)
