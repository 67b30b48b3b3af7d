import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.metrics import rates_from_counts, roc_curve, score_rates


def _margins(predicted, truth):
    """Margins that alert where ``predicted`` holds, split by ``truth`` into
    the (benign, attacked) arguments of ``score_rates``."""
    margins = np.where(np.asarray(predicted, dtype=bool), 1.0, -1.0)
    truth = np.asarray(truth, dtype=bool)
    return margins[~truth], margins[truth]


def test_all_correct():
    rates = score_rates(*_margins([True, False, True], [True, False, True]))
    assert rates["ac"] == 1.0 and rates["tpr"] == 1.0 and rates["fpr"] == 0.0


def test_reference_confusion_counts_reproduce_rates():
    rates = rates_from_counts(tp=918, fn=82, fp=104, tn=896)
    assert rates["tpr"] == 0.918
    assert rates["fpr"] == 0.104
    assert rates["tnr"] == 0.896
    assert rates["fnr"] == 0.082
    assert rates["ac"] == pytest.approx(0.907)


def test_all_predicted_positive():
    rates = score_rates(*_margins([True] * 6, [True, True, False, False, False, True]))
    assert rates["tpr"] == 1.0 and rates["tnr"] == 0.0


def test_zero_margin_does_not_alert():
    rates = score_rates(np.array([0.0, -0.0, 1e-300]), np.array([0.0, 5e-324, -1.0]))
    assert (rates["tp"], rates["fn"], rates["fp"], rates["tn"]) == (1, 2, 1, 2)


def test_rate_identities():
    rng = np.random.default_rng(1)
    for _ in range(20):
        neg, pos = rng.normal(size=rng.integers(1, 50)), rng.normal(size=rng.integers(1, 50))
        rates = score_rates(neg, pos)
        assert rates["tpr"] + rates["fnr"] == pytest.approx(1.0, abs=1e-12)
        assert rates["tnr"] + rates["fpr"] == pytest.approx(1.0, abs=1e-12)
        tp, fn, fp, tn = rates["tp"], rates["fn"], rates["fp"], rates["tn"]
        assert (tp, fp) == (int((pos > 0).sum()), int((neg > 0).sum()))
        assert rates["ac"] == pytest.approx((tp + tn) / (neg.size + pos.size))


def test_undefined_rates_are_none():
    rates = score_rates(np.array([-1.0, -2.0]), np.empty(0))
    assert rates["tpr"] is None and rates["fnr"] is None
    assert rates["fpr"] == 0.0
    rates = score_rates(np.empty(0), np.array([1.0]))
    assert rates["fpr"] is None and rates["tnr"] is None
    assert rates["tpr"] == 1.0
    assert score_rates(np.empty(0), np.empty(0))["ac"] is None


# ---------------------------------------------------------------------------
# ROC

def _points(scores, truth):
    fpr, tpr, _ = roc_curve(scores, truth)
    assert fpr.dtype == tpr.dtype == np.float64
    return list(zip(fpr.tolist(), tpr.tolist()))


def reference_roc_curve(scores, truth):
    """The per-point list version: one (fpr, tpr) tuple per distinct score
    and a running trapezoid total."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth, dtype=bool)
    n_pos = int(t.sum())
    n_neg = int(s.size - n_pos)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    tps = np.cumsum(t_sorted)
    fps = np.cumsum(~t_sorted)
    last_of_score = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    points = [(0.0, 0.0)]
    for i in last_of_score:
        points.append((float(fps[i]) / n_neg, float(tps[i]) / n_pos))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return points, float(auc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.booleans()), min_size=2, max_size=300)
       .filter(lambda rows: len({t for _, t in rows}) == 2),
       st.sampled_from([1.0, 0.1, 1e-9]))
def test_roc_equals_per_point_reference_with_ties(rows, scale):
    # at most 41 distinct scores, so many scores are tied
    scores = [k * scale for k, _ in rows]
    truth = [t for _, t in rows]
    fpr, tpr, auc = roc_curve(scores, truth)
    points, ref_auc = reference_roc_curve(scores, truth)
    assert list(zip(fpr.tolist(), tpr.tolist())) == points
    assert auc.hex() == ref_auc.hex()


def test_roc_equals_reference_on_large_random_input():
    rng = np.random.default_rng(3)
    scores = np.round(rng.normal(0, 1, 20_000), 2)
    truth = rng.random(20_000) > 0.7
    fpr, tpr, auc = roc_curve(scores, truth)
    points, ref_auc = reference_roc_curve(scores, truth)
    assert list(zip(fpr.tolist(), tpr.tolist())) == points
    assert auc.hex() == ref_auc.hex()


def test_roc_two_point_hand_enumeration():
    _, _, auc = roc_curve([1.0, 0.0], [True, False])
    assert _points([1.0, 0.0], [True, False]) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert auc == 1.0


def test_roc_perfectly_separating_scores():
    scores = [0.9, 0.8, 0.7, 0.2, 0.1]
    truth = [True, True, True, False, False]
    _, _, auc = roc_curve(scores, truth)
    points = _points(scores, truth)
    assert auc == 1.0
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)


def test_roc_reversed_scores_auc_zero():
    _, _, auc = roc_curve([0.1, 0.9], [True, False])
    assert auc == 0.0


def test_roc_random_scores_auc_near_half():
    rng = np.random.default_rng(42)
    n = 10_000
    scores = rng.random(n)
    truth = rng.random(n) > 0.5
    _, _, auc = roc_curve(scores, truth)
    assert auc == pytest.approx(0.5, abs=0.02)


def test_roc_monotone_and_in_unit_square():
    rng = np.random.default_rng(7)
    scores = rng.normal(0, 1, 500) + np.where(rng.random(500) > 0.5, 0.5, 0.0)
    truth = rng.random(500) > 0.4
    _, _, auc = roc_curve(scores, truth)
    points = _points(scores, truth)
    assert 0.0 <= auc <= 1.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    assert xs == sorted(xs)
    assert ys == sorted(ys)
    assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in points)


def test_roc_ties_grouped():
    # three tied positives and one higher negative: single jump for the tie
    points = _points([0.5, 0.5, 0.5, 0.9], [True, True, True, False])
    assert (1.0, 0.0) in points  # the negative alone classified first
    assert points[-1] == (1.0, 1.0)


def test_roc_rejects_single_class():
    with pytest.raises(ValueError):
        roc_curve([0.1, 0.2], [True, True])
    with pytest.raises(ValueError):
        roc_curve([], [])
