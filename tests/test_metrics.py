import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_floats

from supconad.metrics import (LabeledScores, dump_curves, pr_auc,
                              pr_curve_points, roc_auc, roc_curve_points)


def pairwise_roc_oracle(scores, labels):
    """O(n^2) Mann-Whitney count: wins + half-ties over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            total += 1.0
        elif p == n:
            total += 0.5
    return total / (len(pos) * len(neg))


# -- the per-group loops the vectorized metrics replaced, kept as oracles ------------

def oracle_tie_groups(scores):
    """Indices grouped by equal score, in descending score order."""
    order = np.argsort(-scores, kind="stable")
    groups = []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or scores[order[i]] != scores[order[start]]:
            groups.append(order[start:i])
            start = i
    return groups


def oracle_roc_auc(ls):
    s, y = ls.scores, ls.labels
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    order = np.argsort(s, kind="stable")
    ranks = np.empty(y.size, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < y.size:
        j = i
        while j < y.size and sorted_s[j] == sorted_s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    rank_sum_pos = float(ranks[y].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def oracle_counts(ls):
    """Cumulative (tp, fp) after each descending tie group."""
    tp = fp = 0
    out = []
    for group in oracle_tie_groups(ls.scores):
        tp += int(ls.labels[group].sum())
        fp += len(group) - int(ls.labels[group].sum())
        out.append((tp, fp))
    return out


def oracle_pr_auc(ls):
    n_pos = int(ls.labels.sum())
    ap = 0.0
    prev_recall = 0.0
    for tp, fp in oracle_counts(ls):
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return ap


def oracle_roc_curve_points(ls):
    n_pos = int(ls.labels.sum())
    n_neg = ls.labels.size - n_pos
    return [(0.0, 0.0)] + [(fp / n_neg, tp / n_pos) for tp, fp in oracle_counts(ls)]


def oracle_pr_curve_points(ls):
    n_pos = int(ls.labels.sum())
    return [(tp / n_pos, tp / (tp + fp)) for tp, fp in oracle_counts(ls)]


# a few distinct levels (zero of both signs included) make ties the rule
tie_heavy = st.integers(2, 300).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([-0.0, 0.0, 0.1, -0.25, 0.3333333333333333, 1.0, -1.0]),
             min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
    st.booleans()))


@settings(deadline=None, max_examples=200)
@given(tie_heavy)
def test_vectorized_metrics_equal_the_per_group_loops(case):
    levels, labels, noise, continuous = case
    labels[0], labels[-1] = True, False
    scores = np.array(noise if continuous else levels)
    ls = LabeledScores(scores, labels)
    assert repr(roc_auc(ls)) == repr(oracle_roc_auc(ls))
    assert repr(pr_auc(ls)) == repr(oracle_pr_auc(ls))
    assert repr(roc_curve_points(ls)) == repr(oracle_roc_curve_points(ls))
    assert repr(pr_curve_points(ls)) == repr(oracle_pr_curve_points(ls))


def test_roc_perfect_separation():
    ls = LabeledScores([0.9, 0.8, 0.3, 0.2], [True, True, False, False])
    assert roc_auc(ls) == 1.0


def test_roc_all_tied_is_half():
    ls = LabeledScores([0.5] * 6, [True, False, True, False, False, True])
    assert roc_auc(ls) == 0.5


def test_roc_matches_pairwise_oracle(np_rng):
    for trial in range(200):
        n = int(np_rng.integers(2, 51))
        labels = np_rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = True
            labels[-1] = False
        if trial % 2 == 0:
            scores = np_rng.integers(0, 5, size=n).astype(float)  # tie-heavy
        else:
            scores = np_rng.normal(size=n)
        ls = LabeledScores(scores, labels)
        assert abs(roc_auc(ls) - pairwise_roc_oracle(scores, labels)) < 1e-12


def test_pr_perfect_separation():
    ls = LabeledScores([0.9, 0.8, 0.3, 0.2], [True, True, False, False])
    assert pr_auc(ls) == 1.0


def test_pr_hand_example_alternating():
    # descending scores, labels +,-,+,-: AP = 0.5*1 + 0.5*(2/3)
    ls = LabeledScores([4.0, 3.0, 2.0, 1.0], [True, False, True, False])
    assert abs(pr_auc(ls) - (0.5 + 1.0 / 3.0)) < 1e-12


def test_pr_constant_scores_equal_prevalence():
    labels = [True, True, False, False, False]
    ls = LabeledScores([1.0] * 5, labels)
    assert abs(pr_auc(ls) - 2.0 / 5.0) < 1e-12


def test_pr_in_unit_interval(np_rng):
    for _ in range(50):
        n = int(np_rng.integers(2, 40))
        labels = np_rng.random(n) < 0.4
        if labels.all() or not labels.any():
            labels[0] = True
            labels[-1] = False
        ls = LabeledScores(np_rng.normal(size=n), labels)
        assert 0.0 <= pr_auc(ls) <= 1.0


# a few levels drawn from all finite float64s (both zeros, subnormals and the
# largest magnitudes included), so ties are the rule and the scale is extreme
extreme_levels = st.lists(exact_floats(), min_size=1, max_size=6).flatmap(
    lambda levels: st.integers(2, 60).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from(levels), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n))))


def ranks_of_levels(scores, data):
    """Each distinct score mapped to its rank among the distinct scores."""
    return np.unique(scores, return_inverse=True)[1].astype(float)


def power_of_two_scaling(scores, data):
    """scores * 2**k for a k that keeps every product exact: no overflow, and no
    rounding into the subnormal range (a subnormal score is only scaled up)."""
    exps = np.frexp(scores[scores != 0])[1]
    if exps.size == 0:
        return scores.copy()
    low = min(0, -1021 - int(exps.min()))
    k = data.draw(st.integers(low, 1024 - int(exps.max())), label="k")
    return np.ldexp(scores, k)


@pytest.mark.parametrize("transform", [ranks_of_levels, power_of_two_scaling])
@settings(deadline=None, max_examples=200)
@given(extreme_levels, st.data())
def test_aucs_invariant_under_increasing_transforms(transform, case, data):
    levels, labels = case
    labels[0], labels[-1] = True, False
    scores = np.array(levels)
    mapped = transform(scores, data)
    base, moved = LabeledScores(scores, labels), LabeledScores(mapped, labels)
    assert roc_auc(base) == roc_auc(moved)
    assert pr_auc(base) == pr_auc(moved)


def test_roc_negated_scores_complement_when_no_ties(np_rng):
    scores = np_rng.permutation(30).astype(float)  # distinct
    labels = np_rng.random(30) < 0.5
    labels[0], labels[-1] = True, False
    a = roc_auc(LabeledScores(scores, labels))
    b = roc_auc(LabeledScores(-scores, labels))
    assert abs(a + b - 1.0) < 1e-12


@settings(deadline=None, max_examples=200)
@given(extreme_levels)
def test_roc_label_swap_complements(case):
    levels, labels = case
    labels[0], labels[-1] = True, False
    scores, labels = np.array(levels), np.array(labels)
    a = roc_auc(LabeledScores(scores, labels))
    b = roc_auc(LabeledScores(scores, ~labels))
    assert abs(a + b - 1.0) < 1e-12


def test_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        LabeledScores([0.1, 0.2], [True, True])


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        LabeledScores([0.1, 0.2, 0.3], [True, False])


def test_curve_points_monotone_and_complete(np_rng, tmp_path):
    scores = np_rng.normal(size=25)
    labels = np_rng.random(25) < 0.5
    labels[0], labels[-1] = True, False
    ls = LabeledScores(scores, labels)
    roc = roc_curve_points(ls)
    assert roc[0] == (0.0, 0.0) and roc[-1] == (1.0, 1.0)
    fprs, tprs = zip(*roc)
    assert all(a <= b for a, b in zip(fprs, fprs[1:]))
    assert all(a <= b for a, b in zip(tprs, tprs[1:]))
    pr = pr_curve_points(ls)
    recalls = [r for r, _ in pr]
    assert all(a <= b for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0

    dump_curves(ls, str(tmp_path / "roc.csv"), str(tmp_path / "pr.csv"))
    roc_lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "fpr,tpr"
    assert len(roc_lines) == len(roc) + 1
