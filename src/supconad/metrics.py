"""ROC and precision-recall evaluation computed from first principles.

The positive class throughout is *normal driving*: the cosine score grows
with similarity to the normal template, so a good scorer ranks positives
above negatives.  Anomaly-as-positive AUCs are obtainable by flipping labels
and negating scores, which leaves ROC AUC unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import write_rows


@dataclass(frozen=True)
class LabeledScores:
    """Scores paired with binary labels (True = positive = normal)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        y = np.asarray(self.labels, dtype=bool)
        if s.ndim != 1 or y.ndim != 1 or s.shape != y.shape:
            raise ValueError("scores and labels must be 1-D and equal length")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores contain non-finite entries")
        if not (y.any() and (~y).any()):
            raise ValueError("both classes must be present")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", y)


def _tie_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one sort: a stable descending order of values and the exclusive end
    of each run of ties in it."""
    order = np.argsort(-values, kind="stable")
    s = values[order]
    return order, np.flatnonzero(np.append(s[1:] != s[:-1], True)) + 1


def _tie_groups(ls: LabeledScores):
    """Tie-run ends of the scores and the true positives up to each (false ones: ends - tp)."""
    order, ends = _tie_runs(ls.scores)
    return ends, np.cumsum(ls.labels[order])[ends - 1]


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ascending ranks of a float vector; each run of ties gets its mean
    rank, an exact half-integer."""
    order, ends = _tie_runs(values)
    n, starts = values.size, np.append(0, ends[:-1])
    # descending positions [a, b) hold ascending ranks n-b+1 .. n-a
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * ((n - ends) + 1 + (n - starts)), ends - starts)
    return ranks


def roc_auc(ls: LabeledScores) -> float:
    """Area under the ROC curve via the Mann-Whitney rank sum of average ranks:
    P(score_pos > score_neg) + 0.5 * P(score_pos == score_neg)."""
    n, n_pos = ls.labels.size, int(np.count_nonzero(ls.labels))
    rank_sum_pos = float(average_ranks(ls.scores)[ls.labels].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))


def pr_auc(ls: LabeledScores) -> float:
    """Average precision over descending score thresholds.

    Step-wise AP (sum of precision * recall increments, accumulated left to
    right); tie groups cross each threshold atomically.  Trapezoidal PR
    interpolation is deliberately avoided as it is optimistically biased.
    """
    ends, tp = _tie_groups(ls)
    recall = tp / tp[-1]
    precision = tp / ends
    return float(np.add.accumulate(np.diff(recall, prepend=0.0) * precision)[-1])


def roc_curve_points(ls: LabeledScores) -> list[tuple[float, float]]:
    """(FPR, TPR) points at every tie-grouped threshold, plus the endpoints."""
    ends, tp = _tie_groups(ls)
    fp = ends - tp
    return [(0.0, 0.0)] + list(zip((fp / fp[-1]).tolist(), (tp / tp[-1]).tolist()))


def pr_curve_points(ls: LabeledScores) -> list[tuple[float, float]]:
    """(recall, precision) points at every tie-grouped threshold."""
    ends, tp = _tie_groups(ls)
    return list(zip((tp / tp[-1]).tolist(), (tp / ends).tolist()))


def dump_curves(ls: LabeledScores, roc_path: str, pr_path: str) -> None:
    """Write curve points as two-column CSVs for external plotting."""
    write_rows(roc_path, [("fpr", "tpr")], roc_curve_points(ls))
    write_rows(pr_path, [("recall", "precision")], pr_curve_points(ls))
