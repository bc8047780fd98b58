"""Friedman rank test with all-pairwise post-hoc comparisons.

Methods are compared across datasets by within-dataset ranks (1 = best,
average ranks on ties), from the tie-run sort that ROC AUC uses
(``metrics.average_ranks``).  The omnibus statistic is the classic Friedman
chi-squared; pairwise raw p-values come from the normal approximation of
rank-mean differences, z = (R_i - R_j) / sqrt(k (k+1) / (6 n)).  Both
p-values are ``scipy.special`` survival functions (``chdtrc``, ``ndtr``).

Multiple testing over all pairs is controlled with the Bergmann-Hommel
procedure: a set of pairwise hypotheses is *exhaustive* when exactly those
equalities can hold simultaneously, which for all-pairs families means the
set of within-block pairs of some partition of the methods.  The adjusted
p-value of a pair is max over exhaustive sets E containing it of
|E| * min(raw p over E), capped at 1.  Enumerating partitions is exponential
(Bell numbers), so the procedure is limited to k <= 9 methods; beyond that
``analyze`` falls back to Shaffer's static correction and records which one
ran in ``AnalysisReport.correction``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .metrics import average_ranks
from .numerics import open_text, write_rows

BERGMANN_HOMMEL_MAX_K = 9


class UnsupportedSizeError(ValueError):
    """Raised when the exhaustive-set enumeration would be intractable."""


@dataclass(frozen=True)
class ResultsMatrix:
    """AUC values of k methods (rows) across n datasets (columns)."""

    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.methods), len(self.datasets)):
            raise ValueError("values shape must be (methods, datasets)")
        if len(self.methods) < 2 or len(self.datasets) < 2:
            raise ValueError("need at least 2 methods and 2 datasets")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix contains missing or non-finite entries")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method labels")
        if len(set(self.datasets)) != len(self.datasets):
            raise ValueError("duplicate dataset labels")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "datasets", tuple(self.datasets))


@dataclass(frozen=True)
class PairwisePValues:
    methods: tuple[str, ...]
    raw_p: np.ndarray        # symmetric, NaN diagonal
    adjusted_p: np.ndarray   # symmetric, NaN diagonal
    alpha: float


@dataclass(frozen=True)
class AnalysisReport:
    mean_ranks: dict[str, float]
    friedman_chi_sq: float
    friedman_p: float
    pvalues: PairwisePValues
    significant: tuple[tuple[str, str], ...]   # adjusted p < alpha, i < j order
    correction: str                            # "bergmann-hommel" | "shaffer"


def friedman_ranks(m: ResultsMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-dataset ranks (methods x datasets) and mean rank per method."""
    ranks = np.column_stack([average_ranks(-column) for column in m.values.T])
    return ranks, ranks.mean(axis=1)


def friedman_statistic(mean_ranks: np.ndarray, k: int, n: int) -> tuple[float, float]:
    """Friedman chi-squared with k-1 degrees of freedom and asymptotic p."""
    if k < 2 or n < 2:
        raise ValueError("need k >= 2 methods and n >= 2 datasets")
    mean_ranks = np.asarray(mean_ranks, dtype=np.float64)
    chi_sq = 12.0 * n / (k * (k + 1)) * (float(np.sum(mean_ranks ** 2)) - k * (k + 1) ** 2 / 4.0)
    chi_sq = max(chi_sq, 0.0)
    return chi_sq, float(special.chdtrc(k - 1, chi_sq))


def pairwise_z_tests(mean_ranks: np.ndarray, k: int, n: int) -> np.ndarray:
    """Two-sided normal p-values for all rank-mean differences."""
    mean_ranks = np.asarray(mean_ranks, dtype=np.float64)
    z = np.abs(mean_ranks[:, None] - mean_ranks[None, :]) / np.sqrt(k * (k + 1) / (6.0 * n))
    raw = np.minimum(2.0 * special.ndtr(-z), 1.0)
    np.fill_diagonal(raw, np.nan)
    return raw


def _partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + ((first,) + part[i],) + part[i + 1:]
        yield ((first,),) + part


@lru_cache(maxsize=None)
def exhaustive_pair_sets(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All non-empty exhaustive sets of pairwise hypotheses over k methods.

    Each partition of the methods contributes its set of within-block pairs;
    distinct partitions with at least one block of size >= 2 give distinct
    pair sets.  Memoized per k because the enumeration is reused across
    analyses.
    """
    if k > BERGMANN_HOMMEL_MAX_K:
        raise UnsupportedSizeError(
            f"exhaustive-set enumeration supports k <= {BERGMANN_HOMMEL_MAX_K} "
            f"methods (got {k}); use shaffer_adjust as the fallback"
        )
    sets = []
    for part in _partitions(tuple(range(k))):
        pairs = tuple(
            pair
            for block in part
            for pair in itertools.combinations(tuple(sorted(block)), 2)
        )
        if pairs:
            sets.append(tuple(sorted(pairs)))
    return tuple(sorted(set(sets)))


def bergmann_hommel_adjust(raw_p: np.ndarray, k: int) -> np.ndarray:
    """Bergmann-Hommel adjusted p-values for the all-pairs hypothesis family."""
    raw_p = np.asarray(raw_p, dtype=np.float64)
    if raw_p.shape != (k, k):
        raise ValueError("raw_p must be a k x k matrix")
    adjusted = np.full((k, k), np.nan)
    for i, j in itertools.combinations(range(k), 2):
        adjusted[i, j] = adjusted[j, i] = 0.0
    for pair_set in exhaustive_pair_sets(k):
        bound = len(pair_set) * min(raw_p[i, j] for i, j in pair_set)
        for i, j in pair_set:
            if bound > adjusted[i, j]:
                adjusted[i, j] = adjusted[j, i] = bound
    return np.minimum(adjusted, 1.0)


@lru_cache(maxsize=None)
def _true_hypothesis_counts(k: int) -> tuple[int, ...]:
    """Possible numbers of simultaneously-true pairwise hypotheses (Shaffer)."""
    if k <= 1:
        return (0,)
    counts = set()
    for j in range(1, k + 1):
        within = j * (j - 1) // 2
        for rest in _true_hypothesis_counts(k - j):
            counts.add(within + rest)
    return tuple(sorted(counts))


def shaffer_adjust(raw_p: np.ndarray, k: int) -> np.ndarray:
    """Shaffer's static step-down correction; valid for any k."""
    raw_p = np.asarray(raw_p, dtype=np.float64)
    pairs = list(itertools.combinations(range(k), 2))
    m = len(pairs)
    order = sorted(range(m), key=lambda t: raw_p[pairs[t]])
    possible = _true_hypothesis_counts(k)
    adjusted = np.full((k, k), np.nan)
    running = 0.0
    for step, t in enumerate(order):
        # largest possible number of true hypotheses after `step` rejections
        t_i = max(c for c in possible if c <= m - step)
        running = max(running, t_i * raw_p[pairs[t]])
        i, j = pairs[t]
        adjusted[i, j] = adjusted[j, i] = min(running, 1.0)
    return adjusted


def analyze(m: ResultsMatrix, alpha: float = 0.05) -> AnalysisReport:
    """Full pipeline: ranks, omnibus test, pairwise tests, adjustment, flags.

    The adjustment is Bergmann-Hommel for k <= BERGMANN_HOMMEL_MAX_K methods
    and Shaffer's static correction above that.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha: must be in (0, 1), got {alpha!r}")
    k, n = len(m.methods), len(m.datasets)
    _, mean_ranks = friedman_ranks(m)
    chi_sq, friedman_p = friedman_statistic(mean_ranks, k, n)
    raw = pairwise_z_tests(mean_ranks, k, n)
    if k <= BERGMANN_HOMMEL_MAX_K:
        correction, adjusted = "bergmann-hommel", bergmann_hommel_adjust(raw, k)
    else:
        correction, adjusted = "shaffer", shaffer_adjust(raw, k)
    significant = tuple(
        (m.methods[i], m.methods[j])
        for i, j in itertools.combinations(range(k), 2)
        if adjusted[i, j] < alpha
    )
    return AnalysisReport(
        mean_ranks=dict(zip(m.methods, mean_ranks)),
        friedman_chi_sq=chi_sq,
        friedman_p=friedman_p,
        pvalues=PairwisePValues(m.methods, raw, adjusted, alpha),
        significant=significant,
        correction=correction,
    )


# -- CSV interfaces -----------------------------------------------------------

def load_matrix_csv(path: str) -> ResultsMatrix:
    """Matrix CSV: header row of dataset labels, one row per method."""
    with open_text(path) as f:
        lines = [(ln_no, ln.rstrip("\n")) for ln_no, ln in enumerate(f, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}:1: empty matrix file")
    header_no, header = lines[0]
    datasets = header.split(",")[1:]
    if not datasets:
        raise ValueError(f"{path}:{header_no}: header row has no dataset columns")
    repeated = [d for i, d in enumerate(datasets) if d in datasets[:i]]
    if repeated:
        raise ValueError(f"{path}:{header_no}: duplicate dataset label {repeated[0]!r}")
    methods, rows = [], []
    for ln_no, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(datasets) + 1:
            raise ValueError(
                f"{path}:{ln_no}: expected {len(datasets) + 1} fields, got {len(parts)}"
            )
        if parts[0] in methods:
            raise ValueError(f"{path}:{ln_no}: duplicate method label {parts[0]!r}")
        methods.append(parts[0])
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{ln_no}: non-numeric value ({exc})") from None
        if not np.all(np.isfinite(rows[-1])):
            raise ValueError(f"{path}:{ln_no}: non-finite value")
    try:   # too few methods or datasets
        return ResultsMatrix(tuple(methods), tuple(datasets), np.array(rows))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_matrix_csv(path: str, m: ResultsMatrix) -> None:
    write_rows(path, [("method", *m.datasets)],
               ((label, *row) for label, row in zip(m.methods, m.values.tolist())))


def save_pvalue_matrix_csv(path: str, methods: tuple[str, ...], p: np.ndarray) -> None:
    write_rows(path, [("method", *methods)],
               ((label, *("" if np.isnan(x) else x for x in row))
                for label, row in zip(methods, p.tolist())))


def save_significance_report(path: str, report: AnalysisReport) -> None:
    """One row per method pair: raw p, adjusted p, significance flag."""
    pv = report.pvalues
    write_rows(path, [[f"# friedman_chi_sq={report.friedman_chi_sq!r}"],
                      [f"# friedman_p={report.friedman_p!r}"], [f"# alpha={pv.alpha!r}"],
                      ("method_a", "method_b", "raw_p", "adjusted_p", "significant")],
               # numpy scalars, written np.float64(...) as grid_short's fingerprints hold them
               ((pv.methods[i], pv.methods[j], pv.raw_p[i, j], pv.adjusted_p[i, j],
                 "yes" if pv.adjusted_p[i, j] < pv.alpha else "no")
                for i, j in itertools.combinations(range(len(pv.methods)), 2)))
