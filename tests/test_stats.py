import itertools

import numpy as np
import pytest
from scipy import stats as scipy_stats

from supconad import fixtures
from supconad.metrics import average_ranks
from supconad.stats import (ResultsMatrix, UnsupportedSizeError,
                            analyze, bergmann_hommel_adjust, exhaustive_pair_sets,
                            friedman_ranks, friedman_statistic, load_matrix_csv,
                            pairwise_z_tests, save_matrix_csv,
                            save_pvalue_matrix_csv, save_significance_report,
                            shaffer_adjust)


def matrix(values, methods=None, datasets=None):
    values = np.asarray(values, dtype=float)
    k, n = values.shape
    return ResultsMatrix(
        tuple(methods or [f"m{i}" for i in range(k)]),
        tuple(datasets or [f"d{j}" for j in range(n)]),
        values,
    )


# -- ranks -------------------------------------------------------------------------

def test_dominant_method_ranks_first():
    m = matrix([[0.9, 0.8, 0.85], [0.7, 0.6, 0.65]])
    _, mean_ranks = friedman_ranks(m)
    assert np.array_equal(mean_ranks, [1.0, 2.0])


def test_identical_rows_rank_at_midpoint():
    m = matrix(np.full((4, 3), 0.5))
    _, mean_ranks = friedman_ranks(m)
    assert np.allclose(mean_ranks, (4 + 1) / 2)


def test_ranks_match_hand_computation_with_tie():
    # columns: d0 ranks (2,1,3); d1 has a tie between m0 and m1 -> 1.5 each;
    # d2 ranks (3,1,2); d3 ranks (1,2,3)
    m = matrix([
        [0.80, 0.90, 0.50, 0.99],
        [0.85, 0.90, 0.70, 0.80],
        [0.70, 0.60, 0.60, 0.70],
    ])
    ranks, mean_ranks = friedman_ranks(m)
    assert np.array_equal(ranks[:, 0], [2, 1, 3])
    assert np.array_equal(ranks[:, 1], [1.5, 1.5, 3])
    assert np.array_equal(ranks[:, 2], [3, 1, 2])
    assert np.array_equal(ranks[:, 3], [1, 2, 3])
    assert np.allclose(mean_ranks, [(2 + 1.5 + 3 + 1) / 4, (1 + 1.5 + 1 + 2) / 4,
                                    (3 + 3 + 2 + 3) / 4])


# -- omnibus statistic ----------------------------------------------------------------

def test_friedman_statistic_zero_when_ranks_equal():
    chi, p = friedman_statistic(np.full(4, 2.5), 4, 6)
    assert chi == 0.0 and p == 1.0 == scipy_stats.chi2.sf(chi, 3)


def test_friedman_statistic_hand_formula():
    mean_ranks = np.array([1.25, 2.25, 2.5])
    k, n = 3, 4
    expect = 12 * n / (k * (k + 1)) * (sum(r * r for r in mean_ranks) - k * (k + 1) ** 2 / 4)
    chi, p = friedman_statistic(mean_ranks, k, n)
    assert abs(chi - expect) < 1e-10
    assert p == scipy_stats.chi2.sf(expect, k - 1)


def test_friedman_statistic_monotone_in_rank_gap():
    stats = [friedman_statistic(np.array([1.5 - g, 1.5 + g]), 2, 8)[0]
             for g in (0.1, 0.2, 0.3, 0.5)]
    assert all(a < b for a, b in zip(stats, stats[1:]))


# -- pairwise z tests -------------------------------------------------------------------

def test_pairwise_equal_ranks_give_p_one():
    raw = pairwise_z_tests(np.array([2.0, 2.0, 3.0]), 3, 5)
    assert raw[0, 1] == 1.0


def test_pairwise_matrix_symmetric_with_nan_diagonal():
    raw = pairwise_z_tests(np.array([1.0, 2.0, 3.0, 4.0]), 4, 5)
    assert np.all(np.isnan(np.diag(raw)))
    for i, j in itertools.combinations(range(4), 2):
        assert raw[i, j] == raw[j, i]
        assert 0.0 <= raw[i, j] <= 1.0


def test_pairwise_p_decreases_with_rank_gap():
    ps = [pairwise_z_tests(np.array([2.0 - g, 2.0 + g]), 2, 9)[0, 1]
          for g in (0.2, 0.5, 1.0, 1.5)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


# -- scipy.stats as the oracle ------------------------------------------------------------

@pytest.mark.parametrize("x", [
    np.array([0.8, 0.9, 0.8, 0.7, 0.9, 0.8, 0.1, 0.7]),
    np.full(6, 0.5),
    np.array([0.3, -1.0, 2.5, 0.0, 7.0, -0.25]),
], ids=["ties", "all-equal", "all-distinct"])
def test_average_ranks_equal_scipy_rankdata(x):
    assert np.array_equal(average_ranks(-x), scipy_stats.rankdata(-x, method="average"))


def pairwise_scalar_loop(mean_ranks, k, n):
    se = np.sqrt(k * (k + 1) / (6.0 * n))
    raw = np.full((k, k), np.nan)
    for i, j in itertools.combinations(range(k), 2):
        z = (mean_ranks[i] - mean_ranks[j]) / se
        raw[i, j] = raw[j, i] = min(2.0 * float(scipy_stats.norm.sf(abs(z))), 1.0)
    return raw


@pytest.mark.parametrize("mean_ranks, n", [([2.0, 3.0, 2.0, 3.0], 5),
                                           ([1.0, 1.25, 4.0, 3.75], 200)],
                         ids=["z-zero", "z-large"])
def test_pairwise_z_tests_equal_the_scalar_loop(mean_ranks, n):
    mean_ranks = np.array(mean_ranks)
    assert np.array_equal(pairwise_z_tests(mean_ranks, 4, n),
                          pairwise_scalar_loop(mean_ranks, 4, n), equal_nan=True)


# -- Bergmann-Hommel ---------------------------------------------------------------------

def test_exhaustive_sets_k3_match_hand_enumeration():
    # hypotheses over {0,1,2}: (0,1), (0,2), (1,2); exhaustive non-empty sets
    # are the three singletons and the full set -- never a two-element set
    sets = {frozenset(s) for s in exhaustive_pair_sets(3)}
    assert sets == {
        frozenset({(0, 1)}),
        frozenset({(0, 2)}),
        frozenset({(1, 2)}),
        frozenset({(0, 1), (0, 2), (1, 2)}),
    }


def test_exhaustive_set_count_follows_bell_numbers():
    # non-empty exhaustive sets = partitions with >= 1 non-singleton block
    # Bell(4) = 15, minus 1 all-singleton partition
    assert len(exhaustive_pair_sets(4)) == 14


def test_bh_k2_adjusted_equals_raw():
    raw = np.array([[np.nan, 0.03], [0.03, np.nan]])
    adj = bergmann_hommel_adjust(raw, 2)
    assert adj[0, 1] == 0.03


def test_bh_all_ones_capped_at_one():
    raw = np.full((4, 4), 1.0)
    np.fill_diagonal(raw, np.nan)
    adj = bergmann_hommel_adjust(raw, 4)
    for i, j in itertools.combinations(range(4), 2):
        assert adj[i, j] == 1.0


def test_bh_k3_matches_hand_enumeration_oracle():
    p01, p02, p12 = 0.01, 0.20, 0.04
    raw = np.full((3, 3), np.nan)
    raw[0, 1] = raw[1, 0] = p01
    raw[0, 2] = raw[2, 0] = p02
    raw[1, 2] = raw[2, 1] = p12
    # oracle over the explicit exhaustive sets {01}, {02}, {12}, {01,02,12}
    full = 3 * min(p01, p02, p12)
    expect = {
        (0, 1): max(1 * p01, full),
        (0, 2): max(1 * p02, full),
        (1, 2): max(1 * p12, full),
    }
    adj = bergmann_hommel_adjust(raw, 3)
    for (i, j), e in expect.items():
        assert abs(adj[i, j] - min(e, 1.0)) < 1e-15


def test_bh_dominates_raw_and_is_dominated_by_bonferroni(np_rng):
    k = 5
    full_count = k * (k - 1) // 2
    for _ in range(20):
        raw = np.full((k, k), np.nan)
        for i, j in itertools.combinations(range(k), 2):
            raw[i, j] = raw[j, i] = float(np_rng.uniform())
        adj = bergmann_hommel_adjust(raw, k)
        for i, j in itertools.combinations(range(k), 2):
            assert adj[i, j] >= raw[i, j] - 1e-15
            assert adj[i, j] <= min(1.0, full_count * raw[i, j]) + 1e-12


def test_bh_unsupported_size_suggests_shaffer():
    raw = np.full((10, 10), 0.5)
    with pytest.raises(UnsupportedSizeError, match="shaffer"):
        bergmann_hommel_adjust(raw, 10)


def test_shaffer_fallback_properties(np_rng):
    k = 10  # beyond the Bergmann-Hommel ceiling
    raw = np.full((k, k), np.nan)
    for i, j in itertools.combinations(range(k), 2):
        raw[i, j] = raw[j, i] = float(np_rng.uniform())
    adj = shaffer_adjust(raw, k)
    m = k * (k - 1) // 2
    for i, j in itertools.combinations(range(k), 2):
        assert raw[i, j] - 1e-15 <= adj[i, j] <= min(1.0, m * raw[i, j]) + 1e-12


def test_shaffer_k3_static_levels():
    # sorted p-values get multipliers t = (3, 1, 1) for three hypotheses
    raw = np.full((3, 3), np.nan)
    raw[0, 1] = raw[1, 0] = 0.01
    raw[0, 2] = raw[2, 0] = 0.02
    raw[1, 2] = raw[2, 1] = 0.03
    adj = shaffer_adjust(raw, 3)
    assert abs(adj[0, 1] - 0.03) < 1e-15
    assert abs(adj[0, 2] - 0.03) < 1e-15
    assert abs(adj[1, 2] - 0.03) < 1e-15


# -- full analysis ------------------------------------------------------------------------

def random_matrix(np_rng, k, n=6):
    return matrix(np_rng.uniform(0.5, 1.0, size=(k, n)))


@pytest.mark.parametrize("k", [2, 5, 9])
def test_analysis_up_to_nine_methods_uses_bergmann_hommel(np_rng, k):
    report = analyze(random_matrix(np_rng, k))
    assert report.correction == "bergmann-hommel"
    raw = report.pvalues.raw_p
    assert np.array_equal(report.pvalues.adjusted_p, bergmann_hommel_adjust(raw, k),
                          equal_nan=True)


def test_analysis_of_ten_methods_falls_back_to_shaffer(np_rng, tmp_path):
    values = np_rng.uniform(0.5, 1.0, size=(10, 30))
    values[0] += 1.0                        # one clear winner, so some pair is flagged
    report = analyze(matrix(values))
    assert report.correction == "shaffer"
    raw = report.pvalues.raw_p
    assert np.array_equal(report.pvalues.adjusted_p, shaffer_adjust(raw, 10), equal_nan=True)
    assert report.significant
    save_significance_report(str(tmp_path / "sig.csv"), report)
    lines = (tmp_path / "sig.csv").read_text().splitlines()
    assert len(lines) == 4 + 45 and lines[3].startswith("method_a,")


def test_identical_methods_nothing_significant():
    m = matrix(np.tile(np.linspace(0.5, 0.9, 6), (4, 1)))
    report = analyze(m)
    assert report.significant == ()
    assert report.friedman_p == 1.0


def test_analysis_invariant_to_monotone_transform_of_one_dataset(np_rng):
    values = np_rng.uniform(0.5, 1.0, size=(5, 7))
    base = analyze(matrix(values))
    warped = values.copy()
    warped[:, 3] = np.exp(5.0 * warped[:, 3])  # strictly increasing map
    got = analyze(matrix(warped))
    assert np.allclose(base.pvalues.raw_p, got.pvalues.raw_p, equal_nan=True)
    assert np.allclose(base.pvalues.adjusted_p, got.pvalues.adjusted_p, equal_nan=True)
    assert base.significant == got.significant


def test_analysis_equivariant_under_method_relabeling(np_rng):
    values = np_rng.uniform(0.5, 1.0, size=(5, 7))
    base = analyze(matrix(values))
    perm = np_rng.permutation(5)
    permuted = analyze(matrix(values[perm],
                              methods=[f"m{i}" for i in perm]))
    sig_base = {frozenset(p) for p in base.significant}
    sig_perm = {frozenset(p) for p in permuted.significant}
    assert sig_base == sig_perm
    for a, i in enumerate(perm):
        for b, j in enumerate(perm):
            if a != b:
                assert abs(base.pvalues.adjusted_p[i, j]
                           - permuted.pvalues.adjusted_p[a, b]) < 1e-15


def test_reference_roc_grid_flags_exactly_the_known_pairs():
    report = analyze(fixtures.roc_grid(), alpha=0.05)
    got = {fixtures.canonical_pair(*p) for p in report.significant}
    assert got == set(fixtures.ROC_SIGNIFICANT_PAIRS)


def test_reference_pr_grid_flags_exactly_the_known_pairs():
    report = analyze(fixtures.pr_grid(), alpha=0.05)
    got = {fixtures.canonical_pair(*p) for p in report.significant}
    assert got == set(fixtures.PR_SIGNIFICANT_PAIRS)


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix(np.ones((1, 5)))
    with pytest.raises(ValueError):
        ResultsMatrix(("a", "a"), ("d0", "d1"), np.ones((2, 2)))
    with pytest.raises(ValueError):
        matrix([[0.5, np.nan], [0.2, 0.3]])


def test_repeated_dataset_label_is_rejected():
    with pytest.raises(ValueError, match="^duplicate dataset labels$"):
        ResultsMatrix(("a", "b", "c"), ("d0", "d0", "d1"), np.eye(3))


# -- CSV interfaces -------------------------------------------------------------------------

def test_matrix_csv_round_trip(tmp_path):
    m = fixtures.roc_grid()
    path = str(tmp_path / "grid.csv")
    save_matrix_csv(path, m)
    back = load_matrix_csv(path)
    assert back.methods == m.methods
    assert back.datasets == m.datasets
    assert np.array_equal(back.values, m.values)


def test_matrix_csv_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("method,d0,d1\nm0,0.5,0.6\nm1,0.7\n")
    with pytest.raises(ValueError, match=r":3:"):
        load_matrix_csv(str(path))
    path.write_text("method,d0,d1\nm0,0.5,abc\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_matrix_csv(str(path))


def test_report_outputs(tmp_path):
    report = analyze(fixtures.roc_grid())
    save_pvalue_matrix_csv(str(tmp_path / "adj.csv"), report.pvalues.methods,
                           report.pvalues.adjusted_p)
    save_significance_report(str(tmp_path / "sig.csv"), report)
    adj_lines = (tmp_path / "adj.csv").read_text().splitlines()
    assert adj_lines[0].startswith("method,OL-NP-NL,")
    assert len(adj_lines) == 9
    sig_lines = (tmp_path / "sig.csv").read_text().splitlines()
    flagged = {tuple(ln.split(",")[:2]) for ln in sig_lines if ln.endswith(",yes")}
    assert flagged == {fixtures.canonical_pair(*p) for p in fixtures.ROC_SIGNIFICANT_PAIRS}
