import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supconad.numerics import (_BLOCK, _BLOCK_MAX_REQUEST, DegenerateVectorError, Rng,
                               l2_normalize_rows)

bounded = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def vec_strategy(dim=8):
    return st.lists(bounded, min_size=dim, max_size=dim).map(np.array)


# -- l2_normalize_rows (one-row cases) ------------------------------------------

def test_l2_normalize_345_triangle():
    out = l2_normalize_rows([[3.0, 4.0]])
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)


def test_l2_normalize_unit_vector_is_identity():
    v = np.array([[0.0, 1.0, 0.0]])
    assert np.array_equal(l2_normalize_rows(v), v)


def test_l2_normalize_zero_vector_errors():
    with pytest.raises(DegenerateVectorError):
        l2_normalize_rows([[0.0, 0.0]])


def test_l2_normalize_rows_degenerate_row_errors():
    with pytest.raises(DegenerateVectorError):
        l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_l2_normalize_rows_non_finite_row_errors(bad):
    with pytest.raises(DegenerateVectorError):
        l2_normalize_rows(np.array([[1.0, 0.0], [bad, 1.0]]))


@pytest.mark.parametrize("m", [[1.0, 2.0], np.empty((0, 3)), np.ones((2, 0))])
def test_l2_normalize_rows_rejects_non_matrix(m):
    with pytest.raises(ValueError, match="must be 2-D and non-empty"):
        l2_normalize_rows(m)


@settings(deadline=None, max_examples=80)
@given(vec_strategy(5))
def test_l2_normalize_unit_norm_and_scale_invariance(a):
    if np.linalg.norm(a) < 1e-6:
        return
    out = l2_normalize_rows(a[None, :])
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    for c in (0.5, 3.0, 1e4):
        assert np.max(np.abs(l2_normalize_rows(c * a[None, :]) - out)) < 1e-12


# -- Rng ------------------------------------------------------------------------

def _splitmix64_reference(seed, n):
    """Independent scalar implementation of the documented stream."""
    mask = (1 << 64) - 1
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_u64_stream_matches_scalar_reference():
    for seed in (0, 1, 12345, 2**64 - 1):
        got = Rng(seed).next_u64(64).tolist()
        assert got == _splitmix64_reference(seed, 64)


def test_gaussian_matches_reference_pipeline():
    seed, n = 99, 32
    u64 = _splitmix64_reference(seed, 2 * n)
    uniforms = [(u >> 11) * 2.0 ** -53 for u in u64]
    ref = [
        math.sqrt(-2.0 * math.log1p(-uniforms[2 * i]))
        * math.cos(2.0 * math.pi * uniforms[2 * i + 1])
        for i in range(n)
    ]
    got = Rng(seed).gaussian_array((n,))
    assert np.allclose(got, ref, atol=1e-12)


def test_gaussian_zero_std_is_exact_mean():
    assert np.all(Rng(7).gaussian_array((2, 3), 2.5, 0.0) == 2.5)
    assert np.all(Rng(7).gaussian_array((10,), -1.25, 0.0) == -1.25)


def test_gaussian_law_of_large_numbers():
    n = 10 ** 5
    draws = Rng(1).gaussian_array((n,), 3.0, 2.0)
    assert abs(draws.mean() - 3.0) < 4 * 2.0 / math.sqrt(n)


def test_same_seed_same_sequence():
    assert np.array_equal(Rng(5).gaussian_array((1000,)), Rng(5).gaussian_array((1000,)))
    assert np.array_equal(Rng(5).uniform(100), Rng(5).uniform(100))


def test_batched_and_single_draws_agree():
    a = Rng(11)
    singles = np.concatenate([a.gaussian_array((1,)) for _ in range(9)])
    assert np.array_equal(singles, Rng(11).gaussian_array((9,)))
    assert np.array_equal(Rng(11).gaussian_array((3, 3)), singles.reshape(3, 3))
    b = Rng(11)
    u_singles = np.array([b.uniform() for _ in range(9)])
    assert np.array_equal(u_singles, Rng(11).uniform(9))


def test_negative_std_rejected():
    with pytest.raises(ValueError):
        Rng(0).gaussian_array((1,), 0.0, -1.0)


def test_choice_without_replacement():
    rng = Rng(3)
    idx = rng.choice_without_replacement(50, 12)
    assert len(set(idx.tolist())) == 12
    assert idx.min() >= 0 and idx.max() < 50
    assert np.array_equal(idx, Rng(3).choice_without_replacement(50, 12))
    with pytest.raises(ValueError):
        Rng(0).choice_without_replacement(3, 4)


def _dense_fisher_yates(rng, pool_size, k):
    """The O(pool) partial Fisher-Yates over a full index array: the reference."""
    u = rng.uniform(k)
    idx = np.arange(pool_size)
    for i in range(k):
        j = i + min(int(u[i] * (pool_size - i)), pool_size - i - 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k].copy()


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2000), st.data())
def test_sparse_sampler_matches_dense_fisher_yates(seed, pool_size, data):
    k = data.draw(st.integers(0, pool_size), label="k")
    for draw in (k, 0, pool_size):
        sparse, dense = Rng(seed), Rng(seed)
        got = sparse.choice_without_replacement(pool_size, draw)
        want = _dense_fisher_yates(dense, pool_size, draw)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # the same number of draws was consumed
        assert sparse.next_u64(1) == dense.next_u64(1)
    assert np.array_equal(Rng(seed).shuffled(pool_size),
                          _dense_fisher_yates(Rng(seed), pool_size, pool_size))


def _u64_at(seed, i):
    """Output i (1-based counter position) of the stream: mix64(seed + i*GAMMA)."""
    mask = (1 << 64) - 1
    z = (seed + i * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _uniforms_at(seed, start, n):
    """Uniforms at counter positions start+1 .. start+n."""
    return np.array([(_u64_at(seed, i) >> 11) * 2.0 ** -53
                     for i in range(start + 1, start + n + 1)])


def _check_draw(rng, seed, pos, op):
    """Run one draw on rng; assert it equals the stream at pos; return the new pos."""
    kind, n = op
    if kind == "uniform":
        if n is None:
            assert rng.uniform() == _uniforms_at(seed, pos, 1)[0]
            return pos + 1
        got = rng.uniform(n)
        assert got.shape == (n,) and np.array_equal(got, _uniforms_at(seed, pos, n))
    elif kind == "gaussian":
        u = _uniforms_at(seed, pos, 2 * n)
        want = np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        assert np.array_equal(rng.gaussian_array((n,)), want)
        return pos + 2 * n
    elif kind == "u64":
        got = rng.next_u64(n).tolist()
        assert got == [_u64_at(seed, i) for i in range(pos + 1, pos + n + 1)]
    else:  # choice: k of a pool of 2k + 3, against a dense Fisher-Yates on the stream
        pool_size = 2 * n + 3
        u = _uniforms_at(seed, pos, n)
        idx = list(range(pool_size))
        for i in range(n):
            j = i + min(int(u[i] * (pool_size - i)), pool_size - i - 1)
            idx[i], idx[j] = idx[j], idx[i]
        assert rng.choice_without_replacement(pool_size, n).tolist() == idx[:n]
    return pos + n


_small = st.integers(1, _BLOCK_MAX_REQUEST)
_large = st.integers(_BLOCK_MAX_REQUEST + 1, _BLOCK + 200)
_draw_ops = st.one_of(
    st.tuples(st.just("uniform"), st.none() | _small | _large | st.just(0)),
    st.tuples(st.just("gaussian"), st.integers(1, _BLOCK_MAX_REQUEST // 2 + 8)),
    st.tuples(st.just("u64"), st.integers(0, _BLOCK + 200)),
    st.tuples(st.just("choice"), st.integers(0, _BLOCK_MAX_REQUEST + 8)),
)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 64 - 1), st.lists(_draw_ops, max_size=40))
@example(seed=7, ops=[("uniform", 3), ("u64", _BLOCK - 5), ("uniform", 4),
                      ("uniform", _BLOCK_MAX_REQUEST), ("uniform", None)])
def test_interleaved_draws_follow_the_counter_stream(seed, ops):
    rng, pos = Rng(seed), 0
    for op in ops:
        pos = _check_draw(rng, seed, pos, op)
    # the stream continues at the absolute counter after any interleaving
    assert rng.next_u64(1).tolist() == [_u64_at(seed, pos + 1)]


def test_small_draws_across_several_block_refills():
    # 60 does not divide the block size, so requests keep straddling its end
    seed, rng, pos = 2024, Rng(2024), 0
    while pos < 3 * _BLOCK:
        pos = _check_draw(rng, seed, pos, ("uniform", 60))
        pos = _check_draw(rng, seed, pos, ("uniform", None))


def test_shuffled_is_permutation():
    perm = Rng(9).shuffled(20)
    assert sorted(perm.tolist()) == list(range(20))


def test_spawn_streams_are_stable_and_distinct():
    parent = Rng(1234)
    a1 = parent.spawn(0).gaussian_array((8,))
    a2 = Rng(1234).spawn(0).gaussian_array((8,))
    b = Rng(1234).spawn(1).gaussian_array((8,))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_seed_range_validation():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2 ** 64)
