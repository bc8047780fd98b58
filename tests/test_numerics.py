import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supconad.numerics import (_BLOCK, _BLOCK_MAX_REQUEST, DegenerateVectorError, Rng,
                               TextLines, unit_rows, write_rows)
from supconad.scoring import embed
from test_model import identity_net

bounded = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def vec_strategy(dim=8):
    return st.lists(bounded, min_size=dim, max_size=dim).map(np.array)


# -- unit_rows: L2 row normalization -------------------------------------------

def test_l2_normalize_345_triangle():
    unit, norms = unit_rows(np.array([[3.0, 4.0]]), "rows")
    assert np.allclose(unit, [[0.6, 0.8]], atol=1e-12)
    assert norms.tolist() == [[5.0]]


def test_l2_normalize_unit_vector_is_identity():
    v = np.array([[0.0, 1.0, 0.0]])
    assert np.array_equal(unit_rows(v, "rows")[0], v)


def test_l2_normalize_rows_of_a_stack_per_member():
    m = Rng(3).gaussian_array((2, 4, 3))
    unit, norms = unit_rows(m, "rows")
    assert norms.shape == (2, 4, 1)
    for i in range(2):
        assert np.array_equal(unit[i], unit_rows(m[i], "rows")[0])


def test_l2_normalize_zero_vector_errors():
    with pytest.raises(DegenerateVectorError,
                       match="^encoder output norm is degenerate or non-finite$"):
        unit_rows(np.array([[0.0, 0.0]]), "encoder output")


def test_l2_normalize_rows_degenerate_row_errors():
    with pytest.raises(DegenerateVectorError):
        unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]), "rows")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_l2_normalize_rows_non_finite_row_errors(bad):
    with pytest.raises(DegenerateVectorError):
        unit_rows(np.array([[1.0, 0.0], [bad, 1.0]]), "rows")


@settings(deadline=None, max_examples=80)
@given(vec_strategy(5))
def test_l2_normalize_unit_norm_and_scale_invariance(a):
    if np.linalg.norm(a) < 1e-6:
        return
    out = unit_rows(a[None, :], "rows")[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    for c in (0.5, 3.0, 1e4):
        assert np.max(np.abs(unit_rows(c * a[None, :], "rows")[0] - out)) < 1e-12


def test_each_pathway_names_the_output_that_degenerates():
    # the encoder output of x is zero; the projection bias keeps its output at [1, 0]
    p = identity_net(2)
    p.projection[0].bias[:] = [1.0, 0.0]
    x = np.array([[0.6, 0.8], [0.0, 0.0]])
    v = np.array([[1.6, 0.8], [1.0, 0.0]])
    assert np.allclose(embed(p, x, use_projection=True), v / np.linalg.norm(v, axis=1)[:, None],
                       atol=1e-12)
    with pytest.raises(DegenerateVectorError, match="^encoder output norm is degenerate"):
        embed(p, x, use_projection=False)
    p.projection[0].bias[:] = 0.0
    with pytest.raises(DegenerateVectorError, match="^projection output norm is degenerate"):
        embed(p, x, use_projection=True)


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


def _earlier_sparse_loop(rng, pool_size, k):
    """choice_without_replacement's earlier loop, kept as the oracle of its current one."""
    swapped = {}
    out = []
    for i, u in enumerate(rng.uniform(k).tolist()):
        span = pool_size - i
        j = i + min(int(u * span), span - 1)
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return np.array(out, dtype=np.intp)


class _FixedUniforms(Rng):
    """An Rng whose uniforms are the given values, in order."""

    def __init__(self, values):
        super().__init__(0)
        self._values = list(values)

    def uniform(self, n=None):
        out, self._values[:n] = self._values[:n], []
        return np.array(out)


@pytest.mark.parametrize("pool_size, k", [(1, 1), (1, 0), (2, 1), (7, 1), (7, 7), (180, 6),
                                          (400, 24), (1000, 1000)])
def test_choice_matches_its_earlier_loop(pool_size, k):
    for seed in range(10):
        got_rng, want_rng = Rng(seed), Rng(seed)
        for _ in range(3):
            got = got_rng.choice_without_replacement(pool_size, k)
            want = _earlier_sparse_loop(want_rng, pool_size, k)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # the counter sits where the earlier loop left it
            assert got_rng._counter == want_rng._counter
        assert got_rng.next_u64(1) == want_rng.next_u64(1)


@pytest.mark.parametrize("pool_size", [1, 2, 3, 7, 2000, 2 ** 40 + 3])
def test_choice_clamps_an_offset_that_reaches_the_span(pool_size):
    # the stream's uniforms stay below 1, so u * span rounds below span; a
    # uniform of 1.0 reaches it and must still land on the last slot
    k = min(pool_size, 5)
    for values in ([1.0] * k, [1.0 - 2.0 ** -53] * k, [0.0] * k, [0.5, 1.0, 0.0, 1.0, 0.25][:k]):
        got = _FixedUniforms(values).choice_without_replacement(pool_size, k)
        want = _earlier_sparse_loop(_FixedUniforms(values), pool_size, k)
        assert np.array_equal(got, want)
        assert got.max() < pool_size and len(set(got.tolist())) == k


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
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=rf"^seed: must fit in an unsigned 64-bit integer, "
                                             rf"got {seed}$"):
            Rng(seed)


# -- TextLines: the one line reader, and its rule for placing bad input ----------------

def test_text_lines_split_like_text_mode(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes("a\r\nb\rc\n\nd\u00e9".encode())
    with TextLines(str(path)) as lines:
        assert list(lines) == [(1, "a"), (2, "b"), (3, "c"), (4, ""), (5, "d\u00e9")]
        assert lines.no == 6


def _raised_in(path, body) -> str:
    with pytest.raises(ValueError) as exc:
        with TextLines(str(path)) as lines:
            body(lines)
    assert type(exc.value) is ValueError and exc.value.__cause__ is None
    return str(exc.value)


def test_text_lines_place_an_error_at_its_line_field_or_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("a=1\nb=2\nc=3\n")

    def at_line_2(lines):
        next(lines)
        next(lines)
        raise ValueError("bad b")
    assert _raised_in(path, at_line_2) == f"{path}:2: bad b"

    def traced_to_a(lines):
        for no, line in lines:
            lines.fields[line[0]] = no
        raise ValueError("a: must be >= 2, got 1")
    assert _raised_in(path, traced_to_a) == f"{path}:1: a: must be >= 2, got 1"

    def past_the_end(lines):
        for _ in lines:
            pass
        raise ValueError("ends early")
    assert _raised_in(path, past_the_end) == f"{path}:4: ends early"

    def whole_file(lines):
        next(lines)
        with lines.whole_file():
            raise ValueError("no single line")
    assert _raised_in(path, whole_file) == f"{path}: no single line"


def test_text_lines_leave_other_errors_as_raised(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("a\n")
    with pytest.raises(KeyError, match="^'a'$"):
        with TextLines(str(path)) as lines:
            next(lines)
            raise KeyError("a")


# -- write_rows: the cell rule of every CSV --------------------------------------

# repr keeps no NaN payload, so the only NaN drawn is the one float("nan") reads back
_cells = st.one_of(
    st.text(st.sampled_from("az09 #=_-.+"), max_size=4),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan]),
)
_rows = st.lists(st.lists(_cells, min_size=1, max_size=6), max_size=5)


@settings(deadline=None, max_examples=200)
@given(_rows, _rows)
@example([["# a=1"], ["", "x"]], [[0.0, -0.0, ""], [5e-324, math.inf, -math.inf, math.nan, 7]])
def test_write_rows_round_trips_str_int_and_float_bits(tmp_path_factory, head, body):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    write_rows(str(path), head, (row for row in body))
    lines = path.read_text().split("\n")
    assert lines.pop() == ""          # every row ends its line
    assert len(lines) == len(head) + len(body)
    for line, row in zip(lines, head + body):     # head's rows first
        texts = line.split(",")
        assert len(texts) == len(row)
        for text, cell in zip(texts, row):
            if isinstance(cell, str):
                assert text == cell
            elif isinstance(cell, int):
                assert int(text) == cell
            else:
                assert struct.pack("<d", float(text)) == struct.pack("<d", cell)
