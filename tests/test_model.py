import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import exact_floats
from supconad import model as M
from supconad.loss import LossBatch, LossConfig, batch_loss, batch_loss_grad
from supconad.numerics import DegenerateVectorError, Rng


def identity_net(dim):
    """One identity layer of width dim in each section."""
    layer = np.concatenate([np.eye(dim).ravel(), np.zeros(dim)])
    return M.ModelParams(np.concatenate([layer, layer]), [((dim, dim), "identity")] * 2, 1)


def random_net(rng, dims_enc, dims_proj):
    return M.init_params(dims_enc, dims_proj, rng)


def param_arrays(params):
    for stack in (params.encoder, params.projection):
        for layer in stack:
            yield layer.weight
            yield layer.bias


def grad_arrays(params, grads):
    """The gradient vector's (weight, bias) blocks, in param_arrays order."""
    for dw, db in params.split(grads):
        yield dw
        yield db


def fd_param_check(params, x, grad_v, h=1e-5, rel_tol=1e-5):
    """Central finite differences of (grad_v . v) over every parameter entry."""
    analytic = M.backward(params, M.forward(params, x), grad_v)

    def value():
        return float(np.sum(grad_v * M.forward(params, x).v))

    worst = 0.0
    for arr, g in zip(param_arrays(params), grad_arrays(params, analytic)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = arr[ix]
            arr[ix] = old + h
            up = value()
            arr[ix] = old - h
            dn = value()
            arr[ix] = old
            fd = (up - dn) / (2 * h)
            if abs(fd) > 1e-8:
                worst = max(worst, abs(fd - g[ix]) / abs(fd))
    assert worst < rel_tol, f"worst relative gradient error {worst}"


# -- init ---------------------------------------------------------------------------

def test_init_layer_shapes():
    p = M.init_params([8, 16, 8], [8, 4], Rng(0))
    shapes = [l.weight.shape for l in p.layers]
    assert shapes == [(16, 8), (8, 16), (4, 8)]
    assert [l.bias.shape for l in p.layers] == [(16,), (8,), (4,)]
    assert [l.activation for l in p.layers] == ["relu", "relu", "identity"]
    assert all(np.all(l.bias == 0) for l in p.layers)


def test_init_same_seed_identical():
    a = M.init_params([6, 5], [5, 3], Rng(77))
    b = M.init_params([6, 5], [5, 3], Rng(77))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)


def test_init_weight_std_tracks_fan_in():
    p = M.init_params([100, 100], [100, 4], Rng(5))
    w = p.encoder[0].weight  # 10^4 entries, target std 1/sqrt(100) = 0.1
    assert abs(w.std() / 0.1 - 1.0) < 0.2


def test_init_dimension_chain_validated():
    with pytest.raises(ValueError, match="^projection_dims: must start with 16, the last of "
                                         r"encoder_dims, got \(8, 4\)$"):
        M.init_params([8, 16], [8, 4], Rng(0))


@pytest.mark.parametrize("enc, proj, message", [
    ([192], [192, 16], "encoder_dims: must list at least 2 widths, got (192,)"),
    ([8, 4], [4], "projection_dims: must list at least 2 widths, got (4,)"),
    ([192, 0, 32], [32, 16], "encoder_dims: every width must be >= 1, got (192, 0, 32)"),
    ([192, -5, 32], [32, 16], "encoder_dims: every width must be >= 1, got (192, -5, 32)"),
    ([8, 4], [4, 0, 2], "projection_dims: every width must be >= 1, got (4, 0, 2)"),
    ([8, 4], [4, 1], "projection_dims: must end at width >= 2, got (4, 1)"),
], ids=["encoder-one-width", "projection-one-width", "encoder-zero", "encoder-negative",
        "projection-zero", "projection-output-1"])
def test_init_rejects_widths_it_cannot_build(enc, proj, message):
    with pytest.raises(ValueError) as exc:
        M.init_params(enc, proj, Rng(0))
    assert str(exc.value) == message


# -- forward -------------------------------------------------------------------------

def test_identity_network_normalizes_input():
    p = identity_net(3)
    x = np.array([[3.0, 0.0, 4.0]])
    tr = M.forward(p, x)
    assert np.allclose(tr.v, x / 5.0, atol=1e-12)
    assert np.array_equal(tr.h, x)
    assert np.array_equal(tr.act[-1], x)


def test_zero_input_output_set_by_biases():
    p = identity_net(2)
    p.projection[0].bias[:] = [0.0, 2.0]
    tr = M.forward(p, np.zeros((1, 2)))
    assert np.allclose(tr.v, [[0.0, 1.0]], atol=1e-12)


def viable_case(seed, dims_enc, dims_proj, n=1):
    """Random net + inputs, redrawn until no ReLU dead-zone degenerates v_raw.

    Tiny nets with zero biases can zero out an entire layer for unlucky
    inputs; that is a contract error by design, so sampled test cases skip it.
    """
    rng = Rng(seed)
    for _ in range(50):
        p = M.init_params(dims_enc, dims_proj, rng)
        x = rng.gaussian_array((n, dims_enc[0]))
        try:
            M.forward(p, x)
            return p, x
        except DegenerateVectorError:
            continue
    raise AssertionError("could not draw a viable test case")


def test_forward_is_pure():
    p, x = viable_case(1, [5, 7, 4], [4, 3])
    t1 = M.forward(p, x)
    t2 = M.forward(p, x)
    assert np.array_equal(t1.v, t2.v)
    assert np.array_equal(t1.h, t2.h)


def test_forward_batch_matches_single():
    p, xs = viable_case(2, [6, 8, 5], [5, 4], n=7)
    batch = M.forward(p, xs)
    for i in range(7):
        one = M.forward(p, xs[i:i + 1])
        assert one.v.shape == (1, 4) and one.h.shape == (1, 5)
        assert np.allclose(batch.v[i], one.v[0], atol=1e-14)
        assert np.allclose(batch.h[i], one.h[0], atol=1e-14)


def test_forward_unit_norm_embedding():
    p, xs = viable_case(3, [6, 8, 5], [5, 4], n=20)
    tr = M.forward(p, xs)
    assert np.max(np.abs(np.linalg.norm(tr.v, axis=1) - 1.0)) < 1e-12


def test_forward_degenerate_projection_errors():
    p = identity_net(2)
    p.projection[0].weight[:] = 0.0
    with pytest.raises(DegenerateVectorError):
        M.forward(p, np.array([[1.0, 1.0]]))


@pytest.mark.parametrize("bad_row", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0],
                                     [1e200, 1e200]],
                         ids=["zero", "nan", "inf", "overflowing-norm"])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_forward_one_degenerate_row_in_a_batch_errors(bad_row, position):
    p = identity_net(2)
    x = np.tile([0.6, 0.8], (5, 1))
    x[position] = bad_row
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DegenerateVectorError):
        M.forward(p, x)


def test_forward_wrong_input_dim_errors():
    p = identity_net(3)
    for shape in [(1, 4), (3,), (), (2, 3, 1)]:     # a 1-D vector is not a batch of one
        with pytest.raises(ValueError, match=r"input dim: expected a \(batch, 3\) matrix"):
            M.forward(p, np.ones(shape))


# -- backward -----------------------------------------------------------------------

def test_backward_zero_grad_gives_zero():
    p = random_net(Rng(4), [5, 6, 4], [4, 3])
    tr = M.forward(p, np.ones((1, 5)))
    grads = M.backward(p, tr, np.zeros((1, 3)))
    assert grads.shape == p.flat.shape and np.all(grads == 0)


def test_backward_matches_finite_differences():
    rng = Rng(12)
    shapes = Rng(13)
    done = 0
    while done < 20:
        d_in = 2 + shapes.below(6)
        d_hid = 2 + shapes.below(8)
        d_h = 2 + shapes.below(6)
        d_out = 2 + shapes.below(4)
        p = M.init_params([d_in, d_hid, d_h], [d_h, d_out], rng)
        x = rng.gaussian_array((1, d_in))
        grad_v = rng.gaussian_array((1, d_out))
        try:
            M.forward(p, x)
        except DegenerateVectorError:
            continue
        fd_param_check(p, x, grad_v)
        done += 1


def test_normalization_jacobian_is_orthogonal_to_embedding():
    rng = Rng(31)
    p = M.init_params([6, 8, 5], [5, 4], rng)
    x = rng.gaussian_array((1, 6))
    tr = M.forward(p, x)
    v = tr.v[0]
    grad_v = rng.gaussian_array((4,))
    # the Jacobian-transposed gradient must carry no component along v_raw
    g_raw = (grad_v - v * float(grad_v @ v)) / np.linalg.norm(tr.act[-1][0])
    assert abs(float(g_raw @ v)) < 1e-12 * np.linalg.norm(g_raw) * 10


def test_composed_loss_gradient_matches_fd():
    # end-to-end: batch_loss(forward(params, X)) differentiated through both modules
    rng = Rng(41)
    p = M.init_params([5, 6, 4], [4, 3], rng)
    x = rng.gaussian_array((6, 5))
    cfg = LossConfig(tau=0.5, negative_mode="average")
    k = 3

    def loss_value():
        tr = M.forward(p, x)
        return batch_loss(LossBatch(tr.v[:k], tr.v[k:]), cfg)

    tr = M.forward(p, x)
    gn, ga = batch_loss_grad(LossBatch(tr.v[:k], tr.v[k:]), cfg)
    grads = M.backward(p, tr, np.vstack([gn, ga]))
    h = 1e-5
    worst = 0.0
    for arr, g in zip(param_arrays(p), grad_arrays(p, grads)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = arr[ix]
            arr[ix] = old + h
            up = loss_value()
            arr[ix] = old - h
            dn = loss_value()
            arr[ix] = old
            fd = (up - dn) / (2 * h)
            if abs(fd) > 1e-8:
                worst = max(worst, abs(fd - g[ix]) / abs(fd))
    assert worst < 1e-5


def test_backward_shape_mismatch_errors():
    p = random_net(Rng(6), [5, 6, 4], [4, 3])
    tr = M.forward(p, np.ones((1, 5)))
    with pytest.raises(ValueError, match="grad_v shape"):
        M.backward(p, tr, np.zeros((1, 4)))
    with pytest.raises(ValueError, match="grad_v shape"):
        M.backward(p, tr, np.zeros(3))


def test_sgd_step_is_one_vector_update():
    rng = Rng(21)
    p = random_net(rng, [5, 6, 4], [4, 3])
    x = rng.gaussian_array((7, 5))
    grads = M.backward(p, M.forward(p, x), rng.gaussian_array((7, 3)))
    lr = 0.05

    plain = p.copy()
    M.sgd_step(plain, grads, lr)
    assert np.array_equal(plain.flat, p.flat - lr * grads)
    for new, old, g in zip(param_arrays(plain), param_arrays(p), grad_arrays(p, grads)):
        assert np.array_equal(new, old - lr * g)


# -- the flat parameter vector ----------------------------------------------------------

def assert_owns_flat(params, *others):
    """Every weight and bias is a view of params.flat and of no other model's flat."""
    assert params.flat.dtype == np.float64 and params.flat.ndim == 1
    assert params.flat.size == sum(a.size for a in param_arrays(params))
    for arr in param_arrays(params):
        assert np.shares_memory(arr, params.flat)
        for other in others:
            assert not np.shares_memory(arr, other.flat)


def test_layers_are_views_of_their_own_flat(tmp_path):
    src = random_net(Rng(9), [5, 6, 4], [4, 3])
    path = str(tmp_path / "params.txt")
    M.save_params(src, path)
    loaded = M.load_params(path)
    dup = src.copy()
    unpickled = pickle.loads(pickle.dumps(src))
    built = identity_net(3)
    for p in (src, loaded, dup, unpickled):
        assert_owns_flat(p, *(q for q in (src, loaded, dup, unpickled, built) if q is not p))
    assert_owns_flat(built, src)
    assert np.array_equal(dup.flat, src.flat) and np.array_equal(unpickled.flat, src.flat)
    # a write through flat shows in the layer it covers
    src.flat[:] = 0.0
    assert not np.any(src.encoder[0].weight) and np.any(dup.encoder[0].weight)


def test_unpickling_rebinds_the_layers_to_the_flat_it_receives(monkeypatch):
    single = random_net(Rng(9), [5, 6, 4], [4, 3])
    stacked = M.ModelParams.stack([single, random_net(Rng(10), [5, 6, 4], [4, 3])])
    blobs = [pickle.dumps(p) for p in (single, stacked)]

    def no_concatenate(*args, **kwargs):
        raise AssertionError("unpickling concatenated the layers into a new flat")

    monkeypatch.setattr(np, "concatenate", no_concatenate)
    for p, blob in zip((single, stacked), blobs):
        back = pickle.loads(blob)
        assert np.array_equal(back.flat, p.flat)
        assert (back.spec, back.n_encoder) == (p.spec, p.n_encoder) == \
            ((((6, 5), "relu"), ((4, 6), "relu"), ((3, 4), "identity")), 2)
        assert len(back.encoder) == len(p.encoder) and len(back.projection) == len(p.projection)
        for got, want in zip(back.layers, p.layers):
            assert got.activation == want.activation
            for a, b in ((got.weight, want.weight), (got.bias, want.bias)):
                assert np.array_equal(a, b) and np.shares_memory(a, back.flat)


def test_sgd_step_on_the_source_leaves_its_copy_unchanged():
    rng = Rng(22)
    p = random_net(rng, [5, 6, 4], [4, 3])
    grads = M.backward(p, M.forward(p, rng.gaussian_array((7, 5))),
                       rng.gaussian_array((7, 3)))
    dup = p.copy()
    before = [a.copy() for a in param_arrays(dup)]
    M.sgd_step(p, grads, 0.1)
    # the step reaches the source's layers, and only the source's
    assert all(not np.array_equal(a, old) for a, old in zip(param_arrays(p), before))
    for arr, old in zip(param_arrays(dup), before):
        assert np.array_equal(arr, old)


# -- stacked params ----------------------------------------------------------------------

STACK_SHAPES = [([12, 9, 6], [6, 5, 3], 7), ([192, 64, 32], [32, 16], 30)]


def stacked_case(n, dims_enc, dims_proj, batch):
    """n random models with random biases, their stack, and per-model inputs and
    output gradients."""
    rng = Rng(30 + n)
    members = [random_net(rng, dims_enc, dims_proj) for _ in range(n)]
    for p in members:
        for layer in p.layers:
            layer.bias[:] = rng.gaussian_array(layer.bias.shape, 0.0, 0.1)
    return (members, M.ModelParams.stack(members), rng.gaussian_array((n, batch, dims_enc[0])),
            rng.gaussian_array((n, batch, dims_proj[-1])))


@pytest.mark.parametrize("dims_enc, dims_proj, batch", STACK_SHAPES, ids=["small", "default"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_forward_and_backward_equal_each_model_alone(n, dims_enc, dims_proj, batch):
    members, stacked, x, grad_v = stacked_case(n, dims_enc, dims_proj, batch)
    trace = M.forward(stacked, x)
    grads = M.backward(stacked, trace, grad_v)
    assert grads.shape == stacked.flat.shape == (n, members[0].flat.size)
    for i, p in enumerate(members):
        one = M.forward(p, x[i])
        for got, want in zip((trace.v, trace.h, trace.norms, *trace.act),
                             (one.v, one.h, one.norms, *one.act)):
            assert np.array_equal(got[i], want)
        assert np.array_equal(grads[i], M.backward(p, one, grad_v[i]))


def test_stack_and_member_copy_the_models():
    members, stacked, _, _ = stacked_case(3, [5, 6, 4], [4, 3], 1)
    assert stacked.flat.shape == (3, members[0].flat.size)
    assert stacked.encoder[0].weight.shape == (3, 6, 5) and stacked.encoder[0].bias.shape == (3, 6)
    for arr in param_arrays(stacked):
        assert np.shares_memory(arr, stacked.flat)
    for i, p in enumerate(members):
        assert not np.shares_memory(stacked.flat, p.flat)
        assert np.array_equal(stacked.flat[i], p.flat)
        one = stacked.member(i)
        assert_owns_flat(one, stacked, p)
        assert np.array_equal(one.flat, p.flat)
        assert (one.spec, one.n_encoder) == (stacked.spec, stacked.n_encoder) == \
            (p.spec, p.n_encoder)
    stacked.flat[:] = 0.0
    assert np.any(members[0].encoder[0].weight)
    with pytest.raises(ValueError, match="must share their layer shapes"):
        M.ModelParams.stack([identity_net(2), identity_net(3)])
    # the same layers, split into encoder and projection at another layer
    with pytest.raises(ValueError, match="must share their layer shapes"):
        M.ModelParams.stack([M.init_params([5, 4, 3], [3, 2], Rng(1)),
                             M.init_params([5, 4], [4, 3, 2], Rng(1))])


def test_stacked_forward_rejects_input_of_another_stack_shape():
    _, stacked, x, _ = stacked_case(2, [5, 6, 4], [4, 3], 3)
    for bad in (x[0], x[:1], x[..., :4]):
        with pytest.raises(ValueError, match=r"input dim: expected a \(2, batch, 5\) matrix"):
            M.forward(stacked, bad)


def test_save_params_rejects_stacked_params(tmp_path):
    path = tmp_path / "params.txt"
    with pytest.raises(ValueError, match="^save_params: stacked params"):
        M.save_params(M.ModelParams.stack([identity_net(2), identity_net(2)]), str(path))
    assert not path.exists()


# -- invariance and persistence --------------------------------------------------------

@pytest.mark.parametrize("c", [0.1, 10.0])
def test_scaling_final_projection_layer_leaves_v_unchanged(c, np_rng):
    p = random_net(Rng(7), [6, 8, 5], [5, 4])
    x = np_rng.normal(size=(10, 6))
    base = M.forward(p, x).v
    scaled = p.copy()
    scaled.projection[-1].weight *= c
    scaled.projection[-1].bias *= c
    assert np.max(np.abs(M.forward(scaled, x).v - base)) < 1e-12


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(1, 5), min_size=2, max_size=4),
       st.lists(st.integers(2, 5), min_size=1, max_size=2), st.data())
def test_checkpoint_round_trip_is_exact(tmp_path, encoder_dims, projection_tail, data):
    def layer(d_in, d_out):
        values = data.draw(st.lists(exact_floats(), min_size=d_out * (d_in + 1),
                                    max_size=d_out * (d_in + 1)))
        act = data.draw(st.sampled_from(M.ACTIVATIONS))
        return values[d_out:] + values[:d_out], ((d_out, d_in), act)   # flat: weight, then bias

    dims = encoder_dims + projection_tail
    layers = [layer(d_in, d_out) for d_in, d_out in zip(dims, dims[1:])]
    p = M.ModelParams(np.array([x for values, _ in layers for x in values]),
                      [spec for _, spec in layers], len(encoder_dims) - 1)
    path = str(tmp_path / "params.txt")
    M.save_params(p, path)
    q = M.load_params(path)
    # bytes, not ==: -0.0 must come back as -0.0
    assert q.flat.tobytes() == p.flat.tobytes()
    assert [(la.weight.shape, la.activation) for la in q.layers] == \
        [(la.weight.shape, la.activation) for la in p.layers]
    assert (len(q.encoder), len(q.projection)) == (len(p.encoder), len(p.projection))
    assert (q.spec, q.n_encoder) == (p.spec, p.n_encoder)


def test_checkpoint_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("something-else v9\n", ""):
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}:1: unrecognized checkpoint header$"):
            M.load_params(str(path))


def _saved_checkpoint_lines(tmp_path):
    path = str(tmp_path / "params.txt")
    M.save_params(random_net(Rng(8), [7, 9, 5], [5, 3]), path)
    with open(path) as f:
        return path, f.read().splitlines()


@pytest.mark.parametrize("keep", [1, 2, 3, 5, 11, 17])
def test_checkpoint_truncated_names_path_and_line(tmp_path, keep):
    path, lines = _saved_checkpoint_lines(tmp_path)
    (tmp_path / "params.txt").write_text("\n".join(lines[:keep]) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{keep + 1}: checkpoint ends early$"):
        M.load_params(path)


def test_checkpoint_cut_mid_line_names_path_and_line(tmp_path):
    path, lines = _saved_checkpoint_lines(tmp_path)
    cut = lines[:6] + [lines[6].rsplit(" ", 2)[0]]     # a weight row missing entries
    (tmp_path / "params.txt").write_text("\n".join(cut))
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:7: expected 7 fields, got 5$"):
        M.load_params(path)


@pytest.mark.parametrize("encoder, projection, message", [
    ([(3, 2)], [(2, 4)], "consecutive layer dimensions are incompatible"),
    ([], [(2, 2)], "encoder and projection must each have >= 1 layer"),
    ([(3, 2)], [(1, 3)], "projection output dimension must be >= 2"),
], ids=["not-chaining", "empty-section", "narrow-projection"])
def test_checkpoint_that_makes_no_model_names_its_path(tmp_path, encoder, projection, message):
    lines = ["supconad-params v1"]
    for name, dims in (("encoder", encoder), ("projection", projection)):
        lines.append(f"section {name} {len(dims)}")
        for out_d, in_d in dims:   # header, bias row, weight rows
            lines += [f"layer {out_d} {in_d} identity", " ".join(["0.0"] * out_d),
                      *[" ".join(["1.0"] * in_d)] * out_d]
    path = tmp_path / "hand.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {re.escape(message)}$"):
        M.load_params(str(path))


@pytest.mark.parametrize("line, bad", [(1, "section encoder two"), (2, "layer 9 7 tanh"),
                                       (3, None), (5, None)])
def test_checkpoint_malformed_line_names_path_and_line(tmp_path, line, bad):
    path, lines = _saved_checkpoint_lines(tmp_path)
    if bad is None:   # a bias or weight row with one non-numeric entry
        parts = lines[line].split()
        parts[0] = "nan?"
        bad = " ".join(parts)
    lines[line] = bad
    (tmp_path / "params.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{line + 1}: "):
        M.load_params(path)


@pytest.mark.parametrize("line, column, value", [(3, 0, "nan"), (5, 2, "inf"), (3, -1, "-inf")])
def test_checkpoint_non_finite_value_names_path_and_line(tmp_path, line, column, value):
    # lines[3] is the first layer's bias row, lines[5] one of its weight rows
    path, lines = _saved_checkpoint_lines(tmp_path)
    parts = lines[line].split()
    parts[column] = value
    lines[line] = " ".join(parts)
    (tmp_path / "params.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{line + 1}: non-finite value$"):
        M.load_params(path)
