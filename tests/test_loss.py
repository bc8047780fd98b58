import math
import re

import numpy as np
import pytest

from conftest import unit_rows
from supconad.loss import (NEGATIVE_MODES, LossBatch, LossConfig, _terms, batch_loss,
                           batch_loss_grad)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def naive_batch_loss(vn, va, tau, mode):
    """Straight transcription of the per-pair formula, double loop, no tricks."""
    k, m = len(vn), len(va)
    c = 1.0 if mode == "sum" else 1.0 / m
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            a = math.exp(float(vn[i] @ vn[j]) / tau)
            s = sum(math.exp(float(vn[i] @ va[t]) / tau) for t in range(m))
            total += -math.log(a / (a + c * s))
    return total / (k * (k - 1))


def pair_loss(batch, i, j, cfg):
    """Oracle: loss of the ordered anchor pair (i, j), straight from the formula."""
    vn, va = batch.normal, batch.anomalous
    c = 1.0 if cfg.negative_mode == "sum" else 1.0 / len(va)
    a = math.exp(float(vn[i] @ vn[j]) / cfg.tau)
    s = sum(math.exp(float(vn[i] @ neg) / cfg.tau) for neg in va)
    return -math.log(a / (a + c * s))


def random_batch(rng, k=None, m=None, dim=None):
    k = k or int(rng.integers(2, 7))
    m = m or int(rng.integers(1, 7))
    dim = dim or int(rng.integers(2, 9))
    return unit_rows(rng, k, dim), unit_rows(rng, m, dim)


# -- closed-form spot checks -----------------------------------------------------

def test_pair_loss_average_closed_form():
    # both ordered pairs of two equal anchors have the same loss, so it is the batch loss
    batch = LossBatch(np.stack([E1, E1]), np.stack([E2, E2]))
    cfg = LossConfig(tau=1.0, negative_mode="average")
    for got in (pair_loss(batch, 0, 1, cfg), batch_loss(batch, cfg)):
        assert abs(got - (-math.log(math.e / (math.e + 1.0)))) < 1e-9


def test_pair_loss_sum_closed_form():
    batch = LossBatch(np.stack([E1, E1]), np.stack([E2, E2]))
    cfg = LossConfig(tau=1.0, negative_mode="sum")
    for got in (pair_loss(batch, 0, 1, cfg), batch_loss(batch, cfg)):
        assert abs(got - (-math.log(math.e / (math.e + 2.0)))) < 1e-9


def test_modes_agree_when_single_negative(np_rng):
    for _ in range(20):
        vn, va = random_batch(np_rng, m=1)
        batch = LossBatch(vn, va)
        a = batch_loss(batch, LossConfig(tau=0.3, negative_mode="average"))
        s = batch_loss(batch, LossConfig(tau=0.3, negative_mode="sum"))
        assert a == s


def test_batch_loss_k2_pair_symmetry():
    batch = LossBatch(np.stack([E1, E1]), np.stack([E2, E2]))
    cfg = LossConfig(tau=1.0, negative_mode="average")
    l01 = pair_loss(batch, 0, 1, cfg)
    l10 = pair_loss(batch, 1, 0, cfg)
    assert l01 == l10
    assert abs(batch_loss(batch, cfg) - 0.5 * (l01 + l10)) < 1e-12


@pytest.mark.parametrize("m", [1, 3, 10])
def test_identical_anchors_m_cancels_in_average_mode(m):
    batch = LossBatch(np.stack([E1, E1, E1]), np.stack([E2] * m))
    got = batch_loss(batch, LossConfig(tau=1.0, negative_mode="average"))
    assert abs(got - (-math.log(math.e / (math.e + 1.0)))) < 1e-9


def test_batch_loss_matches_naive_oracle(np_rng):
    for _ in range(40):
        vn, va = random_batch(np_rng)
        tau = float(np_rng.uniform(0.2, 2.0))
        for mode in ("sum", "average"):
            got = batch_loss(LossBatch(vn, va), LossConfig(tau=tau, negative_mode=mode))
            assert abs(got - naive_batch_loss(vn, va, tau, mode)) < 1e-12


def test_perfect_separation_limit():
    # anchors identical, negatives at cosine -1, tau = 0.1
    vn = np.stack([E1, E1, E1])
    va = np.stack([-E1, -E1])
    got = batch_loss(LossBatch(vn, va), LossConfig(tau=0.1, negative_mode="average"))
    expect = -math.log(math.exp(10.0) / (math.exp(10.0) + math.exp(-10.0)))
    assert abs(got - expect) < 1e-8


def test_sharp_temperature_does_not_overflow(np_rng):
    vn = unit_rows(np_rng, 4, 6)
    va = np.concatenate([vn[:2], unit_rows(np_rng, 2, 6)])  # negatives at cosine 1
    va /= np.linalg.norm(va, axis=1, keepdims=True)
    for mode in ("sum", "average"):
        val = batch_loss(LossBatch(vn, va), LossConfig(tau=0.01, negative_mode=mode))
        assert math.isfinite(val) and val > 0


# -- gradients --------------------------------------------------------------------

def test_gradients_match_finite_differences(np_rng):
    h = 1e-6
    for _ in range(20):
        vn, va = random_batch(np_rng)
        tau = float(np_rng.uniform(0.2, 1.5))
        for mode in ("sum", "average"):
            cfg = LossConfig(tau=tau, negative_mode=mode)
            gn, ga = batch_loss_grad(LossBatch(vn, va), cfg)
            for arr, grad, is_anchor in ((vn, gn, True), (va, ga, False)):
                fd = np.zeros_like(arr)
                for i in range(arr.shape[0]):
                    for d in range(arr.shape[1]):
                        up, dn = arr.copy(), arr.copy()
                        up[i, d] += h
                        dn[i, d] -= h
                        if is_anchor:
                            fd[i, d] = (naive_batch_loss(up, va, tau, mode)
                                        - naive_batch_loss(dn, va, tau, mode)) / (2 * h)
                        else:
                            fd[i, d] = (naive_batch_loss(vn, up, tau, mode)
                                        - naive_batch_loss(vn, dn, tau, mode)) / (2 * h)
                denom = max(np.abs(fd).max(), 1e-12)
                assert np.abs(fd - grad).max() / denom < 1e-5


def test_gradient_step_against_negative_descends(np_rng):
    # moving one negative opposite its gradient strictly decreases the loss
    for _ in range(10):
        vn, va = random_batch(np_rng, k=3, m=4, dim=6)
        cfg = LossConfig(tau=0.5, negative_mode="average")
        base = naive_batch_loss(vn, va, cfg.tau, cfg.negative_mode)
        _, ga = batch_loss_grad(LossBatch(vn, va), cfg)
        stepped = va - 1e-4 * ga
        assert naive_batch_loss(vn, stepped, cfg.tau, cfg.negative_mode) < base


def test_near_anchor_negative_dominates_gradient():
    # one negative at cosine 0.9 to the anchor, one orthogonal, tau = 0.1:
    # softmax weighting concentrates the gradient on the near negative
    vn = np.stack([E1, E1])
    near = np.array([0.9, math.sqrt(1.0 - 0.81)])
    far = E2
    _, ga = batch_loss_grad(LossBatch(vn, np.stack([near, far])),
                            LossConfig(tau=0.1, negative_mode="average"))
    assert np.linalg.norm(ga[0]) > 100 * np.linalg.norm(ga[1])


# -- invariants ---------------------------------------------------------------------

def test_positivity_and_mode_ordering_on_1000_batches(np_rng):
    equal_seen = False
    for _ in range(1000):
        vn, va = random_batch(np_rng)
        batch = LossBatch(vn, va)
        tau = float(np_rng.uniform(0.1, 2.0))
        avg = batch_loss(batch, LossConfig(tau=tau, negative_mode="average"))
        total = batch_loss(batch, LossConfig(tau=tau, negative_mode="sum"))
        assert avg > 0 and total > 0
        assert avg <= total + 1e-12
        if va.shape[0] == 1:
            equal_seen = True
            assert avg == total
        else:
            assert avg < total
    assert equal_seen  # the sweep includes the M=1 equality case


def test_permutation_invariance(np_rng):
    vn, va = random_batch(np_rng, k=5, m=4)
    cfg = LossConfig(tau=0.4, negative_mode="average")
    base = batch_loss(LossBatch(vn, va), cfg)
    for _ in range(5):
        pn = np_rng.permutation(5)
        pa = np_rng.permutation(4)
        assert abs(batch_loss(LossBatch(vn[pn], va[pa]), cfg) - base) < 1e-12


def test_loss_increases_with_negative_similarity():
    # all anchors equal, negative rotated toward the anchor in a fixed plane
    vn = np.stack([E1, E1])
    cfg = LossConfig(tau=0.5, negative_mode="average")
    losses = []
    for theta in np.linspace(0.1, math.pi - 0.1, 12)[::-1]:  # decreasing angle
        va = np.array([[math.cos(theta), math.sin(theta)]])
        losses.append(batch_loss(LossBatch(vn, va), cfg))
    assert all(a < b for a, b in zip(losses, losses[1:]))


# -- contract errors ----------------------------------------------------------------

def test_non_normalized_inputs_rejected():
    with pytest.raises(ValueError, match="unit-norm"):
        LossBatch(np.array([[1.0, 0.0], [2.0, 0.0]]), np.stack([E2]))


@pytest.mark.parametrize("bad_row", [[np.nan, 0.0], [np.inf, 0.0], [1.0 + 1e-8, 0.0],
                                     [0.5, 0.5]],
                         ids=["nan", "inf", "just-off-unit", "short"])
@pytest.mark.parametrize("side", ["normal", "anomalous"])
def test_one_bad_row_among_unit_rows_rejected(bad_row, side):
    rows = {"normal": np.stack([E1, E2, E1, E2]), "anomalous": np.stack([E2, E1, E2])}
    rows[side][1] = bad_row
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unit-norm"):
        LossBatch(rows["normal"], rows["anomalous"])


def test_unit_rows_within_tolerance_accepted():
    off = 1.0 + 0.5e-9
    batch = LossBatch(np.array([[off, 0.0], [0.0, 1.0]]), np.array([[0.0, off]]))
    assert batch.k == 2 and batch.m == 1


def test_fewer_than_two_anchors_rejected():
    with pytest.raises(ValueError, match="K=2"):
        LossBatch(np.stack([E1]), np.stack([E2]))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        LossConfig(tau=0.0)
    with pytest.raises(ValueError):
        LossConfig(negative_mode="mean")


@pytest.mark.parametrize("mode", NEGATIVE_MODES)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_batch_equals_each_model_alone(np_rng, n, mode):
    # the trainer's layout: each model's 6 anchors, then its 24 negatives
    v = np.stack([unit_rows(np_rng, 30, 16) for _ in range(n)])
    cfg = LossConfig(0.1, mode)
    stacked = LossBatch(v[:, :6], v[:, 6:])
    losses = batch_loss(stacked, cfg)
    grad_n, grad_a = batch_loss_grad(stacked, cfg)
    assert losses.shape == (n,)
    for i in range(n):
        one = LossBatch(v[i, :6], v[i, 6:])
        loss = batch_loss(one, cfg)
        assert isinstance(loss, float) and losses[i] == loss
        want_n, want_a = batch_loss_grad(one, cfg)
        assert np.array_equal(grad_n[i], want_n) and np.array_equal(grad_a[i], want_a)


def test_stacked_batch_with_mismatched_model_axes_rejected(np_rng):
    with pytest.raises(ValueError, match="model axes"):
        LossBatch(np.stack([unit_rows(np_rng, 3, 4)] * 2), np.stack([unit_rows(np_rng, 5, 4)] * 3))


@pytest.mark.parametrize("n, m", [  # the id names only n at the trainer's M = 24
    pytest.param(n, m, id=str(n) if m == 24 else f"{n}-M{m}")
    for m in (24, 1, 7, 97) for n in (2, 3, 4, 8)])
def test_stacked_batch_with_a_mode_per_model_equals_each_model_alone(np_rng, n, m):
    # both modes always present; the trainer's layout: 6 anchors, then m negatives
    modes = tuple(NEGATIVE_MODES[i % 2] for i in np_rng.permutation(n))
    v = np.stack([unit_rows(np_rng, 6 + m, 16) for _ in range(n)])
    stacked = LossBatch(v[:, :6], v[:, 6:])
    cfg = LossConfig(0.1, modes)
    losses = batch_loss(stacked, cfg)
    grad_n, grad_a = batch_loss_grad(stacked, cfg)
    for i, mode in enumerate(modes):
        one = LossBatch(v[i, :6], v[i, 6:])
        assert losses[i] == batch_loss(one, LossConfig(0.1, mode))
        want_n, want_a = batch_loss_grad(one, LossConfig(0.1, mode))
        assert np.array_equal(grad_n[i], want_n) and np.array_equal(grad_a[i], want_a)


def test_mode_per_model_must_match_the_model_axes(np_rng):
    flat = LossBatch(unit_rows(np_rng, 3, 4), unit_rows(np_rng, 5, 4))
    stacked = LossBatch(np.stack([flat.normal] * 2), np.stack([flat.anomalous] * 2))
    for batch, modes in ((flat, ("sum",)), (stacked, ("sum",)), (stacked, ("sum",) * 3)):
        for fn in (batch_loss, batch_loss_grad):
            with pytest.raises(ValueError, match=re.escape(
                    f"negative_mode: needs one mode per model, got {len(modes)} "
                    f"for model axes {batch.normal.shape[:-2]}")):
                fn(batch, LossConfig(0.1, modes))
    with pytest.raises(ValueError, match="^negative_mode: unknown 'avg'"):
        LossConfig(0.1, ("sum", "avg"))


# -- terms computed once per batch and config ----------------------------------------

def _trainer_layout(np_rng, n=None):
    """v in the trainer's layout, 6 anchors then 24 negatives: for one model, or
    stacked for n models."""
    if n is None:
        return unit_rows(np_rng, 30, 16)
    return np.stack([unit_rows(np_rng, 30, 16) for _ in range(n)])


@pytest.mark.parametrize("cfg, n", [
    (LossConfig(0.1, "average"), None), (LossConfig(0.5, "sum"), None),
    (LossConfig(0.1, ("sum", "average", "average")), 3)])
def test_loss_and_grad_on_one_batch_equal_each_on_a_fresh_batch(np_rng, cfg, n):
    v = _trainer_layout(np_rng, n)

    def fresh():
        return LossBatch(v[..., :6, :], v[..., 6:, :])

    want_loss = batch_loss(fresh(), cfg)
    want_grad = batch_loss_grad(fresh(), cfg)
    for grad_first in (False, True):
        batch = fresh()
        if grad_first:
            grad = batch_loss_grad(batch, cfg)
        loss = batch_loss(batch, cfg)
        if not grad_first:
            grad = batch_loss_grad(batch, cfg)
        again = batch_loss(batch, cfg), batch_loss_grad(batch, cfg)
        for got_loss, got_grad in ((loss, grad), again):
            assert np.array_equal(got_loss, want_loss)
            for got, want in zip(got_grad, want_grad, strict=True):
                assert np.array_equal(got, want)
    # the kept terms cannot be written through
    assert not any(a.flags.writeable for a in _terms(batch, cfg))


def test_another_config_on_the_same_batch_gets_its_own_terms(np_rng):
    v = _trainer_layout(np_rng)
    batch = LossBatch(v[:6], v[6:])
    first = LossConfig(0.1, "average")
    batch_loss(batch, first)
    batch_loss_grad(batch, first)
    for other in (LossConfig(0.5, "average"), LossConfig(0.1, "sum"), LossConfig(0.1, "average")):
        fresh = LossBatch(v[:6], v[6:])
        assert batch_loss(batch, other) == batch_loss(fresh, other)
        for got, want in zip(batch_loss_grad(batch, other), batch_loss_grad(fresh, other)):
            assert np.array_equal(got, want)
    assert batch_loss(batch, LossConfig(0.5, "average")) != batch_loss(batch, first)
