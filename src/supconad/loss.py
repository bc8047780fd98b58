"""Supervised contrastive loss over normal anchors and anomalous negatives.

Two variants of the negative-pair aggregation are supported: ``sum`` (the
baseline, denominator adds the plain sum of negative-pair exponentials) and
``average`` (the modified form, denominator adds that sum divided by the
number of negatives M).  Averaging keeps the aggregate similarity of the
negatives small when they crowd the anchors, which eases optimization.

For one ordered anchor pair (i, j), with a = exp(v_i . v_j / tau) and
S = sum_m exp(v_i . v_am / tau):

    L_ij = -log(a / (a + c * S)),   c = 1 (sum) or 1/M (average)

and the minibatch loss is the mean of L_ij over all K*(K-1) ordered pairs.
Every -log term is evaluated through a softplus of shifted logits, so
temperatures as sharp as 0.1 with cosines near +-1 cannot overflow.  A batch
may carry a leading model axis, (n, K, d) and (n, M, d): each model's loss and
gradient are then those of its own slice, and the mode may vary per model.  One
expression gives log c for one mode or for a tuple of one mode per model, so a
model's c is the same number stacked or alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import check_lower_bound

UNIT_NORM_TOL = 1e-9
NEGATIVE_MODES = ("sum", "average")


@dataclass(frozen=True)
class LossConfig:
    """Temperature and negative-pair aggregation mode: one mode, or a tuple of
    one mode per model of a stacked batch."""

    tau: float = 0.1
    negative_mode: str | tuple[str, ...] = "average"

    def __post_init__(self):
        check_lower_bound("tau", self.tau, 0, strict=True)
        modes = self.negative_mode if isinstance(self.negative_mode, tuple) else (
            self.negative_mode,)
        for mode in modes:
            if mode not in NEGATIVE_MODES:
                raise ValueError(f"negative_mode: unknown {mode!r} "
                                 f"(known: {', '.join(NEGATIVE_MODES)})")


class LossBatch:
    """K unit-norm anchor embeddings (normal) and M negatives (anomalous), per model."""

    def __init__(self, normal: np.ndarray, anomalous: np.ndarray):
        vn = np.asarray(normal, dtype=np.float64)
        va = np.asarray(anomalous, dtype=np.float64)
        for name, m in (("normal", vn), ("anomalous", va)):
            if m.ndim < 2 or m.size == 0:
                raise ValueError(f"{name} embeddings must be 2-D and non-empty, "
                                 f"got shape {m.shape}")
        if vn.shape[-2] < 2:
            raise ValueError("need at least K=2 normal embeddings")
        if vn.shape[-1] != va.shape[-1]:
            raise ValueError("embedding dimensions differ")
        if vn.shape[:-2] != va.shape[:-2]:
            raise ValueError("normal and anomalous embeddings differ in their model axes")
        for name, m in (("normal", vn), ("anomalous", va)):
            # one pass: a non-finite entry makes its row norm inf or nan, which
            # fails the comparison below just as an off-unit norm does
            norms = np.sqrt(np.einsum("...j,...j->...", m, m))
            if not np.abs(norms - 1.0).max() <= UNIT_NORM_TOL:
                raise ValueError(
                    f"{name} embeddings must be finite and unit-norm within {UNIT_NORM_TOL}")
        self.normal = vn
        self.anomalous = va
        self._terms_by_cfg: dict[LossConfig, tuple[np.ndarray, ...]] = {}

    @property
    def k(self) -> int:
        return self.normal.shape[-2]

    @property
    def m(self) -> int:
        return self.anomalous.shape[-2]


def _terms(batch: LossBatch, cfg: LossConfig) -> tuple[np.ndarray, ...]:
    """Terms that both the loss and its gradient need, computed once per batch
    and config and kept on the batch, read-only.

    Returns exp(anchor-negative logits - row max), (K, M); its row sums,
    (K, 1); and the softplus arguments log(c) + log_s[i] - v_i . v_j / tau,
    (K, K), where log_s[i] = log sum_m exp(v_i . v_am / tau); each per model,
    with each model's own c.
    """
    terms = batch._terms_by_cfg.get(cfg)
    if terms is not None:
        return terms
    vn, va = batch.normal, batch.anomalous
    log_c = np.log(np.where(np.asarray(cfg.negative_mode) == "sum", 1.0, 1.0 / batch.m))
    if log_c.ndim and log_c.shape != vn.shape[:-2]:
        raise ValueError(f"negative_mode: needs one mode per model, got {log_c.size} "
                         f"for model axes {vn.shape[:-2]}")
    z = vn @ vn.swapaxes(-1, -2) / cfg.tau            # anchor-pair logits
    neg_logits = vn @ va.swapaxes(-1, -2) / cfg.tau   # anchor-negative logits
    mx = neg_logits.max(axis=-1, keepdims=True)
    exp_neg = np.exp(neg_logits - mx)
    row_sum = np.add.reduce(exp_neg, axis=-1, keepdims=True)
    log_s = mx + np.log(row_sum)
    arg = log_c[..., None, None] + log_s - z
    terms = exp_neg, row_sum, arg
    for a in terms:
        a.flags.writeable = False
    batch._terms_by_cfg[cfg] = terms
    return terms


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def batch_loss(batch: LossBatch, cfg: LossConfig) -> float | np.ndarray:
    """Mean of the pair losses L_ij over all K*(K-1) ordered anchor pairs: a
    float, or one loss per model for a stacked batch."""
    k = batch.k
    terms = _softplus(_terms(batch, cfg)[2])
    diag = np.arange(k)
    terms[..., diag, diag] = 0.0              # i == j is no pair
    loss = np.add.reduce(terms, axis=(-2, -1)) / (k * (k - 1))
    return float(loss) if terms.ndim == 2 else loss


def batch_loss_grad(batch: LossBatch, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of batch_loss w.r.t. every anchor and negative vector.

    The gradient is taken treating the embeddings as free vectors; chaining
    through any upstream normalization is the caller's concern.
    """
    vn, va = batch.normal, batch.anomalous
    k, tau = batch.k, cfg.tau
    exp_neg, row_sum, arg = _terms(batch, cfg)
    w = exp_neg / row_sum                     # softmax over negatives per anchor

    # sigma[i, j] = share of the (i, j) denominator carried by the negatives
    sigma = 1.0 / (1.0 + np.exp(-arg))
    diag = np.arange(k)
    sigma[..., diag, diag] = 0.0

    norm = 1.0 / (k * (k - 1) * tau)
    s_row = np.add.reduce(sigma, axis=-1, keepdims=True)   # total negative share per anchor i

    grad_vn = norm * (s_row * (w @ va) - sigma @ vn - sigma.swapaxes(-1, -2) @ vn)
    grad_va = norm * ((w * s_row).swapaxes(-1, -2) @ vn)
    return grad_vn, grad_va
