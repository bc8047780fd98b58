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
temperatures as sharp as 0.1 with cosines near +-1 cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-9
NEGATIVE_MODES = ("sum", "average")


@dataclass(frozen=True)
class LossConfig:
    """Temperature and negative-pair aggregation mode."""

    tau: float = 0.1
    negative_mode: str = "average"

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau: must be > 0, got {self.tau!r}")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ValueError(f"negative_mode: unknown {self.negative_mode!r} "
                             f"(known: {', '.join(NEGATIVE_MODES)})")

    def scale(self, n_negatives: int) -> float:
        """The factor c on the summed negative exponentials: 1 (sum) or 1/M (average)."""
        return 1.0 if self.negative_mode == "sum" else 1.0 / n_negatives


class LossBatch:
    """K unit-norm anchor embeddings (normal) and M negatives (anomalous)."""

    def __init__(self, normal: np.ndarray, anomalous: np.ndarray):
        vn = np.asarray(normal, dtype=np.float64)
        va = np.asarray(anomalous, dtype=np.float64)
        for name, m in (("normal", vn), ("anomalous", va)):
            if m.ndim != 2 or m.size == 0:
                raise ValueError(f"{name} embeddings must be 2-D and non-empty, "
                                 f"got shape {m.shape}")
        if vn.shape[0] < 2:
            raise ValueError("need at least K=2 normal embeddings")
        if vn.shape[1] != va.shape[1]:
            raise ValueError("embedding dimensions differ")
        for name, m in (("normal", vn), ("anomalous", va)):
            # one pass: a non-finite entry makes its row norm inf or nan, which
            # fails the comparison below just as an off-unit norm does
            norms = np.sqrt(np.einsum("ij,ij->i", m, m))
            if not np.abs(norms - 1.0).max() <= UNIT_NORM_TOL:
                raise ValueError(
                    f"{name} embeddings must be finite and unit-norm within {UNIT_NORM_TOL}")
        self.normal = vn
        self.anomalous = va

    @property
    def k(self) -> int:
        return self.normal.shape[0]

    @property
    def m(self) -> int:
        return self.anomalous.shape[0]


def _terms(batch: LossBatch, cfg: LossConfig) -> tuple[np.ndarray, ...]:
    """Terms that both the loss and its gradient need.

    Returns exp(anchor-negative logits - row max), (K, M); its row sums,
    (K, 1); and the softplus arguments log(c) + log_s[i] - v_i . v_j / tau,
    (K, K), where log_s[i] = log sum_m exp(v_i . v_am / tau).
    """
    vn, va = batch.normal, batch.anomalous
    z = vn @ vn.T / cfg.tau                       # anchor-pair logits
    neg_logits = vn @ va.T / cfg.tau              # anchor-negative logits
    mx = neg_logits.max(axis=1, keepdims=True)
    exp_neg = np.exp(neg_logits - mx)
    row_sum = np.add.reduce(exp_neg, axis=1, keepdims=True)
    log_s = (mx + np.log(row_sum))[:, 0]
    arg = np.log(cfg.scale(batch.m)) + log_s[:, None] - z
    return exp_neg, row_sum, arg


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def batch_loss(batch: LossBatch, cfg: LossConfig) -> float:
    """Mean of the pair losses L_ij over all K*(K-1) ordered anchor pairs."""
    k = batch.k
    terms = _softplus(_terms(batch, cfg)[2])
    terms.flat[::k + 1] = 0.0                 # the diagonal: i == j is no pair
    return float(np.add.reduce(terms, axis=None) / (k * (k - 1)))


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
    sigma.flat[::k + 1] = 0.0

    norm = 1.0 / (k * (k - 1) * tau)
    s_row = np.add.reduce(sigma, axis=1)      # total negative share per anchor i

    grad_vn = norm * (s_row[:, None] * (w @ va) - sigma @ vn - sigma.T @ vn)
    grad_va = norm * ((w * s_row[:, None]).T @ vn)
    return grad_vn, grad_va
