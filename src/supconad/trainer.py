"""Minibatch sampling, plain SGD with step decay, and AUC-based checkpointing.

Training always optimizes the contrastive loss on the projection-head
embedding.  Validation, run every few epochs on a stratified held-out slice
of the training windows, scores with the normal-template cosine pipeline
under both embedding pathways and keeps the best parameters per pathway, so
checkpoint selection matches whichever pathway is used at test time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import scoring
from .loss import LossBatch, LossConfig, batch_loss, batch_loss_grad
from .metrics import LabeledScores, roc_auc
from .numerics import DegenerateVectorError, Rng
from .synthgen import ANOMALOUS, NORMAL, Window, split_train_val


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    lr0: float = 0.01
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 25
    tau: float = 0.1
    batch_normal: int = 6        # anchors (K) per minibatch
    batch_anomalous: int = 24    # negatives (M) per minibatch
    validate_every: int = 5
    negative_mode: str = "average"
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("lr_decay_every", 1), ("validate_every", 1),
                          ("batch_normal", 2), ("batch_anomalous", 1), ("lr0", 0)):
            if not getattr(self, name) >= low:    # a NaN fails too
                raise ValueError(f"{name}: must be >= {low}, got {getattr(self, name)!r}")
        if not self.lr_decay_factor > 0:
            raise ValueError(f"lr_decay_factor: must be > 0, got {self.lr_decay_factor!r}")
        LossConfig(self.tau, self.negative_mode)   # checks tau and negative_mode
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction: must be in (0, 1), got {self.val_fraction!r}")


@dataclass
class Checkpoint:
    params: model_mod.ModelParams
    val_auc: float
    epoch: int


@dataclass
class LogRow:
    epoch: int
    mean_loss: float
    val_auc_projection: float
    val_auc_encoder: float


@dataclass
class TrainResult:
    best: dict[str, Checkpoint]      # keyed by pathway: "projection" / "encoder"
    final_params: model_mod.ModelParams
    log: list[LogRow]


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step-decay schedule: lr0 * factor ** floor((epoch - 1) / every)."""
    if epoch < 1:
        raise ValueError("epochs are 1-based")
    return cfg.lr0 * cfg.lr_decay_factor ** ((epoch - 1) // cfg.lr_decay_every)


def _sample_batch(pool: np.ndarray, n_normal: int, k: int, m: int, rng: Rng) -> np.ndarray:
    """k normal then m anomalous rows of pool, each group drawn without replacement.

    pool holds its n_normal normal rows first, then the anomalous ones.
    """
    idx_n = rng.choice_without_replacement(n_normal, k)
    idx_a = rng.choice_without_replacement(len(pool) - n_normal, m)
    return pool[np.concatenate([idx_n, idx_a + n_normal])]


def _validation_auc(params, train_normal_feats, val_feats, val_is_normal, use_projection):
    template = scoring.build_template(params, train_normal_feats, use_projection)
    scores = scoring.score_windows(template, params, val_feats, use_projection)
    return roc_auc(LabeledScores(scores, val_is_normal))


def train(windows: list[Window], encoder_dims: list[int], projection_dims: list[int],
          cfg: TrainConfig) -> TrainResult:
    """Full training run over one modality's training windows.

    An epoch is ceil(n_normal / batch_normal) minibatches; anomalous windows
    are resampled freely.  The best checkpoint per embedding pathway is the
    earliest epoch achieving the maximum validation AUC.
    """
    rng = Rng(cfg.seed)
    train_w, val_w = split_train_val(windows, cfg.val_fraction, rng)

    normal = [w.features for w in train_w if w.label == NORMAL]
    anomalous = [w.features for w in train_w if w.label == ANOMALOUS]
    n_normal, k, m = len(normal), cfg.batch_normal, cfg.batch_anomalous
    if n_normal < k or len(anomalous) < m:
        raise ValueError(f"training split smaller than one minibatch: need {k} normal / "
                         f"{m} anomalous windows, have {n_normal} / {len(anomalous)}")
    # normal rows first, then anomalous: one gather per step builds the batch
    pool = np.stack(normal + anomalous)
    normal_pool = pool[:n_normal]
    val_feats = np.stack([w.features for w in val_w])
    val_is_normal = np.array([w.label == NORMAL for w in val_w])

    params = model_mod.init_params(encoder_dims, projection_dims, rng)
    loss_cfg = LossConfig(tau=cfg.tau, negative_mode=cfg.negative_mode)
    best: dict[str, Checkpoint] = {}
    log: list[LogRow] = []
    n_batches = math.ceil(n_normal / k)

    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at(epoch, cfg)
        epoch_loss = 0.0
        for step in range(n_batches):
            x = _sample_batch(pool, n_normal, k, m, rng)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    trace = model_mod.forward(params, x)
                except DegenerateVectorError as exc:
                    raise TrainingDivergedError(
                        f"degenerate embedding at epoch {epoch}, step {step + 1}: {exc}"
                    ) from exc
                batch = LossBatch(trace.v[:k], trace.v[k:])
                loss = batch_loss(batch, loss_cfg)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss!r} at epoch {epoch}, step {step + 1}"
                )
            grad_n, grad_a = batch_loss_grad(batch, loss_cfg)
            grads = model_mod.backward(params, trace, np.concatenate([grad_n, grad_a]))
            model_mod.sgd_step(params, grads, lr)
            epoch_loss += loss

        last_epoch = epoch == cfg.epochs
        due = epoch % cfg.validate_every == 0
        if due or (last_epoch and not best):
            aucs = {}
            for pathway in scoring.PATHWAYS:
                auc = _validation_auc(params, normal_pool, val_feats, val_is_normal,
                                      pathway == "projection")
                aucs[pathway] = auc
                if pathway not in best or auc > best[pathway].val_auc:
                    best[pathway] = Checkpoint(params.copy(), auc, epoch)
            log.append(LogRow(epoch, epoch_loss / n_batches,
                              aucs["projection"], aucs["encoder"]))

    return TrainResult(best=best, final_params=params, log=log)


def save_training_log(path: str, log: list[LogRow]) -> None:
    """CSV with one line per validation event."""
    with open(path, "w") as f:
        f.write("epoch,mean_loss,val_auc_projection,val_auc_encoder\n")
        for row in log:
            f.write(f"{row.epoch},{row.mean_loss!r},"
                    f"{row.val_auc_projection!r},{row.val_auc_encoder!r}\n")
