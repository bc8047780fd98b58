"""Minibatch sampling, plain SGD with step decay, and AUC-based checkpointing.

Training always optimizes the contrastive loss on the projection-head
embedding.  Validation, run every few epochs on a stratified held-out slice
of the training windows, scores with the normal-template cosine pipeline
under both embedding pathways and keeps the best parameters per pathway, so
checkpoint selection matches whichever pathway is used at test time.  A
lockstep group is validated in one stacked scoring pass per pathway.  A
TrainResult is those best checkpoints plus the validation log; the
parameters of the last epoch are not kept.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import model as model_mod
from . import scoring
from .loss import LossBatch, LossConfig, batch_loss, batch_loss_grad
from .metrics import LabeledScores, roc_auc
from .numerics import DegenerateVectorError, Rng, check_lower_bound, check_seed, write_rows
from .synthgen import NORMAL, Window, split_train_val


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


# the failures that cost only the model that meets them
MODEL_FAILURES = (TrainingDivergedError, DegenerateVectorError)


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
            check_lower_bound(name, getattr(self, name), low)
        check_lower_bound("lr_decay_factor", self.lr_decay_factor, 0, strict=True)
        # checks tau and negative_mode; as one model's mode, so that a tuple is rejected
        LossConfig(self.tau, (self.negative_mode,))
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction: must be in (0, 1), got {self.val_fraction!r}")
        check_seed("seed", self.seed)


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
    log: list[LogRow]


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step-decay schedule: lr0 * factor ** floor((epoch - 1) / every)."""
    if epoch < 1:
        raise ValueError("epochs are 1-based")
    return cfg.lr0 * cfg.lr_decay_factor ** ((epoch - 1) // cfg.lr_decay_every)


def _batch_sampler(pool: np.ndarray, n_normal: int, k: int, m: int, rngs: list[Rng]):
    """A function that draws one stacked minibatch per call: for member i, k
    normal then m anomalous rows of pool[i], each group drawn without
    replacement with rngs[i], as one (n, k + m, dim) array made by one take.

    pool is (n, rows, dim) and holds each member's n_normal normal rows first.
    """
    n, rows, dim = pool.shape
    flat = pool.reshape(n * rows, dim)
    # each drawn index's offset in flat: its member's first row, plus n_normal for a negative
    start = (np.arange(n)[:, None] * rows + np.repeat([0, n_normal], [k, m])).ravel()
    sizes = ((n_normal, k), (rows - n_normal, m))

    def draw() -> np.ndarray:
        idx = np.concatenate([rng.choice_without_replacement(size, count)
                              for rng in rngs for size, count in sizes])
        idx += start
        return flat.take(idx, axis=0).reshape(n, k + m, dim)

    return draw


def train(windows: list[Window], encoder_dims: list[int], projection_dims: list[int],
          cfg: TrainConfig) -> TrainResult:
    """Full training run over one modality's training windows.

    An epoch is ceil(n_normal / batch_normal) minibatches; anomalous windows
    are resampled freely.  The best checkpoint per embedding pathway is the
    earliest epoch achieving the maximum validation AUC.
    """
    return _train_lockstep([(windows, encoder_dims, projection_dims, cfg)])[0]


def train_group(tasks: list[tuple]) -> list[TrainResult | Exception]:
    """Run ``train(*task)`` for each task, all in lockstep, with outcomes
    bit-identical to training them one at a time.

    Each step is one forward, loss, backward and update over the members'
    params stacked on a leading model axis; each member keeps its own Rng,
    split, loss mode, batches, validation and checkpoints.  The members must
    agree on every config field except the seed and negative_mode, on their
    dims and on their split sizes, validation's too.  A member's outcome is
    its TrainResult, or the MODEL_FAILURES error that ``train(*task)`` raises:
    when a member of a larger group fails, every member is trained again
    alone, in order.
    """
    if len(tasks) > 1:
        try:
            return _train_lockstep(tasks)
        except MODEL_FAILURES:
            pass
    outcomes = []
    for task in tasks:
        try:
            outcomes.append(train(*task))
        except MODEL_FAILURES as exc:
            outcomes.append(exc)
    return outcomes


def _train_lockstep(tasks: list[tuple]) -> list[TrainResult]:
    _, encoder_dims, projection_dims, cfg = tasks[0]
    for _, enc, proj, other in tasks[1:]:
        if replace(other, seed=cfg.seed, negative_mode=cfg.negative_mode) != cfg:
            raise ValueError("train_group: members differ in a config field other than "
                             "seed and negative_mode")
        if (list(enc), list(proj)) != (list(encoder_dims), list(projection_dims)):
            raise ValueError("train_group: members differ in their dims")
    k, m = cfg.batch_normal, cfg.batch_anomalous
    rngs, splits, members = [], [], []
    for windows, _, _, member_cfg in tasks:
        rng = Rng(member_cfg.seed)
        splits.append(split_train_val(windows, cfg.val_fraction, rng))
        members.append(model_mod.init_params(encoder_dims, projection_dims, rng))
        rngs.append(rng)
    sizes = {(sum(w.label == NORMAL for w in train_w), len(train_w), len(val_w))
             for train_w, val_w in splits}
    if len(sizes) > 1:
        raise ValueError("train_group: members' training splits differ in size")
    ((n_normal, n_train, _),) = sizes
    if n_normal < k or n_train - n_normal < m:
        raise ValueError(f"training split smaller than one minibatch: need {k} normal / "
                         f"{m} anomalous windows, have {n_normal} / {n_train - n_normal}")
    # every member's rows, normal first as the split lists them, in one array that each
    # step gathers from, and its validation rows in one array that each validation scores
    pool = np.array([[w.features for w in train_w] for train_w, _ in splits])
    val = np.array([[w.features for w in val_w] for _, val_w in splits])
    val_is_normal = [np.array([w.label == NORMAL for w in val_w]) for _, val_w in splits]
    draw = _batch_sampler(pool, n_normal, k, m, rngs)

    params = model_mod.ModelParams.stack(members)
    loss_cfg = LossConfig(cfg.tau, tuple(member_cfg.negative_mode for *_, member_cfg in tasks))
    best: list[dict[str, Checkpoint]] = [{} for _ in tasks]
    logs: list[list[LogRow]] = [[] for _ in tasks]
    n_batches = math.ceil(n_normal / k)

    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at(epoch, cfg)
        epoch_loss = [0.0] * len(tasks)
        for step in range(n_batches):
            x = draw()
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    trace = model_mod.forward(params, x)
                except DegenerateVectorError as exc:
                    raise TrainingDivergedError(
                        f"degenerate embedding at epoch {epoch}, step {step + 1}: {exc}"
                    ) from exc
                batch = LossBatch(trace.v[:, :k], trace.v[:, k:])
                losses = batch_loss(batch, loss_cfg).tolist()
            for loss in losses:
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss {loss!r} at epoch {epoch}, step {step + 1}"
                    )
            grad_n, grad_a = batch_loss_grad(batch, loss_cfg)
            grads = model_mod.backward(params, trace, np.concatenate([grad_n, grad_a], axis=1))
            model_mod.sgd_step(params, grads, lr)
            epoch_loss = [total + loss for total, loss in zip(epoch_loss, losses)]

        if epoch % cfg.validate_every == 0 or (epoch == cfg.epochs and not best[0]):
            scores = {}    # by pathway: every member's, in one stacked pass
            for pathway in scoring.PATHWAYS:
                use_proj = pathway == "projection"
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        template = scoring.build_template(params, pool[:, :n_normal], use_proj)
                        scores[pathway] = scoring.score_windows(template, params, val, use_proj)
                except DegenerateVectorError as exc:
                    raise DegenerateVectorError(
                        f"validation at epoch {epoch}, {pathway} pathway: {exc}") from exc
            for i, is_normal in enumerate(val_is_normal):
                aucs = {}
                member = None    # one copy, shared by each pathway this validation improves
                for pathway in scoring.PATHWAYS:
                    aucs[pathway] = auc = roc_auc(LabeledScores(scores[pathway][i], is_normal))
                    if pathway not in best[i] or auc > best[i][pathway].val_auc:
                        member = member or params.member(i)
                        best[i][pathway] = Checkpoint(member, auc, epoch)
                logs[i].append(LogRow(epoch, epoch_loss[i] / n_batches,
                                      aucs["projection"], aucs["encoder"]))

    return [TrainResult(best=best[i], log=logs[i]) for i in range(len(tasks))]


def save_training_log(path: str, log: list[LogRow]) -> None:
    """CSV with one line per validation event."""
    write_rows(path, [("epoch", "mean_loss", "val_auc_projection", "val_auc_encoder")],
               map(astuple, log))
