import math
import re
from dataclasses import fields

import numpy as np
import pytest

from supconad import model as M
from supconad import trainer
from supconad.loss import LossBatch, LossConfig, batch_loss, batch_loss_grad
from supconad.numerics import Rng
from supconad.synthgen import ANOMALOUS, MODALITIES, NORMAL, Window
from supconad.trainer import (TrainConfig, TrainingDivergedError, _sample_batch,
                              lr_at, save_training_log, train)


def toy_windows(n_normal=60, n_anomalous=30, dim=4, seed=0, gap=2.0):
    """Linearly separable two-cluster windows around +/- gap * e1."""
    rng = Rng(seed)
    out = []
    for i in range(n_normal + n_anomalous):
        label = NORMAL if i < n_normal else ANOMALOUS
        center = np.zeros(dim)
        center[0] = gap if label == NORMAL else -gap
        out.append(Window(center + rng.gaussian_array((dim,), 0, 0.4), label,
                          i, 0, MODALITIES[0], "train", None))
    return out


# -- learning-rate schedule -------------------------------------------------------

def test_lr_schedule_matches_reference_protocol():
    cfg = TrainConfig(epochs=250, lr0=0.01, lr_decay_factor=0.1, lr_decay_every=100)
    assert lr_at(1, cfg) == 0.01
    assert lr_at(100, cfg) == 0.01
    assert abs(lr_at(101, cfg) - 0.001) < 1e-18
    assert abs(lr_at(200, cfg) - 0.001) < 1e-18
    assert abs(lr_at(201, cfg) - 0.0001) < 1e-19
    assert abs(lr_at(250, cfg) - 0.0001) < 1e-19


def test_lr_schedule_constant_when_factor_one():
    cfg = TrainConfig(lr_decay_factor=1.0)
    assert all(lr_at(e, cfg) == cfg.lr0 for e in (1, 7, 100, 999))


def test_lr_rejects_nonpositive_epoch():
    with pytest.raises(ValueError):
        lr_at(0, TrainConfig())


# -- batch sampling ------------------------------------------------------------------

def toy_pool(n_normal, n_anomalous):
    """The trainer's stacked pool: normal rows first; row r is filled with r."""
    return np.repeat(np.arange(n_normal + n_anomalous, dtype=float)[:, None], 4, axis=1)


def test_sample_batch_sizes_match_reference_protocol():
    x = _sample_batch(toy_pool(220, 400), 220, 10, 150, Rng(0), 0.0)
    assert x.shape == (160, 4)
    assert np.all(x[:10] < 220)      # anchors come from the normal rows
    assert np.all(x[10:] >= 220)     # negatives from the anomalous rows


def test_sample_batch_zero_jitter_returns_features_unmodified():
    pool = toy_pool(20, 10)
    x = _sample_batch(pool, 20, 4, 3, Rng(1), 0.0)
    for row in x:
        assert np.array_equal(pool[int(row[0])], row)


def test_sample_batch_jitter_perturbs_features():
    pool = toy_pool(20, 10)
    plain = _sample_batch(pool, 20, 4, 3, Rng(1), 0.0)
    jittered = _sample_batch(pool, 20, 4, 3, Rng(1), 0.1)   # same rows, then noise
    assert np.all(plain != jittered)
    assert np.max(np.abs(plain - jittered)) < 1.0


def test_sample_batch_without_replacement():
    x = _sample_batch(toy_pool(12, 6), 12, 12, 6, Rng(2), 0.0)
    assert sorted(x[:, 0]) == list(range(18))


def test_sample_batch_insufficient_windows_rejected():
    with pytest.raises(ValueError, match="need 10 normal / 3 anomalous windows"):
        train(toy_windows(5, 5), *DIMS, quick_cfg(batch_normal=10, batch_anomalous=3))


# -- training ------------------------------------------------------------------------

DIMS = ([4, 8, 6], [6, 3])


def quick_cfg(**over):
    base = dict(epochs=10, lr0=0.05, lr_decay_every=5, validate_every=2,
                batch_normal=4, batch_anomalous=8, seed=3)
    base.update(over)
    return TrainConfig(**base)


def _params_at_init(windows, cfg):
    """Replicate the trainer's rng state at init_params time."""
    from supconad.synthgen import split_train_val
    rng = Rng(cfg.seed)
    split_train_val(windows, cfg.val_fraction, rng)
    return M.init_params(*DIMS, rng)


def test_zero_learning_rate_keeps_initial_params():
    windows = toy_windows()
    cfg = quick_cfg(lr0=0.0)
    result = train(windows, *DIMS, cfg)
    fresh = _params_at_init(windows, cfg)
    for la, lb in zip(result.final_params.layers, fresh.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
    # every validation sees identical params, so the tie-break keeps the first
    assert result.best["projection"].epoch == cfg.validate_every
    assert result.best["encoder"].epoch == cfg.validate_every


def test_separable_toy_dataset_reaches_high_auc():
    windows = toy_windows(60, 30)
    cfg = TrainConfig(epochs=200, lr0=0.01, lr_decay_every=100, validate_every=10,
                      batch_normal=4, batch_anomalous=8, seed=1)
    result = train(windows, *DIMS, cfg)
    assert result.best["projection"].val_auc >= 0.99


def test_training_is_deterministic():
    windows = toy_windows()
    a = train(windows, *DIMS, quick_cfg())
    b = train(windows, *DIMS, quick_cfg())
    for la, lb in zip(a.final_params.layers, b.final_params.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
    for pa, pb in zip(a.best.values(), b.best.values()):
        assert pa.val_auc == pb.val_auc and pa.epoch == pb.epoch
    assert [(r.epoch, r.mean_loss) for r in a.log] == [(r.epoch, r.mean_loss) for r in b.log]


def test_checkpoints_do_not_share_memory_with_the_final_params():
    result = train(toy_windows(), *DIMS, quick_cfg(momentum=0.5))
    final = result.final_params
    for ckpt in result.best.values():
        assert not np.shares_memory(ckpt.params.flat, final.flat)
        for layer in ckpt.params.layers:
            assert np.shares_memory(layer.weight, ckpt.params.flat)
            assert not np.shares_memory(layer.weight, final.flat)
    assert not np.shares_memory(result.best["projection"].params.flat,
                                result.best["encoder"].params.flat)


def test_best_checkpoint_dominates_log():
    result = train(toy_windows(), *DIMS, quick_cfg())
    assert result.best["projection"].val_auc >= max(r.val_auc_projection for r in result.log)
    assert result.best["encoder"].val_auc >= max(r.val_auc_encoder for r in result.log)
    assert 0.0 <= result.best["projection"].val_auc <= 1.0


def test_losses_in_log_are_finite():
    result = train(toy_windows(), *DIMS, quick_cfg())
    assert all(math.isfinite(r.mean_loss) for r in result.log)
    assert len(result.log) == 5  # epochs 2,4,6,8,10


def test_single_sgd_step_decreases_batch_loss():
    loss_cfg = LossConfig(tau=0.5, negative_mode="average")
    for seed in range(10):
        rng = Rng(100 + seed)
        params = M.init_params([5, 24, 12], [12, 4], rng)
        x = rng.gaussian_array((9, 5))
        k = 4

        def current_loss():
            tr = M.forward(params, x)
            return batch_loss(LossBatch(tr.v[:k], tr.v[k:]), loss_cfg)

        before = current_loss()
        tr = M.forward(params, x)
        gn, ga = batch_loss_grad(LossBatch(tr.v[:k], tr.v[k:]), loss_cfg)
        grads = M.backward(params, tr, np.vstack([gn, ga]))
        M.sgd_step(params, grads, lr=1e-4)
        assert current_loss() < before


def test_divergence_aborts_with_diagnostic():
    # an absurd learning rate with extreme-magnitude features overflows the
    # forward pass; the trainer must abort with a located diagnostic
    rng = Rng(0)
    windows = [Window(np.ones(4) + rng.gaussian_array((4,), 0, 0.2), NORMAL, i, 0,
                      MODALITIES[0], "train", None) for i in range(40)]
    windows += [Window(np.full(4, 1e250), ANOMALOUS, 40 + i, 0,
                       MODALITIES[0], "train", None) for i in range(20)]
    cfg = quick_cfg(lr0=1e60, epochs=3, validate_every=1)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        train(windows, *DIMS, cfg)


def test_nan_weights_abort_naming_epoch_and_step(monkeypatch):
    # 48 training normals / batch_normal 4 = 12 steps per epoch; the weights
    # turn NaN after the 14th update, so forward fails at epoch 2, step 3
    real_sgd_step = M.sgd_step
    updates = []

    def poisoning_sgd_step(params, *args, **kwargs):
        out = real_sgd_step(params, *args, **kwargs)
        updates.append(1)
        if len(updates) == 14:
            params.layers[0].weight[:] = np.nan
        return out

    monkeypatch.setattr(M, "sgd_step", poisoning_sgd_step)
    with pytest.raises(TrainingDivergedError, match=r"at epoch 2, step 3: "):
        train(toy_windows(), *DIMS, quick_cfg())
    assert len(updates) == 14


def test_training_log_csv(tmp_path):
    result = train(toy_windows(), *DIMS, quick_cfg())
    path = tmp_path / "log.csv"
    save_training_log(str(path), result.log)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,val_auc_projection,val_auc_encoder"
    assert len(lines) == len(result.log) + 1
    fields = lines[1].split(",")
    assert int(fields[0]) == result.log[0].epoch
    assert float(fields[1]) == result.log[0].mean_loss


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_normal=1)
    with pytest.raises(ValueError):
        TrainConfig(lr0=-0.01)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(jitter_sigma=-0.1)
    with pytest.raises(ValueError, match="negative_mode: unknown 'avg'"):
        TrainConfig(negative_mode="avg")
    TrainConfig(lr0=0.0)  # zero learning rate is a legitimate configuration


@pytest.mark.parametrize("name, value", [
    ("epochs", 0), ("lr0", -0.01), ("lr0", math.nan), ("lr_decay_factor", 0.0),
    ("lr_decay_every", 0), ("tau", 0.0), ("batch_normal", 1), ("batch_anomalous", 0),
    ("validate_every", 0), ("negative_mode", "avg"), ("val_fraction", 1.0),
    ("jitter_sigma", -0.1), ("momentum", -0.5),
])
def test_range_error_names_exactly_its_field(name, value):
    with pytest.raises(ValueError, match=f"^{name}: ") as exc:
        TrainConfig(**{name: value})
    named = set(re.findall(r"\w+", str(exc.value))) & {f.name for f in fields(TrainConfig)}
    assert named == {name}

