import itertools
import os

import numpy as np
import pytest

from dataclasses import replace

from supconad import experiment, scoring, trainer
from supconad.experiment import (CellScores, ExperimentConfig, _train_models_for,
                                 derive_cell_seed, run_benchmark_seed, run_grid, run_group)
from supconad.metrics import LabeledScores, roc_auc
from supconad.numerics import DegenerateVectorError
from supconad.stats import analyze, load_matrix_csv
from supconad.synthgen import (MODALITIES, GenConfig, Modality, by_modality,
                               dataset_windows, generate_dataset)
from supconad.trainer import TrainConfig

TINY = ExperimentConfig(
    gen=GenConfig(frame_dim=6, frames_per_clip=96, train_normal_clips=22,
                  train_anomalous_clips=4, test_normal_clips=4,
                  test_anomalous_clips=3, seen_archetypes=2, unseen_archetypes=3),
    train=TrainConfig(epochs=4, validate_every=2, lr_decay_every=2,
                      batch_normal=2, batch_anomalous=4),
    encoder_dims=(96, 32, 16),
    projection_dims=(16, 8),
    seeds=(5,),
)


@pytest.mark.parametrize("field, value", [
    ("loss_modes", "averge"), ("head_modes", "encoderr"),
    ("labelling_modes", "manul"), ("combos", "fusion_rgb"),
])
def test_unknown_axis_value_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field}: unknown '{value}' \\(known: "):
        replace(TINY, **{field: (*getattr(TINY, field), value)})


@pytest.mark.parametrize("changes, message", [
    (dict(encoder_dims=(192, 32, 16)), r"encoder_dims \(192, 32, 16\) must start with 96, "
                                        r"the features of a window at frame_dim 6"),
    (dict(projection_dims=(8, 4)), r"projection_dims \(8, 4\) must start with 16"),
])
def test_dims_that_do_not_chain_are_rejected(changes, message):
    with pytest.raises(ValueError, match=message):
        replace(TINY, **changes)


def test_method_labels_cover_the_eight_variants():
    labels = ExperimentConfig().method_labels()
    assert len(labels) == 8
    assert labels[0] == "sum-encoder-original"
    assert labels[-1] == "average-projection-manual"


def test_cell_seeds_are_distinct_and_stable():
    seeds = {
        derive_cell_seed(7, lab, loss, mod)
        for lab, loss, mod in itertools.product(
            ("original", "manual"), ("sum", "average"), MODALITIES)
    }
    assert len(seeds) == 16
    assert derive_cell_seed(7, "manual", "average", Modality.TOP_IR) == \
        derive_cell_seed(7, "manual", "average", Modality.TOP_IR)
    assert derive_cell_seed(7, "manual", "average", Modality.TOP_IR) != \
        derive_cell_seed(8, "manual", "average", Modality.TOP_IR)


def test_cell_scores_fuse_is_subset_mean(np_rng):
    scores = {m: np_rng.uniform(-1, 1, size=6) for m in MODALITIES}
    cell = CellScores(scores, np_rng.random(6) < 0.5, list(range(6)), [0] * 6)
    combo = (Modality.TOP_DEPTH, Modality.FRONT_IR)
    expect = (scores[Modality.TOP_DEPTH] + scores[Modality.FRONT_IR]) / 2.0
    assert np.allclose(cell.fused(combo), expect)


def test_tiny_grid_to_stats_pipeline(tmp_path):
    cfg = replace(TINY, outdir=str(tmp_path))
    result = run_grid(cfg)
    assert result.ok
    assert len(result.cells) == 8 * 9
    matrix = load_matrix_csv(os.path.join(cfg.outdir, "grid_roc_mean.csv"))
    assert matrix.methods == tuple(cfg.method_labels())
    assert matrix.values.shape == (8, 9)
    report = analyze(matrix)  # smoke: full pipeline runs on grid output
    assert 0.0 <= report.friedman_p <= 1.0


def test_benchmark_seed_reports_consistent_fields(tmp_path):
    r = run_benchmark_seed(TINY, 5)
    assert set(r.single_roc_auc) == {m.key for m in MODALITIES}
    assert 0.0 <= r.fused_roc_auc <= 1.0
    assert 0.0 <= r.fused_unseen_roc_auc <= 1.0
    assert r.best_single == max(r.single_roc_auc.values())


# the single-modality combination of each modality, by modality key
_SINGLE_COMBO = {combo[0].key: name for name, combo in scoring.MODALITY_COMBOS.items()
                 if len(combo) == 1}


@pytest.fixture(scope="module")
def tiny_grid_seeds_5_6(tmp_path_factory):
    cfg = replace(TINY, seeds=(5, 6), outdir=str(tmp_path_factory.mktemp("grid")))
    return cfg, run_grid(cfg)


def test_benchmark_seed_is_the_grid_cell_of_its_group(tiny_grid_seeds_5_6):
    cfg, grid = tiny_grid_seeds_5_6
    assert grid.ok and set(_SINGLE_COMBO) == {m.key for m in MODALITIES}
    method = "average-projection-manual"
    for seed in cfg.seeds:
        r = run_benchmark_seed(TINY, seed)
        assert r.fused_roc_auc == grid.cells[(seed, method, "fusion_dir")][0]
        for key, combo in _SINGLE_COMBO.items():
            assert r.single_roc_auc[key] == grid.cells[(seed, method, combo)][0]


def test_grid_over_a_subset_of_the_axes_gives_the_same_cells(tiny_grid_seeds_5_6, tmp_path):
    cfg, full = tiny_grid_seeds_5_6
    combos = ("front_ir", "fusion_d")
    sub = run_grid(replace(cfg, labelling_modes=("manual",), loss_modes=("average",),
                           head_modes=("encoder",), combos=combos, outdir=str(tmp_path)))
    assert sub.ok and set(sub.cells) == {
        (seed, "average-encoder-manual", combo) for seed in cfg.seeds for combo in combos}
    assert sub.cells == {key: full.cells[key] for key in sub.cells}


def _default_cell_fused_roc(cfg, seed, labelling, loss_mode, head):
    ds = generate_dataset(replace(cfg.gen, seed=seed))
    train_by_mod = by_modality(dataset_windows(ds, labelling, split="train"))
    test_by_mod = by_modality(dataset_windows(ds, "manual", split="test"))
    cell = run_group(cfg, seed, labelling, loss_mode, train_by_mod, test_by_mod, (head,))[head]
    return roc_auc(LabeledScores(cell.fused(tuple(MODALITIES)), cell.labels))


def test_seed42_modified_cell_beats_baseline_cell_regression():
    # development-time regression fixture at the default configuration:
    # (average loss, projection head, manual labelling) outperforms
    # (sum loss, encoder pathway, original labelling) on fused all-modality
    # ROC AUC at seed 42
    cfg = ExperimentConfig()
    best = _default_cell_fused_roc(cfg, 42, "manual", "average", "projection")
    baseline = _default_cell_fused_roc(cfg, 42, "original", "sum", "encoder")
    assert best > baseline
    assert best >= 0.95  # recorded development value: 0.9830 vs 0.9756


# -- per-modality training on a fork pool -------------------------------------------

def _use_workers(monkeypatch, n):
    monkeypatch.setattr(experiment, "train_workers", lambda n_tasks: min(n_tasks, n))


def _tiny_train_by_mod(labelling="manual"):
    ds = generate_dataset(replace(TINY.gen, seed=5))
    return by_modality(dataset_windows(ds, labelling, split="train"))


def _assert_same_params(a, b):
    for la, lb in zip(a.layers, b.layers, strict=True):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_pooled_training_is_bit_identical_to_in_process(monkeypatch):
    train_by_mod = _tiny_train_by_mod()
    runs = {}
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        runs[workers] = _train_models_for(train_by_mod, TINY, 5, "manual", "average")
    assert list(runs[2]) == list(MODALITIES)
    for mod in MODALITIES:
        serial, pooled = runs[1][mod], runs[2][mod]
        assert pooled.log == serial.log
        _assert_same_params(pooled.final_params, serial.final_params)
        assert list(pooled.best) == list(serial.best)
        for pathway, ckpt in serial.best.items():
            assert (pooled.best[pathway].val_auc, pooled.best[pathway].epoch) == \
                (ckpt.val_auc, ckpt.epoch)
            _assert_same_params(pooled.best[pathway].params, ckpt.params)


def _diverge_in_sum_groups(monkeypatch):
    """In sum-loss groups the second modality diverges for real and the fourth fails at once."""
    real_train = trainer.train

    def train(windows, encoder_dims, projection_dims, cfg):
        mod = windows[0].modality
        if cfg.negative_mode == "sum" and mod is MODALITIES[3]:
            raise trainer.TrainingDivergedError(f"immediate failure of {mod.key}")
        if cfg.negative_mode == "sum" and mod is MODALITIES[1]:
            cfg = replace(cfg, lr0=1e60)
        return real_train(windows, encoder_dims, projection_dims, cfg)

    monkeypatch.setattr(trainer, "train", train)


def test_worker_divergence_reraises_the_in_process_error(monkeypatch):
    _diverge_in_sum_groups(monkeypatch)
    train_by_mod = _tiny_train_by_mod()
    messages = {}
    # with four workers the fourth modality fails first; modality order still wins
    for workers in (1, 4):
        _use_workers(monkeypatch, workers)
        with pytest.raises(trainer.TrainingDivergedError) as exc:
            _train_models_for(train_by_mod, TINY, 5, "manual", "sum")
        messages[workers] = str(exc.value)
    assert messages[4] == messages[1]
    assert messages[1].startswith("degenerate embedding at epoch 1, step ")


def test_grid_failures_are_the_same_pooled_and_in_process(monkeypatch, tmp_path):
    _diverge_in_sum_groups(monkeypatch)
    results = {}
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        results[workers] = run_grid(replace(TINY, outdir=str(tmp_path / str(workers))))
    serial, pooled = results[1], results[2]
    assert pooled.failures == serial.failures
    assert [(f["labelling"], f["loss"], f["head"]) for f in serial.failures] == [
        (lab, "sum", head) for lab in ("original", "manual") for head in ("encoder", "projection")]
    assert pooled.cells == serial.cells
    assert len(serial.cells) == 4 * 9


@pytest.mark.parametrize("workers", [1, 2])
def test_degenerate_vector_fails_only_its_group(monkeypatch, tmp_path, workers):
    _use_workers(monkeypatch, workers)
    # raised inside training (a worker when pooled) of the (original, sum) group
    real_train = trainer.train
    bad_seed = derive_cell_seed(5, "original", "sum", MODALITIES[2])

    def train(windows, encoder_dims, projection_dims, cfg):
        if cfg.seed == bad_seed:
            raise DegenerateVectorError("cannot normalize row with degenerate norm")
        return real_train(windows, encoder_dims, projection_dims, cfg)

    # raised while scoring the projection head of the second group that gets
    # to scoring, (manual, sum), after its encoder head scored cleanly
    real_template = scoring.build_template
    projection_groups = []

    def build_template(params, normal_features, use_projection, modality=None):
        if use_projection and modality is MODALITIES[0]:
            projection_groups.append(modality)
            if len(projection_groups) == 2:
                raise DegenerateVectorError("template norm is degenerate")
        return real_template(params, normal_features, use_projection, modality)

    monkeypatch.setattr(trainer, "train", train)
    monkeypatch.setattr(scoring, "build_template", build_template)
    cfg = replace(TINY, outdir=str(tmp_path))
    result = run_grid(cfg)
    assert [(f["labelling"], f["loss"], f["head"], f["error"]) for f in result.failures] == [
        ("original", "sum", "encoder", "cannot normalize row with degenerate norm"),
        ("original", "sum", "projection", "cannot normalize row with degenerate norm"),
        ("manual", "sum", "encoder", "template norm is degenerate"),
        ("manual", "sum", "projection", "template norm is degenerate"),
    ]
    assert {method for _, method, _ in result.cells} == {
        f"average-{head}-{lab}" for head in ("encoder", "projection")
        for lab in ("original", "manual")}
    assert sorted(n for n in os.listdir(tmp_path) if n.startswith("scores_")) == sorted(
        f"scores_seed5_average-{head}-{lab}.csv" for head in ("encoder", "projection")
        for lab in ("original", "manual"))


def _training_pids(monkeypatch):
    """Run _train_models_for with a stub trainer that reports the process it ran in."""
    monkeypatch.setattr(trainer, "train", lambda *task: os.getpid())
    return set(_train_models_for(_tiny_train_by_mod(), TINY, 5, "manual", "sum").values())


def test_two_usable_cpus_train_in_two_forked_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert experiment.train_workers(len(MODALITIES)) == 2
    pids = _training_pids(monkeypatch)
    assert os.getpid() not in pids and 1 <= len(pids) <= 2


def test_without_cpu_affinity_training_runs_in_process(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert experiment.train_workers(len(MODALITIES)) == 1
    assert _training_pids(monkeypatch) == {os.getpid()}


def test_without_fork_training_runs_in_process(monkeypatch):
    # Windows offers only the spawn start method
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(experiment.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert experiment.train_workers(len(MODALITIES)) == 1
    assert _training_pids(monkeypatch) == {os.getpid()}
