import gc
import itertools
import os
import pickle
import warnings
import weakref

import numpy as np
import pytest

from dataclasses import replace

from supconad import experiment, model, scoring, synthgen, trainer
from supconad.experiment import (CellScores, ExperimentConfig, _train_and_score,
                                 derive_cell_seed, run_benchmark_seed, run_grid)
from supconad.loss import NEGATIVE_MODES
from supconad.metrics import LabeledScores, roc_auc
from supconad.numerics import DegenerateVectorError
from supconad.stats import analyze, load_matrix_csv
from supconad.synthgen import (MODALITIES, GenConfig, Modality, by_modality,
                               dataset_windows, generate_dataset)
from supconad.trainer import TrainConfig

import bit_identity
from test_acceptance import CRITERION_8

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


@pytest.mark.parametrize("field", list(experiment.AXES))
def test_repeated_axis_value_is_rejected(field):
    values = (*getattr(TINY, field), getattr(TINY, field)[0])
    with pytest.raises(ValueError, match=f"^{field}: repeats a value, got "):
        replace(TINY, **{field: values})


@pytest.mark.parametrize("changes, message", [
    (dict(encoder_dims=(192, 32, 16)), "encoder_dims: must start with 96, the features of a "
                                        "window at frame_dim 6, got (192, 32, 16)"),
    (dict(projection_dims=(8, 4)),
     "projection_dims: must start with 16, the last of encoder_dims, got (8, 4)"),
    (dict(encoder_dims=(96,)), "encoder_dims: must list at least 2 widths, got (96,)"),
    (dict(projection_dims=(16,)), "projection_dims: must list at least 2 widths, got (16,)"),
    (dict(encoder_dims=(96, 0, 16)), "encoder_dims: every width must be >= 1, got (96, 0, 16)"),
    (dict(encoder_dims=(96, -5, 16)),
     "encoder_dims: every width must be >= 1, got (96, -5, 16)"),
    (dict(projection_dims=(16, 0, 8)),
     "projection_dims: every width must be >= 1, got (16, 0, 8)"),
    (dict(projection_dims=(16, 1)), "projection_dims: must end at width >= 2, got (16, 1)"),
], ids=["encoder-window", "projection-chain", "encoder-one-width", "projection-one-width",
        "encoder-zero", "encoder-negative", "projection-zero", "projection-output-1"])
def test_dims_that_do_not_chain_are_rejected(changes, message):
    with pytest.raises(ValueError) as exc:
        replace(TINY, **changes)
    assert str(exc.value) == message


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


def test_benchmark_seed_without_an_unseen_test_window_fails_before_training(monkeypatch):
    def train_and_score(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(experiment, "_train_and_score", train_and_score)
    # both test anomalous clips take one of the two seen archetypes
    cfg = replace(TINY, gen=replace(TINY.gen, test_anomalous_clips=2))
    with pytest.raises(ValueError, match=r"^the test split holds no unseen-archetype window at "
                                         r"GenConfig test_anomalous_clips=2, seen_archetypes=2, "
                                         r"unseen_archetypes=3$") as exc:
        run_benchmark_seed(cfg, 5)
    assert "\n" not in str(exc.value)


def _watch_release(monkeypatch):
    """Train in-process, and patch synthgen._draw_frames, trainer.train_group and
    experiment._train_and_score to record: at each draw, its split and whether an
    earlier draw's frames are alive; as each training group starts, whether any
    frames are alive and which training windows and scored cells of each earlier
    group are alive.  A drawing block is four clips, so each cut of TINY's data
    draws several blocks."""
    seen = {"frames": [], "splits": [], "held_at_draw": [], "groups": []}
    draw, train_group, train = (synthgen._draw_frames, trainer.train_group,
                                experiment._train_and_score)

    def draw_frames(ds, clips, modalities):
        seen["held_at_draw"].append(sum(r() is not None for r in seen["frames"]))
        (split,) = {c.split for c in clips}
        seen["splits"].append(split)
        frames = draw(ds, clips, modalities)
        seen["frames"].append(weakref.ref(frames))
        return frames

    def watched_train_group(tasks):
        seen["groups"].append({
            "frames_alive": sum(r() is not None for r in seen["frames"]),
            "earlier_alive": [{k: [r() for r in g[k]] for k in ("window_refs", "outcome_refs")}
                              for g in seen["groups"]],
            "window_refs": [weakref.ref(w) for windows, *_ in tasks for w in windows],
            "outcome_refs": []})
        return train_group(tasks)

    def train_and_score(*args):
        out = train(*args)
        seen["groups"][-1]["outcome_refs"] = [weakref.ref(cell) for cells in out.values()
                                              for cell in cells.values()]
        return out

    _use_workers(monkeypatch, 1)
    monkeypatch.setattr(synthgen, "_BLOCK_CLIPS", 4)
    monkeypatch.setattr(synthgen, "_draw_frames", draw_frames)
    monkeypatch.setattr(trainer, "train_group", watched_train_group)
    monkeypatch.setattr(experiment, "_train_and_score", train_and_score)
    return seen


def assert_one_block_at_a_time(seen, labellings):
    """TINY's 7 test clips drawn once, then its 26 training clips once per
    labelling, each in blocks of four; no draw starts while an earlier block's
    frames are alive."""
    assert seen["splits"] == ["test"] * 2 + ["train"] * 7 * labellings
    assert seen["held_at_draw"] == [0] * len(seen["frames"])


def test_grid_frees_the_dataset_and_each_labelling_before_the_next(monkeypatch, tmp_path):
    seen = _watch_release(monkeypatch)
    assert run_grid(replace(TINY, outdir=str(tmp_path))).ok
    assert_one_block_at_a_time(seen, 2)
    first, second = seen["groups"]
    assert first["frames_alive"] == second["frames_alive"] == 0
    (alive,) = second["earlier_alive"]
    # the first labelling's training windows and cells are all freed
    for refs in alive.values():
        assert refs and all(x is None for x in refs)


def test_benchmark_seed_frees_the_dataset_before_training(monkeypatch):
    seen = _watch_release(monkeypatch)
    run_benchmark_seed(TINY, 5)
    assert_one_block_at_a_time(seen, 1)
    (group,) = seen["groups"]
    assert group["frames_alive"] == 0


@pytest.mark.parametrize("run", ["grid", "benchmark_seed"])
def test_the_pooled_parent_draws_and_holds_only_the_test_split(monkeypatch, tmp_path, run):
    """With two workers, each cuts the training windows it trains on: the parent
    draws only the 7 test clips, and holds no training window while the pool runs."""
    drawn, held = [], []
    draw, pool = synthgen._draw_frames, experiment.ProcessPoolExecutor

    def draw_frames(ds, clips, *args):
        drawn.extend(c.split for c in clips)
        return draw(ds, clips, *args)

    def training_windows():
        gc.collect()
        return sum(isinstance(o, synthgen.Window) and o.split == "train"
                   for o in gc.get_objects())

    class WatchedPool(pool):
        def map(self, *args, **kwargs):
            held.append(training_windows())
            return super().map(*args, **kwargs)

    _use_workers(monkeypatch, 2)
    monkeypatch.setattr(synthgen, "_draw_frames", draw_frames)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", WatchedPool)
    before = training_windows()
    if run == "grid":
        assert run_grid(replace(TINY, outdir=str(tmp_path))).ok
    else:
        run_benchmark_seed(TINY, 5)
    assert drawn == ["test"] * 7
    assert held == [before] * (2 if run == "grid" else 1)


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
    test_by_mod = by_modality(dataset_windows(ds, "manual", split="test"))
    cell = _train_and_score(ds, test_by_mod, cfg, seed, labelling, (loss_mode,),
                            (head,))[loss_mode][head]
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


def _tiny_dataset():
    return generate_dataset(replace(TINY.gen, seed=5))


def _tiny_by_mod(split):
    return by_modality(dataset_windows(_tiny_dataset(), "manual", split=split))


def _tiny_train_and_score(loss_modes, heads):
    """_train_and_score on TINY's manual labelling of seed 5."""
    return _train_and_score(_tiny_dataset(), _tiny_by_mod("test"), TINY, 5,
                            "manual", loss_modes, heads)


def _assert_same_params(a, b):
    for la, lb in zip(a.layers, b.layers, strict=True):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def _scored_by_workers(monkeypatch, workers_counts, loss_modes=NEGATIVE_MODES):
    """workers -> what _train_and_score returns for TINY's manual labelling of seed 5
    at that worker count, under both heads."""
    runs = {}
    for workers in workers_counts:
        _use_workers(monkeypatch, workers)
        runs[workers] = _tiny_train_and_score(loss_modes, scoring.PATHWAYS)
    return runs


def _assert_same_scored(got, want):
    """Every loss mode's cells array_equal, or its failure the same (modality, type, message)."""
    assert list(got) == list(want)
    for loss, group in want.items():
        if isinstance(group, tuple):
            mod, error = got[loss]
            assert (mod, type(error), str(error)) == (group[0], type(group[1]), str(group[1]))
            continue
        assert list(got[loss]) == list(group)
        for head, cell in group.items():
            other = got[loss][head]
            assert list(other.scores) == list(cell.scores)
            assert all(np.array_equal(other.scores[m], cell.scores[m]) for m in cell.scores)
            assert np.array_equal(other.labels, cell.labels)
            assert (other.clip_ids, other.window_indices) == (cell.clip_ids, cell.window_indices)


@pytest.mark.parametrize("diverge", [False, True])
def test_pooled_and_in_process_runs_score_the_same(monkeypatch, diverge):
    # the eight models of a labelling, modality-major: two workers train and score two
    # groups of four, the first two modalities and the last two; three train groups
    # of 3, 3 and 2, and the middle one holds the second modality's average model and
    # both models of the third
    if diverge:
        _diverge_in_sum_groups(monkeypatch)
    runs = _scored_by_workers(monkeypatch, (1, 2, 3))
    assert isinstance(runs[1]["average"], dict) and isinstance(runs[1]["sum"], tuple) == diverge
    if diverge:
        mod, error = runs[1]["sum"]
        assert (mod, type(error)) == (MODALITIES[1], trainer.TrainingDivergedError)
    for workers in (2, 3):
        _assert_same_scored(runs[workers], runs[1])


def test_a_training_error_on_one_worker_beats_a_template_error_on_another(monkeypatch):
    # two workers: the first trains and scores modalities 0 and 1, the second 2 and 3.
    # Modality 0's template fails on the first; modality 3 fails training on the second.
    real_train_group, real_template = trainer.train_group, scoring.build_template

    def train_group(tasks):
        return [trainer.TrainingDivergedError(f"training of {windows[0].modality.key}")
                if windows[0].modality is MODALITIES[3] else outcome
                for (windows, *_), outcome in zip(tasks, real_train_group(tasks))]

    def build_template(params, normal_features, use_projection, modality=None):
        if modality is MODALITIES[0]:
            raise DegenerateVectorError("template norm is degenerate")
        return real_template(params, normal_features, use_projection, modality)

    monkeypatch.setattr(trainer, "train_group", train_group)
    monkeypatch.setattr(scoring, "build_template", build_template)
    runs = _scored_by_workers(monkeypatch, (1, 2), ("average",))
    for scored in runs.values():
        mod, error = scored["average"]
        assert (mod, type(error), str(error)) == (
            MODALITIES[3], trainer.TrainingDivergedError, f"training of {MODALITIES[3].key}")


def test_the_pooled_parent_stacks_no_rows_and_runs_no_forward(monkeypatch, tmp_path):
    # workers are forked copies: what they append goes to their own copy of calls
    calls = []
    real_stack, real_forward = np.stack, model.forward

    def stack(*args, **kwargs):
        calls.append("np.stack")
        return real_stack(*args, **kwargs)

    def forward(*args, **kwargs):
        calls.append("model.forward")
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(np, "stack", stack)
    monkeypatch.setattr(model, "forward", forward)
    _use_workers(monkeypatch, 2)
    assert run_grid(replace(TINY, outdir=str(tmp_path / "pooled"))).ok
    assert calls == []
    # in-process, the same grid's training and scoring run in this process
    _use_workers(monkeypatch, 1)
    assert run_grid(replace(TINY, outdir=str(tmp_path / "in_process"))).ok
    assert {"np.stack", "model.forward"} <= set(calls)


# -- lockstep training groups ------------------------------------------------------

def _tiny_tasks(loss_mode="average"):
    """The four (windows, encoder_dims, projection_dims, cfg) tasks of a TINY group."""
    train_by_mod = _tiny_by_mod("train")
    return [(train_by_mod[mod], list(TINY.encoder_dims), list(TINY.projection_dims),
             replace(TINY.train, negative_mode=loss_mode,
                     seed=derive_cell_seed(5, "manual", loss_mode, mod)))
            for mod in MODALITIES]


def _assert_same_result(got, want):
    assert repr(got.log) == repr(want.log)
    assert list(got.best) == list(want.best)
    for pathway, ckpt in want.best.items():
        assert (got.best[pathway].val_auc, got.best[pathway].epoch) == (ckpt.val_auc, ckpt.epoch)
        _assert_same_params(got.best[pathway].params, ckpt.params)


@pytest.mark.parametrize("loss_mode", ["sum", "average"])
@pytest.mark.parametrize("n", [2, 4])
def test_train_group_equals_training_each_task_alone(n, loss_mode):
    tasks = _tiny_tasks(loss_mode)[:n]
    results = trainer.train_group(tasks)
    assert len(results) == n
    for got, task in zip(results, tasks):
        _assert_same_result(got, trainer.train(*task))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_mixed_mode_group_equals_training_each_task_alone(n):
    # a middle slice of the grid's modality-major order, each modality's sum then average
    start = (2 * len(MODALITIES) - n) // 2
    tasks = [task for pair in zip(_tiny_tasks("sum"), _tiny_tasks("average"))
             for task in pair][start:start + n]
    assert {cfg.negative_mode for *_, cfg in tasks} == set(NEGATIVE_MODES)
    for got, task in zip(trainer.train_group(tasks), tasks, strict=True):
        _assert_same_result(got, trainer.train(*task))


def test_equal_best_epochs_share_one_params_object_also_after_a_pickle_round_trip():
    # validated at every epoch, one of the eight models has its best epochs apart
    results = trainer.train_group([(*task, replace(cfg, validate_every=1)) for *task, cfg
                                   in _tiny_tasks("sum") + _tiny_tasks("average")])
    equal = []
    for outcomes in (results, pickle.loads(pickle.dumps(results))):
        for result in outcomes:
            encoder, projection = result.best["encoder"], result.best["projection"]
            equal.append(encoder.epoch == projection.epoch)
            assert (encoder.params is projection.params) == equal[-1]
    assert set(equal) == {True, False}


def _scaled(windows, indices, factor=1e200):
    """windows, those at ``indices`` with their features scaled so far that a forward
    pass over them overflows."""
    return [replace(w, features=w.features * factor) if i in indices else w
            for i, w in enumerate(windows)]


def _solo_error(task):
    with pytest.raises(trainer.TrainingDivergedError) as exc:
        trainer.train(*task)
    return str(exc.value)


def test_group_failure_is_the_failing_members_own_error():
    tasks = _tiny_tasks()
    windows = tasks[2][0]
    tasks[2] = (_scaled(windows, range(len(windows))), *tasks[2][1:])
    with np.errstate(over="ignore", invalid="ignore"):
        want = _solo_error(tasks[2])
        outcomes = trainer.train_group(tasks)
    assert isinstance(outcomes[2], trainer.TrainingDivergedError)
    assert str(outcomes[2]) == want
    for i in (0, 1, 3):
        _assert_same_result(outcomes[i], trainer.train(*tasks[i]))


def test_earlier_members_failure_wins_in_a_group(monkeypatch):
    tasks = _tiny_tasks()
    # the second member fails later, at the step that first draws window 20;
    # the fourth fails at its first step
    tasks[1] = (_scaled(tasks[1][0], {20}), *tasks[1][1:])
    tasks[3] = (_scaled(tasks[3][0], range(len(tasks[3][0]))), *tasks[3][1:])
    with np.errstate(over="ignore", invalid="ignore"):
        second, fourth = _solo_error(tasks[1]), _solo_error(tasks[3])
        outcomes = trainer.train_group(tasks)
    # each member keeps its own outcome; the group's cells fail with the
    # first error in modality order
    assert [str(o) for o in outcomes[1::2]] == [second, fourth]
    for i in (0, 2):
        _assert_same_result(outcomes[i], trainer.train(*tasks[i]))
    monkeypatch.setattr(trainer, "train_group", lambda tasks: outcomes)
    _use_workers(monkeypatch, 1)
    mod, error = _tiny_train_and_score(("average",), ("encoder",))["average"]
    assert second != fourth and fourth.startswith("degenerate embedding at epoch 1, step 1: ")
    assert (mod, type(error), str(error)) == (MODALITIES[1], trainer.TrainingDivergedError, second)


def _validation_failure(tasks, i):
    """tasks, member i's window 0, which lands in its validation split, scaled until a
    forward pass over it overflows."""
    windows, *rest = tasks[i]
    return [*tasks[:i], (_scaled(windows, {0}), *rest), *tasks[i + 1:]]


def test_a_validation_failure_names_its_epoch_and_pathway():
    tasks = _validation_failure(_tiny_tasks(), 1)
    want = "validation at epoch 2, encoder pathway: projection output norm is degenerate"
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # validation runs under the step's errstate
        with pytest.raises(DegenerateVectorError, match=f"^{want}") as exc:
            trainer.train(*tasks[1])
        outcomes = trainer.train_group(tasks)
    assert type(outcomes[1]) is DegenerateVectorError and str(outcomes[1]) == str(exc.value)
    for i in (0, 2, 3):
        _assert_same_result(outcomes[i], trainer.train(*tasks[i]))


def test_a_grid_failure_record_names_its_modality(monkeypatch, tmp_path):
    bad_seed = derive_cell_seed(5, "manual", "average", MODALITIES[1])
    real_train_group = trainer.train_group

    def train_group(tasks):
        bad = [i for i, (*_, cfg) in enumerate(tasks) if cfg.seed == bad_seed]
        return real_train_group(_validation_failure(tasks, *bad) if bad else tasks)

    monkeypatch.setattr(trainer, "train_group", train_group)
    _use_workers(monkeypatch, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_grid(replace(TINY, outdir=str(tmp_path)))
    assert [(f["labelling"], f["loss"], f["head"], f["modality"]) for f in result.failures] == [
        ("manual", "average", head, MODALITIES[1].key) for head in ("encoder", "projection")]
    assert all(f["error"].startswith("validation at epoch 2, encoder pathway: ")
               for f in result.failures)


def test_a_group_scoring_failure_is_the_earliest_modalitys_for_both_heads(monkeypatch,
                                                                          tmp_path):
    # the projection checkpoint fails to score at the first modality and the encoder
    # checkpoint at the third; each modality is scored under both heads before the next
    failing = {MODALITIES[0]: "projection", MODALITIES[2]: "encoder"}
    real_train_group = trainer.train_group

    def train_group(tasks):
        outcomes = real_train_group(tasks)
        for (windows, *_), outcome in zip(tasks, outcomes):
            head = failing.get(windows[0].modality)
            if head:
                params = outcome.best[head].params.copy()
                params.projection[-1].weight[:] = params.projection[-1].bias[:] = 0.0
                outcome.best[head] = replace(outcome.best[head], params=params)
        return outcomes

    monkeypatch.setattr(trainer, "train_group", train_group)
    _use_workers(monkeypatch, 1)
    result = run_grid(replace(TINY, labelling_modes=("manual",), loss_modes=("average",),
                              outdir=str(tmp_path)))
    assert [(f["head"], f["modality"]) for f in result.failures] == [
        ("encoder", MODALITIES[0].key), ("projection", MODALITIES[0].key)]
    assert {f["error"] for f in result.failures} == {
        "projection output norm is degenerate or non-finite"}
    assert not result.cells


def test_train_group_rejects_members_that_differ():
    tasks = _tiny_tasks()[:2]
    windows, enc, proj, cfg = tasks[1]
    for other, message in [
        ((windows, enc, proj, replace(cfg, lr0=0.5)),
         "config field other than seed and negative_mode"),
        ((windows, enc, [16, 4], cfg), "differ in their dims"),
        ((windows[:-3], enc, proj, cfg), "training splits differ in size"),
    ]:
        with pytest.raises(ValueError, match=f"^train_group: members.*{message}"):
            trainer.train_group([tasks[0], other])


def _diverge_in_sum_groups(monkeypatch):
    """Of the sum-loss models, the second modality's diverges for real and the fourth's
    fails at once; every model keeps its own outcome."""
    real_train_group = trainer.train_group

    def train_group(tasks):
        outcomes = []
        for windows, encoder_dims, projection_dims, cfg in tasks:   # member by member
            mod = windows[0].modality
            if cfg.negative_mode == "sum" and mod is MODALITIES[3]:
                outcomes.append(trainer.TrainingDivergedError(f"immediate failure of {mod.key}"))
                continue
            if cfg.negative_mode == "sum" and mod is MODALITIES[1]:
                cfg = replace(cfg, lr0=1e60)
            outcomes += real_train_group([(windows, encoder_dims, projection_dims, cfg)])
        return outcomes

    monkeypatch.setattr(trainer, "train_group", train_group)


def test_worker_divergence_reraises_the_in_process_error(monkeypatch):
    _diverge_in_sum_groups(monkeypatch)
    messages = {}
    # with four workers the fourth modality fails first; modality order still wins
    for workers in (1, 4):
        _use_workers(monkeypatch, workers)
        mod, error = _tiny_train_and_score(("sum",), ("encoder",))["sum"]
        assert (mod, type(error)) == (MODALITIES[1], trainer.TrainingDivergedError)
        messages[workers] = str(error)
    assert messages[4] == messages[1]
    assert messages[1].startswith("degenerate embedding at epoch 1, step ")


def test_grid_failures_are_the_same_pooled_and_in_process(monkeypatch, tmp_path):
    _diverge_in_sum_groups(monkeypatch)
    results = {}
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        results[workers] = run_grid(replace(TINY, outdir=str(tmp_path / str(workers))))
    serial, pooled = results[1], results[2]
    assert pooled.failures == serial.failures
    assert [(f["labelling"], f["loss"], f["head"]) for f in serial.failures] == [
        (lab, "sum", head) for lab in ("original", "manual") for head in ("encoder", "projection")]
    assert pooled.cells == serial.cells
    assert len(serial.cells) == 4 * 9
    assert (results[3].failures, results[3].cells) == (serial.failures, serial.cells)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_degenerate_vector_fails_only_its_group(monkeypatch, tmp_path, workers):
    _use_workers(monkeypatch, workers)
    # the outcome of one model of the (original, sum) group, trained in a
    # worker when pooled
    real_train_group = trainer.train_group
    bad_seed = derive_cell_seed(5, "original", "sum", MODALITIES[2])
    # raised while building the projection template of the (manual, sum) model of
    # the first modality, after its encoder template was built cleanly; the process
    # that trains a model also scores it, so it can mark that model's checkpoint
    bad_template_seed = derive_cell_seed(5, "manual", "sum", MODALITIES[0])
    marked = []

    def train_group(tasks):
        outcomes = real_train_group(tasks)
        marked.extend(outcome.best["projection"].params
                      for (*_, cfg), outcome in zip(tasks, outcomes)
                      if cfg.seed == bad_template_seed)
        return [DegenerateVectorError("cannot normalize row with degenerate norm")
                if cfg.seed == bad_seed else outcome
                for (*_, cfg), outcome in zip(tasks, outcomes)]

    real_template = scoring.build_template

    def build_template(params, normal_features, use_projection, modality=None):
        if use_projection and any(params is p for p in marked):
            raise DegenerateVectorError("template norm is degenerate")
        return real_template(params, normal_features, use_projection, modality)

    monkeypatch.setattr(trainer, "train_group", train_group)
    monkeypatch.setattr(scoring, "build_template", build_template)
    cfg = replace(TINY, outdir=str(tmp_path))
    result = run_grid(cfg)
    assert [(f["labelling"], f["loss"], f["head"], f["error"]) for f in result.failures] == [
        ("original", "sum", "encoder", "cannot normalize row with degenerate norm"),
        ("original", "sum", "projection", "cannot normalize row with degenerate norm"),
        ("manual", "sum", "encoder", "template norm is degenerate"),
        ("manual", "sum", "projection", "template norm is degenerate"),
    ]
    # the training failure's modality, then the scoring failure's
    assert [f["modality"] for f in result.failures] == [MODALITIES[2].key] * 2 + [
        MODALITIES[0].key] * 2
    assert {method for _, method, _ in result.cells} == {
        f"average-{head}-{lab}" for head in ("encoder", "projection")
        for lab in ("original", "manual")}
    assert sorted(n for n in os.listdir(tmp_path) if n.startswith("scores_")) == sorted(
        f"scores_seed5_average-{head}-{lab}.csv" for head in ("encoder", "projection")
        for lab in ("original", "manual"))


def _pid_run_group(i):
    """A stub worker entry point (module-level, so a pool can pickle it): each model's
    score is the process that ran it."""
    keys, *_, heads = experiment._GROUPS[i]
    return {key: {head: os.getpid() for head in heads} for key in keys}


def _training_pids(monkeypatch):
    """Run _train_and_score with a stub worker entry point whose score for each model
    is the process that trained and scored it."""
    monkeypatch.setattr(experiment, "_run_group", _pid_run_group)
    scored = _tiny_train_and_score(NEGATIVE_MODES, ("encoder",))
    return {pid for cells in scored.values() for pid in cells["encoder"].scores.values()}


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


# -- one pool per labelling: groups across loss modes ------------------------------

def _output_files(outdir):
    """name -> bytes of every file in outdir, with manifest.json's outdir taken out."""
    return {name: (bit_identity.grid_digests(outdir).get(name)
                   if name == "manifest.json" else (outdir / name).read_bytes())
            for name in sorted(os.listdir(outdir))}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_grid_matches_the_recorded_digests_at_any_worker_count(monkeypatch, tmp_path, workers):
    # at three workers the eight models of a labelling train as groups of 3, 3
    # and 2, modality-major, so every group mixes loss modes
    _use_workers(monkeypatch, workers)
    run_grid(ExperimentConfig(outdir=str(tmp_path), **CRITERION_8))
    bit_identity.check("criterion_8", bit_identity.grid_digests(str(tmp_path)))


def test_tiny_grid_files_are_the_same_at_1_2_and_3_workers(monkeypatch, tmp_path):
    files = {}
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        outdir = tmp_path / str(workers)
        assert run_grid(replace(TINY, outdir=str(outdir))).ok
        files[workers] = _output_files(outdir)
    assert len(files[1]) == 8 + 4 + 1
    assert files[2] == files[1] and files[3] == files[1]


def test_a_diverging_sum_model_costs_only_its_own_cells(monkeypatch, tmp_path):
    """No stubbed outcome: one (manual, sum) model trains, in a group with the
    average model of its modality, on its windows scaled until its forward
    overflows."""
    mod = MODALITIES[3]
    bad_seed = derive_cell_seed(5, "manual", "sum", mod)
    real_train_group = trainer.train_group

    def train_group(tasks):
        if any(cfg.seed == bad_seed for *_, cfg in tasks):
            assert [cfg.negative_mode for *_, cfg in tasks] == ["sum", "average"]
        return real_train_group([(_scaled(w, range(len(w))), *rest) if rest[-1].seed == bad_seed
                                 else (w, *rest) for w, *rest in tasks])

    _use_workers(monkeypatch, 3)
    clean = run_grid(replace(TINY, outdir=str(tmp_path / "clean")))
    windows, *rest = _tiny_tasks("sum")[3]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _solo_error((_scaled(windows, range(len(windows))), *rest))
        monkeypatch.setattr(trainer, "train_group", train_group)
        result = run_grid(replace(TINY, outdir=str(tmp_path / "failed")))
    assert want.startswith("degenerate embedding at epoch 1, step 1: ")
    assert [(f["labelling"], f["loss"], f["head"], f["error"]) for f in result.failures] == [
        ("manual", "sum", head, want) for head in ("encoder", "projection")]
    assert result.cells == {key: cell for key, cell in clean.cells.items()
                            if "-manual" not in key[1] or key[1].startswith("average-")}
    clean_files, failed_files = (_output_files(tmp_path / name) for name in ("clean", "failed"))
    kept = [name for name in clean_files
            if name.startswith("scores_") and "sum-encoder-manual" not in name
            and "sum-projection-manual" not in name]
    assert len(kept) == 6 and set(failed_files) == set(kept) | {
        name for name in clean_files if not name.startswith("scores_")}
    for name in kept:
        assert failed_files[name] == clean_files[name]
