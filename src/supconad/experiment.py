"""Experiment orchestration: the full method grid and the fused benchmark.

A grid run trains, per seed, one model per (labelling mode, loss form,
modality) and reuses it across the nine modality combinations and both
embedding pathways (the head is always trained; only its use at test time
varies, with checkpoint selection matching the pathway).  Results land as
method-by-combination AUC matrices directly consumable by the statistics
pipeline, plus per-cell score exports and a deterministic run manifest.

A grid trains and scores the (loss, modality) models of one labelling in one
pool of forked workers: each worker cuts both splits of its modalities, trains its
share in lockstep, scores each model through ``score_test_set``, the one test
scorer, and sends back only score vectors and errors, so the parent holds the test
split's keys and scores, never a frame, a window or a model (with one worker the
same steps run in the parent).  The parent picks the error of a failed (labelling,
loss) group, which costs only that group's cells.  The fused benchmark is the
grid's (manual, average, projection) group, trained and scored the same way, and
``supconad train`` trains its one model in-process and scores it through
``score_test_set``; both raise a failed group's error.
"""

from __future__ import annotations

import ctypes
import glob
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, scoring, trainer
from .loss import NEGATIVE_MODES
from .metrics import LabeledScores, pr_auc, roc_auc
from .model import check_dims
from .numerics import DegenerateVectorError, Rng, check_seed, write_rows
from .synthgen import (ANOMALOUS, LABELLING_MODES, MODALITIES, NORMAL, WINDOW_LEN,
                       Dataset, GenConfig, Modality, by_modality, dataset_windows,
                       generate_dataset, keys_of_test_windows)

DEFAULT_ENCODER_DIMS = (192, 64, 32)
DEFAULT_PROJECTION_DIMS = (32, 16)
# grid axis -> its known values; an ExperimentConfig axis defaults to all of them
AXES = {"loss_modes": NEGATIVE_MODES, "head_modes": scoring.PATHWAYS,
        "labelling_modes": LABELLING_MODES, "combos": tuple(scoring.MODALITY_COMBOS)}


@dataclass(frozen=True)
class ExperimentConfig:
    gen: GenConfig = field(default_factory=GenConfig)
    train: trainer.TrainConfig = field(default_factory=trainer.TrainConfig)
    encoder_dims: tuple[int, ...] = DEFAULT_ENCODER_DIMS
    projection_dims: tuple[int, ...] = DEFAULT_PROJECTION_DIMS
    loss_modes: tuple[str, ...] = AXES["loss_modes"]
    head_modes: tuple[str, ...] = AXES["head_modes"]
    labelling_modes: tuple[str, ...] = AXES["labelling_modes"]
    combos: tuple[str, ...] = AXES["combos"]
    seeds: tuple[int, ...] = (42,)
    outdir: str = "grid_out"

    def __post_init__(self):
        for name in ("seeds", *AXES):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name}: must be non-empty")
            for value in values:
                if name == "seeds":
                    check_seed(name, value)
                elif value not in AXES[name]:
                    raise ValueError(f"{name}: unknown {value!r} (known: {', '.join(AXES[name])})")
            if len(set(values)) != len(values):
                raise ValueError(f"{name}: repeats a value, got {values}")
        check_dims(self.encoder_dims, self.projection_dims)
        n_in = WINDOW_LEN * self.gen.frame_dim
        if self.encoder_dims[0] != n_in:
            raise ValueError(f"encoder_dims: must start with {n_in}, the features of a window "
                             f"at frame_dim {self.gen.frame_dim}, got {self.encoder_dims}")

    def method_labels(self) -> list[str]:
        return [f"{loss}-{head}-{lab}"
                for loss in self.loss_modes
                for head in self.head_modes
                for lab in self.labelling_modes]


def derive_cell_seed(run_seed: int, labelling: str, loss: str, modality: Modality) -> int:
    """Stable per-training-run seed from the run seed and cell coordinates."""
    stream = (LABELLING_MODES.index(labelling) * len(NEGATIVE_MODES) * len(MODALITIES)
              + NEGATIVE_MODES.index(loss) * len(MODALITIES)
              + MODALITIES.index(modality))
    return Rng(run_seed).spawn(500 + stream).seed


@dataclass
class CellScores:
    """Per-modality score vectors over the aligned test windows."""
    scores: dict[Modality, np.ndarray]
    labels: np.ndarray            # True where the test window is normal
    clip_ids: list[int]
    window_indices: list[int]

    def fused(self, combo: tuple[Modality, ...]) -> np.ndarray:
        """Mean over the combo's modalities, window by window."""
        return np.mean([self.scores[m] for m in combo], axis=0)

    def records(self) -> list[scoring.ScoreRecord]:
        """One export record per window, over the modalities present in MODALITIES order."""
        mods = tuple(m for m in MODALITIES if m in self.scores)
        per_mod = {m: self.scores[m].tolist() for m in mods}
        fused = self.fused(mods).tolist()
        return [
            scoring.ScoreRecord(clip_id, w_idx, {m: per_mod[m][i] for m in mods}, fused[i],
                                NORMAL if normal else ANOMALOUS)
            for i, (clip_id, w_idx, normal)
            in enumerate(zip(self.clip_ids, self.window_indices, self.labels))
        ]

    @classmethod
    def for_windows(cls, test_windows) -> CellScores:
        """No scores yet, and the labels and ids of test_windows, Windows or WindowKeys."""
        return cls({}, np.array([w.label == NORMAL for w in test_windows]),
                   [w.clip_id for w in test_windows], [w.window_index for w in test_windows])


@dataclass
class GridResult:
    # (seed, method_label, combo) -> (roc_auc, pr_auc); missing when failed
    cells: dict[tuple[int, str, str], tuple[float, float]]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


# What _train_and_score is about to run: per group, the (keys, ds, cfg, run_seed,
# labelling, heads) that _run_group reads.  Workers inherit the list through
# fork, so nothing is pickled on the way in; only score vectors and errors come back.
_GROUPS: list[tuple] = []


def train_workers(n_tasks: int) -> int:
    """Worker processes for n_tasks independent trainings: at most one per usable CPU.

    Returns 1, meaning in-process training, where the usable CPUs cannot be
    read or processes cannot be forked (macOS, Windows).
    """
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(n_tasks, len(os.sched_getaffinity(0)))


def _pin_blas_to_one_thread() -> None:
    """Pool initializer: one OpenBLAS thread per worker, so workers do not oversubscribe.

    Uses the OpenBLAS bundled with numpy; when its setter is not found the
    call is skipped.  OpenBLAS splits a product over output blocks, so the
    thread count does not change results; the tests that compare pooled and
    in-process scores check this.
    """
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                return


def _run_group(i: int) -> dict:
    """Worker entry point, also run in-process for one group: cut both splits of group
    i's modalities, train its models in lockstep and score each (score_test_set)."""
    keys, ds, cfg, run_seed, labelling, heads = _GROUPS[i]
    mods = tuple(m for m in MODALITIES if any(mod == m for _, mod in keys))
    windows = dataset_windows(ds, labelling, modalities=mods)
    train_by_mod, test_by_mod = (by_modality([w for w in windows if w.split == split])
                                 for split in ("train", "test"))
    tasks = [(train_by_mod[mod], list(cfg.encoder_dims), list(cfg.projection_dims),
              replace(cfg.train, negative_mode=loss,
                      seed=derive_cell_seed(run_seed, labelling, loss, mod)))
             for loss, mod in keys]
    return score_test_set(dict(zip(keys, trainer.train_group(tasks))), train_by_mod,
                          test_by_mod, heads)


def _train_and_score(ds: Dataset, test_keys, cfg: ExperimentConfig, run_seed: int,
                     labelling: str, loss_modes: tuple[str, ...], heads) -> dict:
    """Train one model per (loss mode, modality) of a labelling of ds and score it
    under every head: loss mode -> head -> CellScores over test_keys, the keys of
    ds's test windows, or loss mode -> (modality, error) for a group that failed.

    The models, modality-major and in MODALITIES order, are split into train_workers
    contiguous groups whose sizes differ by at most one.  Each group's windows of
    both splits are cut, its models trained in lockstep (trainer.train_group) and
    scored (score_test_set) by its own worker, or in this process when there is one
    group.  Every outcome is bit-identical to training and scoring in-process.

    This is the one place a group's failure is picked, from its models' outcomes
    on every worker: its first training error in MODALITIES order; failing that,
    the earliest modality's first template error in head order; failing that,
    that modality's first scoring error.
    """
    keys = [(loss, mod) for mod in MODALITIES for loss in loss_modes]
    workers = train_workers(len(keys))
    size, extra = divmod(len(keys), workers)
    bounds = [g * size + min(g, extra) for g in range(workers + 1)]
    _GROUPS[:] = [(keys[a:b], ds, cfg, run_seed, labelling, heads)
                  for a, b in zip(bounds, bounds[1:])]
    try:
        if workers <= 1:
            parts = [_run_group(0)]
        else:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_pin_blas_to_one_thread) as pool:
                parts = list(pool.map(_run_group, range(workers)))
    finally:
        _GROUPS.clear()
    scored = {key: outcome for part in parts for key, outcome in part.items()}
    unscored = CellScores.for_windows(test_keys)
    out = {}
    for loss in loss_modes:
        failed = [m for m in MODALITIES if isinstance(scored[loss, m], tuple)]
        if failed:
            # min keeps the first of equal stages, the earliest modality's
            mod = min(failed, key=lambda m: scored[loss, m][0])
            out[loss] = (mod, scored[loss, mod][1])
        else:
            out[loss] = {head: replace(unscored, scores={m: scored[loss, m][head]
                                                         for m in MODALITIES})
                         for head in heads}
    return out


def score_test_set(trained: dict, train_by_mod, test_by_mod, heads) -> dict:
    """Score each trained model's test windows under every head (one of
    scoring.PATHWAYS) with that pathway's best checkpoint.

    ``trained`` maps (loss mode, modality) to a TrainResult or the error its
    training raised.  Each key gets head -> score vector, or (stage, error) for a
    model that failed: stage 0 with its training error, stage 1 with its first
    template error in head order or else its first scoring error.  A template is
    the mean embedding of a modality's normal training windows; entry i of each
    modality's test windows is the same (clip_id, window_index).  Modality by
    modality, in MODALITIES order, the normal rows are stacked once and every
    model's templates built from them, then released; the test rows are stacked
    once and scored by every model under every head.  This is the only test
    scorer.
    """
    for head in heads:
        if head not in scoring.PATHWAYS:
            raise ValueError(f"unknown pathway {head!r} (known: {', '.join(scoring.PATHWAYS)})")
    mods = [m for m in MODALITIES if any(mod == m for _, mod in trained)]
    keys = [(w.clip_id, w.window_index) for w in test_by_mod[mods[0]]]
    if any([(w.clip_id, w.window_index) for w in test_by_mod[m]] != keys for m in mods[1:]):
        raise ValueError("test windows are not aligned across modalities")
    scored = {key: (0, result) for key, result in trained.items()
              if isinstance(result, Exception)}
    for mod in mods:
        normal_feats = np.stack([w.features for w in train_by_mod[mod] if w.label == NORMAL])
        templates = {}
        for key in (key for key in trained if key[1] == mod and key not in scored):
            best = trained[key].best
            try:
                templates[key] = {head: scoring.build_template(
                    best[head].params, normal_feats, head == "projection", mod) for head in heads}
            except DegenerateVectorError as exc:
                scored[key] = (1, exc)
        del normal_feats    # the normal and test stacks are never alive together
        test_feats = np.stack([w.features for w in test_by_mod[mod]])
        for key, by_head in templates.items():
            best = trained[key].best
            try:
                scored[key] = {head: scoring.score_windows(
                    by_head[head], best[head].params, test_feats, head == "projection")
                    for head in heads}
            except DegenerateVectorError as exc:
                scored[key] = (1, exc)
        del test_feats
    return {key: scored[key] for key in trained}


def _grid_labelling(cfg: ExperimentConfig, ds: Dataset, run_seed: int, labelling: str,
                    test_keys, cells: dict, failures: list) -> None:
    """Train, score and export the cells of one labelling of a grid seed into cells
    and failures; its scores are freed when this returns."""
    scored = _train_and_score(ds, test_keys, cfg, run_seed, labelling,
                              cfg.loss_modes, cfg.head_modes)
    for loss_mode, group in scored.items():
        # a group that fails in training, validation or scoring loses all its cells
        if isinstance(group, tuple):
            failures.extend({"seed": run_seed, "labelling": labelling, "loss": loss_mode,
                             "head": head, "modality": group[0].key, "error": str(group[1])}
                            for head in cfg.head_modes)
            continue
        for head, cell in group.items():
            method = f"{loss_mode}-{head}-{labelling}"
            for combo_name in cfg.combos:
                fused = cell.fused(scoring.MODALITY_COMBOS[combo_name])
                ls = LabeledScores(fused, cell.labels)
                cells[(run_seed, method, combo_name)] = (roc_auc(ls), pr_auc(ls))
            scoring.save_scores(
                os.path.join(cfg.outdir, f"scores_seed{run_seed}_{method}.csv"),
                cell.records(),
            )


def run_grid(cfg: ExperimentConfig) -> GridResult:
    """Run the full grid, writing per-cell scores, per-seed and mean AUC matrices + manifest."""
    os.makedirs(cfg.outdir, exist_ok=True)
    cells: dict[tuple[int, str, str], tuple[float, float]] = {}
    failures: list[dict] = []

    for run_seed in cfg.seeds:
        ds = generate_dataset(replace(cfg.gen, seed=run_seed))
        test_keys = keys_of_test_windows(ds)
        for labelling in cfg.labelling_modes:
            _grid_labelling(cfg, ds, run_seed, labelling, test_keys, cells, failures)
        _write_grid_csvs(cfg, cells, (run_seed,), f"seed{run_seed}")
    _write_grid_csvs(cfg, cells, cfg.seeds, "mean")

    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "seeds": list(cfg.seeds),
        "failures": failures,
    }
    with open(os.path.join(cfg.outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return GridResult(cells, failures)


def _write_grid_csvs(cfg: ExperimentConfig, cells, seeds, name: str) -> None:
    """grid_roc_<name>.csv and grid_pr_<name>.csv: per method and combination, the
    mean AUC over the cells present for seeds, or ``failed`` where there are none."""
    def mean_auc(method: str, combo: str, metric_idx: int) -> float | str:
        aucs = [cells[(s, method, combo)][metric_idx]
                for s in seeds if (s, method, combo) in cells]
        return float(np.mean(aucs)) if aucs else "failed"

    for metric_idx, metric in enumerate(("roc", "pr")):
        write_rows(os.path.join(cfg.outdir, f"grid_{metric}_{name}.csv"),
                   [("method", *cfg.combos)],
                   [(method, *(mean_auc(method, combo, metric_idx) for combo in cfg.combos))
                    for method in cfg.method_labels()])


@dataclass
class BenchmarkSeedResult:
    seed: int
    fused_roc_auc: float
    single_roc_auc: dict[str, float]     # modality key -> AUC
    fused_unseen_roc_auc: float          # normals vs windows of unseen archetypes
    fused_seen_roc_auc: float

    @property
    def best_single(self) -> float:
        return max(self.single_roc_auc.values())


def run_benchmark_seed(cfg: ExperimentConfig, run_seed: int) -> BenchmarkSeedResult:
    """One seed of the fused benchmark: the (manual, average, projection) grid group."""
    ds = generate_dataset(replace(cfg.gen, seed=run_seed))
    test_keys = keys_of_test_windows(ds)
    # the seen and unseen AUCs each need an anomalous test window; checked before training
    normal_mask = np.array([k.label == NORMAL for k in test_keys])
    unseen = {a.id for a in ds.archetypes if not a.seen_in_training}   # normal windows: None
    unseen_mask = np.array([k.archetype_id in unseen for k in test_keys])
    seen_mask = ~normal_mask & ~unseen_mask
    for subset, mask in (("seen", seen_mask), ("unseen", unseen_mask)):
        if not mask.any():
            g = cfg.gen
            raise ValueError(f"the test split holds no {subset}-archetype window at GenConfig "
                             f"test_anomalous_clips={g.test_anomalous_clips}, seen_archetypes="
                             f"{g.seen_archetypes}, unseen_archetypes={g.unseen_archetypes}")
    scored = _train_and_score(ds, test_keys, cfg, run_seed, "manual", ("average",),
                              ("projection",))["average"]
    if isinstance(scored, tuple):
        raise scored[1]
    cell = scored["projection"]

    fused = cell.fused(tuple(MODALITIES))
    fused_auc = roc_auc(LabeledScores(fused, cell.labels))
    singles = {
        m.key: roc_auc(LabeledScores(cell.scores[m], cell.labels)) for m in MODALITIES
    }

    def subset_auc(anom_mask):
        keep = normal_mask | anom_mask
        return roc_auc(LabeledScores(fused[keep], normal_mask[keep]))

    return BenchmarkSeedResult(
        seed=run_seed,
        fused_roc_auc=fused_auc,
        single_roc_auc=singles,
        fused_unseen_roc_auc=subset_auc(unseen_mask),
        fused_seen_roc_auc=subset_auc(seen_mask),
    )
