"""Experiment orchestration: the full method grid and the fused benchmark.

A grid run trains, per seed, one model per (labelling mode, loss form,
modality) and reuses it across the nine modality combinations and both
embedding pathways (the head is always trained; only its use at test time
varies, with checkpoint selection matching the pathway).  Results land as
method-by-combination AUC matrices directly consumable by the statistics
pipeline, plus per-cell score exports and a deterministic run manifest.

``run_group`` trains and scores one (labelling, loss) group.  The fused
benchmark is the grid's (manual, average, projection) group, run through it.
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
from .model import ModelParams
from .numerics import DegenerateVectorError, Rng
from .synthgen import (ANOMALOUS, LABELLING_MODES, MODALITIES, NORMAL, WINDOW_LEN,
                       GenConfig, Modality, by_modality, dataset_windows,
                       generate_dataset)

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
        if not self.seeds:
            raise ValueError("seeds: must be non-empty")
        for name, known in AXES.items():
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name}: must be non-empty")
            for value in values:
                if value not in known:
                    raise ValueError(f"{name}: unknown {value!r} (known: {', '.join(known)})")
        n_in = WINDOW_LEN * self.gen.frame_dim
        if self.encoder_dims[:1] != (n_in,):
            raise ValueError(f"encoder_dims {self.encoder_dims} must start with {n_in}, "
                             f"the features of a window at frame_dim {self.gen.frame_dim}")
        if self.projection_dims[:1] != self.encoder_dims[-1:]:
            raise ValueError(f"projection_dims {self.projection_dims} must start with "
                             f"{self.encoder_dims[-1]}, the last of encoder_dims")

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


@dataclass
class GridResult:
    # (seed, method_label, combo) -> (roc_auc, pr_auc); missing when failed
    cells: dict[tuple[int, str, str], tuple[float, float]]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


# Inputs of the trainings a pool is about to run.  Workers inherit the list
# through fork, so the windows are never pickled; only results come back.
_TASKS: list[tuple] = []


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
    thread count does not change results; the pooled-vs-in-process identity
    test checks this.
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


def _train_task(i: int) -> trainer.TrainResult:
    return trainer.train(*_TASKS[i])


def _train_models_for(windows_by_mod, cfg: ExperimentConfig, run_seed: int,
                      labelling: str, loss_mode: str):
    """Train one model per modality, in parallel when more than one CPU is usable.

    Results are bit-identical to training in-process and come back in
    MODALITIES order; the first error in that order is re-raised.
    """
    tasks = [
        (windows_by_mod[mod], list(cfg.encoder_dims), list(cfg.projection_dims),
         replace(cfg.train, negative_mode=loss_mode,
                 seed=derive_cell_seed(run_seed, labelling, loss_mode, mod)))
        for mod in MODALITIES
    ]
    workers = train_workers(len(tasks))
    if workers <= 1:
        return {mod: trainer.train(*task) for mod, task in zip(MODALITIES, tasks)}
    _TASKS[:] = tasks
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_pin_blas_to_one_thread) as pool:
            results = list(pool.map(_train_task, range(len(tasks))))
    finally:
        _TASKS.clear()
    return dict(zip(MODALITIES, results))


def score_test_set(models: dict[Modality, ModelParams], train_by_mod, test_by_mod,
                   pathway: str) -> CellScores:
    """Score the test windows of each modality in ``models``, in MODALITIES order,
    through the embedding ``pathway``, one of scoring.PATHWAYS.

    A modality's template is the mean embedding of its normal training
    windows.  The test windows must be aligned: entry i of each scored
    modality is the same (clip_id, window_index).
    """
    if pathway not in scoring.PATHWAYS:
        raise ValueError(f"unknown pathway {pathway!r} (known: {', '.join(scoring.PATHWAYS)})")
    use_projection = pathway == "projection"
    mods = [m for m in MODALITIES if m in models]
    ref = test_by_mod[mods[0]]
    keys = [(w.clip_id, w.window_index) for w in ref]
    for mod in mods[1:]:
        if [(w.clip_id, w.window_index) for w in test_by_mod[mod]] != keys:
            raise ValueError("test windows are not aligned across modalities")
    scores = {}
    for mod in mods:
        normal_feats = np.stack([w.features for w in train_by_mod[mod] if w.label == NORMAL])
        template = scoring.build_template(models[mod], normal_feats, use_projection, mod)
        test_feats = np.stack([w.features for w in test_by_mod[mod]])
        scores[mod] = scoring.score_windows(template, models[mod], test_feats, use_projection)
    return CellScores(
        scores=scores,
        labels=np.array([w.label == NORMAL for w in ref]),
        clip_ids=[k[0] for k in keys],
        window_indices=[k[1] for k in keys],
    )


def run_group(cfg: ExperimentConfig, run_seed: int, labelling: str, loss_mode: str,
              train_by_mod, test_by_mod, heads) -> dict[str, CellScores]:
    """Train the four modality models of one (labelling, loss) group and score
    the test windows once per head, each with that pathway's best checkpoints."""
    results = _train_models_for(train_by_mod, cfg, run_seed, labelling, loss_mode)
    return {head: score_test_set({m: results[m].best[head].params for m in MODALITIES},
                                 train_by_mod, test_by_mod, head)
            for head in heads}


def run_grid(cfg: ExperimentConfig) -> GridResult:
    """Run the full grid, writing per-cell scores, per-seed and mean AUC matrices + manifest."""
    os.makedirs(cfg.outdir, exist_ok=True)
    cells: dict[tuple[int, str, str], tuple[float, float]] = {}
    failures: list[dict] = []

    for run_seed in cfg.seeds:
        ds = generate_dataset(replace(cfg.gen, seed=run_seed))
        test_by_mod = by_modality(dataset_windows(ds, "manual", split="test"))
        for labelling in cfg.labelling_modes:
            train_windows = dataset_windows(ds, labelling, split="train")
            train_by_mod = by_modality(train_windows)
            for loss_mode in cfg.loss_modes:
                # a group that fails in training, validation or scoring loses all its cells
                try:
                    scored = run_group(cfg, run_seed, labelling, loss_mode,
                                       train_by_mod, test_by_mod, cfg.head_modes)
                except (trainer.TrainingDivergedError, DegenerateVectorError) as exc:
                    for head in cfg.head_modes:
                        failures.append({
                            "seed": run_seed, "labelling": labelling,
                            "loss": loss_mode, "head": head, "error": str(exc),
                        })
                    continue
                for head, cell in scored.items():
                    method = f"{loss_mode}-{head}-{labelling}"
                    for combo_name in cfg.combos:
                        combo = scoring.MODALITY_COMBOS[combo_name]
                        fused = cell.fused(combo)
                        ls = LabeledScores(fused, cell.labels)
                        cells[(run_seed, method, combo_name)] = (roc_auc(ls), pr_auc(ls))
                    scoring.save_scores(
                        os.path.join(cfg.outdir, f"scores_seed{run_seed}_{method}.csv"),
                        cell.records(),
                    )

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
    for metric_idx, metric in enumerate(("roc", "pr")):
        with open(os.path.join(cfg.outdir, f"grid_{metric}_{name}.csv"), "w") as f:
            f.write("method," + ",".join(cfg.combos) + "\n")
            for method in cfg.method_labels():
                row = []
                for combo in cfg.combos:
                    aucs = [cells[(s, method, combo)][metric_idx]
                            for s in seeds if (s, method, combo) in cells]
                    row.append(repr(float(np.mean(aucs))) if aucs else "failed")
                f.write(method + "," + ",".join(row) + "\n")


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
    train_by_mod = by_modality(dataset_windows(ds, "manual", split="train"))
    test_by_mod = by_modality(dataset_windows(ds, "manual", split="test"))
    cell = run_group(cfg, run_seed, "manual", "average", train_by_mod, test_by_mod,
                     ("projection",))["projection"]

    fused = cell.fused(tuple(MODALITIES))
    fused_auc = roc_auc(LabeledScores(fused, cell.labels))
    singles = {
        m.key: roc_auc(LabeledScores(cell.scores[m], cell.labels)) for m in MODALITIES
    }

    ref = test_by_mod[MODALITIES[0]]
    seen_ids = {a.id for a in ds.archetypes if a.seen_in_training}
    normal_mask = cell.labels
    unseen_mask = np.array([
        (not normal_mask[i]) and ref[i].archetype_id is not None
        and ref[i].archetype_id not in seen_ids
        for i in range(len(ref))
    ])
    seen_mask = ~normal_mask & ~unseen_mask

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
