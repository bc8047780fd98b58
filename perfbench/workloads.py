"""The benchmark workloads: set-up, one op, and the op's result fingerprint.

Each workload turns the benchmark seed into a data seed in 1..SEED_POOL, so
that every op's fingerprint can be compared with the values recorded in
``expected.json`` by ``record.py``.  All ops of one run use the same inputs.
Layers are reached only through the public functions of ``supconad``,
looked up on their modules at call time so that the tracer's wrappers fire.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from dataclasses import replace

import numpy as np

from supconad import (experiment, fixtures, metrics, model, numerics, scoring,
                      stats, synthgen, trainer)
from supconad.synthgen import MODALITIES, NORMAL, GenConfig

SEED_POOL = 16

# Set-up warms the op's code paths at the op's array shapes on half of the
# training clips and a two-epoch schedule, so that training dominates set-up
# as it does the op.  Ten test anomalous clips reach the first unseen archetype.
WARMUP = experiment.ExperimentConfig(
    gen=GenConfig(train_normal_clips=120, train_anomalous_clips=22,
                  test_normal_clips=24, test_anomalous_clips=10),
    train=trainer.TrainConfig(epochs=2, validate_every=2, lr_decay_every=2),
)
GRID_TRAIN = trainer.TrainConfig(epochs=10, validate_every=5, lr_decay_every=5)
EVAL_GEN = GenConfig(test_normal_clips=600, test_anomalous_clips=240)
EVAL_TRAIN = trainer.TrainConfig(epochs=5, validate_every=5, lr_decay_every=5)


def data_seed(seed: int) -> int:
    return 1 + seed % SEED_POOL


def analyze_and_save(matrix_path: str, prefix: str) -> stats.AnalysisReport:
    """The ``supconad stats`` path: load a matrix CSV, analyze, write the p-value CSVs."""
    report = stats.analyze(stats.load_matrix_csv(matrix_path))
    stats.save_pvalue_matrix_csv(prefix + ".raw_p.csv", report.pvalues.methods,
                                 report.pvalues.raw_p)
    stats.save_pvalue_matrix_csv(prefix + ".adjusted_p.csv", report.pvalues.methods,
                                 report.pvalues.adjusted_p)
    stats.save_significance_report(prefix + ".significance.csv", report)
    return report


def file_digests(outdir: str) -> dict[str, str]:
    """sha256 of every CSV an op wrote, by file name."""
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


class FusedSeed:
    """One seed of the fused benchmark at the default configuration."""

    name = "fused_seed"

    def __init__(self, seed: int, workdir: str):
        self.data_seed = data_seed(seed)
        self.workdir = workdir

    def setup(self):
        experiment.run_benchmark_seed(WARMUP, self.data_seed)

    def op(self, outdir: str):
        return experiment.run_benchmark_seed(experiment.ExperimentConfig(), self.data_seed)

    def fingerprint(self, result, outdir: str) -> dict:
        return {"auc": result.fused_roc_auc, "single": result.single_roc_auc}

    def invariant_problems(self, fp: dict) -> list[str]:
        return []


class GridShort:
    """One grid seed on a shortened schedule, then rank statistics on its means."""

    name = "grid_short"

    def __init__(self, seed: int, workdir: str):
        self.data_seed = data_seed(seed)
        self.workdir = workdir

    def _run(self, cfg: experiment.ExperimentConfig):
        result = experiment.run_grid(cfg)
        for metric in ("roc", "pr"):
            analyze_and_save(os.path.join(cfg.outdir, f"grid_{metric}_mean.csv"),
                             os.path.join(cfg.outdir, f"stats_{metric}"))
        return result

    def setup(self):
        self._run(replace(WARMUP, seeds=(self.data_seed,),
                          outdir=os.path.join(self.workdir, "warmup")))

    def op(self, outdir: str):
        return self._run(experiment.ExperimentConfig(
            train=GRID_TRAIN, seeds=(self.data_seed,), outdir=outdir))

    def fingerprint(self, result, outdir: str) -> dict:
        roc = [cell[0] for cell in result.cells.values()]
        return {
            "auc": statistics.fmean(roc) if roc else 0.0,
            "cells": len(result.cells),
            "failures": len(result.failures),
            "files": file_digests(outdir),
        }

    def invariant_problems(self, fp: dict) -> list[str]:
        if fp["failures"] or fp["cells"] != 72:
            return [f"{fp['failures']} failed cells, {fp['cells']} of 72 cells present"]
        return []


class EvalReport:
    """Window file round trip, checkpoint loading, scoring, metrics and stats.

    Set-up generates the enlarged test split, trains the four manual/average
    models on a short schedule and saves both pathway checkpoints of each;
    the op has no training in it.
    """

    name = "eval_report"

    def __init__(self, seed: int, workdir: str):
        self.data_seed = data_seed(seed)
        self.workdir = workdir
        self.ckpt_dir = os.path.join(workdir, "checkpoints")

    def _ckpt(self, mod, pathway: str) -> str:
        return os.path.join(self.ckpt_dir, f"{mod.key}.{pathway}.txt")

    def setup(self):
        os.makedirs(self.ckpt_dir, exist_ok=True)
        ds = synthgen.generate_dataset(replace(EVAL_GEN, seed=self.data_seed))
        train_by_mod = synthgen.by_modality(synthgen.dataset_windows(ds, "manual", split="train"))
        self.gen = ds.config
        self.test_windows = synthgen.dataset_windows(ds, "manual", split="test")
        self.normal_feats = {}
        for mod in MODALITIES:
            self.normal_feats[mod] = np.stack(
                [w.features for w in train_by_mod[mod] if w.label == NORMAL])
            tcfg = replace(EVAL_TRAIN, seed=experiment.derive_cell_seed(
                self.data_seed, "manual", "average", mod))
            result = trainer.train(train_by_mod[mod], list(experiment.DEFAULT_ENCODER_DIMS),
                                   list(experiment.DEFAULT_PROJECTION_DIMS), tcfg)
            for pathway in scoring.PATHWAYS:
                model.save_params(result.best[pathway].params, self._ckpt(mod, pathway))

    def op(self, outdir: str):
        path = os.path.join(outdir, "test_windows.txt")
        synthgen.save_windows(path, self.gen, "manual", self.test_windows)
        _, _, windows = synthgen.load_windows(path)
        test_by_mod = synthgen.by_modality(windows)
        ref = test_by_mod[MODALITIES[0]]
        keys = [(w.clip_id, w.window_index) for w in ref]
        for mod in MODALITIES[1:]:
            if [(w.clip_id, w.window_index) for w in test_by_mod[mod]] != keys:
                raise ValueError("reloaded test windows are not aligned across modalities")
        labels = np.array([w.label == NORMAL for w in ref])

        aucs = {}
        for pathway in scoring.PATHWAYS:
            use_proj = pathway == "projection"
            scores = {}
            for mod in MODALITIES:
                params = model.load_params(self._ckpt(mod, pathway))
                template = scoring.build_template(params, self.normal_feats[mod], use_proj, mod)
                feats = np.stack([w.features for w in test_by_mod[mod]])
                scores[mod] = scoring.score_windows(template, params, feats, use_proj)
            cell = experiment.CellScores(scores, labels, [k[0] for k in keys],
                                         [k[1] for k in keys])
            for combo_name, combo in scoring.MODALITY_COMBOS.items():
                fused = cell.fused(combo)
                ls = metrics.LabeledScores(fused, labels)
                aucs[f"{pathway}/{combo_name}"] = (metrics.roc_auc(ls), metrics.pr_auc(ls))
                prefix = os.path.join(outdir, f"{pathway}_{combo_name}")
                metrics.dump_curves(ls, prefix + ".roc.csv", prefix + ".pr.csv")
                records = [
                    scoring.ScoreRecord(w.clip_id, w.window_index,
                                        {m: float(scores[m][i]) for m in combo},
                                        float(fused[i]), w.label)
                    for i, w in enumerate(ref)
                ]
                scoring.save_scores(prefix + ".scores.csv", records)

        flagged = {}
        for metric, grid in (("roc", fixtures.roc_grid()), ("pr", fixtures.pr_grid())):
            matrix_path = os.path.join(outdir, f"fixture_{metric}.csv")
            stats.save_matrix_csv(matrix_path, grid)
            report = analyze_and_save(matrix_path, os.path.join(outdir, f"fixture_{metric}"))
            flagged[metric] = sorted(fixtures.canonical_pair(*p) for p in report.significant)
        return aucs, flagged

    def fingerprint(self, result, outdir: str) -> dict:
        aucs, flagged = result
        return {
            "auc": statistics.fmean(roc for roc, _ in aucs.values()),
            "roc": {cell: roc for cell, (roc, _) in aucs.items()},
            "pr": {cell: pr for cell, (_, pr) in aucs.items()},
            "roc_pairs": [list(p) for p in flagged["roc"]],
            "pr_pairs": [list(p) for p in flagged["pr"]],
        }

    def invariant_problems(self, fp: dict) -> list[str]:
        problems = []
        for metric, want in (("roc", fixtures.ROC_SIGNIFICANT_PAIRS),
                             ("pr", fixtures.PR_SIGNIFICANT_PAIRS)):
            if fp[f"{metric}_pairs"] != sorted(list(p) for p in want):
                problems.append(f"fixture {metric} pairs differ from the recorded pattern")
        if len(fp["roc"]) != 18:
            problems.append(f"{len(fp['roc'])} of 18 (pathway, combo) cells scored")
        return problems


WORKLOADS = {w.name: w for w in (FusedSeed, GridShort, EvalReport)}


def trace_targets():
    """``(owner, attribute, span, count)`` for every layer boundary the tracer wraps.

    A name is wrapped in the module that calls it: ``experiment`` and
    ``trainer`` import several functions by name, so their own bindings are
    the ones patched.
    """
    def rows(args, result):
        return len(result)

    def file_bytes(args, result):
        return os.path.getsize(args[0])

    return [
        (numerics.Rng, "choice_without_replacement", "numerics.sample", None),
        (experiment, "generate_dataset", "synthgen.generate", None),
        (synthgen, "generate_dataset", "synthgen.generate", None),
        (experiment, "dataset_windows", "synthgen.dataset_windows", None),
        (synthgen, "dataset_windows", "synthgen.dataset_windows", None),
        (experiment, "by_modality", "synthgen.by_modality", None),
        (synthgen, "by_modality", "synthgen.by_modality", None),
        (trainer, "split_train_val", "synthgen.split", None),
        (synthgen, "save_windows", "synthgen.save_windows", file_bytes),
        (synthgen, "load_windows", "synthgen.load_windows", None),
        (model, "forward", "model.forward", None),
        (model, "backward", "model.backward", None),
        (model, "sgd_step", "model.sgd", None),
        (model, "load_params", "model.load_params", None),
        (trainer, "LossBatch", "loss.check", None),
        (trainer, "batch_loss", "loss.value", None),
        (trainer, "batch_loss_grad", "loss.grad", None),
        (trainer, "train", "trainer.train", None),
        (trainer, "roc_auc", "metrics.auc", None),
        (scoring, "build_template", "scoring.template", None),
        (scoring, "score_windows", "scoring.score", rows),
        (scoring, "save_scores", "experiment.export", None),
        (experiment, "roc_auc", "metrics.auc", None),
        (experiment, "pr_auc", "metrics.auc", None),
        (metrics, "roc_auc", "metrics.auc", None),
        (metrics, "pr_auc", "metrics.auc", None),
        (metrics, "dump_curves", "metrics.curves", None),
        (stats, "analyze", "stats.analyze", None),
        (stats, "load_matrix_csv", "stats.io", None),
        (stats, "save_matrix_csv", "stats.io", None),
        (stats, "save_pvalue_matrix_csv", "stats.io", None),
        (stats, "save_significance_report", "stats.io", None),
    ]
