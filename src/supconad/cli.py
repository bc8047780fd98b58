"""Command-line interface: generate / train / grid / stats / fixtures.

``generate``, ``train`` and ``grid`` also read their configuration from a
plain ``key=value`` text file passed with --config (keys are the flag names
with underscores; input and output paths of generate and train are flags
only).  A flag wins over the file, the file over the default.  A file key
the subcommand does not read, or a file value that does not parse or is not
one of its known values, is an error that names its path and line.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import experiment, fixtures, scoring, stats, trainer
from .metrics import LabeledScores, dump_curves, pr_auc, roc_auc
from .model import save_params
from .synthgen import (LABELLING_MODES, WINDOW_LEN, GenConfig, Modality, dataset_windows,
                       generate_dataset, load_windows, save_windows)


class _ConfigFile(dict):
    """key -> value of a key=value --config file (empty without one), with the
    line of each key and the set of keys the subcommand has looked up."""

    def __init__(self, path: str | None):
        super().__init__()
        self.path, self.lines, self.looked_up = path, {}, set()
        if path is None:
            return
        with open(path) as f:
            for ln_no, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{ln_no}: expected key=value, got {line!r}")
                key, _, value = (t.strip() for t in line.partition("="))
                self[key], self.lines[key] = value, ln_no

    def check_all_read(self) -> None:
        """ValueError("path:line: unknown key ...") for the first key no lookup read."""
        unread = sorted(self.keys() - self.looked_up, key=self.lines.get)
        if unread:
            raise ValueError(f"{self.path}:{self.lines[unread[0]]}: unknown key {unread[0]!r} "
                             f"(known keys: {', '.join(sorted(self.looked_up))})")


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


def _csv_strs(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _one_of(known: tuple[str, ...]):
    """Caster of a file value that must be one of known (a flag is checked by its choices)."""
    def cast(text: str) -> str:
        if text not in known:
            raise ValueError(f"unknown {text!r} (known: {', '.join(known)})")
        return text
    return cast


_CASTERS = {"int": int, "float": float, "str": str,
            "tuple[int, ...]": _csv_ints, "tuple[str, ...]": _csv_strs}
_MODALITY_KEYS = tuple(m.key for m in Modality)


def _resolve(args, file_cfg: _ConfigFile, key, default, cast=str):
    """One setting: the flag value, else the file value (bad ones name path:line), else default."""
    file_cfg.looked_up.add(key)
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in file_cfg:
        try:
            return cast(file_cfg[key])
        except ValueError as exc:
            raise ValueError(f"{file_cfg.path}:{file_cfg.lines[key]}: {key}: {exc}") from None
    return default


def _build_dataclass(cls, args: argparse.Namespace, file_cfg: _ConfigFile, skip=(), **given):
    """Dataclass with the given fields, the skipped ones at their defaults and
    every other field resolved by _resolve."""
    return cls(**given, **{fld.name: _resolve(args, file_cfg, fld.name, fld.default,
                                              _CASTERS[fld.type])
                           for fld in fields(cls) if fld.name not in (*skip, *given)})


def _add_dataclass_args(parser: argparse.ArgumentParser, cls, skip=()):
    for fld in fields(cls):
        if fld.name in skip:
            continue
        flag = "--" + fld.name.replace("_", "-")
        parser.add_argument(flag, type=_CASTERS[fld.type], default=None)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="key=value config file")


def _cmd_generate(args) -> int:
    file_cfg = _ConfigFile(args.config)
    cfg = _build_dataclass(GenConfig, args, file_cfg)
    labelling = _resolve(args, file_cfg, "labelling", "original", _one_of(LABELLING_MODES))
    file_cfg.check_all_read()
    ds = generate_dataset(cfg)
    windows = dataset_windows(ds, labelling)
    save_windows(args.out, cfg, labelling, windows)
    n_train = sum(1 for w in windows if w.split == "train")
    print(f"wrote {len(windows)} windows ({n_train} train) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    file_cfg = _ConfigFile(args.config)
    tcfg = _build_dataclass(trainer.TrainConfig, args, file_cfg)
    modality = Modality.from_key(
        _resolve(args, file_cfg, "modality", "top_depth", _one_of(_MODALITY_KEYS)))
    head = _resolve(args, file_cfg, "head", "projection", _one_of(scoring.PATHWAYS))
    enc_dims = _resolve(args, file_cfg, "encoder_dims",
                        experiment.DEFAULT_ENCODER_DIMS, _csv_ints)
    proj_dims = _resolve(args, file_cfg, "projection_dims",
                         experiment.DEFAULT_PROJECTION_DIMS, _csv_ints)
    file_cfg.check_all_read()

    gen, _, windows = load_windows(args.data)
    n_in = WINDOW_LEN * gen.frame_dim
    if enc_dims[:1] != (n_in,):
        raise ValueError(f"--encoder-dims {','.join(map(str, enc_dims))} must start with "
                         f"{n_in}: {args.data} has frame_dim {gen.frame_dim}")
    train_windows = [w for w in windows if w.split == "train" and w.modality == modality]
    result = trainer.train(train_windows, list(enc_dims), list(proj_dims), tcfg)
    ckpt = result.best[head]
    print(f"best {head} checkpoint: epoch {ckpt.epoch}, val AUC {ckpt.val_auc:.4f}")

    if args.checkpoint_out:
        save_params(ckpt.params, args.checkpoint_out)
    if args.log_out:
        trainer.save_training_log(args.log_out, result.log)

    test_windows = [w for w in windows if w.split == "test" and w.modality == modality]
    if test_windows:
        cell = experiment.score_test_set({modality: ckpt.params}, {modality: train_windows},
                                         {modality: test_windows}, head == "projection")
        ls = LabeledScores(cell.scores[modality], cell.labels)
        print(f"test ROC AUC {roc_auc(ls):.4f}, PR AUC {pr_auc(ls):.4f}")
        if args.scores_out:
            scoring.save_scores(args.scores_out, cell.records())
        if args.curves_out:
            dump_curves(ls, args.curves_out + ".roc.csv", args.curves_out + ".pr.csv")
    return 0


# grid sets these per cell from --seeds and --loss-modes; no flag or file key does
_GRID_PER_CELL = ("seed", "negative_mode")


def _cmd_grid(args) -> int:
    file_cfg = _ConfigFile(args.config)
    cfg = _build_dataclass(
        experiment.ExperimentConfig, args, file_cfg,
        gen=_build_dataclass(GenConfig, args, file_cfg, _GRID_PER_CELL),
        train=_build_dataclass(trainer.TrainConfig, args, file_cfg, _GRID_PER_CELL))
    file_cfg.check_all_read()
    result = experiment.run_grid(cfg)
    print(f"grid written to {cfg.outdir} "
          f"({len(result.cells)} cells, {len(result.failures)} failures)")
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_stats(args) -> int:
    matrix = stats.load_matrix_csv(args.matrix)
    report = stats.analyze(matrix, alpha=args.alpha)
    prefix = args.out_prefix or os.path.splitext(args.matrix)[0]
    stats.save_pvalue_matrix_csv(prefix + ".raw_p.csv", report.pvalues.methods,
                                 report.pvalues.raw_p)
    stats.save_pvalue_matrix_csv(prefix + ".adjusted_p.csv", report.pvalues.methods,
                                 report.pvalues.adjusted_p)
    stats.save_significance_report(prefix + ".significance.csv", report)
    print(f"friedman chi2 {report.friedman_chi_sq:.4f}, p {report.friedman_p:.3e}")
    print(f"pairwise correction: {report.correction}")
    if report.significant:
        for a, b in report.significant:
            print(f"significant (alpha={args.alpha}): {a} vs {b}")
    else:
        print(f"no significant pairs at alpha={args.alpha}")
    return 0


def _cmd_fixtures(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    stats.save_matrix_csv(os.path.join(args.outdir, "fixture_roc.csv"), fixtures.roc_grid())
    stats.save_matrix_csv(os.path.join(args.outdir, "fixture_pr.csv"), fixtures.pr_grid())
    print(f"wrote fixture_roc.csv and fixture_pr.csv to {args.outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supconad",
        description="Contrastive anomaly scoring experiments and rank statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic window dataset file")
    _add_common(p)
    _add_dataclass_args(p, GenConfig)
    p.add_argument("--labelling", choices=LABELLING_MODES, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train one modality model from a dataset file")
    _add_common(p)
    _add_dataclass_args(p, trainer.TrainConfig)
    p.add_argument("--data", required=True)
    p.add_argument("--modality", choices=_MODALITY_KEYS, default=None)
    p.add_argument("--head", choices=scoring.PATHWAYS, default=None)
    p.add_argument("--encoder-dims", type=_csv_ints, default=None)
    p.add_argument("--projection-dims", type=_csv_ints, default=None)
    p.add_argument("--checkpoint-out", default=None)
    p.add_argument("--log-out", default=None)
    p.add_argument("--scores-out", default=None)
    p.add_argument("--curves-out", default=None,
                   help="prefix for ROC/PR curve point CSVs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("grid", help="run the full method grid")
    _add_common(p)
    _add_dataclass_args(p, GenConfig, _GRID_PER_CELL)
    _add_dataclass_args(p, trainer.TrainConfig, _GRID_PER_CELL)
    _add_dataclass_args(p, experiment.ExperimentConfig, skip=("gen", "train"))
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("stats", help="rank analysis of a method-by-dataset AUC matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("fixtures", help="emit the bundled reference AUC grids")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input, a failed file operation or diverged
    training exits with 2.

    A ValueError (DegenerateVectorError included), OSError or
    TrainingDivergedError becomes the one line ``supconad: error: <message>``
    on stderr, without a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, trainer.TrainingDivergedError) as exc:
        print(f"supconad: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
