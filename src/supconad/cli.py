"""Command-line interface: generate / train / grid / stats / fixtures.

Each setting is declared once, as its flag, with its type, default and known
values.  ``generate``, ``train`` and ``grid`` also read settings from a plain
``key=value`` text file passed with --config (keys are the flag names with
underscores; input and output paths of generate and train are flags only).
A file value goes through its flag's type and choices and becomes the flag's
default, so a flag wins over the file, the file over the default.  A file
key with no flag, or a file value that fails that check, is an error that
names its path and line; a bad flag value is an argparse usage error.  A
range error names the flag or file line that set the value.  ``train``
checks its layer widths before it reads --data, and that --data holds the
windows it needs (train windows of both labels, test windows when it writes
scores or curves, and test windows of both labels when it has any) before it
trains; a data error that training raises, such as a split too small for a
minibatch, names the file and modality too.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from . import experiment, fixtures, scoring, stats, trainer
from .loss import NEGATIVE_MODES
from .metrics import LabeledScores, dump_curves, pr_auc, roc_auc
from .model import check_dims, save_params
from .numerics import open_text
from .synthgen import (ANOMALOUS, LABELLING_MODES, NORMAL, WINDOW_LEN, GenConfig, Modality,
                       dataset_windows, generate_dataset, load_windows, save_windows)


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


def _csv_of(known: tuple[str, ...]):
    """Caster of a comma list whose every entry is one of known."""
    def cast(text: str) -> tuple[str, ...]:
        values = tuple(t.strip() for t in text.split(",") if t.strip())
        for value in values:
            if value not in known:
                raise argparse.ArgumentTypeError(
                    f"unknown {value!r} (known: {', '.join(known)})")
        return values
    return cast


_CASTERS = {"int": int, "float": float, "str": str, "tuple[int, ...]": _csv_ints}


def _add_dataclass_args(parser: argparse.ArgumentParser, cls, skip=()):
    """One flag per field of cls not in skip, defaulting to the field's default;
    a grid axis takes a comma list of its experiment.AXES values."""
    for fld in fields(cls):
        if fld.name in skip:
            continue
        cast = (_csv_of(experiment.AXES[fld.name]) if fld.name in experiment.AXES
                else _CASTERS[fld.type])
        parser.add_argument("--" + fld.name.replace("_", "-"), type=cast, default=fld.default,
                            choices=NEGATIVE_MODES if fld.name == "negative_mode" else None)


def _from_flags(cls, args: argparse.Namespace, **given):
    """cls with the given fields and every other field that has a flag set from args."""
    return cls(**given, **{fld.name: getattr(args, fld.name) for fld in fields(cls)
                           if fld.name not in given and hasattr(args, fld.name)})


def _add_config(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="key=value config file")


def _config_as_defaults(parser: argparse.ArgumentParser, path: str) -> dict[str, int]:
    """Make each key=value line of the --config file the default of its flag in parser,
    and return the line of each key.  A value goes through the flag's own type, then
    its choices.  The keys are the flags that have a default (path flags have none);
    any other key, or a value that fails, raises ValueError("path:line: ...")."""
    settable = {a.dest: a for a in parser._actions if a.default not in (None, argparse.SUPPRESS)}
    lines = {}
    with open_text(path) as f:
        for ln_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, text = (t.strip() for t in line.partition("="))
            where = f"{path}:{ln_no}"
            if not sep:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            if key not in settable:
                raise ValueError(f"{where}: unknown key {key!r} "
                                 f"(known keys: {', '.join(sorted(settable))})")
            action = settable[key]
            try:
                value = action.type(text) if action.type else text
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"unknown {value!r} (known: {', '.join(action.choices)})")
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"{where}: {key}: {exc}") from None
            action.default = value
            lines[key] = ln_no
    return lines


def _locate(message: str, parser: argparse.ArgumentParser, argv, args, lines) -> str:
    """message with its leading "<field>: " traced to the flag or --config line that set it."""
    field, _, rest = message.partition(": ")
    action = {a.dest: a for a in args.subparser._actions}.get(field)
    if not action:
        return message
    action.default = unset = object()   # parsed again, a field no flag sets keeps this
    if getattr(parser.parse_args(argv), field) is not unset:
        return f"{action.option_strings[0]}: {rest}"
    return f"{args.config}:{lines[field]}: {message}" if field in lines else message


def _cmd_generate(args) -> int:
    cfg = _from_flags(GenConfig, args)
    windows = dataset_windows(generate_dataset(cfg), args.labelling)
    save_windows(args.out, cfg, args.labelling, windows)
    n_train = sum(1 for w in windows if w.split == "train")
    print(f"wrote {len(windows)} windows ({n_train} train) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    tcfg = _from_flags(trainer.TrainConfig, args)
    modality, head = Modality.from_key(args.modality), args.head
    enc_dims, proj_dims = args.encoder_dims, args.projection_dims
    check_dims(enc_dims, proj_dims)

    gen, _, windows = load_windows(args.data)
    n_in = WINDOW_LEN * gen.frame_dim
    if enc_dims[0] != n_in:
        raise ValueError(f"encoder_dims: must start with {n_in}, the features of a window "
                         f"in {args.data} (frame_dim {gen.frame_dim}), got {enc_dims}")
    train_windows = [w for w in windows if w.split == "train" and w.modality == modality]
    if not train_windows:
        raise ValueError(f"{args.data}: no train windows of modality {modality.key}")
    for label in (NORMAL, ANOMALOUS):
        if not any(w.label == label for w in train_windows):
            raise ValueError(f"{args.data}: no {label} train windows of modality {modality.key}")
    test_windows = [w for w in windows if w.split == "test" and w.modality == modality]
    if not test_windows and (args.scores_out or args.curves_out):
        raise ValueError(f"{args.data}: no test windows of modality {modality.key}")
    for label in (NORMAL, ANOMALOUS):
        if test_windows and not any(w.label == label for w in test_windows):
            raise ValueError(f"{args.data}: no {label} test windows of modality {modality.key}")
    try:
        result = trainer.train(train_windows, list(enc_dims), list(proj_dims), tcfg)
    except ValueError as exc:
        if type(exc) is not ValueError:     # a DegenerateVectorError says where it arose
            raise
        raise ValueError(f"{args.data}: modality {modality.key}: {exc}") from None
    ckpt = result.best[head]
    print(f"best {head} checkpoint: epoch {ckpt.epoch}, val AUC {ckpt.val_auc:.4f}")

    if args.checkpoint_out:
        save_params(ckpt.params, args.checkpoint_out)
    if args.log_out:
        trainer.save_training_log(args.log_out, result.log)

    if test_windows:
        scored = experiment.score_test_set({(tcfg.negative_mode, modality): result},
                                           {modality: train_windows}, {modality: test_windows},
                                           (head,))[tcfg.negative_mode, modality]
        if isinstance(scored, tuple):
            raise scored[1]
        cell = replace(experiment.CellScores.for_windows(test_windows),
                       scores={modality: scored[head]})
        ls = LabeledScores(scored[head], cell.labels)
        print(f"test ROC AUC {roc_auc(ls):.4f}, PR AUC {pr_auc(ls):.4f}")
        if args.scores_out:
            scoring.save_scores(args.scores_out, cell.records())
        if args.curves_out:
            dump_curves(ls, args.curves_out + ".roc.csv", args.curves_out + ".pr.csv")
    return 0


# grid sets these per cell from --seeds and --loss-modes; no flag or file key does
_GRID_PER_CELL = ("seed", "negative_mode")


def _cmd_grid(args) -> int:
    cfg = _from_flags(experiment.ExperimentConfig, args, gen=_from_flags(GenConfig, args),
                      train=_from_flags(trainer.TrainConfig, args))
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
    _add_config(p)
    _add_dataclass_args(p, GenConfig)
    p.add_argument("--labelling", choices=LABELLING_MODES, default="original")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train one modality model from a dataset file")
    _add_config(p)
    _add_dataclass_args(p, trainer.TrainConfig)
    p.add_argument("--data", required=True)
    p.add_argument("--modality", choices=[m.key for m in Modality], default="top_depth")
    p.add_argument("--head", choices=scoring.PATHWAYS, default="projection")
    p.add_argument("--encoder-dims", type=_csv_ints, default=experiment.DEFAULT_ENCODER_DIMS)
    p.add_argument("--projection-dims", type=_csv_ints,
                   default=experiment.DEFAULT_PROJECTION_DIMS)
    p.add_argument("--checkpoint-out", default=None)
    p.add_argument("--log-out", default=None)
    p.add_argument("--scores-out", default=None)
    p.add_argument("--curves-out", default=None,
                   help="prefix for ROC/PR curve point CSVs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("grid", help="run the full method grid")
    _add_config(p)
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

    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input, a failed file operation or diverged
    training exits with 2.

    A ValueError (DegenerateVectorError included), OSError or
    TrainingDivergedError becomes the one line ``supconad: error: <message>``
    on stderr, without a traceback.
    """
    parser = build_parser()   # per call: --config values become its flags' defaults
    args = parser.parse_args(argv)
    lines: dict[str, int] = {}
    try:
        if getattr(args, "config", None) is not None:
            lines = _config_as_defaults(args.subparser, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, trainer.TrainingDivergedError) as exc:
        print("supconad: error:", _locate(str(exc), parser, argv, args, lines), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
