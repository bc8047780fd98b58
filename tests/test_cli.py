import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supconad import fixtures, scoring, trainer
from supconad.cli import main
from supconad.model import init_params, load_params, save_params
from supconad.numerics import DegenerateVectorError, Rng
from supconad.stats import load_matrix_csv
from supconad.synthgen import load_windows

import bit_identity

# tiny-but-feasible generation settings: 22/4 = 5.5, within 10% of 5.45
GEN_FLAGS = [
    "--frame-dim", "6", "--frames-per-clip", "96",
    "--train-normal-clips", "22", "--train-anomalous-clips", "4",
    "--test-normal-clips", "4", "--test-anomalous-clips", "3",
    "--seen-archetypes", "2", "--unseen-archetypes", "3",
]

TRAIN_FLAGS = [
    "--epochs", "4", "--validate-every", "2", "--lr-decay-every", "2",
    "--batch-normal", "2", "--batch-anomalous", "4",
    "--encoder-dims", "96,16,8", "--projection-dims", "8,4",
]


def run(argv):
    return main(argv)


def test_generate_writes_loadable_file(tmp_path):
    out = str(tmp_path / "data.txt")
    assert run(["generate", *GEN_FLAGS, "--seed", "5", "--labelling", "manual",
                "--out", out]) == 0
    cfg, labelling, windows = load_windows(out)
    assert labelling == "manual"
    assert cfg.frame_dim == 6 and cfg.seed == 5
    assert windows and all(w.features.shape == (96,) for w in windows)


def test_generate_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "frame_dim=6\nframes_per_clip=96\ntrain_normal_clips=11\n"
        "train_anomalous_clips=2\ntest_normal_clips=4\ntest_anomalous_clips=3\n"
        "seen_archetypes=2\nunseen_archetypes=3\nseed=9\nlabelling=original\n"
    )
    out = str(tmp_path / "data.txt")
    # the explicit flag must beat the file's seed=9
    assert run(["generate", "--config", str(cfg_file), "--seed", "123",
                "--out", out]) == 0
    cfg, labelling, _ = load_windows(out)
    assert cfg.seed == 123
    assert cfg.frames_per_clip == 96
    assert labelling == "original"


def test_train_writes_checkpoint_log_scores_curves(tmp_path, capsys):
    data = str(tmp_path / "data.txt")
    run(["generate", *GEN_FLAGS, "--seed", "7", "--labelling", "manual", "--out", data])
    ckpt = str(tmp_path / "model.txt")
    log = str(tmp_path / "log.csv")
    scores = str(tmp_path / "scores.csv")
    curves = str(tmp_path / "curves")
    assert run(["train", "--data", data, "--modality", "top_depth", *TRAIN_FLAGS,
                "--seed", "1", "--checkpoint-out", ckpt, "--log-out", log,
                "--scores-out", scores, "--curves-out", curves]) == 0
    printed = capsys.readouterr().out
    assert "val AUC" in printed and "test ROC AUC" in printed
    params = load_params(ckpt)
    assert params.input_dim == 96
    log_lines = open(log).read().splitlines()
    assert log_lines[0].startswith("epoch,") and len(log_lines) == 3  # epochs 2, 4
    assert open(scores).read().startswith("clip_id,window_index,top_depth,fused,label")
    assert os.path.exists(curves + ".roc.csv") and os.path.exists(curves + ".pr.csv")


def generate_digests(tmp_path: Path) -> dict[str, str]:
    """sha256 of the window file `supconad generate` writes for the GEN_FLAGS config
    (seed 7, original labels): 33 clips, one more than a drawing block holds."""
    data = tmp_path / "data.txt"
    assert run(["generate", *GEN_FLAGS, "--seed", "7", "--labelling", "original",
                "--out", str(data)]) == 0
    return {"data.txt": hashlib.sha256(data.read_bytes()).hexdigest()}


def test_generate_output_matches_the_recorded_digest(tmp_path):
    bit_identity.check("cli_generate", generate_digests(tmp_path))


def train_digests(tmp_path: Path) -> dict[str, str]:
    """sha256 of every file `supconad train` writes, per --head, keyed "<head>/<file>",
    on the GEN_FLAGS data (seed 7, manual labels) and TRAIN_FLAGS."""
    data = str(tmp_path / "data.txt")
    run(["generate", *GEN_FLAGS, "--seed", "7", "--labelling", "manual", "--out", data])
    digests = {}
    for head in scoring.PATHWAYS:
        out = tmp_path / head
        out.mkdir()
        assert run(["train", "--data", data, "--modality", "top_depth", *TRAIN_FLAGS,
                    "--seed", "1", "--head", head,
                    "--checkpoint-out", str(out / "checkpoint.txt"),
                    "--log-out", str(out / "log.csv"), "--scores-out", str(out / "scores.csv"),
                    "--curves-out", str(out / "curves")]) == 0
        for name in sorted(os.listdir(out)):
            digests[f"{head}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


def test_train_outputs_match_the_recorded_digests(tmp_path):
    digests = train_digests(tmp_path)
    assert len(digests) == 2 * 5     # checkpoint, log, scores and two curve files per head
    bit_identity.check("cli_train", digests)


def test_train_gives_the_same_model_and_scores_whatever_the_row_order(tmp_path):
    data = tmp_path / "data.txt"
    run(["generate", *GEN_FLAGS, "--seed", "7", "--labelling", "manual", "--out", str(data)])
    lines = data.read_text().splitlines(keepends=True)
    rows = [ln for ln in lines if not ln.startswith("#")]
    random.Random(0).shuffle(rows)
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("".join(lines[:len(lines) - len(rows)] + rows))
    outputs = []
    for path in (data, shuffled):
        out = tmp_path / path.stem
        out.mkdir()
        assert run(["train", "--data", str(path), *TRAIN_FLAGS, "--seed", "1",
                    "--checkpoint-out", str(out / "checkpoint.txt"),
                    "--scores-out", str(out / "scores.csv")]) == 0
        outputs.append({name: (out / name).read_bytes() for name in ("checkpoint.txt",
                                                                     "scores.csv")})
    assert outputs[0] == outputs[1]


def stats_digests(tmp_path: Path) -> dict[str, str]:
    """sha256 of the two matrices `supconad fixtures` writes and of the three files
    `supconad stats` then writes for each of them."""
    assert run(["fixtures", "--outdir", str(tmp_path)]) == 0
    for name in ("fixture_roc", "fixture_pr"):
        assert run(["stats", "--matrix", str(tmp_path / f"{name}.csv")]) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(tmp_path))}


def test_stats_outputs_match_the_recorded_digests(tmp_path):
    digests = stats_digests(tmp_path)
    assert len(digests) == 2 * 4     # each matrix and its raw_p, adjusted_p, significance
    bit_identity.check("cli_stats", digests)


def test_fixtures_roundtrip_and_stats_reproduce_known_pairs(tmp_path, capsys):
    outdir = str(tmp_path)
    assert run(["fixtures", "--outdir", outdir]) == 0
    roc = load_matrix_csv(os.path.join(outdir, "fixture_roc.csv"))
    assert roc.methods == fixtures.METHOD_LABELS
    assert np.array_equal(roc.values, fixtures.roc_grid().values)

    assert run(["stats", "--matrix", os.path.join(outdir, "fixture_roc.csv"),
                "--alpha", "0.05"]) == 0
    printed = capsys.readouterr().out
    assert "pairwise correction: bergmann-hommel" in printed
    for a, b in fixtures.ROC_SIGNIFICANT_PAIRS:
        assert f"{a} vs {b}" in printed
    sig_path = os.path.join(outdir, "fixture_roc.significance.csv")
    flagged = {tuple(ln.split(",")[:2])
               for ln in open(sig_path).read().splitlines() if ln.endswith(",yes")}
    assert flagged == {fixtures.canonical_pair(*p) for p in fixtures.ROC_SIGNIFICANT_PAIRS}


def test_stats_rerun_is_idempotent(tmp_path):
    run(["fixtures", "--outdir", str(tmp_path)])
    matrix = str(tmp_path / "fixture_pr.csv")
    run(["stats", "--matrix", matrix])
    first = {p: open(os.path.join(tmp_path, f"fixture_pr.{p}.csv")).read()
             for p in ("raw_p", "adjusted_p", "significance")}
    run(["stats", "--matrix", matrix])
    second = {p: open(os.path.join(tmp_path, f"fixture_pr.{p}.csv")).read()
              for p in ("raw_p", "adjusted_p", "significance")}
    assert first == second


def test_stats_constant_matrix_has_no_significant_pairs(tmp_path, capsys):
    matrix = tmp_path / "flat.csv"
    matrix.write_text(
        "method,d0,d1,d2\n" + "".join(f"m{i},0.5,0.5,0.5\n" for i in range(4))
    )
    assert run(["stats", "--matrix", str(matrix)]) == 0
    assert "no significant pairs" in capsys.readouterr().out


GRID_ARGS = [
    *GEN_FLAGS, *TRAIN_FLAGS,
    "--seeds", "3",
]


def test_grid_runs_and_is_byte_identical_on_rerun(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["grid", *GRID_ARGS, "--outdir", out1]) == 0
    assert run(["grid", *GRID_ARGS, "--outdir", out2]) == 0

    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "grid_roc_seed3.csv" in names and "grid_pr_mean.csv" in names
    assert "manifest.json" in names
    for name in names:
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out1, name), "rb") as fa, \
             open(os.path.join(out2, name), "rb") as fb:
            assert fa.read() == fb.read(), name

    # manifests agree on everything except where they were written
    m1 = json.load(open(os.path.join(out1, "manifest.json")))
    m2 = json.load(open(os.path.join(out2, "manifest.json")))
    m1["config"].pop("outdir")
    m2["config"].pop("outdir")
    assert m1 == m2

    grid = load_matrix_csv(os.path.join(out1, "grid_roc_seed3.csv"))
    assert len(grid.methods) == 8      # 2 losses x 2 heads x 2 labellings
    assert len(grid.datasets) == 9     # the nine modality combinations
    assert np.all((grid.values >= -1) & (grid.values <= 1))

    manifest = json.load(open(os.path.join(out1, "manifest.json")))
    assert manifest["seeds"] == [3]
    assert manifest["failures"] == []
    assert manifest["config"]["gen"]["frame_dim"] == 6


def test_grid_then_stats_pipeline(tmp_path, capsys):
    outdir = str(tmp_path / "g")
    assert run(["grid", *GRID_ARGS, "--outdir", outdir]) == 0
    assert run(["stats", "--matrix", os.path.join(outdir, "grid_roc_mean.csv")]) == 0
    assert "friedman chi2" in capsys.readouterr().out


def test_unknown_modality_rejected():
    with pytest.raises(SystemExit):
        run(["train", "--data", "x", "--modality", "rear_lidar"])


# -- one-line errors ---------------------------------------------------------------

def assert_one_line_error(capsys, argv, *fragments):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("supconad: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err, err


def test_missing_data_file_is_a_one_line_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert_one_line_error(capsys, ["train", "--data", missing, *TRAIN_FLAGS], missing)


def test_malformed_window_line_error_names_path_and_line(tmp_path, capsys):
    data = tmp_path / "data.txt"
    run(["generate", *GEN_FLAGS, "--seed", "5", "--out", str(data)])
    lines = data.read_text().splitlines(keepends=True)
    first_row = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[first_row] = lines[first_row].replace(",", ",x", 7)
    data.write_text("".join(lines))
    capsys.readouterr()
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS],
                          f"{data}:{first_row + 1}: ")


def test_diverged_training_is_a_one_line_error(tmp_path, capsys):
    data = str(tmp_path / "data.txt")
    run(["generate", *GEN_FLAGS, "--seed", "7", "--labelling", "manual", "--out", data])
    capsys.readouterr()
    assert_one_line_error(capsys, ["train", "--data", data, *TRAIN_FLAGS, "--lr0", "1e200"],
                          "at epoch 1, step ")


@pytest.mark.parametrize("command, known, typo", [
    ("generate", "frame_dim=6", "seeed=9"),
    ("train", "epochs=4", "seeed=9"),
    ("grid", "epochs=4", "seeed=9"),
    ("grid", "epochs=4", "seed=9"),          # grid takes seeds; seed is set per run
    ("grid", "epochs=4", "negative_mode=sum"),
    ("train", "epochs=4", "momentum=0.9"),
    ("grid", "epochs=4", "jitter_sigma=0.1"),
], ids=["generate", "train", "grid", "grid-seed", "grid-negative-mode", "train-momentum",
        "grid-jitter-sigma"])
def test_unknown_config_key_is_a_one_line_error(tmp_path, capsys, command, known, typo):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n{known}\n{typo}\n")
    out = tmp_path / "out"
    argv = {"generate": ["generate", "--out", str(out)],
            "train": ["train", "--data", str(tmp_path / "missing.txt")],
            "grid": ["grid", "--outdir", str(out)]}[command]
    key = typo.split("=")[0]
    # the key is rejected before any work: no output, and no read of the missing data file
    assert_one_line_error(capsys, [*argv, "--config", str(cfg)],
                          f"{cfg}:3: unknown key '{key}'")
    assert not out.exists()


@pytest.mark.parametrize("command, known, bad, message", [
    ("train", "epochs=4", "head=encoderr", "head: unknown 'encoderr' (known: encoder, projection)"),
    ("train", "head=encoder", "epochs=abc", "epochs: invalid literal for int()"),
    ("generate", "frame_dim=6", "labelling=manul", "labelling: unknown 'manul'"),
    ("grid", "epochs=4", "seeds=3,x", "seeds: invalid literal for int()"),
    ("grid", "epochs=4", "head_modes=encoderr",
     "head_modes: unknown 'encoderr' (known: encoder, projection)"),
    ("train", "epochs=4", "negative_mode=avg",
     "negative_mode: unknown 'avg' (known: sum, average)"),
    ("train", "epochs=0", "epochs=4", "repeats key 'epochs' of line 2"),   # no later value wins
], ids=["train-head", "train-epochs", "generate-labelling", "grid-seeds", "grid-head-modes",
        "train-negative-mode", "train-repeated-key"])
def test_bad_config_value_is_a_one_line_error(tmp_path, capsys, command, known, bad, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n{known}\n{bad}\n")
    out = tmp_path / "out"
    argv = {"generate": ["generate", "--out", str(out)],
            "train": ["train", "--data", str(tmp_path / "missing.txt"),
                      "--checkpoint-out", str(out)],
            "grid": ["grid", "--outdir", str(out)]}[command]
    # the value is rejected before any work: no output, and no read of the missing data file
    assert_one_line_error(capsys, [*argv, "--config", str(cfg)], f"{cfg}:3: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, bad, known", [
    ("grid", "--head-modes", "encoderr", ["encoder", "projection"]),
    ("train", "--negative-mode", "avg", ["sum", "average"]),
], ids=["grid-head-modes", "train-negative-mode"])
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, command, flag, bad, known):
    out = tmp_path / "out"
    argv = {"train": ["train", "--data", str(tmp_path / "missing.txt"),
                      "--checkpoint-out", str(out)],
            "grid": ["grid", "--outdir", str(out)]}[command]
    with pytest.raises(SystemExit) as exc:
        run([*argv, flag, bad])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and repr(bad) in err, err
    assert all(value in err for value in known), err
    assert not out.exists()


def test_config_values_do_not_outlive_their_call(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=9\nlabelling=manual\n")
    first, second = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert run(["generate", *GEN_FLAGS, "--config", str(cfg), "--out", first]) == 0
    assert run(["generate", *GEN_FLAGS, "--out", second]) == 0
    cfg1, labelling1, _ = load_windows(first)
    cfg2, labelling2, _ = load_windows(second)
    assert (cfg1.seed, labelling1) == (9, "manual")
    assert (cfg2.seed, labelling2) == (0, "original")


def test_train_rejects_projection_dims_that_do_not_chain(tmp_path, capsys):
    out = tmp_path / "model.txt"
    # the dims are checked before the (missing) data file is opened
    assert_one_line_error(capsys, ["train", "--data", str(tmp_path / "missing.txt"),
                                   "--encoder-dims", "96,16,8", "--projection-dims", "16,4",
                                   "--checkpoint-out", str(out)],
                          "supconad: error: --projection-dims: must start with 8, the last "
                          "of encoder_dims, got (16, 4)\n")
    assert not out.exists()


def test_train_rejects_encoder_dims_that_do_not_fit_the_data(tmp_path, capsys):
    data = str(tmp_path / "data.txt")
    run(["generate", *GEN_FLAGS, "--seed", "7", "--out", data])   # frame_dim 6: 96 features
    capsys.readouterr()
    out = tmp_path / "model.txt"
    assert_one_line_error(capsys, ["train", "--data", data, "--checkpoint-out", str(out)],
                          "supconad: error: encoder_dims: must start with 96, the features "
                          f"of a window in {data} (frame_dim 6), got (192, 64, 32)\n")
    assert not out.exists()


def test_train_on_a_file_without_train_windows_names_the_file_and_modality(tmp_path, capsys):
    data = tmp_path / "data.txt"
    run(["generate", *GEN_FLAGS, "--seed", "7", "--out", str(data)])
    lines = data.read_text().splitlines(keepends=True)
    data.write_text("".join(ln for ln in lines if not ln.startswith("train,")))
    capsys.readouterr()
    out = tmp_path / "model.txt"
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS,
                                   "--modality", "top_ir", "--checkpoint-out", str(out)],
                          f"supconad: error: {data}: modality top_ir: no normal windows to split\n")
    assert not out.exists()


def _generate_without(tmp_path, dropped) -> Path:
    """The GEN_FLAGS window file at seed 7 with every row for which dropped(row) holds
    left out."""
    data = tmp_path / "data.txt"
    run(["generate", *GEN_FLAGS, "--seed", "7", "--out", str(data)])
    lines = data.read_text().splitlines(keepends=True)
    data.write_text("".join(ln for ln in lines if not dropped(ln)))
    return data


@pytest.mark.parametrize("label", ["normal", "anomalous"])
def test_train_on_a_file_without_train_windows_of_a_label_names_it(tmp_path, capsys, label):
    data = _generate_without(
        tmp_path, lambda ln: ln.startswith("train,top_depth,") and f",{label}," in ln)
    capsys.readouterr()
    out = tmp_path / "model.txt"
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS,
                                   "--checkpoint-out", str(out)],
                          f"supconad: error: {data}: modality top_depth: no {label} windows to "
                          "split\n")
    assert not out.exists()


@pytest.mark.parametrize("label", ["normal", "anomalous"])
def test_train_on_a_file_without_test_windows_of_a_label_names_it(tmp_path, capsys, label):
    data = _generate_without(
        tmp_path, lambda ln: ln.startswith("test,top_depth,") and f",{label}," in ln)
    capsys.readouterr()
    out = tmp_path / "model.txt"
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS,
                                   "--checkpoint-out", str(out)],
                          f"supconad: error: {data}: no {label} test windows of modality "
                          "top_depth\n")
    assert not out.exists()


def test_train_on_a_split_with_an_empty_side_names_the_file_and_modality(tmp_path, capsys):
    anomalous = []     # the anomalous train rows of top_depth; all but the first 2 dropped

    def dropped(ln):
        if ln.startswith("train,top_depth,") and ",anomalous," in ln:
            anomalous.append(ln)
            return len(anomalous) > 2
        return False

    data = _generate_without(tmp_path, dropped)
    capsys.readouterr()
    out = tmp_path / "model.txt"
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS,
                                   "--checkpoint-out", str(out)],
                          f"supconad: error: {data}: modality top_depth: split leaves an empty "
                          "side for anomalous windows\n")
    assert not out.exists()


def test_train_on_a_split_smaller_than_a_minibatch_names_the_file_and_modality(tmp_path,
                                                                               capsys):
    data = _generate_without(tmp_path, lambda ln: False)
    capsys.readouterr()
    out = tmp_path / "model.txt"
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS,
                                   "--batch-normal", "6", "--batch-anomalous", "24",   # defaults
                                   "--checkpoint-out", str(out)],
                          f"supconad: error: {data}: modality top_depth: training split smaller "
                          "than one minibatch: need 6 normal / 24 anomalous windows, "
                          "have 53 / 10\n")
    assert not out.exists()


@pytest.mark.parametrize("error", [DegenerateVectorError, trainer.TrainingDivergedError])
def test_train_reports_a_model_failure_as_raised(tmp_path, capsys, monkeypatch, error):
    data = _generate_without(tmp_path, lambda ln: False)
    capsys.readouterr()

    def fail(*args):
        raise error("validation at epoch 2, projection pathway: norm is degenerate")

    monkeypatch.setattr(trainer, "train", fail)
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS],
                          "supconad: error: validation at epoch 2, projection pathway: norm is "
                          "degenerate\n")


@pytest.mark.parametrize("flag", ["--scores-out", "--curves-out"])
def test_train_writing_test_results_without_test_windows_names_the_file(tmp_path, capsys,
                                                                         flag):
    data = _generate_without(tmp_path, lambda ln: ln.startswith("test,top_depth,"))
    capsys.readouterr()
    out = tmp_path / "model.txt"
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS,
                                   "--checkpoint-out", str(out), flag, str(tmp_path / "s")],
                          f"supconad: error: {data}: no normal test windows of modality "
                          "top_depth\n")
    assert not out.exists()
    # without a test result to write, the test windows are not needed
    assert run(["train", "--data", str(data), *TRAIN_FLAGS, "--checkpoint-out", str(out)]) == 0
    assert out.exists()


def test_grid_rejects_default_dims_at_another_frame_dim(tmp_path, capsys):
    out = tmp_path / "out"
    assert_one_line_error(capsys, ["grid", "--frame-dim", "6", "--outdir", str(out)],
                          "supconad: error: encoder_dims: must start with 96, the features "
                          "of a window at frame_dim 6, got (192, 64, 32)\n")
    assert not out.exists()


@pytest.mark.parametrize("command, known, bad, message", [
    ("train", "head=encoder", "epochs=0", "epochs: must be >= 1, got 0"),
    ("grid", "epochs=4", "combos=", "combos: must be non-empty"),
    ("generate", "seed=3", "frame_dim=0", "frame_dim: must be >= 1, got 0"),
    ("grid", "epochs=4", "encoder_dims=192,0,32",
     "encoder_dims: every width must be >= 1, got (192, 0, 32)"),
    ("train", "epochs=4", "projection_dims=32,1",
     "projection_dims: must end at width >= 2, got (32, 1)"),
    ("generate", "frame_dim=6", "seed=-1", "seed: must fit in an unsigned 64-bit integer, got -1"),
    ("train", "epochs=4", f"seed={2 ** 64}",
     f"seed: must fit in an unsigned 64-bit integer, got {2 ** 64}"),
    ("grid", "epochs=4", "seeds=-3", "seeds: must fit in an unsigned 64-bit integer, got -3"),
    ("grid", "epochs=4", "seeds=3,3", "seeds: repeats a value, got (3, 3)"),
], ids=["train-epochs", "grid-combos", "generate-frame-dim", "grid-encoder-dims",
        "train-projection-dims", "generate-seed", "train-seed", "grid-seeds",
        "grid-repeated-seed"])
def test_config_range_error_names_its_line(tmp_path, capsys, command, known, bad, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n{known}\n{bad}\n")
    out = tmp_path / "out"
    argv = {"generate": ["generate", "--out", str(out)],
            "train": ["train", "--data", str(tmp_path / "missing.txt"),
                      "--checkpoint-out", str(out)],
            "grid": ["grid", "--outdir", str(out)]}[command]
    assert_one_line_error(capsys, [*argv, "--config", str(cfg)],
                          f"supconad: error: {cfg}:3: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--epochs", "0", "must be >= 1, got 0"),
    ("train", "--val-fraction", "1.5", "must be in (0, 1), got 1.5"),
    ("grid", "--seeds", "", "must be non-empty"),
    ("generate", "--contamination", "1.5", "must be in [0, 1), got 1.5"),
    ("grid", "--projection-dims", "32,1", "must end at width >= 2, got (32, 1)"),
    ("grid", "--encoder-dims", "192,0,32", "every width must be >= 1, got (192, 0, 32)"),
    ("grid", "--encoder-dims", "192,-5,32", "every width must be >= 1, got (192, -5, 32)"),
    ("grid", "--encoder-dims", "192", "must list at least 2 widths, got (192,)"),
    ("train", "--encoder-dims", "96,0,8", "every width must be >= 1, got (96, 0, 8)"),
    ("train", "--projection-dims", "8", "must list at least 2 widths, got (8,)"),
    ("generate", "--seed", "-1", "must fit in an unsigned 64-bit integer, got -1"),
    ("train", "--seed", str(2 ** 64), f"must fit in an unsigned 64-bit integer, got {2 ** 64}"),
    ("grid", "--seeds", "-3", "must fit in an unsigned 64-bit integer, got -3"),
    ("grid", "--seeds", "3,3", "repeats a value, got (3, 3)"),
], ids=["train-epochs", "train-val-fraction", "grid-seeds", "generate-contamination",
        "grid-output-width-1", "grid-width-0", "grid-width-negative", "grid-one-width",
        "train-width-0", "train-one-width", "generate-seed", "train-seed", "grid-seed-range",
        "grid-repeated-seed"])
def test_flag_range_error_names_the_flag(tmp_path, capsys, command, flag, value, message):
    """Rejected before any work: no output, no generated data, no read of the data file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# the flag, not this file, sets the bad value\n")
    out = tmp_path / "out"
    argv = {"generate": ["generate", "--out", str(out)],
            "train": ["train", "--data", str(tmp_path / "missing.txt"),
                      "--checkpoint-out", str(out)],
            "grid": ["grid", "--outdir", str(out)]}[command]
    for extra in ([], ["--config", str(cfg)]):
        assert_one_line_error(capsys, [*argv, *extra, flag, value],
                              f"supconad: error: {flag}: {message}\n")
    assert not out.exists()


def test_flag_overrides_a_bad_config_value(tmp_path, capsys):
    data = str(tmp_path / "data.txt")
    run(["generate", *GEN_FLAGS, "--seed", "7", "--labelling", "manual", "--out", data])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=0\nprojection_dims=8,1\n")
    out = tmp_path / "model.txt"
    # TRAIN_FLAGS sets --epochs and --projection-dims, so the file's bad values never apply
    assert run(["train", "--data", data, "--config", str(cfg), *TRAIN_FLAGS,
                "--checkpoint-out", str(out)]) == 0
    assert load_params(str(out)).projection[-1].weight.shape[0] == 4


@pytest.mark.parametrize("argv", [["stats", "--matrix", "m.csv"], ["fixtures"]],
                         ids=["stats", "fixtures"])
def test_config_flag_is_rejected_where_nothing_reads_it(tmp_path, capsys, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.5\n")
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_malformed_matrix_csv_is_a_one_line_error(tmp_path, capsys):
    matrix = tmp_path / "bad.csv"
    matrix.write_text("method,d0,d1\nm0,0.5,0.6\nm1,0.5\n")
    assert_one_line_error(capsys, ["stats", "--matrix", str(matrix)], f"{matrix}:3: ")


@pytest.mark.parametrize("body, where, message", [
    ("m0,0.5,0.6\nm1,nan,0.6\n", ":3", "non-finite value"),
    ("m0,0.5,0.6\nm1,0.5,0.6\nm0,0.7,0.6\n", ":4", "duplicate method label 'm0'"),
    ("m0,0.5,0.6\n", "", "need at least 2 methods and 2 datasets"),
    ("\nm0,0.5,0.6\n\nm1,0.5\n", ":5", "expected 3 fields, got 2"),
], ids=["nan-cell", "duplicate-label", "one-method", "after-blank-lines"])
def test_matrix_error_names_the_file(tmp_path, capsys, body, where, message):
    matrix = tmp_path / "bad.csv"
    matrix.write_text("method,d0,d1\n" + body)
    assert_one_line_error(capsys, ["stats", "--matrix", str(matrix)],
                          f"supconad: error: {matrix}{where}: {message}\n")


def test_repeated_dataset_label_names_the_header_line(tmp_path, capsys):
    matrix = tmp_path / "bad.csv"
    matrix.write_text("method,d0,d0,d1\nm0,0.9,0.8,0.7\nm1,0.6,0.5,0.4\nm2,0.3,0.2,0.1\n")
    assert_one_line_error(capsys, ["stats", "--matrix", str(matrix)],
                          f"supconad: error: {matrix}:1: duplicate dataset label 'd0'\n")


# -- a byte that is not UTF-8 names the file and line ---------------------------------

def _with_bad_byte(path: Path, line: int) -> None:
    """Put a byte that no UTF-8 text holds at the start of the given line (1-based)."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"".join(lines))


def test_a_bad_byte_in_a_window_file_names_its_line(tmp_path, capsys):
    data = tmp_path / "data.txt"
    run(["generate", *GEN_FLAGS, "--seed", "5", "--out", str(data)])
    capsys.readouterr()
    _with_bad_byte(data, 200)   # a window row, past the first read-ahead block
    assert_one_line_error(capsys, ["train", "--data", str(data), *TRAIN_FLAGS],
                          f"supconad: error: {data}:200: 'utf-8' codec can't decode byte 0xff")


def test_a_bad_byte_in_a_matrix_csv_names_its_line(tmp_path, capsys):
    run(["fixtures", "--outdir", str(tmp_path)])
    matrix = tmp_path / "fixture_roc.csv"
    _with_bad_byte(matrix, 3)
    capsys.readouterr()
    assert_one_line_error(capsys, ["stats", "--matrix", str(matrix)],
                          f"supconad: error: {matrix}:3: 'utf-8' codec can't decode byte 0xff")


def test_a_bad_byte_in_a_config_file_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nseed=3\nframe_dim=6\n")
    _with_bad_byte(cfg, 2)
    out = tmp_path / "data.txt"
    assert_one_line_error(capsys, ["generate", "--config", str(cfg), "--out", str(out)],
                          f"supconad: error: {cfg}:2: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


def test_a_bad_byte_in_a_checkpoint_names_its_line(tmp_path):
    ckpt = tmp_path / "model.txt"
    save_params(init_params([6, 4], [4, 2], Rng(1)), str(ckpt))
    _with_bad_byte(ckpt, 4)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(ckpt))}:4: 'utf-8' codec "
                                         r"can't decode byte 0xff"):
        load_params(str(ckpt))


# -- every input file: bad input is one line that names its place ---------------------

# the line each file's mutations change, and the separator of its fields
_FILE_LINES = {"window": (17, ","), "matrix": (2, ","), "config": (2, "="),
               "checkpoint": (5, " ")}


def _mutate(text: bytes, line: int, sep: str, mutation: str) -> bytes:
    """text with one line changed (1-based), or its first line repeated at the end,
    or emptied."""
    lines = text.splitlines(keepends=True)
    fields = lines[line - 1].decode().rstrip("\n").split(sep)
    changed = {"nan": fields[:-1] + ["nan"], "inf": fields[:-1] + ["inf"],
               "truncated": fields[:-1], "extra-field": fields + ["0.5"]}.get(mutation)
    if changed is not None:
        lines[line - 1] = (sep.join(changed) + "\n").encode()
    elif mutation == "repeated":
        lines.append(lines[line - 1])
    elif mutation == "bad-byte":
        lines[line - 1] = b"\xff" + lines[line - 1]
    else:
        assert mutation == "empty"
        lines = []
    return b"".join(lines)


@pytest.fixture(scope="module")
def valid_input_files(tmp_path_factory) -> dict[str, Path]:
    """One valid file each of the four kinds the package reads."""
    base = tmp_path_factory.mktemp("valid")
    files = {kind: base / name for kind, name in (("window", "data.txt"), ("matrix", "m.csv"),
                                                   ("config", "run.cfg"),
                                                   ("checkpoint", "model.txt"))}
    assert main(["generate", *GEN_FLAGS, "--seed", "7", "--labelling", "manual",
                 "--out", str(files["window"])]) == 0
    files["matrix"].write_text("method,d0,d1,d2\nm0,0.5,0.6,0.7\nm1,0.4,0.5,0.6\n"
                               "m2,0.3,0.4,0.5\n")
    files["config"].write_text("# sets what TRAIN_FLAGS does not\nlr0=0.01\ntau=0.1\n")
    save_params(init_params([6, 4], [4, 2], Rng(1)), str(files["checkpoint"]))
    return files


def _error_of(capsys, kind: str, path: Path, data: Path) -> str | None:
    """The one-line error the reader of kind gives for the file at path, or None when
    it accepts it: the checkpoint through load_params, since no subcommand reads one,
    and every other file through cli.main."""
    if kind == "checkpoint":
        try:
            load_params(str(path))
        except ValueError as exc:
            return str(exc)
        return None
    argv = {"window": ["train", "--data", str(path), *TRAIN_FLAGS],
            "matrix": ["stats", "--matrix", str(path), "--out-prefix", str(path) + ".out"],
            "config": ["train", "--data", str(data), *TRAIN_FLAGS, "--config", str(path),
                       "--checkpoint-out", str(path) + ".model"]}[kind]
    capsys.readouterr()
    status = run(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status == 0:
        assert err == ""
        return None
    assert status == 2 and err.startswith("supconad: error: ") and err.count("\n") == 1, err
    return err[len("supconad: error: "):-1]


@pytest.mark.parametrize("mutation", ["nan", "inf", "truncated", "extra-field", "repeated",
                                      "bad-byte", "empty"])
@pytest.mark.parametrize("kind", list(_FILE_LINES))
def test_bad_input_in_any_file_is_one_line_naming_its_place(tmp_path, capsys,
                                                           valid_input_files, kind, mutation):
    line, sep = _FILE_LINES[kind]
    text = valid_input_files[kind].read_bytes()
    path = tmp_path / valid_input_files[kind].name
    path.write_bytes(_mutate(text, line, sep, mutation))
    error = _error_of(capsys, kind, path, valid_input_files["window"])
    if (kind, mutation) == ("config", "empty"):   # every setting keeps its default
        assert error is None
        return
    # the changed line; a repeated line's copy, after the last; an empty file's line 1
    where = {"repeated": len(text.splitlines()) + 1, "empty": 1}.get(mutation, line)
    assert error is not None and error.startswith(f"{path}:{where}: "), error
    assert "\n" not in error


def test_stats_alpha_range_error_names_the_flag(tmp_path, capsys):
    run(["fixtures", "--outdir", str(tmp_path)])
    assert_one_line_error(capsys, ["stats", "--matrix", str(tmp_path / "fixture_roc.csv"),
                                   "--alpha", "2"],
                          "supconad: error: --alpha: must be in (0, 1), got 2.0\n")


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", "import sys, supconad.cli; "
                          "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout == "[]\n"


# -- determinism across processes ----------------------------------------------------

def test_grid_is_byte_identical_across_processes_and_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "supconad", "grid", *GRID_ARGS,
                        "--outdir", "out"], cwd=cwd, env=env, check=True,
                       capture_output=True)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
    names = set(outputs["1"])
    assert "manifest.json" in names and "grid_roc_seed3.csv" in names
    assert any(name.startswith("scores") for name in names), names
    assert outputs["1"] == outputs["2"]
