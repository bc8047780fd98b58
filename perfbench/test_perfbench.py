"""Tests of the benchmark itself: span arithmetic, wrapping and output checks.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from supconad import experiment, synthgen, trainer  # noqa: E402
from supconad.synthgen import MODALITIES, NORMAL, GenConfig  # noqa: E402

TINY = experiment.ExperimentConfig(
    gen=GenConfig(frame_dim=6, frames_per_clip=96, train_normal_clips=22,
                  train_anomalous_clips=4, test_normal_clips=4,
                  test_anomalous_clips=3, seen_archetypes=2, unseen_archetypes=3),
    train=trainer.TrainConfig(epochs=4, validate_every=2, lr_decay_every=2,
                              batch_normal=2, batch_anomalous=4),
    encoder_dims=(96, 32, 16),
    projection_dims=(16, 8),
)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0]


HAND_BUILT = [
    _span("experiment.op", 0, 1000, -1),
    _span("trainer.train", 100, 700, 0),
    _span("model.forward", 150, 250, 1),
    _span("model.sgd", 300, 340, 1),
    _span("scoring.score", 400, 500, 1),     # validation: under trainer.train
    _span("model.forward", 420, 470, 4),
    _span("model.sgd", 600, 650, 1),
    _span("experiment.export", 800, 950, 0),
]


def test_self_time_is_duration_minus_children_on_a_hand_built_tree():
    own = spans.self_times(HAND_BUILT)
    assert own == [1000 - 600 - 150, 600 - 100 - 40 - 100 - 50, 100, 40, 100 - 50, 50, 50, 150]
    m = spans.op_metrics(HAND_BUILT, own, range(len(HAND_BUILT)))
    assert m["experiment.self_s"] == pytest.approx(250e-9)
    assert m["experiment.export_s"] == pytest.approx(150e-9)
    assert m["trainer.self_s"] == pytest.approx(310e-9)
    assert m["model.self_s"] == pytest.approx((100 + 40 + 50 + 50) * 1e-9)
    assert m["scoring.self_s"] == pytest.approx(50e-9)
    layers = sum(m[f"{layer}.self_s"] for layer in spans.SELF_LAYERS)
    assert layers + m["experiment.self_s"] + m["experiment.export_s"] == \
        pytest.approx(m["trace.op_s"])
    assert m["trace.op_s"] == pytest.approx(1000e-9)
    # validation is one event; the step interval that holds it is skipped
    assert (m["trainer.validate_calls"], m["trainer.validate_s"]) == (1, pytest.approx(100e-9))
    assert (m["trainer.steps"], m["trainer.step_us"]) == (2, 0.0)
    assert m["scoring.score_s"] == 0.0          # only validation scored
    assert m["model.forward_calls"] == 2


def test_a_span_outside_the_known_layers_is_rejected():
    tree = [_span("experiment.op", 0, 10, -1), _span("cache.get", 2, 4, 0)]
    with pytest.raises(ValueError, match="cache"):
        spans.op_metrics(tree, spans.self_times(tree), range(2))


def test_wrapped_batch_loss_fires_once_per_training_step():
    cfg = TINY
    ds = synthgen.generate_dataset(cfg.gen)
    windows = synthgen.by_modality(
        synthgen.dataset_windows(ds, "manual", split="train"))[MODALITIES[0]]
    original = trainer.batch_loss
    tracer = spans.Tracer()
    tracer.op = 0
    with tracer.installed(workloads.trace_targets()):
        tracer.wrap(trainer.train, spans.ROOT)(
            windows, list(cfg.encoder_dims), list(cfg.projection_dims), cfg.train)
    assert trainer.batch_loss is original

    m = spans.layer_metrics(tracer.spans)
    fired = sum(1 for s in tracer.spans if s[spans.NAME] == "loss.value")
    n_normal = sum(w.label == NORMAL for w in windows)
    n_train = n_normal - round(cfg.train.val_fraction * n_normal)
    steps = cfg.train.epochs * math.ceil(n_train / cfg.train.batch_normal)
    assert fired == m["trainer.steps"] == steps
    # two draws per step; the split's shuffles sit under synthgen.split
    assert m["numerics.sample_calls"] == 2 * steps
    assert m["trainer.validate_calls"] == cfg.train.epochs // cfg.train.validate_every


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    own = spans.self_times(HAND_BUILT)
    layer = set(spans.op_metrics(HAND_BUILT, own, range(len(HAND_BUILT)))) | {
        "trace.overhead_ratio"}
    assert {(m["name"], m["unit"]) for m in bench["per_layer"]} == \
        {(name, spans.unit(name)) for name in layer}
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == \
        set(run.END_TO_END_UNITS.items())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


class _Replay:
    """A workload whose op returns a fixed fingerprint."""

    name = "replay"
    data_seed = 1

    def __init__(self, fp):
        self.fp = fp

    def op(self, outdir):
        return self.fp

    def fingerprint(self, result, outdir):
        return result

    def invariant_problems(self, fp):
        return []


def test_a_perturbed_auc_is_counted_as_a_failed_op(tmp_path):
    recorded = {"auc": 0.9375, "single": {"top_depth": 0.875}}
    _, aucs, failures = run.measure(_Replay(recorded), recorded, 0, str(tmp_path))
    assert (aucs, failures) == ([0.9375], [])

    perturbed = {"auc": 0.9375, "single": {"top_depth": math.nextafter(0.875, 1.0)}}
    times, aucs, failures = run.measure(_Replay(perturbed), recorded, 0, str(tmp_path))
    assert len(times[False]) == 1 and aucs == []
    assert len(failures) == 1 and failures[0]["problems"][0].startswith("/single/top_depth")


class _GridReplay(workloads.GridShort):
    """grid_short with an op that writes one fixed CSV instead of running the grid."""

    def __init__(self, workdir, content: bytes):
        super().__init__(0, workdir)
        self.content = content

    def op(self, outdir):
        Path(outdir, "grid_roc_mean.csv").write_bytes(self.content)
        return SimpleNamespace(cells={(1, "m", i): (0.9, 0.8) for i in range(72)},
                               failures=[])


def test_a_flipped_csv_byte_is_counted_as_a_failed_op(tmp_path):
    content = b"method,top_d\nsum-encoder-original,0.9\n"
    good = _GridReplay(str(tmp_path), content)
    outdir = tmp_path / "out"
    outdir.mkdir()
    recorded = json.loads(json.dumps(good.fingerprint(good.op(str(outdir)), str(outdir))))
    assert run.measure(good, recorded, 0, str(tmp_path))[2] == []

    flipped = bytearray(content)
    flipped[-3] ^= 1
    _, _, failures = run.measure(_GridReplay(str(tmp_path), bytes(flipped)),
                                 recorded, 0, str(tmp_path))
    assert len(failures) == 1
    assert failures[0]["problems"][0].startswith("/files/grid_roc_mean.csv")


def test_an_op_that_raises_or_breaks_an_invariant_is_a_failed_op(tmp_path):
    class Raising(_Replay):
        def op(self, outdir):
            raise FloatingPointError("diverged")

    _, _, failures = run.measure(Raising({}), {}, 0, str(tmp_path))
    assert failures == [{"op": 0, "problems": ["FloatingPointError: diverged"]}]

    grid = workloads.GridShort(0, str(tmp_path))
    assert grid.invariant_problems({"failures": 2, "cells": 64})
