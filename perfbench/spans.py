"""In-memory span tracing around the public functions of ``supconad``.

Spans are recorded by the benchmark's own wrappers, never by the program:
``Tracer.installed`` swaps each target attribute for a wrapper and restores
the original on exit.  A span is ``[name, start_ns, end_ns, parent, op, n]``
where ``parent`` is the index of the enclosing span (-1 for an op's root)
and ``n`` an optional work count taken from the call (rows scored, bytes
written).  Self time is a span's duration minus its children's durations;
calls are strictly nested, so children never overlap.

The layer of a span is the part of its name before the first dot.  Every
op runs inside one root span, ``experiment.op``, so the self times of all
layers in an op add up to the op's traced wall time.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP, COUNT = range(6)

ROOT = "experiment.op"
TRAIN = "trainer.train"
# Spans a training step makes directly under trainer.train.
STEP_SPANS = ("numerics.sample", "model.forward", "loss.check", "loss.value",
              "loss.grad", "model.backward", "model.sgd")
# Spans validation makes directly under trainer.train.
VALIDATION_SPANS = ("scoring.template", "scoring.score", "metrics.auc")
WINDOW_SPANS = ("synthgen.dataset_windows", "synthgen.by_modality", "synthgen.split")
# Layers whose self time is reported as <layer>.self_s; the experiment layer
# is reported as experiment.self_s (root) plus experiment.export_s.
SELF_LAYERS = ("numerics", "synthgen", "model", "loss", "trainer", "scoring",
               "metrics", "stats")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` gives n."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch ``(owner, attribute, span_name, count)`` targets for the block."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as f:
            f.write("index\top\tparent\tname\tstart_ns\tend_ns\tcount\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i}\t{s[OP]}\t{s[PARENT]}\t{s[NAME]}\t"
                        f"{s[START]}\t{s[END]}\t{s[COUNT]}\n")


def self_times(spans) -> list[int]:
    """Per-span duration minus the durations of its direct children (ns)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _p99(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[math.ceil(0.99 * len(ordered)) - 1])


def op_metrics(spans, own, members) -> dict[str, float]:
    """Per-layer metrics of one op from its span indices (in start order)."""
    def dur(i):
        return spans[i][END] - spans[i][START]

    totals: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    layer_self: dict[str, int] = defaultdict(int)
    under_train: dict[int, bool] = {}
    step: dict[str, list[int]] = defaultdict(list)
    train_children: dict[int, list[int]] = defaultdict(list)
    scoring_outside: dict[str, int] = defaultdict(int)
    scored = saved_bytes = 0
    op_ns = 0
    for i in members:
        name, parent = spans[i][NAME], spans[i][PARENT]
        parent_is_train = parent >= 0 and spans[parent][NAME] == TRAIN
        under_train[i] = parent_is_train or under_train.get(parent, False)
        totals[name] += dur(i)
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own[i]
        if parent < 0:
            op_ns += dur(i)
        if parent_is_train:
            train_children[parent].append(i)
            if name in STEP_SPANS:
                step[name].append(dur(i))
        if name.startswith("scoring.") and not under_train[i]:
            scoring_outside[name] += dur(i)
            if name == "scoring.score":
                scored += spans[i][COUNT]
        if name == "synthgen.save_windows":
            saved_bytes += spans[i][COUNT]

    unknown = set(layer_self) - set(SELF_LAYERS) - {"experiment"}
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    if sum(layer_self.values()) != op_ns:
        raise ValueError("layer self times do not add up to the op's wall time")

    validate_ns = validate_calls = 0
    intervals: list[int] = []
    for children in train_children.values():
        in_validation = False
        prev_sgd_end = None
        validated_since = False
        for i in children:
            name = spans[i][NAME]
            if name in VALIDATION_SPANS:
                validate_ns += dur(i)
                validate_calls += not in_validation
                in_validation = validated_since = True
            else:
                in_validation = False
            if name == "model.sgd":
                if prev_sgd_end is not None and not validated_since:
                    intervals.append(spans[i][END] - prev_sgd_end)
                prev_sgd_end = spans[i][END]
                validated_since = False

    train_s = totals[TRAIN] / 1e9
    steps = len(step["model.sgd"])
    root_self = sum(own[i] for i in members if spans[i][PARENT] < 0)
    out = {
        "numerics.sample_us": _mean(step["numerics.sample"]) / 1e3,
        "numerics.sample_calls": len(step["numerics.sample"]),
        "synthgen.generate_s": totals["synthgen.generate"] / 1e9,
        "synthgen.windows_s": sum(totals[n] for n in WINDOW_SPANS) / 1e9,
        "synthgen.save_windows_s": totals["synthgen.save_windows"] / 1e9,
        "synthgen.load_windows_s": totals["synthgen.load_windows"] / 1e9,
        "synthgen.file_bytes": saved_bytes,
        "model.forward_us": _mean(step["model.forward"]) / 1e3,
        "model.backward_us": _mean(step["model.backward"]) / 1e3,
        "model.sgd_us": _mean(step["model.sgd"]) / 1e3,
        "model.forward_calls": calls["model.forward"],
        "model.load_params_s": totals["model.load_params"] / 1e9,
        "loss.check_us": _mean(step["loss.check"]) / 1e3,
        "loss.value_us": _mean(step["loss.value"]) / 1e3,
        "loss.grad_us": _mean(step["loss.grad"]) / 1e3,
        "trainer.train_s": train_s,
        "trainer.steps": steps,
        "trainer.steps_per_s": steps / train_s if train_s else 0.0,
        "trainer.step_us": statistics.median(intervals) / 1e3 if intervals else 0.0,
        "trainer.step_us_p99": _p99(intervals) / 1e3,
        "trainer.validate_s": validate_ns / 1e9,
        "trainer.validate_calls": validate_calls,
        "scoring.template_s": scoring_outside["scoring.template"] / 1e9,
        "scoring.score_s": scoring_outside["scoring.score"] / 1e9,
        "scoring.windows_scored": scored,
        "metrics.auc_s": totals["metrics.auc"] / 1e9,
        "metrics.curves_s": totals["metrics.curves"] / 1e9,
        "metrics.calls": sum(c for n, c in calls.items() if n.startswith("metrics.")),
        "stats.analyze_s": totals["stats.analyze"] / 1e9,
        "stats.io_s": totals["stats.io"] / 1e9,
        "experiment.self_s": root_self / 1e9,
        "experiment.export_s": (layer_self["experiment"] - root_self) / 1e9,
        "trace.op_s": op_ns / 1e9,
        "trace.spans": len(members),
    }
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_us", "_us_p99")):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans) -> dict[str, float]:
    """Mean over traced ops of each op's per-layer metrics."""
    own = self_times(spans)
    by_op: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_op[s[OP]].append(i)
    per_op = [op_metrics(spans, own, members) for members in by_op.values()]
    return {key: _mean([m[key] for m in per_op]) for key in per_op[0]}
