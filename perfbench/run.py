#!/usr/bin/env python3
"""supconad benchmark: one workload, ops in a closed loop, outputs checked.

    python3 perfbench/run.py --workload fused_seed --seed 3 --seconds 45 --trace 0

Run from the root of a checkout.  One caller runs one op at a time, with no
worker threads or processes.  Set-up (the import of supconad, then the
workload's set-up repeated SETUP_REPEATS times) is timed apart from the
ops.  Another op starts while it is expected to end less than half an op past ``--seconds``,
so a run measures about ``--seconds`` on average.  Every op's result
fingerprint is compared with ``expected.json``; any mismatch or raised
exception counts the op as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops (at least one of each) and reports the per-layer
metrics of the traced ones, plus traced over untraced op time.  The last
line of standard output is the JSON result; a record with the environment,
every op time and every failure is written under ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "auc": "fraction"}


def mismatches(got, want, path="") -> list[str]:
    """Paths at which two JSON-like values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(set(got) | set(want)):
            out += mismatches(got.get(key), want.get(key), f"{path}/{key}")
        return out
    return [] if got == want else [f"{path or '/'}: got {got!r}, recorded {want!r}"]


def check(workload, fp: dict, expected: dict | None) -> list[str]:
    problems = workload.invariant_problems(fp)
    if expected is None:
        problems.append(f"no recorded values for data seed {workload.data_seed}")
    else:
        problems += mismatches(json.loads(json.dumps(fp)), expected)
    return problems


def measure(workload, expected, seconds, workdir, tracer=None, targets=()):
    """Run ops until the next would end over half an op past ``seconds``.

    Returns (op wall times keyed by traced flag, aucs of passing ops, failures).
    With a tracer, odd-numbered ops are traced, so a run has at least two ops.
    """
    times = {False: [], True: []}
    aucs, failures = [], []
    min_ops = 2 if tracer else 1
    start = time.perf_counter()
    while True:
        n = len(times[False]) + len(times[True])
        traced = tracer is not None and n % 2 == 1
        outdir = os.path.join(workdir, f"op{n}")
        os.makedirs(outdir)
        gc.collect()  # each op starts from a collected heap, not mid-way through a cycle
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.op = n
                with tracer.installed(targets):
                    result = tracer.wrap(workload.op, spans.ROOT)(outdir)
            else:
                result = workload.op(outdir)
            elapsed = time.perf_counter() - t0
            fp = workload.fingerprint(result, outdir)
            problems = check(workload, fp, expected)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            elapsed = time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        shutil.rmtree(outdir)
        times[traced].append(elapsed)
        if problems:
            failures.append({"op": n, "problems": problems[:10]})
        else:
            aucs.append(fp["auc"])
        done = time.perf_counter() - start
        typical = statistics.median(times[False] + times[True])
        if n + 1 >= min_ops and done + typical / 2 > seconds:
            return times, aucs, failures


def environment() -> dict:
    """Machine and library facts saved with each result; nothing is changed."""
    import platform

    import numpy
    import scipy

    env = {
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in f
                                     if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    env["blas"]["threads"] = _openblas_threads(numpy)
    return env


def _openblas_threads(numpy):
    """Runtime thread count of the OpenBLAS bundled with numpy, if it can be found."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = CHECKOUT / "src"
    if not (src / "supconad" / "__init__.py").is_file():
        print(f"error: no supconad package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # numpy and scipy.stats are loaded untimed: their import is the same for
    # every commit and, as one sample of ~0.7 s, it was the noisiest part of
    # set-up.  The program's own imports are timed.
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401
    t_import = time.perf_counter()
    import workloads  # imports supconad
    import_s = time.perf_counter() - t_import

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = HERE / f"work-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = HERE / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        with open(HERE / "expected.json") as f:
            expected = json.load(f).get(args.workload, {}).get(str(workload.data_seed))
        tracer = spans.Tracer() if args.trace else None
        times, aucs, failures = measure(workload, expected, args.seconds, str(workdir),
                                        tracer, workloads.trace_targets())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(times[False]) + len(times[True])
    untraced_s = statistics.median(times[False])
    if args.trace:
        values = spans.layer_metrics(tracer.spans)
        values["trace.overhead_ratio"] = statistics.median(times[True]) / untraced_s
        units = {name: spans.unit(name) for name in values}
        tracer.dump(results_dir / f"{args.workload}-seed{args.seed}-spans.tsv")
    else:
        values = {
            "op_s": untraced_s,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "auc": statistics.fmean(aucs) if aucs else 0.0,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "data_seed": workload.data_seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "import_s": import_s, "setup_times_s": setup_times,
        "op_times_s": times[False], "traced_op_times_s": times[True],
        "failures": failures, "result": result,
    }
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    for failure in failures:
        print(f"op {failure['op']} FAILED: " + "; ".join(failure["problems"]), file=sys.stderr)
    print(f"{args.workload} seed {args.seed} (data seed {workload.data_seed}): "
          f"{attempted} ops, {len(failures)} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
