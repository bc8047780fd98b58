#!/usr/bin/env python3
"""Record the reference fingerprints that the benchmark checks ops against.

    python3 perfbench/record.py [--workload NAME ...]

Runs each workload's set-up and one op for every data seed 1..SEED_POOL
with the current program, and writes the fingerprints into
``perfbench/expected.json``, keeping the entries of workloads not named.
Record only from a commit whose results are known good: the benchmark then
fails any op that differs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        table = expected.setdefault(name, {})
        for ds in range(1, workloads.SEED_POOL + 1):
            workdir = HERE / f"work-record-{name}-{ds}"
            outdir = workdir / "op"
            outdir.mkdir(parents=True)
            try:
                workload = workloads.WORKLOADS[name](ds - 1, str(workdir))
                workload.setup()
                fp = workload.fingerprint(workload.op(str(outdir)), str(outdir))
            finally:
                shutil.rmtree(workdir)
            problems = workload.invariant_problems(fp)
            if problems:
                print(f"{name} data seed {ds}: {problems}", file=sys.stderr)
                return 1
            table[str(ds)] = json.loads(json.dumps(fp))
            print(f"{name} data seed {ds}: auc {fp['auc']!r}", flush=True)
            path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
