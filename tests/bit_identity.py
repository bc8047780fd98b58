"""Recorded result digests: the acceptance tests compare every run against them.

``bit_identity.json`` holds, from one known-good run, each fused benchmark
seed's ``BenchmarkSeedResult`` repr (criterion 6), the sha256 of every
file the criterion-8 grid writes, with ``outdir`` taken out of
``manifest.json``, and the sha256 of every file ``supconad train`` writes
for each ``--head`` on ``test_cli``'s small data (``cli_train``), the
sha256 of the window file ``supconad generate`` writes there (``cli_generate``),
and the sha256 of the fixture matrices and of what ``supconad stats`` writes for
each (``cli_stats``).  A
mismatch names the first differing seed or file and the recorded and found
numpy and OpenBLAS versions: another BLAS build or CPU kernel may round
differently and so give other bits.

A change that is meant to change results re-records the file, and says why;
naming entries re-records only those and keeps the others:

    PYTHONPATH=src:tests python3 tests/bit_identity.py [criterion_6 criterion_8 cli_generate cli_train cli_stats]
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bit_identity.json")


def numeric_stack() -> dict[str, str]:
    """numpy's version and the configuration of the OpenBLAS it loaded, kernel included."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = f"{blas.get('name')} {blas.get('version')}"
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                       "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                found = fn().decode()
                break
    return {"numpy": np.__version__, "blas": " ".join(found.split())}


def grid_digests(outdir: str) -> dict[str, str]:
    """sha256 of every CSV in outdir and of manifest.json without its ``outdir``."""
    digests = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as f:
            data = f.read()
        if name == "manifest.json":
            manifest = json.loads(data)
            del manifest["config"]["outdir"]
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        elif not name.endswith(".csv"):
            continue
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def _recorded() -> dict:
    with open(PATH) as f:
        return json.load(f)


def check(kind: str, found: dict[str, str]) -> None:
    """Assert ``found`` (key -> digest) equals the recorded ``kind`` entry."""
    recorded = _recorded()
    want = recorded[kind]
    for key in sorted(set(want) | set(found)):
        if want.get(key) != found.get(key):
            stack = numeric_stack()
            raise AssertionError(
                f"{kind}: {key} differs from the recorded result "
                f"(recorded {want.get(key)!r}, found {found.get(key)!r}); "
                f"recorded with numpy {recorded['stack']['numpy']}, {recorded['stack']['blas']}; "
                f"found numpy {stack['numpy']}, {stack['blas']}")


def _record(kinds: list[str]) -> None:
    import pathlib

    from supconad.experiment import ExperimentConfig, run_benchmark_seed, run_grid
    from test_acceptance import BENCHMARK_SEEDS, CRITERION_8
    from test_cli import generate_digests, stats_digests, train_digests

    def criterion_8() -> dict[str, str]:
        with tempfile.TemporaryDirectory() as tmp:
            run_grid(ExperimentConfig(outdir=tmp, **CRITERION_8))
            return grid_digests(tmp)

    def cli_generate() -> dict[str, str]:
        with tempfile.TemporaryDirectory() as tmp:
            return generate_digests(pathlib.Path(tmp))

    def cli_train() -> dict[str, str]:
        with tempfile.TemporaryDirectory() as tmp:
            return train_digests(pathlib.Path(tmp))

    def cli_stats() -> dict[str, str]:
        with tempfile.TemporaryDirectory() as tmp:
            return stats_digests(pathlib.Path(tmp))

    record = {
        "criterion_6": lambda: {str(seed): repr(run_benchmark_seed(ExperimentConfig(), seed))
                                for seed in BENCHMARK_SEEDS},
        "criterion_8": criterion_8,
        "cli_generate": cli_generate,
        "cli_train": cli_train,
        "cli_stats": cli_stats,
    }
    recorded = _recorded() if kinds else {}
    recorded.update({kind: record[kind]() for kind in kinds or record})
    recorded["stack"] = numeric_stack()
    with open(PATH, "w") as f:
        json.dump(recorded, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(_record(sys.argv[1:]))
