"""Self-test of the benchmark harness at the smallest valid size (32^3).

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, through the same code path as
``run.py`` and checks that each metric BENCHMARK.json declares is reported
with its unit and that no op failed. Then checks the failure accounting:
a NaN volume injected as the output of ``generate_full``, and an op that
raises, are counted as failed rather than raised or dropped. Last, checks
that ``run.py`` exits non-zero, printing no result, in a directory holding
only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

RES = 32
SECONDS = 0.5


def check_metrics(result: dict, kind: str) -> None:
    declared = run.declared_units(kind)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(k for k in declared if k in got and got[k] != declared[k])
        raise AssertionError(f"{kind}: missing {missing}, extra {extra}, wrong units {wrong}")
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def main() -> int:
    threads = run.bootstrap()
    import numpy as np
    import workloads as W
    from slabgan import inference

    for workload in W.WORKLOADS:
        for trace in (False, True):
            result = run.measure(workload, 0, SECONDS, trace, threads, resolution=RES)
            check_metrics(result, "per_layer" if trace else "end_to_end")
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            assert result["correct"] is True
            print(f"selftest: {workload} trace={int(trace)} ok")

    ledger = W.Ledger()
    nan_vol = np.full((1, RES, RES, RES), np.nan, dtype=np.float32)
    ledger.attempt("generate", lambda: nan_vol, W.volume_check(RES, bounded=True))
    ledger.attempt("raises", lambda: 1 / 0, lambda out: None)
    assert (ledger.attempted, ledger.failed) == (2, 2), ledger.failures

    real = inference.generate_full
    inference.generate_full = lambda nets, z: np.full((1, RES, RES, RES), np.nan, np.float32)
    try:
        result = run.measure("infer128", 0, SECONDS, False, threads, resolution=RES)
    finally:
        inference.generate_full = real
    assert result["correct"] is False and result["failed"] >= 1, result
    assert result["failed"] < result["attempted"]
    print(f"selftest: injected NaN volume counted: {result['failed']}/{result['attempted']} failed")

    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train64",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("selftest: bare directory exits", proc.returncode)
    print(json.dumps({"selftest": "ok"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
