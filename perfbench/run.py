"""slabgan benchmark: closed-loop training and inference workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train64 --seed 1 --seconds 20 --trace 0

Workloads: ``train64``, ``train128``, ``infer128`` (see ``workloads.py``).

With ``--trace 0`` the run sets the workload up three to nine times
(reporting the median set-up time), then runs operations back to back for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it
sets up once, runs an untraced pass of half that length, a traced pass of
the full length that records spans around every layer (``spans.py``), and
a separate ``tracemalloc`` pass of one call per entry point, and reports
the per-layer metrics and the tracing overhead.

Every op's output is checked; a raising op or a failed check counts as
failed. Human-readable tables go to standard output, a full record
(environment, metrics, spans) to ``.bench_out/`` in the checkout, and the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# set-up is repeated at least SETUP_MIN times, and while repeats are cheap
# until SETUP_BUDGET_S seconds have gone, so that its median is steady
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 6.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> int:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported. Returns the pinned thread count.
    Exits with status 2 when the checkout holds no slabgan sources, so the
    benchmark never measures some other installed copy.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    if not os.path.isfile(os.path.join(SRC, "slabgan", "__init__.py")):
        print(f"no slabgan sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    return threads


def environment(threads: int, seed: int, work) -> dict:
    import numpy as np
    import scipy
    from dataclasses import asdict
    from slabgan.config import build_fingerprint
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "build_fingerprint": build_fingerprint(),
            "seed": seed, "net_config": asdict(work.net_cfg), "sr_config": asdict(work.sr_cfg)}


def timed_loop(work, ledger, seconds: float, runner=None):
    """Ops back to back until ``seconds`` have passed; returns op times and wall."""
    from workloads import direct
    runner = runner or direct
    times = []
    t0 = perf_counter()
    while True:
        times.append(work.op(ledger, runner))
        wall = perf_counter() - t0
        if wall >= seconds:
            return times, wall


def tail(times):
    """Highest percentile up to p90 (step 5) with at least ten samples beyond it."""
    n = len(times)
    p = min(90, 5 * int((100.0 * (n - 10) / n) // 5)) if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]


def flow_table(kind: str, ledger, times, wall, setup_s, rss) -> list:
    """The end-to-end figures under the names the workload's users know."""
    rows = [("setup_s", setup_s, "s")]
    if kind == "step":
        rows += [("train_steps_per_s", len(times) / wall, "steps/s"),
                 ("train_step_p50_s", statistics.median(times), "s")]
        tl = tail(times)
        if tl:
            rows.append((f"train_step_p{tl[0]}_s", tl[1], "s"))
    else:
        for name, entry in (("gen", "generate"), ("encode", "encode"),
                            ("sr", "sr"), ("extract", "extract")):
            t = ledger.times.get(entry, [])
            rows.append((f"{name}_volumes_per_s", len(t) / sum(t) if t else 0.0, "volumes/s"))
        rows.append(("round_p50_s", statistics.median(times), "s"))
    if rss is not None:
        rows.append(("peak_rss_mb", rss, "MB"))
    rows.append(("failed_frac", ledger.failed / ledger.attempted, "1"))
    return rows


def measure(workload: str, seed: int, seconds: float, trace: bool, threads: int,
            resolution: int | None = None) -> dict:
    """One run of a workload; prints the tables and returns the result object."""
    import workloads as W
    cls, default_res = W.WORKLOADS[workload]
    res = resolution or default_res
    os.makedirs(OUT_DIR, exist_ok=True)
    ledger = W.Ledger()

    setups = []
    while not setups or not trace and len(setups) < SETUP_MAX and (
            len(setups) < SETUP_MIN or sum(setups) < SETUP_BUDGET_S):
        if setups:
            del work
            gc.collect()
        t0 = perf_counter()
        work = cls(seed, res, OUT_DIR)
        setups.append(perf_counter() - t0)
    env = environment(threads, seed, work)
    print(json.dumps(env, sort_keys=True))

    if trace:
        metrics, times, wall = traced_run(work, ledger, seconds, span_path(workload, seed))
        units = declared_units("per_layer")
        rss = None
    else:
        times, wall = timed_loop(work, ledger, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work.end_checks(ledger)
        metrics = {"setup_s": statistics.median(setups), "ops_per_s": len(times) / wall,
                   "op_p50_s": statistics.median(times), "peak_rss_mb": rss}
        units = declared_units("end_to_end")
    print(f"\n{workload}: {len(times)} ops in {wall:.2f} s after {len(setups)} set-ups")

    table = flow_table(work.entry, ledger, times, wall, statistics.median(setups), rss)
    print(f"\n{'metric':34s}{'value':>14s}  unit")
    for name, value, unit in table:
        print(f"{name:34s}{value:14.6g}  {unit}")
    for line in ledger.failures:
        print(f"FAILED {line}")

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": workload, "resolution": res, "seconds": seconds, "trace": trace,
              "environment": env, "result": result, "table": table,
              "failures": ledger.failures, "op_times": times, "setup_times": setups}
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return result


def traced_run(work, ledger, seconds: float, spans_file: str):
    """Untraced pass, traced pass, then a tracemalloc pass and the end checks.

    Returns the per-layer metrics and the traced pass's op times and wall.
    """
    from spans import Tracer
    base_times, _ = timed_loop(work, ledger, seconds / 2)
    tracer = Tracer().install(work.networks(), work.extra_layers())
    try:
        times, wall = timed_loop(work, ledger, seconds, tracer.run)
    finally:
        tracer.uninstall()
    n, op_s = len(times), statistics.mean(times)
    print(f"\ntraced pass: {n} ops, {op_s:.4f} s/op\n")
    print(tracer.flat_table(n, op_s))
    print()
    print(tracer.network_tables(n, op_s))
    tracer.dump(spans_file)

    metrics = tracer.per_layer_metrics(n)
    metrics.update(memory_metrics(work, work.memory_pass()))
    ckpt = work.end_checks(ledger)
    metrics["training.ckpt_save_s"] = ckpt.get("save_s", 0.0)
    metrics["training.ckpt_load_s"] = ckpt.get("load_s", 0.0)
    metrics["training.ckpt_bytes"] = float(ckpt.get("bytes", 0))
    base_p50, p50 = statistics.median(base_times), statistics.median(times)
    metrics["trace.overhead_s"] = p50 - base_p50
    metrics["trace.overhead_frac"] = (p50 - base_p50) / base_p50
    print(f"\ntracing overhead: {p50 - base_p50:+.4f} s/op on an untraced p50 of "
          f"{base_p50:.4f} s ({(p50 - base_p50) / base_p50:+.1%})")
    return metrics, times, wall


def span_path(workload, seed):
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json")


def memory_metrics(work, mem: dict) -> dict:
    """Measured transient peaks per entry point, and the cost-model cross-check.

    The analytic model counts parameters (and Adam moments) as well, so they
    are added to the measured transient payload before the comparison.
    """
    m = {}
    print(f"\n{'entry':10s}{'payload MB':>12s}{'alloc MB':>12s}")
    for entry in ("step", "generate", "encode", "sr", "extract"):
        payload, alloc = mem.get(entry, (0.0, 0.0))
        m[f"tensor.payload_peak_mb.{entry}"] = payload
        m[f"tensor.alloc_peak_mb.{entry}"] = alloc
        if entry in mem:
            print(f"{entry:10s}{payload:12.2f}{alloc:12.2f}")
    payload, alloc = mem[work.entry]
    analytic, static = work.analytic_mb(), work.static_mb()
    m["memory.analytic_peak_mb"] = analytic
    m["memory.payload_over_analytic"] = (payload + static) / analytic
    m["memory.alloc_over_payload"] = alloc / payload
    print(f"{work.entry}: analytic peak {analytic:.2f} MB, measured payload "
          f"{payload:.2f} + static {static:.2f} MB, allocator {alloc:.2f} MB")
    return m


def declared_units(kind: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("train64", "train128", "infer128"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    threads = bootstrap()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
