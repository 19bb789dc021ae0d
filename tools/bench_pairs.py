"""Run alternating parent/change pairs of the benchmark; write a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads infer128 train64 --pairs 10 --seconds 25 \\
        --claim infer128:peak_rss_mb --out BENCH_14.json

Both revisions are exported with ``git archive`` into fresh directories
(``--workdir``, a temporary directory by default), so each side runs only
its committed files. Pair k gives both sides seed ``first_seed + k``; the
parent runs first for even k and the change first for odd k. Each run is

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in its checkout, and its result is the JSON on the last line of standard
output. The record holds, per workload and end-to-end metric of
BENCHMARK.json, each side's runs, median and quartiles (inclusive method)
and the number of pairs the change won (strictly better, in the metric's
declared direction), plus the failed operations per side; the shape
``tests/test_bench_records.py`` checks.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = ["python3", "perfbench/run.py"]


def export(rev: str, dest: str) -> str:
    """Write the files of ``rev`` into ``dest``; returns the full commit id."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", sha], check=True,
                         capture_output=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return sha


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600 + 4 * seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(results: dict, declared: dict) -> dict:
    """``results[side]`` is the list of one workload's run results, pair by
    pair; ``declared`` maps each end-to-end metric to its entry in
    BENCHMARK.json."""
    metrics = {}
    for name, spec in declared.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in ("parent", "change")}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        metrics[name] = {"unit": spec["unit"], "parent": stats(runs["parent"]),
                         "change": stats(runs["change"]), "wins": wins}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--first-seed", type=int, default=31)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--workdir", help="where to export the two revisions")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"]}
    unknown = set(args.workloads) - {w["name"] for w in bench["workloads"]}
    if unknown:
        ap.error(f"undeclared workloads {sorted(unknown)}")
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        if workload not in args.workloads or metric not in declared:
            ap.error(f"claim {args.claim} names no measured workload and metric")
        claim = {"workload": workload, "metric": metric}

    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_pairs-")
    dirs = {side: os.path.join(workdir, side) for side in ("parent", "change")}
    shas = {side: export(getattr(args, side), d) for side, d in dirs.items()}
    record = {"parent": shas["parent"], "change": shas["change"],
              "run_seconds": args.seconds,
              "command": " ".join(RUN) + f" --workload W --seed S --seconds {args.seconds:g}"
                         " --trace 0",
              "order": "pair k runs the parent first for even k and the change first for odd k",
              "claim": claim, "workloads": {}}
    for workload in args.workloads:
        seeds = [args.first_seed + k for k in range(args.pairs)]
        results = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                res = run_once(dirs[side], workload, seed, args.seconds)
                results[side].append(res)
                print(f"{workload} pair {k} seed {seed} {side}: "
                      + ", ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                      file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "seeds": seeds, "pairs": args.pairs,
            "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in results},
            "metrics": summarize(results, declared)}
        with open(args.out, "w") as f:          # after each workload, so a cut run keeps some
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
