#!/usr/bin/env python3
"""Benchmark command for mixedbvp.

    python3 perfbench/run.py --workload {linear,energy,picard} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
its ``src`` directory.  Each run starts fresh worker processes
(perfbench/worker.py) with BLAS and OpenMP pinned to one thread: a few
that only set up, for the median ``setup_s``, and one that sets up and
then runs the workload's operations as a closed loop with one client.
Every operation's output is checked.  The last line of standard output
is one JSON object; with ``--trace 0`` its metrics are the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The
lines before it name each metric with its unit and sample count.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("linear", "energy", "picard")
SETUP_ONLY_PROCESSES = 3  # plus the measuring process: setup_s is a median of 4
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> int | None:
    """The highest of p90, p99 that has at least ten samples beyond it.

    Returns 90 or 99, or None when fewer than 100 samples exist.
    """
    best = None
    for p, beyond in ((90, 10), (99, 100)):
        if n >= 10 * beyond:
            best = p
    return best


def percentile(values, p: int) -> float:
    """The p-th percentile (p in 1..99) by linear interpolation between ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summarize(setup_samples, records, peak_rss_mb: float, ref_groups) -> dict:
    """End-to-end metrics of one run, each as (value, unit, sample note).

    ``records`` holds one [op_s, passed, failed, wrong] row per operation;
    passed and failed count checks (an operation may carry several).
    ``ref_groups`` holds the reference kernel's times, one group before
    the first operation and one after each.
    """
    times = [r[0] for r in records]
    passed = sum(r[1] for r in records)
    failed = sum(r[2] for r in records)
    timed = sum(times)
    n = len(times)
    if len(ref_groups) != n + 1:
        raise ValueError(f"{len(ref_groups)} reference groups for {n} operations")
    around = [statistics.mean(g) for g in ref_groups]
    op_ref = [t / ((around[k] + around[k + 1]) / 2) for k, t in enumerate(times)]
    ref_p50 = statistics.median(x for g in ref_groups for x in g)
    out = {
        "setup_s": (statistics.median(setup_samples), "s", f"median of {len(setup_samples)} processes"),
        "op_s_p50": (statistics.median(times), "s", f"n={n} ops"),
        "op_ref_p50": (statistics.median(op_ref), "ref",
                       f"n={n} ops, each over the mean reference run around it; "
                       f"{sum(map(len, ref_groups))} reference runs, median {ref_p50 * 1e3:.3f} ms"),
        "ops_per_s": (passed / timed, "1/s", f"{passed} passed checks / {timed:.3f} s timed"),
        "passed_frac": (passed / (passed + failed), "frac", f"{passed} of {passed + failed} checks"),
        "failed_frac": (failed / (passed + failed), "frac", f"{failed} of {passed + failed} checks"),
        "peak_rss_mb": (peak_rss_mb, "MB", "measuring process"),
    }
    p = tail_percentile(n)
    if p is not None:
        out[f"op_s_p{p}"] = (percentile(times, p), "s", f"n={n} ops")
    return out


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result: {' '.join(args)}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "mixedbvp" / "__init__.py").is_file():
        print(f"error: no mixedbvp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a terminated run still kills and waits for its worker (subprocess.run
    # does so when an exception leaves it)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_PROCESSES):
                setups.append(run_worker(common + ["--setup-only"], deadline)["setup_s"])
        res = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = res["ops"]
    attempted = sum(r[1] + r[2] for r in records)
    failed = sum(r[2] for r in records)
    wrong = sum(r[3] for r in records)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    if args.trace:
        declared = spec["per_layer"]
        values = res["layers"]
        for m in declared:
            print(f"{m['name']:<44} {values[m['name']]:.6g} {m['unit']}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    else:
        summary = summarize(setups + [res["setup_s"]], records, res["peak_rss_mb"], res["ref_s"])
        for name, (value, unit, note) in summary.items():
            print(f"{name:<12} {value:.6g} {unit:<5} ({note})")
        if "op_s_p90" not in summary:
            print(f"{'op_s_p90':<12} not reported (needs >= 100 ops, have {len(records)})")
        metrics = {
            m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    if wrong:
        print(f"{wrong} checks failed on output the program reported as good", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
