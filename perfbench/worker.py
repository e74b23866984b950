"""One benchmark process: set-up, then a closed loop of operations.

Started by run.py with the thread settings pinned; prints one JSON
object as its last line of standard output.  ``setup_s`` runs from the
first line of this file (before numpy, scipy and mixedbvp are imported)
to the end of the workload's construction.  With ``--setup-only`` the
process stops there.  Otherwise it runs a fixed number of operations,
``--seconds`` over the workload's nominal operation time, so two runs
with the same seed attempt the same operations and fail the same
checks whatever the machine's speed.  With ``--trace 1`` it runs half
that many operations twice in a row, untraced and then traced, and
reports the per-layer metrics and the traced operations' extra time as
tracing overhead; pairing the two runs of an operation keeps drift in
the machine's speed out of the overhead.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from workloads import Check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REF_SHARE = 0.1  # reference-kernel time per unit of operation time


class Reference:
    """A fixed computation timed between operations, as the run's yardstick.

    Machine speed on a shared host switches by tens of percent within
    seconds.  The kernel is timed just before and after each operation,
    and an operation's time over the kernel's mean time around it
    cancels most of that drift.  It uses numpy and scipy only, so
    changes to mixedbvp cannot move it: a sparse LU and solve, FFTs and
    an interpreter loop, the kinds of work the workloads do.
    """

    def __init__(self, n: int = 48):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.lap = (sp.kron(t, sp.identity(n)) + sp.kron(sp.identity(n), t)).tocsc()
        self.rhs = np.ones(n * n)
        self.arr = np.random.default_rng(0).standard_normal((128, 129))
        self.samples: list[list[float]] = []  # one list per call of sample()

    def sample(self, budget: float) -> None:
        """Time the kernel until the samples add up to budget (at least once)."""
        spent = 0.0
        self.samples.append([])
        while True:
            t = perf_counter()
            spla.splu(self.lap).solve(self.rhs)
            np.fft.ifft(np.fft.fft(self.arr, axis=0), axis=0)
            acc = 0.0
            for k in range(20000):
                acc += k * 0.5
            self.samples[-1].append(perf_counter() - t)
            spent += self.samples[-1][-1]
            if spent >= budget:
                return


def run_op(wl, inp, op: int, tracer=None) -> tuple[float, list[Check]]:
    """Time one operation; a raising step is a failed check, never retried."""
    results = []
    if tracer is not None:
        tracer.begin(op)
    t = perf_counter()
    for step in wl.steps(inp):
        try:
            results.append(step())
        except Exception as exc:  # the operation failed; count it
            results.append(exc)
    elapsed = perf_counter() - t
    if tracer is not None:
        tracer.end()
    checks = []
    for k, res in enumerate(results):
        if isinstance(res, Exception):
            checks.append(Check(False, False, f"raised {res!r}"))
            continue
        try:
            checks.append(wl.check(inp, k, res))
        except Exception as exc:  # a malformed result fails its check
            checks.append(Check(False, False, f"check raised {exc!r}"))
    return elapsed, checks


def op_count(wl, seconds: float) -> int:
    """Operations in a run of ``seconds`` at the workload's nominal speed."""
    return max(1, round(seconds / wl.nominal_op_s))


def run_ops(wl, count: int, *, first: int = 0, tracer=None, ref=None):
    """Closed loop, one client: the next operation starts when one ends.

    Runs operations first, ..., first+count-1.  Input generation is
    outside the timed region.  With ``ref``, the reference kernel runs
    before the first operation and after each one, for REF_SHARE of its
    time, so ``ref.samples`` holds count + 1 groups.
    """
    records = []
    if ref is not None:
        ref.sample(REF_SHARE * wl.nominal_op_s)
    for i in range(first, first + count):
        elapsed, checks = run_op(wl, wl.inputs(i), i + 1, tracer)
        records.append(
            [elapsed, sum(c.passed for c in checks), sum(not c.passed for c in checks),
             sum(c.claimed and not c.passed for c in checks)]
        )
        for c in checks:
            if not c.passed:
                print(f"op {i}: check failed: {c.detail}", file=sys.stderr)
        if ref is not None:
            ref.sample(REF_SHARE * elapsed)
    return records


def run_paired(wl, count: int, tracer) -> tuple[list, list]:
    """Each operation untraced, then traced with the same inputs."""
    plain, traced = [], []
    for i in range(count):
        plain += run_ops(wl, 1, first=i)
        tracer.install()
        try:
            traced += run_ops(wl, 1, first=i, tracer=tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def environment(seed: int) -> dict:
    threads = {k: os.environ.get(k) for k in THREAD_VARS}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    make = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin(0)
    wl = make(args.seed)
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
    setup_s = perf_counter() - T0
    out = {"setup_s": setup_s, "env": environment(args.seed)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if tracer is None:
        ref = Reference()
        out["ops"] = run_ops(wl, op_count(wl, args.seconds), ref=ref)
        out["ref_s"] = ref.samples
    else:
        plain, traced = run_paired(wl, op_count(wl, args.seconds / 2), tracer)
        overhead = sum(r[0] for r in traced) / sum(r[0] for r in plain) - 1.0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["per_layer"]]
        out["ops"] = plain + traced
        out["layers"] = tracing.layer_metrics(tracer, names, overhead)
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        (spans_dir / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                        "spans": tracer.spans, "events": tracer.events})
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
