"""Tests of the benchmark's own arithmetic, checks and tracing (tiny grids).

Run with:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from mixedbvp import norms, operators, solver  # noqa: E402


# ---------------------------------------------------------------------------
# percentile and sample-count rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected", [(1, None), (99, None), (100, 90), (999, 90), (1000, 99), (50000, 99)]
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 102))  # 1..101
    assert run.percentile(values, 90) == pytest.approx(91.0)
    assert run.percentile(values, 50) == pytest.approx(51.0)


def _records(times, failed_every=0):
    return [[t, 0 if failed_every and i % failed_every == 0 else 1,
             1 if failed_every and i % failed_every == 0 else 0, 0]
            for i, t in enumerate(times)]


def _ref(n, t=0.01):
    return [[t]] * (n + 1)


def test_summary_reports_p90_only_from_100_operations():
    short = run.summarize([1.0], _records([0.1] * 99), 50.0, _ref(99))
    assert "op_s_p90" not in short
    assert short["op_s_p50"][2] == "n=99 ops"
    long = run.summarize([1.0], _records([0.01 * (i + 1) for i in range(100)]), 50.0, _ref(100))
    assert long["op_s_p90"][0] == pytest.approx(0.901)
    assert long["op_s_p90"][2] == "n=100 ops"


def test_summary_rates_and_medians():
    s = run.summarize([3.0, 1.0, 2.0], _records([0.5, 0.5, 1.0, 2.0], failed_every=2), 12.5,
                      _ref(4, 0.02))
    assert s["setup_s"][0] == 2.0
    assert s["setup_s"][2] == "median of 3 processes"
    assert s["op_s_p50"][0] == 0.75
    assert s["op_ref_p50"][0] == pytest.approx(0.75 / 0.02)
    assert s["ops_per_s"][0] == pytest.approx(2 / 4.0)  # failed ops still take time
    assert s["passed_frac"][0] == s["failed_frac"][0] == 0.5
    assert s["peak_rss_mb"][0] == 12.5


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

SPANS = [
    ["bench.op", 0.0, 10.0, -1, 1],
    ["a", 1.0, 4.0, 0, 1],
    ["a", 2.0, 3.0, 1, 1],  # nested in a span of its own name
    ["b", 3.5, 6.0, 0, 1],  # overlaps its sibling
    ["c", 9.0, 12.0, 0, 1],  # runs past its parent's end
]


def test_self_time_subtracts_the_union_of_children():
    assert tracing.self_times(SPANS) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.5, 3.0])


def test_covered_length_clips_and_merges():
    assert tracing.covered_length([(5, 7), (0, 2), (1, 3), (6, 20)], 1.0, 10.0) == 7.0
    assert tracing.covered_length([], 0.0, 1.0) == 0.0


def test_outermost_marks_recursion():
    assert tracing.outermost(SPANS) == [True, True, False, True, True]


def test_layer_metrics_per_operation_and_setup():
    t = tracing.Tracer()
    t.spans = [
        ["bench.setup", 0.0, 2.0, -1, 0],
        ["a", 0.5, 1.5, 0, 0],
        *[[n, s + 20, e + 20, p + 2 if p >= 0 else -1, 1] for n, s, e, p, _ in SPANS],
        ["bench.op", 40.0, 44.0, -1, 2],
        ["a", 41.0, 42.0, 7, 2],
    ]
    t.events = [("solver.lu_fill_nnz", 10.0, 1), ("solver.lu_fill_nnz", 20.0, 2)]
    m = tracing.layer_metrics(
        t,
        ["a.calls", "a.busy_s", "a.self_s", "a.setup_s", "b.busy_s", "zzz.calls",
         "solver.lu_fill_nnz", "operators.aux.iterations", "trace.overhead_frac"],
        0.25,
    )
    assert m["a.calls"] == 1.5  # three op spans over two operations
    assert m["a.busy_s"] == pytest.approx((3.0 + 1.0) / 2)  # the nested span is not counted
    assert m["a.self_s"] == pytest.approx((2.0 + 1.0 + 1.0) / 2)
    assert m["a.setup_s"] == pytest.approx(1.0)
    assert m["b.busy_s"] == pytest.approx(2.5 / 2)
    assert m["zzz.calls"] == 0.0
    assert m["solver.lu_fill_nnz"] == 15.0
    assert m["operators.aux.iterations"] == 0.0
    assert m["trace.overhead_frac"] == 0.25


# ---------------------------------------------------------------------------
# checks and failure counting
# ---------------------------------------------------------------------------

def test_linear_operations_pass_their_check_on_a_tiny_grid():
    wl = workloads.Linear(seed=3, n=16)
    records = worker.run_ops(wl, 3)
    assert [r[1:] for r in records] == [[1, 0, 0]] * 3


def test_operation_count_depends_on_seconds_only():
    wl = workloads.Picard(seed=5, n=16)
    assert worker.op_count(wl, 25.0) == round(25.0 / workloads.Picard.nominal_op_s)
    assert worker.op_count(wl, 0.01) == 1


def test_wrong_and_raising_operations_count_in_failed_frac(monkeypatch):
    wl = workloads.Linear(seed=3, n=16)
    real = solver.solve_linear
    calls = []

    def faulty(problem, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise solver.PreconditionError("injected")
        rep = real(problem, *args, **kwargs)
        if len(calls) == 3:
            rep.u.values[3, 3] += 1.0  # a wrong answer reported as good
        return rep

    monkeypatch.setattr(solver, "solve_linear", faulty)
    records = worker.run_ops(wl, 4)
    assert len(calls) == 4  # nothing retried
    assert [r[1:] for r in records] == [[1, 0, 0], [0, 1, 0], [0, 1, 1], [1, 0, 0]]
    s = run.summarize([1.0], records, 1.0, _ref(4))
    assert s["failed_frac"][0] == 0.5
    assert s["op_s_p50"][2] == "n=4 ops"  # failed operations are timed too


def test_picard_carries_one_check_per_solve():
    wl = workloads.Picard(seed=5, n=16)
    inp = wl.inputs(0)
    assert len(wl.steps(inp)) == 2
    converged = type("Rep", (), {"converged": True, "final_z": type("S", (), {"z": wl.ma_star})})
    assert wl.check(inp, 0, converged).passed
    stalled = type("Rep", (), {"converged": False, "final_z": type("S", (), {"z": wl.ma_star})})
    c = wl.check(inp, 0, stalled)
    assert not c.passed and not c.claimed


def test_operation_time_is_taken_over_the_reference_around_it():
    # the machine runs at half speed during the last two operations
    records = _records([1.0, 1.0, 2.0, 2.0])
    s = run.summarize([1.0], records, 1.0, [[0.01], [0.01, 0.01], [0.01], [0.02], [0.02]])
    assert s["op_ref_p50"][0] == pytest.approx(100.0)  # ratios 100, 100, 400/3, 100
    with pytest.raises(ValueError):
        run.summarize([1.0], records, 1.0, _ref(3))


def test_reference_kernel_fills_its_time_budget():
    ref = worker.Reference(n=8)
    ref.sample(0.0)
    ref.sample(0.0)
    assert [len(g) for g in ref.samples] == [1, 1]  # at least one sample per call
    ref.sample(0.02)
    assert sum(ref.samples[2]) >= 0.02


def test_reference_runs_before_and_after_each_operation():
    ref = worker.Reference(n=8)
    worker.run_ops(workloads.Linear(seed=3, n=16), 3, ref=ref)
    assert len(ref.samples) == 4


def test_inputs_repeat_for_a_seed():
    a, b = workloads.Picard(seed=5, n=16), workloads.Picard(seed=5, n=16)
    assert (a.inputs(2) == b.inputs(2)).all()
    assert not (a.inputs(2) == a.inputs(3)).all()


# ---------------------------------------------------------------------------
# tracing the library
# ---------------------------------------------------------------------------

def test_traced_energy_run_records_layers_and_restores_bindings():
    originals = (solver.negative_norm, operators.transport_solve, solver.spla, norms.spla)
    t = tracing.Tracer()
    t.install()
    try:
        t.begin(0)
        wl = workloads.Energy(seed=2, n=16, samples=2)
        t.end()
        records = worker.run_ops(wl, 2, tracer=t)
    finally:
        t.uninstall()
    assert (solver.negative_norm, operators.transport_solve, solver.spla, norms.spla) == originals
    assert [r[1:] for r in records] == [[1, 0, 0]] * 2
    names = ["norms.negative_norm.calls", "norms.negative_norm.setup_s", "norms.gram_lu_fill_nnz",
             "operators.aux_solve_report.calls", "operators.aux.converged_frac",
             "solver.splu.calls", "trace.coverage_frac"]
    m = tracing.layer_metrics(t, names, 0.0)
    assert m["norms.negative_norm.calls"] == 4.0  # two dual norms per sample
    assert m["norms.negative_norm.setup_s"] > 0.0  # the cold Gram factorizations
    assert m["norms.gram_lu_fill_nnz"] > 0.0
    assert m["operators.aux_solve_report.calls"] == 2.0
    assert m["operators.aux.converged_frac"] == 1.0
    assert m["solver.splu.calls"] == 0.0
    assert 0.9 < m["trace.coverage_frac"] <= 1.0
