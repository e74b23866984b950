"""In-memory spans around the library's public functions, from outside it.

``Tracer.install`` wraps every public function that a ``mixedbvp``
module defines (``cli`` excepted) and rebinds the wrapper under every
name that holds the function in any ``mixedbvp`` module: modules import
functions by name, so patching only the defining module would miss
their calls.  ``FactorizedOperator.solve`` is patched on its class, and
scipy's ``splu`` through a proxy for the ``spla`` name of each module
that factorizes (``solver``, ``norms``), so each factorization is named
after its caller.  ``uninstall`` restores every binding.

A span is ``[name, start, end, parent, op]``; ``op`` is 0 for the
set-up and i >= 1 for operation i.  Calls made while no set-up or
operation is open are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

MODULES = ("grid", "norms", "coeffs", "multiplier", "operators", "solver", "nonlinear")
ROOT_NAMES = ("bench.setup", "bench.op")


def _lu_fill(metric):
    def hook(lu):
        return [(metric, float(lu.L.nnz + lu.U.nnz))]

    return hook


def _aux_hook(rep):
    return [
        ("operators.aux.iterations", float(rep.iterations)),
        ("operators.aux.converged_frac", float(rep.converged)),
    ]


def _picard_hook(rep):
    return [
        ("nonlinear.picard.iterations", float(rep.iterations)),
        ("nonlinear.picard.converged_frac", float(rep.converged)),
    ]


# counts read from a wrapped call's result: span name -> result -> events
EVENT_METRICS = (
    "solver.lu_fill_nnz",
    "norms.gram_lu_fill_nnz",
    "operators.aux.iterations",
    "operators.aux.converged_frac",
    "nonlinear.picard.iterations",
    "nonlinear.picard.converged_frac",
)
RESULT_HOOKS = {
    "solver.splu": _lu_fill("solver.lu_fill_nnz"),
    "norms.splu": _lu_fill("norms.gram_lu_fill_nnz"),
    "operators.aux_solve_report": _aux_hook,
    "nonlinear.solve_prescribed_curvature": _picard_hook,
    "nonlinear.solve_darboux": _picard_hook,
}


class _ModuleProxy:
    """Stands in for a module, with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.events: list[tuple[str, float, int]] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._root: list | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def begin(self, op: int) -> None:
        """Open the root span of the set-up (op 0) or of operation op."""
        self.op = op
        self._root = self._open(ROOT_NAMES[op > 0])

    def end(self) -> None:
        self._close(self._root)
        self.op = None

    def wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                self.events.extend((metric, value, span[4]) for metric, value in hook(result))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {short: importlib.import_module(f"mixedbvp.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        fo = mods["solver"].FactorizedOperator
        self._set(fo, "solve", self.wrap("solver.FactorizedOperator.solve", fo.solve))
        for short in ("solver", "norms"):
            spla = mods[short].spla
            self._set(mods[short], "spla", _ModuleProxy(spla, splu=self.wrap(f"{short}.splu", spla.splu)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def outermost(spans) -> list[bool]:
    """False for a span nested (at any depth) inside a span of the same name."""
    ancestors: list[frozenset] = []
    flags = []
    for name, _, _, parent, _ in spans:
        above = ancestors[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
        ancestors.append(above)
        flags.append(name not in above)
    return flags


def layer_metrics(tracer: Tracer, names, overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics named in ``names`` from a finished traced run.

    ``<span>.calls``, ``.busy_s`` and ``.self_s`` are means per operation
    over the operations' spans; ``<span>.setup_s`` is the busy time of
    the span in the set-up.  An event metric (a count read from a call's
    result) is its mean over every call that produced it.  Busy time
    counts only the outermost span of a name, so recursion is not
    counted twice.
    """
    spans = tracer.spans
    own = self_times(spans)
    top = outermost(spans)
    ops = [i for i, s in enumerate(spans) if s[0] == "bench.op"]
    n_ops = max(len(ops), 1)
    calls: dict[str, float] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    setup: dict[str, float] = {}
    for i, (name, start, end, _, op) in enumerate(spans):
        if op == 0:
            if top[i]:
                setup[name] = setup.get(name, 0.0) + end - start
            continue
        calls[name] = calls.get(name, 0.0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if top[i]:
            busy[name] = busy.get(name, 0.0) + end - start
    events: dict[str, list[float]] = {}
    for metric, value, _ in tracer.events:
        events.setdefault(metric, []).append(value)
    coverage = [1.0 - own[i] / (spans[i][2] - spans[i][1]) for i in ops]
    derived = {
        "trace.coverage_frac": statistics.median(coverage) if coverage else 0.0,
        "trace.overhead_frac": overhead_frac,
        "trace.spans_per_op": (sum(calls.values()) - len(ops)) / n_ops,
    }
    tables = {"calls": (calls, n_ops), "busy_s": (busy, n_ops), "self_s": (self_s, n_ops),
              "setup_s": (setup, 1)}
    out = {}
    for metric in names:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in EVENT_METRICS:
            values = events.get(metric)
            out[metric] = statistics.fmean(values) if values else 0.0
        else:
            span, _, kind = metric.rpartition(".")
            table, per = tables[kind]
            out[metric] = table.get(span, 0.0) / per
    return out
