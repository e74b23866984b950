"""The benchmark's workloads: set-up, seeded operation inputs, steps, checks.

A workload object is built once per process; building it is the set-up
that ``setup_s`` times (coefficients, multiplier, one-time caches).
``nominal_op_s`` is its operation time as measured when the benchmark
was defined (2-core x86 VM); a run of S seconds runs S / nominal_op_s
operations, a count that does not depend on the machine's speed.
``inputs(i)`` draws operation ``i`` from the seed and runs outside the
timed region.  ``steps(inp)`` returns the zero-argument calls that make
up the timed operation, and ``check(inp, k, result)`` judges the result
of step ``k``.  Library functions are looked up through their modules at
call time, so the traced run sees the benchmark's own calls too.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mixedbvp import coeffs, grid, multiplier, nonlinear, norms, operators, solver
from mixedbvp.cli import manufactured_curvature_pair, manufactured_darboux_pair

ALPHA = 0.02
PRESET = "lower_order"

# every eps in this range passes condition 7 and the alpha gate on the
# lower_order preset (margins 0.71 at 1e-5 and 0.64 at 2e-4 at 128^2)
LINEAR_EPS = (1e-5, 2e-4)
LINEAR_REL_TOL = 1e-9

ENERGY_EPS = 1e-4
ENERGY_LAMBDA = 10.0
ENERGY_M = 1
ENERGY_SAMPLES = 20  # the CLI default
# aux_solve_report returns max_iter iterations when it gives up
AUX_MAX_ITER = inspect.signature(operators.aux_solve_report).parameters["max_iter"].default

PICARD_RHO = 0.25
PICARD_AMPLITUDE = (0.005, 0.015)
PICARD_SUP_TOL = 1e-5  # the criterion 12 gate
# a Kronecker walk over the unit square; the phase step is the golden
# ratio, whose double (for features of period pi) is also far from rational
WALK_STEP = np.array([(5**0.5 - 1.0) / 2.0, 2**0.5 - 1.0])


@dataclass
class Check:
    """Outcome of one checked solve.

    ``claimed`` is whether the program itself reported success; a check
    that fails while the program claimed success is a wrong answer, not
    an honest failure.
    """

    passed: bool
    claimed: bool
    detail: str = ""


class Linear:
    """solve_linear on lower_order with a fresh operator and u* per operation."""

    nominal_op_s = 0.32

    def __init__(self, seed: int, n: int = 128):
        self.seed = seed
        self.grid = grid.make_grid(n, n)

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        eps = float(np.exp(rng.uniform(*np.log(LINEAR_EPS))))
        cs = coeffs.preset_coefficients(PRESET, self.grid, eps, ALPHA)
        u_star = solver.random_smooth_samples(
            self.grid, ALPHA, 1, int(rng.integers(2**32)), adjoint=False
        )[0]
        return cs, u_star, operators.apply_L(cs, u_star)

    def steps(self, inp) -> list[Callable[[], object]]:
        cs, _, f = inp
        return [lambda: solver.solve_linear(solver.LinearProblem(cs, f))]

    def check(self, inp, k: int, rep) -> Check:
        u_star = inp[1].values
        err = float(np.abs(rep.u.values - u_star).max() / np.abs(u_star).max())
        return Check(err <= LINEAR_REL_TOL, True, f"relative max error {err:.2e}")


class Energy:
    """energy_certificate over fresh adjoint samples, one shared multiplier."""

    nominal_op_s = 4.0

    def __init__(self, seed: int, n: int = 128, samples: int = ENERGY_SAMPLES):
        self.seed = seed
        self.samples = samples
        self.grid = grid.make_grid(n, n)
        self.cs = coeffs.preset_coefficients(PRESET, self.grid, ENERGY_EPS, ALPHA)
        self.mt = multiplier.build_abc(self.cs, ENERGY_LAMBDA, ENERGY_M)
        # fill the Gram factorization cache for both dual-norm orders the
        # certificate uses, so its cold cost lands in set-up
        v = solver.random_smooth_samples(self.grid, ALPHA, 1, seed, adjoint=True)[0]
        m = self.mt.m
        for order in (norms.NormOrder(-(m + 1), 0), norms.NormOrder(-m, -1)):
            norms.negative_norm(v, order)

    def inputs(self, i: int):
        seed = int(np.random.default_rng([self.seed, i]).integers(2**32))
        return solver.random_smooth_samples(
            self.grid, ALPHA, self.samples, seed, adjoint=True
        )

    def steps(self, vs) -> list[Callable[[], object]]:
        return [lambda: solver.energy_certificate(self.cs, self.mt, vs)]

    def check(self, vs, k: int, out) -> Check:
        report, samples = out
        bad = [
            s
            for s in samples
            if not (s.ratio > 0 and np.isfinite(s.dual_constant) and s.aux_iterations < AUX_MAX_ITER)
        ]
        ok = len(samples) == len(vs) and not bad
        return Check(ok, report.all_passed, f"{len(samples)} samples, {len(bad)} bad")


class Picard:
    """solve_prescribed_curvature then solve_darboux from one perturbed start."""

    nominal_op_s = 1.85

    def __init__(self, seed: int, n: int = 64):
        self.seed = seed
        g = grid.make_grid(n, n)
        self.ma_star, self.ma_K = manufactured_curvature_pair(g, PICARD_RHO)
        self.dx_star, self.dx_K = manufactured_darboux_pair(g, PICARD_RHO)
        self.metric = nonlinear.flat_metric(g)
        X, Y = g.meshes()
        self.X = X
        self.envelope = (1.0 - Y**2) * (1.0 + Y) ** 2
        self.start = np.random.default_rng([seed]).uniform(size=2)

    def inputs(self, i: int) -> np.ndarray:
        """Perturbation i: phase and amplitude on a walk from a seeded start.

        Whether ma converges, and in how many iterations, depends on the
        phase and the amplitude, so both walk their ranges evenly from a
        seeded start instead of being drawn independently.  Each start is
        still uniform over seeds, and a run meets stagnating and
        converging starts in the same proportion whatever its seed.  The
        sign of the amplitude is the half turn of the phase.
        """
        u_phase, u_amp = (self.start + i * WALK_STEP) % 1.0
        lo, hi = PICARD_AMPLITUDE
        amp = lo + (hi - lo) * u_amp
        return amp * self.envelope * np.sin(np.pi * self.X + 2.0 * np.pi * u_phase)

    def _start(self, star, pert):
        return nonlinear.GraphSurface(grid.Field(star.grid, star.values + pert), PICARD_RHO)

    def steps(self, pert) -> list[Callable[[], object]]:
        return [
            lambda: nonlinear.solve_prescribed_curvature(
                self.ma_K, self._start(self.ma_star, pert)
            ),
            lambda: nonlinear.solve_darboux(
                self.dx_K, self.metric, self._start(self.dx_star, pert)
            ),
        ]

    def check(self, pert, k: int, rep) -> Check:
        star = (self.ma_star, self.dx_star)[k]
        err = float(np.abs(rep.final_z.z.values - star.values).max())
        ok = rep.converged and err <= PICARD_SUP_TOL
        name = ("ma", "darboux")[k]
        return Check(ok, rep.converged, f"{name}: converged={rep.converged} sup error {err:.2e}")


WORKLOADS = {"linear": Linear, "energy": Energy, "picard": Picard}
