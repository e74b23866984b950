import re

import numpy as np
import pytest

from mixedbvp import solver
from mixedbvp.coeffs import CoefficientSet, preset_coefficients
from mixedbvp.grid import Field, differentiate, l2_norm, make_grid
from mixedbvp.multiplier import build_abc
from mixedbvp.norms import NormOrder, sobolev_norm
from mixedbvp.solver import (
    BoundaryCompatibilityError,
    FactorizedOperator,
    LinearProblem,
    ManufacturedSolution,
    PreconditionError,
    _enforce_boundary,
    energy_certificate,
    identity18_residual,
    mms_convergence,
    polynomial_sine_solution,
    random_smooth_samples,
    solve_linear,
    uniqueness_boundary_form,
)

PI = np.pi


def tricomi_factory(eps, alpha):
    return lambda g: preset_coefficients("tricomi", g, eps, alpha)


def test_zero_forcing_gives_zero_solution():
    g = make_grid(32, 32)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    rep = solve_linear(LinearProblem(cs, Field.zeros(g)))
    assert l2_norm(rep.u) <= 1e-12


def test_right_hand_side_on_another_grid_names_both_grids():
    cs = preset_coefficients("tricomi", make_grid(32, 24), 1e-4, 0.02)
    with pytest.raises(ValueError, match="holds a 16x16 grid, but the coefficients hold 32x24"):
        LinearProblem(cs, Field.zeros(make_grid(16, 16)))


def test_precondition_gate_raises_and_overrides():
    g = make_grid(32, 32)
    cs = preset_coefficients("tricomi", g, 1e-2, 0.02)  # alpha gate fails
    f = Field.constant(g, 1.0)
    with pytest.raises(PreconditionError):
        solve_linear(LinearProblem(cs, f))
    with pytest.warns(UserWarning):
        rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
    assert np.isfinite(rep.u.values).all()


def test_solver_residual_is_tiny():
    g = make_grid(48, 48)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    rep = solve_linear(LinearProblem(cs, f))
    assert rep.residual_norm <= 1e-10 * l2_norm(f)
    assert rep.apriori_ratio > 0


def _splu_reference(cs, f):
    # the sparse LU of the assembled matrix, the path the Fourier solve replaced
    import scipy.sparse.linalg as spla

    from mixedbvp.operators import assemble_L

    rhs = f.values.copy()
    rhs[:, 0] = 0.0
    rhs[:, -1] = 0.0
    lu = spla.splu(assemble_L(cs).tocsc())
    return lu.solve(rhs.ravel()).reshape(cs.grid.shape)


def _x_independent_lower_order(g):
    # A and B nonzero, so the mode symbols are complex and the y band is
    # not symmetric
    K = Field.from_function(g, lambda X, Y: Y + 0.2 * Y**2)
    A = Field.from_function(g, lambda X, Y: 0.3 + 0.1 * Y)
    B = Field.from_function(g, lambda X, Y: 0.05 * (1.0 + Y))
    return CoefficientSet(K, A, B, 1e-2, 0.2)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("preset", ["tricomi", "chaplygin", "infinite_order", "hand_built"])
def test_fourier_solve_matches_splu(preset, n):
    g = make_grid(n, n)
    if preset == "hand_built":
        cs = _x_independent_lower_order(g)
    else:
        cs = preset_coefficients(preset, g, 1e-4, 0.02)
    f = Field.from_function(
        g, lambda X, Y: np.sin(PI * X) * (1 + Y) + np.cos(3 * PI * X) * Y**2 + 0.3
    )
    fac = FactorizedOperator(cs)
    u = fac.solve(f)
    assert fac.method == "fourier"
    assert fac.stats["gmres_iterations"] == 0
    ref = _splu_reference(cs, f)
    err = np.abs(u.values - ref).max() / np.abs(ref).max()
    assert err <= 1e-11


@pytest.mark.parametrize("preset", ["tricomi", "chaplygin"])
def test_x_independent_solve_takes_no_gmres_step_at_512(preset):
    # the mode LUs' round-off floor grows like n^2 (2.2e-11 of ||f|| here,
    # 9e-11 at 1024^2) against the fixed gate RESIDUAL_TOL
    g = make_grid(512, 512)
    cs = preset_coefficients(preset, g, 1e-4, 0.02)
    fac = FactorizedOperator(cs)
    fac.solve(Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y)))
    assert fac.method == "fourier"
    assert fac.stats["gmres_iterations"] == 0
    assert fac.stats["residual"] <= solver.RESIDUAL_TOL


@pytest.mark.parametrize("eps", [1e-4, 1e-2])
@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("preset", ["lower_order", "wedge"])
def test_fourier_gmres_matches_splu(preset, n, eps):
    g = make_grid(n, n)
    cs = preset_coefficients(preset, g, eps, 0.02)
    f = Field.from_function(
        g, lambda X, Y: np.sin(PI * X) * (1 + Y) + np.cos(3 * PI * X) * Y**2 + 0.3
    )
    rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
    stats = rep.solver_stats
    assert stats["method"] == "fourier"
    # x-dependent: the mode LUs alone fail the gate, refinement follows, and
    # GMRES, where it runs, stays under its cap
    assert stats["refine_steps"] >= 1 and stats["gmres_iterations"] < solver.GMRES_MAX_ITER
    assert rep.residual_norm <= 1e-10 * l2_norm(f)
    ref = _splu_reference(cs, f)
    assert np.abs(rep.u.values - ref).max() / np.abs(ref).max() <= 1e-11


def _smooth_problem(preset, n, eps, alpha):
    # f = L u* for one smooth sample u* (seed 5) that meets the wall conditions
    from mixedbvp.operators import apply_L

    g = make_grid(n, n)
    cs = preset_coefficients(preset, g, eps, alpha)
    u_star = random_smooth_samples(g, alpha, 1, 5, adjoint=False)[0]
    return cs, u_star.values, apply_L(cs, u_star)


@pytest.mark.parametrize("eps", [1e-5, 3e-5, 1e-4, 2e-4])
def test_small_eps_x_dependent_solve_passes_by_refinement_alone(eps):
    # L depends on x only through eps*K, eps*A and eps*B, so at small eps one
    # correction with the mode LUs leaves a few 1e-3 of the residual
    cs, u_star, f = _smooth_problem("lower_order", 128, eps, 0.02)
    rep = solve_linear(LinearProblem(cs, f))
    stats = rep.solver_stats
    assert stats["method"] == "fourier" and stats["gmres_iterations"] == 0
    assert stats["refine_steps"] >= 1
    assert np.abs(rep.u.values - u_star).max() <= 1e-11 * np.abs(u_star).max()


def test_wedge_256_passes_by_refinement_alone():
    # GMRES from the mode-LU answer takes all 40 steps here, its target
    # (1e-12 of ||f||) below the true residual's round-off floor at 256^2;
    # refinement reads the true residual, and stops with the gate passed
    # when a step no longer halves it.  u* is the reference, since splu's
    # answer misses it by about 1e3 times max|u*| on this nearly singular L
    cs, u_star, f = _smooth_problem("wedge", 256, 1e-2, 0.2)
    rep = solve_linear(LinearProblem(cs, f))
    stats = rep.solver_stats
    assert stats["method"] == "fourier" and stats["gmres_iterations"] == 0
    assert stats["residual"] <= solver.RESIDUAL_TOL
    assert np.abs(rep.u.values - u_star).max() <= 1e-10 * np.abs(u_star).max()


def test_refinement_hands_a_slow_contraction_to_gmres():
    # at eps 1e-2 a correction leaves about 0.1 of the residual and then
    # stalls; GMRES starts from the refined u
    cs, _, f = _smooth_problem("lower_order", 128, 1e-2, 0.02)
    rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
    stats = rep.solver_stats
    k, s, resid = stats["refine_steps"], stats["gmres_iterations"], stats["refine_residuals"]
    assert stats["method"] == "fourier" and k >= 2 and 1 <= s < solver.GMRES_MAX_ITER
    # every accepted step halved ||r||; the last one did not, and was rejected
    assert all(b <= 0.5 * a for a, b in zip(resid[:-2], resid[1:-1]))
    assert resid[-1] > 0.5 * resid[-2]
    # k + 1 of each before GMRES; s + 1 inside it (a product of M^-1 and L
    # per step and the true residual at the end of its cycle); then M^-1 of
    # its iterate and L of the new u for the gate
    assert stats["mode_solves"] == stats["matvecs"] == k + s + 3
    assert stats["gmres_residuals"][-1] <= solver.GMRES_MARGIN * solver.RESIDUAL_TOL
    ref = _splu_reference(cs, f)
    assert np.abs(rep.u.values - ref).max() <= 1e-11 * np.abs(ref).max()


def test_x_dependent_coefficients_fall_back_to_splu(monkeypatch):
    g = make_grid(128, 128)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    # at eps = 0.1 the cap leaves the residual near 1e-7, far above the gate
    cs = preset_coefficients("lower_order", g, 0.1, 0.02)
    rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
    assert rep.solver_stats["method"] == "splu"
    assert rep.solver_stats["gmres_iterations"] == solver.GMRES_MAX_ITER
    assert "cap" in rep.solver_stats["fallback_reason"]
    assert np.array_equal(rep.u.values, _splu_reference(cs, f))
    # a cap of 0 sends every x-dependent set to the sparse LU
    g = make_grid(32, 32)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    monkeypatch.setattr(solver, "GMRES_MAX_ITER", 0)
    for preset in ("lower_order", "wedge"):
        cs = preset_coefficients(preset, g, 1e-4, 0.02)
        rep = solve_linear(LinearProblem(cs, f))
        assert rep.solver_stats["method"] == "splu", preset
        assert np.array_equal(rep.u.values, _splu_reference(cs, f))
    rep = solve_linear(LinearProblem(preset_coefficients("tricomi", g, 1e-4, 0.02), f))
    assert rep.solver_stats["method"] == "fourier"
    assert rep.solver_stats["gmres_iterations"] == 0


def test_cap_zero_makes_one_mode_solve_before_splu(monkeypatch):
    # with no refinement step allowed, the mode-LU solve is the only one:
    # its residual fails the gate, and splu's residual is the second product
    monkeypatch.setattr(solver, "GMRES_MAX_ITER", 0)
    cs, _, f = _smooth_problem("wedge", 64, 3e-2, 0.346)
    stats = solve_linear(LinearProblem(cs, f), require_conditions=False).solver_stats
    assert stats["method"] == "splu" and stats["refine_steps"] == 0
    assert (stats["mode_solves"], stats["matvecs"]) == (1, 2)


def test_singular_splu_is_wellposedness_suspect(monkeypatch):
    # the sparse LU is the last path, so a singular one ends the solve
    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver, "GMRES_MAX_ITER", 0)
    monkeypatch.setattr(solver.spla, "splu", singular)
    g = make_grid(32, 32)
    fac = FactorizedOperator(preset_coefficients("lower_order", g, 1e-4, 0.02))
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    with pytest.raises(PreconditionError,
                       match="^WELLPOSEDNESS_SUSPECT: Factor is exactly singular$"):
        fac.solve(f)
    assert fac.method == "splu" and "cap of 0" in fac.stats["fallback_reason"]


@pytest.mark.parametrize(
    "preset, cap, method, krylov",
    [
        ("tricomi", 40, "fourier", False),
        ("lower_order", 40, "fourier", True),
        ("lower_order", 0, "splu", False),
    ],
)
def test_reported_residual_is_the_assembled_one(preset, cap, method, krylov, monkeypatch):
    # the gate reads the residual over every row, walls included; on every
    # path it must be the residual of the assembled matrix
    from mixedbvp.operators import assemble_L

    monkeypatch.setattr(solver, "GMRES_MAX_ITER", cap)
    g = make_grid(32, 32)
    cs = preset_coefficients(preset, g, 1e-4, 0.02)
    f = Field.from_function(
        g, lambda X, Y: np.sin(PI * X) * (1 + Y) + np.cos(3 * PI * X) * Y**2 + 0.3
    )
    rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
    assert rep.solver_stats["method"] == method
    # an x-dependent set on the Fourier path refines the mode-LU answer
    assert (rep.solver_stats["refine_steps"] > 0) == krylov
    rhs = f.values.copy()
    rhs[:, 0] = 0.0
    rhs[:, -1] = 0.0
    r = (assemble_L(cs) @ rep.u.values.ravel()).reshape(g.shape) - rhs
    assert abs(rep.residual_norm - l2_norm(Field(g, r))) <= 1e-12 * l2_norm(f)
    assert rep.solver_stats["residual"] == rep.residual_norm / l2_norm(f)


def test_residual_gate_raises_on_both_paths(monkeypatch):
    g = make_grid(32, 32)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    for preset in ("tricomi", "lower_order"):
        cs = preset_coefficients(preset, g, 1e-4, 0.02)
        rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
        assert rep.solver_stats["method"] == "fourier"
        assert rep.residual_norm <= 1e-10 * l2_norm(f)
        # neither path can reach this gate: GMRES falls back to splu,
        # whose residual fails it
        with monkeypatch.context() as mp:
            mp.setattr(solver, "RESIDUAL_TOL", 1e-30)
            with pytest.raises(PreconditionError, match="WELLPOSEDNESS_SUSPECT"):
                FactorizedOperator(cs).solve(f)


def test_factorized_operator_gates_its_splu_residual(monkeypatch):
    # the gate is the operator's own, so a caller of solve() cannot skip it
    g = make_grid(32, 32)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)
    fac = FactorizedOperator(cs)
    with pytest.raises(PreconditionError, match="WELLPOSEDNESS_SUSPECT: solve residual"):
        fac.solve(f)
    assert fac.method == "splu"
    assert fac.stats["residual"] > 1e-30


def _normal_form(g):
    # K constant in x, A = 0.3*K and B = 0: each coefficient is one x-line
    K = Field(g, np.broadcast_to(4.0 * g.y, g.shape).copy())
    return CoefficientSet(K, Field(g, 0.3 * K.values), Field.zeros(g), 0.25, 0.6)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("kind", ["tricomi", "lower_order", "picard"])
def test_rows_match_pointwise_operator_and_wall_rows(kind, n):
    # _rows is one product with the assembled matrix; row by row it must be
    # apply_L inside, the top row and _oblique_row on the walls, to
    # round-off in the terms each row sums
    from mixedbvp.operators import _oblique_row, apply_L, assemble_L

    g = make_grid(n, n)
    cs = _normal_form(g) if kind == "picard" else preset_coefficients(kind, g, 1e-2, 0.02)
    u = Field(g, np.random.default_rng(n).standard_normal(g.shape))
    fac = FactorizedOperator(cs)
    rows = fac._rows(u.values)
    ref = apply_L(cs, u).values
    ref[:, -1], ref[:, 0] = u.values[:, -1], _oblique_row(u.values, cs.alpha, 1.0, g)
    terms = (abs(assemble_L(cs)) @ np.abs(u.values).ravel()).reshape(g.shape)
    assert np.all(np.abs(rows - ref) <= 1e-13 * terms)
    assert fac.stats["matvecs"] == 1 and fac.stats["assemble_s"] > 0.0


def test_operator_stats_count_products_and_estimates():
    g = make_grid(32, 32)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y) + 0.3 * Y**2)
    fac = FactorizedOperator(preset_coefficients("lower_order", g, 1e-4, 0.02))
    assert fac.stats["assemble_s"] > 0.0 and fac.stats["matvecs"] == 0  # L built, not applied
    fac.solve(f)
    stats = fac.stats
    steps = stats["refine_steps"]
    assert steps >= 1 and len(stats["refine_residuals"]) == steps
    assert (stats["gmres_iterations"], stats["gmres_residuals"]) == (0, [])
    # the mode solve's residual, then one product per refinement step
    assert stats["matvecs"] == steps + 1
    assert stats["refine_residuals"][-1] <= solver.GMRES_MARGIN * solver.RESIDUAL_TOL
    assert stats["refine_residuals"][-1] == stats["residual"]
    ratios = np.array(stats["refine_residuals"][1:]) / stats["refine_residuals"][:-1]
    assert np.all(ratios <= 0.5)
    assert stats["assemble_s"] > 0.0
    fac = FactorizedOperator(preset_coefficients("tricomi", g, 1e-4, 0.02))
    fac.solve(f)
    assert (fac.stats["matvecs"], fac.stats["gmres_residuals"]) == (1, [])
    assert (fac.stats["refine_steps"], fac.stats["refine_residuals"]) == (0, [])


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("preset", ["lower_order", "wedge"])
def test_x_dependent_solve_makes_one_mode_solve_per_gmres_step(preset, n):
    # the first mode solve, then one per refinement step; a step's product
    # is the residual it is judged by
    g = make_grid(n, n)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y) + 0.3 * Y**2)
    fac = FactorizedOperator(preset_coefficients(preset, g, 1e-4, 0.02))
    assert fac.stats["mode_solves"] == 0
    fac.solve(f)
    steps = fac.stats["refine_steps"]
    assert fac.method == "fourier" and steps >= 1 and fac.stats["gmres_iterations"] == 0
    assert fac.stats["mode_solves"] == steps + 1 and fac.stats["matvecs"] == steps + 1
    fac = FactorizedOperator(preset_coefficients("tricomi", g, 1e-4, 0.02))
    fac.solve(f)
    assert (fac.stats["mode_solves"], fac.stats["matvecs"]) == (1, 1)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_huge_right_hand_side_keeps_the_krylov_path(scale):
    # the squares of ||r|| overflow above about 1e155; the scaled solve
    # takes the unscaled solve's steps and no warning is given.  The first
    # set passes by refinement alone, the second takes GMRES steps too
    import warnings

    from mixedbvp.operators import apply_L

    g = make_grid(64, 64)
    for preset, eps, alpha in (("lower_order", 1e-4, 0.02), ("wedge", 3e-2, 0.346)):
        cs = preset_coefficients(preset, g, eps, alpha)
        f = apply_L(cs, random_smooth_samples(g, alpha, 1, 5, adjoint=False)[0])
        ref = solve_linear(LinearProblem(cs, f))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_linear(LinearProblem(cs, Field(g, scale * f.values)))
        assert rep.solver_stats["method"] == "fourier", preset
        steps = ref.solver_stats["refine_steps"]
        assert steps >= 1 and rep.solver_stats["refine_steps"] == steps
        krylov = ref.solver_stats["gmres_iterations"]
        assert rep.solver_stats["gmres_iterations"] == krylov
        assert (krylov >= 1) == (preset == "wedge")
        err = np.abs(rep.u.values / scale - ref.u.values).max()
        assert err <= 1e-12 * np.abs(ref.u.values).max(), preset


def test_gmres_estimates_fall_to_the_reported_residual():
    # GMRES's least-squares residual, in the gate's norm, never grows, and
    # its last value is the true residual the gate then reads, to round-off
    cs, _, f = _smooth_problem("wedge", 64, 3e-2, 0.346)
    stats = solve_linear(LinearProblem(cs, f)).solver_stats
    estimates = stats["gmres_residuals"]
    assert stats["method"] == "fourier" and len(estimates) == stats["gmres_iterations"] >= 1
    assert all(b <= a for a, b in zip(estimates, estimates[1:]))
    assert abs(estimates[-1] / stats["residual"] - 1.0) <= 0.02


@pytest.mark.parametrize("n", [32, 64])
def test_passing_x_dependent_solve_builds_no_gate_error(n, monkeypatch):
    # the mode-LU attempt fails the gate and only hands the solve to refinement
    from mixedbvp.solver import ResidualGateError

    built = []
    init = ResidualGateError.__init__
    monkeypatch.setattr(ResidualGateError, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    g = make_grid(n, n)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    rep = solve_linear(LinearProblem(preset_coefficients("lower_order", g, 1e-4, 0.02), f))
    assert rep.solver_stats["refine_steps"] >= 1 and built == []
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)  # the hook sees a raised one
    with pytest.raises(ResidualGateError):
        FactorizedOperator(preset_coefficients("lower_order", g, 1e-4, 0.02)).solve(f)
    assert len(built) == 1


def test_residual_gate_names_the_rows_that_hold_it(monkeypatch):
    from mixedbvp.solver import ResidualGateError

    g = make_grid(16, 16)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    # the oblique row alpha*u_x + u_y rounds at about eps*|alpha*u_x|; where
    # u_x is not small there (an x-dependent set), it fails the gate
    cs = preset_coefficients("lower_order", g, 1e-4, 1e12)
    with pytest.raises(ResidualGateError, match="the bottom rows hold .*alpha = 1e\\+12") as exc:
        FactorizedOperator(cs).solve(f)
    assert exc.value.rows == "bottom"
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    with pytest.raises(ResidualGateError, match="WELLPOSEDNESS_SUSPECT: solve residual") as exc:
        FactorizedOperator(cs).solve(f)
    assert exc.value.rows in ("interior", "top", "bottom")
    assert f"the {exc.value.rows} rows hold" in str(exc.value)
    assert ("alpha" in str(exc.value)) == (exc.value.rows == "bottom")


def test_residual_gate_shares_are_ratios_of_a_huge_residual():
    # r's own square overflows past about 1e154; the row shares are formed
    # from r / max|r|, so they stay finite and still name the row
    from mixedbvp.solver import ResidualGateError

    g = make_grid(16, 16)
    r = np.zeros(g.shape)
    r[:, 0] = 1e200
    r[:, 5] = 1.0
    with np.errstate(over="raise", invalid="raise"):
        exc = ResidualGateError(1e190, r, g, 0.02)
    assert exc.rows == "bottom"
    share = float(re.search(r"the bottom rows hold (\S+)% of its square", str(exc)).group(1))
    assert 0.0 < share <= 100.0


def test_gate_residual_takes_the_differenced_oblique_row():
    # the product sums the bottom row as -alpha/(2hx)*u_w, the y-terms, then
    # +alpha/(2hx)*u_e; at alpha 1e50 the y-terms round away, so a bottom
    # row constant in x reads 0 there whatever its u_y.  The gate's
    # residual is _oblique_row's row, bit for bit, for both solves
    # that answer to it: FactorizedOperator's product and the Picard
    # step's, its record's (nonlinear._step_record)
    from mixedbvp.nonlinear import _step_record
    from mixedbvp.operators import StencilL, _oblique_row
    from mixedbvp.solver import _gate

    g = make_grid(16, 16)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(g.shape)
    u[:, :4] = rng.standard_normal(4)  # every line's first four nodes alike
    rhs = rng.standard_normal(g.shape)
    p = 1.0 + rng.random(g.ny + 1)
    for alpha in (0.02, 1e50):
        fac = FactorizedOperator(preset_coefficients("tricomi", g, 1e-4, alpha))
        wall = _oblique_row(u, alpha, 1.0, g)
        for rows in (fac._rows(u), StencilL(_step_record(g, p, alpha)) @ u):
            res, r = _gate(rhs, u, rows, alpha, g)
            assert np.array_equal(r[:, 0], -wall)
            assert np.array_equal(r[:, 1:-1], (rhs - rows)[:, 1:-1])
            assert np.array_equal(r[:, -1], -rows[:, -1])  # f's wall rows read as zero
            assert res == l2_norm(Field(g, r))
    rows = fac._rows(u)
    uy = u[0, :4] @ np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0 / g.hy
    # the two seam lines sum their terms in another order
    assert np.all(rows[1:-1, 0] == 0.0) and np.allclose(wall, uy, rtol=1e-12)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("alpha", [1e35, 1e40, 1e50])
def test_huge_alpha_solve_fails_the_gate(alpha, n):
    # at these alpha the mode solve returns a bottom row constant in x with
    # u_y far from zero; the gate must fail it, not read the product's row
    from mixedbvp.solver import ResidualGateError

    g = make_grid(n, n)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    with pytest.raises(ResidualGateError, match=re.escape(f"alpha = {alpha:g}")) as exc:
        FactorizedOperator(preset_coefficients("tricomi", g, 1e-4, alpha)).solve(f)
    assert exc.value.rows == "bottom"


def test_x_constancy_is_tested_once_per_coefficient_set(monkeypatch):
    # the mode systems and the fallback decision both read it
    prop = CoefficientSet.__dict__["x_constant"]
    calls = []
    monkeypatch.setattr(prop, "func", lambda cs, inner=prop.func: calls.append(cs) or inner(cs))
    g = make_grid(32, 32)
    f = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 + Y))
    for preset, flags in (("tricomi", (True,) * 3), ("lower_order", (False,) * 3),
                          ("wedge", (False, True, True))):
        cs = preset_coefficients(preset, g, 1e-4, 0.02)
        FactorizedOperator(cs).solve(f)
        assert cs.x_constant == flags and sum(c is cs for c in calls) == 1


def test_singular_mode_is_wellposedness_suspect():
    # B = -2/(eps*hy) on row 3 zeroes its coupling to row 4, which cuts
    # rows 0..3 off from the Dirichlet top; on mode 0 the bottom row and
    # the y second difference both annihilate constants there, so that
    # mode's system is exactly singular
    g = make_grid(8, 8)
    eps = 0.5
    B = np.zeros(g.shape)
    B[:, 3] = -2.0 / (eps * g.hy)
    K = Field.from_function(g, lambda X, Y: Y)
    cs = CoefficientSet(K, Field.zeros(g), Field(g, B), eps, 0.02)
    with pytest.raises(PreconditionError, match="WELLPOSEDNESS_SUSPECT: x-mode 0"):
        FactorizedOperator(cs)


def _mode_problem(cs):
    """The mode problem of cs's x-averaged L, read off its record."""
    from mixedbvp.operators import _L_rows

    return solver._mode_problem(_L_rows(cs, mean=True))


def _mode_lu(cs):
    """The mode LUs of cs's x-averaged L, as FactorizedOperator factors them."""
    return solver._mode_lu(*_mode_problem(cs))


def _folded_diagonals(cs):
    """The stacked, folded systems of cs as zgttrf takes them, and the fold
    multipliers (m2, m3), one per mode."""
    band, s, ((_, _, m3), (_, _, m2)) = solver._mode_band(*_mode_problem(cs))
    return _diagonals(band, s), (m2, m3)


def _diagonals(band, s):
    """(dl, d, du) of the stacked tridiagonal band, as zgttrf takes them."""
    return band[s + 1].ravel()[:-1], band[s].ravel(), band[s - 1].ravel()[1:]


def _per_mode_factors(dl, d, du, nyp):
    """zgttrf of each (ny+1)-block of the stacked folded systems, one call per x-mode."""
    from scipy.linalg import lapack

    out = []
    for k in range(d.size // nyp):
        diag, off = slice(k * nyp, (k + 1) * nyp), slice(k * nyp, (k + 1) * nyp - 1)
        out.append(lapack.zgttrf(dl[off].copy(), d[diag].copy(), du[off].copy()))
    return out


@pytest.mark.parametrize("preset", ["tricomi", "lower_order"])
@pytest.mark.parametrize("n", [32, 64])
def test_one_call_mode_lu_bit_identical_to_per_mode_loop(preset, n):
    # the stacked systems are decoupled blocks, so the one zgttrf and the
    # one zgttrs over them do each mode's arithmetic exactly
    from scipy.linalg import lapack

    g = make_grid(n, n)
    nyp = g.ny + 1
    cs = preset_coefficients(preset, g, 1e-4, 0.02)
    (dl, d, du), (m2, m3) = _folded_diagonals(cs)
    per_mode = _per_mode_factors(dl, d, du, nyp)
    assert all(lu[-1] == 0 for lu in per_mode)
    (dl, d, du, du2, ipiv), _, _, ((_, _, fold3), (_, _, fold2)) = _mode_lu(cs)
    assert np.array_equal(fold2, m2) and np.array_equal(fold3, m3)

    def stacked(i, pad):  # per-mode arrays with the zeros between blocks
        parts = [np.append(lu[i], np.zeros(pad, lu[i].dtype)) for lu in per_mode]
        return np.concatenate(parts)[: len(parts) * nyp - pad]

    assert np.array_equal(dl, stacked(0, 1))
    assert np.array_equal(d, stacked(1, 0))
    assert np.array_equal(du, stacked(2, 1))
    assert np.array_equal(du2, stacked(3, 2))
    offsets = [k * nyp for k in range(len(per_mode))]
    assert np.array_equal(ipiv, np.concatenate([lu[4] + o for lu, o in zip(per_mode, offsets)]))

    rhs = np.random.default_rng(n).standard_normal(g.shape)
    spec = np.fft.rfft(rhs, axis=0)
    for k, lu in enumerate(per_mode):
        spec[k, 0] -= m3[k] * spec[k, 2]
        spec[k, 0] -= m2[k] * spec[k, 1]
        spec[k] = lapack.zgttrs(*lu[:5], spec[k])[0]
    loop = np.fft.irfft(spec, n=g.nx, axis=0)
    assert np.array_equal(FactorizedOperator(cs)._mode_solve(rhs), loop)


def _dense_modes(cs):
    """Each x-mode's (ny+1)-system read off the assembled x-averaged L.

    The oracle for the folded path: the unfolded system, 4-point bottom
    row included, from the sparse assembly of the x-averaged L's record
    rather than from the mode band.
    """
    from mixedbvp.operators import _L_rows, assemble_L

    g = cs.grid
    nyp = g.ny + 1
    rows = assemble_L(_L_rows(cs, mean=True)).tocsr()[:nyp].tocoo()  # x-line 0; the rest shift it
    i, c = np.divmod(rows.col, nyp)
    theta = 2.0 * PI * np.arange(g.nx // 2 + 1) / g.nx
    mats = np.zeros((theta.size, nyp, nyp), dtype=complex)
    for k, t in enumerate(theta):
        np.add.at(mats[k], (rows.row, c), rows.data * np.exp(1j * t * i))
    return mats


@pytest.mark.parametrize("preset", ["tricomi", "infinite_order", "wedge", "chaplygin", "lower_order"])
@pytest.mark.parametrize("n", [32, 64, 256])
def test_mode_solve_matches_dense_unfolded_modes(preset, n):
    # the folded tridiagonal path, which replaced the band LU, against
    # each mode's full system, oblique row unfolded, solved densely
    g = make_grid(n, n)
    cs = preset_coefficients(preset, g, 1e-4, 0.02)
    rhs = np.random.default_rng(n).standard_normal(g.shape)
    spec = np.fft.rfft(rhs, axis=0)
    mats = _dense_modes(cs)
    dense = np.stack([np.linalg.solve(m, s) for m, s in zip(mats, spec)])
    ref = np.fft.irfft(dense, n=g.nx, axis=0)
    u = FactorizedOperator(cs)._mode_solve(rhs)
    # the forward error follows each mode's conditioning: wedge's Nyquist
    # mode at 256^2 has condition ~1.7e7, where the two solves differ by
    # 1.4e-12 and the replaced band LU and the dense solve by 1.2e-12
    assert np.abs(u - ref).max() <= 2e-12 * np.abs(ref).max()
    # normwise backward error of the folded solve on the unfolded systems
    x = np.fft.rfft(u, axis=0)
    res = np.abs((mats @ x[..., None])[..., 0] - spec).max(axis=1)
    scale = np.abs(mats).sum(axis=2).max(axis=1) * np.abs(x).max(axis=1) + np.abs(spec).max(axis=1)
    assert (res <= 1e-14 * scale).all()


@pytest.mark.parametrize(
    "singular",
    [[(0, 0)], [(5, 7)], [(3, 32), (9, 0)], [(16, 32)], [(6, 2)], [(4, 3)], [(2, 32), (7, 3)],
     [(8, 2), (12, 5)]],
)
def test_singular_stacked_mode_named_as_per_mode_loop(singular, monkeypatch):
    # a zero column (mode k, y-node c) makes that mode exactly singular;
    # the one-call factorization names the first such mode, as a loop
    # over the modes does, also at the first and last column of a block
    # and at columns 2 and 3, which the fold reads
    g = make_grid(32, 32)
    nyp = g.ny + 1
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    band, s, folds = solver._mode_band(*_mode_problem(cs))
    for k, c in singular:
        band[:, k, c] = 0.0  # the entries (i, c) of mode k
    per_mode = _per_mode_factors(*_diagonals(band, s), nyp)
    first = next(k for k, lu in enumerate(per_mode) if lu[-1] > 0)
    assert first == min(k for k, _ in singular)
    monkeypatch.setattr(solver, "_mode_band", lambda *problem: (band.copy(), s, folds))
    with pytest.raises(PreconditionError, match=f"WELLPOSEDNESS_SUSPECT: x-mode {first} is"):
        _mode_lu(cs)


def _fold_pivot_zero_set(row, x_dependent):
    # B = -2/(eps*hy) on y-row 1 (or 2) zeroes its coupling to the row
    # above, the entry (1, 2) (or (2, 3)) the fold divides by, in every mode
    g = make_grid(8, 8)
    eps = 0.5
    B = np.zeros(g.shape)
    B[:, row] = -2.0 / (eps * g.hy)
    K = Field.from_function(g, lambda X, Y: Y)
    A = np.outer(0.3 * (-1.0) ** np.arange(g.nx), np.ones(g.ny + 1)) if x_dependent else 0.0
    return CoefficientSet(K, Field(g, A * np.ones(g.shape)), Field(g, B), eps, 0.02)


@pytest.mark.parametrize("row", [1, 2])
def test_zero_fold_pivot_named_then_splu_for_x_dependent_sets(row):
    cs = _fold_pivot_zero_set(row, x_dependent=False)
    # named before any division by the zero divisor
    with np.errstate(all="raise"):
        with pytest.raises(PreconditionError, match="x-mode 0 is not foldable"):
            FactorizedOperator(cs)

    cs = _fold_pivot_zero_set(row, x_dependent=True)
    with np.errstate(all="raise"):
        fac = FactorizedOperator(cs)
    assert fac.method == "splu"
    assert "x-mode 0 is not foldable" in fac.stats["fallback_reason"]
    f = Field.from_function(cs.grid, lambda X, Y: np.sin(PI * X) * (1 - Y))
    u = fac.solve(f)
    assert np.isfinite(u.values).all()
    assert fac.stats["residual"] <= solver.RESIDUAL_TOL


def test_singular_averaged_mode_falls_back_to_splu():
    # the singular set above plus an A of exactly zero x-mean: the
    # x-averaged preconditioner is that singular set, so the operator
    # goes straight to the sparse LU
    g = make_grid(8, 8)
    eps = 0.5
    B = np.zeros(g.shape)
    B[:, 3] = -2.0 / (eps * g.hy)
    K = Field.from_function(g, lambda X, Y: Y)
    A = Field(g, np.outer(0.3 * (-1.0) ** np.arange(g.nx), np.ones(g.ny + 1)))
    fac = FactorizedOperator(CoefficientSet(K, A, Field(g, B), eps, 0.02))
    assert fac.method == "splu"
    assert "x-mode 0 is exactly singular" in fac.stats["fallback_reason"]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_fold_refuses_a_band_its_pivot_rows_reach_past(n):
    # the Picard step's rows folded to other bands than its (2, 2): where a
    # fold's pivot row still reaches past the band ((1, 1): the centred rows
    # reach two nodes each way; (1, 2) and (2, 1): rows 2 and ny-1 reach
    # left of it), the builder refuses, naming the rows and (kl, ku); where
    # every pivot row lies in the band ((3, 3): no fold at all; (1, 3): each
    # row folds left with the row below it, already folded), the solve is
    # the (2, 2) band's
    from mixedbvp.nonlinear import _step_record

    g = make_grid(n, n)
    p = 0.25 * g.y + 0.3
    _, rows, terms, _, _ = solver._mode_problem(_step_record(g, p, 0.6))
    f = np.random.default_rng(n).standard_normal(g.shape)
    f[:, [0, -1]] = 0.0

    def solve(kl, ku):
        return solver._solve_modes(solver._mode_lu(g, rows, terms, kl, ku), f)

    ref = solve(2, 2)
    for kl, ku in ((1, 1), (1, 2), (2, 1)):
        with pytest.raises(ValueError, match=re.escape(f"(kl, ku) = ({kl}, {ku}) cannot fold row")):
            solve(kl, ku)
    # measured <= 2.5e-14 of max|ref|
    for kl, ku in ((3, 3), (1, 3)):
        assert np.abs(solve(kl, ku) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_band_is_its_lapack_routines_storage(monkeypatch):
    # L's band at 128^2 is zgttrf's three lines, and the step's at 64^2
    # LAPACK's 2kl + ku + 1 = 7 band lines, which zgbtrf factors in place:
    # the array it receives is the band's own memory
    from scipy.linalg import lapack

    from mixedbvp.nonlinear import _factor_step

    g = make_grid(128, 128)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    band, s, _ = solver._mode_band(*_mode_problem(cs))
    assert band.shape == (3, 65, 129) and s == 1

    real_band, real_zgbtrf, built, received = solver._mode_band, lapack.zgbtrf, [], []

    def mode_band(*problem):
        built.append(real_band(*problem))
        return built[-1]

    def zgbtrf(ab, *args, **kwargs):
        received.append(ab)
        return real_zgbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(solver, "_mode_band", mode_band)
    monkeypatch.setattr(lapack, "zgbtrf", zgbtrf)
    g = make_grid(64, 64)
    _factor_step(g, 0.25 * g.y, 0.6)
    ((band, s, _),), (ab,) = built, received
    assert band.shape == (7, 33, 65) and s == 4
    assert np.shares_memory(ab, band)


@pytest.mark.parametrize(
    "problem, refined, krylov",
    [
        (("tricomi", 64, 1e-4, 0.02), False, False),
        (("lower_order", 64, 1e-4, 0.02), True, False),
        (("wedge", 64, 3e-2, 0.346), True, True),
    ],
)
def test_fourier_solve_assembles_no_matrix(monkeypatch, problem, refined, krylov):
    # every product of the mode-LU, refinement and GMRES steps is the
    # stencil's: L is assembled only for the sparse LU
    def refuse(cs):
        raise AssertionError("the Fourier path assembled L")

    monkeypatch.setattr(solver, "assemble_L", refuse)
    cs, _, f = _smooth_problem(*problem)
    stats = solve_linear(LinearProblem(cs, f), require_conditions=False).solver_stats
    assert stats["method"] == "fourier"
    assert (stats["refine_steps"] > 0, stats["gmres_iterations"] > 0) == (refined, krylov)


def test_splu_fallback_factors_the_assembled_matrix(monkeypatch):
    # the fallback assembles L once and factors that matrix
    from mixedbvp.operators import assemble_L

    assembled, factored = [], []
    real_splu = solver.spla.splu

    def assemble(cs):
        assembled.append(assemble_L(cs))
        return assembled[-1]

    def splu(matrix):
        factored.append(matrix)
        return real_splu(matrix)

    monkeypatch.setattr(solver, "GMRES_MAX_ITER", 0)
    monkeypatch.setattr(solver, "assemble_L", assemble)
    monkeypatch.setattr(solver.spla, "splu", splu)
    cs, _, f = _smooth_problem("lower_order", 32, 1e-4, 0.02)
    fac = FactorizedOperator(cs)
    assert assembled == []
    fac.solve(f)
    fac.solve(f)
    (matrix,), (csc,) = assembled, factored
    assert fac.method == "splu" and (csc != matrix.tocsc()).nnz == 0


def test_band_plan_is_built_once_per_grid_and_pattern():
    # fresh x-dependent sets on one grid and alpha share one plan, and so
    # do the Picard steps of every profile p; the plan reads the rows'
    # entries by index, so each band and fold is the one a fresh plan gives
    from mixedbvp.nonlinear import _factor_step

    g = make_grid(64, 64)
    problems = [_mode_problem(preset_coefficients("lower_order", g, eps, 0.02))
                for eps in (1e-5, 1e-4, 1e-3, 1e-2, 3e-2)]
    fresh = []
    for problem in problems:
        solver._band_start.cache_clear()
        fresh.append(solver._mode_band(*problem))
    solver._band_start.cache_clear()
    for problem, (band, s, folds) in zip(problems, fresh):
        shared, shared_s, shared_folds = solver._mode_band(*problem)
        assert shared.tobytes() == band.tobytes() and shared_s == s
        assert [m.tobytes() for *_, m in shared_folds] == [m.tobytes() for *_, m in folds]
    info = solver._band_start.cache_info()
    assert (info.hits, info.misses) == (4, 1)
    for k in range(5):
        _factor_step(g, 0.25 * g.y + 0.1 * k, 0.6)
    info = solver._band_start.cache_info()
    assert (info.hits, info.misses) == (8, 2)


def test_mms_recovery_and_orders():
    table = mms_convergence(
        tricomi_factory(0.01, 0.02),
        polynomial_sine_solution(),
        [make_grid(n, n) for n in (16, 32, 64)],
    )
    orders = table.orders
    assert all(1.5 <= o <= 2.3 for o in orders)


def test_mms_zero_solution():
    zero = ManufacturedSolution(*(lambda x, y: np.zeros_like(x),) * 5)
    table = mms_convergence(
        tricomi_factory(0.01, 0.02), zero, [make_grid(16, 16), make_grid(32, 32)]
    )
    assert all(r.error_l2 == 0.0 for r in table.rows)


def test_mms_rejects_incompatible_solution():
    bad = ManufacturedSolution(
        u=lambda x, y: np.cos(PI * x) * (1.0 + y),
        ux=lambda x, y: -PI * np.sin(PI * x) * (1.0 + y),
        uy=lambda x, y: np.cos(PI * x) * np.ones_like(y),
        uxx=lambda x, y: -PI**2 * np.cos(PI * x) * (1.0 + y),
        uyy=lambda x, y: np.zeros_like(x),
    )
    with pytest.raises(BoundaryCompatibilityError):
        mms_convergence(tricomi_factory(0.01, 0.02), bad, [make_grid(16, 16), make_grid(32, 32)])


@pytest.mark.parametrize("sizes", [[16], [16, 16], [16, 32, 32]])
def test_mms_grid_list_without_an_order_raises_before_any_solve(monkeypatch, sizes):
    solves = []
    monkeypatch.setattr(solver, "solve_linear", lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match="two or more grids, no two in a row with the same h"):
        mms_convergence(tricomi_factory(0.01, 0.02), polynomial_sine_solution(),
                        [make_grid(n, n) for n in sizes])
    assert solves == []


def test_manufactured_solution_boundary_identities():
    ms = polynomial_sine_solution()
    x = np.linspace(-1, 1, 101)
    assert np.abs(ms.u(x, np.ones_like(x))).max() < 1e-14
    for alpha in (0.0, 0.02, 1.3):
        bottom = alpha * ms.ux(x, -np.ones_like(x)) + ms.uy(x, -np.ones_like(x))
        assert np.abs(bottom).max() < 1e-14


def test_apriori_ratio_stable_under_refinement():
    rng = np.random.default_rng(42)
    coefs = [rng.standard_normal(6) for _ in range(5)]

    def smooth_f(g, C):
        X, Y = g.meshes()
        return Field(
            g,
            C[0]
            + C[1] * np.sin(PI * X)
            + C[2] * np.cos(PI * X) * Y
            + C[3] * Y**2
            + C[4] * np.sin(2 * PI * X) * Y
            + C[5] * np.cos(2 * PI * X),
        )

    ratios = []
    for n in (32, 64):
        g = make_grid(n, n)
        fac = FactorizedOperator(preset_coefficients("tricomi", g, 1e-4, 0.02))
        worst = 0.0
        for C in coefs:
            f = smooth_f(g, C)
            u = fac.solve(f)
            worst = max(worst, l2_norm(u) / sobolev_norm(f, NormOrder(1, 0)))
        ratios.append(worst)
    assert max(ratios) / min(ratios) < 2.0


def test_derivative_shift_consistency():
    # solving the x-differentiated problem matches the x-derivative of the
    # solution for x-independent coefficients
    g = make_grid(64, 64)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    fac = FactorizedOperator(cs)
    ms = polynomial_sine_solution()
    f = ms.forcing(cs)
    u = fac.solve(f)
    fx = differentiate(f, "x", 1)
    w = fac.solve(fx)
    ux = differentiate(u, "x", 1)
    err = l2_norm(Field(g, w.values - ux.values)) / l2_norm(ux)
    assert err < 5e-3


def test_enforced_samples_satisfy_discrete_bcs():
    from mixedbvp.operators import _oblique_row

    g = make_grid(32, 32)
    for adjoint, sgn in ((True, -1.0), (False, 1.0)):
        vs = random_smooth_samples(g, 0.02, 5, seed=3, adjoint=adjoint)
        for v in vs:
            top, bottom = v.values[:, -1], _oblique_row(v.values, 0.02, sgn, g)
            assert np.abs(top).max() == 0.0
            assert np.abs(bottom).max() < 1e-12


def _inline_projection(grid, w, alpha, sign):
    # the projection with its bottom residual written out, as it was
    # before it called _oblique_row
    from mixedbvp.operators import _BOTTOM_DY
    from mixedbvp.solver import _bottom_corrector

    w = w.copy()
    w[:, -1] = 0.0
    chi, d0 = _bottom_corrector(grid)
    ux0 = (np.roll(w[:, 0], -1) - np.roll(w[:, 0], 1)) / (2.0 * grid.hx)
    uy0 = w[:, :4] @ _BOTTOM_DY / grid.hy
    r = alpha * ux0 + sign * uy0
    w -= np.outer(r, chi) * (sign / d0)
    return Field(grid, w)


def test_samples_bit_identical_to_inline_projection(monkeypatch):
    from mixedbvp import solver

    g = make_grid(40, 24)
    for adjoint in (True, False):
        shared = random_smooth_samples(g, 0.03, 4, seed=8, adjoint=adjoint)
        monkeypatch.setattr(solver, "_enforce_boundary", _inline_projection)
        inline = random_smooth_samples(g, 0.03, 4, seed=8, adjoint=adjoint)
        monkeypatch.undo()
        for a, b in zip(shared, inline):
            assert np.array_equal(a.values, b.values)


def _mesh_loop_samples(grid, alpha, n, seed, adjoint=True, kmax=4):
    # random_smooth_samples as it was written on the full meshes
    rng = np.random.default_rng(seed)
    X, Y = grid.meshes()
    sign = -1.0 if adjoint else 1.0
    out = []
    for _ in range(n):
        w = np.zeros(grid.shape)
        for k in range(kmax + 1):
            ak, bk = rng.standard_normal(2) / (1 + k)
            coef = rng.standard_normal(4)
            poly = (1.0 - Y) * (
                coef[0] + coef[1] * Y + coef[2] * Y**2 + coef[3] * Y**3
            )
            w += (ak * np.sin(np.pi * k * X) + bk * np.cos(np.pi * k * X)) * poly
        out.append(_enforce_boundary(grid, w, alpha, sign))
    return out


@pytest.mark.parametrize("nx,ny", [(40, 24), (128, 128), (33, 17)])
def test_samples_bit_identical_to_mesh_loop(nx, ny):
    g = make_grid(nx, ny)
    for adjoint in (True, False):
        fast = random_smooth_samples(g, 0.02, 6, seed=nx, adjoint=adjoint)
        loop = _mesh_loop_samples(g, 0.02, 6, seed=nx, adjoint=adjoint)
        for a, b in zip(fast, loop):
            assert np.array_equal(a.values, b.values)


def test_energy_certificate_positive_on_tricomi():
    g = make_grid(48, 48)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    for m in (0, 1):
        mt = build_abc(cs, 10.0, m)
        vs = random_smooth_samples(g, cs.alpha, 25, seed=1234)
        rep, samples = energy_certificate(cs, mt, vs)
        e = rep.entries["energy_ratio"]
        assert e.passed and e.min > 0
        assert all(np.isfinite(s.dual_constant) for s in samples)


@pytest.mark.parametrize("given", ["zero", "none"])
def test_energy_certificate_needs_a_nonzero_sample(given):
    # a zero sample is skipped; with none left there is nothing to certify
    g = make_grid(16, 16)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 0)
    samples = {"zero": [Field.zeros(g)], "none": []}[given]
    with pytest.raises(ValueError, match="no nonzero sample was given"):
        energy_certificate(cs, mt, samples)


@pytest.mark.parametrize("mixed", [False, True])
def test_energy_certificate_names_a_sample_on_another_grid(mixed):
    # a 24x32 sample with 32x32 coefficients is named with both grids, alone
    # or after a sample on the right grid, before any shared factor is built
    g = make_grid(32, 32)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    other = random_smooth_samples(make_grid(24, 32), cs.alpha, 1, seed=3)
    samples = random_smooth_samples(g, cs.alpha, 1, seed=3) + other if mixed else other
    k = len(samples) - 1
    message = f"^sample {k} holds a 24x32 grid, but the coefficients hold 32x32$"
    with pytest.raises(ValueError, match=message):
        energy_certificate(cs, mt, samples)
    for owner, shared in ((cs, "adjoint_pieces"), (mt, "transport_plan"), (mt, "coupling")):
        assert shared not in vars(owner)


def test_energy_certificate_builds_one_transport_plan(monkeypatch):
    # the plan is cached on the triple: the auxiliary solves and both
    # certificate calls below share one, and a second triple gets its own
    from mixedbvp import operators

    built = []

    class CountingPlan(operators.TransportPlan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(operators, "TransportPlan", CountingPlan)
    g = make_grid(32, 32)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    vs = random_smooth_samples(g, cs.alpha, 4, seed=2)
    own = [operators.aux_solve_report(v, mt) for v in vs]
    _, first = energy_certificate(cs, mt, vs)
    _, second = energy_certificate(cs, mt, vs)
    assert len(built) == 1
    assert isinstance(mt.transport_plan, CountingPlan)
    assert [s.aux_iterations for s in first] == [r.iterations for r in own]
    assert [(s.ratio, s.dual_constant) for s in first] == [
        (s.ratio, s.dual_constant) for s in second
    ]
    energy_certificate(cs, build_abc(cs, 10.0, 1), vs)
    assert len(built) == 2


def test_energy_certificate_computes_adjoint_pieces_once(monkeypatch):
    from dataclasses import replace

    from mixedbvp import operators

    prop = CoefficientSet.__dict__["adjoint_pieces"]
    calls = []
    monkeypatch.setattr(prop, "func", lambda cs, inner=prop.func: calls.append(cs) or inner(cs))
    g = make_grid(32, 32)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    vs = random_smooth_samples(g, cs.alpha, 4, seed=2)
    # what each sample finds built when it starts
    found = []
    real_sample = solver._energy_sample

    def checking_sample(cs, mt, v):
        found.append("adjoint_pieces" in vars(cs))
        return real_sample(cs, mt, v)

    monkeypatch.setattr(solver, "_energy_sample", checking_sample)
    _, hoisted = energy_certificate(cs, mt, vs)
    assert len(calls) == 1 and calls[0] is cs and found == [True] * len(vs)
    # L* v with its pieces recomputed per sample, on a fresh copy of the
    # set, gives the same bits; the set's own pieces are not built again
    monkeypatch.setattr(solver, "apply_Lstar", lambda cs, v: operators.apply_Lstar(replace(cs), v))
    _, per_sample = energy_certificate(cs, mt, vs)
    assert len(calls) == 1 + len(vs) and sum(c is cs for c in calls) == 1
    assert [(s.ratio, s.dual_constant, s.aux_iterations) for s in hoisted] == [
        (s.ratio, s.dual_constant, s.aux_iterations) for s in per_sample
    ]


@pytest.mark.parametrize("m", [0, 1])
def test_energy_certificate_stats(m):
    from time import perf_counter

    from mixedbvp.multiplier import FormReport

    g = make_grid(32, 32)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, m)
    vs = [Field.zeros(g)] + random_smooth_samples(g, cs.alpha, 4, seed=3)
    t0 = perf_counter()
    rep, samples = energy_certificate(cs, mt, vs)
    wall = perf_counter() - t0
    st = rep.stats
    assert set(st) == {
        "aux_s", "transport_s", "spectral_s", "lstar_s", "energy_norm_s", "dual_norm_s",
        "aux_iterations", "workers", "wall_s",
    }
    # the zero sample is skipped, so it has no entry
    assert st["aux_iterations"] == [s.aux_iterations for s in samples] and len(samples) == 4
    # the stage sums run over samples that may overlap in time, so they are
    # bounded by the thread count times the wall time
    stages = st["aux_s"] + st["lstar_s"] + st["energy_norm_s"] + st["dual_norm_s"]
    assert 0.0 < st["wall_s"] <= wall
    assert 0.0 < stages <= st["workers"] * wall
    assert 0.0 < st["transport_s"] + st["spectral_s"] <= st["aux_s"]
    assert st["spectral_s"] > 0.0
    assert FormReport().stats == {}


def _two_cpus(monkeypatch):
    # the worker count then does not depend on the machine the test runs on
    monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_sample_workers_without_affinity_use_the_cpu_count(monkeypatch):
    # not every platform has sched_getaffinity; os.cpu_count() may be None
    monkeypatch.delattr(solver.os, "sched_getaffinity", raising=False)
    g = make_grid(128, 128)
    monkeypatch.setattr(solver.os, "cpu_count", lambda: 3)
    assert [solver._sample_workers(g, n) for n in (1, 2, 5)] == [1, 2, 3]
    monkeypatch.setattr(solver.os, "cpu_count", lambda: None)
    assert solver._sample_workers(g, 5) == 1


def _sample_tuples(samples):
    return [(s.ratio, s.dual_constant, s.aux_iterations) for s in samples]


@pytest.mark.parametrize("preset", ["lower_order", "tricomi"])
@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("n, workers", [(128, 2), (64, 1)])
def test_energy_certificate_threads_match_one_worker(monkeypatch, preset, m, n, workers):
    # five samples split unevenly over two threads, and the zero one is skipped
    _two_cpus(monkeypatch)
    g = make_grid(n, n)
    cs = preset_coefficients(preset, g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, m)
    vs = random_smooth_samples(g, cs.alpha, 5, seed=7)
    vs.insert(2, Field.zeros(g))
    rep, pooled = energy_certificate(cs, mt, vs)
    assert rep.stats["workers"] == workers
    monkeypatch.setattr(solver, "_sample_workers", lambda grid, count: 1)
    one_rep, one = energy_certificate(cs, mt, vs)
    assert one_rep.stats["workers"] == 1 and len(one) == 5
    assert _sample_tuples(pooled) == _sample_tuples(one)
    assert rep.stats["aux_iterations"] == one_rep.stats["aux_iterations"]
    assert rep.entries == one_rep.entries


def test_energy_certificate_threads_under_fast_switching(monkeypatch):
    # more threads than cores, handing the GIL over every microsecond: a
    # sample that read a factor another thread was still building, or
    # results joined out of input order, would show here
    import sys

    g = make_grid(32, 32)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    vs = random_smooth_samples(g, cs.alpha, 9, seed=11)
    _, one = energy_certificate(cs, build_abc(cs, 10.0, 1), vs)
    monkeypatch.setattr(solver, "_sample_workers", lambda grid, count: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rep, pooled = energy_certificate(cs, build_abc(cs, 10.0, 1), vs)
    finally:
        sys.setswitchinterval(interval)
    assert rep.stats["workers"] == 4
    assert _sample_tuples(pooled) == _sample_tuples(one)
    assert rep.stats["aux_iterations"] == [s.aux_iterations for s in one]


def test_energy_certificate_threads_keep_the_callers_errstate(monkeypatch):
    import threading

    seen = []
    real = solver._energy_sample

    def recording(*args):
        seen.append((threading.get_ident(), np.geterr()["divide"]))
        return real(*args)

    g = make_grid(32, 32)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    vs = random_smooth_samples(g, cs.alpha, 4, seed=6)
    monkeypatch.setattr(solver, "_sample_workers", lambda grid, count: 2)
    monkeypatch.setattr(solver, "_energy_sample", recording)
    with np.errstate(divide="raise"):
        energy_certificate(cs, build_abc(cs, 10.0, 0), vs)
    assert len({t for t, _ in seen}) == 2
    assert [state for _, state in seen] == ["raise"] * 4


def test_energy_certificate_raises_the_first_failing_sample(monkeypatch):
    # this thread takes samples 0-3 and a pool thread 4-7; sample 5 fails
    # first in time, sample 2 first in input order: the call raises sample
    # 2's exception, neither chunk runs past its failure, and no worker
    # thread is left
    import threading
    import time

    from mixedbvp import operators

    g = make_grid(32, 32)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    vs = random_smooth_samples(g, cs.alpha, 8, seed=5)
    started, failed = [], []

    def failing(v, mt):
        i = next(k for k, w in enumerate(vs) if w is v)
        started.append(i)
        if i == 2:
            time.sleep(0.2)
        if i in (2, 5):
            failed.append(i)
            raise RuntimeError(f"sample {i} failed")
        return operators.aux_solve_report(v, mt)

    monkeypatch.setattr(solver, "_sample_workers", lambda grid, count: 2)
    monkeypatch.setattr(solver, "aux_solve_report", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="sample 2 failed"):
        energy_certificate(cs, mt, vs)
    assert set(threading.enumerate()) == before
    assert failed == [5, 2]
    assert sorted(started) == [0, 1, 2, 4, 5]


def test_energy_certificate_builds_shared_factors_once(monkeypatch):
    # two threads share one transport plan and one Gram factorization per
    # dual-norm order, and each sample takes exactly two negative norms
    import threading

    from mixedbvp import norms, operators

    _two_cpus(monkeypatch)
    built, neg_calls = [], []

    class CountingPlan(operators.TransportPlan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def counting_negative_norm(v, order):
        neg_calls.append(threading.get_ident())
        return norms.negative_norm(v, order)

    # what each sample finds built when it starts
    found = []
    real_sample = solver._energy_sample

    def checking_sample(cs, mt, v):
        found.append(("transport_plan" in vars(mt), "coupling" in vars(mt),
                      norms._gram_factors.cache_info().currsize))
        return real_sample(cs, mt, v)

    monkeypatch.setattr(operators, "TransportPlan", CountingPlan)
    monkeypatch.setattr(solver, "negative_norm", counting_negative_norm)
    monkeypatch.setattr(solver, "_energy_sample", checking_sample)
    g = make_grid(128, 128)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    vs = random_smooth_samples(g, cs.alpha, 6, seed=4)
    norms._gram_factors.cache_clear()
    rep, samples = energy_certificate(cs, mt, vs)
    assert rep.stats["workers"] == 2 and len(samples) == 6
    assert len(built) == 1
    info = norms._gram_factors.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert len(neg_calls) == 2 * len(vs) and len(set(neg_calls)) == 2
    assert found == [(True, True, 2)] * len(vs)


def test_energy_certificate_skips_zero_samples():
    g = make_grid(32, 32)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 0)
    vs = [Field.zeros(g)] + random_smooth_samples(g, cs.alpha, 3, seed=1)
    _, samples = energy_certificate(cs, mt, vs)
    assert len(samples) == 3


def test_energy_certificate_flags_condition_violation():
    # sign-reversed Tricomi coefficient: top-concentrated oscillatory
    # samples drive the ratio negative
    g = make_grid(64, 64)
    z = Field.zeros(g)
    cs = CoefficientSet(Field.from_function(g, lambda X, Y: -Y), z, z, 1e-2, 0.02)
    mt = build_abc(cs, 10.0, 0, require_alpha=False)
    X, Y = g.meshes()
    probes = [
        _enforce_boundary(
            g, np.sin(PI * k * X) * (1.0 - Y) * np.exp(-10 * (Y - 0.7) ** 2), 0.02, -1.0
        )
        for k in (8, 12, 16)
    ]
    rep, _ = energy_certificate(cs, mt, probes)
    assert rep.entries["energy_ratio"].min < 0


def test_identity18_zero_field():
    g = make_grid(16, 16)
    cs = preset_coefficients("tricomi", g, 0.01, 0.02)
    mt = build_abc(cs, 10.0, 1, require_alpha=False)
    assert identity18_residual(cs, mt, Field.zeros(g)) == 0.0


def test_identity18_refinement():
    errs = []
    for n in (32, 64, 128):
        g = make_grid(n, n)
        cs = preset_coefficients("tricomi", g, 0.01, 0.02)
        mt = build_abc(cs, 10.0, 1, require_alpha=False)
        u = Field.from_function(
            g, lambda X, Y: np.sin(PI * X) * (1 + Y - Y**2 - Y**3)
        )
        errs.append(identity18_residual(cs, mt, u))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0


def test_identity18_x_independent_reduction():
    errs = []
    for n in (32, 64):
        g = make_grid(n, n)
        cs = preset_coefficients("tricomi", g, 0.01, 0.02)
        mt = build_abc(cs, 10.0, 1, require_alpha=False)
        u = Field.from_function(g, lambda X, Y: (1 + Y - Y**2 - Y**3) * np.ones_like(X))
        errs.append(identity18_residual(cs, mt, u))
    assert np.log2(errs[0] / errs[1]) >= 1.5


def test_uniqueness_boundary_form_nonnegative():
    g = make_grid(48, 48)
    for preset in ("tricomi", "infinite_order", "wedge"):
        cs = preset_coefficients(preset, g, 1e-4, 0.02)
        mt = build_abc(cs, 10.0, 1)
        for u in random_smooth_samples(g, cs.alpha, 20, seed=8, adjoint=False):
            assert uniqueness_boundary_form(cs, mt, u) >= -1e-10


def test_uniqueness_boundary_form_huge_alpha_is_a_range_error():
    # alpha**2 raised OverflowError past about 1.3e154; alpha * alpha is inf
    from mixedbvp.coeffs import AlphaRangeError

    g = make_grid(16, 16)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    u = Field.from_function(g, lambda X, Y: np.sin(np.pi * X + 0.3) * (1.0 - Y))
    assert np.isfinite(uniqueness_boundary_form(cs, mt, u))
    cs.alpha = 1e200
    with pytest.raises(AlphaRangeError, match=r"alpha = 1e\+200 overflows alpha\^2"):
        uniqueness_boundary_form(cs, mt, u)


def test_estimate_chain_finite_and_stable_on_all_presets():
    # measured energy constants and a priori ratios stay finite and do not
    # drift under refinement for every condition-passing preset
    from mixedbvp.coeffs import PRESET_NAMES

    f_mode = polynomial_sine_solution()
    for preset in PRESET_NAMES:
        values = {}
        for n in (24, 48):
            g = make_grid(n, n)
            cs = preset_coefficients(preset, g, 1e-4, 0.02)
            mt = build_abc(cs, 10.0, 0)
            vs = random_smooth_samples(g, cs.alpha, 10, seed=5)
            rep, _ = energy_certificate(cs, mt, vs)
            assert rep.entries["energy_ratio"].min > 0, preset
            assert np.isfinite(rep.entries["dual_chain_Csq"].max), preset
            srep = solve_linear(LinearProblem(cs, f_mode.forcing(cs)))
            assert np.isfinite(srep.apriori_ratio) and srep.apriori_ratio > 0
            values[n] = (rep.entries["energy_ratio"].min, srep.apriori_ratio)
        for coarse, fine in zip(values[24], values[48]):
            assert 0.3 <= fine / coarse <= 3.0, preset
