"""Print one SHA-1 line per numeric output of mixedbvp, for bit-identity checks.

    python tools/output_hashes.py <tree>

imports mixedbvp from <tree>/src and the benchmark workloads from
<tree>/perfbench, runs a fixed set of solves and prints
"<output> <sha1 of its float64 bytes>" for each (a count is printed as
it is).  Run it on two checkouts and diff the printouts: an equal line
is a bit-identical output.  Covered: the assembled L, as its product
with one seeded field (so the line does not depend on how L is
stored), and beside it operators.StencilL's product with the same
field (left out on a tree without it; equal hashes show the product
and the matrix agree), and the factored x-mode systems of every
preset (one call
of the x-mode band builder, solver._mode_lu, on the problem read off
the x-averaged L's record, solver._mode_problem of
operators._L_rows(cs, mean=True), or solver._mode_systems on a tree
without the record: the LU arrays as zgttrs takes them and the fold
multipliers m2 and m3, one complex entry per mode) at 16^2, 48^2 and
47x48 (an odd nx on a grid that is not square); the folded band each
zgttrf or zgbtrf call receives and the LU it returns (read by wrapping
the LAPACK routines, so a tree with another builder prints the same
lines) for linear tricomi and lower_order at 64^2, perfbench Linear(1)
op 0 and the N(p) of the first Picard step from the ma and darboux CLI
starts at 64^2; each
periodic x-stencil of grid._X_STENCILS at nx 47 and 128, its action on
a seeded field and its symbol; each table stencil's action along y,
walls included (grid._apply_y), on a seeded field at ny 47 and 128, and
each grid.stencil_matrix, periodic on 47 and 128 nodes and walled on 48
and 129, over its denominator as its callers read it; the Gram factors
(norms._gram_factors: symbol, hx*Cx, Cy and the inf-norm bound) of
every order (m, l) up to (2, 2) at 16^2 and 47x48; and, printed as it
is, the largest
x-derivative part of CoefficientSet.adjoint_pieces (|2 K_x| and
|eps (K_xx - A_x)|, read off the pieces) of tricomi, chaplygin and
infinite_order at 47x48 and 192^2, whose K is constant in x; the
oblique bottom row (operators._oblique_row) of one seeded 64^2 field at
alpha 0.02 and 1e50, forward and adjoint, the Picard step's x-mode
symbols at alpha 1 (its d_xx symbol sigma and the oblique row's u_x
symbol, the two parts along x of N's record, nonlinear._step_record;
sigma of nonlinear._step_pieces and grid.x_symbol of
operators._bottom_dx on a tree without it) at 64^2 and 128^2, and at
each the d
and residual of one step (nonlinear._solve_step through
nonlinear._factor_step) at the profile p = y/4 with alpha 0.6 and a
seeded right-hand side;
solve_linear's u, residual and a priori ratio; phi (build_abc's, from
multiplier.solve_phi) of every preset at 64^2, so a diff shows which
preset's phi moved, and the interior and the boundary form entries of
every preset at 64^2 (min, max, claimed bound and verdict of each, in
report order); forward and adjoint
random_smooth_samples at 64^2, and apply_Lstar of the first adjoint
sample on every preset; the coupling factors' d_x^l a (CouplingFactors
with m = 2, da) of lower_order; the auxiliary solve's u, with its
pass count and increments printed as they are on lines of their own
(as a list of floats), so a change that stops the passes earlier shows
u unchanged while the counts drop; energy ratios, dual constants,
auxiliary iterations and the report's entries; the five seam-split derivatives of the ma
and darboux CLI starts at 64^2 (_SplitDerivatives.at(0)); the public
graph path at the same starts (curvature_residual at the ma start,
darboux_residual at the darboux start, covariant_hessian at both, all
in the flat metric) and christoffel_symbols of the curved metric
(1 + f_x^2, f_x f_y, 1 + f_y^2) induced by the darboux pair's height f;
Picard ma and darboux from the CLI start; the u of perfbench
Linear(11), Linear(12) and Linear(13) op 0 (x-dependent lower_order at
128^2); two solves that reach GMRES after refinement (lower_order at
128^2, eps 1e-2, alpha 0.02, and wedge at 64^2, eps 3e-2, alpha 0.346,
each with f = L u* for random_smooth_samples(g, alpha, 1, 5,
adjoint=False)[0]), whose method, refine_steps, gmres_iterations,
mode_solves and matvecs are printed as they are and whose u and
gmres_residuals are hashed; perfbench Linear(1) ops 0-9 and Picard(1)
ops 0-13; and one small CLI run per subcommand (32^2; mms on 16^2 and
32^2), whose exit code is printed, each deterministic artifact
(conditions.txt, forms.csv, solution.csv, convergence.csv,
energy_samples.csv, energy.csv, aux_sweep.csv, iteration.csv and
z_final.csv) hashed as the bytes of the file, and the key set of its
metrics.json printed as plain text (its values hold timings, so they
are not hashed; "none" on a tree whose subcommand writes no
metrics.json).  Each
Picard run also prints its iterations, its count of steps that factored
N (the sum of stats["factored"], the solve's zgbtrf calls) and converged
on lines of their own, and each perfbench linear solve its refinement
and GMRES step counts and a hash of each one's residuals
(refine_residuals and gmres_residuals), so a change
that moves the iterates or u by round-off, and so their hash, shows
whether it moved the step counts or the iteration.  One BLAS thread,
so a library's threading cannot make two runs differ.
"""

from __future__ import annotations

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

PRESETS = ("tricomi", "infinite_order", "wedge", "chaplygin", "lower_order")
EPS, ALPHA = 1e-4, 0.02
# one small run per CLI subcommand (at 32^2, mms on 16 and 32) and its
# deterministic artifacts; the text summaries and metrics.json hold timings
CLI_RUNS = (
    ("check", [], ("conditions.txt",)),
    ("multiplier", [], ("forms.csv",)),
    ("solve", [], ("solution.csv",)),
    ("mms", ["--grids", "16,32"], ("convergence.csv",)),
    ("energy", ["--samples", "4", "--m", "0"], ("energy_samples.csv", "energy.csv")),
    ("aux", [], ("aux_sweep.csv",)),
    ("ma", [], ("iteration.csv", "z_final.csv")),
    ("darboux", [], ("iteration.csv", "z_final.csv")),
)


def emit(name: str, *arrays) -> None:
    h = hashlib.sha1()
    for a in arrays:
        a = np.asarray(a)
        if np.iscomplexobj(a):
            a = np.ascontiguousarray(a).view(float)
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    print(f"{name} {h.hexdigest()}")


def emit_entries(name: str, report) -> None:
    # a FormReport's entries as (min, max, claimed bound, verdict) rows
    emit(name, [(e.min, e.max, e.claimed_bound, e.passed) for e in report.entries.values()])


def print_counts(name: str, rep) -> None:
    # a Picard run's step count, factorization count and outcome, printed as
    # they are
    print(f"{name}/iterations {rep.iterations}")
    print(f"{name}/factored {sum(rep.stats['factored'])}")
    print(f"{name}/converged {rep.converged}")


def print_krylov(name: str, rep) -> None:
    # a linear solve's refinement and GMRES step counts as they are, and their
    # residuals hashed
    stats = rep.solver_stats
    print(f"{name}/refine_steps {stats['refine_steps']}")
    emit(f"{name}/refine_residuals", stats["refine_residuals"])
    print(f"{name}/gmres_iterations {stats['gmres_iterations']}")
    emit(f"{name}/gmres_residuals", stats["gmres_residuals"])


def factor_calls(fn):
    # fn()'s result and, for each zgttrf or zgbtrf call it made, the
    # folded band that call received and the LU it returned (info left out)
    from scipy.linalg import lapack

    real = {name: getattr(lapack, name) for name in ("zgttrf", "zgbtrf")}
    calls = []

    def spy(name):
        def call(*args, **kwargs):
            band = [np.array(a) for a in args if isinstance(a, np.ndarray)]
            out = real[name](*args, **kwargs)
            calls.append((band, out[:-1]))
            return out
        return call

    for name in real:
        setattr(lapack, name, spy(name))
    try:
        return fn(), calls
    finally:
        for name, f in real.items():
            setattr(lapack, name, f)


def emit_band(name: str, call) -> None:
    band, lu = call
    emit(f"{name}/folded", *band)
    emit(f"{name}/lu", *lu)


def mode_lu(solver, operators, cs):
    # the linear mode LUs as zgttrs takes them and the fold multipliers m2
    # and m3, one per mode, from the mode builder's (factors, kl, ku, folds)
    # on the x-averaged L's record (solver._mode_systems on a tree without it)
    if hasattr(solver, "_mode_problem"):
        problem = solver._mode_problem(operators._L_rows(cs, mean=True))
    else:
        problem = solver._mode_systems(cs)
    factors, _, _, ((_, _, m3), (_, _, m2)) = solver._mode_lu(*problem)
    return factors, m2, m3


def step_symbols(grid, nonlinear, operators, g):
    # the Picard step's d_xx symbol and the oblique row's u_x symbol at alpha
    # 1, the two x-parts of N's record (nonlinear._step_pieces on a tree
    # without it)
    if hasattr(nonlinear, "_step_record"):
        return np.array([symbol for *_, symbol in nonlinear._step_record(g, 0.25 * g.y, 1.0).x])
    bottom = grid.x_symbol(operators._bottom_dx(1.0, g.hx), g.nx)
    return np.array([nonlinear._step_pieces(g)[0], bottom])


def x_stencil_outputs(grid, nx: int):
    # (name, action on a seeded field, symbol) of each periodic x-stencil at nx
    hx = 2.0 / nx
    v = np.random.default_rng(nx).standard_normal((nx, 9))
    for key in grid._X_STENCILS:
        sym = grid.x_symbol(grid.x_terms(key, hx), nx)
        yield f"d{key[0]}_{key[1]}pt", grid._apply_x(key, v, hx), sym


def y_stencil_outputs(grid, ny: int):
    # (name, action along y on a seeded field) of each table stencil at ny
    hy = 2.0 / ny
    v = np.random.default_rng(ny).standard_normal((9, ny + 1))
    for order, points in ((1, 3), (2, 3), (1, 5), (2, 5)):
        yield f"d{order}_{points}pt", grid._apply_y((order, points), v, hy)


def stencil_matrices(grid, n: int):
    # (name, dense matrix over its denominator) of each table stencil,
    # periodic on n nodes and walled on n+1 (h = 2/n for both)
    h, ex, ey = 2.0 / n, np.eye(n), np.eye(n + 1)
    for order, points in ((1, 3), (2, 3), (1, 5), (2, 5)):
        key, stencil = f"d{order}_{points}pt", (order, points)
        yield f"{key}/periodic{n}", grid.stencil_product(stencil, ex, h, False)
        yield f"{key}/walled{n + 1}", grid.stencil_product(stencil, ey, h, True)


def emit_cli(cli) -> None:
    # each CLI run's exit code, the SHA-1 of each artifact's bytes, and the
    # key set of its metrics.json as plain text ("none" where it writes none)
    with tempfile.TemporaryDirectory() as tmp:
        for command, extra, artifacts in CLI_RUNS:
            out = Path(tmp) / command
            args = [command, "--nx", "32", "--ny", "32", *extra, "--out", str(out)]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.run(args)
            print(f"cli/{command}/exit_code {code}")
            for name in artifacts:
                print(f"cli/{command}/{name} {hashlib.sha1((out / name).read_bytes()).hexdigest()}")
            metrics = out / "metrics.json"
            keys = sorted(json.loads(metrics.read_text())) if metrics.exists() else ["none"]
            print(f"cli/{command}/metrics.json/keys {' '.join(keys)}")


def main(tree: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from mixedbvp import cli, coeffs, grid, multiplier, nonlinear, norms, operators, solver
    import workloads

    warnings.simplefilter("ignore")  # failed gates warn under require_conditions=False

    for nx, ny in ((16, 16), (48, 48), (47, 48)):
        g = grid.make_grid(nx, ny)
        size = nx if nx == ny else f"{nx}x{ny}"
        for name in PRESETS:
            cs = coeffs.preset_coefficients(name, g, EPS, ALPHA)
            u = np.random.default_rng(nx * ny).standard_normal(nx * (ny + 1))
            emit(f"assemble_L/{name}/{size}", operators.assemble_L(cs) @ u)
            if hasattr(operators, "StencilL"):  # a tree that applies L matrix-free
                emit(f"stencil_L/{name}/{size}", operators.StencilL(cs) @ u)
            lu, m2, m3 = mode_lu(solver, operators, cs)
            emit(f"mode_systems/{name}/{size}", *lu, m2, m3)

    for nx in (47, 128):
        for key, action, symbol in x_stencil_outputs(grid, nx):
            emit(f"x_stencil/{key}/{nx}/action", action)
            emit(f"x_stencil/{key}/{nx}/symbol", symbol)
    for n in (47, 128):
        for key, action in y_stencil_outputs(grid, n):
            emit(f"y_stencil/{key}/{n}/action", action)
        for key, matrix in stencil_matrices(grid, n):
            emit(f"stencil_matrix/{key}", matrix)
    for nx, ny in ((16, 16), (47, 48)):
        g = grid.make_grid(nx, ny)
        for m in range(3):
            for l in range(3):
                f = norms._gram_factors(g, m, l)
                parts = f.symbol, f.hcx.toarray(), f.cy.toarray(), f.inf_norm
                emit(f"gram/{m}{l}/{nx}x{ny}", *parts)
    for nx, ny in ((47, 48), (192, 192)):
        for name in ("tricomi", "chaplygin", "infinite_order"):
            cs = coeffs.preset_coefficients(name, grid.make_grid(nx, ny), EPS, ALPHA)
            first_x, _, zero_order = cs.adjoint_pieces
            by = grid.differentiate(cs.B, "y", 1).values
            x_part = max(np.abs(first_x + cs.A.values).max(),
                         np.abs(zero_order + cs.eps * by).max())
            print(f"adjoint_pieces/{name}/{nx}x{ny}/x_part {float(x_part)!r}")

    g = grid.make_grid(64, 64)
    u = np.random.default_rng(5).standard_normal(g.shape)
    for alpha in (0.02, 1e50):
        for sgn in (1.0, -1.0):
            row = operators._oblique_row(u, alpha, sgn, g)
            emit(f"oblique_row/64/alpha{alpha:g}/sgn{sgn:+g}", row)
    for n in (64, 128):
        g = grid.make_grid(n, n)
        emit(f"step_bands/{n}/symbols", step_symbols(grid, nonlinear, operators, g))
        # the CLI start's profile, p = rho*y with rho 0.25, its alpha and a
        # seeded right-hand side
        lu = nonlinear._factor_step(g, 0.25 * g.y, 0.6)
        f = np.random.default_rng(n).standard_normal(g.shape)
        emit(f"step/{n}/solve", *nonlinear._solve_step(g, lu, 0.6, f))

    g = grid.make_grid(64, 64)
    for name in ("tricomi", "lower_order"):
        cs = coeffs.preset_coefficients(name, g, EPS, ALPHA)
        _, (call,) = factor_calls(lambda: mode_lu(solver, operators, cs))
        emit_band(f"band/linear/{name}/64", call)

    for n in (32, 64, 128):
        g = grid.make_grid(n, n)
        f = grid.Field.from_function(g, lambda X, Y: np.sin(np.pi * X) * (1.0 + Y))
        for name in PRESETS:
            cs = coeffs.preset_coefficients(name, g, EPS, ALPHA)
            try:
                rep = solver.solve_linear(solver.LinearProblem(cs, f), require_conditions=False)
            except Exception as exc:  # a raised gate is an output too
                print(f"solve_linear/{name}/{n} raised {type(exc).__name__}: {exc}")
                continue
            emit(f"solve_linear/{name}/{n}", rep.u.values, rep.residual_norm, rep.apriori_ratio)

    g = grid.make_grid(64, 64)
    for name in PRESETS:
        cs = coeffs.preset_coefficients(name, g, EPS, ALPHA)
        mt = multiplier.build_abc(cs, 10.0, 1, require_alpha=False)
        emit(f"phi/{name}/64", mt.phi.values)
        for kind, form_report in (
            ("interior", multiplier.interior_form_report),
            ("boundary", multiplier.boundary_form_report),
        ):
            emit_entries(f"forms/{name}/64/{kind}", form_report(mt, cs))

    for adjoint in (False, True):
        samples = solver.random_smooth_samples(g, ALPHA, 4, 7, adjoint=adjoint)
        emit(f"samples/adjoint{adjoint}/64", *(s.values for s in samples))
    for name in PRESETS:
        cs = coeffs.preset_coefficients(name, g, EPS, ALPHA)
        emit(f"apply_Lstar/{name}/64", operators.apply_Lstar(cs, samples[0]).values)
    cs = coeffs.preset_coefficients("lower_order", g, EPS, ALPHA)
    a = multiplier.build_abc(cs, 10.0, 2).a
    emit("coupling/lower_order/64/da", *operators.CouplingFactors(a, 10.0, 2).da)

    v = grid.Field.from_function(g, lambda X, Y: (1.0 - Y) * (np.cos(np.pi * X) + 0.3 * Y))
    for name in ("tricomi", "lower_order"):
        cs = coeffs.preset_coefficients(name, g, EPS, ALPHA)
        for m in (0, 1, 2):
            for lam in (1.0, 10.0):
                mt = multiplier.build_abc(cs, lam, m)
                rep = operators.aux_solve_report(v, mt)
                emit(f"aux/{name}/m{m}/lam{lam}/u", rep.u.values)
                print(f"aux/{name}/m{m}/lam{lam}/iterations {rep.iterations}")
                print(f"aux/{name}/m{m}/lam{lam}/increments {rep.increments}")
        samples = solver.random_smooth_samples(g, ALPHA, 10, 7, adjoint=True)
        for m in (0, 1):
            mt = multiplier.build_abc(cs, 10.0, m)
            report, out = solver.energy_certificate(cs, mt, samples)
            emit_entries(f"energy/{name}/m{m}/entries", report)
            emit(f"energy/{name}/m{m}/ratio", [s.ratio for s in out])
            emit(f"energy/{name}/m{m}/dual", [s.dual_constant for s in out])
            emit(f"energy/{name}/m{m}/aux_iterations", [s.aux_iterations for s in out])

    cfg = cli.RunConfig()
    g = grid.make_grid(64, 64)
    flat = nonlinear.flat_metric(g)
    for name, pair in (
        ("ma", cli.manufactured_curvature_pair),
        ("darboux", cli.manufactured_darboux_pair),
    ):
        z_star, K = pair(g, cfg.rho)
        z0 = grid.Field(g, z_star.values + cli._perturbation(g).values)
        dv = nonlinear._SplitDerivatives(z0).at(0)
        for key in ("zx", "zy", "zxx", "zxy", "zyy"):
            emit(f"split/{name}/64/{key}", dv[key])
        surface = nonlinear.GraphSurface(z0, cfg.rho)
        if name == "ma":
            emit("graph/ma/64/curvature_residual", nonlinear.curvature_residual(surface, K).values)
        else:
            res = nonlinear.darboux_residual(surface, K, flat)
            emit("graph/darboux/64/darboux_residual", res.values)
        H = nonlinear.covariant_hessian(z0, flat)
        emit(f"graph/{name}/64/covariant_hessian", *(c.values for c in H))
    # the flat metric's derivatives are all zero; the metric induced by
    # the darboux pair's height f is curved
    fx, fy = nonlinear.graph_dx(z_star).values, nonlinear.graph_dy(z_star).values
    induced = nonlinear.MetricData(
        grid.Field(g, 1.0 + fx**2), grid.Field(g, fx * fy), grid.Field(g, 1.0 + fy**2)
    )
    emit("graph/darboux/64/christoffel_induced", *nonlinear.christoffel_symbols(induced))

    for n in (32, 64, 128):
        g = grid.make_grid(n, n)
        params = nonlinear.NonlinearParams(alpha0=cfg.alpha0, tol=cfg.tol, max_iter=cfg.max_iter)
        metric = nonlinear.flat_metric(g)
        runs = {
            "ma": (cli.manufactured_curvature_pair, nonlinear.solve_prescribed_curvature),
            "darboux": (
                cli.manufactured_darboux_pair,
                lambda K, z0, params: nonlinear.solve_darboux(K, metric, z0, params=params),
            ),
        }
        for name, (pair, solve) in runs.items():
            z_star, K = pair(g, cfg.rho)
            z0 = grid.Field(g, z_star.values + cli._perturbation(g).values)
            rep, calls = factor_calls(
                lambda: solve(K, nonlinear.GraphSurface(z0, cfg.rho), params=params)
            )
            if n == 64:  # N(p) of the first step
                emit_band(f"band/picard/{name}/64", calls[0])
            emit(f"picard/{name}/{n}", rep.final_z.z.values, rep.residual_history)
            print_counts(f"picard/{name}/{n}", rep)

    for seed in (11, 12, 13):  # x-dependent lower_order at 128^2: GMRES steps
        lin = workloads.Linear(seed)
        rep = lin.steps(lin.inputs(0))[0]()
        emit(f"linear128/lower_order/seed{seed}/u", rep.u.values)
        print_krylov(f"linear128/lower_order/seed{seed}", rep)
    # two sets that reach GMRES after refinement, f = L u* for one smooth u*
    for name, n, eps, alpha in (("lower_order", 128, 1e-2, 0.02), ("wedge", 64, 3e-2, 0.346)):
        g = grid.make_grid(n, n)
        cs = coeffs.preset_coefficients(name, g, eps, alpha)
        u_star = solver.random_smooth_samples(g, alpha, 1, 5, adjoint=False)[0]
        problem = solver.LinearProblem(cs, operators.apply_L(cs, u_star))
        rep = solver.solve_linear(problem, require_conditions=False)
        stats, key = rep.solver_stats, f"gmres/{name}/{n}"
        for count in ("method", "refine_steps", "gmres_iterations", "mode_solves", "matvecs"):
            print(f"{key}/{count} {stats[count]}")
        emit(f"{key}/u", rep.u.values)
        emit(f"{key}/gmres_residuals", stats["gmres_residuals"])

    lin = workloads.Linear(1)
    for i in range(10):
        inp = lin.inputs(i)
        rep, calls = factor_calls(lin.steps(inp)[0])
        if i == 0:
            emit_band("band/perfbench/linear/0", calls[0])
        emit(f"perfbench/linear/{i}", rep.u.values, rep.residual_norm, rep.apriori_ratio)
        print_krylov(f"perfbench/linear/{i}", rep)
    pic = workloads.Picard(1)
    for i in range(14):
        inp = pic.inputs(i)
        for k, step in enumerate(pic.steps(inp)):
            try:
                rep = step()
            except Exception as exc:
                print(f"perfbench/picard/{i}/{k} raised {type(exc).__name__}: {exc}")
                continue
            emit(f"perfbench/picard/{i}/{k}", rep.final_z.z.values, rep.residual_history)
            print_counts(f"perfbench/picard/{i}/{k}", rep)

    emit_cli(cli)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/output_hashes.py <tree>")
    main(Path(sys.argv[1]).resolve())
