import numpy as np
import pytest

from mixedbvp.cli import (
    _perturbation,
    manufactured_curvature_pair,
    manufactured_darboux_pair,
)
from mixedbvp.grid import Field, make_grid
from mixedbvp.nonlinear import (
    CurvatureGateError,
    DegenerateLinearizationError,
    DegenerateMetricError,
    GraphSurface,
    MetricData,
    NonlinearParams,
    covariant_hessian,
    curvature_residual,
    cutoff_profile,
    darboux_residual,
    flat_metric,
    graph_dx,
    graph_dy,
    solve_darboux,
    solve_prescribed_curvature,
)

PI = np.pi
RHO = 0.25


def _line_stencils_per_row(v, h, axis):
    # the graph stencils written row by row, the oracle of their matrices
    v = np.moveaxis(v, axis, 0)
    d1, d2 = np.empty_like(v), np.empty_like(v)
    d1[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    d1[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    d1[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    d1[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    d1[-1] = (
        25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]
    ) / (12.0 * h)
    hh = 12.0 * h * h
    d2[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / hh
    d2[0] = (35.0 * v[0] - 104.0 * v[1] + 114.0 * v[2] - 56.0 * v[3] + 11.0 * v[4]) / hh
    d2[1] = (11.0 * v[0] - 20.0 * v[1] + 6.0 * v[2] + 4.0 * v[3] - v[4]) / hh
    d2[-2] = (11.0 * v[-1] - 20.0 * v[-2] + 6.0 * v[-3] + 4.0 * v[-4] - v[-5]) / hh
    d2[-1] = (
        35.0 * v[-1] - 104.0 * v[-2] + 114.0 * v[-3] - 56.0 * v[-4] + 11.0 * v[-5]
    ) / hh
    return np.moveaxis(d1, 0, axis), np.moveaxis(d2, 0, axis)


@pytest.mark.parametrize("shape", [(5, 5), (16, 9), (64, 65), (33, 128)])
@pytest.mark.parametrize("axis", [0, 1])
def test_line_stencils_bit_identical_to_per_row(shape, axis):
    # the matrix rows add their terms in column order, as the oracle does
    # on every row but the two at the far edge, which it sums from the
    # edge inward; those agree to round-off of the row's absolute terms
    # (measured 3.7e-16)
    from mixedbvp.grid import stencil_matrix

    g = make_grid(shape[0], shape[1] - 1)
    v = np.random.default_rng(shape[0] + axis).standard_normal(shape)
    graph_d, h = (graph_dx, g.hx) if axis == 0 else (graph_dy, g.hy)
    for order, ref in enumerate(_line_stencils_per_row(v, h, axis), start=1):
        got = graph_d(Field(g, v), order).values
        assert got.flags.c_contiguous
        got, ref = np.moveaxis(got, axis, 0), np.moveaxis(ref, axis, 0)
        assert np.array_equal(got[:-2], ref[:-2])
        terms = abs(stencil_matrix((order, 5), shape[axis], True))[-2:] @ np.abs(
            np.moveaxis(v, axis, 0)
        )
        terms /= 12.0 * h**order
        assert np.all(np.abs(got[-2:] - ref[-2:]) <= 1e-15 * terms)


def test_curvature_residual_manufactured_zero():
    g = make_grid(64, 64)
    z = Field.from_function(g, lambda X, Y: X**2 / 2 + Y**3 / 6)
    K = Field.from_function(g, lambda X, Y: Y / (1 + X**2 + Y**4 / 4) ** 2)
    res = curvature_residual(GraphSurface(z, RHO), K)
    assert np.abs(res.values).max() < 1e-10


def test_curvature_residual_elliptic_sanity():
    g = make_grid(48, 48)
    z = Field.from_function(g, lambda X, Y: (X**2 + Y**2) / 2)
    K = Field.from_function(g, lambda X, Y: 1.0 / (1 + X**2 + Y**2) ** 2)
    res = curvature_residual(GraphSurface(z, RHO), K)
    assert np.abs(res.values).max() < 1e-10


def test_curvature_residual_zero_surface():
    g = make_grid(16, 16)
    res = curvature_residual(GraphSurface(Field.zeros(g), RHO), Field.zeros(g))
    assert np.all(res.values == 0.0)


def test_hessian_term_affine_invariant():
    g = make_grid(32, 32)
    rng = np.random.default_rng(1)
    z = Field.from_function(g, lambda X, Y: X**2 / 3 + np.sin(PI * X) * Y**2 / 10)
    za = Field(g, z.values + 0.7 * g.meshes()[0] - 0.2 * g.meshes()[1] + 5.0)

    def det_part(f):
        zxx = graph_dx(f, 2).values
        zyy = graph_dy(f, 2).values
        zxy = graph_dy(graph_dx(f, 1), 1).values
        return zxx * zyy - zxy**2

    assert np.abs(det_part(z) - det_part(za)).max() < 1e-9


def test_graph_derivatives_quartic_exact():
    from mixedbvp.grid import stencil_matrix
    from mixedbvp.nonlinear import _stencil_weights

    g = make_grid(32, 32)
    z = Field.from_function(g, lambda X, Y: Y**4 - X**4 + X**2 * Y)
    X, Y = g.meshes()
    assert np.abs(graph_dy(z, 1).values - (4 * Y**3 + X**2)).max() < 1e-9
    assert np.abs(graph_dy(z, 2).values - 12 * Y**2).max() < 1e-8
    assert np.abs(graph_dx(z, 1).values - (-4 * X**3 + 2 * X * Y)).max() < 1e-9
    assert np.abs(graph_dx(z, 2).values - (-12 * X**2 + 2 * Y)).max() < 1e-8
    # each row of the weight table is 12 h^order times the weights exact
    # on quartics over its five nodes (measured 3.9e-14), and zero elsewhere
    n, h = g.ny + 1, g.hy
    for order in (1, 2):
        m = stencil_matrix((order, 5), n, True).toarray()
        for i in range(n):
            nodes = np.arange(5) + min(max(i - 2, 0), n - 5)
            w = 12.0 * h**order * _stencil_weights((nodes - i) * h, order)
            assert np.abs(m[i, nodes] - w).max() <= 1e-11, (order, i)
            assert np.count_nonzero(m[i]) == np.count_nonzero(m[i, nodes])
    # the integer weights of every row sum to exactly 0
    one = Field.constant(g, 1.0)
    for order in (1, 2):
        assert np.all(graph_dx(one, order).values == 0.0)
        assert np.all(graph_dy(one, order).values == 0.0)


def test_graph_dx_needs_five_x_nodes():
    with pytest.raises(ValueError, match="graph differentiation needs at least 5 x-nodes"):
        graph_dx(Field.constant(make_grid(4, 8), 1.0))


def test_covariant_hessian_flat_metric():
    g = make_grid(24, 24)
    z = Field.from_function(g, lambda X, Y: X**2 / 2 + Y**3 / 6)
    H11, H12, H22 = covariant_hessian(z, flat_metric(g))
    zxx = graph_dx(z, 2).values
    assert np.abs(H11.values - zxx).max() == 0.0
    assert np.abs(H12.values).max() < 1e-10


def test_covariant_hessian_constant_diagonal_metric():
    g = make_grid(24, 24)
    one = Field.constant(g, 1.0)
    h = MetricData(one, Field.zeros(g), Field.constant(g, 2.5))
    z = Field.from_function(g, lambda X, Y: X * Y)
    H11, H12, H22 = covariant_hessian(z, h)
    assert np.abs(H12.values - 1.0).max() < 1e-10  # Christoffels vanish


def test_covariant_hessian_exponential_metric_oracle():
    g = make_grid(64, 64)
    one = Field.constant(g, 1.0)
    h = MetricData(one, Field.zeros(g), Field.from_function(g, lambda X, Y: np.exp(2 * X)))
    z = Field.from_function(g, lambda X, Y: Y + 0.0 * X)
    H11, H12, H22 = covariant_hessian(z, h)
    assert np.abs(H12.values + 1.0).max() < 1e-4  # Gamma^y_xy = 1
    assert np.abs(H11.values).max() < 1e-10


def test_metric_validation():
    g = make_grid(16, 16)
    one = Field.constant(g, 1.0)
    with pytest.raises(DegenerateMetricError):
        MetricData(one, Field.constant(g, 2.0), one)  # det < 0


def test_darboux_flat_reduction_oracle():
    # flat metric reduces the residual to det D^2 z - K (1 - |grad z|^2)
    g = make_grid(48, 48)
    sigma = 0.5
    z = Field.from_function(g, lambda X, Y: sigma * (X**2 / 2 + Y**3 / 6))

    def kfun(X, Y):
        grad2 = (sigma * X) ** 2 + (sigma * Y**2 / 2) ** 2
        return sigma**2 * Y / (1.0 - grad2)

    K = Field.from_function(g, kfun)
    res = darboux_residual(GraphSurface(z, RHO), K, flat_metric(g))
    assert np.abs(res.values).max() < 1e-11


def test_darboux_zero_fixed_point():
    g = make_grid(16, 16)
    res = darboux_residual(GraphSurface(Field.zeros(g), RHO), Field.zeros(g), flat_metric(g))
    assert np.all(res.values == 0.0)


def test_cutoff_profile_shape():
    g = make_grid(64, 64)
    chi = cutoff_profile(g)
    x = g.x
    assert np.all(chi[np.abs(x) <= 0.5] == 1.0)
    assert np.all(chi[np.abs(x) >= 0.75] == 0.0)
    assert np.all((0.0 <= chi) & (chi <= 1.0))


def test_prescribed_curvature_gate_rejects():
    g = make_grid(32, 32)
    K = Field.from_function(g, lambda X, Y: -Y)
    z0 = GraphSurface(Field.zeros(g), RHO)
    with pytest.raises(CurvatureGateError):
        solve_prescribed_curvature(K, z0)


def test_prescribed_curvature_fixed_point_start():
    g = make_grid(32, 32)
    z_star, K = manufactured_curvature_pair(g, RHO)
    rep = solve_prescribed_curvature(K, GraphSurface(z_star, RHO))
    assert rep.converged and rep.iterations == 0


def test_prescribed_curvature_recovery_small_grid():
    # the discrete fixed point sits O(h^3) from the continuum target, so
    # the coarse grid needs a matching residual tolerance
    g = make_grid(32, 32)
    z_star, K = manufactured_curvature_pair(g, RHO)
    z0 = Field(g, z_star.values + _perturbation(g).values)
    params = NonlinearParams(tol=5e-7)
    rep = solve_prescribed_curvature(K, GraphSurface(z0, RHO), params)
    assert rep.converged
    assert np.abs(rep.final_z.z.values - z_star.values).max() < 5e-5
    # residual history settles into a decreasing trend
    h = rep.residual_history
    assert h[4] < h[2] < h[0]


def test_darboux_recovery_small_grid():
    g = make_grid(32, 32)
    z_star, K = manufactured_darboux_pair(g, RHO)
    z0 = Field(g, z_star.values + _perturbation(g).values)
    params = NonlinearParams(tol=5e-7)
    rep = solve_darboux(K, flat_metric(g), GraphSurface(z0, RHO), params)
    assert rep.converged
    assert np.abs(rep.final_z.z.values - z_star.values).max() < 5e-5


def test_darboux_rejects_gradient_degeneration():
    g = make_grid(32, 32)
    z_star, K = manufactured_darboux_pair(g, RHO)
    steep = Field(g, z_star.values + 2.0 * g.meshes()[0] ** 2)  # |grad| > 1
    with pytest.raises(DegenerateLinearizationError):
        solve_darboux(K, flat_metric(g), GraphSurface(steep, RHO))


def test_iteration_report_residual_history_positive():
    g = make_grid(32, 32)
    z_star, K = manufactured_curvature_pair(g, RHO)
    z0 = Field(g, z_star.values + _perturbation(g).values)
    rep = solve_prescribed_curvature(K, GraphSurface(z0, RHO))
    assert all(r > 0 for r in rep.residual_history[:-1])


def test_graph_surface_scale_validation():
    g = make_grid(16, 16)
    with pytest.raises(ValueError):
        GraphSurface(Field.zeros(g), 0.0)


def _cli_solve(solve, n):
    g = make_grid(n, n)
    pair = manufactured_curvature_pair if solve == "ma" else manufactured_darboux_pair
    z_star, K = pair(g, RHO)
    z0 = GraphSurface(Field(g, z_star.values + _perturbation(g).values), RHO)
    if solve == "ma":
        return z_star, solve_prescribed_curvature(K, z0)
    return z_star, solve_darboux(K, flat_metric(g), z0)


@pytest.mark.parametrize("solve", ["ma", "darboux"])
def test_picard_converges_under_refinement(solve):
    # each step solves the linearization on the residual's own stencils,
    # so no x-mode is left to self-excite; the sup error is the stencils'
    # discretization error and falls at about third order
    errors = []
    for n in (64, 128, 256):
        z_star, rep = _cli_solve(solve, n)
        assert rep.converged, (n, rep.diagnostics)
        assert len(rep.diagnostics["linear_residuals"]) == rep.iterations
        errors.append(np.abs(rep.final_z.z.values - z_star.values).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 2.5, (errors, orders)


@pytest.mark.parametrize("solve", ["ma", "darboux"])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_mixed_picard_matches_damped_picard(monkeypatch, solve, n):
    # ANDERSON_DEPTH = 0 is the damped iteration d + theta * update that
    # the mixed one replaced: the same fixed point in fewer steps
    from mixedbvp import nonlinear

    _, mixed = _cli_solve(solve, n)
    monkeypatch.setattr(nonlinear, "ANDERSON_DEPTH", 0)
    _, damped = _cli_solve(solve, n)
    assert mixed.converged and damped.converged
    assert set(damped.stats["mixing_depth"]) == {0}
    assert mixed.iterations < damped.iterations
    assert np.abs(mixed.final_z.z.values - damped.final_z.z.values).max() <= 2e-8


def test_cli_start_at_32():
    # darboux converges at 32^2; ma still stops on residual stagnation there
    z_star, rep = _cli_solve("darboux", 32)
    assert rep.converged and np.abs(rep.final_z.z.values - z_star.values).max() < 5e-5
    _, rep = _cli_solve("ma", 32)
    assert not rep.converged and rep.diagnostics["reason"] == "residual stagnation"


def _step_inputs(n):
    # the grid and profile p of the ma CLI start's first step, and a
    # seeded right-hand side
    from mixedbvp.nonlinear import _SplitDerivatives

    g = make_grid(n, n)
    z_star, _ = manufactured_curvature_pair(g, RHO)
    dv = _SplitDerivatives(Field(g, z_star.values + _perturbation(g).values)).at(0)
    p = (dv["zyy"] / dv["zxx"])[np.abs(g.x) <= 0.5].mean(axis=0)
    return g, p, np.random.default_rng(n).standard_normal(g.shape)


def _assembled(g, rows_of):
    # the matrix of the linear map rows_of, read off identity columns; a row
    # of N reaches 2 nodes in x and 3 in y, so identity columns 8 apart in x
    # and 7 in y touch disjoint rows and share one application (probing,
    # Curtis-Powell-Reid 1974), each entry still the product of one column
    import scipy.sparse as sp

    I, J = (m.ravel() for m in np.meshgrid(np.arange(g.nx), np.arange(g.ny + 1), indexing="ij"))
    entries = []
    for a in range(8):
        for b in range(7):
            out = rows_of(((I % 8 == a) & (J % 7 == b)).astype(float).reshape(g.shape)).ravel()
            nz = np.flatnonzero(out)
            ci = (a + 8 * np.round((I[nz] - a) / 8).astype(int)) % g.nx
            cj = b + 7 * np.round((J[nz] - b) / 7).astype(int)
            entries.append((out[nz], nz, ci * (g.ny + 1) + cj))
    vals, rows, cols = (np.concatenate(e) for e in zip(*entries))
    return sp.csc_matrix((vals, (rows, cols)), shape=(I.size, I.size))


def _step(g, p, alpha, f):
    # one Picard step that factors: N(p) d = f and its residual
    from mixedbvp.nonlinear import _factor_step, _solve_step

    return _solve_step(g, _factor_step(g, p, alpha), alpha, f)


def _N_rows(g, p, alpha, d):
    # N d over every row: the step's product on rows 1..ny and the oblique
    # row 0, which the gate forms
    from mixedbvp.nonlinear import _step_product
    from mixedbvp.operators import _oblique_row

    rows = _step_product(g, p, d)
    rows[:, 0] = _oblique_row(d, alpha, 1.0, g)
    return rows


def _spy_lapack(monkeypatch, name):
    # the arguments of every call of lapack.<name> after this one, each
    # array copied before LAPACK overwrites it
    from scipy.linalg import lapack

    real, calls = getattr(lapack, name), []

    def spy(*args, **kwargs):
        calls.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
        return real(*args, **kwargs)

    monkeypatch.setattr(lapack, name, spy)
    return calls


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.2])
def test_linear_step_matches_per_mode_and_assembled_solves(monkeypatch, n, alpha):
    # the one stacked zgbtrf and zgbtrs calls on the folded kl = ku = 2
    # band against one zgbsv call per x-mode, bit for bit, and against a
    # sparse LU of N assembled from the gate's rows (_N_rows, the record's
    # product) applied to the identity's columns
    import scipy.sparse.linalg as spla
    from scipy.linalg import lapack

    from mixedbvp.grid import l2_norm
    from mixedbvp.nonlinear import _step_product
    from mixedbvp.operators import _oblique_row
    from mixedbvp.solver import _gate

    g, p, f = _step_inputs(n)
    nyp = g.ny + 1
    factors, solves = _spy_lapack(monkeypatch, "zgbtrf"), _spy_lapack(monkeypatch, "zgbtrs")
    d, res = _step(g, p, alpha, f)
    ((ab, kl, ku),), ((_, trs_kl, trs_ku, b, _),) = factors, solves
    assert (kl, ku) == (trs_kl, trs_ku) == (2, 2) and ab.shape == (7, b.size)
    # no entry couples two blocks, so pivoting stays inside each: entry
    # [r, c] of the band sits on row r - 4 + c of c's block (rows 0..1 are
    # the LU's fill)
    row = np.arange(7)[:, None] - 4 + np.arange(ab.shape[1]) % nyp
    assert not ab[2:][(row[2:] < 0) | (row[2:] >= nyp)].any()
    blocks = [slice(k * nyp, (k + 1) * nyp) for k in range(b.size // nyp)]
    per_mode = np.concatenate([lapack.zgbsv(2, 2, ab[:, k], b[k])[2] for k in blocks])
    assert np.array_equal(d, np.fft.irfft(per_mode.reshape(-1, nyp), n=g.nx, axis=0))

    N = _assembled(g, lambda e: _N_rows(g, p, alpha, e))
    if n == 16:  # the probed matrix is the one read off single columns
        eye = np.eye(g.nx * nyp)
        columns = [_N_rows(g, p, alpha, e.reshape(g.shape)).ravel() for e in eye]
        assert np.array_equal(N.toarray(), np.array(columns).T)
    rhs = f.copy()
    rhs[:, [0, -1]] = 0.0
    ref = spla.spsolve(N, rhs.ravel()).reshape(g.shape)
    # measured <= 3.3e-13 at 64^2 over five right-hand sides; entrywise the
    # two differ by up to 1.7e-12 of max|ref|, where the LU's own error is
    # the larger: the band solve leaves the smaller residual
    assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
    assert res == l2_norm(Field(g, rhs - _N_rows(g, p, alpha, d)))
    assert res <= 1e-10 * l2_norm(Field(g, f))
    # the wall rows of the gate's residual on the step's rows are
    # the top row and _oblique_row's, bit for bit
    u = np.random.default_rng(n + 1).standard_normal(g.shape)
    top, bottom = u[:, -1], _oblique_row(u, alpha, 1.0, g)
    _, r = _gate(f, u, _step_product(g, p, u), alpha, g)
    assert np.array_equal(r[:, 0], -bottom) and np.array_equal(r[:, -1], -top)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_step_is_zgbsv_bit_for_bit(monkeypatch, n, alpha):
    # _solve_step through _factor_step gives zgbsv's solution on the same
    # band and right-hand side, bit for bit: zgbsv is zgbtrf then zgbtrs
    from scipy.linalg import lapack

    from mixedbvp.nonlinear import _factor_step, _solve_step

    g, p, f = _step_inputs(n)
    factors, solves = _spy_lapack(monkeypatch, "zgbtrf"), _spy_lapack(monkeypatch, "zgbtrs")
    lu = _factor_step(g, p, alpha)
    d, _ = _solve_step(g, lu, alpha, f)
    ((ab, _, _),), ((_, _, _, b, _),) = factors, solves
    ref_lu, ref_piv, x, info = lapack.zgbsv(2, 2, ab, b)
    assert info == 0
    (factored, piv), _, _, _ = lu[0]
    assert np.array_equal(factored, ref_lu) and np.array_equal(piv, ref_piv)
    assert np.array_equal(d, np.fft.irfft(x.reshape(-1, g.ny + 1), n=g.nx, axis=0))


def _mode_systems(g, p, alpha):
    # the unfolded y-system of every x-mode, (nx//2 + 1, ny+1, ny+1), read
    # off the gate's rows (_N_rows): N is x-shift invariant, so the rfft in
    # x of N applied to a unit column at x-node 0 is column j of each
    # mode's system
    nyp = g.ny + 1
    A = np.empty((g.nx // 2 + 1, nyp, nyp), dtype=complex)
    for j in range(nyp):
        e = np.zeros(g.shape)
        e[0, j] = 1.0
        A[:, :, j] = np.fft.rfft(_N_rows(g, p, alpha, e), axis=0)
    return A


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_folded_step_matches_dense_mode_solves(monkeypatch, n):
    # the folded band has no entry outside kl = ku = 2, and each mode's
    # folded band system (as zgbtrf and zgbtrs receive it) solves the
    # unfolded y-system: np.linalg.solve on the system read off _N_rows
    # columns
    from scipy.linalg import lapack

    from mixedbvp.nonlinear import _step_record
    from mixedbvp.solver import _mode_band, _mode_problem

    g, p, f = _step_inputs(n)
    nyp, alpha = g.ny + 1, 0.6
    A = _mode_systems(g, p, alpha)

    # mode 0 has both symbols 0, so its system is real; folded with the
    # band's own mode-0 multipliers, nothing is left outside the band
    # (measured: exactly 0), and inside it the band holds the rest
    band, s, folds = _mode_band(*_mode_problem(_step_record(g, p, alpha)))
    folded = A[0].real.copy()
    for row, by, m in folds:
        folded[row] -= m[0].real * folded[by]
    i, j = np.indices(folded.shape)
    inside = np.abs(i - j) <= 2
    assert np.abs(folded[~inside]).max() <= 1e-15 * np.abs(A[0].real).max()
    dense = np.zeros_like(folded)
    dense[inside] = band[s + i[inside] - j[inside], 0, j[inside]].real
    # a real block, with every entry outside the band exactly zero in every mode
    assert not band[:, 0].imag.any() and not band[: s - 2].any() and not band[s + 3 :].any()
    assert np.allclose(dense, np.where(inside, folded, 0.0), rtol=1e-15, atol=0.0)

    factors, solves = _spy_lapack(monkeypatch, "zgbtrf"), _spy_lapack(monkeypatch, "zgbtrs")
    _step(g, p, alpha, f)
    ((ab, _, _),), ((_, _, _, b, _),) = factors, solves
    rhs = f.copy()
    rhs[:, [0, -1]] = 0.0
    spec = np.fft.rfft(rhs, axis=0)
    # measured <= 9.2e-13 (256^2, mode 0, where cond = 2.1e6); the unfolded
    # kl = ku = 3 band solve differs from np.linalg.solve by 2.8e-13 there
    nyquist = g.nx // 2
    for k in sorted({0, 1, 2, nyquist // 2, nyquist - 1, nyquist}):
        block = slice(k * nyp, (k + 1) * nyp)
        got = lapack.zgbsv(2, 2, ab[:, block], b[block])[2].ravel()
        ref = np.linalg.solve(A[k], spec[k])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), k


def _band_dense(rows, nyp):
    # the (nyp, nyp) matrix held in band storage, the entry (i, j) at rows[w + i - j, j]
    w = len(rows) // 2
    line, j = np.indices(rows.shape)
    i = line - w + j
    inside = (i >= 0) & (i < nyp)
    dense = np.zeros((nyp, nyp))
    dense[i[inside], j[inside]] = rows[inside]
    return dense


def _table_matrix(stencil, n, h, walled):
    # a stencil of grid._X_STENCILS on a line of n nodes over its denominator
    from mixedbvp.grid import _denominator, stencil_matrix

    return stencil_matrix(stencil, n, walled).toarray() / _denominator(stencil, h)


@pytest.mark.parametrize("n", [16, 47, 64, 128])
def test_step_band_is_read_off_its_record(n):
    # N(p)'s x-mode problem, read off its record, bit for bit: its y-rows
    # are the walled (2, 5) stencil over its denominator on rows 1..ny-1,
    # with the oblique row's u_y on row 0 and the identity on row ny; its
    # x-terms are p on rows 1..ny-1 with the periodic (2, 5) symbol, and
    # the oblique row's u_x symbol on row 0
    from mixedbvp.grid import x_symbol, x_terms
    from mixedbvp.nonlinear import _step_record
    from mixedbvp.operators import _BOTTOM_DY, _bottom_dx
    from mixedbvp.solver import _mode_problem

    g = make_grid(n, n)
    p, alpha, nyp = 0.25 * g.y + 0.1, 0.6, g.ny + 1
    _, rows, ((on, c, sigma), (j, c0, bottom)), kl, ku = _mode_problem(_step_record(g, p, alpha))
    assert (kl, ku) == (2, 2) and on == slice(None) and (j, c0) == (0, 1.0)
    ref = _table_matrix((2, 5), nyp, g.hy, True)
    ref[[0, -1]] = 0.0
    ref[0, :4] = _BOTTOM_DY / g.hy
    ref[-1, -1] = 1.0
    assert np.array_equal(_band_dense(rows, nyp).view(np.int64), ref.view(np.int64))
    sigma_ref = x_symbol(x_terms((2, 5), g.hx), g.nx)
    bottom_ref = x_symbol(_bottom_dx(alpha, g.hx), g.nx)
    assert np.array_equal(sigma.view(np.int64), sigma_ref.view(np.int64))
    assert np.array_equal(c.view(np.int64), np.r_[0.0, p[1:-1], 0.0].view(np.int64))
    assert np.array_equal(bottom.view(np.int64), bottom_ref.view(np.int64))


@pytest.mark.parametrize("n", [16, 47, 64, 128])
def test_step_product_is_the_kronecker_oracle(n):
    # N(p) does not depend on x, so the step's product is the Kronecker
    # form p*(D_xx (x) I) d + (I (x) D_yy) d on rows 1..ny-1, D the (2, 5)
    # stencil matrices over their denominators, bit for bit; row ny is d's
    import scipy.sparse as sp

    from mixedbvp.nonlinear import _step_product

    g = make_grid(n, n)
    p, d = 0.25 * g.y + 0.1, np.random.default_rng(n).standard_normal((n, n + 1))
    dx = sp.csr_matrix(_table_matrix((2, 5), g.nx, g.hx, False))
    dy = sp.csr_matrix(_table_matrix((2, 5), g.ny + 1, g.hy, True))
    ref = p * (dx @ d) + (dy @ d.T).T
    out = _step_product(g, p, d)
    assert np.array_equal(out[:, 1:-1].view(np.int64), ref[:, 1:-1].view(np.int64))
    assert np.array_equal(out[:, -1], d[:, -1])


@pytest.mark.parametrize("n", [16, 47, 64])
def test_assembled_step_matrix_is_its_record(n):
    # assemble_L reads N(p)'s record too: StencilL applies the same runs,
    # so its product is the matrix's bit for bit, as is the product of
    # the same record with its coefficients one per node
    from mixedbvp.nonlinear import _step_record
    from mixedbvp.operators import Lines, Rows, StencilL, assemble_L

    g = make_grid(n, n)
    p, d = 0.25 * g.y + 0.1, np.random.default_rng(n).standard_normal((n, n + 1))
    N = _step_record(g, p, 0.6)
    mat = assemble_L(N)
    ref = (mat @ d.ravel()).reshape(g.shape)
    out = StencilL(N) @ d
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    every = slice(None)
    wide = Rows(g, tuple((on, np.broadcast_to(c, g.shape) if on == every else c, *rest)
                         for on, c, *rest in N.x),
                Lines(g, tuple((on, np.broadcast_to(c, g.shape) if on == every else c, s)
                               for on, c, s in N.y.parts)))
    assert np.array_equal((StencilL(wide) @ d).view(np.int64), ref.view(np.int64))
    assert (assemble_L(wide) != mat).nnz == 0


def test_passing_step_builds_no_gate_error(monkeypatch):
    # the gate returns its residual; the step builds the error only to raise it
    from mixedbvp import nonlinear, solver
    from mixedbvp.solver import ResidualGateError

    built = []
    init = ResidualGateError.__init__
    monkeypatch.setattr(ResidualGateError, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    g, p, f = _step_inputs(32)
    lu = nonlinear._factor_step(g, p, 0.6)
    nonlinear._solve_step(g, lu, 0.6, f)
    assert built == []
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(ResidualGateError, match="WELLPOSEDNESS_SUSPECT: solve residual"):
        nonlinear._solve_step(g, lu, 0.6, f)
    assert len(built) == 1


def test_linear_step_forms_the_oblique_row_once(monkeypatch):
    # the gate alone forms the step's bottom row: one _oblique_row call per
    # step, counted through every module of the package that binds it (the
    # step's record is built first, so its per-grid pieces are kept)
    import sys

    from mixedbvp import nonlinear, operators

    calls = []
    real = operators._oblique_row

    def counting(*args):
        calls.append(args)
        return real(*args)

    g, p, f = _step_inputs(32)
    nonlinear._step_record(g, p, 0.6)
    for name, module in list(sys.modules.items()):
        if name.startswith("mixedbvp") and getattr(module, "_oblique_row", None) is real:
            monkeypatch.setattr(module, "_oblique_row", counting)
    _step(g, p, 0.6, f)
    assert len(calls) == 1


def test_picard_solve_builds_no_stencil_product(monkeypatch):
    # the step's gate reads _step_product, off the residual's own
    # derivative matrices, so no solve builds a StencilL for its record
    from mixedbvp import operators

    built = []
    init = operators.StencilL.__init__
    monkeypatch.setattr(operators.StencilL, "__init__",
                        lambda self, op: built.append(op) or init(self, op))
    for solve in ("ma", "darboux"):
        assert _cli_solve(solve, 32)[1].iterations > 0
    assert built == []


@pytest.mark.parametrize(
    "singular",
    [[(0, 0)], [(0, 32)], [(5, 7)], [(3, 32), (9, 0)], [(16, 32)], [(6, 1)], [(4, 31)],
     [(2, 32), (7, 1)], [(8, 31), (12, 0)], [(11, 1), (15, 31)]],
)
def test_singular_step_mode_is_wellposedness_suspect(singular, monkeypatch):
    # a zero column (mode k, y-node c) of the folded band makes that mode
    # exactly singular; the one zgbtrf call over every mode names the
    # first such mode, as a zgbtrf call per mode does, also at the first
    # and last column of a block, at the nodes 0, 1 and ny-1 of the folded
    # rows and past mode 0
    from scipy.linalg import lapack

    from mixedbvp import nonlinear, solver
    from mixedbvp.solver import PreconditionError

    g, p, _ = _step_inputs(32)
    nyp, real = g.ny + 1, solver._mode_band

    def zeroed(*problem):
        band, s, folds = real(*problem)
        for k, c in singular:
            band[:, k, c] = 0.0  # the entries (i, c) of mode k
        return band, s, folds

    monkeypatch.setattr(solver, "_mode_band", zeroed)
    factors = _spy_lapack(monkeypatch, "zgbtrf")
    with pytest.raises(PreconditionError, match="WELLPOSEDNESS_SUSPECT: x-mode") as exc:
        nonlinear._factor_step(g, p, 0.6)
    ((ab, kl, ku),) = factors
    blocks = [ab[:, k * nyp : (k + 1) * nyp] for k in range(g.nx // 2 + 1)]
    first = next(k for k, block in enumerate(blocks) if lapack.zgbtrf(block, kl, ku)[-1] > 0)
    assert first == min(k for k, _ in singular)
    assert str(exc.value) == f"WELLPOSEDNESS_SUSPECT: x-mode {first} is exactly singular"


@pytest.mark.parametrize("solve", ["ma", "darboux"])
def test_zero_drift_factors_on_every_step(monkeypatch, solve):
    # STEP_LU_DRIFT = 0 is the step that factors N(p) every time: one
    # zgbtrf and one zgbtrs call per step
    from mixedbvp import nonlinear

    monkeypatch.setattr(nonlinear, "STEP_LU_DRIFT", 0.0)
    zgbtrf, zgbtrs = _spy_lapack(monkeypatch, "zgbtrf"), _spy_lapack(monkeypatch, "zgbtrs")
    _, rep = _cli_solve(solve, 32)
    assert len(zgbtrf) == len(zgbtrs) == rep.iterations > 0
    assert all(rep.stats["factored"])


@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_kept_lu_step_matches_a_fresh_factorization(monkeypatch, alpha):
    # a solve through an LU kept at p_f, after another solve through it,
    # is the solve through a fresh LU at p_f, bit for bit, residual
    # included; in _picard a profile within STEP_LU_DRIFT of p_f solves
    # through the kept LU, and one past it (or a NaN drift) factors again
    from mixedbvp import nonlinear
    from mixedbvp.nonlinear import STEP_LU_DRIFT, _factor_step, _solve_step

    g, p_f, f = _step_inputs(32)
    kept = _factor_step(g, p_f, alpha)
    _solve_step(g, kept, alpha, f)
    f2 = np.random.default_rng(7).standard_normal(g.shape)
    d, res = _solve_step(g, kept, alpha, f2)
    fresh_d, fresh_res = _step(g, p_f, alpha, f2)
    assert np.array_equal(d, fresh_d) and res == fresh_res

    # in a Picard run whose k-th step freezes profiles[k], only a profile
    # within the drift of the last one factored solves through its LU
    real_solve = nonlinear._solve_step
    factors = _spy_lapack(monkeypatch, "zgbtrf")

    def picard(*profiles):
        solved = []
        monkeypatch.setattr(nonlinear, "_solve_step",
                            lambda g, lu, *a: solved.append(lu[1]) or real_solve(g, lu, *a))

        def step_terms(dv):
            p = profiles[min(len(solved), len(profiles) - 1)]
            return f, np.broadcast_to(p, g.shape), np.ones(g.shape)

        # alpha = sqrt(RHO) * alpha0
        params = NonlinearParams(alpha0=2.0 * alpha, max_iter=len(profiles))
        return nonlinear._picard(GraphSurface(Field.zeros(g), RHO), step_terms, params), solved

    near, far = p_f * (1.0 + 0.5 * STEP_LU_DRIFT), p_f * (1.0 + 2.0 * STEP_LU_DRIFT)
    rep, solved = picard(p_f, near, far, far)
    assert rep.stats["factored"] == [True, False, True, False] and len(factors) == 2
    assert [s is solved[0] for s in solved] == [True, True, False, False]
    # a NaN profile is factored, and its NaN solve fails the gate
    with pytest.raises(ValueError, match="overflows"):
        picard(p_f, np.full_like(p_f, np.nan))
    assert len(factors) == 4


def test_kept_lu_keeps_the_benchmark_verdicts(monkeypatch):
    # perfbench's picard operations 0-13 at 64^2 (seed 4201) against the
    # step that factors every time: the same verdicts, steps within one,
    # sup errors within 1%, and fewer factorizations than steps
    import importlib.util
    import sys
    from pathlib import Path

    from mixedbvp import nonlinear

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    pic = workloads.Picard(4201)

    def run_all():
        out = []
        for i in range(14):
            pert = pic.inputs(i)
            for k, step in enumerate(pic.steps(pert)):
                try:
                    rep = step()
                except DegenerateLinearizationError:
                    out.append(None)
                    continue
                err = np.abs(rep.final_z.z.values - (pic.ma_star, pic.dx_star)[k].values).max()
                out.append((pic.check(pert, k, rep).passed, rep.iterations, err, rep.stats["factored"]))
        return out

    kept = run_all()
    monkeypatch.setattr(nonlinear, "STEP_LU_DRIFT", 0.0)
    fresh = run_all()
    assert [r is None for r in kept] == [r is None for r in fresh]
    steps = factored = 0
    for a, b in zip(kept, fresh):
        if a is None:
            continue
        assert a[0] == b[0] and abs(a[1] - b[1]) <= 1
        if a[0]:
            assert abs(a[2] - b[2]) <= 0.01 * b[2]
        assert all(b[3])
        steps, factored = steps + a[1], factored + sum(a[3])
    assert factored < steps


def test_condition7prime_checked_once_per_K(monkeypatch):
    # two solves on one K compute its margin once; a K edited in place is
    # checked again, and a failing K raises on every call
    from mixedbvp import nonlinear

    calls = []
    real = nonlinear.condition7prime_margin
    monkeypatch.setattr(nonlinear, "condition7prime_margin",
                        lambda *a: calls.append(a) or real(*a))
    nonlinear._condition7prime_holds.cache_clear()
    g = make_grid(32, 32)
    z_star, K = manufactured_curvature_pair(g, RHO)
    params = NonlinearParams(max_iter=1)
    for _ in range(2):
        solve_prescribed_curvature(K, GraphSurface(z_star, RHO), params)
    assert len(calls) == 1
    K.values[0, 0] *= 1.0 + 1e-12
    solve_prescribed_curvature(K, GraphSurface(z_star, RHO), params)
    assert len(calls) == 2
    bad = Field.from_function(g, lambda X, Y: -Y)
    for count in (3, 4):
        with pytest.raises(CurvatureGateError):
            solve_prescribed_curvature(bad, GraphSurface(z_star, RHO), params)
        assert len(calls) == count


@pytest.mark.parametrize("solve", ["ma", "darboux"])
def test_picard_stats(solve):
    from mixedbvp.grid import l2_norm
    from mixedbvp.nonlinear import (
        ANDERSON_DEPTH,
        _curvature,
        _darboux,
        _SplitDerivatives,
        christoffel_symbols,
    )

    z_star, rep = _cli_solve(solve, 64)
    stats = rep.stats
    steps = rep.iterations
    assert len(rep.diagnostics["linear_residuals"]) == steps
    for key in ("wall_norm", "mixing_depth", "factored"):
        assert len(stats[key]) == steps, key
    assert stats["factored"][0] is True
    assert min(stats[k] for k in ("residual_s", "band_s", "solve_s", "mix_s")) > 0.0
    # the history fills up to ANDERSON_DEPTH columns, one per step
    assert stats["mixing_depth"] == [min(i, ANDERSON_DEPTH) for i in range(steps)]
    # wall_norm[i] is the wall-row part of residual_history[i]
    assert all(0.0 < w < r for w, r in zip(stats["wall_norm"], rep.residual_history))
    g = z_star.grid
    z0 = GraphSurface(Field(g, z_star.values + _perturbation(g).values), RHO)
    dv = _SplitDerivatives(z0.z).at(0)
    if solve == "ma":
        K = manufactured_curvature_pair(g, RHO)[1]
        res = _curvature(dv, K)
    else:
        K, h = manufactured_darboux_pair(g, RHO)[1], flat_metric(g)
        res = _darboux(dv, K, h.inverse(), christoffel_symbols(h), h.det())
    weighted = cutoff_profile(g)[:, None] * res
    walls = weighted.copy()
    walls[:, 1:-1] = 0.0
    assert rep.residual_history[0] == l2_norm(Field(g, weighted))
    assert abs(stats["wall_norm"][0] - l2_norm(Field(g, walls))) <= 1e-13 * stats["wall_norm"][0]


def _stencil_composition(split, d):
    # the five stencil passes the sparse products replaced: the periodic
    # x-stencils and the graph's y-stencils of periodic_base + d, plus the
    # carrier's derivatives (analytic in x, the graph's stencils in y).
    # Also returns each entry's round-off scale, the sum of the absolute
    # terms the stencils add up (Higham's |D| |v|)
    from mixedbvp.grid import _apply_x
    from mixedbvp.nonlinear import _derivative_matrices

    g = split.grid
    hx, hy, nx = g.hx, g.hy, g.nx
    cz = split.base - split._periodic_base
    czx, czxx = split._carrier_x[:nx], split._carrier_x[nx:]
    p = split._periodic_base + d
    px = _apply_x((1, 5), p, hx)
    (cz1, cz2), (p1, p2), (czx1, _), (px1, _) = (
        _line_stencils_per_row(v, hy, 1) for v in (cz, p, czx, px)
    )
    ref = {
        "zx": czx + px,
        "zy": cz1 + p1,
        "zxx": czxx + _apply_x((2, 5), p, hx),
        "zxy": czx1 + px1,
        "zyy": cz2 + p2,
    }
    dx, dy, dy1, dxx, dyy = (abs(m) for m in _derivative_matrices(g))

    def along_y(m, *vs):
        return sum((m @ np.abs(v).T).T for v in vs)

    ax = dx @ np.abs(p)
    scale = {
        "zx": np.abs(czx) + ax[:nx],
        "zy": along_y(dy1, cz, p),
        "zxx": np.abs(czxx) + dxx @ np.abs(p),
        "zxy": along_y(dy1, czx, ax[:nx]),
        "zyy": along_y(dyy, cz, p),
    }
    return ref, scale


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_split_derivatives_match_the_stencil_composition(n):
    # the products add the same terms as the stencils in another order, so
    # each entry agrees to round-off of its absolute terms; measured <= 4.4e-16
    from mixedbvp.nonlinear import _SplitDerivatives

    g = make_grid(n, n)
    for pair in (manufactured_curvature_pair, manufactured_darboux_pair):
        z_star, _ = pair(g, RHO)
        split = _SplitDerivatives(Field(g, z_star.values + _perturbation(g).values))
        d = 1e-3 * np.random.default_rng(n).standard_normal(g.shape)
        for dv in (0.0, d):
            got = split.at(dv)
            ref, scale = _stencil_composition(split, dv)
            assert got.keys() == ref.keys()
            for key in ref:
                assert got[key].shape == g.shape and got[key].flags.c_contiguous, key
                err = (np.abs(got[key] - ref[key]) / scale[key]).max()
                assert err <= 1e-13, (key, err)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_split_derivatives_reject_a_non_finite_iterate(bad):
    from mixedbvp.grid import GridError
    from mixedbvp.nonlinear import _SplitDerivatives

    g = make_grid(32, 32)
    z_star, _ = manufactured_curvature_pair(g, RHO)
    d = np.zeros(g.shape)
    d[5, 7] = bad
    with pytest.raises(GridError, match="non-finite"):
        _SplitDerivatives(z_star).at(d)


def test_derivative_matrices_are_shared_per_grid():
    from mixedbvp import nonlinear, operators
    from mixedbvp.grid import stencil_matrix

    # built once: the ma solve's seam split builds them, and the darboux
    # solve's split and every step's product (_step_product) read them;
    # the step's band reads its record, whose (2, 5) stencil parts both
    # solves share (operators._table)
    nonlinear._derivative_matrices.cache_clear()
    operators._table.cache_clear()
    stencil_matrix.cache_clear()
    steps = sum(_cli_solve(solve, 32)[1].iterations for solve in ("ma", "darboux"))
    info = nonlinear._derivative_matrices.cache_info()
    assert (info.misses, info.hits) == (1, 1 + steps)
    assert operators._table.cache_info().misses == 1
    # the walled y-stencils of both orders on 33 nodes, the periodic
    # x-stencils of both orders on 32 (the seam split's), and the walled
    # first-order x-stencil on 32 that darboux's Christoffel symbols add
    assert stencil_matrix.cache_info().misses == 5
    small = nonlinear._derivative_matrices(make_grid(32, 32))
    large = nonlinear._derivative_matrices(make_grid(48, 48))
    assert nonlinear._derivative_matrices.cache_info().misses == 2
    assert small is not large
    assert [m.shape for m in small] == [(64, 32), (66, 33), (33, 33), (32, 32), (33, 33)]
    assert [m.shape for m in large] == [(96, 48), (98, 49), (49, 49), (48, 48), (49, 49)]


def test_metric_geometry_and_seam_weights_are_built_once(monkeypatch):
    # two darboux solves in one curved metric on one grid: the metric
    # builds its Christoffel symbols once, and the grid its four seam
    # weights (value and slope, from each side) once; each equals a
    # fresh computation
    from mixedbvp import nonlinear

    g = make_grid(32, 32)
    z_star, K = manufactured_darboux_pair(g, RHO)
    fx, fy = graph_dx(z_star).values, graph_dy(z_star).values
    h = MetricData(Field(g, 1.0 + fx**2), Field(g, fx * fy), Field(g, 1.0 + fy**2))
    christoffel, weights = nonlinear.christoffel_symbols, nonlinear._stencil_weights
    calls = {"christoffel": 0, "weights": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(nonlinear, "christoffel_symbols", counted("christoffel", christoffel))
    monkeypatch.setattr(nonlinear, "_stencil_weights", counted("weights", weights))
    nonlinear._seam_weights.cache_clear()
    z0 = GraphSurface(Field(g, z_star.values + _perturbation(g).values), RHO)
    reports = [solve_darboux(K, h, z0, NonlinearParams(max_iter=3)) for _ in range(2)]
    assert calls == {"christoffel": 1, "weights": 4}
    assert reports[0].residual_history == reports[1].residual_history

    fresh = (h.inverse(), christoffel(h), h.det())
    cached = h.geometry
    assert all(np.array_equal(a, b) for a, b in zip(cached[0], fresh[0]))
    assert all(np.array_equal(a, b) for a, b in zip(cached[1], fresh[1]))
    assert np.array_equal(cached[2], fresh[2])
    assert any(np.abs(gamma).max() > 0.1 for gamma in cached[1])  # the metric is curved
    nodes = np.arange(-7, 0), np.arange(7)
    fresh_weights = [weights(side * g.hx, k) for side in nodes for k in (0, 1)]
    cached_weights = nonlinear._seam_weights(g)
    assert all(np.array_equal(a, b) for a, b in zip(cached_weights, fresh_weights, strict=True))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_picard_residual_is_the_public_residual(n):
    # Picard evaluates the shared residuals on the seam-split derivatives;
    # away from the seam they agree with the public residuals, which use
    # one-sided graph stencils
    from mixedbvp.nonlinear import _curvature, _darboux, _SplitDerivatives, christoffel_symbols

    g = make_grid(n, n)
    inner = np.abs(g.x) <= 0.5
    h = flat_metric(g)
    for pair in (manufactured_curvature_pair, manufactured_darboux_pair):
        z_star, K = pair(g, RHO)
        z0 = GraphSurface(Field(g, z_star.values + _perturbation(g).values), RHO)
        dv = _SplitDerivatives(z0.z).at(0)
        if pair is manufactured_curvature_pair:
            picard = _curvature(dv, K)
            public = curvature_residual(z0, K).values
        else:
            picard = _darboux(dv, K, h.inverse(), christoffel_symbols(h), h.det())
            public = darboux_residual(z0, K, h).values
        assert np.abs(picard - public)[inner].max() <= 1e-11
