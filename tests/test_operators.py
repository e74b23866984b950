from dataclasses import replace

import numpy as np
import pytest

from mixedbvp.coeffs import PRESET_NAMES, CoefficientSet, preset_coefficients
from mixedbvp.grid import Field, inner_product, l2_norm, make_grid
from mixedbvp.multiplier import MultiplierTriple, build_abc
from mixedbvp.operators import (
    AuxNonContractionError,
    StencilL,
    TransportError,
    _oblique_row,
    adjoint_defect,
    apply_L,
    apply_Lstar,
    assemble_L,
    aux_equation_residual,
    aux_solve_report,
    transport_solve,
)

PI = np.pi


def poly_profile(Y):
    return 1.0 + Y - Y**2 - Y**3  # (1 - y)(1 + y)^2


def test_apply_matches_analytic_tricomi():
    errs = []
    for n in (32, 64):
        g = make_grid(n, n)
        cs = preset_coefficients("tricomi", g, 0.01, 0.02)
        u = Field.from_function(g, lambda X, Y: np.sin(PI * X) * poly_profile(Y))
        X, Y = g.meshes()
        exact = cs.eps * Y * (-PI**2 * np.sin(PI * X) * poly_profile(Y)) + np.sin(
            PI * X
        ) * (-2.0 - 6.0 * Y)
        errs.append(np.abs(apply_L(cs, u).values - exact).max())
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_apply_zero_field():
    g = make_grid(16, 16)
    cs = preset_coefficients("tricomi", g, 0.01, 0.02)
    assert np.all(apply_L(cs, Field.zeros(g)).values == 0.0)


def test_apply_matches_tricomi_operator_at_unit_scale():
    # eps near 1 makes the interior stencil the plain y*u_xx + u_yy operator
    errs = []
    for n in (32, 64):
        g = make_grid(n, n)
        eps = 1.0 - 1e-12
        cs = preset_coefficients("tricomi", g, eps, 0.02)
        bump = lambda Y: np.exp(-6 * Y**2) * (1 - Y**2) ** 2
        u = Field.from_function(g, lambda X, Y: np.sin(PI * X) * bump(Y))
        X, Y = g.meshes()
        e = np.exp(-6 * Y**2)
        q = (1 - Y**2) ** 2
        bpp = e * (
            (144 * Y**2 - 12) * q
            + 96 * Y**2 * (1 - Y**2)
            + (12 * Y**2 - 4)
        )
        exact = eps * Y * (-PI**2) * np.sin(PI * X) * e * q + np.sin(PI * X) * bpp
        interior = np.abs(apply_L(cs, u).values - exact)[:, 1:-1]
        errs.append(interior.max())
    assert np.log2(errs[0] / errs[1]) >= 1.8


def _coo_assemble_L(cs):
    # the COO assembly that L's first storage used, with the stencil
    # weights written out as it formed them: the oracle for assemble_L
    import scipy.sparse as sp

    g = cs.grid
    nx, nyp = g.shape
    hx, hy, eps = g.hx, g.hy, cs.eps

    def idx(i, j):
        return (i % nx) * nyp + j

    I, J = np.meshgrid(np.arange(nx), np.arange(1, nyp - 1), indexing="ij")
    I, J = I.ravel(), J.ravel()
    K, A, B = (c.values[I, J] for c in (cs.K, cs.A, cs.B))
    centre = idx(I, J)
    ii = np.arange(nx)
    half = cs.alpha / (2 * hx)
    dy = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0 / hy
    entries = [
        (centre, idx(I + 1, J), eps * K / hx**2 + eps * A / (2 * hx)),
        (centre, idx(I - 1, J), eps * K / hx**2 - eps * A / (2 * hx)),
        (centre, idx(I, J + 1), 1.0 / hy**2 + eps * B / (2 * hy)),
        (centre, idx(I, J - 1), 1.0 / hy**2 - eps * B / (2 * hy)),
        (centre, centre, -2.0 * eps * K / hx**2 - 2.0 / hy**2),
        (idx(ii, nyp - 1), idx(ii, nyp - 1), np.ones(nx)),
        (idx(ii, 0), idx(ii + 1, 0), np.full(nx, half)),
        (idx(ii, 0), idx(ii - 1, 0), np.full(nx, -half)),
    ] + [(idx(ii, 0), idx(ii, k), np.full(nx, dy[k])) for k in range(4)]
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    return sp.coo_matrix((vals, (rows, cols)), shape=(nx * nyp, nx * nyp)).tocsr()


@pytest.mark.parametrize("preset", ["tricomi", "lower_order"])
@pytest.mark.parametrize("n", [16, pytest.param((47, 48), id="47x48"), 64])
def test_fourth_order_record_matches_its_kronecker_oracle(preset, n):
    # a fourth-order L as a record, with no code of its own: its parts are
    # the 5-point entries of the stencil table (operators._table), along x
    # eps*K*d_xx and eps*A*d_x with their symbols, along y d_yy and
    # eps*B*d_y, one part per y-offset with its weights per y-row, the
    # near rows included, each coefficient one value per node and zero on
    # the wall rows, and today's wall rows.  Its product is the Kronecker
    # form from grid.stencil_matrix on rows 1..ny-1 to round-off (measured
    # <= 3.0e-16 of max|L u|), its rows 0 and ny the wall rows', and
    # assemble_L's product bit for bit
    import scipy.sparse as sp

    from mixedbvp.grid import _denominator, stencil_matrix
    from mixedbvp.operators import Lines, Rows, _bottom_ux, _table, _wall_lines

    g = make_grid(*n) if isinstance(n, tuple) else make_grid(n, n)
    cs = preset_coefficients(preset, g, 1e-2, 0.2)
    inner = np.ones(g.ny + 1)
    inner[[0, -1]] = 0.0
    K, A, B = (cs.eps * c.values * inner for c in (cs.K, cs.A, cs.B))
    every = slice(None)
    x = [(every, c, *_table(key, g)[:2]) for c, key in ((K, (2, 5)), (A, (1, 5)))]
    lines = [(every, c * w, s) for c, key in ((np.ones(g.shape) * inner, (2, 5)), (B, (1, 5)))
             for on, w, s in _table(key, g)[2].parts if on == every]
    op = Rows(g, (*x, _bottom_ux(g, cs.alpha)), Lines(g, (*lines, *_wall_lines(g))))

    def line(key, m, h, walled):
        return sp.csr_matrix(stencil_matrix(key, m, walled).toarray() / _denominator(key, h))

    u = np.random.default_rng(g.nx).standard_normal(g.shape)
    ref = (K * (line((2, 5), g.nx, g.hx, False) @ u) + A * (line((1, 5), g.nx, g.hx, False) @ u)
           + (line((2, 5), g.ny + 1, g.hy, True) @ u.T).T
           + B * (line((1, 5), g.ny + 1, g.hy, True) @ u.T).T)
    out = StencilL(op) @ u
    scale = np.abs(ref[:, 1:-1]).max()
    assert np.abs(out - ref)[:, 1:-1].max() <= 1e-13 * scale
    assert np.abs(out[:, 0] - _oblique_row(u, cs.alpha, 1.0, g)).max() <= 1e-13 * scale
    assert np.array_equal(out[:, -1], u[:, -1])
    assert np.array_equal(out.ravel().view(np.int64), (assemble_L(op) @ u.ravel()).view(np.int64))


def _picard_normal_form(g, alpha):
    # K constant in x, A = 0.3*K and B = 0: each coefficient is one x-line
    K = Field(g, np.broadcast_to(4.0 * g.y, g.shape).copy())
    return CoefficientSet(K, Field(g, 0.3 * K.values), Field.zeros(g), 0.25, alpha)


@pytest.mark.parametrize("alpha", [0.0, 0.02, 1.2])
@pytest.mark.parametrize(
    "n",
    [16, 64, 128, 256, pytest.param((47, 48), id="47x48"), pytest.param((48, 32), id="48x32")],
)
@pytest.mark.parametrize("kind", ["tricomi", "lower_order", "picard"])
def test_assembled_matrix_equals_coo_assembly(kind, n, alpha):
    # square grids, an odd nx, and a grid longer in x than in y
    g = make_grid(*n) if isinstance(n, tuple) else make_grid(n, n)
    if kind == "picard":
        cs = _picard_normal_form(g, alpha)  # K and A constant along x, B zero
    else:
        cs = preset_coefficients(kind, g, 1e-4, alpha)
    mat, ref = assemble_L(cs), _coo_assemble_L(cs)
    # the product adds each row's terms in column order, as the oracle's
    # CSR product does, so bit for bit, on fields of several scales
    rng = np.random.default_rng(g.nx * g.ny)
    for scale in (1e-3, 1.0, 1e4):
        u = scale * rng.standard_normal(g.nx * (g.ny + 1))
        assert np.array_equal((mat @ u).view(np.int64), (ref @ u).view(np.int64))
    if max(g.nx, g.ny) <= 48:
        assert np.array_equal(mat.toarray(), ref.toarray())


@pytest.mark.parametrize("alpha", [0.0, 0.02, 1.2, 1e50])
@pytest.mark.parametrize("n", [16, pytest.param((47, 48), id="47x48"), 96, 128])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_stencil_product_equals_assembled_product(preset, n, alpha):
    # StencilL adds each row's terms from zero in the order of their
    # columns, as the product of the stored diagonals does, so bit for
    # bit on every row, walls included, for u flat or in the grid's shape
    g = make_grid(*n) if isinstance(n, tuple) else make_grid(n, n)
    cs = preset_coefficients(preset, g, 1e-4, alpha)
    mat, stencil = assemble_L(cs), StencilL(cs)
    rng = np.random.default_rng(g.nx * g.ny)
    for scale in (1e-3, 1.0, 1e4):
        u = scale * rng.standard_normal(g.shape)
        ref = (mat @ u.ravel()).view(np.int64)
        assert np.array_equal((stencil @ u).ravel().view(np.int64), ref)
        assert np.array_equal((stencil @ u.ravel()).view(np.int64), ref)


def test_matrix_matches_apply_on_interior_rows():
    g = make_grid(24, 24)
    cs = preset_coefficients("lower_order", g, 0.01, 0.02)
    rng = np.random.default_rng(3)
    u = Field(g, rng.standard_normal(g.shape))
    mv = (assemble_L(cs) @ u.values.ravel()).reshape(g.shape)
    av = apply_L(cs, u).values
    assert np.abs(mv[:, 1:-1] - av[:, 1:-1]).max() < 1e-10


def _four_term_L(cs, u):
    # apply_L's formula with every term, zero coefficients included
    from mixedbvp.grid import _apply_x, _apply_y

    g, v = cs.grid, u.values
    return (
        cs.eps * cs.K.values * _apply_x((2, 3), v, g.hx)
        + _apply_y((2, 3), v, g.hy)
        + cs.eps * cs.A.values * _apply_x((1, 3), v, g.hx)
        + cs.eps * cs.B.values * _apply_y((1, 3), v, g.hy)
    )


@pytest.mark.parametrize("preset", ["tricomi", "normal_form", "lower_order"])
def test_apply_L_sums_every_term(preset):
    g = make_grid(32, 24)
    if preset == "normal_form":
        # A = 0*K holds -0.0 where K < 0
        K = preset_coefficients("tricomi", g, 0.01, 0.02).K
        cs = CoefficientSet(K, Field(g, 0.0 * K.values), Field.zeros(g), 0.01, 0.02)
        assert np.signbit(cs.A.values).any()
    else:
        cs = preset_coefficients(preset, g, 0.01, 0.02)
    u = Field(g, np.random.default_rng(5).standard_normal(g.shape))
    # zero terms included, so bit for bit, the signs of zeros too
    out, ref = apply_L(cs, u).values, _four_term_L(cs, u)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("preset", ["lower_order", "wedge"])
def test_mode_systems_average_over_x(preset):
    # an x-dependent set gets the mode systems of its x-averaged copy, not of one row
    from mixedbvp.operators import _L_rows
    from mixedbvp.solver import _mode_band, _mode_problem

    g = make_grid(16, 16)
    cs = preset_coefficients(preset, g, 0.01, 0.02)
    K, A, B = (
        Field(g, np.broadcast_to(c.values.mean(axis=0), g.shape)) for c in (cs.K, cs.A, cs.B)
    )
    averaged = CoefficientSet(K, A, B, cs.eps, cs.alpha)
    own, _, own_folds = _mode_band(*_mode_problem(_L_rows(cs, mean=True)))
    avg, _, avg_folds = _mode_band(*_mode_problem(_L_rows(averaged, mean=True)))
    assert np.array_equal(own, avg)
    for (*at, m), (*avg_at, avg_m) in zip(own_folds, avg_folds, strict=True):
        assert at == avg_at and np.array_equal(m, avg_m)


def test_boundary_rows_kill_compatible_field():
    # (1 - y)(1 + y)^2 sin(pi x) satisfies both rows for every alpha
    g = make_grid(64, 64)
    for alpha in (0.0, 0.02, 0.5):
        cs = preset_coefficients("tricomi", g, 0.01, alpha)
        u = Field.from_function(g, lambda X, Y: np.sin(PI * X) * poly_profile(Y))
        top, bottom = u.values[:, -1], _oblique_row(u.values, alpha, 1.0, g)
        assert np.abs(top).max() == 0.0
        assert np.abs(bottom).max() < 5e-3  # truncation of the one-sided row
        mv = (assemble_L(cs) @ u.values.ravel()).reshape(g.shape)
        assert np.abs(mv[:, 0] - bottom).max() < 1e-12


def test_adjoint_reductions():
    g = make_grid(24, 24)
    z = Field.zeros(g)
    u = Field(g, np.random.default_rng(11).standard_normal(g.shape))
    # constant K, and Tricomi (K_x = K_xx = 0): formally self adjoint, so
    # L and L* agree at every node up to the round-off of the discrete
    # K_x (4.4e-16 for the constant 0.7, not 0)
    cs_const = CoefficientSet(Field.constant(g, 0.7), z, z, 0.01, 0.02)
    cs_tri = preset_coefficients("tricomi", g, 0.01, 0.02)
    for cs in (cs_const, cs_tri):
        Lu = apply_L(cs, u).values
        assert np.abs(Lu - apply_Lstar(cs, u).values).max() <= 1e-14 * np.abs(Lu).max()


def test_adjoint_zero_order_reduction_with_matching_A():
    # A = K_x, B = 0: first-order x-coefficient reduces to eps*K_x exactly,
    # zeroth-order coefficient eps*(K_xx - A_x) only up to the stencil
    # mismatch between the direct second difference and two first passes
    g = make_grid(32, 32)
    K = Field.from_function(g, lambda X, Y: Y + 0.3 * np.sin(PI * X))
    from mixedbvp.grid import differentiate

    A = differentiate(K, "x", 1)
    cs = CoefficientSet(K, A, Field.zeros(g), 0.01, 0.02)
    first_x, first_y, zero_order = cs.adjoint_pieces
    assert np.abs(first_x - A.values).max() < 1e-12
    assert np.abs(first_y).max() == 0.0
    assert np.abs(zero_order).max() < cs.eps * 10.0 * g.hx**2


def test_adjoint_defect_interior_pairs():
    defects = []
    for n in (32, 64, 128):
        g = make_grid(n, n)
        cs = preset_coefficients("lower_order", g, 0.01, 0.02)
        u = Field.from_function(
            g, lambda X, Y: np.sin(2 * PI * X) * poly_profile(Y)
        )
        v = Field.from_function(g, lambda X, Y: np.cos(PI * X) * (1 - Y**2))
        defects.append(abs(adjoint_defect(cs, u, v)))
    orders = [np.log2(defects[i] / defects[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_adjoint_defect_zero_fields():
    g = make_grid(16, 16)
    cs = preset_coefficients("tricomi", g, 0.01, 0.02)
    assert adjoint_defect(cs, Field.zeros(g), Field.zeros(g)) == 0.0


def test_adjoint_defect_bc_pairs():
    from mixedbvp.solver import _enforce_boundary

    defects = []
    for n in (32, 64, 128):
        g = make_grid(n, n)
        cs = preset_coefficients("lower_order", g, 0.01, 0.02)
        X, Y = g.meshes()
        ub = (np.sin(PI * X) + 0.4 * np.cos(2 * PI * X)) * (1 - Y) * (1 + 0.3 * Y)
        vb = (np.cos(PI * X) - 0.3 * np.sin(2 * PI * X)) * (1 - Y) * (0.8 - 0.2 * Y)
        u = _enforce_boundary(g, ub, cs.alpha, +1.0)
        v = _enforce_boundary(g, vb, cs.alpha, -1.0)
        defects.append(abs(adjoint_defect(cs, u, v)))
    orders = [np.log2(defects[i] / defects[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def test_transport_plain_integration_exact():
    g = make_grid(64, 64)
    one = Field.constant(g, 1.0)
    zero = Field.zeros(g)
    w = transport_solve(zero, one, zero, one)
    Y = g.meshes()[1]
    assert np.abs(w.values - (Y - 1.0)).max() < 1e-14


def test_transport_exponential_decay_second_order():
    errs = []
    for n in (64, 128):
        g = make_grid(n, n)
        one = Field.constant(g, 1.0)
        w = transport_solve(Field.zeros(g), one, one, one)
        Y = g.meshes()[1]
        errs.append(np.abs(w.values - (1.0 - np.exp(1.0 - Y))).max())
    assert np.log2(errs[0] / errs[1]) >= 1.9


def _characteristic_case(g, a, profile):
    """The right-hand side of w = profile(x - a*(y - 1))*(1 - y), and that w.

    Along dx/dy = a the first factor is constant, so a*w_x + w_y is
    -profile(x - a*(y - 1)), and w(x, 1) = 0.
    """
    X, Y = g.meshes()
    carried = profile(PI * (X - a * (Y - 1.0)))
    return Field(g, -carried), carried * (1.0 - Y)


def test_transport_characteristics_with_top_data():
    # the data ride the characteristics from the right-hand side; w(x, 1) = 0
    g = make_grid(64, 64)
    one = Field.constant(g, 1.0)
    rhs, exact = _characteristic_case(g, 1.0, np.sin)
    w = transport_solve(one, one, Field.zeros(g), rhs)
    assert np.abs(w.values - exact).max() < 1e-8


def test_transport_constant_along_characteristics():
    # generic slope: data constant along dx/dy = a stays constant
    g = make_grid(96, 96)
    a = Field.constant(g, 0.37)
    one = Field.constant(g, 1.0)
    rhs, exact = _characteristic_case(g, 0.37, np.cos)
    w = transport_solve(a, one, Field.zeros(g), rhs)
    assert np.abs(w.values - exact).max() < 5e-4  # cubic interpolation per step


def test_transport_rejects_bad_b():
    g = make_grid(16, 16)
    zero = Field.zeros(g)
    one = Field.constant(g, 1.0)
    with pytest.raises(TransportError):
        transport_solve(zero, zero, zero, one)
    with pytest.raises(TransportError):
        transport_solve(zero, Field.from_function(g, lambda X, Y: Y), zero, one)


# the per-row semi-Lagrangian march that TransportPlan replaced, kept as
# the oracle: same arithmetic in the same order, one row at a time

def _interp_periodic(row, pos, hx):
    nx = row.shape[0]
    t = (pos + 1.0) / hx
    i1 = np.floor(t).astype(int)
    s = t - i1
    w_m1 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w_0 = (s * s - 1.0) * (s - 2.0) / 2.0
    w_p1 = -s * (s + 1.0) * (s - 2.0) / 2.0
    w_p2 = s * (s * s - 1.0) / 6.0
    return (
        w_m1 * row[(i1 - 1) % nx]
        + w_0 * row[i1 % nx]
        + w_p1 * row[(i1 + 1) % nx]
        + w_p2 * row[(i1 + 2) % nx]
    )


def _row_march(a, b, c, rhs, w_known=None):
    """Per-row march; with w_known, the recurrence residual at it instead."""
    g = a.grid
    at, ct, rt = a.values / b.values, c.values / b.values, rhs.values / b.values
    hx, hy, x = g.hx, g.hy, g.x
    beta = 0.5 * hy
    w = np.empty(g.shape) if w_known is None else w_known.values
    res = np.zeros(g.shape)
    if w_known is None:
        w[:, -1] = 0.0
    for j in range(g.ny - 1, -1, -1):
        k1 = at[:, j]
        k2 = _interp_periodic(at[:, j + 1], x + hy * k1, hx)
        foot = x + beta * (k1 + k2)
        wf = _interp_periodic(w[:, j + 1], foot, hx)
        cf = _interp_periodic(ct[:, j + 1], foot, hx)
        rf = _interp_periodic(rt[:, j + 1], foot, hx)
        if w_known is None:
            w[:, j] = (wf * (1.0 + beta * cf) - beta * (rt[:, j] + rf)) / (
                1.0 - beta * ct[:, j]
            )
        else:
            res[:, j] = (
                w[:, j] * (1.0 - beta * ct[:, j]) - wf * (1.0 + beta * cf) + beta * (rt[:, j] + rf)
            ) / hy
    return w if w_known is None else res


class _RowMarchPlan:
    """Stands in for TransportPlan inside aux_solve_report."""

    def __init__(self, a, b, c):
        self.abc = (a, b, c)

    def solve(self, rhs):
        return Field(rhs.grid, _row_march(*self.abc, rhs))


def _lower_order_case(n, negate_b=False):
    g = make_grid(n, n)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    b = Field(g, -mt.b.values) if negate_b else mt.b
    rng = np.random.default_rng(n)
    rhs = Field(g, rng.standard_normal(g.shape))
    return g, mt, b, rhs


@pytest.mark.parametrize("n,negate_b", [(32, False), (64, False), (64, True), (128, False)])
def test_transport_plan_matches_row_march(n, negate_b):
    # the back-substitution sums each row in another order than the march
    g, mt, b, rhs = _lower_order_case(n, negate_b)
    oracle = _row_march(mt.a, b, mt.c, rhs)
    w = transport_solve(mt.a, b, mt.c, rhs).values
    assert np.abs(w - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("n", [32, 64])
def test_aux_solve_report_matches_row_march(n, monkeypatch):
    from mixedbvp import operators
    from mixedbvp.solver import random_smooth_samples

    g, mt, _, _ = _lower_order_case(n)
    v = random_smooth_samples(g, 0.02, 1, seed=n)[0]
    fast = aux_solve_report(v, mt)
    monkeypatch.setattr(operators, "TransportPlan", _RowMarchPlan)
    # a fresh triple, whose plan is built from the patched class
    oracle_mt = replace(mt)
    slow = aux_solve_report(v, oracle_mt)
    assert isinstance(oracle_mt.transport_plan, _RowMarchPlan)
    assert fast.iterations == slow.iterations > 1
    assert np.abs(fast.u.values - slow.u.values).max() <= 1e-12 * np.abs(slow.u.values).max()


@pytest.mark.parametrize("preset", ["lower_order", "tricomi"])
@pytest.mark.parametrize("m", [0, 1])
def test_energy_certificate_matches_row_march(preset, m, monkeypatch):
    from mixedbvp import operators, solver

    g = make_grid(64, 64)
    cs = preset_coefficients(preset, g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, m)
    vs = solver.random_smooth_samples(g, cs.alpha, 4, seed=17)
    _, fast = solver.energy_certificate(cs, mt, vs)
    monkeypatch.setattr(operators, "TransportPlan", _RowMarchPlan)
    oracle_mt = replace(mt)
    _, slow = solver.energy_certificate(cs, oracle_mt, vs)
    assert isinstance(oracle_mt.transport_plan, _RowMarchPlan)
    for f, s in zip(fast, slow, strict=True):
        assert abs(f.ratio - s.ratio) <= 1e-12 * abs(s.ratio)
        assert f.dual_constant == s.dual_constant
        assert f.aux_iterations == s.aux_iterations


@pytest.mark.parametrize("negate_b", [False, True])
def test_transport_plan_factor_has_no_fill(negate_b):
    # the march matrix is triangular, so its LU in the natural order is
    # the matrix itself plus a unit diagonal; an ordering that pivots or
    # permutes would bring fill back
    from mixedbvp.operators import TransportPlan

    g, mt, b, _ = _lower_order_case(64, negate_b)
    plan = TransportPlan(mt.a, b, mt.c)
    n = g.nx * (g.ny + 1)
    assert plan._lu.L.nnz + plan._lu.U.nnz == plan.march.nnz + n
    assert plan.stats["lu_nnz"] == plan.march.nnz + n
    assert plan.stats["factor_s"] >= 0.0


@pytest.mark.parametrize("negate_b", [False, True])
def test_transport_plan_residual_matches_row_loop(negate_b):
    from mixedbvp.operators import TransportPlan

    g, mt, b, rhs = _lower_order_case(64, negate_b)
    w = Field(g, np.random.default_rng(5).standard_normal(g.shape))
    oracle = _row_march(mt.a, b, mt.c, rhs, w_known=w)
    res = TransportPlan(mt.a, b, mt.c).residual(rhs, w).values
    assert np.abs(res - oracle).max() <= 1e-14 * np.abs(oracle).max()


# ---------------------------------------------------------------------------
# auxiliary problem
# ---------------------------------------------------------------------------

def _mt(g, a, c, lam, m):
    one = Field.constant(g, 1.0)
    return MultiplierTriple(a, one, c, one, lam, m)


def test_aux_m0_is_single_transport():
    g = make_grid(32, 32)
    mt = _mt(g, Field.zeros(g), Field.constant(g, -1.0), 10.0, 0)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    rep = aux_solve_report(v, mt)
    assert rep.iterations == 1 and rep.converged
    direct = transport_solve(mt.a, mt.b, mt.c, v).values
    # u is recovered from w's spectrum, as for every m: irfft(rfft(w))
    assert np.abs(rep.u.values - direct).max() <= 1e-15 * np.abs(direct).max()


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("preset", ["tricomi", "chaplygin", "infinite_order"])
def test_aux_x_independent_multiplier_takes_one_pass(preset, m, n):
    # a is constant in x, so every d_x^l a is exactly zero and a second
    # pass would transport the same right-hand side
    from mixedbvp.operators import _coupling_rhs, _to_physical
    from mixedbvp.solver import random_smooth_samples

    g = make_grid(n, n)
    mt = build_abc(preset_coefficients(preset, g, 1e-4, 0.02), 1.0, m, require_alpha=False)
    v = random_smooth_samples(g, 0.02, 1, seed=n + m)[0]
    rep = aux_solve_report(v, mt)
    cf = mt.coupling
    assert not cf.couples and all(not da.any() for da in cf.da)
    assert rep.iterations == 1 and rep.converged
    assert len(rep.increments) == 1 and rep.ratios == []
    spec = np.fft.rfft(rep.w.values, axis=0) / cf.denom
    w2 = mt.transport_plan.solve(Field(g, v.values - _coupling_rhs(spec, cf, g)))
    u2 = _to_physical(np.fft.rfft(w2.values, axis=0) / cf.denom, g)
    assert np.array_equal(rep.u.values, u2)
    assert aux_equation_residual(rep, v, mt) <= 1e-13


def _fft_coupled_u(v, mt):
    # the auxiliary u when d_x^l a is taken by FFT whatever a is: the
    # passes run until the increment test stops them
    from mixedbvp.grid import mode_power, rfft_part_weights
    from mixedbvp.operators import AUX_TOL, _to_physical, _wavenumbers

    g, cf = v.grid, mt.coupling
    ik = 1j * _wavenumbers(g)[:, None]
    a_spec = np.fft.rfft(mt.a.values, axis=0)
    da = [_to_physical(a_spec * ik**l, g) for l in range(1, mt.m + 1)]
    spec, rhs, steps = 0.0, v.values, []
    while not steps or steps[-1] > AUX_TOL * steps[0]:
        new = np.fft.rfft(mt.transport_plan.solve(Field(g, rhs)).values, axis=0) / cf.denom
        steps.append(np.sqrt(mode_power(new - spec, g.nx, rfft_part_weights(g)).sum() / g.nx))
        spec = new
        rhs = v.values - sum(d * _to_physical(s * spec, g) for d, s in zip(da, cf.symbols))
    return _to_physical(spec, g), len(steps), max(np.abs(d).max() for d in da)


@pytest.mark.parametrize("n", [(47, 48), (100, 64)])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("preset", ["tricomi", "chaplygin", "infinite_order"])
def test_x_constant_a_takes_one_pass_on_odd_grids(preset, m, n):
    # the FFT leaves round-off in d_x^l a of a constant column at these nx;
    # the per-line test reads a as constant, and one pass is the fixed point
    from mixedbvp.solver import random_smooth_samples

    g = make_grid(*n)
    mt = build_abc(preset_coefficients(preset, g, 1e-4, 0.02), 1.0, m, require_alpha=False)
    v = random_smooth_samples(g, 0.02, 1, seed=m)[0]
    rep = aux_solve_report(v, mt)
    assert not mt.coupling.couples and mt.coupling.da == []
    assert rep.iterations == 1 and rep.converged
    u_fft, passes, da_max = _fft_coupled_u(v, mt)
    assert 0.0 < da_max < 1e-12 and passes == 2
    assert np.abs(rep.u.values - u_fft).max() <= 1e-14 * np.abs(u_fft).max()


@pytest.mark.parametrize("n", [(47, 48), (100, 64)])
@pytest.mark.parametrize("preset", ["wedge", "lower_order"])
def test_x_dependent_a_keeps_its_passes_on_odd_grids(preset, n):
    from mixedbvp.solver import random_smooth_samples

    g = make_grid(*n)
    mt = build_abc(preset_coefficients(preset, g, 1e-4, 0.02), 1.0, 2, require_alpha=False)
    v = random_smooth_samples(g, 0.02, 1, seed=2)[0]
    rep = aux_solve_report(v, mt)
    assert mt.coupling.couples and rep.converged
    u_fft, passes, _ = _fft_coupled_u(v, mt)
    assert rep.iterations == passes > 1
    assert np.abs(rep.u.values - u_fft).max() <= 1e-14 * np.abs(u_fft).max()


def test_aux_per_mode_oracle():
    # a = 0 diagonalizes in x-modes; replicate the scalar recurrence directly
    g = make_grid(64, 64)
    k = 3
    lam = 10.0
    v = Field.from_function(g, lambda X, Y: np.sin(PI * k * X) * (1.0 - Y))
    mt = _mt(g, Field.zeros(g), Field.constant(g, -1.0), lam, 1)
    rep = aux_solve_report(v, mt)
    assert rep.converged

    beta = g.hy / 2.0
    p = 1.0 - g.y
    w = np.zeros(g.ny + 1)
    for j in range(g.ny - 1, -1, -1):
        w[j] = (w[j + 1] * (1.0 - beta) - beta * (p[j] + p[j + 1])) / (1.0 + beta)
    u_profile = w / (1.0 + (PI * k) ** 2 / lam)
    X = g.meshes()[0]
    exact = np.sin(PI * k * X) * u_profile[None, :]
    assert np.abs(rep.u.values - exact).max() <= 1e-8


def test_aux_equation_residual_small():
    g = make_grid(64, 64)
    a = Field.from_function(g, lambda X, Y: 0.5 + 0.3 * np.sin(PI * X))
    mt = _mt(g, a, Field.constant(g, -1.0), 10.0, 1)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * (np.cos(PI * X) + 0.5 * Y))
    rep = aux_solve_report(v, mt)
    assert rep.converged
    assert aux_equation_residual(rep, v, mt) <= 1e-6


@pytest.mark.parametrize("preset", ["tricomi", "lower_order"])
def test_aux_equation_residual_at_the_transported_w(preset):
    # m = 2, lambda = 1 at 256^2: the recovery symbol reaches 2.6e10, so
    # rebuilding w from u read 4.4e-5 to 6.5e-5 for converged solves
    g = make_grid(256, 256)
    mt = build_abc(preset_coefficients(preset, g, 1e-4, 0.02), 1.0, 2, require_alpha=False)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * (0.5 + np.sin(PI * X) - 0.3 * Y))
    rep = aux_solve_report(v, mt)
    assert rep.converged
    assert aux_equation_residual(rep, v, mt) <= 1e-12
    # a w off the fixed point by 1e-6 of its size, in one low mode, still shows
    bump = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    off = replace(rep, w=Field(g, rep.w.values + 1e-6 * np.abs(rep.w.values).max() * bump.values))
    assert aux_equation_residual(off, v, mt) >= 1e-7


def test_aux_lambda_sweep_ratios_decrease():
    g = make_grid(64, 64)
    a = Field.from_function(g, lambda X, Y: 0.5 + 0.3 * np.sin(PI * X))
    c = Field.constant(g, -1.0)
    v = Field.from_function(
        g, lambda X, Y: (1 - Y) * (np.cos(PI * X) + 0.5 * np.sin(2 * PI * X))
    )
    ratios = []
    for lam in (1.0, 10.0, 100.0):
        rep = aux_solve_report(v, _mt(g, a, c, lam, 1))
        assert rep.converged
        ratios.append(rep.contraction_ratio)
    assert ratios[0] > ratios[1] > ratios[2]


def test_aux_top_row_zero_and_flat():
    g = make_grid(48, 48)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    u = aux_solve_report(v, mt).u
    assert np.abs(u.values[:, -1]).max() == 0.0
    uy_top = (3 * u.values[:, -1] - 4 * u.values[:, -2] + u.values[:, -3]) / (2 * g.hy)
    assert np.abs(uy_top).max() <= 10.0 * g.hy * np.abs(v.values).max()


def test_aux_non_contraction_detected():
    # a strongly x-dependent a (amplitude 5 against a mean of 1) refuses to contract
    g = make_grid(48, 48)
    a = Field.from_function(g, lambda X, Y: 1.0 + 5.0 * np.sin(PI * X))
    mt = _mt(g, a, Field.constant(g, -0.5), 1e-2, 2)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    with pytest.raises(AuxNonContractionError) as err:
        aux_solve_report(v, mt, max_iter=60)
    assert err.value.ratio > 1.2


def _scripted_passes(monkeypatch, increments):
    # a coupled 16^2 triple, a sample and the list of passes made, with
    # operators.mode_power patched so that the passes' increments are the
    # scripted ones: it returns each one squared times nx, whose root over
    # nx is exact for powers of 2
    from mixedbvp import operators

    g = make_grid(16, 16)
    a = Field.from_function(g, lambda X, Y: 1.0 + 0.5 * np.sin(PI * X))
    mt = _mt(g, a, Field.constant(g, -0.5), 10.0, 1)
    assert mt.coupling.couples
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    script, passes = iter(increments), []

    def scripted(step, nx, weights):
        passes.append(step)
        return np.array([next(script) ** 2 * nx])

    monkeypatch.setattr(operators, "mode_power", scripted)
    return v, mt, passes


def test_aux_stops_at_aux_tol_times_the_first_increment(monkeypatch):
    from mixedbvp.operators import AUX_TOL

    # AUX_TOL*4 = 4e-10 lies between 2^-32 (2.3e-10) and 2^-31 (4.7e-10)
    assert 2.0**-32 <= AUX_TOL * 4.0 < 2.0**-31
    v, mt, passes = _scripted_passes(monkeypatch, [4.0, 2.0**-31, 2.0**-32, 1.0])
    rep = aux_solve_report(v, mt)
    assert rep.converged and rep.iterations == len(passes) == 3
    assert rep.increments == [4.0, 2.0**-31, 2.0**-32]
    assert rep.ratios == [2.0**-33, 0.5]


def test_aux_raises_on_the_fifth_ratio_of_at_least_one(monkeypatch):
    # ratios 1, 2, 2, 2, 4: the fifth in a row raises, with that ratio
    v, mt, passes = _scripted_passes(monkeypatch, [1.0, 1.0, 2.0, 4.0, 8.0, 32.0, 1.0])
    with pytest.raises(AuxNonContractionError, match=r"increment ratio 4\.000") as err:
        aux_solve_report(v, mt)
    assert err.value.ratio == 4.0 and len(passes) == 6


def test_aux_ratio_below_one_resets_the_count(monkeypatch):
    # four ratios of 2, one of 0.5, then five of 2: the raise comes on the
    # eleventh pass, not the sixth
    increments = [2.0**k for k in range(5)] + [2.0**k for k in range(3, 9)] + [1.0]
    v, mt, passes = _scripted_passes(monkeypatch, increments)
    with pytest.raises(AuxNonContractionError) as err:
        aux_solve_report(v, mt)
    assert err.value.ratio == 2.0 and len(passes) == 11
    # a NaN ratio counts as below 1 too: after it and the ratio-free pass
    # that follows, five ratios of 2 raise on the twelfth pass
    increments = [2.0**k for k in range(5)] + [np.nan] + [2.0**k for k in range(6)] + [1.0]
    v, mt, passes = _scripted_passes(monkeypatch, increments)
    with pytest.raises(AuxNonContractionError) as err:
        aux_solve_report(v, mt)
    assert err.value.ratio == 2.0 and len(passes) == 12


def test_aux_zero_previous_increment_adds_no_ratio(monkeypatch):
    # a zero increment ends the passes unless the first is NaN, which no
    # increment passes against; the pass after the zero one adds no ratio
    v, mt, passes = _scripted_passes(monkeypatch, [np.nan, 0.0, 1.0])
    rep = aux_solve_report(v, mt, max_iter=3)
    assert not rep.converged and rep.iterations == len(passes) == 3
    assert rep.ratios == []


@pytest.mark.parametrize("max_iter", [0, -1])
def test_aux_max_iter_below_one_is_a_value_error(max_iter):
    g = make_grid(16, 16)
    mt = _mt(g, Field.constant(g, 1.0), Field.constant(g, -0.5), 10.0, 0)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    with pytest.raises(ValueError, match=rf"max_iter must be at least 1, got {max_iter}"):
        aux_solve_report(v, mt, max_iter=max_iter)


@pytest.mark.parametrize("lam", [1e-6, 1e-4, 1e-2])
def test_aux_tiny_lambda_converges_below_round_off(lam):
    # near Nyquist u's modes are w's over a symbol of about lam^-2 xi^4;
    # the coupling reads them from the spectrum, so round-off of a
    # physical-space round trip is not multiplied back up into a floor
    g = make_grid(48, 48)
    a = Field.from_function(g, lambda X, Y: 1.0 + 0.9 * np.sin(PI * X))
    mt = _mt(g, a, Field.constant(g, -0.5), lam, 2)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    rep = aux_solve_report(v, mt, max_iter=60)
    assert rep.converged and rep.iterations < 60
    assert rep.increments[-1] <= 1e-10 * rep.increments[0]


@pytest.mark.parametrize("m", [0, 1])
def test_aux_report_stats(m):
    g = make_grid(32, 32)
    mt = build_abc(preset_coefficients("lower_order", g, 1e-4, 0.02), 10.0, m)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    rep = aux_solve_report(v, mt)
    assert set(rep.stats) == {"transport_s", "spectral_s"}
    assert rep.stats["transport_s"] > 0.0
    assert rep.stats["spectral_s"] > 0.0


def _physical_increments(v, mt, passes):
    """The auxiliary passes with each increment measured as before: u taken
    to physical space every pass and l2_norm of the difference."""
    from mixedbvp.operators import _coupling_rhs, _to_physical

    g = v.grid
    cf = mt.coupling
    u_prev, spec, out = np.zeros(g.shape), None, []
    for _ in range(passes):
        rhs = v if spec is None else Field(g, v.values - _coupling_rhs(spec, cf, g))
        spec = np.fft.rfft(mt.transport_plan.solve(rhs).values, axis=0) / cf.denom
        u = _to_physical(spec, g)
        out.append(l2_norm(Field(g, u - u_prev)))
        u_prev = u
    return out, u_prev


def _assert_parseval_increments(v, mt, max_iter=200):
    rep = aux_solve_report(v, mt, max_iter=max_iter)
    physical, u = _physical_increments(v, mt, rep.iterations)
    assert rep.iterations > 1
    diff = np.abs(np.array(rep.increments) - np.array(physical)).max()
    assert diff <= 1e-13 * physical[0]
    assert np.array_equal(rep.u.values, u)


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("preset", ["wedge", "lower_order"])  # a depends on x: passes couple
def test_aux_parseval_increments_match_physical(preset, m, n):
    from mixedbvp.solver import random_smooth_samples

    g = make_grid(n, n)
    mt = build_abc(preset_coefficients(preset, g, 1e-4, 0.02), 1.0, m)
    _assert_parseval_increments(random_smooth_samples(g, 0.02, 1, seed=n + m)[0], mt)


@pytest.mark.parametrize("lam", [1e-6, 1e-4, 1e-2])
def test_aux_parseval_increments_match_physical_tiny_lambda(lam):
    g = make_grid(48, 48)
    a = Field.from_function(g, lambda X, Y: 1.0 + 0.9 * np.sin(PI * X))
    mt = _mt(g, a, Field.constant(g, -0.5), lam, 2)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    _assert_parseval_increments(v, mt, max_iter=60)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_coupling_factors_built_on_first_use_and_kept(m):
    from math import comb

    from mixedbvp.operators import _recovery_denominator, _wavenumbers

    g = make_grid(32, 32)
    mt = build_abc(preset_coefficients("lower_order", g, 1e-4, 0.02), 10.0, m)
    assert "coupling" not in vars(mt)
    v = Field.from_function(g, lambda X, Y: (1 - Y) * np.cos(PI * X))
    rep = aux_solve_report(v, mt)
    assert "coupling" in vars(mt)
    cf = mt.coupling
    assert mt.coupling is cf
    assert cf.couples == (m > 0)  # lower_order's a depends on x
    # d_x^l a taken by one rfft per derivative gives the same bits
    ik = 1j * _wavenumbers(g)[:, None]
    fresh = [np.fft.irfft(np.fft.rfft(mt.a.values, axis=0) * ik**l, n=g.nx, axis=0)
             for l in range(1, m + 1)]
    assert len(cf.da) == len(fresh) == m
    assert all(np.array_equal(c, f) for c, f in zip(cf.da, fresh))
    assert np.array_equal(cf.denom, _recovery_denominator(g, mt.lam, m)[:, None])
    for l, symbol in enumerate(cf.symbols, start=1):
        terms = (comb(s, l) * (-1.0) ** s * mt.lam**-s * ik ** (2 * s - l + 1) for s in range(l, m + 1))
        assert np.array_equal(symbol, sum(terms))
    assert aux_equation_residual(rep, v, mt) <= 1e-10


def test_bottom_dx_overflow_names_alpha():
    # the assembled row and the mode systems weight _BOTTOM_DX through one
    # check, so both raise the one error naming alpha
    from mixedbvp.coeffs import AlphaRangeError
    from mixedbvp.operators import _L_rows
    from mixedbvp.solver import _mode_lu, _mode_problem

    g = make_grid(16, 16)
    cs = preset_coefficients("tricomi", g, 1e-4, 1e308)
    messages = []
    for build in (assemble_L, lambda cs: _mode_lu(*_mode_problem(_L_rows(cs, mean=True)))):
        with pytest.raises(AlphaRangeError, match="alpha = 1e\\+308") as exc:
            build(cs)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def _bottom_ux_readers(preset, alpha, g, u):
    # the bottom row's alpha*u_x as each reader of _BOTTOM_DX forms it
    from mixedbvp import nonlinear, operators, solver
    from mixedbvp.operators import _BOTTOM_DY, _oblique_row

    cs = preset_coefficients(preset, g, 1e-2, alpha)
    assembled = (assemble_L(cs) @ u.ravel()).reshape(g.shape)[:, 0]
    assembled -= u[:, :4] @ _BOTTOM_DY / g.hy
    problems = {
        "mode_systems": solver._mode_problem(operators._L_rows(cs, mean=True)),
        "step_band": solver._mode_problem(nonlinear._step_record(g, 0.25 * g.y, alpha)),
    }
    spec = np.fft.rfft(u[:, 0])
    stencil = (StencilL(cs) @ u)[:, 0] - u[:, :4] @ _BOTTOM_DY / g.hy
    readers = {"assembled": assembled, "stencil": stencil,
               "oblique_row": _oblique_row(u, alpha, 0.0, g)}
    for name, problem in problems.items():
        symbol = _band_symbol(g, *solver._mode_band(*problem))
        readers[name] = np.fft.irfft(symbol * spec, n=g.nx)
    return readers


def _band_symbol(g, band, s, folds):
    # row 0's diagonal is b_dy[0] + the symbol, less each fold of row 0's
    # multiple of its pivot row's entry at column 0 (rows past the band's
    # lower reach kl, the band's last line less its diagonal's, have none)
    from mixedbvp.operators import _BOTTOM_DY

    below = [(by, m) for i, by, m in folds if i == 0 and by <= len(band) - 1 - s]
    entry = band[s, :, 0] + sum(m * band[s + by, :, 0] for by, m in below)
    return entry - _BOTTOM_DY[0] / g.hy


# the one-sided second-order u_x, (3u_i - 4u_(i-1) + u_(i-2))/(2hx): its
# offset 0 shares an entry with u_y's node 0, and its offset -2 wraps on two lines
_ONE_SIDED_DX = ((0, 3.0), (-1, -4.0), (-2, 1.0))


@pytest.mark.parametrize("preset", ["tricomi", "lower_order"])
@pytest.mark.parametrize("alpha", [0.02, 0.2])
def test_oblique_ux_readers_all_read_bottom_dx(monkeypatch, preset, alpha):
    # the assembled row, the stencil product's, _oblique_row and the two
    # mode symbols agree on one random field, under _BOTTOM_DX and under
    # each table put in its place: the doubled weights double all five,
    # and the one-sided table gives its own u_x in all five.  A reader
    # with its own copy of the stencil, or diagonals laid out by hand,
    # would not
    from mixedbvp import operators, solver

    g = make_grid(32, 32)
    u = np.random.default_rng(9).standard_normal(g.shape)
    ref = _bottom_ux_readers(preset, alpha, g, u)
    row, u0 = ref["oblique_row"], u[:, 0]
    tables = {
        "doubled": (tuple((off, 2.0 * w) for off, w in operators._BOTTOM_DX), 2.0 * row),
        "one_sided": (
            _ONE_SIDED_DX,
            alpha * (3.0 * u0 - 4.0 * np.roll(u0, 1) + np.roll(u0, 2)) / (2.0 * g.hx),
        ),
    }
    caches = (operators._bottom_dx_gather, operators._bottom_ux, solver._band_start)
    patched = {}
    for table, (dx, _) in tables.items():
        monkeypatch.setattr(operators, "_BOTTOM_DX", dx)
        try:
            for cache in caches:
                cache.cache_clear()
            patched[table] = _bottom_ux_readers(preset, alpha, g, u)
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()
    # measured <= 3.3e-14 of max|row|, the assembled row's (its u_y terms
    # are subtracted again); under the one-sided table <= 7.7e-15
    for name in ref:
        assert np.abs(ref[name] - row).max() <= 1e-13 * np.abs(row).max(), name
        for table, (_, expect) in tables.items():
            err = np.abs(patched[table][name] - expect).max()
            assert err <= 2e-13 * np.abs(expect).max(), (table, name)
    # the stencil product is the assembled one's, bit for bit, under every table
    for readers in (ref, *patched.values()):
        assert np.array_equal(readers["stencil"], readers["assembled"])