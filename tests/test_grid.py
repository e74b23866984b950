import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedbvp.grid import (
    Field,
    GridError,
    _X_STENCILS,
    _apply_x,
    _apply_y,
    _denominator,
    _l2_norm,
    boundary_integral,
    derivative_st,
    diff_quotient,
    differentiate,
    inner_product,
    l2_norm,
    load_field,
    make_grid,
    save_field,
    stencil_matrix,
    stencil_product,
    strip_inner_product,
    x_symbol,
    x_terms,
)

PI = np.pi


@pytest.mark.parametrize("nx", [4, 5, 128])
def test_three_point_x_stencils_bit_identical_to_roll(nx):
    # the np.roll forms of the table's 3-point stencils, pairs before centre
    rng = np.random.default_rng(nx)
    v = rng.standard_normal((nx, 7))
    hx = 2.0 / nx
    d1 = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * hx)
    d2 = (np.roll(v, -1, axis=0) + np.roll(v, 1, axis=0) + -2.0 * v) / (hx * hx)
    assert np.array_equal(_apply_x((1, 3), v, hx), d1)
    assert np.array_equal(_apply_x((2, 3), v, hx), d2)
    assert np.array_equal(_apply_x((1, 3), v[:, 0], hx), d1[:, 0])


@pytest.mark.parametrize("nx", [5, 6, 64, 128])
def test_five_point_x_stencils_bit_identical_to_roll(nx):
    # the np.roll forms of the table's 5-point stencils, term for term:
    # each pair weighted, the pairs summed, then the centre term
    rng = np.random.default_rng(nx)
    v = rng.standard_normal((nx, 9))
    hx = 2.0 / nx

    def r(k):
        return np.roll(v, k, axis=0)

    d1 = (8.0 * (r(-1) - r(1)) + -1.0 * (r(-2) - r(2))) / (12.0 * hx)
    d2 = (16.0 * (r(-1) + r(1)) + -1.0 * (r(-2) + r(2)) + -30.0 * v) / (12.0 * hx * hx)
    assert np.array_equal(_apply_x((1, 5), v, hx), d1)
    assert np.array_equal(_apply_x((2, 5), v, hx), d2)
    g = make_grid(nx, 8)
    assert np.array_equal(differentiate(Field(g, v), "x", 1).values, d1)
    assert np.array_equal(differentiate(Field(g, v), "x", 2).values, d2)


@pytest.mark.parametrize("nx", [4, 5, 47, 96, 100, 128, 192])
def test_column_constant_field_has_exactly_zero_x_derivatives(nx):
    # pairs first, then the centre: no round-off is left, on any grid
    rng = np.random.default_rng(nx)
    hx = 2.0 / nx
    col = rng.standard_normal(13) * 10.0 ** rng.integers(-3, 4, 13)
    v = np.tile(col, (nx, 1))
    for stencil in _X_STENCILS:
        assert np.all(_apply_x(stencil, v, hx) == 0.0), stencil
    g = make_grid(nx, 12)
    for order in (1, 2):
        assert np.all(differentiate(Field(g, v), "x", order).values == 0.0)


@pytest.mark.parametrize("nx", [47, 128])
def test_each_x_symbol_matches_its_stencil(nx):
    from mixedbvp.operators import _bottom_dx, _oblique_row

    g = make_grid(nx, 8)
    hx = g.hx
    e0 = np.zeros(g.shape)
    e0[0, 0] = 1.0
    cases = {key: (x_terms(key, hx), _apply_x(key, e0[:, 0], hx)) for key in _X_STENCILS}
    # the oblique row's u_x at alpha 1, applied as the row applies it (no u_y)
    cases["_BOTTOM_DX"] = (_bottom_dx(1.0, hx), _oblique_row(e0, 1.0, 0.0, g))
    theta = 2.0 * PI * np.arange(nx // 2 + 1) / nx
    for name, (terms, action) in cases.items():
        sym = x_symbol(terms, nx)
        # the rfft of the stencil's action on e_0, bit for bit
        assert np.array_equal(sym, np.fft.rfft(action)), name
        # and the exponential sum, to round-off
        direct = sum(w * np.exp(1j * off * theta) for off, w in terms)
        assert np.abs(sym - direct).max() <= 1e-15 * np.abs(sym).max(), name


@pytest.mark.parametrize("ny", [4, 5, 64, 128])
def test_three_point_y_stencils_bit_identical_to_slices(ny):
    # inside, the terms from the highest offset down; on the walls, from
    # the wall inward
    v = np.random.default_rng(ny).standard_normal((9, ny + 1))
    hy = 2.0 / ny
    d1, d2 = np.empty_like(v), np.empty_like(v)
    d1[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * hy)
    d1[:, 0] = (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2.0 * hy)
    d1[:, -1] = (3.0 * v[:, -1] - 4.0 * v[:, -2] + v[:, -3]) / (2.0 * hy)
    d2[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (hy * hy)
    d2[:, 0] = (2.0 * v[:, 0] - 5.0 * v[:, 1] + 4.0 * v[:, 2] - v[:, 3]) / (hy * hy)
    d2[:, -1] = (2.0 * v[:, -1] - 5.0 * v[:, -2] + 4.0 * v[:, -3] - v[:, -4]) / (hy * hy)
    assert np.array_equal(_apply_y((1, 3), v, hy), d1)
    assert np.array_equal(_apply_y((2, 3), v, hy), d2)
    g = make_grid(9, ny)
    assert np.array_equal(differentiate(Field(g, v), "y", 1).values, d1)
    assert np.array_equal(differentiate(Field(g, v), "y", 2).values, d2)


@pytest.mark.parametrize("n", [5, 6, 47, 129])
def test_stencil_matrix_rows_are_the_table_weights(n):
    # periodic: the centred row on every node, wrapped; walled: the near
    # rows on the first nodes, mirrored times (-1)**order on the last
    for key, (pairs, centre, near, _) in _X_STENCILS.items():
        sign, k = (-1) ** key[0], len(near)
        periodic = stencil_matrix(key, n, False).toarray()
        walled = stencil_matrix(key, n, True).toarray()
        for i in range(n):
            centred = np.zeros(n)
            for off, w in [(0, centre), *pairs, *((-j, sign * w) for j, w in pairs)]:
                centred[(i + off) % n] += w
            assert np.array_equal(periodic[i], centred), (key, i)
            want = centred if k <= i < n - k else np.zeros(n)
            if i < k:
                want[: len(near[i])] = near[i]
            elif i >= n - k:
                want[n - len(near[n - 1 - i]) :] = sign * np.array(near[n - 1 - i][::-1])
            assert np.array_equal(walled[i], want), (key, i)
        # every row of integer weights sums to exactly zero
        assert np.all(walled.sum(axis=1) == 0) and np.all(periodic.sum(axis=1) == 0)


@pytest.mark.parametrize("n", [5, 6, 48, 129])
def test_line_constant_field_has_zero_y_derivatives(n):
    # inside, the 3-point rows that differentiate applies leave no
    # round-off: c - c, and (c - 2c) + c.  Every other row leaves at most
    # round-off of its absolute terms, sum |w| |c| / denominator
    rng = np.random.default_rng(n)
    col = rng.standard_normal(13) * 10.0 ** rng.integers(-3, 4, 13)
    v = np.tile(col[:, None], (1, n))
    h = 2.0 / (n - 1)
    for key, (pairs, centre, near, _) in _X_STENCILS.items():
        d, k = np.abs(_apply_y(key, v, h)), len(near)
        if key[1] == 3:
            assert np.all(d[:, k : n - k] == 0.0), key
        denominator = _denominator(key, h)
        inner = (abs(centre) + 2 * sum(abs(w) for _, w in pairs)) / denominator
        assert np.all(d[:, k : n - k] <= 1e-15 * inner * np.abs(col)[:, None]), key
        walls = np.concatenate((d[:, :k], d[:, n - k :]), axis=1)
        terms = max(sum(abs(w) for w in row) for row in near) / denominator
        assert np.all(walls <= 1e-15 * terms * np.abs(col)[:, None]), key
        if key[0] == 1:
            assert np.all(walls <= 1e-15 * np.abs(col)[:, None] / h), key


@pytest.mark.parametrize("shape", [(7, 5), (16, 9), (64, 65), (33, 128)])
def test_apply_y_matches_the_stencil_matrix(shape):
    # the same terms in another order (the centred rows from the highest
    # offset down), so each entry agrees to round-off of its absolute terms, as
    # in tests/test_nonlinear.py::test_line_stencils_bit_identical_to_per_row
    v = np.random.default_rng(shape[1]).standard_normal(shape)
    h = 2.0 / (shape[1] - 1)
    for key in _X_STENCILS:
        m = stencil_matrix(key, shape[1], True)
        via_matrix = stencil_product(key, v.T, h, True).T
        terms = (abs(m) @ np.abs(v.T)).T / _denominator(key, h)
        assert np.all(np.abs(_apply_y(key, v, h) - via_matrix) <= 1e-15 * terms), key


@pytest.mark.parametrize("n", [5, 17, 48])
def test_five_point_walled_stencils_exact_on_quartics(n):
    # every row of the 5-point entries, near and far rows included
    g = make_grid(6, n - 1)
    X, Y = g.meshes()
    v = (1.0 + X) * (Y**4 - 2.0 * Y**3 + 0.5 * Y**2 - Y + 3.0)
    exact = {
        1: (1.0 + X) * (4.0 * Y**3 - 6.0 * Y**2 + Y - 1.0),
        2: (1.0 + X) * (12.0 * Y**2 - 12.0 * Y + 1.0),
    }
    for order in (1, 2):
        for d in (_apply_y((order, 5), v, g.hy), stencil_product((order, 5), v.T, g.hy, True).T):
            assert np.abs(d - exact[order]).max() <= 1e-13 * n**order, (order, n)


def test_make_grid_spacings():
    g = make_grid(4, 4)
    assert g.hx == 0.5 and g.hy == 0.5
    assert g.shape == (4, 5)
    g2 = make_grid(64, 64)
    assert g2.hx == g2.hy == 0.03125


def test_grid_endpoints():
    g = make_grid(16, 12)
    assert g.x[0] == -1.0
    assert g.y[-1] == 1.0
    assert g.y[0] == -1.0
    # seam column not duplicated
    assert g.x[-1] == pytest.approx(1.0 - g.hx)


def test_make_grid_rejects_degenerate():
    with pytest.raises(GridError):
        make_grid(3, 8)
    with pytest.raises(GridError):
        make_grid(8, 2)


def test_field_shape_and_finiteness():
    g = make_grid(8, 8)
    with pytest.raises(GridError):
        Field(g, np.zeros((8, 8)))
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(GridError):
        Field(g, bad)


def test_differentiate_constant_is_zero():
    g = make_grid(32, 32)
    c = Field.constant(g, 3.7)
    assert np.abs(differentiate(c, "x", 1).values).max() < 1e-13


def test_differentiate_x_observed_order():
    errs = []
    for n in (32, 64):
        g = make_grid(n, n)
        u = Field.from_function(g, lambda X, Y: np.sin(PI * X))
        exact = Field.from_function(g, lambda X, Y: PI * np.cos(PI * X))
        errs.append(np.abs(differentiate(u, "x", 1).values - exact.values).max())
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_differentiate_y2_second_derivative_exact():
    g = make_grid(16, 16)
    u = Field.from_function(g, lambda X, Y: Y**2)
    assert np.abs(differentiate(u, "y", 2).values - 2.0).max() < 1e-11


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
def test_differentiate_linearity(a, b):
    g = make_grid(12, 12)
    rng = np.random.default_rng(3)
    u = Field(g, rng.standard_normal(g.shape))
    v = Field(g, rng.standard_normal(g.shape))
    for axis in ("x", "y"):
        lhs = differentiate(Field(g, a * u.values + b * v.values), axis, 1).values
        rhs = a * differentiate(u, axis, 1).values + b * differentiate(v, axis, 1).values
        assert np.abs(lhs - rhs).max() < 1e-10


def test_summation_by_parts_x_exact():
    g = make_grid(32, 32)
    rng = np.random.default_rng(1)
    u = Field(g, rng.standard_normal(g.shape))
    v = Field(g, rng.standard_normal(g.shape))
    du = differentiate(u, "x", 1)
    dv = differentiate(v, "x", 1)
    assert abs(inner_product(du, v) + inner_product(u, dv)) < 1e-12


def test_summation_by_parts_y():
    # trapezoid weights + centered interior stencil telescope exactly for
    # fields vanishing at both walls, far inside the O(h^2) contract
    g = make_grid(32, 32)
    u = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1 - Y**2) ** 2)
    v = Field.from_function(g, lambda X, Y: np.sin(PI * X) * np.exp(Y) * (1 - Y**2))
    du = differentiate(u, "y", 1)
    dv = differentiate(v, "y", 1)
    assert abs(inner_product(du, v) + inner_product(u, dv)) <= 1e-3 * g.hy**2


def test_inner_product_area():
    g = make_grid(64, 64)
    one = Field.constant(g, 1.0)
    assert inner_product(one, one) == pytest.approx(4.0, abs=1e-13)


def test_inner_product_sine():
    g = make_grid(64, 64)
    s = Field.from_function(g, lambda X, Y: np.sin(PI * X))
    c = Field.from_function(g, lambda X, Y: np.cos(PI * X))
    assert inner_product(s, s) == pytest.approx(2.0, abs=1e-12)
    assert abs(inner_product(s, c)) < 1e-13


def test_inner_product_spd_and_symmetric():
    g = make_grid(12, 12)
    rng = np.random.default_rng(0)
    u = Field(g, rng.standard_normal(g.shape))
    v = Field(g, rng.standard_normal(g.shape))
    assert inner_product(u, v) == pytest.approx(inner_product(v, u))
    assert inner_product(u, u) > 0


def test_inner_product_grid_mismatch():
    u = Field.zeros(make_grid(8, 8))
    v = Field.zeros(make_grid(16, 16))
    with pytest.raises(GridError):
        inner_product(u, v)


def test_boundary_integrals():
    g = make_grid(64, 64)
    one = Field.constant(g, 1.0)
    assert boundary_integral(one, "top") == pytest.approx(2.0)
    s = Field.from_function(g, lambda X, Y: np.sin(PI * X))
    assert abs(boundary_integral(s, "bottom")) < 1e-13
    s2 = Field.from_function(g, lambda X, Y: np.sin(PI * X) ** 2)
    assert boundary_integral(s2, "top") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(GridError, match="side must be 'top' or 'bottom', got 'left'"):
        boundary_integral(one, "left")


def test_bad_axis_or_order_is_named():
    u = Field.constant(make_grid(8, 8), 1.0)
    for axis, order in (("z", 1), ("x", 3), ("y", 0)):
        with pytest.raises(GridError, match=rf"axis must be 'x' or 'y' and order 1 or 2,"
                                            rf" got '{axis}' and {order}"):
            differentiate(u, axis, order)
    with pytest.raises(GridError, match=r"derivative orders are limited to 0\.\.2 per direction"):
        derivative_st(u, 3, 0)


def test_diff_quotient_linear_exact():
    g = make_grid(16, 16)
    u = Field.from_function(g, lambda X, Y: Y)
    for k in (1, 2, -1):
        dq = diff_quotient(u, k * g.hy)
        valid = slice(None, -k) if k > 0 else slice(-k, None)
        assert np.abs(dq.values[:, valid] - 1.0).max() < 1e-12


def test_diff_quotient_quadratic_expansion():
    g = make_grid(16, 16)
    u = Field.from_function(g, lambda X, Y: Y**2)
    dq = diff_quotient(u, g.hy)
    Y = g.meshes()[1]
    assert np.abs(dq.values[:, :-1] - (2 * Y[:, :-1] + g.hy)).max() < 1e-12


def test_diff_quotient_rejects_off_grid_shift():
    g = make_grid(16, 16)
    u = Field.zeros(g)
    with pytest.raises(GridError):
        diff_quotient(u, 0.7 * g.hy)
    with pytest.raises(GridError):
        diff_quotient(u, 0.0)


def test_diff_quotient_converges_to_derivative():
    g = make_grid(32, 64)
    u = Field.from_function(g, lambda X, Y: np.sin(PI * X) * np.cos(Y))
    du = differentiate(u, "y", 1)
    errs = []
    for k in (4, 2, 1):
        dq = diff_quotient(u, k * g.hy)
        err = np.abs(dq.values[:, : -(k)] - du.values[:, : -(k)]).max()
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_lemma_difference_quotient_bound():
    # discrete analogue of the L2 difference-quotient estimate on a strip
    g = make_grid(32, 64)
    u = Field.from_function(g, lambda X, Y: np.sin(PI * X) * np.exp(Y) * (1 + Y**2))
    uy = differentiate(u, "y", 1)
    bound = np.sqrt(inner_product(uy, uy)) * (1 + 10 * g.hy)
    kmax = int(np.floor(0.25 / g.hy))
    for k in range(1, kmax):
        for q in (k * g.hy, -k * g.hy):
            dq = diff_quotient(u, q)
            norm_strip = np.sqrt(strip_inner_product(dq, dq, -0.5, 0.5))
            assert norm_strip <= bound


def test_field_csv_roundtrip(tmp_path):
    g = make_grid(12, 8)
    rng = np.random.default_rng(5)
    u = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "f.csv"
    save_field(u, path)
    v = load_field(path)
    assert v.grid == g
    assert np.abs(v.values - u.values).max() < 1e-15
    header = path.read_text().splitlines()[0]
    assert header == "# nx=12 ny=8"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0,2.0\n", "missing '# nx=.. ny=..' header"),
        ("# nx=4 ny\n1.0\n", "malformed header '# nx=4 ny'"),
        ("# nx=4 ny=4\n" + "1,2,3,4\n" * 4, r"data shape \(4, 4\) does not match header \(5, 4\)"),
    ],
    ids=["missing-header", "malformed-header", "shape"],
)
def test_load_field_rejects_a_bad_file(tmp_path, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(GridError, match=message) as exc:
        load_field(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_l2_norm_and_strip():
    g = make_grid(32, 32)
    one = Field.constant(g, 1.0)
    assert l2_norm(one) == pytest.approx(2.0)
    assert strip_inner_product(one, one, -0.5, 0.5) == pytest.approx(2.0)
    # a strip of zero width holds nothing, and reversed edges are named
    assert strip_inner_product(one, one, 0.0, 0.0) == 0.0
    assert strip_inner_product(one, one, -1.0, -1.0) == 0.0
    with pytest.raises(GridError, match=r"reversed: y_min = 0\.5 > y_max = -0\.5"):
        strip_inner_product(one, one, 0.5, -0.5)
    # y nodes are 1/16 apart, so 0.1 is off them
    with pytest.raises(GridError, match="strip edges must lie on grid nodes"):
        strip_inner_product(one, one, -0.5, 0.1)


def _fsum_inner(g, u, v):
    # the quadrature term by term, summed exactly
    w = g.hx * g.y_weights()
    return math.fsum((u * v * w[None, :]).ravel())


@pytest.mark.parametrize("n", [64, 128, 256])
def test_quadrature_kernel_matches_exact_sum(n):
    g = make_grid(n, n)
    rng = np.random.default_rng(n)
    u, v = (Field(g, rng.standard_normal(g.shape)) for _ in range(2))
    ref = _fsum_inner(g, u.values, v.values)
    scale = _fsum_inner(g, np.abs(u.values), np.abs(v.values))
    assert abs(inner_product(u, v) - ref) <= 1e-14 * scale
    norm_ref = math.sqrt(_fsum_inner(g, u.values, u.values))
    assert abs(l2_norm(u) - norm_ref) <= 1e-14 * norm_ref
    assert abs(_l2_norm(g, u.values) - norm_ref) <= 1e-14 * norm_ref


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quadrature_kernel_rejects_non_finite(bad):
    g = make_grid(16, 16)
    vals = np.ones(g.shape)
    vals[3, 5] = bad
    with pytest.raises(GridError, match="non-finite"):
        _l2_norm(g, vals)
    u = Field.constant(g, 1.0)
    u.values[3, 5] = bad  # changed in place, past Field's own check
    with pytest.raises(GridError, match="non-finite"):
        l2_norm(u)


def test_quadrature_kernel_rescales_huge_fields():
    # the squares of 1e200 overflow; the norm is scaled back, not inf
    g = make_grid(32, 32)
    u = Field.from_function(g, lambda X, Y: np.sin(PI * X) * (1.0 + Y))
    big = Field(g, 1e200 * u.values)
    assert np.isfinite(l2_norm(big))
    assert l2_norm(big) == pytest.approx(1e200 * l2_norm(u), rel=1e-14)
    assert _l2_norm(g, big.values) == l2_norm(big)


def test_y_weights_stay_fresh_and_writable():
    # the kernel's cached weight row is private and read-only; y_weights
    # still hands each caller an array of its own
    g = make_grid(16, 16)
    w = g.y_weights()
    assert w.flags.writeable
    w[:] = 0.0
    assert g.y_weights()[1] == g.hy and g.y_weights() is not w
    assert l2_norm(Field.constant(g, 1.0)) == pytest.approx(2.0)
