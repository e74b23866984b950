import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedbvp.grid import Field, derivative_st, inner_product, l2_norm, make_grid
from mixedbvp.norms import (
    GramSolveError,
    NormOrder,
    NormOrderError,
    _line_factors,
    isotropic_norm,
    negative_norm,
    schwarz_gap,
    sobolev_norm,
)

PI = np.pi


def dense_negative_norm(v: Field, m: int, l: int) -> float:
    """Brute-force dual-norm oracle.

    Builds the Gram matrix column by column by applying the field-level
    derivative operators to every canonical basis vector, then solves
    densely.  Shares no code with the sparse production path.
    """
    g = v.grid
    n = g.nx * (g.ny + 1)
    W = g.hx * np.tile(g.y_weights(), g.nx)
    G = np.zeros((n, n))
    for s in range(m + 1):
        for t in range(l + 1):
            D = np.zeros((n, n))
            for col in range(n):
                e = np.zeros(n)
                e[col] = 1.0
                D[:, col] = derivative_st(Field(g, e.reshape(g.shape)), s, t).values.ravel()
            G += D.T @ np.diag(W) @ D
    mv = W * v.values.ravel()
    x = la.solve(G, mv)
    return float(np.sqrt(x @ mv))


def _ld_solve(A, B):
    """Gaussian elimination with partial pivoting, in the arrays' precision."""
    A, B = A.copy(), B.copy()
    n = A.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, p]], B[[k, p]] = A[[p, k]], B[[p, k]]
        f = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k:] -= f[:, None] * A[k, k:]
        B[k + 1 :] -= f[:, None] * B[k]
    X = np.empty_like(B)
    for k in range(n - 1, -1, -1):
        X[k] = (B[k] - A[k, k + 1 :] @ X[k + 1 :]) / A[k, k]
    return X


def longdouble_negative_norm(v: Field, m: int, l: int) -> float:
    """Dual norm from the Kronecker system (hx Cx) X Cy = M v in long double.

    Cx = sum_s Dx_s' Dx_s and Cy = sum_t Dy_t' W_y Dy_t are dense, built
    by applying the grid stencils to long-double identities, and solved by
    elimination: no FFT, no symbol, no float64 factorization.
    """
    from mixedbvp.grid import _apply_x, _apply_y

    ld = np.longdouble
    g = v.grid
    ex, ey = np.eye(g.nx, dtype=ld), np.eye(g.ny + 1, dtype=ld)
    dx = [ex, _apply_x((1, 5), ex, g.hx), _apply_x((2, 5), ex, g.hx)]
    dy = [ey, _apply_y((1, 3), ey, g.hy).T, _apply_y((2, 3), ey, g.hy).T]
    wy = np.asarray(g.y_weights(), dtype=ld)
    cx = sum(dx[s].T @ dx[s] for s in range(m + 1))
    cy = sum(dy[t].T @ (wy[:, None] * dy[t]) for t in range(l + 1))
    mv = np.asarray(v.values, dtype=ld) * (ld(g.hx) * wy)
    x = _ld_solve(cy, _ld_solve(ld(g.hx) * cx, mv).T).T
    return float(np.sqrt(np.sum(x * mv)))


def test_norm_order_validation():
    NormOrder(1, 1)
    NormOrder(-1, 0)
    NormOrder(0, -2)
    with pytest.raises(NormOrderError):
        NormOrder(1, -1)
    with pytest.raises(NormOrderError):
        NormOrder(3, 0)


def test_each_norm_routes_a_wrong_order_by_name():
    g = make_grid(8, 8)
    u = Field.constant(g, 1.0)
    with pytest.raises(NormOrderError, match=r"order \(-1,0\) is negative: use negative_norm"):
        sobolev_norm(u, NormOrder(-1, 0))
    with pytest.raises(NormOrderError, match="isotropic order must be in 0..2, got 3"):
        isotropic_norm(u, 3)
    with pytest.raises(NormOrderError, match=r"order \(1,0\) is positive: use sobolev_norm"):
        negative_norm(u, NormOrder(1, 0))
    with pytest.raises(NormOrderError, match=r"positive order, got \(0,-1\)"):
        schwarz_gap(u, u, NormOrder(0, -1))


def test_sobolev_norm_collapses_to_l2():
    g = make_grid(16, 16)
    rng = np.random.default_rng(2)
    u = Field(g, rng.standard_normal(g.shape))
    assert sobolev_norm(u, NormOrder(0, 0)) == pytest.approx(
        np.sqrt(inner_product(u, u))
    )


def test_sobolev_norm_single_mode_value():
    g = make_grid(64, 64)
    u = Field.from_function(g, lambda X, Y: np.sin(PI * X))
    expected = np.sqrt(2.0 + 2.0 * PI**2)
    assert sobolev_norm(u, NormOrder(1, 0)) == pytest.approx(expected, abs=1e-3)


def test_sobolev_norm_zero_field():
    g = make_grid(8, 8)
    z = Field.zeros(g)
    for order in (NormOrder(0, 0), NormOrder(1, 1), NormOrder(2, 2)):
        assert sobolev_norm(z, order) == 0.0


def test_negative_norm_matches_l2_at_zero_order():
    g = make_grid(16, 16)
    rng = np.random.default_rng(7)
    v = Field(g, rng.standard_normal(g.shape))
    assert negative_norm(v, NormOrder(0, 0)) == pytest.approx(l2_norm(v), rel=1e-10)


@pytest.mark.parametrize("order", [(1, 0), (1, 1), (2, 1)])
def test_negative_norm_against_dense_oracle(order):
    m, l = order
    g = make_grid(8, 8)
    rng = np.random.default_rng(11)
    v = Field(g, rng.standard_normal(g.shape))
    fast = negative_norm(v, NormOrder(-m, -l))
    slow = dense_negative_norm(v, m, l)
    assert abs(fast - slow) <= 1e-10 * max(1.0, slow)


@pytest.mark.parametrize("order", [(1, 0), (2, 0), (1, 1), (2, 1)])
def test_negative_norm_against_longdouble_kronecker(order):
    m, l = order
    g = make_grid(64, 64)
    v = Field(g, np.random.default_rng(21).standard_normal(g.shape))
    fast = negative_norm(v, NormOrder(-m, -l))
    ref = longdouble_negative_norm(v, m, l)
    assert abs(fast - ref) <= 1e-11 * ref


def test_gram_gate_checks_the_explicit_factors(monkeypatch):
    # a wrong symbol gives a wrong solve; the gate must see it because it
    # applies G through the stencil-built Cx and Cy, not through the symbol
    import dataclasses

    from mixedbvp import norms

    g = make_grid(16, 16)
    v = Field(g, np.random.default_rng(22).standard_normal(g.shape))
    good = norms._gram_factors(g, 1, 1)
    bad = dataclasses.replace(good, symbol=good.symbol * np.linspace(1.0, 2.0, good.symbol.size))
    monkeypatch.setattr(norms, "_gram_factors", lambda grid, m, l: bad)
    with pytest.raises(GramSolveError):
        negative_norm(v, NormOrder(-1, -1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_negative_norm_single_fourier_mode(k):
    g = make_grid(64, 64)
    v = Field.from_function(g, lambda X, Y: np.sin(PI * k * X))
    expected = l2_norm(v) / np.sqrt(1.0 + PI**2 * k**2)
    measured = negative_norm(v, NormOrder(-1, 0))
    assert abs(measured / expected - 1.0) <= 0.02


def test_inclusion_chain():
    g = make_grid(24, 24)
    rng = np.random.default_rng(4)
    v = Field(g, rng.standard_normal(g.shape))
    for m, l in [(1, 0), (1, 1), (2, 1)]:
        assert negative_norm(v, NormOrder(-m, -l)) <= l2_norm(v) + 1e-12
        assert l2_norm(v) <= sobolev_norm(v, NormOrder(m, l)) + 1e-12


def test_duality_sample_domination():
    # sampled sups are lower bounds for the Gram closed form
    g = make_grid(12, 12)
    rng = np.random.default_rng(9)
    v = Field(g, rng.standard_normal(g.shape))
    for m, l in [(1, 0), (1, 1)]:
        exact = negative_norm(v, NormOrder(-m, -l))
        best = 0.0
        for _ in range(200):
            u = Field(g, rng.standard_normal(g.shape))
            best = max(best, abs(inner_product(u, v)) / sobolev_norm(u, NormOrder(m, l)))
        # v itself is also an admissible competitor
        best = max(best, abs(inner_product(v, v)) / sobolev_norm(v, NormOrder(m, l)))
        assert 0.0 < best <= exact * (1.0 + 1e-10)


@settings(max_examples=15, deadline=None)
@given(t=st.floats(0.1, 50.0, allow_nan=False))
def test_norm_homogeneity(t):
    g = make_grid(10, 10)
    rng = np.random.default_rng(12)
    v = Field(g, rng.standard_normal(g.shape))
    tv = Field(g, t * v.values)
    assert sobolev_norm(tv, NormOrder(1, 1)) == pytest.approx(
        t * sobolev_norm(v, NormOrder(1, 1)), rel=1e-10
    )
    assert negative_norm(tv, NormOrder(-1, -1)) == pytest.approx(
        t * negative_norm(v, NormOrder(-1, -1)), rel=1e-9
    )


def test_norm_monotonicity_in_order():
    g = make_grid(16, 16)
    rng = np.random.default_rng(13)
    v = Field(g, rng.standard_normal(g.shape))
    pos = [sobolev_norm(v, NormOrder(m, l)) for m, l in [(0, 0), (1, 0), (1, 1), (2, 1)]]
    assert all(a <= b + 1e-12 for a, b in zip(pos, pos[1:]))
    neg = [negative_norm(v, NormOrder(-m, -l)) for m, l in [(0, 0), (1, 0), (1, 1), (2, 1)]]
    assert all(a >= b - 1e-12 for a, b in zip(neg, neg[1:]))


def test_schwarz_gap_equality_case():
    g = make_grid(16, 16)
    rng = np.random.default_rng(14)
    u = Field(g, rng.standard_normal(g.shape))
    assert abs(schwarz_gap(u, u, NormOrder(0, 0))) < 1e-10


def test_schwarz_gap_orthogonal_modes():
    g = make_grid(32, 32)
    u = Field.from_function(g, lambda X, Y: np.sin(PI * X))
    v = Field.from_function(g, lambda X, Y: np.sin(2 * PI * X))
    gap = schwarz_gap(u, v, NormOrder(1, 0))
    assert abs(inner_product(u, v)) < 1e-12
    assert gap > 0.1  # pure product of norms


def test_schwarz_gap_random_sweep():
    g = make_grid(16, 16)
    rng = np.random.default_rng(15)
    for _ in range(200):
        u = Field(g, rng.standard_normal(g.shape))
        v = Field(g, rng.standard_normal(g.shape))
        assert schwarz_gap(u, v, NormOrder(1, 1)) >= -1e-10


@pytest.mark.parametrize("shape", [(12, 10), (4, 8)])
def test_derivative_matrix_mirrors_field_path(shape):
    # the Kronecker product of the 1-D factors the Gram matrix is built
    # from applies derivative_st; includes the minimal 4-column grid,
    # where the x-stencils fall back to second order on both paths
    g = make_grid(*shape)
    rng = np.random.default_rng(16)
    u = Field(g, rng.standard_normal(g.shape))
    for s in range(3):
        for t in range(3):
            mat = np.kron(_line_factors(g, 2, False)[s], _line_factors(g, 2, True)[t])
            via_matrix = (mat @ u.values.ravel()).reshape(g.shape)
            via_fields = derivative_st(u, s, t).values
            assert np.abs(via_matrix - via_fields).max() < 1e-11


@pytest.mark.parametrize("shape", [(16, 12), (4, 8)])
def test_norms_sum_derivative_st_terms(shape):
    # each x-derivative is taken once, but every term is still
    # derivative_st's, summed in the same order: the same bits
    g = make_grid(*shape)
    u = Field(g, np.random.default_rng(18).standard_normal(g.shape))

    def via_derivative_st(pairs):
        total = 0.0
        for s, t in pairs:
            d = derivative_st(u, s, t)
            total += inner_product(d, d)
        return float(np.sqrt(max(total, 0.0)))

    for m in range(3):
        for l in range(3):
            pairs = [(s, t) for s in range(m + 1) for t in range(l + 1)]
            assert sobolev_norm(u, NormOrder(m, l)) == via_derivative_st(pairs)
        pairs = [(s, t) for s in range(m + 1) for t in range(m + 1 - s)]
        assert isotropic_norm(u, m) == via_derivative_st(pairs)


@pytest.mark.parametrize("shape", [(16, 16), (33, 20)])
@pytest.mark.parametrize("order", [(1, 0), (1, 1), (2, 1)])
def test_gram_gate_product_needs_no_transpose(shape, order):
    # the gate forms hCx x Cy as (Cy (hCx x)')', which holds because Cy
    # is symmetric; the product is the same bits as the one it replaces
    from mixedbvp import norms

    g = make_grid(*shape)
    f = norms._gram_factors(g, *order)
    assert (f.cy != f.cy.T).nnz == 0
    x = np.random.default_rng(19).standard_normal(g.shape)
    assert np.array_equal((f.cy @ (f.hcx @ x).T).T, f.hcx @ x @ f.cy)


def test_isotropic_norm_bounds_anisotropic():
    g = make_grid(16, 16)
    rng = np.random.default_rng(17)
    u = Field(g, rng.standard_normal(g.shape))
    assert isotropic_norm(u, 0) == pytest.approx(l2_norm(u))
    assert isotropic_norm(u, 1) <= sobolev_norm(u, NormOrder(1, 1)) + 1e-12
