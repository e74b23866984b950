"""Discrete anisotropic Sobolev norms and their dual (negative) norms.

The positive norm of order (m, l) sums the squared quadrature norms of
all mixed derivatives d^s/dx^s d^t/dy^t with s <= m, t <= l.  The
negative norm of order (-m, -l) is the dual norm

    sup over u of |(u, v)| / ||u||_(m,l)

taken over the whole discrete grid space.  On that finite-dimensional
space the supremum has the closed form sqrt(x' M v) with G x = M v,
where M is the diagonal quadrature mass matrix and G the Gram matrix of
the discrete (m, l) inner product, so no optimization is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Field, GridSpec, _quadrature_row, _root_of_squares, _x_stencil, differentiate
from .grid import inner_product, stencil_product, x_symbol, x_terms

MAX_ORDER = 2


class NormOrderError(ValueError):
    pass


class GramSolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class NormOrder:
    """Pair of derivative orders (m in x, l in y); signs must agree."""

    m: int
    l: int

    def __post_init__(self):
        if (self.m > 0 > self.l) or (self.l > 0 > self.m):
            raise NormOrderError(f"mixed-sign order ({self.m},{self.l}) rejected")
        if max(abs(self.m), abs(self.l)) > MAX_ORDER:
            raise NormOrderError(
                f"orders are capped at {MAX_ORDER} per direction, got ({self.m},{self.l})"
            )

    @property
    def is_negative(self) -> bool:
        return self.m < 0 or self.l < 0


# ---------------------------------------------------------------------------
# one-dimensional factors, read off the grid module's stencil matrices
# ---------------------------------------------------------------------------

def _line_factors(grid: GridSpec, top: int, walled: bool) -> list[np.ndarray]:
    """The dense derivative matrices of differentiate of orders 0..top
    along x (walled False) or y (walled True): grid.stencil_product on
    the identity, every entry one table weight over the denominator."""
    n, h = (grid.ny + 1, grid.hy) if walled else (grid.nx, grid.hx)
    stencils = [(s, 3) if walled else _x_stencil(s, n) for s in range(1, top + 1)]
    return [np.eye(n)] + [stencil_product(st, np.eye(n), h, walled) for st in stencils]


@dataclass(frozen=True)
class _GramFactors:
    """The (m, l) Gram matrix as the Kronecker product (hx*Cx) (x) Cy.

    With Dx_s, Dy_t the 1-D derivative matrices and W_y the trapezoid
    weights, Cx = sum_s Dx_s' Dx_s and Cy = sum_t Dy_t' W_y Dy_t.  Cx is
    circulant, so the FFT in x diagonalizes it; symbol holds hx times its
    eigenvalues on the rfft modes.  Cy is small, banded and SPD and is
    factored once.
    """

    symbol: np.ndarray
    cy_lu: spla.SuperLU
    hcx: sp.csr_matrix
    cy: sp.csr_matrix
    inf_norm: float


@lru_cache(maxsize=16)
def _gram_factors(grid: GridSpec, m: int, l: int) -> _GramFactors:
    symbol = np.ones(grid.nx // 2 + 1)
    for s in range(1, m + 1):
        # |symbol of Dx_s|^2 per stencil: the symbol of the assembled Cx
        # column loses the low modes to cancellation at s = 2
        symbol += np.abs(x_symbol(x_terms(_x_stencil(s, grid.nx), grid.hx), grid.nx)) ** 2
    # d.T @ d of one array would take BLAS syrk, which rounds apart from
    # the gemm of two
    cx = sum(d.T @ d.copy() for d in _line_factors(grid, m, False))
    wy = grid.y_weights()
    cy = sum(d.T @ (wy[:, None] * d) for d in _line_factors(grid, l, True))
    hcx = sp.csr_matrix(grid.hx * cx)
    cy_sp = sp.csr_matrix(cy)
    inf_norm = spla.norm(hcx, np.inf) * spla.norm(cy_sp, np.inf)
    return _GramFactors(
        grid.hx * symbol, spla.splu(cy_sp.tocsc()), hcx, cy_sp, float(inf_norm)
    )


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _derivative_norm(u: Field, m: int, l_of_s) -> float:
    """Root of the summed squared norms of d^s/dx^s d^t/dy^t u, s <= m, t <= l_of_s(s).

    Each x-derivative is taken once and its y-derivatives from it, as
    derivative_st composes them, so every term is derivative_st's.
    """

    def squares(w: Field) -> float:
        total = 0.0
        for s in range(m + 1):
            ds = differentiate(w, "x", s) if s else w
            for t in range(l_of_s(s) + 1):
                d = differentiate(ds, "y", t) if t else ds
                total += inner_product(d, d)
        return total

    return _root_of_squares(squares, u)


def sobolev_norm(u: Field, order: NormOrder) -> float:
    """Anisotropic norm ||u||_(m,l) for nonnegative orders."""
    if order.is_negative:
        raise NormOrderError(f"order ({order.m},{order.l}) is negative: use negative_norm")
    return _derivative_norm(u, order.m, lambda s: order.l)


def isotropic_norm(u: Field, m: int) -> float:
    """Standard H^m norm: all mixed derivatives with s + t <= m (m <= 2)."""
    if m < 0 or m > MAX_ORDER:
        raise NormOrderError(f"isotropic order must be in 0..{MAX_ORDER}, got {m}")
    return _derivative_norm(u, m, lambda s: m - s)


def _frobenius(a: np.ndarray) -> float:
    # np.linalg.norm goes through a BLAS dot, whose thread hand-off costs
    # far more than the arithmetic on arrays this small; einsum stays serial
    return float(np.sqrt(np.einsum("ij,ij->", a, a)))


def negative_norm(v: Field, order: NormOrder) -> float:
    """Dual norm ||v||_(-m,-l), exact on the discrete space via a Gram solve.

    G x = M v is solved per Fourier mode in x with one banded solve in y
    for all modes at once (Lynch-Rice-Thomas tensor-product method).
    """
    if not order.is_negative and (order.m, order.l) != (0, 0):
        raise NormOrderError(f"order ({order.m},{order.l}) is positive: use sobolev_norm")
    m, l = abs(order.m), abs(order.l)
    grid = v.grid
    f = _gram_factors(grid, m, l)
    mv = v.values * _quadrature_row(grid)
    y = f.cy_lu.solve(np.ascontiguousarray(mv.T)).T
    x = np.fft.irfft(np.fft.rfft(y, axis=0) / f.symbol[:, None], n=grid.nx, axis=0)
    # normwise backward error of x in G x = M v, with G applied through
    # its explicit 1-D factors rather than the symbol the solve trusted.
    # Cy is symmetric, so (Cy (hCx x)')' is hCx x Cy with both products
    # sparse-times-dense: x @ cy would transpose cy on every call
    res = _frobenius((f.cy @ (f.hcx @ x).T).T - mv)
    scale = _frobenius(mv)
    floor = f.inf_norm * _frobenius(x) + scale
    if scale > 0 and res > 1e-8 * floor:
        raise GramSolveError(
            f"Gram solve backward error {res / floor:.2e} above tolerance"
        )
    return float(np.sqrt(max(float(np.sum(x * mv)), 0.0)))


def schwarz_gap(u: Field, v: Field, order: NormOrder) -> float:
    """||u||_(m,l) * ||v||_(-m,-l) - |(u, v)|; nonnegative up to roundoff."""
    if order.is_negative:
        raise NormOrderError(f"schwarz_gap expects a positive order, got ({order.m},{order.l})")
    pos = sobolev_norm(u, order)
    neg = negative_norm(v, NormOrder(-order.m, -order.l))
    return pos * neg - abs(inner_product(u, v))
