"""Desk-scale local solvers for the prescribed-curvature and Darboux equations.

Both Monge-Ampere-type problems are attacked with a frozen-coefficient
Picard iteration: at each step the seconds of the current graph supply
the x-averaged normal form of the linearization, written on the
residual's own stencils; every deviation from that normal form (its
x-dependent part, the mixed u_xy term, the gradient-factor first-order
terms, the Christoffel corrections) stays on the right-hand side through
the full nonlinear residual, and the linear solve produces the update.
The step is type-II Anderson mixing of the map d -> d + update over the
last ANDERSON_DEPTH steps, with mixing parameter THETA; with no history,
or with ANDERSON_DEPTH = 0, it is the damped step d + THETA * update.
The step operator N(p) is one record (operators.Rows, _step_record),
L's kind with eps*K = p(y) and A = B = 0 on the (2, 5) stencils.  The
linear solve is two calls of the linear solver's mode builder:
_factor_step reads the band off the record, folds and factors it with
one zgbtrf call (solver._mode_lu), and _solve_step back-substitutes with
one zgbtrs call (solver._solve_modes) and answers to the linear
solver's gate on N's product off the residual's own derivative
matrices (_step_product, the same numbers as the record's).  _picard
keeps the LU and factors again only when the frozen profile has moved
by more than STEP_LU_DRIFT (the chord method); the fixed point is the
residual's, which the lagged LU does not move.  The report's stats
record per step, among others, the wall-row part of the stopping
residual (wall_norm), the history the mixing used (mixing_depth) and
whether the step factored (factored).
The domain-scale parameter rho plays the coordinate-rescaling role: it
sets the oblique constant alpha = sqrt(rho) * alpha0 of the step's
bottom row.

Graph heights are generally not periodic across the seam x = +-1.  The
public residuals (curvature_residual, darboux_residual, through
graph_dx and graph_dy) differentiate with the walled 5-point stencils of
grid._X_STENCILS in both directions, which are exact on quartics, so
polynomial test surfaces produce machine-zero residuals.  The Picard
iteration instead carries the seam jumps on a fixed analytic carrier
and differentiates the periodic remainder with the periodic 5-point
x-stencils (_SplitDerivatives), keeping the walled stencils in y.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from math import factorial, isfinite, sqrt
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from . import solver
from .coeffs import AlphaRangeError, condition7prime_margin
from .grid import Field, GridError, GridSpec, _l2_norm, _quadrature_row, stencil_product
from .norms import _line_factors
from .operators import Rows, _bottom_ux, _table
from .solver import ResidualGateError, _gate


class CurvatureGateError(RuntimeError):
    pass


class DegenerateMetricError(ValueError):
    pass


class DegenerateLinearizationError(RuntimeError):
    pass


@dataclass
class GraphSurface:
    """Graph height on the cylinder grid with its domain-scale parameter."""

    z: Field
    domain_scale: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.domain_scale <= 1.0):
            raise ValueError("domain_scale must lie in (0, 1]")


@dataclass
class MetricData:
    h11: Field
    h12: Field
    h22: Field

    def __post_init__(self):
        if np.any(self.h11.values <= 0.0) or np.any(self.det() <= 0.0):
            raise DegenerateMetricError("metric must be positive definite pointwise")

    @cached_property
    def geometry(self):
        """(inverse(), christoffel_symbols(self), det()), built on first use and kept.

        Every Darboux solve and residual in this metric reads them from
        here.  h11, h12 and h22 are not to be changed in place, or
        replaced, once it is built.
        """
        return self.inverse(), christoffel_symbols(self), self.det()

    def inverse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        det = self.det()
        return self.h22.values / det, -self.h12.values / det, self.h11.values / det

    def det(self) -> np.ndarray:
        return self.h11.values * self.h22.values - self.h12.values**2


@dataclass
class IterationReport:
    """What a Picard solve did; diagnostics and stats are described in _picard."""

    iterations: int
    residual_history: list[float]
    converged: bool
    final_z: GraphSurface
    diagnostics: dict = dc_field(default_factory=dict)
    stats: dict = dc_field(default_factory=dict)


@dataclass
class NonlinearParams:
    alpha0: float = 1.2
    tol: float = 1e-8
    max_iter: int = 50


# Picard gives up when the latest residual is no lower than the first of
# its last STAGNATION_WINDOW residuals
STAGNATION_WINDOW = 8
# past updates and iterates the Anderson mixing of a Picard step combines;
# 0 is the plain damped step d + THETA * update
ANDERSON_DEPTH = 5
# the mixing parameter of that step (a smaller one does not help)
THETA = 0.5
# a step back-substitutes through the LU kept from the last step that
# factored, at profile p_f, while max|p - p_f| <= STEP_LU_DRIFT * max|p|
# (see _picard); 0 factors on every step
STEP_LU_DRIFT = 3e-3


# ---------------------------------------------------------------------------
# quartic-exact, non-periodic finite differences for graph quantities
# ---------------------------------------------------------------------------

# the graph stencils are the walled 5-point ones of grid._X_STENCILS,
# which are exact on quartics


def graph_dx(u: Field, order: int = 1) -> Field:
    if u.grid.nx < 5:
        raise ValueError("graph differentiation needs at least 5 x-nodes")
    return Field(u.grid, stencil_product((order, 5), u.values, u.grid.hx, True))


def graph_dy(u: Field, order: int = 1) -> Field:
    d = stencil_product((order, 5), u.values.T, u.grid.hy, True)
    # in graph_dx's C order, which the callers' elementwise products read fastest
    return Field(u.grid, np.ascontiguousarray(d.T))


def cutoff_profile(grid: GridSpec) -> np.ndarray:
    """Smooth even bump in x: identically 1 for |x| <= 1/2, 0 for |x| >= 3/4."""
    s = np.clip((np.abs(grid.x) - 0.5) / 0.25, 0.0, 1.0)
    smooth = s**4 * (35.0 - 84.0 * s + 70.0 * s**2 - 20.0 * s**3)
    return 1.0 - smooth


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _graph_derivatives(z: Field) -> dict[str, np.ndarray]:
    """First and second derivatives of a graph height from the graph stencils."""
    zx = graph_dx(z, 1)
    return {
        "zx": zx.values,
        "zy": graph_dy(z, 1).values,
        "zxx": graph_dx(z, 2).values,
        "zxy": graph_dy(zx, 1).values,
        "zyy": graph_dy(z, 2).values,
    }


def _curvature(dv: dict[str, np.ndarray], K: Field) -> np.ndarray:
    det = dv["zxx"] * dv["zyy"] - dv["zxy"] ** 2
    grad2 = dv["zx"] ** 2 + dv["zy"] ** 2
    return det - K.values * (1.0 + grad2) ** 2


def curvature_residual(z: GraphSurface, K: Field) -> Field:
    """det D^2 z - K (1 + |grad z|^2)^2, pointwise on the grid."""
    return Field(z.z.grid, _curvature(_graph_derivatives(z.z), K))


def christoffel_symbols(h: MetricData):
    """The six Christoffel symbols of h, its derivatives from the graph stencils."""
    ih11, ih12, ih22 = h.inverse()
    h11x, h11y = graph_dx(h.h11).values, graph_dy(h.h11).values
    h12x, h12y = graph_dx(h.h12).values, graph_dy(h.h12).values
    h22x, h22y = graph_dx(h.h22).values, graph_dy(h.h22).values
    g1_11 = 0.5 * (ih11 * h11x + ih12 * (2.0 * h12x - h11y))
    g2_11 = 0.5 * (ih12 * h11x + ih22 * (2.0 * h12x - h11y))
    g1_12 = 0.5 * (ih11 * h11y + ih12 * h22x)
    g2_12 = 0.5 * (ih12 * h11y + ih22 * h22x)
    g1_22 = 0.5 * (ih11 * (2.0 * h12y - h22x) + ih12 * h22y)
    g2_22 = 0.5 * (ih12 * (2.0 * h12y - h22x) + ih22 * h22y)
    return g1_11, g2_11, g1_12, g2_12, g1_22, g2_22


def _cov_hessian(dv: dict[str, np.ndarray], gammas) -> tuple[np.ndarray, ...]:
    g1_11, g2_11, g1_12, g2_12, g1_22, g2_22 = gammas
    H11 = dv["zxx"] - g1_11 * dv["zx"] - g2_11 * dv["zy"]
    H12 = dv["zxy"] - g1_12 * dv["zx"] - g2_12 * dv["zy"]
    H22 = dv["zyy"] - g1_22 * dv["zx"] - g2_22 * dv["zy"]
    return H11, H12, H22


def _gradh2(dv: dict[str, np.ndarray], inv) -> np.ndarray:
    """|grad_h z|^2 from the inverse metric entries (ih11, ih12, ih22)."""
    ih11, ih12, ih22 = inv
    zx, zy = dv["zx"], dv["zy"]
    return ih11 * zx**2 + 2.0 * ih12 * zx * zy + ih22 * zy**2


def _darboux_from(H, gradh2: np.ndarray, K: Field, deth) -> np.ndarray:
    """The Darboux residual from the covariant Hessian H and |grad_h z|^2."""
    H11, H12, H22 = H
    return H11 * H22 - H12**2 - K.values * deth * (1.0 - gradh2)


def _darboux(dv: dict[str, np.ndarray], K: Field, inv, gammas, deth) -> np.ndarray:
    return _darboux_from(_cov_hessian(dv, gammas), _gradh2(dv, inv), K, deth)


def covariant_hessian(z: Field, h: MetricData) -> tuple[Field, Field, Field]:
    """Second covariant derivatives of z in the metric h."""
    H = _cov_hessian(_graph_derivatives(z), christoffel_symbols(h))
    return tuple(Field(z.grid, v) for v in H)


def darboux_residual(z: GraphSurface, K: Field, h: MetricData) -> Field:
    """det(cov Hessian) - K det(h) (1 - |grad_h z|^2)."""
    return Field(z.z.grid, _darboux(_graph_derivatives(z.z), K, *h.geometry))


# ---------------------------------------------------------------------------
# frozen-coefficient Picard driver
# ---------------------------------------------------------------------------

def _gate_condition7prime(K: Field, eps: float) -> None:
    """Condition 7' for K along the vertical field V = (0, 1), on |x| <= 3/4.

    A passing verdict is kept per grid, eps and bytes of K.values, so
    repeated solves on one K check it once and a K edited in place is
    checked again; a failing K raises CurvatureGateError on every call.
    """
    _condition7prime_holds(K.grid, eps, K.values.tobytes())


@lru_cache(maxsize=8)
def _condition7prime_holds(g: GridSpec, eps: float, values: bytes) -> None:
    """_gate_condition7prime's check of the K with these bytes; a raise is not kept."""
    K = Field(g, np.frombuffer(values).reshape(g.shape))
    V = (Field.zeros(g), Field.constant(g, 1.0))
    margin = condition7prime_margin(K, V, eps).values
    inner = np.abs(g.x) <= 0.75
    mn = float(margin[inner, :].min())
    if mn < 0.0:
        raise CurvatureGateError(
            f"directional curvature condition fails on the inner region "
            f"(min margin {mn:.3e})"
        )


def _stencil_weights(offsets: np.ndarray, deriv: int) -> np.ndarray:
    """Weights reproducing the deriv-th derivative at 0 from nodes at offsets."""
    n = offsets.size
    V = np.vander(offsets, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[deriv] = float(factorial(deriv))
    return np.linalg.solve(V, rhs)


# the nodes per side of the seam-jump extrapolation
_SEAM_NODES = 7


@lru_cache(maxsize=16)
def _seam_weights(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Sextic extrapolation weights of value and slope to the seam x = 1.

    The value's and the slope's from the last _SEAM_NODES columns, then
    the value's and the slope's from the first _SEAM_NODES columns.
    """
    left = np.arange(-_SEAM_NODES, 0) * grid.hx
    right = np.arange(0, _SEAM_NODES) * grid.hx
    return tuple(_stencil_weights(nodes, k) for nodes in (left, right) for k in (0, 1))


@lru_cache(maxsize=16)
def _derivative_matrices(grid: GridSpec) -> tuple[sp.csr_matrix, ...]:
    """The stencils of _SplitDerivatives and of _step_product as sparse matrices.

    x: norms._line_factors of orders 1 over 2 (the periodic 5-point
    stencils of grid._X_STENCILS), (2 nx, nx), applied from the left to
    an (nx, ny+1) array.  y: the walled 5-point ones (the graph
    stencils), first over second order, (2 (ny+1), ny+1), applied from
    the left to the transposed array, and the first-order block alone.
    Then the second-order blocks alone, D_xx and D_yy, which the Picard
    step's product reads.
    Each entry is a table weight divided by the denominator
    (grid.stencil_product on the identity), as the field path divides;
    a scipy matrix divided by a scalar would multiply by the reciprocal
    instead.
    """
    eye = np.eye(grid.ny + 1)
    dx = sp.csr_matrix(np.vstack(_line_factors(grid, 2, False)[1:]))
    dy = sp.csr_matrix(np.vstack([stencil_product((k, 5), eye, grid.hy, True) for k in (1, 2)]))
    return dx, dy, dy[: len(eye)], dx[grid.nx :], dy[len(eye) :]


class _SplitDerivatives:
    """Derivatives of z0 + d with the seam jump carried analytically.

    A graph on the cylinder chart is generally not periodic: crossing
    the seam x = +-1 its value and slope may jump.  Both jumps are
    measured per y-row by sextic extrapolation, subtracted through the
    fixed carrier j0(y)*x/2 + j1(y)*x^2/4 (unit value and slope jumps,
    smooth inside the chart), and the periodic remainder plus every
    Picard update is differentiated with periodic x-stencils.  This
    keeps one-sided stencils out of the iteration loop entirely, which
    would otherwise both seed a seam instability and bias the fixed
    point.

    The stencils are applied as the sparse products of
    _derivative_matrices, shared by every solve on the grid: both
    x-derivatives in one product, both y-derivatives in one, and the
    mixed derivative as the y-derivative of the x-derivative.  The
    y-products run on the transposed array; the carrier's derivatives
    are kept in each product's layout and added in place, and one
    transposing copy per y-product returns the (nx, ny+1) layout.
    """

    def __init__(self, z0: Field):
        g = z0.grid
        if g.nx < 14:
            raise ValueError(
                "the seam-jump carrier needs 7 clean columns per side; use nx >= 14"
            )
        self.grid = g
        self.base = z0.values.copy()
        self._dx, self._dy, self._dy1, _, _ = _derivative_matrices(g)
        # sextic extrapolation of value and slope to the seam x = 1; a slope
        # jump misjudged by delta reappears as delta/h noise in the periodic
        # second difference, so the jump estimate must be high order
        w_val_l, w_der_l, w_val_r, w_der_r = _seam_weights(g)
        vl = self.base[-_SEAM_NODES:, :]
        vr = self.base[:_SEAM_NODES, :]
        j0 = w_val_l @ vl - w_val_r @ vr
        j1 = w_der_l @ vl - w_der_r @ vr
        x = g.x[:, None]
        cz = j0[None, :] * (x / 2.0) + j1[None, :] * (x**2 / 4.0)
        czx = j0[None, :] / 2.0 + j1[None, :] * (x / 2.0)
        # zx over zxx; zy' over zyy'; zxy'
        self._carrier_x = np.concatenate([czx, np.broadcast_to(j1[None, :] / 2.0, g.shape)])
        self._carrier_y = self._dy @ cz.T
        self._carrier_xy = self._dy1 @ czx.T
        self._periodic_base = self.base - cz

    def at(self, d_vals: np.ndarray) -> dict[str, np.ndarray]:
        g = self.grid
        nx, nyp = g.shape
        p = self._periodic_base + d_vals
        if not np.isfinite(p).all():
            raise GridError("field contains non-finite entries")
        x = self._dx @ p
        xy = self._dy1 @ x[:nx].T
        y = self._dy @ p.T
        x += self._carrier_x
        xy += self._carrier_xy
        y += self._carrier_y
        y = np.ascontiguousarray(y.reshape(2, nyp, nx).transpose(0, 2, 1))
        return {
            "zx": x[:nx],
            "zy": y[0],
            "zxx": x[nx:],
            "zxy": np.ascontiguousarray(xy.T),
            "zyy": y[1],
        }


def _step_record(g: GridSpec, p: np.ndarray, alpha: float) -> Rows:
    """The record (operators.Rows) of N(p), the Picard step's operator.

    N d = p(y)*d_xx + d_yy on rows 1..ny-1, on the residual's own
    stencils, the (2, 5) entries of grid._X_STENCILS (operators._table):
    p times the periodic d_xx, with its symbol (grid.x_symbol), and the
    walled d_yy, the centred row inside and the table's near row and its
    mirror on rows 1 and ny-1.  Row 0 is the oblique row alpha*d_x + d_y
    (operators._bottom_ux and the table's wall lines) and row ny the
    identity.  Every weight is a table weight over the denominator, as
    the residual's stencils divide.  The lines, d_yy and the wall rows'
    d_y and identity, are the table's, kept per grid, so their band is
    built once per grid; only p's part is the step's.  The step's band
    (solver._mode_problem) and the tests' matrix (operators.assemble_L)
    read it; the gate reads the same rows through _step_product.
    """
    x, sigma, lines = _table((2, 5), g)
    px = np.concatenate(([0.0], p[1:-1], [0.0]))
    return Rows(g, ((slice(None), px, x, sigma), _bottom_ux(g, alpha)), lines)


def _step_product(g: GridSpec, p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """N(p) d on rows 1..ny, as the Picard step's gate reads it.

    Rows 1..ny-1 are p*(D_xx d) + D_yy d, two sparse products with the
    second-order blocks of _derivative_matrices, the residual's own
    stencils: bit for bit the Kronecker form of the record
    (_step_record), whose eleven terms as runs (operators.StencilL)
    would each take a pass over the field.  Row ny is d's, the
    identity; row 0 is left as the products leave it, since the gate
    forms the oblique row itself (solver._gate).
    """
    *_, dxx, dyy = _derivative_matrices(g)
    out = p * (dxx @ d)
    out += (dyy @ d.T).T
    out[:, -1] = d[:, -1]
    return out


def _factor_step(g: GridSpec, p: np.ndarray, alpha: float) -> tuple:
    """The LU of N(p), the Picard step's operator, as _solve_step takes it.

    N is its record (_step_record).  N commutes with the x-shift, so
    its LU is one call of the linear solver's mode builder
    (solver._mode_lu on solver._mode_problem of the record): the near
    rows 1 and ny-1 and the oblique row reach one node past the centred
    rows, so the band folds them to kl = ku = 2 and factors it with one
    zgbtrf call; a zero pivot raises PreconditionError naming the first
    singular mode.

    Returns the mode LU and p, at which _solve_step gates (_step_product).
    """
    return solver._mode_lu(*solver._mode_problem(_step_record(g, p, alpha))), p


def _solve_step(g: GridSpec, lu: tuple, alpha: float, f: np.ndarray) -> tuple[np.ndarray, float]:
    """d with N(p) d = f through lu = _factor_step(g, p, alpha), and the residual's norm.

    f's wall rows are read as zero; solver._solve_modes takes one rfft,
    folds the spectrum, makes one zgbtrs call on every mode at once and
    takes one irfft.  The residual is solver._gate's, the one every
    linear solve answers to, on N(p) d over rows 1..ny (_step_product);
    the gate forms row 0, the oblique row, itself.
    When its norm exceeds RESIDUAL_TOL*||f||, a ResidualGateError of it
    is raised.
    """
    modes, p = lu
    rhs = f.copy()
    rhs[:, [0, -1]] = 0.0
    d = solver._solve_modes(modes, rhs)
    fnorm = _l2_norm(g, f)
    res, r = _gate(f, d, _step_product(g, p, d), alpha, g)
    if res > solver.RESIDUAL_TOL * fnorm:
        raise ResidualGateError(res / (fnorm if fnorm > 0 else 1.0), r, g, alpha)
    return d, res


@lru_cache(maxsize=16)
def _residual_weights(grid: GridSpec) -> tuple[np.ndarray, slice, float]:
    """What _picard weighs every residual of a solve on the grid with.

    The cutoff profile as a read-only (nx, 1) column, the inner region
    |x| <= 1/2 as a slice of the x-nodes, and the quadrature weight of
    a wall row's squares.
    """
    chi = cutoff_profile(grid)[:, None]
    chi.flags.writeable = False
    inner = np.flatnonzero(np.abs(grid.x) <= 0.5)
    return chi, slice(int(inner[0]), int(inner[-1]) + 1), float(_quadrature_row(grid)[0])


class _AndersonMixing:
    """Type-II Anderson mixing (Anderson 1965, Walker-Ni 2011) of d -> d + f(d).

    The last depth differences of iterates and of updates sit in two
    preallocated ring buffers, dX and dF, and the Gram matrix of dF is
    kept row by row as they enter; the order of the columns does not
    matter to the least squares.  Each step solves min |f - dF^T gamma|
    through the k x k Gram system with LAPACK's SVD-based dgelss, which
    does not raise on a rank-deficient history, and returns
    d + beta*f - (dX + beta*dF)^T gamma.  With an empty history that is
    the damped step d + beta*f.
    """

    def __init__(self, size: int, depth: int, beta: float):
        self.beta = beta
        self.dX = np.empty((depth, size))
        self.dF = np.empty((depth, size))
        self.gram = np.empty((depth, depth))
        self.last_x = np.empty(size)
        self.last_f = np.empty(size)
        self.count = 0

    def step(self, x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, int]:
        """The next iterate from x and its update f, and the columns it used."""
        depth = len(self.dX)
        k = min(self.count, depth)
        xv, fv = x.ravel(), f.ravel()
        if k:
            slot = (self.count - 1) % depth
            np.subtract(xv, self.last_x, out=self.dX[slot])
            np.subtract(fv, self.last_f, out=self.dF[slot])
            self.gram[slot, :k] = self.gram[:k, slot] = self.dF[:k] @ self.dF[slot]
        self.last_x[:] = xv
        self.last_f[:] = fv
        self.count += 1
        out = self.beta * f
        out += x
        if k:
            dX, dF = self.dX[:k], self.dF[:k]
            fit = lapack.dgelss(self.gram[:k, :k], dF @ fv, cond=k * np.finfo(float).eps)
            gamma, info = fit[1], fit[-1]
            if info == 0:  # else the SVD did not converge: take the damped step
                # (dX + beta*dF)^T gamma, summed in place
                fix = gamma @ dF
                fix *= self.beta
                fix += gamma @ dX
                out -= fix.reshape(x.shape)
        return out, k


def _picard(z0: GraphSurface, step_terms, params: NonlinearParams) -> IterationReport:
    """Anderson-mixed frozen-coefficient iteration; each step is one _solve_step.

    step_terms maps the derivative dict of an iterate to its residual
    and the principal coefficients (P, Q) of the frozen linearization,
    and raises when the iterate leaves the equation's regime.

    The update solves N d = -res/Q (see _factor_step), N the x-averaged
    normal form of that linearization: p(y) is the mean of P/Q over the
    inner region |x| <= 1/2.  Everything N leaves out (the x-dependent
    part of P/Q, the mixed term, the gradient-factor first-order terms)
    stays lagged on the right-hand side through the full nonlinear
    residual.  The fixed-point map is d -> d + update, and each step
    mixes it with up to ANDERSON_DEPTH past steps (see _AndersonMixing,
    mixing parameter THETA).  A solve keeps the LU of its last step
    that factored N (_factor_step at the profile p_f) and solves through
    it (_solve_step) while max|p - p_f| <= STEP_LU_DRIFT * max|p|, the
    chord method; any other step, a NaN drift included, factors N(p)
    and keeps that LU.  The residual still defines the fixed point, so
    only the update lags p.
    The first iterate whose weighted residual, the l2 norm of chi*res
    with chi the cutoff_profile, is at most tol ends the iteration.

    A solve builds only what depends on its start: the seam carrier
    (_SplitDerivatives), the mixing's ring buffers and the kept LU; a
    step that factors builds its record and allocates its own band
    (_factor_step), and every step its right-hand side (_solve_step).
    chi, the inner region as a slice and the wall rows' weight come from
    _residual_weights, and the derivative matrices (which the gate's
    product reads too), seam weights, the table's parts and lines (with
    their band) and the oblique row's u_x from their own caches, shared
    per grid (and alpha).  The residual norms are taken on the bare
    arrays (grid._l2_norm), which still raise GridError on a non-finite
    entry.

    diagnostics carries the residual of each linear solve (every row,
    walls included) and the reason the iteration gave up (None when it
    converged).
    stats holds the perf_counter sums residual_s (derivatives, residual
    and principal coefficients), band_s (the profile p, the drift test
    and _factor_step), solve_s (_solve_step: the right-hand side, rfft,
    fold, zgbtrs, irfft and gate) and mix_s (the mixing), and per step the
    part of the step's stopping residual on the wall rows 0 and ny
    (wall_norm), the number of past steps the mixing used
    (mixing_depth) and whether the step factored N (factored; its sum
    is the solve's count of zgbtrf calls).
    """
    grid = z0.z.grid
    rho = z0.domain_scale
    alpha = sqrt(rho) * params.alpha0
    # the oblique row's residual norm squares alpha times a slope; inf,
    # not OverflowError, past 1.3e154
    if not isfinite(alpha * alpha):
        raise AlphaRangeError(
            params.alpha0, f"alpha^2 with alpha = sqrt(rho)*alpha0 = {alpha:g}", "alpha0"
        )
    chi, inner, wall_weight = _residual_weights(grid)
    split = _SplitDerivatives(z0.z)
    mixing = _AndersonMixing(grid.nx * (grid.ny + 1), ANDERSON_DEPTH, THETA)
    lu = None  # the last _factor_step's (mode LU, p)

    d = np.zeros(grid.shape)
    history: list[float] = []
    diagnostics: dict = {"reason": None, "linear_residuals": []}
    stats: dict = dict(residual_s=0.0, band_s=0.0, solve_s=0.0, mix_s=0.0)
    stats.update(wall_norm=[], mixing_depth=[], factored=[])

    def report(it: int, converged: bool, reason: str | None = None) -> IterationReport:
        diagnostics["reason"] = reason
        surface = GraphSurface(Field(grid, split.base + d), rho)
        return IterationReport(it, history, converged, surface, diagnostics, stats)

    for it in range(params.max_iter + 1):
        t0 = perf_counter()
        res, P, Q = step_terms(split.at(d))
        weighted = chi * res
        res_norm = _l2_norm(grid, weighted)
        stats["residual_s"] += perf_counter() - t0
        history.append(res_norm)
        if res_norm <= params.tol:
            return report(it, True)
        if it == params.max_iter:
            break
        if (
            len(history) > STAGNATION_WINDOW
            and history[-1] >= history[-STAGNATION_WINDOW]
        ):
            return report(it, False, "residual stagnation")
        t0 = perf_counter()
        if Q.min() <= 0.0:
            raise DegenerateLinearizationError(
                "u_yy coefficient of the frozen linearization must stay positive"
            )
        p = (P[inner] / Q[inner]).mean(axis=0)
        # a NaN drift is not small, so it factors
        factor = lu is None or not np.abs(p - lu[1]).max() <= STEP_LU_DRIFT * np.abs(p).max()
        if factor:
            lu = _factor_step(grid, p, alpha)
        t1 = perf_counter()
        update, lin_res = _solve_step(grid, lu, alpha, -res / Q)
        t2 = perf_counter()
        d, depth = mixing.step(d, update)
        stats["band_s"] += t1 - t0
        stats["solve_s"] += t2 - t1
        stats["mix_s"] += perf_counter() - t2
        diagnostics["linear_residuals"].append(lin_res)
        walls = weighted[:, [0, -1]]
        stats["wall_norm"].append(sqrt(wall_weight * np.sum(walls * walls)))
        stats["mixing_depth"].append(depth)
        stats["factored"].append(factor)
    return report(params.max_iter, False, "max_iter")


def solve_prescribed_curvature(
    K: Field, z0: GraphSurface, params: NonlinearParams | None = None
) -> IterationReport:
    """Local graph with prescribed Gaussian curvature K, seeded at z0.

    The directional admissibility condition for K (along the vertical
    field) is required on the inner region before any solve.
    """
    params = params or NonlinearParams()
    _gate_condition7prime(K, z0.domain_scale)
    return _picard(z0, lambda dv: (_curvature(dv, K), dv["zyy"], dv["zxx"]), params)


def solve_darboux(
    K: Field,
    h: MetricData,
    z0: GraphSurface,
    params: NonlinearParams | None = None,
) -> IterationReport:
    """Local solution of the Darboux equation in the metric h.

    The right-hand side degenerates when |grad_h z|^2 reaches 1, so the
    iteration rejects any iterate that leaves that regime.
    """
    params = params or NonlinearParams()
    _gate_condition7prime(K, z0.domain_scale)
    inv, gammas, deth = h.geometry

    def step_terms(dv):
        # each covariant Hessian entry and |grad_h z|^2 once, as _darboux forms them
        H = _cov_hessian(dv, gammas)
        gradh2 = _gradh2(dv, inv)
        top = gradh2.max()
        if top >= 1.0:
            raise DegenerateLinearizationError(
                f"|grad_h z|^2 reached {top:.3f}; right-hand side degenerates"
            )
        return _darboux_from(H, gradh2, K, deth), H[2], H[0]

    return _picard(z0, step_terms, params)


def flat_metric(grid: GridSpec) -> MetricData:
    one = Field.constant(grid, 1.0)
    return MetricData(one, Field.zeros(grid), one)
