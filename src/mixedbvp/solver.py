"""Linear BVP solver, manufactured-solution verification, energy certificates.

solve_linear builds the y-system of each x-mode of the x-averaged
operator, folds its oblique bottom row into tridiagonal form, factors
all modes in one LAPACK call and back-substitutes; when the
coefficients depend on x, it refines that answer with the same LUs
while each step halves the residual, then hands what is left to
scipy's GMRES preconditioned by those LUs, with a sparse LU of the
assembled matrix as the fallback; every product with L is one
product with its record (operators.StencilL).  This module alone
knows the mode systems' layout: one builder reads a problem off its
record (_mode_problem) and stacks, folds, factors and back-substitutes
it (_mode_band, _mode_lu, _solve_modes), for L and for the Picard step
of nonlinear alike.  The a priori constant of the
well-posedness estimate is reported as the measured ratio
||u||_0 / ||f||_{H^1}.
energy_certificate drives the duality chain: for adjoint-admissible
samples v it solves the auxiliary problem M u = v and tests positivity
of (L* v, u) against the anisotropic (m,1) energy of u, then reports the
measured constant of the negative-norm inequality that yields existence
of weak solutions.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import isfinite
from time import perf_counter
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .coeffs import AlphaRangeError, CoefficientSet, check_alpha, check_condition7
from .grid import (
    Field,
    GridError,
    GridSpec,
    _l2_norm,
    _quadrature_row,
    boundary_integral,
    differentiate,
    inner_product,
    l2_norm,
)
from .multiplier import FormReport, MultiplierTriple, _interior_coefficients
from .norms import NormOrder, _gram_factors, isotropic_norm, negative_norm, sobolev_norm
from .operators import (
    _BOTTOM_DY,
    Rows,
    StencilL,
    _L_rows,
    _oblique_row,
    apply_L,
    apply_Lstar,
    assemble_L,
    aux_solve_report,
)


class PreconditionError(RuntimeError):
    pass


class BoundaryCompatibilityError(ValueError):
    pass


class ResidualGateError(PreconditionError):
    """A solve's residual r over every row failed the gate RESIDUAL_TOL.

    residual is r.  rows names the row group holding the largest share
    of r's squared quadrature norm: "interior", "top" or "bottom".  The
    bottom row is the oblique alpha*u_x + u_y, whose rounding error
    grows like |alpha*u_x|, so when it holds the largest share the
    message names alpha too.
    """

    def __init__(self, relative: float, r: np.ndarray, grid: GridSpec, alpha: float):
        self.residual = r
        s = r / np.abs(r).max()  # the shares are ratios; r's own square can overflow
        parts = (s * s).sum(axis=0) * grid.y_weights()
        shares = {"interior": parts[1:-1].sum(), "top": parts[-1], "bottom": parts[0]}
        self.rows = max(shares, key=shares.get)
        detail = f", alpha = {alpha:g}" if self.rows == "bottom" else ""
        super().__init__(
            f"WELLPOSEDNESS_SUSPECT: solve residual {relative:.2e} exceeds {RESIDUAL_TOL:.1e};"
            f" the {self.rows} rows hold {shares[self.rows] / sum(shares.values()):.2%}"
            f" of its square{detail}"
        )


def _check_grid(what: str, grid: GridSpec, cs: CoefficientSet) -> None:
    """Raise ValueError naming both grids unless grid is the coefficients'."""
    if grid != cs.grid:
        raise ValueError(f"{what} holds a {grid.nx}x{grid.ny} grid,"
                         f" but the coefficients hold {cs.grid.nx}x{cs.grid.ny}")


@dataclass
class LinearProblem:
    cs: CoefficientSet
    f: Field

    def __post_init__(self):
        _check_grid("the right-hand side", self.f.grid, self.cs)


@dataclass
class SolveReport:
    """Solution, residual over every row (walls included) and what the solve did.

    apriori_ratio is ||u||_0 / ||f||_{H^1}; solver_stats holds method, n
    and the operator's stats (see FactorizedOperator).
    """

    u: Field
    residual_norm: float
    apriori_ratio: float
    solver_stats: dict


@dataclass
class ConvergenceRow:
    h: float
    error_l2: float
    error_h01: float
    observed_order: float | None


@dataclass
class ConvergenceTable:
    rows: list[ConvergenceRow] = dc_field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["h,error_l2,error_h01,observed_order"]
        for r in self.rows:
            order = "" if r.observed_order is None else f"{r.observed_order:.4f}"
            lines.append(f"{r.h:.8e},{r.error_l2:.8e},{r.error_h01:.8e},{order}")
        return "\n".join(lines)

    @property
    def orders(self) -> list[float]:
        return [r.observed_order for r in self.rows if r.observed_order is not None]


@lru_cache(maxsize=16)
def _band_start(grid: GridSpec, pattern: bytes, w: int, kl: int, ku: int) -> tuple:
    """The wall rows _mode_band folds, kept per grid and pattern of rows.

    pattern is rows != 0, as bytes, rows holding the entry (i, j) at
    rows[w + i - j, j], so every problem on a grid whose rows have one
    pattern shares one plan.  The wall rows are the rows with an entry
    past the band, in fold order: those that reach right of the band
    first, from the last matrix row back to row 0, then those that reach
    only left of it, from row 0 on, and each row's folds clear its
    farthest entry right of the band first, then its farthest left of
    it: so a row is folded before it serves another, and a folded row
    adds nothing past the entry it clears.  Each wall row is (i, lo, the
    flat indices into rows of its entries on columns lo, lo + 1, ...,
    its in-band columns, its folds), a fold (j, by, row by's in-band
    columns).  A fold whose pivot row by still reaches past the band
    would subtract only the part of that row in the band, so it raises
    ValueError naming both rows and (kl, ku).
    """
    ny = grid.ny
    line, col = np.nonzero(np.frombuffer(pattern, dtype=bool).reshape(2 * w + 1, ny + 1))
    row = col + line - w
    right = sorted(set(row[line < w - ku].tolist()), reverse=True)
    plan, order = [], right + sorted(set(row[line > w + kl].tolist()) - set(right))
    for k, i in enumerate(order):
        lo, hi = min(col[row == i].min(), max(i - kl, 0)), max(col[row == i].max(), min(i + ku, ny))
        folds = [(j, j - ku) for j in range(hi, i + ku, -1)]
        folds += [(j, j + kl) for j in range(lo, i - kl)]
        if bad := [by for _, by in folds if by in order[k:]]:
            raise ValueError(f"the x-mode band (kl, ku) = ({kl}, {ku}) cannot fold row {i}:"
                             f" its pivot row {bad[0]} reaches past the band")
        cols, inband = np.arange(lo, hi + 1), np.arange(max(i - kl, 0), min(i + ku, ny) + 1)
        pivots = [(j, by, np.arange(max(by - kl, 0), min(by + ku, ny) + 1)) for j, by in folds]
        plan.append((i, int(lo), (w + i - cols) * (ny + 1) + cols, inband, pivots))
    return tuple(plan)


def _mode_band(grid: GridSpec, rows: np.ndarray, terms, kl: int, ku: int) -> tuple:
    """The y-systems of a problem's rfft x-modes, stacked and folded to the band (kl, ku).

    The problem commutes with the x-shift, so the rfft in x splits it
    into one (ny+1)-system per mode k.  Each holds the entries of rows,
    which holds them as LAPACK's band storage does, the entry (i, j) at
    rows[w + i - j, j] (rows has 2w + 1 lines and ny + 1 columns, w at
    least kl and ku), and for each (on, coefficient, symbol) of terms,
    in order, coefficient times symbol[k] is added to the diagonal of
    the rows on, a row or a slice of rows, coefficient one value per row
    of on (a scalar for one row) and symbol one entry per mode (a
    grid.x_symbol).
    _mode_problem reads all of it off the problem's record.

    Only the wall rows reach past the band (_band_start lists them).
    Each is folded in a buffer of its own, one line of modes per column
    it reaches, and then its in-band entries are written into the band:
    each entry (i, j) beyond the band, the farthest first, is cleared by
    row i -= m*(row by), by = j - ku right of the band and j + kl left
    of it, m the entry over by's entry at column j in each mode, and the
    cleared entry is left out of the band.  The same row operations on
    a right-hand side (_solve_modes) leave the solution unchanged.  A
    zero divisor raises PreconditionError naming the first mode it is
    zero in ("not foldable") before any division.

    Returns the band, s and the folds, each (i, by, m): band[s + i - j,
    k, j] is mode k's entry (i, j), and every entry outside a block is
    zero.  The band is exactly the storage its LAPACK routine reads: a
    tridiagonal one zgttrf's three lines (du, d, dl), s = 1, each laid
    out mode after mode; any other LAPACK's band storage, 2kl + ku + 1
    lines with the diagonal on line s = kl + ku and the first kl lines
    zero (the LU's fill), laid out column by column, which zgbtrf
    factors in place.
    """
    w, n = len(rows) // 2, 3 if kl == ku == 1 else 2 * kl + ku + 1
    s, shape, folds = n - 1 - kl, (grid.nx // 2 + 1, grid.ny + 1), []
    band = (np.empty((n, *shape), dtype=complex) if kl == ku == 1
            else np.empty((*shape, n), dtype=complex).transpose(2, 0, 1))
    band[...] = np.concatenate((np.zeros((s - ku, shape[1])), rows[w - ku : w + kl + 1]))[:, None]
    for on, coefficient, symbol in terms:
        band[s, :, on] += np.multiply.outer(symbol, coefficient)
    for i, lo, entries, inband, pivots in _band_start(grid, (rows != 0).tobytes(), w, kl, ku):
        row = np.full((len(entries), shape[0]), rows.reshape(-1)[entries][:, None], dtype=complex)
        row[i - lo] = band[s, :, i]  # the diagonal, with the terms: the one entry modes differ in
        for j, by, c in pivots:
            pivot = band[s + by - j, :, j]
            if not pivot.all():
                raise PreconditionError(f"WELLPOSEDNESS_SUSPECT: x-mode {np.argmin(pivot != 0)}"
                                        " is not foldable to its band (zero fold pivot)")
            m = row[j - lo] / pivot
            row[c[0] - lo : c[-1] + 1 - lo] -= m * band[s + by - c, :, c]
            folds.append((i, by, m))
        band[s + i - inband, :, inband] = row[inband[0] - lo : inband[-1] + 1 - lo]
    return band, s, folds


def _mode_lu(grid: GridSpec, rows: np.ndarray, terms, kl: int, ku: int) -> tuple:
    """One LAPACK LU of every x-mode system of a problem, folded by _mode_band.

    The folded systems are the diagonal blocks of one band matrix.  A
    tridiagonal band is factored with zgttrf, any other with
    zgbtrf(kl, ku): zgttrf costs a quarter to a half of zgbtrf(1, 1).
    Either routine factors the band's own memory, each of its lines
    read as one vector over every mode's columns.  Each block ends in
    the identity row, and the entries between blocks
    are exact zeros, so partial pivoting never swaps across a block
    boundary and the one call factors each block as a call of its own
    would, bit for bit.  A zero LU pivot raises PreconditionError
    (WELLPOSEDNESS_SUSPECT) naming its mode, the first singular one, as
    a loop over the modes would.

    Returns (factors, kl, ku, folds), as _solve_modes takes it: factors
    are zgttrf's (dl, d, du, du2, ipiv) or zgbtrf's (ab, ipiv), and
    folds _mode_band's row operations, each (row, by, m).
    """
    band, s, folds = _mode_band(grid, rows, terms, kl, ku)
    if kl == ku == 1:
        du, d, dl = band.reshape(3, -1)
        *factors, info = lapack.zgttrf(dl[:-1], d, du[1:], overwrite_dl=1, overwrite_d=1,
                                       overwrite_du=1)
    else:  # a view of the band: LAPACK's (2kl + ku + 1, N) in column order
        *factors, info = lapack.zgbtrf(band.reshape(len(band), -1), kl, ku, overwrite_ab=1)
    if info > 0:  # the pivot's 1-based row: the first singular mode's
        raise PreconditionError(
            f"WELLPOSEDNESS_SUSPECT: x-mode {(info - 1) // (grid.ny + 1)} is exactly singular")
    return tuple(factors), kl, ku, tuple(folds)


def _solve_modes(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """u with the problem's rows times u = rhs, through lu = _mode_lu(...).

    Every row of rhs is read.  One rfft in x, the fold's row operations
    on the spectrum, one zgttrs or zgbtrs call over every mode and one
    irfft.
    """
    factors, kl, ku, folds = lu
    spec = np.fft.rfft(rhs, axis=0)
    for row, by, m in folds:
        spec[:, row] -= m * spec[:, by]
    if kl == ku == 1:
        x = lapack.zgttrs(*factors, spec.reshape(-1, 1), overwrite_b=True)[0]
    else:  # factors = (ab, ipiv)
        x = lapack.zgbtrs(factors[0], kl, ku, spec.reshape(-1, 1), factors[1], overwrite_b=1)[0]
    return np.fft.irfft(x.reshape(spec.shape), n=rhs.shape[0], axis=0)


def _mode_problem(op: Rows) -> tuple:
    """A record whose coefficients do not depend on x (Rows) as _mode_band's problem.

    Returns (grid, rows, terms, kl, ku), read off the record: rows its
    lines, walls included, in band storage (Lines.band, built once per
    Lines), and terms each part along x as the rows it reaches, its
    coefficient there and its symbol, in order.  The band is the
    centred rows' reach, kl = ku: 1 for L, whose oblique row reaches
    columns 0..3 and is folded with rows 2 and then 1 to tridiagonal
    form, those folds dividing by the north weights of y-rows 2 and 1;
    2 for the Picard step, whose near rows and oblique row reach one
    node past its centred rows.
    """
    rows, kl = op.y.band
    return op.grid, rows, [(on, c, symbol) for on, c, _, symbol in op.x], kl, kl


# every solve's residual over all rows must be at most this times ||f||
RESIDUAL_TOL = 1e-10


def _gate(f: np.ndarray, u: np.ndarray, Nu: np.ndarray, alpha: float,
          grid: GridSpec) -> tuple[float, np.ndarray]:
    """The residual every linear solve answers to, N u = f its system.

    The solves are FactorizedOperator's, on each of its paths, and the
    Picard step's (nonlinear._solve_step).  Nu is N u over every row,
    walls included.  The residual r = f - N u is formed over every row
    with f's wall rows read as zero.  A product's oblique bottom row
    loses the u_y terms at a huge alpha, and would pass a wrong u, so
    that row is formed again with u_e - u_w taken first
    (operators._oblique_row).  Returns ||r|| and r; the solve passes
    when ||r|| <= RESIDUAL_TOL*||f||, which the caller tests.  The caller
    that raises builds the ResidualGateError from r, so a failed attempt
    that is not raised costs no error, and the refinement of
    FactorizedOperator.solve steps with r.  A finite right-hand side
    near the largest double can still overflow N u; that raises
    ValueError naming the right-hand side.
    """
    r = np.negative(Nu)
    r[:, 1:-1] += f[:, 1:-1]
    r[:, 0] = -_oblique_row(u, alpha, 1.0, grid)
    try:
        res = _l2_norm(grid, r)
    except GridError:  # r has the grid's shape, so it is not finite
        raise ValueError(
            f"the right-hand side (max |f| = {np.abs(f[:, 1:-1]).max():.3g}) overflows L u"
            f" on the {grid.nx}x{grid.ny} grid"
        ) from None
    return res, r


# Krylov steps before the Fourier-preconditioned path gives up for splu
GMRES_MAX_ITER = 40
# the Krylov residual estimate is driven this far below the gate: at the
# gate itself the answer can sit 5e-11 away from the LU solution
GMRES_MARGIN = 1e-2


class FactorizedOperator:
    """Factorization of L, reused for every right-hand side.

    The rfft in x splits the x-averaged operator, the record of L with K,
    A and B averaged over x (operators._L_rows), into nx//2 + 1 systems in
    y (_mode_problem).  The mode builder folds each one's oblique bottom
    row into tridiagonal form and factors all of them once, in one call
    of LAPACK's zgttrf (_mode_lu; partial pivoting: the diagonal is not
    dominant where K < 0).  When K, A and B do not depend on x, that is
    L itself.

    solve is iterative refinement with the mode LUs (Wilkinson 1963;
    Concus-Golub 1973) from u = 0, whose residual is the right-hand side,
    since its wall rows are zero.  Step k sets u <- u + M^-1 r, M the mode
    LUs and r _gate's residual: _solve_modes folds r's spectrum the same
    way and back-substitutes through the mode LUs, in one zgttrs call.  Step 0,
    the plain mode-LU solve, is always kept, and it ends the loop when
    the residual over every row, walls included, passes the gate (_gate,
    RESIDUAL_TOL*||f||), as it does for every x-independent set.  A later
    step is kept only if it at least halves ||r||; the loop ends when
    ||r|| reaches GMRES's target GMRES_MARGIN*RESIDUAL_TOL*||f||, when a
    step is rejected, or after GMRES_MAX_ITER later steps.  L depends on
    x only through eps*K, eps*A and eps*B, so at small eps each step
    leaves a few 1e-3 of the residual.
    When the refined u still fails the gate, one cycle of scipy's gmres
    (Saad-Schultz 1986) solves L e = r, right-preconditioned by the mode
    LUs: D L M^-1 D^-1 y = D r / s with D the square root of each y-row's
    quadrature weight, so its Euclidean norm is the gate's, and s = max|r|,
    so no square overflows; e = s M^-1 D^-1 y.  L is its record applied
    as the runs of its diagonals (operators.StencilL, the plan
    assemble_L writes too), built here, before the mode LUs: every row
    of L u is one product, bit for bit the assembled matrix's, from
    which _gate forms the residual.  Past GMRES_MAX_ITER
    steps, or when the gate still fails, the operator falls back for
    good to a sparse LU of the assembled L (operators.assemble_L),
    built only then;
    stats["fallback_reason"] says why.  A solve whose last path fails
    the gate raises ResidualGateError (WELLPOSEDNESS_SUSPECT), built here
    from _gate's residual, which names the rows holding most of the
    residual; an attempt that only hands the solve on builds none.

    method is "fourier" or "splu".  residual_norm is the last solve's
    residual over every row.  stats holds, for the last solve, residual
    (that residual over ||f||), refine_steps (refinement steps, the
    rejected one included), refine_residuals (the residual over ||f||
    after each of them), gmres_iterations (0 when refinement or the mode
    LUs alone passed the gate), gmres_residuals (GMRES's estimate after
    each step, over ||f||), matvecs (products with L), mode_solves
    (back-substitutions through the mode LUs; both are k + 1 after step 0
    and k later refinement steps, one per step, and k + s + 3 when s GMRES
    steps follow; a fallback to splu adds one product) and
    solve_s (its perf_counter time); and, from the constructor, the
    perf_counter times assemble_s (building L's record and its product, StencilL) and
    factor_s.  A singular factorization of L (a zero pivot of a mode
    LU), or a zero pivot of the fold, raises PreconditionError
    (WELLPOSEDNESS_SUSPECT) naming the mode; for an x-dependent L, where
    those modes are the averaged operator's, it only sends the operator
    to splu.
    """

    def __init__(self, cs: CoefficientSet):
        t0 = perf_counter()
        self.cs = cs
        self._L = StencilL(cs)
        t1 = perf_counter()
        self.stats: dict = {"assemble_s": t1 - t0, "matvecs": 0, "mode_solves": 0}
        self.method = "fourier"
        try:
            self._modes = _mode_lu(*_mode_problem(_L_rows(cs, mean=True)))
        except PreconditionError as exc:
            if all(cs.x_constant):
                raise
            self._fall_back(f"the x-averaged operator has no mode LU ({exc})")
        self.stats["factor_s"] = perf_counter() - t1

    def _fall_back(self, reason: str) -> None:
        self.method = "splu"
        self.stats["fallback_reason"] = reason
        try:
            self._lu = spla.splu(assemble_L(self.cs).tocsc())
        except RuntimeError as exc:  # singular factorization
            raise PreconditionError(f"WELLPOSEDNESS_SUSPECT: {exc}") from exc

    def _mode_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitution through the mode LUs, every row of rhs included."""
        self.stats["mode_solves"] += 1
        return _solve_modes(self._modes, rhs.reshape(self.cs.grid.shape))

    def _rows(self, u: np.ndarray) -> np.ndarray:
        """Every row of L times u, walls included, in the grid's shape."""
        self.stats["matvecs"] += 1
        return self._L @ u

    def solve(self, f: Field) -> Field:
        """u with L u = f on the interior rows and the homogeneous wall conditions."""
        t0 = perf_counter()
        g, alpha = self.cs.grid, self.cs.alpha
        rhs = f.values.copy()
        rhs[:, -1] = 0.0
        rhs[:, 0] = 0.0
        fnorm = l2_norm(f)
        gate = RESIDUAL_TOL * fnorm
        target = GMRES_MARGIN * gate
        steps, estimates, tried = 0, [], []
        self.stats.update(matvecs=0, mode_solves=0)
        if self.method == "fourier":
            # refinement from u = 0, whose residual is rhs (its wall rows are
            # zero): step k is u + M^-1 r, so step 0 is the plain mode-LU solve;
            # halving ends it long before GMRES's cap, which bounds the later
            # steps (a cap of 0 sends a set that fails the gate to splu)
            u, r = np.zeros(g.shape), rhs
            for k in range(GMRES_MAX_ITER + 1):
                trial = u + self._mode_solve(r)
                trial_res, trial_r = _gate(rhs, trial, self._rows(trial), alpha, g)
                tried.append(trial_res)
                # step 0 is kept; a later one must halve ||r||, so one that
                # stalls (the round-off floor, a slow contraction) or grows ends
                # the loop
                if k and trial_res > 0.5 * res:
                    break
                u, res, r = trial, trial_res, trial_r
                # the gate, not the target, after step 0: an exact LU's residual
                # sits at a round-off floor (1.7e-12*||f|| at 128^2) that more
                # steps do not lower
                if res <= (target if k else gate):
                    break
            if res > gate and GMRES_MAX_ITER:  # scipy's gmres takes no restart of 0
                # L e = r from the refined u, right-preconditioned by the mode LUs;
                # scaled by d per y-row, the Euclidean norm is the gate's, and by
                # s = max|r|, no square of a huge r overflows
                d, s = np.sqrt(_quadrature_row(g)), np.abs(r).max()
                scaled = spla.LinearOperator(
                    (r.size, r.size), dtype=float,
                    matvec=lambda y: d * self._rows(self._mode_solve(y.reshape(g.shape) / d)),
                )
                y, _ = spla.gmres(scaled, (d * r / s).ravel(), rtol=0.0, atol=target / s,
                                  restart=GMRES_MAX_ITER, maxiter=1, callback_type="pr_norm",
                                  callback=lambda rel: estimates.append(rel * res))
                steps = len(estimates)
                u = u + s * self._mode_solve(y.reshape(g.shape) / d)
                res, r = _gate(rhs, u, self._rows(u), alpha, g)
            if res > gate:
                if steps == GMRES_MAX_ITER:
                    self._fall_back(f"GMRES reached its cap of {GMRES_MAX_ITER} iterations")
                else:
                    self._fall_back(f"GMRES stopped above the residual gate {RESIDUAL_TOL:.1e}")
        if self.method == "splu":
            u = self._lu.solve(rhs.ravel()).reshape(g.shape)
            res, r = _gate(rhs, u, self._rows(u), alpha, g)
        self.residual_norm = res
        scale = fnorm if fnorm > 0 else 1.0
        refined = tried[1:]  # step 0 is the mode-LU solve, not a refinement step
        self.stats.update(
            refine_steps=len(refined),
            refine_residuals=[float(e / scale) for e in refined],
            gmres_iterations=steps,
            gmres_residuals=[float(e / scale) for e in estimates],
            residual=res / scale,
            solve_s=perf_counter() - t0,
        )
        if res > gate:
            raise ResidualGateError(res / scale, r, g, alpha)
        return Field(g, u)


def solve_linear(p: LinearProblem, *, require_conditions: bool = True) -> SolveReport:
    """Solve the closed boundary value problem L u = f (see FactorizedOperator).

    The admissibility gates are checked first; require_conditions=False
    downgrades a failed gate to a warning for counterexample probing.
    A singular factorization is surfaced as WELLPOSEDNESS_SUSPECT, and
    the operator gates the residual, which is the one the solve formed,
    over every row, walls included.  The a priori ratio is
    ||u||_0 / ||f||_{H^1}.
    """
    for gate in (check_condition7(p.cs), check_alpha(p.cs)):
        if not gate.passed:
            if require_conditions:
                raise PreconditionError(str(gate))
            warnings.warn(f"proceeding despite failed gate: {gate}", stacklevel=2)
    fac = FactorizedOperator(p.cs)
    u = fac.solve(p.f)
    fden = isotropic_norm(p.f, 1)
    ratio = isotropic_norm(u, 0) / fden if fden > 0 else 0.0
    stats = {"method": fac.method, "n": u.values.size, **fac.stats}
    return SolveReport(u, fac.residual_norm, ratio, stats)


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

@dataclass
class ManufacturedSolution:
    """Closed-form trial solution with the analytic derivatives L needs."""

    u: Callable
    ux: Callable
    uy: Callable
    uxx: Callable
    uyy: Callable

    def sample(self, grid: GridSpec) -> Field:
        return Field.from_function(grid, self.u)

    def forcing(self, cs: CoefficientSet) -> Field:
        """f = eps*K*uxx + uyy + eps*A*ux + eps*B*uy with analytic derivatives."""
        X, Y = cs.grid.meshes()
        vals = (
            cs.eps * cs.K.values * self.uxx(X, Y)
            + self.uyy(X, Y)
            + cs.eps * cs.A.values * self.ux(X, Y)
            + cs.eps * cs.B.values * self.uy(X, Y)
        )
        return Field(cs.grid, vals)

    def check_boundary(self, grid: GridSpec, alpha: float) -> None:
        """Raise unless u meets both walls' conditions to 1e-8 of its size."""
        x = grid.x
        top = np.abs(self.u(x, np.ones_like(x)))
        bottom = np.abs(
            alpha * self.ux(x, -np.ones_like(x)) + self.uy(x, -np.ones_like(x))
        )
        scale = max(1.0, float(np.max(np.abs(self.u(*grid.meshes())))))
        if top.max() > 1e-8 * scale or bottom.max() > 1e-8 * scale:
            raise BoundaryCompatibilityError(
                f"manufactured solution violates boundary conditions "
                f"(top {top.max():.2e}, bottom {bottom.max():.2e})"
            )


def polynomial_sine_solution() -> ManufacturedSolution:
    """sin(pi x) * (1 - y)(1 + y)^2: kills both boundary rows for every alpha."""

    def g(y):
        return 1.0 + y - y**2 - y**3

    def gp(y):
        return 1.0 - 2.0 * y - 3.0 * y**2

    def gpp(y):
        return -2.0 - 6.0 * y

    pi = np.pi
    return ManufacturedSolution(
        u=lambda x, y: np.sin(pi * x) * g(y),
        ux=lambda x, y: pi * np.cos(pi * x) * g(y),
        uy=lambda x, y: np.sin(pi * x) * gp(y),
        uxx=lambda x, y: -(pi**2) * np.sin(pi * x) * g(y),
        uyy=lambda x, y: np.sin(pi * x) * gpp(y),
    )


def mms_convergence(
    cs_factory: Callable[[GridSpec], CoefficientSet],
    u_star: ManufacturedSolution,
    grids: list[GridSpec],
) -> ConvergenceTable:
    """Refinement study against a manufactured solution.

    cs_factory rebuilds the coefficient fields on each grid; the forcing
    is evaluated from the analytic derivatives of u_star, never from
    finite differences of the sampled trial solution.  A failed
    admissibility gate only warns (see solve_linear).  An observed order
    needs two grids, and two in a row with the same h give none: such a
    list raises ValueError before any solve.
    """
    hs = [max(g.hx, g.hy) for g in grids]
    if len(hs) < 2 or any(a == b for a, b in zip(hs, hs[1:])):
        raise ValueError(f"an observed order needs two or more grids, no two in a row"
                         f" with the same h; got h = {hs}")
    u_star.check_boundary(grids[-1], cs_factory(grids[0]).alpha)
    table = ConvergenceTable()
    for g, h in zip(grids, hs):
        cs = cs_factory(g)
        f = u_star.forcing(cs)
        rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
        exact = u_star.sample(g)
        diff = Field(g, rep.u.values - exact.values)
        e2 = l2_norm(diff)
        eh = sobolev_norm(diff, NormOrder(0, 1))
        order = None
        if table.rows and e2 > 0 and table.rows[-1].error_l2 > 0:
            last = table.rows[-1]
            order = float(np.log2(last.error_l2 / e2) / np.log2(last.h / h))
        table.rows.append(ConvergenceRow(h, e2, eh, order))
    return table


# ---------------------------------------------------------------------------
# admissible sample fields
# ---------------------------------------------------------------------------

def _bottom_corrector(grid: GridSpec) -> tuple[np.ndarray, float]:
    """Profile chi with chi(-1) = chi(1) = 0 plus its discrete y-derivative at -1."""
    y = grid.y
    chi = -(1.0 + y) * (1.0 - y) ** 2 / 4.0
    d0 = float(chi[: len(_BOTTOM_DY)] @ _BOTTOM_DY / grid.hy)
    return chi, d0


def _enforce_boundary(grid: GridSpec, w: np.ndarray, alpha: float, sign: float) -> Field:
    """Project w onto the discrete kernel of the bottom condition.

    sign=+1 enforces alpha*u_x + u_y = 0, sign=-1 the adjoint version,
    both as operators._oblique_row forms them; the top row is forced to
    zero exactly.
    """
    w = w.copy()
    w[:, -1] = 0.0
    chi, d0 = _bottom_corrector(grid)
    w -= np.outer(_oblique_row(w, alpha, sign, grid), chi) * (sign / d0)
    return Field(grid, w)


def random_smooth_samples(
    grid: GridSpec,
    alpha: float,
    n: int,
    seed: int,
    *,
    adjoint: bool = True,
) -> list[Field]:
    """Seeded smooth fields satisfying the (adjoint) boundary conditions discretely.

    Tensor products of the Fourier modes |k| <= 4 in x and random cubics
    in y with a top zero factor, then a bottom boundary corrector.
    """
    rng = np.random.default_rng(seed)
    # the same values as on the (nx, ny+1) meshes, built once as vectors
    x, y = grid.x, grid.y
    top_zero, y2, y3 = 1.0 - y, y**2, y**3
    modes = [(np.sin(np.pi * k * x), np.cos(np.pi * k * x)) for k in range(5)]
    sign = -1.0 if adjoint else 1.0
    out = []
    for _ in range(n):
        w = np.zeros(grid.shape)
        for k, (sin_k, cos_k) in enumerate(modes):
            ak, bk = rng.standard_normal(2) / (1 + k)
            coef = rng.standard_normal(4)
            poly = top_zero * (coef[0] + coef[1] * y + coef[2] * y2 + coef[3] * y3)
            w += (ak * sin_k + bk * cos_k)[:, None] * poly
        out.append(_enforce_boundary(grid, w, alpha, sign))
    return out


# ---------------------------------------------------------------------------
# energy certificate
# ---------------------------------------------------------------------------

@dataclass
class EnergySample:
    ratio: float
    dual_constant: float
    aux_iterations: int


# on grids with nx*ny below this, the GIL hand-offs between two sample
# threads cost more than the second core gives (README, "How the energy
# certificate computes")
_CONCURRENT_MIN_NODES = 100 * 100


def _sample_workers(grid: GridSpec, n: int) -> int:
    """Threads for n energy samples: the usable CPUs, at most n, and 1 when
    nx*ny is below _CONCURRENT_MIN_NODES."""
    if grid.nx * grid.ny < _CONCURRENT_MIN_NODES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    return min(cpus, n)


def _energy_sample(cs: CoefficientSet, mt: MultiplierTriple, v: Field):
    """One sample of energy_certificate: its EnergySample and stage times."""
    m = mt.m
    t0 = perf_counter()
    aux = aux_solve_report(v, mt)
    u = aux.u
    t1 = perf_counter()
    lsv = apply_Lstar(cs, v)
    t2 = perf_counter()
    num = inner_product(lsv, u)
    den = sobolev_norm(u, NormOrder(m, 1)) ** 2
    t3 = perf_counter()
    neg_v = negative_norm(v, NormOrder(-(m + 1), 0))
    neg_lsv = negative_norm(lsv, NormOrder(-m, -1))
    t4 = perf_counter()
    ratio = num / den if den > 0 else np.inf
    dual = neg_v / neg_lsv if neg_lsv > 0 else np.inf
    times = {"aux_s": t1 - t0, **aux.stats, "lstar_s": t2 - t1,
             "energy_norm_s": t3 - t2, "dual_norm_s": t4 - t3}
    return EnergySample(ratio, dual, aux.iterations), times


def energy_certificate(
    cs: CoefficientSet,
    mt: MultiplierTriple,
    v_samples: list[Field],
) -> tuple[FormReport, list[EnergySample]]:
    """Measure (L* v, u) / ||u||^2_(m,1) over admissible samples v, u = M^{-1} v.

    Also reports the measured constant of ||v||_(-m-1,0) <=
    C^2 ||L* v||_(-m,-1).  A sample on another grid than cs raises
    ValueError naming both grids, before anything is built.  Zero
    samples are skipped, and ValueError is raised when no nonzero
    sample is left; positivity of every ratio is
    the certificate.  The samples run concurrently on _sample_workers
    threads, one contiguous chunk each: the first in the calling thread,
    the others in pool threads, each in a copy of the caller's context
    (np.errstate holds there).  What they share (L*'s coefficients
    cs.adjoint_pieces, the transport plan, the coupling factors and both
    Gram factorizations) is built first, here, and only read by them.
    The results are in input order.  A failing sample ends its chunk,
    the other chunks run out, and the call raises the exception of the
    first failing sample in input order.  The report's stats holds
    perf_counter sums over the samples: aux_s in the auxiliary solves,
    and within it transport_s and spectral_s (see AuxReport), lstar_s in
    L* v, energy_norm_s in (L* v, u) and ||u||_(m,1), dual_norm_s in the
    two negative norms; samples overlap in time, so these can sum to up
    to workers, the thread count, times wall_s, the time from dispatch
    to the joined results; and aux_iterations, one entry per sample.
    """
    for k, v in enumerate(v_samples):
        _check_grid(f"sample {k}", v.grid, cs)
    v_samples = [v for v in v_samples if l2_norm(v) > 0.0]
    if not v_samples:
        raise ValueError("energy_certificate: no nonzero sample was given")
    m, grid, n = mt.m, v_samples[0].grid, len(v_samples)
    # the shared factors, built in this thread before any sample reads them
    cs.adjoint_pieces, mt.transport_plan, mt.coupling
    for order in ((m + 1, 0), (m, 1)):
        _gram_factors(grid, *order)
    workers = _sample_workers(grid, n)

    def run(chunk):
        return [_energy_sample(cs, mt, v) for v in chunk]

    t0 = perf_counter()
    # one chunk per thread, the first in this one: a task per sample would
    # hand the GIL back here between samples, and a single chunk run in a
    # new thread costs more than it would here
    chunks = [v_samples[k * n // workers : (k + 1) * n // workers] for k in range(workers)]
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        futures = [pool.submit(copy_context().run, run, chunk) for chunk in chunks[1:]]
        results = run(chunks[0]) + [r for f in futures for r in f.result()]
    stats: dict = {k: sum(times[k] for _, times in results) for k in results[0][1]}
    stats.update(workers=workers, wall_s=perf_counter() - t0)
    samples = [s for s, _ in results]
    stats["aux_iterations"] = [s.aux_iterations for s in samples]

    ratios = np.array([s.ratio for s in samples])
    duals = np.array([s.dual_constant for s in samples])
    report = FormReport(stats=stats)
    report.add("energy_ratio", ratios, 0.0, ratios.min() > 0)
    report.add("dual_chain_Csq", duals, 0.0, np.isfinite(duals).all())
    return report, samples


# ---------------------------------------------------------------------------
# energy identity and uniqueness mirror
# ---------------------------------------------------------------------------

def identity18_residual(cs: CoefficientSet, mt: MultiplierTriple, u: Field) -> float:
    """|LHS - RHS| of the integrated multiplier identity for a field with Bu = 0.

    LHS is the quadrature pairing (a u_x + b u_y + c u, L u); RHS is the
    term-by-term evaluation of the interior quadratic form plus the
    n2-boundary integrals (n1 terms drop by periodicity).
    """
    g = cs.grid
    eps = cs.eps
    a, b, c = mt.a.values, mt.b.values, mt.c.values
    K, B = cs.K.values, cs.B.values

    ux = differentiate(u, "x", 1).values
    uy = differentiate(u, "y", 1).values
    lu = apply_L(cs, u)
    mult = Field(g, a * ux + b * uy + c * u.values)
    lhs = inner_product(mult, lu)

    g1, gmix, g2, g0 = _interior_coefficients(mt, cs)
    interior = eps * (
        inner_product(Field(g, 0.5 * g1 * ux), Field(g, ux))
        + inner_product(Field(g, gmix * ux), Field(g, uy))
        + inner_product(Field(g, 0.5 * g2 * uy), Field(g, uy))
        + inner_product(Field(g, 0.5 * g0 * u.values), Field(g, u.values))
    )

    cy = differentiate(mt.c, "y", 1).values
    uu = u.values
    # n2-signed boundary integrand, evaluated on each wall row
    integrand = (
        -0.5 * eps * b * K * ux**2
        + a * ux * uy
        + 0.5 * b * uy**2
        + c * uu * uy
        + 0.5 * (eps * c * B - cy) * uu**2
    )
    wall = Field(g, integrand)
    rhs = interior + boundary_integral(wall, "top") - boundary_integral(wall, "bottom")
    return abs(lhs - rhs)


def uniqueness_boundary_form(cs: CoefficientSet, mt: MultiplierTriple, u: Field) -> float:
    """Boundary quadratic expression of the uniqueness argument (nonnegative)."""
    g = cs.grid
    eps, alpha = cs.eps, cs.alpha
    alpha2 = alpha * alpha  # inf, not OverflowError, past 1.3e154
    if not isfinite(alpha2):
        raise AlphaRangeError(alpha, "alpha^2")
    uy = differentiate(u, "y", 1).values
    ux = differentiate(u, "x", 1).values
    cy = differentiate(mt.c, "y", 1).values
    cx = differentiate(mt.c, "x", 1).values
    a, b, c = mt.a.values, mt.b.values, mt.c.values
    K, B = cs.K.values, cs.B.values

    top = Field(g, 0.5 * b * uy**2)
    bottom = Field(
        g,
        0.5 * (eps * b * K + 2.0 * alpha * a - alpha2 * b) * ux**2
        + 0.5 * (cy - alpha * cx - eps * c * B) * u.values**2,
    )
    return boundary_integral(top, "top") + boundary_integral(bottom, "bottom")
