"""Discrete cylinder geometry, finite-difference calculus and quadrature.

The domain is the rectangle |x| < 1, |y| < 1 with the vertical sides
x = -1 and x = +1 identified, so every field is 2-periodic in x.  The
x direction carries nx nodes (no duplicated seam column); the y
direction carries ny cells, hence ny+1 nodes including both walls
y = -1 and y = +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on the periodic cylinder."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise GridError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")

    @property
    def hx(self) -> float:
        return 2.0 / self.nx

    @property
    def hy(self) -> float:
        return 2.0 / self.ny

    @property
    def x(self) -> np.ndarray:
        """x-nodes, -1 + i*hx for i = 0..nx-1 (seam not duplicated)."""
        return -1.0 + self.hx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        """y-nodes, -1 + j*hy for j = 0..ny (both walls included)."""
        return -1.0 + self.hy * np.arange(self.ny + 1)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """X, Y arrays of shape (nx, ny+1)."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny + 1)

    def y_weights(self) -> np.ndarray:
        """Trapezoid weights along y (length ny+1)."""
        w = np.full(self.ny + 1, self.hy)
        w[0] = w[-1] = 0.5 * self.hy
        return w


def make_grid(nx: int, ny: int) -> GridSpec:
    return GridSpec(int(nx), int(ny))


@dataclass
class Field:
    """Scalar function sampled at the grid nodes, shape (nx, ny+1).

    x-periodicity is implicit through cyclic indexing; there is no
    duplicated seam column.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise GridError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(vals).all():
            raise GridError("field contains non-finite entries")
        self.values = vals

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        X, Y = grid.meshes()
        return cls(grid, np.asarray(fn(X, Y), dtype=float) + np.zeros(grid.shape))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))


def _check_same_grid(*fields: Field) -> GridSpec:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridError("fields live on different grids")
    return g


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

# Every line stencil, keyed by (derivative order, points): integer weights
# w over offset pairs j, a centre weight, the near rows (integer weights
# over the nodes 0, 1, ... of a line's first nodes) and the scale s of
# the denominator s*h**order.  The centred derivative at node i is
#     (sum over the pairs of w*(v[i+j] -+ v[i-j]) + centre*v[i]) / denominator,
# - for a first and + for a second derivative.  A walled line takes the
# near rows on its first len(near) nodes and, on its last, the near rows
# mirrored times (-1)**order.  The 5-point rows, near rows included, are
# exact on quartics.  _apply_x sums the pairs before it adds the centre
# term, so a field constant in x gets exactly zero: a difference pair is
# w*0, and the sum pairs' w*2c add up to 2c or 30c, which rounds as the
# centre term -2c or -30c does, with its sign flipped.
_X_STENCILS = {
    (1, 3): (((1, 1),), 0, ((-3, 4, -1),), 2.0),
    (2, 3): (((1, 1),), -2, ((2, -5, 4, -1),), 1.0),
    (1, 5): (((1, 8), (2, -1)), 0, ((-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1)), 12.0),
    (2, 5): (((1, 16), (2, -1)), -30, ((35, -104, 114, -56, 11), (11, -20, 6, 4, -1)), 12.0),
}


def _denominator(stencil: tuple[int, int], h: float) -> float:
    # formed as (s*h)*h, as the stencils always formed it: that can round
    # apart from s*h**2
    return _X_STENCILS[stencil][3] * h * h ** (stencil[0] - 1)


def _centred(stencil: tuple[int, int]) -> list[tuple[int, int]]:
    """The (offset, integer weight) terms of a stencil's centred row,
    from the highest offset down."""
    pairs, centre, _, _ = _X_STENCILS[stencil]
    return [*pairs[::-1], (0, centre), *((-j, (-1) ** stencil[0] * w) for j, w in pairs)]


def _x_stencil(order: int, nx: int) -> tuple[int, int]:
    # differentiate's stencil: the fourth-order one aliases itself on fewer
    # than 5 columns, so the minimal grid falls back to second order
    return order, 5 if nx >= 5 else 3


def _apply_x(stencil: tuple[int, int], v: np.ndarray, hx: float) -> np.ndarray:
    """The stencil of _X_STENCILS, keyed (order, points), along axis 0 of v.

    Periodic in that axis.  Each pair is formed by three slice
    operations into one of two buffers (the rows whose nodes stay
    inside, then the two ends that wrap round the seam), so no pair
    makes a temporary.
    """
    pairs, centre, _, _ = _X_STENCILS[stencil]
    n, combine = v.shape[0], np.subtract if stencil[0] == 1 else np.add
    out, part = np.empty_like(v), np.empty_like(v)
    for k, (j, w) in enumerate(pairs):
        dst = part if k else out
        combine(v[2 * j :], v[: n - 2 * j], out=dst[j : n - j])
        combine(v[j : 2 * j], v[n - j :], out=dst[:j])
        combine(v[:j], v[n - 2 * j : n - j], out=dst[n - j :])
        if w != 1:
            dst *= w
        if k:
            out += part
    if centre:
        out += np.multiply(v, centre, out=part)
    out /= _denominator(stencil, hx)
    return out


def _sum_terms(terms, out=None) -> np.ndarray:
    """The sum of a*w over the (array a, weight w) terms, added in their order.

    A term of negative weight is subtracted as a*|w|, which rounds as
    adding a*w does, and a weight of +-1 multiplies nothing.
    """
    (a, w), *rest = terms
    out = np.multiply(a, w, out=out)
    for a, w in rest:
        (np.add if w > 0 else np.subtract)(out, a if abs(w) == 1 else a * abs(w), out=out)
    return out


def _apply_y(stencil: tuple[int, int], v: np.ndarray, hy: float) -> np.ndarray:
    """The stencil of _X_STENCILS, keyed (order, points), along axis 1 of v.

    Walled in that axis.  The centred row runs along the flattened array,
    one slice per term, summed from the highest offset down; that is
    right on every inner node, and the entries it leaves on the outer
    nodes straddle two lines.  Those are overwritten by the near rows
    and their mirrors, formed for both walls at once on the gathered
    outer columns, each summed from the wall inward.
    """
    near = _X_STENCILS[stencil][2]
    n, k, reach, sign = v.shape[1], len(near), len(near[0]), (-1) ** stencil[0]
    flat, size = v.reshape(-1), v.size
    out = np.empty(v.shape, v.dtype)
    terms = [(flat[k + j : size - k + j], w) for j, w in _centred(stencil) if w]
    _sum_terms(terms, out.reshape(-1)[k:-k])
    # (line, wall, c): node c and, times (-1)**order, node n-1-c
    ends = np.concatenate((v[:, :reach], sign * v[:, :-reach - 1:-1]), 1).reshape(-1, 2, reach)
    for r, row in enumerate(near):
        wall = _sum_terms([(ends[..., c], w) for c, w in enumerate(row)])
        out[:, r : n - r : n - 1 - 2 * r] = wall
    out /= _denominator(stencil, hy)
    return out


@lru_cache(maxsize=32)
def stencil_matrix(stencil: tuple[int, int], n: int, walled: bool) -> sp.csr_matrix:
    """The integer weights of a stencil of _X_STENCILS on a line of n nodes, (n, n).

    Row i holds the weights of the derivative at node i: periodic, the
    centred row on every node, wrapped; walled, the rows _apply_y
    applies, the near rows on the first len(near) nodes and their
    mirrors on the last.  Callers divide by the stencil's denominator.
    """
    near = _X_STENCILS[stencil][2]
    mirror, k = (-1) ** stencil[0], len(near)
    m = sum(w * np.roll(np.eye(n), off, axis=1) for off, w in _centred(stencil))
    if walled:
        m[:k] = [row + (0,) * (n - len(row)) for row in near]
        m[n - k :] = mirror * m[k - 1 :: -1, ::-1]
    return sp.csr_matrix(m)


def stencil_product(stencil: tuple[int, int], v: np.ndarray, h: float, walled: bool) -> np.ndarray:
    """stencil_matrix on the nodes of axis 0 of v, times v, over the denominator.

    Each row adds its terms in column order; on the identity it gives
    each weight over the denominator, the stencil's dense matrix.
    """
    d = stencil_matrix(stencil, v.shape[0], walled) @ v
    d /= _denominator(stencil, h)
    return d


def x_terms(stencil: tuple[int, int], hx: float) -> list[tuple[int, float]]:
    """The (x-offset, weight) terms of a stencil of _X_STENCILS, each weight
    over the denominator, as x_symbol takes them."""
    return [(off, w / _denominator(stencil, hx)) for off, w in _centred(stencil)]


def x_symbol(terms, nx: int) -> np.ndarray:
    """The symbol on the rfft modes of the periodic x-stencil sum w*v[i+off].

    terms are its (x-offset, weight) pairs: x_terms of a table stencil,
    or the oblique row's operators._bottom_dx.  The symbol is the rfft
    of the stencil's action on the unit column e_0, whose entry -off is
    w: for a table stencil, what _apply_x gives on e_0, bit for bit.
    """
    offsets, weights = zip(*terms)
    return np.fft.rfft(np.bincount(-np.array(offsets) % nx, weights, minlength=nx))


def _x_constant(values: np.ndarray) -> bool:
    """Does values take one value along every x-line?  Each line is
    tested against the next, exactly."""
    return bool((values[1:] == values[:-1]).all())


def differentiate(u: Field, axis: str, order: int) -> Field:
    """Finite-difference partial derivative.

    axis is "x" or "y"; order is 1 or 2.  In x: the periodic 5-point
    stencil of _X_STENCILS (the 3-point one below 5 columns), applied by
    _apply_x, so a field constant in x has exactly zero x-derivatives.
    In y: the walled 3-point stencil, one-sided second order at
    y = +-1, applied by _apply_y.
    """
    if axis == "x" and order in (1, 2):
        return Field(u.grid, _apply_x(_x_stencil(order, u.grid.nx), u.values, u.grid.hx))
    if axis == "y" and order in (1, 2):
        return Field(u.grid, _apply_y((order, 3), u.values, u.grid.hy))
    raise GridError(f"axis must be 'x' or 'y' and order 1 or 2, got {axis!r} and {order!r}")


def derivative_st(u: Field, s: int, t: int) -> Field:
    """Mixed derivative d^s/dx^s d^t/dy^t for 0 <= s, t <= 2.

    Second derivatives use the direct second-order stencil, not a
    composition of first differences.
    """
    if not (0 <= s <= 2 and 0 <= t <= 2):
        raise GridError("derivative orders are limited to 0..2 per direction")
    out = u
    if s:
        out = differentiate(out, "x", s)
    if t:
        out = differentiate(out, "y", t)
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _quadrature_row(grid: GridSpec) -> np.ndarray:
    """hx * y_weights(), read-only: the weight of each y-row's sum over x."""
    w = grid.hx * grid.y_weights()
    w.flags.writeable = False
    return w


def _weighted_sum(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    # the products summed over x per y-row, then one dot with the row weights
    return float(np.einsum("ij,ij->j", u, v) @ _quadrature_row(grid))


def inner_product(u: Field, v: Field) -> float:
    """L2(Omega) inner product: rectangle rule in x, trapezoid in y."""
    g = _check_same_grid(u, v)
    return _weighted_sum(g, u.values, v.values)


def _root_of_squares(squares, u: Field) -> float:
    """sqrt(squares(u)) for a sum of squares of quantities linear in u.

    A finite u above about 1e154 overflows the squares; that sum is
    formed again from u / max|u| and its root scaled back, so a norm
    that is finite unscaled keeps its bits.
    """
    with np.errstate(over="ignore"):
        total = squares(u)
    if np.isfinite(total):
        return float(np.sqrt(max(total, 0.0)))
    top = float(np.abs(u.values).max())
    return top * float(np.sqrt(squares(Field(u.grid, u.values / top))))


def _l2_norm(grid: GridSpec, values: np.ndarray) -> float:
    """l2_norm of an array of the grid's shape, for callers that hold no Field.

    A finite sum of squares means every entry is finite; otherwise the
    array goes through Field, which raises GridError on a non-finite
    entry, and _root_of_squares rescales one that overflows.
    """
    total = _weighted_sum(grid, values, values)
    if np.isfinite(total):
        return float(np.sqrt(total))
    return _root_of_squares(lambda w: inner_product(w, w), Field(grid, values))


def l2_norm(u: Field) -> float:
    """The L2(Omega) norm, sqrt(inner_product(u, u)), finite for every finite u.

    The products are summed with one cached weight row per grid
    (_weighted_sum); a field whose squares overflow is rescaled by its
    largest entry first (_root_of_squares), and a non-finite entry
    raises GridError.
    """
    return _l2_norm(u.grid, u.values)


def strip_inner_product(u: Field, v: Field, y_min: float, y_max: float) -> float:
    """Quadrature of u*v restricted to the strip y_min <= y <= y_max.

    The strip edges must coincide with grid nodes (within roundoff);
    trapezoid weights are rebuilt for the sub-interval.  A strip of zero
    width gives 0.0, and reversed edges raise GridError.
    """
    g = _check_same_grid(u, v)
    y = g.y
    j0 = int(np.argmin(np.abs(y - y_min)))
    j1 = int(np.argmin(np.abs(y - y_max)))
    if abs(y[j0] - y_min) > 1e-9 or abs(y[j1] - y_max) > 1e-9:
        raise GridError("strip edges must lie on grid nodes")
    if j1 < j0:
        raise GridError(f"strip edges reversed: y_min = {y_min:g} > y_max = {y_max:g}")
    if j1 == j0:
        return 0.0
    wy = np.full(j1 - j0 + 1, g.hy)
    wy[0] = wy[-1] = 0.5 * g.hy
    block = u.values[:, j0 : j1 + 1] * v.values[:, j0 : j1 + 1]
    return float(g.hx * np.sum(block * wy[None, :]))


def boundary_integral(w: Field, side: str) -> float:
    """Periodic rectangle-rule integral of w over the row y = +1 or y = -1.

    The outward-normal sign convention (n2 = +1 on top, -1 on bottom) is
    the caller's business.
    """
    if side == "top":
        row = w.values[:, -1]
    elif side == "bottom":
        row = w.values[:, 0]
    else:
        raise GridError(f"side must be 'top' or 'bottom', got {side!r}")
    return float(w.grid.hx * np.sum(row))


def rfft_part_weights(grid: GridSpec) -> np.ndarray:
    """Weights of the real and imaginary parts of one x-mode of a field's
    rfft along x, side by side: the quadrature weights along y times hx,
    each twice (see mode_power)."""
    return np.repeat(_quadrature_row(grid), 2)


def mode_power(spec: np.ndarray, nx: int, part_weights: np.ndarray) -> np.ndarray:
    """Quadrature power of each x-mode of a field, from its rfft along x.

    spec is np.fft.rfft(values, axis=0) of an (nx, ny+1) field and
    part_weights is rfft_part_weights(grid).  Each rfft mode 0 < k < nx/2
    stands for itself and -k, so by Parseval the powers sum to nx times
    the field's l2_norm squared.
    """
    parts = np.ascontiguousarray(spec).view(float)
    power = (parts * parts) @ part_weights
    power[1 : (nx + 1) // 2] *= 2.0
    return power


# ---------------------------------------------------------------------------
# difference quotients
# ---------------------------------------------------------------------------

def diff_quotient(u: Field, q: float) -> Field:
    """Vertical difference quotient (u(x, y+q) - u(x, y)) / q.

    q must be a nonzero integer multiple of hy.  Rows whose shifted node
    y+q would leave the closed strip |y| <= 1 are set to zero; callers
    measuring norms should restrict to an interior strip (see
    strip_inner_product), where the quotient is exact.
    """
    g = u.grid
    k = q / g.hy
    kj = int(round(k))
    if kj == 0 or abs(k - kj) > 1e-9:
        raise GridError("q must be a nonzero integer multiple of hy")
    out = np.zeros(g.shape)
    if kj > 0:
        out[:, : -kj or None] = (u.values[:, kj:] - u.values[:, :-kj]) / q
    else:
        out[:, -kj:] = (u.values[:, : kj] - u.values[:, -kj:]) / q
    return Field(g, out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_field(u: Field, path) -> None:
    """Write CSV: one row per fixed y, columns are the x-nodes."""
    g = u.grid
    with open(path, "w") as fh:
        fh.write(f"# nx={g.nx} ny={g.ny}\n")
        for j in range(g.ny + 1):
            fh.write(",".join(f"{v:.17g}" for v in u.values[:, j]))
            fh.write("\n")


def load_field(path) -> Field:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise GridError(f"{path}: missing '# nx=.. ny=..' header")
        try:
            parts = dict(tok.split("=") for tok in header[1:].split())
            nx, ny = int(parts["nx"]), int(parts["ny"])
        except (ValueError, KeyError) as exc:
            raise GridError(f"{path}: malformed header {header!r}") from exc
        rows = [
            [float(tok) for tok in line.split(",")]
            for line in fh
            if line.strip()
        ]
    vals = np.array(rows, dtype=float)
    if vals.shape != (ny + 1, nx):
        raise GridError(
            f"{path}: data shape {vals.shape} does not match header ({ny + 1}, {nx})"
        )
    return Field(make_grid(nx, ny), vals.T.copy())
