"""Discrete operators: the operator record and readers, adjoint pairing, transport, auxiliary solve.

An operator periodic in x and walled in y, L or the Picard step's N, is
one record (Rows): its parts along x, each a coefficient times a
stencil with its symbol on the rfft modes, and its lines (Lines), the
parts along y with their weights per y-row, the rows next to each wall
included.  The wall rows are parts too: the oblique bottom row
alpha*u_x + u_y, its u_x from the table _BOTTOM_DX (_bottom_ux) and its
u_y from _BOTTOM_DY, one-sided of third order, and the identity top row
(_wall_lines).  L's record (_L_rows) holds _interior_stencil's five
weights of eps*K*u_xx + u_yy + eps*A*u_x + eps*B*u_y, east and west
with L's own neighbour factors; the Picard step's holds the (2, 5)
entries of the stencil table (_table).  Every reader reads the record:
the x-mode band (Lines.band and the parts' symbols, which solver's
builder folds and factors); the product (StencilL), matrix-free, in
column order, bit for bit as the assembled matrix would, for a record
whose coefficients depend on x, and as line matrices for one whose do
not; and the matrix (assemble_L), stored as its diagonals, one per
(x-offset, y-offset) and one more per offset that wraps round the
seam, built only for a sparse LU and the tests.  The gate and the
samples form the oblique row themselves (_oblique_row), u_x differenced
before alpha scales it.  The operator and its formal adjoint are also
applied pointwise at every node, walls one-sided, with the same
x-stencils.  The first-order transport solver marches downward from
y = 1 with semi-Lagrangian steps and cubic periodic interpolation in
x, which keeps the march stable for any characteristic slope a/b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, isfinite
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coeffs import AlphaRangeError, CoefficientSet
from .grid import (
    Field,
    GridSpec,
    _apply_x,
    _apply_y,
    _denominator,
    _x_constant,
    boundary_integral,
    inner_product,
    l2_norm,
    mode_power,
    rfft_part_weights,
    stencil_matrix,
    x_symbol,
    x_terms,
)
from .multiplier import MultiplierTriple


class TransportError(ValueError):
    pass


class AuxNonContractionError(RuntimeError):
    def __init__(self, ratio: float):
        super().__init__(
            f"auxiliary iteration is not contracting (increment ratio {ratio:.3f});"
            " increase lambda"
        )
        self.ratio = ratio


# third-order one-sided first-derivative weights used by the oblique rows
_BOTTOM_DY = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0
# the oblique rows' 3-point centred u_x: (x-offset, weight over 2*hx) pairs
_BOTTOM_DX = ((1, 1.0), (-1, -1.0))


# ---------------------------------------------------------------------------
# the operator record: L's rows and the Picard step's, and their readers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Lines:
    """The parts along y of an operator record (Rows), its wall rows' included.

    Each part is (on, coefficient, stencil): row (i, j) of on adds
    coefficient * w * u[i, j + dy] for each (0, dy, w) of stencil.  on
    is slice(None), every row, with the coefficient one value per node,
    (nx, ny+1), or, where it does not depend on x, per y-row, (ny+1,),
    and zero on the wall rows; or a wall row j, with a scalar.  A part
    may take other offsets on the rows next to each wall, where the
    others' weights are 0 (the Picard step's near rows).  The lines are
    held apart from the parts along x so that a record whose lines stay,
    the Picard step's (_table), builds their band and matrix once.
    """

    grid: GridSpec
    parts: tuple

    @cached_property
    def band(self) -> tuple[np.ndarray, int]:
        """(rows, kl) of lines whose coefficients do not depend on x.

        rows holds them in LAPACK's band storage, the entry (i, j) at
        rows[w + i - j, j], w their reach; kl is their reach on the
        middle row, the band the centred rows fit in.
        """
        nyp = self.grid.ny + 1
        w = max(abs(dy) for _, _, stencil in self.parts for _, dy, _ in stencil)
        rows = np.zeros((2 * w + 1, nyp))
        for on, c, stencil in self.parts:
            for _, dy, weight in stencil:
                if isinstance(on, slice):
                    a, b = max(dy, 0), max(-dy, 0)
                    rows[w - dy, a : nyp - b] += c[b : nyp - a] * weight
                else:
                    rows[w - dy, on + dy] += c * weight
        # the middle row's entries (nyp // 2, j) at rows[k, nyp // 2 + w - k]
        return rows, max(abs(k - w) for k in range(2 * w + 1) if rows[k, nyp // 2 + w - k])

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The band's rows as one (ny+1, ny+1) matrix, for the line product (StencilL)."""
        rows = self.band[0][::-1]  # line k now holds diagonal k - w
        offsets = np.arange(len(rows)) - len(rows) // 2
        return sp.dia_matrix((rows, offsets), shape=(rows.shape[1],) * 2).tocsr()


@dataclass(frozen=True, eq=False)
class Rows:
    """An operator periodic in x and walled in y, as the rows it applies.

    Every reader reads this one record: the product (StencilL), the
    matrix (assemble_L) and the x-mode band (solver._mode_problem).
    x holds the parts along x, each (on, coefficient, stencil, symbol),
    on and coefficient as a part of the lines' (Lines), and stencil its
    (dx, 0, w) terms; y holds the lines.  Every coefficient is one value
    per node, or every one per y-row (a record whose coefficients do not
    depend on x).

    symbol keeps the grouping the x-mode band reads: the band adds
    coefficient * symbol to the diagonal of the rows on.  L's parts
    along x are its two neighbours, each with its own factor
    exp(+-i*theta), never bit-equal to grid.x_symbol of the unit shift
    (ROADMAP aim 2); the Picard step's is p(y) times the table's d_xx
    with its grid.x_symbol; and the oblique row's u_x is alpha/(2hx)
    times _BOTTOM_DX with its own (_bottom_ux).  The lines' entries go
    on the y-systems as they are.
    """

    grid: GridSpec
    x: tuple
    y: Lines


def _interior_stencil(K, A, B, eps: float, hx: float, hy: float) -> np.ndarray:
    """East, west, north, south and centre weights of the interior stencil
    of eps*K*u_xx + u_yy + eps*A*u_x + eps*B*u_y, written in place into
    one buffer, in that order.

    K, A and B hold whole y-lines, walls included, (..., ny+1); the
    buffer is (5, ..., ny+1), zero on the two wall nodes, so in the
    field's flat layout each weight is one run over every x-line.
    """
    w = np.empty((5, *np.shape(K)))
    east, west, north, south, centre = w
    np.multiply(K, eps, out=centre)
    centre /= hx**2  # kx
    np.multiply(A, eps, out=west)
    west /= 2 * hx  # ax
    np.multiply(B, eps, out=south)
    south /= 2 * hy  # by
    np.add(centre, west, out=east)
    np.subtract(centre, west, out=west)
    np.add(south, 1.0 / hy**2, out=north)
    np.subtract(1.0 / hy**2, south, out=south)
    centre *= -2.0
    centre -= 2.0 / hy**2
    w[..., 0] = w[..., -1] = 0.0
    return w


def _bottom_dx(alpha: float, hx: float) -> list[tuple[int, float]]:
    """_BOTTOM_DX's (x-offset, weight) pairs of alpha*u_x, alpha/(2*hx) taken in.

    Every record's oblique row reads them (_bottom_ux), so a weight
    that overflows raises one AlphaRangeError naming alpha for all.
    """
    half = alpha / (2 * hx)
    if not isfinite(half):
        raise AlphaRangeError(alpha, "the oblique row's x-weight alpha/(2*hx)")
    return [(off, w * half) for off, w in _BOTTOM_DX]


@lru_cache(maxsize=16)
def _bottom_ux(grid: GridSpec, alpha: float) -> tuple:
    """The oblique row's alpha*u_x, a part along x on row 0: _bottom_dx with its symbol.

    Kept per grid and alpha, as every operator and Picard step on them
    reads it; a raise is not kept.
    """
    ux = _bottom_dx(alpha, grid.hx)
    return 0, 1.0, tuple((dx, 0, w) for dx, w in ux), x_symbol(ux, grid.nx)


def _wall_lines(grid: GridSpec) -> tuple:
    """The wall rows' parts along y: the oblique row's u_y, _BOTTOM_DY/hy
    on the nodes 0..3 of row 0, and the identity on row ny."""
    uy = tuple((0, k, w) for k, w in enumerate(_BOTTOM_DY / grid.hy))
    return (0, 1.0, uy), (grid.ny, 1.0, ((0, 0, 1.0),))


def _L_rows(cs: CoefficientSet, mean: bool = False) -> Rows:
    """L's record: _interior_stencil's five weights, each one part, and the wall rows.

    East and west, in that order, carry their neighbour's factor
    exp(+-i*2*pi*k/nx) as their symbol.  With mean, K, A and B are
    averaged over x first (a field constant in x keeps its own row
    exactly), one value per y-row: the x-averaged L, whose x-mode band
    FactorizedOperator factors.
    """
    g, fields = cs.grid, (cs.K, cs.A, cs.B)
    K, A, B = ([c.values[0] if flat else c.values.mean(axis=0)
                for c, flat in zip(fields, cs.x_constant)] if mean else [c.values for c in fields])
    east, west, north, south, centre = _interior_stencil(K, A, B, cs.eps, g.hx, g.hy)
    shift, every = np.exp(1j * 2.0 * np.pi * np.arange(g.nx // 2 + 1) / g.nx), slice(None)
    x = ((every, east, ((1, 0, 1.0),), shift), (every, west, ((-1, 0, 1.0),), np.conj(shift)),
         _bottom_ux(g, cs.alpha))
    lines = ((every, c, ((0, dy, 1.0),)) for c, dy in ((south, -1), (centre, 0), (north, 1)))
    return Rows(g, x, Lines(g, (*lines, *_wall_lines(g))))


@lru_cache(maxsize=16)
def _table(key: tuple[int, int], grid: GridSpec) -> tuple:
    """A stencil of grid._X_STENCILS on the grid, each weight over the denominator.

    Returns (stencil, symbol, lines).  Along x, periodic: its terms
    (grid.x_terms) and their symbol (grid.x_symbol).  Along y, walled:
    one part per y-offset of grid.stencil_matrix, its weight per y-row
    that row's entry at that offset, near rows included, and 0 on the
    two wall rows, which hold the wall rows of every record
    (_wall_lines).
    """
    terms, m = x_terms(key, grid.hx), stencil_matrix(key, grid.ny + 1, True).toarray()
    m /= _denominator(key, grid.hy)
    m[[0, -1]] = 0.0
    y = tuple((slice(None), np.pad(np.diagonal(m, dy), (max(-dy, 0), max(dy, 0))), ((0, dy, 1.0),))
              for dy in range(1 - len(m), len(m)) if np.diagonal(m, dy).any())
    stencil = tuple((dx, 0, w) for dx, w in terms)
    return stencil, x_symbol(terms, grid.nx), Lines(grid, (*y, *_wall_lines(grid)))


def _terms(parts) -> dict:
    """The parts' terms summed per offset in order, {(dx, dy): weight}."""
    terms = {}
    for _, c, stencil, *_ in parts:
        for dx, dy, w in stencil:
            t = c if w == 1.0 else c * w
            terms[dx, dy] = terms[dx, dy] + t if (dx, dy) in terms else t
    return terms


@lru_cache(maxsize=16)
def _stencil_plan(nx: int, nyp: int, interior: tuple, walls: tuple) -> tuple:
    """StencilL's order of the terms on an nx x nyp grid, from their offsets.

    interior holds the interior terms' (dx, dy), walls (j, its terms'
    (dx, dy)) per wall row.  Returns (steps, walls): each step (rows, k,
    nodes) adds interior term k's weights on the flat rows times u on
    the flat nodes, in order; each wall row (j, nodes, order) gathers
    u's nodes (terms, x-lines) in column order, order the terms' index
    there.  A term at y-offset dy leaves out the first -dy or the last
    dy rows of each run, whose nodes would leave its x-lines: rows next
    to a wall, where that term's weight is 0.
    """
    steps = []
    cuts = sorted({0, nx} | {-dx % nx for dx, _ in interior})
    for lo, hi in zip(cuts, cuts[1:]):
        # a flat node index is its column, so the run's first row orders them
        for at, k in sorted(((lo + dx) % nx * nyp + dy, k) for k, (dx, dy) in enumerate(interior)):
            a, b = max(-interior[k][1], 0), max(interior[k][1], 0)
            rows, nodes = slice(lo * nyp + a, hi * nyp - b), at + a
            steps.append((rows, k, slice(nodes, nodes + rows.stop - rows.start)))
    plans = []
    for j, offsets in walls:
        dx, dy = np.array(offsets).T
        nodes = (np.arange(nx) + dx[:, None]) % nx * nyp + j + dy[:, None]
        order = np.argsort(nodes, axis=0)
        plans.append((j, np.take_along_axis(nodes, order, 0), order))
    return tuple(steps), tuple(plans)


def _runs(op: Rows) -> tuple[list, list]:
    """The record's terms in column order (_stencil_plan): (steps, walls).

    Each step (rows, weights, nodes) is a run of one interior term, a
    weight one value per y-row spread over the x-lines, and each wall
    row (j, nodes, weights) its terms gathered per x-line.
    """
    (nx, nyp), parts = op.grid.shape, (*op.x, *op.y.parts)
    interior = _terms(part for part in parts if isinstance(part[0], slice))
    walls = [(j, _terms(part for part in parts if part[0] == j))
             for j in sorted({on for on, *_ in parts if not isinstance(on, slice)})]
    steps, plans = _stencil_plan(nx, nyp, tuple(interior), tuple((j, tuple(t)) for j, t in walls))
    weights = [(w if w.ndim == 2 else np.broadcast_to(w, (nx, nyp))).reshape(-1)
               for w in interior.values()]
    return ([(rows, weights[k][rows], nodes) for rows, k, nodes in steps],
            [(j, nodes, np.array(list(t.values()))[order])
             for (j, nodes, order), (_, t) in zip(plans, walls)])


@lru_cache(maxsize=32)
def _x_matrix(nx: int, stencil: tuple) -> sp.csr_matrix:
    """A stencil along x on nx periodic nodes, its weights as they are, (nx, nx)."""
    return sp.csr_matrix(sum(w * np.roll(np.eye(nx), dx, axis=1) for dx, _, w in stencil))


class StencilL:
    """An operator's record (Rows; L's, _L_rows, for a CoefficientSet), applied.

    op @ u is every row of the operator times u, walls included, for u
    flat or in the grid's shape.  A record with a coefficient one value
    per node, L's, is applied matrix-free (Saad 2003), and op @ u
    equals assemble_L(op) @ u bit for bit on every row: each row starts
    from zero and adds its terms in the order of their columns, as
    scipy's product of the diagonals does.  A term's column x-node is
    (i + dx) mod nx, so that order is one order along each run of
    x-lines between the lines where a term wraps round the seam.  Over
    such a run each interior weight times u is one slice of the flat
    field; the wall rows it crosses have zero weights, so they keep
    their zero.  Each wall row then adds its terms, gathered per x-line
    in column order.  The order is kept per grid and offsets
    (_stencil_plan).

    A record whose coefficients do not depend on x, the Picard step's,
    is applied as line matrices: its lines as one (ny+1, ny+1) matrix
    (Lines.matrix, built once for lines that stay), and each part along
    x as its coefficient times an (nx, nx) matrix (_x_matrix) on the
    rows it covers.  So the step's N d is p*(D_xx d) + D_yy d, as the
    line matrices sum it, and equals assemble_L(op) @ u to round-off.
    Either path alone was measured slower end to end: the column order
    for the Picard step, whose eleven terms each take a pass over the
    field, made the perfbench picard workload a third slower, and the
    diagonals for L, built for every operator, made linear a third
    slower (CHANGES.md).
    """

    def __init__(self, op):
        op = _L_rows(op) if isinstance(op, CoefficientSet) else op
        nx, _ = self.shape = op.grid.shape
        self._y = None if np.ndim(op.x[0][1]) == 2 else op.y.matrix  # per node: column order
        if self._y is None:
            self._steps, self._walls = _runs(op)
        else:
            self._x = [(on, c, _x_matrix(nx, stencil)) for on, c, stencil, _ in op.x]

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        if self._y is not None:
            v = u.reshape(self.shape)
            (_, c, m), *walls = self._x  # the interior part first, then the wall rows'
            out = c * (m @ v)
            out += (self._y @ v.T).T
            for on, c, m in walls:
                out[:, on] += c * (m @ v[:, on])
            return out.reshape(u.shape)
        flat = u.reshape(-1)
        out = np.zeros(flat.shape)
        for rows, w, nodes in self._steps:
            part = out[rows]
            part += w * flat[nodes]
        for j, nodes, w in self._walls:
            part = out[j :: self.shape[1]]
            for term in w * flat[nodes]:
                part += term
        return out.reshape(u.shape)


def assemble_L(op) -> sp.dia_matrix:
    """An operator's record (Rows; L's for a CoefficientSet) as a sparse matrix.

    Rows and columns follow the field's layout, (i, j) -> i*(ny+1) + j,
    so the matrix is stored as its diagonals (Saad 2003, sec. 3.4), read
    off the record's terms in StencilL's column order (_runs), a weight
    one value per y-row spread over the x-lines: each interior step is a
    run of one diagonal, offset nodes - rows, and each wall row's entry
    lies on the diagonal of its column less its row.  A term at
    x-offset dx and y-offset dy is so on diagonal dx*(ny+1) + dy, and on
    the |dx| x-lines where dx wraps round the seam on its twin
    (dx -+ nx)*(ny+1) + dy.  Each diagonal holds column c's entry at c,
    the rest zeros.  The offsets are sorted, so row r's entries, at
    columns r + offset, come in column order, and scipy's product adds
    them in that order, as a CSR product does; on a finite u the zeros
    leave its sums' bits as they are.  At a huge alpha the oblique
    row's u_y terms round away (see _oblique_row).  The linear solve
    builds it only for its sparse LU, and the tests read it as the
    matrix of L and of the Picard step's N.
    """
    op = _L_rows(op) if isinstance(op, CoefficientSet) else op
    (steps, walls), n, diagonals = _runs(op), op.grid.nx * (op.grid.ny + 1), {}
    for rows, w, nodes in steps:
        diagonals.setdefault(nodes.start - rows.start, np.zeros(n))[nodes] = w
    for j, nodes, w in walls:  # after the steps: their zero weights cross the wall rows
        offsets = nodes - np.arange(j, n, op.grid.ny + 1)
        for o in np.unique(offsets).tolist():
            diagonals.setdefault(o, np.zeros(n))[nodes[offsets == o]] = w[offsets == o]
    offsets = sorted(diagonals)
    return sp.dia_matrix((np.array([diagonals[o] for o in offsets]), offsets), shape=(n, n))

# ---------------------------------------------------------------------------
# differential application (all rows, one-sided at the walls)
# ---------------------------------------------------------------------------

def _apply(grid, K, first_x, first_y, zero_order, eps: float, v: np.ndarray) -> Field:
    """eps*K*v_xx + v_yy + eps*first_x*v_x + eps*first_y*v_y (+ zero_order*v).

    The stencils are the 3-point ones of grid._X_STENCILS, those of the
    assembled matrix: periodic in x (_apply_x), one-sided at the walls
    in y (_apply_y).  zero_order None leaves that term out: L has none.
    """
    out = eps * K * _apply_x((2, 3), v, grid.hx) + _apply_y((2, 3), v, grid.hy)
    out += eps * first_x * _apply_x((1, 3), v, grid.hx)
    out += eps * first_y * _apply_y((1, 3), v, grid.hy)
    if zero_order is not None:
        out += zero_order * v
    return Field(grid, out)


def apply_L(cs: CoefficientSet, u: Field) -> Field:
    """Pointwise application of the operator at every node (no boundary rows)."""
    return _apply(u.grid, cs.K.values, cs.A.values, cs.B.values, None, cs.eps, u.values)


def apply_Lstar(cs: CoefficientSet, v: Field) -> Field:
    """Pointwise application of the formal adjoint at every node.

    Its coefficients are cs.adjoint_pieces, built once per set.
    """
    return _apply(v.grid, cs.K.values, *cs.adjoint_pieces, cs.eps, v.values)


@lru_cache(maxsize=16)
def _bottom_dx_gather(nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Per x-node of an nx-wide grid, the x-nodes at _BOTTOM_DX's offsets, and its weights.

    Keyed on nx, not on the GridSpec: hashing that dataclass would cost a
    few per cent of each _oblique_row call.
    """
    offsets, weights = zip(*_BOTTOM_DX)
    return (np.arange(nx)[:, None] + offsets) % nx, np.array(weights)


def _oblique_row(values: np.ndarray, alpha: float, sgn: float, grid: GridSpec) -> np.ndarray:
    """alpha*u_x + sgn*u_y on the bottom row of values, per x-node.

    sgn = +1 is the forward condition, -1 the adjoint one.  u_x's
    weighted sum over _BOTTOM_DX's nodes (u_e - u_w) is taken before
    alpha scales it, so where u_x is zero the u_y terms survive at any
    finite alpha (the assembled row sums alpha/(2hx)*u_w, the y-terms
    and alpha/(2hx)*u_e in turn, and loses them once alpha/(2hx)*|u| is
    about 1/eps_mach times their size).
    """
    nodes, weights = _bottom_dx_gather(grid.nx)
    ux0 = np.dot(values[:, 0][nodes], weights)
    ux0 /= 2.0 * grid.hx
    ux0 *= alpha
    ux0 += sgn * (values[:, : len(_BOTTOM_DY)] @ _BOTTOM_DY / grid.hy)
    return ux0


def adjoint_defect(cs: CoefficientSet, u: Field, v: Field) -> float:
    """(L* v, u) - (v, L u) minus the bottom-wall eps*B*u*v pairing term.

    With the B-term folded into the discrete pairing, the defect tends to
    zero under refinement whenever u satisfies the forward and v the
    adjoint boundary conditions.
    """
    lhs = inner_product(apply_Lstar(cs, v), u) - inner_product(v, apply_L(cs, u))
    buv = Field(cs.grid, cs.B.values * u.values * v.values)
    return lhs - cs.eps * boundary_integral(buv, "bottom")


# ---------------------------------------------------------------------------
# semi-Lagrangian transport
# ---------------------------------------------------------------------------

def _cubic_stencil(pos: np.ndarray, hx: float, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of cubic periodic Lagrange interpolation at pos.

    pos has shape (..., nx); nodes and weights come back with shape
    (..., 4, nx), the nodes i-1..i+2 around the cell i that holds pos.
    """
    t = (pos + 1.0) / hx
    i1 = np.floor(t).astype(int)
    s = t - i1
    idx = np.stack([(i1 + k) % nx for k in (-1, 0, 1, 2)], axis=-2)
    wts = np.stack(
        [
            -s * (s - 1.0) * (s - 2.0) / 6.0,
            (s * s - 1.0) * (s - 2.0) / 2.0,
            -s * (s + 1.0) * (s - 2.0) / 2.0,
            s * (s * s - 1.0) / 6.0,
        ],
        axis=-2,
    )
    return idx, wts


def _combine(wts: np.ndarray, nodal: np.ndarray) -> np.ndarray:
    return (wts * nodal).sum(axis=-2)


class TransportPlan:
    """Semi-Lagrangian plan for a*w_x + b*w_y + c*w = rhs, w(x, 1) = 0.

    The march runs from y = 1 downward.  Per step the characteristic foot
    on the upper level is located with a Heun predictor and the ODE along
    the characteristic is closed with the trapezoid rule, giving
    second-order accuracy in hy.  With P_j the cubic periodic
    interpolation of level j + 1 at the feet of level j, the step from
    level j + 1 down to level j is

        (1 - beta*c_j/b_j) w_j - (1 + beta*P_j(c/b)) P_j w
            = -beta*(r_j/b_j + P_j(r/b)),        beta = hy/2.

    Over all levels, with the unknowns level by level (the column-major
    order of a field), that is march @ w = -source @ r, with identity
    rows and zero data for the top level.  Everything that depends only
    on (a, b, c) is in these two sparse matrices, built once here.  Each
    level reads only itself and the level above, so march is upper
    triangular with a diagonal block per level: SuperLU in the natural
    order with no pivoting factors it with no fill, and solve() is one
    compiled back-substitution.  stats holds the factorization time
    factor_s and the factor's nonzeros lu_nnz.
    """

    def __init__(self, a: Field, b: Field, c: Field):
        g = a.grid
        bvals = b.values
        if np.any(bvals == 0.0) or (bvals.min() < 0.0 < bvals.max()):
            raise TransportError("b must be nonzero of one sign throughout the cylinder")
        at = (a.values / bvals).T
        ct = (c.values / bvals).T
        bt = bvals.T
        hx, hy = g.hx, g.hy
        beta = 0.5 * hy
        upper = np.arange(1, g.ny + 1)[:, None, None]
        k1 = at[:-1]
        idx, wts = _cubic_stencil(g.x + hy * k1, hx, g.nx)
        k2 = _combine(wts, at[upper, idx])
        idx, wts = _cubic_stencil(g.x + beta * (k1 + k2), hx, g.nx)
        up = 1.0 + beta * _combine(wts, ct[upper, idx])
        # the rows of the levels below the top, shape (ny, nx, 5): the node
        # itself, then its four feet on the level above
        nstep, n = g.ny * g.nx, (g.ny + 1) * g.nx
        cols = np.empty((g.ny, g.nx, 5), dtype=np.int32)
        cols[..., 0] = np.arange(nstep).reshape(g.ny, g.nx)
        cols[..., 1:] = np.swapaxes(idx + g.nx * upper, 1, 2)
        march = np.empty(cols.shape)
        march[..., 0] = 1.0 - beta * ct[:-1]
        march[..., 1:] = np.swapaxes(-up[:, None, :] * wts, 1, 2)
        source = np.empty(cols.shape)
        source[..., 0] = beta / bt[:-1]
        source[..., 1:] = np.swapaxes(beta * wts / bt[upper, idx], 1, 2)
        indptr = np.r_[np.arange(0, 5 * nstep, 5), np.arange(5 * nstep, 5 * nstep + g.nx + 1)]
        indptr = indptr.astype(np.int32)
        self.march = sp.csr_matrix(
            (
                np.concatenate([march.ravel(), np.ones(g.nx)]),
                np.concatenate([cols.ravel(), np.arange(nstep, n, dtype=np.int32)]),
                indptr,
            ),
            shape=(n, n),
        )
        self.source = sp.csr_matrix(
            (source.ravel(), cols.ravel(), np.minimum(indptr, 5 * nstep)), shape=(n, n)
        )
        self.march.sort_indices()  # splu sorts what it is given in place
        t0 = perf_counter()
        # march's CSR arrays are the CSC arrays of its transpose, which is
        # factored instead; solve() asks for the transposed system.  relax=1
        # stores no padded supernodes; panel_size=1 keeps SuperLU's
        # workspace to about 1 MB at 128^2, several times less than the default
        self._lu = spla.splu(
            self.march.T, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1, panel_size=1
        )
        self.stats = {"factor_s": perf_counter() - t0, "lu_nnz": int(self._lu.nnz)}
        self.grid = g

    def solve(self, rhs: Field) -> Field:
        g = self.grid
        r = -(self.source @ rhs.values.ravel(order="F"))
        r[-g.nx :] = 0.0
        w = self._lu.solve(r, trans="T")
        return Field(g, np.ascontiguousarray(w.reshape(g.shape, order="F")))

    def residual(self, rhs: Field, w: Field) -> Field:
        """Residual of the discrete transport recurrence at w, per unit hy."""
        g = self.grid
        res = self.march @ w.values.ravel(order="F") + self.source @ rhs.values.ravel(order="F")
        res[-g.nx :] = 0.0
        return Field(g, np.ascontiguousarray((res / g.hy).reshape(g.shape, order="F")))


def transport_solve(
    a: Field,
    b: Field,
    c: Field,
    rhs: Field,
) -> Field:
    """Solve a*w_x + b*w_y + c*w = rhs with w(x, 1) = 0.

    One plan, used once: the library's callers keep theirs on the
    triple (MultiplierTriple.transport_plan).
    """
    return TransportPlan(a, b, c).solve(rhs)


# ---------------------------------------------------------------------------
# auxiliary operator M and its fixed-point iteration
# ---------------------------------------------------------------------------

# the auxiliary passes stop once an increment is this small against the first
AUX_TOL = 1e-10


def _wavenumbers(grid: GridSpec) -> np.ndarray:
    # the modes exp(i pi n x), n >= 0, of the real FFT on the period-2 cylinder
    return np.pi * np.fft.rfftfreq(grid.nx, d=1.0 / grid.nx)


def _to_physical(spec: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.fft.irfft(spec, n=grid.nx, axis=0)


def _recovery_denominator(grid: GridSpec, lam: float, m: int) -> np.ndarray:
    xi = _wavenumbers(grid)
    return sum(lam**-s * xi ** (2 * s) for s in range(m + 1))


class CouplingFactors:
    """What every auxiliary pass with one triple reuses (MultiplierTriple.coupling).

    denom is the recovery symbol sum_s lam^-s (pi k)^{2s} per rfft mode,
    as a column; da[l - 1] is the spectral d_x^l a, l = 1..m, from one
    rfft of a, and symbols[l - 1] the column sum_{s>=l} C(s,l) (-1)^s
    lam^-s (i pi k)^{2s-l+1} that multiplies u's spectrum in the terms
    sharing d_x^l a (see _coupling_rhs).  couples is False for m = 0,
    which has no terms, and for an a constant in x (grid._x_constant,
    the exact per-line test of CoefficientSet.x_constant), whose every
    d_x^l a is 0: da is then empty and no FFT is taken.  The coupling
    is then exactly zero, and one auxiliary pass is the fixed point.
    lam^-s is a float64 power, so a tiny lam whose symbols overflow
    raises AlphaRangeError naming lambda.
    """

    def __init__(self, a: Field, lam: float, m: int):
        g = a.grid
        ik = 1j * _wavenumbers(g)[:, None]
        lam = np.float64(lam)
        with np.errstate(over="ignore", invalid="ignore"):
            self.denom = _recovery_denominator(g, lam, m)[:, None]
            self.symbols = [
                sum(comb(s, l) * (-1.0) ** s * lam**-s * ik ** (2 * s - l + 1)
                    for s in range(l, m + 1))
                for l in range(1, m + 1)
            ]
        if not all(np.isfinite(v).all() for v in (self.denom, *self.symbols)):
            raise AlphaRangeError(lam, "the recovery and coupling symbols", "lambda")
        self.couples = m > 0 and not _x_constant(a.values)
        a_spec = np.fft.rfft(a.values, axis=0) if self.couples else None
        self.da = [_to_physical(a_spec * ik**l, g) for l in range(1, m + 1) if self.couples]


def _coupling_rhs(spec: np.ndarray, cf: CouplingFactors, grid: GridSpec) -> np.ndarray:
    """Lagged terms sum_{s,l>=1} C(s,l) (-1)^s lam^-s (d_x^l a)(d_x^{2s-l+1} u).

    spec is u's real spectrum along x, so no transform of u is taken:
    near the Nyquist mode u's coefficients are w's divided by the
    recovery symbol, and a round trip through physical space would put
    round-off there that the coupling multiplies back up.  The terms
    that share d_x^l a take one inverse transform.
    """
    out = np.zeros(grid.shape)
    for da, symbol in zip(cf.da, cf.symbols):
        out += da * _to_physical(symbol * spec, grid)
    return out


@dataclass
class AuxReport:
    """What the auxiliary fixed point did.

    stats holds perf_counter sums over the passes: transport_s in the
    transport solves, spectral_s in the Fourier recovery and coupling.
    w is the collapsed unknown the last pass transported, from which u
    was recovered.
    """

    u: Field
    w: Field
    iterations: int
    increments: list[float]
    ratios: list[float]
    converged: bool
    stats: dict

    @property
    def contraction_ratio(self) -> float:
        """Representative measured ratio of successive increments."""
        return max(self.ratios) if self.ratios else 0.0


def aux_solve_report(v: Field, mt: MultiplierTriple, max_iter: int = 200) -> AuxReport:
    """Fixed-point solve of the auxiliary problem M u = v with u(x,1) = 0.

    Each pass transports the collapsed unknown w = sum_s (-1)^s lam^-s
    d_x^{2s} u downward and recovers u's real spectrum along x through
    the symbol sum_s lam^-s (pi k)^{2s} >= 1.  The only coupling between
    passes runs through x-derivatives of a, taken from that spectrum.  A
    pass's increment is the quadrature norm of the change in that
    spectrum, by Parseval, and u is taken back to physical space once,
    when the passes stop: once an increment falls to AUX_TOL times the
    first, or after the first pass when the triple has nothing to couple
    (mt.coupling.couples is False: m = 0, or a constant in x), since a
    second pass would transport the same right-hand side.  So m = 0 and
    x-independent multipliers converge in one pass.  Each pass after the
    first adds the ratio of its increment to the one before, unless that
    one is zero; when the last five ratios are all >= 1 (a NaN ratio
    counts as below 1), the passes are not contracting, and
    AuxNonContractionError is raised with the last ratio.  Both rules
    read the report's own increments and ratios.  max_iter below 1
    raises ValueError.  The transport plan and the coupling factors are
    mt.transport_plan and mt.coupling, built once per triple.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    g = v.grid
    plan = mt.transport_plan
    stats = {"transport_s": 0.0, "spectral_s": 0.0}

    cf = mt.coupling
    part_weights = rfft_part_weights(g)
    increments: list[float] = []
    ratios: list[float] = []
    spec = None  # the zero first iterate has no coupling
    converged = False
    for it in range(1, max_iter + 1):
        t0 = perf_counter()
        rhs = v if spec is None else Field(g, v.values - _coupling_rhs(spec, cf, g))
        t1 = perf_counter()
        w = plan.solve(rhs)
        t2 = perf_counter()
        new_spec = np.fft.rfft(w.values, axis=0) / cf.denom
        step = new_spec if spec is None else new_spec - spec
        delta = float(np.sqrt(mode_power(step, g.nx, part_weights).sum() / g.nx))
        spec = new_spec
        stats["transport_s"] += t2 - t1
        stats["spectral_s"] += (t1 - t0) + (perf_counter() - t2)
        increments.append(delta)
        if len(increments) >= 2 and increments[-2] > 0:
            ratios.append(delta / increments[-2])
        # a NaN ratio is not >= 1, so it breaks the run
        if len(ratios) >= 5 and all(q >= 1.0 for q in ratios[-5:]):
            raise AuxNonContractionError(ratios[-1])
        if delta <= AUX_TOL * max(increments[0], np.finfo(float).tiny) or not cf.couples:
            converged = True
            break
    t0 = perf_counter()
    u = Field(g, _to_physical(spec, g))
    stats["spectral_s"] += perf_counter() - t0
    return AuxReport(u, w, it, increments, ratios, converged, stats)


def aux_equation_residual(rep: AuxReport, v: Field, mt: MultiplierTriple) -> float:
    """Relative residual of the discrete auxiliary equation at rep's fixed point.

    Evaluates the transport recurrence at the w the last pass
    transported, with the lagged coupling rebuilt from w's own spectrum
    over the recovery symbol; small values certify that rep.u is the
    fixed point of the discretized problem.  That is the well-conditioned
    direction: rebuilding w from u instead multiplies u's round-off by
    the symbol, up to 2.6e10 at 256^2 with lam = 1 and m = 2.
    """
    g = rep.w.grid
    cf = mt.coupling
    spec = np.fft.rfft(rep.w.values, axis=0) / cf.denom
    rhs = Field(g, v.values - _coupling_rhs(spec, cf, g))
    res = mt.transport_plan.residual(rhs, rep.w)
    scale = l2_norm(v)
    return l2_norm(res) / scale if scale > 0 else l2_norm(res)
