"""Multiplier construction and numeric certificates for its sign claims.

The energy method pairs the equation with a*u_x + b*u_y + c*u.  Here

    a = alpha * phi,   b = 1,   c = -eps^{1/2} + eps^{3/4} (3y + y^2),

with phi solving the first-order column ODE

    alpha*phi_y + eps*alpha*B*phi = eps*(A - K_x),   phi(x,-1) = 1,

which is exactly the choice that kills the mixed u_x u_y coefficient in
the energy identity; solve_phi takes phi from the ODE's exact solution.
The report operations evaluate every interior and boundary
quadratic-form coefficient appearing in that identity and compare the
pointwise minima against the claimed lower bounds, with the paper's
unnamed order constants taken as the factor SLACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coeffs import AlphaRangeError, CoefficientSet, check_alpha
from .grid import Field, differentiate


# a claimed lower bound c*eps^p is tested as SLACK*eps^p, and the bottom
# c-term as lying within (1 -/+ SLACK)*eps^{3/4}
SLACK = 0.5


class AlphaDegenerateError(ValueError):
    pass


class AlphaConditionError(RuntimeError):
    pass


@dataclass
class MultiplierTriple:
    a: Field
    b: Field
    c: Field
    phi: Field
    lam: float
    m: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.m < 0:
            raise ValueError("m must be a nonnegative integer")
        if np.any(self.b.values == 0.0):
            raise ValueError("b must be nonzero everywhere")

    @cached_property
    def transport_plan(self):
        """operators.TransportPlan(a, b, c), built on first use and kept.

        Every auxiliary solve with this triple transports along the same
        characteristics, so they share one plan.  a, b and c are not to
        be changed in place once it is built.
        """
        from .operators import TransportPlan  # operators imports this module

        return TransportPlan(self.a, self.b, self.c)

    @cached_property
    def coupling(self):
        """operators.CouplingFactors(a, lam, m), built on first use and kept.

        The recovery symbol, the x-derivatives of a and the coupling
        symbols of the auxiliary passes depend only on the triple, so
        every auxiliary solve with it reads them from here.
        """
        from .operators import CouplingFactors

        return CouplingFactors(self.a, self.lam, self.m)


@dataclass
class FormEntry:
    min: float
    max: float
    claimed_bound: float
    passed: bool


@dataclass
class FormReport:
    """Labelled form checks; stats holds what the producing call measured
    (see solver.energy_certificate), and is empty otherwise."""

    entries: dict[str, FormEntry] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def add(self, label: str, values: np.ndarray, bound: float, passed) -> None:
        """Enter values' min and max under label, with the claimed bound and the verdict."""
        entry = FormEntry(float(values.min()), float(values.max()), bound, bool(passed))
        self.entries[label] = entry

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries.values())

    def to_text(self) -> str:
        lines = []
        for label, e in self.entries.items():
            status = "pass" if e.passed else "FAIL"
            lines.append(
                f"{label}: min={e.min:.6e} max={e.max:.6e} "
                f"bound={e.claimed_bound:.6e} {status}"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["label,min,max,claimed_bound,passed"]
        for label, e in self.entries.items():
            lines.append(
                f"{label},{e.min:.10e},{e.max:.10e},{e.claimed_bound:.10e},{e.passed}"
            )
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# phi ODE
# ---------------------------------------------------------------------------

def _running_integral(f: np.ndarray, h: float) -> np.ndarray:
    """int_{-1}^{y_j} of nodal columns: each cell integrates the cubic
    through its four nearest nodes, which is Simpson's rule on the cubic
    midpoint value."""
    cells = np.empty((f.shape[0], f.shape[1] - 1))
    cells[:, 1:-1] = -f[:, :-3] + 13.0 * f[:, 1:-2] + 13.0 * f[:, 2:-1] - f[:, 3:]
    w_first = np.array([9.0, 19.0, -5.0, 1.0])
    cells[:, 0] = f[:, :4] @ w_first
    cells[:, -1] = f[:, -4:] @ w_first[::-1]
    out = np.zeros_like(f)
    np.cumsum(cells * (h / 24.0), axis=1, out=out[:, 1:])
    return out


def solve_phi(cs: CoefficientSet) -> Field:
    """phi from the exact solution of its ODE, phi_y + eps*B*phi = q:

        phi = e^{-P} (1 + int_{-1}^y q e^P),  P = int_{-1}^y eps*B,

    q = eps*(A - K_x)/alpha, both integrals taken by _running_integral
    (exact for cubics).  K_x is differentiate's, exactly 0 where K is
    constant in x (grid._X_STENCILS sums its pairs first).  At
    alpha = 0 the ODE degenerates: phi = 1 solves it when A = K_x, and
    any other set raises AlphaDegenerateError.  A finite alpha whose phi
    overflows raises AlphaRangeError.
    """
    g = cs.grid
    forcing = cs.A.values - differentiate(cs.K, "x", 1).values
    if cs.alpha == 0.0:
        if np.any(forcing != 0.0):
            raise AlphaDegenerateError("at alpha = 0 the phi ODE needs A = K_x (then phi = 1)")
        return Field.constant(g, 1.0)
    P = _running_integral(cs.eps * cs.B.values, g.hy)
    with np.errstate(over="ignore", invalid="ignore"):
        q = cs.eps * forcing / cs.alpha  # in this order, A = K_x gives q = 0 at any alpha
        phi = np.exp(-P) * (1.0 + _running_integral(q * np.exp(P), g.hy))
    if not np.isfinite(phi).all():
        raise AlphaRangeError(cs.alpha, "phi")
    return Field(g, phi)


def build_abc(
    cs: CoefficientSet, lam: float = 10.0, m: int = 1, *, require_alpha: bool = True
) -> MultiplierTriple:
    """Assemble the multiplier triple (a, b, c) = (alpha*phi, 1, c) with its phi field.

    phi, and its alpha = 0 rule, come from solve_phi.  require_alpha=False
    skips the strict alpha gate (used when probing deliberately
    degenerate configurations).
    """
    if require_alpha:
        rep = check_alpha(cs)
        if not rep.passed:
            raise AlphaConditionError(str(rep))
    g = cs.grid
    phi = solve_phi(cs)
    with np.errstate(over="ignore"):
        a_vals = cs.alpha * phi.values
    # the auxiliary transport steps a foot by hy*a/b = hy*a along x per
    # level; past 2**52 cells of width hx a double keeps no fraction of a
    # cell to interpolate at
    if not g.hy * np.abs(a_vals).max() < 2.0**52 * g.hx:
        raise AlphaRangeError(
            cs.alpha, f"the transport's step along x: 2**52 cells or more on the {g.nx}x{g.ny} grid"
        )
    a = Field(g, a_vals)
    b = Field.constant(g, 1.0)
    _, Y = g.meshes()
    c = Field(g, -cs.eps**0.5 + cs.eps**0.75 * (3.0 * Y + Y**2))
    return MultiplierTriple(a, b, c, phi, lam, m)


# ---------------------------------------------------------------------------
# form certificates
# ---------------------------------------------------------------------------

def _interior_coefficients(mt: MultiplierTriple, cs: CoefficientSet):
    """The u_x^2, u_x u_y, u_y^2 and u^2 coefficients of the interior form.

    The energy identity weights them by eps/2, eps, eps/2 and eps/2.
    """
    eps = cs.eps
    g = cs.grid
    a, b, c = mt.a.values, mt.b.values, mt.c.values
    K, A, B = cs.K.values, cs.A.values, cs.B.values

    def dx(vals, order=1):
        return differentiate(Field(g, vals), "x", order).values

    def dy(vals, order=1):
        return differentiate(Field(g, vals), "y", order).values

    # a_y evaluated through the phi ODE itself: a_y = eps(A - K_x) - eps*B*a.
    # Differencing the computed phi numerically would reintroduce an O(h^2)
    # truncation error that the multiplier construction is designed to
    # cancel; the ODE right side gives the derivative of the exact phi
    # directly, so the mixed-term cancellation below holds to roundoff.
    a_y = eps * (A - dx(K)) - eps * B * a
    ux2 = dy(b * K) - 2.0 * c * K - dx(a * K) + 2.0 * a * A
    mixed = b * A - dx(b * K) - a_y / eps - a * B
    uy2 = (dx(a) - dy(b) - 2.0 * c) / eps + 2.0 * b * B
    u2 = dx(c * K, 2) + dy(c, 2) / eps - dx(c * A) - dy(c * B)
    return ux2, mixed, uy2, u2


def interior_form_report(mt: MultiplierTriple, cs: CoefficientSet) -> FormReport:
    """Evaluate the four interior quadratic-form coefficients of the energy identity.

    Lower-bound claims are tested against SLACK * (leading term); the
    mixed u_x u_y coefficient is tested against an absolute roundoff
    budget since its cancellation is exact.
    """
    eps = cs.eps
    ux2, mixed, uy2, u2 = _interior_coefficients(mt, cs)
    uy2_bound, u2_bound = SLACK * eps**-0.5, SLACK * eps**-0.25
    report = FormReport()
    report.add("ux2_coeff", ux2, -1e-10, ux2.min() >= -1e-10)
    report.add("mixed_coeff", mixed, 1e-8, np.abs(mixed).max() <= 1e-8)
    report.add("uy2_coeff", uy2, uy2_bound, uy2.min() >= uy2_bound)
    report.add("u2_coeff", u2, u2_bound, u2.min() >= u2_bound)
    return report


def boundary_form_report(mt: MultiplierTriple, cs: CoefficientSet) -> FormReport:
    """Certify the bottom-wall 2x2 quadratic form and the c-term sign.

    The form matrix per x-node is [[alpha*a + eps*b*K/2, alpha*b/2],
    [alpha*b/2, b/2]] at y = -1; its determinant reduces to
    (alpha^2 + eps*K(x,-1))/4 when phi(x,-1) = 1.
    """
    eps, alpha = cs.eps, cs.alpha
    a0 = mt.a.values[:, 0]
    b0 = mt.b.values[:, 0]
    K0 = cs.K.values[:, 0]

    e11 = alpha * a0 + 0.5 * eps * b0 * K0
    e22 = 0.5 * b0
    e12 = 0.5 * alpha * b0
    det = e11 * e22 - e12**2
    tr = e11 + e22
    eig_min = 0.5 * (tr - np.sqrt((e11 - e22) ** 2 + 4.0 * e12**2))

    cy0 = differentiate(mt.c, "y", 1).values[:, 0]
    aB = Field(cs.grid, mt.a.values * cs.B.values)
    cterm = cy0 + eps * (
        mt.c.values[:, 0] * cs.B.values[:, 0] - differentiate(aB, "x", 1).values[:, 0]
    )

    lo = (1.0 - SLACK) * eps**0.75
    hi = (1.0 + SLACK) * eps**0.75
    report = FormReport()
    report.add("bottom_det", det, 0.0, det.min() > 0.0)
    report.add("bottom_min_eig", eig_min, 0.0, eig_min.min() > 0.0)
    report.add("bottom_cterm", cterm, lo, cterm.min() >= lo and cterm.max() <= hi)
    return report
