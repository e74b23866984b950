"""Coefficient bundles and the admissibility conditions they must satisfy.

A CoefficientSet fixes the operator

    L u = eps*K*u_xx + u_yy + eps*A*u_x + eps*B*u_y

together with the oblique-derivative constant alpha.  Three pointwise
checks gate the solver: the interior sign condition on K_y, the strict
lower bound on alpha^2 at the bottom wall, and the directional-derivative
condition on a raw curvature field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite

import numpy as np

from .grid import (Field, GridSpec, _apply_x, _apply_y, _x_constant, _x_stencil, differentiate,
                   load_field)


class AlphaRangeError(ValueError):
    """alpha, or the setting name that alpha is formed from, has a value
    that is finite, but a quantity the program forms from it overflows."""

    def __init__(self, value: float, quantity: str, name: str = "alpha"):
        super().__init__(f"{name} = {value:g} overflows {quantity}")


@dataclass
class CoefficientSet:
    K: Field
    A: Field
    B: Field
    eps: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        g = self.K.grid
        if self.A.grid != g or self.B.grid != g:
            raise ValueError("K, A, B must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.K.grid

    @cached_property
    def x_constant(self) -> tuple[bool, bool, bool]:
        """Does each of K, A and B take one value along every x-line?

        Tested once per set (grid._x_constant: each line against the
        next) and kept: the fields are not changed after the set is built.
        """
        return tuple(_x_constant(c.values) for c in (self.K, self.A, self.B))

    @cached_property
    def adjoint_pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L*'s coefficients of v_x and v_y (times eps) and of v (operators.apply_Lstar).

        2*K_x - A, -B and eps*(K_xx - A_x - B_y), built on first use and
        kept, as x_constant is.
        """
        Kx = differentiate(self.K, "x", 1).values
        Kxx = differentiate(self.K, "x", 2).values
        Axd = differentiate(self.A, "x", 1).values
        Byd = differentiate(self.B, "y", 1).values
        return 2.0 * Kx - self.A.values, -self.B.values, self.eps * (Kxx - Axd - Byd)


@dataclass
class ConditionReport:
    condition_name: str
    pointwise_min_margin: float
    argmin_location: tuple[float, float]
    passed: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        x, y = self.argmin_location
        return (
            f"{self.condition_name}: {status}  min margin {self.pointwise_min_margin:.6e}"
            f" at (x,y)=({x:+.4f},{y:+.4f})"
        )


def _min_report(name: str, margin: np.ndarray, grid: GridSpec, strict: bool) -> ConditionReport:
    flat = int(np.argmin(margin))
    i, j = np.unravel_index(flat, margin.shape)
    mn = float(margin[i, j])
    passed = mn > 0.0 if strict else mn >= 0.0
    return ConditionReport(name, mn, (float(grid.x[i]), float(grid.y[j])), passed)


def check_condition7(cs: CoefficientSet) -> ConditionReport:
    """Interior sign condition K_y - alpha*K_x + 2*alpha*A >= eps^{1/4}(|K_x|+|K|+|A|).

    K_x and K_y are differentiate's stencils (grid._apply_x, _apply_y),
    and the margin is formed in place with the formula's operations in
    its order.  A K_x or K_y that overflows raises differentiate's
    GridError, any other overflow AlphaRangeError.
    """
    g, K, A = cs.grid, cs.K.values, cs.A.values
    Kx = _apply_x(_x_stencil(1, g.nx), K, g.hx)
    margin = _apply_y((1, 3), K, g.hy)  # K_y
    term = np.empty_like(margin)
    with np.errstate(over="ignore", invalid="ignore"):
        margin -= np.multiply(Kx, cs.alpha, out=term)
        margin += np.multiply(A, 2.0 * cs.alpha, out=term)
        np.abs(Kx, out=Kx)
        Kx += np.abs(K, out=term)
        Kx += np.abs(A, out=term)
        Kx *= cs.eps**0.25
        margin -= Kx
    if not np.isfinite(margin).all():
        differentiate(cs.K, "x", 1), differentiate(cs.K, "y", 1)  # GridError if they overflow
        raise AlphaRangeError(cs.alpha, "the condition-7 margin")
    return _min_report("condition7", margin, g, strict=False)


def check_alpha(cs: CoefficientSet) -> ConditionReport:
    """Strict bottom-wall condition alpha^2 > -eps * min_x K(x,-1)."""
    kmin = float(cs.K.values[:, 0].min())
    margin = cs.alpha * cs.alpha + cs.eps * kmin  # inf, not OverflowError, past 1.3e154
    if not isfinite(margin):
        raise AlphaRangeError(cs.alpha, "alpha^2")
    i = int(np.argmin(cs.K.values[:, 0]))
    return ConditionReport(
        "alpha_condition",
        margin,
        (float(cs.grid.x[i]), -1.0),
        margin > 0.0,
    )


def condition7prime_margin(K: Field, V: tuple[Field, Field], eps: float) -> Field:
    """Margin field of the directional condition grad_V K >= eps(|grad K| + |K|)."""
    Kx = differentiate(K, "x", 1).values
    Ky = differentiate(K, "y", 1).values
    V1, V2 = V
    margin = (
        V1.values * Kx
        + V2.values * Ky
        - eps * (np.sqrt(Kx**2 + Ky**2) + np.abs(K.values))
    )
    return Field(K.grid, margin)


def check_condition7prime(K: Field, V: tuple[Field, Field], eps: float) -> ConditionReport:
    margin = condition7prime_margin(K, V, eps)
    return _min_report("condition7prime", margin.values, K.grid, strict=False)


# ---------------------------------------------------------------------------
# coefficient presets
# ---------------------------------------------------------------------------

def _flat_exp(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, identically 0 for t <= 0 (infinite-order flat)."""
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def _tricomi(X, Y):
    return Y


def _infinite_order(X, Y):
    return _flat_exp(Y) - _flat_exp(-Y)


def _wedge(X, Y):
    # wall slope kept below ~0.5 so the finite-difference margin of the
    # interior sign condition stays positive through the flat transition
    w = 0.15 * (1.0 - np.cos(np.pi * X))
    return _flat_exp(Y - w) - _flat_exp(-Y - w)


def _chaplygin(X, Y):
    return np.sinh(Y)


def _lower_order_K(X, Y):
    return Y + 0.15 * np.sin(np.pi * X) * np.cos(0.5 * np.pi * Y)


def _lower_order_A(X, Y):
    return 0.1 * np.cos(np.pi * X)


def _lower_order_B(X, Y):
    return 0.05 * (1.0 + Y) * np.sin(np.pi * X)


# each preset's K, A and B as functions of (X, Y); None is a zero coefficient
_PRESETS = {
    "tricomi": (_tricomi, None, None),
    "infinite_order": (_infinite_order, None, None),
    "wedge": (_wedge, None, None),
    "chaplygin": (_chaplygin, None, None),
    "lower_order": (_lower_order_K, _lower_order_A, _lower_order_B),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_coefficients(name: str, grid: GridSpec, eps: float, alpha: float) -> CoefficientSet:
    """Build one of the named coefficient families on the given grid.

    CSV-backed coefficients use the form "csv:<path>" and load K from a
    Field file (A = B = 0), whose grid must be the given one.
    """
    zero = Field.zeros(grid)
    if name.startswith("csv:"):
        K = load_field(name[4:])
        if K.grid != grid:
            raise ValueError(
                f"preset {name!r} holds a {K.grid.nx}x{K.grid.ny} grid,"
                f" but the run asks for {grid.nx}x{grid.ny}"
            )
        return CoefficientSet(K, zero, zero, eps, alpha)
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES} or csv:<path>")
    K, A, B = (zero if f is None else Field.from_function(grid, f) for f in _PRESETS[name])
    return CoefficientSet(K, A, B, eps, alpha)
