import numpy as np
import pytest

from mixedbvp.coeffs import CoefficientSet, check_alpha, preset_coefficients
from mixedbvp.grid import Field, differentiate, make_grid
from mixedbvp.multiplier import (
    AlphaConditionError,
    AlphaDegenerateError,
    FormEntry,
    FormReport,
    MultiplierTriple,
    boundary_form_report,
    build_abc,
    interior_form_report,
    solve_phi,
)

PRESETS = ("tricomi", "infinite_order", "wedge", "chaplygin", "lower_order")


def test_build_abc_rejects_an_alpha_the_transport_cannot_step():
    # the transport steps hy*a/hx cells per level; at 2**52 cells a foot
    # keeps no fractional position
    from mixedbvp.coeffs import AlphaRangeError

    g = make_grid(16, 16)
    build_abc(preset_coefficients("tricomi", g, 1e-4, 1e15), 10.0, 1)
    with pytest.raises(AlphaRangeError, match="alpha = 1e\\+16 overflows the transport"):
        build_abc(preset_coefficients("tricomi", g, 1e-4, 1e16), 10.0, 1, require_alpha=False)


def test_phi_is_one_when_forcing_vanishes():
    g = make_grid(32, 32)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)  # A = K_x = 0
    phi = solve_phi(cs)
    assert np.abs(phi.values - 1.0).max() < 1e-14


def test_phi_linear_forcing_closed_form():
    # A - K_x = 1, B = 0: phi = 1 + (eps/alpha)(y + 1)
    g = make_grid(32, 32)
    z = Field.zeros(g)
    cs = CoefficientSet(z, Field.constant(g, 1.0), z, eps=0.01, alpha=0.1)
    phi = solve_phi(cs)
    Y = g.meshes()[1]
    assert np.abs(phi.values - (1.0 + 0.1 * (Y + 1.0))).max() < 1e-12
    assert phi.values[:, -1] == pytest.approx(1.2)


def test_phi_stays_near_one():
    # generic bounded forcing: |phi - 1| <= 10 eps/|alpha| when eps/alpha <= 0.1
    g = make_grid(48, 48)
    for eps, alpha in [(1e-3, 0.05), (1e-2, 0.1), (1e-3, 0.01)]:
        K = Field.from_function(g, lambda X, Y: Y + 0.2 * np.sin(np.pi * X))
        A = Field.from_function(g, lambda X, Y: np.cos(np.pi * X) * Y)
        B = Field.from_function(g, lambda X, Y: 0.5 * np.sin(np.pi * X))
        cs = CoefficientSet(K, A, B, eps, alpha)
        phi = solve_phi(cs)
        assert np.abs(phi.values - 1.0).max() <= 10.0 * eps / alpha


def test_phi_matches_closed_form_with_decay():
    # eps*B = 2, A = 1, K = 0, alpha = 0.5: phi' + 2 phi = q with q = 2 eps,
    # so phi = q/2 + (1 - q/2) exp(-2(y + 1)); P is linear and integrates
    # exactly, the forcing integral carries the fourth-order error
    eps, alpha = 0.5, 0.5
    q = eps / alpha
    errs = []
    for n in (16, 32):
        g = make_grid(n, n)
        z = Field.zeros(g)
        cs = CoefficientSet(z, Field.constant(g, 1.0), Field.constant(g, 2.0 / eps), eps, alpha)
        Y = g.meshes()[1]
        exact = 0.5 * q + (1.0 - 0.5 * q) * np.exp(-2.0 * (Y + 1.0))
        errs.append(np.abs(solve_phi(cs).values - exact).max())
    assert errs[1] <= 2e-6
    assert np.log2(errs[0] / errs[1]) >= 3.5


def test_phi_rejects_alpha_zero():
    # A != K_x: at alpha = 0 no phi solves the limit ODE
    g = make_grid(16, 16)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.0)
    with pytest.raises(AlphaDegenerateError, match="A = K_x"):
        solve_phi(cs)


@pytest.mark.parametrize("alpha", [0.0, 5e-324])
def test_phi_is_one_where_A_equals_Kx_at_any_alpha(alpha):
    # tricomi has A = K_x = 0: phi = 1 exactly at alpha = 0, and at a
    # subnormal alpha, whose eps/alpha would overflow
    g = make_grid(16, 16)
    phi = solve_phi(preset_coefficients("tricomi", g, 1e-4, alpha))
    assert np.all(phi.values == 1.0)


@pytest.mark.parametrize("preset", ["chaplygin", "infinite_order"])
@pytest.mark.parametrize("n", [16, 128])
def test_phi_is_one_at_alpha_zero_on_x_constant_K(preset, n):
    # K is constant in x and A = 0, so A = K_x; the x stencil leaves K_x at
    # round-off on these sets, and the alpha = 0 rule used to refuse them
    g = make_grid(n, n)
    cs = preset_coefficients(preset, g, 1e-4, 0.0)
    assert cs.x_constant[0] and np.all(cs.A.values == 0.0)
    assert np.all(solve_phi(cs).values == 1.0)


def test_phi_overflow_names_alpha():
    from mixedbvp.coeffs import AlphaRangeError

    g = make_grid(16, 16)
    with pytest.raises(AlphaRangeError, match="alpha = 4.94066e-324 overflows phi"):
        solve_phi(preset_coefficients("wedge", g, 1e-4, 5e-324))


def test_build_abc_values():
    g = make_grid(64, 64)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    # c(-1) = -eps^{1/2} + eps^{3/4}(-3 + 1)
    assert mt.c.values[0, 0] == pytest.approx(-0.012, abs=1e-15)
    # c_y(-1) = eps^{3/4}(3 + 2y) = eps^{3/4}
    cy0 = differentiate(mt.c, "y", 1).values[:, 0]
    assert np.abs(cy0 - 1e-3).max() < 1e-12
    # a = alpha when phi = 1
    assert np.abs(mt.a.values - 0.02).max() < 1e-14
    assert np.all(mt.b.values == 1.0)


def test_build_abc_alpha_gate():
    g = make_grid(32, 32)
    cs = preset_coefficients("tricomi", g, 1e-2, 0.02)  # alpha^2 < eps
    with pytest.raises(AlphaConditionError):
        build_abc(cs, 10.0, 1)
    build_abc(cs, 10.0, 1, require_alpha=False)


def test_alpha_zero_shortcut_requires_matching_A():
    g = make_grid(16, 16)
    z = Field.zeros(g)
    K = Field.from_function(g, lambda X, Y: Y + 2.0)
    good = CoefficientSet(K, z, z, 1e-3, 0.0)
    mt = build_abc(good, 10.0, 0)
    assert np.all(mt.phi.values == 1.0)
    bad = CoefficientSet(K, Field.constant(g, 1.0), z, 1e-3, 0.0)
    with pytest.raises(AlphaDegenerateError):
        build_abc(bad, 10.0, 0)


@pytest.mark.parametrize("preset", PRESETS)
def test_mixed_coefficient_cancels(preset):
    g = make_grid(64, 64)
    cs = preset_coefficients(preset, g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1, require_alpha=False)
    rep = interior_form_report(mt, cs)
    e = rep.entries["mixed_coeff"]
    assert max(abs(e.min), abs(e.max)) <= 1e-8


def test_interior_form_pointwise_values():
    # x-independent tricomi data at eps = 0.01: the u_y^2 bracket equals
    # 2 eps^{-1/2} on the midline and the u^2 bracket is 2 eps^{-1/4}
    g = make_grid(64, 64)
    cs = preset_coefficients("tricomi", g, 1e-2, 0.02)
    mt = build_abc(cs, 10.0, 1, require_alpha=False)
    eps = cs.eps
    a, b, c = mt.a.values, mt.b.values, mt.c.values
    uy2 = (differentiate(mt.a, "x", 1).values - 2.0 * c) / eps
    jmid = g.ny // 2
    assert uy2[:, jmid] == pytest.approx(2.0 * eps**-0.5, abs=1e-9)
    u2 = differentiate(mt.c, "y", 2).values / eps
    assert np.abs(u2 - 2.0 * eps**-0.25).max() < 1e-9


def test_interior_form_bounds_small_eps():
    g = make_grid(64, 64)
    for eps in (1e-3, 1e-4):
        cs = preset_coefficients("tricomi", g, eps, 0.02)
        mt = build_abc(cs, 10.0, 1, require_alpha=False)
        rep = interior_form_report(mt, cs)
        assert rep.entries["uy2_coeff"].passed, eps
        assert rep.entries["u2_coeff"].passed, eps
        assert rep.entries["ux2_coeff"].passed, eps


def test_uy2_scaling_identity_at_midline():
    # replacing eps by eps/4 doubles the midline value exactly
    g = make_grid(32, 32)
    jmid = g.ny // 2

    def midline(eps):
        cs = preset_coefficients("tricomi", g, eps, 0.02)
        mt = build_abc(cs, 10.0, 1, require_alpha=False)
        uy2 = (differentiate(mt.a, "x", 1).values - 2.0 * mt.c.values) / eps
        return uy2[0, jmid]

    assert midline(1e-4 / 4.0) == pytest.approx(2.0 * midline(1e-4), rel=1e-12)


def test_interior_minima_grid_converged():
    outs = []
    for n in (64, 128):
        g = make_grid(n, n)
        cs = preset_coefficients("wedge", g, 1e-4, 0.02)
        mt = build_abc(cs, 10.0, 1, require_alpha=False)
        outs.append(interior_form_report(mt, cs).entries["ux2_coeff"].min)
    assert abs(outs[0] - outs[1]) < 1e-2


def test_boundary_form_determinant_value():
    g = make_grid(64, 64)
    z = Field.zeros(g)
    K = Field.from_function(g, lambda X, Y: Y)  # K(x,-1) = -1
    cs = CoefficientSet(K, z, z, eps=1e-4, alpha=0.02)
    mt = build_abc(cs, 10.0, 1)
    rep = boundary_form_report(mt, cs)
    assert rep.entries["bottom_det"].min == pytest.approx(7.5e-5, abs=1e-15)
    assert rep.entries["bottom_det"].passed


def test_boundary_form_degenerate_alpha_not_passed():
    g = make_grid(32, 32)
    z = Field.zeros(g)
    K = Field.constant(g, -1.0)
    eps = 1e-4
    alpha = np.sqrt(eps)  # alpha^2 = -eps K(x,-1) exactly
    cs = CoefficientSet(K, z, z, eps, alpha)
    mt = build_abc(cs, 10.0, 1, require_alpha=False)
    rep = boundary_form_report(mt, cs)
    assert abs(rep.entries["bottom_det"].min) < 1e-18
    assert not rep.entries["bottom_det"].passed


def test_boundary_cterm_equals_leading_power():
    g = make_grid(64, 64)
    cs = preset_coefficients("tricomi", g, 1e-4, 0.02)
    mt = build_abc(cs, 10.0, 1)
    rep = boundary_form_report(mt, cs)
    e = rep.entries["bottom_cterm"]
    assert e.min == pytest.approx(1e-3, rel=1e-9)
    assert e.passed


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_determinant_matches_alpha_condition(preset, eps):
    g = make_grid(48, 48)
    cs = preset_coefficients(preset, g, eps, 0.02)
    mt = build_abc(cs, 10.0, 1, require_alpha=False)
    det_min = boundary_form_report(mt, cs).entries["bottom_det"].min
    assert (det_min > 0.0) == check_alpha(cs).passed


def test_mixed_cancellation_holds_under_refinement():
    # with a nonzero B the mixed coefficient still cancels: a_y comes from
    # the phi ODE's right side, not from differencing phi, so what is left
    # is round-off on both grids, which refinement need not shrink
    g1, g2 = make_grid(32, 32), make_grid(32, 64)
    outs = []
    for g in (g1, g2):
        cs = preset_coefficients("lower_order", g, 1e-3, 0.05)
        mt = build_abc(cs, 10.0, 1, require_alpha=False)
        e = interior_form_report(mt, cs).entries["mixed_coeff"]
        outs.append(max(abs(e.min), abs(e.max)))
    floor = 1e-13
    assert outs[1] <= max(outs[0] / 8.0, floor)


@pytest.mark.parametrize(
    "lam, m, b, name",
    [(0.0, 1, 1.0, "lambda"), (10.0, -1, 1.0, "m"), (10.0, 1, 0.0, "b")],
)
def test_multiplier_triple_rejects_bad_inputs(lam, m, b, name):
    g = make_grid(8, 8)
    one = Field.constant(g, 1.0)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        MultiplierTriple(one, Field.constant(g, b), one, one, lam, m)


def test_form_report_add_builds_the_entry():
    # every entry is built here: min and max as Python floats, the bound
    # as given and the verdict as a Python bool
    report = FormReport()
    vals = np.array([[3.0, -1.5], [0.25, 2.0]])
    report.add("row", vals, 0.5, vals.min() >= 0.5)
    entry = report.entries["row"]
    assert entry == FormEntry(-1.5, 3.0, 0.5, False)
    assert type(entry.min) is float and type(entry.max) is float
    assert type(entry.passed) is bool and not report.all_passed
