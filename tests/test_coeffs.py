import numpy as np
import pytest

from mixedbvp.coeffs import (
    PRESET_NAMES,
    AlphaRangeError,
    CoefficientSet,
    check_alpha,
    check_condition7,
    check_condition7prime,
    preset_coefficients,
)
from mixedbvp.grid import Field, differentiate, make_grid, save_field


def tricomi(grid, eps, alpha):
    return preset_coefficients("tricomi", grid, eps, alpha)


def test_coefficient_set_validation():
    g = make_grid(8, 8)
    z = Field.zeros(g)
    with pytest.raises(ValueError):
        CoefficientSet(z, z, z, eps=1.5, alpha=0.0)
    with pytest.raises(ValueError):
        CoefficientSet(z, Field.zeros(make_grid(16, 16)), z, eps=0.1, alpha=0.0)


def test_condition7_tricomi_margin():
    # margin field is 1 - eps^{1/4} |y|, minimized at the walls
    g = make_grid(64, 64)
    rep = check_condition7(tricomi(g, 1e-4, 0.0))
    assert rep.passed
    assert rep.pointwise_min_margin == pytest.approx(0.9, abs=1e-12)
    assert abs(rep.argmin_location[1]) == 1.0


def test_condition7_sign_flip_fails():
    g = make_grid(32, 32)
    z = Field.zeros(g)
    cs = CoefficientSet(Field.from_function(g, lambda X, Y: -Y), z, z, 1e-4, 0.0)
    rep = check_condition7(cs)
    assert not rep.passed
    assert rep.pointwise_min_margin < -0.5


def test_condition7_infinite_order_preset():
    g = make_grid(64, 64)
    rep = check_condition7(preset_coefficients("infinite_order", g, 1e-4, 0.0))
    assert rep.passed


def test_condition7_reduces_without_alpha_terms():
    # alpha = 0, A = 0 leaves exactly K_y - eps^{1/4}(|K_x| + |K|)
    g = make_grid(32, 32)
    from mixedbvp.grid import differentiate

    cs = preset_coefficients("chaplygin", g, 1e-2, 0.0)
    rep = check_condition7(cs)
    Kx = differentiate(cs.K, "x", 1).values
    Ky = differentiate(cs.K, "y", 1).values
    margin = Ky - cs.eps**0.25 * (np.abs(Kx) + np.abs(cs.K.values))
    assert rep.pointwise_min_margin == pytest.approx(margin.min(), abs=1e-14)


def test_condition7_refinement_stability():
    mins = []
    for n in (32, 64, 128):
        g = make_grid(n, n)
        mins.append(check_condition7(tricomi(g, 1e-2, 0.02)).pointwise_min_margin)
    assert abs(mins[1] - mins[2]) <= abs(mins[0] - mins[1]) + 1e-12
    assert abs(mins[0] - mins[2]) < 1e-2


def _condition7_through_fields(cs):
    # the margin as differentiate's Fields of K_x and K_y and one
    # expression formed it: the oracle for check_condition7
    from mixedbvp.coeffs import _min_report

    Kx = differentiate(cs.K, "x", 1).values
    Ky = differentiate(cs.K, "y", 1).values
    K, A = cs.K.values, cs.A.values
    with np.errstate(over="ignore", invalid="ignore"):
        margin = (
            Ky
            - cs.alpha * Kx
            + 2.0 * cs.alpha * A
            - cs.eps**0.25 * (np.abs(Kx) + np.abs(K) + np.abs(A))
        )
    if not np.isfinite(margin).all():
        raise AlphaRangeError(cs.alpha, "the condition-7 margin")
    return _min_report("condition7", margin, cs.grid, strict=False)


@pytest.mark.parametrize("alpha", [0.0, 0.02, 1.2, 1e200, 1e308])
@pytest.mark.parametrize("eps", [1e-5, 1e-3, 0.05])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_condition7_margin_is_the_differentiate_formula(monkeypatch, preset, eps, alpha):
    # formed in place from the stencils, the margin keeps the formula's
    # bits at every node, so the report is the same; at 1e308 both raise
    # (1e200 still leaves a finite margin)
    from mixedbvp import coeffs

    margins = []

    def keep(name, margin, grid, strict):
        margins.append(margin.copy())
        return real(name, margin, grid, strict)

    real = coeffs._min_report
    monkeypatch.setattr(coeffs, "_min_report", keep)
    for n in ((32, 32), (47, 48)):
        cs = preset_coefficients(preset, make_grid(*n), eps, alpha)
        if alpha == 1e308:
            for check in (check_condition7, _condition7_through_fields):
                with pytest.raises(AlphaRangeError, match="condition-7 margin"):
                    check(cs)
            continue
        assert check_condition7(cs) == _condition7_through_fields(cs)
        assert np.array_equal(margins[-2].view(np.int64), margins[-1].view(np.int64))


def test_condition7_overflowing_k_y_is_a_grid_error():
    # a K_y past the doubles is differentiate's error, as it was when the
    # margin was formed from its Fields, not one naming alpha
    from mixedbvp.grid import GridError

    g = make_grid(16, 16)
    z = Field.zeros(g)
    K = Field(g, np.where(np.arange(g.ny + 1) % 2, 1.5e308, -1.5e308) + z.values)
    with np.errstate(over="ignore"), pytest.raises(GridError, match="non-finite"):
        check_condition7(CoefficientSet(K, z, z, 1e-3, 0.02))


def test_alpha_condition_arithmetic():
    g = make_grid(32, 32)
    rep = check_alpha(tricomi(g, 1e-4, 0.02))
    assert rep.passed
    assert rep.pointwise_min_margin == pytest.approx(3e-4, abs=1e-12)


def test_alpha_condition_zero_alpha_fails_on_tricomi():
    g = make_grid(32, 32)
    rep = check_alpha(tricomi(g, 1e-4, 0.0))
    assert not rep.passed
    assert rep.pointwise_min_margin == pytest.approx(-1e-4, abs=1e-12)


def test_overflowing_alpha_is_a_range_error():
    # alpha^2 overflows past 1.3e154; 2*alpha*A past 9e307 turns the
    # condition-7 margin to nan where A = 0
    g = make_grid(16, 16)
    assert check_alpha(tricomi(g, 1e-4, 1e150)).passed
    with pytest.raises(AlphaRangeError, match="alpha = 1e\\+200 overflows alpha\\^2"):
        check_alpha(tricomi(g, 1e-4, 1e200))
    assert check_condition7(tricomi(g, 1e-4, 1e200)).passed
    with pytest.raises(AlphaRangeError, match="condition-7 margin"):
        check_condition7(tricomi(g, 1e-4, 1e308))


def test_alpha_condition_strictness_at_zero_margin():
    # K >= 0 on the bottom with alpha = 0: strict condition demands min K > 0
    g = make_grid(32, 32)
    z = Field.zeros(g)
    cs_pos = CoefficientSet(Field.from_function(g, lambda X, Y: Y + 2.0), z, z, 1e-2, 0.0)
    assert check_alpha(cs_pos).passed
    cs_zero = CoefficientSet(Field.from_function(g, lambda X, Y: Y + 1.0), z, z, 1e-2, 0.0)
    assert not check_alpha(cs_zero).passed


def test_condition7prime_vertical_field():
    g = make_grid(64, 64)
    K = Field.from_function(g, lambda X, Y: Y)
    V = (Field.zeros(g), Field.constant(g, 1.0))
    rep = check_condition7prime(K, V, 0.01)
    assert rep.passed
    assert rep.pointwise_min_margin >= 0.98 - 1e-12


def test_condition7prime_zero_field_fails():
    g = make_grid(32, 32)
    K = Field.from_function(g, lambda X, Y: Y)
    V = (Field.zeros(g), Field.zeros(g))
    assert not check_condition7prime(K, V, 0.01).passed


def test_condition7prime_wedge_neighborhood():
    # wedge-type zero set, checked on a small neighborhood of the origin
    g = make_grid(64, 64)
    K = preset_coefficients("wedge", g, 1e-2, 0.0).K
    V = (Field.zeros(g), Field.constant(g, 1.0))
    from mixedbvp.coeffs import condition7prime_margin

    margin = condition7prime_margin(K, V, 0.01).values
    X, Y = g.meshes()
    near = (np.abs(X) <= 0.25) & (np.abs(Y) <= 0.25)
    assert margin[near].min() >= 0.0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_pass_condition7(name):
    g = make_grid(64, 64)
    for eps in (1e-2, 1e-3, 1e-4):
        cs = preset_coefficients(name, g, eps, 0.02)
        assert check_condition7(cs).passed, (name, eps)


def test_preset_k_changes_sign_flag():
    # every preset is of mixed type: K takes both signs or vanishes
    g = make_grid(32, 32)
    for name in PRESET_NAMES:
        K = preset_coefficients(name, g, 1e-3, 0.02).K.values
        assert K.min() <= 0.0 <= K.max(), name


def test_csv_preset_roundtrip(tmp_path):
    g = make_grid(16, 16)
    K = Field.from_function(g, lambda X, Y: Y)
    path = tmp_path / "K.csv"
    save_field(K, path)
    cs = preset_coefficients(f"csv:{path}", g, 1e-3, 0.02)
    assert np.abs(cs.K.values - K.values).max() < 1e-15
    assert np.all(cs.A.values == 0.0)
    # the file's grid is not the one asked for: both are named
    with pytest.raises(ValueError, match="holds a 16x16 grid, but the run asks for 64x48"):
        preset_coefficients(f"csv:{path}", make_grid(64, 48), 1e-3, 0.02)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_coefficients("nope", make_grid(8, 8), 1e-3, 0.0)


@pytest.mark.parametrize("n", [(47, 48), (100, 64), (192, 192)])
@pytest.mark.parametrize("preset", ["tricomi", "chaplygin", "infinite_order"])
def test_adjoint_pieces_of_an_x_constant_K_have_no_x_part(preset, n):
    # K_x, K_xx and A_x are exactly zero, so the pieces are -A, -B and -eps*B_y
    g = make_grid(*n)
    cs = preset_coefficients(preset, g, 1e-4, 0.02)
    assert all(cs.x_constant)
    first_x, first_y, zero_order = cs.adjoint_pieces
    By = differentiate(cs.B, "y", 1).values
    assert np.array_equal(first_x, 2.0 * 0.0 - cs.A.values)
    assert np.array_equal(first_y, -cs.B.values)
    assert np.array_equal(zero_order, cs.eps * (0.0 - 0.0 - By))
