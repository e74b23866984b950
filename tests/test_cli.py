import json
import warnings

import numpy as np
import pytest

from mixedbvp.cli import ConfigError, RunConfig, _parse_grids, load_config, run


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_empty_config_gives_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, ""))
    assert cfg == RunConfig()


def test_config_sets_problem_values(tmp_path):
    cfg = load_config(
        write_config(tmp_path, "[problem]\neps = 1e-4\nalpha = 0.05\npreset = wedge\n")
    )
    assert cfg.eps == 1e-4
    assert cfg.alpha == 0.05
    assert cfg.preset == "wedge"


def test_config_lambda_key(tmp_path):
    cfg = load_config(write_config(tmp_path, "[multiplier]\nlambda = 25\nm = 0\n"))
    assert cfg.lam == 25.0 and cfg.m == 0


# The bad-input contract: a bad setting, as a flag or in a config file,
# exits 2 with one stderr line that names it, prints nothing to stdout and
# writes no artifact (run.manifest and metrics.json at most).  The table
# below has one row per case, each under its own test name.

def _rejected(args, err, config=None, reader=None):
    """The test of one row: run(args) keeps the contract, and its stderr
    line starts with err (an err that ends in a newline is the whole line).  config
    is the text of a config file passed with --config, and "{cfg}" in err
    stands for its path.  reader reads the bad input alone (load_config for
    a config row) and must raise the ConfigError that the line shows."""

    def test(tmp_path, capsys):
        cfg = write_config(tmp_path, config) if config is not None else None
        line = err.format(cfg=cfg)
        out = tmp_path / "out"
        assert run([*args, *(["--config", cfg] if cfg else []), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(line) and captured.err.count("\n") == 1
        assert {p.name for p in out.glob("*")} <= {"run.manifest", "metrics.json"}
        read = (lambda: load_config(cfg)) if cfg else reader
        if read is not None:
            with pytest.raises(ConfigError) as exc:
                read()
            assert f"error: {exc.value}\n".startswith(line)

    return test


_SMALL = ["--nx", "16", "--ny", "16"]

# config-file errors
test_config_range_error = _rejected(
    ["check"], "error: {cfg}: eps = -1.0: eps must lie in (0, 1)\n", "[problem]\neps = -1\n")
test_config_malformed_line_names_lineno = _rejected(
    ["check"], "error: {cfg}:2: expected 'key = value'\n", "[problem]\nthis is not a pair\n")
test_config_unknown_key_rejected = _rejected(
    ["check"], "error: {cfg}:2: unknown key 'epz' in section [problem]\n", "[problem]\nepz = 1e-3\n")
test_config_unknown_section_rejected = _rejected(
    ["check"], "error: {cfg}:1: unknown section [problems]\n", "[problems]\neps = 1e-3\n")
test_config_key_before_any_section_is_named = _rejected(
    ["check"], "error: {cfg}:1: key 'eps' before any [section]\n", "eps = 1e-3\n")
test_config_bad_value_is_named = _rejected(
    ["check"], "error: {cfg}:2: bad value for nx: ", "[grid]\nnx = sixteen\n")
test_config_negative_seed_is_named = _rejected(
    ["aux", *_SMALL], "error: {cfg}: seed = -3: seed must be a non-negative integer\n",
    "[run]\nseed = -3\n")

# flag errors
test_bad_grid_list_is_named = _rejected(
    ["mms", "--grids", "16,x"], "error: bad grid list '16,x'\n",
    reader=lambda: _parse_grids("16,x"))
test_unknown_rhs_is_named = _rejected(
    ["solve", "--rhs", "cosine", *_SMALL], "error: unknown rhs 'cosine'")
test_energy_m2_is_a_configuration_error = _rejected(
    ["energy", "--m", "2", *_SMALL], "error: energy certificate supports m = 0 or 1")
# numpy's own message, "expected non-negative integer", named no setting
test_negative_seed_is_a_configuration_error = _rejected(
    ["aux", "--seed", "-1", *_SMALL], "error: seed = -1: seed must be a non-negative integer\n")
test_unknown_preset_is_a_usage_error = _rejected(
    ["check", "--preset", "bogus"], "error: unknown preset")
test_grid_too_small_for_seam_carrier_is_a_usage_error = _rejected(
    ["ma", "--nx", "8", "--ny", "8"],
    "error: the seam-jump carrier needs 7 clean columns per side; use nx >= 14\n")


def test_config_comments_and_blanks(tmp_path):
    cfg = load_config(
        write_config(tmp_path, "# comment\n\n[problem]\neps = 1e-3  # inline\n")
    )
    assert cfg.eps == 1e-3


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_check_subcommand(tmp_path, capsys):
    code = run(
        ["check", "--preset", "tricomi", "--eps", "1e-4", "--alpha", "0.02",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "conditions.txt").exists()
    assert (tmp_path / "run.manifest").exists()
    manifest = (tmp_path / "run.manifest").read_text()
    assert "command=check" in manifest and "seed=" in manifest


def test_check_subcommand_failing_gate(tmp_path):
    # alpha = 0 against negative bottom K: certificate failure exit code
    code = run(["check", "--preset", "tricomi", "--eps", "1e-4", "--alpha", "0",
                "--out", str(tmp_path)])
    assert code == 1


def test_check_csv_preset_on_another_grid_exits_2(tmp_path, capsys):
    # a 16^2 K file and a 64^2 run: the run refuses it, where it used to
    # check the file's grid and exit 0 with nx=64, ny=64 in the manifest
    from mixedbvp.grid import Field, make_grid, save_field

    path = tmp_path / "k.csv"
    save_field(Field.from_function(make_grid(16, 16), lambda X, Y: Y), path)
    args = ["check", "--preset", f"csv:{path}", "--nx", "64", "--ny", "64"]
    assert run(args + ["--out", str(tmp_path)]) == 2
    assert "holds a 16x16 grid, but the run asks for 64x64" in capsys.readouterr().err
    assert not (tmp_path / "conditions.txt").exists()


def test_multiplier_subcommand(tmp_path):
    code = run(["multiplier", "--preset", "tricomi", "--eps", "1e-4",
                "--alpha", "0.02", "--nx", "32", "--ny", "32", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "forms.txt").read_text()
    assert "mixed_coeff" in text and "bottom_det" in text


def test_mms_subcommand(tmp_path):
    code = run(["mms", "--preset", "tricomi", "--eps", "1e-2", "--alpha", "0.02",
                "--grids", "16,32", "--out", str(tmp_path)])
    assert code == 0
    table = (tmp_path / "convergence.csv").read_text().splitlines()
    assert table[0] == "h,error_l2,error_h01,observed_order"
    assert len(table) == 3


def test_solve_subcommand_writes_solution(tmp_path):
    code = run(["solve", "--preset", "tricomi", "--eps", "1e-4", "--alpha", "0.02",
                "--nx", "24", "--ny", "24", "--out", str(tmp_path)])
    assert code == 0
    from mixedbvp.grid import load_field

    u = load_field(tmp_path / "solution.csv")
    assert u.grid.nx == 24


def test_solve_csv_rhs_on_another_grid_exits_2(tmp_path, capsys):
    # a 16^2 right-hand side and a 32^2 run: the message names both grids
    from mixedbvp.grid import Field, make_grid, save_field

    path = tmp_path / "f.csv"
    save_field(Field.from_function(make_grid(16, 16), lambda X, Y: Y), path)
    args = ["solve", "--rhs", f"csv:{path}", "--nx", "32", "--ny", "32"]
    assert run(args + ["--out", str(tmp_path)]) == 2
    assert "holds a 16x16 grid, but the coefficients hold 32x32" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


def test_solve_report_names_the_krylov_path(tmp_path):
    import ast

    from mixedbvp.coeffs import preset_coefficients
    from mixedbvp.grid import Field, make_grid
    from mixedbvp.solver import LinearProblem, solve_linear

    code = run(["solve", "--preset", "lower_order", "--nx", "32", "--ny", "32",
                "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "solve_report.txt").read_text()
    stats = ast.literal_eval(text.split("stats=", 1)[1].strip())
    assert stats["method"] == "fourier"
    assert {"refine_steps", "gmres_iterations", "mode_solves", "residual", "factor_s",
            "solve_s"} <= stats.keys()
    assert stats["mode_solves"] == stats["refine_steps"] + 1
    assert stats["residual"] <= 1e-10
    g = make_grid(32, 32)
    cs = preset_coefficients("lower_order", g, 1e-4, 0.02)
    f = Field.from_function(g, lambda X, Y: np.sin(np.pi * X) * (1.0 + Y))
    rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
    assert stats["refine_steps"] == rep.solver_stats["refine_steps"] >= 1
    assert stats["gmres_iterations"] == rep.solver_stats["gmres_iterations"] == 0


@pytest.mark.parametrize("preset", ["tricomi", "lower_order"])
def test_solve_metrics_json(tmp_path, preset):
    code = run(["solve", "--preset", preset, "--nx", "32", "--ny", "32", "--out", str(tmp_path)])
    assert code == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) == {"exit_code", "residual_norm", "apriori_ratio", "solver_stats"}
    assert metrics["exit_code"] == code
    stats = metrics["solver_stats"]
    assert set(stats) == {
        "method", "n", "factor_s", "assemble_s", "solve_s", "residual",
        "matvecs", "mode_solves", "refine_steps", "refine_residuals", "gmres_iterations",
        "gmres_residuals",
    }
    assert stats["method"] == "fourier" and stats["n"] == 32 * 33
    # refinement alone passes lower_order here: one mode solve and one
    # product per step, after the first of each
    assert stats["matvecs"] == stats["mode_solves"] == stats["refine_steps"] + 1
    assert len(stats["refine_residuals"]) == stats["refine_steps"]
    assert (stats["refine_steps"] >= 1) == (preset == "lower_order")
    assert (stats["gmres_iterations"], stats["gmres_residuals"]) == (0, [])
    assert metrics["residual_norm"] > 0.0 and metrics["apriori_ratio"] > 0.0
    assert stats["residual"] <= 1e-10 and stats["assemble_s"] > 0.0


@pytest.mark.parametrize("command", ["ma", "darboux"])
def test_large_alpha0_residual_gate_names_the_oblique_row(tmp_path, capsys, command):
    # alpha0 = 1e8 passes every range check, and the oblique row's rounding
    # then fails the linear solve's residual gate: the message says so
    code = run([command, "--alpha0", "1e8", "--nx", "16", "--ny", "16", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("WELLPOSEDNESS_SUSPECT: solve residual") and out.count("\n") == 1
    assert "the bottom rows hold" in out and "alpha = 5e+07" in out
    assert "alpha = sqrt(rho)*alpha0 with --alpha0 1e+08" in out


@pytest.mark.parametrize("command", ["ma", "darboux"])
def test_residual_gate_off_the_bottom_rows_gives_no_alpha0_hint(tmp_path, capsys, monkeypatch,
                                                              command):
    # the --alpha0 hint is for the oblique row; a gate failed in the interior
    # rows exits 1 with the solver's message as it is
    from mixedbvp import cli
    from mixedbvp.grid import make_grid
    from mixedbvp.solver import ResidualGateError

    g = make_grid(16, 16)
    r = np.zeros(g.shape)
    r[:, 1:-1] = 1.0

    def failing(*args, **kwargs):
        raise ResidualGateError(1.0, r, g, 0.6)

    monkeypatch.setattr(cli, "solve_prescribed_curvature", failing)
    monkeypatch.setattr(cli, "solve_darboux", failing)
    code = run([command, "--nx", "16", "--ny", "16", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("WELLPOSEDNESS_SUSPECT: solve residual") and out.count("\n") == 1
    assert "the interior rows hold 100.00%" in out and "alpha" not in out


def test_energy_subcommand(tmp_path):
    code = run(["energy", "--preset", "tricomi", "--eps", "1e-4", "--alpha", "0.02",
                "--nx", "32", "--ny", "32", "--samples", "5", "--m", "0",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "energy_samples.csv").read_text().splitlines()
    assert len(lines) == 6
    assert (tmp_path / "run.manifest").exists()
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics["stats"]) == {
        "aux_s", "transport_s", "spectral_s", "lstar_s", "energy_norm_s", "dual_norm_s",
        "workers", "wall_s", "aux_iterations",
    }
    assert metrics["stats"]["workers"] == 1 and len(metrics["stats"]["aux_iterations"]) == 5
    assert set(metrics["entries"]) == {"energy_ratio", "dual_chain_Csq"}
    for entry in metrics["entries"].values():
        assert set(entry) == {"min", "max", "claimed_bound", "passed"} and entry["passed"] is True
        assert entry["min"] <= entry["max"]


def test_aux_subcommand(tmp_path):
    code = run(["aux", "--preset", "tricomi", "--eps", "1e-4", "--alpha", "0.02",
                "--nx", "32", "--ny", "32", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "aux_sweep.csv").exists()


def test_aux_m2_fine_grid_certifies_converged_solves(tmp_path):
    # every solve converges; the equation residual read through u's
    # recovery symbol (1.6e9 at 128^2, lambda = 1) was 1.4e-6, above the
    # 1e-6 bound, and failed the subcommand
    code = run(["aux", "--m", "2", "--nx", "128", "--ny", "128", "--out", str(tmp_path)])
    assert code == 0


def test_every_config_key_is_a_flag(tmp_path):
    from dataclasses import fields

    from mixedbvp.cli import _KEYS, _build_parser

    parser = _build_parser()
    dests = {a.dest for a in parser._actions} - {"help", "command", "config"}
    assert dests == {f.name for f in fields(RunConfig)}
    for key, f in _KEYS.items():
        section, attr = f.metadata["section"], f.name
        value = str(getattr(RunConfig(), attr))
        flag = "--" + key.replace("_", "-")
        parsed = getattr(parser.parse_args(["check", flag, value]), attr)
        cfg = load_config(write_config(tmp_path, f"[{section}]\n{key} = {value}\n"))
        assert parsed == getattr(cfg, attr)
        assert type(parsed) is type(getattr(cfg, attr))


def test_config_sections_hold_the_documented_keys():
    from mixedbvp.cli import _KEYS

    sections = {}
    for key, f in _KEYS.items():
        sections.setdefault(f.metadata["section"], set()).add(key)
    assert sections == {
        "problem": {"preset", "eps", "alpha", "rhs"},
        "multiplier": {"lambda", "m"},
        "grid": {"nx", "ny", "grids"},
        "run": {"seed", "out", "samples"},
        "nonlinear": {"rho", "alpha0", "max_iter", "tol"},
    }


def test_ma_subcommand(tmp_path):
    code = run(["ma", "--nx", "32", "--ny", "32", "--tol", "1e-6", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "iteration.csv").exists()
    assert (tmp_path / "z_final.csv").exists()


def test_darboux_subcommand(tmp_path, capsys):
    code = run(["darboux", "--nx", "32", "--ny", "32", "--tol", "1e-6", "--out", str(tmp_path)])
    assert code == 0
    assert "converged=True" in capsys.readouterr().out
    assert (tmp_path / "iteration.csv").exists()
    assert (tmp_path / "z_final.csv").exists()


@pytest.mark.parametrize("command", ["ma", "darboux"])
def test_picard_metrics_json(tmp_path, command):
    done, capped = tmp_path / "done", tmp_path / "capped"
    assert run([command, "--nx", "32", "--ny", "32", "--tol", "1e-6", "--out", str(done)]) == 0
    assert run([command, "--nx", "32", "--ny", "32", "--max-iter", "2", "--out", str(capped)]) == 1
    for out, reason in ((done, None), (capped, "max_iter")):
        assert (out / "run.manifest").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {
            "exit_code", "converged", "iterations", "sup_error", "stats", "diagnostics",
            "residual_history",
        }
        stats, diag = metrics["stats"], metrics["diagnostics"]
        assert set(stats) == {
            "residual_s", "band_s", "solve_s", "mix_s", "wall_norm", "mixing_depth", "factored",
        }
        assert set(diag) == {"reason", "linear_residuals"}
        assert diag["reason"] == reason
        assert metrics["iterations"] == len(diag["linear_residuals"])
        for key in ("wall_norm", "mixing_depth"):
            assert len(stats[key]) == metrics["iterations"], key
        assert min(stats[k] for k in ("residual_s", "band_s", "solve_s", "mix_s")) > 0.0


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["energy", "--preset", "tricomi", "--eps", "1e-4",
                    "--alpha", "0.02", "--nx", "24", "--ny", "24",
                    "--samples", "4", "--m", "0", "--seed", "99",
                    "--out", str(out)]) == 0
    a = (out1 / "energy_samples.csv").read_bytes()
    b = (out2 / "energy_samples.csv").read_bytes()
    assert a == b


def test_cli_config_with_flag_override(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("[problem]\neps = 1e-3\nalpha = 0.05\n")
    out = tmp_path / "out"
    code = run(["check", "--config", str(cfg_path), "--alpha", "0.06",
                "--out", str(out)])
    assert code in (0, 1)
    manifest = (out / "run.manifest").read_text()
    assert "alpha=0.06" in manifest
    assert "eps=0.001" in manifest


def test_failed_alpha_gate_exits_1_with_condition_report(tmp_path, capsys):
    code = run(["energy", "--preset", "tricomi", "--alpha", "1e-4",
                "--nx", "16", "--ny", "16", "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "alpha_condition: FAIL" in out and "min margin" in out


@pytest.mark.parametrize("command", ["ma", "darboux"])
def test_failed_curvature_gate_exits_1_with_one_line(tmp_path, capsys, command):
    code = run([command, "--rho", "1.0", "--nx", "32", "--ny", "32", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("directional curvature condition fails")
    assert captured.out.count("\n") == 1 and captured.err == ""


@pytest.mark.parametrize("command", ["check", "solve", "energy", "multiplier"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "1e100", "1e200", "1e308", "5e-324"])
def test_extreme_alpha_exits_with_a_code(tmp_path, capsys, command, alpha):
    # check_alpha squared 1e308 as a Python float power, which raised
    # OverflowError; a non-finite alpha is a configuration error, and so
    # is a finite one that overflows a quantity formed from it.  At the
    # subnormal alpha tricomi's q = eps*(A - K_x)/alpha is 0 and phi is 1;
    # forming eps/alpha first gave inf*0 = nan
    code = run([command, f"--alpha={alpha}", "--nx", "16", "--ny", "16", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    if alpha in ("nan", "inf"):
        assert code == 2
    if code == 2:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "alpha" in captured.err
    else:
        assert code in (0, 1)
        out = captured.out.lower()
        assert "nan" not in out and "margin inf" not in out and "=inf" not in out
        assert "=-inf" not in out


@pytest.mark.parametrize("command", ["multiplier", "aux"])
def test_subnormal_alpha_overflowing_phi_names_alpha(tmp_path, capsys, command):
    # wedge has A != K_x, so its phi grows like eps/alpha and overflows
    args = [command, "--preset", "wedge", "--alpha", "5e-324", "--nx", "16", "--ny", "16"]
    code = run(args + ["--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: alpha = 4.94066e-324 overflows phi\n"


@pytest.mark.parametrize("command", ["ma", "darboux"])
@pytest.mark.parametrize("alpha0", ["nan", "inf", "1e200", "1e308"])
def test_extreme_alpha0_is_a_configuration_error(tmp_path, capsys, command, alpha0):
    # the Picard normal form's oblique constant is sqrt(rho)*alpha0: a
    # non-finite alpha0 is rejected with the other settings, and one whose
    # alpha overflows alpha^2 is named as the flag that was set
    code = run([command, f"--alpha0={alpha0}", "--nx", "16", "--ny", "16", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: alpha0 = ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, value",
    [("aux", "inf"), ("energy", "nan"), ("energy", "1e-310"), ("aux", "1e-160"), ("aux", "1e-150")],
)
def test_non_finite_lambda_is_a_configuration_error(tmp_path, capsys, command, value):
    # lambda must be positive and finite; before, aux swept lambda = inf
    # three times and exited 0.  A tiny lambda whose lam^-s overflows the
    # recovery or a coupling symbol is named too: lam^-s raised
    # OverflowError, or at 64^2 the overflow reached the field as nan
    n = "64" if value == "1e-150" else "16"
    extra = ["--m", "2"] if command == "aux" else ["--samples", "1"]
    code = run([command, f"--lambda={value}", "--nx", n, "--ny", n, *extra, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "lambda" in captured.err
    if value in ("1e-160", "1e-150"):
        # aux sweeps lambda/10 first, and names the one that overflowed
        assert f"lambda = {float(value) / 10:g} overflows" in captured.err


@pytest.mark.parametrize("via", ["flag", "config"])
def test_lambda_range_error_names_the_key(tmp_path, capsys, via):
    # the message names the setting as it is typed, lambda, not the field lam
    path = write_config(tmp_path, "[multiplier]\nlambda = inf\n")
    args = ["--lambda", "inf"] if via == "flag" else ["--config", path]
    assert run(["aux", *args, "--nx", "16", "--ny", "16", "--out", str(tmp_path / "out")]) == 2
    where = "" if via == "flag" else f"{path}: "
    assert capsys.readouterr().err == (
        f"error: {where}lambda = inf: lambda must be positive and finite\n"
    )


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["ma", "darboux"])
def test_non_finite_tol_is_a_configuration_error(tmp_path, capsys, command, via):
    # tol = inf would pass the first residual and report converged=True
    # after 0 iterations
    args = ["--tol", "inf"] if via == "flag" else [
        "--config", write_config(tmp_path, "[nonlinear]\ntol = inf\n")
    ]
    out = tmp_path / "out"
    code = run([command, *args, "--nx", "16", "--ny", "16", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.endswith("tol = inf: tol must be positive and finite\n")
    assert not (out / "iteration.csv").exists()


@pytest.mark.parametrize("key", ["psi", "theta"])
@pytest.mark.parametrize("command", ["ma", "darboux"])
def test_psi_is_a_usage_error(tmp_path, capsys, command, key):
    # Picard has no psi setting, and its mixing parameter theta is the
    # constant nonlinear.THETA: the flag is unknown to the parser and the
    # key unknown to its config section, both exit 2
    with pytest.raises(SystemExit) as exc:
        run([command, f"--{key}", "0.1", "--out", str(tmp_path)])
    assert exc.value.code == 2 and f"--{key}" in capsys.readouterr().err
    path = write_config(tmp_path, f"[nonlinear]\nrho = 0.25\n{key} = 0.1\n")
    assert run([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3: unknown key '{key}' in section [nonlinear]" in err


def test_overflowing_right_hand_side_reports_finite_norms(tmp_path):
    # a right-hand side of 1e200 overflowed the squares of every norm: the
    # residual norm read inf, the a priori ratio nan, and the gate passed
    from mixedbvp.grid import Field, make_grid, save_field

    g = make_grid(16, 16)
    f = Field.from_function(g, lambda X, Y: 1e200 * np.sin(np.pi * X) * (1.0 + Y))
    save_field(f, tmp_path / "f.csv")
    args = ["solve", "--nx", "16", "--ny", "16", "--rhs", f"csv:{tmp_path / 'f.csv'}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args + ["--out", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert np.isfinite(metrics["residual_norm"]) and np.isfinite(metrics["apriori_ratio"])
    assert metrics["solver_stats"]["residual"] <= 1e-10
    # the norms scale with f: the unscaled solve reads the same a priori ratio
    assert run(["solve", "--nx", "16", "--ny", "16", "--out", str(tmp_path)]) == 0
    plain = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["apriori_ratio"] == pytest.approx(plain["apriori_ratio"], rel=1e-12)


def test_right_hand_side_that_overflows_L_u_is_named(tmp_path, capsys):
    # a finite right-hand side of 1e307 overflows L u in the residual: a
    # usage error whose one line names the right-hand side, not the field
    # check it used to trip
    from mixedbvp.grid import Field, make_grid, save_field

    g = make_grid(16, 16)
    f = Field.from_function(g, lambda X, Y: 1e307 * np.sin(np.pi * X) * (1.0 + Y))
    save_field(f, tmp_path / "f.csv")
    args = ["solve", "--nx", "16", "--ny", "16", "--rhs", f"csv:{tmp_path / 'f.csv'}"]
    assert run(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert err.startswith("error: the right-hand side") and "overflows L u on the 16x16 grid" in err


@pytest.mark.parametrize("args", [
    ["aux", "--preset", "lower_order", "--eps", "0.5", "--alpha", "1000",
     "--lambda", "1e-10", "--m", "2", "--nx", "16", "--ny", "16"],
    ["energy", "--preset", "lower_order", "--eps", "0.9", "--alpha", "1000",
     "--lambda", "1e-10", "--m", "1", "--nx", "16", "--ny", "16", "--samples", "2"],
])
def test_aux_non_contraction_exits_1_with_its_message(tmp_path, capsys, args):
    # a solver that cannot proceed: its message on stdout, no traceback
    assert run(args + ["--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("auxiliary iteration is not contracting") and out.count("\n") == 1


@pytest.mark.parametrize("grids", ["16", "16,16", "16,32,32"])
def test_mms_grid_list_without_an_order_is_a_usage_error(tmp_path, capsys, monkeypatch, grids):
    # fewer than two sizes, or two equal sizes in a row, give no observed
    # order: mms_convergence refuses the list before any solve
    import mixedbvp.solver as solver

    solves = []
    monkeypatch.setattr(solver, "solve_linear", lambda *a, **k: solves.append(a))
    assert run(["mms", "--grids", grids, "--out", str(tmp_path)]) == 2
    assert solves == []
    assert capsys.readouterr().err.startswith("error: an observed order needs two or more grids")


def test_mms_coarsening_grid_list_still_runs(tmp_path):
    code = run(["mms", "--preset", "tricomi", "--eps", "1e-2", "--alpha", "0.02",
                "--grids", "32,16", "--out", str(tmp_path)])
    assert code == 0
    assert len((tmp_path / "convergence.csv").read_text().splitlines()) == 3


_PICARD_KEYS = {"sup_error", "iterations", "residual_history", "converged", "diagnostics", "stats"}


@pytest.mark.parametrize("command, extra, keys", [
    ("check", [], {"condition7", "alpha_condition"}),
    ("multiplier", [], {"interior", "boundary"}),
    ("solve", [], {"residual_norm", "apriori_ratio", "solver_stats"}),
    ("mms", ["--grids", "16,32"], {"rows"}),
    ("energy", ["--samples", "2", "--m", "0"], {"entries", "stats"}),
    ("aux", [], {"sweep"}),
    ("ma", [], _PICARD_KEYS),
    ("darboux", [], _PICARD_KEYS),
])
def test_every_subcommand_writes_metrics_json(tmp_path, command, extra, keys):
    code = run([command, "--nx", "16", "--ny", "16", *extra, "--out", str(tmp_path)])
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) == {"exit_code"} | keys
    assert metrics["exit_code"] == code
    # the reports' fields, less the fields the CSV files hold
    if command == "check":
        for name in ("condition7", "alpha_condition"):
            assert set(metrics[name]) == {
                "condition_name", "pointwise_min_margin", "argmin_location", "passed",
            }
    elif command in ("multiplier", "energy"):
        reports = [metrics] if command == "energy" else [metrics["interior"], metrics["boundary"]]
        for report in reports:
            for entry in report["entries"].values():
                assert set(entry) == {"min", "max", "claimed_bound", "passed"}
    elif command == "mms":
        assert [set(r) for r in metrics["rows"]] == [
            {"h", "error_l2", "error_h01", "observed_order"}
        ] * 2
    elif command == "aux":
        assert [s["lambda"] for s in metrics["sweep"]] == [1.0, 10.0, 100.0]
        for s in metrics["sweep"]:
            assert set(s) == {
                "lambda", "equation_residual", "iterations", "increments", "ratios",
                "converged", "stats",
            }
    elif command in ("ma", "darboux"):
        assert metrics["diagnostics"]["reason"] in (None, "max_iter", "residual stagnation")
        assert len(metrics["residual_history"]) == metrics["iterations"] + 1


def test_failed_run_replaces_the_last_runs_metrics(tmp_path, capsys):
    # the failed run wrote its manifest beside the first run's metrics.json,
    # which still held that run's residual norm
    args = ["solve", "--nx", "16", "--ny", "16", "--out", str(tmp_path)]
    assert run(args) == 0
    assert "residual_norm" in json.loads((tmp_path / "metrics.json").read_text())
    missing = tmp_path / "missing.csv"
    assert run(args + ["--rhs", f"csv:{missing}"]) == 2
    assert f"rhs=csv:{missing}" in (tmp_path / "run.manifest").read_text()
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) == {"exit_code", "error"} and metrics["exit_code"] == 2
    assert str(missing) in metrics["error"]
    assert capsys.readouterr().err == f"error: {metrics['error']}\n"


def test_failed_gate_after_the_manifest_writes_its_error(tmp_path, capsys):
    code = run(["energy", "--alpha", "1e-4", "--nx", "16", "--ny", "16", "--out", str(tmp_path)])
    assert code == 1
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics == {"exit_code": 1, "error": capsys.readouterr().out.rstrip("\n")}
    assert "alpha_condition: FAIL" in metrics["error"]


def test_configuration_error_before_the_manifest_writes_neither_file(tmp_path, capsys):
    assert run(["check", "--eps", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: eps = 2.0: eps must lie in (0, 1)\n"
    assert not (tmp_path / "run.manifest").exists()
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("preset", ["chaplygin", "infinite_order"])
def test_multiplier_at_alpha_zero_on_x_constant_K_reports_its_forms(tmp_path, capsys, preset):
    # phi = 1 at alpha = 0 where A = K_x; this exited 2 with "at alpha = 0
    # the phi ODE needs A = K_x" (tricomi, with K_x = 0 exactly, passed)
    args = ["multiplier", "--preset", preset, "--alpha", "0", "--nx", "16", "--ny", "16"]
    assert run(args + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ""
    assert (tmp_path / "forms.csv").read_text().startswith("label,min,max,claimed_bound,passed\n")
    assert json.loads((tmp_path / "metrics.json").read_text())["exit_code"] == 1
