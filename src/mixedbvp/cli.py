"""Configuration-driven command line front end.

Every certificate and solver is exposed as a subcommand writing CSV
artifacts plus a human-readable summary under the output directory,
together with a run.manifest recording inputs, seed and versions.  Once
the manifest is written, every subcommand also writes metrics.json: the
exit code and the reports the subcommand built (check its two condition
reports, multiplier its interior and boundary forms, solve its
SolveReport, mms its convergence table, energy the certificate's form
report, aux each lambda's auxiliary report, ma and darboux the Picard
report and the sup error), or the exit code and the error that ended
the run.  RunConfig is the one table of settings: each field's metadata
holds its [section], its range test and its config key, and the config
file, validate and the flags all read it.
Exit codes: 0 all certificates pass, 1 a certificate failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .coeffs import check_alpha, check_condition7, preset_coefficients
from .grid import Field, load_field, make_grid, save_field
from .multiplier import (
    AlphaConditionError,
    boundary_form_report,
    build_abc,
    interior_form_report,
)
from .nonlinear import (
    CurvatureGateError,
    DegenerateLinearizationError,
    GraphSurface,
    NonlinearParams,
    flat_metric,
    solve_darboux,
    solve_prescribed_curvature,
)
from .operators import AuxNonContractionError, aux_equation_residual, aux_solve_report
from .solver import (
    LinearProblem,
    PreconditionError,
    ResidualGateError,
    energy_certificate,
    mms_convergence,
    polynomial_sine_solution,
    random_smooth_samples,
    solve_linear,
)


class ConfigError(ValueError):
    pass


def _setting(default, section: str, check=None, key: str | None = None):
    """A RunConfig field: its default (whose type the field parses to), its
    [section], its range test and message, and its config key where that is
    not the field's name."""
    return field(default=default, metadata={"section": section, "check": check, "key": key})


def _positive_finite(name):
    return (lambda v: 0.0 < v < np.inf, f"{name} must be positive and finite")


@dataclass
class RunConfig:
    preset: str = _setting("tricomi", "problem")
    eps: float = _setting(1e-4, "problem", (lambda v: 0.0 < v < 1.0, "eps must lie in (0, 1)"))
    alpha: float = _setting(0.02, "problem", (np.isfinite, "alpha must be finite"))
    lam: float = _setting(10.0, "multiplier", _positive_finite("lambda"), key="lambda")
    m: int = _setting(1, "multiplier", (lambda v: 0 <= v <= 2, "m must be 0, 1 or 2"))
    nx: int = _setting(64, "grid", (lambda v: v >= 4, "nx must be at least 4"))
    ny: int = _setting(64, "grid", (lambda v: v >= 4, "ny must be at least 4"))
    grids: str = _setting("16,32,64", "grid")
    seed: int = _setting(1234, "run", (lambda v: v >= 0, "seed must be a non-negative integer"))
    out: str = _setting("out", "run")
    samples: int = _setting(20, "run", (lambda v: v >= 1, "samples must be at least 1"))
    rho: float = _setting(0.25, "nonlinear", (lambda v: 0.0 < v <= 1.0, "rho must lie in (0, 1]"))
    alpha0: float = _setting(1.2, "nonlinear", _positive_finite("alpha0"))
    max_iter: int = _setting(50, "nonlinear", (lambda v: v >= 1, "max_iter must be at least 1"))
    tol: float = _setting(1e-8, "nonlinear", _positive_finite("tol"))
    rhs: str = _setting("sine", "problem")

    def validate(self) -> None:
        for f in dc_fields(self):
            check, value = f.metadata["check"], getattr(self, f.name)
            if check is not None and not check[0](value):
                raise ConfigError(f"{f.metadata['key'] or f.name} = {value}: {check[1]}")


# config key -> RunConfig field; each key is also a flag
_KEYS = {f.metadata["key"] or f.name: f for f in dc_fields(RunConfig)}


def load_config(path) -> RunConfig:
    """Parse a key = value file with [section] headers into a RunConfig."""
    cfg = RunConfig()
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in {f.metadata["section"] for f in _KEYS.values()}:
                    raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (tok.strip() for tok in line.partition("="))
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key {key!r} before any [section]")
            f = _KEYS.get(key)
            if f is None or f.metadata["section"] != section:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} in section [{section}]"
                )
            try:
                setattr(cfg, f.name, type(f.default)(value))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _write_manifest(cfg: RunConfig, outdir: Path, command: str) -> None:
    lines = [f"command={command}", f"version={__version__}"]
    lines += [f"{f.name}={getattr(cfg, f.name)}" for f in dc_fields(cfg)]
    lines += [f"numpy={np.__version__}", f"scipy={scipy.__version__}"]
    (outdir / "run.manifest").write_text("\n".join(lines) + "\n")


def _coeffs(cfg: RunConfig):
    return preset_coefficients(cfg.preset, make_grid(cfg.nx, cfg.ny), cfg.eps, cfg.alpha)


def _parse_grids(spec: str):
    try:
        sizes = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid list {spec!r}") from exc
    return [make_grid(n, n) for n in sizes]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check(cfg: RunConfig, outdir: Path):
    cs = _coeffs(cfg)
    reports = [check_condition7(cs), check_alpha(cs)]
    text = "\n".join(str(r) for r in reports)
    (outdir / "conditions.txt").write_text(text + "\n")
    print(text)
    return 0 if all(r.passed for r in reports) else 1, {r.condition_name: r for r in reports}


def _cmd_multiplier(cfg: RunConfig, outdir: Path):
    cs = _coeffs(cfg)
    mt = build_abc(cs, cfg.lam, cfg.m, require_alpha=False)
    interior = interior_form_report(mt, cs)
    boundary = boundary_form_report(mt, cs)
    text = f"[interior]\n{interior}\n[boundary]\n{boundary}"
    (outdir / "forms.txt").write_text(text + "\n")
    combined = interior.to_csv() + "\n" + "\n".join(boundary.to_csv().splitlines()[1:])
    (outdir / "forms.csv").write_text(combined + "\n")
    print(text)
    code = 0 if interior.all_passed and boundary.all_passed else 1
    return code, {"interior": interior, "boundary": boundary}


def _cmd_solve(cfg: RunConfig, outdir: Path):
    cs = _coeffs(cfg)
    if cfg.rhs == "sine":
        f = Field.from_function(cs.grid, lambda X, Y: np.sin(np.pi * X) * (1.0 + Y))
    elif cfg.rhs.startswith("csv:"):
        f = load_field(cfg.rhs[4:])
    else:
        raise ConfigError(f"unknown rhs {cfg.rhs!r} (use 'sine' or 'csv:<path>')")
    rep = solve_linear(LinearProblem(cs, f), require_conditions=False)
    save_field(rep.u, outdir / "solution.csv")
    text = (
        f"residual_norm={rep.residual_norm:.6e}\n"
        f"apriori_ratio={rep.apriori_ratio:.6e}\n"
        f"stats={rep.solver_stats}"
    )
    (outdir / "solve_report.txt").write_text(text + "\n")
    print(text)
    return 0, rep


def _cmd_mms(cfg: RunConfig, outdir: Path):
    grids = _parse_grids(cfg.grids)
    table = mms_convergence(
        lambda g: preset_coefficients(cfg.preset, g, cfg.eps, cfg.alpha),
        polynomial_sine_solution(),
        grids,
    )
    (outdir / "convergence.csv").write_text(table.to_csv() + "\n")
    print(table.to_csv())
    orders = table.orders
    return 0 if orders and orders[-1] >= 1.5 else 1, table


def _cmd_energy(cfg: RunConfig, outdir: Path):
    if cfg.m > 1:
        raise ConfigError("energy certificate supports m = 0 or 1 (dual-norm order cap)")
    cs = _coeffs(cfg)
    mt = build_abc(cs, cfg.lam, cfg.m)
    vs = random_smooth_samples(cs.grid, cs.alpha, cfg.samples, cfg.seed, adjoint=True)
    report, samples = energy_certificate(cs, mt, vs)
    rows = ["sample,ratio,dual_constant,aux_iterations"]
    rows += [
        f"{i},{s.ratio:.8e},{s.dual_constant:.8e},{s.aux_iterations}"
        for i, s in enumerate(samples)
    ]
    (outdir / "energy_samples.csv").write_text("\n".join(rows) + "\n")
    (outdir / "energy.txt").write_text(report.to_text() + "\n")
    (outdir / "energy.csv").write_text(report.to_csv() + "\n")
    print(report.to_text())
    return 0 if report.all_passed else 1, report


def _cmd_aux(cfg: RunConfig, outdir: Path):
    cs = _coeffs(cfg)
    rng = np.random.default_rng(cfg.seed)
    coef = rng.standard_normal(3)
    v = Field.from_function(
        cs.grid,
        lambda X, Y: (1.0 - Y)
        * (coef[0] + coef[1] * np.sin(np.pi * X) + coef[2] * Y),
    )
    rows = ["lambda,iterations,contraction_ratio,equation_residual,converged"]
    sweep = []
    for lam in (cfg.lam / 10.0, cfg.lam, cfg.lam * 10.0):
        mt_l = build_abc(cs, lam, cfg.m, require_alpha=False)
        rep = aux_solve_report(v, mt_l)
        resid = aux_equation_residual(rep, v, mt_l)
        sweep.append({"lambda": lam, "equation_residual": resid, **vars(rep)})
        rows.append(
            f"{lam},{rep.iterations},{rep.contraction_ratio:.6e},{resid:.6e},{rep.converged}"
        )
    (outdir / "aux_sweep.csv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    ok = all(s["converged"] and s["equation_residual"] <= 1e-6 for s in sweep)
    return 0 if ok else 1, {"sweep": sweep}


def manufactured_curvature_pair(grid, rho: float):
    """Rescaled manufactured pair: z = x^2/2 + rho*y^3/6 with its literal curvature."""
    z = Field.from_function(grid, lambda X, Y: X**2 / 2.0 + rho * Y**3 / 6.0)
    K = Field.from_function(
        grid,
        lambda X, Y: rho * Y / (1.0 + X**2 + (rho * Y**2 / 2.0) ** 2) ** 2,
    )
    return z, K


def manufactured_darboux_pair(grid, rho: float):
    """Graph shrunk by 1/2, keeping |grad z|^2 < 1/2, with its flat-metric Darboux source."""
    z = Field.from_function(
        grid, lambda X, Y: 0.5 * (X**2 / 2.0 + rho * Y**3 / 6.0)
    )
    def kfun(X, Y):
        grad2 = (0.5 * X) ** 2 + (0.5 * rho * Y**2 / 2.0) ** 2
        return 0.25 * rho * Y / (1.0 - grad2)

    return z, Field.from_function(grid, kfun)


def _perturbation(grid):
    return Field.from_function(
        grid,
        lambda X, Y: 0.01 * (1.0 - Y**2) * (1.0 + Y) ** 2 * np.sin(np.pi * X),
    )


def _run_picard(cfg: RunConfig, outdir: Path, pair, solve):
    """Recover pair's manufactured surface from the perturbed start with solve."""
    grid = make_grid(cfg.nx, cfg.ny)
    z_star, K = pair(grid, cfg.rho)
    z0 = Field(grid, z_star.values + _perturbation(grid).values)
    params = NonlinearParams(alpha0=cfg.alpha0, tol=cfg.tol, max_iter=cfg.max_iter)
    try:
        rep = solve(K, GraphSurface(z0, cfg.rho), params)
    except ResidualGateError as exc:
        if exc.rows != "bottom":
            raise
        # the normal form's oblique row takes its alpha from the flag
        raise PreconditionError(
            f"{exc} (alpha = sqrt(rho)*alpha0 with --alpha0 {cfg.alpha0:g})"
        ) from exc
    rows = ["iteration,residual"]
    rows += [f"{i},{r:.8e}" for i, r in enumerate(rep.residual_history)]
    (outdir / "iteration.csv").write_text("\n".join(rows) + "\n")
    save_field(rep.final_z.z, outdir / "z_final.csv")
    err = np.abs(rep.final_z.z.values - z_star.values).max()
    print(f"converged={rep.converged} iterations={rep.iterations} sup_error={err:.3e}")
    return 0 if rep.converged else 1, {"sup_error": err, **vars(rep)}


def _cmd_ma(cfg: RunConfig, outdir: Path):
    return _run_picard(cfg, outdir, manufactured_curvature_pair, solve_prescribed_curvature)


def _cmd_darboux(cfg: RunConfig, outdir: Path):
    def solve(K, z0, params):
        return solve_darboux(K, flat_metric(K.grid), z0, params)

    return _run_picard(cfg, outdir, manufactured_darboux_pair, solve)


_COMMANDS = {
    "check": _cmd_check,
    "multiplier": _cmd_multiplier,
    "solve": _cmd_solve,
    "mms": _cmd_mms,
    "energy": _cmd_energy,
    "aux": _cmd_aux,
    "ma": _cmd_ma,
    "darboux": _cmd_darboux,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedbvp",
        description="certificates and solvers for the mixed-type cylinder problem",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="key = value file with [section] headers")
    # one flag per config key, parsed to the type the config file gives it
    for key, f in _KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=f.name, type=type(f.default))
    return parser


def _jsonable(obj):
    """obj for json: a dataclass as the dict of its fields, numpy scalars as
    Python values; a Field or GraphSurface is left out (the CSV files hold
    those)."""
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dc_fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items() if not isinstance(v, (Field, GraphSurface))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


def run(argv=None) -> int:
    """Run one subcommand; once run.manifest is written, metrics.json holds
    the exit code and the subcommand's reports, or the error that ended it."""
    args = _build_parser().parse_args(argv)
    metrics_path = None
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        for f in dc_fields(cfg):
            override = getattr(args, f.name, None)
            if override is not None:
                setattr(cfg, f.name, override)
        cfg.validate()
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_manifest(cfg, outdir, args.command)
        metrics_path = outdir / "metrics.json"
        metrics_path.unlink(missing_ok=True)  # no earlier run's metrics beside this manifest
        code, report = _COMMANDS[args.command](cfg, outdir)
    except (
        AlphaConditionError,
        PreconditionError,
        CurvatureGateError,
        DegenerateLinearizationError,
        AuxNonContractionError,
    ) as exc:
        # a failed admissibility gate or a solver that cannot proceed: the
        # message says which condition failed
        print(exc)
        code, report = 1, {"error": str(exc)}
    except (ValueError, OSError) as exc:
        # the library raises ValueError (ConfigError among them) for input
        # it cannot take: an unknown preset, a grid too small for a solver
        print(f"error: {exc}", file=sys.stderr)
        code, report = 2, {"error": str(exc)}
    if metrics_path is not None:
        metrics = {"exit_code": code, **_jsonable(report)}
        metrics_path.write_text(json.dumps(metrics, indent=1) + "\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
