"""Command line entry point: gp <subcommand>.

Subcommands: soliton, energy, minimize, sweep, check-v1, check-v2, blowup.
Exit codes: 0 success, 2 config error, 3 numerical non-convergence.

Number formatting is pinned to Python's shortest round-trip repr, both in
CSV cells and in JSON, so identical configs reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .config import SweepConfig, load_config
from .diagnostics import analyze_sweep
from .energy import energy
from .errors import ConfigError, GPError, InputError, InvalidProfile, NumericalFailure
from .grid import make_grid, normalize, read_gpf, write_gpf
from .minimizer import MinimizerOptions, continuation_sweep, gaussian_init, minimize
from .potentials import check_v2, ess_inf_estimate, parse_potential, realize
from .soliton import (
    critical_coupling,
    profile_from_dict,
    profile_to_dict,
    solve_townes,
)
from .spectrum import check_v1

EXIT_OK = 0
EXIT_CONFIG = InputError.exit_code
EXIT_NUMERICS = NumericalFailure.exit_code


def _fmt(x) -> str:
    """Shortest round-trip decimal form, the one number format we emit."""
    return repr(float(x))


def _dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    Path(path).write_text("\n".join(lines) + "\n")


class _Manifest:
    """Collects everything a run writes plus the reproducibility record."""

    def __init__(self, subcommand: str, config_echo: dict):
        self._t0 = time.monotonic()
        self.data = {
            "version": __version__,
            "subcommand": subcommand,
            "config": config_echo,
            "grid": None,
            "a_star": None,
            "outputs": [],
            "status": "ok",
            "notes": [],
        }

    def add_output(self, path):
        self.data["outputs"].append(str(path))

    def note(self, text: str):
        self.data["notes"].append(text)

    def write(self, out_dir):
        # wall time varies run to run; everything else in the manifest and
        # all numeric outputs are deterministic for a fixed config
        self.data["wall_time_s"] = time.monotonic() - self._t0
        path = Path(out_dir) / "run_manifest.json"
        self.data["outputs"].append(str(path))
        _dump_json(self.data, path)


def _profile_cached():
    global _PROFILE
    if _PROFILE is None:
        _PROFILE = solve_townes()
    return _PROFILE


_PROFILE = None


def cmd_soliton(args) -> int:
    profile = solve_townes(tol=args.tol, mesh_size=args.mesh_size)
    data = profile_to_dict(profile)
    data["a_star"] = critical_coupling(profile)
    _dump_json(data, args.out)
    print(f"wrote {args.out} (a* = {_fmt(data['a_star'])})")
    return EXIT_OK


def cmd_energy(args) -> int:
    u = read_gpf(args.field)
    V = read_gpf(args.potential)
    if u.grid != V.grid:
        raise ConfigError("field and potential grids differ")
    br = energy(u, V, args.a, check_mass=False)
    sys.stdout.write(_dump_json(asdict(br)))
    return EXIT_OK


def _realized_potential(spec_text: str, L: float, n: int):
    spec = parse_potential(spec_text)
    grid = make_grid(L, n)
    return spec, grid, realize(spec, grid)


def cmd_minimize(args) -> int:
    spec, grid, V = _realized_potential(args.potential, args.L, args.n)
    a_star = critical_coupling(_profile_cached())
    opts = MinimizerOptions(tol_residual=args.tol, max_iters=args.max_iters)
    res = minimize(V, args.a, grid, opts, a_star=a_star)
    out = {
        "E": res.E,
        "residual": res.residual,
        "iters": res.iters,
        "converged": res.converged,
        "eps": res.eps,
        "coupling": res.coupling,
        "a_star": a_star,
        "resolution_warning": res.resolution_warning,
    }
    if args.out:
        _dump_json(out, args.out)
    else:
        sys.stdout.write(_dump_json(out))
    if args.field:
        write_gpf(args.field, res.u)
    if not res.converged:
        print("minimizer did not reach the residual tolerance", file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


def _run_schedule(cfg: SweepConfig, manifest: _Manifest, load_profile):
    """Shared sweep machinery: the continuation sweep over cfg's schedule.

    The potential is realized before load_profile() runs, so that a bad
    config fails before any Townes solve.
    """
    V = realize(cfg.potential, cfg.grid)
    a_star = critical_coupling(load_profile())
    manifest.data["grid"] = {"L": cfg.grid.L, "n": cfg.grid.n}
    manifest.data["a_star"] = a_star
    schedule = cfg.schedule(a_star)
    return continuation_sweep(V, schedule, cfg.grid, cfg.opts, a_star=a_star)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest("sweep", cfg.raw)
    results = _run_schedule(cfg, manifest, _profile_cached)

    rows = []
    for i, res in enumerate(results):
        fpath = out_dir / f"u_{i:03d}.gpf"
        write_gpf(fpath, res.u)
        manifest.add_output(fpath)
        rows.append(
            (
                res.coupling,
                res.E,
                res.eps,
                res.residual,
                str(res.iters),
                str(res.converged).lower(),
                str(not res.resolution_warning).lower(),
            )
        )
    csv_path = out_dir / "entries.csv"
    _write_csv(csv_path, ("a", "E", "eps", "residual", "iters", "converged", "resolved"), rows)
    manifest.add_output(csv_path)

    failed = [r.coupling for r in results if not r.converged]
    if failed:
        manifest.data["status"] = "non_convergence"
        manifest.note(f"unconverged couplings: {failed}")
    manifest.write(out_dir)
    if failed:
        print(f"{len(failed)} sweep entries did not converge", file=sys.stderr)
        return EXIT_NUMERICS
    print(f"sweep complete: {len(results)} entries in {out_dir}")
    return EXIT_OK


def cmd_blowup(args) -> int:
    cfg = load_config(args.config)
    try:
        profile = profile_from_dict(json.loads(Path(args.profile).read_text()))
    except OSError as exc:
        raise ConfigError(f"cannot read profile {args.profile!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidProfile(f"profile file is not valid JSON: {exc}") from exc

    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest("blowup", cfg.raw)
    results = _run_schedule(cfg, manifest, lambda: profile)

    report = analyze_sweep(results, profile, cfg.potential.trap)

    rows = [
        (
            e.a,
            e.E,
            e.eps,
            e.l2_dist,
            e.h1_dist,
            res.residual,
            str(res.iters),
            str(res.converged).lower(),
            str(e.resolved).lower(),
        )
        for e, res in zip(report.entries, results)
    ]
    csv_path = out_dir / "entries.csv"
    header = ("a", "E", "eps", "L2_dist", "H1_dist", "residual", "iters", "converged", "resolved")
    _write_csv(csv_path, header, rows)
    manifest.add_output(csv_path)

    for i, entry in enumerate(report.entries):
        if entry.resolved:
            fpath = out_dir / f"aligned_{i:03d}.gpf"
            write_gpf(fpath, entry.aligned)
            manifest.add_output(fpath)

    exit_code = EXIT_OK
    if report.fitted_exponent is None:
        manifest.data["status"] = "InsufficientData"
        manifest.note("fewer than 3 resolved entries; fit.json not written")
        exit_code = EXIT_NUMERICS
    else:
        fit = {
            "exponent": report.fitted_exponent,
            "prefactor": report.fitted_prefactor,
            "window": list(report.fit_window),
            "predicted_exponent": report.predicted_exponent,
            "predicted_prefactor": report.predicted_prefactor,
        }
        fit_path = out_dir / "fit.json"
        _dump_json(fit, fit_path)
        manifest.add_output(fit_path)

    failed = [r.coupling for r in results if not r.converged]
    if failed:
        manifest.data["status"] = "non_convergence"
        manifest.note(f"unconverged couplings: {failed}")
        exit_code = EXIT_NUMERICS
    manifest.write(out_dir)
    if exit_code == EXIT_OK:
        print(
            f"blow-up fit: exponent {_fmt(report.fitted_exponent)}, "
            f"prefactor {_fmt(report.fitted_prefactor)}"
        )
    else:
        print("blow-up run incomplete; see manifest", file=sys.stderr)
    return exit_code


def cmd_check_v1(args) -> int:
    spec, grid, V = _realized_potential(args.potential, args.L, args.n)
    report = check_v1(V, grid, ess_inf_estimate(spec), tol=args.tol)
    sys.stdout.write(_dump_json(asdict(report)))
    return EXIT_OK


def cmd_check_v2(args) -> int:
    spec = parse_potential(args.potential)
    grid = make_grid(args.L, args.n)
    if args.field:
        u = normalize(read_gpf(args.field))
        if u.grid != grid:
            raise ConfigError("field grid does not match --L/--n")
    else:
        u = gaussian_init(grid, width=args.width)
    report = check_v2(spec, u, args.eps, grid)
    sys.stdout.write(_dump_json(asdict(report)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gp",
        description="2D attractive Gross-Pitaevskii variational laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("soliton", help="solve the Townes profile, write JSON")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--mesh-size", type=int, default=4000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("energy", help="energy breakdown of a stored field")
    p.add_argument("--field", required=True)
    p.add_argument("--potential", required=True, help="GPF1 file with V samples")
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("minimize", help="single unit-mass minimization")
    p.add_argument("--potential", required=True, help="spec string or file:path")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--out", help="result JSON path (default: stdout)")
    p.add_argument("--field", help="write the minimizer as GPF1")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("sweep", help="coupling sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (default: out_dir from config)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-v1", help="spectral-gap condition report")
    p.add_argument("--potential", required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_check_v1)

    p = sub.add_parser("check-v2", help="attainment condition report")
    p.add_argument("--potential", required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--width", type=float, default=1.0, help="default carrier width")
    p.add_argument("--field", help="unit-mass GPF1 density carrier (default: Gaussian)")
    p.set_defaults(func=cmd_check_v2)

    p = sub.add_parser("blowup", help="near-critical sweep with scaling fit")
    p.add_argument("--config", required=True)
    p.add_argument("--profile", required=True, help="profile JSON from gp soliton")
    p.add_argument("--out", help="output directory (default: out_dir from config)")
    p.set_defaults(func=cmd_blowup)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our config-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GPError, OSError, ValueError) as exc:
        # a package error carries its exit code; a path that cannot be used or
        # a value out of range from outside the package is bad input
        code = exc.exit_code if isinstance(exc, GPError) else EXIT_CONFIG
        label = "config error" if code == EXIT_CONFIG else "numerical failure"
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
