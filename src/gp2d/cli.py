"""Command line entry point: gp <subcommand>.

Subcommands: soliton, energy, minimize, sweep, check-v1, check-v2, blowup.
Exit codes: 0 success, 2 config error, 3 numerical non-convergence.

Number formatting is pinned to Python's shortest round-trip repr, both in
CSV cells and in JSON, so identical configs reproduce outputs byte for byte.
JSON is written as one compact line with sorted keys, strictly: a
non-finite number, such as the infinite width of a field constant to
rounding, is written as null.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_config
from .diagnostics import analyze_sweep
from .energy import energy
from .errors import ConfigError, GPError, InputError, InvalidProfile, NumericalFailure
from .grid import make_grid, normalize, read_gpf, write_gpf
from .minimizer import MinimizerOptions, continuation_sweep, gaussian_init, minimize
from .potentials import check_v2, parse_potential, realize
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


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _dump_json(obj, path=None) -> str:
    """obj as strict JSON, where a non-finite float (an infinite width) is null."""
    text = json.dumps(_finite_or_null(obj), sort_keys=True, allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _cell(x) -> str:
    """A CSV cell: true/false for a flag, digits for a count, else _fmt."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(x)
    return _fmt(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


class _Manifest:
    """Collects everything a run writes to out_dir, plus the reproducibility record."""

    def __init__(self, subcommand: str, config_echo: dict, out_dir: Path):
        self._t0 = time.monotonic()
        self.out_dir = out_dir
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

    def output(self, name: str) -> Path:
        """Path of the output file name in out_dir, listed as written."""
        path = self.out_dir / name
        self.data["outputs"].append(str(path))
        return path

    def note(self, text: str):
        self.data["notes"].append(text)

    def write(self):
        # wall time varies run to run; everything else in the manifest and
        # all numeric outputs are deterministic for a fixed config
        self.data["wall_time_s"] = time.monotonic() - self._t0
        _dump_json(self.data, self.output("run_manifest.json"))


class _StderrLines(logging.Handler):
    """One line per record on whatever sys.stderr is when the record is
    emitted, so that a redirected or captured stderr receives it."""

    def emit(self, record):
        sys.stderr.write(self.format(record) + "\n")


_PROGRESS = _StderrLines()


def _report_progress():
    """Send the package's INFO records (one line per sweep entry) to stderr.

    Idempotent: repeated runs in one process share the one handler.
    """
    log = logging.getLogger("gp2d")
    log.setLevel(logging.INFO)
    if _PROGRESS not in log.handlers:
        log.addHandler(_PROGRESS)


@functools.cache
def _profile_cached():
    """The default Townes profile, solved once per process."""
    return solve_townes()


def cmd_soliton(args) -> int:
    profile = solve_townes(tol=args.tol)
    data = profile_to_dict(profile)
    data["a_star"] = critical_coupling(profile)
    _dump_json(data, args.out)
    print(f"wrote {args.out} (a* = {_fmt(data['a_star'])})")
    return EXIT_OK


def cmd_energy(args) -> int:
    u = read_gpf(args.field)
    V = read_gpf(args.potential)
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


def _read_profile(path):
    try:
        return profile_from_dict(json.loads(Path(path).read_text()))
    except OSError as exc:
        raise ConfigError(f"cannot read profile {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidProfile(f"profile file is not valid JSON: {exc}") from exc


def _run_schedule(args, profile_path=None):
    """Set-up and continuation sweep shared by gp sweep and gp blowup.

    The steps run in the order config, output path check, profile file (gp
    blowup passes its path), potential, Townes solve (without a profile
    file), sweep, output directory: bad input fails before the Townes solve,
    and a schedule the sweep refuses leaves no directory.  Returns (config,
    profile, manifest, results).
    """
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    full = out_dir.absolute()
    nearest = next(p for p in (full, *full.parents) if p.exists() or p.is_symlink())
    if not nearest.is_dir():
        raise ConfigError(f"cannot make output directory {str(out_dir)!r}: "
                          f"{str(nearest)!r} is not a directory")
    profile = None if profile_path is None else _read_profile(profile_path)
    manifest = _Manifest(args.command, cfg.raw, out_dir)
    V = realize(cfg.potential, cfg.grid)
    if profile is None:
        profile = _profile_cached()
    a_star = critical_coupling(profile)
    _report_progress()
    manifest.data["grid"] = {"L": cfg.grid.L, "n": cfg.grid.n}
    manifest.data["a_star"] = a_star
    results = continuation_sweep(V, cfg.schedule(a_star), cfg.grid, cfg.opts, a_star=a_star)
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, profile, manifest, results


def _finish(manifest: _Manifest, results, exit_code: int = EXIT_OK) -> int:
    """Record the unconverged couplings, write the manifest, return the exit
    code: exit_code, or EXIT_NUMERICS when an entry did not converge."""
    failed = [r.coupling for r in results if not r.converged]
    if failed:
        manifest.data["status"] = "non_convergence"
        manifest.note(f"unconverged couplings: {failed}")
        exit_code = EXIT_NUMERICS
    manifest.write()
    return exit_code


def _entry_cells(res, *distances) -> tuple:
    """One entries.csv row of a minimizer result, for gp sweep and gp blowup:
    a, E, eps, then the distances (gp blowup's L2 and H1 to Townes), then
    residual, iters, converged, resolved."""
    return (res.coupling, res.E, res.eps, *distances, res.residual, res.iters,
            res.converged, not res.resolution_warning)


def cmd_sweep(args) -> int:
    _, _, manifest, results = _run_schedule(args)
    rows = []
    for i, res in enumerate(results):
        write_gpf(manifest.output(f"u_{i:03d}.gpf"), res.u)
        rows.append(_entry_cells(res))
    header = ("a", "E", "eps", "residual", "iters", "converged", "resolved")
    _write_csv(manifest.output("entries.csv"), header, rows)

    exit_code = _finish(manifest, results)
    if exit_code == EXIT_OK:
        print(f"sweep complete: {len(results)} entries in {manifest.out_dir}")
    else:
        failed = sum(not r.converged for r in results)
        print(f"{failed} sweep entries did not converge", file=sys.stderr)
    return exit_code


def cmd_blowup(args) -> int:
    cfg, profile, manifest, results = _run_schedule(args, args.profile)
    report = analyze_sweep(results, profile, cfg.potential.trap)
    rows = [_entry_cells(res, e.l2_dist, e.h1_dist) for res, e in zip(results, report.entries)]
    header = ("a", "E", "eps", "L2_dist", "H1_dist", "residual", "iters", "converged", "resolved")
    _write_csv(manifest.output("entries.csv"), header, rows)
    for i, (res, entry) in enumerate(zip(results, report.entries)):
        if not res.resolution_warning:
            write_gpf(manifest.output(f"aligned_{i:03d}.gpf"), entry.aligned)

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
        _dump_json(fit, manifest.output("fit.json"))

    exit_code = _finish(manifest, results, exit_code)
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
    report = check_v1(V, grid, spec.ess_inf(), tol=args.tol)
    sys.stdout.write(_dump_json(asdict(report)))
    return EXIT_OK


def cmd_check_v2(args) -> int:
    spec = parse_potential(args.potential)
    grid = make_grid(args.L, args.n)
    if args.field:
        u = normalize(read_gpf(args.field))
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
    p.add_argument("--max-iters", type=int, default=MinimizerOptions.max_iters)
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
