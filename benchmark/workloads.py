"""The workloads: what one round runs and how its outputs are checked.

A round calls the program through its public entry points only: the `gp`
command line (`gp2d.cli.run`, in process) and the library functions the
command line has no subcommand for.  Every function is looked up on its
module at call time, so the probe's wrappers see the call.  Checks run after
the round's clock has stopped and compare against `reference`, never
against stored program output.

Each workload has `round(probe) -> Round` and `iteration_case() -> (V, a,
grid)`, the problem on which `run.py` times a fixed number of minimizer
iterations.  A workload makes its inputs when it is built and its references
when the first round is checked, so that nothing but the program runs
between the first round's start and its memory reading.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import functools
import io
import json
import resource
import shutil
import time
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

import gp2d.cli as cli
import gp2d.diagnostics as diagnostics
import gp2d.grid as grid
import gp2d.potentials as potentials
import gp2d.soliton as soliton

# the package re-exports the function energy() under the module's name
energy = importlib.import_module("gp2d.energy")

import reference as ref


class Round:
    """Outcome of one round: clock, operations, failures, output digest.

    `problems` are failed correctness checks; `faults` explain the operations
    counted in `failed`.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.faults: list[str] = []
        self.hash = hashlib.sha256()
        self.output_bytes = 0
        self.resolved = 0
        self.max_rss = 0  # the process's peak resident set, in bytes, after the program calls
        self.probe_calls = (0, 0, 0)  # as Probe.tally counts them, in this round
        self.spans: list = []

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def fault(self, ok: bool, what: str):
        """An operation whose output is wrong on every input: counted as failed."""
        if not ok:
            self.faults.append(what)
            self.failed += 1

    @property
    def digest(self) -> str:
        return self.hash.hexdigest()


@contextlib.contextmanager
def program(rnd: Round):
    """Clock the program calls of a round and read the peak resident set after them."""
    t0 = time.perf_counter()
    yield
    rnd.wall_s = time.perf_counter() - t0
    rnd.max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def gp(rnd: Round, argv) -> tuple[int, str]:
    """Run one `gp` command in process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([str(a) for a in argv])
    except Exception as exc:  # a traceback is a failed operation, not a crash
        rnd.faults.append(f"gp {argv[0]} raised {type(exc).__name__}: {exc}")
        return -1, ""
    if code != 0:
        rnd.faults.append(f"gp {argv[0]} exited {code}: {err.getvalue().strip()}")
    text = out.getvalue()
    rnd.output_bytes += len(text.encode())
    return code, text


def hash_outputs(rnd: Round, out_dir: Path):
    """Fold every file the command wrote into the round's digest.

    The manifest's wall time differs run to run by design and is dropped.
    """
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        rnd.output_bytes += len(data)
        if path.name == "run_manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        rnd.hash.update(path.name.encode() + b"\0" + data)


def read_csv(path: Path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


def close(x: float, y: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(x - y) <= abs_ + rel * abs(y)


def sweep_results(spans) -> list:
    """Take the results the outermost continuation_sweep of the round returned.

    They leave the span, so that a run does not keep every round's fields.
    """
    for span in spans:
        if span[0] == "minimizer.continuation_sweep" and span[3] == -1 and span[4] is not None:
            result, span[4] = span[4], None
            return result
    return []


def fresh_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class HarmonicBlowup:
    """`gp soliton` then `gp blowup` on the headline sweep, rescaled.

    The headline config (h0=1, L=16, n=512, tol 3e-6) runs ~300 s, longer
    than one benchmark run may take.  Dilating it by 2 gives h0=1/16 and
    halves the cells per unit length: with L=12 and n=192 every entry keeps
    the headline's eps/dx (7.4 down to 3.8, the last entry unresolved), the
    predicted exponent is still 1/4, and tol 3e-6/4 is the same residual in
    the rescaled units.
    """

    h0, p, L, n, tol = 0.0625, 2.0, 12.0, 192, 7.5e-7
    CONFIG = (
        "potential = power_well h0=0.0625 p=2 rcut=8\n"
        "L = 12\nn = 192\na_schedule = geom:0.05,0.65,7\n"
        "tol = 7.5e-7\nmax_iters = 40000\n"
    )
    ENTRIES = 7

    def __init__(self, workdir: Path):
        self.cfg = workdir / "blowup.cfg"
        self.cfg.write_text(self.CONFIG)
        self.profile = workdir / "profile.json"
        self.out = workdir / "out"
        self.g = ref.Grid(self.L, self.n)
        r = self.g.R
        self.V = self.h0 * np.minimum(r, 8.0) ** self.p
        self.xdV = np.where(r < 8.0, self.p * self.h0 * r**self.p, 0.0)

    @functools.cached_property
    def townes(self) -> ref.Townes:
        return ref.Townes()

    def round(self, probe) -> Round:
        rnd = Round()
        fresh_dir(self.out)
        with program(rnd):
            with probe.span("cli.soliton"):
                code_s, _ = gp(rnd, ["soliton", "--out", self.profile])
            code_b, _ = gp(rnd, ["blowup", "--config", self.cfg, "--profile", self.profile,
                                 "--out", self.out])
        rnd.spans = probe.take()
        results = sweep_results(rnd.spans)
        rnd.ops = self.ENTRIES
        if code_s != 0 or code_b != 0 or len(results) != self.ENTRIES:
            rnd.failed = self.ENTRIES
            return rnd
        rnd.failed = sum(not r.converged for r in results)
        profile = self.profile.read_bytes()
        rnd.output_bytes += len(profile)
        rnd.hash.update(profile)
        hash_outputs(rnd, self.out)
        self.check_outputs(rnd, results)
        return rnd

    def check_outputs(self, rnd: Round, results):
        g, t = self.g, self.townes
        rows = read_csv(self.out / "entries.csv")
        fit = json.loads((self.out / "fit.json").read_text())
        a_star = t.mass
        eps, E = [], []
        for i, (res, row) in enumerate(zip(results, rows)):
            u, a = res.u.values, res.coupling
            f = ref.functional(g, u, self.V, a)
            eps.append(1.0 / np.sqrt(f["kinetic"]))
            E.append(f["E"])
            rnd.check(close(float(row["eps"]), eps[-1], 1e-9), f"entry {i}: eps differs")
            rnd.check(close(float(row["E"]), f["E"], 1e-9, 1e-12), f"entry {i}: E differs")
            defect, allowance = ref.virial(g, u, self.V, self.xdV, a)
            rnd.check(abs(defect) <= allowance,
                      f"entry {i}: virial defect {defect:.3e} above {allowance:.3e}")
        resolved = [bool(e >= 4.0 * g.dx) for e in eps]
        rnd.resolved = sum(resolved)
        rnd.check([r["resolved"] == "true" for r in rows] == resolved, "resolved flags differ")
        rnd.check(sum(resolved) >= 5, f"only {sum(resolved)} resolved entries")
        rnd.check(all(e > 0 for e in E) and all(b < a for a, b in zip(E, E[1:])),
                  "E is not positive and decreasing")
        idx = [i for i, ok in enumerate(resolved) if ok]
        da = np.log([a_star - results[i].coupling for i in idx])
        slope, icpt = np.polyfit(da, np.log([eps[i] for i in idx]), 1)
        rnd.check(0.2375 <= slope <= 0.2625, f"fitted exponent {slope:.4f} outside [0.2375, 0.2625]")
        rnd.check(close(fit["exponent"], slope, 1e-6), "fit.json exponent differs")
        predicted = (0.5 * self.p * self.h0 * t.moment(self.p)) ** (-1.0 / (self.p + 2.0))
        for label, pref in (("fit", np.exp(icpt)), ("fit.json", fit["prefactor"])):
            rnd.check(close(pref, predicted, 0.10),
                      f"{label} prefactor {pref:.4f} not within 10% of {predicted:.4f}")
        _, w = ref.read_gpf(self.out / f"aligned_{idx[-1]:03d}.gpf")
        dist = np.sqrt(g.integral((w - t.sampled(g.R)) ** 2))
        rnd.check(dist < 0.05, f"most critical resolved entry is {dist:.4f} from Townes")

    def iteration_case(self):
        g = grid.make_grid(self.L, self.n)
        V = potentials.realize(potentials.parse_potential("power_well h0=0.0625 p=2 rcut=8"), g)
        return V, self.townes.mass * 0.95, g


class Conditions:
    """The existence-side checkers and scans, on inputs drawn from the seed."""

    H0, LAT_S, LAT_T = 2.0, 0.5, 8.0
    V1 = (  # label, potential, L, n
        ("harmonic", f"power_well h0={H0} p=2 rcut=8", 8.0, 64),
        ("lattice", f"lattice s={LAT_S} period={LAT_T}", 16.0, 256),
        ("sinc", "sinc", 16.0, 256),
    )
    GN_FIELDS = 96
    RADII = np.arange(0.25, 8.0, 0.25)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.w_lat = float(rng.uniform(0.8, 1.4))
        # fixed: check-v2 misplaces the sinc minimum for every carrier (see
        # check_v2 below), and a failing operation must not depend on the seed
        self.w_sinc = 1.0
        # criterion 6's last scale: width 1/4 is the finest the 4-cell rule allows on
        # the n=512 grid, and there E lies below ess inf V - 1
        self.scales = (1.0, float(rng.uniform(1.5, 3.5)), 4.0)
        self.widths = tuple(float(rng.uniform(0.6, 1.0)) * m for m in (1.0, 2.0, 4.0))
        g128 = grid.make_grid(16.0, 128)
        G = ref.Grid(16.0, 128)
        self.gn_fields = []
        self.gn_expected = []
        for _ in range(self.GN_FIELDS):
            vals = random_smooth_field(G, rng, float(rng.uniform(0.8, 2.5)))
            self.gn_fields.append(grid.Field(g128, vals))
            self.gn_expected.append(2.0 * G.kinetic(vals) * G.integral(vals**2)
                                    / G.integral(vals**4))
        G256 = self.G256 = ref.Grid(16.0, 256)
        g256 = grid.make_grid(16.0, 256)
        self.gaussians = []
        for w in self.widths:
            vals = np.exp(-G256.R**2 / (2.0 * w * w))
            self.gaussians.append(grid.Field(g256, vals / np.sqrt(G256.integral(vals**2))))

    @functools.cached_property
    def townes(self) -> ref.Townes:
        return ref.Townes()

    @functools.cached_property
    def sinc_min(self) -> float:
        return ref.sinc_min()

    @functools.cached_property
    def sinc_lambda0(self) -> float:
        return ref.ground_energy(self.G256, ref.sinc(self.G256.R))

    @functools.cached_property
    def sinc_conv(self) -> tuple[float, float, float]:
        return sinc_ring_minimum(self.G256, self.w_sinc)

    def round(self, probe) -> Round:
        rnd = Round()
        results = {}
        with program(rnd):
            profile = soliton.solve_townes()
            a_star = soliton.critical_coupling(profile)
            for label, pot, L, n in self.V1:
                with probe.span(f"check_v1.{label}"):
                    results[f"v1.{label}"] = gp(rnd, ["check-v1", "--potential", pot,
                                                     "--L", L, "--n", n])
            results["v2.lattice"] = gp(rnd, ["check-v2", "--potential",
                                             f"lattice s={self.LAT_S} period={self.LAT_T}",
                                             "--L", 16, "--n", 256, "--width", repr(self.w_lat)])
            results["v2.sinc"] = gp(rnd, ["check-v2", "--potential", "sinc", "--L", 16,
                                          "--n", 256, "--width", repr(self.w_sinc)])
            gn = [self._call(rnd, energy.gn_quotient, f) for f in self.gn_fields]
            g512 = grid.make_grid(16.0, 512)
            V = potentials.realize(potentials.parse_potential("sinc"), g512)
            # dilate() concentrates about the origin: move the potential's minimum there
            iy, ix = np.unravel_index(np.argmin(V.values), V.values.shape)
            V = grid.Field(g512, np.roll(V.values, (256 - iy, 256 - ix), axis=(0, 1)))
            q0 = soliton.lift_to_grid(profile, g512)
            scan = self._call(rnd, energy.dilation_scan, q0, V, 1.1 * a_star, self.scales)
            curves = [self._call(rnd, diagnostics.concentration_curve, u, self.RADII)
                      for u in self.gaussians]
        rnd.spans = probe.take()
        rnd.ops = 5 + len(gn) + 1 + len(curves)
        rnd.failed = sum(code != 0 for code, _ in results.values())
        rnd.failed += sum(x is None for x in gn + [scan] + curves)
        if rnd.failed:
            return rnd
        for key in sorted(results):
            rnd.hash.update(results[key][1].encode())
        rnd.hash.update(np.array(gn).tobytes())
        rnd.hash.update(np.array([[b.kinetic, b.quartic, b.total] for b in scan]).tobytes())
        rnd.hash.update(np.array([c.values for c in curves]).tobytes())
        reports = {k: json.loads(text) for k, (_, text) in results.items()}
        self.check_v1(rnd, reports)
        self.check_v2(rnd, reports)
        rnd.check(abs(a_star - 2.0 * np.pi * ref.GN_CONSTANT) < 1e-4, f"a* = {a_star}")
        bound = self.townes.mass * (1.0 - 1e-3)
        rnd.check(min(gn) >= bound, f"GN quotient {min(gn):.5f} below {bound:.5f}")
        rnd.check(all(close(q, e, 1e-9) for q, e in zip(gn, self.gn_expected)),
                  "GN quotients differ from the reference")
        self.check_scan(rnd, scan)
        self.check_curves(rnd, curves)
        return rnd

    @staticmethod
    def _call(rnd: Round, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation, counted, not a crash
            rnd.faults.append(f"{fn.__name__} raised {type(exc).__name__}: {exc}")
            return None

    def check_v1(self, rnd: Round, reports):
        h, lat, snc = reports["v1.harmonic"], reports["v1.lattice"], reports["v1.sinc"]
        rnd.check(abs(h["lambda0"] - 2.0 * np.sqrt(self.H0)) < 1e-6,
                  f"harmonic lambda0 {h['lambda0']} vs {2.0 * np.sqrt(self.H0)}")
        expected = ref.mathieu_lattice_lambda0(self.LAT_S, self.LAT_T)
        rnd.check(abs(lat["lambda0"] - expected) < 1e-9,
                  f"lattice lambda0 {lat['lambda0']} vs Mathieu {expected}")
        rnd.check(abs(snc["lambda0"] - self.sinc_lambda0) < 1e-7,
                  f"sinc lambda0 {snc['lambda0']} vs LOBPCG {self.sinc_lambda0}")
        rnd.check(abs(snc["ess_inf_V"] - self.sinc_min) < 1e-12, "sinc ess inf differs")
        rnd.check(abs(lat["ess_inf_V"] + 2.0 * self.LAT_S) < 1e-15, "lattice ess inf differs")
        for label, rep in (("harmonic", h), ("lattice", lat), ("sinc", snc)):
            passes = rep["lambda0"] - rep["ess_inf_V"] > rep["tol"]
            rnd.check(rep["passes_v1"] == passes, f"{label}: passes_v1 inconsistent")

    def check_v2(self, rnd: Round, reports):
        lat, snc = reports["v2.lattice"], reports["v2.sinc"]
        k = 2.0 * np.pi / self.LAT_T
        expected = -2.0 * self.LAT_S * np.exp(-(k * self.w_lat) ** 2 / 4.0)
        rnd.check(abs(lat["conv_min_value"] - expected) < 1e-12,
                  f"lattice convolution minimum {lat['conv_min_value']} vs {expected}")
        rnd.check(abs(lat["margin"] - (expected + 2.0 * self.LAT_S - lat["eps"])) < 1e-12,
                  "lattice margin differs")
        ring_min, ring_r, axis_min = self.sinc_conv
        vmin = snc["conv_min_value"]
        rnd.check(ring_min - 1e-9 <= vmin <= axis_min + 1e-12,
                  f"sinc convolution minimum {vmin} outside [{ring_min}, {axis_min}]")
        # conv_min_location labels the cyclic convolution's samples with the
        # input grid's coordinates, which puts it half a box (L) off in each
        # coordinate; a lattice whose period divides L hides that, sinc does not
        r = float(np.hypot(*snc["conv_min_location"]))
        rnd.fault(abs(r - ring_r) < 2.0 * self.G256.dx,
                  f"check-v2 sinc: minimum reported at radius {r:.4f}, it lies at {ring_r:.4f}")
        for label, rep in (("lattice", lat), ("sinc", snc)):
            rnd.check(rep["attained_interior"], f"{label}: minimum not attained inside")

    def check_scan(self, rnd: Round, scan):
        k1, q1 = scan[0].kinetic, scan[0].quartic
        for ell, b in zip(self.scales[1:], scan[1:]):
            rnd.check(close(b.kinetic / k1, ell**2, 1e-3), f"kinetic at ell={ell:.3f} off ell^2")
            rnd.check(close(b.quartic / q1, ell**2, 1e-3), f"quartic at ell={ell:.3f} off ell^2")
        totals = [b.total for b in scan]
        rnd.check(all(b < a for a, b in zip(totals, totals[1:])), "scan is not decreasing")
        rnd.check(totals[-1] < self.sinc_min - 1.0, "supercritical scan stays above ess inf - 1")

    def check_curves(self, rnd: Round, curves):
        g, R = self.G256, self.RADII
        for w, c in zip(self.widths, curves):
            exact = 1.0 - np.exp(-(R**2) / w**2)
            # the pixelated disk misplaces at most a band of width dx along
            # its rim, where the density is at most exp(-(R-dx)^2/w^2)/(pi w^2)
            rim = np.exp(-np.maximum(R - g.dx, 0.0) ** 2 / w**2) / (np.pi * w * w)
            allowed = 2.0 * np.pi * (R + g.dx) * g.dx * rim + 1e-12
            rnd.check(bool(np.all(np.abs(c.values - exact) <= allowed)),
                      f"concentration curve of width {w:.3f} off 1 - exp(-R^2/w^2)")
            rnd.check(bool(np.all(np.diff(c.values) >= -1e-12)) and c.values.max() <= 1 + 1e-12,
                      f"concentration curve of width {w:.3f} not monotone in [0, 1]")

    def iteration_case(self):
        _, pot, L, n = self.V1[1]
        g = grid.make_grid(L, n)
        return potentials.realize(potentials.parse_potential(pot), g), 0.0, g


def random_smooth_field(g: ref.Grid, rng, width: float) -> np.ndarray:
    """Band-limited noise under a Gaussian envelope, unit mass."""
    noise = rng.standard_normal((g.n, g.n))
    kcut = 6.0 * np.pi / g.L
    smooth = np.fft.ifft2(np.fft.fft2(noise) * (g.k2 <= kcut**2)).real
    vals = smooth * np.exp(-g.R**2 / (2.0 * width**2))
    return vals / np.sqrt(g.integral(vals**2))


def sinc_ring_minimum(g: ref.Grid, width: float):
    """Minimum of sinc * rho for the unit-mass Gaussian density of the carrier.

    The convolution is radial, so its minimum over all centres is a 1D
    minimum in the distance R from the origin.  It is evaluated by direct
    quadrature over the grid's samples of rho.  Returns (minimum over R,
    its R, minimum over grid points on the x axis): every grid point's
    value lies between the first and the last.
    """
    rho = np.exp(-g.R**2 / width**2)
    rho /= g.integral(rho)
    keep = rho > 1e-18 * rho.max()
    xs, ys, rs = g.X[keep], g.Y[keep], rho[keep] * g.w

    def conv(R):
        return float(np.sum(ref.sinc(np.hypot(R - xs, ys)) * rs))

    out = minimize_scalar(conv, bounds=(3.0, 6.5), method="bounded", options={"xatol": 1e-10})
    axis = [conv(x) for x in g.x if 2.5 <= x <= 7.0]
    return float(out.fun), float(out.x), float(min(axis))
