"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 3 and 4 share a
near-critical sweep in the truncated harmonic well at n=512; that fixture
dominates the runtime, and criterion 3 bounds it at 600 s of wall time.  It
takes 5524 minimizer iterations, 90-145 s on a 2-core x86-64 box.
"""

import time

import numpy as np
import pytest
from scipy.linalg import dft, eigh

from gp2d.diagnostics import analyze_sweep, classify_sequence, concentration_curve
from gp2d.energy import dilate, dilation_scan, energy, energy_gradient, gn_quotient
from gp2d.grid import Field, inner, make_grid, normalize
from gp2d.minimizer import MinimizerOptions, continuation_sweep
from gp2d.potentials import Lattice, PowerWell, Sinc, realize
from gp2d.soliton import critical_coupling, lift_to_grid, solve_townes
from gp2d.spectrum import check_v1, ground_energy
from helpers import random_localized_potential, random_smooth_field


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def harmonic_sweep(profile, a_star, grid512):
    """Near-critical sweep shared by criteria 3 and 4."""
    spec = PowerWell(h0=1.0, p=2.0, rcut=8.0)
    V = realize(spec, grid512)
    fractions = [0.05 * 0.65**k for k in range(7)]
    schedule = [a_star * (1.0 - f) for f in fractions]
    opts = MinimizerOptions(tol_residual=3e-6, max_iters=40000)
    t0 = time.monotonic()
    results = continuation_sweep(V, schedule, grid512, opts, a_star=a_star)
    elapsed = time.monotonic() - t0
    report_obj = analyze_sweep(results, profile, spec.trap)
    return report_obj, elapsed, results


def test_criterion_1_townes_identities():
    from gp2d.soliton import bisect_amplitude, profile_from_amplitude

    t0 = time.monotonic()
    amp = bisect_amplitude(tol=1e-10)
    p1 = profile_from_amplitude(amp, mesh_size=4000)
    p2 = profile_from_amplitude(amp, mesh_size=8000)
    elapsed = time.monotonic() - t0
    e_mk = abs(p1.mass - p1.kinetic) / p1.mass
    e_mq = abs(p1.mass - p1.quartic / 2.0) / p1.mass
    e_h = abs(p1.mass - p2.mass) / p1.mass
    ok = e_mk < 1e-6 and e_mq < 1e-6 and e_h < 1e-6 and elapsed < 5.0
    report(
        1,
        ok,
        f"|m-k|/m={e_mk:.2e}, |m-q/2|/m={e_mq:.2e}, mesh drift={e_h:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_cross_representation(profile, a_star, grid16, q0):
    t0 = time.monotonic()
    quotient = gn_quotient(q0)
    rel = abs(quotient - a_star) / a_star
    elapsed = time.monotonic() - t0
    report(2, rel < 1e-3 and elapsed < 10.0, f"rel err={rel:.2e}, {elapsed:.1f}s")


def test_criterion_3_blowup_exponent(harmonic_sweep):
    rep, elapsed, results = harmonic_sweep
    iters = [r.iters for r in results]
    resolved = sum(not r.resolution_warning for r in results)
    slope = rep.fitted_exponent
    pref = rep.fitted_prefactor
    pref_rel = abs(pref - rep.predicted_prefactor) / rep.predicted_prefactor
    ok = (
        resolved >= 5
        and slope is not None
        and 0.2375 <= slope <= 0.2625
        and pref_rel < 0.10
        and elapsed < 600.0
    )
    report(
        3,
        ok,
        f"slope={slope:.4f}, prefactor={pref:.4f} vs {rep.predicted_prefactor:.4f} "
        f"({100 * pref_rel:.1f}%), resolved={resolved}, {elapsed:.0f}s = "
        f"{sum(iters)} iters {iters} x {1e3 * elapsed / sum(iters):.1f} ms/iter",
    )


def test_criterion_4_profile_convergence(harmonic_sweep):
    rep, _, results = harmonic_sweep
    resolved = [e for e, r in zip(rep.entries, results) if not r.resolution_warning]
    dists = [e.l2_dist for e in resolved]
    most_critical = dists[-1]
    nonincreasing = all(b <= a + 1e-2 for a, b in zip(dists, dists[1:]))
    ok = most_critical < 0.05 and nonincreasing
    report(4, ok, f"final L2 dist={most_critical:.4f}, dists={np.round(dists, 4).tolist()}")


def test_criterion_5_energy_limit(profile, a_star, grid16):
    spec = Sinc()
    V = realize(spec, grid16)
    ess = spec.ess_inf()
    schedule = [f * a_star for f in (0.9, 0.95, 0.975, 0.9875)]
    opts = MinimizerOptions(tol_residual=3e-6, max_iters=40000)
    results = continuation_sweep(V, schedule, grid16, opts, a_star=a_star)
    energies = [r.E for r in results]
    gaps = [E - ess for E in energies]
    ok = (
        all(r.converged for r in results)
        and all(b < a for a, b in zip(energies, energies[1:]))
        and all(E >= ess - 1e-6 for E in energies)
        and all(b < a for a, b in zip(gaps, gaps[1:]))
    )
    report(5, ok, f"ess inf={ess:.4f}, gaps={np.round(gaps, 4).tolist()}")


def test_criterion_6_supercritical_instability(profile, a_star, grid512):
    spec = Sinc()
    V = realize(spec, grid512)
    # dilate concentrates about the origin, so move the potential minimum there
    iy, ix = np.unravel_index(np.argmin(V.values), V.values.shape)
    i0 = grid512.n // 2
    V = Field(grid512, np.roll(V.values, (i0 - iy, i0 - ix), axis=(0, 1)))
    u = lift_to_grid(profile, grid512)
    totals = [b.total for b in dilation_scan(u, V, 1.1 * a_star, (1.0, 2.0, 4.0))]
    ess = spec.ess_inf()
    ok = totals[0] > totals[1] > totals[2] and totals[2] < ess - 1.0
    report(6, ok, f"scan={np.round(totals, 3).tolist()}, ess inf-1={ess - 1.0:.3f}")


def test_criterion_7_gradient_check():
    g = make_grid(8.0, 64)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        u = random_smooth_field(g, rng, width=float(rng.uniform(1.0, 2.5)))
        V = random_localized_potential(g, rng)
        d = random_smooth_field(g, rng, width=2.0)
        a = float(rng.uniform(0.0, 12.0))
        grad = energy_gradient(u, V, a)
        h = 1e-6
        fd = (
            energy(Field(g, u.values + h * d.values), V, a, check_mass=False).total
            - energy(Field(g, u.values - h * d.values), V, a, check_mass=False).total
        ) / (2.0 * h)
        exact = 2.0 * inner(grad, d)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-12))
    report(7, worst < 1e-5, f"worst rel err={worst:.2e} over 20 triples")


def test_criterion_8_gn_inequality(a_star):
    g = make_grid(16.0, 128)
    rng = np.random.default_rng(8)
    lowest = np.inf
    for _ in range(1000):
        u = random_smooth_field(g, rng, width=float(rng.uniform(0.8, 2.5)))
        lowest = min(lowest, gn_quotient(u))
    ok = lowest >= a_star * (1.0 - 1e-3)
    report(8, ok, f"lowest quotient={lowest:.4f} vs bound {a_star * (1 - 1e-3):.4f}")


def test_criterion_9_condition_checkers(grid16):
    # (a) V = 0 fails the gap condition with margin below 1e-6
    g = make_grid(8.0, 64)
    free = check_v1(Field(g, np.zeros((64, 64))), g, ess_inf_V=0.0)
    ok_a = (not free.passes_v1) and abs(free.v1_margin) < 1e-6

    # (b) truncated harmonic ground energy equals 2 sqrt(h0), dense 1D oracle
    spec = PowerWell(h0=1.0, p=2.0, rcut=8.0)
    lam, _, _ = ground_energy(realize(spec, grid16), grid16, tol=1e-8)
    F = dft(grid16.n) / np.sqrt(grid16.n)
    K = (F.conj().T @ np.diag(grid16.k**2) @ F).real
    v1d = np.minimum(np.abs(grid16.x), spec.rcut) ** 2
    oracle = 2.0 * float(eigh(K + np.diag(v1d), eigvals_only=True)[0])
    ok_b = abs(lam - 2.0 * np.sqrt(spec.h0)) < 1e-3 and abs(lam - oracle) < 1e-6

    # (c) lattice convolution minimum: interior attained and shift equivariant
    from gp2d.potentials import check_v2

    lat = Lattice(s=0.5, period=8.0)
    rr0 = grid16.radius()
    u0 = normalize(Field(grid16, np.exp(-(rr0**2) / 2.0)))
    rr1 = grid16.radius((2.0, 0.0))
    u1 = normalize(Field(grid16, np.exp(-(rr1**2) / 2.0)))
    r0 = check_v2(lat, u0, eps=0.01, grid=grid16)
    r1 = check_v2(lat, u1, eps=0.01, grid=grid16)
    shift = (r1.conv_min_location[0] - r0.conv_min_location[0]) % lat.period
    ok_c = (
        r0.attained_interior
        and abs(r1.conv_min_value - r0.conv_min_value) < 1e-9
        and min(shift, lat.period - shift) == pytest.approx(2.0, abs=0.05)
    )
    report(
        9,
        ok_a and ok_b and ok_c,
        f"free margin={free.v1_margin:.1e}; harmonic lam={lam:.6f} vs oracle {oracle:.6f}; "
        f"lattice interior={r0.attained_interior}, shift={shift:.3f}",
    )


def test_criterion_10_trichotomy(profile, grid16, q0_512):
    radii = np.arange(0.25, 8.0, 0.25)
    compact = classify_sequence(
        [concentration_curve(dilate(q0_512, ell), radii) for ell in (1.0, 2.0, 4.0)]
    )
    vanishing = classify_sequence(
        [
            concentration_curve(
                normalize(Field(grid16, np.exp(-(grid16.radius() ** 2) / (2.0 * w**2)))),
                radii,
            )
            for w in (1.0, 2.0, 4.0, 8.0)
        ]
    )
    curves = []
    for sep in (8.0, 10.0, 12.0, 14.0):
        rr_a = grid16.radius((-sep / 2.0, 0.0))
        rr_b = grid16.radius((sep / 2.0, 0.0))
        vals = np.sqrt(0.4 * np.exp(-(rr_a**2)) / np.pi + 0.6 * np.exp(-(rr_b**2)) / np.pi)
        curves.append(concentration_curve(normalize(Field(grid16, vals)), radii))
    dichotomy = classify_sequence(curves)
    ok = (
        compact.label == "compact"
        and vanishing.label == "vanishing"
        and dichotomy.label == "dichotomy"
        and dichotomy.lam is not None
        and 0.35 <= dichotomy.lam <= 0.45
    )
    report(
        10,
        ok,
        f"labels=({compact.label}, {vanishing.label}, {dichotomy.label}), "
        f"lambda={dichotomy.lam}",
    )
