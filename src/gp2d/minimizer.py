"""Unit-mass energy minimization by projected gradient flow.

The flow iterates u <- normalize(|u - tau * d|) where d descends along the
sphere-projected gradient P_u g = g - <g,u> u, with Armijo backtracking on
tau so the energy trace is monotone nonincreasing.  Positivity is enforced
by taking the absolute value after each step.

The descent direction is preconditioned by (c - Lap)^{-1} with c =
max(1, |mu|); the residual, termination test, and all reported quantities
use the plain projected gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .energy import Functional, dilate, energy_gradient
from .errors import CriticalCouplingGuard, ResolutionExceeded
from .grid import Field, Grid2D, inner, l2_norm, normalize, shift_to_index

CRITICALITY_MARGIN = 1e-4
STEP_INIT = 0.5
BACKTRACK_FACTOR = 0.5


@dataclass
class MinimizerOptions:
    tol_residual: float = 1e-7
    max_iters: int = 20000

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class MinimizerResult:
    """The returned iterate u with its energy E, Lagrange multiplier mu and
    projected-gradient residual, all evaluated at u."""

    u: Field
    E: float
    residual: float
    mu: float
    iters: int
    converged: bool
    eps: float
    coupling: float
    resolution_warning: bool = False
    energy_trace: list = field(default_factory=list, repr=False)


def gaussian_init(grid: Grid2D, center=(0.0, 0.0), width: float = 1.0) -> Field:
    """Unit-mass Gaussian of the given width centered at ``center``."""
    rr = grid.radius(center)
    return normalize(Field(grid, np.exp(-(rr**2) / (2.0 * width**2))))


def _initial_field(V, grid, init):
    if init is not None:
        return normalize(Field(grid, np.abs(init.values)))
    idx = np.unravel_index(np.argmin(V.values), V.values.shape)
    return gaussian_init(grid, (grid.x[idx[1]], grid.x[idx[0]]))


def _projected_gradient(func: Functional, u, uh):
    """(P_u g, mu, ||P_u g||) for the half-gradient g at u, mu = <g, u>."""
    w = func.grid.weight
    g = func.half_gradient(u, uh)
    mu = float(np.sum(g * u) * w)
    pg = g - mu * u
    return pg, mu, float(np.sqrt(np.sum(pg**2) * w))


def minimize(
    V: Field,
    a: float,
    grid: Grid2D,
    opts: MinimizerOptions | None = None,
    init: Field | None = None,
    a_star: float | None = None,
) -> MinimizerResult:
    """Minimize E_a over the unit-mass sphere.

    If a_star is supplied, couplings within the criticality margin of it are
    refused: on a finite grid the infimum there is spurious.
    """
    opts = opts or MinimizerOptions()
    if a < 0:
        raise ValueError(f"coupling must be nonnegative, got {a}")
    if a_star is not None and a >= a_star * (1.0 - CRITICALITY_MARGIN):
        raise CriticalCouplingGuard(
            f"a = {a} too close to the critical coupling {a_star}"
        )

    func = Functional(grid, V.values, a)
    k2r = func.k2r
    w = grid.weight
    shape = (grid.n, grid.n)
    uvals = _initial_field(V, grid, init).values
    uh = fft.rfft2(uvals)
    E = func.energy(uvals, uh).total
    trace = [E]
    tau = STEP_INIT
    residual = np.inf
    converged = accepted = False
    iters = 0
    prev_u = None
    prev_pg = None
    stalls = 0
    for iters in range(1, opts.max_iters + 1):
        pg, mu, residual = _projected_gradient(func, uvals, uh)
        if residual <= opts.tol_residual:
            converged = True
            break
        # shift tracks the chemical potential so the preconditioner stays
        # effective as the minimizer concentrates
        shift = max(1.0, abs(mu))
        d = fft.irfft2(fft.rfft2(pg) / (shift + k2r), s=shape)
        d -= (np.sum(d * uvals) * w) * uvals
        slope = float(np.sum(pg * d) * w)  # > 0 for an SPD preconditioner
        # Barzilai-Borwein guess for the trial step, clipped for safety
        if prev_u is not None:
            s = uvals - prev_u
            y = pg - prev_pg
            denom = float(np.sum(s * y))
            if denom != 0.0 and np.isfinite(denom):
                tau = min(max(abs(float(np.sum(s * s)) / denom), 1e-6), 50.0)
            else:
                tau = min(tau / BACKTRACK_FACTOR, STEP_INIT)
        else:
            tau = STEP_INIT
        prev_u = uvals.copy()
        prev_pg = pg
        accepted = False
        while tau > 1e-14:
            cand = uvals - tau * d
            # positivity enforcement: flip genuinely negative excursions, but
            # leave tiny dips alone -- the sign kinks of a blanket abs()
            # pollute the spectral kinetic term and floor the residual
            if cand.min() < -1e-4 * cand.max():
                np.abs(cand, out=cand)
            ch = fft.rfft2(cand)
            m = float(np.sum(cand**2) * w)
            scale = 1.0 / np.sqrt(m)
            cand *= scale
            ch *= scale
            E_cand = func.energy(cand, ch).total
            if E_cand <= E - 1e-4 * tau * slope:
                uvals, uh, E = cand, ch, E_cand
                accepted = True
                break
            tau *= BACKTRACK_FACTOR
        if not accepted:
            # step underflow: drop the Barzilai-Borwein memory and retry once
            # before reporting the best iterate
            stalls += 1
            if stalls >= 2:
                break
            prev_u = None
            prev_pg = None
            tau = STEP_INIT
            continue
        stalls = 0
        trace.append(E)

    if not converged and accepted:
        # the budget ran out right after a step: mu and the residual so far
        # describe the iterate before the one returned
        _, mu, residual = _projected_gradient(func, uvals, uh)
    eps = 1.0 / np.sqrt(func.kinetic(uh))
    return MinimizerResult(
        u=Field(grid, uvals),
        E=E,
        residual=float(residual),
        mu=mu,
        iters=iters,
        converged=converged,
        eps=float(eps),
        coupling=a,
        resolution_warning=bool(eps < 4.0 * grid.dx),
        energy_trace=trace,
    )


def el_residual(result: MinimizerResult, V: Field, a: float) -> float:
    """Euler-Lagrange residual ||-Lap u + V u - a u^3 - mu u|| (diagnostic)."""
    u = result.u
    g = energy_gradient(u, V, a)
    mu = inner(g, u)
    return l2_norm(Field(u.grid, g.values - mu * u.values))


def _recentered_dilate(u: Field, ell: float) -> Field:
    """Dilate about the density argmax so off-center bumps stay put."""
    iy, ix = np.unravel_index(np.argmax(np.abs(u.values)), u.values.shape)
    i0 = u.grid.n // 2
    centered = shift_to_index(u, iy, ix)
    try:
        narrowed = dilate(centered, ell)
    except ResolutionExceeded:
        return u
    vals = np.roll(narrowed.values, (iy - i0, ix - i0), axis=(0, 1))
    return Field(u.grid, vals)


def continuation_sweep(
    V: Field,
    schedule,
    grid: Grid2D,
    opts: MinimizerOptions | None = None,
    a_star: float | None = None,
) -> list[MinimizerResult]:
    """Run minimize along an ascending coupling schedule with warm starts.

    Each entry starts from the previous minimizer rescaled by the ratio of
    predicted widths (a*-a)^(1/4).  Per-entry non-convergence is recorded in
    the result, not raised.
    """
    schedule = [float(a) for a in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    opts = opts or MinimizerOptions()
    results: list[MinimizerResult] = []
    init = None
    for i, a in enumerate(schedule):
        if init is not None and a_star is not None and i > 0:
            ell = ((a_star - schedule[i - 1]) / (a_star - a)) ** 0.25
            init = _recentered_dilate(init, max(ell, 1.0))
        res = minimize(V, a, grid, opts, init=init, a_star=a_star)
        results.append(res)
        init = res.u
    return results
