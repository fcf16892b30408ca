"""Unit-mass energy minimization by projected gradient flow.

The flow iterates u <- normalize(|u - tau * d|) where d descends along the
sphere-projected gradient P_u g = g - <g,u> u, with Armijo backtracking on
tau so the energy trace is monotone nonincreasing.  Positivity is enforced
by taking the absolute value after each step.

The descent direction is preconditioned by (c - Lap)^{-1} with c =
max(1, |mu|); the residual, termination test, and all reported quantities
use the plain projected gradient.

A trial step passes Armijo when its energy lies 1e-4 * tau * slope below E.
Where the rounding of the two totals could reverse that test, the change
E(c) - E(u) summed term by term (Functional.step_change) decides it instead,
for the step taken from u at exactly unit mass.  Where even that sum's
rounding bound exceeds the required decrease, the flow has reached its
rounding floor: the iteration takes no step, and two such stalls in a row
end the run.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .energy import MIN_WIDTH_CELLS, Functional, dilate
from .errors import CriticalCouplingGuard, NonFiniteIterate
from .grid import Field, Grid2D, normalize, require_same_grid

CRITICALITY_MARGIN = 1e-4
STEP_INIT = 0.5
BACKTRACK_FACTOR = 0.5

_log = logging.getLogger(__name__)


@dataclass
class MinimizerOptions:
    tol_residual: float = 1e-7
    max_iters: int = 20000

    def __post_init__(self):
        if not (np.isfinite(self.tol_residual) and self.tol_residual > 0):
            raise ValueError(f"tol_residual must be finite and positive, got {self.tol_residual}")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters}")


@dataclass
class MinimizerResult:
    """The returned iterate u with its energy E, Lagrange multiplier mu and
    projected-gradient residual, all evaluated at u however the run ended.

    The run ends when the residual reaches the tolerance, after max_iters
    iterations, or at its rounding floor: at the second iteration in a row
    that takes no step, because the decrease Armijo requires fell below the
    rounding bound of the energy change summed term by term, or because the
    trial step underflowed.  backtracks counts the trial steps not taken,
    flips the accepted steps whose candidate the positivity flip changed,
    stalls the iterations that took no step.
    """

    u: Field
    E: float
    residual: float
    mu: float
    iters: int
    converged: bool
    eps: float
    coupling: float
    resolution_warning: bool = False
    backtracks: int = 0
    flips: int = 0
    stalls: int = 0
    energy_trace: list = field(default_factory=list, repr=False)


@np.errstate(over="ignore")  # width^2 = inf is refused; a sub-cell carrier gets exp(-inf) = 0
def gaussian_init(grid: Grid2D, center=(0.0, 0.0), width: float = 1.0) -> Field:
    """Unit-mass Gaussian of the given width centered at ``center``."""
    if not (width > 0 and 0.0 < width * width < np.inf):
        raise ValueError(f"width must be positive with width^2 finite and nonzero, got {width}")
    rr = grid.radius(center)
    return normalize(Field(grid, np.exp(-(rr**2) / (2.0 * width**2))))


def _initial_field(V, grid, init):
    if init is not None:
        require_same_grid(init.grid, grid)
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


def _refuse_near_critical(a: float, a_star: float) -> None:
    """Raise CriticalCouplingGuard for a coupling within the criticality
    margin of a_star: on a finite grid the infimum there is spurious."""
    if a >= a_star * (1.0 - CRITICALITY_MARGIN):
        raise CriticalCouplingGuard(f"a = {a} too close to the critical coupling {a_star}")


@np.errstate(over="ignore", invalid="ignore")  # reported as NonFiniteIterate instead
def minimize(
    V: Field,
    a: float,
    grid: Grid2D,
    opts: MinimizerOptions | None = None,
    init: Field | None = None,
    a_star: float | None = None,
) -> MinimizerResult:
    """Minimize E_a over the unit-mass sphere.

    V and init must live on grid (ValueError otherwise).  If a_star is
    supplied, couplings near it are refused (_refuse_near_critical).  Raises
    NonFiniteIterate at the first non-finite residual or trial energy.
    """
    opts = opts or MinimizerOptions()
    require_same_grid(V.grid, grid)
    if not (np.isfinite(a) and a >= 0):
        raise ValueError(f"coupling must be finite and nonnegative, got {a}")
    if a_star is not None:
        _refuse_near_critical(a, a_star)

    func = Functional(grid, V.values, a)
    k2r = func.k2r
    w = grid.weight
    ulp = np.finfo(float).eps
    shape = (grid.n, grid.n)
    uvals = _initial_field(V, grid, init).values
    uh = fft.rfft2(uvals)
    parts = func.energy(uvals, uh)
    E, magnitude = parts.total, parts.magnitude
    trace = [E]
    pg, mu, residual = _projected_gradient(func, uvals, uh)
    prev_u, prev_pg = uvals, pg  # s = 0 now and after a stall: tau = STEP_INIT
    converged = False
    stalled = stalls = backtracks = flips = 0  # stalled: in a row
    for iters in range(1, opts.max_iters + 1):
        if not math.isfinite(residual):
            raise NonFiniteIterate(f"non-finite residual at iteration {iters} (a = {a})")
        if residual <= opts.tol_residual:
            converged = True
            break
        # Barzilai-Borwein guess for the trial step, clipped for safety
        s = uvals - prev_u
        denom = float(np.sum(s * (pg - prev_pg)))
        tau = STEP_INIT
        if denom != 0.0 and np.isfinite(denom):
            tau = min(max(abs(float(np.sum(s * s)) / denom), 1e-6), 50.0)
        del s  # before the preconditioner's arrays, which live through the trials
        prev_u, prev_pg = uvals, pg  # rebound below, never written in place
        # shift tracks the chemical potential so the preconditioner stays
        # effective as the minimizer concentrates
        shift = max(1.0, abs(mu))
        dh = fft.rfft2(pg)
        dh /= shift + k2r
        d = fft.irfft2(dh, s=shape)
        along = np.sum(d * uvals) * w
        d -= along * uvals
        slope = float(np.sum(pg * d) * w)  # > 0 for an SPD preconditioner
        moments = None  # <u,d> and ||d||^2, once the exact change is needed
        stalled += 1  # until a step is taken
        while tau > 1e-14:
            cand = uvals - tau * d
            # positivity enforcement: flip genuinely negative excursions, but
            # leave tiny dips alone -- the sign kinks of a blanket abs()
            # pollute the spectral kinetic term and floor the residual
            flipped = bool(cand.min() < -1e-4 * cand.max())
            if flipped:
                np.abs(cand, out=cand)
            ch = fft.rfft2(cand)
            m = float(np.sum(cand**2) * w)
            scale = 1.0 / np.sqrt(m)
            cand *= scale
            ch *= scale
            parts = func.energy(cand, ch)
            if not math.isfinite(parts.total):
                raise NonFiniteIterate(f"non-finite trial energy at iteration {iters} (a = {a})")
            drop = 1e-4 * tau * slope
            accept, floor = parts.total <= E - drop, False
            # where the totals' rounding could reverse the test, the change
            # summed term by term decides it, for the unflipped step taken
            # from u at exactly unit mass; on the check-v1 flows and the
            # n=192 sweep the totals' difference strayed from that change by
            # up to 1.8 ulp times the two totals' magnitudes
            band = 4.0 * ulp * (magnitude + parts.magnitude)
            if not flipped and abs(parts.total - E + drop) <= band:
                if moments is None:
                    dh -= along * uh  # the spectrum of the projected d
                    moments = float(np.vdot(uvals, d)) * w, float(np.vdot(d, d)) * w
                x = tau * (tau * moments[1] - 2.0 * moments[0])  # m - 1
                r = math.sqrt(1.0 + x)
                change, terms = func.step_change(
                    uvals, uh, d, dh, -x / (r * (1.0 + r)), tau / r, cand)
                # a decrease below that sum's rounding cannot be told: the
                # flow has reached its floor, and this iteration stalls
                floor = drop < ulp * terms
                accept = change <= -drop and not floor
            if accept:
                uvals, uh, E, magnitude = cand, ch, parts.total, parts.magnitude
                trace.append(E)
                flips += flipped
                stalled = 0
                del d, dh  # before the gradient's temporaries
                pg, mu, residual = _projected_gradient(func, uvals, uh)
                break
            backtracks += 1
            if floor:
                break
            tau *= BACKTRACK_FACTOR
        if stalled:  # u has not moved
            stalls += 1
            if stalled >= 2:
                break

    with np.errstate(divide="ignore"):  # a field constant to rounding has eps = inf
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
        resolution_warning=bool(eps < MIN_WIDTH_CELLS * grid.dx),
        backtracks=backtracks,
        flips=flips,
        stalls=stalls,
        energy_trace=trace,
    )


def ascending_schedule(schedule) -> list[float]:
    """The couplings of a sweep as floats; ValueError unless they are finite
    and strictly increasing."""
    schedule = [float(a) for a in schedule]
    if not np.all(np.isfinite(schedule)) or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be finite and strictly increasing, got {schedule}")
    return schedule


def _warm_start(schedule, fields, a_star):
    """Initial field of entry len(fields) of a sweep whose earlier entries
    have the minimizers fields, by the rule of continuation_sweep."""
    i = len(fields)
    if i == 0:
        return None

    def width_ratio(j):
        return ((a_star - schedule[j - 1]) / (a_star - schedule[j])) ** 0.25

    guess = fields[-1]
    if i >= 2:
        theta = (schedule[i] - schedule[i - 1]) / (schedule[i - 1] - schedule[i - 2])
        carried = dilate(fields[-2], width_ratio(i - 1))
        guess = Field(guess.grid, guess.values + theta * (guess.values - carried.values))
    return dilate(guess, width_ratio(i))


def continuation_sweep(
    V: Field,
    schedule,
    grid: Grid2D,
    opts: MinimizerOptions | None = None,
    *,
    a_star: float,
) -> list[MinimizerResult]:
    """Run minimize along an ascending coupling schedule with warm starts.

    The warm starts follow the blow-up frame w(y) = eps u(x0 + eps y), whose
    width the law eps ~ (a*-a)^(1/(p+2)) predicts, taken at p = 2.  In that
    frame the two terms that perturb the Townes equation, (a*-a) w^3 and
    eps^(p+2) V(x0 + eps y) w, are both proportional to a*-a, so to first
    order w moves linearly in a.  Entry 1 starts from entry 0 dilated to
    its predicted width.  Entry i >= 2 starts from the secant step

        G = u[i-1] + theta (u[i-1] - D),  theta = (a[i]-a[i-1]) / (a[i-1]-a[i-2]),

    with D the minimizer u[i-2] dilated into entry i-1's frame, and G
    dilated into entry i's.  The dilations (energy.dilate) keep the density
    peak in place and take the predicted width even where the grid does not
    resolve it: a warm start is not a reported field.

    A schedule that ends within the criticality margin of a_star is refused
    before entry 0 runs, which covers every entry of the ascending schedule.
    Each entry logs one INFO line on this module's logger.  Per-entry
    non-convergence is recorded in the result, not raised.
    """
    schedule = ascending_schedule(schedule)
    if schedule:
        _refuse_near_critical(schedule[-1], a_star)
    results: list[MinimizerResult] = []
    for i, a in enumerate(schedule):
        start = time.perf_counter()
        init = _warm_start(schedule, [r.u for r in results], a_star)
        res = minimize(V, a, grid, opts, init=init)
        results.append(res)
        _log.info(
            "sweep entry %d of %d: a/a* %.6f, %d iters, residual %.2e, eps/dx %.2f, "
            "converged %s, %.1f s",
            i, len(schedule), a / a_star, res.iters, res.residual, res.eps / grid.dx,
            str(res.converged).lower(), time.perf_counter() - start,
        )
    return results
