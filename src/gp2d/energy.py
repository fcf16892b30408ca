"""The Gross-Pitaevskii functional, its gradient, and instability scans.

Functional is the one place where

    E_a(u) = int |grad u|^2 + V u^2 - (a/2) u^4

and its half-gradient g = -Lap u + V u - a u^3 are written down, so that
<g, d> = (1/2) d/dt E_a(u + t d)|_0 and the Euler-Lagrange residual matches
the Townes equation literally at a = a*, V = 0.  It works on raw samples u
and their half-spectrum uh = scipy.fft.rfft2(u), so the minimizer can reuse
transforms it already holds; energy(), energy_gradient(), gn_quotient() and
grid.kinetic() are its Field-level entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import DegenerateField, ResolutionExceeded, UnnormalizedInput
from .grid import Field, Grid2D, kinetic, mass, normalize, resample_affine
from .soliton import RadialProfile

MASS_TOL = 1e-8
MIN_WIDTH_CELLS = 4.0  # a width eps below this many cells dx is unresolved
BUMP_INNER, BUMP_OUTER = 1.0, 2.0  # the trial state's cut-off: 1 inside, 0 outside


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    quartic: float
    coupling: float
    total: float

    @classmethod
    def from_parts(cls, kin, pot, quart, a):
        return cls(
            kinetic=kin,
            potential=pot,
            quartic=quart,
            coupling=a,
            total=kin + pot - 0.5 * a * quart,
        )


class Functional:
    """E_a and its half-gradient on one grid.

    V holds the potential's samples, or a constant (0 for the free
    functional, where only the kinetic and quartic parts matter).  Every
    method takes raw samples u and uh = scipy.fft.rfft2(u).  Integer powers
    are written as products: numpy's generic pow is an order of magnitude
    slower than multiplication on large arrays.
    """

    def __init__(self, grid: Grid2D, V=0.0, a: float = 0.0):
        self.grid = grid
        self.V = V
        self.a = a
        self.k2r = grid.k2r
        # Parseval weight of |uh|^2 in the kinetic term over the half-spectrum
        self._kin_weight = grid.rfft_weights[None, :] * grid.weight / grid.n**2 * self.k2r

    def kinetic(self, uh) -> float:
        """Integral of |grad u|^2."""
        return float(np.sum(self._kin_weight * (uh.real * uh.real + uh.imag * uh.imag)))

    def energy(self, u, uh) -> EnergyBreakdown:
        """Kinetic, potential and quartic parts of E_a(u), and the total."""
        w = self.grid.weight
        sq = u * u
        pot = float(np.sum(self.V * sq) * w)
        quart = float(np.sum(sq * sq) * w)
        return EnergyBreakdown.from_parts(self.kinetic(uh), pot, quart, self.a)

    def half_gradient(self, u, uh) -> np.ndarray:
        """-Lap u + V u - a u^3, with one inverse transform."""
        lap = fft.irfft2(-self.k2r * uh, s=u.shape)
        return -lap + self.V * u - self.a * (u * u * u)


def energy(u: Field, V: Field, a: float, check_mass: bool = True) -> EnergyBreakdown:
    """Breakdown of E_a(u).  Requires unit mass unless check_mass=False."""
    if check_mass and abs(mass(u) - 1.0) > MASS_TOL:
        raise UnnormalizedInput(f"mass(u) = {mass(u)}, expected 1")
    return Functional(u.grid, V.values, a).energy(u.values, fft.rfft2(u.values))


def energy_gradient(u: Field, V: Field, a: float) -> Field:
    """Half-gradient -Lap u + V u - a u^3 of the functional."""
    vals = Functional(u.grid, V.values, a).half_gradient(u.values, fft.rfft2(u.values))
    return Field(u.grid, vals)


def gn_quotient(u: Field) -> float:
    """Gagliardo-Nirenberg quotient kinetic*mass / (quartic/2).

    Scale- and translation-invariant; bounded below by the critical coupling.
    """
    br = Functional(u.grid).energy(u.values, fft.rfft2(u.values))
    if br.quartic <= 0.0:
        raise DegenerateField("quartic integral vanishes")
    return 2.0 * br.kinetic * mass(u) / br.quartic


def eps_width(u: Field) -> float:
    """Gradient-based width 1/||grad u||."""
    return 1.0 / np.sqrt(kinetic(u))


def dilate(u: Field, ell: float) -> Field:
    """Spectrally resampled dilation u_ell(x) = ell * u(ell x), renormalized.

    The result is a field the program reports on, so it must be resolved:
    raises ResolutionExceeded when the dilated width eps_width(u)/ell would
    fall below MIN_WIDTH_CELLS cells.  Past that guard it is
    resample_dilation(u, ell).
    """
    if ell < 1.0:
        raise ValueError(f"dilation factor must be >= 1, got {ell}")
    g = u.grid
    predicted = eps_width(u) / ell
    if predicted < MIN_WIDTH_CELLS * g.dx * (1.0 - 1e-9):
        raise ResolutionExceeded(
            f"dilated width {predicted:.4g} below {MIN_WIDTH_CELLS} dx = "
            f"{MIN_WIDTH_CELLS * g.dx:.4g}"
        )
    return resample_dilation(u, ell)


def resample_dilation(u: Field, ell: float) -> Field:
    """The dilation u_ell of dilate(), ell >= 1, without its resolution guard.

    For a field that only seeds a minimization, such as a sweep's warm
    start: there a width below MIN_WIDTH_CELLS cells is still the best guess.
    """
    g = u.grid
    vals = ell * resample_affine(u, ell)
    # keep only samples whose preimage ell*x stays inside the fundamental box;
    # the periodic interpolant would otherwise alias in wrapped ghost copies
    keep = np.abs(g.x) * ell <= g.L
    vals *= keep[None, :] * keep[:, None]
    return normalize(Field(g, vals))


def dilation_scan(u: Field, V: Field, a: float, scales) -> list[EnergyBreakdown]:
    """Evaluate E_a along the dilation family u_ell; for V=0 kinetic and
    quartic parts scale as ell^2."""
    if abs(mass(u) - 1.0) > MASS_TOL:
        raise UnnormalizedInput("dilation_scan requires a normalized field")
    out = []
    for ell in scales:
        out.append(energy(dilate(u, float(ell)), V, a))
    return out


def smooth_bump(r: np.ndarray) -> np.ndarray:
    """Quintic smoothstep bump: 1 on r <= BUMP_INNER, 0 on r >= BUMP_OUTER."""
    t = np.clip((BUMP_OUTER - r) / (BUMP_OUTER - BUMP_INNER), 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def trial_state_energy(
    grid: Grid2D,
    profile: RadialProfile,
    V: Field,
    a: float,
    x0=(0.0, 0.0),
    ell: float = 1.0,
) -> float:
    """Energy of the concentrating cut-off trial state

        u(x) = A * bump(x - x0) * Q0(ell (x - x0)) * ell

    with A the unit-mass normalizer.  Upper-bounds the ground energy."""
    if ell < 1.0:
        raise ValueError(f"concentration scale must be >= 1, got {ell}")
    if BUMP_OUTER > grid.L:
        raise ResolutionExceeded("cut-off support does not fit the box")
    # crude guard: the concentrated core must stay resolvable
    if 1.0 / ell < 2.0 * grid.dx:
        raise ResolutionExceeded(f"scale {ell} under-resolved on dx={grid.dx}")
    rr = grid.radius(x0)
    spl = profile.spline()
    r_mesh_end = float(profile.r[-1])
    core = np.where(rr * ell <= r_mesh_end, spl(np.minimum(rr * ell, r_mesh_end)), 0.0)
    vals = ell * smooth_bump(rr) * core / np.sqrt(profile.mass)
    u = normalize(Field(grid, vals))
    return energy(u, V, a).total
