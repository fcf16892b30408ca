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
from .grid import Field, Grid2D, kinetic, mass, normalize, require_same_grid, resample_affine

MASS_TOL = 1e-8
MIN_WIDTH_CELLS = 4.0  # a width eps below this many cells dx is unresolved


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    quartic: float
    coupling: float
    total: float

    @property
    def magnitude(self) -> float:
        """Sum of the magnitudes of the total's parts: the machine epsilon
        times it bounds the total's rounding."""
        return abs(self.kinetic) + abs(self.potential) + abs(0.5 * self.coupling * self.quartic)


class Functional:
    """E_a and its half-gradient on one grid.

    V holds the potential's samples, or a constant (0 for the free
    functional, where only the kinetic and quartic parts matter).  Every
    method takes raw samples u and uh = scipy.fft.rfft2(u).  Integer powers
    are written as products: numpy's generic pow is an order of magnitude
    slower than multiplication on large arrays.
    """

    def __init__(self, grid: Grid2D, V=0.0, a: float = 0.0):
        if not np.isfinite(a):
            raise ValueError(f"coupling must be finite, got {a}")
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
        kin = self.kinetic(uh)
        return EnergyBreakdown(kin, pot, quart, self.a, kin + pot - 0.5 * self.a * quart)

    def step_change(self, u, uh, d, dh, alpha, beta, c) -> tuple[float, float]:
        """E_a(c) - E_a(u) for c = u + du, du = alpha u - beta d, dh = rfft2(d),
        and the sum of the magnitudes of its terms.

        The change is summed term by term, so that no two totals are
        subtracted: kinetic <k^2 du^, 2 uh + du^> with du^ = alpha uh - beta dh,
        potential int V du (2u + du) and quartic int du (2u + du)(c^2 + u^2).
        The machine epsilon times the magnitude sum bounds its rounding.  It
        keeps two full-size temporaries at a time, as energy() does.
        """
        w = self.grid.weight
        ratio = alpha / beta
        duh = uh * ratio
        duh -= dh
        duh *= beta
        kin = duh.real * uh.real
        kin += duh.imag * uh.imag
        kin *= 2.0
        kin += duh.real * duh.real
        kin += duh.imag * duh.imag
        del duh
        kin *= self._kin_weight
        change = float(np.sum(kin))
        magnitude = float(np.sum(np.abs(kin, out=kin)))
        del kin
        du = u * ratio
        du -= d
        du *= beta
        e = u * 2.0
        e += du
        e *= du  # du (2u + du) = c^2 - u^2 without the cancellation
        terms = du  # its buffer, reused for the potential and quartic parts
        np.multiply(e, self.V, out=terms)
        change += float(np.sum(terms)) * w
        magnitude += float(np.sum(np.abs(terms, out=terms))) * w
        for f in (c, u):  # the quartic part e (c^2 + u^2), one square at a time
            np.multiply(e, f, out=terms)
            terms *= f
            change -= 0.5 * self.a * float(np.sum(terms)) * w
            magnitude += 0.5 * self.a * float(np.sum(np.abs(terms, out=terms))) * w
        return change, magnitude

    def half_gradient(self, u, uh) -> np.ndarray:
        """-Lap u + V u - a u^3, with one inverse transform."""
        lap = fft.irfft2(-self.k2r * uh, s=u.shape)
        return -lap + self.V * u - self.a * (u * u * u)


def require_unit_mass(u: Field) -> None:
    """UnnormalizedInput unless |mass(u) - 1| <= MASS_TOL."""
    m = mass(u)
    if abs(m - 1.0) > MASS_TOL:
        raise UnnormalizedInput(f"a unit-mass field is required, got mass {m}")


def energy(u: Field, V: Field, a: float, check_mass: bool = True) -> EnergyBreakdown:
    """Breakdown of E_a(u), V on u's grid.  Requires unit mass unless check_mass=False."""
    require_same_grid(u.grid, V.grid)
    if check_mass:
        require_unit_mass(u)
    return Functional(u.grid, V.values, a).energy(u.values, fft.rfft2(u.values))


def energy_gradient(u: Field, V: Field, a: float) -> Field:
    """Half-gradient -Lap u + V u - a u^3 of the functional; V on u's grid."""
    require_same_grid(u.grid, V.grid)
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
    """Dilation u_ell(x) = ell * u(x0 + ell (x - x0)) about the sample x0 where
    |u| is largest, spectrally resampled and renormalized; ell >= 1.

    The one dilation of the package, for the sweep's warm starts and
    dilation_scan.  It has no resolution guard: a warm start takes the width
    eps_width(u)/ell even below MIN_WIDTH_CELLS cells, where the minimizer
    will end up; dilation_scan refuses such scales for the fields it reports.
    """
    if ell < 1.0:
        raise ValueError(f"dilation factor must be >= 1, got {ell}")
    g = u.grid
    iy, ix = np.unravel_index(np.argmax(np.abs(u.values)), u.values.shape)
    shift = (g.n // 2 - iy, g.n // 2 - ix)  # x0 to the origin index
    moved = bool(shift[0] or shift[1])  # np.roll copies even for a zero shift
    if moved:
        u = Field(g, np.roll(u.values, shift, axis=(0, 1)))
    vals = resample_affine(u, ell)
    vals *= ell
    # keep only samples whose preimage ell*x stays inside the fundamental box;
    # the periodic interpolant would otherwise alias in wrapped ghost copies
    keep = np.abs(g.x) * ell <= g.L
    vals *= keep[None, :] * keep[:, None]
    out = normalize(Field(g, vals))
    return Field(g, np.roll(out.values, (-shift[0], -shift[1]), axis=(0, 1))) if moved else out


def dilation_scan(u: Field, V: Field, a: float, scales) -> list[EnergyBreakdown]:
    """Evaluate E_a along the dilation family u_ell; for V=0 kinetic and
    quartic parts scale as ell^2.

    Raises ResolutionExceeded, before any energy is evaluated, when a
    scale's width eps_width(u)/ell falls below MIN_WIDTH_CELLS cells.
    """
    require_unit_mass(u)
    scales = [float(ell) for ell in scales]
    width, cells = eps_width(u), MIN_WIDTH_CELLS * u.grid.dx
    for ell in scales:
        if width < cells * (1.0 - 1e-9) * ell:
            raise ResolutionExceeded(
                f"dilated width {width / ell:.4g} below {MIN_WIDTH_CELLS} dx = {cells:.4g}"
            )
    return [energy(dilate(u, ell), V, a) for ell in scales]
