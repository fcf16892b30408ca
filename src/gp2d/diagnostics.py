"""Blow-up and concentration diagnostics for minimizer sweeps.

Rescaling by the gradient width eps = 1/||grad u|| and recentering at the
density peak turns a concentrating minimizer into a candidate Townes
profile; the distance to the exact profile and the scaling-law fit of eps
against the distance to criticality quantify the collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import InsufficientData
from .grid import Field, kinetic, l2_norm, peak_location, resample_affine
from .soliton import RadialProfile, lift_to_grid, radial_moment

CLASSIFY_DELTA = 0.05  # mass tolerance of the trichotomy classifier


@dataclass
class SweepEntry:
    """What the analysis adds to one MinimizerResult: its coupling, E, eps
    and resolution flag stay on the result."""

    l2_dist: float
    h1_dist: float
    aligned: Field | None = None  # blow-up normal form; None when eps < 2 dx


@dataclass
class SweepReport:
    entries: list
    fitted_exponent: float | None = None
    fitted_prefactor: float | None = None
    fit_window: tuple | None = None
    predicted_exponent: float | None = None
    predicted_prefactor: float | None = None


@dataclass
class ConcentrationCurve:
    radii: np.ndarray
    values: np.ndarray


@dataclass
class Classification:
    label: str  # compact | vanishing | dichotomy | inconclusive
    lam: float | None = None


def rescale_and_align(u: Field, eps: float) -> Field:
    """Blow-up normal form: aligned(x) = eps * u(center + eps x).

    eps is u's gradient width as the minimizer reports it (MinimizerResult.eps),
    center the sub-grid density peak.  The aligned field is sampled by spectral
    interpolation on u's grid, to compare with the Townes profile.
    """
    center = peak_location(u.grid, u.values**2)
    return Field(u.grid, eps * resample_affine(u, eps, offset=center))


def distance_to_townes(aligned: Field, q0: Field):
    """(L2, H1) distances between an aligned field and q0, the unit-mass
    Townes profile lifted to the same grid (soliton.lift_to_grid)."""
    diff = Field(aligned.grid, aligned.values - q0.values)
    l2 = l2_norm(diff)
    h1 = float(np.sqrt(l2**2 + kinetic(diff)))
    return l2, h1


def analyze_sweep(results, profile: RadialProfile, trap=None) -> SweepReport:
    """Build per-entry blow-up records from minimizer results and fit eps(a).

    Entry i belongs to results[i].  Each result is aligned once
    (rescale_and_align) and its entry carries the aligned field; results
    narrower than 2 cells are not aligned and get NaN distances.  The fit is
    blowup_fit(results, a*); its fields stay None when there is none.

    trap, the potential's trap law (p, h0) when it has one (PotentialSpec.trap),
    adds the predicted exponent 1/(p+2) and prefactor to the report.
    """
    aligned = [None if res.eps < 2.0 * res.u.grid.dx else rescale_and_align(res.u, res.eps)
               for res in results]
    # lifted after the alignments, whose transforms set the memory peak
    q0 = lift_to_grid(profile, results[0].u.grid) if results else None
    entries = []
    for w in aligned:
        l2, h1 = (np.nan, np.nan) if w is None else distance_to_townes(w, q0)
        entries.append(SweepEntry(l2_dist=l2, h1_dist=h1, aligned=w))
    report = SweepReport(entries=entries)
    fit = blowup_fit(results, profile.mass)
    if fit is not None:
        report.fitted_exponent, report.fitted_prefactor, report.fit_window = fit
    if trap is not None:
        p, h0 = trap
        report.predicted_exponent = 1.0 / (p + 2.0)
        moment = radial_moment(profile, p)
        report.predicted_prefactor = (0.5 * p * h0 * moment) ** (-1.0 / (p + 2.0))
    return report


def blowup_fit(results, a_star: float):
    """Least-squares fit of log eps against log(a* - a) over the minimizer
    results without a resolution warning (eps of at least
    energy.MIN_WIDTH_CELLS cells).

    Returns (exponent, prefactor, index window), or None when fewer than 3
    results are resolved.
    """
    idx = [i for i, res in enumerate(results) if not res.resolution_warning]
    if len(idx) < 3:
        return None
    da = np.array([a_star - results[i].coupling for i in idx])
    eps = np.array([results[i].eps for i in idx])
    slope, intercept = np.polyfit(np.log(da), np.log(eps), 1)
    return float(slope), float(np.exp(intercept)), (min(idx), max(idx))


def concentration_curve(u: Field, radii) -> ConcentrationCurve:
    """Levy concentration function R -> sup_y mass(u; ball of radius R at y).

    The sup over centers is computed by convolving the density with the disk
    indicator; monotone nondecreasing in R since the density is nonnegative.
    """
    g = u.grid
    dens = u.values**2
    dh = fft.rfft2(dens)
    rr = g.radius()
    values = []
    for R in radii:
        ind = (rr <= R).astype(float)
        conv = fft.irfft2(dh * fft.rfft2(ind), s=dens.shape) * g.weight
        values.append(float(conv.max()))
    return ConcentrationCurve(radii=np.asarray(radii, float), values=np.array(values))


def classify_sequence(curves) -> Classification:
    """Heuristic trichotomy classifier over a sequence of concentration curves.

    With delta = CLASSIFY_DELTA:

    compact   : mass stays above 1-delta at a fixed radius after recentering
    vanishing : mass at that radius trends to ~0
    dichotomy : the last two curves plateau at the same lambda strictly
                inside (delta, 1-delta)

    Advisory only; never gates other computations.
    """
    if len(curves) < 3:
        raise InsufficientData("need at least 3 sequence elements")
    v_first = np.asarray(curves[0].values)
    v_last = np.asarray(curves[-1].values)
    hit = np.nonzero(v_first >= 1.0 - CLASSIFY_DELTA)[0]
    i_star = int(hit[0]) if hit.size else len(v_first) - 1
    trend = np.array([np.asarray(c.values)[i_star] for c in curves])

    if trend[-1] >= 1.0 - CLASSIFY_DELTA and trend[-1] >= trend[0] - CLASSIFY_DELTA:
        return Classification("compact")
    if np.all(np.diff(trend) < 1e-9) and trend[-1] <= 2.0 * CLASSIFY_DELTA:
        return Classification("vanishing")

    plateau = _plateau_value(v_last)
    if plateau is not None:
        prev = _plateau_value(np.asarray(curves[-2].values))
        if prev is not None and abs(prev - plateau) < 0.05:
            return Classification("dichotomy", float(min(plateau, 1.0 - plateau)))
    return Classification("inconclusive")


def _plateau_value(values: np.ndarray):
    """Value of the longest flat stretch strictly inside (delta, 1-delta)."""
    flat = np.abs(np.diff(values)) < 5e-3
    inside = (values[:-1] > CLASSIFY_DELTA) & (values[:-1] < 1.0 - CLASSIFY_DELTA)
    ok = flat & inside
    best_len, best_val = 0, None
    i = 0
    while i < len(ok):
        if ok[i]:
            j = i
            while j < len(ok) and ok[j]:
                j += 1
            if j - i > best_len:
                best_len = j - i
                best_val = float(np.median(values[i : j + 1]))
            i = j
        else:
            i += 1
    if best_len >= 4:
        return best_val
    return None
