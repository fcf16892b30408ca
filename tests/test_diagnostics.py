import numpy as np
import pytest

from gp2d.diagnostics import (
    Classification,
    ConcentrationCurve,
    SweepEntry,
    analyze_sweep,
    blowup_fit,
    classify_sequence,
    concentration_curve,
    distance_to_townes,
    rescale_and_align,
)
from gp2d.energy import MIN_WIDTH_CELLS, dilate, eps_width
from gp2d.errors import InsufficientData
from gp2d.grid import Field, normalize, peak_location
from gp2d.minimizer import MinimizerResult, gaussian_init
from gp2d.soliton import lift_to_grid


def test_peak_center_subgrid(grid16):
    u = gaussian_init(grid16, center=(2.03, -3.11))
    cx, cy = peak_location(grid16, u.values**2)
    assert cx == pytest.approx(2.03, abs=grid16.dx / 5)
    assert cy == pytest.approx(-3.11, abs=grid16.dx / 5)


def test_align_recovers_townes(profile, grid16):
    u = lift_to_grid(profile, grid16, center=(2.0, -3.0))
    eps = eps_width(u)
    assert eps == pytest.approx(1.0, rel=1e-6)
    aligned, center = rescale_and_align(u, eps)
    assert center[0] == pytest.approx(2.0, abs=grid16.dx / 5)
    l2, h1 = distance_to_townes(aligned, lift_to_grid(profile, grid16))
    assert l2 < 1e-6
    assert h1 < 1e-4


def test_align_dilation_covariance(profile, q0_512):
    narrow = dilate(q0_512, 4.0)
    eps = eps_width(narrow)
    assert eps == pytest.approx(0.25, rel=1e-4)
    aligned, _ = rescale_and_align(narrow, eps)
    l2, _ = distance_to_townes(aligned, q0_512)
    assert l2 < 1e-3


def test_concentration_curve(q0):
    curve = concentration_curve(q0, radii=np.arange(0.5, 6.0, 0.5))
    assert np.all(np.diff(curve.values) >= -1e-12)
    assert curve.values[-1] > 0.999
    assert curve.values[-1] <= 1.0 + 1e-9


def test_blowup_fit_recovers_power_law():
    entries = [
        SweepEntry(
            a=11.7 - da,
            E=0.0,
            eps=0.52 * da**0.25,
            l2_dist=0.0,
            h1_dist=0.0,
            resolved=True,
        )
        for da in (0.5, 0.25, 0.125, 0.0625)
    ]

    class P:
        mass = 11.7

    slope, pref, window = blowup_fit(entries, P())
    assert slope == pytest.approx(0.25, rel=1e-10)
    assert pref == pytest.approx(0.52, rel=1e-10)
    assert window == (0, 3)


def test_sweep_entry_narrower_than_two_cells(profile, grid16):
    # three resolved entries on eps = 2 (a* - a)^(1/4), then one below 2 cells off that law
    u = gaussian_init(grid16)
    results = [
        MinimizerResult(u=u, E=0.0, residual=0.0, mu=0.0, iters=1, converged=True, eps=eps,
                        coupling=profile.mass - da,
                        resolution_warning=eps < MIN_WIDTH_CELLS * grid16.dx)
        for da, eps in [(1.0, 2.0), (0.5, 2.0 * 0.5**0.25), (0.25, 2.0 * 0.25**0.25),
                        (0.125, 1.5 * grid16.dx)]
    ]
    report = analyze_sweep(results, profile)
    narrow = report.entries[-1]
    assert narrow.aligned is None and not narrow.resolved
    assert np.isnan(narrow.l2_dist) and np.isnan(narrow.h1_dist)
    assert all(e.aligned is not None and e.resolved for e in report.entries[:3])
    assert report.fit_window == (0, 2)
    assert report.fitted_exponent == pytest.approx(0.25, rel=1e-10)
    assert report.fitted_prefactor == pytest.approx(2.0, rel=1e-10)


def test_blowup_fit_insufficient():
    entries = [
        SweepEntry(a=11.0, E=0.0, eps=0.5, l2_dist=0, h1_dist=0, resolved=False)
    ] * 5

    class P:
        mass = 11.7

    with pytest.raises(InsufficientData):
        blowup_fit(entries, P())


def test_classifier_needs_three():
    c = ConcentrationCurve(np.arange(1, 5.0), np.ones(4))
    with pytest.raises(InsufficientData):
        classify_sequence([c, c])


def test_classifier_compact(q0_512):
    radii = np.arange(0.25, 8.0, 0.25)
    curves = [concentration_curve(dilate(q0_512, ell), radii) for ell in (1.0, 2.0, 4.0)]
    assert classify_sequence(curves).label == "compact"


def test_classifier_vanishing(grid16):
    radii = np.arange(0.25, 8.0, 0.25)
    widths = (1.0, 2.0, 4.0, 8.0)
    curves = [concentration_curve(gaussian_init(grid16, width=w), radii) for w in widths]
    assert classify_sequence(curves).label == "vanishing"


def test_classifier_dichotomy(grid16):
    radii = np.arange(0.25, 8.0, 0.25)
    curves = []
    for sep in (8.0, 10.0, 12.0, 14.0):
        rr_a = grid16.radius((-sep / 2.0, 0.0))
        rr_b = grid16.radius((sep / 2.0, 0.0))
        vals = np.sqrt(
            0.4 * np.exp(-(rr_a**2)) / np.pi + 0.6 * np.exp(-(rr_b**2)) / np.pi
        )
        curves.append(concentration_curve(normalize(Field(grid16, vals)), radii))
    result = classify_sequence(curves)
    assert result.label == "dichotomy"
    assert result.lam == pytest.approx(0.4, abs=0.05)
