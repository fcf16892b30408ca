import numpy as np
import pytest

from gp2d.diagnostics import (
    Classification,
    ConcentrationCurve,
    analyze_sweep,
    blowup_fit,
    classify_sequence,
    concentration_curve,
    distance_to_townes,
    rescale_and_align,
)
from gp2d.energy import MIN_WIDTH_CELLS, dilate, eps_width
from gp2d.errors import InsufficientData
from gp2d.grid import Field, peak_location
from gp2d.minimizer import MinimizerResult, gaussian_init


def test_peak_center_subgrid(grid16):
    u = gaussian_init(grid16, center=(2.03, -3.11))
    cx, cy = peak_location(grid16, u.values**2)
    assert cx == pytest.approx(2.03, abs=grid16.dx / 5)
    assert cy == pytest.approx(-3.11, abs=grid16.dx / 5)


def test_align_recovers_townes(q0, grid16):
    # Q centred at (x, y) = (2, -3): 16 columns and -24 rows of dx = 1/8
    u = Field(grid16, np.roll(q0.values, (-24, 16), axis=(0, 1)))
    eps = eps_width(u)
    assert eps == pytest.approx(1.0, rel=1e-6)
    l2, h1 = distance_to_townes(rescale_and_align(u, eps), q0)
    assert l2 < 1e-6
    assert h1 < 1e-4


def test_align_dilation_covariance(profile, q0_512):
    narrow = dilate(q0_512, 4.0)
    eps = eps_width(narrow)
    assert eps == pytest.approx(0.25, rel=1e-4)
    l2, _ = distance_to_townes(rescale_and_align(narrow, eps), q0_512)
    assert l2 < 1e-3


def test_concentration_curve(q0):
    curve = concentration_curve(q0, radii=np.arange(0.5, 6.0, 0.5))
    assert np.all(np.diff(curve.values) >= -1e-12)
    assert curve.values[-1] > 0.999
    assert curve.values[-1] <= 1.0 + 1e-9


def _result(coupling, eps, resolved, grid):
    return MinimizerResult(u=gaussian_init(grid), E=0.0, residual=0.0, mu=0.0, iters=1,
                           converged=True, eps=eps, coupling=coupling,
                           resolution_warning=not resolved)


def test_blowup_fit_recovers_power_law(grid_small):
    results = [_result(11.7 - da, 0.52 * da**0.25, True, grid_small)
               for da in (0.5, 0.25, 0.125, 0.0625)]
    slope, pref, window = blowup_fit(results, 11.7)
    assert slope == pytest.approx(0.25, rel=1e-10)
    assert pref == pytest.approx(0.52, rel=1e-10)
    assert window == (0, 3)


def test_sweep_entry_narrower_than_two_cells(profile, grid16):
    # three resolved entries on eps = 2 (a* - a)^(1/4), then one below 2 cells off that law
    results = [
        _result(profile.mass - da, eps, eps >= MIN_WIDTH_CELLS * grid16.dx, grid16)
        for da, eps in [(1.0, 2.0), (0.5, 2.0 * 0.5**0.25), (0.25, 2.0 * 0.25**0.25),
                        (0.125, 1.5 * grid16.dx)]
    ]
    report = analyze_sweep(results, profile)
    narrow = report.entries[-1]
    assert narrow.aligned is None
    assert np.isnan(narrow.l2_dist) and np.isnan(narrow.h1_dist)
    assert all(e.aligned is not None for e in report.entries[:3])
    assert report.fit_window == (0, 2)
    assert report.fitted_exponent == pytest.approx(0.25, rel=1e-10)
    assert report.fitted_prefactor == pytest.approx(2.0, rel=1e-10)


def test_blowup_fit_insufficient(grid_small):
    results = [_result(11.0, 0.5, False, grid_small)] * 5
    assert blowup_fit(results, 11.7) is None


def test_classifier_needs_three():
    c = ConcentrationCurve(np.arange(1, 5.0), np.ones(4))
    with pytest.raises(InsufficientData):
        classify_sequence([c, c])

