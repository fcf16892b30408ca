import numpy as np
import pytest

from gp2d.energy import energy, energy_gradient
from gp2d.errors import CriticalCouplingGuard
from gp2d.grid import Field, inner, make_grid, mass
from gp2d.minimizer import (
    MinimizerOptions,
    continuation_sweep,
    el_residual,
    minimize,
)
from gp2d.potentials import PotentialSpec, realize


def zero_potential(grid):
    return Field(grid, np.zeros((grid.n, grid.n)))


def test_options_validation():
    with pytest.raises(ValueError):
        MinimizerOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        MinimizerOptions(max_iters=0)


def test_negative_coupling_rejected(grid_small):
    with pytest.raises(ValueError):
        minimize(zero_potential(grid_small), -1.0, grid_small)


def test_criticality_guard(grid_small, a_star):
    with pytest.raises(CriticalCouplingGuard):
        minimize(zero_potential(grid_small), a_star, grid_small, a_star=a_star)


def test_free_subcritical_is_constant(grid_small, a_star):
    # with V = 0 below critical coupling the torus minimizer is the constant,
    # with E = -a / (8 L^2)
    a = 0.5 * a_star
    res = minimize(
        zero_potential(grid_small),
        a,
        grid_small,
        MinimizerOptions(tol_residual=1e-8),
    )
    assert res.converged
    assert res.E == pytest.approx(-a / (8.0 * grid_small.L**2), abs=1e-8)
    spread = np.max(res.u.values) - np.min(res.u.values)
    assert spread < 1e-4 * np.max(res.u.values)


def test_minimizer_invariants(grid16, a_star):
    spec = PotentialSpec(kind="sinc")
    V = realize(spec, grid16)
    opts = MinimizerOptions(tol_residual=1e-6, max_iters=20000)
    res = minimize(V, 0.8 * a_star, grid16, opts, a_star=a_star)
    assert res.converged
    assert res.residual <= opts.tol_residual
    assert mass(res.u) == pytest.approx(1.0, rel=1e-10)
    # nonnegativity up to roundoff
    assert res.u.values.min() > -1e-8 * res.u.values.max()
    # monotone energy trace
    trace = np.array(res.energy_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    # the minimizer's inline functional agrees with the reference one
    assert res.E == pytest.approx(energy(res.u, V, 0.8 * a_star).total, rel=1e-12)
    # independent residual evaluation agrees
    assert el_residual(res, V, 0.8 * a_star) == pytest.approx(res.residual, rel=1e-6)


def test_unconverged_result_describes_returned_field(grid_small):
    # a run cut off by max_iters reports mu and the residual of the field it
    # returns, not of the iterate before its last step
    V = realize(PotentialSpec(kind="sinc"), grid_small)
    res = minimize(V, 5.0, grid_small, MinimizerOptions(max_iters=7))
    assert not res.converged
    assert res.residual == pytest.approx(el_residual(res, V, 5.0), rel=1e-6)
    assert res.mu == pytest.approx(inner(energy_gradient(res.u, V, 5.0), res.u), rel=1e-9)


def test_sweep_schedule_validation(grid_small):
    with pytest.raises(ValueError):
        continuation_sweep(zero_potential(grid_small), [2.0, 1.0], grid_small)


def test_continuation_sweep(grid16, a_star):
    spec = PotentialSpec(kind="power_well", h0=1.0, p=2.0, rcut=8.0)
    V = realize(spec, grid16)
    schedule = [0.7 * a_star, 0.85 * a_star]
    opts = MinimizerOptions(tol_residual=3e-6, max_iters=20000)
    results = continuation_sweep(V, schedule, grid16, opts, a_star=a_star)
    assert [r.coupling for r in results] == schedule
    assert all(r.converged for r in results)
    # widths shrink toward criticality
    assert results[1].eps < results[0].eps
