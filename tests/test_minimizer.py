import dataclasses

import numpy as np
import pytest

import gp2d.minimizer as minimizer
from gp2d.energy import (
    MIN_WIDTH_CELLS,
    Functional,
    dilate,
    dilation_scan,
    energy,
    energy_gradient,
    eps_width,
)
from gp2d.errors import CriticalCouplingGuard, NonFiniteIterate, ResolutionExceeded
from gp2d.grid import Field, inner, l2_norm, make_grid, mass, normalize
from gp2d.minimizer import (
    MinimizerOptions,
    _warm_start,
    continuation_sweep,
    gaussian_init,
    minimize,
)
from gp2d.potentials import Constant, PowerWell, Sinc, Zero, check_v2, realize


def zero_potential(grid):
    return Field(grid, np.zeros((grid.n, grid.n)))


def projected_residual(u, V, a):
    """||g - <g,u> u|| for the half-gradient g of energy_gradient."""
    g = energy_gradient(u, V, a)
    return l2_norm(Field(u.grid, g.values - inner(g, u) * u.values))


def test_options_validation():
    with pytest.raises(ValueError):
        MinimizerOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        MinimizerOptions(max_iters=0)
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError):
            MinimizerOptions(tol_residual=tol)
    with pytest.raises(ValueError):
        MinimizerOptions(max_iters=2.5)


def test_negative_coupling_rejected(grid_small):
    with pytest.raises(ValueError):
        minimize(zero_potential(grid_small), -1.0, grid_small)


@pytest.mark.parametrize("a", [np.nan, np.inf])
def test_non_finite_coupling_rejected(grid_small, a):
    with pytest.raises(ValueError):
        minimize(zero_potential(grid_small), a, grid_small)


def test_a_field_on_another_grid_is_refused():
    # same n, another L: read on the wrong grid the samples pose another problem
    g8, g16 = make_grid(8.0, 64), make_grid(16.0, 64)
    well = PowerWell(h0=1.0)
    V8, V16, u8 = realize(well, g8), realize(well, g16), gaussian_init(g8)
    refused = [
        lambda: minimize(V8, 0.0, g16),
        lambda: minimize(V16, 0.0, g16, init=u8),
        lambda: check_v2(well, u8, 0.01, g16),
        lambda: energy(u8, V16, 1.0),
        lambda: energy_gradient(u8, V16, 1.0),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="different grids"):
            call()
    # on its own grid the well's ground energy is that of -Lap + r^2
    assert minimize(V16, 0.0, g16).mu == pytest.approx(2.0, abs=1e-6)


def test_criticality_guard(grid_small, a_star):
    with pytest.raises(CriticalCouplingGuard):
        minimize(zero_potential(grid_small), a_star, grid_small, a_star=a_star)


def test_sweep_reaching_the_criticality_margin_fails_before_entry_0(grid_small, a_star,
                                                                     monkeypatch):
    def no_entry(*args, **kwargs):
        raise AssertionError("a sweep entry ran before its last coupling was checked")

    monkeypatch.setattr(minimizer, "minimize", no_entry)
    # 11.7 lies within the margin of a* = 11.7009...; 1.0 does not
    with pytest.raises(CriticalCouplingGuard):
        continuation_sweep(zero_potential(grid_small), [1.0, 11.7], grid_small, a_star=a_star)


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
    spec = Sinc()
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
    assert projected_residual(res.u, V, 0.8 * a_star) == pytest.approx(res.residual, rel=1e-6)


def test_unconverged_result_describes_returned_field():
    # every unconverged ending reports mu and the residual of the field it
    # returns, not of the iterate before its last step
    cases = [
        # cut off by max_iters right after a step
        (Sinc(), 8.0, 64, 5.0, MinimizerOptions(max_iters=7), 0),
        # the second stall in a row
        (PowerWell(h0=1.0), 8.0, 16, 1.0, MinimizerOptions(tol_residual=1e-300), 2),
        # a step taken only after FLOOR_HALVINGS halvings
        (Constant(c=5.0), 16.0, 32, 0.0, MinimizerOptions(1e-8, max_iters=50000), 1),
    ]
    for spec, L, n, a, opts, stalls in cases:
        grid = make_grid(L, n)
        V = realize(spec, grid)
        res = minimize(V, a, grid, opts)
        assert not res.converged and res.stalls == stalls
        # a floor step moves the residual by only about 4e-8 of itself
        assert res.residual == pytest.approx(projected_residual(res.u, V, a), rel=1e-8, abs=0)
        assert res.mu == pytest.approx(inner(energy_gradient(res.u, V, a), res.u), rel=1e-9)


@pytest.mark.filterwarnings("error")
def test_non_finite_iterate_raises():
    # a = 1e200 overflows the residual's square on the first iteration; the
    # run stops there with a named error instead of spending its budget
    grid = make_grid(8.0, 16)
    with pytest.raises(NonFiniteIterate):
        minimize(realize(Zero(), grid), 1e200, grid, MinimizerOptions(max_iters=200))


def test_non_finite_trial_energy_raises(grid_small, monkeypatch):
    # every evaluation after the starting one reads as NaN
    calls = []
    evaluate = Functional.energy

    def energy_nan_after_start(self, u, uh):
        calls.append(1)
        br = evaluate(self, u, uh)
        return br if len(calls) == 1 else dataclasses.replace(br, total=np.nan)

    monkeypatch.setattr(Functional, "energy", energy_nan_after_start)
    with pytest.raises(NonFiniteIterate):
        minimize(realize(Sinc(), grid_small), 5.0, grid_small, MinimizerOptions(max_iters=20))
    assert len(calls) == 2


def test_counters_account_for_every_trial(grid_small, monkeypatch):
    # one energy evaluation to start, then one per accepted or rejected trial
    calls = []
    evaluate = Functional.energy
    monkeypatch.setattr(
        Functional, "energy", lambda self, u, uh: calls.append(1) or evaluate(self, u, uh)
    )
    V = realize(PowerWell(h0=1.0, p=2.0, rcut=8.0), grid_small)
    res = minimize(V, 10.0, grid_small, MinimizerOptions(max_iters=200))
    accepted = len(res.energy_trace) - 1
    assert len(calls) == 1 + accepted + res.backtracks
    assert res.backtracks > 0
    # this collapsing run flips the sign of some accepted steps
    assert 0 < res.flips <= accepted


def test_stalls_count_every_iteration_without_a_step():
    # no residual reaches 1e-300, so the run ends at its second stall in a row
    grid = make_grid(8.0, 16)
    res = minimize(realize(PowerWell(h0=1.0), grid), 1.0, grid,
                   MinimizerOptions(tol_residual=1e-300))
    assert not res.converged
    assert res.stalls == 2
    assert res.iters == len(res.energy_trace) - 1 + res.stalls


def test_warm_start_takes_the_predicted_width_below_four_cells(q0):
    # a warm start is not a published field: it narrows to eps(u)/ell about
    # the peak even where dilation_scan() refuses for want of resolution
    g = q0.grid
    u = Field(g, np.roll(q0.values, (17, -9), axis=(0, 1)))
    ell = 3.0
    width = eps_width(u) / ell
    assert width < MIN_WIDTH_CELLS * g.dx
    warm = dilate(u, ell)
    assert eps_width(warm) == pytest.approx(width, rel=1e-2)
    assert np.argmax(warm.values) == np.argmax(u.values)
    with pytest.raises(ResolutionExceeded):
        dilation_scan(u, zero_potential(g), 0.0, (ell,))


def test_sweep_entry_below_four_cells_reaches_the_same_minimum(a_star):
    # the last entry's warm start is predicted at 2.5 cells; it converges to
    # the minimum that a start from the undilated previous minimizer reaches
    grid = make_grid(12.0, 96)
    V = realize(PowerWell(h0=0.0625, p=2.0, rcut=8.0), grid)
    schedule = [0.9 * a_star, 0.99 * a_star]
    opts = MinimizerOptions(tol_residual=1e-6, max_iters=20000)
    first, last = continuation_sweep(V, schedule, grid, opts, a_star=a_star)
    ell = ((a_star - schedule[0]) / (a_star - schedule[1])) ** 0.25
    assert eps_width(first.u) / ell < MIN_WIDTH_CELLS * grid.dx
    undilated = minimize(V, schedule[1], grid, opts, init=first.u, a_star=a_star)
    assert last.converged and undilated.converged
    assert last.E == pytest.approx(undilated.E, abs=1e-10)


@pytest.fixture(scope="module")
def geometric_sweep(a_star):
    """A 4-entry sweep a = a* (1 - 0.05 * 0.65^k) in the benchmark's well, at n=96."""
    grid = make_grid(12.0, 96)
    V = realize(PowerWell(h0=0.0625, p=2.0, rcut=8.0), grid)
    schedule = [a_star * (1.0 - 0.05 * 0.65**k) for k in range(4)]
    opts = MinimizerOptions(tol_residual=1e-6, max_iters=20000)
    results = continuation_sweep(V, schedule, grid, opts, a_star=a_star)
    # entry 3 started from entry 2 carried by pure dilation, the rule before the secant
    ell = ((a_star - schedule[2]) / (a_star - schedule[3])) ** 0.25
    dilated = dilate(results[2].u, ell)
    from_dilated = minimize(V, schedule[3], grid, opts, init=dilated, a_star=a_star)
    return schedule, results, dilated, from_dilated


def test_secant_warm_start_reaches_the_same_minimum_in_fewer_iterations(geometric_sweep):
    _, results, _, from_dilated = geometric_sweep
    last = results[-1]
    assert last.converged and from_dilated.converged
    assert last.E == pytest.approx(from_dilated.E, abs=1e-10)
    assert last.iters < from_dilated.iters


def test_secant_guess_is_closer_than_the_dilation(geometric_sweep, a_star):
    schedule, results, dilated, _ = geometric_sweep
    guess = _warm_start(schedule, [r.u for r in results[:3]], a_star)
    target = results[3].u

    def distance(init):
        # minimize() starts from normalize(|init|)
        start = normalize(Field(init.grid, np.abs(init.values)))
        return l2_norm(Field(target.grid, start.values - target.values))

    assert distance(guess) < distance(dilated)


def test_sweep_schedule_validation(grid_small, a_star):
    with pytest.raises(ValueError):
        continuation_sweep(zero_potential(grid_small), [2.0, 1.0], grid_small, a_star=a_star)
    with pytest.raises(ValueError):
        continuation_sweep(zero_potential(grid_small), [1.0, np.nan], grid_small, a_star=a_star)


def test_continuation_sweep(grid16, a_star):
    spec = PowerWell(h0=1.0, p=2.0, rcut=8.0)
    V = realize(spec, grid16)
    schedule = [0.7 * a_star, 0.85 * a_star]
    opts = MinimizerOptions(tol_residual=3e-6, max_iters=20000)
    results = continuation_sweep(V, schedule, grid16, opts, a_star=a_star)
    assert [r.coupling for r in results] == schedule
    assert all(r.converged for r in results)
    # widths shrink toward criticality
    assert results[1].eps < results[0].eps
