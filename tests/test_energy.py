import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

from gp2d.energy import (
    Functional,
    dilate,
    dilation_scan,
    energy,
    energy_gradient,
    eps_width,
    gn_quotient,
    trial_state_energy,
)
from gp2d.errors import DegenerateField, ResolutionExceeded, UnnormalizedInput
from gp2d.grid import Field, inner, make_grid, mass, normalize
from helpers import random_localized_potential, random_smooth_field


def zero_potential(grid):
    return Field(grid, np.zeros((grid.n, grid.n)))


def test_townes_energy_vanishes(q0, a_star, grid16):
    br = energy(q0, zero_potential(grid16), a_star)
    assert abs(br.total) < 1e-8
    assert br.kinetic == pytest.approx(1.0, rel=1e-6)


def test_unnormalized_rejected(grid16):
    u = Field(grid16, np.full((grid16.n, grid16.n), 0.5))
    with pytest.raises(UnnormalizedInput):
        energy(u, zero_potential(grid16), 1.0)


def test_gaussian_quotient_closed_form(grid16):
    # for the Gaussian the quotient is exactly 4*pi, independent of width
    rr = grid16.radius()
    g = normalize(Field(grid16, np.exp(-(rr**2) / 2.0)))
    assert gn_quotient(g) == pytest.approx(4.0 * np.pi, rel=1e-10)


def test_townes_quotient_is_critical(q0, a_star):
    assert gn_quotient(q0) == pytest.approx(a_star, rel=1e-3)


def test_degenerate_quotient(grid16):
    with pytest.raises(DegenerateField):
        gn_quotient(Field(grid16, np.zeros((grid16.n, grid16.n))))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_quotient_scale_invariance(seed, c):
    g = make_grid(8.0, 32)
    u = random_smooth_field(g, np.random.default_rng(seed), width=1.5)
    scaled = Field(g, c * u.values)
    assert gn_quotient(scaled) == pytest.approx(gn_quotient(u), rel=1e-10)


def _random_state(seed, n):
    """A smooth unit-mass field and a bounded potential on an n-point grid."""
    g = make_grid(8.0, n)
    rng = np.random.default_rng(seed)
    return g, random_smooth_field(g, rng).values, random_localized_potential(g, rng).values


SEEDS = st.integers(min_value=0, max_value=10**6)
SIZES = st.sampled_from([16, 32, 64])
SHIFTS = st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
COUPLINGS = st.floats(min_value=0.0, max_value=12.0)


@settings(max_examples=25, deadline=None)
@given(SEEDS, SIZES, SHIFTS, COUPLINGS)
def test_functional_invariant_under_grid_shift(seed, n, shift, a):
    # a circular shift of both u and V is a symmetry of the periodic functional
    g, u, V = _random_state(seed, n)
    E = Functional(g, V, a).energy(u, fft.rfft2(u)).total
    us, Vs = np.roll(u, shift, axis=(0, 1)), np.roll(V, shift, axis=(0, 1))
    E_shifted = Functional(g, Vs, a).energy(us, fft.rfft2(us)).total
    assert E_shifted == pytest.approx(E, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(SEEDS, SIZES, SHIFTS, COUPLINGS)
def test_half_gradient_commutes_with_grid_shift(seed, n, shift, a):
    g, u, V = _random_state(seed, n)
    us, Vs = np.roll(u, shift, axis=(0, 1)), np.roll(V, shift, axis=(0, 1))
    grad = Functional(g, V, a).half_gradient(u, fft.rfft2(u))
    grad_shifted = Functional(g, Vs, a).half_gradient(us, fft.rfft2(us))
    error = np.max(np.abs(grad_shifted - np.roll(grad, shift, axis=(0, 1))))
    assert error <= 1e-12 * np.max(np.abs(grad))


@settings(max_examples=25, deadline=None)
@given(SEEDS, SIZES, COUPLINGS, st.floats(min_value=1e-6, max_value=10.0))
def test_retraction_restores_unit_mass(seed, n, a, tau):
    # the minimizer's step back onto the sphere: normalize(|u - tau d|)
    g, u, V = _random_state(seed, n)
    d = Functional(g, V, a).half_gradient(u, fft.rfft2(u))
    assert mass(normalize(Field(g, np.abs(u - tau * d)))) == pytest.approx(1.0, abs=1e-12)


def test_gradient_central_difference(rng):
    g = make_grid(8.0, 64)
    for _ in range(3):
        u = random_smooth_field(g, rng, width=1.5)
        V = random_localized_potential(g, rng)
        d = random_smooth_field(g, rng, width=2.0)
        a = float(rng.uniform(0.0, 12.0))
        grad = energy_gradient(u, V, a)
        h = 1e-6
        up = Field(g, u.values + h * d.values)
        dn = Field(g, u.values - h * d.values)
        fd = (
            energy(up, V, a, check_mass=False).total
            - energy(dn, V, a, check_mass=False).total
        ) / (2.0 * h)
        # half-gradient convention: dE/dt = 2 <g, d>
        assert fd == pytest.approx(2.0 * inner(grad, d), rel=1e-6, abs=1e-9)


def test_dilate_validation(q0):
    with pytest.raises(ValueError):
        dilate(q0, 0.5)
    with pytest.raises(ResolutionExceeded):
        dilate(q0, 1e6)


def test_dilation_scaling(q0_512, grid512):
    # at V = 0 both kinetic and quartic parts scale as ell^2
    V = zero_potential(grid512)
    base = energy(q0_512, V, 0.0)
    for ell in (2.0, 4.0):
        br = energy(dilate(q0_512, ell), V, 0.0)
        assert br.kinetic == pytest.approx(ell**2 * base.kinetic, rel=1e-4)
        assert br.quartic == pytest.approx(ell**2 * base.quartic, rel=1e-4)


def test_dilation_scan_critical(q0_512, a_star, grid512):
    # at the critical coupling the scan stays flat near zero
    totals = [br.total for br in dilation_scan(q0_512, zero_potential(grid512), a_star, (1, 2, 4))]
    assert all(abs(t) < 1e-5 for t in totals)


def test_eps_width(q0):
    assert eps_width(q0) == pytest.approx(1.0, rel=1e-6)


def test_trial_state_reaches_zero(profile, grid512, a_star):
    # concentrating trial states push the V=0 critical energy to 0 from above
    V = zero_potential(grid512)
    vals = [trial_state_energy(grid512, profile, V, a_star, ell=ell) for ell in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]
    # past ell=4 the core width hits the 4-cell resolution floor on this grid
    assert abs(vals[2]) < 1e-3


def test_trial_state_constant_shift(profile, grid16, a_star):
    # adding a constant c to V shifts the trial energy by exactly c
    V0 = zero_potential(grid16)
    Vc = Field(grid16, np.full((grid16.n, grid16.n), 0.7))
    e0 = trial_state_energy(grid16, profile, V0, a_star, ell=4.0)
    ec = trial_state_energy(grid16, profile, Vc, a_star, ell=4.0)
    assert ec - e0 == pytest.approx(0.7, rel=1e-10)


def test_trial_state_validation(profile, grid16, a_star):
    with pytest.raises(ValueError):
        trial_state_energy(grid16, profile, zero_potential(grid16), a_star, ell=0.5)
