import numpy as np
import pytest
from scipy.integrate import solve_ivp

import gp2d.soliton as soliton
from gp2d.errors import BoxTooSmall, InvalidProfile, NonConvergence
from gp2d.grid import kinetic, make_grid, mass
from gp2d.soliton import (
    MESH_MIN,
    bisect_amplitude,
    classify_amplitude,
    critical_coupling,
    lift_to_grid,
    profile_from_amplitude,
    profile_from_dict,
    profile_to_dict,
    radial_moment,
    solve_townes,
)

# frozen oracle values from an independent high-accuracy shooting run
AMPLITUDE_ORACLE = 2.2062008646
A_STAR_ORACLE = 11.7008965247
MOMENT2_ORACLE = 13.8948616


def classify_by_events(amp):
    """Reference classification: terminal solve_ivp events on Q falling
    through 0 and Q' rising through 0, at the shots' tolerances."""

    def cross(r, y):
        return y[0]

    def turn(r, y):
        return y[1]

    cross.terminal = turn.terminal = True
    cross.direction, turn.direction = -1.0, 1.0
    sol = solve_ivp(soliton._rhs, (soliton.R_START, soliton.R_INTEGRATE),
                    soliton._series_start(amp), events=(cross, turn),
                    rtol=1e-12, atol=1e-14, method="DOP853")
    return "cross" if sol.t_events[0].size > 0 else "turn"


def test_amplitude_bracket_classification():
    assert classify_amplitude(1.0) == "turn"
    assert classify_amplitude(4.0) == "cross"


def test_classification_agrees_with_the_event_reference():
    rng = np.random.default_rng(7)
    spread = np.linspace(1.0, 4.0, 40)
    near_root = AMPLITUDE_ORACLE + rng.uniform(-1e-9, 1e-9, 40)
    near = [classify_amplitude(a) for a in near_root]
    assert {"cross", "turn"} <= set(near)
    assert [classify_amplitude(a) for a in spread] == [classify_by_events(a) for a in spread]
    assert near == [classify_by_events(a) for a in near_root]


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_bisection_matches_the_event_reference_bit_for_bit(tol, monkeypatch):
    amp = bisect_amplitude(tol)
    monkeypatch.setattr(soliton, "classify_amplitude", classify_by_events)
    assert amp == bisect_amplitude(tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rhs", [
    lambda r, y: (np.nan, np.nan),
    lambda r, y: (y[0] ** 2, 0.0),  # Q blows up at r = 1/Q(0)
])
def test_failed_classification_shot_raises(rhs, monkeypatch):
    monkeypatch.setattr(soliton, "_rhs", rhs)
    with pytest.raises(NonConvergence, match="DOP853 return code"):
        classify_amplitude(2.0)


def test_failed_profile_shot_raises(monkeypatch):
    monkeypatch.setattr(soliton, "_rhs", lambda r, y: (y[0] ** 2, 0.0))
    with pytest.raises(NonConvergence, match="profile shot"):
        profile_from_amplitude(AMPLITUDE_ORACLE)


def test_tol_validation():
    with pytest.raises(ValueError):
        solve_townes(tol=1e-2)
    with pytest.raises(ValueError):
        solve_townes(tol=0.0)


def test_mesh_size_validated_before_any_shot(monkeypatch):
    def no_shot(*args, **kwargs):
        raise AssertionError("integrated before validating mesh_size")

    monkeypatch.setattr(soliton, "solve_ivp", no_shot)
    monkeypatch.setattr(soliton, "ode", no_shot)
    for mesh_size in (0, 3, MESH_MIN - 1):
        with pytest.raises(ValueError, match="mesh_size"):
            solve_townes(mesh_size=mesh_size)
    for mesh_size in (0, 3, 300):
        with pytest.raises(ValueError, match="mesh_size"):
            profile_from_amplitude(AMPLITUDE_ORACLE, mesh_size=mesh_size)


def test_mesh_floor_meets_pohozaev_gate(profile):
    coarse = profile_from_amplitude(profile.shoot_amplitude, mesh_size=MESH_MIN)
    assert coarse.identities_ok()


def test_bisection_returns_cross_side_endpoint():
    tol = 1e-10
    amp = bisect_amplitude(tol)
    assert classify_amplitude(amp) == "cross"
    assert classify_amplitude(amp - tol) == "turn"


def test_a_star_matches_oracle_to_its_digits(profile):
    # the oracle's 12 significant digits pin a* to about 4e-12
    assert profile.mass == pytest.approx(A_STAR_ORACLE, rel=1e-10)


def test_amplitude_and_mass(profile):
    assert profile.shoot_amplitude == pytest.approx(AMPLITUDE_ORACLE, rel=1e-8)
    assert profile.mass == pytest.approx(A_STAR_ORACLE, rel=1e-8)


def test_pohozaev_identities(profile):
    assert abs(profile.mass - profile.kinetic) / profile.mass < 1e-6
    assert abs(profile.mass - profile.quartic / 2.0) / profile.mass < 1e-6


def test_moments(profile):
    assert radial_moment(profile, 2.0) == pytest.approx(MOMENT2_ORACLE, rel=1e-6)
    m1 = radial_moment(profile, 1.0)
    assert 0.0 < m1 < MOMENT2_ORACLE
    with pytest.raises(ValueError):
        radial_moment(profile, 0.0)
    with pytest.raises(ValueError):
        radial_moment(profile, 5.0)


def test_critical_coupling_guarded(profile):
    assert critical_coupling(profile) == profile.mass
    broken = profile_from_dict(profile_to_dict(profile))
    broken.q = broken.q * 1.01
    broken.__post_init__()
    with pytest.raises(InvalidProfile):
        critical_coupling(broken)


def test_profile_dict_round_trip(profile):
    data = profile_to_dict(profile)
    again = profile_from_dict(data)
    assert again.mass == pytest.approx(profile.mass, rel=1e-12)
    assert again.identities_ok()


def test_profile_from_dict_rejects_garbage():
    with pytest.raises(InvalidProfile):
        profile_from_dict({"r": [0, 1]})


def test_lift_box_too_small(profile):
    with pytest.raises(BoxTooSmall):
        lift_to_grid(profile, make_grid(8.0, 64))


def test_lift_unit_mass_and_kinetic(profile, q0, a_star):
    assert mass(q0) == pytest.approx(1.0, rel=1e-12)
    # normalized profile has kinetic equal to 1 in the continuum
    assert kinetic(q0) == pytest.approx(1.0, rel=1e-6)


def test_lift_off_center(profile, grid16):
    u = lift_to_grid(profile, grid16, center=(3.0, -2.0))
    iy, ix = np.unravel_index(np.argmax(u.values), u.values.shape)
    assert grid16.x[ix] == pytest.approx(3.0, abs=grid16.dx)
    assert grid16.x[iy] == pytest.approx(-2.0, abs=grid16.dx)
