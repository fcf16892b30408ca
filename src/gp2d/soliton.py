"""Townes soliton: the positive radial ground state of -dQ'' - Q'/r + Q - Q^3 = 0.

Solved by bisection on the shooting amplitude Q(0).  Amplitudes below the
critical one produce solutions that turn around while still positive;
amplitudes above produce a sign crossing.  Beyond a matching radius the
profile is replaced by its asymptotic tail c*exp(-r)/sqrt(r), whose moment
integrals are added analytically.

Every shot integrates with the eighth-order Dormand-Prince pair DOP853 at
rtol 1e-12, atol 1e-14: at that tolerance it needs under a third of the
right-hand-side calls of a fifth-order pair.  ``solve_townes`` at its default
tol=1e-12 makes 45 shots: the two bracket ends [1, 4], 42 bisection steps and
the dense profile integration.

The 44 sign-classification shots run on Hairer's Fortran DOP853 through
``scipy.integrate.ode``, at about a fifth of the cost of ``solve_ivp``'s
Python stepping loop.  A step callback stops a shot at the first accepted
step that ends with Q < 0 or Q' > 0.  The two codes choose slightly different
steps, but they class an amplitude alike unless it lies within about the
integration error of the root, so bisection returns the same float at every
tol checked from 1e-4 to 1e-13; at tol 1e-14, below rtol, the amplitude can
move by about 1e-14.  The one dense profile shot stays on ``solve_ivp``:
``scipy.integrate.ode`` exposes no dense output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import ode, simpson, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.special import gamma, gammaincc

from .errors import BoxTooSmall, BracketNotFound, InvalidProfile, NonConvergence
from .grid import Field, Grid2D, normalize

R_START = 1e-8          # series start, avoids the Q'/r singularity
R_INTEGRATE = 25.0      # hard stop for the shooting integration
Q_SWITCH = 1e-5         # hand over to the analytic tail once Q drops below this
R_TAIL_END = 20.0       # stored mesh extends to here via the tail formula
IDENTITY_RTOL = 1e-6    # Pohozaev identity gate
MESH_MIN = 500          # fewest body samples whose quadrature meets that gate


def _rhs(r, y):
    q, p = y
    return (p, q - q**3 - p / r)


def _series_start(amp: float):
    """Second-order series around r=0 removing the Q'/r indeterminacy."""
    c = (amp - amp**3) / 4.0
    q0 = amp + c * R_START**2
    p0 = 2.0 * c * R_START
    return q0, p0


def _stop_at_sign_change(r, y):
    """Step callback: stop the shot once Q < 0 or Q' > 0."""
    return -1 if y[0] < 0.0 or y[1] > 0.0 else 0


def classify_amplitude(amp: float) -> str:
    """'cross' if the shot changes sign, 'turn' if it stays positive.

    The shot stops at the first accepted step that ends with Q < 0 (cross)
    or Q' > 0 (turn); one that reaches R_INTEGRATE with neither turns.  A
    failed integration raises NonConvergence.
    """
    shot = ode(_rhs).set_integrator("dop853", rtol=1e-12, atol=1e-14)
    shot.set_solout(_stop_at_sign_change)
    shot.set_initial_value(_series_start(amp), R_START)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on failure; raised below instead
        q, _ = shot.integrate(R_INTEGRATE)
    code = shot.get_return_code()
    if code < 0:
        raise NonConvergence(
            f"shot at amplitude {amp} failed at r = {shot.t}: DOP853 return code {code}"
        )
    return "cross" if q < 0.0 else "turn"


@dataclass
class RadialProfile:
    """Townes profile on a radial mesh plus its tail and derived integrals."""

    r: np.ndarray
    q: np.ndarray
    q_prime: np.ndarray
    shoot_amplitude: float
    tail_coef: float
    tail_start: float
    mass: float = field(init=False)
    kinetic: float = field(init=False)
    quartic: float = field(init=False)

    def __post_init__(self):
        self.mass = self._moment_raw(0.0)
        self.kinetic = 2.0 * np.pi * simpson(self.q_prime**2 * self.r, x=self.r)
        self.quartic = 2.0 * np.pi * simpson(self.q**4 * self.r, x=self.r)

    def _moment_raw(self, p: float) -> float:
        """2*pi * int r^p Q^2 r dr over the mesh plus the analytic tail remainder."""
        body = 2.0 * np.pi * simpson(self.r ** (p + 1.0) * self.q**2, x=self.r)
        # tail beyond the mesh end: Q^2 r ~ c^2 exp(-2r), so the remainder is
        # c^2 * Gamma(p+1, 2*r_end) / 2^(p+1)
        r_end = self.r[-1]
        rem = (
            2.0
            * np.pi
            * self.tail_coef**2
            * gamma(p + 1.0)
            * gammaincc(p + 1.0, 2.0 * r_end)
            / 2.0 ** (p + 1.0)
        )
        return float(body + rem)

    def identities_ok(self, rtol: float = IDENTITY_RTOL) -> bool:
        return (
            abs(self.mass - self.kinetic) / self.mass < rtol
            and abs(self.mass - self.quartic / 2.0) / self.mass < rtol
        )

    def spline(self) -> CubicSpline:
        return CubicSpline(
            self.r, self.q, bc_type=((1, 0.0), (1, float(self.q_prime[-1])))
        )


def bisect_amplitude(tol: float) -> float:
    """Shooting amplitude from bisection, taken at the cross-side endpoint.

    The cross-side shot is guaranteed to fall through the tail-matching
    threshold; the turn-side one can bounce above it first.
    """
    lo, hi = 1.0, 4.0
    if classify_amplitude(lo) != "turn" or classify_amplitude(hi) != "cross":
        raise BracketNotFound("initial bracket [1, 4] does not straddle the root")
    steps = 0
    while hi - lo > tol:
        steps += 1
        if steps > 200:
            raise NonConvergence("bisection budget exhausted")
        mid = 0.5 * (lo + hi)
        if classify_amplitude(mid) == "cross":
            hi = mid
        else:
            lo = mid
    return hi


def _check_mesh_size(mesh_size: int) -> None:
    """Reject fewer than MESH_MIN = 500 body samples with ValueError.

    The Simpson moments err like mesh_size^-4, and at 400 samples they
    already use half of the 1e-6 Pohozaev gate.
    """
    if mesh_size < MESH_MIN:
        raise ValueError(f"mesh_size must be at least {MESH_MIN}, got {mesh_size}")


def profile_from_amplitude(
    amp: float, mesh_size: int = 4000, tol: float = 1e-12
) -> RadialProfile:
    """Integrate the profile at a known amplitude and attach the analytic tail.

    Reuse this with a fixed amplitude to refine the stored mesh without
    repeating the bisection.  mesh_size below MESH_MIN raises ValueError
    before the integration.
    """
    _check_mesh_size(mesh_size)

    def event_switch(r, y):
        return y[0] - Q_SWITCH

    event_switch.terminal = True
    event_switch.direction = -1.0

    sol = solve_ivp(
        _rhs,
        (R_START, R_INTEGRATE),
        _series_start(amp),
        events=(event_switch,),
        dense_output=True,
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    if sol.status == -1:
        raise NonConvergence(f"profile shot at amplitude {amp} failed: {sol.message}")
    if sol.t_events[0].size == 0:
        raise NonConvergence("profile did not decay to the tail threshold")
    r_match = float(sol.t_events[0][0])

    # mesh: dense body up to the matching radius, then analytic tail samples
    n_body = mesh_size
    r_body = np.linspace(0.0, r_match, n_body)
    body = sol.sol(np.maximum(r_body, R_START))
    q_body, p_body = body[0], body[1]
    q_body[0], p_body[0] = amp, 0.0

    c_tail = Q_SWITCH * np.sqrt(r_match) * np.exp(r_match)
    n_tail = max(mesh_size // 8, 64)
    r_tail = np.linspace(r_match, R_TAIL_END, n_tail + 1)[1:]
    q_tail = c_tail * np.exp(-r_tail) / np.sqrt(r_tail)
    p_tail = -q_tail * (1.0 + 0.5 / r_tail)

    profile = RadialProfile(
        r=np.concatenate([r_body, r_tail]),
        q=np.concatenate([q_body, q_tail]),
        q_prime=np.concatenate([p_body, p_tail]),
        shoot_amplitude=amp,
        tail_coef=float(c_tail),
        tail_start=r_match,
    )
    # identity error tracks the amplitude bracket width at loose tolerances
    if not profile.identities_ok(rtol=max(IDENTITY_RTOL, 10.0 * tol)):
        raise NonConvergence(
            "Pohozaev identities violated: "
            f"mass={profile.mass}, kinetic={profile.kinetic}, quartic={profile.quartic}"
        )
    return profile


def solve_townes(tol: float = 1e-12, mesh_size: int = 4000) -> RadialProfile:
    """Bisect on the shooting amplitude until the bracket width is below tol.

    Both arguments are checked before the first shot; mesh_size must be at
    least MESH_MIN (see _check_mesh_size).
    """
    if not (1e-14 <= tol <= 1e-4):
        raise ValueError(f"tol must lie in [1e-14, 1e-4], got {tol}")
    _check_mesh_size(mesh_size)
    return profile_from_amplitude(bisect_amplitude(tol), mesh_size, tol)


def critical_coupling(profile: RadialProfile) -> float:
    """The critical interaction strength: the L2 mass of the Townes profile."""
    if not profile.identities_ok():
        raise InvalidProfile("profile violates the Pohozaev identities")
    return profile.mass


def radial_moment(profile: RadialProfile, p: float) -> float:
    """2*pi int r^p Q(r)^2 r dr including the analytic tail remainder."""
    if not (0.0 < p <= 4.0):
        raise ValueError(f"moment order must lie in (0, 4], got {p}")
    return profile._moment_raw(p)


def profile_to_dict(profile: RadialProfile) -> dict:
    """JSON-ready dict: mesh arrays plus the scalar identity table."""
    return {
        "r": profile.r.tolist(),
        "q": profile.q.tolist(),
        "q_prime": profile.q_prime.tolist(),
        "shoot_amplitude": profile.shoot_amplitude,
        "tail_coef": profile.tail_coef,
        "tail_start": profile.tail_start,
        "mass": profile.mass,
        "kinetic": profile.kinetic,
        "quartic": profile.quartic,
        "moment_p1": radial_moment(profile, 1.0),
        "moment_p2": radial_moment(profile, 2.0),
    }


def profile_from_dict(data: dict) -> RadialProfile:
    try:
        profile = RadialProfile(
            r=np.asarray(data["r"], float),
            q=np.asarray(data["q"], float),
            q_prime=np.asarray(data["q_prime"], float),
            shoot_amplitude=float(data["shoot_amplitude"]),
            tail_coef=float(data["tail_coef"]),
            tail_start=float(data["tail_start"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidProfile(f"malformed profile data: {exc}") from exc
    if not profile.identities_ok():
        raise InvalidProfile("loaded profile violates the Pohozaev identities")
    return profile


def lift_to_grid(profile: RadialProfile, grid: Grid2D, center=(0.0, 0.0)) -> Field:
    """Sample Q(|x-center|)/sqrt(mass) on the grid and renormalize to unit mass.

    The box must contain the numerically integrated body of the profile
    (radius ``tail_start``); the analytic sub-1e-5 tail may be clipped.
    """
    if profile.tail_start > grid.L:
        raise BoxTooSmall(
            f"profile body radius {profile.tail_start} exceeds box half-width {grid.L}"
        )
    r_max = float(profile.r[-1])
    spl = profile.spline()
    rr = grid.radius(center)
    vals = np.where(rr <= r_max, spl(np.minimum(rr, r_max)), 0.0)
    vals /= np.sqrt(profile.mass)
    return normalize(Field(grid, vals))
