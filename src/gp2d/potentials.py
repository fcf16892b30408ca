"""Potential zoo and the convolution-minimum (attainment) checker.

Bounded potentials: zero, constant, truncated power well, periodic lattice,
sinc, or a GPF1 file.  The attainment checker locates the minimum of
V * |u|^2 and reports whether it is attained in the interior and stable
under doubling the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, FileFormatError
from .grid import Field, Grid2D, convolve_potential, make_grid, mass, peak_location, read_gpf

KINDS = ("zero", "constant", "power_well", "lattice", "sinc", "file")


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    c: float = 0.0            # constant value
    h0: float = 1.0           # power well strength
    p: float = 2.0            # power well exponent
    rcut: float = 8.0         # power well truncation radius
    amplitude: float = 0.5    # lattice amplitude
    period: float = 1.0       # lattice period
    path: str | None = None   # GPF1 file

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown potential kind {self.kind!r}")
        if self.kind == "power_well":
            if self.h0 <= 0:
                raise ConfigError("power well requires h0 > 0")
            if not (0.0 < self.p <= 4.0):
                raise ConfigError("power well requires 0 < p <= 4")
            if self.rcut <= 0:
                raise ConfigError("power well requires rcut > 0")
        if self.kind == "lattice":
            if not np.isfinite(self.amplitude):
                raise ConfigError("lattice amplitude must be finite")
            if self.period <= 0:
                raise ConfigError("lattice period must be positive")
        if self.kind == "file" and not self.path:
            raise ConfigError("file potential requires a path")


def parse_potential(text: str) -> PotentialSpec:
    """Parse the config grammar, e.g. 'power_well h0=1 p=2 rcut=8'."""
    text = text.strip()
    if text.startswith("file:"):
        return PotentialSpec(kind="file", path=text[5:])
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty potential spec")
    kind = tokens[0]
    kv = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigError(f"malformed potential parameter {tok!r}")
        key, val = tok.split("=", 1)
        try:
            kv[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"non-numeric potential parameter {tok!r}") from exc
    try:
        if kind == "zero":
            return PotentialSpec(kind="zero", **kv)
        if kind == "constant":
            return PotentialSpec(kind="constant", **kv)
        if kind == "power_well":
            return PotentialSpec(kind="power_well", **kv)
        if kind == "lattice":
            allowed = {"s": "amplitude", "period": "period"}
            mapped = {}
            for key, val in kv.items():
                if key not in allowed:
                    raise ConfigError(f"unknown lattice parameter {key!r}")
                mapped[allowed[key]] = val
            return PotentialSpec(kind="lattice", **mapped)
        if kind == "sinc":
            if kv:
                raise ConfigError("sinc takes no parameters")
            return PotentialSpec(kind="sinc")
    except TypeError as exc:
        raise ConfigError(f"bad parameters for potential {kind!r}: {kv}") from exc
    raise ConfigError(f"unknown potential kind {kind!r}")


def realize(spec: PotentialSpec, grid: Grid2D) -> Field:
    """Sample the potential on the grid."""
    if spec.kind == "zero":
        return Field(grid, np.zeros((grid.n, grid.n)))
    if spec.kind == "constant":
        return Field(grid, np.full((grid.n, grid.n), spec.c))
    rr = grid.radius()
    if spec.kind == "power_well":
        return Field(grid, spec.h0 * np.minimum(rr, spec.rcut) ** spec.p)
    if spec.kind == "lattice":
        x = grid.x
        cx = np.cos(2.0 * np.pi * x / spec.period)
        return Field(grid, spec.amplitude * (cx[None, :] + cx[:, None]))
    if spec.kind == "sinc":
        vals = np.ones_like(rr)
        nz = rr > 0
        vals[nz] = np.sin(rr[nz]) / rr[nz]
        return Field(grid, vals)
    if spec.kind == "file":
        u = read_gpf(spec.path)
        if u.grid != grid:
            raise FileFormatError(
                f"potential file grid (L={u.grid.L}, n={u.grid.n}) does not match "
                f"(L={grid.L}, n={grid.n})"
            )
        return u
    raise ConfigError(f"unknown potential kind {spec.kind!r}")


@lru_cache(maxsize=1)
def sinc_min() -> float:
    """Global minimum of sin(r)/r, at the root of tan(r)=r in (pi, 3pi/2)."""
    # stationary points of sin(r)/r satisfy r cos(r) - sin(r) = 0
    r_star = brentq(lambda r: r * np.cos(r) - np.sin(r), np.pi + 1e-9, 1.5 * np.pi)
    return float(np.sin(r_star) / r_star)


def ess_inf_estimate(spec_or_field) -> float:
    """Essential infimum: analytic when the spec permits, grid-based otherwise.

    Grid-based estimates subtract a modulus-of-continuity allowance of half a
    cell times the maximal sampled gradient.
    """
    if isinstance(spec_or_field, PotentialSpec):
        spec = spec_or_field
        if spec.kind == "zero":
            return 0.0
        if spec.kind == "constant":
            return float(spec.c)
        if spec.kind == "power_well":
            return 0.0
        if spec.kind == "lattice":
            return -2.0 * abs(spec.amplitude)
        if spec.kind == "sinc":
            return sinc_min()
        field = read_gpf(spec.path)
    else:
        field = spec_or_field
    vals = field.values
    g = field.grid
    gy, gx = np.gradient(vals, g.dx)
    allowance = 0.5 * g.dx * float(np.max(np.hypot(gx, gy)))
    return float(np.min(vals)) - allowance


@dataclass(frozen=True)
class V2Report:
    conv_min_value: float
    conv_min_location: tuple
    attained_interior: bool
    margin: float
    eps: float
    condition_met: bool
    degenerate_flat: bool


def _embed_doubled(u: Field, big: Grid2D) -> Field:
    """Place u's samples in a box of doubled half-width (same spacing)."""
    n = u.grid.n
    vals = np.zeros((big.n, big.n))
    i0 = (big.n - n) // 2
    vals[i0 : i0 + n, i0 : i0 + n] = u.values
    return Field(big, vals)


def check_v2(spec: PotentialSpec, u: Field, eps: float, grid: Grid2D) -> V2Report:
    """Locate the minimum of V * |u|^2 and report the attainment diagnostics.

    The minimum counts as attained in the interior only if it lies more than
    two cells inside the box (anywhere, for a periodic lattice) and, for a
    spec potential, the minimum of the same density convolved on a box of
    doubled half-width agrees with it to 1e-3.  File potentials exist only
    on their own grid and skip that doubling check.  A non-finite eps or a
    density without unit mass raises ValueError.

    This evaluates the attainment condition for the specific density |u|^2;
    it reports, it does not prove the universally quantified statement.
    """
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if abs(mass(u) - 1.0) > 1e-6:
        raise ValueError("attainment check requires a unit-mass density")
    V = realize(spec, grid)
    dens = Field(grid, u.values**2)
    conv = convolve_potential(V, dens)
    loc = peak_location(grid, -conv.values)
    vmin = float(np.min(conv.values))
    vmax = float(np.max(conv.values))
    degenerate = (vmax - vmin) < 1e-12 * max(1.0, abs(vmax))

    interior = (
        min(grid.L - abs(loc[0]), grid.L - abs(loc[1])) > 2.0 * grid.dx
        or spec.kind == "lattice"  # periodic: every point is interior on the torus
    )
    stable = True
    if spec.kind != "file":
        big = make_grid(2.0 * grid.L, 2 * grid.n)
        conv2 = convolve_potential(realize(spec, big), _embed_doubled(dens, big))
        stable = abs(float(np.min(conv2.values)) - vmin) < 1e-3 * max(1.0, abs(vmin))

    ess = ess_inf_estimate(spec if spec.kind != "file" else V)
    margin = vmin - (ess + eps)
    return V2Report(
        conv_min_value=vmin,
        conv_min_location=loc,
        attained_interior=bool(interior and stable and not degenerate),
        margin=float(margin),
        eps=float(eps),
        condition_met=bool(margin < 0.0),
        degenerate_flat=bool(degenerate),
    )
