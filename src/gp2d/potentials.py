"""Potential zoo and the convolution-minimum (attainment) checker.

Bounded potentials, one class per kind of the config grammar: zero,
constant, truncated power well, periodic lattice, sinc, or a GPF1 file.
The attainment checker locates the minimum of V * |u|^2 and reports whether
it is attained in the interior and stable under doubling the box.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np
from scipy.optimize import brentq

from .energy import require_unit_mass
from .errors import ConfigError
from .grid import (
    Field,
    Grid2D,
    convolve_potential,
    make_grid,
    peak_location,
    read_gpf,
    require_same_grid,
)


@dataclass(frozen=True)
class PotentialSpec(ABC):
    """A bounded external potential V, as one kind of the config grammar.

    A kind holds its parameters under their grammar names, with defaults.
    They must be finite and meet domain(), or ConfigError is raised when
    the potential is built.
    """

    kind: ClassVar[str]
    periodic: ClassVar[bool] = False  # every point is interior on the torus
    own_grid: ClassVar[bool] = False  # exists only on the grid it was stored on
    trap: ClassVar[tuple | None] = None  # (p, h0): V = h0 |x|^p about its minimum at 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{self.kind} parameter {f.name} must be finite, got {value}")
        holds, rule = self.domain()
        if not holds:
            raise ConfigError(f"{self.kind} potential requires {rule}")

    def domain(self) -> tuple:
        """(holds, wording) of the kind's range rule beyond finiteness."""
        return True, ""

    @abstractmethod
    def sample(self, grid: Grid2D) -> np.ndarray:
        """V at the grid's samples (realize is the one caller)."""

    @abstractmethod
    def ess_inf(self) -> float:
        """Essential infimum of V: exact, or for a file estimated from its samples."""


@dataclass(frozen=True)
class Zero(PotentialSpec):
    kind = "zero"

    def sample(self, grid):
        return np.zeros((grid.n, grid.n))

    def ess_inf(self):
        return 0.0


@dataclass(frozen=True)
class Constant(PotentialSpec):
    kind = "constant"
    c: float = 0.0

    def sample(self, grid):
        return np.full((grid.n, grid.n), self.c)

    def ess_inf(self):
        return float(self.c)


@dataclass(frozen=True)
class PowerWell(PotentialSpec):
    """h0 * min(r, rcut)^p; rcut keeps V bounded."""

    kind = "power_well"
    h0: float = 1.0
    p: float = 2.0
    rcut: float = 8.0

    def domain(self):
        return self.h0 > 0 and 0 < self.p <= 4 and self.rcut > 0, "h0 > 0, 0 < p <= 4, rcut > 0"

    @property
    def trap(self):
        return self.p, self.h0

    def sample(self, grid):
        return self.h0 * np.minimum(grid.radius(), self.rcut) ** self.p

    def ess_inf(self):
        return 0.0


@dataclass(frozen=True)
class Lattice(PotentialSpec):
    """s * (cos(2 pi x / period) + cos(2 pi y / period))."""

    kind = "lattice"
    periodic = True
    s: float = 0.5
    period: float = 1.0

    def domain(self):
        return self.period > 0, "period > 0"

    def sample(self, grid):
        cx = np.cos(2.0 * np.pi * grid.x / self.period)
        return self.s * (cx[None, :] + cx[:, None])

    def ess_inf(self):
        return -2.0 * abs(self.s)


@dataclass(frozen=True)
class Sinc(PotentialSpec):
    """sin(r) / r, with the value 1 at r = 0."""

    kind = "sinc"

    def sample(self, grid):
        rr = grid.radius()
        vals = np.ones_like(rr)
        np.divide(np.sin(rr), rr, out=vals, where=rr > 0)
        return vals

    def ess_inf(self):
        # the global minimum lies on the circle r = r* in (pi, 3pi/2) where
        # tan(r*) = r*, a root of the derivative's numerator r cos(r) - sin(r)
        r_star = brentq(lambda r: r * np.cos(r) - np.sin(r), np.pi + 1e-9, 1.5 * np.pi)
        return float(np.sin(r_star) / r_star)


@dataclass(frozen=True)
class FilePotential(PotentialSpec):
    """The samples stored in a GPF1 file, on the file's own grid."""

    kind = "file"
    own_grid = True
    path: str

    def domain(self):
        return bool(self.path), "a path"

    def sample(self, grid):
        u = read_gpf(self.path)
        require_same_grid(u.grid, grid)
        return u.values

    def ess_inf(self):
        # the sampled minimum less a modulus-of-continuity allowance of half a
        # cell times the maximal sampled gradient
        field = read_gpf(self.path)
        g = field.grid
        gy, gx = np.gradient(field.values, g.dx)
        allowance = 0.5 * g.dx * float(np.max(np.hypot(gx, gy)))
        return float(np.min(field.values)) - allowance


_BY_KIND = {cls.kind: cls for cls in (Zero, Constant, PowerWell, Lattice, Sinc)}


def parse_potential(text: str) -> PotentialSpec:
    """Parse the config grammar, e.g. 'power_well h0=1 p=2 rcut=8' or
    'file:path.gpf'.  A parameter the kind does not have raises ConfigError."""
    text = text.strip()
    if text.startswith("file:"):
        return FilePotential(text[5:])
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty potential spec")
    kind, *params = tokens
    if kind not in _BY_KIND:
        raise ConfigError(f"unknown potential kind {kind!r}")
    cls = _BY_KIND[kind]
    names = {f.name for f in fields(cls)}
    kv = {}
    for tok in params:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ConfigError(f"malformed potential parameter {tok!r}")
        if key not in names:
            raise ConfigError(f"potential {kind!r} has no parameter {key!r}")
        if key in kv:
            raise ConfigError(f"duplicate potential parameter {key!r}")
        try:
            kv[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"non-numeric potential parameter {tok!r}") from exc
    return cls(**kv)


def realize(spec: PotentialSpec, grid: Grid2D) -> Field:
    """Sample the potential on the grid; ConfigError if a sample overflows."""
    with np.errstate(over="ignore"):  # refused below instead
        values = spec.sample(grid)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"potential {spec} has non-finite samples on {grid}")
    return Field(grid, values)


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
    two cells inside the box (anywhere, for a periodic potential) and the
    minimum of the same density convolved on a box of doubled half-width
    agrees with it to 1e-3.  File potentials exist only on their own grid
    and skip that doubling check.  A u off grid or a non-finite eps raises
    ValueError, a u without unit mass UnnormalizedInput.

    This evaluates the attainment condition for the specific density |u|^2;
    it reports, it does not prove the universally quantified statement.
    """
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    require_unit_mass(u)
    V = realize(spec, grid)
    dens = Field(u.grid, u.values**2)
    conv = convolve_potential(V, dens)  # ValueError unless u lives on grid
    loc = peak_location(grid, -conv.values)
    vmin = float(np.min(conv.values))
    vmax = float(np.max(conv.values))
    degenerate = (vmax - vmin) < 1e-12 * max(1.0, abs(vmax))

    # a periodic potential has no edge: every point is interior on the torus
    interior = spec.periodic or min(grid.L - abs(loc[0]), grid.L - abs(loc[1])) > 2.0 * grid.dx
    stable = True
    if not spec.own_grid:
        big = make_grid(2.0 * grid.L, 2 * grid.n)
        conv2 = convolve_potential(realize(spec, big), _embed_doubled(dens, big))
        stable = abs(float(np.min(conv2.values)) - vmin) < 1e-3 * max(1.0, abs(vmin))

    margin = vmin - (spec.ess_inf() + eps)
    return V2Report(
        conv_min_value=vmin,
        conv_min_location=loc,
        attained_interior=bool(interior and stable and not degenerate),
        margin=float(margin),
        eps=float(eps),
        condition_met=bool(margin < 0.0),
        degenerate_flat=bool(degenerate),
    )
