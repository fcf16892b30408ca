"""Periodic square grid with Fourier-spectral calculus.

The plane is truncated to the box [-L, L)^2 with n samples per side and
periodic boundary conditions.  All derivatives are spectral; integration is
the periodic trapezoid rule (uniform weight dx^2), which is spectrally
accurate for smooth periodic integrands.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .errors import FileFormatError, InvalidGrid, OddSampleCount

GPF1_MAGIC = b"GPF1\0\0\0\0"


@dataclass(frozen=True)
class Grid2D:
    """Immutable periodic grid on [-L, L)^2 with n samples per side."""

    L: float
    n: int
    dx: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise InvalidGrid(f"half-width must be finite and positive, got {self.L}")
        if self.n % 2 != 0:
            raise OddSampleCount(f"sample count must be even, got {self.n}")
        if self.n < 16:
            raise InvalidGrid(f"sample count must be >= 16, got {self.n}")
        object.__setattr__(self, "dx", 2.0 * self.L / self.n)

    @property
    def x(self) -> np.ndarray:
        """1D sample coordinates -L + i*dx."""
        return -self.L + self.dx * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        """1D spectral wavenumbers pi*j/L in DFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @property
    def k2(self) -> np.ndarray:
        """|k|^2 on the 2D spectral grid (ky along axis 0)."""
        k = self.k
        return k[:, None] ** 2 + k[None, :] ** 2

    @property
    def k2r(self) -> np.ndarray:
        """|k|^2 on the half-spectrum grid used with rfft2."""
        k = self.k
        kx = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        return k[:, None] ** 2 + kx[None, :] ** 2

    @property
    def rfft_weights(self) -> np.ndarray:
        """Column multiplicities for Parseval sums over the half-spectrum."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        return w

    @property
    def weight(self) -> float:
        """Quadrature weight dx^2 of the periodic trapezoid rule."""
        return self.dx * self.dx

    def meshgrid(self):
        """(X, Y) sample coordinates, row-major (y-major, x-minor)."""
        x = self.x
        return np.meshgrid(x, x, indexing="xy")

    def radius(self, center=(0.0, 0.0)) -> np.ndarray:
        """Minimal-image distance from ``center`` at every sample."""
        x = self.x
        side = 2.0 * self.L
        dxv = (x - center[0] + self.L) % side - self.L
        dyv = (x - center[1] + self.L) % side - self.L
        return np.sqrt(dxv[None, :] ** 2 + dyv[:, None] ** 2)


def make_grid(L: float, n: int) -> Grid2D:
    return Grid2D(L=float(L), n=int(n))


@dataclass
class Field:
    """Real-valued samples of a function on a Grid2D (row-major, y-major)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def mass(u: Field) -> float:
    """L2 mass: sum(u^2) dx^2."""
    return float(np.sum(u.values**2) * u.grid.weight)


def normalize(u: Field) -> Field:
    m = mass(u)
    if m <= 0:
        raise ValueError("cannot normalize a zero field")
    return Field(u.grid, u.values / np.sqrt(m))


def inner(u: Field, v: Field) -> float:
    """L2 inner product with the grid quadrature weight."""
    return float(np.sum(u.values * v.values) * u.grid.weight)


def l2_norm(u: Field) -> float:
    return float(np.sqrt(max(mass(u), 0.0)))


def laplacian_apply(u: Field) -> Field:
    """Spectral Laplacian; exact for band-limited inputs."""
    uh = np.fft.rfft2(u.values)
    out = np.fft.irfft2(-u.grid.k2r * uh, s=u.values.shape)
    return Field(u.grid, out)


def kinetic(u: Field) -> float:
    """Integral of |grad u|^2 via Parseval; nonnegative."""
    from .energy import Functional  # the functional kernel is built on this module

    return Functional(u.grid).kinetic(fft.rfft2(u.values))


def convolve_potential(V: Field, dens: Field) -> Field:
    """Periodic convolution (V * dens)(y) at the samples y = x_i, by DFT product."""
    if V.grid != dens.grid:
        raise ValueError("potential and density live on different grids")
    vh = fft.rfft2(V.values)
    dh = fft.rfft2(dens.values)
    out = fft.irfft2(vh * dh, s=V.values.shape) * V.grid.weight
    # both factors count their samples from -L, so the cyclic product lands
    # at x_i - L; half a period brings it back to x_i
    half = V.grid.n // 2
    return Field(V.grid, np.roll(out, (half, half), axis=(0, 1)))


def peak_location(grid: Grid2D, vals: np.ndarray) -> tuple:
    """(x, y) of the largest sample, refined by a separable parabola
    through its 3x3 neighbourhood."""
    iy, ix = np.unravel_index(np.argmax(vals), vals.shape)
    n = grid.n

    def offset(vm, v0, vp):
        denom = vm - 2.0 * v0 + vp
        if denom >= 0:
            return 0.0
        return float(np.clip(0.5 * (vm - vp) / denom, -0.5, 0.5))

    ox = offset(vals[iy, (ix - 1) % n], vals[iy, ix], vals[iy, (ix + 1) % n])
    oy = offset(vals[(iy - 1) % n, ix], vals[iy, ix], vals[(iy + 1) % n, ix])
    return (float(grid.x[ix] + ox * grid.dx), float(grid.x[iy] + oy * grid.dx))


def resample_affine(u: Field, scale: float, offset=(0.0, 0.0)) -> np.ndarray:
    """Values of the trigonometric interpolant of u at offset + scale*x.

    The evaluation points form a tensor grid, so the interpolation factors
    into two 1D complex matrix products.
    """
    g = u.grid
    k = g.k
    x = g.x
    # DFT indices count from x = -L, so each axis carries a phase exp(i k L)
    ph = np.exp(1j * k * g.L)
    uh = np.fft.fft2(u.values) * ph[:, None] * ph[None, :] / g.n**2
    ex = np.exp(1j * np.outer(offset[0] + scale * x, k))
    ey = np.exp(1j * np.outer(offset[1] + scale * x, k))
    return (ey @ uh @ ex.T).real


def shift_to_index(u: Field, iy: int, ix: int) -> Field:
    """Circular shift moving sample (iy, ix) to the grid origin index."""
    i0 = u.grid.n // 2
    vals = np.roll(u.values, (i0 - iy, i0 - ix), axis=(0, 1))
    return Field(u.grid, vals)


def write_gpf(path, u: Field) -> None:
    """Write a field in the GPF1 binary format (bit-exact round trip)."""
    with open(path, "wb") as f:
        f.write(GPF1_MAGIC)
        f.write(struct.pack("<I", u.grid.n))
        f.write(struct.pack("<d", u.grid.L))
        f.write(u.values.astype("<f8", copy=False).tobytes(order="C"))


def read_gpf(path) -> Field:
    """Read a GPF1 field file."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != GPF1_MAGIC:
            raise FileFormatError(f"bad magic in {path!r}")
        raw = f.read(12)
        if len(raw) != 12:
            raise FileFormatError(f"truncated header in {path!r}")
        n = struct.unpack("<I", raw[:4])[0]
        L = struct.unpack("<d", raw[4:])[0]
        data = f.read(8 * n * n)
        if len(data) != 8 * n * n:
            raise FileFormatError(f"truncated payload in {path!r}")
        vals = np.frombuffer(data, dtype="<f8").reshape(n, n)
    return Field(make_grid(L, n), vals.copy())
