"""Periodic square grid with Fourier-spectral calculus.

The plane is truncated to the box [-L, L)^2 with n samples per side and
periodic boundary conditions.  All derivatives are spectral; integration is
the periodic trapezoid rule (uniform weight dx^2), which is spectrally
accurate for smooth periodic integrands.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .errors import FileFormatError, InvalidGrid, OddSampleCount

GPF1_MAGIC = b"GPF1\0\0\0\0"
_CHIRP_BLOCK = 64  # rows per chirp-z block: a 64 x 1024 complex buffer at n = 512


@dataclass(frozen=True)
class Grid2D:
    """Immutable periodic grid on [-L, L)^2 with n samples per side."""

    L: float
    n: int
    dx: float = field(init=False)

    def __post_init__(self):
        if self.n % 2 != 0:
            raise OddSampleCount(f"sample count must be even, got {self.n}")
        if self.n < 16:
            raise InvalidGrid(f"sample count must be >= 16, got {self.n}")
        # in Python floats, which overflow without a warning; 2 pi^2 n^2/dx^4 bounds the
        # kinetic products k^2 |u^|^2 of a unit-mass field, and its squares are finite
        side = 2.0 * float(self.L)
        if not (side > 0 and all(0.0 < q * q < np.inf
                                 for q in (side / self.n, side, np.pi * self.n / side))
                and 2.0 * (np.pi * self.n / side) ** 2 * (self.n / side) ** 2 < np.inf):
            raise InvalidGrid(f"half-width must be positive with dx^2, (2L)^2 and (pi/dx)^2 "
                              f"finite and nonzero and 2 pi^2 n^2/dx^4 finite, got {self.L}")
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

    def radius(self, center=(0.0, 0.0)) -> np.ndarray:
        """Minimal-image distance from ``center`` at every sample."""
        x = self.x
        side = 2.0 * self.L
        dxv = (x - center[0] + self.L) % side - self.L
        dyv = (x - center[1] + self.L) % side - self.L
        return np.sqrt(dxv[None, :] ** 2 + dyv[:, None] ** 2)


def make_grid(L: float, n: int) -> Grid2D:
    return Grid2D(L=float(L), n=int(n))


def require_same_grid(a: Grid2D, b: Grid2D) -> None:
    """ValueError unless a == b: one grid's samples stand for other points on another."""
    if a != b:
        raise ValueError(f"fields on different grids: {a} and {b}")


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
    uh = fft.rfft2(u.values)
    out = fft.irfft2(-u.grid.k2r * uh, s=u.values.shape)
    return Field(u.grid, out)


def kinetic(u: Field) -> float:
    """Integral of |grad u|^2 via Parseval; nonnegative."""
    from .energy import Functional  # the functional kernel is built on this module

    return Functional(u.grid).kinetic(fft.rfft2(u.values))


def convolve_potential(V: Field, dens: Field) -> Field:
    """Periodic convolution (V * dens)(y) at the samples y = x_i, by DFT product."""
    require_same_grid(V.grid, dens.grid)
    # products in place and the spectrum dropped before the roll: on
    # check_v2's doubled box each full-size temporary is (2n)^2 doubles
    vh = fft.rfft2(V.values)
    vh *= fft.rfft2(dens.values)
    out = fft.irfft2(vh, s=V.values.shape)
    del vh
    out *= V.grid.weight
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

    The evaluation points form a tensor grid, so the interpolant is summed
    one axis at a time, each sum a chirp-z transform of the centred spectrum
    (Bluestein's algorithm): FFTs only, no dense n x n products.
    """
    g = u.grid
    spec = fft.fftshift(fft.fft2(u.values))
    spec /= g.n**2
    spec = _chirp_z_rows(spec, scale, offset[0], g.L)
    return _chirp_z_rows(spec.T, scale, offset[1], g.L).real.T


def _chirp_z_rows(c: np.ndarray, scale: float, offset: float, L: float) -> np.ndarray:
    """f[:, p] = sum_m c[:, m + n/2] exp(i k_m (L + offset + scale x_p)), m = -n/2 .. n/2-1.

    The phase exp(i k_m L) = (-1)^m puts DFT index 0 at x = -L.  With
    x_p = j dx, j = p - n/2, the rest is exp(i k_m offset) times
    exp(2 pi i scale m j / n), and 2 m j = m^2 + j^2 - (j - m)^2 turns the
    sum into a linear convolution with a chirp, taken by FFTs of length
    >= 2n - 1.  Rows go in blocks so that the padded buffers stay small.
    """
    n = c.shape[1]
    size = fft.next_fast_len(2 * n - 1)
    m = np.arange(n) - n // 2
    half_beta = np.pi * scale / n
    chirp = np.exp(1j * half_beta * (m * m))
    pre = np.exp(1j * (np.pi * m) * (1.0 + offset / L)) * chirp
    lags = np.arange(size)
    lags = np.where(lags < n, lags, lags - size)  # outputs 0..n-1 read only |lag| < n
    kernel = fft.fft(np.exp(-1j * half_beta * (lags * lags)))
    out = np.empty(c.shape, dtype=complex)
    for start in range(0, c.shape[0], _CHIRP_BLOCK):
        rows = slice(start, start + _CHIRP_BLOCK)
        buf = fft.fft(c[rows] * pre, size, axis=1)
        buf *= kernel
        buf = fft.ifft(buf, axis=1, overwrite_x=True)
        np.multiply(buf[:, :n], chirp, out=out[rows])
    return out


def write_gpf(path, u: Field) -> None:
    """Write a field in the GPF1 binary format (bit-exact round trip)."""
    with open(path, "wb") as f:
        f.write(GPF1_MAGIC)
        f.write(struct.pack("<I", u.grid.n))
        f.write(struct.pack("<d", u.grid.L))
        f.write(u.values.astype("<f8", copy=False).tobytes(order="C"))


def read_gpf(path) -> Field:
    """Read a GPF1 field file; the header's grid and the exact file size are checked first."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != GPF1_MAGIC:
            raise FileFormatError(f"bad magic in {path!r}")
        raw = f.read(12)
        if len(raw) != 12:
            raise FileFormatError(f"truncated header in {path!r}")
        n, L = struct.unpack("<Id", raw)
        grid = make_grid(L, n)
        size, expected = os.fstat(f.fileno()).st_size - f.tell(), 8 * n * n
        if size != expected:
            kind = "truncated" if size < expected else "overlong"
            raise FileFormatError(
                f"{kind} payload in {path!r}: {size} bytes, the header's n = {n} needs {expected}"
            )
        vals = np.frombuffer(f.read(expected), dtype="<f8").reshape(n, n)
    return Field(grid, vals.copy())
