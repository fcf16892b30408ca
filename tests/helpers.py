"""Shared test utilities."""

import numpy as np

from gp2d.grid import Field, Grid2D, normalize


def random_smooth_field(grid: Grid2D, rng: np.random.Generator, width: float = 1.5) -> Field:
    """Band-limited noise under a Gaussian envelope, normalized to unit mass.

    The envelope keeps the field localized well inside the box so periodic
    wrap-around does not contaminate functional inequalities stated on the
    plane.
    """
    n = grid.n
    noise = rng.standard_normal((n, n))
    kcut = 6.0 * np.pi / grid.L
    k = grid.k
    mask = k[:, None] ** 2 + k[None, :] ** 2 <= kcut**2
    smooth = np.fft.ifft2(np.fft.fft2(noise) * mask).real
    rr = grid.radius()
    vals = smooth * np.exp(-(rr**2) / (2.0 * width**2))
    # guard against the (measure-zero) degenerate draw
    if np.max(np.abs(vals)) < 1e-12:
        vals = np.exp(-(rr**2) / (2.0 * width**2))
    return normalize(Field(grid, vals))


def random_localized_potential(grid: Grid2D, rng: np.random.Generator) -> Field:
    """Smooth bounded potential for gradient checks."""
    f = random_smooth_field(grid, rng, width=3.0)
    vals = f.values / max(np.max(np.abs(f.values)), 1e-30)
    return Field(grid, 2.0 * vals)
