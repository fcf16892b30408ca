import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp2d.errors import FileFormatError, InvalidGrid, OddSampleCount
from gp2d.grid import (
    Field,
    convolve_potential,
    inner,
    kinetic,
    laplacian_apply,
    make_grid,
    mass,
    normalize,
    read_gpf,
    resample_affine,
    write_gpf,
)
from helpers import random_smooth_field


def test_grid_validation():
    with pytest.raises(OddSampleCount):
        make_grid(8.0, 33)
    with pytest.raises(InvalidGrid):
        make_grid(-1.0, 32)
    with pytest.raises(InvalidGrid):
        make_grid(8.0, 8)
    for L in (np.inf, np.nan):
        with pytest.raises(InvalidGrid):
            make_grid(L, 32)


def test_coordinates_and_weight():
    g = make_grid(8.0, 32)
    assert g.dx == 0.5
    assert g.x[0] == -8.0
    assert g.x[-1] == pytest.approx(8.0 - g.dx)
    assert g.weight == pytest.approx(g.dx**2)


def test_field_shape_and_finiteness():
    g = make_grid(8.0, 32)
    with pytest.raises(ValueError):
        Field(g, np.zeros((16, 16)))
    bad = np.zeros((32, 32))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        Field(g, bad)


def test_kinetic_plane_wave():
    # u = sin(k1 x) cos(k2 y) has kinetic (k1^2 + k2^2) * mass exactly
    g = make_grid(8.0, 64)
    k1 = 2.0 * np.pi / g.L
    k2 = 3.0 * np.pi / g.L
    X, Y = np.meshgrid(g.x, g.x)
    u = Field(g, np.sin(k1 * X) * np.cos(k2 * Y))
    assert kinetic(u) == pytest.approx((k1**2 + k2**2) * mass(u), rel=1e-12)


def test_laplacian_eigenfunction():
    g = make_grid(8.0, 64)
    k1 = 2.0 * np.pi / g.L
    X, _ = np.meshgrid(g.x, g.x)
    u = Field(g, np.cos(k1 * X))
    lap = laplacian_apply(u)
    assert np.allclose(lap.values, -(k1**2) * u.values, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_laplacian_self_adjoint(seed):
    g = make_grid(8.0, 32)
    rng = np.random.default_rng(seed)
    u = random_smooth_field(g, rng, width=2.0)
    v = random_smooth_field(g, rng, width=2.0)
    assert inner(laplacian_apply(u), v) == pytest.approx(
        inner(u, laplacian_apply(v)), rel=1e-9, abs=1e-12
    )


def test_normalize_and_mass(rng):
    g = make_grid(8.0, 32)
    u = random_smooth_field(g, rng)
    assert mass(u) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        normalize(Field(g, np.zeros((32, 32))))


def test_radius_min_image():
    g = make_grid(8.0, 32)
    rr = g.radius((7.5, 0.0))
    # the sample at x = -8 is only 0.5 away through the periodic seam
    assert rr[g.n // 2, 0] == pytest.approx(0.5)


def test_resample_identity(rng):
    g = make_grid(8.0, 64)
    u = random_smooth_field(g, rng, width=2.0)
    out = resample_affine(u, 1.0)
    assert np.max(np.abs(out - u.values)) < 1e-12


def test_resample_offset_matches_roll(rng):
    g = make_grid(8.0, 64)
    u = random_smooth_field(g, rng, width=2.0)
    shift = 4  # samples
    out = resample_affine(u, 1.0, offset=(shift * g.dx, 0.0))
    rolled = np.roll(u.values, -shift, axis=1)
    assert np.max(np.abs(out - rolled)) < 1e-10


def dense_resample_affine(u, scale, offset):
    """The interpolant at offset + scale*x as two dense 1D DFT matrix products."""
    g = u.grid
    k = g.k
    x = g.x
    # DFT indices count from x = -L, so each axis carries a phase exp(i k L)
    ph = np.exp(1j * k * g.L)
    uh = np.fft.fft2(u.values) * ph[:, None] * ph[None, :] / g.n**2
    ex = np.exp(1j * np.outer(offset[0] + scale * x, k))
    ey = np.exp(1j * np.outer(offset[1] + scale * x, k))
    return (ey @ uh @ ex.T).real


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(8.0, 64), (12.0, 192)]),
    st.floats(min_value=0.25, max_value=4.0),
    st.tuples(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0)),
)
def test_resample_matches_dense_interpolant(seed, box, scale, offset):
    g = make_grid(*box)
    u = random_smooth_field(g, np.random.default_rng(seed), width=2.0)
    expected = dense_resample_affine(u, scale, offset)
    assert np.max(np.abs(resample_affine(u, scale, offset) - expected)) < 1e-12


def test_convolution_constant():
    g = make_grid(8.0, 32)
    V = Field(g, np.full((32, 32), 3.0))
    dens = Field(g, np.exp(-g.radius() ** 2))
    conv = convolve_potential(V, dens)
    total = float(np.sum(dens.values) * g.weight)
    assert np.allclose(conv.values, 3.0 * total, rtol=1e-12)


def test_gpf_round_trip_bit_exact(tmp_path, rng):
    g = make_grid(8.0, 32)
    u = random_smooth_field(g, rng)
    path = tmp_path / "u.gpf"
    write_gpf(path, u)
    v = read_gpf(path)
    assert v.grid == g
    assert v.values.tobytes() == u.values.tobytes()


def test_gpf_bad_magic(tmp_path):
    path = tmp_path / "bad.gpf"
    path.write_bytes(b"NOPE0000" + b"\0" * 100)
    with pytest.raises(FileFormatError):
        read_gpf(path)


def test_gpf_truncated(tmp_path, rng):
    g = make_grid(8.0, 32)
    u = random_smooth_field(g, rng)
    path = tmp_path / "u.gpf"
    write_gpf(path, u)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(FileFormatError, match="payload"):
        read_gpf(path)
    path.write_bytes(data[:16])  # cut inside the 20-byte header
    with pytest.raises(FileFormatError, match="header"):
        read_gpf(path)


def test_gpf_overlong_payload_refused(tmp_path, rng):
    # a 32 x 32 payload behind a header that names n = 16
    u = random_smooth_field(make_grid(8.0, 32), rng)
    path = tmp_path / "u.gpf"
    write_gpf(path, u)
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", 16)
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="overlong payload"):
        read_gpf(path)
