import tracemalloc

import numpy as np
import pytest

from gp2d.errors import ConfigError, UnnormalizedInput
from gp2d.grid import Field, make_grid, write_gpf
from gp2d.minimizer import gaussian_init
from gp2d.potentials import (
    Constant,
    FilePotential,
    Lattice,
    PowerWell,
    Sinc,
    Zero,
    check_v2,
    parse_potential,
    period_cell,
    realize,
)


def test_parse_grammar():
    assert parse_potential("sinc") == Sinc()
    pw = parse_potential("power_well h0=1 p=2 rcut=8")
    assert (pw.h0, pw.p, pw.rcut) == (1.0, 2.0, 8.0)
    lat = parse_potential("lattice s=0.5 period=1")
    assert (lat.s, lat.period) == (0.5, 1.0)
    assert parse_potential("file:path.gpf") == FilePotential("path.gpf")
    const = parse_potential("constant c=2.5")
    assert const.c == 2.5
    # omitted parameters take the kind's defaults
    assert parse_potential("power_well p=1") == PowerWell(h0=1.0, p=1.0, rcut=8.0)
    assert parse_potential("zero") == Zero() and parse_potential("constant") == Constant(0.0)


def test_trap_law_only_for_the_power_well():
    assert parse_potential("power_well h0=0.5 p=3").trap == (3.0, 0.5)
    for text in ("zero", "constant c=1", "lattice", "sinc", "file:v.gpf"):
        assert parse_potential(text).trap is None


def test_period_only_for_the_lattice():
    assert parse_potential("lattice s=2 period=8").period == 8.0
    for text in ("zero", "constant c=1", "power_well", "sinc", "file:v.gpf"):
        assert parse_potential(text).period is None


@pytest.mark.parametrize("period, L, n, cell_L, cell_n", [
    (3.0, 16.0, 256, 16.0, 256),  # 32/3 periods do not tile the box: the whole box
    (1.0, 16.0, 256, 1.0, 16),  # 32 cells of 8 samples: 16 tiles of 16
    (4.0, 16.0, 200, 4.0, 50),  # 8 cells of 25 samples, an odd count: 4 tiles of 50
    (4.0, 16.0, 96, 4.0, 24),  # 8 cells of 12 samples, fewer than 16: 4 tiles of 24
    (8.0, 16.0, 256, 4.0, 64),
    # 6 or 3 tiles would round the spacing 0.0055000000000000005 to 0.0055: 2 tiles
    (0.11, 0.33, 120, 0.165, 60),
    (40.0, 16.0, 256, 16.0, 256),  # a period longer than the box: the whole box
])
def test_period_cell_tiles_the_box(period, L, n, cell_L, cell_n):
    spec = Lattice(s=0.5, period=period)
    g = make_grid(L, n)
    cell = period_cell(spec, g)
    assert (cell.L, cell.n, cell.dx) == (cell_L, cell_n, g.dx)
    # the cell is the box's middle tile, and V on the box repeats it m times per axis
    m, middle = n // cell_n, (n - cell_n) // 2
    tiled = np.roll(np.tile(realize(spec, cell).values, (m, m)), middle, axis=(0, 1))
    np.testing.assert_allclose(realize(spec, g).values, tiled, rtol=0, atol=1e-14)


def test_period_cell_keeps_the_box_of_other_kinds(grid16):
    for spec in (Zero(), Constant(c=1.0), PowerWell(), Sinc()):
        assert period_cell(spec, grid16) is grid16


@pytest.mark.parametrize(
    "text",
    [
        "",
        "mystery",
        "sinc h0=1",
        "power_well h0=oops",
        "power_well bogus=1",
        "lattice h0=1",
        "power_well h0=-1",
        "lattice s=0.5 period=0",
        "zero c=5",
        "constant h0=2",
        "power_well amplitude=3",
        "power_well h0=inf",
        "power_well rcut=inf",
        "constant c=nan",
        "lattice period=inf",
        "power_well h0=1 h0=2",
        "file:",
        "power_well h0",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ConfigError):
        parse_potential(text)


def test_power_well_truncation(grid16):
    spec = PowerWell(h0=2.0, p=2.0, rcut=4.0)
    V = realize(spec, grid16)
    rr = grid16.radius()
    far = rr > 4.5
    assert np.allclose(V.values[far], 2.0 * 16.0)
    assert V.values.min() == pytest.approx(0.0, abs=1e-12)


def test_lattice_range(grid16):
    spec = Lattice(s=0.5, period=4.0)
    V = realize(spec, grid16)
    assert V.values.min() == pytest.approx(-1.0)
    assert V.values.max() == pytest.approx(1.0)
    assert spec.ess_inf() == pytest.approx(-1.0)


def test_sinc_shape(grid16):
    V = realize(Sinc(), grid16)
    origin = np.unravel_index(np.argmin(grid16.radius()), V.values.shape)
    assert V.values[origin] == pytest.approx(1.0)
    assert V.values.min() >= Sinc().ess_inf() - 1e-9


def test_sinc_sample_matches_the_masked_quotient(grid16):
    rr = grid16.radius()
    nz = rr > 0
    expected = np.ones_like(rr)
    expected[nz] = np.sin(rr[nz]) / rr[nz]
    assert np.array_equal(realize(Sinc(), grid16).values, expected)


def test_sinc_min_value():
    # independent check on a fine radial mesh
    r = np.linspace(1e-6, 20.0, 2_000_001)
    direct = float(np.min(np.sin(r) / r))
    assert Sinc().ess_inf() == pytest.approx(direct, abs=1e-9)
    assert Sinc().ess_inf() == pytest.approx(-0.2172336, abs=1e-6)


def test_file_potential_round_trip(tmp_path, grid_small):
    rr = grid_small.radius()
    V = Field(grid_small, np.cos(rr))
    path = tmp_path / "v.gpf"
    write_gpf(path, V)
    spec = parse_potential(f"file:{path}")
    V2 = realize(spec, grid_small)
    assert np.array_equal(V.values, V2.values)
    with pytest.raises(ValueError, match="different grids"):
        realize(spec, make_grid(grid_small.L, 2 * grid_small.n))


def test_ess_inf_analytic():
    assert Zero().ess_inf() == 0.0
    assert Constant(c=-3.0).ess_inf() == -3.0
    assert PowerWell().ess_inf() == 0.0


def test_check_v2_lattice_interior(grid16):
    spec = Lattice(s=0.5, period=8.0)
    u = gaussian_init(grid16)
    report = check_v2(spec, u, eps=0.01, grid=grid16)
    assert report.attained_interior
    assert not report.degenerate_flat
    assert report.condition_met == (report.margin < 0.0)
    # a concentrated carrier keeps the smoothing penalty below a generous eps
    tight = check_v2(spec, gaussian_init(grid16, width=0.3), eps=0.05, grid=grid16)
    assert tight.condition_met


def test_check_v2_shift_equivariance(grid16):
    spec = Lattice(s=0.5, period=8.0)
    shift = 2.0
    r0 = check_v2(spec, gaussian_init(grid16), eps=0.01, grid=grid16)
    r1 = check_v2(spec, gaussian_init(grid16, center=(shift, 0.0)), eps=0.01, grid=grid16)
    assert r1.conv_min_value == pytest.approx(r0.conv_min_value, rel=1e-9)
    dx_loc = (r1.conv_min_location[0] - r0.conv_min_location[0]) % spec.period
    assert min(dx_loc, spec.period - dx_loc) == pytest.approx(shift % spec.period, abs=0.05)
    # a lattice period that divides the box hides a misplaced minimum; a
    # single well pins the absolute location under the carrier's center
    well = PowerWell(h0=1.0, p=2.0, rcut=8.0)
    g = make_grid(16.0, 128)
    for center in ((0.0, 0.0), (shift, 0.0)):
        rep = check_v2(well, gaussian_init(g, center=center), eps=0.01, grid=g)
        assert rep.conv_min_location == pytest.approx(center, abs=0.05)
        assert rep.attained_interior


def test_check_v2_constant_degenerate(grid_small):
    spec = Constant(c=1.0)
    report = check_v2(spec, gaussian_init(grid_small), eps=0.01, grid=grid_small)
    assert report.degenerate_flat
    assert not report.attained_interior


def test_check_v2_requires_unit_mass(grid_small):
    spec = Zero()
    u = Field(grid_small, np.full((grid_small.n, grid_small.n), 0.3))
    with pytest.raises(UnnormalizedInput):
        check_v2(spec, u, eps=0.01, grid=grid_small)
    # the same unit-mass check as energy(): |mass - 1| > MASS_TOL = 1e-8
    u = Field(grid_small, gaussian_init(grid_small).values * np.sqrt(1.0 + 1e-7))
    with pytest.raises(UnnormalizedInput, match="unit-mass"):
        check_v2(spec, u, eps=0.01, grid=grid_small)


@pytest.mark.parametrize("spec", [Sinc(), Lattice(s=1.0, period=4.0)])
def test_check_v2_peak_memory_on_the_doubled_box(grid_small, spec):
    # the doubling test convolves on a 2n x 2n box: V, the embedded density,
    # one spectrum and the inverse transform are live at its peak, with the
    # second spectrum, the roll or the inverse's own work space
    u = gaussian_init(grid_small)
    tracemalloc.start()
    try:
        check_v2(spec, u, eps=0.01, grid=grid_small)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    doubled_box = 8 * (2 * grid_small.n) ** 2
    assert peak / doubled_box <= 5.5
