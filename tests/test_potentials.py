import numpy as np
import pytest

from gp2d.errors import ConfigError, FileFormatError
from gp2d.grid import Field, make_grid, normalize, write_gpf
from gp2d.potentials import (
    Constant,
    FilePotential,
    Lattice,
    PowerWell,
    Sinc,
    Zero,
    check_v2,
    ess_inf_estimate,
    parse_potential,
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
    assert ess_inf_estimate(spec) == pytest.approx(-1.0)


def test_sinc_shape(grid16):
    V = realize(Sinc(), grid16)
    origin = np.unravel_index(np.argmin(grid16.radius()), V.values.shape)
    assert V.values[origin] == pytest.approx(1.0)
    assert V.values.min() >= Sinc().ess_inf() - 1e-9


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
    with pytest.raises(FileFormatError):
        realize(spec, make_grid(grid_small.L, 2 * grid_small.n))


def test_ess_inf_analytic():
    assert ess_inf_estimate(Zero()) == 0.0
    assert ess_inf_estimate(Constant(c=-3.0)) == -3.0
    assert ess_inf_estimate(PowerWell()) == 0.0
    assert ess_inf_estimate(Sinc()) == Sinc().ess_inf()


def gaussian(grid, center=(0.0, 0.0), width=1.0):
    rr = grid.radius(center)
    return normalize(Field(grid, np.exp(-(rr**2) / (2.0 * width**2))))


def test_check_v2_lattice_interior(grid16):
    spec = Lattice(s=0.5, period=8.0)
    u = gaussian(grid16)
    report = check_v2(spec, u, eps=0.01, grid=grid16)
    assert report.attained_interior
    assert not report.degenerate_flat
    assert report.condition_met == (report.margin < 0.0)
    # a concentrated carrier keeps the smoothing penalty below a generous eps
    tight = check_v2(spec, gaussian(grid16, width=0.3), eps=0.05, grid=grid16)
    assert tight.condition_met


def test_check_v2_shift_equivariance(grid16):
    spec = Lattice(s=0.5, period=8.0)
    shift = 2.0
    r0 = check_v2(spec, gaussian(grid16), eps=0.01, grid=grid16)
    r1 = check_v2(spec, gaussian(grid16, center=(shift, 0.0)), eps=0.01, grid=grid16)
    assert r1.conv_min_value == pytest.approx(r0.conv_min_value, rel=1e-9)
    dx_loc = (r1.conv_min_location[0] - r0.conv_min_location[0]) % spec.period
    assert min(dx_loc, spec.period - dx_loc) == pytest.approx(shift % spec.period, abs=0.05)
    # a lattice period that divides the box hides a misplaced minimum; a
    # single well pins the absolute location under the carrier's center
    well = PowerWell(h0=1.0, p=2.0, rcut=8.0)
    g = make_grid(16.0, 128)
    for center in ((0.0, 0.0), (shift, 0.0)):
        rep = check_v2(well, gaussian(g, center=center), eps=0.01, grid=g)
        assert rep.conv_min_location == pytest.approx(center, abs=0.05)
        assert rep.attained_interior


def test_check_v2_constant_degenerate(grid_small):
    spec = Constant(c=1.0)
    report = check_v2(spec, gaussian(grid_small), eps=0.01, grid=grid_small)
    assert report.degenerate_flat
    assert not report.attained_interior


def test_check_v2_requires_unit_mass(grid_small):
    spec = Zero()
    u = Field(grid_small, np.full((grid_small.n, grid_small.n), 0.3))
    with pytest.raises(ValueError):
        check_v2(spec, u, eps=0.01, grid=grid_small)
