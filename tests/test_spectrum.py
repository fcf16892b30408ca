import numpy as np
import pytest
from scipy.linalg import dft, eigh

from gp2d.grid import Field, make_grid
from gp2d.minimizer import MinimizerOptions, minimize
from gp2d.potentials import Constant, Lattice, PowerWell, realize
from gp2d.spectrum import check_v1, ground_energy


def dense_1d_ground_energy(L, n, v1d):
    """Oracle: lowest eigenvalue of the 1D spectral operator -d2/dx2 + v."""
    g = make_grid(L, n)
    F = dft(n) / np.sqrt(n)
    K = (F.conj().T @ np.diag(g.k**2) @ F).real
    return float(eigh(K + np.diag(v1d), eigvals_only=True)[0])


def test_free_ground_energy(grid_small):
    V = Field(grid_small, np.zeros((grid_small.n, grid_small.n)))
    lam, u, residual = ground_energy(V, grid_small, tol=1e-8)
    assert abs(lam) < 1e-6
    assert residual < 1e-6


def test_constant_shift(grid_small):
    V = Field(grid_small, np.full((grid_small.n, grid_small.n), 0.7))
    lam, _, _ = ground_energy(V, grid_small, tol=1e-8)
    assert lam == pytest.approx(0.7, abs=1e-6)


def test_truncated_harmonic_against_dense_oracle(grid16):
    spec = PowerWell(h0=1.0, p=2.0, rcut=8.0)
    V = realize(spec, grid16)
    lam, _, _ = ground_energy(V, grid16, tol=1e-8)
    # the 2D well separates up to corner corrections of order exp(-rcut^2)
    v1d = np.minimum(np.abs(grid16.x), spec.rcut) ** 2
    oracle = 2.0 * dense_1d_ground_energy(grid16.L, grid16.n, v1d)
    assert lam == pytest.approx(oracle, abs=1e-6)
    assert lam == pytest.approx(2.0 * np.sqrt(spec.h0), abs=1e-3)


@pytest.mark.parametrize("spec, L, n, budget, within", [
    (Lattice(s=1.0, period=4.0), 4.0, 16, 2000, 500),
    (Constant(c=5.0), 16.0, 32, 5000, 1000),
])
def test_flow_stops_at_its_rounding_floor(spec, L, n, budget, within):
    # tol 1e-8 lies below these flows' floor; each step there passes Armijo
    # only by rounding after 20 or more halvings, and two in a row end the run
    g = make_grid(L, n)
    V = realize(spec, g)
    res = minimize(V, 0.0, g, MinimizerOptions(tol_residual=1e-8, max_iters=budget))
    assert res.iters < within
    assert res.residual <= 100.0 * 1e-8
    if isinstance(spec, Lattice):  # separable: twice the 1D ground energy
        v1d = spec.s * np.cos(2.0 * np.pi * g.x / spec.period)
        oracle = 2.0 * dense_1d_ground_energy(L, n, v1d)
    else:
        oracle = spec.c
    assert res.mu == pytest.approx(oracle, abs=1e-12)


def test_check_v1_passes_for_well(grid16):
    spec = PowerWell(h0=1.0, p=2.0, rcut=8.0)
    V = realize(spec, grid16)
    report = check_v1(V, grid16, ess_inf_V=spec.ess_inf())
    assert report.passes_v1
    assert report.v1_margin == pytest.approx(2.0, abs=1e-3)


def test_check_v1_fails_for_free(grid_small):
    V = Field(grid_small, np.zeros((grid_small.n, grid_small.n)))
    report = check_v1(V, grid_small, ess_inf_V=0.0)
    assert not report.passes_v1
    assert abs(report.v1_margin) < 1e-6
