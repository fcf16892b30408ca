"""Ground energy of -Lap + V on the truncated domain and the spectral-gap check.

The ground energy is the infimum of the quadratic form over unit-mass fields,
computed with the a=0 projected gradient flow (one code path with the
interacting minimizer).  The gap condition requires this infimum to exceed
the essential infimum of V strictly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonConvergence
from .grid import Field, Grid2D
from .minimizer import MinimizerOptions, minimize

GROUND_MAX_ITERS = 50000  # iteration budget of the a=0 flow


@dataclass(frozen=True)
class SpectrumReport:
    lambda0: float
    residual: float
    ess_inf_V: float
    v1_margin: float
    passes_v1: bool
    tol: float


def ground_energy(V: Field, grid: Grid2D, tol: float = 1e-8):
    """Lowest eigenpair of -Lap + V by the a=0 gradient flow.

    Returns (lambda0, eigvec, residual) with residual the L2 norm of
    (-Lap + V - lambda0) applied to the eigvec.
    """
    opts = MinimizerOptions(tol_residual=tol, max_iters=GROUND_MAX_ITERS)
    res = minimize(V, 0.0, grid, opts)
    if not res.converged and res.residual > 100.0 * tol:
        raise NonConvergence(
            f"ground-state flow residual {res.residual} above {100.0 * tol}"
        )
    # at a = 0 the flow's multiplier mu is the Rayleigh quotient of its iterate
    return res.mu, res.u, res.residual


def check_v1(V: Field, grid: Grid2D, ess_inf_V: float, tol: float = 1e-6) -> SpectrumReport:
    """Spectral-gap report: passes iff lambda0 - ess inf V > tol.

    ess_inf_V is the essential infimum of V, e.g. from
    potentials.ess_inf_estimate; the grid minimum of V would only bound it
    from above.
    """
    lam, _, residual = ground_energy(V, grid, tol=min(tol, 1e-8))
    margin = lam - ess_inf_V
    return SpectrumReport(
        lambda0=lam,
        residual=residual,
        ess_inf_V=float(ess_inf_V),
        v1_margin=float(margin),
        passes_v1=bool(margin > tol),
        tol=float(tol),
    )
