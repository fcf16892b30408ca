#!/usr/bin/env python3
"""Energy-limit sweep for the sinc potential: E_a should fall toward ess inf V.

The infimum over unit-mass states tends to the essential infimum of the
potential as the coupling approaches critical; this prints the shrinking gap.
"""

import sys

from gp2d.grid import make_grid
from gp2d.minimizer import MinimizerOptions, continuation_sweep
from gp2d.potentials import Sinc, realize
from gp2d.soliton import critical_coupling, solve_townes

FRACTIONS = (0.9, 0.95, 0.975, 0.9875)


def main():
    profile = solve_townes(tol=1e-12)
    a_star = critical_coupling(profile)
    grid = make_grid(16.0, 256)
    spec = Sinc()
    V = realize(spec, grid)
    ess = spec.ess_inf()
    opts = MinimizerOptions(tol_residual=3e-6, max_iters=40000)
    results = continuation_sweep(
        V, [f * a_star for f in FRACTIONS], grid, opts, a_star=a_star
    )
    print(f"ess inf V = {ess:.6f}")
    for res in results:
        gap = res.E - ess
        print(
            f"a/a* = {res.coupling / a_star:.4f}  E = {res.E: .6f}  "
            f"gap = {gap:.6f}  eps = {res.eps:.3f}  converged = {res.converged}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
