#!/usr/bin/env python3
"""Near-critical sweep in the truncated harmonic well and the scaling-law fit.

Writes report to blowup_harmonic/ and, when every entry converges, prints the
fitted exponent against the predicted 1/(p+2) = 1/4.  At n=512 the sweep makes
5524 minimizer iterations, [892, 751, 605, 724, 861, 786, 905], every entry
converges, and the whole run took 90-145 s on a 2-core x86-64 box (Python
3.11, numpy 2.4, scipy 1.17).  One progress line per entry goes to stderr.
The fit reads exponent 0.2566 and prefactor 0.5279 (predicted 0.5179).
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from gp2d.cli import run

CONFIG = """\
potential = power_well h0=1 p=2 rcut=8
L = 16
n = 512
a_schedule = geom:0.05,0.65,7
tol = 3e-6
max_iters = 40000
out_dir = blowup_harmonic
"""


def main():
    out_dir = pathlib.Path("blowup_harmonic")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "sweep.cfg"
        cfg.write_text(CONFIG)
        prof = pathlib.Path(tmp) / "profile.json"
        with contextlib.redirect_stdout(io.StringIO()):  # gp soliton's "wrote ..." line
            code = run(["soliton", "--out", str(prof)])
        if code == 0:
            code = run(["blowup", "--config", str(cfg), "--profile", str(prof)])
    if code != 0:
        return code
    fit = json.loads((out_dir / "fit.json").read_text())
    print(f"fitted exponent    {fit['exponent']:.4f}  (predicted {fit['predicted_exponent']:.4f})")
    print(f"fitted prefactor   {fit['prefactor']:.4f}  (predicted {fit['predicted_prefactor']:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
