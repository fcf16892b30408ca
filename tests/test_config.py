import pytest

from gp2d.config import parse_config_text
from gp2d.errors import ConfigError
from gp2d.grid import make_grid
from gp2d.potentials import PowerWell, Zero

GOOD = """\
# harmonic well sweep
potential = power_well h0=1 p=2 rcut=8
L = 16
n = 512
a_schedule = geom:0.05,0.65,7
tol = 3e-6
max_iters = 40000
out_dir = report
"""


def test_parse_good():
    cfg = parse_config_text(GOOD)
    assert cfg.potential == PowerWell(h0=1.0, p=2.0, rcut=8.0)
    assert cfg.grid == make_grid(16.0, 512)
    assert cfg.opts.tol_residual == 3e-6 and cfg.opts.max_iters == 40000


def test_geometric_schedule():
    cfg = parse_config_text(GOOD)
    sched = cfg.schedule(10.0)
    assert len(sched) == 7
    assert sched[0] == pytest.approx(10.0 * 0.95)
    assert sched[1] == pytest.approx(10.0 * (1.0 - 0.05 * 0.65))
    assert all(b > a for a, b in zip(sched, sched[1:]))


def test_explicit_schedule():
    cfg = parse_config_text("potential = zero\nL = 8\nn = 32\na_schedule = 1.0, 2.0, 3.5\n")
    assert cfg.schedule(99.0) == [1.0, 2.0, 3.5]


@pytest.mark.parametrize(
    "text",
    [
        "potential = zero\nL = 8\nn = 32\n",  # missing a_schedule
        "potential = zero\nL = 8\nn = 32\na_schedule = 1\nbogus = 1\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = geom:2,0.5,3\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = one,two\n",
        "potential = zero\nL = 8\nn = 33\na_schedule = 1\n",
        "potential = zero\nL = nan\nn = 32\na_schedule = 1\n",
        "potential = zero\nL = inf\nn = 32\na_schedule = 1\n",
        "potential = zero\nL = 0\nn = 32\na_schedule = 1\n",
        "potential = zero\nL = 8\nn = 8\na_schedule = 1\n",
        "potential = zero c=5\nL = 8\nn = 32\na_schedule = 1\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = 1\ntol = nan\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = 1\nL = 9\n",  # duplicate
        "potential zero\nL = 8\nn = 32\na_schedule = 1\n",  # no equals
        "potential = zero\nL = 8\nn = 32\na_schedule = 1\nbox_check = maybe\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = 2.0, 1.0\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = 1.0, 1.0\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = 1.0, nan\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = ,\n",
        "potential = zero\nL = 8\nn = 32\na_schedule = geom:0.05,0.65\n",
        "potential = zero\nL = 1e300\nn = 32\na_schedule = 1\n",  # (2L)^2 overflows
        # its last coupling lies within the criticality margin of any a*
        "potential = zero\nL = 8\nn = 32\na_schedule = geom:0.05,0.5,1000000\n",
    ],
)
def test_parse_rejects(text):
    # every rule, the schedule's included, is checked at parse time
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_comments_and_blank_lines():
    cfg = parse_config_text("\n# hi\npotential = zero  # inline\nL = 8\nn = 32\na_schedule = 1\n")
    assert cfg.potential == Zero()
