import csv
import json
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

import gp2d.cli as cli
import gp2d.minimizer as minimizer
import gp2d.soliton as soliton
from gp2d.cli import run
from gp2d.energy import energy
from gp2d.errors import GPError
from gp2d.grid import GPF1_MAGIC, Field, l2_norm, make_grid, read_gpf, write_gpf
from gp2d.minimizer import gaussian_init
from gp2d.potentials import PowerWell, realize
from gp2d.soliton import lift_to_grid, profile_from_dict

FAST_CFG = """\
potential = sinc
L = 12
n = 128
a_schedule = geom:0.2,0.5,2
tol = 1e-6
out_dir = {out}
"""


def test_soliton_smoke(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run(["soliton", "--tol", "1e-8", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["a_star"] == pytest.approx(11.7009, abs=1e-3)
    assert abs(data["mass"] - data["kinetic"]) / data["mass"] < 1e-6
    assert abs(data["mass"] - data["quartic"] / 2.0) / data["mass"] < 1e-6


def test_soliton_json_byte_identical(tmp_path):
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    assert run(["soliton", "--out", str(first)]) == 0
    assert run(["soliton", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_gp_error_has_an_exit_code():
    # GPError itself has none, so a subclass outside the two bases fails here
    classes = list(_subclasses(GPError))
    assert len(classes) > 2
    for cls in classes:
        assert getattr(cls, "exit_code", None) in (2, 3), cls.__name__


@pytest.mark.parametrize(
    "argv",
    [
        ["minimize", "--potential", "zero", "--a", "5", "--L", "8", "--n", "33"],
        ["check-v1", "--potential", "sinc", "--L", "8", "--n", "31"],
    ],
)
def test_odd_sample_count_exits_2(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "even" in err and len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, config",
    [
        (["minimize", "--potential", "zero c=5", "--a", "1", "--L", "8", "--n", "16"], None),
        (["check-v1", "--potential", "constant h0=2", "--L", "8", "--n", "16"], None),
        (["check-v1", "--potential", "sinc", "--L", "inf", "--n", "32"], None),
        (["check-v2", "--potential", "sinc", "--L", "nan", "--n", "32"], None),
        (["minimize", "--potential", "zero", "--a", "1", "--L", "8", "--n", "16",
          "--tol", "nan", "--max-iters", "50"], None),
        (["minimize", "--potential", "zero", "--a", "nan", "--L", "8", "--n", "16",
          "--max-iters", "50"], None),
        (["sweep"], "potential = zero\nL = nan\nn = 16\na_schedule = 1\n"),
        (["sweep"], "potential = zero\nL = 8\nn = 16\na_schedule = nan\nmax_iters = 50\n"),
        (["check-v1", "--potential", "sinc", "--L", "8", "--n", "32", "--tol", "inf"], None),
        # (2L)^2 overflows; dx^2 and (pi/dx)^2 under- and overflow
        (["check-v1", "--potential", "sinc", "--L", "1e300", "--n", "32"], None),
        (["check-v2", "--potential", "sinc", "--L", "1e-300", "--n", "32"], None),
        # 2 pi^2 n^2/dx^4, the bound on the kinetic products k^2 |u^|^2, overflows
        (["check-v1", "--potential", "sinc", "--L", "1e-150", "--n", "32"], None),
        (["check-v1", "--potential", "sinc", "--L", "1e-100", "--n", "32"], None),
        # samples of the potential overflow
        (["check-v1", "--potential", "power_well h0=1e308 p=4", "--L", "16", "--n", "32"], None),
        (["check-v2", "--potential", "lattice s=1e308", "--L", "16", "--n", "32"], None),
    ],
)
def test_non_finite_and_foreign_inputs_exit_2(argv, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + f"out_dir = {tmp_path / 'rep'}\n")
        argv = argv + ["--config", str(cfg)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["soliton", "--tol", "1e-3", "--out", "{tmp}/p.json"],
        ["soliton", "--tol", "1e-16", "--out", "{tmp}/p.json"],
        ["energy", "--field", "{tmp}/u64.gpf", "--potential", "{tmp}/v32.gpf", "--a", "1"],
        ["check-v2", "--potential", "sinc", "--L", "8", "--n", "64", "--field", "{tmp}/u32.gpf"],
        # a tol the Pohozaev gate cannot meet is refused before the solve
        ["soliton", "--tol", "1e-6", "--out", "{tmp}/p.json"],
        ["energy", "--field", "{tmp}/u32.gpf", "--potential", "{tmp}/v32.gpf", "--a", "nan"],
        ["energy", "--field", "{tmp}/u32.gpf", "--potential", "{tmp}/v32.gpf", "--a", "inf"],
    ],
)
def test_refused_subcommand_inputs_exit_2(argv, tmp_path, capsys):
    g32, g64 = make_grid(8.0, 32), make_grid(8.0, 64)
    write_gpf(tmp_path / "u32.gpf", gaussian_init(g32))
    write_gpf(tmp_path / "v32.gpf", Field(g32, np.cos(g32.radius())))
    write_gpf(tmp_path / "u64.gpf", gaussian_init(g64))
    assert run([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "p.json").exists()
    if "--tol" in argv:
        assert "[1e-14, 1e-8]" in captured.err


def test_missing_config_exits_2(tmp_path):
    assert run(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("potential = sinc\nL = 8\nn = 32\na_schedule = 1.0\nwat = 7\n")
    assert run(["sweep", "--config", str(cfg)]) == 2


def test_malformed_potential_exits_2(tmp_path):
    assert run(["check-v1", "--potential", "mystery", "--L", "8", "--n", "32"]) == 2


def test_bad_gpf_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.gpf"
    bad.write_bytes(b"NOTGPF00" + b"\0" * 64)
    assert (
        run(["energy", "--field", str(bad), "--potential", str(bad), "--a", "1.0"]) == 2
    )
    # a header claiming n = 2**31 is refused from the file size, without reading
    huge = tmp_path / "huge.gpf"
    huge.write_bytes(GPF1_MAGIC + struct.pack("<Id", 2**31, 8.0) + b"\0" * 64)
    capsys.readouterr()
    assert run(["energy", "--field", str(huge), "--potential", str(huge), "--a", "1.0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "truncated payload" in err[0]
    # a header naming n = 16 in front of a 32 x 32 payload is refused too
    long = tmp_path / "long.gpf"
    long.write_bytes(GPF1_MAGIC + struct.pack("<Id", 16, 8.0) + b"\0" * (8 * 32 * 32))
    flat = tmp_path / "flat.gpf"
    write_gpf(flat, Field(make_grid(8.0, 16), np.zeros((16, 16))))
    assert run(["energy", "--field", str(long), "--potential", str(flat), "--a", "1.0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "overlong payload" in err[0]


def test_energy_matches_library(tmp_path, capsys):
    g = make_grid(8.0, 32)
    u = gaussian_init(g)
    V = Field(g, np.cos(g.radius()))
    up, vp = tmp_path / "u.gpf", tmp_path / "v.gpf"
    write_gpf(up, u)
    write_gpf(vp, V)
    assert run(["energy", "--field", str(up), "--potential", str(vp), "--a", "2.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    expected = energy(u, V, 2.0)
    assert out["total"] == expected.total
    assert out["kinetic"] == expected.kinetic


def test_minimize_writes_outputs(tmp_path, capsys):
    res_path = tmp_path / "res.json"
    field_path = tmp_path / "u.gpf"
    argv = ["minimize", "--potential", "zero", "--a", "6.0", "--L", "10", "--n", "64",
            "--tol", "1e-7"]
    assert run(argv + ["--out", str(res_path), "--field", str(field_path)]) == 0
    assert capsys.readouterr().out == ""
    # without --out the same JSON goes to stdout
    assert run(argv) == 0
    assert capsys.readouterr().out == res_path.read_text()
    res = json.loads(res_path.read_text())
    assert res["converged"]
    # free subcritical torus minimizer is the constant with E = -a/(8 L^2)
    assert res["E"] == pytest.approx(-6.0 / 800.0, abs=1e-7)
    u = read_gpf(field_path)
    assert u.grid.n == 64


def test_minimize_unconverged_exits_3_and_writes_its_result(tmp_path, capsys):
    out = tmp_path / "res.json"
    argv = ["minimize", "--potential", "sinc", "--a", "5", "--L", "12", "--n", "64",
            "--max-iters", "1", "--out", str(out)]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["minimizer did not reach the residual tolerance"]
    res = json.loads(out.read_text())
    assert res["converged"] is False
    assert res["iters"] == 1


@pytest.mark.parametrize("a", ["11.7", "12.5"])
def test_minimize_near_critical_exits_2(a, capsys):
    code = run(["minimize", "--potential", "zero", "--a", a, "--L", "8", "--n", "32"])
    assert code == 2
    err = capsys.readouterr().err
    assert "critical coupling" in err and len(err.strip().splitlines()) == 1


def test_sweep_outputs_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(FAST_CFG.format(out=tmp_path / "rep"))
    out1, out2 = tmp_path / "rep1", tmp_path / "rep2"
    assert run(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    # identical config reproduces numeric outputs byte for byte
    assert (out1 / "entries.csv").read_bytes() == (out2 / "entries.csv").read_bytes()
    assert (out1 / "u_001.gpf").read_bytes() == (out2 / "u_001.gpf").read_bytes()
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["a_star"] == pytest.approx(11.7009, abs=1e-3)
    # manifest lists every file the run wrote
    written = {p.name for p in out1.iterdir()}
    listed = {Path(p).name for p in manifest["outputs"]}
    assert written == listed
    header = (out1 / "entries.csv").read_text().splitlines()[0]
    assert header == "a,E,eps,residual,iters,converged,resolved"
    # one progress line per entry and run, none repeated by a second handler
    progress = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in progress] == [
        "sweep entry 0 of 2", "sweep entry 1 of 2"] * 2


def test_sweep_bad_potential_fails_before_townes(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("sweep solved the Townes profile before its input")

    cli._profile_cached.cache_clear()
    monkeypatch.setattr(cli, "solve_townes", no_solve)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"potential = file:{tmp_path / 'missing.gpf'}\nL = 8\nn = 32\n"
        f"a_schedule = 1.0\nout_dir = {tmp_path / 'rep'}\n"
    )
    assert run(["sweep", "--config", str(cfg)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("schedule", ["2.0, 1.0", "1.0, inf", ","])
def test_sweep_bad_schedule_fails_before_townes(tmp_path, monkeypatch, capsys, schedule):
    def no_solve(*args, **kwargs):
        raise AssertionError("sweep solved the Townes profile before its schedule")

    cli._profile_cached.cache_clear()
    monkeypatch.setattr(cli, "solve_townes", no_solve)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"potential = zero\nL = 8\nn = 32\na_schedule = {schedule}\n"
        f"out_dir = {tmp_path / 'rep'}\n"
    )
    assert run(["sweep", "--config", str(cfg)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_sweep_reaching_the_criticality_margin_fails_before_entry_0(tmp_path, monkeypatch, capsys):
    def no_entry(*args, **kwargs):
        raise AssertionError("a sweep entry ran before its last coupling was checked")

    monkeypatch.setattr(minimizer, "minimize", no_entry)
    out = tmp_path / "rep"
    cfg = tmp_path / "sweep.cfg"
    # entry 9 is the first with 0.05 * 0.5^k below the criticality margin
    cfg.write_text(
        "potential = zero\nL = 8\nn = 16\na_schedule = geom:0.05,0.5,12\nmax_iters = 50\n"
        f"out_dir = {out}\n"
    )
    assert run(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "critical coupling" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "blowup"])
def test_absolute_schedule_reaching_the_criticality_margin_fails_before_entry_0(
        command, profile, tmp_path, monkeypatch, capsys):
    def no_entry(*args, **kwargs):
        raise AssertionError("a sweep entry ran before its last coupling was checked")

    monkeypatch.setattr(minimizer, "minimize", no_entry)
    out = tmp_path / "rep"
    cfg = tmp_path / "sweep.cfg"
    # 11.7 lies within the margin of a* = 11.7009..., which only a* itself tells
    cfg.write_text(f"potential = zero\nL = 8\nn = 16\na_schedule = 1.0, 11.7\nout_dir = {out}\n")
    argv = [command, "--config", str(cfg)]
    if command == "blowup":
        prof = tmp_path / "p.json"
        prof.write_text(json.dumps(soliton.profile_to_dict(profile)))
        argv += ["--profile", str(prof)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "critical coupling" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "blowup"])
@pytest.mark.parametrize("out", ["afile", "afile/sub", "dangling"])
def test_unusable_output_path_fails_before_townes(command, out, profile, tmp_path,
                                                  monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before its output path was checked")

    cli._profile_cached.cache_clear()
    monkeypatch.setattr(cli, "solve_townes", no_run)
    monkeypatch.setattr(minimizer, "minimize", no_run)
    afile = tmp_path / "afile"
    afile.write_text("x")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("potential = zero\nL = 8\nn = 16\na_schedule = 1.0, 2.0\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / out)]
    if command == "blowup":
        prof = tmp_path / "p.json"
        prof.write_text(json.dumps(soliton.profile_to_dict(profile)))
        argv += ["--profile", str(prof)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "not a directory" in err and len(err.strip().splitlines()) == 1
    assert afile.read_text() == "x"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["afile", "dangling", "sweep.cfg"] + (["p.json"] if command == "blowup" else []))


def test_sweep_unconverged_exits_3(tmp_path, capsys):
    out = tmp_path / "rep"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "potential = sinc\nL = 12\nn = 64\na_schedule = geom:0.2,0.5,2\nmax_iters = 1\n"
        f"out_dir = {out}\n"
    )
    assert run(["sweep", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == "2 sweep entries did not converge"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "non_convergence"
    assert len(manifest["notes"]) == 1
    assert manifest["notes"][0].startswith("unconverged couplings: ")
    written = {p.name for p in out.iterdir()}
    assert written == {Path(p).name for p in manifest["outputs"]}
    assert written == {"u_000.gpf", "u_001.gpf", "entries.csv", "run_manifest.json"}
    rows = (out / "entries.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4:6] for row in rows] == [["1", "false"]] * 2


@pytest.mark.filterwarnings("error")
def test_non_finite_iterate_exits_3(capsys):
    # V of order 1e300 overflows the residual on the first iteration
    argv = ["minimize", "--potential", "power_well h0=1e300 p=2 rcut=8", "--a", "1",
            "--L", "8", "--n", "16", "--max-iters", "50"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("error")
def test_failed_townes_shot_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(soliton, "_rhs", lambda r, y: (np.nan, np.nan))
    out = tmp_path / "p.json"
    assert run(["soliton", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("numerical failure: shot at amplitude 1.0 failed")
    assert len(captured.err.strip().splitlines()) == 1


def test_csv_floats_round_trip(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(FAST_CFG.format(out=tmp_path / "rep"))
    out = tmp_path / "rep"
    assert run(["sweep", "--config", str(cfg)]) == 0
    rows = (out / "entries.csv").read_text().splitlines()[1:]
    for row in rows:
        a, E, eps, residual = (float(tok) for tok in row.split(",")[:4])
        # shortest-repr formatting: parsing and re-reprring is the identity
        assert repr(a) == row.split(",")[0]


def test_blowup_insufficient_exits_3(tmp_path):
    prof = tmp_path / "p.json"
    assert run(["soliton", "--tol", "1e-8", "--out", str(prof)]) == 0
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "potential = power_well h0=1 p=2 rcut=8\nL = 12\nn = 128\n"
        "a_schedule = geom:0.3,0.8,2\ntol = 1e-6\nout_dir = "
        + str(tmp_path / "bu")
        + "\n"
    )
    assert run(["blowup", "--config", str(cfg), "--profile", str(prof)]) == 3
    out = tmp_path / "bu"
    assert not (out / "fit.json").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "InsufficientData"


def test_blowup_unconverged_and_insufficient_exits_3(tmp_path):
    prof = tmp_path / "p.json"
    assert run(["soliton", "--tol", "1e-8", "--out", str(prof)]) == 0
    out = tmp_path / "bu"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "potential = power_well h0=1 p=2 rcut=8\nL = 12\nn = 128\n"
        f"a_schedule = geom:0.3,0.8,2\ntol = 1e-6\nmax_iters = 5\nout_dir = {out}\n"
    )
    assert run(["blowup", "--config", str(cfg), "--profile", str(prof)]) == 3
    assert not (out / "fit.json").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "non_convergence"
    first, second = manifest["notes"]
    assert first == "fewer than 3 resolved entries; fit.json not written"
    assert second.startswith("unconverged couplings: ")
    written = {p.name for p in out.iterdir()}
    assert written == {Path(p).name for p in manifest["outputs"]}


def test_blowup_writes_fit_and_aligned_entries(tmp_path):
    prof = tmp_path / "p.json"
    assert run(["soliton", "--tol", "1e-8", "--out", str(prof)]) == 0
    cfg = tmp_path / "bu.cfg"
    cfg.write_text(
        "potential = power_well h0=0.0625 p=2 rcut=8\nL = 12\nn = 96\n"
        "a_schedule = geom:0.3,0.7,3\ntol = 1e-6\n"
    )
    out = tmp_path / "bu"

    def blowup():
        assert run(["blowup", "--config", str(cfg), "--profile", str(prof), "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(files.pop("run_manifest.json"))
        del manifest["wall_time_s"]
        return files, manifest

    first = blowup()
    files, manifest = first
    assert sorted(files) == [
        "aligned_000.gpf", "aligned_001.gpf", "aligned_002.gpf", "entries.csv", "fit.json"
    ]
    assert manifest["status"] == "ok"
    for path in out.iterdir():
        path.unlink()
    assert blowup() == first

    # each aligned dump is the field whose distance to Townes the CSV reports
    q0 = lift_to_grid(profile_from_dict(json.loads(prof.read_text())), make_grid(12.0, 96))
    header, *rows = (out / "entries.csv").read_text().splitlines()
    assert header == "a,E,eps,L2_dist,H1_dist,residual,iters,converged,resolved"
    assert len(rows) == 3
    for i, row in enumerate(rows):
        cells = row.split(",")
        aligned = read_gpf(out / f"aligned_{i:03d}.gpf")
        assert cells[-1] == "true"
        assert l2_norm(Field(q0.grid, aligned.values - q0.values)) == float(cells[3])


def test_sweep_and_blowup_write_the_same_entry_cells(tmp_path):
    # one width per minimizer: gp blowup reports the eps gp sweep reports
    prof = tmp_path / "p.json"
    assert run(["soliton", "--out", str(prof)]) == 0
    cfg = tmp_path / "near.cfg"
    cfg.write_text(
        "potential = power_well h0=0.0625 p=2 rcut=8\nL = 12\nn = 96\n"
        "a_schedule = geom:0.05,0.65,5\ntol = 1e-6\n"
    )
    sweep, blowup = tmp_path / "sweep", tmp_path / "blowup"
    assert run(["sweep", "--config", str(cfg), "--out", str(sweep)]) == 0
    # every entry is narrower than 4 cells here, so the fit has no data
    assert run(["blowup", "--config", str(cfg), "--profile", str(prof), "--out", str(blowup)]) == 3
    with open(sweep / "entries.csv") as f:
        swept = list(csv.DictReader(f))
    with open(blowup / "entries.csv") as f:
        analyzed = [{key: row[key] for key in swept[0]} for row in csv.DictReader(f)]
    assert len(swept) == 5
    assert analyzed == swept


def test_blowup_missing_profile_exits_2(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("potential = zero\nL = 12\nn = 32\na_schedule = 1.0\n")
    assert run(["blowup", "--config", str(cfg), "--profile", str(tmp_path / "nope.json")]) == 2
    not_json = tmp_path / "profile.json"
    not_json.write_text("a* = 11.7\n")
    capsys.readouterr()
    assert run(["blowup", "--config", str(cfg), "--profile", str(not_json)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_check_v1_json(capsys):
    assert run(["check-v1", "--potential", "sinc", "--L", "12", "--n", "128"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passes_v1"] is True
    assert report["ess_inf_V"] == pytest.approx(-0.2172336, abs=1e-6)


def test_check_v1_file_potential(tmp_path, capsys):
    g = make_grid(8.0, 64)
    V = realize(PowerWell(h0=1.0, p=2.0, rcut=8.0), g)
    write_gpf(tmp_path / "v.gpf", V)
    reports = []
    for potential in ("power_well h0=1 p=2 rcut=8", f"file:{tmp_path / 'v.gpf'}"):
        assert run(["check-v1", "--potential", potential, "--L", "8", "--n", "64"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    from_spec, from_file = reports
    assert from_file["lambda0"] == from_spec["lambda0"]
    # the sampled minimum is 0, less half a cell times the largest sampled gradient
    assert V.values.min() == 0.0
    gy, gx = np.gradient(V.values, g.dx)
    assert from_file["ess_inf_V"] == -0.5 * g.dx * float(np.max(np.hypot(gx, gy)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [["--width", "0"], ["--width", "-1"], ["--eps", "nan"],
                                 ["--width", "1e155"], ["--width", "1e300"], ["--width", "1e-300"]])
def test_check_v2_bad_numbers_exit_2(bad, capsys):
    argv = ["check-v2", "--potential", "sinc", "--L", "8", "--n", "32", *bad]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_check_v2_json(capsys):
    assert run(
        ["check-v2", "--potential", "lattice s=0.5 period=4", "--L", "8", "--n", "64"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["attained_interior"] is True


def test_usage_error_exits_2(tmp_path):
    assert run(["frobnicate"]) == 2
    # an unknown flag: the Townes mesh is fixed, gp soliton has no --mesh-size
    assert run(["soliton", "--mesh-size", "100", "--out", str(tmp_path / "p.json")]) == 2
    assert not (tmp_path / "p.json").exists()


def test_readme_cli_examples_parse():
    # every `gp ...` line of README's CLI block names only flags gp has
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("gp ")]
    assert len(examples) == 7
    parser = cli.build_parser()
    for argv in examples:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
