#!/usr/bin/env python3
"""gp2d benchmark: python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gp2d checkout; the package is imported from its
`src/`.  The run prepares its inputs from the seed, then repeats whole
rounds of the workload for S seconds, starting a round only while the
average round so far still fits (at least one round), checks every round's
outputs and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: times are medians over
rounds, and the memory figure is the first round's.  With --trace 1 every
round runs under the full probe, the metrics are the per-layer ones, and the
spans go to bench_traces/<workload>-seed<N>.jsonl.
The metrics and their units are those BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
THREADS = str(min(2, os.cpu_count() or 1))
# one process with at most 2 BLAS threads; scipy.fft runs one worker by default
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS

WORKLOADS = ("harmonic-blowup", "conditions")

# wrapped in every run: enough to split a round into set-up and solve time
E2E_PROBES = (
    "soliton.solve_townes",
    "grid.make_grid",
    "potentials.realize",
    "minimizer.continuation_sweep",
    "minimizer.minimize",
    "spectrum.ground_energy",
)
TRACE_PROBES = E2E_PROBES + (
    "potentials.check_v2",
    "soliton.lift_to_grid",
    "grid.laplacian_apply",
    "grid.kinetic",
    "grid.convolve_potential",
    "grid.resample_affine",
    "grid.write_gpf",
    "energy.energy",
    "energy.energy_gradient",
    "energy.gn_quotient",
    "energy.dilate",
    "spectrum.check_v1",
    "diagnostics.analyze_sweep",
    "diagnostics.concentration_curve",
    "cli._write_csv",
    "cli._dump_json",
)
SETUP = {"cli.soliton", "soliton.solve_townes", "grid.make_grid", "potentials.realize"}
SOLVE = {"minimizer.continuation_sweep", "minimizer.minimize", "spectrum.ground_energy"}
MAX_ENTRIES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def ancestors(spans, i):
    parent = spans[i][3]
    while parent != -1:
        yield spans[parent]
        parent = spans[parent][3]


def end_to_end(rnd) -> dict:
    spans = rnd.spans
    setup = sum(s[2] - s[1] for s in spans if s[0] in SETUP and s[3] == -1)
    solve = sum(
        s[2] - s[1]
        for i, s in enumerate(spans)
        if s[0] in SOLVE and not any(a[0] in SOLVE for a in ancestors(spans, i))
    )
    iters = sum(s[4]["iters"] for s in spans if s[0] == "minimizer.minimize" and s[4])
    return {"setup_s": setup, "wall_s": rnd.wall_s, "solve_s": solve, "iters": iters,
            "ms_per_iter": 1e3 * solve / iters if iters else 0.0}


def per_layer(rnd, costs) -> dict:
    """Per-layer metrics of a traced round; costs are the probe's, per call."""
    from probe import is_transform

    spans = rnd.spans
    m = {}

    def of(name):
        return [s for s in spans if s[0] == name]

    def total(name):
        return sum(s[2] - s[1] for s in of(name))

    def per_call_ms(name):
        n = len(of(name))
        return 1e3 * total(name) / n if n else 0.0

    townes = of("soliton.solve_townes")
    m["soliton.solve_townes_s"] = total("soliton.solve_townes") / max(len(townes), 1)
    m["soliton.shots"] = sum(s[5].get("soliton.shots", 0) for s in townes) / max(len(townes), 1)
    m["soliton.lift_to_grid_ms"] = per_call_ms("soliton.lift_to_grid")

    mins = [s for s in of("minimizer.minimize") if s[4]]
    iters = sum(s[4]["iters"] for s in mins)
    ffts = sum(v for s in mins for k, v in s[5].items() if is_transform(k))
    m["grid.fft_calls_per_iter"] = ffts / iters if iters else 0.0
    for name in ("laplacian_apply", "kinetic", "convolve_potential", "resample_affine",
                 "write_gpf"):
        m[f"grid.{name}_ms"] = per_call_ms(f"grid.{name}")
    for name in ("energy", "energy_gradient", "gn_quotient", "dilate"):
        m[f"energy.{name}_ms"] = per_call_ms(f"energy.{name}")

    sweeps = [i for i, s in enumerate(spans) if s[0] == "minimizer.continuation_sweep"]
    entries = [s for s in mins if s[3] in sweeps]
    for k in range(MAX_ENTRIES):
        m[f"minimizer.entry{k}.iters"] = entries[k][4]["iters"] if k < len(entries) else 0
        m[f"minimizer.entry{k}.s"] = entries[k][2] - entries[k][1] if k < len(entries) else 0.0
    # minimize() makes one rfft2 to start, then per iteration an irfft2 for the
    # Laplacian, and unless it stops there an rfft2/irfft2 pair for the
    # preconditioner and one rfft2 per trial step, each an energy evaluation
    evals = accepted = stalls = 0
    for s in mins:
        iters, acc = s[4]["iters"], s[4]["accepted"]
        full = s[5].get("scipy.irfft2", 0) - iters
        trials = s[5].get("scipy.rfft2", 0) - 1 - full
        if not (acc <= full <= iters and trials >= acc):
            rnd.problems.append(
                "minimize() no longer makes the transforms evals_per_step and stall_retries "
                f"are read from ({iters} iterations, {acc} accepted, {full} preconditioned, "
                f"{trials} trials)")
        evals += trials + 1
        accepted += acc
        stalls += full - acc
    m["minimizer.evals_per_step"] = evals / accepted if accepted else 0.0
    m["minimizer.stall_retries"] = stalls
    m["minimizer.warm_start_s"] = total("minimizer.continuation_sweep") - sum(
        s[2] - s[1] for s in entries)
    m["minimizer.unresolved_iters"] = sum(s[4]["iters"] for s in entries if s[4]["unresolved"])

    for label in ("harmonic", "lattice", "sinc"):
        inside = {i for i, s in enumerate(spans) if s[0] == "spectrum.ground_energy"
                  and any(a[0] == f"check_v1.{label}" for a in ancestors(spans, i))}
        m[f"spectrum.{label}.ground_energy_s"] = sum(spans[i][2] - spans[i][1] for i in inside)
        m[f"spectrum.{label}.ground_energy_iters"] = sum(
            s[4]["iters"] for s in mins if s[3] in inside)

    m["potentials.realize_ms"] = per_call_ms("potentials.realize")
    m["potentials.check_v2_ms"] = per_call_ms("potentials.check_v2")
    m["diagnostics.analyze_sweep_s"] = total("diagnostics.analyze_sweep")
    m["diagnostics.concentration_curve_ms"] = per_call_ms("diagnostics.concentration_curve")
    m["diagnostics.resolved_entries"] = rnd.resolved
    m["cli.output_s"] = sum(total(n) for n in ("grid.write_gpf", "cli._write_csv", "cli._dump_json"))
    m["cli.output_bytes"] = rnd.output_bytes
    m["trace.wall_s"] = rnd.wall_s
    # the probe's own time: its call counts in the round times the cost of one call
    cost = sum(n * c for n, c in zip(rnd.probe_calls, costs))
    m["trace.overhead_pct"] = 100.0 * cost / (rnd.wall_s - cost)
    return m


def fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more round of the average length so far ends within seconds."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def iteration_ms(workload, repeats=3, iters=30) -> float:
    """Milliseconds per minimizer iteration over a fixed iteration count."""
    import gp2d.minimizer as minimizer

    V, a, g = workload.iteration_case()
    opts = minimizer.MinimizerOptions(tol_residual=1e-300, max_iters=iters)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = minimizer.minimize(V, a, g, opts)
        times.append(1e3 * (time.perf_counter() - t0) / res.iters)
    return median(times)


def make_workload(name, seed, workdir):
    import workloads as wl

    if name == "harmonic-blowup":
        return wl.HarmonicBlowup(workdir)
    return wl.Conditions(seed)


def resident_bytes() -> int:
    """The process's resident set now."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gp2d" / "__init__.py").is_file():
        print(f"error: no gp2d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from probe import Probe, cost_per_call, dump

    # relative, so that paths recorded in the outputs, and with them the
    # digest, do not depend on where the checkout lives
    workdir = Path(".bench_run")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        probe = Probe()
        if args.trace:
            probe.install(TRACE_PROBES)
            probe.install_fft_counters()
        else:
            probe.install(E2E_PROBES)
        rounds = []
        rss_before = resident_bytes()
        start = time.perf_counter()
        while not rounds or fits(start, len(rounds), args.seconds):
            before = probe.tally()
            rnd = workload.round(probe)
            rnd.probe_calls = [b - a for a, b in zip(before, probe.tally())]
            rounds.append(rnd)
        costs = cost_per_call(probe)
        probe.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # determinism: every round ran the same inputs, so outputs and iteration
    # counts must repeat exactly; a round that differs counts as failed
    first = rounds[0]
    first_iters = end_to_end(first)["iters"]
    for rnd in rounds[1:]:
        if rnd.digest != first.digest or end_to_end(rnd)["iters"] != first_iters:
            rnd.faults.append("outputs or iteration count differ from round 0")
            rnd.failed = rnd.ops

    e2e_units, layer_units = declared_units()
    if args.trace:
        layers = [per_layer(r, costs) for r in rounds]
        metrics = {k: median([m[k] for m in layers]) for k in layers[0]}
        metrics["minimizer.iteration_ms"] = iteration_ms(workload)
        units = layer_units
        out_dir = Path.cwd() / "bench_traces"
        out_dir.mkdir(exist_ok=True)
        dump([r.spans for r in rounds], out_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        e2e = [end_to_end(r) for r in rounds]
        metrics = {k: median([m[k] for m in e2e]) for k in e2e[0]}
        # what the program's first calls added to the resident set: its peak
        # working set (imports it makes on first use included), apart from the
        # interpreter, the inputs and the references, which are built later
        metrics["peak_rss_mb"] = (first.max_rss - rss_before) / 2**20
        units = e2e_units
    problems = sorted({p for rnd in rounds for p in rnd.problems})
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for f in sorted({f for rnd in rounds for f in rnd.faults}):
        print(f"failed operation: {f}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, output digest {first.digest}, "
          f"iters {first_iters}")
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()
                    if k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
