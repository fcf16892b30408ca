#!/usr/bin/env python3
"""Paired benchmark runs of two gp2d checkouts, summarized against BENCHMARK.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --out BENCH.json

Pair i runs `benchmark/run.py --workload W --seed BASE+i --seconds S --trace 0`
once in each checkout, one run at a time: the parent first in even pairs, the
change first in odd ones.  Every run starts in a fresh copy of its checkout's
`src/`, `benchmark/` and `BENCHMARK.json`.

For each end-to-end metric the summary gives each side's median and
quartiles, the paired ratios change/parent, the pairs the change won (ties
count for neither), whether that meets the gain rule (a win in at least 9 of
10 pairs and medians apart by more than the parent's interquartile range)
and whether the change's median stays within the metric's bound of the
parent's.  The workload's section goes into OUT beside any other workload's
already there.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")
GAIN_SHARE = 0.9  # the change must win at least this share of the pairs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--seed-base", type=int, default=1, help="pair i runs seed BASE+i")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a fresh copy of checkout: its JSON result and digest."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        root = Path(tmp)
        for name in ("src", "benchmark"):
            shutil.copytree(checkout / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".bench_run"))
        shutil.copy2(checkout / "BENCHMARK.json", root)
        cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next((ln.split("output digest ")[1].split(",")[0] for ln in lines
                   if "output digest " in ln), None)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": digest,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "stderr": proc.stderr.strip()}


def spread(xs) -> dict:
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, _, q3 = quantiles(xs, n=4, method="inclusive")
    return {"median": median(xs), "q1": q1, "q3": q3}


def summarize(runs, end_to_end) -> dict:
    """Per-metric comparison of paired runs.

    runs: dicts with "pair", "side" ("parent" or "change") and "metrics";
    end_to_end: BENCHMARK.json's list of {"name", "better", "bound"}.
    """
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [by_pair[k] for k in sorted(by_pair) if len(by_pair[k]) == 2]
    out = {}
    for m in end_to_end:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        values = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        par, chg = spread(values["parent"]), spread(values["change"])
        ratios = [c / p if p else None for p, c in zip(values["parent"], values["change"])]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
        gain = (par["median"] - chg["median"]) * (1 if lower else -1)
        iqr = par["q3"] - par["q1"]
        limit = par["median"] * (1 + bound if lower else 1 - bound)
        known = [r for r in ratios if r is not None]
        out[name] = {
            "parent": par,
            "change": chg,
            "paired_ratios": ratios,
            "paired_median_ratio": median(known) if known else None,
            "median_ratio": chg["median"] / par["median"] if par["median"] else None,
            "pairs": len(pairs),
            "change_better_pairs": wins,
            "tied_pairs": ties,
            "parent_iqr": iqr,
            "median_gain": gain,
            "meets_gain_rule": bool(pairs) and wins >= math.ceil(GAIN_SHARE * len(pairs))
            and gain > iqr,
            "bound": bound,
            "within_bound": chg["median"] <= limit if lower else chg["median"] >= limit,
        }
    return out


def failures(runs) -> dict:
    return {s: {"runs": sum(r["side"] == s for r in runs),
                "incorrect_runs": sum(r["side"] == s and not r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs if r["side"] == s),
                "failed": sum(r["failed"] for r in runs if r["side"] == s)} for s in SIDES}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            start = time.perf_counter()
            r = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"pair": i, "seed": seed, "side": side, **r})
            print(f"pair {i} seed {seed} {side}: correct {r['correct']}, failed {r['failed']}, "
                  f"{time.perf_counter() - start:.0f} s, "
                  + ", ".join(f"{k} {v:.4g}" for k, v in r["metrics"].items()), flush=True)
    section = {
        "command": f"python3 benchmark/run.py --workload {args.workload} --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "protocol": f"{args.pairs} pairs, seeds {args.seed_base}-{args.seed_base + args.pairs - 1}; "
                    "even pairs run the parent first, odd pairs the change first; every run in "
                    "a fresh copy of its checkout; runs one at a time",
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "summary": summarize(runs, spec["end_to_end"]),
        "failures": failures(runs),
        "digests_equal_pairs": sum(
            len({r["digest"] for r in runs if r["pair"] == i}) == 1 for i in range(args.pairs)),
        "runs": runs,
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = section
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
