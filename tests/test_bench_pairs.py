import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "iters", "better": "lower", "bound": 0.02},
    {"name": "score", "better": "higher", "bound": 0.25},
]


def _runs(parent, change):
    """Paired runs from per-pair metric dicts; odd pairs list the change first."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)]
        for side, metrics in sides if i % 2 == 0 else sides[::-1]:
            runs.append({"pair": i, "side": side, "metrics": metrics, "correct": True,
                         "attempted": 3, "failed": 0})
    return runs


def test_summary_counts_wins_and_applies_the_gain_rule():
    parent = [{"peak_rss_mb": 18.0 + 0.1 * i, "iters": 769, "score": 1.0} for i in range(10)]
    change = [{"peak_rss_mb": 15.6 + 0.1 * i, "iters": 769, "score": 1.0} for i in range(10)]
    change[3]["peak_rss_mb"] = 19.0  # the parent wins one pair: 9 of 10 still meets the rule
    s = bench_pairs.summarize(_runs(parent, change), END_TO_END)
    rss = s["peak_rss_mb"]
    assert rss["pairs"] == 10 and rss["change_better_pairs"] == 9 and rss["tied_pairs"] == 0
    assert rss["parent"]["median"] == pytest.approx(18.45)
    assert rss["parent"]["q1"] == pytest.approx(18.225)
    assert rss["parent"]["q3"] == pytest.approx(18.675)
    assert rss["median_gain"] > rss["parent_iqr"]
    assert rss["meets_gain_rule"] and rss["within_bound"]
    assert rss["paired_ratios"][3] == pytest.approx(19.0 / 18.3)
    # equal counts tie in every pair: no gain, and within the bound
    assert s["iters"]["tied_pairs"] == 10 and s["iters"]["change_better_pairs"] == 0
    assert not s["iters"]["meets_gain_rule"] and s["iters"]["within_bound"]


def test_summary_flags_a_worse_median_and_a_narrow_gain():
    parent = [{"peak_rss_mb": 10.0 + i, "iters": 100, "score": 4.0} for i in range(10)]
    # better in every pair, but by less than the parent's interquartile range
    change = [{"peak_rss_mb": 9.5 + i, "iters": 103, "score": 2.9} for i in range(10)]
    s = bench_pairs.summarize(_runs(parent, change), END_TO_END)
    assert s["peak_rss_mb"]["change_better_pairs"] == 10
    assert not s["peak_rss_mb"]["meets_gain_rule"]
    # +3 % against a 2 % bound; a higher-is-better metric down 27.5 % against 25 %
    assert not s["iters"]["within_bound"]
    assert not s["score"]["within_bound"] and s["score"]["change_better_pairs"] == 0


def test_summary_ignores_an_unfinished_pair():
    parent = [{"peak_rss_mb": 18.0, "iters": 769, "score": 1.0}] * 3
    change = [{"peak_rss_mb": 15.0, "iters": 769, "score": 1.0}] * 3
    runs = _runs(parent, change)[:-1]  # pair 2 lost its second run
    s = bench_pairs.summarize(runs, END_TO_END)
    assert s["peak_rss_mb"]["pairs"] == 2
    assert s["peak_rss_mb"]["parent"] == {"median": 18.0, "q1": 18.0, "q3": 18.0}
