"""tools/bench_compare.py's summary of pairs of benchmark runs, on fixed numbers (no benchmark runs here)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def test_a_tie_counts_for_neither_side():
    s = bench_compare.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 3.0, 6.0], "higher", 0.25)
    assert (s["better_pairs"], s["worse_pairs"], s["pairs"]) == (1, 1, 5)
    s = bench_compare.summarize([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "lower", 0.25)
    assert (s["better_pairs"], s["worse_pairs"], s["direction"]) == (0, 0, "same")
    assert not bench_compare.claim_met(s)


def test_nine_of_ten_pairs_and_a_gap_past_the_iqr_meet_a_claim():
    parent = [100.0 + i for i in range(10)]  # inclusive quartiles 102.25/104.5/106.75
    change = [120.0 + i for i in range(9)] + [108.0]  # the last pair is worse
    s = bench_compare.summarize(parent, change, "higher", 0.25)
    assert s["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert (s["better_pairs"], s["worse_pairs"]) == (9, 1)
    assert s["parent_iqr"] == pytest.approx(4.5) and s["median_gap"] == pytest.approx(19.0)
    assert s["bound_status"] == "pass" and bench_compare.claim_met(s)
    # eight of ten is not enough, however large the gap
    s = bench_compare.summarize(parent, change[:8] + [100.0, 100.0], "higher", 0.25)
    assert s["better_pairs"] == 8 and s["gap_beyond_iqr"] and not bench_compare.claim_met(s)
    # the same numbers read as a loss when lower is better
    s = bench_compare.summarize(parent, change, "lower", 0.25)
    assert s["direction"] == "worse" and s["worse_pairs"] == 9 and not bench_compare.claim_met(s)


def test_a_gap_inside_the_parent_iqr_is_no_gain_and_no_watch_line():
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    s = bench_compare.summarize(parent, [p + 5 for p in parent], "higher", 0.25)
    assert s["better_pairs"] == 5 and s["median_gap"] == 5 and s["parent_iqr"] == 20
    assert not s["gap_beyond_iqr"] and not bench_compare.claim_met(s)
    assert bench_compare.watch_line("w", 1, "m", s) is None


def test_a_parent_spread_wider_than_the_bound_leaves_it_unresolved():
    s = bench_compare.summarize([50.0, 100.0, 150.0, 200.0], [50.0, 100.0, 150.0, 200.0], "higher", 0.25)
    assert s["parent_iqr"] == 75 and s["bound_status"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    s = bench_compare.summarize([50.0, 100.0, 150.0, 200.0], [210.0, 220.0, 230.0, 240.0], "higher", 0.25)
    assert s["bound_status"] == "pass"
    s = bench_compare.summarize([50.0, 100.0, 150.0, 200.0], [200.0, 220.0, 230.0, 240.0], "higher", 0.25)
    assert s["bound_status"] == "unresolved"  # a tie with the parent's best run is not better


def test_a_loss_past_the_bound_fails_and_one_inside_it_past_the_iqr_is_watched():
    s = bench_compare.summarize([10.0, 10.0, 10.0, 10.0], [13.0, 13.0, 13.0, 13.0], "lower", 0.25)
    assert s["bound_status"] == "fail" and s["direction"] == "worse"
    s = bench_compare.summarize([100.0, 100.0, 101.0, 101.0], [95.0, 95.0, 95.0, 96.0], "higher", 0.25)
    assert s["bound_status"] == "pass" and s["relative"] == pytest.approx(-5.5 / 100.5)
    assert bench_compare.watch_line("latency_cache", 1, "eval_instances_per_s", s) == (
        "latency_cache seed 1 eval_instances_per_s: -5.5% (worse), gap 5.5 against a parent IQR of 1, "
        "better in 0/4 pairs")
