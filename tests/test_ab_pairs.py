"""Tests for tools/ab_pairs.py: the gain rule on synthetic numbers, and the pair
order and report through a stand-in benchmark command, with no benchmark run."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_pairs.py")
sys.path.insert(0, os.path.dirname(TOOL))

import ab_pairs  # noqa: E402

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_nine_wins_and_a_median_lead_beyond_the_spread_is_a_gain():
    change = [p + 5.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    v = ab_pairs.verdict(PARENT, change, "higher", 0.25)
    assert (v.wins, v.pairs, v.parent_median, v.parent_spread) == (9, 10, 100.0, 1.5)
    assert v.change_median == 105.0 and v.gain and v.within_bound


def test_eight_wins_or_a_lead_within_the_spread_is_no_gain():
    eight = [p + 5.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    assert ab_pairs.verdict(PARENT, eight, "higher", 0.25).wins == 8
    assert not ab_pairs.verdict(PARENT, eight, "higher", 0.25).gain
    small = [p + 0.5 for p in PARENT]  # ten wins, but a lead of 0.5 within the spread of 1.5
    v = ab_pairs.verdict(PARENT, small, "higher", 0.25)
    assert v.wins == 10 and not v.gain


def test_ties_count_for_neither_side_and_lower_is_better_for_latency():
    v = ab_pairs.verdict(PARENT, list(PARENT), "lower", 0.25)
    assert (v.wins, v.gain, v.within_bound) == (0, False, True)
    faster = [p - 5.0 for p in PARENT]
    assert ab_pairs.verdict(PARENT, faster, "lower", 0.25).gain
    assert not ab_pairs.verdict(PARENT, faster, "higher", 0.25).gain


def test_bound_is_a_fraction_of_the_parent_median():
    assert ab_pairs.verdict(PARENT, [75.0] * 10, "higher", 0.25).within_bound
    assert not ab_pairs.verdict(PARENT, [74.9] * 10, "higher", 0.25).within_bound
    assert ab_pairs.verdict(PARENT, [125.0] * 10, "lower", 0.25).within_bound
    assert not ab_pairs.verdict(PARENT, [125.1] * 10, "lower", 0.25).within_bound


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]  # spread 40 > 0.25 * median 100
    v = ab_pairs.verdict(wide, [p - 1.0 for p in wide], "higher", 0.25)
    assert (v.parent_spread, v.within_bound, v.unresolved) == (40.0, True, True)
    assert ab_pairs.verdict(wide, [p - 1.0 for p in wide], "higher", 0.5).unresolved is False


def test_a_change_that_beats_every_parent_run_is_resolved_despite_the_spread():
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert not ab_pairs.verdict(wide, [141.0] * 5, "higher", 0.25).unresolved
    assert ab_pairs.verdict(wide, [140.0] * 5, "higher", 0.25).unresolved  # a tie is no win
    assert not ab_pairs.verdict(wide, [59.0] * 5, "lower", 0.25).unresolved
    assert not ab_pairs.verdict(PARENT, [p - 1.0 for p in PARENT], "higher", 0.25).unresolved


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError, match="two equal lists"):
        ab_pairs.verdict(PARENT, PARENT[:9], "higher", 0.25)


STAND_IN = """import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(os.path.join(os.path.dirname(os.getcwd()), "order.log"), "a") as fh:
    fh.write(os.path.basename(os.getcwd()) + " " + args["--seed"] + " " + args["--seconds"] + "\\n")
value = {SPEED} + int(args["--seed"])
print("a line of text before the result")
print(json.dumps({"failed": 0, "metrics": {"ops_per_s": {"value": value, "unit": "ops/s"}}}))
"""


def test_pairs_alternate_and_the_report_names_the_verdict(tmp_path):
    bench = {"command": [sys.executable, "bench.py"], "run_seconds": 3,
             "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}
    for side, speed in (("parent", 100), ("change", 110)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "bench.py").write_text(STAND_IN.replace("{SPEED}", str(speed)))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    done = subprocess.run([sys.executable, TOOL, str(tmp_path / "parent"), str(tmp_path / "change"),
                           "--workload", "w", "--pairs", "3", "--seed", "7"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "order.log").read_text().splitlines() == [
        "parent 7 3", "change 7 3", "change 8 3", "parent 8 3", "parent 9 3", "change 9 3"]
    lines = done.stdout.splitlines()
    assert lines[0] == "pair 0 seed 7 parent: failed=0 ops_per_s=107"
    assert lines[-2].split() == ["ops_per_s", "108", "118", "3/3", "1", "yes", "yes", "no"]
    assert lines[-1] == "failed ops: parent 0, change 0"
