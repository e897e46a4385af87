"""Smoke test for tools/output_digest.py, the byte-identity check between two checkouts."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "output_digest.py")

GROUPS = [
    "point-queries.json",
    "point-queries.human",
    "sweep.neg_pct_diff_mixture.csv",
    "sweep.neg_pct_diff_mixture.json",
    "sweep.neg_pct_diff_convex.csv",
    "sweep.neg_pct_diff_convex.json",
    "sweep.phase_curve.csv",
    "sweep.coherent_info_diff.csv",
    "sweep-stdout.neg_pct_diff_mixture.csv",
    "sweep-stdout.neg_pct_diff_mixture.json",
]


def digest_lines():
    argv = [sys.executable, TOOL, ROOT, "--blocks", "1", "--resolution", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_one_digest_per_group_and_the_same_on_a_second_run():
    lines = digest_lines()
    assert [line.split()[0] for line in lines] == GROUPS
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert digest_lines() == lines
