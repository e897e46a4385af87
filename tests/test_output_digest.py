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
    "defaults",
    "refusals.missing-flag",
    "refusals.bad-format",
    "refusals.bad-metric",
    "refusals.not-a-number",
    "refusals.flag-prefix",
    "refusals.missing-value",
    "refusals.unrecognized-word",
    "refusals.unknown-subcommand",
    "refusals.config",
]


def digest_lines(*extra):
    argv = [sys.executable, TOOL, ROOT, "--blocks", "1", "--resolution", "2", *extra]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_one_digest_per_group_and_the_same_on_a_second_run():
    lines = digest_lines()
    assert [line.split()[0] for line in lines] == GROUPS
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert digest_lines() == lines


def test_a_second_seed_gives_other_sweep_digests():
    default, seed_7, seed_1 = digest_lines(), digest_lines("--seed", "7"), digest_lines("--seed", "1")
    assert seed_7 == default
    sweeps = [(a, b) for a, b in zip(seed_7, seed_1) if a.startswith("sweep")]
    assert len(sweeps) == sum(group.startswith("sweep") for group in GROUPS) == 8
    assert all(a.split()[0] == b.split()[0] and a != b for a, b in sweeps)
    # The defaults and refusals groups draw nothing from the seed.
    unseeded = GROUPS.index("defaults")
    assert seed_7[unseeded:] == seed_1[unseeded:]
