"""Tests for tools/inprocess_pairs.py: the repo against itself, and a copy whose output differs."""

import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "inprocess_pairs.py")


def run_tool(parent, change, *flags):
    return subprocess.run([sys.executable, TOOL, str(parent), str(change), *flags],
                          capture_output=True, text=True, timeout=120)


def test_the_repo_against_itself_prints_every_pair_and_the_columns():
    done = run_tool(ROOT, ROOT, "--blocks", "2", "--rounds", "1", "--seed", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [re.sub(r"\d+\.\d+", "T", line) for line in lines[:2]] == [
        "pair 0 block 0: parent_ms=T change_ms=T", "pair 1 block 1: parent_ms=T change_ms=T"]
    assert lines[2].split() == ["parent_ms", "change_ms", "ratio", "ratio_q1", "ratio_q3", "wins"]
    *medians, wins = lines[3].split()
    assert all(float(x) > 0 for x in medians) and re.fullmatch(r"[0-2]/2", wins)
    assert len(lines) == 4


def test_a_change_whose_output_differs_is_refused(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(os.path.join(ROOT, "src", "hawkchan"), change / "src" / "hawkchan",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (change / "perfbench").mkdir()
    shutil.copy(os.path.join(ROOT, "perfbench", "workloads.py"), change / "perfbench")
    cli = change / "src" / "hawkchan" / "cli.py"
    source = cli.read_text()
    assert source.count('_ENCODE(payload) + "\\n"') == 1
    cli.write_text(source.replace('_ENCODE(payload) + "\\n"', '_ENCODE(payload) + " \\n"'))
    done = run_tool(ROOT, change, "--blocks", "2", "--rounds", "1")
    assert done.returncode == 1 and done.stdout == ""
    assert re.fullmatch(r"op \d+ of block 0 \([a-z]+ --.*\) differs in stdout: "
                        r"the change must give the parent's output\n", done.stderr), done.stderr
