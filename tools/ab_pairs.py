"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

Usage::

    python tools/ab_pairs.py PARENT CHANGE --workload W --pairs N [--seed S]

``PARENT`` and ``CHANGE`` are checkouts that each hold ``perfbench/`` and
``BENCHMARK.json``; ``N`` is at least 2, the fewest pairs with a spread.  Pair ``i`` (from 0) runs the benchmark command of
CHANGE's ``BENCHMARK.json`` with ``--workload W --seed S+i --trace 0`` and
its ``run_seconds``, once in each checkout; the parent runs first in
even pairs and the change in odd ones.  Every run is printed as it ends.
Then, for each end-to-end metric of that file, one row gives the parent's
and the change's medians, the pairs the change won (ties count for
neither side), the parent's interquartile spread, whether the gain rule
holds, whether the change stays within the metric's bound, and whether the
metric is unresolved.

The gain rule: the change wins at least nine tenths of the pairs, and its
median beats the parent's by more than the parent's spread (Q3 - Q1,
inclusive quartiles).  A gain does not count when the change failed more
ops than the parent; the last line compares the failed ops.  A metric is
unresolved when the parent's spread is wider than the bound (as a fraction
of the parent's median) and not every change run beats every parent run:
the runs then cannot tell a change within the bound from one beyond it.
The tool only runs the benchmark and edits nothing in either checkout.

Compare two fresh ``git archive`` copies, not a working tree: a tree that
tests have run in holds ``__pycache__``, ``.pytest_cache`` and
``.hypothesis`` folders, which can move its ``setup_s`` by 5-8% with no
change in the code (0.173 -> 0.187 s on ``grid-closed``, measured on a
2-core x86_64 host).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
from dataclasses import dataclass

# Seconds a run may take beyond run_seconds (set-up runs, the checks) before it is killed.
RUN_SLACK = 600


@dataclass(frozen=True)
class Verdict:
    parent_median: float
    change_median: float
    wins: int
    pairs: int
    parent_spread: float
    gain: bool
    within_bound: bool
    unresolved: bool


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> Verdict:
    """The gain rule and the bound check for one metric over runs paired by index.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the fraction of the
    parent's median by which the change's median may be worse.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError(f"need two equal lists of at least 2 runs, got {len(parent)} and {len(change)}")
    sign = {"higher": 1.0, "lower": -1.0}[better]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    p_med, c_med = statistics.median(parent), statistics.median(change)
    lead = sign * (c_med - p_med)  # > 0 when the change's median is better
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    return Verdict(p_med, c_med, wins, len(parent), q3 - q1,
                   10 * wins >= 9 * len(parent) and lead > q3 - q1,
                   -lead <= bound * abs(p_med),
                   q3 - q1 > bound * abs(p_med) and not every_run_better)


def run_once(checkout: str, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one benchmark run, a JSON object with ``failed`` and ``metrics``."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + RUN_SLACK)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Compare two fresh `git archive` copies (git archive REV | tar -x -C DIR), not a "
               "working tree: its __pycache__, .pytest_cache and .hypothesis folders can move "
               "setup_s with no change in the code.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=200, help="seed of pair 0 (default 200)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run_once(sides[side], bench["command"], args.workload, seed,
                              bench["run_seconds"])
            runs[side].append(result)
            values = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
            print(f"pair {i} seed {seed} {side}: failed={result['failed']} {values}", flush=True)
    print(f"{'metric':16s} {'parent':>12s} {'change':>12s} {'wins':>6s} {'spread':>10s} "
          "gain  in bound  unresolved")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        v = verdict([r["metrics"][name]["value"] for r in runs["parent"]],
                    [r["metrics"][name]["value"] for r in runs["change"]],
                    metric["better"], metric["bound"])
        print(f"{name:16s} {v.parent_median:12.6g} {v.change_median:12.6g} "
              f"{v.wins:>3d}/{v.pairs:<2d} {v.parent_spread:10.4g} {'yes' if v.gain else 'no ':4s}"
              f"  {'yes' if v.within_bound else 'no':8s}  {'yes' if v.unresolved else 'no'}")
    failed = {side: sum(r["failed"] for r in runs[side]) for side in sides}
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}"
          + ("  (more failures: no gain counts)" if failed["change"] > failed["parent"] else ""))


if __name__ == "__main__":
    main()
