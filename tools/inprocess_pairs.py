"""Time two checkouts on the point-query mix in one interpreter, in alternating pairs of blocks.

Usage::

    python tools/inprocess_pairs.py PARENT CHANGE [--blocks 30] [--rounds 3] [--seed 9]

``PARENT`` and ``CHANGE`` are checkouts that each hold ``src/hawkchan``; the
ops are the ``point-queries`` blocks of CHANGE's ``perfbench/workloads.py``
(imported, not changed).  Each checkout's package is loaded under its own name,
``hawkchan_parent`` and ``hawkchan_change``, so both run in this one process on
the same numpy.

First every op of blocks 0, 1 and 2 of ``--seed`` runs once on each side.
Unless both sides give the same exit code, stdout and stderr on every op, the
tool names the first op that differs and exits 1.  Then pair ``i`` times block
``i`` of ``--seed`` on both sides, the parent first in even pairs and the change
first in odd ones.  A side's block time is the least of ``--rounds``
back-to-back runs of the block.  Every pair is printed as it ends; the report
then gives each side's median block time, the median and quartiles (inclusive)
of the change/parent time ratio, and how many pairs the change won (a lower
time; ties count for neither side).

The tool sizes a change before benchmark pairs (``tools/ab_pairs.py``) are spent
on it, and claims no gain: a block time leaves out the interpreter start, the
imports and the benchmark's own work around each op.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import math
import os
import statistics
import sys
import time

# The blocks whose every op must give the same output on both sides.
CHECKED_BLOCKS = 3


def load(name: str, path: str, package_dir: str | None = None):
    """The module at ``path`` (a package when ``package_dir`` is given), imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [package_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(checkout: str, name: str):
    """The ``cli`` module of ``checkout``'s ``src/hawkchan``, loaded as the package ``name``."""
    package_dir = os.path.join(checkout, "src", "hawkchan")
    load(name, os.path.join(package_dir, "__init__.py"), package_dir)
    return importlib.import_module(f"{name}.cli")


def outcome(cli, argv: list) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one ``cli.run`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(list(argv), stdout=out)
    return code, out.getvalue(), err.getvalue()


def block_seconds(cli, block: list, rounds: int) -> float:
    """The least time of ``rounds`` back-to-back runs of every argv of ``block``."""
    best = math.inf
    with contextlib.redirect_stderr(io.StringIO()):
        for _ in range(rounds):
            t0 = time.perf_counter()
            for argv in block:
                cli.run(list(argv), stdout=io.StringIO())
            best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--blocks", type=int, default=30, help="pairs of blocks timed (default 30)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="runs of a block per side and pair, the least kept (default 3)")
    parser.add_argument("--seed", type=int, default=9, help="workload seed (default 9)")
    args = parser.parse_args(argv)
    if args.blocks < 2 or args.rounds < 1:
        parser.error("--blocks must be at least 2 and --rounds at least 1")
    workloads = load("inprocess_workloads",
                     os.path.join(args.change, "perfbench", "workloads.py"))
    point_queries = workloads.WORKLOADS["point-queries"]
    sides = {"parent": load_cli(args.parent, "hawkchan_parent"),
             "change": load_cli(args.change, "hawkchan_change")}

    def block(index: int) -> list:
        return [op.argv for op in point_queries.pass_ops(args.seed, index)]

    for index in range(CHECKED_BLOCKS):
        for i, op in enumerate(block(index)):
            parent, change = (outcome(sides[side], op) for side in ("parent", "change"))
            differs = [part for part, p, c in zip(("exit code", "stdout", "stderr"), parent, change)
                       if p != c]
            if differs:
                raise SystemExit(f"op {i} of block {index} ({' '.join(op)}) differs in "
                                 f"{', '.join(differs)}: the change must give the parent's output")
    times = {side: [] for side in sides}
    for i in range(args.blocks):
        ops = block(i)
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            times[side].append(block_seconds(sides[side], ops, args.rounds))
        print(f"pair {i} block {i}: parent_ms={1e3 * times['parent'][-1]:.3f} "
              f"change_ms={1e3 * times['change'][-1]:.3f}", flush=True)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"{'parent_ms':>10s} {'change_ms':>10s} {'ratio':>8s} {'ratio_q1':>8s} "
          f"{'ratio_q3':>8s} {'wins':>7s}")
    print(f"{1e3 * statistics.median(times['parent']):10.3f} "
          f"{1e3 * statistics.median(times['change']):10.3f} {median:8.4f} {q1:8.4f} {q3:8.4f} "
          f"{wins:>3d}/{args.blocks:<3d}")


if __name__ == "__main__":
    main()
