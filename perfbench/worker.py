"""Runs one workload in a fresh interpreter; started by run.py.

Modes:

* ``setup``: import hawkchan, run one untimed warm-up op, print the
  CLOCK_MONOTONIC reading and the current `probe_seconds`, and exit.
  run.py subtracts its own clock reading taken just before the spawn.
* ``timed``: warm up, then run passes until ``--seconds`` have elapsed
  (at least two), timing each ``cli.run`` call and timing `probe_seconds`
  before the first pass and after every pass.
* ``traced``: untraced reference passes until ``--seconds`` have
  elapsed, then the workload's traced passes under `tracer.Tracer`.

Every op appends one JSON line to ``ops.jsonl`` in ``--work``.  Output
files of the first pass stay for the checker; later passes keep only
their hash.  ``summary.json`` closes the run.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import hawkchan  # noqa: E402
from hawkchan import cli  # noqa: E402


# The host's speed drifts by tens of percent over minutes (other tenants
# share its cores), which moves every timing alike.  A fixed snippet of
# interpreter and small-matrix numpy work, timed between passes, measures
# that drift so that run.py can scale timings to a reference speed.
_PROBE_MATRIX = np.eye(4, dtype=complex) / 2


def probe_seconds(repeats: int = 5) -> float:
    """Median time of the fixed snippet over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100):
            acc += math.sin(i * 0.1) * i
            _PROBE_MATRIX @ _PROBE_MATRIX
            format(acc, ".12g")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(op, pass_dir: str):
    """(exit code, seconds, stdout, stderr) of one ``cli.run`` call."""
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv_for(pass_dir)
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.run(argv, stdout=out)
        seconds = time.perf_counter() - t0
    return code, seconds, out.getvalue(), err.getvalue()


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pass(workload, seed, index, work, log, tracer=None) -> dict:
    ops = workload.pass_ops(seed, index)
    pass_dir = os.path.join(work, f"pass-{index}")
    os.makedirs(pass_dir)
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id += 1
        code, seconds, stdout, stderr = run_op(op, pass_dir)
        records.append({"pass": index, "op": i, "code": code, "seconds": seconds,
                        "stdout": stdout, "stderr": stderr})
    output_bytes = 0
    for op, rec in zip(ops, records):
        path = os.path.join(pass_dir, op.out) if op.out else None
        if path and os.path.exists(path):
            rec["sha256"] = _sha256(path)
            output_bytes += os.path.getsize(path)
        log.write(json.dumps(rec) + "\n")
    if index > 0:
        shutil.rmtree(pass_dir)
    return {"index": index, "traced": tracer is not None, "probe": probe_seconds(),
            "cells": sum(op.cells for op in ops),
            "seconds": sum(r["seconds"] for r in records), "output_bytes": output_bytes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if not os.path.abspath(hawkchan.__file__).startswith(SRC + os.sep):
        print(f"hawkchan imported from {hawkchan.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    warmup_dir = os.path.join(args.work, f"warmup-{os.getpid()}")
    os.makedirs(warmup_dir)
    warmup = workload.warmup_op()
    code, _, _, stderr = run_op(warmup, warmup_dir)
    shutil.rmtree(warmup_dir)
    if code != 0:
        print(f"warm-up op failed with exit code {code}: {stderr}", file=sys.stderr)
        return 1
    if args.mode == "setup":
        ready = time.monotonic()
        print(repr(ready), repr(probe_seconds()), flush=True)
        return 0

    passes = []
    first_probe = probe_seconds()
    with open(os.path.join(args.work, "ops.jsonl"), "w", encoding="utf-8") as log:
        min_passes = 2 if args.mode == "timed" else 1
        deadline = time.perf_counter() + args.seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            passes.append(run_pass(workload, args.seed, len(passes), args.work, log))
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                for _ in range(workload.traced_passes):
                    passes.append(run_pass(workload, args.seed, len(passes), args.work, log,
                                           tracer))
            finally:
                tracer.uninstall()
            tracer.save(os.path.join(args.work, "spans.npz"))

    summary = {
        "first_probe": first_probe,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(os.path.join(args.work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
