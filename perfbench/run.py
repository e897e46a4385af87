"""hawkchan benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py and described in BENCHMARK.json.
With ``--trace 0`` the run measures set-up time (the median of several
fresh interpreters importing hawkchan and running one warm-up op),
then times every ``hawkchan.cli.run`` call of the workload in one more
fresh interpreter for ``--seconds``; timings are scaled to a reference
host speed (``PROBE_REFERENCE``).  With ``--trace 1`` a separate
interpreter runs untraced reference passes for ``--seconds`` and then
the workload's traced passes, and the run reports per-layer metrics.
Either way every output is checked (checks.py) and the last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
count ops (grid cells or queries), and ``metrics`` maps each metric
name to its value and unit.  The environment block is printed before it.

Run it from a checkout that contains ``src/hawkchan``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# Seconds a worker may take beyond --seconds before it is killed.
WORKER_SLACK = 120
# Timings are scaled to the host speed at which worker.probe_seconds()
# returns this (its typical value on the host the benchmark was built on):
# each pass's times are multiplied by PROBE_REFERENCE over the mean of the
# probes taken just before and just after it.  Unscaled figures are printed
# alongside.
PROBE_REFERENCE = 400e-6

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def spawn(args, mode: str, work: str) -> subprocess.CompletedProcess:
    """Run worker.py in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--work", work]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=args.seconds + WORKER_SLACK)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def measure_setup(args, work: str) -> list:
    """(seconds, probe) from spawning a fresh interpreter until hawkchan is imported and warm."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
        ready, probe = map(float, spawn(args, "setup", work).stdout.split()[-2:])
        samples.append((ready - started, probe))
    return samples


def check_ops(workload, seed: int, work: str):
    """(attempted, failed, records, problems) over every op the worker logged."""
    from checks import check_query, check_sweep

    attempted = failed = 0
    problems = []
    pass_ops = {}
    first_hash = {}
    with open(os.path.join(work, "ops.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for rec in records:
        index = rec["pass"]
        if index not in pass_ops:
            pass_ops[index] = workload.pass_ops(seed, index)
        op = pass_ops[index][rec["op"]]
        attempted += op.cells
        if op.out is None:
            issues = check_query(op, rec["code"], rec["stdout"], rec["stderr"])
        elif rec["code"] != 0 or "sha256" not in rec:
            issues = [f"exit code {rec['code']}: {rec['stderr'].strip()}"]
        elif index == 0:
            first_hash[rec["op"]] = rec["sha256"]
            issues = check_sweep(op, os.path.join(work, "pass-0"), seed)
        elif rec["sha256"] != first_hash.get(rec["op"]):
            issues = ["file differs from the first pass's output of the same spec"]
        else:
            issues = []
        if issues:
            failed += op.cells
            problems += [f"pass {index} op {rec['op']} ({' '.join(op.argv)}): {i}" for i in issues]
    return attempted, failed, records, problems


def percentile(values: list, p: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def tail_percentile(n: int) -> float:
    """The highest of p99, p95, p90 and p75 that keeps ten samples beyond it, else p50."""
    return next((p for p in (99.0, 95.0, 90.0, 75.0) if n * (100.0 - p) >= 1000.0), 50.0)


def _summary(work: str) -> dict:
    with open(os.path.join(work, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def timed_run(args, workload, work: str, notes: list):
    setup = measure_setup(args, work)
    spawn(args, "timed", work)
    summary = _summary(work)
    attempted, failed, records, problems = check_ops(workload, args.seed, work)
    passes = summary["passes"]
    probes = [summary["first_probe"]] + [p["probe"] for p in passes]
    scale = [PROBE_REFERENCE * 2.0 / (before + after) for before, after in zip(probes, probes[1:])]
    # A request is one query, or one pass of sweeps: a grid pass is the set
    # of files a user asks for, and its calls differ too much in size to pool.
    if workload.request_is_op:
        raw = [rec["seconds"] * 1e3 for rec in records]
        scaled = [rec["seconds"] * 1e3 * scale[rec["pass"]] for rec in records]
    else:
        raw = [p["seconds"] * 1e3 for p in passes]
        scaled = [ms * k for ms, k in zip(raw, scale)]
    cells = sum(p["cells"] for p in passes)
    tail = tail_percentile(len(scaled))
    notes.append(f"set-up samples (s, unscaled): {', '.join(f'{s:.4f}' for s, _ in setup)}")
    notes.append(f"latency samples: {len(scaled)} requests; latency_ms_p99 reports p{tail:g}")
    notes.append(f"passes: {len(passes)}; ops per pass: {passes[0]['cells']}")
    notes.append(f"unscaled: ops_per_s {cells / sum(p['seconds'] for p in passes):.6g}, "
                 f"latency_ms_p50 {statistics.median(raw):.6g}, "
                 f"latency_ms_p99 {percentile(raw, tail):.6g}; median probe "
                 f"{statistics.median(probes) * 1e6:.1f} us against {PROBE_REFERENCE * 1e6:g} us")
    return attempted, failed, problems, {
        "setup_s": statistics.median(s * PROBE_REFERENCE / probe for s, probe in setup),
        "ops_per_s": cells / sum(p["seconds"] * k for p, k in zip(passes, scale)),
        "latency_ms_p50": statistics.median(scaled),
        "latency_ms_p99": percentile(scaled, tail),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
    }


def traced_run(args, workload, work: str, notes: list):
    from tracer import per_layer_metrics

    spawn(args, "traced", work)
    summary = _summary(work)
    attempted, failed, _, problems = check_ops(workload, args.seed, work)
    reference = [p for p in summary["passes"] if not p["traced"]]
    traced = [p for p in summary["passes"] if p["traced"]]

    def seconds_per_op(passes):
        return sum(p["seconds"] for p in passes) / sum(p["cells"] for p in passes)

    ops = sum(p["cells"] for p in traced)
    notes.append(f"traced ops: {ops} in {len(traced)} passes; "
                 f"untraced reference passes: {len(reference)}")
    return attempted, failed, problems, per_layer_metrics(
        os.path.join(work, "spans.npz"), ops, sum(p["output_bytes"] for p in traced),
        seconds_per_op(traced), seconds_per_op(reference))


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hawkchan", "__init__.py")):
        print(f"perfbench: no hawkchan sources under {SRC}", file=sys.stderr)
        return 2

    # One process sends all load; BLAS and OpenMP may use every core it has.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    notes = []
    try:
        env = environment(args, nproc)
        measure = traced_run if args.trace else timed_run
        attempted, failed, problems, metrics = measure(args, workload, work, notes)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(f"# {note}")
    if args.trace:
        from tracer import PER_LAYER_METRICS

        units = {name: unit for name, (unit, _) in PER_LAYER_METRICS.items()}
    else:
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':40s} {failed / attempted:>16.6g} failed/attempted "
          f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
