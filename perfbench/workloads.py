"""Seeded workload definitions: the argv each op sends to ``hawkchan.cli.run``.

A workload is an endless sequence of passes.  A pass is a list of ops
that the worker runs back to back and the checker validates together.
An op is one ``cli.run`` call; it evaluates ``cells`` grid cells (a
sweep) or counts as a single query.  The same seed always gives the
same ops, and the worker and the checker each rebuild them from it.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Optional

QUARTER_PI = math.pi / 4
TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One ``cli.run`` call and what the checker needs to judge its output."""

    kind: str
    argv: list
    cells: int = 1
    out: Optional[str] = None  # sweep output file name inside the pass directory
    expect_code: int = 0
    params: dict = field(default_factory=dict)

    def argv_for(self, pass_dir: str) -> list:
        if self.out is None:
            return list(self.argv)
        return list(self.argv) + ["--out", os.path.join(pass_dir, self.out)]


def _num(x: float) -> str:
    # repr round-trips exactly, so the program sees the value the checker uses.
    return repr(float(x))


def sweep_op(metric: str, lo: float, hi: float, resolution: int, fmt: str) -> Op:
    one_d = metric == "phase_curve"
    return Op(
        kind=metric,
        argv=["sweep", "--metric", metric, "--resolution", str(resolution),
              "--min", _num(lo), "--max", _num(hi), "--format", fmt],
        cells=resolution if one_d else resolution * resolution,
        out=f"{metric}.{fmt}",
        params={"metric": metric, "lo": lo, "hi": hi, "resolution": resolution, "format": fmt},
    )


def _grid_range(rng: random.Random) -> tuple[float, float]:
    """A seeded sub-range of [0, pi/4]; the cell count does not depend on it."""
    return rng.uniform(0.0, 0.1), QUARTER_PI - rng.uniform(0.0, 0.1)


def _json_query(subcommand: str, flags: dict) -> list:
    argv = [subcommand]
    for flag, value in flags.items():
        argv += [f"--{flag}", _num(value)]
    return argv + ["--format", "json"]


def _protocol(rng: random.Random, relation: str) -> Op:
    r1, r2 = rng.uniform(0.0, QUARTER_PI), rng.uniform(0.0, QUARTER_PI)
    phi1, phi2 = rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)
    if relation == "identical":
        r2, phi2 = r1, phi1
    elif relation == "equal-phase":
        phi2 = phi1
    elif relation == "opposite-phase":
        phi2 = phi1 + math.pi
    flags = {"r1": r1, "r2": r2, "phi1": phi1, "phi2": phi2}
    return Op("protocol", _json_query("protocol", flags), params=flags)


def _channel(rng: random.Random) -> Op:
    flags = {"r": rng.uniform(0.0, 1.5), "phi": rng.uniform(0.0, TWO_PI)}
    return Op("channel", _json_query("channel", flags), params=flags)


def _phase(rng: random.Random) -> Op:
    flags = {"r": rng.uniform(0.0, 1.5)}
    return Op("phase", _json_query("phase", flags), params=flags)


def _geometry(rng: random.Random) -> Op:
    mass = rng.uniform(0.5, 2.0)
    flags = {"mass": mass, "radius": 2.0 * mass * (1.0 + rng.uniform(0.005, 0.5)),
             "k0": rng.uniform(0.01, 0.1)}
    return Op("geometry", _json_query("geometry", flags), params=flags)


def _out_of_domain(rng: random.Random, subcommand: str) -> Op:
    """A squeezing angle at or past pi/2: the CLI must exit 2 naming the flag."""
    bad = rng.uniform(math.pi / 2 + 0.01, 3.0)
    if subcommand == "protocol":
        flags = {"r1": bad, "r2": rng.uniform(0.0, QUARTER_PI)}
        flag = "--r1"
    else:
        flags = {"r": bad}
        flag = "--r"
    return Op(f"bad-{subcommand}", _json_query(subcommand, flags), expect_code=2,
              params={**flags, "flag": flag})


# One block of point queries: 70 protocol (58 generic, 4 each with equal
# phases, identical channels and opposite phases), 15 channel, 10 phase,
# 3 geometry and 2 out-of-domain.  Every block has the same mix, so any
# whole number of blocks makes the same calls per query.
_BLOCK = (
    [lambda rng: _protocol(rng, "generic")] * 58
    + [lambda rng: _protocol(rng, "equal-phase")] * 4
    + [lambda rng: _protocol(rng, "identical")] * 4
    + [lambda rng: _protocol(rng, "opposite-phase")] * 4
    + [_channel] * 15
    + [_phase] * 10
    + [_geometry] * 3
    + [lambda rng: _out_of_domain(rng, "protocol"), lambda rng: _out_of_domain(rng, "phase")]
)


@dataclass(frozen=True)
class Workload:
    name: str
    # Passes run under the tracer; whole passes keep per-op counts exact.
    traced_passes: int
    # Latency is timed per op (a query) rather than per pass (a set of sweeps).
    request_is_op: bool

    def pass_ops(self, seed: int, index: int) -> list:
        if self.name == "grid-numeric":
            lo, hi = _grid_range(random.Random(f"{seed}:range"))
            return [sweep_op("coherent_info_diff", lo, hi, 51, "csv")]
        if self.name == "grid-closed":
            rng = random.Random(f"{seed}:range")
            lo, hi = _grid_range(rng)
            ops = [sweep_op(metric, lo, hi, 401, fmt)
                   for metric in ("neg_pct_diff_mixture", "neg_pct_diff_convex")
                   for fmt in ("csv", "json")]
            return ops + [sweep_op("phase_curve", rng.uniform(0.0, 0.1),
                                   1.5 - rng.uniform(0.0, 0.1), 401, "csv")]
        rng = random.Random(f"{seed}:block:{index}")
        ops = [make(rng) for make in _BLOCK]
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        """A small untimed op that touches the same code as the workload."""
        if self.name == "grid-numeric":
            return sweep_op("coherent_info_diff", 0.0, QUARTER_PI, 2, "csv")
        if self.name == "grid-closed":
            return sweep_op("neg_pct_diff_mixture", 0.0, QUARTER_PI, 2, "json")
        return Op("protocol", _json_query("protocol", {"r1": 0.2, "r2": 0.7}))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-numeric", traced_passes=1, request_is_op=False),
        Workload("grid-closed", traced_passes=1, request_is_op=False),
        Workload("point-queries", traced_passes=5, request_is_op=True),
    )
}
