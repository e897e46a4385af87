"""Parameter-grid engine for the figure-reproduction sweeps.

Each metric evaluates one comparison between the coherent superposition
of two channels and its classical baseline, over a square (r1, r2)
grid or a 1-D squeezing scan, both sampling one range of r:

* ``neg_pct_diff_mixture``: percentage negativity gain over the equal
  classical mixture of the two channels,
* ``neg_pct_diff_convex``: percentage gain over the convex average of
  the single-channel negativities,
* ``coherent_info_diff``: raw coherent-information gain (ensemble
  average over measurement branches) over the classical mixture,
* ``phase_curve``: average negativity of the opposite-phase
  superposition (``negativity_avg_closed(r, r, pi)`` = |cos r|/2) as a
  function of r.

Every metric is a closed form from `metrics`; the numeric pipeline is
their oracle in the tests.  Percentage differences use
100 * (quantum - classical) / classical, so quantum advantage is
positive; both baselines are at least 1/4 on [0, pi/4]^2.  Grids are
evaluated a block of at most 4096 cells (or one r1 row) per closed-form
call, so memory beyond the value array stays at one block.  Both axes
are the same samples of ``SweepSpec.r_range`` and each cell is an
elementwise expression of its own (r1, r2), so every 2-D grid is bitwise
symmetric.  Rows are emitted in a deterministic order (r1 outer, r2
inner, ascending): identical specs give byte-identical files.  The
emitters write to a text stream that the caller opened; they never open,
name or close a file (open one with UTF-8 and ``newline=""`` to get the
pinned bytes on every platform).  They hold one row at a time: a CSV row
is one %-template over the preformatted axis texts, and a JSON row is
one call of the C JSON encoder inside a hand-written ``{axes, spec,
values}`` frame.  A grid of at least ``_PARALLEL_CELLS`` cells is
formatted on every available CPU: forked children write contiguous
parts of its rows to temporary files, which are spliced into the output
in order, so the bytes do not depend on the number of parts.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from . import metrics
from .channel import DomainError, real_number
# Not called here: perfbench's tracer test still looks this binding up.
from .protocol import measure_control  # noqa: F401

TWO_D_METRICS = ("neg_pct_diff_mixture", "neg_pct_diff_convex", "coherent_info_diff")
ONE_D_METRICS = ("phase_curve",)
METRICS = TWO_D_METRICS + ONE_D_METRICS

# 2-D sweeps cover the geometry-reachable squeezing range [0, pi/4];
# the 1-D phase scan extends over the channel's full domain [0, pi/2).
MAX_R_2D = math.pi / 4
MAX_R_1D = math.pi / 2
# The value array alone takes resolution^2 * 8 bytes: 32 MB at the cap.
MAX_RESOLUTION = 2001
_BLOCK_CELLS = 4096  # cells per closed-form call: each float64 temporary is 32 KB


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: metric name, the range of r on each axis, and resolution."""

    metric: str
    r_range: tuple[float, float] = (0.0, MAX_R_2D)
    resolution: int = 101

    def __post_init__(self):
        if self.metric not in METRICS:
            raise DomainError("metric", f"must be one of {', '.join(METRICS)}, got {self.metric!r}")
        try:  # any integer type, numpy's included, stored as a plain int
            object.__setattr__(self, "resolution", operator.index(self.resolution))
        except TypeError:
            raise DomainError("resolution", f"must be an integer, got {self.resolution!r}") from None
        if not 2 <= self.resolution <= MAX_RESOLUTION:
            raise DomainError("resolution",
                              f"must be in [2, {MAX_RESOLUTION}], got {self.resolution}")
        try:  # a pair of real numbers of any type, stored as a tuple of floats
            lo, hi = self.r_range
        except (TypeError, ValueError):  # not iterable, or not two items
            raise DomainError("r_range",
                              f"must be a pair of real numbers, got {self.r_range!r}") from None
        lo, hi = r_range = real_number("r_range[0]", lo), real_number("r_range[1]", hi)
        object.__setattr__(self, "r_range", r_range)
        r_max = MAX_R_1D if self.is_one_dimensional else MAX_R_2D
        domain = f"the metric domain [0, {r_max:.6g}" + (")" if self.is_one_dimensional else "]")
        for end, value in enumerate(r_range):  # each end is refused under its own index
            if not 0.0 <= value <= r_max or (self.is_one_dimensional and value == r_max):
                raise DomainError(f"r_range[{end}]", f"must be in {domain}, got {value}")
        if lo > hi:
            raise DomainError("r_range[1]", f"must not be below the lower end {lo}, got {hi}")

    @property
    def is_one_dimensional(self) -> bool:
        return self.metric in ONE_D_METRICS


@dataclass(eq=False)
class SweepGrid:
    """Evaluated sweep: axis samples plus row-major metric values."""

    spec: SweepSpec
    axes: list[np.ndarray]
    values: np.ndarray


def _row(metric: str, r1: np.ndarray, r2s: np.ndarray) -> np.ndarray:
    """The 2-D ``metric`` at ``(r1, r2)`` for every r1 in the column ``r1`` and r2 in ``r2s``."""
    if metric == "coherent_info_diff":
        ensemble, mixture = metrics.coherent_info_closed(r1, r2s)
        return ensemble - mixture
    if metric == "neg_pct_diff_mixture":
        baseline = metrics.negativity_mixture_closed(r1, r2s)
    else:
        baseline = metrics.negativity_convex_avg(r1, r2s)
    return 100.0 * (metrics.negativity_avg_closed(r1, r2s) - baseline) / baseline


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("sweep produced non-finite values")
    return values


def run_sweep(spec: SweepSpec) -> SweepGrid:
    """Evaluate the metric on the grid described by ``spec``.

    2-D grids are row-major with r1 as the outer (slow) axis.  Cells
    are independent, and the output ordering is deterministic.
    """
    rs = np.linspace(*spec.r_range, spec.resolution)
    if spec.is_one_dimensional:
        return SweepGrid(spec, [rs], _finite(metrics.negativity_avg_closed(rs, rs, math.pi)))
    values = np.empty((spec.resolution, spec.resolution))
    rows = max(1, _BLOCK_CELLS // spec.resolution)
    for i in range(0, spec.resolution, rows):
        values[i:i + rows] = _finite(_row(spec.metric, rs[i:i + rows, np.newaxis], rs))
    return SweepGrid(spec, [rs, rs], values)


# 12 significant digits, enough for 1e-11 round-trip on these scales.
_CELL = "%.12g"
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# Grids of fewer cells are written by one process.  On a 2-core x86_64
# host a forked part costs about 4 ms (fork, copy-on-write faults, the
# child's exit and the splice), so two parts break even at about 10k cells
# in JSON and 20-25k in CSV; the threshold sits about 3x above that, which
# keeps the 51^2 grids and every 1-D curve in one process.
_PARALLEL_CELLS = 65_536
_COPY_CHARS = 1 << 16  # a child's part is spliced in chunks of this many characters


def _fork_part(rows: range, row_text: Callable[[int], str]) -> tuple[int, IO[str]]:
    """Start a child that writes ``row_text(i)`` for ``i`` in ``rows`` to a new temporary file.

    The child formats only (``tolist`` and %/JSON text, no BLAS), writes
    nothing but its own file, and leaves through ``os._exit`` (status 1 on
    any exception), so it never flushes the streams it inherited.
    """
    part = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    try:
        pid = os.fork()
    except BaseException:
        part.close()
        raise
    if pid == 0:
        status = 1
        try:
            part.writelines(map(row_text, rows))
            part.flush()
            status = 0
        finally:
            os._exit(status)
    return pid, part


def _write_rows(stream: IO[str], values: np.ndarray, row_text: Callable[[int], str]) -> None:
    """Write ``row_text(i)`` for each row ``i`` of ``values`` to ``stream``, in order.

    The rows are cut into contiguous parts, one per available CPU, each
    of at least ``_PARALLEL_CELLS / 2`` cells; a smaller grid, a one-CPU
    host and a platform without ``os.fork`` get the one serial part.  The
    parent writes part 0 straight into ``stream``; each other part is
    formatted by a forked child into its own temporary file, which the
    parent then reaps in order and copies into ``stream`` in bounded
    chunks.  If anything raises, every child still held is killed and
    reaped before the error propagates.
    """
    parts = 1
    if hasattr(os, "fork"):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        parts = max(1, min(cpus or 1, len(values), values.size // (_PARALLEL_CELLS // 2)))
    bounds = [len(values) * k // parts for k in range(parts + 1)]
    children = []
    try:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork_part(range(lo, hi), row_text))
        except OSError as exc:  # no temporary file or process: not the destination's fault
            raise RuntimeError(f"cannot start a forked sweep part: {exc}") from exc
        stream.writelines(map(row_text, range(bounds[1])))
        while children:
            pid, part = children[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            with part:
                if code:
                    raise RuntimeError(f"a forked sweep part exited with status {code}")
                part.seek(0)
                while chunk := part.read(_COPY_CHARS):
                    stream.write(chunk)
    finally:
        if children:  # an error: stop every child still held
            import signal  # here, so that importing the package stays as fast as before
        for pid, part in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            part.close()


def emit_csv(grid: SweepGrid, stream: IO[str]) -> None:
    """Write the grid as CSV to the text stream ``stream``.

    2-D grids use the header ``r1,r2,value``; the 1-D phase curve uses
    ``r,value``.  Rows are ordered r1 outer, r2 inner, ascending.  The
    axis texts are formatted once; each r1 row (each point in 1-D) is
    one %-template filled with that row's values.  A file ``stream``
    should be opened with ``newline=""``, so that no newline is translated.
    """
    if grid.spec.is_one_dimensional:
        header, cells = "r,value\n", ["," + _CELL + "\n"]
    else:
        header = "r1,r2,value\n"
        cells = [f",{_CELL % r},{_CELL}\n" for r in grid.axes[1].tolist()]
    prefixes = [_CELL % r for r in grid.axes[0].tolist()]
    rows = grid.values.reshape(len(prefixes), -1)

    def row_text(i: int) -> str:
        return (prefixes[i] + prefixes[i].join(cells)) % tuple(rows[i].tolist())

    stream.write(header)
    _write_rows(stream, grid.values, row_text)


def emit_json(grid: SweepGrid, stream: IO[str]) -> None:
    """Write the grid as a JSON object {spec, axes, values} to the text stream ``stream``.

    The bytes are ``json.dumps(document, sort_keys=True,
    separators=(",", ":"))`` plus a newline, written one row of
    ``values`` at a time; a 1-D curve is one row.  A file ``stream``
    should be opened with ``newline=""``, as for `emit_csv`.
    """
    spec = {
        "metric": grid.spec.metric,
        "r1_range": list(grid.spec.r_range),  # both axes: the two pinned keys
        "r2_range": list(grid.spec.r_range),
        "resolution": grid.spec.resolution,
    }
    one_d = grid.spec.is_one_dimensional
    rows = np.atleast_2d(grid.values)

    def row_text(i: int) -> str:
        return ("," if i else "") + _ENCODE(rows[i].tolist())

    axes = _ENCODE([axis.tolist() for axis in grid.axes])
    stream.write(f'{{"axes":{axes},"spec":{_ENCODE(spec)},"values":' + ("" if one_d else "["))
    _write_rows(stream, rows, row_text)
    stream.write(("" if one_d else "]") + "}\n")
