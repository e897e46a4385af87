"""Parameter-grid engine for the figure-reproduction sweeps.

Each metric evaluates one comparison between the coherent superposition
of two channels and its classical baseline, over a rectangular
(r1, r2) grid or a 1-D squeezing scan:

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
evaluated one r1 row at a time, so memory beyond the value array stays
at one row, and emitted in a deterministic row order (r1 outer, r2
inner, ascending): identical specs produce byte-identical CSV and JSON.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from . import metrics
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

Destination = Union[str, "IO[str]", None]


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: metric name, axis ranges, and resolution.

    1-D metrics scan ``r1_range`` and ignore ``r2_range``.
    """

    metric: str
    r1_range: tuple[float, float] = (0.0, MAX_R_2D)
    r2_range: tuple[float, float] = (0.0, MAX_R_2D)
    resolution: int = 101

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; choose from {METRICS}")
        if not 2 <= self.resolution <= MAX_RESOLUTION:
            raise ValueError(f"resolution must be in [2, {MAX_RESOLUTION}], got {self.resolution}")
        r_max = MAX_R_1D if self.is_one_dimensional else MAX_R_2D
        ranges = [self.r1_range] if self.is_one_dimensional else [self.r1_range, self.r2_range]
        for label, (lo, hi) in zip(("r1_range", "r2_range"), ranges):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{label} must be finite, got ({lo}, {hi})")
            if lo > hi:
                raise ValueError(f"{label} is empty: ({lo}, {hi})")
            if lo < 0.0 or hi > r_max or (self.is_one_dimensional and hi >= r_max):
                raise ValueError(
                    f"{label} ({lo}, {hi}) outside the metric domain [0, {r_max:.6g}"
                    + (")" if self.is_one_dimensional else "]")
                )

    @property
    def is_one_dimensional(self) -> bool:
        return self.metric in ONE_D_METRICS


@dataclass(eq=False)
class SweepGrid:
    """Evaluated sweep: axis samples plus row-major metric values."""

    spec: SweepSpec
    axes: list[np.ndarray]
    values: np.ndarray


def _row(metric: str, r1: float, r2s: np.ndarray) -> np.ndarray:
    """The 2-D ``metric`` at ``(r1, r2)`` for every r2 in ``r2s``."""
    if metric == "coherent_info_diff":
        ensemble, mixture = metrics.coherent_info_closed(r1, r2s)
        return ensemble - mixture
    if metric == "neg_pct_diff_mixture":
        baseline = metrics.negativity_mixture_closed(r1, r2s)
    else:
        baseline = metrics.negativity_convex_avg(r1, r2s)
    return 100.0 * (metrics.negativity_avg_closed(r1, r2s) - baseline) / baseline


def run_sweep(spec: SweepSpec) -> SweepGrid:
    """Evaluate the metric on the grid described by ``spec``.

    2-D grids are row-major with r1 as the outer (slow) axis.  Cells
    are independent, and the output ordering is deterministic.
    """
    r1s = np.linspace(spec.r1_range[0], spec.r1_range[1], spec.resolution)
    if spec.is_one_dimensional:
        axes = [r1s]
        values = metrics.negativity_avg_closed(r1s, r1s, math.pi)
    else:
        r2s = np.linspace(spec.r2_range[0], spec.r2_range[1], spec.resolution)
        axes = [r1s, r2s]
        values = np.empty((spec.resolution, spec.resolution))
        for i, r1 in enumerate(r1s):
            values[i] = _row(spec.metric, r1, r2s)
    if not np.all(np.isfinite(values)):
        raise ValueError("sweep produced non-finite values")
    return SweepGrid(spec, axes, values)


def _format(x: float) -> str:
    """12 significant digits, enough for 1e-11 round-trip on these scales."""
    return format(float(x), ".12g")


def _open_destination(destination: Destination):
    if destination is None:
        return sys.stdout, False
    if hasattr(destination, "write"):
        return destination, False
    try:
        return open(destination, "w", encoding="utf-8", newline=""), True
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {destination!r}: {exc}") from exc


def emit_csv(grid: SweepGrid, destination: Destination = None) -> None:
    """Write the grid as CSV to a path, a text stream, or stdout.

    2-D grids use the header ``r1,r2,value``; the 1-D phase curve uses
    ``r,value``.  Rows are ordered r1 outer, r2 inner, ascending.
    """
    stream, owned = _open_destination(destination)
    try:
        if grid.spec.is_one_dimensional:
            stream.write("r,value\n")
            for r, v in zip(grid.axes[0], grid.values):
                stream.write(f"{_format(r)},{_format(v)}\n")
        else:
            stream.write("r1,r2,value\n")
            r2_texts = [_format(r2) for r2 in grid.axes[1]]
            for r1, row in zip(grid.axes[0], grid.values):
                r1_text = _format(r1)
                stream.writelines(
                    f"{r1_text},{r2_text},{_format(v)}\n" for r2_text, v in zip(r2_texts, row)
                )
    finally:
        if owned:
            stream.close()


def emit_json(grid: SweepGrid, destination: Destination = None) -> None:
    """Write the grid as a JSON object with keys {spec, axes, values}."""
    document = {
        "spec": {
            "metric": grid.spec.metric,
            "r1_range": list(grid.spec.r1_range),
            "r2_range": list(grid.spec.r2_range),
            "resolution": grid.spec.resolution,
        },
        "axes": [axis.tolist() for axis in grid.axes],
        "values": grid.values.tolist(),
    }
    stream, owned = _open_destination(destination)
    try:
        json.dump(document, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")
    finally:
        if owned:
            stream.close()
