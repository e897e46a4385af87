"""Tests for the sweep engine and its CSV/JSON emitters."""

import errno
import functools
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

from hawkchan import cli, metrics, sweep
from hawkchan.channel import DomainError
from hawkchan.sweep import SweepGrid, SweepSpec, emit_csv, emit_json, run_sweep

from helpers import (
    emitted,
    reference_emit_csv,
    reference_emit_json,
    reference_grid_sweep,
    reference_row_sweep,
)

EMITTERS = {"csv": (emit_csv, reference_emit_csv), "json": (emit_json, reference_emit_json)}


class TestSweepSpec:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"metric": "negativity"}, "metric"),
            ({"resolution": 2002}, "resolution"),
            ({"r_range": (math.nan, 0.5)}, "r_range[0]"),
            ({"r_range": (0.5, 0.2)}, "r_range[1]"),
            ({"r_range": (0.0, 1.0)}, "r_range[1]"),
            ({"metric": "phase_curve", "r_range": (0.0, math.pi / 2)}, "r_range[1]"),
            ({"r_range": (0.5,)}, "r_range"),
            ({"r_range": (0.0, 0.2, 0.4)}, "r_range"),
            ({"r_range": "0.5"}, "r_range"),
            ({"r_range": ("0", "0.5")}, "r_range[0]"),
            ({"r_range": None}, "r_range"),
            ({"r_range": (0.0, 10**400)}, "r_range[1]"),
        ],
        ids=["metric", "resolution", "range-nan", "range-empty", "range-domain",
             "range-domain-1d", "range-one-item", "range-three-items", "range-string",
             "range-strings", "range-none", "range-huge-int"],
    )
    def test_refused_value_names_its_field(self, kwargs, field):
        """A range end is refused under its index; no reason repeats its field."""
        with pytest.raises(DomainError) as refused:
            SweepSpec(**{"metric": "neg_pct_diff_mixture", **kwargs})
        assert refused.value.field == field
        assert str(refused.value) == f"{field} {refused.value.reason}"
        assert field.partition("[")[0] not in refused.value.reason  # r_range[1] is of r_range

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="^metric must be one of neg_pct_diff_mixture, "):
            SweepSpec("negativity")

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            SweepSpec("neg_pct_diff_mixture", resolution=1)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match=r"^r_range\[1\] must not be below the lower end 0\.5, got 0\.2$"):
            SweepSpec("neg_pct_diff_mixture", r_range=(0.5, 0.2))

    def test_rejects_out_of_domain_2d(self):
        with pytest.raises(ValueError, match="domain"):
            SweepSpec("neg_pct_diff_mixture", r_range=(0.0, 1.0))
        with pytest.raises(ValueError, match="domain"):
            SweepSpec("neg_pct_diff_convex", r_range=(-0.1, 0.5))

    def test_resolution_cap(self):
        # A spec only records the resolution; neither call allocates a grid.
        assert sweep.MAX_RESOLUTION == 2001
        SweepSpec("neg_pct_diff_mixture", resolution=2001)
        with pytest.raises(ValueError, match="resolution"):
            SweepSpec("neg_pct_diff_mixture", resolution=2002)

    @pytest.mark.parametrize("resolution", [5.0, "5", None])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(DomainError, match="resolution must be an integer") as refused:
            SweepSpec("neg_pct_diff_mixture", resolution=resolution)
        assert refused.value.field == "resolution"

    @pytest.mark.parametrize("r_range", [[0.0, 0.5], (0, 0.5), (np.float32(0.0), np.float64(0.5))])
    def test_range_is_stored_as_a_tuple_of_floats(self, r_range):
        spec = SweepSpec("neg_pct_diff_mixture", r_range)
        expected = SweepSpec("neg_pct_diff_mixture", (0.0, 0.5))
        assert spec.r_range == (0.0, 0.5) and all(type(x) is float for x in spec.r_range)
        assert spec == expected and hash(spec) == hash(expected)

    @pytest.mark.parametrize("metric", ["neg_pct_diff_mixture", "phase_curve"])
    def test_numpy_integer_resolution_sweeps_as_its_int(self, metric):
        spec = SweepSpec(metric, resolution=np.int64(5))
        assert type(spec.resolution) is int and spec == SweepSpec(metric, resolution=5)
        grid, expected = run_sweep(spec), run_sweep(SweepSpec(metric, resolution=5))
        for emit in (emit_csv, emit_json):
            assert emitted(emit, grid) == emitted(emit, expected)

    def test_phase_curve_wider_domain(self):
        SweepSpec("phase_curve", r_range=(0.0, 1.5), resolution=11)
        with pytest.raises(ValueError, match="domain"):
            SweepSpec("phase_curve", r_range=(0.0, math.pi / 2), resolution=11)


class TestRunSweep:
    def test_corner_cell_is_exact_zero(self):
        grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=5))
        assert grid.values[0, 0] == 0.0

    def test_mixture_grid_positive_off_corner(self):
        grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=21))
        assert grid.values.min() >= 0.0
        mask = np.ones_like(grid.values, dtype=bool)
        mask[0, 0] = False
        off_diag = ~np.eye(21, dtype=bool) & mask
        assert (grid.values[off_diag] > 0.0).all()

    # Both axes sample one range, so every 2-D grid is its own transpose, bit for bit.
    RANGES = [(0.0, math.pi / 4), (0.1, 0.7), (0.75, 0.7500001), (0.3, 0.3)]

    def test_grid_symmetry(self):
        for metric in ("neg_pct_diff_mixture", "neg_pct_diff_convex"):
            for r_range in self.RANGES:
                grid = run_sweep(SweepSpec(metric, r_range, resolution=15))
                assert grid.axes[0] is grid.axes[1]
                assert np.array_equal(grid.values, grid.values.T), r_range

    def test_coherent_grid_symmetry(self):
        for r_range in self.RANGES:
            grid = run_sweep(SweepSpec("coherent_info_diff", r_range, resolution=7))
            assert grid.axes[0] is grid.axes[1]
            assert np.array_equal(grid.values, grid.values.T), r_range

    # 51: one block; 401: 41 blocks, the last a single row; 409: a ragged last block.
    @pytest.mark.parametrize("resolution", [51, 401, 409])
    @pytest.mark.parametrize("metric", sweep.TWO_D_METRICS)
    def test_blocks_equal_one_call_over_the_whole_grid(self, metric, resolution):
        spec = SweepSpec(metric, resolution=resolution)
        values = run_sweep(spec).values
        assert np.array_equal(values, reference_grid_sweep(spec))
        # The row route takes r1 as a numpy scalar, whose ``** 2`` is libm pow.
        assert np.abs(values - reference_row_sweep(spec)).max() <= 1e-13

    def test_non_finite_cell_in_the_last_block_raises(self, monkeypatch):
        row = sweep._row

        def poisoned(metric, r1, r2s):
            values = row(metric, r1, r2s)
            if r1[-1, 0] == sweep.MAX_R_2D:
                values[-1, -1] = np.nan
            return values

        monkeypatch.setattr(sweep, "_row", poisoned)
        with pytest.raises(ValueError, match="sweep produced non-finite values"):
            run_sweep(SweepSpec("coherent_info_diff", resolution=409))

    def test_non_finite_phase_curve_raises(self, monkeypatch):
        monkeypatch.setattr(metrics, "negativity_avg_closed", lambda r1, r2, dphi: np.full(r1.shape, np.inf))
        with pytest.raises(ValueError, match="sweep produced non-finite values"):
            run_sweep(SweepSpec("phase_curve", resolution=11))

    def test_convex_diff_vanishes_on_diagonal(self):
        grid = run_sweep(SweepSpec("neg_pct_diff_convex", resolution=15))
        assert np.abs(np.diagonal(grid.values)).max() < 1e-10

    @pytest.mark.parametrize(
        "metric, baseline",
        [
            ("neg_pct_diff_mixture", metrics.negativity_mixture_closed),
            ("neg_pct_diff_convex", metrics.negativity_convex_avg),
        ],
    )
    def test_pct_cells_match_scalar_closed_forms(self, metric, baseline):
        grid = run_sweep(SweepSpec(metric, resolution=41))
        for i, r1 in enumerate(grid.axes[0]):
            for j, r2 in enumerate(grid.axes[1]):
                r1, r2 = float(r1), float(r2)
                avg, base = metrics.negativity_avg_closed(r1, r2), baseline(r1, r2)
                assert abs(grid.values[i, j] - 100.0 * (avg - base) / base) <= 1e-12

    def test_phase_curve_values(self):
        grid = run_sweep(SweepSpec("phase_curve", r_range=(0.0, 1.5), resolution=301))
        assert grid.values[0] == 0.5
        # The advantage over the single channel peaks where the gap's
        # derivative vanishes, at cos(r) = 1/2.
        gap = grid.values - np.cos(grid.axes[0]) ** 2 / 2
        r_star = grid.axes[0][int(np.argmax(gap))]
        assert abs(r_star - math.pi / 3) < 0.01


class TestEmitCsv:
    def test_two_by_two_grid_line_count(self):
        grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=2))
        buf = io.StringIO()
        emit_csv(grid, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 5
        assert lines[0] == "r1,r2,value"

    def test_deterministic_bytes(self):
        spec = SweepSpec("neg_pct_diff_convex", resolution=11)
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            emit_csv(run_sweep(spec), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_round_trip(self):
        grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=6))
        buf = io.StringIO()
        emit_csv(grid, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        parsed = np.array([float(row[2]) for row in rows]).reshape(6, 6)
        assert np.abs(parsed - grid.values).max() < 1e-11
        r1_parsed = np.array([float(row[0]) for row in rows]).reshape(6, 6)[:, 0]
        assert np.abs(r1_parsed - grid.axes[0]).max() < 1e-11

    def test_row_order(self):
        grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=3))
        buf = io.StringIO()
        emit_csv(grid, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        r1s = [float(row[0]) for row in rows]
        r2s = [float(row[1]) for row in rows]
        assert r1s == sorted(r1s)
        assert r2s[:3] == sorted(r2s[:3])

    def test_phase_curve_header(self):
        grid = run_sweep(SweepSpec("phase_curve", r_range=(0.0, 0.5), resolution=4))
        buf = io.StringIO()
        emit_csv(grid, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "r,value"
        assert len(lines) == 5

    def test_writes_to_path(self, tmp_path):
        target = tmp_path / "grid.csv"
        emit_csv(run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=3)), str(target))
        assert target.read_text().startswith("r1,r2,value\n")

    def test_write_failure_names_destination(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv(
                run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=2)),
                str(tmp_path / "no/such/dir/grid.csv"),
            )


class TestEmitJson:
    def test_schema_keys(self):
        buf = io.StringIO()
        emit_json(run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=3)), buf)
        doc = json.loads(buf.getvalue())
        assert set(doc) == {"spec", "axes", "values"}

    def test_round_trip_exact(self):
        grid = run_sweep(SweepSpec("coherent_info_diff", resolution=5))
        buf = io.StringIO()
        emit_json(grid, buf)
        doc = json.loads(buf.getvalue())
        assert np.array_equal(np.array(doc["values"]), grid.values)
        assert np.array_equal(np.array(doc["axes"][0]), grid.axes[0])
        assert doc["spec"]["resolution"] == 5

    def test_deterministic_bytes(self):
        spec = SweepSpec("phase_curve", r_range=(0.0, 1.2), resolution=17)
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            emit_json(run_sweep(spec), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


# Zeros of both signs, subnormals, DBL_MAX, and values on either side of the
# points where ".12g" switches between fixed and exponent form.
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-5, -1e-5, 1e-4, 9.999999999995e-5,
    9.999999999999e-5, 999999999999.0, 999999999999.5, 1e12, 1e16,
    sys.float_info.max, -sys.float_info.max, math.inf,
]


class TestEmitterOracle:
    """Both emitters write the reference emitters' bytes to every destination."""

    @pytest.mark.parametrize("fmt", sorted(EMITTERS))
    @pytest.mark.parametrize("resolution", [2, 3, 41])
    @pytest.mark.parametrize("metric", sweep.METRICS)
    def test_every_metric_and_destination(self, metric, resolution, fmt, tmp_path):
        emit, reference = EMITTERS[fmt]
        grid = run_sweep(SweepSpec(metric, resolution=resolution))
        expected = emitted(reference, grid)
        assert emitted(emit, grid) == expected
        emit(grid, str(tmp_path / "grid"))
        reference(grid, str(tmp_path / "reference"))
        assert (tmp_path / "grid").read_bytes() == (tmp_path / "reference").read_bytes()
        out = io.StringIO()
        argv = ["sweep", "--metric", metric, "--resolution", str(resolution),
                "--format", fmt, "--out", "-"]
        assert cli.run(argv, stdout=out) == 0
        assert out.getvalue() == expected

    @pytest.mark.parametrize("fmt", sorted(EMITTERS))
    def test_edge_values_2d(self, fmt):
        emit, reference = EMITTERS[fmt]
        edges = np.array(EDGE_VALUES)
        grid = SweepGrid(SweepSpec("neg_pct_diff_mixture", resolution=4),
                         [edges[:4], edges[4:8]], edges.reshape(4, 4)[::-1])
        assert emitted(emit, grid) == emitted(reference, grid)

    @pytest.mark.parametrize("fmt", sorted(EMITTERS))
    def test_edge_values_1d(self, fmt):
        emit, reference = EMITTERS[fmt]
        edges = np.array(EDGE_VALUES)
        grid = SweepGrid(SweepSpec("phase_curve", resolution=len(edges)), [edges], edges[::-1])
        assert emitted(emit, grid) == emitted(reference, grid)

    @pytest.mark.parametrize("fmt", sorted(EMITTERS))
    @pytest.mark.parametrize(
        "case, one_d, cells, cpus, forks",
        [
            pytest.param(case, one_d, cells, cpus, forks, id=f"{case}-{'1d' if one_d else '2d'}")
            for case, one_d, cells, cpus, forks in [
                ("two-cpus", False, 3 * sweep._PARALLEL_CELLS // 2, 2, 1),
                ("two-cpus", True, 3 * sweep._PARALLEL_CELLS // 2, 2, 1),
                ("three-cpus", False, 3 * sweep._PARALLEL_CELLS // 2, 3, 2),
                ("one-cpu", False, 3 * sweep._PARALLEL_CELLS // 2, 1, 0),
                ("no-fork", False, 3 * sweep._PARALLEL_CELLS // 2, 2, 0),
                ("below", False, sweep._PARALLEL_CELLS - 1, 2, 0),
                ("below", True, sweep._PARALLEL_CELLS - 1, 2, 0),
            ]
        ],
    )
    def test_any_part_count_writes_the_reference_bytes(
        self, monkeypatch, tmp_path, case, cells, cpus, forks, one_d, fmt
    ):
        """Forked parts (1 or 2 children) and the one-part cases write the same bytes."""
        emit, _ = EMITTERS[fmt]
        grid = _grid_of(cells, one_d)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        started = []
        if case == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            fork = _no_fork if case == "below" else os.fork
            monkeypatch.setattr(os, "fork", lambda: started.append(1) or fork())
        expected = _reference_text(fmt, cells, one_d)
        assert emitted(emit, grid) == expected
        emit(grid, str(tmp_path / "grid"))
        assert (tmp_path / "grid").read_bytes() == expected.encode()
        # A 1-D JSON curve is one row, one encoder call, so one process writes it.
        assert len(started) == (0 if one_d and fmt == "json" else 2 * forks)
        _assert_no_child_left()

    @pytest.mark.parametrize("fmt", sorted(EMITTERS))
    def test_failing_child_part_raises_and_leaves_no_child(self, monkeypatch, capsys, fmt):
        emit, _ = EMITTERS[fmt]
        grid = _grid_of(sweep._PARALLEL_CELLS, one_d=False)
        grid = SweepGrid(grid.spec, grid.axes, grid.values.view(_FailsInChild))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(RuntimeError, match="forked sweep part exited with status 1"):
            emit(grid, _Discard())
        _assert_no_child_left()
        monkeypatch.setattr(cli, "run_sweep", lambda spec: grid)
        argv = ["sweep", "--metric", "neg_pct_diff_mixture", "--format", fmt, "--out", "-"]
        assert cli.run(argv, stdout=_Discard()) == 1
        assert "internal error: a forked sweep part" in capsys.readouterr().err
        _assert_no_child_left()

    @pytest.mark.parametrize("fmt", sorted(EMITTERS))
    @pytest.mark.parametrize("module, name", [(os, "fork"), (tempfile, "TemporaryFile")],
                             ids=["fork", "temporary-file"])
    def test_failed_second_part_start_is_internal_error(self, monkeypatch, capsys, module, name, fmt):
        """An OSError starting a part is the host's, not --out's; the started child is reaped."""
        emit, _ = EMITTERS[fmt]
        grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=401))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})  # three parts
        start, calls = getattr(module, name), []

        def every_second_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) % 2 == 0:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return start(*args, **kwargs)

        monkeypatch.setattr(module, name, every_second_call_fails)
        refused = rf"cannot start a forked sweep part: \[Errno {errno.EAGAIN}\]"
        with pytest.raises(RuntimeError, match=refused):
            emit(grid, _Discard())
        _assert_no_child_left()
        argv = ["sweep", "--metric", "neg_pct_diff_mixture", "--resolution", "401",
                "--format", fmt, "--out", "-"]
        assert cli.run(argv, stdout=_Discard()) == 1
        assert "internal error: cannot start a forked sweep part" in capsys.readouterr().err
        _assert_no_child_left()
        assert len(calls) == 4

    @pytest.mark.parametrize("fmt", sorted(EMITTERS))
    @pytest.mark.parametrize("writes", [10, 210], ids=["own-part", "splice"])
    def test_failing_stream_propagates_and_leaves_no_child(self, monkeypatch, capsys, writes, fmt):
        emit, _ = EMITTERS[fmt]
        # 401 rows: the parent writes the header and 200 rows, then splices.
        grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=401))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(OSError, match="disk full"):
            emit(grid, _FailsAfter(writes))
        _assert_no_child_left()
        argv = ["sweep", "--metric", "neg_pct_diff_mixture", "--resolution", "401",
                "--format", fmt, "--out", "-"]
        # A failed write to the output stream is no usage error (only an --out path is).
        assert cli.run(argv, stdout=_FailsAfter(writes)) == 1
        assert capsys.readouterr().err == "internal error: disk full\n"
        _assert_no_child_left()


@functools.lru_cache(maxsize=None)
def _grid_of(cells: int, one_d: bool) -> SweepGrid:
    """A 1-D curve of ``cells`` points, or a near-square 2-D grid of at least ``cells`` cells."""
    if one_d:
        r = np.linspace(0.0, 1.5, cells)
        return SweepGrid(SweepSpec("phase_curve", resolution=2001), [r], np.cos(r) ** 2 / 2)
    rows = math.isqrt(cells)
    r1 = np.linspace(0.0, math.pi / 4, rows)
    r2 = np.linspace(0.0, math.pi / 4, -(-cells // rows))
    return SweepGrid(SweepSpec("neg_pct_diff_mixture", resolution=2001), [r1, r2],
                     metrics.negativity_avg_closed(r1[:, np.newaxis], r2))


@functools.lru_cache(maxsize=None)
def _reference_text(fmt: str, cells: int, one_d: bool) -> str:
    return emitted(EMITTERS[fmt][1], _grid_of(cells, one_d))


def _no_fork():
    raise AssertionError("os.fork called below the parallel threshold")


def _assert_no_child_left():
    """Every child this process started has been reaped (none running, none a zombie)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_TEST_PID = os.getpid()


class _FailsInChild(np.ndarray):
    """Values whose rows cannot be listed in any process but this one."""

    def tolist(self):
        if os.getpid() != _TEST_PID:
            raise RuntimeError("row listed in a child")
        return super().tolist()


class _Discard(io.TextIOBase):
    """A text stream that keeps nothing, so only the emitter's own allocations count."""

    def write(self, text):
        return len(text)


class _FailsAfter(_Discard):
    """A text stream whose ``write`` raises once ``writes`` calls have succeeded."""

    def __init__(self, writes):
        self.left = writes

    def write(self, text):
        self.left -= 1
        if self.left < 0:
            raise OSError("disk full")
        return len(text)


@pytest.mark.parametrize("emit", [emit_csv, emit_json])
def test_emitter_holds_one_row_at_a_time(emit):
    grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=401))
    tracemalloc.start()
    try:
        emit(grid, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The whole grid as Python floats (values.tolist()) is about 5 MB.
    assert peak < 1_000_000


@pytest.mark.parametrize("resolution", [401, sweep.MAX_RESOLUTION])
def test_sweep_holds_one_block_at_a_time(resolution):
    tracemalloc.start()
    try:
        grid = run_sweep(SweepSpec("coherent_info_diff", resolution=resolution))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One call over the whole 2001^2 grid would hold about 20 grid-sized temporaries.
    assert peak - grid.values.nbytes <= 1_000_000
