"""Tests for the sweep engine and its CSV/JSON emitters."""

import io
import json
import math

import numpy as np
import pytest

from hawkchan import metrics, sweep
from hawkchan.sweep import SweepSpec, emit_csv, emit_json, run_sweep


class TestSweepSpec:
    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            SweepSpec("negativity")

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            SweepSpec("neg_pct_diff_mixture", resolution=1)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec("neg_pct_diff_mixture", r1_range=(0.5, 0.2))

    def test_rejects_out_of_domain_2d(self):
        with pytest.raises(ValueError, match="domain"):
            SweepSpec("neg_pct_diff_mixture", r2_range=(0.0, 1.0))
        with pytest.raises(ValueError, match="domain"):
            SweepSpec("neg_pct_diff_convex", r1_range=(-0.1, 0.5))

    def test_resolution_cap(self):
        # A spec only records the resolution; neither call allocates a grid.
        assert sweep.MAX_RESOLUTION == 2001
        SweepSpec("neg_pct_diff_mixture", resolution=2001)
        with pytest.raises(ValueError, match="resolution"):
            SweepSpec("neg_pct_diff_mixture", resolution=2002)

    def test_phase_curve_wider_domain(self):
        SweepSpec("phase_curve", r1_range=(0.0, 1.5), resolution=11)
        with pytest.raises(ValueError, match="domain"):
            SweepSpec("phase_curve", r1_range=(0.0, math.pi / 2), resolution=11)


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

    def test_grid_symmetry(self):
        for metric in ("neg_pct_diff_mixture", "neg_pct_diff_convex"):
            grid = run_sweep(SweepSpec(metric, resolution=15))
            assert np.abs(grid.values - grid.values.T).max() < 1e-12

    def test_coherent_grid_symmetry(self):
        grid = run_sweep(SweepSpec("coherent_info_diff", resolution=7))
        assert np.abs(grid.values - grid.values.T).max() < 1e-12

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
        grid = run_sweep(SweepSpec("phase_curve", r1_range=(0.0, 1.5), resolution=301))
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
        grid = run_sweep(SweepSpec("phase_curve", r1_range=(0.0, 0.5), resolution=4))
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
        spec = SweepSpec("phase_curve", r1_range=(0.0, 1.2), resolution=17)
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            emit_json(run_sweep(spec), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
