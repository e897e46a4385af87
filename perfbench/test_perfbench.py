"""Tests of the benchmark itself: span arithmetic, checkers and the tracer.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -t perfbench
"""

import io
import json
import math
import os
import shutil
import sys
import tempfile
import unittest
from unittest import mock

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, sweep_op  # noqa: E402

from hawkchan import cli  # noqa: E402


def _run(op, pass_dir="."):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stderr = sys.stderr, err
    try:
        code = cli.run(op.argv_for(pass_dir), stdout=out)
    finally:
        sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # 0 [0, 10] has children 1 [1, 4] and 2 [3, 6] (overlapping, union 5)
        # and 3 [8, 12] (clipped to 2); 1 has child 4 [2, 3].
        start = [0.0, 1.0, 3.0, 8.0, 2.0]
        end = [10.0, 4.0, 6.0, 12.0, 3.0]
        parent = [-1, 0, 0, 0, 1]
        self.assertEqual(tracer.self_times(start, end, parent), [3.0, 2.0, 3.0, 4.0, 1.0])

    def test_layer_report_from_saved_spans(self):
        # cli.run [0, 10] -> protocol.measure_control [1, 7] -> linop.check_density_matrix [2, 5]
        t = tracer.Tracer()
        t.names = ["cli.run", "protocol.measure_control", "linop.check_density_matrix"]
        for name, s, e, p, raised in ((0, 0.0, 10.0, -1, 0), (1, 1.0, 7.0, 0, 1),
                                      (2, 2.0, 5.0, 1, 1)):
            t.name.append(name)
            t.start.append(s)
            t.end.append(e)
            t.parent.append(p)
            t.op.append(0)
            t.raised.append(raised)
        t.validated = {(0, b"a")}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.npz")
            t.save(path)
            out = tracer.per_layer_metrics(path, ops=2, output_bytes=8,
                                           traced_seconds_per_op=3.0, untraced_seconds_per_op=2.0)
        self.assertEqual(list(out), list(tracer.PER_LAYER_METRICS))
        self.assertEqual(out["cli.self_us_per_op"], 2e6)
        self.assertEqual(out["protocol.self_us_per_op"], 1.5e6)
        self.assertEqual(out["linop.self_us_per_op"], 1.5e6)
        self.assertAlmostEqual(out["linop.self_share"], 0.3)
        self.assertEqual(out["linop.check_density_matrix_calls_per_op"], 0.5)
        self.assertEqual(out["linop.revalidation_ratio"], 1.0)
        self.assertEqual(out["protocol.measure_control_us_p50"], 6e6)
        self.assertEqual((out["protocol.exceptions"], out["cli.exceptions"]), (1, 0))
        self.assertEqual(out["sweep.output_bytes_per_op"], 4.0)
        self.assertEqual(out["trace.overhead_ratio"], 0.5)


class TracerTest(unittest.TestCase):
    def _bindings(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("hawkchan")]
        snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        snapshot[("numpy.linalg", "eigvalsh")] = np.linalg.eigvalsh
        return snapshot

    def test_install_patches_every_binding_and_uninstall_restores_them(self):
        before = self._bindings()
        t = tracer.Tracer()
        t.install()
        try:
            during = self._bindings()
            t.op_id = 0
            code, _, _ = _run(WORKLOADS["point-queries"].warmup_op())
        finally:
            t.uninstall()
        self.assertEqual(code, 0)
        self.assertIsNot(during[("hawkchan.sweep", "measure_control")],
                         before[("hawkchan.sweep", "measure_control")])
        self.assertIsNot(during[("hawkchan", "negativity")], before[("hawkchan", "negativity")])
        self.assertIsNot(during[("numpy.linalg", "eigvalsh")], np.linalg.eigvalsh)
        names = {t.names[i] for i in t.name}
        self.assertIn("cli.run", names)
        self.assertIn("linop.check_density_matrix", names)
        self.assertGreater(t.eigvalsh_calls, 0)
        after = self._bindings()
        self.assertEqual(after.keys(), before.keys())
        self.assertTrue(all(after[k] is before[k] for k in before))


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.tmp)

    def _sweep(self, op):
        self.assertEqual(_run(op, self.tmp)[0], 0)
        return os.path.join(self.tmp, op.out)

    def _corrupt_value(self, path, row):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        fields = lines[row].rstrip("\n").split(",")
        fields[-1] = repr(float(fields[-1]) + 1e-6)
        lines[row] = ",".join(fields) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)

    def test_numeric_grid(self):
        op = sweep_op("coherent_info_diff", 0.05, 0.7, 5, "csv")
        path = self._sweep(op)
        self.assertEqual(checks.check_sweep(op, self.tmp, seed=3), [])
        values = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
        self.assertLess(np.abs(values[::6]).max(), checks.DIAGONAL_TOL)
        self._corrupt_value(path, 1)  # cell (0, 0), on the diagonal
        self.assertTrue(checks.check_sweep(op, self.tmp, seed=3))

    def test_numeric_oracle_catches_an_off_diagonal_cell(self):
        op = sweep_op("coherent_info_diff", 0.05, 0.7, 3, "csv")
        path = self._sweep(op)
        # With a 3x3 grid the seeded sample covers every off-diagonal cell.
        for row in (2, 3, 4, 6, 7, 8):
            self._corrupt_value(path, row)
            self.assertTrue(checks.check_sweep(op, self.tmp, seed=0), row)
            self._sweep(op)

    def test_closed_grids_and_csv_json_agreement(self):
        for metric in ("neg_pct_diff_mixture", "neg_pct_diff_convex"):
            csv_op = sweep_op(metric, 0.02, 0.75, 7, "csv")
            json_op = sweep_op(metric, 0.02, 0.75, 7, "json")
            csv_path, json_path = self._sweep(csv_op), self._sweep(json_op)
            self.assertEqual(checks.check_sweep(csv_op, self.tmp, 0), [])
            self.assertEqual(checks.check_sweep(json_op, self.tmp, 0), [])
            self._corrupt_value(csv_path, 20)
            self.assertTrue(checks.check_sweep(csv_op, self.tmp, 0))
            self.assertTrue(checks.check_sweep(json_op, self.tmp, 0))  # CSV and JSON disagree
            self._sweep(csv_op)
            with open(json_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["values"][3][4] += 1e-6
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.assertTrue(checks.check_sweep(json_op, self.tmp, 0))

    def test_phase_curve(self):
        op = sweep_op("phase_curve", 0.0, 1.5, 9, "csv")
        path = self._sweep(op)
        self.assertEqual(checks.check_sweep(op, self.tmp, 0), [])
        self._corrupt_value(path, 5)
        self.assertTrue(checks.check_sweep(op, self.tmp, 0))

    def test_every_query_kind_passes_and_a_corruption_is_flagged(self):
        ops = WORKLOADS["point-queries"].pass_ops(seed=5, index=0)
        seen = set()
        for op in ops:
            code, stdout, stderr = _run(op)
            self.assertEqual(checks.check_query(op, code, stdout, stderr), [], op.argv)
            self.assertTrue(checks.check_query(op, 1 - code if code else 2, stdout, stderr))
            if op.kind in seen:
                continue
            seen.add(op.kind)
            if code == 2:
                self.assertTrue(checks.check_query(op, 2, stdout, "usage error: --x: bad"))
                continue
            out = json.loads(stdout)
            field = {"protocol": "p_plus", "phase": "negativity_avg", "channel": "negativity",
                     "geometry": "r"}[op.kind]
            out[field] += 1e-6
            self.assertTrue(checks.check_query(op, code, json.dumps(out), stderr), op.kind)
        self.assertEqual(seen, {"protocol", "channel", "phase", "geometry",
                                "bad-protocol", "bad-phase"})

    def test_equal_phase_protocol_needs_its_closed_form(self):
        op = next(o for o in WORKLOADS["point-queries"].pass_ops(seed=1, index=0)
                  if o.kind == "protocol" and o.params["phi1"] == o.params["phi2"])
        code, stdout, stderr = _run(op)
        out = json.loads(stdout)
        out["negativity_avg_closed"] = None
        self.assertTrue(checks.check_query(op, code, json.dumps(out), stderr))

    def test_changed_file_or_exit_code_in_a_later_pass_is_flagged(self):
        workload = WORKLOADS["grid-numeric"]
        cells = workload.pass_ops(0, 0)[0].cells
        with open(os.path.join(self.tmp, "ops.jsonl"), "w", encoding="utf-8") as fh:
            for index, digest, code in ((0, "a", 0), (1, "a", 0), (2, "b", 0), (3, "a", 1)):
                fh.write(json.dumps({"pass": index, "op": 0, "code": code, "seconds": 1.0,
                                     "stdout": "", "stderr": "", "sha256": digest}) + "\n")
        # The content of pass 0 is checked above; here only hashes and exit codes matter.
        with mock.patch.object(checks, "check_sweep", return_value=[]):
            attempted, failed, _, problems = run.check_ops(workload, 0, self.tmp)
        self.assertEqual((attempted, failed, len(problems)), (4 * cells, 2 * cells, 2))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         tracer.PER_LAYER_METRICS)

    def test_workloads_are_seeded(self):
        for workload in WORKLOADS.values():
            first = [op.argv for op in workload.pass_ops(7, 3)]
            self.assertEqual(first, [op.argv for op in workload.pass_ops(7, 3)])
            self.assertNotEqual(first, [op.argv for op in workload.pass_ops(8, 3)])

    def test_percentile(self):
        values = list(range(1, 1002))
        self.assertTrue(math.isclose(run.percentile(values, 99.0), 991.0))
        self.assertTrue(math.isclose(run.percentile(values, 50.0), 501.0))
        self.assertEqual([run.tail_percentile(n) for n in (1000, 999, 200, 100, 40, 39)],
                         [99.0, 95.0, 95.0, 90.0, 75.0, 50.0])


if __name__ == "__main__":
    unittest.main()
