"""Tests for the command-line frontend."""

import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hawkchan
from hawkchan import cli, metrics, protocol
from hawkchan.channel import ChannelParams

from helpers import geometry_r_oracle


def run_json(argv):
    buf = io.StringIO()
    code = cli.run(argv + ["--format", "json"], stdout=buf)
    assert code == 0, buf.getvalue()
    return json.loads(buf.getvalue())


class TestProtocolCommand:
    def test_degenerate_branches(self):
        doc = run_json(["protocol", "--r1", "0", "--r2", "0"])
        assert abs(doc["p_plus"] - 1.0) < 1e-12
        assert abs(doc["negativity_avg"] - 0.5) < 1e-12
        assert doc["rho_minus"] is None

    def test_numbers_match_library_bit_for_bit(self):
        doc = run_json(["protocol", "--r1", "0.2", "--r2", "0.7"])
        cfg = protocol.ProtocolConfig(ChannelParams(0.2), ChannelParams(0.7))
        stats = protocol.measure_control(cfg)
        assert doc["p_plus"] == stats.p_plus
        assert doc["a_scalar"] == stats.a_scalar
        branches = [(stats.p_plus, stats.rho_plus), (stats.p_minus, stats.rho_minus)]
        assert doc["negativity_avg"] == metrics.average_branch_negativity(branches)
        assert doc["negativity_avg_closed"] == metrics.negativity_avg_closed(0.2, 0.7)
        mixture = protocol.classical_mixture(cfg)
        assert doc["negativity_mixture"] == metrics.negativity(mixture)
        assert doc["coherent_info_mixture"] == metrics.coherent_information(mixture)

    def test_closed_form_reported_for_unequal_phases(self):
        doc = run_json(["protocol", "--r1", "0.2", "--r2", "0.7", "--phi2", "1.0"])
        assert doc["negativity_avg_closed"] == metrics.negativity_avg_closed(0.2, 0.7, -1.0)
        assert abs(doc["negativity_avg_closed"] - doc["negativity_avg"]) < 1e-10

    def test_negative_scientific_notation_is_a_value(self):
        spaced, joined = io.StringIO(), io.StringIO()
        argv = ["protocol", "--r1", "0.2", "--r2", "0.7", "--format", "json"]
        assert cli.run(argv + ["--phi2", "-1e-17"], stdout=spaced) == 0
        assert cli.run(argv + ["--phi2=-1e-17"], stdout=joined) == 0
        assert spaced.getvalue() == joined.getvalue()
        assert isinstance(json.loads(spaced.getvalue())["negativity_avg_closed"], float)

    @pytest.mark.parametrize("index, key", [(0, "coherent_info_ensemble"), (1, "coherent_info_mixture")])
    def test_coherent_information_gap_is_internal_error(self, monkeypatch, capsys, index, key):
        closed = metrics.coherent_info_closed

        def shifted(*args):
            values = list(closed(*args))
            values[index] += 1e-9
            return tuple(values)

        monkeypatch.setattr(metrics, "coherent_info_closed", shifted)
        buf = io.StringIO()
        assert cli.run(["protocol", "--r1", "0.2", "--r2", "0.7", "--phi2", "1.0"], stdout=buf) == 1
        assert buf.getvalue() == ""
        assert f"{key} differs from numeric by 1.000e-09" in capsys.readouterr().err

    def test_human_format(self):
        buf = io.StringIO()
        assert cli.run(["protocol", "--r1", "0.1", "--r2", "0.3"], stdout=buf) == 0
        text = buf.getvalue()
        assert "p_plus = " in text and "rho_plus:" in text


class TestChannelCommand:
    def test_negativity_closed_form(self):
        doc = run_json(["channel", "--r", "0.4"])
        assert abs(doc["negativity"] - math.cos(0.4) ** 2 / 2) < 1e-10
        assert doc["negativity_closed_form"] == math.cos(0.4) ** 2 / 2

    def test_kraus_matrices_present(self):
        doc = run_json(["channel", "--r", "0.4", "--phi", "1.1"])
        m1 = np.array([[complex(re, im) for re, im in row] for row in doc["kraus_m1"]])
        assert abs(m1[1, 0] - np.exp(-1.1j) * math.sin(0.4)) < 1e-15
        assert doc["ppt"] is False

    def test_global_flag_position(self):
        before = io.StringIO()
        after = io.StringIO()
        assert cli.run(["--format", "json", "channel", "--r", "0.4"], stdout=before) == 0
        assert cli.run(["channel", "--r", "0.4", "--format", "json"], stdout=after) == 0
        assert before.getvalue() == after.getvalue()

    def test_config_echo(self):
        doc = run_json(["channel", "--r", "0.4"])
        assert doc["config"] == {
            "subcommand": "channel",
            "r": 0.4,
            "phi": 0.0,
            "state": "bell",
            "format": "json",
        }


class TestGeometryCommand:
    def test_matches_oracle(self):
        doc = run_json(["geometry", "--mass", "1", "--radius", "2.02", "--k0", "0.05"])
        assert abs(doc["r"] - geometry_r_oracle(1.0, 2.02, 0.05)) < 1e-13
        assert doc["horizon_radius"] == 2.0
        assert doc["kappa"] == 0.25

    def test_inside_horizon_is_usage_error(self, capsys):
        code = cli.run(["geometry", "--mass", "1", "--radius", "1.9", "--k0", "0.1"])
        assert code == 2
        assert "observer inside horizon" in capsys.readouterr().err


class TestPhaseCommand:
    def test_quantities(self):
        doc = run_json(["phase", "--r", "0.5"])
        stats = protocol.phase_protocol(0.5)
        assert doc["p_plus"] == stats.p_plus
        assert doc["negativity_avg_closed"] == abs(math.cos(0.5)) / 2
        assert abs(doc["negativity_avg"] - abs(math.cos(0.5)) / 2) < 1e-12
        assert doc["negativity_single_channel"] < doc["negativity_avg"]


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli.run(["channel", "--r", "0.3", "--bogus", "1"]) == 2
        assert "--bogus" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert cli.run(["channel"]) == 2
        assert "--r is required" in capsys.readouterr().err

    def test_out_of_domain_value(self, capsys):
        assert cli.run(["channel", "--r", "3.5"]) == 2
        assert "squeezing" in capsys.readouterr().err

    def test_non_finite_value(self, capsys):
        assert cli.run(["channel", "--r", "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert cli.run([]) == 2
        assert "subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named, not_named",
        [
            (["sweep", "--metric", "neg_pct_diff_mixture", "--out", "-", "--resolution", "1000000000"],
             "--resolution", ("--metric", "--min", "--max")),
            (["sweep", "--metric", "neg_pct_diff_mixture", "--out", "-", "--max", "1.2"],
             "--min/--max", ("--metric", "--resolution")),
            (["protocol", "--r1", "2.0", "--r2", "0.3"], "--r1", ("--phi1", "--r2", "--phi2")),
        ],
    )
    def test_message_names_only_the_wrong_flag(self, capsys, argv, named, not_named):
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert not any(flag in err for flag in not_named), err


class TestConfigFile:
    def test_empty_object_uses_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        doc = run_json(["channel", "--r", "0.4", "--config", str(path)])
        assert doc["config"]["phi"] == 0.0

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"r1": 0.9, "r2": 0.3}))
        doc = run_json(["protocol", "--r1", "0.2", "--config", str(path)])
        assert doc["config"]["r1"] == 0.2
        assert doc["config"]["r2"] == 0.3

    def test_round_trip_reproduces_run(self, tmp_path):
        first = run_json(["protocol", "--r1", "0.25", "--r2", "0.65", "--phi1", "0.4"])
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(first["config"]))
        buf1, buf2 = io.StringIO(), io.StringIO()
        assert cli.run(["protocol", "--config", str(path)], stdout=buf1) == 0
        assert (
            cli.run(
                ["protocol", "--r1", "0.25", "--r2", "0.65", "--phi1", "0.4", "--format", "json"],
                stdout=buf2,
            )
            == 0
        )
        assert buf1.getvalue() == buf2.getvalue()

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"r": 0.4,\n  broken}')
        assert cli.run(["channel", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"radius": 2.5}))
        assert cli.run(["channel", "--r", "0.4", "--config", str(path)]) == 2
        assert "radius" in capsys.readouterr().err

    def test_subcommand_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"subcommand": "phase"}))
        assert cli.run(["channel", "--r", "0.4", "--config", str(path)]) == 2
        assert "subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["channel", "--r", "0.4"], "format", "xml"),
            (["sweep", "--metric", "phase_curve", "--out", "-"], "format", "xml"),
            (["sweep", "--out", "-"], "metric", "nope"),
            (["channel", "--r", "0.4"], "state", "ghz"),
        ],
    )
    def test_choice_outside_table_rejected(self, tmp_path, capsys, argv, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        assert cli.run(argv + ["--config", str(path)]) == 2
        assert f"--{key}" in capsys.readouterr().err


class TestSweepCommand:
    def test_writes_csv_file(self, tmp_path):
        target = tmp_path / "grid.csv"
        code = cli.run(
            ["sweep", "--metric", "neg_pct_diff_mixture", "--resolution", "4", "--out", str(target)]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "r1,r2,value"
        assert len(lines) == 17

    def test_writes_json_file(self, tmp_path):
        target = tmp_path / "grid.json"
        code = cli.run(
            [
                "sweep",
                "--metric",
                "phase_curve",
                "--resolution",
                "5",
                "--max",
                "1.5",
                "--out",
                str(target),
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert set(doc) == {"spec", "axes", "values"}

    def test_stdout_dash(self, capsys):
        code = cli.run(["sweep", "--metric", "neg_pct_diff_mixture", "--resolution", "2", "--out", "-"])
        assert code == 0
        assert capsys.readouterr().out.startswith("r1,r2,value\n")

    def test_invalid_metric(self, capsys):
        assert cli.run(["sweep", "--metric", "nope", "--out", "-"]) == 2
        assert "--metric" in capsys.readouterr().err

    def test_out_of_domain_range(self, capsys):
        code = cli.run(
            ["sweep", "--metric", "neg_pct_diff_mixture", "--max", "1.2", "--out", "-"]
        )
        assert code == 2
        assert "domain" in capsys.readouterr().err

    def test_resolution_above_cap_is_usage_error(self, monkeypatch, capsys):
        def must_not_run(spec):
            raise AssertionError("a capped resolution reached the sweep")

        monkeypatch.setattr(cli, "run_sweep", must_not_run)
        argv = ["sweep", "--metric", "neg_pct_diff_mixture", "--out", "-"]
        assert cli.run(argv + ["--resolution", "1000000000"]) == 2
        assert "--resolution" in capsys.readouterr().err

    def test_missing_out(self, capsys):
        assert cli.run(["sweep", "--metric", "phase_curve"]) == 2
        assert "--out is required" in capsys.readouterr().err

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        code = cli.run(
            [
                "sweep",
                "--metric",
                "phase_curve",
                "--resolution",
                "2",
                "--out",
                str(tmp_path / "missing/dir/grid.csv"),
            ]
        )
        assert code == 2
        assert "--out" in capsys.readouterr().err


class TestRepeatedRuns:
    """One process serves many `cli.run` calls; nothing carries over between them."""

    @staticmethod
    def fresh_process(argv):
        src = os.path.dirname(os.path.dirname(hawkchan.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "hawkchan.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    def test_each_run_prints_what_a_fresh_process_prints(self, tmp_path, capsys):
        config = tmp_path / "phi2.json"
        config.write_text(json.dumps({"phi2": 1.0}))
        query = ["protocol", "--r1", "0.2", "--r2", "0.7", "--format", "json"]
        runs = [
            ["protocol", "--r1", "abc", "--r2", "0.7"],
            query,
            query + ["--config", str(config)],
            query,
        ]
        in_process = []
        for argv in runs:
            out = io.StringIO()
            code = cli.run(argv, stdout=out)
            in_process.append((code, out.getvalue(), capsys.readouterr().err))
        assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
        assert json.loads(in_process[2][1])["config"]["phi2"] == 1.0
        assert json.loads(in_process[3][1])["config"]["phi2"] == 0.0
        assert in_process == [self.fresh_process(argv) for argv in runs]


class TestInternalErrorPath:
    def test_library_failure_maps_to_exit_one(self, monkeypatch, capsys):
        def boom(cfg):
            raise ValueError("invariant violated")

        monkeypatch.setattr(cli.protocol, "measure_control", boom)
        assert cli.run(["protocol", "--r1", "0.1", "--r2", "0.2"]) == 1
        assert "internal error" in capsys.readouterr().err
