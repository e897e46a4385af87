"""Tests for the command-line frontend."""

import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hawkchan
from hawkchan import cli, linop, metrics, protocol
from hawkchan.channel import BlackHoleGeometry, ChannelParams
from hawkchan.sweep import METRICS, SweepSpec, emit_csv, run_sweep

from helpers import emitted, geometry_r_oracle, reference_emit_csv, reference_emit_json


def run_json(argv):
    buf = io.StringIO()
    code = cli.run(argv + ["--format", "json"], stdout=buf)
    assert code == 0, buf.getvalue()
    return json.loads(buf.getvalue())


PROTOCOL_QUERY = ["protocol", "--r1", "0.2", "--r2", "0.7", "--phi2", "1.0"]


# Valid values of each subcommand's required flags.
VALID = {
    "geometry": {"mass": 1.0, "radius": 3.0, "k0": 0.05},
    "channel": {"r": 0.4},
    "protocol": {"r1": 0.2, "r2": 0.7},
    "phase": {"r": 0.5},
    "sweep": {"metric": "neg_pct_diff_mixture", "out": "-"},
}
NUMERIC_FLAGS = [(sub, flag, ftype) for sub, params in cli._PARAMS.items()
                 for flag, (ftype, *_) in params.items() if ftype is not str]


def given(subcommand, values, from_config, tmp_path):
    """The argv of ``subcommand`` with ``values`` as flags, or as the keys of a config file."""
    if from_config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        return [subcommand, "--config", str(path)]
    return [subcommand] + [f"--{k}={v}" for k, v in values.items()]


class TestProtocolCommand:
    def test_degenerate_branches(self):
        doc = run_json(["protocol", "--r1", "0", "--r2", "0"])
        assert abs(doc["p_plus"] - 1.0) < 1e-12
        assert abs(doc["negativity_avg"] - 0.5) < 1e-12
        assert doc["rho_minus"] is None

    def test_numbers_match_library_bit_for_bit(self):
        doc = run_json(["protocol", "--r1", "0.2", "--r2", "0.7"])
        stats = protocol.measure_control(ChannelParams(0.2), ChannelParams(0.7))
        assert doc["p_plus"] == stats.p_plus
        assert doc["a_scalar"] == stats.a_scalar
        mixture = stats.reports[-1]
        assert doc["negativity_avg"] == stats.negativity_avg
        assert doc["negativity_avg_closed"] == metrics.negativity_avg_closed(0.2, 0.7)
        assert doc["negativity_mixture"] == mixture.negativity_numeric
        assert doc["coherent_info_mixture"] == mixture.coherent_information

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

    @pytest.mark.parametrize(
        "argv, closed_form, index, key",
        [
            (PROTOCOL_QUERY, "coherent_info_closed", 0, "coherent_info_ensemble"),
            (PROTOCOL_QUERY, "coherent_info_closed", 1, "coherent_info_mixture"),
            (PROTOCOL_QUERY, "negativity_avg_closed", None, "negativity_avg"),
            (PROTOCOL_QUERY, "negativity_mixture_closed", None, "negativity_mixture"),
            (["phase", "--r", "0.5"], "negativity_avg_closed", None, "negativity_avg"),
        ],
        ids=["0-coherent_info_ensemble", "1-coherent_info_mixture",
             "protocol-negativity_avg", "protocol-negativity_mixture", "phase-negativity_avg"],
    )
    def test_coherent_information_gap_is_internal_error(
        self, monkeypatch, capsys, argv, closed_form, index, key
    ):
        """Every closed form a point query checks, coherent information's and the negativities'."""
        closed = getattr(metrics, closed_form)

        def shifted(*args):
            if index is None:
                return closed(*args) + 1e-9
            values = list(closed(*args))
            values[index] += 1e-9
            return tuple(values)

        monkeypatch.setattr(metrics, closed_form, shifted)
        buf = io.StringIO()
        assert cli.run(argv, stdout=buf) == 1
        assert buf.getvalue() == ""
        assert f"closed-form {key} differs from numeric by 1.000e-09" in capsys.readouterr().err

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

    def test_matrix_payload_keeps_signed_zeros(self):
        # At r = 0, M1[1, 0] = exp(-i phi) sin r is zero; at phi = 3 its imaginary part is -0.0.
        doc = run_json(["channel", "--r", "0", "--phi", "3.0"])
        re, im = doc["kraus_m1"][1][0]
        assert (re, im) == (0.0, 0.0)
        assert math.copysign(1.0, re) == 1.0 and math.copysign(1.0, im) == -1.0
        buf = io.StringIO()
        assert cli.run(["channel", "--r", "0", "--phi", "3.0"], stdout=buf) == 0
        lines = buf.getvalue().splitlines()
        row = lines[lines.index("kraus_m1:") + 2]
        assert row == "  [0.0-0.0j, 0.0+0.0j, 0.0+0.0j, 0.0+0.0j]"

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

    @pytest.mark.parametrize(
        "flags, r",
        [
            (["--mass", "1e307", "--radius", "1e308", "--k0", "1e300", "--hbar", "1e300"], 0.0),
            (["--mass", "1e-300", "--radius", "1", "--k0", "1"], 0.7853981633974483),
        ],
        ids=["exp-underflows", "exp-rounds-to-one"],
    )
    def test_floating_point_reaches_the_interval_endpoints(self, flags, r):
        doc = run_json(["geometry", *flags])
        assert doc["r"] == r
        assert r in (0.0, math.pi / 4)

    def test_inside_horizon_is_usage_error(self, capsys):
        code = cli.run(["geometry", "--mass", "1", "--radius", "1.9", "--k0", "0.1"])
        assert code == 2
        assert "observer inside horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("mass", -1.0, "mass must be positive and finite"),
            ("radius", 1.9, "observer inside horizon"),
            ("k0", 0.0, "k0 must be positive and finite"),
            ("hbar", -2.0, "hbar must be positive and finite"),
            ("mass", 1e-320, "surface gravity 1/(4*mass) overflows"),
        ],
        ids=["mass", "radius", "k0", "hbar", "mass-overflow"],
    )
    def test_domain_error_names_only_its_flag(
        self, tmp_path, capsys, flag, value, message, from_config
    ):
        argv = given("geometry", {**VALID["geometry"], flag: value}, from_config, tmp_path)
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert f"usage error: --{flag}: {message}" in err
        others = {"--mass", "--radius", "--k0", "--hbar"} - {f"--{flag}"}
        assert not any(other in err for other in others), err


class TestPhaseCommand:
    def test_quantities(self):
        doc = run_json(["phase", "--r", "0.5"])
        stats = protocol.measure_control(ChannelParams(0.5), ChannelParams(0.5, math.pi))
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

    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("subcommand, flag, ftype", NUMERIC_FLAGS,
                             ids=[f"{sub}-{flag}" for sub, flag, _ in NUMERIC_FLAGS])
    def test_bad_number_names_only_its_flag(
        self, tmp_path, capsys, subcommand, flag, ftype, value, from_config
    ):
        """The library refuses a non-finite value, the converter a non-number (int: both)."""
        argv = given(subcommand, {**VALID[subcommand], flag: value}, from_config, tmp_path)
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        # A refused value names its flag; a config value that is no number names its key.
        assert f"--{flag}" in err or f"--config: key {flag!r}" in err, err
        pair = {"--min", "--max"} if flag in ("min", "max") else {f"--{flag}"}
        others = {f"--{name}" for name in cli._PARAMS[subcommand]} - pair
        assert not any(re.search(re.escape(other) + r"(?!\w)", err) for other in others), err
        if value != "abc" and ftype is float:
            assert "finite" in err

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
            (["sweep", "--metric", "neg_pct_diff_mixture", "--min", "nan", "--out", "-"],
             "--min/--max", ("r1_range", "r2_range", "--metric", "--resolution")),
            (["sweep", "--metric", "neg_pct_diff_mixture", "--min", "0.5", "--max", "0.2",
              "--out", "-"], "--min/--max", ("r1_range", "r2_range", "--metric", "--resolution")),
        ],
    )
    def test_message_names_only_the_wrong_flag(self, capsys, argv, named, not_named):
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert not any(flag in err for flag in not_named), err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["neg_pct_diff_mixture", "--min", "0.5", "--max", "0.2"],
             "range is empty: (0.5, 0.2)"),
            (["neg_pct_diff_mixture", "--min", "nan"],
             "range must be finite, got (nan, 0.7853981633974483)"),
            (["coherent_info_diff", "--max", "1.2"],
             "range (0.0, 1.2) outside the metric domain [0, 0.785398]"),
            (["phase_curve", "--max", repr(math.pi / 2)],
             "range (0.0, 1.5707963267948966) outside the metric domain [0, 1.5708)"),
        ],
        ids=["empty", "nan", "2d-domain", "1d-half-pi"],
    )
    def test_range_refusal_is_one_line_naming_min_max(self, capsys, flags, message):
        argv = ["sweep", "--metric", *flags, "--out", "-"]
        out = io.StringIO()
        assert cli.run(argv, stdout=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == f"usage error: --min/--max: {message}\n"


# argv that name their subcommand first take one parse by that subcommand's
# parser; the rest go through the two-level parser.  Both must agree on all.
PARSE_TABLE = [
    ["protocol", "--r1", "0.2", "--r2", "0.7", "--phi2", "1.0", "--format", "json"],
    ["protocol", "--r1=0.2", "--r2=0.7", "--format=json"],
    ["channel", "--r", "0.4", "--phi", "-1e-17", "--format", "json"],
    ["sweep", "--metric", "phase_curve", "--res", "5", "--out", "-"],
    ["channel", "--r", "0.4", "--bogus", "1"],
    ["channel", "--r", "0.4", "extra"],
    ["protocol", "--r1"],
    ["channel", "--r", "abc"],
    ["sweep", "--metric", "no_such_metric", "--out", "-"],
    ["protocol", "-h"],
    ["protocol", "--r1", "0.2", "--help"],
    ["-h"],
    ["--format", "json", "channel", "--r", "0.4"],
    ["--config", "missing.json", "geometry"],
    [],
    ["teleport", "--r", "0.4"],
]


def parse_outcome(parse, argv):
    """The namespace that ``parse`` returns, or the type and text of what it raises."""
    try:
        return vars(parse(list(argv)))
    except (cli.UsageError, cli._Help) as exc:
        return type(exc).__name__, str(exc)


def run_outcome(argv, capsys):
    out = io.StringIO()
    code = cli.run(list(argv), stdout=out)
    return code, out.getvalue(), capsys.readouterr().err


class TestOneParsePass:
    @pytest.mark.parametrize("argv", PARSE_TABLE, ids=" ".join)
    def test_same_parse_either_way(self, argv, capsys, monkeypatch):
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._PARSER.parse_args, argv)
        one_pass = run_outcome(argv, capsys)
        monkeypatch.setattr(cli, "_parse_args", cli._PARSER.parse_args)
        assert one_pass == run_outcome(argv, capsys)

    def test_subcommand_first_takes_one_pass(self, monkeypatch):
        monkeypatch.setattr(cli._PARSER, "parse_args", lambda *args: pytest.fail("two passes"))
        argv = ["channel", "--r", "0.4", "--format", "json"]
        assert cli.run(argv, stdout=io.StringIO()) == 0


class TestConfigFile:
    def test_empty_object_uses_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        doc = run_json(["channel", "--r", "0.4", "--config", str(path)])
        assert doc["config"]["phi"] == ChannelParams.phi == 0.0
        doc = run_json(["protocol", "--r1", "0.2", "--r2", "0.7", "--config", str(path)])
        assert doc["config"]["phi1"] == doc["config"]["phi2"] == ChannelParams.phi
        doc = run_json(["geometry", "--mass", "1", "--radius", "2.02", "--k0", "0.05",
                        "--config", str(path)])
        assert doc["config"]["hbar"] == BlackHoleGeometry.hbar == 1.0
        # A sweep echoes its range and resolution in the JSON document's spec.
        out = io.StringIO()
        argv = ["sweep", "--metric", "coherent_info_diff", "--format", "json", "--out", "-"]
        assert cli.run(argv + ["--config", str(path)], stdout=out) == 0
        spec = json.loads(out.getvalue())["spec"]
        assert spec["r1_range"] == spec["r2_range"] == list(SweepSpec.r_range) == [0.0, math.pi / 4]
        assert spec["resolution"] == SweepSpec.resolution == 101

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

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"r": 0.3}')
        assert cli.run(["channel", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"usage error: --config: cannot read {str(path)!r}: 'utf-8' codec" in err

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

    @pytest.mark.parametrize("key, value", [
        ("out", None), ("out", 5), ("metric", ["phase_curve"]), ("format", True),
    ])
    def test_string_flag_takes_only_a_json_string(self, tmp_path, monkeypatch, capsys, key, value):
        """No ``str(value)``: a null ``out`` once wrote a file named ``None``."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"metric": "phase_curve", "resolution": 3, "out": "-", key: value}))
        stdout = io.StringIO()
        assert cli.run(["sweep", "--config", str(path)], stdout=stdout) == 2
        assert capsys.readouterr().err == (
            f"usage error: --config: key {key!r}: expected a string, got {json.dumps(value)}\n")
        assert stdout.getvalue() == "" and os.listdir(tmp_path) == ["cfg.json"]

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

    @pytest.mark.parametrize("metric", METRICS)
    def test_no_optional_flag_sweeps_the_library_default(self, metric):
        out = io.StringIO()
        assert cli.run(["sweep", "--metric", metric, "--out", "-"], stdout=out) == 0
        assert out.getvalue() == emitted(emit_csv, run_sweep(SweepSpec(metric)))

    def test_stdout_dash(self, capsys):
        code = cli.run(["sweep", "--metric", "neg_pct_diff_mixture", "--resolution", "2", "--out", "-"])
        assert code == 0
        assert capsys.readouterr().out.startswith("r1,r2,value\n")

    def test_stdout_dash_writes_to_the_given_stream(self, capsys):
        out = io.StringIO()
        argv = ["sweep", "--metric", "phase_curve", "--resolution", "2", "--max", "1.0", "--out", "-"]
        assert cli.run(argv, stdout=out) == 0
        assert out.getvalue().startswith("r,value\n")
        assert len(out.getvalue().splitlines()) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_large_grid_through_a_real_stdout_pipe(self, fmt):
        """No forked part flushes the stdout buffer it inherits (a StringIO cannot show it)."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(hawkchan.__file__))))
        argv = ["sweep", "--metric", "neg_pct_diff_mixture", "--resolution", "401",
                "--format", fmt, "--out", "-"]
        done = subprocess.run(
            [sys.executable, "-m", "hawkchan.cli", *argv],
            capture_output=True,
            cwd=root,
            # A block-buffered stdout, as a pipe normally gets, holds the header at the fork.
            env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
                 "PYTHONPATH": "src"},
            timeout=120,
        )
        grid = run_sweep(SweepSpec("neg_pct_diff_mixture", resolution=401))
        assert (done.returncode, done.stderr) == (0, b"")
        reference = reference_emit_csv if fmt == "csv" else reference_emit_json
        assert done.stdout == emitted(reference, grid).encode()

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
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        done = subprocess.run(
            [sys.executable, "-m", "hawkchan.cli", *argv],
            capture_output=True,
            text=True,
            env={**env, "PYTHONPATH": path},
            timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["protocol", "-h"]], ids=["help", "protocol-h"])
    def test_help_is_written_to_the_output_stream(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to this width in both processes
        out = io.StringIO()
        assert cli.run(argv, stdout=out) == 0
        assert capsys.readouterr() == ("", "")
        assert out.getvalue().startswith("usage: hawkchan")
        assert self.fresh_process(argv) == (0, out.getvalue(), "")

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

    @pytest.mark.parametrize("argv", [["protocol", "--r1", "0.1", "--r2", "0.2"], ["phase", "--r", "0.5"]],
                             ids=["protocol", "phase"])
    def test_invalid_state_is_internal_error(self, monkeypatch, capsys, argv):
        """A library state that fails its check is not the user's input."""
        def refuse(*args, **kwargs):
            raise ValueError("plus branch is not Hermitian")

        monkeypatch.setattr(linop, "check_density_matrix", refuse)
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == "internal error: plus branch is not Hermitian\n"
