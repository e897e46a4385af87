"""Tests for the command-line frontend."""

import contextlib
import functools
import inspect
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import hawkchan
from hawkchan import cli, linop, metrics, protocol
from hawkchan.channel import BlackHoleGeometry, ChannelParams
from hawkchan.sweep import METRICS, SweepSpec, emit_csv, run_sweep

from helpers import (emitted, geometry_r_oracle, reference_emit_csv, reference_emit_json,
                     reference_parse)


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
# Each real-valued flag with one non-finite value, the three taken in turn; `given`
# joins it as --flag=-inf, since "-inf" after a space reads as a flag.
REAL_FLAGS = [(sub, flag, ("-inf", "nan", "inf")[i % 3]) for i, (sub, flag, _) in
              enumerate(f for f in NUMERIC_FLAGS if f[2] is float)]
# Finite values outside the domain of each real-valued flag, the other flags as in `VALID`
# (mass 1, so the horizon is at 2; the sweep's range is [0, pi/4]).  A phase has no domain:
# any finite phase is reduced into [0, 2*pi).
_NOT_POSITIVE = st.floats(max_value=0.0, allow_infinity=False)
_BELOW_ZERO = st.floats(max_value=-5e-324, allow_infinity=False)
_SQUEEZING_OUTSIDE = _BELOW_ZERO | st.floats(min_value=math.pi / 2, allow_infinity=False)
_RANGE_OUTSIDE = _BELOW_ZERO | st.floats(min_value=math.nextafter(math.pi / 4, 1.0),
                                         allow_infinity=False)
OUTSIDE = {
    **dict.fromkeys(("mass", "k0", "hbar"), _NOT_POSITIVE),
    "radius": st.floats(max_value=2.0, allow_infinity=False),
    **dict.fromkeys(("r", "r1", "r2"), _SQUEEZING_OUTSIDE),
    **dict.fromkeys(("min", "max"), _RANGE_OUTSIDE),
}
NO_DOMAIN = {"phi", "phi1", "phi2"}
# The fields that only the library has; a refusal's reason names none of them.
LIBRARY_ONLY = re.compile(r"\b(r|phi|range|r_range)\b")


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

    def test_negative_zero_is_stored_and_echoed_unsigned(self):
        buf = io.StringIO()
        argv = ["protocol", "--r1", "-0.0", "--r2", "0.3", "--phi2", "1", "--format", "json"]
        assert cli.run(argv, stdout=buf) == 0
        assert '"r1": 0.0,' in buf.getvalue() and '"b_scalar": 0.0,' in buf.getvalue()
        assert "-0.0" not in buf.getvalue()

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

    @pytest.mark.parametrize("argv", [
        PROTOCOL_QUERY, ["phase", "--r", "0.5"], ["channel", "--r", "0.4"],
        ["geometry", "--mass", "1", "--radius", "3", "--k0", "0.1"],
    ], ids=["protocol", "phase", "channel", "geometry"])
    def test_human_scalars_are_their_json_values(self, argv):
        """Every scalar of a payload is a plain Python value, so its human line
        reads ``key = str(value)`` of its JSON twin; a numpy scalar would print
        as ``np.float64(...)``."""
        doc = run_json(argv)
        buf = io.StringIO()
        assert cli.run(argv, stdout=buf) == 0
        lines = dict(line.split(" = ") for line in buf.getvalue().splitlines() if " = " in line)
        assert lines == {key: str(value) for key, value in doc.items()
                         if not isinstance(value, (list, dict))}


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
        assert capsys.readouterr().err == (
            "usage error: --radius: must be outside the horizon 2*mass = 2.0, got 1.9\n")

    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("mass", -1.0, "must be positive, got -1.0"),
            ("radius", 1.9, "must be outside the horizon 2*mass = 2.0, got 1.9"),
            ("k0", 0.0, "must be positive, got 0.0"),
            ("hbar", -2.0, "must be positive, got -2.0"),
            ("mass", 1e-320, "must give a positive, finite surface gravity, got 1/(4*1e-320) = inf"),
            # 4*mass overflows and the surface gravity is 0.0; refused before the horizon check.
            ("mass", 5e307, "must give a positive, finite surface gravity, got 1/(4*5e+307) = 0.0"),
        ],
        ids=["mass", "radius", "k0", "hbar", "mass-overflow", "mass-zero-gravity"],
    )
    def test_domain_error_names_only_its_flag(
        self, tmp_path, capsys, flag, value, message, from_config
    ):
        argv = given("geometry", {**VALID["geometry"], flag: value}, from_config, tmp_path)
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --{flag}: {message}\n"
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

    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize("subcommand, flag, value", REAL_FLAGS,
                             ids=[f"{sub}-{flag}" for sub, flag, _ in REAL_FLAGS])
    def test_non_finite_value_is_one_rule_naming_only_its_flag(
        self, tmp_path, capsys, subcommand, flag, value, from_config
    ):
        """`channel.real_number` refuses every non-finite value in the same reason,
        and the CLI names the flag the value came from (--min or --max for an end of the range)."""
        argv = given(subcommand, {**VALID[subcommand], flag: value}, from_config, tmp_path)
        out = io.StringIO()
        assert cli.run(argv, stdout=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == f"usage error: --{flag}: must be finite, got {float(value)}\n"

    def test_every_real_flag_has_a_domain_or_none(self):
        assert {flag for _, flag, _ in REAL_FLAGS} == set(OUTSIDE) | NO_DOMAIN

    @pytest.mark.parametrize("subcommand, flag", [(sub, flag) for sub, flag, _ in REAL_FLAGS],
                             ids=[f"{sub}-{flag}" for sub, flag, _ in REAL_FLAGS])
    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(data=st.data())
    def test_a_refused_value_names_its_flag_once(self, subcommand, flag, data):
        """A non-finite value, or a finite one outside the flag's domain, given as the flag or
        as a config key: exit 2 and one stderr line ``usage error: --FLAG: reason``, whose
        reason names no flag, its own included, and no field that only the library has."""
        bad = st.sampled_from([math.nan, math.inf, -math.inf])
        value = data.draw(bad if flag in NO_DOMAIN else bad | OUTSIDE[flag])
        from_config = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as work:
            argv = given(subcommand, {**VALID[subcommand], flag: value}, from_config,
                         pathlib.Path(work))
            code, out, err = run_outcome(argv)
        prefix = f"usage error: --{flag}: "
        assert (code, out) == (2, ""), err
        assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err
        reason = err[len(prefix):-1]
        assert "--" not in reason and not re.search(rf"\b{flag}\b", reason), err
        assert not LIBRARY_ONLY.search(reason), err

    def test_missing_subcommand(self, capsys):
        assert cli.run([]) == 2
        assert "subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named, not_named",
        [
            (["sweep", "--metric", "neg_pct_diff_mixture", "--out", "-", "--resolution", "1000000000"],
             "--resolution", ("--metric", "--min", "--max")),
            (["sweep", "--metric", "neg_pct_diff_mixture", "--out", "-", "--max", "1.2"],
             "--max", ("--metric", "--resolution", "--min")),
            (["protocol", "--r1", "2.0", "--r2", "0.3"], "--r1", ("--phi1", "--r2", "--phi2")),
            (["sweep", "--metric", "neg_pct_diff_mixture", "--min", "nan", "--out", "-"],
             "--min", ("range", "--metric", "--resolution", "--max")),
            (["sweep", "--metric", "neg_pct_diff_mixture", "--min", "0.5", "--max", "0.2",
              "--out", "-"], "--max", ("range", "--metric", "--resolution", "--min")),
        ],
        ids=["resolution-huge", "max-outside-domain", "r1-outside-domain", "min-nan", "empty-range"],
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
             "--max: must not be below the lower end 0.5, got 0.2"),
            (["neg_pct_diff_mixture", "--min", "nan"], "--min: must be finite, got nan"),
            (["coherent_info_diff", "--max", "1.2"],
             "--max: must be in the metric domain [0, 0.785398], got 1.2"),
            (["phase_curve", "--max", repr(math.pi / 2)],
             "--max: must be in the metric domain [0, 1.5708), got 1.5707963267948966"),
        ],
        ids=["empty", "nan", "2d-domain", "1d-half-pi"],
    )
    def test_range_refusal_is_one_line_naming_min_max(self, capsys, flags, message):
        argv = ["sweep", "--metric", *flags, "--out", "-"]
        out = io.StringIO()
        assert cli.run(argv, stdout=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == f"usage error: {message}\n"


# Each argv with what the argparse parse that `cli._parse` replaced gave, recorded as
# literals: the exit code and stderr of `cli.run`, and the parse (the subcommand and the
# given values by key) where it succeeded.  The argvs also seed the oracle property below.
SUBCOMMAND_CHOICES = "(choose from 'geometry', 'channel', 'protocol', 'phase', 'sweep')"
PARSE_TABLE = [
    (["protocol", "--r1", "0.2", "--r2", "0.7", "--phi2", "1.0", "--format", "json"], 0, "",
     ("protocol", {"r1": 0.2, "r2": 0.7, "phi2": 1.0, "format": "json"})),
    (["protocol", "--r1=0.2", "--r2=0.7", "--format=json"], 0, "",
     ("protocol", {"r1": 0.2, "r2": 0.7, "format": "json"})),
    (["channel", "--r", "0.4", "--phi", "-1e-17", "--format", "json"], 0, "",
     ("channel", {"r": 0.4, "phi": -1e-17, "format": "json"})),
    (["sweep", "--metric", "phase_curve", "--res", "5", "--out", "-"], 2,
     "usage error: unrecognized arguments: --res 5\n", None),
    (["channel", "--r", "0.4", "--bogus", "1"], 2,
     "usage error: unrecognized arguments: --bogus 1\n", None),
    (["channel", "--r", "0.4", "extra"], 2, "usage error: unrecognized arguments: extra\n", None),
    (["protocol", "--r1"], 2, "usage error: argument --r1: expected one argument\n", None),
    (["channel", "--r", "abc"], 2, "usage error: argument --r: invalid float value: 'abc'\n", None),
    (["sweep", "--metric", "no_such_metric", "--out", "-"], 2,
     "usage error: --metric: expected one of neg_pct_diff_mixture, neg_pct_diff_convex, "
     "coherent_info_diff, phase_curve, got 'no_such_metric'\n",
     ("sweep", {"metric": "no_such_metric", "out": "-"})),
    (["protocol", "-h"], 0, "", None),
    (["protocol", "--r1", "0.2", "--help"], 0, "", None),
    (["-h"], 0, "", None),
    (["--format", "json", "channel", "--r", "0.4"], 0, "", ("channel", {"format": "json", "r": 0.4})),
    (["--format", "json", "channel", "--r", "0.4", "--=x"], 2,
     "usage error: unrecognized arguments: --=x\n", None),
    (["--config", "missing.json", "geometry"], 2,
     "usage error: --config: cannot read 'missing.json': [Errno 2] No such file or directory: "
     "'missing.json'\n", ("geometry", {"config": "missing.json"})),
    ([], 2, "usage error: a subcommand is required (geometry, channel, protocol, phase, sweep)\n",
     (None, {})),
    (["teleport", "--r", "0.4"], 2,
     f"usage error: argument SUBCOMMAND: invalid choice: 'teleport' {SUBCOMMAND_CHOICES}\n", None),
]


def parse_outcome(parse, argv):
    """What ``parse`` returns (the subcommand and None for a help request), or the text
    of the usage error it raises."""
    try:
        return parse(list(argv))
    except cli.UsageError as exc:
        return str(exc)


def run_outcome(argv):
    """The exit code, stdout and stderr of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(list(argv), stdout=out)
    return code, out.getvalue(), err.getvalue()


def help_level(text):
    """The subcommand whose help ``text`` is (None for the command's), or "no help"."""
    words = text.split()
    if words[:2] != ["usage:", "hawkchan"]:
        return "no help"
    return words[2] if words[2] in cli._PARAMS else None


class TestOneParsePass:
    @pytest.mark.parametrize("argv, code, stderr, parsed", PARSE_TABLE,
                             ids=[" ".join(row[0]) for row in PARSE_TABLE])
    def test_same_parse_either_way(self, argv, code, stderr, parsed):
        """The table-driven parse and the argparse oracle agree, and both give the literals."""
        assert parse_outcome(cli._parse, argv) == parse_outcome(reference_parse, argv)
        if parsed is not None:
            assert cli._parse(list(argv)) == parsed
        run_code, out, err = run_outcome(argv)
        assert (run_code, err) == (code, stderr)
        if "-h" in argv or "--help" in argv:
            assert help_level(out) == (argv[0] if argv[0] in cli._PARAMS else None)

    def test_subcommand_first_takes_one_pass(self, monkeypatch):
        """Each word of a query is read once: a flag's value is the next word."""
        resolved = []
        resolve = cli._resolve
        monkeypatch.setattr(cli, "_resolve", lambda word, flags: resolved.append(word) or resolve(word, flags))
        argv = ["channel", "--r", "0.4", "--phi=-1e-17", "--format", "json"]
        assert cli.run(argv, stdout=io.StringIO()) == 0
        assert resolved == argv


# Words a drawn flag may take as its value, or that stand alone: numbers (negative ones
# too), the choices of the table, a dash, an empty word and words that look like flags.
VALUES = ["0.4", "0.2", "-1e-17", "-.5", "3", "1.5", "half", "nan", "-inf", "", "-", "--", "json",
          "human", "csv", "bell", "phase_curve", "cfg.json", "missing.json", "-1 2", "extra"]
LONE_WORDS = ["-h", "--help", "-hx", "-h=", "--", "--bogus", "-x", "extra", "-1e-17", "-", "channel"]
GLOBAL_FLAGS = ["--format", "--config"]
SUBCOMMAND_FLAGS = {sub: [f"--{flag}" for flag in params] + ["--config"] for sub, params in cli._PARAMS.items()}


def prefixes(flags, shortest):
    """A flag of ``flags`` or a prefix of it at least ``shortest`` characters long."""
    return st.sampled_from(flags).flatmap(lambda f: st.integers(shortest, len(f)).map(lambda n: f[:n]))


def level_words(flags):
    """The words of one parse level: flags (exact or a prefix) with a value, ``=`` forms
    (an empty name or value included), lone flags, help, ``--`` and stray words."""
    flag = st.one_of(st.sampled_from(flags), prefixes(flags, 3))
    value = st.sampled_from(VALUES)
    token = st.one_of(  # a flag and its value twice as often as each other kind
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(list),
        st.tuples(prefixes(flags + ["--help"], 2), value).map(lambda pair: ["=".join(pair)]),
        prefixes(flags + ["--help"], 3).map(lambda word: [word]),
        st.sampled_from(LONE_WORDS).map(lambda word: [word]),
    )
    return st.lists(token, max_size=4).map(lambda tokens: [word for t in tokens for word in t])


@st.composite
def argvs(draw):
    """Global words, a subcommand (an unknown one, or none), then that subcommand's words,
    often after the flags it requires."""
    head = draw(level_words(GLOBAL_FLAGS)) if draw(st.booleans()) else []
    subcommand = draw(st.sampled_from([*cli._PARAMS, "teleport", None]))
    if subcommand not in cli._PARAMS:
        return head + ([subcommand] if subcommand else []) + draw(level_words(GLOBAL_FLAGS))
    required = [word for flag, value in VALID[subcommand].items() for word in (f"--{flag}", str(value))]
    return (head + [subcommand] + (required if draw(st.booleans()) else [])
            + draw(level_words(SUBCOMMAND_FLAGS[subcommand])))


def refused_quirk(argv):
    """Whether ``argv`` holds an argparse quirk that `cli._parse` refuses in its own words
    (CHANGES.md lists each with its old and new message): a ``--FLAG=--`` (argparse took an
    empty list as the value), ``-hh`` or ``-h=h`` (argparse read ``-h`` twice), or a last
    ``--`` (argparse left it unrecognized where it found no subcommand)."""
    return (any(w.startswith("-") and w.endswith("=--") for w in argv)
            or any(re.match(r"-h=?h", w) for w in argv)
            or argv[-1:] == ["--"])


def table_examples(test):
    """``test`` with each argv of `PARSE_TABLE` as an explicit example."""
    return functools.reduce(lambda t, row: hypothesis.example(row[0])(t), PARSE_TABLE, test)


class TestOneDispatch:
    def test_every_subcommand_has_one_handler_of_the_config_and_the_stream(self):
        """`run` dispatches through ``_HANDLERS`` alone, so every subcommand, the sweep
        included, has its handler, and each takes ``(cfg, stream)``."""
        assert cli._HANDLERS.keys() == cli._PARAMS.keys()
        for handler in cli._HANDLERS.values():
            assert list(inspect.signature(handler).parameters) == ["cfg", "stream"]

    @pytest.mark.parametrize("subcommand", cli._PARAMS)
    def test_each_handler_writes_what_run_writes_and_returns_none(self, subcommand):
        argv = given(subcommand, VALID[subcommand], False, None)
        direct, through_run = io.StringIO(), io.StringIO()
        assert cli._HANDLERS[subcommand](cli._merge_config(*cli._parse(argv)), direct) is None
        assert cli.run(argv, stdout=through_run) == 0
        assert direct.getvalue() == through_run.getvalue() != ""


class TestArgparseOracle:
    @table_examples
    @hypothesis.settings(max_examples=500)
    @hypothesis.given(argvs())
    def test_run_is_what_the_argparse_parse_gave(self, argv):
        """`cli.run` with the table-driven parse prints what it printed with argparse, but
        the help text, and refuses each quirk it does not copy."""
        with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
            with open("cfg.json", "w", encoding="utf-8") as fh:
                fh.write("{}")
            new = run_outcome(argv)
            with mock.patch.object(cli, "_parse", reference_parse):
                old = run_outcome(argv)
        if help_level(old[1]) != "no help":
            assert new == (0, new[1], "") and help_level(new[1]) == help_level(old[1])
        elif new != old:
            assert refused_quirk(argv) and new[0] == 2 and new[2].startswith("usage error: "), (new, old)

    @pytest.mark.parametrize("argv", [row[0] for row in PARSE_TABLE], ids=[" ".join(row[0]) for row in PARSE_TABLE])
    def test_the_table_rows_are_no_quirks(self, argv):
        assert not refused_quirk(argv)

    # Each refused quirk: the argv, what argparse gave (exit code and stderr, or "help"), and the refusal.
    QUIRKS = [
        (["channel", "--r", "0.4", "--format=--"],
         (2, "usage error: --format: expected one of human, json, got []\n"),
         "argument --format: expected one argument"),
        (["channel", "--r=--"], (2, "usage error: --r: must be a real number, got []\n"),
         "argument --r: expected one argument"),
        (["sweep", "--metric", "phase_curve", "--out=--"],
         (1, "internal error: expected str, bytes or os.PathLike object, not list\n"),
         "argument --out: expected one argument"),
        (["channel", "-hh"], "help", "argument -h/--help: ignored explicit argument 'h'"),
        (["channel", "-h=h"], "help", "argument -h/--help: ignored explicit argument 'h'"),
        (["--"], (2, "usage error: unrecognized arguments: --\n"),
         f"argument SUBCOMMAND: invalid choice: '--' {SUBCOMMAND_CHOICES}"),
    ]

    @pytest.mark.parametrize("argv, old, new", QUIRKS, ids=[" ".join(row[0]) for row in QUIRKS])
    def test_each_quirk_is_refused_in_its_own_words(self, argv, old, new):
        assert refused_quirk(argv)
        with mock.patch.object(cli, "_parse", reference_parse):
            code, out, err = run_outcome(argv)
        assert ("help" if help_level(out) != "no help" else (code, err)) == old
        assert run_outcome(argv) == (2, "", f"usage error: {new}\n")


def proper_prefixes(flags):
    """The proper prefixes of ``flags``, three characters or longer, that are no flag of ``flags``."""
    return sorted({flag[:n] for flag in flags for n in range(3, len(flag))} - set(flags))


# Each proper prefix of each flag word of each parse level (None: before the subcommand).
PREFIX_TABLE = [(level, prefix)
                for level, flags in [(None, GLOBAL_FLAGS), *SUBCOMMAND_FLAGS.items()]
                for prefix in proper_prefixes(flags + ["--help"])]


class TestFlagsSpelledInFull:
    @pytest.mark.parametrize("level, prefix", PREFIX_TABLE,
                             ids=[f"{level or 'global'} {prefix}" for level, prefix in PREFIX_TABLE])
    def test_a_flag_prefix_is_unrecognized(self, level, prefix):
        """A prefix is refused as an unrecognized word, with the value after it, as argparse
        with ``allow_abbrev=False`` refuses it."""
        if level is None:
            argv, unrecognized = [prefix, "channel", "--r", "0.4"], prefix
        else:
            required = [f"--{flag}={value}" for flag, value in VALID[level].items()]
            argv, unrecognized = [level, *required, prefix, "1"], f"{prefix} 1"
        expected = (2, "", f"usage error: unrecognized arguments: {unrecognized}\n")
        assert run_outcome(argv) == expected
        with mock.patch.object(cli, "_parse", reference_parse):
            assert run_outcome(argv) == expected


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["protocol", "-h"], ["--format", "json", "-h"]])
    def test_help_starts_with_its_usage_line(self, argv):
        code, out, err = run_outcome(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: hawkchan ")

    @pytest.mark.parametrize("subcommand", cli._PARAMS)
    def test_help_names_every_flag_and_marks_the_required_ones(self, subcommand):
        _, out, _ = run_outcome([subcommand, "--help"])
        lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  --")}
        assert list(lines) == [f"--{flag}" for flag in cli._PARAMS[subcommand]]
        for flag, (_, default, choices) in cli._PARAMS[subcommand].items():
            assert lines[f"--{flag}"].endswith("required") == (default is None)
            assert all(choice in lines[f"--{flag}"] for choice in choices or ())
        assert "--config" in out

    def test_the_command_help_lists_every_subcommand(self):
        _, out, _ = run_outcome(["--help"])
        assert all(f"\n{subcommand}:\n" in out for subcommand in cli._PARAMS)

    def test_importing_the_cli_loads_no_argparse(self):
        src = os.path.dirname(os.path.dirname(hawkchan.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys, hawkchan.cli; print('argparse' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


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

    @pytest.mark.parametrize("content, message", [
        (None, f"is longer than {cli.CONFIG_MAX_CHARS} characters"),
        ("[" * 100_000, "malformed JSON in {path!r}: maximum recursion depth exceeded"),
        ('{"r": ' + "1" * 5001 + "}", "malformed JSON in {path!r}: Exceeds the limit"),
    ], ids=["endless", "nested-100000-deep", "integer-of-5001-digits"])
    def test_config_past_the_json_limits_is_usage_error(self, tmp_path, capsys, content, message):
        """A file that never ends is read only up to the limit, and a nesting or an
        integer that the JSON parser refuses is malformed JSON, not an internal error."""
        if content is None:
            if not os.path.exists("/dev/zero"):
                pytest.skip("no /dev/zero on this platform")
            path = "/dev/zero"
        else:
            path = str(tmp_path / "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        assert cli.run(["channel", "--config", path], stdout=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --config: "), err
        assert message.format(path=path) in err, err

    def test_config_at_the_length_limit_is_read(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"r": 0.4}'.ljust(20))
        monkeypatch.setattr(cli, "CONFIG_MAX_CHARS", 20)
        assert cli.run(["channel", "--config", str(path)], stdout=io.StringIO()) == 0
        monkeypatch.setattr(cli, "CONFIG_MAX_CHARS", 19)
        assert cli.run(["channel", "--config", str(path)], stdout=io.StringIO()) == 2
        assert capsys.readouterr().err == (
            f"usage error: --config: {str(path)!r} is longer than 19 characters\n")

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

    @pytest.mark.parametrize("key, value, spelled", [
        pytest.param(key, value, spelled, id=f"{key}-{name}") for key in ("r", "resolution")
        for name, value, spelled in (("null", None, "'null'"), ("true", True, "'true'"),
                                     ("list", [1, 2], "'[1, 2]'"),
                                     ("object", {"a": 1}, """'{"a": 1}'"""))
    ])
    def test_numeric_flag_quotes_a_json_value_as_the_file_spells_it(
            self, tmp_path, capsys, key, value, spelled):
        """A value of the wrong JSON type is quoted in JSON, not as Python's ``str``
        spells it (``'None'``, ``'True'``, ``"{'a': 1}"``)."""
        sub, ftype = ("channel", "float") if key == "r" else ("sweep", "int")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**VALID[sub], key: value}))
        stdout = io.StringIO()
        assert cli.run([sub, "--config", str(path)], stdout=stdout) == 2
        assert capsys.readouterr().err == (
            f"usage error: --config: key {key!r}: invalid {ftype} value: {spelled}\n")
        assert stdout.getvalue() == ""

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
    def test_negative_zero_range_end_is_written_unsigned(self):
        buf = io.StringIO()
        assert cli.run(["sweep", "--metric", "phase_curve", "--min", "-0.0", "--max", "0.5",
                        "--resolution", "2", "--format", "json", "--out", "-"], stdout=buf) == 0
        assert '"r1_range":[0.0,0.5]' in buf.getvalue() and "-0.0" not in buf.getvalue()

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

    def test_unwritable_out_is_usage_error(self, tmp_path, monkeypatch, capsys):
        """A path that cannot be opened is named once, in the words of its ``OSError``."""
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        argv = ["sweep", "--metric", "phase_curve", "--resolution", "2", "--out", "no/such/dir/x.csv"]
        assert cli.run(argv, stdout=out) == 2
        assert out.getvalue() == "" and list(tmp_path.iterdir()) == []
        assert capsys.readouterr() == (
            "", "usage error: --out: [Errno 2] No such file or directory: 'no/such/dir/x.csv'\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
    def test_failed_write_to_out_is_usage_error(self, capsys):
        """An ``--out`` file that opens but cannot take the bytes (a full disk) is refused
        under ``--out`` too, by the write or by the close that flushes it."""
        argv = ["sweep", "--metric", "phase_curve", "--resolution", "2", "--out", "/dev/full"]
        assert cli.run(argv) == 2
        assert capsys.readouterr() == ("", "usage error: --out: [Errno 28] No space left on device\n")


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
        monkeypatch.setenv("COLUMNS", "20")  # the help text does not depend on the terminal width
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


class TestClosedOutput:
    """One rule for every subcommand: a failed write to the output stream exits 1, and only
    an ``--out`` path (`TestSweepCommand.test_unwritable_out_is_usage_error`) is a usage error."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--metric", "neg_pct_diff_mixture", "--resolution", "401", "--out", "-"],
        ["protocol", "--r1", "0.2", "--r2", "0.3"],
        ["--help"],
        ["protocol", "-h"],
    ], ids=["sweep", "protocol", "help", "protocol-h"])
    def test_a_closed_pipe_exits_one(self, argv, unbuffered):
        """The reader's end of the pipe is closed before the command starts, so every write
        fails (no signal is sent: Python ignores SIGPIPE); a buffered stdout may fail only at
        the last flush, and no second failure at exit turns the code into 120."""
        src = os.path.dirname(os.path.dirname(hawkchan.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "hawkchan.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "internal error: [Errno 32] Broken pipe\n")


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
