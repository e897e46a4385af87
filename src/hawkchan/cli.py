"""Command-line frontend.

Subcommands: ``geometry`` (geometry -> squeezing), ``channel``
(single-channel evaluation), ``protocol`` (superposition vs classical
mixture), ``phase`` (opposite-phase superposition, whose classical
mixture is the single channel's output), ``sweep`` (figure-reproduction
grids to CSV/JSON).  Each point query checks its states once; ``protocol``
and ``phase`` check the branch averages they print against closed forms.

Values may come from a JSON config file (``--config``); explicit flags
override it.  Reports print as human-readable text or, with
``--format json``, as a JSON object with sorted keys that echoes the
effective configuration under ``"config"``.

Exit codes: 0 success or --help, 2 usage error naming its flag, 1 other failure.
All angles are radians.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Optional

import numpy as np

from . import metrics, protocol
from .channel import (
    BlackHoleGeometry,
    ChannelParams,
    DomainError,
    channel_output_closed_form,
    kraus_block,
    kraus_operators,
    squeezing_from_geometry,
)
from .sweep import METRICS, SweepSpec, emit_csv, emit_json, run_sweep


class UsageError(Exception):
    """Bad invocation: unknown flag, missing value, unreadable config file."""


class _Help(Exception):
    """``-h``/``--help``: the help text, which `run` prints to its output stream."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-17" as a flag; take any negative float literal as a value.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())  # in place of printing to sys.stdout and exiting


# Report format row shared by the subcommands that print one report.
_REPORT_FORMAT = (str, "human", ("human", "json"))

# Per-subcommand parameter tables: name -> (type, default, choices); a flag
# without a default is required.  Defaults and choices are applied after the
# config-file merge, so the parser uses None for "not provided"; the library
# type that takes a value checks it, and a numeric default is read from that type.
_PARAMS = {
    "geometry": {
        "mass": (float, None, None),
        "radius": (float, None, None),
        "k0": (float, None, None),
        "hbar": (float, BlackHoleGeometry.hbar, None),
        "format": _REPORT_FORMAT,
    },
    "channel": {
        "r": (float, None, None),
        "phi": (float, ChannelParams.phi, None),
        "state": (str, "bell", ("bell",)),
        "format": _REPORT_FORMAT,
    },
    "protocol": {
        "r1": (float, None, None),
        "r2": (float, None, None),
        "phi1": (float, ChannelParams.phi, None),
        "phi2": (float, ChannelParams.phi, None),
        "format": _REPORT_FORMAT,
    },
    "phase": {
        "r": (float, None, None),
        "format": _REPORT_FORMAT,
    },
    "sweep": {
        "metric": (str, None, METRICS),
        "resolution": (int, SweepSpec.resolution, None),
        "min": (float, SweepSpec.r_range[0], None),
        "max": (float, SweepSpec.r_range[1], None),
        "out": (str, None, None),
        "format": (str, "csv", ("csv", "json")),
    },
}


def _build_parser() -> tuple[_Parser, dict]:
    # --format and --config are accepted both before and after the
    # subcommand; the post-subcommand occurrence wins.
    parser = _Parser(prog="hawkchan", description=__doc__.splitlines()[0])
    parser.add_argument("--format", type=str, default=None, dest="global_format")
    parser.add_argument("--config", type=str, default=None, dest="global_config")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, params in _PARAMS.items():
        p = sub.add_parser(name, prog=f"hawkchan {name}")
        for flag, (ftype, _, choices) in params.items():
            shown = "{" + ",".join(choices) + "}" if choices else None
            p.add_argument(f"--{flag}", type=ftype, default=None, metavar=shown)
        p.add_argument("--config", type=str, default=None)
    return parser, sub.choices  # choices: subcommand name -> its parser


# Parsing leaves the parsers unchanged, so one instance of each serves every call.
_PARSER, _SUBPARSERS = _build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """`_PARSER.parse_args`, in one pass when ``argv[0]`` names a subcommand: `_PARSER`
    hands all that follows it to that subcommand's parser, so the result is the same."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _SUBPARSERS:
        return _PARSER.parse_args(argv)
    args = _SUBPARSERS[argv[0]].parse_args(argv[1:])
    args.subcommand, args.global_format, args.global_config = argv[0], None, None
    return args


def load_config(path: str) -> dict:
    """Read a JSON config file; returns a flat flag-name -> value mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"--config: cannot read {path!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"--config: malformed JSON in {path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(data, dict):
        raise UsageError(f"--config: {path!r} must contain a JSON object")
    return data


def _merge_config(subcommand: str, args: argparse.Namespace) -> dict:
    """Resolve effective values: explicit flag > config file > default."""
    params = _PARAMS[subcommand]
    if args.format is None:
        args.format = args.global_format
    config_path = args.config if args.config is not None else args.global_config
    config = load_config(config_path) if config_path is not None else {}

    for key in config:
        if key == "subcommand":
            if config[key] != subcommand:
                raise UsageError(
                    f"--config: subcommand {config[key]!r} does not match {subcommand!r}"
                )
            continue
        if key not in params:
            raise UsageError(f"--config: unknown key {key!r} for subcommand {subcommand!r}")

    effective = {"subcommand": subcommand}
    for flag, (ftype, default, choices) in params.items():
        value = getattr(args, flag)
        if value is None and flag in config:
            raw = config[flag]
            if ftype is str and not isinstance(raw, str):
                raise UsageError(f"--config: key {flag!r}: expected a string, got {json.dumps(raw)}")
            try:
                value = ftype(str(raw))
            except ValueError as exc:
                raise UsageError(f"--config: key {flag!r}: {exc}")
        if value is None:
            value = default
        if value is None:
            raise UsageError(f"--{flag} is required for {subcommand!r}")
        if choices is not None and value not in choices:
            raise UsageError(f"--{flag}: expected one of {', '.join(choices)}, got {value!r}")
        effective[flag] = value
    return effective


def _matrix_payload(arr: Optional[np.ndarray]):
    """Complex matrix as nested [real, imag] pairs (JSON has no complex type)."""
    if arr is None:
        return None
    return np.ascontiguousarray(arr).view(float).reshape(arr.shape + (2,)).tolist()


def _run_geometry(cfg: dict) -> dict:
    geometry = BlackHoleGeometry(cfg["mass"], cfg["radius"], cfg["k0"], cfg["hbar"])
    params = squeezing_from_geometry(geometry)
    return {
        "r": params.r,
        "f0": geometry.redshift_factor,
        "kappa": geometry.surface_gravity,
        "horizon_radius": geometry.horizon_radius,
    }


def _run_channel(cfg: dict) -> dict:
    params = ChannelParams(r=cfg["r"], phi=cfg["phi"])
    pair = kraus_operators(params)[0]
    # The library's Bell state needs no input check; the report validates the output state.
    output = kraus_block(protocol.BELL_STATE, pair, pair)
    report = metrics.report_for_state(output)
    closed = math.cos(params.r) ** 2 / 2.0
    metrics.check_closed_form("negativity", report.negativity_numeric, closed)
    return {
        "kraus_m0": _matrix_payload(pair[0]),
        "kraus_m1": _matrix_payload(pair[1]),
        "output_state": _matrix_payload(output),
        "closed_form_state": _matrix_payload(channel_output_closed_form(params)),
        "negativity": report.negativity_numeric,
        "negativity_closed_form": closed,
        "coherent_information": report.coherent_information,
        "ppt": report.ppt,
    }


def _branch_fields(stats: protocol.BranchStatistics, r1: float, r2: float, dphi: float) -> dict:
    """The branch fields `protocol` and `phase` both print, with the average
    negativity checked against its closed form."""
    closed = metrics.negativity_avg_closed(r1, r2, dphi)
    metrics.check_closed_form("negativity_avg", stats.negativity_avg, closed)
    return {
        "p_plus": stats.p_plus,
        "p_minus": stats.p_minus,
        "rho_plus": _matrix_payload(stats.rho_plus),
        "rho_minus": _matrix_payload(stats.rho_minus),
        "negativity_avg": stats.negativity_avg,
        "negativity_avg_closed": closed,
    }


def _channel_params(cfg: dict, suffix: str) -> ChannelParams:
    """Protocol channel ``suffix`` ("1" or "2"); a refused value keeps its flag's suffix."""
    try:
        return ChannelParams(r=cfg["r" + suffix], phi=cfg["phi" + suffix])
    except DomainError as exc:
        exc.field += suffix
        raise


def _run_protocol(cfg: dict) -> dict:
    p1, p2 = _channel_params(cfg, "1"), _channel_params(cfg, "2")
    dphi = p1.phi - p2.phi
    stats = protocol.measure_control(p1, p2)
    payload = _branch_fields(stats, p1.r, p2.r, dphi)
    plus, *_, mixture = stats.reports
    payload.update({
        "a_scalar": stats.a_scalar,
        "b_scalar": stats.b_scalar,
        "c_scalar": stats.c_scalar,
        "coherent_info_ensemble": stats.coherent_info_ensemble,
        "coherent_info_mixture": mixture.coherent_information,
        "coherent_info_plus_branch": plus.coherent_information,
        "negativity_mixture": mixture.negativity_numeric,
        "negativity_mixture_closed": metrics.negativity_mixture_closed(p1.r, p2.r),
        "negativity_convex_avg": metrics.negativity_convex_avg(p1.r, p2.r),
    })
    ensemble, mixture_closed = metrics.coherent_info_closed(p1.r, p2.r, dphi)
    for key, closed in [("negativity_mixture", payload["negativity_mixture_closed"]),
                        ("coherent_info_ensemble", ensemble),
                        ("coherent_info_mixture", mixture_closed)]:
        metrics.check_closed_form(key, payload[key], closed)
    return payload


def _run_phase(cfg: dict) -> dict:
    # Equal squeezing, opposite phases: the classical mixture is the single channel's output.
    stats = protocol.measure_control(ChannelParams(cfg["r"]), ChannelParams(cfg["r"], math.pi))
    payload = _branch_fields(stats, cfg["r"], cfg["r"], math.pi)
    payload["negativity_plus"] = stats.reports[0].negativity_numeric
    payload["negativity_single_channel"] = stats.reports[-1].negativity_numeric
    return payload


def _run_sweep(cfg: dict, stream) -> None:
    grid = run_sweep(SweepSpec(cfg["metric"], (cfg["min"], cfg["max"]), cfg["resolution"]))
    destination = stream if cfg["out"] == "-" else cfg["out"]
    try:
        if cfg["format"] == "csv":
            emit_csv(grid, destination)
        else:
            emit_json(grid, destination)
    except OSError as exc:
        raise UsageError(f"--out: {exc}")


def _print_human(payload: dict, stream) -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list):  # matrix as nested [re, im] pairs
            stream.write(f"{key}:\n")
            for row in value:
                cells = ", ".join(f"{re!r}{im:+}j" for re, im in row)
                stream.write(f"  [{cells}]\n")
        elif isinstance(value, float):  # numpy scalars print as plain floats
            stream.write(f"{key} = {float(value)!r}\n")
        else:
            stream.write(f"{key} = {value}\n")


_ENCODE = json.JSONEncoder(sort_keys=True).encode  # the bytes of json.dumps(..., sort_keys=True)

_HANDLERS = {
    "geometry": _run_geometry,
    "channel": _run_channel,
    "protocol": _run_protocol,
    "phase": _run_phase,
}


def run(argv=None, stdout=None) -> int:
    """Parse ``argv``, execute the subcommand, and return the exit code."""
    stream = stdout if stdout is not None else sys.stdout
    try:
        args = _parse_args(argv)
        if args.subcommand is None:
            raise UsageError(f"a subcommand is required ({', '.join(_PARAMS)})")
        effective = _merge_config(args.subcommand, args)
        if args.subcommand == "sweep":  # the one command that writes its own output
            _run_sweep(effective, stream)
            return 0
        payload = _HANDLERS[args.subcommand](effective)
        if effective["format"] == "json":
            payload["config"] = effective
            stream.write(_ENCODE(payload) + "\n")
        else:
            _print_human(payload, stream)
        return 0
    except _Help as exc:
        stream.write(str(exc))
        return 0
    except DomainError as exc:  # a value the library refused, named by the flag it came from
        flag = "min/--max" if exc.field == "range" else exc.field
        print(f"usage error: --{flag}: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # library invariant violations and I/O failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
