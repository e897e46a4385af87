"""Command-line frontend.

Subcommands: ``geometry`` (geometry -> squeezing), ``channel``
(single-channel evaluation), ``protocol`` (superposition vs classical
mixture), ``phase`` (opposite-phase superposition, whose classical
mixture is the single channel's output), ``sweep`` (figure-reproduction
grids to CSV/JSON).  Each point query copies the fields of one checked library
call, `protocol.measure_channel` or `protocol.measure_control`.

Values may come from a JSON config file (``--config``); explicit flags
override it.  Reports print as human-readable text or, with
``--format json``, as a JSON object with sorted keys that echoes the
effective configuration under ``"config"``.

Flags are spelled in full (``--res`` is refused), as argparse reads them with
``allow_abbrev=False``.  Exit codes: 0 success or --help, 2 usage error naming its
flag (an ``--out`` path that cannot be written included), 1 other failure (a failed
write to the output stream, such as a closed pipe, included).  All angles are radians.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np

from . import protocol
from .channel import BlackHoleGeometry, ChannelParams, DomainError, squeezing_from_geometry
from .sweep import METRICS, SweepSpec, emit_csv, emit_json, run_sweep


class UsageError(Exception):
    """Bad invocation: unknown flag, missing value, unreadable config file."""


class _Help(Exception):
    """``-h``/``--help``: the help text, which `run` prints to its output stream."""


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


# Flag word -> (key, type) of each parse level: the global flags under None, then each
# subcommand's; help maps to None.
_FLAGS = {
    level: {"-h": None, "--help": None,
            **{f"--{key}": (key, ftype) for key, (ftype, *_) in {**params, "config": (str,)}.items()}}
    for level, params in {None: {"format": _REPORT_FORMAT}, **_PARAMS}.items()
}
# A word that starts with "-" and names no flag is still a value if it is a negative number.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$").match


def _resolve(word: str, flags: dict):
    """The flag ``word`` names, spelled in full, as (flag, the value joined to it or None);
    None for a value.  A word like a flag that names none, a prefix of one included, is
    returned as its own flag, and ``-hX`` is ``-h`` with ``X`` joined."""
    if word[:1] != "-" or word == "-":
        return None
    if word in flags:
        return word, None
    name, eq, joined = word.partition("=")
    if eq and name in flags:
        return name, joined
    if word[:2] == "-h":
        return "-h", word[2:]
    return None if _NEGATIVE_NUMBER(word) or " " in word else (word, None)


def _parse(argv: list) -> tuple[Optional[str], dict]:
    """The subcommand (None if there is none) and the given flag values by key, in one pass.

    Before the subcommand only the global flags count; a flag after it wins over its
    global twin, and a repeated flag's last value wins.  A flag's value is the next word
    unless that is a flag or the first ``--``, after which every word is a plain word.
    The first plain word is the subcommand; any later one, and any flag word the level
    does not spell in full, is unrecognized."""
    subcommand, flags, given, extras = None, _FLAGS[None], {}, []
    i, end = 0, [*argv, "--"].index("--")
    while i < len(argv):
        word = argv[i]
        found = _resolve(word, flags) if i < end else None
        i += 1
        if found is None and subcommand is None:
            if word not in _PARAMS:
                choices = ", ".join(map(repr, _PARAMS))
                raise UsageError(f"argument SUBCOMMAND: invalid choice: {word!r} "
                                 f"(choose from {choices})")
            subcommand, flags = word, _FLAGS[word]
            end = [*argv, "--"].index("--", i)
        elif found is None or found[0] not in flags:
            extras.append(word)
        else:
            flag, value = found
            if flags[flag] is None:  # -h, --help
                if value is not None:
                    raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
                raise _Help(_usage(subcommand))
            if value is None and i < end and _resolve(argv[i], flags) is None:
                value, i = argv[i], i + 1
            if value is None or value == "--":
                raise UsageError(f"argument {flag}: expected one argument")
            key, ftype = flags[flag]
            given[key] = _convert(ftype, value, f"argument {flag}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return subcommand, given


def _convert(ftype, word: str, where: str):
    """``word`` as a value of ``ftype``, for a flag word and a config value alike; a word
    that ``ftype`` cannot read is a usage error under ``where``."""
    try:
        return ftype(word)
    except ValueError:
        raise UsageError(f"{where}: invalid {ftype.__name__} value: {word!r}") from None


def _usage(subcommand: Optional[str]) -> str:
    """The --help text: each flag of ``subcommand`` (of every subcommand if None)
    with its type and its default, or "required"."""
    lines = [f"usage: hawkchan {subcommand or 'SUBCOMMAND'} [--FLAG VALUE ...]",
             "--format and --config may also come before the subcommand; --config PATH reads "
             "a JSON object of flag values, which the flags given override."]
    for name in [subcommand] if subcommand else _PARAMS:
        lines.append(f"{name}:")
        lines += [f"  --{flag} " + ("{" + ",".join(choices) + "}" if choices else ftype.__name__)
                  + ("  required" if default is None else f"  default {default}")
                  for flag, (ftype, default, choices) in _PARAMS[name].items()]
    return "\n".join(lines) + "\n"


# The longest --config file, in characters; reading one more bounds an endless file.
CONFIG_MAX_CHARS = 1 << 20


def load_config(path: str) -> dict:
    """Read a JSON config file; returns a flat flag-name -> value mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(CONFIG_MAX_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"--config: cannot read {path!r}: {exc}")
    if len(text) > CONFIG_MAX_CHARS:
        raise UsageError(f"--config: {path!r} is longer than {CONFIG_MAX_CHARS} characters")
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:  # malformed (at a position), too deep, too long
        raise UsageError(f"--config: malformed JSON in {path!r}: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"--config: {path!r} must contain a JSON object")
    return data


def _merge_config(subcommand: str, given: dict) -> dict:
    """Resolve effective values: explicit flag > config file > default."""
    params = _PARAMS[subcommand]
    config = load_config(given["config"]) if "config" in given else {}

    for key, value in config.items():
        if key == "subcommand" and value != subcommand:
            raise UsageError(f"--config: subcommand {value!r} does not match {subcommand!r}")
        if key not in params and key != "subcommand":
            raise UsageError(f"--config: unknown key {key!r} for subcommand {subcommand!r}")

    effective = {"subcommand": subcommand}
    for flag, (ftype, default, choices) in params.items():
        value = given.get(flag)
        if value is None and flag in config:
            raw = config[flag]
            if ftype is str and not isinstance(raw, str):
                raise UsageError(f"--config: key {flag!r}: expected a string, got {json.dumps(raw)}")
            value = _convert(ftype, str(raw), f"--config: key {flag!r}")
        if value is None:
            value = default
        if value is None:
            raise UsageError(f"--{flag} is required for {subcommand!r}")
        if choices is not None and value not in choices:
            raise UsageError(f"--{flag}: expected one of {', '.join(choices)}, got {value!r}")
        effective[flag] = value + 0.0 if isinstance(value, float) else value  # -0.0 echoes as 0.0
    return effective


def _matrix_payload(value):
    """A complex matrix as nested [real, imag] pairs (JSON has no complex type), else ``value``."""
    if not isinstance(value, np.ndarray):
        return value
    return np.ascontiguousarray(value).view(float).reshape(value.shape + (2,)).tolist()


def _fields(stats, names) -> dict:
    """The fields ``names`` of a library result, each under its own name."""
    return {name: _matrix_payload(getattr(stats, name)) for name in names}


def _checked(make, flags: dict, *args):
    """``make(*args)``, a library value built from flag values.  A value it refuses is a
    usage error naming the flag it came from, ``flags[field]``, or the field itself where
    ``flags`` does not rename it, with the library's reason."""
    try:
        return make(*args)
    except DomainError as exc:
        raise UsageError(f"--{flags.get(exc.field, exc.field)}: {exc.reason}") from None


def _run_geometry(cfg: dict) -> dict:
    geometry = _checked(BlackHoleGeometry, {}, cfg["mass"], cfg["radius"], cfg["k0"], cfg["hbar"])
    params = squeezing_from_geometry(geometry)
    return {
        "r": params.r,
        "f0": geometry.redshift_factor,
        "kappa": geometry.surface_gravity,
        "horizon_radius": geometry.horizon_radius,
    }


def _run_channel(cfg: dict) -> dict:
    stats = protocol.measure_channel(_checked(ChannelParams, {}, cfg["r"], cfg["phi"]))
    return {
        **_fields(stats, ("output_state", "closed_form_state", "negativity_closed_form")),
        "kraus_m0": _matrix_payload(stats.kraus[0]),
        "kraus_m1": _matrix_payload(stats.kraus[1]),
        "negativity": stats.report.negativity_numeric,
        "coherent_information": stats.report.coherent_information,
        "ppt": stats.report.ppt,
    }


# The `BranchStatistics` fields that `phase` and `protocol` print under their own names.
_PHASE_FIELDS = ("p_plus", "p_minus", "rho_plus", "rho_minus", "negativity_avg",
                 "negativity_avg_closed")
_PROTOCOL_FIELDS = _PHASE_FIELDS + ("a_scalar", "b_scalar", "c_scalar", "coherent_info_ensemble",
                                    "negativity_mixture_closed", "negativity_convex_avg")


def _run_protocol(cfg: dict) -> dict:
    p1 = _checked(ChannelParams, {"r": "r1", "phi": "phi1"}, cfg["r1"], cfg["phi1"])
    p2 = _checked(ChannelParams, {"r": "r2", "phi": "phi2"}, cfg["r2"], cfg["phi2"])
    stats = protocol.measure_control(p1, p2)
    plus, *_, mixture = stats.reports
    return {
        **_fields(stats, _PROTOCOL_FIELDS),
        "coherent_info_mixture": mixture.coherent_information,
        "coherent_info_plus_branch": plus.coherent_information,
        "negativity_mixture": mixture.negativity_numeric,
    }


def _run_phase(cfg: dict) -> dict:
    # Equal squeezing, opposite phases: the classical mixture is the single channel's output.
    p = _checked(ChannelParams, {}, cfg["r"])
    stats = protocol.measure_control(p, ChannelParams(p.r, math.pi))
    return {
        **_fields(stats, _PHASE_FIELDS),
        "negativity_plus": stats.reports[0].negativity_numeric,
        "negativity_single_channel": stats.reports[-1].negativity_numeric,
    }


def _run_sweep(cfg: dict, stream) -> None:
    grid = run_sweep(_checked(SweepSpec, {"r_range[0]": "min", "r_range[1]": "max"},
                              cfg["metric"], (cfg["min"], cfg["max"]), cfg["resolution"]))
    emit = emit_csv if cfg["format"] == "csv" else emit_json
    if cfg["out"] == "-":  # a failed write to the output stream fails as a point query's does
        return emit(grid, stream)
    try:
        emit(grid, cfg["out"])
    except OSError as exc:  # only a path that the user named is a usage error
        raise UsageError(f"--out: {exc}")


def _print_human(payload: dict, stream) -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list):  # matrix as nested [re, im] pairs
            stream.write(f"{key}:\n")
            for row in value:
                cells = ", ".join(f"{re!r}{im:+}j" for re, im in row)
                stream.write(f"  [{cells}]\n")
        else:
            stream.write(f"{key} = {value}\n")


# The bytes of json.dumps(..., sort_keys=True).  The cycle check is off: each payload
# is a fresh tree of dicts, lists and scalars that its handler built, with no cycle.
_ENCODE = json.JSONEncoder(sort_keys=True, check_circular=False).encode

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
        subcommand, given = _parse(sys.argv[1:] if argv is None else argv)
        if subcommand is None:
            raise UsageError(f"a subcommand is required ({', '.join(_PARAMS)})")
        effective = _merge_config(subcommand, given)
        if subcommand == "sweep":  # the one command that writes its own output
            _run_sweep(effective, stream)
        elif effective["format"] == "json":
            payload = _HANDLERS[subcommand](effective)
            payload["config"] = effective
            stream.write(_ENCODE(payload) + "\n")
        else:
            _print_human(_HANDLERS[subcommand](effective), stream)
        stream.flush()  # the output is complete here, so a failed write (a closed pipe) exits 1
        return 0
    except _Help as exc:
        stream.write(str(exc))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # library invariant violations and failed writes to ``stream``
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run()
    try:  # a write that failed left its bytes buffered; Python's flush at exit would fail again
        sys.stdout.flush()
    except OSError:  # and exit 120, so the bytes go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
