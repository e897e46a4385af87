"""Digest every output of one checkout, so that two checkouts can be compared byte for byte.

Usage::

    python tools/output_digest.py CHECKOUT [--seed 7] [--blocks 12] [--resolution N]

``CHECKOUT`` is a source tree with ``src/hawkchan``; its ``hawkchan.cli.run``
runs, in this process, the same ops the benchmark in ``perfbench/workloads.py``
sends (that module is imported, not changed):

* the point-query blocks ``0 .. blocks-1`` of ``--seed``, each op once
  with ``--format json`` and once with ``--format human``;
* the sweep files of the ``grid-closed`` and ``grid-numeric`` passes of
  ``--seed`` (both percentage sweeps at 401 as CSV and JSON,
  ``phase_curve`` at 401, ``coherent_info_diff`` at 51; the seed draws
  each sweep's range), at ``--resolution`` when given;
* the first CSV and the first JSON ``grid-closed`` sweep again with
  ``--out -``, written to stdout;
* the ``defaults`` group: one query per point-query subcommand and one
  ``--out -`` sweep per metric, each giving only its required flags
  (and ``--format json`` for a query's JSON twin), so that a moved
  default changes this line;
* the ``refusals`` groups, one op per usage error: ``refusals.missing-flag``
  holds each of those queries and sweeps with one required flag left out;
  one group per entry of ``BAD_QUERIES`` holds a bad ``--format``, a bad
  ``--metric``, a value that is not a number, a flag prefix, a flag
  without its value, an unrecognized word and an unknown subcommand; and
  ``refusals.config`` holds an unknown key and a non-string value for a
  string flag in a temporary ``--config`` file.  A changed refusal thus
  names itself.

It prints one line ``GROUP SHA256`` per point-query format, per sweep
file, per stdout sweep, for the defaults group and per refusals group,
over each op's argv, exit code, stdout and stderr, plus the file bytes
for a sweep file.
Each call's stdout is captured both as the ``stdout=`` stream of
``cli.run`` and as the redirected ``sys.stdout``, so a checkout that
writes ``--out -`` to either one gives the same digest.  Two checkouts give byte-identical
outputs when the printed lines are equal::

    diff <(python tools/output_digest.py OLD) <(python tools/output_digest.py NEW)

Seed 7 (the default) happens to draw sweep ranges on which a change that
moves cells only at roundoff can leave every file unchanged, so compare a
second seed as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, sweep_op  # noqa: E402


def _load_cli(checkout: str):
    """``hawkchan.cli`` imported from ``checkout/src``, and nowhere else."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    from hawkchan import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"hawkchan imported from {cli.__file__}, not from {src}")
    return cli


def _run(cli, argv: list, shown=None) -> bytes:
    """One ``cli.run(argv)`` call framed as ``shown``, exit code, stdout and stderr.

    ``shown`` (default ``argv``) leaves out a temporary output path, which differs per run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv, stdout=out)
    parts = ["\0".join(shown or argv), str(code), out.getvalue(), err.getvalue()]
    return b"".join(f"{len(p)}:{p}".encode() for p in parts)


def point_query_digests(cli, seed: int, blocks: int) -> dict:
    digests = {"point-queries.json": hashlib.sha256(), "point-queries.human": hashlib.sha256()}
    for index in range(blocks):
        for op in WORKLOADS["point-queries"].pass_ops(seed, index):
            assert op.argv[-2:] == ["--format", "json"], op.argv
            digests["point-queries.json"].update(_run(cli, op.argv))
            digests["point-queries.human"].update(_run(cli, op.argv[:-1] + ["human"]))
    return {group: d.hexdigest() for group, d in digests.items()}


def sweep_digests(cli, seed: int, resolution=None) -> dict:
    ops = WORKLOADS["grid-closed"].pass_ops(seed, 0) + WORKLOADS["grid-numeric"].pass_ops(seed, 0)
    if resolution is not None:
        ops = [sweep_op(op.params["metric"], op.params["lo"], op.params["hi"], resolution,
                        op.params["format"]) for op in ops]
    to_stdout = [next(op for op in ops if op.params["format"] == fmt) for fmt in ("csv", "json")]
    digests = {}
    with tempfile.TemporaryDirectory(prefix="output-digest-") as work:
        for op in ops:
            digest = hashlib.sha256(_run(cli, op.argv_for(work), op.argv + ["--out", op.out]))
            path = os.path.join(work, op.out)
            if os.path.exists(path):  # a failed sweep may write nothing
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            digests[f"sweep.{op.out}"] = digest.hexdigest()
    for op in to_stdout:
        digest = hashlib.sha256(_run(cli, op.argv + ["--out", "-"]))
        digests[f"sweep-stdout.{op.out}"] = digest.hexdigest()
    return digests


# Each point query with its required flags only; sweeps add --metric and --out -.
DEFAULT_QUERIES = [
    ["geometry", "--mass", "1", "--radius", "2.02", "--k0", "0.05"],
    ["channel", "--r", "0.4"],
    ["protocol", "--r1", "0.2", "--r2", "0.7"],
    ["phase", "--r", "0.5"],
]


def defaults_digest(cli) -> dict:
    digest = hashlib.sha256()
    for argv in DEFAULT_QUERIES:
        digest.update(_run(cli, argv + ["--format", "json"]))
        digest.update(_run(cli, argv))
    for metric in cli.METRICS:
        digest.update(_run(cli, ["sweep", "--metric", metric, "--out", "-"]))
    return {"defaults": digest.hexdigest()}


# Usage errors beside the missing flags, by group name; each exits 2 with its message on
# stderr.  The last four are refused by the parse itself: a flag prefix, a flag without
# its value, an unrecognized word and an unknown subcommand.
BAD_QUERIES = {
    "bad-format": ["channel", "--r", "0.4", "--format", "xml"],
    "bad-metric": ["sweep", "--metric", "negativity", "--out", "-"],
    "not-a-number": ["phase", "--r", "half"],
    "flag-prefix": ["protocol", "--r", "0.2", "--r2", "0.7"],
    "missing-value": ["channel", "--r"],
    "unrecognized-word": ["channel", "--r", "0.4", "extra"],
    "unknown-subcommand": ["teleport", "--r", "0.4"],
}
# Config files for ``channel --r 0.4``: an unknown key, and a number for the string flag --format.
BAD_CONFIGS = [{"bogus": 1}, {"format": 1}]


def refusals_digest(cli) -> dict:
    missing = hashlib.sha256()
    sweep = ["sweep", "--metric", "phase_curve", "--out", "-"]
    for argv in DEFAULT_QUERIES + [sweep]:
        for i in range(1, len(argv), 2):  # leave out one flag and its value
            missing.update(_run(cli, argv[:i] + argv[i + 2:]))
    digests = {"refusals.missing-flag": missing.hexdigest()}
    for name, argv in BAD_QUERIES.items():
        digests[f"refusals.{name}"] = hashlib.sha256(_run(cli, argv)).hexdigest()
    config = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as work:
        for index, values in enumerate(BAD_CONFIGS):
            path = os.path.join(work, f"config-{index}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(values, fh)
            argv = ["channel", "--r", "0.4", "--config"]
            config.update(_run(cli, argv + [path], argv + [json.dumps(values)]))
    digests["refusals.config"] = config.hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="source tree whose src/hawkchan is run")
    parser.add_argument("--seed", type=int, default=7, help="benchmark seed of the ops (default: 7)")
    parser.add_argument("--blocks", type=int, default=12, help="point-query blocks 0..N-1")
    parser.add_argument("--resolution", type=int, default=None,
                        help="run every sweep at this resolution (default: as benchmarked)")
    args = parser.parse_args(argv)
    cli = _load_cli(args.checkout)
    digests = {**point_query_digests(cli, args.seed, args.blocks),
               **sweep_digests(cli, args.seed, args.resolution),
               **defaults_digest(cli),
               **refusals_digest(cli)}
    for group, hexdigest in digests.items():
        print(group, hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
