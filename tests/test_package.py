"""The package boundary: production modules never import the oracles, the
public names are one pinned list with no retired route bound anywhere, and
the README's library example and CLI lines run."""

import ast
import dataclasses
import importlib
import io
import os
import re
import shlex

import pytest

import hawkchan
from hawkchan import cli, oracle, protocol

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRODUCTION = ("channel", "protocol", "metrics", "linop", "sweep", "cli")


def imports_oracle(source: str) -> bool:
    """Whether any import statement of ``source``, at any depth, loads ``hawkchan.oracle``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name == "hawkchan.oracle" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            # Every relative import in the package is relative to hawkchan itself.
            module = ".".join(filter(None, ["hawkchan" if node.level else "", node.module]))
            if module == "hawkchan.oracle" or (
                    module == "hawkchan" and any(alias.name == "oracle" for alias in node.names)):
                return True
    return False


@pytest.mark.parametrize("source, expected", [
    ("from . import oracle", True),
    ("from .oracle import tensor", True),
    ("from hawkchan import oracle", True),
    ("from hawkchan.oracle import superposed_state", True),
    ("import hawkchan.oracle", True),
    ("def f():\n    from .oracle import tensor\n", True),
    ("from . import linop, metrics", False),
    ("from .channel import kraus_block", False),
])
def test_import_detector(source, expected):
    assert imports_oracle(source) is expected


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_the_oracles(module):
    """Read from source: ``hawkchan/__init__`` loads ``oracle``, so ``sys.modules`` shows nothing."""
    with open(os.path.join(ROOT, "src", "hawkchan", f"{module}.py"), encoding="utf-8") as f:
        assert not imports_oracle(f.read())


PUBLIC = [
    "BELL_STATE", "BlackHoleGeometry", "BranchStatistics", "ChannelParams", "METRICS",
    "MetricReport", "SweepGrid", "SweepSpec", "apply_channel", "channel_output_closed_form",
    "coherent_info_closed", "cross_term", "cross_term_dilated", "emit_csv", "emit_json",
    "measure_control", "negativity", "negativity_avg_closed", "negativity_convex_avg",
    "negativity_mixture_closed", "report_for_state", "report_for_states", "run_sweep",
    "squeezing_from_geometry",
]
# Second routes to a measure, to the Kraus build, to the Bell state or to a
# channel pair; `report_for_state(s)`, `kraus_operators`, `BELL_STATE` and two
# `ChannelParams` are the routes.  The last two were one-caller helpers that
# `measure_control` now spells out inline.  The six from `argparse` on are the argparse
# parsers that `cli._parse` replaced; they live on only as the test oracle in
# `tests/helpers.py`, as does `von_neumann_entropy` (`helpers.entropy`): no command needs S(rho).
RETIRED = ("KrausPair", "kraus_pair", "coherent_information", "ppt_separable",
           "average_branch_negativity", "ensemble_coherent_information", "_branch_average",
           "ProtocolConfig", "bell_state", "phase_protocol", "_interference_blocks",
           "branch_scalars", "argparse", "_Parser", "_build_parser", "_PARSER", "_SUBPARSERS",
           "_parse_args", "von_neumann_entropy")
# Oracles that the top level no longer re-exports: they are read from `hawkchan.oracle`.
ORACLE_ONLY = ("apply_channel_dilated", "dilation_unitary", "superposed_state")


def test_public_surface_is_pinned():
    assert hawkchan.__all__ == PUBLIC
    assert [f.name for f in dataclasses.fields(hawkchan.BranchStatistics)] == [
        "a_scalar", "b_scalar", "c_scalar", "p_plus", "p_minus", "rho_plus", "rho_minus",
        "rho_mixture", "reports", "negativity_avg", "coherent_info_ensemble",
        "negativity_avg_closed", "negativity_mixture_closed", "negativity_convex_avg"]
    assert hawkchan.BELL_STATE is protocol.BELL_STATE
    assert not hawkchan.BELL_STATE.flags.writeable


@pytest.mark.parametrize("module", sorted(
    f[:-3] for f in os.listdir(os.path.join(ROOT, "src", "hawkchan")) if f.endswith(".py")))
def test_no_module_binds_a_retired_name(module):
    name = "hawkchan" if module == "__init__" else f"hawkchan.{module}"
    assert sorted(set(RETIRED) & set(vars(importlib.import_module(name)))) == []


def test_every_public_name_resolves():
    missing = [name for name in hawkchan.__all__ if not hasattr(hawkchan, name)]
    assert missing == []
    assert hawkchan.cross_term_dilated is oracle.cross_term_dilated
    assert [name for name in ORACLE_ONLY if hasattr(hawkchan, name)] == []


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    section = readme.split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "from hawkchan import" in example
    exec(compile(example, "README.md (Library)", "exec"), {})


def test_readme_cli_lines_run(tmp_path):
    """Every ``hawkchan ...`` line of the README's CLI block exits 0, with its
    ``--out`` files written under ``tmp_path``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("hawkchan ")]
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line)[1:]
        for i, word in enumerate(argv[:-1]):
            if word == "--out" and argv[i + 1] != "-":
                argv[i + 1] = str(tmp_path / argv[i + 1])
        assert cli.run(argv, stdout=io.StringIO()) == 0, line
