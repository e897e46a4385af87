"""The package boundary: production modules never import the oracles, every
public name resolves, and the README's library example runs."""

import ast
import os
import re

import pytest

import hawkchan
from hawkchan import oracle

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


def test_every_public_name_resolves():
    missing = [name for name in hawkchan.__all__ if not hasattr(hawkchan, name)]
    assert missing == []
    for name in ("apply_channel_dilated", "cross_term_dilated", "dilation_unitary",
                 "superposed_state"):
        assert getattr(hawkchan, name) is getattr(oracle, name)


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    section = readme.split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "from hawkchan import" in example
    exec(compile(example, "README.md (Library)", "exec"), {})
