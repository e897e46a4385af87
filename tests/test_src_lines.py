"""Smoke test for tools/src_lines.py, the per-module line and code-line count of a checkout."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "src_lines.py")


def rows(checkout):
    done = subprocess.run([sys.executable, TOOL, str(checkout)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return [(name, int(total), int(code))
            for name, total, code in (line.split() for line in done.stdout.splitlines())]


def test_rows_count_every_module_and_the_production_total_leaves_out_the_oracles():
    *modules, production = rows(ROOT)
    package = os.path.join(ROOT, "src", "hawkchan")
    assert [name for name, _, _ in modules] == sorted(
        f for f in os.listdir(package) if f.endswith(".py"))
    for name, total, code in modules:
        with open(os.path.join(package, name), encoding="utf-8") as f:
            assert total == len(f.read().splitlines())
        assert 0 < code < total
    kept = [row for row in modules if row[0] != "oracle.py"]
    assert len(kept) == len(modules) - 1
    assert production == ("production", sum(r[1] for r in kept), sum(r[2] for r in kept))


def test_blank_comment_and_docstring_lines_are_not_code(tmp_path):
    package = tmp_path / "src" / "hawkchan"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\n'
        'def f():\n    """One line."""\n    return """not\n# a docstring"""  # trailing\n')
    assert rows(tmp_path) == [("a.py", 8, 3), ("production", 8, 3)]
