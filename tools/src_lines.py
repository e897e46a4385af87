"""Count the lines of every module of one checkout's ``src/hawkchan``.

Usage::

    python tools/src_lines.py CHECKOUT

It prints one row ``MODULE TOTAL CODE`` per module, in name order, and a
last row ``production TOTAL CODE`` that sums every module but
``oracle.py``: the oracles are cross-checks, not the production route,
so the production count leaves them out.  ``TOTAL`` is the module's line
count.  ``CODE`` counts the lines that are neither blank, nor a comment,
nor part of a docstring (the first statement of a module, class or
function when it is a string, found with ``ast``), so that deleting
prose does not read as less code.  Compare two checkouts with::

    diff <(python tools/src_lines.py OLD) <(python tools/src_lines.py NEW)
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The 1-based line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """``(total, code)`` for one module's source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="a source tree with src/hawkchan")
    args = parser.parse_args(argv)
    package = os.path.join(args.checkout, "src", "hawkchan")
    production = [0, 0]
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as f:
            total, code = count_lines(f.read())
        print(name, total, code)
        if name != "oracle.py":
            production[0] += total
            production[1] += code
    print("production", *production)


if __name__ == "__main__":
    main()
