"""Every correctness check in the package raises, so `python -O` keeps it."""

import ast
from pathlib import Path

import greenpoly

PACKAGE = Path(greenpoly.__file__).resolve().parent


def test_no_assert_statement_in_package():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements, dropped under python -O: {found}"
