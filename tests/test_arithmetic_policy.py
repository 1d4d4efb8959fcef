"""The library computes in Z[q] only: no module under `src/greenpoly`
imports `fractions`, and `polyq.RatFun`, the retired rational-function class
whose name the benchmark tracer still counts, defines nothing but an
`__init__` that raises.  The source is read by AST, not imported."""

import ast
from pathlib import Path

import pytest

import greenpoly
from greenpoly import polyq

PACKAGE = Path(greenpoly.__file__).resolve().parent
BANNED = "fractions"


def _banned_imports(tree):
    """Line of every import of BANNED or of a name from it, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(n == BANNED or n.startswith(BANNED + ".") for n in names):
            found.append(node.lineno)
    return sorted(found)


def _methods(tree, cls):
    """Names of the functions defined in the body of class cls."""
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return [
        n.name for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_finder_sees_every_form_of_import():
    source = """
import fractions
from fractions import Fraction
import os, fractions as fr
from . import fractions_like

def f():
    from fractions import Fraction as F
    return F

class C:
    def g(self):
        import fractions
"""
    assert _banned_imports(ast.parse(source)) == [2, 3, 4, 8, 13]


def test_no_module_imports_fractions():
    sites = [
        (path.relative_to(PACKAGE).as_posix(), line)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in _banned_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == []


def test_ratfun_is_only_a_raising_placeholder():
    tree = ast.parse((PACKAGE / "polyq.py").read_text(encoding="utf-8"))
    assert _methods(tree, "RatFun") == ["__init__"]
    with pytest.raises(TypeError, match="^RatFun is retired: greenpoly computes in Z\\[q\\] only$"):
        polyq.RatFun()
