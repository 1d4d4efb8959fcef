"""Whole-group enumeration stays out of production: `weyl.all_elements` is
reached only from `weyl.delta_twisted_classes`, the twisted-orbit listing
that the tests read as an oracle.  Every other path builds from closed
forms."""

import ast
from pathlib import Path

import greenpoly

PACKAGE = Path(greenpoly.__file__).resolve().parent
NAME = "all_elements"


def _uses(tree):
    """(enclosing function or None, line) for every reference to NAME: a bare
    name, an attribute (`weyl.all_elements`) or a name imported from a module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            (isinstance(node, ast.Name) and node.id == NAME)
            or (isinstance(node, ast.Attribute) and node.attr == NAME)
            or (isinstance(node, ast.ImportFrom) and any(a.name == NAME for a in node.names))
        ):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_finder_sees_every_form_of_reference():
    source = """
from .weyl import all_elements as everything
import greenpoly.weyl as weyl

def direct(t):
    return all_elements(t)

def through_module(t):
    return [w for w in weyl.all_elements(t)]

def passed_on(t):
    f = all_elements
    return f(t)

def all_elements(t):  # a definition is not a reference
    return ()
"""
    assert _uses(ast.parse(source)) == [
        (None, 2), ("direct", 6), ("through_module", 9), ("passed_on", 12),
    ]


def test_all_elements_only_in_delta_twisted_classes():
    sites = sorted(
        {
            (path.relative_to(PACKAGE).as_posix(), func)
            for path in PACKAGE.rglob("*.py")
            for func, _ in _uses(ast.parse(path.read_text(encoding="utf-8")))
        }
    )
    assert sites == [("weyl.py", "delta_twisted_classes")]
