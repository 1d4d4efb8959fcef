"""The package reads JSON only where it reads a table file: `json` is imported
in `springer.load_table` and nowhere else, not by the built-in tables, which
are Python literals, and not by the CLI, which writes its JSON itself
(`cli._json_text`) so that printing JSON does not import `json`.  A
polynomial reaches that writer as it is, and the writer writes it from its
coefficients as `json.dumps(default=IntPoly.to_json)` would: the CLI builds
no `{"coeffs": ...}` dict."""

import ast
from pathlib import Path

import greenpoly

PACKAGE = Path(greenpoly.__file__).resolve().parent
TABLE_READERS = {("springer.py", "load_table")}


def _json_imports(tree):
    """(enclosing function or None, line) for every import of json or of a
    module under it."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if not node.level else []
        else:
            names = []
        if any(name == "json" or name.startswith("json.") for name in names):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _package_json_imports():
    return [
        (path.relative_to(PACKAGE).as_posix(), func, line)
        for path in sorted(PACKAGE.rglob("*.py"))
        for func, line in _json_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_json_imported_only_by_the_table_readers():
    outside = [site for site in _package_json_imports() if site[:2] not in TABLE_READERS]
    assert not outside, f"json imported outside the table readers: {outside}"


def test_import_finder_sees_every_form():
    tree = ast.parse(
        "import json\n"
        "def f():\n"
        "    import os, json.decoder\n"
        "    from json import dumps\n"
        "from . import json_like\n"
        "import jsonschema\n"
    )
    assert _json_imports(tree) == [(None, 1), ("f", 3), ("f", 4)]


def _to_json_calls(tree):
    """The lines of every call of a method named to_json."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_json"
    ]


def test_cli_calls_no_to_json():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert not _to_json_calls(tree), "cli.py calls to_json; pass IntPolys to the writer as they are"


def test_to_json_finder_sees_calls_not_references():
    tree = ast.parse(
        "a = f.to_json()\n"
        "b = [e.to_json() for e in row]\n"
        "c = g(default=IntPoly.to_json)\n"
        "d = to_json(x)\n"
    )
    assert _to_json_calls(tree) == [1, 2]
