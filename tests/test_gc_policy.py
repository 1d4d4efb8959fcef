"""Process-wide GC policy lives in the CLI entry point alone: `cli.main`
freezes the heap when it runs as a process, and no module in the package
disables, forces or skips garbage collection or the normal exit."""

import ast
from pathlib import Path

import greenpoly

PACKAGE = Path(greenpoly.__file__).resolve().parent
BANNED = {("gc", "disable"), ("gc", "collect"), ("os", "_exit")}


def _uses(tree):
    """(enclosing function or None, module, name, line) for every gc.* and
    os._exit reached by attribute or imported by name."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("gc", "os")
        ):
            found.append((func, node.value.id, node.attr, node.lineno))
        if isinstance(node, ast.ImportFrom) and node.module in ("gc", "os"):
            found.extend((func, node.module, alias.name, node.lineno) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _package_uses():
    return [
        (path.relative_to(PACKAGE).as_posix(), *use)
        for path in sorted(PACKAGE.rglob("*.py"))
        for use in _uses(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_gc_freeze_only_in_cli_main():
    sites = [
        (path, func)
        for path, func, mod, name, _ in _package_uses()
        if (mod, name) == ("gc", "freeze")
    ]
    assert sites == [("cli.py", "main")]


def test_no_gc_disable_collect_or_os_exit():
    found = [
        f"{path}:{line} {mod}.{name}"
        for path, _, mod, name, line in _package_uses()
        if (mod, name) in BANNED or (mod == "gc" and name == "*")
    ]
    assert not found, f"process-wide GC or exit policy outside cli.main's freeze: {found}"
