import ast
import os
import subprocess
import sys
from functools import lru_cache

import pytest

import greenpoly
from greenpoly.lusztigshoji import solve
from greenpoly.springer import table_typeA, table_typeC

SRC = os.path.dirname(os.path.dirname(greenpoly.__file__))
TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def tracer_tables() -> dict:
    """The bench tracer's `SPANS` (span name -> (module, functions)) and
    `COUNTS` (counter name -> (module, dotted function name)), read from its
    source without importing or running it."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTS")
    }


def traced_names() -> list:
    """(module, dotted name, what the tracer needs of it) for every name in
    the tracer's tables, sorted: a span wraps a callable; a counter reads the
    code object of a Python function."""
    tables = tracer_tables()
    return sorted(
        {(mod, func, "span") for mod, funcs in tables.get("SPANS", {}).values() for func in funcs}
        | {(mod, dotted, "count") for mod, dotted in tables.get("COUNTS", {}).values()}
    )


def run_fresh(code, *args, env=None, **kwargs):
    """Run `python -c code args` in a fresh interpreter that imports greenpoly
    from this checkout's src, and return its CompletedProcess.  env adds to
    the current environment; the other keywords go to subprocess.run, which
    captures stdout and stderr unless they are given."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC, **(env or {})),
        **kwargs,
    )


# the Springer tables `solve` runs on in the tests: GL(2)-GL(8) and Sp(2)-Sp(6)
SOLVED_TABLES = [("A", n) for n in range(2, 9)] + [("C", n) for n in range(1, 4)]


@lru_cache(maxsize=None)
def solved(ambient: str, n: int):
    if ambient == "A":
        return solve(table_typeA(n))
    return solve(table_typeC(n))


@pytest.fixture(scope="session")
def tableau():
    return solved
