import ast
import os
import subprocess
import sys
from functools import lru_cache

import pytest

import greenpoly
from greenpoly.lusztigshoji import solve
from greenpoly.spin import _times as clifford_times
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


def skewed_times(x: dict, vec) -> dict:
    """`spin._times` with the wrong sign on e_k e_0 for every one-term e_k:
    on A2, B3, C3, D4 and G2 it keeps z^2, but the lifts no longer reflect."""
    out = {}
    for j, a in enumerate(vec):
        for s, c in x.items():
            odd = ((s >> j).bit_count() + (j == 0 and s.bit_count() == 1)) & 1
            out[s ^ 1 << j] = out.get(s ^ 1 << j, 0) + (-a * c if odd else a * c)
    return {s: c for s, c in out.items() if c}


def swapped_times(x: dict, vec) -> dict:
    """`spin._times` in which a one-term vector e_k times e_2 is e_k e_3 and
    times e_3 is e_k e_2; every other product of monomials is as in the
    Clifford algebra.  It is bilinear, like the true product, but a root's
    reflection check at e_2 reads alpha e_3 alpha and fails, and so does the
    check on sum_j B^j e_j for B > 1, while the errors at e_2 and e_3 cancel
    on e_0 + ... + e_(m-1)."""
    vec = (*vec, *(0,) * (4 - len(vec)))
    ones = {s: c for s, c in x.items() if s.bit_count() == 1}
    out = clifford_times(ones, (*vec[:2], vec[3], vec[2], *vec[4:]))
    for s, c in clifford_times({s: c for s, c in x.items() if s not in ones}, vec).items():
        out[s] = out.get(s, 0) + c
    return {s: c for s, c in out.items() if c}


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
