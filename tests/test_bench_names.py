"""Every function the bench tracer wraps or counts exists in greenpoly.

`bench/tracer.py` names its spans (`SPANS`) and call counters (`COUNTS`) by
layer module and function.  The tracer runs only with `bench/run.py --trace
1`, so a name that no longer resolves would otherwise go unnoticed until a
traced run fails.  The two tables are read from the tracer's source, without
importing or running it.
"""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _tracer_tables() -> dict:
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


_TABLES = _tracer_tables()
# (module, dotted name, what the tracer needs of it): a span wraps a callable;
# a counter reads the code object of a Python function
_NAMES = sorted(
    {(mod, func, "span") for mod, funcs in _TABLES.get("SPANS", {}).values() for func in funcs}
    | {(mod, dotted, "count") for mod, dotted in _TABLES.get("COUNTS", {}).values()}
)


def test_tracer_tables_are_found():
    assert set(_TABLES) == {"SPANS", "COUNTS"}
    assert all(_TABLES.values())


@pytest.mark.parametrize("module,dotted,use", _NAMES, ids=[f"{m}.{d}" for m, d, _ in _NAMES])
def test_traced_name_resolves(module, dotted, use):
    obj = importlib.import_module(f"greenpoly.{module}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    if use == "span":
        assert callable(obj)
    else:
        assert obj.__code__.co_name == dotted.rsplit(".", 1)[-1]
