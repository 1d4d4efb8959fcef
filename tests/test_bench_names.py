"""Every function the bench tracer wraps or counts exists in greenpoly.

`bench/tracer.py` names its spans (`SPANS`) and call counters (`COUNTS`) by
layer module and function.  The tracer runs only with `bench/run.py --trace
1`, so a name that no longer resolves would otherwise go unnoticed until a
traced run fails.  The two tables are read from the tracer's source, without
importing or running it (`conftest.tracer_tables`).
"""

import importlib

import pytest

from conftest import traced_names, tracer_tables

_NAMES = traced_names()


def test_tracer_tables_are_found():
    tables = tracer_tables()
    assert set(tables) == {"SPANS", "COUNTS"}
    assert all(tables.values())


@pytest.mark.parametrize("module,dotted,use", _NAMES, ids=[f"{m}.{d}" for m, d, _ in _NAMES])
def test_traced_name_resolves(module, dotted, use):
    obj = importlib.import_module(f"greenpoly.{module}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    if use == "span":
        assert callable(obj)
    else:
        assert obj.__code__.co_name == dotted.rsplit(".", 1)[-1]
