"""The solved tableau is plain data, and `spin` reads what it needs there.

`solve` keeps each column's pairings with the irreducibles, and a tensor
multiplicity is one of them.  So `spin` imports nothing from `lusztigshoji`
but `GreenTableau` and nothing from `springer`, and `GreenTableau.__init__`
assigns no attribute whose name starts with `_`: no cache of a quantity
derived from K rides on the tableau.  The source is read by AST, not
imported."""

import ast
from pathlib import Path

import greenpoly

PACKAGE = Path(greenpoly.__file__).resolve().parent


def _imports(tree, name):
    """Every name taken from the module greenpoly.<name>, and the module
    itself when it is imported whole, at any depth."""
    dotted = f"greenpoly.{name}"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "greenpoly" or (node.level and not module):
                found += [a.name for a in node.names if a.name == name]
            elif module in (name, dotted):
                found += [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == dotted]
    return found


def _private_assignments(tree, cls):
    """Names of the attributes of self that cls.__init__ assigns and that
    start with `_`."""
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    init = next(n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    targets = []
    for n in ast.walk(init):
        if isinstance(n, ast.Assign):
            targets += n.targets
        elif isinstance(n, (ast.AnnAssign, ast.AugAssign)):
            targets.append(n.target)
    return [
        t.attr
        for target in targets
        for t in ast.walk(target)
        if isinstance(t, ast.Attribute)
        and isinstance(t.value, ast.Name)
        and t.value.id == "self"
        and t.attr.startswith("_")
    ]


def _parse(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def test_finders_see_every_form():
    source = """
from .lusztigshoji import GreenTableau, solve
from greenpoly.lusztigshoji import verify as v
from . import lusztigshoji
import greenpoly.lusztigshoji

def f():
    from .lusztigshoji import green
    from .springer import q_M_pairing

class T:
    def __init__(self, x):
        self.x = x
        self._a = None
        self.y, self._b = 1, 2
        self._c: int = 0
        self._c += 1
"""
    tree = ast.parse(source)
    assert _imports(tree, "lusztigshoji") == [
        "GreenTableau", "solve", "verify", "lusztigshoji", "greenpoly.lusztigshoji", "green"
    ]
    assert _imports(tree, "springer") == ["q_M_pairing"]
    assert _private_assignments(tree, "T") == ["_a", "_b", "_c", "_c"]


def test_spin_imports_only_the_tableau_from_the_solver():
    assert _imports(_parse("spin.py"), "lusztigshoji") == ["GreenTableau"]


def test_spin_imports_nothing_from_springer():
    assert _imports(_parse("spin.py"), "springer") == []


def test_tableau_keeps_no_private_state():
    assert _private_assignments(_parse("lusztigshoji.py"), "GreenTableau") == []
