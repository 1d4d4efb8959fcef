"""Policies on the package's source, read by AST and not imported.

One walker (`_walk`) yields each node of a module with the function that
encloses it, one normaliser (`_imported`) names what an import binds, and
`RULES` states each policy as a finder and what it must find:

- the library computes in Z[q] only: no module imports `fractions`, and
  `polyq.RatFun`, kept because the bench tracer counts its calls, defines
  nothing but an `__init__` that raises;
- whole-group enumeration stays out of production: `weyl.all_elements` is
  reached only from `weyl.delta_twisted_classes`;
- process-wide GC policy lives in the CLI entry point: `gc.freeze` only in
  `cli.main`, and no `gc.disable`, `gc.collect` or `os._exit` anywhere;
- JSON is read only where a table file is read, `springer.load_table`, and
  the CLI hands IntPolys to its own writer without calling `to_json`;
- the solved tableau is plain data: `spin` imports nothing from
  `lusztigshoji` but `GreenTableau` and nothing from `springer`, and
  `GreenTableau.__init__` assigns no attribute whose name starts with `_`;
- every check raises, so `python -O` keeps it: no `assert` statement;
- no module imports a `_name` from another module of the package;
- every public top-level function, class or constant, and every public
  method, has a user in the package, is named by the bench tracer
  (`conftest.traced_names`), or is imported or read as an attribute by
  `tests/test_acceptance.py`.
"""

import ast
from pathlib import Path

import pytest

import greenpoly
from greenpoly import polyq

from conftest import traced_names

PACKAGE = Path(greenpoly.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _walk(tree, func=None):
    """(innermost enclosing function or None, node) for every node of tree; a
    function's own node counts as enclosed by it."""
    if isinstance(tree, FUNCTIONS):
        func = tree.name
    yield func, tree
    for child in ast.iter_child_nodes(tree):
        yield from _walk(child, func)


def _imported(node) -> list:
    """(module, name) for each binding of an import statement, the module
    absolute (a relative import is resolved in greenpoly) and the name None
    where a whole module is bound; [] for any other node."""
    if isinstance(node, ast.Import):
        return [(alias.name, None) for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level:
        module = "greenpoly." + module if module else "greenpoly"
    if module == "greenpoly":
        return [(f"greenpoly.{alias.name}", None) for alias in node.names]
    return [(module, alias.name) for alias in node.names]


SOURCES = {path.relative_to(PACKAGE).as_posix(): _parse(path) for path in sorted(PACKAGE.rglob("*.py"))}


def _nodes(sources: dict) -> list:
    """(file, enclosing function or None, node) for every node of every tree."""
    return [(path, func, node) for path, tree in sources.items() for func, node in _walk(tree)]


NODES = _nodes(SOURCES)


def _imports_of(module: str, nodes=NODES) -> list:
    """(file, function) of every import of module or of anything under it."""
    return [
        (path, func)
        for path, func, node in nodes
        for m, _ in _imported(node)
        if m == module or m.startswith(module + ".")
    ]


def _module_uses(module: str) -> list:
    """(file, function, name) for every `module.name` and every name imported
    from module."""
    return [
        (path, func, node.attr)
        for path, func, node in NODES
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == module
    ] + [(path, func, name) for path, func, node in NODES for m, name in _imported(node) if m == module]


def _bound_from(tree, module: str) -> list:
    """What tree takes from the package module: each name, or the module
    itself when it is imported whole."""
    return [
        name or m
        for _, node in _walk(tree)
        for m, name in _imported(node)
        if m == f"greenpoly.{module}"
    ]


def _class(tree, name: str) -> ast.ClassDef:
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)


def _private_assignments(tree, cls: str) -> list:
    """Names of the attributes of self that cls.__init__ assigns and that
    start with `_`."""
    init = next(n for n in _class(tree, cls).body if isinstance(n, FUNCTIONS) and n.name == "__init__")
    targets = [
        t
        for _, n in _walk(init)
        for t in (n.targets if isinstance(n, ast.Assign) else
                  [n.target] if isinstance(n, (ast.AnnAssign, ast.AugAssign)) else [])
    ]
    return [
        t.attr
        for target in targets
        for _, t in _walk(target)
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
        and t.value.id == "self" and t.attr.startswith("_")
    ]


def _identifier(node):
    """The name a bare name or an attribute reads; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _references(name: str, nodes=NODES) -> list:
    """(file, function, line) of every read of name: a bare name, an
    attribute (`weyl.name`) or a name imported from a module."""
    return [
        (path, func, node.lineno)
        for path, func, node in nodes
        if _identifier(node) == name or any(n == name for _, n in _imported(node))
    ]


def _method_calls(tree, name: str) -> list:
    """The lines of every call of a method called name."""
    return [
        node.lineno
        for _, node in _walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    ]


def _public_definitions(tree) -> list:
    """The public names tree defines: each top-level def or class, each
    method of a top-level class, and each module-level constant (a name a
    top-level assignment binds), in source order."""
    names = []
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [n.name for n in node.body if isinstance(n, FUNCTIONS)]
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [
            t.id for target in targets for _, t in _walk(target)
            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
        ]
    return [name for name in names if not name.startswith("_")]


def _unused_public_names() -> list:
    """(file, name) of each public top-level def, class or constant, and
    each public method, that nothing in the package reads outside its own
    body, that the tracer does not name and that the acceptance test
    neither imports nor reads as an attribute.  Reads are matched by
    identifier, so `x.name` reads every method called name; a binding
    (`name = ...`, `self.name = ...`) is no read."""
    users = {}
    for path, func, node in NODES:
        if not isinstance(getattr(node, "ctx", None), ast.Store):
            users.setdefault(_identifier(node), set()).add((path, func))
    exempt = {(f"{mod}.py", part) for mod, dotted, _ in traced_names() for part in dotted.split(".")}
    acceptance = list(_walk(_parse(ACCEPTANCE)))
    exempt |= {
        (m.split(".")[-1] + ".py", name)
        for _, node in acceptance
        for m, name in _imported(node)
        if m.startswith("greenpoly.")
    }
    read = {node.attr for _, node in acceptance if isinstance(node, ast.Attribute)}
    return [
        (path, name)
        for path, tree in SOURCES.items()
        for name in _public_definitions(tree)
        if (path, name) not in exempt and name not in read
        and not users.get(name, set()) - {(path, name)}
    ]


# rule -> (finder, what it must return)
RULES = {
    "no_module_imports_fractions": (lambda: _imports_of("fractions"), []),
    "ratfun_is_only_a_raising_placeholder": (
        lambda: [n.name for n in _class(SOURCES["polyq.py"], "RatFun").body if isinstance(n, FUNCTIONS)],
        ["__init__"],
    ),
    "all_elements_only_in_delta_twisted_classes": (
        lambda: sorted({(path, func) for path, func, _ in _references("all_elements")}),
        [("weyl.py", "delta_twisted_classes")],
    ),
    "gc_freeze_only_in_cli_main": (
        lambda: [(path, func) for path, func, name in _module_uses("gc") if name == "freeze"],
        [("cli.py", "main")],
    ),
    "no_gc_disable_collect_or_os_exit": (
        lambda: [
            (path, func, f"{mod}.{name}")
            for mod, banned in (("gc", {"disable", "collect", "*"}), ("os", {"_exit"}))
            for path, func, name in _module_uses(mod)
            if name in banned
        ],
        [],
    ),
    "json_imported_only_by_the_table_readers": (
        lambda: [site for site in _imports_of("json") if site != ("springer.py", "load_table")],
        [],
    ),
    "cli_calls_no_to_json": (
        lambda: _method_calls(SOURCES["cli.py"], "to_json"),
        [],
    ),
    "spin_imports_only_the_tableau_from_the_solver": (
        lambda: _bound_from(SOURCES["spin.py"], "lusztigshoji"), ["GreenTableau"],
    ),
    "spin_imports_nothing_from_springer": (lambda: _bound_from(SOURCES["spin.py"], "springer"), []),
    "tableau_keeps_no_private_state": (
        lambda: _private_assignments(SOURCES["lusztigshoji.py"], "GreenTableau"), [],
    ),
    "no_assert_statement_in_package": (
        lambda: [(path, node.lineno) for path, _, node in NODES if isinstance(node, ast.Assert)],
        [],
    ),
    "no_private_name_imported_across_modules": (
        lambda: [
            (path, m, name)
            for path, _, node in NODES
            for m, name in _imported(node)
            if m.startswith("greenpoly.") and name and name.startswith("_")
        ],
        [],
    ),
    "every_public_name_has_a_user": (_unused_public_names, []),
}


@pytest.mark.parametrize("rule", RULES)
def test_rule(rule):
    finder, want = RULES[rule]
    assert finder() == want


def test_ratfun_raises():
    with pytest.raises(TypeError, match="^RatFun is retired: greenpoly computes in Z\\[q\\] only$"):
        polyq.RatFun()


def test_walker_and_normaliser_see_every_form():
    tree = ast.parse("""
import fractions, os.path as p
from .weyl import all_elements as everything, _rho
from greenpoly.lusztigshoji import verify
from . import lusztigshoji

def f():
    from json import dumps
    def g():
        gc.freeze()
    return weyl.all_elements(t).to_json()

class T:
    def __init__(self):
        self.y, self._b = 1, 2
        self._c: int = 0
        self._c += 1
""")
    assert [(func, m, name) for func, node in _walk(tree) for m, name in _imported(node)] == [
        (None, "fractions", None), (None, "os.path", None),
        (None, "greenpoly.weyl", "all_elements"), (None, "greenpoly.weyl", "_rho"),
        (None, "greenpoly.lusztigshoji", "verify"), (None, "greenpoly.lusztigshoji", None),
        ("f", "json", "dumps"),
    ]
    assert [
        (func, node.attr) for func, node in _walk(tree) if isinstance(node, ast.Attribute)
    ] == [("g", "freeze"), ("f", "to_json"), ("f", "all_elements"),
          ("__init__", "y"), ("__init__", "_b"), ("__init__", "_c"), ("__init__", "_c")]


def test_import_finder_sees_every_form_of_fractions():
    tree = ast.parse("""
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
""")
    assert _imports_of("fractions", _nodes({"t.py": tree})) == [
        ("t.py", None), ("t.py", None), ("t.py", None), ("t.py", "f"), ("t.py", "g"),
    ]


def test_reference_finder_sees_every_form_of_all_elements():
    tree = ast.parse("""
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
""")
    assert _references("all_elements", _nodes({"t.py": tree})) == [
        ("t.py", None, 2), ("t.py", "direct", 6), ("t.py", "through_module", 9), ("t.py", "passed_on", 12),
    ]


def test_import_finder_sees_every_form_of_json():
    tree = ast.parse(
        "import json\n"
        "def f():\n"
        "    import os, json.decoder\n"
        "    from json import dumps\n"
        "from . import json_like\n"
        "import jsonschema\n"
    )
    assert _imports_of("json", _nodes({"t.py": tree})) == [("t.py", None), ("t.py", "f"), ("t.py", "f")]


def test_to_json_finder_sees_calls_not_references():
    tree = ast.parse(
        "a = f.to_json()\n"
        "b = [e.to_json() for e in row]\n"
        "c = g(default=IntPoly.to_json)\n"
        "d = to_json(x)\n"
    )
    assert _method_calls(tree, "to_json") == [1, 2]


def test_public_definition_finder_sees_every_form():
    tree = ast.parse("""
LIMIT = 3
A, (B, _c) = 1, (2, 3)
D: int = 4
_E = 5
x.y = 6

def f():
    G = 7
    return G

async def g():
    pass

class T:
    H = 8

    def m(self):
        pass

    async def n(self):
        pass

    def _p(self):
        pass

    @property
    def q(self):
        return 1

class _U:
    def r(self):
        pass
""")
    assert _public_definitions(tree) == ["LIMIT", "A", "B", "D", "f", "g", "T", "m", "n", "q", "r"]


def test_tableau_finders_see_every_form():
    tree = ast.parse("""
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
""")
    assert _bound_from(tree, "lusztigshoji") == [
        "GreenTableau", "solve", "verify", "greenpoly.lusztigshoji", "greenpoly.lusztigshoji", "green",
    ]
    assert _bound_from(tree, "springer") == ["q_M_pairing"]
    assert _private_assignments(tree, "T") == ["_a", "_b", "_c", "_c"]
