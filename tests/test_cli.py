import csv
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly import charring
from greenpoly.charring import fake_degree, qell_rows
from greenpoly.cli import _json_text, _label_str, main
from greenpoly.polyq import ZERO, IntPoly
from greenpoly.weyl import WeylType, build

from conftest import SOLVED_TABLES, run_fresh, solved
from oracles import tableau_payload_dicts, to_json


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


# ran() lists the layers whose module bodies have run: exec puts __builtins__
# into the globals of every module it runs, and object.__getattribute__ reads
# the dict of a lazily registered module without running it
RAN = (
    "import sys\n"
    "LAYERS = 'polyq partitions weyl charring springer lusztigshoji spin cli'.split()\n"
    "def ran():\n"
    "    return [m for m in LAYERS if '__builtins__' in\n"
    "            object.__getattribute__(sys.modules['greenpoly.' + m], '__dict__')]\n"
)


def test_cli_import_leaves_numpy_out():
    # the pin layer is exact integer arithmetic: no verb, the pin verbs and
    # `verify all` included, imports numpy
    code = RAN + (
        "import contextlib, io\n"
        "from greenpoly.cli import main\n"
        "runs = [['spin', 'classify', '--type', 'A', '--rank', '4'],\n"
        "        ['spin', 'index', '--type', 'C', '--rank', '2', '--orbit', '2,2', '--phi', 'triv'],\n"
        "        ['verify', 'all', '--type', 'C', '--rank', '2']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(args) for args in runs]\n"
        "print(codes, 'numpy' in sys.modules, 'spin' in ran())\n"
    )
    out = run_fresh(code, text=True, check=True).stdout
    assert out.split() == ["[0,", "0,", "0]", "False", "True"]


def test_cli_import_is_lean_and_eager():
    # importing the CLI pulls in no record, rational-number, argument-parser
    # or JSON machinery from the standard library, and registers every layer
    # up front without running any (the bench tracer reads all eight modules
    # from sys.modules right after this import)
    code = RAN + (
        "before = set(sys.modules)\n"
        "import greenpoly.cli\n"
        "heavy = ('dataclasses', 'inspect', 'fractions', 'decimal', 'argparse', 'gettext', 'locale',\n"
        "         'json')\n"
        "print(*sorted(m for m in heavy if m in sys.modules and m not in before))\n"
        "print(*[m for m in LAYERS if 'greenpoly.' + m not in sys.modules])\n"
        "print(*ran())\n"
    )
    out = run_fresh(code, text=True, check=True).stdout
    # nothing heavy loaded, no layer missing, only the CLI run
    assert out.split("\n") == ["", "", "cli", ""]


def test_entry_point_runs_only_the_layers_of_its_verb():
    # wg runs on weyl, which imports polyq and partitions; the JSON form
    # imports no json, and the character ring, tables, solver and pin layer
    # stay unrun
    code = RAN + (
        "import contextlib, io\n"
        "from greenpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    rc = main()\n"
        "print(rc, 'json' in sys.modules, *ran())\n"
        "print(out.getvalue(), end='')\n"
    )
    out = run_fresh(code, "wg", "classes", "--type", "B", "--rank", "3", "--json", text=True, check=True)
    status, printed = out.stdout.split("\n", 1)
    assert status.split() == ["0", "False", "polyq", "partitions", "weyl", "cli"]
    assert len(json.loads(printed)) == 10  # the classes of W(B3)


def test_type_c_green_imports_no_json():
    # the built-in Sp(6) table is a Python literal: solving it and printing
    # the tableau as JSON reads no file and leaves json unimported
    code = (
        "import contextlib, io, sys\n"
        "from greenpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    rc = main()\n"
        "print(rc, 'json' in sys.modules)\n"
        "print(out.getvalue(), end='')\n"
    )
    out = run_fresh(code, "green", "--type", "C", "--rank", "3", "--json", text=True, check=True)
    status, printed = out.stdout.split("\n", 1)
    assert status.split() == ["0", "False"]
    assert len(json.loads(printed)["pairs"]) == 10  # the pairs of Sp(6)


def test_layer_imported_after_the_cli_is_usable():
    # _layer sets each lazy module on the package, as an import does, so
    # the package attribute an import statement binds is the working module
    code = (
        "import greenpoly.cli\n"
        "import greenpoly.weyl\n"
        "from greenpoly import spin\n"
        "print(len(greenpoly.weyl.build(greenpoly.weyl.WeylType('B', 3)).classes), spin.build_pin.__name__)\n"
    )
    assert run_fresh(code, text=True, check=True).stdout.split() == ["10", "build_pin"]


def test_verify_all_loads_no_rationals():
    # the (-1)-elliptic rank is computed by integer Bareiss elimination
    code = (
        "import contextlib, io, sys\n"
        "from greenpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['verify', 'all', '--type', 'C', '--rank', '2'])\n"
        "print(rc, *sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
    )
    out = run_fresh(code, text=True, check=True).stdout
    assert out.split() == ["0"]


# every character class json.dumps escapes: controls, DEL, quotes, non-ASCII,
# lone surrogates and characters above U+FFFF (written as surrogate pairs)
_text = st.text(st.characters(exclude_categories=()) | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF))
_leaf = (
    st.none() | st.booleans() | st.floats() | _text
    | st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
)
_json_values = st.recursive(
    _leaf,
    lambda inner: (
        st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_text, inner)
        # the writer's one-join paths: lists of ints and lists of strings
        | st.lists(st.integers()) | st.lists(_text) | st.lists(st.text("0123456789-"))
    ),
    max_leaves=20,
)


_coefficient = st.integers() | st.integers(2**63, 2**200) | st.integers(-(2**200), -(2**63))


@st.composite
def _with_polys(draw):
    """A JSON value with IntPolys among its leaves: ZERO and a few drawn
    polynomials, each leaf either a polynomial itself (so one object may be
    repeated) or an equal copy of it (equal but distinct objects)."""
    pool = [ZERO] + draw(st.lists(st.lists(_coefficient, max_size=5).map(IntPoly), min_size=1, max_size=4))
    member = st.sampled_from(pool)
    leaf = _leaf | member | member.map(lambda f: IntPoly(f.coeffs))
    return draw(st.recursive(
        leaf,
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_text, inner),
        max_leaves=20,
    ))


@given(_json_values, _with_polys())
@settings(deadline=None, max_examples=150)
def test_json_text_is_json_dumps(value, with_polys):
    assert _json_text(value) == json.dumps(value)
    assert _json_text(with_polys) == json.dumps(with_polys, default=to_json)


@pytest.mark.parametrize(
    "text", ["\x00", "\x1f", "\x7f", '"', "\\", "\n", "\u00e9", "\u2028", "\ud800", "\U0001f600"],
    ids=["nul", "unit-separator", "del", "quote", "backslash", "newline", "e-acute",
         "line-separator", "lone-surrogate", "astral"],
)
def test_json_text_escapes_each_character_class_as_json_does(text):
    # one character of each class json.dumps escapes, alone, inside plain
    # text, as a dict key and in a list of strings
    for value in (text, f"a{text}b", {text: [f"x{text}"]}, ["a", text]):
        assert _json_text(value) == json.dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        ZERO,
        [ZERO, ZERO, [ZERO]],
        [IntPoly([2**63, -(2**63) - 1, 0, 1])] * 3,
        {"a": IntPoly([-(2**64), 1]), "b": IntPoly([-(2**64), 1]), "c": [IntPoly([-(2**64), 1])]},
    ],
    ids=["zero", "zero-repeated", "one-object-repeated", "equal-but-distinct"],
)
def test_json_text_writes_polynomials_as_their_to_json(value):
    assert _json_text(value) == json.dumps(value, default=to_json)


@pytest.mark.parametrize("family,rank", SOLVED_TABLES, ids=[f"{f}{r}" for f, r in SOLVED_TABLES])
def test_green_json_is_json_dumps_of_dict_payload(capsys, family, rank):
    # the payload as built with one {"coeffs": ...} dict per polynomial,
    # written by json itself
    code, out, _ = run(capsys, "green", "--type", family, "--rank", str(rank), "--json")
    assert code == 0
    tab = solved(family, rank)
    assert out == json.dumps(tableau_payload_dicts(tab)) + "\n"


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("D", 4), ("G2", 2)])
def test_fakedeg_json_is_json_dumps_of_dict_payload(capsys, family, rank):
    code, out, _ = run(capsys, "fakedeg", "--type", family, "--rank", str(rank), "--json")
    assert code == 0
    g = build(WeylType(family, rank))
    payload = [
        {"irrep": _label_str(l), "fake_degree": to_json(fake_degree(g, i))}
        for i, l in enumerate(g.irrep_labels)
    ]
    assert out == json.dumps(payload) + "\n"


@pytest.mark.parametrize(
    "value", [{1: "a"}, {"a": {None: 1}}, {("a",): 1}, [b"x"], ["a", b"x"], {1, 2}, [object()], 1j]
)
def test_json_text_rejects_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        _json_text(value)


def _cycles():
    a = []
    a.append(a)
    d = {"x": [1, "y"]}
    d["x"].append((d,))
    return [a, d, [IntPoly([1]), {"k": a}]]


@pytest.mark.parametrize("value", _cycles(), ids=["list", "dict-through-tuple", "nested"])
def test_json_text_rejects_a_value_that_holds_itself(value):
    # json.dumps raises ValueError("Circular reference detected"); the writer
    # raises the same, not a RecursionError
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        json.dumps(value, default=to_json)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        _json_text(value)


def test_json_text_keeps_the_recursion_error_of_a_deep_value():
    # a value nested past the recursion limit, with no cycle, fails as in json
    deep = inner = []
    for _ in range(5000):
        inner.append([])
        inner = inner[0]
    for write in (json.dumps, _json_text):
        with pytest.raises(RecursionError):
            write(deep)


C3_TABLE = os.path.join(os.path.dirname(__file__), "..", "src", "greenpoly", "data", "springer_C3.json")


@pytest.mark.parametrize(
    "args",
    [
        ("wg", "classes", "--type", "D", "--rank", "4"),
        ("wg", "chartable", "--type", "G2", "--rank", "2"),
        ("pairing", "gram", "--type", "B", "--rank", "3", "--form", "qell"),
        ("pairing", "gram", "--type", "B", "--rank", "3", "--form", "minusone"),
        ("pairing", "gram", "--type", "A", "--rank", "3", "--form", "delta"),
        ("fakedeg", "--type", "B", "--rank", "3"),
        ("springer", "show", "--type", "C", "--rank", "2"),
        ("springer", "load", C3_TABLE),
        ("green", "--type", "A", "--rank", "4"),
        ("green", "--type", "C", "--rank", "2"),
        ("verify", "ls", "--type", "A", "--rank", "4"),
        ("verify", "all", "--type", "C", "--rank", "2"),
        ("spin", "sigma", "--type", "A", "--rank", "4", "--orbit", "3,1"),
        ("spin", "classify", "--type", "A", "--rank", "4"),
        ("spin", "index", "--type", "C", "--rank", "2", "--orbit", "2,2"),
    ],
    ids=" ".join,
)
def test_json_output_is_what_json_writes(capsys, args):
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"


def test_wg_classes_json(capsys):
    code, out, _ = run(capsys, "wg", "classes", "--type", "B", "--rank", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert sum(row["size"] for row in data) == 8
    assert all(set(row) == {"label", "size"} for row in data)


def test_wg_chartable(capsys):
    code, out, _ = run(capsys, "wg", "chartable", "--type", "A", "--rank", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["table"]) == 5 and len(data["table"][0]) == 5


def test_green_sl3_csv(capsys):
    code, out, _ = run(capsys, "green", "--type", "A", "--rank", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith("1,q,q^3")  # sgn row of K


def test_green_json_poly_encoding(capsys):
    code, out, _ = run(capsys, "green", "--type", "A", "--rank", "3", "--json")
    data = json.loads(out)
    bottom = data["K_columns"][-1]["coords"]["(2,1)"]
    assert bottom == {"coeffs": ["0", "1", "1"]}
    assert "notes" in data


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--type", "C", "--rank", "2")
    assert code == 0
    assert "kl_equation" in out and "FAIL" not in out


def test_verify_all_failure_witnesses(capsys, monkeypatch):
    import greenpoly.charring as charring
    from greenpoly import spin
    from greenpoly.weyl import WeylType, build, delta_elliptic_count

    def checks():
        code, out, _ = run(capsys, "verify", "all", "--type", "C", "--rank", "3", "--json")
        return code, {c["identity"]: c for c in json.loads(out)["checks"]}

    code, passed = checks()
    assert code == 0
    assert passed["elliptic_rank_count"]["detail"] is None
    assert passed["spin_square_trace"]["detail"] is None
    assert passed["pin_braid_relations"]["detail"] is None
    assert passed["chevalley_product"]["detail"] is None

    g = build(WeylType("C", 3))
    pin = spin.build_pin(g)
    # doubling the lifts of the classes after the first breaks
    # tr^2 = a_V det_V(1 + w) exactly where tr != 0: classes 4 and 6 of C3
    first = next(k for k in range(1, len(g.classes)) if pin.trace(pin.lift_of_class(k)) != 0)
    _, out, _ = run(capsys, "wg", "classes", "--type", "C", "--rank", "3", "--json")
    first_label = json.loads(out)[first]["label"]
    lift = spin.PinRep.lift_of_class

    def doubled(self, k):
        u = lift(self, k)
        return spin.PinElement({s: (2 if k else 1) * c for s, c in u.coeffs.items()}, u.norm)

    monkeypatch.setattr(spin.PinRep, "lift_of_class", doubled)
    monkeypatch.setattr(charring, "minus_one_gram_rank", lambda g: 99)
    code, failed = checks()
    assert code == 2
    assert failed["elliptic_rank_count"] == {
        "identity": "elliptic_rank_count",
        "ok": False,
        "detail": {"rank": 99, "count": delta_elliptic_count(g)},
    }
    assert not failed["spin_square_trace"]["ok"]
    assert failed["spin_square_trace"]["detail"] == first_label


def test_verify_all_braid_witness(capsys, monkeypatch):
    from greenpoly import spin

    build_pin = spin.build_pin

    def broken(g):
        pin = build_pin(g)
        pin.roots[2] = (0, 1, 1)  # no root: breaks the pairs (0, 2) and (1, 2)
        return pin

    monkeypatch.setattr(spin, "build_pin", broken)
    code, out, _ = run(capsys, "verify", "all", "--type", "C", "--rank", "3", "--json")
    assert code == 2
    checks = {c["identity"]: c for c in json.loads(out)["checks"]}
    assert checks["pin_braid_relations"] == {
        "identity": "pin_braid_relations",
        "ok": False,
        "detail": {"pair": [0, 2]},
    }


def test_verify_all_chevalley_witness(capsys, monkeypatch):
    import greenpoly.charring as charring
    from greenpoly.weyl import WeylType, build

    g = build(WeylType("C", 3))
    x1 = charring.coinvariant_character(g)  # cached before p(q) is tampered with
    p = charring.poincare_poly(g) + charring.ONE
    first = next(k for k in range(len(g.classes)) if x1.value(k) * g.refl_charpoly[k] != p)
    _, out, _ = run(capsys, "wg", "classes", "--type", "C", "--rank", "3", "--json")
    first_label = json.loads(out)[first]["label"]
    monkeypatch.setattr(charring, "poincare_poly", lambda g: p)
    code, out, _ = run(capsys, "verify", "all", "--type", "C", "--rank", "3", "--json")
    assert code == 2
    checks = {c["identity"]: c for c in json.loads(out)["checks"]}
    assert checks["chevalley_product"] == {
        "identity": "chevalley_product",
        "ok": False,
        "detail": first_label,
    }


def test_verify_json_structure(capsys):
    code, out, _ = run(capsys, "verify", "ls", "--type", "A", "--rank", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    names = {c["identity"] for c in data["checks"]}
    assert {"kl_equation", "lambda_m_product", "cross_orbit_orthogonality"} <= names


@pytest.mark.gl12
def test_verify_ls_at_gl12_passes_every_identity(capsys):
    # the largest supported solve and its verify suite, kl_equation's
    # one-point check included, end to end through the CLI
    code, out, _ = run(capsys, "verify", "ls", "--type", "A", "--rank", "12", "--json")
    data = json.loads(out)
    assert code == 0 and data["ok"] is True
    assert all(c["ok"] for c in data["checks"]), [c for c in data["checks"] if not c["ok"]]
    assert "kl_equation" in {c["identity"] for c in data["checks"]}


def test_springer_show_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "springer", "show", "--type", "C", "--rank", "2", "--json")
    assert code == 0
    path = tmp_path / "c2.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "springer", "load", str(path))
    assert code == 0
    assert "valid" in out2


def test_springer_load_sentence_and_json(capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "src", "greenpoly", "data",
                        "springer_C3.json")
    code, out, err = run(capsys, "springer", "load", path)
    assert (code, out, err) == (0, "loaded type C rank 3: 8 orbits, 10 pairs, valid\n", "")
    code, out, err = run(capsys, "springer", "load", path, "--json")
    assert code == 0 and err == ""
    assert out == '{"type": "C", "rank": 3, "orbits": 8, "pairs": 10, "valid": true}\n'


def test_springer_load_bad_file(capsys, tmp_path):
    bad = {
        "type": "C",
        "rank": 2,
        "orbits": [
            {
                "partition": [4],
                "d_e": 0,
                "pairs": [{"local_system": "triv", "irrep": [[], [1, 1]]}],
            }
        ],
        "closure": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "springer", "load", str(path))
    assert code == 1
    assert "misses" in err


def _c2_table(edit):
    from greenpoly.springer import save_table, table_typeC

    d = save_table(table_typeC(2))
    edit(d)
    return d


def _c2_file(edit=None, text=None, data=None):
    """Writer of a FILE argument: the C2 table changed by edit, then its JSON
    text changed by text, or the raw bytes data."""

    def write(tmp_path):
        path = tmp_path / "table.json"
        if data is not None:
            path.write_bytes(data)
        else:
            out = json.dumps(_c2_table(edit or (lambda d: None)))
            path.write_text(text(out) if text else out)
        return path

    return write


# well-formed JSON that every verb reading the table refuses in one line
_LONE_SURROGATE_LABEL = _c2_file(lambda d: d["orbits"][1]["pairs"][1].update(local_system="\ud800"))
_NESTED_TOO_DEEP = _c2_file(data=b"[" * 100_000 + b"]" * 100_000)
# labels that would split a CSV row or a `springer show` line
_COMMA_NEWLINE_LABEL = _c2_file(lambda d: d["orbits"][1]["pairs"][1].update(local_system="a,b\nc"))
_EMPTY_LABEL = _c2_file(lambda d: d["orbits"][1]["pairs"][1].update(local_system=""))
_UNPRINTABLE_LABEL = _c2_file(lambda d: d["orbits"][1]["pairs"][1].update(local_system="s\tgn"))


@pytest.mark.parametrize(
    "make",
    [
        _c2_file(lambda d: d.update(rank=9)),
        _c2_file(lambda d: d["orbits"][1].pop("pairs")),
        _c2_file(lambda d: d["orbits"][1].update(partition=[2, "1", 1])),
        _c2_file(lambda d: d["orbits"][0].update(comp_group=[1])),
        _c2_file(lambda d: d["orbits"][0]["pairs"][0].update(irrep=3)),
        _c2_file(lambda d: d["orbits"][0]["pairs"][0].update(char_on_generators=1)),
        _c2_file(lambda d: d.update(closure=[["a", "b"]])),
        _c2_file(lambda d: d["orbits"][0]["pairs"][0].update(local_system=[1])),
        None,  # no FILE at all
        lambda tmp_path: tmp_path,
        _c2_file(data=b"\xff\xfe{}"),
        _c2_file(text=lambda t: t.replace('"rank": 2', '"rank": 1e400')),
        _c2_file(text=lambda t: t.replace('"rank": 2', '"rank": 1' + "0" * 5000)),
        _c2_file(lambda d: d["orbits"][0].update(d_e=False)),
        _c2_file(lambda d: d["orbits"][2].update(d_e=2.0)),
        _c2_file(lambda d: d["orbits"][1]["comp_group"].update(k=1.0)),
        _c2_file(lambda d: d["orbits"][0]["pairs"][0].update(char_on_generators=[True])),
        _c2_file(lambda d: d["orbits"][1]["pairs"][0].update(char_on_generators=[1.0])),
        _c2_file(lambda d: d["orbits"][1]["pairs"][0].update(char_on_generators="1\n-1")),
        _LONE_SURROGATE_LABEL,
        _NESTED_TOO_DEEP,
        _COMMA_NEWLINE_LABEL,
        _EMPTY_LABEL,
        _UNPRINTABLE_LABEL,
    ],
    ids=[
        "rank-out-of-range", "orbit-without-pairs", "non-integer-part",
        "comp-group-not-object", "irrep-not-a-label", "characters-not-a-list",
        "closure-not-index-pairs", "local-system-not-a-string", "no-file",
        "file-is-a-directory", "not-utf8", "rank-overflows", "integer-too-long",
        "d-e-false", "d-e-float", "k-float", "character-true", "character-float",
        "characters-with-newline", "local-system-lone-surrogate", "nested-too-deep",
        "local-system-comma-newline", "local-system-empty", "local-system-unprintable",
    ],
)
def test_springer_load_malformed_input(capsys, tmp_path, make):
    args = ["springer", "load"]
    if make is not None:
        args.append(str(make(tmp_path)))
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "make",
    [_LONE_SURROGATE_LABEL, _NESTED_TOO_DEEP, _COMMA_NEWLINE_LABEL, _EMPTY_LABEL,
     _UNPRINTABLE_LABEL],
    ids=["local-system-lone-surrogate", "nested-too-deep", "local-system-comma-newline",
         "local-system-empty", "local-system-unprintable"],
)
@pytest.mark.parametrize(
    "verb", [("springer", "show"), ("green",), ("green", "--format", "csv")], ids=" ".join
)
def test_data_dir_unprintable_or_deep_table(capsys, tmp_path, make, verb):
    make(tmp_path).rename(tmp_path / "springer_C2.json")
    code, out, err = run(capsys, *verb, "--type", "C", "--rank", "2", "--data-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1


def test_data_dir_table_must_match_request(capsys, tmp_path):
    # the C2 table saved under the file name of GL(3)'s
    path = tmp_path / "springer_A3.json"
    path.write_text(json.dumps(_c2_table(lambda d: None)))
    code, out, err = run(capsys, "green", "--type", "A", "--rank", "3", "--data-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1
    assert "type C rank 2" in err


@pytest.mark.parametrize("via_env", [False, True])
def test_data_dir_must_be_a_directory(capsys, monkeypatch, tmp_path, via_env):
    # a missing directory, or a file, is refused by every verb that reads an
    # orbit table, whether --data-dir or GREENPOLY_DATA_DIR names it; the
    # group verbs read no table and run as before
    a_file = tmp_path / "springer_A3.json"
    a_file.write_text("{}")
    table_verbs = [
        ("springer", "show", "--type", "A", "--rank", "3"),
        ("green", "--type", "A", "--rank", "3"),
        ("verify", "all", "--type", "A", "--rank", "3"),
        ("spin", "classify", "--type", "A", "--rank", "3"),
    ]
    for path in (str(tmp_path / "missing"), str(a_file)):
        given = () if via_env else ("--data-dir", path)
        if via_env:
            monkeypatch.setenv("GREENPOLY_DATA_DIR", path)
        for args in table_verbs:
            code, out, err = run(capsys, *args, *given)
            assert (code, out) == (1, "")
            assert err == (
                f"error: data directory {path!r} (--data-dir or $GREENPOLY_DATA_DIR) "
                "is not a directory\n"
            )
        code, out, err = run(capsys, "wg", "classes", "--type", "A", "--rank", "3", *given)
        assert code == 0 and out and not err


@pytest.mark.parametrize("family, rank", [("A", "13"), ("C", "4"), ("A", "1"), ("C", "0")])
def test_table_rank_out_of_range(capsys, family, rank):
    code, out, err = run(capsys, "green", "--type", family, "--rank", rank)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_spin_sigma(capsys):
    code, out, _ = run(
        capsys, "spin", "sigma", "--type", "A", "--rank", "5", "--orbit", "3,2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["exact_norm"] == 2


def test_spin_classify(capsys):
    code, out, _ = run(capsys, "spin", "classify", "--type", "A", "--rank", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert sum(d["constituents"] for d in data) == 5  # genuine count for GL(5)


def test_spin_index(capsys):
    code, out, _ = run(
        capsys, "spin", "index", "--type", "C", "--rank", "2",
        "--orbit", "2,2", "--phi", "triv", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["even_nonzero"] and data["coset_nonzero"]


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "wg", "classes")[0] == 1  # missing --type/--rank
    assert run(capsys, "wg", "classes", "--type", "A", "--rank", "40")[0] == 1
    assert run(capsys, "green", "--type", "B", "--rank", "2")[0] == 1  # no B tables
    for args in (("green", "--rank", "3"), ("springer", "show", "--type", "C")):
        assert run(capsys, *args) == (1, "", "error: --type and --rank are required\n")
    code, _, err = run(
        capsys, "verify", "ls", "--type", "A", "--rank", "3", "--tolerance", "0.5"
    )
    assert code == 1 and "tolerance" in err


@pytest.mark.parametrize(
    "args",
    [
        ("spin", "sigma", "--type", "A", "--rank", "3", "--orbit", "2,1"),
        ("spin", "classify", "--type", "A", "--rank", "4"),
        ("spin", "index", "--type", "C", "--rank", "2", "--orbit", "2,2"),
        ("springer", "show", "--type", "C", "--rank", "2"),
        ("springer", "load", "table.json"),
        ("verify", "ls", "--type", "A", "--rank", "3"),
        ("verify", "all", "--type", "C", "--rank", "2"),
    ],
)
def test_csv_rejected_before_any_work(capsys, monkeypatch, args):
    import greenpoly.cli as cli
    from greenpoly import lusztigshoji, springer

    def refuse(*a, **k):
        raise AssertionError("built or solved before --format csv was rejected")

    for module, name in (
        (cli, "_group"), (cli, "_table"), (springer, "load_table"), (lusztigshoji, "solve")
    ):
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run(capsys, *args, "--format", "csv")
    assert (code, out, err) == (1, "", "error: no CSV form for this command\n")


def test_csv_verbs_print_csv(capsys):
    code, out, _ = run(capsys, "wg", "classes", "--type", "A", "--rank", "2", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "label,size"
    for args in (("wg", "chartable"), ("pairing", "gram"), ("fakedeg",)):
        code, out, _ = run(capsys, *args, "--type", "A", "--rank", "2", "--format", "csv")
        assert code == 0 and "," in out and not out.lstrip().startswith(("{", "["))


def _csv_and_json(capsys, *args):
    """The CSV rows of a command, checked to be of one length, and its JSON."""
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert len({len(row) for row in rows}) == 1, args
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    return rows, json.loads(out)


def _check_green_csv(capsys, *args):
    rows, data = _csv_and_json(capsys, "green", *args)
    assert rows[0] == [""] + data["pairs"]
    assert [row[0] for row in rows[1:]] == data["pairs"]


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("D", 4), ("G2", 2), ("C", 2)])
def test_csv_parses_with_the_json_labels(capsys, fam, rank):
    # labels hold commas of their own, so such a field is quoted (RFC 4180):
    # every CSV form parses into rows of one length, labelled as in the JSON
    grp = ("--type", fam, "--rank", str(rank))
    rows, data = _csv_and_json(capsys, "wg", "classes", *grp)
    assert rows == [["label", "size"]] + [[c["label"], str(c["size"])] for c in data]
    rows, data = _csv_and_json(capsys, "wg", "chartable", *grp)
    assert rows == [[""] + data["classes"]] + [
        [label] + list(map(str, row)) for label, row in zip(data["irreps"], data["table"])
    ]
    rows, data = _csv_and_json(capsys, "pairing", "gram", *grp)
    assert rows == [[label] + row for label, row in zip(data["irreps"], data["gram"])]
    rows, data = _csv_and_json(capsys, "fakedeg", *grp)
    assert [row[0] for row in rows] == [d["irrep"] for d in data]
    if fam in ("A", "C"):  # the orbit tables: GL(3) and Sp(4)
        _check_green_csv(capsys, *grp)


def test_csv_quotes_a_double_quote(capsys, tmp_path):
    # a loaded local system may hold a double quote, doubled inside the quotes
    _c2_file(lambda d: d["orbits"][1]["pairs"][1].update(local_system='s"gn'))(tmp_path).rename(
        tmp_path / "springer_C2.json"
    )
    code, out, _ = run(capsys, "green", "--type", "C", "--rank", "2", "--format", "csv",
                       "--data-dir", str(tmp_path))
    assert code == 0 and '"(2, 2):s""gn"' in out
    _check_green_csv(capsys, "--type", "C", "--rank", "2", "--data-dir", str(tmp_path))


def test_deterministic_output(capsys):
    a = run(capsys, "green", "--type", "C", "--rank", "2", "--json")
    b = run(capsys, "green", "--type", "C", "--rank", "2", "--json")
    assert a == b


def test_fakedeg(capsys):
    code, out, _ = run(capsys, "fakedeg", "--type", "B", "--rank", "2")
    assert code == 0
    assert "q^4" in out


def test_pairing_gram(capsys):
    code, out, _ = run(
        capsys, "pairing", "gram", "--type", "A", "--rank", "2", "--form", "minusone", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["gram"][1][1] == 3  # reflection norm in the (-1)-form


def _check_qell_gram_prints_str(capsys, t, want):
    grp = ("--type", t.family, "--rank", str(t.rank), "--form", "qell")
    code, out, _ = run(capsys, "pairing", "gram", *grp, "--json")
    assert code == 0
    assert json.loads(out)["gram"] == want
    code, out, _ = run(capsys, "pairing", "gram", *grp, "--format", "csv")
    assert code == 0
    assert [row[1:] for row in csv.reader(out.splitlines())] == want


@pytest.mark.parametrize("fam,rank", [("B", 6), ("D", 6), ("A", 8)])
def test_qell_gram_entries_print_as_str(capsys, fam, rank):
    # the q-elliptic Gram formats each entry object once; every printed
    # entry, in JSON and in CSV, is still str of that entry
    t = WeylType(fam, rank)
    _check_qell_gram_prints_str(capsys, t, [[str(e) for e in row] for row in qell_rows(t)])


@pytest.mark.parametrize("fam,rank", [("B", 6), ("A", 8)])
def test_qell_gram_prints_equal_entries_that_are_distinct_objects(capsys, monkeypatch, fam, rank):
    # the same output when no two entries of the Gram share an object
    t = WeylType(fam, rank)
    want = [[str(e) for e in row] for row in qell_rows(t)]
    rows = tuple(tuple(IntPoly(e.coeffs) for e in row) for row in qell_rows(t))
    monkeypatch.setattr(charring, "qell_rows", lambda _: rows)
    _check_qell_gram_prints_str(capsys, t, want)


def test_pairing_gram_delta_matches_minusone(capsys):
    for fam, rank in [("B", "3"), ("D", "4")]:
        grams = []
        for form in ("minusone", "delta"):
            code, out, _ = run(
                capsys, "pairing", "gram", "--type", fam, "--rank", rank, "--form", form, "--json"
            )
            assert code == 0
            grams.append(json.loads(out)["gram"])
        assert grams[0] == grams[1]


@pytest.mark.parametrize(
    "args",
    [
        ("spin", "sigma", "--type", "A", "--rank", "3", "--orbit", "9,9"),
        ("spin", "index", "--type", "C", "--rank", "2", "--orbit", "2,2", "--phi", "bogus"),
    ],
)
def test_unknown_orbit_or_system_is_usage_error(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("what", ["sigma", "index"])
def test_missing_orbit_is_usage_error(capsys, monkeypatch, what):
    import greenpoly.cli as cli

    def refuse(*a, **k):
        raise AssertionError("table loaded before the missing --orbit was reported")

    monkeypatch.setattr(cli, "_table", refuse)
    code, out, err = run(capsys, "spin", what, "--type", "C", "--rank", "2")
    assert (code, out, err) == (1, "", f"error: spin {what} requires --orbit\n")


def _failing_c3_dir(tmp_path):
    # a table that loads but fails the exact verification battery: move the
    # extra local system of (4,2) in the rank-3 table onto (2,2,2)
    from greenpoly.springer import save_table, table_typeC

    d = save_table(table_typeC(3))
    i42 = next(i for i, o in enumerate(d["orbits"]) if o["partition"] == [4, 2])
    i222 = next(i for i, o in enumerate(d["orbits"]) if o["partition"] == [2, 2, 2])
    moved = d["orbits"][i42]["pairs"].pop(1)
    moved["char_on_generators"] = [-1]
    d["orbits"][i222]["pairs"].append(moved)
    (tmp_path / "springer_C3.json").write_text(json.dumps(d))
    return tmp_path


def test_verification_failure_exit_two(capsys, tmp_path):
    _failing_c3_dir(tmp_path)
    code, out, _ = run(
        capsys, "verify", "ls", "--type", "C", "--rank", "3",
        "--data-dir", str(tmp_path), "--json",
    )
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    failing = {c["identity"] for c in data["checks"] if not c["ok"]}
    assert "component_isometry" in failing

    code, out, _ = run(
        capsys, "green", "--type", "C", "--rank", "3", "--data-dir", str(tmp_path)
    )
    assert code == 2
    assert "component_isometry" in out
    # the solver's failure is one JSON object, as json writes it
    assert out == json.dumps(json.loads(out)) + "\n"
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("failing", [False, True], ids=["built-in", "failing-table"])
def test_spin_classify_rejects_type_c_before_solving(capsys, monkeypatch, tmp_path, failing):
    from greenpoly import lusztigshoji, spin

    def refuse(*a, **k):
        raise AssertionError("solved or built the pin cover before rejecting type C")

    monkeypatch.setattr(lusztigshoji, "solve", refuse)
    monkeypatch.setattr(spin, "build_pin", refuse)
    args = ["spin", "classify", "--type", "C", "--rank", "3"]
    if failing:
        args += ["--data-dir", str(_failing_c3_dir(tmp_path))]
    assert run(capsys, *args) == (1, "", "error: classification applies to type A tables\n")
    args[3] = "B"
    assert run(capsys, *args) == (
        1, "", "error: orbit tables exist for types A and C, not 'B'\n"
    )


def _gl2_without_triv_dir(tmp_path):
    # a GL(2) table whose orbit (2) carries both systems, triv -> (1,1) and
    # x -> (2), and whose orbit (1,1) carries none
    d = {
        "type": "A",
        "rank": 2,
        "orbits": [
            {
                "partition": [2],
                "pairs": [
                    {"local_system": "triv", "irrep": [1, 1]},
                    {"local_system": "x", "irrep": [2]},
                ],
            },
            {"partition": [1, 1], "pairs": []},
        ],
        "closure": [[0, 1]],
    }
    (tmp_path / "springer_A2.json").write_text(json.dumps(d))
    return tmp_path


@pytest.mark.parametrize(
    "verb", [["springer", "load"], ["green"], ["verify", "ls"], ["spin", "classify"]],
    ids=lambda verb: " ".join(verb),
)
def test_orbit_without_triv_system_is_a_data_error(capsys, tmp_path, verb):
    d = _gl2_without_triv_dir(tmp_path)
    if verb[0] == "springer":
        args = verb + [str(d / "springer_A2.json")]
    else:
        args = verb + ["--type", "A", "--rank", "2", "--data-dir", str(d)]
    # orbit (2,) is reported first: in GL(2) all its systems are on the
    # trivial character
    assert run(capsys, *args) == (
        1, "", "data error: orbit (2,): two local systems share a label or a character\n"
    )


# what the console script runs: main() with no argument, its status the exit code
ENTRY = "import sys; from greenpoly.cli import main; sys.exit(main())"


def test_entry_point_freezes_the_heap_and_calls_do_not():
    # importing the CLI and calling main(argv) leave the GC state alone; only
    # main() as the process entry point freezes the heap built so far
    code = (
        "import contextlib, gc, io, sys\n"
        "counts = [gc.get_freeze_count()]\n"
        "from greenpoly.cli import main\n"
        "counts.append(gc.get_freeze_count())\n"
        "sys.argv = ['greenpoly', 'wg', 'classes', '--type', 'G2', '--rank', '2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(sys.argv[1:])\n"
        "    counts.append(gc.get_freeze_count())\n"
        "    rc += main()\n"
        "counts.append(gc.get_freeze_count())\n"
        "print(rc, gc.isenabled(), *counts)\n"
    )
    out = run_fresh(code, text=True, check=True).stdout
    rc, enabled, *counts = out.split()
    assert (rc, enabled, counts[:3]) == ("0", "True", ["0", "0", "0"])
    assert int(counts[3]) > 0


def test_entry_point_freezes_after_the_verbs_layer_runs():
    # main() runs the verb's layer before the freeze, so the functions it
    # defines lie in the permanent generation, which gc.get_objects() does
    # not list.  wg runs weyl but not the solver, whose first use here comes
    # after the freeze; green runs the solver, which imports weyl.  No run
    # imports json, the JSON form of wg included.  A command line the parser
    # rejects still ends with a frozen heap.
    # (The freeze count alone cannot show this: it also counts the garbage
    # no collection has reached yet.)
    code = (
        "import contextlib, gc, io, sys\n"
        "from greenpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = main()\n"
        "fns = [sys.modules['greenpoly.weyl'].build, sys.modules['greenpoly.lusztigshoji'].solve]\n"
        "live = {id(o) for o in gc.get_objects()}\n"
        "print(rc, gc.get_freeze_count() > 0, 'json' in sys.modules,\n"
        "      *[gc.is_tracked(f) and id(f) not in live for f in fns])\n"
    )
    runs = [
        run_fresh(code, *args, text=True, check=True).stdout.split()
        for args in (
            ("green", "--type", "E", "--rank", "3"),
            ("wg", "classes", "--type", "A", "--rank", "3", "--json"),
            ("green", "--type", "A", "--rank", "3"),
        )
    ]
    assert runs == [
        ["1", "True", "False", "False", "False"],
        ["0", "True", "False", "True", "False"],
        ["0", "True", "False", "True", "True"],
    ]


@pytest.mark.parametrize(
    "status,args",
    [
        (0, ("wg", "chartable", "--type", "B", "--rank", "3", "--format", "csv")),
        (0, ("pairing", "gram", "--type", "D", "--rank", "4", "--form", "delta", "--json")),
        (0, ("fakedeg", "--type", "G2", "--rank", "2")),
        (0, ("springer", "load", "C3_FILE", "--json")),
        (0, ("green", "--type", "A", "--rank", "5")),
        (0, ("verify", "all", "--type", "C", "--rank", "2", "--json")),
        (0, ("spin", "index", "--type", "C", "--rank", "3", "--orbit", "4,2", "--phi", "sgn")),
        (1, ("green", "--rank", "3")),
        (2, ("verify", "ls", "--type", "C", "--rank", "3", "--json", "--data-dir", "FAILING_DIR")),
    ],
)
def test_entry_point_matches_in_process_call(capsys, tmp_path, status, args):
    # one command line per verb, and one of each error status: the process
    # entry point prints the same bytes and exits with the status main(argv) returns
    import greenpoly

    paths = {
        "C3_FILE": os.path.join(os.path.dirname(greenpoly.__file__), "data", "springer_C3.json"),
        "FAILING_DIR": str(_failing_c3_dir(tmp_path)),
    }
    args = [paths.get(a, a) for a in args]
    proc = run_fresh(ENTRY, *args)
    code, out, err = run(capsys, *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert code == status and (out or err)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_one_silently(unbuffered):
    # the reader of stdout is gone before the first write (greenpoly ... | head
    # -n 0): exit 1 with nothing on stderr, neither a data error nor the
    # interpreter's "Exception ignored" report of a failed flush at exit.
    # Buffered, the one write is main's last flush; unbuffered, the first print.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_fresh(
            ENTRY, "green", "--type", "A", "--rank", "5",
            env={"PYTHONUNBUFFERED": unbuffered}, stdout=write_end, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
