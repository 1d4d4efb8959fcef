import copy
import io
import itertools
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly.cli import main
from greenpoly.polyq import IntPoly
from greenpoly.springer import (
    OrbitLabel,
    TableFormatError,
    component_group,
    d_e,
    load_table,
    m_representation,
    nsol_by_pairing,
    nsol_predicate,
    q_M_gram,
    q_M_pairing,
    quasidistinguished_by_pairing,
    quasidistinguished_reference,
    save_table,
    table_typeA,
    table_typeC,
)


HERE = os.path.dirname(__file__)
SP2_FILE = os.path.join(HERE, "data", "springer_C1.json")
SP6_FILE = os.path.join(HERE, "..", "src", "greenpoly", "data", "springer_C3.json")


def P(*cs):
    return IntPoly(cs)


class TestTypeA:
    def test_table_a3(self):
        t = table_typeA(3)
        assert [r.label.partition for r in t.orbits] == [(3,), (2, 1), (1, 1, 1)]
        g = t.group
        # regular carries sgn, zero carries triv
        assert t.orbits[0].systems[0].irrep == g.sgn_index
        assert t.orbits[-1].systems[0].irrep == g.triv_index

    def test_d_e(self):
        for n in range(2, 9):
            assert d_e(OrbitLabel((n,), "A")) == 0
            assert d_e(OrbitLabel((1,) * n, "A")) == n * (n - 1) // 2

    def test_bijection_counts(self):
        for n in range(2, 13):
            t = table_typeA(n)
            assert len(t.pairs) == len(t.group.irrep_labels)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            table_typeA(13)


class TestTypeC:
    def test_sp4_pairs(self):
        t = table_typeC(2)
        got = [(r.label.partition, [s.label for s in r.systems]) for r in t.orbits]
        assert got == [
            ((4,), ["triv"]),
            ((2, 2), ["triv", "sgn"]),
            ((2, 1, 1), ["triv"]),
            ((1, 1, 1, 1), ["triv"]),
        ]
        g = t.group
        lab = lambda o, s: g.irrep_labels[t.pair_irreps[t.pair_of(o, s)]]
        assert lab((4,), "triv") == ((), (1, 1))
        assert lab((2, 2), "triv") == ((1,), (1,))
        assert lab((2, 2), "sgn") == ((1, 1), ())
        assert lab((2, 1, 1), "triv") == ((), (2,))
        assert lab((1, 1, 1, 1), "triv") == ((2,), ())

    def test_sp2(self):
        t = table_typeC(1)
        assert [r.label.partition for r in t.orbits] == [(2,), (1, 1)]
        g = t.group
        assert t.orbits[0].systems[0].irrep == g.sgn_index
        assert t.orbits[1].systems[0].irrep == g.triv_index

    def test_sp6_structure(self):
        t = table_typeC(3)
        assert [(r.label.partition, len(r.systems)) for r in t.orbits] == [
            ((6,), 1),
            ((4, 2), 2),
            ((4, 1, 1), 1),
            ((3, 3), 1),
            ((2, 2, 2), 1),
            ((2, 2, 1, 1), 2),
            ((2, 1, 1, 1, 1), 1),
            ((1, 1, 1, 1, 1, 1), 1),
        ]

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            OrbitLabel((3, 2, 1), "C")  # odd parts with odd multiplicity

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"^no built-in table for Sp\(8\): type C tables cover "
                           r"Sp\(2n\) for 1 <= n <= 3; load a table file for more$"):
            table_typeC(4)

    @pytest.mark.parametrize("n,path", [(1, SP2_FILE), (3, SP6_FILE)], ids=["Sp(2)", "Sp(6)"])
    def test_matches_reference_file(self, n, path):
        # the built-in table saves as the reference JSON, key for key
        with open(path, encoding="utf-8") as fh:
            assert save_table(table_typeC(n)) == json.load(fh)


def tr_M(lab, x):
    return m_representation(lab).trace(component_group(lab), x)


class TestMRep:
    def test_tr_m_22(self):
        lab = OrbitLabel((2, 2), "C")
        assert tr_M(lab, 0) == P(1, -1)
        assert tr_M(lab, 1) == P(1, 1)

    def test_tr_m_identity_product(self):
        # at the identity the trace is prod (1-q)^{dim V_Z} prod (1-q^d)
        lab = OrbitLabel((1, 1, 1, 1), "C")
        assert tr_M(lab, 0) == P(1, 0, -1) * P(1, 0, 0, 0, -1)
        lab = OrbitLabel((3, 2, 1), "A")
        assert tr_M(lab, 0) == P(1, -1) ** 2

    def test_gram_22(self):
        t = table_typeC(2)
        G = q_M_gram(t, t.find_orbit((2, 2)))
        assert G[0][0] == P(1) and G[1][1] == P(1)
        assert G[0][1] == P(0, -1) and G[1][0] == P(0, -1)

    def test_trivial_group_pairing_is_zeta(self):
        lab = OrbitLabel((1, 1, 1), "A")
        assert q_M_pairing(lab, 0, 0) == P(1, 0, -1) * P(1, 0, 0, -1)

    def test_pgl_two_power(self):
        for lam in [(2,), (3,), (2, 1), (3, 2), (4, 2, 1), (4, 3, 2, 1)]:
            lab = OrbitLabel(lam, "A")
            assert q_M_pairing(lab, 0, 0).eval(-1) == 2 ** (len(lam) - 1)

    def test_z2_shape_norm_one(self):
        # a doubled even part contributes a sign line; each character then has
        # (-1)-norm exactly 1
        lab = OrbitLabel((2, 2), "C")
        comp = component_group(lab)
        for mask in range(comp.size):
            assert q_M_pairing(lab, mask, mask).eval(-1) == 1
        lab = OrbitLabel((4, 4, 2, 2), "C")
        comp = component_group(lab)
        for mask in range(comp.size):
            assert q_M_pairing(lab, mask, mask).eval(-1) == 1


class TestPredicates:
    def test_nsol_examples(self):
        assert nsol_predicate(OrbitLabel((3, 2), "A"))
        assert not nsol_predicate(OrbitLabel((2, 2, 1), "A"))
        assert nsol_predicate(OrbitLabel((4, 2), "C"))
        assert not nsol_predicate(OrbitLabel((2, 2, 2), "C"))
        assert nsol_predicate(OrbitLabel((4, 4, 2), "C"))

    def test_pairing_predicates_match_classification(self):
        for n in range(2, 9):
            for rec in table_typeA(n).orbits:
                assert nsol_by_pairing(rec.label) == nsol_predicate(rec.label)
                assert quasidistinguished_by_pairing(rec.label) == \
                    quasidistinguished_reference(rec.label)
        for n in (1, 2, 3):
            for rec in table_typeC(n).orbits:
                assert nsol_by_pairing(rec.label) == nsol_predicate(rec.label)
                assert quasidistinguished_by_pairing(rec.label) == \
                    quasidistinguished_reference(rec.label)


class TestSerialization:
    def test_round_trip(self):
        t = table_typeC(2)
        d = save_table(t)
        t2 = load_table(d)
        assert save_table(t2) == d

    def test_round_trip_through_file(self, tmp_path):
        d = save_table(table_typeC(3))
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(d))
        t2 = load_table(str(path))
        assert save_table(t2) == d

    def test_missing_pair_rejected(self):
        d = save_table(table_typeC(2))
        del d["orbits"][1]["pairs"][1]
        with pytest.raises(TableFormatError) as err:
            load_table(d)
        assert "misses" in str(err.value)

    def test_doubly_assigned_rejected(self):
        d = save_table(table_typeC(2))
        d["orbits"][1]["pairs"][1]["irrep"] = d["orbits"][0]["pairs"][0]["irrep"]
        with pytest.raises(TableFormatError):
            load_table(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["closure"].append([1, 0]),
            lambda d: d["closure"].append([0, 0]),
            lambda d: d["closure"].append([0, 99]),
            lambda d: d.pop("closure"),
        ],
        ids=["cyclic", "self-pair", "out-of-range", "omitted"],
    )
    def test_closure_other_than_dominance_rejected(self, edit, tmp_path):
        d = save_table(table_typeC(2))
        edit(d)
        with pytest.raises(TableFormatError) as err:
            load_table(d)
        assert "differs from the dominance order" in str(err.value)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(d))
        out, errs = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(errs):
            code = main(["springer", "load", str(path)])
        assert code == 1 and out.getvalue() == ""
        assert errs.getvalue().startswith("data error: declared closure differs")
        assert len(errs.getvalue().splitlines()) == 1

    def test_cyclic_closure_rejected(self):
        d = save_table(table_typeC(2))
        d["closure"].append([1, 0])
        with pytest.raises(TableFormatError) as err:
            load_table(d)
        assert "differs from the dominance order" in str(err.value)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(rank=2.5),
            lambda d: d.update(rank="2"),
            lambda d: d.update(rank=True),
            lambda d: d.update(closure=[[str(i), str(j)] for i, j in d["closure"]]),
            lambda d: d.update(closure=[[float(i), j] for i, j in d["closure"]]),
        ],
        ids=["float-rank", "string-rank", "bool-rank", "string-closure", "float-closure"],
    )
    def test_non_integer_rank_or_closure_rejected(self, edit):
        # int() would coerce these: a rank of 2.5 would load as Sp(4)
        d = save_table(table_typeC(2))
        edit(d)
        with pytest.raises(TableFormatError):
            load_table(d)

    def test_wrong_d_e_rejected(self):
        d = save_table(table_typeC(2))
        d["orbits"][0]["d_e"] = 5
        with pytest.raises(TableFormatError):
            load_table(d)

    def test_wrong_order_rejected(self):
        d = save_table(table_typeC(2))
        d["orbits"].reverse()
        with pytest.raises(TableFormatError):
            load_table(d)

    def test_swapped_assignment_rejected_by_valuation(self):
        # moving the zero-orbit irrep to the regular orbit breaks the
        # fake-degree valuation check
        d = save_table(table_typeC(2))
        a = d["orbits"][0]["pairs"][0]["irrep"]
        b = d["orbits"][-1]["pairs"][0]["irrep"]
        d["orbits"][0]["pairs"][0]["irrep"] = b
        d["orbits"][-1]["pairs"][0]["irrep"] = a
        with pytest.raises(TableFormatError) as err:
            load_table(d)
        assert "fake degree" in str(err.value)

    @staticmethod
    def _systems(d, partition):
        return next(o for o in d["orbits"] if o["partition"] == partition)["pairs"]

    @staticmethod
    def _move_onto_42(d, source, label, char):
        # the last system of orbit `source` moved onto (4,2) under a new label
        # and character; the assignment stays a bijection
        moved = TestSerialization._systems(d, source).pop()
        moved.update(local_system=label, char_on_generators=char)
        TestSerialization._systems(d, [4, 2]).append(moved)

    @pytest.mark.parametrize(
        "rank,edit,message",
        [
            (2, lambda d: TestSerialization._systems(d, [2, 2])[0].update(local_system="x"),
             "orbit (2, 2): needs exactly one system 'triv'"),
            (2, lambda d: TestSerialization._systems(d, [2, 2])[1].update(local_system="triv"),
             "orbit (2, 2): needs exactly one system 'triv'"),
            (2, lambda d: [
                s.update(char_on_generators=[-s["char_on_generators"][0]])
                for s in TestSerialization._systems(d, [2, 2])
            ], "orbit (2, 2): needs exactly one system 'triv', on the trivial character"),
            (3, lambda d: TestSerialization._move_onto_42(d, [4, 1, 1], "y", [1, -1]),
             "orbit (4, 1, 1): needs exactly one system 'triv'"),
            (2, lambda d: TestSerialization._systems(d, [2, 2])[1].update(char_on_generators=[1]),
             "orbit (2, 2): two local systems share a label or a character"),
            (3, lambda d: TestSerialization._move_onto_42(d, [2, 2, 1, 1], "sgn", [1, -1]),
             "orbit (4, 2): two local systems share a label or a character"),
            (3, lambda d: TestSerialization._move_onto_42(d, [2, 2, 1, 1], "y", [-1, -1]),
             "orbit (4, 2): two local systems share a label or a character"),
        ],
        ids=["no-triv", "two-triv", "triv-on-sign", "orbit-without-systems",
             "shared-character", "shared-label-of-three", "shared-character-of-three"],
    )
    def test_orbit_systems_rule(self, rank, edit, message):
        # every orbit has one system `triv`, on the trivial character, and no
        # two systems of one orbit share a label or a character
        d = save_table(table_typeC(rank))
        edit(d)
        with pytest.raises(TableFormatError) as err:
            load_table(d)
        assert str(err.value).startswith(message)
        if "share" in message and rank == 3:
            # the moved system loads under a label and character of its own
            self._systems(d, [4, 2])[-1].update(local_system="y", char_on_generators=[1, -1])
            load_table(d)

    @pytest.mark.parametrize(
        "label", ["a,b\nc", "", ",", "a,b", "a\nb", "tab\t", "\u00a0", "zero\u200bwidth", "\x7f",
                  "\ud800"],
        ids=["comma-and-newline", "empty", "comma", "comma-inside", "newline", "tab",
             "no-break-space", "format-character", "delete", "lone-surrogate"],
    )
    def test_local_system_label_is_one_printable_cell(self, label):
        # a label is printed raw as one CSV cell and on one line of
        # `springer show`: nonempty, no comma, every character printable; a
        # lone surrogate keeps its own message
        d = save_table(table_typeC(2))
        self._systems(d, [2, 2])[1].update(local_system=label)
        with pytest.raises(TableFormatError) as err:
            load_table(d)
        reason = ("holds a lone surrogate" if label == "\ud800"
                  else "is empty or holds a comma or an unprintable character")
        assert str(err.value) == f"orbit #1: local_system {label!r} {reason}"


# ---------------------------------------------------------------------------
# derived structure: closure order and pair lookup

_ALL_TABLES = [(table_typeA, n) for n in range(2, 9)] + [(table_typeC, n) for n in (1, 2, 3)]
_ALL_IDS = [f"GL({n})" for n in range(2, 9)] + [f"Sp({2 * n})" for n in (1, 2, 3)]


def _dominates_by_partial_sums(a, b) -> bool:
    width = max(len(a), len(b))
    a, b = a + (0,) * (width - len(a)), b + (0,) * (width - len(b))
    return all(sum(a[:k]) >= sum(b[:k]) for k in range(1, width + 1))


@pytest.mark.parametrize("make,n", _ALL_TABLES, ids=_ALL_IDS)
def test_greater_is_dominance_and_save_load_round_trips(make, n):
    t = make(n)
    parts = [rec.label.partition for rec in t.orbits]
    assert t.greater == {
        (i, j)
        for i, a in enumerate(parts)
        for j, b in enumerate(parts)
        if i != j and _dominates_by_partial_sums(a, b)
    }
    d = save_table(t)
    assert save_table(load_table(d)) == d


@pytest.mark.parametrize("make,n", _ALL_TABLES, ids=_ALL_IDS)
def test_pair_of_matches_find_orbit_and_system(make, n):
    t = make(n)
    # the pairs run orbit by orbit, each orbit's block one consecutive range
    assert [j for block in t.blocks for j in block] == list(range(len(t.pairs)))
    for orbit, rec in enumerate(t.orbits):
        lam = rec.label.partition
        assert t.find_orbit(lam) == orbit
        for s, sys in enumerate(rec.systems):
            j = t.blocks[orbit][s]
            assert (t.pairs[j], t.pair_irreps[j]) == ((orbit, s), sys.irrep)
            assert t.pair_of(lam, sys.label) == t.pair_of(list(lam), sys.label) == j
    lam = t.orbits[0].label.partition
    for args, text in [
        (((9, 9),), "no orbit (9, 9)"),
        (((9, 9), "sgn"), "no orbit (9, 9)"),
        ((lam, "bogus"), f"orbit {lam} has no system 'bogus'"),
    ]:
        with pytest.raises(KeyError) as got:
            t.pair_of(*args)
        assert got.value.args == (text,)


# ---------------------------------------------------------------------------
# robustness: a mutated table either loads or raises TableFormatError

_BASE_TABLES = [save_table(table_typeA(4)), save_table(table_typeC(2)), save_table(table_typeC(3))]

_DROP = object()  # mutation value that deletes the entry

# one value of each other JSON type, with the edge cases of each
_EDGE_VALUES = [
    None, True, "", "x", 0.5, float("inf"), float("-inf"), float("nan"),
    [], [[]], {}, {"k": 1}, 10**30, -(10**30),
]

_huge_int = st.integers(10**18, 10**60).flatmap(lambda n: st.sampled_from([n, -n]))

_other_json = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.text(max_size=4),
    st.floats(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    _huge_int,
)


def _fields(obj):
    """The entries of a JSON tree as {field: [(container path, key), ...]},
    where a field is the entry's path with list positions blurred to '*'."""
    out = {}

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            field = tuple("*" if isinstance(k, int) else k for k in path + (key,))
            out.setdefault(field, []).append((path, key))
            if isinstance(value, (dict, list)):
                walk(value, path + (key,))

    if isinstance(obj, (dict, list)):
        walk(obj, ())
    return out


def _mutate(obj, path, key, value):
    for k in path:
        obj = obj[k]
    if value is _DROP:
        del obj[key]
    else:
        obj[key] = value


@st.composite
def mutated_tables(draw):
    """A saved A4, C2 or C3 table with one to three mutations: a dropped key or
    list entry, a value swapped for another JSON type, the orbits reordered,
    or a rank that may be out of range.  The entry to change is drawn field
    first, so the many closure and label entries do not crowd out the rest."""
    obj = copy.deepcopy(draw(st.sampled_from(_BASE_TABLES)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "retype", "reorder", "rank"]))
        if op == "rank":
            obj["rank"] = draw(st.one_of(st.integers(-3, 12), _huge_int))
        elif op == "reorder":
            if isinstance(obj.get("orbits"), list):
                obj["orbits"] = draw(st.permutations(obj["orbits"]))
        else:
            fields = _fields(obj)
            if not fields:
                continue
            path, key = draw(st.sampled_from(fields[draw(st.sampled_from(sorted(fields)))]))
            # a copy, since later mutations may reach inside the new value
            value = _DROP if op == "drop" else copy.deepcopy(draw(_other_json))
            _mutate(obj, path, key, value)
    return obj


def _loads_or_rejects(obj) -> bool:
    """True if obj loads; False if it raises TableFormatError."""
    try:
        load_table(obj)
    except TableFormatError:
        return False
    return True


def _cli(*args) -> int:
    """The exit status of one command line, which prints at most one stderr
    line and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
    return code


def _cli_exits_cleanly(obj):
    """`springer load` on obj, and for a table that loads, `verify ls` on it
    through --data-dir, under the file name of its type and rank."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        code = _cli("springer", "load", path)
        assert code in (0, 1)
        if code == 0:
            family, rank = obj["type"], obj["rank"]
            os.rename(path, os.path.join(tmp, f"springer_{family}{rank}.json"))
            code = _cli("verify", "ls", "--type", family, "--rank", str(rank), "--data-dir", tmp)
            assert code in (0, 1, 2)


@pytest.mark.parametrize("base", range(len(_BASE_TABLES)), ids=["A4", "C2", "C3"])
def test_every_field_mutated_loads_or_rejects(base):
    # the first entry of every field, dropped or swapped for each edge value;
    # the CLI runs each one that loads
    for (path, key), *_ in _fields(_BASE_TABLES[base]).values():
        for value in [_DROP] + _EDGE_VALUES:
            obj = copy.deepcopy(_BASE_TABLES[base])
            _mutate(obj, path, key, copy.deepcopy(value))
            if _loads_or_rejects(obj):
                _cli_exits_cleanly(obj)


@given(mutated_tables())
@settings(deadline=None, max_examples=500)
def test_mutated_table_loads_or_raises_table_format_error(obj):
    _loads_or_rejects(obj)


@given(mutated_tables())
@settings(deadline=None, max_examples=40)
def test_mutated_table_cli_exits_cleanly(obj):
    _cli_exits_cleanly(obj)


# ---------------------------------------------------------------------------
# tables that load: mutations that validation cannot see reach the solver

# labels that `load_table` admits: nonempty, no comma, every character
# printable (str.isprintable: no category C or Z but the ASCII space)
_LABELS = st.one_of(
    st.sampled_from(["sgn2", "\u03c3", "\u03b5\u2032", "\u7b26\u53f7", "x y"]),
    st.text(
        st.characters(exclude_categories=("C", "Zl", "Zp", "Zs"), include_characters=" ",
                      exclude_characters=","),
        min_size=1, max_size=6,
    ),
)


@st.composite
def loadable_mutated_tables(draw):
    """A saved C2 or C3 table with one to four mutations that validation
    cannot catch: the irreducibles of two non-plain systems swapped across
    orbits; a non-plain system's character redrawn as a non-trivial +-1
    vector that no other system of its orbit has; a non-plain system renamed;
    or an orbit's d_e or comp_group dropped."""
    obj = copy.deepcopy(draw(st.sampled_from(_BASE_TABLES[1:])))
    orbits = obj["orbits"]
    nonplain = [orec["pairs"][i] for orec in orbits for i in range(1, len(orec["pairs"]))]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["swap", "character", "rename", "drop"]))
        if op == "drop":
            draw(st.sampled_from(orbits)).pop(draw(st.sampled_from(["d_e", "comp_group"])), None)
            continue
        orec = draw(st.sampled_from([o for o in orbits if len(o["pairs"]) > 1]))
        sys = draw(st.sampled_from(orec["pairs"][1:]))
        others = [s for s in orec["pairs"] if s is not sys]
        if op == "swap":
            other = draw(st.sampled_from(nonplain))
            sys["irrep"], other["irrep"] = other["irrep"], sys["irrep"]
        elif op == "character":
            taken = [s.get("char_on_generators") for s in others]
            sys["char_on_generators"] = draw(st.sampled_from([
                list(v) for v in itertools.product((1, -1), repeat=len(sys["char_on_generators"]))
                if -1 in v and list(v) not in taken
            ]))
        else:
            taken = {s["local_system"] for s in others}
            sys["local_system"] = draw(_LABELS.filter(lambda x: x not in taken))
    return obj


@given(loadable_mutated_tables())
@settings(deadline=None, max_examples=30)
def test_loadable_mutated_table_green_and_verify_exit_cleanly(obj):
    assert _loads_or_rejects(obj)
    rank = obj["rank"]
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, f"springer_C{rank}.json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for verb in (["green"], ["verify", "ls"]):
            assert _cli(*verb, "--type", "C", "--rank", str(rank), "--data-dir", tmp) in (0, 1, 2)
