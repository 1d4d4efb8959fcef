import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly.cli import main
from greenpoly.lusztigshoji import solve
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
    tr_M,
)


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
            assert len(t.pairs()) == len(t.group.irrep_labels)

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
        lab = lambda o, s: g.irrep_labels[
            t.orbits[t.find_orbit(o)].systems[t.find_system(t.find_orbit(o), s)].irrep
        ]
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
        with pytest.raises(ValueError):
            table_typeC(4)


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
    tab = solve(make(n))
    t = tab.table
    for rec in t.orbits:
        lam = rec.label.partition
        orbit = t.find_orbit(lam)
        for sys in rec.systems:
            expected = tab.pair_index(orbit, t.find_system(orbit, sys.label))
            assert t.pair_of(lam, sys.label) == t.pair_of(list(lam), sys.label) == expected
    lam = t.orbits[0].label.partition
    for args in [((9, 9),), ((9, 9), "sgn"), (lam, "bogus")]:
        with pytest.raises(KeyError) as got:
            t.pair_of(*args)
        with pytest.raises(KeyError) as want:
            orbit = t.find_orbit(args[0])
            t.find_system(orbit, args[1] if len(args) > 1 else "triv")
        assert got.value.args == want.value.args


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


def _loads_or_rejects(obj):
    try:
        load_table(obj)
    except TableFormatError:
        pass


@pytest.mark.parametrize("base", range(len(_BASE_TABLES)), ids=["A4", "C2", "C3"])
def test_every_field_mutated_loads_or_rejects(base):
    # the first entry of every field, dropped or swapped for each edge value
    for (path, key), *_ in _fields(_BASE_TABLES[base]).values():
        for value in [_DROP] + _EDGE_VALUES:
            obj = copy.deepcopy(_BASE_TABLES[base])
            _mutate(obj, path, key, copy.deepcopy(value))
            _loads_or_rejects(obj)


@given(mutated_tables())
@settings(deadline=None, max_examples=500)
def test_mutated_table_loads_or_raises_table_format_error(obj):
    _loads_or_rejects(obj)


@given(mutated_tables())
@settings(deadline=None, max_examples=40)
def test_mutated_table_cli_exits_cleanly(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["springer", "load", path])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
