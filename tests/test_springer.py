import json

import pytest

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
        for n in range(2, 9):
            t = table_typeA(n)
            assert len(t.pairs()) == len(t.group.irrep_labels)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            table_typeA(9)


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

    def test_cyclic_closure_rejected(self):
        d = save_table(table_typeC(2))
        d["closure"].append([1, 0])
        with pytest.raises(TableFormatError) as err:
            load_table(d)
        assert "strict order" in str(err.value)

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
