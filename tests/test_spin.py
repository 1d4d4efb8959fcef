import numpy as np
import pytest

from greenpoly.partitions import distinct_partitions
from greenpoly.spin import (
    DiracIndex,
    PinConstructionError,
    braid_check,
    build_pin,
    char_formula_check,
    classify_constituents,
    dirac_index_char,
    g_lambda,
    genuine_count_typeA,
    index_traces_by_class,
    sigma_tilde,
    sigma_tilde_pairing,
    sign_twist_space_dimension,
    spin_traces_by_class,
    tensor_spin_multiplicity,
    tensor_spin_multiplicity_oracle,
    trace_spin,
)
from greenpoly.springer import nsol_predicate
from greenpoly.weyl import WeylType, build, delta_elliptic_count, reduced_word

ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(1, 7)]
    + [("C", r) for r in range(1, 7)]
    + [("D", r) for r in range(3, 7)]
    + [("G2", 2)]
)

SMALL_TYPES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 4), ("G2", 2)]


@pytest.fixture(scope="module")
def pins():
    cache = {}

    def get(fam, rank):
        if (fam, rank) not in cache:
            cache[(fam, rank)] = build_pin(build(WeylType(fam, rank)))
        return cache[(fam, rank)]

    return get


class TestPinRep:
    def test_z_square_small_ranks(self, pins):
        # (-1)^{n(n+1)/2}: n=1 -> -1, n=2 -> -1, n=3 -> +1, n=4 -> +1
        assert pins("A", 1).z_square_sign == -1
        assert pins("B", 2).z_square_sign == -1
        assert pins("B", 3).z_square_sign == 1
        assert pins("D", 4).z_square_sign == 1

    @pytest.mark.parametrize("fam,rank", SMALL_TYPES)
    def test_braid_relations(self, pins, fam, rank):
        assert braid_check(pins(fam, rank))

    @pytest.mark.parametrize("fam,rank", SMALL_TYPES)
    def test_spin_square_identity(self, pins, fam, rank):
        pin = pins(fam, rank)
        g = pin.group
        for k, tr in enumerate(spin_traces_by_class(pin)):
            det = g.refl_charpoly[k].eval(-1)
            assert abs(tr * tr - pin.a_v * det) < 1e-8

    def test_identity_trace_is_spin_dim(self, pins):
        pin = pins("B", 3)
        word = ()
        t = trace_spin(pin, word)
        # odd rank: S+ + S-: 2 * 2^{(n-1)/2} = 2^{(n+1)/2}
        assert abs(t - 2 ** 2) < 1e-12
        pin = pins("B", 2)
        assert abs(trace_spin(pin, ()) - 2) < 1e-12

    def test_s3_coxeter_value(self, pins):
        pin = pins("A", 2)
        g = pin.group
        cox = next(k for k, c in enumerate(g.classes) if c.label == (3,))
        t = np.trace(pin.lift_of_class(cox))
        assert abs(t * t - 1) < 1e-10  # a_V det(1+w) = 1

    def test_trace_vanishes_off_minus_one_elliptic(self, pins):
        pin = pins("B", 2)
        g = pin.group
        for k, tr in enumerate(spin_traces_by_class(pin)):
            if g.refl_charpoly[k].eval(-1) == 0:
                assert abs(tr) < 1e-10

    def test_spin_square_check_raises_on_bad_tolerance(self, pins):
        pin = pins("A", 2)
        # a made-up word: halving the tolerance to an absurd level must
        # never trip because the identity is exact up to roundoff
        trace_spin(pin, (0, 1), check_tol=1e-8)

    def test_squared_values_lift_independent(self, pins):
        # conjugating the representative changes the lift at most by sign
        pin = pins("B", 2)
        g = pin.group
        from greenpoly.weyl import _mul, simple_generators

        mul = _mul(g.type)
        gens = simple_generators(g.type)
        for cls in g.classes:
            w = cls.representative
            conj = mul(gens[0], mul(w, gens[0]))
            t1 = np.trace(pin.lift(reduced_word(g, w)))
            t2 = np.trace(pin.lift(reduced_word(g, conj)))
            assert abs(t1 * t1 - t2 * t2) < 1e-9


class TestSigmaTilde:
    def test_nonzero_iff_nsol(self, tableau, pins):
        tab = tableau("A", 5)
        pin = pins("A", 4)
        for rec in tab.table.orbits:
            st = sigma_tilde(tab, pin, rec.label.partition)
            if nsol_predicate(rec.label):
                assert st.exact_norm > 0
            else:
                assert st.exact_norm == 0
                assert all(abs(v) < 1e-9 for v in st.values)

    def test_32_example(self, tableau, pins):
        tab = tableau("A", 5)
        pin = pins("A", 4)
        st = sigma_tilde(tab, pin, (3, 2))
        assert g_lambda((3, 2)) == 2
        assert st.exact_norm == 2
        # dim = a_lambda * 2 constituents * 4 each = 8
        assert abs(st.dimension() - 8) < 1e-9

    def test_sp4_22_norm(self, tableau, pins):
        tab = tableau("C", 2)
        pin = pins("C", 2)
        st = sigma_tilde(tab, pin, (2, 2), "triv")
        # rank 2 even: a_V = 1; <phi,phi>^{-1} = 1
        assert st.exact_norm == 1

    def test_distinct_orbit_orthogonality(self, tableau, pins):
        tab = tableau("A", 5)
        pin = pins("A", 4)
        parts = [r.label.partition for r in tab.table.orbits]
        for a in parts:
            for b in parts:
                if a != b:
                    assert sigma_tilde_pairing(tab, pin, (a, "triv"), (b, "triv")) == 0


class TestClassification:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_norm_patterns(self, tableau, n):
        tab = tableau("A", n)
        pin = build_pin(tab.group)
        total = 0
        for lam in distinct_partitions(n):
            rep = classify_constituents(tab, pin, lam)
            total += rep.constituents
            assert rep.alternating_betti == g_lambda(lam)
        assert total == genuine_count_typeA(n)

    def test_n4_fixtures(self, tableau):
        tab = tableau("A", 4)
        pin = build_pin(tab.group)
        r31 = classify_constituents(tab, pin, (3, 1))
        assert (r31.constituents, r31.dim_each, r31.a_lambda) == (1, 4, 2)
        r4 = classify_constituents(tab, pin, (4,))
        assert (r4.constituents, r4.dim_each) == (2, 2)
        assert genuine_count_typeA(4) == 3

    def test_rejects_non_distinct(self, tableau):
        tab = tableau("A", 4)
        pin = build_pin(tab.group)
        with pytest.raises(ValueError):
            classify_constituents(tab, pin, (2, 2))

    def test_g_lambda_values(self):
        assert g_lambda((3, 2)) == 2
        assert g_lambda((3, 1)) == 2
        assert g_lambda((4,)) == 1
        assert g_lambda((2, 1)) == 1
        assert g_lambda((4, 3, 2, 1)) == 12


class TestCharFormula:
    def test_type_a(self, tableau, pins):
        tab = tableau("A", 4)
        pin = pins("A", 3)
        assert char_formula_check(tab, pin, (3, 1))
        assert char_formula_check(tab, pin, (4,))

    def test_sp4(self, tableau, pins):
        tab = tableau("C", 2)
        pin = pins("C", 2)
        assert char_formula_check(tab, pin, (2, 2), "triv")
        assert char_formula_check(tab, pin, (2, 2), "sgn")

    def test_regular_identity_ratio(self, tableau, pins):
        tab = tableau("A", 3)
        pin = pins("A", 2)
        st = sigma_tilde(tab, pin, (3,))
        ident = tab.group.identity_class
        dim_s = trace_spin(pin, ())
        assert abs(st.values[ident] / dim_s - 1) < 1e-9  # X_{-1}(1) = 1 on a point


class TestTensor:
    def test_formula_matches_oracle(self, tableau):
        for key in [("A", 3), ("A", 4), ("C", 2), ("C", 3)]:
            tab = tableau(*key)
            names = [
                (tab.table.orbits[o].label.partition, tab.table.orbits[o].systems[s].label)
                for o, s in tab.pairs
            ]
            for src in names:
                for tgt in names:
                    assert tensor_spin_multiplicity(tab, src, tgt) == \
                        tensor_spin_multiplicity_oracle(tab, src, tgt)

    def test_support_condition(self, tableau):
        tab = tableau("A", 4)
        names = [
            (tab.table.orbits[o].label.partition, tab.table.orbits[o].systems[s].label)
            for o, s in tab.pairs
        ]
        for src in names:
            so = tab.table.find_orbit(src[0])
            for tgt in names:
                to = tab.table.find_orbit(tgt[0])
                if so != to and (to, so) not in tab.table.greater:
                    assert tensor_spin_multiplicity(tab, src, tgt) == 0

    def test_leading_term(self, tableau):
        tab = tableau("A", 3)
        # e' = e: a_V <phi,phi>^{-1}_{A(e)}: S3 has a_V = 1, A(e) trivial with
        # V_Z of dim l-1: value 2^{l-1}
        assert tensor_spin_multiplicity(tab, ((2, 1), "triv"), ((2, 1), "triv")) == 2
        assert tensor_spin_multiplicity(tab, ((3,), "triv"), ((3,), "triv")) == 1


class TestDiracIndex:
    def test_nonvanishing_iff_nsol(self, tableau, pins):
        for key in [("A", 3), ("A", 4), ("C", 2), ("C", 3)]:
            tab = tableau(*key)
            pin = pins(key[0], key[1] if key[0] == "C" else key[1] - 1)
            for rec in tab.table.orbits:
                for sys in rec.systems:
                    di = dirac_index_char(tab, pin, rec.label.partition, sys.label)
                    assert (di.even_nonzero or di.coset_nonzero) == nsol_predicate(rec.label)

    def test_quasidistinguished_split(self, tableau, pins):
        # (2,1) in GL(3): solvable centralizer but not quasidistinguished:
        # even part zero, coset part nonzero
        tab = tableau("A", 3)
        pin = pins("A", 2)
        di = dirac_index_char(tab, pin, (2, 1))
        assert not di.even_nonzero and di.coset_nonzero
        # regular: both parts nonzero; zero orbit: both vanish
        di = dirac_index_char(tab, pin, (3,))
        assert di.even_nonzero and di.coset_nonzero
        di = dirac_index_char(tab, pin, (1, 1, 1))
        assert not di.even_nonzero and not di.coset_nonzero

    def test_regular_coset_dimension(self, tableau, pins):
        tab = tableau("A", 3)
        pin = pins("A", 2)
        di = dirac_index_char(tab, pin, (3,))
        ident = tab.group.identity_class
        assert abs(di.coset_values[ident] - trace_spin(pin, ())) < 1e-9


class TestReferenceCounts:
    def test_sign_twist_dimensions(self):
        assert sign_twist_space_dimension("A", 3) == 2  # distinct partitions of 4
        assert sign_twist_space_dimension("B", 6) == 11
        assert sign_twist_space_dimension("G2", 2) == 3
        assert sign_twist_space_dimension("D", 4) == 4
        assert sign_twist_space_dimension("D", 5) == 4

    def test_iota_isomorphism_except_d_even(self):
        # the twisted-elliptic count matches the genuine sgn-space dimension
        # for A, B and G2; for even D the genuine side is strictly larger
        for fam, rank in [("A", 2), ("A", 5), ("B", 2), ("B", 4), ("G2", 2)]:
            g = build(WeylType(fam, rank))
            assert sign_twist_space_dimension(fam, rank) == delta_elliptic_count(g)
        for rank in (4, 6):
            g = build(WeylType("D", rank))
            assert sign_twist_space_dimension("D", rank) > delta_elliptic_count(g)


class TestCrossModuleNorms:
    def test_exact_norm_matches_component_recipe(self, tableau, pins):
        # the double-cover norm of each spin-tensored column equals
        # a_V times the component-group pairing at q = -1, for every
        # built-in pair
        from greenpoly.springer import q_M_pairing

        for key in [("A", 3), ("A", 5), ("C", 1), ("C", 2), ("C", 3)]:
            tab = tableau(*key)
            pin = build_pin(tab.group)
            for rec in tab.table.orbits:
                for sys in rec.systems:
                    st = sigma_tilde(tab, pin, rec.label.partition, sys.label)
                    want = pin.a_v * q_M_pairing(
                        rec.label, sys.char_mask, sys.char_mask
                    ).eval(-1)
                    assert st.exact_norm == want, (key, rec.label.partition)

    def test_iota_isomorphism_for_odd_d(self):
        for rank in (3, 5):
            g = build(WeylType("D", rank))
            assert sign_twist_space_dimension("D", rank) == delta_elliptic_count(g)
