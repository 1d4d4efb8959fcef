import pytest

from greenpoly.charring import (
    VirtualCharacter,
    chevalley_check,
    coinvariant_character,
    delta_twist_grams_agree,
    delta_twist_pairing,
    delta_twist_pairing_direct,
    fake_degree,
    graded_irreducible,
    irreducible,
    minus_one_gram,
    minus_one_gram_rank,
    minus_one_pairing,
    omega_entry,
    omega_matrix,
    one_pairing,
    poincare_poly,
    q_elliptic_gram,
    q_elliptic_pairing,
    q_elliptic_pairing_elements,
    std_pairing,
    std_pairing_elements,
)
from greenpoly.polyq import IntPoly, PolyMatrix, RatFun
from greenpoly.weyl import WeylType, build, delta_elliptic_count


def P(*cs):
    return IntPoly(cs)


def test_std_pairing_orthonormal():
    g = build(WeylType("A", 2))
    n = len(g.irrep_labels)
    for i in range(n):
        for j in range(n):
            assert std_pairing(irreducible(g, i), irreducible(g, j)) == (i == j)


def test_refl_tensor_refl_contains_trivial_once():
    g = build(WeylType("A", 2))
    refl = irreducible(g, g.refl_index)
    sq = VirtualCharacter(g, tuple(0 for _ in g.irrep_labels))
    # compute <refl * refl, triv> directly from class values
    total = sum(
        cls.size * refl.value(k) ** 2 for k, cls in enumerate(g.classes)
    )
    assert total // g.order == 1


def test_q_elliptic_a1():
    g = build(WeylType("A", 1))
    a = graded_irreducible(g, g.triv_index)
    b = graded_irreducible(g, g.sgn_index)
    assert q_elliptic_pairing(a, b) == P(0, -1)
    assert q_elliptic_pairing(a, a) == P(1)


def test_q_elliptic_sl3_values():
    g = build(WeylType("A", 2))
    sgn = graded_irreducible(g, g.sgn_index)
    assert q_elliptic_pairing(sgn, sgn) == P(1)
    # the second diagonal entry of the rank-2 Gram: (21) + q (1^3)
    idx21 = g.irrep_labels.index((2, 1))
    from greenpoly.charring import GradedCharacter

    coords = [IntPoly() for _ in g.irrep_labels]
    coords[idx21] = P(1)
    coords[g.sgn_index] = P(0, 1)
    x = GradedCharacter(g, tuple(coords))
    assert q_elliptic_pairing(x, x) == P(1, -1)


def test_q_zero_reduces_to_std():
    for fam, r in [("A", 2), ("B", 2), ("G2", 2)]:
        g = build(WeylType(fam, r))
        for i in range(len(g.irrep_labels)):
            for j in range(len(g.irrep_labels)):
                p = q_elliptic_pairing(graded_irreducible(g, i), graded_irreducible(g, j))
                assert p[0] == std_pairing(irreducible(g, i), irreducible(g, j))


def test_fake_degrees_s3():
    g = build(WeylType("A", 2))
    assert fake_degree(g, g.triv_index) == P(1)
    assert fake_degree(g, g.refl_index) == P(0, 1, 1)
    assert fake_degree(g, g.sgn_index) == P(0, 0, 0, 1)


def test_fake_degree_at_one_is_dim():
    for fam, r in [("A", 3), ("B", 2), ("G2", 2), ("D", 4)]:
        g = build(WeylType(fam, r))
        for i in range(len(g.irrep_labels)):
            assert fake_degree(g, i).eval(1) == g.irrep_dim(i)


def test_fake_degree_dimension_sum():
    # sum fd(sigma) dim sigma = Poincare polynomial of W
    for fam, r in [("A", 3), ("B", 3)]:
        g = build(WeylType(fam, r))
        acc = IntPoly()
        for i in range(len(g.irrep_labels)):
            acc = acc + fake_degree(g, i) * g.irrep_dim(i)
        expect = IntPoly((1,))
        for m in g.degrees:
            expect = expect * IntPoly((1,) * m)
        assert acc == expect


def test_omega_a1():
    g = build(WeylType("A", 1))
    om = omega_matrix(g)
    assert om[0, 0] == RatFun(P(1))
    q = P(0, 1)
    i, j = g.triv_index, g.sgn_index
    assert omega_entry(g, i, j) == q
    assert omega_entry(g, i, i) == P(1)


def test_omega_symmetric_and_triv_column():
    for fam, r in [("A", 2), ("B", 2)]:
        g = build(WeylType(fam, r))
        n = len(g.irrep_labels)
        for i in range(n):
            assert omega_entry(g, i, g.triv_index) == fake_degree(g, i)
            for j in range(n):
                assert omega_entry(g, i, j) == omega_entry(g, j, i)


def test_gram_times_omega_is_p_identity():
    # the q-elliptic Gram on irreducibles inverts the fake-degree matrix
    for fam, r in [("A", 2), ("B", 2), ("G2", 2), ("A", 3)]:
        g = build(WeylType(fam, r))
        n = len(g.irrep_labels)
        gram = [
            [q_elliptic_pairing(graded_irreducible(g, i), graded_irreducible(g, j))
             for j in range(n)]
            for i in range(n)
        ]
        om = PolyMatrix([[omega_entry(g, i, j) for j in range(n)] for i in range(n)])
        gm = PolyMatrix(gram)
        p = RatFun(poincare_poly(g))
        prod = om * gm
        ident = PolyMatrix.identity(n)
        for i in range(n):
            for j in range(n):
                want = p if i == j else RatFun(IntPoly())
                assert prod[i, j] == want


def test_chevalley():
    assert chevalley_check(build(WeylType("A", 2)))
    assert chevalley_check(build(WeylType("A", 1)))
    assert chevalley_check(build(WeylType("B", 2)))
    assert poincare_poly(build(WeylType("B", 2))) == P(1, 0, -1) * P(1, 0, 0, 0, -1)
    assert chevalley_check(build(WeylType("G2", 2)))
    assert chevalley_check(build(WeylType("D", 4)))


@pytest.mark.parametrize(
    "family,rank,expected",
    [("A", 2, 2), ("B", 2, 2), ("G2", 2, 3), ("A", 4, 3), ("D", 4, 3)],
)
def test_minus_one_gram_rank(family, rank, expected):
    assert minus_one_gram_rank(build(WeylType(family, rank))) == expected


def test_gram_rank_equals_twisted_count():
    for fam, r in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G2", 2), ("D", 3), ("D", 4)]:
        g = build(WeylType(fam, r))
        assert minus_one_gram_rank(g) == delta_elliptic_count(g)


def test_delta_twist_pairing_both_sides():
    for fam, r in [("A", 2), ("B", 2)]:
        g = build(WeylType(fam, r))
        t = irreducible(g, g.triv_index)
        assert delta_twist_pairing_direct(t, t) == delta_twist_pairing(t, t)
        assert delta_twist_grams_agree(g)


def test_element_oracles_match_classwise():
    g = build(WeylType("A", 2))
    x = coinvariant_character(g)
    assert q_elliptic_pairing_elements(x, x) == q_elliptic_pairing(x, x)
    a = irreducible(g, g.refl_index)
    assert std_pairing_elements(a, a) == std_pairing(a, a) == 1
    g3 = build(WeylType("B", 3))
    b = graded_irreducible(g3, g3.refl_index)
    assert q_elliptic_pairing_elements(b, b) == q_elliptic_pairing(b, b)
    # every irreducible pair: the class kernel against the element sums
    for fam, r in [("A", 3), ("B", 3), ("G2", 2), ("D", 4)]:
        g = build(WeylType(fam, r))
        n = len(g.irrep_labels)
        qgram = q_elliptic_gram(g)
        mgram = minus_one_gram(g)
        for i in range(n):
            for j in range(i, n):
                a, b = irreducible(g, i), irreducible(g, j)
                qa, qb = graded_irreducible(g, i), graded_irreducible(g, j)
                q_el = q_elliptic_pairing_elements(qa, qb)
                assert q_el == q_elliptic_pairing(qa, qb) == qgram[i][j]
                assert std_pairing_elements(a, b) == std_pairing(a, b) == (i == j)
                assert q_el.eval(-1) == minus_one_pairing(a, b) == mgram[i][j]
                assert q_el.eval(1) == one_pairing(a, b)
                assert delta_twist_pairing_direct(a, b) == mgram[i][j]


def test_group_mismatch_rejected():
    a = irreducible(build(WeylType("A", 2)), 0)
    b = irreducible(build(WeylType("B", 2)), 0)
    with pytest.raises(ValueError):
        std_pairing(a, b)


def test_exterior_alternating_sum_constant_term():
    # <triv, sum (-q)^i wedge^i V> = (1/|W|) sum size det(1-qw): starts at 1
    for fam, r in [("A", 3), ("B", 3), ("G2", 2), ("D", 4)]:
        g = build(WeylType(fam, r))
        acc = IntPoly()
        for k, cls in enumerate(g.classes):
            acc = acc + g.refl_charpoly[k] * cls.size
        val = acc.divexact_int(g.order)
        assert val[0] == 1
