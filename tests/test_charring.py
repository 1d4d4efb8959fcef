from itertools import chain
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly.charring import (
    _class_gram,
    _coinvariant_values,
    _det_values,
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
from greenpoly.polyq import IntPoly, matmul
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
    assert om[0][0] == P(1)
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
        p = poincare_poly(g)
        assert matmul(omega_matrix(g), gram) == [
            [p if i == j else IntPoly() for j in range(n)] for i in range(n)
        ]


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


# ---------------------------------------------------------------------------
# the per-degree class sum, kept as an oracle for the packed kernel


def _by_degree(vals) -> list:
    """Per-class values (ints or IntPolys) as one integer class vector per degree."""
    cs = [v.coeffs if isinstance(v, IntPoly) else (v,) for v in vals]
    top = max(map(len, cs), default=0)
    return [[c[d] if d < len(c) else 0 for c in cs] for d in range(top)]


def _class_gram_by_degree(g, rows_a, rows_b, weight) -> list:
    """The class-sum Gram taken degree by degree, as integer dot products."""
    graded = any(isinstance(v, IntPoly) for v in chain(weight, *rows_a, *rows_b))
    sizes = [cls.size for cls in g.classes]
    weights = [list(map(mul, sizes, wd)) for wd in _by_degree(weight)]
    weighted_b = []
    for row in rows_b:
        b = _by_degree(row)
        out = [[0] * len(sizes) for _ in range(len(b) + len(weights) - 1)]
        for d, bd in enumerate(b):
            if any(bd):
                for e, wd in enumerate(weights):
                    out[d + e] = list(map(add, out[d + e], map(mul, bd, wd)))
        weighted_b.append([(e, v) for e, v in enumerate(out) if any(v)])
    gram = []
    for row in rows_a:
        a = [(d, ad) for d, ad in enumerate(_by_degree(row)) if any(ad)]
        gram_row = []
        for bw in weighted_b:
            coeffs = [0] * (a[-1][0] + bw[-1][0] + 1 if a and bw else 0)
            for d, ad in a:
                for e, bv in bw:
                    coeffs[d + e] += sum(map(mul, ad, bv))
            if any(c % g.order for c in coeffs):
                raise ArithmeticError(f"class sums {coeffs} not divisible by |W| = {g.order}")
            quot = [c // g.order for c in coeffs]
            gram_row.append(IntPoly(quot) if graded else (quot[0] if quot else 0))
        gram.append(gram_row)
    return gram


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("G2", 2), ("D", 4)])
def test_packed_kernel_matches_per_degree_sums(family, rank):
    g = build(WeylType(family, rank))
    coinv = _coinvariant_values(g.type)
    ones = [1] * len(g.classes)
    for rows_a, rows_b, weight in [
        (g.char_table, g.char_table, g.refl_charpoly),  # q-elliptic Gram
        (g.char_table, g.char_table, coinv),  # Omega
        (g.char_table, [ones], coinv),  # fake degrees
        (g.char_table, g.char_table, _det_values(g, -1)),  # integer Gram
        (g.char_table, g.char_table, ones),  # standard pairing
        ([coinv], [coinv, g.refl_charpoly], g.refl_charpoly),  # graded on both sides
    ]:
        want = _class_gram_by_degree(g, rows_a, rows_b, weight)
        assert _class_gram(g, rows_a, rows_b, weight) == want


_coeff = st.integers(-(10**31), 10**31)
_value = st.one_of(_coeff, st.lists(_coeff, max_size=4).map(IntPoly))


@given(data=st.data())
@settings(deadline=None, max_examples=60)
def test_packed_kernel_wide_signed_coefficients(data):
    # coefficients of 10^30 and more, of either sign, on every side: the
    # slot width must follow the inputs, not a fixed word size
    g = build(WeylType("B", 2))
    k = len(g.classes)
    rows = st.lists(_value, min_size=k, max_size=k)
    rows_a = data.draw(st.lists(rows, min_size=1, max_size=3))
    rows_b = data.draw(st.lists(rows, min_size=1, max_size=3))
    weight = data.draw(rows)
    # multiples of |W| make every class sum divisible
    rows_a = [[v * g.order for v in row] for row in rows_a]
    want = _class_gram_by_degree(g, rows_a, rows_b, weight)
    assert _class_gram(g, rows_a, rows_b, weight) == want


def test_packed_kernel_rejects_non_characters():
    g = build(WeylType("A", 2))
    half = [[P(1, 0, 10**30 + 1)] + [0] * (len(g.classes) - 1)]
    for kernel in (_class_gram, _class_gram_by_degree):
        with pytest.raises(ArithmeticError):
            kernel(g, half, half, g.refl_charpoly)


@pytest.mark.parametrize("graded", [False, True])
def test_symmetric_gram_mirrors_and_checks_every_entry(graded):
    g = build(WeylType("B", 3))
    rows = [list(row) for row in g.char_table]
    weight = g.refl_charpoly if graded else _det_values(g, -1)
    gram = _class_gram(g, rows, rows, weight)
    assert gram == _class_gram(g, rows, [list(row) for row in rows], weight)
    # a row that is not a virtual character makes its row and column of the
    # Gram non-integral; the symmetric path sums each such entry once and raises
    ident = g.identity_class
    rows[-1] = [0] * len(g.classes)
    rows[-1][ident] = 1
    with pytest.raises(ArithmeticError):
        _class_gram(g, rows, rows, weight)
