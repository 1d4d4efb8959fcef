import copy
import re
from fractions import Fraction
from itertools import chain
from operator import add, mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly.charring import (
    GradedCharacter,
    _class_gram,
    _int_matrix_rank,
    _coinvariant_values,
    _det_values,
    VirtualCharacter,
    chevalley_failure,
    delta_twist_pairing,
    fake_degree,
    minus_one_gram,
    minus_one_gram_rank,
    minus_one_pairing,
    omega_at,
    omega_bound,
    poincare_poly,
    q_elliptic_pairing,
    qell_rows,
    twists,
)
from greenpoly import charring, weyl
from greenpoly.lusztigshoji import solve
from greenpoly.polyq import IntPoly, PackedRows, slot_bits
from greenpoly.springer import table_typeA, table_typeC
from greenpoly.weyl import (
    SUPPORTED_RANKS,
    WeylType,
    _bc_column,
    bipartitions,
    build,
    delta_elliptic_count,
)

from conftest import SOLVED_TABLES
from oracles import (
    bc_column_outer_products,
    bc_column_per_term,
    chevalley_failure_by_polynomials,
    class_gram,
    coinvariant_character,
    delta_twist_grams_agree,
    delta_twist_pairing_direct,
    graded_irreducible,
    irreducible,
    matmul,
    omega,
    one_pairing,
    q_elliptic_pairing_elements,
    std_pairing,
    std_pairing_elements,
    symmetric_class_gram,
)


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
        for i, row in enumerate(g.char_table):
            assert fake_degree(g, i).eval(1) == row[g.identity_class]


def test_fake_degree_dimension_sum():
    # sum fd(sigma) dim sigma = Poincare polynomial of W
    for fam, r in [("A", 3), ("B", 3)]:
        g = build(WeylType(fam, r))
        acc = IntPoly()
        for i, row in enumerate(g.char_table):
            acc = acc + fake_degree(g, i) * row[g.identity_class]
        expect = IntPoly((1,))
        for m in g.degrees:
            expect = expect * IntPoly((1,) * m)
        assert acc == expect


@pytest.mark.parametrize(
    "family,rank", [(f, r) for f, ranks in SUPPORTED_RANKS.items() for r in ranks]
)
def test_coinvariant_values_match_long_division(family, rank):
    # one integer division per class at q = 2^b against the polynomial long
    # division of p(q) by det_V(1 - qw)
    g = build(WeylType(family, rank))
    p = poincare_poly(g)
    assert _coinvariant_values(g.type) == tuple(p.divexact(d) for d in g.refl_charpoly)


@pytest.mark.parametrize("family,rank,cls", [("A", 3, 0), ("B", 3, 2), ("G2", 2, 2), ("D", 4, 4)])
def test_coinvariant_values_raise_where_det_does_not_divide(monkeypatch, family, rank, cls):
    # one class's det_V(1 - qw) doubled (not the identity's, which sets the
    # coefficient bound): the quotient's constant term is 1/2, so no
    # polynomial quotient exists, and the error names that class
    g = build(WeylType(family, rank))
    assert cls != g.identity_class
    bad = copy.copy(g)
    bad.refl_charpoly = list(g.refl_charpoly)
    bad.refl_charpoly[cls] = bad.refl_charpoly[cls] * 2
    monkeypatch.setattr(charring, "build", lambda t: bad)
    label = g.classes[cls].label
    with pytest.raises(ArithmeticError, match=re.escape(f"class {label}:")):
        _coinvariant_values.__wrapped__(g.type)


def test_omega_a1():
    g = build(WeylType("A", 1))
    om = omega(g)
    assert om[0][0] == P(1)
    q = P(0, 1)
    i, j = g.triv_index, g.sgn_index
    assert om[i][j] == q
    assert om[i][i] == P(1)


def test_omega_symmetric_and_triv_column():
    for fam, r in [("A", 2), ("B", 2)]:
        g = build(WeylType(fam, r))
        om = omega(g)
        n = len(g.irrep_labels)
        for i in range(n):
            assert om[i][g.triv_index] == fake_degree(g, i)
            for j in range(n):
                assert om[i][j] == om[j][i]


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
        assert matmul(omega(g), gram) == [
            [p if i == j else IntPoly() for j in range(n)] for i in range(n)
        ]


def test_chevalley():
    assert chevalley_failure(build(WeylType("A", 2))) is None
    assert chevalley_failure(build(WeylType("A", 1))) is None
    assert chevalley_failure(build(WeylType("B", 2))) is None
    assert poincare_poly(build(WeylType("B", 2))) == P(1, 0, -1) * P(1, 0, 0, 0, -1)
    assert chevalley_failure(build(WeylType("G2", 2))) is None
    assert chevalley_failure(build(WeylType("D", 4))) is None


ALL_GROUPS = [(f, r) for f, ranks in SUPPORTED_RANKS.items() for r in ranks]


@pytest.mark.parametrize("family,rank", ALL_GROUPS)
def test_chevalley_failure_names_the_first_changed_class(family, rank, monkeypatch):
    # x_1(w) det_V(1 - qw) = p(q) holds on every class, so p + 1 and
    # p + q - 1 (equal to p at q = 1) fail at the first class, and the last
    # fake degree plus q^k fails at the first class where its character is
    # not 0
    g = build(WeylType(family, rank))
    p, fakes = poincare_poly(g), charring._fake_degrees(g.type)
    last = fakes[-1] + IntPoly((0,) * len(fakes[-1].coeffs) + (1,))
    first = next(k for k, v in enumerate(g.char_table[-1]) if v)
    cases = [(p, fakes, None), (p + IntPoly((1,)), fakes, 0),
             (p + IntPoly((-1, 1)), fakes, 0), (p, fakes[:-1] + (last,), first)]
    for tampered_p, tampered_fakes, want in cases:
        with monkeypatch.context() as m:
            m.setattr(charring, "poincare_poly", lambda g: tampered_p)
            m.setattr(charring, "_fake_degrees", lambda t: tampered_fakes)
            assert chevalley_failure(g) == want


@pytest.mark.parametrize("family,rank", ALL_GROUPS)
def test_chevalley_failure_matches_polynomial_oracle(family, rank, monkeypatch):
    # the comparison at q = 2^b against the polynomial one, on the true
    # p(q) and fake degrees and on tampered ones: p off by a constant, by a
    # high power of q and by q^2 - q (each class fails, or none does), one
    # fake degree scaled, two swapped, and one with a large coefficient
    # added above its top, which the slot width must hold
    g = build(WeylType(family, rank))
    p, fakes = poincare_poly(g), charring._fake_degrees(g.type)
    n, top = len(fakes), len(p.coeffs)
    big = IntPoly((0,) * top + (10**6,))
    cases = [(p, fakes), (p + IntPoly((1,)), fakes), (p - IntPoly((0,) * (2 * top) + (1,)), fakes),
             (p + IntPoly((0, -1, 1)), fakes), (p, fakes[:-1] + (fakes[-1] * 3,)),
             (p, fakes[:-1] + (fakes[-1] + big,))]
    if n > 1:
        cases.append((p, (fakes[1], fakes[0]) + fakes[2:]))
    for tampered_p, tampered_fakes in cases:
        with monkeypatch.context() as m:
            m.setattr(charring, "poincare_poly", lambda g: tampered_p)
            m.setattr(charring, "_fake_degrees", lambda t: tampered_fakes)
            assert chevalley_failure(g) == chevalley_failure_by_polynomials(g)


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


def _rank_over_fractions(rows) -> int:
    """Oracle for `_int_matrix_rank`: Gauss-Jordan elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _low_rank_matrix(rnd):
    """A product of random n x k and k x m integer matrices, k <= 4, so its
    rank is at most k and pivots are often missing from a column."""
    n, m, k = rnd.randint(1, 7), rnd.randint(1, 7), rnd.randint(0, 4)
    a = [[rnd.randint(-6, 6) for _ in range(k)] for _ in range(n)]
    b = [[rnd.randint(-6, 6) for _ in range(m)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if k else [0] * m
            for row in a]


@given(st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=100)
def test_int_matrix_rank_matches_fraction_oracle(rnd):
    # 30 matrices per example: about one in a hundred catches an elimination
    # that leaves a row below the pivot unscaled
    for _ in range(30):
        rows = _low_rank_matrix(rnd)
        assert _int_matrix_rank(rows) == _rank_over_fractions(rows)


@pytest.mark.parametrize(
    "family,rank",
    [(f, r) for f, ranks in SUPPORTED_RANKS.items() for r in ranks if r <= 6],
)
def test_int_matrix_rank_on_minus_one_grams(family, rank):
    gram = minus_one_gram(build(WeylType(family, rank)))
    assert _int_matrix_rank(gram) == _rank_over_fractions(gram)


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
        qgram = qell_rows(g.type)
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


@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_graded_values_match_per_degree_sums(data):
    # a graded character's class values, packed once, against one integer
    # dot product per degree and class; wide coefficients of either sign
    family, rank = data.draw(st.sampled_from([("A", 3), ("B", 3), ("G2", 2)]))
    g = build(WeylType(family, rank))
    coords = data.draw(st.lists(st.lists(_coeff, max_size=4).map(IntPoly),
                                min_size=len(g.irrep_labels), max_size=len(g.irrep_labels)))
    by_degree = _by_degree(coords)
    want = tuple(IntPoly([sum(map(mul, cd, col)) for cd in by_degree]) for col in zip(*g.char_table))
    assert GradedCharacter(g, tuple(coords)).values == want


def test_graded_gram_unpacks_each_distinct_slot_once(monkeypatch):
    # B6's q-elliptic Gram has 920 nonzero entries on and above the diagonal,
    # which take 31 distinct values; each value is unpacked once
    g = build(WeylType("B", 6))
    unpack, calls = IntPoly.unpack, []

    def counted(n, b):
        calls.append(n)
        return unpack(n, b)

    monkeypatch.setattr(IntPoly, "unpack", staticmethod(counted))
    for perms in ((), twists(g.type)):
        calls.clear()
        gram = _class_gram(g, g.char_table, g.char_table, g.refl_charpoly, perms)
        upper = [e for i, row in enumerate(gram) for e in row[i:] if e]
        assert (len(upper), len(set(upper)), len(calls)) == (920, 31, 31)
        # one object per distinct value, the 0 included, in every row
        assert len(set(map(id, chain(*gram)))) == 32
        assert tuple(map(tuple, gram)) == qell_rows(g.type)


def test_packed_kernel_rejects_non_characters():
    g = build(WeylType("A", 2))
    half = [[P(1, 0, 10**30 + 1)] + [0] * (len(g.classes) - 1)]
    for kernel in (_class_gram, _class_gram_by_degree):
        with pytest.raises(ArithmeticError):
            kernel(g, half, list(half), g.refl_charpoly)


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


@pytest.mark.parametrize("graded", [False, True])
def test_kernel_leaves_out_classes_of_weight_zero(graded):
    # A1 weighted by det_V(1 + w), times 1 + q when graded: 2 on the identity
    # class, 0 on the reflection class.  The row's 10^6 on the reflection
    # class adds nothing, and the slot width, which bounds the classes with
    # a nonzero term only, does not hold it: that class must not be packed
    g = build(WeylType("A", 1))
    row = [10**6] * len(g.classes)
    row[g.identity_class] = 2
    weight = _det_values(g, -1)
    if graded:
        weight = [P(w, w) for w in weight]
    rows = [row]
    want = _class_gram_by_degree(g, rows, rows, weight)
    assert want == [[P(4, 4) if graded else 4]]
    assert _class_gram(g, rows, rows, weight) == want
    assert _class_gram(g, rows, [list(row)], weight) == want


@pytest.mark.parametrize(
    "rank,rows,weight,witness",
    [
        # A1: the one class sum 1 leaves a remainder mod |W| = 2, though its
        # floor quotient 0 has no large digit
        (1, [[1, 0]], [1, 1], "[1]"),
        # A2: rows 0 and 1 hold the class sums (20, 10) and (6); packed at
        # q = 2^6 they are 660 and 6, multiples of |W| = 6, while 20 and 10
        # are not
        (2, [[-2, -2, 0], [-1, -1, -1]], [1, 1, 1], "[20]"),
    ],
)
def test_row_gram_checks_each_coefficient(rank, rows, weight, witness):
    g = build(WeylType("A", rank))
    for kernel in (_class_gram, _class_gram_by_degree):
        with pytest.raises(ArithmeticError, match=re.escape(f"class sums {witness} ")):
            kernel(g, rows, rows, weight)


def test_row_gram_split_rejection_takes_the_same_error_path(monkeypatch):
    # A2, classes (3), (2,1), (1,1,1) of sizes 2, 3, 1: the rows give the
    # class sums 2000 and 1000 on row 0, packed as 2000 + 1000 * 2^S, a
    # multiple of |W| = 6, while 2000 is not.  At the true width the quotient
    # always fits its slots, and its digits fail the limit check.  A width
    # narrowed to one byte is too small for these sums: the quotient 43000
    # does not fit two 8-bit slots, so `split_ints` rejects the row before
    # the limit check, and the row must raise the same ArithmeticError.
    g = build(WeylType("A", 2))
    rows, weight = [[-20, -20, 0], [-10, -10, -10]], [1, 1, 1]
    message = re.escape("class sums [2000] not divisible by |W| = 6")
    with pytest.raises(ArithmeticError, match=message):
        _class_gram(g, rows, rows, weight)

    rejected, split = [], charring.split_ints

    def split_ints(u, width, count):
        out = split(u, width, count)
        rejected.append(out is None)
        return out

    monkeypatch.setattr(charring, "slot_bits", lambda bound: 8)
    monkeypatch.setattr(charring, "split_ints", split_ints)
    with pytest.raises(ArithmeticError, match=message):
        _class_gram(g, rows, rows, weight)
    assert rejected == [True]


def test_row_gram_checks_the_digit_count_of_each_entry():
    # B2 with weights of degree 0: b = 12, and entries lie 16 bits apart.
    # Row 0's class sums are 528 and -612, packed as 528 - 612 * 2^16, a
    # multiple of |W| = 8 while -612 is not.  The quotient's slots are
    # 66 - 2^15 and -76; the first unpacks into the two small digits 66, -8,
    # one more than a weight of one slot gives, so it is no entry.
    g = build(WeylType("B", 2))
    rows = [[-3, -3, -1, 0, -3], [2, 0, 3, 0, 2]]
    weight = [P(40), P(-17), P(12), P(32), P(25)]
    for kernel in (_class_gram, _class_gram_by_degree):
        with pytest.raises(ArithmeticError, match=re.escape("class sums [-612] ")):
            kernel(g, rows, rows, weight)


@pytest.mark.parametrize(
    "rank,value,witness",
    [
        # A1: the class sum 1 leaves a remainder mod |W| = 2, though its
        # floor quotient 0 has no large digit
        (1, P(1), "[1]"),
        # A2: the class sum 4 + 2q, packed at q = 2^4, is 36, a multiple of
        # |W| = 6, while 4 and 2 are not
        (2, P(4, 2), "[4, 2]"),
    ],
)
def test_store_pairing_checks_each_coefficient(rank, value, witness):
    # one graded class sum, on the identity class alone, through the
    # rectangular call (rows_a is not rows_b)
    g = build(WeylType("A", rank))
    probe, row, weight = ([0] * len(g.classes) for _ in range(3))
    probe[g.identity_class], row[g.identity_class], weight[g.identity_class] = 1, value, P(1)
    for kernel in (_class_gram, _class_gram_by_degree):
        with pytest.raises(ArithmeticError, match=re.escape(f"class sums {witness} ")):
            kernel(g, [probe], [row], weight)


_digit = st.integers(-9, 9)


@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_store_grows_and_matches_one_shot_gram(data):
    # the solver's rows: a graded character's coordinates over the
    # irreducibles, then its q-elliptic pairings with them.  Characters whose
    # coordinates reach 1, 10^10 and then 10^30 force the store's slot width
    # to grow at least twice; a combination of stored rows with coefficients
    # up to 10^200 outgrows it once more.  The combination must be exact, and
    # the pairing half of every stored row must be the class-sum Gram of the
    # irreducibles with the class values of its coordinate half, at every
    # width.
    g = build(WeylType("B", 2))
    n = len(g.irrep_labels)
    gram = qell_rows(g.type)

    def character(scale):
        coords = [IntPoly([d * scale for d in data.draw(st.lists(_digit, max_size=3))])
                  for _ in range(n)]
        # one coefficient of full size, of either sign, at degree 3: above the
        # drawn digits, so none of them can cancel it
        lead_digit = data.draw(st.integers(1, 9)) * data.draw(st.sampled_from((1, -1)))
        coords[data.draw(st.integers(0, n - 1))] += IntPoly([0, 0, 0, lead_digit * scale])
        return coords + [sum(map(mul, coords, col), IntPoly()) for col in zip(*gram)]

    store = PackedRows()
    widths = []
    for scale in (1, 10**10, 10**30):
        for _ in range(data.draw(st.integers(1, 2))):
            store.combine(character(scale), [])
        widths.append(store.b)
    assert len(set(widths)) == 3

    stored = len(store.rows)
    base = character(1)
    big = st.tuples(_digit.filter(bool), _digit)
    terms = [(IntPoly([d * 10**200 + e for d, e in data.draw(st.lists(big, min_size=1, max_size=3))]), j)
             for j in data.draw(st.lists(st.integers(0, stored - 1), min_size=1, max_size=3))]
    want = base
    for c, j in terms:
        want = [w - c * v for w, v in zip(want, store.rows[j])]
    assert store.combine(base, terms) == want
    assert store.b > widths[-1]

    classes = [GradedCharacter(g, tuple(row[:n])).values for row in store.rows]
    pairings = [list(col) for col in zip(*(row[n:] for row in store.rows))]
    assert pairings == _class_gram(g, g.char_table, classes, g.refl_charpoly)
    assert pairings == _class_gram_by_degree(g, g.char_table, classes, g.refl_charpoly)


@given(data=st.data())
@settings(deadline=None, max_examples=60)
def test_combine_bounds_every_position_by_the_largest_stored_coefficient(data):
    # one stored row's largest coefficient, in [2^99, 2^100), sits at another
    # position than the base's largest, and a term takes it at least twice,
    # so the combination outgrows the width that row was stored at: a bound
    # read from the base's positions alone would leave the store too narrow.
    # The result must be the schoolbook combination.
    width = data.draw(st.integers(2, 5))
    small = st.lists(_digit, max_size=3).map(IntPoly)
    entries = st.lists(small, min_size=width, max_size=width)
    store = PackedRows()
    for _ in range(data.draw(st.integers(0, 2))):
        store.combine(data.draw(entries), [])
    big_at, base_at = data.draw(st.permutations(range(width)))[:2]
    row = data.draw(entries)
    row[big_at] += IntPoly([0, data.draw(st.integers(2**99, 2**100 - 1)) * data.draw(st.sampled_from((1, -1)))])
    store.combine(row, [])
    base = data.draw(entries)
    base[base_at] += IntPoly([data.draw(st.integers(10**5, 10**10))])
    lead = data.draw(st.integers(2, 9)) * data.draw(st.sampled_from((1, -1)))
    terms = [(IntPoly(data.draw(st.lists(_digit, max_size=2)) + [lead]), len(store.rows) - 1)]
    terms += [(c, data.draw(st.integers(0, len(store.rows) - 1)))
              for c in data.draw(st.lists(small.filter(bool), max_size=2))]
    want = base
    for c, j in terms:
        want = [w - c * v for w, v in zip(want, store.rows[j])]
    assert store.combine(base, terms) == want


@pytest.mark.parametrize("family,rank", SOLVED_TABLES, ids=[f"{f}{r}" for f, r in SOLVED_TABLES])
def test_solver_widths_hold_the_per_position_bound(monkeypatch, family, rank):
    # each combination's coefficient at position p is at most
    # |base_p|_inf + sum_c |c|_1 max_j |row_j,p|_inf over the stored rows;
    # the width every combination of the solve runs at must hold that bound
    combine, widths = PackedRows.combine, []

    def record(store, base, terms):
        stored = list(store.rows)
        row = combine(store, base, terms)
        scale = sum(c.norm1() for c, _ in terms)
        bound = max(
            x.norm_inf() + scale * max((r[p].norm_inf() for r in stored), default=0)
            for p, x in enumerate(base)
        )
        # checked at each call, so that a failure names the first combination
        # that ran too narrow
        assert slot_bits(bound) <= store.b, (len(widths), store.b, bound)
        widths.append(store.b)
        return row

    monkeypatch.setattr(PackedRows, "combine", record)
    table = (table_typeA if family == "A" else table_typeC)(rank)
    solve(table)
    assert widths == sorted(widths) and len(widths) == len(table.pairs)


# groups with a Springer table, whose solve and verify use Omega
_OMEGA_GROUPS = {("A", r) for r in range(1, 8)} | {("C", r) for r in range(1, 4)}


@pytest.mark.parametrize(
    "family,rank", [(f, r) for f, ranks in SUPPORTED_RANKS.items() for r in ranks]
)
def test_table_grams_match_per_entry_oracle(family, rank):
    # the row-packed Grams against one packed dot product per entry
    g = build(WeylType(family, rank))
    assert list(map(list, qell_rows(g.type))) == symmetric_class_gram(g, g.char_table, g.refl_charpoly)
    assert minus_one_gram(g) == symmetric_class_gram(g, g.char_table, _det_values(g, -1))
    if (family, rank) in _OMEGA_GROUPS:
        coinv = _coinvariant_values(g.type)
        want = symmetric_class_gram(g, g.char_table, coinv)
        assert omega(g) == want


@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_row_gram_width_holds_a_tight_entry(data):
    # rows of equal magnitudes m_k and weights of one sign in their top
    # degree put the whole bound sum_k |C_k| m_k^2 |weight_k|_inf on each
    # diagonal entry, so the slot width cannot lose a bit
    family, rank = data.draw(st.sampled_from([("A", 2), ("B", 2), ("B", 3), ("G2", 2)]))
    g = build(WeylType(family, rank))
    k = len(g.classes)
    mags = [g.order * m for m in data.draw(st.lists(st.integers(1, 10**12), min_size=k, max_size=k))]
    signs = st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k)
    rows = [list(map(mul, mags, data.draw(signs))) for _ in range(data.draw(st.integers(1, 4)))]
    sign = data.draw(st.sampled_from((1, -1)))
    tops = data.draw(st.lists(st.integers(1, 10**6), min_size=k, max_size=k))
    if data.draw(st.booleans()):
        weight = [sign * t for t in tops]
    else:
        low = st.integers(-1, 1)
        weight = [IntPoly([data.draw(low) * t, sign * t, data.draw(low) * t]) for t in tops]
    assert _class_gram(g, rows, rows, weight) == _class_gram_by_degree(g, rows, rows, weight)


@pytest.mark.parametrize(
    "family,rank", [(f, r) for f, ranks in SUPPORTED_RANKS.items() for r in ranks]
)
def test_twists_are_the_linear_characters_of_the_table(family, rank):
    # one permutation per row of degree 1, in table order: pi(i) is the row
    # of chi_i lambda; they form a group of involutions, of order 2 for A and
    # D (and the order-2 groups A1, B1 and C1), 4 for B, C and G2
    t = WeylType(family, rank)
    table = build(t).char_table
    linear = [row for row in table if row[build(t).identity_class] == 1]
    perms = twists(t)
    assert len(perms) == len(linear) == (2 if family in ("A", "D") or rank == 1 else 4)
    assert set(perms) == {tuple(p[i] for i in q) for p in perms for q in perms}
    for lam, p in zip(linear, perms):
        assert set(lam) <= {1, -1}
        assert all(p[p[i]] == i for i in range(len(table)))
        assert [table[j] for j in p] == [tuple(map(mul, row, lam)) for row in table]


@pytest.mark.parametrize("rows,message", [
    # a row of degree 1 with a value 2
    (((1, 1), (1, 2)), "linear character (1, 2) of A1 takes a value other than +-1"),
    # (1, -1, 1) twists (2, 1, -1) to (2, -1, -1), which is no row
    (((1, 1, 1), (1, -1, 1), (2, 1, -1)), "row 2 of A1 twisted by (1, -1, 1) is not in the table"),
])
def test_twists_reject_a_table_without_its_twisted_rows(rows, message, monkeypatch):
    fake = SimpleNamespace(char_table=rows, identity_class=0)
    monkeypatch.setattr(charring, "build", lambda t: fake)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        twists.__wrapped__(WeylType("A", 1))


@pytest.mark.parametrize("family,rank", SOLVED_TABLES, ids=[f"{f}{r}" for f, r in SOLVED_TABLES])
def test_omega_at_matches_per_entry_oracle_on_pair_rows(family, rank):
    # the solver's Omega(2^b), rows in pair order, filled from one row per
    # orbit of the twists, against one packed dot product per entry
    table = (table_typeA if family == "A" else table_typeC)(rank)
    g, irr = table.group, table.pair_irreps
    b = slot_bits(omega_bound(g, irr))
    rows = [g.char_table[a] for a in irr]
    weight = [c.pack(b) for c in _coinvariant_values(g.type)]
    assert omega_at(g, irr, b) == class_gram(g, rows, rows, weight)


@pytest.mark.parametrize(
    "irreps,closed",
    [
        (list(range(9, -1, -1)), 4),  # every irreducible of B3, reversed
        ([0, 1, 3], 1),  # closed under the identity alone
        ([9, 0, 5, 8, 1, 4], 2),  # and under (alpha; beta) -> (beta'; alpha')
    ],
    ids=["reversed", "no-twist", "one-twist"],
)
def test_omega_at_on_irreducibles_closed_under_some_twists(irreps, closed):
    # the twists that map the rows onto themselves, as permutations of the
    # rows, fill Omega; the others are left out
    g = build(WeylType("B", 3))
    assert len(charring._on_rows(twists(g.type), irreps)) == closed
    b = slot_bits(omega_bound(g, irreps))
    rows = [g.char_table[a] for a in irreps]
    weight = [c.pack(b) for c in _coinvariant_values(g.type)]
    assert omega_at(g, irreps, b) == class_gram(g, rows, rows, weight)


@pytest.mark.parametrize("n", range(1, 9))
def test_bc_columns_match_per_term_oracle(n):
    for pos, neg in bipartitions(n):
        assert _bc_column(pos, neg) == bc_column_per_term(pos, neg)


@pytest.mark.parametrize(
    "family,rank", [(f, r) for f in ("B", "C", "D") for r in SUPPORTED_RANKS[f]]
)
def test_bcd_tables_match_outer_product_oracle(monkeypatch, family, rank):
    # the table `build` gives against the one the list outer products give,
    # with every split of every class taken afresh
    g = build(WeylType(family, rank))
    monkeypatch.setattr(weyl, "_bc_column", bc_column_outer_products)
    if family == "D":
        table = weyl._build_D(g.type)[1]
    else:
        table = weyl._build_BC.__wrapped__(rank)[1]
    assert g.char_table == table
