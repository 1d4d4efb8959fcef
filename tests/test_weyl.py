import copy
from functools import lru_cache
from math import factorial
from operator import mul

import pytest

from greenpoly.partitions import (
    count_even_length_partitions,
    count_odd_part_partitions,
    partitions,
    sym_char,
)
from greenpoly import weyl
from greenpoly.polyq import IntPoly
from greenpoly.weyl import (
    SUPPORTED_RANKS,
    WeylType,
    _verify,
    bipartitions,
    braid_order,
    build,
    delta_elliptic_count,
    delta_twisted_classes,
    identity_element,
    minus_one_elliptic_classes,
    reduced_word,
    simple_generators,
    sp_mul,
)

import oracles
from oracles import brute_force_classes, hooks, sym_char_by_hooks


def test_supported_ranks():
    with pytest.raises(ValueError):
        WeylType("A", 12)
    for fam in ("B", "C", "D"):
        with pytest.raises(ValueError):
            WeylType(fam, 9)
    with pytest.raises(ValueError):
        WeylType("D", 2)
    with pytest.raises(ValueError):
        WeylType("G2", 3)


def test_s3_build():
    g = build(WeylType("A", 2))
    assert g.order == 6
    assert len(g.classes) == 3
    assert g.degrees == (2, 3)


def test_b2_build():
    g = build(WeylType("B", 2))
    assert g.order == 8
    assert len(g.classes) == 5
    assert g.degrees == (2, 4)


def test_g2_build():
    g = build(WeylType("G2", 2))
    assert len(g.classes) == 6
    assert g.degrees == (2, 6)
    assert g.order == 12


def test_all_types_build_and_verify():
    # construction includes exact orthogonality checks, so success is the test
    for fam, ranks in [("A", range(1, 8)), ("B", range(1, 6)),
                       ("C", range(1, 5)), ("D", range(3, 6)), ("G2", [2])]:
        for r in ranks:
            build(WeylType(fam, r))


def test_identity_charpoly():
    for fam, r in [("A", 3), ("B", 3), ("D", 4), ("G2", 2)]:
        g = build(WeylType(fam, r))
        ident = g.identity_class
        assert g.refl_charpoly[ident] == IntPoly((1, -1)) ** g.type.rank


def test_reflection_class_charpoly_a1():
    g = build(WeylType("A", 1))
    refl = next(i for i, c in enumerate(g.classes) if c.size == 1 and i != g.identity_class)
    assert g.refl_charpoly[refl] == IntPoly((1, 1))


def test_w0_charpoly_b2():
    g = build(WeylType("B", 2))
    k = g.class_of(g.w0)
    assert g.refl_charpoly[k] == IntPoly((1, 1)) ** 2


def test_char_values():
    g = build(WeylType("B", 2))
    assert set(g.char_table[g.triv_index]) == {1}
    # sign character at w0: length of w0 is 4
    assert g.char_table[g.sgn_index][g.class_of(g.w0)] == 1
    # reflection character at identity = rank
    assert g.char_table[g.refl_index][g.identity_class] == 2


def test_minus_one_elliptic():
    g = build(WeylType("A", 1))
    assert minus_one_elliptic_classes(g) == {g.identity_class}
    g = build(WeylType("A", 2))
    labels = {g.classes[i].label for i in minus_one_elliptic_classes(g)}
    assert labels == {(1, 1, 1), (3,)}
    # all (-1)-elliptic classes lie in the kernel of sgn
    for fam, r in [("A", 3), ("B", 3), ("D", 4), ("G2", 2)]:
        gg = build(WeylType(fam, r))
        for k in minus_one_elliptic_classes(gg):
            assert gg.char_table[gg.sgn_index][k] == 1


@pytest.mark.parametrize(
    "family,rank,expected",
    [
        ("A", 2, 2),   # odd partitions of 3
        ("A", 3, 2),   # odd partitions of 4
        ("A", 4, 3),
        ("B", 2, 2),   # partitions of 2
        ("B", 3, 3),
        ("G2", 2, 3),
        ("D", 4, 3),   # even-length partitions of 4
        ("D", 3, 2),   # odd-length partitions of 3
        ("D", 5, 4),   # odd-length partitions of 5
    ],
)
def test_delta_elliptic_counts(family, rank, expected):
    assert delta_elliptic_count(build(WeylType(family, rank))) == expected


def _split_positive_rep(mu):
    """The element with positive cycles (1 .. mu_1)(mu_1 + 1 .. mu_1 + mu_2)..."""
    rep = []
    start = 0
    for c in mu:
        rep.extend(list(range(start + 2, start + c + 1)) + [start + 1])
        start += c
    return tuple(rep)


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 6)]
    + [("B", r) for r in range(1, 7)]
    + [("C", r) for r in range(1, 7)]
    + [("D", r) for r in range(3, 7)]
    + [("G2", 2)],
)
def test_closed_form_classes_match_orbit_partition(family, rank):
    t = WeylType(family, rank)
    g = build(t)
    orbits = brute_force_classes(t)
    assert len(orbits) == len(g.classes)
    found = set()
    for orb in orbits:
        k = g.class_of(next(iter(orb)))
        assert all(g.class_of(w) == k for w in orb)
        found.add(k)
        cls = g.classes[k]
        assert cls.size == len(orb)
        assert cls.representative in orb
        assert cls.representative == min(orb)
        signed = weyl.signed_cycle_type(cls.representative)
        if family == "A":
            assert signed == (cls.label, ())
        elif family == "G2":
            assert signed == oracles.G2_SIGNED_TYPES[cls.label]
        else:
            assert cls.label[:2] == signed
        if family == "D" and cls.label[2]:
            want = "+" if _split_positive_rep(cls.label[0]) in orb else "-"
            assert cls.label[2] == want
    assert len(found) == len(g.classes)


@pytest.mark.parametrize("rank", range(1, 12))
def test_type_a_representatives_are_consecutive_cycles(rank):
    # the least element of the class, as the search above finds it up to
    # A5: cycles on consecutive points, shortest first
    for cls in build(WeylType("A", rank)).classes:
        assert cls.representative == _split_positive_rep(cls.label[::-1])


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 8)]
    + [("B", r) for r in range(1, 6)]
    + [("D", r) for r in range(3, 7)]
    + [("G2", 2)],
)
def test_delta_elliptic_count_matches_twisted_orbits(family, rank):
    g = build(WeylType(family, rank))
    orbs = delta_twisted_classes(g)
    assert len(orbs) == len(g.classes)  # w -> w w0 is a bijection of classes
    assert delta_elliptic_count(g) == sum(1 for _, _, ell in orbs if ell)


def test_build_and_twisted_count_never_enumerate(monkeypatch):
    def refuse(*args):
        raise AssertionError("whole-group enumeration")

    monkeypatch.setattr(weyl, "all_elements", refuse)
    monkeypatch.setattr(oracles, "elements", refuse)
    monkeypatch.setattr(oracles, "brute_force_classes", refuse)
    # the uncached body, so the groups other tests hold stay the cached ones
    uncached_build = build.__wrapped__
    for fam in ("B", "C", "D"):
        uncached_build(WeylType(fam, 6))
    for fam, r in (("A", 7), ("D", 5), ("G2", 2)):
        delta_elliptic_count(uncached_build(WeylType(fam, r)))


def test_build_finds_no_representative(monkeypatch):
    def refuse(*args):
        raise AssertionError("least-element search in build")

    monkeypatch.setattr(weyl, "_lex_elements", refuse)
    built = {fam: build.__wrapped__(WeylType(fam, 6)) for fam in ("B", "C", "D")}
    # B_n and C_n share the classes of the cached `_build_BC`: build them
    # afresh too, so that no representative read earlier is reused
    fresh = {"B": weyl._build_BC.__wrapped__(6)[0], "D": built["D"].classes}
    monkeypatch.undo()
    # read afterwards, each is the representative that
    # test_closed_form_classes_match_orbit_partition finds to be min(orbit)
    for fam, classes in fresh.items():
        want = [cls.representative for cls in build(WeylType(fam, 6)).classes]
        assert [cls.representative for cls in classes] == want


def test_twisted_orbits_partition_group():
    g = build(WeylType("A", 2))
    orbs = delta_twisted_classes(g)
    assert sum(size for _, size, _ in orbs) == g.order


def test_untwisted_elliptic_matches_twisted_when_w0_central():
    for fam, r in [("B", 2), ("B", 3), ("G2", 2), ("D", 4)]:
        g = build(WeylType(fam, r))
        assert g.delta_is_trivial()
        assert delta_elliptic_count(g) == sum(p.eval(1) != 0 for p in g.refl_charpoly)


def test_delta_nontrivial_for_a_and_odd_d():
    assert not build(WeylType("A", 2)).delta_is_trivial()
    assert not build(WeylType("D", 3)).delta_is_trivial()
    assert not build(WeylType("D", 5)).delta_is_trivial()
    assert build(WeylType("A", 1)).delta_is_trivial()


def test_reduced_words_multiply_back():
    for fam, r in [("A", 3), ("B", 3), ("D", 4), ("G2", 2)]:
        g = build(WeylType(fam, r))
        gens = simple_generators(g.type)
        for cls in g.classes:
            w = cls.representative
            cur = identity_element(g.type)
            for i in reduced_word(g, w):
                cur = sp_mul(cur, gens[i])
            assert cur == w


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(1, 7)]
    + [("C", r) for r in range(1, 7)]
    + [("D", r) for r in range(3, 7)]
    + [("G2", 2)],
)
def test_word_of_w0_is_reduced(family, rank):
    # the longest element has length N, the number of positive roots, which
    # is sum(d - 1) over the fundamental degrees d
    g = build(WeylType(family, rank))
    assert len(reduced_word(g, g.w0)) == sum(d - 1 for d in g.degrees)


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 5)]
    + [("B", r) for r in range(1, 5)]
    + [("C", r) for r in range(1, 5)]
    + [("D", r) for r in range(3, 6)]
    + [("G2", 2)],
)
def test_generators_are_the_simple_root_reflections(family, rank):
    # s_i(alpha_j) = alpha_j - (2 <alpha_j, alpha_i> / <alpha_i, alpha_i>) alpha_i,
    # compared after multiplying through by <alpha_i, alpha_i>
    t = WeylType(family, rank)
    roots = weyl.ambient_simple_roots(t)
    gens = simple_generators(t)
    assert len(gens) == len(roots) == rank
    for s, a in zip(gens, roots):
        aa = sum(map(mul, a, a))
        for b in roots:
            ab = sum(map(mul, a, b))
            want = tuple(aa * y - 2 * ab * x for x, y in zip(a, b))
            assert tuple(aa * y for y in weyl._act_ambient(s, b)) == want


def test_reduced_word_raises_past_the_length_of_w0(monkeypatch):
    # a long generator that is not the reflection in the long simple root
    # sends the descent loop round a cycle; the loop stops at N letters
    g = build(WeylType("G2", 2))
    short = simple_generators(g.type)[0]
    rot60 = next(c.representative for c in g.classes if c.label == "rot60")
    monkeypatch.setattr(weyl, "simple_generators", lambda t: (short, (-1, -2, -3)))
    with pytest.raises(RuntimeError, match="no reduced word for"):
        reduced_word(g, rot60)


def test_reduced_word_raises_outside_the_group():
    # one sign change is in W(B4) but not in W(D4): the loop runs out of
    # descents before it reaches the identity
    with pytest.raises(RuntimeError, match="no reduced word for"):
        reduced_word(build(WeylType("D", 4)), (-1, 2, 3, 4))


def _charpoly_by_products(family, label) -> IntPoly:
    """det_V(1 - qw) of a class label as a product of IntPolys: (1 - q^c)
    per positive and (1 + q^c) per negative cycle of a B/C/D label, of a
    type A label (all positive), or of the signed cycle type of a G2 class.
    In types A and G2 the product is divided by the factor of the line
    (1, ..., 1): 1 + q if some cycle is negative (then the element is
    -sigma), else 1 - q."""
    if family == "A":
        label = (label, ())
    elif family == "G2":
        label = oracles.G2_SIGNED_TYPES[label]
    out = IntPoly((1,))
    for cycles, sign in ((label[0], -1), (label[1], 1)):
        for c in cycles:
            out = out * IntPoly((1,) + (0,) * (c - 1) + (sign,))
    if family in ("A", "G2"):
        out = out.divexact(IntPoly((1, 1 if label[1] else -1)))
    return out


@pytest.mark.parametrize(
    "family,rank",
    [("B", r) for r in range(2, 9)] + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
    + [("A", r) for r in range(1, 12)] + [("G2", 2)],
)
def test_packed_charpoly_matches_product_oracle(family, rank):
    t = WeylType(family, rank)
    for cls in build(t).classes:
        assert weyl.charpoly_of_label(t, cls.label) == _charpoly_by_products(family, cls.label)


def test_g2_closed_forms_match_typed_tables():
    g = build(WeylType("G2", 2))
    names = [cls.label for cls in g.classes]
    assert names == ["e", "w0", "rot60", "rot120", "refl_long", "refl_short"]
    assert g.irrep_labels == tuple(oracles.G2_TABLE)
    assert g.char_table == tuple(oracles.G2_TABLE.values())
    assert g.refl_charpoly == [oracles.G2_CHARPOLY[name] for name in names]


@pytest.mark.parametrize(
    "family,rank",
    [(fam, r) for fam, ranks in SUPPORTED_RANKS.items() for r in ranks],
)
def test_braid_order_matches_products(family, rank):
    t = WeylType(family, rank)
    g = build(t)
    for i in range(rank):
        for j in range(rank):
            assert braid_order(g, i, j) == oracles.braid_order_by_products(t, i, j), (i, j)


def test_braid_orders():
    g = build(WeylType("G2", 2))
    assert braid_order(g, 0, 1) == 6
    g = build(WeylType("B", 3))
    assert braid_order(g, 0, 1) == 3
    assert braid_order(g, 1, 2) == 4
    assert braid_order(g, 0, 2) == 2


def test_d_split_classes_present():
    g = build(WeylType("D", 4))
    tags = [c.label[2] for c in g.classes if len(c.label) == 3 and c.label[2]]
    assert tags.count("+") == 2 and tags.count("-") == 2
    assert len(g.classes) == 13


def test_determinism():
    a = build(WeylType("B", 3))
    b = build(WeylType("B", 3))
    assert a is b  # cached
    assert [c.label for c in a.classes] == [c.label for c in b.classes]


# ---------------------------------------------------------------------------
# character tables against independent oracles


@lru_cache(maxsize=None)
def hyperoct_char(alpha, beta, pos, neg) -> int:
    """Character of the B_n irrep (alpha;beta) at signed cycle type (pos,neg).

    The Murnaghan-Nakayama recursion on bipartitions: each cycle is stripped
    as a rim hook from alpha or from beta, and a hook stripped from beta picks
    up the sign of the cycle.
    """
    if pos:
        r, rest = pos[0], pos[1:]
        total = 0
        for sm, leg in hooks(alpha, r):
            total += (-1) ** leg * hyperoct_char(sm, beta, rest, neg)
        for sm, leg in hooks(beta, r):
            total += (-1) ** leg * hyperoct_char(alpha, sm, rest, neg)
        return total
    if neg:
        r, rest = neg[0], neg[1:]
        total = 0
        for sm, leg in hooks(alpha, r):
            total += (-1) ** leg * hyperoct_char(sm, beta, (), rest)
        for sm, leg in hooks(beta, r):
            total -= (-1) ** leg * hyperoct_char(alpha, sm, (), rest)
        return total
    return 1 if not alpha and not beta else 0


def _d_value(label, cls_label):
    """D_n irreducible `label` at class `cls_label`, from the B_n recursion.

    A pair (a, b) restricts from B_n.  A split pair (a, a, +-) is half of
    (a; a), plus or minus 2^l(mu) chi^a(mu / 2) / 2 on the split class (mu, (), +-).
    """
    pos, neg, tag = cls_label
    base = hyperoct_char(label[0], label[1], pos, neg)
    if len(label) == 2:
        return base
    if not tag:
        return base // 2
    sign = 1 if label[2] == tag else -1
    corr = 2 ** len(pos) * sym_char(label[0], tuple(c // 2 for c in pos))
    return (base + sign * corr) // 2


@pytest.mark.gl12
def test_s12_table_matches_beta_list_recursion():
    # the largest table production builds, against the rim-hook recursion
    # on beta lists
    g = build(WeylType("A", 11))
    assert g.irrep_labels == partitions(12)
    assert g.char_table == tuple(
        tuple(sym_char_by_hooks(lam, cls.label) for cls in g.classes) for lam in partitions(12)
    )


@pytest.mark.parametrize("rank", range(1, 8))
def test_bc_table_matches_hook_recursion(rank):
    g = build(WeylType("B", rank))
    assert g.irrep_labels == bipartitions(rank)
    for (a, b), row in zip(g.irrep_labels, g.char_table):
        assert row == tuple(hyperoct_char(a, b, *cls.label) for cls in g.classes)
    assert build(WeylType("C", rank)).char_table == g.char_table


@pytest.mark.parametrize("rank", range(3, 8))
def test_d_table_matches_hook_recursion(rank):
    g = build(WeylType("D", rank))
    for label, row in zip(g.irrep_labels, g.char_table):
        assert row == tuple(_d_value(label, cls.label) for cls in g.classes)


@pytest.mark.parametrize(
    "family,rank",
    [(fam, r) for fam, ranks in SUPPORTED_RANKS.items() for r in ranks],
)
def test_column_orthogonality(family, rank):
    # build checks rows only; columns follow for a square table, and this
    # checks them directly: sum_i X_ik X_il = |W| / |C_k| if k = l, else 0
    g = build(WeylType(family, rank))
    cols = list(zip(*g.char_table))
    for k, ck in enumerate(cols):
        for l in range(k, len(cols)):
            want = g.order // g.classes[k].size if k == l else 0
            assert sum(map(mul, ck, cols[l])) == want, (k, l)


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4), ("A", 4)])
def test_verify_names_first_bad_row_pair(family, rank):
    g = build(WeylType(family, rank))
    r = len(g.char_table) - 2
    k = next(k for k, v in enumerate(g.char_table[r]) if v and k != g.identity_class)
    rows = [list(row) for row in g.char_table]
    rows[r][k] = -rows[r][k]
    bad = copy.copy(g)
    bad.char_table = tuple(map(tuple, rows))
    sizes = [c.size for c in g.classes]
    first = next(
        (i, j)
        for i in range(len(rows))
        for j in range(i, len(rows))
        if sum(s * x * y for s, x, y in zip(sizes, rows[i], rows[j]))
        != (g.order if i == j else 0)
    )
    with pytest.raises(AssertionError, match=f"rows {first[0]},{first[1]}$"):
        _verify(bad)
    _verify(g)


def _bipartition_count(n):
    return sum(len(partitions(k)) * len(partitions(n - k)) for k in range(n + 1))


@pytest.mark.parametrize(
    "family,rank", [(fam, r) for fam in ("B", "C", "D") for r in (7, 8)]
)
def test_raised_ranks(family, rank):
    # build runs _verify, so success already checks row orthogonality
    g = build(WeylType(family, rank))
    _verify(g)
    order = 2**rank * factorial(rank)
    if family == "D":
        order //= 2
        # (a;b) and (b;a) restrict to one irreducible, (a;a) to two; as many
        # classes, counting both halves of each split class
        halves = len(partitions(rank // 2)) if rank % 2 == 0 else 0
        assert len(g.classes) == (_bipartition_count(rank) + 3 * halves) // 2
        assert sum(1 for c in g.classes if c.label[2]) == 2 * halves
    else:
        assert len(g.classes) == _bipartition_count(rank)
    assert g.order == order
    assert sum(c.size for c in g.classes) == order
