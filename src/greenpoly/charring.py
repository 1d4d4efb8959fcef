"""Virtual and graded characters of a Weyl group and their pairings.

Every pairing here is one class sum, (1/|W|) sum_k |C_k| a(w_k) b(w_k) c_k(q),
with a per-class weight c: 1 for the standard pairing, det_V(1 - q w) for the
q-elliptic pairing, its values at q = +-1 for the (+-1)-elliptic pairings, and
the coinvariant-algebra class function p(q)/det_V(1 - q w) for fake degrees
and Omega.  All of them go through one kernel, _class_gram, which packs each
polynomial class value into one integer f(2^b) (Kronecker substitution) and
takes each entry as one integer dot product over the classes, so it builds
a whole Gram on irreducibles at once.  A brute-force sum over group
elements is kept as an independent oracle for small ranks.  The coinvariant
class function is an integer polynomial for every w, which keeps fake degrees
and the fake-degree matrix inside Z[q] throughout.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from operator import mul

from .polyq import IntPoly, ONE, ZERO, slot_bits
from .weyl import WeylGroupData, WeylType, build


def _set_coords(x, group: WeylGroupData, coords: tuple):
    """Set a character's two attributes once.  Later assignments raise, so
    the cached `values` cannot go stale."""
    if len(coords) != len(group.irrep_labels):
        raise ValueError("coordinate length mismatch")
    object.__setattr__(x, "group", group)
    object.__setattr__(x, "coords", coords)


class VirtualCharacter:
    """Integer coordinates over the irreducibles of `group`; immutable."""

    def __init__(self, group: WeylGroupData, coords: tuple):
        _set_coords(self, group, coords)

    def __setattr__(self, *a):
        raise AttributeError("VirtualCharacter is immutable")

    @cached_property
    def values(self) -> tuple:
        """The character's value on each class, computed once."""
        return tuple(
            sum(map(mul, self.coords, col)) for col in zip(*self.group.char_table)
        )

    def value(self, cls: int) -> int:
        return self.values[cls]

    def __add__(self, other):
        _same_group(self, other)
        return VirtualCharacter(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        _same_group(self, other)
        return VirtualCharacter(
            self.group, tuple(a - b for a, b in zip(self.coords, other.coords))
        )


class GradedCharacter:
    """IntPoly coordinates over the irreducibles of `group`; immutable."""

    def __init__(self, group: WeylGroupData, coords: tuple):
        _set_coords(self, group, coords)

    def __setattr__(self, *a):
        raise AttributeError("GradedCharacter is immutable")

    @cached_property
    def values(self) -> tuple:
        """The character's value on each class, computed once, degree by degree."""
        top = max((len(c.coeffs) for c in self.coords), default=0)
        by_degree = [[c[d] for c in self.coords] for d in range(top)]
        return tuple(
            IntPoly([sum(map(mul, cd, col)) for cd in by_degree])
            for col in zip(*self.group.char_table)
        )

    def value(self, cls: int) -> IntPoly:
        return self.values[cls]

    def negate_q(self) -> "GradedCharacter":
        return GradedCharacter(self.group, tuple(c.negate_q() for c in self.coords))


def _same_group(a, b):
    if a.group is not b.group:
        raise ValueError("characters live on different groups")


def irreducible(g: WeylGroupData, i: int) -> VirtualCharacter:
    coords = [0] * len(g.irrep_labels)
    coords[i] = 1
    return VirtualCharacter(g, tuple(coords))


def graded_irreducible(g: WeylGroupData, i: int) -> GradedCharacter:
    coords = [ZERO] * len(g.irrep_labels)
    coords[i] = ONE
    return GradedCharacter(g, tuple(coords))


# ---------------------------------------------------------------------------
# pairings


def _packed(v, b: int) -> int:
    """A class value (int or IntPoly) at q = 2^b."""
    return v.pack(b) if isinstance(v, IntPoly) else v


def _norm_inf(v) -> int:
    return v.norm_inf() if isinstance(v, IntPoly) else abs(v)


def _norm1(v) -> int:
    return v.norm1() if isinstance(v, IntPoly) else abs(v)


def _class_gram(g: WeylGroupData, rows_a, rows_b, weight) -> list:
    """Matrix of (1/|W|) sum_k |C_k| a(w_k) b(w_k) weight_k, a in rows_a, b in rows_b.

    Each row, and the weight, lists one value per class, an int or an IntPoly.
    Entries are IntPolys if any value is one, else ints.  Integer sums are one
    dot product over the classes per entry.  Graded sums are the same, on
    values packed at q = 2^b (`IntPoly.pack`): |C_k| weight_k is packed with
    each b-side row once, and an entry is one big-integer dot product,
    unpacked once.  The slot width b comes from the bound
    sum_k |C_k| |a_k|_inf |b_k|_1 |weight_k|_1 on every coefficient.  When
    rows_a is rows_b the Gram is symmetric: only the entries with j >= i are
    summed, and the rest mirrored.  A sum not divisible by |W| means the rows
    are not virtual characters and raises ArithmeticError.
    """
    symmetric = rows_a is rows_b
    graded = any(isinstance(v, IntPoly) for v in chain(weight, *rows_a, *rows_b))
    sizes = [cls.size for cls in g.classes]
    if graded:
        sup_a = [max(map(_norm_inf, col)) for col in zip(*rows_a)]
        one_b = [max(map(_norm1, col)) for col in zip(*rows_b)]
        bound = sum(map(mul, map(mul, sizes, sup_a), map(mul, one_b, map(_norm1, weight))))
        b = slot_bits(bound)
        sized = [s * _packed(w, b) for s, w in zip(sizes, weight)]
        rows_a = [[_packed(v, b) for v in row] for row in rows_a]
        rows_b = rows_a if symmetric else [[_packed(v, b) for v in row] for row in rows_b]
    else:
        sized = list(map(mul, sizes, weight))
    weighted_b = [list(map(mul, sized, row)) for row in rows_b]
    gram = []
    for i, row in enumerate(rows_a):
        gram_row = [gram[j][i] for j in range(i)] if symmetric else []
        for bw in weighted_b[len(gram_row):]:
            total = sum(map(mul, row, bw))
            if graded:
                poly = IntPoly.unpack(total, b)
                if not poly.divisible_int(g.order):
                    raise ArithmeticError(
                        f"class sums {list(poly.coeffs)} not divisible by |W| = {g.order}"
                    )
                gram_row.append(poly.divexact_int(g.order))
            else:
                if total % g.order:
                    raise ArithmeticError(
                        f"class sums {[total]} not divisible by |W| = {g.order}"
                    )
                gram_row.append(total // g.order)
        gram.append(gram_row)
    return gram


def _pair(a, b, weight):
    _same_group(a, b)
    return _class_gram(a.group, [a.values], [b.values], weight)[0][0]


def _det_values(g: WeylGroupData, q0: int) -> list:
    """det_V(1 - q0 w) on each class."""
    return [p.eval(q0) for p in g.refl_charpoly]


def std_pairing(a: VirtualCharacter, b: VirtualCharacter) -> int:
    return _pair(a, b, [1] * len(a.group.classes))


def q_elliptic_pairing(a: GradedCharacter, b: GradedCharacter) -> IntPoly:
    """<a, b>^q = (1/|W|) sum size * a(w) * b(w) * det_V(1 - q w).

    Via the Koszul resolution this is also the graded Euler-Poincare pairing
    of graded modules over C[W] smashed with the polynomial ring on V, so no
    separate homological computation is provided.
    """
    return _pair(a, b, a.group.refl_charpoly)


def q_elliptic_gram(g: WeylGroupData) -> list:
    """The q-elliptic pairings of all pairs of irreducibles, in irrep order."""
    return _class_gram(g, g.char_table, g.char_table, g.refl_charpoly)


def minus_one_pairing(a: VirtualCharacter, b: VirtualCharacter) -> int:
    """The q-elliptic pairing at q = -1, i.e. weighted by det_V(1 + w)."""
    return _pair(a, b, _det_values(a.group, -1))


def one_pairing(a: VirtualCharacter, b: VirtualCharacter) -> int:
    """The q-elliptic pairing at q = 1 (weighted by det_V(1 - w))."""
    return _pair(a, b, _det_values(a.group, 1))


# brute-force oracles over group elements, for cross-checks at small rank
def std_pairing_elements(a: VirtualCharacter, b: VirtualCharacter) -> int:
    g = a.group
    total = 0
    for w in g.elements():
        k = g.class_of(w)
        total += a.value(k) * b.value(k)
    assert total % g.order == 0
    return total // g.order


def q_elliptic_pairing_elements(a: GradedCharacter, b: GradedCharacter) -> IntPoly:
    g = a.group
    acc = ZERO
    for w in g.elements():
        k = g.class_of(w)
        acc = acc + a.value(k) * b.value(k) * g.refl_charpoly[k]
    return acc.divexact_int(g.order)


# ---------------------------------------------------------------------------
# coinvariant algebra, fake degrees


def poincare_poly(g: WeylGroupData) -> IntPoly:
    p = ONE
    for m in g.degrees:
        p = p * IntPoly((1,) + (0,) * (m - 1) + (-1,))
    return p


@lru_cache(maxsize=None)
def _coinvariant_values(t: WeylType):
    """Graded character of the coinvariant algebra, one IntPoly per class."""
    g = build(t)
    p = poincare_poly(g)
    return tuple(p.divexact(g.refl_charpoly[k]) for k in range(len(g.classes)))


def coinvariant_value(g: WeylGroupData, cls: int) -> IntPoly:
    return _coinvariant_values(g.type)[cls]


@lru_cache(maxsize=None)
def _fake_degrees(t: WeylType):
    g = build(t)
    ones = [1] * len(g.classes)
    gram = _class_gram(g, g.char_table, [ones], _coinvariant_values(t))
    return tuple(row[0] for row in gram)


def fake_degree(g: WeylGroupData, irrep: int) -> IntPoly:
    """Graded multiplicity of an irreducible in the coinvariant algebra."""
    return _fake_degrees(g.type)[irrep]


def coinvariant_character(g: WeylGroupData) -> GradedCharacter:
    return GradedCharacter(
        g, tuple(fake_degree(g, i) for i in range(len(g.irrep_labels)))
    )


@lru_cache(maxsize=None)
def _omega_rows(t: WeylType):
    g = build(t)
    gram = _class_gram(g, g.char_table, g.char_table, _coinvariant_values(t))
    return tuple(map(tuple, gram))


def omega_entry(g: WeylGroupData, i: int, j: int) -> IntPoly:
    return _omega_rows(g.type)[i][j]


def omega_matrix(g: WeylGroupData) -> tuple:
    """Symmetric matrix of graded multiplicities of tensor squares in the
    coinvariant algebra, as rows of IntPolys; row/column order follows the
    irrep list."""
    return _omega_rows(g.type)


def chevalley_failure(g: WeylGroupData):
    """The first class where the coinvariant character times det_V(1-qw)
    differs from p(q), or None."""
    p = poincare_poly(g)
    x1 = coinvariant_character(g)
    return next(
        (k for k in range(len(g.classes)) if x1.value(k) * g.refl_charpoly[k] != p),
        None,
    )


# ---------------------------------------------------------------------------
# (-1)-elliptic and twisted pairings


def minus_one_gram(g: WeylGroupData):
    return _class_gram(g, g.char_table, g.char_table, _det_values(g, -1))


def _int_matrix_rank(rows) -> int:
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def minus_one_gram_rank(g: WeylGroupData) -> int:
    """Rank of the (-1)-elliptic Gram matrix on irreducibles."""
    return _int_matrix_rank(minus_one_gram(g))


def delta_twist_pairing(a: VirtualCharacter, b: VirtualCharacter) -> int:
    """Twisted-character pairing (1/|W|) sum a(ww0) b(ww0) det_V(1 - w delta).

    Computed by the substitution u = w w0, which turns it into the
    (-1)-elliptic pairing; the direct twisted sum is kept in
    delta_twist_pairing_direct as an oracle.
    """
    return minus_one_pairing(a, b)


def delta_twist_pairing_direct(a: VirtualCharacter, b: VirtualCharacter) -> int:
    """Sum over elements of a(ww0) b(ww0) det_V(1 - w delta), no substitution."""
    _same_group(a, b)
    g = a.group
    total = 0
    for w in g.elements():
        ww0 = g.mul(w, g.w0)
        k = g.class_of(ww0)
        # det_V(1 - w delta) with delta = -w0 on V equals det_V(1 + w w0)
        d = g.refl_charpoly[k].eval(-1)
        if d:
            total += a.value(k) * b.value(k) * d
    assert total % g.order == 0
    return total // g.order


def delta_twist_grams_agree(g: WeylGroupData) -> bool:
    """Entrywise agreement of the twisted and (-1)-elliptic Gram matrices."""
    gram = minus_one_gram(g)
    n = len(g.irrep_labels)
    return all(
        delta_twist_pairing_direct(irreducible(g, i), irreducible(g, j)) == gram[i][j]
        for i in range(n)
        for j in range(i, n)
    )
