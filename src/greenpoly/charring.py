"""Virtual and graded characters of a Weyl group and their pairings.

Every pairing here is one class sum, (1/|W|) sum_k |C_k| a(w_k) b(w_k) c_k(q),
with a per-class weight c: 1 for the standard pairing, det_V(1 - q w) for the
q-elliptic pairing, its values at q = +-1 for the (+-1)-elliptic pairings, and
the coinvariant-algebra class function p(q)/det_V(1 - q w) for fake degrees
and Omega.  All of them go through `_class_gram`, on integers packed by
Kronecker substitution, in one of two layouts.  The packed store `ClassRows`
packs each polynomial class value into one integer f(2^b) and takes each
entry as one integer dot product over the classes; the solver keeps its
columns in one and pairs the irreducibles against each column once, and
`_class_gram` pairs two lists of rows with a one-shot store.  The Gram of
the character table with itself (the q-elliptic, (-1)-elliptic and Omega
Grams) is row-packed instead (`_row_gram`): each class column is packed
over the irreducibles, so one integer dot product per row and weight degree
gives that row's entries at once, with no pairing unpacked alone.  The
brute-force sums over group elements are test oracles.  The coinvariant
class function is an integer polynomial for every w, which keeps fake
degrees and the fake-degree matrix inside Z[q] throughout.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from operator import add, mul, sub

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


class ClassRows:
    """Rows of class values, kept packed for the class-sum pairings of one weight.

    A row lists `lead` carried values, which take part in `combine` but not
    in pairings, and then one value per class, each an int or an IntPoly.
    A pairing takes one of the `probes`, rows given up front and not
    stored, and a stored row.  The store keeps one slot width b, which only
    grows.  It tracks, per position, the largest |coefficient| of a stored
    row, and per class k the largest |.|_1 one_k of a stored row and the
    largest |coefficient| reach_k of a probe.  From these,
    sum_k |C_k| reach_k one_k |weight_k|_1 bounds every pairing
    coefficient.  When the bound outgrows b, b becomes max(needed, 2b) and
    every row is packed again, so a row is repacked O(log) times however
    many rows follow.  Each row is kept packed at q = 2^b (`IntPoly.pack`), and its
    class part also times |C_k| weight_k(2^b), so a pairing is one integer
    dot product over the classes, tested for zero before it is unpacked.
    Ungraded rows and weights need no width: their packed form is the row.
    """

    def __init__(self, g: WeylGroupData, weight, graded: bool, probes=(), lead=0):
        self.order = g.order
        self.sizes = [cls.size for cls in g.classes]
        self.weight = weight
        self.graded = graded
        self.lead = lead
        self.b = 0
        self.rows: list = []  # values: lead carried ones, then one per class
        self.packed: list = []  # each row at q = 2^b
        self.weighted: list = []  # class part of each packed row times sized
        self.sized = None if graded else list(map(mul, self.sizes, weight))
        if graded:
            k = len(self.sizes)
            self.weight1 = list(map(_norm1, weight))
            self.reach = [max(map(_norm_inf, col)) for col in zip(*probes)] or [0] * k
            self.top = [0] * (lead + k)
            self.one = [0] * k

    def pack(self, row) -> list:
        """A row at q = 2^b."""
        return [_packed(v, self.b) for v in row]

    def _store(self, packed):
        self.packed.append(packed)
        self.weighted.append(list(map(mul, self.sized, packed[self.lead:])))

    def _fold(self, row):
        self.top = list(map(max, self.top, map(_norm_inf, row)))
        self.one = list(map(max, self.one, map(_norm1, row[self.lead:])))

    def _needed(self) -> int:
        return slot_bits(
            sum(map(mul, map(mul, self.sizes, self.reach), map(mul, self.one, self.weight1)))
        )

    def _grow(self, needed: int):
        """Widen the slots to max(needed, 2b) and pack every row again."""
        self.b = b = max(needed, 2 * self.b)
        self.limit = ((1 << (b - 1)) - 1) // self.order
        self.sized = [s * _packed(w, b) for s, w in zip(self.sizes, self.weight)]
        self.packed, self.weighted = [], []
        for row in self.rows:
            self._store(self.pack(row))

    def extend(self, rows):
        """Store rows, each packed once at the width that holds them all."""
        start = len(self.rows)
        self.rows += rows
        if self.graded:
            for row in rows:
                self._fold(row)
            needed = self._needed()
            if needed > self.b:
                self._grow(needed)
                return
        for row in self.rows[start:]:
            self._store(self.pack(row))

    def combine(self, base, terms) -> list:
        """Store and return the row base - sum c * row_j over (c, j) in terms.

        base lists ints and each c is an IntPoly.  The combination is taken
        on the packed rows, after the width has grown to hold its
        coefficients, which |base_p| + sum |c|_1 top_p bounds; so the integer
        it gives is the new row's packed form, unpacked once and not packed
        again.
        """
        scale = sum(c.norm1() for c, _ in terms)
        needed = slot_bits(max(map(add, map(abs, base), (scale * t for t in self.top))))
        if needed > self.b:
            self._grow(needed)
        b = self.b
        acc = list(base)
        for c, j in terms:
            acc = list(map(sub, acc, map(c.pack(b).__mul__, self.packed[j])))
        row = [IntPoly.unpack(x, b) if x else ZERO for x in acc]
        self.rows.append(row)
        # every value is an IntPoly, so the norms need no type test
        self.top = list(map(max, self.top, map(IntPoly.norm_inf, row)))
        self.one = list(map(max, self.one, map(IntPoly.norm1, row[self.lead:])))
        needed = self._needed()
        if needed > b:
            self._grow(needed)
        else:
            self._store(acc)
        return row

    def pair(self, a, j):
        """(1/|W|) sum_k |C_k| a_k row_j(w_k) weight_k for a packed class row a.

        A graded sum is divided by |W| before it is unpacked.  Its
        coefficients are signed digits below 2^(b-1), which are unique, so
        all of them are divisible exactly when |W| divides the packed sum
        and the digits of the quotient are at most (2^(b-1) - 1)/|W|.
        """
        total = sum(map(mul, a, self.weighted[j]))
        if not self.graded:
            return _over_order(total, self.order)
        if not total:
            return ZERO
        quo, rem = divmod(total, self.order)
        if not rem:
            entry = IntPoly.unpack(quo, self.b)
            if entry.norm_inf() <= self.limit:
                return entry
        return _over_order(IntPoly.unpack(total, self.b), self.order)


def _over_order(total, order: int):
    """A class sum (an int or an IntPoly) divided by |W|; a sum that |W| does
    not divide means the rows were not virtual characters."""
    if isinstance(total, IntPoly):
        if not total.divisible_int(order):
            raise ArithmeticError(f"class sums {list(total.coeffs)} not divisible by |W| = {order}")
        return total.divexact_int(order)
    if total % order:
        raise ArithmeticError(f"class sums {[total]} not divisible by |W| = {order}")
    return total // order


def _signed_chunks(u: int, width: int, count: int) -> list:
    """The count signed digits of u in base 2^width, lowest first, each of
    absolute value below 2^(width - 1), split off by halves: repeated shifts
    by one digit would take time quadratic in the length of u."""
    if count == 1:
        return [u]
    half = count // 2
    cut = width * half
    low, high = u & ((1 << cut) - 1), u >> cut
    if low >> (cut - 1):
        low -= 1 << cut
        high += 1
    return _signed_chunks(low, width, half) + _signed_chunks(high, width, count - half)


def _row_gram(g: WeylGroupData, rows, weight) -> list:
    """The symmetric Gram (1/|W|) sum_k |C_k| x_i(w_k) x_j(w_k) weight_k of
    integer rows x (a character table), one packed dot product per row.

    Each entry is a polynomial of s slots of B bits, one per weight degree.
    Class k is packed once, S_k = |C_k| weight_k(2^B) sum_j x_j(w_k) 2^(s B j),
    so that sum_k x_i(w_k) S_k is sum_j |W| G_ij(2^B) 2^(s B j).  B is
    `slot_bits` of sum_k |C_k| max_j x_j(w_k)^2 |weight_k|_inf, which bounds
    every coefficient.  The entries j < i sum to less than 2^(s B i - 1) in
    absolute value, so a shift by s B i, rounded, drops them and leaves u,
    the entries j >= i.  Signed digits below 2^(B - 1) are unique, so every
    coefficient in u is divisible by |W| exactly when |W| divides u and the
    digits of u / |W| are at most (2^(B - 1) - 1) / |W|; those digits are the
    entries, which are mirrored.  Otherwise the first entry with a
    coefficient |W| does not divide raises ArithmeticError (`_over_order`).
    """
    n, order = len(rows), g.order
    graded = any(isinstance(w, IntPoly) for w in weight)
    slots = max([1] + [len(w.coeffs) for w in weight if isinstance(w, IntPoly)])
    cols = list(zip(*rows))
    b = slot_bits(sum(
        cls.size * max(map(abs, col)) ** 2 * _norm_inf(w)
        for cls, col, w in zip(g.classes, cols, weight)
    ))
    stride = slots * b
    limit = ((1 << (b - 1)) - 1) // order
    packed = [
        cls.size * _packed(w, b) * IntPoly(col).pack(stride)
        for cls, col, w in zip(g.classes, cols, weight)
    ]

    def entries(u, count):
        chunks = _signed_chunks(u, stride, count)
        return [IntPoly.unpack(c, b) for c in chunks] if graded else chunks

    gram = [[None] * n for _ in range(n)]
    for i, row in enumerate(rows):
        shift = stride * i
        u = (sum(map(mul, row, packed)) + ((1 << shift) >> 1)) >> shift
        quo, rem = divmod(u, order)
        row_i = entries(quo, n - i)
        if rem or max(map(_norm_inf, row_i)) > limit:
            for entry in entries(u, n - i):
                _over_order(entry, order)
        for j, entry in enumerate(row_i, i):
            gram[i][j] = gram[j][i] = entry
    return gram


def _class_gram(g: WeylGroupData, rows_a, rows_b, weight) -> list:
    """Matrix of (1/|W|) sum_k |C_k| a(w_k) b(w_k) weight_k, a in rows_a, b in rows_b.

    Each row, and the weight, lists one value per class, an int or an IntPoly.
    Entries are IntPolys if any value is one, else ints.  When rows_a is
    rows_b the Gram is symmetric and the rows must hold ints: `_row_gram`
    takes it one packed row at a time.  Otherwise it is a one-shot
    `ClassRows` holding rows_b, with rows_a as its probes: every row is
    packed once, at the exact width `slot_bits` of the bound
    sum_k |C_k| |a_k|_inf |b_k|_1 |weight_k|_1 on every coefficient, and
    each entry is one integer dot product over the classes.  A sum not
    divisible by |W| means the rows are not virtual characters and raises
    ArithmeticError.
    """
    if rows_a is rows_b:
        return _row_gram(g, rows_a, weight)
    graded = any(isinstance(v, IntPoly) for v in chain(weight, *rows_a, *rows_b))
    store = ClassRows(g, weight, graded, probes=rows_a)
    store.extend(rows_b)
    js = range(len(rows_b))
    return [[store.pair(a, j) for j in js] for a in map(store.pack, rows_a)]


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
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    A column with no pivot left is skipped.  After each pivot every entry
    below it is a minor of the original matrix, so the division by the
    previous pivot is exact and everything stays in Z.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p, top = m[r][c], m[r][c:]
        for i in range(r + 1, len(m)):
            a = m[i][c]
            m[i][c:] = [(p * x - a * y) // prev for x, y in zip(m[i][c:], top)]
        prev = p
        r += 1
    return r


def minus_one_gram_rank(g: WeylGroupData) -> int:
    """Rank of the (-1)-elliptic Gram matrix on irreducibles."""
    return _int_matrix_rank(minus_one_gram(g))


def delta_twist_pairing(a: VirtualCharacter, b: VirtualCharacter) -> int:
    """Twisted-character pairing (1/|W|) sum a(ww0) b(ww0) det_V(1 - w delta).

    Computed by the substitution u = w w0, which turns it into the
    (-1)-elliptic pairing; the tests keep the direct twisted sum over group
    elements as an oracle.
    """
    return minus_one_pairing(a, b)
