"""Virtual and graded characters of a Weyl group and their pairings.

Every pairing here is one class sum, (1/|W|) sum_k |C_k| a(w_k) b(w_k) c_k(q),
with a per-class weight c: 1 for the standard pairing, det_V(1 - q w) for the
q-elliptic pairing, its values at q = +-1 for the (+-1)-elliptic pairings, and
the coinvariant-algebra class function p(q)/det_V(1 - q w) for fake degrees
and Omega.  All of them go through `_class_gram`, on integers packed by
Kronecker substitution, in one of two layouts.  The one-shot store
`ClassRows` packs each polynomial class value of two lists of rows into one
integer f(2^b) and takes each entry as one integer dot product over the
classes.  The Gram of the character table with itself (the q-elliptic,
(-1)-elliptic and Omega Grams, and Omega at one integer point for the
solver's check) is row-packed instead (`_row_gram`): each class column is
packed over the irreducibles, so one integer dot product per row and weight
degree gives that row's entries at once, with no pairing unpacked alone.
The q-elliptic Gram of the irreducibles is kept per type: by bilinearity it
gives the solver every pairing of a Green column, so the solver takes no
class sum of its own.  The brute-force sums over group elements are test
oracles.  The coinvariant class function is an integer polynomial for every
w, which keeps fake degrees and the fake-degree matrix inside Z[q]
throughout.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from operator import mul

from .polyq import IntPoly, ONE, ZERO, byte_width, pack_ints, slot_bits, split_ints
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
        """The character's value on each class, computed once.  The
        coordinates are packed at q = 2^b, with b holding
        sum_a |coord_a|_inf max_k |chi_a(w_k)|, so each value is one integer
        dot product with a column of the character table, unpacked once."""
        table = self.group.char_table
        b = slot_bits(sum(c.norm_inf() * max(map(abs, row)) for c, row in zip(self.coords, table)))
        packed = [c.pack(b) for c in self.coords]
        return tuple(IntPoly.unpack(sum(map(mul, packed, col)), b) for col in zip(*table))

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
    """Rows of class values, packed once for the class-sum pairings of one weight.

    Each row lists one value per class, an int or an IntPoly.  A pairing
    takes one of the `probes`, rows given up front and not stored, and one
    of the stored `rows`.  Graded rows or weights are packed at one slot
    width b, `slot_bits` of sum_k |C_k| reach_k one_k |weight_k|_1, where
    reach_k is the largest |coefficient| of a probe on class k and one_k the
    largest |.|_1 of a stored row there; that bounds every pairing
    coefficient.  Each stored row is kept packed at q = 2^b (`IntPoly.pack`)
    and times |C_k| weight_k(2^b), so a pairing is one integer dot product
    over the classes, tested for zero before it is unpacked.  Ungraded rows
    and weights need no width: their packed form is the row.
    """

    def __init__(self, g: WeylGroupData, weight, rows, probes):
        self.order = g.order
        sizes = [cls.size for cls in g.classes]
        self.graded = any(isinstance(v, IntPoly) for v in chain(weight, *rows, *probes))
        self.b = b = 0
        if self.graded:
            reach = [max(map(_norm_inf, col)) for col in zip(*probes)]
            one = [max(map(_norm1, col)) for col in zip(*rows)]
            self.b = b = slot_bits(
                sum(map(mul, map(mul, sizes, reach), map(mul, one, map(_norm1, weight))))
            )
            self.limit = ((1 << (b - 1)) - 1) // self.order
        sized = [s * _packed(w, b) for s, w in zip(sizes, weight)]
        self.weighted = [list(map(mul, sized, self.pack(row))) for row in rows]

    def pack(self, row) -> list:
        """A row at q = 2^b."""
        return [_packed(v, self.b) for v in row]

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


def _row_gram(g: WeylGroupData, rows, weight) -> list:
    """The symmetric Gram (1/|W|) sum_k |C_k| x_i(w_k) x_j(w_k) weight_k of
    integer rows x (a character table), one packed dot product per row.

    Each entry is a polynomial of s slots of b bits, one per weight degree,
    where b is `slot_bits` of sum_k |C_k| max_j x_j(w_k)^2 |weight_k|_inf,
    which bounds every coefficient.  Entries lie S = s b bits apart, rounded
    up to a whole byte, so that a column packs and a row splits in linear
    time (`pack_ints`, `split_ints`).  Class k is packed once,
    P_k = |C_k| weight_k(2^b) sum_j x_j(w_k) 2^(S j), so that
    sum_k x_i(w_k) P_k, taken over the classes where x_i is nonzero, is
    sum_j |W| G_ij(2^b) 2^(S j).  The entries j < i sum to less than
    2^(S i - 1) in absolute value, so a shift by S i, rounded, drops them and
    leaves u, the entries j >= i.  When |W| divides u, the quotient splits
    into one signed slot per entry j >= i.  If every nonzero slot unpacks
    into at most s signed base-2^b digits of at most (2^(b - 1) - 1) / |W|,
    then |W| times each slot lies within its slot, so by the uniqueness of
    signed digits it is the class sum there: the slots are the entries at
    2^b, and are mirrored.  A zero slot is the entry 0 and is not unpacked.
    Otherwise the row's class sums are taken again one entry at a time, and
    the first with a coefficient |W| does not divide raises ArithmeticError
    (`_over_order`).
    """
    n, order = len(rows), g.order
    graded = any(isinstance(w, IntPoly) for w in weight)
    slots = max([1] + [len(w.coeffs) for w in weight if isinstance(w, IntPoly)])
    cols = list(zip(*rows))
    b = slot_bits(sum(
        cls.size * max(map(abs, col)) ** 2 * _norm_inf(w)
        for cls, col, w in zip(g.classes, cols, weight)
    ))
    stride = byte_width(slots * b)
    limit = ((1 << (b - 1)) - 1) // order
    sized = [cls.size * _packed(w, b) for cls, w in zip(g.classes, weight)]
    packed = [sz * pack_ints(col, stride) for sz, col in zip(sized, cols)]
    if graded:
        def entry(d):
            return IntPoly.unpack(d, b) if d else ZERO

        def fits(e):
            return len(e.coeffs) <= slots and e.norm_inf() <= limit
    else:
        def entry(d):
            return d

        def fits(e):
            return abs(e) <= limit

    gram = [[None] * n for _ in range(n)]
    for i, row in enumerate(rows):
        shift = stride * i
        total = sum([x * p for x, p in zip(row, packed) if x])
        quo, rem = divmod((total + ((1 << shift) >> 1)) >> shift, order)
        digits = None if rem else split_ints(quo, stride, n - i)
        row_i = None if digits is None else list(map(entry, digits))
        if row_i is None or not all(fits(e) for e in row_i if e):
            for other in rows[i:]:
                _over_order(entry(sum(map(mul, map(mul, row, other), sized))), order)
        for j, e in enumerate(row_i, i):
            gram[i][j] = gram[j][i] = e
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
    store = ClassRows(g, weight, rows_b, probes=rows_a)
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


@lru_cache(maxsize=None)
def _qell_rows(t: WeylType):
    g = build(t)
    return tuple(map(tuple, _row_gram(g, g.char_table, g.refl_charpoly)))


def q_elliptic_gram(g: WeylGroupData) -> list:
    """The q-elliptic pairings of all pairs of irreducibles, in irrep order,
    as fresh lists."""
    return [list(row) for row in _qell_rows(g.type)]


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
