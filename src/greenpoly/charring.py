"""Virtual and graded characters of a Weyl group and their pairings.

Every pairing here is one class sum, (1/|W|) sum_k |C_k| a(w_k) b(w_k) c_k(q),
with a per-class weight c: det_V(1 - q w) for the q-elliptic pairing, its
value at q = -1 for the (-1)-elliptic pairing, and the coinvariant-algebra
class function p(q)/det_V(1 - q w) for fake degrees and Omega.  All of them
go through one kernel, `_class_gram`, on integers packed by Kronecker
substitution: each class column of the right-hand rows is packed over those
rows once, so one integer dot product per left-hand row gives that row's
entries at once, with no pairing unpacked alone.  A Gram of irreducibles
with themselves (the q-elliptic and (-1)-elliptic Grams, and Omega at one
integer point, `omega_at`, for the solver's check) takes the class sums of
one row per orbit of the twists chi -> chi lambda by the linear characters
lambda of W (`twists`) and fills the other rows of the orbit by permuting
its columns.  That is exact: a linear character of W takes the values +-1
only, so lambda^2 = 1 and each class sum of chi lambda chi' lambda equals
that of chi chi' term by term.  `omega_bound` bounds Omega's coefficients,
so the solver can choose that point.  The q-elliptic
Gram of the irreducibles is kept per type (`qell_rows`): by bilinearity it
gives the solver every pairing of a Green column, and through the solver's
M it gives the spin layer every pairing that layer reports, so neither takes
a class sum of its own.  The standard pairing, the pairing at q = 1, Omega
as polynomials and the brute-force sums over group elements are test
oracles.  The coinvariant class function is an integer polynomial for every
w, which keeps fake degrees and Omega inside Z[q] throughout.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, compress
from operator import mul, neg

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


def _same_group(a, b):
    if a.group is not b.group:
        raise ValueError("characters live on different groups")


# ---------------------------------------------------------------------------
# pairings


def _reach(rows, norm) -> tuple:
    """Per class, the largest norm of a value of the rows there (abs for an
    int); and the most coefficients of one IntPoly value, at least 1, or 0
    when every value is an int."""
    cols = list(zip(*rows))
    counts = [len(v.coeffs) or 1 for v in chain(*rows) if isinstance(v, IntPoly)]
    if not counts:
        return [max(map(abs, col)) for col in cols], 0
    norms = [max(norm(v) if isinstance(v, IntPoly) else abs(v) for v in col) for col in cols]
    return norms, max(counts)


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


@lru_cache(maxsize=None)
def twists(t: WeylType) -> tuple:
    """The permutations i -> pi(i) of the irreducibles of W(t) with
    chi_pi(i) = chi_i lambda, one per linear character lambda, in table
    order; the trivial character gives the identity.  They form a group of
    involutions, of order 2 for A and D and 4 for B, C (rank >= 2) and G2.

    Read off the character table: the linear characters are its rows of
    degree 1, and each twisted row is looked up among the rows.  As lambda
    is +-1, the table twisted by lambda is the table with the columns where
    lambda is -1 negated, so its rows come out of one zip of columns.
    Raises ArithmeticError when a row of degree 1 takes a value other than
    +-1 or a twisted row is not in the table.
    """
    g = build(t)
    table, ident = g.char_table, g.identity_class
    index = {row: i for i, row in enumerate(table)}
    cols = list(zip(*table))
    negated = [tuple(map(neg, col)) for col in cols]
    perms = []
    for lam in table:
        if lam[ident] != 1:
            continue
        if any(v * v != 1 for v in lam):
            raise ArithmeticError(f"linear character {lam} of {t} takes a value other than +-1")
        twisted = zip(*[col if v > 0 else minus for col, minus, v in zip(cols, negated, lam)])
        perm = tuple(map(index.get, twisted))
        if None in perm:
            raise ArithmeticError(f"row {perm.index(None)} of {t} twisted by {lam} is not in the table")
        perms.append(perm)
    return tuple(perms)


def _on_rows(perms, irreps) -> list:
    """The permutations in perms that map the irreducibles irreps onto
    themselves, as permutations of their positions in irreps."""
    at = {a: i for i, a in enumerate(irreps)}
    return [tuple(at[p[a]] for a in irreps) for p in perms if all(p[a] in at for a in irreps)]


def _class_gram(g: WeylGroupData, rows_a, rows_b, weight, perms=()) -> list:
    """Matrix of (1/|W|) sum_k |C_k| a(w_k) b(w_k) weight_k, a in rows_a, b in rows_b.

    Each row, and the weight, lists one value per class, an int or an IntPoly.
    Entries are IntPolys if any value is one, else ints.  An entry is a
    polynomial of s = n_a + n_b + n_w - 2 slots of b bits, where n_a, n_b and
    n_w are the most coefficients of one value of rows_a, rows_b and the
    weight (an int has one), and b is `slot_bits` of
    sum_k |C_k| max_i |a_ik|_1 max_j |b_jk|_1 |weight_k|_inf, which bounds
    every coefficient.  A class whose term in that sum is 0 adds nothing to
    any entry and is left out.  Entries lie S = s b bits apart, rounded up to
    a whole byte, so that a column packs and a row splits in time linear in
    its length (`pack_ints`, `split_ints`).  Class k is packed once, each
    value at q = 2^b, as P_k = |C_k| weight_k(2^b) sum_j b_j(w_k) 2^(S j), so
    that sum_k a_i(w_k) P_k, taken over the classes where a_i is nonzero, is
    sum_j |W| G_ij(2^b) 2^(S j).

    perms lists involutions pi of the row indices under which the Gram is
    invariant, G[pi i][pi j] = G[i][j]; each acts on rows_a and rows_b
    alike, so it is given only when rows_b lists the same characters as
    rows_a.  For the irreducibles those are the twists chi -> chi lambda by
    the linear characters lambda of W (`twists`): lambda takes the values
    +-1 only, so lambda(w)^2 = 1 and the class sum of chi lambda chi' lambda
    is the class sum of chi chi', term by term, whatever the weight.  The
    class sums are taken for the first row of each orbit, over every column,
    and row pi i is filled from row i as G[pi i][j] = G[i][pi j]: the B6
    q-elliptic Gram takes 19 of its 65 rows.  With no perms every row is
    taken.

    When |W| divides u, the row's sum, the quotient splits into one signed
    slot per entry.  If every nonzero slot unpacks into at most s signed
    base-2^b digits of at most (2^(b - 1) - 1) / |W|, then |W| times each
    slot lies within its slot, so by the uniqueness of signed digits it is
    the class sum there: the slots are the entries at 2^b.  A zero slot is
    the entry 0 and is not unpacked.  That test depends only on the slot's
    value (b, s and |W| are fixed for the call), so each distinct value of a
    graded Gram is unpacked and tested once, however many slots hold it, and
    every slot that holds it, in a taken or a filled row, is the one entry
    object: the B6 q-elliptic Gram has 31 distinct nonzero values.
    Otherwise the row's class sums are taken again one entry at a time, and
    the first with a coefficient |W| does not divide raises ArithmeticError
    (`_over_order`): the rows were not virtual characters.
    """
    order, same = g.order, rows_a is rows_b
    reach_a, n_a = _reach(rows_a, IntPoly.norm1)
    reach_b, n_b = (reach_a, n_a) if same else _reach(rows_b, IntPoly.norm1)
    reach_w, n_w = _reach([weight], IntPoly.norm_inf)
    terms = [cls.size * x * y * z for cls, x, y, z in zip(g.classes, reach_a, reach_b, reach_w)]
    b = slot_bits(sum(terms))
    slots = max(n_a, 1) + max(n_b, 1) + max(n_w, 1) - 2
    stride = byte_width(slots * b)
    limit = ((1 << (b - 1)) - 1) // order

    def live(row, graded) -> list:
        """A row's values on the classes with a nonzero term, at q = 2^b."""
        values = compress(row, terms)
        if not graded:
            return list(values)
        return [v.pack(b) if isinstance(v, IntPoly) else v for v in values]

    live_a = [live(row, n_a) for row in rows_a]
    live_b = live_a if same else [live(row, n_b) for row in rows_b]
    sized = [cls.size * w for cls, w in zip(compress(g.classes, terms), live(weight, n_w))]
    packed = [sz * pack_ints(col, stride) for sz, col in zip(sized, zip(*live_b))]
    if n_a or n_b or n_w:
        def entry(d):
            return IntPoly.unpack(d, b) if d else ZERO

        fitted = {0: ZERO}  # slot value -> its entry, or None if it does not fit

        def entries(digits):
            values = set(digits)
            for d in values.difference(fitted):
                e = entry(d)
                fitted[d] = e if len(e.coeffs) <= slots and e.norm_inf() <= limit else None
            if any(fitted[d] is None for d in values):
                return None
            return list(map(fitted.__getitem__, digits))
    else:
        def entry(d):
            return d

        def entries(digits):
            return digits if all(abs(e) <= limit for e in digits if e) else None

    gram = [None] * len(live_a)
    for i, a in enumerate(live_a):
        if gram[i] is not None:
            continue
        total = sum([x * p for x, p in zip(a, packed) if x])
        quo, rem = divmod(total, order)
        digits = None if rem else split_ints(quo, stride, len(live_b))
        row = None if digits is None else entries(digits)
        if row is None:
            row = [_over_order(entry(sum(map(mul, map(mul, a, other), sized))), order)
                   for other in live_b]
        gram[i] = row
        for p in perms:
            if gram[p[i]] is None:
                gram[p[i]] = list(map(row.__getitem__, p))
    return gram


def _pair(a, b, weight):
    _same_group(a, b)
    return _class_gram(a.group, [a.values], [b.values], weight)[0][0]


def _det_values(g: WeylGroupData, q0: int) -> list:
    """det_V(1 - q0 w) on each class."""
    return [p.eval(q0) for p in g.refl_charpoly]


def q_elliptic_pairing(a: GradedCharacter, b: GradedCharacter) -> IntPoly:
    """<a, b>^q = (1/|W|) sum size * a(w) * b(w) * det_V(1 - q w).

    Via the Koszul resolution this is also the graded Euler-Poincare pairing
    of graded modules over C[W] smashed with the polynomial ring on V, so no
    separate homological computation is provided.
    """
    return _pair(a, b, a.group.refl_charpoly)


@lru_cache(maxsize=None)
def qell_rows(t: WeylType) -> tuple:
    """The q-elliptic pairings of all pairs of irreducibles of W(t), in irrep
    order, as rows of IntPolys; taken once per type and shared, so the rows
    are tuples."""
    g = build(t)
    return tuple(map(tuple, _class_gram(g, g.char_table, g.char_table, g.refl_charpoly, twists(t))))


def minus_one_pairing(a: VirtualCharacter, b: VirtualCharacter) -> int:
    """The q-elliptic pairing at q = -1, i.e. weighted by det_V(1 + w)."""
    return _pair(a, b, _det_values(a.group, -1))


# ---------------------------------------------------------------------------
# coinvariant algebra, fake degrees


def poincare_poly(g: WeylGroupData) -> IntPoly:
    p = ONE
    for m in g.degrees:
        p = p * IntPoly((1,) + (0,) * (m - 1) + (-1,))
    return p


@lru_cache(maxsize=None)
def _coinvariant_values(t: WeylType):
    """Graded character of the coinvariant algebra, one IntPoly per class:
    p(q)/det_V(1 - qw), by one integer division at q = 2^b.

    Its coefficients are traces of w on the graded pieces, so none exceeds
    top, the largest coefficient at the identity, in absolute value.  A
    det_V(1 - qw) has |.|_1 <= 2^rank, so for a quotient v with |v|_inf <= top,
    v det - p has coefficients below 2^(b - 1) for b = slot_bits(top 2^rank +
    |p|_inf).  When p(2^b) = v(2^b) det(2^b) for the v unpacked from the
    integer quotient, v det - p vanishes at 2^b and so, by the uniqueness of
    signed digits, everywhere: v is the exact quotient.  A class that fails
    the test raises ArithmeticError: its det_V(1 - qw) does not divide p.
    """
    g = build(t)
    p = poincare_poly(g)
    top = p.divexact(g.refl_charpoly[g.identity_class]).norm_inf()
    b = slot_bits((top << t.rank) + p.norm_inf())
    at = p.pack(b)

    def quotient(cls, det: IntPoly) -> IntPoly:
        quo, rem = divmod(at, det.pack(b))
        v = IntPoly.unpack(quo, b)
        if rem or v.norm_inf() > top:
            raise ArithmeticError(
                f"class {cls.label}: p(q)/det_V(1 - qw) for det = {det} is not a "
                f"polynomial with coefficients at most {top}"
            )
        return v

    return tuple(map(quotient, g.classes, g.refl_charpoly))


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


def omega_at(g: WeylGroupData, irreps, b: int) -> list:
    """Omega, the graded multiplicities of the tensor products chi_i chi_j in
    the coinvariant algebra, for i, j in irreps, at q = 2^b, as integers: one
    class-sum Gram of those character rows with themselves with the integer
    weights c_k(2^b), so no polynomial entry of Omega is formed.  The twists
    that map irreps onto themselves (all of them for the pairs of a Springer
    table that covers every irreducible) fill each orbit's rows from one."""
    rows = [g.char_table[a] for a in irreps]
    weight = [c.pack(b) for c in _coinvariant_values(g.type)]
    return _class_gram(g, rows, rows, weight, _on_rows(twists(g.type), irreps))


def omega_bound(g: WeylGroupData, irreps) -> int:
    """A bound on every coefficient of Omega_ij, i, j in irreps: the class
    sum (1/|W|) sum_k |C_k| chi_i(w_k) chi_j(w_k) c_k(q) has coefficients at
    most sum_k |C_k| max_a chi_a(w_k)^2 |c_k|_inf // |W|, a over irreps."""
    cols = zip(*(g.char_table[a] for a in irreps))
    return sum(
        cls.size * max(map(abs, col)) ** 2 * c.norm_inf()
        for cls, col, c in zip(g.classes, cols, _coinvariant_values(g.type))
    ) // g.order


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
    return _class_gram(g, g.char_table, g.char_table, _det_values(g, -1), twists(g.type))


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
