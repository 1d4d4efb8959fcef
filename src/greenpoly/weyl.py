"""Finite Weyl group models for types A, B/C, D and G2.

Every element is a signed permutation w of 1..m, the tuple (w(1), ..., w(m))
with entries +-1..+-m, acting on the ambient R^m by e_j -> sign(w(j)) e_|w(j)|.
m is the rank for B/C/D, whose groups are all signed permutations (B/C) and
those with an even number of sign changes (D); rank + 1 for A_r, whose group
is the permutations S_{r+1}; and 3 for G2, whose group S_3 x {+-1} acts on
the plane x1 + x2 + x3 = 0.  Conjugacy classes come in closed form from their
labels, with no enumeration of the group: cycle types for A; signed cycle
types (mu+, mu-) for B/C, of size 2^n n!/z; for D the labels with an even
number of negative cycles, where a label with mu- empty and all parts of mu+
even splits into "+" and "-" halves; and for G2 the pairs (mu, eps) of an S_3
cycle type and a sign, the class of eps sigma for sigma of type mu, named in
`_G2_CLASSES`.  Every class is represented by its lexicographically least
element.  In type A that is the product of cycles on consecutive points,
shortest first (i -> i+1 within each block; A2's class (2,1) is (1,3,2)),
and for G2 it is written down from (mu, eps) (`_g2_least`); for B/C/D it is
found by a pruned search (`_lex_elements`) on its first read and then kept,
so `build` reads none.
`class_of` computes an element's label.  `reduced_word` finds descents from
the simple roots of `ambient_simple_roots`, the same roots the pin layer
lifts, and `braid_order` reads the Coxeter exponent m_ij off the angle
between two of them.  `delta_twisted_classes` and `all_elements` enumerate
the whole group; the tests use them as oracles.
Character tables: Murnaghan-Nakayama for A, once per pair {lam, lam^t},
the other row of the pair being that row times sgn; for B/C induced from
the S_k tables (`_bc_column`: each split of a class's cycles adds the outer
product of two S_k columns, one big-integer product of byte-packed columns,
and the packed column is split once; the column at -w is the column at w times
(-1)^|beta|, so of each pair {w, -w} one column is taken), one table per
rank shared by B_n and C_n; for D the same columns restricted, with split
classes; and for G2 the S_3 table times the two characters of the centre.
`build` checks row orthogonality with one packed integer sum per row.
Supported ranks: A 1-11, B and C 1-8, D 3-8.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import comb, factorial, prod
from operator import mul

from .partitions import cycle_type_size, multiplicities, partitions, sym_char, transpose
from .polyq import IntPoly, byte_width, pack_ints, slot_bits, split_ints

SUPPORTED_RANKS = {"A": range(1, 12), "B": range(1, 9), "C": range(1, 9),
                   "D": range(3, 9), "G2": range(2, 3)}


class WeylType:
    """A supported family and rank; immutable and hashable (the `build` key)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in SUPPORTED_RANKS:
            raise ValueError(f"unknown family {family!r}")
        if rank not in SUPPORTED_RANKS[family]:
            raise ValueError(f"unsupported rank {rank} for type {family}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *a):
        raise AttributeError("WeylType is immutable")

    def __eq__(self, other):
        if type(other) is not WeylType:
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"WeylType({self.family!r}, {self.rank!r})"

    def __str__(self):
        return f"{self.family}{self.rank}" if self.family != "G2" else "G2"


class ConjClass:
    def __init__(self, size: int, label, representative=None):
        self.size = size
        self.label = label  # partition / (mu+, mu-) / (mu+, mu-, tag) / G2 name
        if representative is not None:  # types A and G2
            self.representative = representative

    @cached_property
    def representative(self):
        """The least signed permutation of a B/C/D class, found on first read."""
        pos, neg, *tag = self.label
        found = _lex_elements(pos, neg)
        if tag and tag[0]:
            found = (w for w in found if _d_tag(w, pos, neg) == tag[0])
        return next(found)


# ---------------------------------------------------------------------------
# element arithmetic


def sp_mul(u, w):
    """Signed permutations, entries +-1..+-m; (u*w) acts as u after w."""
    out = []
    for x in w:
        y = u[abs(x) - 1]
        out.append(y if x > 0 else -y)
    return tuple(out)


def sp_inv(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[abs(x) - 1] = (i + 1) if x > 0 else -(i + 1)
    return tuple(out)


def _ambient_dim(t: WeylType) -> int:
    """m: the group acts on R^m, and its elements permute and sign 1..m."""
    return {"A": t.rank + 1, "G2": 3}.get(t.family, t.rank)


def identity_element(t: WeylType):
    return tuple(range(1, _ambient_dim(t) + 1))


@lru_cache(maxsize=None)
def simple_generators(t: WeylType) -> tuple:
    """The reflections in the roots of `ambient_simple_roots`, in order."""
    if t.family == "G2":
        return ((2, 1, 3), (-1, -3, -2))  # short and long simple reflections
    n = _ambient_dim(t)
    gens = []
    for i in range(n - 1):
        g = list(range(1, n + 1))
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    if t.family == "A":
        return tuple(gens)
    g = list(range(1, n + 1))
    if t.family == "D":  # reflection in e_{n-1} + e_n
        g[n - 2], g[n - 1] = -n, -(n - 1)
    else:  # B/C: reflection in e_n
        g[n - 1] = -n
    return (*gens, tuple(g))


def all_elements(t: WeylType):
    n = _ambient_dim(t)
    signings = list(itertools.product((1, -1), repeat=n))
    if t.family == "A":
        signings = signings[:1]  # no sign changes
    elif t.family == "G2":
        signings = [signings[0], signings[-1]]  # +-S_3
    elif t.family == "D":
        signings = [s for s in signings if s.count(-1) % 2 == 0]
    return [tuple(s * x for s, x in zip(signs, p))
            for p in itertools.permutations(range(1, n + 1)) for signs in signings]


# ---------------------------------------------------------------------------
# labels and characteristic polynomials


def signed_cycle_type(w):
    """(mu+, mu-): lengths of positive and negative cycles."""
    n = len(w)
    seen = [False] * n
    pos, neg = [], []
    for i in range(n):
        if seen[i]:
            continue
        j, c, sign = i, 0, 1
        while not seen[j]:
            seen[j] = True
            x = w[j]
            if x < 0:
                sign = -sign
            j = abs(x) - 1
            c += 1
        (pos if sign > 0 else neg).append(c)
    return tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True))


# the G2 classes (mu, eps), in table order, by name: -1 acts on the plane as
# the rotation by 180 degrees, so a negated 3-cycle is a rotation by 60
# degrees and a negated transposition a reflection in a long root
_G2_CLASSES = {
    "e": ((1, 1, 1), 1),
    "w0": ((1, 1, 1), -1),
    "rot60": ((3,), -1),
    "rot120": ((3,), 1),
    "refl_long": ((2, 1), -1),
    "refl_short": ((2, 1), 1),
}
_G2_NAMES = {key: name for name, key in _G2_CLASSES.items()}


def charpoly_of_label(t: WeylType, label) -> IntPoly:
    """det_V(1 - q w) for any element with the given class label.

    One integer product at q = 2^b: prod (1 - q^c) over the positive cycles
    and (1 + q^c) over the negative ones (B/C/D), a coefficient of which is
    at most 2^(number of cycles) <= 2^rank, so b = slot_bits(2^rank) =
    rank + 2.  In types A and G2, V is the sum-zero plane of R^(rank + 1),
    and an element eps sigma (eps = 1 in type A) with sigma of cycle type mu
    has det(1 - q eps sigma) = prod (1 - (eps q)^c) over the parts c of mu
    on R^(rank + 1); that product is divided exactly by 1 - eps q, the factor
    of the line (1, ..., 1).  Each coefficient of the quotient is a signed
    sum of the product's, at most 2^(rank + 1), so b = slot_bits(2^(rank + 1))
    = rank + 3.
    """
    if t.family in ("A", "G2"):
        mu, eps = (label, 1) if t.family == "A" else _G2_CLASSES[label]
        signed, b = [(c, eps**c) for c in mu], t.rank + 3
    else:
        signed, b = [(c, 1) for c in label[0]] + [(c, -1) for c in label[1]], t.rank + 2
    out = 1
    for c, sign in signed:
        out *= 1 - sign * (1 << b * c)
    if t.family in ("A", "G2"):
        out //= 1 - eps * (1 << b)
    return IntPoly.unpack(out, b)


# ---------------------------------------------------------------------------
# character tables


@lru_cache(maxsize=None)
def bipartitions(n):
    out = []
    for k in range(n, -1, -1):
        for a in partitions(k):
            for b in partitions(n - k):
                out.append((a, b))
    return tuple(out)


@lru_cache(maxsize=None)
def _sym_column(rho) -> tuple:
    """Every S_k irreducible, in `partitions(k)` order, at the class rho."""
    return tuple(sym_char(lam, rho) for lam in partitions(sum(rho)))


@lru_cache(maxsize=None)
def _bc_width(n: int) -> int:
    """Slot width, in whole bytes, of a packed B_n character column: every
    value has |chi(w)| <= chi(1) < |W| = 2^n n!."""
    return byte_width(slot_bits(2**n * factorial(n)))


@lru_cache(maxsize=None)
def _block_packed(rho, n: int) -> int:
    """The S_k column at rho (k = |rho|), packed as the first factor of an
    outer product in the block |alpha| = k of a packed B_n column: one slot
    per partition alpha of k, spaced by the p(n - k) slots of a block row,
    shifted past the blocks |alpha| > k."""
    k, w = sum(rho), _bc_width(n)
    offset = sum(len(partitions(j)) * len(partitions(n - j)) for j in range(k + 1, n + 1))
    return pack_ints(_sym_column(rho), w * len(partitions(n - k))) << (w * offset)


@lru_cache(maxsize=None)
def _row_packed(rho, n: int) -> int:
    """The S_k column at rho, packed at the slot width of a B_n column."""
    return pack_ints(_sym_column(rho), _bc_width(n))


def _minus_label(pos, neg) -> tuple:
    """The signed cycle type of -w for w of signed cycle type (pos, neg):
    an odd cycle changes sign, an even one keeps it."""
    return (tuple(sorted([c for c in pos if c % 2 == 0] + [c for c in neg if c % 2], reverse=True)),
            tuple(sorted([c for c in neg if c % 2 == 0] + [c for c in pos if c % 2], reverse=True)))


@lru_cache(maxsize=None)
def _beta_signs(n: int) -> tuple:
    """(-1)^|beta| for each B_n irreducible (alpha; beta), in `bipartitions(n)`
    order: the scalar by which -1 acts on it."""
    return tuple(-1 if sum(beta) % 2 else 1 for _, beta in bipartitions(n))


@lru_cache(maxsize=None)
def _bc_column(pos, neg) -> tuple:
    """Every B_n irreducible, in `bipartitions(n)` order, at the class (pos, neg).

    chi^(alpha;beta) is induced from alpha (x) beta on B_|alpha| x B_|beta|,
    with beta twisted by the sign-change character (Geck-Pfeiffer 2000, 5.5).
    So its value is a sum over the ways to send k_c of the m_c cycles of each
    (length, sign) group c to alpha and the rest to beta: the term is
    prod_c C(m_c, k_c) chi^alpha(rho_alpha) chi^beta(rho_beta), negated once for
    each negative cycle sent to beta.  The splits (rho_alpha, rho_beta) and
    their coefficients come from convolving the groups one at a time, longest
    cycles first, so each split is built in descending order and equal splits
    merge as they arise.  The irreducibles with |alpha| = k form one block of
    `bipartitions(n)`, partitions(k) x partitions(n - k) in row order, so a
    split with |rho_alpha| = k adds its coefficient times the outer product of
    the S_k column at rho_alpha and the S_(n-k) column at rho_beta to that
    block.  On packed columns that outer product is one integer product
    (`_block_packed` times `_row_packed`), and the whole column is one packed
    sum, split once (`split_ints`).

    -1 is central in B_n and acts on chi^(alpha;beta) by the scalar
    (-1)^|beta| (Geck-Pfeiffer 2000, 5.5), so chi^(alpha;beta)(-w) =
    (-1)^|beta| chi^(alpha;beta)(w).  -w is w with the sign of each odd
    cycle flipped (`_minus_label`), so of each pair of classes {w, -w} the
    greater label's column is taken as above and the lesser's is read off
    it, times (-1)^|beta| per irreducible (`_beta_signs`); a class with no
    odd cycle is its own twin.
    """
    n = sum(pos) + sum(neg)
    twin = _minus_label(pos, neg)
    if twin > (pos, neg):
        return tuple(map(mul, _bc_column(*twin), _beta_signs(n)))
    groups = [(c, m, 1) for c, m in multiplicities(pos).items()]
    groups += [(c, m, -1) for c, m in multiplicities(neg).items()]
    splits = {((), ()): 1}  # (rho_alpha, rho_beta) -> coef
    for c, m, sign in sorted(groups, key=lambda grp: -grp[0]):
        terms = [(k, comb(m, k) * sign ** (m - k)) for k in range(m + 1)]
        grown = {}
        for (ra, rb), coef in splits.items():
            for k, f in terms:
                key = ra + (c,) * k, rb + (c,) * (m - k)
                grown[key] = grown.get(key, 0) + coef * f
        splits = grown
    total = sum(coef * _block_packed(ra, n) * _row_packed(rb, n)
                for (ra, rb), coef in splits.items() if coef)
    return tuple(split_ints(total, _bc_width(n), len(bipartitions(n))))


# the G2 irreducibles (lam, delta), in table order, by name: the S_3
# irreducible lam times the character delta of the centre {+-1}
_G2_IRREPS = {
    "triv": ((3,), 1),
    "sgn": ((1, 1, 1), 1),
    "chi1": ((3,), -1),
    "chi2": ((1, 1, 1), -1),
    "refl": ((2, 1), -1),
    "rot2": ((2, 1), 1),
}


# ---------------------------------------------------------------------------
# group data


class WeylGroupData:
    def __init__(self, type: WeylType, order: int, classes: list, char_table: tuple,
                 irrep_labels: tuple, degrees: tuple, w0, refl_charpoly: list,
                 sgn_index: int, triv_index: int, refl_index: int):
        self.type = type
        self.order = order
        self.classes = classes
        self.char_table = char_table  # rows irreps x cols classes
        self.irrep_labels = irrep_labels
        self.degrees = degrees
        self.w0 = w0
        self.refl_charpoly = refl_charpoly
        self.sgn_index = sgn_index
        self.triv_index = triv_index
        self.refl_index = refl_index
        self._class_index = {c.label: i for i, c in enumerate(classes)}
        self.identity_class = self.class_of(identity_element(type))

    def class_of(self, w) -> int:
        return self._class_index[class_label(self.type, w)]

    # -- delta = -w0 ------------------------------------------------------
    def delta_element(self, w):
        """The group automorphism w -> w0 w w0."""
        return sp_mul(self.w0, sp_mul(w, self.w0))

    def delta_is_trivial(self) -> bool:
        gens = simple_generators(self.type)
        return all(self.delta_element(g) == g for g in gens)


def _degrees(t: WeylType):
    if t.family == "A":
        return tuple(range(2, t.rank + 2))
    if t.family in ("B", "C"):
        return tuple(range(2, 2 * t.rank + 1, 2))
    if t.family == "D":
        return tuple(range(2, 2 * t.rank - 1, 2)) + (t.rank,)
    return (2, 6)


def _w0(t: WeylType):
    n = _ambient_dim(t)
    if t.family == "A":
        return tuple(range(n, 0, -1))
    if t.family == "D" and n % 2 == 1:
        return tuple([-i for i in range(1, n)] + [n])
    return tuple(-i for i in range(1, n + 1))


def _signed_class_size(pos, neg) -> int:
    """|C| = 2^n n! / z for the B_n class of signed cycle type (pos, neg).

    z = prod_i (2i)^{a_i} a_i! (2i)^{b_i} b_i!, with a_i, b_i the
    multiplicities of i in pos and neg.
    """
    n = sum(pos) + sum(neg)
    z = 1
    for mu in (pos, neg):
        for part, mult in multiplicities(mu).items():
            z *= (2 * part) ** mult * factorial(mult)
    return 2**n * factorial(n) // z


@lru_cache(maxsize=None)
def _groupable(chains, room) -> bool:
    """Whether the chain lengths split into groups with the sums in `room`.

    Both are descending tuples with equal totals.
    """
    if not chains:
        return not room
    c, rest = chains[0], chains[1:]
    for k, r in enumerate(room):
        if r < c or (k and room[k - 1] == r):
            continue
        left = room[:k] + ((r - c,) if r > c else ()) + room[k + 1:]
        if _groupable(rest, tuple(sorted(left, reverse=True))):
            return True
    return False


def _completable(prefix, pos, neg) -> bool:
    """Whether a signed permutation w with w(i+1) = prefix[i] has type (pos, neg).

    The closed cycles of the partial map must be a sub-multiset of the label,
    and its open chains must group into the remaining cycle lengths.  The
    signs of those cycles are free: each still has an unassigned edge.
    """
    n = sum(pos) + sum(neg)
    succ = {i + 1: x for i, x in enumerate(prefix)}
    image = {abs(x) for x in prefix}
    seen = set()
    chains = []
    for a in range(1, n + 1):
        if a in image:
            continue
        seen.add(a)
        length = 1
        while a in succ:
            a = abs(succ[a])
            seen.add(a)
            length += 1
        chains.append(length)
    rest = {1: list(pos), -1: list(neg)}
    for a in succ:
        if a in seen:
            continue
        length, sign = 0, 1
        while a not in seen:
            seen.add(a)
            x = succ[a]
            if x < 0:
                sign = -sign
            a = abs(x)
            length += 1
        if length not in rest[sign]:
            return False
        rest[sign].remove(length)
    room = tuple(sorted(rest[1] + rest[-1], reverse=True))
    return _groupable(tuple(sorted(chains, reverse=True)), room)


def _lex_elements(pos, neg):
    """The signed permutations of type (pos, neg), in increasing lex order.

    A depth-first search over prefixes that keeps only completable ones, so
    the first element it yields is the least one of the class.
    """
    n = sum(pos) + sum(neg)
    values = [*range(-n, 0), *range(1, n + 1)]
    prefix = []

    def extend():
        if len(prefix) == n:
            yield tuple(prefix)
            return
        used = {abs(x) for x in prefix}
        for v in values:
            if abs(v) in used:
                continue
            prefix.append(v)
            if _completable(prefix, pos, neg):
                yield from extend()
            prefix.pop()

    return extend()


def _splits(pos, neg) -> bool:
    """Whether the B_n class (pos, neg) falls into two D_n classes."""
    return not neg and all(c % 2 == 0 for c in pos)


def _d_tag(w, pos, neg) -> str:
    """"+" or "-" for the D_n classes a split label falls into, else "".

    The "+" class is the one holding x, the element with positive cycles
    (1 .. mu_1)(mu_1 + 1 .. mu_1 + mu_2)... for mu = pos.  Read b in B_n with
    b x b^-1 = w off the cycles of w, longest first, using b(x(a)) = w(b(a));
    w is in the "+" class iff b has an even number of sign changes.  Any such
    b gives the same answer, since the centralizer of x in B_n lies in D_n.
    """
    if not _splits(pos, neg):
        return ""
    n = len(w)
    seen = [False] * n
    cycles = []  # (length, least point)
    for i in range(n):
        if seen[i]:
            continue
        j, c = i, 0
        while not seen[j]:
            seen[j] = True
            j = abs(w[j]) - 1
            c += 1
        cycles.append((c, i + 1))
    cycles.sort(key=lambda cyc: -cyc[0])
    flips = 0
    for c, start in cycles:
        v = start  # b sends the first point of the matching x-cycle here
        for _ in range(c - 1):
            img = w[abs(v) - 1]
            v = img if v > 0 else -img
            flips += v < 0
    return "+" if flips % 2 == 0 else "-"


def class_label(t: WeylType, w):
    """The label of the conjugacy class of w, as in `ConjClass.label`."""
    pos, neg = signed_cycle_type(w)
    if t.family == "A":
        return pos
    if t.family == "G2":  # w = eps sigma, and the cycles of sigma are those of w
        return _G2_NAMES[tuple(sorted(pos + neg, reverse=True)), 1 if w[0] > 0 else -1]
    if t.family == "D":
        return pos, neg, _d_tag(w, pos, neg)
    return pos, neg


def label_str(lab) -> str:
    """A label as text: a name as is, (a)x(b)tag for a bipartition, (a) for a partition."""
    if isinstance(lab, str):
        return lab
    if isinstance(lab, tuple) and len(lab) in (2, 3) and all(
        isinstance(x, tuple) for x in lab[:2]
    ):
        a = ",".join(map(str, lab[0])) or "0"
        b = ",".join(map(str, lab[1])) or "0"
        tag = lab[2] if len(lab) == 3 and isinstance(lab[2], str) else ""
        return f"({a})x({b}){tag}"
    return "(" + ",".join(map(str, lab)) + ")"


def _class_order(cls: ConjClass):
    return -len(cls.label[0]), cls.label


def _consecutive_cycles(parts) -> tuple:
    """The permutation with cycles (1 .. p1)(p1 + 1 .. p1 + p2)... on
    consecutive points, i -> i + 1 within each."""
    rep, start = [], 0
    for c in parts:
        rep += [*range(start + 2, start + c + 1), start + 1]
        start += c
    return tuple(rep)


def _build_A(t: WeylType):
    """Classes, character table, irreducibles, sgn and triv of S_(rank + 1).

    chi^(lam^t) = sgn chi^lam (Macdonald, Symmetric Functions and Hall
    Polynomials, I.7), and sgn is (-1)^(n - l(mu)) on the class of cycle
    type mu, so of each pair {lam, lam^t} the row met first in table order
    is taken by Murnaghan-Nakayama and the other is that row times sgn.
    """
    n = t.rank + 1
    classes = [ConjClass(cycle_type_size(n, lab), lab, _consecutive_cycles(lab[::-1]))
               for lab in partitions(n)]
    irreps = partitions(n)
    sgn_values = [-1 if (n - len(cls.label)) % 2 else 1 for cls in classes]
    rows = {}
    for lam in irreps:
        twin = rows.get(transpose(lam))
        rows[lam] = (tuple(map(mul, twin, sgn_values)) if twin is not None
                     else tuple(sym_char(lam, cls.label) for cls in classes))
    table = tuple(rows.values())
    sgn = irreps.index((1,) * n)
    triv = irreps.index((n,))
    return classes, table, irreps, sgn, triv


@lru_cache(maxsize=None)
def _build_BC(n: int):
    """Classes, character table, irreducibles, sgn and triv of B_n = C_n."""
    classes = [ConjClass(_signed_class_size(pos, neg), (pos, neg)) for pos, neg in bipartitions(n)]
    classes.sort(key=_class_order)
    irreps = bipartitions(n)
    table = tuple(zip(*(_bc_column(*cls.label) for cls in classes)))
    sgn = irreps.index(((), (1,) * n))
    triv = irreps.index(((n,), ()))
    return tuple(classes), table, irreps, sgn, triv


def _build_D(t: WeylType):
    n = t.rank
    classes = []
    for pos, neg in bipartitions(n):
        if len(neg) % 2:
            continue
        tags = ("+", "-") if _splits(pos, neg) else ("",)
        size = _signed_class_size(pos, neg) // len(tags)
        classes += [ConjClass(size, (pos, neg, tag)) for tag in tags]
    classes.sort(key=_class_order)

    # irreps: unordered pairs {a,b}, a != b, plus split pairs (a,a,+-);
    # a pair restricts from B_n, and a split pair is half of (a;a) off the
    # split classes
    b_index = {ab: i for i, ab in enumerate(bipartitions(n))}
    b_cols = [_bc_column(*cls.label[:2]) for cls in classes]
    labels, rows, seen = [], [], set()
    for a, b in bipartitions(n):
        if a != b and (b, a) not in seen:
            seen.add((a, b))
            labels.append((a, b))
            rows.append(tuple(col[b_index[a, b]] for col in b_cols))
    if n % 2 == 0:
        for a in partitions(n // 2):
            base = [col[b_index[a, a]] for col in b_cols]
            for eps in (+1, -1):
                labels.append((a, a, "+" if eps > 0 else "-"))
                row = []
                for value, cls in zip(base, classes):
                    pos, neg, tag = cls.label
                    if tag:
                        mu_half = tuple(c // 2 for c in pos)
                        corr = 2 ** len(pos) * sym_char(a, mu_half)
                        sign = eps * (1 if tag == "+" else -1)
                        row.append((value + sign * corr) // 2)
                    else:
                        if value % 2:
                            raise AssertionError("odd value of a split D character")
                        row.append(value // 2)
                rows.append(tuple(row))
    table = tuple(rows)
    sgn = labels.index(_d_pair_key((), (1,) * n, labels))
    triv = labels.index(_d_pair_key((n,), (), labels))
    return classes, table, tuple(labels), sgn, triv


def _d_pair_key(a, b, labels):
    for lab in labels:
        if len(lab) == 2 and (lab[:2] == (a, b) or lab[:2] == (b, a)):
            return lab
    raise KeyError((a, b))


def _g2_least(mu, eps) -> tuple:
    """The least element of the G2 class (mu, eps).

    For eps = 1 it is the least sigma of cycle type mu, whose cycles sit on
    consecutive points, shortest first.  For eps = -1 it is minus the
    greatest sigma, which in S_3 is the least one conjugated by (1 2).
    """
    least = _consecutive_cycles(mu[::-1])
    if eps > 0:
        return least
    s = (2, 1, 3)
    return tuple(-x for x in sp_mul(s, sp_mul(least, s)))


def _build_G2(t: WeylType):
    """W(G2) = S_3 x {+-1}: the class (mu, eps) is |C_mu| elements of S_3
    times eps, and the irreducible (lam, delta) takes chi^lam(mu) there,
    times delta when eps = -1."""
    classes = [ConjClass(cycle_type_size(3, mu), name, _g2_least(mu, eps))
               for name, (mu, eps) in _G2_CLASSES.items()]
    table = tuple(
        tuple(sym_char(lam, mu) * (delta if eps < 0 else 1) for mu, eps in _G2_CLASSES.values())
        for lam, delta in _G2_IRREPS.values()
    )
    labels = tuple(_G2_IRREPS)
    return classes, table, labels, labels.index("sgn"), labels.index("triv")


@lru_cache(maxsize=None)
def build(t: WeylType) -> WeylGroupData:
    """Construct and verify the full group datum for a supported type."""
    if t.family == "A":
        classes, table, labels, sgn, triv = _build_A(t)
    elif t.family in ("B", "C"):
        classes, table, labels, sgn, triv = _build_BC(t.rank)
    elif t.family == "D":
        classes, table, labels, sgn, triv = _build_D(t)
    else:
        classes, table, labels, sgn, triv = _build_G2(t)

    degrees = _degrees(t)
    charpolys = [charpoly_of_label(t, c.label) for c in classes]
    g = WeylGroupData(
        type=t,
        order=prod(degrees),
        classes=list(classes),  # B_n and C_n share one cached tuple
        char_table=table,
        irrep_labels=tuple(labels),
        degrees=degrees,
        w0=_w0(t),
        refl_charpoly=charpolys,
        sgn_index=sgn,
        triv_index=triv,
        refl_index=_reflection_irrep(table, charpolys),
    )
    _verify(g)
    return g


def _verify(g: WeylGroupData):
    sizes = [c.size for c in g.classes]
    if sum(sizes) != g.order:
        raise AssertionError("class sizes do not sum to |W|")
    ident = g.identity_class
    nirr = len(g.char_table)
    if nirr != len(g.classes):
        raise AssertionError("irrep count differs from class count")
    if sum(row[ident] ** 2 for row in g.char_table) != g.order:
        raise AssertionError("sum of squared dimensions is not |W|")
    # row orthogonality X diag(|C_k|) X^T = |W| I, one packed integer per
    # row: column k over the irreducibles is P_k = sum_j X_jk 2^(b j), b the
    # slot width of the entries rounded up to a whole byte (`pack_ints`), and
    # row i holds iff sum_k |C_k| X_ik P_k = |W| 2^(b i).  A square X that
    # passes is invertible, so column orthogonality follows.
    cols = list(zip(*g.char_table))
    b = byte_width(slot_bits(sum(sz * max(v * v for v in col) for sz, col in zip(sizes, cols))))
    sized = [sz * pack_ints(col, b) for sz, col in zip(sizes, cols)]
    for i, row in enumerate(g.char_table):
        total = sum(map(mul, row, sized))
        if total != g.order << (b * i):
            entries = split_ints(total, b, nirr)
            j = next(j for j in range(nirr) if entries[j] != (g.order if i == j else 0))
            raise AssertionError(
                f"character table orthogonality fails at rows {i},{j}"
            )
    rank = g.type.rank
    if g.refl_charpoly[ident] != IntPoly((1, -1)) ** rank:
        raise AssertionError("identity charpoly is not (1-q)^rank")


def _reflection_irrep(table, charpolys) -> int:
    # trace of w on V is -[q^1] det(1 - q w)
    target = tuple(-p[1] for p in charpolys)
    for i, row in enumerate(table):
        if row == target:
            return i
    raise AssertionError("reflection character not found in the table")


def minus_one_elliptic_classes(g: WeylGroupData) -> set:
    """Classes with det_V(1 + w) != 0."""
    return {i for i, p in enumerate(g.refl_charpoly) if p.eval(-1) != 0}


def delta_twisted_classes(g: WeylGroupData):
    """Orbits of w -> u w delta(u)^{-1}; returns (rep, size, is_elliptic).

    Ellipticity is det_V(1 - w delta) != 0, computed as det_V(1 + w w0).
    """
    t = g.type
    gen_data = [(u, sp_inv(g.delta_element(u))) for u in simple_generators(t)]
    seen = set()
    out = []
    for e in all_elements(t):
        if e in seen:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for w in frontier:
                for u, dui in gen_data:
                    c = sp_mul(u, sp_mul(w, dui))
                    if c not in orbit:
                        orbit.add(c)
                        nxt.append(c)
            frontier = nxt
        seen |= orbit
        rep = min(orbit)
        p = charpoly_of_label(t, class_label(t, sp_mul(rep, g.w0)))
        out.append((rep, len(orbit), p.eval(-1) != 0))
    return out


def delta_elliptic_count(g: WeylGroupData) -> int:
    """Number of delta-twisted classes with det_V(1 - w delta) != 0.

    u w delta(u)^{-1} w0 = u (w w0) u^{-1}, so w -> w w0 maps the twisted
    classes one-to-one onto the ordinary classes, and a twisted class is
    elliptic exactly when its image is (-1)-elliptic.  `delta_twisted_classes`
    enumerates the twisted orbits themselves.
    """
    return len(minus_one_elliptic_classes(g))


# ---------------------------------------------------------------------------
# reflection representation: integer simple roots in ambient coordinates, for
# exact descent in reduced words and for the pin construction


@lru_cache(maxsize=None)
def ambient_simple_roots(t: WeylType) -> tuple:
    """Simple roots as integer vectors in the ambient coordinates of R^m:
    e_i - e_(i+1) for i < m, then e_m for B/C and e_(m-1) + e_m for D; for
    G2 the short root (1,-1,0) and the long root (-2,1,1) of the sum-zero
    plane in R^3."""
    if t.family == "G2":
        return ((1, -1, 0), (-2, 1, 1))
    m = _ambient_dim(t)
    roots = [
        tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(m))
        for i in range(m - 1)
    ]
    if t.family in ("B", "C"):
        roots.append(tuple(1 if k == m - 1 else 0 for k in range(m)))
    elif t.family == "D":
        roots.append(tuple(1 if k >= m - 2 else 0 for k in range(m)))
    return tuple(roots)


@lru_cache(maxsize=None)
def _rho(t: WeylType) -> tuple:
    """A vector with positive pairing on every simple root, and so on every
    positive root, and nonzero on every root: w(alpha) < 0 exactly when
    <w(alpha), rho> < 0.  (m, ..., 1) for A-D; G2 takes one in its plane,
    since the sign of the first nonzero coordinate is wrong for (-2,1,1)."""
    if t.family == "G2":
        return (-1, -2, 3)
    return tuple(range(_ambient_dim(t), 0, -1))


def _act_ambient(w, vec):
    """w(vec) for the signed permutation w, acting by e_j -> sign(w(j)) e_|w(j)|."""
    out = [0] * len(vec)
    for j, c in enumerate(vec):
        img = w[j]
        if img > 0:
            out[img - 1] += c
        else:
            out[-img - 1] -= c
    return tuple(out)


def reduced_word(g: WeylGroupData, w) -> tuple:
    """Indices i1..ik of simple generators with w = s_{i1} ... s_{ik}.

    Strips the least right descent i, w(alpha_i) < 0, until w is the identity.
    w is orthogonal, so <w(alpha_i), rho> = <alpha_i, w^-1(rho)>: one image
    back = w^-1(rho) per step serves every root, and stripping s_i takes it
    to s_i(back), one action of the generator.  rho's coordinates have
    distinct absolute values, so back = rho only at the identity.  Each step
    shortens w by one, so no word is longer than N, the number of positive
    roots.  A longer word, or a non-identity with no descent, means that w
    is not in W or that the generators are not the reflections in the simple
    roots: RuntimeError.
    """
    t = g.type
    roots, gens, rho = ambient_simple_roots(t), simple_generators(t), _rho(t)
    longest = sum(g.degrees) - len(g.degrees)  # N = sum_i (d_i - 1)
    word = []
    back = _act_ambient(sp_inv(w), rho)
    while back != rho and len(word) < longest:
        for i, alpha in enumerate(roots):
            if sum(map(mul, alpha, back)) < 0:
                word.append(i)
                back = _act_ambient(gens[i], back)
                break
        else:
            break
    if back != rho:
        raise RuntimeError(
            f"no reduced word for {w} in type {t}: it is not in W, or the simple "
            "generators do not match the simple roots"
        )
    word.reverse()
    return tuple(word)


def braid_order(g: WeylGroupData, i: int, j: int) -> int:
    """Order m of s_i s_j in W, read off the simple roots.

    The angle between alpha_i and alpha_j is pi - pi/m, so
    4 <alpha_i, alpha_j>^2 / (|alpha_i|^2 |alpha_j|^2) = 4 cos^2(pi/m) is
    0, 1, 2, 3 for m = 2, 3, 4, 6 (Humphreys, Reflection Groups and Coxeter
    Groups, 1990, ch. 1-2), and 4 for i = j, m = 1.
    """
    roots = ambient_simple_roots(g.type)
    a, b = roots[i], roots[j]
    ab, aa, bb = sum(map(mul, a, b)), sum(map(mul, a, a)), sum(map(mul, b, b))
    return (2, 3, 4, 6, 1)[4 * ab * ab // (aa * bb)]
