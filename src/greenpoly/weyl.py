"""Finite Weyl group models for types A, B/C, D and G2.

Elements are concrete: permutation tuples for A, signed permutation tuples
for B/C/D, and dihedral indices for G2.  Conjugacy classes come in closed form
from their labels, with no enumeration of the group: cycle types for A;
signed cycle types (mu+, mu-) for B/C, of size 2^n n!/z; for D the labels with
an even number of negative cycles, where a label with mu- empty and all parts
of mu+ even splits into "+" and "-" halves; and the six dihedral classes of
G2.  Class representatives follow two conventions.  In type A the class of
cycle type lam is represented by the product of cycles on consecutive points,
longest first (i -> i+1 within each block), which is not in general the least
element: A2's class (2,1) is represented by (1,0,2), while its least element is
(0,2,1).  In types B/C/D the representative is the lexicographically least
signed permutation of the class, found by a pruned search (`_lex_elements`)
on its first read and then kept; `build` reads none, and the identity class
is found by its label.  In G2 it is the least dihedral index.  `class_of`
computes an element's label.  `delta_twisted_classes` and `all_elements`
enumerate the whole group; the tests use them as oracles.
Character tables: Murnaghan-Nakayama for A; for B/C induced from the S_k
tables (`_bc_column`, outer products of whole S_k columns), one table per rank
shared by B_n and C_n; for D the same columns restricted, with split classes;
and a hard-coded table for G2.  `build` checks row orthogonality with one
packed integer sum per row.
Supported ranks: A 1-8, B and C 1-8, D 3-8.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import comb, factorial
from operator import add, mul

from .partitions import cycle_type_size, multiplicities, partitions, sym_char
from .polyq import IntPoly, ONE, slot_bits

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
        if representative is not None:  # types A and G2: a tuple or an int
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


def perm_mul(u, w):
    """(u*w)(i) = u(w(i)) for permutation tuples."""
    return tuple(u[w[i]] for i in range(len(w)))


def perm_inv(w):
    out = [0] * len(w)
    for i, j in enumerate(w):
        out[j] = i
    return tuple(out)


def sp_mul(u, w):
    """Signed permutations, entries +-1..+-n; (u*w) acts as u after w."""
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


def g2_mul(u, w):
    """Dihedral order 12; index = 6*b + k encodes s^b r^k."""
    bu, ku = divmod(u, 6)
    bw, kw = divmod(w, 6)
    if bu == 0:
        if bw == 0:
            return (ku + kw) % 6
        return 6 + (kw - ku) % 6
    if bw == 0:
        return 6 + (ku + kw) % 6
    return (kw - ku) % 6


def g2_inv(w):
    b, k = divmod(w, 6)
    return w if b else (-k) % 6


def _mul(t: WeylType):
    if t.family == "A":
        return perm_mul
    if t.family == "G2":
        return g2_mul
    return sp_mul


def _inv(t: WeylType):
    if t.family == "A":
        return perm_inv
    if t.family == "G2":
        return g2_inv
    return sp_inv


def _identity_label(t: WeylType):
    """The label of the identity's class, as in `ConjClass.label`."""
    if t.family == "A":
        return (1,) * (t.rank + 1)
    if t.family == "G2":
        return "e"
    ones = (1,) * t.rank
    return (ones, (), "") if t.family == "D" else (ones, ())


def identity_element(t: WeylType):
    if t.family == "A":
        return tuple(range(t.rank + 1))
    if t.family == "G2":
        return 0
    return tuple(range(1, t.rank + 1))


def simple_generators(t: WeylType):
    if t.family == "A":
        n = t.rank + 1
        gens = []
        for i in range(n - 1):
            g = list(range(n))
            g[i], g[i + 1] = g[i + 1], g[i]
            gens.append(tuple(g))
        return gens
    if t.family == "G2":
        return [6, 7]  # short and long simple reflections
    n = t.rank
    gens = []
    for i in range(n - 1):
        g = list(range(1, n + 1))
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    if t.family in ("B", "C"):
        g = list(range(1, n + 1))
        g[n - 1] = -n
        gens.append(tuple(g))
    else:  # D: reflection in e_{n-1} + e_n
        g = list(range(1, n + 1))
        if n >= 2:
            g[n - 2], g[n - 1] = -n, -(n - 1)
        gens.append(tuple(g))
    return gens


def all_elements(t: WeylType):
    if t.family == "A":
        return [tuple(p) for p in itertools.permutations(range(t.rank + 1))]
    if t.family == "G2":
        return list(range(12))
    n = t.rank
    out = []
    for p in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if t.family == "D" and signs.count(-1) % 2:
                continue
            out.append(tuple(s * x for s, x in zip(signs, p)))
    return out


# ---------------------------------------------------------------------------
# labels and characteristic polynomials


def perm_cycle_type(w):
    n = len(w)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        j, c = i, 0
        while not seen[j]:
            seen[j] = True
            j = w[j]
            c += 1
        parts.append(c)
    return tuple(sorted(parts, reverse=True))


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


_G2_CHARPOLY = {
    "e": IntPoly((1, -2, 1)),
    "rot60": IntPoly((1, -1, 1)),
    "rot120": IntPoly((1, 1, 1)),
    "w0": IntPoly((1, 2, 1)),
    "refl_short": IntPoly((1, 0, -1)),
    "refl_long": IntPoly((1, 0, -1)),
}


def g2_class_name(w):
    b, k = divmod(w, 6)
    if b:
        return "refl_short" if k % 2 == 0 else "refl_long"
    return {0: "e", 1: "rot60", 2: "rot120", 3: "w0", 4: "rot120", 5: "rot60"}[k]


def charpoly_of_label(t: WeylType, label) -> IntPoly:
    """det_V(1 - q w) for any element with the given class label."""
    if t.family == "A":
        out = ONE
        for c in label:
            out = out * IntPoly((1,) + (0,) * (c - 1) + (-1,))
        return out.divexact(IntPoly((1, -1)))
    if t.family == "G2":
        return _G2_CHARPOLY[label]
    pos, neg = label[0], label[1]
    out = ONE
    for c in pos:
        out = out * IntPoly((1,) + (0,) * (c - 1) + (-1,))
    for c in neg:
        out = out * IntPoly((1,) + (0,) * (c - 1) + (1,))
    return out


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
def _bc_column(pos, neg) -> tuple:
    """Every B_n irreducible, in `bipartitions(n)` order, at the class (pos, neg).

    chi^(alpha;beta) is induced from alpha (x) beta on B_|alpha| x B_|beta|,
    with beta twisted by the sign-change character (Geck-Pfeiffer 2000, 5.5).
    So its value is a sum over the ways to send k_c of the m_c cycles of each
    (length, sign) group c to alpha and the rest to beta: the term is
    prod_c C(m_c, k_c) chi^alpha(rho_alpha) chi^beta(rho_beta), negated once for
    each negative cycle sent to beta.  The irreducibles with |alpha| = k form
    one block of `bipartitions(n)`, partitions(k) x partitions(n - k) in row
    order, so a split (rho_alpha, rho_beta) with |rho_alpha| = k adds its
    coefficient times the outer product of the S_k column at rho_alpha and the
    S_(n-k) column at rho_beta to that block.  Equal splits are merged first.
    """
    n = sum(pos) + sum(neg)
    groups = [(c, m, 1) for c, m in multiplicities(pos).items()]
    groups += [(c, m, -1) for c, m in multiplicities(neg).items()]
    splits = {}  # (rho_alpha, rho_beta) -> coef
    for ks in itertools.product(*(range(m + 1) for _, m, _ in groups)):
        coef, to_a, to_b = 1, [], []
        for (c, m, sign), k in zip(groups, ks):
            coef *= comb(m, k) * sign ** (m - k)
            to_a += [c] * k
            to_b += [c] * (m - k)
        key = tuple(sorted(to_a, reverse=True)), tuple(sorted(to_b, reverse=True))
        splits[key] = splits.get(key, 0) + coef
    blocks = [[0] * (len(partitions(k)) * len(partitions(n - k))) for k in range(n + 1)]
    for (ra, rb), coef in splits.items():
        if not coef:
            continue
        block, col_b = blocks[sum(ra)], _sym_column(rb)
        width = len(col_b)
        for start, x in zip(range(0, len(block), width), _sym_column(ra)):
            if x:
                cx = coef * x
                block[start:start + width] = map(add, block[start:start + width],
                                                 map(cx.__mul__, col_b))
    return tuple(itertools.chain.from_iterable(reversed(blocks)))


_G2_CLASS_ORDER = ("e", "w0", "rot60", "rot120", "refl_long", "refl_short")
_G2_IRREPS = ("triv", "sgn", "chi1", "chi2", "refl", "rot2")
_G2_TABLE = {
    #            e   w0 r60 r120 rl  rs
    "triv":    (1,  1,  1,  1,  1,  1),
    "sgn":     (1,  1,  1,  1, -1, -1),
    "chi1":    (1, -1, -1,  1, -1,  1),
    "chi2":    (1, -1, -1,  1,  1, -1),
    "refl":    (2, -2,  1, -1,  0,  0),
    "rot2":    (2,  2, -1, -1,  0,  0),
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

    # -- basic lookups ---------------------------------------------------
    def char_value(self, irrep: int, cls: int) -> int:
        return self.char_table[irrep][cls]

    def irrep_dim(self, irrep: int) -> int:
        return self.char_table[irrep][self.identity_class]

    @property
    def identity_class(self) -> int:
        return self._class_index[_identity_label(self.type)]

    def class_of(self, w) -> int:
        return self._class_index[class_label(self.type, w)]

    def mul(self, u, w):
        return _mul(self.type)(u, w)

    def inv(self, w):
        return _inv(self.type)(w)

    # -- delta = -w0 ------------------------------------------------------
    def delta_element(self, w):
        """The group automorphism w -> w0 w w0."""
        m = _mul(self.type)
        return m(self.w0, m(w, self.w0))

    def delta_is_trivial(self) -> bool:
        gens = simple_generators(self.type)
        return all(self.delta_element(g) == g for g in gens)

    def sgn_of_class(self, cls: int) -> int:
        return self.char_table[self.sgn_index][cls]


def _degrees(t: WeylType):
    if t.family == "A":
        return tuple(range(2, t.rank + 2))
    if t.family in ("B", "C"):
        return tuple(range(2, 2 * t.rank + 1, 2))
    if t.family == "D":
        return tuple(range(2, 2 * t.rank - 1, 2)) + (t.rank,)
    return (2, 6)


def _w0(t: WeylType):
    if t.family == "A":
        return tuple(reversed(range(t.rank + 1)))
    if t.family == "G2":
        return 3
    n = t.rank
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
    if t.family == "A":
        return perm_cycle_type(w)
    if t.family == "G2":
        return g2_class_name(w)
    pos, neg = signed_cycle_type(w)
    if t.family == "D":
        return pos, neg, _d_tag(w, pos, neg)
    return pos, neg


def _class_order(cls: ConjClass):
    return -len(cls.label[0]), cls.label


def _build_A(t: WeylType):
    n = t.rank + 1
    classes = []
    for lab in partitions(n):
        rep = []
        start = 0
        for c in lab:
            rep.extend(list(range(start + 1, start + c)) + [start])
            start += c
        classes.append(ConjClass(cycle_type_size(n, lab), lab, tuple(rep)))
    irreps = partitions(n)
    table = tuple(
        tuple(sym_char(lam, cls.label) for cls in classes) for lam in irreps
    )
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


def _build_G2(t: WeylType):
    members = {}
    for w in range(12):
        members.setdefault(g2_class_name(w), []).append(w)
    classes = [
        ConjClass(len(members[name]), name, members[name][0])
        for name in _G2_CLASS_ORDER
    ]
    table = tuple(tuple(_G2_TABLE[ir]) for ir in _G2_IRREPS)
    return classes, table, _G2_IRREPS, _G2_IRREPS.index("sgn"), 0


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
    order = 1
    for d in degrees:
        order *= d
    if t.family == "A":
        order = factorial(t.rank + 1)
    charpolys = [charpoly_of_label(t, c.label) for c in classes]

    g = WeylGroupData(
        type=t,
        order=order,
        classes=list(classes),  # B_n and C_n share one cached tuple
        char_table=table,
        irrep_labels=tuple(labels),
        degrees=degrees,
        w0=_w0(t),
        refl_charpoly=charpolys,
        sgn_index=sgn,
        triv_index=triv,
        refl_index=-1,
    )
    _verify(g)
    g.refl_index = _find_reflection_irrep(g)
    return g


def _verify(g: WeylGroupData):
    sizes = [c.size for c in g.classes]
    if sum(sizes) != g.order:
        raise AssertionError("class sizes do not sum to |W|")
    deg_prod = 1
    for d in g.degrees:
        deg_prod *= d
    if deg_prod != g.order:
        raise AssertionError("product of fundamental degrees is not |W|")
    ident = g.identity_class
    nirr = len(g.char_table)
    if nirr != len(g.classes):
        raise AssertionError("irrep count differs from class count")
    if sum(row[ident] ** 2 for row in g.char_table) != g.order:
        raise AssertionError("sum of squared dimensions is not |W|")
    # row orthogonality X diag(|C_k|) X^T = |W| I, one packed integer per
    # row: column k over the irreducibles is P_k = sum_j X_jk 2^(b j), and
    # row i holds iff sum_k |C_k| X_ik P_k = |W| 2^(b i).  A square X that
    # passes is invertible, so column orthogonality follows.
    cols = list(zip(*g.char_table))
    b = slot_bits(sum(sz * max(v * v for v in col) for sz, col in zip(sizes, cols)))
    sized = [sz * IntPoly(col).pack(b) for sz, col in zip(sizes, cols)]
    for i, row in enumerate(g.char_table):
        total = sum(map(mul, row, sized))
        if total != g.order << (b * i):
            entries = IntPoly.unpack(total, b)
            j = next(j for j in range(nirr) if entries[j] != (g.order if i == j else 0))
            raise AssertionError(
                f"character table orthogonality fails at rows {i},{j}"
            )
    rank = g.type.rank
    if g.refl_charpoly[ident] != IntPoly((1, -1)) ** rank:
        raise AssertionError("identity charpoly is not (1-q)^rank")


def _find_reflection_irrep(g: WeylGroupData) -> int:
    # trace of w on V is -[q^1] det(1 - q w)
    target = tuple(-p[1] for p in g.refl_charpoly)
    for i, row in enumerate(g.char_table):
        if row == target:
            return i
    raise AssertionError("reflection character not found in the table")


def refl_charpoly(g: WeylGroupData, cls: int) -> IntPoly:
    return g.refl_charpoly[cls]


def minus_one_elliptic_classes(g: WeylGroupData) -> set:
    """Classes with det_V(1 + w) != 0."""
    return {i for i, p in enumerate(g.refl_charpoly) if p.eval(-1) != 0}


def elliptic_classes(g: WeylGroupData) -> set:
    """Classes with det_V(1 - w) != 0."""
    return {i for i, p in enumerate(g.refl_charpoly) if p.eval(1) != 0}


def delta_twisted_classes(g: WeylGroupData):
    """Orbits of w -> u w delta(u)^{-1}; returns (rep, size, is_elliptic).

    Ellipticity is det_V(1 - w delta) != 0, computed as det_V(1 + w w0).
    """
    t = g.type
    mul, inv = _mul(t), _inv(t)
    gens = simple_generators(t)
    gen_data = [(u, inv(g.delta_element(u))) for u in gens]
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
                    c = mul(u, mul(w, dui))
                    if c not in orbit:
                        orbit.add(c)
                        nxt.append(c)
            frontier = nxt
        seen |= orbit
        rep = min(orbit)
        ww0 = mul(rep, g.w0)
        if t.family == "A":
            p = charpoly_of_label(t, perm_cycle_type(ww0))
        elif t.family == "G2":
            p = charpoly_of_label(t, g2_class_name(ww0))
        else:
            p = charpoly_of_label(t, signed_cycle_type(ww0))
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


def _ambient_simple_roots(t: WeylType):
    """Simple roots as integer vectors in the standard ambient coordinates;
    for G2 the short root (1,-1,0) and the long root (-2,1,1) of the
    sum-zero plane in R^3."""
    if t.family == "G2":
        return [(1, -1, 0), (-2, 1, 1)]
    if t.family == "A":
        n = t.rank + 1
        return [
            tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(n))
            for i in range(t.rank)
        ]
    n = t.rank
    roots = [
        tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(n))
        for i in range(n - 1)
    ]
    if t.family in ("B", "C"):
        roots.append(tuple(1 if k == n - 1 else 0 for k in range(n)))
    else:
        roots.append(tuple(1 if k >= n - 2 else 0 for k in range(n)))
    return roots


def _act_ambient(t: WeylType, w, vec):
    if t.family == "A":
        out = [0] * len(vec)
        for j, c in enumerate(vec):
            out[w[j]] += c
        return tuple(out)
    out = [0] * len(vec)
    for j, c in enumerate(vec):
        img = w[j]
        if img > 0:
            out[img - 1] += c
        else:
            out[-img - 1] -= c
    return tuple(out)


@lru_cache(maxsize=None)
def _g2_words():
    words = {0: ()}
    frontier = [0]
    gens = simple_generators(WeylType("G2", 2))
    while frontier:
        nxt = []
        for w in frontier:
            for i, s in enumerate(gens):
                v = g2_mul(w, s)
                if v not in words:
                    words[v] = words[w] + (i,)
                    nxt.append(v)
        frontier = nxt
    return words


def reduced_word(g: WeylGroupData, w) -> tuple:
    """Indices i1..ik of simple generators with w = s_{i1} ... s_{ik}."""
    t = g.type
    if t.family == "G2":
        return _g2_words()[w]
    roots = _ambient_simple_roots(t)
    gens = simple_generators(t)
    mul = _mul(t)
    word = []
    ident = identity_element(t)
    cur = w
    while cur != ident:
        for i, alpha in enumerate(roots):
            img = _act_ambient(t, cur, alpha)
            neg = next(c for c in img if c)
            if neg < 0:
                word.append(i)
                cur = mul(cur, gens[i])
                break
        else:  # pragma: no cover - would mean a non-identity with no descent
            raise AssertionError("descent not found")
    word.reverse()
    return tuple(word)


def braid_order(g: WeylGroupData, i: int, j: int) -> int:
    """Order of s_i s_j in W."""
    gens = simple_generators(g.type)
    mul = _mul(g.type)
    prod = mul(gens[i], gens[j])
    ident = identity_element(g.type)
    cur, m = prod, 1
    while cur != ident:
        cur = mul(cur, prod)
        m += 1
    return m
