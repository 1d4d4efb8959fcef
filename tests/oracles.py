"""Slower paths kept as test oracles for the production ones.

Names only the tests use: `irreducible` and `graded_irreducible` build one
irreducible as a character, `omega` is Omega(q) as polynomials (the
production check takes it at one integer point, `charring.omega_at`),
`reverse` is q^n f(1/q), `sign_twist_space_dimension` the closed forms that
wait for a verb to print them, and `char_formula_check` tests the class
values of `spin.sigma_tilde` against the spin traces.

Whole-group enumerations: `elements` and `brute_force_classes` list the group
and its conjugacy classes, and the `*_elements` / `*_direct` pairings sum over
group elements instead of classes.

Earlier kernels: `bc_column_per_term` is the B_n character column with one
`sym_char` call per term, and `bc_column_outer_products` the same column as
`weyl._bc_column` took it before the packed kernel: every split from a product
over the groups of cycles, sorted, and one list outer product of two S_k
columns per split.

Murnaghan-Nakayama on beta lists, as `partitions.sym_char` took it before
the abacus bitmask: `hooks` lists the r-rim-hooks of a partition by moving
one beta number down, `_signed_hooks` keeps them with their signs, and
`sym_char_by_hooks` is the recursion over them, largest part first.
`dominates` is the dominance order by running partial sums, one pair at a
time, as `SpringerTable.greater` took it.

Class sums: `class_gram` is the class-sum Gram one entry at a time, each
entry one dot product of values packed at the width of the call's inputs,
for integer and graded values alike, and `symmetric_class_gram` is its Gram
of a list of rows with itself.  Neither shares code with `charring`, whose
kernel packs whole class columns and takes one dot product per row.

The solver before the packed store: `solve_per_block` is the
orthogonalisation as it ran when each orbit block called the class-sum
kernel afresh: every block packs all earlier class values again at a width
of its own, and each column is one dense packed row product over all earlier
columns.  `dense_product_checks` computes the two matrix identities of
`lusztigshoji.verify` from dense packed products, and
`dense_support_checks` its support, positivity and cross-orbit checks by
loops over every entry, each reading K one entry at a time
(`k_entry`).  These share no arithmetic with the packed store
or the sparse products they check.

Class-sum pairings that no production path takes: `std_pairing` and
`one_pairing` run `charring`'s kernel on the weights 1 and det_V(1 - w).

The spin layer's integers by class sums, as `spin` took them before it read
them off the solved tableau: a_V times the (-1)-elliptic pairing of two
columns' values at q = -1 (`spin_pairings_by_class_sums`), the Dirac index
flags as the columns' (+-1)-elliptic norms (`index_flags_by_class_sums`),
the alternating Betti sum as the column's value at the identity
(`alternating_betti_by_class_value`), and the tensor multiplicity as one
class sum against the source pair's irreducible
(`tensor_spin_multiplicity_oracle`).  For the paper's form of the
multiplicity, `k_at_minus_one_inverse` is K(-1)^{-1} by integer back
substitution.

Schur's spin characters of the double cover of S_n: `schur_spin_character`
reads X^lambda_rho off Q_lambda in power sums (`schur_q`), the Pfaffian of the
two-row Q_(r,s), in exact `Fraction` arithmetic (Macdonald, Symmetric
Functions and Hall Polynomials, III.8).  It shares no code with the pin
layer, whose type A values it checks.

The twisted-trace check before it read coordinates: `caction_check_by_class`
is `lusztigshoji.caction_check` as it compared every column's value on every
class with its value at -q on the class of w0 times that class's
representative.

Kostka-Foulkes polynomials by charge: `kostka_foulkes` sums q^charge(T)
over the semistandard tableaux T of a shape and content (`ssyt`), with
Lascoux and Schutzenberger's charge (`charge`) of the reading word, bottom
row first.  It shares no code with the solver, whose GL(n) columns it checks.

The JSON payload before the writer took polynomials: `tableau_payload_dicts`
is the `green --json` payload as `cli._tableau_payload` built it, with one
`{"coeffs": [...]}` dict per polynomial and every name taken again at each
use, ready for `json.dumps` as it stands.

G2 and the braid orders before their closed forms: `G2_TABLE` and
`G2_CHARPOLY` are W(G2)'s character table and characteristic polynomials
as they were typed in by hand, `G2_SIGNED_TYPES` names each G2 class by the
signed cycle type of its elements, and `braid_order_by_products` is the order
of s_i s_j found by multiplying the generators until the identity.

The (q,M)-pairing as a sum over A(e): `m_trace` is tr_M(x), the product of
1 - q^d chi(x) over the lines of M, and `q_M_gram_by_traces` the Gram of
(1/|A|) sum_x phi(x) phi'(x) tr_M(x) over every pair of characters of
A(e) = (Z/2)^k, one trace per element x, as `springer` took it before it
read the pairing off one product in the characters.  It shares the lines of
M (`springer.m_representation`) with production, not the product.

The descent in `weyl.reduced_word` before it carried w^-1(rho) from letter
to letter is `reduced_word_by_inverses`: one inverse and one action per
letter.

`verify all`'s group checks before they were integer comparisons:
`chevalley_failure_by_polynomials` multiplies the coinvariant character's
value on each class (`coinvariant_character`, the fake degrees as a graded
character) by det_V(1 - qw) as polynomials and compares the product with
p(q), and `reflects_on_each_coordinate` checks alpha e_j alpha =
N e_j - 2 alpha_j alpha one coordinate j at a time.  Both read
`charring.poincare_poly`, `charring._fake_degrees` and `spin._times` through
their modules, so a test that patches one of those patches the oracle too.

The command line before the table-driven parser: `build_parser` is the
argparse parser `cli.main` used, one subparser per verb with the common
options copied into each.  It drops options given before the verb, which
the table-driven parser keeps.
"""

from __future__ import annotations

import argparse
import itertools
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial
from operator import add, mul
from types import SimpleNamespace

from greenpoly import charring, spin
from greenpoly.charring import (
    GradedCharacter,
    VirtualCharacter,
    _class_gram,
    _coinvariant_values,
    _det_values,
    _pair,
    _same_group,
    minus_one_gram,
    minus_one_pairing,
    poincare_poly,
)
from greenpoly.cli import (
    UsageError,
    cmd_fakedeg,
    cmd_green,
    cmd_pairing,
    cmd_spin,
    cmd_springer,
    cmd_verify,
    cmd_wg,
)
from greenpoly.lusztigshoji import CactionResult, GreenTableau, SolverError, _inverse_parts
from greenpoly.partitions import distinct_partitions, multiplicities, partitions, sym_char, transpose
from greenpoly.polyq import IntPoly, ONE, ZERO, slot_bits
from greenpoly.spin import (
    PinConstructionError, PinRep, _column_at, sigma_tilde, spin_traces_by_class,
)
from greenpoly.springer import OrbitLabel, component_group, m_representation
from greenpoly.weyl import (
    WeylGroupData, WeylType, _act_ambient, _rho, _sym_column, all_elements, ambient_simple_roots,
    bipartitions, build, delta_elliptic_count, identity_element, label_str, simple_generators, sp_inv,
    sp_mul,
)


# ---------------------------------------------------------------------------
# names only the tests use


def irreducible(g: WeylGroupData, i: int) -> VirtualCharacter:
    """The i-th irreducible as a virtual character."""
    coords = [0] * len(g.irrep_labels)
    coords[i] = 1
    return VirtualCharacter(g, tuple(coords))


def graded_irreducible(g: WeylGroupData, i: int) -> GradedCharacter:
    """The i-th irreducible as a graded character, in degree 0."""
    coords = [ZERO] * len(g.irrep_labels)
    coords[i] = ONE
    return GradedCharacter(g, tuple(coords))


def omega(g: WeylGroupData) -> list:
    """Omega(q) on all the irreducibles, as rows of IntPolys: `charring`'s
    class-sum kernel on the character table with itself, weighted by the
    coinvariant class function."""
    return _class_gram(g, g.char_table, g.char_table, _coinvariant_values(g.type))


def reverse(f: IntPoly, n: int) -> IntPoly:
    """q^n f(1/q); requires n >= deg f."""
    if n < len(f.coeffs) - 1:
        raise ValueError(f"reverse({n}) needs n >= deg = {len(f.coeffs) - 1}")
    return IntPoly((0,) * (n + 1 - len(f.coeffs)) + f.coeffs[::-1])


def sign_twist_space_dimension(family: str, rank: int = 0) -> int:
    """Dimensions of the sgn-symmetrized genuine character space.

    Closed forms in the partitions of the rank for A-D; for G2 it equals the
    number of elliptic delta-twisted classes, which is computed.
    """
    if family == "A":
        return len(distinct_partitions(rank + 1))
    if family in ("B", "C"):
        return len(partitions(rank))
    if family == "D":
        lams = partitions(rank)
        selfconj = sum(1 for l in lams if transpose(l) == l)
        rest = (len(lams) - selfconj) // 2
        return rest + (2 if rank % 2 == 0 else 1) * selfconj
    if family == "G2":
        return delta_elliptic_count(build(WeylType("G2", 2)))
    raise ValueError(f"no reference value for family {family!r}")


def char_formula_check(
    tab: GreenTableau, pin: PinRep, partition, system="triv", tol: float = 1e-8
) -> bool:
    """On (-1)-elliptic classes the ratio of the spin-tensored trace by the
    plain spin trace recovers X_{-1}; elsewhere the spin trace vanishes."""
    j = tab.table.pair_of(partition, system)
    x = _column_at(tab, j, -1)
    st = sigma_tilde(tab, pin, partition, system)
    g = tab.group
    # the ratio identity holds by construction; the content is the support
    # condition: the spin trace is zero (x_0 = 0 exactly) off the (-1)-elliptic set
    for k, full in enumerate(spin_traces_by_class(pin)):
        if g.refl_charpoly[k].eval(-1) != 0:
            if full == 0:
                raise PinConstructionError(
                    f"vanishing spin trace on a (-1)-elliptic class {k}"
                )
            if abs(st.values[k] / full - x.value(k)) > tol:
                return False
        elif full != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# whole-group enumerations


def elements(g: WeylGroupData):
    return all_elements(g.type)


def brute_force_classes(t: WeylType):
    """Orbit partition of the whole group under conjugation by generators."""
    gen_pairs = [(s, sp_inv(s)) for s in simple_generators(t)]
    seen = set()
    orbits = []
    for e in all_elements(t):
        if e in seen:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for w in frontier:
                for s, si in gen_pairs:
                    c = sp_mul(s, sp_mul(w, si))
                    if c not in orbit:
                        orbit.add(c)
                        nxt.append(c)
            frontier = nxt
        seen |= orbit
        orbits.append(orbit)
    return orbits


def std_pairing_elements(a: VirtualCharacter, b: VirtualCharacter) -> int:
    g = a.group
    total = 0
    for w in elements(g):
        k = g.class_of(w)
        total += a.value(k) * b.value(k)
    if total % g.order:
        raise ArithmeticError(f"class sums {[total]} not divisible by |W| = {g.order}")
    return total // g.order


def q_elliptic_pairing_elements(a: GradedCharacter, b: GradedCharacter) -> IntPoly:
    g = a.group
    acc = ZERO
    for w in elements(g):
        k = g.class_of(w)
        acc = acc + a.value(k) * b.value(k) * g.refl_charpoly[k]
    return acc.divexact_int(g.order)


def delta_twist_pairing_direct(a: VirtualCharacter, b: VirtualCharacter) -> int:
    """Sum over elements of a(ww0) b(ww0) det_V(1 - w delta), no substitution."""
    _same_group(a, b)
    g = a.group
    total = 0
    for w in elements(g):
        ww0 = sp_mul(w, g.w0)
        k = g.class_of(ww0)
        # det_V(1 - w delta) with delta = -w0 on V equals det_V(1 + w w0)
        d = g.refl_charpoly[k].eval(-1)
        if d:
            total += a.value(k) * b.value(k) * d
    if total % g.order:
        raise ArithmeticError(f"class sums {[total]} not divisible by |W| = {g.order}")
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


# ---------------------------------------------------------------------------
# G2 and the braid orders before their closed forms


G2_TABLE = {
    #            e   w0 r60 r120 rl  rs
    "triv":    (1,  1,  1,  1,  1,  1),
    "sgn":     (1,  1,  1,  1, -1, -1),
    "chi1":    (1, -1, -1,  1, -1,  1),
    "chi2":    (1, -1, -1,  1,  1, -1),
    "refl":    (2, -2,  1, -1,  0,  0),
    "rot2":    (2,  2, -1, -1,  0,  0),
}

G2_CHARPOLY = {
    "e": IntPoly((1, -2, 1)),
    "rot60": IntPoly((1, -1, 1)),
    "rot120": IntPoly((1, 1, 1)),
    "w0": IntPoly((1, 2, 1)),
    "refl_short": IntPoly((1, 0, -1)),
    "refl_long": IntPoly((1, 0, -1)),
}

# the G2 class of an element of +-S_3 by its signed cycle type
G2_SIGNED_TYPES = {
    "e": ((1, 1, 1), ()),
    "w0": ((), (1, 1, 1)),
    "rot120": ((3,), ()),
    "rot60": ((), (3,)),
    "refl_short": ((2, 1), ()),
    "refl_long": ((2,), (1,)),
}


def braid_order_by_products(t: WeylType, i: int, j: int) -> int:
    """Order of s_i s_j, by multiplying until the identity."""
    gens = simple_generators(t)
    prod = sp_mul(gens[i], gens[j])
    ident = tuple(range(1, len(prod) + 1))
    cur, m = prod, 1
    while cur != ident:
        cur = sp_mul(cur, prod)
        m += 1
    return m


# ---------------------------------------------------------------------------
# class-sum pairings that no production path takes


def std_pairing(a: VirtualCharacter, b: VirtualCharacter) -> int:
    return _pair(a, b, [1] * len(a.group.classes))


def one_pairing(a: VirtualCharacter, b: VirtualCharacter) -> int:
    """The q-elliptic pairing at q = 1 (weighted by det_V(1 - w))."""
    return _pair(a, b, _det_values(a.group, 1))


# ---------------------------------------------------------------------------
# the spin layer's integers by class sums


def spin_pairings_by_class_sums(tab: GreenTableau, pin: PinRep) -> list:
    """a_V < X_{-1}(a), X_{-1}(b) >^{-1} for every two pairs a, b, one class
    sum each: a_V M_ab(-1) on the solved tableau, and on the diagonal the
    norms of `sigma_tilde` and `classify_constituents`."""
    cols = [_column_at(tab, j, -1) for j in range(len(tab.pairs))]
    return [[pin.a_v * minus_one_pairing(x, y) for y in cols] for x in cols]


def index_flags_by_class_sums(tab: GreenTableau, j: int) -> tuple:
    """`spin.dirac_index_char`'s flags: < X_1, X_1 >^1 != 0 and
    < X_{-1}, X_{-1} >^{-1} != 0 for column j."""
    x1, xm = _column_at(tab, j, 1), _column_at(tab, j, -1)
    return one_pairing(x1, x1) != 0, minus_one_pairing(xm, xm) != 0


def alternating_betti_by_class_value(tab: GreenTableau, j: int) -> int:
    """X_{-1}(1): column j at q = -1, valued on the identity class."""
    return _column_at(tab, j, -1).value(tab.group.identity_class)


def tensor_spin_multiplicity_oracle(tab: GreenTableau, source, target) -> int:
    """`spin.tensor_spin_multiplicity` as one class sum: a_V times the
    (-1)-elliptic pairing of the source pair's irreducible with the target
    column at q = -1."""
    g = tab.group
    sigma = irreducible(g, tab.table.pair_irreps[tab.table.pair_of(*source)])
    x = _column_at(tab, tab.table.pair_of(*target), -1)
    a_v = 2 if g.type.rank % 2 else 1
    return a_v * minus_one_pairing(sigma, x)


def k_at_minus_one_inverse(tab: GreenTableau) -> list:
    """K(-1)^{-1} by integer back substitution.  Column j of K holds the
    irreducibles of the pairs i <= j only, with 1 at i = j, so K(-1) is
    upper unitriangular in pair order and its inverse is exact over Z."""
    n = len(tab.pairs)
    K = [[k_entry(tab, i, j).eval(-1) for j in range(n)] for i in range(n)]
    if any(K[i][j] != int(i == j) for i in range(n) for j in range(i + 1)):
        raise ValueError("K(-1) is not upper unitriangular in pair order")
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c - 1, -1, -1):
            inv[r][c] = -sum(K[r][k] * inv[k][c] for k in range(r + 1, c + 1))
    return inv


# ---------------------------------------------------------------------------
# Schur's Q-functions in power sums


def _z(rho) -> int:
    """z_rho = prod_i i^(m_i) m_i!, the order of the centraliser of a
    permutation of cycle type rho."""
    out = 1
    for part, m in multiplicities(rho).items():
        out *= part**m * factorial(m)
    return out


def _times(f: dict, h: dict) -> dict:
    """The product of two symmetric functions, each a dict rho -> the
    coefficient of p_rho."""
    out = {}
    for r, a in f.items():
        for s, b in h.items():
            key = tuple(sorted(r + s, reverse=True))
            out[key] = out.get(key, 0) + a * b
    return out


@lru_cache(maxsize=None)
def _q_one_row(r: int) -> dict:
    """q_r = sum over the rho |- r with only odd parts of 2^l(rho) p_rho / z_rho."""
    return {rho: Fraction(2 ** len(rho), _z(rho)) for rho in partitions(r) if all(p % 2 for p in rho)}


def _q_two_rows(r: int, s: int) -> dict:
    """Q_(r,s) = q_r q_s + 2 sum_{i=1}^{s} (-1)^i q_{r+i} q_{s-i}, r > s >= 0."""
    out = _times(_q_one_row(r), _q_one_row(s))
    for i in range(1, s + 1):
        for rho, c in _times(_q_one_row(r + i), _q_one_row(s - i)).items():
            out[rho] = out.get(rho, 0) + 2 * (-1) ** i * c
    return out


def schur_q(lam) -> dict:
    """Q_lambda in power sums, lambda strict: the Pfaffian of the matrix of
    the Q_(lambda_i, lambda_j), lambda padded with a 0 to even length,
    expanded along its first row."""
    parts = tuple(lam) + ((0,) if len(lam) % 2 else ())

    def pfaffian(rows: tuple) -> dict:
        if not rows:
            return {(): Fraction(1)}
        out = {}
        for k in range(1, len(rows)):
            minor = pfaffian(rows[1:k] + rows[k + 1:])
            for rho, c in _times(_q_two_rows(parts[rows[0]], parts[rows[k]]), minor).items():
                out[rho] = out.get(rho, 0) + (-1) ** (k - 1) * c
        return out

    return pfaffian(tuple(range(len(parts))))


def schur_spin_character(lam) -> dict:
    """X^lambda_rho for each rho where it is nonzero, from
    Q_lambda = sum_rho 2^l(rho) z_rho^-1 X^lambda_rho p_rho; an integer."""
    out = {}
    for rho, c in schur_q(lam).items():
        x = c * _z(rho) / 2 ** len(rho)
        if x.denominator != 1:
            raise ArithmeticError(f"X^{lam} at {rho} is {x}, not an integer")
        if x:
            out[rho] = int(x)
    return out


# ---------------------------------------------------------------------------
# partitions before the abacus bitmask


def dominates(lam, mu) -> bool:
    """lam >= mu in dominance order (both partitions of the same number)."""
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def hooks(lam, r: int):
    """All ways to remove an r-rim-hook; yields (smaller partition, leg length).

    Works on beta numbers: removing an r-hook moves one bead down by r on the
    abacus, and the leg length counts the beads jumped over.  The beads are
    kept in decreasing order, so the moved bead is slotted in after the ones
    it jumps, with no sort.
    """
    m = len(lam)
    beta = [p + m - 1 - i for i, p in enumerate(lam)]
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0:
            continue
        j = i + 1
        while j < m and beta[j] > nb:
            j += 1
        if j < m and beta[j] == nb:
            continue
        new_beta = beta[:i] + beta[i + 1:j] + [nb] + beta[j:]
        smaller = tuple(v - (m - 1 - k) for k, v in enumerate(new_beta) if v > m - 1 - k)
        yield smaller, j - i - 1


@lru_cache(maxsize=None)
def _signed_hooks(lam, r: int) -> tuple:
    """The r-rim-hooks of lam, as (smaller partition, (-1)^leg), found once."""
    return tuple((smaller, -1 if leg % 2 else 1) for smaller, leg in hooks(lam, r))


@lru_cache(maxsize=None)
def sym_char_by_hooks(lam, mu) -> int:
    """Character of the S_n irrep lam at cycle type mu, by the recursion over
    the rim hooks of `hooks`; 0 when |lam| != |mu|."""
    if not mu:
        return 1 if not lam else 0
    rest = mu[1:]
    return sum(sign * sym_char_by_hooks(smaller, rest) for smaller, sign in _signed_hooks(lam, mu[0]))


# ---------------------------------------------------------------------------
# earlier kernels


def bc_column_per_term(pos, neg) -> tuple:
    """`weyl._bc_column` with one `sym_char` product per term and irreducible."""
    n = sum(pos) + sum(neg)
    groups = [(c, m, 1) for c, m in multiplicities(pos).items()]
    groups += [(c, m, -1) for c, m in multiplicities(neg).items()]
    by_size = [{} for _ in range(n + 1)]  # |rho_alpha| -> {(rho_alpha, rho_beta): coef}
    for ks in itertools.product(*(range(m + 1) for _, m, _ in groups)):
        coef, to_a, to_b = 1, [], []
        for (c, m, sign), k in zip(groups, ks):
            coef *= comb(m, k) * sign ** (m - k)
            to_a += [c] * k
            to_b += [c] * (m - k)
        key = tuple(sorted(to_a, reverse=True)), tuple(sorted(to_b, reverse=True))
        terms = by_size[sum(to_a)]
        terms[key] = terms.get(key, 0) + coef
    return tuple(
        sum(coef * sym_char(alpha, ra) * sym_char(beta, rb)
            for (ra, rb), coef in by_size[sum(alpha)].items() if coef)
        for alpha, beta in bipartitions(n)
    )


@lru_cache(maxsize=None)
def bc_column_outer_products(pos, neg) -> tuple:
    """`weyl._bc_column` by list outer products of whole S_k columns."""
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


# ---------------------------------------------------------------------------
# the solver before the packed store


def _packed(v, b: int) -> int:
    return v.pack(b) if isinstance(v, IntPoly) else v


def _norm_inf(v) -> int:
    return v.norm_inf() if isinstance(v, IntPoly) else abs(v)


def _norm1(v) -> int:
    return v.norm1() if isinstance(v, IntPoly) else abs(v)


def class_gram(g, rows_a, rows_b, weight) -> list:
    """(1/|W|) sum_k |C_k| a(w_k) b(w_k) weight_k on values packed at the
    exact width of this call's inputs, one packed dot product per entry.
    Entries are IntPolys if any value is one, else ints."""
    graded = any(isinstance(v, IntPoly) for v in itertools.chain(weight, *rows_a, *rows_b))
    sizes = [cls.size for cls in g.classes]
    sup_a = [max(map(_norm_inf, col)) for col in zip(*rows_a)]
    one_b = [max(map(_norm1, col)) for col in zip(*rows_b)]
    bound = sum(map(mul, map(mul, sizes, sup_a), map(mul, one_b, map(_norm1, weight))))
    b = slot_bits(bound)
    sized = [s * _packed(w, b) for s, w in zip(sizes, weight)]
    packed_a = [[_packed(v, b) for v in row] for row in rows_a]
    weighted_b = [[s * _packed(v, b) for s, v in zip(sized, row)] for row in rows_b]
    gram = [
        [IntPoly.unpack(sum(map(mul, row, bw)), b).divexact_int(g.order) for bw in weighted_b]
        for row in packed_a
    ]
    return gram if graded else [[e[0] for e in row] for row in gram]


def symmetric_class_gram(g: WeylGroupData, rows, weight) -> list:
    """The Gram of rows with itself, every entry taken alone by `class_gram`
    (the kernel takes one row per orbit of the twists and fills the rest)."""
    return class_gram(g, rows, rows, weight)


def matmul(A, B) -> list:
    """Dense A*B: entry (i, j) is one dot product of packed A_i and packed B_j."""
    bound = sum(
        max(a.norm_inf() for a in col_a) * max(b.norm1() for b in row_b)
        for col_a, row_b in zip(zip(*A), B)
    )
    b = slot_bits(bound)
    packed_cols = [[e.pack(b) for e in col] for col in zip(*B)]
    return [
        [IntPoly.unpack(sum(map(mul, row, col)), b) for col in packed_cols]
        for row in ([e.pack(b) for e in row] for row in A)
    ]


def solve_per_block(table) -> SimpleNamespace:
    """The coords, class values, M, Lambda and p of
    `lusztigshoji.solve(table, check=False)`, block by block."""
    g = table.group
    nirr = len(g.irrep_labels)
    pair_irrep = table.pair_irreps
    weight = g.refl_charpoly
    coords, class_values, blocks, block_inverse = [], [], [], {}
    for orbit, rec in enumerate(table.orbits):
        start = len(coords)
        members = range(start, start + len(rec.systems))
        proj = class_gram(g, [g.char_table[pair_irrep[j]] for j in members], class_values, weight)
        earlier = [coords[jp] + class_values[jp] for jp in range(start)]
        for j, u_all in zip(members, proj):
            sigma = pair_irrep[j]
            base = [ZERO] * nirr + [IntPoly((x,)) for x in g.char_table[sigma]]
            base[sigma] = ONE
            terms = [(ONE, base)]
            for prev_orbit, prev_members in blocks:
                u = u_all[prev_members.start : prev_members.stop]
                if any(u):
                    adj, det = block_inverse[prev_orbit]
                    for adj_row, jp in zip(adj, prev_members):
                        c = sum(map(mul, adj_row, u), ZERO).divexact(det)
                        if c:
                            terms.append((-c, earlier[jp]))
            (col,) = matmul([[c for c, _ in terms]], [row for _, row in terms])
            coords.append(tuple(col[:nirr]))
            class_values.append(tuple(col[nirr:]))
        block_values = class_values[start:]
        block_inverse[orbit] = _inverse_parts(class_gram(g, block_values, block_values, weight), "block")
        blocks.append((orbit, members))
    n = len(coords)
    p = poincare_poly(g)
    Lam = [[ZERO] * n for _ in range(n)]
    for orbit, members in blocks:
        adj, det = block_inverse[orbit]
        for adj_row, a in zip(adj, members):
            for x, b in zip(adj_row, members):
                Lam[a][b] = (x * p).divexact(det)
    M = class_gram(g, class_values, class_values, weight)
    return SimpleNamespace(coords=tuple(coords), class_values=class_values, M=M, Lam=Lam, p=p)


def k_entry(tab: GreenTableau, i: int, j: int) -> IntPoly:
    """Graded multiplicity of the i-th pair's irreducible in column j of K."""
    return tab.coords[j][tab.table.pair_irreps[i]]


def _k_by_entries(tab: GreenTableau) -> list:
    """K, entry (i, j) the i-th pair's irreducible in column j."""
    n = len(tab.pairs)
    return [[k_entry(tab, i, j) for j in range(n)] for i in range(n)]


def dense_support_checks(tab: GreenTableau) -> list:
    """The unitriangular_support, green_positivity and
    cross_orbit_orthogonality entries of `verify`, each from a loop over all
    n^2 entries of K or M."""
    K = _k_by_entries(tab)
    n = len(tab.pairs)
    greater = tab.table.greater
    out = []
    bad = []
    for i in range(n):
        for j in range(n):
            oi, oj = tab.pairs[i][0], tab.pairs[j][0]
            e = K[i][j]
            if i == j:
                if e != ONE:
                    bad.append((i, j, "diagonal not 1"))
            elif oi == oj or (oi, oj) not in greater:
                if not e.is_zero():
                    bad.append((i, j, "support outside closure order"))
    out.append(("unitriangular_support", not bad, bad[:4]))
    bad = []
    for i in range(n):
        for j in range(n):
            if any(c < 0 for c in K[i][j].coeffs):
                bad.append((i, j, str(K[i][j])))
    out.append(("green_positivity", not bad, bad[:4]))
    bad = []
    for a in range(n):
        for b in range(n):
            if tab.pairs[a][0] != tab.pairs[b][0] and not tab.M[a][b].is_zero():
                bad.append((a, b))
    out.append(("cross_orbit_orthogonality", not bad, bad[:4]))
    return out


def dense_product_checks(tab: GreenTableau) -> list:
    """The lambda_m_product and kl_equation entries of `verify`, from dense
    packed products with every entry unpacked."""
    n = len(tab.pairs)
    LM = matmul(tab.Lam, tab.M)
    bad = next(
        ((i, j) for i in range(n) for j in range(n)
         if LM[i][j] != (tab.p if i == j else ZERO)),
        None,
    )
    K = _k_by_entries(tab)
    KLK = matmul(matmul(K, tab.Lam), [list(col) for col in zip(*K)])
    rows, irr = omega(tab.group), tab.table.pair_irreps
    kl_bad = [(i, j) for i in range(n) for j in range(n) if KLK[i][j] != rows[irr[i]][irr[j]]]
    return [("lambda_m_product", bad is None, bad), ("kl_equation", not kl_bad, kl_bad[:4])]


# ---------------------------------------------------------------------------
# the twisted-trace check class by class


def caction_check_by_class(tab: GreenTableau) -> CactionResult:
    """eps * X_q(e,phi)(w) = (-1)^{d_e} sgn(w0) X_{-q}(e,phi)(w0 w) tested on
    every class w, from each column's class values."""
    g = tab.group
    if not g.delta_is_trivial():
        raise SolverError("twisted-trace check requires w0 central")
    sgn_w0 = g.char_table[g.sgn_index][g.class_of(g.w0)]
    w0_times = [g.class_of(sp_mul(g.w0, cls.representative)) for cls in g.classes]
    twists = {}
    ok = True
    for j, (orbit, _) in enumerate(tab.pairs):
        values = GradedCharacter(g, tab.coords[j]).values
        base = (-1) ** tab.table.orbits[orbit].d_e * sgn_w0
        good_eps = 0
        for eps in (1, -1):
            if all(values[k] * eps == values[kk].negate_q() * base
                   for k, kk in enumerate(w0_times)):
                good_eps = eps
                break
        ok = ok and good_eps != 0
        twists[tab.pair_name(j)] = good_eps
    return CactionResult(ok, twists, ok and all(v == 1 for v in twists.values()))


# ---------------------------------------------------------------------------
# Kostka-Foulkes polynomials by charge


def _horizontal_strips(shape: tuple, size: int):
    """The shapes nu containing `shape` with nu/shape a horizontal strip of
    `size` boxes: row i grows by at most shape[i-1] - shape[i]."""
    rows = list(shape) + [0]

    def grow(i, left):
        if i == len(rows):
            if not left:
                yield ()
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for k in range(room + 1):
            for rest in grow(i + 1, left - k):
                yield (rows[i] + k,) + rest

    for nu in grow(0, size):
        yield tuple(x for x in nu if x)


def ssyt(shape: tuple, content: tuple) -> list:
    """The semistandard tableaux of `shape` with `content` (the letters r
    appear content[r-1] times), each as a tuple of rows."""
    chains = [((), ())]  # (shape so far, tableau so far)
    for letter, count in enumerate(content, 1):
        nxt = []
        for inner, rows in chains:
            for outer in _horizontal_strips(inner, count):
                if all(i < len(shape) and x <= shape[i] for i, x in enumerate(outer)):
                    padded = list(rows) + [()] * (len(outer) - len(rows))
                    nxt.append((outer, tuple(
                        row + (letter,) * (x - len(row)) for row, x in zip(padded, outer)
                    )))
        chains = nxt
    return [rows for outer, rows in chains if outer == tuple(shape)]


def charge(word) -> int:
    """Charge of a word whose content is a partition: split off standard
    subwords, each found by reading right to left, cyclically, for 1, 2, ...;
    a letter's index is its predecessor's, plus 1 if the search for it
    wrapped around; the charge is the sum of all indices."""
    word = list(word)
    total = 0
    while word:
        used, pos, index = set(), len(word), 0
        for letter in range(1, max(word) + 1):
            # the first unused copy of the letter left of pos, else from the right end
            left = [i for i in range(pos - 1, -1, -1) if i not in used and word[i] == letter]
            if not left:
                index += letter > 1
                left = [i for i in range(len(word) - 1, pos - 1, -1)
                        if i not in used and word[i] == letter]
            pos = left[0]
            used.add(pos)
            total += index
        word = [x for i, x in enumerate(word) if i not in used]
    return total


def kostka_foulkes(shape: tuple, content: tuple) -> IntPoly:
    """K_{shape,content}(q) = sum of q^charge(T) over T in SSYT(shape, content),
    T read row by row from the bottom row up, each row left to right."""
    total = ZERO
    for rows in ssyt(tuple(shape), tuple(content)):
        word = [x for row in reversed(rows) for x in row]
        total = total + IntPoly((0,) * charge(word) + (1,))
    return total


# ---------------------------------------------------------------------------
# the green --json payload with a dict per polynomial


def to_json(f: IntPoly) -> dict:
    """The JSON object `cli._json_text` writes for f, as a dict for
    `json.dumps`: its coefficients, lowest first, as strings."""
    return {"coeffs": [str(c) for c in f.coeffs]}


def tableau_payload_dicts(tab: GreenTableau) -> dict:
    g = tab.group
    return {
        "pairs": [tab.pair_name(j) for j in range(len(tab.pairs))],
        "irreps": [label_str(l) for l in g.irrep_labels],
        "K_columns": [
            {
                "pair": tab.pair_name(j),
                "coords": {
                    label_str(g.irrep_labels[i]): to_json(c)
                    for i, c in enumerate(tab.coords[j])
                    if c
                },
            }
            for j in range(len(tab.pairs))
        ],
        "M": [[to_json(e) for e in row] for row in tab.M],
        "Lambda": [[to_json(e) for e in row] for row in tab.Lam],
        "p": to_json(tab.p),
        "notes": tab.notes,
    }


# ---------------------------------------------------------------------------
# the argparse command line


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--type", dest="family", choices=["A", "B", "C", "D", "G2"])
    common.add_argument("--rank", type=int)
    common.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
    common.add_argument("--json", action="store_true")
    common.add_argument("--data-dir", default=None)
    common.add_argument("--tolerance", type=float, default=1e-8)

    p = _Parser(prog="greenpoly", parents=[common])
    sub = p.add_subparsers(dest="verb", required=True)

    wg = sub.add_parser("wg", parents=[common])
    wg.add_argument("what", choices=["classes", "chartable"])
    wg.set_defaults(func=cmd_wg)

    pairing = sub.add_parser("pairing", parents=[common])
    pairing.add_argument("what", choices=["gram"])
    pairing.add_argument("--form", choices=["qell", "minusone", "delta"], default="qell")
    pairing.set_defaults(func=cmd_pairing)

    fakedeg = sub.add_parser("fakedeg", parents=[common])
    fakedeg.set_defaults(func=cmd_fakedeg)

    springer = sub.add_parser("springer", parents=[common])
    springer.add_argument("what", choices=["show", "load"])
    springer.add_argument("file", nargs="?")
    springer.set_defaults(func=cmd_springer)

    green = sub.add_parser("green", parents=[common])
    green.set_defaults(func=cmd_green)

    ver = sub.add_parser("verify", parents=[common])
    ver.add_argument("what", choices=["ls", "all"])
    ver.set_defaults(func=cmd_verify)

    sp = sub.add_parser("spin", parents=[common])
    sp.add_argument("what", choices=["sigma", "classify", "index"])
    sp.add_argument("--orbit")
    sp.add_argument("--phi", default="triv")
    sp.set_defaults(func=cmd_spin)
    return p


# ---------------------------------------------------------------------------
# the (q,M)-pairing as a sum over A(e)


def _chi(m: int, x: int) -> int:
    """chi_m(x) = (-1)^|m & x|, the character m of (Z/2)^k at x."""
    return -1 if bin(m & x).count("1") % 2 else 1


def m_trace(lines, x: int) -> IntPoly:
    """tr_M(x) = prod (1 - q^d chi_m(x)) over the lines (d, m) of M."""
    out = ONE
    for d, m in lines:
        out = out * IntPoly((1,) + (0,) * (d - 1) + (-_chi(m, x),))
    return out


def q_M_gram_by_traces(label: OrbitLabel) -> list:
    """G[a][b] = (1/|A|) sum_x chi_a(x) chi_b(x) tr_M(x) over the characters
    a, b of A(e), summed over its 2^k elements."""
    size = 1 << component_group(label).k
    traces = [m_trace(m_representation(label), x) for x in range(size)]

    def entry(a, b):
        return sum((t * (_chi(a, x) * _chi(b, x)) for x, t in enumerate(traces)), ZERO).divexact_int(size)

    return [[entry(a, b) for b in range(size)] for a in range(size)]


# ---------------------------------------------------------------------------
# reduced words


def reduced_word_by_inverses(g: WeylGroupData, w) -> tuple:
    """The word of the least right descents of w, taking w^-1(rho) afresh
    from the product so far at each letter: one `sp_inv` and one action per
    letter.  RuntimeError past N letters or with no descent."""
    t = g.type
    roots, gens, rho = ambient_simple_roots(t), simple_generators(t), _rho(t)
    longest = sum(g.degrees) - len(g.degrees)
    word, ident, cur = [], identity_element(t), w
    while cur != ident and len(word) < longest:
        back = _act_ambient(sp_inv(cur), rho)
        i = next((i for i, alpha in enumerate(roots) if sum(map(mul, alpha, back)) < 0), None)
        if i is None:
            break
        word.append(i)
        cur = sp_mul(cur, gens[i])
    if cur != ident:
        raise RuntimeError(f"no reduced word for {w} in type {t}")
    return tuple(reversed(word))


def coinvariant_character(g: WeylGroupData) -> GradedCharacter:
    """The coinvariant algebra as a graded character: its coordinates are
    the fake degrees."""
    return GradedCharacter(g, tuple(charring.fake_degree(g, i) for i in range(len(g.irrep_labels))))


def chevalley_failure_by_polynomials(g: WeylGroupData):
    """The first class where the coinvariant character times det_V(1 - qw)
    differs from p(q), or None, compared as polynomials."""
    p = charring.poincare_poly(g)
    x1 = coinvariant_character(g)
    return next(
        (k for k in range(len(g.classes)) if x1.value(k) * g.refl_charpoly[k] != p),
        None,
    )


def reflects_on_each_coordinate(roots) -> bool:
    """Whether alpha e_j alpha = N e_j - 2 alpha_j alpha, N = |alpha|^2, for
    every root alpha of roots and every coordinate j, one Clifford product
    per coordinate: the lift alpha/|alpha| projects to the reflection s_alpha."""
    for r in roots:
        alpha = spin._times({0: 1}, r)
        for j in range(len(r)):
            image = spin._times(spin._times(alpha, (0,) * j + (1,)), r)
            target = spin._times({0: 1}, tuple(sum(a * a for a in r) * (k == j) - 2 * r[j] * x
                                              for k, x in enumerate(r)))
            if image != target:
                return False
    return True
