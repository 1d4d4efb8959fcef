"""Slower paths kept as test oracles for the production ones.

Whole-group enumerations: `elements` and `brute_force_classes` list the group
and its conjugacy classes, and the `*_elements` / `*_direct` pairings sum over
group elements instead of classes.

Earlier kernels: `bc_column_per_term` is the B_n character column with one
`sym_char` call per term; `symmetric_class_gram` is the Gram of a list of
rows with itself, one packed dot product per entry j >= i (a one-shot
`charring.ClassRows` with the rows as its probes).

The solver before the packed store: `solve_per_block` is the
orthogonalisation as it ran when each orbit block called the class-sum
kernel afresh: every block packs all earlier class values again at a width
of its own, and each column is one dense packed row product over all earlier
columns.  `dense_product_checks` computes the two matrix identities of
`lusztigshoji.verify` from dense packed products.  Both share no arithmetic
with the packed store or the sparse products they check.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import mul

from greenpoly.charring import (
    ClassRows,
    GradedCharacter,
    VirtualCharacter,
    _same_group,
    irreducible,
    minus_one_gram,
    poincare_poly,
)
from greenpoly.lusztigshoji import (
    GreenTableau,
    _inverse_parts,
    omega_on_pairs,
)
from greenpoly.partitions import multiplicities, sym_char
from greenpoly.polyq import IntPoly, ONE, ZERO, slot_bits
from greenpoly.weyl import WeylGroupData, WeylType, _inv, _mul, all_elements, bipartitions, simple_generators


# ---------------------------------------------------------------------------
# whole-group enumerations


def elements(g: WeylGroupData):
    return all_elements(g.type)


def brute_force_classes(t: WeylType):
    """Orbit partition of the whole group under conjugation by generators."""
    mul_, inv = _mul(t), _inv(t)
    gen_pairs = [(s, inv(s)) for s in simple_generators(t)]
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
                    c = mul_(s, mul_(w, si))
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
        ww0 = g.mul(w, g.w0)
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


def symmetric_class_gram(g: WeylGroupData, rows, weight) -> list:
    """The Gram of rows with itself from a one-shot `ClassRows` that holds
    the rows and has them as its probes: each entry j >= i one packed dot
    product, the rest mirrored."""
    graded = any(isinstance(v, IntPoly) for v in itertools.chain(weight, *rows))
    store = ClassRows(g, weight, graded, probes=rows)
    store.extend(rows)
    gram = []
    for i, a in enumerate(map(store.pack, rows)):
        gram.append([gram[m][i] for m in range(i)] + [store.pair(a, j) for j in range(i, len(rows))])
    return gram


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
    exact width of this call's inputs; graded weights only."""
    sizes = [cls.size for cls in g.classes]
    sup_a = [max(map(_norm_inf, col)) for col in zip(*rows_a)]
    one_b = [max(map(_norm1, col)) for col in zip(*rows_b)]
    bound = sum(map(mul, map(mul, sizes, sup_a), map(mul, one_b, map(_norm1, weight))))
    b = slot_bits(bound)
    sized = [s * _packed(w, b) for s, w in zip(sizes, weight)]
    packed_a = [[_packed(v, b) for v in row] for row in rows_a]
    weighted_b = [[s * _packed(v, b) for s, v in zip(sized, row)] for row in rows_b]
    return [
        [IntPoly.unpack(sum(map(mul, row, bw)), b).divexact_int(g.order) for bw in weighted_b]
        for row in packed_a
    ]


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


def solve_per_block(table) -> GreenTableau:
    """The tableau of `lusztigshoji.solve(table, check=False)`, block by block."""
    g = table.group
    nirr = len(g.irrep_labels)
    pair_irrep = table.pair_irreps()
    weight = g.refl_charpoly
    coords, class_values, blocks, block_inverse = [], [], [], {}
    for orbit, rec in enumerate(table.orbits):
        start = len(coords)
        members = range(start, start + len(rec.systems))
        proj = class_gram(g, [g.char_table[pair_irrep[j]] for j in members], class_values, weight)
        earlier = [coords[jp] + class_values[jp] for jp in range(start)]
        for j, u_all in zip(members, proj):
            sigma = pair_irrep[j]
            base = [ZERO] * nirr + [IntPoly.const(x) for x in g.char_table[sigma]]
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
    return GreenTableau(table, g, table.pairs(), coords, class_values, M, Lam, p)


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
    K = tab.k_matrix()
    KLK = matmul(matmul(K, tab.Lam), [list(col) for col in zip(*K)])
    omega = omega_on_pairs(tab)
    kl_bad = [(i, j) for i in range(n) for j in range(n) if KLK[i][j] != omega[i][j]]
    return [("lambda_m_product", bad is None, bad), ("kl_equation", not kl_bad, kl_bad[:4])]
