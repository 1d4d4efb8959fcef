"""Block Gram-Schmidt solution of K(q) L(q) K(q)^t = Omega(q).

Orbits are processed largest-first in a linear extension of the closure
order.  Each column starts as the basis vector of its assigned irreducible
and is made orthogonal, under the q-elliptic form, to the span of every
previously completed orbit block; within-block columns are left alone, so
the block Gram matrices come out as they are.  Everything is exact and
stays in Z[q]: each block Gram G is inverted up to its determinant,
G^{-1} = adj(G) / det(G) (`polyq.adjugate`), so a projection coefficient is
(adj u) / det and a Lambda block is (adj p) / det, each an exact polynomial
division that raises SolverError when the quotient leaves Z[q].  A block of
size 1, which is every block of GL(n), has adjugate [[1]]: its coefficient
is u / det and its Lambda entry p / det, with no product by 1.

A column is one packed row (`polyq.PackedRows`): its coordinates over the
irreducibles, then its pairings with every irreducible, V[j][a] =
<chi_a, column j>^q.  Pairings are bilinear, so the irreducible chi_sigma
is the row (e_sigma, G[sigma]), G the q-elliptic Gram of the irreducibles
(taken once per type), and column j, the irreducible minus a combination of
earlier columns, is the same combination of rows: one packed
multiply-subtract gives K's column and V[j] at once, with no class value
and no class sum.  A projection reads its pairings from V.  M comes from V
by bilinearity, M_ij = sum_a K_ai V[j][a] over the a where both factors are
nonzero (`_gram_column`): an entry within a block is the lookup
V[j][sigma_i] once column j pairs to zero with every earlier irreducible,
and an entry across orbits is then an empty sum; a column that does not
pair to zero gets those entries in full.  So M holds true pairings, which
`cross_orbit_orthogonality` checks.  The tableau keeps V as
`GreenTableau.pairings`, which `spin` reads at q = -1.  No check forms a
class value of a column: the twisted-trace identity is checked on the
coordinates (`caction_check`).

`verify` walks the nonzero entries of K, M and Lambda (`nonzero_positions`)
rather than all n^2 of them: the support and cross-orbit checks read only
nonzero entries, and green positivity takes one least coefficient of K and
lists witnesses only when it is negative.  It checks Lambda M = p I and
K Lambda K^t = Omega each at one point q = 2^b, where b holds every
coefficient of both sides (`lm_width`, `kl_width`): only nonzero entries are
packed, the products skip zero factors (`polyq.sparse_matmul`), and
Omega(2^b) is one integer class-sum Gram of the pairs' irreducibles
(`charring.omega_at`), so Omega's polynomials are never formed.  Omega is
symmetric by construction, and K Lambda K^t is symmetric whenever Lambda is,
so once Lambda is found symmetric only the entries of K Lambda K^t on and
above the diagonal are compared; a Lambda that is not symmetric gets every
entry compared.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import mul

from .charring import GradedCharacter, fake_degree, omega_at, omega_bound, poincare_poly, qell_rows
from .polyq import (
    IntPoly,
    ONE,
    ZERO,
    PackedRows,
    adjugate,
    coeffs,
    nonzero_positions,
    row_norm,
    slot_bits,
    sparse_matmul,
)
from .springer import SpringerTable, q_M_gram


class SolverError(RuntimeError):
    pass


class GreenTableau:
    def __init__(self, table: SpringerTable, coords: list, pairings: list, M: list,
                 Lam: list, p: IntPoly, notes: dict | None = None):
        self.table = table
        self.group = table.group
        self.pairs = table.pairs  # (orbit index, system index), numbered by the table
        self.coords = tuple(coords)  # per pair: tuple of IntPoly over irreps (the K column)
        self.pairings = tuple(pairings)  # per pair: tuple over irreps a of <chi_a, column>^q
        self.M = M  # full Gram matrix of q-elliptic pairings, IntPoly
        self.Lam = Lam  # block-diagonal, IntPoly
        self.p = p
        self.notes = {} if notes is None else notes

    def pair_name(self, j: int) -> str:
        o, s = self.pairs[j]
        rec = self.table.orbits[o]
        return f"{rec.label.partition}:{rec.systems[s].label}"

    def k_matrix(self):
        irr = self.table.pair_irreps
        return [list(row) for row in zip(*([col[a] for a in irr] for col in self.coords))]


def _inverse_parts(rows, what: str) -> tuple:
    """(adj, det) of a square block with det != 0, for exact division by det."""
    try:
        return adjugate(rows)
    except ZeroDivisionError:
        raise SolverError(f"singular {what}")


def _gram_column(coords, supports, vj) -> list:
    """<col_i, col_j>^q for every column i <= j, from the pairings vj of
    column j with the irreducibles.

    Column i is sum_a K_ai chi_a, so <col_i, col_j> = sum_a K_ai vj[a] by
    bilinearity, summed over the a where both factors are nonzero (supports
    lists the a with K_ai != 0).  K_ai is nonzero only for the irreducibles
    of column i and of the columns before it.  So once column j pairs to
    zero with the irreducibles of every earlier block, each entry across
    orbits is an empty sum, and one within a block is the lookup
    vj[sigma_i]; a column that does not pair to zero gets its cross-orbit
    entries in full.
    """
    nonzero = set(nonzero_positions(vj))
    return [
        sum((k_i[a] * vj[a] for a in support & nonzero), ZERO)
        for k_i, support in zip(coords, supports)
    ]


def solve(table: SpringerTable, check: bool = True) -> GreenTableau:
    """Run the triangular orthogonalization and verify the outcome.

    With check=False the `verify` suite is not run, so a caller can report
    every failed identity itself instead of stopping at the first
    `SolverError`.
    """
    g = table.group
    nirr = len(g.irrep_labels)
    pairs, pair_irrep, blocks = table.pairs, table.pair_irreps, table.blocks
    gram = qell_rows(g.type)
    # a column is its coordinates over the irreducibles, then its pairings
    # with them; both are linear in the column, so one combination gives both
    store = PackedRows()
    npairs = len(pairs)
    coords: list = []  # K's columns: each column's coordinates
    supports: list = []  # per column, the irreducibles where it is nonzero
    V: list = []  # V[j][a] = <chi_a, column j>^q, taken once per column
    M = [[ZERO] * npairs for _ in range(npairs)]
    block_inverse: list = []  # per finished orbit, (adjugate, determinant) of its Gram block

    for orbit, members in enumerate(blocks):
        for j in members:
            sigma = pair_irrep[j]
            # earlier blocks are mutually orthogonal, so the irreducible is
            # projected onto each of them on its own
            terms = []
            for prev_orbit, (prev_members, (adj, det)) in enumerate(zip(blocks, block_inverse)):
                u = [V[jp][sigma] for jp in prev_members]
                if not any(u):
                    continue
                if (prev_orbit, orbit) not in table.greater:
                    raise SolverError(
                        f"pair {pairs[j]} projects onto orbit "
                        f"{table.orbits[prev_orbit].label.partition}, which is "
                        "not above it in the closure order"
                    )
                # a block of size 1 has adjugate [[1]]: its numerator is u
                nums = u if len(u) == 1 else [sum(map(mul, adj_row, u), ZERO) for adj_row in adj]
                for num, jp in zip(nums, prev_members):
                    try:
                        c = num.divexact(det)
                    except ValueError:
                        raise SolverError(
                            f"non-polynomial expansion coefficient ({num})/({det}) "
                            f"at pair {pairs[j]} against {pairs[jp]}"
                        )
                    if c:
                        terms.append((c, jp))
            # the column is its irreducible minus sum c * (earlier column),
            # and its pairings those of the irreducible, a row of the Gram,
            # minus the same sum of the earlier columns' pairings
            base = [ZERO] * nirr + list(gram[sigma])
            base[sigma] = ONE
            row = store.combine(base, terms)
            col = row[:nirr]
            coords.append(col)
            supports.append(set(nonzero_positions(col)))
            V.append(row[nirr:])
            for i, x in enumerate(_gram_column(coords, supports, V[j])):
                M[i][j] = M[j][i] = x
        block_inverse.append(_inverse_parts(
            [[M[a][b] for b in members] for a in members],
            f"within-orbit Gram block at orbit {table.orbits[orbit].label.partition}",
        ))

    p = poincare_poly(g)
    Lam = [[ZERO] * npairs for _ in range(npairs)]
    for members, (adj, det) in zip(blocks, block_inverse):
        for adj_row, a in zip(adj, members):
            for x, b in zip(adj_row, members):
                num = p if len(members) == 1 else x * p
                try:
                    Lam[a][b] = num.divexact(det)
                except ValueError:
                    raise SolverError(
                        "Lambda entry is not an integer polynomial at "
                        f"{pairs[a]},{pairs[b]}: ({num})/({det})"
                    )

    tab = GreenTableau(
        table=table,
        coords=map(tuple, coords),
        pairings=map(tuple, V),
        M=M,
        Lam=Lam,
        p=p,
        notes={
            "lambda_normalization": (
                "Lambda = p * M^{-1} blockwise; the overall q-power depends on "
                "the isogeny class and is not fixed here"
            )
        },
    )
    if check:
        failures = [name for name, ok, _ in verify(tab) if not ok]
        if failures:
            raise SolverError(f"verification failed: {failures}")
    return tab


# ---------------------------------------------------------------------------
# checks


def kl_width(tab: GreenTableau, K) -> int:
    """A slot width b that holds every coefficient of K Lambda K^t and of
    Omega on the pairs, so both sides of `kl_equation` are equal exactly
    when they are equal at q = 2^b.

    A coefficient of (K Lambda K^t)_ij is at most sum over Lambda_kl != 0 of
    max_i |K_ik|_inf |Lambda_kl|_1 max_j |K_jl|_1, and one of Omega_ij at
    most `omega_bound` of the pairs' irreducibles.  Each norm of K's column
    k is one C-level scan of its coefficients.
    """
    cols = list(zip(*K))
    sup_k = list(map(row_norm, cols))
    one_k = [max(map(sum, map(map, repeat(abs), map(coeffs, col))), default=0) for col in cols]
    klk = sum(
        s * row[k].norm1() * one_k[k]
        for s, row in zip(sup_k, tab.Lam)
        for k in nonzero_positions(row)
    )
    return slot_bits(max(klk, omega_bound(tab.group, tab.table.pair_irreps)))


def lm_width(tab: GreenTableau, lam_support, m_support) -> int:
    """A slot width b that holds every coefficient of Lambda M and of p, so
    `lambda_m_product` holds exactly when it holds at q = 2^b.

    A coefficient of (Lambda M)_ij is at most
    sum_k |Lambda_ik|_inf |M_kj|_1 <= max_i sum_k |Lambda_ik|_inf * max |M_kj|_1;
    lam_support and m_support list the nonzero positions of each row.
    """
    lam = max(
        (sum(row[k].norm_inf() for k in support) for row, support in zip(tab.Lam, lam_support)),
        default=0,
    )
    m = max(
        (row[j].norm1() for row, support in zip(tab.M, m_support) for j in support),
        default=0,
    )
    return slot_bits(max(lam * m, tab.p.norm_inf()))


def _packed(rows, supports, b: int) -> list:
    """The rows at q = 2^b, as ints: only the nonzero entries, at the
    positions supports lists, are packed, and every other entry is 0."""
    out = []
    for row, support in zip(rows, supports):
        packed = [0] * len(row)
        for k in support:
            packed[k] = row[k].pack(b)
        out.append(packed)
    return out


def verify(tab: GreenTableau):
    """Exact verification suite; returns (name, ok, detail) triples.

    The support checks walk the nonzero entries of K and M, and green
    positivity looks entry by entry only once the least coefficient of K is
    negative.  lambda_m_product and kl_equation compare both sides at
    q = 2^b (`lm_width`, `kl_width`), on packed nonzero entries.  Omega is
    symmetric by construction, a class-sum Gram of the pairs' rows with
    themselves, and when Lambda is symmetric so is K Lambda K^t; then an
    entry below the diagonal fails exactly when its mirror does, so only
    the entries on and above it are compared and the failures are
    mirrored.  A Lambda that is not symmetric gets every entry compared.
    """
    out = []
    K = tab.k_matrix()
    n = len(tab.pairs)
    table = tab.table
    orbit_of = [o for o, _ in tab.pairs]
    k_support = [nonzero_positions(row) for row in K]

    bad = []
    for i, (row, support) in enumerate(zip(K, k_support)):
        oi = orbit_of[i]
        if row[i] != ONE:
            bad.append((i, i, "diagonal not 1"))
        bad += [
            (i, j, "support outside closure order")
            for j in support
            if j != i and (oi == orbit_of[j] or (oi, orbit_of[j]) not in table.greater)
        ]
    bad.sort()
    out.append(("unitriangular_support", not bad, bad[:4]))

    bad = []
    if min(chain.from_iterable(map(coeffs, chain.from_iterable(K))), default=0) < 0:
        bad = [
            (i, j, str(row[j]))
            for i, (row, support) in enumerate(zip(K, k_support))
            for j in support
            if any(c < 0 for c in row[j].coeffs)
        ]
    out.append(("green_positivity", not bad, bad[:4]))

    m_support = [nonzero_positions(row) for row in tab.M]
    bad = [
        (a, b)
        for a, support in enumerate(m_support)
        for b in support
        if orbit_of[a] != orbit_of[b]
    ]
    out.append(("cross_orbit_orthogonality", not bad, bad[:4]))

    # Lambda M against p I, and (K Lambda K^t)_ij against Omega_ij, each at
    # q = 2^b for a b that holds the coefficients of both sides; the
    # products skip zero factors
    lam_support = [nonzero_positions(row) for row in tab.Lam]
    b = lm_width(tab, lam_support, m_support)
    packed_p = tab.p.pack(b)
    LM = sparse_matmul(_packed(tab.Lam, lam_support, b), _packed(tab.M, m_support, b))
    bad = next(
        ((i, j) for i, row in enumerate(LM) for j, x in enumerate(row)
         if x != (packed_p if i == j else 0)),
        None,
    )
    out.append(("lambda_m_product", bad is None, bad))

    b = kl_width(tab, K)
    omega = omega_at(tab.group, tab.table.pair_irreps, b)
    packed_k = _packed(K, k_support, b)
    packed_kl = sparse_matmul(packed_k, _packed(tab.Lam, lam_support, b))

    def kl_bad(i, columns):
        kl_row, want = packed_kl[i], omega[i]
        return [(i, j) for j in columns if sum(map(mul, kl_row, packed_k[j])) != want[j]]

    if list(zip(*tab.Lam)) == list(map(tuple, tab.Lam)):
        upper = [e for i in range(n) for e in kl_bad(i, range(i, n))]
        bad = sorted({*upper, *((j, i) for i, j in upper)})
    else:
        bad = [e for i in range(n) for e in kl_bad(i, range(n))]
    out.append(("kl_equation", not bad, bad[:4]))

    bad = []
    for orbit in range(len(table.orbits)):
        if not isometry_check(tab, orbit):
            bad.append(table.orbits[orbit].label.partition)
    out.append(("component_isometry", not bad, bad))

    # degree structure of the columns: deg <= d_e, the plain system tops out
    # exactly at q^{d_e} with coefficient sgn, any other system stays below
    bad = []
    sgn = tab.group.sgn_index
    for j, (o, s) in enumerate(tab.pairs):
        rec = table.orbits[o]
        d = rec.d_e
        col = list(map(coeffs, tab.coords[j]))
        if max(map(len, col)) > d + 1:
            bad.append((tab.pair_name(j), "degree above d_e"))
            continue
        top = tuple(c[d] if len(c) > d else 0 for c in col)
        if rec.systems[s].label == "triv":
            want = tuple(1 if i == sgn else 0 for i in range(len(col)))
            if top != want:
                bad.append((tab.pair_name(j), "top coefficient is not sgn"))
        elif any(top):
            bad.append((tab.pair_name(j), "nonplain system reaches q^d_e"))
    out.append(("column_degree_structure", not bad, bad[:4]))

    # the minimal orbit's column must be the coinvariant character
    zero_orbit = max(range(len(table.orbits)), key=lambda o: table.orbits[o].d_e)
    j = table.blocks[zero_orbit][0]
    bad = next(
        (label for i, label in enumerate(tab.group.irrep_labels)
         if tab.coords[j][i] != fake_degree(tab.group, i)),
        None,
    )
    out.append(("fake_degree_column", bad is None, bad))

    if tab.group.delta_is_trivial():
        res = caction_check(tab)
        out.append(("twist_identity", res.ok, res.twists))
    return out


def green(tab: GreenTableau, partition, system="triv") -> GradedCharacter:
    j = tab.table.pair_of(partition, system)
    gc = GradedCharacter(tab.group, tab.coords[j])
    irrep = tab.table.pair_irreps[j]
    deg0 = tuple(c[0] for c in tab.coords[j])
    expected = tuple(1 if i == irrep else 0 for i in range(len(deg0)))
    if deg0 != expected:
        raise SolverError("degree-0 part of a Green column is not its irreducible")
    return gc


def m_block(tab: GreenTableau, orbit: int):
    members = tab.table.blocks[orbit]
    return [[tab.M[a][b] for b in members] for a in members]


def isometry_check(tab: GreenTableau, orbit: int) -> bool:
    """The orbit's Gram block equals the component-group (q,M)-pairing Gram."""
    return m_block(tab, orbit) == q_M_gram(tab.table, orbit)


class CactionResult:
    def __init__(self, ok: bool, twists: dict, strict_ok: bool):
        self.ok = ok
        self.twists = twists  # pair name -> +1/-1
        self.strict_ok = strict_ok


def caction_check(tab: GreenTableau) -> CactionResult:
    """Twisted-trace identity for types with w0 = -1 on V.

    For every pair there is a sign eps with
        eps * X_q(e,phi)(w) = (-1)^{d_e} sgn(w0) X_{-q}(e,phi)(w0 w)
    for all w; eps is the scalar by which the normalized diagram-automorphism
    action acts on the phi-isotypic part.  strict_ok reports whether eps = +1
    everywhere.

    The identity is checked on the column's coordinates K_a: w0 is central,
    so it acts on the irreducible chi_a by the sign e_a = chi_a(w0)/chi_a(1),
    and X_{-q}(w0 w) = sum_a e_a K_a(-q) chi_a(w).  The irreducible characters
    are linearly independent, so the identity holds on every class exactly
    when eps K_a(q) = (-1)^{d_e} sgn(w0) e_a K_a(-q) for every a.
    """
    g = tab.group
    if not g.delta_is_trivial():
        raise SolverError("twisted-trace check requires w0 central")
    w0, one = g.class_of(g.w0), g.identity_class
    sgn_w0 = g.char_table[g.sgn_index][w0]
    signs = [row[w0] // row[one] for row in g.char_table]
    twists = {}
    ok = True
    for j, (orbit, _) in enumerate(tab.pairs):
        base = (-1) ** tab.table.orbits[orbit].d_e * sgn_w0
        negated = [c.negate_q() * (base * e) for c, e in zip(tab.coords[j], signs)]
        good_eps = next(
            (eps for eps in (1, -1)
             if all(c * eps == x for c, x in zip(tab.coords[j], negated))),
            0,
        )
        ok = ok and good_eps != 0
        twists[tab.pair_name(j)] = good_eps
    strict = ok and all(v == 1 for v in twists.values())
    return CactionResult(ok, twists, strict)

