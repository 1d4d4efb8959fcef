"""Block Gram-Schmidt solution of K(q) L(q) K(q)^t = Omega(q).

Orbits are processed largest-first in a linear extension of the closure
order.  Each column starts as the basis vector of its assigned irreducible
and is made orthogonal, under the q-elliptic form, to the span of every
previously completed orbit block; within-block columns are left alone, so
the block Gram matrices come out as they are.  Everything is exact and
stays in Z[q]: each block Gram G is inverted up to its determinant,
G^{-1} = adj(G) / det(G) (`polyq.adjugate`), so a projection coefficient is
(adj u) / det and a Lambda block is (adj p) / det, each an exact polynomial
division that raises SolverError when the quotient leaves Z[q].

The columns of one solve, coordinates and class values side by side, live
in one packed store (`charring.ClassRows`): each is packed once, at a slot
width that only grows, and built as an integer combination of the packed
earlier columns.  As soon as a column is stored it is paired once with
every irreducible, V[j][a] = <chi_a, column j>^q, each pairing one integer
dot product of a character-table row with the packed column, tested for
zero before it is unpacked.  A projection reads its pairings from V and
sums nothing again.  M comes from V by bilinearity, M_ij =
sum_a K_ai V[j][a] over the a where both factors are nonzero
(`_gram_column`): an entry within a block is the lookup V[j][sigma_i] once
column j pairs to zero with every earlier irreducible, and an entry across
orbits is then an empty sum; a column that does not pair to zero gets
those entries in full.  So M holds true class sums, which
`cross_orbit_orthogonality` checks, without a product of two packed
columns.  `verify` takes Lambda M and K Lambda as exact products that skip
zero factors (`polyq.sparse_matmul`), and compares K Lambda K^t with Omega
as packed integers, without unpacking an entry.
"""

from __future__ import annotations

from operator import mul

from .charring import (
    ClassRows,
    GradedCharacter,
    fake_degree,
    _omega_rows,
    poincare_poly,
)
from .polyq import IntPoly, ONE, ZERO, adjugate, slot_bits, sparse_matmul
from .springer import SpringerTable, q_M_gram
from .weyl import WeylGroupData


class SolverError(RuntimeError):
    pass


class GreenTableau:
    def __init__(self, table: SpringerTable, group: WeylGroupData, pairs: list,
                 coords: list, class_values: list, M: list, Lam: list, p: IntPoly,
                 notes: dict | None = None):
        self.table = table
        self.group = group
        self.pairs = pairs  # (orbit index, system index), table order
        self.coords = tuple(coords)  # per pair: tuple of IntPoly over irreps (the K column)
        self.class_values = class_values  # per pair: tuple of IntPoly per class
        self.M = M  # full Gram matrix of q-elliptic pairings, IntPoly
        self.Lam = Lam  # block-diagonal, IntPoly
        self.p = p
        self.notes = {} if notes is None else notes
        self._k_minus_one_inverse = None  # (coords it was computed from, inverse)

    def pair_index(self, orbit: int, system: int) -> int:
        return self.pairs.index((orbit, system))

    def pair_name(self, j: int) -> str:
        o, s = self.pairs[j]
        rec = self.table.orbits[o]
        return f"{rec.label.partition}:{rec.systems[s].label}"

    def k_entry(self, i: int, j: int) -> IntPoly:
        """Graded multiplicity of the i-th pair's irreducible in column j."""
        oi, si = self.pairs[i]
        irrep = self.table.orbits[oi].systems[si].irrep
        return self.coords[j][irrep]

    def k_matrix(self):
        n = len(self.pairs)
        return [[self.k_entry(i, j) for j in range(n)] for i in range(n)]


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
    nonzero = {a for a, v in enumerate(vj) if v}
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
    pairs = table.pairs()
    pair_irrep = table.pair_irreps()
    chars = g.char_table
    # a column is its coordinates over the irreducibles, carried along, then
    # its class values; the irreducibles are the probes of the pairings
    store = ClassRows(g, g.refl_charpoly, graded=True, probes=chars, lead=nirr)
    npairs = len(pairs)
    coords: list = []  # K's columns: each column's coordinates
    supports: list = []  # per column, the irreducibles where it is nonzero
    V: list = []  # V[j][a] = <chi_a, column j>^q, taken once per column
    M = [[ZERO] * npairs for _ in range(npairs)]
    blocks: list = []  # (orbit, range of pair positions) in processing order
    block_inverse: dict = {}  # orbit -> (adjugate, determinant) of its Gram block

    for orbit, rec in enumerate(table.orbits):
        start = len(store.rows)
        members = range(start, start + len(rec.systems))
        for j in members:
            sigma = pair_irrep[j]
            # earlier blocks are mutually orthogonal, so the irreducible is
            # projected onto each of them on its own
            terms = []
            for prev_orbit, prev_members in blocks:
                u = [V[jp][sigma] for jp in prev_members]
                if not any(u):
                    continue
                if (prev_orbit, orbit) not in table.greater:
                    raise SolverError(
                        f"pair {pairs[j]} projects onto orbit "
                        f"{table.orbits[prev_orbit].label.partition}, which is "
                        "not above it in the closure order"
                    )
                adj, det = block_inverse[prev_orbit]
                for adj_row, jp in zip(adj, prev_members):
                    num = sum(map(mul, adj_row, u), ZERO)
                    try:
                        c = num.divexact(det)
                    except ValueError:
                        raise SolverError(
                            f"non-polynomial expansion coefficient ({num})/({det}) "
                            f"at pair {pairs[j]} against {pairs[jp]}"
                        )
                    if c:
                        terms.append((c, jp))
            # the column is its irreducible minus sum c * (earlier column)
            base = [0] * nirr + list(chars[sigma])
            base[sigma] = 1
            col = store.combine(base, terms)[:nirr]
            coords.append(col)
            supports.append({a for a, k in enumerate(col) if k})
            V.append([store.pair(chi, j) for chi in chars])
            for i, x in enumerate(_gram_column(coords, supports, V[j])):
                M[i][j] = M[j][i] = x
        block_inverse[orbit] = _inverse_parts(
            [[M[a][b] for b in members] for a in members],
            f"within-orbit Gram block at orbit {rec.label.partition}",
        )
        blocks.append((orbit, members))

    coords = list(map(tuple, coords))
    class_values = [tuple(row[nirr:]) for row in store.rows]

    p = poincare_poly(g)
    Lam = [[ZERO] * npairs for _ in range(npairs)]
    for orbit, members in blocks:
        adj, det = block_inverse[orbit]
        for adj_row, a in zip(adj, members):
            for x, b in zip(adj_row, members):
                num = x * p
                try:
                    Lam[a][b] = num.divexact(det)
                except ValueError:
                    raise SolverError(
                        "Lambda entry is not an integer polynomial at "
                        f"{pairs[a]},{pairs[b]}: ({num})/({det})"
                    )

    tab = GreenTableau(
        table=table,
        group=g,
        pairs=pairs,
        coords=coords,
        class_values=class_values,
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


def omega_on_pairs(tab: GreenTableau):
    rows = _omega_rows(tab.group.type)
    irr = tab.table.pair_irreps()
    return [[rows[a][b] for b in irr] for a in irr]


def verify(tab: GreenTableau):
    """Exact verification suite; returns (name, ok, detail) triples."""
    out = []
    K = tab.k_matrix()
    n = len(tab.pairs)
    table = tab.table

    bad = []
    for i in range(n):
        for j in range(n):
            oi, oj = tab.pairs[i][0], tab.pairs[j][0]
            e = K[i][j]
            if i == j:
                if e != ONE:
                    bad.append((i, j, "diagonal not 1"))
            elif oi == oj or (oi, oj) not in table.greater:
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

    LM = sparse_matmul(tab.Lam, tab.M)
    bad = next(
        ((i, j) for i in range(n) for j in range(n)
         if LM[i][j] != (tab.p if i == j else ZERO)),
        None,
    )
    out.append(("lambda_m_product", bad is None, bad))

    # (K Lambda K^t)_ij against Omega_ij, all at q = 2^b: the products skip
    # zero factors, and b holds the coefficients of both sides
    omega = omega_on_pairs(tab)
    sup_k = [max(x.norm_inf() for x in col) for col in zip(*K)]
    one_k = [max(x.norm1() for x in col) for col in zip(*K)]
    bound = sum(
        s * x.norm1() * one_k[k]
        for s, row in zip(sup_k, tab.Lam)
        for k, x in enumerate(row)
        if x
    )
    b = slot_bits(max(bound, max(x.norm_inf() for row in omega for x in row)))
    packed_k = [[x.pack(b) for x in row] for row in K]
    packed_kl = sparse_matmul(packed_k, [[x.pack(b) for x in row] for row in tab.Lam], 0)
    bad = [
        (i, j)
        for i, kl_row in enumerate(packed_kl)
        for j, k_row in enumerate(packed_k)
        if sum(map(mul, kl_row, k_row)) != omega[i][j].pack(b)
    ]
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
        col = tab.coords[j]
        if any(c.degree > d for c in col):
            bad.append((tab.pair_name(j), "degree above d_e"))
            continue
        top = tuple(c[d] for c in col)
        if rec.systems[s].label == "triv":
            want = tuple(1 if i == sgn else 0 for i in range(len(col)))
            if top != want:
                bad.append((tab.pair_name(j), "top coefficient is not sgn"))
        elif any(top):
            bad.append((tab.pair_name(j), "nonplain system reaches q^d_e"))
    out.append(("column_degree_structure", not bad, bad[:4]))

    # the minimal orbit's column must be the coinvariant character
    zero_orbit = max(range(len(table.orbits)), key=lambda o: table.orbits[o].d_e)
    j = tab.pair_index(zero_orbit, 0)
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
    irrep = tab.table.pair_irreps()[j]
    deg0 = tuple(c[0] for c in tab.coords[j])
    expected = tuple(1 if i == irrep else 0 for i in range(len(deg0)))
    if deg0 != expected:
        raise SolverError("degree-0 part of a Green column is not its irreducible")
    return gc


def m_matrix(tab: GreenTableau):
    """M both ways: direct pairings (stored) and p * Lambda^{-1}; must agree.

    Lambda is block diagonal by orbit, so its inverse is taken block by
    block, as adj / det in Z[q].
    """
    n = len(tab.pairs)
    for a in range(n):
        for b in range(n):
            if tab.pairs[a][0] != tab.pairs[b][0]:
                if tab.Lam[a][b]:
                    raise SolverError(f"Lambda is not block diagonal at {a},{b}")
                if tab.M[a][b]:
                    raise SolverError(f"M mismatch at {a},{b}")
    for orbit in range(len(tab.table.orbits)):
        members = [j for j, (o, _) in enumerate(tab.pairs) if o == orbit]
        adj, det = _inverse_parts(
            [[tab.Lam[a][b] for b in members] for a in members],
            f"Lambda block at orbit {tab.table.orbits[orbit].label.partition}",
        )
        for adj_row, a in zip(adj, members):
            for x, b in zip(adj_row, members):
                if x * tab.p != tab.M[a][b] * det:
                    raise SolverError(f"M mismatch at {a},{b}")
    return tab.M


def m_block(tab: GreenTableau, orbit: int):
    members = [j for j, (o, _) in enumerate(tab.pairs) if o == orbit]
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
    """
    g = tab.group
    if not g.delta_is_trivial():
        raise SolverError("twisted-trace check requires w0 central")
    sgn_w0 = g.sgn_of_class(g.class_of(g.w0))
    w0_times = [g.class_of(g.mul(g.w0, cls.representative)) for cls in g.classes]
    twists = {}
    ok = True
    for j, (orbit, s) in enumerate(tab.pairs):
        d = tab.table.orbits[orbit].d_e
        base = (-1) ** d * sgn_w0
        good_eps = None
        for eps in (1, -1):
            hold = True
            for k, kk in enumerate(w0_times):
                lhs = tab.class_values[j][k] * eps
                rhs = tab.class_values[j][kk].negate_q() * base
                if lhs != rhs:
                    hold = False
                    break
            if hold:
                good_eps = eps
                break
        if good_eps is None:
            ok = False
            twists[tab.pair_name(j)] = 0
        else:
            twists[tab.pair_name(j)] = good_eps
    strict = ok and all(v == 1 for v in twists.values())
    return CactionResult(ok, twists, strict)


def k_at_minus_one_inverse(tab: GreenTableau):
    """Integer inverse of the unitriangular matrix K(-1), computed once.

    The tableau keeps the inverse with the `coords` it came from, so a
    tableau whose coords are replaced (say in a copy) computes it afresh.
    """
    cached = tab._k_minus_one_inverse
    if cached is not None and cached[0] is tab.coords:
        return cached[1]
    n = len(tab.pairs)
    K1 = [[tab.k_entry(i, j).eval(-1) for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # K1 is upper unitriangular in table order
    for j in range(n):
        for i in range(j - 1, -1, -1):
            acc = sum(K1[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = -acc
    for i in range(n):
        for j in range(n):
            if sum(K1[i][k] * inv[k][j] for k in range(n)) != (i == j):
                raise SolverError(f"K(-1) is not unitriangular: inverse fails at {i},{j}")
    tab._k_minus_one_inverse = (tab.coords, inv)
    return inv
