"""Block Gram-Schmidt solution of K(q) L(q) K(q)^t = Omega(q).

Orbits are processed largest-first in a linear extension of the closure
order.  Each column starts as the basis vector of its assigned irreducible
and is made orthogonal, under the q-elliptic form, to the span of every
previously completed orbit block; within-block columns are left alone, so
the block Gram matrices come out as they are.  Everything is exact; any
rational function that ought to be an integer polynomial is converted and
checked, and all matrix identities are verified with zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .charring import (
    GradedCharacter,
    fake_degree,
    _class_gram,
    _omega_rows,
    poincare_poly,
)
from .polyq import IntPoly, ONE, PolyMatrix, RatFun, ZERO
from .springer import SpringerTable, q_M_gram
from .weyl import WeylGroupData


class SolverError(RuntimeError):
    pass


@dataclass
class GreenTableau:
    table: SpringerTable
    group: WeylGroupData
    pairs: list  # (orbit index, system index), table order
    coords: list  # per pair: tuple of IntPoly over irreps (the K column)
    class_values: list  # per pair: tuple of IntPoly per class
    M: list  # full Gram matrix of q-elliptic pairings, IntPoly
    Lam: list  # block-diagonal, IntPoly
    p: IntPoly
    notes: dict = field(default_factory=dict)

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


def solve(
    table: SpringerTable, g: WeylGroupData | None = None, check: bool = True
) -> GreenTableau:
    """Run the triangular orthogonalization and verify the outcome.

    With check=False the `verify` suite is not run, so a caller can report
    every failed identity itself instead of stopping at the first
    `SolverError`.
    """
    g = g or table.group
    nirr = len(g.irrep_labels)
    pairs = table.pairs()
    pair_irrep = table.pair_irreps()

    coords: list = []
    class_values: list = []
    blocks: list = []  # (orbit, [pair positions]) in processing order
    block_gram_inv: dict = {}

    pos = 0
    for orbit, rec in enumerate(table.orbits):
        members = list(range(pos, pos + len(rec.systems)))
        pos += len(rec.systems)
        blocks.append((orbit, members))

    for orbit, members in blocks:
        for j in members:
            sigma = pair_irrep[j]
            col = [ZERO] * nirr
            col[sigma] = ONE
            vals = [IntPoly.const(x) for x in g.char_table[sigma]]
            for prev_orbit, prev_members in blocks:
                if prev_orbit == orbit:
                    break
                (u,) = _class_gram(
                    g,
                    [g.char_table[sigma]],
                    [class_values[jp] for jp in prev_members],
                    g.refl_charpoly,
                )
                if all(x.is_zero() for x in u):
                    continue
                if (prev_orbit, orbit) not in table.greater:
                    raise SolverError(
                        f"pair {pairs[j]} projects onto orbit "
                        f"{table.orbits[prev_orbit].label.partition}, which is "
                        "not above it in the closure order"
                    )
                ginv = block_gram_inv[prev_orbit]
                urf = PolyMatrix([[RatFun(x)] for x in u])
                cvec = ginv * urf
                for row, jp in enumerate(prev_members):
                    c = cvec[row, 0]
                    if c.is_zero():
                        continue
                    try:
                        cpoly = c.as_intpoly()
                    except ValueError:
                        raise SolverError(
                            f"non-polynomial expansion coefficient {c!r} at "
                            f"pair {pairs[j]} against {pairs[jp]}"
                        )
                    for i in range(nirr):
                        if coords[jp][i]:
                            col[i] = col[i] - cpoly * coords[jp][i]
                    for k in range(len(g.classes)):
                        vals[k] = vals[k] - cpoly * class_values[jp][k]
            coords.append(tuple(col))
            class_values.append(tuple(vals))
        block_values = [class_values[a] for a in members]
        gm = PolyMatrix(_class_gram(g, block_values, block_values, g.refl_charpoly))
        try:
            block_gram_inv[orbit] = gm.inverse()
        except Exception as exc:
            raise SolverError(
                f"singular within-orbit Gram block at orbit "
                f"{table.orbits[orbit].label.partition}: {exc}"
            )

    npairs = len(pairs)
    M = _class_gram(g, class_values, class_values, g.refl_charpoly)

    p = poincare_poly(g)
    Lam = [[ZERO] * npairs for _ in range(npairs)]
    for orbit, members in blocks:
        inv = block_gram_inv[orbit]
        prf = RatFun(p)
        for r, a in enumerate(members):
            for c, b in enumerate(members):
                ent = inv[r, c] * prf
                try:
                    Lam[a][b] = ent.as_intpoly()
                except ValueError:
                    raise SolverError(
                        "Lambda entry is not an integer polynomial at "
                        f"{pairs[a]},{pairs[b]}: {ent!r}"
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


def _intmat_mul(A, B):
    n, m, l = len(A), len(B[0]), len(B)
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for k in range(l):
            a = Ai[k]
            if a.is_zero():
                continue
            Bk = B[k]
            row = out[i]
            for j in range(m):
                if Bk[j].is_zero():
                    continue
                row[j] = row[j] + a * Bk[j]
    return out


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

    LM = _intmat_mul(tab.Lam, tab.M)
    ok = all(
        LM[i][j] == (tab.p if i == j else ZERO) for i in range(n) for j in range(n)
    )
    out.append(("lambda_m_product", ok, None))

    KL = _intmat_mul(K, tab.Lam)
    Kt = [[K[j][i] for j in range(n)] for i in range(n)]
    KLK = _intmat_mul(KL, Kt)
    omega = omega_on_pairs(tab)
    bad = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if KLK[i][j] != omega[i][j]
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
    ok = all(
        tab.coords[j][i] == fake_degree(tab.group, i)
        for i in range(len(tab.group.irrep_labels))
    )
    out.append(("fake_degree_column", ok, None))

    if tab.group.delta_is_trivial():
        res = caction_check(tab)
        out.append(("twist_identity", res.ok, res.twists))
    return out


def green(tab: GreenTableau, partition, system="triv") -> GradedCharacter:
    orbit = tab.table.find_orbit(partition)
    s = tab.table.find_system(orbit, system)
    j = tab.pair_index(orbit, s)
    gc = GradedCharacter(tab.group, tab.coords[j])
    irrep = tab.table.orbits[orbit].systems[s].irrep
    deg0 = tuple(c[0] for c in tab.coords[j])
    expected = tuple(1 if i == irrep else 0 for i in range(len(deg0)))
    if deg0 != expected:
        raise SolverError("degree-0 part of a Green column is not its irreducible")
    return gc


def m_matrix(tab: GreenTableau):
    """M both ways: direct pairings (stored) and p * Lambda^{-1}; must agree."""
    n = len(tab.pairs)
    lam_rf = PolyMatrix([[RatFun(tab.Lam[i][j]) for j in range(n)] for i in range(n)])
    prf = RatFun(tab.p)
    back = lam_rf.inverse()
    for i in range(n):
        for j in range(n):
            ent = back[i, j] * prf
            if ent != RatFun(tab.M[i][j]):
                raise SolverError(f"M mismatch at {i},{j}")
    return tab.M


def m_block(tab: GreenTableau, orbit: int):
    members = [j for j, (o, _) in enumerate(tab.pairs) if o == orbit]
    return [[tab.M[a][b] for b in members] for a in members]


def isometry_check(tab: GreenTableau, orbit: int) -> bool:
    """The orbit's Gram block equals the component-group (q,M)-pairing Gram."""
    return m_block(tab, orbit) == q_M_gram(tab.table, orbit)


@dataclass
class CactionResult:
    ok: bool
    twists: dict  # pair name -> +1/-1
    strict_ok: bool


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
    twists = {}
    ok = True
    for j, (orbit, s) in enumerate(tab.pairs):
        d = tab.table.orbits[orbit].d_e
        base = (-1) ** d * sgn_w0
        good_eps = None
        for eps in (1, -1):
            hold = True
            for k, cls in enumerate(g.classes):
                lhs = tab.class_values[j][k] * eps
                kk = g.class_of(g.mul(g.w0, cls.representative))
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
    """Integer inverse of the unitriangular matrix K(-1)."""
    n = len(tab.pairs)
    K1 = [[tab.k_entry(i, j).eval(-1) for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # K1 is upper unitriangular in table order
    for j in range(n):
        for i in range(j - 1, -1, -1):
            acc = sum(K1[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = -acc
    # verify
    for i in range(n):
        for j in range(n):
            s = sum(K1[i][k] * inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)
    return inv
