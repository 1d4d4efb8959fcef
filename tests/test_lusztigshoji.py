import copy
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly import charring, weyl
from greenpoly.charring import GradedCharacter, fake_degree, omega_at
from greenpoly.lusztigshoji import (
    SolverError,
    _inverse_parts,
    caction_check,
    green,
    isometry_check,
    kl_width,
    m_block,
    solve,
    verify,
)
from greenpoly.partitions import partitions, transpose
from greenpoly.polyq import ONE, ZERO, IntPoly, PackedRows, slot_bits
from greenpoly.springer import load_table, save_table, table_typeA, table_typeC

from conftest import SOLVED_TABLES
from oracles import (
    caction_check_by_class,
    class_gram,
    dense_product_checks,
    dense_support_checks,
    k_entry,
    kostka_foulkes,
    matmul,
    omega,
    reverse,
    solve_per_block,
)


def P(*cs):
    return IntPoly(cs)


class TestSL3Fixture:
    def test_columns(self, tableau):
        tab = tableau("A", 3)
        g = tab.group
        lab = {l: i for i, l in enumerate(g.irrep_labels)}
        x3 = green(tab, (3,))
        assert [c for c in x3.coords if c] == [P(1)]
        assert x3.coords[lab[(1, 1, 1)]] == P(1)
        x21 = green(tab, (2, 1))
        assert x21.coords[lab[(2, 1)]] == P(1)
        assert x21.coords[lab[(1, 1, 1)]] == P(0, 1)
        assert x21.coords[lab[(3,)]] == IntPoly()
        x111 = green(tab, (1, 1, 1))
        assert x111.coords[lab[(3,)]] == P(1)
        assert x111.coords[lab[(2, 1)]] == P(0, 1, 1)
        assert x111.coords[lab[(1, 1, 1)]] == P(0, 0, 0, 1)

    def test_m_diag(self, tableau):
        tab = tableau("A", 3)
        assert tab.M[0][0] == P(1)
        assert tab.M[1][1] == P(1, -1)
        assert tab.M[2][2] == P(1, 0, -1) * P(1, 0, 0, -1)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert tab.M[i][j].is_zero()


class TestSp4Fixture:
    def test_columns(self, tableau):
        tab = tableau("C", 2)
        g = tab.group
        lab = {l: i for i, l in enumerate(g.irrep_labels)}
        x4 = green(tab, (4,))
        assert x4.coords[lab[((), (1, 1))]] == P(1)
        assert sum(1 for c in x4.coords if c) == 1
        xt = green(tab, (2, 2), "triv")
        assert xt.coords[lab[((1,), (1,))]] == P(1)
        assert xt.coords[lab[((), (1, 1))]] == P(0, 1)
        xs = green(tab, (2, 2), "sgn")
        assert xs.coords[lab[((1, 1), ())]] == P(1)
        assert sum(1 for c in xs.coords if c) == 1
        x211 = green(tab, (2, 1, 1))
        assert x211.coords[lab[((), (2,))]] == P(1)
        assert x211.coords[lab[((1,), (1,))]] == P(0, 1)
        assert x211.coords[lab[((), (1, 1))]] == P(0, 0, 1)
        x1 = green(tab, (1, 1, 1, 1))
        assert x1.coords[lab[((2,), ())]] == P(1)
        assert x1.coords[lab[((1,), (1,))]] == P(0, 1, 0, 1)
        assert x1.coords[lab[((1, 1), ())]] == P(0, 0, 1)
        assert x1.coords[lab[((), (2,))]] == P(0, 0, 1)
        assert x1.coords[lab[((), (1, 1))]] == P(0, 0, 0, 0, 1)

    def test_m_blocks(self, tableau):
        tab = tableau("C", 2)
        t = tab.table
        assert m_block(tab, t.find_orbit((4,))) == [[P(1)]]
        assert m_block(tab, t.find_orbit((2, 2))) == [
            [P(1), P(0, -1)],
            [P(0, -1), P(1)],
        ]
        assert m_block(tab, t.find_orbit((2, 1, 1))) == [[P(1, 0, -1)]]
        assert m_block(tab, t.find_orbit((1, 1, 1, 1))) == [
            [P(1, 0, -1) * P(1, 0, 0, 0, -1)]
        ]

    def test_m_off_blocks_vanish(self, tableau):
        tab = tableau("C", 2)
        for a in range(5):
            for b in range(5):
                if tab.pairs[a][0] != tab.pairs[b][0]:
                    assert tab.M[a][b].is_zero()

    def test_sl3_bottom_vanishes_at_one(self, tableau):
        tab = tableau("A", 3)
        assert tab.M[2][2].eval(1) == 0


class TestChecks:
    def test_verify_green_for_all_builtin(self, tableau):
        for ambient, ns in [("A", range(3, 8)), ("C", (1, 2, 3))]:
            for n in ns:
                tab = tableau(ambient, n)
                report = verify(tab)
                assert all(ok for _, ok, _ in report), [
                    (name, detail) for name, ok, detail in report if not ok
                ]

    def test_lambda_vanishes_off_the_orbit_blocks(self, tableau):
        for key in SOLVED_TABLES:
            tab = tableau(*key)
            orbit = [o for o, _ in tab.pairs]
            off = [
                (a, b) for a, row in enumerate(tab.Lam) for b, x in enumerate(row)
                if x and orbit[a] != orbit[b]
            ]
            assert off == [], key

    def test_isometry(self, tableau):
        tab = tableau("C", 2)
        for o in range(len(tab.table.orbits)):
            assert isometry_check(tab, o)
        # type A regular orbit block is [1]
        ta = tableau("A", 4)
        assert m_block(ta, 0) == [[P(1)]]
        # distinct-parts value at q=-1: 2^{l-1}
        t31 = ta.table.find_orbit((3, 1))
        assert m_block(ta, t31)[0][0].eval(-1) == 2 ** (2 - 1)

    def test_green_zero_orbit_is_fake_degrees(self, tableau):
        for key in [("A", 4), ("C", 2), ("C", 3)]:
            tab = tableau(*key)
            zero = tab.table.orbits[-1].label.partition
            x = green(tab, zero)
            for i, c in enumerate(x.coords):
                assert c == fake_degree(tab.group, i)

    def test_unknown_pair(self, tableau):
        tab = tableau("A", 3)
        with pytest.raises(KeyError):
            green(tab, (4,))
        with pytest.raises(KeyError):
            green(tab, (2, 1), "sgn")

    @pytest.mark.parametrize("key", [("A", 4), ("C", 3)])
    def test_failure_witnesses(self, tableau, key):
        tab = tableau(*key)
        report = {name: (ok, detail) for name, ok, detail in verify(tab)}
        assert report["lambda_m_product"] == (True, None)
        assert report["fake_degree_column"] == (True, None)

        # one M entry off: Lambda M is wrong in column b of each row with
        # Lambda[i][a] != 0, and the witness is the first of them
        a, b = len(tab.pairs) - 1, len(tab.pairs) - 2
        M = [list(row) for row in tab.M]
        M[a][b] = M[a][b] + P(0, 1)
        bad = copy.copy(tab)
        bad.M = M
        report = {name: (ok, detail) for name, ok, detail in verify(bad)}
        first = min(i for i in range(len(tab.pairs)) if tab.Lam[i][a])
        assert report["lambda_m_product"] == (False, (first, b))

        # the zero orbit's column off at two irreducibles: the first is named
        zero = max(range(len(tab.table.orbits)), key=lambda o: tab.table.orbits[o].d_e)
        j = tab.table.blocks[zero][0]
        coords = list(tab.coords)
        col = list(coords[j])
        for i in (1, len(col) - 1):
            col[i] = col[i] + P(1)
        coords[j] = tuple(col)
        bad = copy.copy(tab)
        bad.coords = coords
        report = {name: (ok, detail) for name, ok, detail in verify(bad)}
        assert report["fake_degree_column"] == (False, tab.group.irrep_labels[1])


class TestCaction:
    def test_sp4_twists(self, tableau):
        res = caction_check(tableau("C", 2))
        assert res.ok and not res.strict_ok
        assert res.twists == {
            "(4,):triv": 1,
            "(2, 2):triv": 1,
            "(2, 2):sgn": -1,
            "(2, 1, 1):triv": 1,
            "(1, 1, 1, 1):triv": 1,
        }

    def test_sp6_twists(self, tableau):
        res = caction_check(tableau("C", 3))
        assert res.ok
        assert res.twists["(2, 2, 1, 1):sgn"] == -1
        assert all(v == 1 for k, v in res.twists.items() if k != "(2, 2, 1, 1):sgn")

    def test_plain_systems_satisfy_plain_identity(self, tableau):
        for n in (1, 2, 3):
            res = caction_check(tableau("C", n))
            for name, eps in res.twists.items():
                if name.endswith(":triv"):
                    assert eps == 1

    def test_requires_central_w0(self, tableau):
        with pytest.raises(SolverError):
            caction_check(tableau("A", 3))

    @pytest.mark.parametrize("key", [("C", 1), ("C", 2), ("C", 3), ("A", 2)],
                             ids=["Sp2", "Sp4", "Sp6", "GL2"])
    def test_matches_class_by_class_oracle(self, tableau, key):
        # the check on coordinates against the identity taken on every class,
        # on the solved table and on copies with one coordinate of one column
        # moved, by q at its own irreducible (that pair gets no sign) or by q^2
        # at the last irreducible
        tab = tableau(*key)
        tabs = [tab]
        if key[0] == "C" and key[1] > 1:
            for j in range(len(tab.pairs)):
                for a, shift in ((tab.table.pair_irreps[j], P(0, 1)), (-1, P(0, 0, 1))):
                    coords = list(tab.coords)
                    col = list(coords[j])
                    col[a] = col[a] + shift
                    coords[j] = tuple(col)
                    bad = copy.copy(tab)
                    bad.coords = tuple(coords)
                    tabs.append(bad)
            assert sum(0 in caction_check(t).twists.values() for t in tabs) >= len(tab.pairs)
        for t in tabs:
            got, want = caction_check(t), caction_check_by_class(t)
            assert (got.ok, got.twists, got.strict_ok) == (want.ok, want.twists, want.strict_ok)


class TestConventionErrors:
    def test_misplaced_local_system_fails_loudly(self):
        # move the extra local system of (4,2) to (2,2,2): the load-time
        # checks cannot see this, but the component-group isometry can
        d = save_table(table_typeC(3))
        i42 = next(i for i, o in enumerate(d["orbits"]) if o["partition"] == [4, 2])
        i222 = next(i for i, o in enumerate(d["orbits"]) if o["partition"] == [2, 2, 2])
        moved = d["orbits"][i42]["pairs"].pop(1)
        moved["char_on_generators"] = [-1]
        d["orbits"][i222]["pairs"].append(moved)
        table = load_table(d)
        with pytest.raises(SolverError) as err:
            solve(table)
        assert "component_isometry" in str(err.value)


def test_springer_multiplicities_at_one_nonnegative(tableau):
    # evaluation at q = 1 of every column gives nonnegative total
    # multiplicities against each irreducible
    for key in [("A", 5), ("C", 3)]:
        tab = tableau(*key)
        for j in range(len(tab.pairs)):
            for c in tab.coords[j]:
                assert c.eval(1) >= 0


def test_type_a_column_dimension_multinomial(tableau):
    # X_{q=1}(e_lambda)(1) = dim of the full cohomology of the fiber
    # = n! / prod lambda_i!  (a point for the regular orbit, n! for zero)
    from math import factorial

    from greenpoly.partitions import partitions

    for n in range(2, 8):
        tab = tableau("A", n)
        ident = tab.group.identity_class
        for lam in partitions(n):
            j = tab.table.blocks[tab.table.find_orbit(lam)][0]
            total = sum(
                c.eval(1) * tab.group.char_table[i][ident]
                for i, c in enumerate(tab.coords[j])
            )
            expect = factorial(n)
            for part in lam:
                expect //= factorial(part)
            assert total == expect, (n, lam)


# ---------------------------------------------------------------------------
# the packed store and the sparse checks against the solver they replaced

_SOLVED = [("A", n) for n in range(2, 12)] + [("C", n) for n in (1, 2, 3)]


@pytest.mark.parametrize(
    "key",
    [pytest.param(k, id=f"{k[0]}{k[1]}") for k in _SOLVED]
    + [pytest.param(("A", 12), id="A12", marks=pytest.mark.gl12)],
)
def test_solve_matches_per_block_oracle(tableau, key):
    tab = tableau(*key)
    want = solve_per_block(tab.table)
    assert tab.coords == want.coords
    assert tab.M == want.M
    assert tab.Lam == want.Lam
    assert tab.p == want.p


@pytest.mark.parametrize("ambient,n", SOLVED_TABLES)
def test_pairings_are_the_gram_times_k(tableau, ambient, n):
    # the tableau keeps <chi_a, column j>^q, which is sum_b G_ab K_bj for G
    # the q-elliptic Gram of the irreducibles, here by class sums
    tab = tableau(ambient, n)
    g = tab.group
    gram = class_gram(g, g.char_table, g.char_table, g.refl_charpoly)
    for j, col in enumerate(tab.coords):
        want = tuple(sum((x * k for x, k in zip(row, col) if k), ZERO) for row in gram)
        assert tab.pairings[j] == want, tab.pair_name(j)


def test_m_takes_cross_orbit_entries_in_full(monkeypatch):
    # the last column of Sp(4), the zero orbit's, is stored plus q^2 times
    # the column of the orbit (2,1,1), and its pairings with the irreducibles
    # plus q^2 times that column's, so it no longer pairs to zero with that
    # orbit's irreducible (its norm still divides p, so the solve ends): M
    # must still be the class-sum Gram of the column's class values, and
    # verify must name the entries across orbits as its witness
    table = table_typeC(2)
    last, earlier = len(table.pairs) - 1, table.pair_of((2, 1, 1), "triv")
    combine = PackedRows.combine

    def add_an_earlier_column(store, base, terms):
        if len(store.rows) == last:
            terms = [*terms, (P(0, 0, -1), earlier)]
        return combine(store, base, terms)

    monkeypatch.setattr(PackedRows, "combine", add_an_earlier_column)
    tab = solve(table, check=False)
    g = tab.group
    values = [GradedCharacter(g, col).values for col in tab.coords]
    assert tab.M == class_gram(g, values, values, g.refl_charpoly)
    report = {name: (ok, detail) for name, ok, detail in verify(tab)}
    assert report["cross_orbit_orthogonality"] == (False, [(earlier, last), (last, earlier)])


@pytest.mark.parametrize("key", [("A", n) for n in range(2, 9)] + [("C", n) for n in (1, 2, 3)],
                         ids=lambda k: f"{k[0]}{k[1]}")
def test_omega_at_one_point_matches_packed_polynomials(tableau, key):
    # kl_equation takes Omega on the pairs as one integer Gram at q = 2^b;
    # it must be Omega's polynomials packed at that same b
    tab = tableau(*key)
    rows, irr = omega(tab.group), tab.table.pair_irreps
    b = kl_width(tab, tab.k_matrix())
    assert omega_at(tab.group, irr, b) == [[rows[i][j].pack(b) for j in irr] for i in irr]
    # the width holds Omega's coefficients on its own, with no help from
    # the K Lambda K^t side
    n = len(tab.pairs)
    bare = copy.copy(tab)
    bare.Lam = [[IntPoly()] * n for _ in range(n)]
    assert kl_width(bare, bare.k_matrix()) >= slot_bits(max(x.norm_inf() for row in rows for x in row))


def _mutants(tab):
    """The tableau with one off-block M entry, one off-block Lambda entry, or
    one K entry changed."""
    n = len(tab.pairs)
    a, b = n - 1, 0  # the zero orbit against the regular one
    M = [list(row) for row in tab.M]
    M[a][b] = M[a][b] + P(0, 1)
    Lam = [list(row) for row in tab.Lam]
    Lam[b][a] = Lam[b][a] + P(1)
    coords = list(tab.coords)
    col = list(coords[a])
    irrep = tab.table.pair_irreps[b]
    col[irrep] = col[irrep] + P(0, 0, 1)
    coords[a] = tuple(col)
    out = []
    for field, value in (("M", M), ("Lam", Lam), ("coords", coords)):
        bad = copy.copy(tab)
        setattr(bad, field, value)
        out.append(bad)
    return out


def _changed_k(tab, changes):
    """tab.coords with x added to K_ij for each (i, j, x) in changes."""
    coords = [list(col) for col in tab.coords]
    for i, j, x in changes:
        irrep = tab.table.pair_irreps[i]
        coords[j][irrep] = coords[j][irrep] + x
    return list(map(tuple, coords))


def _support_asymmetric_and_negative_mutants(tab):
    """The tableau with K nonzero below the diagonal, a diagonal K entry
    other than 1, and M nonzero across orbits in its first row; with one
    Lambda entry changed inside an orbit block of size 2 or more, so that
    Lambda is no longer symmetric (none when every block has size 1); and
    with a negative coefficient in K_1j, j the last pair, so that
    kl_equation fails on both sides of the diagonal among its first
    entries."""
    n = len(tab.pairs)
    out = []
    bad = copy.copy(tab)
    bad.coords = _changed_k(tab, [(n - 1, 0, P(0, 1)), (1, 1, P(0, 1))])
    bad.M = [list(row) for row in tab.M]
    bad.M[0][n - 1] = bad.M[0][n - 1] + P(1)
    out.append(bad)
    block = next((b for b in tab.table.blocks if len(b) > 1), None)
    if block is not None:
        bad = copy.copy(tab)
        bad.Lam = [list(row) for row in tab.Lam]
        bad.Lam[block[0]][block[1]] = bad.Lam[block[0]][block[1]] + P(1)
        out.append(bad)
    bad = copy.copy(tab)
    x = k_entry(tab, 1, n - 1)
    bad.coords = _changed_k(tab, [(1, n - 1, P(0, -x.norm_inf() - 1))])
    out.append(bad)
    return out


@pytest.mark.parametrize("key", [("A", 4), ("A", 8), ("C", 2), ("C", 3)],
                         ids=["A4", "A8", "C2", "C3"])
def test_sparse_checks_match_dense_oracle(tableau, key):
    tab = tableau(*key)
    mutants = _mutants(tab)
    more = _support_asymmetric_and_negative_mutants(tab)
    for t in [tab, *mutants, *more]:
        report = {name: (ok, detail) for name, ok, detail in verify(t)}
        for name, ok, detail in [*dense_support_checks(t), *dense_product_checks(t)]:
            assert report[name] == (ok, detail), name
    m_bad, lam_bad, k_bad, support_bad, *sym_bad, neg_bad = (
        {n: ok for n, ok, _ in verify(t)} for t in [*mutants, *more]
    )
    assert not m_bad["lambda_m_product"] and not m_bad["cross_orbit_orthogonality"]
    assert not lam_bad["lambda_m_product"] and not lam_bad["kl_equation"]
    assert not k_bad["kl_equation"]
    assert not support_bad["unitriangular_support"]
    assert not support_bad["cross_orbit_orthogonality"]
    for report in sym_bad:
        assert not report["lambda_m_product"] and not report["kl_equation"]
    assert not neg_bad["green_positivity"] and not neg_bad["kl_equation"]
    # every GL(n) block has size 1; Sp(4) and Sp(6) have blocks of size 2
    assert len(sym_bad) == (key[0] == "C")


@pytest.mark.parametrize("key", [("A", 4), ("A", 8), ("C", 3)], ids=["A4", "A8", "C3"])
def test_kl_equation_rejects_a_difference_vanishing_at_a_narrower_width(tableau, key):
    # Lambda_aa + (q - 2^w) moves (K Lambda K^t)_ij by K_ia (q - 2^w) K_ja,
    # and (Lambda M)_aj by (q - 2^w) M_aj, each vanishing at q = 2^w: a
    # check that packs at q = 2^w, for any w below the width the mutant
    # needs, passes that mutant
    tab = tableau(*key)
    a = len(tab.pairs) - 1
    for w in range(1, 80):
        Lam = [list(row) for row in tab.Lam]
        Lam[a][a] = Lam[a][a] + P(-(2**w), 1)
        bad = copy.copy(tab)
        bad.Lam = Lam
        report = {name: ok for name, ok, _ in verify(bad)}
        assert not report["kl_equation"] and not report["lambda_m_product"], w


@lru_cache(maxsize=None)
def _flag_count(mu) -> IntPoly:
    """P_mu = sum_k q^{a_{k+1}} [a_k - a_{k+1}]_q P_{mu - (k)}, P_() = 1, for
    mu = (a_1 >= a_2 >= ...): the Poincare polynomial, in q = degree 2, of
    the Springer fibre of the orbit with Jordan type the transpose of mu."""
    if not mu:
        return P(1)
    total = IntPoly()
    parts = list(mu) + [0]
    for k in range(len(mu)):
        step = parts[k] - parts[k + 1]
        if step:
            rest = parts[:k] + [parts[k] - 1] + parts[k + 1 : -1]
            total = total + IntPoly([0] * parts[k + 1] + [1] * step) * _flag_count(
                tuple(x for x in rest if x)
            )
    return total


@pytest.mark.parametrize("n", [*range(2, 12), pytest.param(12, marks=pytest.mark.gl12)])
def test_type_a_columns_count_flags(tableau, n):
    # the column of the orbit lambda, weighted by the dimensions of the
    # irreducibles, is the reversed Poincare polynomial of its Springer fibre:
    # a check from outside the solver's own identities
    tab = tableau("A", n)
    dims = [row[tab.group.identity_class] for row in tab.group.char_table]
    for lam in partitions(n):
        orbit = tab.table.find_orbit(lam)
        col = tab.coords[tab.table.blocks[orbit][0]]
        total = sum((c * d for c, d in zip(col, dims)), IntPoly())
        assert total == reverse(_flag_count(transpose(lam)), tab.table.orbits[orbit].d_e), lam


@pytest.mark.parametrize("n", range(2, 9))
def test_type_a_columns_are_kostka_foulkes(tableau, n):
    # the column of the orbit mu has, at the irreducible lam, the Kostka-Foulkes
    # polynomial K_{lam^t, mu}(q), computed by charge with no solver code
    tab = tableau("A", n)
    labels = tab.group.irrep_labels
    for mu in partitions(n):
        col = tab.coords[tab.table.blocks[tab.table.find_orbit(mu)][0]]
        for lam, c in zip(labels, col):
            assert c == kostka_foulkes(transpose(lam), mu), (mu, lam)


def test_gl4_column_by_hand(tableau):
    # orbit (2,1,1) = (3,1) + q (2,2) + (q + q^2) (2,1,1) + q^3 (1^4)
    tab = tableau("A", 4)
    col = tab.coords[tab.table.blocks[tab.table.find_orbit((2, 1, 1))][0]]
    want = {(3, 1): P(1), (2, 2): P(0, 1), (2, 1, 1): P(0, 1, 1), (1, 1, 1, 1): P(0, 0, 0, 1)}
    assert {lam: c for lam, c in zip(tab.group.irrep_labels, col) if c} == want


@pytest.mark.parametrize("key", [("C", 1), ("C", 2), ("C", 3), ("A", 2)],
                         ids=["Sp2", "Sp4", "Sp6", "GL2"])
def test_solve_and_verify_read_no_class_value(monkeypatch, key):
    # solve and verify hold every identity without a class value of a Green
    # column or a class representative; the per-type caches are emptied so
    # that they are filled again under the patch
    table = (table_typeA if key[0] == "A" else table_typeC)(key[1])

    def forbidden(self):
        raise AssertionError("read under the policy")

    monkeypatch.setattr(weyl.ConjClass, "representative", property(forbidden))
    monkeypatch.setattr(charring.GradedCharacter, "values", property(forbidden))
    for cache in (charring.qell_rows, charring._coinvariant_values, charring._fake_degrees):
        cache.cache_clear()
    report = {name: ok for name, ok, _ in verify(solve(table))}
    assert report["twist_identity"] and all(report.values())


# ---------------------------------------------------------------------------
# block inversion in Z[q] against Z[q] identities


def _laplace_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return P(1)
    return sum(
        (
            (-1) ** j * rows[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
            for j in range(len(rows))
        ),
        IntPoly(),
    )


def _check_against_field_inverse(rows):
    """(adj, det) from the solver against identities that pin it down: det is
    the Laplace determinant, and adj*G = G*adj = det*I.  When det != 0 the
    second identity makes adj/det the inverse of G over Q(q); when det = 0 the
    block must be rejected as singular."""
    det = _laplace_det(rows)
    if not det:
        with pytest.raises(SolverError, match="singular"):
            _inverse_parts(rows, "test block")
        return
    adj, d = _inverse_parts(rows, "test block")
    assert d == det
    n = len(rows)
    scalar = [[det if i == j else IntPoly() for j in range(n)] for i in range(n)]
    assert matmul(adj, rows) == scalar
    assert matmul(rows, adj) == scalar


_small_poly = st.lists(st.integers(-3, 3), max_size=3).map(IntPoly)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_small_poly, min_size=n, max_size=n), min_size=n, max_size=n)
))
@settings(deadline=None, max_examples=40)
def test_block_inverse_matches_field_inverse(rows):
    _check_against_field_inverse(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[P(), P(1)], [P(1), P(0, 1)]],  # zero leading pivot
        [[P(), P(1), P(2)], [P(), P(0, 1), P(1)], [P(1, 1), P(), P(3)]],
        [[P(1), P(0, 1)], [P(0, 1), P(0, 0, 1)]],  # singular
        [[P(), P()], [P(), P(1)]],  # singular, zero first column
    ],
    ids=["zero-pivot-2", "zero-pivot-3", "singular", "singular-zero-column"],
)
def test_block_inverse_edge_cases(rows):
    _check_against_field_inverse(rows)
