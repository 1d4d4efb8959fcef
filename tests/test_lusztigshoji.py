import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpoly.charring import fake_degree
from greenpoly.lusztigshoji import (
    SolverError,
    _inverse_parts,
    caction_check,
    green,
    isometry_check,
    k_at_minus_one_inverse,
    m_block,
    m_matrix,
    solve,
    verify,
)
from greenpoly.polyq import IntPoly, matmul
from greenpoly.springer import load_table, save_table, table_typeA, table_typeC


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

    def test_m_matrix_cross_check(self, tableau):
        for key in [("A", 3), ("C", 2), ("C", 3)]:
            m_matrix(tableau(*key))

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

    def test_k_minus_one_inverse(self, tableau):
        tab = tableau("C", 3)
        k_at_minus_one_inverse(tab)  # verifies internally

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
        j = tab.pair_index(zero, 0)
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
            j = tab.pair_index(tab.table.find_orbit(lam), 0)
            total = sum(
                c.eval(1) * tab.group.char_table[i][ident]
                for i, c in enumerate(tab.coords[j])
            )
            expect = factorial(n)
            for part in lam:
                expect //= factorial(part)
            assert total == expect, (n, lam)


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
