from fractions import Fraction

import pytest

from greenpoly import charring, spin, springer
from greenpoly.charring import VirtualCharacter
from greenpoly.lusztigshoji import GreenTableau
from greenpoly.partitions import distinct_partitions
from greenpoly.spin import (
    DiracIndex,
    PinConstructionError,
    braid_check,
    braid_failure,
    build_pin,
    classify_constituents,
    dirac_index_char,
    g_lambda,
    genuine_count_typeA,
    index_traces_by_class,
    sigma_tilde,
    spin_traces_by_class,
    tensor_spin_multiplicity,
)
from greenpoly.springer import nsol_predicate
from greenpoly.weyl import (
    SUPPORTED_RANKS,
    WeylType,
    ambient_simple_roots,
    build,
    delta_elliptic_count,
    reduced_word,
    simple_generators,
    sp_mul,
)

from conftest import SOLVED_TABLES
from oracles import (
    alternating_betti_by_class_value,
    char_formula_check,
    index_flags_by_class_sums,
    schur_spin_character,
    spin_pairings_by_class_sums,
    k_at_minus_one_inverse,
    sign_twist_space_dimension,
    tensor_spin_multiplicity_oracle,
)

ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(1, 7)]
    + [("C", r) for r in range(1, 7)]
    + [("D", r) for r in range(3, 7)]
    + [("G2", 2)]
)

SMALL_TYPES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 4), ("G2", 2)]


def _spin_pairing(tab, pin, pa, pb) -> int:
    """a_V < X_{-1}(a), X_{-1}(b) >^{-1}_W = a_V M_ab(-1) for two (partition,
    system) pairs, read off the tableau."""
    return pin.a_v * tab.M[tab.table.pair_of(*pa)][tab.table.pair_of(*pb)].eval(-1)


@pytest.fixture(scope="module")
def pins():
    cache = {}

    def get(fam, rank):
        if (fam, rank) not in cache:
            cache[(fam, rank)] = build_pin(build(WeylType(fam, rank)))
        return cache[(fam, rank)]

    return get


class TestPinRep:
    def test_z_square_small_ranks(self, pins):
        # (-1)^{n(n+1)/2}: n=1 -> -1, n=2 -> -1, n=3 -> +1, n=4 -> +1
        assert pins("A", 1).z_square_sign == -1
        assert pins("B", 2).z_square_sign == -1
        assert pins("B", 3).z_square_sign == 1
        assert pins("D", 4).z_square_sign == 1

    @pytest.mark.parametrize("fam,rank", SMALL_TYPES)
    def test_braid_relations(self, pins, fam, rank):
        assert braid_check(pins(fam, rank))

    @pytest.mark.parametrize("fam,rank", SMALL_TYPES)
    def test_spin_square_identity(self, pins, fam, rank):
        pin = pins(fam, rank)
        g = pin.group
        for k, tr in enumerate(spin_traces_by_class(pin)):
            det = g.refl_charpoly[k].eval(-1)
            assert abs(tr * tr - pin.a_v * det) < 1e-8

    def test_identity_trace_is_spin_dim(self, pins):
        pin = pins("B", 3)
        t = pin.trace(pin.lift(()))
        # odd rank: S+ + S-: 2 * 2^{(n-1)/2} = 2^{(n+1)/2}
        assert abs(t - 2 ** 2) < 1e-12
        pin = pins("B", 2)
        assert abs(pin.trace(pin.lift(())) - 2) < 1e-12

    def test_s3_coxeter_value(self, pins):
        pin = pins("A", 2)
        g = pin.group
        cox = next(k for k, c in enumerate(g.classes) if c.label == (3,))
        t = pin.trace(pin.lift_of_class(cox))
        assert abs(t * t - 1) < 1e-10  # a_V det(1+w) = 1

    def test_trace_vanishes_off_minus_one_elliptic(self, pins):
        pin = pins("B", 2)
        g = pin.group
        for k, tr in enumerate(spin_traces_by_class(pin)):
            if g.refl_charpoly[k].eval(-1) == 0:
                assert abs(tr) < 1e-10

    def test_spin_square_check_raises_on_bad_tolerance(self, pins):
        pin = pins("A", 2)
        # the check is exact: it passes on a true lift with no tolerance at
        # all, and a lift off the root direction breaks it
        g = pin.group
        gens = simple_generators(g.type)
        det = g.refl_charpoly[g.class_of(sp_mul(gens[0], gens[1]))].eval(-1)
        assert pin.spin_square_holds(pin.lift((0, 1)), det)
        bad = build_pin(g)
        bad.roots[0] = (1, 0, 0)  # orthogonal to alpha_1: x_0 = 0, det(1 + w) = 1
        assert not bad.spin_square_holds(bad.lift((0, 1)), det)

    def test_squared_values_lift_independent(self, pins):
        # conjugating the representative changes the lift at most by sign
        pin = pins("B", 2)
        g = pin.group
        gens = simple_generators(g.type)
        for cls in g.classes:
            w = cls.representative
            conj = sp_mul(gens[0], sp_mul(w, gens[0]))
            u1 = pin.lift(reduced_word(g, w))
            u2 = pin.lift(reduced_word(g, conj))
            # tr^2 = dim^2 x_0^2 / N, compared exactly
            assert u1.coeffs.get(0, 0) ** 2 * u2.norm == u2.coeffs.get(0, 0) ** 2 * u1.norm

    def test_sign_convention_is_pinned(self, pins):
        # The sign of a class's lift, and so of the traces that `spin sigma`
        # and `spin index` print, is fixed by the reduced word of the class
        # representative.  The numpy oracle reuses those words, so only these
        # recorded values pin them.
        words = {
            ("A", 4): [(0, 1, 2, 3), (1, 2, 3), (2, 3, 0), (2, 3), (3, 1), (3,), ()],
            ("B", 3): [
                (), (0, 1, 2, 1, 0), (2, 0, 1, 2, 0), (1, 2, 0, 1, 2, 0, 1, 0),
                (2, 0, 1, 0), (2, 1, 2, 0, 1, 2), (2, 0, 1, 2, 0, 1),
                (2, 1, 2, 0, 1, 2, 0, 1, 0), (2, 1, 2, 0, 1), (2, 1, 2, 0, 1, 2, 1),
            ],
            ("D", 4): [
                (), (0, 1, 3, 1, 0), (1, 2, 0, 1, 3, 1, 2, 0, 1, 0), (3, 1, 2, 0, 1, 3),
                (0, 1, 3, 0, 1, 0), (0, 1, 3, 0, 1, 2, 0, 1), (1, 3, 0, 1, 2, 0, 1),
                (3, 1, 2, 0, 1, 3, 1), (3, 1, 2, 0, 1, 3, 2), (0, 1, 3, 1, 2, 0, 1),
                (3, 1, 2, 0, 1, 3, 0, 1, 2, 0, 1, 0), (3, 0, 1, 2, 0, 1),
                (3, 1, 2, 0, 1, 3, 1, 2),
            ],
        }
        for (fam, rank), want in words.items():
            g = pins(fam, rank).group
            assert [reduced_word(g, cls.representative) for cls in g.classes] == want
        r8 = 2 * 2**0.5
        pinned = {
            ("A", 4): ([1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 4.0], [5**0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            ("C", 3): (
                [4.0, 0.0, 0.0, 0.0, r8, 0.0, -2.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0, r8, 2.0],
            ),
        }
        for (fam, rank), (traces, index) in pinned.items():
            pin = pins(fam, rank)
            assert spin_traces_by_class(pin) == pytest.approx(traces, abs=1e-12)
            assert index_traces_by_class(pin) == pytest.approx(index, abs=1e-12)


# ---------------------------------------------------------------------------
# numpy oracle: the gamma-matrix realization the exact layer replaced.  It
# works in its own orthonormal basis of V (Helmert vectors of the sum-zero
# plane for A, a planar basis for G2) with unit roots in floating point.


def _oracle_unit_roots(g):
    np = pytest.importorskip("numpy")
    t = g.type
    if t.family == "G2":
        return [np.array([1.0, 0.0]), np.array([-(3**0.5) / 2, 0.5])]
    roots = [np.array(r, dtype=float) for r in ambient_simple_roots(t)]
    if t.family == "A":
        n = t.rank + 1
        basis = []
        for k in range(1, n):
            v = np.array([1.0] * k + [-float(k)] + [0.0] * (n - k - 1))
            basis.append(v / np.linalg.norm(v))
        q = np.stack(basis, axis=1)  # n x (n-1)
        roots = [q.T @ r for r in roots]
    return [r / np.linalg.norm(r) for r in roots]


def _oracle_gammas(n):
    """n anticommuting gamma matrices with gamma^2 = -1, of size 2^ceil(n/2):
    i times the tensor-of-Paulis ladder."""
    np = pytest.importorskip("numpy")
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    k = (n + 1) // 2
    out = []
    for j in range(n):
        factors = [sz] * (j // 2) + [sx if j % 2 == 0 else sy]
        factors += [np.eye(2, dtype=complex)] * (k - len(factors))
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        out.append(1j * m)
    return out


def _oracle_traces(g):
    """Per class: tr(lift) and tr(lift z)/c from the gamma matrices."""
    np = pytest.importorskip("numpy")
    n = g.type.rank
    gammas = _oracle_gammas(n)
    eye = np.eye(gammas[0].shape[0], dtype=complex)
    for i in range(n):
        for j in range(n):
            anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
            assert np.abs(anti - (-2.0 * eye if i == j else 0.0 * eye)).max() < 1e-12
    z = eye
    for gamma in gammas:
        z = z @ gamma
    c = 1.0 if (n * (n + 1) // 2) % 2 == 0 else 1j
    lifts = [sum(a * gamma for a, gamma in zip(r, gammas)) for r in _oracle_unit_roots(g)]
    traces, index = [], []
    for cls in g.classes:
        m = eye
        for i in reduced_word(g, cls.representative):
            m = m @ lifts[i]
        traces.append(m.trace())
        index.append((m @ z).trace() / c)
    return traces, index


def test_unit_simple_roots():
    for fam, r in [("A", 2), ("B", 3), ("D", 4), ("G2", 2)]:
        g = build(WeylType(fam, r))
        roots = _oracle_unit_roots(g)
        exact = ambient_simple_roots(g.type)
        assert len(roots) == len(exact) == r
        # the oracle's basis is orthonormal: its unit roots have the angles
        # of the integer roots
        for u, a in zip(roots, exact):
            for v, b in zip(roots, exact):
                dot = sum(x * y for x, y in zip(a, b))
                cos = dot / (sum(x * x for x in a) * sum(y * y for y in b)) ** 0.5
                assert abs(float(u @ v) - cos) < 1e-12


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_exact_layer_matches_gamma_matrices(fam, rank):
    g = build(WeylType(fam, rank))
    pin = build_pin(g)
    traces, index = _oracle_traces(g)
    for k, (got, want) in enumerate(zip(spin_traces_by_class(pin), traces)):
        assert abs(got - want) < 1e-9, ("trace", k)
    for k, (got, want) in enumerate(zip(index_traces_by_class(pin), index)):
        assert abs(got - want) < 1e-9, ("index", k)


ALL_GROUPS = [(f, r) for f, ranks in SUPPORTED_RANKS.items() for r in ranks]


@pytest.mark.parametrize("fam,rank", ALL_GROUPS)
def test_exact_identities(fam, rank):
    # the four identities `verify all` adds to the table ones need no table,
    # so they are checked on every group `weyl.build` supports
    g = build(WeylType(fam, rank))
    assert charring.chevalley_failure(g) is None
    assert charring.minus_one_gram_rank(g) == delta_elliptic_count(g)
    pin = build_pin(g)
    assert braid_failure(pin) is None
    for k, u in enumerate(pin.class_lifts):
        # dim^2 x_0^2 = a_V det(1 + w) N, as integers
        det = g.refl_charpoly[k].eval(-1)
        assert (pin.spin_dim * u.coeffs.get(0, 0)) ** 2 == pin.a_v * det * u.norm, k
        assert all(isinstance(c, int) for c in u.coeffs.values())


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)])
def test_build_pin_rejects_lifts_that_do_not_reflect(fam, rank, monkeypatch):
    # a Clifford product that gives e_k e_0 the wrong sign for every one-term
    # e_k keeps z^2 on these groups, but the lifts no longer reflect
    def skewed(x, vec):
        out = {}
        for j, a in enumerate(vec):
            for s, c in x.items():
                odd = ((s >> j).bit_count() + (j == 0 and s.bit_count() == 1)) & 1
                out[s ^ 1 << j] = out.get(s ^ 1 << j, 0) + (-a * c if odd else a * c)
        return {s: c for s, c in out.items() if c}

    g = build(WeylType(fam, rank))
    monkeypatch.setattr(spin, "_times", skewed)
    with pytest.raises(PinConstructionError, match="pin lift does not project to s_alpha"):
        build_pin(g)


def test_braid_failure_names_first_pair():
    pin = build_pin(build(WeylType("C", 3)))
    # (0,1,1) is no root: it breaks m(0,2) = 2 (alpha_0 . (0,1,1) != 0) and
    # m(1,2) = 4 ((alpha_1 (0,1,1))^4 = +16, not -16)
    pin.roots[2] = (0, 1, 1)
    assert braid_failure(pin) == (0, 2)
    assert not braid_check(pin)


class TestSigmaTilde:
    def test_nonzero_iff_nsol(self, tableau, pins):
        tab = tableau("A", 5)
        pin = pins("A", 4)
        for rec in tab.table.orbits:
            st = sigma_tilde(tab, pin, rec.label.partition)
            if nsol_predicate(rec.label):
                assert st.exact_norm > 0
            else:
                assert st.exact_norm == 0
                assert all(abs(v) < 1e-9 for v in st.values)

    def test_32_example(self, tableau, pins):
        tab = tableau("A", 5)
        pin = pins("A", 4)
        st = sigma_tilde(tab, pin, (3, 2))
        assert g_lambda((3, 2)) == 2
        assert st.exact_norm == 2
        # dim = a_lambda * 2 constituents * 4 each = 8
        assert abs(st.dimension() - 8) < 1e-9

    def test_sp4_22_norm(self, tableau, pins):
        tab = tableau("C", 2)
        pin = pins("C", 2)
        st = sigma_tilde(tab, pin, (2, 2), "triv")
        # rank 2 even: a_V = 1; <phi,phi>^{-1} = 1
        assert st.exact_norm == 1

    def test_distinct_orbit_orthogonality(self, tableau, pins):
        tab = tableau("A", 5)
        pin = pins("A", 4)
        parts = [r.label.partition for r in tab.table.orbits]
        for a in parts:
            for b in parts:
                if a != b:
                    assert _spin_pairing(tab, pin, (a, "triv"), (b, "triv")) == 0


@pytest.mark.parametrize("ambient,n", SOLVED_TABLES)
def test_spin_integers_are_read_off_the_tableau(tableau, monkeypatch, ambient, n):
    # every integer the spin layer reports equals its class-sum form, with
    # the class-sum kernel out of reach, and, for the classification and the
    # pairings, every class value of a character too
    tab = tableau(ambient, n)
    pin = build_pin(tab.group)
    names = [
        (tab.table.orbits[o].label.partition, tab.table.orbits[o].systems[s].label)
        for o, s in tab.pairs
    ]
    pairing = spin_pairings_by_class_sums(tab, pin)
    flags = [index_flags_by_class_sums(tab, j) for j in range(len(names))]
    strict = [(tab.table.pair_of(lam), lam) for lam in distinct_partitions(n)] if ambient == "A" else []
    betti = [alternating_betti_by_class_value(tab, j) for j, _ in strict]
    multiplicity = [[tensor_spin_multiplicity_oracle(tab, pa, pb) for pb in names] for pa in names]

    def refuse(*args, **kwargs):
        raise AssertionError(
            "the spin layer took a class sum, a class value, K or a component-group pairing"
        )

    monkeypatch.setattr(charring, "_pair", refuse)
    monkeypatch.setattr(charring, "_class_gram", refuse)
    # the multiplicities read one pairing the solver keeps, not K or K^{-1}
    monkeypatch.setattr(GreenTableau, "k_matrix", refuse)
    # nor the component-group pairing: swapping the code object reaches every
    # name bound to q_M_pairing, wherever it was imported
    monkeypatch.setattr(springer.q_M_pairing, "__code__", refuse.__code__)
    with monkeypatch.context() as m:
        m.setattr(VirtualCharacter, "values", property(refuse))
        for (j, lam), want in zip(strict, betti):
            rep = classify_constituents(tab, pin, lam)
            assert (rep.exact_norm, rep.alternating_betti) == (pairing[j][j], want), lam
        for a, pa in enumerate(names):
            for b, pb in enumerate(names):
                assert _spin_pairing(tab, pin, pa, pb) == pairing[a][b], (pa, pb)
                assert tensor_spin_multiplicity(tab, pa, pb) == multiplicity[a][b], (pa, pb)
    for j, (lam, phi) in enumerate(names):
        assert sigma_tilde(tab, pin, lam, phi).exact_norm == pairing[j][j], (lam, phi)
        di = dirac_index_char(tab, pin, lam, phi)
        assert (di.even_nonzero, di.coset_nonzero) == flags[j], (lam, phi)


@pytest.mark.parametrize("n", range(2, 9))
def test_sigma_tilde_is_schur_spin_character(tableau, n):
    # Schur's spin characters of the double cover of S_n: on a class rho with
    # only odd parts, sigma~(lambda)(rho) = a_lambda 2^((l(rho) - l(lambda) +
    # eps)/2) X^lambda_rho, eps = (n - l(lambda)) mod 2 (the exponent is an
    # integer, as l(rho) and n have the same parity); on every other class
    # it is 0
    tab = tableau("A", n)
    pin = build_pin(tab.group)
    for lam in distinct_partitions(n):
        a_lam = classify_constituents(tab, pin, lam).a_lambda
        eps = (n - len(lam)) % 2
        chi = schur_spin_character(lam)
        for cls, got in zip(tab.group.classes, sigma_tilde(tab, pin, lam).values):
            rho = cls.label
            want = 0
            if all(p % 2 for p in rho):
                want = a_lam * Fraction(2) ** ((len(rho) - len(lam) + eps) // 2) * chi.get(rho, 0)
            assert abs(got - want) < 1e-9, (lam, rho)


class TestClassification:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_norm_patterns(self, tableau, n):
        tab = tableau("A", n)
        pin = build_pin(tab.group)
        total = 0
        for lam in distinct_partitions(n):
            rep = classify_constituents(tab, pin, lam)
            total += rep.constituents
            assert rep.alternating_betti == g_lambda(lam)
        assert total == genuine_count_typeA(n)

    def test_n4_fixtures(self, tableau):
        tab = tableau("A", 4)
        pin = build_pin(tab.group)
        r31 = classify_constituents(tab, pin, (3, 1))
        assert (r31.constituents, r31.dim_each, r31.a_lambda) == (1, 4, 2)
        r4 = classify_constituents(tab, pin, (4,))
        assert (r4.constituents, r4.dim_each) == (2, 2)
        assert genuine_count_typeA(4) == 3

    def test_rejects_non_distinct(self, tableau):
        tab = tableau("A", 4)
        pin = build_pin(tab.group)
        with pytest.raises(ValueError):
            classify_constituents(tab, pin, (2, 2))

    def test_g_lambda_values(self):
        assert g_lambda((3, 2)) == 2
        assert g_lambda((3, 1)) == 2
        assert g_lambda((4,)) == 1
        assert g_lambda((2, 1)) == 1
        assert g_lambda((4, 3, 2, 1)) == 12


class TestCharFormula:
    def test_type_a(self, tableau, pins):
        tab = tableau("A", 4)
        pin = pins("A", 3)
        assert char_formula_check(tab, pin, (3, 1))
        assert char_formula_check(tab, pin, (4,))

    def test_sp4(self, tableau, pins):
        tab = tableau("C", 2)
        pin = pins("C", 2)
        assert char_formula_check(tab, pin, (2, 2), "triv")
        assert char_formula_check(tab, pin, (2, 2), "sgn")

    def test_regular_identity_ratio(self, tableau, pins):
        tab = tableau("A", 3)
        pin = pins("A", 2)
        st = sigma_tilde(tab, pin, (3,))
        ident = tab.group.identity_class
        dim_s = pin.trace(pin.lift(()))
        assert abs(st.values[ident] / dim_s - 1) < 1e-9  # X_{-1}(1) = 1 on a point


@pytest.mark.parametrize(
    "ambient,n", [*SOLVED_TABLES, pytest.param("A", 12, marks=pytest.mark.gl12)]
)
def test_multiplicity_is_the_papers_formula(tableau, ambient, n):
    # a_V sum_phi'' K(-1)^{-1}[(e,phi),(e',phi'')] <phi', phi''>^{-1}_{A(e')}
    # for every ordered pair: the coefficient of column j in the source's
    # irreducible is K(-1)^{-1}[j][source], by back substitution, and the
    # component-group pairing is summed over the target orbit's systems
    tab = tableau(ambient, n)
    table = tab.table
    kinv = k_at_minus_one_inverse(tab)
    a_v = 2 if tab.group.type.rank % 2 else 1
    names = [
        (table.orbits[o].label.partition, table.orbits[o].systems[s].label)
        for o, s in tab.pairs
    ]
    for i, source in enumerate(names):
        for (to, ts), target in zip(tab.pairs, names):
            rec = table.orbits[to]
            want = a_v * sum(
                kinv[j][i] * springer.q_M_pairing(
                    rec.label, rec.systems[ts].char_mask, system.char_mask
                ).eval(-1)
                for j, system in zip(table.blocks[to], rec.systems)
            )
            assert tensor_spin_multiplicity(tab, source, target) == want, (source, target)


class TestTensor:
    def test_formula_matches_oracle(self, tableau):
        for key in [("A", 3), ("A", 4), ("C", 2), ("C", 3)]:
            tab = tableau(*key)
            names = [
                (tab.table.orbits[o].label.partition, tab.table.orbits[o].systems[s].label)
                for o, s in tab.pairs
            ]
            for src in names:
                for tgt in names:
                    assert tensor_spin_multiplicity(tab, src, tgt) == \
                        tensor_spin_multiplicity_oracle(tab, src, tgt)

    def test_support_condition(self, tableau):
        tab = tableau("A", 4)
        names = [
            (tab.table.orbits[o].label.partition, tab.table.orbits[o].systems[s].label)
            for o, s in tab.pairs
        ]
        for src in names:
            so = tab.table.find_orbit(src[0])
            for tgt in names:
                to = tab.table.find_orbit(tgt[0])
                if so != to and (to, so) not in tab.table.greater:
                    assert tensor_spin_multiplicity(tab, src, tgt) == 0

    def test_leading_term(self, tableau):
        tab = tableau("A", 3)
        # e' = e: a_V <phi,phi>^{-1}_{A(e)}: S3 has a_V = 1, A(e) trivial with
        # V_Z of dim l-1: value 2^{l-1}
        assert tensor_spin_multiplicity(tab, ((2, 1), "triv"), ((2, 1), "triv")) == 2
        assert tensor_spin_multiplicity(tab, ((3,), "triv"), ((3,), "triv")) == 1


class TestDiracIndex:
    def test_nonvanishing_iff_nsol(self, tableau, pins):
        for key in [("A", 3), ("A", 4), ("C", 2), ("C", 3)]:
            tab = tableau(*key)
            pin = pins(key[0], key[1] if key[0] == "C" else key[1] - 1)
            for rec in tab.table.orbits:
                for sys in rec.systems:
                    di = dirac_index_char(tab, pin, rec.label.partition, sys.label)
                    assert (di.even_nonzero or di.coset_nonzero) == nsol_predicate(rec.label)

    def test_quasidistinguished_split(self, tableau, pins):
        # (2,1) in GL(3): solvable centralizer but not quasidistinguished:
        # even part zero, coset part nonzero
        tab = tableau("A", 3)
        pin = pins("A", 2)
        di = dirac_index_char(tab, pin, (2, 1))
        assert not di.even_nonzero and di.coset_nonzero
        # regular: both parts nonzero; zero orbit: both vanish
        di = dirac_index_char(tab, pin, (3,))
        assert di.even_nonzero and di.coset_nonzero
        di = dirac_index_char(tab, pin, (1, 1, 1))
        assert not di.even_nonzero and not di.coset_nonzero

    def test_regular_coset_dimension(self, tableau, pins):
        tab = tableau("A", 3)
        pin = pins("A", 2)
        di = dirac_index_char(tab, pin, (3,))
        ident = tab.group.identity_class
        assert abs(di.coset_values[ident] - pin.trace(pin.lift(()))) < 1e-9


class TestReferenceCounts:
    def test_sign_twist_dimensions(self):
        assert sign_twist_space_dimension("A", 3) == 2  # distinct partitions of 4
        assert sign_twist_space_dimension("B", 6) == 11
        assert sign_twist_space_dimension("G2", 2) == 3
        assert sign_twist_space_dimension("D", 4) == 4
        assert sign_twist_space_dimension("D", 5) == 4

    def test_iota_isomorphism_except_d_even(self):
        # the twisted-elliptic count matches the genuine sgn-space dimension
        # for A, B and G2; for even D the genuine side is strictly larger
        for fam, rank in [("A", 2), ("A", 5), ("B", 2), ("B", 4), ("G2", 2)]:
            g = build(WeylType(fam, rank))
            assert sign_twist_space_dimension(fam, rank) == delta_elliptic_count(g)
        for rank in (4, 6):
            g = build(WeylType("D", rank))
            assert sign_twist_space_dimension("D", rank) > delta_elliptic_count(g)


class TestCrossModuleNorms:
    def test_exact_norm_matches_component_recipe(self, tableau, pins):
        # the double-cover norm of each spin-tensored column equals
        # a_V times the component-group pairing at q = -1, for every
        # built-in pair
        for key in [("A", 3), ("A", 5), ("C", 1), ("C", 2), ("C", 3)]:
            tab = tableau(*key)
            pin = build_pin(tab.group)
            for rec in tab.table.orbits:
                for sys in rec.systems:
                    st = sigma_tilde(tab, pin, rec.label.partition, sys.label)
                    want = pin.a_v * springer.q_M_pairing(
                        rec.label, sys.char_mask, sys.char_mask
                    ).eval(-1)
                    assert st.exact_norm == want, (key, rec.label.partition)

    def test_iota_isomorphism_for_odd_d(self):
        for rank in (3, 5):
            g = build(WeylType("D", rank))
            assert sign_twist_space_dimension("D", rank) == delta_elliptic_count(g)
