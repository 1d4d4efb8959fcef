"""Exact Clifford algebra, pin lifts, and the double-cover character data.

An element of the Clifford algebra of the ambient space R^m (e_j^2 = -1,
e_i e_j = -e_j e_i) is a dict from the bitmask S of a monomial
e_S = e_{s1} ... e_{sk} (s1 < ... < sk) to an integer coefficient.  The
simple roots are the integer vectors of `weyl.ambient_simple_roots`, and the
lift f = alpha/|alpha| of a simple reflection is kept as alpha with its
squared length, so the lift of a word is x/sqrt(N): x = alpha_i1 ... alpha_ik
is an integer Clifford element and N = prod |alpha_i|^2 an integer.

The spin module has dimension 2^ceil(n/2), n the rank: for odd n it is the sum
of the two simple spin modules, and for even n the volume element z of V
cuts it into the two half-spin pieces.  Every monomial but 1 has trace zero
on it, so tr(x/sqrt(N)) = dim x_0/sqrt(N).  For B/C/D, V = R^n and
z = e_1 ... e_n; for A_r and G2, V is the sum-zero plane of R^{r+1} (R^3 for
G2) and z = eps e_full u/sqrt(r+1) with u = e_0 + ... + e_r, the orientation
eps being -1 for A and +1 for G2.  Every identity of the pin layer (the
reflection property of the lifts, the braid relations, tr^2 = a_V det(1 + w))
is checked as an equality of integers.  The reflection property is one
Clifford product per simple root, on a vector sum_j B^j e_j whose base B
keeps the coordinates apart (`_reflects`).  Every integer the layer reports
is read off the solved tableau, with no class sum: pairings are bilinear and
evaluation at q0 is a ring map, so the entry M_ab(q0) of the q-elliptic Gram
of the Green columns is the pairing < X_q0(a), X_q0(b) >^q0, and the
alternating Betti sum X_{-1}(1) is sum_a K_aj(-1) dim chi_a.  A tensor
multiplicity is one stored pairing, of an irreducible with a column, at -1.
Class values of a column are formed only for the class functions that
`sigma_tilde` and `dirac_index_char` return for printing; floats appear only
in those values.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import copysign, factorial, sqrt
from operator import mul

from .charring import VirtualCharacter, chevalley_failure, minus_one_gram_rank
from .lusztigshoji import GreenTableau
from .partitions import distinct_partitions, is_distinct
from .weyl import WeylGroupData, ambient_simple_roots, braid_order, delta_elliptic_count, label_str, reduced_word


def _times(x: dict, vec) -> dict:
    """x v for an integer vector v = sum_j v_j e_j.

    e_S e_j = (-1)^{#(S n [j, m))} e_{S xor {j}}: e_j moves left past the
    larger indices of S, and meets e_j^2 = -1 when j lies in S.
    """
    out = {}
    for j, a in enumerate(vec):
        if a:
            bit = 1 << j
            for s, c in x.items():
                t = s ^ bit
                out[t] = out.get(t, 0) + (-a * c if (s >> j).bit_count() & 1 else a * c)
    return {s: c for s, c in out.items() if c}


def _unit(j: int) -> tuple:
    return (0,) * j + (1,)


@lru_cache(maxsize=None)
def _norm(v) -> int:
    """|v|^2 for an integer vector v, memoised on v: the lifts and the braid
    check take one per letter, of the same few simple roots."""
    return sum(map(mul, v, v))


def _mul(x: dict, y: dict) -> dict:
    """x y, one monomial e_T = e_{t1} ... e_{tk} of y at a time."""
    out = {}
    for t, d in y.items():
        xt = x
        for j in range(t.bit_length()):
            if t >> j & 1:
                xt = _times(xt, _unit(j))
        for s, c in xt.items():
            out[s] = out.get(s, 0) + d * c
    return {s: c for s, c in out.items() if c}


def _scalar_of_product(x: dict, y: dict) -> int:
    """The coefficient of 1 in x y: e_S e_S = (-1)^{k(k+1)/2}, k = |S|."""
    total = 0
    for s, c in x.items():
        d = y.get(s)
        if d:
            k = s.bit_count()
            total += -c * d if (k * (k + 1) // 2) % 2 else c * d
    return total


def _float_root(k: int, n: int) -> float:
    """k/sqrt(n) as a float, rounded from the exact square k^2/n."""
    return copysign(sqrt(k * k / n), k)


class PinElement:
    """x/sqrt(norm) in Pin(V): x an integer Clifford element, norm > 0."""

    def __init__(self, coeffs: dict, norm: int):
        self.coeffs = coeffs
        self.norm = norm


def _a_v(rank: int) -> int:
    """a_V, the ratio of tr(w)^2 on the spin module to det(1 + w): 2 for odd
    rank, where the module is the sum of the two simple spin modules, else 1."""
    return 2 if rank % 2 else 1


class PinRep:
    def __init__(self, group: WeylGroupData, n: int, roots: list, volume: dict,
                 volume_norm: int, z_square_sign: int, c: complex):
        self.group = group
        self.n = n
        self.roots = roots  # integer simple roots in R^m
        self.volume = volume  # z = volume/sqrt(volume_norm)
        self.volume_norm = volume_norm
        self.z_square_sign = z_square_sign  # (-1)^{n(n+1)/2}
        self.c = c  # eigenvalue of z on the positive half-spin piece

    @property
    def a_v(self) -> int:
        return _a_v(self.n)

    @property
    def spin_dim(self) -> int:
        return 2 ** ((self.n + 1) // 2)

    def lift(self, word) -> PinElement:
        x, norm = {0: 1}, 1
        for i in word:
            x = _times(x, self.roots[i])
            norm *= _norm(self.roots[i])
        return PinElement(x, norm)

    def lift_of_class(self, cls: int) -> PinElement:
        rep = self.group.classes[cls].representative
        return self.lift(reduced_word(self.group, rep))

    @cached_property
    def class_lifts(self) -> list:
        """One lift per conjugacy class (fixed by the stored word)."""
        return [self.lift_of_class(k) for k in range(len(self.group.classes))]

    def trace(self, u: PinElement) -> float:
        """dim x_0/sqrt(N): every other monomial has trace zero."""
        return _float_root(self.spin_dim * u.coeffs.get(0, 0), u.norm)

    def index_trace(self, u: PinElement) -> complex:
        """tr(u z)/c: the trace on S+ minus the trace on S-."""
        s = self.spin_dim * _scalar_of_product(u.coeffs, self.volume)
        return _float_root(s, u.norm * self.volume_norm) / self.c

    def spin_square_holds(self, u: PinElement, det: int) -> bool:
        """tr(u)^2 = a_V det_V(1 + w), as dim^2 x_0^2 = a_V det N."""
        x0 = u.coeffs.get(0, 0)
        return (self.spin_dim * x0) ** 2 == self.a_v * det * u.norm


class PinConstructionError(RuntimeError):
    pass


def _reflects(r) -> bool:
    """Whether the lift of the root alpha = r projects to the reflection
    s_alpha, checked on the one vector v = sum_j B^j e_j.

    The lift projects to s_alpha when alpha e_j alpha = N e_j - 2 r_j alpha
    for every j, N = |alpha|^2 (eps(u) xi u^-1 = s_alpha(xi) for
    u = alpha/|alpha|).  Both sides are linear in e_j, so on v the check
    reads alpha v alpha = N v - 2 <r, v> alpha, and the coefficient of each
    monomial e_S there is sum_j B^j d_j(S), d_j(S) that coefficient in the
    difference of the two sides at e_j.  alpha e_j alpha is a sum of
    r_k r_l e_k e_j e_l, each product of monomials +-1 times a monomial, so
    its coefficients are at most |r|_1^2, and those of N e_j - 2 r_j alpha at
    most N + 2 |r|_1^2 <= 3 |r|_1^2: |d_j(S)| <= 4 |r|_1^2.  B = 8 |r|_1^2 + 1
    exceeds twice that, so sum_j B^j d_j(S) = 0 forces d_0(S) = 0 (B divides
    it and |d_0(S)| < B) and, dividing by B, every d_j(S) = 0 in turn: the
    check on v holds exactly when the check on every e_j does.
    """
    one = sum(map(abs, r))
    big = 8 * one * one + 1
    v = tuple(big**j for j in range(len(r)))
    dot = sum(map(mul, r, v))
    image = _times(_times(_times({0: 1}, r), v), r)
    return image == _times({0: 1}, tuple(_norm(r) * x - 2 * dot * a for x, a in zip(v, r)))


def build_pin(g: WeylGroupData, tol: float = 1e-12) -> PinRep:
    """Integer roots, the volume element, and verified reflection lifts.

    Every check is an exact integer identity; `tol` is accepted for
    compatibility and not used.
    """
    n = g.type.rank
    roots = [tuple(r) for r in ambient_simple_roots(g.type)]
    m = len(roots[0])
    volume, volume_norm = {(1 << m) - 1: 1}, 1
    if m > n:  # V is the sum-zero plane of R^m: z = e_full (eps u)/sqrt(m)
        eps = -1 if g.type.family == "A" else 1
        volume, volume_norm = _times(volume, (eps,) * m), m
    sign = -1 if (n * (n + 1) // 2) % 2 else 1
    if _mul(volume, volume) != {0: sign * volume_norm}:
        raise PinConstructionError("z^2 is not (-1)^{n(n+1)/2}")
    c = 1 if sign == 1 else 1j

    if not all(map(_reflects, roots)):
        raise PinConstructionError("pin lift does not project to s_alpha")
    return PinRep(g, n, roots, volume, volume_norm, sign, c)


def braid_failure(pin: PinRep):
    """The first simple pair (i, j) with (f_i f_j)^{m(i,j)} != -1, or None.

    In integers: (alpha_i alpha_j)^m = -t with t > 0 and t^2 = (N_i N_j)^m.
    """
    g = pin.group
    roots = pin.roots
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            m = braid_order(g, i, j)
            x = {0: 1}
            for _ in range(m):
                x = _times(_times(x, roots[i]), roots[j])
            t = -x.get(0, 0)
            target = (_norm(roots[i]) * _norm(roots[j])) ** m
            if t <= 0 or len(x) > 1 or t * t != target:
                return (i, j)
    return None


def braid_check(pin: PinRep, tol: float = 1e-10) -> bool:
    """(lift_i lift_j)^{m(i,j)} = -1 for all simple pairs, exactly; `tol` is
    accepted for compatibility and not used."""
    return braid_failure(pin) is None


def group_identities(g: WeylGroupData) -> list:
    """`verify all`'s identities on the group alone, as `lusztigshoji.verify`'s
    (name, ok, witness) triples, a failing class witnessed by its label; a
    failed pin construction ends the list with ("pin_construction", False, message)."""
    k = chevalley_failure(g)
    rank, count = minus_one_gram_rank(g), delta_elliptic_count(g)
    out = [("chevalley_product", k is None, None if k is None else label_str(g.classes[k].label)),
           ("elliptic_rank_count", rank == count, None if rank == count else {"rank": rank, "count": count})]
    try:
        pin = build_pin(g)
    except PinConstructionError as exc:
        return out + [("pin_construction", False, str(exc))]
    pair = braid_failure(pin)
    bad = next((label_str(c.label) for c, u, det in zip(g.classes, pin.class_lifts, g.refl_charpoly)
                if not pin.spin_square_holds(u, det.eval(-1))), None)
    return out + [("pin_braid_relations", pair is None, None if pair is None else {"pair": list(pair)}),
                  ("spin_square_trace", bad is None, bad)]


def spin_traces_by_class(pin: PinRep):
    """One lift trace per conjugacy class (lift fixed by the stored word)."""
    return [pin.trace(u) for u in pin.class_lifts]


def index_traces_by_class(pin: PinRep):
    """Traces of the half-spin difference: tr(w z)/c per class."""
    return [pin.index_trace(u) for u in pin.class_lifts]


# ---------------------------------------------------------------------------
# the genuine characters attached to Green columns


class SpinClassFunction:
    def __init__(self, group: WeylGroupData, values: list, exact_norm: int):
        self.group = group
        self.values = values  # float per class, for the stored lift choice
        self.exact_norm = exact_norm  # a_V M_jj(-1) = a_V < X_{-1}, X_{-1} >^{-1}_W

    def dimension(self) -> float:
        return self.values[self.group.identity_class]


def _column_at(tab: GreenTableau, j: int, q0: int) -> VirtualCharacter:
    return VirtualCharacter(
        tab.group, tuple(c.eval(q0) for c in tab.coords[j])
    )


def sigma_tilde(
    tab: GreenTableau, pin: PinRep, partition, system="triv"
) -> SpinClassFunction:
    """X_{-1}(e,phi) tensored with the spin module, as a class function."""
    j = tab.table.pair_of(partition, system)
    x = _column_at(tab, j, -1)
    traces = spin_traces_by_class(pin)
    values = [x.value(k) * traces[k] for k in range(len(tab.group.classes))]
    return SpinClassFunction(tab.group, values, pin.a_v * tab.M[j][j].eval(-1))


def g_lambda(lam) -> int:
    """n!/(prod lam_i!) * prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j)."""
    num, den = factorial(sum(lam)), 1
    for p in lam:
        den *= factorial(p)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num *= lam[i] - lam[j]
            den *= lam[i] + lam[j]
    val, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"g^lambda not an integer for {lam}")
    return val


class TypeAClassification:
    def __init__(self, partition: tuple, even: bool, a_lambda: int, constituents: int,
                 dim_each: int, exact_norm: int, alternating_betti: int):
        self.partition = partition
        self.even = even  # parts count congruent to n mod 2
        self.a_lambda = a_lambda
        self.constituents = constituents  # 1 for a self-dual single, 2 for a dual pair
        self.dim_each = dim_each
        self.exact_norm = exact_norm
        # (-1)^{d_e} sum (-1)^i dim H^{2i} = X_{-1}(1) = g^lambda
        self.alternating_betti = alternating_betti


def classify_constituents(
    tab: GreenTableau, pin: PinRep, partition
) -> TypeAClassification:
    """Norm-based splitting of the spin-tensored column, symmetric group case."""
    if tab.table.ambient != "A":
        raise ValueError("constituent classification is stated for GL(n) tables")
    lam = tuple(partition)
    if not is_distinct(lam):
        raise ValueError("classification needs a distinct-parts orbit")
    n = sum(lam)
    ell = len(lam)
    even = (ell - n) % 2 == 0
    if n % 2 == 0 and even:
        a_lam = 2 ** (ell // 2)
    else:
        a_lam = 2 ** ((ell - 1) // 2)
    expected_single = a_lam * a_lam
    j = tab.table.pair_of(lam)
    norm = pin.a_v * tab.M[j][j].eval(-1)
    if norm == expected_single:
        constituents = 1
    elif norm == 2 * expected_single:
        constituents = 2
    else:
        raise ArithmeticError(
            f"norm {norm} for {lam} matches neither a_l^2 = {expected_single} "
            f"nor 2 a_l^2"
        )
    if (constituents == 1) != even:
        raise ArithmeticError(f"norm pattern contradicts the parity of {lam}")
    dim_each = 2 ** ((n - ell) // 2) * g_lambda(lam)
    # X_{-1}(1) = sum_a K_aj(-1) dim chi_a
    one = tab.group.identity_class
    betti = sum(c.eval(-1) * row[one] for c, row in zip(tab.coords[j], tab.group.char_table) if c)
    return TypeAClassification(
        lam, even, a_lam, constituents, dim_each, norm, betti
    )


def genuine_count_typeA(n: int) -> int:
    """Number of genuine double-cover irreducibles of the symmetric group:
    sum over distinct partitions of 1 (even) or 2 (odd)."""
    total = 0
    for lam in distinct_partitions(n):
        total += 1 if (len(lam) - n) % 2 == 0 else 2
    return total


# ---------------------------------------------------------------------------
# tensor decompositions and the extended index


def tensor_spin_multiplicity(tab: GreenTableau, source, target) -> int:
    """Multiplicity pairing of sigma(e,phi) tensor S against the target's
    spin-tensored column: a_V <chi_sigma, X_{-1}(e',phi')>^{-1}_W, one
    pairing the solver keeps (`GreenTableau.pairings`), read at q = -1.

    This is the paper's a_V sum_phi'' Kinv(-1)[(e,phi),(e',phi'')]
    <phi', phi''>^{-1}_{A(e')}: chi_sigma = sum_j Kinv_j X_j, so by
    bilinearity the pairing is sum_j Kinv_j <X_j, X(e',phi')>; and `verify`
    checks the component-group isometry and the orthogonality across orbits,
    so <X_j, X(e',phi')> is <phi', phi''>_{A(e')} if X_j = X(e',phi''), else 0.
    """
    sigma = tab.table.pair_irreps[tab.table.pair_of(*source)]
    pairing = tab.pairings[tab.table.pair_of(*target)][sigma]
    return _a_v(tab.group.type.rank) * pairing.eval(-1)


class DiracIndex:
    note = "coset part reported projectively; its global scalar is not fixed"

    def __init__(self, even_values: list, coset_values: list, even_nonzero: bool,
                 coset_nonzero: bool):
        self.even_values = even_values  # X_1(w) * (tr S+ - tr S-) per class
        self.coset_values = coset_values  # X_{-1}(w) * tr(S) per class, up to a global scalar
        self.even_nonzero = even_nonzero  # <X_1, X_1>^1 = M_jj(1) != 0
        self.coset_nonzero = coset_nonzero  # <X_{-1}, X_{-1}>^{-1} = M_jj(-1) != 0


def dirac_index_char(tab: GreenTableau, pin: PinRep, partition, system="triv"):
    j = tab.table.pair_of(partition, system)
    x1 = _column_at(tab, j, 1)
    xm = _column_at(tab, j, -1)
    half_diff = index_traces_by_class(pin)
    full = spin_traces_by_class(pin)
    even_vals = [x1.value(k) * half_diff[k] for k in range(len(tab.group.classes))]
    coset_vals = [xm.value(k) * full[k] for k in range(len(tab.group.classes))]
    return DiracIndex(even_vals, coset_vals, tab.M[j][j].eval(1) != 0, tab.M[j][j].eval(-1) != 0)
