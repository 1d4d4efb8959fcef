"""Clifford algebra, pin lifts, and the double-cover character data.

Gamma matrices use the tensor-of-Paulis ladder at size 2^ceil(n/2), so for
odd n the representation is the sum of the two simple spin modules and for
even n the volume element z cuts it into the two half-spin pieces.  All
norms and multiplicities route through exact character-ring identities; the
floating-point traces only cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING

from .charring import minus_one_pairing, one_pairing, VirtualCharacter
from .lusztigshoji import GreenTableau, k_at_minus_one_inverse
from .partitions import distinct_partitions, is_distinct
from .springer import q_M_pairing
from .weyl import (
    WeylGroupData,
    WeylType,
    braid_order,
    build,
    delta_elliptic_count,
    reduced_word,
    simple_generators,
    unit_simple_roots,
)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported by the functions that use it, so that the CLI verbs
# without a pin layer do not pay for its import


@lru_cache(maxsize=None)
def _paulis():
    """The Pauli matrices (sigma_x, sigma_y, sigma_z)."""
    import numpy as np

    return (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )


def _hermitian_gammas(n: int):
    """n anticommuting Hermitian involutions of size 2^ceil(n/2)."""
    import numpy as np

    sx, sy, sz = _paulis()
    k = (n + 1) // 2
    out = []
    for j in range(n):
        factors = [sz] * (j // 2) + [sx if j % 2 == 0 else sy]
        factors += [np.eye(2, dtype=complex)] * (k - len(factors))
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        out.append(m)
    return out


@dataclass
class PinRep:
    group: WeylGroupData
    n: int
    gammas: list  # gamma_j^2 = -1, anticommuting
    z: np.ndarray
    z_square_sign: int  # (-1)^{n(n+1)/2}
    c: complex  # eigenvalue of z on the positive half-spin piece
    simple_lifts: list

    @property
    def a_v(self) -> int:
        return 2 if self.n % 2 else 1

    @property
    def spin_dim(self) -> int:
        return self.gammas[0].shape[0]

    def vector(self, v) -> np.ndarray:
        import numpy as np

        m = np.zeros_like(self.gammas[0])
        for coef, gamma in zip(v, self.gammas):
            m = m + coef * gamma
        return m

    def lift(self, word) -> np.ndarray:
        import numpy as np

        m = np.eye(self.spin_dim, dtype=complex)
        for i in word:
            m = m @ self.simple_lifts[i]
        return m

    def lift_of_class(self, cls: int) -> np.ndarray:
        rep = self.group.classes[cls].representative
        return self.lift(reduced_word(self.group, rep))

    def chirality_projectors(self):
        import numpy as np

        eye = np.eye(self.spin_dim, dtype=complex)
        return (eye + self.z / self.c) / 2, (eye - self.z / self.c) / 2


class PinConstructionError(RuntimeError):
    pass


def build_pin(g: WeylGroupData, tol: float = 1e-12) -> PinRep:
    """Gamma matrices, the volume element, and verified reflection lifts."""
    import numpy as np

    n = g.type.rank
    gammas = [1j * h for h in _hermitian_gammas(n)]
    dim = gammas[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    for i in range(n):
        for j in range(n):
            anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
            target = -2.0 * eye if i == j else 0.0 * eye
            if np.abs(anti - target).max() > tol:
                raise PinConstructionError("anticommutation residual too large")
    z = eye
    for gamma in gammas:
        z = z @ gamma
    sign = -1 if (n * (n + 1) // 2) % 2 else 1
    if np.abs(z @ z - sign * eye).max() > tol:
        raise PinConstructionError("z^2 residual too large")
    c = 1.0 + 0j if sign == 1 else 1j

    roots = unit_simple_roots(g)
    pin = PinRep(g, n, gammas, z, sign, c, [])
    lifts = [pin.vector(r) for r in roots]
    pin.simple_lifts = lifts

    # p(lift) must be the reflection: eps(u) xi u^{-1} = s_alpha(xi) on basis
    # vectors; with u^2 = -1 this is u xi u
    for r, u in zip(roots, lifts):
        for j in range(n):
            image = u @ gammas[j] @ u
            e_j = np.zeros(n)
            e_j[j] = 1.0
            refl = e_j - 2.0 * float(np.dot(e_j, r)) * np.asarray(r)
            target = pin.vector(refl)
            if np.abs(image - target).max() > 10 * tol:
                raise PinConstructionError("pin lift does not project to s_alpha")
    return pin


def braid_check(pin: PinRep, tol: float = 1e-10) -> bool:
    """(lift_i lift_j)^{m(i,j)} = -1 for all simple pairs."""
    import numpy as np

    g = pin.group
    k = len(simple_generators(g.type))
    eye = np.eye(pin.spin_dim, dtype=complex)
    for i in range(k):
        for j in range(i + 1, k):
            m = braid_order(g, i, j)
            prod = pin.simple_lifts[i] @ pin.simple_lifts[j]
            acc = eye
            for _ in range(m):
                acc = acc @ prod
            if np.abs(acc + eye).max() > tol:
                return False
    return True


def trace_spin(pin: PinRep, word, check_tol: float | None = 1e-8) -> complex:
    """Trace of the lifted word on the (sum of) spin module(s).

    With check_tol set, verifies tr^2 = a_V det_V(1 + w) against the exact
    characteristic polynomial of the underlying group element.
    """
    g = pin.group
    t = pin.lift(word).trace()
    if check_tol is not None:
        mul = g.mul
        gens = simple_generators(g.type)
        from .weyl import identity_element

        cur = identity_element(g.type)
        for i in word:
            cur = mul(cur, gens[i])
        det = g.refl_charpoly[g.class_of(cur)].eval(-1)
        if abs(t * t - pin.a_v * det) > check_tol:
            raise PinConstructionError(
                f"spin-square identity violated: tr^2 = {t * t}, "
                f"a_V det(1+w) = {pin.a_v * det}"
            )
    return t


def spin_traces_by_class(pin: PinRep):
    """One lift trace per conjugacy class (lift fixed by the stored word)."""
    return [
        pin.lift_of_class(k).trace() for k in range(len(pin.group.classes))
    ]


def index_traces_by_class(pin: PinRep):
    """Traces of the half-spin difference: tr(w z)/c per class."""
    out = []
    for k in range(len(pin.group.classes)):
        m = pin.lift_of_class(k)
        out.append((m @ pin.z).trace() / pin.c)
    return out


# ---------------------------------------------------------------------------
# the genuine characters attached to Green columns


@dataclass
class SpinClassFunction:
    group: WeylGroupData
    values: list  # complex per class, for the stored lift choice
    exact_norm: int  # a_V < X_{-1}, X_{-1} >^{-1}_W, computed exactly

    def dimension(self) -> complex:
        return self.values[self.group.identity_class]


def _column_at(tab: GreenTableau, j: int, q0: int) -> VirtualCharacter:
    return VirtualCharacter(
        tab.group, tuple(c.eval(q0) for c in tab.coords[j])
    )


def sigma_tilde(
    tab: GreenTableau, pin: PinRep, partition, system="triv"
) -> SpinClassFunction:
    """X_{-1}(e,phi) tensored with the spin module, as a class function."""
    orbit = tab.table.find_orbit(partition)
    s = tab.table.find_system(orbit, system)
    j = tab.pair_index(orbit, s)
    x = _column_at(tab, j, -1)
    traces = spin_traces_by_class(pin)
    values = [x.value(k) * traces[k] for k in range(len(tab.group.classes))]
    norm = pin.a_v * minus_one_pairing(x, x)
    return SpinClassFunction(tab.group, values, norm)


def sigma_tilde_pairing(tab: GreenTableau, pin: PinRep, pa, pb) -> int:
    """Exact double-cover pairing of two spin class functions by orbit pair.

    pa, pb are (partition, system) tuples; computed in the character ring as
    a_V < X_{-1}(a), X_{-1}(b) >^{-1}_W.
    """
    ja = tab.pair_index(tab.table.find_orbit(pa[0]), tab.table.find_system(
        tab.table.find_orbit(pa[0]), pa[1]))
    jb = tab.pair_index(tab.table.find_orbit(pb[0]), tab.table.find_system(
        tab.table.find_orbit(pb[0]), pb[1]))
    return pin.a_v * minus_one_pairing(_column_at(tab, ja, -1), _column_at(tab, jb, -1))


def char_formula_check(
    tab: GreenTableau, pin: PinRep, partition, system="triv", tol: float = 1e-8
) -> bool:
    """On (-1)-elliptic classes the ratio of the spin-tensored trace by the
    plain spin trace recovers X_{-1}; elsewhere the spin trace vanishes."""
    orbit = tab.table.find_orbit(partition)
    s = tab.table.find_system(orbit, system)
    j = tab.pair_index(orbit, s)
    x = _column_at(tab, j, -1)
    st = sigma_tilde(tab, pin, partition, system)
    g = tab.group
    # the ratio identity holds by construction; the content is the support
    # condition: the denominator vanishes exactly off the (-1)-elliptic set
    for k in range(len(g.classes)):
        det = g.refl_charpoly[k].eval(-1)
        tr = st.values[k] / x.value(k) if x.value(k) else None
        full = pin.lift_of_class(k).trace()
        if det != 0:
            if abs(full) <= tol:
                raise PinConstructionError(
                    f"vanishing spin trace on a (-1)-elliptic class {k}"
                )
            if abs(st.values[k] / full - x.value(k)) > tol:
                return False
        else:
            if abs(full) > tol:
                return False
    return True


def g_lambda(lam) -> int:
    """n!/(prod lam_i!) * prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j)."""
    n = sum(lam)
    val = Fraction(factorial(n))
    for p in lam:
        val /= factorial(p)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            val *= Fraction(lam[i] - lam[j], lam[i] + lam[j])
    if val.denominator != 1:
        raise ArithmeticError(f"g^lambda not an integer for {lam}")
    return int(val)


@dataclass
class TypeAClassification:
    partition: tuple
    even: bool  # parts count congruent to n mod 2
    a_lambda: int
    constituents: int  # 1 for a self-dual single, 2 for a dual pair
    dim_each: int
    exact_norm: int
    alternating_betti: int  # (-1)^{d_e} sum (-1)^i dim H^{2i} = X_{-1}(1) = g^lambda


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
    st = sigma_tilde(tab, pin, lam)
    norm = st.exact_norm
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
    orbit = tab.table.find_orbit(lam)
    j = tab.pair_index(orbit, 0)
    x1 = _column_at(tab, j, -1)
    betti = x1.value(tab.group.identity_class)
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


def sign_twist_space_dimension(family: str, rank: int = 0) -> int:
    """Dimensions of the sgn-symmetrized genuine character space.

    Closed forms in the partitions of the rank for A-D; for G2 it equals the
    number of elliptic delta-twisted classes, which is computed.
    """
    from .partitions import partitions, transpose

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


# ---------------------------------------------------------------------------
# tensor decompositions and the extended index


def tensor_spin_multiplicity(tab: GreenTableau, source, target) -> int:
    """Multiplicity pairing of sigma(e,phi) tensor S against the target
    spin-tensored column: a_V sum_phi'' Kinv(-1)[source,(e',phi'')] *
    <phi', phi''>^{-1}_{A(e')}."""
    table = tab.table
    so = table.find_orbit(source[0])
    ss = table.find_system(so, source[1])
    to = table.find_orbit(target[0])
    ts = table.find_system(to, target[1])
    i = tab.pair_index(so, ss)
    kinv = k_at_minus_one_inverse(tab)
    a_v = 2 if tab.group.type.rank % 2 else 1
    rec = table.orbits[to]
    total = 0
    for s2, sys2 in enumerate(rec.systems):
        j = tab.pair_index(to, s2)
        # expansion of the source irreducible over the X-basis reads off the
        # transposed inverse (columns of K are the X coordinates)
        coef = kinv[j][i]
        if not coef:
            continue
        pairing = q_M_pairing(
            rec.label, rec.systems[ts].char_mask, sys2.char_mask
        ).eval(-1)
        total += coef * pairing
    return a_v * total


def tensor_spin_multiplicity_oracle(tab: GreenTableau, source, target) -> int:
    """Independent class-sum evaluation of the same multiplicity."""
    table = tab.table
    so = table.find_orbit(source[0])
    ss = table.find_system(so, source[1])
    to = table.find_orbit(target[0])
    ts = table.find_system(to, target[1])
    sigma_irrep = table.orbits[so].systems[ss].irrep
    g = tab.group
    sigma = VirtualCharacter(
        g, tuple(1 if i == sigma_irrep else 0 for i in range(len(g.irrep_labels)))
    )
    j = tab.pair_index(to, ts)
    x = _column_at(tab, j, -1)
    a_v = 2 if g.type.rank % 2 else 1
    return a_v * minus_one_pairing(sigma, x)


@dataclass
class DiracIndex:
    even_values: list  # X_1(w) * (tr S+ - tr S-) per class
    coset_values: list  # X_{-1}(w) * tr(S) per class, up to a global scalar
    even_nonzero: bool  # exact: <X_1, X_1>^1 != 0
    coset_nonzero: bool  # exact: <X_{-1}, X_{-1}>^{-1} != 0
    note: str = "coset part reported projectively; its global scalar is not fixed"


def dirac_index_char(tab: GreenTableau, pin: PinRep, partition, system="triv"):
    orbit = tab.table.find_orbit(partition)
    s = tab.table.find_system(orbit, system)
    j = tab.pair_index(orbit, s)
    x1 = _column_at(tab, j, 1)
    xm = _column_at(tab, j, -1)
    half_diff = index_traces_by_class(pin)
    full = spin_traces_by_class(pin)
    even_vals = [x1.value(k) * half_diff[k] for k in range(len(tab.group.classes))]
    coset_vals = [xm.value(k) * full[k] for k in range(len(tab.group.classes))]
    return DiracIndex(
        even_vals,
        coset_vals,
        one_pairing(x1, x1) != 0,
        minus_one_pairing(xm, xm) != 0,
    )
