"""Output checks for the benchmark jobs.

Every check recomputes what it compares against from combinatorics that lives
in this file (partitions, hook lengths, Kostka numbers, centraliser orders,
eigenvalues read off class labels) or tests an identity the method must
satisfy.  Nothing here imports greenpoly and nothing compares against a stored
copy of earlier output.

A check takes the stdout of every job of the pass (keyed by job id) and raises
CheckError on the first violation it finds.
"""

from __future__ import annotations

import ast
import json
import re
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# integer polynomials: lists of coefficients, ascending degree, no trailing 0


def trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def poly_at(a, q0):
    return sum(c * q0**k for k, c in enumerate(a))


def q_integer(d):
    """[d]_q = 1 + q + ... + q^(d-1)."""
    return [1] * d


def poly_from_json(obj):
    require(isinstance(obj, dict) and set(obj) == {"coeffs"}, f"not a polynomial: {obj!r}")
    coeffs = [int(c) for c in obj["coeffs"]]
    require(not coeffs or coeffs[-1] != 0, f"untrimmed polynomial {obj!r}")
    return coeffs


_TERM = re.compile(r"([+-]?)(?:(?:(\d+)\*)?q(?:\^(\d+))?|(\d+))")


def poly_from_str(text):
    """Parse the display form used by `pairing gram --form qell`, e.g. '-q-q^3'."""
    if text == "0":
        return []
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        require(m is not None and m.end() > pos, f"bad polynomial string {text!r}")
        sign, mag, exp, const = m.groups()
        s = -1 if sign == "-" else 1
        if const is not None:
            deg, c = 0, int(const)
        else:
            deg = int(exp) if exp is not None else 1
            c = int(mag) if mag is not None else 1
        require(deg not in coeffs and c != 0, f"bad polynomial string {text!r}")
        coeffs[deg] = s * c
        pos = m.end()
    out = [0] * (max(coeffs) + 1)
    for deg, c in coeffs.items():
        out[deg] = c
    return out


# ---------------------------------------------------------------------------
# partitions and labels


@lru_cache(maxsize=None)
def partitions(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def transpose(lam):
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0])) if lam else ()


def hook_dim(lam):
    """Number of standard tableaux of shape lam, by the hook length formula."""
    n = sum(lam)
    lt = transpose(lam)
    hooks = prod(
        lam[i] - j + lt[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])
    )
    return factorial(n) // hooks


def bipartition_dim(alpha, beta):
    n = sum(alpha) + sum(beta)
    return comb(n, sum(alpha)) * hook_dim(alpha) * hook_dim(beta)


def bipartitions(n):
    return [(a, b) for k in range(n + 1) for a in partitions(k) for b in partitions(n - k)]


def z_cycle(lam):
    """Centraliser order of a permutation of cycle type lam."""
    return prod(i ** lam.count(i) * factorial(lam.count(i)) for i in set(lam))


def z_signed(pos, neg):
    """Centraliser order in B_n of signed cycle type (pos, neg)."""
    return prod(
        (2 * i) ** lam.count(i) * factorial(lam.count(i))
        for lam in (pos, neg)
        for i in set(lam)
    )


def _horizontal_strips(lam, k, i=0):
    """Partitions nu inside lam with lam/nu a horizontal strip of k boxes."""
    if i == len(lam):
        if k == 0:
            yield ()
        return
    below = lam[i + 1] if i + 1 < len(lam) else 0
    for nu_i in range(lam[i], below - 1, -1):
        taken = lam[i] - nu_i
        if taken > k:
            break
        for rest in _horizontal_strips(lam, k - taken, i + 1):
            yield ((nu_i,) + rest) if nu_i else rest


@lru_cache(maxsize=None)
def kostka(lam, mu):
    """Semistandard tableaux of shape lam and content mu, counted by peeling
    off the boxes of the largest entry as a horizontal strip."""
    if not mu:
        return 1 if not lam else 0
    if sum(lam) != sum(mu):
        return 0
    return sum(kostka(nu, mu[:-1]) for nu in _horizontal_strips(lam, mu[-1]))


def parse_partition(text):
    require(
        re.fullmatch(r"\((0|\d+(,\d+)*)\)", text) is not None, f"bad partition label {text!r}"
    )
    parts = tuple(int(x) for x in text[1:-1].split(","))
    return () if parts == (0,) else parts


def parse_pair(text):
    """'(2,1)x(0)+' -> ((2, 1), (), '+')."""
    m = re.fullmatch(r"(\([^)]*\))x(\([^)]*\))([+-]?)", text)
    require(m is not None, f"bad bipartition label {text!r}")
    return parse_partition(m.group(1)), parse_partition(m.group(2)), m.group(3)


def parse_pair_name(text):
    """'(2, 1):triv' (an orbit partition and a local system) -> ((2, 1), 'triv')."""
    orbit, _, system = text.rpartition(":")
    try:
        lam = ast.literal_eval(orbit)
    except (ValueError, SyntaxError):
        raise CheckError(f"bad pair name {text!r}")
    require(isinstance(lam, tuple) and system, f"bad pair name {text!r}")
    return lam, system


# ---------------------------------------------------------------------------
# Weyl group facts from the classification


def group_order(family, rank):
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return 12


def degrees(family, rank):
    if family == "A":
        return list(range(2, rank + 2))
    if family in ("B", "C"):
        return list(range(2, 2 * rank + 1, 2))
    if family == "D":
        return list(range(2, 2 * rank - 1, 2)) + [rank]
    return [2, 6]


# det_V(1 + w) for G2, from the eigenvalues of rotations and reflections
_G2_DET_ONE_PLUS = {"e": 4, "w0": 0, "rot60": 3, "rot120": 1, "refl_long": 0, "refl_short": 0}


def det_one_plus(family, label):
    """det_V(1 + w) from a class label: a positive r-cycle has eigenvalues the
    r-th roots of unity, a negative one the roots of x^r = -1."""
    if family == "G2":
        require(label in _G2_DET_ONE_PLUS, f"unknown G2 class {label!r}")
        return _G2_DET_ONE_PLUS[label]
    pos, neg, _ = parse_pair(label)
    return prod(2 if c % 2 else 0 for c in pos) * prod(0 if c % 2 else 2 for c in neg)


def irrep_dim(family, label):
    if family == "A":
        return hook_dim(parse_partition(label))
    alpha, beta, tag = parse_pair(label)
    d = bipartition_dim(alpha, beta)
    return d // 2 if tag else d


def sgn_twist_key(family, label):
    """Label of chi (x) sgn, as a key comparable with irrep_key."""
    if family == "A":
        return transpose(parse_partition(label))
    alpha, beta, _ = parse_pair(label)
    if family in ("B", "C"):
        return (transpose(beta), transpose(alpha))
    return frozenset((transpose(alpha), transpose(beta)))


def irrep_key(family, label):
    if family == "A":
        return parse_partition(label)
    alpha, beta, _ = parse_pair(label)
    if family in ("B", "C"):
        return (alpha, beta)
    # type D: unordered pairs; the two halves of a split pair share a key
    return frozenset((alpha, beta))


def triv_label_key(family, rank):
    if family == "A":
        return (rank + 1,)
    if family in ("B", "C"):
        return ((rank,), ())
    return frozenset(((rank,), ()))


# ---------------------------------------------------------------------------
# qell-gram


def _json(outputs, job_id):
    return json.loads(outputs[job_id])


def check_fakedeg(family, rank, job_id):
    def check(outputs):
        rows = _json(outputs, job_id)
        require(len(rows) == len({r["irrep"] for r in rows}), "repeated irrep")
        n_refl = sum(d - 1 for d in degrees(family, rank))
        total = 0
        for row in rows:
            f = poly_from_json(row["fake_degree"])
            dim = irrep_dim(family, row["irrep"])
            # the coinvariant algebra affords the regular representation
            require(poly_at(f, 1) == dim, f"f_{row['irrep']}(1) != dim {dim}")
            require(min(f) >= 0, f"negative coefficient in f_{row['irrep']}")
            require(len(f) - 1 <= n_refl, f"f_{row['irrep']} has degree above N")
            total += dim * dim
        require(total == group_order(family, rank), "sum of dim^2 != |W|")

    return check


def check_qell_gram(family, rank, job_id, fakedeg_id):
    def check(outputs):
        payload = _json(outputs, job_id)
        require(payload["form"] == "qell", "wrong form")
        irreps = payload["irreps"]
        n = len(irreps)
        gram = [[poly_from_str(e) for e in row] for row in payload["gram"]]
        require(len(gram) == n and all(len(r) == n for r in gram), "gram is not square")
        top = max(len(e) for row in gram for e in row) - 1
        require(top <= rank, f"gram entry of degree {top} > rank {rank}")
        for i in range(n):
            for j in range(n):
                require(gram[i][j] == gram[j][i], f"gram not symmetric at {i},{j}")
                const = gram[i][j][0] if gram[i][j] else 0
                require(const == (1 if i == j else 0), f"G(0) != identity at {i},{j}")

        # [q^rank] G = (-1)^rank <chi_i (x) sgn, chi_j>, a signed permutation
        keys = [irrep_key(family, lab) for lab in irreps]
        sign = (-1) ** rank
        for i, lab in enumerate(irreps):
            row = [gram[i][j][rank] if len(gram[i][j]) > rank else 0 for j in range(n)]
            hits = [j for j, c in enumerate(row) if c]
            require(len(hits) == 1 and row[hits[0]] == sign, f"[q^rank] row {lab} is not a signed unit")
            require(keys[hits[0]] == sgn_twist_key(family, lab), f"[q^rank] maps {lab} to {irreps[hits[0]]}")
        require(
            len({j for i in range(n) for j in range(n) if len(gram[i][j]) > rank and gram[i][j][rank]}) == n,
            "[q^rank] is not a permutation",
        )

        # G(q) f(q) = p(q) e_triv with p = prod (1 - q^d)
        fake = {r["irrep"]: poly_from_json(r["fake_degree"]) for r in _json(outputs, fakedeg_id)}
        require(sorted(fake) == sorted(irreps), "fakedeg and gram list different irreps")
        width = max(len(f) for f in fake.values())
        G = np.zeros((n, n, rank + 1), dtype=np.int64)
        F = np.zeros((n, width), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                G[i, j, : len(gram[i][j])] = gram[i][j]
            F[i, : len(fake[irreps[i]])] = fake[irreps[i]]
        bound = int(np.abs(G).max()) * int(np.abs(F).max()) * n * (rank + 1)
        require(bound < 2**62, "int64 bound exceeded")
        GF = np.zeros((n, width + rank), dtype=np.int64)
        for a in range(rank + 1):
            GF[:, a : a + width] += G[:, :, a] @ F
        p = [1]
        for d in degrees(family, rank):
            p = poly_mul(p, [1] + [0] * (d - 1) + [-1])
        triv = keys.index(triv_label_key(family, rank))
        for i in range(n):
            want = p if i == triv else []
            require(trim(GF[i].tolist()) == want, f"(G f)_{irreps[i]} != {'p' if i == triv else 0}")

    return check


# ---------------------------------------------------------------------------
# green-solve


def check_green(ambient, n, job_id):
    """`green` for GL(n) (ambient A) or Sp(2n) (ambient C)."""

    def check(outputs):
        payload = _json(outputs, job_id)
        irreps = payload["irreps"]
        family = "A" if ambient == "A" else "C"
        rank = n - 1 if ambient == "A" else n
        dims = {lab: irrep_dim(family, lab) for lab in irreps}
        require(sum(d * d for d in dims.values()) == group_order(family, rank), "sum of dim^2 != |W|")
        require(len(payload["pairs"]) == len(irreps), "pairs and irreducibles differ in number")
        columns = {}
        for col in payload["K_columns"]:
            coords = {lab: poly_from_json(c) for lab, c in col["coords"].items()}
            require(set(coords) <= set(irreps), f"unknown irreducible in {col['pair']}")
            columns[parse_pair_name(col["pair"])] = coords
        require(len(columns) == len(irreps), "repeated pair")

        if ambient == "A":
            # at q = 1 the column of orbit mu is the permutation module on
            # mu-tabloids twisted by sgn: coordinate K_{lam^t, mu} on lam
            require({lam for lam, _ in columns} == set(partitions(n)), "orbits are not the partitions of n")
            for (mu, _), coords in columns.items():
                for lab in irreps:
                    lam = parse_partition(lab)
                    got = poly_at(coords.get(lab, []), 1)
                    want = kostka(transpose(lam), mu)
                    require(got == want, f"column {mu} at {lab}: {got} != K = {want}")

        # the zero orbit carries the coinvariant algebra: sum dim * f = prod [d]_q
        zero = (1,) * (n if ambient == "A" else 2 * n)
        require((zero, "triv") in columns, "no zero-orbit column")
        total = []
        for lab, f in columns[(zero, "triv")].items():
            total = poly_add(total, [dims[lab] * c for c in f])
        want = [1]
        for d in degrees(family, rank):
            want = poly_mul(want, q_integer(d))
        require(total == want, "zero-orbit column: sum dim * f != prod [d_i]_q")

    return check


def check_verify(job_id):
    def check(outputs):
        payload = _json(outputs, job_id)
        require(payload["checks"], "no identities reported")
        bad = [c["identity"] for c in payload["checks"] if c["ok"] is not True]
        require(not bad, f"identities failed: {bad}")
        require(payload["ok"] is True, "verify reports not ok")

    return check


def check_springer_load(n, job_id):
    """Sp(2n): orbits are partitions of 2n with even multiplicity of each odd
    part; the Springer correspondence pairs are the irreducibles of B_n."""

    def check(outputs):
        m = re.fullmatch(
            rf"loaded type C rank {n}: (\d+) orbits, (\d+) pairs, valid\n", outputs[job_id]
        )
        require(m is not None, f"unexpected output {outputs[job_id]!r}")
        orbits = sum(
            1
            for lam in partitions(2 * n)
            if all(lam.count(p) % 2 == 0 for p in set(lam) if p % 2)
        )
        require(int(m.group(1)) == orbits, f"{m.group(1)} orbits, expected {orbits}")
        require(int(m.group(2)) == len(bipartitions(n)), f"{m.group(2)} pairs, expected {len(bipartitions(n))}")

    return check


def check_spin_classify(n, job_id):
    line = re.compile(r"\[([\d, ]+)\]: (single|dual pair), a=(\d+), dim (\d+), norm (\d+)")

    def check(outputs):
        seen = []
        total = 0
        for text in outputs[job_id].splitlines():
            m = line.fullmatch(text)
            require(m is not None, f"unexpected line {text!r}")
            lam = tuple(int(x) for x in m.group(1).split(","))
            count = 1 if m.group(2) == "single" else 2
            total += count * int(m.group(4)) ** 2
            seen.append(lam)
        strict = [lam for lam in partitions(n) if len(set(lam)) == len(lam)]
        require(sorted(seen) == sorted(strict), "orbits are not the strict partitions of n")
        # the spin representations of the double cover exhaust its genuine part
        require(total == factorial(n), f"sum constituents * dim^2 = {total} != {n}!")

    return check


def _complex(text):
    m = re.fullmatch(r"(-?[\d.e+-]+?)(?:([+-][\d.e+-]+)i)?", text)
    require(m is not None, f"bad value {text!r}")
    return complex(float(m.group(1)), float(m.group(2) or 0))


def check_spin_sigma(n, job_id):
    """`spin sigma` for GL(n): the stated exact norm must equal the class-size
    weighted norm of the printed values."""

    def check(outputs):
        lines = outputs[job_id].splitlines()
        m = re.fullmatch(r"exact norm: (\d+)", lines[0])
        require(m is not None, f"unexpected line {lines[0]!r}")
        values = {}
        for text in lines[1:]:
            lab, _, val = text.partition(": ")
            values[parse_partition(lab)] = _complex(val)
        require(sorted(values) == sorted(partitions(n)), "classes are not the partitions of n")
        norm = sum(abs(v) ** 2 / z_cycle(lam) for lam, v in values.items())
        require(abs(norm - int(m.group(1))) < 1e-6 * max(1, norm), f"norm {norm} != {m.group(1)}")

    return check


def check_spin_index(job_id):
    def check(outputs):
        lines = outputs[job_id].splitlines()
        require(len(lines) == 3, f"expected 3 lines, got {len(lines)}")
        for text, head in zip(lines, ("even part nonzero: ", "coset part nonzero: ")):
            require(text in (head + "True", head + "False"), f"unexpected line {text!r}")

    return check


# ---------------------------------------------------------------------------
# group-tables


def _check_classes(family, rank, labels, sizes):
    order = group_order(family, rank)
    require(sum(sizes) == order, f"class sizes sum to {sum(sizes)}, not |W| = {order}")
    require(len(set(labels)) == len(labels), "repeated class label")
    if family in ("B", "C"):
        require(len(labels) == len(bipartitions(rank)), "class count != number of bipartitions")
    if family in ("B", "C", "D"):
        for lab, size in zip(labels, sizes):
            pos, neg, tag = parse_pair(lab)
            want = 2**rank * factorial(rank) // z_signed(pos, neg)
            if tag:  # a D_n class that splits has half the B_n class
                want //= 2
            require(size == want, f"class {lab}: size {size} != {want}")


def check_wg_classes(family, rank, job_id):
    def check(outputs):
        rows = _json(outputs, job_id)
        _check_classes(family, rank, [r["label"] for r in rows], [r["size"] for r in rows])

    return check


def check_chartable(family, rank, job_id):
    def check(outputs):
        t = _json(outputs, job_id)
        _check_classes(family, rank, t["classes"], t["sizes"])
        order = group_order(family, rank)
        X = np.array(t["table"], dtype=object)
        sizes = np.array(t["sizes"], dtype=object)
        k = len(t["classes"])
        require(X.shape == (k, k) and len(t["irreps"]) == k, "table is not square")
        rows = (X * sizes) @ X.T
        require((rows == np.diag([order] * k)).all(), "row orthogonality fails")
        cols = X.T @ X
        require((cols == np.diag([order // s for s in t["sizes"]])).all(), "column orthogonality fails")

    return check


def check_int_gram(family, rank, form, job_id, chartable_id):
    """G = X diag(size * det(1 + w)) X^T / |W| from the emitted table."""

    def check(outputs):
        payload = _json(outputs, job_id)
        t = _json(outputs, chartable_id)
        require(payload["form"] == form, "wrong form")
        require(payload["irreps"] == t["irreps"], "gram and table list different irreps")
        X = np.array(t["table"], dtype=object)
        weights = np.array(
            [s * det_one_plus(family, lab) for s, lab in zip(t["sizes"], t["classes"])],
            dtype=object,
        )
        num = (X * weights) @ X.T
        order = group_order(family, rank)
        require(all(x % order == 0 for x in num.flat), "X diag X^T not divisible by |W|")
        require((num // order).tolist() == payload["gram"], f"{form} gram differs from the recomputed one")

    return check
