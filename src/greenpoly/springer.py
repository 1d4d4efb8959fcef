"""Nilpotent-orbit combinatorics and Springer correspondence tables.

Built-in tables: GL(n) for 2 <= n <= 12 (all component groups trivial) and
Sp(2n) for n in {1,2,3}.  The GL(n) systems are computed from the
partitions; the Sp(2n) systems are written out in `_SP_TABLES` (Carter,
Finite Groups of Lie Type, 13.3).  Both are assembled and validated by the
same code, as is a table loaded from a JSON file.  A table is its orbits,
largest first, each an `OrbitRecord` of a label and its local systems, one
of them the plain system `triv`.  The pairs (e, phi) are numbered once, on
the table (`SpringerTable.pairs`, `pair_irreps`, `blocks`), and every
consumer reads that numbering.  d_e, A(e) and the closure order, which is
dominance (Hesselink 1976; Collingwood-McGovern, Thm. 6.2.5), are computed
from the partitions.  The graded space M is built from the reductive part of
the centralizer as a set of lines, each in a degree d and each acted on by
A(e) through a +-1 character: Sp blocks and odd orthogonal blocks contribute
trivial lines, an O_2 block a sign line to V_Z (degree 1), and an even
orthogonal block O_{2m} (m >= 2) its invariant degrees with a sign character
in degree m.  So tr_M(x) = prod (1 - q^d chi(x)) over the lines, and the
(q,M)-pairing of two characters of A(e) is one coefficient of that product
in Z[q][characters of A(e)], taken once per orbit label.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .charring import fake_degree, twists
from .partitions import is_distinct, multiplicities, partitions, transpose
from .polyq import IntPoly, ONE, ZERO
from .weyl import WeylGroupData, WeylType, build


class OrbitLabel:
    """A nilpotent orbit of GL_n ("A") or Sp_2n ("C") by its Jordan type;
    immutable and hashable."""

    __slots__ = ("partition", "ambient")

    def __init__(self, partition: tuple, ambient: str):
        parts = partition
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition must be weakly decreasing")
        if ambient == "C":
            if sum(parts) % 2:
                raise ValueError("Sp orbit partitions have even size")
            for p, m in multiplicities(parts).items():
                if p % 2 and m % 2:
                    raise ValueError(f"odd part {p} has odd multiplicity")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "ambient", ambient)

    def __setattr__(self, *a):
        raise AttributeError("OrbitLabel is immutable")

    def __eq__(self, other):
        if type(other) is not OrbitLabel:
            return NotImplemented
        return self.partition == other.partition and self.ambient == other.ambient

    def __hash__(self):
        return hash((self.partition, self.ambient))

    def __repr__(self):
        return f"OrbitLabel({self.partition!r}, {self.ambient!r})"


class ComponentGroup:
    """A(e) = (Z/2)^k, generated by the named (even) parts; k = 0 is trivial.
    A character of A(e) is the bitmask of the generators it sends to -1."""

    def __init__(self, generator_names: tuple = ()):
        self.generator_names = generator_names
        self.k = len(generator_names)
        self.kind = "elementary_abelian" if self.k else "trivial"


class LocalSystem:
    def __init__(self, label: str, char_mask: int, irrep: int):
        self.label = label
        self.char_mask = char_mask
        self.irrep = irrep  # index into the ambient group's irrep list


class OrbitRecord:
    """An orbit and its local systems; d_e and A(e) follow from the partition."""

    def __init__(self, label: OrbitLabel, systems: list):
        self.label = label
        self.systems = systems
        self.d_e = d_e(label)
        self.comp = component_group(label)


class SpringerTable:
    """A Springer table: its orbits, largest first, and the pairs (e, phi).

    The pairs are numbered here, once: orbit by orbit in table order, and
    within an orbit in the order of its systems.  `pairs[j]` is pair j's
    (orbit index, system index), `pair_irreps[j]` its irreducible, and
    `blocks[i]` the range of orbit i's pair positions, the orbit blocks of
    K(q) and Lambda(q).
    """

    def __init__(self, group_type: WeylType, ambient: str, n: int, orbits: list):
        self.group_type = group_type
        self.ambient = ambient
        self.n = n  # GL(n) or Sp(2n)
        self.orbits = orbits
        self.pairs, self.pair_irreps, self.blocks = [], [], []
        for i, rec in enumerate(orbits):
            self.blocks.append(range(len(self.pairs), len(self.pairs) + len(rec.systems)))
            for s, sys in enumerate(rec.systems):
                self.pairs.append((i, s))
                self.pair_irreps.append(sys.irrep)
        # (i, j): orbit i > orbit j in the closure order, which for GL(n) and
        # Sp(2n) is dominance of the partitions: every partial sum of i's
        # parts, padded with zeros to one length, is at least j's.  The sums
        # s_k of a partition lie in [0, 2^(w-1)), so they pack as
        # P = sum_k s_k 2^(w k) with a guard bit 2^(w-1) free in each slot,
        # H the sum of the guard bits.  (P_i + H) - P_j is then
        # sum_k (s_ik - s_jk + 2^(w-1)) 2^(w k), every term in (0, 2^w), so no
        # slot borrows from the next, and the guard bit of slot k stays set
        # exactly when s_ik >= s_jk: i dominates j iff all of H stays set.
        parts = [rec.label.partition for rec in orbits]
        width = max(map(len, parts), default=0)
        w = max(map(sum, parts), default=0).bit_length() + 1
        guard = sum(1 << (w * k + w - 1) for k in range(width))
        packed = [sum(x << (w * k) for k, x in enumerate(accumulate(a + (0,) * (width - len(a)))))
                  for a in parts]
        self.greater = {
            (i, j)
            for i, a in enumerate(packed)
            for j, b in enumerate(packed)
            if a != b and (a + guard - b) & guard == guard
        }

    @property
    def group(self) -> WeylGroupData:
        return build(self.group_type)

    def find_orbit(self, partition) -> int:
        partition = tuple(partition)
        for i, rec in enumerate(self.orbits):
            if rec.label.partition == partition:
                return i
        raise KeyError(f"no orbit {partition}")

    def pair_of(self, partition, system: str = "triv") -> int:
        """Position of the pair (orbit, local system) in `pairs`."""
        orbit = self.find_orbit(partition)
        rec = self.orbits[orbit]
        for s, sys in enumerate(rec.systems):
            if sys.label == system:
                return self.blocks[orbit][s]
        raise KeyError(f"orbit {rec.label.partition} has no system {system!r}")


# ---------------------------------------------------------------------------
# centralizer dimensions and M-representations


def d_e(label: OrbitLabel) -> int:
    lam = label.partition
    lamt = transpose(lam)
    if label.ambient == "A":
        return sum(c * (c - 1) // 2 for c in lamt)
    # dim Z_{sp}(e) = (sum of squared column lengths + #odd parts) / 2
    dim_z = (sum(c * c for c in lamt) + sum(1 for p in lam if p % 2)) // 2
    rank = sum(lam) // 2
    return (dim_z - rank) // 2


def component_group(label: OrbitLabel) -> ComponentGroup:
    if label.ambient == "A":
        return ComponentGroup()
    return ComponentGroup(tuple(sorted({p for p in label.partition if p % 2 == 0})))


def m_representation(label: OrbitLabel) -> tuple:
    """The lines of M, sorted, as (degree, character) pairs: the lines of
    V_Z in degree 1 and the invariant lines in their degrees, each with the
    character of A(e) by which it is acted on."""
    mults = multiplicities(label.partition)
    if label.ambient == "A":
        # V_Z has one line fewer than the distinct parts, and a part of
        # multiplicity r adds the invariant degrees 2, ..., r of GL_r
        lines = [(1, 0)] * (len(mults) - 1)
        lines += [(d, 0) for r in mults.values() for d in range(2, r + 1)]
        return tuple(sorted(lines))
    gen_bit = {p: 1 << i for i, p in enumerate(component_group(label).generator_names)}
    lines = []
    for p, r in sorted(mults.items()):
        if p % 2 == 1:
            # Sp_r block, r even; invariant degrees 2, 4, ..., r
            lines += [(d, 0) for d in range(2, r + 1, 2)]
        elif r == 2:
            lines.append((1, gen_bit[p]))  # O_2: sign line in V_Z
        else:
            # O_r: trivial degrees 2, 4, ... below r (none for O_1), and for
            # even r >= 4 a sign character in degree r/2
            lines += [(d, 0) for d in range(2, r, 2)]
            if r % 2 == 0:
                lines.append((r // 2, gen_bit[p]))
    return tuple(sorted(lines))


@lru_cache(maxsize=None)
def _q_M_table(label: OrbitLabel) -> tuple:
    """Entry c is <phi_a, phi_b>^{q,M} for every a ^ b = c.

    The characters of (Z/2)^k multiply as chi_a chi_b = chi_{a ^ b}, so
    (1/|A|) sum_x chi_a(x) chi_b(x) tr_M(x) is the coefficient of chi_{a ^ b}
    in tr_M = prod (1 - q^d chi_m) over the lines (d, m) of M.  The product
    is taken in Z[q][characters]: the trivial lines once, as a polynomial,
    and then each sign line (d, m) sends entry c to out[c] - q^d out[c ^ m].
    """
    lines = m_representation(label)
    trivial = ONE
    for d, m in lines:
        if not m:
            trivial = trivial * IntPoly((1,) + (0,) * (d - 1) + (-1,))
    out = [trivial] + [ZERO] * ((1 << component_group(label).k) - 1)
    for d, m in lines:
        if m:
            shift = IntPoly((0,) * d + (1,))
            out = [e - shift * out[c ^ m] for c, e in enumerate(out)]
    return tuple(out)


def q_M_pairing(label: OrbitLabel, mask1: int, mask2: int) -> IntPoly:
    """<phi, phi'>^{q,M} = (1/|A|) sum_x phi(x) phi'(x) tr_M(x)."""
    return _q_M_table(label)[mask1 ^ mask2]


def q_M_gram(table: SpringerTable, orbit: int):
    """Gram of the (q,M)-pairing over the orbit's Springer-type systems."""
    rec = table.orbits[orbit]
    pairing = _q_M_table(rec.label)
    masks = [sys.char_mask for sys in rec.systems]
    return [[pairing[a ^ b] for b in masks] for a in masks]


# ---------------------------------------------------------------------------
# predicates


def nsol_predicate(label: OrbitLabel) -> bool:
    """Solvable connected centralizer: distinct parts (GL), or all parts even
    with multiplicity at most 2 (Sp)."""
    lam = label.partition
    if label.ambient == "A":
        return is_distinct(lam)
    return all(p % 2 == 0 for p in lam) and all(
        m <= 2 for m in multiplicities(lam).values()
    )


def quasidistinguished_reference(label: OrbitLabel) -> bool:
    """Classification form: GL only the regular orbit; Sp exactly N^sol."""
    if label.ambient == "A":
        return len(label.partition) == 1
    return nsol_predicate(label)


def _pairing_survives_at(label: OrbitLabel, q0: int) -> bool:
    """True iff some entry of the M-pairing block is nonzero at q = q0."""
    return any(e.eval(q0) for e in _q_M_table(label))


def quasidistinguished_by_pairing(label: OrbitLabel) -> bool:
    """True iff the M-pairing block survives at q = 1."""
    return _pairing_survives_at(label, 1)


def nsol_by_pairing(label: OrbitLabel) -> bool:
    """True iff the M-pairing block survives at q = -1."""
    return _pairing_survives_at(label, -1)


# ---------------------------------------------------------------------------
# built-in tables


def _assemble(group_type, ambient, n, orbit_parts, systems_for):
    g = build(group_type)
    orbits = [
        OrbitRecord(OrbitLabel(lam, ambient), systems_for(lam, g)) for lam in orbit_parts
    ]
    table = SpringerTable(group_type, ambient, n, orbits)
    validate_table(table)
    return table


def table_typeA(n: int) -> SpringerTable:
    """GL(n) Springer table: orbits are partitions of n, trivial local
    systems, and the orbit lam carries the irrep lam^t (regular -> sgn)."""
    if not 2 <= n <= 12:
        raise ValueError("type A tables cover GL(n) for 2 <= n <= 12")
    group_type = WeylType("A", n - 1)

    def systems_for(lam, g):
        irrep = g.irrep_labels.index(transpose(lam))
        return [LocalSystem("triv", 0, irrep)]

    return _assemble(group_type, "A", n, partitions(n), systems_for)


# rank n -> {partition: [(local system, the even parts whose generators it
# sends to -1, the bipartition (alpha, beta) it corresponds to)]}, orbits
# largest first
_SP_TABLES = {
    1: {
        (2,): [("triv", (), ((), (1,)))],
        (1, 1): [("triv", (), ((1,), ()))],
    },
    2: {
        (4,): [("triv", (), ((), (1, 1)))],
        (2, 2): [("triv", (), ((1,), (1,))), ("sgn", (2,), ((1, 1), ()))],
        (2, 1, 1): [("triv", (), ((), (2,)))],
        (1, 1, 1, 1): [("triv", (), ((2,), ()))],
    },
    3: {
        (6,): [("triv", (), ((), (1, 1, 1)))],
        (4, 2): [("triv", (), ((1,), (1, 1))), ("sgn", (4, 2), ((1, 1, 1), ()))],
        (4, 1, 1): [("triv", (), ((), (2, 1)))],
        (3, 3): [("triv", (), ((1, 1), (1,)))],
        (2, 2, 2): [("triv", (), ((1,), (2,)))],
        (2, 2, 1, 1): [("triv", (), ((2,), (1,))), ("sgn", (2,), ((2, 1), ()))],
        (2, 1, 1, 1, 1): [("triv", (), ((), (3,)))],
        (1, 1, 1, 1, 1, 1): [("triv", (), ((3,), ()))],
    },
}


def table_typeC(n: int) -> SpringerTable:
    """Sp(2n) Springer table for n in {1,2,3}, built from `_SP_TABLES`."""
    if n not in _SP_TABLES:
        raise ValueError(
            f"no built-in table for Sp({2 * n}): type C tables cover Sp(2n) for "
            "1 <= n <= 3; load a table file for more"
        )
    systems = _SP_TABLES[n]

    def systems_for(lam, g):
        gens = component_group(OrbitLabel(lam, "C")).generator_names
        return [
            LocalSystem(label, sum(1 << gens.index(p) for p in minus), g.irrep_labels.index(bip))
            for label, minus, bip in systems[lam]
        ]

    return _assemble(WeylType("C", n), "C", n, tuple(systems), systems_for)


# ---------------------------------------------------------------------------
# serialization and validation


def save_table(table: SpringerTable) -> dict:
    g = table.group
    orbits = []
    for rec in table.orbits:
        pairs = []
        for sys in rec.systems:
            entry = {
                "local_system": sys.label,
                "irrep": _irrep_label_json(g, sys.irrep),
            }
            if rec.comp.kind != "trivial":
                entry["char_on_generators"] = [
                    -1 if sys.char_mask >> i & 1 else 1 for i in range(rec.comp.k)
                ]
            pairs.append(entry)
        orbits.append(
            {
                "partition": list(rec.label.partition),
                "d_e": rec.d_e,
                "comp_group": {"kind": rec.comp.kind, "k": rec.comp.k},
                "pairs": pairs,
            }
        )
    return {
        "type": table.ambient,
        "rank": table.n,
        "orbits": orbits,
        "closure": sorted([i, j] for (i, j) in table.greater),
    }


def _irrep_label_json(g, idx):
    lab = g.irrep_labels[idx]
    if g.type.family == "A":
        return list(lab)
    return [list(lab[0]), list(lab[1])]


def _irrep_label_from_json(g, obj, where):
    try:
        key = tuple(obj) if g.type.family == "A" else (tuple(obj[0]), tuple(obj[1]))
    except (TypeError, IndexError, KeyError):
        raise TableFormatError(f"{where}: malformed irreducible label {obj!r}")
    try:
        return g.irrep_labels.index(key)
    except ValueError:
        raise TableFormatError(f"{where}: unknown irreducible label {obj!r}")


class TableFormatError(ValueError):
    pass


def _require_keys(obj, keys, where):
    if not isinstance(obj, dict):
        raise TableFormatError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in obj:
            raise TableFormatError(f"{where}: missing key {key!r}")


def load_table(source) -> SpringerTable:
    """Build a SpringerTable from a JSON dict or a path to one."""
    if isinstance(source, (str, bytes)):
        import json

        with open(source, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            # not UTF-8, not JSON, an over-long integer, or nested too deep
            except (ValueError, RecursionError) as exc:
                raise TableFormatError(f"not a JSON table: {exc}")
    else:
        obj = source
    _require_keys(obj, ("type", "rank", "orbits"), "table")
    ambient = obj["type"]
    if ambient not in ("A", "C"):
        raise TableFormatError(f"unsupported ambient type {ambient!r}")
    n = obj["rank"]
    if type(n) is not int:
        raise TableFormatError(f"rank {n!r} is not an integer")
    try:
        group_type = WeylType(ambient, n - 1 if ambient == "A" else n)
    except ValueError:
        raise TableFormatError(f"no built-in Weyl group for type {ambient} rank {n}")
    g = build(group_type)
    if not isinstance(obj["orbits"], (list, tuple)):
        raise TableFormatError("'orbits' is not a list")

    size = n if ambient == "A" else 2 * n  # partitions of n for GL(n), of 2n for Sp(2n)
    orbits = []
    for oi, orec in enumerate(obj["orbits"]):
        where = f"orbit #{oi}"
        _require_keys(orec, ("partition", "pairs"), where)
        parts = orec["partition"]
        if not isinstance(parts, (list, tuple)) or not all(
            type(p) is int and p > 0 for p in parts
        ):
            raise TableFormatError(
                f"{where}: partition {parts!r} is not a list of positive integers"
            )
        if sum(parts) != size:
            raise TableFormatError(f"{where}: partition {parts} is not a partition of {size}")
        try:
            label = OrbitLabel(tuple(parts), ambient)
        except ValueError as exc:
            raise TableFormatError(f"{where}: {exc}")
        rec = OrbitRecord(label, [])
        comp = rec.comp
        declared = orec.get("comp_group")
        if declared is not None:
            _require_keys(declared, (), f"{where} comp_group")
            if "k" in declared and type(declared["k"]) is not int:
                raise TableFormatError(
                    f"{where}: comp_group k {declared['k']!r} is not an integer"
                )
        if declared is not None and (
            declared.get("kind") != comp.kind or declared.get("k", 0) != comp.k
        ):
            raise TableFormatError(
                f"{where}: declared component group {declared} does not match "
                f"the partition ({comp.kind}, k={comp.k})"
            )
        if "d_e" in orec and type(orec["d_e"]) is not int:
            raise TableFormatError(f"{where}: d_e {orec['d_e']!r} is not an integer")
        if orec.get("d_e", rec.d_e) != rec.d_e:
            raise TableFormatError(
                f"{where}: d_e {orec['d_e']} contradicts the partition "
                f"(expected {rec.d_e})"
            )
        if not isinstance(orec["pairs"], (list, tuple)):
            raise TableFormatError(f"{where}: 'pairs' is not a list")
        for sys in orec["pairs"]:
            _require_keys(sys, ("local_system", "irrep"), f"{where} pair")
            name = sys["local_system"]
            if not isinstance(name, str):
                raise TableFormatError(f"{where}: local_system {name!r} is not a string")
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:  # no output can print it
                raise TableFormatError(f"{where}: local_system {name!r} holds a lone surrogate")
            if not name or "," in name or not name.isprintable():  # one CSV cell, one line
                raise TableFormatError(
                    f"{where}: local_system {name!r} is empty or holds a comma "
                    "or an unprintable character"
                )
            mask = 0
            if "char_on_generators" in sys:
                vals = sys["char_on_generators"]
                if not isinstance(vals, (list, tuple)) or len(vals) != comp.k or any(
                    type(v) is not int or v not in (1, -1) for v in vals
                ):
                    raise TableFormatError(f"{where}: bad char_on_generators {vals!r}")
                mask = sum(1 << i for i, v in enumerate(vals) if v == -1)
            elif name != "triv" and comp.kind != "trivial":
                raise TableFormatError(
                    f"{where}: nontrivial system {name!r} needs char_on_generators"
                )
            irrep = _irrep_label_from_json(g, sys["irrep"], where)
            rec.systems.append(LocalSystem(name, mask, irrep))
        orbits.append(rec)

    closure = obj.get("closure", [])
    if not isinstance(closure, (list, tuple)) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(type(i) is int for i in p)
        for p in closure
    ):
        raise TableFormatError("'closure' is not a list of orbit index pairs")
    table = SpringerTable(group_type, ambient, n, orbits)
    validate_table(table)
    # for the classical families the closure order is dominance; a file that
    # declares anything else is inconsistent
    declared = {(i, j) for i, j in closure}
    if declared != table.greater:
        raise TableFormatError(
            "declared closure differs from the dominance order; offending "
            f"pairs: {sorted(declared ^ table.greater)[:4]}"
        )
    return table


def validate_table(table: SpringerTable):
    g = table.group
    tensor_sgn = next(p for p in twists(table.group_type) if p[g.triv_index] == g.sgn_index)
    # bijectivity of the assignment onto all irreducibles
    used = {}
    for i, rec in enumerate(table.orbits):
        for sys in rec.systems:
            if sys.irrep in used:
                raise TableFormatError(
                    f"irreducible {g.irrep_labels[sys.irrep]} assigned to both "
                    f"{used[sys.irrep]} and {rec.label.partition}"
                )
            used[sys.irrep] = rec.label.partition
    missing = [g.irrep_labels[i] for i in range(len(g.irrep_labels)) if i not in used]
    if missing:
        raise TableFormatError(f"assignment misses irreducibles: {missing}")
    # the orbits are listed largest-first in the closure order
    if any(i > j for i, j in table.greater):
        raise TableFormatError(
            "orbit list is not a linear extension (larger orbits first)"
        )
    # duplicate orbits
    seen = set()
    for rec in table.orbits:
        if rec.label.partition in seen:
            raise TableFormatError(f"duplicate orbit {rec.label.partition}")
        seen.add(rec.label.partition)
    # each orbit has one plain system, `triv`, on the trivial character, no
    # two of its systems share a label or a character, and the lowest
    # fake-degree term of the plain system's image is q^{d_e}
    for rec in table.orbits:
        labels = [sys.label for sys in rec.systems]
        masks = [sys.char_mask for sys in rec.systems]
        if labels.count("triv") != 1 or masks[labels.index("triv")]:
            raise TableFormatError(
                f"orbit {rec.label.partition}: needs exactly one system 'triv', "
                "on the trivial character"
            )
        if len(set(labels)) < len(labels) or len(set(masks)) < len(masks):
            raise TableFormatError(
                f"orbit {rec.label.partition}: two local systems share a label "
                "or a character"
            )
        plain = rec.systems[labels.index("triv")].irrep
        fd = fake_degree(g, tensor_sgn[plain])
        val = next(k for k, c in enumerate(fd.coeffs) if c)
        if val != rec.d_e:
            raise TableFormatError(
                f"orbit {rec.label.partition}: plain local system maps to "
                f"{g.irrep_labels[plain]} whose twisted fake degree "
                f"starts at q^{val}, expected q^{rec.d_e}"
            )
