"""Nilpotent-orbit combinatorics and Springer correspondence tables.

Built-in tables: GL(n) for 2 <= n <= 8 (all component groups trivial) and
Sp(2n) for n in {1,2,3}.  The Sp(4) table is hard-coded from the worked
rank-2 example; ranks 1 and 3 ship as JSON reference data and go through the
same validation as user-ingested files.  The component-group action on the
graded space M is built from the reductive part of the centralizer:
Sp blocks and odd orthogonal blocks contribute trivially, an O_2 block
contributes a sign line to V_Z, and an even orthogonal block O_{2m} (m >= 2)
contributes its invariant degrees with a sign character in degree m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .charring import fake_degree
from .partitions import dominates, is_distinct, multiplicities, transpose
from .polyq import IntPoly, ONE
from .weyl import WeylGroupData, WeylType, build


@dataclass(frozen=True)
class OrbitLabel:
    partition: tuple
    ambient: str  # "A" (GL_n) or "C" (Sp_2n)

    def __post_init__(self):
        parts = self.partition
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition must be weakly decreasing")
        if self.ambient == "C":
            if sum(parts) % 2:
                raise ValueError("Sp orbit partitions have even size")
            for p, m in multiplicities(parts).items():
                if p % 2 and m % 2:
                    raise ValueError(f"odd part {p} has odd multiplicity")


@dataclass
class ComponentGroup:
    kind: str  # "trivial" | "elementary_abelian" | "s3"
    k: int = 0
    generator_names: tuple = ()

    @property
    def size(self) -> int:
        if self.kind == "trivial":
            return 1
        if self.kind == "elementary_abelian":
            return 2**self.k
        return 6

    def elements(self):
        return range(self.size)

    def char_value(self, char_mask: int, x: int) -> int:
        """Value of the character indexed by a bitmask at element x."""
        if self.kind == "s3":
            raise NotImplementedError("S3 component groups are reference data only")
        return -1 if bin(char_mask & x).count("1") % 2 else 1

    def char_table(self):
        n = self.size
        return [[self.char_value(m, x) for x in range(n)] for m in range(n)]


@dataclass
class MRep:
    """Graded component-group representation attached to an orbit.

    vz_chars: one character bitmask per line of V_Z (all lines act by +-1);
    md_chars: list of (degree, character bitmask) for the invariant lines.
    """

    vz_chars: tuple
    md_chars: tuple

    @property
    def vz_dim(self) -> int:
        return len(self.vz_chars)

    def trace(self, comp: ComponentGroup, x: int) -> IntPoly:
        """tr_M(x) = det_{V_Z}(1 - q x) * prod_d det_{M(d)}(1 - q^d x)."""
        out = ONE
        for mask in self.vz_chars:
            out = out * IntPoly((1, -comp.char_value(mask, x)))
        for d, mask in self.md_chars:
            out = out * IntPoly((1,) + (0,) * (d - 1) + (-comp.char_value(mask, x),))
        return out


@dataclass
class LocalSystem:
    label: str
    char_mask: int
    irrep: int  # index into the ambient group's irrep list


@dataclass
class OrbitRecord:
    label: OrbitLabel
    d_e: int
    comp: ComponentGroup
    mrep: MRep
    systems: list


@dataclass
class SpringerTable:
    group_type: WeylType
    ambient: str
    n: int  # GL(n) or Sp(2n)
    orbits: list
    greater: set = field(default_factory=set)  # (i, j): orbit i > orbit j

    @property
    def group(self) -> WeylGroupData:
        return build(self.group_type)

    def pairs(self):
        """Flattened (orbit index, system index) list in table order."""
        return [
            (i, s) for i, rec in enumerate(self.orbits) for s in range(len(rec.systems))
        ]

    def pair_irreps(self):
        return [
            rec.systems[s].irrep for rec in self.orbits for s in range(len(rec.systems))
        ]

    def find_orbit(self, partition) -> int:
        partition = tuple(partition)
        for i, rec in enumerate(self.orbits):
            if rec.label.partition == partition:
                return i
        raise KeyError(f"no orbit {partition}")

    def find_system(self, orbit: int, label: str) -> int:
        for s, sys in enumerate(self.orbits[orbit].systems):
            if sys.label == label:
                return s
        raise KeyError(f"orbit {self.orbits[orbit].label.partition} has no system {label!r}")

    def comparable(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.greater or (j, i) in self.greater


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
        return ComponentGroup("trivial")
    evens = sorted({p for p in label.partition if p % 2 == 0})
    if not evens:
        return ComponentGroup("trivial")
    return ComponentGroup("elementary_abelian", len(evens), tuple(evens))


def m_representation(label: OrbitLabel) -> MRep:
    mults = multiplicities(label.partition)
    if label.ambient == "A":
        distinct = len(mults)
        vz = (0,) * max(0, distinct - 1)
        md = []
        for r in mults.values():
            for d in range(2, r + 1):
                md.append((d, 0))
        return MRep(vz, tuple(sorted(md)))
    comp = component_group(label)
    gen_bit = {p: 1 << i for i, p in enumerate(comp.generator_names)}
    vz = []
    md = []
    for p in sorted(mults):
        r = mults[p]
        if p % 2 == 1:
            # Sp_r block, r even; invariant degrees 2, 4, ..., r
            for d in range(2, r + 1, 2):
                md.append((d, 0))
        elif r == 1:
            continue  # O_1: nothing
        elif r == 2:
            vz.append(gen_bit[p])  # O_2: sign line in V_Z
        elif r % 2 == 1:
            # odd orthogonal O_r: degrees 2, 4, ..., r-1, all trivial
            for d in range(2, r, 2):
                md.append((d, 0))
        else:
            # even orthogonal O_r, r >= 4: trivial degrees 2..r-2 and a sign
            # character in degree r/2
            for d in range(2, r - 1, 2):
                md.append((d, 0))
            md.append((r // 2, gen_bit[p]))
    return MRep(tuple(vz), tuple(sorted(md)))


def tr_M(label: OrbitLabel, x: int) -> IntPoly:
    return m_representation(label).trace(component_group(label), x)


def q_M_pairing(label: OrbitLabel, mask1: int, mask2: int) -> IntPoly:
    """<phi, phi'>^{q,M} = (1/|A|) sum_x phi(x) phi'(x) tr_M(x)."""
    comp = component_group(label)
    mrep = m_representation(label)
    acc = IntPoly()
    for x in comp.elements():
        c = comp.char_value(mask1, x) * comp.char_value(mask2, x)
        acc = acc + mrep.trace(comp, x) * c
    return acc.divexact_int(comp.size)


def q_M_gram(table: SpringerTable, orbit: int):
    """Gram of the (q,M)-pairing over the orbit's Springer-type systems."""
    rec = table.orbits[orbit]
    return [
        [
            q_M_pairing(rec.label, a.char_mask, b.char_mask)
            for b in rec.systems
        ]
        for a in rec.systems
    ]


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


def quasidistinguished_by_pairing(label: OrbitLabel) -> bool:
    """True iff the M-pairing block survives at q = 1."""
    comp = component_group(label)
    return any(
        not q_M_pairing(label, m1, m2).eval(1) == 0
        for m1 in range(comp.size)
        for m2 in range(comp.size)
    )


def nsol_by_pairing(label: OrbitLabel) -> bool:
    """True iff the M-pairing block survives at q = -1."""
    comp = component_group(label)
    return any(
        not q_M_pairing(label, m1, m2).eval(-1) == 0
        for m1 in range(comp.size)
        for m2 in range(comp.size)
    )


# ---------------------------------------------------------------------------
# built-in tables


def _orbit_partitions_A(n):
    from .partitions import partitions

    return partitions(n)


def _orbit_partitions_C(n):
    from .partitions import partitions

    out = []
    for lam in partitions(2 * n):
        if all(m % 2 == 0 for p, m in multiplicities(lam).items() if p % 2):
            out.append(lam)
    return tuple(out)


def _assemble(group_type, ambient, n, orbit_parts, systems_for):
    g = build(group_type)
    orbits = []
    for lam in orbit_parts:
        label = OrbitLabel(lam, ambient)
        orbits.append(
            OrbitRecord(
                label=label,
                d_e=d_e(label),
                comp=component_group(label),
                mrep=m_representation(label),
                systems=systems_for(lam, g),
            )
        )
    greater = {
        (i, j)
        for i, a in enumerate(orbit_parts)
        for j, b in enumerate(orbit_parts)
        if a != b and dominates(a, b)
    }
    table = SpringerTable(group_type, ambient, n, orbits, greater)
    validate_table(table)
    return table


def table_typeA(n: int) -> SpringerTable:
    """GL(n) Springer table: orbits are partitions of n, trivial local
    systems, and the orbit lam carries the irrep lam^t (regular -> sgn)."""
    if not 2 <= n <= 8:
        raise ValueError("type A tables cover 2 <= n <= 8")
    group_type = WeylType("A", n - 1)
    g = build(group_type)

    def systems_for(lam, g):
        irrep = g.irrep_labels.index(transpose(lam))
        return [LocalSystem("triv", 0, irrep)]

    return _assemble(group_type, "A", n, _orbit_partitions_A(n), systems_for)


_SP4_TABLE = {
    # partition -> list of (system label, sign-bearing part or None, (alpha, beta))
    (4,): [("triv", None, ((), (1, 1)))],
    (2, 2): [("triv", None, ((1,), (1,))), ("sgn", 2, ((1, 1), ()))],
    (2, 1, 1): [("triv", None, ((), (2,)))],
    (1, 1, 1, 1): [("triv", None, ((2,), ()))],
}


def table_typeC(n: int) -> SpringerTable:
    """Sp(2n) Springer table for n in {1,2,3}.

    Rank 2 is hard-coded; ranks 1 and 3 are read from the packaged reference
    files and validated exactly like user-supplied tables.
    """
    if n == 2:
        group_type = WeylType("C", 2)
        g = build(group_type)

        def systems_for(lam, g):
            out = []
            comp = component_group(OrbitLabel(lam, "C"))
            for label, sign_part, bip in _SP4_TABLE[lam]:
                mask = 0
                if sign_part is not None:
                    mask = 1 << comp.generator_names.index(sign_part)
                out.append(LocalSystem(label, mask, g.irrep_labels.index(bip)))
            return out

        return _assemble(group_type, "C", 2, _orbit_partitions_C(2), systems_for)
    if n in (1, 3):
        ref = resources.files("greenpoly.data").joinpath(f"springer_C{n}.json")
        return load_table(json.loads(ref.read_text()))
    raise ValueError("type C tables cover ranks 1..3; ingest files for more")


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
                    rec.comp.char_value(sys.char_mask, 1 << i)
                    for i in range(rec.comp.k)
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
        with open(source) as fh:
            obj = json.load(fh)
    else:
        obj = source
    _require_keys(obj, ("type", "rank", "orbits"), "table")
    ambient = obj["type"]
    if ambient not in ("A", "C"):
        raise TableFormatError(f"unsupported ambient type {ambient!r}")
    try:
        n = int(obj["rank"])
        group_type = WeylType(ambient, n - 1 if ambient == "A" else n)
    except (TypeError, ValueError):
        raise TableFormatError(
            f"no built-in Weyl group for type {ambient} rank {obj['rank']!r}"
        )
    g = build(group_type)
    if not isinstance(obj["orbits"], (list, tuple)):
        raise TableFormatError("'orbits' is not a list")

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
        try:
            label = OrbitLabel(tuple(parts), ambient)
        except ValueError as exc:
            raise TableFormatError(f"{where}: {exc}")
        comp = component_group(label)
        declared = orec.get("comp_group")
        if declared is not None:
            _require_keys(declared, (), f"{where} comp_group")
        if declared is not None and (
            declared.get("kind") != comp.kind or declared.get("k", 0) != comp.k
        ):
            raise TableFormatError(
                f"{where}: declared component group {declared} does not match "
                f"the partition ({comp.kind}, k={comp.k})"
            )
        expected_d = d_e(label)
        if orec.get("d_e", expected_d) != expected_d:
            raise TableFormatError(
                f"{where}: d_e {orec['d_e']} contradicts the partition "
                f"(expected {expected_d})"
            )
        if not isinstance(orec["pairs"], (list, tuple)):
            raise TableFormatError(f"{where}: 'pairs' is not a list")
        systems = []
        for sys in orec["pairs"]:
            _require_keys(sys, ("local_system", "irrep"), f"{where} pair")
            if not isinstance(sys["local_system"], str):
                raise TableFormatError(
                    f"{where}: local_system {sys['local_system']!r} is not a string"
                )
            mask = 0
            if "char_on_generators" in sys:
                vals = sys["char_on_generators"]
                if not isinstance(vals, (list, tuple)) or len(vals) != comp.k or any(
                    v not in (1, -1) for v in vals
                ):
                    raise TableFormatError(f"{where}: bad char_on_generators {vals}")
                mask = sum(1 << i for i, v in enumerate(vals) if v == -1)
            elif sys["local_system"] != "triv" and comp.kind != "trivial":
                raise TableFormatError(
                    f"{where}: nontrivial system {sys['local_system']!r} needs "
                    "char_on_generators"
                )
            irrep = _irrep_label_from_json(g, sys["irrep"], where)
            systems.append(LocalSystem(sys["local_system"], mask, irrep))
        orbits.append(
            OrbitRecord(label, expected_d, comp, m_representation(label), systems)
        )

    try:
        greater = {(int(i), int(j)) for i, j in obj.get("closure", [])}
    except (TypeError, ValueError):
        raise TableFormatError("'closure' is not a list of orbit index pairs")
    table = SpringerTable(group_type, ambient, n, orbits, greater)
    validate_table(table)
    # for the classical families the closure order is dominance; a file that
    # declares anything else is inconsistent
    expected = {
        (i, j)
        for i, a in enumerate(orbits)
        for j, b in enumerate(orbits)
        if a.label.partition != b.label.partition
        and dominates(a.label.partition, b.label.partition)
    }
    if greater != expected:
        raise TableFormatError(
            "declared closure differs from the dominance order; offending "
            f"pairs: {sorted(greater ^ expected)[:4]}"
        )
    return table


def validate_table(table: SpringerTable):
    g = table.group
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
    # closure must be a strict partial order listed largest-first
    for i, j in table.greater:
        if not (0 <= i < len(table.orbits) and 0 <= j < len(table.orbits)):
            raise TableFormatError(f"closure refers to missing orbit ({i},{j})")
        if i == j or (j, i) in table.greater:
            raise TableFormatError(f"closure is not a strict order at ({i},{j})")
        if i > j:
            raise TableFormatError(
                "orbit list is not a linear extension (larger orbits first)"
            )
    for i, j in table.greater:
        for k, l in table.greater:
            if j == k and (i, l) not in table.greater:
                raise TableFormatError(
                    f"closure is not transitive: ({i},{j}) and ({k},{l})"
                )
    # duplicate orbits
    seen = set()
    for rec in table.orbits:
        if rec.label.partition in seen:
            raise TableFormatError(f"duplicate orbit {rec.label.partition}")
        seen.add(rec.label.partition)
    # lowest fake-degree term of the plain-system image must be d_e
    sgn = g.sgn_index
    for rec in table.orbits:
        for sys in rec.systems:
            if sys.label != "triv":
                continue
            classical = _tensor_sgn_index(g, sys.irrep)
            fd = fake_degree(g, classical)
            val = next(k for k, c in enumerate(fd.coeffs) if c)
            if val != rec.d_e:
                raise TableFormatError(
                    f"orbit {rec.label.partition}: plain local system maps to "
                    f"{g.irrep_labels[sys.irrep]} whose twisted fake degree "
                    f"starts at q^{val}, expected q^{rec.d_e}"
                )


def _tensor_sgn_index(g: WeylGroupData, i: int) -> int:
    target = tuple(
        g.char_table[i][k] * g.char_table[g.sgn_index][k]
        for k in range(len(g.classes))
    )
    for j, row in enumerate(g.char_table):
        if row == target:
            return j
    raise AssertionError("sign twist left the character table")
