"""Record classes: value semantics for the two records used as keys, and
fresh mutable state for each instance of the plain records."""

import pytest

from greenpoly.charring import GradedCharacter, VirtualCharacter
from greenpoly.lusztigshoji import GreenTableau
from greenpoly.polyq import ONE
from greenpoly.springer import OrbitLabel, SpringerTable
from greenpoly.weyl import WeylGroupData, WeylType, build

from oracles import graded_irreducible, irreducible


@pytest.mark.parametrize(
    "make,other,fields",
    [
        (lambda: WeylType("B", 3), WeylType("C", 3), ("family", "rank")),
        (lambda: OrbitLabel((2, 2), "C"), OrbitLabel((2, 2), "A"), ("partition", "ambient")),
    ],
)
def test_value_records_equal_hash_and_read_only(make, other, fields):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and a != tuple(getattr(a, f) for f in fields)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    assert a == b


@pytest.mark.parametrize(
    "make",
    [
        lambda: WeylType("E", 6),  # unknown family
        lambda: WeylType("A", 12),  # rank above the cap
        lambda: WeylType("D", 2),  # rank below the cap
        lambda: OrbitLabel((1, 2), "A"),  # not weakly decreasing
        lambda: OrbitLabel((3,), "C"),  # odd size
        lambda: OrbitLabel((3, 2, 1), "C"),  # odd parts with odd multiplicity
    ],
)
def test_bad_record_rejected_by_constructor(make):
    with pytest.raises(ValueError):
        make()


def test_build_is_cached_by_type_value():
    assert build(WeylType("B", 3)) is build(WeylType("B", 3))


@pytest.mark.parametrize("cls", [VirtualCharacter, GradedCharacter])
def test_characters_read_only_with_cached_values(cls):
    g = build(WeylType("A", 2))
    with pytest.raises(ValueError):
        cls(g, (1,))  # one coordinate per irreducible
    x = (irreducible if cls is VirtualCharacter else graded_irreducible)(g, g.triv_index)
    assert x.values is x.values and len(x.values) == len(g.classes)
    for name in ("group", "coords"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)


def test_mutable_defaults_are_per_instance():
    t1, t2 = (SpringerTable(WeylType("A", 2), "A", 2, []) for _ in range(2))
    t1.greater.add((0, 1))
    assert t2.greater == set()

    g = build(WeylType("A", 2))
    tabs = [GreenTableau(t1, [], [], [], [], ONE) for _ in range(2)]
    tabs[0].notes["x"] = 1
    assert tabs[1].notes == {}

    copies = [
        WeylGroupData(g.type, g.order, g.classes, g.char_table, g.irrep_labels, g.degrees,
                      g.w0, g.refl_charpoly, g.sgn_index, g.triv_index, g.refl_index)
        for _ in range(2)
    ]
    assert copies[0]._class_index == copies[1]._class_index == g._class_index
    copies[0]._class_index.clear()
    assert copies[1]._class_index == g._class_index
