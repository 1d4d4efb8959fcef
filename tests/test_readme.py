"""The README's "Library sketch" runs as written."""

from pathlib import Path

from greenpoly.charring import GradedCharacter

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    text = README.read_text().split("## Library sketch", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_sketch_runs():
    ns = {}
    exec(compile(_library_sketch(), "README.md", "exec"), ns)
    tab, x, pin, st = ns["tab"], ns["x"], ns["pin"], ns["st"]
    assert isinstance(x, GradedCharacter) and x.group is tab.group
    assert len(st.values) == len(tab.group.classes)
    j = tab.table.pair_of((2, 2), "sgn")
    assert st.exact_norm == pin.a_v * tab.M[j][j].eval(-1)
    assert isinstance(st.exact_norm, int) and st.exact_norm > 0
