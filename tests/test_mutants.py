"""Each mutant of `tests/mutants.py` must be killed by the tests it names.

Opt in with `pytest -m mutants`.  For each mutant the checkout's `src`,
`tests` and `bench` and its `pyproject.toml` are copied to a temporary
directory, the mutant's text is replaced in the copy of its module, and
pytest runs the mutant's nodes there in a fresh interpreter, so the copy's
`src` is the package the tests import.  The check fails when the old text
does not occur exactly once, when the run outlasts the mutant's timeout,
and when a node does not fail.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.mutants
@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path):
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    module = tmp_path / "src" / "greenpoly" / mutant.module
    text = module.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, f"{mutant.name}: the old text occurs {text.count(mutant.old)} times"
    module.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.kills],
        cwd=tmp_path, capture_output=True, text=True, timeout=mutant.timeout,
    )
    failed = {line.split(" ")[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")}
    survivors = [node for node in mutant.kills if node not in failed]
    assert run.returncode == 1 and not survivors, f"{mutant.name} survives {survivors}:\n{run.stdout[-2000:]}"
