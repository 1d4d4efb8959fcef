"""The table-driven command-line parser against the argparse one it replaced
(`oracles.build_parser`), and the process-level guarantees around it."""

import gc
import json
import os
import sys
from pathlib import Path

import pytest

import greenpoly.cli as cli
from greenpoly.cli import UsageError, main, parse_args

from conftest import run_fresh
from oracles import build_parser

FIELDS = (
    "verb", "what", "file", "family", "rank", "format", "json", "data_dir",
    "tolerance", "form", "orbit", "phi", "func",
)
C3_TABLE = "src/greenpoly/data/springer_C3.json"

# the invocations of bench/run.py's three workloads
BENCH = [
    ["pairing", "gram", "--type", "B", "--rank", "6", "--form", "qell", "--json"],
    ["pairing", "gram", "--type", "D", "--rank", "6", "--form", "qell", "--json"],
    ["pairing", "gram", "--type", "A", "--rank", "8", "--form", "qell", "--json"],
    ["fakedeg", "--type", "B", "--rank", "6", "--json"],
    ["fakedeg", "--type", "D", "--rank", "6", "--json"],
    ["fakedeg", "--type", "A", "--rank", "8", "--json"],
    ["green", "--type", "A", "--rank", "4", "--json"],
    ["green", "--type", "A", "--rank", "6", "--json"],
    ["green", "--type", "A", "--rank", "7", "--json"],
    ["green", "--type", "A", "--rank", "8", "--json"],
    ["green", "--type", "C", "--rank", "2", "--json"],
    ["green", "--type", "C", "--rank", "3", "--json"],
    ["verify", "ls", "--type", "A", "--rank", "8", "--json"],
    ["verify", "ls", "--type", "C", "--rank", "3", "--json"],
    ["spin", "classify", "--type", "A", "--rank", "8"],
    ["spin", "sigma", "--type", "A", "--rank", "7", "--orbit", "4,2,1"],
    ["spin", "index", "--type", "C", "--rank", "3", "--orbit", "4,2", "--phi", "sgn"],
    ["springer", "load", C3_TABLE],
    ["wg", "classes", "--type", "B", "--rank", "6", "--json"],
    ["wg", "chartable", "--type", "B", "--rank", "6", "--json"],
    ["pairing", "gram", "--type", "B", "--rank", "6", "--json", "--form", "minusone"],
    ["pairing", "gram", "--type", "B", "--rank", "6", "--json", "--form", "delta"],
    ["wg", "classes", "--type", "C", "--rank", "6", "--json"],
    ["wg", "chartable", "--type", "C", "--rank", "6", "--json"],
    ["pairing", "gram", "--type", "C", "--rank", "6", "--json", "--form", "minusone"],
    ["pairing", "gram", "--type", "C", "--rank", "6", "--json", "--form", "delta"],
    ["wg", "classes", "--type", "D", "--rank", "6", "--json"],
    ["wg", "chartable", "--type", "D", "--rank", "6", "--json"],
    ["pairing", "gram", "--type", "D", "--rank", "6", "--json", "--form", "minusone"],
    ["pairing", "gram", "--type", "D", "--rank", "6", "--json", "--form", "delta"],
    ["wg", "classes", "--type", "G2", "--rank", "2", "--json"],
    ["wg", "chartable", "--type", "G2", "--rank", "2", "--json"],
    ["pairing", "gram", "--type", "G2", "--rank", "2", "--json", "--form", "minusone"],
    ["pairing", "gram", "--type", "G2", "--rank", "2", "--json", "--form", "delta"],
    ["verify", "all", "--type", "A", "--rank", "8", "--json"],
    ["verify", "all", "--type", "C", "--rank", "3", "--json"],
]


def _readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    out = []
    for line in block.splitlines():
        if not line.startswith("greenpoly "):
            continue
        args = ["x.json" if a == "FILE" else a for a in line.split()[1:]]
        forms = next((a for a in args if "|" in a), None)
        if forms is None:
            out.append(args)
        else:
            i = args.index(forms)
            out += [args[:i] + [f] + args[i + 1:] for f in forms.split("|")]
    return out


README = _readme_examples()

EQUALS = [
    ["wg", "classes", "--type=B", "--rank=3", "--format=csv"],
    ["pairing", "gram", "--type=A", "--rank=3", "--form=delta"],
    ["spin", "sigma", "--type=A", "--rank=5", "--orbit=3,2", "--phi=triv"],
    ["verify", "ls", "--type=A", "--rank=5", "--data-dir=tables", "--tolerance=1e-6"],
    ["green", "--type=C", "--rank=2", "--data-dir="],
]

PREFIXES = [
    ["wg", "classes", "--ty", "A", "--ra", "3"],
    ["wg", "classes", "--type", "A", "--rank", "3", "--form", "json"],  # --format under wg
    ["pairing", "gram", "--type", "A", "--rank", "2", "--forma", "csv", "--form", "delta"],
    ["spin", "index", "--o", "2,2", "--p", "sgn", "--ty", "C", "--r", "2"],
    ["verify", "all", "--d", "tables", "--to", "1e-5", "--j", "--type", "C", "--rank", "2"],
    ["springer", "load", "x.json", "--js"],
    ["fakedeg", "--type", "B", "--rank", "2", "--tol=1e-6", "--f=pretty"],
    ["wg", "classes", "--type", "A", "--rank", "-3", "--tolerance", "-.5"],  # negative values
]

VALID = BENCH + README + EQUALS + PREFIXES

MALFORMED = [
    [],
    ["foo"],
    ["wg"],
    ["verify", "--type", "A"],
    ["wg", "x"],
    ["wg", "classes", "--foo"],
    ["wg", "classes", "-x"],
    ["wg", "classes", "--type"],
    ["wg", "classes", "--type", "--json"],
    ["wg", "classes", "--type", "E"],
    ["wg", "classes", "--type=E"],
    ["wg", "classes", "--rank", "x"],
    ["wg", "classes", "--rank", "1.5"],
    ["wg", "classes", "--rank=", "--type=A"],
    ["wg", "classes", "--tolerance", "x"],
    ["wg", "classes", "extra"],
    ["wg", "classes", "a", "b"],
    ["fakedeg", "extra"],
    ["springer", "load", "a.json", "b.json"],
    ["pairing", "gram", "--f", "json"],
    ["pairing", "gram", "--form", "bogus"],
    ["wg", "classes", "--t", "A"],
    ["wg", "classes", "--json=1"],
    ["wg", "classes", "--orbit", "3"],
    ["green", "--phi", "triv"],
    ["green", "--form", "qell"],  # --format under green
    ["spin", "sigma", "--orbit", "-1,2"],
    ["spin", "--orbit", "3,2"],
]


def _fields(ns):
    return {f: getattr(ns, f, None) for f in FIELDS}


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_parser_matches_argparse_oracle(argv):
    assert _fields(parse_args(argv)) == _fields(build_parser().parse_args(argv))


def test_corpus_covers_every_verb_and_option():
    # 36 bench jobs, every README example, every option in = and prefix form
    assert len(BENCH) == 36 and len(README) >= 14
    verbs = {a[0] for a in VALID}
    assert verbs == set(cli.VERBS)
    written = {tok.split("=")[0] for a in EQUALS for tok in a if tok.startswith("--")}
    assert written >= set(cli.OPTIONS) - {"--json"}


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_argv_rejected_like_argparse(capsys, argv):
    with pytest.raises(UsageError):
        build_parser().parse_args(argv)
    with pytest.raises(UsageError):
        parse_args(argv)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_argparse_wording_kept():
    cases = {
        (): "the following arguments are required: verb",
        ("foo",): "argument verb: invalid choice: 'foo' (choose from 'wg', 'pairing', "
        "'fakedeg', 'springer', 'green', 'verify', 'spin')",
        ("wg",): "the following arguments are required: what",
        ("wg", "classes", "--type"): "argument --type: expected one argument",
        ("wg", "classes", "--type", "E"): "argument --type: invalid choice: 'E' "
        "(choose from 'A', 'B', 'C', 'D', 'G2')",
        ("wg", "classes", "--rank", "x"): "argument --rank: invalid int value: 'x'",
        ("wg", "classes", "--tolerance", "x"): "argument --tolerance: invalid float value: 'x'",
        ("wg", "classes", "a", "b"): "unrecognized arguments: a b",
        ("wg", "classes", "--foo"): "unrecognized arguments: --foo",
        ("pairing", "gram", "--f", "json"): "ambiguous option: --f could match --format, --form",
        ("wg", "classes", "--json=1"): "argument --json: ignored explicit argument '1'",
    }
    for argv, message in cases.items():
        with pytest.raises(UsageError) as exc:
            parse_args(list(argv))
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "argv",
    [
        ["springer", "show", "--type", "C", "--rank", "2", "x.json"],
        ["verify", "ls", "x.json"],
        ["wg", "classes", "--"],
    ],
)
def test_positionals_argparse_ignored_are_rejected(capsys, argv):
    # FILE is taken only after `springer load`; argparse took it after
    # `springer show` too, and a bare "--", and ignored them
    code, out, err = main(argv), *capsys.readouterr()
    assert (code, out) == (1, "") and err.startswith("error: unrecognized arguments: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["wg", "--help"], ["--he"], ["green", "-h", "--bogus"]])
def test_help_prints_the_module_docstring(capsys, argv):
    code, out, err = main(argv), *capsys.readouterr()
    assert (code, out, err) == (0, cli.__doc__, "")
    assert "usage: greenpoly VERB" in out


@pytest.mark.parametrize(
    "before, after",
    [
        (["--type", "A", "--rank", "3", "wg", "classes"], ["wg", "classes", "--type", "A", "--rank", "3"]),
        (["--form", "minusone", "--json", "pairing", "gram", "--type", "B", "--rank", "2"],
         ["pairing", "gram", "--type", "B", "--rank", "2", "--form", "minusone", "--json"]),
        (["--orbit", "2,2", "--type=C", "spin", "index", "--rank", "2"],
         ["spin", "index", "--type", "C", "--rank", "2", "--orbit", "2,2"]),
        (["--ty", "C", "--ra", "2", "green"], ["green", "--type", "C", "--rank", "2"]),
    ],
)
def test_options_before_the_verb_are_kept(capsys, before, after):
    # argparse's subparser defaults overwrote options given before the verb
    runs = []
    for argv in (before, after):
        runs.append((main(argv), *capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1]


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # [project.scripts] calls main() with no argument
    argv = ["wg", "classes", "--type", "A", "--rank", "3", "--json"]
    monkeypatch.setattr(sys, "argv", ["greenpoly", *argv])
    try:
        code, out, err = main(), *capsys.readouterr()
    finally:
        gc.unfreeze()  # main() froze this process's heap, as it does at a process entry
    assert (code, err) == (0, "") and sum(c["size"] for c in json.loads(out)) == 24  # S4
    assert (main(argv), *capsys.readouterr()) == (code, out, err)


def test_verbs_load_no_argument_parser():
    # argparse, with the gettext and locale it imports, costs every process
    # several milliseconds: no verb may bring it back
    import greenpoly

    table = os.path.join(os.path.dirname(greenpoly.__file__), "data", "springer_C3.json")
    code = (
        "import contextlib, io, sys\n"
        "from greenpoly.cli import main\n"
        "g, t = ['--type', 'C', '--rank', '2'], ['--type', 'A', '--rank', '3']\n"
        "runs = [['wg', 'classes', *g], ['pairing', 'gram', *g], ['fakedeg', *g],\n"
        "        ['springer', 'show', *g], ['springer', 'load', sys.argv[1]], ['green', *g],\n"
        "        ['verify', 'ls', *g], ['verify', 'all', *g], ['spin', 'sigma', *t, '--orbit', '2,1'],\n"
        "        ['spin', 'classify', *t], ['spin', 'index', *g, '--orbit', '2,2'], ['-h']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(args) for args in runs]\n"
        "print(*codes, *sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    out = run_fresh(code, table, text=True, check=True).stdout
    assert out.split() == ["0"] * 12


def test_src_does_not_import_argparse():
    import greenpoly

    for path in Path(greenpoly.__file__).parent.glob("*.py"):
        lines = path.read_text().splitlines()
        assert not any(line.split()[:2] in (["import", "argparse"], ["from", "argparse"])
                       for line in lines if line.strip()), path
