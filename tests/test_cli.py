import json
import os
import subprocess
import sys

import pytest

from greenpoly.cli import main


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_import_leaves_numpy_out():
    # the pin layer is exact integer arithmetic: no verb, the pin verbs and
    # `verify all` included, imports numpy
    import greenpoly

    src = os.path.dirname(os.path.dirname(greenpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import contextlib, io, sys\n"
        "from greenpoly.cli import main\n"
        "runs = [['spin', 'classify', '--type', 'A', '--rank', '4'],\n"
        "        ['spin', 'index', '--type', 'C', '--rank', '2', '--orbit', '2,2', '--phi', 'triv'],\n"
        "        ['verify', 'all', '--type', 'C', '--rank', '2']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(args) for args in runs]\n"
        "print(codes, 'numpy' in sys.modules, 'greenpoly.spin' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["[0,", "0,", "0]", "False", "True"]


def test_cli_import_is_lean_and_eager():
    # importing the CLI pulls in no record or rational-number machinery from
    # the standard library, and loads every layer up front (the bench tracer
    # reads all eight modules from sys.modules right after this import)
    import greenpoly

    src = os.path.dirname(os.path.dirname(greenpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import greenpoly.cli\n"
        "heavy = ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
        "print(*sorted(m for m in heavy if m in sys.modules and m not in before))\n"
        "layers = 'polyq partitions weyl charring springer lusztigshoji spin cli'.split()\n"
        "print(*[m for m in layers if 'greenpoly.' + m not in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n") == ["", "", ""]  # nothing heavy loaded, no layer missing


def test_verify_all_loads_no_rationals():
    # the (-1)-elliptic rank is computed by integer Bareiss elimination
    import greenpoly

    src = os.path.dirname(os.path.dirname(greenpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import contextlib, io, sys\n"
        "from greenpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['verify', 'all', '--type', 'C', '--rank', '2'])\n"
        "print(rc, *sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0"]


def test_wg_classes_json(capsys):
    code, out, _ = run(capsys, "wg", "classes", "--type", "B", "--rank", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert sum(row["size"] for row in data) == 8
    assert all(set(row) == {"label", "size"} for row in data)


def test_wg_chartable(capsys):
    code, out, _ = run(capsys, "wg", "chartable", "--type", "A", "--rank", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["table"]) == 5 and len(data["table"][0]) == 5


def test_green_sl3_csv(capsys):
    code, out, _ = run(capsys, "green", "--type", "A", "--rank", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith("1,q,q^3")  # sgn row of K


def test_green_json_poly_encoding(capsys):
    code, out, _ = run(capsys, "green", "--type", "A", "--rank", "3", "--json")
    data = json.loads(out)
    bottom = data["K_columns"][-1]["coords"]["(2,1)"]
    assert bottom == {"coeffs": ["0", "1", "1"]}
    assert "notes" in data


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--type", "C", "--rank", "2")
    assert code == 0
    assert "kl_equation" in out and "FAIL" not in out


def test_verify_all_failure_witnesses(capsys, monkeypatch):
    import greenpoly.charring as charring
    from greenpoly import spin
    from greenpoly.weyl import WeylType, build, delta_elliptic_count

    def checks():
        code, out, _ = run(capsys, "verify", "all", "--type", "C", "--rank", "3", "--json")
        return code, {c["identity"]: c for c in json.loads(out)["checks"]}

    code, passed = checks()
    assert code == 0
    assert passed["elliptic_rank_count"]["detail"] is None
    assert passed["spin_square_trace"]["detail"] is None
    assert passed["pin_braid_relations"]["detail"] is None
    assert passed["chevalley_product"]["detail"] is None

    g = build(WeylType("C", 3))
    pin = spin.build_pin(g)
    # doubling the lifts of the classes after the first breaks
    # tr^2 = a_V det_V(1 + w) exactly where tr != 0: classes 4 and 6 of C3
    first = next(k for k in range(1, len(g.classes)) if pin.trace(pin.lift_of_class(k)) != 0)
    _, out, _ = run(capsys, "wg", "classes", "--type", "C", "--rank", "3", "--json")
    first_label = json.loads(out)[first]["label"]
    lift = spin.PinRep.lift_of_class

    def doubled(self, k):
        u = lift(self, k)
        return spin.PinElement({s: (2 if k else 1) * c for s, c in u.coeffs.items()}, u.norm)

    monkeypatch.setattr(spin.PinRep, "lift_of_class", doubled)
    monkeypatch.setattr(charring, "minus_one_gram_rank", lambda g: 99)
    code, failed = checks()
    assert code == 2
    assert failed["elliptic_rank_count"] == {
        "identity": "elliptic_rank_count",
        "ok": False,
        "detail": {"rank": 99, "count": delta_elliptic_count(g)},
    }
    assert not failed["spin_square_trace"]["ok"]
    assert failed["spin_square_trace"]["detail"] == first_label


def test_verify_all_braid_witness(capsys, monkeypatch):
    from greenpoly import spin

    build_pin = spin.build_pin

    def broken(g):
        pin = build_pin(g)
        pin.roots[2] = (0, 1, 1)  # no root: breaks the pairs (0, 2) and (1, 2)
        return pin

    monkeypatch.setattr(spin, "build_pin", broken)
    code, out, _ = run(capsys, "verify", "all", "--type", "C", "--rank", "3", "--json")
    assert code == 2
    checks = {c["identity"]: c for c in json.loads(out)["checks"]}
    assert checks["pin_braid_relations"] == {
        "identity": "pin_braid_relations",
        "ok": False,
        "detail": {"pair": [0, 2]},
    }


def test_verify_all_chevalley_witness(capsys, monkeypatch):
    import greenpoly.charring as charring
    from greenpoly.weyl import WeylType, build

    g = build(WeylType("C", 3))
    x1 = charring.coinvariant_character(g)  # cached before p(q) is tampered with
    p = charring.poincare_poly(g) + charring.ONE
    first = next(k for k in range(len(g.classes)) if x1.value(k) * g.refl_charpoly[k] != p)
    _, out, _ = run(capsys, "wg", "classes", "--type", "C", "--rank", "3", "--json")
    first_label = json.loads(out)[first]["label"]
    monkeypatch.setattr(charring, "poincare_poly", lambda g: p)
    code, out, _ = run(capsys, "verify", "all", "--type", "C", "--rank", "3", "--json")
    assert code == 2
    checks = {c["identity"]: c for c in json.loads(out)["checks"]}
    assert checks["chevalley_product"] == {
        "identity": "chevalley_product",
        "ok": False,
        "detail": first_label,
    }


def test_verify_json_structure(capsys):
    code, out, _ = run(capsys, "verify", "ls", "--type", "A", "--rank", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    names = {c["identity"] for c in data["checks"]}
    assert {"kl_equation", "lambda_m_product", "cross_orbit_orthogonality"} <= names


def test_springer_show_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "springer", "show", "--type", "C", "--rank", "2", "--json")
    assert code == 0
    path = tmp_path / "c2.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "springer", "load", str(path))
    assert code == 0
    assert "valid" in out2


def test_springer_load_sentence_and_json(capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "src", "greenpoly", "data",
                        "springer_C3.json")
    code, out, err = run(capsys, "springer", "load", path)
    assert (code, out, err) == (0, "loaded type C rank 3: 8 orbits, 10 pairs, valid\n", "")
    code, out, err = run(capsys, "springer", "load", path, "--json")
    assert code == 0 and err == ""
    assert out == '{"type": "C", "rank": 3, "orbits": 8, "pairs": 10, "valid": true}\n'


def test_springer_load_bad_file(capsys, tmp_path):
    bad = {
        "type": "C",
        "rank": 2,
        "orbits": [
            {
                "partition": [4],
                "d_e": 0,
                "pairs": [{"local_system": "triv", "irrep": [[], [1, 1]]}],
            }
        ],
        "closure": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "springer", "load", str(path))
    assert code == 1
    assert "misses" in err


def _c2_table(edit):
    from greenpoly.springer import save_table, table_typeC

    d = save_table(table_typeC(2))
    edit(d)
    return d


def _c2_file(edit=None, text=None, data=None):
    """Writer of a FILE argument: the C2 table changed by edit, then its JSON
    text changed by text, or the raw bytes data."""

    def write(tmp_path):
        path = tmp_path / "table.json"
        if data is not None:
            path.write_bytes(data)
        else:
            out = json.dumps(_c2_table(edit or (lambda d: None)))
            path.write_text(text(out) if text else out)
        return path

    return write


@pytest.mark.parametrize(
    "make",
    [
        _c2_file(lambda d: d.update(rank=9)),
        _c2_file(lambda d: d["orbits"][1].pop("pairs")),
        _c2_file(lambda d: d["orbits"][1].update(partition=[2, "1", 1])),
        _c2_file(lambda d: d["orbits"][0].update(comp_group=[1])),
        _c2_file(lambda d: d["orbits"][0]["pairs"][0].update(irrep=3)),
        _c2_file(lambda d: d["orbits"][0]["pairs"][0].update(char_on_generators=1)),
        _c2_file(lambda d: d.update(closure=[["a", "b"]])),
        _c2_file(lambda d: d["orbits"][0]["pairs"][0].update(local_system=[1])),
        None,  # no FILE at all
        lambda tmp_path: tmp_path,
        _c2_file(data=b"\xff\xfe{}"),
        _c2_file(text=lambda t: t.replace('"rank": 2', '"rank": 1e400')),
        _c2_file(text=lambda t: t.replace('"rank": 2', '"rank": 1' + "0" * 5000)),
        _c2_file(lambda d: d["orbits"][0].update(d_e=False)),
        _c2_file(lambda d: d["orbits"][2].update(d_e=2.0)),
        _c2_file(lambda d: d["orbits"][1]["comp_group"].update(k=1.0)),
        _c2_file(lambda d: d["orbits"][0]["pairs"][0].update(char_on_generators=[True])),
        _c2_file(lambda d: d["orbits"][1]["pairs"][0].update(char_on_generators=[1.0])),
        _c2_file(lambda d: d["orbits"][1]["pairs"][0].update(char_on_generators="1\n-1")),
    ],
    ids=[
        "rank-out-of-range", "orbit-without-pairs", "non-integer-part",
        "comp-group-not-object", "irrep-not-a-label", "characters-not-a-list",
        "closure-not-index-pairs", "local-system-not-a-string", "no-file",
        "file-is-a-directory", "not-utf8", "rank-overflows", "integer-too-long",
        "d-e-false", "d-e-float", "k-float", "character-true", "character-float",
        "characters-with-newline",
    ],
)
def test_springer_load_malformed_input(capsys, tmp_path, make):
    args = ["springer", "load"]
    if make is not None:
        args.append(str(make(tmp_path)))
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_data_dir_table_must_match_request(capsys, tmp_path):
    # the C2 table saved under the file name of GL(3)'s
    path = tmp_path / "springer_A3.json"
    path.write_text(json.dumps(_c2_table(lambda d: None)))
    code, out, err = run(capsys, "green", "--type", "A", "--rank", "3", "--data-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1
    assert "type C rank 2" in err


@pytest.mark.parametrize("family, rank", [("A", "13"), ("C", "4"), ("A", "1"), ("C", "0")])
def test_table_rank_out_of_range(capsys, family, rank):
    code, out, err = run(capsys, "green", "--type", family, "--rank", rank)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_spin_sigma(capsys):
    code, out, _ = run(
        capsys, "spin", "sigma", "--type", "A", "--rank", "5", "--orbit", "3,2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["exact_norm"] == 2


def test_spin_classify(capsys):
    code, out, _ = run(capsys, "spin", "classify", "--type", "A", "--rank", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert sum(d["constituents"] for d in data) == 5  # genuine count for GL(5)


def test_spin_index(capsys):
    code, out, _ = run(
        capsys, "spin", "index", "--type", "C", "--rank", "2",
        "--orbit", "2,2", "--phi", "triv", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["even_nonzero"] and data["coset_nonzero"]


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "wg", "classes")[0] == 1  # missing --type/--rank
    assert run(capsys, "wg", "classes", "--type", "A", "--rank", "40")[0] == 1
    assert run(capsys, "green", "--type", "B", "--rank", "2")[0] == 1  # no B tables
    code, _, err = run(
        capsys, "verify", "ls", "--type", "A", "--rank", "3", "--tolerance", "0.5"
    )
    assert code == 1 and "tolerance" in err


@pytest.mark.parametrize(
    "args",
    [
        ("spin", "sigma", "--type", "A", "--rank", "3", "--orbit", "2,1"),
        ("spin", "classify", "--type", "A", "--rank", "4"),
        ("spin", "index", "--type", "C", "--rank", "2", "--orbit", "2,2"),
        ("springer", "show", "--type", "C", "--rank", "2"),
        ("springer", "load", "table.json"),
        ("verify", "ls", "--type", "A", "--rank", "3"),
        ("verify", "all", "--type", "C", "--rank", "2"),
    ],
)
def test_csv_rejected_before_any_work(capsys, monkeypatch, args):
    import greenpoly.cli as cli

    def refuse(*a, **k):
        raise AssertionError("built or solved before --format csv was rejected")

    for name in ("_group", "_table", "load_table", "solve"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, *args, "--format", "csv")
    assert (code, out, err) == (1, "", "error: no CSV form for this command\n")


def test_csv_verbs_print_csv(capsys):
    code, out, _ = run(capsys, "wg", "classes", "--type", "A", "--rank", "2", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "label,size"
    for args in (("wg", "chartable"), ("pairing", "gram"), ("fakedeg",)):
        code, out, _ = run(capsys, *args, "--type", "A", "--rank", "2", "--format", "csv")
        assert code == 0 and "," in out and not out.lstrip().startswith(("{", "["))


def test_deterministic_output(capsys):
    a = run(capsys, "green", "--type", "C", "--rank", "2", "--json")
    b = run(capsys, "green", "--type", "C", "--rank", "2", "--json")
    assert a == b


def test_fakedeg(capsys):
    code, out, _ = run(capsys, "fakedeg", "--type", "B", "--rank", "2")
    assert code == 0
    assert "q^4" in out


def test_pairing_gram(capsys):
    code, out, _ = run(
        capsys, "pairing", "gram", "--type", "A", "--rank", "2", "--form", "minusone", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["gram"][1][1] == 3  # reflection norm in the (-1)-form


def test_pairing_gram_delta_matches_minusone(capsys):
    for fam, rank in [("B", "3"), ("D", "4")]:
        grams = []
        for form in ("minusone", "delta"):
            code, out, _ = run(
                capsys, "pairing", "gram", "--type", fam, "--rank", rank, "--form", form, "--json"
            )
            assert code == 0
            grams.append(json.loads(out)["gram"])
        assert grams[0] == grams[1]


@pytest.mark.parametrize(
    "args",
    [
        ("spin", "sigma", "--type", "A", "--rank", "3", "--orbit", "9,9"),
        ("spin", "index", "--type", "C", "--rank", "2", "--orbit", "2,2", "--phi", "bogus"),
    ],
)
def test_unknown_orbit_or_system_is_usage_error(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("what", ["sigma", "index"])
def test_missing_orbit_is_usage_error(capsys, monkeypatch, what):
    import greenpoly.cli as cli

    def refuse(*a, **k):
        raise AssertionError("table loaded before the missing --orbit was reported")

    monkeypatch.setattr(cli, "_table", refuse)
    code, out, err = run(capsys, "spin", what, "--type", "C", "--rank", "2")
    assert (code, out, err) == (1, "", f"error: spin {what} requires --orbit\n")


def test_verification_failure_exit_two(capsys, tmp_path):
    # a table that loads but fails the exact verification battery: move the
    # extra local system of (4,2) in the rank-3 table onto (2,2,2)
    from greenpoly.springer import save_table, table_typeC

    d = save_table(table_typeC(3))
    i42 = next(i for i, o in enumerate(d["orbits"]) if o["partition"] == [4, 2])
    i222 = next(i for i, o in enumerate(d["orbits"]) if o["partition"] == [2, 2, 2])
    moved = d["orbits"][i42]["pairs"].pop(1)
    moved["char_on_generators"] = [-1]
    d["orbits"][i222]["pairs"].append(moved)
    (tmp_path / "springer_C3.json").write_text(json.dumps(d))

    code, out, _ = run(
        capsys, "verify", "ls", "--type", "C", "--rank", "3",
        "--data-dir", str(tmp_path), "--json",
    )
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    failing = {c["identity"] for c in data["checks"] if not c["ok"]}
    assert "component_isometry" in failing

    code, out, _ = run(
        capsys, "green", "--type", "C", "--rank", "3", "--data-dir", str(tmp_path)
    )
    assert code == 2
    assert "component_isometry" in out
