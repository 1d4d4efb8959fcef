"""Command-line front end.

Verbs: wg, pairing, fakedeg, springer, green, verify, spin.
Exit codes: 0 success, 1 usage or data errors, 2 verification failure.
Output is deterministic: fixed orderings everywhere, polynomials always
ascending-degree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import spin as spinmod
from .charring import fake_degree, minus_one_gram, q_elliptic_gram
from .lusztigshoji import GreenTableau, SolverError, solve, verify
from .springer import (
    SpringerTable,
    TableFormatError,
    load_table,
    save_table,
    table_typeA,
    table_typeC,
)
from .weyl import WeylGroupData, WeylType, build

DATA_DIR_ENV = "GREENPOLY_DATA_DIR"


class UsageError(ValueError):
    pass


# verbs whose output has no CSV form; they reject --format csv up front
NO_CSV = ("springer", "verify", "spin")


def _label_str(lab) -> str:
    if isinstance(lab, str):
        return lab
    if isinstance(lab, tuple) and len(lab) in (2, 3) and all(
        isinstance(x, tuple) for x in lab[:2]
    ):
        a = ",".join(map(str, lab[0])) or "0"
        b = ",".join(map(str, lab[1])) or "0"
        tag = lab[2] if len(lab) == 3 and isinstance(lab[2], str) else ""
        return f"({a})x({b}){tag}"
    return "(" + ",".join(map(str, lab)) + ")"


def _emit(payload, fmt: str, csv_rows=None, pretty_lines=None):
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        if pretty_lines is None:
            print(json.dumps(payload, indent=1))
        else:
            for line in pretty_lines:
                print(line)


def _group(args: argparse.Namespace) -> WeylGroupData:
    if args.family is None or args.rank is None:
        raise UsageError("--type and --rank are required")
    try:
        return build(WeylType(args.family, args.rank))
    except ValueError as exc:
        raise UsageError(str(exc))


def _table(args: argparse.Namespace) -> SpringerTable:
    """Resolve the orbit table; for type A the rank names GL(n).

    A table file in the data directory takes precedence over built-ins, and
    must be the table of the requested type and rank.
    """
    if args.family not in ("A", "C"):
        raise UsageError(f"orbit tables exist for types A and C, not {args.family!r}")
    if args.rank is None:
        raise UsageError("--rank required")
    if args.data_dir:
        cand = os.path.join(
            args.data_dir, f"springer_{args.family}{args.rank}.json"
        )
        if os.path.exists(cand):
            table = load_table(cand)
            if (table.ambient, table.n) != (args.family, args.rank):
                raise TableFormatError(
                    f"{cand} holds the type {table.ambient} rank {table.n} table, "
                    f"not type {args.family} rank {args.rank}"
                )
            return table
    try:
        return (table_typeA if args.family == "A" else table_typeC)(args.rank)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# verbs


def cmd_wg(args):
    g = _group(args)
    if args.what == "classes":
        payload = [
            {"label": _label_str(c.label), "size": c.size} for c in g.classes
        ]
        rows = [["label", "size"]] + [[_label_str(c.label), c.size] for c in g.classes]
        _emit(payload, args.format, rows, [f"{_label_str(c.label)}  size {c.size}" for c in g.classes])
        return 0
    if args.what == "chartable":
        payload = {
            "irreps": [_label_str(l) for l in g.irrep_labels],
            "classes": [_label_str(c.label) for c in g.classes],
            "sizes": [c.size for c in g.classes],
            "table": [list(row) for row in g.char_table],
        }
        rows = [[""] + [_label_str(c.label) for c in g.classes]]
        for lab, row in zip(g.irrep_labels, g.char_table):
            rows.append([_label_str(lab)] + list(row))
        _emit(payload, args.format, rows, [",".join(map(str, r)) for r in rows])
        return 0
    raise UsageError(f"unknown wg subcommand {args.what!r}")


def cmd_pairing(args):
    g = _group(args)
    if args.form == "qell":
        gram = [[str(e) for e in row] for row in q_elliptic_gram(g)]
    elif args.form in ("minusone", "delta"):
        # the twisted Gram is the (-1)-elliptic one by the substitution u = w w0
        # (see charring.delta_twist_pairing)
        gram = minus_one_gram(g)
    else:
        raise UsageError("--form must be qell, minusone, or delta")
    payload = {
        "irreps": [_label_str(l) for l in g.irrep_labels],
        "form": args.form,
        "gram": gram,
    }
    rows = [[_label_str(l)] + list(map(str, row)) for l, row in zip(g.irrep_labels, gram)]
    _emit(payload, args.format, rows, [",".join(map(str, r)) for r in rows])
    return 0


def cmd_fakedeg(args):
    g = _group(args)
    payload = [
        {"irrep": _label_str(l), "fake_degree": fake_degree(g, i).to_json()}
        for i, l in enumerate(g.irrep_labels)
    ]
    rows = [[_label_str(l), str(fake_degree(g, i))] for i, l in enumerate(g.irrep_labels)]
    _emit(payload, args.format, rows, [f"{a}: {b}" for a, b in rows])
    return 0


def cmd_springer(args):
    if args.what == "show":
        table = _table(args)
        payload = save_table(table)
        lines = []
        for rec in table.orbits:
            systems = ", ".join(
                f"{s.label} -> {_label_str(table.group.irrep_labels[s.irrep])}"
                for s in rec.systems
            )
            lines.append(
                f"orbit {rec.label.partition} d_e={rec.d_e} "
                f"A(e)={rec.comp.kind}(k={rec.comp.k}): {systems}"
            )
        _emit(payload, args.format, None, lines)
        return 0
    if args.what == "load":
        if args.file is None:
            raise UsageError("springer load needs a table FILE")
        table = load_table(args.file)
        payload = {
            "type": table.ambient,
            "rank": table.n,
            "orbits": len(table.orbits),
            "pairs": len(table.pairs()),
            "valid": True,
        }
        line = (
            f"loaded type {table.ambient} rank {table.n}: "
            f"{payload['orbits']} orbits, {payload['pairs']} pairs, valid"
        )
        _emit(payload, args.format, None, [line])
        return 0
    raise UsageError(f"unknown springer subcommand {args.what!r}")


def _tableau_payload(tab: GreenTableau):
    g = tab.group
    pairs = [tab.pair_name(j) for j in range(len(tab.pairs))]
    return {
        "pairs": pairs,
        "irreps": [_label_str(l) for l in g.irrep_labels],
        "K_columns": [
            {
                "pair": tab.pair_name(j),
                "coords": {
                    _label_str(g.irrep_labels[i]): c.to_json()
                    for i, c in enumerate(tab.coords[j])
                    if c
                },
            }
            for j in range(len(tab.pairs))
        ],
        "M": [[e.to_json() for e in row] for row in tab.M],
        "Lambda": [[e.to_json() for e in row] for row in tab.Lam],
        "p": tab.p.to_json(),
        "notes": tab.notes,
    }


def cmd_green(args):
    table = _table(args)
    tab = solve(table)
    payload = _tableau_payload(tab)
    n = len(tab.pairs)
    K = tab.k_matrix()
    rows = [[""] + [tab.pair_name(j) for j in range(n)]]
    for i in range(n):
        rows.append([tab.pair_name(i)] + [str(K[i][j]) for j in range(n)])
    lines = []
    for j in range(n):
        terms = [
            f"({c})*{_label_str(tab.group.irrep_labels[i])}"
            for i, c in enumerate(tab.coords[j])
            if c
        ]
        lines.append(f"X_q[{tab.pair_name(j)}] = " + " + ".join(terms))
    lines.append("M(q) diagonal blocks:")
    seen = set()
    for orbit, _ in tab.pairs:
        if orbit in seen:
            continue
        seen.add(orbit)
        from .lusztigshoji import m_block

        block = m_block(tab, orbit)
        lab = str(table.orbits[orbit].label.partition)
        if len(block) == 1:
            lines.append(f"  {lab}: {block[0][0]}")
        else:
            lines.append(f"  {lab}:")
            for row in block:
                lines.append("    [" + ", ".join(str(e) for e in row) + "]")
    _emit(payload, args.format, rows, lines)
    return 0


def cmd_verify(args):
    checks = []
    if args.what in ("ls", "all"):
        tab = solve(_table(args), check=False)
        for name, ok, detail in verify(tab):
            checks.append({"identity": name, "ok": ok, "detail": _json_safe(detail)})
    if args.what == "all":
        g = tab.group
        from .charring import chevalley_failure, minus_one_gram_rank
        from .weyl import delta_elliptic_count

        k = chevalley_failure(g)  # the first class where x_1(w) det(1 - qw) != p(q)
        chev_bad = None if k is None else _label_str(g.classes[k].label)
        checks.append({"identity": "chevalley_product", "ok": chev_bad is None, "detail": chev_bad})
        rank, count = minus_one_gram_rank(g), delta_elliptic_count(g)
        rank_bad = None if rank == count else {"rank": rank, "count": count}
        checks.append({"identity": "elliptic_rank_count", "ok": rank_bad is None, "detail": rank_bad})
        try:
            pin = spinmod.build_pin(g)
            pair = spinmod.braid_failure(pin)
            braid_bad = None if pair is None else {"pair": list(pair)}
            sq_bad = None  # label of the first class where tr^2 != a_V det_V(1 + w)
            for k, c in enumerate(g.classes):
                if not pin.spin_square_holds(pin.lift_of_class(k), g.refl_charpoly[k].eval(-1)):
                    sq_bad = _label_str(c.label)
                    break
            checks.append({"identity": "pin_braid_relations", "ok": braid_bad is None, "detail": braid_bad})
            checks.append({"identity": "spin_square_trace", "ok": sq_bad is None, "detail": sq_bad})
        except spinmod.PinConstructionError as exc:
            checks.append({"identity": "pin_construction", "ok": False, "detail": str(exc)})
    failures = [c for c in checks if not c["ok"]]
    payload = {"checks": checks, "ok": not failures}
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for c in checks:
            status = "pass" if c["ok"] else "FAIL"
            extra = "" if c["ok"] or c["detail"] is None else f"  {c['detail']}"
            print(f"{status}  {c['identity']}{extra}")
    return 2 if failures else 0


def _json_safe(x):
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return str(x)


def _parse_orbit(text) -> tuple:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except Exception:
        raise UsageError(f"bad orbit {text!r}; expected comma-separated parts")
    return parts


def _parse_pair(table: SpringerTable, text, phi) -> tuple:
    """The orbit partition of --orbit, checked with --phi against the table."""
    lam = _parse_orbit(text)
    try:
        table.pair_of(lam, phi)
    except KeyError as exc:
        raise UsageError(exc.args[0])
    return lam


def cmd_spin(args):
    if args.what in ("sigma", "index") and args.orbit is None:
        raise UsageError(f"spin {args.what} requires --orbit")
    table = _table(args)
    if args.what in ("sigma", "index"):
        lam = _parse_pair(table, args.orbit, args.phi)
    tab = solve(table)
    pin = spinmod.build_pin(tab.group)
    if args.what == "sigma":
        st = spinmod.sigma_tilde(tab, pin, lam, args.phi)
        payload = {
            "orbit": list(lam),
            "system": args.phi,
            "exact_norm": st.exact_norm,
            "values": [
                {"class": _label_str(c.label), "value": _cplx(v)}
                for c, v in zip(tab.group.classes, st.values)
            ],
        }
        lines = [f"exact norm: {st.exact_norm}"] + [
            f"{_label_str(c.label)}: {_cplx(v)}"
            for c, v in zip(tab.group.classes, st.values)
        ]
        _emit(payload, args.format, None, lines)
        return 0
    if args.what == "classify":
        if table.ambient != "A":
            raise UsageError("classification applies to type A tables")
        out = []
        for rec in table.orbits:
            from .partitions import is_distinct

            if not is_distinct(rec.label.partition):
                continue
            rep = spinmod.classify_constituents(tab, pin, rec.label.partition)
            out.append(
                {
                    "orbit": list(rep.partition),
                    "even": rep.even,
                    "a_lambda": rep.a_lambda,
                    "constituents": rep.constituents,
                    "dim_each": rep.dim_each,
                    "exact_norm": rep.exact_norm,
                    "alternating_betti": rep.alternating_betti,
                }
            )
        lines = [
            (
                f"{d['orbit']}: {'single' if d['constituents'] == 1 else 'dual pair'}"
                f", a={d['a_lambda']}, dim {d['dim_each']}, norm {d['exact_norm']}"
            )
            for d in out
        ]
        _emit(out, args.format, None, lines)
        return 0
    if args.what == "index":
        di = spinmod.dirac_index_char(tab, pin, lam, args.phi)
        payload = {
            "orbit": list(lam),
            "system": args.phi,
            "even_nonzero": di.even_nonzero,
            "coset_nonzero": di.coset_nonzero,
            "even_values": [_cplx(v) for v in di.even_values],
            "coset_values": [_cplx(v) for v in di.coset_values],
            "note": di.note,
        }
        lines = [
            f"even part nonzero: {di.even_nonzero}",
            f"coset part nonzero: {di.coset_nonzero}",
            di.note,
        ]
        _emit(payload, args.format, None, lines)
        return 0
    raise UsageError(f"unknown spin subcommand {args.what!r}")


def _cplx(v) -> str:
    re = round(float(v.real), 10) + 0.0
    im = round(float(v.imag), 10) + 0.0
    if im == 0:
        return f"{re:g}"
    return f"{re:g}{im:+g}i"


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--type", dest="family", choices=["A", "B", "C", "D", "G2"])
    common.add_argument(
        "--rank",
        type=int,
        help="Weyl rank for wg/pairing/fakedeg; for the orbit-table verbs, "
        "n of GL(n) in type A and n of Sp(2n) in type C",
    )
    common.add_argument(
        "--format", choices=["json", "csv", "pretty"], default="pretty"
    )
    common.add_argument("--json", action="store_true", help="shorthand for --format json")
    common.add_argument("--data-dir", default=None)
    common.add_argument(
        "--tolerance",
        type=float,
        default=1e-8,
        help="kept for compatibility: every check, the pin layer's included, is exact",
    )

    p = _Parser(prog="greenpoly", description=__doc__, parents=[common])
    sub = p.add_subparsers(dest="verb", required=True)

    wg = sub.add_parser("wg", parents=[common])
    wg.add_argument("what", choices=["classes", "chartable"])
    wg.set_defaults(func=cmd_wg)

    pairing = sub.add_parser("pairing", parents=[common])
    pairing.add_argument("what", choices=["gram"])
    pairing.add_argument("--form", choices=["qell", "minusone", "delta"], default="qell")
    pairing.set_defaults(func=cmd_pairing)

    fakedeg = sub.add_parser("fakedeg", parents=[common])
    fakedeg.set_defaults(func=cmd_fakedeg)

    springer = sub.add_parser("springer", parents=[common])
    springer.add_argument("what", choices=["show", "load"])
    springer.add_argument("file", nargs="?")
    springer.set_defaults(func=cmd_springer)

    green = sub.add_parser("green", parents=[common])
    green.set_defaults(func=cmd_green)

    ver = sub.add_parser("verify", parents=[common])
    ver.add_argument("what", choices=["ls", "all"])
    ver.set_defaults(func=cmd_verify)

    sp = sub.add_parser("spin", parents=[common])
    sp.add_argument("what", choices=["sigma", "classify", "index"])
    sp.add_argument("--orbit")
    sp.add_argument("--phi", default="triv")
    sp.set_defaults(func=cmd_spin)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.json:
            args.format = "json"
        if not (0 < args.tolerance <= 1e-4):
            raise UsageError("--tolerance must lie in (0, 1e-4]")
        if args.format == "csv" and args.verb in NO_CSV:
            raise UsageError("no CSV form for this command")
        args.data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TableFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(json.dumps({"ok": False, "violated": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
