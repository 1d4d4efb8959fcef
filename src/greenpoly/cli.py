"""greenpoly: exact Green polynomials of Weyl groups from the command line.

usage: greenpoly VERB [WHAT] [FILE] [OPTION ...]

Verbs:
  wg {classes,chartable}       conjugacy classes or character table of W
  pairing gram                 Gram of the irreducibles under --form
  fakedeg                      fake degrees of the irreducibles
  springer {show,load} [FILE]  print the orbit table, or validate table FILE
  green                        Green functions: K, the M blocks and Lambda
  verify {ls,all}              the exact identity checks (all adds the
                               Chevalley, elliptic-rank and pin-cover ones)
  spin {sigma,classify,index}  spin-tensored Green columns and the extended
                               Dirac index

Options may stand anywhere on the line, before or after the verb, as
--name value or --name=value; any unique prefix of a name the verb takes
stands for it (--ty A).  Every verb takes:
  --type {A,B,C,D,G2}
  --rank N                     the Weyl rank for wg, pairing and fakedeg; for
                               springer, green, verify and spin, n of GL(n)
                               in type A and n of Sp(2n) in type C
  --format {json,csv,pretty}   default pretty; springer, verify and spin
                               have no CSV form
  --json                       shorthand for --format json
  --data-dir DIR               orbit tables springer_<type><rank>.json that
                               override the built-ins (default
                               $GREENPOLY_DATA_DIR)
  --tolerance X                in (0, 1e-4], default 1e-8; kept for
                               compatibility: every check is exact
  -h, --help                   print this text and exit
pairing also takes --form {qell,minusone,delta} (default qell); spin also
takes --orbit PARTS (comma-separated, needed by sigma and index) and
--phi SYSTEM (the local system, default triv).

Exit codes: 0 success, 1 usage or data errors, 2 verification failure.
Output is deterministic: fixed orderings everywhere, polynomials always
ascending-degree.
"""

from __future__ import annotations

import gc
import os
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _layer(name: str):
    """The module greenpoly.<name>, registered in sys.modules and on the
    package as an import registers it, but lazily: its body runs when one of
    its attributes is first read.  A module already imported is kept."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Every layer is registered, so importing the CLI runs none of them and a verb
# runs only those it reaches (bench/tracer.py reads all of them from
# sys.modules right after the import).
polyq, partitions, weyl, charring, springer, lusztigshoji, spin = map(
    _layer, ("polyq", "partitions", "weyl", "charring", "springer", "lusztigshoji", "spin")
)

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


# the escapes json.dumps writes for these characters by name; every other
# character outside ' '..'~' is written as \uXXXX
_NAMED_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                  "\b": "\\b", "\f": "\\f"}


def _escape(c: str) -> str:
    if " " <= c <= "~" and c not in '"\\':
        return c
    named = _NAMED_ESCAPES.get(c)
    if named is not None:
        return named
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # a UTF-16 surrogate pair
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _plain(s: str) -> bool:
    """Whether json.dumps writes s between quotes as it stands: printable
    ASCII (' '..'~') with no quote or backslash."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _json_text(obj) -> str:
    """obj as json.dumps(obj, default=polyq.IntPoly.to_json) writes it with
    its other arguments left at their defaults: the separators ", " and ": ",
    ASCII only, NaN and the infinities allowed.  Values are str, int, float,
    bool, None, IntPolys, and lists, tuples and dicts of them, dict keys str;
    any other value raises TypeError.

    Written here so that printing JSON does not import json, whose import
    compiles the decoder's regular expressions.  The keys of a dict, and a
    list of strings, are joined and tested for escapes all at once; a list of
    plain ints is written by repr, which writes it as json does; any other
    string is escaped once; and an IntPoly is written from its coefficients
    in one join, so no {"coeffs": ...} dict is built for it.
    """
    strings = {}

    def string(s: str) -> str:
        text = strings.get(s)
        if text is None:
            text = strings[s] = '"' + (s if _plain(s) else "".join(map(_escape, s))) + '"'
        return text

    def encode(x) -> str:
        if type(x) is str:
            return strings.get(x) or string(x)
        if isinstance(x, dict):
            if _plain("".join(x)):  # the join raises TypeError on a key not a str
                return "{" + ", ".join(['"' + k + '": ' + encode(v) for k, v in x.items()]) + "}"
            return "{" + ", ".join([string(k) + ": " + encode(v) for k, v in x.items()]) + "}"
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            if isinstance(x[0], str):
                try:
                    plain = _plain("".join(x))
                except TypeError:  # an item that is not a str
                    plain = False
                if plain:
                    return '["' + '", "'.join(x) + '"]'
            elif set(map(type, x)) == {int}:  # bool is not type int
                return repr(x if type(x) is list else list(x))
            return "[" + ", ".join([encode(v) for v in x]) + "]"
        if isinstance(x, str):
            return string(x)
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        if isinstance(x, int):
            return int.__repr__(x)
        if isinstance(x, float):
            return _json_float(x)
        if type(x) is polyq.IntPoly:  # as json writes x.to_json()
            coeffs = '", "'.join(map(str, x.coeffs))
            return '{"coeffs": ["' + coeffs + '"]}' if coeffs else '{"coeffs": []}'
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    return encode(obj)


def _csv_field(x) -> str:
    """x as a CSV field, quoted when it holds a comma or a quote (RFC 4180)."""
    s = str(x)
    return '"' + s.replace('"', '""') + '"' if "," in s or '"' in s else s


def _emit(fmt: str, payload, csv_rows, pretty_lines):
    """Print the one form that fmt names.  Each form is a function of no
    arguments, called only for the format printed, so a verb builds no form
    it does not print."""
    if fmt == "json":
        print(_json_text(payload()))
    elif fmt == "csv":
        for row in csv_rows():
            print(",".join(map(_csv_field, row)))
    else:
        for line in pretty_lines():
            print(line)


def _group(args: Args) -> weyl.WeylGroupData:
    if args.family is None or args.rank is None:
        raise UsageError("--type and --rank are required")
    try:
        return weyl.build(weyl.WeylType(args.family, args.rank))
    except ValueError as exc:
        raise UsageError(str(exc))


def _table(args: Args) -> springer.SpringerTable:
    """Resolve the orbit table; for type A the rank names GL(n).

    A table file in the data directory takes precedence over built-ins, and
    must be the table of the requested type and rank.
    """
    if args.family is None or args.rank is None:
        raise UsageError("--type and --rank are required")
    if args.family not in ("A", "C"):
        raise UsageError(f"orbit tables exist for types A and C, not {args.family!r}")
    if args.data_dir:
        if not os.path.isdir(args.data_dir):
            raise UsageError(
                f"data directory {args.data_dir!r} (--data-dir or ${DATA_DIR_ENV}) "
                "is not a directory"
            )
        cand = os.path.join(
            args.data_dir, f"springer_{args.family}{args.rank}.json"
        )
        if os.path.exists(cand):
            table = springer.load_table(cand)
            if (table.ambient, table.n) != (args.family, args.rank):
                raise springer.TableFormatError(
                    f"{cand} holds the type {table.ambient} rank {table.n} table, "
                    f"not type {args.family} rank {args.rank}"
                )
            return table
    try:
        return (springer.table_typeA if args.family == "A" else springer.table_typeC)(args.rank)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# verbs


def cmd_wg(args):
    g = _group(args)
    if args.what == "classes":
        _emit(
            args.format,
            lambda: [{"label": _label_str(c.label), "size": c.size} for c in g.classes],
            lambda: [["label", "size"]] + [[_label_str(c.label), c.size] for c in g.classes],
            lambda: [f"{_label_str(c.label)}  size {c.size}" for c in g.classes],
        )
        return 0
    # chartable: parse_args admits no other WHAT
    def payload():
        return {
            "irreps": [_label_str(l) for l in g.irrep_labels],
            "classes": [_label_str(c.label) for c in g.classes],
            "sizes": [c.size for c in g.classes],
            "table": [list(row) for row in g.char_table],
        }

    def rows():
        return [[""] + [_label_str(c.label) for c in g.classes]] + [
            [_label_str(lab)] + list(row) for lab, row in zip(g.irrep_labels, g.char_table)
        ]

    _emit(args.format, payload, rows, lambda: [",".join(map(str, r)) for r in rows()])
    return 0


def cmd_pairing(args):
    g = _group(args)
    if args.form == "qell":
        # mirrored and equal entries, most of them 0, share one string
        text = {}
        known, add = text.get, text.setdefault
        gram = [[known(e) or add(e, str(e)) for e in row] for row in charring.q_elliptic_gram(g)]
    else:
        # minusone or delta: the twisted Gram is the (-1)-elliptic one by the
        # substitution u = w w0 (see charring.delta_twist_pairing)
        gram = charring.minus_one_gram(g)

    def payload():
        return {
            "irreps": [_label_str(l) for l in g.irrep_labels],
            "form": args.form,
            "gram": gram,
        }

    def rows():
        return [[_label_str(l)] + list(map(str, row)) for l, row in zip(g.irrep_labels, gram)]

    _emit(args.format, payload, rows, lambda: [",".join(map(str, r)) for r in rows()])
    return 0


def cmd_fakedeg(args):
    g = _group(args)

    def payload():
        return [
            {"irrep": _label_str(l), "fake_degree": charring.fake_degree(g, i)}
            for i, l in enumerate(g.irrep_labels)
        ]

    def rows():
        return [[_label_str(l), str(charring.fake_degree(g, i))] for i, l in enumerate(g.irrep_labels)]

    _emit(args.format, payload, rows, lambda: [f"{a}: {b}" for a, b in rows()])
    return 0


def cmd_springer(args):
    if args.what == "show":
        table = _table(args)

        def lines():
            out = []
            for rec in table.orbits:
                systems = ", ".join(
                    f"{s.label} -> {_label_str(table.group.irrep_labels[s.irrep])}"
                    for s in rec.systems
                )
                out.append(
                    f"orbit {rec.label.partition} d_e={rec.d_e} "
                    f"A(e)={rec.comp.kind}(k={rec.comp.k}): {systems}"
                )
            return out

        _emit(args.format, lambda: springer.save_table(table), None, lines)
        return 0
    # load: parse_args admits no other WHAT
    if args.file is None:
        raise UsageError("springer load needs a table FILE")
    table = springer.load_table(args.file)
    payload = {
        "type": table.ambient,
        "rank": table.n,
        "orbits": len(table.orbits),
        "pairs": len(table.pairs),
        "valid": True,
    }
    line = (
        f"loaded type {table.ambient} rank {table.n}: "
        f"{payload['orbits']} orbits, {payload['pairs']} pairs, valid"
    )
    _emit(args.format, lambda: payload, None, lambda: [line])
    return 0


def _tableau_payload(tab: lusztigshoji.GreenTableau):
    """The JSON payload of a solved tableau, its polynomials left as IntPolys
    for `_json_text` to write; each pair and irreducible is named once."""
    pairs = [tab.pair_name(j) for j in range(len(tab.pairs))]
    irreps = [_label_str(l) for l in tab.group.irrep_labels]
    return {
        "pairs": pairs,
        "irreps": irreps,
        "K_columns": [
            {"pair": name, "coords": {irreps[i]: c for i, c in enumerate(col) if c}}
            for name, col in zip(pairs, tab.coords)
        ],
        "M": tab.M,
        "Lambda": tab.Lam,
        "p": tab.p,
        "notes": tab.notes,
    }


def cmd_green(args):
    table = _table(args)
    tab = lusztigshoji.solve(table)
    n = len(tab.pairs)

    def rows():
        K = tab.k_matrix()
        return [[""] + [tab.pair_name(j) for j in range(n)]] + [
            [tab.pair_name(i)] + [str(K[i][j]) for j in range(n)] for i in range(n)
        ]

    def lines():
        out = []
        for j in range(n):
            terms = [
                f"({c})*{_label_str(tab.group.irrep_labels[i])}"
                for i, c in enumerate(tab.coords[j])
                if c
            ]
            out.append(f"X_q[{tab.pair_name(j)}] = " + " + ".join(terms))
        out.append("M(q) diagonal blocks:")
        for orbit, rec in enumerate(table.orbits):
            block = lusztigshoji.m_block(tab, orbit)
            lab = str(rec.label.partition)
            if len(block) == 1:
                out.append(f"  {lab}: {block[0][0]}")
            else:
                out.append(f"  {lab}:")
                for row in block:
                    out.append("    [" + ", ".join(str(e) for e in row) + "]")
        return out

    _emit(args.format, lambda: _tableau_payload(tab), rows, lines)
    return 0


def cmd_verify(args):
    checks = []
    if args.what in ("ls", "all"):
        tab = lusztigshoji.solve(_table(args), check=False)
        for name, ok, detail in lusztigshoji.verify(tab):
            checks.append({"identity": name, "ok": ok, "detail": detail})
    if args.what == "all":
        g = tab.group
        k = charring.chevalley_failure(g)  # the first class where x_1(w) det(1 - qw) != p(q)
        chev_bad = None if k is None else _label_str(g.classes[k].label)
        checks.append({"identity": "chevalley_product", "ok": chev_bad is None, "detail": chev_bad})
        rank, count = charring.minus_one_gram_rank(g), weyl.delta_elliptic_count(g)
        rank_bad = None if rank == count else {"rank": rank, "count": count}
        checks.append({"identity": "elliptic_rank_count", "ok": rank_bad is None, "detail": rank_bad})
        try:
            pin = spin.build_pin(g)
            pair = spin.braid_failure(pin)
            braid_bad = None if pair is None else {"pair": list(pair)}
            sq_bad = None  # label of the first class where tr^2 != a_V det_V(1 + w)
            for k, c in enumerate(g.classes):
                if not pin.spin_square_holds(pin.lift_of_class(k), g.refl_charpoly[k].eval(-1)):
                    sq_bad = _label_str(c.label)
                    break
            checks.append({"identity": "pin_braid_relations", "ok": braid_bad is None, "detail": braid_bad})
            checks.append({"identity": "spin_square_trace", "ok": sq_bad is None, "detail": sq_bad})
        except spin.PinConstructionError as exc:
            checks.append({"identity": "pin_construction", "ok": False, "detail": str(exc)})
    failures = [c for c in checks if not c["ok"]]

    def lines():
        for c in checks:
            status = "pass" if c["ok"] else "FAIL"
            extra = "" if c["ok"] or c["detail"] is None else f"  {c['detail']}"
            yield f"{status}  {c['identity']}{extra}"

    _emit(args.format, lambda: {"checks": checks, "ok": not failures}, None, lines)
    return 2 if failures else 0


def _parse_orbit(text) -> tuple:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except Exception:
        raise UsageError(f"bad orbit {text!r}; expected comma-separated parts")
    return parts


def _parse_pair(table: springer.SpringerTable, text, phi) -> tuple:
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
    if args.what == "classify" and table.ambient != "A":
        raise UsageError("classification applies to type A tables")
    if args.what in ("sigma", "index"):
        lam = _parse_pair(table, args.orbit, args.phi)
    tab = lusztigshoji.solve(table)
    pin = spin.build_pin(tab.group)
    if args.what == "sigma":
        st = spin.sigma_tilde(tab, pin, lam, args.phi)
        values = list(zip(tab.group.classes, st.values))
        _emit(
            args.format,
            lambda: {
                "orbit": list(lam),
                "system": args.phi,
                "exact_norm": st.exact_norm,
                "values": [{"class": _label_str(c.label), "value": _cplx(v)} for c, v in values],
            },
            None,
            lambda: [f"exact norm: {st.exact_norm}"]
            + [f"{_label_str(c.label)}: {_cplx(v)}" for c, v in values],
        )
        return 0
    if args.what == "classify":
        out = []
        for rec in table.orbits:
            if not partitions.is_distinct(rec.label.partition):
                continue
            rep = spin.classify_constituents(tab, pin, rec.label.partition)
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
        _emit(
            args.format,
            lambda: out,
            None,
            lambda: [
                f"{d['orbit']}: {'single' if d['constituents'] == 1 else 'dual pair'}"
                f", a={d['a_lambda']}, dim {d['dim_each']}, norm {d['exact_norm']}"
                for d in out
            ],
        )
        return 0
    # index: parse_args admits no other WHAT
    di = spin.dirac_index_char(tab, pin, lam, args.phi)
    _emit(
        args.format,
        lambda: {
            "orbit": list(lam),
            "system": args.phi,
            "even_nonzero": di.even_nonzero,
            "coset_nonzero": di.coset_nonzero,
            "even_values": [_cplx(v) for v in di.even_values],
            "coset_values": [_cplx(v) for v in di.coset_values],
            "note": di.note,
        },
        None,
        lambda: [
            f"even part nonzero: {di.even_nonzero}",
            f"coset part nonzero: {di.coset_nonzero}",
            di.note,
        ],
    )
    return 0


def _cplx(v) -> str:
    re = round(float(v.real), 10) + 0.0
    im = round(float(v.imag), 10) + 0.0
    if im == 0:
        return f"{re:g}"
    return f"{re:g}{im:+g}i"


# ---------------------------------------------------------------------------


# Table one: each verb, its handler, the WHAT values it takes (none for
# fakedeg and green), and the layer it runs on, whose imports bring in every
# other layer the verb reaches.
VERBS = {
    "wg": (cmd_wg, ("classes", "chartable"), weyl),
    "pairing": (cmd_pairing, ("gram",), charring),
    "fakedeg": (cmd_fakedeg, (), charring),
    "springer": (cmd_springer, ("show", "load"), springer),
    "green": (cmd_green, (), lusztigshoji),
    "verify": (cmd_verify, ("ls", "all"), spin),
    "spin": (cmd_spin, ("sigma", "classify", "index"), spin),
}

# Table two: each option, its field, its choices (a tuple) or value type
# (None for a flag), its default, and the verbs that take it (None: every
# verb).  No other option shares a prefix with the flag --json, so whether a
# token takes a value is known before the verb is.
OPTIONS = {
    "--type": ("family", ("A", "B", "C", "D", "G2"), None, None),
    "--rank": ("rank", int, None, None),
    "--format": ("format", ("json", "csv", "pretty"), "pretty", None),
    "--json": ("json", None, False, None),
    "--data-dir": ("data_dir", str, None, None),
    "--tolerance": ("tolerance", float, 1e-8, None),
    "--form": ("form", ("qell", "minusone", "delta"), "qell", ("pairing",)),
    "--orbit": ("orbit", str, None, ("spin",)),
    "--phi": ("phi", str, "triv", ("spin",)),
}

class Args:
    """The parsed command line: verb, what, file, func, and one field per
    option; an option the verb does not take reads None."""

    def __init__(self, verb: str):
        self.verb = verb
        self.func = VERBS[verb][0]
        self.what = self.file = None
        for field, _, default, verbs in OPTIONS.values():
            setattr(self, field, default if verbs is None or verb in verbs else None)


def _choices(values) -> str:
    return ", ".join(map(repr, values))


def _is_option(tok: str) -> bool:
    # "-" and the negative numbers argparse reads as values (-3, -.5, -2.5)
    # are values, as in --rank -3
    digits = tok[1:].replace(".", "", 1)
    return tok[:1] == "-" and tok != "-" and not (digits.isdecimal() and tok[-1] != ".")


def _takes_value(name: str) -> bool:
    flags = [opt for opt, spec in OPTIONS.items() if spec[1] is None]
    return not any(len(name) > 2 and opt.startswith(name) for opt in flags)


def _resolve(name: str, verb: str) -> str:
    """The option that name, or a unique prefix name, stands for under verb."""
    taken = [opt for opt, spec in OPTIONS.items() if spec[3] is None or verb in spec[3]]
    if name in taken:
        return name
    found = [opt for opt in taken if len(name) > 2 and opt.startswith(name)]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {name} could match {', '.join(found)}")
    if not found:
        raise UsageError(f"unrecognized arguments: {name}")
    return found[0]


def parse_args(argv) -> Args | None:
    """The Args of argv, or None when argv asks for help (-h or --help).

    Raises UsageError on any malformed argv, worded as argparse words it.
    """
    words, given = [], []  # positionals; (option as written, value or None)
    i = 0
    while i < len(argv):
        tok = argv[i]
        i += 1
        if not _is_option(tok):
            words.append(tok)
            continue
        name, eq, value = tok.partition("=")
        if tok == "-h" or len(name) > 2 and "--help".startswith(name):
            return None
        if not eq:
            value = None
            if _takes_value(name) and i < len(argv) and not _is_option(argv[i]):
                value = argv[i]
                i += 1
        given.append((name, value))

    if not words:
        raise UsageError("the following arguments are required: verb")
    verb = words.pop(0)
    if verb not in VERBS:
        raise UsageError(f"argument verb: invalid choice: {verb!r} (choose from {_choices(VERBS)})")
    args = Args(verb)
    for name, value in given:
        opt = _resolve(name, verb)
        field, kind = OPTIONS[opt][:2]
        if kind is None:
            if value is not None:
                raise UsageError(f"argument {opt}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            raise UsageError(f"argument {opt}: expected one argument")
        elif isinstance(kind, tuple):
            if value not in kind:
                raise UsageError(
                    f"argument {opt}: invalid choice: {value!r} (choose from {_choices(kind)})"
                )
        else:
            try:
                value = kind(value)
            except ValueError:
                raise UsageError(f"argument {opt}: invalid {kind.__name__} value: {value!r}")
        setattr(args, field, value)

    whats = VERBS[verb][1]
    if whats:
        if not words:
            raise UsageError("the following arguments are required: what")
        args.what = words.pop(0)
        if args.what not in whats:
            raise UsageError(
                f"argument what: invalid choice: {args.what!r} (choose from {_choices(whats)})"
            )
    if verb == "springer" and args.what == "load" and words:
        args.file = words.pop(0)
    if words:
        raise UsageError("unrecognized arguments: " + " ".join(words))
    return args


def main(argv=None) -> int:
    """Run one command line and return its exit status.

    With argv None, main is the process entry point (the console script,
    python -m greenpoly.cli) and reads sys.argv[1:].  Once the command line
    is parsed, it runs the verb's layer and then calls gc.freeze(), also when
    the command line is rejected.  That moves every object built so far,
    the layers' modules above all, into the permanent generation: no
    collection during the run, nor the full one the interpreter makes at
    exit, walks them again.  That is safe because the process ends right
    after main returns: it still exits the normal way (streams flushed,
    atexit handlers run), the OS reclaims the frozen objects, and no object
    here needs a finalizer to release a resource (files are closed by with
    blocks).  A call with argv, from a library or a test, leaves the GC state
    as it was and runs each layer on first use.  JSON output is written by
    `_json_text`, so a verb imports json only if it reads a table file.
    """
    entry = argv is None
    try:
        try:
            args = parse_args(sys.argv[1:] if entry else argv)
            if args is not None:
                if args.json:
                    args.format = "json"
                if not (0 < args.tolerance <= 1e-4):
                    raise UsageError("--tolerance must lie in (0, 1e-4]")
                if args.format == "csv" and args.verb in NO_CSV:
                    raise UsageError("no CSV form for this command")
                args.data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
                if entry:
                    # run the verb's layer (a module that _layer registered
                    # runs on its first attribute read) now, so that the
                    # freeze covers what it builds
                    VERBS[args.verb][2].__name__
        finally:
            if entry:
                gc.freeze()
        if args is None:
            print(__doc__ or "", end="")
            code = 0
        else:
            code = args.func(args)
        sys.stdout.flush()  # here, so a reader that closed stdout is caught below
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (greenpoly ... | head): send what is
        # still buffered to devnull, so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (springer.TableFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except lusztigshoji.SolverError as exc:
        print(_json_text({"ok": False, "violated": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
