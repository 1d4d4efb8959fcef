"""Run one greenpoly CLI command in this interpreter with tracing on.

    python3 bench/tracer.py TRACE_FILE -- CLI_ARGS...

Spans (name, start, end, parent) are recorded around the calls into each
layer's public functions, from outside the program: the functions are rebound
in every greenpoly module that holds them, since `cli` imports several by
name.  cProfile runs at the same time; it supplies the call counts of the
polyq operators and each module's self time.  Everything stays in memory and
is written to TRACE_FILE as JSON when the command returns.  The command's
stdout and exit code are passed through unchanged.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from time import perf_counter

LAYERS = ("polyq", "partitions", "weyl", "charring", "springer", "lusztigshoji", "spin", "cli")

# span name -> (module, public functions it covers)
SPANS = {
    "weyl.build": ("weyl", ("build",)),
    "weyl.twisted_classes": ("weyl", ("delta_twisted_classes", "delta_elliptic_count")),
    "charring.qell_pairing": ("charring", ("q_elliptic_pairing",)),
    "charring.int_gram": ("charring", ("minus_one_gram", "minus_one_pairing", "delta_twist_pairing")),
    "charring.fake_degree": ("charring", ("fake_degree",)),
    "springer.table": ("springer", ("table_typeA", "table_typeC", "load_table", "validate_table")),
    "lusztigshoji.solve": ("lusztigshoji", ("solve",)),
    "lusztigshoji.verify": ("lusztigshoji", ("verify",)),
    "spin.pin": ("spin", ("build_pin", "braid_check", "classify_constituents", "sigma_tilde", "dirac_index_char")),
}

# count name -> (module, dotted function name)
COUNTS = {
    "charring.qell_pairing_calls": ("charring", "q_elliptic_pairing"),
    "polyq.intpoly_mul_calls": ("polyq", "IntPoly.__mul__"),
    "polyq.intpoly_new_calls": ("polyq", "IntPoly.__init__"),
    "polyq.intpoly_bool_calls": ("polyq", "IntPoly.__bool__"),
    "polyq.ratfun_new_calls": ("polyq", "RatFun.__init__"),
}


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced


def install_spans(recorder, modules):
    """Replace each covered function wherever a greenpoly module binds it."""
    for name, (mod, funcs) in SPANS.items():
        for func in funcs:
            original = getattr(modules[mod], func)
            wrapped = recorder.wrap(name, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def _label(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_self_times(stats, files):
    """Self time of each layer: the time cProfile gives its own functions,
    plus the share of time in code outside greenpoly (stdlib, numpy,
    builtins) that it called, split among callers by their inclusive time."""
    owners = {}

    def owner(func, visiting):
        if func in owners:
            return owners[func]
        layer = files.get(func[0])
        if layer is not None:
            owners[func] = {layer: 1.0}
            return owners[func]
        if func in visiting or func not in stats:
            return {}
        visiting.add(func)
        callers = stats[func][4]
        total = sum(edge[3] for edge in callers.values())
        mix = {}
        for caller, edge in callers.items():
            weight = edge[3] / total if total else 1.0 / len(callers)
            for lay, share in owner(caller, visiting).items():
                mix[lay] = mix.get(lay, 0.0) + weight * share
        visiting.discard(func)
        owners[func] = mix
        return mix

    out = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, tottime, _, _) in stats.items():
        for lay, share in owner(func, set()).items():
            out[lay] += tottime * share
    return out


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: tracer.py TRACE_FILE -- CLI_ARGS...")
    trace_file, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    prof = cProfile.Profile()
    prof.enable()
    start = perf_counter()
    import greenpoly.cli as cli

    recorder.spans.append(["cli.import", start, perf_counter(), -1])
    modules = {m: sys.modules[f"greenpoly.{m}"] for m in LAYERS}
    counted = {}
    for name, (mod, dotted) in COUNTS.items():
        obj = modules[mod]
        for part in dotted.split("."):
            obj = getattr(obj, part)
        counted[name] = _label(obj)
    install_spans(recorder, modules)
    try:
        rc = cli.main(cli_args)
    finally:
        prof.disable()
    sys.stdout.flush()

    stats = pstats.Stats(prof).stats
    files = {modules[m].__file__: m for m in LAYERS}
    counts = {name: stats[label][1] if label in stats else 0 for name, label in counted.items()}
    with open(trace_file, "w") as fh:
        json.dump(
            {
                "spans": recorder.spans,
                "self_s": layer_self_times(stats, files),
                "counts": counts,
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
