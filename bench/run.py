#!/usr/bin/env python3
"""greenpoly benchmark.

Runs the CLI the way its users do: each job is one CLI command in a fresh
interpreter, interpreter start included, one job at a time.  Every job's
output is checked (see checks.py).  The inputs are fixed lists of commands at
the largest supported sizes; there are no random inputs, so --seed is only
recorded.

    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --workload qell-gram --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload green-solve --trace 1

With --trace 0 the run repeats whole rounds while the next one can end within
--seconds; it makes at least one.  A round times a few imports of
greenpoly.cli (setup_s), makes one pass over the workload's jobs, and then
reruns the largest job a fixed number of times.  The times are scaled to a
reference speed of the host (see HostClock), and the end-to-end metrics are
medians over the run.  With --trace 1 it makes one untraced pass and one
traced pass (bench/tracer.py) and reports the per-layer metrics of the traced
pass, plus the tracing overhead.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full record of the run is written to
bench/out/<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks as ck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES_PER_PASS = 8
# a run must end within 180 s; no pass starts unless it can end before this
RUN_BUDGET_S = 165.0
# the CPUs this process may use before main pins it to one of them
NPROC = len(os.sched_getaffinity(0))
CLI = "import sys; from greenpoly.cli import main; sys.exit(main())"
IMPORT_ONLY = "import greenpoly.cli"


@dataclass
class Job:
    id: str
    args: list
    check: Callable


@dataclass
class Workload:
    name: str
    jobs: list
    largest: str
    # extra runs of the largest job after each pass, so that a short largest
    # job still gets a few seconds of samples in every run
    largest_repeats: int

    @property
    def largest_job(self):
        return next(j for j in self.jobs if j.id == self.largest)


def _qell_gram():
    jobs = []
    for fam, rank in (("B", 6), ("D", 6), ("A", 8)):
        tag = f"{fam}{rank}"
        grp = ["--type", fam, "--rank", str(rank)]
        jobs.append(Job(f"gram-qell-{tag}", ["pairing", "gram", *grp, "--form", "qell", "--json"],
                        ck.check_qell_gram(fam, rank, f"gram-qell-{tag}", f"fakedeg-{tag}")))
    for fam, rank in (("B", 6), ("D", 6), ("A", 8)):
        tag = f"{fam}{rank}"
        jobs.append(Job(f"fakedeg-{tag}", ["fakedeg", "--type", fam, "--rank", str(rank), "--json"],
                        ck.check_fakedeg(fam, rank, f"fakedeg-{tag}")))
    return Workload("qell-gram", jobs, "gram-qell-B6", 1)


def _green_solve():
    jobs = []
    for amb, n in (("A", 4), ("A", 6), ("A", 7), ("A", 8), ("C", 2), ("C", 3)):
        jid = f"green-{amb}{n}"
        jobs.append(Job(jid, ["green", "--type", amb, "--rank", str(n), "--json"], ck.check_green(amb, n, jid)))
    for amb, n in (("A", 8), ("C", 3)):
        jid = f"verify-ls-{amb}{n}"
        jobs.append(Job(jid, ["verify", "ls", "--type", amb, "--rank", str(n), "--json"], ck.check_verify(jid)))
    jobs += [
        Job("spin-classify-A8", ["spin", "classify", "--type", "A", "--rank", "8"],
            ck.check_spin_classify(8, "spin-classify-A8")),
        Job("spin-sigma-A7", ["spin", "sigma", "--type", "A", "--rank", "7", "--orbit", "4,2,1"],
            ck.check_spin_sigma(7, "spin-sigma-A7")),
        Job("spin-index-C3", ["spin", "index", "--type", "C", "--rank", "3", "--orbit", "4,2", "--phi", "sgn"],
            ck.check_spin_index("spin-index-C3")),
        Job("springer-load-C3", ["springer", "load", "src/greenpoly/data/springer_C3.json"],
            ck.check_springer_load(3, "springer-load-C3")),
    ]
    return Workload("green-solve", jobs, "green-A8", 4)


def _group_tables():
    jobs = []
    for fam, rank in (("B", 6), ("C", 6), ("D", 6), ("G2", 2)):
        tag = f"{fam}{rank}" if fam != "G2" else "G2"
        grp = ["--type", fam, "--rank", str(rank), "--json"]
        jobs += [
            Job(f"classes-{tag}", ["wg", "classes", *grp], ck.check_wg_classes(fam, rank, f"classes-{tag}")),
            Job(f"chartable-{tag}", ["wg", "chartable", *grp], ck.check_chartable(fam, rank, f"chartable-{tag}")),
        ]
        for form in ("minusone", "delta"):
            jid = f"gram-{form}-{tag}"
            jobs.append(Job(jid, ["pairing", "gram", *grp, "--form", form],
                            ck.check_int_gram(fam, rank, form, jid, f"chartable-{tag}")))
    for amb, n in (("A", 8), ("C", 3)):
        jid = f"verify-all-{amb}{n}"
        jobs.append(Job(jid, ["verify", "all", "--type", amb, "--rank", str(n), "--json"], ck.check_verify(jid)))
    return Workload("group-tables", jobs, "verify-all-A8", 4)


WORKLOADS = {w.name: w for w in (_qell_gram(), _green_solve(), _group_tables())}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "largest_job_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# children


def child_env():
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        # one job at a time on a small machine: keep numpy's BLAS single-threaded
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    return env


# The host is a few cores of a shared machine, and the speed of a core swings
# by half within seconds as its neighbours come and go.  So each child is
# timed against a reference: a fixed pure-Python loop (reference_loop) runs in
# this process before and after every child, and every SLICE_S while a child
# runs, with the child stopped (SIGSTOP) so that the two never run at once.
# This process and its children are pinned to one CPU (main), so the loop
# measures the core the child runs on.  A stretch of child time is scaled by
# REF_LOOP_S over the mean of the two loop times around it.  The scaled times
# ("ref" times) are seconds on a core where the loop takes REF_LOOP_S, about a
# core of this host when nothing else shares it; the stopped time is left out
# of both the raw and the scaled times.
SLICE_S = 0.5
REF_LOOP_REPS = 110
REF_LOOP_S = 0.025


def reference_loop():
    """Seconds taken by a fixed amount of small-int list arithmetic, the kind
    of work IntPoly products do."""
    a = list(range(1, 48))
    start = perf_counter()
    acc = 0
    for rep in range(REF_LOOP_REPS):
        c = [0] * (2 * len(a))
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                c[i + j] += x * y + rep
        acc ^= sum(c) & 0xFFFF
    return perf_counter() - start


class HostClock:
    """The last reference-loop time, so that the loop run after one child
    also serves as the loop run before the next."""

    def __init__(self):
        self.last = reference_loop()

    def sample(self):
        self.last = reference_loop()
        return self.last


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    ref_wall_s: float
    ref_cpu_s: float


def run_child(argv, timeout, clock=None):
    """Run one command; wall time from spawn to exit, CPU and max RSS from
    the child's own rusage (os.wait4).  With a HostClock the child is stopped
    every SLICE_S to sample the host's speed, and the ref times are filled in;
    without one (the traced pass, which times itself from inside) they equal
    the raw times."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    pidfd = os.pidfd_open(proc.pid)
    streams = {}
    readers = [threading.Thread(target=lambda n=n: streams.__setitem__(n, getattr(proc, n).read()))
               for n in ("stdout", "stderr")]
    for r in readers:
        r.start()
    kill_at = start + max(timeout, 1.0)
    loops = [clock.last] if clock else []
    slices, mark = [], start
    # the child is not reaped before the loop ends, so its pid cannot be
    # reused while it may still be signalled; if this process leaves by an
    # exception (SIGTERM included, see main), the child is killed, stopped or
    # not, and reaped
    try:
        while True:
            left = kill_at - perf_counter()
            if select.select([pidfd], [], [], max(min(SLICE_S, left) if clock else left, 0.0))[0]:
                break
            if perf_counter() >= kill_at:
                os.kill(proc.pid, signal.SIGKILL)
                select.select([pidfd], [], [])
                break
            now = perf_counter()
            os.kill(proc.pid, signal.SIGSTOP)
            info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            if info.si_code != os.CLD_STOPPED:
                break
            os.waitid(os.P_PID, proc.pid, os.WSTOPPED)
            slices.append(now - mark)
            loops.append(clock.sample())
            mark = perf_counter()
            os.kill(proc.pid, signal.SIGCONT)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    slices.append(perf_counter() - mark)
    os.close(pidfd)
    _, status, usage = os.wait4(proc.pid, 0)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    wall = sum(slices)
    cpu = usage.ru_utime + usage.ru_stime
    if clock:
        loops.append(clock.sample())
        ref_wall = sum(t * 2 * REF_LOOP_S / (a + b) for t, a, b in zip(slices, loops, loops[1:]))
    else:
        ref_wall = wall
    return Result(
        os.waitstatus_to_exitcode(status), streams["stdout"].decode(), streams["stderr"].decode(),
        wall, cpu, usage.ru_maxrss / 1024.0, ref_wall, cpu * ref_wall / wall if wall else cpu,
    )


class Deadline:
    def __init__(self, seconds):
        self.end = perf_counter() + seconds

    def left(self):
        return self.end - perf_counter()


def probe(deadline):
    """Import greenpoly.cli once (also fills the bytecode cache) and make
    sure it is the copy under src/ of this checkout."""
    code = "import greenpoly.cli, numpy; print(greenpoly.cli.__file__); print(numpy.__version__)"
    res = run_child([sys.executable, "-c", code], deadline.left())
    lines = res.stdout.split()
    if res.rc != 0 or len(lines) != 2 or Path(lines[0]).resolve() != (SRC / "greenpoly" / "cli.py").resolve():
        raise SystemExit(f"greenpoly.cli does not import from {SRC}: {res.stderr.strip()[-300:]}")
    return lines[1]


def measure_setup(deadline, clock):
    """Ref times of a few imports of greenpoly.cli in fresh interpreters."""
    walls = []
    for _ in range(SETUP_SAMPLES_PER_PASS):
        res = run_child([sys.executable, "-c", IMPORT_ONLY], deadline.left(), clock)
        if res.rc != 0:
            raise SystemExit(f"import greenpoly.cli failed: {res.stderr.strip()[-300:]}")
        walls.append(res.ref_wall_s)
    return walls


# ---------------------------------------------------------------------------
# passes


@dataclass
class JobRecord:
    id: str
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    ref_wall_s: float
    ref_cpu_s: float
    ok: bool = False
    error: str | None = None
    stdout: str = field(default="", repr=False)


def run_jobs(jobs, deadline, clock=None, trace_dir=None):
    records = []
    for job in jobs:
        if trace_dir is None:
            argv = [sys.executable, "-c", CLI, *job.args]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_dir / f"{job.id}.json"), "--", *job.args]
        if deadline.left() <= 0:
            records.append(JobRecord(job.id, -1, 0.0, 0.0, 0.0, 0.0, 0.0, error="not run: the run's time budget is spent"))
            continue
        res = run_child(argv, deadline.left(), clock)
        rec = JobRecord(job.id, res.rc, res.wall_s, res.cpu_s, res.maxrss_mb,
                        res.ref_wall_s, res.ref_cpu_s, stdout=res.stdout)
        if res.rc != 0:
            rec.error = f"exit code {res.rc}: {res.stderr.strip()[-300:]}"
        records.append(rec)
    return records


def check_pass(workload, records):
    """Run the independent checks on a pass's outputs."""
    outputs = {r.id: r.stdout for r in records}
    for job, rec in zip(workload.jobs, records):
        if rec.error:
            continue
        try:
            job.check(outputs)
            rec.ok = True
        except ck.CheckError as exc:
            rec.error = f"check failed: {exc}"
        except Exception as exc:  # a malformed output must fail the job, not the run
            rec.error = f"check failed: {type(exc).__name__}: {exc}"


def compare_pass(reference, records):
    """Later runs of a job must reproduce the checked pass byte for byte."""
    by_id = {r.id: r for r in reference}
    for rec in records:
        ref = by_id[rec.id]
        if rec.error:
            continue
        if not ref.ok:
            rec.error = "output of the checked pass failed its check"
        elif rec.stdout != ref.stdout:
            rec.error = "stdout differs from the checked pass"
        else:
            rec.ok = True


def pass_summary(records):
    return {
        "wall_s": sum(r.wall_s for r in records),
        "cpu_s": sum(r.cpu_s for r in records),
        "ref_wall_s": sum(r.ref_wall_s for r in records),
        "ref_cpu_s": sum(r.ref_cpu_s for r in records),
        "peak_rss_mb": max(r.maxrss_mb for r in records),
    }


# ---------------------------------------------------------------------------
# traced pass: per-layer metrics


SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "weyl.build": "weyl.build_s",
    "weyl.twisted_classes": "weyl.twisted_classes_s",
    "charring.qell_pairing": "charring.qell_pairing_s",
    "charring.int_gram": "charring.int_gram_s",
    "charring.fake_degree": "charring.fake_degree_s",
    "springer.table": "springer.table_s",
    "lusztigshoji.solve": "lusztigshoji.solve_s",
    "lusztigshoji.verify": "lusztigshoji.verify_s",
    "spin.pin": "spin.pin_s",
}
LAYERS = ("cli", "weyl", "partitions", "charring", "springer", "lusztigshoji", "spin", "polyq")
COUNT_METRICS = (
    "charring.qell_pairing_calls",
    "polyq.intpoly_mul_calls",
    "polyq.intpoly_new_calls",
    "polyq.intpoly_bool_calls",
    "polyq.ratfun_new_calls",
)
PER_LAYER_UNITS = {
    **{m: "s" for m in SPAN_METRICS.values()},
    **{f"{lay}.self_s": "s" for lay in LAYERS},
    **{m: "count" for m in COUNT_METRICS},
    "trace.overhead_s": "s",
}


def span_self_times(spans):
    """A span's self time is its duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def layer_metrics(trace_dir, workload):
    totals = dict.fromkeys(PER_LAYER_UNITS, 0)
    for job in workload.jobs:
        with open(trace_dir / f"{job.id}.json") as fh:
            trace = json.load(fh)
        for name, secs in span_self_times(trace["spans"]).items():
            totals[SPAN_METRICS[name]] += secs
        for lay in LAYERS:
            totals[f"{lay}.self_s"] += trace["self_s"][lay]
        for name in COUNT_METRICS:
            totals[name] += trace["counts"][name]
    return totals


# ---------------------------------------------------------------------------
# run record


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "greenpoly").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_workload(workload, seconds, trace, deadline):
    numpy_version = probe(deadline)
    record = {
        "workload": workload.name,
        "trace": trace,
        "seconds": seconds,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": NPROC,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "child_env": child_env(),
        "jobs": [{"id": j.id, "args": j.args} for j in workload.jobs],
        "largest_job": workload.largest,
    }
    passes, extras = [], []
    if not trace:
        # a round is a few import samples, one pass, and the repeats of the
        # largest job; the import samples are spread over the run so that
        # setup_s sees the same machine as the passes.  No round starts that
        # would end past --seconds, judged by the longest round so far.
        clock = HostClock()
        setup = []
        start = perf_counter()
        longest = 0.0
        while True:
            t0 = perf_counter()
            setup += measure_setup(deadline, clock)
            records = run_jobs(workload.jobs, deadline, clock)
            if passes:
                compare_pass(passes[0], records)
            else:
                check_pass(workload, records)
            passes.append(records)
            repeats = run_jobs([workload.largest_job] * workload.largest_repeats, deadline, clock)
            compare_pass(passes[0], repeats)
            extras.append(repeats)
            longest = max(longest, perf_counter() - t0)
            if perf_counter() - start + longest > seconds or deadline.left() < 1.5 * longest:
                break
        record["setup_samples_ref_s"] = setup
        summaries = [pass_summary(p) for p in passes]
        # each job's median over every run of it in this run, summed over the
        # workload's jobs
        samples = {}
        for r in (*sum(passes, []), *sum(extras, [])):
            samples.setdefault(r.id, []).append(r)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(statistics.median(r.ref_wall_s for r in rs) for rs in samples.values()),
            "cpu_s": sum(statistics.median(r.ref_cpu_s for r in rs) for rs in samples.values()),
            "largest_job_s": statistics.median(r.ref_wall_s for r in samples[workload.largest]),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in summaries),
        }
        units = E2E_UNITS
    else:
        trace_dir = OUT / f"trace-{workload.name}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.glob("*.json"):
            stale.unlink()
        plain = run_jobs(workload.jobs, deadline)
        check_pass(workload, plain)
        traced = run_jobs(workload.jobs, deadline, trace_dir=trace_dir)
        compare_pass(plain, traced)
        passes, extras = [plain, traced], [[], []]
        summaries = [pass_summary(p) for p in passes]
        metrics = layer_metrics(trace_dir, workload) if all(r.rc == 0 for r in traced) else dict.fromkeys(PER_LAYER_UNITS, 0)
        metrics["trace.overhead_s"] = summaries[1]["wall_s"] - summaries[0]["wall_s"]
        units = PER_LAYER_UNITS

    jobs = [r for p in (*passes, *extras) for r in p]
    failed = sum(1 for r in jobs if not r.ok)

    def dump(records):
        return [{k: v for k, v in vars(r).items() if k != "stdout"} for r in records]

    record["passes"] = [
        {"summary": s, "jobs": dump(p), "largest_repeats": dump(x)}
        for s, p, x in zip(summaries, passes, extras)
    ]
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["result"] = result
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0, help="recorded only; the inputs are fixed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "greenpoly" / "cli.py").is_file():
        print(f"error: no greenpoly sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # a SIGTERM unwinds like an exception, so run_child can end its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = Deadline(RUN_BUDGET_S)
        record = run_workload(WORKLOADS[name], args.seconds, args.trace, deadline)
        record["seed"] = args.seed
        with open(OUT / f"{name}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        result = record["result"]
        for p in record["passes"]:
            for job in p["jobs"] + p["largest_repeats"]:
                if job["error"]:
                    print(f"{name} {job['id']}: {job['error']}", file=sys.stderr)
        print(f"{name}: {len(record['passes'])} passes, {result['attempted']} jobs, {result['failed']} failed")
        for key, m in result["metrics"].items():
            print(f"  {key:30s} {m['value']:.6g} {m['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
