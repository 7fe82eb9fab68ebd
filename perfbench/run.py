"""Benchmark of kzresidue: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve_cold --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  Workloads (see `workloads.py` and BENCHMARK.json):

  verify_battery  solve, check battery, twist, duality and
                  straightening on small points, a fresh interpreter
                  per point
  cli_requests    40 sequential kzresidue CLI processes a pass, each run
                  as `python -m kzresidue.cli` does (`cli_child.py`)
  solve_cold      fundamental matrices on the ROADMAP grid and the
                  reflection families, a fresh interpreter per N; not in
                  BENCHMARK.json: its 45-50 s runs would take the ten
                  repeated runs of every workload, twice over, past an
                  hour on a shared 2-CPU machine

A pass runs the workload's fixed request list once, in the seed's order,
one request at a time (a closed loop with one client).  A run makes
max(1, seconds // PASS_COST_S) passes: the count follows from `--seconds`
alone, never from measured speed, so runs of two versions take the same
statistics.  Every output is digested and compared with the seed's
reference in `reference.json`; a request fails when it raises, runs over
its timeout, exits with an unexpected code, prints a traceback, digests
differently or reports a failing check.

With `--trace 0` the result carries the end-to-end metrics.  A request's
time is its best over the run's passes (with more than one pass).
  cpu_norm_s   sum over the requests of their CPU seconds (user + system)
               of the worker during the call, or of the whole CLI process,
               each scaled to the reference speed of `speed.py`
  setup_s      median over the run's interpreters of the CPU seconds of
               importing kzresidue and building the inputs, scaled alike
  peak_rss_mb  median over passes of the peak resident memory of the
               largest worker or CLI process of the pass
Times are CPU seconds because on a virtual machine whose host shares its
CPUs, wall time also counts the time the host ran other machines
("steal", the 8th column of /proc/stat), which a process's CPU time
leaves out: in three back-to-back passes of 100 CLI requests on a 2-CPU
virtual machine, wall time read 42.2, 36.5 and 35.0 s, CPU time 39.6,
37.1 and 36.9 s, and steal 10.2, 4.1 and 2.1 s.  They are scaled because
the CPU time of the same work still swung by up to 1.7x within minutes
there (see `speed.py`).  A parallel speed-up does not show in
cpu_norm_s.  The unscaled sum `cpu_s`, the sum of request wall times
`wall_s`, and the median and 90th-percentile wall time over every
request of every pass are printed with their sample count, but are not
in the result.
With `--trace 1` the untraced passes are followed by one traced pass, and
the result carries the per-layer metrics (self times, counters, cache hit
ratio, tracing overhead).  All per-layer metrics are printed as a table;
the JSON line holds those measured on every workload.

The last line of standard output is the JSON result.  Work files go to
`.perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

END_TO_END = {"cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Layer metrics that both workloads of BENCHMARK.json exercise; the rest
# (check_dual, straightening and the cli layer) are printed only, since a
# layer time that is zero on a workload is not a measurement there.
PER_LAYER = {
    "residues.self_s": "s", "residues.steps": "count", "residues.peak_terms": "count",
    "residues.out_terms": "count",
    "exactalg.normalize_s": "s", "exactalg.normalize.total_s": "s",
    "exactalg.normalize.in_terms": "count", "exactalg.normalize.out_terms": "count",
    "exactalg.add_s": "s", "exactalg.add.terms_touched": "count",
    "exactalg.mul_s": "s", "exactalg.mul.calls": "count", "exactalg.mul.term_pairs": "count",
    "exactalg.divide_s": "s", "exactalg.divide.calls": "count",
    "solve.forms_s": "s", "solve.integrand_terms": "count",
    "solve.coordinates_s": "s", "solve.coordinates.calls": "count",
    "solve.reflection_s": "s", "solve.guard_s": "s", "solve.self_s": "s",
    "solve.cycle_integral.calls": "count", "solve.cycle_integral.hit_ratio": "ratio",
    "exactalg.det_s": "s", "solve.dual_matrix_s": "s",
    **{f"verify.check_{c}_s": "s" for c in (
        "kz", "primitive", "shape", "rank", "equivariance", "frobenius", "det",
        "reflection")},
    "verify.self_s": "s", "shapes.self_s": "s", "trace.overhead_ratio": "ratio",
}

# Seconds of --seconds that buy one pass; a pass takes 6-10 s
# (solve_cold), 12-15 s (verify_battery) and 13-16 s (cli_requests) on a
# shared 2-CPU machine at the seed.  The machine's speed swings by up to
# 1.7x for seconds at a time, so a request's best of three passes is far
# steadier than one sample.
PASS_COST_S = {"solve_cold": 20.0, "verify_battery": 15.0, "cli_requests": 15.0}
CLI_SETUP_EVERY = 10  # a setup-only interpreter before every tenth CLI request
RUN_BUDGET_S = 165.0  # no pass starts that could end after this


class Child:
    """A finished child process: exit code, wall and CPU time, peak memory,
    output."""

    def __init__(self, argv, timeout, tag):
        out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
        fired = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)

            def kill():
                fired.set()
                proc.kill()

            timer = threading.Timer(max(timeout, 0.01), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.elapsed = perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.timed_out = fired.is_set()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    env.pop("KZRESIDUE_WORKERS", None)
    return env


ENV = child_env()


def worker(workload, seed, tag, timeout, *flags):
    out = WORK / f"{tag}.json"
    out.unlink(missing_ok=True)
    child = Child(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out), *flags],
        timeout, tag,
    )
    result = json.loads(out.read_text()) if child.rc == 0 and out.exists() else None
    return child, result


class Pass:
    """What one pass measured."""

    def __init__(self):
        self.latency = {}  # request id -> wall seconds
        self.cpu = {}  # request id -> CPU seconds
        self.norm = {}  # request id -> CPU seconds at the reference speed
        self.peak_mb = 0.0
        self.summaries = []  # tracer summaries of the traced processes
        self.spans = []

    @property
    def norm_total(self):
        return sum(self.norm.values())


class Run:
    def __init__(self, workload, seed, deadline):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.reference = json.loads((BENCH / "reference.json").read_text())[workload]
        self.attempted = self.failed = 0
        self.errors = []
        self.setup = []

    def remaining(self):
        return self.deadline - perf_counter()

    def judge(self, rid, why):
        self.attempted += 1
        if why:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{rid}: {why}")

    def setup_sample(self):
        """Time one fresh setup.  Library passes take each worker's own;
        CLI passes take one every tenth request."""
        child, result = worker(self.workload, self.seed, "setup", 60, "--setup-only")
        if result is None:
            raise RuntimeError(f"setup failed: {child.stderr.decode()[-2000:]}")
        self.setup.append(result["setup_s"])

    def library_pass(self, trace):
        """One fresh worker per request group; the first tells how many."""
        p = Pass()
        flags = ("--trace",) if trace else ()
        done = {}
        group, groups = 0, 1
        while group < groups and self.remaining() > 1:
            child, result = worker(self.workload, self.seed, "pass", self.remaining(),
                                   "--group", str(group), *flags)
            if result is None:
                self.errors.append(f"worker exit {child.rc}: {child.stderr.decode()[-2000:]}")
                break
            groups = result["groups"]
            group += 1
            self.setup.append(result["setup_s"])
            done.update((r["id"], r) for r in result["requests"])
            p.peak_mb = max(p.peak_mb, result["maxrss_kb"] / 1024)
            if trace:
                p.summaries.append(result["trace"])
                p.spans.append({"process": f"group {group - 1}", "spans": result["spans"]})
        for rid, want in self.reference.items():
            r = done.get(rid)
            if r is None:
                self.judge(rid, "not run")
                continue
            p.latency[rid] = r["latency_s"]
            p.cpu[rid] = r["cpu_s"]
            p.norm[rid] = r["cpu_norm_s"]
            self.judge(rid, r["error"] or ("check failed" if not r["passed"] else
                                           "digest differs" if r["sha"] != want else ""))
        return p

    def cli_pass(self, trace):
        p = Pass()
        out = WORK / "cli-trace.json"
        speed_file = WORK / "cli-speed.txt"
        for k, (rid, args, expect) in enumerate(workloads.cli_requests(self.seed)):
            if k % CLI_SETUP_EVERY == 0:
                self.setup_sample()
            if self.remaining() < 1:
                self.judge(rid, "run budget spent")
                continue
            speed_file.unlink(missing_ok=True)
            if trace:
                out.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH / "traced_cli.py"), str(speed_file),
                        str(out), *args]
            else:
                argv = [sys.executable, str(BENCH / "cli_child.py"), str(speed_file), *args]
            child = Child(argv, min(workloads.CLI_TIMEOUT_S, self.remaining()), "cli")
            p.latency[rid] = child.elapsed
            p.cpu[rid] = child.cpu
            p.peak_mb = max(p.peak_mb, child.maxrss_mb)
            why = self.cli_failure(rid, args, expect, child)
            try:
                before, after = map(float, speed_file.read_text().split())
            except (OSError, ValueError):
                why = why or "no speed sample"
            else:
                p.cpu[rid] -= before + after
                p.norm[rid] = speed.scaled(p.cpu[rid], before, after)
            self.judge(rid, why)
            if trace and out.exists():
                traced = json.loads(out.read_text())
                p.summaries.append(traced["trace"])
                p.spans.append({"process": rid, "spans": traced["spans"]})
        return p

    def cli_failure(self, rid, args, expect, child):
        """Why a CLI request failed, or the empty string."""
        if child.timed_out:
            return "timeout"
        if child.rc != expect:
            return f"exit {child.rc}, expected {expect}"
        if b"Traceback" in child.stderr:
            return "traceback"
        try:
            view = workloads.cli_view(args, child.stdout) if expect == 0 else child.stdout.decode()
        except ValueError as exc:
            return f"unreadable output: {exc}"
        if not workloads.verdicts_pass(view):
            return "check failed"
        if workloads.sha(view) != self.reference.get(rid):
            return "digest differs"
        return ""

    def one_pass(self, trace=False):
        if self.workload == workloads.CLI_WORKLOAD:
            return self.cli_pass(trace)
        return self.library_pass(trace)


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the order statistics
    averaged with Beta(q(n+1), (1-q)(n+1)) weights, which jumps less than
    one order statistic when requests of different sizes swap ranks."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    grid = 200  # midpoint-rule steps per order statistic
    weights = []
    for k in range(n):
        w = 0.0
        for i in range(grid):
            x = (k + (i + 0.5) / grid) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def best(passes, field) -> list:
    """Each request's least time over the passes."""
    least = defaultdict(lambda: float("inf"))
    for p in passes:
        for rid, seconds in getattr(p, field).items():
            least[rid] = min(least[rid], seconds)
    return list(least.values())


def end_to_end(run, passes) -> dict:
    walls = [seconds for p in passes for seconds in p.latency.values()]
    return {
        "cpu_norm_s": sum(best(passes, "norm")),
        "cpu_s": sum(best(passes, "cpu")),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": statistics.median(p.peak_mb for p in passes),
        "wall_s": sum(best(passes, "latency")),
        "req_p50_s": quantile(walls, 0.5),
        "req_p90_s": quantile(walls, 0.9),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kzresidue" / "__init__.py").is_file():
        print(f"no kzresidue package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    start_all = perf_counter()
    run = Run(args.workload, args.seed, start_all + RUN_BUDGET_S)
    count = max(1, int(args.seconds // PASS_COST_S[args.workload]))
    run.setup_sample()
    run.setup.clear()  # the first start may compile the package's bytecode
    passes = []
    longest = 0.0
    # on a machine more than twice as slow as usual, give up passes, not time
    while (len(passes) < count and run.remaining() > 2 * longest
           and perf_counter() - start_all + longest < 2 * args.seconds):
        start = perf_counter()
        passes.append(run.one_pass())
        longest = max(longest, perf_counter() - start)
    e2e = end_to_end(run, passes)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of "
          f"{len(run.reference)} requests, {len(run.setup)} setup samples")
    for name, value in e2e.items():
        print(f"  {name:<40} {value:>14.6f} {END_TO_END.get(name, 's')}")
    (WORK / f"run-{args.workload}-seed{args.seed}.json").write_text(json.dumps(e2e))

    if args.trace:
        traced = run.one_pass(trace=True)
        layers = tracing.merge(traced.summaries)
        layers["trace.overhead_ratio"] = (
            traced.norm_total / statistics.median(p.norm_total for p in passes))
        missing = sorted({m for s in traced.summaries for m in s["missing"]})
        if missing:
            print(f"  traced names not found: {', '.join(missing)}")
        print("  per-layer, traced pass (_s: self time):")
        for name, value in layers.items():
            print(f"  {name:<40} {value:>14.6f}" if isinstance(value, float)
                  else f"  {name:<40} {value:>14d}")
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"per_layer": layers, "spans": traced.spans}))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"  fail_ratio {run.failed}/{run.attempted}")
    for line in run.errors:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
