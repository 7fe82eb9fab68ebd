"""One request group of a library workload in a fresh interpreter.

    python3 perfbench/worker.py --workload solve_cold --seed 1 --group 0 --out PATH [--trace]
    python3 perfbench/worker.py --workload cli_requests --seed 1 --out PATH --setup-only

Times the import of `kzresidue` plus building the workload's inputs
(`setup_s`, CPU seconds), then runs the requests of group `--group` in
order, timing only the API call, in wall and in CPU seconds.  CPU time is
that of this process and of any child it reaps during the call; on a
virtual machine it leaves out the time the host gives the CPU to others.
Setup and each request are also scaled to the reference speed by
calibrations taken just before and after them (`speed.py`).  Outputs are digested after the clock stops, in a
forked child.  With `--trace` the layer tracer is installed before the
first request.  The result, with the spans of a traced pass, is written
to PATH as JSON once the pass ends.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from time import perf_counter, process_time

import speed
import workloads


class RequestTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the package
    can swallow it."""


def _alarm(signum, frame):
    raise RequestTimeout


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--group", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    before = speed.calibrate()
    start = process_time()
    if args.workload == workloads.CLI_WORKLOAD:
        import kzresidue.cli  # noqa: F401  (what every CLI process imports)

        workloads.cli_requests(args.seed)  # the inputs a CLI pass builds
    else:
        import kzresidue as kz

        groups = workloads.library_groups(args.workload, args.seed, kz)
    setup_s = process_time() - start
    out = {"setup_s": speed.scaled(setup_s, before, speed.calibrate())}
    if args.setup_only or args.workload == workloads.CLI_WORKLOAD:
        return _write(args.out, out)
    out["groups"] = len(groups)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
    signal.signal(signal.SIGALRM, _alarm)
    ctx: dict = {}
    results = []
    for req in groups[args.group]:
        entry = {"id": req.id, "sha": None, "passed": False, "error": None}
        before = speed.calibrate()
        signal.setitimer(signal.ITIMER_REAL, workloads.LIBRARY_TIMEOUT_S)
        if tracer:
            tracer.begin_request(req.id)
        c0 = cpu_now()
        t0 = perf_counter()
        try:
            value = req.call(ctx)
        except RequestTimeout:
            entry["error"] = "timeout"
        except Exception as exc:  # a failed request is counted, the pass goes on
            entry["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            entry["latency_s"] = perf_counter() - t0
            entry["cpu_s"] = cpu_now() - c0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.end_request(req.id)
        entry["cpu_norm_s"] = speed.scaled(entry["cpu_s"], before, speed.calibrate())
        if entry["error"] is None:
            entry["sha"], entry["passed"], entry["error"] = _digest(req, value)
            del value
        results.append(entry)
    out["requests"] = results
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans
    return _write(args.out, out)


def cpu_now() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _digest(req, value):
    """(digest, checks passed, error) of a request's output, computed in a
    forked child so that the worker's peak memory and heap stay those of
    the workload alone."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            view = req.view(value)
            answer = [workloads.sha(view), workloads.verdicts_pass(view), None]
        except Exception as exc:
            answer = [None, False, f"digest failed: {type(exc).__name__}: {exc}"]
        try:
            os.write(write_fd, json.dumps(answer).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    return tuple(json.loads(data)) if data else (None, False, "digest process died")


def _write(path: str, payload: dict) -> int:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
