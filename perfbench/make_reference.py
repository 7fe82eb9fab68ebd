"""Record the reference digest of every request of every workload.

    python3 perfbench/make_reference.py

Runs each workload's requests once, untraced, and writes
`perfbench/reference.json`.  The reference was recorded at the seed
commit; regenerate it only for a change meant to alter outputs, and say
so, since it is the identity gate of every later speed-up.  A request
that fails, refuses unexpectedly or reports a failing check stops the
recording.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def library(workload):
    digests = {}
    group, groups = 0, 1
    while group < groups:
        child, result = run.worker(workload, 0, "reference", 600, "--group", str(group))
        if result is None:
            sys.exit(f"{workload}: worker failed: {child.stderr.decode()[-2000:]}")
        groups = result["groups"]
        group += 1
        for r in result["requests"]:
            if r["error"] or not r["passed"]:
                sys.exit(f"{workload} {r['id']}: {r['error'] or 'check failed'}")
            digests[r["id"]] = r["sha"]
    return digests


def cli():
    digests = {}
    for rid, args, expect in workloads.cli_requests(0):
        child = run.Child([sys.executable, "-m", "kzresidue.cli", *args], 600, "reference")
        if child.rc != expect or b"Traceback" in child.stderr:
            sys.exit(f"{rid}: exit {child.rc}, expected {expect}: {child.stderr.decode()}")
        view = workloads.cli_view(args, child.stdout) if expect == 0 else child.stdout.decode()
        if not workloads.verdicts_pass(view):
            sys.exit(f"{rid}: check failed")
        digests[rid] = workloads.sha(view)
    return digests


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    reference = {w: library(w) for w in workloads.LIBRARY_WORKLOADS}
    reference[workloads.CLI_WORKLOAD] = cli()
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, reference.values()))} digests to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
