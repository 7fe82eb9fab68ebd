"""One `kzresidue` CLI request under the layer tracer.

    python3 perfbench/traced_cli.py SPEED_FILE OUT ARGS...

Behaves like `python -m kzresidue.cli ARGS...` (same standard output and
exit code) and writes the request's layer summary and spans to OUT when
it ends, and the machine's speed before and after it to SPEED_FILE as
`cli_child.py` does.  `cli.exit2_s` is the time `main` took when it ended
in a usage error or refusal.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

import speed
import tracer as tracing


def main() -> int:
    speed_file, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    before = speed.calibrate()
    import kzresidue.cli as cli

    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS + tracing.CLI_TARGETS)
    rid = " ".join(argv)
    tracer.begin_request(rid)
    start = perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        rc = exc.code if isinstance(exc.code, int) else 1
    elapsed = perf_counter() - start
    tracer.end_request(rid)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["exit2_s"] = elapsed if rc == 2 else 0.0
    with open(out, "w") as fh:
        json.dump({"trace": summary, "spans": tracer.spans}, fh)
    with open(speed_file, "w") as fh:
        fh.write(f"{before!r}\n{speed.calibrate()!r}\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
