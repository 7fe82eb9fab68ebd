"""`python -m kzresidue.cli ARGS...` with the machine's speed sampled
around it.

    python3 perfbench/cli_child.py SPEED_FILE ARGS...

Runs the CLI as `-m` does, with the same standard output, error and exit
code.  The CPU seconds of a calibration before the CLI starts and of one
as the interpreter exits are written to SPEED_FILE, one a line, so that
the caller can take them out of the process's CPU time and scale the
rest to the reference speed (`speed.py`).
"""
import atexit
import runpy
import sys

import speed


def main() -> None:
    path = sys.argv[1]
    before = speed.calibrate()

    def after():
        with open(path, "w") as fh:
            fh.write(f"{before!r}\n{speed.calibrate()!r}\n")

    atexit.register(after)
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    runpy.run_module("kzresidue.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
