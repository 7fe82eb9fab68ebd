"""Run the whole verification suite over every shape of up to four
points (pass --five to go to five; the larger shapes take a while).
A shape over the default resource budget is reported as refused and
not solved."""
import sys

from kzresidue import ResourceGuardError, check_resources, enumerate_partitions, run_suite

top = 5 if "--five" in sys.argv else 4

for n in range(1, top + 1):
    for lam in enumerate_partitions(n):
        try:
            check_resources(lam, 1)
        except ResourceGuardError as exc:
            print(f"[REFUSED] {lam}: {exc}")
            continue
        for report in run_suite(lam, 1):
            print(report.one_line())
