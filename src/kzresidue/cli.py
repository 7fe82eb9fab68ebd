"""Command-line front end.

Exit codes: 0 when everything requested passed, 1 when a verification
ran and failed, 2 for usage errors and refused (over-budget) instances,
141 (as for a process ended by SIGPIPE) when the reader closed standard
output early, e.g. `kzresidue solve ... | head -1`; nothing is written
to standard error then.

`--format json` output is streamed: `emit` writes the chunks of the
package's own writer (`_jsontext`) in batches of about `JSON_BATCH`
characters, so the bytes are those of `json.dumps(payload, indent=2)`
plus a newline, and memory holds the payload and one batch, never the
whole text.  A text request builds no JSON document.

Start-up is mostly compiling the package, so this module loads only
`shapes`, which holds the parser's diagrams and the resource guard, and
each command imports what it runs once the request has passed its
refusals: the solver (`exactalg`, `residues`, `solve`) in every command
but `stats`, the check battery (`kzresidue.verify`) in `verify`, `det`,
`twist` and `reflection --pairing`, and the JSON writer (which imports
`json` only to escape a string) only for `--format json`.  So `stats`,
usage errors and refused requests never compile the solver.
"""
from __future__ import annotations

import argparse
import os
import sys

from .shapes import (
    DEFAULT_BUDGET,
    MAX_VARS,
    Partition,
    ResourceGuardError,
    check_reflection_resources,
    check_resources,
    diagram_stats,
    enumerate_partitions,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
OUTPUT_CLOSED = 141
# largest N that `stats` answers: the hook-length product takes
# O(N * rows) steps (under 0.1 s for (1^1000)), and the dimension, at most
# sqrt(N!), prints in under 1300 digits, below Python's default 4300
MAX_STATS_SIZE = 1000
# most digits of a number `stats` prints, Python's default limit for
# int-to-str; only the degree, m*(f2 + N(N-1)/2), can reach it
MAX_STATS_DIGITS = 4300
# characters of JSON text per write, reached by every batch but the last:
# one system call per batch even when standard output is unbuffered
JSON_BATCH = 65536


def parse_shape(text: str) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(","))
        return Partition(parts)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}") from exc


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def factored_text(p) -> str:
    """Render a polynomial as its z-difference content times the core
    left when that is divided out, the core expanded: a
    `ContentPolynomial` is read as it is held, and a `SparsePolynomial`
    is factored first (`ContentPolynomial.factor`)."""
    from .exactalg import ContentPolynomial

    if p.is_zero():
        return "0"
    p = ContentPolynomial.factor(p)
    rest = p.core
    powers = [f"z{i}{j}" + (f"^{e}" if e > 1 else "") for (i, j), e in sorted(p.content.items())]
    if rest.is_constant():
        c = rest.constant_value()
        if not powers:
            return str(c)
        head = "" if c == 1 else "-" if c == -1 else f"{c}*"
        return head + "*".join(powers)
    tail = f"({rest})"
    return "*".join(powers + [tail]) if powers else str(rest)


def emit(args, payload, text_lines) -> None:
    """The one JSON writer: `payload` as `json.dumps(payload, indent=2)`
    and a newline, written in batches; otherwise each of `text_lines()`."""
    if args.format == "json":
        from ._jsontext import chunks

        batch, size = [], 0
        for chunk in chunks(payload):
            batch.append(chunk)
            size += len(chunk)
            if size >= JSON_BATCH:
                sys.stdout.write("".join(batch))
                batch, size = [], 0
        batch.append("\n")
        sys.stdout.write("".join(batch))
    else:
        for line in text_lines():
            print(line)


def add_common(p: argparse.ArgumentParser, budget: bool = True) -> None:
    p.add_argument("--lambda", dest="shape", type=parse_shape, required=True,
                   help="partition as comma-separated parts, e.g. 2,1")
    p.add_argument("--m", type=positive_int, required=True,
                   help="positive integer system parameter")
    p.add_argument("--format", choices=("json", "text"), default="text")
    if budget:
        p.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET)


def solved(args):
    """The fundamental matrix of the request, priced before the solver
    is imported (`fundamental_solution` prices it again)."""
    check_resources(args.shape, args.m, args.budget)
    from .solve import fundamental_solution

    return fundamental_solution(args.shape, args.m, budget=args.budget)


def cmd_solve(args) -> int:
    fm = solved(args)

    def lines():
        yield f"shape {args.shape}  m={args.m}  dimension {fm.dimension}"
        yield "matrix over standard tableaux (rows: cycles, columns: polytabloids):"
        for i in range(fm.dimension):
            row = [factored_text(fm.matrix.entry(i, j)) for j in range(fm.dimension)]
            yield "  [" + ",  ".join(row) + "]"
        for table in fm.tables:
            yield f"cycle {table.cycle}:"
            for u, c in table.components.items():
                yield f"  {u}: {factored_text(c)}"

    emit(args, fm.to_json() if args.format == "json" else None, lines)
    return 0


def cmd_stats(args) -> int:
    if args.shape.size > MAX_STATS_SIZE:
        raise ResourceGuardError(
            f"N={args.shape.size} exceeds the stats limit {MAX_STATS_SIZE}"
        )
    stats = diagram_stats(args.shape, args.m)
    if stats.solution_degree >= 10 ** MAX_STATS_DIGITS:
        raise ResourceGuardError(
            f"the degree m*(f2 + N(N-1)/2) has more than {MAX_STATS_DIGITS} digits"
        )
    payload = {
        "lambda": list(args.shape.parts),
        "m": args.m,
        "content_sum": stats.f2,
        "dimension": stats.specht_dim,
        "symmetric_fixed_dim": stats.d_plus,
        "transpose": list(stats.transpose.parts),
        "level_profile": list(stats.m_profile),
        "configuration_dim": stats.config_dim,
        "degree": stats.solution_degree,
    }

    def lines():
        for k, v in payload.items():
            yield f"{k}: {v}"

    emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    if args.all_partitions is not None:
        # the partition count grows exponentially in N: refuse before listing
        if args.all_partitions > MAX_VARS:
            raise ResourceGuardError(
                f"N={args.all_partitions} exceeds the hard variable limit {MAX_VARS}"
            )
        shapes = enumerate_partitions(args.all_partitions)
    elif args.shape is not None:
        shapes = [args.shape]
    else:
        print("verify needs --lambda or --all-partitions", file=sys.stderr)
        return USAGE_ERROR
    # price every shape before solving any, so a refusal comes first
    for lam in shapes:
        check_resources(lam, args.m, args.budget)
    from .solve import fundamental_solution
    from .verify import _kz_reports, run_suite

    failures = 0
    reports_json = []
    for lam in shapes:
        if args.all:
            reports = run_suite(lam, args.m, budget=args.budget)
        else:
            fm = fundamental_solution(lam, args.m, budget=args.budget)
            reports = _kz_reports(fm)
        for rep in reports:
            failures += 0 if rep.passed else 1
            if args.format == "json":
                reports_json.append(rep.to_json())
            else:
                print(rep.one_line())
                if rep.witness:
                    print(f"    witness: {rep.witness}")
    if args.format == "json":
        emit(args, reports_json, None)
    return CHECK_FAILED if failures else 0


def cmd_det(args) -> int:
    fm = solved(args)
    from .verify import check_det

    rep = check_det(fm)

    def lines():
        yield rep.one_line()
        yield f"  discriminant power: {rep.info['power']}"
        yield f"  constant: {rep.info['constant']}"

    emit(args, rep.to_json() if args.format == "json" else None, lines)
    return 0 if rep.passed else CHECK_FAILED


def cmd_dual(args) -> int:
    fm = solved(args)
    from .solve import dual_matrix

    dm = dual_matrix(fm)

    def lines():
        yield f"shape {args.shape}  solves m={dm.m}"
        yield f"determinant: {factored_text(dm.det)}"
        for i in range(dm.dimension):
            for j in range(dm.dimension):
                yield f"  [{i}][{j}]: ({factored_text(dm.entries.entry(i, j))}) / det"

    emit(args, dm.to_json() if args.format == "json" else None, lines)
    return 0


def cmd_twist(args) -> int:
    fm = solved(args)
    from .solve import alternating_twist
    from .verify import _kz_reports, check_kz

    # one full check of the first table and the relabeling premise on the
    # rest leave a KZ record on each table, which its twist reads
    _kz_reports(fm)
    twisted = [alternating_twist(t) for t in fm.tables]
    reports = [check_kz(t) for t in twisted]

    def lines():
        for t, rep in zip(twisted, reports):
            yield f"cycle {t.cycle} (m={t.m}, twisted): {rep.verdict}"
            den = factored_text(t.den)
            for u, num in t.components.items():
                yield f"  {u}: ({factored_text(num)}) / ({den})"

    payload = None
    if args.format == "json":
        payload = {
            "tables": [t.to_json() for t in twisted],
            "checks": [r.to_json() for r in reports],
        }
    emit(args, payload, lines)
    return 0 if all(r.passed for r in reports) else CHECK_FAILED


def cmd_reflection(args) -> int:
    check_reflection_resources(args.n, args.m)
    from .solve import reflection_dual_solutions, reflection_solutions

    phis = reflection_dual_solutions(args.n, args.m)
    psis = reflection_solutions(args.n, args.m)
    rep = None
    if args.pairing:
        from .verify import _reflection_report

        rep = _reflection_report(args.n, args.m, psis, phis)

    def lines():
        for s in psis:
            yield f"residue solution {s.index}:"
            for k, comp in enumerate(s.components, start=1):
                yield f"  e{k}: {factored_text(comp)}"
        for s in phis:
            yield f"path solution {s.index} (m={s.m}):"
            den = factored_text(s.den)
            for k, num in enumerate(s.components, start=1):
                yield f"  e{k}: ({factored_text(num)}) / ({den})"
        if rep is not None:
            yield rep.verdict + " pairing"

    payload = None
    if args.format == "json":
        payload = {
            "residue_family": [s.to_json() for s in psis],
            "path_family": [s.to_json() for s in phis],
        }
        if rep is not None:
            payload["pairing"] = rep.to_json()
    emit(args, payload, lines)
    return 0 if rep is None or rep.passed else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kzresidue",
        description="exact fundamental solutions of the symmetric-group "
        "Knizhnik-Zamolodchikov system by iterated residues",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="fundamental matrix and component tables")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run checks on a shape or a whole size")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--lambda", dest="shape", type=parse_shape, default=None)
    target.add_argument("--all-partitions", type=positive_int, default=None,
                        help="verify every partition of this size")
    p.add_argument("--m", type=positive_int, required=True)
    p.add_argument("--all", action="store_true",
                   help="full battery instead of the differential check only")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="closed-form scalars of a shape")
    add_common(p, budget=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("det", help="determinant identity for a shape")
    add_common(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("dual", help="transposed-inverse matrix (negated parameter)")
    add_common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("twist", help="sign-twisted rational tables (negated parameter)")
    add_common(p)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("reflection", help="reflection-representation families")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--m", type=positive_int, required=True)
    p.add_argument("--pairing", action="store_true",
                   help="also verify the duality pairing")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_reflection)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # nothing more can be written; point stdout at the null device so
        # the interpreter's last flush at exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return OUTPUT_CLOSED
    except ResourceGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
