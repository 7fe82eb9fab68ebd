"""Command-line front end.

Exit codes: 0 when everything requested passed, 1 when a verification
ran and failed, 2 for usage errors and refused (over-budget) instances,
141 (as for a process ended by SIGPIPE) when the reader closed standard
output early, e.g. `kzresidue solve ... | head -1`; nothing is written
to standard error then.

`--format json` output is streamed: `emit` writes the chunks of the
indented encoder in batches of `JSON_BATCH`, so the bytes are those of
`json.dumps(payload, indent=2)` plus a newline, and memory holds the
payload and one batch, never the whole text.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from .exactalg import MAX_VARS, SparsePolynomial, z_diff_content
from .shapes import Partition, diagram_stats, enumerate_partitions
from .solve import (
    DEFAULT_BUDGET,
    ResourceGuardError,
    alternating_twist,
    check_resources,
    dual_matrix,
    fundamental_solution,
    reflection_dual_solutions,
    reflection_solutions,
)
from .verify import _kz_reports, _reflection_report, check_det, check_kz, run_suite

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
# encoder chunks per write: about 70 kB of text on a solved table, one
# system call per batch even when standard output is unbuffered
JSON_BATCH = 8192


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


def factored_text(p: SparsePolynomial) -> str:
    """Render a polynomial with differences z_i - z_j divided out
    greedily, falling back to the raw expansion for the residual."""
    if p.is_zero():
        return "0"
    (rest,), content = z_diff_content([p], p.nvars)
    powers = [f"z{i}{j}" + (f"^{e}" if e > 1 else "") for (i, j), e in content.items()]
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
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        # the encoder yields no empty chunk, so only the end gives ""
        while batch := "".join(islice(chunks, JSON_BATCH)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
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


def cmd_solve(args) -> int:
    fm = fundamental_solution(args.shape, args.m, budget=args.budget)

    def lines():
        yield f"shape {args.shape}  m={args.m}  dimension {fm.dimension}"
        yield "matrix over standard tableaux (rows: cycles, columns: polytabloids):"
        for i in range(fm.dimension):
            row = [factored_text(fm.matrix.entry(i, j)) for j in range(fm.dimension)]
            yield "  [" + ",  ".join(row) + "]"
        for table in fm.tables:
            yield f"cycle {table.cycle}:"
            for u in table.tabloid_order():
                yield f"  {u}: {factored_text(table.components[u])}"

    emit(args, fm.to_json(), lines)
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
    failures = 0
    reports_json = []
    for lam in shapes:
        if args.all:
            reports = run_suite(lam, args.m, budget=args.budget)
        else:
            fm = fundamental_solution(lam, args.m, budget=args.budget)
            reports = _kz_reports(fm)
        for rep in reports:
            reports_json.append(rep.to_json())
            failures += 0 if rep.passed else 1
            if args.format == "text":
                print(rep.one_line())
                if rep.witness:
                    print(f"    witness: {rep.witness}")
    if args.format == "json":
        emit(args, reports_json, None)
    return CHECK_FAILED if failures else 0


def cmd_det(args) -> int:
    fm = fundamental_solution(args.shape, args.m, budget=args.budget)
    rep = check_det(fm)

    def lines():
        yield rep.one_line()
        yield f"  discriminant power: {rep.info['power']}"
        yield f"  constant: {rep.info['constant']}"

    emit(args, rep.to_json(), lines)
    return 0 if rep.passed else CHECK_FAILED


def cmd_dual(args) -> int:
    fm = fundamental_solution(args.shape, args.m, budget=args.budget)
    dm = dual_matrix(fm)

    def lines():
        yield f"shape {args.shape}  solves m={dm.m}"
        yield f"determinant: {factored_text(dm.det)}"
        for i in range(dm.dimension):
            for j in range(dm.dimension):
                e = dm.entries.entry(i, j)
                yield f"  [{i}][{j}]: ({factored_text(e.num)}) / det"

    emit(args, dm.to_json(), lines)
    return 0


def cmd_twist(args) -> int:
    fm = fundamental_solution(args.shape, args.m, budget=args.budget)
    twisted = [alternating_twist(t) for t in fm.tables]
    reports = [check_kz(t) for t in twisted]
    payload = {
        "tables": [t.to_json() for t in twisted],
        "checks": [r.to_json() for r in reports],
    }

    def lines():
        for t, rep in zip(twisted, reports):
            yield f"cycle {t.cycle} (m={t.m}, twisted): {rep.verdict}"
            for u in t.tabloid_order():
                frac = t.components[u]
                yield f"  {u}: ({factored_text(frac.num)}) / ({factored_text(frac.den)})"

    emit(args, payload, lines)
    return 0 if all(r.passed for r in reports) else CHECK_FAILED


def cmd_reflection(args) -> int:
    # the path family refuses too many variables; it goes first so the
    # refusal comes before the residue family is solved
    phis = reflection_dual_solutions(args.n, args.m)
    psis = reflection_solutions(args.n, args.m)
    payload = {
        "residue_family": [s.to_json() for s in psis],
        "path_family": [s.to_json() for s in phis],
    }
    rc = 0
    if args.pairing:
        rep = _reflection_report(args.n, args.m, psis, phis)
        payload["pairing"] = rep.to_json()
        rc = 0 if rep.passed else CHECK_FAILED

    def lines():
        for s in psis:
            yield f"residue solution {s.index}:"
            for k, comp in enumerate(s.components, start=1):
                yield f"  e{k}: {factored_text(comp)}"
        for s in phis:
            yield f"path solution {s.index} (m={s.m}):"
            for k, comp in enumerate(s.components, start=1):
                yield f"  e{k}: ({factored_text(comp.num)}) / ({factored_text(comp.den)})"
        if args.pairing:
            yield payload["pairing"]["verdict"] + " pairing"

    emit(args, payload, lines)
    return rc


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
