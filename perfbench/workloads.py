"""The request lists of the three workloads and the canonical digest of
every output.

A request is one call into the public API (library workloads) or one
`python -m kzresidue.cli` process (`cli_requests`).  Each output is
reduced to a SHA-256 of canonical JSON and compared with the reference
recorded at the seed in `reference.json`.  Check reports enter a digest
by name and verdict only, never by `info`, so that timings or other
diagnostics added to `info` later do not count as a changed output.

The workload seed only shuffles request order; the set of requests is
fixed, so every run of a workload does the same work.
"""
from __future__ import annotations

import hashlib
import json
import random

LIBRARY_WORKLOADS = ("solve_cold", "verify_battery")
CLI_WORKLOAD = "cli_requests"
WORKLOADS = LIBRARY_WORKLOADS + (CLI_WORKLOAD,)

# Per-request limits, about four times the slowest request of each kind
# on a 2-CPU machine at the seed; a request over its limit is a failure.
LIBRARY_TIMEOUT_S = 40.0
CLI_TIMEOUT_S = 20.0

# Every partition of N <= 5 that the seed's default guard admits at m=1,
# except (2,2,1): that one point took 7-9 s, half of a pass, and with it
# the workload's run-to-run spread on a shared 2-CPU machine exceeded its
# bound.  The list is fixed here rather than asked of the guard, so a
# guard that starts refusing one of these shows up as a failed request.
SOLVE_GRID_M1 = (
    (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2),
    (2, 1, 1), (1, 1, 1, 1), (5,), (4, 1), (3, 2), (3, 1, 1),
)
SOLVE_GRID_HIGHER_M = (
    ((2, 1), 2), ((2, 1), 3), ((3, 1), 2), ((3, 1), 3),
    ((2, 2), 2), ((2, 2), 3), ((2, 1, 1), 2),
)
REFLECTION_POINTS = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2))

# verify_battery: (shape, m, checks run after the point's solve).
FULL = ("run_suite", "twist_kz", "dual_matrix", "check_dual", "check_straightening")
NO_DUAL = ("run_suite", "twist_kz", "check_straightening")
BATTERY_POINTS = (
    ((2, 1), 1, FULL),
    ((2, 1), 2, FULL),
    ((2, 1), 3, FULL),
    ((2, 2), 1, FULL),
    ((3, 1), 1, NO_DUAL),
    ((2, 1, 1), 1, NO_DUAL),
    ((3, 1), 2, ("run_suite",)),
)
CHECK_REFLECTION_POINTS = ((3, 1), (3, 2), (4, 1), (4, 2))


def sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_view(obj):
    """Replace every check report, as object or as JSON, by its name,
    shape, parameter and verdict."""
    if hasattr(obj, "check") and hasattr(obj, "verdict"):
        obj = obj.to_json()
    if isinstance(obj, dict):
        if "check" in obj and "verdict" in obj:
            return {k: obj[k] for k in ("check", "lambda", "m", "verdict")}
        return {k: report_view(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [report_view(v) for v in obj]
    return obj


def verdicts_pass(view) -> bool:
    """True when no check report inside a report view failed."""
    if isinstance(view, dict):
        if "check" in view and "verdict" in view:
            return view["verdict"] == "pass"
        return all(verdicts_pass(v) for v in view.values())
    if isinstance(view, list):
        return all(verdicts_pass(v) for v in view)
    return True


def shape_id(parts) -> str:
    return "(" + ",".join(map(str, parts)) + ")"


class Request:
    """One timed call.  `call(ctx)` does the work; `view(result)` turns
    its output into the JSON whose digest is compared.  Requests of one
    group share `ctx`, which carries a point's solution to its checks."""

    __slots__ = ("id", "call", "view")

    def __init__(self, rid, call, view):
        self.id = rid
        self.call = call
        self.view = view


# ----------------------------------------------------------------------
# library workloads


def _solve_cold(kz) -> list[list[Request]]:
    """One group per number of points N: the grid's shapes of size N, then
    the reflection families on N points, which reuse the hook shape's
    integrals."""
    def family(sols):
        return [s.to_json() for s in sols]

    points = [(p, 1) for p in SOLVE_GRID_M1] + list(SOLVE_GRID_HIGHER_M)
    groups = []
    for size in range(1, 6):
        group = []
        for parts, m in points:
            if sum(parts) == size:
                lam = kz.Partition(parts)
                group.append(Request(
                    f"solve/{shape_id(parts)}/m{m}",
                    lambda ctx, lam=lam, m=m: kz.fundamental_solution(lam, m),
                    lambda fm: fm.to_json(),
                ))
        for n, m in REFLECTION_POINTS:
            if n == size:
                group.append(Request(
                    f"reflection_solutions/n{n}/m{m}",
                    lambda ctx, n=n, m=m: kz.reflection_solutions(n, m),
                    family,
                ))
                group.append(Request(
                    f"reflection_dual_solutions/n{n}/m{m}",
                    lambda ctx, n=n, m=m: kz.reflection_dual_solutions(n, m),
                    family,
                ))
        groups.append(group)
    return groups


def _twist_kz(kz, fm):
    twisted = [kz.alternating_twist(t) for t in fm.tables]
    return twisted, [kz.check_kz(t) for t in twisted]


def _battery_request(kz, name, lam, m, ctx_key):
    rid = f"{name}/{shape_id(lam.parts)}/m{m}"
    if name == "run_suite":
        return Request(rid, lambda ctx: kz.run_suite(lam, m), report_view)
    if name == "twist_kz":
        return Request(
            rid,
            lambda ctx: _twist_kz(kz, ctx[ctx_key]),
            lambda r: {"tables": [t.to_json() for t in r[0]], "checks": report_view(r[1])},
        )
    if name == "dual_matrix":
        return Request(rid, lambda ctx: kz.dual_matrix(ctx[ctx_key]), lambda dm: dm.to_json())
    if name == "check_dual":
        return Request(rid, lambda ctx: kz.check_dual(ctx[ctx_key]), report_view)
    if name == "check_straightening":
        standard = {t.tabloid() for t in kz.standard_tableaux(lam)}
        cycle = next(u for u in kz.tabloids(lam.parts) if u not in standard)
        return Request(
            f"{rid}/{cycle}",
            lambda ctx: kz.check_straightening(lam, m, cycle),
            report_view,
        )
    raise ValueError(f"unknown battery request {name}")


def _verify_battery(kz) -> list[list[Request]]:
    P = kz.Partition
    groups = []
    for parts, m, checks in BATTERY_POINTS:
        lam = P(parts)
        key = (parts, m)
        group = []
        if checks != ("run_suite",):

            def solve(ctx, lam=lam, m=m, key=key):
                ctx[key] = kz.fundamental_solution(lam, m)
                return ctx[key]

            group.append(Request(
                f"solve/{shape_id(parts)}/m{m}", solve, lambda fm: fm.to_json()
            ))
        groups.append(group + [_battery_request(kz, name, lam, m, key) for name in checks])
    for n, m in CHECK_REFLECTION_POINTS:
        groups.append([Request(
            f"check_reflection/n{n}/m{m}",
            lambda ctx, n=n, m=m: kz.check_reflection(n, m),
            report_view,
        )])
    return groups


def library_groups(workload: str, seed: int, kz) -> list[list[Request]]:
    """The workload's request groups in the seed's order.  Each group runs
    in a fresh interpreter and in a fixed order, so every request meets
    the same caches whatever the seed."""
    if workload == "solve_cold":
        groups = _solve_cold(kz)
    elif workload == "verify_battery":
        groups = _verify_battery(kz)
    else:
        raise ValueError(f"{workload} is not a library workload")
    random.Random(seed).shuffle(groups)
    return groups


# ----------------------------------------------------------------------
# cli_requests


def _cli_mix() -> list[tuple[list[str], int]]:
    """(arguments, expected exit code) for one pass, in a fixed order.

    Forty requests, each of a kind a CLI user makes, with one refusal in
    ten.  A run makes several passes and keeps each request's best time:
    on a shared machine whose speed swings for seconds at a time, a few
    samples of forty requests measure steadier than one sample of a
    hundred.  Requests over a second on a 2-CPU machine at the seed
    (`solve --lambda 1,1,1,1`, `det` on N=4 at m=2) are left out so that a
    pass stays near 15 s."""
    mix = []

    def add(args, rc=0):
        mix.append((args.split(), rc))

    for lam, fmt in (("4", ""), ("3,1", " --format json"), ("2,1,1,1", ""),
                     ("2,2,1", ""), ("3,2", " --format json"),
                     ("1,1,1,1,1", " --format json")):
        add(f"stats --lambda {lam} --m {2 if fmt else 1}{fmt}")
    # every shape of N <= 4 but (1,1,1,1); text and JSON alternate
    for k, (lam, m) in enumerate((
            ("1", 1), ("2", 2), ("1,1", 1), ("3", 2), ("2,1", 1), ("2,1", 2),
            ("1,1,1", 1), ("1,1,1", 2), ("4", 1), ("4", 2), ("3,1", 1), ("3,1", 2),
            ("2,2", 1), ("2,2", 2), ("2,1,1", 1), ("2,1,1", 2))):
        add(f"solve --lambda {lam} --m {m}" + (" --format json" if k % 2 else ""))
    for lam, m in (("1,1,1", 1), ("2,1", 2), ("3,1", 1), ("2,2", 1), ("2,1,1", 1)):
        add(f"det --lambda {lam} --m {m} --format json")
    add("dual --lambda 2,1 --m 1")
    add("dual --lambda 2,1 --m 2 --format json")
    add("twist --lambda 2,1 --m 1 --format json")
    add("twist --lambda 2,1 --m 2 --format json")
    add("reflection --n 3 --m 1 --pairing")
    add("reflection --n 3 --m 2 --pairing --format json")
    add("reflection --n 4 --m 1 --pairing --format json")
    add("verify --all-partitions 3 --m 1 --all --format json")
    add("verify --lambda 2,1 --m 2 --format json")
    # refusals every guard must make: too many points, a shape far over
    # any budget, a malformed shape and a non-positive parameter
    add("solve --lambda 9 --m 1", 2)
    add("verify --lambda 1,1,1,1,1 --m 1 --all", 2)
    add("solve --lambda 2,x --m 1", 2)
    add("solve --lambda 2,1 --m 0", 2)
    return mix


def cli_requests(seed: int) -> list[tuple[str, list[str], int]]:
    """(request id, CLI arguments, expected exit code) in the seed's order."""
    mix = [(" ".join(args), args, rc) for args, rc in _cli_mix()]
    random.Random(seed).shuffle(mix)
    return mix


def cli_view(args: list[str], stdout: bytes):
    """What the digest of a CLI request covers: JSON output with check
    reports reduced by `report_view`, or the text output as is."""
    if "--format" in args and args[args.index("--format") + 1] == "json":
        return report_view(json.loads(stdout))
    return stdout.decode()
