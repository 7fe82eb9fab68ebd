"""Layer tracing from outside the package.

`install` replaces each traced function of `kzresidue` by a wrapper in
every module that holds a reference to it (for example
`kzresidue.solve.normalize_factored` as well as
`kzresidue.exactalg.normalize_factored`), and each traced method on its
class.  A wrapper records the span's self time (its duration minus the
time of the traced spans inside it) under the layer metric of the
function, and counts calls and sizes at the same boundary.  Spans of the
coarse functions are kept in memory with their parent and request; the
hot kernels (polynomial product and sum, exact division, the shapes
helpers) are only aggregated, so a traced run does not grow with the
number of products.  Nothing is written until the traced process ends.

Names a later version of the package no longer has are skipped and
listed in `missing`, so the tracer survives refactors; the metrics they
fed then read zero.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("kzresidue", "kzresidue.exactalg", "kzresidue.residues",
           "kzresidue.shapes", "kzresidue.solve", "kzresidue.verify")

CHECKS = ("kz", "primitive", "shape", "rank", "equivariance", "frobenius",
          "det", "dual", "straightening", "reflection")

# (module, function or Class.method, metric prefix, keep spans)
TARGETS = [
    *[("kzresidue.shapes", name, "shapes.self", False) for name in (
        "perm_sign", "enumerate_partitions", "level_profile", "hook_length_dim",
        "standard_tableaux", "identity_tableau", "tabloids", "column_expansion",
        "act_transposition", "raise_row", "diagram_stats")],
    ("kzresidue.residues", "residue_plan", "residues.self", True),
    ("kzresidue.residues", "iterated_residue", "residues.self", True),
    ("kzresidue.residues", "residue_at", "residues.self", True),
    ("kzresidue.exactalg", "normalize_factored", "exactalg.normalize", True),
    ("kzresidue.exactalg", "SparsePolynomial.__mul__", "exactalg.mul", False),
    ("kzresidue.exactalg", "SparsePolynomial.__rmul__", "exactalg.mul", False),
    ("kzresidue.exactalg", "SparsePolynomial.__add__", "exactalg.add", False),
    ("kzresidue.exactalg", "SparsePolynomial.__radd__", "exactalg.add", False),
    ("kzresidue.exactalg", "exact_divide", "exactalg.divide", False),
    # private, but it is the division normalize_factored performs
    ("kzresidue.exactalg", "_divide_by_z_diff", "exactalg.divide", False),
    ("kzresidue.exactalg", "determinant", "exactalg.det", True),
    ("kzresidue.exactalg", "det_adjugate", "exactalg.det", True),
    ("kzresidue.solve", "interaction_form", "solve.forms", True),
    ("kzresidue.solve", "tableau_form", "solve.forms", True),
    ("kzresidue.solve", "symmetrized_tableau_form", "solve.forms", True),
    # its own time is the integrand product of the two forms
    ("kzresidue.solve", "cycle_integral", "solve.forms", True),
    ("kzresidue.solve", "coordinates_in_specht_basis", "solve.coordinates", True),
    ("kzresidue.solve", "polytabloid_columns", "solve.coordinates", True),
    ("kzresidue.solve", "dual_matrix", "solve.dual_matrix", True),
    ("kzresidue.solve", "reflection_solutions", "solve.reflection", True),
    ("kzresidue.solve", "reflection_dual_solutions", "solve.reflection", True),
    ("kzresidue.solve", "check_resources", "solve.guard", True),
    ("kzresidue.solve", "residue_budget", "solve.guard", True),
    ("kzresidue.solve", "fundamental_solution", "solve.self", True),
    ("kzresidue.solve", "solve_cycle", "solve.self", True),
    ("kzresidue.solve", "solve_component", "solve.self", True),
    ("kzresidue.solve", "alternating_twist", "solve.self", True),
    *[("kzresidue.verify", f"check_{c}", f"verify.check_{c}", True) for c in CHECKS],
    ("kzresidue.verify", "quotient_coordinates", "verify.quotient_coordinates", True),
    ("kzresidue.verify", "run_suite", "verify.self", True),
]

CLI_TARGETS = [
    *[("kzresidue.cli", name, "cli.main", True) for name in (
        "main", "build_parser", "parse_shape", "positive_int", "cmd_solve",
        "cmd_stats", "cmd_verify", "cmd_det", "cmd_dual", "cmd_twist",
        "cmd_reflection")],
    ("kzresidue.cli", "factored_text", "cli.render", False),
    ("kzresidue.cli", "emit", "cli.render", True),
    ("json", "dumps", "cli.render", True),
    *[(mod, f"{cls}.to_json", "cli.render", False) for mod, cls in (
        ("kzresidue.solve", "FundamentalMatrix"), ("kzresidue.solve", "DualMatrix"),
        ("kzresidue.solve", "SolutionTable"), ("kzresidue.solve", "ReflectionSolution"),
        ("kzresidue.verify", "CheckReport"), ("kzresidue.exactalg", "SparsePolynomial"),
        ("kzresidue.exactalg", "PolyFraction"))],
]

# Every per-layer metric, in report order.  `_s` metrics are self time.
TIMES = [
    "residues.self", "exactalg.normalize", "exactalg.add", "exactalg.mul",
    "exactalg.divide", "exactalg.det", "solve.forms", "solve.coordinates",
    "solve.dual_matrix", "solve.reflection", "solve.guard", "solve.self",
    *[f"verify.check_{c}" for c in CHECKS], "verify.quotient_coordinates",
    "verify.self", "shapes.self", "cli.main", "cli.render",
]
COUNTS = [
    "residues.steps", "residues.peak_terms", "residues.out_terms",
    "exactalg.normalize.in_terms", "exactalg.normalize.out_terms",
    "exactalg.add.terms_touched", "exactalg.mul.calls", "exactalg.mul.term_pairs",
    "exactalg.divide.calls", "solve.integrand_terms", "solve.coordinates.calls",
    "solve.cycle_integral.calls",
]
PEAKS = ("residues.peak_terms",)


def _terms(x):
    """Term count of a polynomial operand, 1 for a scalar."""
    terms = getattr(x, "terms", None)
    return len(terms) if isinstance(terms, dict) else 1


def _hook_residue_at(c, args, result):
    c["residues.steps"] += 1
    c["residues.peak_terms"] = max(c["residues.peak_terms"], len(args[0]), len(result))


def _hook_iterated(c, args, result):
    c["solve.integrand_terms"] += len(args[0])
    c["residues.out_terms"] += len(result)


def _hook_normalize(c, args, result):
    c["exactalg.normalize.in_terms"] += len(args[0])
    c["exactalg.normalize.out_terms"] += _terms(result)


def _hook_mul(c, args, result):
    if result is not NotImplemented:
        c["exactalg.mul.term_pairs"] += _terms(args[0]) * _terms(args[1])


def _hook_add(c, args, result):
    if result is not NotImplemented:
        c["exactalg.add.terms_touched"] += _terms(args[0]) + _terms(args[1])


HOOKS = {
    "residue_at": _hook_residue_at,
    "iterated_residue": _hook_iterated,
    "normalize_factored": _hook_normalize,
    "SparsePolynomial.__mul__": _hook_mul,
    "SparsePolynomial.__rmul__": _hook_mul,
    "SparsePolynomial.__add__": _hook_add,
    "SparsePolynomial.__radd__": _hook_add,
}
CALL_COUNTS = {
    "exactalg.mul": "exactalg.mul.calls",
    "exactalg.divide": "exactalg.divide.calls",
    "solve.coordinates": "solve.coordinates.calls",
}


class Tracer:
    """Span recorder.  Wrappers pass straight through while `active` is
    false, so the benchmark's own digesting is never traced."""

    def __init__(self):
        self.active = False
        self.stack = []  # frames: [metric, start, child time, kept span index]
        self.depth = Counter()  # open spans per metric
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # outermost spans per metric
        self.counts = Counter()
        self.spans = []  # (name, request, parent span, start, end)
        self.request = -1
        self.missing = []
        self.originals = {}

    def wrap(self, fn, name, metric, keep, hook=None):
        stack, depth, spans = self.stack, self.depth, self.spans
        self_s, total_s, counts = self.self_s, self.total_s, self.counts
        call_metric = CALL_COUNTS.get(metric)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            if keep:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [metric, 0.0, 0.0, index]
            stack.append(frame)
            depth[metric] += 1
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[metric] -= 1
                span = end - start
                self_s[metric] += span - frame[2]
                if stack:
                    stack[-1][2] += span
                if not depth[metric]:
                    total_s[metric] += span
                    if call_metric:
                        counts[call_metric] += 1
                if keep:
                    spans[index] = (name, tracer.request, parent, start, end)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self, targets):
        names = set(MODULES) | {t[0] for t in targets if t[0].startswith("kzresidue")}
        modules = {name: importlib.import_module(name) for name in names}
        for modname, attr, metric, keep in targets:
            mod = modules.get(modname) or importlib.import_module(modname)
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = vars(holder).get(name) if holder is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self.originals[attr] = fn
            wrapped = self.wrap(fn, attr, metric, keep, HOOKS.get(attr))
            if owner:
                setattr(holder, name, wrapped)
                continue
            setattr(mod, name, wrapped)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)

    def begin_request(self, rid):
        """Open the root span of one request."""
        self.request = rid
        self.spans.append(None)
        self.stack.append(["request", perf_counter(), 0.0, len(self.spans) - 1])
        self.active = True

    def end_request(self, rid):
        self.active = False
        frame = self.stack.pop()
        self.spans[frame[3]] = (f"request:{rid}", rid, -1, frame[1], perf_counter())
        self.stack.clear()

    def summary(self) -> dict:
        """Aggregates of this process, the unit the benchmark adds up."""
        cycle = self.originals.get("cycle_integral")
        info = cycle.cache_info() if hasattr(cycle, "cache_info") else None
        counts = dict(self.counts)
        hits = 0
        if info is not None:
            hits = info.hits
            counts["solve.cycle_integral.calls"] = info.hits + info.misses
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": counts,
            "cycle_integral_hits": hits,
            "missing": self.missing,
        }


def merge(summaries) -> dict:
    """Per-layer metrics of a traced pass from its processes' summaries."""
    self_s, total_s, counts = Counter(), Counter(), Counter()
    hits = exit2_s = 0
    for s in summaries:
        exit2_s += s.get("exit2_s", 0.0)
        self_s.update(s["self_s"])
        total_s.update(s["total_s"])
        hits += s["cycle_integral_hits"]
        for key, value in s["counts"].items():
            if key in PEAKS:
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    out = {f"{m}_s": float(self_s[m]) for m in TIMES}
    out["exactalg.normalize.total_s"] = float(total_s["exactalg.normalize"])
    out["cli.exit2_s"] = float(exit2_s)
    out.update({name: counts[name] for name in COUNTS})
    calls = counts["solve.cycle_integral.calls"]
    out["solve.cycle_integral.hit_ratio"] = hits / calls if calls else 0.0
    return out
