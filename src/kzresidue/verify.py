"""Machine checks for solution tables and fundamental matrices.

Every check returns a CheckReport carrying a verdict and, on failure, a
small witness pinpointing the first broken identity.  Checks recompute
everything from scratch with exact arithmetic; nothing is trusted from
the solver beyond the data being checked.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from ._frozen import Frozen
from .exactalg import (
    NonDivisibleError,
    PolyFraction,
    SparsePolynomial,
    _add_into,
    _divide_by_z_diff,
    _mul_into,
    _subset_minors,
    _translation_defect,
    demote,
    discriminant_power,
)
from .shapes import (
    Numbering,
    Partition,
    Tabloid,
    act_transposition,
    column_expansion,
    diagram_stats,
    raise_row,
    row_word,
    standard_tableaux,
    tabloids,
)
from .solve import (
    DEFAULT_BUDGET,
    FundamentalMatrix,
    SolutionTable,
    coordinates_in_specht_basis,
    dual_matrix,
    fundamental_solution,
    reflection_dual_solutions,
    reflection_solutions,
    solve_component,
    solve_cycle,
)


class CheckReport(Frozen):
    """Outcome of one verification; `witness` is set exactly when the
    verdict is fail and names the first broken instance."""

    __slots__ = ("check", "lam", "m", "passed", "witness", "info")

    def __init__(
        self, check: str, lam: Partition | None, m: int | None, passed: bool,
        witness: dict | None = None, info: dict | None = None,
    ) -> None:
        self._set(check, lam, m, passed, witness, {} if info is None else info)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "lambda": list(self.lam.parts) if self.lam is not None else None,
            "m": self.m,
            "verdict": self.verdict,
            "witness": self.witness,
            "info": {k: repr(v) if not _jsonable(v) else v for k, v in self.info.items()},
        }

    def one_line(self) -> str:
        shape = str(self.lam) if self.lam is not None else "-"
        return f"[{self.verdict.upper()}] {self.check} shape={shape} m={self.m}"


def _jsonable(v) -> bool:
    return isinstance(v, (str, int, float, bool, type(None), list, dict))


def _clip(obj, limit: int = 300) -> str:
    s = str(obj)
    return s if len(s) <= limit else s[: limit - 3] + "..."


# ----------------------------------------------------------------------
# the differential system


def _discriminant_power_of(n: int, den: SparsePolynomial) -> tuple[int, object] | None:
    """`(p, C)` when `den == C * Delta^p` for a non-zero constant C, where
    Delta = prod_{a<b} (z_a - z_b) and p = deg(den) / C(n, 2) (p = 0 on
    one point, where Delta = 1); None otherwise, also when den lives in
    another number of variables.

    Decided by comparison, without division: den = C Delta^p forces
    C = a / b, with a and b the coefficients of den and of Delta^p at the
    leading monomial of Delta^p, and den == C Delta^p for that C proves
    the converse."""
    pairs = n * (n - 1) // 2
    if den.is_zero() or (pairs and den.degree() % pairs):
        return None
    p = den.degree() // pairs if pairs else 0
    disc = discriminant_power(n, p)
    lead = max(disc.terms)
    c = demote(Fraction(den.terms.get(lead, 0)) / disc.terms[lead])
    if not c or den != disc * c:
        return None
    return p, c


def _kz_witness(n: int, m: int, p: int, nums: dict, act, partner=None):
    """First failure of the KZ system for components `nums[key] / den`
    sharing a denominator den = C * Delta^p, C a non-zero constant (p = 0
    and C = 1 for polynomial components); `act(i, j, key)` is the
    numerator at `key` of the transposition (i j) applied to the whole
    vector, given as the combination it is: (coefficient, polynomial)
    pairs of scalars and polynomials, so the acted numerator is never
    built.  act(i, j, .) == act(j, i, .).

    Precondition (the caller's to establish): den has that form.  Then
    d_i den / den = p sum_{j != i} 1 / (z_i - z_j), and the system reads

        num' == sum_{j != i} X_j / (z_i - z_j),   X_j = m act(i, j, key) + (m + p) num

    with ' = d/dz_i.  Write X_j = (z_i - z_j) q_j + r_j, where
    r_j = X_j(z_i = z_j) is free of z_i.  Partial fractions in z_i over
    Q(other z) are unique and the poles z_j are distinct, so the right
    side is a polynomial only if every r_j is zero: a remainder fails
    closed, and otherwise the identity is num' == sum_j q_j.  X_j goes to
    the division as the combination it is, with each coefficient of act
    scaled by m, and num' - sum_j q_j is kept in one map.  X_j is the
    same for (i, j) and (j, i), so each quotient is computed once per
    unordered pair and enters the larger index with its sign flipped.

    `partner(key, i, j)`, for a table whose action moves components,
    act(i, j, U) == ((eps, nums[s_ij U]),) with eps = +-1, is U's key
    s_ij U.  Pass it only when m eps == m + p: then

        X_ij(U) = m eps psi_{s_ij U} + (m + p) psi_U
                = (m + p) (psi_U + psi_{s_ij U}) = X_ij(s_ij U),

    so the quotient for U serves s_ij U as well, and the return value is
    the same as without it.  Returns `(i, key, fields)` for the first
    (i, key) that fails, else None."""
    quotients: dict = {}  # (i, j, key) -> X_ij(key) / (z_i - z_j) for i < j
    for i in range(1, n + 1):
        for key, num in nums.items():
            rest = dict(num.partial_derivative(i).terms)  # num' - sum_j q_j
            for j in range(1, n + 1):
                if j < i:
                    _add_into(rest, quotients.pop((j, i, key)).terms.items())
                elif j > i:
                    if (q := quotients.get((i, j, key))) is None:
                        x = (*((m * c, f) for c, f in act(i, j, key)), (m + p, num))
                        try:
                            q = quotients[(i, j, key)] = _divide_by_z_diff(x, i, j)
                        except NonDivisibleError as exc:
                            return i, key, {
                                "j": j,
                                "reason": "numerator not divisible by the pole",
                                "remainder": _clip(exc.remainder),
                            }
                        if partner is not None:
                            quotients[(i, j, partner(key, i, j))] = q
                    _add_into(rest, q.terms.items(), True)
            if rest:
                return i, key, {"difference": _clip(SparsePolynomial(n, rest))}
    return None


def check_kz(table: SolutionTable) -> CheckReport:
    """The component table satisfies the full differential system for
    its stated parameter and (possibly twisted) transposition action.

    Polynomial tables are checked with p = 0.  Fraction tables (the
    alternating twist) must share one denominator C * Delta^p, which is
    verified first by comparison with C * Delta^p (a denominator of any
    other form fails); both are then checked by `_kz_witness`: each
    pole's numerator is divided exactly, a remainder fails by uniqueness
    of partial fractions, and the quotients must sum to the derivative,
    so the denominator never enters a product.  When m eps == m + p, with
    eps = -1 on twisted tables and 1 otherwise (every polynomial table
    and every alternating twist), X_ij(U) == X_ij(s_ij U) and one
    quotient serves both; `info` names that identity when it is used."""
    comps = nums = table.components
    p, witness = 0, None
    first = next(iter(comps.values()))
    if isinstance(first, PolyFraction):
        nums = {u: c.num for u, c in comps.items()}
        if any(c.den is not first.den and c.den != first.den for c in comps.values()):
            witness = {"reason": "components do not share a denominator"}
        elif (found := _discriminant_power_of(table.lam.size, first.den)) is None:
            witness = {
                "reason": "shared denominator is not a constant times a discriminant power"
            }
        else:
            p = found[0]
    eps = -1 if table.twisted else 1

    def act(i: int, j: int, u: Tabloid) -> tuple:
        return ((eps, nums[act_transposition(u, i, j)]),)

    info = {"twisted": table.twisted}
    if witness is None:
        partner = None
        if table.m * eps == table.m + p:
            partner = act_transposition
            info["shared_quotients"] = (
                "X_ij(U) = X_ij(s_ij U) as m eps = m + p: one quotient serves both"
            )
        failure = _kz_witness(table.lam.size, table.m, p, nums, act, partner)
        if failure is not None:
            i, u, fields = failure
            witness = {"i": i, "form": str(u), **fields}
    if witness is not None:
        witness = {"cycle": str(table.cycle), **witness}
    return CheckReport("kz_system", table.lam, table.m, witness is None, witness, info)


def check_primitive(table: SolutionTable) -> CheckReport:
    """Every simple raising operator kills the solution: for each level,
    the component sums over all ways of reaching a raised tabloid vanish."""
    witness = None
    for s in range(1, len(table.lam.parts)):
        buckets: dict[Tabloid, SparsePolynomial] = {}
        for u, comp in table.components.items():
            for v in raise_row(u, s):
                cur = buckets.get(v)
                buckets[v] = comp if cur is None else cur + comp
        if bad := next(((v, total) for v, total in buckets.items() if total), None):
            witness = {
                "cycle": str(table.cycle),
                "row": s,
                "raised_tabloid": str(bad[0]),
                "sum": _clip(bad[1]),
            }
            break
    return CheckReport("highest_weight", table.lam, table.m, witness is None, witness)


# ----------------------------------------------------------------------
# polynomial shape of the answer


def _expected_leading_exponents(t: Numbering, m: int) -> tuple[int, ...]:
    n = t.size
    exps = [0] * n
    for k in range(1, n + 1):
        r, c = t.box_of(k)
        exps[k - 1] = m * (k - 1 + c - r)
    return tuple(exps)


def check_shape(fm: FundamentalMatrix) -> CheckReport:
    """Components and matrix entries are homogeneous integer polynomials
    of the closed-form degree, and each diagonal matrix entry leads (in
    the reversed-variable order) with the monomial whose exponents are
    read off the content and position of each label in the indexing
    tableau."""
    stats = diagram_stats(fm.lam, fm.m)
    degree = stats.solution_degree
    witness = None
    leading: dict[str, str] = {}

    def bad_poly(p: SparsePolynomial, where: dict) -> dict | None:
        if p.is_zero():
            return None
        if not p.is_homogeneous():
            return {**where, "reason": "not homogeneous"}
        if p.degree() != degree:
            return {**where, "reason": f"degree {p.degree()} != {degree}"}
        if not p.has_integer_coefficients():
            return {**where, "reason": "non-integer coefficient"}
        return None

    d = fm.dimension
    cells = itertools.chain(
        ((c, {"cycle": str(t.cycle), "form": str(u)}) for t in fm.tables
         for u, c in t.components.items()),
        ((fm.matrix.entry(i, j), {"row": i, "col": j, "where": "matrix"})
         for i in range(d) for j in range(d)),
    )
    witness = next(filter(None, itertools.starmap(bad_poly, cells)), None)
    if witness is None:
        for i, t in enumerate(fm.cycles):
            entry = fm.matrix.entry(i, i)
            if entry.is_zero():
                witness = {"row": i, "reason": "zero diagonal entry"}
                break
            exps, coeff = entry.leading_term()
            expected = _expected_leading_exponents(t, fm.m)
            if exps != expected:
                witness = {
                    "row": i,
                    "tableau": str(t.rows),
                    "leading": list(exps),
                    "expected": list(expected),
                }
                break
            leading[str(t.reading_word())] = str(coeff)
    info = {"degree": degree, "leading_coefficients": leading}
    return CheckReport("polynomial_shape", fm.lam, fm.m, witness is None, witness, info)


RELABELING = (
    "table(sigma C)[sigma U] = table(C)[U] with z_i -> z_sigma(i): renaming the "
    "labels in tabloids and variables alike maps KZ solutions to KZ solutions"
)


def _row_relabeling(source: Tabloid, target: Tabloid) -> tuple[int, ...]:
    """image[x-1] = sigma(x) for the sigma with sigma(source) = target that
    maps the sorted labels of each row of source to those of target."""
    image = [0] * source.size
    for row, images in zip(source.rows, target.rows):
        for x, y in zip(row, images):
            image[x - 1] = y
    return tuple(image)


def _relabeling_witness(first: SolutionTable, table: SolutionTable, image) -> dict | None:
    """First form where table differs from first relabeled by sigma, else None."""
    if (table.lam, table.m, table.twisted) != (first.lam, first.m, first.twisted):
        return {"reason": "shape, parameter or action differs from the first table"}
    for u, comp in first.components.items():
        v = Tabloid(tuple(tuple(image[x - 1] for x in row) for row in u.rows))
        expected = comp.permute_variables(image)
        if table.components[v] != expected:
            return {"form": str(v), "difference": _clip(table.components[v] - expected)}
    return None


def _kz_reports(fm: FundamentalMatrix) -> tuple[CheckReport, ...]:
    """One report per table, memoized: `run_suite`, `check_det` and the
    CLI's `verify` share it.

    `check_kz` runs in full on the first table only.  Every cycle C_k is
    sigma_k C_1, with sigma_k mapping the sorted labels of each row of C_1
    to those of C_k, and the system is unchanged by renaming labels and
    variables alike (`RELABELING`).  So table k passes when
    table(C_k)[sigma_k U] == table(C_1)[U] with z_i -> z_sigma_k(i) for
    every U, compared exactly on the stored data, and the first table
    passes; whatever built the tables, a difference or a failing first
    table fails it."""
    if "kz" not in fm._cache:
        first = fm.tables[0]
        reports = [check_kz(first)]
        for table in fm.tables[1:]:
            image = _row_relabeling(first.cycle, table.cycle)
            relabeling = {"identity": RELABELING, "from_cycle": str(first.cycle),
                          "sigma": list(image)}
            if not reports[0].passed:
                witness = {"reason": "relabeling of a first table that fails the system"}
            else:
                witness = _relabeling_witness(first, table, image)
            if witness is not None:
                witness = {"cycle": str(table.cycle), **witness, **relabeling}
            info = {"twisted": table.twisted, **relabeling}
            reports.append(
                CheckReport("kz_system", table.lam, table.m, witness is None, witness, info)
            )
        fm._cache["kz"] = tuple(reports)
    return fm._cache["kz"]


def _evaluation_point(n: int) -> tuple[int, ...]:
    return tuple(1 + k * k for k in range(n))  # (1, 2, 5, 10, ...)


def _determinant_at(fm: FundamentalMatrix, point: tuple[int, ...]):
    """det M(point), one integer determinant by the subset kernel; memoized."""
    if ("det_at", point) not in fm._cache:
        rows = [[e.evaluate(point) for e in row] for row in fm.matrix.entries]
        fm._cache["det_at", point] = _subset_minors(rows, 1).get((1 << len(rows)) - 1, 0)
    return fm._cache["det_at", point]


def _coordinates_witness(fm: FundamentalMatrix) -> dict | None:
    """First (row r, tabloid) where table r differs from sum_t M[r][t] e_t,
    by additions over the column expansions, not by the peeling in `solve`."""
    expansions = [column_expansion(t) for t in standard_tableaux(fm.lam)]
    for r, table in enumerate(fm.tables):
        residual = dict(table.components)
        for c, expansion in enumerate(expansions):
            if coeff := fm.matrix.entry(r, c):
                for sign, u in expansion:
                    residual[u] = residual[u] - coeff if sign > 0 else residual[u] + coeff
        for u, rest in residual.items():
            if rest:
                return {"row": r, "form": str(u), "difference": _clip(rest)}
    return None


def check_rank(fm: FundamentalMatrix) -> CheckReport:
    """M is invertible: passes iff det M(z0) != 0 at z0 = (1, 2, 5, 10, ...),
    the integer determinant `check_det` reuses.  Non-zero alone proves
    det M != 0; zero means C = 0 in det M = C Delta^p (`check_det`), since
    Delta(z0) != 0.  Called by `run_suite`."""
    point = list(_evaluation_point(fm.lam.size))
    if _determinant_at(fm, tuple(point)):
        info = {"certificate_point": point}
        return CheckReport("full_rank", fm.lam, fm.m, True, None, info)
    witness = {"reason": "determinant vanishes at the certificate point", "point": point}
    return CheckReport("full_rank", fm.lam, fm.m, False, witness)


def check_det(fm: FundamentalMatrix) -> CheckReport:
    """det M = C Delta^p with Delta = prod_{a<b} (z_a - z_b), p = m (chi + d)
    for chi the character of a transposition and d the dimension, and C a
    non-zero constant, reported, not prescribed.  Called by `run_suite`
    and the CLI's `det`.

    By Liouville's (Jacobi's) formula, not by expanding det M: the rows of
    M solve d_i psi = Omega_i psi, so d_i log det M = tr Omega_i =
    p sum_{j != i} 1 / (z_i - z_j), det M / Delta^p is constant, and
    C = det M(z0) / Delta(z0)^p for one point z0 with distinct coordinates,
    the point of `check_rank`.  Each premise is established here and
    fails the check with a witness naming it: `kz_system` (`check_kz` on
    the first table, the relabeling premise on the rest: `_kz_reports`),
    `specht_coordinates` (rows of M recombine to the
    tables) and `transposition_trace` (p from the trace of Young's (1 2)
    equals 2 m d_plus; with one point Delta = 1 and p plays no role).
    Delta(z0)^p must divide det M(z0): C is an integer (Gauss's lemma)."""
    lam, m, n = fm.lam, fm.m, fm.lam.size
    point = _evaluation_point(n)
    power = expected = 2 * m * diagram_stats(lam, m).d_plus
    witness = constant = None
    if kz := next((rep for rep in _kz_reports(fm) if not rep.passed), None):
        witness = {"premise": kz.check, **kz.witness}
    elif mismatch := _coordinates_witness(fm):
        witness = {"premise": "specht_coordinates", **mismatch}
    elif n > 1:
        mat = _specht_transposition_matrix(lam, 1, 2)
        trace = sum(mat[k][k] for k in range(len(mat)))
        if (power := m * (trace + len(mat))) != expected:
            witness = dict(premise="transposition_trace", trace=trace, expected=expected)
    delta = math.prod(a - b for a, b in itertools.combinations(point, 2))
    if witness is None and not delta:
        witness = dict(reason="evaluation point has a repeated coordinate", point=[*point])
    elif witness is None:
        value = _determinant_at(fm, point)
        constant, rest = divmod(value, delta**power)
        if rest or not constant:
            reason = "Delta(z0)^p does not divide det M(z0)" if rest else "det M(z0) = 0"
            witness = {"reason": reason, "point": list(point), "value": _clip(value)}
    info = {
        "power": power,
        "constant": None if witness else str(constant),
        "identity": "d_i log det M = tr Omega_i (Jacobi), so det M = C Delta^p, "
        "C = det M(z0) / Delta(z0)^p",
        "premises": ["kz_system", "specht_coordinates", "transposition_trace"],
        "point": list(point),
    }
    return CheckReport("determinant_identity", lam, m, witness is None, witness, info)


# ----------------------------------------------------------------------
# symmetry


def check_equivariance(fm: FundamentalMatrix) -> CheckReport:
    """Every stored component is the paper's integral: for every table and
    every form U, table(C)[U] equals `solve_component` at (C, U), the
    direct residue path.

    The solver builds most entries by relabeling one integral per orbit
    (`RELABELING`, `solve._orbit_component`), so this proves that identity
    at exactly the sigma the solver used, on the data the other checks
    read; were both sides built by the orbit path, it would prove nothing.
    Non-standard cycles belong to no table, so their orbit-built values
    are not compared here (`check_straightening` solves them)."""
    witness, pairs = None, 0
    cells = ((t.cycle, u, c) for t in fm.tables for u, c in t.components.items())
    for pairs, (cycle, u, comp) in enumerate(cells, start=1):
        if comp != (direct := solve_component(fm.lam, fm.m, cycle, u)):
            witness = {"cycle": str(cycle), "form": str(u), "difference": _clip(comp - direct)}
            break
    info = {"pairs": pairs, "identity": RELABELING}
    return CheckReport("equivariance", fm.lam, fm.m, witness is None, witness, info)


def check_frobenius(lam: Partition) -> CheckReport:
    """The sum of all transpositions acts on the Specht module as the
    content-sum scalar: sum_{i<j} rho(i j) = f2 I on Young's matrices
    (a pure representation-theory identity, no solving involved).  These
    are the matrices that `check_det` and `check_dual` read; the witness
    is the first standard tableau whose column of the sum is wrong."""
    n, stds = lam.size, standard_tableaux(lam)
    f2 = diagram_stats(lam, 1).f2
    mats = [
        _specht_transposition_matrix(lam, i, j)
        for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    witness = None
    for c, t in enumerate(stds):
        column = [sum(mat[r][c] for mat in mats) for r in range(len(stds))]
        if column != [f2 if r == c else 0 for r in range(len(stds))]:
            witness = {"tableau": str(t.rows)}
            break
    return CheckReport("content_sum_action", lam, None, witness is None, witness)


# ----------------------------------------------------------------------
# duality and the straightening of non-standard cycles


@cache
def _specht_transposition_matrix(
    lam: Partition, i: int, j: int
) -> tuple[tuple[int, ...], ...]:
    """Integer matrix M with (i j) . v_col = sum_row M[row][col] v_row
    (Young's natural representation), read off the tabloid expansion.
    Memoized, so a tuple of tuples that no caller can change."""
    stds = standard_tableaux(lam)
    d = len(stds)
    cols = []
    for t in stds:
        vec: dict[Tabloid, int] = {}
        for sign, u in column_expansion(t):
            v = act_transposition(u, i, j)
            vec[v] = vec.get(v, 0) + sign
        cols.append(coordinates_in_specht_basis(lam, lambda u: vec.get(u, 0)))
    return tuple(tuple(cols[c][r] for c in range(d)) for r in range(d))


def check_dual(fm: FundamentalMatrix) -> CheckReport:
    """Rows of the transposed-inverse matrix solve the parameter-negated
    system in the coordinates dual to the polytabloid basis.  Exported for
    callers and perfbench; `run_suite` does not call it.

    It rests on two identities, proved here and named in its report.  The
    adjugate identity makes the rows the transposed inverse: `dual_matrix`
    asserts it exactly on the matrix with its z-difference content
    stripped (see `det_adjugate`).  The determinant identity: the shared
    denominator dm.det from that same pass is C * Delta^p, by comparison
    with C * Delta^p (`_discriminant_power_of`), so
    d_i det / det = p sum_{l != i} 1 / (z_i - z_l) and `_kz_witness`
    checks the system by pole division.
    A failure of either fails this check; neither `check_det` nor a
    symbolic determinant of M is called.  The dual is the one
    `dual_matrix(fm)` keeps on `fm`, so a dual the caller already built
    is not built again."""
    lam = fm.lam
    n = lam.size
    info = {
        "precondition": "determinant_identity",
        "adjugate_identity": "M' adj(M') == det(M') I, M' = M stripped of z-differences",
    }
    try:
        dm = dual_matrix(fm)
    except ArithmeticError as exc:
        return CheckReport("dual_system", lam, -fm.m, False, {"reason": str(exc)}, info)
    info["det_degree"] = dm.det.degree()
    if (found := _discriminant_power_of(n, dm.det)) is None:
        witness = {
            "precondition": "determinant_identity",
            "reason": "dual denominator is not a constant times a discriminant power",
        }
        return CheckReport("dual_system", lam, dm.m, False, witness, info)
    d = dm.dimension
    nums = {(b, j): dm.entries.entry(b, j).num for b in range(d) for j in range(d)}

    def act(i: int, l: int, key: tuple[int, int]) -> list:
        b, jcol = key
        mat = _specht_transposition_matrix(lam, min(i, l), max(i, l))
        return [(mat[k][jcol], nums[(b, k)]) for k in range(d) if mat[k][jcol]]

    failure = _kz_witness(n, dm.m, found[0], nums, act)
    witness = None
    if failure is not None:
        i, (b, jcol), fields = failure
        witness = {"i": i, "dual_row": b, "coordinate": jcol, **fields}
    return CheckReport("dual_system", lam, dm.m, witness is None, witness, info)


def quotient_coordinates(lam: Partition, cycle: Tabloid) -> list[int]:
    """Integer coordinates of a tabloid class against the standard-tableau
    classes (in `standard_tableaux(lam)` order), modulo the span of all
    simple lowering images.

    Lowering one label from row s to row s+1 is adjoint to `raise_row(., s)`
    under <{u},{v}> = delta_uv, and over Q the raising kernels meet in S^lam
    (James's kernel intersection theorem), so the quotient is dual to S^lam:
    [{u}] = sum_t y_t [{t}] exactly when sum_t y_t <{t}, e_s> = <{u}, e_s>
    for every standard s.  In `shapes.row_word` order that system is
    unitriangular with +-1 entries, so back-substitution from the last s
    solves it without division.
    """
    if cycle.shape != lam.parts:
        raise ValueError(f"cycle {cycle} does not have shape {lam}")
    stds = standard_tableaux(lam)
    standard = {t.tabloid(): t for t in stds}
    coords: dict[Numbering, int] = {}
    for s in sorted(stds, key=row_word, reverse=True):
        # y_s = <{u}, e_s> - sum over later t of y_t <{t}, e_s>
        y = 0
        for sign, u in column_expansion(s):
            if u == cycle:
                y += sign
            if (t := standard.get(u)) in coords:
                y -= sign * coords[t]
        coords[s] = y
    return [coords[t] for t in stds]


def check_straightening(lam: Partition, m: int, cycle: Tabloid) -> CheckReport:
    """A non-standard cycle's table equals the combination of standard
    cycles' tables given by straightening its class in the quotient by
    lowering images (`quotient_coordinates`).  That quotient is paired
    with S^lam, the common kernel of the raising operators, in which
    `check_primitive` (report `highest_weight`) proves every table lies."""
    coords = quotient_coordinates(lam, cycle)
    stds = standard_tableaux(lam)
    target = solve_cycle(lam, m, cycle)
    basis = [solve_cycle(lam, m, t.tabloid()) for t in stds]
    witness = None
    for u in tabloids(lam.parts):
        combined = SparsePolynomial.zero(lam.size)
        for y, table in zip(coords, basis):
            if y:
                combined = combined + table.components[u] * y
        if combined != target.components[u]:
            witness = {
                "cycle": str(cycle),
                "form": str(u),
                "difference": _clip(target.components[u] - combined),
            }
            break
    info = {
        "coordinates": [str(c) for c in coords],
        "identity": "M^lam / lowering images is dual to S^lam = kernel of the raisings "
        "(James), so [{u}] = sum_t y_t [{t}] iff <{u}, e_s> = sum_t y_t <{t}, e_s>",
        "premises": ["highest_weight"],
    }
    return CheckReport("straightening", lam, m, witness is None, witness, info)


# ----------------------------------------------------------------------
# the reflection representation families


def _reflection_witness(n: int, m: int, psis, phis) -> dict | None:
    for k in range(n):
        if sum((psi.components[k] for psi in psis), SparsePolynomial.zero(n)):
            return {"reason": "residue family does not sum to zero", "component": k + 1}
    for phi in phis:
        if sum((comp.num for comp in phi.components), SparsePolynomial.zero(n)):
            return {"reason": "path family coordinate sum is not zero", "index": phi.index}
    # each path member's numerators scaled once to integers by the lcm L of
    # their denominators: E (L f) = L E f with L != 0, so the translation
    # test runs on them, and so does the pairing
    scaled = []
    for phi in phis:
        nums = [comp.num for comp in phi.components]
        scale = math.lcm(*(c.denominator for num in nums for c in num.terms.values()))
        scaled.append((phi.index, scale, [num * scale for num in nums]))
    families = [("residue", psi.index, psi.components) for psi in psis]
    families += [("path", index, nums) for index, _, nums in scaled]
    for family, index, comps in families:
        for k, comp in enumerate(comps, start=1):
            if _translation_defect(comp):
                return {
                    "reason": "not translation invariant: sum_i d/dz_i f != 0",
                    "family": family,
                    "index": index,
                    "component": k,
                }
    # the first n-1 residue solutions form the basis dual to the path
    # family; the last one is minus their sum and pairs to -1/m with
    # everything, so it stays out of the delta identity
    disc = discriminant_power(n, 2 * m).restrict_last_to_zero()
    sliced = [
        (index, scale, [num.restrict_last_to_zero().terms for num in nums])
        for index, scale, nums in scaled
    ]
    for psi in psis[: n - 1]:
        comps = [c.restrict_last_to_zero().terms for c in psi.components]
        for index, scale, nums in sliced:
            acc: dict = {}  # sum_k comps[k] * nums[k], accumulated in one map
            for a, b in zip(comps, nums):
                _mul_into(acc, a, b)
            paired = SparsePolynomial(n, acc)
            expected = disc * scale if psi.index == index else SparsePolynomial.zero(n)
            if paired * m != expected:
                return {
                    "reason": "pairing is not delta_ab/m on z_n = 0",
                    "a": psi.index,
                    "b": index,
                    "difference": _clip((paired * m - expected) * Fraction(1, scale)),
                }
    return None


def check_reflection(n: int, m: int) -> CheckReport:
    """The fixed-point residue family sums to zero, each path family
    member has coordinate sum zero, and the two families pair to
    delta_{ab}/m (checked cross-multiplied against the squared
    discriminant power).

    The pairing is checked on the slice z_n = 0 only, after a
    translation-invariance step proves E f = 0, E = sum_i d/dz_i, for
    every residue-family component and every path numerator f.  Then
    f(z) = f(z - z_n (1, ..., 1)) for each of them, hence for every
    product of them, and Delta^{2m} is a product of differences; so the
    pairing identity holds everywhere if it holds at z_n = 0
    (restriction is a ring homomorphism).  The path numerators carry
    rational coefficients; each member is scaled once by the lcm L of
    their denominators, so the translation step (E (L f) = L E f, L != 0)
    and the pairing run on integer polynomials, the pairing compared
    against L times the discriminant power.  Each pairing sum_k a_k b_k
    is accumulated in one map."""
    return _reflection_report(
        n, m, reflection_solutions(n, m), reflection_dual_solutions(n, m)
    )


def _reflection_report(n: int, m: int, psis, phis) -> CheckReport:
    """`check_reflection` on families already built: `psis` from
    `reflection_solutions(n, m)` and `phis` from
    `reflection_dual_solutions(n, m)`."""
    lam = Partition((n - 1, 1))
    witness = _reflection_witness(n, m, psis, phis)
    info = {"translation_invariance": "sum_i d/dz_i kills every factor; pairing at z_n = 0"}
    return CheckReport("reflection_families", lam, m, witness is None, witness, info)


# ----------------------------------------------------------------------
# the whole battery


def run_suite(
    lam: Partition, m: int, *, budget: int = DEFAULT_BUDGET
) -> list[CheckReport]:
    """Solve the full fundamental system for a shape and run every
    applicable check on it."""
    fm = fundamental_solution(lam, m, budget=budget)
    reports: list[CheckReport] = []

    def aggregate(name: str, per_table, **info) -> CheckReport:
        for rep in per_table:
            if not rep.passed:
                return rep
        return CheckReport(name, lam, m, True, None, {"cycles": fm.dimension, **info})

    reports.append(aggregate(
        "kz_system", _kz_reports(fm),
        checked_in_full=1, by_relabeling=fm.dimension - 1, identity=RELABELING,
    ))
    reports.append(aggregate("highest_weight", map(check_primitive, fm.tables)))
    reports.append(check_shape(fm))
    reports.append(check_rank(fm))
    reports.append(check_equivariance(fm))
    if lam.size <= 6:
        reports.append(check_frobenius(lam))
    reports.append(check_det(fm))
    return reports
