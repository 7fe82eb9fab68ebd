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
from functools import cache, reduce

from ._frozen import Frozen
from .exactalg import (
    NonDivisibleError,
    SparsePolynomial,
    _add_into,
    _discriminant,
    _divide_by_z_diff,
    _least_content,
    _linear_combination,
    _mul_into,
    _subset_minors,
    _times_content,
    _translation_defect,
)
from .shapes import (
    DEFAULT_BUDGET,
    Numbering,
    Partition,
    Tabloid,
    _require_partition,
    act_transposition,
    column_expansion,
    diagram_stats,
    raise_row,
    relabel,
    standard_tableaux,
)
from .solve import (
    FundamentalMatrix,
    SolutionTable,
    _peeling_schedule,
    _require_tabloids,
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

    __slots__ = ("check", "lam", "m", "witness", "info")

    def __init__(
        self, check: str, lam: Partition | None, m: int | None,
        witness: dict | None = None, info: dict | None = None,
    ) -> None:
        self._set(check, lam, m, witness, {} if info is None else info)

    @property
    def passed(self) -> bool:
        return self.witness is None

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


def _clip(obj) -> str:
    s = str(obj)
    return s if len(s) <= 300 else s[:297] + "..."


# ----------------------------------------------------------------------
# the differential system


def _kz_witness(n: int, m: int, p: int, nums: dict, act, content=None):
    """First failure of the KZ system for components `content * nums[key]
    / den` sharing a denominator den = C * Delta^p, C a non-zero constant
    (p = 0 and C = 1 for polynomial components), and a z-difference
    content, prod (z_a - z_b)^c_ab over the pairs of `content` (default
    none); `act(i, j, key)` is the core at `key` of the transposition
    (i j) applied to the whole vector, given as the combination it is:
    (coefficient, polynomial) pairs of scalars and polynomials, so the
    acted core is never built.  act(i, j, .) == act(j, i, .).

    Precondition (the caller's to establish): den has that form.  Then
    d_i den / den = p sum_{j != i} 1 / (z_i - z_j), the content gives
    d_i content / content = sum_{j != i} c_ij / (z_i - z_j) (c_ij = c_ji,
    in either orientation of the pair), and dividing the system by the
    content leaves, for num = nums[key],

        num' == sum_{j != i} X_j / (z_i - z_j),
        X_j = m act(i, j, key) + (m + p - c_ij) num

    with ' = d/dz_i.  Write X_j = (z_i - z_j) q_j + r_j, where
    r_j = X_j(z_i = z_j) is free of z_i.  Partial fractions in z_i over
    Q(other z) are unique and the poles z_j are distinct, so the right
    side is a polynomial only if every r_j is zero: a remainder fails
    closed, and otherwise the identity is num' == sum_j q_j.  X_j goes to
    the division as the combination it is, with each coefficient of act
    scaled by m, and num' - sum_j q_j is kept in one map.  Every (i, key)
    is checked, i ascending, then key in `nums` order.  X_j is the same
    for (i, j) and (j, i), so each quotient is computed once per
    unordered pair and key, at the smaller index, and enters the larger
    with its sign flipped.  Returns `(i, key, fields)` for the first
    (i, key) that fails, else None."""
    quotients: dict = {}  # (i, j, key) -> X_ij(key) / (z_i - z_j) for i < j
    content = content or {}
    for i in range(1, n + 1):
        for key, num in nums.items():
            rest = dict(num.partial_derivative(i).terms)  # num' - sum_j q_j
            for j in range(1, n + 1):
                if j < i:  # divided at the equation (j, key)
                    _add_into(rest, quotients.pop((j, i, key)).terms.items())
                elif j > i:
                    own = m + p - content.get((i, j), 0)
                    x = (*((m * c, f) for c, f in act(i, j, key)), (own, num))
                    try:
                        q = quotients[(i, j, key)] = _divide_by_z_diff(x, i, j)
                    except NonDivisibleError as exc:
                        return i, key, {
                            "j": j,
                            "reason": "numerator not divisible by the pole",
                            "remainder": _clip(exc.remainder),
                        }
                    _add_into(rest, (-q).terms.items())
            if rest:
                return i, key, {"difference": _clip(SparsePolynomial(n, rest))}
    return None


def check_kz(table: SolutionTable) -> CheckReport:
    """The component table satisfies the full differential system for
    its stated parameter and (possibly twisted) transposition action.

    Polynomial tables (`den` None) are checked with p = 0.  A table with
    a `den` (the alternating twist) holds numerators over that one
    denominator, which must be C * Delta^p: that is read off its fields
    first (`ContentPolynomial.discriminant_form`; any other form fails).
    Both are then checked by `_kz_witness` on the cores q_U of the
    numerators psi_U = C q_U, C = prod (z_a - z_b)^c_ab the z-difference
    content all the non-zero numerators share: dividing the system by C
    leaves

        q_U' = sum_{j != i} [m eps q_{s_ij U} + (m + p - c_ij) q_U] / (z_i - z_j),

    which holds exactly where the system on the numerators does, and
    neither C nor the denominator enters a product; eps = -1 on twisted
    tables and 1 otherwise.  Every (i, U) is checked, so the witness is
    the first failing equation in `_kz_witness`'s order, and `info`
    counts them (`equations`, N |M^lam|).  The keys, their order and the
    numerators' ring are `SolutionTable`'s.

    The denominator step runs on every call.  The rest is kept on the
    table (`SolutionTable._cache`) under the key (m eps, m + p), the two
    coefficients of X_ij: the witness and the `info` of the proof that
    made the record.  A later call with that key reads it, so its `info`
    says how the verdict was proved: by this check, or by `RELABELING`
    (written by `_kz_reports`).  A table and its alternating twist share
    one record and one key, (m, m); a report read across the twist also
    names that identity (`TWIST`).  The record stands for the components
    as they were checked, which must not be changed in place."""
    found = (0, 1) if table.den is None else table.den.discriminant_form()
    info, witness = {"twisted": table.twisted}, None
    if found is None:
        witness = {"reason": "shared denominator is not a constant times a discriminant power"}
    else:
        p = found[0]
        key = _record_key(table, p)
        if (record := table._cache.get(key)) is None:
            record = table._cache[key] = _kz_proof(table, p)
        witness, made = record
        info = {**made, "twisted": table.twisted}
        if made["twisted"] != table.twisted:
            info["twist"] = TWIST
    if witness is not None:
        witness = {"cycle": str(table.cycle), **witness}
    return CheckReport("kz_system", table.lam, table.m, witness, info)


TWIST = (
    "X_ij = m psi_{s_ij U} + m psi_U on the numerators of a table and of its alternating "
    "twist (parameter -m, p = 2m, eps = -1): one proof serves both"
)


def _record_key(table: SolutionTable, p: int) -> tuple[int, int]:
    """(m eps, m + p): the coefficients of X_ij, which with the numerators
    fix every equation `_kz_witness` checks."""
    return (-table.m if table.twisted else table.m), table.m + p


def _kz_proof(table: SolutionTable, p: int) -> tuple[dict | None, dict]:
    """`check_kz` past its denominator step: every (i, U) checked on the
    cores over the content the components share.  Returns (witness
    without the cycle, info)."""
    n = table.lam.size
    comps = table.components
    eps = -1 if table.twisted else 1
    shared = _least_content(c.content for c in comps.values() if c)
    cores = {u: c.expand_over(shared) for u, c in comps.items()}

    def act(i: int, j: int, u: Tabloid) -> tuple:
        return ((eps, cores[act_transposition(u, i, j)]),)

    info = {"twisted": table.twisted, "equations": n * len(cores)}
    failure = _kz_witness(n, table.m, p, cores, act, shared)
    if failure is None:
        return None, info
    i, u, fields = failure
    return {"i": i, "form": str(u), **fields}, info


def check_primitive(table: SolutionTable) -> CheckReport:
    """Every simple raising operator kills the solution: for each level,
    the component sums over all ways of reaching a raised tabloid vanish."""
    witness = None
    for s in range(1, len(table.lam.parts)):
        buckets: dict[Tabloid, list] = {}
        for u, comp in table.components.items():
            for v in raise_row(u, s):
                buckets.setdefault(v, []).append((1, comp))
        totals = ((v, _linear_combination(terms)) for v, terms in buckets.items())
        if bad := next(((v, total) for v, total in totals if total), None):
            witness = {
                "cycle": str(table.cycle),
                "row": s,
                "raised_tabloid": str(bad[0]),
                "sum": _clip(bad[1]),
            }
            break
    return CheckReport("highest_weight", table.lam, table.m, witness)


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
    tableau.  Each cell is a `ContentPolynomial`: degree, homogeneity,
    integrality (Gauss's lemma) and the leading term are read off its
    core and content, never from an expansion."""
    stats = diagram_stats(fm.lam, fm.m)
    degree = stats.solution_degree
    witness = None
    leading: dict[str, str] = {}

    def bad_poly(p, where: dict) -> dict | None:
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
        ((fm.matrix[i][j], {"row": i, "col": j, "where": "matrix"})
         for i in range(d) for j in range(d)),
    )
    witness = next(filter(None, itertools.starmap(bad_poly, cells)), None)
    if witness is None:
        for i, t in enumerate(fm.cycles):
            entry = fm.matrix[i][i]
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
    return CheckReport("polynomial_shape", fm.lam, fm.m, witness, info)


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


def _relabeling_witness(source: dict, target: dict, image):
    """First key U of `source`, in order, with target[sigma U] !=
    source[U] with z_i -> z_sigma(i), where image[x-1] = sigma(x), else
    None: `RELABELING` checked on the components of two tables."""
    for u, comp in source.items():
        if target[relabel(u, image)] != comp.permute_variables(image):
            return u
    return None


def _kz_reports(fm: FundamentalMatrix) -> tuple[CheckReport, ...]:
    """One report per table, memoized: `run_suite`, `check_det` and the
    CLI's `verify` share it.

    `check_kz` runs on the first table only.  Every cycle C_k is
    sigma_k C_1, with sigma_k mapping the sorted labels of each row of C_1
    to those of C_k, and the system is unchanged by renaming labels and
    variables alike (`RELABELING`).  So table k passes when
    table(C_k)[sigma_k U] == table(C_1)[U] with z_i -> z_sigma_k(i) for
    every U, compared exactly on the stored data (`_relabeling_witness`),
    and the first table passes; whatever built the tables, a difference
    or a failing first table fails it.  `FundamentalMatrix` admits only
    polynomial tables of its own shape and parameter, so any two of its
    tables can be compared this way.

    Each table k >= 2 that passes so gets a KZ record (see `check_kz`)
    holding this report's info, `RELABELING`, `from_cycle` and `sigma`,
    unless it already has one: a later `check_kz` on it, or on its
    alternating twist, which shares the record, reads that proof."""
    if "kz" not in fm._cache:
        first = fm.tables[0]
        reports = [check_kz(first)]
        for table in fm.tables[1:]:
            image = _row_relabeling(first.cycle, table.cycle)
            relabeling = {"identity": RELABELING, "from_cycle": str(first.cycle),
                          "sigma": list(image)}
            witness = None
            if not reports[0].passed:
                witness = {"reason": "relabeling of a first table that fails the system"}
            elif (u := _relabeling_witness(first.components, table.components, image)) is not None:
                v, moved = relabel(u, image), first.components[u].permute_variables(image)
                witness = {"form": str(v), "difference": _clip(table.components[v] - moved)}
            info = {"twisted": table.twisted, **relabeling}
            if witness is not None:
                witness = {"cycle": str(table.cycle), **witness, **relabeling}
            else:  # polynomial components: p = 0
                table._cache.setdefault(_record_key(table, 0), (None, info))
            reports.append(CheckReport("kz_system", table.lam, table.m, witness, info))
        fm._cache["kz"] = tuple(reports)
    return fm._cache["kz"]


def _evaluation_point(n: int) -> tuple[int, ...]:
    return tuple(1 + k * k for k in range(n))  # (1, 2, 5, 10, ...)


def _determinant_at(fm: FundamentalMatrix):
    """det M(z0), one integer determinant by the subset kernel."""
    point = _evaluation_point(fm.lam.size)
    rows = [[e.evaluate(point) for e in row] for row in fm.matrix]
    return _subset_minors(rows, 1).get((1 << len(rows)) - 1, 0)


def _coordinates_witness(fm: FundamentalMatrix) -> dict | None:
    """First (row r, tabloid) where table r differs from sum_t M[r][t] e_t,
    by additions over the column expansions, not by the peeling in `solve`."""
    expansions = [column_expansion(t) for t in standard_tableaux(fm.lam)]
    for r, table in enumerate(fm.tables):
        residual = {u: [(1, comp)] for u, comp in table.components.items()}
        for c, expansion in enumerate(expansions):
            if coeff := fm.matrix[r][c]:
                for sign, u in expansion:
                    residual[u].append((-sign, coeff))
        for u, terms in residual.items():
            if rest := _linear_combination(terms):
                return {"row": r, "form": str(u), "difference": _clip(rest)}
    return None


def check_rank(fm: FundamentalMatrix) -> CheckReport:
    """M is invertible: passes iff det M(z0) != 0 at z0 = (1, 2, 5, 10, ...),
    the integer determinant `check_det` also computes.  Non-zero alone proves
    det M != 0; zero means C = 0 in det M = C Delta^p (`check_det`), since
    Delta(z0) != 0.  Each entry is evaluated as its core's value times
    the content's, so no entry is expanded.  Called by `run_suite`."""
    point = list(_evaluation_point(fm.lam.size))
    witness, info = None, {"certificate_point": point}
    if not _determinant_at(fm):
        witness = {"reason": "determinant vanishes at the certificate point", "point": point}
        info = None
    return CheckReport("full_rank", fm.lam, fm.m, witness, info)


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
        value = _determinant_at(fm)
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
    return CheckReport("determinant_identity", lam, m, witness, info)


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
    return CheckReport("equivariance", fm.lam, fm.m, witness, info)


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
    return CheckReport("content_sum_action", lam, None, witness)


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
    stripped (see `det_adjugate`).  The determinant identity: dm.det from
    that same pass, the one denominator of every entry (`DualMatrix`
    stores the adjugate numerators over it), is C * Delta^p, read off its
    fields (`DualMatrix` refuses any other form), so d_i det / det =
    p sum_{l != i} 1 / (z_i - z_l), and `_kz_witness` checks the system
    by pole division on the numerators' cores, as `check_kz` does (self
    coefficient m + p - c_il), row by row: the equations of a dual row
    read that row alone, so each row's shared content is divided out.
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
    except (ArithmeticError, ValueError) as exc:  # the adjugate identity, det's form
        witness = {"reason": str(exc)}
        if isinstance(exc, ValueError):
            witness = {"precondition": "determinant_identity", **witness}
        return CheckReport("dual_system", lam, -fm.m, witness, info)
    info["det_degree"] = dm.det.degree()
    d = dm.dimension
    cores: dict = {}  # (row, coordinate) -> numerator over its row's content

    def act(i: int, l: int, key: tuple[int, int]) -> list:
        b, jcol = key
        mat = _specht_transposition_matrix(lam, min(i, l), max(i, l))
        return [(mat[k][jcol], cores[(b, k)]) for k in range(d) if mat[k][jcol]]

    p, _ = dm.det.discriminant_form()
    failures = []
    for b, row in enumerate(dm.entries):
        shared = _least_content(e.content for e in row if e)
        own = {(b, j): e.expand_over(shared) for j, e in enumerate(row)}
        cores.update(own)
        if failure := _kz_witness(n, dm.m, p, own, act, content=shared):
            failures.append(failure)
    witness = None
    if failures:  # each row's first failure; the earliest is the full order's
        i, (b, jcol), fields = min(failures, key=lambda f: f[:2])
        witness = {"i": i, "dual_row": b, "coordinate": jcol, **fields}
    return CheckReport("dual_system", lam, dm.m, witness, info)


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
    _require_partition(lam)
    _require_tabloids(cycle)
    if cycle.shape != lam.parts:
        raise ValueError(f"cycle {cycle} does not have shape {lam}")
    schedule = _peeling_schedule(lam)
    standard = {head: t for t, head, _ in schedule}
    coords: dict[Numbering, int] = {}
    for s, head, rest in reversed(schedule):
        # y_s = <{u}, e_s> - sum over later t of y_t <{t}, e_s>; {s} is e_s's
        # head, with sign +1, and s has no y yet
        y = int(head == cycle)
        for sign, u in rest:
            if u == cycle:
                y += sign
            if (t := standard.get(u)) in coords:
                y -= sign * coords[t]
        coords[s] = y
    return [coords[t] for t in standard_tableaux(lam)]


def check_straightening(lam: Partition, m: int, cycle: Tabloid) -> CheckReport:
    """A non-standard cycle's table equals the combination of standard
    cycles' tables given by straightening its class in the quotient by
    lowering images (`quotient_coordinates`).  That quotient is paired
    with S^lam, the common kernel of the raising operators, in which
    `check_primitive` (report `highest_weight`) proves every table lies.
    The standard tables are those of `fundamental_solution`, so the guard
    prices the point before any solving."""
    coords = quotient_coordinates(lam, cycle)
    basis = fundamental_solution(lam, m).tables
    target = solve_cycle(lam, m, cycle)
    witness = None
    for u, value in target.components.items():
        terms = [(1, value)] + [(-y, table.components[u]) for y, table in zip(coords, basis) if y]
        if difference := _linear_combination(terms):
            witness = {"cycle": str(cycle), "form": str(u), "difference": _clip(difference)}
            break
    info = {
        "coordinates": [str(c) for c in coords],
        "identity": "M^lam / lowering images is dual to S^lam = kernel of the raisings "
        "(James), so [{u}] = sum_t y_t [{t}] iff <{u}, e_s> = sum_t y_t <{t}, e_s>",
        "premises": ["highest_weight"],
    }
    return CheckReport("straightening", lam, m, witness, info)


# ----------------------------------------------------------------------
# the reflection representation families


def _reflection_witness(n: int, m: int, psis, phis) -> dict | None:
    """First failure of `check_reflection`'s identities, in the order
    its docstring gives, else None.  A residue member with a `den`, or a
    path member whose `den` is not Delta^{2m}, fails first, by name."""
    disc = _discriminant(n, 2 * m)
    for psi in psis:
        if psi.den is not None:
            return {"reason": "residue family member is not polynomial", "index": psi.index}
    for phi in phis:
        if phi.den != disc:
            return {"reason": "path family denominator is not Delta^{2m}", "index": phi.index}
    scaled = []  # (index, L, the numerators times L) per path member
    for phi in phis:
        nums = phi.components
        scale = math.lcm(*(c.denominator for num in nums for c in num.terms.values()))
        scaled.append((phi.index, scale, [
            SparsePolynomial(n, {k: c.numerator * (scale // c.denominator)
                                 for k, c in num.terms.items()})
            for num in nums
        ]))
    # E (C q) = C E q, as E kills every z_i - z_j: the residue members' cores
    families = [("residue", psi.index, [c.core for c in psi.components]) for psi in psis]
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
    # from here on every value is translation invariant: zero iff its slice is
    residues = [[c.restrict_last_to_zero() for c in psi.components] for psi in psis]
    for k in range(n):
        if _linear_combination([(1, comps[k]) for comps in residues]):
            return {"reason": "residue family does not sum to zero", "component": k + 1}
    sliced = [
        (index, scale, [num.restrict_last_to_zero().terms for num in nums])
        for index, scale, nums in scaled
    ]
    for index, _, nums in sliced:
        if reduce(_add_into, (terms.items() for terms in nums), {}):
            return {"reason": "path family coordinate sum is not zero", "index": index}
    # the first n-1 residue solutions form the basis dual to the path
    # family; the last one is minus their sum and pairs to -1/m with
    # everything, so it stays out of the delta identity
    disc = disc.restrict_last_to_zero()
    for psi, comps in zip(psis[: n - 1], residues):
        common = _least_content([disc.content, *(c.content for c in comps if c)])
        parts = [c.expand_over(common).terms for c in comps]
        target = disc.expand_over(common)
        for index, scale, nums in sliced:
            acc: dict = {}  # sum_k parts[k] * nums[k], accumulated in one map
            for a, b in zip(parts, nums):
                _mul_into(acc, a, b)
            paired = SparsePolynomial(n, acc)
            expected = target * scale if psi.index == index else SparsePolynomial.zero(n)
            if paired * m != expected:
                difference = _times_content((paired * m - expected) * Fraction(1, scale), common)
                return {
                    "reason": "pairing is not delta_ab/m on z_n = 0",
                    "a": psi.index,
                    "b": index,
                    "difference": _clip(difference),
                }
    return None


def check_reflection(n: int, m: int) -> CheckReport:
    """The fixed-point residue family sums to zero, each path family
    member has coordinate sum zero, and the two families pair to
    delta_{ab}/m (checked cross-multiplied against the squared
    discriminant power Delta^{2m}, which must be each path member's
    `den`; the residue members hold polynomials, `den` None).

    Nothing is expanded.  First E f = 0, E = sum_i d/dz_i, is proved for
    every residue component, on its core (E (C q) = C E q, as E kills
    each z_i - z_j; all n members), and for every path numerator f, each
    path member scaled once to integers by the lcm L of its coefficients'
    denominators (E (L f) = L E f, L != 0).  Then f(z) =
    f(z - z_n (1, ..., 1)) for each of them, hence for their sums and
    products, and Delta^{2m} is a product of differences; so the family
    sums and the pairing identity hold everywhere if they hold on the
    slice z_n = 0 (restriction is a ring homomorphism), where a content
    value's (z_i - z_n)^e is z_i^e, a shift of its core's keys
    (`ContentPolynomial.restrict_last_to_zero`).  Each pairing
    sum_k a_k (L b_k) is accumulated in one map and compared with
    L Delta^{2m}, with the content both sides share divided out."""
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
    return CheckReport("reflection_families", lam, m, witness, info)


# ----------------------------------------------------------------------
# the whole battery


def run_suite(
    lam: Partition, m: int, *, budget: int = DEFAULT_BUDGET
) -> list[CheckReport]:
    """Solve the full fundamental system for a shape and run every
    applicable check on it; `highest_weight` and `polynomial_shape` read
    every table."""
    fm = fundamental_solution(lam, m, budget=budget)
    reports: list[CheckReport] = []

    def aggregate(name: str, per_table, **info) -> CheckReport:
        for rep in per_table:
            if not rep.passed:
                return rep
        return CheckReport(name, lam, m, None, {"cycles": fm.dimension, **info})

    kz = _kz_reports(fm)
    reports.append(aggregate(
        "kz_system", kz, checked_by_check_kz=1, by_relabeling=fm.dimension - 1,
        identity=RELABELING, equations=kz[0].info.get("equations"),
    ))
    reports.append(aggregate("highest_weight", map(check_primitive, fm.tables)))
    reports.append(check_shape(fm))
    reports.append(check_rank(fm))
    reports.append(check_equivariance(fm))
    reports.append(check_frobenius(lam))
    reports.append(check_det(fm))
    return reports
