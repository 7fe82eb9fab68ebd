"""Solution tables for the symmetric-group KZ system.

A solution attached to a cycle tabloid is assembled component by
component: the component at a tabloid U is the iterated residue of the
level-interaction form times the (symmetrized) anchor-chain form of U,
evaluated on the residue schedule of the cycle.  Reading the components
at standard tabloids against the polytabloid expansion yields the
square fundamental matrix indexed by standard tableaux.

The symmetrization deserves a comment, since a sign is at stake.  The
cycle is the signed average over the level group G (all permutations of
same-level variables) of pushforwards of one torus.  Pulling each
summand back to the fixed torus turns the pushforward into a relabeling
of the anchor-chain factors *and* a reordering of the volume element,
whose sign exactly cancels the skew-symmetrizing sign.  What remains is
the plain, unsigned sum over relabelings implemented here; the signed
variant would (and in tests does) break row-equivalence invariance and
the differential equations themselves for shapes where the level group
is non-trivial, e.g. (2,2).

The system is S_N-equivariant: renaming the labels 1..N by sigma in the
tabloids and in the variables alike maps solutions to solutions, so
cycle_integral(sigma C, sigma U) is cycle_integral(C, U) with each z_i
replaced by z_sigma(i).  The solver (`solve_cycle`, hence
`fundamental_solution`, and `reflection_solutions`) computes one integral
per S_N-orbit of (cycle, form) pairs, at the pair `_orbit_key` picks, and
reaches the others by permuting variables (`_orbit_component`).
`cycle_integral` and `solve_component` stay the direct residue path.
Two checks rest on the same identity without trusting the solver, both
on the stored data of a fundamental matrix: `check_equivariance` compares
every entry of every table with the direct value at its (cycle, form),
so each relabeled entry is proved to be the integral at exactly the sigma
the solver used; and the battery runs `check_kz` on the first table only,
proving every other table equal to the first one relabeled
(`verify._kz_reports`).  Non-standard cycles belong to no table of the
matrix, so the battery does not compare their orbit-built components
with direct values; `check_straightening` solves them by the orbit path
against the tables of the live matrix (`_live_matrices`, the one memo),
and the tests compare that path with the direct one for N <= 4.
"""
from __future__ import annotations

import itertools
import math
import weakref
from fractions import Fraction
from functools import lru_cache

from ._frozen import Frozen
from .exactalg import (
    ContentPolynomial,
    FactoredSum,
    PolyMatrix,
    SparsePolynomial,
    _add_into,
    _discriminant,
    _linear_combination,
    demote,
    det_adjugate,
    normalize_factored,
    t_atom,
    z_atom,
)
from .residues import iterated_residue, residue_plan
# the resource guard lives in `shapes`; every name of it stays readable
# here too (`solve.check_resources`, `solve.residue_budget`, ...)
from .shapes import (
    DEFAULT_BUDGET,
    MAX_VARS,
    Numbering,
    Partition,
    ResourceGuardError,
    Tabloid,
    _require_partition,
    check_reflection_resources,
    check_resources,
    column_expansion,
    diagram_stats,
    level_boxes,
    level_group_size,
    residue_budget,
    row_word,
    standard_tableaux,
    tabloids,
)

# The live results of `fundamental_solution`, by (lam, m).  Weak: an
# entry goes when the last caller drops its matrix.
_live_matrices = weakref.WeakValueDictionary()


class SpanError(ArithmeticError):
    """A component vector fell outside the polytabloid span; carries the
    residual witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@lru_cache(maxsize=None)
def interaction_form(lam: Partition, m: int) -> FactoredSum:
    """The G-symmetric interaction factor common to every component.

    Squared differences (power 2m) between all fixed-point pairs and all
    same-level variable pairs; inverse differences (power -m) between
    every adjacent-level variable pair and between every level-1
    variable and every fixed point.
    """
    if m < 1:
        raise ValueError("the interaction form needs a positive integer m")
    n = lam.size
    factors = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            factors.append((z_atom(i), z_atom(j), 2 * m))
    for s in range(1, lam.nrows):
        boxes = level_boxes(lam, s)
        for x in range(len(boxes)):
            for y in range(x + 1, len(boxes)):
                bx, by = boxes[x], boxes[y]
                factors.append((t_atom(*bx, s), t_atom(*by, s), 2 * m))
        if s >= 2:
            for b in boxes:
                for b2 in level_boxes(lam, s - 1):
                    factors.append((t_atom(*b, s), t_atom(*b2, s - 1), -m))
    for b in level_boxes(lam, 1):
        for k in range(1, n + 1):
            factors.append((t_atom(*b, 1), z_atom(k), -m))
    return FactoredSum.term(1, factors)


def tableau_form(t: Numbering) -> FactoredSum:
    """The anchor-chain form of a numbering: every box below row 1
    carries a chain of inverse differences through its levels, anchored
    at the fixed point labeling the box."""
    factors = []
    for r, c in t.shape.boxes():
        if r < 2:
            continue
        factors.append((t_atom(r, c, 1), z_atom(t.label(r, c)), -1))
        for s in range(1, r - 1):
            factors.append((t_atom(r, c, s + 1), t_atom(r, c, s), -1))
    return FactoredSum.term(1, factors)


def _level_relabelings(lam: Partition):
    """All maps sending each level's variables to a permutation of
    themselves (the level group acting on atoms)."""
    per_level = []
    for s in range(1, lam.nrows):
        boxes = level_boxes(lam, s)
        per_level.append(
            [
                {t_atom(*b, s): t_atom(*img, s) for b, img in zip(boxes, perm)}
                for perm in itertools.permutations(boxes)
            ]
        )
    for combo in itertools.product(*per_level):
        mapping: dict = {}
        for part in combo:
            mapping.update(part)
        yield mapping


@lru_cache(maxsize=None)
def symmetrized_tableau_form(t: Numbering) -> FactoredSum:
    """Plain sum of the anchor-chain form over all level-group
    relabelings of its variables (see the module docstring for why the
    sum is unsigned)."""
    base = tableau_form(t)
    total: dict = {}
    for mapping in _level_relabelings(t.shape):
        _add_into(total, base.relabel(mapping).terms.items())
    return FactoredSum(total)


@lru_cache(maxsize=None)
def cycle_integral(m: int, cycle: Numbering, form: Numbering) -> ContentPolynomial:
    """One component: the iterated residue of the full integrand for an
    explicit pair of numberings, in content form (`normalize_factored`).
    Row-equivalent replacements of either numbering leave the value
    unchanged (verified in tests, relied on by the tabloid-level API)."""
    lam = cycle.shape
    integrand = interaction_form(lam, m) * symmetrized_tableau_form(form)
    collapsed = iterated_residue(integrand, residue_plan(cycle))
    return normalize_factored(collapsed, lam.size)


def solve_component(
    lam: Partition, m: int, cycle: Tabloid, form: Tabloid
) -> ContentPolynomial:
    """Component of the cycle's solution at the given form tabloid, by the
    direct residue path (`check_equivariance` compares every stored entry
    of a fundamental matrix with it)."""
    _require_partition(lam)
    _require_tabloids(cycle, form)
    if cycle.shape != lam.parts or form.shape != lam.parts:
        raise ValueError("cycle and form tabloids must have the requested shape")
    return cycle_integral(m, cycle.representative(), form.representative())


def _require_tabloids(*values) -> None:
    """ValueError naming the type of the first value that is not a `Tabloid`
    (a `Numbering` has a `Partition` for its shape, not a tuple)."""
    for value in values:
        if type(value) is not Tabloid:
            raise ValueError(f"expected a Tabloid, got a {type(value).__name__}: {value!r}")


def _orbit_key(cycle: Tabloid, form: Tabloid) -> tuple[tuple[int, ...], Numbering, Numbering]:
    """`(image, C0, U0)` with cycle = sigma C0, form = sigma U0 and
    image[p-1] = sigma(p).

    sigma lists the labels of each row of the cycle sorted by (row in the
    form, label), rows concatenated, so C0 is the canonical tabloid (rows
    1..lam_1, lam_1+1..lam_1+lam_2, ...) and U0 gives the positions of
    each row of C0 to the rows of the form in ascending order.  U0 is thus
    fixed by the counts |C_r & U_s| alone: one key per S_N-orbit of pairs."""
    row_of = {x: s for s, row in enumerate(form.rows) for x in row}
    image = tuple(
        x for row in cycle.rows for x in sorted(row, key=lambda x: (row_of[x], x))
    )
    back = {x: p for p, x in enumerate(image, start=1)}
    c0, u0 = (
        Numbering._of(tuple(tuple(sorted(back[x] for x in row)) for row in t.rows))
        for t in (cycle, form)
    )
    return image, c0, u0


def _orbit_component(m: int, cycle: Tabloid, form: Tabloid) -> ContentPolynomial:
    """The component at (cycle, form) from the one integral of its orbit:
    cycle_integral(sigma C0, sigma U0) is cycle_integral(C0, U0) with each
    z_p replaced by z_sigma(p) (see the module docstring).
    `check_equivariance` compares every such value that a fundamental
    matrix stores with the direct path."""
    image, c0, u0 = _orbit_key(cycle, form)
    return cycle_integral(m, c0, u0).permute_variables(image)


class SolutionTable(Frozen):
    """All tabloid components of the solution attached to one cycle.

    The component at U is components[U] / den: `den` is None for a
    polynomial table (positive parameter) and the one denominator every
    component shares otherwise (the alternating twist's Delta^{2m}).
    `m` is the parameter of the system the table claims to solve and
    `twisted` marks the extra sign in the transposition action.  The
    cycle has shape `lam`, `components` is keyed by exactly
    `tabloids(lam.parts)`, stored in that order, and its values and a
    non-zero `den` are polynomials in N = |lam| variables, held as
    `ContentPolynomial` (a `SparsePolynomial` is factored once, here),
    or the constructor raises ValueError before it stores anything; every
    check that indexes a table by tabloid, or relabels and divides its
    numerators, relies on this.  `check_kz` reads the form of `den` off
    its fields and checks the system on the numerators' cores.

    `_cache` is the table's record of its KZ proof (`verify.check_kz`),
    which `alternating_twist` hands on and `verify._kz_reports` writes.
    Like `FundamentalMatrix._cache` it is out of equality, hash, repr and
    pickling, and every constructor call starts it empty; so `components`
    must not be changed in place after a check."""

    __slots__ = ("lam", "m", "cycle", "components", "twisted", "den", "_cache")

    def __init__(
        self, lam: Partition, m: int, cycle: Tabloid, components: dict,
        twisted: bool = False, den: ContentPolynomial | None = None,
    ) -> None:
        _require_tabloids(cycle)
        if cycle.shape != lam.parts:
            raise ValueError(f"cycle {cycle} does not have shape {lam}")
        order = tabloids(lam.parts)
        if components.keys() != set(order):
            raise ValueError(f"components are not indexed by the tabloids of {lam}")
        if not all(_is_poly(c, lam.size) for c in components.values()):
            raise ValueError(f"components are not all polynomials in {lam.size} variables")
        if den is not None and (not _is_poly(den, lam.size) or den.is_zero()):
            raise ValueError(f"denominator is not a non-zero polynomial in {lam.size} variables")
        components = {u: ContentPolynomial.factor(components[u]) for u in order}
        self._set(lam, m, cycle, components, twisted, den and ContentPolynomial.factor(den), {})

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "m": self.m,
            "cycle": [list(r) for r in self.cycle.rows],
            "forms": [[list(r) for r in u.rows] for u in self.components],
            "components": _components_json(self.components.values(), self.den),
        }


def _is_poly(x, nvars: int) -> bool:
    """A `SparsePolynomial` or a `ContentPolynomial` in `nvars` variables."""
    return type(x) in (SparsePolynomial, ContentPolynomial) and x.nvars == nvars


def _delta_power_or_refuse(den, nvars: int, name: str) -> ContentPolynomial:
    """`den` in content form if it is C * Delta^p in `nvars` variables."""
    if _is_poly(den, nvars) and (den := ContentPolynomial.factor(den)).discriminant_form():
        return den
    raise ValueError(f"{name} is not a non-zero constant times a power of every z-difference"
                     f" in {nvars} variables")


def _components_json(nums, den: ContentPolynomial | None) -> list:
    """Each numerator's JSON, or `{"num": ..., "den": ...}` over a shared
    `den`, whose JSON is built once."""
    if den is None:
        return [c.to_json() for c in nums]
    den_json = den.to_json()
    return [{"num": c.to_json(), "den": den_json} for c in nums]


def solve_cycle(lam: Partition, m: int, cycle: Tabloid) -> SolutionTable:
    """Full component table of one cycle over every tabloid of the shape,
    solved on every call (`cycle_integral` caches the orbit integrals)."""
    _require_partition(lam)
    _require_tabloids(cycle)
    if cycle.shape != lam.parts:
        raise ValueError(f"cycle {cycle} does not have shape {lam}")
    components = {u: _orbit_component(m, cycle, u) for u in tabloids(lam.parts)}
    return SolutionTable(lam, m, cycle, components)


def polytabloid_columns(lam: Partition) -> tuple[list[list[int]], tuple[Tabloid, ...]]:
    """Integer matrix whose column j holds the tabloid coefficients of
    the j-th standard tableau's signed column expansion, along with the
    row (tabloid) order.

    No solver path calls it: `coordinates_in_specht_basis` peels the
    column expansions directly.  It is kept as the tests' reference that
    rebuilds component vectors from Specht coordinates."""
    order = tabloids(lam.parts)
    index = {u: i for i, u in enumerate(order)}
    stds = standard_tableaux(lam)
    a = [[0] * len(stds) for _ in order]
    for j, t in enumerate(stds):
        for sign, u in column_expansion(t):
            a[index[u]][j] += sign
    return a, order


@lru_cache(maxsize=None)
def _peeling_schedule(lam: Partition) -> tuple[tuple[Numbering, Tabloid, tuple], ...]:
    """(t, {t}, the other signed tabloids (sign, u) of e_t) for each
    standard tableau t of the shape, in ascending `shapes.row_word` order:
    the order in which `coordinates_in_specht_basis` peels."""
    schedule = []
    for t in sorted(standard_tableaux(lam), key=row_word):
        head = t.tabloid()
        schedule.append((t, head, tuple((s, u) for s, u in column_expansion(t) if u != head)))
    return tuple(schedule)


def coordinates_in_specht_basis(lam: Partition, component_of) -> list:
    """Coordinates of a tabloid-component vector against the standard
    polytabloids (in `standard_tableaux(lam)` order), by additions alone.

    Peeled in ascending `shapes.row_word` order (rows of labels 1..N;
    `_peeling_schedule`, built once per shape), in which the polytabloids
    are unitriangular: e_t holds {t} with coefficient 1 and every other
    standard {s} in it comes later, so e_t's coordinate is the residual
    at {t}.  R_t and C_t meet trivially, so e_t's coefficients are +-1.
    The entries, `component_of(tabloid)`, need only scalar multiples, +
    and truthiness.  Each residual is kept as the list of its terms and
    summed when it is read (`_linear_combination`):
    once, as a coordinate, at a standard tabloid, whose residual e_t then
    takes to c - c = 0, and once at the end elsewhere.  So a
    `ContentPolynomial` coordinate is factored once, not after every
    subtraction.  A zero final residual proves the result; else SpanError
    carries the first non-zero.
    """
    pending = {u: [(1, component_of(u))] for u in tabloids(lam.parts)}
    coords = {}
    for t, head, rest in _peeling_schedule(lam):
        c = coords[t] = _linear_combination(pending.pop(head))
        if c:
            for sign, u in rest:
                pending[u].append((-sign, c))
    for terms in pending.values():
        if r := _linear_combination(terms):
            raise SpanError("component vector is not a combination of polytabloids", r)
    return [coords[t] for t in standard_tableaux(lam)]


class FundamentalMatrix(Frozen):
    """Square solution matrix over standard tableaux, plus the full
    per-tabloid component tables it was read from.  The solver's matrix
    entries are `ContentPolynomial`, as the components are: the Specht
    peeling adds and subtracts cores over their common content, and
    `to_json` expands.

    The parameter m is a positive integer, and every table belongs to
    the matrix's own system: it has the matrix's `lam` and `m`, is not
    twisted and holds polynomials, or the constructor raises ValueError
    before it stores anything.  `verify._kz_reports` relabels the
    components of one table into another, and `verify.check_det` reads
    the expected power from `diagram_stats(lam, m)`; both rely on this."""

    # `_cache` memoizes the KZ reports (`verify._kz_reports`) and the dual
    # (`dual_matrix`) for every caller of the live matrix; a new instance
    # starts with an empty one
    __slots__ = ("lam", "m", "cycles", "tables", "matrix", "_cache")

    def __init__(
        self, lam: Partition, m: int, cycles: tuple[Numbering, ...],
        tables: tuple[SolutionTable, ...], matrix: PolyMatrix,
    ) -> None:
        for t in tables:
            if (t.lam, t.m, t.twisted, t.den) != (lam, m, False, None):
                raise ValueError(
                    f"table of cycle {t.cycle} is not a polynomial table of {lam} at m={m}"
                )
        if m < 1:
            raise ValueError(f"a fundamental matrix needs a positive integer m, got {m}")
        self._set(lam, m, cycles, tables, matrix, {})

    @property
    def dimension(self) -> int:
        return len(self.cycles)

    def to_json(self) -> dict:
        stats = diagram_stats(self.lam, self.m)
        return {
            "lambda": list(self.lam.parts),
            "m": self.m,
            "degree": stats.solution_degree,
            "cycles": [[list(r) for r in t.tabloid().rows] for t in self.cycles],
            "forms": [[list(r) for r in u.rows] for u in self.tables[0].components],
            "components": [
                [c.to_json() for c in table.components.values()] for table in self.tables
            ],
            "matrix": [
                [self.matrix.entry(i, j).to_json() for j in range(self.dimension)]
                for i in range(self.dimension)
            ],
        }


def fundamental_solution(
    lam: Partition, m: int, *, budget: int = DEFAULT_BUDGET
) -> FundamentalMatrix:
    """Solution tables for every standard-tableau cycle, with the square
    matrix of their coordinates against the standard polytabloids.

    The guard runs on every call, with the caller's budget; then equal
    arguments return the same matrix for as long as a caller holds it
    (`_live_matrices`)."""
    check_resources(lam, m, budget)
    if (fm := _live_matrices.get((lam, m))) is not None:
        return fm
    stds = standard_tableaux(lam)
    tables = tuple(solve_cycle(lam, m, t.tabloid()) for t in stds)
    rows = [coordinates_in_specht_basis(lam, t.components.__getitem__) for t in tables]
    fm = _live_matrices[lam, m] = FundamentalMatrix(lam, m, stds, tables, PolyMatrix(rows))
    return fm


# ----------------------------------------------------------------------
# companions: duality, twist, reflection representation


class DualMatrix(Frozen):
    """Transposed-inverse companion of a fundamental matrix: rows solve
    the parameter-negated system in coordinates dual to the polytabloid
    basis; `m` is the (negative) parameter it solves.  Entry (i, j) is
    `entries.entry(i, j) / det`: `entries` holds the adjugate numerators
    and `det` their one denominator, so no entry can carry another.
    Both are `ContentPolynomial`s in N = |lam| variables, as
    `det_adjugate` leaves them, and `det` is C * Delta^p (a
    `SparsePolynomial` is factored here), or the constructor raises
    ValueError before it stores anything: `check_dual` relies on this."""

    __slots__ = ("lam", "m", "det", "entries")

    def __init__(
        self, lam: Partition, m: int, det: ContentPolynomial, entries: PolyMatrix
    ) -> None:
        n = lam.size
        det = _delta_power_or_refuse(det, n, "det")
        rows = entries.entries if type(entries) is PolyMatrix else [[None]]
        if not all(_is_poly(e, n) for row in rows for e in row):
            raise ValueError(f"entries are not a matrix of polynomials in {n} variables")
        entries = PolyMatrix([map(ContentPolynomial.factor, row) for row in rows])
        self._set(lam, m, det, entries)

    @property
    def dimension(self) -> int:
        return self.entries.nrows

    def to_json(self) -> dict:
        det = self.det.to_json()
        return {
            "lambda": list(self.lam.parts),
            "m": self.m,
            "det": det,
            "entries": [
                [{"num": e.to_json(), "den": det} for e in row] for row in self.entries.entries
            ],
        }


def dual_matrix(fm: FundamentalMatrix) -> DualMatrix:
    """The dual of `fm`, built once and kept in `fm._cache`; ValueError
    when det M is not C * Delta^p, C != 0 (`DualMatrix`)."""
    if (dm := fm._cache.get("dual")) is not None:
        return dm
    det, adj = det_adjugate(fm.matrix)
    n = fm.dimension
    entries = PolyMatrix([[adj.entry(j, i) for j in range(n)] for i in range(n)])
    dm = fm._cache["dual"] = DualMatrix(fm.lam, -fm.m, det, entries)
    return dm


def alternating_twist(table: SolutionTable) -> SolutionTable:
    """Divide by the squared discriminant power and tensor with the sign
    character: a solution of the parameter-negated system for the
    twisted action, with rational components.

    The twisted table holds the table's own component objects as its
    numerators and the one cached Delta^{2m} in content form as its
    `den`, so nothing is built or expanded.  With parameter -m,
    p = 2m and eps = -1 the twisted system's X_ij = m psi_{s_ij U} +
    m psi_U is the table's, key (m, m) in both, so the twisted table is
    given the table's KZ record itself, not a copy: a proof on either
    serves both."""
    if table.twisted:
        raise ValueError("table is already twisted")
    den = _discriminant(table.lam.size, 2 * table.m)
    twisted = SolutionTable(
        table.lam, -table.m, table.cycle, table.components, twisted=True, den=den
    )
    object.__setattr__(twisted, "_cache", table._cache)
    return twisted


class ReflectionSolution(Frozen):
    """A solution with values in the (N-1,1) module written in the
    standard coordinates of C^N: component k, along the k-th unit vector,
    is components[k] / den.  `den` is None for the residue family, held
    in content form, and the shared Delta^{2m} for the path family, whose
    numerators are expanded, with rational coefficients.  Components in
    n variables and a `den` that is C * Delta^p are taken in those forms
    (so a member's hash expands them, which no check asks for); anything
    else raises ValueError before it is stored."""

    __slots__ = ("n", "m", "index", "components", "den")

    def __init__(
        self, n: int, m: int, index: int, components: tuple,
        den: ContentPolynomial | None = None,
    ) -> None:
        if not all(_is_poly(c, n) for c in components):
            raise ValueError(f"components are not all polynomials in {n} variables")
        if den is None:
            components = tuple(map(ContentPolynomial.factor, components))
        else:
            den = _delta_power_or_refuse(den, n, "den")
            components = tuple(c.expand() if type(c) is ContentPolynomial else c
                               for c in components)
        self._set(n, m, index, components, den)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "index": self.index,
            "components": _components_json(self.components, self.den),
        }


def _hook_tabloid(n: int, k: int) -> Tabloid:
    """The tabloid of the two-row hook shape with k alone in row 2."""
    return Tabloid._of((tuple(i for i in range(1, n + 1) if i != k), (k,)))


def reflection_solutions(n: int, m: int) -> tuple[ReflectionSolution, ...]:
    """The residue family for the reflection representation, one solution
    per fixed point; their sum vanishes and the first n-1 form a basis.

    The component along the k-th unit vector of the a-th solution is the
    cycle integral at the fixed point a of the hook-shape form anchored
    at k, so this is a re-indexing of hook-shape solution tables, in
    content form."""
    if n < 2:
        raise ValueError("the reflection representation needs n >= 2")
    check_reflection_resources(n, m)
    out = []
    for a in range(1, n + 1):
        comps = tuple(
            _orbit_component(m, _hook_tabloid(n, a), _hook_tabloid(n, k))
            for k in range(1, n + 1)
        )
        out.append(ReflectionSolution(n, m, a, comps))
    return tuple(out)


def reflection_dual_solutions(n: int, m: int) -> tuple[ReflectionSolution, ...]:
    """The path-integral family solving the parameter-negated system on
    the reflection representation: component k of solution a is the
    antiderivative of (t-z_k)^{m-1} prod_{i != k} (t-z_i)^m evaluated
    between the fixed points a and n, over the squared discriminant
    power Delta^{2m}, which every member holds once as its `den`.  The
    antiderivative divides by 1..nm only, so the integrand is scaled by
    L = lcm(1..nm) and each integer numerator is divided by L at the end."""
    if n < 2:
        raise ValueError("the reflection representation needs n >= 2")
    check_reflection_resources(n, m)
    nv = n + 1  # variable n+1 plays the integration variable
    den = _discriminant(n, 2 * m)
    scale = math.lcm(*range(1, n * m + 1))
    one = SparsePolynomial.constant(nv, scale)
    t = SparsePolynomial.variable(nv, nv)
    primitives = []  # (antiderivative, its value at t = z_n) per component
    for k in range(1, n + 1):
        integrand = one
        for i in range(1, n + 1):
            e = m - 1 if i == k else m
            integrand = integrand * (t - SparsePolynomial.variable(nv, i)) ** e
        anti = integrand.antiderivative(nv)
        primitives.append((anti, anti.substitute_variable(nv, n)))
    out = []
    for a in range(1, n):
        nums = ((upper - anti.substitute_variable(nv, a)).drop_last_variable().terms
                for anti, upper in primitives)
        comps = tuple(
            SparsePolynomial(n, {k: demote(Fraction(c, scale)) for k, c in num.items()})
            for num in nums
        )
        out.append(ReflectionSolution(n, -m, a, comps, den))
    return tuple(out)
