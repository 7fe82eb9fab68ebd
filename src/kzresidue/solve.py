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
with direct values; `check_straightening` exercises the orbit path on
them, and the tests compare it with the direct path for N <= 4.
"""
from __future__ import annotations

import itertools
import weakref
from functools import lru_cache
from math import factorial, prod

from ._frozen import Frozen
from .exactalg import (
    MAX_VARS,
    FactoredSum,
    PolyFraction,
    PolyMatrix,
    SparsePolynomial,
    _add_into,
    det_adjugate,
    discriminant_power,
    normalize_factored,
    t_atom,
    z_atom,
)
from .residues import iterated_residue, residue_plan
from .shapes import (
    Numbering,
    Partition,
    Tabloid,
    column_expansion,
    diagram_stats,
    row_word,
    standard_tableaux,
    tabloids,
)

DEFAULT_BUDGET = 10_000

# The live results of `solve_cycle` and `fundamental_solution`, by their
# arguments.  Weak: an entry goes when the last caller drops its object.
_live_tables = weakref.WeakValueDictionary()
_live_matrices = weakref.WeakValueDictionary()


class ResourceGuardError(RuntimeError):
    """The requested instance exceeds the configured residue budget."""


class SpanError(ArithmeticError):
    """A component vector fell outside the polytabloid span; carries the
    residual witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def level_boxes(lam: Partition, s: int) -> tuple[tuple[int, int], ...]:
    """Boxes owning a level-s variable (those in rows s+1 and below),
    in row-major reading order."""
    return tuple(b for b in lam.boxes() if b[0] >= s + 1)


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


def level_group_size(lam: Partition) -> int:
    return prod(factorial(len(level_boxes(lam, s))) for s in range(1, lam.nrows))


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
def cycle_integral(m: int, cycle: Numbering, form: Numbering) -> SparsePolynomial:
    """One component: the iterated residue of the full integrand for an
    explicit pair of numberings.  Row-equivalent replacements of either
    numbering leave the value unchanged (verified in tests, relied on by
    the tabloid-level API)."""
    integrand = interaction_form(cycle.shape, m) * symmetrized_tableau_form(form)
    collapsed = iterated_residue(integrand, residue_plan(cycle))
    return normalize_factored(collapsed, cycle.shape.size)


def solve_component(
    lam: Partition, m: int, cycle: Tabloid, form: Tabloid
) -> SparsePolynomial:
    """Component of the cycle's solution at the given form tabloid, by the
    direct residue path (`check_equivariance` compares every stored entry
    of a fundamental matrix with it)."""
    if Partition(tuple(cycle.shape)) != lam or Partition(tuple(form.shape)) != lam:
        raise ValueError("cycle and form tabloids must have the requested shape")
    return cycle_integral(m, cycle.representative(), form.representative())


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
        Numbering(tuple(tuple(sorted(back[x] for x in row)) for row in t.rows))
        for t in (cycle, form)
    )
    return image, c0, u0


def _orbit_component(m: int, cycle: Tabloid, form: Tabloid) -> SparsePolynomial:
    """The component at (cycle, form) from the one integral of its orbit:
    cycle_integral(sigma C0, sigma U0) is cycle_integral(C0, U0) with each
    z_p replaced by z_sigma(p) (see the module docstring).
    `check_equivariance` compares every such value that a fundamental
    matrix stores with the direct path."""
    image, c0, u0 = _orbit_key(cycle, form)
    return cycle_integral(m, c0, u0).permute_variables(image)


class SolutionTable(Frozen):
    """All tabloid components of the solution attached to one cycle.

    Components are polynomials (positive parameter) or shared-denominator
    fractions (twisted tables); `m` is the parameter of the system the
    table claims to solve and `twisted` marks the extra sign in the
    transposition action."""

    __slots__ = ("lam", "m", "cycle", "components", "twisted")

    def __init__(
        self, lam: Partition, m: int, cycle: Tabloid, components: dict,
        twisted: bool = False,
    ) -> None:
        self._set(lam, m, cycle, components, twisted)

    def tabloid_order(self) -> tuple[Tabloid, ...]:
        return tabloids(self.lam.parts)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "m": self.m,
            "cycle": [list(r) for r in self.cycle.rows],
            "forms": [[list(r) for r in u.rows] for u in self.tabloid_order()],
            "components": [
                self.components[u].to_json() for u in self.tabloid_order()
            ],
        }


def solve_cycle(lam: Partition, m: int, cycle: Tabloid) -> SolutionTable:
    """Full component table of one cycle over every tabloid of the shape.

    Equal arguments return the same table for as long as a caller holds
    it (`_live_tables`)."""
    if (table := _live_tables.get((lam, m, cycle))) is not None:
        return table
    components = {u: _orbit_component(m, cycle, u) for u in tabloids(lam.parts)}
    table = _live_tables[lam, m, cycle] = SolutionTable(lam, m, cycle, components)
    return table


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


def coordinates_in_specht_basis(lam: Partition, component_of) -> list:
    """Coordinates of a tabloid-component vector against the standard
    polytabloids (in `standard_tableaux(lam)` order), by additions alone.

    Peeled in ascending `shapes.row_word` order (rows of labels 1..N), in
    which the polytabloids are unitriangular: e_t holds {t} with
    coefficient 1 and every other standard {s} in it comes later, so e_t's
    coordinate is the residual at {t}.  R_t and C_t meet trivially, so
    e_t's coefficients are +-1.  The entries, `component_of(tabloid)`,
    need only +, - and truthiness.  A zero final residual proves the
    result; else SpanError carries the first non-zero.
    """
    residual = {u: component_of(u) for u in tabloids(lam.parts)}
    stds = standard_tableaux(lam)
    coords = {}
    for t in sorted(stds, key=row_word):
        c = coords[t] = residual[t.tabloid()]
        if c:
            for sign, u in column_expansion(t):
                residual[u] = residual[u] - c if sign > 0 else residual[u] + c
    for r in residual.values():
        if r:
            raise SpanError("component vector is not a combination of polytabloids", r)
    return [coords[t] for t in stds]


class FundamentalMatrix(Frozen):
    """Square solution matrix over standard tableaux, plus the full
    per-tabloid component tables it was read from."""

    # `_cache` memoizes check results (`verify._kz_reports`,
    # `verify._determinant_at`) and the dual (`dual_matrix`); every new
    # instance starts with an empty one
    __slots__ = ("lam", "m", "cycles", "tables", "matrix", "_cache")

    def __init__(
        self, lam: Partition, m: int, cycles: tuple[Numbering, ...],
        tables: tuple[SolutionTable, ...], matrix: PolyMatrix,
    ) -> None:
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
            "forms": [
                [list(r) for r in u.rows] for u in self.tables[0].tabloid_order()
            ],
            "components": [
                [table.components[u].to_json() for u in table.tabloid_order()]
                for table in self.tables
            ],
            "matrix": [
                [self.matrix.entry(i, j).to_json() for j in range(self.dimension)]
                for i in range(self.dimension)
            ],
        }


def residue_budget(lam: Partition, m: int) -> int:
    """Elementary residue count of the full fundamental table: cycles x
    forms x level-group size x schedule depth."""
    stats = diagram_stats(lam, m)
    n_forms = factorial(lam.size) // prod(map(factorial, lam.parts))
    return stats.specht_dim * n_forms * level_group_size(lam) * max(stats.config_dim, 1)


def check_resources(lam: Partition, m: int, budget: int = DEFAULT_BUDGET) -> None:
    if lam.size > MAX_VARS:
        raise ResourceGuardError(
            f"N={lam.size} exceeds the hard variable limit {MAX_VARS}"
        )
    cost = residue_budget(lam, m)
    if cost > budget:
        raise ResourceGuardError(
            f"shape {lam} at m={m} needs ~{cost} elementary residues, over "
            f"the budget {budget}; raise the budget to force the run"
        )


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
    basis; `m` is the (negative) parameter it solves."""

    __slots__ = ("lam", "m", "det", "entries")

    def __init__(
        self, lam: Partition, m: int, det: SparsePolynomial, entries: PolyMatrix
    ) -> None:
        self._set(lam, m, det, entries)

    @property
    def dimension(self) -> int:
        return self.entries.nrows

    def to_json(self) -> dict:
        det = self.det.to_json()  # the den of every `dual_matrix` entry: written once
        return {
            "lambda": list(self.lam.parts),
            "m": self.m,
            "det": det,
            "entries": [
                [
                    {"num": e.num.to_json(),
                     "den": det if e.den is self.det else e.den.to_json()}
                    for e in row
                ]
                for row in self.entries.entries
            ],
        }


def dual_matrix(fm: FundamentalMatrix) -> DualMatrix:
    """The dual of `fm`, built once and kept in `fm._cache`."""
    if (dm := fm._cache.get("dual")) is not None:
        return dm
    det, adj = det_adjugate(fm.matrix)
    if det.is_zero():
        raise ArithmeticError(
            "fundamental matrix is singular; the solver is inconsistent"
        )
    n = fm.dimension
    entries = PolyMatrix(
        [[PolyFraction(adj.entry(j, i), det) for j in range(n)] for i in range(n)]
    )
    dm = fm._cache["dual"] = DualMatrix(fm.lam, -fm.m, det, entries)
    return dm


def alternating_twist(table: SolutionTable) -> SolutionTable:
    """Divide by the squared discriminant power and tensor with the sign
    character: a solution of the parameter-negated system for the
    twisted action, with rational components."""
    if table.twisted:
        raise ValueError("table is already twisted")
    den = discriminant_power(table.lam.size, 2 * table.m)
    components = {
        u: PolyFraction(c, den) for u, c in table.components.items()
    }
    return SolutionTable(table.lam, -table.m, table.cycle, components, twisted=True)


class ReflectionSolution(Frozen):
    """A solution with values in the (N-1,1) module written in the
    standard coordinates of C^N (components along the unit vectors)."""

    __slots__ = ("n", "m", "index", "components")

    def __init__(self, n: int, m: int, index: int, components: tuple) -> None:
        self._set(n, m, index, components)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "index": self.index,
            "components": [c.to_json() for c in self.components],
        }


def _hook_tabloid(n: int, k: int) -> Tabloid:
    """The tabloid of the two-row hook shape with k alone in row 2."""
    return Tabloid((tuple(i for i in range(1, n + 1) if i != k), (k,)))


def reflection_solutions(n: int, m: int) -> tuple[ReflectionSolution, ...]:
    """The residue family for the reflection representation, one solution
    per fixed point; their sum vanishes and the first n-1 form a basis.

    The component along the k-th unit vector of the a-th solution is the
    cycle integral at the fixed point a of the hook-shape form anchored
    at k, so this is a re-indexing of hook-shape solution tables."""
    if n < 2:
        raise ValueError("the reflection representation needs n >= 2")
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
    power."""
    if n < 2:
        raise ValueError("the reflection representation needs n >= 2")
    if n + 1 > MAX_VARS:
        raise ResourceGuardError(f"n={n} needs {n+1} variables, over {MAX_VARS}")
    nv = n + 1  # variable n+1 plays the integration variable
    den = discriminant_power(n, 2 * m)
    one = SparsePolynomial.constant(nv, 1)
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
        comps = tuple(
            PolyFraction((upper - anti.substitute_variable(nv, a)).drop_last_variable(), den)
            for anti, upper in primitives
        )
        out.append(ReflectionSolution(n, -m, a, comps))
    return tuple(out)
