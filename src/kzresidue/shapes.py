"""Young diagrams, tableaux and tabloids for the symmetric group S_N.

Partitions index the irreducible S_N-modules.  A numbering labels the
boxes of a diagram bijectively with 1..N; a tabloid is the class of a
numbering up to reordering within rows and indexes the weight basis in
which solution components are written.  Everything here is immutable
and every function is pure, so the enumerations and the relabeling
action are memoized; the memoized sequences are tuples.

The public constructors validate everything a caller passes in, and
take only `int`s that are not `bool`s.  `_Young._of` stores its field
unchecked: it is for values derived from valid Young data only (a
numbering's shape and tabloid, a transpose, a column expansion, a
relabeling, a raising).

The resource guard (`check_resources`) lives here too: the price of a
request is arithmetic on its diagram, so a request can be priced and
refused without loading the solver.
"""
from __future__ import annotations

from functools import cache, total_ordering
from itertools import combinations, islice, permutations, product
from math import factorial, prod

from ._frozen import Frozen

# the hard limit on variables (fixed points and contour variables) of
# any polynomial; `exactalg` lays out its monomial keys for this many
MAX_VARS = 8
# every exponent of a polynomial stays below this; `exactalg` gives each
# variable a key field one bit wider
EXPONENT_CAP = 1 << 23
DEFAULT_BUDGET = 10_000


def perm_sign(indices: tuple[int, ...]) -> int:
    """Sign of the permutation sending position k to position indices[k]."""
    return -1 if sum(a > b for a, b in combinations(indices, 2)) % 2 else 1


def _whole(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple, each an `int` and not a `bool`, or ValueError."""
    values = tuple(values)
    if {int}.issuperset(map(type, values)) or all(  # plain ints: no Python loop
            isinstance(v, int) and not isinstance(v, bool) for v in values):
        return values
    raise ValueError(f"{what} must be integers: {values!r}")


@total_ordering
class _Young(Frozen):
    """Frozen, and ordered within one class by its field: the Young data."""

    __slots__ = ()

    @classmethod
    def _of(cls, value):
        """An instance whose one field is `value`, stored unchecked."""
        young = object.__new__(cls)
        object.__setattr__(young, cls._fields[0], value)
        return young

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) < get(other)


class Partition(_Young):
    """A Young diagram: non-increasing positive row lengths."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        parts = _whole(parts, "row lengths")
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("a partition needs at least one row")
        if any(p <= 0 for p in parts):
            raise ValueError(f"row lengths must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"row lengths must be non-increasing: {parts}")

    @property
    def size(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    @property
    def nrows(self) -> int:
        return len(self.parts)

    def boxes(self) -> tuple[tuple[int, int], ...]:
        """(row, column) pairs, 1-based, in row-major reading order."""
        return tuple((r, c) for r, p in enumerate(self.parts, 1) for c in range(1, p + 1))

    def transpose(self) -> "Partition":
        """The diagram reflected along its main diagonal."""
        parts = self.parts
        return Partition._of(tuple(sum(p >= c for p in parts) for c in range(1, parts[0] + 1)))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _require_partition(lam) -> None:
    if type(lam) is not Partition:
        raise ValueError(f"expected a Partition, got a {type(lam).__name__}: {lam!r}")


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order: (n) first, (1,..,1) last."""
    if n < 1:
        raise ValueError("n must be a positive integer")

    def rec(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        return [(first,) + rest for first in range(min(cap, remaining), 0, -1)
                for rest in rec(remaining - first, first)]

    return [Partition(p) for p in rec(n, n)]


def level_profile(lam: Partition) -> tuple[tuple[int, ...], int]:
    """Level sizes (m_0, .., m_{n-1}) and the number of extra variables.

    m_s counts the boxes in rows strictly below row s, so m_0 = N.  The
    configuration space for the diagram carries m_s variables at level s
    for s >= 1, giving m_1 + .. + m_{n-1} variables in total.
    """
    ms = tuple(
        sum(lam.parts[r] for r in range(s, lam.nrows)) for s in range(lam.nrows)
    )
    return ms, sum(ms[1:])


def hook_length_dim(lam: Partition) -> int:
    """Number of standard tableaux, by the hook-length product."""
    prod = 1
    for r, c in lam.boxes():
        arm = lam.parts[r - 1] - c
        leg = sum(1 for rr in range(r + 1, lam.nrows + 1) if lam.parts[rr - 1] >= c)
        prod *= arm + leg + 1
    return factorial(lam.size) // prod


class Numbering(_Young):
    """A bijective labeling of diagram boxes by 1..N, stored row by row."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(_whole(row, "labels") for row in rows)
        object.__setattr__(self, "rows", rows)
        if not rows or any(len(r) == 0 for r in rows):
            raise ValueError("empty rows are not allowed in a numbering")
        if any(len(rows[i]) < len(rows[i + 1]) for i in range(len(rows) - 1)):
            raise ValueError(f"row lengths must be non-increasing: {rows}")
        labels = sorted(x for row in rows for x in row)
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError(f"labels must be a bijection onto 1..N: {rows}")

    @property
    def shape(self) -> Partition:
        return Partition._of(tuple(map(len, self.rows)))

    @property
    def size(self) -> int:
        return sum(map(len, self.rows))

    def label(self, r: int, c: int) -> int:
        """Label in box (r, c), 1-based."""
        return self.rows[r - 1][c - 1]

    def box_of(self, k: int) -> tuple[int, int]:
        """(row, column) of label k."""
        for r, row in enumerate(self.rows, start=1):
            if k in row:
                return (r, row.index(k) + 1)
        raise ValueError(f"label {k} is not present")

    def reading_word(self) -> tuple[int, ...]:
        return tuple(x for row in self.rows for x in row)

    def is_standard(self) -> bool:
        """True when labels increase along every row and down every column.

        No solver path calls it: `standard_tableaux` builds only standard
        numberings.  It is kept as the tests' independent reference for
        that enumeration."""
        rows = self.rows
        return all(a < b for row in rows for a, b in zip(row, row[1:])) and all(
            a < b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower))

    def tabloid(self) -> "Tabloid":
        return Tabloid._of(tuple(tuple(sorted(row)) for row in self.rows))


@cache
def standard_tableaux(lam: Partition) -> tuple[Numbering, ...]:
    """All standard tableaux of a shape, sorted by reading word; memoized,
    so the result is a tuple that no caller can change."""
    n = lam.size
    results: list[Numbering] = []
    fill: list[list[int]] = [[] for _ in lam.parts]

    def place(k: int) -> None:
        if k > n:
            results.append(Numbering(tuple(tuple(row) for row in fill)))
            return
        for r in range(lam.nrows):
            if len(fill[r]) < lam.parts[r] and (r == 0 or len(fill[r]) < len(fill[r - 1])):
                fill[r].append(k)
                place(k + 1)
                fill[r].pop()

    place(1)
    return tuple(sorted(results, key=Numbering.reading_word))


def row_word(t: Numbering) -> tuple[int, ...]:
    """The row of each label 1..N.  In ascending order of this word the
    standard polytabloids are unitriangular: e_t holds {t} with
    coefficient 1, and every other standard {s} in it has s later."""
    rows = {x: r for r, row in enumerate(t.rows, start=1) for x in row}
    return tuple(rows[k] for k in range(1, t.size + 1))


def identity_tableau(lam: Partition) -> Numbering:
    """The numbering that fills boxes 1..N in reading order."""
    labels = iter(range(1, lam.size + 1))
    return Numbering(tuple(tuple(islice(labels, p)) for p in lam.parts))


class Tabloid(_Young):
    """A row-equivalence class of numberings: each row kept as a sorted set.

    The shape is a composition; empty rows are legal so the raising maps
    can leave the partition lattice.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(sorted(_whole(row, "labels"))) for row in rows)
        object.__setattr__(self, "rows", rows)
        labels = sorted(x for row in rows for x in row)
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError(f"rows must partition 1..N: {rows}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.rows))

    @property
    def size(self) -> int:
        return sum(map(len, self.rows))

    def representative(self) -> Numbering:
        """Canonical representative numbering (rows ascending); partition shapes only."""
        lengths = self.shape
        if lengths and lengths[-1] and lengths == tuple(sorted(lengths, reverse=True)):
            return Numbering._of(self.rows)
        return Numbering(self.rows)  # raises: the shape is not a partition

    def __str__(self) -> str:
        return "|".join("{" + ",".join(map(str, row)) + "}" for row in self.rows)


def tabloids(shape) -> tuple[Tabloid, ...]:
    """All tabloids with the given row sizes (any sequence of them), in
    lexicographic row-set order; memoized on the sizes as a tuple, so the
    result is a tuple that no caller can change."""
    return _tabloids(_whole(shape, "row sizes"))


@cache
def _tabloids(shape: tuple[int, ...]) -> tuple[Tabloid, ...]:
    if any(s < 0 for s in shape):
        raise ValueError(f"row sizes must be non-negative integers: {shape}")
    n = sum(shape)
    out: list[Tabloid] = []

    def rec(pool: tuple[int, ...], idx: int, acc: list[tuple[int, ...]]) -> None:
        if idx == len(shape):
            out.append(Tabloid(tuple(acc)))
            return
        for row in combinations(pool, shape[idx]):
            rest = tuple(x for x in pool if x not in row)
            acc.append(row)
            rec(rest, idx + 1, acc)
            acc.pop()

    rec(tuple(range(1, n + 1)), 0, [])
    return tuple(out)


@cache
def column_expansion(t: Numbering) -> tuple[tuple[int, Tabloid], ...]:
    """Signed tabloids of sigma * T over the column group of T.

    The identity term (+1, tabloid of T) comes first; the remaining order
    follows the per-column permutation product.  Memoized, so the result
    is a tuple that no caller can change.
    """
    ncols = len(t.rows[0])
    columns = [
        tuple(row[c] for row in t.rows if len(row) > c) for c in range(ncols)
    ]
    out: list[tuple[int, Tabloid]] = []
    for perms in product(*(permutations(range(len(col))) for col in columns)):
        sign = 1
        mapping: dict[int, int] = {}
        for col, perm in zip(columns, perms):
            sign *= perm_sign(perm)
            for pos, target in enumerate(perm):
                mapping[col[pos]] = col[target]
        rows = tuple(tuple(sorted(mapping.get(x, x) for x in row)) for row in t.rows)
        out.append((sign, Tabloid._of(rows)))
    return tuple(out)


@cache
def relabel(u: Tabloid, image: tuple[int, ...]) -> Tabloid:
    """The tabloid sigma U: each label x replaced by image[x-1] = sigma(x);
    image must be a permutation of 1..N, as a tuple.  Memoized."""
    if sorted(_whole(image, "images")) != list(range(1, u.size + 1)):
        raise ValueError(f"not a permutation of 1..{u.size}: {image}")
    return Tabloid._of(tuple(tuple(sorted(image[x - 1] for x in row)) for row in u.rows))


@cache
def act_transposition(u: Tabloid, i: int, j: int) -> Tabloid:
    """`relabel` by the transposition (i j); memoized."""
    if i == j:
        raise ValueError("a transposition needs two distinct labels")
    return relabel(u, tuple(j if x == i else i if x == j else x for x in range(1, u.size + 1)))


def raise_row(u: Tabloid, s: int) -> list[Tabloid]:
    """Move one label from row s+1 up to row s; one output per choice of label.

    Outputs are ordered by the moved label, ascending.  The output shape
    is a composition that in general is not a partition.
    """
    if not 1 <= s <= len(u.rows) - 1:
        raise ValueError(f"level {s} out of range for {len(u.rows)} rows")
    out = []
    for k in u.rows[s]:
        rows = list(u.rows)
        rows[s] = tuple(x for x in rows[s] if x != k)
        rows[s - 1] = tuple(sorted(rows[s - 1] + (k,)))
        out.append(Tabloid._of(tuple(rows)))
    return out


class DiagramStats(Frozen):
    """Closed-form scalars attached to a diagram and a positive integer m."""

    __slots__ = ("f2", "specht_dim", "d_plus", "transpose", "m_profile",
                 "config_dim", "m", "solution_degree")

    def __init__(
        self, f2: int, specht_dim: int, d_plus: int, transpose: Partition,
        m_profile: tuple[int, ...], config_dim: int, m: int, solution_degree: int,
    ) -> None:
        self._set(f2, specht_dim, d_plus, transpose, m_profile, config_dim, m,
                  solution_degree)


@cache
def _stats_core(parts: tuple[int, ...]) -> tuple[int, int, int]:
    lam = Partition(parts)
    n = lam.size
    f2 = sum(c - r for r, c in lam.boxes())
    dim = hook_length_dim(lam)
    pairs = n * (n - 1) // 2
    if pairs:
        num = f2 * dim
        if num % pairs:
            raise ArithmeticError(f"transposition character of {lam} is not integral")
        chi = num // pairs
    else:
        chi = dim
    if (dim + chi) % 2:
        raise ArithmeticError(f"symmetric fixed-space dimension of {lam} is not integral")
    return f2, dim, (dim + chi) // 2


def diagram_stats(lam: Partition, m: int = 1) -> DiagramStats:
    """Content sum f2, module dimension, transposition fixed-space dimension,
    transposed diagram, level profile, and the solver degree m*(f2 + N(N-1)/2)."""
    _require_partition(lam)
    if m < 1:
        raise ValueError("m must be a positive integer")
    f2, dim, d_plus = _stats_core(lam.parts)
    ms, config_dim = level_profile(lam)
    pairs = lam.size * (lam.size - 1) // 2
    return DiagramStats(
        f2=f2,
        specht_dim=dim,
        d_plus=d_plus,
        transpose=lam.transpose(),
        m_profile=ms,
        config_dim=config_dim,
        m=m,
        solution_degree=m * (f2 + pairs),
    )


# ----------------------------------------------------------------------
# the resource guard


class ResourceGuardError(RuntimeError):
    """The requested instance exceeds the configured residue budget."""


def level_boxes(lam: Partition, s: int) -> tuple[tuple[int, int], ...]:
    """Boxes owning a level-s variable (those in rows s+1 and below),
    in row-major reading order."""
    return tuple(b for b in lam.boxes() if b[0] >= s + 1)


def level_group_size(lam: Partition) -> int:
    return prod(factorial(len(level_boxes(lam, s))) for s in range(1, lam.nrows))


def residue_budget(lam: Partition, m: int) -> int:
    """Elementary residue count of the full fundamental table: cycles x
    forms x level-group size x schedule depth."""
    stats = diagram_stats(lam, m)
    n_forms = factorial(lam.size) // prod(map(factorial, lam.parts))
    return stats.specht_dim * n_forms * level_group_size(lam) * max(stats.config_dim, 1)


def check_resources(lam: Partition, m: int, budget: int = DEFAULT_BUDGET) -> None:
    _require_partition(lam)
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


def check_reflection_resources(n: int, m: int) -> None:
    """Refuse reflection families on n fixed points at parameter m whose
    path family needs more than `MAX_VARS` variables (the n points and
    one integration variable), or whose path antiderivative, of degree
    n m in the integration variable, has an exponent at `EXPONENT_CAP`."""
    if n + 1 > MAX_VARS:
        raise ResourceGuardError(f"n={n} needs {n+1} variables, over {MAX_VARS}")
    if n * m >= EXPONENT_CAP:
        raise ResourceGuardError(
            f"n={n} at m={m}: the path family's degree n*m reaches the exponent "
            f"cap {EXPONENT_CAP}"
        )
