"""The unchecked constructor `_Young._of` builds exactly what the
validating constructors build, on every partition of N <= 6, and the
per-shape peeling schedule gives the coordinates of the plain loop."""
import random

import pytest

from kzresidue import (
    Numbering,
    Partition,
    SpanError,
    Tabloid,
    column_expansion,
    coordinates_in_specht_basis,
    enumerate_partitions,
    polytabloid_columns,
    raise_row,
    standard_tableaux,
    tabloids,
)
from kzresidue.exactalg import _linear_combination
from kzresidue.shapes import relabel, row_word
from kzresidue.solve import _hook_tabloid, _orbit_key

SHAPES = [lam for n in range(1, 7) for lam in enumerate_partitions(n)]


def _types(x):
    return tuple(map(_types, x)) if isinstance(x, tuple) else type(x)


def assert_same(built, checked):
    """Equal class, fields, element types and hash."""
    assert type(built) is type(checked)
    assert built._values() == checked._values()
    assert _types(built._values()) == _types(checked._values())
    assert hash(built) == hash(checked)


def _numberings(lam):
    """The standard tableaux, and each tabloid's rows read backwards."""
    yield from standard_tableaux(lam)
    for u in tabloids(lam.parts):
        yield Numbering(tuple(row[::-1] for row in u.rows))


@pytest.mark.parametrize("lam", SHAPES, ids=str)
def test_numbering_shape_and_tabloid(lam):
    for t in _numberings(lam):
        assert_same(t.shape, Partition(tuple(len(row) for row in t.rows)))
        assert_same(t.tabloid(), Tabloid(t.rows))


@pytest.mark.parametrize("lam", SHAPES, ids=str)
def test_representative_column_expansion_and_relabel(lam):
    n = lam.size
    rng = random.Random(n * 100 + len(lam.parts))
    images = [tuple(range(n, 0, -1))] + [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
    for u in tabloids(lam.parts):
        assert_same(u.representative(), Numbering(u.rows))
        for image in images:
            assert_same(relabel(u, image), Tabloid(tuple(tuple(image[x - 1] for x in row)
                                                         for row in u.rows)))
    for t in standard_tableaux(lam):
        for _, v in column_expansion(t):
            assert_same(v, Tabloid(v.rows))


@pytest.mark.parametrize("lam", SHAPES, ids=str)
def test_transpose_and_hook_tabloids(lam):
    assert_same(lam.transpose(), Partition(lam.transpose().parts))
    n = lam.size
    for k in range(1, n + 1):
        hook = _hook_tabloid(n, k)
        assert_same(hook, Tabloid(hook.rows))


@pytest.mark.parametrize("lam", SHAPES, ids=str)
def test_orbit_key_pair(lam):
    for cycle in (t.tabloid() for t in standard_tableaux(lam)):
        for form in tabloids(lam.parts):
            _, c0, u0 = _orbit_key(cycle, form)
            assert_same(c0, Numbering(c0.rows))
            assert_same(u0, Numbering(u0.rows))


@pytest.mark.parametrize("lam", [lam for lam in SHAPES if lam.nrows > 1], ids=str)
def test_raised_tabloids_and_their_representatives(lam):
    # a raising leaves the partition lattice, on every shape but two rows
    # with more than one box in the second: a representative is then
    # refused, as the validating constructor refuses its rows
    refused = 0
    for u in tabloids(lam.parts):
        for s in range(1, lam.nrows):
            for v in raise_row(u, s):
                assert_same(v, Tabloid(v.rows))
                try:
                    expected = Numbering(v.rows)
                except ValueError:
                    refused += 1
                    with pytest.raises(ValueError):
                        v.representative()
                else:
                    assert_same(v.representative(), expected)
    assert refused or lam.nrows == 2 and lam.parts[1] > 1


def _reference_coordinates(lam, component_of):
    """The peeling loop before the per-shape schedule: sort the standard
    tableaux by `row_word` and walk each column expansion on every call."""
    pending = {u: [(1, component_of(u))] for u in tabloids(lam.parts)}
    stds = standard_tableaux(lam)
    coords = {}
    for t in sorted(stds, key=row_word):
        head = t.tabloid()
        c = coords[t] = _linear_combination(pending.pop(head))
        if c:
            for sign, u in column_expansion(t):
                if u != head:
                    pending[u].append((-sign, c))
    for terms in pending.values():
        if r := _linear_combination(terms):
            raise SpanError("component vector is not a combination of polytabloids", r)
    return [coords[t] for t in stds]


def _outcome(peel, lam, component_of):
    try:
        return peel(lam, component_of)
    except SpanError as exc:
        return "SpanError", exc.witness


@pytest.mark.parametrize("lam", SHAPES, ids=str)
def test_peeling_schedule_matches_the_plain_loop(lam):
    rng = random.Random(len(tabloids(lam.parts)))
    columns, order = polytabloid_columns(lam)
    for _ in range(3):
        y = [rng.randint(-5, 5) for _ in standard_tableaux(lam)]
        inside = {u: sum(a * b for a, b in zip(row, y)) for u, row in zip(order, columns)}
        outside = {u: rng.randint(-2, 2) for u in order}
        for vector in (inside, outside):
            got = _outcome(coordinates_in_specht_basis, lam, vector.__getitem__)
            assert got == _outcome(_reference_coordinates, lam, vector.__getitem__)
        assert coordinates_in_specht_basis(lam, inside.__getitem__) == y
