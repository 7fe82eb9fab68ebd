from itertools import permutations

import pytest

from kzresidue.exactalg import SparsePolynomial
from kzresidue.shapes import (
    Numbering,
    Partition,
    Tabloid,
    act_transposition,
    column_expansion,
    diagram_stats,
    enumerate_partitions,
    hook_length_dim,
    identity_tableau,
    level_profile,
    perm_sign,
    raise_row,
    relabel,
    row_word,
    standard_tableaux,
    tabloids,
)


def test_partition_validation():
    Partition((3, 1))
    Partition((2, 2, 1))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition(())


def test_partition_accessors():
    lam = Partition((3, 2))
    assert lam.size == 5
    assert lam.nrows == 2
    assert lam.boxes() == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))
    assert lam.transpose() == Partition((2, 2, 1))
    assert str(lam) == "(3,2)"


def test_enumerate_partitions_order_and_counts():
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    # partition numbers 1,2,3,5,7,11
    for n, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)]:
        assert len(enumerate_partitions(n)) == count


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((3, 1, 2)) == 1
    assert perm_sign((2, 1)) == -1


def test_level_profile():
    ms, dim = level_profile(Partition((2, 1)))
    assert ms == (3, 1)
    assert dim == 1
    ms, dim = level_profile(Partition((1, 1, 1, 1)))
    assert ms == (4, 3, 2, 1)
    assert dim == 6
    ms, dim = level_profile(Partition((2, 2, 1)))
    assert ms == (5, 3, 1)
    assert dim == 4


def test_hook_length_dims():
    assert hook_length_dim(Partition((2, 1))) == 2
    assert hook_length_dim(Partition((2, 2))) == 2
    assert hook_length_dim(Partition((3, 1))) == 3
    assert hook_length_dim(Partition((2, 1, 1))) == 3
    assert hook_length_dim(Partition((n_ := 5,))) == 1
    assert hook_length_dim(Partition((1,) * 5)) == 1
    assert hook_length_dim(Partition((3, 2))) == 5
    # dimensions of a full size square at S_4: sum of squares = 4!
    total = sum(hook_length_dim(p) ** 2 for p in enumerate_partitions(4))
    assert total == 24


def test_standard_tableaux_match_hook_count():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            stds = standard_tableaux(lam)
            assert len(stds) == hook_length_dim(lam)
            assert all(t.is_standard() for t in stds)
            words = [t.reading_word() for t in stds]
            assert words == sorted(words)


def test_numbering_basics():
    t = Numbering(((1, 3), (2,)))
    assert t.shape == Partition((2, 1))
    assert t.label(1, 2) == 3
    assert t.box_of(2) == (2, 1)
    assert t.reading_word() == (1, 3, 2)
    assert row_word(t) == (1, 2, 1) == tuple(t.box_of(k)[0] for k in (1, 2, 3))
    assert t.is_standard()
    assert not Numbering(((2, 3), (1,))).is_standard()
    with pytest.raises(ValueError):
        Numbering(((1, 2), (2,)))  # repeated label


def test_identity_tableau():
    t = identity_tableau(Partition((3, 2)))
    assert t.rows == ((1, 2, 3), (4, 5))
    assert t.is_standard()


def test_tabloid_canonical_and_str():
    u = Tabloid(((3, 1), (2,)))
    assert u.rows == ((1, 3), (2,))
    assert str(u) == "{1,3}|{2}"
    assert u == Tabloid(((1, 3), (2,)))
    assert u.shape == (2, 1)


def test_tabloids_enumeration():
    us = tabloids((2, 1))
    assert [str(u) for u in us] == ["{1,2}|{3}", "{1,3}|{2}", "{2,3}|{1}"]
    assert len(tabloids((2, 2))) == 6
    assert len(tabloids((1, 1, 1))) == 6
    assert len(tabloids((3, 2))) == 10
    # multinomial count for a three-row shape
    assert len(tabloids((2, 2, 1))) == 30


def test_memoized_enumerations_are_tuples_a_caller_cannot_corrupt():
    lam = Partition((2, 1))
    us = tabloids([2, 1])  # any sequence of row sizes
    assert us is tabloids((2, 1)) is tabloids(iter((2, 1)))
    stds = standard_tableaux(lam)
    expansion = column_expansion(stds[0])
    for memo in (us, stds, expansion):
        assert isinstance(memo, tuple)
        with pytest.raises(TypeError):
            memo[0] = memo[-1]
        with pytest.raises(AttributeError):
            memo.reverse()
    with pytest.raises(AttributeError):
        us[0].rows = us[-1].rows  # nor the tabloids the tuples hold
    mine = list(us)
    mine.reverse()  # a caller's own copy changes nothing shared
    assert [str(u) for u in tabloids((2, 1))] == ["{1,2}|{3}", "{1,3}|{2}", "{2,3}|{1}"]
    assert [t.rows for t in standard_tableaux(lam)] == [((1, 2), (3,)), ((1, 3), (2,))]
    assert column_expansion(stds[0]) == ((1, stds[0].tabloid()), (-1, Tabloid(((2, 3), (1,)))))


def test_column_expansion_identity_first_signs():
    t = Numbering(((1, 2), (3,)))
    exp = column_expansion(t)
    assert exp[0] == (1, t.tabloid())
    assert (-1, Tabloid(((2, 3), (1,)))) in exp
    assert len(exp) == 2
    # a square shape has a four-element column group
    s = Numbering(((1, 2), (3, 4)))
    exp = column_expansion(s)
    assert len(exp) == 4
    assert sum(sign for sign, _ in exp) == 0


def test_column_expansion_sign_consistency():
    # signs multiply like the column permutations that produce them
    t = Numbering(((1, 2, 3), (4, 5)))
    exp = column_expansion(t)
    assert len(exp) == 4  # 2 x 2 column swaps
    counts = {}
    for sign, u in exp:
        counts[u] = counts.get(u, 0) + sign
    # all tabloids distinct for this shape
    assert all(v in (1, -1) for v in counts.values())


def test_act_transposition():
    u = Tabloid(((1, 2), (3,)))
    assert act_transposition(u, 1, 3) == Tabloid(((2, 3), (1,)))
    assert act_transposition(u, 1, 2) == u
    with pytest.raises(ValueError):
        act_transposition(u, 2, 2)


def test_relabel_agrees_with_the_transposition_action_and_composes():
    us = tabloids((2, 1, 1))
    for u in us:
        for i, j in ((1, 2), (1, 4), (3, 2)):
            swap = tuple(j if x == i else i if x == j else x for x in range(1, 5))
            assert relabel(u, swap) == act_transposition(u, i, j)
    # z_i -> z_a(i), then z_j -> z_b(j), is z_i -> z_b(a(i)): relabeling
    # U by a and then by b is relabeling it by that same composite
    poly = SparsePolynomial.from_terms(4, [((3, 1, 0, 2), 1), ((0, 1, 2, 0), -2)])
    perms = list(permutations(range(1, 5)))
    for a in perms[::5]:
        for b in perms[::3]:
            c = tuple(b[a[x] - 1] for x in range(4))
            assert poly.permute_variables(a).permute_variables(b) == poly.permute_variables(c)
            assert all(relabel(relabel(u, a), b) == relabel(u, c) for u in us)
    for bad in ((1, 2, 3), (1, 2, 3, 3), (1, 2, 3, 5), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation of 1..4"):
            relabel(us[0], bad)


def test_raise_row():
    u = Tabloid(((1, 4), (2, 3)))
    raised = raise_row(u, 1)
    assert [r.rows for r in raised] == [
        ((1, 2, 4), (3,)),
        ((1, 3, 4), (2,)),
    ]
    with pytest.raises(ValueError):
        raise_row(u, 2)


def test_diagram_stats_known_values():
    s = diagram_stats(Partition((2, 1)), 1)
    assert s.f2 == 0
    assert s.specht_dim == 2
    assert s.solution_degree == 3
    assert s.config_dim == 1
    assert s.d_plus == 1  # one-dimensional symmetric part of the reflection rep

    s = diagram_stats(Partition((1, 1, 1)), 1)
    assert s.f2 == -3
    assert s.specht_dim == 1
    assert s.solution_degree == 0

    s = diagram_stats(Partition((3, 1)), 2)
    assert s.f2 == 2
    assert s.solution_degree == 16
    assert s.transpose == Partition((2, 1, 1))

    with pytest.raises(ValueError):
        diagram_stats(Partition((2, 1)), 0)


def test_diagram_stats_fixed_space_consistency():
    # d_plus + d_minus = dim and d_plus - d_minus = transposition character
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            s = diagram_stats(lam, 1)
            pairs = n * (n - 1) // 2
            chi = s.f2 * s.specht_dim // pairs
            assert 0 <= s.d_plus <= s.specht_dim
            assert 2 * s.d_plus - s.specht_dim == chi


def test_transpose_swaps_f2_sign():
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            s = diagram_stats(lam, 1)
            st = diagram_stats(lam.transpose(), 1)
            assert st.f2 == -s.f2
            assert st.specht_dim == s.specht_dim
