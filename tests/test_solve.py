"""End-to-end oracles for solution tables and the fundamental matrix.

Every frozen value below was verified by independent hand expansion of
the factored forms (products of z_i - z_j), not by copying engine
output: e.g. the first row of the three-point system is
(z12^2 (z13 + z23), -z12^2 z13, -z12^2 z23) and its polytabloid
coordinates reproduce all three tabloid components.
"""
import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kzresidue import (
    FactoredSum,
    Numbering,
    Partition,
    ResourceGuardError,
    SolutionTable,
    SpanError,
    SparsePolynomial,
    Tabloid,
    alternating_twist,
    check_resources,
    check_straightening,
    column_expansion,
    coordinates_in_specht_basis,
    cycle_integral,
    determinant,
    diagram_stats,
    discriminant_power,
    dual_matrix,
    enumerate_partitions,
    fundamental_solution,
    interaction_form,
    level_group_size,
    perm_sign,
    polytabloid_columns,
    quotient_coordinates,
    reflection_dual_solutions,
    reflection_solutions,
    residue_budget,
    solve_component,
    solve_cycle,
    standard_tableaux,
    symmetrized_tableau_form,
    t_atom,
    tableau_form,
    tabloids,
    z_atom,
)
from kzresidue import exactalg, solve
from kzresidue.exactalg import PolyMatrix, _discriminant
from kzresidue.shapes import row_word
from kzresidue.solve import _level_relabelings, _orbit_component, _orbit_key


def zd(i, j, n=3):
    return SparsePolynomial.z_diff(n, i, j)


@pytest.fixture(scope="module")
def fm21():
    return fundamental_solution(Partition((2, 1)), 1)


# ---------------------------------------------------------------------------
# integrand building blocks
# ---------------------------------------------------------------------------


def test_interaction_form_single_level_factors():
    fs = interaction_form(Partition((2, 1)), 2)
    t = t_atom(2, 1, 1)
    expected = FactoredSum.term(
        1,
        [
            (z_atom(1), z_atom(2), 4),
            (z_atom(1), z_atom(3), 4),
            (z_atom(2), z_atom(3), 4),
            (t, z_atom(1), -2),
            (t, z_atom(2), -2),
            (t, z_atom(3), -2),
        ],
    )
    assert fs == expected


def test_interaction_form_column_shape_has_chain_couplings():
    t21, t31, t32 = t_atom(2, 1, 1), t_atom(3, 1, 1), t_atom(3, 1, 2)
    expected = FactoredSum.term(
        1,
        [
            (z_atom(1), z_atom(2), 2),
            (z_atom(1), z_atom(3), 2),
            (z_atom(2), z_atom(3), 2),
            (t21, t31, 2),  # same-level square
            (t32, t21, -1),  # adjacent levels couple across chains too
            (t32, t31, -1),
            (t21, z_atom(1), -1),
            (t21, z_atom(2), -1),
            (t21, z_atom(3), -1),
            (t31, z_atom(1), -1),
            (t31, z_atom(2), -1),
            (t31, z_atom(3), -1),
        ],
    )
    assert interaction_form(Partition((1, 1, 1)), 1) == expected


def test_interaction_form_rejects_nonpositive_parameter():
    with pytest.raises(ValueError):
        interaction_form(Partition((2, 1)), 0)


def test_tableau_form_anchors_and_chains():
    t = Numbering(((1, 3), (2,)))
    assert tableau_form(t) == FactoredSum.term(
        1, [(t_atom(2, 1, 1), z_atom(2), -1)]
    )
    col = Numbering(((1,), (2,), (3,)))
    assert tableau_form(col) == FactoredSum.term(
        1,
        [
            (t_atom(2, 1, 1), z_atom(2), -1),
            (t_atom(3, 1, 1), z_atom(3), -1),
            (t_atom(3, 1, 2), t_atom(3, 1, 1), -1),
        ],
    )


def test_level_group_sizes():
    assert level_group_size(Partition((2, 1))) == 1
    assert level_group_size(Partition((2, 2))) == 2
    assert level_group_size(Partition((1, 1, 1))) == 2
    assert level_group_size(Partition((2, 2, 1))) == 6
    assert level_group_size(Partition((3,))) == 1


def test_symmetrized_form_is_plain_relabel_sum():
    t = Numbering(((1, 2), (3,), (4,)))
    base = tableau_form(t)
    total = symmetrized_tableau_form(t)
    swap = {
        t_atom(2, 1, 1): t_atom(3, 1, 1),
        t_atom(3, 1, 1): t_atom(2, 1, 1),
    }
    assert total == base + base.relabel(swap)


def test_relabeling_sums_build_one_map_without_factored_addition(monkeypatch):
    # a sum built by repeated `+` copies its whole map once per summand
    t = Numbering(((1, 2), (3, 4), (5,)))
    base = tableau_form(t)
    mappings = list(_level_relabelings(t.shape))
    relabeled = [base.relabel(mapping) for mapping in mappings]
    expected = FactoredSum.zero()
    for fs in relabeled:
        expected = expected + fs

    def refuse(self, other):
        raise AssertionError("FactoredSum.__add__ called")

    monkeypatch.setattr(FactoredSum, "__add__", refuse)
    assert [base.relabel(mapping) for mapping in mappings] == relabeled
    assert symmetrized_tableau_form.__wrapped__(t) == expected


# ---------------------------------------------------------------------------
# component values
# ---------------------------------------------------------------------------


def test_two_point_column_solution():
    lam = Partition((1, 1))
    u1 = Tabloid(((1,), (2,)))
    u2 = Tabloid(((2,), (1,)))
    assert solve_component(lam, 1, u1, u1) == SparsePolynomial.constant(2, -1)
    assert solve_component(lam, 1, u1, u2) == SparsePolynomial.constant(2, 1)


def test_three_point_sign_table():
    # all components of the fully antisymmetric shape are +/-2; the sign
    # tracks the permutation written down the rows of the form tabloid
    lam = Partition((1, 1, 1))
    cyc = Tabloid(((1,), (2,), (3,)))
    for u in tabloids((1, 1, 1)):
        word = tuple(r[0] for r in u.rows)
        expect = 2 * perm_sign(word)
        assert solve_component(lam, 1, cyc, u) == SparsePolynomial.constant(
            3, expect
        )


def test_trivial_shape_is_discriminant_power():
    fm = fundamental_solution(Partition((3,)), 1)
    assert fm.dimension == 1
    assert fm.matrix.entry(0, 0) == discriminant_power(3, 2)


def test_three_point_hook_table_frozen(fm21):
    z12, z13, z23 = zd(1, 2), zd(1, 3), zd(2, 3)
    t1, t2 = fm21.tables
    assert t1.cycle == Tabloid(((1, 2), (3,))) and t2.cycle == Tabloid(((1, 3), (2,)))
    assert t1.components[Tabloid(((1, 2), (3,)))] == z12 * z12 * (z13 + z23)
    assert t1.components[Tabloid(((1, 3), (2,)))] == -(z12 * z12 * z13)
    assert t1.components[Tabloid(((2, 3), (1,)))] == -(z12 * z12 * z23)
    assert t2.components[Tabloid(((1, 2), (3,)))] == -(z12 * z13 * z13)
    assert t2.components[Tabloid(((1, 3), (2,)))] == z13 * z13 * (z12 - z23)
    assert t2.components[Tabloid(((2, 3), (1,)))] == z13 * z13 * z23


def test_three_point_hook_matrix_frozen(fm21):
    z12, z13, z23 = zd(1, 2), zd(1, 3), zd(2, 3)
    assert fm21.dimension == 2
    assert fm21.matrix.entry(0, 0) == z12 * z12 * (z13 + z23)
    assert fm21.matrix.entry(0, 1) == -(z12 * z12 * z13)
    assert fm21.matrix.entry(1, 0) == -(z12 * z13 * z13)
    assert fm21.matrix.entry(1, 1) == z13 * z13 * (z12 - z23)


def test_three_point_hook_determinant(fm21):
    disc = discriminant_power(3, 2)
    assert determinant(fm21.matrix) == disc * SparsePolynomial.constant(3, -2)


def test_components_are_homogeneous_of_expected_degree(fm21):
    for table in fm21.tables:
        for c in table.components.values():
            assert c.is_homogeneous()
            assert c.degree() == 3
            assert c.has_integer_coefficients()


def test_cycle_integral_ignores_row_representative():
    # relabeling within rows of either numbering changes nothing
    a = cycle_integral(1, Numbering(((1, 2), (3,))), Numbering(((1, 3), (2,))))
    b = cycle_integral(1, Numbering(((2, 1), (3,))), Numbering(((3, 1), (2,))))
    assert a == b


def test_cycle_integral_row_invariance_with_level_group():
    cyc = Numbering(((1, 2), (3, 4)))
    one = cycle_integral(1, cyc, Numbering(((1, 3), (2, 4))))
    two = cycle_integral(1, cyc, Numbering(((3, 1), (4, 2))))
    assert one == two
    three = cycle_integral(1, Numbering(((2, 1), (4, 3))), Numbering(((1, 3), (2, 4))))
    assert one == three


ORBIT_POINTS = [
    (lam, m)
    for n in range(1, 5)
    for lam in enumerate_partitions(n)
    if lam.parts != (1, 1, 1, 1)  # 576 direct integrals; its orbits are covered below
    for m in ((1, 2) if n <= 3 else (1,))
]


@pytest.mark.parametrize("lam,m", ORBIT_POINTS, ids=str)
def test_orbit_component_equals_the_direct_integral(lam, m):
    # every (cycle, form) pair, not only those the solver meets
    for cycle in tabloids(lam.parts):
        for form in tabloids(lam.parts):
            direct = solve_component(lam, m, cycle, form)
            assert _orbit_component(m, cycle, form) == direct, (cycle, form)


def test_orbit_key_relabels_a_canonical_pair():
    cycle, form = Tabloid(((2, 4), (1,), (3,))), Tabloid(((1, 4), (2,), (3,)))
    image, c0, u0 = _orbit_key(cycle, form)
    assert c0 == Numbering(((1, 2), (3,), (4,)))
    # row {2,4} of the cycle: 4 lies in form row 1, 2 in row 2
    assert image == (4, 2, 1, 3)
    assert u0.tabloid() == Tabloid(((1, 3), (2,), (4,)))
    for t, target in ((c0, cycle), (u0, form)):
        assert Tabloid(tuple(tuple(image[p - 1] for p in row) for row in t.rows)) == target


def _orbits(cycles, forms) -> int:
    """S_N-orbits of (cycle, form) pairs: an orbit is fixed by |C_r & U_s|."""
    return len({
        tuple(len(set(r) & set(s)) for r in c.rows for s in u.rows)
        for c in cycles for u in forms
    })


def _assert_one_integral_per_orbit(monkeypatch, lam, m):
    # an empty matrix memo of the module's own kind, or a live matrix of
    # the point is returned without solving and nothing is counted
    monkeypatch.setattr(solve, "_live_matrices", type(solve._live_matrices)())
    keys = set()
    real = solve.cycle_integral
    monkeypatch.setattr(
        solve, "cycle_integral", lambda m, c, u: keys.add((m, c, u)) or real(m, c, u)
    )
    fm = fundamental_solution(lam, m)
    forms = tabloids(lam.parts)
    assert len(keys) == _orbits([t.tabloid() for t in standard_tableaux(lam)], forms)
    return fm, keys


@pytest.mark.parametrize(
    "parts,m,pairs,integrals", [((2, 1, 1), 2, 36, 7), ((2, 2, 1), 1, 150, 11)]
)
def test_solve_takes_one_integral_per_orbit(monkeypatch, parts, m, pairs, integrals):
    fm, keys = _assert_one_integral_per_orbit(monkeypatch, Partition(parts), m)
    assert fm.dimension * len(tabloids(parts)) == pairs and len(keys) == integrals


def test_straightening_solves_each_orbit_once(monkeypatch):
    # (1^4): S_lam is trivial, so the 24 integrals of the standard cycle
    # serve every other cycle of the shape
    calls = []
    real = solve.cycle_integral
    monkeypatch.setattr(solve, "cycle_integral", lambda *a: calls.append(a) or real(*a))
    lam = Partition((1, 1, 1, 1))
    for u in tabloids(lam.parts):
        solve_cycle(lam, 1, u)
    assert len(calls) == 24 * 24 and len(set(calls)) == 24


def test_orbit_key_mutation_without_the_form_row_is_caught(monkeypatch):
    # seeded mutation: sort each cycle row by label alone
    def key_without_form_rows(cycle, form):
        image = tuple(x for row in cycle.rows for x in row)
        back = {x: p for p, x in enumerate(image, start=1)}
        c0, u0 = (
            Numbering(tuple(tuple(sorted(back[x] for x in row)) for row in t.rows))
            for t in (cycle, form)
        )
        return image, c0, u0

    monkeypatch.setattr(solve, "_orbit_key", key_without_form_rows)
    with pytest.raises(AssertionError):
        _assert_one_integral_per_orbit(monkeypatch, Partition((2, 1, 1)), 2)


def test_solve_component_validates_shapes():
    with pytest.raises(ValueError):
        solve_component(
            Partition((2, 1)), 1, Tabloid(((1, 2), (3,))), Tabloid(((1,), (2,)))
        )
    # cycles of another shape: unchecked, the first two were solved as
    # tables of the requested shape and the third raised KeyError
    for parts, cycle in (
        ((3, 1), Tabloid(((1, 2), (3, 4)))),
        ((3,), Tabloid(((1, 2), (3,)))),
        ((2, 1), Tabloid(((1, 2), (4,), (3,)))),
    ):
        with pytest.raises(ValueError):
            solve_cycle(Partition(parts), 1, cycle)


def test_a_numbering_where_a_tabloid_is_expected_is_refused_by_type():
    # solve_component raised TypeError: 'Partition' object is not iterable,
    # and the others said the cycle "does not have shape (2,1)" when it does
    lam = Partition((2, 1))
    t = Numbering(((1, 2), (3,)))
    u = t.tabloid()
    for call in (
        lambda: solve_component(lam, 1, t, u),
        lambda: solve_component(lam, 1, u, t),
        lambda: solve_cycle(lam, 1, t),
        lambda: SolutionTable(lam, 1, t, {}),
        lambda: quotient_coordinates(lam, t),
        lambda: check_straightening(lam, 1, t),
    ):
        with pytest.raises(ValueError, match="expected a Tabloid, got a Numbering"):
            call()


# ---------------------------------------------------------------------------
# coordinates and the fundamental matrix
# ---------------------------------------------------------------------------


def test_polytabloid_columns_three_point():
    a, order = polytabloid_columns(Partition((2, 1)))
    assert [str(u) for u in order] == ["{1,2}|{3}", "{1,3}|{2}", "{2,3}|{1}"]
    assert a == [[1, 0], [0, 1], [-1, -1]]


def test_coordinates_recover_components(fm21):
    # row i of the matrix, paired with the polytabloid columns, rebuilds
    # every tabloid component of table i
    a, order = polytabloid_columns(Partition((2, 1)))
    for i, table in enumerate(fm21.tables):
        for r, u in enumerate(order):
            rebuilt = SparsePolynomial.zero(3)
            for j in range(fm21.dimension):
                rebuilt = rebuilt + fm21.matrix.entry(i, j) * a[r][j]
            assert rebuilt == table.components[u]


def test_coordinates_reject_vector_outside_span():
    values = {
        Tabloid(((1, 2), (3,))): 1,
        Tabloid(((1, 3), (2,))): 0,
        Tabloid(((2, 3), (1,))): 0,
    }
    with pytest.raises(SpanError):
        coordinates_in_specht_basis(Partition((2, 1)), values.__getitem__)


def test_coordinates_on_exact_polytabloid():
    # the first polytabloid itself has coordinates (1, 0)
    values = {
        Tabloid(((1, 2), (3,))): Fraction(1),
        Tabloid(((1, 3), (2,))): Fraction(0),
        Tabloid(((2, 3), (1,))): Fraction(-1),
    }
    coords = coordinates_in_specht_basis(Partition((2, 1)), values.__getitem__)
    assert coords == [Fraction(1), Fraction(0)]


def test_coordinates_of_fraction_vector(fm21):
    # a vector over one denominator has its numerators' coordinates over
    # that denominator: the twisted numerators give the first matrix row
    for fm in (fm21, fundamental_solution(Partition((3, 1)), 1)):
        tw = alternating_twist(fm.tables[0])
        assert tw.den is _discriminant(fm.lam.size, 2)
        coords = coordinates_in_specht_basis(fm.lam, tw.components.__getitem__)
        assert coords == [fm.matrix.entry(0, j) for j in range(fm.dimension)]


@pytest.mark.parametrize("n", range(1, 8))
def test_polytabloids_are_unitriangular_in_row_word_order(n):
    # the peeling order: e_t has distinct tabloids, {t} first, and every
    # other standard tabloid in it belongs to a later tableau
    for lam in enumerate_partitions(n):
        stds = sorted(standard_tableaux(lam), key=row_word)
        position = {t.tabloid(): k for k, t in enumerate(stds)}
        for k, t in enumerate(stds):
            expansion = [u for _, u in column_expansion(t)]
            assert len(set(expansion)) == len(expansion)
            assert expansion[0] == t.tabloid()
            assert all(position[u] > k for u in expansion[1:] if u in position)


SMALL_SHAPES = [lam for n in range(1, 6) for lam in enumerate_partitions(n)]


@st.composite
def specht_combinations(draw):
    """A shape, one coefficient per standard tableau (all integers, all
    Fractions or all small polynomials in two variables) and the index of
    a tabloid."""
    lam = draw(st.sampled_from(SMALL_SHAPES))
    kind = draw(st.sampled_from(["int", "fraction", "poly"]))
    ints = st.integers(-5, 5)
    if kind == "int":
        coeff = ints
    elif kind == "fraction":
        coeff = st.builds(Fraction, ints, st.integers(1, 4))
    else:
        term = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), ints)
        coeff = st.builds(
            lambda items: SparsePolynomial.from_terms(2, items),
            st.lists(term, max_size=3),
        )
    dim = len(standard_tableaux(lam))
    unit_at = draw(st.integers(0, len(tabloids(lam.parts)) - 1))
    return lam, draw(st.lists(coeff, min_size=dim, max_size=dim)), unit_at


@settings(derandomize=True, max_examples=80, deadline=None)
@given(specht_combinations())
def test_coordinates_recover_polytabloid_combinations(case):
    lam, coords, unit_at = case
    a, order = polytabloid_columns(lam)
    vector = [sum((c * x for c, x in zip(coords, row)), coords[0] * 0) for row in a]
    values = dict(zip(order, vector))
    got = coordinates_in_specht_basis(lam, values.__getitem__)
    assert got == coords
    assert [type(c) for c in got] == [type(c) for c in coords]  # ints stay ints
    if lam.nrows > 1:  # S^(N) is all of M^(N); otherwise no tabloid is in S^lam
        values[order[unit_at]] = values[order[unit_at]] + 1
        with pytest.raises(SpanError):
            coordinates_in_specht_basis(lam, values.__getitem__)


# ---------------------------------------------------------------------------
# companions
# ---------------------------------------------------------------------------


def test_dual_matrix_inverts_transposed(fm21):
    dm = dual_matrix(fm21)
    assert dm.m == -1
    assert dm.det == determinant(fm21.matrix)
    # dual x matrix = I on the numerators over det: sum_k N[k][j] M[k][i] = det delta_ij
    n = fm21.dimension
    for i in range(n):
        for j in range(n):
            acc = SparsePolynomial.zero(3)
            for k in range(n):
                acc = acc + dm.entries.entry(k, j) * fm21.matrix.entry(k, i)
            assert acc == (dm.det if i == j else SparsePolynomial.zero(3))


def test_dual_to_json_writes_every_entry_as_its_fraction(fm21):
    dm = dual_matrix(fm21)
    doc = dm.to_json()
    det = dm.det.to_json()
    assert doc["det"] == det
    assert doc["entries"] == [
        [{"num": e.to_json(), "den": det} for e in row] for row in dm.entries.entries
    ]


def test_alternating_twist_structure(fm21):
    table = fm21.tables[0]
    tw = alternating_twist(table)
    assert tw.twisted and tw.m == -1 and tw.cycle == table.cycle
    # the table's own numerators over the one cached Delta^{2m}, whose
    # one expansion is `discriminant_power`
    assert tw.den is _discriminant(3, 2)
    assert tw.den.content == dict.fromkeys([(1, 2), (1, 3), (2, 3)], 2)
    assert tw.den.expand() is discriminant_power(3, 2)
    assert all(tw.components[u] is c for u, c in table.components.items())
    with pytest.raises(ValueError):
        alternating_twist(tw)


def test_reflection_two_points():
    psis = reflection_solutions(2, 1)
    assert [s.index for s in psis] == [1, 2]
    minus1 = SparsePolynomial.constant(2, -1)
    plus1 = SparsePolynomial.constant(2, 1)
    assert psis[0].components == (minus1, plus1)
    assert psis[1].components == (plus1, minus1)


def test_reflection_three_points_frozen():
    psis = reflection_solutions(3, 1)
    z12, z13, z23 = zd(1, 2), zd(1, 3), zd(2, 3)
    assert psis[0].components == (
        -(z23 * z23 * (z12 + z13)),
        z23 * z23 * z13,
        z23 * z23 * z12,
    )
    # values live in the reflection module: coordinates sum to zero,
    # and the full family sums to zero solution by solution
    for a in range(3):
        total = SparsePolynomial.zero(3)
        for c in psis[a].components:
            total = total + c
        assert total.is_zero()
    for k in range(3):
        total = SparsePolynomial.zero(3)
        for a in range(3):
            total = total + psis[a].components[k]
        assert total.is_zero()


def test_reflection_dual_two_points():
    (phi,) = reflection_dual_solutions(2, 1)
    assert phi.m == -1 and phi.index == 1
    half = SparsePolynomial.constant(2, Fraction(1, 2))
    assert phi.den is _discriminant(2, 2)
    assert phi.components == (-half * phi.den, half * phi.den)  # -1/2 and 1/2


def test_reflection_dual_three_points_cubic_numerator():
    phis = reflection_dual_solutions(3, 1)
    assert [p.index for p in phis] == [1, 2]
    z13 = zd(1, 3)
    num = phis[0].components[1]
    assert num * SparsePolynomial.constant(3, 6) == z13 * z13 * z13
    assert phis[0].den == discriminant_power(3, 2)


def test_reflection_pairing_with_duals():
    # <psi_a, phi_b> = sum_k psi_a[k] phi_b[k] equals delta_ab / m for the
    # basis solutions a, b in 1..n-1: on the numerators over phi_b's den,
    # m sum_k psi_a[k] num_b[k] == delta_ab den
    n, m = 3, 2
    psis = reflection_solutions(n, m)
    phis = reflection_dual_solutions(n, m)
    for psi in psis[: n - 1]:
        for phi in phis:
            acc = SparsePolynomial.zero(n)
            for k in range(n):
                acc = acc + phi.components[k] * psi.components[k]
            assert acc * m == (phi.den if psi.index == phi.index else SparsePolynomial.zero(n))


# ---------------------------------------------------------------------------
# guards, determinism, serialization
# ---------------------------------------------------------------------------


def test_budget_arithmetic():
    assert residue_budget(Partition((2, 1)), 1) == 2 * 3 * 1 * 1
    assert residue_budget(Partition((1, 1)), 1) == 1 * 2 * 1 * 1


@pytest.mark.parametrize("n", range(1, 6))
def test_budget_factors_count_what_the_solver_enumerates(n):
    # the multinomial counts the forms, and the factorial product the
    # level-group relabelings the symmetrized forms sum over
    for lam in enumerate_partitions(n):
        relabelings = sum(1 for _ in _level_relabelings(lam))
        assert level_group_size(lam) == relabelings, lam
        stats = diagram_stats(lam, 1)
        assert residue_budget(lam, 1) == (
            stats.specht_dim * len(tabloids(lam.parts)) * relabelings
            * max(stats.config_dim, 1)
        ), lam


def test_budget_guard_refuses_tall_column():
    with pytest.raises(ResourceGuardError):
        fundamental_solution(Partition((1, 1, 1, 1, 1)), 1)
    # raising the budget lifts the refusal (only the guard is exercised)
    check_resources(Partition((1, 1, 1, 1, 1)), 1, budget=10**9)


def test_variable_limit_guard_is_absolute():
    with pytest.raises(ResourceGuardError):
        check_resources(Partition((8, 1)), 1, budget=10**18)


def test_reflection_guard_refuses_an_exponent_at_the_cap(monkeypatch):
    """The path antiderivative has degree n m in its integration variable,
    so n m must stay below the exponent cap; both families refuse such a
    request before any solving."""
    from kzresidue.shapes import EXPONENT_CAP, check_reflection_resources

    def must_not_solve(*args):
        raise AssertionError("the solver ran")

    check_reflection_resources(2, EXPONENT_CAP // 2 - 1)
    for n, m in ((2, EXPONENT_CAP // 2), (2, 10**23), (7, EXPONENT_CAP)):
        with pytest.raises(ResourceGuardError, match="exponent cap"):
            check_reflection_resources(n, m)
    for name in ("_orbit_component", "_discriminant"):
        monkeypatch.setattr(solve, name, must_not_solve)
    for family in (reflection_solutions, reflection_dual_solutions):
        with pytest.raises(ResourceGuardError, match="exponent cap"):
            family(2, 10**23)


def test_budget_is_keyword_only():
    # a positional third argument must not silently become the budget
    with pytest.raises(TypeError):
        fundamental_solution(Partition((2, 1)), 1, 3)


def test_fundamental_json_schema(fm21):
    doc = fm21.to_json()
    assert set(doc) == {
        "lambda",
        "m",
        "degree",
        "cycles",
        "forms",
        "components",
        "matrix",
    }
    assert doc["lambda"] == [2, 1] and doc["m"] == 1 and doc["degree"] == 3
    assert doc["cycles"] == [[[1, 2], [3]], [[1, 3], [2]]]
    assert len(doc["matrix"]) == 2 and len(doc["matrix"][0]) == 2
    entry = doc["matrix"][0][0]
    assert set(entry) == {"vars", "terms"}
    rebuilt = SparsePolynomial.from_json(entry)
    assert rebuilt == fm21.matrix.entry(0, 0)


def test_solution_table_json_schema(fm21):
    doc = fm21.tables[0].to_json()
    assert set(doc) == {"lambda", "m", "cycle", "forms", "components"}
    assert doc["cycle"] == [[1, 2], [3]]
    assert len(doc["components"]) == 3


def test_solution_table_stores_its_forms_in_the_order_of_tabloids(fm21):
    table = fm21.tables[1]
    shuffled = dict(reversed(table.components.items()))
    rebuilt = SolutionTable(table.lam, table.m, table.cycle, shuffled)
    assert list(rebuilt.components) == list(tabloids((2, 1)))
    assert rebuilt == table and rebuilt.to_json() == table.to_json()


@pytest.mark.parametrize("fault, message", [
    ("cycle of another shape", "does not have shape"),
    ("missing form", "not indexed by the tabloids"),
    ("extra form", "not indexed by the tabloids"),
    ("polynomials and fractions", "not all polynomials in 3 variables"),
    ("integers", "not all polynomials in 3 variables"),
    ("polynomials in 2 variables", "not all polynomials in 3 variables"),
    ("fractions in 2 variables", "not all polynomials in 3 variables"),
    ("zero denominator", "denominator is not a non-zero polynomial in 3 variables"),
    ("denominator in 2 variables", "denominator is not a non-zero polynomial in 3 variables"),
    ("number as denominator", "denominator is not a non-zero polynomial in 3 variables"),
])
def test_solution_table_refuses_a_malformed_table_before_storing_it(
    fm21, monkeypatch, fault, message
):
    table = fm21.tables[0]
    cycle, comps, den = table.cycle, dict(table.components), None
    first, last = tabloids((2, 1))[0], tabloids((2, 1))[2]
    if fault == "cycle of another shape":
        cycle = Tabloid(((1,), (2,), (3,)))
    elif fault == "missing form":
        del comps[last]
    elif fault == "extra form":
        comps[Tabloid(((1, 2, 3),))] = SparsePolynomial.zero(3)
    elif fault == "polynomials and fractions":
        # check_kz would raise AttributeError: no attribute 'partial_derivative'
        comps[first] = Fraction(1, 2)
    elif fault == "integers":
        # check_kz would raise AttributeError: no attribute 'permute_variables'
        comps = {u: 0 for u in comps}
    elif fault == "polynomials in 2 variables":
        # check_kz would raise ValueError: not a permutation of 1..2
        comps = {u: SparsePolynomial.variable(2, 1) for u in comps}
    elif fault == "fractions in 2 variables":
        # a twisted table of two points: check_kz would raise ValueError
        comps = {u: SparsePolynomial.variable(2, 1) for u in comps}
        den = discriminant_power(2, 2)
    elif fault == "zero denominator":
        # the components would stand for no values at all
        den = SparsePolynomial.zero(3)
    elif fault == "denominator in 2 variables":
        # check_kz would compare it with a discriminant power in 3 variables
        den = discriminant_power(2, 2)
    else:
        # check_kz would raise AttributeError: no attribute 'is_zero'
        den = 2

    def store(self, *values):
        raise AssertionError("a malformed table was stored")

    monkeypatch.setattr(SolutionTable, "_set", store)
    with pytest.raises(ValueError, match=message):
        SolutionTable(table.lam, table.m, cycle, comps, den is not None, den)


def _not_a_delta_power(fault):
    """A denominator of three points that no fraction family may hold."""
    return {
        "zero": SparsePolynomial.zero(3),
        "a variable in the core": discriminant_power(3, 2) * SparsePolynomial.variable(3, 1),
        "one pair only": zd(1, 2) ** 2,
        "2 variables": discriminant_power(2, 2),
        "a number": 2,
    }[fault]


DEN_FAULTS = ["zero", "a variable in the core", "one pair only", "2 variables", "a number"]


@pytest.mark.parametrize("fault, message", [
    *[(f"den: {f}", "den is not a non-zero constant times a power of every z-difference in 3")
      for f in DEN_FAULTS],
    ("integers", "components are not all polynomials in 3 variables"),
    ("fractions", "components are not all polynomials in 3 variables"),
    ("polynomials in 2 variables", "components are not all polynomials in 3 variables"),
])
def test_reflection_solution_refuses_malformed_input_before_storing_it(monkeypatch, fault, message):
    phi = reflection_dual_solutions(3, 1)[0]
    comps, den = phi.components, phi.den
    if fault.startswith("den: "):
        den = _not_a_delta_power(fault.removeprefix("den: "))
    elif fault == "integers":
        comps = (0, 0, 0)
    elif fault == "fractions":
        comps = (Fraction(1, 2), *comps[1:])
    else:
        comps = tuple(SparsePolynomial.variable(2, 1) for _ in comps)

    def store(self, *values):
        raise AssertionError("a malformed member was stored")

    monkeypatch.setattr(solve.ReflectionSolution, "_set", store)
    with pytest.raises(ValueError, match=message):
        solve.ReflectionSolution(3, phi.m, phi.index, comps, den)


@pytest.mark.parametrize("fault, message", [
    *[(f"det: {f}", "det is not a non-zero constant times a power of every z-difference in 3")
      for f in DEN_FAULTS],
    ("rows for a matrix", "entries are not a matrix of polynomials in 3 variables"),
    ("integers", "entries are not a matrix of polynomials in 3 variables"),
    ("polynomials in 2 variables", "entries are not a matrix of polynomials in 3 variables"),
])
def test_dual_matrix_refuses_malformed_input_before_storing_it(fm21, monkeypatch, fault, message):
    dm = dual_matrix(fm21)
    det, entries = dm.det, dm.entries
    if fault.startswith("det: "):
        det = _not_a_delta_power(fault.removeprefix("det: "))
    elif fault == "rows for a matrix":
        entries = [list(row) for row in entries.entries]
    elif fault == "integers":
        entries = PolyMatrix([[1, 0], [0, 1]])
    else:
        entries = PolyMatrix([[SparsePolynomial.variable(2, 1)] * 2] * 2)

    def store(self, *values):
        raise AssertionError("a malformed dual was stored")

    monkeypatch.setattr(solve.DualMatrix, "_set", store)
    with pytest.raises(ValueError, match=message):
        solve.DualMatrix(dm.lam, dm.m, det, entries)


def test_fraction_families_hold_their_denominators_in_content_form(fm21):
    """The path family and the twist share one cached Delta^{2m}; the dual
    holds det = C * Delta^p and content-form numerators; a `SparsePolynomial`
    passed to a constructor is factored there."""
    disc = exactalg._discriminant(3, 2)
    assert all(phi.den is disc for phi in reflection_dual_solutions(3, 1))
    assert alternating_twist(fm21.tables[0]).den is disc
    dm = dual_matrix(fm21)
    assert dm.det.discriminant_form() == (2, dm.det.core.constant_value())
    assert all(type(e) is exactalg.ContentPolynomial for row in dm.entries.entries for e in row)
    psi = reflection_solutions(3, 1)[0]
    assert all(type(c) is exactalg.ContentPolynomial for c in psi.components)
    rebuilt = solve.ReflectionSolution(3, -1, 1, [c.expand() for c in psi.components],
                                       discriminant_power(3, 2))
    assert rebuilt.den == disc and all(type(c) is SparsePolynomial for c in rebuilt.components)


def test_solve_cycle_returns_complete_table():
    lam = Partition((2, 1))
    table = solve_cycle(lam, 1, Tabloid(((1, 2), (3,))))
    assert isinstance(table, SolutionTable)
    assert set(table.components) == set(tabloids((2, 1)))
    assert not table.twisted and table.m == 1


# ---------------------------------------------------------------------------
# one live solve per point
# ---------------------------------------------------------------------------


def test_equal_arguments_return_the_live_table_and_matrix(fm21):
    # the matrix is live; a table is solved afresh, equal to the stored one
    lam = Partition((2, 1))
    assert fundamental_solution(lam, 1) is fm21
    for t, table in zip(fm21.cycles, fm21.tables):
        fresh = solve_cycle(lam, 1, t.tabloid())
        assert fresh == table and fresh is not table
    assert fundamental_solution(lam, 2) is not fm21


def test_the_memos_hold_nothing_once_callers_drop_the_objects(monkeypatch):
    # an empty memo of the module's own kind, so other tests' objects stay out
    monkeypatch.setattr(solve, "_live_matrices", type(solve._live_matrices)())
    calls = []
    real = solve._orbit_component
    monkeypatch.setattr(solve, "_orbit_component", lambda *a: calls.append(a) or real(*a))
    lam = Partition((2, 1))
    fm = fundamental_solution(lam, 1)
    assert len(calls) == 2 * 3  # two tables of three forms
    assert len(solve._live_matrices) == 1
    assert fundamental_solution(lam, 1) is fm and len(calls) == 6
    doc = fm.to_json()
    del fm
    gc.collect()
    assert len(solve._live_matrices) == 0
    assert fundamental_solution(lam, 1).to_json() == doc and len(calls) == 12


def test_a_live_point_still_meets_the_guard(fm21, monkeypatch):
    def must_not_solve(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(solve, "solve_cycle", must_not_solve)
    assert fundamental_solution(fm21.lam, 1) is fm21
    with pytest.raises(ResourceGuardError):
        fundamental_solution(fm21.lam, 1, budget=1)
