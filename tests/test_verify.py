"""The verification battery, exercised in both directions.

Half of these tests confirm the checks pass on correctly solved
instances; the other half feed deliberately corrupted tables, matrices
and duals to the same checks and insist they fail with a witness.  A
checker that cannot reject a broken solution proves nothing.
"""
import copy
import pickle
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kzresidue import exactalg, solve, verify
from kzresidue import (
    CheckReport,
    FundamentalMatrix,
    Partition,
    PolyMatrix,
    ReflectionSolution,
    ResourceGuardError,
    SolutionTable,
    SparsePolynomial,
    Tabloid,
    act_transposition,
    alternating_twist,
    check_det,
    check_dual,
    check_equivariance,
    check_frobenius,
    check_kz,
    check_primitive,
    check_rank,
    check_reflection,
    check_shape,
    check_straightening,
    diagram_stats,
    discriminant_power,
    dual_matrix,
    enumerate_partitions,
    fundamental_solution,
    quotient_coordinates,
    reflection_dual_solutions,
    reflection_solutions,
    run_suite,
    solve_cycle,
    standard_tableaux,
    tabloids,
)
from kzresidue.verify import RELABELING, _kz_reports, _kz_witness, _specht_transposition_matrix

LAM21 = Partition((2, 1))


@pytest.fixture(scope="module")
def fm21():
    return fundamental_solution(LAM21, 1)


def fresh(table: SolutionTable) -> SolutionTable:
    """The table rebuilt by the constructor, so with an empty KZ record."""
    return SolutionTable(
        table.lam, table.m, table.cycle, table.components, table.twisted, table.den
    )


def perturbed(table: SolutionTable, u: Tabloid, delta: SparsePolynomial):
    comps = dict(table.components)
    comps[u] = comps[u] + delta
    return SolutionTable(table.lam, table.m, table.cycle, comps, table.twisted, table.den)


# ---------------------------------------------------------------------------
# the checks accept correct solutions
# ---------------------------------------------------------------------------


def test_kz_passes_on_solved_tables(fm21):
    for table in fm21.tables:
        rep = check_kz(table)
        assert rep.passed and rep.witness is None
        assert rep.check == "kz_system" and rep.m == 1


def test_kz_passes_on_twisted_table(fm21):
    # a table with an empty record: the proof runs on the twisted table
    rep = check_kz(alternating_twist(fresh(fm21.tables[0])))
    assert rep.passed
    assert rep.m == -1
    assert rep.info == {"twisted": True, "equations": 9}


def test_primitive_passes(fm21):
    for table in fm21.tables:
        assert check_primitive(table).passed


def test_shape_reports_leading_coefficients(fm21):
    rep = check_shape(fm21)
    assert rep.passed
    assert rep.info["degree"] == 3
    assert rep.info["leading_coefficients"] == {
        "(1, 2, 3)": "-2",
        "(1, 3, 2)": "1",
    }


def test_rank_certificate(fm21):
    rep = check_rank(fm21)
    assert rep.passed
    assert rep.info["certificate_point"] == [1, 2, 5]


def test_det_constant(fm21):
    rep = check_det(fm21)
    assert rep.passed
    assert rep.info == {
        "power": 2,
        "constant": "-2",
        "identity": (
            "d_i log det M = tr Omega_i (Jacobi), so det M = C Delta^p, "
            "C = det M(z0) / Delta(z0)^p"
        ),
        "premises": ["kz_system", "specht_coordinates", "transposition_trace"],
        "point": [1, 2, 5],
    }


def test_det_constant_of_a_six_by_six_matrix():
    # (3,1,1) has six standard tableaux: the largest determinant in the suite
    rep = check_det(fundamental_solution(Partition((3, 1, 1)), 1))
    assert rep.passed, rep.witness
    assert rep.info["constant"] == "13824"  # frozen regression value


def test_equivariance_passes(fm21):
    assert check_equivariance(fm21).passed


def test_frobenius_sweep_small_shapes():
    for n in range(2, 6):
        for lam in enumerate_partitions(n):
            rep = check_frobenius(lam)
            assert rep.passed, str(lam)
            assert rep.m is None


def _matmul(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(len(b[0])))
        for r in range(len(a))
    )


@pytest.mark.parametrize("lam", [lam for n in range(1, 6) for lam in enumerate_partitions(n)],
                         ids=str)
def test_young_matrices_square_to_one_and_satisfy_the_braid_relations(lam):
    n, d = lam.size, len(standard_tableaux(lam))
    one = tuple(tuple(int(r == c) for c in range(d)) for r in range(d))
    rho = {(i, j): _specht_transposition_matrix(lam, i, j)
           for i, j in combinations(range(1, n + 1), 2)}
    for mat in rho.values():
        assert _matmul(mat, mat) == one
    for i in range(1, n - 1):
        a, b = rho[(i, i + 1)], rho[(i + 1, i + 2)]
        assert _matmul(_matmul(a, b), a) == _matmul(_matmul(b, a), b)
    for i, j in combinations(range(1, n), 2):
        if j > i + 1:  # far-apart adjacent transpositions commute
            a, b = rho[(i, i + 1)], rho[(j, j + 1)]
            assert _matmul(a, b) == _matmul(b, a)


def test_young_matrices_are_memoized_tuples():
    lam = Partition((3, 2))
    mat = _specht_transposition_matrix(lam, 2, 4)
    assert type(mat) is tuple and all(type(row) is tuple for row in mat)
    assert _specht_transposition_matrix(Partition((3, 2)), 2, 4) is mat


@pytest.mark.parametrize("parts", [(2, 1), (3, 2), (2, 2, 1)], ids=str)
def test_frobenius_fails_closed_on_a_changed_young_matrix(parts, monkeypatch):
    lam = Partition(parts)
    honest = verify._specht_transposition_matrix
    col = len(standard_tableaux(lam)) - 1

    def changed(lam, i, j):
        mat = [list(row) for row in honest(lam, i, j)]
        if (i, j) == (1, 2):
            mat[0][col] += 1
        return mat

    monkeypatch.setattr(verify, "_specht_transposition_matrix", changed)
    rep = check_frobenius(lam)
    assert not rep.passed and rep.m is None
    assert rep.witness == {"tableau": str(standard_tableaux(lam)[col].rows)}


def test_dual_passes(fm21):
    rep = check_dual(fm21)
    assert rep.passed
    assert rep.m == -1


def test_reflection_check_small():
    for n, m in ((2, 1), (3, 1), (3, 2)):
        rep = check_reflection(n, m)
        assert rep.passed, (n, m)


def test_straightening_standard_cycles_are_units():
    assert quotient_coordinates(LAM21, Tabloid(((1, 2), (3,)))) == [1, 0]
    assert quotient_coordinates(LAM21, Tabloid(((1, 3), (2,)))) == [0, 1]


def test_straightening_coordinates_frozen():
    assert quotient_coordinates(LAM21, Tabloid(((2, 3), (1,)))) == [-1, -1]
    assert quotient_coordinates(Partition((1, 1)), Tabloid(((2,), (1,)))) == [-1]
    lam22 = Partition((2, 2))
    expected = {
        "{1,2}|{3,4}": [1, 0],
        "{1,3}|{2,4}": [0, 1],
        "{1,4}|{2,3}": [-1, -1],
        "{2,3}|{1,4}": [-1, -1],
        "{2,4}|{1,3}": [0, 1],
        "{3,4}|{1,2}": [1, 0],
    }
    for u in tabloids((2, 2)):
        assert quotient_coordinates(lam22, u) == expected[str(u)]


def _straighten_reference(lam, cycle):
    """Brute force: write {cycle} in the span of the standard tabloids and
    every simple lowering image (one label moved from row s down to row
    s+1, summed over the labels) by Fraction Gauss-Jordan elimination."""
    order = tabloids(lam.parts)
    index = {u: r for r, u in enumerate(order)}
    stds = standard_tableaux(lam)
    columns = [{index[t.tabloid()]: 1} for t in stds]
    for s in range(1, lam.nrows):
        sizes = list(lam.parts)
        sizes[s - 1] += 1
        sizes[s] -= 1
        for u in tabloids(tuple(sizes)):
            col = {}
            for k in u.rows[s - 1]:
                rows = list(u.rows)
                rows[s - 1] = tuple(x for x in rows[s - 1] if x != k)
                rows[s] += (k,)
                r = index[Tabloid(tuple(rows))]
                col[r] = col.get(r, 0) + 1
            columns.append(col)
    # augmented rows [A | e_cycle], reduced column by column
    a = [[Fraction(c.get(r, 0)) for c in columns] + [Fraction(u == cycle)]
         for r, u in enumerate(order)]
    rank = 0
    for c in range(len(columns)):
        p = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        lead = a[rank][c]
        pivot = a[rank] = [x / lead for x in a[rank]]
        for r, row in enumerate(a):
            if r != rank and row[c]:
                a[r] = [x - row[c] * y for x, y in zip(row, pivot)]
        rank += 1
    assert not any(row[-1] for row in a[rank:])  # {cycle} lies in the span
    # the standard columns come first and are independent, so column j
    # pivots in row j
    return [a[j][-1] for j in range(len(stds))]


def _straightening_cases():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            us = tabloids(lam.parts)
            if n == 5:
                us = [us[len(us) // 3], us[2 * len(us) // 3], us[-1]]
            for u in us:
                yield lam, u


def test_quotient_coordinates_match_elimination_reference():
    # every tabloid with N <= 4, three fixed tabloids of each N = 5 shape
    for lam, u in _straightening_cases():
        got = quotient_coordinates(lam, u)
        assert got == _straighten_reference(lam, u), (str(lam), str(u))
        assert all(type(y) is int for y in got)


def test_quotient_coordinates_reject_a_cycle_of_another_shape():
    for lam, cycle in (
        (Partition((2, 2)), Tabloid(((1, 2), (3,)))),
        (Partition((3, 1)), Tabloid(((1, 2), (3, 4)))),
        (LAM21, Tabloid(((1,), (2, 3)))),
    ):
        with pytest.raises(ValueError):
            quotient_coordinates(lam, cycle)


def test_straightening_check_passes():
    # every tabloid of every shape with N <= 4; (1,1,1,1) dominates the time
    for n in range(1, 5):
        for lam in enumerate_partitions(n):
            fm = fundamental_solution(lam, 1)  # held, so every cycle reads its tables
            for u in tabloids(lam.parts):
                rep = check_straightening(lam, 1, u)
                assert rep.passed, (str(lam), str(u), rep.witness)
    assert rep.info["premises"] == ["highest_weight"]


def test_straightening_fails_closed_on_a_wrong_coordinate(monkeypatch):
    lam, cycle = Partition((2, 2)), Tabloid(((1, 4), (2, 3)))
    right = quotient_coordinates(lam, cycle)
    monkeypatch.setattr(
        verify, "quotient_coordinates", lambda lam, cycle: [right[0] + 1, *right[1:]]
    )
    rep = check_straightening(lam, 1, cycle)
    assert not rep.passed
    assert rep.witness["cycle"] == str(cycle)
    assert rep.witness["form"] in {str(u) for u in tabloids(lam.parts)}


def test_straightening_reads_the_standard_tables_off_the_live_matrix(monkeypatch):
    lam, cycle = Partition((2, 2)), Tabloid(((1, 4), (2, 3)))
    fm = fundamental_solution(lam, 1)
    solves = mock.Mock(wraps=solve.solve_cycle)
    peels = mock.Mock(wraps=solve.coordinates_in_specht_basis)
    monkeypatch.setattr(verify, "solve_cycle", solves)
    monkeypatch.setattr(solve, "solve_cycle", solves)
    monkeypatch.setattr(solve, "coordinates_in_specht_basis", peels)
    assert check_straightening(lam, 1, cycle).passed
    assert [c.args for c in solves.call_args_list] == [(lam, 1, cycle)]
    assert peels.call_count == 0
    assert fundamental_solution(lam, 1) is fm


def test_straightening_over_the_budget_is_refused_before_solving(monkeypatch):
    def must_not_solve(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(solve, "_orbit_component", must_not_solve)
    lam = Partition((1, 1, 1, 1, 1))
    with pytest.raises(ResourceGuardError):
        check_straightening(lam, 1, Tabloid(((2,), (1,), (3,), (4,), (5,))))


# ---------------------------------------------------------------------------
# the checks reject corrupted solutions
# ---------------------------------------------------------------------------


def test_kz_rejects_monomial_perturbation(fm21):
    table = fm21.tables[0]
    u = next(iter(table.components))
    delta = SparsePolynomial.from_terms(3, [((3, 0, 0), 1)])
    rep = check_kz(perturbed(table, u, delta))
    assert not rep.passed
    assert rep.witness is not None and "cycle" in rep.witness


def test_kz_rejects_sign_flip(fm21):
    table = fm21.tables[0]
    u = Tabloid(((1, 3), (2,)))
    flipped = perturbed(table, u, table.components[u] * (-2))
    assert not check_kz(flipped).passed


def test_kz_rejects_swapped_components(fm21):
    table = fm21.tables[0]
    u1, u2 = Tabloid(((1, 3), (2,))), Tabloid(((2, 3), (1,)))
    comps = dict(table.components)
    comps[u1], comps[u2] = comps[u2], comps[u1]
    swapped = SolutionTable(table.lam, table.m, table.cycle, comps)
    assert not check_kz(swapped).passed


def test_kz_rejects_wrong_parameter(fm21):
    table = fm21.tables[0]
    relabeled = SolutionTable(table.lam, 2, table.cycle, dict(table.components))
    assert not check_kz(relabeled).passed


def test_kz_rejects_corrupted_twisted_table(fm21):
    tw = alternating_twist(fm21.tables[0])
    u = next(iter(tw.components))
    comps = dict(tw.components)
    comps[u] = comps[u] + SparsePolynomial.from_terms(3, [((1, 1, 1), 1)])
    broken = SolutionTable(tw.lam, tw.m, tw.cycle, comps, twisted=True, den=tw.den)
    assert not check_kz(broken).passed


@given(
    st.integers(0, 2),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5).filter(bool),
)
def test_kz_rejects_any_single_component_perturbation(which, exps, coeff):
    fm = fundamental_solution(LAM21, 1)
    table = fm.tables[which % len(fm.tables)]
    u = sorted(table.components, key=str)[which % 3]
    delta = SparsePolynomial.from_terms(3, [(exps, coeff)])
    assert not check_kz(perturbed(table, u, delta)).passed


def test_primitive_rejects_constant_table(fm21):
    table = fm21.tables[0]
    p = SparsePolynomial.from_terms(3, [((1, 1, 1), 1)])
    comps = {u: p for u in table.components}
    broken = SolutionTable(table.lam, table.m, table.cycle, comps)
    rep = check_primitive(broken)
    assert not rep.passed and rep.witness is not None


def test_rank_and_det_reject_singular_matrix(fm21):
    row = [fm21.matrix.entry(0, 0), fm21.matrix.entry(0, 1)]
    singular = FundamentalMatrix(
        fm21.lam, fm21.m, fm21.cycles, fm21.tables, PolyMatrix([row, row])
    )
    rep = check_rank(singular)
    assert not rep.passed
    assert rep.witness == {
        "reason": "determinant vanishes at the certificate point",
        "point": [1, 2, 5],
    }
    rep = check_det(singular)
    assert not rep.passed
    # row 1 repeats row 0's coordinates, which do not recombine to table 1
    assert rep.witness["premise"] == "specht_coordinates"
    assert rep.witness["row"] == 1


def test_shape_rejects_wrong_degree(fm21):
    table = fm21.tables[0]
    u = next(iter(table.components))
    bad_tables = (perturbed(table, u, SparsePolynomial.constant(3, 7)),) + fm21.tables[1:]
    broken = FundamentalMatrix(fm21.lam, fm21.m, fm21.cycles, bad_tables, fm21.matrix)
    rep = check_shape(broken)
    assert not rep.passed
    assert rep.witness["reason"] == "not homogeneous"


def _with_component(fm, u, comp):
    """fm with table 1's component at u replaced by comp."""
    comps = dict(fm.tables[0].components)
    comps[u] = comp
    first = SolutionTable(fm.lam, fm.m, fm.tables[0].cycle, comps)
    return FundamentalMatrix(fm.lam, fm.m, fm.cycles, (first, *fm.tables[1:]), fm.matrix)


def test_shape_names_a_component_of_another_degree(fm21):
    u = tabloids((2, 1))[1]
    comp = fm21.tables[0].components[u] * SparsePolynomial.variable(3, 1)
    rep = check_shape(_with_component(fm21, u, comp))
    assert rep.witness == {"cycle": "{1,2}|{3}", "form": str(u), "reason": "degree 4 != 3"}


def test_shape_names_a_non_integer_coefficient(fm21):
    u = tabloids((2, 1))[2]
    half = SparsePolynomial.from_terms(3, [((3, 0, 0), Fraction(1, 2))])
    rep = check_shape(_with_component(fm21, u, fm21.tables[0].components[u] + half))
    assert rep.witness == {"cycle": "{1,2}|{3}", "form": str(u), "reason": "non-integer coefficient"}


def test_shape_names_a_zero_diagonal_entry(fm21):
    rows = _rows(fm21)
    rows[1][1] = SparsePolynomial.zero(3)
    rep = check_shape(_with_matrix(fm21, rows))
    assert rep.witness == {"row": 1, "reason": "zero diagonal entry"}


def test_shape_names_a_diagonal_entry_with_the_wrong_leading_term(fm21):
    rows = _rows(fm21)
    rows[0][0] = rows[1][1]  # homogeneous, integral and of the right degree
    rep = check_shape(_with_matrix(fm21, rows))
    t = fm21.cycles[0]
    assert rep.witness == {
        "row": 0,
        "tableau": str(t.rows),
        "leading": list(rows[1][1].leading_term()[0]),
        "expected": list(verify._expected_leading_exponents(t, 1)),
    }
    assert rep.witness["leading"] != rep.witness["expected"]


def test_dual_rejects_tampered_fundamental_matrix(fm21):
    rows = [
        [fm21.matrix.entry(i, j) for j in range(fm21.dimension)]
        for i in range(fm21.dimension)
    ]
    rows[0][0] = rows[0][0] + SparsePolynomial.from_terms(3, [((3, 0, 0), 1)])
    broken = FundamentalMatrix(
        fm21.lam, fm21.m, fm21.cycles, fm21.tables, PolyMatrix(rows)
    )
    rep = check_dual(broken)
    assert not rep.passed and rep.witness is not None
    # the tampered determinant is no longer C * Delta^p, so the
    # precondition the log-derivative check rests on fails first
    assert rep.witness["precondition"] == "determinant_identity"
    assert rep.info["precondition"] == "determinant_identity"


def test_kz_rejects_twisted_denominator_of_wrong_form(fm21):
    tw = alternating_twist(fm21.tables[0])
    den = tw.den
    bad = den + SparsePolynomial.from_terms(3, [((den.degree(), 0, 0), 1)])
    rep = check_kz(SolutionTable(tw.lam, tw.m, tw.cycle, tw.components, twisted=True, den=bad))
    assert not rep.passed
    assert rep.witness["reason"] == (
        "shared denominator is not a constant times a discriminant power"
    )


def test_kz_accepts_twisted_denominator_with_constant(fm21):
    tw = alternating_twist(fm21.tables[0])
    den = discriminant_power(3, 2) * 3
    comps = {u: c * 3 for u, c in tw.components.items()}
    rep = check_kz(SolutionTable(tw.lam, tw.m, tw.cycle, comps, twisted=True, den=den))
    assert rep.passed, rep.witness


def _discriminant_form(n, den):
    """`(p, C)` when den is C * Delta^p in n variables, as the fraction
    families' constructors read it (a polynomial is factored first), else
    None."""
    try:
        return solve._delta_power_or_refuse(den, n, "den").discriminant_form()
    except ValueError:
        return None


def _expanded_discriminant_power_of(n, den):
    """The expanded test that content form replaced, kept as a reference:
    `(p, C)` when den == C * Delta^p, C = a / b with a and b the
    coefficients of den and of Delta^p at Delta^p's leading monomial."""
    pairs = n * (n - 1) // 2
    if den.is_zero() or den.nvars != n or pairs and den.degree() % pairs:
        return None
    p = den.degree() // pairs if pairs else 0
    disc = discriminant_power(n, p)
    lead = max(disc.terms)
    c = exactalg.demote(Fraction(den.terms.get(lead, 0)) / disc.terms[lead])
    return (p, c) if c and den == disc * c else None


@pytest.mark.parametrize("c", [1, -3, Fraction(5, 2)], ids=str)
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_discriminant_power_of_reads_power_and_constant(n, p, c):
    found = _discriminant_form(n, discriminant_power(n, p) * c)
    assert found == (p if n > 1 else 0, c)  # Delta = 1 on one point
    assert type(found[1]) is (int if c.denominator == 1 else Fraction)


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (3, 4), (4, 2)])
def test_discriminant_power_of_takes_the_cached_power_as_it_is(n, p, monkeypatch):
    """C * Delta^p is read off the fields: the cached Delta^p and an equal
    value built apart give (p, 1) with no product and no expansion."""
    den = exactalg._discriminant(n, p)
    equal = exactalg.ContentPolynomial(dict(den.content), SparsePolynomial.constant(n, 1))
    assert equal == den and equal is not den

    def refuse(*args):
        raise AssertionError("product or expansion in the denominator test")

    monkeypatch.setattr(SparsePolynomial, "__mul__", refuse)
    monkeypatch.setattr(exactalg.ContentPolynomial, "expand", refuse)
    assert den.discriminant_form() == (p, 1) == equal.discriminant_form()


def _not_c_delta_p(kind, n, p):
    """A polynomial of the named kind that is not C * Delta^p in n variables."""
    disc = discriminant_power(n, p)
    if kind == "zero":
        return SparsePolynomial.zero(n)
    if kind == "degree":  # deg = p C(n, 2) + 1
        return disc * SparsePolynomial.variable(n, 1)
    if kind == "not_proportional":  # the same degree
        return discriminant_power(n, p - 1) * SparsePolynomial.z_diff(n, 1, 2) ** (n * (n - 1) // 2)
    if kind == "minus_leading":
        return disc - SparsePolynomial.from_terms(n, [disc.leading_term()])
    if kind == "plus_below":
        den = disc + SparsePolynomial.variable(n, 1) ** disc.degree()
        assert den.leading_term() == disc.leading_term()
        return den
    assert kind == "other_variable_count"
    return SparsePolynomial.from_terms(n + 1, [(e + (0,), c) for e, c in disc.items()])


NOT_C_DELTA_P = [
    *[("zero", n, 0) for n in (1, 2, 3, 4)],
    *[("degree", n, p) for n in (3, 4) for p in (0, 1, 2)],
    *[("not_proportional", n, p) for n in (3, 4) for p in (1, 2)],
    *[
        (kind, n, p)
        for kind in ("minus_leading", "plus_below", "other_variable_count")
        for n in (2, 3, 4)
        for p in (1, 2)
    ],
]


@pytest.mark.parametrize("kind,n,p", NOT_C_DELTA_P, ids=str)
def test_discriminant_power_of_refuses_other_forms(kind, n, p):
    assert _discriminant_form(n, _not_c_delta_p(kind, n, p)) is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.sampled_from(["exact", "variable in the core", "one pair off by one"]),
    st.data(),
)
def test_content_form_test_agrees_with_the_expanded_comparison(n, p, c, near, data):
    """C * Delta^p read off the content agrees with the expanded
    comparison it replaced, on C * Delta^p and on near misses: a core
    with a variable, or one pair's exponent one away from p."""
    pairs = list(combinations(range(1, n + 1), 2))
    content = dict.fromkeys(pairs, p) if p else {}
    core = SparsePolynomial.constant(n, c)
    if near == "variable in the core":
        core = core * SparsePolynomial.variable(n, data.draw(st.integers(1, n)))
    elif near == "one pair off by one" and pairs:
        pair = data.draw(st.sampled_from(pairs))
        content[pair] = content.get(pair, 0) + data.draw(st.sampled_from([-1, 1]))
        content = {pd: e for pd, e in content.items() if e > 0}
    value = exactalg.ContentPolynomial.factor(core, content)
    found = value.discriminant_form()
    assert found == _expanded_discriminant_power_of(n, value.expand())
    if near == "exact" and c:
        assert found == (p if n > 1 else 0, c)


def _den_squared_reference(n, m, den, nums, act) -> bool:
    """The KZ system for components nums[key] / den multiplied through by
    den^2 and by P_i = prod_{l != i} (z_i - z_l), with den differentiated
    directly: an independent reference that assumes nothing about the
    form of den (den = 1 for polynomial components) and divides nothing;
    each cofactor P_i / (z_i - z_j) is built as its own product.  `act`
    returns the acted numerator as a polynomial."""
    def product(i, *skip):
        """prod (z_i - z_l) over l != i not in `skip`."""
        prod = SparsePolynomial.constant(n, 1)
        for l in range(1, n + 1):
            if l != i and l not in skip:
                prod = prod * SparsePolynomial.z_diff(n, i, l)
        return prod

    for i in range(1, n + 1):
        prod_i = product(i)
        for key, num in nums.items():
            lhs = (
                num.partial_derivative(i) * den - num * den.partial_derivative(i)
            ) * prod_i
            rhs = SparsePolynomial.zero(n)
            for j in range(1, n + 1):
                if j != i:
                    rhs = rhs + (act(i, j, key) + num) * product(i, j)
            if lhs != rhs * den * m:
                return False
    return True


def _kz_den_squared_reference(table: SolutionTable) -> bool:
    sign = -1 if table.twisted else 1
    nums = {u: c.expand() for u, c in table.components.items()}
    return _den_squared_reference(
        table.lam.size,
        table.m,
        table.den.expand(),
        nums,
        lambda i, j, u: nums[act_transposition(u, i, j)] * sign,
    )


@pytest.fixture(scope="module")
def twisted21():
    return {
        m: [alternating_twist(t) for t in fundamental_solution(LAM21, m).tables]
        for m in (1, 2)
    }


@settings(max_examples=40)
@given(
    st.sampled_from((1, 2)),
    st.integers(0, 5),
    st.none()
    | st.tuples(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        st.integers(-3, 3).filter(bool),
    ),
)
def test_log_derivative_check_agrees_with_den_squared_reference(
    twisted21, m, which, perturbation
):
    table = twisted21[m][which % 2]
    if perturbation is not None:
        exps, coeff = perturbation
        u = sorted(table.components, key=str)[which % 3]
        comps = dict(table.components)
        delta = SparsePolynomial.from_terms(3, [(exps, coeff)])
        comps[u] = comps[u] + delta
        table = SolutionTable(table.lam, table.m, table.cycle, comps, twisted=True, den=table.den)
    rep = check_kz(table)
    assert rep.passed == _kz_den_squared_reference(table)
    if perturbation is None:
        assert rep.passed


def _as_pairs(act):
    """A polynomial-valued action as the one (coefficient, polynomial)
    pair that `_kz_witness` takes."""
    return lambda i, j, key: ((1, act(i, j, key)),)


def _kz_cases():
    """(n, m, p, den, nums, act_on) for polynomial tables, twisted tables
    and dual rows; `act_on(nums)` is the transposition action on a
    (possibly perturbed) copy of the numerators, as polynomials."""
    cases = []
    for lam, m in ((LAM21, 1), (LAM21, 2), (Partition((2, 2)), 1)):
        n = lam.size
        fm = fundamental_solution(lam, m)
        table = fm.tables[-1]
        twisted = alternating_twist(table)
        den = twisted.den.expand()
        # the numerators expanded: `_kz_witness` with no content is the
        # system on the numerators themselves
        expanded = {u: c.expand() for u, c in table.components.items()}
        cases.append((n, m, 0, SparsePolynomial.constant(n, 1), expanded,
                      lambda nums: lambda i, j, u: nums[act_transposition(u, i, j)]))
        cases.append((n, twisted.m, den.degree() // (n * (n - 1) // 2), den, expanded,
                      lambda nums: lambda i, j, u: -nums[act_transposition(u, i, j)]))
        if m == 1:
            dm = dual_matrix(fm)
            d = dm.dimension
            mats = {
                (i, j): _specht_transposition_matrix(lam, i, j)
                for i, j in combinations(range(1, n + 1), 2)
            }

            def act_on(nums, mats=mats, d=d, n=n):
                def act(i, j, key):
                    b, col = key
                    mat = mats[(min(i, j), max(i, j))]
                    return sum(
                        (nums[(b, k)] * mat[k][col] for k in range(d) if mat[k][col]),
                        SparsePolynomial.zero(n),
                    )
                return act

            nums = {(b, j): dm.entries.entry(b, j).expand() for b in range(d) for j in range(d)}
            p = 2 * m * diagram_stats(lam, m).d_plus
            cases.append((n, dm.m, p, dm.det.expand(), nums, act_on))
    return cases


@pytest.fixture(scope="module")
def kz_cases():
    return _kz_cases()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(0, 11),
    st.none() | st.tuples(st.lists(st.integers(0, 5), min_size=4, max_size=4),
                          st.integers(-3, 3).filter(bool)),
)
def test_pole_division_agrees_with_den_squared_reference(
    kz_cases, which, where, perturbation
):
    n, m, p, den, nums, act_on = kz_cases[which]
    nums = dict(nums)
    if perturbation is not None:
        exps, coeff = perturbation
        key = sorted(nums, key=str)[where % len(nums)]
        nums[key] = nums[key] + SparsePolynomial.from_terms(n, [(exps[:n], coeff)])
    act = act_on(nums)
    failure = _kz_witness(n, m, p, nums, _as_pairs(act))
    assert (failure is None) == _den_squared_reference(n, m, den, nums, act)
    if perturbation is None:
        assert failure is None


def _expanded_first_failure(table, p=0):
    """`(i, form, fields)` of the first failing equation of an untwisted
    table over Delta^p (p = 0: polynomial), every equation in order, on
    the expanded numerators with no content divided out: the system read
    on psi_U itself."""
    nums = {u: c.expand() for u, c in table.components.items()}

    def act(i, j, u):
        return ((1, nums[act_transposition(u, i, j)]),)

    i, u, fields = _kz_witness(table.lam.size, table.m, p, nums, act)
    return i, str(u), fields


@pytest.mark.parametrize("parts, m", [((2, 1), 2), ((3, 1), 1), ((2, 2), 1), ((2, 1, 1), 1)])
def test_a_changed_core_coefficient_fails_kz_where_the_expanded_check_does(parts, m):
    """`check_kz` divides the table's shared content out and checks the
    cores; one changed core coefficient fails it at the equation where
    the system on the expanded components first fails."""
    first = fundamental_solution(Partition(parts), m).tables[0]
    for u, value in first.components.items():
        exps, _ = value.core.leading_term()
        core = value.core + SparsePolynomial.from_terms(value.nvars, [(exps, 1)])
        comps = {**first.components, u: exactalg.ContentPolynomial.factor(core, value.content)}
        table = SolutionTable(first.lam, m, first.cycle, comps)
        rep = check_kz(table)
        i, form, _ = _expanded_first_failure(table)
        assert not rep.passed, (parts, m, u)
        assert (rep.witness["i"], rep.witness["form"]) == (i, form)
        assert set(rep.witness) - {"cycle", "i", "form"} in (
            {"difference"}, {"j", "reason", "remainder"}
        )


def test_pole_division_names_the_remainder(kz_cases):
    for n, m, p, den, nums, act_on in kz_cases:
        key = next(iter(nums))
        nums = {**nums, key: nums[key] + 1}
        i, _, fields = _kz_witness(n, m, p, nums, _as_pairs(act_on(nums)))
        assert fields["reason"] == "numerator not divisible by the pole"
        assert i < fields["j"] and fields["remainder"] != "0"
    table = fundamental_solution(LAM21, 1).tables[0]
    u = next(iter(table.components))
    rep = check_kz(perturbed(table, u, SparsePolynomial.constant(3, 1)))
    assert set(rep.witness) == {"cycle", "i", "form", "j", "reason", "remainder"}


def test_kz_shares_no_quotient_when_m_eps_is_not_m_plus_p():
    """Components 1 / (z1 - z2) at {1}|{2} and -2 / (z1 - z2) at {2}|{1},
    untwisted, m = 1: p = 1, so m eps = 1 != m + p.  The first component
    solves its equation with X_12 = 0; the second does not, with X_12 = -3.
    A quotient for one form shared with the other would pass the table."""
    a, b = tabloids((1, 1))
    den = SparsePolynomial.z_diff(2, 1, 2)
    comps = {a: SparsePolynomial.constant(2, 1), b: SparsePolynomial.constant(2, -2)}
    rep = check_kz(SolutionTable(Partition((1, 1)), 1, a, comps, den=den))
    assert not rep.passed
    assert rep.witness["form"] == str(b) and rep.witness["j"] == 2
    assert rep.witness["reason"] == "numerator not divisible by the pole"
    assert rep.witness["remainder"] == str(SparsePolynomial.constant(2, -3))


def test_dual_fails_closed_on_a_corrupted_minor(fm21, monkeypatch):
    calls = []
    honest = exactalg._subset_minors

    def corrupt_first_minor(lines, nvars):
        minors = honest(lines, nvars)
        calls.append(minors)
        if len(calls) == 2:  # the first adjugate pass; the first gives det(M')
            s = min(minors)
            minors[s] = minors[s] + 1
        return minors

    monkeypatch.setattr(exactalg, "_subset_minors", corrupt_first_minor)
    fm = _rebuilt(fm21)  # an empty memo: fm21 keeps the dual an earlier test built
    rep = check_dual(fm)
    assert calls and not rep.passed
    assert len(calls) == fm.dimension + 1
    assert rep.witness == {"reason": "adjugate identity failed; matrix arithmetic bug"}
    assert rep.info["adjugate_identity"].startswith("M' adj(M') == det(M') I")


def test_dual_names_the_first_equation_a_tampered_dual_row_breaks(fm21, monkeypatch):
    # the denominator is untouched, so the determinant identity holds and
    # only the system itself can fail
    dm = dual_matrix(fm21)
    rows = [list(row) for row in dm.entries.entries]
    rows[0][0] = rows[0][0] + SparsePolynomial.constant(3, 1)
    tampered = solve.DualMatrix(dm.lam, dm.m, dm.det, PolyMatrix(rows))
    monkeypatch.setattr(verify, "dual_matrix", lambda fm: tampered)
    rep = check_dual(fm21)
    assert rep.witness == {
        "i": 1, "dual_row": 0, "coordinate": 0, "j": 3,
        "reason": "numerator not divisible by the pole", "remainder": "2",
    }
    assert rep.m == -1


@pytest.mark.parametrize("parts, m", [((2, 1), 2), ((2, 2), 1), ((3, 1), 1)])
def test_dual_fails_row_by_row_where_the_expanded_system_first_does(parts, m, monkeypatch):
    """`check_dual` divides each dual row's own content out and checks the
    rows one by one; with a core coefficient changed in a late row and
    another in an early one, it names the equation at which the system on
    the expanded numerators first fails."""
    lam = Partition(parts)
    dm = dual_matrix(fundamental_solution(lam, m))
    d, n = dm.dimension, lam.size
    rows = [list(row) for row in dm.entries.entries]
    for b, j in ((d - 1, 0), (0, d - 1)):
        value = rows[b][j]
        exps, _ = value.core.leading_term()
        core = value.core + SparsePolynomial.from_terms(n, [(exps, 1)])
        rows[b][j] = exactalg.ContentPolynomial.factor(core, value.content)
        tampered = solve.DualMatrix(lam, dm.m, dm.det, PolyMatrix(rows))
        monkeypatch.setattr(verify, "dual_matrix", lambda fm: tampered)
        rep = check_dual(fundamental_solution(lam, m))
        nums = {(r, c): rows[r][c].expand() for r in range(d) for c in range(d)}

        def act(i, l, key):
            mat = _specht_transposition_matrix(lam, min(i, l), max(i, l))
            return [(mat[k][key[1]], nums[(key[0], k)]) for k in range(d) if mat[k][key[1]]]

        p = dm.det.discriminant_form()[0]
        i, (row, col), _ = _kz_witness(n, dm.m, p, nums, act)
        assert (rep.witness["i"], rep.witness["dual_row"], rep.witness["coordinate"]) == (
            i, row, col)


def test_dual_names_the_earliest_of_the_rows_first_failures(fm21, monkeypatch):
    """Rows are checked one by one; the witness is the earliest (i, row,
    coordinate) among their first failures, the full order's first."""
    def fail(n, m, p, nums, act, content=None):
        row = {b for b, _ in nums}.pop()  # one row of numerators a call
        return (3, (0, 1), {"difference": "row 0"}) if row == 0 else (2, (1, 0), {"difference": "row 1"})

    monkeypatch.setattr(verify, "_kz_witness", fail)
    rep = check_dual(fm21)
    assert rep.witness == {"i": 2, "dual_row": 1, "coordinate": 0, "difference": "row 1"}


def test_check_dual_reuses_the_dual_kept_on_its_matrix(fm21, monkeypatch):
    spy = mock.Mock(wraps=solve.det_adjugate)
    monkeypatch.setattr(solve, "det_adjugate", spy)
    fm = _rebuilt(fm21)
    dm = dual_matrix(fm)
    assert check_dual(fm).passed
    assert dual_matrix(fm) is dm and spy.call_count == 1


def _tamper_first_path_solution(monkeypatch, n, m, delta):
    """Add delta to component 1 of the first path solution and subtract it
    from component 2, so the coordinate sum still vanishes."""
    phis = reflection_dual_solutions(n, m)
    first = phis[0]
    c0, c1 = first.components[0], first.components[1]
    comps = (c0 + delta, c1 - delta) + first.components[2:]
    tampered = (ReflectionSolution(first.n, first.m, first.index, comps, first.den),) + phis[1:]
    monkeypatch.setattr(
        "kzresidue.verify.reflection_dual_solutions", lambda n_, m_: tampered
    )
    return first


def test_reflection_rejects_perturbed_path_coefficient(monkeypatch):
    n, m = 3, 1
    c0 = reflection_dual_solutions(n, m)[0].components[0]
    exp = next(e for e, c in c0.items() if Fraction(c).denominator > 1)
    # one rational coefficient moves by 1/7: a single monomial is not
    # translation invariant, so the invariance step catches it before
    # the pairing is formed
    delta = SparsePolynomial.from_terms(n, [(exp, Fraction(1, 7))])
    first = _tamper_first_path_solution(monkeypatch, n, m, delta)
    rep = check_reflection(n, m)
    assert not rep.passed
    assert rep.witness == {
        "reason": "not translation invariant: sum_i d/dz_i f != 0",
        "family": "path",
        "index": first.index,
        "component": 1,
    }
    assert "translation_invariance" in rep.info


def test_reflection_names_a_residue_component_that_breaks_the_zero_sum(monkeypatch):
    n, m = 3, 1
    psis = reflection_solutions(n, m)
    first = psis[0]
    comps = (first.components[0], first.components[1] + SparsePolynomial.constant(n, 1),
             *first.components[2:])
    tampered = (ReflectionSolution(n, m, first.index, comps), *psis[1:])
    monkeypatch.setattr(verify, "reflection_solutions", lambda n_, m_: tampered)
    rep = check_reflection(n, m)
    assert rep.witness == {"reason": "residue family does not sum to zero", "component": 2}


def test_reflection_names_a_path_member_whose_coordinates_do_not_sum_to_zero(monkeypatch):
    n, m = 3, 1
    phis = reflection_dual_solutions(n, m)
    second = phis[1]
    c0 = second.components[0]
    comps = (c0 + SparsePolynomial.constant(n, 1), *second.components[1:])
    tampered = (phis[0], ReflectionSolution(n, second.m, second.index, comps, second.den),
                *phis[2:])
    monkeypatch.setattr(verify, "reflection_dual_solutions", lambda n_, m_: tampered)
    rep = check_reflection(n, m)
    assert rep.witness == {
        "reason": "path family coordinate sum is not zero", "index": second.index,
    }


@pytest.mark.parametrize("den", ["twice", "none", "another power"])
def test_reflection_names_a_path_member_over_another_denominator(den):
    # the pairing compares numerators with Delta^{2m}, so a member whose
    # den is not Delta^{2m} (here its values halved, made polynomial, or
    # over Delta^m) fails by name before any identity is formed
    n, m = 3, 1
    psis, phis = reflection_solutions(n, m), reflection_dual_solutions(n, m)
    second = phis[1]
    other = {"twice": second.den * 2, "none": None,
             "another power": exactalg._discriminant(n, m)}[den]
    moved = ReflectionSolution(n, second.m, second.index, second.components, other)
    rep = verify._reflection_report(n, m, psis, (phis[0], moved))
    assert rep.witness == {
        "reason": "path family denominator is not Delta^{2m}", "index": second.index,
    }
    assert verify._reflection_report(n, m, psis, phis).passed


def test_reflection_names_a_residue_member_with_a_denominator():
    n, m = 3, 1
    psis, phis = reflection_solutions(n, m), reflection_dual_solutions(n, m)
    first = psis[0]
    over = ReflectionSolution(n, m, first.index, first.components, discriminant_power(n, 2))
    rep = verify._reflection_report(n, m, (over, *psis[1:]), phis)
    assert rep.witness == {
        "reason": "residue family member is not polynomial", "index": first.index,
    }


@pytest.mark.parametrize("n", [3, 4])
def test_reflection_catches_a_tamper_of_the_last_residue_solution_by_translation(n, monkeypatch):
    # the translation test runs on all n residue solutions, so a term that
    # is not translation invariant, added to psi_n alone, is caught there,
    # before the zero sum on the slice
    m = 1
    psis = reflection_solutions(n, m)
    last = psis[-1]
    comps = (last.components[0] + SparsePolynomial.variable(n, 1) ** 2, *last.components[1:])
    tampered = (*psis[:-1], ReflectionSolution(n, m, last.index, comps))
    monkeypatch.setattr(verify, "reflection_solutions", lambda n_, m_: tampered)
    tested = mock.Mock(wraps=verify._translation_defect)
    monkeypatch.setattr(verify, "_translation_defect", tested)
    rep = check_reflection(n, m)
    assert rep.witness == {
        "reason": "not translation invariant: sum_i d/dz_i f != 0",
        "family": "residue", "index": last.index, "component": 1,
    }
    monkeypatch.setattr(verify, "reflection_solutions", reflection_solutions)
    tested.reset_mock()
    assert check_reflection(n, m).passed
    # n residue solutions and n - 1 path solutions, n components each
    assert tested.call_count == (2 * n - 1) * n


def _with_core(value, core):
    """A content value with `value`'s content and another core."""
    return exactalg.ContentPolynomial.factor(core, value.content)


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_reflection_fails_on_a_changed_core_coefficient_of_the_last_residue_member(
    n, m, monkeypatch
):
    """One coefficient of a core of psi_n, the member the translation
    step used to skip, moves by one: the check fails and names it."""
    psis = reflection_solutions(n, m)
    last = psis[-1]
    k, value = next((k, c) for k, c in enumerate(last.components) if not c.core.is_constant())
    exps, coeff = value.core.leading_term()
    core = value.core + SparsePolynomial.from_terms(n, [(exps, 1)])
    comps = (*last.components[:k], _with_core(value, core), *last.components[k + 1:])
    tampered = (*psis[:-1], ReflectionSolution(n, m, last.index, comps))
    monkeypatch.setattr(verify, "reflection_solutions", lambda n_, m_: tampered)
    rep = check_reflection(n, m)
    assert not rep.passed
    assert rep.witness == {
        "reason": "not translation invariant: sum_i d/dz_i f != 0",
        "family": "residue", "index": last.index, "component": k + 1,
    }


def test_reflection_fails_on_a_core_term_that_is_not_invariant_before_the_slice(monkeypatch):
    n, m = 4, 2
    psis = reflection_solutions(n, m)
    first = psis[0]
    value = first.components[1]
    comps = (first.components[0], _with_core(value, value.core + SparsePolynomial.variable(n, 2)),
             *first.components[2:])
    tampered = (ReflectionSolution(n, m, first.index, comps), *psis[1:])
    monkeypatch.setattr(verify, "reflection_solutions", lambda n_, m_: tampered)

    def no_slice(self):
        raise AssertionError("the slice was reached")

    monkeypatch.setattr(exactalg.ContentPolynomial, "restrict_last_to_zero", no_slice)
    rep = check_reflection(n, m)
    assert rep.witness == {
        "reason": "not translation invariant: sum_i d/dz_i f != 0",
        "family": "residue", "index": first.index, "component": 2,
    }


def test_the_checks_expand_nothing(monkeypatch):
    """With the solutions built, the reflection, twist and dual checks
    pass with every expansion of a content value refused."""
    fm = fundamental_solution(Partition((2, 2)), 1)
    table = fresh(fm.tables[0])
    assert check_kz(table).passed
    twisted = alternating_twist(table)
    dual_matrix(fm)
    reflection_solutions(4, 2)  # the orbit integrals, cached

    def refuse(*args):
        raise AssertionError("an expansion")

    monkeypatch.setattr(exactalg, "discriminant_power", refuse)
    monkeypatch.setattr(exactalg.ContentPolynomial, "expand", refuse)
    assert check_reflection(4, 2).passed
    assert check_kz(twisted).passed
    assert check_kz(fresh(twisted)).passed  # no record: the proof on the cores
    assert check_dual(fm).passed


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (4, 1)])
def test_reflection_pairing_on_slice_catches_invariant_tamper(monkeypatch, n, m):
    # (1/7)(z_1 - z_2)^d is translation invariant and of the numerators'
    # degree d; it moves between two components, so the coordinate sum
    # and the invariance step both pass and only the sliced pairing can
    # catch the change
    d = reflection_dual_solutions(n, m)[0].components[0].degree()
    delta = SparsePolynomial.z_diff(n, 1, 2) ** d * Fraction(1, 7)
    first = _tamper_first_path_solution(monkeypatch, n, m, delta)
    rep = check_reflection(n, m)
    assert not rep.passed
    assert rep.witness["b"] == first.index
    assert rep.witness["reason"] == "pairing is not delta_ab/m on z_n = 0"


def test_straightening_rejects_wrong_shape_parameter():
    # the combination is parameter sensitive: coordinates computed for
    # the quotient stay correct, but mismatched solve parameters break it
    rep = check_straightening(LAM21, 1, Tabloid(((2, 3), (1,))))
    assert rep.passed
    assert rep.info["coordinates"] == ["-1", "-1"]


# ---------------------------------------------------------------------------
# report plumbing and the composed battery
# ---------------------------------------------------------------------------


def test_report_serialization(fm21):
    rep = check_kz(fm21.tables[0])
    doc = rep.to_json()
    assert doc == {
        "check": "kz_system",
        "lambda": [2, 1],
        "m": 1,
        "verdict": "pass",
        "witness": None,
        "info": {"twisted": False, "equations": 9},
    }
    assert rep.one_line() == "[PASS] kz_system shape=(2,1) m=1"


def test_failed_report_one_line(fm21):
    table = fm21.tables[0]
    u = next(iter(table.components))
    rep = check_kz(perturbed(table, u, SparsePolynomial.constant(3, 1)))
    assert rep.one_line().startswith("[FAIL] kz_system")
    assert rep.to_json()["verdict"] == "fail"


BATTERY = [
    "kz_system",
    "highest_weight",
    "polynomial_shape",
    "full_rank",
    "equivariance",
    "content_sum_action",
    "determinant_identity",
]


def test_run_suite_composition():
    reports = run_suite(LAM21, 1)
    assert [r.check for r in reports] == BATTERY
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("parts", [(3, 3), (2, 2, 1, 1), (6, 1), (4, 3), (6, 2)], ids=str)
def test_run_suite_runs_one_battery_at_every_size(parts, monkeypatch):
    # every step that reads a solved matrix is stubbed by a passing report
    # of its name, so nothing is solved; check_frobenius runs for real
    lam = Partition(parts)

    def passing(name):
        return lambda *args, **info: CheckReport(name, lam, 1)

    monkeypatch.setattr(verify, "fundamental_solution", lambda lam_, m, budget: mock.Mock(
        dimension=1, tables=(None,)))
    monkeypatch.setattr(verify, "_kz_reports", lambda fm: (CheckReport("kz_system", lam, 1),))
    for step, name in (("check_primitive", "highest_weight"), ("check_shape", "polynomial_shape"),
                       ("check_rank", "full_rank"), ("check_equivariance", "equivariance"),
                       ("check_det", "determinant_identity")):
        monkeypatch.setattr(verify, step, passing(name))
    reports = run_suite(lam, 1)
    assert [r.check for r in reports] == BATTERY
    assert all(r.passed for r in reports)
    assert reports[BATTERY.index("content_sum_action")] == check_frobenius(lam)


def test_frobenius_passes_on_every_admitted_shape_of_seven_and_eight_points():
    # the price never falls as m grows, so m = 1 admits every shape any m admits
    admitted = []
    for n in (7, 8):
        for lam in enumerate_partitions(n):
            try:
                solve.check_resources(lam, 1)
            except ResourceGuardError:
                continue
            admitted.append(lam)
            assert check_frobenius(lam).passed, lam
    assert len(admitted) == 9


@pytest.mark.parametrize("lam", [Partition((2, 2, 1)), Partition((3, 2))], ids=str)
def test_run_suite_passes_at_five_points(lam):
    reports = run_suite(lam, 1)
    assert [r.witness for r in reports if not r.passed] == []


# ---------------------------------------------------------------------------
# the determinant identity by Liouville's formula at one integer point
# ---------------------------------------------------------------------------


def _with_matrix(fm, rows):
    return FundamentalMatrix(fm.lam, fm.m, fm.cycles, fm.tables, PolyMatrix(rows))


def _rows(fm):
    return [list(row) for row in fm.matrix.entries]


# every shape of two to four points at m = 1 and 2, but (1,1,1,1) at m = 2,
# whose solve alone takes minutes; (3,2) m = 1 adds a 5 x 5 determinant.
# (1,) is pinned below: with one point Delta = 1 and p cannot be read off
SYMBOLIC_POINTS = [
    (lam.parts, m)
    for n in range(2, 5)
    for lam in enumerate_partitions(n)
    for m in (1, 2)
    if (lam.parts, m) != ((1, 1, 1, 1), 2)
] + [((3, 2), 1)]


@pytest.mark.parametrize("parts,m", SYMBOLIC_POINTS, ids=str)
def test_det_agrees_with_the_symbolic_determinant(parts, m):
    fm = fundamental_solution(Partition(parts), m)
    rep = check_det(fm)
    assert rep.passed, rep.witness
    det = exactalg.determinant(fm.matrix)
    power, constant = _discriminant_form(fm.lam.size, det)
    assert (rep.info["power"], rep.info["constant"]) == (power, str(constant))


def test_det_constant_of_the_four_one_shape():
    rep = check_det(fundamental_solution(Partition((4, 1)), 1))
    assert rep.passed, rep.witness
    assert (rep.info["power"], rep.info["constant"]) == (6, "24")


@pytest.mark.parametrize(
    "parts,m,power,constant",
    [((1,), 1, 2, "1"), ((2,), 1, 2, "1"), ((1, 1), 2, 0, "3")],
    ids=str,
)
def test_det_edge_cases_keep_their_values(parts, m, power, constant):
    # (1,) has no transposition and Delta = 1; the other two have d = 1
    rep = check_det(fundamental_solution(Partition(parts), m))
    assert rep.passed, rep.witness
    assert (rep.info["power"], rep.info["constant"]) == (power, constant)


def test_det_rejects_a_perturbed_matrix_entry(fm21):
    rows = _rows(fm21)
    rows[1][0] = rows[1][0] + SparsePolynomial.from_terms(3, [((3, 0, 0), 1)])
    rep = check_det(_with_matrix(fm21, rows))
    assert not rep.passed and rep.info["constant"] is None
    assert rep.witness["premise"] == "specht_coordinates" and rep.witness["row"] == 1


def test_det_rejects_a_power_off_by_one(fm21, monkeypatch):
    honest = verify._specht_transposition_matrix

    def shifted_trace(lam, i, j):
        mat = [list(row) for row in honest(lam, i, j)]
        mat[0][0] += 1  # tr rho(1 2) + 1: p = m (chi + d) grows by m = 1
        return mat

    monkeypatch.setattr(verify, "_specht_transposition_matrix", shifted_trace)
    rep = check_det(fm21)
    assert not rep.passed
    assert rep.witness == {"premise": "transposition_trace", "trace": 1, "expected": 2}
    assert rep.info["power"] == 3


@pytest.mark.parametrize("parts", [(2, 1), (1, 1, 1)], ids=str)
def test_det_rejects_a_point_with_a_repeated_coordinate(parts, monkeypatch):
    # (1,1,1) has p = 0, where Delta(z0)^p = 1 would not divide by zero
    fm = fundamental_solution(Partition(parts), 1)
    monkeypatch.setattr(verify, "_evaluation_point", lambda n: (1, 5, 5))
    rep = check_det(fm)
    assert not rep.passed
    assert rep.witness == {
        "reason": "evaluation point has a repeated coordinate",
        "point": [1, 5, 5],
    }


def test_det_fails_when_the_recombination_is_skipped(fm21, monkeypatch):
    # doubling a row doubles C and leaves the tables solving the system:
    # only the recombination premise can catch it
    rows = _rows(fm21)
    rows[0] = [e * 2 for e in rows[0]]
    doubled = _with_matrix(fm21, rows)
    rep = check_det(doubled)
    assert not rep.passed
    assert rep.witness["premise"] == "specht_coordinates" and rep.witness["row"] == 0
    monkeypatch.setattr(verify, "_coordinates_witness", lambda fm: None)
    assert check_det(doubled).info["constant"] == "-4"
    monkeypatch.undo()
    # an expansion that adds nothing leaves every component as residual
    monkeypatch.setattr(verify, "column_expansion", lambda t: [])
    rep = check_det(fundamental_solution(LAM21, 1))
    assert not rep.passed
    assert rep.witness["premise"] == "specht_coordinates" and rep.witness["row"] == 0


def test_det_rejects_a_repeated_solution(fm21):
    # every premise holds when one solution fills both rows, and C = 0
    row = [fm21.matrix.entry(0, j) for j in range(fm21.dimension)]
    tables = (fm21.tables[0], fm21.tables[0])
    twice = FundamentalMatrix(fm21.lam, fm21.m, fm21.cycles, tables, PolyMatrix([row, row]))
    rep = check_det(twice)
    assert not rep.passed and rep.info["constant"] is None
    assert rep.witness == {"reason": "det M(z0) = 0", "point": [1, 2, 5], "value": "0"}
    assert not check_rank(twice).passed


def test_det_rejects_a_table_that_fails_the_kz_check(fm21):
    table = fm21.tables[1]
    u = next(iter(table.components))
    bad_tables = fm21.tables[:1] + (perturbed(table, u, SparsePolynomial.constant(3, 1)),)
    broken = FundamentalMatrix(fm21.lam, fm21.m, fm21.cycles, bad_tables, fm21.matrix)
    rep = check_det(broken)
    assert not rep.passed
    assert rep.witness["premise"] == "kz_system"
    assert rep.witness["cycle"] == str(table.cycle)


def test_battery_takes_no_symbolic_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("symbolic determinant of M")

    monkeypatch.setattr(exactalg, "determinant", refuse)
    for lam, m in ((LAM21, 1), (LAM21, 2), (Partition((2, 2)), 1)):
        assert all(rep.passed for rep in run_suite(lam, m)), (lam, m)
        fm = fundamental_solution(lam, m)
        assert check_dual(fm).passed, (lam, m)


def test_run_suite_and_check_det_share_one_kz_pass(monkeypatch):
    calls = mock.Mock(wraps=verify.check_kz)
    monkeypatch.setattr(verify, "check_kz", calls)
    fm = fundamental_solution(Partition((3, 1)), 1)
    monkeypatch.setattr(verify, "fundamental_solution", lambda lam, m, budget: fm)
    reports = run_suite(fm.lam, 1)
    assert all(rep.passed for rep in reports)
    # in full on the first table; the relabeling premise covers the others
    assert calls.call_count == 1
    assert reports[0].check == "kz_system"
    assert reports[0].info["by_relabeling"] == fm.dimension - 1


# ---------------------------------------------------------------------------
# the relabeling premise and the orbit solve, under seeded mutations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fm31():
    return fundamental_solution(Partition((3, 1)), 1)


def _rebuilt(fm, tables=None):
    """The same matrix with an empty report memo, optionally other tables."""
    return FundamentalMatrix(fm.lam, fm.m, fm.cycles, tables or fm.tables, fm.matrix)


def _run_suite_on(fm, monkeypatch):
    fresh = _rebuilt(fm)
    monkeypatch.setattr(verify, "fundamental_solution", lambda lam, m, budget: fresh)
    return run_suite(fm.lam, fm.m)


def test_kz_reports_check_the_first_table_and_relabel_the_rest(fm31):
    reports = _kz_reports(_rebuilt(fm31))
    assert len(reports) == fm31.dimension == 3
    assert all(rep.passed and rep.check == "kz_system" for rep in reports)
    assert reports[0].info["equations"] == 16
    first = fm31.tables[0].cycle
    for rep, table in zip(reports[1:], fm31.tables[1:]):
        image = rep.info["sigma"]
        assert rep.info["identity"] == RELABELING and rep.info["from_cycle"] == str(first)
        assert Tabloid(tuple(tuple(image[x - 1] for x in row) for row in first.rows)) == table.cycle


def test_run_suite_names_the_relabeling_identity():
    reports = run_suite(Partition((3, 1)), 1)
    rep = reports[0]
    assert rep.check == "kz_system" and rep.passed
    assert rep.info == {
        "cycles": 3, "checked_by_check_kz": 1, "by_relabeling": 2, "identity": RELABELING,
        "equations": 16,
    }
    # highest weight and the shape check read every table and name no premise
    assert reports[1].check == "highest_weight"
    assert reports[1].info == {"cycles": 3}
    assert reports[2].check == "polynomial_shape"
    assert not {"tables_checked", "by_relabeling", "premises"} & reports[2].info.keys()


def test_premise_rejects_a_perturbed_component_of_a_later_table(fm31):
    table = fm31.tables[2]
    u = tabloids((3, 1))[1]
    bad = fm31.tables[:2] + (perturbed(table, u, SparsePolynomial.variable(4, 1)),)
    reports = _kz_reports(_rebuilt(fm31, bad))
    assert [rep.passed for rep in reports] == [True, True, False]
    witness = reports[2].witness
    assert witness["cycle"] == str(table.cycle) and witness["form"] == str(u)
    assert witness["identity"] == RELABELING and witness["sigma"] == reports[2].info["sigma"]
    assert "premise" not in witness
    rep = check_det(_rebuilt(fm31, bad))
    assert not rep.passed
    assert rep.witness["premise"] == "kz_system" and rep.witness["form"] == str(u)


def test_premise_fails_closed_when_sigma_is_the_identity(fm31, monkeypatch):
    monkeypatch.setattr(verify, "_row_relabeling", lambda source, target: (1, 2, 3, 4))
    reports = _kz_reports(_rebuilt(fm31))
    assert reports[0].passed and not any(rep.passed for rep in reports[1:])
    assert all(rep.witness["sigma"] == [1, 2, 3, 4] for rep in reports[1:])
    assert not _run_suite_on(fm31, monkeypatch)[0].passed


def test_every_relabeled_report_fails_with_a_failing_first_table(fm31, monkeypatch):
    first = fm31.tables[0]
    bad = (perturbed(first, tabloids((3, 1))[0], SparsePolynomial.constant(4, 1)),)
    # the later tables stay the true ones, so only the first table is wrong
    reports = _kz_reports(_rebuilt(fm31, bad + fm31.tables[1:]))
    assert not any(rep.passed for rep in reports)
    assert reports[0].witness["cycle"] == str(first.cycle)
    for rep, table in zip(reports[1:], fm31.tables[1:]):
        assert rep.witness["cycle"] == str(table.cycle)
        assert rep.witness["from_cycle"] == str(first.cycle)
    assert not check_det(_rebuilt(fm31, bad + fm31.tables[1:])).passed


def test_premise_rejects_a_table_claiming_another_parameter(fm31):
    # the matrix refuses it, so no relabeling premise meets it
    table = fm31.tables[1]
    other = SolutionTable(table.lam, 2, table.cycle, table.components)
    with pytest.raises(ValueError, match="is not a polynomial table of"):
        _rebuilt(fm31, (fm31.tables[0], other, fm31.tables[2]))


def test_equivariance_catches_an_orbit_path_with_the_inverse_convention(monkeypatch):
    # seeded mutation: z_sigma(p) -> z_p instead of z_p -> z_sigma(p)
    def inverse_convention(m, cycle, form):
        image, c0, u0 = solve._orbit_key(cycle, form)
        inverse = sorted(range(1, len(image) + 1), key=lambda p: image[p - 1])
        return solve.cycle_integral(m, c0, u0).permute_variables(tuple(inverse))

    # the tables are rebuilt under the mutation and the correct matrix is
    # kept: a mutated solve can stop in the Specht peeling before any check
    for parts in ((2, 1), (3, 1), (2, 2), (2, 1, 1)):
        fm = fundamental_solution(Partition(parts), 1)
        with monkeypatch.context() as patch:
            patch.setattr(solve, "_orbit_component", inverse_convention)
            tables = tuple(solve.solve_cycle(fm.lam, 1, t.tabloid()) for t in fm.cycles)
        rep = check_equivariance(_rebuilt(fm, tables))
        assert not rep.passed, parts
        assert set(rep.witness) == {"cycle", "form", "difference"}


def test_equivariance_names_a_perturbed_entry_of_a_later_table(fm31):
    standard = {t.tabloid() for t in fm31.cycles}
    u = next(u for u in tabloids(fm31.lam.parts) if u not in standard)
    table = fm31.tables[2]
    delta = SparsePolynomial.constant(4, 1)
    tables = fm31.tables[:2] + (perturbed(table, u, delta),)
    rep = check_equivariance(_rebuilt(fm31, tables))
    assert not rep.passed
    assert rep.witness == {"cycle": str(table.cycle), "form": str(u), "difference": str(delta)}


def test_equivariance_fails_when_a_stored_component_loses_a_content_power(fm31):
    table = fm31.tables[1]
    u, value = next((u, v) for u, v in table.components.items() if v.content)
    pd = next(iter(value.content))  # one power of this pair comes off
    content = {k: x - (k == pd) for k, x in value.content.items() if (k, x) != (pd, 1)}
    comps = {**table.components, u: exactalg.ContentPolynomial(content, value.core)}
    tables = (fm31.tables[0], SolutionTable(table.lam, table.m, table.cycle, comps), fm31.tables[2])
    rep = check_equivariance(_rebuilt(fm31, tables))
    assert not rep.passed
    assert (rep.witness["cycle"], rep.witness["form"]) == (str(table.cycle), str(u))


@pytest.mark.parametrize("parts, m", [((2, 1), 1), ((3, 1), 1), ((2, 2), 2)])
def test_equivariance_takes_one_direct_integral_per_stored_entry(monkeypatch, parts, m):
    fm = fundamental_solution(Partition(parts), m)
    calls = mock.Mock(wraps=verify.solve_component)
    monkeypatch.setattr(verify, "solve_component", calls)
    rep = check_equivariance(fm)
    pairs = len(standard_tableaux(fm.lam)) * len(tabloids(parts))
    assert rep.passed and calls.call_count == pairs
    compared = {(c.args[2], c.args[3]) for c in calls.call_args_list}
    assert compared == {(t.cycle, u) for t in fm.tables for u in tabloids(parts)}
    assert rep.info == {"pairs": pairs, "identity": RELABELING}


# ---------------------------------------------------------------------------
# one KZ proof per table: the record, the twist and the relabeled tables
# ---------------------------------------------------------------------------


def _fresh_matrix(fm):
    """The matrix with an empty report memo and tables with empty records."""
    return _rebuilt(fm, tuple(map(fresh, fm.tables)))


def _divisions(monkeypatch):
    calls = mock.Mock(wraps=verify._divide_by_z_diff)
    monkeypatch.setattr(verify, "_divide_by_z_diff", calls)
    return calls


def test_the_twist_reads_the_proof_of_its_table(fm31, monkeypatch):
    table = fresh(fm31.tables[0])
    rep = check_kz(table)
    assert rep.passed and table._cache == {(1, 1): (None, rep.info)}
    divisions = _divisions(monkeypatch)
    twisted = alternating_twist(table)
    assert twisted._cache is table._cache
    tw = check_kz(twisted)
    assert divisions.call_count == 0
    assert tw.passed and tw.m == -1 and tw.witness is None
    assert tw.info == {**rep.info, "twisted": True, "twist": verify.TWIST}
    again = check_kz(table)
    assert divisions.call_count == 0 and again.info == rep.info  # its own record
    # the other way round: a proof made on the twist serves its table
    other = fresh(fm31.tables[0])
    assert check_kz(alternating_twist(other)).info == {**rep.info, "twisted": True}
    divisions.reset_mock()
    assert check_kz(other).info == {**rep.info, "twist": verify.TWIST}
    assert divisions.call_count == 0


@pytest.mark.parametrize("u, delta", [
    (tabloids((3, 1))[1], SparsePolynomial.variable(4, 1)),
    (tabloids((3, 1))[0], SparsePolynomial.variable(4, 2) ** 4),
    (tabloids((3, 1))[3], SparsePolynomial.constant(4, 2)),
])
def test_the_twist_of_a_perturbed_table_reads_its_witness(fm31, u, delta, monkeypatch):
    broken = perturbed(fm31.tables[0], u, delta)
    rep = check_kz(broken)
    assert not rep.passed
    divisions = _divisions(monkeypatch)
    tw = check_kz(alternating_twist(broken))
    assert divisions.call_count == 0
    assert not tw.passed and tw.m == -1 and tw.info["twisted"] is True
    assert tw.witness == rep.witness
    # the witness a full check of the twisted table gives, without a record
    monkeypatch.undo()
    assert tw.witness == check_kz(alternating_twist(fresh(broken))).witness


@pytest.mark.parametrize("parts", [(3, 1), (2, 1, 1)])
def test_relabeled_tables_and_their_twists_read_the_relabeling(parts, monkeypatch):
    fm = _fresh_matrix(fundamental_solution(Partition(parts), 1))
    reports = _kz_reports(fm)
    assert all(rep.passed for rep in reports) and len(reports) == fm.dimension == 3
    divisions = _divisions(monkeypatch)
    for k, (table, kz) in enumerate(zip(fm.tables, reports)):
        plain, twisted = check_kz(table), check_kz(alternating_twist(table))
        assert plain.passed and twisted.passed and twisted.m == -1
        assert plain.info == kz.info
        assert twisted.info == {**kz.info, "twisted": True, "twist": verify.TWIST}
        if k:
            assert twisted.info["identity"] == RELABELING
            assert twisted.info["from_cycle"] == str(fm.tables[0].cycle)
            assert twisted.info["sigma"] == kz.info["sigma"]
        else:
            assert "identity" not in twisted.info
            assert twisted.info["equations"] == fm.lam.size * len(table.components)
    assert divisions.call_count == 0


def test_kz_reports_keep_a_record_made_before_them(fm31):
    fm = _fresh_matrix(fm31)
    made = check_kz(fm.tables[2])
    assert all(rep.passed for rep in _kz_reports(fm))
    assert check_kz(fm.tables[2]).info == made.info and "equations" in made.info
    assert check_kz(fm.tables[1]).info["identity"] == RELABELING


def test_a_matrix_refuses_tables_of_another_system(fm21):
    """`_kz_reports` relabels the components of one table into another,
    so a matrix holds only polynomial tables of its own shape and m."""
    lam, m, cycles, matrix = fm21.lam, fm21.m, fm21.cycles, fm21.matrix
    twisted = tuple(alternating_twist(t) for t in fm21.tables)
    fractions = tuple(SolutionTable(lam, m, t.cycle, t.components, den=t.den) for t in twisted)
    for bad in (
        (lam, -m, cycles, twisted, matrix),  # the twists of its own tables
        (lam, m, cycles, fractions, matrix),  # fractions, untwisted
        (lam, 2, cycles, fm21.tables, matrix),
        (Partition((1, 1, 1)), m, cycles, fm21.tables, matrix),
        (lam, m, cycles, (fm21.tables[0], fundamental_solution(lam, 2).tables[1]), matrix),
    ):
        with pytest.raises(ValueError, match="is not a polynomial table of"):
            FundamentalMatrix(*bad)


def test_a_matrix_refuses_a_parameter_below_one(fm21):
    """`check_det` reads its expected power from `diagram_stats(lam, m)`,
    so a matrix holds only m >= 1: the tables of m=1 rebuilt at m=-1 or
    m=0 are refused before anything is stored."""
    for m in (-1, 0):
        tables = tuple(SolutionTable(t.lam, m, t.cycle, t.components) for t in fm21.tables)
        with pytest.raises(ValueError, match="needs a positive integer m, got"):
            FundamentalMatrix(fm21.lam, m, fm21.cycles, tables, fm21.matrix)


def test_a_failing_relabeling_writes_no_record(fm31):
    table, u = fm31.tables[2], tabloids((3, 1))[1]
    bad = perturbed(table, u, SparsePolynomial.variable(4, 1))
    fm = _rebuilt(fm31, (fresh(fm31.tables[0]), fresh(fm31.tables[1]), bad))
    assert [rep.passed for rep in _kz_reports(fm)] == [True, True, False]
    assert bad._cache == {} and len(fm.tables[1]._cache) == 1
    rep = check_kz(bad)
    assert not rep.passed and "identity" not in rep.info


def test_a_rebuilt_table_shares_no_record(fm21):
    table = fresh(fm21.tables[0])
    check_kz(table)
    again = SolutionTable(table.lam, table.m, table.cycle, table.components)
    assert again == table and repr(again) == repr(table)
    assert again._cache == {} and table._cache != {}
    for copied in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert copied == table and copied._cache == {}
    assert alternating_twist(again)._cache is again._cache is not table._cache


def test_a_twist_with_another_power_reads_no_record(fm21, monkeypatch):
    table = fresh(fm21.tables[0])
    assert check_kz(table).passed
    honest = exactalg.ContentPolynomial.discriminant_form
    monkeypatch.setattr(
        exactalg.ContentPolynomial, "discriminant_form", lambda den: (honest(den)[0] + 1, 1)
    )
    divisions = _divisions(monkeypatch)
    rep = check_kz(alternating_twist(table))
    # p = 2m + 1: X_ij = m psi_{s_ij U} + (m + 1) psi_U, which no record holds
    assert divisions.call_count > 0 and not rep.passed
    assert "twist" not in rep.info
    assert sorted(table._cache) == [(1, 1), (1, 2)]


# ---------------------------------------------------------------------------
# every equation of the system
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parts, total", [
    ((2, 1), 9), ((2, 2), 24), ((3, 1), 16), ((2, 1, 1), 48),
    ((4, 1), 25), ((3, 2), 50), ((4, 2), 90),
])
def test_kz_divides_once_per_pair_and_form(parts, total, monkeypatch):
    """`check_kz` on a passing polynomial table checks all N |M^lam|
    equations and divides each X_ij once per unordered pair and form:
    C(N, 2) |M^lam| divisions, 6 * 12 = 72 on (2,1,1).  Its alternating
    twist reads the record and divides nothing."""
    lam = Partition(parts)
    table = fresh(solve_cycle(lam, 1, standard_tableaux(lam)[0].tabloid()))
    forms = len(tabloids(parts))
    divisions = _divisions(monkeypatch)
    rep = check_kz(table)
    assert rep.passed and rep.info == {"twisted": False, "equations": total}
    assert total == lam.size * forms
    assert divisions.call_count == lam.size * (lam.size - 1) // 2 * forms
    divisions.reset_mock()
    assert check_kz(alternating_twist(table)).passed
    assert divisions.call_count == 0


def test_kz_checks_in_full_a_solution_that_is_not_row_symmetric(fm21):
    # the second table solves the system, but not symmetrically under the
    # row group of the first cycle
    first, second = fm21.tables
    table = SolutionTable(LAM21, 1, first.cycle, dict(second.components))
    rep = check_kz(table)
    assert rep.passed and rep.info == {"twisted": False, "equations": 9}
    broken = perturbed(table, tabloids((2, 1))[1], SparsePolynomial.variable(3, 1) ** 3)
    rep = check_kz(broken)
    i, form, _ = _expanded_first_failure(broken)
    assert not rep.passed and (rep.witness["i"], rep.witness["form"]) == (i, form)


def test_the_sign_of_an_odd_power_fails_closed(fm21):
    """Tables written over Delta (p = 1), which changes sign under a
    swap: the numerators of a solution are odd under a row swap, and a
    perturbation of either parity fails at the equation where the system
    on the expanded numerators first does."""
    disc = discriminant_power(3, 1)
    table = fm21.tables[0]
    cycle = table.cycle

    def over_disc(nums):
        return SolutionTable(LAM21, 1, cycle, nums, den=disc)

    u = tabloids((2, 1))[0]
    assert u == cycle == act_transposition(u, 1, 2)
    # at the one form the row swap fixes, a perturbation symmetric in z_1, z_2
    spread = {u: SparsePolynomial.variable(3, 1) ** 3 + SparsePolynomial.variable(3, 2) ** 3}
    solution = over_disc({u: c * disc for u, c in table.components.items()})
    # psi + a row-symmetric perturbation, over Delta: numerators odd under a swap
    odd = over_disc({u: (c + spread.get(u, 0)) * disc for u, c in table.components.items()})
    # numerators even under a swap
    even = over_disc({u: spread.get(u, SparsePolynomial.zero(3)) for u in table.components})
    assert check_kz(solution).passed
    for broken in (odd, even):
        rep = check_kz(broken)
        i, form, _ = _expanded_first_failure(broken, p=1)
        assert not rep.passed and (rep.witness["i"], rep.witness["form"]) == (i, form)


def test_run_suite_reads_every_table(fm31, monkeypatch):
    calls = mock.Mock(wraps=verify.check_primitive)
    monkeypatch.setattr(verify, "check_primitive", calls)
    reports = _run_suite_on(fm31, monkeypatch)
    assert all(rep.passed for rep in reports) and calls.call_count == fm31.dimension == 3
    table, u = fm31.tables[2], tabloids((3, 1))[1]
    bad = _rebuilt(fm31, fm31.tables[:2] + (perturbed(table, u, SparsePolynomial.constant(4, 1)),))
    calls.reset_mock()
    reports = {rep.check: rep for rep in _run_suite_on(bad, monkeypatch)}
    kz = reports["kz_system"]
    assert not kz.passed and kz.witness["cycle"] == str(table.cycle)
    assert calls.call_count == 3
    # the constant is seen by the shape check, which read the third table
    shape = reports["polynomial_shape"]
    assert shape.witness == {"cycle": str(table.cycle), "form": str(u), "reason": "not homogeneous"}


def test_kz_refuses_a_table_without_components(fm21):
    with pytest.raises(ValueError, match="not indexed by the tabloids"):
        check_kz(SolutionTable(LAM21, 1, fm21.tables[0].cycle, {}))


def test_kz_refuses_a_table_missing_a_tabloid(fm21):
    table = fm21.tables[0]
    comps = dict(table.components)
    del comps[tabloids((2, 1))[2]]
    with pytest.raises(ValueError, match="not indexed by the tabloids"):
        check_kz(SolutionTable(LAM21, 1, table.cycle, comps))


def test_a_partial_table_is_refused_before_check_det_reads_it(fm21):
    # the relabeling premise reads every form of the second table
    table = fm21.tables[1]
    comps = dict(table.components)
    del comps[tabloids((2, 1))[0]]
    with pytest.raises(ValueError, match="not indexed by the tabloids"):
        check_det(_rebuilt(fm21, (fm21.tables[0], SolutionTable(LAM21, 1, table.cycle, comps))))


def test_kz_refuses_a_cycle_of_another_shape(fm21):
    table = fm21.tables[0]
    cycle = Tabloid(((1,), (2,), (3,)))
    with pytest.raises(ValueError, match="does not have shape"):
        check_kz(SolutionTable(LAM21, 1, cycle, dict(table.components)))
