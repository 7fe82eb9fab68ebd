"""The verification battery, exercised in both directions.

Half of these tests confirm the checks pass on correctly solved
instances; the other half feed deliberately corrupted tables, matrices
and duals to the same checks and insist they fail with a witness.  A
checker that cannot reject a broken solution proves nothing.
"""
import weakref
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
    PolyFraction,
    PolyMatrix,
    ReflectionSolution,
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
    run_suite,
    standard_tableaux,
    tabloids,
)
from kzresidue.verify import RELABELING, _kz_reports, _kz_witness, _specht_transposition_matrix

LAM21 = Partition((2, 1))
SHARED = "X_ij(U) = X_ij(s_ij U) as m eps = m + p: one quotient serves both"


@pytest.fixture(scope="module")
def fm21():
    return fundamental_solution(LAM21, 1)


def perturbed(table: SolutionTable, u: Tabloid, delta: SparsePolynomial):
    comps = dict(table.components)
    comps[u] = comps[u] + delta
    return SolutionTable(table.lam, table.m, table.cycle, comps, table.twisted)


# ---------------------------------------------------------------------------
# the checks accept correct solutions
# ---------------------------------------------------------------------------


def test_kz_passes_on_solved_tables(fm21):
    for table in fm21.tables:
        rep = check_kz(table)
        assert rep.passed and rep.witness is None
        assert rep.check == "kz_system" and rep.m == 1


def test_kz_passes_on_twisted_table(fm21):
    rep = check_kz(alternating_twist(fm21.tables[0]))
    assert rep.passed
    assert rep.m == -1 and rep.info == {"twisted": True, "shared_quotients": SHARED}


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
    comps[u] = PolyFraction(
        comps[u].num + SparsePolynomial.from_terms(3, [((1, 1, 1), 1)]),
        comps[u].den,
    )
    broken = SolutionTable(tw.lam, tw.m, tw.cycle, comps, twisted=True)
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
    den = next(iter(tw.components.values())).den
    bad = den + SparsePolynomial.from_terms(3, [((den.degree(), 0, 0), 1)])
    comps = {u: PolyFraction(c.num, bad) for u, c in tw.components.items()}
    rep = check_kz(SolutionTable(tw.lam, tw.m, tw.cycle, comps, twisted=True))
    assert not rep.passed
    assert rep.witness["reason"] == (
        "shared denominator is not a constant times a discriminant power"
    )


def test_kz_accepts_twisted_denominator_with_constant(fm21):
    tw = alternating_twist(fm21.tables[0])
    den = discriminant_power(3, 2) * 3
    comps = {u: PolyFraction(c.num * 3, den) for u, c in tw.components.items()}
    rep = check_kz(SolutionTable(tw.lam, tw.m, tw.cycle, comps, twisted=True))
    assert rep.passed, rep.witness


@pytest.mark.parametrize("c", [1, -3, Fraction(5, 2)], ids=str)
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_discriminant_power_of_reads_power_and_constant(n, p, c):
    found = verify._discriminant_power_of(n, discriminant_power(n, p) * c)
    assert found == (p if n > 1 else 0, c)  # Delta = 1 on one point
    assert type(found[1]) is (int if c.denominator == 1 else Fraction)


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
    assert verify._discriminant_power_of(n, _not_c_delta_p(kind, n, p)) is None


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
    nums = {u: c.num for u, c in table.components.items()}
    den = next(iter(table.components.values())).den
    return _den_squared_reference(
        table.lam.size,
        table.m,
        den,
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
        comps[u] = PolyFraction(comps[u].num + delta, comps[u].den)
        table = SolutionTable(table.lam, table.m, table.cycle, comps, twisted=True)
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
        den = next(iter(twisted.components.values())).den
        cases.append((n, m, 0, SparsePolynomial.constant(n, 1), dict(table.components),
                      lambda nums: lambda i, j, u: nums[act_transposition(u, i, j)]))
        cases.append((n, twisted.m, den.degree() // (n * (n - 1) // 2), den,
                      {u: c.num for u, c in twisted.components.items()},
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

            nums = {(b, j): dm.entries.entry(b, j).num for b in range(d) for j in range(d)}
            p = 2 * m * diagram_stats(lam, m).d_plus
            cases.append((n, dm.m, p, dm.det, nums, act_on))
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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 11),
    st.none() | st.tuples(st.lists(st.integers(0, 5), min_size=4, max_size=4),
                          st.integers(-3, 3).filter(bool)),
)
def test_shared_quotients_leave_the_result_unchanged(kz_cases, which, where, perturbation):
    """Polynomial and twisted tables have m eps == m + p, so the quotient
    for U serves s_ij U: the return value and witness are the same with
    and without sharing, on solutions and on single-monomial perturbations."""
    tables = [case for case in kz_cases if isinstance(next(iter(case[4])), Tabloid)]
    n, m, p, _, nums, act_on = tables[which % len(tables)]
    nums = dict(nums)
    if perturbation is not None:
        exps, coeff = perturbation
        key = sorted(nums, key=str)[where % len(nums)]
        nums[key] = nums[key] + SparsePolynomial.from_terms(n, [(exps[:n], coeff)])
    act = _as_pairs(act_on(nums))
    shared = _kz_witness(n, m, p, nums, act, act_transposition)
    assert shared == _kz_witness(n, m, p, nums, act)
    if perturbation is None:
        assert shared is None


def test_shared_quotients_take_one_division_per_orbit(kz_cases, monkeypatch):
    n, m, p, _, nums, act_on = kz_cases[0]  # the polynomial (2,1) table at m = 1
    calls = []
    honest = verify._divide_by_z_diff
    monkeypatch.setattr(
        verify, "_divide_by_z_diff", lambda x, i, j: calls.append((i, j)) or honest(x, i, j)
    )
    assert _kz_witness(n, m, p, nums, _as_pairs(act_on(nums))) is None
    assert len(calls) == len(nums) * n * (n - 1) // 2
    calls.clear()
    assert _kz_witness(n, m, p, nums, _as_pairs(act_on(nums)), act_transposition) is None
    orbits = sum(
        len({frozenset((u, act_transposition(u, i, j))) for u in nums})
        for i, j in combinations(range(1, n + 1), 2)
    )
    assert len(calls) == orbits < len(nums) * n * (n - 1) // 2


def test_kz_shares_no_quotient_when_m_eps_is_not_m_plus_p():
    """Components 1 / (z1 - z2) at {1}|{2} and -2 / (z1 - z2) at {2}|{1},
    untwisted, m = 1: p = 1, so m eps = 1 != m + p.  The first component
    solves its equation with X_12 = 0; the second does not, with X_12 = -3.
    A quotient shared between them would pass the table."""
    a, b = tabloids((1, 1))
    den = SparsePolynomial.z_diff(2, 1, 2)
    comps = {
        a: PolyFraction(SparsePolynomial.constant(2, 1), den),
        b: PolyFraction(SparsePolynomial.constant(2, -2), den),
    }
    rep = check_kz(SolutionTable(Partition((1, 1)), 1, a, comps))
    assert not rep.passed and "shared_quotients" not in rep.info
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
    comps = (
        PolyFraction(c0.num + delta, c0.den),
        PolyFraction(c1.num - delta, c1.den),
    ) + first.components[2:]
    tampered = (ReflectionSolution(first.n, first.m, first.index, comps),) + phis[1:]
    monkeypatch.setattr(
        "kzresidue.verify.reflection_dual_solutions", lambda n_, m_: tampered
    )
    return first


def test_reflection_rejects_perturbed_path_coefficient(monkeypatch):
    n, m = 3, 1
    c0 = reflection_dual_solutions(n, m)[0].components[0]
    exp = next(e for e, c in c0.num.items() if Fraction(c).denominator > 1)
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


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (4, 1)])
def test_reflection_pairing_on_slice_catches_invariant_tamper(monkeypatch, n, m):
    # (1/7)(z_1 - z_2)^d is translation invariant and of the numerators'
    # degree d; it moves between two components, so the coordinate sum
    # and the invariance step both pass and only the sliced pairing can
    # catch the change
    d = reflection_dual_solutions(n, m)[0].components[0].num.degree()
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
        "info": {"twisted": False, "shared_quotients": SHARED},
    }
    assert rep.one_line() == "[PASS] kz_system shape=(2,1) m=1"


def test_failed_report_one_line(fm21):
    table = fm21.tables[0]
    u = next(iter(table.components))
    rep = check_kz(perturbed(table, u, SparsePolynomial.constant(3, 1)))
    assert rep.one_line().startswith("[FAIL] kz_system")
    assert rep.to_json()["verdict"] == "fail"


def test_run_suite_composition():
    reports = run_suite(LAM21, 1)
    assert [r.check for r in reports] == [
        "kz_system",
        "highest_weight",
        "polynomial_shape",
        "full_rank",
        "equivariance",
        "content_sum_action",
        "determinant_identity",
    ]
    assert all(r.passed for r in reports)


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
    power, constant = verify._discriminant_power_of(fm.lam.size, det)
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
    assert "shared_quotients" in reports[0].info
    first = fm31.tables[0].cycle
    for rep, table in zip(reports[1:], fm31.tables[1:]):
        image = rep.info["sigma"]
        assert rep.info["identity"] == RELABELING and rep.info["from_cycle"] == str(first)
        assert Tabloid(tuple(tuple(image[x - 1] for x in row) for row in first.rows)) == table.cycle


def test_run_suite_names_the_relabeling_identity():
    rep = run_suite(Partition((3, 1)), 1)[0]
    assert rep.check == "kz_system" and rep.passed
    assert rep.info == {"cycles": 3, "checked_in_full": 1, "by_relabeling": 2, "identity": RELABELING}


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
    table = fm31.tables[1]
    other = SolutionTable(table.lam, 2, table.cycle, table.components)
    reports = _kz_reports(_rebuilt(fm31, (fm31.tables[0], other, fm31.tables[2])))
    assert [rep.passed for rep in reports] == [True, False, True]


def test_equivariance_catches_an_orbit_path_with_the_inverse_convention(monkeypatch):
    # seeded mutation: z_sigma(p) -> z_p instead of z_p -> z_sigma(p)
    def inverse_convention(m, cycle, form):
        image, c0, u0 = solve._orbit_key(cycle, form)
        inverse = sorted(range(1, len(image) + 1), key=lambda p: image[p - 1])
        return solve.cycle_integral(m, c0, u0).permute_variables(tuple(inverse))

    # the tables are rebuilt under the mutation and the correct matrix is
    # kept: a mutated solve can stop in the Specht peeling before any check.
    # An empty table memo, or `solve_cycle` returns fm's live honest tables
    for parts in ((2, 1), (3, 1), (2, 2), (2, 1, 1)):
        fm = fundamental_solution(Partition(parts), 1)
        with monkeypatch.context() as patch:
            patch.setattr(solve, "_orbit_component", inverse_convention)
            patch.setattr(solve, "_live_tables", weakref.WeakValueDictionary())
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
