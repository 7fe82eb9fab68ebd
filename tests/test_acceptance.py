"""Acceptance gate: ten exact criteria, one test (= one pass/fail line
under `pytest -v`) per criterion.  Every comparison is executed in exact
integer or rational arithmetic with zero tolerance.

Reference values come from two independent sources: single-variable
residues expanded by hand (the frozen three-point matrix), and the
classical closed-form expansions of the hook-shape solution families in
generalized binomial coefficients, evaluated here from their defining
formulas rather than copied from engine output.

Global sign convention: variables are ordered level-ascending then by
box reading order, each contour anti-clockwise (see the residue module
docstring); under that orientation the three-point matrix carries no
extra sign.
"""
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from kzresidue import (
    FactoredSum,
    Partition,
    SolutionTable,
    SparsePolynomial,
    Tabloid,
    alternating_twist,
    binom_int,
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
    det_adjugate,
    discriminant_power,
    dual_matrix,
    enumerate_partitions,
    fundamental_solution,
    iterated_residue,
    normalize_factored,
    reflection_dual_solutions,
    reflection_solutions,
    residue_at,
    solve_cycle,
    t_atom,
    tabloids,
    z_atom,
)

M1_SHAPES = [lam for n in range(1, 5) for lam in enumerate_partitions(n)]
M2_SHAPES = [
    Partition((2, 1)),
    Partition((3, 1)),
    Partition((2, 2)),
    Partition((2, 1, 1)),
]
BATTERY = [(lam, 1) for lam in M1_SHAPES] + [(lam, 2) for lam in M2_SHAPES]

U_TOP = Tabloid(((1, 2), (3,)))  # positive part of the first polytabloid
U_MID = Tabloid(((1, 3), (2,)))  # positive part of the second polytabloid
U_BOT = Tabloid(((2, 3), (1,)))  # shared negative part of both


@pytest.fixture(scope="module")
def battery():
    return {
        (lam.parts, m): fundamental_solution(lam, m) for lam, m in BATTERY
    }


def zd(i, j, n=3):
    return SparsePolynomial.z_diff(n, i, j)


def expansion_coefficient(m: int, k: int) -> Fraction:
    """Coefficient sequence of the closed-form three-point solutions:
    -(1/m) C(-m, k) C(-m, m-k)."""
    return Fraction(-1, m) * binom_int(-m, k) * binom_int(-m, m - k)


def closed_form_hook_pair(m: int):
    """The two classical basis solutions of the three-point hook system
    at parameter m, as (first, second) coordinate pairs against the two
    standard polytabloids, built from their defining expansion."""
    z12, z13, z23 = zd(1, 2), zd(1, 3), zd(2, 3)
    zero = SparsePolynomial.zero(3)
    a1 = a2 = b1 = b2 = zero
    for k in range(m + 1):
        d = expansion_coefficient(m, k)
        mono_a = z12 ** (m - k) * z13**k
        a1 = a1 + mono_a * (d * (m - k))
        a2 = a2 + mono_a * (d * k)
        sign = -1 if (m - k) % 2 else 1
        mono_b = z12 ** (m - k) * z23**k
        b1 = b1 + mono_b * (d * (m - k) * sign)
        b2 = b2 + mono_b * (d * (-m) * sign)
    scale_a = z23 ** (2 * m)
    scale_b = z13 ** (2 * m)
    return (
        (a1 * scale_a, a2 * scale_a),
        (b1 * scale_b, b2 * scale_b),
    )


def components_from_coordinates(c1, c2) -> dict:
    """Tabloid components of c1 * (first polytabloid) + c2 * (second)."""
    return {U_TOP: c1, U_MID: c2, U_BOT: (c1 + c2) * (-1)}


def dual_expansion_coefficient(m: int, k: int) -> Fraction:
    """Coefficient sequence of the closed-form three-point dual family:
    C(m, k) (m-1)! (m+k-1)! / (2m+k)!."""
    return (
        Fraction(comb(m, k))
        * factorial(m - 1)
        * factorial(m + k - 1)
        / factorial(2 * m + k)
    )


def closed_form_first_dual(m: int):
    """Unit-vector components of the first dual-family solution for three
    points, as numerators over the squared discriminant power."""
    z12, z13 = zd(1, 2), zd(1, 3)
    zero = SparsePolynomial.zero(3)
    third = zero  # component along the third unit vector
    second = zero  # component along the second unit vector
    for k in range(m + 1):
        d = dual_expansion_coefficient(m, k)
        sign = -1 if (m + k) % 2 else 1
        mono = z12 ** (m - k) * z13 ** (2 * m + k)
        third = third + mono * (d * (-m - k) * sign)
        second = second + mono * (d * k * sign)
    first = (third + second) * (-1)
    return first, second, third


def _matmul(a, b):
    """The product of two matrices given as rows, summed term by term."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------------------


def test_criterion_01_three_point_fundamental_matrix():
    fm = fundamental_solution(Partition((2, 1)), 1)
    z12, z13, z23 = zd(1, 2), zd(1, 3), zd(2, 3)
    frozen = [
        [z12 * z12 * (z13 + z23), -(z12 * z12 * z13)],
        [-(z12 * z13 * z13), z13 * z13 * (z12 - z23)],
    ]
    for i in range(2):
        for j in range(2):
            assert fm.matrix[i][j] == frozen[i][j], (i, j)
    # the second row is the second closed-form solution with the m=1
    # expansion coefficients evaluated (both equal to 1)
    assert expansion_coefficient(1, 0) == 1 and expansion_coefficient(1, 1) == 1
    first, second = closed_form_hook_pair(1)
    assert fm.matrix[1] == second
    # the first closed-form solution lies in the row span with rational
    # coefficients: row 1 = (-1) * first + (-1) * second
    combo = (
        (first[0] + second[0]) * (-1),
        (first[1] + second[1]) * (-1),
    )
    assert fm.matrix[0] == combo


def test_criterion_02_three_point_parameter_two_span(battery):
    assert [expansion_coefficient(2, k) for k in range(3)] == [
        Fraction(-3, 2),
        Fraction(-2),
        Fraction(-3, 2),
    ]
    first, second = closed_form_hook_pair(2)
    lam = Partition((2, 1))
    # both closed-form solutions satisfy the differential system
    for coords in (first, second):
        table = SolutionTable(lam, 2, U_TOP, components_from_coordinates(*coords))
        rep = check_kz(table)
        assert rep.passed, rep.witness
        assert rep.info["equations"] == 9
    # computed basis = constant-matrix times closed-form basis: multiply
    # by the adjugate, and each entry must be c * det_p for a constant c:
    # c is the entry's coefficient at det_p's leading monomial divided by
    # det_p's, and comparing the entry with c * det_p proves it
    fm = battery[((2, 1), 2)]
    det_p, adj_p = det_adjugate([first, second])
    assert not det_p.is_zero()
    lead, lead_c = det_p.leading_term()
    product = _matmul(fm.matrix, adj_p)
    change = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            entry = product[i][j].expand()
            c = Fraction(dict(entry.items()).get(lead, 0)) / lead_c
            assert entry == det_p * c, (i, j)
            change[i][j] = c
    assert change[0][0] * change[1][1] - change[0][1] * change[1][0] != 0


def test_criterion_03_differential_battery(battery):
    for lam, m in BATTERY:
        fm = battery[(lam.parts, m)]
        for table in fm.tables:
            rep = check_kz(table)
            assert rep.passed, (str(lam), m, "kz", rep.witness)
            rep = check_primitive(table)
            assert rep.passed, (str(lam), m, "primitive", rep.witness)
        for rep in (
            check_shape(fm),
            check_equivariance(fm),
            check_rank(fm),
        ):
            assert rep.passed, (str(lam), m, rep.check, rep.witness)
        assert fm.dimension == len(fm.cycles)


def test_criterion_04_leading_term_law(battery):
    for lam, m in BATTERY:
        fm = battery[(lam.parts, m)]
        for i, t in enumerate(fm.cycles):
            # re-derive the law here instead of trusting the checker:
            # the exponent of the variable labeled by each box is
            # m (label - 1 + column - row)
            expected = [0] * lam.size
            for r, c in lam.boxes():
                label = t.label(r, c)
                expected[label - 1] = m * (label - 1 + c - r)
            exps, coeff = fm.matrix[i][i].leading_term()
            assert list(exps) == expected, (str(lam), m, t.rows)
            assert isinstance(coeff, int) and coeff != 0
    fm21 = battery[((2, 1), 1)]
    _, coeff = fm21.matrix[0][0].leading_term()
    assert coeff == -2


def test_criterion_05_content_sum_action():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            rep = check_frobenius(lam)
            assert rep.passed, (str(lam), rep.witness)


def test_criterion_06_determinant_identity(battery):
    expected_constants = {
        ((2, 1), 1): "-2",  # fixed by the criterion
        ((2, 1), 2): "30",  # frozen regression values
        ((3, 1), 1): "6",
        ((2, 2), 1): "-2",
    }
    for key, constant in expected_constants.items():
        rep = check_det(battery[key])
        assert rep.passed, (key, rep.witness)
        assert rep.info["constant"] == constant, key
        assert int(rep.info["constant"]) != 0


def test_criterion_07_duality_and_twist(battery):
    # transposed-inverse identity, checked at the polynomial level:
    # adjugate times matrix equals determinant times identity
    for parts in ((2, 1), (3, 1)):
        fm = battery[(parts, 1)]
        det, adj = det_adjugate(fm.matrix)
        assert not det.is_zero()
        n = fm.dimension
        product = _matmul(adj, fm.matrix)
        zero = SparsePolynomial.zero(fm.lam.size)
        for i in range(n):
            for j in range(n):
                assert product[i][j] == (det if i == j else zero), (
                    parts,
                    i,
                    j,
                )
        rep = check_dual(fm)
        assert rep.passed, (parts, rep.witness)
        assert rep.m == -1
    # same identity once more on the dual's numerators over its det:
    # dual x matrix = I reads sum_k N[k][j] M[k][i] = det delta_ij
    fm = battery[((2, 1), 1)]
    dm = dual_matrix(fm)
    zero = SparsePolynomial.zero(3)
    for i in range(2):
        for j in range(2):
            acc = zero
            for k in range(2):
                acc = acc + dm.entries[k][j] * fm.matrix[k][i]
            assert acc == (dm.det if i == j else zero)
    # sign-twisted tables solve the parameter-negated twisted system
    for parts in ((3,), (1, 1), (2, 1)):
        fm = battery[(parts, 1)]
        for table in fm.tables:
            rep = check_kz(alternating_twist(table))
            assert rep.passed, (parts, str(table.cycle), rep.witness)
            assert rep.m == -1


def test_criterion_08_reflection_families():
    # the residue family sums to zero for every point count up to five
    for n in range(2, 6):
        for m in (1, 2):
            psis = reflection_solutions(n, m)
            assert len(psis) == n
            for k in range(n):
                total = SparsePolynomial.zero(n)
                for psi in psis:
                    total = total + psi.components[k]
                assert total.is_zero(), (n, m, k)
    # duality pairing delta_{ab}/m, exactly, for the basis solutions
    for n in (2, 3, 4):
        for m in (1, 2):
            rep = check_reflection(n, m)
            assert rep.passed, (n, m, rep.witness)
    # three-point dual family reproduces its closed-form coefficients
    assert dual_expansion_coefficient(1, 0) == Fraction(1, 2)
    assert dual_expansion_coefficient(1, 1) == Fraction(1, 6)
    computed = reflection_dual_solutions(3, 1)[0]
    assert computed.den == discriminant_power(3, 2)
    assert computed.components == closed_form_first_dual(1)


def test_criterion_09_straightening():
    for parts in ((2, 1), (2, 2)):
        lam = Partition(parts)
        for u in tabloids(parts):
            rep = check_straightening(lam, 1, u)
            assert rep.passed, (parts, str(u), rep.witness)
    # the explicit three-point relation: the cycle with 1 alone in row 2
    # equals minus the sum of the other two cycles, component by component
    lam = Partition((2, 1))
    t_one = solve_cycle(lam, 1, U_BOT)
    t_two = solve_cycle(lam, 1, U_MID)
    t_three = solve_cycle(lam, 1, U_TOP)
    for u in tabloids((2, 1)):
        lhs = t_one.components[u]
        rhs = (t_two.components[u] + t_three.components[u]) * (-1)
        assert lhs == rhs, str(u)


def test_criterion_10_property_suite():
    ta, tb = t_atom(2, 1, 1), t_atom(2, 2, 1)
    z1, z2, z3 = z_atom(1), z_atom(2), z_atom(3)

    @settings(derandomize=True, max_examples=40)
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-3, 2), st.integers(-3, 2)),
            max_size=3,
        )
    )
    def residue_is_linear(raw):
        total, split = FactoredSum(), FactoredSum()
        for c, e1, e2 in raw:
            term = FactoredSum.term(c, [(ta, z1, e1), (ta, z2, e2)])
            total = total + term
            split = split + residue_at(term, ta, z1)
        assert residue_at(total, ta, z1) == split

    @settings(derandomize=True, max_examples=40)
    @given(
        st.integers(-3, -1), st.integers(-3, -1), st.integers(-2, 2)
    )
    def same_level_order_independent(ea, eb, eab):
        f = FactoredSum.term(2, [(ta, z1, ea), (tb, z2, eb), (ta, tb, eab)])
        one = iterated_residue(f, ((ta, z1), (tb, z2)))
        two = iterated_residue(f, ((tb, z2), (ta, z1)))
        assert one == two

    @settings(derandomize=True, max_examples=40)
    @given(st.integers(-4, -1), st.integers(-4, 2), st.integers(-4, 2))
    def residue_sum_vanishes(e1, e2, e3):
        if e1 + e2 + e3 > -2:
            return
        f = FactoredSum.term(1, [(ta, z1, e1), (ta, z2, e2), (ta, z3, e3)])
        total = FactoredSum()
        for center in (z1, z2, z3):
            total = total + residue_at(f, ta, center)
        clear = FactoredSum.term(1, [(z1, z2, 12), (z1, z3, 12), (z2, z3, 12)])
        assert normalize_factored(total * clear, 3) == SparsePolynomial.zero(3)

    @settings(derandomize=True, max_examples=40)
    @given(st.integers(-4, -1), st.integers(-4, 0), st.integers(1, 5))
    def residue_coefficients_integral(e1, e2, c):
        out = residue_at(
            FactoredSum.term(c, [(ta, z1, e1), (ta, z2, e2)]), ta, z1
        )
        assert all(isinstance(coeff, int) for coeff, _ in out.iter_terms())

    small_poly = st.builds(
        lambda items: SparsePolynomial.from_terms(2, items),
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.integers(-5, 5),
            ),
            max_size=4,
        ),
    )

    @settings(derandomize=True, max_examples=40)
    @given(small_poly, small_poly, small_poly)
    def ring_laws(a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a

    @settings(derandomize=True, max_examples=25)
    @given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
    def adjugate_identity(flat):
        rows = [
            [SparsePolynomial.constant(2, flat[3 * i + j]) for j in range(3)]
            for i in range(3)
        ]
        det, adj = det_adjugate(rows)  # asserts M*adj == det*I
        product = _matmul(adj, rows)
        for i in range(3):
            for j in range(3):
                expect = det if i == j else SparsePolynomial.zero(2)
                assert product[i][j] == expect

    fm = fundamental_solution(Partition((2, 1)), 1)

    @settings(derandomize=True, max_examples=40)
    @given(
        st.integers(0, 1),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5).filter(bool),
    )
    def mutation_is_detected(which, exps, coeff):
        table = fm.tables[which]
        u = sorted(table.components, key=str)[sum(exps) % 3]
        comps = dict(table.components)
        comps[u] = comps[u] + SparsePolynomial.from_terms(3, [(exps, coeff)])
        broken = SolutionTable(table.lam, table.m, table.cycle, comps)
        assert not check_kz(broken).passed

    def primitive_rejects_constant_table():
        table = fm.tables[0]
        p = SparsePolynomial.from_terms(3, [((1, 1, 1), 1)])
        broken = SolutionTable(
            table.lam, table.m, table.cycle, {u: p for u in table.components}
        )
        assert not check_primitive(broken).passed

    residue_is_linear()
    same_level_order_independent()
    residue_sum_vanishes()
    residue_coefficients_integral()
    ring_laws()
    adjugate_identity()
    mutation_is_detected()
    primitive_rejects_constant_table()
