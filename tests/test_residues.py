"""Oracles for the single-step and iterated residue extractors.

The hand-checkable facts used here are classical one-variable residue
calculus: the derivative formula at a double pole, the vanishing of the
sum of all residues of a rational function decaying like 1/t^2, and the
order sensitivity of nested contours.
"""
import pytest
from hypothesis import example, given, strategies as st

from kzresidue import (
    FactoredSum,
    Numbering,
    Partition,
    ScheduleError,
    SparsePolynomial,
    binom_int,
    identity_tableau,
    iterated_residue,
    normalize_factored,
    residue_at,
    residue_plan,
    t_atom,
    z_atom,
)
from kzresidue.exactalg import _add_into, is_t_atom

Z1, Z2, Z3 = z_atom(1), z_atom(2), z_atom(3)
TA = t_atom(2, 1, 1)  # a level-1 variable
TB = t_atom(2, 2, 1)  # another level-1 variable
TC = t_atom(3, 1, 2)  # a level-2 variable


# ---------------------------------------------------------------------------
# generalized binomial coefficients
# ---------------------------------------------------------------------------


def test_binom_int_nonnegative_matches_comb():
    assert binom_int(4, 2) == 6
    assert binom_int(4, 0) == 1
    assert binom_int(4, 5) == 0
    assert binom_int(0, 0) == 1
    assert binom_int(0, 1) == 0


def test_binom_int_negative_exponent_table():
    # (1+x)^-1 = 1 - x + x^2 - ...
    assert [binom_int(-1, k) for k in range(5)] == [1, -1, 1, -1, 1]
    # (1+x)^-2 = 1 - 2x + 3x^2 - ...
    assert [binom_int(-2, k) for k in range(5)] == [1, -2, 3, -4, 5]
    assert binom_int(-3, 2) == 6
    assert binom_int(-5, 3) == -35


def test_binom_int_negative_k_is_zero():
    assert binom_int(3, -1) == 0
    assert binom_int(-3, -2) == 0


@given(st.integers(-30, 30), st.integers(1, 12))
def test_binom_int_pascal_recurrence(e, k):
    # C(e, k) = C(e-1, k) + C(e-1, k-1) holds for every integer e
    assert binom_int(e, k) == binom_int(e - 1, k) + binom_int(e - 1, k - 1)


@given(st.integers(1, 20), st.integers(0, 12))
def test_binom_int_negative_reflection(m, k):
    # C(-m, k) = (-1)^k C(m+k-1, k)
    from math import comb

    expect = comb(m + k - 1, k)
    if k % 2:
        expect = -expect
    assert binom_int(-m, k) == expect


# ---------------------------------------------------------------------------
# single extraction oracles
# ---------------------------------------------------------------------------


def test_residue_simple_pole_is_one():
    f = FactoredSum.term(1, [(TA, Z1, -1)])
    assert residue_at(f, TA, Z1) == FactoredSum.term(1)


def test_residue_analytic_term_vanishes():
    # no pole at z1 at all
    f = FactoredSum.term(5, [(TA, Z2, -1)])
    assert not residue_at(f, TA, Z1)
    # positive powers are analytic everywhere
    g = FactoredSum.term(2, [(TA, Z1, 3)])
    assert not residue_at(g, TA, Z1)


def test_residue_double_pole_derivative_formula():
    # res_{t=z2} (t-z1)^-1 (t-z2)^-2 = d/dt (t-z1)^-1 at z2 = -(z1-z2)^-2
    f = FactoredSum.term(1, [(TA, Z1, -1), (TA, Z2, -2)])
    assert residue_at(f, TA, Z2) == FactoredSum.term(-1, [(Z1, Z2, -2)])
    # and at the other pole: res_{t=z1} = +(z1-z2)^-2
    assert residue_at(f, TA, Z1) == FactoredSum.term(1, [(Z1, Z2, -2)])


def test_residue_double_pole_with_polynomial_part():
    # res_{t=z1} (t-z1)^-2 (t-z2) = 1
    f = FactoredSum.term(1, [(TA, Z1, -2), (TA, Z2, 1)])
    assert residue_at(f, TA, Z1) == FactoredSum.term(1)
    # res_{t=z1} (t-z1)^-2 (t-z2)^3 = 3 (z1-z2)^2
    g = FactoredSum.term(1, [(TA, Z1, -2), (TA, Z2, 3)])
    assert residue_at(g, TA, Z1) == FactoredSum.term(3, [(Z1, Z2, 2)])


def test_residue_triple_pole_second_derivative():
    # res_{t=z1} (t-z1)^-3 (t-z2)^-1 = (1/2) d^2/dt^2 (t-z2)^-1 at z1
    #                                = (z1-z2)^-3
    f = FactoredSum.term(1, [(TA, Z1, -3), (TA, Z2, -1)])
    assert residue_at(f, TA, Z1) == FactoredSum.term(1, [(Z1, Z2, -3)])


def test_residue_spectators_carried_through():
    spect = (Z2, Z3, 4)
    f = FactoredSum.term(7, [(TA, Z1, -1), spect])
    assert residue_at(f, TA, Z1) == FactoredSum.term(7, [spect])


def test_residue_rejects_center_equal_variable():
    f = FactoredSum.term(1, [(TA, Z1, -1)])
    with pytest.raises(ValueError):
        residue_at(f, TA, TA)


def test_residue_rejects_fixed_point_as_variable():
    f = FactoredSum.term(1, [(Z1, Z2, -1)])
    with pytest.raises(ValueError):
        residue_at(f, Z1, Z2)


@given(
    st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-3, 2), st.integers(-3, 2)),
        min_size=0,
        max_size=4,
    )
)
def test_residue_is_linear(raw):
    terms = [
        FactoredSum.term(c, [(TA, Z1, e1), (TA, Z2, e2)]) for c, e1, e2 in raw
    ]
    total = FactoredSum()
    split = FactoredSum()
    for t in terms:
        total = total + t
    for t in terms:
        split = split + residue_at(t, TA, Z1)
    assert residue_at(total, TA, Z1) == split


@given(
    st.integers(-4, -1),
    st.integers(-4, 2),
    st.integers(-4, 2),
    st.integers(-6, 6),
)
def test_sum_of_all_residues_vanishes(e1, e2, e3, c):
    # a rational function of t decaying at least like t^-2 has residue sum 0
    if e1 + e2 + e3 > -2 or c == 0:
        return
    f = FactoredSum.term(c, [(TA, Z1, e1), (TA, Z2, e2), (TA, Z3, e3)])
    total = FactoredSum()
    for center in (Z1, Z2, Z3):
        total = total + residue_at(f, TA, center)
    # the zero is a rational-function identity, not a formal one: clear all
    # denominators, then the normalized polynomial must vanish
    clear = FactoredSum.term(1, [(Z1, Z2, 12), (Z1, Z3, 12), (Z2, Z3, 12)])
    assert normalize_factored(total * clear, 3) == SparsePolynomial.zero(3)


@given(st.integers(-4, -1), st.integers(-4, 0), st.integers(1, 5))
def test_residue_coefficients_stay_integral(e1, e2, c):
    f = FactoredSum.term(c, [(TA, Z1, e1), (TA, Z2, e2)])
    out = residue_at(f, TA, Z1)
    for coeff, _ in out.iter_terms():
        assert isinstance(coeff, int)


def _per_degree_residue_at(fs, var, center):
    """The residue step as the series product it was first written as: for
    each term, the coefficients of tau^0 .. tau^order as factored sums,
    one binomial series multiplied in at a time, kept as the reference."""
    if var == center:
        raise ValueError("residue center must differ from the variable")
    if not is_t_atom(var):
        raise ValueError(f"cannot integrate over the fixed point {var}")
    out: dict = {}
    for coeff, key in fs.iter_terms():
        spectators = []
        expanders = []
        tau_exp = 0
        sign = 1
        for (a, b), e in key:
            if a != var and b != var:
                spectators.append((a, b, e))
            elif (a, b) == (center, var) or (a, b) == (var, center):
                tau_exp += e
                if b == var and e % 2:
                    sign = -sign
            elif a == var:
                expanders.append((center, b, e, 1))
            else:
                expanders.append((a, center, e, -1))
        if tau_exp >= 0:
            continue
        order = -tau_exp - 1
        state = {0: FactoredSum.term(coeff * sign, spectators)}
        for a, b, e, tau_sign in expanders:
            nxt = {}
            for d, acc in state.items():
                for k in range(order - d + 1):
                    c = binom_int(e, k)
                    if not c:
                        continue
                    if tau_sign < 0 and k % 2:
                        c = -c
                    piece = acc * FactoredSum.term(c, [(a, b, e - k)])
                    if not piece:
                        continue
                    cur = nxt.get(d + k)
                    nxt[d + k] = piece if cur is None else cur + piece
            state = nxt
        if res := state.get(order):
            _add_into(out, res.terms.items())
    return FactoredSum(out)


# partners of TB for each center: atoms that sort before TB give
# (a - center - tau)^e, TC sorts after it and gives (center - TC + tau)^e.
# About z1, the first atom, (z2 - z1) is stored flipped as (z1 - z2); about
# z2, (z2 - z1) is the flipped one and (z2 - z3), (z2 - TA), (z2 - TC) are not
CENTERS = ((Z1, (Z2, Z3, TA, TC)), (Z2, (Z1, Z3, TA, TC)))


@given(
    st.sampled_from(CENTERS),
    st.integers(1, 4),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.integers(-5, 5).filter(bool),
)
@example(CENTERS[0], 2, [-1, 0, 0, 0], [0, 0, 0], 1)  # one (z2 - z1 - tau)^-1 series
@example(CENTERS[0], 1, [1, 0, 0, 0], [-1, 0, 0], 3)  # (z1 - z2)^-1 cancelled to ^0
@example(CENTERS[1], 2, [1, -2, 0, 1], [1, -1, 2], -2)  # flipped pairs about z2
def test_residue_matches_the_per_degree_series_product(center, pole, exps, spect, c):
    # a pole of order 1..4 at the center, up to four expanded factors of
    # both orientations, and spectators on the pairs (center, first
    # partner) and (center, TC) that the expansions also produce, besides
    # one on (z2, z3)
    center, partners = center
    factors = [(TB, center, -pole), *((TB, p, e) for p, e in zip(partners, exps))]
    factors += [(center, partners[0], spect[0]), (center, TC, spect[1]), (Z2, Z3, spect[2])]
    f = FactoredSum.term(c, factors)
    assert residue_at(f, TB, center) == _per_degree_residue_at(f, TB, center)


def test_residue_drops_a_spectator_that_a_chosen_factor_cancels():
    # Res_{TB = z1} 3 (z1 - z2)^-1 (TB - z2) / (TB - z1) = 3: the chosen
    # (z1 - z2)^1 meets the spectator (z1 - z2)^-1 and leaves no factor
    f = FactoredSum.term(3, [(Z1, Z2, -1), (TB, Z2, 1), (TB, Z1, -1)])
    assert residue_at(f, TB, Z1).terms == {(): 3}


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_plan_single_level_shape():
    plan = residue_plan(identity_tableau(Partition((2, 1))))
    assert plan == ((t_atom(2, 1, 1), z_atom(3)),)


def test_plan_column_shape_levels_ascend():
    plan = residue_plan(identity_tableau(Partition((1, 1, 1))))
    assert plan == (
        (t_atom(2, 1, 1), z_atom(2)),
        (t_atom(3, 1, 1), z_atom(3)),
        (t_atom(3, 1, 2), z_atom(3)),
    )


def test_plan_centers_follow_the_numbering():
    cyc = Numbering(((2, 3), (1,)))
    assert residue_plan(cyc) == ((t_atom(2, 1, 1), z_atom(1)),)


def test_plan_two_rows_two_columns():
    plan = residue_plan(identity_tableau(Partition((2, 2))))
    assert plan == (
        (t_atom(2, 1, 1), z_atom(3)),
        (t_atom(2, 2, 1), z_atom(4)),
    )


def test_iterated_matches_manual_fold():
    f = FactoredSum.term(1, [(TA, Z1, -1), (TB, Z2, -2), (TA, TB, 1)])
    plan = ((TA, Z1), (TB, Z2))
    manual = residue_at(residue_at(f, TA, Z1), TB, Z2)
    assert iterated_residue(f, plan) == manual


def test_iterated_rejects_duplicate_variable():
    f = FactoredSum.term(1, [(TA, Z1, -1)])
    with pytest.raises(ScheduleError):
        iterated_residue(f, ((TA, Z1), (TA, Z2)))


def test_iterated_rejects_unplanned_live_variable():
    f = FactoredSum.term(1, [(TA, Z1, -1), (TB, Z2, -1)])
    with pytest.raises(ScheduleError):
        iterated_residue(f, ((TA, Z1),))


def test_iterated_rejects_center_integrated_later():
    f = FactoredSum.term(1, [(TA, TB, -1), (TB, Z1, -1)])
    with pytest.raises(ScheduleError):
        iterated_residue(f, ((TA, TB), (TB, Z1)))


def test_error_messages_name_atoms_as_they_print():
    # z3 is a fixed point and t[2,1]_1 the level-1 variable of box (2, 1)
    with pytest.raises(ValueError) as err:
        residue_at(FactoredSum.term(1, [(TA, Z3, -1)]), Z3, TA)
    assert str(err.value) == "cannot integrate over the fixed point z3"
    with pytest.raises(ScheduleError) as err:
        iterated_residue(FactoredSum.term(1, [(TA, Z3, -1)]), ())
    assert str(err.value) == "form has variables outside the schedule: t[2,1]_1"
    with pytest.raises(ScheduleError) as err:
        iterated_residue(FactoredSum.term(1, [(TA, TB, -1)]), ((TA, TB), (TB, Z3)))
    assert str(err.value).startswith("step for t[2,1]_1 expands about t[2,2]_1,")
    with pytest.raises(ValueError) as err:
        FactoredSum.term(1, [(Z3, Z3, 1)])
    assert str(err.value) == "degenerate difference at atom z3"


def test_same_level_steps_commute():
    # distinct centers, small equal radii: either extraction order computes
    # the same double contour integral
    f = FactoredSum.term(1, [(TA, Z1, -2), (TB, Z2, -1), (TA, TB, -1)])
    one = iterated_residue(f, ((TA, Z1), (TB, Z2)))
    two = iterated_residue(f, ((TB, Z2), (TA, Z1)))
    assert one == two
    assert one  # non-trivial instance


@given(
    st.integers(-3, -1),
    st.integers(-3, -1),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-2, 2),
)
def test_same_level_commutation_random(ea, eb, eab, ca, cb):
    f = FactoredSum.term(3, [(TA, Z1, ea), (TB, Z2, eb), (TA, TB, eab)])
    f = f + FactoredSum.term(ca, [(TA, Z1, ea + 1), (TB, Z2, eb), (TA, TB, eab)])
    f = f + FactoredSum.term(cb, [(TA, Z2, -1), (TB, Z1, -1)])
    one = iterated_residue(f, ((TA, Z1), (TB, Z2)))
    two = iterated_residue(f, ((TB, Z2), (TA, Z1)))
    assert one == two


def test_nested_levels_do_not_commute():
    # same center, nested radii: the inner variable must go first.  With
    # f = (ta-tc)^-1 (tc-z1)^-1 the inner circle sees no pole (0), while
    # the formally swapped order would report 1.
    f = FactoredSum.term(1, [(TA, TC, -1), (TC, Z1, -1)])
    inner_first = residue_at(residue_at(f, TA, Z1), TC, Z1)
    outer_first = residue_at(residue_at(f, TC, Z1), TA, Z1)
    assert not inner_first
    assert outer_first == FactoredSum.term(1)


def test_iterated_early_exit_on_zero():
    # first step kills the form; remaining steps are never an error
    f = FactoredSum.term(1, [(TA, Z2, 1)])
    out = iterated_residue(f, ((TA, Z1), (TB, Z1)))
    assert not out


def test_residue_then_normalize_gives_polynomial():
    # res_{t=z1} (t-z1)^-1 (t-z2) = z1 - z2 as an honest polynomial
    f = FactoredSum.term(1, [(TA, Z1, -1), (TA, Z2, 1)])
    out = residue_at(f, TA, Z1)
    poly = normalize_factored(out, 2)
    assert poly == SparsePolynomial.z_diff(2, 1, 2)
