import json
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kzresidue import (
    Partition,
    enumerate_partitions,
    exactalg,
    identity_tableau,
    interaction_form,
    residue_at,
    residue_plan,
    tableau_form,
)
from kzresidue.exactalg import (
    ContentPolynomial,
    FactoredSum,
    NonDivisibleError,
    NormalizeError,
    SparsePolynomial,
    _add_into,
    _divide_by_z_diff,
    _mul_into,
    _translation_defect,
    demote,
    det_adjugate,
    determinant,
    discriminant_power,
    normalize_factored,
    t_atom,
    z_atom,
)


def zpoly(n, i):
    return SparsePolynomial.variable(n, i)


@st.composite
def polys(draw, nvars=None):
    n = nvars or draw(st.integers(1, 4))
    nterms = draw(st.integers(0, 8))
    items = []
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, 5)) for _ in range(n))
        items.append((exp, draw(st.integers(-20, 20))))
    return SparsePolynomial.from_terms(n, items)


# ----------------------------------------------------------------------
# polynomial ring


def test_constructors_and_predicates():
    z1 = zpoly(3, 1)
    assert z1.degree() == 1
    assert not z1.is_constant()
    five = SparsePolynomial.constant(3, 5)
    assert five.is_constant() and five.constant_value() == 5
    zero = SparsePolynomial.zero(3)
    assert zero.is_zero() and not zero
    assert zero.degree() == -1
    assert (z1 - z1).is_zero()
    with pytest.raises(ValueError):
        SparsePolynomial.variable(3, 4)
    with pytest.raises(ValueError):
        SparsePolynomial.zero(9)  # beyond the variable cap


def test_arithmetic_small():
    n = 2
    z1, z2 = zpoly(n, 1), zpoly(n, 2)
    p = (z1 - z2) ** 2
    assert p == z1 * z1 - z1 * z2 * 2 + z2 * z2
    assert p.degree() == 2
    assert p.is_homogeneous()
    assert (p + 1).degree() == 2
    assert not (p + 1).is_homogeneous()
    assert (2 * z1 - z1 * 2).is_zero()
    assert 1 - z1 == -(z1 - 1)


def test_pow_matches_repeated_product():
    z12 = SparsePolynomial.z_diff(2, 1, 2)
    acc = SparsePolynomial.constant(2, 1)
    for e in range(6):
        assert z12**e == acc
        acc = acc * z12
    with pytest.raises(ValueError):
        z12 ** (-1)


@given(polys(nvars=3), polys(nvars=3), polys(nvars=3))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + SparsePolynomial.zero(3) == a


@given(polys(nvars=3), polys(nvars=3))
def test_packed_multiplication_agrees_with_naive(a, b):
    naive = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            naive[e] = naive.get(e, 0) + c1 * c2
    naive = {e: c for e, c in naive.items() if c}
    assert dict((a * b).items()) == naive


def test_demote():
    assert demote(Fraction(4, 2)) == 2 and type(demote(Fraction(4, 2))) is int
    assert demote(Fraction(1, 2)) == Fraction(1, 2)
    assert demote(7) == 7


def test_derivative_and_antiderivative():
    n = 2
    z1, z2 = zpoly(n, 1), zpoly(n, 2)
    p = z1**3 * z2 + z2 * 2
    assert p.partial_derivative(1) == z1**2 * z2 * 3
    assert p.partial_derivative(2) == z1**3 + 2
    q = p.partial_derivative(1).antiderivative(1)
    assert q == z1**3 * z2  # constants in z1 are lost by design
    assert (z1**2).antiderivative(1) * 3 == z1**3


def test_permute_and_substitute():
    n = 3
    z1, z2, z3 = (zpoly(n, i) for i in (1, 2, 3))
    p = z1**2 * z3 - z2
    assert p.permute_variables((2, 1, 3)) == z2**2 * z3 - z1
    assert p.substitute_variable(3, 1) == z1**3 - z2
    q = z1 * 0 + z3 * 2
    assert q.substitute_variable(3, 2).drop_last_variable() == zpoly(2, 2) * 2
    with pytest.raises(ValueError):
        (z3 * 1).drop_last_variable()


def test_leading_term_order():
    n = 3
    z1, z2, z3 = (zpoly(n, i) for i in (1, 2, 3))
    p = z1**5 + z2 * z3
    # z3-major order: z2*z3 beats z1^5
    assert p.leading_term() == ((0, 1, 1), 1)
    with pytest.raises(ValueError):
        SparsePolynomial.zero(2).leading_term()


def test_evaluate():
    n = 3
    p = SparsePolynomial.z_diff(n, 1, 2) * SparsePolynomial.z_diff(n, 2, 3)
    assert p.evaluate((5, 3, 2)) == 2
    assert p.evaluate((1, 1, 7)) == 0
    with pytest.raises(ValueError):
        p.evaluate((1, 2))


@given(polys(), st.data())
def test_evaluate_matches_term_by_term_reference(p, data):
    """The packed-key evaluation agrees with summing c * prod v_i^e_i over
    the exponent tuples, at int and Fraction points, for int and Fraction
    coefficients."""
    n = p.nvars
    ints = st.integers(-4, 4)
    for poly in (p, p * Fraction(1, 3)):
        point = data.draw(st.one_of(
            st.lists(ints, min_size=n, max_size=n),
            st.lists(st.builds(Fraction, ints, st.integers(1, 3)), min_size=n, max_size=n),
        ))
        expected = sum(c * reduce(mul, (v**e for v, e in zip(point, exp)), 1)
                       for exp, c in poly.items())
        assert poly.evaluate(point) == expected


def test_json_round_trip_and_sorted_terms():
    p = SparsePolynomial.from_terms(
        2, [((1, 0), Fraction(1, 2)), ((0, 1), -3), ((2, 0), 1)]
    )
    data = p.to_json()
    assert data["vars"] == 2
    assert SparsePolynomial.from_json(data) == p
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps, key=lambda e: tuple(reversed(e)), reverse=True)


def _term(exp, num="1", den="1"):
    return {"exp": exp, "num": num, "den": den}


JSON_SAMPLE = SparsePolynomial.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 3), -3)])


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(JSON_SAMPLE.to_json(), id="valid"),
        pytest.param({"vars": 2, "terms": [_term([1.5, 0])]}, id="float-exponent"),
        pytest.param({"vars": 2, "terms": [_term([True, 0])]}, id="bool-exponent"),
        pytest.param({"vars": 2, "terms": [_term("10")]}, id="string-exponents"),
        pytest.param({"vars": 2, "terms": [_term([1, -1])]}, id="negative-exponent"),
        pytest.param({"vars": 2, "terms": [_term([2**23, 0])]}, id="exponent-at-cap"),
        pytest.param({"vars": 2, "terms": [_term([0, 2**40])]}, id="huge-exponent"),
        pytest.param({"vars": 2, "terms": [_term([1])]}, id="short-exponents"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], den="0")]}, id="zero-den"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], num=1.5)]}, id="float-num"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], num="x")]}, id="text-num"),
        pytest.param({"vars": 2, "terms": [{"exp": [1, 0]}]}, id="missing-num"),
        pytest.param({"vars": 2}, id="missing-terms"),
        pytest.param({"vars": 2.0, "terms": []}, id="float-vars"),
        pytest.param({"vars": 9, "terms": []}, id="too-many-vars"),
        pytest.param({"vars": 2, "terms": 5}, id="terms-not-a-list"),
        pytest.param([], id="list"),
        pytest.param(None, id="null"),
    ],
)
def test_from_json_round_trips_or_raises_value_error(doc):
    if doc == JSON_SAMPLE.to_json():
        assert SparsePolynomial.from_json(doc) == JSON_SAMPLE
        return
    with pytest.raises(ValueError):
        SparsePolynomial.from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"vars": "\u0662", "terms": []}, id="unicode-digit-vars"),
        pytest.param({"vars": "2", "terms": []}, id="string-vars"),
        pytest.param({"vars": True, "terms": []}, id="bool-vars"),
        pytest.param({"vars": 2, "terms": [_term(["1_0", 2])]}, id="underscore-exponent"),
        pytest.param({"vars": 2, "terms": [_term([" 2 ", 0])]}, id="padded-exponent"),
        pytest.param({"vars": 2, "terms": [_term(["1", 0])]}, id="string-exponent"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], num="+3")]}, id="plus-num"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], num="1_0")]}, id="underscore-num"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], den=" 2 ")]}, id="padded-den"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], den="\u0662")]}, id="unicode-den"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], num="-")]}, id="bare-minus"),
        pytest.param({"vars": 2, "terms": [_term([1, 0], num=True)]}, id="bool-num"),
        pytest.param(
            {"vars": "\u0662", "terms": [{"exp": ["1_0", " 2 "], "num": "+3", "den": "1"}]},
            id="text-int-document",
        ),
    ],
)
def test_from_json_refuses_integers_to_json_never_writes(doc):
    with pytest.raises(ValueError):
        SparsePolynomial.from_json(doc)


def test_from_json_reads_integer_and_ascii_coefficients():
    doc = {"vars": 2, "terms": [_term([1, 0], num=-7, den="-02"), _term([0, 3], num="-0")]}
    expected = SparsePolynomial.from_terms(2, [((1, 0), Fraction(7, 2))])
    assert SparsePolynomial.from_json(doc) == expected


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _polynomial_documents(draw):
    """A well-formed document with up to two places replaced by any JSON value."""
    nvars = draw(st.integers(1, 3))
    num = st.integers(-2, 3)
    den = st.integers(1, 3) | st.integers(-2, -1)
    term = st.fixed_dictionaries({
        "exp": st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars),
        "num": num | num.map(str),
        "den": den | den.map(str),
    })
    doc = {"vars": nvars, "terms": draw(st.lists(term, max_size=3))}
    places = [(doc, "vars"), (doc, "terms")]
    for t in doc["terms"]:
        places += [(t, "exp"), (t, "num"), (t, "den")]
        places += [(t["exp"], i) for i in range(nvars)]
    for holder, key in draw(st.lists(st.sampled_from(places), max_size=2)):
        holder[key] = draw(_JSON)
    return doc


@settings(max_examples=300)
@given(_polynomial_documents() | _JSON)
def test_from_json_fuzz_raises_value_error_or_round_trips(doc):
    try:
        p = SparsePolynomial.from_json(doc)
    except ValueError:
        return
    again = SparsePolynomial.from_json(json.loads(json.dumps(p.to_json())))
    assert again == p and again.to_json() == p.to_json()


# ----------------------------------------------------------------------
# exact division


def test_divide_by_difference():
    n = 3
    z12 = SparsePolynomial.z_diff(n, 1, 2)
    z13 = SparsePolynomial.z_diff(n, 1, 3)
    p = z12**3 * z13
    assert _divide_by_z_diff(p, 1, 2) == z12**2 * z13
    assert _divide_by_z_diff(p, 1, 3) == z12**3
    assert _divide_by_z_diff(p, 2, 1) == -(z12**2) * z13
    with pytest.raises(NonDivisibleError):
        _divide_by_z_diff(p + 1, 1, 2)


def _z_part(f, i, keep):
    """The terms of f whose power of z_i passes `keep`."""
    return SparsePolynomial.from_terms(f.nvars, [(e, c) for e, c in f.items() if keep(e[i - 1])])


@st.composite
def combination_dividends(draw):
    """(i, j, pairs): a combination sum_k c_k f_k in three variables, as
    (c_k, f_k) pairs.  Either every f_k is a multiple of z_i - z_j, so the
    sum divides, or none is made one.  The combination may cancel to
    zero in total (c f and -c f alone), or at one power of z_i:
    c (z_i - z_j) g and -c (z_i - z_j) h are added, where h has the top z_i
    part of g and lower powers of its own, so the sum still divides when
    the rest does."""
    n = 3
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    zij = SparsePolynomial.z_diff(n, i, j)
    scalars = st.sampled_from((-3, -1, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3)))
    divisible = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        f = draw(polys(nvars=n))
        pairs.append((draw(scalars), f * zij if divisible else f))
    cancel = draw(st.sampled_from(("none", "total", "one power")))
    if cancel == "total":
        c, f = pairs[0]
        pairs = [(c, f), (-c, f)]
    elif cancel == "one power":
        c, g = draw(scalars.filter(bool)), draw(polys(nvars=n))
        top = max((e[i - 1] for e, _ in g.items()), default=0)
        h = _z_part(g, i, lambda e: e == top) + _z_part(draw(polys(nvars=n)), i, lambda e: e < top)
        pairs += [(c, g * zij), (-c, h * zij)]
    return i, j, pairs


@settings(max_examples=150)
@given(combination_dividends())
def test_dividing_a_combination_equals_dividing_its_sum(case):
    i, j, pairs = case
    total = sum((f * c for c, f in pairs), SparsePolynomial.zero(3))
    try:
        expected = _divide_by_z_diff(total, i, j)
    except NonDivisibleError as exc:
        with pytest.raises(NonDivisibleError) as caught:
            _divide_by_z_diff(pairs, i, j)
        assert caught.value.remainder == exc.remainder
    else:
        quotient = _divide_by_z_diff(pairs, i, j)
        assert quotient == expected
        assert quotient * SparsePolynomial.z_diff(3, i, j) == total


def test_combination_cancelling_to_zero_divides_to_zero():
    z1, z2, z3 = (zpoly(3, k) for k in (1, 2, 3))
    f = z1**3 * z2 + z3 - 4
    assert _divide_by_z_diff([(2, f), (-2, f)], 1, 2).is_zero()
    assert _divide_by_z_diff([(0, f)], 1, 3).is_zero()
    # the z_1^3 parts cancel, the rest is z1 - z2 times 5
    g, h = z1**3 * z3 + z1 * 5, z1**3 * z3 + z2 * 5
    assert _divide_by_z_diff([(1, g), (-1, h)], 1, 2) == SparsePolynomial.constant(3, 5)


SUMMANDS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3)
)


@given(
    st.dictionaries(st.integers(0, 5), SUMMANDS.filter(bool)),
    st.lists(st.tuples(st.integers(0, 5), SUMMANDS), max_size=12),
)
@example({1: 2}, [(1, -1), (1, -1), (2, Fraction(1, 2)), (2, Fraction(-1, 2)), (3, 0)])
@example({1: 2, 2: Fraction(1, 3)}, [(1, -1), (2, Fraction(-1, 3)), (1, -1)])
def test_add_into_matches_a_counter_reference(acc, pairs):
    # keys repeat within `pairs` and cancel against `acc`; pairs come as a
    # plain iterator, and the map passed in is the map returned
    expected = Counter(acc)
    for key, c in pairs:
        expected[key] += c
    out = _add_into(acc, iter(pairs))
    assert out is acc
    assert out == {key: c for key, c in expected.items() if c}
    assert all(out.values())  # no zero is stored


@given(polys(nvars=3), polys(nvars=3), st.integers(-3, 3))
def test_subtraction_is_adding_the_negation(a, b, c):
    assert a - b == a + (-b)
    assert (a - b).terms == (a + (-b)).terms  # no zero coefficient is stored
    assert a - c == a + (-c)
    assert a - a == SparsePolynomial.zero(3)


def test_nondivisible_carries_remainder():
    n = 2
    z12 = SparsePolynomial.z_diff(n, 1, 2)
    try:
        _divide_by_z_diff(z12 * z12 + 5, 1, 2)
    except NonDivisibleError as exc:
        assert exc.remainder == SparsePolynomial.constant(n, 5)
    else:
        raise AssertionError("expected a remainder")


def test_discriminant_power():
    d = discriminant_power(3, 2)
    z12 = SparsePolynomial.z_diff(3, 1, 2)
    z13 = SparsePolynomial.z_diff(3, 1, 3)
    z23 = SparsePolynomial.z_diff(3, 2, 3)
    assert d == (z12 * z13 * z23) ** 2
    assert discriminant_power(2, 0) == SparsePolynomial.constant(2, 1)


# ----------------------------------------------------------------------
# packed monomial keys against a reference on exponent tuples
#
# The reference keeps each polynomial as a dict from exponent tuples to
# coefficients and implements every operation directly on the tuples.

CAP = 2**23  # exponents stay below this


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def _ref_map(a, move, scale=lambda e, c: c):
    """Apply `move` to every exponent tuple, adding colliding terms."""
    out = {}
    for e, c in a.items():
        new = move(e)
        if new is not None:
            out[new] = out.get(new, 0) + scale(e, c)
    return _clean(out)


def _with(e, i, value):
    return e[: i - 1] + (value,) + e[i:]


def _lex_key(e):
    return tuple(reversed(e))


INTS = st.integers(-9, 9)
FRACTIONS = st.fractions(-3, 3, max_denominator=4)


@st.composite
def ref_polys(draw, n, coefficients=INTS | FRACTIONS):
    items = [
        (tuple(draw(st.integers(0, 4)) for _ in range(n)), draw(coefficients))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return SparsePolynomial.from_terms(n, items)


VAR_COUNTS = st.sampled_from([1, 2, 3, 4, 5, 8])


def _same(p, ref):
    assert dict(p.items()) == _clean(ref)


@given(VAR_COUNTS.flatmap(lambda n: st.tuples(ref_polys(n), ref_polys(n))))
def test_packed_keys_agree_with_tuple_reference_on_ring_and_order(pair):
    a, b = pair
    ra, rb = dict(a.items()), dict(b.items())
    _same(a * b, _ref_mul(ra, rb))
    _same(a + b, _ref_add(ra, rb))
    degrees = {sum(e) for e in ra}
    assert a.degree() == max(degrees, default=-1)
    assert a.is_homogeneous() == (len(degrees) <= 1)
    order = sorted(ra.items(), key=lambda t: _lex_key(t[0]), reverse=True)
    assert a.sorted_terms() == order
    if ra:
        lead = max(ra, key=_lex_key)
        assert a.leading_term() == (lead, ra[lead])


@given(VAR_COUNTS.flatmap(lambda n: st.tuples(ref_polys(n), st.data())))
def test_packed_keys_agree_with_tuple_reference_on_calculus(case):
    a, data = case
    n = a.nvars
    ra = dict(a.items())
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n))
    derivative = _ref_map(ra, lambda e: _with(e, i, e[i - 1] - 1) if e[i - 1] else None,
                          lambda e, c: c * e[i - 1])
    _same(a.partial_derivative(i), derivative)
    primitive = _ref_map(ra, lambda e: _with(e, i, e[i - 1] + 1),
                         lambda e, c: Fraction(c, e[i - 1] + 1))
    _same(a.antiderivative(i), primitive)
    substituted = _ref_map(
        ra, lambda e: e if i == j else _with(_with(e, j, e[j - 1] + e[i - 1]), i, 0)
    )
    _same(a.substitute_variable(i, j), substituted)
    image = tuple(data.draw(st.permutations(range(1, n + 1))))

    def permute(e):
        new = [0] * n
        for k, x in enumerate(e):
            new[image[k] - 1] = x
        return tuple(new)

    _same(a.permute_variables(image), _ref_map(ra, permute))
    if n > 1:
        moved = _ref_map(ra, lambda e: _with(_with(e, 1, e[0] + e[-1]), n, 0))
        dropped = a.substitute_variable(n, 1).drop_last_variable()
        assert dropped.nvars == n - 1
        assert dict(dropped.items()) == {e[:-1]: c for e, c in moved.items()}
        if any(e[-1] for e in ra):
            with pytest.raises(ValueError):
                a.drop_last_variable()


def _to_json_reference(p):
    """`to_json` built from `sorted_terms`, one exponent tuple a term."""
    return {
        "vars": p.nvars,
        "terms": [
            {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
            for exp, c in p.sorted_terms()
        ],
    }


@st.composite
def wide_polys(draw):
    """1..MAX_VARS variables, exponents up to the cap's last value."""
    n = draw(st.integers(1, exactalg.MAX_VARS))
    exps = st.tuples(*[st.integers(0, 4) | st.integers(0, CAP - 1)] * n)
    items = draw(st.lists(st.tuples(exps, INTS | FRACTIONS), max_size=6))
    return SparsePolynomial.from_terms(n, items)


@given(wide_polys())
def test_to_json_is_the_sorted_terms_form(p):
    # repr, so that the order of the keys counts too
    assert repr(p.to_json()) == repr(_to_json_reference(p))


@pytest.mark.parametrize("coefficients", [INTS, FRACTIONS], ids=["int", "Fraction"])
def test_one_pass_kernels_agree_with_the_sums_they_fuse(coefficients):
    @given(VAR_COUNTS.flatmap(lambda n: st.tuples(
        ref_polys(n, coefficients),
        st.lists(st.tuples(ref_polys(n, coefficients), ref_polys(n, coefficients)), max_size=4),
    )))
    def check(case):
        f, pairs = case
        n = f.nvars
        derivatives = SparsePolynomial.zero(n)
        for i in range(1, n + 1):
            derivatives = derivatives + f.partial_derivative(i)
        assert _translation_defect(f) == derivatives
        # the fused pairing against products and sums on exponent tuples
        acc: dict = {}
        for a, b in pairs:
            assert _mul_into(acc, a.terms, b.terms) is acc
        expected: dict = {}
        for a, b in pairs:
            expected = _ref_add(expected, _ref_mul(dict(a.items()), dict(b.items())))
        _same(SparsePolynomial(n, acc), expected)
        # a pair and its negation cancel to the empty map
        for a, b in pairs:
            _mul_into(acc, (-a).terms, b.terms)
        assert acc == {}

    check()


@given(VAR_COUNTS.filter(lambda n: n > 1).flatmap(
    lambda n: st.tuples(ref_polys(n), ref_polys(n), st.permutations(range(1, n + 1)))
))
def test_packed_keys_agree_with_tuple_reference_on_difference_division(case):
    a, r, order = case
    i, j = order[:2]
    zij = SparsePolynomial.z_diff(a.nvars, i, j)
    assert _divide_by_z_diff(a * zij, i, j) == a
    p = a * zij + r
    # synthetic division in z_i leaves the remainder p(z_i = z_j)
    rem = _ref_map(dict(p.items()), lambda e: _with(_with(e, j, e[j - 1] + e[i - 1]), i, 0))
    if rem:
        with pytest.raises(NonDivisibleError) as caught:
            _divide_by_z_diff(p, i, j)
        _same(caught.value.remainder, rem)
    else:
        assert _divide_by_z_diff(p, i, j) * zij == p


@given(VAR_COUNTS.flatmap(
    lambda n: st.tuples(ref_polys(n), st.lists(st.integers(-4, 4), min_size=n, max_size=n))
))
def test_restrict_last_to_zero_agrees_with_evaluation(case):
    p, point = case
    n = p.nvars
    point[-1] = 0
    sliced = p.restrict_last_to_zero()
    assert sliced.nvars == n
    assert all(exp[-1] == 0 for exp, _ in sliced.items())
    assert sliced.evaluate(point) == p.evaluate(point)
    # z_n times anything vanishes on the slice; the slice is idempotent
    zn = SparsePolynomial.variable(n, n)
    assert (p * zn).restrict_last_to_zero().is_zero()
    assert sliced.restrict_last_to_zero() == sliced
    assert (p - sliced).restrict_last_to_zero().is_zero()


@pytest.mark.parametrize("n", [1, 2, 8])
def test_restrict_last_to_zero_drops_every_power_of_the_last_variable(n):
    zn = SparsePolynomial.variable(n, n)
    rest = SparsePolynomial.constant(n, 3) + SparsePolynomial.variable(n, 1) ** 5
    if n > 1:
        rest = rest + SparsePolynomial.variable(n, n - 1) ** (CAP - 1)
    p = rest + zn + zn * zn * 7 + zn ** (CAP - 1)
    expected = rest if n > 1 else SparsePolynomial.constant(n, 3)
    assert p.restrict_last_to_zero() == expected


def test_exponents_at_the_cap_stay_exact():
    top = CAP - 1
    p = SparsePolynomial.from_terms(8, [((top,) * 8, 1), ((top,) + (0,) * 7, 2)])
    assert p.degree() == 8 * top
    assert not p.is_homogeneous()
    assert p.leading_term() == ((top,) * 8, 1)
    assert p.sorted_terms()[-1] == ((top,) + (0,) * 7, 2)
    # exponents below 2^21 and from 2^21 on: totals near and past 2^24 stay exact
    below = SparsePolynomial.from_terms(8, [((2**21 - 1,) * 8, 1)])
    assert below.degree() == 8 * (2**21 - 1)
    q = SparsePolynomial.from_terms(3, [((2**21 - 1, 0, 0), 1), ((0, 2**21, 2**22), 1)])
    assert q.degree() == 2**21 + 2**22
    z1 = zpoly(1, 1)
    assert dict((z1 ** (2**22) * z1 ** (2**22 - 1)).items()) == {(top,): 1}


@pytest.mark.parametrize("slot", [1, 8])
def test_exponent_reaching_the_cap_raises_overflow(slot):
    z = zpoly(8, slot)
    half = z ** (2**22)
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        (half * z ** (2**22 - 1)).antiderivative(slot)
    other = 9 - slot
    with pytest.raises(OverflowError):
        (half * zpoly(8, other) ** (2**22)).substitute_variable(other, slot)


# ----------------------------------------------------------------------
# factored sums


def test_factored_canonical_orientation():
    # (t - z)^e stored as (z - t)^e flips the coefficient for odd e
    t = t_atom(2, 1, 1)
    z = z_atom(1)
    a = FactoredSum.term(1, [(t, z, -1)])
    b = FactoredSum.term(-1, [(z, t, -1)])
    assert a == b
    c = FactoredSum.term(1, [(t, z, -2)])
    d = FactoredSum.term(1, [(z, t, -2)])
    assert c == d


def test_factored_merge_and_zero():
    z1, z2 = z_atom(1), z_atom(2)
    a = FactoredSum.term(2, [(z1, z2, 3)])
    b = FactoredSum.term(-2, [(z1, z2, 3)])
    assert (a + b).is_zero()
    assert a - a == FactoredSum.zero()
    assert len(a + FactoredSum.term(1, [(z1, z2, 2)])) == 2
    assert FactoredSum.term(0, [(z1, z2, 1)]).is_zero()
    with pytest.raises(ValueError):
        FactoredSum.term(1, [(z1, z1, 2)])


@pytest.mark.parametrize("e", [1.5, True, "2", 2.0, Fraction(2)], ids=repr)
def test_factored_term_refuses_an_exponent_that_is_not_an_int(e):
    # int() would read 1.5 and True as 1, and "2", 2.0 and Fraction(2) as 2
    z1, z2 = z_atom(1), z_atom(2)
    with pytest.raises(ValueError, match=f"exponent must be an int, got a {type(e).__name__}"):
        FactoredSum.term(1, [(z1, z2, 1), (z2, z1, e)])


def test_factored_term_merges_repeated_reversed_and_cancelling_pairs():
    z1, z2, z3 = z_atom(1), z_atom(2), z_atom(3)
    fs = FactoredSum.term(
        3,
        [
            (z1, z2, 2), (z2, z1, 1),  # repeated, reversed at an odd power: sign -1
            (z1, z3, 1), (z3, z1, -1),  # cancels to exponent 0, reversed at -1: sign -1
            (z2, z3, 1), (z3, z2, 1), (z3, z2, 2),  # reversed at odd, then even: -1
        ],
    )
    assert fs.terms == {(((z1, z2), 3), ((z2, z3), 4)): -3}
    z12, z23 = SparsePolynomial.z_diff(3, 1, 2), SparsePolynomial.z_diff(3, 2, 3)
    assert normalize_factored(fs, 3) == z12**3 * z23**4 * -3


def test_factored_multiplication_merges_exponents():
    z1, z2, z3 = z_atom(1), z_atom(2), z_atom(3)
    a = FactoredSum.term(2, [(z1, z2, 1)])
    b = FactoredSum.term(3, [(z1, z2, 2), (z2, z3, -1)])
    prod = a * b
    expected = FactoredSum.term(6, [(z1, z2, 3), (z2, z3, -1)])
    assert prod == expected


def test_factored_relabel():
    t1 = t_atom(2, 1, 1)
    t2 = t_atom(3, 1, 1)
    z1 = z_atom(1)
    a = FactoredSum.term(1, [(t1, z1, -1), (t2, t1, 1)])
    swapped = a.relabel({t1: t2, t2: t1})
    assert swapped == FactoredSum.term(1, [(t2, z1, -1), (t1, t2, 1)])
    # odd exponent across a reorientation flips the sign
    assert swapped == FactoredSum.term(-1, [(t2, z1, -1), (t2, t1, 1)])


def test_factored_live_variables():
    a = FactoredSum.term(1, [(t_atom(2, 1, 1), z_atom(2), -1), (z_atom(1), z_atom(2), 2)])
    assert a.live_variables() == {t_atom(2, 1, 1)}


def _meaning_order(n):
    """Sort key for the atoms of n points, read off what each atom means:
    fixed points by index, then variables by (level, row, column)."""
    key = {z_atom(i): (0, i) for i in range(1, n + 1)}
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            key.update({t_atom(r, c, s): (1, s, r, c) for s in range(1, n)})
    return key.__getitem__


def _assert_keys_in_meaning_order(fs, order):
    for _, key in fs.iter_terms():
        assert all(order(a) < order(b) for (a, b), _ in key), key
        pairs = [(order(a), order(b)) for (a, b), _ in key]
        assert pairs == sorted(pairs), key


@pytest.mark.parametrize(
    "lam", [lam for n in range(1, 6) for lam in enumerate_partitions(n)], ids=str
)
def test_atoms_sort_as_tuples_in_the_order_of_their_meaning(lam):
    order = _meaning_order(lam.size)
    atoms = {a for _, key in interaction_form(lam, 1).iter_terms() for pair, _ in key
             for a in pair}
    atoms.update(a for step in residue_plan(identity_tableau(lam)) for a in step)
    assert sorted(atoms) == sorted(atoms, key=order)


def test_term_keys_list_their_pairs_in_the_atom_order():
    lam = Partition((2, 1, 1))
    cycle = identity_tableau(lam)
    order = _meaning_order(lam.size)
    _assert_keys_in_meaning_order(interaction_form(lam, 1), order)
    integrand = interaction_form(lam, 1) * tableau_form(cycle)
    out = residue_at(integrand, *residue_plan(cycle)[0])
    assert out.live_variables()  # mixed pairs of variables and fixed points remain
    _assert_keys_in_meaning_order(out, order)


def test_normalize_factored():
    z1, z2, z3 = z_atom(1), z_atom(2), z_atom(3)
    fs = FactoredSum.term(1, [(z1, z2, 2)]) + FactoredSum.term(1, [(z2, z3, 1)])
    p = normalize_factored(fs, 3)
    z12 = SparsePolynomial.z_diff(3, 1, 2)
    z23 = SparsePolynomial.z_diff(3, 2, 3)
    assert p == z12**2 + z23

    # negative exponents cancel when the sum is secretly polynomial:
    # 1/(z1-z2) - 1/(z1-z2) * (z2-z3)/(z2-z3) == 0
    fs = FactoredSum.term(1, [(z1, z2, -1)]) + FactoredSum.term(-1, [(z1, z2, -1)])
    assert normalize_factored(fs, 3).is_zero()

    # (z1-z2)^2/(z1-z2) is polynomial despite the inverse factor
    fs = FactoredSum.term(1, [(z1, z2, 2), (z1, z2, -1)])
    assert normalize_factored(fs, 3) == z12

    # a genuine pole refuses
    with pytest.raises(NormalizeError):
        normalize_factored(FactoredSum.term(1, [(z1, z2, -1)]), 3)


def test_normalize_rejects_leftover_configuration_atoms():
    fs = FactoredSum.term(1, [(t_atom(2, 1, 1), z_atom(1), 1)])
    with pytest.raises(ValueError):
        normalize_factored(fs, 2)


def _normalize_common_denominator(fs, nvars):
    """Reference expansion: every term over the one common denominator
    given by the most negative power of each difference, the numerator
    expanded in full, then the denominator divided out exactly."""
    need = {}
    for _, key in fs.iter_terms():
        for pd, e in key:
            if e < 0:
                need[pd] = max(need.get(pd, 0), -e)
    num = SparsePolynomial.zero(nvars)
    for coeff, key in fs.iter_terms():
        fmap = dict(key)
        for pd, d in need.items():
            fmap[pd] = fmap.get(pd, 0) + d
        poly = SparsePolynomial.constant(nvars, coeff)
        for (a, b), e in fmap.items():
            poly = poly * SparsePolynomial.z_diff(nvars, a[1], b[1]) ** e
        num = num + poly
    for (a, b), d in need.items():
        for _ in range(d):
            try:
                num = _divide_by_z_diff(num, a[1], b[1])
            except NonDivisibleError as exc:
                raise NormalizeError(exc.remainder) from None
    return num


@st.composite
def fixed_point_sums(draw, nvars, lo, hi):
    """A few terms c * prod (z_a - z_b)^e with exponents in lo..hi."""
    pairs = list(combinations([z_atom(i) for i in range(1, nvars + 1)], 2))
    fs = FactoredSum()
    for _ in range(draw(st.integers(1, 4))):
        factors = [
            (a, b, draw(st.integers(lo, hi)))
            for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3))
        ]
        fs = fs + FactoredSum.term(draw(st.integers(-5, 5).filter(bool)), factors)
    return fs


@given(fixed_point_sums(3, -2, 2), fixed_point_sums(3, -2, 2))
def test_factored_subtraction_is_adding_the_negation(a, b):
    assert a - b == a + b.scale(-1)
    assert (a - b) + b == a
    assert (a - a).is_zero()


@st.composite
def polynomial_sums(draw):
    """Polynomial sums whose terms carry mixed-sign exponents: a sum with
    non-negative exponents is multiplied by 1 written as
    ((z_a - z_c) - (z_b - z_c)) / (z_a - z_b), so its terms only cancel
    as a whole, and by a monomial every term then shares."""
    nvars = draw(st.integers(3, 4))
    fs = draw(fixed_point_sums(nvars, 0, 3))
    for _ in range(draw(st.integers(1, 2))):
        a, b, c = sorted(draw(st.permutations(range(1, nvars + 1)))[:3])
        za, zb, zc = z_atom(a), z_atom(b), z_atom(c)
        one = FactoredSum.term(1, [(za, zc, 1), (za, zb, -1)]) + FactoredSum.term(
            -1, [(zb, zc, 1), (za, zb, -1)]
        )
        fs = fs * one
    pairs = list(combinations([z_atom(i) for i in range(1, nvars + 1)], 2))
    shared = [
        (a, b, draw(st.integers(1, 2)))
        for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2))
    ]
    return nvars, fs * FactoredSum.term(1, shared)


@given(polynomial_sums())
def test_normalize_agrees_with_common_denominator_on_polynomial_sums(case):
    nvars, fs = case
    assert normalize_factored(fs, nvars) == _normalize_common_denominator(fs, nvars)


@given(polynomial_sums(), st.integers(-5, 5).filter(bool), st.data())
def test_normalize_refuses_a_genuine_pole_like_common_denominator(case, c, data):
    """A polynomial plus c / (z_a - z_b) is not a polynomial."""
    nvars, fs = case
    a, b = sorted(data.draw(st.permutations(range(1, nvars + 1)))[:2])
    fs = fs + FactoredSum.term(c, [(z_atom(a), z_atom(b), -1)])
    with pytest.raises(NormalizeError):
        _normalize_common_denominator(fs, nvars)
    with pytest.raises(NormalizeError):
        normalize_factored(fs, nvars)


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), fixed_point_sums(n, -2, 3))))
def test_normalize_agrees_with_common_denominator_on_any_sum(case):
    """Either both expansions refuse or both give the same polynomial."""
    nvars, fs = case
    try:
        expected = _normalize_common_denominator(fs, nvars)
    except NormalizeError:
        with pytest.raises(NormalizeError):
            normalize_factored(fs, nvars)
    else:
        assert normalize_factored(fs, nvars) == expected


# ----------------------------------------------------------------------
# matrices


def _matmul(a, b):
    """The product of two matrices given as rows, summed term by term."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_determinant_and_adjugate():
    n = 2
    z1, z2 = zpoly(n, 1), zpoly(n, 2)
    m = [[z1, z2], [z2, z1]]
    det = determinant(m)
    assert det == z1 * z1 - z2 * z2
    det2, adj = det_adjugate(m)
    assert det2 == det
    assert adj[0][0] == z1
    assert adj[0][1] == -z2
    prod = _matmul(m, adj)
    assert prod[0][0] == det and prod[0][1].is_zero()


def test_determinant_three_by_three_vandermonde():
    n = 3
    rows = [
        [SparsePolynomial.constant(n, 1)] * 3,
        [zpoly(n, i) for i in (1, 2, 3)],
        [zpoly(n, i) ** 2 for i in (1, 2, 3)],
    ]
    det = determinant(rows)
    z12 = SparsePolynomial.z_diff(n, 1, 2)
    z13 = SparsePolynomial.z_diff(n, 1, 3)
    z23 = SparsePolynomial.z_diff(n, 2, 3)
    # rows ordered 1, z, z^2 give the product of z_j - z_i for i < j
    assert det == -(z12 * z13 * z23)


def _leibniz_det(rows, nvars):
    """Reference determinant: the sum over permutations of the signed
    products of entries."""
    n = len(rows)
    total = SparsePolynomial.zero(nvars)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        term = SparsePolynomial.constant(nvars, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def z_diff_matrices(draw, max_size=6):
    """Square matrices of small polynomials with random powers of
    z_i - z_j multiplied into whole rows and whole columns; some are
    constant, some have an all-zero row or column.

    Returns `(nvars, rows, core, content)`: rows[r][c] is core[r][c]
    times the content drawn for row r and column c, and `content` is the
    product of all of those, so det(rows) == content * det(core) by
    multilinearity.  The core's entries are small, which keeps a Leibniz
    reference cheap at sizes where one on `rows` takes seconds."""
    nvars = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_size))
    one = SparsePolynomial.constant(nvars, 1)
    kind = draw(st.sampled_from(["factored"] * 4 + ["constant", "zero_row", "zero_col"]))
    if kind == "constant":
        rows = [
            [SparsePolynomial.constant(nvars, draw(st.integers(-3, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        return nvars, rows, rows, one
    pairs = list(combinations(range(1, nvars + 1), 2))

    def small():
        items = [
            (tuple(draw(st.integers(0, 1)) for _ in range(nvars)), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 2)))
        ]
        return SparsePolynomial.from_terms(nvars, items)

    def content():
        out = one
        if pairs:
            for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2)):
                out = out * SparsePolynomial.z_diff(nvars, i, j) ** draw(st.integers(1, 2))
        return out

    core = [[small() for _ in range(n)] for _ in range(n)]
    zero = SparsePolynomial.zero(nvars)
    k = draw(st.integers(0, n - 1))
    if kind == "zero_row":
        core[k] = [zero] * n
    elif kind == "zero_col":
        for row in core:
            row[k] = zero
    row_content = [content() for _ in range(n)]
    col_content = [content() for _ in range(n)]
    rows = [
        [core[r][c] * row_content[r] * col_content[c] for c in range(n)]
        for r in range(n)
    ]
    return nvars, rows, core, reduce(mul, row_content + col_content)


def _zero_row_case():
    """A zero row next to rows that carry z-difference content."""
    nvars = 3
    z1, z2, z3 = (zpoly(nvars, i) for i in (1, 2, 3))
    z12, z23 = SparsePolynomial.z_diff(nvars, 1, 2), SparsePolynomial.z_diff(nvars, 2, 3)
    zero = SparsePolynomial.zero(nvars)
    core = [[z1, z2 + 1, z3 * 2], [zero] * 3, [z1 + z3, z2, z1 * z2 + 3]]
    row_content = [z12**2, z23, z12 * z23]
    rows = [[a * f for a in row] for row, f in zip(core, row_content)]
    return nvars, rows, core, reduce(mul, row_content)


def _one_by_one_case():
    nvars = 2
    z12 = SparsePolynomial.z_diff(nvars, 1, 2)
    core = [[zpoly(nvars, 1) + 2]]
    return nvars, [[core[0][0] * z12**3]], core, z12**3


@settings(deadline=None)
@given(z_diff_matrices())
@example(_zero_row_case())
@example(_one_by_one_case())
def test_determinant_agrees_with_leibniz(case):
    nvars, rows, core, content = case
    with _time_limit(20):
        det = determinant(rows)
    assert det == content * _leibniz_det(core, nvars)


@settings(max_examples=30, deadline=None)
@given(z_diff_matrices(max_size=4))
@example(_zero_row_case())
@example(_one_by_one_case())
def test_adjugate_on_stripped_matrix_agrees_with_leibniz_minors(case):
    """det_adjugate works on the matrix with its z-difference content
    stripped and keeps it as each entry's content; every entry must equal the signed
    Leibniz minor of the original matrix, and M adj == det I must hold
    on the full matrix too."""
    nvars, rows, _, _ = case
    n = len(rows)
    with _time_limit(20):
        det, adj = det_adjugate(rows)
    assert det == _leibniz_det(rows, nvars)
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            expected = _leibniz_det(minor, nvars) if minor else SparsePolynomial.constant(nvars, 1)
            assert adj[i][j] == (-expected if (i + j) % 2 else expected)
    prod = _matmul(rows, adj)
    zero = SparsePolynomial.zero(nvars)
    for i in range(n):
        assert prod[i] == [zero] * i + [det] + [zero] * (n - i - 1)


def test_adjugate_with_one_corrupted_minor_fails_closed(monkeypatch):
    z = [zpoly(3, i) for i in (1, 2, 3)]
    z12 = SparsePolynomial.z_diff(3, 1, 2)
    rows = [[z[0] * z12, z[1] * z12], [z[2], z[0] + z[1]]]
    calls = []
    honest = exactalg._subset_minors

    def corrupt_second_minor(lines, nvars):
        minors = honest(lines, nvars)
        calls.append(minors)
        if len(calls) == 2:  # the first adjugate pass; the first gives det(M')
            s = max(minors)
            minors[s] = minors[s] + 1
        return minors

    monkeypatch.setattr(exactalg, "_subset_minors", corrupt_second_minor)
    with pytest.raises(ArithmeticError, match="adjugate identity failed"):
        det_adjugate(rows)
    assert len(calls) == 3  # n + 1 passes: det(M') and one per left-out column


@settings(max_examples=30, deadline=None)
@given(z_diff_matrices(max_size=4))
@example(_zero_row_case())
@example(_one_by_one_case())
def test_adjugate_takes_n_plus_one_passes_and_no_determinant_call(case):
    _, rows, _, _ = case
    n = len(rows)
    with (
        mock.patch.object(exactalg, "determinant", side_effect=AssertionError),
        mock.patch.object(
            exactalg.ContentPolynomial, "factor", wraps=exactalg.ContentPolynomial.factor
        ) as content,
        mock.patch.object(exactalg, "_subset_minors", wraps=exactalg._subset_minors) as passes,
        _time_limit(20),
    ):
        det_adjugate(rows)
    # each entry is factored once on the way in, and det and each adjugate
    # entry once on the way out; the row and column content is read off
    assert content.call_count <= 2 * n * n + 1
    assert passes.call_count == n + 1


@pytest.mark.parametrize("nvars", [1, 3])
def test_factoring_zero_ends_with_empty_content(nvars):
    # zero is divisible by every power of z_i - z_j: without the guard
    # the division loop never ends
    with _time_limit(5):
        zero = ContentPolynomial.factor(SparsePolynomial.zero(nvars))
    assert zero.content == {} and zero.is_zero() and zero.degree() == -1
    if nvars > 1:
        with pytest.raises(ValueError):
            ContentPolynomial({(1, 2): 1}, SparsePolynomial.zero(nvars))


def test_stripping_skips_a_zero_next_to_a_nonzero_entry():
    p = SparsePolynomial.z_diff(3, 1, 2) ** 2 * SparsePolynomial.z_diff(3, 2, 3)
    p = p * (zpoly(3, 1) + zpoly(3, 3) * 2)
    zero = SparsePolynomial.zero(3)
    with _time_limit(5):
        columns, (row,), cols = exactalg._stripped([[zero, p]])
        alone = ContentPolynomial.factor(p)
    assert row == alone.content == {(1, 2): 2, (2, 3): 1}
    assert cols == [{}, {}]
    assert columns == [[zero], [zpoly(3, 1) + zpoly(3, 3) * 2]]
    assert alone.core == zpoly(3, 1) + zpoly(3, 3) * 2


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
def test_adjugate_identity_on_numeric_matrices(rows):
    n = 1
    m = [[SparsePolynomial.constant(n, v) for v in row] for row in rows]
    det, adj = det_adjugate(m)  # the identity is asserted inside
    prod = _matmul(m, adj)
    for i in range(3):
        for j in range(3):
            expected = det if i == j else SparsePolynomial.zero(n)
            assert prod[i][j] == expected


# ----------------------------------------------------------------------
# content form: prod (z_i - z_j)^e times a core no z_i - z_j divides


@st.composite
def content_values(draw, n):
    """(value, reference): a random core times a random content, as a
    `ContentPolynomial` and as the `SparsePolynomial` built by multiplying
    the differences in one at a time."""
    core = draw(polys(nvars=n))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) if pairs else []
    content = {pd: draw(st.integers(1, 3)) for pd in chosen}
    reference = core
    for (i, j), e in content.items():
        reference = reference * SparsePolynomial.z_diff(n, i, j) ** e
    return ContentPolynomial.factor(core, content), reference


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_content_form_agrees_with_the_expanded_polynomial(data):
    n = data.draw(st.integers(1, 4))
    a, ref_a = data.draw(content_values(n))
    b, ref_b = data.draw(content_values(n))
    image = tuple(data.draw(st.permutations(range(1, n + 1))))
    point = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    # canonical: factoring the expansion again gives the same fields
    assert a.expand() == ref_a and a == ref_a
    assert ContentPolynomial.factor(ref_a) == a
    if a:
        for i, j in combinations(range(1, n + 1), 2):
            with pytest.raises(NonDivisibleError):
                _divide_by_z_diff(a.core, i, j)
    moved = a.permute_variables(image)
    assert moved.expand() == ref_a.permute_variables(image)
    assert moved == ContentPolynomial.factor(ref_a.permute_variables(image))
    assert a.evaluate(point) == ref_a.evaluate(point)
    for got, want in ((a + b, ref_a + ref_b), (a - b, ref_a - ref_b), (a * b, ref_a * ref_b)):
        assert got.expand() == want
        assert got == ContentPolynomial.factor(want)
    assert (a == b) == (ref_a == ref_b)
    assert a.degree() == ref_a.degree()
    assert a.is_homogeneous() == ref_a.is_homogeneous()
    assert a.has_integer_coefficients() == ref_a.has_integer_coefficients()
    if a:
        assert a.leading_term() == ref_a.leading_term()
    assert a.to_json() == ref_a.to_json() and str(a) == str(ref_a)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_slice_of_a_content_value_is_the_slice_of_its_expansion(data):
    """z_n = 0 on the fields: (z_i - z_n)^e becomes z_i^e, a key shift of
    the sliced core, and the result is canonical again."""
    n = data.draw(st.integers(1, 4))
    a, ref_a = data.draw(content_values(n))
    sliced = a.restrict_last_to_zero()
    assert type(sliced) is ContentPolynomial
    assert sliced == ContentPolynomial.factor(ref_a.restrict_last_to_zero())
    assert sliced.expand() == a.expand().restrict_last_to_zero()
    assert all(j < n for _, j in sliced.content)


def test_slicing_shifts_the_core_and_keeps_the_other_pairs():
    value = ContentPolynomial({(1, 3): 2, (1, 2): 1}, zpoly(3, 2) + 1)
    sliced = value.restrict_last_to_zero()  # (z1 - z2) * z1^2 * (z2 + 1)
    assert sliced.content == {(1, 2): 1}
    assert sliced.core == SparsePolynomial.from_terms(3, [((2, 1, 0), 1), ((2, 0, 0), 1)])
    # a sliced core that a z-difference divides gives that power to the content
    gains = ContentPolynomial.factor(zpoly(3, 1) - zpoly(3, 2) + zpoly(3, 3))
    assert gains.content == {} and gains.restrict_last_to_zero().content == {(1, 2): 1}


def test_relabeling_turns_a_pair_round_with_its_sign():
    core = zpoly(3, 3) + 1
    value = ContentPolynomial({(1, 2): 3, (2, 3): 2}, core)
    # z1 <-> z2: (z1 - z2)^3 -> (z2 - z1)^3 = -(z1 - z2)^3, (z2 - z3)^2 -> (z1 - z3)^2
    moved = value.permute_variables((2, 1, 3))
    assert moved.content == {(1, 2): 3, (1, 3): 2}
    assert moved.core == -core
    assert moved.expand() == value.expand().permute_variables((2, 1, 3))
    assert value.permute_variables((1, 2, 3)) is value


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_core_that_a_z_difference_divides_is_refused(data):
    n = data.draw(st.integers(2, 4))
    core = data.draw(polys(nvars=n).filter(bool))
    i, j = data.draw(st.sampled_from(list(combinations(range(1, n + 1), 2))))
    with pytest.raises(ValueError, match="divides the core"):
        ContentPolynomial({}, core * SparsePolynomial.z_diff(n, i, j))
    value = ContentPolynomial.factor(core)
    assert ContentPolynomial(value.content, value.core) == value


@pytest.mark.parametrize("content", [
    {(2, 1): 1}, {(1, 2): 0}, {(1, 4): 1}, {(1, 2): 1.0}, {(1, 2, 3): 1}, {1: 2},
])
def test_content_entries_are_pairs_i_below_j_with_positive_exponents(content):
    with pytest.raises(ValueError, match="bad content"):
        ContentPolynomial(content, zpoly(3, 3) + 1)
    with pytest.raises(ValueError):
        ContentPolynomial({(1, 2): 1}, SparsePolynomial.zero(3))
    with pytest.raises(ValueError):
        ContentPolynomial({}, {0: 1})


def test_relabeled_values_expand_to_the_relabeled_source():
    value = ContentPolynomial({(1, 2): 2, (1, 3): 1}, zpoly(3, 2) + zpoly(3, 3) * 2)
    for image in [(2, 1, 3), (3, 2, 1), (2, 3, 1)]:
        assert value.permute_variables(image).expand() == value.expand().permute_variables(image)
