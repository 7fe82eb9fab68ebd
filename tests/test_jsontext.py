"""The CLI's JSON writer against `json.dumps(value, indent=2)`, its reference."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kzresidue._jsontext import chunks

# quotes, backslashes, control characters, DEL, non-ASCII and a
# character outside the basic plane, beside plain ASCII
_AWKWARD = st.text(st.sampled_from('"\\\x00\x08\x1f\x7fé \U0001f600 a~'))
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
_INTS = st.integers() | st.integers(-(10**60), 10**60)
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | st.text() | _AWKWARD
_KEYS = st.text() | _AWKWARD | _INTS | _FLOATS | st.booleans() | st.none()


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=5)
        # the one-chunk path: lists of ints, and ints mixed with bools
        | st.lists(_INTS, max_size=5)
        | st.lists(st.integers(-3, 3) | st.booleans(), max_size=5)
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=400)
@given(_VALUES)
def test_chunks_join_to_the_indented_dump(value):
    assert "".join(chunks(value)) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [[], {}, (), [[]], {"a": {}}],
    {"exp": [3, 0, 1], "num": "-12", "den": "1"},
    {"lambda": [2, 1], "terms": [{"exp": [1], "num": "1", "den": "2"}]},
    [True, 1, False, 0],
    {7: "int", 2.5: "float", True: "bool", None: "null", "é": "non-ASCII"},
    ["é", 'a "quote"', "back\\slash", "tab\t", "\x7f", ""],
    [10**400, -(10**400), 0.1, -0.0, 1e300, float("nan"), float("inf"), float("-inf")],
    "top-level string",
    None,
])
def test_chunks_on_hand_picked_values(value):
    assert "".join(chunks(value)) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2},
    Fraction(1, 2),
    [1, Fraction(1, 2)],
    {"a": [0, {1}]},
    {(1, 2): 3},
    {"a": {b"k": 1}},
    [{"a": 1}, {frozenset(): 2}],
])
def test_unsupported_values_and_keys_raise_as_json_does(value):
    with pytest.raises(Exception) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(expected.type):
        "".join(chunks(value))


def test_a_polynomial_term_is_one_chunk():
    term = {"exp": [2, 0], "num": "3", "den": "1"}
    parts = list(chunks({"vars": 2, "terms": [term, term]}))
    text = json.dumps(term, indent=2).replace("\n", "\n    ")
    assert "\n    " + text in parts and ",\n    " + text in parts
