"""The canonical writer: standard JSON that parses back to the same document."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile.fileio import dumps_canonical, iter_canonical

_keys = st.text(alphabet=st.sampled_from("abxyz_ éλ中\"\\\n"), max_size=4)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
_leaves = (
    _scalars
    | st.lists(st.booleans(), max_size=6)
    | st.lists(st.sampled_from([0, 1, True, False, 1.0, 0.0, -0.0]), max_size=6)
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=25,
)
_documents = _values | st.dictionaries(_keys, _values, max_size=5)


def _same(a, b) -> bool:
    """Equal as documents, with key order, exact types and the sign of zero."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_writer_round_trips_through_json(document):
    text = dumps_canonical(document)
    assert _same(json.loads(text), document)
    assert "".join(iter_canonical(document)) == text


def test_bool_and_int_lists_print_differently():
    document = {"bits": [True, False], "ints": [1, 0], "mixed": [1, True, 0.0, -0.0],
                "block": {"bits": [True, 1], "big": 2**70, "tiny": 5e-324, "whole": 2.0}}
    assert _same(json.loads(dumps_canonical(document)), document)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_raises(value):
    with pytest.raises(ValueError):
        dumps_canonical({"instructions": [{"duration": value}]})
    with pytest.raises(ValueError):
        dumps_canonical(value)


def test_iter_canonical_yields_instructions_one_at_a_time():
    instructions = [{"resource_block": {"duration": 0.5, "x_mask": [False, True]}}] * 3
    pieces = list(iter_canonical({"format": "f", "instructions": instructions}))
    assert [p.count('"resource_block"') for p in pieces if '"resource_block"' in p] == [1, 1, 1]
