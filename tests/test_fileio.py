"""The canonical writer against the element-at-a-time reference emitter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile.fileio import dumps_canonical, iter_canonical

from oracles import emit_reference

_keys = st.text(alphabet=st.sampled_from("abxyz_ éλ中\"\\"), max_size=4)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=4)
)
_leaves = (
    _scalars
    | st.lists(st.booleans(), max_size=6)
    | st.lists(st.integers(min_value=0, max_value=1), max_size=6)
    | st.lists(st.sampled_from([0, 1, True, False, 1.0, 0.0]), max_size=6)
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_writer_matches_reference_emitter(document):
    expected = emit_reference(document)
    assert dumps_canonical(document) == expected
    assert "".join(iter_canonical(document)) == expected


def test_bool_and_int_lists_print_differently():
    document = {"bits": [True, False], "ints": [1, 0], "mixed": [1, True, 0.0]}
    text = dumps_canonical(document)
    assert text == emit_reference(document)
    assert '"ints": [\n    1,\n    0\n  ]' in text
    assert '"bits": [\n    true,\n    false\n  ]' in text


def test_iter_canonical_yields_instructions_one_at_a_time():
    instructions = [{"resource_block": {"duration": 0.5, "x_mask": [False, True]}}] * 3
    pieces = list(iter_canonical({"format": "f", "instructions": instructions}))
    assert [p.count('"resource_block"') for p in pieces if '"resource_block"' in p] == [1, 1, 1]
