"""The canonical writer (standard JSON that parses back to the same document) and the strict schedule reader."""

import copy
import gc
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile import FileFormatError, Gate, GateType
from daqcompile import fileio
from daqcompile.fileio import dumps_canonical, iter_canonical, load_schedule

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


# --- strict schedule reader ------------------------------------------------------

_SCHEDULE = {
    "format": "daqc-schedule/1", "num_qubits": 3, "resource_couplings": [1.0, 1.0], "time": 0.5,
    "instructions": [
        {"sqr": [{"q": 0, "gate": "h"}, {"q": 2, "gate": "rz", "angle": 0.25}]},
        {"resource_block": {"duration": 0.5, "x_mask": [False, True, True]}},
        {"sqr": [{"q": 0, "gate": "h"}, {"q": 1, "gate": "x"}, {"q": 2, "gate": "rz", "angle": 0.25}]},
    ],
    "metadata": {"tool_version": "0.1.0", "input_sha256": "0" * 64, "stats": {
        "analog_requests": 1, "resource_blocks": 1, "sqr_gates": 5, "total_analog_time": 0.5}},
}


def _write_schedule(tmp_path, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_loaded_gates_are_shared_except_rz(tmp_path):
    circuit = load_schedule(_write_schedule(tmp_path, _SCHEDULE))[0]
    first, block, last = circuit.instructions
    assert first.gates[0] is last.gates[0] is Gate.h(0)
    assert last.gates[1] is Gate.x(1)
    assert first.gates[1] == last.gates[2] == Gate(GateType.RZ, (2,), 0.25)
    assert first.gates[1] is not last.gates[2]
    assert block.x_mask == (False, True, True)


@pytest.mark.parametrize("entry, message", [
    ({"q": 1}, "instructions[2].sqr[1]: missing fields ['gate']"),
    ({"gate": "x"}, "instructions[2].sqr[1]: missing fields ['q']"),
    ({"q": 1, "gate": "x", "angle": 0.0}, "instructions[2].sqr[1]: unknown fields ['angle']"),
    ({"q": 1, "gate": "rz"}, "instructions[2].sqr[1]: missing fields ['angle']"),
    ({"q": 1, "gate": "y"}, "instructions[2].sqr[1]: unknown gate 'y'"),
    ({"q": 1, "gate": ["x"]}, "instructions[2].sqr[1]: unknown gate ['x']"),
    ({"q": 1.0, "gate": "x"}, "instructions[2].sqr[1].q: expected an integer"),
    ({"q": True, "gate": "x"}, "instructions[2].sqr[1].q: expected an integer"),
    ({"q": -1, "gate": "r"}, "instructions[2]: negative qubit index in (-1,)"),
    ({"q": 3, "gate": "r"}, "schedule instructions invalid: gate on qubit 3 exceeds L=3"),
    (["x", 1], "instructions[2].sqr[1]: expected an object"),
], ids=["missing-gate", "missing-q", "extra-key", "rz-without-angle", "unknown-name", "name-list",
        "float-q", "bool-q", "negative-q", "q-beyond-L", "not-an-object"])
def test_reader_gate_messages(tmp_path, entry, message):
    doc = copy.deepcopy(_SCHEDULE)
    doc["instructions"][2]["sqr"][1] = entry
    with pytest.raises(FileFormatError) as info:
        load_schedule(_write_schedule(tmp_path, doc))
    assert str(info.value) == message


@pytest.mark.parametrize("mask", [[False, 1, True], [False, None, True], [False, True], "FTT"])
def test_reader_mask_messages(tmp_path, mask):
    doc = copy.deepcopy(_SCHEDULE)
    doc["instructions"][1]["resource_block"]["x_mask"] = mask
    with pytest.raises(FileFormatError) as info:
        load_schedule(_write_schedule(tmp_path, doc))
    assert str(info.value) == "instructions[1].x_mask: expected 3 booleans"


@pytest.mark.parametrize("malformed", [False, True], ids=["good", "malformed"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_schedule_pauses_and_restores_the_collector(tmp_path, monkeypatch, enabled, malformed):
    doc = copy.deepcopy(_SCHEDULE)
    if malformed:
        doc["instructions"][1]["resource_block"]["x_mask"] = "FTT"
    path = _write_schedule(tmp_path, doc)
    during = []
    real_instruction = fileio._instruction

    def instruction(*args):
        during.append(gc.isenabled())
        return real_instruction(*args)

    monkeypatch.setattr(fileio, "_instruction", instruction)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if malformed:
            with pytest.raises(FileFormatError):
                load_schedule(path)
        else:
            load_schedule(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during and not any(during)
