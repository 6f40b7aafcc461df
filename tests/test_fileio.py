"""The canonical writer (standard JSON that parses back to the same document) and the strict schedule reader."""

import copy
import gc
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile import Circuit, DigitalLayer, FileFormatError, Gate, GateType, NNChain, ResourceBlock
from daqcompile import fileio
from daqcompile.fileio import dumps_canonical, iter_canonical, load_schedule, schedule_document

from oracles import same_document, schedule_spelling

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


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_writer_round_trips_through_json(document):
    text = dumps_canonical(document)
    assert same_document(json.loads(text), document)
    assert "".join(iter_canonical(document)) == text


def test_bool_and_int_lists_print_differently():
    document = {"bits": [True, False], "ints": [1, 0], "mixed": [1, True, 0.0, -0.0],
                "block": {"bits": [True, 1], "big": 2**70, "tiny": 5e-324, "whole": 2.0}}
    assert same_document(json.loads(dumps_canonical(document)), document)


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


# --- whole schedules: load(emit(circuit)) == circuit ------------------------------

_angles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e308])


@st.composite
def _schedules(draw):
    """A random executable circuit: x/h/r/rz layers and blocks with any mask and duration."""
    L = draw(st.integers(2, 12))
    instructions = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            mask = draw(st.lists(st.booleans(), min_size=L, max_size=L))
            instructions.append(ResourceBlock(draw(st.floats(0.0, 1e300)), bytes(mask)))
            continue
        qubits = draw(st.lists(st.integers(0, L - 1), min_size=1, max_size=L, unique=True))
        names = draw(st.lists(st.sampled_from("xhrz"), min_size=len(qubits), max_size=len(qubits)))
        instructions.append(DigitalLayer(tuple(
            Gate(GateType.RZ, (q,), draw(_angles)) if name == "z" else Gate(GateType(name), (q,))
            for q, name in zip(qubits, names)
        )))
    couplings = draw(st.lists(st.floats(-1e3, 1e3), min_size=L - 1, max_size=L - 1))
    return Circuit(L, tuple(instructions)), NNChain(L, tuple(couplings)), draw(st.floats(1e-3, 1e3))


@settings(max_examples=150, deadline=None)
@given(_schedules())
def test_schedule_round_trips_through_the_file(schedule):
    circuit, resource, t_f = schedule
    stats = {"analog_requests": 1, "resource_blocks": 2, "sqr_gates": 3, "total_analog_time": 0.5}
    text = dumps_canonical(schedule_document(circuit, resource, t_f, stats, "0.1.0", "ab" * 32))
    assert same_document(
        json.loads(text), schedule_spelling(circuit, resource.couplings, t_f, stats, "0.1.0", "ab" * 32))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert load_schedule(path) == (circuit, resource, t_f,
                                       {"tool_version": "0.1.0", "input_sha256": "ab" * 32, "stats": stats})


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
    assert block.x_mask == b"\0\1\1"


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


@pytest.mark.parametrize("field, value, message", [
    ("tool_version", [1, 2], "metadata.tool_version: expected a string"),
    ("tool_version", 5, "metadata.tool_version: expected a string"),
    ("tool_version", None, "metadata.tool_version: expected a string"),
    ("tool_version", {"a": 1}, "metadata.tool_version: expected a string"),
    ("input_sha256", [1, 2], "metadata.input_sha256: expected 64 lowercase hex digits"),
    ("input_sha256", 5, "metadata.input_sha256: expected 64 lowercase hex digits"),
    ("input_sha256", None, "metadata.input_sha256: expected 64 lowercase hex digits"),
    ("input_sha256", {"a": 1}, "metadata.input_sha256: expected 64 lowercase hex digits"),
    ("input_sha256", "0" * 63, "metadata.input_sha256: expected 64 lowercase hex digits"),
    ("input_sha256", "0" * 65, "metadata.input_sha256: expected 64 lowercase hex digits"),
    ("input_sha256", "A" * 64, "metadata.input_sha256: expected 64 lowercase hex digits"),
    ("input_sha256", "g" * 64, "metadata.input_sha256: expected 64 lowercase hex digits"),
    ("input_sha256", "0" * 63 + "\n", "metadata.input_sha256: expected 64 lowercase hex digits"),
], ids=["version-list", "version-int", "version-null", "version-object", "hash-list", "hash-int",
        "hash-null", "hash-object", "hash-short", "hash-long", "hash-upper", "hash-not-hex", "hash-newline"])
def test_reader_metadata_types(tmp_path, field, value, message):
    doc = copy.deepcopy(_SCHEDULE)
    doc["metadata"][field] = value
    with pytest.raises(FileFormatError) as info:
        load_schedule(_write_schedule(tmp_path, doc))
    assert str(info.value) == message


def test_reader_accepts_any_version_string_and_hex_digest(tmp_path):
    doc = copy.deepcopy(_SCHEDULE)
    doc["metadata"].update(tool_version="", input_sha256="0123456789abcdef" * 4)
    assert load_schedule(_write_schedule(tmp_path, doc))[3] == doc["metadata"]


def test_reader_rejects_durations_summing_past_the_float_range(tmp_path):
    doc = copy.deepcopy(_SCHEDULE)
    block = {"resource_block": {"duration": 1e308, "x_mask": [False, True, True]}}
    doc["instructions"][1:1] = [block, block]
    with pytest.raises(FileFormatError) as info:
        load_schedule(_write_schedule(tmp_path, doc))
    assert str(info.value) == "instructions: block durations sum beyond the float range"
    del doc["instructions"][1]
    assert load_schedule(_write_schedule(tmp_path, doc))[0].instructions[1].duration == 1e308
