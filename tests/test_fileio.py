"""The canonical writer (standard JSON that parses back to the same document) and the one strict reader of both files."""

import ast
import copy
import gc
import hashlib
import json
import math
import os
import random
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile import fileio
from daqcompile.cli import main
from daqcompile.circuits import Circuit, DigitalLayer, Gate, GateType, ResourceBlock
from daqcompile.compiler import compile_ata
from daqcompile.errors import FileFormatError
from daqcompile.fileio import (
    ProblemSpec,
    dumps_canonical,
    iter_canonical,
    load_problem,
    load_problem_with_sha256,
    load_schedule,
    schedule_document,
    write_replacing,
)
from daqcompile.graphs import CouplingGraph, NNChain

from oracles import (
    check_value_semantics,
    reference_json,
    reference_load_schedule,
    same_document,
    schedule_spelling,
)

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


@pytest.mark.parametrize("rendered", [False, True], ids=["values", "lines"])
def test_iter_canonical_yields_instructions_in_bounded_pieces(rendered):
    # the list is never held as one string: no piece holds more than a fixed number of its lines
    n = 2 * fileio._LINES_PER_PIECE + 3
    circuit = Circuit(2, tuple(ResourceBlock(0.5 + k, b"\0\1") for k in range(n)))
    document = schedule_document(circuit, NNChain(2, (1.0,)), 0.5, {}, "0.1.0", "ab" * 32)
    text = dumps_canonical(document)
    if not rendered:
        document = json.loads(text)
    pieces = list(iter_canonical(document))
    counts = [p.count('"resource_block"') for p in pieces if '"resource_block"' in p]
    assert counts == [fileio._LINES_PER_PIECE] * 2 + [3]
    assert "".join(pieces) == text


# --- whole schedules: load(emit(circuit)) == circuit ------------------------------

_angles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e308])


@st.composite
def _schedules(draw):
    """A random executable circuit: x/h/r/rz layers and blocks with any mask and duration.

    Some instructions repeat, and zero durations and angles come with either sign.
    """
    L = draw(st.integers(2, 12))
    instructions = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            mask = draw(st.lists(st.booleans(), min_size=L, max_size=L))
            duration = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e300))
            instructions.append(ResourceBlock(duration, bytes(mask)))
            continue
        qubits = draw(st.lists(st.integers(0, L - 1), min_size=1, max_size=L, unique=True))
        names = draw(st.lists(st.sampled_from("xhrz"), min_size=len(qubits), max_size=len(qubits)))
        instructions.append(DigitalLayer(tuple(
            Gate(GateType.RZ, (q,), draw(_angles)) if name == "z" else Gate(GateType(name), (q,))
            for q, name in zip(qubits, names)
        )))
    for instr in draw(st.lists(st.sampled_from(instructions), max_size=6)) if instructions else ():
        instructions.insert(draw(st.integers(0, len(instructions))), instr)
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


def _spelled(loaded) -> str:
    """A loaded schedule written back: equal text means equal values, zero signs included."""
    circuit, resource, t_f, metadata = loaded
    return dumps_canonical(schedule_document(circuit, resource, t_f, metadata["stats"],
                                             metadata["tool_version"], metadata["input_sha256"]))


@settings(max_examples=100, deadline=None)
@given(_schedules())
def test_reader_matches_the_reference_in_every_layout(schedule):
    circuit, resource, t_f = schedule
    stats = {"analog_requests": 1, "resource_blocks": 2, "sqr_gates": 3, "total_analog_time": 0.5}
    document = schedule_document(circuit, resource, t_f, stats, "0.1.0", "ab" * 32)
    canonical = dumps_canonical(document)
    plain = json.loads(canonical)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.json")
        crlf = canonical.replace("\n", "\r\n")
        for text in (canonical, crlf, json.dumps(plain), json.dumps(plain, indent=2)):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            loaded, expected = load_schedule(path), reference_load_schedule(path)
            assert loaded == expected
            assert _spelled(loaded) == _spelled(expected) == canonical
            if text in (canonical, crlf):   # one object per distinct line
                assert len({id(i) for i in loaded[0].instructions}) == len(set(document["instructions"]))


def test_equal_values_in_distinct_objects_keep_their_own_spelling():
    # The writer shares work by object, never by value: 0.0 and -0.0 are equal but spelled apart.
    L = 3
    layers = [DigitalLayer((Gate(GateType.RZ, (q,), angle), Gate(GateType.H, (2,))))
              for q in (0, 1) for angle in (0.0, -0.0)]
    blocks = [ResourceBlock(duration, b"\0\1\0") for duration in (0.0, -0.0, 0.0)]
    circuit = Circuit(L, (layers[0], blocks[0], layers[1], blocks[1], layers[2], blocks[2], layers[3]))
    assert layers[0] == layers[1] and blocks[0] == blocks[1]
    lines = schedule_document(circuit, NNChain(L, (1.0, 1.0)), 0.5, {}, "0.1.0", "ab" * 32)["instructions"]
    assert [line.split('"angle":')[1].split("}")[0] for line in lines[::2]] == ["0.0", "-0.0"] * 2
    assert [line.split('"duration":')[1].split(",")[0] for line in lines[1::2]] == ["0.0", "-0.0", "0.0"]


def test_repeated_objects_are_rendered_once(monkeypatch):
    L = 4
    layer = DigitalLayer((Gate(GateType.H, (0,)), Gate(GateType.R, (1,)), Gate(GateType.RZ, (3,), 0.25)))
    other = DigitalLayer((Gate(GateType.H, (0,)), Gate(GateType.R, (1,))))   # a distinct layer of equal gates
    block = ResourceBlock(0.5, b"\0\1\1\0")
    circuit = Circuit(L, (layer, block, layer, other, block, layer))
    expected = schedule_document(circuit, NNChain(L, (1.0,) * 3), 0.5, {}, "0.1.0", "ab" * 32)["instructions"]
    rendered = []
    instruction_line = fileio._instruction_line
    monkeypatch.setattr(fileio, "_instruction_line", lambda instr: rendered.append(instr)
                        or instruction_line(instr))
    lines = schedule_document(circuit, NNChain(L, (1.0,) * 3), 0.5, {}, "0.1.0", "ab" * 32)["instructions"]
    assert lines == expected and len(lines) == 6
    assert [id(i) for i in rendered] == [id(layer), id(block), id(other)]


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


def _write_canonical(tmp_path, doc):
    path = tmp_path / "s.json"
    path.write_text(dumps_canonical(doc), encoding="utf-8")
    return str(path)


def _repeating(doc):
    """_SCHEDULE with its first layer and its block repeated: lines 0 = 2 = 5 and 1 = 3."""
    layer, block, other = doc["instructions"]
    return {**doc, "instructions": [layer, block, layer, block, other, layer]}


def test_identical_instruction_lines_load_as_one_object(tmp_path):
    path = _write_canonical(tmp_path, _repeating(_SCHEDULE))
    circuit = load_schedule(path)[0]
    instrs = circuit.instructions
    assert instrs[0] is instrs[2] is instrs[5] and instrs[1] is instrs[3]
    assert instrs[4] is not instrs[0]
    assert circuit == reference_load_schedule(path)[0]


def test_each_distinct_instruction_line_is_built_once(tmp_path, monkeypatch):
    path = _write_canonical(tmp_path, _repeating(_SCHEDULE))
    built = []
    real_instruction = fileio._instruction
    monkeypatch.setattr(fileio, "_instruction",
                        lambda entry, L, where: built.append(where) or real_instruction(entry, L, where))
    load_schedule(path)
    assert built == ["instructions[0]", "instructions[1]", "instructions[4]"]


def test_lines_differing_in_the_sign_of_zero_load_apart(tmp_path):
    doc = copy.deepcopy(_SCHEDULE)
    layers = [{"sqr": [{"q": 0, "gate": "h"}, {"q": 2, "gate": "rz", "angle": a}]} for a in (0.0, -0.0, 0.0)]
    blocks = [{"resource_block": {"duration": d, "x_mask": [False, True, True]}} for d in (0.0, -0.0, 0.0)]
    doc["instructions"] = [item for pair in zip(layers, blocks) for item in pair]
    instrs = load_schedule(_write_canonical(tmp_path, doc))[0].instructions
    layers, blocks = instrs[::2], instrs[1::2]
    assert [math.copysign(1.0, layer.gates[1].angle) for layer in layers] == [1.0, -1.0, 1.0]
    assert [math.copysign(1.0, block.duration) for block in blocks] == [1.0, -1.0, 1.0]
    assert layers[0] is layers[2] and blocks[0] is blocks[2]
    assert layers[1] is not layers[0] and blocks[1] is not blocks[0]


def test_write_replacing_never_touches_the_umask(tmp_path, monkeypatch):
    # the exclusive open applies the umask itself; reading it would mean setting it
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    path = tmp_path / "s.json"
    path.write_text("previous schedule\n", encoding="utf-8")
    write_replacing(str(path), iter_canonical(_SCHEDULE))
    assert path.read_bytes() == dumps_canonical(_SCHEDULE).encode("utf-8")
    assert os.listdir(tmp_path) == ["s.json"]


def test_write_replacing_removes_only_its_own_temporary_file(tmp_path, monkeypatch):
    # a file already at the temporary name is not opened, written or removed
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    path = tmp_path / "s.json"
    taken = tmp_path / f"s.json.{bytes(6).hex()}.tmp"
    taken.write_text("someone else's\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match=f"cannot write {re.escape(str(path))}: File exists"):
        write_replacing(str(path), iter_canonical(_SCHEDULE))
    assert taken.read_text(encoding="utf-8") == "someone else's\n"
    assert sorted(os.listdir(tmp_path)) == [taken.name]


def _canonical_text(instructions=None) -> str:
    doc = _SCHEDULE if instructions is None else {**_SCHEDULE, "instructions": instructions}
    return dumps_canonical(doc)


_BLOCK_LINE = '{"resource_block":{"duration":0.5,"x_mask":[false,true,true]}}'
_TWICE_KEYED = '{"resource_block":{"duration":0.5,"duration":0.5,"x_mask":[false,true,true]}}'

# Each edit of the canonical _SCHEDULE text.  The reference parses on the same
# Python, so even the invalid-JSON wording, which differs between versions, must match.
_MALFORMED = {
    "trailing-data": lambda text: text + "{}\n",
    "duplicate-top-level-key": lambda text: text.replace('{\n  "format"', '{\n  "time": 0.5,\n  "format"'),
    "duplicate-key-in-a-repeated-line": lambda text: text.replace(_BLOCK_LINE, _TWICE_KEYED + ",\n    " + _TWICE_KEYED),
    "missing-comma": lambda text: text.replace("},\n    {", "}\n    {", 1),
    "trailing-comma": lambda text: text.replace("}\n  ],", "},\n  ],"),
    "trailing-comma-after-a-shared-line": lambda text: _canonical_text(
        _repeating(_SCHEDULE)["instructions"]).replace("}\n  ],", "},\n  ],"),
    "trailing-comma-in-the-document": lambda text: text.replace("}}\n}\n", "}},\n}\n"),
    "trailing-comma-in-an-x-mask": lambda text: text.replace("[false,true,true]", "[false,true,true,]"),
    "missing-colon": lambda text: text.replace('"time": ', '"time" '),
    "bare-key": lambda text: text.replace('"time": ', "time: "),
    "empty-instructions-with-space": lambda text: _canonical_text([]).replace('"instructions": []', '"instructions": [ ]'),
    "top-level-array": lambda text: "[" + text + "]",
    "byte-order-mark": lambda text: "\ufeff" + text,
    "deep-nesting": lambda text: "[" * 200000 + "]" * 200000,
    "bad-entry-then-syntax-error": lambda text: _canonical_text([{"sqr": []}] + _SCHEDULE["instructions"])[:-2],
    "repeated-bad-line": lambda text: _canonical_text([_SCHEDULE["instructions"][0], {"sqr": []}] * 2),
}


def _outcome(load, path):
    try:
        return load(path)
    except FileFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("name", _MALFORMED)
def test_malformed_schedules_fail_as_the_reference_does(tmp_path, capsys, name):
    text = _MALFORMED[name](_canonical_text())
    assert text != _canonical_text()
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    got, expected = _outcome(load_schedule, str(path)), _outcome(reference_load_schedule, str(path))
    assert got == expected
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"num_qubits": 3, "resource_couplings": [1.0, 1.0],
                                   "target": {"type": "nn", "angles": [0.5, 0.5]}, "time": 0.5}), encoding="utf-8")
    capsys.readouterr()
    code = main(["stats", "--input", str(problem), "--schedule", str(path)])
    captured = capsys.readouterr()
    if isinstance(got, str):
        assert code == 1 and captured.err == f"error: {got}\n" and captured.out == ""
    else:
        assert code == 0 and captured.err == ""


@pytest.mark.parametrize("layout", ["one-line", "long-first-line"])
def test_reader_stays_linear_after_a_long_item(tmp_path, layout):
    # One long item, then many short ones: no short item may search or slice
    # as far as the long one, or this takes minutes instead of a fraction of a second.
    sep = ", " if layout == "one-line" else ",\n"
    items = '"' + "x" * 8_000_000 + '"' + sep + ",".join(["1"] * 200_000)
    path = tmp_path / "s.json"
    path.write_text(_canonical_text().replace('"instructions": [', '"instructions": [' + items + ","), encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(FileFormatError) as info:
        load_schedule(str(path))
    assert time.perf_counter() - start < 10.0
    assert str(info.value) == f"{path}: instructions[0]: expected exactly one of 'sqr'/'resource_block'"


def test_loaded_gates_are_shared_except_rz(tmp_path):
    circuit = load_schedule(_write_schedule(tmp_path, _SCHEDULE))[0]
    first, block, last = circuit.instructions
    assert first.gates[0] == last.gates[0] == Gate(GateType.H, (0,))
    assert last.gates[1] == Gate(GateType.X, (1,))
    assert first.gates[1] == last.gates[2] == Gate(GateType.RZ, (2,), 0.25)
    assert block.x_mask == b"\0\1\1"
    # a repeated line is one layer object, and so are all of its gates
    instrs = load_schedule(_write_canonical(tmp_path, _repeating(_SCHEDULE)))[0].instructions
    assert isinstance(instrs[0], DigitalLayer) and instrs[0] is instrs[2] is instrs[5]


@pytest.mark.parametrize("entry, message", [
    ({"q": 1}, "instructions[2].sqr[1]: missing fields ['gate']"),
    ({"gate": "x"}, "instructions[2].sqr[1]: missing fields ['q']"),
    ({"q": 1, "gate": "x", "angle": 0.0}, "instructions[2].sqr[1]: unknown fields ['angle']"),
    ({"q": 1, "gate": "rz"}, "instructions[2].sqr[1]: missing fields ['angle']"),
    ({"q": 1, "gate": "y"}, "instructions[2].sqr[1]: unknown gate 'y'"),
    ({"q": 1, "gate": ["x"]}, "instructions[2].sqr[1]: unknown gate ['x']"),
    ({"q": 1.0, "gate": "x"}, "instructions[2].sqr[1].q: expected an integer"),
    ({"q": True, "gate": "x"}, "instructions[2].sqr[1].q: expected an integer"),
    ({"q": -1, "gate": "r"}, "instructions[2].sqr[1].q: need 0 <= q < 3, got -1"),
    ({"q": 3, "gate": "r"}, "instructions[2].sqr[1].q: need 0 <= q < 3, got 3"),
    (["x", 1], "instructions[2].sqr[1]: expected an object"),
], ids=["missing-gate", "missing-q", "extra-key", "rz-without-angle", "unknown-name", "name-list",
        "float-q", "bool-q", "negative-q", "q-beyond-L", "not-an-object"])
def test_reader_gate_messages(tmp_path, entry, message):
    doc = copy.deepcopy(_SCHEDULE)
    doc["instructions"][2]["sqr"][1] = entry
    path = _write_schedule(tmp_path, doc)
    with pytest.raises(FileFormatError) as info:
        load_schedule(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("mask", [[False, 1, True], [False, None, True], [False, True], "FTT"])
def test_reader_mask_messages(tmp_path, mask):
    doc = copy.deepcopy(_SCHEDULE)
    doc["instructions"][1]["resource_block"]["x_mask"] = mask
    path = _write_schedule(tmp_path, doc)
    with pytest.raises(FileFormatError) as info:
        load_schedule(path)
    assert str(info.value) == f"{path}: instructions[1].x_mask: expected 3 booleans"


_PROBLEM = {"num_qubits": 3, "resource_couplings": [1.0, 1.0], "target": {"type": "nn", "angles": [0.5, 0.5]},
            "time": 0.5}


@pytest.mark.parametrize("malformed", [False, True], ids=["good", "malformed"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("load", [load_problem, load_problem_with_sha256, load_schedule], ids=lambda f: f.__name__)
def test_loaders_pause_and_restore_the_collector(tmp_path, monkeypatch, load, enabled, malformed):
    if load is load_schedule:
        doc = copy.deepcopy(_SCHEDULE)
        if malformed:
            doc["instructions"][1]["resource_block"]["x_mask"] = "FTT"
    else:
        doc = {**_PROBLEM, "target": {"type": "nn", "angles": "x"}} if malformed else _PROBLEM
    path = _write_schedule(tmp_path, doc)
    during = []
    real_chain_header = fileio._chain_header

    def chain_header(data):
        during.append(gc.isenabled())
        return real_chain_header(data)

    monkeypatch.setattr(fileio, "_chain_header", chain_header)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if malformed:
            with pytest.raises(FileFormatError, match=f"^{re.escape(path)}: "):
                load(path)
        else:
            load(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]


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
    path = _write_schedule(tmp_path, doc)
    with pytest.raises(FileFormatError) as info:
        load_schedule(path)
    assert str(info.value) == f"{path}: {message}"


def test_reader_accepts_any_version_string_and_hex_digest(tmp_path):
    doc = copy.deepcopy(_SCHEDULE)
    doc["metadata"].update(tool_version="", input_sha256="0123456789abcdef" * 4)
    assert load_schedule(_write_schedule(tmp_path, doc))[3] == doc["metadata"]


def test_reader_rejects_durations_summing_past_the_float_range(tmp_path):
    doc = copy.deepcopy(_SCHEDULE)
    block = {"resource_block": {"duration": 1e308, "x_mask": [False, True, True]}}
    doc["instructions"][1:1] = [block, block]
    path = _write_schedule(tmp_path, doc)
    with pytest.raises(FileFormatError) as info:
        load_schedule(path)
    assert str(info.value) == f"{path}: instructions: block durations sum beyond the float range"
    del doc["instructions"][1]
    assert load_schedule(_write_schedule(tmp_path, doc))[0].instructions[1].duration == 1e308


# --- one reader for both files ---------------------------------------------------

def test_only_the_load_wrapper_and_the_writer_name_the_file():
    # Every loader runs under _loads_file, which names the file once in each
    # fault, so no message below it may; write_replacing loads nothing and
    # keeps its own "cannot write {path}".
    tree = ast.parse(Path(fileio.__file__).read_text(encoding="utf-8"))
    naming = set()
    for top in tree.body:
        for call in ast.walk(top):
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "FileFormatError":
                for field in (node for arg in call.args for node in ast.walk(arg)):
                    if isinstance(field, ast.FormattedValue) and "path" in {
                            name.id for name in ast.walk(field.value) if isinstance(name, ast.Name)}:
                        naming.add(getattr(top, "name", ast.unparse(top)))
    assert naming == {"_loads_file", "write_replacing"}


_PROBLEM_TEXT = json.dumps({"num_qubits": 3, "resource_couplings": [1.0, 1.0],
                            "target": {"type": "nn", "angles": [0.5, 0.5]}, "time": 0.5})

# Malformed bytes that fail before either file's schema is checked.
_FAULTS = {
    "byte-order-mark": b"\xef\xbb\xbf" + _PROBLEM_TEXT.encode(),
    "non-utf-8-byte": b'{"num_qubits": 3, "time": "\xff"}',
    "trailing-data": _PROBLEM_TEXT.encode() + b"{}",
    "duplicate-key": b'{"time": 0.5, "num_qubits": 3, "time": 0.5}',
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
    "5000-digit-integer": b'{"num_qubits": 1' + b"0" * 4999 + b"}",
    "missing-colon": b'{"num_qubits" 3}',
    "trailing-comma-in-object": b'{"num_qubits": 3, "time": 0.5,}',
    "trailing-comma-in-instructions": b'{"num_qubits": 3, "instructions": [{"sqr": []},]}',
}


@pytest.mark.parametrize("name", _FAULTS)
def test_one_fault_gives_one_message_in_either_file(tmp_path, name):
    path = tmp_path / "in.json"
    path.write_bytes(_FAULTS[name])
    messages = []
    for load in (load_problem, load_schedule, reference_json):
        with pytest.raises(FileFormatError) as info:
            load(str(path))
        messages.append(str(info.value))
    assert messages[0] == messages[1] == f"{path}: {messages[2]}"
    what = "duplicate keys ['time']" if name == "duplicate-key" else "invalid JSON: "
    assert messages[0].startswith(f"{path}: {what}")


def _random_problem(rng: random.Random, L: int, kind: str) -> dict:
    """A problem like the benchmark's: g ~ U(0.5, 1.5), N(0, 1) weights or angles."""
    resource = [rng.uniform(0.5, 1.5) for _ in range(L - 1)]
    if kind == "nn":
        target = {"type": "nn", "angles": [rng.gauss(0.0, 1.0) for _ in range(L - 1)]}
    else:
        density = 1.0 if kind == "dense" else 0.3
        target = {"type": "ata", "couplings": [
            {"i": i, "j": j, "value": rng.gauss(0.0, 1.0)}
            for i in range(L) for j in range(i + 1, L) if density >= 1.0 or rng.random() < density]}
    return {"num_qubits": L, "resource_couplings": resource, "target": target, "time": 0.7}


@pytest.mark.parametrize("L", [5, 33, 96])
@pytest.mark.parametrize("kind", ["dense", "sparse", "nn"])
def test_problems_parse_as_the_reference_in_every_layout(tmp_path, kind, L):
    doc = _random_problem(random.Random(f"{kind}/{L}"), L, kind)
    path = tmp_path / "p.json"
    indented = json.dumps(doc, indent=2)
    for text in (json.dumps(doc), indented, indented.replace("\n", "\r\n")):
        path.write_bytes(text.encode("utf-8"))
        expected = reference_json(str(path))
        assert same_document(fileio._read_json(str(path))[0], expected)
        problem, digest = load_problem_with_sha256(str(path))
        assert problem == fileio._problem(expected)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


# --- where the reader shares lines -------------------------------------------------
#
# Only an array directly in the document object, and only in the writer's
# layout, is read line by line; every other value is one call of the
# standard library's scanner, however it is laid out.

_SEP = ",\n    "   # between two instruction lines of the canonical text

# Each edit of the canonical text of _repeating(_SCHEDULE), around or inside
# its instruction lines.  Some keep the writer's layout, most hand the array
# to the scanner whole; either way the value or the error is json.loads's.
_LAYOUTS = {
    "blank-line": lambda text: text.replace(_SEP, ",\n\n    ", 1),
    "blank-line-before-the-bracket": lambda text: text.replace("}\n  ],", "}\n\n  ],"),
    "trailing-comma": lambda text: text.replace("}\n  ],", "},\n  ],"),
    "two-items-on-a-line": lambda text: text.replace(_SEP, ", ", 1),
    "item-over-two-lines": lambda text: text.replace('{"sqr":[', '{"sqr":\n[', 1),
    "item-over-two-lines-after-a-comma": lambda text: text.replace('{"q":2,', '{"q":2,\n', 1),
    "space-before-a-comma": lambda text: text.replace(_SEP, " ,\n    "),
    "bracket-then-data": lambda text: text.replace("}\n  ],", "}\n  ]x,"),
    "bracket-on-the-last-item-line": lambda text: text.replace("}\n  ],", "}],"),
    "comma-first": lambda text: text.replace(_SEP, "\n    , "),
    "close-and-reopen-on-a-line": lambda text: text.replace(_SEP, "], [", 1),
    "double-comma": lambda text: text.replace(_SEP, ",," + _SEP[1:], 1),
    "tabs-and-crlf": lambda text: text.replace("\n    ", "\n\t\t").replace("\n", "\r\n"),
    "no-indent": lambda text: text.replace("\n    ", "\n"),
    "no-final-newline": lambda text: text[:-1],
    "ends-inside-the-array": lambda text: text[:text.index("}\n  ],") + 1],
    "ends-after-a-comma": lambda text: text[:text.index(_SEP) + 1],
    "empty-array": lambda text: _canonical_text([]).replace('"instructions": []', '"instructions": [\n  ]'),
    "literal-items": lambda text: text.replace(_BLOCK_LINE, "null,\n    true,\n    -0.0,\n    \"a,b\""),
    "bracket-after-a-space": lambda text: text.replace('"instructions": [\n', '"instructions": [ \t\r\n'),
    "item-after-the-bracket": lambda text: text.replace('"instructions": [\n    ', '"instructions": ['),
    "non-json-space": lambda text: text.replace('"instructions": [\n', '"instructions": [\x0b\n'),
}


@pytest.mark.parametrize("name", _LAYOUTS)
def test_line_layouts_read_as_the_reference(tmp_path, name):
    canonical = _canonical_text(_repeating(_SCHEDULE)["instructions"])
    text = _LAYOUTS[name](canonical)
    assert text != canonical
    path = tmp_path / "s.json"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(lambda p: fileio._read_json(p)[0], str(path))
    expected = _outcome(reference_json, str(path))
    assert got == expected if isinstance(expected, str) else same_document(got, expected)
    assert _outcome(load_schedule, str(path)) == _outcome(reference_load_schedule, str(path))


def _deepest(read, make) -> int:
    """The largest n at which read(make(n)) does not fail as nested too deeply."""
    def reads(n):
        try:
            read(make(n))
        except FileFormatError as exc:
            if "nested too deeply" not in str(exc):
                raise
            return False
        return True

    low, high = 1, 200_000   # reads at low, fails at high
    assert not reads(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if reads(mid) else (low, mid)
    return low


def test_nesting_limit_does_not_depend_on_the_layout(tmp_path):
    # an item of an array directly in the document, read line by line or
    # on one line, may nest exactly as deep either way
    path = tmp_path / "s.json"

    def read(text):
        path.write_text(text, encoding="utf-8")
        return fileio._read_json(str(path))

    def nested(n, layout):
        item = "[" * n + "]" * n
        return {"line": '{\n  "a": [\n    1,\n    ' + item + '\n  ]\n}\n',
                "one-line": '{"a": [1, ' + item + "]}"}[layout]

    deepest = _deepest(read, lambda n: nested(n, "line"))
    assert _deepest(read, lambda n: nested(n, "one-line")) == deepest
    assert read(nested(deepest, "line"))[0] == read(nested(deepest, "one-line"))[0]


def _spread_lists(text: str) -> str:
    """A canonical schedule text with every x_mask and sqr list spread one element per line."""
    def spread(match):
        items = (json.dumps(item, separators=(",", ":")) for item in json.loads(match[2]))
        return f'"{match[1]}":[\n' + ",\n".join(items) + "\n]"
    return re.sub(r'"(x_mask|sqr)":(\[[^\]]*\])', spread, text)


def _recording_scanner(monkeypatch) -> list:
    """Every value the reader's standard scanner calls return, in order."""
    decoded = []
    scan = fileio._scan

    def recording(text, pos):
        value, end = scan(text, pos)
        decoded.append(value)
        return value, end

    monkeypatch.setattr(fileio, "_scan", recording)
    return decoded


def test_containers_spread_below_depth_one_load_as_the_reference(tmp_path, monkeypatch):
    L, t_f = 7, 0.7
    resource = NNChain(L, tuple(0.5 + k / 8 for k in range(L - 1)))
    weights = {(i, j): 0.1 * (j - i) - 0.3 for i in range(L) for j in range(i + 1, L)}
    circuit = compile_ata(CouplingGraph(L, weights), resource, t_f).circuit
    stats = {"analog_requests": 1, "resource_blocks": 2, "sqr_gates": 3, "total_analog_time": 0.5}
    path = tmp_path / "s.json"
    decoded = _recording_scanner(monkeypatch)
    for doc in (_repeating(_SCHEDULE), schedule_document(circuit, resource, t_f, stats, "0.1.0", "ab" * 32)):
        canonical = dumps_canonical(doc)
        for text in (_spread_lists(canonical), json.dumps(json.loads(canonical), indent=1)):
            assert text.count("\n") > 2 * canonical.count("\n")
            path.write_text(text, encoding="utf-8")
            assert same_document(fileio._read_json(str(path))[0], reference_json(str(path)))
            assert load_schedule(str(path)) == reference_load_schedule(str(path))
    # a mask's booleans are only ever decoded inside their instruction
    assert decoded and bool not in set(map(type, decoded))


def test_a_deeply_nested_field_reads_as_the_reference(tmp_path, monkeypatch):
    # the field's array, 900 arrays deep across as many lines, is not in the
    # writer's layout (its first item does not parse alone), so it is scanned
    # in one call; so is resource_couplings, an array on one line
    nested = "[\n" * 900 + "]\n" * 900
    text = ('{\n"num_qubits": 3,\n"resource_couplings": [1.0, 1.0],\n'
            '"target": {"type": "nn", "angles": [0.5, 0.5]},\n"time": 0.5,\n"extra": ' + nested + "}\n")
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    value = reference_json(str(path))
    decoded = _recording_scanner(monkeypatch)
    assert fileio._read_json(str(path))[0] == value   # no floats, and too deep for same_document
    assert len(decoded) == 5   # 3, the couplings, the target, 0.5 and the field
    messages = []
    for load in (load_problem, lambda p: fileio._problem(reference_json(p))):
        with pytest.raises(FileFormatError) as info:
            load(str(path))
        messages.append(str(info.value))
    assert messages == [f"{path}: problem: unknown fields ['extra']", "problem: unknown fields ['extra']"]


VALUE_CASES = [
    (ProblemSpec, {"num_qubits": 3, "resource": NNChain(3, (1.0, 0.5)), "target_type": "nn", "target_graph": None,
                   "target_angles": (0.25, -0.5), "t_f": 0.5}, {"t_f": 0.75}),
]


def test_problem_spec_value_semantics():
    check_value_semantics(*VALUE_CASES[0])
