"""Problem and schedule files: one strict JSON reader and deterministic emission.

Both formats are UTF-8 JSON, and both files go through one reader: it reads
the file once, decodes it as strict UTF-8, parses it with one walker and
maps every read or parse fault to one FileFormatError text; one helper
checks the chain header they share.  The writer keeps field order, puts each
top-level field on its own line and each item of a top-level list (a
schedule instruction) on its own compact line, and spells floats as
Python's shortest repr, which round-trips binary64 exactly; identical
inputs produce byte-identical outputs.  schedule_document renders each
instruction's line itself, a block's x_mask list straight from the mask's
bytes, and renders a repeated instruction object only once per call (the
compiler shares them); the file still spells every instruction at each of
its places.  iter_canonical writes those lines as they are and encodes
everything else with the standard library's encoder.  Unknown and repeated
fields are rejected on parse, and a block's boolean list becomes the mask's
bytes.  load_schedule parses each distinct instruction line once, with the
standard library's decoder, and builds one instruction from it that every
repeat of the line shares; this holds for any layout, and an item that is
not alone on its line is simply parsed on its own.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import re
import stat
import tempfile
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .circuits import (
    Circuit,
    DigitalLayer,
    Gate,
    GateType,
    Instruction,
    ResourceBlock,
)
from .errors import FileFormatError
from .graphs import CouplingGraph, NNChain

SCHEDULE_FORMAT = "daqc-schedule/1"

_SQR_NAMES = {t.value: t for t in (GateType.X, GateType.H, GateType.R, GateType.RZ)}


@dataclass(frozen=True)
class ProblemSpec:
    num_qubits: int
    resource: NNChain
    target_type: str                      # "ata" or "nn"
    target_graph: CouplingGraph | None
    target_angles: tuple[float, ...] | None
    t_f: float


# --- strict readers ---------------------------------------------------------

def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object")
    extra = set(obj) - keys
    missing = keys - set(obj)
    if extra:
        raise FileFormatError(f"{where}: unknown fields {sorted(extra)}")
    if missing:
        raise FileFormatError(f"{where}: missing fields {sorted(missing)}")


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}: expected an integer")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{where}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        raise FileFormatError(f"{where}: integer beyond the float range") from None
    if not math.isfinite(value):
        raise FileFormatError(f"{where}: non-finite number")
    return value


def _as_number_list(value: Any, length: int, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise FileFormatError(f"{where}: expected a list of {length} numbers")
    return tuple(_as_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """JSON object hook: a repeated key is an error, not "last one wins"."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise FileFormatError(f"duplicate keys {sorted(k for k in obj if keys.count(k) > 1)}")
    return obj


_decode = json.JSONDecoder(object_pairs_hook=_unique_keys).raw_decode
_whitespace = re.compile(r"[ \t\n\r]*").match


def _skip(text: str, pos: int) -> int:
    return _whitespace(text, pos).end()


def _instruction_items(text: str, pos: int) -> tuple[list, int]:
    """The JSON array starting at text[pos] ('[') and the index past its ']'.

    An item that begins a line is looked up before it is parsed: if the rest
    of its line, less trailing commas and carriage returns, is the exact text
    of an earlier item that began a line, the item is that item's parsed
    value, the same object.  This holds for any layout.  An object, array or
    string ends at its own closing character, and a number or literal ends
    at the comma or whitespace after it, so equal text parses to an equal
    value that ends at the same place; a raw newline can only be whitespace.
    Only items that begin a line and hold no newline, the ones a line can
    equal, are recorded, and no line much longer than the longest of them is
    searched or sliced, so a one-line or indented file costs one parse per
    item and keeps no second copy of its text.
    """
    items: list = []
    parsed: dict[str, Any] = {}   # exact item text -> its parsed value
    longest = 0
    after = pos + 1               # where the whitespace before an item starts
    pos = _skip(text, after)
    more = not text.startswith("]", pos)
    while more:
        begins_line = text.find("\n", after, pos) >= 0
        end = text.find("\n", pos, pos + longest + 3) if begins_line else -1
        line = text[pos:end].rstrip(",\r") if end >= 0 else None
        if line is not None and line in parsed:
            value = parsed[line]
            pos += len(line)
        else:
            value, end = _decode(text, pos)
            if begins_line and text.find("\n", pos, end) < 0:
                parsed[text[pos:end]] = value
                longest = max(longest, end - pos)
            pos = end
        items.append(value)
        pos = _skip(text, pos)
        more = text.startswith(",", pos)
        if more:
            after = pos + 1
            pos = _skip(text, after)
        elif not text.startswith("]", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
    return items, pos + 1


def _json_document(text: str) -> Any:
    """The JSON value of `text`, repeated keys rejected, instruction lines shared.

    A top-level object is walked field by field, and an "instructions" array
    in it item by item (_instruction_items); every value is parsed by the
    standard decoder, so the result is the standard decoder's value of the
    whole text, except that equal instruction lines give one shared object.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    pos = _skip(text, 0)
    if not text.startswith("{", pos):
        value, pos = _decode(text, pos)
    else:
        pairs = []
        pos = _skip(text, pos + 1)
        more = not text.startswith("}", pos)
        while more:
            if not text.startswith('"', pos):
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, pos)
            key, pos = _decode(text, pos)
            pos = _skip(text, pos)
            if not text.startswith(":", pos):
                raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
            pos = _skip(text, pos + 1)
            if key == "instructions" and text.startswith("[", pos):
                value, pos = _instruction_items(text, pos)
            else:
                value, pos = _decode(text, pos)
            pairs.append((key, value))
            pos = _skip(text, pos)
            more = text.startswith(",", pos)
            if more:
                pos = _skip(text, pos + 1)
            elif not text.startswith("}", pos):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos += 1
        value = _unique_keys(pairs)
    pos = _skip(text, pos)
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    return value


def _read_json(path: str) -> tuple[Any, str]:
    """The file's JSON value and the text it was parsed from, read once as strict UTF-8."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        return _json_document(text), text
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # not UTF-8, malformed JSON, or an integer longer than the
        # interpreter's int-to-str digit limit
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise FileFormatError(f"{path}: invalid JSON: nested too deeply") from None


def _chain_header(data: dict) -> tuple[int, NNChain, float]:
    """num_qubits, resource_couplings and time: the fields both files open with."""
    L = _as_int(data["num_qubits"], "num_qubits")
    if L < 2:
        raise FileFormatError("num_qubits must be >= 2")
    resource = NNChain(L, _as_number_list(data["resource_couplings"], L - 1, "resource_couplings"))
    return L, resource, _as_number(data["time"], "time")


def load_problem(path: str) -> ProblemSpec:
    return load_problem_with_sha256(path)[0]


def load_problem_with_sha256(path: str) -> tuple[ProblemSpec, str]:
    """The problem and the sha256 of the very bytes it was parsed from.

    The file is read once, so a pipe (--input /dev/stdin) is hashed as read;
    strict UTF-8 decoding is one-to-one, so re-encoding gives those bytes back.
    """
    data, text = _read_json(path)
    return _problem(data), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _problem(data: Any) -> ProblemSpec:
    _require_keys(data, {"num_qubits", "resource_couplings", "target", "time"}, "problem")
    L, resource, t_f = _chain_header(data)
    if t_f <= 0:
        raise FileFormatError("time must be positive")
    target = data["target"]
    if not isinstance(target, dict) or "type" not in target:
        raise FileFormatError("target: expected an object with a 'type' field")
    if target["type"] == "ata":
        _require_keys(target, {"type", "couplings"}, "target")
        if not isinstance(target["couplings"], list):
            raise FileFormatError("target.couplings: expected a list")
        weights: dict[tuple[int, int], float] = {}
        for idx, entry in enumerate(target["couplings"]):
            where = f"target.couplings[{idx}]"
            _require_keys(entry, {"i", "j", "value"}, where)
            i = _as_int(entry["i"], f"{where}.i")
            j = _as_int(entry["j"], f"{where}.j")
            if not (0 <= i < j < L):
                raise FileFormatError(f"{where}: need 0 <= i < j < {L}")
            if (i, j) in weights:
                raise FileFormatError(f"{where}: duplicate edge ({i}, {j})")
            value = _as_number(entry["value"], f"{where}.value")
            if not math.isfinite(t_f * value):
                raise FileFormatError(f"{where}: time * value is beyond the float range")
            weights[(i, j)] = value
        graph = CouplingGraph(L, weights)
        return ProblemSpec(L, resource, "ata", graph, None, t_f)
    if target["type"] == "nn":
        _require_keys(target, {"type", "angles"}, "target")
        angles = _as_number_list(target["angles"], L - 1, "target.angles")
        return ProblemSpec(L, resource, "nn", None, angles, t_f)
    raise FileFormatError(f"target.type must be 'ata' or 'nn', got {target['type']!r}")


def _checked_gate(g: Any, L: int, where: str) -> Gate:
    """One gate entry, checked field by field so that an error names the field."""
    if not isinstance(g, dict):
        raise FileFormatError(f"{where}: expected an object")
    keys = {"q", "gate", "angle"} if g.get("gate") == "rz" else {"q", "gate"}
    _require_keys(g, keys, where)
    q = _as_int(g["q"], f"{where}.q")
    if q >= L:
        raise FileFormatError(f"{where}.q: need q < {L}, got {q}")
    gate_type = _SQR_NAMES.get(g["gate"]) if isinstance(g["gate"], str) else None
    if gate_type is None:
        raise FileFormatError(f"{where}: unknown gate {g['gate']!r}")
    if gate_type is GateType.RZ:
        return Gate(gate_type, (q,), _as_number(g["angle"], f"{where}.angle"))
    return Gate(gate_type, (q,))


def _instruction(entry: Any, L: int, where: str) -> Instruction:
    """One schedule instruction; the gate, layer and block classes check the rest."""
    if not isinstance(entry, dict) or len(entry) != 1:
        raise FileFormatError(f"{where}: expected exactly one of 'sqr'/'resource_block'")
    if "sqr" in entry:
        entries = entry["sqr"]
        if not isinstance(entries, list) or not entries:
            raise FileFormatError(f"{where}.sqr: expected a non-empty list")
        return DigitalLayer(tuple(
            _checked_gate(g, L, f"{where}.sqr[{g_idx}]") for g_idx, g in enumerate(entries)
        ))
    if "resource_block" in entry:
        block = entry["resource_block"]
        _require_keys(block, {"duration", "x_mask"}, f"{where}.resource_block")
        duration = _as_number(block["duration"], f"{where}.duration")
        mask = block["x_mask"]
        if not isinstance(mask, list) or len(mask) != L or not set(map(type, mask)) <= {bool}:
            raise FileFormatError(f"{where}.x_mask: expected {L} booleans")
        return ResourceBlock(duration, bytes(mask))
    raise FileFormatError(f"{where}: expected 'sqr' or 'resource_block'")


def _check_metadata(metadata: Any) -> None:
    """metadata as `compile` writes it; `stats` prints its counts as they are.

    The hash must look like a sha256 digest; it is not compared with the problem file.
    """
    _require_keys(metadata, {"tool_version", "input_sha256", "stats"}, "metadata")
    if not isinstance(metadata["tool_version"], str):
        raise FileFormatError("metadata.tool_version: expected a string")
    digest = metadata["input_sha256"]
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
        raise FileFormatError("metadata.input_sha256: expected 64 lowercase hex digits")
    stats = metadata["stats"]
    _require_keys(stats, {"analog_requests", "resource_blocks", "sqr_gates", "total_analog_time"},
                  "metadata.stats")
    for key in ("analog_requests", "resource_blocks", "sqr_gates"):
        if _as_int(stats[key], f"metadata.stats.{key}") < 0:
            raise FileFormatError(f"metadata.stats.{key}: negative count")
    _as_number(stats["total_analog_time"], "metadata.stats.total_analog_time")


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# The parsed JSON and the circuit form no reference cycles, so collecting while
# they are built only re-scans them: about a tenth of the load at L=96.
@_collector_paused()
def load_schedule(path: str) -> tuple[Circuit, NNChain, float, dict]:
    """Parse a schedule file into (circuit, resource echo, time, metadata).

    Each distinct instruction line is parsed once (_json_document) and each
    distinct parsed entry is built into one instruction object, which every
    repeat shares.  The whole file is parsed before any entry is checked, and
    an error names the entry's first index.  The block durations must sum to
    a finite total, which Circuit checks before the metadata is.
    """
    data = _read_json(path)[0]   # drops the text before any instruction is built
    _require_keys(
        data,
        {"format", "num_qubits", "resource_couplings", "time", "instructions", "metadata"},
        "schedule",
    )
    if data["format"] != SCHEDULE_FORMAT:
        raise FileFormatError(f"unsupported schedule format {data['format']!r}")
    L, resource, t_f = _chain_header(data)
    entries = data["instructions"]
    if not isinstance(entries, list):
        raise FileFormatError("instructions: expected a list")
    built: dict[int, Instruction] = {}   # id(parsed entry) -> its instruction
    instrs: list[Instruction] = []
    for idx, entry in enumerate(entries):
        instr = built.get(id(entry))
        if instr is None:
            try:
                instr = built[id(entry)] = _instruction(entry, L, f"instructions[{idx}]")
            except ValueError as exc:
                raise FileFormatError(f"instructions[{idx}]: {exc}") from exc
        instrs.append(instr)
    metadata = data["metadata"]
    del data, entries, built
    try:
        circuit = Circuit(L, tuple(instrs))
    except ValueError as exc:   # block durations summing past the float range
        raise FileFormatError(f"instructions: {exc}") from exc
    _check_metadata(metadata)
    return circuit, resource, t_f, metadata


# --- deterministic writer ---------------------------------------------------

# The C encoder: compact separators, Python's shortest round-trip float repr,
# and a ValueError on nan/inf, which strict JSON cannot carry.
_encode = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode


def iter_canonical(obj: Any) -> Iterator[str]:
    """The canonical text of `obj` in pieces.

    A top-level object comes one field per line, and a non-empty list
    directly under it one compact item per line, so a schedule's
    instructions are never held as one string.  The items of a list that
    schedule_document rendered are already compact JSON and are written as
    they are.
    """
    if not (isinstance(obj, dict) and obj):
        yield _encode(obj) + "\n"
        return
    sep = "{\n  "
    for key, value in obj.items():
        yield f"{sep}{_encode(key)}: "
        if isinstance(value, list) and value:
            item_sep = "[\n    "
            for item in value if type(value) is _Lines else map(_encode, value):
                yield item_sep + item
                item_sep = ",\n    "
            yield "\n  ]"
        else:
            yield _encode(value)
        sep = ",\n  "
    yield "\n}\n"


def dumps_canonical(obj: Any) -> str:
    return "".join(iter_canonical(obj))


def write_replacing(path: str, chunks: Iterable[str]) -> None:
    """Write `chunks` to a temporary file, then rename it onto the file `path` names.

    A symbolic link is followed: the temporary file goes beside the link's
    final target and replaces that, so the link stays a link.  A target that
    exists but is not a regular file (a directory, a FIFO, a device) is left
    untouched and refused.  If anything fails part way, the temporary file
    is removed and whatever was there before is left as it was.  An OS
    error (a missing or unwritable directory, a full disk) becomes a
    FileFormatError naming `path`.
    """
    target = os.path.realpath(path)
    try:
        if not stat.S_ISREG(os.stat(target).st_mode):
            raise FileFormatError(f"cannot write {path}: not a regular file")
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=os.path.basename(target) + ".", suffix=".tmp"
        )
        try:
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            # mkstemp creates the file 0600; give it what a plain open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


class _Lines(list):
    """Items already spelled as compact JSON, which iter_canonical writes as they are."""


def _gate_text(g: Gate) -> str:
    if g.is_two_qubit:
        raise ValueError("cannot serialise iSWAP layers; lower the circuit first")
    if g.type is GateType.RZ:
        return f'{{"q":{g.qubits[0]},"gate":"rz","angle":{_encode(g.angle)}}}'
    return f'{{"q":{g.qubits[0]},"gate":"{g.type.value}"}}'


def _instruction_line(instr: Instruction) -> str:
    """One instruction in the compact JSON spelling of the /1 schema.

    A mask becomes its JSON list straight from its bytes, one 0 or 1 per
    qubit.
    """
    if isinstance(instr, ResourceBlock):
        bits = instr.x_mask.replace(b"\0", b"false,").replace(b"\1", b"true,")
        return (f'{{"resource_block":{{"duration":{float(instr.duration)!r},'
                f'"x_mask":[{bits[:-1].decode()}]}}}}')
    if isinstance(instr, DigitalLayer):
        return f'{{"sqr":[{",".join(map(_gate_text, instr.gates))}]}}'
    raise ValueError(f"cannot serialise {instr!r}; schedule analog requests first")


def _instruction_lines(instructions: tuple[Instruction, ...]) -> _Lines:
    """Every instruction's line, each distinct instruction object rendered once.

    The cache is keyed by id(), never by value: equal values can be spelled
    differently (0.0 and -0.0), and the tuple keeps every object, and so its
    id, alive for the whole call.
    """
    lines: dict[int, str] = {}
    out = _Lines()
    for instr in instructions:
        line = lines.get(id(instr))
        if line is None:
            line = lines[id(instr)] = _instruction_line(instr)
        out.append(line)
    return out


def schedule_document(
    circuit: Circuit,
    resource: NNChain,
    t_f: float,
    stats: dict,
    tool_version: str,
    input_sha256: str,
) -> dict:
    return {
        "format": SCHEDULE_FORMAT,
        "num_qubits": circuit.num_qubits,
        "resource_couplings": list(resource.couplings),
        "time": float(t_f),
        "instructions": _instruction_lines(circuit.instructions),
        "metadata": {
            "tool_version": tool_version,
            "input_sha256": input_sha256,
            "stats": stats,
        },
    }


def sha256_of_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
