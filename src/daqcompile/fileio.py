"""Problem and schedule files: one strict JSON reader and deterministic emission.

Both formats are UTF-8 JSON.  Each loader runs under one wrapper, _loads_file,
which pauses the cyclic collector and names the file once in every fault, as
"<path>: <message>".  One reader reads the file once as strict UTF-8 and
parses it with json.loads, whose fault texts it keeps; one helper checks the
chain header both files share.  The standard library's object parser walks the
document object.  An array directly in it that is in the writer's layout, one
item per line (a schedule's instructions), is read by one loop over its lines:
each distinct line is parsed once, alone, by the standard C scanner, and its
repeats share that value.  Every other value, and any such array in another
layout, is one call of the C scanner.  On Python 3.10 and 3.11 the Python
frames of _document, parse_object and _member share the C scanner's recursion
limit, so a few values nested just short of it that json.loads reads are
refused; 3.12 counts C recursion apart.  Unknown and repeated fields are
rejected, a block's boolean list becomes the mask's bytes, and load_schedule
builds one instruction per distinct parsed entry.  The writer keeps field
order, puts each top-level field on its own line and each item of a top-level
list (a schedule instruction) on its own compact line, and spells floats as
Python's shortest repr, which round-trips binary64 exactly; identical inputs
produce byte-identical outputs.  schedule_document renders each distinct
instruction object's line once (the compiler shares them), a block's x_mask
list straight from the mask's bytes, and iter_canonical writes those lines as
they are, a fixed number of lines to a piece.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
import os
import re
import stat
from typing import Any, Callable, Iterable, Iterator

from ._frozen import Frozen
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


class ProblemSpec(Frozen):
    """A problem file's content: an "ata" target_type has target_graph, an "nn" one target_angles."""

    def __init__(self, num_qubits: int, resource: NNChain, target_type: str,
                 target_graph: CouplingGraph | None, target_angles: tuple[float, ...] | None, t_f: float):
        super().__init__(num_qubits, resource, target_type, target_graph, target_angles, t_f)


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


# The C scanner, and the pure-Python scanner's object parser (a hook whose
# signature is the same on 3.10 to 3.13, the versions it was read on; CI
# also runs the tests on 3.14).
_decoder = json.JSONDecoder(object_pairs_hook=_unique_keys)
_scan = _decoder.scan_once

_BLANK = " \t\r"   # JSON whitespace, less the newline that ends a line
_WHITESPACE = json.decoder.WHITESPACE.match


def _member(text: str, pos: int) -> tuple[Any, int]:
    """A value directly in the document: an array in the writer's layout line by line, anything else whole.

    The layout: `[` ends its line, each line after it holds one whole item
    and a comma but the last, which has none, and `]` comes next.  Each
    distinct line is scanned once, alone, and its repeats share that value:
    an item that parses alone to its line's end ends there in place too,
    with the same value (a raw newline can only be whitespace).  The last
    item shares the value of an earlier line that differs only by its comma.
    Items are scanned inside brackets of their own, from this frame, so they
    nest exactly as deep as in place.  On anything else the whole array is
    one call of the C scanner, so values and error texts are the standard
    library's.  Each line is searched, sliced and hashed once, so the time
    stays linear in the text.
    """
    start = text.find("\n", pos) + 1 if text.startswith("[", pos) else 0
    if start and not text[pos + 1:start].strip(_BLANK + "\n"):
        parsed: dict[str, Any] = {}   # an item's line, comma and all -> its parsed value
        items: list = []
        while (end := text.find("\n", start)) >= 0:
            line = text[start:end]
            if line in parsed:
                items.append(parsed[line])
                start = end + 1
                continue
            head = line.rstrip(_BLANK)
            comma = head.endswith(",")
            key = line if comma else f"{head},{line[len(head):]}"
            if key not in parsed:
                item = f"[{(head[:-1] if comma else head).strip(_BLANK)}]"
                try:
                    value, item_end = _scan(item, 0)
                except (StopIteration, ValueError):
                    break
                if item_end != len(item) or len(value) != 1:
                    break
                parsed[key] = value[0]
            items.append(parsed[key])
            start = end + 1
            if not comma:
                close = _WHITESPACE(text, start).end()
                if text.startswith("]", close):
                    return items, close + 1
                break
    return _scan(text, pos)


def _document(text: str, pos: int) -> tuple[Any, int]:
    """The document at text[pos]: an object member by member (_member), anything else whole."""
    if text.startswith("{", pos):
        return _decoder.parse_object((text, pos + 1), _decoder.strict, _member, None, _unique_keys)
    return _scan(text, pos)


class _Reader(json.JSONDecoder):
    """json.loads's decoder, with _document as the scanner its raw_decode calls."""

    def __init__(self) -> None:
        super().__init__()
        self.scan_once = _document


def _read_json(path: str) -> tuple[Any, str]:
    """The file's JSON value (_Reader) and the text it was parsed from, read once as strict UTF-8."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        return json.loads(text, cls=_Reader), text
    except OSError as exc:
        raise FileFormatError(f"cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:   # not UTF-8, malformed JSON, or an int past the int-to-str digit limit
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise FileFormatError("invalid JSON: nested too deeply") from None


def _loads_file(load: Callable[[str], Any]) -> Callable[[str], Any]:
    """`load`, run with the cyclic collector paused and each FileFormatError re-raised as "<path>: <message>".

    The parsed JSON and what is built from it form no reference cycles, so collecting while they are
    built only re-scans them (a tenth of an L=96 schedule load); the caller's setting is restored.
    """
    @functools.wraps(load)
    def loader(path: str) -> Any:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(path)
        except FileFormatError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
        finally:
            if enabled:
                gc.enable()
    return loader


def _chain_header(data: dict) -> tuple[int, NNChain, float]:
    """num_qubits, resource_couplings and time: the fields both files open with."""
    L = _as_int(data["num_qubits"], "num_qubits")
    if L < 2:
        raise FileFormatError("num_qubits must be >= 2")
    resource = NNChain(L, _as_number_list(data["resource_couplings"], L - 1, "resource_couplings"))
    return L, resource, _as_number(data["time"], "time")


@_loads_file
def load_problem(path: str) -> ProblemSpec:
    return _problem(_read_json(path)[0])


@_loads_file
def load_problem_with_sha256(path: str) -> tuple[ProblemSpec, str]:
    """The problem and the sha256 of the very bytes it was parsed from.

    The file is read once, so a pipe (--input /dev/stdin) is hashed as read;
    strict UTF-8 decoding is one-to-one, so re-encoding gives those bytes back.
    """
    import hashlib   # here, so that `stats` and `verify` never load OpenSSL

    data, text = _read_json(path)
    return _problem(data), hashlib.sha256(text.encode("utf-8")).hexdigest()


_COUPLING_FIELDS = {"i", "j", "value"}


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
        # Inline checks for the common case; the helpers, and the `where`
        # text, only for an entry that fails one, so the messages are theirs.
        for idx, entry in enumerate(target["couplings"]):
            if type(entry) is not dict or entry.keys() != _COUPLING_FIELDS:
                _require_keys(entry, _COUPLING_FIELDS, f"target.couplings[{idx}]")
            i, j, value = entry["i"], entry["j"], entry["value"]
            if type(i) is not int:
                i = _as_int(i, f"target.couplings[{idx}].i")
            if type(j) is not int:
                j = _as_int(j, f"target.couplings[{idx}].j")
            if not (0 <= i < j < L):
                raise FileFormatError(f"target.couplings[{idx}]: need 0 <= i < j < {L}")
            if (i, j) in weights:
                raise FileFormatError(f"target.couplings[{idx}]: duplicate edge ({i}, {j})")
            if type(value) is not float or not math.isfinite(value):
                value = _as_number(value, f"target.couplings[{idx}].value")
            if not math.isfinite(t_f * value):
                raise FileFormatError(f"target.couplings[{idx}]: time * value is beyond the float range")
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
    if not 0 <= q < L:
        raise FileFormatError(f"{where}.q: need 0 <= q < {L}, got {q}")
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


@_loads_file
def load_schedule(path: str) -> tuple[Circuit, NNChain, float, dict]:
    """Parse a schedule file into (circuit, resource echo, time, metadata).

    Each distinct instruction line is parsed once (_member) and each
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

# iter_canonical joins this many of a list's lines into one piece.
_LINES_PER_PIECE = 256


def iter_canonical(obj: Any) -> Iterator[str]:
    """The canonical text of `obj` in pieces.

    A top-level object comes one field per line, and a non-empty list
    directly under it one compact item per line, at most _LINES_PER_PIECE
    lines to a piece, so a schedule's instructions are never held as one
    string.  The items of a list that schedule_document rendered are
    already compact JSON and are written as they are.
    """
    if not (isinstance(obj, dict) and obj):
        yield _encode(obj) + "\n"
        return
    sep = "{\n  "
    for key, value in obj.items():
        yield f"{sep}{_encode(key)}: "
        if isinstance(value, list) and value:
            rendered = type(value) is _Lines
            item_sep = "[\n    "
            for k in range(0, len(value), _LINES_PER_PIECE):
                piece = value[k:k + _LINES_PER_PIECE]
                yield item_sep + ",\n    ".join(piece if rendered else map(_encode, piece))
                item_sep = ",\n    "
            yield "\n  ]"
        else:
            yield _encode(value)
        sep = ",\n  "
    yield "\n}\n"


def dumps_canonical(obj: Any) -> str:
    return "".join(iter_canonical(obj))


def write_replacing(path: str, chunks: Iterable[str]) -> None:
    """Write `chunks` to a new temporary file, then rename it onto the file `path` names.

    A symbolic link is followed: the temporary file goes beside the link's
    final target and replaces that, so the link stays a link.  The
    temporary file is opened exclusively under a random name, so it is
    never one that was already there, and it gets the mode (and any
    default ACL) of a plain open under the caller's umask.  A target that
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
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.writelines(chunks)
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
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
