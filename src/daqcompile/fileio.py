"""Problem and schedule files: strict JSON parsing and deterministic emission.

Both formats are UTF-8 JSON.  The writer keeps field order, puts each
top-level field on its own line and each item of a top-level list (a
schedule instruction) on its own compact line, and spells floats as
Python's shortest repr, which round-trips binary64 exactly; identical
inputs produce byte-identical outputs.  schedule_document renders each
instruction's line itself, a block's x_mask list straight from the mask's
bytes; iter_canonical writes those lines as they are and encodes everything
else with the standard library's encoder.  Unknown and repeated fields are
rejected on parse, and a block's boolean list becomes the mask's bytes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import re
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
    single_qubit_gate,
)
from .errors import FileFormatError
from .graphs import CouplingGraph, NNChain

SCHEDULE_FORMAT = "daqc-schedule/1"

_SHARED_NAMES = {t.value: t for t in (GateType.X, GateType.H, GateType.R)}
_SQR_NAMES = {**_SHARED_NAMES, GateType.RZ.value: GateType.RZ}


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


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise FileFormatError(f"{path}: invalid JSON: nested too deeply") from None


def load_problem(path: str) -> ProblemSpec:
    data = _load_json(path)
    _require_keys(data, {"num_qubits", "resource_couplings", "target", "time"}, "problem")
    L = _as_int(data["num_qubits"], "num_qubits")
    if L < 2:
        raise FileFormatError("num_qubits must be >= 2")
    resource = NNChain(L, _as_number_list(data["resource_couplings"], L - 1, "resource_couplings"))
    t_f = _as_number(data["time"], "time")
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


def _checked_gate(g: Any, where: str) -> Gate:
    """A gate entry off the fast path, checked field by field for the error message."""
    if not isinstance(g, dict):
        raise FileFormatError(f"{where}: expected an object")
    keys = {"q", "gate", "angle"} if g.get("gate") == "rz" else {"q", "gate"}
    _require_keys(g, keys, where)
    q = _as_int(g["q"], f"{where}.q")
    gate_type = _SQR_NAMES.get(g["gate"]) if isinstance(g["gate"], str) else None
    if gate_type is None:
        raise FileFormatError(f"{where}: unknown gate {g['gate']!r}")
    if gate_type is GateType.RZ:
        return Gate(gate_type, (q,), _as_number(g["angle"], f"{where}.angle"))
    return single_qubit_gate(gate_type, q)


def _instruction(entry: Any, L: int, where: str) -> Instruction:
    """One schedule instruction; the gate, layer and block classes check the rest.

    A well-formed x/h/r entry, exactly {"q": int, "gate": name}, takes the
    shared gate straight away; anything else goes through _checked_gate.
    """
    if not isinstance(entry, dict) or len(entry) != 1:
        raise FileFormatError(f"{where}: expected exactly one of 'sqr'/'resource_block'")
    if "sqr" in entry:
        entries = entry["sqr"]
        if not isinstance(entries, list) or not entries:
            raise FileFormatError(f"{where}.sqr: expected a non-empty list")
        gates = []
        for g_idx, g in enumerate(entries):
            if type(g) is dict and len(g) == 2 and type(g.get("q")) is int and type(g.get("gate")) is str:
                gate_type = _SHARED_NAMES.get(g["gate"])
                if gate_type is not None:
                    gates.append(single_qubit_gate(gate_type, g["q"]))
                    continue
            gates.append(_checked_gate(g, f"{where}.sqr[{g_idx}]"))
        return DigitalLayer(tuple(gates))
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
    """Parse a schedule file into (circuit, resource echo, time, metadata)."""
    data = _load_json(path)
    _require_keys(
        data,
        {"format", "num_qubits", "resource_couplings", "time", "instructions", "metadata"},
        "schedule",
    )
    if data["format"] != SCHEDULE_FORMAT:
        raise FileFormatError(f"unsupported schedule format {data['format']!r}")
    L = _as_int(data["num_qubits"], "num_qubits")
    if L < 2:
        raise FileFormatError("num_qubits must be >= 2")
    resource = NNChain(L, _as_number_list(data["resource_couplings"], L - 1, "resource_couplings"))
    t_f = _as_number(data["time"], "time")
    if not isinstance(data["instructions"], list):
        raise FileFormatError("instructions: expected a list")
    instrs: list[Instruction] = []
    for idx, entry in enumerate(data["instructions"]):
        try:
            instrs.append(_instruction(entry, L, f"instructions[{idx}]"))
        except ValueError as exc:
            raise FileFormatError(f"instructions[{idx}]: {exc}") from exc
    # Summed in program order, as circuit_stats sums them for `stats`.
    total = 0.0
    for instr in instrs:
        if isinstance(instr, ResourceBlock):
            total += instr.duration
    if not math.isfinite(total):
        raise FileFormatError("instructions: block durations sum beyond the float range")
    metadata = data["metadata"]
    _check_metadata(metadata)
    try:
        circuit = Circuit(L, tuple(instrs))
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"schedule instructions invalid: {exc}") from exc
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
    """Write `chunks` to a temporary file beside `path`, then rename it onto `path`.

    If anything fails part way, the temporary file is removed and whatever
    was at `path` before is left as it was.  An OS error (a missing or
    unwritable directory, a full disk) becomes a FileFormatError naming `path`.
    """
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            # mkstemp creates the file 0600; give it what a plain open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
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

    A mask becomes its JSON list straight from its bytes, one 0 or 1 per qubit.
    """
    if isinstance(instr, ResourceBlock):
        bits = instr.x_mask.replace(b"\0", b"false,").replace(b"\1", b"true,")
        return (f'{{"resource_block":{{"duration":{float(instr.duration)!r},'
                f'"x_mask":[{bits[:-1].decode()}]}}}}')
    if isinstance(instr, DigitalLayer):
        return f'{{"sqr":[{",".join(map(_gate_text, instr.gates))}]}}'
    raise ValueError(f"cannot serialise {instr!r}; schedule analog requests first")


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
        "instructions": _Lines(map(_instruction_line, circuit.instructions)),
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
