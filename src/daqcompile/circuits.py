"""Digital-analog circuit IR and the all-to-all compilation circuits.

A Circuit is an ordered instruction list over three kinds:

* DigitalLayer - parallel gates on pairwise disjoint qubits (single-qubit
  rotations or adjacent iSWAP/iSWAP-dagger gates; every x, h and r gate on
  a qubit is one shared object from single_qubit_gate);
* AnalogRequest - an ideal chain ZZ evolution asking for phase phi_j on each
  slot j (the scheduler later realises it from the fixed resource);
* ResourceBlock - an executable evolution under the resource chain for a
  non-negative duration, conjugated on both sides by X gates where x_mask is
  set (flipping the sign of every coupling whose endpoints differ in mask);
  x_mask is immutable bytes, one 0 or 1 per qubit.

Compilation strategy, the same for every L: split the target graph into
zig-zag Hamiltonian paths and realise each path by conjugating a chain
evolution with the iSWAP layers of its sorting-network swap frame.  Where
one path's closing frame meets the next path's opening frame, all but the
paper's two mixed iSWAP/iSWAP-dagger bridge layers cancel, so those two
layers are emitted directly; only the first and the last frame are
synthesised.  Every swap is the bare iSWAP, the member of the paper's
Z-relaying family exp(i pi/4 (XX + YY + c ZZ)) with c = 0 and no flanking
rotations.

Instructions are immutable, so one object may stand at many places of a
circuit: lowering shares the basis layers of iSWAP layers that touch the
same qubits, and the compiler shares the blocks of repeated requests.
Validation and circuit_stats walk a layer's gates once per distinct layer
object.

Requested analog angles are scheduled as given, never reduced mod pi/2 or
mod 2*pi, so each request's time is minimal only for the angles it was
given: exp(i(theta +- pi)ZZ) equals exp(i theta ZZ) up to a global phase, so
a request with |angle| > pi/2 runs longer than it needs to (ROADMAP item 2
reduces the angles).  Global phase is not tracked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .graphs import CouplingGraph, walecki_cover
from .swaps import sort_network_sequence


class GateType(str, Enum):
    X = "x"
    H = "h"
    R = "r"          # R = H S H with S the phase gate; R**2 = X, R**3 = R-dagger
    RZ = "rz"        # Rz(theta) = exp(i Z theta / 2), positive-exponent convention
    ISWAP = "iswap"
    ISWAP_DG = "iswap_dg"


_TWO_QUBIT = frozenset({GateType.ISWAP, GateType.ISWAP_DG})


@dataclass(frozen=True)
class Gate:
    type: GateType
    qubits: tuple[int, ...]
    angle: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.type in _TWO_QUBIT:
            if len(self.qubits) != 2 or self.qubits[1] != self.qubits[0] + 1:
                raise ValueError(f"{self.type.value} must act on an adjacent pair, got {self.qubits}")
        else:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.type.value} is single-qubit, got {self.qubits}")
        if self.qubits[0] < 0:
            raise ValueError(f"negative qubit index in {self.qubits}")
        if not math.isfinite(self.angle):
            raise ValueError("non-finite gate angle")
        if self.angle != 0.0 and self.type is not GateType.RZ:
            raise ValueError(f"{self.type.value} takes no angle")

    @staticmethod
    def x(q: int) -> "Gate":
        return single_qubit_gate(GateType.X, q)

    @staticmethod
    def h(q: int) -> "Gate":
        return single_qubit_gate(GateType.H, q)

    @staticmethod
    def r(q: int) -> "Gate":
        return single_qubit_gate(GateType.R, q)

    @classmethod
    def iswap(cls, left: int) -> "Gate":
        return cls(GateType.ISWAP, (left, left + 1))

    @classmethod
    def iswap_dg(cls, left: int) -> "Gate":
        return cls(GateType.ISWAP_DG, (left, left + 1))

    @property
    def is_two_qubit(self) -> bool:
        return self.type in _TWO_QUBIT


@functools.cache
def single_qubit_gate(gate_type: GateType, q: int) -> Gate:
    """The one shared, immutable angle-free gate of this type on qubit q.

    Every x, h and r gate on a qubit is the same object, so a schedule of
    L-qubit rotation layers holds at most 3L of them however long it is.
    A call that raises (an invalid qubit, a two-qubit type) caches nothing
    and raises again on every later call.
    """
    return Gate(gate_type, (q,))


@dataclass(frozen=True)
class DigitalLayer:
    """Gates applying in parallel; no qubit may appear twice."""

    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not self.gates:
            raise ValueError("empty digital layer")
        touched: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if q in touched:
                    raise ValueError(f"qubit {q} used twice in one layer")
                touched.add(q)

    @property
    def has_iswaps(self) -> bool:
        return any(g.is_two_qubit for g in self.gates)


@dataclass(frozen=True)
class AnalogRequest:
    """Ideal chain ZZ evolution: slot j should accumulate phase slot_angles[j]."""

    slot_angles: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(float(a) for a in self.slot_angles)
        if not all(math.isfinite(a) for a in angles):
            raise ValueError("non-finite slot angle")
        object.__setattr__(self, "slot_angles", angles)


@dataclass(frozen=True)
class ResourceBlock:
    """The resource chain's evolution for `duration` between two X layers on the qubits masked 1.

    The X layers flip the sign of every coupling whose two qubits differ in
    mask.  x_mask is bytes holding one 0 or 1 per qubit; anything else,
    another byte value or a tuple, list or array, is a ValueError.
    """

    duration: float
    x_mask: bytes

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError(f"block duration must be finite and >= 0, got {self.duration}")
        if type(self.x_mask) is not bytes:
            raise ValueError(f"x_mask must be bytes, got {type(self.x_mask).__name__}")
        if self.x_mask.translate(None, b"\0\1"):
            raise ValueError("x_mask bytes must be 0 or 1")


Instruction = Union[DigitalLayer, AnalogRequest, ResourceBlock]


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        L = self.num_qubits
        if L < 2:
            raise ValueError("a circuit needs at least 2 qubits")
        checked: set[int] = set()
        for instr in self.instructions:
            if isinstance(instr, DigitalLayer):
                # A layer's gates are checked once per layer object, however
                # often it repeats; the other checks cost less than the lookup.
                if id(instr) in checked:
                    continue
                checked.add(id(instr))
                for g in instr.gates:
                    if max(g.qubits) >= L:
                        raise ValueError(f"gate on qubit {max(g.qubits)} exceeds L={L}")
            elif isinstance(instr, AnalogRequest):
                if len(instr.slot_angles) != L - 1:
                    raise ValueError(f"analog request needs {L - 1} slot angles")
            elif isinstance(instr, ResourceBlock):
                if len(instr.x_mask) != L:
                    raise ValueError(f"x_mask needs length {L}")
            else:
                raise TypeError(f"unknown instruction {instr!r}")


@dataclass(frozen=True)
class ScheduleStats:
    analog_block_count: int
    total_analog_time: float
    sqr_count: int


def circuit_stats(circuit: Circuit) -> ScheduleStats:
    """Counts over every occurrence of every instruction.

    A layer object that repeats has its gates counted once and that count
    added at each occurrence; block durations are summed one occurrence at
    a time, in program order.
    """
    analog = 0
    total_time = 0.0
    sqr = 0
    layer_sqr: dict[int, int] = {}
    for instr in circuit.instructions:
        if isinstance(instr, AnalogRequest):
            analog += 1
        elif isinstance(instr, ResourceBlock):
            analog += 1
            total_time += instr.duration
        elif isinstance(instr, DigitalLayer):
            count = layer_sqr.get(id(instr))
            if count is None:
                count = layer_sqr[id(instr)] = sum(1 for g in instr.gates if not g.is_two_qubit)
            sqr += count
    return ScheduleStats(analog, total_time, sqr)


# --- path-frame circuits ----------------------------------------------------

def ata_circuit_general(target: CouplingGraph, t_f: float) -> Circuit:
    """High-level circuit whose unitary is exp(i t_f H) for the target graph.

    Path P of the zig-zag cover becomes an analog request whose slot j
    carries t_f * g'(P[j], P[j+1]), conjugated by P's sorting-network swap
    frame (plain iSWAP layers before, the same layers reversed as
    iSWAP-daggers after).  Between paths p and p+1 (p = 1, 2, ...) only two
    bridge layers are emitted, on slots 0, 2, 4, ... and then 1, 3, 5, ...,
    with an iSWAP on slot i < 2p and an iSWAP-dagger elsewhere: for every L
    that is exactly what is left of path p's closing frame and path p+1's
    opening frame once each gate that meets its own inverse is cancelled and
    the rest is packed into ASAP layers.  tests/oracles.py builds the circuit
    that way (ata_circuit_cancelled) and the tests compare the two.  Analog
    requests are ideal and still need scheduling onto a resource chain.
    """
    if not math.isfinite(t_f):
        raise ValueError("non-finite evolution time")
    L = target.num_qubits
    cover = walecki_cover(L)
    instrs: list[Instruction] = [
        DigitalLayer(tuple(map(Gate.iswap, layer)))
        for layer in sort_network_sequence(cover.paths[0]).layers
    ]
    for p, (path, disabled) in enumerate(zip(cover.paths, cover.disabled_slots)):
        if p:  # the bridge from path p to path p + 1, counting paths from 1
            for start in (0, 1):
                instrs.append(DigitalLayer(tuple(
                    Gate.iswap(i) if i < 2 * p else Gate.iswap_dg(i) for i in range(start, L - 1, 2)
                )))
        instrs.append(AnalogRequest(tuple(
            0.0 if slot in disabled else t_f * target.weight(path[slot], path[slot + 1])
            for slot in range(L - 1)
        )))
    instrs.extend(
        DigitalLayer(tuple(map(Gate.iswap_dg, layer)))
        for layer in reversed(sort_network_sequence(cover.paths[-1]).layers)
    )
    return Circuit(L, tuple(instrs))


# --- lowering iSWAP layers to analog requests + single-qubit rotations ------

def lower_iswap_layer(
    layer: DigitalLayer,
    num_qubits: int,
    basis: dict[tuple[int, ...], tuple[DigitalLayer, DigitalLayer, DigitalLayer]] | None = None,
) -> list[Instruction]:
    """Replace a parallel iSWAP layer by ZZ analog requests and rotations.

    exp(+-i pi/4 (XX+YY)) splits into commuting XX and YY halves; each half is
    a chain ZZ evolution conjugated into the right basis (H for XX, R = HSH
    for YY, closed by R-dagger emitted as R then X since R**3 = R-dagger).
    Daggered gates request angle -pi/4; the scheduler's sign masks absorb the
    sign so durations stay non-negative.  Both halves are the same request
    object.  `basis`, when given, maps a tuple of touched qubits to its H, R
    and X layers; layers found there are reused and new ones are added.
    """
    if not all(g.is_two_qubit for g in layer.gates):
        raise ValueError("layer mixes iSWAPs with single-qubit gates")
    angles = [0.0] * (num_qubits - 1)
    touched: list[int] = []
    for g in layer.gates:
        sign = -1.0 if g.type is GateType.ISWAP_DG else 1.0
        angles[g.qubits[0]] = sign * math.pi / 4.0
        touched.extend(g.qubits)
    key = tuple(sorted(touched))
    layers = None if basis is None else basis.get(key)
    if layers is None:
        layers = tuple(DigitalLayer(tuple(map(gate, key))) for gate in (Gate.h, Gate.r, Gate.x))
        if basis is not None:
            basis[key] = layers
    h_layer, r_layer, x_layer = layers
    request = AnalogRequest(tuple(angles))
    return [h_layer, request, h_layer, r_layer, request, r_layer, x_layer]


def lower_swap_layers(circuit: Circuit) -> Circuit:
    """Lower every iSWAP layer of a circuit; other instructions pass through.

    Lowered layers that touch the same qubits share one H, one R and one X
    layer object, so later passes can do their per-layer work once per
    distinct object.
    """
    basis: dict[tuple[int, ...], tuple[DigitalLayer, DigitalLayer, DigitalLayer]] = {}
    instrs: list[Instruction] = []
    for instr in circuit.instructions:
        if isinstance(instr, DigitalLayer) and instr.has_iswaps:
            instrs.extend(lower_iswap_layer(instr, circuit.num_qubits, basis))
        else:
            instrs.append(instr)
    return Circuit(circuit.num_qubits, tuple(instrs))
