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
zig-zag Hamiltonian paths, realise each path by conjugating a chain
evolution with the iSWAP layers of its sorting-network swap frame, then
cancel the inverse gates that meet between consecutive frames and re-layer
what survives.  For even L the survivors are the paper's two mixed bridge
layers per path boundary.  Every swap is the bare iSWAP, the member of the
paper's Z-relaying family exp(i pi/4 (XX + YY + c ZZ)) with c = 0 and no
flanking rotations.

Requested analog angles are kept unreduced (no mod 2*pi) so durations stay
minimal and well defined; global phase is not tracked.
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
    """Evolution under the resource chain, X-conjugated on qubit q where x_mask[q] is 1.

    x_mask is bytes holding one 0 or 1 per qubit; any other byte value is a
    ValueError.  Any other iterable is taken by truth value, so
    ResourceBlock(d, (True, False)) == ResourceBlock(d, b"\\1\\0").
    """

    duration: float
    x_mask: bytes

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError(f"block duration must be finite and >= 0, got {self.duration}")
        if type(self.x_mask) is not bytes:
            object.__setattr__(self, "x_mask", bytes(map(bool, self.x_mask)))
        elif self.x_mask.translate(None, b"\0\1"):
            raise ValueError("x_mask bytes must be 0 or 1")

    def slot_signs(self) -> tuple[int, ...]:
        """Effective coupling sign per chain slot under the X conjugation."""
        return tuple(
            -1 if self.x_mask[j] != self.x_mask[j + 1] else 1
            for j in range(len(self.x_mask) - 1)
        )


Instruction = Union[DigitalLayer, AnalogRequest, ResourceBlock]


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        L = self.num_qubits
        if L < 2:
            raise ValueError("a circuit needs at least 2 qubits")
        for instr in self.instructions:
            if isinstance(instr, DigitalLayer):
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
    iswap_layer_count: int


def circuit_stats(circuit: Circuit) -> ScheduleStats:
    analog = 0
    total_time = 0.0
    sqr = 0
    iswap_layers = 0
    for instr in circuit.instructions:
        if isinstance(instr, AnalogRequest):
            analog += 1
        elif isinstance(instr, ResourceBlock):
            analog += 1
            total_time += instr.duration
        elif isinstance(instr, DigitalLayer):
            if instr.has_iswaps:
                iswap_layers += 1
            sqr += sum(1 for g in instr.gates if not g.is_two_qubit)
    return ScheduleStats(analog, total_time, sqr, iswap_layers)


# --- path-frame circuits ----------------------------------------------------

def _cancel_inverses(gates: list[tuple[int, bool]], num_qubits: int) -> list[tuple[int, bool]]:
    """Drop every iSWAP that meets its own inverse with no gate in between.

    Gates are (left qubit, dagger) pairs in program order.  last[q] indexes
    the latest kept gate on qubit q.  A gate cancels when both its qubits
    point at one kept gate with the opposite dagger flag; that gate is
    removed and both qubits fall back to the pointers saved when it was kept.
    """
    kept: list[tuple[int, bool] | None] = []
    saved: list[tuple[int, int]] = []
    last = [-1] * num_qubits
    for i, dagger in gates:
        top = last[i]
        if top >= 0 and top == last[i + 1] and kept[top][1] != dagger:
            last[i], last[i + 1] = saved[top]
            kept[top] = None
        else:
            saved.append((top, last[i + 1]))
            last[i] = last[i + 1] = len(kept)
            kept.append((i, dagger))
    return [g for g in kept if g is not None]


def _asap_layers(gates: list[tuple[int, bool]], num_qubits: int) -> list[DigitalLayer]:
    """Pack gates into the earliest layer after their qubits' previous gates.

    Program order is kept and each layer lists its gates by left qubit.
    """
    layers: list[list[tuple[int, bool]]] = []
    depth = [0] * num_qubits
    for i, dagger in gates:
        d = max(depth[i], depth[i + 1])
        if d == len(layers):
            layers.append([])
        layers[d].append((i, dagger))
        depth[i] = depth[i + 1] = d + 1
    return [
        DigitalLayer(tuple(Gate.iswap_dg(i) if dg else Gate.iswap(i) for i, dg in sorted(layer)))
        for layer in layers
    ]


def ata_circuit_general(target: CouplingGraph, t_f: float) -> Circuit:
    """High-level circuit whose unitary is exp(i t_f H) for the target graph.

    Path P of the zig-zag cover becomes its sorting-network swap frame
    (plain iSWAPs), an analog request whose slot j carries
    t_f * g'(P[j], P[j+1]), and the frame undone (iSWAP-daggers, layers
    reversed).  Between two requests the closing frame of one path meets the
    opening frame of the next: inverse gates cancel and the rest is packed
    into ASAP layers.  Analog requests are ideal and still need scheduling
    onto a concrete resource chain.
    """
    if not math.isfinite(t_f):
        raise ValueError("non-finite evolution time")
    L = target.num_qubits
    cover = walecki_cover(L)
    instrs: list[Instruction] = []
    between: list[tuple[int, bool]] = []
    for path, disabled in zip(cover.paths, cover.disabled_slots):
        layers = sort_network_sequence(path).layers
        between.extend((i, False) for layer in layers for i in layer)
        instrs.extend(_asap_layers(_cancel_inverses(between, L), L))
        instrs.append(AnalogRequest(tuple(
            0.0 if slot in disabled else t_f * target.weight(path[slot], path[slot + 1])
            for slot in range(L - 1)
        )))
        between = [(i, True) for layer in reversed(layers) for i in layer]
    instrs.extend(_asap_layers(_cancel_inverses(between, L), L))
    return Circuit(L, tuple(instrs))


# --- lowering iSWAP layers to analog requests + single-qubit rotations ------

def lower_iswap_layer(layer: DigitalLayer, num_qubits: int) -> list[Instruction]:
    """Replace a parallel iSWAP layer by ZZ analog requests and rotations.

    exp(+-i pi/4 (XX+YY)) splits into commuting XX and YY halves; each half is
    a chain ZZ evolution conjugated into the right basis (H for XX, R = HSH
    for YY, closed by R-dagger emitted as R then X since R**3 = R-dagger).
    Daggered gates request angle -pi/4; the scheduler's sign masks absorb the
    sign so durations stay non-negative.
    """
    if not all(g.is_two_qubit for g in layer.gates):
        raise ValueError("layer mixes iSWAPs with single-qubit gates")
    angles = [0.0] * (num_qubits - 1)
    touched: list[int] = []
    for g in layer.gates:
        sign = -1.0 if g.type is GateType.ISWAP_DG else 1.0
        angles[g.qubits[0]] = sign * math.pi / 4.0
        touched.extend(g.qubits)
    touched.sort()
    request = AnalogRequest(tuple(angles))
    h_layer = DigitalLayer(tuple(Gate.h(q) for q in touched))
    r_layer = DigitalLayer(tuple(Gate.r(q) for q in touched))
    x_layer = DigitalLayer(tuple(Gate.x(q) for q in touched))
    return [h_layer, request, h_layer, r_layer, request, r_layer, x_layer]


def lower_swap_layers(circuit: Circuit) -> Circuit:
    """Lower every iSWAP layer of a circuit; other instructions pass through."""
    instrs: list[Instruction] = []
    for instr in circuit.instructions:
        if isinstance(instr, DigitalLayer) and instr.has_iswaps:
            instrs.extend(lower_iswap_layer(instr, circuit.num_qubits))
        else:
            instrs.append(instr)
    return Circuit(circuit.num_qubits, tuple(instrs))
