"""Digital-analog circuit IR and the all-to-all compilation circuits.

A Circuit is an ordered instruction list over three kinds:

* DigitalLayer - parallel gates on pairwise disjoint qubits (single-qubit
  rotations or adjacent iSWAP/iSWAP-dagger gates);
* AnalogRequest - an ideal chain ZZ evolution asking for phase phi_j on each
  slot j (the scheduler later realises it from the fixed resource);
* ResourceBlock - an executable evolution under the resource chain for a
  non-negative duration, conjugated on both sides by X gates where x_mask is
  set (flipping the sign of every coupling whose endpoints differ in mask);
  x_mask is immutable bytes, one 0 or 1 per qubit.

Compilation strategy, the same for every L and every target: a linear
swap network (swap_network) over a map of edges to phases, stopped at the
last request that holds a nonzero pair, whose iSWAP layers are lowered with
the same-kind halves of consecutive layers merged (lower_swap_layers).  A
dense target takes 3L - 4 analog requests for even L and 3L - 3 for odd
L >= 3, any other target at most that, and a chain target one.  Every
swap is the bare iSWAP, the member of the paper's Z-relaying family
exp(i pi/4 (XX + YY + c ZZ)) with c = 0 and no flanking rotations.  The
lowering's basis changes are one Clifford frame carried from request to
request, S^p or H S^p, tracked as two values with a literal table of the
words that undo it: one single-qubit layer per request for even L.  The
lowering takes only what a route builds (iSWAP layers, requests and
blocks), so Z-correction layers (ROADMAP items 3 and 13) go after it.

Instructions are immutable, so one object may stand at many places of a
circuit: the swap network repeats four iSWAP layer objects, lowering
shares its requests by value and emits one layer object per gate kind,
and the compiler shares the blocks of repeated requests.  A layer keeps
its highest qubit and single-qubit gate count, so a Circuit checks and
counts every occurrence in one walk that never revisits a layer's gates.

Requested analog angles are scheduled as given, never reduced mod pi/2 or
mod 2*pi, so each request's time is minimal only for the angles it was
given: exp(i(theta +- pi)ZZ) equals exp(i theta ZZ) up to a global phase, so
a request with |angle| > pi/2 runs longer than it needs to (ROADMAP item 3
reduces the angles).  Global phase is not tracked.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from typing import Mapping, Union

from ._frozen import Frozen
from .graphs import CouplingGraph, Edge


class GateType(str, Enum):
    X = "x"
    H = "h"
    R = "r"          # R = H S H with S the phase gate; R**2 = X, R**3 = R-dagger
    RZ = "rz"        # Rz(theta) = exp(i Z theta / 2), positive-exponent convention
    ISWAP = "iswap"
    ISWAP_DG = "iswap_dg"


_TWO_QUBIT = frozenset({GateType.ISWAP, GateType.ISWAP_DG})


class Gate(Frozen):
    def __init__(self, type: GateType, qubits: tuple[int, ...], angle: float = 0.0):
        qubits = tuple(int(q) for q in qubits)
        if type in _TWO_QUBIT:
            if len(qubits) != 2 or qubits[1] != qubits[0] + 1:
                raise ValueError(f"{type.value} must act on an adjacent pair, got {qubits}")
        elif len(qubits) != 1:
            raise ValueError(f"{type.value} is single-qubit, got {qubits}")
        if qubits[0] < 0:
            raise ValueError(f"negative qubit index in {qubits}")
        if not math.isfinite(angle):
            raise ValueError("non-finite gate angle")
        if angle != 0.0 and type is not GateType.RZ:
            raise ValueError(f"{type.value} takes no angle")
        super().__init__(type, qubits, angle)

    @classmethod
    def iswap(cls, left: int) -> "Gate":
        return cls(GateType.ISWAP, (left, left + 1))

    @classmethod
    def iswap_dg(cls, left: int) -> "Gate":
        return cls(GateType.ISWAP_DG, (left, left + 1))

    @property
    def is_two_qubit(self) -> bool:
        return self.type in _TWO_QUBIT


class DigitalLayer(Frozen):
    """Gates applying in parallel; no qubit may appear twice.

    max_qubit and sqr_count are derived from the gates, so repr, == and the
    hash leave them out.
    """

    def __init__(self, gates: tuple[Gate, ...]):
        if not gates:
            raise ValueError("empty digital layer")
        touched: set[int] = set()
        sqr = 0
        for g in gates:
            for q in g.qubits:
                if q in touched:
                    raise ValueError(f"qubit {q} used twice in one layer")
                touched.add(q)
            sqr += not g.is_two_qubit
        super().__init__(gates)
        object.__setattr__(self, "max_qubit", max(touched))
        object.__setattr__(self, "sqr_count", sqr)

    @property
    def has_iswaps(self) -> bool:
        return self.sqr_count < len(self.gates)


class AnalogRequest(Frozen):
    """Ideal chain ZZ evolution: slot j should accumulate phase slot_angles[j]."""

    def __init__(self, slot_angles: tuple[float, ...]):
        slot_angles = tuple(float(a) for a in slot_angles)
        if not all(math.isfinite(a) for a in slot_angles):
            raise ValueError("non-finite slot angle")
        super().__init__(slot_angles)


class ResourceBlock(Frozen):
    """The resource chain's evolution for `duration` between two X layers on the qubits masked 1.

    The X layers flip the sign of every coupling whose two qubits differ in
    mask.  x_mask is bytes holding one 0 or 1 per qubit; anything else,
    another byte value or a tuple, list or array, is a ValueError.
    """

    # Writes, == and hash written out: an L=96 compile or load builds 5 000-12 000 blocks,
    # the base's loops cost about 0.4 us more per block, and verify's run cache hashes blocks.
    def __init__(self, duration: float, x_mask: bytes):
        if not (math.isfinite(duration) and duration >= 0.0):
            raise ValueError(f"block duration must be finite and >= 0, got {duration}")
        if type(x_mask) is not bytes:
            raise ValueError(f"x_mask must be bytes, got {type(x_mask).__name__}")
        if x_mask.translate(None, b"\0\1"):
            raise ValueError("x_mask bytes must be 0 or 1")
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "x_mask", x_mask)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.duration, self.x_mask) == (other.duration, other.x_mask)
        return NotImplemented

    def __hash__(self):
        return hash((self.duration, self.x_mask))


Instruction = Union[DigitalLayer, AnalogRequest, ResourceBlock]


class ScheduleStats(Frozen):
    def __init__(self, analog_block_count: int, total_analog_time: float, sqr_count: int):
        super().__init__(analog_block_count, total_analog_time, sqr_count)


class Circuit(Frozen):
    """Instructions checked and counted per occurrence, in program order, in one walk.

    The block durations must sum to a finite total.  circuit_stats returns
    the counts, which repr, == and the hash leave out.
    """

    def __init__(self, num_qubits: int, instructions: tuple[Instruction, ...]):
        L = num_qubits
        if L < 2:
            raise ValueError("a circuit needs at least 2 qubits")
        analog = sqr = 0
        total = 0.0
        for instr in instructions:
            if isinstance(instr, ResourceBlock):
                if len(instr.x_mask) != L:
                    raise ValueError(f"x_mask needs length {L}")
                analog += 1
                total += instr.duration
            elif isinstance(instr, DigitalLayer):
                if instr.max_qubit >= L:
                    raise ValueError(f"gate on qubit {instr.max_qubit} exceeds L={L}")
                sqr += instr.sqr_count
            elif isinstance(instr, AnalogRequest):
                if len(instr.slot_angles) != L - 1:
                    raise ValueError(f"analog request needs {L - 1} slot angles")
                analog += 1
            else:
                raise TypeError(f"unknown instruction {instr!r}")
        if not math.isfinite(total):
            raise ValueError("block durations sum beyond the float range")
        super().__init__(num_qubits, instructions)
        object.__setattr__(self, "_stats", ScheduleStats(analog, total, sqr))


def circuit_stats(circuit: Circuit) -> ScheduleStats:
    """Counts over every occurrence of every instruction, as the Circuit took them.

    Requests and blocks are analog instructions; block durations are summed
    one occurrence at a time, in program order.
    """
    return circuit._stats


# --- the swap-network circuit -----------------------------------------------

def swap_network(num_qubits: int, phases: Mapping[Edge, float]) -> Circuit:
    """High-level circuit whose unitary is exp(i sum_e phases[e] Z_i Z_j): every target's route.

    `phases` maps edges (i, j) with i < j to their angles: t_f * g' for an
    all-to-all target, the stated angle for a chain one.  Absent edges have
    angle 0, and an edge outside the chain is a ValueError.

    The linear swap network (Kivlichan et al., arXiv:1711.04789): layer
    k = 0, 1, ... puts a plain iSWAP on every slot j = k (mod 2).  Its
    first L layers reverse the chain and swap every pair once, layer L - 1
    the pairs that start on the odd slots.  Before layer k, the pairs on
    slots of k's parity are about to swap in it, and those on the other
    parity swapped in layer k - 1 (at k = 0: start there) and separate in
    layer k.  So one analog request before every even layer k <= L - 2
    takes the current pair on every slot, and for odd L one last request
    before layer L - 2 takes the odd slots only: between them they take
    the pairs that swap in layers L - 1 and 0 to L - 2, each pair once.
    Slot j carries the phase of the pair it holds and 0 elsewhere.  The
    network stops after the layer before the last request that holds a
    nonzero pair (request 0 if none does), and only the layers it ran are
    undone, in reverse order with iSWAP-daggers, so the digital part is
    the identity and needs no compensation.  A dense target runs all
    2L - 4 iSWAP layers; a chain target, whose pairs all meet in request 0,
    runs none.  The four distinct layers, plain and daggered on each slot
    parity, are built once and shared.  Analog requests are ideal and
    still need scheduling onto a resource chain.
    """
    L = num_qubits
    if not all(0 <= i < j < L for i, j in phases):
        raise ValueError(f"phases need edges (i, j) with 0 <= i < j < {L}")
    parities = range(min(2, L - 1))
    forward = [DigitalLayer(tuple(map(Gate.iswap, range(p, L - 1, 2)))) for p in parities]
    undo = [DigitalLayer(tuple(map(Gate.iswap_dg, range(p, L - 1, 2)))) for p in parities]
    order = list(range(L))         # order[j]: the logical qubit at position j
    instrs: list[Instruction] = []

    def request(slots: range) -> None:
        angles = [0.0] * (L - 1)
        for j in slots:
            a, b = order[j], order[j + 1]
            angles[j] = phases.get((a, b) if a < b else (b, a), 0.0)
        instrs.append(AnalogRequest(tuple(angles)))

    for k in range(L - 2):
        if not k & 1:
            request(range(L - 1))
        for j in range(k & 1, L - 1, 2):
            order[j], order[j + 1] = order[j + 1], order[j]
        instrs.append(forward[k & 1])
    request(range(1, L - 1, 2) if L & 1 else range(L - 1))
    # stop at the last request that holds a nonzero pair, or at request 0
    while len(instrs) > 1 and not (isinstance(instrs[-1], AnalogRequest) and any(instrs[-1].slot_angles)):
        instrs.pop()
    # undo every layer that ran, last first, by the daggered layer on its slot parity
    instrs += [undo[layer.gates[0].qubits[0]] for layer in reversed(instrs) if isinstance(layer, DigitalLayer)]
    return Circuit(L, tuple(instrs))


def ata_circuit_general(target: CouplingGraph, t_f: float) -> Circuit:
    """swap_network for a coupling graph evolved for t_f, for callers that hold a CouplingGraph.

    Every pair's phase is t_f * g', an absent pair's t_f * 0.0, so -0.0
    for a negative t_f.
    """
    if not math.isfinite(t_f):
        raise ValueError("non-finite evolution time")
    L = target.num_qubits
    return swap_network(L, {(i, j): t_f * target.weights.get((i, j), 0.0) for j in range(L) for i in range(j)})


# --- lowering iSWAP layers to analog requests + single-qubit rotations ------

# Per [opened][quarter], the x/h/r word that returns the lowering's frame,
# S^quarter or once opened H S^quarter, to the identity.
_UNDO = (("", "rhr", "hxh", "hrh"), ("h", "xrh", "xh", "rh"))


def lower_swap_layers(circuit: Circuit) -> Circuit:
    """Lower a route's iSWAP layers to requests and x/h/r layers; its requests and blocks pass through.

    exp(+-i pi/4 (XX+YY)) splits into commuting XX and YY halves, each a chain
    ZZ evolution seen through a single-qubit Clifford frame.  Daggered gates
    request angle -pi/4; the scheduler's sign masks absorb the sign so
    durations stay non-negative.  Within a run, layer i puts one half into
    request i and the other into request i + 1, and the requests alternate
    between the XX and YY kinds, so the halves that meet between two layers
    are of one kind.  All chain XX terms commute, and so do all YY terms, so
    each such meeting pair is one request whose slot angles add.  A run of n
    layers costs n + 1 requests.

    The basis changes are not undone after each request.  The x/h/r layers
    emitted so far compose to one Clifford C, the same on every qubit that
    an iSWAP layer of the circuit touches.  A request emitted after C
    realises exp(i sum_j phi_j P_j P_j+1) with P = C^dag Z C on each qubit;
    the sign of P squares away, because both ends of a slot share C.  With
    R = HSH, R H = H S, so C is always S^p or H S^p for some p = 0..3, and
    two values track it: the quarter p and whether the frame is open.

    * h before a run's first request opens S^p to H S^p, whose P is +-X or
      +-Y by the parity of p;
    * r between the requests of a run takes H S^p to H S^(p+1), which moves
      P to the other axis;
    * before a request or block of the input, h closes an open frame to
      the diagonal S^p, which commutes with it;
    * at the end, the word in _UNDO returns C to the identity.

    A layer with a single-qubit gate is a ValueError, raised before any
    output is built.  A compiled circuit costs one single-qubit layer per
    request for even L, and the layers hold x, h and r gates only.

    Requests with the same angles are one object, and each gate kind is one
    layer object on the qubits of every slot some half uses, so later passes
    can do their per-object work once; a layer object's half is worked out
    once per call however often it repeats.
    """
    L = circuit.num_qubits
    layer_halves: dict[int, list[float]] = {}
    for instr in circuit.instructions:
        if isinstance(instr, DigitalLayer) and id(instr) not in layer_halves:
            layer_halves[id(instr)] = _layer_half(instr, L)
    # one layer object per gate kind on every iSWAP's qubits; none without iSWAPs
    slots = {j for half in layer_halves.values() for j, phi in enumerate(half) if phi}
    qubits = sorted(slots | {j + 1 for j in slots})
    basis = {gate: DigitalLayer(tuple(Gate(GateType(gate), (q,)) for q in qubits)) for gate in "xhr" if qubits}
    requests: dict[tuple[float, ...], AnalogRequest] = {}
    instrs: list[Instruction] = []
    quarter, opened = 0, False
    for is_run, group in itertools.groupby(circuit.instructions, key=lambda i: isinstance(i, DigitalLayer)):
        if not is_run:
            # requests and blocks (X_m D X_m) are diagonal
            if opened:
                instrs.append(basis["h"])
            opened = False
            instrs.extend(group)
            continue
        halves = [layer_halves[id(layer)] for layer in group]
        zero = [0.0] * (L - 1)
        for before, after in zip([zero] + halves, halves + [zero]):
            key = tuple(map(operator.add, before, after))
            request = requests.get(key)
            if request is None:
                request = requests[key] = AnalogRequest(key)
            instrs += basis["r" if opened else "h"], request
            quarter = (quarter + opened) & 3
            opened = True
    instrs.extend(basis[gate] for gate in _UNDO[opened][quarter])
    return Circuit(L, tuple(instrs))


def _layer_half(layer: DigitalLayer, num_qubits: int) -> list[float]:
    """Slot angles of one half of an iSWAP layer: +-pi/4 on each gate's slot, 0 elsewhere."""
    if layer.sqr_count:
        raise ValueError("lower_swap_layers takes iSWAP layers, requests and blocks; "
                         "a layer holds a single-qubit gate")
    angles = [0.0] * (num_qubits - 1)
    for g in layer.gates:
        angles[g.qubits[0]] = -math.pi / 4.0 if g.type is GateType.ISWAP_DG else math.pi / 4.0
    return angles
