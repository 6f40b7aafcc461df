"""End-to-end compilation: target couplings to an executable chain schedule.

The pipeline is build -> lower -> schedule, one route for every target
(compile_target): its map of edges to phases becomes the high-level
swap-network circuit, which stops at the last request that holds a nonzero
pair, so a chain target is request 0 alone and an empty one has no layers.
Its runs of iSWAP layers are lowered to analog requests plus rotations, and
every analog request is solved into resource blocks with sign masks.
Requests repeat (the merged iSWAP halves are the same few all-slot +-pi/4
vectors over and over), so each distinct angle tuple is solved once per
compile and its repeats share the same block objects; the schedule file
still spells every block wherever it runs.  The result contains only
single-qubit layers and resource blocks, and it is exact: the only blocks
dropped are float ties (scheduler.TIE_THRESHOLD).  The result carries only
what compilation measures; the paper's 5L-12 reference count is worked out
from the problem by the command line where it is reported.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ._frozen import Frozen
from .circuits import (
    AnalogRequest,
    Circuit,
    Instruction,
    ResourceBlock,
    circuit_stats,
    lower_swap_layers,
    swap_network,
)
from .errors import UnschedulableError
from .graphs import CouplingGraph, Edge, NNChain
from .scheduler import schedule


class CompileResult(Frozen):
    """Executable schedule plus the number of analog requests it was solved from."""

    def __init__(self, circuit: Circuit, analog_requests: int):
        super().__init__(circuit, analog_requests)


def schedule_requests(circuit: Circuit, resource: NNChain, t_f: float) -> Circuit:
    """Replace every analog request by its solved resource blocks.

    Each distinct angle tuple is solved once per call and every request
    that repeats it gets the same block objects.  The key is the tuple's
    value, so 0.0 and -0.0 angles meet in it; schedule treats them alike.
    The blocks' durations must also sum, occurrence by occurrence in
    program order, to the finite total that Circuit requires; the request
    whose blocks overflow it, repeated or not, raises UnschedulableError
    for its slot of largest ratio, which needs the request's longest
    evolution.
    """
    if resource.num_qubits != circuit.num_qubits:
        raise ValueError("resource chain size does not match the circuit")
    solved: dict[tuple[float, ...], tuple[ResourceBlock, ...]] = {}
    instrs: list[Instruction] = []
    total = 0.0
    for instr in circuit.instructions:
        if isinstance(instr, AnalogRequest):
            blocks = solved.get(instr.slot_angles)
            if blocks is None:
                blocks = solved[instr.slot_angles] = schedule(instr.slot_angles, resource, t_f)
            for block in blocks:
                total += block.duration
            if not math.isfinite(total):
                phi, g = instr.slot_angles, resource.couplings
                j = max(range(len(phi)), key=lambda k: abs(phi[k] / (g[k] * t_f)) if phi[k] else 0.0)
                raise UnschedulableError(j, phi[j], "the total analog time overflows the float range")
            instrs.extend(blocks)
        else:
            instrs.append(instr)
    return Circuit(circuit.num_qubits, tuple(instrs))


def compile_target(num_qubits: int, phases: Mapping[Edge, float], resource: NNChain, t_f: float) -> CompileResult:
    """Compile exp(i sum_e phases[e] Z_i Z_j) on num_qubits qubits onto the resource chain.

    Every target takes this one route: the swap network over `phases`,
    which stops at its last request that holds a nonzero pair, lowered and
    scheduled.
    """
    if resource.num_qubits != num_qubits:
        raise ValueError("resource chain size does not match the target")
    lowered = lower_swap_layers(swap_network(num_qubits, phases))
    # the lowered circuit's analog instructions are all requests
    return CompileResult(schedule_requests(lowered, resource, t_f), circuit_stats(lowered).analog_block_count)


def compile_ata(target: CouplingGraph, resource: NNChain, t_f: float) -> CompileResult:
    """compile_target for a coupling graph evolved for t_f, for callers that hold a CouplingGraph.

    Each edge's phase is t_f * g'.
    """
    return compile_target(target.num_qubits, {e: t_f * w for e, w in target.weights.items()}, resource, t_f)


def compile_chain(target_angles: Sequence[float], resource: NNChain, t_f: float) -> CompileResult:
    """compile_target for a chain evolution given as slot angles: slot j's angle is the phase of edge (j, j + 1).

    An angle list that is not one angle per resource slot is a size mismatch.
    """
    phases = {(j, j + 1): phi for j, phi in enumerate(target_angles)}
    return compile_target(len(target_angles) + 1, phases, resource, t_f)
