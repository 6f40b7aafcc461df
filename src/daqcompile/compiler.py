"""End-to-end compilation: target couplings to an executable chain schedule.

The pipeline is build -> lower -> schedule: an all-to-all target becomes the
high-level swap-network circuit, its runs of iSWAP layers are lowered to
analog requests plus rotations, and every analog request is solved into
resource blocks with sign masks.  Requests repeat (the merged iSWAP halves
are the same few all-slot +-pi/4 vectors over and over), so each distinct
angle tuple is solved once per compile and its repeats share the same
block objects; the schedule file still spells every block wherever it
runs.  The result contains only
single-qubit layers and resource blocks, and it is exact: the only blocks
dropped are float ties (scheduler.TIE_THRESHOLD).  The result carries only
what compilation measures; the paper's 5L-12 reference count is worked out
from the problem by the command line where it is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .circuits import (
    AnalogRequest,
    Circuit,
    Instruction,
    ResourceBlock,
    ata_circuit_general,
    circuit_stats,
    lower_swap_layers,
)
from .errors import UnschedulableError
from .graphs import CouplingGraph, NNChain
from .scheduler import schedule


@dataclass(frozen=True)
class CompileResult:
    """Executable schedule plus the number of analog requests it was solved from."""

    circuit: Circuit
    analog_requests: int


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


def compile_ata(target: CouplingGraph, resource: NNChain, t_f: float) -> CompileResult:
    """Compile an arbitrary coupling-graph evolution onto the resource chain."""
    if resource.num_qubits != target.num_qubits:
        raise ValueError("resource chain size does not match the target")
    high_level = ata_circuit_general(target, t_f)
    lowered = lower_swap_layers(high_level)
    # the lowered circuit's analog instructions are all requests
    requests = circuit_stats(lowered).analog_block_count
    return CompileResult(schedule_requests(lowered, resource, t_f), requests)


def compile_chain(target_angles: Sequence[float], resource: NNChain, t_f: float) -> CompileResult:
    """Compile a requested chain ZZ evolution (one analog request) directly."""
    request = AnalogRequest(tuple(float(a) for a in target_angles))
    high_level = Circuit(resource.num_qubits, (request,))
    executable = schedule_requests(high_level, resource, t_f)
    return CompileResult(executable, 1)
