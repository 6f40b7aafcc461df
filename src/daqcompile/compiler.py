"""End-to-end compilation: target couplings to an executable chain schedule.

The pipeline is build -> lower -> schedule: an all-to-all target becomes the
high-level path circuit, its iSWAP layers are lowered to analog requests plus
rotations, and every analog request is solved into resource blocks with sign
masks.  The result contains only single-qubit layers and resource blocks,
and it is exact: the only blocks dropped are float ties
(scheduler.TIE_THRESHOLD).  The result carries only what compilation
measures; the paper's 5L-12 reference count is worked out from the problem
by the command line where it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .circuits import (
    AnalogRequest,
    Circuit,
    Instruction,
    ata_circuit_general,
    lower_swap_layers,
)
from .graphs import CouplingGraph, NNChain
from .scheduler import schedule


@dataclass(frozen=True)
class CompileResult:
    """Executable schedule plus the number of analog requests it was solved from."""

    circuit: Circuit
    analog_requests: int


def schedule_requests(circuit: Circuit, resource: NNChain, t_f: float) -> Circuit:
    """Replace every analog request by its solved resource blocks."""
    if resource.num_qubits != circuit.num_qubits:
        raise ValueError("resource chain size does not match the circuit")
    instrs: list[Instruction] = []
    for instr in circuit.instructions:
        if isinstance(instr, AnalogRequest):
            instrs.extend(schedule(instr.slot_angles, resource, t_f))
        else:
            instrs.append(instr)
    return Circuit(circuit.num_qubits, tuple(instrs))


def compile_ata(target: CouplingGraph, resource: NNChain, t_f: float) -> CompileResult:
    """Compile an arbitrary coupling-graph evolution onto the resource chain."""
    if resource.num_qubits != target.num_qubits:
        raise ValueError("resource chain size does not match the target")
    high_level = ata_circuit_general(target, t_f)
    lowered = lower_swap_layers(high_level)
    requests = sum(
        1 for i in lowered.instructions if isinstance(i, AnalogRequest)
    )
    return CompileResult(schedule_requests(lowered, resource, t_f), requests)


def compile_chain(target_angles: Sequence[float], resource: NNChain, t_f: float) -> CompileResult:
    """Compile a requested chain ZZ evolution (one analog request) directly."""
    request = AnalogRequest(tuple(float(a) for a in target_angles))
    high_level = Circuit(resource.num_qubits, (request,))
    executable = schedule_requests(high_level, resource, t_f)
    return CompileResult(executable, 1)
