"""Every constructor or entry point refuses bad input with its own message.

One case per refusal that no other test reaches in process; each case
matches the whole message, so a reworded or swallowed refusal fails here.
"""

import json
import math
import re

import pytest

from daqcompile.circuits import AnalogRequest, Circuit, DigitalLayer, Gate, GateType, ata_circuit_general
from daqcompile.compiler import compile_ata, schedule_requests
from daqcompile.errors import FileFormatError
from daqcompile.fileio import load_schedule, schedule_document
from daqcompile.frames import check_schedule
from daqcompile.graphs import CouplingGraph, NNChain
from daqcompile.swaps import SwapSequence
from daqcompile.unitaries import exact_target, zz_evolution

CHAIN2 = NNChain(2, (1.0,))


def _write(circuit):
    return schedule_document(circuit, CHAIN2, 0.7, {}, tool_version="0", input_sha256="0" * 64)


def _load_with_format(fmt):
    with open("schedule.json", "w", encoding="utf-8") as fh:
        json.dump({"format": fmt, "num_qubits": 2, "resource_couplings": [1.0], "time": 0.7,
                   "instructions": [], "metadata": {}}, fh)
    return load_schedule("schedule.json")


REFUSALS = {
    "gate-angle": (lambda: Gate(GateType.RZ, (0,), math.nan), ValueError, "non-finite gate angle"),
    "request-angle": (lambda: AnalogRequest((math.inf,)), ValueError, "non-finite slot angle"),
    "circuit-size": (lambda: Circuit(1, ()), ValueError, "a circuit needs at least 2 qubits"),
    "circuit-qubit": (lambda: Circuit(2, (DigitalLayer((Gate(GateType.X, (2,)),)),)), ValueError,
                      "gate on qubit 2 exceeds L=2"),
    "circuit-instruction": (lambda: Circuit(2, ("x",)), TypeError, "unknown instruction 'x'"),
    "swap-network-time": (
        lambda: ata_circuit_general(CouplingGraph(2, {}), math.nan), ValueError, "non-finite evolution time"),
    "dense-target-time": (
        lambda: exact_target(CouplingGraph(2, {}), math.inf), ValueError, "non-finite evolution time"),
    "graph-size": (lambda: CouplingGraph(1, {}), ValueError, "a coupling graph needs at least 2 qubits"),
    "graph-weight": (
        lambda: CouplingGraph(2, {(0, 1): math.nan}), ValueError, "non-finite weight on edge (0, 1)"),
    "graph-conflict": (
        lambda: CouplingGraph(2, {(0, 1): 1.0, (1, 0): 2.0}), ValueError, "conflicting weights for edge (0, 1)"),
    "chain-size": (lambda: NNChain(1, ()), ValueError, "a chain needs at least 2 qubits"),
    "swap-start": (lambda: SwapSequence(3, ((2,),)), ValueError, "swap start 2 out of range for 3 qubits"),
    "write-iswap": (
        lambda: _write(Circuit(2, (DigitalLayer((Gate.iswap(0),)),))),
        ValueError, "cannot serialise iSWAP layers; lower the circuit first"),
    "write-request": (
        lambda: _write(Circuit(2, (AnalogRequest((0.5,)),))),
        ValueError, "cannot serialise AnalogRequest(slot_angles=(0.5,)); schedule analog requests first"),
    "schedule-format": (
        lambda: _load_with_format("daqc-schedule/0"), FileFormatError,
        "schedule.json: unsupported schedule format 'daqc-schedule/0'"),
    "schedule-requests-size": (
        lambda: schedule_requests(Circuit(3, ()), CHAIN2, 0.7),
        ValueError, "resource chain size does not match the circuit"),
    "compile-size": (
        lambda: compile_ata(CouplingGraph(3, {}), CHAIN2, 0.7),
        ValueError, "resource chain size does not match the target"),
    "verify-size": (
        lambda: check_schedule(Circuit(3, ()), CHAIN2, {}),
        ValueError, "resource chain size does not match the circuit"),
    "dense-edge": (lambda: zz_evolution({(1, 1): 0.5}, 2), ValueError, "bad edge (1, 1)"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_its_fault(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
