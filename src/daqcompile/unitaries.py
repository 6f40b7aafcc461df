"""Exact dense-matrix oracle for gates, analog blocks, and whole circuits.

The command line does not use it: `verify` walks a Pauli frame
(`frames`).  Only the tests, which check the frame verdicts against it, and
the benchmark's tracer call it; it is the one module that loads NumPy.

Conventions (every test depends on them):

* Qubit q is bit q of the basis index (qubit 0 = least significant bit).
* Bit value 0 maps to spin +1, bit value 1 to spin -1.
* Rz(theta) = exp(i Z theta / 2) = diag(e^{i theta/2}, e^{-i theta/2}).
* Analog evolutions are exp(+i t H); ZZ phases add as exp(i sum phi s_u s_v).

Everything is binary64.  Every gate is applied on its own, by one
BLAS-backed tensor contraction; analog instructions act as diagonal phases,
all in one pass over the circuit.
The phase-invariant distance is computed from entrywise differences, so it
stays linear in the error down to ~1e-14 (see `phase_distance`).  Nothing
here limits the qubit count, but memory and time grow as 4^L: one check of a
compiled dense target took about 0.07 s at 8 qubits and 1.6 s at 10 on a
2-vCPU Linux x86-64 VM.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ._frozen import Frozen
from .circuits import AnalogRequest, Circuit, DigitalLayer, Gate, GateType
from .graphs import CouplingGraph, Edge, NNChain

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
_GATES = {
    GateType.X: _X,
    GateType.H: _HADAMARD,
    GateType.R: _HADAMARD @ np.diag([1, 1j]) @ _HADAMARD,
    GateType.ISWAP: _ISWAP,
    GateType.ISWAP_DG: _ISWAP.conj().T,
}
for _shared in _GATES.values():  # gate_matrix hands these out as they are
    _shared.setflags(write=False)


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 or 4x4 matrix of a gate; two-qubit blocks are in (high, low) bit order."""
    if gate.type is GateType.RZ:
        half = 0.5j * gate.angle
        return np.diag(np.exp([half, -half]))
    return _GATES[gate.type]


def _apply_gate(u: np.ndarray, gate: Gate) -> np.ndarray:
    """Left-multiply the running unitary by a gate: one batched BLAS product."""
    mat = gate_matrix(gate)
    low = min(gate.qubits)
    width = 2 ** len(gate.qubits)
    rows = u.shape[0]
    lead = rows // (width << low)
    u3 = u.reshape(lead, width, -1)
    return (mat @ u3).reshape(rows, -1)


def spin_table(num_qubits: int) -> np.ndarray:
    """(2^L, L) array of spins: +1 where the qubit's bit is 0, else -1."""
    bits = (np.arange(1 << num_qubits)[:, None] >> np.arange(num_qubits)) & 1
    return 1 - 2 * bits


def zz_evolution(angles: Mapping[Edge, float], num_qubits: int) -> np.ndarray:
    """Diagonal unitary exp(i sum_{(u,v)} phi_uv Z_u Z_v) over any edge set."""
    s = spin_table(num_qubits)
    phases = np.zeros(1 << num_qubits)
    for (u, v), phi in angles.items():
        if u == v or not (0 <= u < num_qubits and 0 <= v < num_qubits):
            raise ValueError(f"bad edge ({u}, {v})")
        phases += phi * (s[:, u] * s[:, v])
    return np.diag(np.exp(1j * phases))


def exact_target(target: CouplingGraph, t_f: float) -> np.ndarray:
    """Ideal evolution exp(i t_f sum g'_ij Z_i Z_j) of a coupling graph."""
    if not math.isfinite(t_f):
        raise ValueError("non-finite evolution time")
    return zz_evolution({edge: w * t_f for edge, w in target.weights.items()}, target.num_qubits)


def circuit_unitary(circuit: Circuit, resource: NNChain | None = None) -> np.ndarray:
    """Ordered product of instruction unitaries (instruction 0 acts first).

    Analog requests evaluate as ideal chain ZZ evolutions.  A resource block
    is the chain's evolution D between two layers of X on the qubits of its
    mask m, and X_m D(b) X_m = D(b xor m): its phase at basis index b is the
    resource phase at b with m's bits flipped.  Blocks need the chain they
    run on.
    """
    L = circuit.num_qubits
    if resource is not None and resource.num_qubits != L:
        raise ValueError("resource chain size does not match the circuit")
    s = spin_table(L)
    chain = np.multiply(s[:, :-1], s[:, 1:], dtype=float)
    index = np.arange(1 << L)
    resource_phase = None if resource is None else chain @ resource.couplings
    u = np.eye(1 << L, dtype=complex)
    for instr in circuit.instructions:
        if isinstance(instr, DigitalLayer):
            for g in instr.gates:
                u = _apply_gate(u, g)
        elif isinstance(instr, AnalogRequest):
            u *= np.exp(1j * (chain @ instr.slot_angles))[:, None]
        elif resource_phase is None:
            raise ValueError("circuit contains resource blocks: pass the chain")
        else:
            flip = sum(1 << q for q, bit in enumerate(instr.x_mask) if bit)
            u *= np.exp(1j * instr.duration * resource_phase[index ^ flip])[:, None]
    return u


class DistanceReport(Frozen):
    """Global-phase-invariant distance between unitaries."""

    def __init__(self, distance: float):
        super().__init__(distance)


def phase_distance(u: np.ndarray, v: np.ndarray) -> DistanceReport:
    """||U - e^{-i theta} V||_F / sqrt(2 dim) with theta = arg tr(U^dag V).

    For unitaries this is sqrt(1 - |tr(U^dag V)| / dim), zero iff
    U = e^{i phi} V and 1 for orthogonal ones (no alignment when the trace is
    0).  Taking it from entrywise differences instead of from the trace keeps
    it linear in the error down to ~1e-14: the trace form loses everything
    below the square root of the rounding error, ~1e-8 in binary64.
    """
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    overlap = np.vdot(u, v)
    if overlap:
        v = v * (overlap.conjugate() / abs(overlap))
    return DistanceReport(float(np.linalg.norm(u - v) / math.sqrt(2 * u.shape[0])))
