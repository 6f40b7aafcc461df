"""Exact dense-matrix oracle for gates, analog blocks, and whole circuits.

The command line no longer uses it: `verify` walks a Pauli frame
(`frames`).  Only the tests, which check the frame verdicts against it, and
the benchmark's tracer call it; it is the one module that loads NumPy.

Conventions (every test depends on them):

* Qubit q is bit q of the basis index (qubit 0 = least significant bit).
* Bit value 0 maps to spin +1, bit value 1 to spin -1.
* Rz(theta) = exp(i Z theta / 2) = diag(e^{i theta/2}, e^{-i theta/2}).
* Analog evolutions are exp(+i t H); ZZ phases add as exp(i sum phi s_u s_v).

Everything is binary64.  Gates are applied by BLAS-backed tensor contraction:
a layer of X gates only by one row permutation, any other layer of
single-qubit gates up to four adjacent qubits at a time (one Kronecker-product
matrix per run of qubits), iSWAP layers gate by gate; analog instructions
act as diagonal phases, all in one pass over the circuit.
The phase-invariant distance is computed from entrywise differences, so it
stays linear in the error down to ~1e-14 (see `phase_distance`).  Nothing
here limits the qubit count, but memory and time grow as 4^L: one check
took about 0.3 s at 8 qubits and 1.7 s at 10 on a 2-vCPU Linux x86-64 VM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

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


# Widest run of adjacent qubits whose single-qubit gates are applied as one
# Kronecker-product matrix: 16 x 16 keeps the product cheap while cutting the
# passes over the matrix about fourfold.
_CHUNK = 4
_IDENTITY = np.eye(2)


def _apply_single_qubit_layer(u: np.ndarray, gates: tuple[Gate, ...]) -> np.ndarray:
    """Left-multiply by a layer of single-qubit gates, up to _CHUNK adjacent qubits per product.

    A chunk runs from its lowest gate's qubit over the following _CHUNK - 1
    qubits and ends at the last gate among them; its matrix is the Kronecker
    product of its gates, highest qubit first, with the identity on the
    qubits between them that have no gate.
    """
    by_qubit = {g.qubits[0]: g for g in gates}
    touched = sorted(by_qubit)
    rows = u.shape[0]
    start = 0
    while start < len(touched):
        low = touched[start]
        end = start + 1
        while end < len(touched) and touched[end] < low + _CHUNK:
            end += 1
        high = touched[end - 1]
        mat = np.ones((1, 1))
        for q in range(high, low - 1, -1):
            g = by_qubit.get(q)
            mat = np.kron(mat, _IDENTITY if g is None else gate_matrix(g))
        u3 = u.reshape(rows >> (high + 1), 1 << (high + 1 - low), -1)
        u = (mat @ u3).reshape(rows, -1)
        start = end
    return u


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
    run on.  A layer of X gates only, on the qubits of m, is that same X_m:
    row b of X_m U is row b xor m of U.
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
            if all(g.type is GateType.X for g in instr.gates):
                u = u[index ^ sum(1 << g.qubits[0] for g in instr.gates)]
            elif instr.has_iswaps:
                for g in instr.gates:
                    u = _apply_gate(u, g)
            else:
                u = _apply_single_qubit_layer(u, instr.gates)
        elif isinstance(instr, AnalogRequest):
            u *= np.exp(1j * (chain @ instr.slot_angles))[:, None]
        elif resource_phase is None:
            raise ValueError("circuit contains resource blocks: pass the chain")
        else:
            flip = sum(1 << q for q, bit in enumerate(instr.x_mask) if bit)
            u *= np.exp(1j * instr.duration * resource_phase[index ^ flip])[:, None]
    return u


@dataclass(frozen=True)
class DistanceReport:
    """Global-phase-invariant distance between unitaries."""

    distance: float


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
