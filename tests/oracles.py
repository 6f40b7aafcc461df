"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own embedding and evolution code:
gates embed via explicit Kronecker chains, evolutions go through
scipy.linalg.expm, and the zig-zag paths come from the literal walk
construction instead of the closed form.

The even-L closed forms of the source paper also live here: the swap
ladders that synthesise each zig-zag path, the two mixed bridge layers
left between consecutive paths after inverse gates cancel, the bridged
circuit built from them, and the uncancelled per-path circuit.  The
compiler derives all of these generically; tests compare against them.

Two element-at-a-time references for the vectorised product code close the
file: the scheduler's X-mask for one block, built bit by bit, and the
canonical JSON emitter that appends one chunk per scalar.
"""

import json
from typing import Any, Sequence

import numpy as np
from scipy.linalg import expm

from daqcompile import (
    AnalogRequest,
    Circuit,
    DigitalLayer,
    Gate,
    SwapSequence,
    sort_network_sequence,
    walecki_cover,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_embed(mat: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Single-qubit operator on `qubit` (qubit 0 = least significant bit)."""
    out = np.eye(1, dtype=complex)
    for q in reversed(range(num_qubits)):
        out = np.kron(out, mat if q == qubit else I2)
    return out


def pauli_z(qubit: int, num_qubits: int) -> np.ndarray:
    return kron_embed(Z, qubit, num_qubits)


def two_site(mat_high: np.ndarray, mat_low: np.ndarray, low: int, num_qubits: int) -> np.ndarray:
    return kron_embed(mat_high, low + 1, num_qubits) @ kron_embed(mat_low, low, num_qubits)


def zz_hamiltonian(angles: dict, num_qubits: int) -> np.ndarray:
    """Dense sum of phi_uv Z_u Z_v over an arbitrary edge set."""
    dim = 1 << num_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for (u, v), phi in angles.items():
        h += phi * pauli_z(u, num_qubits) @ pauli_z(v, num_qubits)
    return h


def evolution(h: np.ndarray) -> np.ndarray:
    return expm(1j * h)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Ginibre matrix."""
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))


def zigzag_walk(k: int, num_qubits: int) -> tuple:
    """Literal walk construction: forward 1, back 2, forward 3, ... rotated by k-1."""
    pos = 0
    walk = [0]
    for step in range(1, num_qubits):
        pos = pos + step if step % 2 == 1 else pos - step
        walk.append(pos % num_qubits)
    return tuple((v + k - 1) % num_qubits for v in walk)


# --- even-L closed forms -------------------------------------------------------

def swap_ladder(lo: int, hi: int, num_qubits: int) -> SwapSequence:
    """One parallel layer of swaps (lo,lo+1), (lo+2,lo+3), ... ending by `hi`.

    Empty (identity) when lo >= hi.  Indices are 0-based qubit positions.
    """
    if not (0 <= lo <= num_qubits - 1 and 0 <= hi <= num_qubits - 1):
        raise ValueError(f"ladder bounds ({lo}, {hi}) out of range for {num_qubits} qubits")
    starts = tuple(range(lo, hi, 2))
    if not starts:
        return SwapSequence(num_qubits, ())
    return SwapSequence(num_qubits, (starts,))


def head_ladders(k: int, num_qubits: int) -> SwapSequence:
    """Ladder layers acting on the low positions 0..2k-2 for path label k.

    Layer s (1-based, application order) is the ladder from position 1 (s odd)
    or 0 (s even) up to position 2k-s-1; k=1 yields the empty sequence.
    """
    L = num_qubits
    if not 1 <= k <= L // 2:
        raise ValueError(f"path label {k} out of range 1..{L // 2}")
    seq = SwapSequence(L, ())
    for s in range(1, 2 * k - 1):
        lo = 1 if s % 2 == 1 else 0
        seq = seq + swap_ladder(lo, 2 * k - s - 1, L)
    return seq


def tail_ladders(k: int, num_qubits: int) -> SwapSequence:
    """Ladder layers acting on the high positions 2k..L-1 for path label k.

    Layer s starts at position 2k+s-1 and ends at L-1 (s odd) or L-2 (s even);
    empty when 2k+1 > L.  Head and tail ladders touch disjoint position
    ranges, so they commute.
    """
    L = num_qubits
    if not 1 <= k <= L // 2:
        raise ValueError(f"path label {k} out of range 1..{L // 2}")
    seq = SwapSequence(L, ())
    for s in range(1, L - 2 * k):
        hi = L - 1 if s % 2 == 1 else L - 2
        seq = seq + swap_ladder(2 * k + s - 1, hi, L)
    return seq


def ladder_sequence(k: int, num_qubits: int) -> SwapSequence:
    """Closed-form swap sequence mapping the identity to zig-zag path k (even L).

    The ladder groups sort path k down to the identity; replayed in reverse
    they build the path up from the identity.
    """
    if num_qubits % 2 != 0:
        raise ValueError("closed-form synthesis requires even L")
    return head_ladders(k, num_qubits).reversed_() + tail_ladders(k, num_qubits).reversed_()


def _iswap_layers(seq: SwapSequence, dagger: bool) -> list:
    """Plain layers in sequence order, or daggered layers in reverse order."""
    mk = Gate.iswap_dg if dagger else Gate.iswap
    layers = reversed(seq.layers) if dagger else seq.layers
    return [DigitalLayer(tuple(mk(i) for i in layer)) for layer in layers]


def _mixed_layer(plain, dagger) -> DigitalLayer:
    gates = [(i, Gate.iswap(i)) for i in plain] + [(i, Gate.iswap_dg(i)) for i in dagger]
    return DigitalLayer(tuple(g for _, g in sorted(gates)))


def bridge_layers(k: int, num_qubits: int) -> list:
    """iSWAP layers between consecutive analog requests of the even-L circuit.

    Bridge 0 opens path 1, bridge L/2 closes path L/2, and bridge k in
    between both closes path k and opens path k+1.  After cancelling
    adjacent inverse gates the middle bridges shrink to exactly two mixed
    layers: plain gates on pair starts below 2k (0-based) and daggered gates
    from 2k upward, odd-position pairs first, then even-position pairs.
    """
    L = num_qubits
    if L < 2 or L % 2 != 0:
        raise ValueError(f"even qubit count >= 2 required, got {L}")
    if not 0 <= k <= L // 2:
        raise ValueError(f"bridge index {k} out of range 0..{L // 2}")
    if k == 0:
        return _iswap_layers(ladder_sequence(1, L), dagger=False)
    if k == L // 2:
        return _iswap_layers(ladder_sequence(L // 2, L), dagger=True)
    first = _mixed_layer(range(0, 2 * k - 1, 2), range(2 * k, L - 1, 2))
    second = _mixed_layer(range(1, 2 * k, 2), range(2 * k + 1, L - 2, 2))
    return [first, second]


def _path_requests(target, t_f: float) -> list:
    """Slot j of path P carries t_f * g'(P[j], P[j+1]); disabled slots carry 0."""
    cover = walecki_cover(target.num_qubits)
    return [
        AnalogRequest(tuple(
            0.0 if slot in disabled else t_f * target.weight(p[slot], p[slot + 1])
            for slot in range(cover.num_qubits - 1)
        ))
        for p, disabled in zip(cover.paths, cover.disabled_slots)
    ]


def bridges(circuit: Circuit) -> list:
    """The digital layers before, between and after a circuit's analog requests."""
    out = [[]]
    for instr in circuit.instructions:
        if isinstance(instr, AnalogRequest):
            out.append([])
        else:
            out[-1].append(instr)
    return out


def bridged_circuit(target, t_f: float) -> Circuit:
    """The even-L circuit in closed form: path requests joined by bridges."""
    L = target.num_qubits
    instrs = list(bridge_layers(0, L))
    for k, request in enumerate(_path_requests(target, t_f), start=1):
        instrs.append(request)
        instrs.extend(bridge_layers(k, L))
    return Circuit(L, tuple(instrs))


def ata_circuit_per_path(target, t_f: float) -> Circuit:
    """Every path opens and closes its own swap frame; nothing cancels.

    Even-L frames come from the closed-form ladders, odd-L frames from the
    sorting network.
    """
    L = target.num_qubits
    cover = walecki_cover(L)
    instrs = []
    for k, (path, request) in enumerate(zip(cover.paths, _path_requests(target, t_f)), start=1):
        seq = ladder_sequence(k, L) if L % 2 == 0 else sort_network_sequence(path)
        instrs.extend(_iswap_layers(seq, dagger=False))
        instrs.append(request)
        instrs.extend(_iswap_layers(seq, dagger=True))
    return Circuit(L, tuple(instrs))


# --- element-at-a-time references for the scheduler and the emitter -----------

def mask_from_row(row: Sequence[int], record, num_qubits: int) -> tuple:
    """X-gate mask realising one block's slot signs.

    `row` holds the +-1 sign per sorted slot; it is mapped back to original
    slots, combined with the record's permanent flips, and converted to a
    qubit coloring by prefix parity: a slot flips sign exactly when its two
    endpoints are colored differently.
    """
    m = num_qubits - 1
    if len(row) != m or len(record.slot_order) != m:
        raise ValueError(f"expected {m} slot signs")
    if any(s not in (1, -1) for s in row):
        raise ValueError("slot signs must be +1 or -1")
    original = [0] * m
    for pos, sign in enumerate(row):
        original[record.slot_order[pos]] = sign
    mask = [False] * num_qubits
    for j in range(m):
        effective = -original[j] if record.sign_flips[j] else original[j]
        mask[j + 1] = mask[j] ^ (effective == -1)
    return tuple(mask)


def _emit(value: Any, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(k)}: ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(value):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, float):
        out.append(format(value, ".17g"))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialise {value!r}")


def emit_reference(obj: Any) -> str:
    """Canonical schedule-file text of `obj`, one appended chunk per scalar."""
    out: list = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)
