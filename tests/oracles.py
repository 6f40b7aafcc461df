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

Next come the helpers that only tests need: complete graphs and edge sets,
path covers and their weighted composition, permutations applied by swap
sequences, the sign matrix with its row-elimination inverse and the minimum
analog time, the Kronecker-chain gate embedding, and the paper's general
Z-relaying swap family, of which the compiler uses only the bare iSWAP.

Element-at-a-time references for the vectorised product code close the
file: the scheduler's X-mask for one block, built bit by bit, and the
schedule file's JSON document, spelled one field at a time, which the
writer renders as text straight from the masks' bytes.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from daqcompile import (
    AnalogRequest,
    Circuit,
    CouplingGraph,
    DigitalLayer,
    Gate,
    GateType,
    PathCover,
    ResourceBlock,
    SwapSequence,
    ata_circuit_general,
    sort_network_sequence,
    walecki_cover,
)
from daqcompile.graphs import canonical_edge, validate_permutation
from daqcompile.unitaries import gate_matrix

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
        seq = concat(seq, swap_ladder(lo, 2 * k - s - 1, L))
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
        seq = concat(seq, swap_ladder(2 * k + s - 1, hi, L))
    return seq


def ladder_sequence(k: int, num_qubits: int) -> SwapSequence:
    """Closed-form swap sequence mapping the identity to zig-zag path k (even L).

    The ladder groups sort path k down to the identity; replayed in reverse
    they build the path up from the identity.
    """
    if num_qubits % 2 != 0:
        raise ValueError("closed-form synthesis requires even L")
    return concat(reversed_sequence(head_ladders(k, num_qubits)),
                  reversed_sequence(tail_ladders(k, num_qubits)))


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


# --- edge sets, path covers and weighted composition ---------------------------

def complete_graph(num_qubits: int, weight: float = 1.0) -> CouplingGraph:
    """Homogeneous all-to-all graph K_L."""
    return CouplingGraph(num_qubits, {e: weight for e in complete_edge_set(num_qubits)})


def complete_edge_set(num_qubits: int) -> set:
    return {(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)}


def path_edges(perm: Sequence[int]) -> set:
    """Edges between consecutive entries of a vertex permutation."""
    p = validate_permutation(perm, len(perm))
    return {canonical_edge(p[j], p[j + 1], len(p)) for j in range(len(p) - 1)}


def path_cover(paths: Sequence[Sequence[int]]) -> PathCover:
    """Cover of the given paths with every slot enabled."""
    paths = tuple(tuple(p) for p in paths)
    return PathCover(len(paths[0]), paths, tuple(frozenset() for _ in paths))


def num_slots(cover: PathCover) -> int:
    return len(cover.paths) * (cover.num_qubits - 1)


def enabled_edges(cover: PathCover) -> dict:
    """Map of enabled edge -> (path index, slot index)."""
    out = {}
    for p_idx, (p, disabled) in enumerate(zip(cover.paths, cover.disabled_slots)):
        for slot in range(cover.num_qubits - 1):
            if slot not in disabled:
                out[canonical_edge(p[slot], p[slot + 1], cover.num_qubits)] = (p_idx, slot)
    return out


def compose_weighted_paths(cover: PathCover, slot_weights, times) -> CouplingGraph:
    """Sum of path Hamiltonians weighted by their evolution times.

    Because all ZZ terms commute, evolving each path for its own time is the
    same as evolving the summed graph once; this is the semantic oracle for
    every composition in the pipeline.  Disabled slots must carry weight 0.
    """
    if len(slot_weights) != len(cover.paths) or len(times) != len(cover.paths):
        raise ValueError("need one weight array and one time per path")
    L = cover.num_qubits
    acc = {}
    for p, disabled, weights, t in zip(cover.paths, cover.disabled_slots, slot_weights, times):
        if len(weights) != L - 1:
            raise ValueError(f"expected {L - 1} slot weights, got {len(weights)}")
        for slot, w in enumerate(weights):
            if slot in disabled:
                if w != 0.0:
                    raise ValueError(f"disabled slot {slot} must have weight 0")
                continue
            edge = canonical_edge(p[slot], p[slot + 1], L)
            acc[edge] = acc.get(edge, 0.0) + float(t) * float(w)
    return CouplingGraph(L, acc)


def ata_circuit(num_qubits: int, t_f: float, coupling: float = 1.0) -> Circuit:
    """Homogeneous all-to-all evolution exp(i t_f g sum_{i<j} Z_i Z_j)."""
    return ata_circuit_general(complete_graph(num_qubits, coupling), t_f)


# --- permutations under swap sequences ---------------------------------------

def identity_permutation(num_qubits: int) -> tuple:
    return tuple(range(num_qubits))


def apply_sequence(perm: Sequence[int], seq: SwapSequence) -> tuple:
    """Apply each layer's swaps to the array positions of `perm`, in order."""
    arr = list(validate_permutation(perm, seq.num_qubits))
    for layer in seq.layers:
        for i in layer:
            arr[i], arr[i + 1] = arr[i + 1], arr[i]
    return tuple(arr)


def reversed_sequence(seq: SwapSequence) -> SwapSequence:
    """Layer-reversed sequence; undoes `seq` because each swap is an involution."""
    return SwapSequence(seq.num_qubits, tuple(reversed(seq.layers)))


def concat(first: SwapSequence, second: SwapSequence) -> SwapSequence:
    if first.num_qubits != second.num_qubits:
        raise ValueError("qubit counts differ")
    return SwapSequence(first.num_qubits, first.layers + second.layers)


# --- the sign matrix of the block scheduler -----------------------------------

def sign_matrix(n: int) -> np.ndarray:
    """Block sign pattern: entry (j, n) is +1 iff block n >= slot j (0-based)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    cols = np.arange(n)
    return np.where(cols[None, :] >= cols[:, None], 1, -1).astype(float)


def sign_matrix_inverse(n: int) -> np.ndarray:
    """Inverse of sign_matrix via row elimination.

    Row operations r_i = (r_i + r_1)/2 for i > 1, then r_i = r_i - r_{i+1}
    for ascending i < n-1, turn the sign matrix into the identity; applied to
    the identity they produce the inverse exactly (all entries are halves).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    a = sign_matrix(n)
    inv = np.eye(n)
    for i in range(1, n):
        a[i] = (a[i] + a[0]) / 2.0
        inv[i] = (inv[i] + inv[0]) / 2.0
    for i in range(n - 1):
        a[i] = a[i] - a[i + 1]
        inv[i] = inv[i] - inv[i + 1]
    if not np.array_equal(a, np.eye(n)):
        raise AssertionError("row elimination failed to reach the identity")
    return inv


def minimum_time(b: Sequence[float], t_f: float) -> float:
    """Least possible total analog time: max_j |b_j| * t_f."""
    b = np.asarray(b, dtype=float)
    if b.size == 0:
        return 0.0
    return float(np.max(np.abs(b)) * t_f)


# --- gates as dense matrices -----------------------------------------------------

def gate_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    """One gate on 2^L dimensions by a Kronecker chain (identity above and below).

    The reference for the tensor contraction inside circuit_unitary.
    """
    low = min(gate.qubits)
    high = num_qubits - low - len(gate.qubits)
    if high < 0:
        raise ValueError(f"gate qubits {gate.qubits} out of range for L={num_qubits}")
    return np.kron(np.kron(np.eye(1 << high), gate_matrix(gate)), np.eye(1 << low))


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < tol)


@dataclass(frozen=True)
class GeneralSwap:
    """Two-qubit gate relocating Z operators across an adjacent pair.

    Decomposition: Rz(rz_first) on the pair's lower qubit, then the entangler
    exp(i pi/4 (XX + YY + zz_coefficient * ZZ)), then Rz(rz_last) on the lower
    qubit again.  Any parameter choice conjugates Z x I into I x Z and back.
    """

    rz_first: float
    zz_coefficient: float
    rz_last: float


def general_swap(alpha: float, beta: float, gamma: float) -> GeneralSwap:
    """The paper's three-parameter family of Z-relaying gates.

    alpha = gamma = 0, beta = -1/2 collapses to the bare iSWAP (no flanking
    rotations, no ZZ term), the member the compiler uses.
    """
    for v in (alpha, beta, gamma):
        if not math.isfinite(v):
            raise ValueError("non-finite swap parameter")
    half = (gamma - alpha) / 2.0
    return GeneralSwap(
        rz_first=math.pi * (half - 0.5 - beta),
        zz_coefficient=gamma + alpha,
        rz_last=math.pi * (half + 0.5 + beta),
    )


def general_swap_unitary(gs: GeneralSwap) -> np.ndarray:
    """4x4 matrix of a general Z-relaying gate on an adjacent pair.

    The flanking Rz rotations act on the pair's lower qubit; the entangler is
    exp(i pi/4 (XX + YY + c ZZ)) with c = gs.zz_coefficient.
    """
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
    zz = np.diag(np.exp(1j * math.pi / 4.0 * gs.zz_coefficient * np.array([1.0, -1.0, -1.0, 1.0])))

    def rz_low(theta):
        half = 0.5 * theta
        return np.kron(I2, np.diag(np.exp(1j * np.array([half, -half], dtype=complex))))

    return rz_low(gs.rz_last) @ (zz @ iswap) @ rz_low(gs.rz_first)


# --- an element-at-a-time reference for the scheduler ---------------------------

def mask_from_row(row: Sequence[int], order: Sequence[int], flips: Sequence[bool], num_qubits: int) -> tuple:
    """X-gate mask realising one block's slot signs.

    `row` holds the +-1 sign per sorted slot; `order` maps sorted position to
    original slot and `flips` marks original slots whose sign is inverted in
    every block.  The row is mapped back to original slots, combined with the
    flips, and converted to a qubit coloring by prefix parity: a slot flips
    sign exactly when its two endpoints are colored differently.
    """
    m = num_qubits - 1
    if len(row) != m or len(order) != m or len(flips) != m:
        raise ValueError(f"expected {m} slot signs")
    if any(s not in (1, -1) for s in row):
        raise ValueError("slot signs must be +1 or -1")
    original = [0] * m
    for pos, sign in enumerate(row):
        original[order[pos]] = sign
    mask = [False] * num_qubits
    for j in range(m):
        effective = -original[j] if flips[j] else original[j]
        mask[j + 1] = mask[j] ^ (effective == -1)
    return tuple(mask)


def instruction_spelling(instr) -> dict:
    """One executable instruction as the daqc-schedule/1 object, field by field."""
    if isinstance(instr, ResourceBlock):
        return {"resource_block": {"duration": instr.duration, "x_mask": [bit == 1 for bit in instr.x_mask]}}
    gates = []
    for g in instr.gates:
        entry = {"q": g.qubits[0], "gate": g.type.value}
        if g.type is GateType.RZ:
            entry["angle"] = g.angle
        gates.append(entry)
    return {"sqr": gates}


def schedule_spelling(circuit: Circuit, couplings, t_f: float, stats: dict,
                      tool_version: str, input_sha256: str) -> dict:
    """The daqc-schedule/1 document of a compiled circuit, key order included."""
    return {
        "format": "daqc-schedule/1",
        "num_qubits": circuit.num_qubits,
        "resource_couplings": list(couplings),
        "time": t_f,
        "instructions": [instruction_spelling(i) for i in circuit.instructions],
        "metadata": {"tool_version": tool_version, "input_sha256": input_sha256, "stats": stats},
    }


def same_document(a, b) -> bool:
    """Equal as JSON documents, with key order, exact types and the sign of zero."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_document(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_document, a, b))
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b
