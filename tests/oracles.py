"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own embedding and evolution code:
gates embed via explicit Kronecker chains, evolutions go through
scipy.linalg.expm, and the zig-zag paths come from the literal walk
construction instead of the closed form.

The paper's path route lives here too, which the compiler does not take
(it runs a linear swap network).  First its even-L closed forms: the
swap ladders that synthesise each zig-zag path, the two mixed bridge
layers left between consecutive paths after inverse gates cancel, the
bridged circuit built from them, and the uncancelled per-path circuit.
Beside them sits the generic construction for every L: sorting-network
frames whose seams go through an inverse-gate cancellation pass and ASAP
re-layering.  `path_route_circuit` writes the bridges directly; tests
compare it against all of these.  An exhaustive
search over layered swap networks bounds the layer count of the
compiler's route from below at small L, and the route's generic rule,
which places each request by tracking the pairs that have met, checks
the closed rule the compiler uses.

The per-layer iSWAP lowering, two requests per layer, each in its own
basis sandwich, is the reference for the compiler's lowering, which merges
the same-kind halves of consecutive layers and carries one Clifford frame
from request to request; `single_qubit_frames` composes a circuit's x/h/r
gates qubit by qubit, so a test can see that frame close, and
`shortest_clifford_word` searches the 24 single-qubit Cliffords
breadth-first for the words the lowering's undo table spells out.

Next come the helpers that only tests need: complete graphs and edge sets,
path covers and their weighted composition, permutations applied by swap
sequences, the sign matrix with its row-elimination inverse and the minimum
analog time, the Kronecker-chain gate embedding, and the paper's general
Z-relaying swap family, of which the compiler uses only the bare iSWAP,
and the value semantics every immutable class of the package keeps.

Element-at-a-time references for the vectorised product code close the
file: the scheduler's X-mask for one block, built bit by bit, the slot
signs a mask's X conjugation gives the chain, a block run's slot angles
summed in Fractions, which the verifier's integer sums must match bit for
bit, the schedule file's JSON document, spelled one field at a time, which
the writer renders as text straight from the masks' bytes, json.loads over
a whole input file, which the product's one reader must match on problems
and schedules alike, and the schedule reader that builds every instruction
entry from it on its own, which the product's line-shared reader must match.
"""

import copy
import json
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from scipy.linalg import expm

from daqcompile.circuits import (
    AnalogRequest,
    Circuit,
    DigitalLayer,
    Gate,
    GateType,
    ResourceBlock,
    ata_circuit_general,
)
from daqcompile.errors import FileFormatError
from daqcompile.fileio import (
    SCHEDULE_FORMAT,
    _chain_header,
    _check_metadata,
    _instruction,
    _require_keys,
    _unique_keys,
)
from daqcompile.frames import CONJUGATION, pauli_image
from daqcompile.graphs import CouplingGraph, NNChain, PathCover, canonical_edge, validate_permutation, walecki_cover
from daqcompile.swaps import SwapSequence, sort_network_sequence
from daqcompile.unitaries import gate_matrix

# The dense oracle's own rounding: correct schedules read up to ~3e-14 at
# L <= 8 there, while the frame bound B reads ~1e-14.
DENSE_NOISE = 1e-13

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


def _cancel_inverses(gates: list, num_qubits: int) -> list:
    """Drop every iSWAP that meets its own inverse with no gate in between.

    Gates are (left qubit, dagger) pairs in program order.  last[q] indexes
    the latest kept gate on qubit q.  A gate cancels when both its qubits
    point at one kept gate with the opposite dagger flag; that gate is
    removed and both qubits fall back to the pointers saved when it was kept.
    """
    kept = []
    saved = []
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


def _asap_layers(gates: list, num_qubits: int) -> list:
    """Pack gates into the earliest layer after their qubits' previous gates.

    Program order is kept and each layer lists its gates by left qubit.
    """
    layers = []
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


def ata_circuit_cancelled(target, t_f: float) -> Circuit:
    """Every path in its sorting-network frame, with the frames' seams cancelled.

    Between two requests the closing frame of one path meets the opening
    frame of the next; every gate that meets its own inverse there is
    dropped and the rest is packed into ASAP layers.  This is the
    construction the compiler's direct bridge rule must reproduce, for even
    and odd L alike.
    """
    L = target.num_qubits
    cover = walecki_cover(L)
    instrs = []
    between = []
    for path, request in zip(cover.paths, _path_requests(target, t_f)):
        layers = sort_network_sequence(path).layers
        between.extend((i, False) for layer in layers for i in layer)
        instrs.extend(_asap_layers(_cancel_inverses(between, L), L))
        instrs.append(request)
        between = [(i, True) for layer in reversed(layers) for i in layer]
    instrs.extend(_asap_layers(_cancel_inverses(between, L), L))
    return Circuit(L, tuple(instrs))


def path_route_circuit(target, t_f: float) -> Circuit:
    """The paper's path route: zig-zag path requests joined by the two-layer bridge rule.

    Path P of the zig-zag cover becomes an analog request whose slot j
    carries t_f * g'(P[j], P[j+1]), conjugated by P's sorting-network swap
    frame (plain iSWAP layers before, the same layers reversed as
    iSWAP-daggers after).  Between paths p and p+1 (p = 1, 2, ...) only two
    bridge layers are emitted, on slots 0, 2, 4, ... and then 1, 3, 5, ...,
    with an iSWAP on slot i < 2p and an iSWAP-dagger elsewhere: for every L
    that is exactly what is left of path p's closing frame and path p+1's
    opening frame once each gate that meets its own inverse is cancelled and
    the rest is packed into ASAP layers (ata_circuit_cancelled).
    """
    if not math.isfinite(t_f):
        raise ValueError("non-finite evolution time")
    L = target.num_qubits
    cover = walecki_cover(L)
    instrs = [
        DigitalLayer(tuple(map(Gate.iswap, layer)))
        for layer in sort_network_sequence(cover.paths[0]).layers
    ]
    for p, (path, disabled) in enumerate(zip(cover.paths, cover.disabled_slots)):
        if p:  # the bridge from path p to path p + 1, counting paths from 1
            for start in (0, 1):
                instrs.append(DigitalLayer(tuple(
                    Gate.iswap(i) if i < 2 * p else Gate.iswap_dg(i) for i in range(start, L - 1, 2)
                )))
        instrs.append(AnalogRequest(tuple(
            0.0 if slot in disabled else t_f * target.weight(path[slot], path[slot + 1])
            for slot in range(L - 1)
        )))
    instrs.extend(
        DigitalLayer(tuple(map(Gate.iswap_dg, layer)))
        for layer in reversed(sort_network_sequence(cover.paths[-1]).layers)
    )
    return Circuit(L, tuple(instrs))


def _matchings(num_slots: int) -> list:
    """Every non-empty set of pairwise disjoint chain slots, as sorted tuples."""
    out = [()]
    for j in range(num_slots):
        out += [m + (j,) for m in out if not m or m[-1] < j - 1]
    return out[1:]


def shortest_swap_network(num_qubits: int, limit: int) -> int | None:
    """Fewest layers of any layered swap network that makes every pair adjacent and ends where it began.

    A layer is any non-empty set of disjoint adjacent swaps; a pair counts
    as adjacent at the start, between two layers or at the end.  Breadth-first
    over (arrangement, pairs met so far), keeping only states that can
    still finish within `limit` layers: an arrangement needs at least its
    largest displacement in layers to return, and a pair d positions apart
    needs at least ceil((d - 1) / 2) layers to meet and then
    ceil((h - 1) / 2) more to reach their homes h positions apart.  None if no network
    of at most `limit` layers exists.
    """
    L = num_qubits
    bit = {}
    for a in range(L):
        for b in range(a + 1, L):
            bit[a, b] = bit[b, a] = 1 << len(bit) // 2
    full = (1 << L * (L - 1) // 2) - 1
    layers = _matchings(L - 1)

    def met(order):
        return sum(bit[order[j], order[j + 1]] for j in range(L - 1))

    def remaining(order, seen):
        pos = {q: j for j, q in enumerate(order)}
        need = max(abs(pos[q] - q) for q in range(L))
        for (a, b), m in bit.items():
            if a < b and not seen & m:
                # ceil((d - 1) / 2) is d // 2 for a distance d >= 1
                need = max(need, abs(pos[a] - pos[b]) // 2 + (b - a) // 2)
        return need

    start = tuple(range(L))
    frontier = {(start, met(start))}
    for depth in range(limit + 1):
        if (start, full) in frontier:
            return depth
        nxt = set()
        for order, seen in frontier:
            for layer in layers:
                arr = list(order)
                for j in layer:
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                arr = tuple(arr)
                state = (arr, seen | met(arr))
                if state not in nxt and depth + 1 + remaining(*state) <= limit:
                    nxt.add(state)
        frontier = nxt
    return None


# --- the swap network's generic rule ------------------------------------------

def ata_circuit_pending_pairs(target: CouplingGraph, t_f: float) -> Circuit:
    """The compiler's swap-network route, placing its requests by tracking which pairs have met.

    Before layer k, the still-unassigned pairs adjacent at that point share
    one analog request, slot j carrying t_f * g' of the pair it holds and 0
    elsewhere.  A swapped pair stays adjacent for one more layer while every
    other pair separates, so the request is emitted only when some of those
    pairs would separate, or when they finish the cover; then the network
    stops and is undone in reverse order with iSWAP-daggers.
    `ata_circuit_general` places the same requests by a closed rule.
    """
    if not math.isfinite(t_f):
        raise ValueError("non-finite evolution time")
    L = target.num_qubits
    parities = range(min(2, L - 1))
    forward = [DigitalLayer(tuple(map(Gate.iswap, range(p, L - 1, 2)))) for p in parities]
    undo = [DigitalLayer(tuple(map(Gate.iswap_dg, range(p, L - 1, 2)))) for p in parities]
    order = list(range(L))         # order[j]: the logical qubit at position j
    done = bytearray(L * L)        # done[a * L + b]: pair (a, b) is in a request
    left = L * (L - 1) // 2
    instrs = []
    k = 0
    while True:
        pending = [j for j in range(L - 1) if not done[order[j] * L + order[j + 1]]]
        # A pending pair off layer k's parity separates in it (for L >= 3).
        if len(pending) == left or any((j ^ k) & 1 for j in pending):
            angles = [0.0] * (L - 1)
            for j in pending:
                a, b = order[j], order[j + 1]
                angles[j] = t_f * target.weight(a, b)
                done[a * L + b] = done[b * L + a] = 1
            instrs.append(AnalogRequest(tuple(angles)))
            left -= len(pending)
            if not left:
                break
        for j in range(k & 1, L - 1, 2):
            order[j], order[j + 1] = order[j + 1], order[j]
        instrs.append(forward[k & 1])
        k += 1
    instrs.extend(undo[i & 1] for i in reversed(range(k)))
    return Circuit(L, tuple(instrs))


# --- the per-layer iSWAP lowering ---------------------------------------------

def lower_iswap_layer(layer: DigitalLayer, num_qubits: int) -> list:
    """One iSWAP layer as H, request, H, R, request, R, X: its XX half, then its YY half."""
    if not all(g.is_two_qubit for g in layer.gates):
        raise ValueError("layer mixes iSWAPs with single-qubit gates")
    angles = [0.0] * (num_qubits - 1)
    touched = []
    for g in layer.gates:
        angles[g.qubits[0]] = (-1.0 if g.type is GateType.ISWAP_DG else 1.0) * math.pi / 4.0
        touched.extend(g.qubits)
    key = tuple(sorted(touched))
    h_layer, r_layer, x_layer = (DigitalLayer(tuple(Gate(kind, (q,)) for q in key))
                                 for kind in (GateType.H, GateType.R, GateType.X))
    request = AnalogRequest(tuple(angles))
    return [h_layer, request, h_layer, r_layer, request, r_layer, x_layer]


IDENTITY_FRAME = ((1, 0, 0), (0, 1, 0))


def frame_after(frame: tuple, gate: GateType) -> tuple:
    """The images (C^dag X C, C^dag Z C) after gate follows C, through the conjugation table."""
    xq, zq = frame
    x_img, z_img = CONJUGATION[gate]
    return pauli_image(xq, zq, x_img), pauli_image(xq, zq, z_img)


def single_qubit_frames(circuit: Circuit) -> list:
    """Per qubit, the images (C^dag X C, C^dag Z C) of the product C of its x, h and r gates.

    Requests, blocks and rz gates are skipped.  Each image is a one-qubit
    (x, z, e) = i^e X^x Z^z, composed gate by gate.
    """
    frames = [IDENTITY_FRAME] * circuit.num_qubits
    for instr in circuit.instructions:
        if not isinstance(instr, DigitalLayer):
            continue
        for g in instr.gates:
            if g.type in CONJUGATION:
                frames[g.qubits[0]] = frame_after(frames[g.qubits[0]], g.type)
    return frames


def shortest_clifford_word(frame: tuple) -> str:
    """Shortest word of x, h and r gates taking `frame` to the identity, as a string of gate names.

    Breadth-first over the 24 single-qubit Cliffords, ties broken in the
    order x, h, r.
    """
    seen = {frame}
    level = [("", frame)]
    while True:
        for word, f in level:
            if f == IDENTITY_FRAME:
                return word
        following = []
        for word, f in level:
            for gate in (GateType.X, GateType.H, GateType.R):
                nxt = frame_after(f, gate)
                if nxt not in seen:
                    seen.add(nxt)
                    following.append((word + gate.value, nxt))
        level = following


def lower_per_layer(circuit: Circuit) -> Circuit:
    """Lower each iSWAP layer on its own, two requests per layer; nothing is merged."""
    instrs = []
    for instr in circuit.instructions:
        if isinstance(instr, DigitalLayer) and instr.has_iswaps:
            instrs.extend(lower_iswap_layer(instr, circuit.num_qubits))
        else:
            instrs.append(instr)
    return Circuit(circuit.num_qubits, tuple(instrs))


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


# --- value semantics ---------------------------------------------------------------

def check_value_semantics(cls, fields: dict, changed: dict):
    """A `Frozen` value class's semantics, on cls(**fields) and on one built with `changed` fields.

    `fields` names every field of the class, in order.  Equal fields give
    equal instances with equal hashes, whether passed by keyword or in
    order; a changed field gives an unequal one; the tuple of the fields is
    never equal; repr is Name(field=value!r, ...) over the fields in order;
    assigning or deleting any attribute raises AttributeError; copy and
    pickle give equal instances.
    """
    assert cls._fields == tuple(fields)
    value = cls(**fields)
    same = cls(*fields.values())
    assert value == same and not value != same
    try:
        hash(same)
    except TypeError:   # a dict field (CouplingGraph.weights) makes the value unhashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
    other = cls(**{**fields, **changed})
    assert value != other and not value == other
    stored = tuple(getattr(value, name) for name in fields)
    assert value != stored and stored != value
    assert repr(value) == f"{cls.__qualname__}({', '.join(f'{k}={v!r}' for k, v in zip(fields, stored))})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == stored
    assert copy.copy(value) == value == copy.deepcopy(value) == pickle.loads(pickle.dumps(value))


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


def slot_signs(mask: bytes) -> tuple[int, ...]:
    """Coupling sign per chain slot under X conjugation by `mask`: -1 where the slot's qubits differ."""
    return tuple(-1 if mask[j] != mask[j + 1] else 1 for j in range(len(mask) - 1))


def run_angles(run, couplings) -> list[float]:
    """frames._run_angles in Fractions: g_j times slot j's exact signed sum, rounded once.

    A sum beyond the float range rounds to an infinity of its sign.
    """
    angles = []
    for j, g in enumerate(couplings):
        exact = sum((Fraction(block.duration) * slot_signs(block.x_mask)[j] for block in run), Fraction(0))
        try:
            rounded = float(exact)
        except OverflowError:
            rounded = math.inf if exact > 0 else -math.inf
        angles.append(g * rounded)
    return angles


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


def reference_json(path: str):
    """The file's value from json.loads over the whole strict-UTF-8 text.

    The same duplicate-key hook as the product's reader, and no line
    sharing; a read or parse fault gives the product reader's FileFormatError
    texts, which do not name the file: "cannot read: " and the OS error's
    text, "invalid JSON: " and the running Python's own wording, and
    "duplicate keys [...]" for a repeated key.
    """
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise FileFormatError(f"cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise FileFormatError("invalid JSON: nested too deeply") from None


def reference_load_schedule(path: str) -> tuple[Circuit, NNChain, float, dict]:
    """fileio.load_schedule with no instruction line shared.

    json.loads parses the whole file, then every entry is built into its own
    instruction object, however often its line repeats.  Every fault reads
    "<path>: <message>", the file named once, as the product's loaders
    give it.
    """
    try:
        return _reference_schedule(reference_json(path))
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _reference_schedule(data) -> tuple[Circuit, NNChain, float, dict]:
    _require_keys(
        data,
        {"format", "num_qubits", "resource_couplings", "time", "instructions", "metadata"},
        "schedule",
    )
    if data["format"] != SCHEDULE_FORMAT:
        raise FileFormatError(f"unsupported schedule format {data['format']!r}")
    L, resource, t_f = _chain_header(data)
    if not isinstance(data["instructions"], list):
        raise FileFormatError("instructions: expected a list")
    instrs = []
    for idx, entry in enumerate(data["instructions"]):
        try:
            instrs.append(_instruction(entry, L, f"instructions[{idx}]"))
        except ValueError as exc:
            raise FileFormatError(f"instructions[{idx}]: {exc}") from exc
    # Summed in program order, as circuit_stats sums them for `stats`.
    total = 0.0
    for instr in instrs:
        if isinstance(instr, ResourceBlock):
            total += instr.duration
    if not math.isfinite(total):
        raise FileFormatError("instructions: block durations sum beyond the float range")
    metadata = data["metadata"]
    _check_metadata(metadata)
    try:
        circuit = Circuit(L, tuple(instrs))
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"schedule instructions invalid: {exc}") from exc
    return circuit, resource, t_f, metadata
