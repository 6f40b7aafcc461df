"""Weighted-graph view of ZZ Ising couplings and complete-graph path covers.

An all-to-all ZZ Ising Hamiltonian over L qubits is a weighted complete graph
K_L, while the chip's native chain is the Hamiltonian path 0-1-...-(L-1).
CouplingGraph and NNChain are the compiler's inputs.

The zig-zag path family is the paper's construction; the compiler runs a
linear swap network instead (see circuits), so only the benchmark's tracer
and the tests call it.  It splits K_L into
Hamiltonian paths so the chain can realise every target edge exactly once:
path 1 walks forward one node, back two, forward three, ... around the
cycle Z_L, and path k is path 1 rotated by k-1.  walecki_cover takes paths
1..(L+1)//2 for every L: for even L these L/2 paths tile K_L exactly, for
odd L they overlap and each duplicated slot is disabled (first occurrence
wins).

Qubit indices are 0-based throughout.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._frozen import Frozen

Edge = tuple[int, int]


def canonical_edge(i: int, j: int, num_qubits: int) -> Edge:
    """Undirected edge as an ordered pair; rejects self-loops and bad indices."""
    if not (0 <= i < num_qubits and 0 <= j < num_qubits):
        raise ValueError(f"qubit index out of range for {num_qubits} qubits: ({i}, {j})")
    if i == j:
        raise ValueError(f"self-loop on qubit {i}")
    return (i, j) if i < j else (j, i)


def validate_permutation(perm: Sequence[int], num_qubits: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(num_qubits)):
        raise ValueError(f"not a permutation of 0..{num_qubits - 1}: {perm}")
    return perm


class CouplingGraph(Frozen):
    """Symmetric weighted graph of ZZ coupling strengths g_ij (rad/time).

    Absent edges mean zero coupling; explicit zero weights are allowed (they
    matter for disabled slots and sparse targets).
    """

    def __init__(self, num_qubits: int, weights: dict[Edge, float]):
        if num_qubits < 2:
            raise ValueError("a coupling graph needs at least 2 qubits")
        canon: dict[Edge, float] = {}
        for (i, j), w in weights.items():
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight on edge ({i}, {j})")
            edge = canonical_edge(i, j, num_qubits)
            if edge in canon and canon[edge] != w:
                raise ValueError(f"conflicting weights for edge {edge}")
            canon[edge] = w
        super().__init__(num_qubits, canon)

    def weight(self, i: int, j: int) -> float:
        return self.weights.get(canonical_edge(i, j, self.num_qubits), 0.0)


class NNChain(Frozen):
    """Fixed chain resource: coupling j sits between qubits j and j+1."""

    def __init__(self, num_qubits: int, couplings: tuple[float, ...]):
        if num_qubits < 2:
            raise ValueError("a chain needs at least 2 qubits")
        couplings = tuple(float(g) for g in couplings)
        if len(couplings) != num_qubits - 1:
            raise ValueError(f"expected {num_qubits - 1} couplings, got {len(couplings)}")
        if not all(math.isfinite(g) for g in couplings):
            raise ValueError("non-finite chain coupling")
        super().__init__(num_qubits, couplings)


def zigzag_path(k: int, num_qubits: int) -> tuple[int, ...]:
    """Vertex permutation of the k-th zig-zag Hamiltonian path (1-based label k).

    Position j (1-based) holds (k-1 + j/2) mod L for even j and
    (k-1 - (j-1)/2) mod L for odd j.  Labels run 1..(L+1)//2.
    """
    L = num_qubits
    if L < 2:
        raise ValueError("need at least 2 qubits")
    max_k = (L + 1) // 2
    if not 1 <= k <= max_k:
        raise ValueError(f"path label {k} out of range 1..{max_k} for L={L}")
    entries = []
    for pos in range(1, L + 1):
        if pos % 2 == 0:
            entries.append((k - 1 + pos // 2) % L)
        else:
            entries.append((k - 1 - (pos - 1) // 2) % L)
    return tuple(entries)


class PathCover(Frozen):
    """A set of Hamiltonian paths with per-path disabled slots.

    Slot j of a path couples its entries j and j+1.  walecki_cover
    guarantees every complete-graph edge is enabled exactly once (odd-L
    overlaps get disabled); other covers, including repeated paths, are
    valid too.
    """

    def __init__(self, num_qubits: int, paths: tuple[tuple[int, ...], ...],
                 disabled_slots: tuple[frozenset[int], ...]):
        if len(disabled_slots) != len(paths):
            raise ValueError("one disabled-slot set per path required")
        for p in paths:
            validate_permutation(p, num_qubits)
        for disabled in disabled_slots:
            if any(not 0 <= s < num_qubits - 1 for s in disabled):
                raise ValueError("disabled slot index out of range")
        super().__init__(num_qubits, paths, disabled_slots)


def walecki_cover(num_qubits: int) -> PathCover:
    """Zig-zag cover of K_L for any L >= 2: paths 1..(L+1)//2.

    Scanning paths in label order and slots left to right, the first
    occurrence of an edge stays enabled and every later duplicate is disabled,
    so the result is deterministic.  Even L has no duplicates to disable.
    """
    L = num_qubits
    if L < 2:
        raise ValueError(f"qubit count >= 2 required, got {L}")
    paths = tuple(zigzag_path(k, L) for k in range(1, (L + 1) // 2 + 1))
    seen: set[Edge] = set()
    disabled: list[frozenset[int]] = []
    for p in paths:
        dead = set()
        for slot in range(L - 1):
            edge = canonical_edge(p[slot], p[slot + 1], L)
            if edge in seen:
                dead.add(slot)
            else:
                seen.add(edge)
        disabled.append(frozenset(dead))
    return PathCover(L, paths, tuple(disabled))

