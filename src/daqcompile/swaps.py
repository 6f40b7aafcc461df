"""Synthesis of vertex permutations from layered adjacent transpositions.

A SwapSequence is an ordered list of layers; each layer is a set of disjoint
adjacent transpositions (i, i+1), stored by left index i, that can execute in
parallel.  Applying a sequence to a permutation swaps array *positions* layer
by layer; applying it to the identity yields the permutation the sequence
synthesises.  Conjugating a chain evolution by the matching iSWAP layers
relabels the chain's vertices into the synthesised path.

`sort_network_sequence`, an odd-even transposition sort, synthesises the
swap frame of every zig-zag path, for even and odd L alike.  That is the
paper's path route; the compiler runs a linear swap network instead (see
circuits.ata_circuit_general), so only the benchmark's tracer and the
tests call this module.
"""

from __future__ import annotations

from typing import Sequence

from ._frozen import Frozen
from .graphs import validate_permutation, zigzag_path

Layer = tuple[int, ...]


class SwapSequence(Frozen):
    """Layers of parallel adjacent swaps over `num_qubits` array positions."""

    def __init__(self, num_qubits: int, layers: tuple[Layer, ...]):
        norm = []
        for layer in layers:
            starts = tuple(sorted(int(i) for i in layer))
            prev = None
            for i in starts:
                if not 0 <= i <= num_qubits - 2:
                    raise ValueError(f"swap start {i} out of range for {num_qubits} qubits")
                if prev is not None and i - prev < 2:
                    raise ValueError(f"overlapping swaps ({prev},{prev + 1}) and ({i},{i + 1})")
                prev = i
            norm.append(starts)
        super().__init__(num_qubits, tuple(norm))

    def __len__(self) -> int:
        return len(self.layers)


def sort_network_sequence(target: Sequence[int]) -> SwapSequence:
    """Odd-even transposition network synthesising an arbitrary permutation.

    Runs the parallel sorting network on `target` (pairs (0,1),(2,3),... on
    even phases first, then (1,2),(3,4),...), records the executed swap
    layers, and reverses them; at most L layers.  Deterministic.
    """
    L = len(target)
    arr = list(validate_permutation(target, L))
    layers: list[Layer] = []
    for phase in range(L):
        start = 0 if phase % 2 == 0 else 1
        layer = []
        for i in range(start, L - 1, 2):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                layer.append(i)
        if layer:
            layers.append(tuple(layer))
    return SwapSequence(L, tuple(reversed(layers)))


def walecki_sequence(k: int, num_qubits: int) -> SwapSequence:
    """Swap sequence mapping the identity to zig-zag path k, for any L."""
    return sort_network_sequence(zigzag_path(k, num_qubits))
