"""Realise an arbitrary chain ZZ evolution from the fixed resource chain.

Given requested slot phases phi_j and resource couplings g_j, the ratio
b_j = phi_j / (g_j t_f) says how much of the resource each slot needs.  After
flipping negative ratios (an X-gate coloring flips a slot's sign in every
block) and sorting them in descending order, the sign pattern "slot j runs
positive during blocks n >= j" solves in closed form:

    t_n / t_f = (b_n - b_{n+1}) / 2   for n < L-1,
    t_{L-1} / t_f = (b_1 + b_{L-1}) / 2,

giving non-negative durations, at most L-1 blocks (equal or zero ratios drop
blocks), and total analog time sum|t_n| = max_j |b_j| * t_f, which is the
minimum possible.  Blocks no longer than TIE_THRESHOLD * t_f are dropped.
Masks color qubits by prefix parity so that exactly the intended slots flip
sign in each block.  All masks of one request come from one NumPy pass: a
(blocks x slots) matrix of effective negative signs, whose running XOR along
each row is the coloring of qubits 1..L-1 (qubit 0 is never colored).

The sign matrix itself, its row-elimination inverse and the minimum-time
formula are test oracles in tests/oracles.py; only the closed form runs here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import ResourceBlock
from .errors import UnschedulableError
from .graphs import NNChain

# The line between a float tie and real work, relative to t_f.  Equal ratios
# give blocks of duration exactly 0; ratios that are equal up to rounding give
# blocks a few ulps long that would add a block without adding evolution.
# Anything longer is a real part of the requested evolution and is kept.
TIE_THRESHOLD = 1e-12


@dataclass(frozen=True)
class NormalizationRecord:
    """How ratios were rearranged: slot_order maps sorted position -> original
    slot; sign_flips marks original slots whose coupling sign is inverted in
    every block."""

    slot_order: tuple[int, ...]
    sign_flips: tuple[bool, ...]

    def __post_init__(self):
        if sorted(self.slot_order) != list(range(len(self.slot_order))):
            raise ValueError("slot_order must be a permutation")
        if len(self.sign_flips) != len(self.slot_order):
            raise ValueError("one sign flip flag per slot required")


@dataclass(frozen=True)
class BlockSchedule:
    """Solved analog blocks realising a requested chain evolution."""

    t_f: float
    blocks: tuple[ResourceBlock, ...]


def coupling_ratios(
    target_angles: Sequence[float], resource: NNChain, t_f: float
) -> np.ndarray:
    """b_j = phi_j / (g_j t_f); zero-over-zero slots get b_j = 0."""
    if not (math.isfinite(t_f) and t_f > 0):
        raise ValueError(f"reference time must be positive and finite, got {t_f}")
    m = resource.num_qubits - 1
    if len(target_angles) != m:
        raise ValueError(f"expected {m} slot angles, got {len(target_angles)}")
    b = np.zeros(m)
    for j, (phi, g) in enumerate(zip(target_angles, resource.couplings)):
        phi = float(phi)
        if not math.isfinite(phi):
            raise ValueError(f"non-finite angle on slot {j}")
        if g == 0.0:
            if phi != 0.0:
                raise UnschedulableError(j, phi)
            continue
        b[j] = phi / (g * t_f)
    return b


def normalize_ratios(b: Sequence[float]) -> tuple[np.ndarray, NormalizationRecord]:
    """Absolute values sorted descending plus the record undoing the rearrangement.

    Stable: ties keep ascending original slot order, so output is deterministic.
    """
    b = np.asarray(b, dtype=float)
    flips = tuple(bool(v < 0.0) for v in b)
    magnitudes = np.abs(b)
    order = sorted(range(len(b)), key=lambda j: (-magnitudes[j], j))
    return magnitudes[order], NormalizationRecord(tuple(order), flips)


def solve_block_times(b_sorted: Sequence[float], t_f: float) -> np.ndarray:
    """Closed-form block durations for descending non-negative ratios."""
    if not (math.isfinite(t_f) and t_f > 0):
        raise ValueError(f"reference time must be positive and finite, got {t_f}")
    b = np.asarray(b_sorted, dtype=float)
    m = len(b)
    if m < 1:
        raise ValueError("need at least one slot")
    if b[-1] < 0.0 or np.any(b[:-1] < b[1:]):
        raise ValueError("ratios must be sorted descending and non-negative")
    t = np.empty(m)
    t[: m - 1] = (b[: m - 1] - b[1:]) * (t_f / 2.0)
    t[m - 1] = (b[0] + b[m - 1]) * (t_f / 2.0)
    return t


def schedule(target_angles: Sequence[float], resource: NNChain, t_f: float) -> BlockSchedule:
    """Full pipeline: ratios -> normalize -> closed-form times -> sign masks.

    Blocks with duration <= TIE_THRESHOLD * t_f are dropped.  The result
    reconstructs every slot angle exactly and achieves the minimum total time.
    """
    b = coupling_ratios(target_angles, resource, t_f)
    b_sorted, record = normalize_ratios(b)
    times = solve_block_times(b_sorted, t_f)
    keep = np.flatnonzero(times > TIE_THRESHOLD * t_f)
    # Block n runs sorted slot p negative iff n < p; map positions back to
    # original slots, apply the permanent flips, then color by prefix parity.
    position = np.argsort(record.slot_order)
    negative = (keep[:, None] < position[None, :]) ^ np.array(record.sign_flips, dtype=bool)
    masks = np.zeros((len(keep), resource.num_qubits), dtype=bool)
    np.logical_xor.accumulate(negative, axis=1, out=masks[:, 1:])
    blocks = tuple(
        ResourceBlock(duration, mask)
        for duration, mask in zip(times[keep].tolist(), masks.tolist())
    )
    return BlockSchedule(t_f=t_f, blocks=blocks)
