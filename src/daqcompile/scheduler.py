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
minimum possible.  Blocks no longer than
TIE_THRESHOLD * min(1, max_j |b_j|) * t_f are dropped: the threshold shrinks
with a request whose ratios are all below 1, so a tiny request keeps its
blocks, and never grows past TIE_THRESHOLD * t_f for a large one.
Masks color qubits by prefix parity so that exactly the intended slots flip
sign in each block.  `schedule` does all of this in one NumPy pass per
request: the masks come from a (blocks x slots) matrix of effective negative
signs, whose running XOR along each row is the coloring of qubits 1..L-1
(qubit 0 is never colored).

The sign matrix itself, its row-elimination inverse and the minimum-time
formula are test oracles in tests/oracles.py; only the closed form runs here.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .circuits import ResourceBlock
from .errors import UnschedulableError
from .graphs import NNChain

# The line between a float tie and real work, relative to the request's
# longest evolution max|b| * t_f, capped at t_f.  Equal ratios give blocks of
# duration exactly 0; ratios that are equal up to rounding give blocks a few
# ulps long that would add a block without adding evolution.  Anything longer
# is a real part of the requested evolution and is kept.
TIE_THRESHOLD = 1e-12


def schedule(
    target_angles: Sequence[float], resource: NNChain, t_f: float
) -> tuple[ResourceBlock, ...]:
    """Resource blocks that reconstruct every slot angle exactly in the minimum total time.

    Zero-over-zero slots get ratio 0; a nonzero angle on a zero-coupling slot
    raises UnschedulableError for the first such slot.  Ties in |b| keep
    ascending slot order.
    """
    if not (math.isfinite(t_f) and t_f > 0):
        raise ValueError(f"reference time must be positive and finite, got {t_f}")
    m = resource.num_qubits - 1
    phi = np.array(target_angles, dtype=float)
    if phi.shape != (m,):
        raise ValueError(f"expected {m} slot angles, got {len(target_angles)}")
    g = np.array(resource.couplings)
    bad = ~np.isfinite(phi) | ((g == 0.0) & (phi != 0.0))
    if bad.any():
        j = int(np.argmax(bad))
        if not math.isfinite(phi[j]):
            raise ValueError(f"non-finite angle on slot {j}")
        raise UnschedulableError(j, float(phi[j]))
    b = np.divide(phi, g * t_f, out=np.zeros(m), where=g != 0.0)
    magnitudes = np.abs(b)
    order = np.argsort(-magnitudes, kind="stable")
    b_sorted = magnitudes[order]
    times = np.empty(m)
    times[:-1] = (b_sorted[:-1] - b_sorted[1:]) * (t_f / 2.0)
    times[-1] = (b_sorted[0] + b_sorted[-1]) * (t_f / 2.0)
    keep = np.flatnonzero(times > TIE_THRESHOLD * min(1.0, b_sorted[0]) * t_f)
    # Block n runs sorted slot p negative iff n < p; map positions back to
    # original slots, apply the permanent flips, then color by prefix parity.
    position = np.argsort(order)
    negative = (keep[:, None] < position[None, :]) ^ (b < 0.0)
    masks = np.zeros((len(keep), resource.num_qubits), dtype=bool)
    np.logical_xor.accumulate(negative, axis=1, out=masks[:, 1:])
    return tuple(
        ResourceBlock(duration, mask)
        for duration, mask in zip(times[keep].tolist(), masks.tolist())
    )
