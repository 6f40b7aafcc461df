"""Realise an arbitrary chain ZZ evolution from the fixed resource chain.

Given requested slot phases phi_j and resource couplings g_j, the ratio
b_j = phi_j / (g_j t_f) says how much of the resource each slot needs.  After
flipping negative ratios (an X-gate coloring flips a slot's sign in every
block) and sorting them in descending order, the sign pattern "slot j runs
positive during blocks n >= j" solves in closed form:

    t_n / t_f = (b_n - b_{n+1}) / 2   for n < L-1,
    t_{L-1} / t_f = b_1 / 2 + b_{L-1} / 2,

giving non-negative durations, at most L-1 blocks (equal or zero ratios drop
blocks), and total analog time sum|t_n| = max_j |b_j| * t_f, which is the
minimum possible.  The last block halves each ratio before adding, so two
finite ratios cannot overflow its sum.  Blocks no longer than
TIE_THRESHOLD * min(1, max_j |b_j|) * t_f are dropped: the threshold shrinks
with a request whose ratios are all below 1, so a tiny request keeps its
blocks, and never grows past TIE_THRESHOLD * t_f for a large one.
Masks color qubits by prefix parity so that exactly the intended slots flip
sign in each block.  `schedule` does all of this in plain Python, with no
NumPy: one sort and L-1 differences per request, one prefix-parity pass for
the last block's mask, and then one suffix flip per earlier block.  The last
block runs every slot positive, so its mask is the running XOR of the
negative-ratio flips (qubit 0 is never colored).  From block n back to block
n-1 sorted slot n turns negative, so qubits order[n]+1..L-1 flip; a mask is
an int holding one byte per qubit, and each flip XORs in the suffix of ones
past that qubit.  The walk passes every block, so a block dropped as a tie
only skips its append.

The sign matrix itself, its row-elimination inverse and the minimum-time
formula are test oracles in tests/oracles.py; only the closed form runs here.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import xor
from typing import Sequence

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

    Zero-angle slots get ratio 0; a nonzero angle on a zero-coupling slot
    raises UnschedulableError for the first such slot.  An overflow raises it
    for the first slot whose ratio leaves the float range, or else for the
    smallest slot whose block duration does.  Ties in |b| keep ascending slot
    order.
    """
    if not (math.isfinite(t_f) and t_f > 0):
        raise ValueError(f"reference time must be positive and finite, got {t_f}")
    m = resource.num_qubits - 1
    phi = [float(a) for a in target_angles]
    if len(phi) != m:
        raise ValueError(f"expected {m} slot angles, got {len(target_angles)}")
    b = [0.0] * m
    for j, (angle, g) in enumerate(zip(phi, resource.couplings)):
        if not math.isfinite(angle):
            raise ValueError(f"non-finite angle on slot {j}")
        if angle == 0.0:
            continue
        if g == 0.0:
            raise UnschedulableError(j, angle)
        try:
            b[j] = angle / (g * t_f)
        except ZeroDivisionError:  # g * t_f underflowed to zero
            b[j] = math.inf
    magnitudes = [abs(r) for r in b]
    order = sorted(range(m), key=magnitudes.__getitem__, reverse=True)
    b_sorted = [magnitudes[j] for j in order]
    half = t_f / 2.0
    times = [(hi - lo) * half for hi, lo in zip(b_sorted, b_sorted[1:])]
    times.append((b_sorted[0] * 0.5 + b_sorted[-1] * 0.5) * t_f)
    if not all(map(math.isfinite, times)):
        # Blame the first slot whose ratio left the float range, or else the
        # smallest slot whose block (sorted position n is slot order[n]) did.
        bad = [j for j, r in enumerate(b) if not math.isfinite(r)]
        slot = bad[0] if bad else min(order[n] for n, t in enumerate(times) if not math.isfinite(t))
        raise UnschedulableError(slot, phi[slot], "its evolution time overflows the float range")
    line = TIE_THRESHOLD * min(1.0, b_sorted[0]) * t_f
    # Block n runs sorted slot p negative iff n < p, so the last block runs
    # every slot positive but for the permanent flips of negative ratios, and
    # its mask colors the qubits by their prefix parity.  Walking back from
    # block n to n-1 turns slot order[n] negative, which flips every qubit
    # past it.
    L = m + 1
    ones = int.from_bytes(b"\1" * L, "little")
    mask = int.from_bytes(bytes(accumulate((r < 0.0 for r in b), xor, initial=0)), "little")
    blocks = []
    for n in reversed(range(m)):
        if times[n] > line:
            blocks.append(ResourceBlock(times[n], mask.to_bytes(L, "little")))
        s = 8 * (order[n] + 1)
        mask ^= ones >> s << s
    return tuple(reversed(blocks))
