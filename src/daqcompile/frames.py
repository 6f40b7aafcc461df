"""Exact schedule verification by Pauli-frame propagation, in plain Python.

A compiled schedule is Clifford single-qubit layers (x, h, r) around ZZ
evolutions, so it can be checked exactly without 2^L x 2^L matrices, in
time polynomial in L (stabilizer tableaux, Aaronson and Gottesman,
quant-ph/0406196).  The walk keeps the frame of the Clifford part C seen so
far: the images C^dag X_q C and C^dag Z_q C of every X_q and Z_q, each a
Pauli i^e X^x Z^z held as bit-packed ints (x, z, e).  An x, h or r gate
conjugates the frame through CONJUGATION, the table of each gate's images
of X and Z.  A rotation exp(i phi P) after C equals C times
exp(i phi P') with P' = C^dag P C, its pull-back through the frame:

* a run of resource blocks is the chain evolution with slot angles
  phi_j = g_j sum_n d_n s_nj, where s_nj = -1 if block n's mask differs
  across slot j, so it is one rotation by Z_j Z_{j+1} per slot; rz(theta)
  rotates Z_q by theta / 2;
* a pull-back that is a Z string (x = 0) commutes with every other one, so
  its angle goes to one ledger keyed by the string's bits, split at the end
  into edges (two bits), single qubits (one bit) and longer strings;
* any other pull-back has its angle rounded to the nearest k pi/4, and the
  Clifford exp(i k pi/4 P') is folded into the frame; the rounding
  |phi - k pi/4| is added to the bound.

The schedule's unitary is then, up to the roundings, C_final times the
diagonal product of the ledger's rotations.  It matches the target
exp(i sum t g'_ij Z_i Z_j) when the final frame is the identity, and its
operator-norm distance from the target, up to global phase, is at most

    B = roundings + sum over edges |ledger - t g'| mod pi
        + sum over qubits |single| mod pi + sum over other strings |angle| mod pi,

because exp(i(a + pi) P) = -exp(i a P) and ||e^{iA} - e^{iB}|| <= ||A - B||
for commuting Hermitian A and B.  That norm is at least sqrt(2) times the
dense oracle's unitaries.phase_distance, so `B < tol` is never a looser
check than the dense one.  B leaves out the rounding of its own arithmetic:
each slot angle is its slot's exact sum of durations, rounded once and then
multiplied by g_j (two roundings, about 1e-16 of the angle), and the ledger
and B itself are summed in binary64.

A run ends at the first layer that is not all rz: such layers are diagonal
like the blocks, so they commute with the run and stay inside it.  The
terms of one run commute, and a fold rewrites only the X images of the
qubits its rotation anticommutes with, so every term is pulled back
through the Z images as they stand when the run starts.  Each distinct run
is summed once per walk, keyed by its blocks' durations and masks, so
equal runs share their angles however the file was laid out.  A non-finite
angle makes B infinite, so it fails at any tolerance; nothing here raises
on a schedule the reader accepts.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping

from ._frozen import Frozen
from .circuits import Circuit, DigitalLayer, GateType, ResourceBlock
from .graphs import Edge, NNChain

QUARTER = math.pi / 4.0

Pauli = tuple[int, int, int]   # (x, z, e): i^e X^x Z^z with bit q of x and z on qubit q

# g^dag X g and g^dag Z g of each Clifford gate as one-qubit (x, z, e).
CONJUGATION: dict[GateType, tuple[Pauli, Pauli]] = {
    GateType.X: ((1, 0, 0), (0, 1, 2)),   # X -> X, Z -> -Z
    GateType.H: ((0, 1, 0), (1, 0, 0)),   # X -> Z, Z -> X
    GateType.R: ((1, 0, 0), (1, 1, 1)),   # R = HSH: X -> X, Z -> Y = iXZ
}


def pauli_product(a: Pauli, b: Pauli) -> Pauli:
    """Product a b of bit-packed Paulis: Z^z X^x = (-1)^|z & x| X^x Z^z."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + 2 * (a[1] & b[0]).bit_count()) & 3


def pauli_image(xq: Pauli, zq: Pauli, img: Pauli) -> Pauli:
    """The one-qubit Pauli img = i^e X^x Z^z with X and Z replaced by the Paulis xq and zq.

    With xq and zq the images C^dag X C and C^dag Z C of a Clifford C, and img
    a gate's entry in CONJUGATION, this is the frame's image after the gate.
    """
    x, z, e = img
    out = pauli_product(xq, zq) if x and z else xq if x else zq
    return out[0], out[1], (out[2] + e) & 3


def _off_pi(angle: float) -> float:
    """Distance of a rotation angle from the nearest multiple of pi; inf if not finite."""
    return abs(math.remainder(angle, math.pi)) if math.isfinite(angle) else math.inf


class CouplingCheck(Frozen):
    """One edge's ledger against its target angle t * g'; off is |realised - target| mod pi."""

    def __init__(self, edge: Edge, realised: float, target: float, off: float):
        super().__init__(edge, realised, target, off)


class FrameReport(Frozen):
    """Verdict of a frame walk; `bound` is B, the sum of the four parts."""

    def __init__(
        self,
        bound: float,
        couplings: tuple[CouplingCheck, ...],   # every target or ledger edge, worst first
        single_z: float,                        # sum over qubits of |single| mod pi
        other_z: float,                         # sum over longer Z strings of |angle| mod pi
        rounding: float,                        # sum of |phi - k pi/4| over folded rotations
        frame_off: int | None,                  # first qubit whose X or Z image is not its own
    ):
        super().__init__(bound, couplings, single_z, other_z, rounding, frame_off)

    def passed(self, tol: float) -> bool:
        return self.frame_off is None and self.bound < tol


class _Walk:
    """The frame and the ledger of one walk over a circuit."""

    def __init__(self, num_qubits: int):
        self.xs = [(1 << q, 0, 0) for q in range(num_qubits)]
        self.zs = [(0, 1 << q, 0) for q in range(num_qubits)]
        self.ledger: dict[int, float] = {}     # Z string bits -> summed angle
        self.rounding = 0.0

    def layer(self, layer: DigitalLayer) -> None:
        xs, zs = self.xs, self.zs
        for g in layer.gates:
            q = g.qubits[0]
            if g.type is GateType.RZ:
                self.rotate(zs[q], g.angle / 2.0, (q,))
                continue
            images = CONJUGATION.get(g.type)
            if images is None:
                raise ValueError(f"{g.type.value} is not a single-qubit Clifford; lower it first")
            x_img, z_img = images
            xq, zq = xs[q], zs[q]
            xs[q], zs[q] = pauli_image(xq, zq, x_img), pauli_image(xq, zq, z_img)

    def slots(self, angles) -> None:
        zs = self.zs
        for j, phi in enumerate(angles):
            if phi != 0.0:
                self.rotate(pauli_product(zs[j], zs[j + 1]), phi, (j, j + 1))

    def rotate(self, pulled: Pauli, phi: float, anticommuting: tuple[int, ...]) -> None:
        """Apply exp(i phi P) whose pull-back is `pulled`; only the X_q of `anticommuting` anticommute with P."""
        x, z, e = pulled
        if not x:
            self.ledger[z] = self.ledger.get(z, 0.0) + (-phi if e else phi)   # Hermitian: e is 0 or 2
            return
        ratio = phi / QUARTER
        if not math.isfinite(ratio):
            self.rounding = math.inf
            return
        k = round(ratio)
        self.rounding += abs(phi - k * QUARTER)
        k &= 3
        if not k:
            return
        xs = self.xs
        # exp(-i k pi/4 P') A exp(i k pi/4 P') for A anticommuting with P' is
        # -A for k = 2 and i^k A P' for k = 1, 3.
        for q in anticommuting:
            xq = xs[q] if k == 2 else pauli_product(xs[q], pulled)
            xs[q] = xq[0], xq[1], (xq[2] + k) & 3

    def frame_off(self) -> int | None:
        for q, (xq, zq) in enumerate(zip(self.xs, self.zs)):
            if xq != (1 << q, 0, 0) or zq != (0, 1 << q, 0):
                return q
        return None


def _run_angles(run: tuple[ResourceBlock, ...], couplings: tuple[float, ...]) -> list[float]:
    """Slot angles g_j sum_n d_n s_nj of a run of blocks, each sum exact and rounded once.

    The durations are summed as integers over their largest denominator, a
    power of two, and a slot's negative time from the blocks where its sign
    flips (the prefix sums there), so a run takes O(L + flips) Python steps.
    """
    m = len(couplings)
    ratios = [block.duration.as_integer_ratio() for block in run]
    den = max(d for _, d in ratios)
    prefix = 0
    negative = [0] * m
    sign = [-1] * m               # -1 while slot j is positive: its next flip turns it negative
    before = 0
    for block, (n, d) in zip(run, ratios):
        mask = int.from_bytes(block.x_mask, "little")
        # byte j is 1 where the mask differs across slot j (the last byte is ignored)
        differs = mask ^ (mask >> 8)
        for j in itertools.compress(range(m), (differs ^ before).to_bytes(m + 1, "little")):
            negative[j] += sign[j] * prefix
            sign[j] = -sign[j]
        prefix += n * (den // d)
        before = differs
    for j in itertools.compress(range(m), before.to_bytes(m + 1, "little")):
        negative[j] += prefix
    angles = []
    for g, neg in zip(couplings, negative):
        exact = prefix - 2 * neg
        try:
            angles.append(g * (exact / den))
        except OverflowError:     # beyond the float range, as a float sum would be
            angles.append(g * (math.inf if exact > 0 else -math.inf))
    return angles


def check_schedule(circuit: Circuit, resource: NNChain, target: Mapping[Edge, float]) -> FrameReport:
    """Walk a schedule and bound its distance from exp(i sum_e target[e] Z_i Z_j).

    `target` maps edges (i, j) with i < j to their angles t * g'; absent
    edges have angle 0.  Layers may hold x, h, r and rz gates; iSWAPs and
    analog requests raise ValueError (schedules never hold them).
    """
    L = circuit.num_qubits
    if resource.num_qubits != L:
        raise ValueError("resource chain size does not match the circuit")
    walk = _Walk(L)
    # ResourceBlock's == and hash go by duration and mask, so equal runs share a key; +-0.0
    # durations are equal and sum alike
    run_angles = functools.cache(lambda blocks: _run_angles(blocks, resource.couplings))
    run: list[ResourceBlock] = []
    for instr in circuit.instructions:
        if isinstance(instr, ResourceBlock):
            run.append(instr)
            continue
        if not isinstance(instr, DigitalLayer):
            raise ValueError("analog requests must be scheduled first")
        if run and not all(g.type is GateType.RZ for g in instr.gates):
            walk.slots(run_angles(tuple(run)))   # an rz layer is diagonal, so the run stays open
            run.clear()
        walk.layer(instr)
    if run:
        walk.slots(run_angles(tuple(run)))
    realised = dict.fromkeys(target, 0.0)
    singles = [0.0] * L
    others = []                         # longer strings, in first-seen order
    for z, angle in walk.ledger.items():
        if z.bit_count() == 2:
            realised[(z & -z).bit_length() - 1, z.bit_length() - 1] = angle
        elif z.bit_count() == 1:
            singles[z.bit_length() - 1] = angle
        else:
            others.append(angle)
    couplings = []
    for edge, got in realised.items():
        want = target.get(edge, 0.0)
        couplings.append(CouplingCheck(edge, got, want, _off_pi(got - want)))
    couplings.sort(key=lambda c: (-c.off, c.edge))
    single_z = sum(map(_off_pi, singles))
    other_z = sum(map(_off_pi, others), 0.0)
    bound = sum(c.off for c in couplings) + single_z + other_z + walk.rounding
    return FrameReport(bound, tuple(couplings), single_z, other_z, walk.rounding, walk.frame_off())
