"""The Pauli-frame verifier against the dense oracle in `unitaries`."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile.circuits import (
    AnalogRequest,
    Circuit,
    DigitalLayer,
    Gate,
    GateType,
    ResourceBlock,
)
from daqcompile.compiler import compile_ata, compile_chain
from daqcompile.frames import CONJUGATION, check_schedule, pauli_product
from daqcompile.graphs import CouplingGraph, NNChain
from daqcompile.unitaries import circuit_unitary, gate_matrix, phase_distance, zz_evolution

from oracles import X

Z = np.diag([1.0 + 0j, -1.0])
TOL = 1e-9
# The dense oracle's own rounding: correct schedules read up to ~3e-14 at
# L <= 8 there, while B reads ~1e-14.
DENSE_NOISE = 1e-13


def pauli_matrix(p) -> np.ndarray:
    """i^e X^x Z^z of a one-qubit (x, z, e)."""
    x, z, e = p
    return 1j ** e * np.linalg.matrix_power(X, x) @ np.linalg.matrix_power(Z, z)


@pytest.mark.parametrize("gate_type", [GateType.X, GateType.H, GateType.R])
def test_conjugation_table_matches_the_gate_matrices(gate_type):
    # derived from the 2x2 matrices, not copied: R = HSH sends Z to +Y = iXZ
    g = gate_matrix(Gate(gate_type, (0,)))
    derived = []
    for pauli in (X, Z):
        image = g.conj().T @ pauli @ g
        derived.append(next(p for p in itertools.product((0, 1), (0, 1), range(4))
                            if np.allclose(image, pauli_matrix(p))))
    assert CONJUGATION[gate_type] == tuple(derived)
    assert set(CONJUGATION) == {GateType.X, GateType.H, GateType.R}


def test_pauli_product_matches_matrices():
    two_qubit = [(x, z, e) for x in range(4) for z in range(4) for e in range(4)]

    def matrix(p):
        x, z, e = p
        factors = [pauli_matrix((x >> q & 1, z >> q & 1, 0)) for q in (1, 0)]   # qubit 1 is the high bit
        return 1j ** e * np.kron(*factors)

    for a, b in itertools.product(two_qubit[::3], two_qubit[::5]):
        assert np.allclose(matrix(pauli_product(a, b)), matrix(a) @ matrix(b))


def test_non_finite_angles_fail_without_raising():
    # g * d overflows: on the Z frame it reaches the ledger, after an h the rounding
    resource = NNChain(2, (1e300,))
    block = ResourceBlock(1e300, b"\0\0")
    h = DigitalLayer((Gate.h(0),))
    for instrs in [(block,), (h, block, h)]:
        report = check_schedule(Circuit(2, instrs), resource, {(0, 1): 0.5})
        assert report.bound == math.inf and not report.passed(1e300)
    # a finite angle whose ratio to pi/4 overflows
    report = check_schedule(Circuit(2, (h, ResourceBlock(1.0, b"\0\0"), h)), NNChain(2, (1.7e308,)), {})
    assert report.rounding == math.inf and not report.passed(TOL)


def test_iswaps_and_requests_are_refused():
    for instr, message in [(DigitalLayer((Gate.iswap(0),)), "lower it first"),
                           (AnalogRequest((0.5,)), "scheduled first")]:
        with pytest.raises(ValueError, match=message):
            check_schedule(Circuit(2, (instr,)), NNChain(2, (1.0,)), {})


def test_rz_layers_stay_inside_a_block_run():
    # eight pi/8 blocks between two h are exp(i pi X_0 Z_1) = -1; rz(2 pi) = -1
    # splits no run, where the blocks on each side of it would be
    # non-Clifford rotations off the Z frame
    h, block = DigitalLayer((Gate.h(0),)), ResourceBlock(math.pi / 8, b"\0\0")
    rz = DigitalLayer((Gate(GateType.RZ, (1,), 2 * math.pi),))
    circuit = Circuit(2, (h, block, rz) + (block,) * 7 + (h,))
    report = check_schedule(circuit, NNChain(2, (1.0,)), {})
    assert report.passed(TOL) and report.rounding < 1e-15


def test_frame_left_off_fails_at_any_tolerance():
    report = check_schedule(Circuit(3, (DigitalLayer((Gate.r(1),)),)), NNChain(3, (1.0, 1.0)), {})
    assert (report.bound, report.frame_off) == (0.0, 1)
    assert not report.passed(1.0)


def test_z_string_residuals_are_split_by_length():
    chain = NNChain(3, (1.0, 1.0))
    # rz(0.6) rotates Z_1 by 0.3: a one-qubit string
    single = check_schedule(Circuit(3, (DigitalLayer((Gate(GateType.RZ, (1,), 0.6),)),)), chain, {})
    assert (single.couplings, single.single_z, single.other_z, single.bound) == ((), 0.3, 0.0, 0.3)
    # the first run folds pi/4 rotations into the frame; in the second, slot
    # 0's term pulls back through h and r to Z_0 Z_1 Z_2: a three-qubit string
    first, second = ResourceBlock(math.pi / 4, b"\1\1\1"), ResourceBlock(math.pi / 4, b"\1\0\0")
    circuit = Circuit(3, (DigitalLayer((Gate.h(0), Gate.h(1))), first,
                          DigitalLayer((Gate.h(0), Gate.r(1))), second))
    longer = check_schedule(circuit, chain, {})
    assert (longer.couplings, longer.single_z, longer.rounding) == ((), 0.0, 0.0)
    assert longer.other_z == longer.bound == math.pi / 4


def test_report_parts_are_floats_without_longer_z_strings():
    # a compiled schedule leaves no Z string of three or more qubits in the ledger
    L, t_f = 5, 0.7
    resource = NNChain(L, (1.0, 0.5, 1.5, 0.75))
    weights = {(i, j): 0.1 * (i + j) for i in range(L) for j in range(i + 1, L)}
    circuit = compile_ata(CouplingGraph(L, weights), resource, t_f).circuit
    report = check_schedule(circuit, resource, {e: w * t_f for e, w in weights.items()})
    assert report.passed(TOL) and report.other_z == 0.0
    assert type(report.other_z) is float and type(report.single_z) is float


# --- agreement with the dense engine ------------------------------------------
#
# Weights, times and couplings are dyadic grids: ratios that tie do so
# exactly (their blocks are dropped), and ratios that differ give blocks of
# at least ~1e-3, so no mask flip is hidden in rounding.  With |t g'| <= 1
# and g in [7/8, 9/8], a block contributes at most ~1.3 to any slot, so one
# block scaled by 1 +- 1e-10 moves B by at most ~9e-10 over 7 slots: such a
# mutant is well below TOL on both engines, and every other mutant is far
# above it.  B bounds the operator norm, which is at least sqrt(2) times the
# dense distance, so a mutant with the dense distance between TOL / sqrt(2)
# and TOL could PASS densely and FAIL here; none of these mutants gets there.

@st.composite
def compiled_problems(draw):
    L = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "nn"]))
    t_f = draw(st.integers(2, 8)) / 8
    resource = NNChain(L, tuple(k / 16 for k in draw(st.lists(st.integers(14, 18), min_size=L - 1,
                                                              max_size=L - 1))))
    grid = st.integers(-8, 8).map(lambda k: k / 8)
    if kind == "nn":
        angles = tuple(draw(st.lists(grid, min_size=L - 1, max_size=L - 1)))
        circuit = compile_chain(angles, resource, t_f).circuit
        return circuit, resource, {(j, j + 1): a for j, a in enumerate(angles)}
    edges = list(itertools.combinations(range(L), 2))
    if kind == "sparse":
        edges = [e for e, keep in zip(edges, draw(st.lists(st.booleans(), min_size=len(edges),
                                                           max_size=len(edges)))) if keep]
    weights = {e: 0.0 if kind == "zero" else draw(grid) for e in edges}
    circuit = compile_ata(CouplingGraph(L, weights), resource, t_f).circuit
    return circuit, resource, {e: w * t_f for e, w in weights.items()}


@st.composite
def mutants(draw, circuit):
    """The circuit with one mutation, and the mutation's name."""
    instrs = list(circuit.instructions)
    L = circuit.num_qubits
    blocks = [k for k, i in enumerate(instrs) if isinstance(i, ResourceBlock)]
    layers = [k for k, i in enumerate(instrs) if isinstance(i, DigitalLayer)]
    kinds = ["none", "rz"] + ["scale", "mask"] * bool(blocks) + ["swap", "delete"] * bool(layers)
    kind = draw(st.sampled_from(kinds))
    if kind in ("scale", "mask"):
        k = draw(st.sampled_from(blocks))
        block = instrs[k]
        if kind == "scale":
            instrs[k] = ResourceBlock(block.duration * (1 + draw(st.sampled_from([1e-10, -1e-10]))), block.x_mask)
        else:
            mask = bytearray(block.x_mask)
            mask[draw(st.integers(0, L - 1))] ^= 1
            instrs[k] = ResourceBlock(block.duration, bytes(mask))
    elif kind in ("swap", "delete"):
        k = draw(st.sampled_from(layers))
        gates = list(instrs[k].gates)
        n = draw(st.integers(0, len(gates) - 1))
        if kind == "swap":
            new = draw(st.sampled_from(sorted(set(CONJUGATION) - {gates[n].type})))
            gates[n] = Gate(new, (gates[n].qubits[0],))
        else:
            del gates[n]
        instrs[k:k + 1] = [DigitalLayer(tuple(gates))] if gates else []
    elif kind == "rz":
        theta = draw(st.sampled_from([2 * math.pi, -2 * math.pi])
                     | st.floats(0.05, 6.2).flatmap(lambda a: st.sampled_from([a, -a])))
        rz = DigitalLayer((Gate(GateType.RZ, (draw(st.integers(0, L - 1)),), theta),))
        instrs.insert(draw(st.integers(0, len(instrs))), rz)
    return Circuit(L, tuple(instrs)), kind


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_frame_verdict_agrees_with_dense(data):
    circuit, resource, target = data.draw(compiled_problems(), label="problem")
    mutant, kind = data.draw(mutants(circuit), label="mutant")
    report = check_schedule(mutant, resource, target)
    dense = phase_distance(zz_evolution(target, circuit.num_qubits),
                           circuit_unitary(mutant, resource)).distance
    assert report.passed(TOL) == (dense < TOL), (kind, report.bound, report.frame_off, dense)
    if kind in ("none", "scale"):
        assert report.passed(TOL)
    if report.frame_off is None:
        assert report.bound >= math.sqrt(2) * dense - DENSE_NOISE, (kind, report.bound, dense)
