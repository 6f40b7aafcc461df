import itertools
import math

import numpy as np
import pytest

from daqcompile.circuits import AnalogRequest, Circuit, DigitalLayer, Gate, GateType, ResourceBlock
from daqcompile.graphs import CouplingGraph, NNChain, walecki_cover, zigzag_path
from daqcompile.swaps import SwapSequence, sort_network_sequence, walecki_sequence
from daqcompile.unitaries import DistanceReport, circuit_unitary, exact_target, phase_distance, zz_evolution

from oracles import (
    X,
    apply_sequence,
    check_value_semantics,
    complete_graph,
    evolution,
    gate_unitary,
    identity_permutation,
    is_unitary,
    kron_embed,
    pauli_z,
    random_unitary,
    slot_signs,
    zz_hamiltonian,
)


def frame_circuit(seq: SwapSequence, slot_angles) -> Circuit:
    """Plain swap layers forward, analog evolution, daggered layers backward."""
    instrs = [DigitalLayer(tuple(Gate.iswap(i) for i in layer)) for layer in seq.layers]
    instrs.append(AnalogRequest(tuple(slot_angles)))
    instrs.extend(
        DigitalLayer(tuple(Gate.iswap_dg(i) for i in layer)) for layer in reversed(seq.layers)
    )
    return Circuit(seq.num_qubits, tuple(instrs))


# --- gate embeddings ----------------------------------------------------------

def test_x_gate_l1_matrix():
    assert np.array_equal(gate_unitary(Gate(GateType.X, (0,)), 1), X)


def test_single_qubit_embedding_matches_kron_oracle():
    from daqcompile.unitaries import gate_matrix

    rng = np.random.default_rng(2)
    for _ in range(20):
        L = int(rng.integers(1, 6))
        q = int(rng.integers(0, L))
        angle = float(rng.uniform(-3, 3))
        kind = [GateType.X, GateType.H, GateType.R, GateType.RZ][int(rng.integers(0, 4))]
        gate = Gate(kind, (q,), angle if kind is GateType.RZ else 0.0)
        mine = gate_unitary(gate, L)
        oracle = kron_embed(np.asarray(gate_matrix(gate)), q, L)
        assert np.allclose(mine, oracle, atol=1e-15)


def test_circuit_application_matches_full_matrices():
    # tensor-contraction application vs explicit embedded-matrix products
    rng = np.random.default_rng(6)
    L = 4
    layers = (
        DigitalLayer((Gate(GateType.H, (0,)), Gate(GateType.R, (2,)))),
        DigitalLayer((Gate.iswap(1),)),
        DigitalLayer((Gate(GateType.RZ, (3,), 0.7),)),
        DigitalLayer((Gate.iswap_dg(2),)),
    )
    u = circuit_unitary(Circuit(L, layers))
    oracle = np.eye(1 << L, dtype=complex)
    for layer in layers:
        for g in layer.gates:
            oracle = np.asarray(gate_unitary(g, L)) @ oracle
    assert np.allclose(u, oracle, atol=1e-12)


@pytest.mark.parametrize("layer", [
    DigitalLayer((Gate(GateType.X, (0,)), Gate(GateType.X, (2,)), Gate(GateType.X, (3,)))),  # all x: one row permutation
    DigitalLayer((Gate(GateType.X, (1,)), Gate(GateType.H, (0,)), Gate(GateType.X, (3,)))),  # mixed: gate by gate
    DigitalLayer((Gate(GateType.X, (2,)),)),
])
def test_x_layers_match_full_matrices(layer):
    L = 4
    before = (
        DigitalLayer((Gate(GateType.H, (0,)), Gate(GateType.R, (1,)), Gate(GateType.H, (3,)))),
        DigitalLayer((Gate.iswap(1),)),
        AnalogRequest((0.3, -0.8, 1.1)),
    )
    after = (DigitalLayer((Gate.iswap_dg(2), Gate(GateType.R, (0,)))),)
    u = circuit_unitary(Circuit(L, before + (layer,) + after))
    oracle = np.eye(1 << L, dtype=complex)
    for instr in before + (layer,) + after:
        if isinstance(instr, AnalogRequest):
            angles = {(j, j + 1): phi for j, phi in enumerate(instr.slot_angles)}
            oracle = evolution(zz_hamiltonian(angles, L)) @ oracle
        else:
            for g in instr.gates:
                oracle = np.asarray(gate_unitary(g, L)) @ oracle
    assert np.allclose(u, oracle, atol=1e-12)


@pytest.mark.parametrize("qubits", [
    tuple(range(9)),     # two full chunks and a single qubit
    (0, 2, 3, 4, 8),     # a gap inside the first chunk; the last qubit alone
    (1, 5, 6, 7, 8),     # a chunk that starts above qubit 0
    (3, 7),              # two gates that land in one chunk only if it were aligned
    (8,),
])
def test_single_qubit_layers_match_gate_by_gate_products(qubits):
    # Layers without iSWAPs are applied up to four adjacent qubits at a time.
    L = 9
    rng = np.random.default_rng(len(qubits))
    kinds = [GateType.H, GateType.R, GateType.X, GateType.RZ]

    def gate(q):
        kind = kinds[(q + len(qubits)) % 4]
        return Gate(kind, (q,), float(rng.uniform(-3, 3)) if kind is GateType.RZ else 0.0)

    layer = DigitalLayer(tuple(map(gate, qubits)))
    oracle = np.eye(1 << L, dtype=complex)
    for g in layer.gates:
        oracle = np.asarray(gate_unitary(g, L)) @ oracle
    assert np.allclose(circuit_unitary(Circuit(L, (layer,))), oracle, rtol=0, atol=1e-14)


def test_iswap_basis_action():
    u = gate_unitary(Gate.iswap(0), 2)
    assert u[0, 0] == 1, "fixes |00>"
    assert u[3, 3] == 1, "fixes |11>"
    assert u[2, 1] == 1j and u[1, 2] == 1j, "maps |01> -> i|10>"
    assert u[1, 1] == 0 and u[2, 2] == 0


def test_iswap_relays_z_exactly():
    u = np.asarray(gate_unitary(Gate.iswap(0), 2))
    z0, z1 = pauli_z(0, 2), pauli_z(1, 2)
    assert np.array_equal(u @ z0 @ u.conj().T, z1)
    assert np.array_equal(u @ z1 @ u.conj().T, z0)


# --- diagonal evolutions --------------------------------------------------------

def test_zz_single_edge_pi_is_global_minus_one():
    u = zz_evolution({(0, 1): math.pi}, 2)
    assert np.allclose(u, -np.eye(4), atol=1e-15)


def test_zz_l2_quarter_angle():
    u = zz_evolution({(0, 1): math.pi / 4}, 2)
    e = np.exp(1j * math.pi / 4)
    assert np.allclose(np.diag(u), [e, e.conjugate(), e.conjugate(), e], atol=1e-15)


def test_zz_matches_expm_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        L = int(rng.integers(2, 5))
        angles = {
            (i, j): float(rng.uniform(-1, 1))
            for i in range(L)
            for j in range(i + 1, L)
            if rng.random() < 0.7
        }
        mine = zz_evolution(angles, L)
        oracle = evolution(zz_hamiltonian(angles, L))
        assert np.allclose(mine, oracle, atol=1e-12)


def test_product_of_path_evolutions_is_summed_graph():
    L, t1, t2 = 6, 0.4, 0.9
    p1, p2 = walecki_cover(L).paths[:2]
    e1 = {tuple(sorted((p1[j], p1[j + 1]))): t1 for j in range(L - 1)}
    e2 = {tuple(sorted((p2[j], p2[j + 1]))): t2 for j in range(L - 1)}
    product = np.asarray(zz_evolution(e1, L)) @ np.asarray(zz_evolution(e2, L))
    merged = dict(e1)
    for k, v in e2.items():
        merged[k] = merged.get(k, 0.0) + v
    assert phase_distance(product, zz_evolution(merged, L)).distance < 1e-12


def test_diagonal_blocks_commute_exactly():
    a = {(0, 1): 0.3, (2, 3): -0.8}
    b = {(1, 2): 1.1}
    u1 = np.asarray(zz_evolution(a, 4)) @ np.asarray(zz_evolution(b, 4))
    u2 = np.asarray(zz_evolution(b, 4)) @ np.asarray(zz_evolution(a, 4))
    assert np.array_equal(u1, u2)


def test_exact_target_cases():
    assert np.allclose(exact_target(complete_graph(3), 0.0), np.eye(8), atol=1e-16)
    k2 = exact_target(complete_graph(2, 0.5), 0.8)
    assert np.allclose(k2, zz_evolution({(0, 1): 0.4}, 2), atol=1e-16)
    # homogeneous K_6 equals the product of its three path evolutions
    paths = walecki_cover(6).paths
    product = np.eye(64, dtype=complex)
    for p in paths:
        edges = {tuple(sorted((p[j], p[j + 1]))): 0.7 for j in range(5)}
        product = np.asarray(zz_evolution(edges, 6)) @ product
    assert phase_distance(product, exact_target(complete_graph(6), 0.7)).distance < 1e-12


# --- circuits -------------------------------------------------------------------

def test_empty_circuit_is_identity():
    assert np.array_equal(circuit_unitary(Circuit(3, ())), np.eye(8))


def test_conjugated_chain_equals_path_evolution_fig3():
    # L=6, path 3: four swap columns either side of the chain evolution
    L, t = 6, 0.63
    seq = walecki_sequence(3, L)
    p = zigzag_path(3, L)
    u = circuit_unitary(frame_circuit(seq, [t] * (L - 1)))
    v = zz_evolution({tuple(sorted((p[j], p[j + 1]))): t for j in range(L - 1)}, L)
    assert phase_distance(u, v).distance < 1e-12


def test_conjugated_chain_two_swap_example():
    # swapping positions (1,2) then (2,3) of a 5-chain realises the path [0,2,3,1,4]
    L, t = 5, 0.44
    seq = SwapSequence(L, ((1,), (2,)))
    assert apply_sequence(identity_permutation(L), seq) == (0, 2, 3, 1, 4)
    u = circuit_unitary(frame_circuit(seq, [t] * 4))
    edges = {(0, 2): t, (2, 3): t, (1, 3): t, (1, 4): t}
    assert phase_distance(u, zz_evolution(edges, L)).distance < 1e-12


def test_conjugation_duality_random_sequences():
    rng = np.random.default_rng(12)
    for _ in range(15):
        L = int(rng.integers(2, 7))
        perm = tuple(rng.permutation(L))
        seq = sort_network_sequence(perm)
        angles = rng.uniform(-1.5, 1.5, L - 1)
        u = circuit_unitary(frame_circuit(seq, angles))
        edges = {}
        for j in range(L - 1):
            edge = tuple(sorted((perm[j], perm[j + 1])))
            edges[edge] = edges.get(edge, 0.0) + angles[j]
        assert phase_distance(u, zz_evolution(edges, L)).distance < 1e-12


@pytest.mark.parametrize("bits", ["".join(bits) for bits in itertools.product("01", repeat=4)])
def test_resource_block_equals_explicit_x_conjugation(bits):
    # bits[q] is qubit q's mask bit; the couplings are asymmetric, so a mask
    # read in reversed bit order gives another unitary
    L, d = 4, 0.7
    resource = NNChain(L, (0.9, -1.2, 0.35))
    mask = bytes(map(int, bits))
    direct = circuit_unitary(Circuit(L, (ResourceBlock(d, mask),)), resource)
    plain = AnalogRequest(tuple(g * d for g in resource.couplings))
    flipped = tuple(Gate(GateType.X, (q,)) for q in range(L) if mask[q])
    instrs = (DigitalLayer(flipped), plain, DigitalLayer(flipped)) if flipped else (plain,)
    conjugated = circuit_unitary(Circuit(L, instrs))
    assert phase_distance(direct, conjugated).distance < 1e-12
    # the oracle's slot signs say the same
    signed = AnalogRequest(tuple(g * d * sign for g, sign in zip(resource.couplings, slot_signs(mask))))
    assert phase_distance(direct, circuit_unitary(Circuit(L, (signed,)))).distance < 1e-12


def test_circuit_unitary_requires_resource_for_blocks():
    c = Circuit(2, (DigitalLayer((Gate(GateType.H, (0,)),)), ResourceBlock(0.1, b"\0\0")))
    with pytest.raises(ValueError, match="circuit contains resource blocks: pass the chain"):
        circuit_unitary(c)
    with pytest.raises(ValueError, match="resource chain size does not match the circuit"):
        circuit_unitary(c, NNChain(3, (1.0, 1.0)))
    # a resource of the wrong size is rejected even where no block needs it
    with pytest.raises(ValueError, match="resource chain size does not match the circuit"):
        circuit_unitary(Circuit(2, ()), NNChain(3, (1.0, 1.0)))
    assert np.array_equal(circuit_unitary(Circuit(2, ()), NNChain(2, (1.0,))), np.eye(4))


def test_products_stay_unitary():
    rng = np.random.default_rng(19)
    target = CouplingGraph(4, {(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(i + 1, 4)})
    from daqcompile.circuits import ata_circuit_general, lower_swap_layers

    u = circuit_unitary(lower_swap_layers(ata_circuit_general(target, 0.8)))
    assert is_unitary(np.asarray(u, dtype=complex))


# --- distance -------------------------------------------------------------------

def test_phase_distance_identical():
    rng = np.random.default_rng(21)
    u = random_unitary(rng, 8)
    assert phase_distance(u, u).distance < 1e-12


def test_phase_distance_global_phase_invariance():
    rng = np.random.default_rng(22)
    u = random_unitary(rng, 16)
    for theta in rng.uniform(0, 2 * math.pi, 5):
        v = np.exp(1j * theta) * u
        assert phase_distance(u, v).distance < 1e-12
        # the aligning phase is the argument of tr(U^dag V)
        phase = np.angle(np.vdot(u, v))
        assert abs((phase - theta + math.pi) % (2 * math.pi) - math.pi) < 1e-12


@pytest.mark.parametrize("dim", [8, 64, 256])
def test_phase_distance_resolves_small_errors(dim):
    # V = U diag(1, ..., e^{i eps}, ..., 1), so tr(U^dag V) = dim - 1 + e^{i eps}
    rng = np.random.default_rng(dim)
    u = random_unitary(rng, dim)
    j = int(rng.integers(0, dim))
    for eps in (1e-8, 1e-10, 1e-12, 1e-3):
        phases = np.ones(dim, dtype=complex)
        phases[j] = np.exp(1j * eps)
        v = u * phases
        # 1 - |tr|/dim = (dim^2 - |tr|^2) / (dim (dim + |tr|)), without cancellation
        lost = 4 * (dim - 1) * math.sin(eps / 2) ** 2
        exact = math.sqrt(lost / (dim * (dim + math.sqrt(dim * dim - lost))))
        distance = phase_distance(u, v).distance
        assert distance == pytest.approx(exact, rel=0.05), eps
        if eps == 1e-3:
            trace_form = math.sqrt(1 - abs(np.vdot(u, v)) / dim)
            assert distance == pytest.approx(trace_form, rel=1e-6)


def test_phase_distance_orthogonal_case():
    ident = np.eye(4, dtype=complex)
    x_high = kron_embed(X, 1, 2)
    assert phase_distance(ident, x_high).distance == pytest.approx(1.0)


def test_phase_distance_shape_mismatch():
    with pytest.raises(ValueError):
        phase_distance(np.eye(2), np.eye(4))



VALUE_CASES = [(DistanceReport, {"distance": 1e-15}, {"distance": 0.5})]


def test_distance_report_value_semantics():
    check_value_semantics(*VALUE_CASES[0])
