import math

import numpy as np
import pytest

from daqcompile import (
    AnalogRequest,
    Circuit,
    CouplingGraph,
    DigitalLayer,
    Gate,
    GateType,
    ResourceBlock,
    ata_circuit_general,
    circuit_stats,
    circuit_unitary,
    exact_target,
    lower_iswap_layer,
    lower_swap_layers,
    phase_distance,
)

from oracles import (
    I2,
    X,
    Y,
    Z,
    ata_circuit,
    ata_circuit_per_path,
    bridge_layers,
    bridges,
    complete_graph,
    evolution,
    general_swap,
    general_swap_unitary,
    ladder_sequence,
    zz_hamiltonian,
)


def random_graph(L, rng, lo=-1.0, hi=1.0):
    return CouplingGraph(L, {(i, j): rng.uniform(lo, hi) for i in range(L) for j in range(i + 1, L)})


# --- gates and layers --------------------------------------------------------

def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateType.ISWAP, (0, 2))
    with pytest.raises(ValueError):
        Gate(GateType.X, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateType.H, (0,), angle=0.1)
    assert Gate(GateType.RZ, (1,), 0.5).angle == 0.5
    assert Gate.iswap(2).qubits == (2, 3)


def test_single_qubit_gates_are_shared():
    assert Gate.x(3) is Gate.x(3)
    assert Gate.h(3) is not Gate.x(3) and Gate.r(0) is not Gate.r(1)
    for make, gate_type in ((Gate.x, GateType.X), (Gate.h, GateType.H), (Gate.r, GateType.R)):
        fresh = Gate(gate_type, (3,))
        assert make(3) == fresh and make(3) is not fresh and hash(make(3)) == hash(fresh)
    # the lowering builds its rotation layers from the shared gates
    out = lower_iswap_layer(DigitalLayer((Gate.iswap(1),)), 4)
    assert all(g is Gate.x(g.qubits[0]) for g in out[-1].gates)


def test_shared_gate_rejects_invalid_qubit_every_time():
    for _ in range(3):
        with pytest.raises(ValueError, match="negative qubit index"):
            Gate.h(-1)
    assert Gate.h(1).qubits == (1,)


def test_digital_layer_disjointness():
    with pytest.raises(ValueError):
        DigitalLayer((Gate.h(0), Gate.r(0)))
    with pytest.raises(ValueError):
        DigitalLayer((Gate.iswap(0), Gate.iswap(1)))
    with pytest.raises(ValueError):
        DigitalLayer(())


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (AnalogRequest((0.1, 0.2)),))
    with pytest.raises(ValueError):
        Circuit(2, (ResourceBlock(0.1, (False,)),))
    with pytest.raises(ValueError):
        ResourceBlock(-0.1, (False, False))


# --- general swap family -----------------------------------------------------

def test_general_swap_collapses_to_iswap():
    gs = general_swap(0.0, -0.5, 0.0)
    assert gs.rz_first == 0.0 and gs.rz_last == 0.0 and gs.zz_coefficient == 0.0
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(general_swap_unitary(gs), iswap, atol=1e-15)


def test_general_swap_alpha_one():
    gs = general_swap(1.0, 0.0, 0.0)
    assert gs.rz_last == pytest.approx(0.0)
    assert gs.rz_first == pytest.approx(-math.pi)
    assert gs.zz_coefficient == 1.0


def test_general_swap_matches_expm_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b, c = rng.uniform(-2, 2, 3)
        gs = general_swap(a, b, c)
        ent = evolution(math.pi / 4 * (np.kron(X, X) + np.kron(Y, Y) + gs.zz_coefficient * np.kron(Z, Z)))
        rz = lambda t: np.kron(I2, np.diag([np.exp(0.5j * t), np.exp(-0.5j * t)]))
        expected = rz(gs.rz_last) @ ent @ rz(gs.rz_first)
        assert np.allclose(general_swap_unitary(gs), expected, atol=1e-12)


def test_general_swap_relays_z_operators():
    z_low, z_high = np.kron(I2, Z), np.kron(Z, I2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = general_swap_unitary(general_swap(*rng.uniform(-3, 3, 3)))
        assert np.allclose(u @ z_low @ u.conj().T, z_high, atol=1e-12)
        assert np.allclose(u @ z_high @ u.conj().T, z_low, atol=1e-12)


# --- bridges ------------------------------------------------------------------

def test_bridge_layers_l4_k1():
    layers = bridges(ata_circuit(4, 0.2))[1]
    assert len(layers) == 2
    assert layers[0].gates == (Gate.iswap(0), Gate.iswap_dg(2))
    assert layers[1].gates == (Gate.iswap(1),)
    assert layers == bridge_layers(1, 4)


def test_bridge_layers_edges_are_two_mixed_ladders():
    for L in (6, 8, 10):
        compiled = bridges(ata_circuit(L, 0.2))
        for k in range(1, L // 2):
            layers = compiled[k]
            assert len(layers) == 2
            plain = {g.qubits[0] for la in layers for g in la.gates if g.type is GateType.ISWAP}
            dagger = {g.qubits[0] for la in layers for g in la.gates if g.type is GateType.ISWAP_DG}
            assert plain == set(range(0, 2 * k))
            assert dagger == set(range(2 * k, L - 1))


def _layers_unitary(layers, L):
    if not layers:
        return np.eye(1 << L, dtype=complex)
    return circuit_unitary(Circuit(L, tuple(layers))).astype(complex)


def _gtilde(k, L):
    """Product of iSWAP-dagger layers for path k, widest-first in time."""
    seq = ladder_sequence(k, L)
    layers = [DigitalLayer(tuple(Gate.iswap_dg(i) for i in layer)) for layer in reversed(seq.layers)]
    return _layers_unitary(layers, L)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_bridges_match_frame_compositions(L):
    compiled = bridges(ata_circuit(L, 0.2))
    for k in range(0, L // 2 + 1):
        f = _layers_unitary(compiled[k], L)
        if k == 0:
            expected = _gtilde(1, L).conj().T
        elif k == L // 2:
            expected = _gtilde(L // 2, L)
        else:
            expected = _gtilde(k + 1, L).conj().T @ _gtilde(k, L)
        assert phase_distance(f, expected).distance < 1e-12


# --- whole-circuit construction ----------------------------------------------

def test_ata_circuit_l2_is_single_analog():
    c = ata_circuit(2, 0.4)
    assert len(c.instructions) == 1
    assert isinstance(c.instructions[0], AnalogRequest)
    assert c.instructions[0].slot_angles == (0.4,)


def test_ata_circuit_l6_structure():
    c = ata_circuit(6, 0.3)
    analogs = [i for i in c.instructions if isinstance(i, AnalogRequest)]
    layers = [i for i in c.instructions if isinstance(i, DigitalLayer)]
    assert len(analogs) == 3
    # opening frame L-3 layers, two middle bridges of 2, closing frame L-2
    assert len(layers) == (6 - 3) + 2 + 2 + (6 - 2)
    assert all(a.slot_angles == (0.3,) * 5 for a in analogs)


def test_ata_circuit_accepts_odd():
    assert ata_circuit(5, 0.1) == ata_circuit_general(complete_graph(5, 1.0), 0.1)
    d = phase_distance(
        circuit_unitary(ata_circuit(5, 0.1)), exact_target(complete_graph(5, 1.0), 0.1)
    ).distance
    assert d < 1e-12


@pytest.mark.parametrize("L", range(3, 41))
def test_iswap_layer_count_is_linear(L):
    # even L: 3L-7 (the paper's bridged circuit); odd L: 3L-5
    expected = 3 * L - 7 if L % 2 == 0 else 3 * L - 5
    assert circuit_stats(ata_circuit(L, 0.3)).iswap_layer_count == expected


def test_ata_circuit_l4_unitary():
    target = complete_graph(4, 1.0)
    d = phase_distance(
        circuit_unitary(ata_circuit(4, 0.3)), exact_target(target, 0.3)
    ).distance
    assert d < 1e-12


def test_ata_general_homogeneous_reduces_to_ata_circuit():
    assert ata_circuit_general(complete_graph(6, 1.0), 0.7) == ata_circuit(6, 0.7)


def test_ata_general_single_coupling_hits_one_slot():
    target = CouplingGraph(4, {(0, 2): 0.9})
    c = ata_circuit_general(target, 0.5)
    nonzero = [
        (idx, slot)
        for idx, instr in enumerate(c.instructions)
        if isinstance(instr, AnalogRequest)
        for slot, a in enumerate(instr.slot_angles)
        if a != 0.0
    ]
    assert len(nonzero) == 1
    assert max(abs(a) for instr in c.instructions if isinstance(instr, AnalogRequest)
               for a in instr.slot_angles) == pytest.approx(0.45)


def test_ata_general_l5_random_unitary():
    rng = np.random.default_rng(31)
    target = random_graph(5, rng)
    d = phase_distance(
        circuit_unitary(ata_circuit_general(target, 0.8)), exact_target(target, 0.8)
    ).distance
    assert d < 1e-12


@pytest.mark.parametrize("L", [3, 5, 7, 9])
def test_ata_general_odd_sparse_exact(L):
    rng = np.random.default_rng(900 + L)
    target = CouplingGraph(L, {
        (i, j): rng.normal() for i in range(L) for j in range(i + 1, L) if rng.random() < 0.4
    })
    d = phase_distance(
        circuit_unitary(ata_circuit_general(target, 0.7)), exact_target(target, 0.7)
    ).distance
    assert d < 1e-12


@pytest.mark.parametrize("L", [4, 6])
def test_bridged_equals_per_path_circuits(L):
    rng = np.random.default_rng(41 + L)
    target = random_graph(L, rng)
    u_f = circuit_unitary(ata_circuit_general(target, 0.43))
    u_g = circuit_unitary(ata_circuit_per_path(target, 0.43))
    assert phase_distance(u_f, u_g).distance < 1e-12


# --- lowering ------------------------------------------------------------------

def test_lower_single_iswap_l2():
    out = lower_iswap_layer(DigitalLayer((Gate.iswap(0),)), 2)
    requests = [i for i in out if isinstance(i, AnalogRequest)]
    assert len(requests) == 2
    assert all(r.slot_angles == (math.pi / 4,) for r in requests)


def test_lower_mixed_layer_l6():
    layer = DigitalLayer((Gate.iswap(1), Gate.iswap_dg(3)))
    out = lower_iswap_layer(layer, 6)
    requests = [i for i in out if isinstance(i, AnalogRequest)]
    assert len(requests) == 2
    assert requests[0].slot_angles == (0.0, math.pi / 4, 0.0, -math.pi / 4, 0.0)
    touched = {g.qubits[0] for i in out if isinstance(i, DigitalLayer) for g in i.gates}
    assert touched == {1, 2, 3, 4}


def test_lower_rejects_mixed_gate_kinds():
    with pytest.raises(ValueError):
        lower_iswap_layer(DigitalLayer((Gate.h(0),)), 2)


def test_lower_swap_layers_passthrough():
    c = Circuit(3, (AnalogRequest((0.1, 0.2)),))
    assert lower_swap_layers(c) == c


def test_lowered_layer_unitary_matches():
    rng = np.random.default_rng(4)
    for L in (2, 4, 6):
        starts = [i for i in range(0, L - 1, 2) if rng.random() < 0.8]
        if not starts:
            starts = [0]
        gates = tuple(
            Gate.iswap(i) if rng.random() < 0.5 else Gate.iswap_dg(i) for i in starts
        )
        layer = DigitalLayer(gates)
        u_layer = circuit_unitary(Circuit(L, (layer,)))
        u_lowered = circuit_unitary(Circuit(L, tuple(lower_iswap_layer(layer, L))))
        assert phase_distance(u_layer, u_lowered).distance < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_lowered_layer_conjugation_relabels_zz(L):
    # swap-conjugation law checked on the lowered gates, not the ideal layer
    layer = DigitalLayer((Gate.iswap(0),)) if L < 4 else DigitalLayer((Gate.iswap(0), Gate.iswap_dg(2)))
    tau = {0: 1, 1: 0} | ({2: 3, 3: 2} if L == 4 else {})
    u = circuit_unitary(Circuit(L, tuple(lower_iswap_layer(layer, L)))).astype(complex)
    for k in range(L):
        for l in range(k + 1, L):
            zz = zz_hamiltonian({(k, l): 1.0}, L)
            mapped = zz_hamiltonian({tuple(sorted((tau.get(k, k), tau.get(l, l)))): 1.0}, L)
            assert np.allclose(u @ zz @ u.conj().T, mapped, atol=1e-12)


# --- stats ---------------------------------------------------------------------

def test_stats_trivial_homogeneous():
    st = circuit_stats(ata_circuit(2, 0.5))
    assert st.analog_block_count == 1
    assert st.iswap_layer_count == 0
    assert st.sqr_count == 0


def test_stats_lowered_l6_request_count():
    lowered = lower_swap_layers(ata_circuit(6, 0.5))
    st = circuit_stats(lowered)
    # 3 path evolutions + 2 per iSWAP layer; reported alongside 5L-12 = 18
    assert st.analog_block_count == 3 + 2 * 11
    assert st.iswap_layer_count == 0
    assert circuit_stats(ata_circuit(6, 0.5)).iswap_layer_count == 11


def test_stats_deterministic_across_runs():
    rng1 = np.random.default_rng(55)
    rng2 = np.random.default_rng(55)
    a = ata_circuit_general(random_graph(8, rng1), 0.9)
    b = ata_circuit_general(random_graph(8, rng2), 0.9)
    assert a == b
    assert circuit_stats(lower_swap_layers(a)) == circuit_stats(lower_swap_layers(b))


def test_resource_block_durations_and_masks():
    blk = ResourceBlock(0.2, (True, False, True))
    assert blk.slot_signs() == (-1, -1)
    assert ResourceBlock(0.0, (False, False)).duration == 0.0


def test_resource_block_mask_forms():
    expected = ResourceBlock(0.5, b"\1\0\1\1")
    assert expected.x_mask == b"\x01\x00\x01\x01"
    for mask in ((True, False, True, True), [True, False, True, True], np.array([1, 0, 1, 1], dtype=bool),
                 np.array([[False] * 4, [True, False, True, True]])[1]):
        block = ResourceBlock(0.5, mask)
        assert block == expected and type(block.x_mask) is bytes, mask
        assert hash(block) == hash(expected)
    for mask in (b"\1\2\0", b"\xff\0", b"\0\1\x80"):
        with pytest.raises(ValueError, match="x_mask bytes must be 0 or 1"):
            ResourceBlock(0.5, mask)
