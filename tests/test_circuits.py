import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from daqcompile.circuits import (
    AnalogRequest,
    Circuit,
    DigitalLayer,
    Gate,
    GateType,
    ResourceBlock,
    ScheduleStats,
    _UNDO,
    ata_circuit_general,
    circuit_stats,
    lower_swap_layers,
)
from daqcompile.graphs import CouplingGraph, NNChain
from daqcompile.swaps import sort_network_sequence
from daqcompile.unitaries import circuit_unitary, exact_target, phase_distance

from oracles import (
    I2,
    IDENTITY_FRAME,
    X,
    Y,
    Z,
    ata_circuit,
    ata_circuit_cancelled,
    ata_circuit_per_path,
    bridge_layers,
    bridges,
    check_value_semantics,
    complete_graph,
    evolution,
    frame_after,
    general_swap,
    general_swap_unitary,
    ladder_sequence,
    lower_iswap_layer,
    lower_per_layer,
    path_route_circuit,
    shortest_clifford_word,
    shortest_swap_network,
    single_qubit_frames,
    slot_signs,
    zz_hamiltonian,
)


def random_graph(L, rng, lo=-1.0, hi=1.0):
    return CouplingGraph(L, {(i, j): rng.uniform(lo, hi) for i in range(L) for j in range(i + 1, L)})


def iswap_layer_count(circuit):
    return sum(1 for i in circuit.instructions if isinstance(i, DigitalLayer) and i.has_iswaps)


def layer_sharing(circuit):
    """Each digital layer as its object's number in order of first appearance: the circuit's object sharing."""
    first = {}
    return [first.setdefault(id(i), len(first)) for i in circuit.instructions if isinstance(i, DigitalLayer)]


def path_route(L, t_f):
    """The homogeneous all-to-all circuit on the path route of tests/oracles.py."""
    return path_route_circuit(complete_graph(L, 1.0), t_f)


def lowered_layer(layer, L):
    """The compiler's lowering of a circuit that is one iSWAP layer."""
    return list(lower_swap_layers(Circuit(L, (layer,))).instructions)


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
    for gate_type in (GateType.X, GateType.H, GateType.R):
        gate, fresh = Gate(gate_type, (3,)), Gate(gate_type, (3,))
        assert gate == fresh and hash(gate) == hash(fresh)
    assert Gate(GateType.H, (3,)) != Gate(GateType.X, (3,)) and Gate(GateType.R, (0,)) != Gate(GateType.R, (1,))
    # the lowering builds its rotation layers from these gates, with no angle
    out = lowered_layer(DigitalLayer((Gate.iswap(1),)), 4)
    layers = [i for i in out if isinstance(i, DigitalLayer)]
    assert {la.gates[0].type for la in layers} == {GateType.X, GateType.H, GateType.R}
    assert all(g == Gate(g.type, g.qubits) for la in layers for g in la.gates)


def test_shared_gate_rejects_invalid_qubit_every_time():
    for _ in range(3):
        with pytest.raises(ValueError, match="negative qubit index"):
            Gate(GateType.H, (-1,))
    assert Gate(GateType.H, (1,)).qubits == (1,)


def test_digital_layer_disjointness():
    with pytest.raises(ValueError):
        DigitalLayer((Gate(GateType.H, (0,)), Gate(GateType.R, (0,))))
    with pytest.raises(ValueError):
        DigitalLayer((Gate.iswap(0), Gate.iswap(1)))
    with pytest.raises(ValueError):
        DigitalLayer(())


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (AnalogRequest((0.1, 0.2)),))
    with pytest.raises(ValueError):
        Circuit(2, (ResourceBlock(0.1, b"\0"),))
    with pytest.raises(ValueError):
        ResourceBlock(-0.1, b"\0\0")


def test_circuit_refuses_block_durations_summing_past_the_float_range():
    block = ResourceBlock(1e308, b"\0\1")
    assert circuit_stats(Circuit(2, (block,))).total_analog_time == 1e308
    with pytest.raises(ValueError, match="block durations sum beyond the float range"):
        Circuit(2, (block, block))


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
    layers = bridges(path_route(4, 0.2))[1]
    assert len(layers) == 2
    assert layers[0].gates == (Gate.iswap(0), Gate.iswap_dg(2))
    assert layers[1].gates == (Gate.iswap(1),)
    assert layers == bridge_layers(1, 4)


def test_bridge_layers_edges_are_two_mixed_ladders():
    for L in (6, 8, 10):
        compiled = bridges(path_route(L, 0.2))
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
    compiled = bridges(path_route(L, 0.2))
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
    c = path_route(6, 0.3)
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
    assert iswap_layer_count(path_route(L, 0.3)) == expected


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
    u_f = circuit_unitary(path_route_circuit(target, 0.43))
    u_g = circuit_unitary(ata_circuit_per_path(target, 0.43))
    assert phase_distance(u_f, u_g).distance < 1e-12


@pytest.mark.parametrize("L", [*range(2, 66), 96, 97])
def test_bridge_rule_equals_cancelled_frames(L):
    # Above L=10 the cancelled frames are the only check on odd L: no
    # closed form exists there and dense unitaries are out of reach.
    rng = np.random.default_rng(700 + L)
    edges = [(i, j) for i in range(L) for j in range(i + 1, L)]
    targets = {
        "dense": {e: rng.normal() for e in edges},
        "sparse 0.3": {e: rng.normal() for e in edges if rng.random() < 0.3},
        "all zero": dict.fromkeys(edges, 0.0),
    }
    for name, weights in targets.items():
        target = CouplingGraph(L, weights)
        assert path_route_circuit(target, 0.61) == ata_circuit_cancelled(target, 0.61), name


def test_ata_general_synthesises_two_frames(monkeypatch):
    calls = []

    def counted(path):
        calls.append(path)
        return sort_network_sequence(path)

    monkeypatch.setattr(oracles, "sort_network_sequence", counted)
    path_route_circuit(complete_graph(33, 1.0), 0.3)
    assert len(calls) == 2


# --- the swap-network route ------------------------------------------------------

def test_swap_network_l2_is_one_request():
    c = ata_circuit_general(CouplingGraph(2, {(0, 1): 0.5}), 0.4)
    assert c.instructions == (AnalogRequest((0.2,)),)
    assert lower_swap_layers(c) == c


@pytest.mark.parametrize("L", range(3, 41))
def test_swap_network_layer_and_request_counts(L):
    c = ata_circuit(L, 0.3)
    assert iswap_layer_count(c) == 2 * L - 4
    requests = sum(isinstance(i, AnalogRequest) for i in lower_swap_layers(c).instructions)
    assert requests == (3 * L - 4 if L % 2 == 0 else 3 * L - 3)
    # the route shares its layer objects: plain and daggered on each slot
    # parity (L = 3 has one forward layer, on slot 0)
    layers = {id(i): i for i in c.instructions if isinstance(i, DigitalLayer)}
    assert sorted(tuple((g.type, g.qubits[0]) for g in la.gates) for la in layers.values()) == sorted(
        tuple((kind, j) for j in range(p, L - 1, 2))
        for kind in (GateType.ISWAP, GateType.ISWAP_DG) for p in range(min(2, L - 2))
    )


@pytest.mark.parametrize("L", [*range(2, 34), 96, 97])
def test_swap_network_assigns_every_pair_once(L):
    # Walk the logical qubits through the iSWAP layers (above L=8 the dense
    # unitary cannot check the route; this walk and the generic rule in
    # test_swap_network_matches_its_generic_rule do): each pair meets its
    # t*w on exactly one slot of one request, and the qubits end where they
    # began.
    weights = {(i, j): 1.0 + i + L * j for i in range(L) for j in range(i + 1, L)}
    c = ata_circuit_general(CouplingGraph(L, weights), 0.5)
    order = list(range(L))
    seen = {}
    for instr in c.instructions:
        if isinstance(instr, AnalogRequest):
            for j, angle in enumerate(instr.slot_angles):
                if angle:
                    edge = tuple(sorted(order[j:j + 2]))
                    assert edge not in seen
                    seen[edge] = angle
        else:
            for g in instr.gates:
                a, b = g.qubits
                order[a], order[b] = order[b], order[a]
    assert order == list(range(L))
    assert seen == {e: 0.5 * w for e, w in weights.items()}


@pytest.mark.parametrize("L", [*range(2, 65), 96, 97, 128, 129])
def test_swap_network_matches_its_generic_rule(L):
    # The closed rule places every request where tracking the pairs that
    # have met places it: instructions with equal reprs, so the same sign on
    # every zero angle (a negative time turns an absent edge's 0.0
    # into -0.0, while slots a request leaves out stay 0.0), and the same
    # layer objects at the same places.
    rng = random.Random(L)
    dense = random_graph(L, rng)
    sparse = CouplingGraph(L, {(i, j): rng.gauss(0.0, 1.0) for i in range(L) for j in range(i + 1, L)
                               if rng.random() < 0.3})
    for target in (dense, sparse, CouplingGraph(L, {})):
        for t_f in (0.7, -0.7):
            got = ata_circuit_general(target, t_f)
            want = oracles.ata_circuit_pending_pairs(target, t_f)
            assert list(map(repr, got.instructions)) == list(map(repr, want.instructions))
            assert layer_sharing(got) == layer_sharing(want)


@pytest.mark.parametrize("L", range(2, 7))
def test_no_shorter_swap_network_covers_every_pair(L):
    # Exhaustive over layered swap networks (any disjoint slots per layer)
    # that make every pair adjacent and return to the identity.
    assert shortest_swap_network(L, max(0, 2 * L - 4)) == max(0, 2 * L - 4)
    assert iswap_layer_count(ata_circuit(L, 0.1)) == max(0, 2 * L - 4)


# --- lowering ------------------------------------------------------------------

def word(instrs):
    """Each instruction as its gate kind (one kind per lowered layer), or "req" for a request."""
    return [i.gates[0].type.value if isinstance(i, DigitalLayer) else "req" for i in instrs]


def test_lower_single_iswap_l2():
    layer = DigitalLayer((Gate.iswap(0),))
    out = lowered_layer(layer, 2)
    # h opens the XX half, r turns it into the YY half, x r h returns to the identity
    assert word(out) == ["h", "req", "r", "req", "x", "r", "h"]
    requests = [i for i in out if isinstance(i, AnalogRequest)]
    assert len(requests) == 2 and requests[0] is requests[1]
    assert all(r.slot_angles == (math.pi / 4,) for r in requests)
    reference = Circuit(2, tuple(lower_iswap_layer(layer, 2)))
    assert phase_distance(circuit_unitary(Circuit(2, tuple(out))), circuit_unitary(reference)).distance < 1e-12


def test_lower_mixed_layer_l6():
    layer = DigitalLayer((Gate.iswap(1), Gate.iswap_dg(3)))
    out = lowered_layer(layer, 6)
    assert word(out) == ["h", "req", "r", "req", "x", "r", "h"]
    requests = [i for i in out if isinstance(i, AnalogRequest)]
    assert len(requests) == 2 and requests[0] is requests[1]
    assert requests[0].slot_angles == (0.0, math.pi / 4, 0.0, -math.pi / 4, 0.0)
    assert all(tuple(g.qubits[0] for g in i.gates) == (1, 2, 3, 4) for i in out if isinstance(i, DigitalLayer))
    reference = Circuit(6, tuple(lower_iswap_layer(layer, 6)))
    assert phase_distance(circuit_unitary(Circuit(6, tuple(out))), circuit_unitary(reference)).distance < 1e-12


@pytest.mark.parametrize("layer", [
    DigitalLayer((Gate.iswap(0), Gate(GateType.H, (2,)))),
    DigitalLayer((Gate(GateType.X, (0,)), Gate(GateType.X, (2,)))),
    DigitalLayer((Gate(GateType.H, (1,)),)),
    DigitalLayer((Gate(GateType.R, (0,)), Gate(GateType.R, (1,)), Gate(GateType.R, (2,)))),
    DigitalLayer((Gate(GateType.RZ, (1,), 0.3),)),
], ids=["mixed", "x", "h", "r", "rz"])
def test_lower_rejects_mixed_gate_kinds(layer):
    # the lowering takes what a route builds: iSWAP layers, requests and blocks
    run = DigitalLayer((Gate.iswap(0),))
    with pytest.raises(ValueError, match="takes iSWAP layers, requests and blocks; a layer holds a single-qubit gate"):
        lower_swap_layers(Circuit(3, (run, AnalogRequest((0.1, 0.2)), layer, run)))


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
        u_lowered = circuit_unitary(Circuit(L, tuple(lowered_layer(layer, L))))
        assert phase_distance(u_layer, u_lowered).distance < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_lowered_layer_conjugation_relabels_zz(L):
    # swap-conjugation law checked on the lowered gates, not the ideal layer
    layer = DigitalLayer((Gate.iswap(0),)) if L < 4 else DigitalLayer((Gate.iswap(0), Gate.iswap_dg(2)))
    tau = {0: 1, 1: 0} | ({2: 3, 3: 2} if L == 4 else {})
    u = circuit_unitary(Circuit(L, tuple(lowered_layer(layer, L)))).astype(complex)
    for k in range(L):
        for l in range(k + 1, L):
            zz = zz_hamiltonian({(k, l): 1.0}, L)
            mapped = zz_hamiltonian({tuple(sorted((tau.get(k, k), tau.get(l, l)))): 1.0}, L)
            assert np.allclose(u @ zz @ u.conj().T, mapped, atol=1e-12)


def test_merged_run_of_two_layers():
    a = DigitalLayer((Gate.iswap(0), Gate.iswap_dg(2)))
    b = DigitalLayer((Gate.iswap_dg(1),))
    out = list(lower_swap_layers(Circuit(5, (a, b))).instructions)
    q = math.pi / 4
    assert [i.slot_angles for i in out if isinstance(i, AnalogRequest)] == [
        (q, 0.0, -q, 0.0), (q, -q, -q, 0.0), (0.0, -q, 0.0, 0.0),
    ]
    # XX of a, then the YY halves of both, then XX of b, one frame on every
    # qubit the run touches: one layer moves it between requests
    assert word(out) == ["h", "req", "r", "req", "r", "req", "x", "h"]
    assert all(tuple(g.qubits[0] for g in la.gates) == (0, 1, 2, 3) for la in out if isinstance(la, DigitalLayer))
    assert phase_distance(circuit_unitary(Circuit(5, (a, b))),
                          circuit_unitary(Circuit(5, tuple(out)))).distance < 1e-12


def _clifford_frame(c):
    """(C^dag X C, C^dag Z C) of a one-qubit Clifford matrix, each as (x, z, e) = i^e X^x Z^z."""
    paulis = {(x, z, e): 1j ** e * np.linalg.matrix_power(X, x) @ np.linalg.matrix_power(Z, z)
              for x in (0, 1) for z in (0, 1) for e in range(4)}
    return tuple(next(p for p, m in paulis.items() if np.allclose(c.conj().T @ pauli @ c, m)) for pauli in (X, Z))


def test_undo_words_are_the_shortest_words_home():
    # the lowering's frames, S^p and (once opened) H S^p, derived from the matrices
    s, h = np.diag([1.0, 1j]), (X + Z) / math.sqrt(2.0)
    frames = {(opened, p): _clifford_frame(np.linalg.matrix_power(h, opened) @ np.linalg.matrix_power(s, p))
              for opened in (0, 1) for p in range(4)}
    assert len(set(frames.values())) == 8
    for (opened, p), frame in frames.items():
        assert _UNDO[opened][p] == shortest_clifford_word(frame), (opened, p)
        # h opens S^p to H S^p and closes it back; r takes H S^p to H S^(p+1)
        assert frame_after(frame, GateType.H) == frames[1 - opened, p]
        if opened:
            assert frame_after(frame, GateType.R) == frames[1, (p + 1) % 4]
    # from the identity, h, r on an open frame and the undo words reach no other frame
    label = {frame: key for key, frame in frames.items()}
    reached, todo = set(), [IDENTITY_FRAME]
    while todo:
        frame = todo.pop()
        if frame in reached:
            continue
        reached.add(frame)
        opened, p = label[frame]
        for word in ("h", "r", _UNDO[1][p]) if opened else ("h", _UNDO[0][p]):
            moved = frame
            for gate in word:
                moved = frame_after(moved, GateType(gate))
            todo.append(moved)
    assert reached == set(frames.values())


@st.composite
def _separator(draw, L, kinds=("rz", "x", "h", "r", "request", "block")):
    """One instruction of one of `kinds`, none an iSWAP layer: an rz, x, h or r layer, a request or a block."""
    kind = draw(st.sampled_from(kinds))
    if kind == "request":
        return AnalogRequest(tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=L - 1, max_size=L - 1))))
    if kind == "block":
        return ResourceBlock(draw(st.floats(0.0, 1.0)), bytes(draw(st.lists(st.integers(0, 1), min_size=L, max_size=L))))
    qubits = sorted(draw(st.sets(st.integers(0, L - 1), min_size=1)))
    return DigitalLayer(tuple(Gate(GateType(kind), (q,), 0.3 if kind == "rz" else 0.0) for q in qubits))


@st.composite
def _iswap_runs(draw):
    """iSWAP layers on random disjoint slots and gate kinds, split into runs by requests and blocks."""
    L = draw(st.integers(2, 8))
    separator = _separator(L, ("request", "block"))
    instrs = []
    for _ in range(draw(st.integers(1, 6))):
        instrs += [draw(separator) for _ in range(draw(st.integers(0, 2)))]
        slots = sorted(draw(st.sets(st.integers(0, L - 2), min_size=1, max_size=L - 1)))
        starts = [j for k, j in enumerate(slots) if k == 0 or j > slots[k - 1] + 1]
        make = [draw(st.sampled_from((Gate.iswap, Gate.iswap_dg))) for _ in starts]
        instrs.append(DigitalLayer(tuple(m(j) for m, j in zip(make, starts))))
    instrs += [draw(separator) for _ in range(draw(st.integers(0, 2)))]
    resource = NNChain(L, draw(st.lists(st.floats(0.5, 1.5), min_size=L - 1, max_size=L - 1)))
    return Circuit(L, tuple(instrs)), resource


@settings(max_examples=60, deadline=None)
@given(_iswap_runs())
def test_merged_lowering_equals_per_layer_lowering(case):
    circuit, resource = case
    merged = lower_swap_layers(circuit)
    reference = lower_per_layer(circuit)
    u = circuit_unitary(merged, resource)
    assert phase_distance(u, circuit_unitary(reference, resource)).distance < 1e-12
    assert phase_distance(u, circuit_unitary(circuit, resource)).distance < 1e-12
    # every layer is emitted, x, h and r only, and their product is the identity on every qubit
    emitted = [i for i in merged.instructions if isinstance(i, DigitalLayer)]
    assert all(g.type in (GateType.X, GateType.H, GateType.R) for la in emitted for g in la.gates)
    assert single_qubit_frames(Circuit(circuit.num_qubits, tuple(emitted))) == [IDENTITY_FRAME] * circuit.num_qubits
    # a run of n layers costs n + 1 requests instead of 2n; other requests pass through
    runs = [len(list(g)) for k, g in itertools.groupby(
        circuit.instructions, key=lambda i: isinstance(i, DigitalLayer)) if k]
    passed = sum(isinstance(i, AnalogRequest) for i in circuit.instructions)
    assert sum(isinstance(i, AnalogRequest) for i in merged.instructions) == sum(n + 1 for n in runs) + passed


# --- stats ---------------------------------------------------------------------

@st.composite
def _mixed_layer(draw, L):
    """One layer: iSWAP or iSWAP-dagger gates on some slots, x/h/r/rz gates on some qubits left free."""
    gates = []
    q = 0
    while q < L:
        kind = draw(st.sampled_from(("none", "x", "h", "r", "rz", "iswap", "iswap_dg")))
        if kind in ("iswap", "iswap_dg") and q + 1 < L:
            gates.append(Gate(GateType(kind), (q, q + 1)))
            q += 1
        elif kind in ("x", "h", "r", "rz"):
            gates.append(Gate(GateType(kind), (q,), draw(st.floats(-1.0, 1.0)) if kind == "rz" else 0.0))
        q += 1
    return DigitalLayer(tuple(gates) or (Gate(GateType.H, (L - 1,)),))


@st.composite
def _repeating_circuit(draw):
    """A circuit whose instructions repeat a few objects: mixed layers, other layers, requests and blocks."""
    L = draw(st.integers(2, 6))
    pool = [draw(_mixed_layer(L)) for _ in range(draw(st.integers(1, 3)))]
    pool += [draw(_separator(L)) for _ in range(draw(st.integers(0, 4)))]
    return Circuit(L, tuple(draw(st.lists(st.sampled_from(pool), max_size=12))))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(_mixed_layer))
def test_layer_records_its_highest_qubit_and_single_qubit_gates(layer):
    assert layer.max_qubit == max(q for g in layer.gates for q in g.qubits)
    assert layer.sqr_count == sum(len(g.qubits) == 1 for g in layer.gates)
    assert layer.has_iswaps == any(len(g.qubits) == 2 for g in layer.gates)
    # derived from the gates, so left out of repr, == and the hash
    assert repr(layer) == f"DigitalLayer(gates={layer.gates!r})"
    assert DigitalLayer(layer.gates) == layer and hash(DigitalLayer(layer.gates)) == hash(layer)


@settings(max_examples=60, deadline=None)
@given(_repeating_circuit())
def test_stats_equal_a_recount_of_every_occurrence(circuit):
    analog, total, sqr = 0, 0.0, 0
    for instr in circuit.instructions:
        if isinstance(instr, DigitalLayer):
            sqr += sum(len(g.qubits) == 1 for g in instr.gates)
        else:
            analog += 1
            if isinstance(instr, ResourceBlock):
                total += instr.duration
    stats = circuit_stats(circuit)
    assert (stats.analog_block_count, stats.total_analog_time, stats.sqr_count) == (analog, total, sqr)


def test_stats_trivial_homogeneous():
    circuit = ata_circuit(2, 0.5)
    st = circuit_stats(circuit)
    assert st.analog_block_count == 1
    assert iswap_layer_count(circuit) == 0
    assert st.sqr_count == 0


def test_stats_lowered_l6_request_count():
    lowered = lower_swap_layers(ata_circuit(6, 0.5))
    st = circuit_stats(lowered)
    # 3 target requests + 11 merged halves (two forward runs of 2 layers at
    # 3 each, the undo run of 4 at 5): 3L-4 = 14 beside 5L-12 = 18
    assert st.analog_block_count == 3 + 11
    assert iswap_layer_count(lowered) == 0
    assert iswap_layer_count(ata_circuit(6, 0.5)) == 8


def test_stats_deterministic_across_runs():
    rng1 = np.random.default_rng(55)
    rng2 = np.random.default_rng(55)
    a = ata_circuit_general(random_graph(8, rng1), 0.9)
    b = ata_circuit_general(random_graph(8, rng2), 0.9)
    assert a == b
    assert circuit_stats(lower_swap_layers(a)) == circuit_stats(lower_swap_layers(b))


def test_resource_block_durations_and_masks():
    blk = ResourceBlock(0.2, b"\1\0\1")
    assert slot_signs(blk.x_mask) == (-1, -1)
    assert ResourceBlock(0.0, b"\0\0").duration == 0.0


def test_resource_block_mask_forms():
    expected = ResourceBlock(0.5, b"\1\0\1\1")
    assert expected.x_mask == b"\x01\x00\x01\x01"
    same = ResourceBlock(0.5, bytes([1, 0, 1, 1]))
    assert same == expected and hash(same) == hash(expected)
    for mask in ((True, False, True, True), [1, 0, 1, 1], np.array([1, 0, 1, 1], dtype=bool),
                 bytearray(b"\1\0\1\1"), np.array([[False] * 4, [True, False, True, True]])[1]):
        with pytest.raises(ValueError, match="x_mask must be bytes, got "):
            ResourceBlock(0.5, mask)
    for mask in (b"\1\2\0", b"\xff\0", b"\0\1\x80"):
        with pytest.raises(ValueError, match="x_mask bytes must be 0 or 1"):
            ResourceBlock(0.5, mask)


_LAYER = DigitalLayer((Gate(GateType.H, (0,)), Gate(GateType.RZ, (2,), 0.25)))
_BLOCK = ResourceBlock(0.5, b"\0\1\1")


VALUE_CASES = [
    (Gate, {"type": GateType.RZ, "qubits": (2,), "angle": 0.25}, {"angle": -0.25}),
    (DigitalLayer, {"gates": _LAYER.gates}, {"gates": _LAYER.gates[:1]}),
    (AnalogRequest, {"slot_angles": (0.5, -0.25)}, {"slot_angles": (0.5, 0.25)}),
    (ResourceBlock, {"duration": 0.5, "x_mask": b"\0\1\1"}, {"x_mask": b"\1\1\1"}),
    (ScheduleStats, {"analog_block_count": 1, "total_analog_time": 0.5, "sqr_count": 2}, {"sqr_count": 3}),
    (Circuit, {"num_qubits": 3, "instructions": (_LAYER, _BLOCK)}, {"instructions": (_BLOCK, _LAYER)}),
]


@pytest.mark.parametrize("cls, fields, changed", VALUE_CASES, ids=["gate", "layer", "request", "block", "stats", "circuit"])
def test_value_semantics(cls, fields, changed):
    check_value_semantics(cls, fields, changed)


@pytest.mark.parametrize("make, derived", [
    (lambda: DigitalLayer(_LAYER.gates), {"max_qubit": 7, "sqr_count": 0}),
    (lambda: Circuit(3, (_LAYER, _BLOCK)), {"_stats": ScheduleStats(0, 0.0, 0)}),
], ids=["layer", "circuit"])
def test_derived_fields_stay_out_of_eq_hash_and_repr(make, derived):
    value, altered = make(), make()
    vars(altered).update(derived)
    assert altered == value and hash(altered) == hash(value) and repr(altered) == repr(value)
    assert not any(name in repr(value) for name in derived)


def test_blocks_of_signed_zero_durations_are_equal():
    # frames.check_schedule's run cache relies on this
    plus, minus = ResourceBlock(0.0, b"\0\1"), ResourceBlock(-0.0, b"\0\1")
    assert plus == minus and hash(plus) == hash(minus)
    assert repr(minus) == "ResourceBlock(duration=-0.0, x_mask=b'\\x00\\x01')"
