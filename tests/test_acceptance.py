"""Acceptance suite: one test per release criterion, each printing a verdict
line (run with -s to see them).  Tolerances are fixed here, not calibrated."""

import json
import math
import time

import numpy as np

from daqcompile.circuits import Circuit, DigitalLayer, Gate
from daqcompile.cli import main
from daqcompile.compiler import compile_ata
from daqcompile.graphs import CouplingGraph, NNChain, walecki_cover, zigzag_path
from daqcompile.scheduler import schedule
from daqcompile.swaps import walecki_sequence
from daqcompile.unitaries import circuit_unitary, exact_target, phase_distance

from oracles import (
    I2,
    Z,
    apply_sequence,
    ata_circuit_per_path,
    bridged_circuit,
    bridges,
    complete_edge_set,
    complete_graph,
    enabled_edges,
    general_swap,
    general_swap_unitary,
    identity_permutation,
    ladder_sequence,
    minimum_time,
    path_route_circuit,
    sign_matrix,
    sign_matrix_inverse,
    slot_signs,
)


def random_graph(L, rng):
    return CouplingGraph(
        L, {(i, j): rng.uniform(-1, 1) for i in range(L) for j in range(i + 1, L)}
    )


def compiled_distance(target, resource, t_f):
    result = compile_ata(target, resource, t_f)
    u = circuit_unitary(result.circuit, resource)
    v = exact_target(target, t_f)
    return phase_distance(u, v).distance


def test_criterion_01_end_to_end_homogeneous_even():
    start = time.perf_counter()
    worst = 0.0
    for L in (2, 4, 6, 8):
        resource = NNChain(L, (1.0,) * (L - 1))
        for t_f in (0.1, 0.7):
            d = compiled_distance(complete_graph(L, 1.0), resource, t_f)
            assert d < 1e-12, (L, t_f, d)
            worst = max(worst, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 01 PASS: even-L homogeneous compilation, worst distance "
          f"{worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_inhomogeneous_including_odd():
    worst = 0.0
    for L in (3, 4, 5, 6):
        for trial in range(20):
            rng = np.random.default_rng(1000 * L + trial)
            target = random_graph(L, rng)
            resource = NNChain(
                L, tuple(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
                         for _ in range(L - 1))
            )
            d = compiled_distance(target, resource, 0.7)
            assert d < 1e-12, (L, trial, d)
            worst = max(worst, d)
    print(f"\nACCEPTANCE 02 PASS: 80 random targets (L=3..6), worst distance {worst:.2e}")


def _random_l64_instances():
    rng = np.random.default_rng(64)
    for _ in range(100):
        g = rng.uniform(0.5, 1.5, 63) * rng.choice([-1.0, 1.0], 63)
        phi = rng.uniform(-1.0, 1.0, 63)
        t_f = float(rng.uniform(0.3, 2.0))
        yield tuple(g), tuple(phi), t_f


def test_criterion_03_scheduler_exactness_l64():
    worst = 0.0
    for g, phi, t_f in _random_l64_instances():
        blocks = schedule(phi, NNChain(64, g), t_f)
        assert len(blocks) <= 63
        assert all(blk.duration >= 0.0 for blk in blocks)
        recon = np.zeros(63)
        for blk in blocks:
            recon += blk.duration * np.array(slot_signs(blk.x_mask), dtype=float) * np.asarray(g)
        residual = float(np.max(np.abs(recon - np.asarray(phi))))
        assert residual < 1e-12
        worst = max(worst, residual)
    print(f"\nACCEPTANCE 03 PASS: 100 instances at L=64, worst residual {worst:.2e}")


def test_criterion_04_minimum_simulation_time():
    worst = 0.0
    for g, phi, t_f in _random_l64_instances():
        blocks = schedule(phi, NNChain(64, g), t_f)
        b = np.asarray(phi) / (np.asarray(g) * t_f)
        gap = abs(math.fsum(blk.duration for blk in blocks) - minimum_time(b, t_f))
        assert gap < 1e-14 * t_f
        worst = max(worst, gap / t_f)
    print(f"\nACCEPTANCE 04 PASS: total analog time minimal, worst gap {worst:.2e}*t_f")


def test_criterion_05_block_count_reductions():
    resource = NNChain(8, (1.0,) * 7)
    for d, values in [
        (0, [1.4, 1.1, 0.9, 0.7, 0.5, 0.3, 0.2]),
        (1, [1.4, 1.4, 0.9, 0.7, 0.5, 0.3, 0.2]),
        (2, [1.4, 1.4, 0.9, 0.9, 0.5, 0.3, 0.2]),
        (3, [1.4, 1.4, 1.4, 0.9, 0.9, 0.3, 0.2]),
    ]:
        blocks = schedule(tuple(values), resource, 1.0)
        assert len(blocks) == 7 - d, (d, len(blocks))
    for k in (2, 3, 4):
        values = [1.4, 0.9, 0.5, 0.2, 0.15, 0.1][: 7 - k] + [0.0] * k
        assert len(schedule(tuple(values), resource, 1.0)) == 7 - (k - 1)
    print("\nACCEPTANCE 05 PASS: duplicate and zero ratios reduce block counts as stated")


def test_criterion_06_permutation_synthesis():
    for L in (2, 4, 6, 8, 10, 12):
        for k in range(1, L // 2 + 1):
            for seq in (walecki_sequence(k, L), ladder_sequence(k, L)):
                assert apply_sequence(identity_permutation(L), seq) == zigzag_path(k, L)
    assert walecki_cover(6).paths == (
        (0, 1, 5, 2, 4, 3), (1, 2, 0, 3, 5, 4), (2, 3, 1, 4, 0, 5),
    )
    print("\nACCEPTANCE 06 PASS: sorting-network and closed-form synthesis reproduce "
          "every zig-zag path, L=6 family verbatim")


def test_criterion_07_partition_and_odd_covers():
    for L in (2, 4, 6, 8, 10, 12):
        cover = walecki_cover(L)
        assert all(not d for d in cover.disabled_slots)
        paths = cover.paths
        seen = set()
        count = 0
        for p in paths:
            for j in range(L - 1):
                e = tuple(sorted((p[j], p[j + 1])))
                assert e not in seen
                seen.add(e)
                count += 1
        assert seen == complete_edge_set(L) and count == L * (L - 1) // 2
    for L in (3, 5, 7, 9, 11):
        cover = walecki_cover(L)
        assert set(enabled_edges(cover)) == complete_edge_set(L)
    print("\nACCEPTANCE 07 PASS: path edge sets tile K_L (even), odd covers enable "
          "each edge exactly once")


def test_criterion_08_bridge_soundness_l6():
    # the path route's directly emitted bridge layers are the closed-form bridged circuit
    for L in range(2, 65, 2):
        target = random_graph(L, np.random.default_rng(860 + L))
        assert path_route_circuit(target, 0.57) == bridged_circuit(target, 0.57), L

    L = 6
    rng = np.random.default_rng(86)
    target = random_graph(L, rng)
    compiled = path_route_circuit(target, 0.57)
    u_bridged = circuit_unitary(compiled)
    u_frames = circuit_unitary(ata_circuit_per_path(target, 0.57))
    d = phase_distance(u_bridged, u_frames).distance
    assert d < 1e-12

    def layers_unitary(layers):
        if not layers:
            return np.eye(1 << L, dtype=complex)
        return circuit_unitary(Circuit(L, tuple(layers))).astype(complex)

    def gtilde(k):
        seq = ladder_sequence(k, L)
        return layers_unitary(
            [DigitalLayer(tuple(Gate.iswap_dg(i) for i in layer))
             for layer in reversed(seq.layers)]
        )

    compiled_bridges = bridges(compiled)
    for k in range(0, L // 2 + 1):
        f = layers_unitary(compiled_bridges[k])
        if k == 0:
            expected = gtilde(1).conj().T
        elif k == L // 2:
            expected = gtilde(L // 2)
        else:
            expected = gtilde(k + 1).conj().T @ gtilde(k)
        assert phase_distance(f, expected).distance < 1e-12, k
    print(f"\nACCEPTANCE 08 PASS: path-route circuit == closed-form bridged circuit for "
          f"even L <= 64; bridged == frame circuit (distance {d:.2e}); "
          "bridge/frame composition identity holds for every k")


def test_criterion_09_sign_matrix_algebra():
    worst = 0.0
    for n in range(1, 65):
        err = float(np.max(np.abs(sign_matrix(n) @ sign_matrix_inverse(n) - np.eye(n))))
        assert err < 1e-14
        worst = max(worst, err)
    print(f"\nACCEPTANCE 09 PASS: M M^-1 = I for n <= 64, worst error {worst:.2e}")


def test_criterion_10_swap_gate_conjugation():
    z_low, z_high = np.kron(I2, Z), np.kron(Z, I2)
    u = general_swap_unitary(general_swap(0.0, -0.5, 0.0))  # bare iSWAP
    assert np.array_equal(u @ z_low @ u.conj().T, z_high)
    assert np.array_equal(u @ z_high @ u.conj().T, z_low)
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        u = general_swap_unitary(general_swap(*rng.uniform(-3, 3, 3)))
        e1 = float(np.max(np.abs(u @ z_low @ u.conj().T - z_high)))
        e2 = float(np.max(np.abs(u @ z_high @ u.conj().T - z_low)))
        assert max(e1, e2) < 1e-12
        worst = max(worst, e1, e2)
    print(f"\nACCEPTANCE 10 PASS: Z-relay conjugation exact for iSWAP, "
          f"{worst:.2e} over 50 random gates")


def test_criterion_11_block_count_reporting(tmp_path, capsys):
    for L in (4, 6, 8, 10, 12):
        resource = [1.0] * (L - 1)
        couplings = [
            {"i": i, "j": j, "value": 1.0} for i in range(L) for j in range(i + 1, L)
        ]
        problem = tmp_path / f"p{L}.json"
        problem.write_text(json.dumps({
            "num_qubits": L,
            "resource_couplings": resource,
            "target": {"type": "ata", "couplings": couplings},
            "time": 0.5,
        }), encoding="utf-8")
        out = tmp_path / f"s{L}.json"
        assert main(["compile", "--input", str(problem), "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["stats", "--input", str(problem), "--schedule", str(out)]) == 0
        report = capsys.readouterr().out
        machine = json.loads(report.split("---\n", 1)[1])
        measured = machine["analog_requests"]
        assert machine["reference_request_count"] == 5 * L - 12
        assert f"reference_request_count: {5 * L - 12}" in report
        assert f"analog_requests: {measured}" in report
        # the swap network with merged iSWAP halves: 3L-4, which is 5L-12 at
        # L = 4 and below it from L = 6 on
        assert measured == 3 * L - 4 <= 5 * L - 12
    print("\nACCEPTANCE 11 PASS: stats reports measured request counts beside the "
          "5L-12 reference; measured == 3L-4 <= 5L-12 for even L <= 12")
