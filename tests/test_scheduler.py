import math

import numpy as np
import pytest

from daqcompile import (
    Circuit,
    NNChain,
    NormalizationRecord,
    UnschedulableError,
    circuit_unitary,
    coupling_ratios,
    normalize_ratios,
    phase_distance,
    schedule,
    solve_block_times,
    zz_evolution,
)
from daqcompile.scheduler import TIE_THRESHOLD

from oracles import mask_from_row, minimum_time, sign_matrix, sign_matrix_inverse


def reconstruct(sched, couplings):
    """Direct-summation oracle: accumulated signed angle per slot."""
    m = len(couplings)
    out = np.zeros(m)
    for blk in sched.blocks:
        signs = np.array(blk.slot_signs(), dtype=float)
        out += blk.duration * signs * np.asarray(couplings)
    return out


# --- ratios -------------------------------------------------------------------

def test_ratios_resource_itself_is_all_ones():
    resource = NNChain(4, (0.7, -1.2, 0.4))
    phi = tuple(g * 0.9 for g in resource.couplings)
    assert np.allclose(coupling_ratios(phi, resource, 0.9), np.ones(3))


def test_ratios_direct_division():
    assert np.allclose(
        coupling_ratios((1.0, 1.0), NNChain(3, (2.0, 1.0)), 1.0), [0.5, 1.0]
    )


def test_ratios_zero_resource_slot():
    with pytest.raises(UnschedulableError):
        coupling_ratios((1.0, 1.0), NNChain(3, (1.0, 0.0)), 1.0)
    # zero-over-zero is fine
    b = coupling_ratios((1.0, 0.0), NNChain(3, (1.0, 0.0)), 1.0)
    assert b[1] == 0.0


def test_ratios_validation():
    resource = NNChain(3, (1.0, 1.0))
    with pytest.raises(ValueError):
        coupling_ratios((1.0, 1.0), resource, 0.0)
    with pytest.raises(ValueError):
        coupling_ratios((1.0, 1.0), resource, -2.0)
    with pytest.raises(ValueError):
        coupling_ratios((1.0,), resource, 1.0)


# --- normalization ------------------------------------------------------------

def test_normalize_example():
    b_sorted, rec = normalize_ratios([0.5, -1.0])
    assert np.allclose(b_sorted, [1.0, 0.5])
    assert rec.sign_flips == (False, True)
    assert rec.slot_order == (1, 0)


def test_normalize_all_equal_is_identity():
    b_sorted, rec = normalize_ratios([0.3, 0.3, 0.3])
    assert rec.slot_order == (0, 1, 2)
    assert rec.sign_flips == (False, False, False)
    assert np.allclose(b_sorted, 0.3)


def test_normalize_zeros_go_last():
    b_sorted, rec = normalize_ratios([0.0, 0.5, 0.0, 1.5])
    assert rec.slot_order == (3, 1, 0, 2)
    assert np.allclose(b_sorted, [1.5, 0.5, 0.0, 0.0])


def test_normalization_record_validation():
    with pytest.raises(ValueError):
        NormalizationRecord((0, 0), (False, False))
    with pytest.raises(ValueError):
        NormalizationRecord((0, 1), (False,))


# --- sign matrix ---------------------------------------------------------------

def test_sign_matrix_n3():
    assert np.array_equal(
        sign_matrix(3), np.array([[1, 1, 1], [-1, 1, 1], [-1, -1, 1]], dtype=float)
    )


def test_sign_matrix_n1_and_row_pattern():
    assert np.array_equal(sign_matrix(1), np.array([[1.0]]))
    assert np.array_equal(sign_matrix(5)[3], [-1, -1, -1, 1, 1])
    with pytest.raises(ValueError):
        sign_matrix(0)


def test_sign_matrix_inverse_small():
    assert np.array_equal(sign_matrix_inverse(1), np.array([[1.0]]))
    inv3 = sign_matrix_inverse(3)
    assert np.allclose(inv3 @ np.ones(3), [0.0, 0.0, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 33, 64])
def test_sign_matrix_inverse_exact(n):
    product = sign_matrix(n) @ sign_matrix_inverse(n)
    assert np.max(np.abs(product - np.eye(n))) < 1e-14


# --- closed-form times ----------------------------------------------------------

def test_solve_times_example():
    t = solve_block_times([1.0, 0.5, 0.25], 1.0)
    assert np.allclose(t, [0.25, 0.125, 0.625])
    assert np.allclose(sign_matrix(3) @ t, [1.0, 0.5, 0.25])


def test_solve_times_homogeneous_single_block():
    t = solve_block_times([1.0, 1.0, 1.0, 1.0], 0.6)
    assert np.allclose(t, [0.0, 0.0, 0.0, 0.6])


def test_solve_times_duplicate_gives_zero():
    t = solve_block_times([0.8, 0.8, 0.1], 1.0)
    assert t[0] == 0.0


def test_solve_times_matches_inverse_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 65))
        b = np.sort(rng.uniform(0.0, 2.0, m))[::-1]
        t_f = float(rng.uniform(0.2, 3.0))
        t = solve_block_times(b, t_f)
        oracle = sign_matrix_inverse(m) @ b * t_f
        assert np.allclose(t, oracle, atol=1e-12)
        assert np.all(t >= 0.0)
        assert np.max(np.abs(sign_matrix(m) @ (t / t_f) - b)) < 1e-14


def test_solve_times_rejects_unsorted():
    with pytest.raises(ValueError):
        solve_block_times([0.5, 1.0], 1.0)
    with pytest.raises(ValueError):
        solve_block_times([0.5, -0.1], 1.0)


# --- masks -----------------------------------------------------------------------

def test_mask_from_row_example():
    rec = NormalizationRecord((0, 1, 2), (False, False, False))
    assert mask_from_row((-1, 1, 1), rec, 4) == (False, True, True, True)


def test_mask_all_positive_is_empty():
    rec = NormalizationRecord((0, 1, 2), (False, False, False))
    assert mask_from_row((1, 1, 1), rec, 4) == (False, False, False, False)


def test_mask_single_flip_colors_suffix():
    # flipping only the second coupling of a 5-qubit chain colors qubits 2..4
    rec = NormalizationRecord((0, 1, 2, 3), (False, False, False, False))
    assert mask_from_row((1, -1, 1, 1), rec, 5) == (False, False, True, True, True)


def test_mask_realises_requested_signs():
    rng = np.random.default_rng(77)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        order = tuple(rng.permutation(m))
        flips = tuple(bool(v) for v in rng.integers(0, 2, m))
        rec = NormalizationRecord(order, flips)
        row = [int(s) for s in rng.choice([-1, 1], m)]
        mask = mask_from_row(row, rec, m + 1)
        original = [0] * m
        for pos, sign in enumerate(row):
            original[order[pos]] = sign
        for j in range(m):
            want = -original[j] if flips[j] else original[j]
            got = -1 if mask[j] != mask[j + 1] else 1
            assert got == want


def test_mask_validation():
    rec = NormalizationRecord((0, 1), (False, False))
    with pytest.raises(ValueError):
        mask_from_row((1, 0), rec, 3)
    with pytest.raises(ValueError):
        mask_from_row((1,), rec, 3)



def _tie_prone_problem(rng, m):
    """Signed ratios from a few shared magnitudes, with zeros and near-ties."""
    g = rng.choice([0.5, 1.0, 2.0], m) * rng.choice([-1.0, 1.0], m)
    levels = rng.choice([0.0, 0.3, 0.1 * 3, 0.7, 1.1, 1.1 * (1 + 1e-15)], m)
    draws = np.where(rng.random(m) < 0.3, rng.normal(size=m), levels)
    phi = draws * rng.choice([-1.0, 1.0], m) * g
    t_f = float(rng.choice([1.0, 0.7]))
    return tuple(float(v) for v in phi), NNChain(m + 1, tuple(float(v) for v in g)), t_f


def test_schedule_masks_match_row_oracle():
    rng = np.random.default_rng(2024)
    ties = 0
    for m in [1, 2, 3, 7, 16, 64, 300]:
        for _ in range(3):
            phi, resource, t_f = _tie_prone_problem(rng, m)
            b_sorted, rec = normalize_ratios(coupling_ratios(phi, resource, t_f))
            times = solve_block_times(b_sorted, t_f)
            kept = [n for n in range(m) if times[n] > TIE_THRESHOLD * t_f]
            ties += sum(1 for t in times if 0.0 < t <= TIE_THRESHOLD * t_f)
            sched = schedule(phi, resource, t_f)
            assert [blk.duration for blk in sched.blocks] == [float(times[n]) for n in kept]
            for n, blk in zip(kept, sched.blocks):
                row = [1 if n >= pos else -1 for pos in range(m)]
                assert blk.x_mask == mask_from_row(row, rec, m + 1)
    # the problems do produce nonzero blocks below the threshold, and they are dropped
    assert ties > 0


# --- full scheduling --------------------------------------------------------------

def test_schedule_resource_itself_single_full_block():
    resource = NNChain(5, (0.9, 1.1, 0.7, 1.3))
    phi = tuple(g * 0.8 for g in resource.couplings)
    sched = schedule(phi, resource, 0.8)
    assert len(sched.blocks) == 1
    assert sched.blocks[0].duration == pytest.approx(0.8)
    assert sched.blocks[0].x_mask == (False,) * 5


def test_schedule_worked_parallel_swap_block():
    # chain of 6; one swap pair on slot 1 and a daggered pair on slot 3,
    # with g_3 > g_1 so |b_slot1| > |b_slot3| (0-based slots)
    g = (0.9, 0.7, 1.1, 1.3, 0.8)
    resource = NNChain(6, g)
    phi = (0.0, math.pi / 4, 0.0, -math.pi / 4, 0.0)
    b = coupling_ratios(phi, resource, 1.0)
    b_sorted, rec = normalize_ratios(b)
    assert rec.slot_order == (1, 3, 0, 2, 4)
    assert rec.sign_flips == (False, False, False, True, False)
    sched = schedule(phi, resource, 1.0)
    assert len(sched.blocks) == 3
    assert np.allclose(reconstruct(sched, g), phi, atol=1e-15)
    assert math.fsum(blk.duration for blk in sched.blocks) == pytest.approx(minimum_time(b, 1.0), abs=1e-15)


def test_schedule_reconstruction_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        L = 8
        g = rng.uniform(0.5, 1.5, L - 1) * rng.choice([-1.0, 1.0], L - 1)
        phi = rng.uniform(-1.0, 1.0, L - 1)
        t_f = float(rng.uniform(0.3, 2.0))
        sched = schedule(tuple(phi), NNChain(L, tuple(g)), t_f)
        assert len(sched.blocks) <= L - 1
        assert all(blk.duration >= 0.0 for blk in sched.blocks)
        assert np.max(np.abs(reconstruct(sched, g) - phi)) < 1e-12


def test_schedule_block_count_reductions():
    resource = NNChain(8, (1.0,) * 7)
    # d = 2 duplicate pairs among 7 values
    values = [1.4, 1.4, 0.9, 0.9, 0.5, 0.3, 0.2]
    sched = schedule(tuple(values), resource, 1.0)
    assert len(sched.blocks) == 7 - 2
    # k = 3 zeros reduce the count by k-1
    values = [1.4, 0.9, 0.5, 0.2, 0.0, 0.0, 0.0]
    sched = schedule(tuple(values), resource, 1.0)
    assert len(sched.blocks) == 7 - (3 - 1)


def test_schedule_epsilon_drops_ghost_blocks():
    resource = NNChain(3, (1.0, 1.0))
    phi = (1.0, 1.0 - 5e-14)
    assert len(schedule(phi, resource, 1.0).blocks) == 1
    # the closed form does give the near-tie its own tiny block, below the threshold
    times = solve_block_times(normalize_ratios(coupling_ratios(phi, resource, 1.0))[0], 1.0)
    assert 0.0 < times[0] <= TIE_THRESHOLD and times[1] > TIE_THRESHOLD


def test_schedule_zero_target_is_empty():
    sched = schedule((0.0, 0.0, 0.0), NNChain(4, (1.0, 1.0, 1.0)), 1.0)
    assert sched.blocks == ()


def test_minimum_time_examples():
    assert minimum_time([1.0, 0.5, 0.25], 0.7) == pytest.approx(0.7)
    assert minimum_time([0.0, 0.0], 1.3) == 0.0
    assert minimum_time([], 1.0) == 0.0


def test_schedule_total_time_is_minimal():
    rng = np.random.default_rng(303)
    for _ in range(50):
        L = int(rng.integers(2, 30))
        g = rng.uniform(0.5, 1.5, L - 1) * rng.choice([-1.0, 1.0], L - 1)
        phi = rng.uniform(-1.0, 1.0, L - 1)
        t_f = float(rng.uniform(0.3, 2.0))
        resource = NNChain(L, tuple(g))
        sched = schedule(tuple(phi), resource, t_f)
        b = coupling_ratios(tuple(phi), resource, t_f)
        assert abs(math.fsum(blk.duration for blk in sched.blocks) - minimum_time(b, t_f)) < 1e-14 * t_f


@pytest.mark.parametrize("L", [2, 4, 6])
def test_schedule_unitary_matches_ideal_evolution(L):
    rng = np.random.default_rng(500 + L)
    g = rng.uniform(0.5, 1.5, L - 1) * rng.choice([-1.0, 1.0], L - 1)
    phi = rng.uniform(-2.0, 2.0, L - 1)
    resource = NNChain(L, tuple(g))
    sched = schedule(tuple(phi), resource, 0.9)
    u = circuit_unitary(Circuit(L, sched.blocks), resource)
    v = zz_evolution({(j, j + 1): p for j, p in enumerate(phi)}, L)
    assert phase_distance(u, v).distance < 1e-10
