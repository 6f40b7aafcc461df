import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile.circuits import Circuit, ResourceBlock
from daqcompile.errors import UnschedulableError
from daqcompile.graphs import NNChain
from daqcompile.scheduler import TIE_THRESHOLD, schedule
from daqcompile.unitaries import circuit_unitary, phase_distance, zz_evolution

from oracles import mask_from_row, minimum_time, sign_matrix, sign_matrix_inverse, slot_signs


def reconstruct(blocks, couplings):
    """Direct-summation oracle: accumulated signed angle per slot."""
    m = len(couplings)
    out = np.zeros(m)
    for blk in blocks:
        signs = np.array(slot_signs(blk.x_mask), dtype=float)
        out += blk.duration * signs * np.asarray(couplings)
    return out


def closed_form_rows(phi, g, t_f):
    """(oracle durations, stable descending order, sign flips) of a request.

    Durations come from the sign-matrix inverse applied to the sorted |b|,
    one per sorted slot, including the ties the scheduler drops.
    """
    b = np.asarray(phi, dtype=float) / (np.asarray(g, dtype=float) * t_f)
    order = np.argsort(-np.abs(b), kind="stable")
    times = sign_matrix_inverse(len(b)) @ np.abs(b)[order] * t_f
    return times, order, b < 0.0


def tie_line(phi, g, t_f):
    """Duration at or below which the scheduler drops a block as a float tie."""
    b_max = np.max(np.abs(np.asarray(phi) / (np.asarray(g) * t_f)))
    return TIE_THRESHOLD * min(1.0, b_max) * t_f


def expected_masks(kept, order, flips):
    """Masks of blocks `kept` from the bit-by-bit row oracle: sorted slot p is negative in block n < p."""
    m = len(order)
    return [bytes(mask_from_row([1 if n >= p else -1 for p in range(m)], order, flips, m + 1)) for n in kept]


# --- ratios -------------------------------------------------------------------

def test_ratios_resource_itself_is_all_ones():
    resource = NNChain(4, (0.7, -1.2, 0.4))
    phi = tuple(g * 0.9 for g in resource.couplings)
    blocks = schedule(phi, resource, 0.9)
    # every b_j is 1: one full block, nothing flipped
    assert [(blk.duration, blk.x_mask) for blk in blocks] == [(pytest.approx(0.9), bytes(4))]


def test_ratios_direct_division():
    # b = (1/2, 1/1): slot 1 leads, so block 0 runs slot 0 negative
    blocks = schedule((1.0, 1.0), NNChain(3, (2.0, 1.0)), 1.0)
    assert [blk.duration for blk in blocks] == pytest.approx([0.25, 0.75])
    assert [slot_signs(blk.x_mask) for blk in blocks] == [(-1, 1), (1, 1)]
    assert np.allclose(reconstruct(blocks, (2.0, 1.0)), [1.0, 1.0], atol=1e-15)


def test_ratios_zero_resource_slot():
    with pytest.raises(UnschedulableError):
        schedule((1.0, 1.0), NNChain(3, (1.0, 0.0)), 1.0)
    # the first offending slot is the one reported
    with pytest.raises(UnschedulableError) as exc:
        schedule((0.0, 0.5, 0.0, 0.2), NNChain(5, (0.0, 0.0, 1.0, 0.0)), 1.0)
    assert (exc.value.slot, exc.value.angle) == (1, 0.5)
    # zero-over-zero is fine: that slot gets b = 0
    blocks = schedule((1.0, 0.0), NNChain(3, (1.0, 0.0)), 1.0)
    assert [blk.duration for blk in blocks] == [0.5, 0.5]
    assert [slot_signs(blk.x_mask)[0] for blk in blocks] == [1, 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi, g, t_f, slot", [
    ((0.1, 1e300, 0.2), (0.8, 1e-300, 1.2), 1e-10, 1),     # the ratio overflows
    ((1e300, 1e300), (1e-300, 1e-300), 1e-10, 0),          # two infinite ratios: inf - inf is nan
    ((0.1, 1.0, 1e300), (1.0, 1.0, 1e-10), 1.0, 2),        # so does this one, past a finite one
    ((1e308, 1e308), (0.25, 0.25), 4.0, 1),                # finite ratios, the last block times t_f overflows
    ((1e300,), (1e-10,), 1e10, 0),                         # a finite ratio, times t_f overflows
    ((1e-300, 1.0), (1e-300, 1.0), 1e-300, 0),             # g * t_f underflows to zero
])
def test_ratios_overflow_is_unschedulable(phi, g, t_f, slot):
    with pytest.raises(UnschedulableError) as exc:
        schedule(phi, NNChain(len(phi) + 1, g), t_f)
    assert (exc.value.slot, exc.value.angle) == (slot, phi[slot])
    assert str(exc.value).endswith("but its evolution time overflows the float range")


def test_ratios_at_the_float_maximum_schedule_one_block():
    # The last block halves each ratio before adding: 1e308 / 2 + 1e308 / 2 is finite.
    assert schedule((1e308, 1e308), NNChain(3, (1.0, 1.0)), 1.0) == (ResourceBlock(1e308, b"\0\0\0"),)


# magnitudes near both ends of the float range, and some ordinary ones
EXTREME_MAGNITUDES = st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(1.0, 9.99),
    st.integers(-320, -290) | st.integers(-3, 3) | st.integers(290, 307),
)
SIGNS = st.sampled_from([-1.0, 1.0])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_overflow_blames_first_nonfinite_ratio_else_smallest_overflowing_block(data):
    """Which slot an overflow names, on ratios and durations at both ends of the float range.

    Ratios overflow (huge angle over a tiny coupling), g * t_f underflows to
    zero, and block durations overflow while every ratio is finite.  The
    blame is the first slot whose ratio is not finite, or else the smallest
    slot whose closed-form duration is not finite; when neither exists the
    request schedules.  The durations are the module's formula
    t_n = (b_n - b_{n+1}) t_f / 2, last t_f (b_0 / 2 + b_{m-1} / 2), over the
    stably sorted |b|.  `closed_form_rows` cannot stand in here: its matrix
    product turns an infinite ratio into nan in every row (0 * inf).
    """
    m = data.draw(st.integers(1, 6))
    phi = [data.draw(SIGNS) * data.draw(st.just(0.0) | EXTREME_MAGNITUDES) for _ in range(m)]
    g = [data.draw(SIGNS) * data.draw(EXTREME_MAGNITUDES) for _ in range(m)]
    t_f = data.draw(EXTREME_MAGNITUDES)
    with np.errstate(all="ignore"):
        phi_a = np.asarray(phi)
        b = np.where(phi_a == 0.0, 0.0, phi_a / (np.asarray(g) * t_f))
        order = np.argsort(-np.abs(b), kind="stable")
        b_sorted = np.abs(b)[order]
        times = np.append((b_sorted[:-1] - b_sorted[1:]) * (t_f / 2.0),
                          (b_sorted[0] * 0.5 + b_sorted[-1] * 0.5) * t_f)
    bad_ratios = np.flatnonzero(~np.isfinite(b))
    bad_blocks = order[~np.isfinite(times)]
    if bad_ratios.size:
        slot = int(bad_ratios[0])
    elif bad_blocks.size:
        slot = int(bad_blocks.min())
    else:
        blocks = schedule(phi, NNChain(m + 1, tuple(g)), t_f)
        assert all(0.0 < blk.duration < math.inf for blk in blocks)
        return
    with pytest.raises(UnschedulableError) as exc:
        schedule(phi, NNChain(m + 1, tuple(g)), t_f)
    assert (exc.value.slot, exc.value.angle) == (slot, phi[slot])
    assert str(exc.value).endswith("but its evolution time overflows the float range")


def test_ratios_validation():
    resource = NNChain(3, (1.0, 1.0))
    with pytest.raises(ValueError):
        schedule((1.0, 1.0), resource, 0.0)
    with pytest.raises(ValueError):
        schedule((1.0, 1.0), resource, -2.0)
    with pytest.raises(ValueError):
        schedule((1.0, 1.0), resource, math.inf)
    with pytest.raises(ValueError):
        schedule((1.0,), resource, 1.0)
    with pytest.raises(ValueError, match="slot 1"):
        schedule((1.0, math.nan), resource, 1.0)


# --- normalization ------------------------------------------------------------

def test_normalize_example():
    # b = (0.5, -1.0): slot 1 sorts first and is flipped in every block
    blocks = schedule((0.5, -1.0), NNChain(3, (1.0, 1.0)), 1.0)
    assert [blk.duration for blk in blocks] == [0.25, 0.75]
    assert [blk.x_mask for blk in blocks] == expected_masks([0, 1], [1, 0], [False, True])
    assert [slot_signs(blk.x_mask) for blk in blocks] == [(-1, -1), (1, -1)]


def test_normalize_all_equal_is_identity():
    blocks = schedule((0.3, 0.3, 0.3), NNChain(4, (1.0, 1.0, 1.0)), 1.0)
    assert [(blk.duration, blk.x_mask) for blk in blocks] == [(pytest.approx(0.3), bytes(4))]


def test_normalize_zeros_go_last():
    phi = (0.0, 0.5, 0.0, 1.5)
    blocks = schedule(phi, NNChain(5, (1.0,) * 4), 1.0)
    # sorted |b| = (1.5, 0.5, 0, 0): the tie of zeros leaves a zero block
    assert [blk.duration for blk in blocks] == [0.5, 0.25, 0.75]
    assert [blk.x_mask for blk in blocks] == expected_masks([0, 1, 3], [3, 1, 0, 2], [False] * 4)
    assert np.allclose(reconstruct(blocks, (1.0,) * 4), phi, atol=1e-15)


def test_stable_ties_and_sign_flips():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        g = rng.choice([0.5, 1.0, 2.0], m) * rng.choice([-1.0, 1.0], m)
        b = rng.choice([0.0, 0.25, 0.5, 1.0], m) * rng.choice([-1.0, 1.0], m)
        phi = b * g * 0.8
        blocks = schedule(tuple(phi), NNChain(m + 1, tuple(g)), 0.8)
        times, order, flips = closed_form_rows(phi, g, 0.8)
        kept = np.flatnonzero(times > tie_line(phi, g, 0.8))
        assert [blk.x_mask for blk in blocks] == expected_masks(kept, order, flips)
        assert [blk.duration for blk in blocks] == pytest.approx(times[kept].tolist(), abs=1e-15)


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
    blocks = schedule((1.0, 0.5, 0.25), NNChain(4, (1.0,) * 3), 1.0)
    t = np.array([blk.duration for blk in blocks])
    assert np.allclose(t, [0.25, 0.125, 0.625])
    assert np.allclose(sign_matrix(3) @ t, [1.0, 0.5, 0.25])


def test_solve_times_homogeneous_single_block():
    blocks = schedule((0.6,) * 4, NNChain(5, (1.0,) * 4), 0.6)
    assert [blk.duration for blk in blocks] == [pytest.approx(0.6)]


def test_solve_times_duplicate_gives_zero():
    # the zero-length block between the two equal ratios is not emitted
    blocks = schedule((0.8, 0.8, 0.1), NNChain(4, (1.0,) * 3), 1.0)
    assert [blk.duration for blk in blocks] == pytest.approx([0.35, 0.45])


def test_solve_times_matches_inverse_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 65))
        g = rng.uniform(0.5, 1.5, m) * rng.choice([-1.0, 1.0], m)
        phi = rng.uniform(-2.0, 2.0, m)
        t_f = float(rng.uniform(0.2, 3.0))
        t = np.array([blk.duration for blk in schedule(tuple(phi), NNChain(m + 1, tuple(g)), t_f)])
        oracle, order, _ = closed_form_rows(phi, g, t_f)
        assert len(t) == m
        assert np.allclose(t, oracle, atol=1e-12)
        assert np.all(t >= 0.0)
        b_sorted = np.abs(phi / (g * t_f))[order]
        assert np.max(np.abs(sign_matrix(m) @ (t / t_f) - b_sorted)) < 1e-14


# --- masks -----------------------------------------------------------------------

def test_mask_from_row_example():
    assert mask_from_row((-1, 1, 1), (0, 1, 2), (False,) * 3, 4) == (False, True, True, True)


def test_mask_all_positive_is_empty():
    assert mask_from_row((1, 1, 1), (0, 1, 2), (False,) * 3, 4) == (False,) * 4


def test_mask_single_flip_colors_suffix():
    # flipping only the second coupling of a 5-qubit chain colors qubits 2..4
    assert mask_from_row((1, -1, 1, 1), (0, 1, 2, 3), (False,) * 4, 5) == (False, False, True, True, True)


def test_mask_realises_requested_signs():
    rng = np.random.default_rng(77)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        order = tuple(int(j) for j in rng.permutation(m))
        flips = tuple(bool(v) for v in rng.integers(0, 2, m))
        row = [int(s) for s in rng.choice([-1, 1], m)]
        mask = mask_from_row(row, order, flips, m + 1)
        original = [0] * m
        for pos, sign in enumerate(row):
            original[order[pos]] = sign
        for j in range(m):
            want = -original[j] if flips[j] else original[j]
            got = -1 if mask[j] != mask[j + 1] else 1
            assert got == want


def test_mask_validation():
    with pytest.raises(ValueError):
        mask_from_row((1, 0), (0, 1), (False, False), 3)
    with pytest.raises(ValueError):
        mask_from_row((1,), (0, 1), (False, False), 3)
    with pytest.raises(ValueError):
        mask_from_row((1, 1), (0, 1), (False,), 3)


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
            times, order, flips = closed_form_rows(phi, resource.couplings, t_f)
            kept = np.flatnonzero(times > tie_line(phi, resource.couplings, t_f))
            ties += int(np.count_nonzero((times > 0.0) & (times <= tie_line(phi, resource.couplings, t_f))))
            blocks = schedule(phi, resource, t_f)
            assert [blk.duration for blk in blocks] == pytest.approx(times[kept].tolist(), rel=1e-15, abs=1e-15)
            assert [blk.x_mask for blk in blocks] == expected_masks(kept, order, flips)
    # the problems do produce nonzero blocks below the threshold, and they are dropped
    assert ties > 0


@settings(max_examples=200, deadline=None)
@given(L=st.integers(2, 64), data=st.data())
def test_schedule_tie_heavy_requests_match_row_oracle(L, data):
    """Ratios from at most three magnitudes, zeros and both signs: most blocks are ties.

    The masks are built by walking back from the last block through every
    dropped one, so each kept mask must still equal the row oracle's.
    """
    m = L - 1
    levels = data.draw(st.lists(st.sampled_from([0.25, 0.3, 0.1 * 3, 0.7, 1.1, 2.0]),
                                min_size=1, max_size=3, unique=True))
    ratios = data.draw(st.lists(st.sampled_from([0.0, *levels]), min_size=m, max_size=m))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    g = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, -0.7, -1.3]), min_size=m, max_size=m))
    t_f = data.draw(st.sampled_from([0.7, 1.0, 2.5]))
    phi = tuple(s * r * gj * t_f for s, r, gj in zip(signs, ratios, g))
    blocks = schedule(phi, NNChain(L, tuple(g)), t_f)
    times, order, flips = closed_form_rows(phi, g, t_f)
    line = tie_line(phi, g, t_f)
    kept = np.flatnonzero(times > line)
    assert [blk.x_mask for blk in blocks] == expected_masks(kept, order, flips)
    durations = [blk.duration for blk in blocks]
    assert durations == pytest.approx(times[kept].tolist(), rel=1e-15, abs=1e-15)
    ghost = float(np.sum(times[times <= line]))
    b = np.asarray(phi) / (np.asarray(g) * t_f)
    assert math.fsum(durations) == pytest.approx(minimum_time(b, t_f), rel=1e-15, abs=ghost)


# --- full scheduling --------------------------------------------------------------

def test_schedule_resource_itself_single_full_block():
    resource = NNChain(5, (0.9, 1.1, 0.7, 1.3))
    phi = tuple(g * 0.8 for g in resource.couplings)
    blocks = schedule(phi, resource, 0.8)
    assert len(blocks) == 1
    assert blocks[0].duration == pytest.approx(0.8)
    assert blocks[0].x_mask == bytes(5)


def test_schedule_worked_parallel_swap_block():
    # chain of 6; one swap pair on slot 1 and a daggered pair on slot 3,
    # with g_3 > g_1 so |b_slot1| > |b_slot3| (0-based slots)
    g = (0.9, 0.7, 1.1, 1.3, 0.8)
    resource = NNChain(6, g)
    phi = (0.0, math.pi / 4, 0.0, -math.pi / 4, 0.0)
    blocks = schedule(phi, resource, 1.0)
    assert len(blocks) == 3
    order, flips = [1, 3, 0, 2, 4], [False, False, False, True, False]
    assert [blk.x_mask for blk in blocks] == expected_masks([0, 1, 4], order, flips)
    assert np.allclose(reconstruct(blocks, g), phi, atol=1e-15)
    b = np.asarray(phi) / np.asarray(g)
    assert math.fsum(blk.duration for blk in blocks) == pytest.approx(minimum_time(b, 1.0), abs=1e-15)


def test_schedule_reconstruction_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        L = 8
        g = rng.uniform(0.5, 1.5, L - 1) * rng.choice([-1.0, 1.0], L - 1)
        phi = rng.uniform(-1.0, 1.0, L - 1)
        t_f = float(rng.uniform(0.3, 2.0))
        blocks = schedule(tuple(phi), NNChain(L, tuple(g)), t_f)
        assert len(blocks) <= L - 1
        assert all(blk.duration >= 0.0 for blk in blocks)
        assert np.max(np.abs(reconstruct(blocks, g) - phi)) < 1e-12


def test_schedule_block_count_reductions():
    resource = NNChain(8, (1.0,) * 7)
    # d = 2 duplicate pairs among 7 values
    values = [1.4, 1.4, 0.9, 0.9, 0.5, 0.3, 0.2]
    assert len(schedule(tuple(values), resource, 1.0)) == 7 - 2
    # k = 3 zeros reduce the count by k-1
    values = [1.4, 0.9, 0.5, 0.2, 0.0, 0.0, 0.0]
    assert len(schedule(tuple(values), resource, 1.0)) == 7 - (3 - 1)


def test_schedule_epsilon_drops_ghost_blocks():
    resource = NNChain(3, (1.0, 1.0))
    phi = (1.0, 1.0 - 5e-14)
    assert len(schedule(phi, resource, 1.0)) == 1
    # the closed form does give the near-tie its own tiny block, below the threshold
    times = closed_form_rows(phi, resource.couplings, 1.0)[0]
    assert 0.0 < times[0] <= TIE_THRESHOLD and times[1] > TIE_THRESHOLD


def test_schedule_keeps_tiny_requests():
    # the tie threshold shrinks with max|b| < 1, so a request that is tiny
    # throughout is still realised, not dropped as a tie
    blocks = schedule((1e-12,), NNChain(2, (1.0,)), 1.0)
    assert len(blocks) == 1
    assert reconstruct(blocks, (1.0,)) == pytest.approx([1e-12], rel=1e-15)
    phi = (3e-15, -1e-15, 2e-15)
    blocks = schedule(phi, NNChain(4, (1.0, 0.5, 2.0)), 0.7)
    assert np.allclose(reconstruct(blocks, (1.0, 0.5, 2.0)), phi, rtol=1e-12, atol=0.0)


def test_schedule_threshold_is_capped_for_large_requests():
    # above max|b| = 1 the threshold stays TIE_THRESHOLD * t_f: ratios 2e-9
    # apart at |b| = 1e3 are real evolution, not a float tie
    phi = (1e3, 1e3 - 2e-9)
    blocks = schedule(phi, NNChain(3, (1.0, 1.0)), 1.0)
    assert len(blocks) == 2
    assert reconstruct(blocks, (1.0, 1.0)) == pytest.approx(phi, rel=0.0, abs=1e-12)


def test_schedule_zero_target_is_empty():
    assert schedule((0.0, 0.0, 0.0), NNChain(4, (1.0, 1.0, 1.0)), 1.0) == ()


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
        blocks = schedule(tuple(phi), NNChain(L, tuple(g)), t_f)
        b = phi / (g * t_f)
        assert abs(math.fsum(blk.duration for blk in blocks) - minimum_time(b, t_f)) < 1e-14 * t_f


@settings(max_examples=150, deadline=None)
@given(
    L=st.integers(2, 256),
    # + 0.0 turns -0.0 into 0.0: NumPy's uniform rejects the range (0.0, -0.0)
    exponents=st.tuples(st.floats(-12.0, 6.0), st.floats(-12.0, 6.0)).map(
        lambda e: sorted(x + 0.0 for x in e)),
    t_f=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_schedule_exact_over_ratio_spreads(L, exponents, t_f, seed):
    """Signed couplings and ratios |b_j| log-uniform between 10**lo and 10**hi."""
    rng = np.random.default_rng(seed)
    m = L - 1
    g = rng.uniform(0.5, 1.5, m) * rng.choice([-1.0, 1.0], m)
    b = 10.0 ** rng.uniform(*exponents, m) * rng.choice([-1.0, 1.0], m)
    phi = b * g * t_f
    blocks = schedule(tuple(phi), NNChain(L, tuple(g)), t_f)
    durations = np.array([blk.duration for blk in blocks])
    assert len(blocks) <= m and np.all(durations >= 0.0)
    # blocks at or below TIE_THRESHOLD * min(1, max|b|) * t_f are dropped by design;
    # their oracle durations bound what the schedule may leave out
    times = closed_form_rows(phi, g, t_f)[0]
    ghost = float(np.sum(times[times <= tie_line(phi, g, t_f)]))
    signs = np.array([slot_signs(blk.x_mask) for blk in blocks], dtype=float).reshape(-1, m)
    residual = np.max(np.abs(durations @ signs * g - phi))
    assert residual <= 1e-12 * np.max(np.abs(phi)) + ghost * np.max(np.abs(g))
    total = math.fsum(durations)
    assert abs(total - minimum_time(b, t_f)) <= 1e-12 * minimum_time(b, t_f) + ghost


@pytest.mark.parametrize("L", [2, 4, 6])
def test_schedule_unitary_matches_ideal_evolution(L):
    rng = np.random.default_rng(500 + L)
    g = rng.uniform(0.5, 1.5, L - 1) * rng.choice([-1.0, 1.0], L - 1)
    phi = rng.uniform(-2.0, 2.0, L - 1)
    resource = NNChain(L, tuple(g))
    blocks = schedule(tuple(phi), resource, 0.9)
    u = circuit_unitary(Circuit(L, blocks), resource)
    v = zz_evolution({(j, j + 1): p for j, p in enumerate(phi)}, L)
    assert phase_distance(u, v).distance < 1e-12
