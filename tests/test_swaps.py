import numpy as np
import pytest

from daqcompile.graphs import zigzag_path
from daqcompile.swaps import SwapSequence, sort_network_sequence, walecki_sequence

from oracles import (
    apply_sequence,
    check_value_semantics,
    concat,
    head_ladders,
    identity_permutation,
    ladder_sequence,
    reversed_sequence,
    swap_ladder,
    tail_ladders,
)


def test_swap_ladder_cases():
    # 1-based S_{2->5} = tau_23 tau_45
    assert swap_ladder(1, 4, 6).layers == ((1, 3),)
    # 1-based S_{3->2} = identity
    assert swap_ladder(2, 1, 6).layers == ()
    # 1-based S_{1->4} = tau_12 tau_34
    assert swap_ladder(0, 3, 6).layers == ((0, 2),)


def test_swap_ladder_range_errors():
    with pytest.raises(ValueError):
        swap_ladder(-1, 3, 6)
    with pytest.raises(ValueError):
        swap_ladder(0, 6, 6)


def test_head_ladders_k3():
    # application order S_{2->5}, S_{1->4}, S_{2->3}, S_{1->2} (1-based)
    assert head_ladders(3, 6).layers == ((1, 3), (0, 2), (1,), (0,))


def test_head_ladders_small_k():
    assert head_ladders(1, 6).layers == ()
    assert head_ladders(2, 6).layers == ((1,), (0,))


def test_tail_ladders():
    assert tail_ladders(3, 6).layers == ()          # 2k+1 > L
    assert tail_ladders(4, 8).layers == ()          # k = L/2 boundary
    # 1-based S_{3->6}, S_{4->5}, S_{5->6}
    assert tail_ladders(1, 6).layers == ((2, 4), (3,), (4,))


def test_apply_position_swap():
    seq = SwapSequence(5, ((1,),))
    # 1-based: tau_23 applied to [1,3,4,2,5] gives [1,4,3,2,5]
    assert apply_sequence((0, 2, 3, 1, 4), seq) == (0, 3, 2, 1, 4)


def test_apply_empty_sequence():
    seq = SwapSequence(4, ())
    assert apply_sequence((2, 0, 3, 1), seq) == (2, 0, 3, 1)


def test_layer_overlap_rejected():
    with pytest.raises(ValueError):
        SwapSequence(4, ((0, 1),))


def test_sequence_concat_requires_same_size():
    with pytest.raises(ValueError):
        concat(SwapSequence(4, ()), SwapSequence(5, ()))


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
def test_walecki_sequence_synthesises_paths(L):
    for k in range(1, L // 2 + 1):
        for seq in (walecki_sequence(k, L), ladder_sequence(k, L)):
            assert apply_sequence(identity_permutation(L), seq) == zigzag_path(k, L)


def test_walecki_sequence_k3_l6_is_four_columns():
    seq = walecki_sequence(3, 6)
    assert seq.layers == ((0,), (1,), (0, 2), (1, 3))
    assert apply_sequence(identity_permutation(6), seq) == (2, 3, 1, 4, 0, 5)


def test_walecki_sequence_k1_is_tail_only():
    for L in (4, 6, 8):
        assert walecki_sequence(1, L).layers == reversed_sequence(tail_ladders(1, L)).layers


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11])
def test_walecki_sequence_odd_l(L):
    for k in range(1, (L + 1) // 2 + 1):
        seq = walecki_sequence(k, L)
        assert apply_sequence(identity_permutation(L), seq) == zigzag_path(k, L)
        assert len(seq) <= L


def test_sort_network_identity_is_empty():
    assert sort_network_sequence(identity_permutation(6)).layers == ()


def test_sort_network_reversal_needs_l_layers():
    L = 7
    seq = sort_network_sequence(tuple(reversed(range(L))))
    assert len(seq.layers) == L
    assert apply_sequence(identity_permutation(L), seq) == tuple(reversed(range(L)))


def test_sort_network_round_trip_odd_path():
    p = zigzag_path(2, 5)
    seq = sort_network_sequence(p)
    assert apply_sequence(identity_permutation(5), seq) == p


def test_sort_network_round_trip_random():
    rng = np.random.default_rng(17)
    for _ in range(200):
        L = int(rng.integers(2, 13))
        p = tuple(rng.permutation(L))
        seq = sort_network_sequence(p)
        assert len(seq.layers) <= L
        assert apply_sequence(identity_permutation(L), seq) == p


def test_sequence_then_reverse_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        L = int(rng.integers(2, 11))
        p = tuple(rng.permutation(L))
        seq = sort_network_sequence(p)
        assert apply_sequence(apply_sequence(identity_permutation(L), seq), reversed_sequence(seq)) \
            == identity_permutation(L)
    seq = walecki_sequence(3, 8)
    assert apply_sequence(apply_sequence(identity_permutation(8), seq), reversed_sequence(seq)) \
        == identity_permutation(8)


@pytest.mark.parametrize("L", [6, 8, 10])
def test_head_and_tail_groups_commute(L):
    for k in range(1, L // 2 + 1):
        head = reversed_sequence(head_ladders(k, L))
        tail = reversed_sequence(tail_ladders(k, L))
        a = apply_sequence(identity_permutation(L), concat(head, tail))
        b = apply_sequence(identity_permutation(L), concat(tail, head))
        assert a == b == zigzag_path(k, L)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_ladder_induction_step(k):
    # peeling the two widest ladders off path k of 2k qubits leaves path k-1
    # of 2k-2 qubits with the last two entries fixed
    L = 2 * k
    p = zigzag_path(k, L)
    step = concat(swap_ladder(1, L - 2, L), swap_ladder(0, L - 3, L))
    reduced = apply_sequence(p, step)
    expected = zigzag_path(k - 1, L - 2) + (L - 2, L - 1)
    assert reduced == expected


def test_generated_layers_never_reuse_a_qubit():
    for L in (4, 6, 8, 10, 12):
        for k in range(1, L // 2 + 1):
            for layer in walecki_sequence(k, L).layers:
                touched = [q for i in layer for q in (i, i + 1)]
                assert len(touched) == len(set(touched))


VALUE_CASES = [(SwapSequence, {"num_qubits": 4, "layers": ((2, 0), (1,))}, {"layers": ((1,),)})]


def test_swap_sequence_value_semantics():
    check_value_semantics(*VALUE_CASES[0])
