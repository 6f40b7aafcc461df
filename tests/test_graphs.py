import numpy as np
import pytest

from daqcompile.graphs import CouplingGraph, NNChain, PathCover, walecki_cover, zigzag_path

from oracles import (
    check_value_semantics,
    complete_edge_set,
    compose_weighted_paths,
    enabled_edges,
    num_slots,
    path_cover,
    path_edges,
    zigzag_walk,
)


def test_zigzag_paths_match_known_l6():
    # 1-based [1,2,6,3,5,4], [2,3,1,4,6,5], [3,4,2,5,1,6]
    assert walecki_cover(6).paths == (
        (0, 1, 5, 2, 4, 3),
        (1, 2, 0, 3, 5, 4),
        (2, 3, 1, 4, 0, 5),
    )


def test_l2_single_path():
    assert walecki_cover(2).paths == ((0, 1),)


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
def test_even_paths_tile_complete_graph(L):
    cover = walecki_cover(L)
    paths = cover.paths
    assert len(paths) == L // 2
    assert all(not d for d in cover.disabled_slots)
    union = set()
    total = 0
    for p in paths:
        edges = path_edges(p)
        total += len(edges)
        union |= edges
    assert total == L * (L - 1) // 2
    assert union == complete_edge_set(L)


@pytest.mark.parametrize("L", range(2, 13))
def test_zigzag_matches_walk_reference(L):
    max_k = L // 2 if L % 2 == 0 else (L + 1) // 2
    for k in range(1, max_k + 1):
        assert zigzag_path(k, L) == zigzag_walk(k, L)


def test_zigzag_label_validation():
    with pytest.raises(ValueError):
        zigzag_path(0, 6)
    with pytest.raises(ValueError):
        zigzag_path(4, 6)
    with pytest.raises(ValueError):
        zigzag_path(1, 1)
    with pytest.raises(ValueError):
        walecki_cover(1)


def test_path_edges_examples():
    # [1,3,4,2,5] in 1-based labels
    assert path_edges((0, 2, 3, 1, 4)) == {(0, 2), (2, 3), (1, 3), (1, 4)}
    # identity permutation is the chain
    assert path_edges(tuple(range(5))) == {(0, 1), (1, 2), (2, 3), (3, 4)}
    # first L=6 path: 1-based edges {12,26,63,35,54}
    assert path_edges((0, 1, 5, 2, 4, 3)) == {(0, 1), (1, 5), (2, 5), (2, 4), (3, 4)}


def test_path_edges_rejects_non_permutation():
    with pytest.raises(ValueError):
        path_edges((0, 0, 1))


def test_odd_cover_l3():
    cover = walecki_cover(3)
    assert len(cover.paths) == 2
    assert len(enabled_edges(cover)) == 3
    assert sum(len(d) for d in cover.disabled_slots) == 1


def test_odd_cover_l5():
    cover = walecki_cover(5)
    assert len(cover.paths) == 3
    assert num_slots(cover) == 12
    assert len(enabled_edges(cover)) == 10
    assert sum(len(d) for d in cover.disabled_slots) == 2


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11])
def test_odd_cover_enables_each_edge_once(L):
    cover = walecki_cover(L)
    assert set(enabled_edges(cover)) == complete_edge_set(L)
    assert sum(len(d) for d in cover.disabled_slots) == (L - 1) // 2


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11])
def test_odd_cover_first_occurrence_wins(L):
    cover = walecki_cover(L)
    # duplicates are disabled in the later path, never the earlier one
    assert cover.disabled_slots[0] == frozenset()
    seen = set()
    for p, disabled in zip(cover.paths, cover.disabled_slots):
        for slot in range(L - 1):
            edge = tuple(sorted((p[slot], p[slot + 1])))
            if slot in disabled:
                assert edge in seen
            else:
                seen.add(edge)


def test_compose_single_path_unit_weights():
    cover = path_cover([(0, 1, 2, 3)])
    g = compose_weighted_paths(cover, [[1.0, 1.0, 1.0]], [0.7])
    assert g.weight(0, 1) == g.weight(1, 2) == g.weight(2, 3) == pytest.approx(0.7)
    assert g.weight(0, 2) == 0.0


def test_compose_walecki_unit_fills_complete_graph():
    cover = walecki_cover(6)
    g = compose_weighted_paths(cover, [[1.0] * 5] * 3, [1.0] * 3)
    for i, j in complete_edge_set(6):
        assert g.weight(i, j) == pytest.approx(1.0)


def test_compose_two_copies_cancel():
    cover = path_cover([(0, 2, 1, 3), (0, 2, 1, 3)])
    g = compose_weighted_paths(cover, [[1, 1, 1], [1, 1, 1]], [0.3, -0.3])
    assert all(w == 0.0 for w in g.weights.values())


def test_compose_is_linear_in_times_and_weights():
    rng = np.random.default_rng(3)
    cover = walecki_cover(8)
    n = len(cover.paths)
    w1 = rng.uniform(-1, 1, (n, 7))
    w2 = rng.uniform(-1, 1, (n, 7))
    t = rng.uniform(0.1, 2.0, n)
    a = compose_weighted_paths(cover, w1, t)
    b = compose_weighted_paths(cover, w2, t)
    c = compose_weighted_paths(cover, w1 + w2, t)
    for e in complete_edge_set(8):
        assert c.weight(*e) == pytest.approx(a.weight(*e) + b.weight(*e), abs=1e-12)
    d = compose_weighted_paths(cover, w1, 2.0 * t)
    for e in complete_edge_set(8):
        assert d.weight(*e) == pytest.approx(2.0 * a.weight(*e), abs=1e-12)


def test_compose_validation():
    cover = walecki_cover(3)
    bad_path, bad_slot = next(
        (i, s) for i, d in enumerate(cover.disabled_slots) for s in d
    )
    weights = [[1.0, 1.0] for _ in cover.paths]
    weights[bad_path][bad_slot] = 0.5
    with pytest.raises(ValueError):
        compose_weighted_paths(cover, weights, [1.0] * len(cover.paths))
    with pytest.raises(ValueError):
        compose_weighted_paths(cover, [[1.0, 1.0]], [1.0, 1.0])


def test_path_cover_validation():
    with pytest.raises(ValueError):
        PathCover(3, ((0, 1, 2),), ())
    with pytest.raises(ValueError):
        PathCover(3, ((0, 1, 2),), (frozenset({5}),))
    with pytest.raises(ValueError):
        PathCover(3, ((0, 1, 1),), (frozenset(),))


def test_coupling_graph_validation():
    with pytest.raises(ValueError):
        CouplingGraph(3, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        CouplingGraph(3, {(0, 5): 1.0})
    g = CouplingGraph(3, {(2, 0): 0.5})
    assert g.weight(0, 2) == 0.5
    assert g.weight(2, 0) == 0.5
    assert g.weight(0, 1) == 0.0
    assert set(g.weights) == {(0, 2)}


def test_nnchain_validation():
    with pytest.raises(ValueError):
        NNChain(4, (1.0, 1.0))
    with pytest.raises(ValueError):
        NNChain(4, (1.0, float("nan"), 1.0))
    assert NNChain(3, [1, 2]).couplings == (1.0, 2.0)


VALUE_CASES = [
    (CouplingGraph, {"num_qubits": 3, "weights": {(0, 1): 1.0, (2, 1): -0.5}}, {"weights": {(0, 1): 1.0}}),
    (NNChain, {"num_qubits": 3, "couplings": (1.0, 0.5)}, {"couplings": (1.0, 0.25)}),
    (PathCover, {"num_qubits": 3, "paths": ((0, 1, 2), (1, 0, 2)), "disabled_slots": (frozenset(), frozenset({0}))},
     {"disabled_slots": (frozenset(), frozenset())}),
]


@pytest.mark.parametrize("cls, fields, changed", VALUE_CASES, ids=["coupling-graph", "chain", "path-cover"])
def test_value_semantics(cls, fields, changed):
    check_value_semantics(cls, fields, changed)
