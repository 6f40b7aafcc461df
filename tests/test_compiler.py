"""Sharing in compile: each distinct request is solved once and its repeats reuse the same blocks."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile import compiler
from daqcompile.circuits import (
    AnalogRequest,
    Circuit,
    DigitalLayer,
    Gate,
    GateType,
    ResourceBlock,
    ata_circuit_general,
    circuit_stats,
    lower_swap_layers,
)
from daqcompile.cli import main
from daqcompile.compiler import CompileResult, compile_ata, compile_chain, schedule_requests
from daqcompile.errors import UnschedulableError
from daqcompile.fileio import dumps_canonical, load_schedule, schedule_document
from daqcompile.graphs import CouplingGraph, NNChain
from daqcompile.scheduler import schedule
from daqcompile.unitaries import circuit_unitary, exact_target, phase_distance

import oracles
from oracles import IDENTITY_FRAME, check_value_semantics, single_qubit_frames


def random_problem(L, seed):
    rng = random.Random(seed)
    graph = CouplingGraph(L, {(i, j): rng.gauss(0.0, 1.0) for i in range(L) for j in range(i + 1, L)})
    return graph, NNChain(L, tuple(rng.uniform(0.5, 1.5) for _ in range(L - 1)))


def block_runs(circuit):
    """The maximal runs of consecutive resource blocks, in order."""
    runs, run = [], []
    for instr in circuit.instructions:
        if isinstance(instr, ResourceBlock):
            run.append(instr)
        elif run:
            runs.append(run)
            run = []
    return runs + [run] if run else runs


def test_schedule_runs_once_per_distinct_request(monkeypatch):
    graph, resource = random_problem(10, seed=3)
    calls = []

    def counting(angles, chain, t_f):
        calls.append(tuple(angles))
        return schedule(angles, chain, t_f)

    monkeypatch.setattr(compiler, "schedule", counting)
    result = compile_ata(graph, resource, 0.7)
    requests = [i.slot_angles for i in lower_swap_layers(ata_circuit_general(graph, 0.7)).instructions
                if isinstance(i, AnalogRequest)]
    assert result.analog_requests == len(requests)
    assert sorted(calls) == sorted(set(requests))
    assert len(calls) < len(requests)


def test_lowered_iswap_layers_share_layers_and_blocks():
    L = 5
    resource = NNChain(L, (0.9, 1.3, 0.6, 1.1))
    # The same run of two iSWAP layers twice, split by a request: the second
    # lowering repeats the first one's layer and request objects.
    run = (DigitalLayer((Gate.iswap(0), Gate.iswap_dg(2))), DigitalLayer((Gate.iswap_dg(1), Gate.iswap(3))))
    split = AnalogRequest((0.3, 0.0, -0.2, 0.1))
    lowered = lower_swap_layers(Circuit(L, run + (split,) + run))
    # h req r req r req, h closing the frame, the split, the run again, the undo word h
    assert len(lowered.instructions) == 15
    assert lowered.instructions[7] is split
    first, second = lowered.instructions[:6], lowered.instructions[8:14]
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert len({id(i) for i in first if isinstance(i, AnalogRequest)}) == 3
    # so do their blocks once scheduled; the split's blocks stand between them
    halves = block_runs(schedule_requests(lowered, resource, 0.7))
    assert len(halves) == 7 and all(halves)
    for a_run, b_run in zip(halves[:3], halves[4:], strict=True):
        assert all(a is b for a, b in zip(a_run, b_run, strict=True))
    # The XX and YY halves of one layer run the very same block objects.
    runs = block_runs(schedule_requests(lower_swap_layers(Circuit(L, run[:1])), resource, 0.7))
    assert len(runs) == 2 and runs[0]
    assert all(a is b for a, b in zip(*runs, strict=True))


def _distinct_layers(circuit):
    return len({id(i) for i in circuit.instructions if isinstance(i, DigitalLayer)})


def test_compiled_schedules_hold_a_handful_of_distinct_layers(tmp_path):
    # All single-qubit work of a schedule sits in these few layer objects,
    # however large L is: 0 at L = 2 (one request, no swaps), 2 (h and r)
    # for even L >= 4 and 3 (x as well) for odd L >= 3.  Compile, write and
    # load all rely on that and do their per-gate work once per distinct
    # layer.
    stats = {"analog_requests": 0, "resource_blocks": 0, "sqr_gates": 0, "total_analog_time": 0.0}
    path = tmp_path / "s.json"
    for L in [*range(2, 41), 64, 96, 97]:
        graph, resource = random_problem(L, L)
        circuit = compile_ata(graph, resource, 0.7).circuit
        expected = 0 if L == 2 else 2 if L % 2 == 0 else 3
        assert _distinct_layers(circuit) == expected, L
        path.write_text(dumps_canonical(
            schedule_document(circuit, resource, 0.7, stats, "0.1.0", "ab" * 32)), encoding="utf-8")
        assert _distinct_layers(load_schedule(str(path))[0]) == expected, L


# sqr_gates when every merged request had its own basis sandwich (h ... h for
# XX, r ... r x for YY) instead of one frame carried between requests
SANDWICH_SQR_GATES = {3: 20, 4: 48, 5: 96, 8: 288, 31: 5452, 33: 6200, 64: 23808, 96: 54144, 97: 55480}


def test_compiled_sqr_gates_follow_the_closed_form(tmp_path, capsys):
    # One x/h/r layer on all L qubits per analog request for even L, so
    # L(3L - 4) gates; L(3L - 2) for odd L >= 5; 14 at L = 3.  The x/h/r
    # gates of each qubit compose to the identity.
    problem, out = tmp_path / "p.json", tmp_path / "s.json"
    for L in [*range(2, 41), 64, 96, 97]:
        graph, resource = random_problem(L, L)
        circuit = compile_ata(graph, resource, 0.7).circuit
        expected = 0 if L == 2 else 14 if L == 3 else L * (3 * L - 4) if L % 2 == 0 else L * (3 * L - 2)
        assert circuit_stats(circuit).sqr_count == expected, L
        assert expected <= SANDWICH_SQR_GATES.get(L, expected)
        assert single_qubit_frames(circuit) == [IDENTITY_FRAME] * L, L
        layers = {id(i): i for i in circuit.instructions if isinstance(i, DigitalLayer)}.values()
        assert {g.type.value for la in layers for g in la.gates} <= {"x", "h", "r"}
        problem.write_text(json.dumps({
            "num_qubits": L, "resource_couplings": list(resource.couplings), "time": 0.7,
            "target": {"type": "ata", "couplings": [{"i": i, "j": j, "value": w}
                                                    for (i, j), w in graph.weights.items()]},
        }), encoding="utf-8")
        assert main(["compile", "--input", str(problem), "--output", str(out)]) == 0
        assert main(["stats", "--input", str(problem), "--schedule", str(out)]) == 0
        assert f"\nsqr_gates: {expected}\n" in capsys.readouterr().out, L


def test_requests_differing_only_in_the_sign_of_zero_share_blocks():
    L = 4
    resource = NNChain(L, (0.9, 1.3, 0.6))
    plus, minus = AnalogRequest((0.3, 0.0, -0.5)), AnalogRequest((0.3, -0.0, -0.5))
    executable = schedule_requests(Circuit(L, (plus, DigitalLayer((Gate(GateType.H, (1,)),)), minus)), resource, 0.7)
    first, second = block_runs(executable)
    assert first == second == list(schedule(minus.slot_angles, resource, 0.7))
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_overflow_on_a_repeated_request_blames_that_request():
    L = 3
    resource = NNChain(L, (1.0, 1.0))
    big = AnalogRequest((1e308, 0.0))      # blocks sum to 1e308
    other = AnalogRequest((0.0, 6e307))    # 6e307, blamed on slot 1 if it were to blame
    ok = schedule_requests(Circuit(L, (big, other)), resource, 1.0)
    assert circuit_stats(ok).total_analog_time < float("inf")
    with pytest.raises(UnschedulableError) as err:
        schedule_requests(Circuit(L, (big, other, big)), resource, 1.0)
    assert (err.value.slot, err.value.angle) == (0, 1e308)
    assert "total analog time overflows" in str(err.value)


def test_cli_overflow_on_a_repeated_request_exits_2(tmp_path, capsys):
    # The lowered iSWAP requests are each about 2e307 long here; the tenth
    # of them overflows the total, and it repeats an earlier one: the YY
    # request of the undo run, all slots at -pi/4.
    L = 6
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "num_qubits": L, "resource_couplings": [4e-308] * (L - 1), "time": 1.0,
        "target": {"type": "ata", "couplings": [
            {"i": i, "j": j, "value": 1e-300} for i in range(L) for j in range(i + 1, L)]},
    }), encoding="utf-8")
    assert main(["compile", "--input", str(problem), "--output", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == (
        "unschedulable: slot 0 requires ZZ angle -0.7853981633974483 "
        "but the total analog time overflows the float range\n")
    assert not (tmp_path / "s.json").exists()


@st.composite
def _ata_problems(draw):
    L = draw(st.integers(2, 12))
    weights = st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-3.0, 3.0, allow_subnormal=False)
    edges = draw(st.lists(st.tuples(st.integers(0, L - 1), st.integers(0, L - 1)), max_size=L * L))
    graph = CouplingGraph(L, {(min(e), max(e)): draw(weights) for e in set(edges) if e[0] != e[1]})
    couplings = st.floats(0.25, 2.0) | st.floats(-2.0, -0.25)
    resource = NNChain(L, tuple(draw(st.lists(couplings, min_size=L - 1, max_size=L - 1))))
    return graph, resource, draw(st.floats(0.05, 3.0))


@settings(max_examples=60, deadline=None)
@given(_ata_problems())
def test_compile_equals_scheduling_every_request_independently(problem):
    graph, resource, t_f = problem
    lowered = lower_swap_layers(ata_circuit_general(graph, t_f))
    instrs = []
    for instr in lowered.instructions:
        if isinstance(instr, AnalogRequest):
            instrs.extend(schedule(instr.slot_angles, resource, t_f))
        else:
            instrs.append(instr)
    expected = Circuit(graph.num_qubits, tuple(instrs))
    result = compile_ata(graph, resource, t_f)
    assert result.circuit == expected
    assert result.analog_requests == sum(isinstance(i, AnalogRequest) for i in lowered.instructions)
    assert circuit_stats(result.circuit) == circuit_stats(expected)


@st.composite
def _sparse_problems(draw):
    """Small targets: sparse, signed or zero weights, or no edges at all."""
    L = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
    edges = draw(st.sampled_from(["empty", "sparse", "dense"]))
    if edges == "empty":
        chosen = []
    elif edges == "sparse":
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=L, unique=True))
    else:
        chosen = pairs
    weights = st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-3.0, 3.0, allow_subnormal=False)
    graph = CouplingGraph(L, {e: draw(weights) for e in chosen})
    resource = NNChain(L, tuple(draw(st.lists(st.floats(0.5, 1.5), min_size=L - 1, max_size=L - 1))))
    return graph, resource, draw(st.floats(0.05, 1.5))


@settings(max_examples=40, deadline=None)
@given(_sparse_problems())
def test_compiled_swap_network_matches_the_exact_target(problem):
    # A target whose every pair is nonzero runs the whole network; any other
    # stops where the pair-tracking oracle, run through the same lowering,
    # stops, which is never later.
    graph, resource, t_f = problem
    result = compile_ata(graph, resource, t_f)
    L = graph.num_qubits
    full = 1 if L == 2 else 3 * L - 4 if L % 2 == 0 else 3 * L - 3
    oracle = lower_swap_layers(oracles.ata_circuit_pending_pairs(graph, t_f))
    assert result.analog_requests == circuit_stats(oracle).analog_block_count <= full
    if len(graph.weights) == L * (L - 1) // 2 and all(graph.weights.values()):
        assert result.analog_requests == full
    u = circuit_unitary(result.circuit, resource)
    assert phase_distance(u, exact_target(graph, t_f)).distance < 1e-11


@pytest.mark.parametrize("L", range(2, 13))
def test_chain_targets_compile_to_their_one_request_schedule(L):
    # compile_chain takes the one swap-network route, which stops at its
    # first request: the schedule of the angles as one request, blocks,
    # masks and the sign of every zero alike
    rng = random.Random(f"chain/{L}")
    resource = NNChain(L, tuple(rng.uniform(0.5, 1.5) for _ in range(L - 1)))
    mixed = [rng.choice([0.0, -0.0, rng.gauss(0.0, 1.0)]) for _ in range(L - 1)]
    for angles in (mixed, [0.0] * (L - 1), [-0.0] * (L - 1), [rng.gauss(0.0, 1.0) for _ in range(L - 1)]):
        got = compile_chain(angles, resource, 0.7)
        want = oracles.compile_chain_one_request(angles, resource, 0.7)
        assert got == want and repr(got) == repr(want)


VALUE_CASES = [
    (CompileResult, {"circuit": Circuit(2, (ResourceBlock(0.5, b"\0\1"),)), "analog_requests": 1},
     {"analog_requests": 2}),
]


def test_compile_result_value_semantics():
    check_value_semantics(*VALUE_CASES[0])
