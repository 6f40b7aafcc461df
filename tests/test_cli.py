import ast
import gc
import hashlib
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import daqcompile
from daqcompile import __version__
from daqcompile.cli import main
from daqcompile.circuits import circuit_stats
from daqcompile.compiler import compile_ata
from daqcompile.fileio import dumps_canonical, load_problem, load_schedule, schedule_document
from daqcompile.graphs import CouplingGraph
from daqcompile.unitaries import circuit_unitary, exact_target, phase_distance

from oracles import (
    compile_chain_one_request,
    complete_graph,
    minimum_time,
    request_pairs,
    same_document,
    schedule_spelling,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def nn_problem(tmp_path, L=4, couplings=None, angles=None, t_f=0.5, name="p.json"):
    couplings = couplings if couplings is not None else [1.0] * (L - 1)
    angles = angles if angles is not None else [g * t_f for g in couplings]
    return write_json(tmp_path / name, {
        "num_qubits": L,
        "resource_couplings": couplings,
        "target": {"type": "nn", "angles": angles},
        "time": t_f,
    })


def ata_problem(tmp_path, L=4, t_f=0.5, couplings=None, resource=None, name="p.json"):
    if couplings is None:
        couplings = [
            {"i": i, "j": j, "value": 0.5 + 0.1 * (i + j)}
            for i in range(L) for j in range(i + 1, L)
        ]
    return write_json(tmp_path / name, {
        "num_qubits": L,
        "resource_couplings": resource if resource is not None else [1.0] * (L - 1),
        "target": {"type": "ata", "couplings": couplings},
        "time": t_f,
    })


# A path through which a child reads its standard input, here a pipe.
STDIN_PATH = "/dev/stdin" if os.path.lexists("/dev/stdin") else "/dev/fd/0" if os.path.isdir("/dev/fd") else None


def test_compile_nn_target_equal_to_resource(tmp_path, capsys):
    problem = nn_problem(tmp_path, L=5, couplings=[0.9, 1.1, 0.7, 1.2], t_f=0.8)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    circuit, resource, t_f, metadata = load_schedule(out)
    assert len(circuit.instructions) == 1
    block = circuit.instructions[0]
    assert block.duration == pytest.approx(0.8)
    assert block.x_mask == bytes(5)
    assert metadata["stats"]["analog_requests"] == 1
    assert list(metadata["stats"]) == ["analog_requests", "resource_blocks", "sqr_gates", "total_analog_time"]
    assert main(["verify", "--input", problem, "--schedule", out]) == 0


def test_compile_then_verify_nn_with_sign_flips(tmp_path):
    problem = nn_problem(tmp_path, L=4, couplings=[1.0, 0.8, 1.2],
                         angles=[-0.4, 0.9, -1.7], t_f=0.6)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    assert main(["verify", "--input", problem, "--schedule", out]) == 0


@pytest.mark.parametrize("L", range(2, 13))
def test_nn_target_compiles_to_its_one_request_schedule(tmp_path, capsys, L):
    # an nn target's pairs all meet in the swap network's first request, so
    # it compiles to that request alone: the schedule of the angles taken as
    # one request, zero and -0.0 angles included
    rng = random.Random(f"nn/{L}")
    couplings = [rng.uniform(0.5, 1.5) for _ in range(L - 1)]
    angles = [rng.choice([0.0, -0.0, rng.gauss(0.0, 1.0)]) for _ in range(L - 1)]
    for case, phis in enumerate((angles, [0.0] * (L - 1), [-0.0] * (L - 1))):
        problem = nn_problem(tmp_path, L=L, couplings=couplings, angles=phis, t_f=0.7, name=f"p{case}.json")
        out = tmp_path / f"s{case}.json"
        assert main(["compile", "--input", problem, "--output", str(out)]) == 0
        spec = load_problem(problem)
        want = compile_chain_one_request(phis, spec.resource, spec.t_f)
        counts = circuit_stats(want.circuit)
        stats = {"analog_requests": 1, "resource_blocks": counts.analog_block_count,
                 "sqr_gates": counts.sqr_count, "total_analog_time": counts.total_analog_time}
        digest = hashlib.sha256((tmp_path / f"p{case}.json").read_bytes()).hexdigest()
        spelled = schedule_spelling(want.circuit, couplings, 0.7, stats, __version__, digest)
        assert same_document(json.loads(out.read_text(encoding="utf-8")), spelled)
        assert main(["verify", "--input", problem, "--schedule", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("L", range(2, 9))
def test_empty_target_compiles_to_no_blocks(tmp_path, capsys, L):
    # no pair holds a nonzero phase, so the network stops at its first
    # request, whose zero angles solve to no blocks: a zero resource
    # coupling is no obstacle, and the schedule is the identity
    zero_slot = [1.0] * (L - 1)
    zero_slot[(L - 1) // 2] = 0.0
    zeros = [{"i": i, "j": j, "value": [0.0, -0.0][(i + j) % 2]} for i in range(L) for j in range(i + 1, L)]
    for case, (couplings, resource) in enumerate((([], None), ([], zero_slot), (zeros, zero_slot))):
        problem = ata_problem(tmp_path, L=L, t_f=0.7, couplings=couplings, resource=resource, name=f"p{case}.json")
        out = tmp_path / f"s{case}.json"
        capsys.readouterr()
        assert main(["compile", "--input", problem, "--output", str(out)]) == 0
        report = capsys.readouterr().out.splitlines()
        assert report[1:5] == ["analog_requests: 1", "resource_blocks: 0", "sqr_gates: 0",
                               "total_analog_time: 0.0"]
        circuit, chain, _, _ = load_schedule(str(out))
        assert circuit.instructions == ()
        assert phase_distance(circuit_unitary(circuit, chain), exact_target(CouplingGraph(L, {}), 0.7)).distance < 1e-12
        assert main(["verify", "--input", problem, "--schedule", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_compile_then_verify_odd_l(tmp_path):
    problem = ata_problem(
        tmp_path, L=5, t_f=0.9,
        couplings=[{"i": i, "j": j, "value": 0.3 * (i - j)} for i in range(5) for j in range(i + 1, 5)],
    )
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    assert main(["verify", "--input", problem, "--schedule", out]) == 0


def test_compile_is_byte_deterministic(tmp_path):
    problem = ata_problem(tmp_path, L=6, t_f=0.31)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["compile", "--input", problem, "--output", out1]) == 0
    assert main(["compile", "--input", problem, "--output", out2]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_schedule_round_trip(tmp_path):
    problem = ata_problem(tmp_path, L=5, t_f=0.41)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    circuit, resource, t_f, metadata = load_schedule(out)
    document = schedule_document(
        circuit, resource, t_f, metadata["stats"], __version__, metadata["input_sha256"]
    )
    assert dumps_canonical(document) == (tmp_path / "s.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("L, digest", [
    pytest.param(16, "7b5a1dff696725bacb0047abc708bdf7bd024d39bad992c5e122a35350f9d02f", id="L16"),
    pytest.param(17, "dcf76bd5f4fe47a7cba10e27d2581fd64b4f0f71d3329ffe8e597c8f0bde3c98", id="L17"),
    pytest.param(96, "e11806e26629863c3520394948519a8b13dbae8502dc839361a06c27a5311f69", id="L96"),
])
def test_compiled_file_digest_is_pinned(tmp_path, L, digest):
    # Dyadic weights, couplings and time: the compiler only adds, subtracts,
    # multiplies and divides them (correctly rounded everywhere), so the file
    # does not depend on the platform's libm.  The digest covers the version.
    problem = ata_problem(
        tmp_path, L=L, t_f=0.75, resource=[(k % 5 + 2) / 4 for k in range(L - 1)], couplings=[
            {"i": i, "j": j, "value": ((7 * i + 3 * j) % 17 - 8) / 8} for i in range(L) for j in range(i + 1, L)
        ])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    assert __version__ == "0.1.0"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("L, digest", [
    pytest.param(6, "70af0edcf9422874408ef0c496eb7348236a33546532336214ecb426ce9c7c5f", id="L6"),
    pytest.param(7, "647378575fa157b965570e92ad24088940e1af8424414adc012d5e9dc4307ac1", id="L7"),
])
def test_a_far_pair_in_the_last_request_runs_the_whole_network(tmp_path, capsys, L, digest):
    # the adjacent pairs and one far pair that meets only in the network's
    # last request: every layer runs and is undone, and the file is the one
    # the whole network always wrote (dyadic values, as in the pins above);
    # without the far pair the network stops at its first request
    i, j = max(request_pairs(L)[-1], key=lambda pair: pair[1] - pair[0])
    adjacent = [(k, k + 1) for k in range(L - 1)]
    for edges, requests in ((adjacent + [(i, j)], 3 * L - 4 if L % 2 == 0 else 3 * L - 3), (adjacent, 1)):
        problem = ata_problem(tmp_path, L=L, t_f=0.75, resource=[(k % 5 + 2) / 4 for k in range(L - 1)], couplings=[
            {"i": a, "j": b, "value": ((7 * a + 3 * b) % 17 - 8) / 8} for a, b in edges
        ])
        out = tmp_path / "s.json"
        assert main(["compile", "--input", problem, "--output", str(out)]) == 0
        assert f"analog_requests: {requests}" in capsys.readouterr().out
        assert main(["verify", "--input", problem, "--schedule", str(out)]) == 0
        if requests > 1:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_compiled_file_parses_to_schedule_document(tmp_path):
    path = ata_problem(tmp_path, L=12, t_f=0.7, couplings=[
        {"i": i, "j": j, "value": math.sin(3 * i + 7 * j)} for i in range(12) for j in range(i + 1, 12)
    ])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", path, "--output", str(out)]) == 0
    problem = load_problem(path)
    circuit = compile_ata(problem.target_graph, problem.resource, problem.t_f).circuit
    metadata = load_schedule(str(out))[3]
    spelled = schedule_spelling(circuit, problem.resource.couplings, problem.t_f, metadata["stats"],
                                __version__, metadata["input_sha256"])
    assert same_document(json.loads(out.read_text(encoding="utf-8")), spelled)


def test_failed_write_keeps_old_schedule(tmp_path, monkeypatch):
    problem = ata_problem(tmp_path, L=6, t_f=0.4)
    out = tmp_path / "s.json"
    out.write_text("previous schedule\n", encoding="utf-8")
    before = sorted(os.listdir(tmp_path))

    def failing_writer(doc):
        yield "{\n"
        raise RuntimeError("disk full")

    monkeypatch.setattr("daqcompile.cli.iter_canonical", failing_writer)
    with pytest.raises(RuntimeError, match="disk full"):
        main(["compile", "--input", problem, "--output", str(out)])
    assert out.read_text(encoding="utf-8") == "previous schedule\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_schedule_mask_must_be_booleans(tmp_path, capsys):
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    block = next(i["resource_block"] for i in doc["instructions"] if "resource_block" in i)
    for bad in ([0, 1, 1, 0], [False, True, 1.0, False], [False, None, True, True]):
        block["x_mask"] = bad
        out.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["stats", "--input", problem, "--schedule", str(out)]) == 1
        assert "x_mask" in capsys.readouterr().err


def test_compile_unschedulable_exits_2(tmp_path, capsys):
    problem = nn_problem(tmp_path, L=3, couplings=[1.0, 0.0], angles=[0.3, 0.3])
    assert main(["compile", "--input", problem, "--output", str(tmp_path / "s.json")]) == 2
    assert "slot 1" in capsys.readouterr().err


def test_compile_unschedulable_ata_exits_2(tmp_path, capsys):
    problem = ata_problem(tmp_path, L=4, resource=[1.0, 0.0, 1.0])
    assert main(["compile", "--input", problem, "--output", str(tmp_path / "s.json")]) == 2


def test_finite_input_that_overflows_exits_without_traceback(tmp_path, capsys):
    huge = ata_problem(tmp_path, L=3, t_f=10.0, couplings=[{"i": 0, "j": 2, "value": 1e308}], name="a.json")
    tiny = nn_problem(tmp_path, L=4, couplings=[1e-300, 0.8, 1.2], angles=[1e300, 0.1, 0.2], t_f=1e-10,
                      name="b.json")
    # each block fits, but the two requests' blocks sum past the float range
    summed = ata_problem(tmp_path, L=4, t_f=1.0, name="c.json",
                         couplings=[{"i": 0, "j": 1, "value": 1e308}, {"i": 0, "j": 2, "value": 1e308}])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", huge, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {huge}: target.couplings[0]: time * value is beyond the float range\n"
    assert main(["compile", "--input", tiny, "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "unschedulable: slot 0 requires ZZ angle 1e+300 but its evolution time overflows the float range\n")
    assert main(["compile", "--input", summed, "--output", str(out)]) == 2
    assert capsys.readouterr().err.endswith("but the total analog time overflows the float range\n")
    assert not out.exists()


def test_schedule_whose_durations_overflow_exits_1(tmp_path, capsys):
    problem = nn_problem(tmp_path, L=3, angles=[0.3, -0.2])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    block = {"resource_block": {"duration": 1e308, "x_mask": [False, False, False]}}
    doc["instructions"] += [block, block]
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in ("stats", "verify"):
        assert main([command, "--input", problem, "--schedule", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: instructions: block durations sum beyond the float range\n"
        assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("tool_version", [1, 2]), ("tool_version", 5), ("tool_version", None), ("input_sha256", {"a": 1}),
    ("input_sha256", "0" * 63), ("input_sha256", "F" * 64),
], ids=["version-list", "version-int", "version-null", "hash-object", "hash-short", "hash-upper"])
def test_invalid_metadata_types_exit_1(tmp_path, capsys, key, value):
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["metadata"][key] = value
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in ("stats", "verify"):
        assert main([command, "--input", problem, "--schedule", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out}: metadata.{key}: expected "), captured.err
        assert captured.out == ""


def test_compile_then_verify_passes(tmp_path, capsys):
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    assert main(["verify", "--input", problem, "--schedule", out]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured and "distance" in captured


def test_verify_detects_perturbed_duration(tmp_path, capsys):
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    for instr in doc["instructions"]:
        if "resource_block" in instr and instr["resource_block"]["duration"] > 0.01:
            instr["resource_block"]["duration"] += 1e-3
            break
    out.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--input", problem, "--schedule", str(out)]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("mutant", ["one-bit", "reversed"])
def test_verify_detects_a_wrong_mask(tmp_path, capsys, mutant):
    # well-formed masks on the wrong qubits: one bit of the longest block
    # flipped, or every mask read in reversed qubit order
    problem = ata_problem(tmp_path, L=6, t_f=0.7, resource=[0.9, 1.3, 0.6, 1.1, 0.8])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    blocks = [i["resource_block"] for i in doc["instructions"] if "resource_block" in i]
    if mutant == "one-bit":
        mask = max(blocks, key=lambda b: b["duration"])["x_mask"]
        mask[2] = not mask[2]
    else:
        for block in blocks:
            block["x_mask"].reverse()
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--schedule", str(out)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


def test_verify_resolves_a_tiny_duration_error(tmp_path, capsys):
    # a relative error of 1e-10 in one block is ~1e-10 of distance, far
    # above the ~1e-14 at which correct schedules verify
    problem = ata_problem(tmp_path, L=8, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    argv = ["verify", "--input", problem, "--schedule", str(out), "--tol", "1e-11"]
    assert main(argv) == 0
    _scaled_block(out, 1 + 1e-10)
    capsys.readouterr()
    assert main(argv) == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_passes_at_12_qubits(tmp_path, capsys):
    # the frame walk has no qubit cap: 12 qubits verify like 4
    L = 12
    problem = ata_problem(tmp_path, L=L, couplings=[{"i": 0, "j": 11, "value": 0.4}])
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--schedule", out]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("PASS\n") and captured.err == ""


def _scaled_block(out, factor):
    """Scale the duration of the schedule file's longest block by `factor`; returns it."""
    doc = json.loads(out.read_text(encoding="utf-8"))
    block = max((i["resource_block"] for i in doc["instructions"] if "resource_block" in i),
                key=lambda b: b["duration"])
    block["duration"] *= factor
    out.write_text(json.dumps(doc), encoding="utf-8")
    return block


def test_failed_verify_explains_itself(tmp_path, capsys):
    # a chain target's blocks realise its couplings directly: a longer block
    # puts every slot it runs off its target, worst first
    problem = nn_problem(tmp_path, L=5, couplings=[0.9, 1.3, 0.6, 1.1], angles=[0.5, -0.2, 0.3, 0.9])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    _scaled_block(out, 1 + 1e-3)
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--schedule", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("distance: ") and lines[1] == "tolerance: 1.000e-09"
    assert lines[-1] == "FAIL"
    worst = lines[2:-1]
    assert 1 <= len(worst) <= 4
    offs = []
    for line in worst:
        edge, rest = line.split(": realised ")
        realised, rest = rest.split(", target ")
        target, off = rest.split(", off by ")
        i, j = map(int, edge.strip("()").split(", "))
        assert j == i + 1
        assert float(off) == pytest.approx(abs(float(realised) - float(target)), rel=1e-3)
        offs.append(float(off))
    assert offs == sorted(offs, reverse=True) and offs[-1] > 1e-6
    assert sum(offs) == pytest.approx(float(lines[0].removeprefix("distance: ")), rel=1e-3)


def test_failed_verify_reports_rounding_off_the_z_frame(tmp_path, capsys):
    # an rz after an h rotates X: its angle is no multiple of pi/4, so the
    # rounding to one is what fails
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["instructions"][0:0] = [{"sqr": [{"q": 1, "gate": "h"}]},
                                {"sqr": [{"q": 1, "gate": "rz", "angle": 0.25}]},
                                {"sqr": [{"q": 1, "gate": "h"}]}]
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--schedule", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].endswith("rounding to k*pi/4 off by 1.250e-01") and lines[-1] == "FAIL"


def test_failed_verify_names_the_first_qubit_off_the_frame(tmp_path, capsys):
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["instructions"].append({"sqr": [{"q": 2, "gate": "h"}, {"q": 3, "gate": "x"}]})
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--schedule", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["frame: qubit 2 does not return to itself", "FAIL"]


def test_verify_at_64_qubits_resolves_a_relative_1e9_duration_error(tmp_path, capsys):
    rng = random.Random(5)
    L = 64
    couplings = [{"i": i, "j": j, "value": rng.gauss(0.0, 1.0)} for i in range(L) for j in range(i + 1, L)]
    problem = ata_problem(tmp_path, L=L, t_f=0.7, couplings=couplings,
                          resource=[rng.uniform(0.5, 1.5) for _ in range(L - 1)])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--schedule", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "PASS" and float(lines[0].removeprefix("distance: ")) < 1e-9
    _scaled_block(out, 1 + 1e-9)
    assert main(["verify", "--input", problem, "--schedule", str(out)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


def test_parse_errors_exit_1(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {
        "num_qubits": 3,
        "resource_couplings": [1.0, 1.0],
        "target": {"type": "nn", "angles": [0.1, 0.2]},
        "time": 0.5,
        "comment": "unknown field",
    })
    assert main(["compile", "--input", bad, "--output", str(tmp_path / "s.json")]) == 1
    (tmp_path / "garbage.json").write_text("{not json", encoding="utf-8")
    assert main(["compile", "--input", str(tmp_path / "garbage.json"),
                 "--output", str(tmp_path / "s.json")]) == 1
    missing = write_json(tmp_path / "m.json", {
        "num_qubits": 3,
        "resource_couplings": [1.0, 1.0],
        "time": 0.5,
    })
    assert main(["compile", "--input", missing, "--output", str(tmp_path / "s.json")]) == 1
    negative_time = write_json(tmp_path / "t.json", {
        "num_qubits": 3,
        "resource_couplings": [1.0, 1.0],
        "target": {"type": "nn", "angles": [0.1, 0.2]},
        "time": -0.5,
    })
    assert main(["compile", "--input", negative_time, "--output", str(tmp_path / "s.json")]) == 1


def test_duplicate_json_keys_exit_1(tmp_path, capsys):
    problem = tmp_path / "dup.json"
    problem.write_text(
        '{"num_qubits": 4, "num_qubits": 3, "resource_couplings": [1.0, 1.0],'
        ' "target": {"type": "nn", "angles": [0.1, 0.2]}, "time": 0.5}',
        encoding="utf-8",
    )
    out = tmp_path / "s.json"
    assert main(["compile", "--input", str(problem), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {problem}: duplicate keys ['num_qubits']\n"
    assert not out.exists()
    # stats and verify read two files: the message names the one with the repeat
    good = Path(ata_problem(tmp_path, L=4))
    assert main(["compile", "--input", str(good), "--output", str(out)]) == 0
    for source in (good, out):
        bad = tmp_path / f"repeated-{source.name}"
        bad.write_text(source.read_text(encoding="utf-8").replace('"time": ', '"time": 1, "time": ', 1),
                       encoding="utf-8")
        problem, schedule = (bad, out) if source is good else (good, bad)
        for command in ("stats", "verify"):
            capsys.readouterr()
            assert main([command, "--input", str(problem), "--schedule", str(schedule)]) == 1
            assert capsys.readouterr() == ("", f"error: {bad}: duplicate keys ['time']\n")


_BAD_VERIFY_OPTIONS = [
    "--tol=nan", "--tol=0", "--tol=-1", "--tol=inf", "--tol=tight",
    "--max-qubits=-3", "--max-qubits=1", "--max-qubits=8.5",
]


@pytest.mark.parametrize("case", ["no-arguments", "unknown-subcommand", "epsilon", *_BAD_VERIFY_OPTIONS])
def test_usage_errors_exit_1(tmp_path, capsys, case):
    # argparse's own exit code 2 would read as "unschedulable"
    problem = ata_problem(tmp_path, L=4)
    out = tmp_path / "s.json"
    if case in _BAD_VERIFY_OPTIONS:
        argv = ["verify", "--input", problem, "--schedule", str(out), case]
    else:
        argv = {
            "no-arguments": ["compile"],
            "unknown-subcommand": ["optimise", "--input", problem],
            "epsilon": ["compile", "--input", problem, "--output", str(out), "--epsilon", "1e-12"],
        }[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    # --epsilon and --max-qubits (the dense verifier's cap) are gone: unknown options
    if case == "epsilon" or case.startswith("--max-qubits"):
        unknown = "--epsilon 1e-12" if case == "epsilon" else case
        assert f"error: unrecognized arguments: {unknown}" in captured.err
    else:
        assert "unrecognized arguments" not in captured.err
    assert not out.exists()


def test_help_and_version_exit_0(capsys):
    for argv in (["--version"], ["compile", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--epsilon" not in capsys.readouterr().out


@pytest.mark.parametrize("where", ["missing-directory", "file-as-directory"])
def test_unwritable_output_exits_1(tmp_path, capsys, where):
    problem = ata_problem(tmp_path, L=4)
    (tmp_path / "plain.txt").write_text("not a directory\n", encoding="utf-8")
    parent = tmp_path / ("missing" if where == "missing-directory" else "plain.txt")
    out = parent / "x.json"
    before = sorted(os.listdir(tmp_path))
    assert main(["compile", "--input", problem, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == before


def test_output_through_a_symlink_replaces_its_target(tmp_path):
    problem = ata_problem(tmp_path, L=5)
    real = tmp_path / "real.json"
    real.write_text("previous schedule\n", encoding="utf-8")
    link = tmp_path / "link.json"
    try:
        link.symlink_to(real)
    except (OSError, NotImplementedError):
        pytest.skip("cannot make symbolic links here")
    direct = tmp_path / "direct.json"
    assert main(["compile", "--input", problem, "--output", str(direct)]) == 0
    assert main(["compile", "--input", problem, "--output", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == direct.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["direct.json", "link.json", "p.json", "real.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo on this platform")
def test_output_that_is_not_a_regular_file_exits_1(tmp_path, capsys):
    problem = ata_problem(tmp_path, L=4)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    link = tmp_path / "link"
    link.symlink_to(fifo)
    for out in (fifo, link, tmp_path):
        assert main(["compile", "--input", problem, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: not a regular file\n"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert link.is_symlink()
    assert sorted(os.listdir(tmp_path)) == ["link", "p.json", "pipe"]


@pytest.mark.parametrize("flaw", ["negative-qubit", "repeated-qubit", "negative-duration", "gate-list"])
def test_invalid_schedule_entries_exit_1(tmp_path, capsys, flaw):
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    layer = next(i["sqr"] for i in doc["instructions"] if "sqr" in i)
    block = next(i["resource_block"] for i in doc["instructions"] if "resource_block" in i)
    if flaw == "negative-qubit":
        layer[0]["q"] = -1
    elif flaw == "repeated-qubit":
        layer.append(dict(layer[0]))
    elif flaw == "gate-list":
        layer[0]["gate"] = [layer[0]["gate"]]
    else:
        block["duration"] = -block["duration"]
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in ("stats", "verify"):
        assert main([command, "--input", problem, "--schedule", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: instructions["), err
        if flaw == "negative-qubit":   # the reader's range check, not Gate's
            assert err.endswith("].sqr[0].q: need 0 <= q < 4, got -1\n"), err


@pytest.mark.parametrize("flaw", [
    ("analog_requests", {"not": "a count"}), ("resource_blocks", -1), ("sqr_gates", True),
    ("total_analog_time", None), ("total_analog_time", "1.5"), ("reference_request_count", 18),
    ("unknown", 0),
], ids=["object", "negative", "bool", "missing", "string-time", "reference-key", "unknown-key"])
def test_invalid_metadata_stats_exit_1(tmp_path, capsys, flaw):
    key, value = flaw
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    if value is None:
        del doc["metadata"]["stats"][key]
    else:
        doc["metadata"]["stats"][key] = value
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in ("stats", "verify"):
        assert main([command, "--input", problem, "--schedule", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out}: metadata.stats"), captured.err
        assert captured.out == ""


def test_schedule_carrying_reference_request_count_exits_1(tmp_path, capsys):
    # files written before metadata.stats held only measured counts carried
    # the key, null for chain targets; they must be recompiled
    problem = nn_problem(tmp_path, L=4, angles=[0.3, -0.2, 0.1])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["metadata"]["stats"]["reference_request_count"] = None
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for command in ("stats", "verify"):
        assert main([command, "--input", problem, "--schedule", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: metadata.stats: unknown fields ['reference_request_count']\n"
        assert captured.out == ""


@pytest.mark.parametrize("flaw", ["non-utf8", "deep-nesting"])
@pytest.mark.parametrize("file, command", [
    ("problem", "compile"), ("problem", "stats"), ("problem", "verify"),
    ("schedule", "stats"), ("schedule", "verify"),
])
def test_malformed_bytes_exit_1(tmp_path, capsys, file, command, flaw):
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    bad = tmp_path / "bad.json"
    if flaw == "non-utf8":
        bad.write_bytes(b'{"num_qubits": 4, "comment": "\xff\xfe"}')
    else:
        bad.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    inputs = {"problem": problem, "schedule": str(out), file: str(bad)}
    flag, target = ("--output", str(tmp_path / "o.json")) if command == "compile" else ("--schedule", inputs["schedule"])
    capsys.readouterr()
    assert main([command, "--input", inputs["problem"], flag, target]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: invalid JSON: "), captured.err
    assert captured.out == ""


_NAN_BLOCK = {"resource_block": {"duration": math.nan, "x_mask": [False, False, False]}}


@pytest.mark.parametrize("file, fields, message", [
    ("problem", {"time": math.nan}, "{path}: time: non-finite number"),
    ("problem", {"time": 0.0}, "{path}: time must be positive"),
    ("problem", {"resource_couplings": [math.inf, 1.0]}, "{path}: resource_couplings[0]: non-finite number"),
    ("problem", {"resource_couplings": [1.0]}, "{path}: resource_couplings: expected a list of 2 numbers"),
    ("problem", {"num_qubits": 1}, "{path}: num_qubits must be >= 2"),
    ("problem", None, "{path}: cannot read: No such file or directory"),
    ("schedule", {"instructions": {}}, "{path}: instructions: expected a list"),
    ("schedule", {"instructions": [{"barrier": {}}]}, "{path}: instructions[0]: expected 'sqr' or 'resource_block'"),
    ("schedule", {"instructions": [_NAN_BLOCK]}, "{path}: instructions[0].duration: non-finite number"),
], ids=["nan-time", "zero-time", "infinite-coupling", "short-couplings", "one-qubit", "missing-input",
        "instructions-object", "unknown-instruction", "nan-duration"])
def test_malformed_fields_exit_1(tmp_path, capsys, file, fields, message):
    # A problem is compiled, a schedule is read by stats and verify; fields=None
    # names a file that does not exist, and {path} stands for the bad file's.
    problem = nn_problem(tmp_path, L=3, angles=[0.3, -0.2])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    inputs = {"problem": problem, "schedule": str(out)}
    if fields is None:
        inputs[file] = str(tmp_path / "missing.json")
    else:
        doc = json.loads(Path(inputs[file]).read_text(encoding="utf-8"))
        inputs[file] = write_json(tmp_path / "bad.json", {**doc, **fields})
    capsys.readouterr()
    for command in ["compile"] if file == "problem" else ["stats", "verify"]:
        flag, target = ("--output", str(tmp_path / "o.json")) if command == "compile" else ("--schedule", inputs["schedule"])
        assert main([command, "--input", inputs["problem"], flag, target]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(path=inputs[file])}\n"
        assert captured.out == ""


@pytest.mark.parametrize("file", ["problem", "schedule"])
@pytest.mark.parametrize("field, value", [("num_qubits", "4"), ("resource_couplings", "x"), ("time", "x")],
                         ids=["num-qubits", "resource-couplings", "time"])
def test_header_field_messages_name_their_file(tmp_path, capsys, file, field, value):
    # both files open with these fields, so only the path tells which one is bad
    problem = ata_problem(tmp_path, L=5, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    inputs = {"problem": problem, "schedule": str(out)}
    doc = json.loads(Path(inputs[file]).read_text(encoding="utf-8"))
    inputs[file] = write_json(tmp_path / f"bad-{file}.json", {**doc, field: value})
    capsys.readouterr()
    for command in ("stats", "verify"):
        assert main([command, "--input", inputs["problem"], "--schedule", inputs["schedule"]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {inputs[file]}: {field}"), captured.err
        assert captured.out == ""


@pytest.mark.parametrize("file, command", [
    ("problem", "compile"), ("problem", "stats"), ("problem", "verify"),
    ("schedule", "stats"), ("schedule", "verify"),
])
def test_integer_past_digit_limit_exits_1(tmp_path, file, command):
    # Interpreters with an int-to-str digit limit (4300 by default) refuse the
    # integer while parsing; older ones parse it and the time field rejects it.
    problem = ata_problem(tmp_path, L=4, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    inputs = {"problem": problem, "schedule": str(out)}
    text = Path(inputs[file]).read_text(encoding="utf-8")
    assert text.count('"time": 0.7') == 1
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"time": 0.7', '"time": ' + "9" * 5000), encoding="utf-8")
    inputs[file] = str(bad)
    flag, target = ("--output", str(tmp_path / "o.json")) if command == "compile" else ("--schedule", inputs["schedule"])
    run = subprocess.run(
        [sys.executable, "-m", "daqcompile.cli", command, "--input", inputs["problem"], flag, target],
        capture_output=True, text=True, encoding="utf-8", env=child_env(),
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: "), run.stderr
    assert run.stdout == ""


@pytest.mark.skipif(STDIN_PATH is None, reason="neither /dev/stdin nor /dev/fd exists")
def test_compile_from_pipe_hashes_bytes_read(tmp_path):
    problem = ata_problem(tmp_path, L=5, t_f=0.7)
    data = Path(problem).read_bytes()
    out = tmp_path / "s.json"
    run = subprocess.run(
        [sys.executable, "-m", "daqcompile.cli", "compile", "--input", STDIN_PATH, "--output", str(out)],
        input=data, capture_output=True, env=child_env(),
    )
    assert run.returncode == 0, run.stderr
    assert load_schedule(str(out))[3]["input_sha256"] == hashlib.sha256(data).hexdigest()
    from_file = tmp_path / "f.json"
    assert main(["compile", "--input", problem, "--output", str(from_file)]) == 0
    assert out.read_bytes() == from_file.read_bytes()


@pytest.mark.parametrize("field", ["num_qubits", "resource couplings", "time"], ids=["num-qubits", "resource", "time"])
def test_mismatched_problem_and_schedule_exit_1(tmp_path, capsys, field):
    compiled = ata_problem(tmp_path, L=6, t_f=0.7, name="compiled.json")
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", compiled, "--output", out]) == 0
    other = {
        "num_qubits": lambda: nn_problem(tmp_path, L=2, t_f=0.7),
        "resource couplings": lambda: ata_problem(tmp_path, L=6, t_f=0.7, resource=[1.0, 1.0, 1.0, 1.0, 0.5]),
        "time": lambda: ata_problem(tmp_path, L=6, t_f=0.9),
    }[field]()
    capsys.readouterr()
    for command in ("stats", "verify"):
        assert main([command, "--input", other, "--schedule", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: schedule {out} and problem {other} disagree on {field}\n"
        assert captured.out == ""


def test_integer_beyond_float_range_exits_1(tmp_path, capsys):
    problem = nn_problem(tmp_path, L=3, t_f=0.5)
    doc = json.loads((tmp_path / "p.json").read_text(encoding="utf-8"))
    doc["time"] = 10 ** 400
    write_json(tmp_path / "p.json", doc)
    assert main(["compile", "--input", problem, "--output", str(tmp_path / "s.json")]) == 1
    assert "time: integer beyond the float range" in capsys.readouterr().err


def test_problem_rejects_bad_targets(tmp_path):
    duplicate = write_json(tmp_path / "d.json", {
        "num_qubits": 3,
        "resource_couplings": [1.0, 1.0],
        "target": {"type": "ata", "couplings": [
            {"i": 0, "j": 1, "value": 0.5}, {"i": 0, "j": 1, "value": 0.7},
        ]},
        "time": 0.5,
    })
    with pytest.raises(Exception):
        load_problem(duplicate)
    unordered = write_json(tmp_path / "u.json", {
        "num_qubits": 3,
        "resource_couplings": [1.0, 1.0],
        "target": {"type": "ata", "couplings": [{"i": 1, "j": 0, "value": 0.5}]},
        "time": 0.5,
    })
    with pytest.raises(Exception):
        load_problem(unordered)


def test_verify_mismatched_files_exit_1(tmp_path, capsys):
    p1 = ata_problem(tmp_path, L=4, t_f=0.7, name="p1.json")
    p2 = ata_problem(tmp_path, L=4, t_f=0.9, name="p2.json")
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", p1, "--output", out]) == 0
    assert main(["verify", "--input", p2, "--schedule", out]) == 1


def test_stats_report(tmp_path, capsys):
    problem = ata_problem(tmp_path, L=6, t_f=0.5)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    # both reports work the 5L-12 reference out from the problem and explain it
    reference = "reference_request_count: 18\nnote: reference_request_count is 5L-12,"
    assert reference in capsys.readouterr().out
    assert main(["stats", "--input", problem, "--schedule", out]) == 0
    captured = capsys.readouterr().out
    assert "analog_requests: 14" in captured
    assert reference in captured
    machine = captured.split("---\n", 1)[1]
    parsed = json.loads(machine)
    assert parsed["analog_requests"] == 14
    assert parsed["reference_request_count"] == 18
    assert parsed["resource_blocks"] > 0
    # one float spelling: the text line and the JSON section agree digit for digit
    assert f"total_analog_time: {parsed['total_analog_time']!r}\n" in captured


def test_stats_total_time_is_sum_of_group_minimums(tmp_path, capsys):
    # each analog request contributes exactly max|b| * t_f to the total
    from daqcompile.circuits import AnalogRequest, ata_circuit_general, lower_swap_layers

    L, t_f = 6, 0.5
    problem = ata_problem(
        tmp_path, L=L, t_f=t_f,
        couplings=[{"i": i, "j": j, "value": 1.0} for i in range(L) for j in range(i + 1, L)],
    )
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    _, _, _, metadata = load_schedule(out)
    g = np.ones(L - 1)
    lowered = lower_swap_layers(ata_circuit_general(complete_graph(L, 1.0), t_f))
    expected = math.fsum(
        minimum_time(np.asarray(i.slot_angles) / (g * t_f), t_f)
        for i in lowered.instructions if isinstance(i, AnalogRequest)
    )
    assert metadata["stats"]["total_analog_time"] == pytest.approx(expected, rel=1e-12)


def child_env():
    """Environment for a child interpreter that imports the package this test imported, installed or not."""
    package_root = os.path.dirname(os.path.dirname(daqcompile.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_console_entry_point(tmp_path):
    problem = ata_problem(tmp_path, L=4, t_f=0.3)
    out = str(tmp_path / "s.json")
    env = child_env()
    compile_run = subprocess.run(
        [sys.executable, "-m", "daqcompile.cli", "compile", "--input", problem, "--output", out],
        capture_output=True, text=True, encoding="utf-8", env=env,
    )
    assert compile_run.returncode == 0, compile_run.stderr
    verify_run = subprocess.run(
        [sys.executable, "-m", "daqcompile.cli", "verify", "--input", problem, "--schedule", out],
        capture_output=True, text=True, encoding="utf-8", env=env,
    )
    assert verify_run.returncode == 0, verify_run.stderr
    assert "PASS" in verify_run.stdout


@pytest.mark.skipif(os.name != "posix", reason="umask and file modes are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_compiled_file_mode_follows_the_umask(tmp_path, umask):
    # the child gets the umask, so this process never changes its own
    problem = ata_problem(tmp_path, L=4)
    out = tmp_path / "s.json"
    run = subprocess.run(
        [sys.executable, "-m", "daqcompile.cli", "compile", "--input", problem, "--output", str(out)],
        capture_output=True, text=True, encoding="utf-8", env=child_env(), umask=umask,
    )
    assert run.returncode == 0, run.stderr
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == ["p.json", "s.json"]


@pytest.mark.parametrize("kind", ["ata", "nn"])
def test_output_is_the_same_under_any_hash_seed(tmp_path, kind):
    # no set or dict order that str hashing decides may reach a file or a report:
    # children with two hash seeds write the same schedule and print the same text
    rng = random.Random(kind)
    L = 9
    resource = [rng.uniform(0.5, 1.5) for _ in range(L - 1)]
    if kind == "ata":
        problem = ata_problem(tmp_path, L=L, t_f=0.7, resource=resource, couplings=[
            {"i": i, "j": j, "value": rng.gauss(0.0, 1.0)} for i in range(L) for j in range(i + 1, L)])
    else:
        problem = nn_problem(tmp_path, L=L, couplings=resource, angles=[rng.gauss(0.0, 1.0) for _ in range(L - 1)],
                             t_f=0.7)
    outputs = []
    for seed in ("0", "12345"):
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        stdouts = []
        for command, flag in (("compile", "--output"), ("stats", "--schedule"), ("verify", "--schedule")):
            run = subprocess.run(
                [sys.executable, "-m", "daqcompile.cli", command, "--input", problem, flag, "s.json"],
                capture_output=True, cwd=cwd, env=dict(child_env(), PYTHONHASHSEED=seed),
            )
            assert run.returncode == 0, run.stderr
            stdouts.append(run.stdout)
        outputs.append(((cwd / "s.json").read_bytes(), stdouts))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["stats", "verify"])
def test_closed_stdout_exits_1_quietly(tmp_path, command):
    # as in `daqcompile stats ... | head -0`: the reader has gone before any output
    problem = ata_problem(tmp_path, L=4, t_f=0.3)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "daqcompile.cli", command, "--input", problem, "--schedule", out],
            stdout=write_end, stderr=subprocess.PIPE, text=True, encoding="utf-8", env=child_env(),
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (1, "")


def test_main_returns_1_on_a_closed_stdout_and_leaves_fd_1_alone(tmp_path, monkeypatch):
    # in process, the reader having gone is exit 1; pointing fd 1 at devnull
    # is the process entry's business, not the in-process API's
    class Gone:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

    problem = ata_problem(tmp_path, L=4, t_f=0.3)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", Gone())
    assert main(["stats", "--input", problem, "--schedule", out]) == 1
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def _console_script():
    """The (module, function) that pyproject.toml's `daqcompile` console script names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^daqcompile = "([\w.]+):(\w+)"$', text, re.MULTILINE)
    assert found, "no daqcompile console script in pyproject.toml"
    return found.groups()


@pytest.mark.parametrize("path", ["dash-m", "console-script"])
def test_the_process_entry_runs_commands_on_a_frozen_heap_without_the_collector(tmp_path, path):
    # both ways of starting a command go through one entry, which switches the
    # collector off and freezes the start-up heap before the command runs
    problem = ata_problem(tmp_path, L=4, t_f=0.3)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    argv = ["stats", "--input", problem, "--schedule", out]
    if path == "dash-m":
        start = "runpy.run_module('daqcompile.cli', run_name='__main__', alter_sys=True)\n"
    else:
        module, function = _console_script()
        start = f"sys.exit(getattr(importlib.import_module({module!r}), {function!r})())\n"
    script = (
        "import gc, importlib, runpy, sys\n"
        "import daqcompile.fileio as fileio\n"
        "assert gc.isenabled() and gc.get_freeze_count() == 0\n"
        "load = fileio.load_problem\n"
        "def observed(path):\n"
        "    print('collector enabled', gc.isenabled(), 'frozen', gc.get_freeze_count() > 0, file=sys.stderr)\n"
        "    return load(path)\n"
        "fileio.load_problem = observed\n"
        f"sys.argv[1:] = {argv!r}\n"
        + start
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, encoding="utf-8",
                         env=child_env())
    assert (run.returncode, run.stderr) == (0, "collector enabled False frozen True\n")
    assert run.stdout.startswith("num_qubits: 4\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    problem = ata_problem(tmp_path, L=4, t_f=0.3)
    out = str(tmp_path / "s.json")
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in (["compile", "--input", problem, "--output", out], ["stats", "--input", problem, "--schedule", out],
                     ["verify", "--input", problem, "--schedule", out]):
            assert main(argv) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv[0]
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_commands_build_no_cycles_that_grow_with_the_problem(tmp_path, capsys):
    # the process entry never collects, which costs nothing only while a
    # command's cyclic garbage (argparse's parser) stays the same at any L
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        garbage = []
        for L in (6, 24):
            problem = ata_problem(tmp_path, L=L, t_f=0.7, name=f"p{L}.json")
            out = str(tmp_path / f"s{L}.json")
            gc.collect()
            for argv in (["compile", "--input", problem, "--output", out],
                         ["stats", "--input", problem, "--schedule", out],
                         ["verify", "--input", problem, "--schedule", out]):
                assert main(argv) == 0
            garbage.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert garbage[0] == garbage[1]


def test_compile_and_stats_run_without_numpy(tmp_path):
    # no command needs NumPy: with it unimportable, `compile`, `stats` and
    # `verify` still run, and `compile` writes the schedules an ordinary
    # compile writes
    problems = [
        ata_problem(tmp_path, L=6, t_f=0.7, name="ata.json"),
        nn_problem(tmp_path, L=7, angles=[0.3, -0.3, 0.0, 1.1, 0.0, -0.25], name="nn.json"),
    ]
    calls = []
    for k, problem in enumerate(problems):
        out = str(tmp_path / f"child{k}.json")
        calls.append(["compile", "--input", problem, "--output", out])
        calls.append(["stats", "--input", problem, "--schedule", out])
        calls.append(["verify", "--input", problem, "--schedule", out])
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "import daqcompile.cli\n"
        f"for argv in {calls!r}:\n"
        "    code = daqcompile.cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "assert sys.modules.pop('numpy') is None\n"
        "loaded = [name for name in sys.modules if name.split('.')[0] == 'numpy']\n"
        "assert not loaded, loaded\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, encoding="utf-8", env=child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("resource_blocks: ") == 4
    assert run.stdout.count("\nPASS\n") == 2
    for k, problem in enumerate(problems):
        out = tmp_path / f"in_process{k}.json"
        assert main(["compile", "--input", problem, "--output", str(out)]) == 0
        assert (tmp_path / f"child{k}.json").read_bytes() == out.read_bytes()


def test_only_compile_imports_hashlib(tmp_path):
    # `stats` and `verify` never hash, so they skip the OpenSSL import; -S
    # keeps site hooks from loading hashlib before the command runs
    problem = ata_problem(tmp_path, L=6, t_f=0.7)
    schedule = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", schedule]) == 0
    calls = [["stats", "--input", problem, "--schedule", schedule],
             ["verify", "--input", problem, "--schedule", schedule],
             ["compile", "--input", problem, "--output", str(tmp_path / "again.json")]]
    script = (
        "import sys\n"
        "import daqcompile.cli\n"
        "loaded = []\n"
        f"for argv in {calls!r}:\n"
        "    assert daqcompile.cli.main(argv) == 0, argv\n"
        "    loaded.append('hashlib' in sys.modules)\n"
        "assert loaded == [False, False, True], loaded\n"
    )
    run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, encoding="utf-8",
                         env=child_env())
    assert run.returncode == 0, run.stderr


def test_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # start-up: importing them (with ast, dis and tokenize) costs more than the
    # package's own code; the baseline child loads what argparse and json load
    # on this interpreter, so a standard library that needs them is not blamed
    problem = ata_problem(tmp_path, L=6, t_f=0.7)
    schedule = str(tmp_path / "s.json")
    calls = [["compile", "--input", problem, "--output", schedule],
             ["stats", "--input", problem, "--schedule", schedule],
             ["verify", "--input", problem, "--schedule", schedule]]
    baseline = (
        "import argparse, json\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_subparsers(dest='command').add_parser('stats').add_argument('--input')\n"
        "parser.parse_args(['stats', '--input', 'p.json'])\n"
        "json.loads(json.dumps({'time': [0.5]}))\n"
    )
    commands = f"import daqcompile.cli\nfor argv in {calls!r}:\n    assert daqcompile.cli.main(argv) == 0, argv\n"
    loaded = []
    for script in (baseline, commands):
        run = subprocess.run([sys.executable, "-S", "-c", script + "import sys\nprint(*sys.modules)\n"],
                             capture_output=True, text=True, encoding="utf-8", env=child_env())
        assert run.returncode == 0, run.stderr
        loaded.append(set(run.stdout.split()))
    assert {"dataclasses", "inspect"} & (loaded[1] - loaded[0]) == set()


def test_no_package_module_imports_dataclasses():
    for path in sorted(Path(daqcompile.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {name.split(".")[0] for name in names}, path.name


def test_only_the_process_entry_imports_gc():
    # one collector policy, in one place: cli.entry
    importers = []
    for path in sorted(Path(daqcompile.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and "gc" in {alias.name for alias in node.names} or \
                    isinstance(node, ast.ImportFrom) and node.module == "gc":
                importers.append(path.name)
    assert importers == ["cli.py"]


def test_package_import_loads_no_submodule():
    script = (
        "import sys\n"
        "import daqcompile\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('daqcompile.'))\n"
        "assert not loaded, f'import daqcompile loaded {loaded}'\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, encoding="utf-8", env=child_env())
    assert run.returncode == 0, run.stderr
