import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import daqcompile
from daqcompile import __version__, compile_ata
from daqcompile.cli import main
from daqcompile.fileio import dumps_canonical, load_problem, load_schedule, schedule_document

from oracles import complete_graph, minimum_time, same_document, schedule_spelling


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


def test_compiled_file_digest_is_pinned(tmp_path):
    # Dyadic weights, couplings and time: the compiler only adds, subtracts,
    # multiplies and divides them (correctly rounded everywhere), so the file
    # does not depend on the platform's libm.  The digest covers the version.
    L = 16
    problem = ata_problem(
        tmp_path, L=L, t_f=0.75, resource=[(k % 5 + 2) / 4 for k in range(L - 1)], couplings=[
            {"i": i, "j": j, "value": ((7 * i + 3 * j) % 17 - 8) / 8} for i in range(L) for j in range(i + 1, L)
        ])
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    assert __version__ == "0.1.0"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9702969c61b6b26ec18e2e2bfa38dfea81fc5847baf17ef97117b0c4093db7e4")


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
    assert capsys.readouterr().err == "error: target.couplings[0]: time * value is beyond the float range\n"
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
        assert captured.err == "error: instructions: block durations sum beyond the float range\n"
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
        assert captured.err.startswith(f"error: metadata.{key}: expected "), captured.err
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


def test_verify_resolves_a_tiny_duration_error(tmp_path, capsys):
    # a relative error of 1e-10 in one block is ~1e-10 of distance, far
    # above the ~1e-14 at which correct schedules verify
    problem = ata_problem(tmp_path, L=8, t_f=0.7)
    out = tmp_path / "s.json"
    assert main(["compile", "--input", problem, "--output", str(out)]) == 0
    argv = ["verify", "--input", problem, "--schedule", str(out), "--tol", "1e-11"]
    assert main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    block = max((i["resource_block"] for i in doc["instructions"] if "resource_block" in i),
                key=lambda b: b["duration"])
    block["duration"] *= 1 + 1e-10
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_qubit_cap_exits_4(tmp_path, capsys):
    L = 12
    problem = ata_problem(tmp_path, L=L, couplings=[{"i": 0, "j": 11, "value": 0.4}])
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    assert main(["verify", "--input", problem, "--schedule", out]) == 4


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
    assert "duplicate keys ['num_qubits']" in capsys.readouterr().err
    assert not out.exists()


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
    assert "error:" in capsys.readouterr().err
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
        assert err.startswith("error: instructions["), err


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
        assert captured.err.startswith("error: metadata.stats"), captured.err
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
        assert captured.err == "error: metadata.stats: unknown fields ['reference_request_count']\n"
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
        assert captured.err == f"error: schedule and problem disagree on {field}\n"
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
    assert "analog_requests: 25" in captured
    assert reference in captured
    machine = captured.split("---\n", 1)[1]
    parsed = json.loads(machine)
    assert parsed["analog_requests"] == 25
    assert parsed["reference_request_count"] == 18
    assert parsed["resource_blocks"] > 0
    # one float spelling: the text line and the JSON section agree digit for digit
    assert f"total_analog_time: {parsed['total_analog_time']!r}\n" in captured


def test_stats_total_time_is_sum_of_group_minimums(tmp_path, capsys):
    # each analog request contributes exactly max|b| * t_f to the total
    from daqcompile import AnalogRequest, ata_circuit_general, lower_swap_layers

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
        capture_output=True, text=True, env=env,
    )
    assert compile_run.returncode == 0, compile_run.stderr
    verify_run = subprocess.run(
        [sys.executable, "-m", "daqcompile.cli", "verify", "--input", problem, "--schedule", out],
        capture_output=True, text=True, env=env,
    )
    assert verify_run.returncode == 0, verify_run.stderr
    assert "PASS" in verify_run.stdout


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
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env(),
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (1, "")


def test_stats_does_not_import_numpy(tmp_path):
    problem = ata_problem(tmp_path, L=6, t_f=0.7)
    out = str(tmp_path / "s.json")
    assert main(["compile", "--input", problem, "--output", out]) == 0
    script = (
        "import sys\n"
        "import daqcompile.cli\n"
        "assert 'numpy' not in sys.modules, 'import daqcompile.cli loaded numpy'\n"
        f"code = daqcompile.cli.main(['stats', '--input', {problem!r}, '--schedule', {out!r}])\n"
        "assert 'numpy' not in sys.modules, 'stats loaded numpy'\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert run.returncode == 0, run.stderr
    assert "resource_blocks: " in run.stdout


_PUBLIC_NAMES = [
    "AnalogRequest", "Circuit", "CompileResult", "CouplingGraph", "DigitalLayer", "DistanceReport",
    "FileFormatError", "Gate", "GateType", "NNChain", "PathCover", "QubitLimitError", "ResourceBlock",
    "ScheduleStats", "SwapSequence", "UnschedulableError", "ata_circuit_general", "circuit_stats",
    "circuit_unitary", "compile_ata", "compile_chain", "exact_target", "lower_iswap_layer",
    "lower_swap_layers", "phase_distance", "schedule", "schedule_requests", "sort_network_sequence",
    "walecki_cover", "walecki_sequence", "zigzag_path", "zz_evolution",
]


def test_public_names_resolve():
    from daqcompile import DistanceReport, compile_ata, schedule
    from daqcompile.scheduler import schedule as scheduler_schedule
    from daqcompile.unitaries import DistanceReport as unitaries_report

    assert schedule is scheduler_schedule and DistanceReport is unitaries_report
    assert compile_ata is daqcompile.compiler.compile_ata
    for name in _PUBLIC_NAMES:
        exec(f"from daqcompile import {name}", {})
        assert getattr(daqcompile, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        daqcompile.no_such_name
    with pytest.raises(ImportError):
        exec("from daqcompile import no_such_name", {})
