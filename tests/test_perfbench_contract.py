"""The benchmark's traced pipeline (`perfbench/run.py --trace 1`) must keep
working against the package: it stages the CLI's commands through the
package's public functions, so a product change that breaks it fails here."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _problem(kind: str, L: int, rng: random.Random) -> dict:
    if kind == "ata":
        target = {"type": "ata", "couplings": [
            {"i": i, "j": j, "value": rng.gauss(0.0, 1.0)} for i in range(L) for j in range(i + 1, L)
        ]}
    else:
        target = {"type": "nn", "angles": [rng.gauss(0.0, 1.0) for _ in range(L - 1)]}
    return {"num_qubits": L, "resource_couplings": [rng.uniform(0.5, 1.5) for _ in range(L - 1)],
            "target": target, "time": 0.7}


@pytest.mark.parametrize("kind, L", [("ata", 6), ("ata", 7), ("nn", 5)])
def test_traced_pipeline_matches_the_cli(tmp_path, monkeypatch, kind, L):
    monkeypatch.setattr(sys, "path", list(sys.path))    # Pipeline prepends the source tree
    problem, sched = tmp_path / "p.json", tmp_path / "s.json"
    problem.write_text(json.dumps(_problem(kind, L, random.Random(f"{kind}/{L}"))), encoding="utf-8")
    pipe = tracing.Pipeline(_ROOT / "src")
    tr = tracing.Tracer(memory=False)

    counters = pipe.compile(tr, problem, sched, check=True)     # raises PipelineMismatch on drift
    # the traced pipeline writes the very file `daqcompile compile` writes
    _, code = pipe.main_seconds(["compile", "--input", str(problem), "--output", str(tmp_path / "cli.json")])
    assert code == 0 and (tmp_path / "cli.json").read_bytes() == sched.read_bytes()
    assert counters["circuits.analog_requests"] > 0 and counters["fileio.bytes"] > 0
    assert pipe.stats(tr, problem, sched) == {}
    assert pipe.verify(tr, problem, sched)["distance"] < 1e-12
    assert {s["name"] for s in tr.spans} >= {"cli.compile", "cli.stats", "cli.verify"}
    for command, flag in (("compile", "--output"), ("stats", "--schedule"), ("verify", "--schedule")):
        _, code = pipe.main_seconds([command, "--input", str(problem), flag, str(sched)])
        assert code == 0, command
