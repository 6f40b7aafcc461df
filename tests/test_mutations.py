"""Property: one mutated node in a problem or schedule file never crashes the CLI, nor passes `verify` wrongly.

Start from a valid L=4 problem and the schedule `compile` writes for it,
change one node of one of the two files, and run `stats` and `verify` on
the pair.  The only allowed outcomes are exit 0 (the change was harmless),
1 (malformed input) and 3 (verification failed); an exception escaping
`main` fails the property, and so does an exit 1 whose message does not
name the mutated file.  When `verify` exits 0, the dense oracle must
agree that the schedule realises the problem's target: the frame bound B is
at least sqrt(2) times the dense distance, so a PASS at tolerance tol means
a distance below tol/sqrt(2), up to the oracle's own rounding.  A mutated
problem is also compiled, which may exit 0, 1 or 2 (unschedulable).
"""

import contextlib
import copy
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile.cli import main
from daqcompile.fileio import load_problem, load_schedule
from daqcompile.unitaries import circuit_unitary, exact_target, phase_distance, zz_evolution

from oracles import DENSE_NOISE

VERIFY_TOL = 1e-9   # verify's default --tol

PROBLEM = {
    "num_qubits": 4,
    "resource_couplings": [1.0, 0.8, 1.2],
    "target": {"type": "ata", "couplings": [
        {"i": i, "j": j, "value": 0.5 - 0.3 * (i + j)} for i in range(4) for j in range(i + 1, 4)
    ]},
    "time": 0.7,
}

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _quiet_main(argv: list) -> tuple[int, str]:
    """main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@functools.cache
def _documents() -> dict:
    """The problem and its compiled schedule, as parsed JSON."""
    with tempfile.TemporaryDirectory() as d:
        problem, schedule = Path(d, "problem.json"), Path(d, "schedule.json")
        problem.write_text(json.dumps(PROBLEM), encoding="utf-8")
        assert _quiet_main(["compile", "--input", str(problem), "--output", str(schedule)])[0] == 0
        return {"problem": PROBLEM, "schedule": json.loads(schedule.read_text(encoding="utf-8"))}


def _node_paths(node, path=()):
    """Key path of every node below the root."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


@st.composite
def _mutated(draw, doc):
    doc = copy.deepcopy(doc)
    *parents, key = draw(st.sampled_from(list(_node_paths(doc))))
    parent = doc
    for k in parents:
        parent = parent[k]
    value = parent[key]
    ops = ["delete", "replace"]
    if isinstance(value, int) and not isinstance(value, bool):
        ops.append("int")
    if isinstance(parent, list):
        ops.append("duplicate")
    op = draw(st.sampled_from(ops))
    if op == "delete":
        del parent[key]
    elif op == "replace":
        parent[key] = draw(JSON_VALUES)
    elif op == "int":
        parent[key] = draw(st.just(-value) | st.integers(min_value=1).map(lambda n: value + n))
    else:
        parent.insert(key, copy.deepcopy(value))
    return doc


def _dense_distance(problem_path: Path, schedule_path: Path) -> float:
    """Phase distance between the schedule's unitary and the problem's target, by the dense oracle."""
    problem = load_problem(str(problem_path))
    circuit = load_schedule(str(schedule_path))[0]
    if problem.target_type == "ata":
        target = exact_target(problem.target_graph, problem.t_f)
    else:
        target = zz_evolution({(j, j + 1): phi for j, phi in enumerate(problem.target_angles)}, problem.num_qubits)
    return phase_distance(circuit_unitary(circuit, problem.resource), target).distance


@pytest.mark.parametrize("kind", ["problem", "schedule"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_raise(kind, data):
    docs = dict(_documents())
    docs[kind] = data.draw(_mutated(docs[kind]), label=kind)
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, doc in docs.items():
            paths[name] = Path(d, f"{name}.json")
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        for command in ("stats", "verify"):
            code, err = _quiet_main([command, "--input", str(paths["problem"]),
                                     "--schedule", str(paths["schedule"])])
            assert code in (0, 1, 3), (command, code)
            assert code != 1 or str(paths[kind]) in err, (command, err)
        if code == 0:   # the last command, verify, passed: the schedule must be right
            distance = _dense_distance(paths["problem"], paths["schedule"])
            assert distance < VERIFY_TOL / math.sqrt(2) + DENSE_NOISE, distance
        if kind == "problem":
            code, err = _quiet_main(["compile", "--input", str(paths["problem"]),
                                     "--output", str(Path(d, "compiled.json"))])
            assert code in (0, 1, 2), ("compile", code)
            assert code != 1 or str(paths["problem"]) in err, ("compile", err)
