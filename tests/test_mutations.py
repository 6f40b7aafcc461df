"""Property: one mutated node in a problem or schedule file never crashes the CLI.

Start from a valid L=4 problem and the schedule `compile` writes for it,
change one node of one of the two files, and run `stats` and `verify` on
the pair.  The only allowed outcomes are exit 0 (the change was harmless),
1 (malformed input) and 3 (verification failed); an exception escaping
`main` fails the property.  A mutated problem is also compiled, which may
exit 0, 1 or 2 (unschedulable).
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daqcompile.cli import main

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


def _quiet_main(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@functools.cache
def _documents() -> dict:
    """The problem and its compiled schedule, as parsed JSON."""
    with tempfile.TemporaryDirectory() as d:
        problem, schedule = Path(d, "problem.json"), Path(d, "schedule.json")
        problem.write_text(json.dumps(PROBLEM), encoding="utf-8")
        assert _quiet_main(["compile", "--input", str(problem), "--output", str(schedule)]) == 0
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
            code = _quiet_main([command, "--input", str(paths["problem"]),
                                "--schedule", str(paths["schedule"])])
            assert code in (0, 1, 3), (command, code)
        if kind == "problem":
            code = _quiet_main(["compile", "--input", str(paths["problem"]),
                                "--output", str(Path(d, "compiled.json"))])
            assert code in (0, 1, 2), ("compile", code)
