"""The value-class idiom: every `Frozen` subclass has a value-semantics case, and one idiom writes fields.

A subclass's __init__ hands its checked field values to `Frozen.__init__`;
only `circuits.ResourceBlock` writes its fields and its == and hash out.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import daqcompile
from daqcompile._frozen import Frozen

TESTS = Path(__file__).parent


def test_every_value_class_has_a_value_semantics_case():
    # each test module lists its classes' cases as VALUE_CASES, (cls, fields, changed) tuples
    for module in pkgutil.iter_modules(daqcompile.__path__):
        importlib.import_module(f"daqcompile.{module.name}")
    classes = {cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("daqcompile.")}
    covered = set()
    for path in sorted(TESTS.glob("test_*.py")):
        if "VALUE_CASES" in path.read_text(encoding="utf-8"):
            covered.update(cls for cls, _, _ in getattr(importlib.import_module(path.stem), "VALUE_CASES", ()))
    assert {cls.__qualname__ for cls in classes - covered} == set()


def _setattr_calls(node: ast.AST) -> list[ast.Call]:
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "object.__setattr__"]


def test_fields_are_written_by_the_base_and_only_resource_block_writes_eq_and_hash():
    for path in sorted(Path(daqcompile.__file__).parent.glob("*.py")):
        if path.name == "_frozen.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        placed = set()
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
            if cls.name != "ResourceBlock":
                assert {"__eq__", "__hash__"}.isdisjoint(m.name for m in methods), (path.name, cls.name)
            fields = {arg.arg for m in methods if m.name == "__init__" for arg in m.args.args[1:]}
            for method in methods:
                for call in _setattr_calls(method):
                    placed.add(call)
                    target, name = call.args[0], call.args[1]
                    where = (path.name, cls.name, method.name, ast.unparse(name))
                    assert ast.unparse(target) == "self" and isinstance(name, ast.Constant), where
                    if (cls.name, method.name) != ("ResourceBlock", "__init__"):
                        assert name.value not in fields, where
        assert [ast.unparse(call) for call in _setattr_calls(tree) if call not in placed] == [], path.name
