"""The benchmark imports package names (perfbench/tracing.py and
perfbench/workloads.py) and the traced run rebinds package functions by name
(perfbench/tracing.py, ``INTERCEPTED``). A refactor that drops one of those
names would only fail when the benchmark runs; these tests read the names with
ast, without importing the benchmark, and check that every one still resolves
on the package."""

import ast
import importlib
from pathlib import Path

import pytest

import agentpose

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return f"{dotted(node.value)}.{node.attr}"


def intercepted() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    tables = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "INTERCEPTED" for t in node.targets)
    ]
    assert len(tables) == 1
    entries = []
    for entry in tables[0].elts:
        module, attribute = entry.elts[0], entry.elts[1]
        assert isinstance(attribute, ast.Constant) and isinstance(attribute.value, str)
        entries.append((dotted(module), attribute.value))
    return entries


def test_every_intercepted_name_resolves():
    entries = intercepted()
    assert entries
    for module_name, attribute in entries:
        assert module_name.startswith("agentpose")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute} is gone"


@pytest.mark.parametrize("module", ["tracing.py", "workloads.py"])
def test_every_imported_name_is_exported(module):
    tree = ast.parse((PERFBENCH / module).read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "agentpose"
        for alias in node.names
    ]
    assert names
    missing = [name for name in names if name not in agentpose.__all__]
    assert not missing, f"perfbench/{module} imports {missing}, not in agentpose.__all__"
