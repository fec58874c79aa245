"""Every qident attribute the benchmark harness binds by name must resolve.

``perfbench/tracing.py`` wraps ``(module, attribute path)`` pairs and
``perfbench/workloads.py`` calls ``pkg.<module>.<name>``; both look names up
at run time, so a deleted or renamed function would only fail there.  The
files are read as syntax trees, never imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _pairs(node: ast.expr) -> list[tuple[str, str]]:
    """The (module, path) values of a dict literal, a dict comprehension or their union."""
    if isinstance(node, ast.BinOp):
        return _pairs(node.left) + _pairs(node.right)
    if isinstance(node, ast.Dict):
        return [tuple(ast.literal_eval(v)) for v in node.values]
    if isinstance(node, ast.DictComp):
        (gen,) = node.generators
        module, path = node.value.elts
        return [
            (ast.literal_eval(module), name)
            for name in ast.literal_eval(gen.iter)
            if isinstance(path, ast.Name) and path.id == gen.target.id
        ]
    raise AssertionError(f"unexpected binding table: {ast.dump(node)}")


def _traced() -> list[tuple[str, str]]:
    out = []
    for stmt in _tree("tracing.py").body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in stmt.targets
        ):
            out += _pairs(stmt.value)
    return out


def _workload_names() -> set[tuple[str, str]]:
    out = set()
    for node in ast.walk(_tree("workloads.py")):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "pkg"
        ):
            out.add((f"qident.{node.value.attr}", node.attr))
    return out


def _resolve(module: str, path: str) -> object:
    owner: object = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def test_binding_tables_are_read():
    traced = _traced()
    assert ("qident.series", "Series.__mul__") in traced
    assert ("qident.partitions", "in_A") in traced
    assert ("qident.partitions", "table_B2") in traced
    assert ("qident.partitions", "enum_overpartitions") in _workload_names()


@pytest.mark.parametrize("module, path", sorted(set(_traced()) | _workload_names()))
def test_benchmark_binding_resolves(module, path):
    _resolve(module, path)  # raises AttributeError if the name is gone
