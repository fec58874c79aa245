"""Every qident attribute the benchmark harness binds by name must resolve.

``perfbench/tracing.py`` wraps ``(module, attribute path)`` pairs and
``perfbench/workloads.py`` calls ``pkg.<module>.<name>``; both look names up
at run time, so a deleted or renamed function would only fail there.  The
files are read as syntax trees, never imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from kernels import resolve

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


def test_binding_tables_are_read():
    traced = _traced()
    assert ("qident.series", "Series.__mul__") in traced
    assert ("qident.partitions", "in_A") in traced
    assert ("qident.partitions", "table_B2") in traced
    assert ("qident.partitions", "enum_overpartitions") in _workload_names()


@pytest.mark.parametrize("module, path", sorted(set(_traced()) | _workload_names()))
def test_benchmark_binding_resolves(module, path):
    resolve(module, path)  # raises AttributeError if the name is gone


# -- every src/ name has a user ------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"

# Classes whose non-dunder methods are pinned one by one.
PINNED_CLASSES = ("Record", "Series", "VarSet", "Overpartition")

# Names that nothing in src/ reads, each with the reason it stays.  The first
# five are bound by the tracer or the workloads (checked above); they go once
# the benchmark stops binding them.
_BOUND = "perfbench binds it, so deleting it waits for the benchmark refresh"
KEPT: dict[str, str] = {
    "poch": _BOUND,
    "inv_qpoch": _BOUND + "; tests/kernels.py lists it on the product route, which the route refusals read",
    "enum_overpartitions": _BOUND,
    "in_A": _BOUND,
    "Series.invert": (
        _BOUND + "; the tests' reference implementation for poch_inverse, "
        "and since __mul__ packs along q the only caller of _accumulate"
    ),
    "Series.terms": "the tracer's observers read it by name (getattr, so no binding pins it)",
    "Series.coeff": "public Series API: a coefficient by exponent tuple, read by users and tests",
    "Series.q_coefficients": "public Series API: the q-degree sums, read by users and tests",
    "VarSet.unit": "public VarSet API: the unit monomial, the weight of a root SumNode in tests",
}


def _src_uses() -> tuple[dict[str, tuple[str, ast.AST]], list[tuple[str, bool, set[ast.AST]]]]:
    """The pinned definitions of src/qident and every name read there.

    A definition is a top-level function or class, or a non-dunder method of
    a class in ``PINNED_CLASSES``, keyed by its qualified name and mapped to
    (module, def node).  A use is (name, read as an attribute, the
    definitions it lies inside).  ``__init__`` only re-exports and is skipped.
    """
    defined: dict[str, tuple[str, ast.AST]] = {}
    uses: list[tuple[str, bool, set[ast.AST]]] = []

    def visit(node: ast.AST, inside: set[ast.AST]) -> None:
        if isinstance(node, ast.Name):
            uses.append((node.id, False, inside))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, True, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside | {child} if child in owners else inside)

    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module, tree = f"qident.{path.stem}", ast.parse(path.read_text(encoding="utf-8"))
        owners = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = (module, stmt)
                owners.add(stmt)
            if isinstance(stmt, ast.ClassDef) and stmt.name in PINNED_CLASSES:
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defined[f"{stmt.name}.{item.name}"] = (module, item)
                        owners.add(item)
        visit(tree, set())
    return defined, uses


def test_every_src_name_has_a_caller_a_binding_or_a_reason():
    """A name passes when src/ reads it outside its own def, perfbench binds it, or KEPT says why.

    A method counts as read only through an attribute, so the builtin ``sum``
    does not pin ``Series.sum``.  A KEPT name must still be defined and must
    have no caller in src/, so the list cannot outlive its reasons.
    """
    defined, uses = _src_uses()
    bound = set(_traced()) | _workload_names()
    called = set()
    for name, (_, node) in defined.items():
        method, attr = "." in name, name.rsplit(".", 1)[-1]
        if any(
            used == attr and (is_attr or not method) and node not in inside
            for used, is_attr, inside in uses
        ):
            called.add(name)
    unpinned = [
        name for name, (module, _) in defined.items()
        if name not in called and (module, name) not in bound and name not in KEPT
    ]
    assert unpinned == [], "no caller in src/, no perfbench binding and no reason in KEPT"
    assert sorted(set(KEPT) - set(defined)) == [], "KEPT names a definition that is gone"
    assert sorted(set(KEPT) & called) == [], "KEPT names a definition that src/ now calls"


def test_thmA_tables_are_read_by_src():
    # _run_thmA looks them up in a dict of attributes; a getattr by f-string would hide them.
    _, uses = _src_uses()
    read = {used for used, is_attr, _ in uses if is_attr}
    assert {"table_A1", "table_B1", "table_A2", "table_B2"} <= read
