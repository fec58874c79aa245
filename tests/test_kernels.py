"""The kernel table resolves, and the route matrix it gives holds only the known shares."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Callable

import pytest

import kernels
import qident
from qident import partitions

# entry -> (kernels both of its sides reach, why the share is there).  The
# layout kernels, which every side reaches, are no share.
SHARES = {
    "borel-bridge-rhs": (
        {"eval_sum", "_divide_q_power"},
        "both sides are quadruple sums, and the operator maps one onto the other summand by summand",
    ),
}


def test_every_kernel_resolves_to_its_definition():
    assert set(kernels.ROUTES) == {k.route for k in kernels.KERNELS.values()}
    for name, kernel in kernels.KERNELS.items():
        fn = kernels.resolve(kernel.module, kernel.path)
        assert fn is kernels.ORIGINAL[name], name
        assert (fn.__module__, fn.__qualname__) == (kernel.module, kernel.path), name
        # The defining module, or for a method its class, is among the binders.
        *outer, attr = kernel.path.split(".")
        owner = kernels.resolve(kernel.module, outer[0]) if outer else sys.modules[kernel.module]
        assert (owner, attr) in kernels.binders(name), name


def test_every_refused_name_is_a_kernel_on_its_route():
    # What the route refusals patched when they were hand-listed; Series.__rmul__
    # is bound to Series.__mul__, so it is refused with it.
    assert {"Series.__mul__", "Series.invert", "poch", "poch_inf", "poch_finite", "poch_inverse", "inv_qpoch"} <= set(
        kernels.on_route("product")
    )
    assert {"binomial_sum", "_divide_q_power", "eval_sum"} <= set(kernels.on_route("sum"))
    assert "__rmul__" in {attr for _, attr in kernels.binders("Series.__mul__")}


def test_the_route_matrix_has_exactly_the_known_shares(reach):
    layout = set(kernels.on_route("layout"))
    shares = {
        identity: (sides[0] & sides[1]) - layout
        for identity, sides in reach.items()
        if len(sides) == 2 and (sides[0] & sides[1]) - layout
    }
    assert shares == {identity: names for identity, (names, _) in SHARES.items()}


# The product codec serves Series.__mul__ and poch_finite alone.  Grouping
# and packing serve __mul__: the entries that multiply two series at their
# default order, thm15, thmA1 and thmA2 in their B tables.  The slot width
# and the decode serve poch_finite too, which euler2's product side reaches
# without multiplying.
MULTIPLYING = ["qbinom", "tri-single", "quad", "borel-bridge-lhs", "thm15", "thmA1", "thmA2"]
PRODUCT_ENTRIES = {
    "Series.__mul__": MULTIPLYING,
    "_q_groups": MULTIPLYING,
    "_pack": MULTIPLYING,
    "poch_finite": ["euler2", *MULTIPLYING],
    "_slot_bytes": ["euler2", *MULTIPLYING],
    "_unpack": ["euler2", *MULTIPLYING],
}


@pytest.mark.parametrize("name", list(PRODUCT_ENTRIES))
def test_the_product_codec_reaches_the_entries_that_multiply(reach, name):
    assert kernels.KERNELS[name].route == "product"
    assert kernels.reached(reach, name) == PRODUCT_ENTRIES[name]


# Each side of thm15, thmA1 and thmA2 is one count table: the A tables read
# the gap-4 transfer, the B tables the product of distinct 4-regular
# partitions, so no kernel but the layout serves both.
_TABLE_ROUTES = {
    **dict.fromkeys((partitions.table_A, partitions.table_A1, partitions.table_A2), "walk"),
    **dict.fromkeys((partitions.table_B, partitions.table_B1, partitions.table_B2), "product"),
}


@pytest.mark.parametrize("table, route", list(_TABLE_ROUTES.items()), ids=lambda t: getattr(t, "__name__", t))
def test_each_count_table_stays_on_its_route(table, route):
    reached = kernels.record(lambda: table(25))
    assert {kernels.KERNELS[name].route for name in reached} - {"layout"} == {route}


def test_every_pair_side_reaches_a_kernel(reach):
    assert [identity for identity, sides in reach.items() if not all(sides)] == []


def test_the_recorder_restores_the_profiler_it_found():
    def outer(frame, event, arg) -> None:
        pass

    previous = sys.getprofile()
    sys.setprofile(outer)
    try:
        assert kernels.record(lambda: kernels.ORIGINAL["_table_A_class"](0, 1)) == {"_table_A_class"}
        assert sys.getprofile() is outer
        with pytest.raises(ZeroDivisionError):
            kernels.record(lambda: 1 // 0)
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(previous)


def _sites(match: Callable[[ast.AST], bool]) -> list[str]:
    """``module.qualname`` of the function around each node of the package's source that ``match`` accepts."""
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if match(child):
                sites.append(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    for path in sorted(Path(qident.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    return sites


def _rounds_to_a_word(node: ast.AST) -> bool:
    """Whether ``node`` is ``1 << (n - 1).bit_length()``: n bytes rounded up to a power of two."""
    return isinstance(node, ast.BinOp) and re.fullmatch(r"1 << \(.+ - 1\)\.bit_length\(\)", ast.unparse(node)) is not None


def test_the_native_word_rounding_is_written_once():
    assert _sites(_rounds_to_a_word) == ["series._word_bytes"]
    assert kernels.KERNELS["_word_bytes"].route == "layout"


def test_each_route_reads_native_words_in_one_decoder():
    # A decoder shared by both sides of an identity could let a fault cancel,
    # so the product, sum and walk routes each keep their own.
    readers = sorted(
        _sites(lambda node: isinstance(node, ast.Name) and node.id == "_WORDS" and isinstance(node.ctx, ast.Load))
    )
    assert readers == ["multisum._QPacked.decode", "partitions._words", "series._unpack"]
    routes = [kernels.KERNELS[site.split(".", 1)[1]].route for site in readers]
    assert sorted(routes) == ["product", "sum", "walk"]
