"""The one table of kernels, and what the tests derive from it.

A kernel is a function that builds one route's values.  Its route is

* ``product``: general products and their slot codec, inversion, the
  Pochhammer builders, which pack along q through that codec, the product
  of distinct 4-regular partitions that ``quad`` and the B tables of
  ``thm15``, ``thmA1`` and ``thmA2`` read, and the recurrence of the
  inverted products;
* ``sum``: the multi-sum tree walk, division by 1 - q^k, and
  ``binomial_sum``, which builds the sum sides of ``qbinom`` and
  ``tri-single`` from binomial factors and divisions on series packed along
  q, sized by a univariate majorant, with a decode of its own;
* ``walk``: the oracle's one sweep over every partition up to an order,
  the gap-4 rule, the walk that lists its members and the transfer that
  counts them by a map of their weight, the projection onto the classes
  of the Avee tables through which the A side of ``thm15``, ``thmA1`` and
  ``thmA2`` reads that transfer, the walk over the block automaton's
  chains and the language built from it, the block automaton (its
  aggregation plan and its depth recursion on groups packed along q), and
  the one count codec that the transfer and the automaton share: the size
  pass that sets their slot from a first run with every non-q key mapped
  to 0, the word reader and the decode;
* ``layout``: the packed key layout and the rounding of a slot to a native
  word, which both sides of every identity share by design, so they count
  as no share.

Three things are derived from the table:

* ``binders(name)``: every (owner, attribute) of the package bound to the
  kernel's original object, so that a replacement reaches every caller;
* ``reach()``: the kernels each side of a pair entry, or each runner,
  calls at its default order, recorded once from the unpatched package;
* ``on_route(route)``: the kernels a route refusal patches.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from typing import Callable, NamedTuple

import qident
from qident.identities import REGISTRY, registry_ids


class Kernel(NamedTuple):
    module: str
    path: str  # attribute path in the module; a method is "Class.name"
    route: str


ROUTES = ("product", "sum", "walk", "layout")


def _table() -> dict[str, Kernel]:
    rows = {
        "product": {
            "qident.series": ("Series.__mul__", "_q_groups", "_slot_bytes", "_pack", "_unpack", "Series.invert"),
            "qident.products": (
                "poch", "poch_finite", "poch_inf", "distinct_4regular", "poch_inverse", "inv_qpoch",
                "_log_derivative", "_exact_quotient", "_q_inverse", "_packed_inverse",
            ),
        },
        "sum": {
            "qident.multisum": (
                "eval_sum", "_divide_q_power", "binomial_sum",
                "_Majorant.times", "_Majorant.divide", "_Majorant.sum",
                "_QPacked.__init__", "_QPacked.shift", "_QPacked.times", "_QPacked.divide", "_QPacked.sum", "_QPacked.decode",
            ),
        },
        "walk": {
            "qident.partitions": (
                "_ascending_sweep", "_gap4_parts", "_walk_gap4", "_gap4_transfer",
                "_table_A_class", "_count_bytes", "_words", "_decode",
            ),
            "qident.lpi": ("_chains", "language", "_plan", "_aggregate", "_add_groups", "_g_groups", "Automaton.__init__"),
        },
        "layout": {"qident.series": ("_field_shifts", "_check_keys", "_word_bytes")},
    }
    return {
        path: Kernel(module, path, route)
        for route, modules in rows.items()
        for module, paths in modules.items()
        for path in paths
    }


# name -> Kernel; a kernel's name is its attribute path.
KERNELS = _table()


def resolve(module: str, path: str) -> object:
    owner: object = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def on_route(route: str) -> list[str]:
    return [name for name, kernel in KERNELS.items() if kernel.route == route]


# The package's modules, the package itself first.
_MODULES = [
    qident,
    *(importlib.import_module(f"qident.{info.name}") for info in pkgutil.iter_modules(qident.__path__)),
]

# Each kernel's object as the package defines it, before any test patches it.
ORIGINAL = {name: resolve(kernel.module, kernel.path) for name, kernel in KERNELS.items()}


def _binders(name: str) -> list[tuple[object, str]]:
    kernel, fn = KERNELS[name], ORIGINAL[name]
    owners = list(_MODULES)
    if "." in kernel.path:  # a method: its class binds it, maybe under more than one name
        owners.append(resolve(kernel.module, kernel.path.rsplit(".", 1)[0]))
    return [(owner, attr) for owner in owners for attr, value in vars(owner).items() if value is fn]


# Found at import, before any test patches a kernel.
_BINDERS = {name: _binders(name) for name in KERNELS}


def binders(name: str) -> list[tuple[object, str]]:
    """Every (module or class, attribute) of the package bound to kernel ``name``'s original."""
    return _BINDERS[name]


def install(monkeypatch, name: str, replacement: object) -> None:
    """Bind ``replacement`` wherever the package binds kernel ``name``."""
    for owner, attr in binders(name):
        monkeypatch.setattr(owner, attr, replacement)


def record(build: Callable[[], object]) -> frozenset[str]:
    """The kernels that ``build()`` calls, told apart by their code objects.

    The recorder is a ``sys.setprofile`` hook; whatever profile function was
    installed before is put back afterwards, also when ``build`` raises.
    """
    codes = {ORIGINAL[name].__code__: name for name in KERNELS}
    seen: set[str] = set()

    def profile(frame, event, arg) -> None:
        if event == "call" and frame.f_code in codes:
            seen.add(codes[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(previous)
    return frozenset(seen)


def reach() -> dict[str, tuple[frozenset[str], ...]]:
    """Registry id -> the kernels each side (lhs, rhs) or the runner reaches at the default order.

    Negative controls are left out.  Every kernel must be the package's own
    object when this runs, so that no mutant or refusal is recorded.
    """
    patched = [name for name, (module, path, _) in KERNELS.items() if resolve(module, path) is not ORIGINAL[name]]
    assert not patched, f"reach recorded while {patched} are patched"
    out = {}
    for identity in registry_ids():
        entry, n = REGISTRY[identity], REGISTRY[identity].default_order
        builds = entry.sides or (entry.runner,)
        out[identity] = tuple(record(lambda build=build: build(n)) for build in builds)
    return out


def reached(reach_map: dict[str, tuple[frozenset[str], ...]], name: str) -> list[str]:
    """The registry ids, in registry order, some side or runner of which reaches kernel ``name``."""
    return [identity for identity, sides in reach_map.items() if any(name in side for side in sides)]
