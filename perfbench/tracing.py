"""Per-layer tracing of qident from outside the package.

The tracer wraps public functions of each layer and records one span per
call: name, start, end and parent span.  Spans stay in memory until the run
writes them out.  A name is replaced everywhere the package binds it, since
``identities`` imports most of what it calls by name and patching only the
defining module would miss those calls.  ``uninstall`` puts every original
back; untraced runs never install anything.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import workloads

# Span name -> (module, attribute path) of each traced function.
SPANNED = {
    "series.mul": ("qident.series", "Series.__mul__"),
    "series.invert": ("qident.series", "Series.invert"),
    "series.init": ("qident.series", "Series.__init__"),
    "series.add": ("qident.series", "Series.__add__"),
    "series.substitute": ("qident.series", "Series.substitute"),
    "series.first_mismatch": ("qident.series", "Series.first_mismatch"),
    "products.poch_finite": ("qident.products", "poch_finite"),
    "products.poch_inf": ("qident.products", "poch_inf"),
    "products.poch": ("qident.products", "poch"),
    "products.inv_qpoch": ("qident.products", "inv_qpoch"),
    "products.euler1": ("qident.products", "euler1"),
    "products.euler2": ("qident.products", "euler2"),
    "products.qbinom": ("qident.products", "qbinom"),
    "multisum.eval_sum": ("qident.multisum", "eval_sum"),
    "partitions.enum_overpartitions": ("qident.partitions", "enum_overpartitions"),
    "partitions.enum_set": ("qident.partitions", "enum_set"),
    "partitions.weighted_gf": ("qident.partitions", "weighted_gf"),
    "lpi.language": ("qident.lpi", "language"),
    "lpi.compose": ("qident.lpi", "compose"),
    "lpi.decompose": ("qident.lpi", "decompose"),
    "lpi.g_vector": ("qident.lpi", "g_vector"),
    "borel.borel_apply": ("qident.borel", "borel_apply"),
    "identities.verify": ("qident.identities", "verify"),
    "cli.main": ("qident.cli", "main"),
} | {
    f"partitions.{t}": ("qident.partitions", t)
    for t in ("table_A", "table_B", "table_A1", "table_B1", "table_A2", "table_B2")
}

# in_A runs once per overpartition the oracle builds (about half a million a
# pass at the default order), so it is counted, not spanned.
COUNTED = {"partitions.in_A": ("qident.partitions", "in_A")}

PRODUCT_SPANS = tuple(n for n in SPANNED if n.startswith("products."))
TABLE_SPANS = tuple(n for n in SPANNED if n.startswith("partitions.table_"))

# Every registry id a workload verifies gets an identities.verify.<id>.s metric.
VERIFY_IDS = workloads.REGISTRY_IDS + workloads.NEG_IDS


def verify_metric(identity: str) -> str:
    return f"identities.verify.{identity.replace(':', '-')}.s"


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records the spans and counts of the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.labels: dict[int, str] = {}  # span -> registry id, for identities.verify
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, (module, path) in SPANNED.items():
            self._replace(module, path, lambda fn, name=name: self._spanned(name, fn))
        for name, (module, path) in COUNTED.items():
            self._replace(module, path, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, module: str, path: str, make) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            # Aliases inside the class, e.g. __rmul__ = __mul__.
            targets = [(owner, a) for a, v in vars(owner).items() if v is original]
        else:
            targets = [
                (mod, a)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "qident" or mod_name.startswith("qident.")
                for a, v in list(vars(mod).items())
                if v is original
            ]
        for target, a in targets:
            self._patches.append((target, a, original))
            setattr(target, a, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = _OBSERVERS.get(name)
        labels = self.labels if name == "identities.verify" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if labels is not None:
                labels[sid] = args[0] if args else kwargs["identity"]
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                stack.pop()
                if done and observe is not None:
                    observe(counts, args, result)
                spans[sid] = (name, start, perf_counter(), parent)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        calls, hits = name + ".calls", name + ".hits"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[calls] += 1
            counts[hits] += bool(result)
            return result

        return wrapper


def _terms(series) -> dict:
    return getattr(series, "terms", None) or {}


def _max_bits(counts, series) -> None:
    terms = _terms(series)
    if terms:
        bits = max(abs(c) for c in terms.values()).bit_length()
        if bits > counts["series.max_coeff_bits"]:
            counts["series.max_coeff_bits"] = bits


def _observe_mul(counts, args, result) -> None:
    a, b = args
    counts["series.mul.terms_in"] += len(_terms(a)) + len(_terms(b))
    counts["series.mul.terms_out"] += len(_terms(result))
    _max_bits(counts, result)


def _observe_series(counts, args, result) -> None:
    _max_bits(counts, result)


def _observe_init(counts, args, result) -> None:
    _max_bits(counts, args[0])


def _observe_eval_sum(counts, args, result) -> None:
    counts["multisum.eval_sum.terms_out"] += len(_terms(result))
    _max_bits(counts, result)


def _observe_items(name: str):
    def observe(counts, args, result) -> None:
        counts[name] += len(result)

    return observe


_OBSERVERS = {
    "series.mul": _observe_mul,
    "series.init": _observe_init,
    "series.invert": _observe_series,
    "series.add": _observe_series,
    "series.substitute": _observe_series,
    "multisum.eval_sum": _observe_eval_sum,
    "partitions.weighted_gf": _observe_series,
    "partitions.enum_overpartitions": _observe_items("partitions.enum_overpartitions.items"),
    "partitions.enum_set": _observe_items("partitions.enum_set.items"),
    "lpi.language": _observe_items("lpi.language.items"),
} | {name: _observe_series for name in PRODUCT_SPANS}


def span_totals(spans) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
    """Calls, total time and self time per span name.

    Self time is a span's duration minus the time its child spans cover.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child: list[float] = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for sid, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[sid]
    return calls, total, own


def layer_metrics(spans, labels: dict[int, str], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    calls, total, own = span_totals(spans)
    m: dict[str, float] = {
        "series.mul.calls": calls["series.mul"],
        "series.mul.self_s": own["series.mul"],
        "series.mul.terms_in": counts.get("series.mul.terms_in", 0),
        "series.mul.terms_out": counts.get("series.mul.terms_out", 0),
        "series.invert.calls": calls["series.invert"],
        "series.invert.s": total["series.invert"],
        "series.init.calls": calls["series.init"],
        "series.init.self_s": own["series.init"],
        "series.add.self_s": own["series.add"],
        "series.substitute.self_s": own["series.substitute"],
        "series.first_mismatch.s": total["series.first_mismatch"],
        "series.max_coeff_bits": counts.get("series.max_coeff_bits", 0),
        "products.calls": sum(calls[n] for n in PRODUCT_SPANS),
        "products.self_s": sum(own[n] for n in PRODUCT_SPANS),
        "multisum.eval_sum.calls": calls["multisum.eval_sum"],
        "multisum.eval_sum.self_s": own["multisum.eval_sum"],
        "multisum.eval_sum.terms_out": counts.get("multisum.eval_sum.terms_out", 0),
        "partitions.enum_overpartitions.self_s": own["partitions.enum_overpartitions"],
        "partitions.enum_overpartitions.items": counts.get("partitions.enum_overpartitions.items", 0),
        "partitions.in_A.hit_ratio": (
            counts.get("partitions.in_A.hits", 0) / counts["partitions.in_A.calls"]
            if counts.get("partitions.in_A.calls") else 0.0
        ),
        "partitions.enum_set.self_s": own["partitions.enum_set"],
        "partitions.enum_set.items": counts.get("partitions.enum_set.items", 0),
        "partitions.weighted_gf.self_s": own["partitions.weighted_gf"],
        "partitions.tables.self_s": sum(own[n] for n in TABLE_SPANS),
        "lpi.language.self_s": own["lpi.language"],
        "lpi.language.items": counts.get("lpi.language.items", 0),
        "lpi.compose_decompose.self_s": own["lpi.compose"] + own["lpi.decompose"],
        "lpi.g_vector.self_s": own["lpi.g_vector"],
        "borel.borel_apply.self_s": own["borel.borel_apply"],
        "identities.verify.self_s": own["identities.verify"],
        "cli.main.self_s": own["cli.main"],
    }
    per_id: dict[str, float] = dict.fromkeys(VERIFY_IDS, 0.0)
    for sid, identity in labels.items():
        if identity in per_id:
            _, start, end, _ = spans[sid]
            per_id[identity] += end - start
    for identity, seconds in per_id.items():
        m[verify_metric(identity)] = seconds
    return m


def metric_units() -> dict[str, tuple[str, str]]:
    """Unit and better direction of each per-layer metric, as BENCHMARK.json lists them."""
    units = {}
    for name in layer_metrics([], {}, {}):
        if name.endswith("_s") or name.endswith(".s"):
            units[name] = ("s", "lower")
        elif name == "series.max_coeff_bits":
            units[name] = ("bits", "lower")
        elif name == "partitions.in_A.hit_ratio":
            units[name] = ("ratio", "higher")
        else:
            units[name] = ("count", "lower")
    units["trace.overhead_s"] = ("s", "lower")
    return units
