"""The three workloads: their operations, orders and output checks.

An operation is one call of a public entry point, ``qident.cli.main`` with
its standard output captured or ``identities.verify``.  The entries and
orders are fixed here, not read from the registry, so that the work a pass
does stays the same when the registry's budgets move.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import checks

# Every non-negative registry entry; `verify all` must report each of them.
REGISTRY_IDS = (
    "rr1", "rr2",
    "andrews-gordon-k2-i1", "andrews-gordon-k2-i2",
    "andrews-gordon-k3-i1", "andrews-gordon-k3-i2", "andrews-gordon-k3-i3",
    "andrews-gordon-k4-i1", "andrews-gordon-k4-i2", "andrews-gordon-k4-i3", "andrews-gordon-k4-i4",
    "euler1", "euler2", "qbinom", "tri-single", "quad-new", "quad",
    "borel-bridge-lhs", "borel-bridge-rhs", "h-matrix", "lpi-eq-A",
    "g-system", "f-system", "thm51-a", "thm51-b", "thm51-c", "thm51-d",
    "thm15", "thmA1", "thmA2", "avee-split",
)
NEG_IDS = ("neg:rr1", "neg:quad", "neg:avee-split")
OVERPARTITION_CHECK_N = 20

# Each entry at the registry's max_order.
SERIES_MAX = (
    ("rr1", 200), ("rr2", 200), ("euler1", 80), ("euler2", 80), ("qbinom", 60),
    ("tri-single", 34), ("quad", 30), ("quad-new", 30),
    ("borel-bridge-lhs", 30), ("borel-bridge-rhs", 30),
) + tuple(
    (f"andrews-gordon-k{k}-i{i}", 60) for k in (2, 3, 4) for i in range(1, k + 1)
)
RR_CHECK_ORDER = 200

QUIN_COEFF_ORDER = 70
# Left-hand beta of row k of the closure relation: f_k (automaton) = H(beta_k).
QUIN_BETAS = (
    (1, 1, 2, 4), (1, 3, 2, 4), (1, 3, 2, 4), (3, 3, 2, 4),
    (3, 5, 6, 4), (3, 5, 6, 4), (5, 5, 6, 8),
)
# Each enumerated family and the automaton series f_k it must equal.
QUIN_FAMILIES = (
    ("gf-A", 1), ("gf-A-no-1bar", 2), ("gf-A-no-1-1bar", 4), ("gf-A-no-1-1bar-2-3bar", 5),
)
QUIN_VERIFY = (
    ("g-system", 100), ("f-system", 100), ("h-matrix", 100), ("avee-split", 60),
    ("thm15", 45), ("thmA1", 45), ("thmA2", 45),
)
TABLE_B_CHECK_ORDER = 45


@dataclass(frozen=True)
class Workload:
    name: str
    # (operation name, zero-argument call returning the output to check)
    ops: tuple[tuple[str, Callable[[], object]], ...]
    # Checks one pass's outputs (operation name -> output); returns problems.
    check_pass: Callable[[dict], list[str]]
    # Reference checks made once per run, outside the timed passes.
    check_once: Callable[[], list[str]]


class Refused(RuntimeError):
    """The command line refused the operation (usage error or order budget)."""


def _cli(pkg, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(argv)  # looked up per call, so a tracer's wrapper is used
        if rc == pkg.cli.EXIT_USAGE:
            raise Refused(f"qident {' '.join(argv)}: {err.getvalue().strip()}")
        return rc, out.getvalue()

    return run


def _verify(pkg, identity: str, order: int) -> Callable[[], dict]:
    return lambda: pkg.identities.verify(identity, order, max_order_override=order).to_dict()


def _reports(label: str, output: tuple[int, str], expect_rc: int = 0) -> tuple[list[dict], list[str]]:
    rc, text = output
    reports = checks.parse_reports(text)
    if isinstance(reports, str):
        return [], [f"{label}: {reports}"]
    if rc != expect_rc:
        return reports, [f"{label}: exit {rc}, expected {expect_rc}"]
    return reports, []


def registry_default(pkg) -> Workload:
    ops = [("verify all", _cli(pkg, ["verify", "all", "--jobs", "1", "--json"]))]
    ops += [(f"verify {i}", _cli(pkg, ["verify", i, "--json"])) for i in NEG_IDS]

    def check_pass(out: dict) -> list[str]:
        problems = []
        if "verify all" in out:
            reports, problems = _reports("verify all", out["verify all"])
            problems += checks.check_reports("verify all", reports, dict.fromkeys(REGISTRY_IDS))
        for i in NEG_IDS:
            if f"verify {i}" not in out:
                continue
            rc, text = out[f"verify {i}"]
            reports = checks.parse_reports(text)
            if isinstance(reports, str):
                problems.append(f"verify {i}: {reports}")
            else:
                problems += checks.check_negative(f"verify {i}", rc, reports, i)
        return problems

    def check_once() -> list[str]:
        n = OVERPARTITION_CHECK_N
        got = [len(pkg.partitions.enum_overpartitions(k)) for k in range(n + 1)]
        return checks.compare_counts("overpartition counts", checks.overpartition_counts(n), got)

    return Workload("registry-default", tuple(ops), check_pass, check_once)


def series_max(pkg) -> Workload:
    ops = tuple(
        (f"verify {i}", _cli(pkg, ["verify", i, "--order", str(n), "--json"])) for i, n in SERIES_MAX
    )

    def check_pass(out: dict) -> list[str]:
        problems = []
        for i, n in SERIES_MAX:
            if f"verify {i}" not in out:
                continue
            reports, p = _reports(f"verify {i}", out[f"verify {i}"])
            problems += p + checks.check_reports(f"verify {i}", reports, {i: n})
        return problems

    def check_once() -> list[str]:
        n = RR_CHECK_ORDER
        problems = []
        for name, residues in (("rr1-lhs", (1, 4)), ("rr2-lhs", (2, 3))):
            rc, text = _cli(pkg, ["coeffs", "--series", name, "--order", str(n), "--format", "csv"])()
            if rc != 0:
                problems.append(f"coeffs {name}: exit {rc}")
                continue
            reference = checks.partitions_into(n, lambda k: k % 5 in residues)
            problems += checks.check_product_csv(name, text, n, reference)
        return problems

    return Workload("series-max", ops, check_pass, check_once)


def _csv_argv(series: str) -> list[str]:
    return ["coeffs", "--series", series, "--order", str(QUIN_COEFF_ORDER), "--format", "csv"]


def quin_routes(pkg) -> Workload:
    ops = []
    for k, beta in enumerate(QUIN_BETAS, start=1):
        ops.append((f"coeffs f{k}", _cli(pkg, _csv_argv(f"f{k}"))))
        ops.append((f"coeffs h{k}", _cli(pkg, _csv_argv("h:" + ",".join(map(str, beta))))))
    ops += [(f"coeffs {fam}", _cli(pkg, _csv_argv(fam))) for fam, _ in QUIN_FAMILIES]
    ops += [(f"verify {i}", _verify(pkg, i, n)) for i, n in QUIN_VERIFY]

    def check_pass(out: dict) -> list[str]:
        problems = []
        csv = {}
        for name, value in out.items():
            if name.startswith("coeffs "):
                if value[0] != 0:
                    problems.append(f"{name}: exit {value[0]}")
                csv[name[len("coeffs "):]] = value[1]
        pairs = [(f"f{k}", f"h{k}") for k in range(1, len(QUIN_BETAS) + 1)]
        pairs += [(fam, f"f{k}") for fam, k in QUIN_FAMILIES]
        for a, b in pairs:
            if a in csv and b in csv:
                problems += checks.check_same_csv(f"{a} vs {b}", csv[a], csv[b])
        for i, n in QUIN_VERIFY:
            if f"verify {i}" in out:
                problems += checks.check_reports(f"verify {i}", [out[f"verify {i}"]], {i: n})
        return problems

    def check_once() -> list[str]:
        n = TABLE_B_CHECK_ORDER
        reference = checks.distinct_parts_into(n, lambda k: k % 4 != 0)
        return checks.check_table_row_sums(pkg.partitions.table_B(n), n, reference)

    return Workload("quin-routes", tuple(ops), check_pass, check_once)


WORKLOADS = {
    "registry-default": registry_default,
    "series-max": series_max,
    "quin-routes": quin_routes,
}
