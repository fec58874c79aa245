"""Output checks for the benchmark, with reference counts made apart from qident.

The references are plain integer dynamic programs over partitions; none of
them calls into the package.  Every check takes the program's output as data
and returns a list of problems, empty when the output is right, so that the
mutation tests can feed it a damaged copy.
"""

from __future__ import annotations

import json


def overpartition_counts(n_max: int) -> list[int]:
    """Coefficients of (-q;q)_inf / (q;q)_inf up to q^n_max."""
    a = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for j in range(n_max, k - 1, -1):  # times (1 + q^k)
            a[j] += a[j - k]
        for j in range(k, n_max + 1):  # divided by (1 - q^k)
            a[j] += a[j - k]
    return a


def partitions_into(n_max: int, allowed) -> list[int]:
    """Partitions of 0..n_max into parts k with allowed(k), repetition free."""
    a = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        if allowed(k):
            for j in range(k, n_max + 1):
                a[j] += a[j - k]
    return a


def distinct_parts_into(n_max: int, allowed) -> list[int]:
    """Partitions of 0..n_max into distinct parts k with allowed(k)."""
    a = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        if allowed(k):
            for j in range(n_max, k - 1, -1):
                a[j] += a[j - k]
    return a


def compare_counts(label: str, expected: list[int], got: list[int]) -> list[str]:
    if len(expected) != len(got):
        return [f"{label}: {len(got)} values, expected {len(expected)}"]
    for n, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return [f"{label}: at n = {n} got {g}, reference {e}"]
    return []


def q_coefficients_from_csv(text: str, order: int) -> list[int] | str:
    """Coefficients of q^0..q^order from a univariate ``coeffs --format csv`` table."""
    lines = text.splitlines()
    if not lines or lines[0] != "q,coeff":
        return f"unexpected header {lines[:1]}"
    out = [0] * (order + 1)
    for line in lines[1:]:
        e, c = (int(f) for f in line.split(","))
        if not 0 <= e <= order:
            return f"exponent {e} outside 0..{order}"
        out[e] += c
    return out


def check_product_csv(label: str, text: str, order: int, reference: list[int]) -> list[str]:
    got = q_coefficients_from_csv(text, order)
    if isinstance(got, str):
        return [f"{label}: {got}"]
    return compare_counts(label, reference, got)


def check_table_row_sums(table: dict, order: int, reference: list[int]) -> list[str]:
    """Row n of a refined count table sums to the plain count of n."""
    sums = [0] * (order + 1)
    for key, c in table.items():
        sums[key[0]] += c
    return compare_counts("table_B row sums", reference, sums)


def check_same_csv(label: str, left: str, right: str) -> list[str]:
    """Two CSV exports of series that must agree term for term."""
    a, b = left.splitlines(), right.splitlines()
    if len(a) < 2:
        return [f"{label}: export has no terms"]
    if a == b:
        return []
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return [f"{label}: line {i + 1}: {x!r} != {y!r}"]
    return [f"{label}: {len(a)} lines != {len(b)} lines"]


def parse_reports(text: str) -> list[dict] | str:
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return f"unparsable report: {exc}"


def check_reports(label: str, reports: list[dict], expected: dict[str, int | None]) -> list[str]:
    """Every expected id reports once, passes, and ran at its expected order.

    An expected order of None accepts whatever default the registry chose.
    """
    problems = []
    seen: dict[str, dict] = {}
    for r in reports:
        if r.get("id") in seen:
            problems.append(f"{label}: {r.get('id')} reported twice")
        seen[r.get("id")] = r
        if r.get("passed") is not True or r.get("witness") is not None:
            problems.append(f"{label}: {r.get('id')} failed: {r.get('witness')}")
    for identity, order in expected.items():
        r = seen.get(identity)
        if r is None:
            problems.append(f"{label}: no report for {identity}")
        elif order is not None and r.get("order") != order:
            problems.append(f"{label}: {identity} ran at order {r.get('order')}, expected {order}")
    return problems


def check_negative(label: str, rc: int, reports: list[dict], identity: str) -> list[str]:
    """A broken variant must fail, exit 1, and carry a witness."""
    if rc != 1:
        return [f"{label}: exit {rc}, expected 1"]
    if len(reports) != 1 or reports[0].get("id") != identity:
        return [f"{label}: expected one report for {identity}"]
    r = reports[0]
    if r.get("passed") is not False or not r.get("witness"):
        return [f"{label}: control passed or gave no witness"]
    return []
