"""Each output check accepts the program's real output and rejects a copy with
one coefficient changed.

    python3 -m pytest perfbench/test_checks.py     (or: python3 perfbench/test_checks.py)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qident import cli, partitions  # noqa: E402


class _Pkg:
    cli = cli


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _csv(series: str, order: int) -> str:
    rc, text = _cli(["coeffs", "--series", series, "--order", str(order), "--format", "csv"])
    assert rc == 0
    return text


def _bump_line(text: str, index: int) -> str:
    """Add one to the coefficient on one line of a CSV table."""
    lines = text.splitlines()
    *cols, coeff = lines[index].split(",")
    lines[index] = ",".join(cols + [str(int(coeff) + 1)])
    return "\n".join(lines) + "\n"


def test_overpartition_counts():
    n = 12
    got = [len(partitions.enum_overpartitions(k)) for k in range(n + 1)]
    reference = checks.overpartition_counts(n)
    assert checks.compare_counts("op", reference, got) == []
    got[7] += 1
    assert checks.compare_counts("op", reference, got)


def test_mod5_products():
    n = 60
    for name, residues in (("rr1-lhs", (1, 4)), ("rr2-lhs", (2, 3))):
        text = _csv(name, n)
        reference = checks.partitions_into(n, lambda k: k % 5 in residues)
        assert checks.check_product_csv(name, text, n, reference) == []
        assert checks.check_product_csv(name, _bump_line(text, 30), n, reference)


def test_table_b_row_sums():
    n = 20
    table = partitions.table_B(n)
    reference = checks.distinct_parts_into(n, lambda k: k % 4 != 0)
    assert checks.check_table_row_sums(table, n, reference) == []
    key = sorted(table)[len(table) // 2]
    table[key] += 1
    assert checks.check_table_row_sums(table, n, reference)


def test_quin_routes_pass_check():
    # The workload's own cross-route comparison, on small-order exports.
    n = 16
    w = workloads.quin_routes(_Pkg)
    out = {}
    for k, beta in enumerate(workloads.QUIN_BETAS, start=1):
        out[f"coeffs f{k}"] = (0, _csv(f"f{k}", n))
        out[f"coeffs h{k}"] = (0, _csv("h:" + ",".join(map(str, beta)), n))
    for fam, _ in workloads.QUIN_FAMILIES:
        out[f"coeffs {fam}"] = (0, _csv(fam, n))
    assert w.check_pass(out) == []
    for name in ("coeffs h3", "coeffs f7", "coeffs gf-A-no-1-1bar"):
        damaged = dict(out)
        damaged[name] = (0, _bump_line(out[name][1], 5))
        assert w.check_pass(damaged), name


def test_reports():
    rc, text = _cli(["verify", "rr1", "--order", "20", "--json"])
    reports = checks.parse_reports(text)
    assert rc == 0 and checks.check_reports("rr1", reports, {"rr1": 20}) == []
    assert checks.check_reports("rr1", reports, {"rr1": 21})
    assert checks.check_reports("rr1", reports, {"rr1": 20, "rr2": None})
    failed = [dict(reports[0], passed=False, witness="q^3: left 1 != right 2")]
    assert checks.check_reports("rr1", failed, {"rr1": 20})


def test_negative_control():
    rc, text = _cli(["verify", "neg:rr1", "--json"])
    reports = checks.parse_reports(text)
    assert checks.check_negative("neg", rc, reports, "neg:rr1") == []
    passed = [dict(reports[0], passed=True, witness=None)]
    assert checks.check_negative("neg", 0, passed, "neg:rr1")
    assert checks.check_negative("neg", rc, [dict(reports[0], witness=None)], "neg:rr1")
    assert json.loads(text)["witness"]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
