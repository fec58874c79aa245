from __future__ import annotations

import json
import re
import subprocess
import sys
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest

from qident import identities, lpi, partitions
from qident.lpi import gap4_ideal
from qident.identities import (
    REGISTRY,
    OrderBudgetExceeded,
    UnknownIdentity,
    named_series,
    registry_ids,
    verify,
    verify_group,
)
from qident.multisum import eval_sum, quinvariate_spec
from qident.series import FIELD, LIMIT, QUIN_VARS


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("no-such-id")


def test_order_budget_guard():
    with pytest.raises(OrderBudgetExceeded):
        verify("lpi-eq-A", 999)
    # the budget is configurable per call
    report = verify("rr1", 60, max_order_override=1000)
    assert report.passed


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        verify("rr1", 0)


def test_rr1_small_order_report():
    report = verify("rr1", 15)
    assert report.passed and report.order == 15 and report.witness is None
    assert report.elapsed >= 0.0


def test_registry_defaults_sane():
    for identity in registry_ids():
        entry = REGISTRY[identity]
        assert 1 <= entry.default_order <= entry.max_order
        assert entry.description


def test_negative_controls_fail_with_witness():
    for identity in ("neg:rr1", "neg:quad", "neg:avee-split"):
        report = verify(identity)
        assert not report.passed
        assert report.witness


def test_negatives_not_in_bulk_ids():
    ids = registry_ids()
    assert not any(i.startswith("neg:") for i in ids)
    assert any(i.startswith("neg:") for i in registry_ids(include_negative=True))


_THM51_IDS = ["thm51-a", "thm51-b", "thm51-c", "thm51-d"]


def test_verify_group_reports_in_id_order():
    reports = verify_group(_THM51_IDS[::-1], jobs=1)
    assert [r.id for r in reports] == _THM51_IDS[::-1]
    assert all(r.passed for r in reports)


def test_verify_group_empty():
    assert verify_group([], jobs=1) == []


def test_determinism_modulo_elapsed():
    a = verify("quad", 14)
    b = verify("quad", 14)
    assert (a.id, a.order, a.passed, a.witness) == (b.id, b.order, b.passed, b.witness)


def test_parallel_matches_serial():
    serial = verify_group(_THM51_IDS, order=12, jobs=1)
    parallel = verify_group(_THM51_IDS, order=12, jobs=2)
    assert [(r.id, r.passed) for r in serial] == [(r.id, r.passed) for r in parallel]


def test_report_json_fields():
    doc = verify("rr1", 10).to_dict()
    assert set(doc) == {"id", "order", "passed", "witness", "elapsed_ms", "serial_fallback"}
    assert doc["serial_fallback"] is False


_POOL = "concurrent.futures.process.ProcessPoolExecutor"


class _PoolThatCannotStart:
    def __init__(self, *args, **kwargs):
        raise OSError("no process slots")


def test_pool_failure_falls_back_serially_and_says_so(monkeypatch, capsys):
    monkeypatch.setattr(_POOL, _PoolThatCannotStart)
    reports = verify_group(["rr1", "rr2"], order=10, jobs=2)
    assert [r.id for r in reports] == ["rr1", "rr2"]
    assert all(r.passed and r.serial_fallback for r in reports)
    assert all(r.to_dict()["serial_fallback"] is True for r in reports)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "OSError" in err[0] and "no process slots" in err[0]


class _PoolWithoutSemaphores:
    def __init__(self, *args, **kwargs):
        raise NotImplementedError("system provides too few semaphores")


def test_pool_without_named_semaphores_falls_back_serially(monkeypatch, capsys):
    monkeypatch.setattr(_POOL, _PoolWithoutSemaphores)
    reports = verify_group(["rr1", "rr2"], order=10, jobs=2)
    assert [r.id for r in reports] == ["rr1", "rr2"]
    assert all(r.passed and r.serial_fallback for r in reports)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "NotImplementedError: system provides too few semaphores" in err[0]


class _PoolThatBreaks:
    """Starts, then loses a worker while the results are collected."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("a worker died")


def test_pool_that_breaks_mid_run_falls_back_serially(monkeypatch, capsys):
    monkeypatch.setattr(_POOL, _PoolThatBreaks)
    reports = verify_group(_THM51_IDS, order=10, jobs=2)
    assert [r.id for r in reports] == _THM51_IDS
    assert all(r.passed and r.serial_fallback for r in reports)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "BrokenProcessPool: a worker died" in err[0]


def test_pool_modules_that_fail_to_import_fall_back_serially(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "concurrent.futures.process", None)
    reports = verify_group(["rr1", "rr2"], order=10, jobs=2)
    assert all(r.passed and r.serial_fallback for r in reports)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "ModuleNotFoundError: import of concurrent.futures.process halted" in err[0]


_IMPORT_SET = """
import json, sys
sys.path.insert(0, sys.argv[1])

def pool_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                  or m.startswith("concurrent.futures.process"))

import qident, qident.cli
qident.identities.registry_ids(include_negative=True)
after_import = pool_modules()
parsers_at_import = qident.cli._parser.cache_info().currsize
qident.identities.verify_group(["thm51-a", "thm51-b"], order=5, jobs=1)
after_one_job = pool_modules()
qident.identities.verify_group(["thm51-a", "thm51-b"], order=5, jobs=2)
after_two_jobs = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
records = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
print(json.dumps([after_import, after_one_job, after_two_jobs, records, parsers_at_import]))
"""


def test_import_loads_no_worker_pool_until_it_is_read():
    # The record classes are plain slotted classes, so start-up loads neither
    # dataclasses nor the inspect it imports; nor does it build the CLI parser.
    src = Path(identities.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_SET, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(done.stdout) == [[], [], ["multiprocessing", "concurrent.futures.process"], [], 0]


def _linking_mutant(i: int, j: int):
    """The gap-4 ideal with bit j of linking set i flipped (0-based blocks)."""
    ideal = gap4_ideal()
    linking = list(ideal.linking)
    linking[i] = linking[i] ^ {j}
    return ideal.replace(linking=tuple(linking))


# Row 0 and column 0 stay fixed: the empty block must link to every block and
# be linked from every block, so flipping those bits gives no valid ideal.
@pytest.mark.parametrize("i,j", [(i, j) for i in range(1, 7) for j in range(1, 7)])
def test_linking_bit_mutant_fails_lpi_eq_A(monkeypatch, i, j):
    mutant = _linking_mutant(i, j)
    monkeypatch.setattr(identities, "gap4_ideal", lambda: mutant)
    report = verify("lpi-eq-A")
    assert report.order == REGISTRY["lpi-eq-A"].default_order
    assert not report.passed
    assert re.match(r"size \d+: ", report.witness)


@pytest.mark.parametrize("identity", ["g-system", "f-system"])
def test_faulty_linking_sum_fails_the_automaton_systems(monkeypatch, identity):
    # The packed recursion and its F sums form every linking set as lpi._plan
    # says; each system sums its right side over the incidence matrix with
    # Series.sum instead, so a fault in the plan cannot cancel out.
    real = lpi._plan

    def drops_block_7(spec):
        return [(link, base, [j for j in added if j != 6 or len(link) == 1]) for link, base, added in real(spec)]

    monkeypatch.setattr(lpi, "_plan", drops_block_7)
    report = verify(identity)
    assert not report.passed
    assert re.match(r"[GF]_\d: ", report.witness)


@pytest.mark.parametrize("identity", ["g-system", "f-system"])
def test_the_automaton_systems_shift_x_by_the_ideal_modulus(monkeypatch, identity):
    # The same blocks and linking at modulus 5: the automaton runs
    # G = W.A.G(x -> xq^5), and each system must read T from the ideal.
    five = gap4_ideal().replace(modulus=5)
    monkeypatch.setattr(identities, "gap4_ideal", lambda: five)
    assert verify(identity, 20).passed


def test_named_series_h_matches_eval():
    s = named_series("h:1,1,2,4", 4)
    assert s == eval_sum(quinvariate_spec(), (1, 1, 2, 4), QUIN_VARS, 4)


def test_named_series_f_and_gf_agree():
    assert named_series("f1", 10) == named_series("gf-A", 10)
    assert named_series("f2", 10) == named_series("gf-A-no-1bar", 10)
    assert named_series("thm51-a-rhs", 10) == named_series("h:1,1,2,4", 10)


def test_named_series_are_the_sides_of_the_pair_entries():
    pairs = [i for i in registry_ids() if REGISTRY[i].sides is not None]
    assert len(pairs) == len(registry_ids()) - 7
    expected = {f"{i}-{side}" for i in pairs for side in ("lhs", "rhs")}
    expected |= {f"gf-{s}" for s in partitions.SET_IDS}
    assert set(identities._SERIES_SIDES) == expected
    for i in ("rr1", "rr2", "tri-single", "quad", "quad-new"):
        assert {f"{i}-lhs", f"{i}-rhs"} <= expected
    for name, (identity, build) in identities._SERIES_SIDES.items():
        assert build is REGISTRY[identity].sides[name.endswith("-rhs")], name
    gf = {name: identity for name, (identity, _) in identities._SERIES_SIDES.items() if name.startswith("gf-")}
    assert gf == {
        "gf-A": "thm51-a", "gf-A-no-1bar": "thm51-b", "gf-A-no-1-1bar": "thm51-c",
        "gf-A-no-1-1bar-2-3bar": "thm51-d", "gf-Avee": "avee-split",
    }


def test_named_series_budgets(monkeypatch):
    # Every builder is replaced, so only the budget check does any work.
    for name, (identity, _) in list(identities._SERIES_SIDES.items()):
        monkeypatch.setitem(identities._SERIES_SIDES, name, (identity, lambda n: n))
    monkeypatch.setattr(identities, "Automaton", lambda spec, n: SimpleNamespace(g=lambda k: n, f=lambda k: n))
    monkeypatch.setattr(identities, "eval_sum", lambda spec, beta, vs, n: n)
    # the orders the benchmark exports series at (perfbench/workloads.py)
    exported = {"rr1-lhs": 200, "rr2-lhs": 200, "h:5,5,6,8": 70}
    exported |= {f"gf-{s}": 70 for s in partitions.SET_IDS} | {f"f{k}": 70 for k in range(1, 8)}
    for name, order in exported.items():
        assert named_series(name, order) == order, name
    # every derived name: both sides of each pair entry and the gf- aliases
    budgets = {name: REGISTRY[identity].max_order for name, (identity, _) in identities._SERIES_SIDES.items()}
    budgets |= dict.fromkeys(("f1", "g7", "h:1,1,2,4"), identities._PARAMETRIC_SERIES_BUDGET)
    for name, budget in budgets.items():
        assert named_series(name, budget) == budget, name
        with pytest.raises(OrderBudgetExceeded):
            named_series(name, budget + 1)


def test_named_series_unknown():
    with pytest.raises(UnknownIdentity):
        named_series("quad-middle", 5)
    with pytest.raises(UnknownIdentity):
        named_series("f9", 5)
    with pytest.raises(UnknownIdentity):
        named_series("h:1,a", 5)


def test_allowing_overlined_one_fails_thm51_b(monkeypatch):
    # The walk reads the forbidden parts; the multi-sum side does not move.
    monkeypatch.setitem(partitions._FORBIDDEN, partitions.SET_A_NO_1BAR, frozenset())
    report = verify("thm51-b")
    assert not report.passed
    assert report.witness == "q*x*z: left 1 != right 0"


_THM51 = (
    ("thm51-a", partitions.SET_A),
    ("thm51-b", partitions.SET_A_NO_1BAR),
    ("thm51-c", partitions.SET_A_NO_1_1BAR),
    ("thm51-d", partitions.SET_A_NO_1_1BAR_2_3BAR),
)


@pytest.mark.parametrize("delta", (1, -1))
@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("identity, setid", _THM51)
def test_beta_mutant_fails_thm51(monkeypatch, identity, setid, slot, delta):
    # The multi-sum side reads _SET_BETA per call; the enumeration side does not move.
    beta = list(identities._SET_BETA[setid])
    beta[slot] += delta
    monkeypatch.setitem(identities._SET_BETA, setid, tuple(beta))
    report = verify(identity)
    assert report.order == REGISTRY[identity].default_order == 20
    assert not report.passed
    assert re.fullmatch(r"\S+: left -?\d+ != right -?\d+", report.witness), report.witness


# One count of a table raised by 1; the first differing key names the witness.
# Each A table is its own projection of the gap-4 transfer, so a raised count
# of table_A shows in thm15 alone, and one of table_A1 or table_A2 in its thmA.
_TABLE_BUMPS = (
    ("thmA1", "table_B1", (5, 2), "A1(5, 2) = 1 != B1(5, 2) = 2"),
    ("thmA2", "table_B2", (6, 2), "A2(6, 2) = 2 != B2(6, 2) = 3"),
    ("thmA2", "table_B2", (4, 4), "A2(4, 4) = 0 != B2(4, 4) = 1"),
    ("thmA1", "table_A1", (6, 2), "A1(6, 2) = 2 != B1(6, 2) = 1"),
    ("thmA2", "table_A2", (6, 4), "A2(6, 4) = 2 != B2(6, 4) = 1"),
    ("thm15", "table_A", (6, 2, 1), "A(6, 2, 1) = 2 != B(6, 2, 1) = 1"),
)


@pytest.mark.parametrize("identity, table, key, witness", _TABLE_BUMPS)
def test_table_bump_fails_thmA_with_exact_witness(monkeypatch, identity, table, key, witness):
    real = getattr(partitions, table)

    def bumped(order):
        out = dict(real(order))
        out[key] = out.get(key, 0) + 1
        return out

    monkeypatch.setattr(partitions, table, bumped)
    report = verify(identity, 10)
    assert not report.passed
    assert report.witness == witness


# -- boundary contracts of the product and binomial sides at max_order --------------
#
# Each function gives, for a side at order n, its largest non-q exponent and
# terms that reach it, derived from the side's factors.


def _euler2_rhs_edge(n: int) -> tuple[int, dict]:
    # (-xq; q)_inf: x^m needs the distinct parts 1..m, which alone give q^(m(m+1)/2).
    m = (isqrt(8 * n + 1) - 1) // 2
    return m, {(m * (m + 1) // 2, m): 1}


def _qbinom_edge(n: int) -> tuple[int, dict]:
    # (xyq; q)_inf / (xq; q)_inf: every x carries a q, and y only with x, so
    # x^n q^n is (xq)^n, or xyq (xq)^(n - 1) with the sign of 1 - xyq.
    return n, {(n, n, 0): 1, (n, n, 1): -1}


def _tri_single_edge(n: int) -> tuple[int, dict]:
    # (-x; q)_inf (xy; q)_inf / (x^2yq^2; q^2)_inf: every x carries a q but
    # those of the k = 0 factors 1 + x and 1 - xy, and x^2y at least q^2.  At
    # odd n, x^(n + 2) q^n takes both of those, (n - 1)/2 copies of x^2yq^2 and
    # one more of xq or xyq: -x^(n+2) y^((n+1)/2) q^n and +x^(n+2) y^((n+3)/2) q^n.
    assert n % 2
    return n + 2, {(n, n + 2, (n + 1) // 2): -1, (n, n + 2, (n + 3) // 2): 1}


def _quad_lhs_edge(n: int) -> tuple[int, dict]:
    # (-xq; q^2)_inf (-yq^2; q^4)_inf: x^m needs the odd parts 1..2m - 1, which
    # alone give q^(m^2); y^m needs q^(2m^2), so x reaches the larger power.
    m = isqrt(n)
    return m, {(m * m, m, 0): 1}


EDGES = {
    ("euler2", 1): _euler2_rhs_edge,
    ("qbinom", 0): _qbinom_edge,
    ("qbinom", 1): _qbinom_edge,
    ("tri-single", 0): _tri_single_edge,
    ("tri-single", 1): _tri_single_edge,
    ("quad", 0): _quad_lhs_edge,
}


def test_euler1_reaches_x_to_its_max_order_below_the_limit():
    # 1/(xq; q)_inf and its sum: every x carries a q, so the largest power of
    # x at order n is x^n, reached by (xq)^n alone.  poch_inverse would refuse
    # a power past LIMIT before any work.
    n = REGISTRY["euler1"].max_order
    for side in REGISTRY["euler1"].sides:
        series = side(n)
        assert max(key >> series.vars.shifts[1] & FIELD for key in series._terms) == n
        assert series.coeff((n, n)) == 1
    assert n < LIMIT


@pytest.mark.parametrize(
    "identity, side", list(EDGES), ids=[f"{i}-{('lhs', 'rhs')[k]}" for i, k in EDGES]
)
def test_largest_non_q_exponent_of_a_binomial_side_at_max_order(identity, side):
    n = REGISTRY[identity].max_order
    series = REGISTRY[identity].sides[side](n)
    largest, terms = EDGES[identity, side](n)
    fields = series.vars.shifts[1:]
    assert max(key >> shift & FIELD for key in series._terms for shift in fields) == largest
    assert {mono: series.coeff(mono) for mono in terms} == terms
    assert largest < LIMIT
