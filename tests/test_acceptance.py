"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every check is exact (integer coefficient equality at the stated truncation
order); the only tolerances are wall-clock budgets.  Run with ``pytest -v -s``
to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time

from qident.cli import main as cli_main
from qident.identities import named_series, verify
from qident.multisum import (
    SumNode,
    eval_sum,
    expand_tree,
    quinvariate_spec,
    rec_step,
    verify_matrix_relation,
)
from qident.partitions import SET_A, enum_overpartitions, weighted_gf
from qident.series import QUIN_VARS, Series, varset


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'pass' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_c01_mod5_pair_at_50():
    start = time.perf_counter()
    r1 = verify("rr1", 50)
    r2 = verify("rr2", 50)
    elapsed = time.perf_counter() - start
    ok = r1.passed and r2.passed and elapsed < 5.0
    _report(1, ok, f"rr1/rr2 exact to q^50 in {elapsed:.2f}s (< 5s)")


def test_c02_odd_moduli_ladder_at_30():
    start = time.perf_counter()
    failures = []
    for k in (2, 3, 4):
        for i in range(1, k + 1):
            r = verify(f"andrews-gordon-k{k}-i{i}", 30)
            if not r.passed:
                failures.append(r.id)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(2, ok, f"andrews-gordon k=2..4 all i at N=30 in {elapsed:.2f}s (< 30s)")


def test_c03_trivariate_single_sum_at_25():
    start = time.perf_counter()
    r = verify("tri-single", 25)
    elapsed = time.perf_counter() - start
    ok = r.passed and elapsed < 30.0
    _report(3, ok, f"tri-single with formal x, y at N=25 in {elapsed:.2f}s (< 30s)")


def test_c04_quadruple_sums_at_20():
    t0 = time.perf_counter()
    r_new = verify("quad-new", 20)
    t_new = time.perf_counter() - t0
    t0 = time.perf_counter()
    r_quad = verify("quad", 20)
    t_quad = time.perf_counter() - t0
    ok = r_new.passed and r_quad.passed and t_new < 60.0 and t_quad < 60.0
    _report(4, ok, f"quad-new ({t_new:.2f}s) and quad ({t_quad:.2f}s) at N=20 (< 60s each)")


def test_c05_borel_bridge_at_20():
    r_lhs = verify("borel-bridge-lhs", 20)
    r_rhs = verify("borel-bridge-rhs", 20)
    _report(5, r_lhs.passed and r_rhs.passed, "coefficient-boost operator bridges both sides at N=20")


def test_c06_matrix_relation_at_24():
    passed, _ = verify_matrix_relation(order=24)
    # the first row's tree must contain the duplicated beta leaves
    leaves = expand_tree(quinvariate_spec(), QUIN_VARS, (1, 1, 2, 4), [2, 1, 3, 2, 1, 4])
    betas = [leaf.beta for leaf in leaves]
    duplicated = betas.count((7, 9, 10, 8)) == 2 and betas.count((5, 7, 6, 8)) == 2
    ok = passed and duplicated
    _report(6, ok, "seven-row closure symbolic + numeric at N=24, duplicate leaves kept distinct")


def test_c07_automaton_language_at_30():
    start = time.perf_counter()
    r = verify("lpi-eq-A", 30)
    elapsed = time.perf_counter() - start
    ok = r.passed and elapsed < 120.0
    _report(7, ok, f"automaton language = gap-4 family for n <= 30 with round-trip in {elapsed:.2f}s (< 120s)")


def test_c08_quinvariate_generating_functions_at_20():
    reports = [verify(f"thm51-{s}", 20) for s in "abcd"]
    ok = all(r.passed for r in reports)
    _report(8, ok, "four quinvariate generating functions match enumeration at N=20")


def test_c09_weighted_count_refinements_at_25():
    reports = [verify("thm15", 25), verify("thmA1", 25), verify("thmA2", 25)]
    ok = all(r.passed for r in reports)
    _report(9, ok, "trivariate refinement and both weighted collapses agree for n <= 25")


def test_c10_fourteen_overpartitions_of_four():
    count = len(enum_overpartitions(4))
    _report(10, count == 14, f"enum_overpartitions(4) has {count} members (expected 14)")


def _random_series(rng: random.Random, vs, order: int) -> Series:
    terms = []
    for _ in range(rng.randint(0, 8)):
        mono = (rng.randint(0, order), rng.randint(0, 4), rng.randint(0, 3))
        terms.append((mono, rng.randint(-9, 9)))
    return Series(vs, order, terms)


def test_c11_property_suites():
    vs = varset("q", "x", "y")
    rng = random.Random(1729)
    cases = 0
    ok = True
    for _ in range(500):
        order = rng.randint(0, 12)
        a, b, c = (_random_series(rng, vs, order) for _ in range(3))
        ok = ok and (a + b) == (b + a)
        ok = ok and ((a + b) + c) == (a + (b + c))
        ok = ok and (a * b) == (b * a)
        ok = ok and ((a * b) * c) == (a * (b * c))
        ok = ok and (a * (b + c)) == (a * b + a * c)
        cases += 1
    spec = quinvariate_spec()
    conserved = 0
    for _ in range(100):
        beta = tuple(rng.randint(0, 10) for _ in range(4))
        r = rng.randint(1, 4)
        node = SumNode(QUIN_VARS.unit, beta)
        c1, c2 = rec_step(spec, QUIN_VARS, node, r)
        lhs, value1, value2 = (
            eval_sum(spec, n.beta, QUIN_VARS, 20).mul_monomial(n.weight) for n in (node, c1, c2)
        )
        rhs = value1 + value2
        ok = ok and lhs == rhs
        conserved += 1
    for ident in ("euler1", "euler2", "qbinom"):
        ok = ok and verify(ident, 30).passed
    ok = ok and verify("avee-split", 20).passed
    _report(
        11,
        ok,
        f"ring axioms ({cases} cases), split conservation ({conserved} cases), "
        "single-sum product forms at N=30, family split at N=20",
    )


def test_c12_negative_controls(capsys):
    reports = [verify(i) for i in ("neg:rr1", "neg:quad", "neg:avee-split")]
    all_fail_with_witness = all((not r.passed) and r.witness for r in reports)
    exit_code = cli_main(["verify", "neg:quad"])
    capsys.readouterr()
    ok = all_fail_with_witness and exit_code == 1
    with capsys.disabled():
        _report(12, ok, "perturbed identities fail with witnesses; CLI exit code 1 propagates")


def test_c13_quinvariate_family_in_one_walk_at_70():
    # A generator restarted for every size took about 1.7 s (2 cores, Python 3.11).
    start = time.perf_counter()
    gf = weighted_gf(SET_A, 70)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.5 and gf == named_series("f1", 70)
    _report(13, ok, f"weighted_gf(A) to q^70 in {elapsed:.2f}s (< 1.5s), equal to the automaton's f1")
