"""Registry of named, end-to-end identity verifications.

Every entry builds both sides of one identity through different computational
routes wherever possible (infinite product vs multi-sum, enumeration vs
automaton recursion) and compares them coefficientwise to a truncation order.
A handful of deliberately broken variants live under the ``neg:`` prefix;
they are excluded from bulk runs and exist to prove that the machinery
actually detects one-off exponent errors.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable

from . import partitions
from .borel import borel_apply
from .lpi import Automaton, LpiSpec, compose, decompose, gap4_ideal, g_vector, language_by_size, matrices
from .multisum import RELATION_BETAS, MultiSumSpec, binomial_sum, eval_sum, quinvariate_spec, verify_matrix_relation
from .partitions import (
    SET_A,
    SET_A_NO_1BAR,
    SET_A_NO_1_1BAR,
    SET_A_NO_1_1BAR_2_3BAR,
    SET_AVEE,
    oracle_members_by_size,
    weighted_gf,
)
from .products import (
    PochSpec,
    distinct_4regular,
    euler1,
    euler2,
    poch_finite,
    poch_inf,
    poch_inverse,
    qbinom,
)
from .record import Record
from .report import IdentityReport
from .series import Q_VARS, QUIN_VARS, QX_VARS, QXY_VARS, Series, SeriesError


class UnknownIdentity(KeyError):
    pass


class UsageError(ValueError):
    """A caller-supplied order, job count or series parameter is out of range."""


class OrderBudgetExceeded(UsageError):
    pass


Side = Callable[[int], Series]
Runner = Callable[[int], tuple[bool, "str | None"]]


class Entry(Record):
    """One registry check: the two sides of an identity, or a runner.

    ``run`` builds a pair entry's ``sides``, by different routes, and compares
    them to the order; entries that check a system, a set or count tables
    carry their own ``runner``.  A side calls what it builds from through
    module globals, in a def or a lambda, so that whatever rebinds those
    names (a tracer, a test) reaches it.
    """

    __slots__ = _fields = ("id", "default_order", "max_order", "description", "sides", "runner")

    def __init__(
        self,
        id: str,
        default_order: int,
        max_order: int,
        description: str,
        sides: tuple[Side, Side] | None = None,
        runner: Runner | None = None,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "id", id)
        set_(self, "default_order", default_order)
        set_(self, "max_order", max_order)
        set_(self, "description", description)
        set_(self, "sides", sides)
        set_(self, "runner", runner)

    def run(self, order: int) -> tuple[bool, str | None]:
        if self.sides is None:
            return self.runner(order)
        lhs, rhs = self.sides[0](order), self.sides[1](order)
        mm = lhs.first_mismatch(rhs, order)
        return (mm is None, mm.render(lhs.vars) if mm else None)


# -- single q-variable: the mod-5 pair and the odd-moduli ladder -----------------


def _residue_product(residues: tuple[int, ...], modulus: int, order: int) -> Series:
    """1 / prod over residue classes r of (q^r; q^modulus)_inf."""
    return poch_inverse([PochSpec(Q_VARS.m(q=r), modulus) for r in residues], Q_VARS, order)


def _ag_spec(k: int) -> MultiSumSpec:
    rank = k - 1
    alpha = tuple(
        tuple(2 * min(a, b) for b in range(1, rank + 1)) for a in range(1, rank + 1)
    )
    return MultiSumSpec(alpha, (1,) * rank, ())


def _ag_beta(k: int, i: int) -> tuple[int, ...]:
    return tuple(r + max(0, r - i + 1) for r in range(1, k))


def _ag_sides(k: int, i: int) -> tuple[Side, Side]:
    """The product over parts not = 0, +-i mod 2k+1, and the (k-1)-fold sum.

    k = 2 is the mod-5 pair: i = 2 gives rr1, i = 1 gives rr2.
    """
    modulus = 2 * k + 1
    residues = tuple(r for r in range(1, modulus) if r != i and r != modulus - i)
    return (
        lambda n: _residue_product(residues, modulus, n),
        lambda n: eval_sum(_ag_spec(k), _ag_beta(k, i), Q_VARS, n),
    )


# -- classical single sums -------------------------------------------------------


_XQ = QX_VARS.m(x=1, q=1)


def _qbinom_product(order: int) -> Series:
    vs = QXY_VARS
    return poch_inf(PochSpec(vs.m(x=1, y=1, q=1), 1), vs, order) * poch_inverse(
        [PochSpec(vs.m(x=1, q=1), 1)], vs, order
    )


# -- the trivariate single-sum relation ------------------------------------------


def _tri_single_lhs(order: int) -> Series:
    vs = QXY_VARS
    p1 = poch_finite(PochSpec(vs.m(x=1), 1, order + 1, sign=-1), vs, order)
    p2 = poch_finite(PochSpec(vs.m(x=1, y=1), 1, order + 1), vs, order)
    p3 = poch_inverse([PochSpec(vs.m(x=2, y=1, q=2), 2)], vs, order)
    return p1 * p2 * p3


def _tri_single_summands(ops):
    """The summands of ``_tri_single_rhs`` from the operations of ``binomial_sum``."""
    vs = QXY_VARS
    core = ops.one()
    n = 0
    while not ops.is_zero(core):
        yield ops.times(core, vs.m(x=2, y=2, q=4 * n), 1)
        n += 1
        core = ops.shift(core, vs.m(x=1, q=n - 1))
        core = ops.times(core, vs.m(x=1, y=1, q=n - 1), 1)
        core = ops.times(core, vs.m(y=1, q=2 * n - 2), 1)
        core = ops.divide(core, vs.m(q=n), 1)
        core = ops.divide(core, vs.m(x=2, y=1, q=2 * n), 1)


def _tri_single_rhs(order: int) -> Series:
    """sum_n x^n q^C(n,2) (1 - x^2y^2q^{4n}) (xy;q)_n (y;q^2)_n / ((q;q)_n (x^2yq^2;q^2)_n).

    The core (the summand without its bracket) for n is the one for n - 1
    times x q^{n-1} (1 - xyq^{n-1}) (1 - yq^{2n-2}), divided by
    (1 - q^n) (1 - x^2yq^{2n}), by ``binomial_sum``; no product or inverse
    is formed.
    """
    return binomial_sum(_tri_single_summands, QXY_VARS, order)


# -- the quadruple sums and their Borel bridge ------------------------------------


def _quad_spec() -> MultiSumSpec:
    return MultiSumSpec(
        alpha=((4, 4, 4, 4), (4, 6, 4, 4), (4, 4, 4, 4), (4, 4, 4, 8)),
        bases=(2, 2, 4, 4),
        gammas=((1, 1, 0, 2), (0, 1, 1, 0)),
    )


def _quad_new_spec() -> MultiSumSpec:
    return MultiSumSpec(
        alpha=((2, 2, 4, 0), (2, 0, 0, 0), (4, 0, 0, 4), (0, 0, 4, 0)),
        bases=(2, 2, 4, 4),
        gammas=((1, 1, 0, 2), (0, 1, 1, 0)),
    )


def _quad_lhs(order: int) -> Series:
    return distinct_4regular(QXY_VARS, order, QXY_VARS.m(y=1))


def _quad_rhs(order: int, perturb: int = 0) -> Series:
    vs = QXY_VARS
    spec = _quad_spec()
    beta = (1 + perturb, 3, 2, 4)
    base = eval_sum(spec, beta, vs, order)
    extra = eval_sum(
        spec, tuple(b + 8 for b in beta), vs, order
    ).mul_monomial(vs.m(x=2, y=1, q=6))
    return base + extra


def _quad_new_lhs(order: int) -> Series:
    vs = QXY_VARS
    return poch_inverse([PochSpec(vs.m(x=1, q=1), 2), PochSpec(vs.m(y=1, q=2), 4)], vs, order)


def _quad_new_rhs(order: int) -> Series:
    vs = QXY_VARS
    spec = _quad_new_spec()
    base = eval_sum(spec, (1, 3, 2, 2), vs, order)
    extra = eval_sum(spec, (5, 3, 6, 2), vs, order).mul_monomial(vs.m(x=2, y=1, q=4))
    return base + extra


# -- automaton vs enumeration -----------------------------------------------------


def _run_lpi_eq_A(order: int) -> tuple[bool, str | None]:
    spec = gap4_ideal()
    generated_by_size = language_by_size(spec, order)
    filtered_by_size = oracle_members_by_size(SET_A, order)
    for n in range(order + 1):
        generated, filtered = set(generated_by_size[n]), filtered_by_size[n]
        if generated != filtered:
            extra = next(iter(generated - filtered), None)
            missing = next(iter(filtered - generated), None)
            return False, (
                f"size {n}: automaton minus filter {extra!r}, filter minus automaton {missing!r}"
            )
        for op in filtered:
            if compose(spec, decompose(spec, op)) != op:
                return False, f"round-trip failed for {op!r}"
    return True, None


# Each family is the ideal's language with its first block in the linking set
# of one block, F_1, F_2, F_4 or F_5, so its beta is that block's row.
_SET_BETA = {
    SET_A: RELATION_BETAS[0],
    SET_A_NO_1BAR: RELATION_BETAS[1],
    SET_A_NO_1_1BAR: RELATION_BETAS[3],
    SET_A_NO_1_1BAR_2_3BAR: RELATION_BETAS[4],
}


def _quin_sides(setid: str) -> tuple[Side, Side]:
    # The multi-sum side reads _SET_BETA per call, so a changed beta shows.
    return (
        lambda n: weighted_gf(setid, n),
        lambda n: eval_sum(quinvariate_spec(), _SET_BETA[setid], QUIN_VARS, n),
    )


def _run_g_system(order: int) -> tuple[bool, str | None]:
    # The right side sums over the incidence matrix with Series.sum, not
    # through the aggregation plan that the packed recursion runs, so a
    # fault in that plan cannot cancel out.
    spec = gap4_ideal()
    a, weights = matrices(spec)
    g = g_vector(spec, order)
    shifted = [s.substitute("x", QUIN_VARS.m(x=1, q=spec.modulus)) for s in g]
    for k in range(spec.size):
        linked = (shifted[j] for j in range(spec.size) if a[k][j])
        rhs = Series.sum(QUIN_VARS, order, linked).mul_monomial(weights[k])
        mm = g[k].first_mismatch(rhs, order)
        if mm is not None:
            return False, f"G_{k + 1}: {mm.render(QUIN_VARS)}"
    return True, None


def _run_f_system(order: int) -> tuple[bool, str | None]:
    spec = gap4_ideal()
    a, weights = matrices(spec)
    automaton = Automaton(spec, order)
    f = [automaton.f(k) for k in range(spec.size)]
    # Column j of the right side, W_j * F_j(xq^T), is built once for every row.
    columns = [
        s.substitute("x", QUIN_VARS.m(x=1, q=spec.modulus)).mul_monomial(w) for s, w in zip(f, weights)
    ]
    for k in range(spec.size):
        rhs = Series.sum(QUIN_VARS, order, (columns[j] for j in range(spec.size) if a[k][j]))
        mm = f[k].first_mismatch(rhs, order)
        if mm is not None:
            return False, f"F_{k + 1}: {mm.render(QUIN_VARS)}"
        at_zero = f[k].set_var_zero("x")
        if at_zero != Series.one(QUIN_VARS, order):
            return False, f"F_{k + 1}(0) != 1"
    return True, None


# -- weighted count refinements ----------------------------------------------------


def _diff_tables(a: dict, b: dict, names: tuple[str, str]) -> str | None:
    for key in sorted(set(a) | set(b)):
        if a.get(key, 0) != b.get(key, 0):
            return f"{names[0]}{key} = {a.get(key, 0)} != {names[1]}{key} = {b.get(key, 0)}"
    return None


def _run_thm15(order: int) -> tuple[bool, str | None]:
    witness = _diff_tables(
        partitions.table_A(order), partitions.table_B(order), ("A", "B")
    )
    return witness is None, witness


def _run_thmA(k: int, order: int) -> tuple[bool, str | None]:
    """thmA<k>: table_A<k>, table_A collapsed by weight k, against table_B<k>."""
    table_a, table_b = {
        1: (partitions.table_A1, partitions.table_B1),
        2: (partitions.table_A2, partitions.table_B2),
    }[k]
    witness = _diff_tables(table_a(order), table_b(order), (f"A{k}", f"B{k}"))
    return witness is None, witness


def _avee_split_rhs(order: int, shift: int = 8) -> Series:
    # The base is thm51-b's multi-sum, which thm51-b checks against the transfer's
    # count of A-no-1bar, so the two sides share no kernel.
    base = eval_sum(quinvariate_spec(), _SET_BETA[SET_A_NO_1BAR], QUIN_VARS, order)
    return base + base.substitute("x", QUIN_VARS.m(x=1, q=shift)).mul_monomial(
        QUIN_VARS.m(x=2, z=1, q=6)
    )


# -- registry ----------------------------------------------------------------------


# The max_order of the Andrews-Gordon ladder (the least over its nine
# entries), euler1, euler2, qbinom, tri-single, quad-new, quad,
# borel-bridge-rhs, h-matrix, g-system, f-system, lpi-eq-A, thm51-a..d,
# thm15, thmA1, thmA2 and avee-split is the largest multiple of 5 at which the
# entry runs serially within 2 s (median over every run at that order, each in
# a fresh process, on a 2-core machine, Python 3.11); the other budgets are
# older.  euler1, qbinom and quad-new were last derived with their inverted
# products on packed slots; at 440, euler1's largest exponent x^440 stays
# below LIMIT.  lpi-eq-A was last derived with both sides built once for every
# size (one sweep over the partitions for the oracle, one chain walk for the
# language), g-system and f-system with the automaton run on q-packed
# groups, and avee-split with thm51-b's multi-sum as its right side's base.
def _entries() -> list[Entry]:
    out = [
        Entry("rr1", 50, 200, "product over parts = 1,4 mod 5 vs the gap-2 single sum", sides=_ag_sides(2, 2)),
        Entry("rr2", 50, 200, "product over parts = 2,3 mod 5 vs the shifted gap-2 single sum", sides=_ag_sides(2, 1)),
    ]
    for k in (2, 3, 4):
        for i in range(1, k + 1):
            out.append(
                Entry(
                    f"andrews-gordon-k{k}-i{i}",
                    30,
                    1010,
                    f"odd-modulus {2 * k + 1} product vs the {k - 1}-fold multi-sum (i={i})",
                    sides=_ag_sides(k, i),
                )
            )
    out += [
        Entry("euler1", 30, 440, "geometric-style single sum vs 1/(xq;q)_inf",
              sides=(lambda n: euler1(QX_VARS, n, _XQ, 1), lambda n: poch_inverse([PochSpec(_XQ, 1)], QX_VARS, n))),
        Entry("euler2", 30, 495, "triangular-exponent single sum vs (-xq;q)_inf",
              sides=(lambda n: euler2(QX_VARS, n, _XQ, 1), lambda n: poch_inf(PochSpec(_XQ, 1, sign=-1), QX_VARS, n))),
        Entry("qbinom", 30, 145, "binomial single sum vs (xyq;q)_inf / (xq;q)_inf",
              sides=(lambda n: qbinom(QXY_VARS, n, QXY_VARS.m(y=1), QXY_VARS.m(x=1, q=1), 1), _qbinom_product)),
        Entry("tri-single", 25, 85, "trivariate single sum vs (-x;q)(xy;q)/(x^2yq^2;q^2) products", sides=(_tri_single_lhs, _tri_single_rhs)),
        Entry("quad-new", 20, 145, "signed quadruple sum vs 1/((xq;q^2)(yq^2;q^4)) products", sides=(_quad_new_lhs, _quad_new_rhs)),
        Entry("quad", 20, 530, "signed quadruple sum vs (-xq;q^2)(-yq^2;q^4) products", sides=(_quad_lhs, _quad_rhs)),
        Entry("borel-bridge-lhs", 20, 30, "coefficient-boost operator maps the inverse product to the signed product",
              sides=(lambda n: borel_apply(_quad_new_lhs(n)), _quad_lhs)),
        Entry("borel-bridge-rhs", 20, 200, "coefficient-boost operator maps one quadruple sum to the other",
              sides=(lambda n: borel_apply(_quad_new_rhs(n)), _quad_rhs)),
        Entry("h-matrix", 24, 300, "seven-row recurrence closure of the quinvariate multi-sum family, symbolic and numeric", runner=lambda n: verify_matrix_relation(order=n)),
        Entry("lpi-eq-A", 30, 60, "block-automaton language equals the gap-4 overpartition family, with round-trip", runner=_run_lpi_eq_A),
        Entry("g-system", 20, 435, "automaton series satisfy G = W.A.G(x -> xq^4)", runner=_run_g_system),
        Entry("f-system", 20, 390, "aggregated series satisfy F = A.W.F(x -> xq^4) with F(0) = 1", runner=_run_f_system),
        Entry("thm51-a", 20, 95, "quinvariate enumeration of the full gap-4 family vs multi-sum", sides=_quin_sides(SET_A)),
        Entry("thm51-b", 20, 100, "quinvariate enumeration without overlined 1 vs multi-sum", sides=_quin_sides(SET_A_NO_1BAR)),
        Entry("thm51-c", 20, 105, "quinvariate enumeration without 1, overlined 1 vs multi-sum", sides=_quin_sides(SET_A_NO_1_1BAR)),
        Entry("thm51-d", 20, 110, "quinvariate enumeration without 1, overlined 1, 2, overlined 3 vs multi-sum", sides=_quin_sides(SET_A_NO_1_1BAR_2_3BAR)),
        Entry("thm15", 25, 100, "trivariate refined counts: variant family vs distinct 4-regular partitions", runner=_run_thm15),
        Entry("thmA1", 25, 95, "double-weight counts (table_A collapsed by m + ell) vs distinct 4-regular partitions", runner=lambda n: _run_thmA(1, n)),
        Entry("thmA2", 25, 95, "triple/double-weight counts (table_A collapsed by m + 2ell) vs odd parts of multiplicity <= 3", runner=lambda n: _run_thmA(2, n)),
        Entry("avee-split", 20, 425, "variant family's transfer equals the thm51-b multi-sum plus its x^2 z q^6 shifted copy",
              sides=(lambda n: weighted_gf(SET_AVEE, n), _avee_split_rhs)),
    ]
    # Deliberately broken variants: one exponent off by one in each.
    sides = {e.id: e.sides for e in out if e.sides}
    out += [
        Entry("neg:rr1", 30, 60, "negative control: mismatched linear exponent in the gap-2 sum",
              sides=(sides["rr1"][0], sides["rr2"][1])),
        Entry("neg:quad", 16, 24, "negative control: first beta entry off by one in the quadruple sum",
              sides=(sides["quad"][0], lambda n: _quad_rhs(n, perturb=1))),
        Entry("neg:avee-split", 16, 24, "negative control: shifted copy uses q^7 instead of q^8",
              sides=(sides["avee-split"][0], lambda n: _avee_split_rhs(n, shift=7))),
    ]
    return out


REGISTRY: dict[str, Entry] = {e.id: e for e in _entries()}


def registry_ids(include_negative: bool = False) -> list[str]:
    return [i for i in REGISTRY if include_negative or not i.startswith("neg:")]


def _checked_order(identity: str, order: int | None, max_order_override: int | None = None) -> int:
    """The order an entry runs at; raises before any work if it is out of range."""
    entry = REGISTRY.get(identity)
    if entry is None:
        raise UnknownIdentity(identity)
    n = entry.default_order if order is None else order
    if n < 1:
        raise UsageError(f"order must be >= 1, got {n}")
    budget = entry.max_order if max_order_override is None else max_order_override
    _check_series_budget(identity, n, budget)
    return n


def verify(identity: str, order: int | None = None, *, max_order_override: int | None = None) -> IdentityReport:
    """Run one registry entry and time it; order defaults per entry."""
    n = _checked_order(identity, order, max_order_override)
    start = time.perf_counter()
    passed, witness = REGISTRY[identity].run(n)
    elapsed = time.perf_counter() - start
    return IdentityReport(identity, n, passed, witness, elapsed)


def verify_group(
    ids: list[str], order: int | None = None, jobs: int | None = None
) -> list[IdentityReport]:
    """Run the named registry entries after checking every order against its budget.

    Entries are independent; with jobs > 1 they run in worker processes, and
    reports always come back in the order of ``ids``.  ``jobs`` defaults to
    one per core; below 1 it raises UsageError.  The pool is imported only
    here, when a group fans out, since ``concurrent.futures.process`` loads
    multiprocessing.  If the pool cannot import, cannot start (the platform
    lacks named semaphores, no process can be made) or breaks, every entry
    reruns serially, the cause goes to stderr and each report carries
    ``serial_fallback``.
    """
    for i in ids:
        _checked_order(i, order)
    if jobs is None:
        jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    if len(ids) <= 1 or jobs <= 1:
        return [verify(i, order) for i in ids]
    try:
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    except ImportError as exc:
        return _rerun_serially(ids, order, exc)
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            return list(pool.map(verify, ids, [order] * len(ids)))
    except (NotImplementedError, OSError, BrokenProcessPool) as exc:
        return _rerun_serially(ids, order, exc)


def _rerun_serially(ids: list[str], order: int | None, failure: Exception) -> list[IdentityReport]:
    print(
        f"qident: worker pool failed ({type(failure).__name__}: {failure}); running serially",
        file=sys.stderr,
    )
    return [verify(i, order).replace(serial_fallback=True) for i in ids]


# -- named series for coefficient export --------------------------------------------


# Each non-negative pair entry exports its sides as <id>-lhs and <id>-rhs, and
# gf-<family> is the enumeration side of the entry that checks that family.
# Every name shares its entry's max_order as its order budget.
_SERIES_SIDES: dict[str, tuple[str, Side]] = {
    f"{i}-{name}": (i, side)
    for i in registry_ids()
    if REGISTRY[i].sides
    for name, side in zip(("lhs", "rhs"), REGISTRY[i].sides)
} | {
    f"gf-{setid}": (i, REGISTRY[i].sides[0])
    for setid, i in (
        (SET_A, "thm51-a"), (SET_A_NO_1BAR, "thm51-b"), (SET_A_NO_1_1BAR, "thm51-c"),
        (SET_A_NO_1_1BAR_2_3BAR, "thm51-d"), (SET_AVEE, "avee-split"),
    )
}

# The order budget of f1..fK, g1..gK and h:<beta>, which are no single entry's
# side, and of ``enum --lpi-spec``.  At this order on the gap-4 ideal (one
# process, 2 cores, Python 3.11, median of 7 runs) g1 took 0.021 s, f1 0.025 s,
# h:1,1,2,4 0.004 s, and the language at size 100 1.11 s.
_PARAMETRIC_SERIES_BUDGET = 100


def _check_series_budget(name: str, order: int, budget: int) -> None:
    if order > budget:
        raise OrderBudgetExceeded(f"{name}: order {order} exceeds the resource budget {budget}")


# The budget of ``enum --set``: its walk lists every member up to size n, far
# more work than the transfer behind gf-<family>.  The largest multiple of 5
# at which a fresh ``qident enum --set X --n N`` stays within 2 s for every X
# (2 cores, Python 3.11): A, the slowest, took 1.4 s at 115 and 2.0 s at 120.
_WALK_BUDGET = 115


def check_enum_budget(setid: str | None, n: int) -> None:
    """Refuse an enumeration at size ``n`` over budget, before any work.

    A family is listed by the gap-4 walk, within ``_WALK_BUDGET``; a custom
    ideal's language (``setid`` None) shares the budget of f<k>/g<k>.
    """
    name, budget = ("f<k>/g<k>", _PARAMETRIC_SERIES_BUDGET) if setid is None else ("the gap-4 walk", _WALK_BUDGET)
    if n > budget:
        raise OrderBudgetExceeded(f"enum: n {n} exceeds the resource budget {budget} of {name}")


def series_names(spec: LpiSpec | None = None) -> list[str]:
    """The names ``named_series`` resolves; a custom ideal backs only its f<k> and g<k>."""
    k = (spec or gap4_ideal()).size
    f_and_g = [f"f{j}" for j in range(1, k + 1)] + [f"g{j}" for j in range(1, k + 1)]
    if spec is not None:
        return f_and_g
    return sorted(_SERIES_SIDES) + f_and_g + ["h:<beta entries, comma-separated>"]


def named_series(name: str, order: int, spec: LpiSpec | None = None) -> Series:
    """Resolve a series name for coefficient export.

    Supports the fixed names of ``_SERIES_SIDES``, f1..fK / g1..gK over the block automaton
    (the gap-4 ideal unless a custom one is supplied), and h:<beta list> for
    the quinvariate multi-sum at an explicit beta vector.  An order above the
    name's budget raises ``OrderBudgetExceeded`` before anything is built.  A
    custom ideal with any name but f<k> or g<k> raises ``UsageError``, since
    no other series reads it.
    """
    if order < 0:
        raise UsageError(f"order must be >= 0, got {order}")
    f_or_g = len(name) >= 2 and name[0] in "fg" and name[1:].isdigit()
    if spec is not None and not f_or_g:
        raise UsageError(f"a custom ideal backs only the f<k> and g<k> series, not {name!r}")
    side = _SERIES_SIDES.get(name)
    if side is not None:
        identity, build = side
        _check_series_budget(name, order, REGISTRY[identity].max_order)
        return build(order)
    ideal = spec or gap4_ideal()
    if f_or_g:
        k = int(name[1:])
        if not 1 <= k <= ideal.size:
            raise UnknownIdentity(name)
        _check_series_budget(name, order, _PARAMETRIC_SERIES_BUDGET)
        automaton = Automaton(ideal, order)
        return automaton.g(k - 1) if name[0] == "g" else automaton.f(k - 1)
    if name.startswith("h:"):
        try:
            beta = tuple(int(p) for p in name[2:].split(","))
        except ValueError:
            raise UnknownIdentity(name) from None
        _check_series_budget(name, order, _PARAMETRIC_SERIES_BUDGET)
        try:
            return eval_sum(quinvariate_spec(), beta, QUIN_VARS, order)
        except SeriesError as exc:
            raise UsageError(f"series {name!r}: {exc}") from None
    raise UnknownIdentity(name)
