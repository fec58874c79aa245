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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable

from . import partitions
from .borel import borel_apply
from .lpi import LpiSpec, compose, decompose, f_vector, gap4_ideal, g_vector, language, matrices
from .multisum import MultiSumSpec, eval_sum, quinvariate_spec, verify_matrix_relation
from .partitions import (
    SET_A,
    SET_A_NO_1BAR,
    SET_A_NO_1_1BAR,
    SET_A_NO_1_1BAR_2_3BAR,
    SET_AVEE,
    oracle_members,
    weighted_gf,
)
from .products import PochSpec, euler1, euler2, inv_qpoch, poch_finite, poch_inf, qbinom
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


@dataclass(frozen=True)
class Entry:
    """One registry check: the two sides of an identity, or a runner.

    ``run`` builds a pair entry's ``sides``, by different routes, and compares
    them to the order; entries that check a system, a set or count tables
    carry their own ``runner``.  A side calls what it builds from through
    module globals, in a def or a lambda, so that whatever rebinds those
    names (a tracer, a test) reaches it.
    """

    id: str
    default_order: int
    max_order: int
    description: str
    sides: tuple[Side, Side] | None = None
    runner: Runner | None = None

    def run(self, order: int) -> tuple[bool, str | None]:
        if self.sides is None:
            return self.runner(order)
        lhs, rhs = self.sides[0](order), self.sides[1](order)
        mm = lhs.first_mismatch(rhs, order)
        return (mm is None, mm.render(lhs.vars) if mm else None)


# -- single q-variable: the mod-5 pair and the odd-moduli ladder -----------------


def _residue_product(residues: tuple[int, ...], modulus: int, order: int) -> Series:
    """1 / prod over residue classes r of (q^r; q^modulus)_inf."""
    prod = Series.one(Q_VARS, order)
    for r in residues:
        prod = prod * poch_inf(PochSpec(Q_VARS.m(q=r), modulus), Q_VARS, order)
    return prod.invert()


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
    return poch_inf(PochSpec(vs.m(x=1, y=1, q=1), 1), vs, order) * poch_inf(
        PochSpec(vs.m(x=1, q=1), 1), vs, order
    ).invert()


# -- the trivariate single-sum relation ------------------------------------------


def _tri_single_lhs(order: int) -> Series:
    vs = QXY_VARS
    p1 = poch_finite(PochSpec(vs.m(x=1), 1, 1, sign=-1), vs, order) * poch_inf(
        PochSpec(vs.m(x=1, q=1), 1, sign=-1), vs, order
    )
    p2 = poch_finite(PochSpec(vs.m(x=1, y=1), 1, 1), vs, order) * poch_inf(
        PochSpec(vs.m(x=1, y=1, q=1), 1), vs, order
    )
    p3 = poch_inf(PochSpec(vs.m(x=2, y=1, q=2), 2), vs, order).invert()
    return p1 * p2 * p3


def _tri_single_rhs(order: int) -> Series:
    vs = QXY_VARS
    terms = []
    n = 0
    while n * (n - 1) // 2 <= order:
        lead = vs.m(x=n, q=n * (n - 1) // 2)
        bracket = Series(vs, order, [(vs.unit, 1), (vs.m(x=2, y=2, q=4 * n), -1)])
        num = poch_finite(PochSpec(vs.m(x=1, y=1), 1, n), vs, order) * poch_finite(
            PochSpec(vs.m(y=1), 2, n), vs, order
        )
        den = inv_qpoch(vs, order, 1, n) * poch_finite(
            PochSpec(vs.m(x=2, y=1, q=2), 2, n), vs, order
        ).invert()
        terms.append((bracket * num * den).mul_monomial(lead))
        n += 1
    return Series.sum(vs, order, terms)


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
    vs = QXY_VARS
    return poch_inf(PochSpec(vs.m(x=1, q=1), 2, sign=-1), vs, order) * poch_inf(
        PochSpec(vs.m(y=1, q=2), 4, sign=-1), vs, order
    )


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
    prod = poch_inf(PochSpec(vs.m(x=1, q=1), 2), vs, order) * poch_inf(
        PochSpec(vs.m(y=1, q=2), 4), vs, order
    )
    return prod.invert()


def _quad_new_rhs(order: int) -> Series:
    vs = QXY_VARS
    spec = _quad_new_spec()
    base = eval_sum(spec, (1, 3, 2, 2), vs, order)
    extra = eval_sum(spec, (5, 3, 6, 2), vs, order).mul_monomial(vs.m(x=2, y=1, q=4))
    return base + extra


# -- automaton vs enumeration -----------------------------------------------------


def _run_lpi_eq_A(order: int) -> tuple[bool, str | None]:
    spec = gap4_ideal()
    for n in range(order + 1):
        generated = set(language(spec, n))
        filtered = oracle_members(SET_A, n)
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


_SET_BETA = {
    SET_A: (1, 1, 2, 4),
    SET_A_NO_1BAR: (1, 3, 2, 4),
    SET_A_NO_1_1BAR: (3, 3, 2, 4),
    SET_A_NO_1_1BAR_2_3BAR: (3, 5, 6, 4),
}


def _quin_sides(setid: str) -> tuple[Side, Side]:
    # The multi-sum side reads _SET_BETA per call, so a changed beta shows.
    return (
        lambda n: weighted_gf(setid, n),
        lambda n: eval_sum(quinvariate_spec(), _SET_BETA[setid], QUIN_VARS, n),
    )


def _run_g_system(order: int) -> tuple[bool, str | None]:
    # The right side sums over the incidence matrix, not f_vector: g_vector
    # already uses f_vector, and a fault in it would then cancel out.
    spec = gap4_ideal()
    a, weights = matrices(spec)
    g = g_vector(spec, order)
    shifted = [s.substitute("x", QUIN_VARS.m(x=1, q=4)) for s in g]
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
    g = g_vector(spec, order)
    f = f_vector(spec, g)
    shifted = [s.substitute("x", QUIN_VARS.m(x=1, q=4)) for s in f]
    for k in range(spec.size):
        rhs = Series.sum(QUIN_VARS, order, (
            shifted[j].mul_monomial(weights[j]) for j in range(spec.size) if a[k][j]
        ))
        mm = f[k].first_mismatch(rhs, order)
        if mm is not None:
            return False, f"F_{k + 1}: {mm.render(QUIN_VARS)}"
        at_zero = f[k].set_var_zero("x")
        if at_zero != Series.one(QUIN_VARS, order):
            return False, f"F_{k + 1}(0) != 1"
    if f[1] != f[2]:
        return False, "F_2 != F_3"
    if f[4] != f[5]:
        return False, "F_5 != F_6"
    if f[6] != g[0]:
        return False, "F_7 != G_1"
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


def _collapse(table: dict, weight: int) -> dict[tuple[int, int], int]:
    """The (n, m, ell) counts of table_A summed into (n, m + weight*ell)."""
    out: dict[tuple[int, int], int] = {}
    for (n, m, ell), c in table.items():
        key = (n, m + weight * ell)
        out[key] = out.get(key, 0) + c
    return out


def _run_thmA(k: int, order: int) -> tuple[bool, str | None]:
    """thmA<k>: table_A<k> against table_B<k>, then against table_A collapsed by weight k."""
    t_a = getattr(partitions, f"table_A{k}")(order)
    witness = _diff_tables(t_a, getattr(partitions, f"table_B{k}")(order), (f"A{k}", f"B{k}"))
    if witness:
        return False, witness
    collapsed = "sum_{m+l}A" if k == 1 else f"sum_{{m+{k}l}}A"
    witness = _diff_tables(t_a, _collapse(partitions.table_A(order), k), (f"A{k}", collapsed))
    return witness is None, witness


def _avee_split_rhs(order: int, shift: int = 8) -> Series:
    base = weighted_gf(SET_A_NO_1BAR, order)
    return base + base.substitute("x", QUIN_VARS.m(x=1, q=shift)).mul_monomial(
        QUIN_VARS.m(x=2, z=1, q=6)
    )


# -- registry ----------------------------------------------------------------------


# The max_order of euler1, euler2, qbinom, tri-single, quad-new, quad,
# borel-bridge-rhs, h-matrix, f-system, lpi-eq-A, thm51-a..d, thm15, thmA1,
# thmA2 and avee-split is the largest multiple of 5 at which the entry runs
# serially within 2 s (median over every run at that order, each in a fresh
# process, on a 2-core machine, Python 3.11); the other budgets are older.
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
                    60,
                    f"odd-modulus {2 * k + 1} product vs the {k - 1}-fold multi-sum (i={i})",
                    sides=_ag_sides(k, i),
                )
            )
    out += [
        Entry("euler1", 30, 190, "geometric-style single sum vs 1/(xq;q)_inf",
              sides=(lambda n: euler1(QX_VARS, n, _XQ, 1), lambda n: poch_inf(PochSpec(_XQ, 1), QX_VARS, n).invert())),
        Entry("euler2", 30, 495, "triangular-exponent single sum vs (-xq;q)_inf",
              sides=(lambda n: euler2(QX_VARS, n, _XQ, 1), lambda n: poch_inf(PochSpec(_XQ, 1, sign=-1), QX_VARS, n))),
        Entry("qbinom", 30, 105, "binomial single sum vs (xyq;q)_inf / (xq;q)_inf",
              sides=(lambda n: qbinom(QXY_VARS, n, QXY_VARS.m(y=1), QXY_VARS.m(x=1, q=1), 1), _qbinom_product)),
        Entry("tri-single", 25, 65, "trivariate single sum vs (-x;q)(xy;q)/(x^2yq^2;q^2) products", sides=(_tri_single_lhs, _tri_single_rhs)),
        Entry("quad-new", 20, 70, "signed quadruple sum vs 1/((xq;q^2)(yq^2;q^4)) products", sides=(_quad_new_lhs, _quad_new_rhs)),
        Entry("quad", 20, 335, "signed quadruple sum vs (-xq;q^2)(-yq^2;q^4) products", sides=(_quad_lhs, _quad_rhs)),
        Entry("borel-bridge-lhs", 20, 30, "coefficient-boost operator maps the inverse product to the signed product",
              sides=(lambda n: borel_apply(_quad_new_lhs(n)), _quad_lhs)),
        Entry("borel-bridge-rhs", 20, 145, "coefficient-boost operator maps one quadruple sum to the other",
              sides=(lambda n: borel_apply(_quad_new_rhs(n)), _quad_rhs)),
        Entry("h-matrix", 24, 215, "seven-row recurrence closure of the quinvariate multi-sum family, symbolic and numeric", runner=lambda n: verify_matrix_relation(order=n)),
        Entry("lpi-eq-A", 30, 40, "block-automaton language equals the gap-4 overpartition family, with round-trip", runner=_run_lpi_eq_A),
        Entry("g-system", 20, 30, "automaton series satisfy G = W.A.G(x -> xq^4)", runner=_run_g_system),
        Entry("f-system", 20, 195, "aggregated series satisfy F = A.W.F(x -> xq^4) with F(0) = 1", runner=_run_f_system),
        Entry("thm51-a", 20, 95, "quinvariate enumeration of the full gap-4 family vs multi-sum", sides=_quin_sides(SET_A)),
        Entry("thm51-b", 20, 100, "quinvariate enumeration without overlined 1 vs multi-sum", sides=_quin_sides(SET_A_NO_1BAR)),
        Entry("thm51-c", 20, 105, "quinvariate enumeration without 1, overlined 1 vs multi-sum", sides=_quin_sides(SET_A_NO_1_1BAR)),
        Entry("thm51-d", 20, 110, "quinvariate enumeration without 1, overlined 1, 2, overlined 3 vs multi-sum", sides=_quin_sides(SET_A_NO_1_1BAR_2_3BAR)),
        Entry("thm15", 25, 80, "trivariate refined counts: variant family vs distinct 4-regular partitions", runner=_run_thm15),
        Entry("thmA1", 25, 80, "double-weight counts vs distinct 4-regular partitions, plus collapse consistency", runner=lambda n: _run_thmA(1, n)),
        Entry("thmA2", 25, 75, "triple/double-weight counts vs odd parts of multiplicity <= 3, plus collapse consistency", runner=lambda n: _run_thmA(2, n)),
        Entry("avee-split", 20, 90, "variant family splits as base family plus x^2 z q^6 shifted copy",
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
    if n > budget:
        raise OrderBudgetExceeded(
            f"{identity}: order {n} exceeds the resource budget {budget}"
        )
    return n


def _env_jobs() -> int:
    """QIDENT_JOBS as a worker count; unset or 0 means the default."""
    raw = os.environ.get("QIDENT_JOBS", "0")
    try:
        jobs = int(raw)
    except ValueError:
        raise UsageError(f"QIDENT_JOBS must be an integer, got {raw!r}") from None
    if jobs < 0:
        raise UsageError(f"QIDENT_JOBS must be >= 0, got {jobs}")
    return jobs


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
    reports always come back in the order of ``ids``.  Set QIDENT_JOBS to
    override the default worker count (the number of available cores; 0
    keeps it).  ``jobs`` below 1 or QIDENT_JOBS below 0 raise UsageError.  If
    the worker pool cannot start or breaks, every entry reruns serially, the
    cause goes to stderr and each report carries ``serial_fallback``.
    """
    for i in ids:
        _checked_order(i, order)
    if jobs is None:
        jobs = _env_jobs() or (os.cpu_count() or 1)
    elif jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    if len(ids) <= 1 or jobs <= 1:
        return [verify(i, order) for i in ids]
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            futures = [pool.submit(verify, i, order) for i in ids]
            return [f.result() for f in futures]
    except (OSError, BrokenProcessPool) as exc:
        print(
            f"qident: worker pool failed ({type(exc).__name__}: {exc}); running serially",
            file=sys.stderr,
        )
        return [replace(verify(i, order), serial_fallback=True) for i in ids]


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
# side; each of them builds in under 0.2 s at this order on the gap-4 ideal.
_PARAMETRIC_SERIES_BUDGET = 100


def _check_series_budget(name: str, order: int, budget: int) -> None:
    if order > budget:
        raise OrderBudgetExceeded(f"{name}: order {order} exceeds the resource budget {budget}")


def check_enum_budget(setid: str | None, n: int) -> None:
    """Refuse an enumeration at size ``n`` over budget, before any work.

    Enumerating family X at size n walks the members that ``gf-X`` walks at
    order n, so it shares that name's budget; a custom ideal's language
    (``setid`` None) shares the budget of f<k>/g<k>.
    """
    name = "f<k>/g<k>" if setid is None else f"gf-{setid}"
    budget = _PARAMETRIC_SERIES_BUDGET if setid is None else REGISTRY[_SERIES_SIDES[name][0]].max_order
    if n > budget:
        raise OrderBudgetExceeded(f"enum: n {n} exceeds the resource budget {budget} of {name}")


def series_names(spec: LpiSpec | None = None) -> list[str]:
    k = (spec or gap4_ideal()).size
    return (
        sorted(_SERIES_SIDES)
        + [f"f{j}" for j in range(1, k + 1)]
        + [f"g{j}" for j in range(1, k + 1)]
        + ["h:<beta entries, comma-separated>"]
    )


def named_series(name: str, order: int, spec: LpiSpec | None = None) -> Series:
    """Resolve a series name for coefficient export.

    Supports the fixed names of ``_SERIES_SIDES``, f1..fK / g1..gK over the block automaton
    (the gap-4 ideal unless a custom one is supplied), and h:<beta list> for
    the quinvariate multi-sum at an explicit beta vector.  An order above the
    name's budget raises ``OrderBudgetExceeded`` before anything is built.
    """
    if order < 0:
        raise UsageError(f"order must be >= 0, got {order}")
    side = _SERIES_SIDES.get(name)
    if side is not None:
        identity, build = side
        _check_series_budget(name, order, REGISTRY[identity].max_order)
        return build(order)
    ideal = spec or gap4_ideal()
    if len(name) >= 2 and name[0] in "fg" and name[1:].isdigit():
        k = int(name[1:])
        if not 1 <= k <= ideal.size:
            raise UnknownIdentity(name)
        _check_series_budget(name, order, _PARAMETRIC_SERIES_BUDGET)
        g = g_vector(ideal, order)
        return g[k - 1] if name[0] == "g" else f_vector(ideal, g)[k - 1]
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
