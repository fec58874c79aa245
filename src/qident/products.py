"""q-Pochhammer products and the three classical single-sum identities.

Products are built over any VarSet (q is always its variable 0) at a given
truncation order.  An argument is a signed monomial: the product (A; q^m)_n
multiplies factors (1 - sign*A*q^{mk}) for k = 0..n-1; sign = -1 gives the
(-A; q^m) family.
Infinite products require the argument to carry positive q-degree so that
only finitely many factors differ from 1 below the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from typing import Iterable, Iterator

from .series import Mono, Series, SeriesError, VarSet, mono_mul


class DivergentProduct(SeriesError):
    """Infinite product or sum whose argument carries no q-degree."""


@dataclass(frozen=True)
class PochSpec:
    """Data of a Pochhammer product (sign*A; q^step)_length; length None = infinite."""

    argument: Mono
    step: int
    length: int | None = None
    sign: int = 1

    def __post_init__(self) -> None:
        if self.step < 1:
            raise SeriesError(f"step must be >= 1, got {self.step}")
        if self.sign not in (1, -1):
            raise SeriesError("argument sign must be +1 or -1")
        if self.length is not None and self.length < 0:
            raise SeriesError("finite length must be >= 0")


def poch_finite(spec: PochSpec, vars: VarSet, order: int) -> Series:
    """The finite product prod_{k<n} (1 - sign*A*q^{mk}), truncated."""
    if spec.length is None:
        raise SeriesError("poch_finite needs a finite length")
    if len(spec.argument) != vars.arity:
        raise SeriesError(f"argument {spec.argument} has wrong arity for {vars.names}")
    q_step = vars.m(q=spec.step)
    result = Series.one(vars, order)
    factor_arg = spec.argument
    for _ in range(spec.length):
        if factor_arg[0] <= order:
            factor = Series(vars, order, [(vars.unit, 1), (factor_arg, -spec.sign)])
            result = result * factor
        factor_arg = mono_mul(factor_arg, q_step)
    return result


def poch_inf(spec: PochSpec, vars: VarSet, order: int) -> Series:
    """The infinite product, exact to the truncation order."""
    if spec.length is not None:
        raise SeriesError("poch_inf needs length None (infinite)")
    if len(spec.argument) != vars.arity:
        raise SeriesError(f"argument {spec.argument} has wrong arity for {vars.names}")
    if spec.argument[0] < 1:
        raise DivergentProduct(
            f"infinite product argument {spec.argument} must carry q-degree >= 1"
        )
    # Factors with m*k beyond the order are congruent to 1 and contribute nothing.
    n_factors = (order - spec.argument[0]) // spec.step + 1
    return poch_finite(
        PochSpec(spec.argument, spec.step, n_factors, spec.sign), vars, order
    )


def poch(spec: PochSpec, vars: VarSet, order: int) -> Series:
    """Dispatch on finite vs infinite length."""
    if spec.length is None:
        return poch_inf(spec, vars, order)
    return poch_finite(spec, vars, order)


class InvPochMemo:
    """Coefficient lists of 1/(q^base; q^base)_n to q^order, by knapsack extension.

    Entry e counts the partitions of e/base into parts <= n; the list for n
    extends the one for n - 1, and nothing here calls invert().
    """

    def __init__(self, order: int):
        self.order = order
        self._lists: dict[int, list[list[int]]] = {}

    def get(self, base: int, n: int) -> list[int]:
        # Factors 1 - q^{base*k} with base*k > order are 1 here; n <= 0 is the empty product.
        n = max(0, min(n, self.order // base))
        lists = self._lists.get(base)
        if lists is None:
            lists = self._lists[base] = [[1] + [0] * self.order]
        while len(lists) <= n:
            lst = list(lists[-1])
            part = base * len(lists)
            for j in range(part, self.order + 1):
                lst[j] += lst[j - part]
            lists.append(lst)
        return lists[n]

    def series(self, vars: VarSet, base: int, n: int) -> Series:
        """1/(q^base; q^base)_n over ``vars``, truncated at the memo's order."""
        terms = {vars.m(q=e): c for e, c in enumerate(self.get(base, n)) if c}
        return Series._raw(vars, self.order, terms)


def inv_qpoch(vars: VarSet, order: int, step: int, n: int) -> Series:
    """1 / (q^step; q^step)_n by counting partitions into at most n part sizes.

    The knapsack of ``InvPochMemo``; fully independent of invert().
    """
    return InvPochMemo(order).series(vars, step, n)


def _single_sum(
    vars: VarSet, order: int, z: Mono, step: int, numerators: Iterable[Series]
) -> Series:
    """sum_n num_n z^n / (q^step; q^step)_n, with num_n taken from ``numerators``.

    Each num_n divides the next, so the sum stops at the first n where z^n
    passes the order or num_n is 0.  The denominators come from one
    ``InvPochMemo``; nothing here calls invert().
    """
    if len(z) != vars.arity:
        raise SeriesError(f"argument {z} has wrong arity")
    if z[0] < 1:
        raise DivergentProduct(f"summand argument {z} must carry q-degree >= 1")
    memo = InvPochMemo(order)
    terms = []
    zn = vars.unit
    for n, num in enumerate(numerators):
        if zn[0] > order or num.is_zero():
            break
        terms.append((num * memo.series(vars, step, n)).mul_monomial(zn))
        zn = mono_mul(zn, z)
    return Series.sum(vars, order, terms)


def euler1(vars: VarSet, order: int, z: Mono, step: int) -> Series:
    """sum_n z^n / (q^step; q^step)_n, equal to 1/(z; q^step)_inf."""
    return _single_sum(vars, order, z, step, repeat(Series.one(vars, order)))


def euler2(vars: VarSet, order: int, z: Mono, step: int) -> Series:
    """sum_n z^n q^{step*binom(n,2)} / (q^step;q^step)_n = (-z; q^step)_inf."""
    nums = (Series.monomial(vars, order, vars.m(q=step * (n * (n - 1) // 2))) for n in count())
    return _single_sum(vars, order, z, step, nums)


def qbinom(vars: VarSet, order: int, a: Mono, z: Mono, step: int) -> Series:
    """sum_n (a; q^step)_n z^n / (q^step; q^step)_n.

    Equals (a*z; q^step)_inf / (z; q^step)_inf; the upper argument a may carry
    no q-degree (its Pochhammer factors are finite).
    """
    if len(a) != vars.arity:
        raise SeriesError(f"argument {a} has wrong arity")

    def numerators() -> Iterator[Series]:
        # (a; q^step)_n, each extending the last by the factor 1 - a q^{step n}
        num = Series.one(vars, order)
        for n in count():
            yield num
            arg = mono_mul(a, vars.m(q=step * n))
            num = num * Series(vars, order, [(vars.unit, 1), (arg, -1)])

    return _single_sum(vars, order, z, step, numerators())
