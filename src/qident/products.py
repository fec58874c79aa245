"""q-Pochhammer products and the three classical single-sum identities.

Products are built over an arbitrary VarSet at a given truncation order.  An
argument is a signed monomial: the product (A; q^m)_n multiplies factors
(1 - sign*A*q^{mk}) for k = 0..n-1; sign = -1 gives the (-A; q^m) family.
Infinite products require the argument to carry positive q-degree so that
only finitely many factors differ from 1 below the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    qi = vars.trunc_var
    q_step = vars.m(**{vars.names[qi]: spec.step})
    result = Series.one(vars, order)
    factor_arg = spec.argument
    for _ in range(spec.length):
        if factor_arg[qi] <= order:
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
    qi = vars.trunc_var
    if spec.argument[qi] < 1:
        raise DivergentProduct(
            f"infinite product argument {spec.argument} must carry q-degree >= 1"
        )
    # Factors with m*k beyond the order are congruent to 1 and contribute nothing.
    n_factors = (order - spec.argument[qi]) // spec.step + 1
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
        q = vars.names[vars.trunc_var]
        terms = {vars.m(**{q: e}): c for e, c in enumerate(self.get(base, n)) if c}
        return Series._raw(vars, self.order, terms)


def inv_qpoch(vars: VarSet, order: int, step: int, n: int) -> Series:
    """1 / (q^step; q^step)_n by counting partitions into at most n part sizes.

    The knapsack of ``InvPochMemo``; fully independent of invert().
    """
    return InvPochMemo(order).series(vars, step, n)


def euler1(vars: VarSet, order: int, z: Mono, step: int, coeff: int = 1) -> Series:
    """sum_n (coeff*z)^n / (q^step; q^step)_n, equal to 1/(coeff*z; q^step)_inf."""
    if len(z) != vars.arity:
        raise SeriesError(f"argument {z} has wrong arity")
    qi = vars.trunc_var
    if coeff == 0:
        return Series.one(vars, order)
    if z[qi] < 1:
        raise DivergentProduct(f"summand argument {z} must carry q-degree >= 1")
    total = Series.zero(vars, order)
    memo = InvPochMemo(order)
    zn = vars.unit
    cn = 1
    n = 0
    while zn[qi] <= order:
        total = total + memo.series(vars, step, n).mul_monomial(zn, cn)
        zn = mono_mul(zn, z)
        cn *= coeff
        n += 1
    return total


def euler2(vars: VarSet, order: int, z: Mono, step: int, coeff: int = 1) -> Series:
    """sum_n (coeff*z)^n q^{step*binom(n,2)} / (q^step;q^step)_n = (-coeff*z; q^step)_inf."""
    if len(z) != vars.arity:
        raise SeriesError(f"argument {z} has wrong arity")
    qi = vars.trunc_var
    if coeff == 0:
        return Series.one(vars, order)
    if z[qi] < 1:
        raise DivergentProduct(f"summand argument {z} must carry q-degree >= 1")
    q_name = vars.names[qi]
    total = Series.zero(vars, order)
    memo = InvPochMemo(order)
    n = 0
    while True:
        qshift = step * (n * (n - 1) // 2) + n * z[qi]
        if qshift > order:
            break
        mono = mono_mul(
            tuple(e * n for e in z), vars.m(**{q_name: step * (n * (n - 1) // 2)})
        )
        total = total + memo.series(vars, step, n).mul_monomial(mono, coeff**n)
        n += 1
    return total


def qbinom(
    vars: VarSet,
    order: int,
    a: Mono,
    z: Mono,
    step: int,
    a_coeff: int = 1,
    z_coeff: int = 1,
) -> Series:
    """sum_n (a; q^step)_n (coeff_z*z)^n / (q^step; q^step)_n.

    Equals (a*z; q^step)_inf / (z; q^step)_inf; the upper argument a may carry
    no q-degree (its Pochhammer factors are finite).
    """
    if len(a) != vars.arity or len(z) != vars.arity:
        raise SeriesError("argument arity mismatch")
    qi = vars.trunc_var
    if z_coeff == 0:
        return Series.one(vars, order)
    if z[qi] < 1:
        raise DivergentProduct(f"summand argument {z} must carry q-degree >= 1")
    q_step_mono = vars.m(**{vars.names[qi]: step})
    total = Series.zero(vars, order)
    memo = InvPochMemo(order)
    a_poch = Series.one(vars, order)  # (a; q^step)_n, extended one factor per loop
    a_factor_arg = a
    zn = vars.unit
    cn = 1
    n = 0
    while zn[qi] <= order:
        total = total + (a_poch * memo.series(vars, step, n)).mul_monomial(zn, cn)
        if a_factor_arg[qi] <= order:
            a_poch = a_poch * Series(vars, order, [(vars.unit, 1), (a_factor_arg, -a_coeff)])
        a_factor_arg = mono_mul(a_factor_arg, q_step_mono)
        zn = mono_mul(zn, z)
        cn *= z_coeff
        n += 1
    return total
