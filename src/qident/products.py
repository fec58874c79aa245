"""q-Pochhammer products and the three classical single-sum identities.

Products are built over any VarSet (q is always its variable 0) at a given
truncation order.  An argument is a signed monomial: the product (A; q^m)_n
multiplies factors (1 - sign*A*q^{mk}) for k = 0..n-1; sign = -1 gives the
(-A; q^m) family.  Each factor is applied by shift-and-subtract,
r * (1 - sign*A) = r - sign * r*A, which for a two-term factor costs less
than a general product (that would pack and unpack all of r).
Infinite products require the argument to carry positive q-degree so that
only finitely many factors differ from 1 below the truncation order.

The single sums sum_n t_n are built by a forward recurrence: t_n is t_{n-1}
times a monomial and at most one binomial, divided by 1 - q^{step*n} with
``_divide_binomial``, which undoes shift-and-subtract in one pass over the
terms of the quotient by increasing q-degree.  A sum side therefore never
forms a general product or calls invert(); the product sides of the
identities do, so the two sides stay on different routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .series import Mono, Series, SeriesError, VarSet, _check_keys, mono_mul


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


def _times_binomial(r: Series, arg: Mono, sign: int) -> Series:
    """r * (1 - sign*arg) as r - sign * r*arg: one shifted copy and one sum, no product."""
    shifted = r.mul_monomial(arg)
    return Series.sum(r.vars, r.order, (r, -shifted if sign == 1 else shifted))


def _divide_binomial(r: Series, arg: Mono, sign: int) -> Series:
    """r / (1 - sign*arg), the inverse of ``_times_binomial``; arg needs q-degree >= 1.

    The quotient s satisfies s = r + sign * s*arg, and arg raises the q-degree,
    so one pass over q-degrees in increasing order finishes each degree before
    it is read: every term c*m of s, once final, adds sign*c at m*arg, one
    key addition.  Each degree's keys are checked before they are read.  The
    cost is one step per term of s; ``r`` is not modified.
    """
    vars = r.vars
    step = vars.pack(arg)
    if arg[0] < 1:
        raise DivergentProduct(f"divisor argument {arg} must carry q-degree >= 1")
    order = r.order
    if arg[0] > order:
        return r
    top = vars.shifts[0]
    by_degree: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for m, c in r._terms.items():
        by_degree[m >> top][m] = c
    for d, piece in enumerate(by_degree):
        _check_keys(vars, piece)
        if d + arg[0] > order:
            continue
        for m, c in piece.items():
            if c:
                target = m + step
                dest = by_degree[target >> top]
                dest[target] = dest.get(target, 0) + sign * c
    return Series._raw(
        vars, order, {m: c for piece in by_degree for m, c in piece.items() if c}
    )


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
            result = _times_binomial(result, factor_arg, spec.sign)
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


def _divide_q_power(coeffs: list[int], step: int, length: int) -> list[int]:
    """The univariate series ``coeffs`` divided by 1 - q^step, to ``length`` coefficients.

    A copy of ``coeffs``, truncated or zero-padded to ``length`` entries, takes
    one prefix pass c[j] += c[j - step] in increasing j; each c[j - step] is
    final when it is read.  ``coeffs`` is not modified, and step must be >= 1.
    The one knapsack for 1/(q^b;q^b)_n: ``InvPochMemo`` extends its lists by it
    and ``multisum.eval_sum`` divides its child lists by it.
    """
    out = coeffs[:length]
    out += [0] * (length - len(out))
    for j in range(step, length):
        out[j] += out[j - step]
    return out


class InvPochMemo:
    """Coefficient lists of 1/(q^base; q^base)_n to q^order, by knapsack extension.

    Entry e counts the partitions of e/base into parts <= n; the list for n is
    the one for n - 1 divided by 1 - q^{base*n} (``_divide_q_power``), and
    nothing here calls invert().
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
            lists.append(_divide_q_power(lists[-1], base * len(lists), self.order + 1))
        return lists[n]

    def series(self, vars: VarSet, base: int, n: int) -> Series:
        """1/(q^base; q^base)_n over ``vars``, truncated at the memo's order."""
        top = vars.shifts[0]
        terms = {e << top: c for e, c in enumerate(self.get(base, n)) if c}
        return Series._raw(vars, self.order, terms)


def inv_qpoch(vars: VarSet, order: int, step: int, n: int) -> Series:
    """1 / (q^step; q^step)_n by counting partitions into at most n part sizes.

    The knapsack of ``InvPochMemo``, one ``_divide_q_power`` per factor;
    fully independent of invert().
    """
    return InvPochMemo(order).series(vars, step, n)


def _single_sum(
    vars: VarSet, order: int, z: Mono, step: int, times_ratio: Callable[[Series, int], Series]
) -> Series:
    """sum_n t_n by the forward recurrence t_0 = 1, t_n = t_{n-1} * ratio_n * z / (1 - q^{step*n}).

    ``times_ratio(t, n)`` returns t * ratio_n.  Each summand is built from the
    one before it by a monomial shift, the ratio and one ``_divide_binomial``,
    so (q^step; q^step)_n is never formed; the sum stops at the first summand
    that truncates to 0 (z^n has passed the order, or the ratio vanished).
    Nothing here forms a general product or calls invert().
    """
    if len(z) != vars.arity:
        raise SeriesError(f"argument {z} has wrong arity")
    if z[0] < 1:
        raise DivergentProduct(f"summand argument {z} must carry q-degree >= 1")
    terms = []
    t = Series.one(vars, order)
    n = 0
    while not t.is_zero():
        terms.append(t)
        n += 1
        t = _divide_binomial(times_ratio(t.mul_monomial(z), n), vars.m(q=step * n), 1)
    return Series.sum(vars, order, terms)


def euler1(vars: VarSet, order: int, z: Mono, step: int) -> Series:
    """sum_n z^n / (q^step; q^step)_n, equal to 1/(z; q^step)_inf."""
    return _single_sum(vars, order, z, step, lambda t, n: t)


def euler2(vars: VarSet, order: int, z: Mono, step: int) -> Series:
    """sum_n z^n q^{step*binom(n,2)} / (q^step;q^step)_n = (-z; q^step)_inf."""
    return _single_sum(vars, order, z, step, lambda t, n: t.mul_monomial(vars.m(q=step * (n - 1))))


def qbinom(vars: VarSet, order: int, a: Mono, z: Mono, step: int) -> Series:
    """sum_n (a; q^step)_n z^n / (q^step; q^step)_n.

    Equals (a*z; q^step)_inf / (z; q^step)_inf; the upper argument a may carry
    no q-degree (its Pochhammer factors are finite).  Summand n takes the
    factor 1 - a q^{step(n-1)} of (a; q^step)_n by shift-and-subtract.
    """
    if len(a) != vars.arity:
        raise SeriesError(f"argument {a} has wrong arity")
    return _single_sum(
        vars, order, z, step,
        lambda t, n: _times_binomial(t, mono_mul(a, vars.m(q=step * (n - 1))), 1),
    )
