"""q-Pochhammer products and the three classical single-sum identities.

Products are built over any VarSet (q is always its variable 0) at a given
truncation order.  An argument is a signed monomial: the product (A; q^m)_n
multiplies factors (1 - sign*A*q^{mk}) for k = 0..n-1; sign = -1 gives the
(-A; q^m) family.  Each factor is applied by shift-and-subtract,
r * (1 - sign*A) = r - sign * r*A, which for a two-term factor costs less
than a general product (that would pack and unpack all of r).
Infinite products require the argument to carry positive q-degree so that
only finitely many factors differ from 1 below the truncation order.

An inverted product 1 / prod_i (s_i A_i; q^{step_i})_inf is built by
``poch_inverse``, Euler's logarithmic-derivative recurrence over q-degree
slices (Andrews, The Theory of Partitions, 1.3; Apostol, Introduction to
Analytic Number Theory, Thm 14.8): it forms neither the product nor a
general inverse.  Numerators stay on shift-and-subtract.

The single sums sum_n t_n are built by a forward recurrence: t_n is t_{n-1}
times a monomial and at most one binomial, divided by 1 - q^{step*n} with
``_divide_binomial``, which undoes shift-and-subtract in one pass over the
terms of the quotient by increasing q-degree.  A sum side therefore never
forms a product, general or Pochhammer, nor an inverse; the product sides
of the identities use ``poch_inf``, ``poch_inverse`` and general products
and never divide, so the two sides stay on different routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable

from .series import (
    LIMIT,
    ExponentOverflow,
    Mono,
    Series,
    SeriesError,
    VarSet,
    _accumulate,
    _check_keys,
    mono_mul,
)


class DivergentProduct(SeriesError):
    """Infinite product or sum whose argument carries no q-degree."""


class InexactDivision(SeriesError):
    """An integer recurrence's exact division by n left a remainder."""


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
    n_factors = max(0, (order - spec.argument[0]) // spec.step + 1)
    return poch_finite(
        PochSpec(spec.argument, spec.step, n_factors, spec.sign), vars, order
    )


def poch(spec: PochSpec, vars: VarSet, order: int) -> Series:
    """Dispatch on finite vs infinite length."""
    if spec.length is None:
        return poch_inf(spec, vars, order)
    return poch_finite(spec, vars, order)


def _exact_quotient(c: int, n: int) -> int:
    """c / n, which must be exact; a remainder raises rather than floors."""
    quotient, remainder = divmod(c, n)
    if remainder:
        raise InexactDivision(f"q-degree {n}: coefficient {c} is not divisible by {n}")
    return quotient


def _log_derivative(
    specs: tuple[PochSpec, ...], vars: VarSet, order: int
) -> list[list[tuple[int, int]]]:
    """The q-degree slices S_1..S_order of q d/dq log of 1 / prod_i (s_i A_i; q^{step_i})_inf.

    Each factor 1 - s*B, with B = A q^{step*k}, adds deg(B) * (s*B)^m to
    S_{m*deg(B)} for every m >= 1 with m*deg(B) <= order; deg is the
    q-degree.  Slice j is a list of packed (key, coeff) pairs and slice 0 is
    empty.  ``poch_inverse`` has checked every argument, so no key carries.
    """
    top = vars.shifts[0]
    slices: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for spec in specs:
        key, d, q_step = vars.pack(spec.argument), spec.argument[0], spec.step << top
        while d <= order:
            for m in range(1, order // d + 1):
                piece, k = slices[m * d], m * key
                piece[k] = piece.get(k, 0) + d * spec.sign ** m
            key += q_step
            d += spec.step
    return [[(k, c) for k, c in piece.items() if c] for piece in slices]


def poch_inverse(specs: Iterable[PochSpec], vars: VarSet, order: int) -> Series:
    """1 / prod_i (s_i A_i; q^{step_i})_inf by Euler's logarithmic-derivative recurrence.

    With P_n the q-degree-n slice of the inverse P and S_j that of
    q d/dq log P (``_log_derivative``), q d/dq P = P * q d/dq log P gives

        P_0 = 1,    n * P_n = sum_{j=1..n} S_j * P_{n-j}    (n = 1..order),

    and the division by n is exact and checked.  Over several variables the
    slices are lists of packed pairs multiplied through ``_accumulate``; over
    q alone each S_j is one int sigma(j), the recurrence runs on a list of
    ints.  No product, inverse or division by a binomial is formed, so this
    is a route of its own beside ``Series.invert``.

    Every spec must be infinite and its argument carry q-degree >= 1
    (``DivergentProduct`` otherwise, before any work).  The largest power
    taken of an argument, order // deg_q(A), is checked against ``LIMIT``
    up front, so an S_j key that would carry raises ``ExponentOverflow``.
    """
    specs = tuple(specs)
    for spec in specs:
        arg = spec.argument
        if spec.length is not None:
            raise SeriesError("poch_inverse needs infinite products (length None)")
        if len(arg) != vars.arity:
            raise SeriesError(f"argument {arg} has wrong arity for {vars.names}")
        if arg[0] < 1:
            raise DivergentProduct(f"infinite product argument {arg} must carry q-degree >= 1")
        m_max = order // arg[0]
        for name, e in zip(vars.names[1:], arg[1:]):
            if m_max * e >= LIMIT:
                raise ExponentOverflow(
                    f"{name}^{e} to the power {m_max} is not below {LIMIT}, past its packed field"
                )
    log = _log_derivative(specs, vars, order)
    if vars.arity == 1:
        sigma = [sum(c for _, c in piece) for piece in log]
        p = [1]
        for n in range(1, order + 1):
            p.append(_exact_quotient(sum(map(mul, sigma[1 : n + 1], reversed(p))), n))
        return Series._raw(vars, order, {e: c for e, c in enumerate(p) if c})
    return _inverse_by_slices(log, vars, order)


def _inverse_by_slices(log: list[list[tuple[int, int]]], vars: VarSet, order: int) -> Series:
    """P from the slices S_j of its logarithmic derivative, slice by slice (see ``poch_inverse``).

    Each P_n is a list of packed pairs; its keys are checked before it is
    divided by n and read by a later slice.
    """
    degrees = [j for j in range(1, order + 1) if log[j]]
    p: list[list[tuple[int, int]]] = [[(0, 1)]]
    for n in range(1, order + 1):
        acc: dict[int, int] = {}
        for j in degrees:
            if j > n:
                break
            _accumulate(acc, log[j], p[n - j])
        _check_keys(vars, acc)
        p.append([(k, _exact_quotient(c, n)) for k, c in acc.items()])
    return Series._raw(vars, order, {k: c for piece in p for k, c in piece})


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
