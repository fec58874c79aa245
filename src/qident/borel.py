"""Bivariate q-Borel-type operator on series in q, x, y.

Acting on a series read as sum c_{m,n}(q) x^m y^n, the operator multiplies
each coefficient by q^{2*binom(m,2) + 4*binom(n,2)}.  It never lowers the
q-degree, so applying it to an exact order-N truncation yields the exact
order-N truncation of the transformed series.  It is linear and commutes with
multiplication by pure q-powers, but it is not multiplicative.
"""

from __future__ import annotations

from .series import FIELD, Series, SeriesError, _check_keys


def borel_apply(a: Series) -> Series:
    if set(a.vars.names) != {"q", "x", "y"}:
        raise SeriesError(f"operator needs variables q, x, y; got {a.vars.names}")
    vars = a.vars
    top = vars.shifts[0]
    xs, ys = vars.shifts[vars.index("x")], vars.shifts[vars.index("y")]
    limit = (a.order + 1) << top
    acc = {}
    for key, c in a._terms.items():
        m, n = key >> xs & FIELD, key >> ys & FIELD
        # Only q moves: 2*binom(m,2) + 4*binom(n,2) is added to its exponent.
        new = key + ((m * (m - 1) + 2 * n * (n - 1)) << top)
        if new < limit:
            acc[new] = c
    _check_keys(vars, acc)
    return Series._raw(vars, a.order, acc)
