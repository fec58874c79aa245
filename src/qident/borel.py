"""Bivariate q-Borel-type operator on series in q, x, y.

Acting on a series read as sum c_{m,n}(q) x^m y^n, the operator multiplies
each coefficient by q^{2*binom(m,2) + 4*binom(n,2)}.  It never lowers the
q-degree, so applying it to an exact order-N truncation yields the exact
order-N truncation of the transformed series.  It is linear and commutes with
multiplication by pure q-powers, but it is not multiplicative.
"""

from __future__ import annotations

from .series import Series, SeriesError


def borel_apply(a: Series) -> Series:
    if set(a.vars.names) != {"q", "x", "y"}:
        raise SeriesError(f"operator needs variables q, x, y; got {a.vars.names}")
    xi = a.vars.index("x")
    yi = a.vars.index("y")
    acc = {}
    for mono, c in a.terms.items():
        m, n = mono[xi], mono[yi]
        boost = m * (m - 1) + 2 * n * (n - 1)  # 2*binom(m,2) + 4*binom(n,2)
        e = mono[0] + boost
        if e <= a.order:
            acc[(e, *mono[1:])] = c
    return Series._raw(a.vars, a.order, acc)
