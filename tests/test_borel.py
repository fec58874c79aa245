from __future__ import annotations

import pytest

from qident.borel import borel_apply
from qident.series import QUIN_VARS, QXY_VARS, Series, SeriesError

V = QXY_VARS


def test_boost_by_x_degree():
    s = Series(V, 10, [(V.m(), 1), (V.m(x=1, q=1), 1), (V.m(x=2, q=2), 1)])
    expected = Series(V, 10, [(V.m(), 1), (V.m(x=1, q=1), 1), (V.m(x=2, q=4), 1)])
    assert borel_apply(s) == expected


def test_constant_fixed():
    assert borel_apply(Series.const(V, 8, 5)) == Series.const(V, 8, 5)


def test_y_boost_is_four_per_binomial():
    s = Series.monomial(V, 12, V.m(y=2, q=1), 3)
    assert borel_apply(s) == Series.monomial(V, 12, V.m(y=2, q=5), 3)


def test_over_order_terms_drop():
    s = Series.monomial(V, 4, V.m(x=2, q=3))
    assert borel_apply(s).is_zero()


def test_linearity():
    a = Series(V, 12, [(V.m(x=2, q=1), 2), (V.m(y=1, q=3), -1)])
    b = Series(V, 12, [(V.m(x=1, y=1, q=2), 7), (V.m(), 4)])
    assert borel_apply(a + b) == borel_apply(a) + borel_apply(b)


def test_commutes_with_pure_q_powers():
    a = Series(V, 12, [(V.m(x=2, q=1), 2), (V.m(y=2, q=2), 5)])
    shifted = a.mul_monomial(V.m(q=3))
    assert borel_apply(shifted) == borel_apply(a).mul_monomial(V.m(q=3))


def test_not_multiplicative():
    x = Series.monomial(V, 10, V.m(x=1))
    assert borel_apply(x * x) != borel_apply(x) * borel_apply(x)


def test_wrong_varset_rejected():
    with pytest.raises(SeriesError):
        borel_apply(Series.one(QUIN_VARS, 5))
