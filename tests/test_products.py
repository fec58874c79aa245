from __future__ import annotations

import pytest

from qident import products
from qident.products import (
    DivergentProduct,
    InvPochMemo,
    PochSpec,
    euler1,
    euler2,
    inv_qpoch,
    poch,
    poch_finite,
    poch_inf,
    qbinom,
)
from qident.series import Q_VARS, QX_VARS, QXY_VARS, Series, SeriesError, varset


# -- oracles ---------------------------------------------------------------------


def partitions_into(n: int, allowed=None, distinct=False) -> int:
    """Brute-force partition counter; allowed is a predicate on part values."""

    def rec(remaining: int, min_part: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for p in range(min_part, remaining + 1):
            if allowed is not None and not allowed(p):
                continue
            total += rec(remaining - p, p + 1 if distinct else p)
        return total

    return rec(n, 1)


def expand_three_binomials(order: int) -> Series:
    """Oracle for (y; q^2)_3 over (q, x=y): hand-coded three-factor loop."""
    vs = varset("q", "y")
    acc = {(0, 0): 1}
    for k in (0, 2, 4):
        new: dict[tuple[int, int], int] = {}
        for (eq, ey), c in acc.items():
            for dq, dy, dc in ((0, 0, 1), (k, 1, -1)):
                key = (eq + dq, ey + dy)
                new[key] = new.get(key, 0) + c * dc
        acc = new
    return Series(vs, order, [((eq, ey), c) for (eq, ey), c in acc.items() if c])


class TestPochFinite:
    def test_empty_product(self):
        spec = PochSpec(QX_VARS.m(x=1, q=1), 2, 0)
        assert poch_finite(spec, QX_VARS, 10) == Series.one(QX_VARS, 10)

    def test_qq2(self):
        spec = PochSpec(Q_VARS.m(q=1), 1, 2)
        expected = Series(
            Q_VARS, 10, [(Q_VARS.m(), 1), (Q_VARS.m(q=1), -1), (Q_VARS.m(q=2), -1), (Q_VARS.m(q=3), 1)]
        )
        assert poch_finite(spec, Q_VARS, 10) == expected

    def test_qfree_argument_three_factors(self):
        vs = varset("q", "y")
        spec = PochSpec(vs.m(y=1), 2, 3)
        assert poch_finite(spec, vs, 12) == expand_three_binomials(12)

    def test_recurrence_one_more_factor(self):
        vs = QX_VARS
        arg = vs.m(x=1, q=1)
        for n in range(4):
            left = poch_finite(PochSpec(arg, 2, n + 1), vs, 18)
            step = Series(vs, 18, [(vs.m(), 1), (vs.m(x=1, q=1 + 2 * n), -1)])
            right = poch_finite(PochSpec(arg, 2, n), vs, 18) * step
            assert left == right


    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize(
        "arg, step, length",
        (
            (QXY_VARS.m(x=1, q=1), 1, 6),  # q-degree on the argument
            (QXY_VARS.m(y=1), 2, 5),  # no q-degree: the first factor is 1 - y
            (QXY_VARS.m(x=1), 1, 1),  # the (-x;q)_1 of tri-single
            (QXY_VARS.m(x=2, y=1, q=2), 3, 0),  # the empty product
            (QXY_VARS.m(x=1, q=5), 4, 4),  # later factors pass the order
        ),
    )
    def test_equals_product_of_its_factors(self, arg, step, length, sign):
        vs, order = QXY_VARS, 12
        reference = Series.one(vs, order)
        for k in range(length):
            factor_arg = (arg[0] + step * k,) + arg[1:]
            reference = reference * Series(vs, order, [(vs.unit, 1), (factor_arg, -sign)])
        assert poch_finite(PochSpec(arg, step, length, sign), vs, order) == reference


class TestPochInf:
    def test_distinct_part_counts(self):
        spec = PochSpec(Q_VARS.m(q=1), 1, sign=-1)
        s = poch_inf(spec, Q_VARS, 5)
        oracle = [partitions_into(n, distinct=True) for n in range(6)]
        assert oracle == [1, 1, 1, 2, 2, 3]
        assert s.q_coefficients() == oracle

    def test_pentagonal_start(self):
        spec = PochSpec(Q_VARS.m(q=1), 1)
        s = poch_inf(spec, Q_VARS, 6)
        # inclusion-exclusion oracle: number of even-sized distinct partitions
        # minus odd-sized ones
        def signed_distinct(n):
            def rec(remaining, min_part, parity):
                if remaining == 0:
                    return parity
                return sum(
                    rec(remaining - p, p + 1, -parity)
                    for p in range(min_part, remaining + 1)
                )

            return rec(n, 1, 1)

        oracle = [signed_distinct(n) for n in range(7)]
        assert oracle == [1, -1, -1, 0, 0, 1, 0]
        assert s.q_coefficients() == oracle

    def test_two_contributing_factors(self):
        spec = PochSpec(QX_VARS.m(x=1, q=1), 2, sign=-1)
        expected = Series(
            QX_VARS,
            4,
            [
                (QX_VARS.m(), 1),
                (QX_VARS.m(x=1, q=1), 1),
                (QX_VARS.m(x=1, q=3), 1),
                (QX_VARS.m(x=2, q=4), 1),
            ],
        )
        assert poch_inf(spec, QX_VARS, 4) == expected

    def test_divergent_argument(self):
        with pytest.raises(DivergentProduct):
            poch_inf(PochSpec(QX_VARS.m(x=1), 1), QX_VARS, 5)

    def test_dispatch(self):
        spec = PochSpec(Q_VARS.m(q=1), 1, None)
        assert poch(spec, Q_VARS, 6) == poch_inf(spec, Q_VARS, 6)


class TestEuler1:
    def test_partition_generating_function(self):
        s = euler1(Q_VARS, 5, Q_VARS.m(q=1), 1)
        oracle = [partitions_into(n) for n in range(6)]
        assert oracle == [1, 1, 2, 3, 5, 7]
        assert s.q_coefficients() == oracle

    def test_matches_inverted_product(self):
        z = QX_VARS.m(x=2, q=2)
        lhs = euler1(QX_VARS, 20, z, 4)
        rhs = poch_inf(PochSpec(z, 4), QX_VARS, 20).invert()
        assert lhs == rhs


class TestEuler2:
    def test_matches_negated_product(self):
        z = QX_VARS.m(x=1, q=1)
        lhs = euler2(QX_VARS, 10, z, 2)
        rhs = poch_inf(PochSpec(z, 2, sign=-1), QX_VARS, 10)
        assert lhs == rhs

    def test_distinct_partition_series(self):
        s = euler2(Q_VARS, 5, Q_VARS.m(q=1), 1)
        assert s.q_coefficients() == [1, 1, 1, 2, 2, 3]

    def test_order_zero(self):
        s = euler2(Q_VARS, 0, Q_VARS.m(q=1), 1)
        assert s == Series.one(Q_VARS, 0)


class TestQBinom:
    def test_reproduces_x2q2_y_step(self):
        # upper argument x^2 q^2, summand y q^2, base q^4
        a = QXY_VARS.m(x=2, q=2)
        z = QXY_VARS.m(y=1, q=2)
        lhs = qbinom(QXY_VARS, 20, a, z, 4)
        az = QXY_VARS.m(x=2, y=1, q=4)
        rhs = poch_inf(PochSpec(az, 4), QXY_VARS, 20) * poch_inf(
            PochSpec(z, 4), QXY_VARS, 20
        ).invert()
        assert lhs == rhs

    def test_upper_one_reduces_to_one(self):
        # (1; q)_n vanishes for n >= 1, so only the n = 0 term is left
        z = QX_VARS.m(x=1, q=1)
        assert qbinom(QX_VARS, 15, QX_VARS.m(), z, 1) == Series.one(QX_VARS, 15)

    def test_upper_argument_arity(self):
        with pytest.raises(SeriesError):
            qbinom(QX_VARS, 5, Q_VARS.m(q=1), QX_VARS.m(x=1, q=1), 1)

    def test_telescoping_q_over_q(self):
        # a = q, z = q, base q: (q^2;q)_inf / (q;q)_inf = 1/(1-q)
        s = qbinom(Q_VARS, 6, Q_VARS.m(q=1), Q_VARS.m(q=1), 1)
        assert s == Series(Q_VARS, 6, [(Q_VARS.m(q=k), 1) for k in range(7)])

    def test_divergent_z(self):
        with pytest.raises(DivergentProduct):
            qbinom(QX_VARS, 5, QX_VARS.m(), QX_VARS.m(x=1), 1)


class TestProductFormProperties:
    def test_euler1_times_product_is_one(self):
        for z, step in ((QX_VARS.m(x=1, q=1), 1), (QX_VARS.m(x=1, q=2), 2), (QX_VARS.m(x=2, q=3), 2)):
            prod = poch_inf(PochSpec(z, step), QX_VARS, 30)
            assert euler1(QX_VARS, 30, z, step) * prod == Series.one(QX_VARS, 30)

    def test_euler2_equals_negated_product(self):
        for z, step in ((QX_VARS.m(x=1, q=1), 1), (QX_VARS.m(x=1, q=1), 2), (QX_VARS.m(x=1, q=2), 4)):
            assert euler2(QX_VARS, 30, z, step) == poch_inf(
                PochSpec(z, step, sign=-1), QX_VARS, 30
            )

    def test_qbinom_product_relation(self):
        a = QXY_VARS.m(y=1)
        z = QXY_VARS.m(x=1, q=1)
        az = QXY_VARS.m(x=1, y=1, q=1)
        lhs = qbinom(QXY_VARS, 30, a, z, 1) * poch_inf(PochSpec(z, 1), QXY_VARS, 30)
        assert lhs == poch_inf(PochSpec(az, 1), QXY_VARS, 30)


def test_qbinom_equals_product_side_of_binomial_factors():
    # the product side (xyq;q)_inf / (xq;q)_inf multiplied out factor by factor
    # with __mul__, apart from poch_finite's shift-and-subtract
    vs, order = QXY_VARS, 30
    num = den = Series.one(vs, order)
    for k in range(1, order + 1):
        num = num * Series(vs, order, [(vs.unit, 1), (vs.m(x=1, y=1, q=k), -1)])
        den = den * Series(vs, order, [(vs.unit, 1), (vs.m(x=1, q=k), -1)])
    assert qbinom(vs, order, vs.m(y=1), vs.m(x=1, q=1), 1) == num * den.invert()


def test_single_sums_stay_off_the_product_route(monkeypatch):
    # Each single sum is checked against a product that is inverted or not; if
    # the sum side built products or inverted, the check would compare a route
    # with itself.
    z, a = QXY_VARS.m(x=1, q=1), QXY_VARS.m(y=1)
    expected = (
        poch_inf(PochSpec(z, 1), QXY_VARS, 30).invert(),
        poch_inf(PochSpec(z, 1, sign=-1), QXY_VARS, 30),
        poch_inf(PochSpec(QXY_VARS.m(x=1, y=1, q=1), 1), QXY_VARS, 30)
        * poch_inf(PochSpec(z, 1), QXY_VARS, 30).invert(),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a single sum reached the product route")

    monkeypatch.setattr(Series, "invert", refuse)
    monkeypatch.setattr(products, "poch_inf", refuse)
    monkeypatch.setattr(products, "poch_finite", refuse)
    got = (
        euler1(QXY_VARS, 30, z, 1),
        euler2(QXY_VARS, 30, z, 1),
        qbinom(QXY_VARS, 30, a, z, 1),
    )
    assert got == expected


def test_inv_qpoch_matches_series_invert():
    # (1, 30) and (4, 9) reach past order // step, where further factors are 1
    for step, n in ((1, 3), (2, 4), (4, 2), (1, 30), (4, 9)):
        direct = inv_qpoch(Q_VARS, 24, step, n)
        via_invert = poch_finite(PochSpec(Q_VARS.m(q=step), step, n), Q_VARS, 24).invert()
        assert direct == via_invert
    # one memo serving successive n, out of order and past order // step, over a
    # VarSet with a second variable
    vs = varset("q", "x")
    shared = InvPochMemo(17)
    for step in (1, 3):
        for n in (4, 2, 9, 0, 9, 3, 20):
            via_invert = poch_finite(PochSpec(vs.m(q=step), step, n), vs, 17).invert()
            assert shared.series(vs, step, n) == InvPochMemo(17).series(vs, step, n) == via_invert
