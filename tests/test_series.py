from __future__ import annotations

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.series import (
    ArityMismatch,
    NotInvertible,
    Q_VARS,
    QX_VARS,
    QXY_VARS,
    Series,
    SeriesError,
    TruncationExceeded,
    VarSet,
    VarSetMismatch,
    varset,
)

VS = QX_VARS


def poly_product(factor_lists: list[list[tuple[int, int, int]]], order: int) -> Series:
    """Oracle: multiply out (q-exp, x-exp, coeff) term lists by a direct triple loop."""
    acc = {(0, 0): 1}
    for factors in factor_lists:
        new: dict[tuple[int, int], int] = {}
        for (eq, ex), c in acc.items():
            for fq, fx, fc in factors:
                if eq + fq <= order:
                    key = (eq + fq, ex + fx)
                    new[key] = new.get(key, 0) + c * fc
        acc = {k: v for k, v in new.items() if v}
    return Series(VS, order, [((eq, ex), c) for (eq, ex), c in acc.items()])


def count_parts_pm1_mod5(n: int) -> int:
    """Oracle: partitions of n into parts congruent to 1 or 4 mod 5, by recursion."""

    def rec(remaining: int, min_part: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for p in range(min_part, remaining + 1):
            if p % 5 in (1, 4):
                total += rec(remaining - p, p)
        return total

    return rec(n, 1)


class TestMake:
    def test_constant_one(self):
        s = Series(VS, 5, [(VS.m(), 1)])
        assert s.coeff(VS.m()) == 1
        assert len(s.terms) == 1

    def test_truncation_drops_silently(self):
        s = Series(VS, 2, [(VS.m(q=3, x=1), 7)])
        assert s.is_zero()

    def test_duplicates_merge(self):
        s = Series(VS, 5, [(VS.m(q=1, x=1), 1), (VS.m(q=1, x=1), 2)])
        assert s == Series(VS, 5, [(VS.m(q=1, x=1), 3)])

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            Series(VS, 5, [((1, 2, 3), 1)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(Exception):
            Series(VS, 5, [((-1, 0), 1)])


class TestAddMul:
    def test_add_cancels(self):
        one = Series.one(VS, 8)
        assert (one + one.scale(-1)).is_zero()

    def test_add_bivariate(self):
        a = Series(VS, 8, [(VS.m(), 1), (VS.m(q=1, x=1), 1)])
        b = Series(VS, 8, [(VS.m(), 1), (VS.m(q=1, x=1), -1)])
        assert a + b == Series.const(VS, 8, 2)

    def test_add_self_negation_of_product(self):
        # truncation of (-xq; q^2)_inf at N=6 against its negation
        p = poly_product(
            [[(0, 0, 1), (1, 1, 1)], [(0, 0, 1), (3, 1, 1)], [(0, 0, 1), (5, 1, 1)]], 6
        )
        assert (p + (-p)).is_zero()

    def test_varset_mismatch(self):
        other = varset("q", "y")
        with pytest.raises(VarSetMismatch):
            Series.one(VS, 5) + Series.one(other, 5)

    def test_add_leaves_operands_unchanged(self):
        big = Series(VS, 6, [(VS.m(q=k, x=1), k + 1) for k in range(6)])
        small = Series(VS, 4, [(VS.m(q=1, x=1), -2)])
        big_terms, small_terms = dict(big.terms), dict(small.terms)
        expected = Series(VS, 4, [(VS.m(q=k, x=1), k + 1) for k in (0, 2, 3, 4)])
        assert big + small == small + big == expected
        assert big.terms == big_terms and small.terms == small_terms

    def test_geometric_telescopes(self):
        n = 9
        geom = Series(VS, n, [(VS.m(q=k, x=k), 1) for k in range(n + 1)])
        one_minus_z = Series(VS, n, [(VS.m(), 1), (VS.m(q=1, x=1), -1)])
        assert one_minus_z * geom == Series.one(VS, n)

    def test_two_factor_product(self):
        lhs = Series(VS, 4, [(VS.m(), 1), (VS.m(q=1, x=1), 1)]) * Series(
            VS, 4, [(VS.m(), 1), (VS.m(q=3, x=1), 1)]
        )
        expected = Series(
            VS,
            4,
            [(VS.m(), 1), (VS.m(q=1, x=1), 1), (VS.m(q=3, x=1), 1), (VS.m(q=4, x=2), 1)],
        )
        assert lhs == expected

    def test_qpoch3_times_its_inverse(self):
        # oracle: expand (q;q)_3 = (1-q)(1-q^2)(1-q^3) by the direct loop
        qq3 = poly_product(
            [[(0, 0, 1), (1, 0, -1)], [(0, 0, 1), (2, 0, -1)], [(0, 0, 1), (3, 0, -1)]],
            20,
        )
        assert qq3.coeff(VS.m(q=4)) == 1  # 1 - q - q^2 + q^4 + q^5 - q^6
        assert qq3 * qq3.invert() == Series.one(VS, 20)

    def test_result_order_is_min(self):
        a = Series.one(VS, 10)
        b = Series.one(VS, 4)
        assert (a + b).order == 4
        assert (a * b).order == 4


class TestInvert:
    def test_invert_one(self):
        assert Series.one(VS, 7).invert() == Series.one(VS, 7)

    def test_invert_one_minus_q(self):
        s = Series(VS, 6, [(VS.m(), 1), (VS.m(q=1), -1)])
        assert s.invert() == Series(VS, 6, [(VS.m(q=k), 1) for k in range(7)])

    def test_invert_finite_poch(self):
        # (xq; q^2)_2 = (1 - xq)(1 - xq^3)
        p = poly_product([[(0, 0, 1), (1, 1, -1)], [(0, 0, 1), (3, 1, -1)]], 15)
        assert p.invert() * p == Series.one(VS, 15)

    def test_nonunit_constant_rejected(self):
        with pytest.raises(NotInvertible):
            Series.const(VS, 5, 2).invert()

    def test_qfree_tail_rejected(self):
        s = Series(VS, 5, [(VS.m(), 1), (VS.m(x=1), 1)])
        with pytest.raises(NotInvertible):
            s.invert()

    def test_negative_unit(self):
        s = Series(VS, 8, [(VS.m(), -1), (VS.m(q=1), 1)])
        assert s * s.invert() == Series.one(VS, 8)


class TestSubstitute:
    def test_x_to_xq4(self):
        s = Series(VS, 8, [(VS.m(), 1), (VS.m(q=1, x=1), 1)])
        assert s.substitute("x", VS.m(x=1, q=4)) == Series(
            VS, 8, [(VS.m(), 1), (VS.m(q=5, x=1), 1)]
        )

    def test_identity_substitution(self):
        s = Series(VS, 8, [(VS.m(q=2, x=2), 3), (VS.m(q=1), -1)])
        assert s.substitute("x", VS.m(x=1)) == s

    def test_y_to_x_squared(self):
        vs = varset("q", "x", "y")
        # (-yq^2; q^4)_inf truncated at 10: factors (1+yq^2)(1+yq^6)(1+yq^10)
        factors = [
            Series(vs, 10, [(vs.m(), 1), (vs.m(y=1, q=e), 1)]) for e in (2, 6, 10)
        ]
        prod = factors[0] * factors[1] * factors[2]
        substituted = prod.substitute("y", vs.m(x=2))
        rebuilt = Series(vs, 10, [(vs.m(), 1)])
        for e in (2, 6, 10):
            rebuilt = rebuilt * Series(vs, 10, [(vs.m(), 1), (vs.m(x=2, q=e), 1)])
        assert substituted == rebuilt

    def test_q_substitution_needs_qdegree(self):
        s = Series.one(VS, 5)
        with pytest.raises(Exception):
            s.substitute("q", VS.m(x=1))


class TestCoeff:
    def test_simple(self):
        s = Series(VS, 5, [(VS.m(), 1), (VS.m(q=1, x=1), 3)])
        assert s.coeff(VS.m(q=1, x=1)) == 3
        assert s.coeff(VS.m(q=2)) == 0

    def test_mod5_product_counts(self):
        # 1/((q;q^5)_inf (q^4;q^5)_inf) at 5: partitions into parts = 1,4 mod 5
        vs = varset("q")
        factors = []
        for base in (1, 4):
            e = base
            while e <= 5:
                factors.append(e)
                e += 5
        prod = Series.one(vs, 5)
        for e in factors:
            prod = prod * Series(vs, 5, [(vs.m(), 1), (vs.m(q=e), -1)])
        inv = prod.invert()
        expected = [count_parts_pm1_mod5(n) for n in range(6)]
        assert expected == [1, 1, 1, 1, 2, 2]  # frozen from the oracle
        assert [inv.coeff(vs.m(q=n)) for n in range(6)] == expected

    def test_beyond_order_raises(self):
        s = Series.one(VS, 5)
        with pytest.raises(TruncationExceeded):
            s.coeff(VS.m(q=6))


class TestEqualToOrder:
    def test_reflexive(self):
        s = Series(VS, 9, [(VS.m(q=2, x=1), 4)])
        assert s.first_mismatch(s, 9) is None

    def test_mismatch_at_order_one(self):
        a = Series(VS, 5, [(VS.m(), 1), (VS.m(q=1, x=1), 1)])
        b = Series.one(VS, 5)
        assert a.first_mismatch(b, 0) is None
        mm = a.first_mismatch(b, 1)
        assert mm.monomial == VS.m(q=1, x=1)
        assert (mm.left, mm.right) == (1, 0)

    def test_order_guard(self):
        with pytest.raises(TruncationExceeded):
            Series.one(VS, 3).first_mismatch(Series.one(VS, 9), 5)


# -- randomized property suites -------------------------------------------------

VS3 = varset("q", "x", "y")


@st.composite
def small_series(draw):
    n_terms = draw(st.integers(0, 8))
    order = draw(st.integers(0, 12))
    terms = []
    for _ in range(n_terms):
        mono = (
            draw(st.integers(0, 12)),
            draw(st.integers(0, 4)),
            draw(st.integers(0, 3)),
        )
        terms.append((mono, draw(st.integers(-9, 9))))
    return Series(VS3, order, terms)


@st.composite
def invertible_series(draw):
    base = draw(small_series())
    unit = draw(st.sampled_from((1, -1)))
    terms = {m: c for m, c in base.terms.items() if m[0] >= 1}
    terms[VS3.unit] = unit
    return Series(VS3, base.order, list(terms.items()))


@given(small_series(), small_series(), small_series())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    order = min(a.order, b.order, c.order)
    assert (a + b).truncate(order) == (b + a).truncate(order)
    assert ((a + b) + c).truncate(order) == (a + (b + c)).truncate(order)
    assert (a * b).truncate(order) == (b * a).truncate(order)
    assert ((a * b) * c).truncate(order) == (a * (b * c)).truncate(order)
    assert (a * (b + c)).truncate(order) == (a * b + a * c).truncate(order)


class TestSum:
    def test_mixed_orders_truncate_at_the_least(self):
        a = Series(VS, 8, [(VS.m(), 1), (VS.m(q=7, x=1), 2)])
        b = Series(VS, 5, [(VS.m(q=5), 3)])
        for order in (10, 5):
            total = Series.sum(VS, order, [a, b])
            assert total.order == 5
            assert total == Series(VS, 5, [(VS.m(), 1), (VS.m(q=5), 3)])
        assert Series.sum(VS, 3, [a, b]) == Series.one(VS, 3)

    def test_cancelling_parts_give_zero(self):
        p = Series(VS, 6, [(VS.m(q=1, x=1), 4), (VS.m(q=6), -1)])
        total = Series.sum(VS, 6, [p, -p, p.scale(2), p.scale(-2)])
        assert total.is_zero() and total.order == 6

    def test_empty_is_zero_at_the_given_order(self):
        assert Series.sum(VS, 7, []) == Series.zero(VS, 7)
        assert Series.sum(VS, 7, iter(())) == Series.zero(VS, 7)

    def test_one_part_repeated_and_left_unchanged(self):
        p = Series(VS, 6, [(VS.m(), 1), (VS.m(q=2, x=3), -5)])
        terms = dict(p.terms)
        assert Series.sum(VS, 6, (p for _ in range(3))) == p.scale(3)
        assert p.terms == terms

    def test_varset_mismatch(self):
        other = Series.one(varset("q", "y"), 5)
        with pytest.raises(VarSetMismatch):
            Series.sum(VS, 5, [Series.one(VS, 5), other])
        with pytest.raises(VarSetMismatch):
            Series.sum(VS, 5, [other])


@given(st.lists(small_series(), max_size=6), st.integers(0, 6), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_sum_equals_chained_add(parts, cancelled, order):
    parts = parts + [-p for p in parts[:cancelled]]
    chained = functools.reduce(operator.add, parts, Series.zero(VS3, order))
    assert Series.sum(VS3, order, parts) == chained
    # the constructor merges and truncates on its own, apart from __add__
    least = min([order] + [p.order for p in parts])
    assert chained == Series(VS3, least, [t for p in parts for t in p.terms.items()])


@given(invertible_series())
@settings(max_examples=100, deadline=None)
def test_invert_two_sided(a):
    inv = a.invert()
    assert a * inv == Series.one(VS3, a.order)
    assert inv * a == Series.one(VS3, a.order)


def power_sum_inverse(a: Series) -> Series:
    """Oracle: 1/a = c0 * sum_k (-c0*A)^k with A = a - c0, one full product per power."""
    c0 = a.constant_term()
    unit = a.vars.unit
    tail = Series(a.vars, a.order, [(m, -c0 * c) for m, c in a.terms.items() if m != unit])
    total = Series.one(a.vars, a.order)
    power = Series.one(a.vars, a.order)
    for _ in range(a.order):
        power = power * tail
        total = total + power
    return total.scale(c0)


@st.composite
def gappy_invertible_series(draw):
    """Unit constant term plus terms confined to a few q-degrees, so most slices are empty."""
    order = draw(st.integers(0, 14))
    degrees = sorted(draw(st.sets(st.integers(1, 14), max_size=3)))
    terms = [(VS3.unit, draw(st.sampled_from((1, -1))))]
    for _ in range(draw(st.integers(0, 8)) if degrees else 0):
        mono = (draw(st.sampled_from(degrees)), draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms.append((mono, draw(st.integers(-9, 9))))
    return Series(VS3, order, terms)


@given(gappy_invertible_series())
@settings(max_examples=150, deadline=None)
def test_invert_matches_power_sum_oracle(a):
    inv = a.invert()
    assert inv == power_sum_inverse(a)
    assert 0 not in inv.terms.values()


def test_invert_two_factor_geometric_double_series():
    order = 20
    a = Series(VS3, order, [(VS3.unit, 1), (VS3.m(x=1, q=3), -1)]) * Series(
        VS3, order, [(VS3.unit, 1), (VS3.m(y=1, q=5), 1)]
    )
    expected = Series(
        VS3,
        order,
        [
            (VS3.m(q=3 * i + 5 * j, x=i, y=j), (-1) ** j)
            for i in range(order // 3 + 1)
            for j in range(order // 5 + 1)
        ],
    )
    assert a.invert() == expected


@given(small_series(), small_series(), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_substitute_is_homomorphism(a, b, qshift):
    target = VS3.m(x=1, q=qshift)
    order = min(a.order, b.order)
    a, b = a.truncate(order), b.truncate(order)
    assert (a * b).substitute("x", target) == a.substitute("x", target) * b.substitute("x", target)
    assert (a + b).substitute("x", target) == a.substitute("x", target) + b.substitute("x", target)


@given(small_series(), small_series(), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_truncation_coherence(a, b, m):
    order = min(a.order, b.order)
    m = min(m, order)
    assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)
    assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)


def test_varset_validation():
    with pytest.raises(SeriesError):
        VarSet(("q", "q"))
    with pytest.raises(SeriesError):
        VarSet(("a", "b", "c", "d", "e", "f", "g"))
    with pytest.raises(SeriesError):
        VarSet(("x", "q"))


class TestNegativeExponents:
    """A negative exponent would corrupt a packed key, so every entry point refuses it."""

    S = Series(VS, 5, [((1, 1), 1), ((0, 0), 1)])

    def test_mul_monomial(self):
        with pytest.raises(SeriesError):
            self.S.mul_monomial((0, -3))

    def test_substitute(self):
        with pytest.raises(SeriesError):
            self.S.substitute("x", (0, -2))

    def test_coeff(self):
        with pytest.raises(SeriesError):
            self.S.coeff((-1, 0))


# -- the packed product kernel ----------------------------------------------------


def reference_mul(a: Series, b: Series) -> Series:
    """Oracle: the truncated product by a double loop over tuple-keyed terms."""
    order = min(a.order, b.order)
    acc: dict[tuple[int, ...], int] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            if key[0] <= order:
                acc[key] = acc.get(key, 0) + ca * cb
    return Series(a.vars, order, acc.items())


def reference_invert(a: Series) -> Series:
    """Oracle: 1/a = c0 * sum_k (-c0*A)^k with A = a - c0, by ``reference_mul``."""
    c0 = a.constant_term()
    tail = Series(a.vars, a.order, [(m, -c0 * c) for m, c in a.terms.items() if m != a.vars.unit])
    power = total = Series.one(a.vars, a.order)
    for _ in range(a.order):
        power = reference_mul(power, tail)
        total = total + power
    return total.scale(c0)


class TestPackedKernel:
    def test_field_holds_the_sum_of_the_maxima(self):
        # max_x is 7 (3 bits) in either factor; the product reaches x^8 (4 bits)
        a = Series(VS, 3, [(VS.m(), 1), (VS.m(x=7), 1)])
        b = Series(VS, 3, [(VS.m(), 1), (VS.m(x=1), 1)])
        expected = Series(VS, 3, [(VS.m(), 1), (VS.m(x=1), 1), (VS.m(x=7), 1), (VS.m(x=8), 1)])
        assert a * b == expected
        assert (a * b).coeff(VS.m(x=8)) == 1

    def test_huge_exponents_are_exact(self):
        big = 2**40
        a = Series(QXY_VARS, 4, [(QXY_VARS.unit, 1), ((1, big, 0), 2), ((0, 0, big), -3)])
        b = Series(QXY_VARS, 4, [(QXY_VARS.unit, 1), ((1, big, big), 5), ((2, big - 1, 1), 1)])
        product = a * b
        assert product == reference_mul(a, b)
        assert product.coeff((2, 2 * big, big)) == 10
        assert product.coeff((1, big, 2 * big)) == -15

    def test_invert_field_holds_order_times_the_maximum(self):
        # 1/(1 - x^7 q) = sum_k x^{7k} q^k; x^63 needs 6 bits, 7 alone needs 3
        a = Series(VS, 9, [(VS.m(), 1), (VS.m(x=7, q=1), -1)])
        inv = a.invert()
        assert inv == Series(VS, 9, [(VS.m(x=7 * k, q=k), 1) for k in range(10)])
        assert inv.coeff(VS.m(x=63, q=9)) == 1

    def test_univariate(self):
        # (1 - q)(1 + q + q^2) = 1 - q^3, and 1/(1 - q - q^2) is Fibonacci
        a = Series(Q_VARS, 6, [((0,), 1), ((1,), -1)])
        b = Series(Q_VARS, 6, [((k,), 1) for k in range(3)])
        assert a * b == Series(Q_VARS, 6, [((0,), 1), ((3,), -1)])
        fib = Series(Q_VARS, 8, [((0,), 1), ((1,), -1), ((2,), -1)]).invert()
        assert fib.q_coefficients() == [1, 1, 2, 3, 5, 8, 13, 21, 34]


HUGE = 2**40


@st.composite
def huge_series(draw, invertible=False):
    """Series over (q, x, y) with x and y exponents up to 2^40."""
    order = draw(st.integers(0, 8))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        mono = (
            draw(st.integers(1 if invertible else 0, 9)),
            draw(st.integers(0, HUGE)),
            draw(st.integers(0, HUGE)),
        )
        terms.append((mono, draw(st.integers(-9, 9))))
    if invertible:
        terms.append((VS3.unit, draw(st.sampled_from((1, -1)))))
    return Series(VS3, order, terms)


@given(huge_series(), huge_series())
@settings(max_examples=100, deadline=None)
def test_mul_matches_tuple_reference_with_huge_exponents(a, b):
    assert a * b == reference_mul(a, b)


@given(huge_series(invertible=True))
@settings(max_examples=100, deadline=None)
def test_invert_matches_tuple_reference_with_huge_exponents(a):
    assert a.invert() == reference_invert(a)
