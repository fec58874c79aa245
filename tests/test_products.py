from __future__ import annotations

import copy
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernels
from qident import identities, multisum, partitions, products
from qident.products import (
    SLOT_BOX_BYTES,
    DivergentProduct,
    InexactDivision,
    PochSpec,
    SlotBoxTooLarge,
    _divide_q_power,
    _exact_quotient,
    _packed_inverse,
    euler1,
    euler2,
    inv_qpoch,
    poch,
    poch_finite,
    poch_inf,
    poch_inverse,
    qbinom,
)
from qident.series import (
    LIMIT,
    Q_VARS,
    QUIN_VARS,
    QX_VARS,
    QXY_VARS,
    ExponentOverflow,
    Series,
    SeriesError,
    varset,
)


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


_ONE = PochSpec(Q_VARS.m(q=1), 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: poch_finite(_ONE.replace(length=3), Q_VARS, -1),
        lambda: poch_inf(_ONE, Q_VARS, -1),
        lambda: poch_inverse([_ONE], Q_VARS, -1),
        lambda: inv_qpoch(Q_VARS, -1, 1, 3),
        lambda: partitions.table_B(-1),
        lambda: partitions.table_B1(-1),
        lambda: partitions.table_B2(-1),
    ],
    ids=["poch_finite", "poch_inf", "poch_inverse", "inv_qpoch", "table_B", "table_B1", "table_B2"],
)
def test_a_negative_order_raises(build):
    with pytest.raises(SeriesError, match="order must be >= 0"):
        build()


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


    def test_a_negative_exponent_raises(self):
        for arg in ((-1, 1), (1, -1)):
            with pytest.raises(SeriesError, match="negative exponent"):
                poch_finite(PochSpec(arg, 1, 3), QX_VARS, 5)

    def test_a_power_past_the_limit_raises_before_any_work(self, monkeypatch):
        # (y^(LIMIT/4) q; q)_10: the q-degrees 1 + 2 + 3 + 4 fit order 10, so
        # y^LIMIT could be reached; at order 9 only three factors fit together.
        def refuse(*args):
            raise AssertionError("poch_finite began to build")

        vs, spec = QXY_VARS, PochSpec(QXY_VARS.m(y=LIMIT // 4, q=1), 1, 10)
        assert max(mono[2] for mono in poch_finite(spec, vs, 9).terms) == 3 * LIMIT // 4
        for name in ("_slot_bytes", "_unpack"):
            monkeypatch.setattr(products, name, refuse)
        with pytest.raises(ExponentOverflow, match=r"\by\b"):
            poch_finite(spec, vs, 10)


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

    def test_argument_past_the_order_is_one(self):
        # (q^9; q)_inf to order 2 has no factor below the order
        assert poch_inf(PochSpec(Q_VARS.m(q=9), 1), Q_VARS, 2) == Series.one(Q_VARS, 2)

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


@st.composite
def euler_cases(draw):
    """A variable set, z of q-degree 1-3 and other exponents 0-2, a step 1-4 and an order <= 25."""
    vars = draw(st.sampled_from((Q_VARS, QX_VARS, QXY_VARS)))
    z = (draw(st.integers(1, 3)), *(draw(st.integers(0, 2)) for _ in vars.names[1:]))
    return vars, z, draw(st.integers(1, 4)), draw(st.integers(0, 25))


@given(euler_cases())
@settings(max_examples=150, deadline=None)
def test_euler_sums_equal_their_products(case):
    # Each sum side against its product side, built on the other route.
    vars, z, step, order = case
    assert euler1(vars, order, z, step) == poch_inverse([PochSpec(z, step)], vars, order)
    assert euler2(vars, order, z, step) == poch_inf(PochSpec(z, step, sign=-1), vars, order)


@pytest.mark.parametrize("euler", (euler1, euler2))
def test_euler_sums_refuse_bad_arguments(euler):
    # A q-free z has no first q-power to truncate at, euler2's spec included.
    with pytest.raises(DivergentProduct):
        euler(QX_VARS, 5, QX_VARS.m(x=1), 1)
    with pytest.raises(SeriesError, match="wrong arity"):
        euler(QX_VARS, 5, Q_VARS.m(q=1), 1)
    with pytest.raises(SeriesError, match="order must be >= 0"):
        euler(QX_VARS, -1, QX_VARS.m(x=1, q=1), 1)


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


def test_single_sums_stay_off_the_product_route(refuse_product_route):
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
    refuse_product_route()
    got = (
        euler1(QXY_VARS, 30, z, 1),
        euler2(QXY_VARS, 30, z, 1),
        qbinom(QXY_VARS, 30, a, z, 1),
    )
    assert got == expected


def test_tri_single_sum_side_stays_off_the_product_route(refuse_product_route):
    expected = identities._tri_single_lhs(30)
    refuse_product_route()
    assert identities._tri_single_rhs(30) == expected


# -- inverted products by the logarithmic-derivative recurrence --------------------


@st.composite
def inverse_specs(draw, vars):
    """0..3 infinite specs over ``vars``: q-degree 1-3, other exponents 0-2, step 1-4, sign +-1."""
    return [
        PochSpec(
            (draw(st.integers(1, 3)), *(draw(st.integers(0, 2)) for _ in vars.names[1:])),
            draw(st.integers(1, 4)),
            sign=draw(st.sampled_from((1, -1))),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]


def _inverted_product(specs, vars, order: int) -> Series:
    """The oracle: the specs' shift-and-subtract products, multiplied and then inverted."""
    prod = Series.one(vars, order)
    for spec in specs:
        prod = prod * poch_inf(spec, vars, order)
    return prod.invert()


@st.composite
def inverse_cases(draw):
    vars = draw(st.sampled_from((Q_VARS, QX_VARS, QXY_VARS)))
    return vars, draw(inverse_specs(vars)), draw(st.integers(0, 25))


@given(inverse_cases())
@settings(max_examples=200, deadline=None)
def test_poch_inverse_equals_inverted_product(case):
    vars, specs, order = case
    assert poch_inverse(specs, vars, order) == _inverted_product(specs, vars, order)


@given(inverse_specs(Q_VARS), st.integers(0, 25))
@settings(max_examples=100, deadline=None)
def test_q_list_path_equals_slice_path(specs, order):
    packed = _packed_inverse(tuple(specs), Q_VARS, order)
    assert poch_inverse(specs, Q_VARS, order) == packed


@pytest.mark.parametrize("sign", (1, -1))
def test_packed_slots_hold_the_largest_coefficients(sign):
    # 1/(+-xq;q)_inf^5 to q^40: coefficients reach 2^35, in slots of 48 bits
    # sized from the majorant 1/(q;q)_inf^5 (40*Pbar_40 < 2^43).
    specs = [PochSpec(QX_VARS.m(x=1, q=1), 1, sign=sign)] * 5
    assert poch_inverse(specs, QX_VARS, 40) == _inverted_product(specs, QX_VARS, 40)


def test_packed_slots_on_one_monomial_add():
    # x q and x^2 q^3 are two coordinates, so x^2 q^n has a slot in each.
    vs = QX_VARS
    specs = [PochSpec(vs.m(x=1, q=1), 1), PochSpec(vs.m(x=2, q=3), 1)]
    got = poch_inverse(specs, vs, 30)
    assert got == _inverted_product(specs, vs, 30)
    assert got.coeff(vs.m(x=2, q=3)) == 2  # (xq)(xq^2) and x^2q^3


def test_poch_inverse_counts_partitions():
    got = poch_inverse([PochSpec(Q_VARS.m(q=1), 1)], Q_VARS, 30).q_coefficients()
    assert got == [partitions_into(n) for n in range(31)]
    assert got[:8] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_poch_inverse_of_no_factor_is_one():
    assert poch_inverse([], QXY_VARS, 7) == Series.one(QXY_VARS, 7)
    assert poch_inverse([PochSpec(QX_VARS.m(x=1, q=1), 1)], QX_VARS, 0) == Series.one(QX_VARS, 0)


def test_poch_inverse_refuses_bad_specs_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the recurrence started")

    monkeypatch.setattr(products, "_log_derivative", refuse)
    good = PochSpec(QX_VARS.m(x=1, q=1), 1)
    # A q-free argument would give every power m the same q-degree 0: the
    # loop over m would never end.
    with pytest.raises(DivergentProduct):
        poch_inverse([good, PochSpec(QX_VARS.m(x=1), 1)], QX_VARS, 10)
    with pytest.raises(SeriesError, match="infinite"):
        poch_inverse([PochSpec(QX_VARS.m(x=1, q=1), 1, 3)], QX_VARS, 10)
    with pytest.raises(SeriesError, match="arity"):
        poch_inverse([PochSpec(Q_VARS.m(q=1), 1)], QX_VARS, 10)


@pytest.mark.parametrize("name", ("x", "y"))
def test_poch_inverse_refuses_a_power_past_the_field(monkeypatch, name):
    vs = QXY_VARS
    arg = vs.m(q=1, **{name: LIMIT // 2})
    # order 1 takes the first power only, which fits its field
    expected = Series(vs, 1, [(vs.unit, 1), (arg, 1)])
    assert poch_inverse([PochSpec(arg, 1)], vs, 1) == expected

    def refuse(*args, **kwargs):
        raise AssertionError("the recurrence started")

    monkeypatch.setattr(products, "_log_derivative", refuse)
    # order 2 would take its square, x^LIMIT: refused up front, naming the variable
    with pytest.raises(ExponentOverflow, match=f"^{name}\\^{LIMIT // 2} to the power 2"):
        poch_inverse([PochSpec(arg, 1)], vs, 2)


def test_poch_inverse_checks_the_keys_of_every_slice():
    # Every power of x^e q^2 and of x^f q that fits in q^3 passes the up-front
    # check (e < LIMIT, 3f < LIMIT), but their product x^(e+f) q^3 does not.
    vs, e, f = QX_VARS, LIMIT - LIMIT // 4, LIMIT // 4
    specs = [PochSpec(vs.m(x=e, q=2), 5), PochSpec(vs.m(x=f, q=1), 5)]
    assert poch_inverse(specs, vs, 2) == _inverted_product(specs, vs, 2)
    with pytest.raises(ExponentOverflow, match="^an exponent of x reaches"):
        poch_inverse(specs, vs, 3)


def test_exact_quotient_refuses_a_remainder():
    assert _exact_quotient(-12, 4) == -3
    assert _exact_quotient(0, 7) == 0
    with pytest.raises(InexactDivision, match="q-degree 4: coefficient 25 is not divisible by 4"):
        _exact_quotient(25, 4)


# The product side of each pair entry whose other side is a sum, and both
# sides of borel-bridge-lhs, by (entry, side index).
_PRODUCT_SIDES = (
    ("rr1", 0), ("rr2", 0),
    *((f"andrews-gordon-k{k}-i{i}", 0) for k in (2, 3, 4) for i in range(1, k + 1)),
    ("euler1", 1), ("euler2", 1), ("qbinom", 1), ("tri-single", 0),
    ("quad-new", 0), ("quad", 0), ("borel-bridge-lhs", 0), ("borel-bridge-lhs", 1),
)


def test_product_sides_stay_off_the_sum_route(refuse_sum_route):
    sides = {(i, k): identities.REGISTRY[i].sides[k] for i, k in _PRODUCT_SIDES}
    orders = {key: identities.REGISTRY[key[0]].default_order for key in sides}
    expected = {key: side(orders[key]) for key, side in sides.items()}
    refuse_sum_route()
    for key, side in sides.items():
        assert side(orders[key]) == expected[key], key


def test_poch_inverse_forms_no_product_or_inverse(refuse_sum_route, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("poch_inverse formed a product or an inverse")

    cases = (
        ([PochSpec(Q_VARS.m(q=r), 9) for r in (1, 2, 3, 6, 7, 8)], Q_VARS, 60),
        ([PochSpec(QX_VARS.m(x=1, q=1), 1)], QX_VARS, 30),
        ([PochSpec(QXY_VARS.m(x=1, q=1), 2), PochSpec(QXY_VARS.m(y=1, q=2), 4, sign=-1)], QXY_VARS, 30),
    )
    expected = [_inverted_product(*case) for case in cases]
    refuse_sum_route()
    for name in ("Series.invert", "Series.__mul__"):
        kernels.install(monkeypatch, name, refuse)
    assert [poch_inverse(*case) for case in cases] == expected


def test_every_registry_slot_box_is_far_below_the_limit(monkeypatch, reach):
    # With the limit at 0 every packed inverse refuses before its first slice
    # and names what it needs; each side that reaches it runs at max_order.
    monkeypatch.setattr(products, "SLOT_BOX_BYTES", 0)
    needs = {}
    for identity in kernels.reached(reach, "_packed_inverse"):
        entry = identities.REGISTRY[identity]
        for side, kernels_reached in zip(entry.sides, reach[identity]):
            if "_packed_inverse" in kernels_reached:
                with pytest.raises(SlotBoxTooLarge) as exc:
                    side(entry.max_order)
                needs[identity] = int(re.search(r"needs (\d+) bytes", str(exc.value))[1])
    print(f"packed slot box at max_order, in bytes: {needs}")
    assert needs and max(needs.values()) * 100 < SLOT_BOX_BYTES


def test_an_oversized_slot_box_raises_before_any_slice():
    # x^k q for k = 1..5 are five coordinates of radix 51: 51^5 slots.
    specs = [PochSpec(QX_VARS.m(x=k, q=1), 1) for k in range(1, 6)]
    with pytest.raises(SlotBoxTooLarge, match=r"^a slice of 345025251 slots of \d+ bytes needs"):
        poch_inverse(specs, QX_VARS, 50)


# -- the operations of binomial_sum ------------------------------------------------


@st.composite
def qxy_series(draw):
    order = draw(st.integers(0, 12))
    terms = [
        (
            (draw(st.integers(0, 12)), draw(st.integers(0, 4)), draw(st.integers(0, 3))),
            draw(st.integers(-9, 9)),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    return Series(QXY_VARS, order, terms)


# q-degree >= 1; x and y exponents from 0, so that a divisor over q alone
# (the doubling steps) and one with a non-q part (a chain of keys) are drawn
divisor_args = st.tuples(st.integers(1, 6), st.integers(0, 3), st.integers(0, 3))


def _apply(r: Series, step) -> Series:
    """The series of ``step(ops, value of r)``, built by ``binomial_sum`` at r's order."""
    return multisum.binomial_sum(lambda ops: [step(ops, ops.load(r))], r.vars, r.order)


@given(qxy_series(), divisor_args, st.sampled_from((1, -1)))
# 1 + x^2q^2 over 1 - xq: the chain from 1 runs through x, not in the
# operand, into x^2, which is, and must not start afresh there
@example(Series(QXY_VARS, 6, [((0, 0, 0), 1), ((2, 2, 0), 1)]), (1, 1, 0), 1)
@settings(max_examples=150, deadline=None)
def test_divide_binomial_equals_product_by_inverse(r, arg, sign):
    binomial = Series(QXY_VARS, r.order, [(QXY_VARS.unit, 1), (arg, -sign)])
    assert _apply(r, lambda ops, t: ops.divide(t, arg, sign)) == r * binomial.invert()
    assert _apply(r, lambda ops, t: ops.times(t, arg, sign)) == r * binomial
    assert _apply(r, lambda ops, t: ops.shift(t, arg)) == r.mul_monomial(arg)


@given(qxy_series(), divisor_args, st.sampled_from((1, -1)))
@settings(max_examples=100, deadline=None)
def test_times_binomial_undoes_divide_binomial(r, arg, sign):
    assert _apply(r, lambda ops, t: ops.times(ops.divide(t, arg, sign), arg, sign)) == r


def test_divide_binomial_leaves_its_operand_alone():
    vs = QXY_VARS
    r = Series(vs, 10, [(vs.unit, 1), (vs.m(q=1, y=2), -3), (vs.m(q=4, x=1), 5)])
    before = dict(r.terms)
    unchanged = []

    def step(ops, t):
        kept = copy.copy(t)
        out = ops.shift(ops.times(ops.divide(t, vs.m(q=2, x=1), 1), vs.m(q=1), -1), vs.m(y=1))
        out = ops.divide(out, vs.m(q=3), -1)
        unchanged.append(t == kept)
        return out

    quotient = _apply(r, step)
    assert r.terms == before
    assert unchanged == [True, True]  # the majorant's list and the packed groups
    assert quotient.terms != before


def test_divide_binomial_refuses_bad_arguments():
    class Untouchable(dict):
        def items(self):
            raise AssertionError("the operand was read")

        __iter__ = values = keys = __getitem__ = items

    class UntouchableList(list):
        def __getitem__(self, index):
            raise AssertionError("the operand was read")

        __iter__ = __getitem__

    vs = QXY_VARS
    for ops, t in (
        (multisum._QPacked(vs, 10, 1), Untouchable({0: 1})),
        (multisum._Majorant(vs, 10), UntouchableList([1] * 11)),
    ):
        with pytest.raises(DivergentProduct):
            ops.divide(t, vs.m(x=1, y=1), 1)
        with pytest.raises(SeriesError):
            ops.divide(t, (1, 1), 1)
        with pytest.raises(SeriesError):
            ops.divide(t, (1, -1, 0), -1)


def test_divide_binomial_past_the_order_is_the_identity():
    vs = QXY_VARS
    r = Series(vs, 6, [(vs.unit, 2), (vs.m(q=3, x=1), -1), (vs.m(q=6, y=4), 7)])
    for arg in (vs.m(q=7, x=1), vs.m(q=7)):
        got = _apply(r, lambda ops, t: ops.divide(t, arg, -1))
        assert got.order == r.order
        assert got.terms == r.terms


def test_binomial_sum_names_the_variable_as_the_key_is_made():
    # x^(LIMIT - 1) times 1 - xq makes x^LIMIT; y^(LIMIT - 3) divided by
    # 1 - yq reaches y^LIMIT at the fourth key of its chain.
    vs = QXY_VARS
    near_x = Series(vs, 5, [(vs.m(x=LIMIT - 1), 1)])
    near_y = Series(vs, 5, [(vs.m(y=LIMIT - 3), 1)])
    for r, step, name in (
        (near_x, lambda ops, t: ops.times(t, vs.m(x=1, q=1), 1), "x"),
        (near_x, lambda ops, t: ops.shift(t, vs.m(x=1, q=1)), "x"),
        (near_y, lambda ops, t: ops.divide(t, vs.m(y=1, q=1), 1), "y"),
    ):
        with pytest.raises(ExponentOverflow, match=rf"\b{name}\b"):
            _apply(r, step)
    assert _apply(near_y, lambda ops, t: ops.divide(t, vs.m(y=1, q=2), 1)).terms == {
        vs.m(y=LIMIT - 3 + j, q=2 * j): 1 for j in range(3)
    }


# -- the prefix pass of the knapsack -----------------------------------------------


def _check_input_unchanged(divide) -> None:
    """Run ``divide`` on one list with truncating, equal and padding lengths."""
    coeffs = [1, 2, 0, -3, 5, 7]
    kept = list(coeffs)
    for step, length in ((1, 6), (2, 4), (3, 9), (7, 10)):
        divide(coeffs, step, length)
        assert coeffs == kept, (step, length)


def _divide_in_place(coeffs, step, length):
    """The prefix pass run on the caller's list instead of on a copy."""
    del coeffs[length:]
    coeffs += [0] * (length - len(coeffs))
    for j in range(step, length):
        coeffs[j] += coeffs[j - step]
    return coeffs


def test_prefix_pass_leaves_its_input_unchanged():
    _check_input_unchanged(_divide_q_power)
    with pytest.raises(AssertionError):
        _check_input_unchanged(_divide_in_place)


def test_a_pass_that_changes_its_input_corrupts_eval_sum(monkeypatch):
    # eval_sum hands one child's list to the next child and to every node
    # below it, so a pass that changed its input would corrupt the walk.
    spec, beta = multisum.quinvariate_spec(), (1, 1, 2, 4)
    expected = multisum.eval_sum(spec, beta, QUIN_VARS, 20)
    monkeypatch.setattr(multisum, "_divide_q_power", _divide_in_place)
    assert multisum.eval_sum(spec, beta, QUIN_VARS, 20) != expected


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
    st.integers(1, 6),
    st.integers(0, 14),
)
def test_prefix_pass_is_division_by_a_binomial(coeffs, step, length):
    # The same quotient as binomial_sum's division, which divides a multivariate series.
    vs = Q_VARS
    got = _divide_q_power(coeffs, step, length)
    assert len(got) == length
    if length:
        r = Series(vs, length - 1, [(vs.m(q=e), c) for e, c in enumerate(coeffs)])
        assert got == _apply(r, lambda ops, t: ops.divide(t, vs.m(q=step), 1)).q_coefficients()


def test_inv_qpoch_matches_series_invert():
    # (1, 30) and (4, 9) reach past order // step, where further factors are 1
    for step, n in ((1, 3), (2, 4), (4, 2), (1, 30), (4, 9)):
        direct = inv_qpoch(Q_VARS, 24, step, n)
        via_invert = poch_finite(PochSpec(Q_VARS.m(q=step), step, n), Q_VARS, 24).invert()
        assert direct == via_invert
    # n = 0 and n past order // step, over a VarSet with a second variable
    vs = varset("q", "x")
    for step in (1, 3):
        for n in (4, 2, 9, 0, 9, 3, 20):
            via_invert = poch_finite(PochSpec(vs.m(q=step), step, n), vs, 17).invert()
            assert inv_qpoch(vs, 17, step, n) == via_invert
