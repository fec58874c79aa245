from __future__ import annotations

import random
import re

import pytest

from qident import identities, multisum
from qident.lpi import gap4_ideal, matrices
from qident.multisum import (
    MultiSumSpec,
    NonTerminatingSum,
    RELATION_BETAS,
    RELATION_PLANS,
    SumNode,
    eval_sum,
    expand_tree,
    quinvariate_spec,
    rec_step,
    shift_beta_for_x,
    verify_matrix_relation,
)
from qident.partitions import SET_A_NO_1BAR, enum_set
from qident.series import QUIN_VARS, Series, SeriesError

V = QUIN_VARS
SPEC = quinvariate_spec()
INCIDENCE, WEIGHTS = matrices(gap4_ideal())


def collapse_to_q(series):
    """Substitute 1 for every non-q variable."""
    out = series
    for name in series.vars.names:
        if name != "q":
            out = out.substitute(name, series.vars.m())
    return out


class TestEvalSum:
    def test_first_coefficients(self):
        s = eval_sum(SPEC, (1, 1, 2, 4), V, 10)
        assert s.coeff(V.m()) == 1
        assert s.coeff(V.m(x=1, q=1)) == 1  # the n = (1,0,0,0) term

    def test_counts_family_without_overlined_one(self):
        s = collapse_to_q(eval_sum(SPEC, (1, 3, 2, 4), V, 20))
        counts = s.q_coefficients()
        oracle = [len(enum_set(SET_A_NO_1BAR, n)) for n in range(21)]
        assert counts == oracle

    def test_single_index_rr_shape(self):
        spec = MultiSumSpec(((2,),), (1,), ((1,),))
        vs = __import__("qident.series", fromlist=["QX_VARS"]).QX_VARS
        s = eval_sum(spec, (1,), vs, 15)
        assert s.coeff(vs.m(x=1, q=1)) == 1
        assert s.coeff(vs.m(x=2, q=4)) == 1  # q^{n^2} with n = 2
        collapsed = s.substitute("x", vs.m())
        # gap-2 partitions of n (parts differing by >= 2), brute force
        def gap2(n):
            def rec(remaining, min_part):
                if remaining == 0:
                    return 1
                return sum(
                    rec(remaining - p, p + 2) for p in range(min_part, remaining + 1)
                )

            return rec(n, 1)

        assert collapsed.q_coefficients() == [gap2(n) for n in range(16)]

    def test_termination_guard(self):
        spec = MultiSumSpec(((0,),), (2,), ((1,),))
        vs = __import__("qident.series", fromlist=["QX_VARS"]).QX_VARS
        with pytest.raises(NonTerminatingSum):
            eval_sum(spec, (0,), vs, 5)

    def test_negative_beta_rejected(self):
        with pytest.raises(SeriesError):
            eval_sum(SPEC, (-1, 3, 2, 4), V, 5)

    def test_monotone_under_truncation(self):
        hi = eval_sum(SPEC, (1, 1, 2, 4), V, 18)
        lo = eval_sum(SPEC, (1, 1, 2, 4), V, 11)
        assert Series(V, 11, hi.items()) == lo


def test_sum_sides_stay_off_the_product_route(refuse_product_route):
    # The multi-sum sides of rr1/rr2, the AG ladder, quad, quad-new and thm51
    # are checked against products or enumerations; they must build on neither.
    sides = {
        "quad-rhs": lambda: identities._quad_rhs(30),
        "quad-new-rhs": lambda: identities._quad_new_rhs(30),
        **{f"ag-k4-i{i}": (lambda i=i: identities._ag_sides(4, i)[1](60)) for i in range(1, 5)},
        "h(1,1,2,4)": lambda: eval_sum(SPEC, (1, 1, 2, 4), V, 30),
    }
    expected = {name: build() for name, build in sides.items()}
    refuse_product_route()
    for name, build in sides.items():
        assert build() == expected[name], name


class TestRecStep:
    def test_first_coordinate_split(self):
        node = SumNode(V.unit, (3, 5, 6, 4))
        c1, c2 = rec_step(SPEC, V, node, 1)
        assert c1 == SumNode(V.unit, (5, 5, 6, 4))
        assert c2 == SumNode(V.m(x=1, q=3), (7, 9, 10, 8))

    def test_fourth_coordinate_split(self):
        node = SumNode(V.unit, (5, 5, 6, 4))
        c1, c2 = rec_step(SPEC, V, node, 4)
        assert c1 == SumNode(V.unit, (5, 5, 6, 8))
        assert c2 == SumNode(V.m(x=1, y2=1, q=4), (9, 9, 10, 12))

    def test_out_of_range(self):
        with pytest.raises(SeriesError):
            rec_step(SPEC, V, SumNode(V.unit, (1, 1, 2, 4)), 5)

    def test_conservation_randomized(self):
        rng = random.Random(20260808)
        order = 20
        for _ in range(100):
            beta = tuple(rng.randint(0, 10) for _ in range(4))
            r = rng.randint(1, 4)
            node = SumNode(V.unit, beta)
            c1, c2 = rec_step(SPEC, V, node, r)
            parent, child1, child2 = (
                eval_sum(SPEC, n.beta, V, order).mul_monomial(n.weight) for n in (node, c1, c2)
            )
            child_sum = child1 + child2
            assert parent == child_sum


class TestExpandTree:
    def test_empty_plan(self):
        leaves = expand_tree(SPEC, V, (1, 3, 2, 4), [])
        assert leaves == [SumNode(V.unit, (1, 3, 2, 4))]

    def test_one_step_plan(self):
        leaves = expand_tree(SPEC, V, (1, 3, 2, 4), [1])
        assert leaves == [
            SumNode(V.unit, (3, 3, 2, 4)),
            SumNode(V.m(x=1, q=1), (5, 7, 6, 8)),
        ]

    def test_full_tree_for_row_one(self):
        leaves = expand_tree(SPEC, V, (1, 1, 2, 4), list(RELATION_PLANS[0]))
        expected = [
            SumNode(V.unit, (5, 5, 6, 8)),
            SumNode(V.m(x=1, y2=1, q=4), (9, 9, 10, 12)),
            SumNode(V.m(x=1, q=3), (7, 9, 10, 8)),
            SumNode(V.m(x=1, z=1, q=3), (7, 9, 10, 8)),
            SumNode(V.m(x=1, y1=1, q=2), (7, 7, 6, 8)),
            SumNode(V.m(x=1, q=1), (5, 7, 6, 8)),
            SumNode(V.m(x=1, z=1, q=1), (5, 7, 6, 8)),
        ]
        assert leaves == expected

    def test_conservation_random_plans(self):
        rng = random.Random(7)
        for _ in range(12):
            beta = tuple(rng.randint(1, 6) for _ in range(4))
            plan = [rng.randint(1, 4) for _ in range(rng.randint(0, 6))]
            leaves = expand_tree(SPEC, V, beta, plan)
            total = Series.zero(V, 16)
            for leaf in leaves:
                total = total + eval_sum(SPEC, leaf.beta, V, 16).mul_monomial(leaf.weight)
            assert total == eval_sum(SPEC, beta, V, 16)


class TestShiftBeta:
    def test_row_one_shift(self):
        assert shift_beta_for_x(SPEC, (1, 1, 2, 4), 4) == (5, 5, 6, 8)

    def test_identity_shift(self):
        assert shift_beta_for_x(SPEC, (3, 5, 6, 4), 0) == (3, 5, 6, 4)

    def test_fifth_entry(self):
        assert shift_beta_for_x(SPEC, (3, 5, 6, 4), 4) == (7, 9, 10, 8)

    def test_commutes_with_eval(self):
        rng = random.Random(99)
        for _ in range(6):
            beta = tuple(rng.randint(1, 5) for _ in range(4))
            s = rng.choice((2, 4))
            shifted = shift_beta_for_x(SPEC, beta, s)
            lhs = eval_sum(SPEC, shifted, V, 14)
            rhs = eval_sum(SPEC, beta, V, 14).substitute("x", V.m(x=1, q=s))
            assert lhs == rhs


def _leaves_of(matrix):
    """Stands in for expand_tree: the leaves that ``matrix`` expects, row by row."""
    rows = iter(range(7))

    def leaves(spec, vars, beta, plan):
        k = next(rows)
        assert beta == RELATION_BETAS[k]
        return [
            SumNode(WEIGHTS[j], shift_beta_for_x(spec, RELATION_BETAS[j], 4))
            for j in range(7)
            if matrix[k][j]
        ]

    return leaves


class TestMatrixRelation:
    def test_constants_are_consistent(self):
        assert len(RELATION_BETAS) == len(INCIDENCE) == len(RELATION_PLANS) == 7
        assert len(WEIGHTS) == 7
        # rows 2/3 and 5/6 coincide, matching the duplicated beta vectors
        assert INCIDENCE[1] == INCIDENCE[2] and RELATION_BETAS[1] == RELATION_BETAS[2]
        assert INCIDENCE[4] == INCIDENCE[5] and RELATION_BETAS[4] == RELATION_BETAS[5]
        assert INCIDENCE[6] == (1, 0, 0, 0, 0, 0, 0)

    def test_passes_symbolically_and_numerically(self):
        passed, witness = verify_matrix_relation(order=16)
        assert passed and witness is None, witness

    def test_every_matrix_bit_mutant_fails(self, monkeypatch):
        # Flip each of the 49 bits of the ideal's incidence, which the check
        # reads through multisum.matrices.  The leaf check must catch it at the
        # flipped row; so must the series check alone, when the leaf check is
        # handed the mutant's own leaves.
        by_leaves = by_series = 0
        survivors = []
        for k in range(7):
            for j in range(7):
                rows = [list(row) for row in INCIDENCE]
                rows[k][j] ^= 1
                mutant = tuple(tuple(row) for row in rows)
                monkeypatch.setattr(multisum, "matrices", lambda spec, mutant=mutant: (mutant, WEIGHTS))
                monkeypatch.setattr(multisum, "expand_tree", expand_tree)
                passed, witness = verify_matrix_relation(order=12)
                if not passed and witness.startswith(f"row {k + 1}: leaf multiset "):
                    by_leaves += 1
                else:
                    survivors.append(("leaves", k, j, witness))
                monkeypatch.setattr(multisum, "expand_tree", _leaves_of(mutant))
                passed, witness = verify_matrix_relation(order=12)
                if not passed and re.fullmatch(rf"row {k + 1}: \S+: left -?\d+ != right -?\d+", witness):
                    by_series += 1
                else:
                    survivors.append(("series", k, j, witness))
        print(f"incidence bit mutants killed: {by_leaves}/49 by the leaf check, {by_series}/49 by the series check")
        assert not survivors, survivors

    def test_row_five_decomposition(self):
        # H(3,5,6,4) = H(5,5,6,8) + xq^3 H(7,9,10,8) + xy2 q^4 H(9,9,10,12)
        order = 16
        lhs = eval_sum(SPEC, (3, 5, 6, 4), V, order)
        rhs = (
            eval_sum(SPEC, (5, 5, 6, 8), V, order)
            + eval_sum(SPEC, (7, 9, 10, 8), V, order).mul_monomial(V.m(x=1, q=3))
            + eval_sum(SPEC, (9, 9, 10, 12), V, order).mul_monomial(V.m(x=1, y2=1, q=4))
        )
        assert lhs == rhs

    def test_row_seven_is_the_shifted_first_entry(self):
        order = 24
        lhs = eval_sum(SPEC, (5, 5, 6, 8), V, order)
        rhs = eval_sum(SPEC, shift_beta_for_x(SPEC, (1, 1, 2, 4), 4), V, order)
        assert lhs == rhs


def test_spec_validation():
    with pytest.raises(SeriesError):
        MultiSumSpec(((1, 2), (3, 1)), (1, 1), ())  # not symmetric
    with pytest.raises(SeriesError):
        MultiSumSpec(((1,),), (0,), ())  # base < 1
    with pytest.raises(SeriesError):
        MultiSumSpec(((1,),), (1,), ((1, 2),))  # gamma length
