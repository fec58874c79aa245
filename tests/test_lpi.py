from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lpi_reference
from qident.lpi import (
    Automaton,
    LinkingViolation,
    LpiError,
    LpiSpec,
    UnknownBlock,
    compose,
    decompose,
    gap4_ideal,
    g_vector,
    language,
    language_by_size,
    matrices,
)
from qident.multisum import RELATION_BETAS, eval_sum, quinvariate_spec
from qident.partitions import (
    EMPTY,
    Overpartition,
    SET_A,
    SET_A_NO_1BAR,
    SET_A_NO_1_1BAR,
    SET_A_NO_1_1BAR_2_3BAR,
    enum_set,
    oracle_members_by_size,
    weighted_gf,
)
from qident.identities import REGISTRY
from qident.series import FIELD, LIMIT, QUIN_VARS, ExponentOverflow, Series

V = QUIN_VARS
IDEAL = gap4_ideal()

WORKED_EXAMPLE = Overpartition.of((1, True), 8, 14, (19, True), 23, 27)
WORKED_CHAIN = (2, 6, 0, 3, 5, 4, 4)  # 0-based for blocks 3,7,1,4,6,5,5


class TestSpecShape:
    def test_seven_blocks(self):
        assert IDEAL.size == 7
        assert IDEAL.blocks[0] == EMPTY
        assert IDEAL.modulus == 4

    def test_block_index_follows_the_blocks_and_stays_out_of_the_fields(self):
        assert IDEAL.block_index == {b.parts: i for i, b in enumerate(IDEAL.blocks)}
        assert "block_index" not in repr(IDEAL)
        assert IDEAL.replace(modulus=5).block_index == IDEAL.block_index

    def test_block_weights(self):
        weights = IDEAL.weights()
        assert weights[0] == V.m()
        assert weights[1] == V.m(x=1, q=1)
        assert weights[2] == V.m(x=1, z=1, q=1)
        assert weights[3] == V.m(x=1, y1=1, q=2)
        assert weights[4] == V.m(x=1, q=3)
        assert weights[5] == V.m(x=1, z=1, q=3)
        assert weights[6] == V.m(x=1, y2=1, q=4)

    def test_linking_sets(self):
        assert IDEAL.linking[4] == IDEAL.linking[5] == frozenset({0, 4, 6})
        assert IDEAL.linking[6] == frozenset({0})
        assert IDEAL.linking[0] == frozenset(range(7))

    def test_invariants_enforced(self):
        with pytest.raises(LpiError):
            LpiSpec((Overpartition.of(1),), (frozenset({0}),), 4)  # first not empty
        with pytest.raises(LpiError):
            LpiSpec((EMPTY, Overpartition.of(1)), (frozenset({0, 1}), frozenset()), 4)
        with pytest.raises(LpiError):
            LpiSpec((EMPTY, Overpartition.of(9)), (frozenset({0, 1}), frozenset({0})), 4)


class TestComposeDecompose:
    def test_worked_example_compose(self):
        assert compose(IDEAL, WORKED_CHAIN) == WORKED_EXAMPLE

    def test_worked_example_decompose(self):
        assert decompose(IDEAL, WORKED_EXAMPLE) == WORKED_CHAIN

    def test_empty(self):
        assert compose(IDEAL, ()) == EMPTY
        assert decompose(IDEAL, EMPTY) == ()

    def test_single_block(self):
        assert compose(IDEAL, (1,)) == Overpartition.of(1)

    def test_trailing_empty_rejected(self):
        with pytest.raises(LpiError):
            compose(IDEAL, (1, 0))

    def test_linking_violation_on_compose(self):
        # block 7 (index 6) may only be followed by the empty block
        with pytest.raises(LinkingViolation):
            compose(IDEAL, (6, 4))

    def test_unknown_block_on_decompose(self):
        with pytest.raises(UnknownBlock):
            decompose(IDEAL, Overpartition.of(1, 1))

    def test_linking_violation_on_decompose(self):
        # overlined 5 after overlined 1 shifts to an overlined 1 block after
        # block 3, which the linking map forbids
        with pytest.raises(LinkingViolation):
            decompose(IDEAL, Overpartition.of((1, True), (5, True)))

    def test_round_trip_up_to_30(self):
        for n in range(31):
            for op in enum_set(SET_A, n):
                assert compose(IDEAL, decompose(IDEAL, op)) == op

    def test_chain_round_trip(self):
        def all_chains(prev: int, depth: int, budget: int):
            yield ()
            if depth * 4 + 1 > budget:
                return
            for k in IDEAL.linking[prev]:
                added = IDEAL.blocks[k].size + depth * 4 * len(IDEAL.blocks[k])
                if k != 0 and added <= budget:
                    for rest in all_chains(k, depth + 1, budget - added):
                        yield (k,) + rest
                if k == 0:
                    for rest in all_chains(0, depth + 1, budget):
                        if rest:  # avoid trailing empties
                            yield (0,) + rest

        for chain in all_chains(0, 0, 30):
            if chain and chain[-1] == 0:
                continue
            assert decompose(IDEAL, compose(IDEAL, chain)) == chain


class TestMatrices:
    def test_rows_two_three_equal(self):
        a, _ = matrices(IDEAL)
        assert a[1] == a[2]
        assert a[6] == (1, 0, 0, 0, 0, 0, 0)


class TestLanguage:
    def test_equals_filtered_enumeration(self):
        filtered = oracle_members_by_size(SET_A, 18)
        for n in range(19):
            assert set(language(IDEAL, n)) == filtered[n]

    def test_a_negative_size_is_refused(self):
        with pytest.raises(LpiError, match="n must be >= 0"):
            language(IDEAL, -1)

    def test_by_size_is_the_language_of_every_size(self):
        by_size = language_by_size(IDEAL, 30)
        assert len(by_size) == 31
        assert all(by_size[n] == language(IDEAL, n) for n in range(31))
        assert language_by_size(IDEAL, 0) == [[EMPTY]]
        with pytest.raises(LpiError, match="order must be >= 0"):
            language_by_size(IDEAL, -1)

    def test_no_duplicates(self):
        for n in range(21):
            members = language(IDEAL, n)
            assert len(members) == len(set(members))
            assert all(op.size == n for op in members)


class TestGandF:
    def test_g7_leading_term(self):
        g7 = g_vector(IDEAL, 4)[6]
        assert g7 == Series.monomial(V, 4, V.m(x=1, y2=1, q=4))

    def test_g_at_x_zero(self):
        g = g_vector(IDEAL, 12)
        assert g[0].set_var_zero("x") == Series.one(V, 12)
        for k in range(1, 7):
            assert g[k].set_var_zero("x").is_zero()

    def test_f_series_match_enumeration(self):
        order = 16
        f = [Automaton(IDEAL, order).f(k) for k in range(IDEAL.size)]
        assert f[0] == weighted_gf(SET_A, order)
        assert f[1] == weighted_gf(SET_A_NO_1BAR, order)
        assert f[3] == weighted_gf(SET_A_NO_1_1BAR, order)
        assert f[4] == weighted_gf(SET_A_NO_1_1BAR_2_3BAR, order)

    def test_f_equalities(self):
        automaton = Automaton(IDEAL, 14)
        assert automaton.f(1) == automaton.f(2)
        assert automaton.f(4) == automaton.f(5)
        assert automaton.f(6) == automaton.g(0)

    def test_sum_of_g_is_f1(self):
        order = 14
        g = g_vector(IDEAL, order)
        total = Series.zero(V, order)
        for s in g:
            total = total + s
        assert total == Automaton(IDEAL, order).f(0)

    def test_f_match_multisum_betas(self):
        order = 16
        spec = quinvariate_spec()
        automaton = Automaton(IDEAL, order)
        for k, beta in enumerate(RELATION_BETAS):
            assert automaton.f(k) == eval_sum(spec, beta, V, order)


# A block with a repeated part, nested linking sets, modulus 3.
REPEATED = LpiSpec(
    (EMPTY, Overpartition.of(1, 1), Overpartition.of((2, True)), Overpartition.of((1, True), 3), Overpartition.of(3)),
    (frozenset(range(5)), frozenset({0, 1}), frozenset({0, 1, 2, 4}), frozenset({0, 1, 2, 3, 4}), frozenset({0, 1, 4})),
    3,
)
# The gap-4 blocks with linking sets that are not nested.
UNNESTED = IDEAL.replace(
    linking=(IDEAL.linking[0], frozenset({0, 1, 2}), frozenset({0, 3}), frozenset({0, 1, 5}),
             frozenset({0, 2, 4, 6}), frozenset({0, 3, 4}), frozenset({0}))
)


class TestPackedAutomaton:
    @pytest.mark.parametrize("spec", [IDEAL, REPEATED, UNNESTED], ids=["gap4", "repeated", "unnested"])
    @pytest.mark.parametrize("order", [0, 1, 3, 4, 5, 30, 100])
    def test_matches_the_series_recursion(self, spec, order):
        g = lpi_reference.g_vector(spec, order)
        f = lpi_reference.f_vector(spec, g)
        automaton = Automaton(spec, order)
        assert [automaton.g(k) for k in range(spec.size)] == g
        assert [automaton.f(k) for k in range(spec.size)] == f
        assert g_vector(spec, order) == g

    def test_the_sets_of_the_custom_ideals(self):
        assert any(1 < len(b.parts) != len(set(b.parts)) for b in REPEATED.blocks)
        links = set(UNNESTED.linking)
        assert any(not (a <= b or b <= a) for a in links for b in links)

    def test_a_field_past_limit_raises_naming_it(self):
        # 2047 ones, then a single part T + 1 = 2048 at depth 1: a member of
        # size 4095 with 2048 parts, one more x than a packed field holds.
        ones = Overpartition.of(*[1] * (LIMIT - 1))
        spec = LpiSpec(
            (EMPTY, ones, Overpartition.of(1)),
            (frozenset({0, 1, 2}), frozenset({0, 2}), frozenset({0})),
            LIMIT - 1,
        )
        assert Automaton(spec, 2 * LIMIT - 2).f(0).coeff(V.m(q=LIMIT - 1, x=LIMIT - 1)) == 1
        with pytest.raises(ExponentOverflow, match=f"of x reaches {LIMIT}"):
            Automaton(spec, 2 * LIMIT - 1)

    def test_a_negative_order_is_refused(self):
        with pytest.raises(LpiError):
            Automaton(IDEAL, -1)
        with pytest.raises(LpiError):
            g_vector(IDEAL, -1)

    # The automaton's largest non-q exponent at the budgets of the entries that
    # run it: x^k, for the most parts k of a member of size at most the order.
    # The least member with k parts is 1, 5, 9, ..., 4k - 3, of size 2k^2 - k,
    # so x^15 first appears at q^435.
    @pytest.mark.parametrize("identity, largest", [("g-system", 15), ("f-system", 14)])
    def test_largest_non_q_exponent_at_max_order_is_below_the_limit(self, identity, largest):
        order = REGISTRY[identity].max_order
        automaton = Automaton(IDEAL, order)
        keys = [k for groups in (*automaton._g, *automaton._f.values()) for k in groups]
        assert max(k >> shift & FIELD for k in keys for shift in V.shifts[1:]) == largest
        assert max(k >> V.shifts[1] & FIELD for k in keys) == largest
        assert 2 * largest**2 - largest <= order < 2 * (largest + 1) ** 2 - (largest + 1)
        assert largest < LIMIT


@st.composite
def linked_ideals(draw):
    """Gap-4 blocks with random valid linking sets, and a small order."""
    linking = [frozenset(range(IDEAL.size))] + [
        frozenset({0}) | draw(st.frozensets(st.integers(1, IDEAL.size - 1)))
        for _ in range(IDEAL.size - 1)
    ]
    return IDEAL.replace(linking=tuple(linking)), draw(st.integers(0, 24))


@given(linked_ideals())
def test_f_vector_is_the_sum_over_each_linking_set(case):
    # The sets are not nested in general, so a base summed for one set need
    # not be contained in the next; the automaton's F_k must not depend on
    # that.  Each is checked against a Series.sum of its decoded G_j.
    spec, order = case
    automaton = Automaton(spec, order)
    g = [automaton.g(j) for j in range(spec.size)]
    for k, link in enumerate(spec.linking):
        assert automaton.f(k) == Series.sum(V, order, (g[j] for j in link)), k


class TestJson:
    def test_round_trip(self):
        text = IDEAL.to_json()
        again = LpiSpec.from_json(text)
        assert again == IDEAL

    def test_linking_is_one_based_in_json(self):
        doc = json.loads(IDEAL.to_json())
        assert doc["linking"][6] == [1]  # block 7 links only to the empty block
        assert doc["modulus"] == 4

    def test_malformed_rejected(self):
        with pytest.raises(LpiError):
            LpiSpec.from_json('{"blocks": [[]], "modulus": 4}')

    @staticmethod
    def _two_block_doc() -> dict:
        return {
            "blocks": [[], [{"value": 1, "overlined": False}]],
            "linking": [[1, 2], [1, 2]],
            "modulus": 3,
        }

    def test_two_block_doc_loads(self):
        spec = LpiSpec.from_json(json.dumps(self._two_block_doc()))
        assert spec.blocks == (EMPTY, Overpartition.of(1))
        assert spec.modulus == 3

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("overlined", "false"),  # a string is not a JSON boolean, whatever it says
            ("overlined", 0),
            ("value", 1.5),
            ("value", 0),
            ("value", True),
            ("modulus", "four"),
            ("modulus", 3.0),
            ("linking", True),
            ("linking", "1"),
        ],
    )
    def test_bad_field_rejected(self, field, bad):
        doc = self._two_block_doc()
        if field == "modulus":
            doc["modulus"] = bad
        elif field == "linking":
            doc["linking"][1][1] = bad
        else:
            doc["blocks"][1][0][field] = bad
        with pytest.raises(LpiError):
            LpiSpec.from_json(json.dumps(doc))

    def test_multi_part_block_ideal(self):
        # blocks may hold several parts; the engine is generic over the alphabet
        spec = LpiSpec(
            (EMPTY, Overpartition.of(1, 2), Overpartition.of((3, True))),
            (frozenset({0, 1, 2}), frozenset({0, 2}), frozenset({0, 1})),
            4,
        )
        by_size = {n: language(spec, n) for n in range(15)}
        for n, members in by_size.items():
            assert all(op.size == n for op in members)
        assert Overpartition.of(1, 2) in by_size[3]
        assert Overpartition.of(1, 2, (7, True)) in by_size[10]  # chain block2 then block3
        assert Overpartition.of((3, True), 5, 6) in by_size[14]  # chain block3 then block2
        # block2 may not follow itself
        assert Overpartition.of(1, 2, 5, 6) not in by_size[14]
        for members in by_size.values():
            for op in members:
                assert compose(spec, decompose(spec, op)) == op
        # weights carry the multi-part statistics: block2 = x^2 y1 q^3
        assert spec.weights()[1] == V.m(x=2, y1=1, q=3)

    def test_custom_two_block_ideal(self):
        # parts congruent to 1 mod 3, each chain block either empty or a single 1
        custom = LpiSpec(
            (EMPTY, Overpartition.of(1)),
            (frozenset({0, 1}), frozenset({0, 1})),
            3,
        )
        sizes = [n for n in range(10) for _ in language(custom, n)]
        # all subset sums of the values 1, 4, 7 that stay within 9
        assert sizes == [0, 1, 4, 5, 7, 8]
        round_trip = LpiSpec.from_json(custom.to_json())
        assert round_trip == custom
