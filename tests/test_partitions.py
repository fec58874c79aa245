from __future__ import annotations

import re
from collections import Counter
from functools import cache
from itertools import product
from typing import Callable, Iterator

import pytest

from qident import partitions
from qident.partitions import (
    EMPTY,
    InvalidOverpartition,
    Overpartition,
    Part,
    PartStats,
    SET_A,
    SET_A_NO_1BAR,
    SET_A_NO_1_1BAR,
    SET_A_NO_1_1BAR_2_3BAR,
    SET_AVEE,
    SET_IDS,
    enum_overpartitions,
    enum_set,
    in_A,
    oracle_members_by_size,
    stats,
    table_A,
    table_A1,
    table_A2,
    table_B,
    table_B1,
    table_B2,
    weight_monomial,
    weighted_gf,
    _FORBIDDEN,
    _gap_ok,
    _gap4_transfer,
    _walk_gap4,
    _all_pass,
    _ascending_sweep,
    _overpartition_parts,
    _partitions_by_multiplicity,
    _parts_in_A,
    _parts_in_Avee,
    _parts_predicate,
)
from qident.identities import REGISTRY, verify
from qident.products import PochSpec, poch_inf
from qident.series import LIMIT, Q_VARS, QUIN_VARS, Series

V = QUIN_VARS

CHAIN_EXAMPLE = Overpartition.of((1, True), 8, 14, (19, True), 23, 27)


class TestOverpartition:
    def test_canonical_order(self):
        a = Overpartition.of(5, (3, True), 3, 1)
        assert a.parts == ((1, False), (3, True), (3, False), (5, False))

    def test_double_overline_rejected(self):
        with pytest.raises(InvalidOverpartition):
            Overpartition.of((3, True), (3, True))

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidOverpartition):
            Overpartition.of(0)

    def test_render(self):
        assert Overpartition.of((5, True), 1).render() == "5~ 1"
        assert EMPTY.render() == ""


class TestStats:
    def test_worked_example(self):
        st = stats(CHAIN_EXAMPLE)
        assert st.size == 92
        assert st.length == 6
        assert st.over == 2
        assert st.r2mod4 == 1  # the part 14
        assert st.r0mod4 == 1  # the part 8
        assert st.r1mod2 == 4

    def test_empty(self):
        st = stats(EMPTY)
        assert (st.size, st.length, st.r1mod2, st.r2mod4, st.r0mod4, st.over) == (0,) * 6

    def test_single_four(self):
        st = stats(Overpartition.of(4))
        assert (st.size, st.length, st.r0mod4) == (4, 1, 1)

    def test_residues_partition_the_length(self):
        for n in range(12):
            for op in enum_overpartitions(n):
                st = stats(op)
                assert st.length == st.r1mod2 + st.r2mod4 + st.r0mod4
                assert st.over <= st.length


class TestMembership:
    def test_chain_example_in_A(self):
        assert in_A(CHAIN_EXAMPLE)

    def test_overlined_larger_needs_strict_gap(self):
        assert not in_A(Overpartition.of(1, (5, True)))

    def test_even_overline_rejected(self):
        assert not in_A(Overpartition.of((2, True)))

    def test_div4_needs_strict_gap(self):
        assert not in_A(Overpartition.of(4, 8))
        assert in_A(Overpartition.of(4, 9))

    def test_in_A_S(self):
        assert _parts_in_A(Overpartition.of(1, 5).parts, frozenset({(1, True)}))
        assert not _parts_in_A(Overpartition.of(1, 6).parts, frozenset({(1, False), (1, True)}))
        forb = frozenset({(1, False), (1, True), (2, False), (3, True)})
        assert _parts_in_A(Overpartition.of(3, 8).parts, forb)

    def test_avee_exception_pair(self):
        assert _parts_in_Avee(Overpartition.of((5, True), 1).parts)

    def test_avee_overlined_nine_violates(self):
        assert not _parts_in_Avee(Overpartition.of((5, True), 1, (9, True)).parts)

    def test_avee_plain_gap_above_exception(self):
        assert _parts_in_Avee(Overpartition.of((5, True), 1, 10).parts)
        assert _parts_in_Avee(Overpartition.of((5, True), 1, 9).parts)

    def test_avee_no_overlined_one(self):
        assert not _parts_in_Avee(Overpartition.of((1, True)).parts)


def overpartition_numbers(n_max: int) -> list[int]:
    """Coefficients of (-q;q)_inf / (q;q)_inf up to q^n_max, by integer DP."""
    c = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for i in range(n_max, k - 1, -1):  # times (1 + q^k)
            c[i] += c[i - k]
    for k in range(1, n_max + 1):
        for i in range(k, n_max + 1):  # divided by (1 - q^k)
            c[i] += c[i - k]
    return c


def partition_numbers(n_max: int) -> list[int]:
    """Coefficients of 1 / (q;q)_inf up to q^n_max, by integer DP."""
    c = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for i in range(k, n_max + 1):
            c[i] += c[i - k]
    return c


class _CountingRow(list):
    """A row of a pair table that counts, in ``reads["reads"]``, how often it is indexed."""

    def __init__(self, row, reads: Counter) -> None:
        super().__init__(row)
        self.reads = reads

    def __getitem__(self, i):
        self.reads["reads"] += 1
        return super().__getitem__(i)


def reference_enum_overpartitions(n: int) -> list[Overpartition]:
    """The object-building oracle: one Overpartition per partition and overline mask."""
    out = []
    for partition in _partitions_by_multiplicity(n):
        for mask in product((False, True), repeat=len(partition)):
            parts = []
            for (v, mult), overlined in zip(partition, mask):
                if overlined:
                    parts.append((v, True))
                    parts.extend((v, False) for _ in range(mult - 1))
                else:
                    parts.extend((v, False) for _ in range(mult))
            out.append(Overpartition(tuple(parts)))
    return out


def reference_in_A_S(op: Overpartition, forbidden) -> bool:
    parts = op.parts
    if any(o and v % 2 == 0 for v, o in parts):
        return False
    if any(p in forbidden for p in parts):
        return False
    return all(_gap_ok(parts[i], parts[i + 1]) for i in range(len(parts) - 1))


def reference_in_Avee(op: Overpartition) -> bool:
    parts = op.parts
    if any(o and (v % 2 == 0 or v == 1) for v, o in parts):
        return False
    for i in range(len(parts) - 1):
        lo, hi = parts[i], parts[i + 1]
        if lo == (1, False) and hi == (5, True):
            continue
        if not _gap_ok(lo, hi):
            return False
    return True


def reference_predicate(setid: str):
    if setid == SET_AVEE:
        return reference_in_Avee
    return lambda op: reference_in_A_S(op, _FORBIDDEN[setid])


class TestOracleRoute:
    def test_overpartition_numbers_start(self):
        assert overpartition_numbers(8) == [1, 2, 4, 8, 14, 24, 40, 64, 100]

    def test_tuple_count_is_overpartition_number(self):
        # Any pruning of the exhaustive generator shows up as a short count.
        expected = overpartition_numbers(25)
        for n in range(26):
            assert sum(1 for _ in _overpartition_parts(n)) == expected[n], n

    def test_tuples_are_canonical_and_match_reference(self):
        for n in range(19):
            tuples = list(_overpartition_parts(n))
            assert all(Overpartition(p).parts == p for p in tuples), n
            assert enum_overpartitions(n) == reference_enum_overpartitions(n), n

    @pytest.mark.parametrize("setid", SET_IDS)
    def test_tuple_predicates_match_object_predicates(self, setid):
        tuple_preds = (
            _parts_predicate(setid),
            _parts_in_Avee if setid == SET_AVEE else lambda parts: _parts_in_A(parts, _FORBIDDEN[setid]),
        )
        reference = reference_predicate(setid)
        for n in range(15):
            for op in reference_enum_overpartitions(n):
                expected = reference(op)
                assert all(pred(op.parts) == expected for pred in tuple_preds), op
                if setid == SET_A:
                    assert in_A(op) == expected, op

    def test_partition_numbers_start(self):
        assert partition_numbers(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_oracle_equals_the_full_tuple_filter(self):
        by_size = {setid: oracle_members_by_size(setid, 25) for setid in SET_IDS}
        for n in range(26):
            tuples = list(_overpartition_parts(n))
            for setid in SET_IDS:
                full = {Overpartition(p) for p in filter(_parts_predicate(setid), tuples)}
                assert by_size[setid][n] == full, (setid, n)

    def test_oracle_draws_every_partition(self, monkeypatch):
        # The oracle sweeps once to n, through the table of _gap_ok on plain
        # parts.  The sweep reads that table once for each partition with two
        # or more parts, whatever the table holds, so a failing pair prunes
        # nothing; and the oracle takes every partition that passes.
        real = partitions._ascending_sweep
        sweeps = []

        def recording(order, ok):
            reads = Counter()
            drawn = list(real(order, [_CountingRow(row, reads) for row in ok]))
            sweeps.append((order, ok, reads["reads"], drawn))
            yield from drawn

        monkeypatch.setattr(partitions, "_ascending_sweep", recording)
        expected = partition_numbers(20)
        for n in range(21):
            sweeps.clear()
            oracle_members_by_size(SET_A, n)
            ((order, ok, reads, drawn),) = sweeps
            assert order == n
            assert ok == [[_gap_ok((lo, False), (hi, False)) for hi in range(n + 1)] for lo in range(n + 1)]
            assert reads == sum(expected[: n + 1]) - 1 - n, n  # the empty and the one-part partitions read none
            everything = list(real(n, _all_pass(n)))
            assert drawn == [(size, p) for size, p in everything if all(ok[a][b] for a, b in zip(p, p[1:]))], n

    def test_ascending_partitions_are_every_partition_once(self):
        # Through the all-pass table the sweep to 30 yields p(n) distinct
        # partitions of each n <= 30, those of one size in lexicographic order.
        expected = partition_numbers(30)
        drawn = list(_ascending_sweep(30, _all_pass(30)))
        assert drawn[0] == (0, ())
        assert all(sum(p) == size and list(p) == sorted(p) and min(p, default=1) >= 1 for size, p in drawn)
        for n in range(31):
            of_n = [p for size, p in drawn if size == n]
            assert len(of_n) == len(set(of_n)) == expected[n], n
            assert of_n == sorted(of_n), n
        assert len(drawn) == sum(expected)

    def test_sweep_without_equal_neighbours_yields_the_partitions_into_distinct_parts(self):
        # q(n), read off (-q; q)_inf: a pair fails when its parts are equal,
        # and a partition with a failing pair anywhere is not yielded.
        top = 30
        expected = poch_inf(PochSpec(Q_VARS.m(q=1), 1, sign=-1), Q_VARS, top).q_coefficients()
        ok = [[lo != hi for hi in range(top + 1)] for lo in range(top + 1)]
        drawn = list(_ascending_sweep(top, ok))
        assert all(a < b for _, p in drawn for a, b in zip(p, p[1:]))
        assert Counter(size for size, _ in drawn) == Counter(dict(enumerate(expected)))
        assert len(set(drawn)) == len(drawn)

    def test_partitions_by_multiplicity_groups_the_ascending_lists(self):
        for n in range(16):
            grouped = [tuple(v for v, m in p for _ in range(m)) for p in _partitions_by_multiplicity(n)]
            assert grouped == [p for size, p in _ascending_sweep(n, _all_pass(n)) if size == n], n
            assert all(a[0] < b[0] for p in _partitions_by_multiplicity(n) for a, b in zip(p, p[1:])), n

    def test_oracle_by_size_is_the_oracle_at_every_size(self):
        for setid in SET_IDS:
            by_size = oracle_members_by_size(setid, 22)
            assert by_size == [oracle_members_by_size(setid, n)[n] for n in range(23)], setid
        with pytest.raises(ValueError):
            oracle_members_by_size(SET_A, -1)

    def test_oracle_does_not_use_the_walk(self, monkeypatch):
        def draw():
            return {s: oracle_members_by_size(s, 18) for s in SET_IDS}

        expected = draw()

        def refuse(*args):
            raise AssertionError("the oracle called the gap-4 walk, transfer or rule")

        for name in ("_walk_gap4", "_gap4_transfer", "weighted_gf", "_gap4_parts"):
            monkeypatch.setattr(partitions, name, refuse)
        assert draw() == expected

    def test_oracle_value_test_follows_the_gap_clause(self, monkeypatch):
        # A gap clause loosened to accept a difference of 3 must reach the
        # oracle's value test too, so that lpi-eq-A sees the extra members.
        real = partitions._gap_ok
        monkeypatch.setattr(partitions, "_gap_ok", lambda lo, hi: hi[0] - lo[0] == 3 or real(lo, hi))
        assert Overpartition.of(1, 4) in oracle_members_by_size(SET_A, 5)[5]
        report = verify("lpi-eq-A")
        assert not report.passed
        assert re.match(r"size \d+: ", report.witness)


class TestEnumeration:
    def test_fourteen_overpartitions_of_four(self):
        assert len(enum_overpartitions(4)) == 14

    def test_zero_and_one(self):
        assert enum_overpartitions(0) == [EMPTY]
        assert sorted(op.parts for op in enum_overpartitions(1)) == [
            ((1, False),),
            ((1, True),),
        ]

    def test_no_duplicates(self):
        for n in range(10):
            ops = enum_overpartitions(n)
            assert len(ops) == len(set(ops))

    def test_enum_set_zero(self):
        assert enum_set(SET_A, 0) == [EMPTY]

    def test_enum_set_five(self):
        # 4+1 has gap 3 and is excluded; only the two singletons qualify.
        got = {op for op in enum_set(SET_A, 5)}
        assert got == {Overpartition.of(5), Overpartition.of((5, True))}

    def test_avee_six_contains_exception(self):
        assert Overpartition.of((5, True), 1) in set(enum_set(SET_AVEE, 6))

    def test_unknown_set(self):
        with pytest.raises(KeyError):
            enum_set("B", 3)

    def test_enum_set_negative_size(self):
        with pytest.raises(ValueError):
            enum_set(SET_A, -1)

    @pytest.mark.parametrize("setid", SET_IDS)
    def test_oracle_equivalence(self, setid):
        by_size = oracle_members_by_size(setid, 25)
        for n in range(26):
            direct = set(enum_set(setid, n))
            assert direct == by_size[n], f"{setid} differs at n={n}"


class TestWeightedGF:
    def test_A_to_order_two(self):
        got = weighted_gf(SET_A, 2)
        expected = Series(
            V,
            2,
            [
                (V.m(), 1),
                (V.m(x=1, q=1), 1),
                (V.m(x=1, z=1, q=1), 1),
                (V.m(x=1, y1=1, q=2), 1),
            ],
        )
        assert got == expected

    def test_no_ones_to_order_two(self):
        got = weighted_gf(SET_A_NO_1_1BAR, 2)
        assert got == Series(V, 2, [(V.m(), 1), (V.m(x=1, y1=1, q=2), 1)])

    def test_order_zero(self):
        assert weighted_gf(SET_A, 0) == Series.one(V, 0)

    def test_negative_order_raises(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            weighted_gf(SET_A, -1)
        with pytest.raises(ValueError, match="order must be >= 0"):
            table_A(-1)

    def test_avee_split_identity(self):
        order = 20
        lhs = weighted_gf(SET_AVEE, order)
        base = weighted_gf(SET_A_NO_1BAR, order)
        rhs = base + base.substitute("x", V.m(x=1, q=8)).mul_monomial(V.m(x=2, z=1, q=6))
        assert lhs == rhs


class TestCounts:
    def test_count_A_examples(self):
        assert table_A(0).get((0, 0, 0), 0) == 1
        assert table_A(1).get((1, 1, 0), 0) == 1
        # the exception member 5~ + 1 has two odd parts and one overline
        member = Overpartition.of((5, True), 1)
        st = stats(member)
        assert (st.r1mod2 + 2 * st.r0mod4, st.r2mod4 + st.over) == (2, 1)
        assert table_A(6).get((6, 2, 1), 0) >= 1

    def test_count_B_small(self):
        # distinct 4-regular partitions of 3: {3}, {2,1}
        tab = table_B(4)
        assert tab.get((3, 1, 0), 0) == 1
        assert tab.get((3, 1, 1), 0) == 1
        assert tab.get((3, 2, 0), 0) == 0
        # of 4: only {3,1}
        assert tab.get((4, 2, 0), 0) == 1
        assert sum(tab.get((4, m, l), 0) for m in range(5) for l in range(5)) == 1
        assert tab.get((0, 0, 0), 0) == 1

    def test_count_B1_B2_examples(self):
        b1, b2 = table_B1(3), table_B2(3)
        assert b1.get((3, 2), 0) == 1 and b1.get((3, 1), 0) == 1
        assert b2.get((3, 1), 0) == 1 and b2.get((3, 3), 0) == 1 and b2.get((3, 2), 0) == 0
        assert table_A1(0).get((0, 0), 0) == 1 and table_B1(0).get((0, 0), 0) == 1

    def test_weighted_counts_agree_small(self):
        order = 14
        assert table_A1(order) == table_B1(order)
        assert table_A2(order) == table_B2(order)
        assert table_A(order) == table_B(order)


# -- reference generators for the B side: each size generated from scratch -------


def reference_distinct_4regular(n: int, min_val: int = 1) -> Iterator[tuple[int, ...]]:
    """Partitions of n into distinct parts, none divisible by 4 (ascending)."""
    if n == 0:
        yield ()
        return
    for v in range(min_val, n + 1):
        if v % 4 == 0:
            continue
        for rest in reference_distinct_4regular(n - v, v + 1):
            yield (v,) + rest


def reference_odd_parts_mult_le3(n: int, min_val: int = 1) -> Iterator[tuple[int, ...]]:
    """Partitions of n into odd parts, no part appearing more than three times."""
    if n == 0:
        yield ()
        return
    start = min_val if min_val % 2 else min_val + 1
    for v in range(start, n + 1, 2):
        for mult in (1, 2, 3):
            if v * mult > n:
                break
            for rest in reference_odd_parts_mult_le3(n - v * mult, v + 2):
                yield (v,) * mult + rest


@cache
def reference_by_size(source: Callable[[int], Iterator[tuple[int, ...]]], n: int) -> tuple:
    """The partitions ``source`` generates at size n, kept for every order that reads them."""
    return tuple(source(n))


def reference_key_B(parts: tuple[int, ...]) -> tuple[int, int]:
    odd = sum(1 for v in parts if v % 2)
    return odd, len(parts) - odd


def reference_key_length(parts: tuple[int, ...]) -> tuple[int]:
    return (len(parts),)


B_REFERENCES = {
    table_B: (reference_distinct_4regular, reference_key_B),
    table_B1: (reference_distinct_4regular, reference_key_length),
    table_B2: (reference_odd_parts_mult_le3, reference_key_length),
}


def reference_b_tally(table, order: int) -> dict:
    """Count the reference partitions of every size <= order by ``(n, *key(parts))``."""
    source, key = B_REFERENCES[table]
    out: dict = {}
    for n in range(order + 1):
        for parts in reference_by_size(source, n):
            k = (n, *key(parts))
            out[k] = out.get(k, 0) + 1
    return out


@pytest.mark.parametrize("table", list(B_REFERENCES), ids=lambda t: t.__name__)
def test_b_tables_equal_the_per_size_reference(table):
    for order in [*range(41), 80]:
        assert table(order) == reference_b_tally(table, order), order


def reference_gen_gap4(
    n: int,
    overline_ok: Callable[[int], bool],
    allow_5bar_after_1: bool,
    forbidden: frozenset[Part],
) -> Iterator[tuple[Part, ...]]:
    """The per-size generator: members of size n, the recursion restarted for each n."""

    def rec(remaining: int, prev: Part | None) -> Iterator[tuple[Part, ...]]:
        if remaining == 0:
            yield ()
            return
        lo = 1 if prev is None else prev[0] + 4
        for v in range(lo, remaining + 1):
            for overlined in (False, True):
                if overlined and not overline_ok(v):
                    continue
                cur = (v, overlined)
                if cur in forbidden:
                    continue
                if prev is not None and not _gap_ok(prev, cur):
                    if not (allow_5bar_after_1 and prev == (1, False) and cur == (5, True)):
                        continue
                for rest in rec(remaining - v, cur):
                    yield (cur,) + rest

    return rec(n, None)


def reference_enum_set(setid: str, n: int) -> list[Overpartition]:
    if setid == SET_AVEE:
        gen = reference_gen_gap4(n, lambda v: v % 2 == 1 and v > 1, True, frozenset())
    else:
        gen = reference_gen_gap4(n, lambda v: v % 2 == 1, False, _FORBIDDEN[setid])
    return [Overpartition(parts) for parts in gen]


def reference_weighted_gf(members_by_size: list[list[Overpartition]], order: int) -> Series:
    terms = [
        (weight_monomial(stats(op)), 1) for n in range(order + 1) for op in members_by_size[n]
    ]
    return Series(V, order, terms)


REFERENCE_KEYS = {
    table_A: lambda st: (st.r1mod2 + 2 * st.r0mod4, st.r2mod4 + st.over),
    table_A1: lambda st: (st.length + st.over + st.r0mod4,),
    table_A2: lambda st: (st.r1mod2 + 2 * st.over + 2 * st.r2mod4 + 2 * st.r0mod4,),
}


def reference_tally(members_by_size: list[list[Overpartition]], key, order: int) -> dict:
    """Count per-size members by ``(n, *key(stats))``, one size at a time."""
    out: dict = {}
    for n in range(order + 1):
        for op in members_by_size[n]:
            k = (n, *key(stats(op)))
            out[k] = out.get(k, 0) + 1
    return out


class TestWalkMatchesPerSizeGenerator:
    @pytest.mark.parametrize("setid", SET_IDS)
    def test_weighted_gf_term_for_term(self, setid):
        members = [reference_enum_set(setid, n) for n in range(31)]
        for order in range(31):
            got = weighted_gf(setid, order)
            assert got.terms == reference_weighted_gf(members, order).terms, (setid, order)

    @pytest.mark.parametrize("setid", SET_IDS)
    def test_enum_set_same_list_same_order(self, setid):
        for n in range(21):
            assert enum_set(setid, n) == reference_enum_set(setid, n), (setid, n)

    @pytest.mark.parametrize("table", list(REFERENCE_KEYS), ids=lambda t: t.__name__)
    def test_avee_tables_equal_the_per_size_tally(self, table):
        members = [reference_enum_set(SET_AVEE, n) for n in range(26)]
        for order in range(26):
            assert table(order) == reference_tally(members, REFERENCE_KEYS[table], order), order

    def test_avee_tables_equal_the_weighted_count_folded_by_hand(self):
        # The A tables project each part's weight before the transfer; folding
        # every weight of the full count after it must give the same counts.
        order = 120
        folds = {table: Counter() for table in REFERENCE_KEYS}
        for (n, length, two, four, over), c in weighted_gf(SET_AVEE, order).items():
            st = PartStats(n, length, length - two - four, two, four, over)
            for table, key in REFERENCE_KEYS.items():
                folds[table][n, *key(st)] += c
        for table, fold in folds.items():
            assert table(order) == fold, table.__name__

    def test_walk_does_not_use_the_oracle_predicates(self, monkeypatch):
        expected_gf = {s: weighted_gf(s, 24) for s in SET_IDS}
        expected_sets = {s: enum_set(s, 18) for s in SET_IDS}
        expected_table = table_A(24)

        def refuse(*args):
            raise AssertionError("the walk called an oracle predicate")

        for name in ("_gap_ok", "_parts_in_A", "_parts_in_Avee"):
            monkeypatch.setattr(partitions, name, refuse)
        assert {s: weighted_gf(s, 24) for s in SET_IDS} == expected_gf
        assert {s: enum_set(s, 18) for s in SET_IDS} == expected_sets
        assert table_A(24) == expected_table

    @pytest.mark.parametrize("setid", SET_IDS)
    def test_transfer_counts_the_walk_beyond_the_reference_range(self, setid):
        # The per-size generator stops at 30; the walk lists every member to 45.
        order = 45
        walked = Counter(node[0] for node in _walk_gap4(setid, order))
        assert weighted_gf(setid, order).terms == Series._raw(V, order, dict(walked)).terms
        if setid == SET_AVEE:
            tally: Counter = Counter()
            for key, c in walked.items():
                size, length, two, four, over = V.unpack(key)
                tally[size, length - two - four + 2 * four, two + over] += c
            assert table_A(order) == tally


# The largest non-q exponent of each gap-4 family's series at its entry's
# max_order: x^k, for the most parts k of a member, whose parts are at least
# 4 apart.  Each is far below LIMIT.
LARGEST_NON_Q_EXPONENT = {
    ("thm51-a", SET_A): 7,
    ("thm51-b", SET_A_NO_1BAR): 7,
    ("thm51-c", SET_A_NO_1_1BAR): 7,
    ("thm51-d", SET_A_NO_1_1BAR_2_3BAR): 7,
    ("avee-split", SET_AVEE): 14,
}


def _length(key: int) -> int:
    """The non-q part of a weight projected onto its length, x^length."""
    return V.pack(V.m(x=V.unpack(key)[1]))


def _largest_length(setid: str, order: int) -> int:
    """The most parts of a member of size <= order, by the gap-4 transfer projected onto the length."""
    return max(mono[1] for mono, _ in _gap4_transfer(setid, order, _length).items())


@pytest.mark.parametrize("identity, setid", list(LARGEST_NON_Q_EXPONENT))
def test_largest_non_q_exponent_at_max_order_is_below_the_limit(identity, setid):
    # Every other non-q field counts some of the parts, so the length is the
    # largest (the test below), and the count projected onto it finds it
    # without building the whole series at max_order.
    order = REGISTRY[identity].max_order
    largest = _largest_length(setid, order)
    assert largest == LARGEST_NON_Q_EXPONENT[identity, setid]
    assert largest < LIMIT


@pytest.mark.parametrize("setid", SET_IDS)
def test_the_length_projection_finds_the_largest_non_q_exponent(setid):
    order = 60
    assert _largest_length(setid, order) == max(max(mono[1:]) for mono, _ in weighted_gf(setid, order).items())
