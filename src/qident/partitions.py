"""Overpartitions: the gap-4 families, their statistics, and weighted counts.

An overpartition is a partition in which the first occurrence of each distinct
part value may be overlined; overlines carry no size.  The central objects are

* the family ``A``: only odd parts may be overlined, adjacent parts differ by
  at least 4, strictly when the larger part is overlined or divisible by 4;
* its restrictions ``A-no-1bar``, ``A-no-1-1bar``, ``A-no-1-1bar-2-3bar``
  forbidding small parts;
* the variant family ``Avee``: overlines only on odd parts larger than 1, the
  same gap rule, except that an overlined 5 and a plain 1 may coexist.

Two independent enumeration routes are provided.  The oracle sweeps every
partition of every size up to an order once, unpruned, in one depth-first
pass, ``_ascending_sweep``, which flags a partition with a pair that fails
the gap clause ``_gap_ok`` and lets its descendants inherit the flag.  It
expands the overline choices of the partitions without the flag into
canonical parts tuples, which per-family tuple predicates filter; no
overline choice can rescue a partition that fails, so nothing is lost.  It
gives the members of every size at once (``oracle_members_by_size``).
The other route reads the gap rule
from one table of parts by value, ``_gap4_parts``.  A gap-constrained walk
lists every member up to an order in one pass (``enum_set``), and a
transfer over the largest part counts the members by weight without
listing them (``weighted_gf``, ``table_A``).
"""

from __future__ import annotations

import sys
from itertools import chain, compress, groupby, product as iter_product
from typing import Callable, Iterable, Iterator, Sequence

from .record import Record
from .series import _WORDS, QUIN_VARS, QX_VARS, QXY_VARS, Mono, Series, VarSet, _check_keys, _word_bytes

Part = tuple[int, bool]  # (value, overlined)

SET_A = "A"
SET_A_NO_1BAR = "A-no-1bar"
SET_A_NO_1_1BAR = "A-no-1-1bar"
SET_A_NO_1_1BAR_2_3BAR = "A-no-1-1bar-2-3bar"
SET_AVEE = "Avee"

SET_IDS = (SET_A, SET_A_NO_1BAR, SET_A_NO_1_1BAR, SET_A_NO_1_1BAR_2_3BAR, SET_AVEE)

_FORBIDDEN: dict[str, frozenset[Part]] = {
    SET_A: frozenset(),
    SET_A_NO_1BAR: frozenset({(1, True)}),
    SET_A_NO_1_1BAR: frozenset({(1, False), (1, True)}),
    SET_A_NO_1_1BAR_2_3BAR: frozenset({(1, False), (1, True), (2, False), (3, True)}),
}


class InvalidOverpartition(ValueError):
    pass


class Overpartition(Record):
    """Canonical form: parts ascending by value, overlined copy first."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Part, ...]) -> None:
        seen_overlined = set()
        for value, overlined in parts:
            if value < 1:
                raise InvalidOverpartition(f"part value {value} < 1")
            if overlined:
                if value in seen_overlined:
                    raise InvalidOverpartition(f"value {value} overlined twice")
                seen_overlined.add(value)
        object.__setattr__(self, "parts", tuple(sorted(parts, key=lambda p: (p[0], not p[1]))))

    @classmethod
    def of(cls, *parts: int | Part) -> "Overpartition":
        """Build from part values; a tuple (v, True) marks an overline."""
        norm: list[Part] = []
        for p in parts:
            if isinstance(p, int):
                norm.append((p, False))
            else:
                norm.append((p[0], bool(p[1])))
        return cls(tuple(norm))

    @property
    def size(self) -> int:
        return sum(v for v, _ in self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def render(self) -> str:
        """Largest part first; an overline shows as a trailing tilde."""
        return " ".join(f"{v}~" if o else str(v) for v, o in reversed(self.parts))

    def to_json(self) -> list[dict]:
        return [{"value": v, "overlined": o} for v, o in self.parts]

    def __repr__(self) -> str:
        return f"Overpartition({self.render() or 'empty'})"


EMPTY = Overpartition(())


class PartStats(Record):
    """An overpartition's size and its counts of parts: all, by residue, and overlined."""

    __slots__ = _fields = ("size", "length", "r1mod2", "r2mod4", "r0mod4", "over")

    def __init__(
        self,
        size: int,
        length: int,
        r1mod2: int,  # parts that are odd
        r2mod4: int,  # parts congruent to 2 mod 4
        r0mod4: int,  # parts divisible by 4
        over: int,  # overlined parts
    ) -> None:
        set_ = object.__setattr__
        set_(self, "size", size)
        set_(self, "length", length)
        set_(self, "r1mod2", r1mod2)
        set_(self, "r2mod4", r2mod4)
        set_(self, "r0mod4", r0mod4)
        set_(self, "over", over)

    def to_dict(self) -> dict[str, int]:
        """The counts by name, in field order, as ``enum --json --stats`` prints them."""
        return {name: getattr(self, name) for name in self._fields}


def stats(op: Overpartition) -> PartStats:
    size = length = odd = two = four = over = 0
    for v, o in op.parts:
        size += v
        length += 1
        if v % 2:
            odd += 1
        elif v % 4 == 2:
            two += 1
        else:
            four += 1
        if o:
            over += 1
    return PartStats(size, length, odd, two, four, over)


# -- membership predicates ----------------------------------------------------


def _gap_ok(lo: Part, hi: Part) -> bool:
    d = hi[0] - lo[0]
    if d > 4:
        return True
    return d == 4 and not hi[1] and hi[0] % 4 != 0


def _parts_in_A(parts: tuple[Part, ...], forbidden: frozenset[Part] | set[Part] = frozenset()) -> bool:
    """Membership in A minus the ``forbidden`` parts, for a canonical parts tuple."""
    prev = None
    for part in parts:
        if part[1] and part[0] % 2 == 0:
            return False
        if part in forbidden:
            return False
        if prev is not None and not _gap_ok(prev, part):
            return False
        prev = part
    return True


def _parts_in_Avee(parts: tuple[Part, ...]) -> bool:
    """Membership in Avee for a canonical parts tuple."""
    prev = None
    for part in parts:
        if part[1] and (part[0] % 2 == 0 or part[0] == 1):
            return False
        # a plain 1 then an overlined 5 is the one sanctioned gap exception
        if prev is not None and not _gap_ok(prev, part) and (prev, part) != ((1, False), (5, True)):
            return False
        prev = part
    return True


def in_A(op: Overpartition) -> bool:
    return _parts_in_A(op.parts)


def _parts_predicate(setid: str) -> Callable[[tuple[Part, ...]], bool]:
    if setid == SET_AVEE:
        return _parts_in_Avee
    if setid in _FORBIDDEN:
        forb = _FORBIDDEN[setid]
        return lambda parts: _parts_in_A(parts, forb)
    raise KeyError(f"unknown set id {setid!r}; expected one of {SET_IDS}")


# -- exhaustive enumeration (the slow oracle) ----------------------------------


def _ascending_sweep(order: int, ok: Sequence[Sequence[bool]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(size, parts)`` for every ascending partition of size <= order whose consecutive parts pass ``ok``.

    One depth-first pass over ascending lists of parts (Knuth, TAOCP 4A,
    7.2.1.4) visits every partition of every size <= order exactly once: the
    children of a partition append one part at least its largest, smallest
    first, so the partitions of one size come out in lexicographic order.
    ``ok[lo][hi]`` says whether part hi may follow part lo, and each
    partition with two or more parts reads it once, for its last pair.  A
    partition fails when one of its consecutive pairs fails, so a failing
    pair sets a flag that its descendants inherit; the walk still goes on
    below it, and only partitions without the flag are yielded.  So the
    walk is the same whatever the table holds.  ``parts`` is a fresh tuple,
    smallest part first; the empty partition comes first.
    """
    parts = [0] * (order + 1)
    first = [True] * (order + 1)  # the first part follows nothing, so every value passes

    def below(k: int, last: int, size: int, failed: bool) -> Iterator[tuple[int, tuple[int, ...]]]:
        row = ok[last] if k else first
        for v in range(last or 1, order - size + 1):
            flag = not row[v] or failed
            parts[k] = v
            if not flag:
                yield size + v, tuple(parts[:k + 1])
            if size + 2 * v <= order:  # room for one more part, at least v
                yield from below(k + 1, v, size + v, flag)

    yield 0, ()
    yield from below(0, 0, 0, False)


def _all_pass(order: int) -> list[list[bool]]:
    """The pair table that passes every pair, so that the sweep yields every partition."""
    return [[True] * (order + 1)] * (order + 1)


def _runs(parts: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """An ascending list of parts as ((value, multiplicity), ...)."""
    return tuple((v, sum(1 for _ in run)) for v, run in groupby(parts))


def _partitions_by_multiplicity(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Partitions of n as ((value, multiplicity), ...) with ascending values.

    The partitions of size n that ``_ascending_sweep`` yields through the
    all-pass table, in its order, grouped into runs of equal parts; there is
    no other partition enumerator.
    """
    return (_runs(parts) for size, parts in _ascending_sweep(n, _all_pass(n)) if size == n)


def _overlinings(partition: tuple[tuple[int, int], ...]) -> Iterator[tuple[Part, ...]]:
    """Every overpartition on one partition, as canonical parts tuples.

    Each distinct value v of multiplicity m contributes either its plain run of
    m copies or the same run with the first copy overlined.
    """
    runs = [(((v, False),) * m, ((v, True),) + ((v, False),) * (m - 1)) for v, m in partition]
    for choice in iter_product(*runs):
        yield sum(choice, ())


def _overpartition_parts(n: int) -> Iterator[tuple[Part, ...]]:
    """Every overpartition of n as a canonical parts tuple, none skipped."""
    for partition in _partitions_by_multiplicity(n):
        yield from _overlinings(partition)


def enum_overpartitions(n: int) -> list[Overpartition]:
    """Every overpartition of n, duplicate-free (partition times overline mask)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [Overpartition(parts) for parts in _overpartition_parts(n)]


def oracle_members_by_size(setid: str, order: int) -> list[set[Overpartition]]:
    """The named family's members of every size <= order, indexed by size, by its predicate.

    One sweep to the order (``_ascending_sweep``) through a table
    ``ok[lo][hi]`` of ``_gap_ok`` on plain parts, built here on each call so
    that a changed gap clause reaches it.  Only a partition whose consecutive
    parts all pass (each value once, consecutive values at least 4 apart) is
    yielded; it is grouped into (value, multiplicity) runs and has its
    overline choices expanded, and each expanded tuple goes
    through the family predicate.  Nothing is lost: every family predicate
    requires ``_gap_ok`` of each consecutive pair, ``_gap_ok`` ignores the
    lower part's overline, and an overlined upper part never passes where
    the plain one fails.  The one exception, Avee's plain 1 before an
    overlined 5, has plain values that pass.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    pred = _parts_predicate(setid)
    ok = [[_gap_ok((lo, False), (hi, False)) for hi in range(order + 1)] for lo in range(order + 1)]
    members: list[set[Overpartition]] = [set() for _ in range(order + 1)]
    for size, parts in _ascending_sweep(order, ok):
        members[size].update(Overpartition(op) for op in _overlinings(_runs(parts)) if pred(op))
    return members


# -- the gap rule, the walk that lists members, the transfer that counts them --


def weight_monomial(st: PartStats) -> tuple[int, ...]:
    """x^length y1^r2mod4 y2^r0mod4 z^over q^size as an exponent vector over ``QUIN_VARS``."""
    return QUIN_VARS.m(q=st.size, x=st.length, y1=st.r2mod4, y2=st.r0mod4, z=st.over)


# The non-q part of the packed weight of a member holding one part, by the
# part's value mod 4 and its overline: its weight depends on nothing else.
_NONQ_DELTA = {
    (v % 4, overlined): QUIN_VARS.pack(weight_monomial(stats(Overpartition(((v, overlined),)))))
    & ((1 << QUIN_VARS.shifts[0]) - 1)
    for v in (1, 2, 3, 4)
    for overlined in (False, True)
}

# One part of a family at one value: (part, non-q key delta, allowed at the tight gap).
PartRule = tuple[Part, int, bool]


def _gap4_parts(setid: str, order: int) -> list[tuple[PartRule, ...]]:
    """The named family's gap rule, as its parts by value: ``parts[v]`` for v <= order.

    ``parts[v]`` lists each part of value v the family admits, the overlined
    copy first, with its non-q key delta and whether it may sit at the tight
    gap.  A part more than 4 above the largest part so far is always
    allowed.  One exactly 4 above it, at the tight gap, must be plain and not
    divisible by 4, except that in Avee an overlined 5 may follow a 1.  The
    walk and the transfer both read the rule from here, apart from the
    oracle's ``_gap_ok`` and predicates.
    """
    if setid == SET_AVEE:
        forbidden, min_overlined, avee = frozenset(), 3, True
    elif setid in _FORBIDDEN:
        forbidden, min_overlined, avee = _FORBIDDEN[setid], 1, False
    else:
        raise KeyError(f"unknown set id {setid!r}; expected one of {SET_IDS}")
    parts: list[tuple[PartRule, ...]] = [()]
    for v in range(1, order + 1):
        r = v % 4
        row = []
        if r % 2 and v >= min_overlined and (v, True) not in forbidden:
            row.append(((v, True), _NONQ_DELTA[r, True], avee and v == 5))
        if (v, False) not in forbidden:
            row.append(((v, False), _NONQ_DELTA[r, False], r != 0))
        parts.append(tuple(row))
    return parts


# A node of the gap-4 walk: (key, tight, part, parent).  ``key`` is the
# member's weight monomial x^length y1^r2mod4 y2^r0mod4 z^over q^size packed
# over QUIN_VARS, ``tight`` its largest part plus 4 (0 for the empty member),
# ``part`` its largest part and ``parent`` the node it extends (both None at
# the root).
Node = tuple[int, int, "Part | None", "Node | None"]


def _walk_gap4(setid: str, order: int) -> Iterator[Node]:
    """Every member of the named family with size <= order, as a walk node.

    One depth-first walk over ascending parts, under the gap rule of
    ``_gap4_parts``.  Every prefix of a member is a member, so each node is
    yielded, before its extensions.  A child's key is its parent's plus the
    part's delta, and no parts tuple is built.  Members of one size come out
    in lexicographic order of their parts, a plain part before its overlined
    copy.  Only ``enum_set`` walks: it lists members, where the counts need
    only their number (``weighted_gf``).
    """
    top = QUIN_VARS.shifts[0]
    # The children a part value v can make, (delta, v + 4, part) in push order:
    # larger values first and, for one value, the overlined copy before the
    # plain part, so that smaller and plain parts are walked first.  ``loose``
    # lists them for v above the node's tight value; ``at_tight[v]`` for v
    # equal to it.
    loose: list[tuple[int, int, Part]] = []
    at_tight: list[list[tuple[int, int, Part]]] = [[] for _ in range(order + 1)]
    above = [0] * (order + 1)  # above[v]: how many entries of ``loose`` have a value above v
    parts = _gap4_parts(setid, order)
    for v in range(order, 0, -1):
        for part, delta, tight_ok in parts[v]:
            loose.append((delta + (v << top), v + 4, part))
            if tight_ok:
                at_tight[v].append(loose[-1])
        above[v - 1] = len(loose)
    stack: list[Node] = [(0, 0, None, None)]
    push = stack.append
    while stack:
        node = stack.pop()
        yield node
        key, tight = node[0], node[1]
        room = order - (key >> top)
        if tight > room:
            continue
        for delta, nxt, part in loose[above[room]:above[tight]]:
            push((key + delta, nxt, part, node))
        if tight:
            for delta, nxt, part in at_tight[tight]:
                push((key + delta, nxt, part, node))


def _parts_of(node: Node) -> tuple[Part, ...]:
    """The parts of a walk node's member, smallest first, read up its parent links."""
    parts = []
    while node[2] is not None:
        parts.append(node[2])
        node = node[3]
    return tuple(reversed(parts))


def enum_set(setid: str, n: int) -> list[Overpartition]:
    """Members of the named family with size exactly n, in the order of the gap-4 walk."""
    if n < 0:
        raise ValueError("n must be >= 0")
    least = n << QUIN_VARS.shifts[0]  # the least key of size n
    return [Overpartition(_parts_of(node)) for node in _walk_gap4(setid, n) if node[0] >= least]


def weighted_gf(setid: str, order: int) -> Series:
    """Quinvariate generating function of the named family, truncated at order: its members counted by weight.

    A transfer over the largest part (Stanley, EC1 4.7) rather than a walk
    over the members.  ``H[v]`` maps the non-q part of a weight,
    ``key & ((1 << top) - 1)``, to one int that packs in unsigned slots, one
    per size, how many members of that weight have largest part v.  Such a
    member is a smaller one with a part of value v added.  So ``H[v]`` is
    ``below`` (the empty member and every ``H[p]`` with p <= v - 5) times
    each part at v, plus ``H[v - 4]`` times each part allowed at the tight
    gap (``_gap4_parts``).  Times a part adds its delta to the group's key
    and moves the int up v slots, after a cut to the order - v + 1 slots
    that can still fit.  Step v reads ``H[v - 5]`` and ``H[v - 4]`` only, so
    five are kept.

    Every slot, also of ``below``, counts members of one weight and size, so
    it is at most the members of that size.  A first pass with the non-q
    deltas dropped counts those, in slots that hold 3**order: a member of
    size s is a word over (absent, plain, overlined) at the values 1..s.
    ``_count_bytes`` sizes the slot from it, so no slot carries.  The group
    keys are checked before decoding: a part adds at most 1 to each non-q
    field, and every intermediate group lands in the total, so a field that
    reached ``LIMIT`` is refused before it could carry.  ``_decode`` reads them.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    steps = [([d for _, d, _ in row], [d for _, d, tight in row if tight]) for row in _gap4_parts(setid, order)]

    def transfer(steps: list[tuple[list[int], list[int]]], width: int) -> dict[int, int]:
        below: dict[int, int] = {0: 1}
        last: list[dict[int, int]] = [{}, {}, {}, {}, {}]  # last[p % 5] = H[p]
        for v in range(1, order + 1):
            for k, p in last[v % 5].items():  # H[v - 5] joins below
                below[k] = below.get(k, 0) + p
            keep, shift = (1 << width * (order + 1 - v)) - 1, width * v
            h: dict[int, int] = {}
            loose, tight = steps[v]
            for source, deltas in ((below, loose), (last[(v - 4) % 5], tight)):
                for k, p in source.items():
                    p &= keep
                    if p:
                        p <<= shift
                        for d in deltas:
                            h[k + d] = h.get(k + d, 0) + p
            last[v % 5] = h
        for h in last:
            for k, p in h.items():
                below[k] = below.get(k, 0) + p
        return below

    flat = [([0] * len(loose), [0] * len(tight)) for loose, tight in steps]
    nbytes = _count_bytes(lambda width: transfer(flat, width).values(), 3**order, order)
    groups = transfer(steps, 8 * nbytes)
    _check_keys(QUIN_VARS, groups)
    return _decode(groups, order, nbytes)


# -- the walk route's count codec ----------------------------------------------------
#
# The gap-4 transfer and ``lpi.Automaton`` size their unsigned slots and decode
# here; no pair entry puts the one against the other.


def _words(data: bytes, nbytes: int) -> Sequence[int]:
    """The unsigned slots of ``nbytes`` in ``data``, lowest first, read in native byte order."""
    fmt = _WORDS.get(nbytes)
    if fmt:
        return memoryview(data).cast(fmt)
    return [int.from_bytes(data[i : i + nbytes], sys.byteorder) for i in range(0, len(data), nbytes)]


def _count_bytes(members: Callable[[int], Iterable[int]], bound: int, order: int) -> int:
    """Bytes per unsigned slot of a count in which no slot exceeds the members of its size.

    ``members(width)`` runs the count with its non-q keys dropped, in ``width``-bit slots, and
    yields ints that sum to the members by size 0..order.  ``bound`` bounds each of those, so
    that run carries nowhere.  Its largest count sets the slot, rounded up to a native word.
    """
    wide = _word_bytes(bound.bit_length())
    totals = _words(sum(members(8 * wide)).to_bytes((order + 1) * wide, sys.byteorder), wide)
    return _word_bytes(max(totals).bit_length())


def _decode(groups: dict[int, int], order: int, nbytes: int) -> Series:
    """The series of q-packed groups: slot n of the int at non-q key k is the coefficient of k * q^n.

    Each group is read from its lowest nonzero slot to its highest, and all
    of them in one buffer; a group with a slot past the order raises ``OverflowError``.
    """
    top, width = QUIN_VARS.shifts[0], 8 * nbytes
    chunks, keys = [], []
    for k, p in groups.items():
        lo, hi = ((p & -p).bit_length() - 1) // width, (p.bit_length() - 1) // width + 1
        chunks.append((p >> width * lo).to_bytes((min(hi, order + 1) - lo) * nbytes, sys.byteorder))
        keys.append(range(k + (lo << top), k + (hi << top), 1 << top))
    words = _words(b"".join(chunks), nbytes)
    return Series._raw(QUIN_VARS, order, dict(zip(compress(chain.from_iterable(keys), words), filter(None, words))))


# -- weighted counters ----------------------------------------------------------

# table_X counts every size up to the order in one pass.  The A side reads the
# gap-4 transfer of Avee.  The B side reads the product of distinct 4-regular
# partitions, ``products.distinct_4regular``: the two sides of thm15, thmA1 and
# thmA2 are the walk route and the product route, so they share no kernel.


def _table_A_class(key: int) -> tuple[int, int]:
    """(m, ell) of ``table_A`` for the non-q part of a weight; r1mod2 is length - r2mod4 - r0mod4."""
    _, length, two, four, over = QUIN_VARS.unpack(key)
    return length - two + four, two + over


def table_A(order: int) -> dict[tuple[int, int, int], int]:
    """(n, m, ell) -> Avee members of size n with r1mod2 + 2*r0mod4 = m, r2mod4 + over = ell.

    The terms of ``weighted_gf(SET_AVEE, order)`` summed by class, each non-q part classed once.
    """
    top = QUIN_VARS.shifts[0]
    classes: dict[int, tuple[int, int]] = {}
    out: dict[tuple[int, int, int], int] = {}
    for key, c in weighted_gf(SET_AVEE, order)._terms.items():
        part = key & ((1 << top) - 1)
        if part not in classes:
            classes[part] = _table_A_class(part)
        cls = (key >> top, *classes[part])
        out[cls] = out.get(cls, 0) + c
    return out


def _collapse(table: dict, weight: int) -> dict[tuple[int, int], int]:
    """The (n, m, ell) counts of ``table_A`` summed into (n, m + weight*ell)."""
    out: dict[tuple[int, int], int] = {}
    for (n, m, ell), c in table.items():
        key = (n, m + weight * ell)
        out[key] = out.get(key, 0) + c
    return out


def _b_table(vars: VarSet, order: int, even: Mono) -> dict[tuple[int, ...], int]:
    """The terms of ``distinct_4regular(vars, order, even)``, keyed by exponent vector, q first."""
    from .products import distinct_4regular  # products imports multisum, which imports lpi, which imports this module

    return dict(distinct_4regular(vars, order, even).items())


def table_B(order: int) -> dict[tuple[int, int, int], int]:
    """(n, m, ell) -> distinct 4-regular partitions of n, m odd parts and ell even parts."""
    return _b_table(QXY_VARS, order, QXY_VARS.m(y=1))


def table_A1(order: int) -> dict[tuple[int, int], int]:
    """(n, m) -> Avee members of n of weight m: overlined parts or parts = 0 mod 4 count double.

    That weight is length + over + r0mod4 = m + ell of ``table_A``.
    """
    return _collapse(table_A(order), 1)


def table_B1(order: int) -> dict[tuple[int, int], int]:
    """(n, m) -> distinct 4-regular partitions of n into m parts."""
    return _b_table(QX_VARS, order, QX_VARS.m(x=1))


def table_A2(order: int) -> dict[tuple[int, int], int]:
    """(n, m) -> Avee members of n of weight m: overlined parts triple, even parts double.

    That weight is r1mod2 + 2*(over + r2mod4 + r0mod4) = m + 2*ell of ``table_A``.
    """
    return _collapse(table_A(order), 2)


def table_B2(order: int) -> dict[tuple[int, int], int]:
    """(n, m) -> partitions of n into m odd parts, none appearing more than three times.

    Read as distinct 4-regular partitions of n with a part = 2 mod 4 weighted
    x^2: since (1 + a)(1 + a^2) = 1 + a + a^2 + a^3, a part 2v with v odd is
    two copies of v (Glaisher's bijection; Andrews, The Theory of Partitions, ch. 1).
    """
    return _b_table(QX_VARS, order, QX_VARS.m(x=2))
