"""Overpartitions: the gap-4 families, their statistics, and weighted counts.

An overpartition is a partition in which the first occurrence of each distinct
part value may be overlined; overlines carry no size.  The central objects are

* the family ``A``: only odd parts may be overlined, adjacent parts differ by
  at least 4, strictly when the larger part is overlined or divisible by 4;
* its restrictions ``A-no-1bar``, ``A-no-1-1bar``, ``A-no-1-1bar-2-3bar``
  forbidding small parts;
* the variant family ``Avee``: overlines only on odd parts larger than 1, the
  same gap rule, except that an overlined 5 and a plain 1 may coexist.

Two independent enumeration routes are provided.  The oracle draws every
partition of n, unpruned, from one generator, ``_ascending_partitions``
(Kelleher and O'Sullivan's ``accel_asc``), and expands the overline choices
of those whose plain parts pass the gap clause ``_gap_ok`` pairwise into
canonical parts tuples, which per-family tuple predicates filter; no
overline choice can rescue a partition that fails, so nothing is lost.  The
other route is one gap-constrained walk that reaches every member up to an
order in one pass.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby, product as iter_product
from operator import itemgetter
from typing import Callable, Iterator

from .record import Record
from .series import QUIN_VARS, Series, _check_keys

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


def _ascending_partitions(n: int) -> Iterator[list[int]]:
    """Every partition of n exactly once, as a fresh list of parts in ascending order.

    Kelleher and O'Sullivan's ``accel_asc`` ("Generating All Partitions: A
    Comparison of Two Encodings", arXiv:0909.2331).  ``a[:k]`` holds the
    parts fixed so far and y what is left of n.  Each outer step raises the
    last fixed part to x, fills with copies of x while two more still fit,
    then yields every split of the rest into two parts x <= y and finally
    the rest as one part.  Partitions come out in lexicographic order.
    """
    if n == 0:
        yield []
        return
    a = [0] * (n + 1)
    k, y = 1, n - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        last = k + 1
        while x <= y:
            a[k] = x
            a[last] = y
            yield a[:k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[:k + 1]


def _runs(parts: list[int]) -> tuple[tuple[int, int], ...]:
    """An ascending list of parts as ((value, multiplicity), ...)."""
    return tuple((v, sum(1 for _ in run)) for v, run in groupby(parts))


def _partitions_by_multiplicity(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Partitions of n as ((value, multiplicity), ...) with ascending values.

    The lists of ``_ascending_partitions``, in its order, grouped into runs of
    equal parts; there is no other partition enumerator.
    """
    return map(_runs, _ascending_partitions(n))


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


def oracle_members(setid: str, n: int) -> set[Overpartition]:
    """Members of the named family with size n, by the family predicate.

    The exhaustive counterpart of ``enum_set``.  It draws every partition of n
    from ``_ascending_partitions`` and tests its values first, against a table
    ``ok[lo][hi]`` of ``_gap_ok`` on plain parts built on each call: only a
    partition whose consecutive parts all pass (each value once, consecutive
    values at least 4 apart) is grouped into (value, multiplicity) runs and
    has its overline choices expanded, and each expanded tuple goes through
    the family predicate.  Nothing is lost: every family predicate requires
    ``_gap_ok`` of each consecutive pair, ``_gap_ok`` ignores the lower
    part's overline, and an overlined upper part never passes where the
    plain one fails.  The one exception, Avee's plain 1 before an overlined
    5, has plain values that pass.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pred = _parts_predicate(setid)
    ok = [[_gap_ok((lo, False), (hi, False)) for hi in range(n + 1)] for lo in range(n + 1)]
    members = set()
    for parts in _ascending_partitions(n):
        prev = parts[0] if parts else 0
        for v in parts[1:]:
            if not ok[prev][v]:
                break
            prev = v
        else:
            members.update(Overpartition(op) for op in _overlinings(_runs(parts)) if pred(op))
    return members


# -- the gap-constrained walk ---------------------------------------------------

# A node of the gap-4 walk: (key, tight, part, parent).  ``key`` is the
# member's weight monomial x^length y1^r2mod4 y2^r0mod4 z^over q^size packed
# over QUIN_VARS, ``tight`` its largest part plus 4 (0 for the empty member),
# ``part`` its largest part and ``parent`` the node it extends (both None at
# the root).
Node = tuple[int, int, "Part | None", "Node | None"]


def _walk_gap4(setid: str, order: int) -> Iterator[Node]:
    """Every member of the named family with size <= order, as a walk node.

    One depth-first walk over ascending parts, with the gap rule written out
    here, apart from the oracle's predicates.  Every prefix of a member is a
    member, so each node is yielded, before its extensions.  A child's key is
    its parent's plus one delta per part, precomputed for each part value,
    and no parts tuple is built.  Members of one size come out in
    lexicographic order of their parts, a plain part before its overlined copy.
    """
    if setid == SET_AVEE:
        forbidden, min_overlined, avee = frozenset(), 3, True
    elif setid in _FORBIDDEN:
        forbidden, min_overlined, avee = _FORBIDDEN[setid], 1, False
    else:
        raise KeyError(f"unknown set id {setid!r}; expected one of {SET_IDS}")
    top = QUIN_VARS.shifts[0]

    def child(part: Part) -> tuple[int, int, Part]:
        # The key delta of a part is the packed weight of the member holding only it.
        delta = QUIN_VARS.pack(weight_monomial(stats(Overpartition((part,)))))
        return delta, part[0] + 4, part

    # The children a part value v can make, (delta, v + 4, part) in push order:
    # larger values first and, for one value, the overlined copy before the
    # plain part, so that smaller and plain parts are walked first.  ``loose``
    # lists them for v above the node's tight value; ``at_tight[v]`` for v
    # equal to it, where a part must be plain and not divisible by 4, except
    # that in Avee an overlined 5 may follow a 1.
    loose: list[tuple[int, int, Part]] = []
    at_tight: list[list[tuple[int, int, Part]]] = [[] for _ in range(order + 1)]
    above = [0] * (order + 1)  # above[v]: how many entries of ``loose`` have a value above v
    for v in range(order, 0, -1):
        r = v % 4
        if r % 2 and v >= min_overlined and (v, True) not in forbidden:
            loose.append(child((v, True)))
            if avee and v == 5:
                at_tight[v].append(loose[-1])
        if (v, False) not in forbidden:
            loose.append(child((v, False)))
            if r:
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


def _walk_keys(setid: str, order: int) -> Counter:
    """Packed weight monomial -> members of the named family with that weight, size <= order.

    A part adds at most 1 to each non-q field, and every node is counted, so
    a field that reached ``LIMIT`` would be counted, and refused here, before
    it could carry.
    """
    counts = Counter(map(itemgetter(0), _walk_gap4(setid, order)))
    _check_keys(QUIN_VARS, counts)
    return counts


def enum_set(setid: str, n: int) -> list[Overpartition]:
    """Members of the named family with size exactly n, in the order of the gap-4 walk."""
    if n < 0:
        raise ValueError("n must be >= 0")
    least = n << QUIN_VARS.shifts[0]  # the least key of size n
    return [Overpartition(_parts_of(node)) for node in _walk_gap4(setid, n) if node[0] >= least]


def weight_monomial(st: PartStats) -> tuple[int, ...]:
    """x^length y1^r2mod4 y2^r0mod4 z^over q^size as an exponent vector over ``QUIN_VARS``."""
    return QUIN_VARS.m(q=st.size, x=st.length, y1=st.r2mod4, y2=st.r0mod4, z=st.over)


def weighted_gf(setid: str, order: int) -> Series:
    """Quinvariate generating function of the named family, truncated at order.

    A walk node's key is its member's weight monomial, so counting the keys
    (in C, by ``Counter``) gives the series' terms as they are stored.
    """
    return Series._raw(QUIN_VARS, order, dict(_walk_keys(setid, order)))


# -- the B side of thm15, thmA1 and thmA2 ------------------------------------------
#
# Each family has a walk of its own, written out apart from ``_walk_gap4``: the
# two are the two sides of those identities, so they must share no walker.


def _walk_distinct_4regular(order: int) -> Iterator[tuple[int, int, int]]:
    """(size, length, odd parts) of every partition into distinct parts, none
    divisible by 4, of size <= order.

    One depth-first walk over ascending parts: a node is a partition, and its
    children add one part larger than its largest, so each partition is
    reached once.
    """
    stack = [(0, 0, 0, 1)]  # size, length, odd parts, smallest part allowed next
    while stack:
        size, length, odd, low = stack.pop()
        yield size, length, odd
        for v in range(low, order - size + 1):
            if v % 4:
                stack.append((size + v, length + 1, odd + v % 2, v + 1))


def _walk_odd_mult_le3(order: int) -> Iterator[tuple[int, int]]:
    """(size, length) of every partition into odd parts, none appearing more than
    three times, of size <= order.

    One depth-first walk over ascending part values: a node's children add one
    to three copies of an odd value larger than any it holds.
    """
    stack = [(0, 0, 1)]  # size, length, smallest odd value allowed next
    while stack:
        size, length, low = stack.pop()
        yield size, length
        for v in range(low, order - size + 1, 2):
            for mult in (1, 2, 3):
                if size + v * mult > order:
                    break
                stack.append((size + v * mult, length + mult, v + 2))


# -- weighted counters ----------------------------------------------------------

# table_X counts every size up to the order in one walk.
# The A side reads the gap-4 walk of Avee, the B side the walk of its family.


def table_A(order: int) -> dict[tuple[int, int, int], int]:
    """(n, m, ell) -> Avee members of size n with r1mod2 + 2*r0mod4 = m, r2mod4 + over = ell.

    The walk's keys are counted first, and each distinct key is unpacked and
    mapped to its table key once; r1mod2 is length - r2mod4 - r0mod4.
    """
    out: Counter = Counter()
    for packed, c in _walk_keys(SET_AVEE, order).items():
        size, length, two, four, over = QUIN_VARS.unpack(packed)
        odd = length - two - four
        out[size, odd + 2 * four, two + over] += c
    return out


def _collapse(table: dict, weight: int) -> dict[tuple[int, int], int]:
    """The (n, m, ell) counts of ``table_A`` summed into (n, m + weight*ell)."""
    out: dict[tuple[int, int], int] = {}
    for (n, m, ell), c in table.items():
        key = (n, m + weight * ell)
        out[key] = out.get(key, 0) + c
    return out


def table_B(order: int) -> dict[tuple[int, int, int], int]:
    """(n, m, ell) -> distinct 4-regular partitions of n, m odd parts and ell even parts."""
    return Counter((n, odd, length - odd) for n, length, odd in _walk_distinct_4regular(order))


def table_A1(order: int) -> dict[tuple[int, int], int]:
    """(n, m) -> Avee members of n of weight m: overlined parts or parts = 0 mod 4 count double.

    That weight is length + over + r0mod4 = m + ell of ``table_A``.
    """
    return _collapse(table_A(order), 1)


def table_B1(order: int) -> dict[tuple[int, int], int]:
    """(n, m) -> distinct 4-regular partitions of n into m parts."""
    return Counter(map(itemgetter(0, 1), _walk_distinct_4regular(order)))


def table_A2(order: int) -> dict[tuple[int, int], int]:
    """(n, m) -> Avee members of n of weight m: overlined parts triple, even parts double.

    That weight is r1mod2 + 2*(over + r2mod4 + r0mod4) = m + 2*ell of ``table_A``.
    """
    return _collapse(table_A(order), 2)


def table_B2(order: int) -> dict[tuple[int, int], int]:
    """(n, m) -> partitions of n into m odd parts, none appearing more than three times."""
    return Counter(_walk_odd_mult_le3(order))
