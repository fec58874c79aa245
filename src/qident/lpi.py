"""Span-one linked partition ideal automaton over overpartition blocks.

An ideal is given by a finite block alphabet (first block empty), a linking
map saying which blocks may follow which, and a modulus T at least the largest
block part.  Its language is every overpartition assembled by placing a chain
of linked blocks at offsets 0, T, 2T, ...; chains are normalized to end in a
nonempty block, and the empty chain yields the empty overpartition.

The weight of a block is the quinvariate statistic monomial
x^length y1^r2mod4 y2^r0mod4 z^over q^size.  G_k collects the weights of all
language members whose offset-0 block is block k; the vector of G_k satisfies
G = W . A . G(x -> x q^T) with W the diagonal of block weights and A the 0/1
linking incidence.  F_k = sum of G_j over the linking set of block k, each
distinct set summed once from the largest summed set it contains (``_plan``),
and the vector of F_k satisfies F = A . W . F(x -> x q^T).

``gap4_ideal`` and ``matrices`` state the seven-block system of the gap-4
family once: the automaton runs it, and the multi-sum closure of
``multisum.verify_matrix_relation`` reads its incidence and weights.

``Automaton`` runs that recursion once, depth by depth, on series packed
along q (one int per non-q part of a weight, one unsigned slot per
q-degree) and decodes only the series a caller reads; ``g_vector`` reads
every G_k.  The F sums are formed there and nowhere else.
"""

from __future__ import annotations

import json
from itertools import chain

from .partitions import EMPTY, InvalidOverpartition, Overpartition, Part, _count_bytes, _decode, stats, weight_monomial
from .record import Record
from .series import Mono, QUIN_VARS, Series, _check_keys


class LpiError(ValueError):
    pass


class NotInLanguage(LpiError):
    """The overpartition is not generated by the ideal."""


class UnknownBlock(NotInLanguage):
    """A shifted block does not belong to the alphabet."""


class LinkingViolation(NotInLanguage):
    """Consecutive chain blocks are not linked."""


class LpiSpec(Record):
    """A linked partition ideal: its blocks, the linking set of each, and the modulus.

    ``block_index`` maps each block's parts tuple to its index.  It follows
    from ``blocks``, so a spec compares, hashes, pickles and prints by its
    three fields alone.
    """

    __slots__ = ("blocks", "linking", "modulus", "block_index")
    _fields = ("blocks", "linking", "modulus")

    def __init__(
        self,
        blocks: tuple[Overpartition, ...],
        linking: tuple[frozenset[int], ...],
        modulus: int,
    ) -> None:
        k = len(blocks)
        if k == 0 or blocks[0] != EMPTY:
            raise LpiError("first block must be the empty overpartition")
        if len(linking) != k:
            raise LpiError("one linking set per block required")
        everything = frozenset(range(k))
        if linking[0] != everything:
            raise LpiError("the empty block must link to every block")
        for i, link in enumerate(linking):
            if not link <= everything:
                raise LpiError(f"linking set {i} mentions unknown blocks")
            if 0 not in link:
                raise LpiError(f"linking set {i} must contain the empty block")
        largest = max((v for b in blocks for v, _ in b.parts), default=0)
        if modulus < max(largest, 1):
            raise LpiError(f"modulus {modulus} smaller than largest block part {largest}")
        if len(set(blocks)) != k:
            raise LpiError("blocks must be distinct")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "linking", linking)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "block_index", {b.parts: i for i, b in enumerate(blocks)})

    @property
    def size(self) -> int:
        return len(self.blocks)

    def weights(self) -> tuple[Mono, ...]:
        return tuple(weight_monomial(stats(b)) for b in self.blocks)

    def to_json(self) -> str:
        doc = {
            "blocks": [b.to_json() for b in self.blocks],
            "linking": [sorted(i + 1 for i in link) for link in self.linking],
            "modulus": self.modulus,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "LpiSpec":
        """Read the document ``to_json`` writes; any other input raises LpiError."""
        doc = json.loads(text)
        try:
            blocks = tuple(
                Overpartition(tuple(
                    (_json_of(int, p["value"]), _json_of(bool, p["overlined"])) for p in block
                ))
                for block in doc["blocks"]
            )
            linking = tuple(
                frozenset(_json_of(int, i) - 1 for i in link) for link in doc["linking"]
            )
            modulus = _json_of(int, doc["modulus"])
        except (KeyError, TypeError, InvalidOverpartition) as exc:
            raise LpiError(f"malformed ideal document: {exc}") from exc
        return cls(blocks, linking, modulus)


def _json_of(kind: type, value):
    """``value`` if its JSON type is ``kind``; a JSON true is not the integer 1."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def gap4_ideal() -> LpiSpec:
    """The seven-block ideal whose language is the gap-4 overpartition family.

    Blocks: empty, 1, overlined 1, 2, 3, overlined 3, 4 at modulus 4.  A block
    with a part congruent to 1 forbids a following overlined 1; blocks 3 and
    overlined 3 admit only empty, 3, or 4 next; block 4 forces a gap.
    """
    b = (
        EMPTY,
        Overpartition.of(1),
        Overpartition.of((1, True)),
        Overpartition.of(2),
        Overpartition.of(3),
        Overpartition.of((3, True)),
        Overpartition.of(4),
    )
    linking = (
        frozenset(range(7)),
        frozenset({0, 1, 3, 4, 5, 6}),
        frozenset({0, 1, 3, 4, 5, 6}),
        frozenset({0, 3, 4, 5, 6}),
        frozenset({0, 4, 6}),
        frozenset({0, 4, 6}),
        frozenset({0}),
    )
    return LpiSpec(b, linking, 4)


def compose(spec: LpiSpec, chain: tuple[int, ...]) -> Overpartition:
    """Assemble the overpartition of a chain of 0-based block indices.

    The block at depth d adds its parts shifted by d*T to one list; blocks
    lie in [1, T], so the list comes out canonical, and one Overpartition
    is built from it at the end.
    """
    if chain and chain[-1] == 0:
        raise LpiError("chains must end in a nonempty block (trailing empties are implicit)")
    t = spec.modulus
    prev = 0
    parts: list[Part] = []
    for depth, k in enumerate(chain):
        if not 0 <= k < spec.size:
            raise LpiError(f"block index {k} out of range")
        if depth > 0 and k not in spec.linking[prev]:
            raise LinkingViolation(f"block {k} may not follow block {prev}")
        offset = depth * t
        parts.extend((v + offset, o) for v, o in spec.blocks[k].parts)
        prev = k
    return Overpartition(tuple(parts))


def decompose(spec: LpiSpec, op: Overpartition) -> tuple[int, ...]:
    """The unique chain composing to ``op``; raises if op is outside the language.

    Parts with value in [i*T+1, (i+1)*T] belong to the block at offset i*T.
    ``op``'s parts are canonical, so each offset's parts, shifted back, are
    looked up as a canonical parts tuple in the spec's ``block_index``.
    """
    t = spec.modulus
    if not op.parts:
        return ()
    depth = (op.parts[-1][0] - 1) // t
    buckets: list[list[Part]] = [[] for _ in range(depth + 1)]
    for v, o in op.parts:
        i = (v - 1) // t
        buckets[i].append((v - i * t, o))
    chain: list[int] = []
    prev = 0
    for i, bucket in enumerate(buckets):
        k = spec.block_index.get(tuple(bucket))
        if k is None:
            block = Overpartition(tuple(bucket))
            raise UnknownBlock(f"offset {i * t}: block {block.render() or 'empty'} not in alphabet")
        if i > 0 and k not in spec.linking[prev]:
            raise LinkingViolation(
                f"offset {i * t}: block {k} may not follow block {prev}"
            )
        chain.append(k)
        prev = k
    return tuple(chain)


Chain = tuple[tuple[int, int], ...]  # (block, depth) of each nonempty block, shallowest first


def _chains(spec: LpiSpec, order: int, least: int) -> list[list[Chain]]:
    """The chains of each size from ``least`` to ``order``: ``chains[n]`` lists those of size n, depth first.

    One walk visits every chain of size <= order once and keeps those of
    size at least ``least``.  A chain lists its nonempty blocks with their
    depths, so its member's parts are each block's shifted by depth * T.
    A nonempty block at depth d adds its size plus d * T per part, and an
    empty one defers everything one offset deeper; since any nonempty block
    at depth d adds at least d * T + 1, a branch ends once that no longer
    fits.
    """
    t = spec.modulus
    sizes = [b.size for b in spec.blocks]
    lengths = [len(b) for b in spec.blocks]
    chains: list[list[Chain]] = [[] for _ in range(order + 1)]

    def walk(prev: int, depth: int, acc_size: int, chain: Chain) -> None:
        offset = depth * t
        if acc_size + offset + 1 > order:
            return
        for k in spec.linking[prev]:
            if k == 0:
                continue
            size = acc_size + sizes[k] + offset * lengths[k]
            if size <= order:
                longer = chain + ((k, depth),)
                if size >= least:
                    chains[size].append(longer)
                walk(k, depth + 1, size, longer)
        walk(0, depth + 1, acc_size, chain)

    if least == 0:
        chains[0].append(())  # the empty chain
    walk(0, 0, 0, ())
    return chains


def _member(spec: LpiSpec, chain: Chain) -> Overpartition:
    """The member of a chain that ``_chains`` made: each block's parts shifted by its depth times T."""
    t = spec.modulus
    return Overpartition(tuple((v + d * t, o) for j, d in chain for v, o in spec.blocks[j].parts))


def language(spec: LpiSpec, n: int) -> list[Overpartition]:
    """The language members of size n, from one chain walk to n (``_chains``).

    A parts tuple is built only for a chain of size n.
    """
    if n < 0:
        raise LpiError(f"n must be >= 0, got {n}")
    return [_member(spec, chain) for chain in _chains(spec, n, n)[n]]


def language_by_size(spec: LpiSpec, order: int) -> list[list[Overpartition]]:
    """``language(spec, n)`` for every n <= order, indexed by n, from one chain walk to the order."""
    if order < 0:
        raise LpiError(f"order must be >= 0, got {order}")
    return [[_member(spec, chain) for chain in chains] for chains in _chains(spec, order, 0)]


def g_vector(spec: LpiSpec, order: int) -> list[Series]:
    """All G_k, decoded from one packed run of the automaton (``Automaton``)."""
    automaton = Automaton(spec, order)
    return [automaton.g(k) for k in range(spec.size)]


# -- the automaton, packed along q ----------------------------------------------

Plan = list[tuple[frozenset[int], frozenset[int], list[int]]]


def _plan(spec: LpiSpec) -> Plan:
    """How the sum over each linking set is formed: (set, base, blocks added), in summing order.

    Each distinct linking set is summed once, smaller sets first, starting
    from the largest set already summed that it contains, its base, and
    adding the blocks that the base lacks; a set with no summed subset has
    the empty base and is summed from scratch.  Blocks with equal linking
    sets share one sum.  The gap-4 sets are nested, so its seven sums add 7
    terms, not 31.
    """
    plan: Plan = []
    for link in sorted(set(spec.linking), key=lambda s: (len(s), sorted(s))):
        base = max((t for t, _, _ in plan if t <= link), key=len, default=frozenset())
        plan.append((link, base, sorted(link - base)))
    return plan


def _aggregate(plan: Plan, vec: list[dict[int, int]]) -> dict[frozenset[int], dict[int, int]]:
    """linking set -> the sum of the groups of ``vec`` over it, each set formed as ``plan`` says."""
    sums: dict[frozenset[int], dict[int, int]] = {}
    for link, base, added in plan:
        sums[link] = _add_groups(([sums[base]] if base else []) + [vec[j] for j in added])
    return sums


def _add_groups(parts: list[dict[int, int]]) -> dict[int, int]:
    """The sum of q-packed groups, one int add per key.

    No group dict is changed once it is built, so a single part is its own
    sum; otherwise the largest part is copied and the others added into it.
    """
    if len(parts) == 1:
        return parts[0]
    big, *rest = sorted(parts, key=len, reverse=True)
    acc = dict(big)
    get = acc.get
    for part in rest:
        for k, p in part.items():
            acc[k] = get(k, 0) + p
    return acc


def _g_groups(spec: LpiSpec, plan: Plan, order: int, keys: list[int], width: int) -> list[dict[int, int]]:
    """The q-packed groups of every G_k: non-q key -> one int of unsigned ``width``-bit slots, one per q-degree.

    ``keys[k]`` is the non-q part of block k's weight.  At depth d block k
    adds its key and moves each group of F_k up q + T*d*x slots, its weight's
    q- and x-exponents, after a cut to the order + 1 - (q + T*d*x) slots that
    can still fit.  Every key made is checked against the guard mask before
    the next depth adds to it, so a field that reaches ``LIMIT`` raises
    ``ExponentOverflow`` before it could carry.
    """
    t = spec.modulus
    steps = [(w[0], w[1], key, link) for w, key, link in zip(spec.weights(), keys, spec.linking)]
    vec: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(spec.size - 1)]
    for d in range(order // t, -1, -1):
        sums = _aggregate(plan, vec)
        vec = []
        for q, x, key, link in steps:
            e, groups = q + t * d * x, sums[link]
            if e > order:
                vec.append({})
            elif not (e or key):  # the empty block
                vec.append(groups)
            else:
                keep, shift = (1 << width * (order + 1 - e)) - 1, width * e
                vec.append({k + key: m << shift for k, p in groups.items() if (m := p & keep)})
        _check_keys(QUIN_VARS, chain.from_iterable(vec))
    return vec


class Automaton:
    """G_k and F_k of an ideal to an order, run once on q-packed groups.

    The depth recursion of G = W . A . G(x -> x q^T) runs on groups:
    each G_k and F_k is a dict from the non-q part of a weight to one int
    that packs, one unsigned slot per q-degree, the coefficients of that
    weight (``_g_groups``).  The F sums are int adds through the
    aggregation ``_plan``; blocks with equal linking sets share one sum, so
    their ``f`` decode the same groups.  ``g(k)`` and ``f(k)`` decode one
    series each, so a caller pays only for what it reads.

    Every coefficient at every depth counts language members of one size:
    a chain that starts at depth d with block k becomes a member once d
    empty blocks lead it, which places every block at its own offset, so
    distinct chains give distinct members, and an F sum adds chains with
    distinct first blocks.  So no slot is larger than the members of its
    size.  A first pass of the same recursion with the non-q keys dropped
    counts those: a member of size n is an overpartition of n, an ordinary
    partition of n - a and one into distinct overlined parts of a, and
    there are at most 2**m partitions of m, so there are at most
    (n + 1) * 2**n of them, and slots that hold (order + 1) * 2**order
    count them without a carry.  ``partitions._count_bytes`` sizes the slot
    of the run with the keys from it, so no slot of that run carries either,
    and ``partitions._decode`` decodes its groups: the walk route has one
    count codec, which the gap-4 transfer shares.
    """

    __slots__ = ("spec", "order", "_nbytes", "_g", "_f")

    def __init__(self, spec: LpiSpec, order: int) -> None:
        if order < 0:
            raise LpiError(f"order must be >= 0, got {order}")
        plan = _plan(spec)
        zero = [0] * spec.size  # every key mapped to 0: the G_k sum to the members by size
        nbytes = _count_bytes(
            lambda width: (g.get(0, 0) for g in _g_groups(spec, plan, order, zero, width)), (order + 1) << order, order
        )
        keys = [QUIN_VARS.pack((0, *w[1:])) for w in spec.weights()]
        g = _g_groups(spec, plan, order, keys, 8 * nbytes)
        self.spec, self.order, self._nbytes = spec, order, nbytes
        self._g, self._f = g, _aggregate(plan, g)

    def g(self, k: int) -> Series:
        """G_k, for the 0-based block index k."""
        return _decode(self._g[k], self.order, self._nbytes)

    def f(self, k: int) -> Series:
        """F_k, the sum of G_j over the linking set of the 0-based block k."""
        return _decode(self._f[self.spec.linking[k]], self.order, self._nbytes)


def matrices(spec: LpiSpec) -> tuple[tuple[tuple[int, ...], ...], tuple[Mono, ...]]:
    """Linking incidence A (A[k][j] = 1 iff block j may follow block k) and weights W."""
    a = tuple(
        tuple(1 if j in spec.linking[i] else 0 for j in range(spec.size))
        for i in range(spec.size)
    )
    return a, spec.weights()
