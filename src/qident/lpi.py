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
linking incidence, which is how g_vector computes them.  F_k = sum of G_j over
the linking set of block k (f_vector), each distinct set summed once from the
largest summed set it contains.
"""

from __future__ import annotations

import json

from .partitions import EMPTY, InvalidOverpartition, Overpartition, Part, stats, weight_monomial
from .record import Record
from .series import Mono, QUIN_VARS, Series


class LpiError(ValueError):
    pass


class NotInLanguage(LpiError):
    """The overpartition is not generated by the ideal."""


class UnknownBlock(NotInLanguage):
    """A shifted block does not belong to the alphabet."""


class LinkingViolation(NotInLanguage):
    """Consecutive chain blocks are not linked."""


class LpiSpec(Record):
    """A linked partition ideal: its blocks, the linking set of each, and the modulus."""

    __slots__ = _fields = ("blocks", "linking", "modulus")

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
    looked up as a canonical parts tuple among the blocks' own.
    """
    t = spec.modulus
    index = {b.parts: i for i, b in enumerate(spec.blocks)}
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
        k = index.get(tuple(bucket))
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


def language(spec: LpiSpec, n: int) -> list[Overpartition]:
    """The language members of size n (depth-first over chains).

    The walk carries each chain as its (block, depth) pairs and the chain's
    size; a parts tuple is built only for a chain of size n.
    """
    out = [EMPTY] if n == 0 else []
    t = spec.modulus
    sizes = [b.size for b in spec.blocks]
    lengths = [len(b) for b in spec.blocks]

    def rec(prev: int, depth: int, acc_size: int, chain: tuple[tuple[int, int], ...]) -> None:
        offset = depth * t
        # Any nonempty block at this offset adds at least offset + 1.
        if acc_size + offset + 1 > n:
            return
        for k in spec.linking[prev]:
            if k == 0:
                continue
            size = acc_size + sizes[k] + offset * lengths[k]
            if size == n:
                out.append(Overpartition(tuple(
                    (v + d * t, o) for j, d in chain + ((k, depth),) for v, o in spec.blocks[j].parts
                )))
            elif size < n:
                rec(k, depth + 1, size, chain + ((k, depth),))
        # An empty block defers everything one offset deeper.
        rec(0, depth + 1, acc_size, chain)

    rec(0, 0, 0, ())
    return out


def g_vector(spec: LpiSpec, order: int) -> list[Series]:
    """All G_k at once via the depth-indexed recursion.

    G_k at depth d is G_k with x already shifted to x*q^{T*d}; beyond
    d = ceil(order/T) every nonempty member's weight exceeds the order, so the
    vector degenerates to (1, 0, ..., 0) and the recursion unwinds to depth 0.
    """
    t = spec.modulus
    k = spec.size
    weights = spec.weights()
    depth_limit = order // t + 1
    current = [Series.one(QUIN_VARS, order)] + [Series.zero(QUIN_VARS, order) for _ in range(k - 1)]
    for d in range(depth_limit - 1, -1, -1):
        current = [
            total.mul_monomial((w[0] + t * d * w[1], *w[1:]))
            for w, total in zip(weights, f_vector(spec, current))
        ]
    return current


def f_vector(spec: LpiSpec, vec: list[Series]) -> list[Series]:
    """For each block k, the sum of vec[j] over the linking set of block k.

    Each distinct linking set is summed once, smaller sets first, starting
    from the largest set already summed that it contains and adding the
    blocks that set lacks; a set with no summed subset is summed from
    scratch.  Blocks with equal linking sets share one series.  The gap-4
    sets are nested, so its seven sums add 7 series, not 31.
    """
    vars, order = vec[0].vars, vec[0].order
    sums: dict[frozenset[int], Series] = {}
    for link in sorted(set(spec.linking), key=lambda s: (len(s), sorted(s))):
        base = max((t for t in sums if t <= link), key=len, default=frozenset())
        start = [sums[base]] if base else []
        sums[link] = Series.sum(vars, order, start + [vec[j] for j in sorted(link - base)])
    return [sums[link] for link in spec.linking]


def matrices(spec: LpiSpec) -> tuple[tuple[tuple[int, ...], ...], tuple[Mono, ...]]:
    """Linking incidence A (A[k][j] = 1 iff block j may follow block k) and weights W."""
    a = tuple(
        tuple(1 if j in spec.linking[i] else 0 for j in range(spec.size))
        for i in range(spec.size)
    )
    return a, spec.weights()
