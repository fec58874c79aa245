"""Exact truncated multivariate formal power series.

A series lives over a fixed, ordered set of variables whose first is always
``q``, the truncation variable: monomials whose q-exponent (entry 0 of the
exponent vector) exceeds the truncation order are identically zero.
Coefficients are Python ints, so arithmetic is exact at any size.

Values are immutable once constructed; every operation returns a fresh
Series.  Nothing here mutates shared state, so series may be freely shared
across threads.

Every monomial is stored packed into one int key (Kronecker substitution;
the packed exponents of Monagan and Pearce, CASC 2007), so that multiplying
two monomials is one int addition.  The layout is fixed per ``VarSet``:
each variable after q has a field of ``W`` bits, variable 1 the most
significant of them and the last variable at bit 0, and q sits on top with no width limit.
Int order of the keys is therefore lexicographic order of the exponent
vectors, and a key's q-exponent is ``key >> top``.

Every stored non-q exponent stays below ``2**(W - 1)``, so the sum of two
stored keys never carries from one field into the next.  Each operation that
makes new keys checks them against a guard mask (the top bit of every
non-q field) and raises ``ExponentOverflow``, naming the variable, rather
than let a key wrap.  Exponents are non-negative: a monomial with a negative
entry raises ``SeriesError`` wherever one is taken (construction, ``coeff``,
``mul_monomial``, ``substitute``), since it would borrow from its neighbour.

Exponent tuples appear only at the boundary: monomial arguments, ``items``,
``coeff``, witnesses and the read-only ``terms`` view.

A product is Kronecker substitution once more, along q: each factor's terms
are grouped by their non-q part, and each group's q-polynomial is packed
into one int of fixed-width slots, one per q-degree, so that one int
multiplication multiplies two groups.  A slot holds a balanced digit, a
coefficient of absolute value below half the slot, and its width comes from
the bound ``min(max|a| * sum|b|, max|b| * sum|a|)`` on every coefficient of
the product.  Decoding adds half a slot to every slot and reads the slots
back as unsigned words in native byte order (``_slot_bytes``, ``_pack``,
``_unpack``).
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add as _add
from operator import lshift as _lshift
from operator import or_ as _or
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping

from .record import Record

Mono = tuple[int, ...]

MAX_VARS = 6

# Bits per non-q field of a packed key.  Every stored non-q exponent is below
# LIMIT = 2**(W - 1); W = 12 keeps the (q, x, y) keys of the product sides in
# one 30-bit int digit up to q^63.
W = 12
LIMIT = 1 << (W - 1)
FIELD = (1 << W) - 1


class SeriesError(ValueError):
    """Base class for series arithmetic contract violations."""


class VarSetMismatch(SeriesError):
    """Operands live over different variable sets."""


class ArityMismatch(SeriesError):
    """A monomial's length does not match the variable set."""


class TruncationExceeded(SeriesError):
    """A query reaches beyond the truncation order (coefficient unknown)."""


class NotInvertible(SeriesError):
    """Inversion precondition failed (unit constant term, positive q-degree)."""


class ExponentOverflow(SeriesError):
    """A non-q exponent reaches ``LIMIT``, past what a packed field holds."""


def _field_shifts(arity: int) -> tuple[int, ...]:
    """Bit offset of each variable's field: q on top, then variable 1, ..., the last at bit 0."""
    return tuple(W * (arity - 1 - j) for j in range(arity))


class VarSet(Record):
    """Ordered variable names; the first is the truncation variable ``q``.

    ``shifts[j]`` is the bit offset of variable j in a packed key (``shifts[0]``
    is q's, the top), and ``guard`` has the top bit of every non-q field set.
    Both follow from ``names``, so a VarSet compares and hashes by its names.
    """

    __slots__ = ("names", "shifts", "guard")
    _fields = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        if not names or len(names) > MAX_VARS:
            raise SeriesError(f"need 1..{MAX_VARS} variables, got {len(names)}")
        if len(set(names)) != len(names):
            raise SeriesError(f"duplicate variable names in {names}")
        if names[0] != "q":
            raise SeriesError(f"the first variable must be q, got {names}")
        shifts = _field_shifts(len(names))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "guard", sum(LIMIT << s for s in shifts[1:]))

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SeriesError(f"unknown variable {name!r} in {self.names}") from None

    def m(self, **exps: int) -> Mono:
        """Build an exponent vector from keyword exponents, e.g. ``vs.m(q=2, x=1)``."""
        vec = [0] * self.arity
        for name, e in exps.items():
            if e < 0:
                raise SeriesError(f"negative exponent for {name}")
            vec[self.index(name)] = e
        return tuple(vec)

    @property
    def unit(self) -> Mono:
        return (0,) * self.arity

    def pack(self, mono: Mono) -> int:
        """The packed key of an exponent vector.

        Raises on a wrong arity, a negative exponent or a non-q exponent of
        ``LIMIT`` or more, any of which would corrupt the key.
        """
        if len(mono) != self.arity:
            raise ArityMismatch(f"monomial {mono} has arity {len(mono)}, expected {self.arity}")
        if min(mono) < 0:
            raise SeriesError(f"negative exponent in monomial {mono}")
        if max(mono) >= LIMIT:
            for name, e in zip(self.names[1:], mono[1:]):
                if e >= LIMIT:
                    raise ExponentOverflow(f"exponent {e} of {name} in {mono} is not below {LIMIT}")
        return sum(map(_lshift, mono, self.shifts))

    def unpack(self, key: int) -> Mono:
        """The exponent vector of a packed key."""
        top, *rest = self.shifts
        return (key >> top, *[key >> s & FIELD for s in rest])


def varset(*names: str) -> VarSet:
    """Convenience VarSet factory: ``varset("q", "x")``."""
    return VarSet(tuple(names))


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(_add, a, b))


def _check_keys(vars: VarSet, keys: Iterable[int]) -> None:
    """Raise ``ExponentOverflow`` if a key holds a non-q exponent of ``LIMIT`` or more.

    One OR over the keys and one AND against the guard mask.  Callers check
    every key they make from stored keys before it is stored or added to
    again, so a field is caught below ``2**W`` and never carries.
    """
    bad = reduce(_or, keys, 0) & vars.guard
    if bad:
        name = vars.names[vars.arity - 1 - (bad.bit_length() - W) // W]
        raise ExponentOverflow(f"an exponent of {name} reaches {LIMIT}, past its packed field")


def format_monomial(vars: VarSet, mono: Mono) -> str:
    parts = []
    for name, e in zip(vars.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _add_terms(acc: dict[int, int], terms: Iterable[tuple[int, int]], limit: int) -> None:
    """Add the (key, coefficient) pairs with key below ``limit`` into ``acc``; zero sums are deleted.

    The accumulator of construction, ``sum`` and ``substitute``.
    """
    get = acc.get
    for k, c in terms:
        if k < limit:
            s = get(k, 0) + c
            if s:
                acc[k] = s
            elif k in acc:
                del acc[k]


def _accumulate(
    acc: dict[int, int], left: Iterable[tuple[int, int]], right: Collection[tuple[int, int]]
) -> None:
    """Add every product of a term of ``left`` by a term of ``right`` into ``acc``.

    ``invert`` multiplies its slices through it; ``__mul__`` packs along q
    instead.  ``right`` is iterated once per term of ``left``.  A coefficient
    that sums to zero is deleted.  ``ma + mb`` is the monomial product
    because no stored field reaches ``LIMIT``; the caller checks the keys of
    ``acc`` before it stores them.
    """
    get = acc.get
    for ma, ca in left:
        for mb, cb in right:
            key = ma + mb
            s = get(key, 0) + ca * cb
            if s:
                acc[key] = s
            else:
                del acc[key]


# The memoryview format of a native unsigned word, by its size in bytes.
_WORDS = {memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}


def _word_bytes(bits: int) -> int:
    """Bytes per slot of ``bits`` bits, rounded up to a native word of 1, 2, 4 or 8 bytes when they fit one.

    Every packed route sizes its slot here; a signed caller adds its sign bit.
    """
    nbytes = (bits + 7) // 8
    return nbytes if nbytes > 8 else 1 << (nbytes - 1).bit_length()


def _slot_bytes(bound: int) -> int:
    """Bytes per slot of a balanced digit of absolute value at most ``bound``: its bits and a sign bit."""
    return _word_bytes(bound.bit_length() + 1)


def _pack(digits: list[int], nbytes: int) -> int:
    """sum_i digits[i] * 2**(8 * nbytes * i), for digits of absolute value below half a slot.

    Each digit is written biased by half a slot, in native byte order, and
    the bias is taken off the whole int at once.
    """
    half, order = 1 << (8 * nbytes - 1), sys.byteorder
    data = b"".join([(c + half).to_bytes(nbytes, order) for c in digits])
    return int.from_bytes(data, order) - int.from_bytes(half.to_bytes(nbytes, order) * len(digits), order)


def _unpack(packed: int, n: int, nbytes: int) -> list[int]:
    """The first ``n`` balanced digits of ``packed`` in base 2**(8 * nbytes).

    Half a slot is added to every slot, the low ``n`` slots are kept, and
    each is read back as an unsigned word less half a slot: through
    ``memoryview.cast`` as native words for a slot of 1, 2, 4 or 8 bytes,
    and chunk by chunk with ``int.from_bytes`` for a wider one.  Exact when
    every digit up to slot ``n`` is below half a slot in absolute value.
    """
    half, order = 1 << (8 * nbytes - 1), sys.byteorder
    size = n * nbytes
    bias = int.from_bytes(half.to_bytes(nbytes, order) * n, order)
    data = ((packed + bias) & ((1 << 8 * size) - 1)).to_bytes(size, order)
    fmt = _WORDS.get(nbytes)
    if fmt:
        words = memoryview(data).cast(fmt).tolist()
    else:
        words = [int.from_bytes(data[i : i + nbytes], order) for i in range(0, size, nbytes)]
    return [u - half for u in words]


def _q_groups(terms: list[tuple[int, int]], top: int, nbytes: int) -> list[tuple[int, int, int, int]]:
    """(non-q part, least q-degree, slots, packed int) per non-q part of the (key, coefficient) pairs.

    The packed int holds the part's q-polynomial from its least q-degree
    up, one slot of ``nbytes`` per q-degree.
    """
    low = (1 << top) - 1
    by_part: dict[int, dict[int, int]] = {}
    for k, c in terms:
        by_part.setdefault(k & low, {})[k >> top] = c
    out = []
    for part, poly in by_part.items():
        lo = min(poly)
        digits = [0] * (max(poly) - lo + 1)
        for d, c in poly.items():
            digits[d - lo] = c
        out.append((part, lo, len(digits), _pack(digits, nbytes)))
    return out


class Mismatch(Record):
    """First (lexicographically smallest) disagreeing monomial of two series."""

    __slots__ = _fields = ("monomial", "left", "right")

    def __init__(self, monomial: Mono, left: int, right: int) -> None:
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def render(self, vars: VarSet) -> str:
        return f"{format_monomial(vars, self.monomial)}: left {self.left} != right {self.right}"


class Series:
    """Sparse truncated power series: packed monomial key -> nonzero int coefficient."""

    __slots__ = ("vars", "order", "_terms")

    def __init__(self, vars: VarSet, order: int, terms: Iterable[tuple[Mono, int]] = ()):
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        pack = vars.pack
        acc: dict[int, int] = {}
        _add_terms(acc, ((pack(mono), c) for mono, c in terms), (order + 1) << vars.shifts[0])
        self.vars = vars
        self.order = order
        self._terms = acc

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, vars: VarSet, order: int, terms: dict[int, int]) -> "Series":
        """A series over ``terms`` as given: packed keys within the order, nonzero coefficients."""
        s = cls.__new__(cls)
        s.vars = vars
        s.order = order
        s._terms = terms
        return s

    @classmethod
    def zero(cls, vars: VarSet, order: int) -> "Series":
        return cls.const(vars, order, 0)

    @classmethod
    def const(cls, vars: VarSet, order: int, c: int) -> "Series":
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        return cls._raw(vars, order, {0: c} if c else {})

    @classmethod
    def one(cls, vars: VarSet, order: int) -> "Series":
        return cls.const(vars, order, 1)

    @classmethod
    def monomial(cls, vars: VarSet, order: int, mono: Mono, coeff: int = 1) -> "Series":
        return cls(vars, order, [(mono, coeff)])

    # -- basic queries ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Mono, int]:
        """Read-only view keyed by exponent tuples, built on each access."""
        unpack = self.vars.unpack
        return MappingProxyType({unpack(k): c for k, c in self._terms.items()})

    def _limit(self, order: int) -> int:
        """The least key whose q-exponent exceeds ``order``."""
        return (order + 1) << self.vars.shifts[0]

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, mono: Mono) -> int:
        """Stored coefficient, or 0; raises if the query exceeds the order."""
        key = self.vars.pack(mono)
        if mono[0] > self.order:
            raise TruncationExceeded(
                f"q-exponent {mono[0]} beyond truncation order {self.order}"
            )
        return self._terms.get(key, 0)

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def items(self) -> Iterator[tuple[Mono, int]]:
        """Terms in canonical (lexicographic exponent) order: keys sorted, each unpacked once."""
        terms = self._terms
        keys = sorted(terms)
        top, *rest = self.vars.shifts
        columns = [[k >> top for k in keys]] + [[k >> s & FIELD for k in keys] for s in rest]
        return zip(zip(*columns), map(terms.__getitem__, keys))

    def q_coefficients(self, upto: int | None = None) -> list[int]:
        """Coefficient of q^0..q^upto, summing over all other variables.

        Mostly useful for univariate series and quick diagnostics.
        """
        n = self.order if upto is None else upto
        if n < 0:
            raise SeriesError("order must be >= 0")
        if n > self.order:
            raise TruncationExceeded(f"order {n} beyond truncation {self.order}")
        top = self.vars.shifts[0]
        out = [0] * (n + 1)
        for key, c in self._terms.items():
            d = key >> top
            if d <= n:
                out[d] += c
        return out

    # -- equality --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self._terms == other._terms
        )

    def __hash__(self):  # dict-backed, deliberately unhashable
        raise TypeError("Series is not hashable")

    def first_mismatch(self, other: "Series", upto: int) -> Mismatch | None:
        """Smallest monomial (lex) with q-exponent <= upto where coefficients differ.

        Two series with equal terms agree at every order, which one dict
        compare finds; any other pair is searched term by term.
        """
        self._check_compatible(other)
        if upto < 0:
            raise SeriesError("comparison order must be >= 0")
        if upto > self.order or upto > other.order:
            raise TruncationExceeded(
                f"comparison order {upto} exceeds truncation ({self.order}, {other.order})"
            )
        a, b = self._terms, other._terms
        if a == b:
            return None
        limit = self._limit(upto)
        differ = [k for k, c in a.items() if k < limit and b.get(k, 0) != c]
        differ += [k for k in b if k < limit and k not in a]
        if not differ:
            return None
        witness = min(differ)
        return Mismatch(self.vars.unpack(witness), a.get(witness, 0), b.get(witness, 0))

    # -- ring operations -------------------------------------------------------

    def _check_compatible(self, other: "Series") -> None:
        if self.vars != other.vars:
            raise VarSetMismatch(f"{self.vars.names} vs {other.vars.names}")

    def __neg__(self) -> "Series":
        return Series._raw(self.vars, self.order, {k: -c for k, c in self._terms.items()})

    @classmethod
    def sum(cls, vars: VarSet, order: int, parts: Iterable["Series"]) -> "Series":
        """The sum of ``parts``, truncated at ``order`` and at every part's order.

        Equal in terms and order to ``Series.zero(vars, order) + p1 + p2 + ...``,
        but the parts are added one at a time into one accumulator.  A part
        with more terms than the accumulator is copied, and the accumulator is
        added into the copy instead.
        """
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        top = vars.shifts[0]
        limit = (order + 1) << top
        acc: dict[int, int] = {}
        for p in parts:
            if p.vars != vars:
                raise VarSetMismatch(f"{vars.names} vs {p.vars.names}")
            if p.order < order:
                order = p.order
                limit = (order + 1) << top
                acc = {k: c for k, c in acc.items() if k < limit}
            small = p._terms
            if len(small) > len(acc):
                if p.order == order:
                    acc, small = dict(small), acc
                else:
                    acc, small = {k: c for k, c in small.items() if k < limit}, acc
            _add_terms(acc, small.items(), limit)
        return cls._raw(vars, order, acc)

    def __add__(self, other: "Series") -> "Series":
        return Series.sum(self.vars, min(self.order, other.order), (self, other))

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, c: int) -> "Series":
        if c == 0:
            return Series.zero(self.vars, self.order)
        return Series._raw(self.vars, self.order, {k: c * v for k, v in self._terms.items()})

    def mul_monomial(self, mono: Mono) -> "Series":
        """Multiply by the monomial ``mono``: one key addition per term within the order."""
        step = self.vars.pack(mono)
        if not step:
            return self
        bound = self._limit(self.order) - step
        out = {k + step: c for k, c in self._terms.items() if k < bound}
        _check_keys(self.vars, out)
        return Series._raw(self.vars, self.order, out)

    def __mul__(self, other):
        """The product, truncated at the lesser order, by Kronecker substitution along q.

        Each factor's terms within the order are grouped by their non-q part,
        ``key & ((1 << top) - 1)``, and each group's q-polynomial is packed
        into one int of balanced slots from the group's least q-degree
        (``_pack``).  For each pair of groups whose least degrees da + db fit
        the order, the two ints, cut to the slots that can still reach it,
        are multiplied as ints and added into the result group keyed by the
        sum of the two non-q parts, shifted to q-degree da + db.  Each result
        group is decoded once (``_unpack``), and the keys of the groups that
        decode nonzero are checked.

        A slot holds ``min(max|a| * sum|b|, max|b| * sum|a|)`` and a sign bit
        (``_slot_bytes``).  At each monomial of the product a term of either
        factor meets at most one term of the other, so that bounds every
        coefficient and every partial sum of one, and all arithmetic before
        the decode is exact mod 2**(width * slots).
        """
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        vars, order = self.vars, min(self.order, other.order)
        top = vars.shifts[0]
        limit = (order + 1) << top
        a = [(k, c) for k, c in self._terms.items() if k < limit]
        b = [(k, c) for k, c in other._terms.items() if k < limit]
        if not a or not b:
            return Series.zero(vars, order)
        size_a, size_b = [abs(c) for _, c in a], [abs(c) for _, c in b]
        bound = min(max(size_a) * sum(size_b), max(size_b) * sum(size_a))
        nbytes = _slot_bytes(bound)
        width = 8 * nbytes
        left, right = _q_groups(a, top, nbytes), _q_groups(b, top, nbytes)
        right.sort(key=lambda group: group[1])
        # One row per pair of groups that reaches the order: (result part, q-degree, groups);
        # span[part] is the least and the largest q-degree the part's rows reach.
        rows, span = [], {}
        for ra, da, la, pa in left:
            for rb, db, lb, pb in right:
                d = da + db
                if d > order:
                    break
                r, hi = ra + rb, min(order, d + la + lb - 2)
                lo_hi = span.get(r)
                span[r] = (d, hi) if lo_hi is None else (min(d, lo_hi[0]), max(hi, lo_hi[1]))
                rows.append((r, d, la, pa, lb, pb))
        sums = dict.fromkeys(span, 0)
        for r, d, la, pa, lb, pb in rows:
            # Cut only a group longer than the room: a negative int would grow to fill it.
            room = order + 1 - d
            cut = (1 << width * room) - 1
            if la > room:
                pa &= cut
            if lb > room:
                pb &= cut
            sums[r] += pa * pb << width * (d - span[r][0])
        out: dict[int, int] = {}
        parts = []
        for r, packed in sums.items():
            lo, hi = span[r]
            base = r + (lo << top)
            terms = {base + (i << top): c for i, c in enumerate(_unpack(packed, hi - lo + 1, nbytes)) if c}
            if terms:
                out.update(terms)
                parts.append(r)
        _check_keys(vars, parts)
        return Series._raw(vars, order, out)

    __rmul__ = __mul__

    def invert(self) -> "Series":
        """Multiplicative inverse to the same order, by one pass over q-degree slices.

        Requires a unit (+-1) constant term c0 and positive q-degree on every
        non-constant monomial, so the q-degree-0 slice of ``a`` is exactly c0
        and 1/c0 = c0.  Writing a_k and b_k for the q-degree-k slices of ``a``
        and of its inverse b, the graded reciprocal recurrence (Knuth, TAOCP
        vol. 2, 4.7) is

            b_0 = c0,    b_n = -c0 * sum_{k=1..n} a_k * b_{n-k}    (n = 1..order).

        Every slice product is formed once, term by term through
        ``_accumulate``, so the cost is about that of multiplying ``a`` by the
        result one pair of terms at a time: several times the packed
        ``a * b`` (1/(xq;q)_inf over (q, x, y) at order 60: 36 ms against
        7 ms for the product of the two).  Each slice's keys are checked
        before a later slice adds to them.
        """
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NotInvertible(f"constant term {c0} is not a unit")
        vars, order = self.vars, self.order
        top = vars.shifts[0]
        for k in self._terms:
            if 0 < k < 1 << top:
                raise NotInvertible(
                    f"non-constant monomial {vars.unpack(k)} carries no q-degree; "
                    "inversion unsupported"
                )
        # tail[k]: the q-degree-k slice of -c0 * (a - c0), so b_n = sum_k tail[k] * b_{n-k}.
        tail: list[list[tuple[int, int]]] = [[] for _ in range(order + 1)]
        for m, c in self._terms.items():
            if m:
                tail[m >> top].append((m, -c0 * c))
        degrees = [k for k in range(1, order + 1) if tail[k]]
        slices: list[dict[int, int]] = [{0: c0}]
        for n in range(1, order + 1):
            acc: dict[int, int] = {}
            for k in degrees:
                if k > n:
                    break
                _accumulate(acc, tail[k], slices[n - k].items())
            _check_keys(vars, acc)
            slices.append(acc)
        del tail
        result: dict[int, int] = {}
        for piece in slices:
            result.update(piece)
            piece.clear()
        return Series._raw(vars, order, result)

    def substitute(self, var: str, mono: Mono) -> "Series":
        """Replace every occurrence of ``var``**e by ``mono``**e, re-truncated.

        Substituting q itself requires the replacement to carry q-degree >= 1,
        otherwise previously discarded terms could re-enter the truncation
        window and the result would not be exact.  A term's key moves by
        e * (key(mono) - key(var)); ``e * mono`` is checked against ``LIMIT``
        for the largest e first, so that product carries nowhere either.
        """
        vars = self.vars
        vi = vars.index(var)
        step = vars.pack(mono)
        if vi == 0 and mono[0] < 1:
            raise SeriesError("substituting the truncation variable needs q-degree >= 1")
        shift = vars.shifts[vi]
        mask = -1 if vi == 0 else FIELD
        terms = self._terms
        e_max = max((k >> shift & mask for k in terms), default=0)
        for name, e in zip(vars.names[1:], mono[1:]):
            if e_max * e >= LIMIT:
                raise ExponentOverflow(f"{var}^{e_max} -> {name}^{e_max * e} is not below {LIMIT}")
        delta = step - (1 << shift)
        acc: dict[int, int] = {}
        moved = [k + (k >> shift & mask) * delta for k in terms]
        _add_terms(acc, zip(moved, terms.values()), self._limit(self.order))
        _check_keys(vars, acc)
        return Series._raw(vars, self.order, acc)

    def set_var_zero(self, var: str) -> "Series":
        """Evaluate at var = 0: keep only terms with exponent 0 in ``var``."""
        vi = self.vars.index(var)
        shift = self.vars.shifts[vi]
        mask = -1 if vi == 0 else FIELD
        return Series._raw(
            self.vars, self.order, {k: c for k, c in self._terms.items() if not k >> shift & mask}
        )

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        if not self._terms:
            return f"<0 (order {self.order})>"
        parts = []
        for mono, c in self.items():
            txt = format_monomial(self.vars, mono)
            if txt == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(txt)
            elif c == -1:
                parts.append(f"-{txt}")
            else:
                parts.append(f"{c}*{txt}")
        shown = parts[:24]
        more = " + ..." if len(parts) > 24 else ""
        return f"<{' + '.join(shown)}{more} (order {self.order})>"


# Variable sets used throughout: everything is truncated in q.
Q_VARS = varset("q")
QX_VARS = varset("q", "x")
QXY_VARS = varset("q", "x", "y")
QUIN_VARS = varset("q", "x", "y1", "y2", "z")
