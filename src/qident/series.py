"""Exact truncated multivariate formal power series.

A series lives over a fixed, ordered set of variables whose first is always
``q``, the truncation variable: monomials whose q-exponent (entry 0 of the
exponent vector) exceeds the truncation order are identically zero.
Coefficients are Python ints, so arithmetic is exact at any size.

Values are immutable once constructed; every operation returns a fresh
Series.  Nothing here mutates shared state, so series may be freely shared
across threads.

Exponents are non-negative: a monomial with a negative entry raises
``SeriesError`` wherever one is taken (construction, ``coeff``,
``mul_monomial``, ``substitute``), checked once per call.

Inside ``__mul__`` and ``invert`` only, each monomial is packed into one int
(Kronecker substitution; the packed exponents of Monagan and Pearce, CASC
2007), so that multiplying two monomials is one int addition in
``_accumulate``.  Variable j >= 1 gets a bit field of its own; q sits above
them all, with no width limit, so int order of packed keys is q order first.
The fields are sized from the operands, never fixed: wide enough for the
largest exponent any product term can reach, so no field carries into its
neighbour whatever the exponents (an x of 2**40, or an x with no q-degree).
A negative exponent would borrow from its neighbour instead, which is why
the contract above is enforced.  Operands are packed on entry and the result
unpacked on exit; every other method, and everything outside this module,
sees exponent tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import add as _add
from operator import lshift as _lshift
from typing import Collection, Iterable, Iterator

Mono = tuple[int, ...]

MAX_VARS = 6


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


@dataclass(frozen=True)
class VarSet:
    """Ordered variable names; the first is the truncation variable ``q``."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names or len(self.names) > MAX_VARS:
            raise SeriesError(f"need 1..{MAX_VARS} variables, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise SeriesError(f"duplicate variable names in {self.names}")
        if self.names[0] != "q":
            raise SeriesError(f"the first variable must be q, got {self.names}")

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


def varset(*names: str) -> VarSet:
    """Convenience VarSet factory: ``varset("q", "x")``."""
    return VarSet(tuple(names))


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(_add, a, b))


def _check_mono(vars: VarSet, mono: Mono) -> None:
    """A monomial argument must have the variable set's arity and no negative exponent."""
    if len(mono) != vars.arity:
        raise ArityMismatch(f"monomial {mono} has wrong arity")
    if min(mono) < 0:
        raise SeriesError(f"negative exponent in monomial {mono}")


def format_monomial(vars: VarSet, mono: Mono) -> str:
    parts = []
    for name, e in zip(vars.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _layout(limits: Iterable[int]) -> tuple[list[int], list[int]]:
    """Shifts and masks of a packed layout whose field j >= 1 holds 0..limits[j].

    Field 1 sits at bit 0 and each later field just above the one before; q,
    field 0, sits on top with no width limit (limits[0] is ignored), so int
    order of the packed keys is q order first.
    """
    shifts, masks, at = [0], [-1], 0
    for limit in list(limits)[1:]:
        width = limit.bit_length()
        shifts.append(at)
        masks.append((1 << width) - 1)
        at += width
    shifts[0] = at
    return shifts, masks


def _maxima(monos: Iterable[Mono]) -> Iterator[int]:
    """The largest exponent of each variable over ``monos`` (which must not be empty)."""
    return map(max, zip(*monos))


def _pack(terms: Iterable[tuple[Mono, int]], shifts: list[int]) -> list[tuple[int, int]]:
    return [(sum(map(_lshift, m, shifts)), c) for m, c in terms]


def _unpack(packed: dict[int, int], shifts: list[int], masks: list[int]) -> dict[Mono, int]:
    fields = list(zip(shifts, masks))
    return {tuple([k >> s & mk for s, mk in fields]): c for k, c in packed.items()}


def _accumulate(
    acc: dict[int, int], left: Iterable[tuple[int, int]], right: Collection[tuple[int, int]]
) -> None:
    """Add every product of a term of ``left`` by a term of ``right`` into ``acc``.

    The one place two terms are multiplied; ``right`` is iterated once per term
    of ``left``.  A coefficient that sums to zero is deleted.

    Monomials are packed ints laid out by ``_layout``: q on top, each other
    variable in a field below it.  ``ma + mb`` is the monomial product only
    while no field carries into the next and none borrows from it, so the
    caller sizes every field from its operands for the largest exponent the
    result can hold, and exponents are never negative.
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


@dataclass(frozen=True)
class Mismatch:
    """First (lexicographically smallest) disagreeing monomial of two series."""

    monomial: Mono
    left: int
    right: int

    def render(self, vars: VarSet) -> str:
        return f"{format_monomial(vars, self.monomial)}: left {self.left} != right {self.right}"


class Series:
    """Sparse truncated power series: exponent vector -> nonzero int coefficient."""

    __slots__ = ("vars", "order", "terms")

    def __init__(self, vars: VarSet, order: int, terms: Iterable[tuple[Mono, int]] = ()):
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        arity = vars.arity
        acc: dict[Mono, int] = {}
        for mono, coeff in terms:
            if len(mono) != arity:
                raise ArityMismatch(f"monomial {mono} has arity {len(mono)}, expected {arity}")
            if any(e < 0 for e in mono):
                raise SeriesError(f"negative exponent in monomial {mono}")
            if mono[0] > order or coeff == 0:
                continue
            mono = tuple(mono)
            c = acc.get(mono, 0) + coeff
            if c:
                acc[mono] = c
            else:
                del acc[mono]
        self.vars = vars
        self.order = order
        self.terms = acc

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, vars: VarSet, order: int, terms: dict[Mono, int]) -> "Series":
        s = cls.__new__(cls)
        s.vars = vars
        s.order = order
        s.terms = terms
        return s

    @classmethod
    def zero(cls, vars: VarSet, order: int) -> "Series":
        return cls._raw(vars, order, {})

    @classmethod
    def const(cls, vars: VarSet, order: int, c: int) -> "Series":
        return cls._raw(vars, order, {vars.unit: c} if c else {})

    @classmethod
    def one(cls, vars: VarSet, order: int) -> "Series":
        return cls.const(vars, order, 1)

    @classmethod
    def monomial(cls, vars: VarSet, order: int, mono: Mono, coeff: int = 1) -> "Series":
        return cls(vars, order, [(mono, coeff)])

    # -- basic queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Mono) -> int:
        """Stored coefficient, or 0; raises if the query exceeds the order."""
        _check_mono(self.vars, mono)
        if mono[0] > self.order:
            raise TruncationExceeded(
                f"q-exponent {mono[0]} beyond truncation order {self.order}"
            )
        return self.terms.get(tuple(mono), 0)

    def constant_term(self) -> int:
        return self.terms.get(self.vars.unit, 0)

    def items(self) -> Iterator[tuple[Mono, int]]:
        """Terms in canonical (lexicographic exponent) order."""
        return iter(sorted(self.terms.items()))

    def q_coefficients(self, upto: int | None = None) -> list[int]:
        """Coefficient of q^0..q^upto, summing over all other variables.

        Mostly useful for univariate series and quick diagnostics.
        """
        n = self.order if upto is None else upto
        if n > self.order:
            raise TruncationExceeded(f"order {n} beyond truncation {self.order}")
        out = [0] * (n + 1)
        for mono, c in self.terms.items():
            if mono[0] <= n:
                out[mono[0]] += c
        return out

    # -- equality --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self):  # dict-backed, deliberately unhashable
        raise TypeError("Series is not hashable")

    def first_mismatch(self, other: "Series", upto: int) -> Mismatch | None:
        """Smallest monomial (lex) with q-exponent <= upto where coefficients differ."""
        self._check_compatible(other)
        if upto > self.order or upto > other.order:
            raise TruncationExceeded(
                f"comparison order {upto} exceeds truncation ({self.order}, {other.order})"
            )
        witness: Mono | None = None
        for mono, c in self.terms.items():
            if mono[0] <= upto and other.terms.get(mono, 0) != c:
                if witness is None or mono < witness:
                    witness = mono
        for mono, c in other.terms.items():
            if mono[0] <= upto and mono not in self.terms:
                if witness is None or mono < witness:
                    witness = mono
        if witness is None:
            return None
        return Mismatch(witness, self.terms.get(witness, 0), other.terms.get(witness, 0))

    # -- ring operations -------------------------------------------------------

    def _check_compatible(self, other: "Series") -> None:
        if self.vars != other.vars:
            raise VarSetMismatch(f"{self.vars.names} vs {other.vars.names}")

    def truncate(self, order: int) -> "Series":
        """Restrict to a (lower or equal) truncation order."""
        if order >= self.order:
            if order == self.order:
                return self
            raise TruncationExceeded(f"cannot extend order {self.order} to {order}")
        return Series._raw(
            self.vars, order, {m: c for m, c in self.terms.items() if m[0] <= order}
        )

    def __neg__(self) -> "Series":
        return Series._raw(self.vars, self.order, {m: -c for m, c in self.terms.items()})

    @classmethod
    def sum(cls, vars: VarSet, order: int, parts: Iterable["Series"]) -> "Series":
        """The sum of ``parts``, truncated at ``order`` and at every part's order.

        Equal in terms and order to ``Series.zero(vars, order) + p1 + p2 + ...``,
        but the parts are added one at a time into one accumulator.  A part
        with more terms than the accumulator is copied, and the accumulator is
        added into the copy instead.
        """
        acc: dict[Mono, int] = {}
        for p in parts:
            if p.vars != vars:
                raise VarSetMismatch(f"{vars.names} vs {p.vars.names}")
            if p.order < order:
                order = p.order
                acc = {m: c for m, c in acc.items() if m[0] <= order}
            small = p.terms
            if len(small) > len(acc):
                acc, small = {m: c for m, c in small.items() if m[0] <= order}, acc
            for m, c in small.items():
                if m[0] > order:
                    continue
                s = acc.get(m, 0) + c
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return cls._raw(vars, order, acc)

    def __add__(self, other: "Series") -> "Series":
        return Series.sum(self.vars, min(self.order, other.order), (self, other))

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, c: int) -> "Series":
        if c == 0:
            return Series.zero(self.vars, self.order)
        return Series._raw(self.vars, self.order, {m: c * v for m, v in self.terms.items()})

    def mul_monomial(self, mono: Mono) -> "Series":
        """Multiply by the monomial ``mono``; cheaper than a general product."""
        _check_mono(self.vars, mono)
        budget = self.order - mono[0]
        return Series._raw(self.vars, self.order, {
            mono_mul(m, mono): c for m, c in self.terms.items() if m[0] <= budget
        })

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        if not self.terms or not other.terms:
            return Series.zero(self.vars, order)
        # Field j >= 1 holds at most max_j(a) + max_j(b) in any product term.
        shifts, masks = _layout(map(_add, _maxima(self.terms), _maxima(other.terms)))
        top = shifts[0]
        # Sort the longer factor by packed key (q-degree first) and cut it, for
        # each q-degree slice of the shorter one, at the budget, so over-order
        # products are never formed.
        a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        b_items = sorted(_pack(b.terms.items(), shifts))
        b_keys = [m for m, _ in b_items]
        a_slices: dict[int, list[tuple[int, int]]] = {}
        for m, c in _pack(a.terms.items(), shifts):
            k = m >> top
            if k <= order:
                a_slices.setdefault(k, []).append((m, c))
        acc: dict[int, int] = {}
        for k, left in a_slices.items():
            _accumulate(acc, left, b_items[:bisect_left(b_keys, (order - k + 1) << top)])
        del a_slices, b_items, b_keys
        return Series._raw(self.vars, order, _unpack(acc, shifts, masks))

    __rmul__ = __mul__

    def invert(self) -> "Series":
        """Multiplicative inverse to the same order, by one pass over q-degree slices.

        Requires a unit (+-1) constant term c0 and positive q-degree on every
        non-constant monomial, so the q-degree-0 slice of ``a`` is exactly c0
        and 1/c0 = c0.  Writing a_k and b_k for the q-degree-k slices of ``a``
        and of its inverse b, the graded reciprocal recurrence (Knuth, TAOCP
        vol. 2, 4.7) is

            b_0 = c0,    b_n = -c0 * sum_{k=1..n} a_k * b_{n-k}    (n = 1..order).

        Every slice product is formed once, so the cost is about that of one
        product of ``a`` by the result.
        """
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NotInvertible(f"constant term {c0} is not a unit")
        unit = self.vars.unit
        for m in self.terms:
            if m != unit and m[0] == 0:
                raise NotInvertible(
                    f"non-constant monomial {m} carries no q-degree; inversion unsupported"
                )
        order = self.order
        # A term of b_n (n <= order) is a product of at most n terms of a, each
        # of q-degree >= 1, so field j >= 1 holds at most order * max_j(a).
        shifts, masks = _layout(order * e for e in _maxima(self.terms))
        top = shifts[0]
        # tail[k]: the q-degree-k slice of -c0 * (a - c0), so b_n = sum_k tail[k] * b_{n-k}.
        tail: list[list[tuple[int, int]]] = [[] for _ in range(order + 1)]
        for m, c in _pack(self.terms.items(), shifts):
            k = m >> top
            if m and k <= order:
                tail[k].append((m, -c0 * c))
        degrees = [k for k in range(1, order + 1) if tail[k]]
        slices: list[dict[int, int]] = [{0: c0}]
        for n in range(1, order + 1):
            acc: dict[int, int] = {}
            for k in degrees:
                if k > n:
                    break
                _accumulate(acc, tail[k], slices[n - k].items())
            slices.append(acc)
        del tail
        result: dict[Mono, int] = {}
        for piece in slices:
            result.update(_unpack(piece, shifts, masks))
            piece.clear()
        return Series._raw(self.vars, order, result)

    def substitute(self, var: str, mono: Mono) -> "Series":
        """Replace every occurrence of ``var``**e by ``mono``**e, re-truncated.

        Substituting q itself requires the replacement to carry q-degree >= 1,
        otherwise previously discarded terms could re-enter the truncation
        window and the result would not be exact.
        """
        vi = self.vars.index(var)
        _check_mono(self.vars, mono)
        if vi == 0 and mono[0] < 1:
            raise SeriesError("substituting the truncation variable needs q-degree >= 1")
        acc: dict[Mono, int] = {}
        for m, c in self.terms.items():
            e = m[vi]
            new = tuple(
                (0 if j == vi else m[j]) + e * mono[j] for j in range(self.vars.arity)
            )
            if new[0] > self.order:
                continue
            s = acc.get(new, 0) + c
            if s:
                acc[new] = s
            else:
                del acc[new]
        return Series._raw(self.vars, self.order, acc)

    def set_var_zero(self, var: str) -> "Series":
        """Evaluate at var = 0: keep only terms with exponent 0 in ``var``."""
        vi = self.vars.index(var)
        return Series._raw(
            self.vars, self.order, {m: c for m, c in self.terms.items() if m[vi] == 0}
        )

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return f"<0 (order {self.order})>"
        parts = []
        for mono, c in sorted(self.terms.items()):
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
