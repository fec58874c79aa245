"""q-Pochhammer products and the three classical single-sum identities.

Products are built over any VarSet (q is always its variable 0) at a given
truncation order.  An argument is a signed monomial: the product (A; q^m)_n
multiplies factors (1 - sign*A*q^{mk}) for k = 0..n-1; sign = -1 gives the
(-A; q^m) family.  ``poch_finite`` keeps the partial product packed along
q: one int per power of A's non-q part, one slot per q-degree.  A factor
1 - sign*A*q^{mk} is then one shift and one subtract per int, and the
product is decoded once through the codec of ``Series.__mul__``
(``_slot_bytes``, ``_unpack``), with its slot sized by the majorant
prod (1 + q^deg) of the same factors.
Infinite products require the argument to carry positive q-degree so that
only finitely many factors differ from 1 below the truncation order.
``distinct_4regular`` states (-xq; q^2)_inf (-even q^2; q^4)_inf once: it is
``quad``'s product side, and ``partitions.table_B/B1/B2`` read the B side of
thm15, thmA1 and thmA2 off it.

An inverted product 1 / prod_i (s_i A_i; q^{step_i})_inf is built by
``poch_inverse``, Euler's logarithmic-derivative recurrence over q-degree
slices (Andrews, The Theory of Partitions, 1.3; Apostol, Introduction to
Analytic Number Theory, Thm 14.8): it forms neither the product nor a
general inverse.  Over q alone a slice is one int; over several variables
it is one int of fixed-width slots (Kronecker substitution, Schoenhage
1982), so a term of the recurrence is one big-int shift-and-add.
Numerators are ``poch_finite`` products.

Euler's two sums sum_n z^n q^{d*binom(n,2)} / (q^step; q^step)_n, d = 0
or step, are rank-1 multi-sums, built by ``multisum.eval_sum``.  The signed
numerator (a; q^step)_n of ``qbinom`` is not, so its summand n is summand
n - 1 times z and one binomial, divided by 1 - q^{step*n}, by
``multisum.binomial_sum``: its own packing along q, sized by the sum's
univariate majorant, with its own decode.  No sum side forms a product or
an inverse or uses the product codec, and the product sides never divide,
so the two sides stay on different routes.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul
from typing import Iterable

from .multisum import DivergentProduct, MultiSumSpec, _divide_q_power, binomial_sum, eval_sum
from .record import Record
from .series import (
    LIMIT,
    Q_VARS,
    ExponentOverflow,
    Mono,
    Series,
    SeriesError,
    VarSet,
    _check_keys,
    _slot_bytes,
    _unpack,
    mono_mul,
)


class InexactDivision(SeriesError):
    """An integer recurrence's exact division by n left a remainder."""


class SlotBoxTooLarge(SeriesError):
    """An inverted product's packed slice would need more than ``SLOT_BOX_BYTES``."""


# The most bytes one packed slice of ``_packed_inverse`` may take.
SLOT_BOX_BYTES = 1 << 24


class PochSpec(Record):
    """Data of a Pochhammer product (sign*A; q^step)_length; length None = infinite."""

    __slots__ = _fields = ("argument", "step", "length", "sign")

    def __init__(self, argument: Mono, step: int, length: int | None = None, sign: int = 1) -> None:
        if step < 1:
            raise SeriesError(f"step must be >= 1, got {step}")
        if sign not in (1, -1):
            raise SeriesError("argument sign must be +1 or -1")
        if length is not None and length < 0:
            raise SeriesError("finite length must be >= 0")
        object.__setattr__(self, "argument", argument)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "sign", sign)


def poch_finite(spec: PochSpec, vars: VarSet, order: int) -> Series:
    """The finite product prod_{k<n} (1 - sign*A*q^{mk}), truncated, packed along q.

    With A = X q^d, X its non-q part, the product's terms are X^j times a
    q-polynomial, one int per j with one slot per q-degree from q^0
    (Kronecker substitution along q, as in ``Series.__mul__``).  A factor
    1 - sign*X*q^e moves each group e slots up, cut to the slots that can
    still reach the order, and takes sign times it from group j + 1: one
    shift and one add per group.  The slot is ``_slot_bytes`` of the
    largest coefficient of the majorant prod (1 + q^e) over the same
    factors, which bounds every coefficient of every partial product, and
    each group is decoded once (``_unpack``).  The largest power of X, the
    most factors whose q-degrees fit the order together, is checked against
    ``LIMIT`` before any work.
    """
    if order < 0:
        raise SeriesError("truncation order must be >= 0")
    if spec.length is None:
        raise SeriesError("poch_finite needs a finite length")
    if len(spec.argument) != vars.arity:
        raise SeriesError(f"argument {spec.argument} has wrong arity for {vars.names}")
    arg, length, top = spec.argument, order + 1, vars.shifts[0]
    part = vars.pack(arg) & ((1 << top) - 1)
    degrees = range(arg[0], length, spec.step)[: spec.length]
    power = sum(1 for total in accumulate(degrees) if total <= order)
    for name, e in zip(vars.names[1:], arg[1:]):
        if power * e >= LIMIT:
            raise ExponentOverflow(f"{name}^{e} to the power {power} is not below {LIMIT}, past its packed field")
    bar = [1] + [0] * order
    for d in degrees:
        bar = list(map(add, bar, [0] * d + bar[: length - d]))
    nbytes = _slot_bytes(max(bar))
    width, mask = 8 * nbytes, (1 << 8 * nbytes * length) - 1
    groups = {0: 1}
    for d in degrees:
        for k, p in list(groups.items()):
            moved = p << width * d & mask
            if moved:
                c = groups.get(k + part, 0)
                groups[k + part] = (c - moved if spec.sign == 1 else c + moved) & mask
    return Series._raw(
        vars,
        order,
        {k + (e << top): c for k, p in groups.items() for e, c in enumerate(_unpack(p, length, nbytes)) if c},
    )


def poch_inf(spec: PochSpec, vars: VarSet, order: int) -> Series:
    """The infinite product, exact to the truncation order."""
    if spec.length is not None:
        raise SeriesError("poch_inf needs length None (infinite)")
    if len(spec.argument) != vars.arity:
        raise SeriesError(f"argument {spec.argument} has wrong arity for {vars.names}")
    if spec.argument[0] < 1:
        raise DivergentProduct(
            f"infinite product argument {spec.argument} must carry q-degree >= 1"
        )
    # Factors with m*k beyond the order are congruent to 1 and contribute nothing.
    n_factors = max(0, (order - spec.argument[0]) // spec.step + 1)
    return poch_finite(
        PochSpec(spec.argument, spec.step, n_factors, spec.sign), vars, order
    )


def distinct_4regular(vars: VarSet, order: int, even: Mono) -> Series:
    """(-xq; q^2)_inf (-even q^2; q^4)_inf: partitions into distinct parts, none divisible by 4.

    An odd part carries x, and a part = 2 mod 4 carries the monomial ``even``.
    """
    odd_parts = poch_inf(PochSpec(vars.m(x=1, q=1), 2, sign=-1), vars, order)
    return odd_parts * poch_inf(PochSpec(mono_mul(even, vars.m(q=2)), 4, sign=-1), vars, order)


def poch(spec: PochSpec, vars: VarSet, order: int) -> Series:
    """Dispatch on finite vs infinite length."""
    if spec.length is None:
        return poch_inf(spec, vars, order)
    return poch_finite(spec, vars, order)


def _exact_quotient(c: int, n: int) -> int:
    """c / n, which must be exact; a remainder raises rather than floors."""
    quotient, remainder = divmod(c, n)
    if remainder:
        raise InexactDivision(f"q-degree {n}: coefficient {c} is not divisible by {n}")
    return quotient


def _log_derivative(
    specs: tuple[PochSpec, ...], vars: VarSet, order: int
) -> list[dict[tuple[Mono, int], int]]:
    """The q-degree slices S_1..S_order of q d/dq log of 1 / prod_i (s_i A_i; q^{step_i})_inf.

    Each factor 1 - s*B, with B = A q^{step*k}, adds deg(B) * (s*B)^m to
    S_{m*deg(B)} for every m >= 1 with m*deg(B) <= order; deg is the
    q-degree.  Slice j maps (X, m), the monomial q^j X^m with X the non-q
    part of A, to its coefficient; slice 0 is empty.
    """
    slices: list[dict[tuple[Mono, int], int]] = [{} for _ in range(order + 1)]
    for spec in specs:
        part, d = spec.argument[1:], spec.argument[0]
        while d <= order:
            for m in range(1, order // d + 1):
                piece = slices[m * d]
                piece[part, m] = piece.get((part, m), 0) + d * spec.sign ** m
            d += spec.step
    return [{k: c for k, c in piece.items() if c} for piece in slices]


def _q_inverse(specs: tuple[PochSpec, ...], order: int) -> list[int]:
    """The coefficients of ``poch_inverse`` over ``Q_VARS``: each S_j is one int sigma(j)."""
    sigma = [sum(piece.values()) for piece in _log_derivative(specs, Q_VARS, order)]
    p = [1]
    for n in range(1, order + 1):
        p.append(_exact_quotient(sum(map(mul, sigma[1 : n + 1], reversed(p))), n))
    return p


def poch_inverse(specs: Iterable[PochSpec], vars: VarSet, order: int) -> Series:
    """1 / prod_i (s_i A_i; q^{step_i})_inf by Euler's logarithmic-derivative recurrence.

    With P_n the q-degree-n slice of the inverse P and S_j that of
    q d/dq log P (``_log_derivative``), q d/dq P = P * q d/dq log P gives

        P_0 = 1,    n * P_n = sum_{j=1..n} S_j * P_{n-j}    (n = 1..order),

    and the division by n is exact and checked.  Over q alone each S_j is
    one int sigma(j) and the recurrence runs on a list of ints
    (``_q_inverse``); over several variables each P_n is one int of packed
    slots (``_packed_inverse``).  No product, inverse or division by a
    binomial is formed, so this is a route of its own beside
    ``Series.invert``.

    Every spec must be infinite and its argument carry q-degree >= 1
    (``DivergentProduct`` otherwise, before any work).  The largest power
    taken of an argument, order // deg_q(A), is checked against ``LIMIT``
    up front; a key made from several powers is checked as it is made.
    """
    if order < 0:
        raise SeriesError("truncation order must be >= 0")
    specs = tuple(specs)
    for spec in specs:
        arg = spec.argument
        if spec.length is not None:
            raise SeriesError("poch_inverse needs infinite products (length None)")
        if len(arg) != vars.arity:
            raise SeriesError(f"argument {arg} has wrong arity for {vars.names}")
        if arg[0] < 1:
            raise DivergentProduct(f"infinite product argument {arg} must carry q-degree >= 1")
        m_max = order // arg[0]
        for name, e in zip(vars.names[1:], arg[1:]):
            if m_max * e >= LIMIT:
                raise ExponentOverflow(
                    f"{name}^{e} to the power {m_max} is not below {LIMIT}, past its packed field"
                )
    if vars.arity == 1:
        p = _q_inverse(specs, order)
        return Series._raw(vars, order, {e: c for e, c in enumerate(p) if c})
    return _packed_inverse(specs, vars, order)


def _packed_inverse(specs: tuple[PochSpec, ...], vars: VarSet, order: int) -> Series:
    """``poch_inverse`` with each slice P_n packed into one int (Kronecker substitution).

    Each distinct non-q part X of an argument is a coordinate, with radix
    order // d + 1 for d the least q-degree of an argument with part X (a
    q-only part adds none).  A term of P_n is a vector of multiplicities m_X;
    its slot is their mixed-radix index, held in bits width*s up to
    width*(s + 1) of the int, so a term c*X^m of S_j multiplies P_{n-j} by
    one shift and one add.  Slot s maps to the key sum_X m_X * key(X), a
    ring homomorphism, so slots that land on one monomial simply add.

    The width comes from the majorant Pbar = 1 / prod_B (1 - q^{deg B}) over
    the same factors B, every sign +1 and every non-q variable 1, run on
    ints: each slot of n*P_n is at most n*Pbar_n in absolute value, and the
    width holds the largest with two bits to spare, in whole bytes.  Each
    n*P_n is decoded with a bias per slot up to the last slot its q-degree
    allows; what lies past that slot must be zero.  Each nonzero slot is
    divided by n through ``_exact_quotient`` and its key is made, and
    checked, the first time it is read.  The last slice holds every slot; a
    layout whose slots would take more than ``SLOT_BOX_BYTES`` there raises
    ``SlotBoxTooLarge`` before the first slice is built.
    """
    top = vars.shifts[0]
    least: dict[Mono, int] = {}
    for spec in specs:
        part, d = spec.argument[1:], spec.argument[0]
        least[part] = min(d, least.get(part, d))
    # Per coordinate X: (key of X, least q-degree, radix, stride); a q-only part keeps stride 0.
    coords, stride, size = [], dict.fromkeys(least, 0), 1
    for part, d in least.items():
        if any(part):
            coords.append((vars.pack((0, *part)), d, order // d + 1, size))
            stride[part] = size
            size *= order // d + 1

    pbar = _q_inverse(tuple(PochSpec(spec.argument[:1], spec.step) for spec in specs), order)
    nbytes = (max(n * c for n, c in enumerate(pbar)).bit_length() + 9) // 8
    if size * nbytes > SLOT_BOX_BYTES:
        raise SlotBoxTooLarge(
            f"a slice of {size} slots of {nbytes} bytes needs {size * nbytes} bytes, "
            f"past {SLOT_BOX_BYTES}"
        )
    width, half = 8 * nbytes, 1 << (8 * nbytes - 1)
    zero = half.to_bytes(nbytes, "little")
    shifts = [
        [(width * m * stride[part], c) for (part, m), c in piece.items()]
        for piece in _log_derivative(specs, vars, order)
    ]
    degrees = [j for j in range(1, order + 1) if shifts[j]]

    def slot_key(s: int) -> int:
        # One coordinate at a time, checked before the next is added, so no field carries.
        key = 0
        for part_key, _, radix, _ in coords:
            s, m = divmod(s, radix)
            key += m * part_key
            _check_keys(vars, (key,))
        return key

    keys: dict[int, int] = {}
    p, out = [1], {0: 1}
    for n in range(1, order + 1):
        acc = 0
        for j in degrees:
            if j > n:
                break
            below = p[n - j]
            if below:
                for shift, c in shifts[j]:
                    acc += below * c << shift
        bound = 1 + sum(n // d * step for _, d, _, step in coords)
        biased = acc + int.from_bytes(zero * bound, "little")
        if biased >> width * bound:
            raise SeriesError(f"q-degree {n}: a slot past the last one of its degree is not zero")
        data, q_key = biased.to_bytes(nbytes * bound, "little"), n << top
        for s in range(bound):
            chunk = data[s * nbytes : (s + 1) * nbytes]
            if chunk == zero:
                continue
            key = keys.get(s)
            if key is None:
                key = keys[s] = slot_key(s)
            key += q_key
            c = _exact_quotient(int.from_bytes(chunk, "little") - half, n)
            out[key] = out.get(key, 0) + c
        p.append(acc // n)
    return Series._raw(vars, order, {k: c for k, c in out.items() if c})


def inv_qpoch(vars: VarSet, order: int, step: int, n: int) -> Series:
    """1 / (q^step; q^step)_n by counting partitions into at most n part sizes.

    Entry e counts the partitions of e/step into parts <= n: the list of 1
    divided by 1 - q^{step*k} (``_divide_q_power``) for k = 1..n.  Factors
    with step*k past the order are 1 here, and n <= 0 is the empty product.
    Fully independent of invert().
    """
    if order < 0:
        raise SeriesError("truncation order must be >= 0")
    counts = [1] + [0] * order
    for k in range(1, min(max(n, 0), order // step) + 1):
        counts = _divide_q_power(counts, step * k, order + 1)
    top = vars.shifts[0]
    return Series._raw(vars, order, {e << top: c for e, c in enumerate(counts) if c})


def _euler_sum(vars: VarSet, order: int, z: Mono, step: int, diag: int) -> Series:
    """sum_n z^n q^{diag*binom(n,2)} / (q^step; q^step)_n as a rank-1 ``eval_sum`` spec.

    z must carry q-degree >= 1, which ``eval_sum`` would not ask for diag > 0.
    """
    if len(z) != vars.arity:
        raise SeriesError(f"argument {z} has wrong arity")
    if z[0] < 1:
        raise DivergentProduct(f"summand argument {z} must carry q-degree >= 1")
    spec = MultiSumSpec(((diag,),), (step,), tuple((e,) for e in z[1:]))
    return eval_sum(spec, (z[0],), vars, order)


def euler1(vars: VarSet, order: int, z: Mono, step: int) -> Series:
    """sum_n z^n / (q^step; q^step)_n, equal to 1/(z; q^step)_inf."""
    return _euler_sum(vars, order, z, step, 0)


def euler2(vars: VarSet, order: int, z: Mono, step: int) -> Series:
    """sum_n z^n q^{step*binom(n,2)} / (q^step;q^step)_n = (-z; q^step)_inf."""
    return _euler_sum(vars, order, z, step, step)


def qbinom(vars: VarSet, order: int, a: Mono, z: Mono, step: int) -> Series:
    """sum_n (a; q^step)_n z^n / (q^step; q^step)_n, by ``binomial_sum``.

    Equals (a*z; q^step)_inf / (z; q^step)_inf; the upper argument a may carry
    no q-degree (its Pochhammer factors are finite).  Summand n is summand
    n - 1 times z and 1 - a q^{step(n-1)}, divided by 1 - q^{step*n}; the sum
    stops at the first summand that truncates to 0.
    """
    for arg in (a, z):
        if len(arg) != vars.arity:
            raise SeriesError(f"argument {arg} has wrong arity")
    if z[0] < 1:
        raise DivergentProduct(f"summand argument {z} must carry q-degree >= 1")

    def summands(ops):
        t = ops.one()
        n = 0
        while not ops.is_zero(t):
            yield t
            n += 1
            t = ops.times(ops.shift(t, z), mono_mul(a, vars.m(q=step * (n - 1))), 1)
            t = ops.divide(t, vars.m(q=step * n), 1)

    return binomial_sum(summands, vars, order)
