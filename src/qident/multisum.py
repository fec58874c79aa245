"""The generic q-multi-sum family H(beta) and its recurrence machinery.

A spec fixes a symmetric quadratic form ``alpha`` (diagonal entries read as
coefficients of binom(n_r, 2)), Pochhammer bases ``q^{A_r}``, and one exponent
vector ``gamma_j`` per non-q variable.  For an integer vector beta,

    H(beta) = sum over n in N^R of
        prod_j x_j^(gamma_j . n) / prod_r (q^{A_r}; q^{A_r})_{n_r}
        * q^( sum_r alpha_rr*binom(n_r,2) + sum_{i<j} alpha_ij n_i n_j
              + sum_r beta_r n_r )

Each index value multiplies in a single monomial and a univariate factor
1/(q^{A_r};q^{A_r})_{n_r}, so evaluation walks the index tree keeping a
(monomial, univariate series) pair and prunes any prefix whose guaranteed
minimal q-degree already exceeds the truncation order.  Going from n_r - 1
to n_r divides the univariate list by 1 - q^{A_r n_r}, one prefix pass over
a copy, so the walk forms no product and inverts nothing.  Rank 1 with
alpha 0 or the base gives Euler's two sums, ``products.euler1``/``euler2``.

``binomial_sum`` builds the single sums whose summands carry signed
binomials, such as (a; q)_n, which no spec here expresses: each summand is
the one before times a monomial and binomials 1 - s*A, divided by others.
The series it carries forward are packed along q, one int per non-q part
with one slot per q-degree, so that each of those steps is one big-int
shift and add per int; its slot comes from the same builder run first on
the univariate majorant, and it has its own decode.

``rec_step`` splits a node in two exactly as the one-coordinate recurrence
does (raise beta_r by A_r, or absorb a monomial weight and add alpha's r-th
row), and ``verify_matrix_relation`` checks the seven-row closure of the
quinvariate family both symbolically (leaf multisets) and numerically.  The
closure is the system of the gap-4 linked partition ideal, so its incidence
and weights are read from ``lpi``; the betas of its rows and the coordinate
chains that realize them are facts of this family and live here.
"""

from __future__ import annotations

import sys
from operator import add
from typing import Callable, Iterable

from .lpi import gap4_ideal, matrices
from .record import Record
from .series import _WORDS, QUIN_VARS, Mono, Series, SeriesError, VarSet, _check_keys, _word_bytes, mono_mul


class NonTerminatingSum(SeriesError):
    """Some index direction never raises the q-degree; the sum cannot truncate."""


class DivergentProduct(SeriesError):
    """Infinite product or sum whose argument carries no q-degree."""


class MultiSumSpec(Record):
    """The data of an R-fold sum: quadratic form ``alpha``, Pochhammer ``bases`` and ``gammas``."""

    __slots__ = _fields = ("alpha", "bases", "gammas")

    def __init__(
        self,
        alpha: tuple[tuple[int, ...], ...],
        bases: tuple[int, ...],
        gammas: tuple[tuple[int, ...], ...],
    ) -> None:
        rank = len(bases)
        if len(alpha) != rank or any(len(row) != rank for row in alpha):
            raise SeriesError("alpha must be R x R")
        for i in range(rank):
            for j in range(rank):
                if alpha[i][j] < 0:
                    raise SeriesError("alpha entries must be >= 0")
                if alpha[i][j] != alpha[j][i]:
                    raise SeriesError("alpha must be symmetric")
        if any(a < 1 for a in bases):
            raise SeriesError("Pochhammer bases must be >= 1")
        for g in gammas:
            if len(g) != rank:
                raise SeriesError("gamma vectors must have length R")
            if any(e < 0 for e in g):
                raise SeriesError("gamma entries must be >= 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "gammas", gammas)

    @property
    def rank(self) -> int:
        return len(self.bases)


class SumNode(Record):
    """A weighted evaluation point: weight monomial times H(beta)."""

    __slots__ = _fields = ("weight", "beta")

    def __init__(self, weight: Mono, beta: tuple[int, ...]) -> None:
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "beta", beta)


def _check_vars(spec: MultiSumSpec, vars: VarSet) -> None:
    """Gamma vector j gives the exponents of variable j + 1, the variables after q."""
    if vars.arity - 1 != len(spec.gammas):
        raise SeriesError(
            f"spec has {len(spec.gammas)} gamma vectors but {vars.names} has "
            f"{vars.arity - 1} non-truncation variables"
        )


def _check_beta(spec: MultiSumSpec, beta: tuple[int, ...]) -> None:
    if len(beta) != spec.rank:
        raise SeriesError(f"beta {beta} must have length {spec.rank}")
    for r in range(spec.rank):
        if beta[r] < 0:
            raise SeriesError(f"beta[{r}] = {beta[r]} would give terms of negative q-degree")
        if spec.alpha[r][r] == 0 and beta[r] == 0:
            raise NonTerminatingSum(
                f"index {r}: alpha[{r}][{r}] = 0 and beta[{r}] = 0 never raise the q-degree"
            )


def _divide_q_power(coeffs: list[int], step: int, length: int) -> list[int]:
    """The univariate series ``coeffs`` divided by 1 - q^step, to ``length`` coefficients.

    A copy of ``coeffs``, truncated or zero-padded to ``length`` entries, takes
    one prefix pass c[j] += c[j - step] in increasing j; each c[j - step] is
    final when it is read.  ``coeffs`` is not modified, and step must be >= 1.
    The one knapsack for 1/(q^b;q^b)_n: ``eval_sum`` divides its child lists
    by it, and ``products.inv_qpoch`` applies it once per factor.
    """
    out = coeffs[:length]
    out += [0] * (length - len(out))
    for j in range(step, length):
        out[j] += out[j - step]
    return out


# -- sums of binomial summands, packed along q ------------------------------------


class _Majorant:
    """The operations of ``binomial_sum`` on a builder's univariate majorant.

    Every sign is +1 and every non-q variable 1, on exact int lists indexed
    by q-degree 0..order: a monomial moves a list up by its q-degree, a
    factor 1 - s*A adds a copy moved up by deg(A), and a division by
    1 - s*A divides by 1 - q^deg(A) through ``_divide_q_power``.  By
    induction over the steps, each entry bounds the sum of the absolute
    values of the coefficients of that q-degree in the value that
    ``_QPacked`` builds by the same steps; ``bound`` is the largest entry of
    every list made so far.
    """

    def __init__(self, vars: VarSet, order: int) -> None:
        self.vars, self.length, self.bound = vars, order + 1, 1

    def _seen(self, t: list[int]) -> list[int]:
        self.bound = max(self.bound, max(t))
        return t

    def _degree(self, mono: Mono) -> int:
        self.vars.pack(mono)  # refuses what _QPacked refuses
        return mono[0]

    def one(self) -> list[int]:
        return [1] + [0] * (self.length - 1)

    def load(self, r: Series) -> list[int]:
        t = [0] * self.length
        top = self.vars.shifts[0]
        for key, c in r._terms.items():
            if key >> top < self.length:
                t[key >> top] += abs(c)
        return self._seen(t)

    def shift(self, t: list[int], mono: Mono) -> list[int]:
        d = self._degree(mono)
        return ([0] * d + t)[: self.length]

    def times(self, t: list[int], mono: Mono, sign: int) -> list[int]:
        d = self._degree(mono)
        if d >= self.length:
            return t
        return self._seen(list(map(add, t, [0] * d + t[: self.length - d])))

    def divide(self, t: list[int], mono: Mono, sign: int) -> list[int]:
        d = self._degree(mono)
        if d < 1:
            raise DivergentProduct(f"divisor argument {mono} must carry q-degree >= 1")
        return self._seen(_divide_q_power(t, d, self.length))

    def is_zero(self, t: list[int]) -> bool:
        return not any(t)

    def sum(self, values: Iterable[list[int]]) -> list[int]:
        total = [0] * self.length
        for t in values:
            total = list(map(add, total, t))
        return self._seen(total)


class _QPacked:
    """The operations of ``binomial_sum`` on series packed along q.

    A value maps each non-q part of a key, ``key & ((1 << top) - 1)``, to
    one int that holds the part's q-polynomial in slots of ``nbytes``, one
    per q-degree from q^0 up to q^order.  Every int is kept reduced mod
    2**(width * (order + 1)): the mask is the cut to the slots that can
    still reach the order, and a slot holds its coefficient mod 2**width.
    Reduction commutes with sums and with moves up, so every int is exact
    mod the mask, and a group that is zero there is dropped: a coefficient
    below half a slot in absolute value, which the majorant proves, reads
    back from its slot.  A monomial X q^d moves every group to its key plus
    X, d slots up; so a factor or a division costs one shift and one add
    per group.  The keys a step makes are checked as they are made.
    """

    def __init__(self, vars: VarSet, order: int, nbytes: int) -> None:
        self.vars, self.order, self.nbytes = vars, order, nbytes
        self.width = 8 * nbytes
        self.top = vars.shifts[0]
        self.mask = (1 << self.width * (order + 1)) - 1

    def _split(self, mono: Mono) -> tuple[int, int]:
        """The non-q part of a monomial's key and its q-degree."""
        return self.vars.pack(mono) & ((1 << self.top) - 1), mono[0]

    def one(self) -> dict[int, int]:
        return {0: 1}

    def load(self, r: Series) -> dict[int, int]:
        """The groups of ``r``, whose order must reach this one."""
        if r.order < self.order:
            raise SeriesError(f"a series of order {r.order} cannot give terms up to {self.order}")
        low, top, width = (1 << self.top) - 1, self.top, self.width
        out: dict[int, int] = {}
        for key, c in r._terms.items():
            if key >> top <= self.order:
                out[key & low] = out.get(key & low, 0) + (c << width * (key >> top))
        return {k: p & self.mask for k, p in out.items()}

    def shift(self, t: dict[int, int], mono: Mono) -> dict[int, int]:
        """t times the monomial: every group moved to its key plus X, d slots up."""
        part, d = self._split(mono)
        shift, mask = self.width * d, self.mask
        out = {}
        for k, p in t.items():
            p = p << shift & mask
            if p:
                out[k + part] = p
        if part:
            _check_keys(self.vars, out)
        return out

    def times(self, t: dict[int, int], mono: Mono, sign: int) -> dict[int, int]:
        """t * (1 - sign*X*q^d): each group, moved, is taken from the group of its key plus X."""
        part, d = self._split(mono)
        shift, mask = self.width * d, self.mask
        out = dict(t)
        for k, p in t.items():
            moved = p << shift & mask
            if moved:
                k += part
                c = out.get(k, 0)
                c = (c - moved if sign == 1 else c + moved) & mask
                if c:
                    out[k] = c
                else:
                    del out[k]
        if part:
            _check_keys(self.vars, out)
        return out

    def divide(self, t: dict[int, int], mono: Mono, sign: int) -> dict[int, int]:
        """t / (1 - sign*X*q^d), which needs d >= 1.

        Over q alone each group is multiplied by (1 + sign*q^d)(1 + q^2d)
        (1 + q^4d)..., the factors of the geometric series up to the order,
        one shift and add each.  Otherwise the quotient Q is t + sign*X*q^d*Q:
        along each chain of keys k, k + X, k + 2X, ..., Q at k + X is t's
        group there plus sign times Q at k moved d slots up.  A chain starts
        at the least key of t that no chain has reached, and ends where the
        move leaves nothing and t has no group, so Q is zero at the next key
        and a chain through a later group of t starts afresh there.  Every
        key is checked before it is added to.
        """
        part, d = self._split(mono)
        if d < 1:
            raise DivergentProduct(f"divisor argument {mono} must carry q-degree >= 1")
        width, mask = self.width, self.mask
        out = {}
        if not part:
            for k, p in t.items():
                p = (p + (p << width * d) if sign == 1 else p - (p << width * d)) & mask
                e = 2 * d
                while e <= self.order:
                    p = (p + (p << width * e)) & mask
                    e *= 2
                out[k] = p
            return out
        pending = dict(t)
        for k in sorted(t):
            if k not in pending:
                continue
            p = pending.pop(k)
            while True:
                if p:
                    out[k] = p
                moved = p << width * d & mask
                k += part
                if not moved and k not in pending:
                    break
                _check_keys(self.vars, (k,))
                c = pending.pop(k, 0)
                p = (c + moved if sign == 1 else c - moved) & mask
        return out

    def is_zero(self, t: dict[int, int]) -> bool:
        return not t

    def sum(self, values: Iterable[dict[int, int]]) -> dict[int, int]:
        acc: dict[int, int] = {}
        for t in values:
            for k, p in t.items():
                acc[k] = acc.get(k, 0) + p
        out = {}
        for k, p in acc.items():
            p &= self.mask
            if p:
                out[k] = p
        return out

    def decode(self, t: dict[int, int]) -> Series:
        """The series of a value, each group read once from its least nonzero slot.

        The least slot is the group's trailing zero bits over the width.  Half
        a slot is added to every slot, and each is read back as an unsigned
        word less half a slot: through ``memoryview.cast`` for a slot of 1, 2,
        4 or 8 bytes, chunk by chunk with ``int.from_bytes`` for a wider one.
        """
        width, nbytes, top, length = self.width, self.nbytes, self.top, self.order + 1
        order = sys.byteorder
        half = 1 << (width - 1)
        bias = int.from_bytes(half.to_bytes(nbytes, order) * length, order)
        keys: list[int] = []
        chunks = []
        for k, p in t.items():
            lo = ((p & -p).bit_length() - 1) // width
            n = length - lo
            chunks.append((((p >> width * lo) + bias) & (self.mask >> width * lo)).to_bytes(nbytes * n, order))
            start = k + (lo << top)
            keys += range(start, start + (n << top), 1 << top)
        data = b"".join(chunks)
        fmt = _WORDS.get(nbytes)
        if fmt:
            words: Iterable[int] = memoryview(data).cast(fmt)
        else:
            words = [int.from_bytes(data[i : i + nbytes], order) for i in range(0, len(data), nbytes)]
        return Series._raw(
            self.vars, self.order, {key: u - half for key, u in zip(keys, words) if u != half}
        )


def binomial_sum(
    summands: Callable[[_Majorant | _QPacked], Iterable], vars: VarSet, order: int
) -> Series:
    """The sum of the values ``summands(ops)`` yields, each built from the kernel's operations.

    The operations are ``one``, ``load``, ``shift`` by a monomial, ``times``
    and ``divide`` by a binomial 1 - sign*A, ``is_zero`` and ``sum``; none
    changes its operand.  ``summands`` runs twice.  First it runs on its
    univariate majorant (``_Majorant``), whose largest value over every
    step, plus a sign bit, sets the slot, rounded up to a native word by
    ``series._word_bytes``.  Then it runs on series packed along q (``_QPacked``),
    and the sum is decoded once.  No product, inverse or product codec is
    used, so this is the sum route beside ``eval_sum``.
    """
    if order < 0:
        raise SeriesError("truncation order must be >= 0")
    majorant = _Majorant(vars, order)
    majorant.sum(summands(majorant))
    packed = _QPacked(vars, order, _word_bytes(majorant.bound.bit_length() + 1))
    return packed.decode(packed.sum(summands(packed)))


def eval_sum(
    spec: MultiSumSpec, beta: tuple[int, ...], vars: VarSet, order: int
) -> Series:
    """H(beta) truncated at ``order``, with per-prefix lower-bound pruning.

    Walking index r, child n's univariate list is child n - 1's list divided
    by 1 - q^{A_r * n} (``_divide_q_power``), cut to the q-degrees
    that child can still reach; child 0 shares its parent's list.  No product
    is formed and nothing is inverted.  The walk carries the non-q monomial
    as a packed key, checked against the layout's limit at each node, and
    each leaf adds its list at that key plus one q-step per entry.
    """
    beta = tuple(beta)
    _check_beta(spec, beta)
    _check_vars(spec, vars)
    if order < 0:
        raise SeriesError("truncation order must be >= 0")
    rank = spec.rank
    top = vars.shifts[0]
    one_q = 1 << top
    # Packed increment of the non-q variables when index r advances by one.
    col_step = [vars.pack((0, *(g[r] for g in spec.gammas))) for r in range(rank)]
    acc: dict[int, int] = {}

    def emit(mono: int, qdeg: int, uni: list[int]) -> None:
        # uni[e] is the coefficient of q^(qdeg + e); none lies past q^order.
        key = mono + (qdeg << top)
        for c in uni:
            if c:
                s = acc.get(key, 0) + c
                if s:
                    acc[key] = s
                else:
                    del acc[key]
            key += one_q

    def walk(r: int, qdeg: int, mono: int, uni: list[int], chosen: tuple[int, ...]) -> None:
        if r == rank:
            emit(mono, qdeg, uni)
            return
        lin = beta[r] + sum(spec.alpha[i][r] * chosen[i] for i in range(r))
        diag = spec.alpha[r][r]
        n = 0
        while True:
            d = diag * (n * (n - 1) // 2) + lin * n
            total = qdeg + d
            if total > order:
                break
            if n:
                mono += col_step[r]
                _check_keys(vars, (mono,))
                uni = _divide_q_power(uni, spec.bases[r] * n, order - total + 1)
            walk(r + 1, total, mono, uni, chosen + (n,))
            n += 1

    walk(0, 0, 0, [1], ())
    return Series._raw(vars, order, acc)


def rec_step(
    spec: MultiSumSpec, vars: VarSet, node: SumNode, r: int
) -> tuple[SumNode, SumNode]:
    """Split H(..., beta_r, ...) on coordinate r (1-based).

    The first child raises beta_r by A_r; the second absorbs the edge monomial
    prod_j x_j^{gamma_{j,r}} * q^{beta_r} and adds alpha's r-th row to beta.
    The values satisfy value(node) = value(child1) + value(child2).
    """
    if not 1 <= r <= spec.rank:
        raise SeriesError(f"coordinate {r} out of range 1..{spec.rank}")
    _check_vars(spec, vars)
    idx = r - 1
    beta = node.beta
    if beta[idx] < 0:
        raise SeriesError(f"beta[{idx}] = {beta[idx]} < 0: edge weight q-exponent must stay >= 0")
    child1 = SumNode(node.weight, beta[:idx] + (beta[idx] + spec.bases[idx],) + beta[idx + 1 :])
    edge = (beta[idx], *(g[idx] for g in spec.gammas))
    child2 = SumNode(
        mono_mul(node.weight, edge),
        tuple(b + spec.alpha[idx][i] for i, b in enumerate(beta)),
    )
    return child1, child2


def expand_tree(
    spec: MultiSumSpec, vars: VarSet, root: tuple[int, ...], plan: list[int]
) -> list[SumNode]:
    """Expand along a chain of coordinate choices; every split-off node is a leaf.

    Each plan entry expands the current first child; the sum of leaf values
    equals H(root).  An empty plan returns the root itself with unit weight.
    """
    current = SumNode((0,) * vars.arity, tuple(root))
    side: list[SumNode] = []
    for r in plan:
        current, split = rec_step(spec, vars, current, r)
        side.append(split)
    return [current] + side[::-1]


def shift_beta_for_x(spec: MultiSumSpec, beta: tuple[int, ...], s: int) -> tuple[int, ...]:
    """beta for the substitution x -> x * q^s, x being the first non-q variable."""
    if s < 0:
        raise SeriesError("shift must be >= 0")
    return tuple(b + s * e for b, e in zip(beta, spec.gammas[0]))


# -- the quinvariate family and its seven-row closure ---------------------------

#: Quadratic form, Pochhammer bases, and variable exponents of the quinvariate
#: family generating the gap-4 overpartition statistics.
def quinvariate_spec() -> MultiSumSpec:
    return MultiSumSpec(
        alpha=((4, 4, 4, 4), (4, 6, 4, 4), (4, 4, 4, 4), (4, 4, 4, 8)),
        bases=(2, 2, 4, 4),
        gammas=((1, 1, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)),
    )


#: Left-hand beta vectors of the closure relation, one per automaton block.
RELATION_BETAS: tuple[tuple[int, int, int, int], ...] = (
    (1, 1, 2, 4),
    (1, 3, 2, 4),
    (1, 3, 2, 4),
    (3, 3, 2, 4),
    (3, 5, 6, 4),
    (3, 5, 6, 4),
    (5, 5, 6, 8),
)

#: Coordinate chains whose leaf multisets realize each row of the relation.
#: Only the first row's chain is forced; the rest were found by hand and are
#: certified by the exact leaf comparison below.
RELATION_PLANS: tuple[tuple[int, ...], ...] = (
    (2, 1, 3, 2, 1, 4),
    (1, 3, 2, 1, 4),
    (1, 3, 2, 1, 4),
    (3, 2, 1, 4),
    (1, 4),
    (1, 4),
    (),
)


def verify_matrix_relation(order: int) -> tuple[bool, str | None]:
    """Check the seven-row closure of the quinvariate family to ``order``.

    Row k reads H(beta_k) as the sum, over the blocks j that block k links
    to, of W_j * H(beta_j) with x -> xq^T: the system F = A . W . F(xq^T)
    of the gap-4 ideal, whose incidence A and weights W come from
    ``lpi.matrices`` and T from its modulus.  Each row is checked
    symbolically (leaf multisets) and numerically.  Returns
    ``(passed, witness)``; the witness names the first failing row.
    """
    spec, vars, ideal = quinvariate_spec(), QUIN_VARS, gap4_ideal()
    incidence, weights = matrices(ideal)
    evals: dict[tuple[int, ...], Series] = {}
    columns: dict[int, Series] = {}

    def value(beta: tuple[int, ...]) -> Series:
        if beta not in evals:
            evals[beta] = eval_sum(spec, beta, vars, order)
        return evals[beta]

    def column(j: int) -> Series:
        """weight_j * H(shifted beta_j), built once for every row that reads it."""
        if j not in columns:
            shifted = shift_beta_for_x(spec, RELATION_BETAS[j], ideal.modulus)
            columns[j] = value(shifted).mul_monomial(weights[j])
        return columns[j]

    for k, row_beta in enumerate(RELATION_BETAS):
        linked = [j for j in range(len(weights)) if incidence[k][j]]
        expected = sorted((weights[j], shift_beta_for_x(spec, RELATION_BETAS[j], ideal.modulus)) for j in linked)
        leaves = expand_tree(spec, vars, row_beta, list(RELATION_PLANS[k]))
        got = sorted((leaf.weight, leaf.beta) for leaf in leaves)
        if got != expected:
            return False, f"row {k + 1}: leaf multiset {got} != expected {expected}"
        lhs = value(row_beta)
        rhs = Series.sum(vars, order, (column(j) for j in linked))
        mm = lhs.first_mismatch(rhs, order)
        if mm is not None:
            return False, f"row {k + 1}: {mm.render(vars)}"
    return True, None
