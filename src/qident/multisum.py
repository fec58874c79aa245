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

``rec_step`` splits a node in two exactly as the one-coordinate recurrence
does (raise beta_r by A_r, or absorb a monomial weight and add alpha's r-th
row), and ``verify_matrix_relation`` checks the seven-row closure of the
quinvariate family both symbolically (leaf multisets) and numerically.
"""

from __future__ import annotations

from .record import Record
from .series import QUIN_VARS, Mono, Series, SeriesError, VarSet, _check_keys, mono_mul


class NonTerminatingSum(SeriesError):
    """Some index direction never raises the q-degree; the sum cannot truncate."""


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

#: 0/1 incidence of the closure relation (which shifted columns feed each row).
RELATION_MATRIX: tuple[tuple[int, ...], ...] = (
    (1, 1, 1, 1, 1, 1, 1),
    (1, 1, 0, 1, 1, 1, 1),
    (1, 1, 0, 1, 1, 1, 1),
    (1, 0, 0, 1, 1, 1, 1),
    (1, 0, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 0, 0, 0),
)

#: Diagonal weight monomials (1, xq, xzq, xy1q^2, xq^3, xzq^3, xy2q^4).
RELATION_WEIGHTS: tuple[Mono, ...] = (
    QUIN_VARS.m(),
    QUIN_VARS.m(x=1, q=1),
    QUIN_VARS.m(x=1, z=1, q=1),
    QUIN_VARS.m(x=1, y1=1, q=2),
    QUIN_VARS.m(x=1, q=3),
    QUIN_VARS.m(x=1, z=1, q=3),
    QUIN_VARS.m(x=1, y2=1, q=4),
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

    Each row is checked symbolically (leaf multisets) and numerically.
    Returns ``(passed, witness)``; the witness names the first failing row.
    """
    spec, vars = quinvariate_spec(), QUIN_VARS
    evals: dict[tuple[int, ...], Series] = {}
    columns: dict[int, Series] = {}

    def value(beta: tuple[int, ...]) -> Series:
        if beta not in evals:
            evals[beta] = eval_sum(spec, beta, vars, order)
        return evals[beta]

    def column(j: int) -> Series:
        """weight_j * H(shifted beta_j), built once for every row that reads it."""
        if j not in columns:
            shifted = shift_beta_for_x(spec, RELATION_BETAS[j], 4)
            columns[j] = value(shifted).mul_monomial(RELATION_WEIGHTS[j])
        return columns[j]

    for k in range(len(RELATION_BETAS)):
        row_beta = RELATION_BETAS[k]
        expected = sorted(
            (RELATION_WEIGHTS[j], shift_beta_for_x(spec, RELATION_BETAS[j], 4))
            for j in range(7)
            if RELATION_MATRIX[k][j]
        )
        leaves = expand_tree(spec, vars, row_beta, list(RELATION_PLANS[k]))
        got = sorted((leaf.weight, leaf.beta) for leaf in leaves)
        if got != expected:
            return False, f"row {k + 1}: leaf multiset {got} != expected {expected}"
        lhs = value(row_beta)
        rhs = Series.sum(vars, order, (column(j) for j in range(7) if RELATION_MATRIX[k][j]))
        mm = lhs.first_mismatch(rhs, order)
        if mm is not None:
            return False, f"row {k + 1}: {mm.render(vars)}"
    return True, None
