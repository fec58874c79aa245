"""The block automaton's depth recursion on whole series, a reference for the packed run.

G_k at depth d is G_k with x already shifted to x*q^{T*d}.  Beyond
d = order // T every nonempty member's weight exceeds the order, so the
vector there is (1, 0, ..., 0), and the recursion unwinds to depth 0 with
one ``f_vector`` per depth and one ``Series.mul_monomial`` per block and
depth.  ``f_vector`` sums each linking set with ``Series.sum`` on its own,
so the reference shares no aggregation plan with the automaton it checks.
"""

from __future__ import annotations

from qident.lpi import LpiSpec
from qident.series import QUIN_VARS, Series


def f_vector(spec: LpiSpec, vec: list[Series]) -> list[Series]:
    """For each block k, the sum of vec[j] over the linking set of block k."""
    return [Series.sum(vec[0].vars, vec[0].order, (vec[j] for j in link)) for link in spec.linking]


def g_vector(spec: LpiSpec, order: int) -> list[Series]:
    t = spec.modulus
    weights = spec.weights()
    current = [Series.one(QUIN_VARS, order)] + [Series.zero(QUIN_VARS, order) for _ in range(spec.size - 1)]
    for d in range(order // t, -1, -1):
        current = [
            total.mul_monomial((w[0] + t * d * w[1], *w[1:]))
            for w, total in zip(weights, f_vector(spec, current))
        ]
    return current
