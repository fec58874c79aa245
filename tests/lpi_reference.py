"""The block automaton's depth recursion on whole series, a reference for the packed run.

G_k at depth d is G_k with x already shifted to x*q^{T*d}.  Beyond
d = order // T every nonempty member's weight exceeds the order, so the
vector there is (1, 0, ..., 0), and the recursion unwinds to depth 0 with
one ``f_vector`` per depth and one ``Series.mul_monomial`` per block and
depth.
"""

from __future__ import annotations

from qident.lpi import LpiSpec, f_vector
from qident.series import QUIN_VARS, Series


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
