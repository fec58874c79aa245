"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from qident import identities, multisum, products
from qident.series import Series


@pytest.fixture
def refuse_product_route(monkeypatch):
    """A call that makes every product-route operation raise from then on.

    The patched operations are general products, inversion and the
    Pochhammer builders, inverted ones included, wherever ``products`` and
    ``identities`` bind them.  A sum side built after the call must reach
    none of them, or the check against its product side would compare a
    route with itself.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("a sum side reached the product route")

    def install() -> None:
        monkeypatch.setattr(Series, "invert", refuse)
        monkeypatch.setattr(Series, "__mul__", refuse)
        monkeypatch.setattr(Series, "__rmul__", refuse)
        for name in ("poch", "poch_inf", "poch_finite", "poch_inverse", "inv_qpoch"):
            monkeypatch.setattr(products, name, refuse)
            monkeypatch.setattr(identities, name, refuse, raising=False)

    return install


@pytest.fixture
def refuse_sum_route(monkeypatch):
    """A call that makes every sum-route kernel raise from then on.

    The mirror of ``refuse_product_route``: division by a binomial, the
    prefix pass that divides by 1 - q^k and the multi-sum tree walk raise
    wherever ``products``, ``multisum`` and ``identities`` bind them.  A
    product side built after the call must reach none of them.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("a product side reached the sum route")

    def install() -> None:
        for name in ("_divide_binomial", "_divide_q_power", "eval_sum"):
            binders = [m for m in (products, multisum, identities) if hasattr(m, name)]
            assert binders, f"no module binds {name}"
            for module in binders:
                monkeypatch.setattr(module, name, refuse)

    return install
