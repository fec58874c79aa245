"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from qident import identities, products
from qident.series import Series


@pytest.fixture
def refuse_product_route(monkeypatch):
    """A call that makes every product-route operation raise from then on.

    The patched operations are general products, inversion and the
    Pochhammer builders, wherever ``products`` and ``identities`` bind them.
    A sum side built after the call must reach none of them, or the check
    against its product side would compare a route with itself.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("a sum side reached the product route")

    def install() -> None:
        monkeypatch.setattr(Series, "invert", refuse)
        monkeypatch.setattr(Series, "__mul__", refuse)
        monkeypatch.setattr(Series, "__rmul__", refuse)
        for name in ("poch", "poch_inf", "poch_finite", "inv_qpoch"):
            monkeypatch.setattr(products, name, refuse)
            monkeypatch.setattr(identities, name, refuse, raising=False)

    return install
