"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import kernels


def _refuse_route(route: str, message: str):
    """A fixture whose call makes every kernel on ``route`` raise from then on.

    The kernels are those ``tests/kernels.py`` lists on the route, patched
    wherever the package binds them.
    """

    @pytest.fixture
    def fixture(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(message)

        def install() -> None:
            for name in kernels.on_route(route):
                kernels.install(monkeypatch, name, refuse)

        return install

    return fixture


# A sum side built after the call must reach no general product, inverse or
# Pochhammer builder, or the check against its product side would compare a
# route with itself.
refuse_product_route = _refuse_route("product", "a sum side reached the product route")

# The mirror: a product side built after the call must reach no multi-sum
# walk, no division by 1 - q^k and no division by a binomial.
refuse_sum_route = _refuse_route("sum", "a product side reached the sum route")


@pytest.fixture(scope="session")
def reach():
    """``kernels.reach()``, recorded once per session, before any test patches a kernel."""
    return kernels.reach()
