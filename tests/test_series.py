import random

import pytest

from lambda_forge.errors import NonUnitConstantTerm
from lambda_forge.poly import MultiPoly, random_poly
from lambda_forge.rings import ZZ
from lambda_forge.series import TruncSeries


def s(coeffs, ring=ZZ):
    return TruncSeries(ring, coeffs)


def test_geometric_reciprocal():
    f = s([1, -1, 0, 0])
    assert f.reciprocal() == s([1, 1, 1, 1])


def test_log_derivative_of_teichmuller_factor():
    a = MultiPoly.var(ZZ, "a")
    f = s([MultiPoly.one(ZZ), -a, MultiPoly.zero(ZZ), MultiPoly.zero(ZZ)])
    assert f.log_derivative() == s(
        [MultiPoly.zero(ZZ), a, a ** 2, a ** 3]
    )


def test_product_of_linear_factors():
    a, b = MultiPoly.var(ZZ, "a"), MultiPoly.var(ZZ, "b")
    one, zero = MultiPoly.one(ZZ), MultiPoly.zero(ZZ)
    lhs = s([one, -a, zero]) * s([one, -b, zero])
    assert lhs == s([one, -(a + b), a * b])


def test_precision_is_minimum():
    f = s([1, 2, 3, 4])
    g = s([1, 1])
    assert (f * g).precision == 1


def test_reciprocal_needs_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        s([2, 1]).reciprocal()
    with pytest.raises(NonUnitConstantTerm):
        s([0, 1]).log_derivative()


def test_reciprocal_roundtrip_fifty_random_unit_series():
    rng = random.Random(99)
    for _ in range(50):
        coeffs = [MultiPoly.one(ZZ)] + [
            random_poly(rng, ZZ, ("u",), 2, 2, 4) for _ in range(4)
        ]
        f = s(coeffs)
        product = f * f.reciprocal()
        assert product == TruncSeries.one(ZZ, 4)
