import random

import pytest

from lambda_forge.errors import NonUnitConstantTerm
from lambda_forge.poly import MultiPoly, random_poly
from lambda_forge.rings import ZZ
from lambda_forge.series import TruncSeries


def s(coeffs, ring=ZZ):
    return TruncSeries(ring, coeffs)


# The series oracles of the ghost map: -t f'/f lists the ghost components of
# the Witt vector that f models.  The program reads ghosts off the ghost
# route and needs neither, so they live in the tests.


def require_unit(f):
    if f.coeffs[0] != MultiPoly.one(f.ring):
        raise NonUnitConstantTerm(f"constant term is {f.coeffs[0]}, expected 1")


def reciprocal(f):
    """Inverse of a series with constant term 1, up to the precision."""
    require_unit(f)
    zero = MultiPoly.zero(f.ring)
    inv = [MultiPoly.one(f.ring)] + [zero] * f.precision
    for n in range(1, f.precision + 1):
        acc = zero
        for k in range(1, n + 1):
            if not f.coeffs[k].is_zero():
                acc = acc + f.coeffs[k] * inv[n - k]
        inv[n] = -acc
    return TruncSeries(f.ring, inv)


def log_derivative(f):
    """-t f'(t) / f(t); for f = prod (1 - a_n t^n) this reads off ghosts."""
    require_unit(f)
    zero = MultiPoly.zero(f.ring)
    minus_t_fprime = [zero] + [-(f.coeffs[n] * n) for n in range(1, f.precision + 1)]
    return TruncSeries(f.ring, minus_t_fprime) * reciprocal(f)


def test_geometric_reciprocal():
    f = s([1, -1, 0, 0])
    assert reciprocal(f) == s([1, 1, 1, 1])


def test_log_derivative_of_teichmuller_factor():
    a = MultiPoly.var(ZZ, "a")
    f = s([MultiPoly.one(ZZ), -a, MultiPoly.zero(ZZ), MultiPoly.zero(ZZ)])
    assert log_derivative(f) == s(
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
        reciprocal(s([2, 1]))
    with pytest.raises(NonUnitConstantTerm):
        log_derivative(s([0, 1]))


def test_reciprocal_roundtrip_fifty_random_unit_series():
    rng = random.Random(99)
    for _ in range(50):
        coeffs = [MultiPoly.one(ZZ)] + [
            random_poly(rng, ZZ, ("u",), 2, 2, 4) for _ in range(4)
        ]
        f = s(coeffs)
        product = f * reciprocal(f)
        assert product == TruncSeries.one(ZZ, 4)
