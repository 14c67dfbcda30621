"""Primality: the deterministic Miller-Rabin test against trial division;
what each ring takes as a coefficient, and as its modulus or prime."""

import time
from decimal import Decimal
from fractions import Fraction

import pytest

from lambda_forge.cli import main
from lambda_forge.errors import MixedCoefficientRings, NotDivisible, UsageError
from lambda_forge.poly import MultiPoly
from lambda_forge.rings import _MR_LIMIT, INTEGER, LOCALIZED, MODULAR, QQ, RATIONAL, ZZ, CoeffRing, _is_prime


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_agrees_with_trial_division_below_twenty_thousand():
    assert [n for n in range(20000) if _is_prime(n) != trial_division_is_prime(n)] == []


@pytest.mark.parametrize(
    "n",
    [
        2047,  # strong pseudoprime to base 2
        1373653,  # to bases 2, 3
        25326001,  # to bases 2, 3, 5
        3215031751,  # to bases 2, 3, 5, 7
        2152302898747,  # to bases 2, 3, 5, 7, 11
        3474749660383,  # to bases 2 .. 13
        341550071728321,  # to bases 2 .. 17
        3825123056546413051,  # to bases 2 .. 23
        318665857834031151167461,  # to bases 2 .. 37
        1000000000000000001,  # 101 * 9901 * 999999000001
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("n", [1000000000000000003, 2**61 - 1, 999999000001, 9901])
def test_large_primes(n):
    assert _is_prime(n)


def test_refuses_numbers_past_the_exact_bound():
    assert not _is_prime(_MR_LIMIT - 1)  # 3317044064679887385961980 is even
    with pytest.raises(UsageError):
        _is_prime(_MR_LIMIT)
    with pytest.raises(UsageError):
        _is_prime(2**89 - 1)  # a Mersenne prime, but past the bound
    with pytest.raises(UsageError):
        CoeffRing.localized(2**127 - 1)


def test_free_lambda_ring_on_a_large_prime(capsys):
    start = time.perf_counter()
    code = main(["lambda", "free", "--primes", "1000000000000000003", "--depth", "1"])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert "basis.X1000000000000000003:" in capsys.readouterr().out


def test_large_composite_prime_argument_is_a_usage_error(capsys):
    start = time.perf_counter()
    code = main(["lambda", "free", "--primes", "1000000000000000001", "--depth", "1"])
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert code == 1 and "not prime" in err and "Traceback" not in err


@pytest.mark.parametrize("ring", [ZZ, CoeffRing.modular(6)], ids=repr)
@pytest.mark.parametrize("c", [2.5, 2.0, "7", None, 1j])
def test_integer_rings_take_only_ints_and_fractions(ring, c):
    with pytest.raises(UsageError, match="is not an integer"):
        MultiPoly.const(ring, c)


def test_integer_rings_take_ints_and_integral_fractions():
    assert ZZ.normalize(True) == 1 and type(ZZ.normalize(True)) is int
    assert ZZ.normalize(Fraction(6, 3)) == 2 and type(ZZ.normalize(Fraction(6, 3))) is int
    with pytest.raises(NotDivisible):
        ZZ.normalize(Fraction(1, 2))
    z6 = CoeffRing.modular(6)
    assert z6.normalize(-1) == 5 and z6.normalize(Fraction(14, 2)) == 1 and z6.normalize(Fraction(1, 5)) == 5


@pytest.mark.parametrize("ring", [QQ, CoeffRing.localized(3)], ids=repr)
@pytest.mark.parametrize("c", [2.5, 2.0, "1/3", "7", None, 1j, Decimal("0.5")])
def test_rational_rings_take_only_ints_and_fractions(ring, c):
    with pytest.raises(UsageError, match="is not an int or a Fraction"):
        MultiPoly.const(ring, c)


def test_rational_rings_take_ints_and_fractions():
    z3 = CoeffRing.localized(3)
    for ring in (QQ, z3):
        assert type(ring.normalize(2)) is Fraction and ring.normalize(True) == 1
        assert ring.normalize(Fraction(6, 4)) == Fraction(3, 2)
    with pytest.raises(NotDivisible):
        z3.normalize(Fraction(1, 6))


@pytest.mark.parametrize("make", [lambda: CoeffRing.modular(2.5), lambda: CoeffRing.modular("4"),
                                  lambda: CoeffRing.localized(2.5), lambda: CoeffRing.localized("3")])
def test_ring_parameters_are_integers(make):
    with pytest.raises(UsageError, match="is not an integer"):
        make()


def test_integral_fraction_parameters_are_integers():
    assert CoeffRing.modular(Fraction(8, 2)) == CoeffRing.modular(4)
    assert repr(CoeffRing.modular(Fraction(8, 2))) == "Z/4"
    assert CoeffRing.localized(Fraction(6, 2)) == CoeffRing.localized(3)


@pytest.mark.parametrize(
    "kind, params",
    [
        (RATIONAL, {"modulus": 5}),
        (RATIONAL, {"prime": 5}),
        (INTEGER, {"modulus": 5}),
        (INTEGER, {"prime": 3}),
        (MODULAR, {"modulus": 4, "prime": 2}),
        (LOCALIZED, {"modulus": 4, "prime": 3}),
    ],
)
def test_each_ring_takes_only_its_own_parameter(kind, params):
    # a Q that kept a modulus printed as Q but was unequal to QQ
    with pytest.raises(UsageError, match="takes no"):
        CoeffRing(kind, **params)


def test_rings_that_print_alike_are_equal():
    made = [CoeffRing.integers(), CoeffRing.rationals(), CoeffRing.modular(6), CoeffRing.localized(3)]
    assert made == [ZZ, QQ, CoeffRing(MODULAR, modulus=6), CoeffRing(LOCALIZED, prime=3)]
    assert [repr(r) for r in made] == ["Z", "Q", "Z/6", "Z_(3)"]
    total = MultiPoly.const(CoeffRing.rationals(), 1) + MultiPoly.const(QQ, 1)
    assert total == MultiPoly.const(QQ, 2)


def test_require_same_passes_the_same_ring_without_comparing(monkeypatch):
    def refuse(self, other):
        raise AssertionError("compared")

    monkeypatch.setattr(CoeffRing, "__eq__", refuse)
    for ring in (ZZ, QQ, CoeffRing.modular(4)):
        ring.require_same(ring)
    with pytest.raises(AssertionError, match="compared"):
        ZZ.require_same(CoeffRing.integers())
    monkeypatch.undo()
    ZZ.require_same(CoeffRing.integers())
    with pytest.raises(MixedCoefficientRings, match="Z vs Q"):
        ZZ.require_same(QQ)
