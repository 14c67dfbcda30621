"""Coefficient rings: Z, Q, Z/m and the p-local integers Z_(p).

A ``CoeffRing`` is a small value object that knows how to normalize,
combine and serialize coefficients.  Z and Z/m use Python ints, Q and
Z_(p) ``fractions.Fraction``, Z_(p) as the rationals with denominators
prime to p rather than a numeric type of its own.  Every ring takes a
coefficient as an ``int`` or a ``Fraction`` and refuses anything else with
a ``UsageError``.  The polynomial kernel, and scalar Witt arithmetic,
compute over Q and Z_(p) on integer numerators over one denominator
(``poly``, ``witt``).
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from math import gcd

from .errors import CostLimitExceeded, MixedCoefficientRings, NotDivisible, UsageError

INTEGER = "Z"
RATIONAL = "Q"
MODULAR = "Z/"
LOCALIZED = "Z_("


# the largest trial divisor: a cofactor left above its square must be prime
_TRIAL_BOUND = 10**6


def _factorize(n: int) -> dict:
    """{prime: exponent} for n >= 1 by trial division up to ``_TRIAL_BOUND``,
    empty for n < 2; a cofactor left that is not prime is ``CostLimitExceeded``."""
    out = {}
    d = 2
    while d * d <= n:
        if d > _TRIAL_BOUND:
            if n >= _MR_LIMIT or not _is_prime(n):
                raise CostLimitExceeded(
                    f"{n} has no prime factor up to {_TRIAL_BOUND} and is not known to be prime: "
                    f"factoring it is over the limit of trial division (divisors <= {_TRIAL_BOUND})"
                )
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin with the first 13 prime bases decides primality exactly for
# every n below this bound (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test for n below ``_MR_LIMIT``."""
    if n >= _MR_LIMIT:
        raise UsageError(f"primality of {n} is not decided above {_MR_LIMIT - 1}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _take(value, kind: type, op: str):
    """``value`` if it is a ``kind``, else a ``UsageError`` that names ``op``:
    every public operation takes its vectors, truncation sets, polynomials
    and rings through it."""
    if not isinstance(value, kind):
        raise UsageError(f"{op}: expected a {kind.__name__}, got {type(value).__name__}")
    return value


def _callable(value, op: str):
    """``value`` if it is callable, else a ``UsageError`` that names ``op``."""
    if not callable(value):
        raise UsageError(f"{op}: expected a callable, got {type(value).__name__}")
    return value


def _collection(value, op: str) -> tuple:
    """``value`` as a tuple if it is a collection but no string, else a ``UsageError`` that names ``op``."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise UsageError(f"{op}: expected a collection, got {type(value).__name__}")
    return tuple(value)


def _as_int(c, low: int | None = None, need: str = "") -> int:
    """The one rule for integer parameters: ``c`` as an int when it is an int or
    an integral Fraction, at least ``low`` if given.  Else a ``UsageError``:
    "c is not an integer", or for a value n below ``low`` "{need}, got {n}"."""
    if type(c) is not int:
        if not (isinstance(c, int) or isinstance(c, Fraction) and c.denominator == 1):
            raise UsageError(f"{c!r} is not an integer")
        c = int(c)
    if low is None or c >= low:
        return c
    raise UsageError(f"{need}, got {c}")


_DIGITS = (re.compile(r"[0-9]+"), re.compile(r"-?[0-9]+"))


def ascii_int(text: str, signed: bool = False) -> int:
    """The integer ``text`` writes in ASCII decimal digits and nothing else,
    after one leading '-' if ``signed``; a ``UsageError`` otherwise."""
    if not isinstance(text, str) or not _DIGITS[signed].fullmatch(text):
        raise UsageError(f"invalid int value: {text!r}")
    return int(text)


def json_field(obj, key: str, kind: type = object):
    """``obj[key]`` when ``obj`` is a JSON object with a field ``key`` whose
    value is a ``kind`` (dict or list, if given); else a ``UsageError`` that
    names the field."""
    if not isinstance(obj, dict):
        raise UsageError(f"JSON field {key!r} needs an object")
    if key not in obj:
        raise UsageError(f"JSON field {key!r} is missing")
    value = obj[key]
    if not isinstance(value, kind):
        raise UsageError(f"JSON field {key!r} must be a {kind.__name__}")
    return value


def _prime(p, need: str = "") -> int:
    """The one rule for prime parameters: ``_as_int``, then ``_is_prime``.  A
    non-prime p is a ``UsageError``, "{need}, got {p}" or with no ``need`` "p is not prime"."""
    p = _as_int(p)
    if not _is_prime(p):
        raise UsageError(f"{need}, got {p}" if need else f"{p} is not prime")
    return p


class CoeffRing:
    """One of Z, Q, Z/m (m >= 2) or Z_(p) (p prime)."""

    __slots__ = ("kind", "modulus", "prime")

    def __init__(self, kind: str, modulus: int | None = None, prime: int | None = None):
        self.kind = kind
        if kind not in (INTEGER, RATIONAL, MODULAR, LOCALIZED):
            raise UsageError(f"unknown coefficient ring kind: {kind!r}")
        self.modulus = _as_int(modulus, 2, "modular ring needs modulus >= 2") if kind == MODULAR else None
        self.prime = _prime(prime, "localized integers need a prime") if kind == LOCALIZED else None
        # each kind takes only its own parameter, so rings that print alike are equal
        if modulus is not None and kind != MODULAR:
            raise UsageError(f"{self} takes no modulus")
        if prime is not None and kind != LOCALIZED:
            raise UsageError(f"{self} takes no prime")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def integers() -> "CoeffRing":
        return CoeffRing(INTEGER)

    @staticmethod
    def rationals() -> "CoeffRing":
        return CoeffRing(RATIONAL)

    @staticmethod
    def modular(m: int) -> "CoeffRing":
        return CoeffRing(MODULAR, modulus=m)

    @staticmethod
    def localized(p: int) -> "CoeffRing":
        return CoeffRing(LOCALIZED, prime=p)

    # -- value protocol --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoeffRing)
            and self.kind == other.kind
            and self.modulus == other.modulus
            and self.prime == other.prime
        )

    def __hash__(self):
        return hash((self.kind, self.modulus, self.prime))

    def __repr__(self):
        if self.kind == MODULAR:
            return f"Z/{self.modulus}"
        if self.kind == LOCALIZED:
            return f"Z_({self.prime})"
        return self.kind

    def require_same(self, other: "CoeffRing"):
        """Refuse a ring unequal to this one; the same object passes without
        ``__eq__``, as the rings of one computation all are."""
        if self is not other and self != other:
            raise MixedCoefficientRings(f"{self} vs {other}")

    # -- coefficient arithmetic ------------------------------------------

    def normalize(self, c):
        """Coerce ``c`` into canonical coefficient form for this ring."""
        if self.kind == INTEGER:
            if type(c) is int:
                return c
            if isinstance(c, Fraction) and c.denominator != 1:
                raise NotDivisible(c, f"{c} is not an integer")
            return _as_int(c)
        if self.kind == MODULAR:
            if type(c) is not int:
                if isinstance(c, Fraction) and c.denominator != 1:
                    return self._mod_div(c.numerator, c.denominator)
                c = _as_int(c)
            return c % self.modulus
        if type(c) is not Fraction:
            if not isinstance(c, (int, Fraction)):
                raise UsageError(f"{c!r} is not an int or a Fraction")
            c = Fraction(c)
        if self.kind == LOCALIZED and c.denominator % self.prime == 0:
            raise NotDivisible(c, f"{c} has denominator divisible by {self.prime}")
        return c

    def _mod_div(self, a: int, n: int) -> int:
        # only division by units is well-defined in Z/m
        m = self.modulus
        if gcd(n % m, m) != 1:
            raise NotDivisible(a, f"{n} is not a unit in Z/{m}")
        return (a * pow(n, -1, m)) % m

    def div_int(self, c, n: int):
        """Exact division of a coefficient by a nonzero integer."""
        if n == 0:
            raise UsageError("division by zero")
        if self.kind == INTEGER:
            q, r = divmod(c, n)
            if r:
                raise NotDivisible(c, f"{c} not divisible by {n}")
            return q
        if self.kind == MODULAR:
            return self._mod_div(c % self.modulus, n)
        q = Fraction(c, n)
        if self.kind == LOCALIZED and q.denominator % self.prime == 0:
            raise NotDivisible(c, f"{c}/{n} leaves Z_({self.prime})")
        return q

    # -- serialization ----------------------------------------------------

    def coeff_str(self, c) -> str:
        if isinstance(c, Fraction) and c.denominator != 1:
            return f"{c.numerator}/{c.denominator}"
        return str(int(c))

    def coeff_from_str(self, s: str):
        """The coefficient ``coeff_str`` writes: ASCII decimal digits after an
        optional '-', then '/' and a positive denominator if it has one."""
        num, slash, den = s.partition("/") if isinstance(s, str) else (s, "", "")
        c = ascii_int(num, signed=True)
        if slash:
            c = Fraction(c, _as_int(ascii_int(den), 1, "coefficient denominators must be positive"))
        return self.normalize(c)

    def to_json(self) -> dict:
        if self.kind == INTEGER:
            return {"kind": "Z"}
        if self.kind == RATIONAL:
            return {"kind": "Q"}
        if self.kind == MODULAR:
            return {"kind": "Z/n", "n": self.modulus}
        return {"kind": "Z_(p)", "p": self.prime}

    @staticmethod
    def from_json(obj: dict) -> "CoeffRing":
        kind = json_field(obj, "kind")
        if kind == "Z":
            return CoeffRing.integers()
        if kind == "Q":
            return CoeffRing.rationals()
        if kind == "Z/n":
            return CoeffRing.modular(json_field(obj, "n"))
        if kind == "Z_(p)":
            return CoeffRing.localized(json_field(obj, "p"))
        raise UsageError(f"unknown ring kind in JSON: {kind!r}")


ZZ = CoeffRing.integers()
QQ = CoeffRing.rationals()
