"""Truncated power series 1 + c_1 t + ... + c_N t^N with exact coefficients.

Coefficients are ``MultiPoly`` values over a shared ring, so the same type
covers numeric series and the symbolic series used to model Witt vectors
inside 1 + tA[[t]].  Arithmetic on two series of precisions N1, N2 yields
precision min(N1, N2).
"""

from __future__ import annotations

from .errors import MixedCoefficientRings, UsageError
from .poly import MultiPoly, _signed_sum
from .rings import CoeffRing, _as_int


class TruncSeries:
    __slots__ = ("ring", "coeffs", "precision")

    def __init__(self, ring: CoeffRing, coeffs):
        if not coeffs:
            raise UsageError("a truncated series needs at least the t^0 coefficient")
        self.ring = ring
        self.coeffs = tuple(self._lift(c) for c in coeffs)
        self.precision = len(self.coeffs) - 1

    def _lift(self, c):
        if isinstance(c, MultiPoly):
            self.ring.require_same(c.ring)
            return c
        return MultiPoly.const(self.ring, c)

    @staticmethod
    def one(ring: CoeffRing, precision: int) -> "TruncSeries":
        coeffs = [MultiPoly.one(ring)] + [MultiPoly.zero(ring)] * _as_int(precision, 0, "series need precision >= 0")
        return TruncSeries(ring, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            body = str(c)
            if n == 0:
                parts.append(body)
            else:
                tn = "t" if n == 1 else f"t^{n}"
                if body == "1":
                    parts.append(tn)
                elif body == "-1":
                    parts.append(f"-{tn}")
                elif "+" in body or (body.count("-") - body.startswith("-")) > 0:
                    parts.append(f"({body})*{tn}")
                else:
                    parts.append(f"{body}*{tn}")
        return f"{_signed_sum(parts)} + O(t^{self.precision + 1})"

    __repr__ = __str__

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            raise UsageError("expected a TruncSeries")
        if self.ring != other.ring:
            raise MixedCoefficientRings(f"{self.ring} vs {other.ring}")
        n = min(self.precision, other.precision)
        zero = MultiPoly.zero(self.ring)
        out = [zero] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.ring, out)
