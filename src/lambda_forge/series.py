"""Truncated power series 1 + c_1 t + ... + c_N t^N with exact coefficients.

Coefficients are ``MultiPoly`` values over a shared ring, so the same type
covers numeric series and the symbolic series used to model Witt vectors
inside 1 + tA[[t]].  Arithmetic on two series of precisions N1, N2 yields
precision min(N1, N2).  The series model itself, ``to_series`` and
``from_series``, lives here too and loads ``witt`` when it runs.
"""

from __future__ import annotations

from .errors import MixedCoefficientRings, NonUnitConstantTerm, UsageError
from .poly import MultiPoly, _signed_sum
from .rings import CoeffRing, _as_int, _take
from .truncation import TruncationSet


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


def to_series(a: WittVec) -> TruncSeries:
    """prod over n in S of (1 - a_n t^n), truncated at t^N for S = Big(N).

    Each factor multiplies one coefficient list in place, c_k -= a_n c_(k-n)
    from the top down, so that c_(k-n) is read before the factor reaches it."""
    from .witt import _flat

    N = _flat(a, "the power series model").trunc.series_length()
    c = [MultiPoly.one(a.ring)] + [MultiPoly.zero(a.ring)] * N
    for n in a.trunc:
        a_n = a.comps[n]
        if not a_n.is_zero():
            for k in range(N, n - 1, -1):
                if not c[k - n].is_zero():
                    c[k] = c[k] - a_n * c[k - n]
    return TruncSeries(a.ring, c)


def from_series(f: TruncSeries, N: int) -> WittVec:
    """Read Witt coordinates off a series with constant term 1.

    a_n is minus the t^n coefficient once the factors below n are divided
    out; each is divided out of one coefficient list in place, g_k += a_n
    g_(k-n) from the bottom up, so that g_(k-n) is read already divided."""
    from .witt import WittVec

    _take(f, TruncSeries, "from_series")
    N = _as_int(N, 0, "the series model needs a length N >= 0")
    if f.coeffs[0] != MultiPoly.one(f.ring):
        raise NonUnitConstantTerm(f"constant term is {f.coeffs[0]}")
    if f.precision < N:
        raise UsageError(f"series precision {f.precision} below requested length {N}")
    g = list(f.coeffs[: N + 1])
    comps = {}
    for n in range(1, N + 1):
        a_n = comps[n] = -g[n]
        if not a_n.is_zero():
            for k in range(n, N + 1):
                if not g[k - n].is_zero():
                    g[k] = g[k] + a_n * g[k - n]
    return WittVec(TruncationSet.big(N), f.ring, comps)
