"""Truncation sets: finite division-stable sets of positive integers.

A truncation set S indexes the components of a Witt vector W_S: big:N is
{1, ..., N} and p:P,K the p-typical {1, P, ..., P^(K-1)}.  It needs no
polynomial arithmetic, so the modules that only name or parse one (the
grammar, delta presentations, the free lambda-ring) load it without the
Witt arithmetic of ``witt``.
"""

from __future__ import annotations

from math import isqrt
from types import MappingProxyType

from .errors import UsageError
from .rings import _as_int, _is_prime, _prime, json_field


class TruncationSet:
    """Finite division-stable set of positive integers."""

    __slots__ = ("elems", "_divisors", "_last", "_quotients")

    def __init__(self, elems):
        members = {_as_int(n, 1, "truncation sets contain positive integers") for n in elems}
        elems = tuple(sorted(members))
        # every divisor of n is reached from n by dividing out one prime at a
        # time, and every prime factor of n is itself in a division-stable
        # set: so n is factored over the primes of the set met so far; once
        # the smaller elements pass, a leftover factor above 1 is prime.  With
        # 1..run in the set, n with no such factor and isqrt(n) <= run is prime
        run = next((i for i, n in enumerate(elems) if n != i + 1), len(elems))
        primes = []
        for n in elems:
            r, factors = n, []
            for q in primes:
                if q * q > r:
                    break
                if r % q == 0:
                    factors.append(q)
                    while r % q == 0:
                        r //= q
            if r == n > 1:
                if isqrt(n) > run and not _is_prime(n):
                    raise UsageError(f"not division-stable: {n} in set but none of its prime factors")
                primes.append(n)
            if r > 1:
                factors.append(r)
            for q in factors:
                if n // q not in members:
                    raise UsageError(f"not division-stable: {n} in set but divisor {n // q} missing")
        self.elems = elems
        self._divisors = self._last = None
        self._quotients = {}

    @staticmethod
    def big(n: int) -> "TruncationSet":
        n = _as_int(n, 0, "big truncation sets need n >= 0")
        return TruncationSet(range(1, n + 1))

    @staticmethod
    def p_typical(p: int, k: int) -> "TruncationSet":
        p = _prime(p, "p-typical truncation sets need a prime p")
        k = _as_int(k, 0, "p-typical truncation sets need a length >= 0")
        return TruncationSet(p ** i for i in range(k))

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __contains__(self, n):
        return n in self.elems

    def __eq__(self, other):
        return isinstance(other, TruncationSet) and self.elems == other.elems

    def __hash__(self):
        return hash(self.elems)

    def __repr__(self):
        return f"TruncationSet{self.elems}"

    def divisors(self):
        """n -> its divisors in S, increasing, from the pairs d * q <= max(S);
        built on first use and shared, read-only, by every later call (threads
        that race to build it build equal tables, so either may stay)."""
        if self._divisors is None:
            table = {n: [] for n in self.elems}
            for d in self.elems:
                top = self.elems[-1] // d
                for q in self.elems:
                    if q > top:
                        break
                    if d * q in table:
                        table[d * q].append(d)
            self._divisors = MappingProxyType({n: tuple(divs) for n, divs in table.items()})
        return self._divisors

    def last_multiples(self):
        """d -> the largest multiple of d in S, the last index whose divisors
        hold d; built on first use and shared, read-only, as ``divisors`` is."""
        if self._last is None:
            self._last = MappingProxyType({d: n for n, divs in self.divisors().items() for d in divs})
        return self._last

    def issubset(self, other: "TruncationSet") -> bool:
        return set(self.elems) <= set(other.elems)

    def divide(self, n: int) -> "TruncationSet":
        """S/n = {d : n*d in S}, built once for each n and kept with its
        divisor table (as S never changes, every F_n on W_S shares them)."""
        n = _as_int(n, 1, "truncation sets are divided by positive integers")
        quotient = self._quotients.get(n)
        if quotient is None:
            quotient = self._quotients[n] = TruncationSet(s // n for s in self.elems if s % n == 0)
        return quotient

    def product(self, other: "TruncationSet") -> "TruncationSet":
        """S.T = {s * t}, built anew on each call."""
        return TruncationSet(s * t for s in self.elems for t in other.elems)

    def series_length(self) -> int:
        """N for big:N, the one truncation the power series model takes."""
        form = self.to_json()
        if form["kind"] != "big":
            raise UsageError("the power series model needs a big truncation big:N")
        return form["n"]

    def label(self) -> str:
        if not self.elems:
            return "empty"
        form = self.to_json()
        if form["kind"] == "big":
            return f"big{form['n']}"
        if form["kind"] == "p":
            return f"p{form['p']}l{form['len']}"
        return "s" + "-".join(str(n) for n in self.elems)

    def to_json(self) -> dict:
        """The one classifier: big {1..n} (the empty set at n = 0), else
        p-typical {1, p, ..., p^(k-1)}, else the elements themselves."""
        n = len(self.elems)
        if self.elems == tuple(range(1, n + 1)):
            return {"kind": "big", "n": n}
        # a set that is not big holds 1 and a second element, its least prime
        p = self.elems[1]
        if self.elems == tuple(p ** i for i in range(n)):
            return {"kind": "p", "p": p, "len": n}
        return {"kind": "set", "elems": list(self.elems)}

    @staticmethod
    def from_json(obj: dict) -> "TruncationSet":
        kind = json_field(obj, "kind")
        if kind == "big":
            return TruncationSet.big(json_field(obj, "n"))
        if kind == "p":
            return TruncationSet.p_typical(json_field(obj, "p"), json_field(obj, "len"))
        if kind == "set":
            return TruncationSet(json_field(obj, "elems", list))
        raise UsageError(f"unknown truncation kind {kind!r}")
