"""The one reference route of each job that the differential tests check.

Nothing here imports lambda_forge, so no route can share a bug with the
kernel it checks: ``tests/test_no_dead_code.py`` keeps it so.  Each route
is the simplest correct one, on plain data: a polynomial is a ring and a
map from monomials to ``int`` or ``Fraction`` coefficients, a monomial a
sorted tuple of (variable, exponent) pairs.

- canonical form: ``Poly.canonical``, the kernel's ``(vars, terms)``;
- product, power and substitution: ``*``, ``**`` by repeated products,
  and ``Poly.substitute`` term by term;
- exact division with its certificate: ``divmod`` by an int;
- the Witt ghost map and its inverse: ``ghost`` and ``ghost_inverse`` of
  ``bench/oracles.py``, which run on ``Poly`` as on numbers, since ``Poly``
  has +, -, *, ** and ``divmod`` by an int;
- the Adams operations and X-basis re-expression: ``adams_psi``,
  ``adams_embedding`` and ``to_x_basis``, by elimination of the top x-index.

A ring is a pair: ("Z", None), ("Q", None), ("Z/", m) or ("Z_(", p).
"""

import importlib
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

Z, Q = ("Z", None), ("Q", None)


class NotDivisible(Exception):
    """A division by ``divisor`` that leaves the ring; ``witness`` is the
    text of the first term (in canonical order) that does not divide."""

    def __init__(self, divisor, witness):
        super().__init__(f"not divisible by {divisor}, witness: {witness}")
        self.divisor, self.witness = divisor, witness


class NotInSpan(Exception):
    """An x-index with no row in the basis."""

    def __init__(self, index):
        super().__init__(f"x{index} has no row")
        self.index = index


def bench_module(name: str):
    """``bench/<name>.py``, imported under its own name as ``bench/run.py``
    imports it, so that ``workloads`` and the tests share one ``oracles``."""
    module = sys.modules.get(name)
    if module is None:
        sys.path.insert(0, str(BENCH))
        try:
            module = importlib.import_module(name)
        finally:
            sys.path.remove(str(BENCH))
    assert Path(module.__file__) == BENCH / f"{name}.py", module.__file__
    return module


def ring_of(ring):
    """The pair of a lambda_forge ``CoeffRing``, read from its fields."""
    return ring.kind, ring.modulus or ring.prime


def plain(p):
    """The ``Poly`` of a lambda_forge ``MultiPoly``, read from its fields."""
    return Poly.from_parts(ring_of(p.ring), p.vars, p.terms)


def _normalize(ring, c):
    """``c`` in canonical form: a residue in [0, m) over Z/m, else as it is."""
    kind, m = ring
    if kind != "Z/":
        return c
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, m) % m


def _monomial(pairs) -> tuple:
    """Distinct variables' (name, exponent) pairs, sorted, zero exponents dropped."""
    return tuple(sorted((name, e) for name, e in pairs if e))


def _times(m1: tuple, m2: tuple) -> tuple:
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _quotient(ring, c, d):
    """c / d in the ring, or None where it leaves the ring."""
    kind, n = ring
    if kind == "Z":
        return c // d if c % d == 0 else None
    if kind == "Z/":
        return c * pow(d, -1, n) % n if gcd(d, n) == 1 else None
    q = Fraction(c) / d
    return q if kind == "Q" or q.denominator % n else None


def _term_text(vars, exps, c) -> str:
    c = Fraction(c)
    coeff = f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
    factors = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(vars, exps) if e)
    if not factors:
        return coeff
    return {"1": factors, "-1": "-" + factors}.get(coeff, f"{coeff}*{factors}")


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=()):
        """``terms`` maps monomials as ``_monomial`` makes them to
        coefficients, which are normalized; zeros are dropped."""
        self.ring = ring
        self.terms = {k: c for k, c in ((k, _normalize(ring, c)) for k, c in dict(terms).items()) if c}

    @staticmethod
    def from_parts(ring, vars, terms):
        """The polynomial of distinct variables ``vars`` and a map from exponent vectors."""
        return Poly(ring, {_monomial(zip(vars, exps)): c for exps, c in terms.items()})

    @staticmethod
    def var(ring, name):
        return Poly(ring, {((name, 1),): 1})

    def _coerce(self, other):
        return other if isinstance(other, Poly) else Poly(self.ring, {(): other})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in self._coerce(other).terms.items():
            out[mono] = out.get(mono, 0) + c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other, out = self._coerce(other), {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = _times(m1, m2)
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Repeated products; the power of one term is one term, its
        coefficient's power taken mod m over Z/m, so exponents may be huge."""
        if len(self.terms) == 1:
            ((mono, c),) = self.terms.items()
            kind, m = self.ring
            power = pow(c, n, m) if kind == "Z/" else c**n
            return Poly(self.ring, {_monomial((name, e * n) for name, e in mono): power})
        out = Poly(self.ring, {(): 1})
        for _ in range(n if self.terms else min(n, 1)):
            out = out * self
        return out

    def __divmod__(self, d: int):
        """(self / d, 0), exact in the ring; else ``NotDivisible`` with the
        first term of the canonical form whose quotient leaves the ring."""
        vars, rows = self.canonical()
        out = {}
        for exps, c in rows:
            q = _quotient(self.ring, c, d)
            if q is None:
                raise NotDivisible(d, str(Poly.from_parts(self.ring, vars, {exps: c})))
            out[exps] = q
        return Poly.from_parts(self.ring, vars, out), Poly(self.ring)

    def substitute(self, env: dict):
        """Each term with every variable replaced by its value in ``env``, a
        ``Poly`` or a number; variables without one stay."""
        values = {name: self._coerce(value) for name, value in env.items()}
        powers, total = {}, {}
        for mono, c in self.terms.items():
            part = Poly(self.ring, {(): c})
            for name, e in mono:
                if name not in values:
                    part = part * Poly(self.ring, {((name, e),): 1})
                    continue
                if (name, e) not in powers:
                    powers[name, e] = values[name] ** e
                part = part * powers[name, e]
            for key, x in part.terms.items():
                total[key] = total.get(key, 0) + x
        return Poly(self.ring, total)

    def canonical(self):
        """(vars, [(exponents, coefficient), ...]): the variables that occur,
        sorted, and the terms in graded-lex order, largest first."""
        vars = tuple(sorted({name for mono in self.terms for name, _ in mono}))
        rows = [(tuple(dict(mono).get(name, 0) for name in vars), c) for mono, c in self.terms.items()]
        return vars, sorted(rows, key=lambda row: (sum(row[0]), row[0]), reverse=True)

    def __str__(self):
        """The kernel's text: terms in canonical order, "c*x^e*y", a unit
        coefficient left out, later signs as " + " and " - "."""
        vars, rows = self.canonical()
        out = ""
        for exps, c in rows:
            term = _term_text(vars, exps, c)
            if out:
                term = f" - {term[1:]}" if term.startswith("-") else f" + {term}"
            out += term
        return out or "0"


# -- the X basis of the free lambda-ring in the Adams model Q[x_1, x_2, ...] --


def _sigma_name(sigma) -> str:
    return "X" + "_".join(map(str, sigma)) if sigma else "X0"


def adams_psi(m: int, e: Poly) -> Poly:
    """psi^m on the Adams model: the ring map sending x_n to x_(mn)."""
    return Poly(e.ring, {_monomial((f"x{m * int(name[1:])}", k) for name, k in mono): c for mono, c in e.terms.items()})


def adams_embedding(P, depth: int) -> dict:
    """{name of X_sigma: (prod(sigma), its image in the Adams model)} for the
    non-decreasing prime sequences sigma over P of length at most ``depth``:
    X_() = x1 and X_(p, rest) = (psi^p X_rest - X_rest^p) / p, with psi^m
    sending x_n to x_(mn)."""
    images = {(): Poly.var(Q, "x1")}
    for k in range(1, depth + 1):
        for sigma in combinations_with_replacement(sorted(P), k):
            p, rest = sigma[0], images[sigma[1:]]
            images[sigma] = divmod(adams_psi(p, rest) - rest ** p, p)[0]
    return {_sigma_name(sigma): (prod(sigma), image) for sigma, image in images.items()}


def _xindex(name: str):
    return int(name[1:]) if name[:1] == "x" and name[1:].isdecimal() and name == f"x{int(name[1:])}" else None


def to_x_basis(embedding: dict, e: Poly):
    """(e over the X variables, whether every coefficient is an integer):
    each X_sigma = x_n / n + (terms in lower x-indices) is solved for x_n,
    and the top x-index of e is replaced by its solution, one index a pass,
    until none is left.  An index with no X_sigma is ``NotInSpan``."""
    rows = {}
    for name, (n, image) in embedding.items():
        rows[n] = (Poly.var(Q, name) - (image - Poly.var(Q, f"x{n}") * Fraction(1, n))) * n
    e = Poly(Q, e.terms)
    while True:
        indices = [n for mono in e.terms for name, _ in mono if (n := _xindex(name)) is not None]
        if not indices:
            return e, all(Fraction(c).denominator == 1 for c in e.terms.values())
        top = max(indices)
        if top not in rows:
            raise NotInSpan(top)
        e = e.substitute({f"x{top}": rows[top]})
