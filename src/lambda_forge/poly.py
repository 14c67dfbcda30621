"""Sparse multivariate polynomials over an exact coefficient ring.

Representation: an ordered tuple of variable names (sorted, and pruned to
the variables that actually occur) plus a map from exponent vectors, as
plain tuples of ints, to nonzero coefficients.  Every operation
canonicalizes its result, so polynomial identity is plain structural
equality.  Term order is graded lexicographic, largest first; "the first
offending term" in error certificates refers to this order.

Every operation runs on one packed layout and leaves it through one exit.
A packed key holds an exponent vector in one int: a total-degree field on
top, then one field per variable in sorted-name order, the first variable
highest, all as wide as a bound on the result's total degree needs.  An
exponent e of a variable packs as e times that variable's weight
(``_weights``), so a monomial product is one int addition, and int order on
keys is grlex order.  The constructor, +, -, negation, scalar and
polynomial products, powers, exact division and substitution pack their
operands into one layout, run on raw term maps (``_Packed``) and leave
through ``_unpacked``: zeros dropped, one int sort, one unpack a key by the
one unpacker kept per layout (``_unpacker``).
Intermediate terms are never normalized, pruned or sorted; over Z/m the raw
coefficients are reduced after each product so that they stay bounded.
Every raw coefficient is an int: a packed map holds integer numerators over
one positive denominator, 1 over Z and Z/m, prime to p over Z_(p), and
``_unpacked`` forms each Fraction of Q and Z_(p) once.

Every raw power is formed in one place, ``_power``, from a cache of the
powers of its base, each once: x^(j//2) squared, times x when j is odd, so
the exponents asked of one cache share one chain.  A power of one term is
one term, {k * n: c ** n}, the coefficient power taken mod m over Z/m
(``_term_power``; ``_coeff_power``, which evaluation and substitution use
too).  A longer computation can keep a packed map as an accumulator:
``add_power`` adds a multiple of a cached power of another map into it in
place (the Witt ghost route); the power of a one-term map is added as its
one term, and no power of it is kept.

Substitution (``MultiPoly.substitute``) runs on the same layout; its
prepared form and the Horner pass live in ``substitution``, which a process
loads only when it substitutes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, mul, or_, sub
from struct import Struct

from .errors import NotDivisible, UsageError
from .rings import INTEGER, LOCALIZED, MODULAR, RATIONAL, CoeffRing, _as_int, _collection, _take, json_field

# the one rule for variable names, the grammar's (``textparse``): checked
# where a name enters, by ``var`` and the constructor (so ``from_json``)
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _check_names(vars: tuple):
    for v in vars:
        if not (isinstance(v, str) and _NAME.fullmatch(v)):
            raise UsageError(f"variable names match {_NAME.pattern}, got {v!r}")


def _gen_names(gens, op: str) -> tuple:
    """``gens`` as a tuple of distinct names by the one name rule, else a
    ``UsageError`` that names the generator refused (or ``op``, for no collection)."""
    gens = _collection(gens, op)
    _check_names(gens)
    twice = [g for i, g in enumerate(gens) if g in gens[:i]]
    if twice:
        raise UsageError(f"generator {twice[0]!r} is named twice in {op}")
    return gens


def _check_gens(e: MultiPoly, gens: tuple):
    """Refuse ``e`` when a variable of it is no generator of Z[gens], naming the first."""
    outside = sorted(set(e.vars) - set(gens))
    if outside:
        raise UsageError(f"{outside[0]} is not a generator of Z[{', '.join(gens)}]")


class MultiPoly:
    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring: CoeffRing, vars: tuple, terms: dict):
        """A polynomial from outside input: distinct variable names in any
        order, and coefficients that are not yet normalized."""
        vars = tuple(vars)
        _check_names(vars)
        n = len(vars)
        if len(set(vars)) != n:
            raise UsageError(f"repeated variable name: {next(v for v in vars if vars.count(v) > 1)}")
        if not {n}.issuperset(map(len, terms)):
            raise UsageError("exponent vector length does not match vars")
        if n and terms and min(map(min, terms)) < 0:
            raise UsageError("exponents must be nonnegative")
        names = tuple(sorted(vars))
        w = _field(_degree(terms))
        p = _unpacked(ring, None, names, w, _keyed(vars, terms, _weights(names, w)))
        self.ring, self.vars, self.terms = ring, p.vars, p.terms

    @staticmethod
    def _trusted(ring: CoeffRing, vars: tuple, terms: dict) -> "MultiPoly":
        """A polynomial from parts already in canonical form, taken as they are."""
        p = object.__new__(MultiPoly)
        p.ring, p.vars, p.terms = ring, vars, terms
        return p

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(ring: CoeffRing, c) -> "MultiPoly":
        c = ring.normalize(c)
        return MultiPoly._trusted(ring, (), {(): c} if c else {})

    @staticmethod
    def zero(ring: CoeffRing) -> "MultiPoly":
        return MultiPoly._trusted(ring, (), {})

    @staticmethod
    def one(ring: CoeffRing) -> "MultiPoly":
        return MultiPoly.const(ring, 1)

    @staticmethod
    def var(ring: CoeffRing, name: str) -> "MultiPoly":
        _check_names((name,))
        return MultiPoly._trusted(ring, (name,), {(1,): ring.normalize(1)})

    # -- predicates and accessors ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        if self.vars:
            raise UsageError(f"{self} is not constant")
        c = self.terms.get(())
        return self.ring.normalize(0) if c is None else c

    def coefficient_of(self, monomial: dict):
        """Coefficient of the monomial given as {var: exponent}."""
        want = {v: e for v, e in monomial.items() if e}
        return next((c for found, c in self.monomials() if found == want), self.ring.normalize(0))

    def monomials(self):
        """Iterate (as {var: exp} dicts, coefficient) in canonical order."""
        for exps, c in self.terms.items():
            yield {v: e for v, e in zip(self.vars, exps) if e}, c

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            self.ring.require_same(other.ring)
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.ring, other)
        return NotImplemented

    def _alone(self, scale: int = 1) -> "_Packed":
        """``self`` in a layout of its own, fields for ``scale`` times its top total degree."""
        return _packer(self.ring, (self,), scale)(self)

    def _packed(self, other, op, scale: int = 1):
        """``op`` on ``self`` and ``other`` packed into one layout."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pack = _packer(self.ring, (self, other), scale)
        return op(pack(self), pack(other)).poly(self.ring)

    def __add__(self, other):
        return self._packed(other, add)

    __radd__ = __add__

    def __neg__(self):
        return (-self._alone()).poly(self.ring)

    def __sub__(self, other):
        return self._packed(other, sub)

    def __rsub__(self, other):
        return self._packed(other, lambda a, b: b - a)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self._alone() * self.ring.normalize(other)).poly(self.ring)
        return self._packed(other, mul, 2)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _as_int(n, 0, "polynomial powers take nonnegative integer exponents")
        return (self._alone(n) ** n).poly(self.ring)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = MultiPoly.const(self.ring, other)
            except NotDivisible:
                return False
        return (
            isinstance(other, MultiPoly)
            and self.ring == other.ring
            and self.vars == other.vars
            and self.terms == other.terms
        )

    __hash__ = None

    # -- the operations everything else is built on ------------------------

    def div_int(self, d: int) -> "MultiPoly":
        """Exact division by a nonzero integer; dividing by zero is a ``UsageError``.

        Raises ``NotDivisible`` with the first offending term: this is the
        failure certificate behind every "is phi a Frobenius lift" check.
        """
        return self._alone().div_int(_as_int(d)).poly(self.ring)

    def substitute(self, assignment: dict) -> "MultiPoly":
        """Simultaneous substitution; unassigned variables map to themselves.

        A ``_Substitution`` prepared for the variables of ``self`` alone and
        applied once: its result's layout holds the unassigned variables and
        the variables of the values, and every power cache dies with it.
        """
        from .substitution import _Substitution

        prepared = _Substitution(self.ring)
        for v in self.vars:
            val = assignment.get(v)
            if val is not None:
                prepared.add(v, val)
        return prepared(self)

    def evaluate(self, env: dict):
        """Evaluate at coefficient values; returns a ring coefficient."""
        ring = self.ring
        values = []
        for v in self.vars:
            if v not in env:
                raise UsageError(f"no value for variable {v}")
            values.append(ring.normalize(env[v]))
        total = ring.normalize(0)
        powers = [{} for _ in self.vars]
        for exps, c in self.terms.items():
            acc = c
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    if e not in cache:
                        cache[e] = _coeff_power(ring, values[i], e)
                    acc = acc * cache[e]
            total = total + acc
        return ring.normalize(total)

    def convert_ring(self, ring: CoeffRing) -> "MultiPoly":
        """Push coefficients through ``ring.normalize`` (e.g. Z -> Z/m)."""
        if _take(ring, CoeffRing, "convert_ring") == self.ring:
            return self
        return MultiPoly(ring, self.vars, self.terms)

    # -- formatting ---------------------------------------------------------

    def _term_str(self, exps, c) -> str:
        factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exps) if e]
        coeff = self.ring.coeff_str(c)
        if not factors:
            return coeff
        if coeff == "1":
            return "*".join(factors)
        if coeff == "-1":
            return "-" + "*".join(factors)
        return coeff + "*" + "*".join(factors)

    def __str__(self):
        return _signed_sum(self._term_str(exps, c) for exps, c in self.terms.items())

    def __repr__(self):
        return f"MultiPoly({self.ring!r}: {self})"

    # -- JSON schema ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "ring": self.ring.to_json(),
            "terms": [
                {"coef": self.ring.coeff_str(c), "exps": list(e)}
                for e, c in self.terms.items()
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "MultiPoly":
        ring = CoeffRing.from_json(json_field(obj, "ring"))
        vars = tuple(json_field(obj, "vars", list))
        terms = {}
        for t in json_field(obj, "terms", list):
            exps, coef = tuple(json_field(t, "exps", list)), json_field(t, "coef")
            if not (set(map(type, exps)) <= {int} and min(exps, default=0) >= 0):
                exps = tuple(_as_int(e, 0, "exponents must be nonnegative") for e in exps)
            terms[exps] = terms.get(exps, 0) + ring.coeff_from_str(coef)
        return MultiPoly(ring, vars, terms)


def _signed_sum(terms) -> str:
    """Rendered terms joined into one sum, a later term's leading '-' as
    ' - ', and '0' for no terms."""
    out = []
    for t in terms:
        if not out:
            out.append(t)
        elif t.startswith("-"):
            out.append(" - " + t[1:])
        else:
            out.append(" + " + t)
    return "".join(out) or "0"


def _degree(terms: dict) -> int:
    """The largest total degree in a term map."""
    return max(map(sum, terms), default=0)


# struct codes by field size, standard sizes under ">"; any other size is
# read as byte slices, which is also the only route for total degrees >= 2**64
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _field(bound: int) -> int:
    """Field size in bytes that holds every value up to ``bound``."""
    for size in _CODES:
        if bound >> (8 * size) == 0:
            return size
    return (bound.bit_length() + 7) // 8


def _weights(vars: tuple, w: int) -> dict:
    """The weight of each of the sorted ``vars`` in the layout at ``w`` bytes a
    field: an exponent e of v packs as e * weight[v], e in v's field and e in
    the total-degree field on top, the first variable most significant."""
    n = len(vars)
    top = 1 << 8 * w * n
    return {v: top | 1 << 8 * w * (n - 1 - i) for i, v in enumerate(vars)}


def _keyed(vars: tuple, terms: dict, weight: dict) -> dict:
    """``terms`` over ``vars`` with each exponent vector packed by ``weight``."""
    if not vars:
        return {0: c for c in terms.values()}
    weights = [weight[v] for v in vars]
    return {sum(map(mul, exps, weights)): c for exps, c in terms.items()}


def _numerators(ring: CoeffRing, terms: dict):
    """(numerators, denominator) of a term map of canonical coefficients: over
    Q and Z_(p) integers over the lcm of their denominators, else the map over 1."""
    if ring.kind in (INTEGER, MODULAR):
        return terms, 1
    ratios = {k: c.as_integer_ratio() for k, c in terms.items()}
    den = lcm(*(d for _, d in ratios.values()))
    return {k: n * (den // d) for k, (n, d) in ratios.items()}, den


def _unpacked(ring: CoeffRing, kernel: CoeffRing | None, vars: tuple, w: int, terms: dict, den: int = 1) -> MultiPoly:
    """The polynomial over ``ring`` of raw ``terms`` computed over ``kernel``
    (None for outside input) in the layout of ``_weights`` for ``vars``: zeros
    dropped, each coefficient formed once (numerator / ``den`` over Q and
    Z_(p), else normalized unless Z goes to Z), one sort of the int keys,
    and each key unpacked once by the unpacker of its layout (``_unpacker``),
    skipping the degree field and unused variables."""
    if kernel is not None and ring.kind == kernel.kind == INTEGER:
        clean = terms if all(terms.values()) else {k: c for k, c in terms.items() if c}
    elif kernel is not None and ring.kind in (RATIONAL, LOCALIZED):
        clean = {k: Fraction(c, den) for k, c in terms.items() if c}
    else:
        normalize = ring.normalize
        clean = {k: c for k, c in zip(terms, map(normalize, terms.values())) if c}
    if not clean:
        return MultiPoly._trusted(ring, (), {})
    n = len(vars)
    size = (n + 1) * w
    # the fields of the OR of the keys: a variable is kept where its field is nonzero
    used = reduce(or_, clean).to_bytes(size, "big")
    keep = tuple(compress(range(n), _unpacker(w, n, tuple(range(n)))(used)))
    keys = sorted(clean, reverse=True)
    exps = map(_unpacker(w, n, keep), map(int.to_bytes, keys, repeat(size), repeat("big")))
    return MultiPoly._trusted(ring, tuple(vars[i] for i in keep), dict(zip(exps, map(clean.__getitem__, keys))))


@lru_cache(maxsize=256)
def _unpacker(w: int, n: int, keep: tuple):
    """The function that reads the exponents of the ``keep`` fields of a key's
    bytes in the layout of ``n`` variables at ``w`` bytes a field: one ``Struct``
    for the sizes of ``_CODES``, else byte slices.  Each layout's is built once."""
    code = _CODES.get(w)
    if code:
        skip = f"{w}x"
        return Struct(">" + skip + "".join(code if i in keep else skip for i in range(n))).unpack
    offsets = [w * (i + 1) for i in keep]

    def unpack(b):
        return tuple(int.from_bytes(b[o : o + w], "big") for o in offsets)

    return unpack


def _mul_terms(left: dict, right: dict, out: dict) -> dict:
    """Add the raw product of two packed term maps with the same field
    layout into ``out``, and return it.

    Nothing is normalized, pruned or sorted: the result is only ever an
    intermediate value or the input of one ``MultiPoly`` constructor.  A
    left term whose coefficient is 0, a cancellation that a raw sum such as
    a Horner part keeps, is skipped rather than multiplied by every right
    term: its products are all 0, and every exit drops zeros.
    """
    for e1, c1 in left.items():
        if not c1:
            continue
        for e2, c2 in right.items():
            key = e1 + e2
            if key in out:
                out[key] += c1 * c2
            else:
                out[key] = c1 * c2
    return out


def _square_terms(terms: dict) -> dict:
    """Raw ``terms * terms``, forming each cross product once and doubling it."""
    items = list(terms.items())
    out: dict = {}
    for i, (e1, c1) in enumerate(items):
        key = e1 + e1
        if key in out:
            out[key] += c1 * c1
        else:
            out[key] = c1 * c1
        rest = items[i + 1 :]
        if not rest:
            break
        c1 += c1
        for e2, c2 in rest:
            key = e1 + e2
            if key in out:
                out[key] += c1 * c2
            else:
                out[key] = c1 * c2
    return out


def _add_into(out: dict, terms: dict) -> dict:
    """Add the raw term map ``terms`` into ``out``, and return it."""
    for key, c in terms.items():
        if key in out:
            out[key] += c
        else:
            out[key] = c
    return out


def _reduce(ring: CoeffRing, terms: dict) -> dict:
    """Reduce raw Z/m coefficients so that products of products stay small."""
    if ring.kind != MODULAR:
        return terms
    m = ring.modulus
    return {e: r for e, c in terms.items() if (r := c % m)}


def _coeff_power(ring: CoeffRing, c, j: int):
    """The raw coefficient c ** j, taken mod m over Z/m so that it stays small."""
    return pow(c, j, ring.modulus) if ring.kind == MODULAR else c ** j


def _term_power(ring: CoeffRing, x: dict, j: int) -> tuple:
    """The one term (k * j, c ** j) of x^j for a one-term raw map x = {k: c},
    the power taken mod m over Z/m."""
    ((k, c),) = x.items()
    return k * j, _coeff_power(ring, c, j)


def _power(ring: CoeffRing, powers: dict, j: int) -> dict:
    """Raw x^j for j >= 1 from ``powers``, the cache of x's raw powers (x
    itself at 1): the one place a raw power is formed.  Each power is formed
    once, on first use, and kept, so the exponents asked of one cache share
    one chain: x^(j//2) squared, times x when j is odd.  A power of one term
    is one term (``_term_power``)."""
    out = powers.get(j)
    if out is None:
        x = powers[1]
        if len(x) == 1:
            out = dict((_term_power(ring, x, j),))
        elif j & 1:
            out = _mul_terms(_power(ring, powers, j - 1), x, {})
        else:
            out = _square_terms(_power(ring, powers, j >> 1))
        powers[j] = out = _reduce(ring, out)
    return out


class _Packed:
    """A raw term map of numerators over ``den`` in one layout, the sorted
    ``vars`` at ``w`` bytes a field as ``_weights`` gives it, under +, - (at
    the lcm of the denominators; also unary), * (by a ``_Packed`` or a
    coefficient), ** (through ``_power``), exact division and, in place, a
    scaled add of one power of another map (``add_power``); its owner keeps
    every total degree in a field.  ``poly`` exits."""

    __slots__ = ("ring", "vars", "w", "terms", "den")

    def __init__(self, ring: CoeffRing, vars: tuple, w: int, terms: dict, den: int = 1):
        self.ring, self.vars, self.w, self.terms, self.den = ring, vars, w, _reduce(ring, terms), den

    def _over(self, den: int) -> dict:
        """The numerators over ``den``, a multiple of ``self.den``: the map itself for ``self.den``."""
        f = den // self.den
        return self.terms if f == 1 else {k: c * f for k, c in self.terms.items()}

    def __add__(self, other):
        den = lcm(self.den, other.den)
        return _Packed(self.ring, self.vars, self.w, _add_into(dict(self._over(den)), other._over(den)), den)

    def __sub__(self, other):
        den = lcm(self.den, other.den)
        terms = dict(self._over(den))
        for k, c in other._over(den).items():
            terms[k] = terms[k] - c if k in terms else -c
        return _Packed(self.ring, self.vars, self.w, terms, den)

    def __neg__(self):
        return _Packed(self.ring, self.vars, self.w, {k: -c for k, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, _Packed):
            return _Packed(self.ring, self.vars, self.w, _mul_terms(self.terms, other.terms, {}), self.den * other.den)
        n, d = other.as_integer_ratio()
        return _Packed(self.ring, self.vars, self.w, {k: c * n for k, c in self.terms.items()}, self.den * d)

    def __pow__(self, n: int):
        return _Packed(self.ring, self.vars, self.w, _power(self.ring, self.powers(), n) if n else {0: 1}, self.den ** n)

    def copy(self) -> "_Packed":
        return _Packed(self.ring, self.vars, self.w, dict(self.terms), self.den)

    def powers(self) -> dict:
        """A cache of this map's raw powers, for ``add_power``."""
        return {1: self.terms}

    def add_power(self, c: int, x: "_Packed", powers: dict, j: int) -> None:
        """Add c * x^j into this map in place, over the lcm of the two
        denominators, x^j read from, or formed into, ``powers``, the cache of
        x in this layout; the sum stays raw until a division or the exit."""
        if self.den != 1 or x.den != 1:
            den = lcm(self.den, x.den ** j)
            self.terms, self.den, c = self._over(den), den, c * den // x.den ** j
        terms = self.terms
        if len(x.terms) == 1:
            # one term, added as it is: no power of it is kept
            k, v = _term_power(self.ring, x.terms, j)
            terms[k] = terms.get(k, 0) + c * v
            return
        for k, v in _power(self.ring, powers, j).items():
            if k in terms:
                terms[k] += c * v
            else:
                terms[k] = c * v

    def div_int(self, d: int) -> "_Packed":
        """Exact division in one pass, dropping cancelled terms.  A failure
        names the largest failing key: the first offending term of the
        canonical form, in grlex order.  A zero divisor is refused whatever the
        dividend.  Over Z/m each residue is multiplied by ``ring.div_int(1, d)``;
        a non-unit d fails unless the map is zero.  Elsewhere d = q * u: u > 0
        joins the denominator, and q must divide every numerator, one ``divmod``
        a term; q is d over Z, the p-part of d with d's sign over Z_(p), d's sign over Q."""
        if d == 0:
            raise UsageError("division by zero")
        ring = self.ring
        u, bad = 1, -1
        if ring.kind == MODULAR:
            terms = _reduce(ring, self.terms)
            try:
                inv = ring.div_int(1, d)
            except NotDivisible:
                # no residue divides by a non-unit; the zero map still does
                inv, bad = 0, max(terms, default=-1)
            out = {k: c * inv for k, c in terms.items()}
        else:
            if ring.kind == RATIONAL:
                u = abs(d)
            elif ring.kind == LOCALIZED:
                u = abs(d) // gcd(d, ring.prime ** abs(d).bit_length())
            q = d // u
            out = {}
            for k, c in self.terms.items():
                if c:
                    n, r = divmod(c, q)
                    if r and k > bad:
                        bad = k
                    out[k] = n
        if bad >= 0:
            raise NotDivisible(str(_Packed(ring, self.vars, self.w, {bad: self.terms[bad]}, self.den).poly(ring)))
        return _Packed(ring, self.vars, self.w, out, self.den * u)

    def poly(self, ring: CoeffRing) -> MultiPoly:
        return _unpacked(ring, self.ring, self.vars, self.w, self.terms, self.den)


def _packer(ring: CoeffRing, polys: list, scale: int):
    """The packer of one layout for ``polys``, fields for ``scale`` times their top total degree."""
    names = {p.vars for p in polys}
    vars = names.pop() if len(names) == 1 else tuple(sorted(set().union(*names)))
    w = _field(scale * max(_degree(p.terms) for p in polys))
    weight = _weights(vars, w)
    if ring.kind in (INTEGER, MODULAR):
        return lambda p: _Packed(ring, vars, w, _keyed(p.vars, p.terms, weight))
    return lambda p: _Packed(ring, vars, w, *_numerators(ring, _keyed(p.vars, p.terms, weight)))


def deviation(a: MultiPoly, e: MultiPoly, k: int, d: int = 1) -> MultiPoly:
    """(a - e^k) / d in one layout, fields for k times the top total degree of a
    and e, and one exit: psi^p(e) - e^p at k = p, delta_p(e) at k = d = p.  A
    failed division fails as ``div_int`` does, with the first offending term."""
    k = _as_int(k, 1, "deviations take positive integer exponents")
    d = _as_int(d)
    ring = _take(a, MultiPoly, "deviation").ring
    ring.require_same(_take(e, MultiPoly, "deviation").ring)
    pack = _packer(ring, (a, e), k)
    diff = pack(a) - pack(e) ** k
    return (diff if d == 1 else diff.div_int(d)).poly(ring)


def random_poly(rng, ring: CoeffRing, vars, max_terms=4, max_exp=3, coeff_bound=9) -> MultiPoly:
    """Small random polynomial, deterministic under a seeded ``rng``."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in vars)
        c = rng.randint(-coeff_bound, coeff_bound)
        terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(ring, tuple(vars), terms)
