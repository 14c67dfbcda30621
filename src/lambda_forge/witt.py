"""Truncated big and p-typical Witt vectors.

Everything is indexed by a finite division-stable truncation set S
(``truncation.TruncationSet``, re-exported here); the p-typical theory is
the special case S = {1, p, ..., p^(k-1)} and shares one code path with
big Witt vectors.

Arithmetic (add, mul, neg, powers, Frobenius, comultiplication) runs
through the ghost map w_n = sum_{d | n} d * a_d^(n/d): take the ghost
components, combine them, invert triangularly by exact division.  The
ghost map is injective over the torsion-free rings Z, Q and Z_(p); over
Z/m the work is done on lifts to Z and reduced at the end, which is
sound because the universal polynomials have integer coefficients.
Component values are integers when every component is constant, else raw
term maps in one packed layout, and only the answers are canonicalized.
Over Q and Z_(p) the integers are numerators: with D the lcm of every
denominator, a_n becomes D^n * a_n.  The universal polynomials are
isobaric (a_n has weight n), so the route computes exactly over Z, and an
answer of weight k (2 for mul, k for ** k and F_k, else 1) is read back as
one Fraction X_n / D^(kn) a component.
On packed values each ghost component, and each step of the inverse, is
one accumulator of its own that the terms d * x_d^(n/d) are added into in
place; each power x_d^j is formed once per ghost map or inverse, as
x_d^(j//2) squared, times x_d when j is odd, and dropped after the last
index that reads a power of x_d.  Scalars run on flat integer loops: each
ghost component, and each step of the inverse, is one int that the terms
are added into, and a division over Z is one ``divmod``.  Every answer
leaves through a trusted constructor (``_Vec._trusted``), since the route
yields canonical components over the one ring object in truncation order.
A vector in W_S(W_T(A)) has ghost coordinates keyed by (s, t): w_s of its
components' ghost coordinates at t.  Frobenius and comultiplication are
index maps on these keys, and the inverse runs one level at a time, so
every nesting depth shares the one route.

The universal polynomials are the same arithmetic on generic vectors
(components a_n, b_n).  Their integrality is a theorem, so a failed
division is a bug and raises ``IntegralityViolation``.  They are
generated only for ``*_poly_map`` callers; arithmetic never reads them.
Their memo, filled by ``_generated``, is the one cache that every caller
in a process shares: lookups and inserts hold a lock, generation does not,
and duplicate computation of the same entry is harmless.  Setting
LAMBDA_FORGE_CACHE_DIR persists the memo on disk in the format of
``cache``, which loads only then; a file that disagrees with the ghost
route at a fixed integer point is regenerated.
"""

from __future__ import annotations

import operator
import os
import threading
from fractions import Fraction
from math import lcm, prod

from .errors import IntegralityViolation, NotASubset, NotDivisible, TruncationMismatch, UsageError
from .poly import MultiPoly, _packer
from .rings import INTEGER, LOCALIZED, MODULAR, RATIONAL, CoeffRing, ZZ, _as_int, _take, ascii_int, json_field
from .truncation import TruncationSet


# ---------------------------------------------------------------------------
# universal polynomial generation and the shared memo


_MEMO: dict = {}
_LOCK = threading.Lock()


def clear_memo():
    with _LOCK:
        _MEMO.clear()


def _sym_vec(prefix: str, S: TruncationSet) -> "WittVec":
    comps = {n: MultiPoly.var(ZZ, f"{prefix}{n}") for n in S}
    return WittVec(S, ZZ, comps)


def _generated(key, inputs, apply) -> dict:
    """Universal polynomials of ``apply``, memoized and disk-cached.

    ``inputs`` lists (variable prefix, truncation set) per argument; the
    stored polynomials are the innermost components of the resulting Witt
    vector, keyed as its ghost coordinates are (``_by_key``).
    The memo is looked up and filled under ``_LOCK``; generation runs
    outside it, and the first entry stored for a key wins.  A cache file
    is used only if it gives what ``apply`` gives on a fixed integer point;
    a new one is written by ``cache._store``.
    """
    with _LOCK:
        if key in _MEMO:
            return _MEMO[key]

    def check(polys):
        # nonzero values, so a wrong coefficient of any term changes the value
        point = {f"{prefix}{n}": n + 1 if prefix == "a" else 2 - 3 * n for prefix, S in inputs for n in S}
        want = _by_key(apply(*(WittVec(S, ZZ, {n: point[f"{prefix}{n}"] for n in S}) for prefix, S in inputs)))
        return polys.keys() == want.keys() and all(
            p.ring == ZZ and p.evaluate(point) == want[k].constant_value() for k, p in polys.items()
        )

    path = None
    if os.environ.get("LAMBDA_FORGE_CACHE_DIR"):
        from . import cache

        path = cache._cache_path(key)
    polys = cache._load_cached(path, check) if path and os.path.exists(path) else None
    fresh = polys is None
    if fresh:
        polys = _by_key(apply(*(_sym_vec(prefix, S) for prefix, S in inputs)))
    with _LOCK:
        polys = _MEMO.setdefault(key, polys)
    if fresh and path:
        cache._store(path, polys)
    return polys


def structure_poly_map(op: str, S: TruncationSet) -> dict:
    """Universal polynomials for add, mul or neg over S, memoized."""
    if op not in ("add", "mul", "neg"):
        raise UsageError(f"no structure polynomials for op {op!r}")
    _take(S, TruncationSet, "structure polynomials")
    inputs = [("a", S)] if op == "neg" else [("a", S), ("b", S)]
    return _generated(("structure", op, S.label()), inputs, getattr(operator, op))


def frobenius_poly_map(n: int, S: TruncationSet) -> dict:
    """Universal polynomials for F_n: W_S -> W_{S/n}, memoized."""
    n = _as_int(n, 1, "Frobenius index must be positive")
    _take(S, TruncationSet, "Frobenius polynomials")
    return _generated(("frobenius", n, S.label()), [("a", S)], lambda a: frobenius(n, a))


def comult_poly_map(S: TruncationSet, T: TruncationSet) -> dict:
    """Universal comultiplication polynomials, keyed by (s, t)."""
    _take(S, TruncationSet, "comultiplication polynomials")
    key = ("comult", S.label(), _take(T, TruncationSet, "comultiplication polynomials").label())
    return _generated(key, [("a", S.product(T))], lambda a: comult(a, S, T))


# ---------------------------------------------------------------------------
# the ghost route


def _scalar_coords(x: dict, S: TruncationSet) -> dict:
    """The ghost components of scalar component values ``x``: w_n is one int
    that each term d * x_d^(n/d) is added into."""
    w = {}
    for n, divs in S.divisors().items():
        acc = 0
        for d in divs:
            acc += d * x[d] ** (n // d)
        w[n] = acc
    return w


def _scalar_unghost(ring: CoeffRing):
    """The triangular inverse of the ghost map on scalars, bottom up: x_n is
    w_n with each d * x_d^(n/d), d < n, subtracted from one int, divided by
    n.  Over Z the division is one ``divmod``.  Over Z/m (a ghost inverse of
    residues; arithmetic runs on lifts over Z) it is ``ring.div_int`` on the
    residue, which fails unless the residue is 0 or n a unit.  A failed
    division fails with the certificate a constant polynomial gives."""
    modular = ring.kind == MODULAR

    def unghost(w: dict, S: TruncationSet) -> dict:
        x = {}
        for n, divs in S.divisors().items():
            c = w.pop(n)
            for d in divs[:-1]:
                c -= d * x[d] ** (n // d)
            if modular:
                c = ring.normalize(c)
                try:
                    x[n] = ring.div_int(c, n) if c else c
                except NotDivisible:
                    raise _missing(n, NotDivisible(ring.coeff_str(c))) from None
            else:
                x[n], r = divmod(c, n)
                if r:
                    raise _missing(n, NotDivisible(ring.coeff_str(c))) from None
        return x

    return unghost


def _missing(n: int, exc: NotDivisible) -> NotDivisible:
    """The certificate that component n of a ghost inverse is not in the ring."""
    return NotDivisible(n, f"component a_{n} is not in the coefficient ring: {exc}")


def _packed_sums(x: dict, S: TruncationSet, start, sign: int):
    """(n, ``start(n)`` + sign * sum_{d | n, d < n} d * x_d^(n/d)) for each index
    n of S in turn, the terms added into the accumulator ``start(n)`` in
    place, with one power cache for each x_d, freed after the last multiple
    of d.  A generator, so that an inverse sets x_n before the next index
    reads it."""
    last = S.last_multiples()
    powers = {}
    for n, divs in S.divisors().items():
        acc = start(n)
        for d in divs[:-1]:
            cache = powers.get(d)
            if cache is None:
                powers[d] = cache = x[d].powers()
            acc.add_power(sign * d, x[d], cache, n // d)
            if last[d] == n:
                del powers[d]
        yield n, acc


def _packed_coords(x: dict, S: TruncationSet) -> dict:
    """The ghost components of packed component values ``x``: w_n starts as
    n * x_n, an accumulator of its own."""
    return dict(_packed_sums(x, S, lambda n: x[n] * n, 1))


def _packed_unghost(w: dict, S: TruncationSet) -> dict:
    """The triangular inverse of the ghost map on packed values, bottom up:
    x_n = (w_n - sum_{d | n, d < n} d * x_d^(n/d)) / n.  Index n has one
    accumulator, a copy of w_n (comult hands one ghost coordinate to several
    keys, so no coordinate is changed), and each term is subtracted from it
    in place.  Each power x_d^j is formed once, from x_d^(j//2) squared,
    times x_d when j is odd, and the powers of x_d are freed after the last
    multiple of d in S.  Raises ``NotDivisible(n)`` when the
    division at index n fails; consumes ``w``, so each w_n can be freed."""
    x = {}
    for n, acc in _packed_sums(x, S, lambda n: w.pop(n).copy(), -1):
        try:
            x[n] = acc.div_int(n)
        except NotDivisible as exc:
            raise _missing(n, exc) from None
    return x


def _values(comps, ring: CoeffRing, degree: int, shape: tuple, unit: int = 1):
    """What differs by value kind: how a component at index product m (s * t
    nested) becomes a value, the ghost map of one level, its inverse, and the
    scale C of the values.  Scalars when every component is constant, read
    straight off its canonical term map: ints over Z and Z/m (Z for the
    lifts of Z/m arithmetic), and over Q and Z_(p) the integer C^m * a for a
    component a, C = ``unit`` * the lcm D of the denominators of ``comps``,
    run over Z by flat loops (``_scalar_coords``, ``_scalar_unghost``).  The
    ghost map and the universal polynomials are isobaric (a_m has weight m),
    so these are the values of an integral point and the ghost coordinate
    at m is C^m times a's; an answer of weight k (2 for mul) is read back as
    X / (C^k)^m at m (``_polys``).  Else ``_Packed`` maps in one layout with
    fields for B = c * the product of the largest index of each level of the
    input ``shape``, c = max(degree, 1) * E, ``degree`` the combine's (2 for
    mul, n for ** n) and E the largest total degree of a component.  At
    output index m every total degree, and so every exponent, is at most
    c * m <= B: the ghost map gives E * m, a combine multiplies by its
    degree, F_n reads w_{nm} at m (c = n * E, n * m an input index), and by
    induction on m each d * x_d^(m/d) and x_m of the inverse, level by
    level, stays within it."""
    if not any(c.vars for c in comps):
        if ring.kind not in (RATIONAL, LOCALIZED):
            return (lambda c, m: c.terms.get((), 0)), _scalar_coords, _scalar_unghost(ring), 1
        C = 1
        for c in comps:
            C = lcm(C, c.terms.get((), 0).denominator)
        C *= unit

        def value(c, m):
            a = c.terms.get((), 0)
            return a.numerator * C ** m // a.denominator

        return value, _scalar_coords, _scalar_unghost(ZZ), C
    pack = _packer(ring, comps, max(degree, 1) * prod(S.elems[-1] for S in shape))
    return (lambda c, m: pack(c)), _packed_coords, _packed_unghost, 1


def _polys(x: dict, ring: CoeffRing, scale: int = 1, m: int = 1) -> dict:
    """Component values at index n (at product m * n nested) as polynomials
    over ``ring``: packed maps through their one exit, and ints as constants
    built trusted in the ring's canonical form: as they are over Z, reduced
    over Z/m, and over Q and Z_(p) an integer X read as one Fraction X /
    scale^(m * n).  Over Z_(p) the first of these with p in its denominator
    is the certificate that a ghost inverse leaves the ring."""
    out = {}
    kind = ring.kind
    for n, v in x.items():
        if type(v) is not int:
            out[n] = v.poly(ring)
            continue
        if kind == MODULAR:
            v %= ring.modulus
        elif kind != INTEGER:
            v = Fraction(v, scale ** (m * n))
            try:
                ring.normalize(v)  # over Z_(p), refuses p in the denominator
            except NotDivisible:
                raise _missing(n, NotDivisible(ring.coeff_str(v * n))) from None
        out[n] = MultiPoly._trusted(ring, (), {(): v} if v else {})
    return out


def _keys(shape: tuple) -> list:
    """Ghost coordinate keys for ``shape``: n for W_S(A), (s, k) one level up."""
    if len(shape) == 1:
        return list(shape[0])
    return [(s, k) for s in shape[0] for k in _keys(shape[1:])]


def _scaled(k, n: int):
    """Key ``k`` with its outermost index multiplied by n."""
    return k * n if isinstance(k, int) else (k[0] * n, k[1])


def _by_key(v: "WittVec") -> dict:
    """The polynomial components of ``v`` at its innermost level, keyed as its
    ghost coordinates are (``_keys``): n, or (s, k) one level up."""
    if len(v.shape) == 1:
        return v.comps
    return {(s, k): c for s, u in v.comps.items() for k, c in _by_key(u).items()}


def _ghost_coords(v: "WittVec", value, coords, m: int = 1) -> dict:
    """Ghost coordinates of ``v``, a component at index product ``m``: w_n of
    its component values, or, for W_S(W_T(...)), (s, k) -> w_s of the
    components' coordinates at k.  That is ghost_S after W_S(ghost_T), a ring
    map, injective over torsion-free rings, so nested vectors need no other
    arithmetic."""
    if len(v.shape) == 1:
        return coords({n: value(c, m * n) for n, c in v.comps.items()}, v.trunc)
    inner = {s: _ghost_coords(c, value, coords, m * s) for s, c in v.comps.items()}
    cols = {k: {d: g[k] for d, g in inner.items()} for k in next(iter(inner.values()), ())}
    return {(s, k): w for k, x in cols.items() for s, w in coords(x, v.trunc).items()}


def _solve(w: dict, shape: tuple, ring: CoeffRing, unghost, scale: int = 1, m: int = 1) -> "WittVec":
    """The vector of ``shape`` with ghost coordinates ``w``, inverted one
    level at a time from the outside in; ``unghost`` consumes what it
    inverts, and ``_polys`` reads the answers at index product ``m`` on.
    Each level leaves through ``WittVec._trusted``: its components come in
    truncation order, canonical over ``ring`` itself, and of one shape."""
    S, rest = shape[0], shape[1:]
    if not rest:
        return WittVec._trusted(S, ring, _polys(unghost(w, S), ring, scale, m), shape)
    keys = _keys(rest)
    cols = {k: unghost({s: w.pop((s, k)) for s in S}, S) for k in keys}
    comps = {s: _solve({k: cols[k][s] for k in keys}, rest, ring, unghost, scale, m * s) for s in S}
    return WittVec._trusted(S, ring, comps, shape)


def _ghost_route(vecs, shape: tuple, combine, degree: int = 1, weight: int = 1) -> "WittVec":
    """The vector of ``shape`` with the ghost coordinates ``combine``, of degree
    ``degree`` in the ghost coordinates and of weight ``weight`` in their
    scale (F_n has degree 1 and weight n), makes from those of ``vecs``:
    scalars over Z, on lifts if the ring is Z/m and on integer numerators
    over Q and Z_(p) (``_values``)."""
    ring = vecs[0].ring
    leaves = [c for v in vecs for c in _by_key(v).values()]
    value, coords, unghost, C = _values(leaves, ZZ if ring.kind == MODULAR else ring, degree, vecs[0].shape)
    w = combine(*(_ghost_coords(v, value, coords) for v in vecs))
    try:
        return _solve(w, shape, ring, unghost, C ** weight)
    except NotDivisible as exc:
        raise IntegralityViolation(exc.witness, f"index {exc.witness}: {exc}") from exc


# ---------------------------------------------------------------------------
# Witt vectors


class _Vec:
    """Components indexed by a truncation set, all over one coefficient ring;
    scalars become constant polynomials."""

    __slots__ = ("trunc", "ring", "comps")

    def __init__(self, trunc: TruncationSet, ring: CoeffRing, comps: dict):
        _take(ring, CoeffRing, type(self).__name__)
        if set(comps) != set(_take(trunc, TruncationSet, type(self).__name__).elems):
            raise TruncationMismatch(
                f"components {sorted(comps)} do not match truncation {list(trunc.elems)}"
            )
        fixed = {}
        for n in trunc:
            c = comps[n]
            if not isinstance(c, (MultiPoly, WittVec)):
                c = MultiPoly.const(ring, c)
            ring.require_same(c.ring)
            fixed[n] = c
        self.trunc = trunc
        self.ring = ring
        self.comps = fixed

    @classmethod
    def _trusted(cls, trunc: TruncationSet, ring: CoeffRing, comps: dict):
        """A vector from components already canonical over ``ring`` itself,
        keyed in truncation order, taken as they are."""
        v = object.__new__(cls)
        v.trunc, v.ring, v.comps = trunc, ring, comps
        return v

    def as_list(self):
        return [self.comps[n] for n in self.trunc]

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.trunc == other.trunc
            and self.ring == other.ring
            and self.comps == other.comps
        )

    __hash__ = None

    def __repr__(self):
        inside = ", ".join(f"{n}: {self.comps[n]}" for n in self.trunc)
        return f"{type(self).__name__}({inside})"

    def to_json(self) -> dict:
        return {
            "trunc": self.trunc.to_json(),
            "comps": {str(n): self.comps[n].to_json() for n in self.trunc},
        }

    @classmethod
    def from_json(cls, obj: dict):
        """The vector of a JSON payload, over the ring of its first component
        (Z when it has none); the constructor refuses any other ring."""
        trunc = TruncationSet.from_json(json_field(obj, "trunc"))
        comps = {ascii_int(k): MultiPoly.from_json(v) for k, v in json_field(obj, "comps", dict).items()}
        return cls(trunc, next(iter(comps.values())).ring if comps else ZZ, comps)


class WittVec(_Vec):
    """Witt vector over a truncation set; components indexed by S.

    Components are polynomials over a shared coefficient ring, or (for
    the comonad) Witt vectors themselves, all of one ``shape``: the
    truncation sets from the outside in, (S, T) for W_S(W_T(A)).
    """

    __slots__ = ("shape",)

    def __init__(self, trunc: TruncationSet, ring: CoeffRing, comps: dict):
        super().__init__(trunc, ring, comps)
        inner = {()}
        if WittVec in map(type, self.comps.values()):
            inner = {c.shape if isinstance(c, WittVec) else () for c in self.comps.values()}
            if () in inner:
                raise UsageError("components must be all polynomials or all Witt vectors")
            if len(inner) > 1:
                raise TruncationMismatch("components are Witt vectors over different truncations")
        self.shape = (trunc,) + inner.pop()

    @classmethod
    def _trusted(cls, trunc: TruncationSet, ring: CoeffRing, comps: dict, shape: tuple) -> "WittVec":
        """As ``_Vec._trusted``, the components all of the one ``shape[1:]``."""
        v = super()._trusted(trunc, ring, comps)
        v.shape = shape
        return v

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(trunc: TruncationSet, ring: CoeffRing) -> "WittVec":
        return _zero((trunc,), ring)

    @staticmethod
    def from_list(trunc: TruncationSet, ring: CoeffRing, values) -> "WittVec":
        values = list(values)
        if len(values) != len(trunc):
            raise TruncationMismatch(
                f"{len(values)} components for a truncation set of size {len(trunc)}"
            )
        return WittVec(trunc, ring, dict(zip(trunc.elems, values)))

    # -- arithmetic -----------------------------------------------------------

    def _binary(self, op: str, other: "WittVec") -> "WittVec":
        if not isinstance(other, WittVec):
            raise UsageError("Witt arithmetic needs two Witt vectors")
        if self.shape != other.shape:
            raise TruncationMismatch(f"{self.shape} vs {other.shape}")
        self.ring.require_same(other.ring)
        combine = getattr(operator, op)
        degree = 2 if op == "mul" else 1
        return _ghost_route(
            [self, other], self.shape, lambda ga, gb: {k: combine(ga[k], gb[k]) for k in ga}, degree, degree
        )

    def __add__(self, other):
        return self._binary("add", other)

    def __mul__(self, other):
        return self._binary("mul", other)

    def __neg__(self):
        return _ghost_route([self], self.shape, lambda ga: {k: -w for k, w in ga.items()})

    def __sub__(self, other):
        return self._binary("sub", other)

    def __pow__(self, n: int):
        n = _as_int(n, 0, "Witt powers take nonnegative integer exponents")
        # Over Z/m the route works on integer lifts.  Ghost coordinates known
        # modulo M = m * (lcm of the indices of each level) fix every component
        # mod m: x_s is then known mod M/s, so each term d * x_d^(s/d) is known
        # mod M.  Scalar lifts are raised modulo M, so they never grow.
        M = self.ring.modulus * prod(lcm(*S) for S in self.shape) if self.ring.kind == MODULAR else None
        def combine(ga):
            return {k: pow(w, n, M if isinstance(w, int) else None) for k, w in ga.items()}

        return _ghost_route([self], self.shape, combine, n, n)

    def to_json(self) -> dict:
        if len(self.shape) > 1:
            raise UsageError("nested Witt vectors have no JSON form")
        return super().to_json()


class GhostVec(_Vec):
    """Ghost components, same index set as the Witt vector they came from;
    never Witt vectors themselves."""

    __slots__ = ()

    def __init__(self, trunc: TruncationSet, ring: CoeffRing, comps: dict):
        super().__init__(trunc, ring, comps)
        if WittVec in map(type, self.comps.values()):
            raise UsageError("ghost components are polynomials, not Witt vectors")


# ---------------------------------------------------------------------------
# operations


def _flat(a, op: str) -> WittVec:
    """``a`` if it is a Witt vector with polynomial components, else a ``UsageError``."""
    if len(_take(a, WittVec, op).shape) > 1:
        raise UsageError(f"{op} takes polynomial components")
    return a


def _zero(shape: tuple, ring: CoeffRing):
    """The zero component of a vector whose components have ``shape``: a
    polynomial, or one level up a Witt vector of zeros."""
    if not shape:
        return MultiPoly.zero(ring)
    return WittVec(shape[0], ring, {n: _zero(shape[1:], ring) for n in shape[0]})


def ghost_map(a: WittVec) -> GhostVec:
    """w_n = sum over divisors d of n of d * a_d^(n/d)."""
    _flat(a, "the ghost map")
    value, coords, _, C = _values(a.comps.values(), a.ring, 1, a.shape)
    return GhostVec._trusted(a.trunc, a.ring, _polys(_ghost_coords(a, value, coords), a.ring, C))


def ghost_inverse(g: GhostVec) -> WittVec:
    """Triangular inverse of the ghost map.

    Raises ``NotDivisible(n)`` when component n fails to exist in the
    coefficient ring: the certificate that g is not in the ghost image.
    Scalars over Q and Z_(p) are lifted by C = D * K, D the lcm of their
    denominators and K the product of the primes in S.  The inverse's
    component a_n has v_q(a_n) > -n * (v_q(D) + 1) for each prime q of K, by
    induction on n as in Dwork's lemma, so C^n * a_n is an integer and the
    integer inverse never fails.
    """
    _take(g, GhostVec, "the ghost inverse")
    K = prod(n for n, divs in g.trunc.divisors().items() if len(divs) == 2)
    value, _, unghost, C = _values(g.comps.values(), g.ring, 1, (g.trunc,), K)
    return _solve({n: value(c, n) for n, c in g.comps.items()}, (g.trunc,), g.ring, unghost, C)


def coaction(psi, e: MultiPoly, S: TruncationSet, ring: CoeffRing) -> WittVec:
    """ghost_inverse of (psi^n(e))_{n in S}; integrality is the lambda test."""
    ghosts = {n: psi(n, e) for n in S}
    return ghost_inverse(GhostVec(S, ring, ghosts))


def teichmuller(r, S: TruncationSet, ring: CoeffRing = ZZ) -> WittVec:
    """Multiplicative lift r -> (r, 0, 0, ...)."""
    _take(S, TruncationSet, "teichmuller")
    _take(ring, CoeffRing, "teichmuller")
    if not isinstance(r, MultiPoly):
        r = MultiPoly.const(ring, r)
    ring = r.ring
    comps = {n: MultiPoly.zero(ring) for n in S}
    if 1 in comps:
        comps[1] = r
    return WittVec(S, ring, comps)


def frobenius(n: int, a: WittVec) -> WittVec:
    """F_n: W_S -> W_{S/n}, characterized by w_d(F_n a) = w_{nd}(a)."""
    _take(a, WittVec, "frobenius")
    n = _as_int(n, 1, "Frobenius index must be positive")
    shape = (a.trunc.divide(n),) + a.shape[1:]
    return _ghost_route([a], shape, lambda ga: {k: ga[_scaled(k, n)] for k in _keys(shape)}, 1, n)


def verschiebung(n: int, a: WittVec, S: TruncationSet) -> WittVec:
    """V_n: W_{S/n} -> W_S, (V_n a)_m = a_{m/n} when n | m, else the zero of
    a's components (a Witt vector of zeros for a nested a)."""
    n = _as_int(n, 1, "Verschiebung index must be positive")
    _take(a, WittVec, "verschiebung")
    if a.trunc != _take(S, TruncationSet, "verschiebung").divide(n):
        raise TruncationMismatch(f"source truncation {a.trunc} is not {S}/{n}")
    zero = _zero(a.shape[1:], a.ring)
    return WittVec(S, a.ring, {m: a.comps[m // n] if m % n == 0 else zero for m in S})


def restrict(a: WittVec, T: TruncationSet) -> WittVec:
    _take(a, WittVec, "restrict")
    if not _take(T, TruncationSet, "restrict").issubset(a.trunc):
        raise NotASubset(f"{T} is not contained in {a.trunc}")
    return WittVec(T, a.ring, {n: a.comps[n] for n in T})


def counit(a: WittVec):
    """The coalgebra counit: the first component (= first ghost)."""
    if 1 not in _take(a, WittVec, "counit").trunc:
        raise TruncationMismatch("counit needs 1 in the truncation set")
    return a.comps[1]


def comult(a: WittVec, S: TruncationSet, T: TruncationSet) -> WittVec:
    """Comultiplication W_{S*T}(A) -> W_S(W_T(A)).

    The outer ghost components satisfy w_s(comult(a)) = F_s(a)|_T.
    """
    _take(a, WittVec, "comult")
    U = _take(S, TruncationSet, "comult").product(_take(T, TruncationSet, "comult"))
    if a.trunc != U:
        raise TruncationMismatch(
            f"comultiplication needs the product truncation {U}, got {a.trunc}"
        )
    # ghost coordinate (s, k) of comult(a) is a's coordinate at k with its
    # outermost index t replaced by s*t
    shape = (S, T) + a.shape[1:]
    return _ghost_route([a], shape, lambda ga: {(s, k): ga[_scaled(k, s)] for s, k in _keys(shape)})
