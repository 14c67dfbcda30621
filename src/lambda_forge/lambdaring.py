"""Lambda-rings through Adams operations.

The free lambda-ring computations happen inside the rational model
Q[x_1, ..., x_N] where the multiplicative monoid acts by x_n -> x_{mn};
the integral basis {X_sigma}, indexed by non-decreasing prime sequences,
embeds triangularly and integrality becomes a checked assertion instead
of an input.  Inverting the triangle once gives each x_n as an integer
polynomial in the X_sigma (its ghost row), so re-expressing an element
over the X basis is a single substitution, prepared once a basis.
The lambda-operations of a Frobenius family are read off its coaction
into the big Witt vectors (``witt.coaction``), with exact division
failures doubling as "no integral lambda-structure" certificates.  The
functions that build Witt vectors import ``witt`` when they run, as
``wilkerson_lambda`` imports ``delta``, whose presentations apply its
lifts, and the basis ``substitution``, so the Adams model and the X basis
load no Witt arithmetic.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

from .errors import (
    CostLimitExceeded,
    IndexOutOfRange,
    MixedCoefficientRings,
    NonCommutingLifts,
    NotDivisible,
    NotInSpan,
    NotPIntegral,
    UsageError,
)
from .poly import MultiPoly, _check_gens, _gen_names, deviation
from .rings import MODULAR, QQ, ZZ, CoeffRing, _as_int, _callable, _collection, _factorize, _prime, _take
from .textparse import _sigma_name
from .truncation import TruncationSet


def _xname(n: int) -> str:
    return f"x{n}"


def _xindex(name: str) -> int | None:
    """n for the canonical name x<n>; None for any other name, x01 included."""
    if name.startswith("x") and name[1:].isdecimal():
        n = int(name[1:])
        if name == _xname(n):
            return n
    return None


class AdamsModel:
    """Q[x_1..x_N] with the monoid action psi^m: x_n -> x_{mn}."""

    __slots__ = ("N",)

    def __init__(self, N: int):
        self.N = _as_int(N, 1, "the Adams model needs N >= 1")

    def gen(self, n: int) -> MultiPoly:
        n = _as_int(n)
        if not 1 <= n <= self.N:
            raise IndexOutOfRange(f"x_{n} outside Q[x_1..x_{self.N}]")
        return MultiPoly.var(QQ, _xname(n))

    @property
    def x(self) -> MultiPoly:
        return self.gen(1)

    def psi(self, m: int, e: MultiPoly) -> MultiPoly:
        """The Adams operation: the ring map sending x_n to x_{mn}."""
        m = _as_int(m, 1, "Adams operations are indexed by positive integers")
        names = []
        for v in _take(e, MultiPoly, "AdamsModel.psi").vars:
            n = _xindex(v)
            if n is None:
                raise UsageError(f"{v} is not an Adams model variable")
            if not 1 <= m * n <= self.N:
                raise IndexOutOfRange(f"x_{m * n} outside Q[x_1..x_{self.N}]")
            names.append(_xname(m * n))
        # n -> m * n is injective, so the renamed terms stay distinct; only
        # where it changes the order of the names do exponents and terms move
        order = sorted(range(len(names)), key=names.__getitem__)
        if order == list(range(len(names))):
            return MultiPoly._trusted(e.ring, tuple(names), e.terms)
        terms = {tuple(exps[i] for i in order): c for exps, c in e.terms.items()}
        keys = sorted(terms, key=lambda k: (sum(k), k), reverse=True)
        return MultiPoly._trusted(e.ring, tuple(names[i] for i in order), {k: terms[k] for k in keys})

    def delta(self, p: int, e: MultiPoly) -> MultiPoly:
        """delta_p(e) = (psi^p(e) - e^p) / p in the rational model."""
        p = _prime(p)
        return self.frobenius_deviation(p, e, p)

    def frobenius_deviation(self, p: int, e: MultiPoly, d: int = 1) -> MultiPoly:
        """(psi^p(e) - e^p) / d through ``poly.deviation``: p * delta_p(e) at
        d = 1 and delta_p(e) at d = p, in one packed layout either way."""
        return deviation(self.psi(p, e), e, p, d)


# ---------------------------------------------------------------------------
# the free lambda-ring: integral basis inside the Adams model


def _sigma_display(sigma: tuple) -> str:
    return "X(" + ",".join(str(p) for p in sigma) + ")" if sigma else "X0"


def _sigmas_upto(P, depth):
    """Non-decreasing prime sequences over the sorted P of length <= depth."""
    sigmas = [s for k in range(depth + 1) for s in combinations_with_replacement(P, k)]
    return sorted(sigmas, key=lambda s: (prod(s), s))


class FreeLambdaBasis:
    """The X_sigma basis of the free lambda-ring over a finite prime set.

    X_() is the generator x itself and X_(p, rest) = delta_p(X_rest); each
    embed(X_sigma) is triangular with leading term x_{prod(sigma)} and
    unit coefficient 1/prod(sigma), which is verified at construction.
    Inverting the triangle gives the ghost rows: the row of x_n is x_n in
    the X variables alone, each formed by one substitution of the rows
    before it.  ``rows`` is the substitution of all of them, prepared once
    when the last row is made, so that each row is stored, packed, and each
    of its powers formed, once a basis and layout rather than once a
    re-expression; ``to_x_basis(model.gen(n))`` reads the row of x_n back.
    In the Adams model every row has integer coefficients (Joyal); a
    corrupted model can give a row with denominators, which the
    substitution takes as it is.
    """

    __slots__ = ("P", "depth", "model", "sigmas", "names", "embed", "span", "rows", "checked")

    def __init__(self, P, depth: int, N: int | None = None):
        from .substitution import _Substitution

        P = tuple(sorted({_prime(p) for p in _collection(P, "the primes P of a basis")}))
        if not P:
            raise UsageError("the basis needs at least one prime")
        self.P = P
        self.depth = depth = _as_int(depth, 1, "the basis needs depth >= 1")
        self.sigmas = _sigmas_upto(P, depth)
        if N is None:
            # room for psi^q psi^p of every basis element
            N = max(P) ** 2 * max(prod(s) for s in self.sigmas)
        self.model = AdamsModel(N)
        self.names = {s: _sigma_name(s) for s in self.sigmas}
        self.embed = {}
        self.span = {}
        # the variable tuples _check_vars has let through
        self.checked = set()
        rows = {}
        for sigma in self.sigmas:
            value = self.model.delta(sigma[0], self.embed[sigma[1:]]) if sigma else self.model.x
            n = prod(sigma)
            self._check_triangular(sigma, value, n)
            self.embed[sigma] = value
            self.span[n] = sigma
            name = _xname(n)
            # x_n / n = X_sigma - rest, and rest only touches lower indices
            rest = self._check_vars(value - MultiPoly.var(QQ, name) * Fraction(1, n)).substitute(rows)
            rows[name] = (MultiPoly.var(QQ, self.names[sigma]) - rest) * n
        self.rows = _Substitution(QQ, rows)

    def _check_triangular(self, sigma, value, n):
        lead = value.coefficient_of({_xname(n): 1})
        if lead != Fraction(1, n):
            raise UsageError(
                f"triangularity broken for {sigma}: leading coefficient {lead}"
            )
        for mono, _ in value.monomials():
            top = max((_xindex(v) for v in mono), default=0)
            if top > n or (top == n and mono != {_xname(n): 1}):
                raise UsageError(f"triangularity broken for {sigma}: term {mono}")

    # -- basis <-> model ---------------------------------------------------

    def from_x_basis(self, xpoly: MultiPoly) -> MultiPoly:
        """Substitute every X variable by its Adams-model image."""
        return xpoly.substitute({self.names[s]: self.embed[s] for s in self.sigmas})

    def _check_vars(self, e: MultiPoly) -> MultiPoly:
        """``e``, unless a free variable of it is named like a basis element
        (``UsageError``) or an x-index has no ghost row (``NotInSpan``, the
        largest); each variable tuple is checked once, as the span only grows."""
        if e.vars not in self.checked:
            taken = set(e.vars).intersection(self.names.values())
            if taken:
                raise UsageError(f"free variable {min(taken)} is named like a basis element")
            missing = [n for n in map(_xindex, e.vars) if n is not None and n not in self.span]
            if missing:
                raise NotInSpan(max(missing))
            self.checked.add(e.vars)
        return e

    def to_x_basis(self, e: MultiPoly):
        """Rewrite a model element over the X basis through the ghost rows:
        (polynomial in the X variables, integral when no coefficient has a
        denominator).  Refuses an element over Z/m, which has no image over Q
        (``MixedCoefficientRings``), and what ``_check_vars`` refuses; other
        free variables pass through."""
        if _take(e, MultiPoly, "to_x_basis").ring.kind == MODULAR:
            raise MixedCoefficientRings(f"{e.ring} vs Q: the X basis re-expresses elements over Z, Q or Z_(p)")
        xp = self.rows(self._check_vars(e).convert_ring(QQ))
        return xp, all(c.denominator == 1 for c in xp.terms.values())


# ---------------------------------------------------------------------------
# Joyal-Rezk commutation


def verify_joyal_rezk(basis: FreeLambdaBasis, bound: int | None = None, psi=None) -> dict:
    """Check psi^q psi^p = psi^p psi^q plus delta-integrality.

    ``psi(m, e)`` is the Frobenius family under test, in the form
    ``coaction`` takes; it defaults to the Adams operations of
    ``basis.model``, and a corrupted family is fed in the same way.  Each
    ``psi(m, .)`` must be a ring map, as in ``coaction``: then
    psi^q(delta_p e) - delta_p(psi^q e) is (psi^q psi^p e - psi^p psi^q e) / p,
    with no p-th power.  The elements are the X_sigma with |sigma| <=
    ``bound`` (default: the basis depth), and every failure is reported with
    a witness polynomial.  ``cases`` also counts the delta cases whose value
    leaves the basis span and so is never re-expressed (7 of 19 in ``verify
    all``, 18 of 48 at depth 3 over {2, 3, 5}).
    """
    _take(basis, FreeLambdaBasis, "the basis of the Joyal-Rezk check")
    psi = basis.model.psi if psi is None else _callable(psi, "the Frobenius family psi")
    bound = basis.depth if bound is None else _as_int(bound, 0, "the Joyal-Rezk check needs bound >= 0")
    elements = [s for s in basis.sigmas if len(s) <= bound]
    witnesses = []
    cases = 0
    # a corrupted phi^p shows up as a non-integral delta_p in the X basis
    for p in basis.P:
        for sigma in elements:
            if prod(sigma) * p > max(basis.span):
                continue
            cases += 1
            e = basis.embed[sigma]
            try:
                xp, integral = basis.to_x_basis(deviation(psi(p, e), e, p, p))
            except NotInSpan:
                continue
            if not integral:
                witnesses.append(
                    {
                        "kind": "delta_not_integral",
                        "p": p,
                        "element": _sigma_display(sigma),
                        "witness": str(xp),
                    }
                )
    for p in basis.P:
        for q in basis.P:
            if p == q:
                continue
            for sigma in elements:
                cases += 1
                e = basis.embed[sigma]
                diff = deviation(psi(q, psi(p, e)), psi(p, psi(q, e)), 1, p)
                if not diff.is_zero():
                    witnesses.append(
                        {
                            "kind": "commutation",
                            "p": p,
                            "q": q,
                            "element": _sigma_display(sigma),
                            "witness": str(diff),
                        }
                    )
    return {
        "check": "joyal_rezk",
        "status": "pass" if not witnesses else "fail",
        "cases": cases,
        "witnesses": witnesses,
    }


# ---------------------------------------------------------------------------
# Wilkerson: commuting Frobenius lifts on a torsion-free ring


class LambdaOps:
    """A Frobenius family ``psi(n, e)`` on a polynomial ring, assembled into lambda-operations."""

    __slots__ = ("gens", "psi", "K")

    def __init__(self, gens, psi, K: int):
        self.gens = _gen_names(gens, "the generators gens of a lambda-ring")
        self.psi = _callable(psi, "the Frobenius family psi")
        self.K = _as_int(K, 0, "lambda-operations need K >= 0")

    def lambda_values(self, e: MultiPoly):
        """lambda^1(e)..lambda^K(e), exactly: the coaction of e over big:K in
        the series model, prod (1 - a_n t^n), is lambda_{-t}(e).  Raises
        ``NotDivisible(n)`` when the coaction has no component a_n.  Over Z/m
        a prime factor q <= K of m is a zero divisor, so the Adams operations
        leave lambda^q open and ``UsageError`` refuses it, as it refuses an
        element with a variable that is no generator."""
        from .series import to_series
        from .witt import coaction

        if _take(e, MultiPoly, "lambda_values").ring.kind == MODULAR:
            q = min(_factorize(e.ring.modulus))
            if q <= self.K:
                raise UsageError(
                    f"over {e.ring} the Adams operations leave lambda^{q} open: {q} divides {e.ring.modulus}"
                )
        _check_gens(e, self.gens)
        c = to_series(coaction(self.psi, e, TruncationSet.big(self.K), e.ring)).coeffs
        return [c[k] if k % 2 == 0 else -c[k] for k in range(1, self.K + 1)]

    @property
    def lambda_on_gens(self) -> dict:
        return {g: self.lambda_values(MultiPoly.var(ZZ, g)) for g in self.gens}


def wilkerson_lambda(gens, phi_family: dict, K: int) -> LambdaOps:
    """Build lambda-operations from pairwise commuting Frobenius lifts.

    Every lift is certified through ``delta_from_phi`` (raising
    ``NotAFrobeniusLift`` with the witness term), and psi^p is the ``phi``
    of the presentation it gives, in the commutation check on the
    generators as in psi^n, which composes the lifts of the prime factors
    of n.  Over Z (no generators) a prime with no lift given takes the
    identity, Z's only Frobenius lift; over a ring with generators psi^n
    refuses it.
    """
    from .delta import delta_from_phi

    K = _as_int(K, 0, "lambda-operations need K >= 0")
    if K > 100:
        raise CostLimitExceeded(
            f"K = {K} takes {K * (K + 1) // 2} series products an element, over the limit of 5050 (K <= 100)"
        )
    gens = _gen_names(gens, "the generators gens of a Wilkerson family")
    family = {_prime(p): lift for p, lift in _take(phi_family, dict, "the Frobenius lifts phi_family").items()}
    lifts = {p: delta_from_phi(p, gens, _take(family[p], dict, "a lift of phi_family")) for p in sorted(family)}
    for p, q in combinations(lifts, 2):
        for g in gens:
            pq = lifts[q].phi(lifts[p].phi(MultiPoly.var(ZZ, g)))
            qp = lifts[p].phi(lifts[q].phi(MultiPoly.var(ZZ, g)))
            if pq != qp:
                raise NonCommutingLifts(p, q, f"{g}: {pq} vs {qp}")

    def psi(n, e):
        for p, mult in sorted(_factorize(n).items()):
            lift = lifts.get(p)
            if lift is None:
                if gens:
                    raise UsageError(f"no Frobenius lift given for prime {p}")
                continue
            for _ in range(mult):
                e = lift.phi(e)
        return e

    return LambdaOps(gens, psi, K)


# ---------------------------------------------------------------------------
# p-localization of the free lambda-ring


def plocal_basis_check(p: int, basis: FreeLambdaBasis, bound: int) -> dict:
    """Check the p-local description of the free lambda-ring.

    Two generator families out of x are expanded over the X basis:
    the iterates psi^m delta_p^n(x), whose leading coefficient m is a
    unit in Z_(p) and whose remainders only touch lower basis indices
    (together: every X_sigma lies in the subring they generate), and the
    Frobenius-deviation iterates psi^m (psi^p - (.)^p)^n (x), which carry
    the leading term p^n * m on X_{sigma(n, m)}.  All expansions must be
    p-integral; a violation raises ``NotPIntegral``.
    """
    p = _as_int(p)
    if p not in _take(basis, FreeLambdaBasis, "the basis of the p-local check").P:
        raise UsageError(f"{p} is not in the basis prime set {basis.P}")
    bound = _as_int(bound, 0, "the p-local check needs bound >= 0")
    model = basis.model
    index_of = {name: prod(s) for s, name in basis.names.items()}
    rows = []
    for index, sigma in sorted(basis.span.items()):
        if len(sigma) > bound:
            continue
        # index = p^n * m with m coprime to p
        n = _factorize(index).get(p, 0)
        m = index // p ** n
        # delta_p^n(x) is X_(p,...,p) itself; only the theta iterates are formed
        theta = model.x
        for _ in range(n):
            theta = model.frobenius_deviation(p, theta)
        expansions = {}
        for family, e in (("delta", basis.embed[(p,) * n]), ("theta", theta)):
            xp, _ = basis.to_x_basis(model.psi(m, e))
            try:
                xp.convert_ring(CoeffRing.localized(p))
            except NotDivisible as exc:
                raise NotPIntegral(f"psi^{m} {family}_{p}^{n}(x): coefficient {exc.witness}") from None
            expansions[family] = xp

        target = {basis.names[sigma]: 1}
        d_lead = expansions["delta"].coefficient_of(target)
        t_lead = expansions["theta"].coefficient_of(target)
        row = {
            "n": n,
            "m": m,
            "index": index,
            "basis_element": _sigma_display(sigma),
            "delta_leading": str(d_lead),
            "theta_leading": str(t_lead),
            "delta_leading_is_unit": d_lead == m,
            "theta_leading_matches": t_lead == p ** n * m,
            "remainder_lower": all(
                index_of[v] < index
                for mono, _ in expansions["delta"].monomials()
                if mono != target
                for v in mono
            ),
        }
        rows.append(row)
    ok = all(r["delta_leading_is_unit"] and r["theta_leading_matches"] and r["remainder_lower"] for r in rows)
    return {
        "check": "plocal_basis",
        "p": p,
        "bound": bound,
        "status": "pass" if ok else "fail",
        "rows": rows,
        "span_generated": ok,
    }


# ---------------------------------------------------------------------------
# free lambda-ring integrality


def integrality_report(P, depth: int) -> dict:
    """Products, delta-iterates and the Frobenius congruence, all integral.

    The elements are the X_sigma with |sigma| <= depth; re-expression
    happens over the basis one level deeper, so that every delta_p(X_sigma)
    stays inside the span.  Each case is (report head, model element,
    divisor d): the element must have X coordinates divisible by d, which is
    1 for products and delta-iterates and p for the congruence
    psi^p(e) = e^p mod p on the X-monomials e of degree <= 2.
    """
    depth = _as_int(depth, 0, "the integrality report needs depth >= 0")
    wide = FreeLambdaBasis(P, depth + 1)
    model = wide.model
    elements = [(_sigma_display(s), wide.embed[s]) for s in wide.sigmas if len(s) <= depth]
    products = [(a, b, ea * eb) for i, (a, ea) in enumerate(elements) for b, eb in elements[i:]]
    # the X-monomials of degree <= 2; elements start at X0, so products[0] is X0*X0
    monomials = elements + [(f"{a}*{b}", e) for a, b, e in products[1:]]
    cases = (
        [({"kind": "product", "left": a, "right": b}, e, 1) for a, b, e in products]
        + [({"kind": "delta", "p": p, "element": a}, model.delta(p, e), 1) for a, e in elements for p in wide.P]
        + [
            ({"kind": "frobenius_congruence", "p": p, "element": a}, model.frobenius_deviation(p, e), p)
            for p in wide.P
            for a, e in monomials
        ]
    )
    witnesses = []
    for head, value, d in cases:
        xp, _ = wide.to_x_basis(value)
        if any(c % d for c in xp.terms.values()):
            witnesses.append({**head, "witness": str(xp)})
    counts = Counter(head["kind"] for head, _, _ in cases)
    return {
        "check": "free_lambda_integrality",
        "status": "pass" if not witnesses else "fail",
        "products": counts["product"],
        "delta_iterates": counts["delta"],
        "congruences": counts["frobenius_congruence"],
        "witnesses": witnesses,
    }


# ---------------------------------------------------------------------------
# the coaction A -> W_S(A) attached to Adams data


def coalgebra_check(psi, elements, S: TruncationSet, T: TruncationSet, ring: CoeffRing,
                    check_integral=None) -> dict:
    """Verify the W-coalgebra laws for the coaction defined by ``psi``.

    - ghost law: w_n(coaction(e)) = psi^n(e) for n in S
    - ring map: coaction(a op b) = coaction(a) op coaction(b)
    - counit: first component recovers e
    - coassociativity on S x T: W_S(coaction) after coaction equals
      comultiplication after the coaction over the product truncation.
    """
    from .witt import GhostVec, WittVec, coaction, comult, counit, ghost_map

    _callable(psi, "the Frobenius family psi")
    if check_integral is not None:
        _callable(check_integral, "check_integral")
    elements = _collection(elements, "the elements")
    if any(len(_collection(pair, "a pair of elements")) != 2 for pair in elements):
        raise UsageError("each pair of elements is (label, element)")
    witnesses = []
    U = S.product(T)

    def sigma(e, trunc):
        return coaction(psi, e, trunc, ring)

    # each element's coaction over S, formed once and reused by the pair laws
    vecs = [sigma(e, S) for _, e in elements]
    for (label, e), vec in zip(elements, vecs):
        if ghost_map(vec) != GhostVec(S, ring, {n: psi(n, e) for n in S}):
            witnesses.append({"kind": "ghost", "element": label})
        if counit(vec) != e:
            witnesses.append({"kind": "counit", "element": label})
        if check_integral is not None:
            for n in S:
                problem = check_integral(vec.comps[n])
                if problem:
                    witnesses.append({"kind": "integrality", "element": label, "witness": problem})
        inner = WittVec(S, ring, {s: sigma(vec.comps[s], T) for s in S})
        outer = comult(sigma(e, U), S, T)
        if inner != outer:
            witnesses.append({"kind": "coassociativity", "element": label})
    for ((la, a), va), ((lb, b), vb) in combinations(zip(elements, vecs), 2):
        if sigma(a + b, S) != va + vb:
            witnesses.append({"kind": "additive", "elements": [la, lb]})
        if sigma(a * b, S) != va * vb:
            witnesses.append({"kind": "multiplicative", "elements": [la, lb]})
    return {
        "check": "coalgebra",
        "status": "pass" if not witnesses else "fail",
        "elements": [label for label, _ in elements],
        "witnesses": witnesses,
    }
