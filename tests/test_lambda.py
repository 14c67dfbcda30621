import random
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import poly, substitution
from lambda_forge.errors import (
    IndexOutOfRange,
    MixedCoefficientRings,
    NonCommutingLifts,
    NotAFrobeniusLift,
    NotDivisible,
    NotInSpan,
    UsageError,
)
from lambda_forge.lambdaring import (
    AdamsModel,
    FreeLambdaBasis,
    LambdaOps,
    coalgebra_check,
    integrality_report,
    plocal_basis_check,
    verify_joyal_rezk,
    wilkerson_lambda,
)
from lambda_forge.poly import MultiPoly, random_poly
from lambda_forge.rings import QQ, ZZ, CoeffRing
from lambda_forge.textparse import parse_poly
from lambda_forge.witt import GhostVec, TruncationSet, WittVec, coaction, ghost_map

import reference as R


def q(name):
    return MultiPoly.var(QQ, name)


def z(name):
    return MultiPoly.var(ZZ, name)


def newton_lambda_to_psi(lams, ring=ZZ):
    """The inverse direction of the Newton chain; needs no division."""
    lams = [v if isinstance(v, MultiPoly) else MultiPoly.const(ring, v) for v in lams]
    if not lams:
        return []
    one = MultiPoly.one(lams[0].ring)
    full = [one] + lams
    psis = [None]
    for n in range(1, len(lams) + 1):
        acc = full[n] * ((-1) ** (n - 1) * n)
        for k in range(1, n):
            acc = acc + full[k] * psis[n - k] * (-1) ** (k - 1)
        psis.append(acc)
    return psis[1:]


def newton_psi_to_lambda(psis):
    """The Newton chain solved for lambda^1..lambda^K given psi^1..psi^K,
    the oracle for ``LambdaOps.lambda_values``:
    psi^n - lambda^1 psi^(n-1) + ... + (-1)^(n-1) lambda^(n-1) psi^1
          + (-1)^n n lambda^n = 0.
    Raises ``NotDivisible(n)`` when stage n has no solution in the ring."""
    lams = [MultiPoly.one(psis[0].ring)] if psis else []
    for n in range(1, len(psis) + 1):
        acc = MultiPoly.zero(lams[0].ring)
        for k in range(1, n + 1):
            acc = acc + lams[n - k] * psis[k - 1] * (-1) ** (k - 1)
        try:
            lams.append(acc.div_int(n))
        except NotDivisible as exc:
            raise NotDivisible(n, f"no integral lambda^{n}: {exc}") from None
    return lams[1:]


def lambda_of(psis):
    """lambda^1..lambda^K of the element psi^1 whose Adams operations are
    ``psis``, through ``LambdaOps`` on the ring generated by its variables."""
    ops = LambdaOps(psis[0].vars if psis else (), lambda n, e: psis[n - 1], len(psis))
    return ops.lambda_values(psis[0]) if psis else []


def phi_in_x_basis(basis, p, sigma):
    """phi^p(X_sigma) = X_sigma^p + p * delta_p(X_sigma), in X coordinates."""
    return basis.to_x_basis(basis.model.psi(p, basis.embed[tuple(sigma)]))


class TestAdamsModel:
    def test_index_doubling(self):
        m = AdamsModel(6)
        assert m.psi(2, m.gen(3)) == m.gen(6)

    def test_psi_one_is_identity(self):
        m = AdamsModel(6)
        e = m.gen(2) ** 3 - m.gen(1)
        assert m.psi(1, e) == e

    def test_monoid_law_up_to_twelve(self):
        m = AdamsModel(12)
        x = m.gen(1)
        for a in range(1, 13):
            for b in range(1, 13):
                if a * b <= 12:
                    assert m.psi(a, m.psi(b, x)) == m.psi(a * b, x)
        e = m.gen(1) + m.gen(2) ** 2
        for a in range(1, 7):
            for b in range(1, 7):
                if a * b <= 6:
                    assert m.psi(a, m.psi(b, e)) == m.psi(a * b, e)

    @pytest.mark.parametrize("name", ["x01", "x00", "x\u00b2", "x\u0663", "x", "y1"])
    def test_only_canonical_x_names_are_model_variables(self, name):
        m = AdamsModel(6)
        if name.isascii():
            x = q(name)
        else:
            # the public constructors refuse a name outside the grammar; one
            # built trusted still is no model variable
            with pytest.raises(UsageError, match="variable names match"):
                q(name)
            x = MultiPoly._trusted(QQ, (name,), {(1,): Fraction(1)})
        with pytest.raises(UsageError, match="is not an Adams model variable"):
            m.psi(2, x + m.gen(1))

    def test_out_of_range(self):
        m = AdamsModel(5)
        with pytest.raises(IndexOutOfRange):
            m.psi(2, m.gen(3))
        # x_0 is no model variable, as gen(0) says
        with pytest.raises(IndexOutOfRange, match=r"^x_0 outside Q\[x_1\.\.x_5\]$"):
            m.psi(2, q("x0"))

    def test_psi_is_ring_map(self):
        m = AdamsModel(12)
        a = m.gen(1) ** 2 + m.gen(2)
        b = m.gen(3) - 1
        assert m.psi(2, a * b) == m.psi(2, a) * m.psi(2, b)

    @settings(max_examples=100, deadline=None)
    @given(
        ring=st.sampled_from([QQ, ZZ]),
        p=st.sampled_from([2, 3, 5]),
        terms=st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * 3), st.integers(-5, 5).filter(bool), max_size=5
        ),
        den=st.sampled_from([1, 2, 3, 6]),
        indices=st.lists(st.integers(1, 8), min_size=3, max_size=3, unique=True),
    )
    def test_deviation_and_delta_match_the_multipoly_route(self, ring, p, terms, den, indices):
        # oracle: psi^p(e) - e^p and its division by p on ``reference.Poly``
        m = AdamsModel(40)
        if ring == ZZ:
            den = 1
        e = MultiPoly(ring, [f"x{n}" for n in indices], {k: Fraction(c, den) for k, c in terms.items()})
        re = R.plain(e)
        want = R.adams_psi(p, re) - re ** p
        got = m.frobenius_deviation(p, e)
        assert (got.ring, got.vars, list(got.terms.items())) == (ring, *want.canonical())
        try:
            want = divmod(want, p)[0]
        except R.NotDivisible as exc:
            # over Z a deviation that p does not divide names its first offending term
            with pytest.raises(NotDivisible) as failed:
                m.delta(p, e)
            assert failed.value.witness == exc.witness
            return
        got = m.delta(p, e)
        assert (got.ring, got.vars, list(got.terms.items())) == (ring, *want.canonical())

    @pytest.mark.parametrize("p", [2, 3])
    def test_delta_leaves_the_packed_layout_once(self, monkeypatch, p):
        # the division by p happens in the layout the deviation was formed in
        basis = FreeLambdaBasis((2, 3), 2)
        e = basis.embed[(3,)] * basis.model.gen(2) + basis.embed[(2,)]
        re = R.plain(e)
        want = divmod(R.adams_psi(p, re) - re ** p, p)[0]
        calls = []
        original = poly._unpacked

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(poly, "_unpacked", counting)
        got = basis.model.delta(p, e)
        monkeypatch.undo()
        assert len(calls) == 1
        assert (got.vars, list(got.terms.items())) == want.canonical()

    @settings(max_examples=150, deadline=None)
    @given(
        ring=st.sampled_from([QQ, ZZ]),
        k=st.integers(1, 9),
        terms=st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * 4), st.integers(-5, 5).filter(bool), min_size=1, max_size=6
        ),
        indices=st.lists(st.integers(1, 12), min_size=4, max_size=4, unique=True),
    )
    def test_psi_renames_as_the_constructor_does(self, ring, k, terms, indices):
        # oracle: ``reference.adams_psi``, in canonical form, whether the
        # renaming keeps the name order (x1, x2 -> x2, x4) or changes it (x1, x5 -> x2, x10)
        m = AdamsModel(108)
        e = MultiPoly(ring, [f"x{n}" for n in indices], terms)
        got = m.psi(k, e)
        assert (got.ring, got.vars, list(got.terms.items())) == (ring, *R.adams_psi(k, R.plain(e)).canonical())


def newton_outcome(route, psis):
    """The values ``route`` gives, or the witness index of its ``NotDivisible``."""
    try:
        return route(psis)
    except NotDivisible as exc:
        return ("NotDivisible", exc.witness)


@st.composite
def adams_lists(draw):
    """psi^1..psi^K over Z, Q, Z_(p) or Z/q for a prime q > K: arbitrary
    polynomials, or the Adams operations of integral lambda-values."""
    K = draw(st.integers(0, 5))
    ring = draw(
        st.sampled_from(
            [ZZ, QQ, CoeffRing.localized(2), CoeffRing.localized(3), CoeffRing.modular(7), CoeffRing.modular(11)]
        ).filter(lambda r: r.modulus is None or r.modulus > K)
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    polys = [random_poly(rng, ring, ("a", "b"), max_terms=3, max_exp=2, coeff_bound=4) for _ in range(K)]
    return newton_lambda_to_psi(polys, ring) if draw(st.booleans()) else polys


@st.composite
def wilkerson_families(draw):
    """A Wilkerson family with a lift for every prime up to K, and an element."""
    K = draw(st.integers(0, 5))
    u = z("u")
    kind = draw(st.sampled_from(["Z", "power", "shifted power"]))
    if kind == "Z":
        return wilkerson_lambda((), {}, K), MultiPoly.const(ZZ, draw(st.integers(-9, 9)))
    primes = [p for p in (2, 3, 5) if p <= K]
    lift = {"power": lambda p: u ** p, "shifted power": lambda p: (u + 1) ** p - 1}[kind]
    ops = wilkerson_lambda(("u",), {p: {"u": lift(p)} for p in primes}, K)
    rng = random.Random(draw(st.integers(0, 2**32)))
    return ops, random_poly(rng, ZZ, ("u",), max_terms=3, max_exp=2, coeff_bound=4)


class TestNewton:
    @settings(max_examples=80, deadline=None)
    @given(psis=adams_lists())
    def test_lambda_values_match_the_newton_chain(self, psis):
        assert newton_outcome(lambda_of, psis) == newton_outcome(newton_psi_to_lambda, psis)

    @settings(max_examples=40, deadline=None)
    @given(case=wilkerson_families())
    def test_wilkerson_lambda_values_match_the_newton_chain(self, case):
        ops, e = case
        psis = [ops.psi(n, e) for n in range(1, ops.K + 1)]
        assert newton_outcome(ops.lambda_values, e) == newton_outcome(newton_psi_to_lambda, psis)

    def test_psi_squared_from_lambda(self):
        a = z("a")
        psis = newton_lambda_to_psi([a, MultiPoly.zero(ZZ)])
        assert psis[1] == a ** 2

    def test_binomial_values_on_integers(self):
        lams = lambda_of([MultiPoly.const(ZZ, 5)] * 5)
        assert [l.constant_value() for l in lams] == [comb(5, n) for n in range(1, 6)]

    def test_lambda_cubed_formula(self):
        m = q("m")
        lams = lambda_of([m] * 3)
        assert lams[2] == m * (m - 1) * (m - 2) * Fraction(1, 6)

    def test_k_equals_one(self):
        a = z("a")
        assert newton_lambda_to_psi([a]) == [a]
        assert lambda_of([a]) == [a]

    def test_roundtrip_fifty_integral_sequences(self):
        rng = random.Random(1234)
        done = 0
        while done < 50:
            lams = [MultiPoly.const(ZZ, rng.randint(-6, 6)) for _ in range(6)]
            psis = newton_lambda_to_psi(lams)
            back = lambda_of(psis)
            assert back == lams
            done += 1

    def test_modulus_with_a_prime_factor_up_to_k_is_refused(self):
        # over Z/4 the family psi = (3, 1, 1, 1) has two lambda-structures
        # that agree on psi, since 2 is a zero divisor: no answer is the answer
        R = CoeffRing.modular(4)
        values = (3, 1, 1, 1)
        ops = LambdaOps((), lambda n, e: MultiPoly.const(R, values[n - 1]), 4)
        with pytest.raises(UsageError) as exc:
            ops.lambda_values(MultiPoly.const(R, 3))
        assert str(exc.value) == "over Z/4 the Adams operations leave lambda^2 open: 2 divides 4"

    @pytest.mark.parametrize("m, K, refused", [(7, 4, False), (7, 7, True), (35, 4, False), (35, 5, True), (6, 1, False)])
    def test_modulus_is_refused_exactly_when_its_least_prime_is_at_most_k(self, m, K, refused):
        R = CoeffRing.modular(m)
        ops = LambdaOps((), lambda n, e: e, K)
        e = MultiPoly.const(R, 3)
        if refused:
            with pytest.raises(UsageError):
                ops.lambda_values(e)
        else:
            assert [c.constant_value() for c in ops.lambda_values(e)] == [comb(3, n) % m for n in range(1, K + 1)]

    def test_no_integral_structure_certificate(self):
        # psi^2 = 1 with psi^1 = 0 forces lambda^2 = -1/2
        with pytest.raises(NotDivisible) as exc:
            lambda_of([MultiPoly.zero(ZZ), MultiPoly.one(ZZ)])
        assert exc.value.witness == 2


class TestFreeLambdaRing:
    @pytest.mark.parametrize(
        "shift, message",
        [
            # psi^p(e) added once more doubles the leading coefficient of delta_2(x)
            (lambda model, p, e: model.psi(p, e), "leading coefficient 1"),
            # a term on x_N, above the leading index 2 of delta_2(x)
            (lambda model, p, e: model.gen(model.N), "term {'x27': 1}"),
            # a term on the leading index, at a power above the first
            (lambda model, p, e: model.psi(p, e) ** 2, "term {'x2': 2}"),
        ],
        ids=["lead", "above", "lead-squared"],
    )
    def test_a_model_that_breaks_the_triangle_is_refused(self, monkeypatch, shift, message):
        deviation = AdamsModel.frobenius_deviation
        monkeypatch.setattr(
            AdamsModel,
            "frobenius_deviation",
            lambda self, p, e, d=1: (deviation(self, p, e) + shift(self, p, e)).div_int(d),
        )
        with pytest.raises(UsageError) as exc:
            FreeLambdaBasis((2, 3), 1)
        assert str(exc.value) == f"triangularity broken for (2,): {message}"

    def test_first_basis_elements(self):
        basis = FreeLambdaBasis((2, 3), 2)
        assert basis.embed[(2,)] == (q("x2") - q("x1") ** 2) * Fraction(1, 2)
        assert basis.embed[(3,)] == (q("x3") - q("x1") ** 3) * Fraction(1, 3)

    def test_phi_on_generator(self):
        basis = FreeLambdaBasis((2, 3), 2)
        xp, integral = phi_in_x_basis(basis, 2, ())
        assert integral
        assert xp == q("X0") ** 2 + q("X2") * 2

    def test_to_x_basis_examples(self):
        basis = FreeLambdaBasis((2, 3), 2)
        xp, integral = basis.to_x_basis(q("x2"))
        assert integral and xp == q("X0") ** 2 + q("X2") * 2
        xp1, _ = basis.to_x_basis(q("x1"))
        assert xp1 == q("X0")

    def test_product_reexpression_is_integral(self):
        basis = FreeLambdaBasis((2, 3), 2)
        value = basis.embed[(2,)] * basis.embed[(2,)]
        xp, integral = basis.to_x_basis(value)
        assert integral
        # only X0, X(2), X(2,2) can appear
        assert set(xp.vars) <= {"X0", "X2", "X2_2"}
        assert basis.from_x_basis(xp) == value

    def test_out_of_span(self):
        basis = FreeLambdaBasis((2, 3), 1)
        with pytest.raises(NotInSpan):
            basis.to_x_basis(q("x4"))

    def test_an_empty_prime_set_is_refused(self):
        with pytest.raises(UsageError, match="at least one prime"):
            FreeLambdaBasis((), 1)

    def test_a_free_variable_named_like_a_basis_element_is_refused(self):
        basis = FreeLambdaBasis((2, 3), 2)
        for name in ("X0", "X2", "X2_3"):
            with pytest.raises(UsageError, match=f"free variable {name} "):
                basis.to_x_basis(q("x2") - q(name))
        # a name no basis element has passes through, X4 as y does
        xp, _ = basis.to_x_basis(q("x2") - q("X4") + q("y"))
        assert xp == q("X0") ** 2 + q("X2") * 2 - q("X4") + q("y")

    def test_elements_over_z_mod_m_are_refused(self):
        basis = FreeLambdaBasis((2, 3), 2)
        want = (q("X0") ** 2 * 3 + q("X2") * 6, True)
        for ring in (ZZ, QQ, CoeffRing.localized(5)):
            assert basis.to_x_basis(MultiPoly.var(ring, "x2") * 3) == want
        with pytest.raises(MixedCoefficientRings):
            basis.to_x_basis(MultiPoly.var(CoeffRing.modular(4), "x2") * 3)

    def test_triangular_leading_data(self):
        basis = FreeLambdaBasis((2, 3), 2)
        for sigma in basis.sigmas:
            n = prod(sigma)
            c = basis.embed[sigma].coefficient_of({f"x{n}": 1})
            assert c == Fraction(1, n)

    def test_roundtrip_through_embedding(self):
        basis = FreeLambdaBasis((2, 3), 2)
        e = q("x6") + q("x2") * q("x3") - 5
        xp, _ = basis.to_x_basis(e)
        assert basis.from_x_basis(xp) == e

    def test_rational_element_is_not_integral(self):
        # the expression of the golden to_x_basis_rational.txt, through the CLI grammar
        basis = FreeLambdaBasis((2, 3), 2)
        e = parse_poly("x4*x9 - x6^2/3 + y", QQ)
        assert e == q("x4") * q("x9") - q("x6") ** 2 * Fraction(1, 3) + q("y")
        xp, integral = basis.to_x_basis(e)
        assert not integral
        assert basis.from_x_basis(xp) == e
        assert x_answer(basis, e) == reference_answer(basis, e)


# ---------------------------------------------------------------------------
# Differential tests: X-basis re-expression is one substitution through the
# ghost rows; oracle: ``reference.to_x_basis``, by elimination.


@lru_cache(maxsize=None)
def reference_embedding(P, depth):
    return R.adams_embedding(P, depth)


def x_answer(basis, e):
    """``basis.to_x_basis(e)`` as (vars, terms, integrality flag), or the index of its ``NotInSpan``."""
    try:
        xp, integral = basis.to_x_basis(e)
    except NotInSpan as exc:
        return exc.index
    assert xp.ring == QQ
    return xp.vars, list(xp.terms.items()), integral


def reference_answer(basis, e, embedding=None):
    """``x_answer`` of ``basis.to_x_basis`` by the oracle, on the embedding of
    the oracle's own basis unless one is given."""
    try:
        xp, integral = R.to_x_basis(embedding or reference_embedding(basis.P, basis.depth), R.plain(e))
    except R.NotInSpan as exc:
        return exc.index
    return (*xp.canonical(), integral)


def ghost_rows(basis):
    """x<n> -> its ghost row, x_n over the X variables, read back through
    the public route: the rows are stored once, inside ``basis.rows``."""
    return {f"x{n}": basis.to_x_basis(basis.model.gen(n))[0] for n in basis.span}


ORACLE_BASES = {(P, depth): FreeLambdaBasis(P, depth) for P in ((2,), (2, 3), (3, 5)) for depth in (1, 2)}


def draw_model_element(draw, basis, factors=2):
    """A Q-combination of monomials of up to ``factors`` factors in the
    model's x_n: mostly indices in the span, sometimes one outside it or a
    free variable y."""
    inside = sorted(basis.span)
    outside = [n for n in range(1, basis.model.N + 1) if n not in basis.span]
    element = MultiPoly.zero(QQ)
    for _ in range(draw(st.integers(1, 3))):
        c = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 6)))
        mono = MultiPoly.const(QQ, c)
        for _ in range(draw(st.integers(0, factors))):
            kind = draw(st.sampled_from(["inside"] * 6 + ["outside", "y"]))
            if kind == "inside":
                mono = mono * basis.model.gen(draw(st.sampled_from(inside)))
            elif kind == "outside":
                mono = mono * basis.model.gen(draw(st.sampled_from(outside)))
            else:
                mono = mono * q("y")
        element = element + mono
    return element


@st.composite
def model_combinations(draw):
    """A basis and one element of its model."""
    basis = ORACLE_BASES[draw(st.sampled_from(sorted(ORACLE_BASES)))]
    return basis, draw_model_element(draw, basis)


@st.composite
def model_sequences(draw):
    """A fresh basis and elements of its model in drawn order, with repeats:
    a pool of elements of up to four factors, and picks from it."""
    basis = FreeLambdaBasis(*draw(st.sampled_from(sorted(ORACLE_BASES))))
    pool = [draw_model_element(draw, basis, 4) for _ in range(draw(st.integers(1, 4)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return basis, [pool[i] for i in picks]


class TestGhostRows:
    @settings(max_examples=60, deadline=None)
    @given(data=model_combinations())
    def test_matches_the_elimination_route(self, data):
        basis, e = data
        assert x_answer(basis, e) == reference_answer(basis, e)

    @settings(max_examples=40, deadline=None)
    @given(data=model_sequences())
    def test_one_basis_answers_a_sequence_as_fresh_substitutions_do(self, data):
        # the rows' packed layouts and power chains outlive each call
        basis, elements = data
        for e in elements:
            assert x_answer(basis, e) == reference_answer(basis, e)

    @pytest.mark.parametrize("P, depth", [((2, 3), 3), ((2, 3, 5), 2)], ids=str)
    def test_a_built_basis_holds_no_layout_or_plan(self, P, depth):
        # each row is formed by a substitution of its own; ``rows`` is
        # prepared from all of them once and has not been applied yet
        basis = FreeLambdaBasis(P, depth)
        assert basis.rows.layouts == {} and basis.rows.plans == {}
        assert sorted(basis.rows.images) == sorted(f"x{n}" for n in basis.span)

    def test_kept_powers_are_never_written_to(self):
        basis = FreeLambdaBasis((2, 3), 2)
        x2, x3, x6 = (basis.model.gen(n) for n in (2, 3, 6))
        for e in (x2 ** 3 + x3, x2 ** 2 * x6 ** 2 - x3 ** 5, x2 * x3 + q("y")):
            basis.to_x_basis(e)
        snapshot = {
            layout: {v: {j: dict(power) for j, power in cache.items()} for v, cache in caches.items()}
            for layout, (_, caches) in basis.rows.layouts.items()
        }
        later = [x2 ** 7 + x6 ** 3, (x2 + x3) ** 4 - x6, x2 ** 3 + x3, x3 ** 2 * q("y") ** 3]
        answers = [x_answer(basis, e) for e in later]
        grown = 0
        for layout, caches in snapshot.items():
            for v, cache in caches.items():
                kept = basis.rows.layouts[layout][1][v]
                assert {j: kept[j] for j in cache} == cache
                grown += len(kept) - len(cache)
        assert grown > 0
        assert answers == [reference_answer(basis, e) for e in later]

    def test_a_repeated_re_expression_forms_no_power(self, monkeypatch):
        basis = FreeLambdaBasis((2, 3), 2)
        e = basis.model.gen(2) ** 3
        first = basis.to_x_basis(e)
        squares = []
        square = poly._square_terms

        def recording(terms):
            squares.append(len(terms))
            return square(terms)

        monkeypatch.setattr(poly, "_square_terms", recording)
        assert basis.to_x_basis(e) == first
        assert squares == []

    def test_a_repeated_re_expression_forms_no_plan(self, monkeypatch):
        basis = FreeLambdaBasis((2, 3), 2)
        x2, x3, x6 = (basis.model.gen(n) for n in (2, 3, 6))
        e = (x2 + x3) ** 3 - x6 * x2
        formed = []
        plan = substitution._Substitution._plan

        def recording(self, *args):
            formed.append(args)
            return plan(self, *args)

        monkeypatch.setattr(substitution._Substitution, "_plan", recording)
        first = basis.to_x_basis(e)
        assert len(formed) == 1
        assert basis.to_x_basis(e) == first and basis.to_x_basis(e * 5) == (first[0] * 5, True)
        # a new variable tuple forms a plan of its own
        basis.to_x_basis(x2 * x3)
        assert len(formed) == 2

    def test_a_congruence_element_multiplies_no_zero_left_term(self, monkeypatch):
        # psi^3(e) - e^3 for e = X(2,3) * X(3,3): Horner's parts cancel to
        # many zeros on the way up, and no level multiplies them
        wide = FreeLambdaBasis((2, 3), 3)
        e = wide.embed[(2, 3)] * wide.embed[(3, 3)]
        element = wide.model.frobenius_deviation(3, e)
        want = reference_answer(wide, element)
        products = {"zero": 0, "all": 0}
        mul_terms = poly._mul_terms

        class Watched(int):
            def __mul__(self, other):
                products["all"] += 1
                products["zero"] += not self
                return int(self) * other

        def watching(left, right, out):
            return mul_terms({k: Watched(c) for k, c in left.items()}, right, out)

        # Horner multiplies through its own name for the kernel, powers through poly's
        for module in (poly, substitution):
            monkeypatch.setattr(module, "_mul_terms", watching)
        got = x_answer(wide, element)
        monkeypatch.undo()
        assert got == want
        assert products["all"] > 0 and products["zero"] == 0

    @pytest.mark.parametrize("key", sorted(ORACLE_BASES), ids=str)
    def test_rows_are_integral_and_embed_back(self, key):
        basis = ORACLE_BASES[key]
        rows = ghost_rows(basis)
        assert sorted(basis.rows.images) == sorted(rows)
        for n in basis.span:
            row = rows[f"x{n}"]
            assert row.ring == QQ and all(c.denominator == 1 for c in row.terms.values())
            assert basis.from_x_basis(row) == basis.model.gen(n)
        for p in basis.P:
            assert rows[f"x{p}"] == q("X0") ** p + q(f"X{p}") * p

    @pytest.mark.parametrize("k", [2, 3])
    def test_rows_with_denominators_match_the_elimination_route(self, monkeypatch, k):
        # frobenius_deviation shifted by x/k: a corrupted model whose rows leave Z
        deviation = AdamsModel.frobenius_deviation
        monkeypatch.setattr(
            AdamsModel,
            "frobenius_deviation",
            lambda self, p, e, d=1: (deviation(self, p, e) + self.x * Fraction(1, k)).div_int(d),
        )
        basis = FreeLambdaBasis((2, 3), 2)
        assert any(c.denominator != 1 for row in ghost_rows(basis).values() for c in row.terms.values())
        embedding = {basis.names[s]: (prod(s), R.plain(basis.embed[s])) for s in basis.sigmas}
        rng = random.Random(k)
        for _ in range(12):
            e = MultiPoly.zero(QQ)
            for _ in range(rng.randint(1, 3)):
                mono = MultiPoly.const(QQ, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                for _ in range(rng.randint(0, 2)):
                    mono = mono * basis.model.gen(rng.choice(sorted(basis.span)))
                e = e + mono
            assert x_answer(basis, e) == reference_answer(basis, e, embedding)


def two_sided_joyal_rezk(basis, bound, psi):
    """``verify_joyal_rezk`` computing each commutation case as
    psi^q(delta_p e) - delta_p(psi^q e), both p-th powers expanded."""

    def delta(p, e):
        return (psi(p, e) - e ** p).div_int(p)

    def display(sigma):
        return "X(" + ",".join(map(str, sigma)) + ")" if sigma else "X0"

    elements = [s for s in basis.sigmas if len(s) <= bound]
    witnesses = []
    cases = 0
    for p in basis.P:
        for sigma in elements:
            if prod(sigma) * p > max(basis.span):
                continue
            cases += 1
            try:
                xp, integral = basis.to_x_basis(delta(p, basis.embed[sigma]))
            except NotInSpan:
                continue
            if not integral:
                witnesses.append({"kind": "delta_not_integral", "p": p, "element": display(sigma), "witness": str(xp)})
    for p in basis.P:
        for q in basis.P:
            if p == q:
                continue
            for sigma in elements:
                cases += 1
                e = basis.embed[sigma]
                diff = psi(q, delta(p, e)) - delta(p, psi(q, e))
                if not diff.is_zero():
                    witnesses.append(
                        {"kind": "commutation", "p": p, "q": q, "element": display(sigma), "witness": str(diff)}
                    )
    status = "pass" if not witnesses else "fail"
    return {"check": "joyal_rezk", "status": status, "cases": cases, "witnesses": witnesses}


ORACLE_JR_BASIS = FreeLambdaBasis((2, 3), 1, N=30)


@st.composite
def substitution_families(draw):
    """psi(m, .) for m = 2, 3: the Adams operation, or the substitution
    x_n -> x_{mn} + (a small Q-monomial in x_1..x_3) for n <= 10, which
    in general does not commute with the other prime's map."""
    images = {}
    for m in (2, 3):
        if draw(st.booleans()):
            continue
        image = {}
        for n in range(1, 11):
            value = q(f"x{m * n}")
            if draw(st.integers(0, 2)):
                c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
                value = value + q(f"x{draw(st.integers(1, 3))}") ** draw(st.integers(0, 2)) * c
            image[f"x{n}"] = value
        images[m] = image

    def psi(m, e):
        return e.substitute(images[m]) if m in images else ORACLE_JR_BASIS.model.psi(m, e)

    return psi


class TestJoyalRezk:
    @settings(max_examples=40, deadline=None)
    @given(psi=substitution_families())
    def test_matches_the_two_sided_route(self, psi):
        basis = ORACLE_JR_BASIS
        assert verify_joyal_rezk(basis, 1, psi) == two_sided_joyal_rezk(basis, 1, psi)

    def test_exact_commutation_identities(self):
        basis = FreeLambdaBasis((2, 3, 5), 2, N=625)
        report = verify_joyal_rezk(basis, 2)
        assert report["status"] == "pass"
        assert report["witnesses"] == []

    def test_default_model_size_fits_the_check(self):
        # psi^q psi^p X_sigma reaches x_(p q prod(sigma)); the default N has room for it
        basis = FreeLambdaBasis((2, 3), 2)
        assert basis.model.N == 81
        report = verify_joyal_rezk(basis)
        assert (report["status"], report["cases"]) == ("pass", 19)

    def test_example_identity_value(self):
        basis = FreeLambdaBasis((2, 3), 2)
        m = basis.model
        lhs = m.psi(2, m.delta(3, m.x))
        rhs = m.delta(3, m.psi(2, m.x))
        assert lhs == rhs == (q("x6") - q("x2") ** 3) * Fraction(1, 3)

    def test_corrupted_family_detected(self):
        basis = FreeLambdaBasis((2, 3), 1, N=30)
        lift = {f"x{n}": q(f"x{3 * n}") + q(f"x{n}") for n in range(1, 11)}
        report = verify_joyal_rezk(basis, 1, lambda m, e: e.substitute(lift) if m == 3 else basis.model.psi(m, e))
        assert report["status"] == "fail"
        assert any(w["witness"] != "0" for w in report["witnesses"])

    def test_delta_commutes_with_its_own_frobenius(self):
        # p = q is excluded from the pairwise checks because it is trivial:
        # both maps derive from one endomorphism
        basis = FreeLambdaBasis((2, 3), 1, N=30)
        m = basis.model
        for p in (2, 3):
            e = basis.embed[(p,)]
            assert m.psi(p, m.delta(p, e)) == m.delta(p, m.psi(p, e))


class TestWilkerson:
    def test_binomial_coefficients_on_integers(self):
        ops = wilkerson_lambda((), {}, 5)
        for m in range(-5, 6):
            got = [l.constant_value() for l in ops.lambda_values(MultiPoly.const(ZZ, m))]
            want = [
                comb(m, n) if m >= 0 else (-1) ** n * comb(-m + n - 1, n)
                for n in range(1, 6)
            ]
            assert got == want

    def test_power_lift_kills_lambda_two(self):
        ops = wilkerson_lambda(("u",), {2: {"u": z("u") ** 2}}, 2)
        assert ops.lambda_values(z("u"))[1] == MultiPoly.zero(ZZ)

    def test_shifted_lift_example(self):
        ops = wilkerson_lambda(("u",), {2: {"u": z("u") ** 2 + z("u") * 2}}, 2)
        assert ops.lambda_values(z("u"))[1] == -z("u")

    def test_non_lift_certificate(self):
        with pytest.raises(NotAFrobeniusLift) as exc:
            wilkerson_lambda(("u",), {2: {"u": z("u") ** 2 + z("u")}}, 2)
        assert str(exc.value.witness) == "u"

    def test_lift_on_a_name_outside_the_ring_is_refused(self):
        # an image for w would be applied by psi without a lift certificate
        family = {2: {"u": z("u") ** 2, "w": z("w") + 1}}
        with pytest.raises(UsageError) as exc:
            wilkerson_lambda(("u",), family, 2)
        assert str(exc.value) == "phi assigned to unknown generator w"

    @pytest.mark.parametrize(
        "gens, family, K, e, message",
        [
            (("u",), {2: {"u": z("u") ** 2}}, 2, z("v"), "v is not a generator of Z[u]"),
            (("u",), {2: {"u": z("u") ** 2}}, 2, z("u") * z("v"), "v is not a generator of Z[u]"),
            (("u",), {2: {"u": z("u") ** 2}}, 1, z("v") + 1, "v is not a generator of Z[u]"),
            ((), {}, 3, z("v"), "v is not a generator of Z[]"),
            ((), {}, 1, z("v"), "v is not a generator of Z[]"),
        ],
    )
    def test_an_element_outside_the_ring_is_refused(self, gens, family, K, e, message):
        # no lift is certified on a name that is no generator: taken as fixed by
        # every lift, lambda(u*v) fails to divide and at K = 1 lambda(v) is [v]
        ops = wilkerson_lambda(gens, family, K)
        with pytest.raises(UsageError) as exc:
            ops.lambda_values(e)
        assert str(exc.value) == message

    def test_a_lift_is_applied_to_the_ring_alone(self):
        ops = wilkerson_lambda(("u",), {2: {"u": z("u") ** 2}}, 2)
        with pytest.raises(UsageError) as exc:
            ops.psi(2, z("v"))
        assert str(exc.value) == "v is not a generator of Z[u]"

    def test_noncommuting_lifts_rejected(self):
        family = {
            2: {"u": z("u") ** 2},
            3: {"u": z("u") ** 3 + 3},
        }
        with pytest.raises(NonCommutingLifts) as exc:
            wilkerson_lambda(("u",), family, 6)
        assert (exc.value.p, exc.value.q) == (2, 3)
        assert exc.value.witness == "u: u^6 + 6*u^3 + 9 vs u^6 + 3"

    def test_noncommuting_witness_names_the_first_generator_that_fails(self):
        u, v = z("u"), z("v")
        family = {2: {"u": u ** 2, "v": v ** 2}, 3: {"u": u ** 3, "v": v ** 3 + u * 3}}
        with pytest.raises(NonCommutingLifts) as exc:
            wilkerson_lambda(("u", "v"), family, 6)
        assert str(exc.value) == (
            "lifts for 2 and 3 do not commute, witness: v: v^6 + 6*u*v^3 + 9*u^2 vs v^6 + 3*u^2"
        )

    @pytest.mark.parametrize(
        "family",
        [{}, {2: {"u": z("u") ** 2}}, {2: {"u": z("u") ** 2 + z("u") * 2}}, {3: {"u": z("u") ** 3}}],
    )
    def test_psi_one_is_the_identity(self, family):
        ops = wilkerson_lambda(("u",), family, 2)
        for e in (z("u"), z("u") ** 3 - z("u") * 4 + 7, MultiPoly.const(ZZ, -2)):
            assert ops.psi(1, e) == e

    def test_integers_take_the_identity_lift_for_every_prime(self):
        ops = wilkerson_lambda((), {}, 12)
        e = MultiPoly.const(ZZ, -7)
        assert all(ops.psi(n, e) == e for n in range(1, 13))

    def test_ring_with_generators_has_no_default_lift(self):
        ops = wilkerson_lambda(("u",), {}, 2)
        assert ops.psi(1, z("u")) == z("u")
        with pytest.raises(UsageError) as exc:
            ops.lambda_values(z("u"))
        assert str(exc.value) == "no Frobenius lift given for prime 2"

    def test_missing_prime_is_a_usage_error(self):
        ops = wilkerson_lambda(("u",), {2: {"u": z("u") ** 2}}, 3)
        assert ops.psi(4, z("u")) == z("u") ** 4
        with pytest.raises(UsageError) as exc:
            ops.lambda_values(z("u"))
        assert str(exc.value) == "no Frobenius lift given for prime 3"

    def test_composite_adams_assembled_multiplicatively(self):
        ops = wilkerson_lambda(("u",), {2: {"u": z("u") ** 2}, 3: {"u": z("u") ** 3}}, 6)
        assert ops.psi(6, z("u")) == z("u") ** 6


class TestPLocalBasis:
    def test_leading_pattern_and_span(self):
        basis = FreeLambdaBasis((2, 3), 2)
        report = plocal_basis_check(2, basis, 2)
        assert report["status"] == "pass"
        by_index = {row["index"]: row for row in report["rows"]}
        # phi^1 delta_2(x): the (n, m) = (1, 1) datum carries 2 * 1 on X(2)
        assert by_index[2]["theta_leading"] == "2"
        assert by_index[6]["theta_leading"] == "6"
        assert by_index[9]["theta_leading"] == "9"
        assert by_index[2]["delta_leading"] == "1"
        assert by_index[3]["delta_leading"] == "3"

    def test_negative_bound_is_refused(self):
        with pytest.raises(UsageError, match="bound >= 0"):
            plocal_basis_check(2, FreeLambdaBasis((2, 3), 1), -1)

    def test_x0_row_is_trivial(self):
        basis = FreeLambdaBasis((2, 3), 2)
        report = plocal_basis_check(2, basis, 2)
        first = report["rows"][0]
        assert first == {
            "n": 0,
            "m": 1,
            "index": 1,
            "basis_element": "X0",
            "delta_leading": "1",
            "theta_leading": "1",
            "delta_leading_is_unit": True,
            "theta_leading_matches": True,
            "remainder_lower": True,
        }


class TestIntegrality:
    def test_products_deltas_and_congruence(self):
        report = integrality_report((2, 3), 2)
        assert report["status"] == "pass"
        assert report["products"] == 21
        assert report["witnesses"] == []

    def test_frobenius_congruence_held_in_x_basis(self):
        basis = FreeLambdaBasis((2, 3), 2)
        wide = FreeLambdaBasis((2, 3), 3)
        e = basis.embed[(2,)]
        difference = wide.model.psi(2, e) - e ** 2
        xp, integral = wide.to_x_basis(difference)
        assert integral
        assert all(int(c) % 2 == 0 for c in xp.terms.values())


def second_answer_differs():
    """A family that is not a function: asked (n, e) again, it answers e + 1.
    The ghost check is the second question about an element's coaction."""
    asked = set()

    def psi(n, e):
        key = (n, str(e))
        if key in asked:
            return e + 1
        asked.add(key)
        return e

    return psi


def with_denominators(comp):
    return None if all(c.denominator == 1 for c in comp.terms.values()) else str(comp)


COALGEBRA_LAWS = ("additive", "coassociativity", "counit", "ghost", "integrality", "multiplicative")


def broken_coalgebra(kind):
    """(psi, elements, S, T, check_integral): a family over Q that breaks the
    law ``kind`` of coalgebra_check and keeps every other one.  With T = big:1
    and psi^1 the identity, coassociativity holds whatever psi^2 is."""
    x, y = q("x"), q("y")
    big1, big2 = TruncationSet.big(1), TruncationSet.big(2)
    return {
        "ghost": (second_answer_differs(), [("x", x)], big1, big1, None),
        # ring maps x -> x^n, y -> 0: they compose, but psi^1 is not the identity
        "counit": (lambda n, e: e.substitute({"x": x ** n, "y": 0}), [("y", y)], big2, big2, None),
        # the Frobenius lifts x -> x^n are a lambda-structure on Q[x], not on x/2
        "integrality": (
            lambda n, e: e.substitute({"x": x ** n}),
            [("x/2", x * Fraction(1, 2))],
            big2,
            big2,
            with_denominators,
        ),
        # ring maps x -> x + n - 1: psi^2 psi^2 is x + 2, psi^4 is x + 3
        "coassociativity": (lambda n, e: e.substitute({"x": x + (n - 1)}), [("x", x)], big2, big2, None),
        "additive": (lambda n, e: e ** n, [("x", x), ("1", MultiPoly.one(QQ))], big2, big1, None),
        "multiplicative": (lambda n, e: e * n, [("x", x), ("2", MultiPoly.const(QQ, 2))], big2, big1, None),
    }[kind]


class TestCoalgebra:
    def test_integer_coaction_values(self):
        S = TruncationSet.big(2)
        vec = coaction(lambda n, e: e, MultiPoly.const(ZZ, 2), S, ZZ)
        assert vec == WittVec.from_list(S, ZZ, [2, -1])

    def test_unit_maps_to_witt_unit(self):
        S = TruncationSet.big(2)
        vec = coaction(lambda n, e: e, MultiPoly.one(ZZ), S, ZZ)
        assert vec.as_list() == [MultiPoly.one(ZZ), MultiPoly.zero(ZZ)]

    def test_counit_recovers_integers_up_to_ten(self):
        S = TruncationSet.big(2)
        for m in range(-10, 11):
            vec = coaction(lambda n, e: e, MultiPoly.const(ZZ, m), S, ZZ)
            assert vec.comps[1] == MultiPoly.const(ZZ, m)

    def test_full_check_on_integers(self):
        S = T = TruncationSet.big(2)
        elements = [(str(m), MultiPoly.const(ZZ, m)) for m in range(-4, 5)]
        report = coalgebra_check(lambda n, e: e, elements, S, T, ZZ)
        assert report["status"] == "pass"

    def test_ghost_law_symbolic_big4(self):
        basis = FreeLambdaBasis((2, 3), 2, N=16)
        S = TruncationSet.big(4)
        vec = coaction(basis.model.psi, basis.model.x, S, QQ)
        ghosts = ghost_map(vec)
        assert ghosts == GhostVec(S, QQ, {n: basis.model.psi(n, basis.model.x) for n in S})

    @pytest.mark.parametrize("kind", COALGEBRA_LAWS)
    def test_a_family_that_breaks_one_law_has_one_witness_kind(self, kind):
        psi, elements, S, T, check_integral = broken_coalgebra(kind)
        report = coalgebra_check(psi, elements, S, T, QQ, check_integral)
        assert report["status"] == "fail"
        assert {w["kind"] for w in report["witnesses"]} == {kind}

    def test_free_ring_components_are_integral(self):
        basis = FreeLambdaBasis((2, 3), 2, N=16)
        S = TruncationSet.big(4)
        vec = coaction(basis.model.psi, basis.model.x, S, QQ)
        for n in S:
            _, integral = basis.to_x_basis(vec.comps[n])
            assert integral
