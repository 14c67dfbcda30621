import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import poly
from lambda_forge.errors import MixedCoefficientRings, NotDivisible, UsageError
from lambda_forge.poly import MultiPoly, poly_sum, random_poly
from lambda_forge.rings import QQ, ZZ, CoeffRing

MOD2 = CoeffRing.modular(2)
RINGS = [ZZ, QQ, CoeffRing.modular(4), CoeffRing.localized(3)]


def v(name, ring=ZZ):
    return MultiPoly.var(ring, name)


def leading_term(p):
    """(exponent vector, coefficient) of the first stored term: the
    graded-lex largest one, when the canonical order is right."""
    exps = next(iter(p.terms))
    return exps, p.terms[exps]


class TestSpecExamples:
    def test_additive_inverse(self):
        x = v("x")
        assert x + (-x) == MultiPoly.zero(ZZ)

    def test_difference_of_squares(self):
        x, y = v("x"), v("y")
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_freshman_dream_mod_2(self):
        x, y = v("x", MOD2), v("y", MOD2)
        assert (x + y) ** 2 == x ** 2 + y ** 2

    def test_exact_div_even(self):
        x = v("x")
        assert (x ** 2 * 2 + 4).div_int(2) == x ** 2 + 2

    def test_exact_div_witness_is_leading_term(self):
        x = v("x")
        with pytest.raises(NotDivisible) as exc:
            (x ** 2 + x).div_int(2)
        assert str(exc.value.witness) == "x^2"

    def test_exact_div_cube_correction(self):
        x, y = v("x"), v("y")
        assert ((x + y) ** 3 - x ** 3 - y ** 3).div_int(3) == x ** 2 * y + x * y ** 2

    def test_substitute_shift(self):
        x = v("x")
        assert (x ** 2).substitute({"x": x + 1}) == x ** 2 + x * 2 + 1

    def test_substitute_doubling_action(self):
        x1 = v("x1")
        assert x1.substitute({"x1": v("x2")}) == v("x2")

    def test_substitute_swap_symmetric(self):
        x, y = v("x"), v("y")
        assert (x + y).substitute({"x": y, "y": x}) == x + y


class TestCanonicalForm:
    def test_zero_terms_dropped(self):
        p = MultiPoly(ZZ, ("x",), {(1,): 1, (0,): 0})
        assert p == v("x")

    def test_unused_vars_pruned(self):
        p = MultiPoly(ZZ, ("x", "y"), {(1, 0): 1})
        assert p.vars == ("x",)

    def test_construction_order_irrelevant(self):
        a = v("x") + v("y") + 1
        b = 1 + v("y") + v("x")
        assert a == b and a.vars == b.vars and list(a.terms) == list(b.terms)

    def test_grlex_leading_term(self):
        p = v("x") * v("y") + v("x") ** 2 + v("y") ** 3
        exps, _ = leading_term(p)
        assert dict(zip(p.vars, exps)) == {"x": 0, "y": 3}

    def test_mixed_rings_rejected(self):
        with pytest.raises(MixedCoefficientRings):
            v("x") + v("x", QQ)

    def test_localized_denominator_guard(self):
        ring = CoeffRing.localized(3)
        MultiPoly.const(ring, Fraction(1, 2))  # fine: 2 is a unit in Z_(3)
        with pytest.raises(NotDivisible):
            MultiPoly.const(ring, Fraction(1, 3))


class TestRingAxioms:
    def test_two_hundred_random_triples_per_ring(self):
        rng = random.Random(20260810)
        for ring in RINGS:
            for _ in range(200):
                a = random_poly(rng, ring, ("x", "y"), 3, 2, 6)
                b = random_poly(rng, ring, ("x", "y"), 3, 2, 6)
                c = random_poly(rng, ring, ("x", "y"), 3, 2, 6)
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + b == b + a
                assert a * b == b * a

    def test_exact_div_roundtrip_hundred(self):
        rng = random.Random(42)
        for _ in range(100):
            q = random_poly(rng, ZZ, ("x", "y", "z"), 4, 3, 9)
            d = rng.choice([1, 2, 3, 5, 7, -4])
            assert (q * d).div_int(d) == q

    def test_substitute_is_homomorphism_hundred(self):
        rng = random.Random(7)
        for _ in range(100):
            a = random_poly(rng, ZZ, ("x", "y"), 3, 2, 5)
            b = random_poly(rng, ZZ, ("x", "y"), 3, 2, 5)
            c = random_poly(rng, ZZ, ("x", "y"), 3, 2, 5)
            image = {
                "x": random_poly(rng, ZZ, ("x", "y"), 2, 2, 3),
                "y": random_poly(rng, ZZ, ("x", "y"), 2, 2, 3),
            }
            lhs = (a * b + c).substitute(image)
            rhs = a.substitute(image) * b.substitute(image) + c.substitute(image)
            assert lhs == rhs


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        exps = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[exps] = terms.get(exps, 0) + draw(st.integers(-8, 8))
    return MultiPoly(ZZ, ("x", "y"), terms)


class TestHypothesisProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=small_polys(), b=small_polys(), c=small_polys())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c == (b + c) * a

    @settings(max_examples=60, deadline=None)
    @given(a=small_polys(), b=small_polys())
    def test_evaluation_respects_product(self, a, b):
        env = {"x": 3, "y": -2}
        assert (a * b).evaluate(env) == a.evaluate(env) * b.evaluate(env)


class TestJsonSchema:
    def test_documented_example(self):
        obj = {
            "vars": ["a0", "a1"],
            "ring": {"kind": "Z"},
            "terms": [{"coef": "-1", "exps": [1, 1]}],
        }
        p = MultiPoly.from_json(obj)
        assert p == -(v("a0") * v("a1"))

    def test_bit_exact_roundtrip(self):
        rng = random.Random(3)
        for ring in RINGS:
            for _ in range(25):
                p = random_poly(rng, ring, ("a0", "a1", "b0"), 4, 3, 99)
                blob = json.dumps(p.to_json(), sort_keys=True)
                again = MultiPoly.from_json(json.loads(blob))
                assert again == p
                assert json.dumps(again.to_json(), sort_keys=True) == blob

    def test_rational_coefficients_roundtrip(self):
        p = v("x", QQ) * Fraction(-7, 3) + Fraction(1, 2)
        assert MultiPoly.from_json(p.to_json()) == p


def test_poly_sum_matches_fold():
    rng = random.Random(11)
    parts = [random_poly(rng, ZZ, ("x", "y"), 3, 2, 4) for _ in range(6)]
    folded = MultiPoly.zero(ZZ)
    for part in parts:
        folded = folded + part
    assert poly_sum(ZZ, parts) == folded


class TestConstantValue:
    @pytest.mark.parametrize("ring", [ZZ, QQ, CoeffRing.modular(4)], ids=repr)
    def test_zero_polynomial_gives_the_ring_zero(self, ring):
        zero = MultiPoly.zero(ring).constant_value()
        assert zero == ring.from_int(0) and type(zero) is type(ring.from_int(0))

    def test_constant_and_non_constant(self):
        assert MultiPoly.const(QQ, Fraction(3, 2)).constant_value() == Fraction(3, 2)
        with pytest.raises(UsageError):
            v("x").constant_value()


# ---------------------------------------------------------------------------
# Differential tests: products, powers and substitution against the
# term-by-term route.  The oracle multiplies monomials given as
# {variable: exponent} maps, normalizes every coefficient it makes and sums
# the terms of a substitution with ``poly_sum``; it shares no code with the
# kernel's raw term maps.

Z4, Z9, Z3 = CoeffRing.modular(4), CoeffRing.modular(9), CoeffRing.localized(3)
DIFF_RINGS = [ZZ, QQ, Z4, Z9, Z3]
# denominators that are units in each ring
DENOMINATORS = {ZZ: [1], QQ: [1, 2, 3, 5], Z4: [1, 3], Z9: [1, 2, 4], Z3: [1, 2, 4, 5]}
NAMES = ("x", "y", "z")


def _monomials(p):
    return {tuple((name, e) for name, e in zip(p.vars, exps) if e): c for exps, c in p.terms.items()}


def _from_monomials(ring, monos):
    names = sorted({name for mono in monos for name, _ in mono})
    terms = {}
    for mono, c in monos.items():
        exps = dict(mono)
        key = tuple(exps.get(name, 0) for name in names)
        terms[key] = terms.get(key, 0) + c
    return MultiPoly(ring, tuple(names), terms)


def oracle_mul(a, b):
    ring = a.ring
    out = {}
    for m1, c1 in _monomials(a).items():
        for m2, c2 in _monomials(b).items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = ring.normalize(out.get(key, 0) + ring.normalize(c1 * c2))
    return _from_monomials(ring, out)


def oracle_pow(a, n):
    result = MultiPoly.one(a.ring)
    for _ in range(n):
        result = oracle_mul(result, a)
    return result


def oracle_substitute(p, env):
    ring = p.ring
    values = {}
    for name in p.vars:
        val = env.get(name)
        if val is None:
            val = MultiPoly.var(ring, name)
        elif not isinstance(val, MultiPoly):
            val = MultiPoly.const(ring, val)
        values[name] = val
    parts = []
    for exps, c in p.terms.items():
        part = MultiPoly.const(ring, c)
        for name, e in zip(p.vars, exps):
            part = oracle_mul(part, oracle_pow(values[name], e))
        parts.append(part)
    return poly_sum(ring, parts)


@st.composite
def ring_polys(draw, ring, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in NAMES)
        c = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(DENOMINATORS[ring])))
        terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(ring, NAMES, terms)


@st.composite
def ring_and_polys(draw, count):
    ring = draw(st.sampled_from(DIFF_RINGS))
    return (ring,) + tuple(draw(ring_polys(ring)) for _ in range(count))


@st.composite
def substitutions(draw):
    ring = draw(st.sampled_from(DIFF_RINGS))
    p = draw(ring_polys(ring))
    env = {}
    for name in draw(st.sets(st.sampled_from(NAMES))):
        kind = draw(st.sampled_from(["poly", "int", "fraction"]))
        if kind == "poly":
            env[name] = draw(ring_polys(ring, max_terms=3, max_exp=2))
        elif kind == "int":
            env[name] = draw(st.integers(-5, 5))
        else:
            env[name] = Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from(DENOMINATORS[ring])))
    point = {name: draw(st.integers(-3, 3)) for name in NAMES}
    return ring, p, env, point


def _evaluated(value, point):
    return value.evaluate(point) if isinstance(value, MultiPoly) else value


class TestDifferentialKernel:
    @settings(max_examples=80, deadline=None)
    @given(data=ring_and_polys(2))
    def test_product(self, data):
        _, a, b = data
        assert a * b == oracle_mul(a, b)

    @settings(max_examples=60, deadline=None)
    @given(data=ring_and_polys(1), n=st.integers(0, 6))
    def test_power(self, data, n):
        _, a = data
        assert a ** n == oracle_pow(a, n)

    @settings(max_examples=80, deadline=None)
    @given(data=substitutions())
    def test_substitute(self, data):
        ring, p, env, point = data
        got = p.substitute(env)
        assert got == oracle_substitute(p, env)
        inner = {name: _evaluated(env[name], point) if name in env else point[name] for name in p.vars}
        full = {name: point[name] for name in got.vars}
        assert got.evaluate(full) == p.evaluate(inner)

    @pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
    def test_swaps_and_shifts(self, ring):
        x, y, z = (MultiPoly.var(ring, name) for name in NAMES)
        p = x ** 3 * y + x * z ** 2 * 2 - y ** 2 + 5
        for env in ({"x": y, "y": x}, {"x": x + y}, {"x": y, "y": z, "z": x}, {"y": x * y - 1}):
            assert p.substitute(env) == oracle_substitute(p, env)
        assert p.substitute({"x": y, "y": x}).substitute({"x": y, "y": x}) == p

    @pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
    def test_zero_and_cancellation(self, ring):
        x, y = MultiPoly.var(ring, "x"), MultiPoly.var(ring, "y")
        zero = MultiPoly.zero(ring)
        assert zero.substitute({"x": y}) == zero
        assert zero ** 3 == zero and zero ** 0 == MultiPoly.one(ring)
        assert (x - y).substitute({"x": y}) == zero
        assert ((x + y) ** 2 - x ** 2 - x * y * 2).substitute({"y": 0}) == zero
        assert (x ** 2 - y ** 2).substitute({"x": y + 1, "y": x}) == oracle_substitute(
            x ** 2 - y ** 2, {"x": y + 1, "y": x}
        )
        assert (x * 2 + y * 3).substitute({"x": Fraction(1, 1), "y": 1}) == MultiPoly.const(ring, 5)

    @pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
    def test_rename_collisions(self, ring):
        x, y, z = (MultiPoly.var(ring, name) for name in NAMES)
        p = x ** 2 * y + x * y ** 3 * 3 - z
        assert p.rename_vars({"x": "y"}) == oracle_substitute(p, {"x": y})
        assert p.rename_vars({"x": "z", "y": "z"}) == oracle_substitute(p, {"x": z, "y": z})
        assert p.rename_vars({"x": "y", "y": "x"}) == oracle_substitute(p, {"x": y, "y": x})

    def test_large_power_mod_nine(self):
        x, y = MultiPoly.var(Z9, "x"), MultiPoly.var(Z9, "y")
        assert (x + y * 2 + 1) ** 40 == oracle_pow(x + y * 2 + 1, 40)
        n = 1000
        binomial = {(k,): comb(n, k) for k in range(n + 1)}
        assert (x + 1) ** n == MultiPoly(Z9, ("x",), binomial)

    def test_mixed_ring_value_rejected(self):
        with pytest.raises(MixedCoefficientRings):
            (v("x") * v("y")).substitute({"x": v("y", QQ)})
        with pytest.raises(MixedCoefficientRings):
            v("x") * v("y", QQ)


def test_substitution_canonicalizes_per_variable_not_per_term(monkeypatch):
    """Intermediate products stay raw term maps: one canonical form a result."""
    x, y, z = v("x"), v("y"), v("z")
    p = poly_sum(ZZ, [x ** i * y ** (i % 3) * z ** (i % 4) * (i + 1) for i in range(20)])
    env = {"x": y + z * 2 + 1, "y": x - z, "z": x * y + 3}
    base = x + y + z
    assert len(p.terms) == 20
    want = oracle_substitute(p, env)
    calls = []
    original = poly._canonical

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(poly, "_canonical", counting)
    got = p.substitute(env)
    substitute_calls = len(calls)
    power = base ** 13
    assert substitute_calls <= len(p.vars) + 1
    assert len(calls) - substitute_calls <= 1
    monkeypatch.undo()
    assert got == want
    assert power == oracle_pow(base, 13)
