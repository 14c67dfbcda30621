import json
import random
import signal
from fractions import Fraction
from math import comb
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_forge import cache, poly, substitution
from lambda_forge.errors import MixedCoefficientRings, NotDivisible, UsageError
from lambda_forge.poly import MultiPoly, random_poly
from lambda_forge.rings import QQ, ZZ, CoeffRing
from lambda_forge.witt import TruncationSet, WittVec

import reference as R

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

    @pytest.mark.parametrize("ring", [ZZ, QQ, CoeffRing.modular(8)])
    def test_division_by_zero_is_a_usage_error_whatever_the_dividend(self, ring):
        x = v("x", ring)
        for p in (MultiPoly.zero(ring), MultiPoly.const(ring, 3), x ** 2 * 2 + 1):
            with pytest.raises(UsageError, match="division by zero"):
                p.div_int(0)
        with pytest.raises(UsageError, match="division by zero"):
            ring.div_int(4, 0)

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

    def test_repeated_names_and_negative_exponents_refused(self):
        # a + a over a repeated name would be a non-canonical form of 2*a
        with pytest.raises(UsageError, match="repeated variable name: a"):
            MultiPoly(ZZ, ("a", "a"), {(1, 0): 1, (0, 1): 1})
        obj = {"vars": ["a", "a"], "ring": {"kind": "Z"}, "terms": [{"coef": "1", "exps": [1, 0]}]}
        with pytest.raises(UsageError, match="repeated variable name"):
            MultiPoly.from_json(obj)
        with pytest.raises(UsageError, match="nonnegative"):
            MultiPoly(ZZ, ("a", "b"), {(2, -1): 1})

    @pytest.mark.parametrize("name", ["", "1x", "a b", "_x", "x-1", "x.y", "\u00e9", "x\n", 3, None])
    def test_names_outside_the_grammar_are_refused(self, name):
        # a name the grammar cannot read would print a polynomial that does not
        # parse back, or two unequal polynomials alike ("var('')" printed 0)
        obj = {"vars": [name], "ring": {"kind": "Z"}, "terms": [{"coef": "1", "exps": [1]}]}
        for make in (lambda: MultiPoly.var(ZZ, name), lambda: MultiPoly(ZZ, (name,), {(1,): 1}),
                     lambda: MultiPoly.from_json(obj)):
            with pytest.raises(UsageError, match="variable names match"):
                make()

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


# rings whose units include 7 and 11, so every drawn coefficient lies in them
JSON_RINGS = [ZZ, QQ, CoeffRing.modular(9), CoeffRing.modular(1000), CoeffRing.localized(3), CoeffRing.localized(5)]


@st.composite
def json_polys(draw):
    """Polynomials over Z, Q, Z/m and Z_(p) in any subset of three names,
    the empty one too, with exponents and coefficients of many digits."""
    ring = draw(st.sampled_from(JSON_RINGS))
    names = tuple(draw(st.sets(st.sampled_from(("a1", "b12", "x")))))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.integers(0, 120)) for _ in names)
        num = draw(st.integers(-(10**25), 10**25) | st.integers(-9, 9))
        den = 1 if ring == ZZ else draw(st.sampled_from([1, 7, 11]))
        terms[exps] = terms.get(exps, 0) + Fraction(num, den)
    return MultiPoly(ring, names, terms)


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

    @settings(max_examples=150, deadline=None)
    @given(p=json_polys())
    @example(p=MultiPoly.zero(ZZ))
    @example(p=MultiPoly.zero(CoeffRing.localized(3)))
    @example(p=MultiPoly.const(QQ, Fraction(-7, 11)))
    @example(p=MultiPoly(CoeffRing.modular(9), (), {(): 4}))
    @example(p=v("a12", QQ) * Fraction(10**30, 7) - 1)
    def test_text_is_the_json_of_the_dict(self, p):
        # the disk cache writes this text for each polynomial
        assert cache._json_text(p) == json.dumps(p.to_json(), sort_keys=True)


class TestConstantValue:
    @pytest.mark.parametrize("ring", [ZZ, QQ, CoeffRing.modular(4)], ids=repr)
    def test_zero_polynomial_gives_the_ring_zero(self, ring):
        zero = MultiPoly.zero(ring).constant_value()
        assert zero == ring.normalize(0) and type(zero) is type(ring.normalize(0))

    def test_constant_and_non_constant(self):
        assert MultiPoly.const(QQ, Fraction(3, 2)).constant_value() == Fraction(3, 2)
        with pytest.raises(UsageError):
            v("x").constant_value()

    def test_a_fraction_outside_the_ring_equals_no_polynomial(self):
        # 1/2 is no element of Z: the comparison is False, not a NotDivisible
        assert (MultiPoly.zero(ZZ) == Fraction(1, 2)) is False
        assert (v("x") == Fraction(1, 2)) is False
        assert MultiPoly.const(QQ, Fraction(1, 2)) == Fraction(1, 2)


class TestEvaluate:
    def test_a_large_power_over_z_mod_m_is_taken_mod_m(self):
        # 3 ** 2**24 in full has 26 million bits; mod 8 it is 1
        x = v("x", CoeffRing.modular(8))
        p = x ** 2**24

        def expire(signum, frame):
            raise TimeoutError("evaluate took longer than 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1)
        try:
            got = p.evaluate({"x": 3})
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert got == 1


# ---------------------------------------------------------------------------
# Differential tests: products, powers and substitution; oracle: ``reference.Poly``.

Z4, Z9, Z3 = CoeffRing.modular(4), CoeffRing.modular(9), CoeffRing.localized(3)
DIFF_RINGS = [ZZ, QQ, Z4, Z9, Z3]
# denominators that are units in each ring
DENOMINATORS = {ZZ: [1], QQ: [1, 2, 3, 5], Z4: [1, 3], Z9: [1, 2, 4], Z3: [1, 2, 4, 5]}
NAMES = ("x", "y", "z")


def reference_substitute(p, env):
    """``p.substitute(env)`` by the oracle, the values in ``env`` that are
    polynomials read as ``reference.Poly``."""
    env = {name: R.plain(val) if isinstance(val, MultiPoly) else val for name, val in env.items()}
    return R.plain(p).substitute(env).canonical()


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
        assert canonical_items(a * b) == (R.plain(a) * R.plain(b)).canonical()

    @settings(max_examples=60, deadline=None)
    @given(data=ring_and_polys(1), n=st.integers(0, 6))
    def test_power(self, data, n):
        _, a = data
        assert canonical_items(a ** n) == (R.plain(a) ** n).canonical()

    @settings(max_examples=80, deadline=None)
    @given(data=substitutions())
    def test_substitute(self, data):
        ring, p, env, point = data
        got = p.substitute(env)
        assert canonical_items(got) == reference_substitute(p, env)
        inner = {name: _evaluated(env[name], point) if name in env else point[name] for name in p.vars}
        full = {name: point[name] for name in got.vars}
        assert got.evaluate(full) == p.evaluate(inner)

    @pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
    def test_swaps_and_shifts(self, ring):
        x, y, z = (MultiPoly.var(ring, name) for name in NAMES)
        p = x ** 3 * y + x * z ** 2 * 2 - y ** 2 + 5
        for env in ({"x": y, "y": x}, {"x": x + y}, {"x": y, "y": z, "z": x}, {"y": x * y - 1}):
            assert canonical_items(p.substitute(env)) == reference_substitute(p, env)
        assert p.substitute({"x": y, "y": x}).substitute({"x": y, "y": x}) == p

    @pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
    def test_zero_and_cancellation(self, ring):
        x, y = MultiPoly.var(ring, "x"), MultiPoly.var(ring, "y")
        zero = MultiPoly.zero(ring)
        assert zero.substitute({"x": y}) == zero
        assert zero ** 3 == zero and zero ** 0 == MultiPoly.one(ring)
        assert (x - y).substitute({"x": y}) == zero
        assert ((x + y) ** 2 - x ** 2 - x * y * 2).substitute({"y": 0}) == zero
        env = {"x": y + 1, "y": x}
        assert canonical_items((x ** 2 - y ** 2).substitute(env)) == reference_substitute(x ** 2 - y ** 2, env)
        assert (x * 2 + y * 3).substitute({"x": Fraction(1, 1), "y": 1}) == MultiPoly.const(ring, 5)

    def test_large_power_mod_nine(self):
        x, y = MultiPoly.var(Z9, "x"), MultiPoly.var(Z9, "y")
        assert canonical_items((x + y * 2 + 1) ** 40) == (R.plain(x + y * 2 + 1) ** 40).canonical()
        n = 1000
        binomial = {(k,): comb(n, k) for k in range(n + 1)}
        assert (x + 1) ** n == MultiPoly(Z9, ("x",), binomial)

    def test_mixed_ring_value_rejected(self):
        with pytest.raises(MixedCoefficientRings):
            (v("x") * v("y")).substitute({"x": v("y", QQ)})
        with pytest.raises(MixedCoefficientRings):
            v("x") * v("y", QQ)


def test_substitution_canonicalizes_per_variable_not_per_term(monkeypatch):
    """Intermediate products stay raw term maps: one packed exit a result."""
    x, y, z = v("x"), v("y"), v("z")
    p = sum((x ** i * y ** (i % 3) * z ** (i % 4) * (i + 1) for i in range(20)), MultiPoly.zero(ZZ))
    env = {"x": y + z * 2 + 1, "y": x - z, "z": x * y + 3}
    base = x + y + z
    assert len(p.terms) == 20
    want = reference_substitute(p, env)
    calls = []
    original = poly._unpacked

    def counting(*args):
        calls.append(1)
        return original(*args)

    # substitution leaves through the same exit, imported by name
    for module in (poly, substitution):
        monkeypatch.setattr(module, "_unpacked", counting)
    got = p.substitute(env)
    substitute_calls = len(calls)
    power = base ** 13
    assert substitute_calls <= len(p.vars) + 1
    assert len(calls) - substitute_calls <= 1
    monkeypatch.undo()
    assert canonical_items(got) == want
    assert canonical_items(power) == (R.plain(base) ** 13).canonical()


def test_packed_routes_never_canonicalize(monkeypatch):
    """Universal Witt polynomials and X-basis re-expression leave the packed
    world once a result: one exit a polynomial, none for intermediate values."""
    from lambda_forge import witt
    from lambda_forge.lambdaring import FreeLambdaBasis

    basis = FreeLambdaBasis((2, 3), 2)
    element = basis.model.psi(2, basis.embed[(3,)]) * basis.embed[(2,)]
    monkeypatch.delenv("LAMBDA_FORGE_CACHE_DIR", raising=False)
    witt.clear_memo()
    calls = []
    original = poly._unpacked

    def counting(*args):
        calls.append(1)
        return original(*args)

    for module in (poly, substitution):
        monkeypatch.setattr(module, "_unpacked", counting)
    product = witt.structure_poly_map("mul", witt.TruncationSet.big(8))
    product_calls = len(calls)
    xp, _ = basis.to_x_basis(element)
    monkeypatch.undo()
    assert product_calls == len(product) == 8
    assert len(calls) - product_calls == 1
    assert str(product[2]) == "a1^2*b2 + a2*b1^2 + 2*a2*b2"
    assert basis.from_x_basis(xp) == element


def test_universal_generation_pays_no_fixed_cost_twice(monkeypatch):
    """Generating the same universal polynomials again from a cleared memo
    leaves through the exit once a component, builds no new unpacker, and
    keeps no power of a one-term component (every generic input a_n)."""
    from lambda_forge import witt

    monkeypatch.delenv("LAMBDA_FORGE_CACHE_DIR", raising=False)
    exits, structs, caches = [], [], []
    unpacked, struct, powers = poly._unpacked, poly.Struct, poly._Packed.powers

    def recording(self):
        cache = powers(self)
        caches.append((len(self.terms), cache))
        return cache

    monkeypatch.setattr(poly, "_unpacked", lambda *args: exits.append(1) or unpacked(*args))
    monkeypatch.setattr(poly, "Struct", lambda fmt: structs.append(fmt) or struct(fmt))
    monkeypatch.setattr(poly._Packed, "powers", recording)
    poly._unpacker.cache_clear()
    runs = []
    for _ in range(2):
        witt.clear_memo()
        exits.clear()
        structs.clear()
        polys = witt.structure_poly_map("add", witt.TruncationSet.big(6))
        runs.append((len(polys), len(exits), len(structs)))
    one_term = [sorted(cache) for size, cache in caches if size == 1]
    monkeypatch.undo()
    witt.clear_memo()
    assert runs[0][:2] == runs[1][:2] == (6, 6) and runs[0][2] > 0 and runs[1][2] == 0
    assert one_term and all(keys == [1] for keys in one_term)


# ---------------------------------------------------------------------------
# Differential tests for the packed kernel; oracle: ``reference.Poly``.
# Exponents are drawn on both sides of each packed field size (1, 2, 4 and
# 8 bytes) and beyond 2**64.

Z8 = CoeffRing.modular(8)
PACK_RINGS = [ZZ, QQ, Z8, Z3]
PACK_DENOMINATORS = {ZZ: [1], QQ: [1, 2, 3], Z8: [1, 3, 5], Z3: [1, 2, 4]}
EXPS = [0, 1, 2, 3, 254, 255, 256, 65534, 65535, 65536, 2**32, 2**64 - 1, 2**64, 2**64 + 1]


def pack(terms, n, w):
    """Tuple-keyed ``terms`` over ``n`` variables packed by ``_weights``, at
    ``w`` bytes a field; the variables are named in sorted order."""
    names = tuple(f"v{i}" for i in range(n))
    return poly._keyed(names, terms, poly._weights(names, w))


def unpack(terms, n, w):
    """The layout oracle: exponent vectors of the packed keys of ``_weights``,
    read field by field with shifts and masks.  A key holds a total-degree
    field on top, then one ``w``-byte field per variable, the first variable
    most significant; its degree field must equal the sum of its exponents."""
    bits, mask = 8 * w, (1 << 8 * w) - 1
    out = {}
    for k, c in terms.items():
        exps = tuple(k >> bits * (n - 1 - i) & mask for i in range(n))
        assert k >> bits * n == sum(exps)
        out[exps] = c
    return out


def packed_exps(key, n, w):
    """The exponent vector of one packed key."""
    (exps,) = unpack({key: 1}, n, w)
    return exps


def split(rng, total, n):
    """A random vector of ``n`` exponents summing to ``total`` (for n >= 1)."""
    if not n:
        return ()
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def reference_canonical(ring, vars, terms):
    """The oracle's canonical form of a term map over ``vars`` in ``ring``."""
    return R.Poly.from_parts(R.ring_of(ring), vars, terms).canonical()


def canonical_items(p):
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in p.terms)
    return p.vars, list(p.terms.items())


def division_outcome(p, d):
    """The canonical items of ``p.div_int(d)``, or the witness and message of its ``NotDivisible``."""
    try:
        return canonical_items(p.div_int(d))
    except NotDivisible as exc:
        return exc.witness, str(exc)


def reference_division(p, d):
    """``division_outcome`` of ``p.div_int(d)`` by the oracle: the first term
    of the canonical form that ``d`` does not divide is the certificate."""
    try:
        return divmod(R.plain(p), d)[0].canonical()
    except R.NotDivisible as exc:
        return exc.witness, f"not divisible, witness: {exc.witness}"


@st.composite
def wide_polys(draw, ring, exps=EXPS, min_terms=0, max_terms=4, units=False):
    # a polynomial that must have terms also gets a variable, so that it is not constant
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES), min_size=min_terms))))
    terms = {}
    for _ in range(draw(st.integers(min_terms, max_terms))):
        key = tuple(draw(st.sampled_from(exps)) for _ in names)
        if units:
            c = draw(st.sampled_from([-1, 1]))
        else:
            c = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(PACK_DENOMINATORS[ring])))
        terms[key] = terms.get(key, 0) + c
    return MultiPoly(ring, names, terms)


def scalars(ring):
    """Ints and Fractions whose denominators are units in ``ring``."""
    return st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.sampled_from(PACK_DENOMINATORS[ring]))


@st.composite
def wide_substitutions(draw):
    """Large exponents meet only monomial values and constants whose powers
    stay small, so that every answer stays small: over Z/8 any coefficient,
    whose power is taken mod 8, elsewhere unit coefficients and -1, 0, 1."""
    ring = draw(st.sampled_from(PACK_RINGS))
    wide = draw(st.booleans())
    p = draw(wide_polys(ring, min_terms=1) if wide else wide_polys(ring, exps=[0, 1, 2, 3]))
    env = {}
    for name in draw(st.sets(st.sampled_from(NAMES), min_size=1)):
        kind = draw(st.sampled_from(["poly", "int"]))
        if kind == "int":
            env[name] = draw(st.sampled_from([-1, 0, 1] if wide and ring != Z8 else range(-5, 6)))
        elif wide:
            env[name] = draw(wide_polys(ring, min_terms=1, max_terms=1, units=ring != Z8))
        else:
            env[name] = draw(wide_polys(ring, exps=[0, 1, 2], max_terms=3))
    return ring, p, env


def raw_poly(ring, packed, terms):
    """The oracle's polynomial of the raw map ``terms`` in the layout of
    ``packed``, read back by ``unpack``: integer numerators, reduced over Z/m."""
    kernel = R.ring_of(ring) if ring.kind == "Z/" else R.Z
    return R.Poly.from_parts(kernel, packed.vars, unpack(terms, len(packed.vars), packed.w))


class TestPackedKernel:
    @settings(max_examples=80, deadline=None)
    @given(data=st.sampled_from(PACK_RINGS).flatmap(lambda r: st.tuples(wide_polys(r), wide_polys(r))))
    def test_product(self, data):
        a, b = data
        assert canonical_items(a * b) == (R.plain(a) * R.plain(b)).canonical()

    @settings(max_examples=80, deadline=None)
    @given(data=st.sampled_from(PACK_RINGS).flatmap(lambda r: st.tuples(wide_polys(r), wide_polys(r))))
    def test_sum_difference_and_negation(self, data):
        a, b = data
        ra, rb = R.plain(a), R.plain(b)
        assert canonical_items(a + b) == (ra + rb).canonical()
        assert canonical_items(a - b) == (ra - rb).canonical()
        assert canonical_items(-a) == (-ra).canonical()

    @settings(max_examples=60, deadline=None)
    @given(data=st.sampled_from(PACK_RINGS).flatmap(lambda r: st.tuples(wide_polys(r), scalars(r))))
    def test_scalar_product(self, data):
        a, c = data
        assert canonical_items(a * c) == canonical_items(c * a) == (R.plain(a) * c).canonical()

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.sampled_from(PACK_RINGS).flatmap(
            lambda r: st.tuples(
                st.just(r),
                st.lists(st.sampled_from(NAMES), unique=True),
                st.lists(st.tuples(st.lists(st.sampled_from(EXPS), min_size=3, max_size=3), scalars(r)), max_size=4),
            )
        )
    )
    def test_construction_from_any_variable_order(self, data):
        # raw coefficients, zeros among them, over the variables in a drawn order
        ring, order, items = data
        terms = {}
        for exps, c in items:
            key = tuple(exps[: len(order)])
            terms[key] = terms.get(key, 0) + c
        assert canonical_items(MultiPoly(ring, order, terms)) == reference_canonical(ring, tuple(order), terms)

    @settings(max_examples=60, deadline=None)
    @given(a=st.sampled_from(PACK_RINGS).flatmap(lambda r: wide_polys(r, max_terms=3)), n=st.integers(0, 4))
    def test_power(self, a, n):
        assert canonical_items(a ** n) == (R.plain(a) ** n).canonical()

    @settings(max_examples=80, deadline=None)
    @given(
        ring=st.sampled_from([ZZ, QQ, Z8]),
        c=st.sampled_from([-3, -1, 1, 2, 4, 6, Fraction(5, 3), Fraction(-1, 2)]),
        exps=st.tuples(st.sampled_from(EXPS), st.sampled_from(EXPS)),
        n=st.integers(1, 9),
    )
    @example(ring=Z8, c=2, exps=(1, 0), n=3)
    def test_one_term_power(self, ring, c, exps, n):
        # 2^3, 4^2 and 6^3 are 0 mod 8: the power of one term vanishes there
        # and leaves no entry; over Z/m a raw power keeps residues 1..m-1 only
        if ring != QQ and isinstance(c, Fraction):
            c = c.numerator
        packed = MultiPoly(ring, ("x", "y"), {exps: c})._alone(n)
        got = poly._power(ring, {1: packed.terms}, n)
        assert ring.kind != "Z/" or all(0 < x < ring.modulus for x in got.values())
        assert raw_poly(ring, packed, got).canonical() == (raw_poly(ring, packed, packed.terms) ** n).canonical()

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.sampled_from([ZZ, QQ, Z8]).flatmap(
            lambda r: wide_polys(r, exps=[0, 1, 2, 3], min_terms=2, max_terms=3).filter(lambda p: len(p.terms) > 1)
        ),
        order=st.lists(st.integers(1, 9), min_size=1, max_size=6),
    )
    def test_power_cache(self, a, order):
        # one cache filled in a drawn order: every power it keeps, those the
        # chain formed on the way included, is the oracle's
        packed = a._alone(max(order))
        powers = {1: packed.terms}
        for j in order:
            poly._power(a.ring, powers, j)
        assert set(order) <= set(powers)
        base = raw_poly(a.ring, packed, packed.terms)
        for j, got in powers.items():
            assert a.ring.kind != "Z/" or all(0 < x < a.ring.modulus for x in got.values())
            assert raw_poly(a.ring, packed, got).canonical() == (base ** j).canonical()

    @settings(max_examples=80, deadline=None)
    @given(data=wide_substitutions())
    def test_substitute(self, data):
        _, p, env = data
        assert canonical_items(p.substitute(env)) == reference_substitute(p, env)

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from(PACK_RINGS).flatmap(wide_polys), d=st.sampled_from([1, 2, 3, -4, 5]))
    def test_div_int(self, p, d):
        assert canonical_items(p) == R.plain(p).canonical()
        assert division_outcome(p, d) == reference_division(p, d)

    @pytest.mark.parametrize("top", [255, 65535, 2**32 - 1, 2**64 - 1])
    def test_results_that_outgrow_their_inputs_field(self, top):
        for ring in PACK_RINGS:
            x, y = MultiPoly.var(ring, "x"), MultiPoly.var(ring, "y")
            a, b = x**top + y * 2, x + y**top - 1
            assert canonical_items(a * b) == (R.plain(a) * R.plain(b)).canonical()
            assert canonical_items(b**2) == (R.plain(b) ** 2).canonical()
            p, env = x**2 * y + y, {"x": x**top, "y": x * y}
            assert canonical_items(p.substitute(env)) == reference_substitute(p, env)

    def test_scalar_product_is_the_constant_product(self):
        for ring in PACK_RINGS:
            p = MultiPoly(ring, NAMES, {(3, 0, 1): 2, (0, 256, 0): Fraction(1, 1), (0, 0, 0): 5})
            for c in (0, 1, -3, 4, Fraction(6, 2)):
                by_poly = canonical_items(p * MultiPoly.const(ring, c))
                assert canonical_items(p * c) == canonical_items(c * p) == by_poly
        with pytest.raises(NotDivisible):
            v("x") * Fraction(1, 2)
        with pytest.raises(NotDivisible):
            v("x", Z3) * Fraction(1, 3)

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 16])
    def test_pack_round_trip(self, w):
        # fields are sized from a bound on total degree: every exponent vector
        # sums to at most ``top``, one of them to exactly ``top``, and
        # ``top + 1`` takes the next width
        rng = random.Random(w)
        top = 256**w - 1
        assert poly._field(top) == w and poly._field(top + 1) > w
        for n in (0, 1, 3, 5):
            terms = {split(rng, top, n): 1}
            for _ in range(20):
                terms[split(rng, rng.choice([0, 1, top // 2, top]), n)] = rng.randint(-9, 9)
            packed = pack(terms, n, w)
            assert len(packed) == len(terms) and all(type(k) is int for k in packed)
            assert unpack(packed, n, w) == terms
            # integer order on keys is grlex order
            order = sorted(terms, key=lambda e: (sum(e), e), reverse=True)
            assert [packed_exps(k, n, w) for k in sorted(packed, reverse=True)] == order
            # a monomial product is one int addition while no field overflows
            half = [tuple(e // 2 for e in exps) for exps in terms]
            for e1, e2 in zip(half, reversed(half)):
                (k1,), (k2,) = pack({e1: 1}, n, w), pack({e2: 1}, n, w)
                assert unpack({k1 + k2: 1}, n, w) == {tuple(map(add, e1, e2)): 1}

    def test_negative_exponents_rejected_from_json(self):
        obj = {"vars": ["x"], "ring": {"kind": "Z"}, "terms": [{"coef": "1", "exps": [-1]}]}
        with pytest.raises(UsageError):
            MultiPoly.from_json(obj)


# ---------------------------------------------------------------------------
# Differential tests for the one exit from the packed world, ``_unpacked``:
# it drops zeros, prunes unused variables and orders the terms by one sort of
# the int keys; oracle: ``reference.Poly.canonical`` of the unpacked map.
# Fields of every struct width and of the byte-string route (w = 9) are
# filled up to a total degree of exactly 256**w - 1.

# (ring the kernel computes in, ring of the answer): Z lifts go to Z/m too
EXIT_RINGS = [(ZZ, ZZ), (QQ, QQ), (Z8, Z8), (ZZ, Z8), (ZZ, Z3)]


@st.composite
def raw_maps(draw):
    """(kernel ring, answer ring, vars, w, raw tuple-keyed terms): some
    variables unused by every term, some keys of total degree exactly
    256**w - 1, and coefficients that vanish in the answer ring."""
    kernel, ring = draw(st.sampled_from(EXIT_RINGS))
    w = draw(st.sampled_from([1, 2, 4, 8, 9]))
    top = 256**w - 1
    vars = tuple(sorted(draw(st.sets(st.sampled_from(NAMES)))))
    live = sorted(draw(st.sets(st.sampled_from(range(len(vars))))) if vars else [])
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps, left = [0] * len(vars), top
        for i in live:
            exps[i] = min(left, draw(st.sampled_from([0, 1, 2, 255, 256, top // 2, top])))
            left -= exps[i]
        if live and draw(st.booleans()):
            exps[live[0]] += left
        if kernel == QQ:
            c = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
        else:
            c = draw(st.sampled_from([0, 1, -1, 2, 3, 8, -16, 2**70]))
        terms[tuple(exps)] = c
    return kernel, ring, vars, w, terms


class TestPackedExit:
    @settings(max_examples=200, deadline=None)
    @given(data=raw_maps())
    def test_packed_poly(self, data):
        kernel, ring, vars, w, terms = data
        packed = poly._Packed(kernel, vars, w, poly._keyed(vars, terms, poly._weights(vars, w)))
        got = packed.poly(ring)
        assert got.ring == ring
        assert canonical_items(got) == reference_canonical(ring, vars, unpack(packed.terms, len(vars), w))

    @settings(max_examples=100, deadline=None)
    @given(data=raw_maps(), values=st.dictionaries(st.sampled_from(NAMES), st.sampled_from([0, 1, -1, *NAMES])))
    def test_substitute(self, data, values):
        # renaming keeps the total degree, so answers reach 256**w - 1;
        # 0 and -1 prune variables, cancel terms and leave constants
        _, ring, vars, _, terms = data
        p = MultiPoly(ring, vars, terms)
        env = {name: MultiPoly.var(ring, val) if isinstance(val, str) else val for name, val in values.items()}
        got = p.substitute(env)
        assert got.ring == ring
        assert canonical_items(got) == reference_substitute(p, env)

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 3, 9])
    @pytest.mark.parametrize("kernel, ring", [(ZZ, ZZ), (ZZ, Z8), (QQ, QQ)])
    def test_each_layout_unpacks_its_own_kept_fields(self, w, kernel, ring):
        # struct widths (1, 2, 4, 8) and byte slices (3, 9); at one (w, n)
        # the kept fields change from map to map and back, so an unpacker
        # kept under too coarse a key reads a map with another's fields;
        # each map once with every coefficient nonzero and once with zeros
        top = 256**w - 1
        for live in [(0, 2), (1,), (0, 1, 2), (0, 2), (2,)]:
            for zeros in (False, True):
                terms = {(0, 0, 0): 7}
                for j, e in enumerate((1, 2, 5, top // 4)):
                    terms[tuple(e + j * (i == live[0]) if i in live else 0 for i in range(3))] = j if zeros else j + 1
                den = 3 if kernel == QQ else 1
                got = poly._unpacked(ring, kernel, NAMES, w, pack(terms, 3, w), den)
                want = {e: Fraction(c, den) for e, c in terms.items()}
                assert canonical_items(got) == reference_canonical(ring, NAMES, want)

    def test_empty_and_constant_answers(self):
        for kernel, ring in EXIT_RINGS:
            zero = poly._Packed(kernel, NAMES, 1, {})
            assert canonical_items(zero.poly(ring)) == ((), [])
            const = poly._Packed(kernel, NAMES, 2, pack({(0, 0, 0): 5, (1, 0, 2): 0}, 3, 2))
            assert canonical_items(const.poly(ring)) == ((), [((), ring.normalize(5))])


# ---------------------------------------------------------------------------
# Differential tests: subtraction merges the two term maps in one pass;
# oracle: ``reference.Poly``.

SUB_NAMES = ("u", "v", "w")


def reference_sub(a, b):
    return (R.plain(a) - (R.plain(b) if isinstance(b, MultiPoly) else b)).canonical()


@st.composite
def sub_operands(draw):
    """(ring, a, b, scalar): the variable sets of a and b are drawn apart, so
    they are disjoint, overlapping or equal; the scalar is an int or a Fraction."""
    ring = draw(st.sampled_from(DIFF_RINGS))
    polys = []
    for _ in range(2):
        names = tuple(sorted(draw(st.sets(st.sampled_from(SUB_NAMES)))))
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            key = tuple(draw(st.integers(0, 3)) for _ in names)
            c = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(DENOMINATORS[ring])))
            terms[key] = terms.get(key, 0) + c
        polys.append(MultiPoly(ring, names, terms))
    scalar = draw(st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS[ring])))
    return (ring, *polys, scalar)


class TestOnePassSubtraction:
    @settings(max_examples=150, deadline=None)
    @given(data=sub_operands())
    def test_difference_matches_negate_then_add(self, data):
        ring, a, b, c = data
        const = MultiPoly.const(ring, c)
        assert canonical_items(a - b) == reference_sub(a, b)
        assert canonical_items(b - a) == reference_sub(b, a)
        assert canonical_items(a - c) == reference_sub(a, c)
        assert canonical_items(c - a) == reference_sub(const, a)
        assert canonical_items(a - a) == reference_sub(a, a) == ((), [])

    @pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
    def test_disjoint_and_overlapping_variables(self, ring):
        x, y, z = (MultiPoly.var(ring, name) for name in NAMES)
        for a, b in ((x ** 2 + 1, y * 3), (x * y - z, y ** 2 + x * y), (x + 2, x + 2 - y)):
            assert canonical_items(a - b) == reference_sub(a, b)
            assert canonical_items(2 - a) == reference_sub(MultiPoly.const(ring, 2), a)

    def test_scalar_outside_the_ring_is_refused(self):
        with pytest.raises(NotDivisible):
            v("x") - Fraction(1, 2)
        with pytest.raises(NotDivisible):
            Fraction(1, 3) - v("x", Z3)


# ---------------------------------------------------------------------------
# Differential tests: substitution runs Horner over the source variables;
# oracle: ``reference.Poly.substitute``.

HORNER_NAMES = ("s", "t", "u", "v")


@st.composite
def horner_substitutions(draw):
    """A source polynomial and an assignment that mixes polynomial, scalar
    and missing values; the values draw on the source's own variables and on
    fresh ones.  The source may be zero or constant, and may carry one
    exponent of 2**64, which its variable then maps to a monomial or to a
    scalar whose powers stay small: over Z/8 any coefficient, whose power is
    taken mod 8, elsewhere a unit monomial or a scalar in {-1, 0, 1}."""
    ring = draw(st.sampled_from(PACK_RINGS))
    names = tuple(sorted(draw(st.sets(st.sampled_from(HORNER_NAMES[:3])))))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        key = tuple(draw(st.integers(0, 4)) for _ in names)
        c = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(PACK_DENOMINATORS[ring])))
        terms[key] = terms.get(key, 0) + c
    wide = names and draw(st.booleans())
    if wide:
        key = (2**64,) + (0,) * (len(names) - 1)
        terms[key] = terms.get(key, 0) + draw(st.sampled_from([-1, 1, 2]))
    p = MultiPoly(ring, names, terms)
    env = {}
    for name in HORNER_NAMES[:3]:
        kind = draw(st.sampled_from(["poly", "int", "fraction", "missing"]))
        if wide and name == names[0]:
            small = range(-5, 6) if ring == Z8 else [-1, 0, 1]
            if kind == "poly":
                env[name] = MultiPoly.var(ring, draw(st.sampled_from(HORNER_NAMES))) * draw(st.sampled_from(small))
            elif kind != "missing":
                env[name] = draw(st.sampled_from(small))
        elif kind == "poly":
            value = {}
            for _ in range(draw(st.integers(0, 3))):
                exps = tuple(draw(st.integers(0, 2)) for _ in HORNER_NAMES)
                c = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from(PACK_DENOMINATORS[ring])))
                value[exps] = value.get(exps, 0) + c
            env[name] = MultiPoly(ring, HORNER_NAMES, value)
        elif kind == "int":
            env[name] = draw(st.integers(-5, 5))
        elif kind == "fraction":
            env[name] = Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from(PACK_DENOMINATORS[ring])))
    return p, env


class TestHornerSubstitution:
    @settings(max_examples=200, deadline=None)
    @given(data=horner_substitutions())
    def test_matches_the_per_term_route(self, data):
        p, env = data
        assert canonical_items(p.substitute(env)) == reference_substitute(p, env)

    @pytest.mark.parametrize("ring", PACK_RINGS, ids=repr)
    def test_zero_constant_and_wide_sources(self, ring):
        s, t, u = (MultiPoly.var(ring, name) for name in HORNER_NAMES[:3])
        env = {"s": t + u * 2, "t": s * t - 1, "u": 3}
        for p in (MultiPoly.zero(ring), MultiPoly.const(ring, 5), s ** 3 * t - t ** 2 * u + s * u + 4):
            assert canonical_items(p.substitute(env)) == reference_substitute(p, env)
        wide = s ** (2**64) * t + u ** 2
        # {"s": t, "t": t} sends two source terms to one key
        for value in ({"s": -t}, {"s": 1, "t": s}, {"t": s + u}, {"s": t, "t": t}, {"s": 0}):
            assert canonical_items(wide.substitute(value)) == reference_substitute(wide, value)
        if ring == Z8:
            # 3 ** 2**64 is 1 mod 8, and only its power mod 8 is ever formed
            odd, value = s ** (2**64) * t, {"s": t * 3}
            assert canonical_items(odd.substitute(value)) == reference_substitute(odd, value)

    def test_monomial_and_scalar_images_form_no_product(self, monkeypatch):
        x, y, z = v("x"), v("y"), v("z")
        p, env = x ** 5 * z + x ** 2 * y, {"x": y * 2, "z": 3}
        calls = []
        for module, name in ((poly, "_mul_terms"), (poly, "_square_terms"), (substitution, "_mul_terms"),
                             (substitution, "_horner")):

            def recording(*args, name=name, fn=getattr(module, name)):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(module, name, recording)
        got = p.substitute(env)
        monkeypatch.undo()
        assert calls == []
        assert str(got) == "96*y^5 + 4*y^3"

    def test_one_level_shares_one_chain_of_powers(self, monkeypatch):
        # x^2 from x, x^3 from x^2 * x, x^4 from x^2 and x^6 from x^3: three
        # squares, each of a different map, none formed twice
        x, y = v("x"), v("y")
        p = x ** 2 + x ** 3 + x ** 4 + x ** 6
        squared = []
        square = poly._square_terms

        def recording(terms):
            squared.append(frozenset(terms.items()))
            return square(terms)

        monkeypatch.setattr(poly, "_square_terms", recording)
        got = p.substitute({"x": y + 1})
        monkeypatch.undo()
        assert len(squared) == len(set(squared)) == 3
        assert canonical_items(got) == reference_substitute(p, {"x": y + 1})


@st.composite
def substitution_sessions(draw):
    """A ring, one assignment and a run of sources to apply it to, some of
    them sources applied before.  An image has many terms, one term (riding
    in the key) or is a scalar."""
    ring = draw(st.sampled_from(PACK_RINGS))
    denominators = st.sampled_from(PACK_DENOMINATORS[ring])

    def drawn_poly(names, max_terms, max_exp):
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            key = tuple(draw(st.integers(0, max_exp)) for _ in names)
            c = Fraction(draw(st.integers(-6, 6)), draw(denominators))
            terms[key] = terms.get(key, 0) + c
        return MultiPoly(ring, names, terms)

    assignment = {}
    for name in sorted(draw(st.sets(st.sampled_from(HORNER_NAMES[:3])))):
        kind = draw(st.sampled_from(["poly", "term", "scalar"]))
        if kind == "scalar":
            assignment[name] = Fraction(draw(st.integers(-5, 5)), draw(denominators))
        else:
            assignment[name] = drawn_poly(HORNER_NAMES, 1 if kind == "term" else 3, 2)
    sources = []
    for _ in range(draw(st.integers(1, 10))):
        if sources and draw(st.booleans()):
            sources.append(draw(st.sampled_from(sources)))
        else:
            names = tuple(sorted(draw(st.sets(st.sampled_from(HORNER_NAMES[:3])))))
            sources.append(drawn_poly(names, 6, 4))
    return ring, assignment, sources


class TestPreparedSubstitution:
    """One ``_Substitution`` applied many times: its plans are formed once
    for each source variable tuple and field widths."""

    @settings(max_examples=150, deadline=None)
    @given(data=substitution_sessions())
    def test_matches_the_per_term_route_on_every_source(self, data):
        ring, assignment, sources = data
        prepared = substitution._Substitution(ring, assignment)
        for source in sources:
            assert canonical_items(prepared(source)) == reference_substitute(source, assignment)

    def test_plans_point_at_the_kept_powers(self):
        x, y, z = v("x"), v("y"), v("z")
        prepared = substitution._Substitution(ZZ, {"x": y + z, "y": z ** 2 - z})
        for source in (x ** 3 * y ** 2, x * y + x ** 2, x ** 300 * y):
            prepared(source)
        kept = [cache for _, caches in prepared.layouts.values() for cache in caches.values()]
        levels = [cache for _, _, plans in prepared.plans.values() for plan in plans.values() for cache in plan[2]]
        assert levels and all(any(cache is k for k in kept) for cache in levels)


class TestDeadTerms:
    @settings(max_examples=150, deadline=None)
    @given(
        left=st.dictionaries(st.integers(0, 40), st.integers(-9, 9).filter(bool), max_size=6),
        zeros=st.sets(st.integers(0, 60), min_size=1, max_size=4),
        right=st.dictionaries(st.integers(0, 40), st.integers(-9, 9), min_size=1, max_size=6),
    )
    def test_a_zero_left_coefficient_is_skipped(self, left, zeros, right):
        # a raw Horner part keeps its cancelled terms as zeros; the product is
        # the one of the pruned map, raw map for raw map
        injected = {**{k: 0 for k in zeros}, **left}
        assert poly._mul_terms(injected, right, {}) == poly._mul_terms(left, right, {})
        out = {5: 1}
        assert poly._mul_terms(injected, right, dict(out)) == poly._mul_terms(left, right, dict(out))


# ---------------------------------------------------------------------------
# Differential tests for numerators over one denominator: over Q and Z_(p)
# the packed kernel runs on integer numerators over one denominator and
# forms each Fraction once, at the exit; oracle: ``reference.Poly``, whose
# coefficients stay Fractions.  The Witt check runs the ``add_power`` route
# on symbolic vectors over Q against the scalar route at a rational point.

FRACTION_RINGS = [QQ, Z3]
# denominators whose lcm grows, all prime to 3 over Z_(3)
FRACTION_DENOMINATORS = {QQ: [1, 2, 3, 4, 6, 9, 10], Z3: [1, 2, 4, 5, 7, 10]}


def fraction_coefficients(ring):
    return st.builds(Fraction, st.integers(-30, 30), st.sampled_from(FRACTION_DENOMINATORS[ring]))


@st.composite
def fraction_polys(draw, ring, exps=(0, 1, 2, 3, 255, 256, 2**64), max_terms=4, names=NAMES):
    vars = tuple(sorted(draw(st.sets(st.sampled_from(names)))))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = tuple(draw(st.sampled_from(exps)) for _ in vars)
        terms[key] = terms.get(key, 0) + draw(fraction_coefficients(ring))
    return MultiPoly(ring, vars, terms)


@st.composite
def fraction_substitutions(draw):
    """A source over NAMES with small exponents and rational images: many
    terms, one term (riding in the key), or a scalar."""
    ring = draw(st.sampled_from(FRACTION_RINGS))
    p = draw(fraction_polys(ring, exps=range(5), max_terms=6))
    env = {}
    for name in draw(st.sets(st.sampled_from(NAMES), min_size=1)):
        kind = draw(st.sampled_from(["poly", "term", "scalar"]))
        if kind == "scalar":
            env[name] = draw(fraction_coefficients(ring))
        else:
            max_terms = 1 if kind == "term" else 3
            env[name] = draw(fraction_polys(ring, exps=range(3), max_terms=max_terms, names=NAMES + ("w",)))
    return p, env


class TestNumeratorsOverOneDenominator:
    @settings(max_examples=150, deadline=None)
    @given(data=st.sampled_from(FRACTION_RINGS).flatmap(lambda r: st.tuples(fraction_polys(r), fraction_polys(r))))
    def test_sum_difference_product(self, data):
        a, b = data
        ra, rb = R.plain(a), R.plain(b)
        assert canonical_items(a + b) == (ra + rb).canonical()
        assert canonical_items(a - b) == (ra - rb).canonical()
        assert canonical_items(a * b) == (ra * rb).canonical()

    @settings(max_examples=100, deadline=None)
    @given(data=st.sampled_from(FRACTION_RINGS).flatmap(fraction_polys), n=st.integers(0, 5))
    def test_power(self, data, n):
        assert canonical_items(data ** n) == (R.plain(data) ** n).canonical()

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.sampled_from(FRACTION_RINGS).flatmap(fraction_polys),
        m=st.sampled_from([1, 3, 9, -27]),
        d=st.sampled_from([1, -1, 2, 3, -3, 6, 9, -12, 27, 5]),
    )
    def test_div_int_and_its_certificate(self, a, m, d):
        # multiples of 3 and 9 divide over Z_(3); the rest fail with a certificate
        p = a * m
        assert division_outcome(p, d) == reference_division(p, d)

    @settings(max_examples=150, deadline=None)
    @given(data=fraction_substitutions())
    def test_substitute_with_rational_images(self, data):
        p, env = data
        assert canonical_items(p.substitute(env)) == reference_substitute(p, env)

    def test_denominators_meet_at_their_lcm_and_multiply_under_products(self):
        x, y = v("x", QQ), v("y", QQ)
        a, b = x * Fraction(1, 6) + 1, y * Fraction(1, 4)
        assert a._alone().den == 6 and (a + b)._alone().den == 12
        assert (a._alone() + b._alone()).den == 12
        assert (a._alone() * b._alone()).den == 24 and (a._alone() ** 3).den == 216
        assert (b._alone().div_int(-3)).den == 12
        # over Z_(3) only the part of d prime to 3 joins the denominator
        z = v("z", Z3) * Fraction(9, 2)
        assert z._alone().div_int(-6).den == 4 and z.div_int(-6) == v("z", Z3) * Fraction(-3, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        trunc=st.sampled_from([TruncationSet.p_typical(2, 3), TruncationSet.big(4)]),
        data=st.data(),
    )
    def test_witt_sum_and_product_over_q_at_a_point(self, trunc, data):
        point = {"a": Fraction(-3, 2), "b": Fraction(5, 3)}
        comp = fraction_polys(QQ, exps=range(3), max_terms=2, names=tuple(point))
        x, y = (WittVec(trunc, QQ, {n: data.draw(comp) for n in trunc}) for _ in range(2))

        def at_point(vec):
            return WittVec(trunc, QQ, {n: c.evaluate(point) for n, c in vec.comps.items()})

        for op in (add, mul):
            got = op(x, y)
            assert at_point(got) == op(at_point(x), at_point(y))


GRAMMAR_NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True)


@st.composite
def named_polys(draw):
    """(ring, a polynomial built through the API from drawn valid names)."""
    ring = draw(st.sampled_from(RINGS))
    names = draw(st.lists(GRAMMAR_NAMES, min_size=1, max_size=4, unique=True))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 5] if ring.kind in ("Q", "Z_(") else [1]))
    f = MultiPoly.const(ring, draw(coeffs))
    for _ in range(draw(st.integers(0, 4))):
        term = MultiPoly.const(ring, draw(coeffs))
        for name in draw(st.lists(st.sampled_from(names), max_size=3)):
            term = term * MultiPoly.var(ring, name) ** draw(st.integers(1, 3))
        f = f + term
    return ring, f


@settings(max_examples=150, deadline=None)
@given(named_polys())
def test_printed_polynomials_parse_back(inputs):
    from lambda_forge.textparse import parse_poly

    ring, f = inputs
    assert parse_poly(str(f), ring) == f


# Exact division with its certificate; oracle: ``divmod`` of ``reference.Poly``.


Z12 = CoeffRing.modular(12)
# denominators that are units in each ring; Z/12 has units 1, 5, 7, 11 and non-units 2, 3, 4, 6, 8, 9, 10
DIVISION_DENOMINATORS = {ZZ: [1], QQ: [1, 2, 3, 7], Z12: [1, 5, 7], Z3: [1, 2, 5]}
DIVISORS = [1, -1, 2, -2, 3, -3, 4, 5, -6, 7, 9, -9, 12, -12, 18]


@st.composite
def division_cases(draw):
    """(a polynomial, a divisor): coefficients carry small factors so that some
    terms divide and several may not; up to six terms, the zero polynomial among them."""
    ring = draw(st.sampled_from(list(DIVISION_DENOMINATORS)))
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES)))))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        key = tuple(draw(st.integers(0, 3)) for _ in names)
        n = draw(st.integers(-5, 5)) * draw(st.sampled_from([1, 2, 3, 4, 6, 9, 12]))
        terms[key] = terms.get(key, 0) + Fraction(n, draw(st.sampled_from(DIVISION_DENOMINATORS[ring])))
    return MultiPoly(ring, names, terms), draw(st.sampled_from(DIVISORS))


class TestDivisionCertificate:
    @settings(max_examples=400, deadline=None)
    @given(division_cases())
    def test_one_pass_matches_the_per_term_route(self, case):
        p, d = case
        assert division_outcome(p, d) == reference_division(p, d)

    @pytest.mark.parametrize("ring", list(DIVISION_DENOMINATORS), ids=str)
    @pytest.mark.parametrize("d", [2, -3, 12])
    def test_the_zero_polynomial_divides(self, ring, d):
        assert MultiPoly.zero(ring).div_int(d) == MultiPoly.zero(ring)
        # terms that cancel leave the zero polynomial too
        x = v("x", ring)
        assert (x - x).div_int(d) == MultiPoly.zero(ring)

    @pytest.mark.parametrize(
        "ring, terms, d, witness",
        [
            # every term but the leading one fails
            (ZZ, {(2, 0): 4, (1, 1): 3, (0, 1): 5, (0, 0): 7}, 2, "3*x*y"),
            (ZZ, {(2, 0): 3, (1, 1): 2, (0, 1): 5}, -2, "3*x^2"),
            (QQ, {(2, 0): Fraction(1, 3), (0, 0): 5}, -7, None),
            (Z3, {(2, 0): 9, (1, 1): Fraction(1, 2), (0, 0): 2}, 9, "1/2*x*y"),
            (Z3, {(2, 0): 9, (1, 1): Fraction(3, 2), (0, 0): 2}, -3, "2"),
            # a non-unit names the leading term, a unit divides everything
            (Z12, {(2, 0): 6, (1, 1): 4, (0, 0): 1}, 3, "6*x^2"),
            (Z12, {(2, 0): 0, (1, 1): 4, (0, 0): 1}, -4, "4*x*y"),
            (Z12, {(2, 0): 6, (1, 1): 4, (0, 0): 1}, -5, None),
        ],
    )
    def test_the_certificate_is_the_first_failing_term(self, ring, terms, d, witness):
        p = MultiPoly(ring, ("x", "y"), terms)
        if witness is None:
            assert canonical_items(p.div_int(d)) == reference_division(p, d)
            return
        with pytest.raises(NotDivisible) as got:
            p.div_int(d)
        assert got.value.witness == witness
