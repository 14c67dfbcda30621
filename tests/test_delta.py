import contextlib
import io
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge.cli import main
from lambda_forge.delta import DeltaPresentation, delta_from_phi, free_delta_ring
from lambda_forge.errors import DepthExceeded, DomainError, NotAFrobeniusLift, UsageError
from lambda_forge.poly import MultiPoly, random_poly
from lambda_forge.rings import ZZ, CoeffRing
from lambda_forge.witt import TruncationSet, WittVec, coaction


def v(name):
    return MultiPoly.var(ZZ, name)


def delta_on_integers(p: int, n: int) -> int:
    """The unique delta-structure on Z in closed form: delta(n) = (n - n^p) / p."""
    return (n - n ** p) // p


def delta_extend_recursive(pres: DeltaPresentation, e: MultiPoly) -> MultiPoly:
    """Independent route: extend delta by the sum and product rules.

    delta(a + b) = delta(a) + delta(b) - (1/p) * sum_{0<i<p} C(p,i) a^i b^(p-i)
    delta(a * b) = a^p delta(b) + b^p delta(a) + p delta(a) delta(b)
    delta(c)     = (c - c^p) / p  for integer constants
    delta(g)     = the assigned value on a generator
    """
    if not isinstance(e, MultiPoly):
        e = MultiPoly.const(ZZ, e)
    pres._check_in_domain(e)
    p = pres.p

    def of_const(c: int) -> MultiPoly:
        return MultiPoly.const(ZZ, (c - c ** p) // p)

    def of_product(a, da, b, db):
        return a ** p * db + b ** p * da + da * db * p

    def of_monomial(coeff: int, mono: dict):
        # peel one generator power at a time via the product rule
        value = MultiPoly.const(ZZ, coeff)
        dvalue = of_const(coeff)
        for g in sorted(mono):
            dg = pres.delta_on_gens[g]
            gp = MultiPoly.var(ZZ, g)
            for _ in range(mono[g]):
                dvalue = of_product(value, dvalue, gp, dg)
                value = value * gp
        return value, dvalue

    def of_sum(a, da, b, db):
        cross = sum((a ** i * b ** (p - i) * (comb(p, i) // p) for i in range(1, p)), MultiPoly.zero(ZZ))
        return da + db - cross

    total = None
    dtotal = None
    for mono, coeff in e.monomials():
        value, dvalue = of_monomial(int(coeff), mono)
        if total is None:
            total, dtotal = value, dvalue
        else:
            dtotal = of_sum(total, dtotal, value, dvalue)
            total = total + value
    if total is None:
        return MultiPoly.zero(ZZ)
    return dtotal


def check_ring_map(section, a: MultiPoly, b: MultiPoly) -> dict:
    """Compare s(a op b) against Witt arithmetic on s(a), s(b)."""
    add_ok = section(a + b) == section(a) + section(b)
    mul_ok = section(a * b) == section(a) * section(b)
    return {"add": add_ok, "mul": mul_ok}


class NotARingMap(DomainError):
    """A candidate section fails additivity or multiplicativity."""


def verify_integer_section(p: int, second, lo: int, hi: int):
    """Check a candidate n -> (n, second(n)) is a ring map into W_2(Z).

    On Z the only section is n -> (n, (n - n^p)/p); any other candidate
    fails additivity or multiplicativity and raises ``NotARingMap`` with
    the witness pair.
    """
    S = TruncationSet.p_typical(p, 2)

    def lift(n: int) -> WittVec:
        return WittVec(S, ZZ, {1: n, p: second(n)})

    for a in range(lo, hi + 1):
        for b in range(lo, hi + 1):
            if lift(a + b) != lift(a) + lift(b):
                raise NotARingMap((a, b), f"s({a}+{b}) != s({a}) + s({b})")
            if lift(a * b) != lift(a) * lift(b):
                raise NotARingMap((a, b), f"s({a}*{b}) != s({a}) * s({b})")
    return True


class TestDeltaExtend:
    def test_two_x0_example(self):
        pres = free_delta_ring(2, 2)
        assert pres.delta(v("x0") * 2) == v("x1") * 2 - v("x0") ** 2

    def test_delta_of_one_is_zero(self):
        pres = free_delta_ring(3, 2)
        assert pres.delta(MultiPoly.one(ZZ)) == MultiPoly.zero(ZZ)

    def test_sum_rule_p2(self):
        # delta(x+y) = delta(x) + delta(y) - x*y with symbolic deltas
        pres = DeltaPresentation(2, ("x", "y", "u", "w"), {"x": v("u"), "y": v("w")})
        assert pres.delta(v("x") + v("y")) == v("u") + v("w") - v("x") * v("y")

    @pytest.mark.parametrize("p", [0, 1, 4, 9])
    def test_presentation_needs_a_prime(self, p):
        with pytest.raises(UsageError):
            DeltaPresentation(p, ("x",), {})

    def test_square_within_free_ring(self):
        pres = free_delta_ring(2, 2)
        got = pres.delta(v("x0") ** 2)
        assert got == v("x0") ** 2 * v("x1") * 2 + v("x1") ** 2 * 2

    def test_constant_via_phi_fixes_constants(self):
        pres = free_delta_ring(3, 1)
        assert pres.delta(MultiPoly.const(ZZ, 4)) == MultiPoly.const(
            ZZ, delta_on_integers(3, 4)
        )


class TestPhiFromDelta:
    def test_free_ring_images(self):
        pres = free_delta_ring(2, 3)
        phi = pres.phi_on_gens
        assert phi["x0"] == v("x0") ** 2 + v("x1") * 2
        assert phi["x2"] == v("x2") ** 2 + v("x3") * 2

    def test_integers_phi_is_identity(self):
        # delta(n) = (n - n^p)/p makes phi(n) = n^p + p*delta(n) = n
        for p in (2, 3, 5):
            for n in range(-6, 7):
                assert n ** p + p * delta_on_integers(p, n) == n

    def test_phi_of_zero(self):
        pres = free_delta_ring(2, 2)
        assert pres.phi(MultiPoly.zero(ZZ)) == MultiPoly.zero(ZZ)

    def test_phi_is_ring_homomorphism_degree_three(self):
        for p in (2, 3, 5):
            pres = free_delta_ring(p, 2)
            a = v("x0") ** 2 + v("x1")
            b = v("x0") * v("x1") - 3
            assert pres.phi(a * b) == pres.phi(a) * pres.phi(b)
            assert pres.phi(a + b) == pres.phi(a) + pres.phi(b)

    def test_phi_reduces_to_frobenius_mod_p(self):
        rng = random.Random(31)
        for p in (2, 3, 5):
            pres = free_delta_ring(p, 2)
            mod = CoeffRing.modular(p)
            for _ in range(20):
                e = random_poly(rng, ZZ, ("x0", "x1"), 3, 2, 4)
                lhs = pres.phi(e).convert_ring(mod)
                rhs = (e ** p).convert_ring(mod)
                assert lhs == rhs


class TestDeltaFromPhi:
    def test_identity_on_integers(self):
        assert delta_on_integers(3, 2) == -2

    def test_every_lift_fixes_the_integers(self):
        # delta on a constant is the closed form, whatever the lift does to u
        for p in (2, 3, 5):
            pres = delta_from_phi(p, ("u",), {"u": v("u") ** p + (v("u") - 1) * p})
            for n in range(-6, 7):
                assert pres.delta(n) == MultiPoly.const(ZZ, delta_on_integers(p, n))

    def test_square_lift_has_zero_delta(self):
        pres = delta_from_phi(2, ("u",), {"u": v("u") ** 2})
        assert pres.delta_on_gens["u"] == MultiPoly.zero(ZZ)

    def test_non_lift_rejected_with_witness(self):
        with pytest.raises(NotAFrobeniusLift) as exc:
            delta_from_phi(2, ("u",), {"u": v("u") ** 2 + v("u")})
        assert exc.value.generator == "u"
        assert str(exc.value.witness) == "u"

    def test_roundtrip_fifty_random_presentations(self):
        rng = random.Random(2024)
        gens = ("u", "w")
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            delta = {g: random_poly(rng, ZZ, gens, 3, 2, 5) for g in gens}
            pres = DeltaPresentation(p, gens, delta)
            back = delta_from_phi(p, gens, pres.phi_on_gens)
            assert back.delta_on_gens == pres.delta_on_gens
            # and the other composition order
            again = back.phi_on_gens
            assert again == pres.phi_on_gens


class TestFreeDeltaRing:
    def test_generator_deltas(self):
        pres = free_delta_ring(2, 2)
        assert pres.delta_on_gens["x0"] == v("x1")
        assert pres.delta_on_gens["x1"] == v("x2")

    def test_depth_exceeded(self):
        pres = free_delta_ring(2, 2)
        with pytest.raises(DepthExceeded):
            pres.delta(v("x2"))

    def test_routes_agree_on_small_monomials(self):
        for p in (2, 3, 5):
            pres = free_delta_ring(p, 3)
            for i in range(4):
                for j in range(4 - i):
                    e = v("x0") ** i * v("x1") ** j
                    assert pres.delta(e) == delta_extend_recursive(pres, e)
                    e2 = e * -2
                    assert pres.delta(e2) == delta_extend_recursive(pres, e2)


def section(pres: DeltaPresentation, e: MultiPoly) -> WittVec:
    """The route of ``delta section``: the coaction over p:P,2 with psi^p the presentation's phi."""
    return coaction(lambda n, x: x if n == 1 else pres.phi(x), e, TruncationSet.p_typical(pres.p, 2), ZZ)


def cli_section(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["delta", "section", *argv]) == 0
    return out.getvalue()


PRIMES = st.sampled_from([2, 3, 5])
# the elements of the free delta-ring of depth 2 that delta is defined on: Z[x0, x1]
DEPTH_2 = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-9, 9), max_size=4).map(
    lambda terms: sum((v("x0") ** i * v("x1") ** j * c for (i, j), c in terms.items()), MultiPoly.zero(ZZ))
)


class TestWitt2Section:
    """``delta section`` against the closed forms: (e, delta(e)) by the sum and
    product rules on the free delta-ring, (n, (n - n^p)/p) over Z."""

    @settings(max_examples=40, deadline=None)
    @given(p=PRIMES, e=DEPTH_2)
    def test_free_delta_ring_section_is_the_closed_form(self, p, e):
        pres = free_delta_ring(p, 2)
        want = delta_extend_recursive(pres, e)
        assert section(pres, e).as_list() == [e, want]
        assert cli_section("--p", str(p), f"--expr={e}", "--depth", "2") == f"section: [{e}, {want}]\n"

    @settings(max_examples=40, deadline=None)
    @given(p=PRIMES, n=st.integers(-50, 50))
    def test_integer_section_is_the_closed_form(self, p, n):
        vec = section(DeltaPresentation(p, (), {}), MultiPoly.const(ZZ, n))
        assert vec.as_list() == [MultiPoly.const(ZZ, n), MultiPoly.const(ZZ, delta_on_integers(p, n))]
        assert cli_section("--p", str(p), f"--eval={n}") == f"section: [{n}, {delta_on_integers(p, n)}]\n"

    def test_unit(self):
        one = section(free_delta_ring(2, 2), MultiPoly.one(ZZ))
        assert one.as_list() == [MultiPoly.one(ZZ), MultiPoly.zero(ZZ)]

    def test_ring_map_symbolically(self):
        for p in (2, 3):
            pres = free_delta_ring(p, 2)
            a = v("x0")
            b = v("x1")
            assert check_ring_map(lambda e: section(pres, e), a, b) == {"add": True, "mul": True}

    def test_w0_after_section_is_identity(self):
        e = v("x0") ** 2 + v("x1")
        assert section(free_delta_ring(2, 2), e).comps[1] == e

    def test_section_to_delta_roundtrip(self):
        pres = free_delta_ring(2, 2)
        rebuilt = DeltaPresentation(2, pres.gens, {g: section(pres, v(g)).comps[2] for g in ("x0", "x1")})
        assert rebuilt.delta_on_gens == pres.delta_on_gens

    def test_integer_section_validation(self):
        assert verify_integer_section(2, lambda n: (n - n ** 2) // 2, -4, 4)
        with pytest.raises(NotARingMap):
            verify_integer_section(2, lambda n: 0, -4, 4)


def test_presentation_json_roundtrip():
    import json

    pres = free_delta_ring(2, 2)
    blob = json.dumps(pres.to_json(), sort_keys=True)
    again = DeltaPresentation.from_json(json.loads(blob))
    assert again.p == pres.p
    assert again.gens == pres.gens
    assert again.delta_on_gens == pres.delta_on_gens
