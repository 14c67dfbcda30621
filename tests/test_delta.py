import random

import pytest

from lambda_forge.delta import (
    DeltaPresentation,
    Witt2Section,
    delta_extend,
    delta_extend_recursive,
    delta_from_phi,
    delta_on_integers,
    free_delta_ring,
    verify_integer_section,
)
from lambda_forge.errors import DepthExceeded, NotAFrobeniusLift, NotARingMap, UsageError
from lambda_forge.poly import MultiPoly, random_poly
from lambda_forge.rings import ZZ, CoeffRing


def v(name):
    return MultiPoly.var(ZZ, name)


class TestDeltaExtend:
    def test_two_x0_example(self):
        pres = free_delta_ring(2, 2)
        assert delta_extend(pres, v("x0") * 2) == v("x1") * 2 - v("x0") ** 2

    def test_delta_of_one_is_zero(self):
        pres = free_delta_ring(3, 2)
        assert delta_extend(pres, MultiPoly.one(ZZ)) == MultiPoly.zero(ZZ)

    def test_sum_rule_p2(self):
        # delta(x+y) = delta(x) + delta(y) - x*y with symbolic deltas
        pres = DeltaPresentation(2, ("x", "y", "u", "w"), {"x": v("u"), "y": v("w")})
        assert delta_extend(pres, v("x") + v("y")) == v("u") + v("w") - v("x") * v("y")

    @pytest.mark.parametrize("p", [0, 1, 4, 9])
    def test_presentation_needs_a_prime(self, p):
        with pytest.raises(UsageError):
            DeltaPresentation(p, ("x",), {})

    def test_square_within_free_ring(self):
        pres = free_delta_ring(2, 2)
        got = delta_extend(pres, v("x0") ** 2)
        assert got == v("x0") ** 2 * v("x1") * 2 + v("x1") ** 2 * 2

    def test_constant_via_phi_fixes_constants(self):
        pres = free_delta_ring(3, 1)
        assert delta_extend(pres, MultiPoly.const(ZZ, 4)) == MultiPoly.const(
            ZZ, delta_on_integers(3, 4)
        )


class TestPhiFromDelta:
    def test_free_ring_images(self):
        pres = free_delta_ring(2, 3)
        phi = pres.phi_on_gens()
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
            back = delta_from_phi(p, gens, pres.phi_on_gens())
            assert back.delta_on_gens == pres.delta_on_gens
            # and the other composition order
            again = back.phi_on_gens()
            assert again == pres.phi_on_gens()


class TestFreeDeltaRing:
    def test_generator_deltas(self):
        pres = free_delta_ring(2, 2)
        assert pres.delta_on_gens["x0"] == v("x1")
        assert pres.delta_on_gens["x1"] == v("x2")

    def test_depth_exceeded(self):
        pres = free_delta_ring(2, 2)
        with pytest.raises(DepthExceeded):
            delta_extend(pres, v("x2"))

    def test_routes_agree_on_small_monomials(self):
        for p in (2, 3, 5):
            pres = free_delta_ring(p, 3)
            for i in range(4):
                for j in range(4 - i):
                    e = v("x0") ** i * v("x1") ** j
                    assert delta_extend(pres, e) == delta_extend_recursive(pres, e)
                    e2 = e * -2
                    assert delta_extend(pres, e2) == delta_extend_recursive(pres, e2)


class TestWitt2Section:
    def test_integer_example(self):
        section = Witt2Section(DeltaPresentation(2, (), {}))
        vec = section(MultiPoly.const(ZZ, 3))
        assert vec.as_list() == [MultiPoly.const(ZZ, 3), MultiPoly.const(ZZ, -3)]

    def test_unit(self):
        section = Witt2Section(free_delta_ring(2, 2))
        assert section(MultiPoly.one(ZZ)).as_list() == [MultiPoly.one(ZZ), MultiPoly.zero(ZZ)]

    def test_ring_map_symbolically(self):
        for p in (2, 3):
            section = Witt2Section(free_delta_ring(p, 2))
            a = v("x0")
            b = v("x1")
            report = section.check_ring_map(a, b)
            assert report == {"add": True, "mul": True}
            assert section(a + b) == section(a) + section(b)

    def test_w0_after_section_is_identity(self):
        section = Witt2Section(free_delta_ring(2, 2))
        e = v("x0") ** 2 + v("x1")
        assert section(e).comps[1] == e

    def test_section_to_delta_roundtrip(self):
        pres = free_delta_ring(2, 2)
        section = Witt2Section(pres)
        rebuilt = DeltaPresentation(
            2, pres.gens, {g: section(v(g)).comps[2] for g in ("x0", "x1")}
        )
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
