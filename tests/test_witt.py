import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import cache, witt
from lambda_forge.delta import w2_congruence_witness, w2_pullback_check
from lambda_forge.errors import (
    ForgeError,
    IntegralityViolation,
    MixedCoefficientRings,
    NotASubset,
    NotDivisible,
    TruncationMismatch,
    UsageError,
)
from lambda_forge.poly import MultiPoly, random_poly
from lambda_forge.rings import QQ, ZZ, CoeffRing, _factorize
from lambda_forge.series import TruncSeries, from_series, to_series
from lambda_forge.witt import (
    GhostVec,
    TruncationSet,
    WittVec,
    clear_memo,
    comult,
    comult_poly_map,
    counit,
    frobenius,
    frobenius_poly_map,
    ghost_inverse,
    ghost_map,
    restrict,
    structure_poly_map,
    teichmuller,
    verschiebung,
)
from test_series import log_derivative

import reference as R

O = R.bench_module("oracles")


def var(name):
    return MultiPoly.var(ZZ, name)


def sym(trunc, prefix="a"):
    return WittVec(trunc, ZZ, {n: var(f"{prefix}{n}") for n in trunc})


def witt_int(c, S, ring):
    """The image of the integer c in W_S: ghost coordinates (c, ..., c)."""
    return ghost_inverse(GhostVec(S, ring, {n: MultiPoly.const(ring, c) for n in S}))


BIG2 = TruncationSet.big(2)
P22 = TruncationSet.p_typical(2, 2)


BIG_P = 1000000000039


def _stable_by_trial_division(elems) -> bool:
    """The trial-division check: n // q is in the set for each prime factor q of each n."""
    return all(n // q in elems for n in elems for q in _factorize(n))


class TestTruncationSet:
    def test_big_and_p_typical(self):
        assert TruncationSet.big(4).elems == (1, 2, 3, 4)
        assert TruncationSet.p_typical(3, 3).elems == (1, 3, 9)

    def test_division_stability_enforced(self):
        with pytest.raises(UsageError):
            TruncationSet((1, 4))

    @pytest.mark.parametrize("p", [-2, 0, 1])
    def test_p_typical_needs_p_at_least_two(self, p):
        with pytest.raises(UsageError):
            TruncationSet.p_typical(p, 3)

    def test_negative_length_rejected(self):
        assert TruncationSet.big(0).elems == TruncationSet.p_typical(2, 0).elems == ()
        with pytest.raises(UsageError):
            TruncationSet.big(-1)
        with pytest.raises(UsageError):
            TruncationSet.p_typical(2, -1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TruncationSet.big(2.5),
            lambda: TruncationSet.p_typical(2, 2.5),
            lambda: TruncationSet.p_typical(2.5, 2),
        ],
    )
    def test_constructor_parameters_are_integers(self, make):
        with pytest.raises(UsageError, match="is not an integer"):
            make()

    def test_integral_fraction_parameters_are_integers(self):
        assert TruncationSet.big(Fraction(6, 2)) == TruncationSet.big(3)
        assert TruncationSet.p_typical(Fraction(4, 2), Fraction(3)) == TruncationSet.p_typical(2, 3)

    @pytest.mark.parametrize("elems", [[1, 2.5], [1, 2.0], ["a"], [1, "2"], [1, Fraction(5, 2)]])
    def test_only_integers_are_members(self, elems):
        with pytest.raises(UsageError, match="is not an integer"):
            TruncationSet(elems)

    def test_integral_fractions_are_members(self):
        assert TruncationSet([1, Fraction(4, 2)]).elems == (1, 2)

    def test_teichmuller_of_a_non_integer_is_refused(self):
        with pytest.raises(UsageError, match="is not an integer"):
            teichmuller("a", TruncationSet.big(2))

    def test_divide(self):
        assert TruncationSet.big(6).divide(2).elems == (1, 2, 3)
        assert TruncationSet.big(2).divide(3).elems == ()
        with pytest.raises(UsageError):
            TruncationSet.big(6).divide(0)

    def test_product_is_every_pairwise_product(self):
        S, T = TruncationSet.big(3), TruncationSet.p_typical(2, 3)
        U = S.product(T)
        # an equal T gives an equal product
        assert S.product(T) == U and S.product(TruncationSet.p_typical(2, 3)) == U
        assert U == TruncationSet(s * t for s in S for t in T)
        assert U.elems == (1, 2, 3, 4, 6, 8, 12)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 8))
    def test_division_stability_and_divide_against_every_divisor(self, data, n):
        # divisor closures of a few numbers, with at most one element dropped
        tops = data.draw(st.sets(st.integers(1, 40), max_size=4))
        elems = {d for m in tops for d in range(1, m + 1) if m % d == 0}
        elems -= {data.draw(st.sampled_from(sorted(elems)) | st.none())} if elems else set()
        # the oracle: every divisor of every element, and S/n by multiplication
        stable = all(d in elems for m in elems for d in range(1, m + 1) if m % d == 0)
        if not stable:
            with pytest.raises(UsageError):
                TruncationSet(elems)
            return
        S = TruncationSet(elems)
        assert S.divide(n).elems == tuple(d for d in range(1, 41) if n * d in elems)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(1, 120), max_size=4), st.integers(1, 6))
    def test_divisor_table_against_every_divisor(self, tops, n):
        # divisor closures, their quotients S/n and the products (S/n) * big:n
        closure = TruncationSet({d for m in tops for d in range(1, m + 1) if m % d == 0})
        drawn = [closure, closure.divide(n), closure.divide(n).product(TruncationSet.big(n))]
        named = [TruncationSet.big(30), TruncationSet.p_typical(2, 6), TruncationSet.p_typical(5, 4), BIG2.product(P22)]
        for S in drawn + named:
            table = S.divisors()
            assert list(table) == list(S)
            # the oracle: trial division of each element by every smaller integer
            assert table == {m: tuple(d for d in range(1, m + 1) if m % d == 0) for m in S}
            # built once: the ghost map and its inverse read the same read-only table
            vec = WittVec.from_list(S, ZZ, [1 - i % 3 for i in range(len(S))])
            assert ghost_inverse(ghost_map(vec)) == vec
            assert S.divisors() is table
            with pytest.raises(TypeError):
                table[1] = ()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_division_stability_against_trial_division(self, data):
        # divisor closures and a run 1..r, with a few elements dropped (1
        # among them) and strays added; past the run, trial division by the
        # set's primes decides primality up to (r + 1)**2 - 1
        tops = data.draw(st.sets(st.integers(1, 200), max_size=4))
        elems = {d for m in tops for d in range(1, m + 1) if m % d == 0}
        elems |= set(range(1, data.draw(st.integers(0, 20)) + 1))
        if elems:
            elems -= data.draw(st.sets(st.sampled_from(sorted(elems)), max_size=2))
        elems |= data.draw(st.sets(st.integers(1, 200), max_size=2))
        if data.draw(st.booleans()):
            elems.discard(1)
        if _stable_by_trial_division(elems):
            assert TruncationSet(elems).elems == tuple(sorted(elems))
        else:
            with pytest.raises(UsageError, match="not division-stable"):
                TruncationSet(elems)

    @pytest.mark.parametrize(
        "elems, stable",
        [
            ((1, BIG_P, BIG_P ** 2), True),
            ((1, 2, BIG_P, 2 * BIG_P), True),
            ((BIG_P, BIG_P ** 2), False),
            ((1, BIG_P ** 2), False),
            ((1, 2, 2 * BIG_P), False),
            ((1, BIG_P, 3 * BIG_P), False),
        ],
    )
    def test_large_prime_factors_need_no_trial_division(self, elems, stable):
        if stable:
            assert TruncationSet(elems).elems == elems
        else:
            with pytest.raises(UsageError, match="not division-stable"):
                TruncationSet(elems)

    def test_product(self):
        assert BIG2.product(BIG2).elems == (1, 2, 4)

    def test_empty_is_allowed(self):
        empty = TruncationSet(())
        assert WittVec.zero(empty, ZZ).as_list() == []

    @pytest.mark.parametrize(
        "elems, form, label",
        [
            ((), {"kind": "big", "n": 0}, "empty"),
            ((1,), {"kind": "big", "n": 1}, "big1"),
            # {1, 2} is also 2-typical: big comes first
            ((1, 2), {"kind": "big", "n": 2}, "big2"),
            ((1, 3), {"kind": "p", "p": 3, "len": 2}, "p3l2"),
            ((1, 3, 9), {"kind": "p", "p": 3, "len": 3}, "p3l3"),
            ((1, 2, 3, 6), {"kind": "set", "elems": [1, 2, 3, 6]}, "s1-2-3-6"),
        ],
    )
    def test_one_classifier_names_each_kind(self, elems, form, label):
        trunc = TruncationSet(elems)
        assert (trunc.to_json(), trunc.label()) == (form, label)
        if form["kind"] == "big":
            assert trunc.series_length() == form["n"]
        else:
            with pytest.raises(UsageError, match="needs a big truncation"):
                trunc.series_length()

    def test_json_roundtrip(self):
        for trunc in (TruncationSet.big(4), TruncationSet.p_typical(2, 3), TruncationSet((1, 2, 3, 6))):
            assert TruncationSet.from_json(trunc.to_json()) == trunc


class TestStructurePolys:
    def test_addition_length_two(self):
        polys = structure_poly_map("add", P22)
        assert str(polys[1]) == "a1 + b1"
        assert polys[2] == var("a2") + var("b2") - var("a1") * var("b1")

    def test_multiplication_length_two(self):
        polys = structure_poly_map("mul", P22)
        assert polys[1] == var("a1") * var("b1")
        assert polys[2] == var("a1") ** 2 * var("b2") + var("b1") ** 2 * var("a2") + var("a2") * var("b2") * 2

    def test_addition_p_three(self):
        polys = structure_poly_map("add", TruncationSet.p_typical(3, 2))
        expected = var("a3") + var("b3") - var("a1") ** 2 * var("b1") - var("a1") * var("b1") ** 2
        assert polys[3] == expected

    @pytest.mark.parametrize("S", [TruncationSet.big(6), TruncationSet.p_typical(3, 3), TruncationSet((1, 2, 3, 6))])
    def test_generic_vector_is_the_one_the_constructor_builds(self, S):
        for prefix in ("a", "b"):
            got, want = witt._sym_vec(prefix, S), sym(S, prefix)
            assert got == want and got.shape == want.shape == (S,)
            assert list(got.comps) == list(S) and all(type(c.terms[(1,)]) is int for c in got.as_list())

    def test_ghost_compatibility_invariant(self):
        S = TruncationSet.big(4)
        a, b = sym(S, "a"), sym(S, "b")
        for op in ("add", "mul"):
            combined = a + b if op == "add" else a * b
            ga, gb = ghost_map(a), ghost_map(b)
            for n in S:
                expect = ga.comps[n] + gb.comps[n] if op == "add" else ga.comps[n] * gb.comps[n]
                assert ghost_map(combined).comps[n] == expect


class TestGhost:
    def test_big_divisor_sum(self):
        S = TruncationSet((1, 2, 3, 6))
        g = ghost_map(sym(S))
        assert g.comps[6] == var("a1") ** 6 + var("a2") ** 3 * 2 + var("a3") ** 2 * 3 + var("a6") * 6

    def test_p_typical_specialization(self):
        g = ghost_map(sym(P22))
        assert g.comps[1] == var("a1")
        assert g.comps[2] == var("a1") ** 2 + var("a2") * 2

    def test_teichmuller_ghost(self):
        t = teichmuller(var("a"), TruncationSet.big(4))
        assert [str(c) for c in ghost_map(t).as_list()] == ["a", "a^2", "a^3", "a^4"]

    def test_ghost_inverse_example(self):
        g = GhostVec(P22, ZZ, {1: MultiPoly.const(ZZ, 2), 2: MultiPoly.const(ZZ, 2)})
        assert ghost_inverse(g) == WittVec.from_list(P22, ZZ, [2, -1])

    def test_ghost_inverse_of_scalar_components(self):
        assert ghost_inverse(GhostVec(BIG2, ZZ, {1: 3, 2: 5})) == WittVec.from_list(BIG2, ZZ, [3, -2])

    def test_ghost_inverse_zero(self):
        S = TruncationSet.big(3)
        g = GhostVec(S, ZZ, {n: MultiPoly.zero(ZZ) for n in S})
        assert ghost_inverse(g) == WittVec.zero(S, ZZ)

    def test_ghost_inverse_failure_certificate(self):
        g = GhostVec(BIG2, ZZ, {1: MultiPoly.const(ZZ, 1), 2: MultiPoly.const(ZZ, 2)})
        with pytest.raises(NotDivisible) as exc:
            ghost_inverse(g)
        assert exc.value.witness == 2

    def test_roundtrip(self):
        S = TruncationSet.big(4)
        a = sym(S)
        assert ghost_inverse(ghost_map(a)) == a


class TestArithmetic:
    def test_one_plus_one(self):
        one = WittVec.from_list(P22, ZZ, [1, 0])
        assert (one + one).as_list() == [MultiPoly.const(ZZ, 2), MultiPoly.const(ZZ, -1)]

    def test_additive_identity(self):
        S = TruncationSet.big(3)
        a = sym(S)
        assert a + WittVec.zero(S, ZZ) == a

    def test_teichmuller_sum_big2(self):
        ta = teichmuller(var("a"), BIG2)
        tb = teichmuller(var("b"), BIG2)
        assert (ta + tb).as_list() == [var("a") + var("b"), -(var("a") * var("b"))]

    def test_neg_certified_by_ghost(self):
        S = TruncationSet.big(4)
        a = sym(S)
        g = ghost_map(-a)
        ga = ghost_map(a)
        assert all(g.comps[n] == -ga.comps[n] for n in S)

    def test_truncation_mismatch(self):
        with pytest.raises(TruncationMismatch):
            sym(BIG2) + sym(TruncationSet.big(3))

    def test_integer_embedding(self):
        assert witt_int(3, P22, ZZ) == witt_int(1, P22, ZZ) + witt_int(2, P22, ZZ)
        assert witt_int(-2, P22, ZZ) + witt_int(2, P22, ZZ) == WittVec.zero(P22, ZZ)


class TestTeichmuller:
    def test_unit(self):
        S = TruncationSet.big(3)
        one = teichmuller(MultiPoly.one(ZZ), S)
        a = sym(S)
        assert one * a == a

    def test_multiplicative_on_big3(self):
        S = TruncationSet.big(3)
        ta, tb = teichmuller(var("a"), S), teichmuller(var("b"), S)
        assert ta * tb == teichmuller(var("a") * var("b"), S)


class TestFrobenius:
    def test_length_two_collapse(self):
        a = sym(P22)
        fa = frobenius(2, a)
        assert fa.trunc.elems == (1,)
        assert fa.comps[1] == var("a1") ** 2 + var("a2") * 2

    def test_on_teichmuller(self):
        S = TruncationSet.big(6)
        t = teichmuller(var("a"), S)
        for n in (2, 3):
            assert frobenius(n, t) == teichmuller(var("a") ** n, S.divide(n))

    def test_identity(self):
        a = sym(TruncationSet.big(4))
        assert frobenius(1, a) == a

    def test_empty_quotient_truncation(self):
        fa = frobenius(5, sym(BIG2))
        assert fa.trunc.elems == () and fa.as_list() == []

    def test_ring_homomorphism_big4(self):
        S = TruncationSet.big(4)
        a, b = sym(S, "a"), sym(S, "b")
        for n in (2, 3):
            assert frobenius(n, a + b) == frobenius(n, a) + frobenius(n, b)
            assert frobenius(n, a * b) == frobenius(n, a) * frobenius(n, b)

    def test_ghost_characterization(self):
        S = TruncationSet.big(6)
        a = sym(S)
        ga = ghost_map(a)
        for n in (2, 3):
            gf = ghost_map(frobenius(n, a))
            assert all(gf.comps[d] == ga.comps[n * d] for d in S.divide(n))


class TestVerschiebung:
    def test_shift(self):
        S = TruncationSet.p_typical(2, 3)
        a = sym(TruncationSet.p_typical(2, 2))
        assert verschiebung(2, a, S).as_list() == [MultiPoly.zero(ZZ), var("a1"), var("a2")]

    def test_zero(self):
        S = TruncationSet.big(4)
        z = WittVec.zero(S.divide(2), ZZ)
        assert verschiebung(2, z, S) == WittVec.zero(S, ZZ)

    def test_additive_big4(self):
        S = TruncationSet.big(4)
        a, b = sym(S.divide(2), "a"), sym(S.divide(2), "b")
        assert verschiebung(2, a + b, S) == verschiebung(2, a, S) + verschiebung(2, b, S)

    def test_fv_is_multiplication_by_n_big2(self):
        for n in (2, 3):
            S = TruncationSet.big(2)
            source = S.divide(n)
            a = sym(source)
            composite = frobenius(n, verschiebung(n, a, S))
            n_fold = WittVec.zero(source, ZZ)
            for _ in range(n):
                n_fold = n_fold + a
            assert composite == n_fold

    def test_projection_formula_big2(self):
        S = TruncationSet.big(2)
        a = sym(S, "a")
        b = sym(S.divide(2), "b")
        lhs = a * verschiebung(2, b, S)
        rhs = verschiebung(2, frobenius(2, a) * b, S)
        assert lhs == rhs

    def test_source_mismatch(self):
        with pytest.raises(TruncationMismatch):
            verschiebung(2, sym(BIG2), TruncationSet.big(3))

    def test_composition_laws(self):
        S = TruncationSet.big(8)
        a = sym(S)
        assert frobenius(2, frobenius(2, a)) == frobenius(4, a)
        b = sym(S.divide(4))
        assert verschiebung(2, verschiebung(2, b, S.divide(2)), S) == verschiebung(4, b, S)

    def test_coprime_frobenius_verschiebung_commute(self):
        S = TruncationSet.big(6)
        b = sym(S.divide(3))
        lhs = frobenius(2, verschiebung(3, b, S))
        rhs = verschiebung(3, frobenius(2, b), S.divide(2))
        assert lhs == rhs


class TestRestrict:
    def test_drop_components(self):
        a = sym(TruncationSet.big(3))
        assert restrict(a, BIG2).as_list() == [var("a1"), var("a2")]

    def test_commutes_with_addition(self):
        S, T = TruncationSet.big(3), BIG2
        a, b = sym(S, "a"), sym(S, "b")
        assert restrict(a + b, T) == restrict(a, T) + restrict(b, T)

    def test_restriction_to_length_one_is_first_component(self):
        a = sym(TruncationSet.big(3))
        assert restrict(a, TruncationSet.big(1)).as_list() == [var("a1")]

    def test_functoriality(self):
        a = sym(TruncationSet.big(4))
        direct = restrict(a, BIG2)
        staged = restrict(restrict(a, TruncationSet.big(3)), BIG2)
        assert direct == staged

    def test_not_a_subset(self):
        with pytest.raises(NotASubset):
            restrict(sym(BIG2), TruncationSet.big(3))


def test_onto_the_empty_set_a_nested_vector_keeps_its_inner_shape():
    # built by the public constructor, these lost the inner truncation: (E,)
    E = TruncationSet(())
    a = WittVec(BIG2, ZZ, {1: sym(BIG2, "a"), 2: sym(BIG2, "b")})
    assert restrict(a, E).shape == (E, BIG2)
    assert verschiebung(2, frobenius(3, a), E).shape == (E, BIG2)
    shifted = verschiebung(2, frobenius(2, a), BIG2)
    assert shifted.shape == (BIG2, BIG2) and shifted.comps[1] == WittVec.zero(BIG2, ZZ)


class TestSeriesModel:
    def test_teichmuller_series(self):
        t = teichmuller(var("a"), TruncationSet.big(3))
        f = to_series(t)
        assert f == TruncSeries(ZZ, [MultiPoly.one(ZZ), -var("a"), MultiPoly.zero(ZZ), MultiPoly.zero(ZZ)])

    def test_from_series_product_of_factors(self):
        a, b = var("a"), var("b")
        f = TruncSeries(ZZ, [MultiPoly.one(ZZ), -(a + b), a * b])
        assert from_series(f, 2).as_list() == [a + b, -(a * b)]

    def test_zero_maps_to_one(self):
        z = WittVec.zero(TruncationSet.big(3), ZZ)
        assert to_series(z) == TruncSeries.one(ZZ, 3)

    def test_roundtrip_precision_four(self):
        S = TruncationSet.big(4)
        a = sym(S)
        assert from_series(to_series(a), 4) == a

    def test_addition_is_series_multiplication(self):
        S = TruncationSet.big(4)
        a, b = sym(S, "a"), sym(S, "b")
        assert to_series(a + b) == to_series(a) * to_series(b)

    def test_log_derivative_reads_ghosts(self):
        S = TruncationSet.big(4)
        a = sym(S)
        g = ghost_map(a)
        logd = log_derivative(to_series(a))
        expected = TruncSeries(ZZ, [MultiPoly.zero(ZZ)] + [g.comps[n] for n in S])
        assert logd == expected


class TestComonad:
    def test_counit_of_teichmuller(self):
        assert counit(teichmuller(var("a"), TruncationSet.big(3))) == var("a")

    def test_comult_of_teichmuller_is_nested_teichmuller(self):
        S = T = BIG2
        t = teichmuller(var("a"), S.product(T))
        d = comult(t, S, T)
        assert d.comps[1] == teichmuller(var("a"), T)
        assert d.comps[2] == WittVec.zero(T, ZZ)

    def test_counit_laws(self):
        S = T = BIG2
        a = sym(S.product(T))
        d = comult(a, S, T)
        assert counit(d) == restrict(a, T)
        inner = WittVec(S, ZZ, {s: counit(d.comps[s]) for s in S})
        assert inner == restrict(a, S)

    def test_ghost_characterization(self):
        S = T = BIG2
        a = sym(S.product(T))
        d = comult(a, S, T)
        assert d.comps[1] == restrict(frobenius(1, a), T)
        two = witt_int(2, T, ZZ)
        w2 = d.comps[1] * d.comps[1] + two * d.comps[2]
        assert w2 == restrict(frobenius(2, a), T)

    def test_coassociativity(self):
        S = T = V = BIG2
        a = sym(TruncationSet((1, 2, 4, 8)))
        route1 = comult(comult(a, S.product(T), V), S, T)
        mid = comult(a, S, T.product(V))
        route2 = WittVec(S, ZZ, {s: comult(mid.comps[s], T, V) for s in S})
        assert route1 == route2

    def test_comult_is_ring_map(self):
        # nested components: W_S(W_T) arithmetic runs in nested ghost coordinates
        S = T = BIG2
        a, b = sym(S.product(T), "a"), sym(S.product(T), "b")
        da, db = comult(a, S, T), comult(b, S, T)
        assert comult(a + b, S, T) == da + db
        assert comult(a * b, S, T) == da * db
        assert comult(-a, S, T) == -da
        assert frobenius(2, da).comps[1] == restrict(frobenius(2, a), T)
        with pytest.raises(UsageError):
            ghost_map(da)

    def test_requires_product_truncation(self):
        with pytest.raises(TruncationMismatch):
            comult(sym(TruncationSet.big(3)), BIG2, BIG2)


class TestW2Pullback:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_symbolic_congruence(self, p):
        wit = w2_congruence_witness(p)
        assert wit["vanishes_mod_p"]

    def test_box_bijection(self):
        report = w2_pullback_check(2, 5)
        assert report["status"] == "pass"
        assert report["points_in_fibered_product"] + report["points_rejected"] == 11 * 11

    def test_inverse_formula_example(self):
        g = GhostVec(P22, ZZ, {1: MultiPoly.const(ZZ, 3), 2: MultiPoly.const(ZZ, 1)})
        assert ghost_inverse(g) == WittVec.from_list(P22, ZZ, [3, -4])

    def test_noncongruent_pair_rejected(self):
        g = GhostVec(P22, ZZ, {1: MultiPoly.const(ZZ, 0), 2: MultiPoly.const(ZZ, 1)})
        with pytest.raises(NotDivisible):
            ghost_inverse(g)

    def test_symbolic_ring_mode(self):
        report = w2_pullback_check(3, 0, gens=("u",))
        assert report["status"] == "pass"
        # no integer box is checked, so none is reported
        assert "bound" not in report

    @pytest.mark.parametrize("gens", [(), ("u",)])
    def test_negative_bound_refused(self, gens):
        # range(-bound, bound + 1) would be an empty box that passes
        with pytest.raises(UsageError, match="bound >= 0"):
            w2_pullback_check(2, -3, gens)


def test_naturality_under_substitution():
    rng = random.Random(5)
    S = TruncationSet.big(4)
    for _ in range(10):
        comps = {n: random_poly(rng, ZZ, ("s", "t"), 3, 2, 5) for n in S}
        vec = WittVec(S, ZZ, comps)
        image = {"s": random_poly(rng, ZZ, ("s", "t"), 2, 2, 3)}
        mapped = WittVec(S, ZZ, {n: comps[n].substitute(image) for n in S})
        lhs = ghost_map(mapped)
        rhs = GhostVec(S, ZZ, {n: ghost_map(vec).comps[n].substitute(image) for n in S})
        assert lhs == rhs


def test_wittvec_json_roundtrip():
    a = sym(TruncationSet.p_typical(2, 3))
    blob = json.dumps(a.to_json(), sort_keys=True)
    again = WittVec.from_json(json.loads(blob))
    assert again == a
    assert json.dumps(again.to_json(), sort_keys=True) == blob


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(tmp_path))
    clear_memo()
    first = structure_poly_map("mul", TruncationSet.big(3))
    files = list(tmp_path.iterdir())
    assert any("structure_mul" in f.name for f in files)
    clear_memo()
    second = structure_poly_map("mul", TruncationSet.big(3))
    assert first == second
    clear_memo()


def _poly_map_to_json(polys: dict) -> dict:
    """The oracle of the cache file layout: a dict tree, one dict a term,
    each key its indices joined with commas."""
    return {",".join(str(i) for i in (k if isinstance(k, tuple) else (k,))): p.to_json() for k, p in polys.items()}


CACHE_FILES = [
    ("structure_add_big4.json", lambda: structure_poly_map("add", TruncationSet.big(4))),
    ("structure_mul_big4.json", lambda: structure_poly_map("mul", TruncationSet.big(4))),
    ("structure_neg_big4.json", lambda: structure_poly_map("neg", TruncationSet.big(4))),
    ("structure_add_p2l3.json", lambda: structure_poly_map("add", TruncationSet.p_typical(2, 3))),
    ("structure_mul_p2l3.json", lambda: structure_poly_map("mul", TruncationSet.p_typical(2, 3))),
    ("structure_neg_p2l3.json", lambda: structure_poly_map("neg", TruncationSet.p_typical(2, 3))),
    ("frobenius_2_p2l4.json", lambda: frobenius_poly_map(2, TruncationSet.p_typical(2, 4))),
    ("comult_big2_big3.json", lambda: comult_poly_map(TruncationSet.big(2), TruncationSet.big(3))),
]


@pytest.mark.parametrize("name, make", CACHE_FILES, ids=[name for name, _ in CACHE_FILES])
def test_cache_file_is_the_json_of_the_dict_tree(tmp_path, monkeypatch, name, make):
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(tmp_path))
    clear_memo()
    polys = make()
    assert [f.name for f in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_text() == json.dumps({"polys": _poly_map_to_json(polys)}, sort_keys=True)
    clear_memo()


def test_a_write_that_fails_partway_leaves_no_file(tmp_path, monkeypatch):
    # the second polynomial's text fails as a full disk would: the first is
    # already in the temporary file, which is removed with nothing renamed
    text = cache._json_text
    written = []

    def failing(p):
        if written:
            raise OSError(28, "No space left on device")
        written.append(p)
        return text(p)

    monkeypatch.setattr(cache, "_json_text", failing)
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(tmp_path))
    clear_memo()
    polys = structure_poly_map("mul", TruncationSet.big(3))
    assert len(written) == 1
    assert list(tmp_path.iterdir()) == []
    assert structure_poly_map("mul", TruncationSet.big(3)) is polys
    monkeypatch.setattr(cache, "_json_text", text)
    clear_memo()
    assert structure_poly_map("mul", TruncationSet.big(3)) == polys
    assert [f.name for f in tmp_path.iterdir()] == ["structure_mul_big3.json"]
    clear_memo()


def test_cache_write_adds_little_to_the_peak(tmp_path, monkeypatch):
    # the file is written one polynomial at a time, so the write's working
    # set stays small next to the generation's: a dict tree of the whole
    # map, or one string of the whole file, would peak at 1.6-2.5 times
    import tracemalloc

    S = TruncationSet.p_typical(2, 6)

    def peak():
        clear_memo()
        tracemalloc.start()
        try:
            structure_poly_map("add", S)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            clear_memo()

    monkeypatch.delenv("LAMBDA_FORGE_CACHE_DIR", raising=False)
    without = peak()
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(tmp_path))
    with_cache = peak()
    assert (tmp_path / "structure_add_p2l6.json").exists()
    assert with_cache <= 1.25 * without


def test_memo_used_without_cache_dir(monkeypatch):
    monkeypatch.delenv("LAMBDA_FORGE_CACHE_DIR", raising=False)
    clear_memo()
    a = structure_poly_map("add", TruncationSet.big(2))
    b = structure_poly_map("add", TruncationSet.big(2))
    assert a is b


def test_memo_concurrent_reads_single_insert(monkeypatch):
    # duplicate computation is permitted but every caller must see one entry
    import threading

    monkeypatch.delenv("LAMBDA_FORGE_CACHE_DIR", raising=False)
    clear_memo()
    S = TruncationSet.big(5)
    results = []

    def worker():
        results.append(structure_poly_map("mul", S))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)


def test_ghostvec_json_roundtrip():
    g = ghost_map(sym(TruncationSet.big(3)))
    assert GhostVec.from_json(json.loads(json.dumps(g.to_json()))) == g


@pytest.mark.parametrize("cls", [WittVec, GhostVec])
def test_vector_json_with_mixed_component_rings_is_refused(cls):
    # component 1 over Z, component 2 over Z/4: no one ring holds both
    comps = {"1": MultiPoly.const(ZZ, 1).to_json(), "2": MultiPoly.const(CoeffRing.modular(4), 3).to_json()}
    payload = {"trunc": TruncationSet.big(2).to_json(), "comps": comps}
    with pytest.raises(MixedCoefficientRings):
        cls.from_json(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("cls", [WittVec, GhostVec])
def test_vector_container_checks_its_components(cls):
    v = cls(BIG2, ZZ, {1: 3, 2: 5})
    assert [(c.ring, c.constant_value()) for c in v.as_list()] == [(ZZ, 3), (ZZ, 5)]
    with pytest.raises(MixedCoefficientRings):
        cls(BIG2, ZZ, {1: MultiPoly.const(QQ, Fraction(1, 2)), 2: MultiPoly.const(QQ, 3)})
    with pytest.raises(TruncationMismatch) as exc:
        cls(BIG2, ZZ, {1: 3})
    assert str(exc.value) == "components [1] do not match truncation [1, 2]"
    # a Witt vector may have Witt-vector components, a ghost vector may not
    w = WittVec(BIG2, ZZ, {1: 3, 2: 5})
    if cls is WittVec:
        assert cls(BIG2, ZZ, {1: w, 2: w}).shape == (BIG2, BIG2)
    else:
        with pytest.raises(UsageError, match="not Witt vectors"):
            cls(BIG2, ZZ, {1: w, 2: w})
    other = GhostVec if cls is WittVec else WittVec
    assert v == cls(BIG2, ZZ, {1: 3, 2: 5})
    assert v != cls(BIG2, QQ, {1: 3, 2: 5}) and v != other(BIG2, ZZ, {1: 3, 2: 5})
    # with no components only the ring tells the two apart
    assert cls(TruncationSet.big(0), ZZ, {}) != cls(TruncationSet.big(0), QQ, {})
    for w in (v, cls(BIG2, QQ, {1: Fraction(1, 2), 2: 3}), cls(TruncationSet.big(0), ZZ, {})):
        assert cls.from_json(json.loads(json.dumps(w.to_json()))) == w


def test_ghost_is_ring_map_on_random_integer_vectors():
    rng = random.Random(17)
    S = TruncationSet.big(6)
    for _ in range(40):
        a = WittVec.from_list(S, ZZ, [rng.randint(-9, 9) for _ in S])
        b = WittVec.from_list(S, ZZ, [rng.randint(-9, 9) for _ in S])
        ga, gb = ghost_map(a), ghost_map(b)
        gsum = ghost_map(a + b)
        gprod = ghost_map(a * b)
        for n in S:
            assert gsum.comps[n] == ga.comps[n] + gb.comps[n]
            assert gprod.comps[n] == ga.comps[n] * gb.comps[n]


def test_structure_polys_scale_smoke():
    # the sparse kernel must survive the combinatorial growth of deep sets
    polys = structure_poly_map("add", TruncationSet.p_typical(2, 5))
    assert max(len(p.terms) for p in polys.values()) > 300
    polys = structure_poly_map("mul", TruncationSet.big(12))
    assert len(polys) == 12


# ---------------------------------------------------------------------------
# the ghost route compared with the universal polynomials

RINGS = [ZZ, CoeffRing.modular(4), CoeffRing.modular(9), QQ, CoeffRing.localized(3)]
DIFF_TRUNCS = [
    TruncationSet.p_typical(2, 3),
    TruncationSet.p_typical(3, 3),
    TruncationSet.big(6),
    TruncationSet((1, 2, 3, 6)),
]
DIFF_SETTINGS = settings(max_examples=60, deadline=None)


def _scalars(ring):
    if ring.kind in ("Q", "Z_("):
        # denominators stay units in Z_(3)
        return st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 4, 5)))
    return st.integers(-6, 6)


@st.composite
def witt_inputs(draw, truncs, count, rings=RINGS):
    """(ring, S, vectors): components all constant, or all linear in s."""
    ring = draw(st.sampled_from(rings))
    S = draw(st.sampled_from(truncs))
    linear = draw(st.booleans())
    s = MultiPoly.var(ring, "s")

    def comp():
        c = MultiPoly.const(ring, draw(_scalars(ring)))
        return c + s * draw(_scalars(ring)) if linear else c

    return ring, S, [WittVec(S, ring, {n: comp() for n in S}) for _ in range(count)]


def _substituted(polys, ring, vecs):
    """The oracle: universal polynomials over Z, reduced into ``ring`` and
    evaluated at the components (a_n from the first vector, b_n from the second)."""
    env = {f"{prefix}{n}": c for prefix, v in zip("ab", vecs) for n, c in v.comps.items()}
    return {k: p.convert_ring(ring).substitute(env) for k, p in polys.items()}


@DIFF_SETTINGS
@given(witt_inputs(DIFF_TRUNCS, 2), st.sampled_from(["add", "mul", "neg"]))
def test_ring_ops_match_universal_polynomials(inputs, op):
    ring, S, (a, b) = inputs
    got = {"add": lambda: a + b, "mul": lambda: a * b, "neg": lambda: -a}[op]()
    assert got.comps == _substituted(structure_poly_map(op, S), ring, [a, b])


@DIFF_SETTINGS
@given(witt_inputs(DIFF_TRUNCS, 1), st.sampled_from([2, 3]))
def test_frobenius_matches_universal_polynomials(inputs, n):
    ring, S, (a,) = inputs
    assert frobenius(n, a).comps == _substituted(frobenius_poly_map(n, S), ring, [a])


@DIFF_SETTINGS
@given(witt_inputs([BIG2.product(BIG2)], 1))
def test_comult_matches_universal_polynomials(inputs):
    ring, _, (a,) = inputs
    d = comult(a, BIG2, BIG2)
    got = {(s, t): d.comps[s].comps[t] for s in BIG2 for t in BIG2}
    assert got == _substituted(comult_poly_map(BIG2, BIG2), ring, [a])


@DIFF_SETTINGS
@given(witt_inputs([TruncationSet.big(N) for N in range(9)], 1, rings=[ZZ, CoeffRing.modular(4), QQ]))
def test_series_model_matches_the_product_of_one_factor_series(inputs):
    ring, S, (a,) = inputs
    N = len(S)
    one, zero = MultiPoly.one(ring), MultiPoly.zero(ring)
    product = TruncSeries.one(ring, N)
    for n in S:
        factor = [one] + [zero] * N
        factor[n] = -a.comps[n]
        product = product * TruncSeries(ring, factor)
    assert to_series(a) == product
    assert from_series(to_series(a), N) == a


def test_numeric_arithmetic_generates_no_polynomials():
    ring = CoeffRing.modular(8)
    S = TruncationSet.p_typical(2, 5)
    a = WittVec.from_list(S, ring, [1, 2, 3, 4, 5])
    b = WittVec.from_list(S, ring, [7, 6, 5, 4, 3])
    clear_memo()
    a + b
    assert witt._MEMO == {}


def _repeated_product(a, n):
    """The oracle for a ** n: n - 1 Witt multiplications, the unit for n = 0."""
    if n == 0:
        return teichmuller(MultiPoly.one(a.ring), a.trunc, a.ring)
    out = a
    for _ in range(n - 1):
        out = out * a
    return out


@DIFF_SETTINGS
@given(witt_inputs(DIFF_TRUNCS[:3], 1), st.integers(0, 5))
def test_power_matches_repeated_product(inputs, n):
    _, _, (a,) = inputs
    assert a ** n == _repeated_product(a, n)


@pytest.mark.parametrize(
    "ring, S", [(CoeffRing.modular(8), TruncationSet.p_typical(2, 5)), (CoeffRing.modular(9), TruncationSet.big(6))]
)
def test_large_power_over_z_mod_m(ring, S):
    a = WittVec.from_list(S, ring, range(3, 3 + len(S)))
    assert a ** 300 == _repeated_product(a, 300)


# ---------------------------------------------------------------------------
# nested vectors W_S(W_T(A)) against the universal polynomials evaluated in W_T(A)

NESTED_RINGS = [ZZ, CoeffRing.modular(4), QQ]
NESTED_TRUNCS = [BIG2, P22, TruncationSet.big(3)]
NESTED_SETTINGS = settings(max_examples=30, deadline=None)


def _int_times(c, value, zero):
    """c * value by doubling and addition: the target ring needs no scalars."""
    acc, base, k = zero, value, abs(c)
    while k:
        if k & 1:
            acc = acc + base
        k >>= 1
        if k:
            base = base + base
    return -acc if c < 0 else acc


def _evaluated(polys, vecs):
    """The oracle: integer universal polynomials evaluated at Witt-vector-valued
    components (a_n from the first vector, b_n from the second), with +, * and
    powers of W_T(A) as the only operations."""
    env = {f"{prefix}{n}": c for prefix, v in zip("ab", vecs) for n, c in v.comps.items()}
    ring = vecs[0].ring
    inner = next(iter(vecs[0].comps.values())).trunc
    zero, one = WittVec.zero(inner, ring), teichmuller(MultiPoly.one(ring), inner, ring)
    out = {}
    for k, p in polys.items():
        total = zero
        for exps, c in p.terms.items():
            acc = one
            for v, e in zip(p.vars, exps):
                if e:
                    acc = acc * env[v] ** e
            total = total + _int_times(int(c), acc, zero)
        out[k] = total
    return out


@st.composite
def nested_inputs(draw, outer, count):
    """(ring, S, vectors in W_S(W_T(ring))): leaves all constant or all linear in s."""
    ring = draw(st.sampled_from(NESTED_RINGS))
    S = draw(st.sampled_from(outer))
    T = draw(st.sampled_from(NESTED_TRUNCS))
    linear = draw(st.booleans())
    s = MultiPoly.var(ring, "s")

    def comp():
        c = MultiPoly.const(ring, draw(_scalars(ring)))
        return c + s * draw(_scalars(ring)) if linear else c

    return ring, S, [WittVec(S, ring, {n: WittVec(T, ring, {t: comp() for t in T}) for n in S}) for _ in range(count)]


@NESTED_SETTINGS
@given(nested_inputs(NESTED_TRUNCS, 2), st.sampled_from(["add", "mul", "neg"]))
def test_nested_ring_ops_match_universal_polynomials(inputs, op):
    _, S, (a, b) = inputs
    got = {"add": lambda: a + b, "mul": lambda: a * b, "neg": lambda: -a}[op]()
    assert got.comps == _evaluated(structure_poly_map(op, S), [a, b])


@NESTED_SETTINGS
@given(nested_inputs(NESTED_TRUNCS, 1), st.sampled_from([2, 3]))
def test_nested_frobenius_matches_universal_polynomials(inputs, n):
    _, S, (a,) = inputs
    assert frobenius(n, a).comps == _evaluated(frobenius_poly_map(n, S), [a])


@NESTED_SETTINGS
@given(st.sampled_from([(BIG2, BIG2), (BIG2, P22), (P22, P22)]), st.data())
def test_nested_comult_matches_universal_polynomials(outer, data):
    S, T = outer
    _, _, (a,) = data.draw(nested_inputs([S.product(T)], 1))
    d = comult(a, S, T)
    got = {(s, t): d.comps[s].comps[t] for s in S for t in T}
    assert got == _evaluated(comult_poly_map(S, T), [a])


@NESTED_SETTINGS
@given(st.sampled_from([TruncationSet.big(4), TruncationSet.p_typical(2, 3)]), st.sampled_from([2, 3]), st.data())
def test_nested_verschiebung_laws(S, n, data):
    # V_n fills the indices it skips with zero vectors of the inner shape:
    # F_n V_n is multiplication by n, and V_n is additive
    _, _, (a, b) = data.draw(nested_inputs([S.divide(n)], 2))
    n_fold = a
    for _ in range(n - 1):
        n_fold = n_fold + a
    assert frobenius(n, verschiebung(n, a, S)) == n_fold
    assert verschiebung(n, a + b, S) == verschiebung(n, a, S) + verschiebung(n, b, S)


def test_nested_arithmetic_generates_no_polynomials():
    ring = CoeffRing.modular(4)
    U = BIG2.product(BIG2)
    a = comult(WittVec.from_list(U, ring, [1, 2, 3]), BIG2, BIG2)
    b = comult(WittVec.from_list(U, ring, [3, 0, 1]), BIG2, BIG2)
    c = WittVec(U, ring, {n: WittVec.from_list(BIG2, ring, [n, 1]) for n in U})
    clear_memo()
    a + b, a * b, -a, frobenius(2, a), comult(c, BIG2, BIG2)
    assert witt._MEMO == {}


@pytest.mark.parametrize("ring", [ZZ, CoeffRing.modular(4)])
def test_nested_powers(ring):
    a = comult(WittVec.from_list(BIG2.product(BIG2), ring, [1, 2, 3]), BIG2, BIG2)
    one = WittVec(BIG2, ring, {1: teichmuller(MultiPoly.one(ring), BIG2, ring), 2: WittVec.zero(BIG2, ring)})
    assert a ** 0 == one
    assert one * a == a
    assert a ** 2 == a * a
    assert a ** 3 == a * a * a
    assert a ** 40 == _repeated_product(a, 40)


def test_nested_inner_truncations_must_match():
    a = WittVec(BIG2, ZZ, {n: sym(BIG2) for n in BIG2})
    b = WittVec(BIG2, ZZ, {n: sym(TruncationSet.big(3)) for n in BIG2})
    with pytest.raises(TruncationMismatch):
        a + b
    with pytest.raises(TruncationMismatch):
        a * sym(BIG2)
    with pytest.raises(TruncationMismatch):
        WittVec(BIG2, ZZ, {1: sym(BIG2), 2: sym(TruncationSet.big(3))})


# ---------------------------------------------------------------------------
# subtraction is one ghost-route pass, compared with negation then addition

SUB_RINGS = [ZZ, CoeffRing.modular(8), QQ]
SUB_TRUNCS = [TruncationSet.p_typical(2, 3), TruncationSet.big(4)]


def _layout(vec):
    """Each component's variables and ordered terms, nested as the vector is."""
    if len(vec.shape) > 1:
        return [_layout(c) for c in vec.as_list()]
    return [(c.vars, list(c.terms.items())) for c in vec.as_list()]


@st.composite
def sub_inputs(draw):
    """(ring, a, b): components constant, or polynomials in s and t."""
    ring = draw(st.sampled_from(SUB_RINGS))
    S = draw(st.sampled_from(SUB_TRUNCS))
    names = draw(st.sampled_from([(), ("s",), ("s", "t")]))

    def comp():
        out = MultiPoly.const(ring, draw(_scalars(ring)))
        for name in names:
            out = out + MultiPoly.var(ring, name) ** draw(st.integers(1, 2)) * draw(_scalars(ring))
        return out

    return ring, WittVec(S, ring, {n: comp() for n in S}), WittVec(S, ring, {n: comp() for n in S})


@DIFF_SETTINGS
@given(sub_inputs())
def test_subtraction_matches_negate_then_add(inputs):
    ring, a, b = inputs
    assert _layout(a - b) == _layout(a + (-b))
    assert _layout(b - a) == _layout(b + (-a))
    assert _layout(a - a) == _layout(a + (-a)) == _layout(WittVec.zero(a.trunc, ring))


def test_nested_subtraction_matches_negate_then_add():
    def nested(prefix):
        return WittVec(BIG2, ZZ, {n: WittVec(BIG2, ZZ, {t: var(f"{prefix}{n}{t}") + t for t in BIG2}) for n in BIG2})

    a, b = nested("a"), nested("b")
    assert _layout(a - b) == _layout(a + (-b))
    assert _layout(a - a) == _layout(WittVec(BIG2, ZZ, {n: WittVec.zero(BIG2, ZZ) for n in BIG2}))


# ---------------------------------------------------------------------------
# the ghost route on packed term maps; oracle: ``ghost`` and ``ghost_inverse``
# of ``bench/oracles.py`` on ``reference.Poly``


def _keys(shape):
    """The keys of ghost coordinates of ``shape``: n, or (s, k) nested."""
    return list(shape[0]) if len(shape) == 1 else [(s, k) for s in shape[0] for k in _keys(shape[1:])]


def _scaled(k, n):
    return k * n if isinstance(k, int) else (k[0] * n, k[1])


def _leaf(c, ring):
    """A component, a ``MultiPoly`` or a number, as a ``reference.Poly`` over ``ring``."""
    return R.Poly(ring, R.plain(c).terms if isinstance(c, MultiPoly) else {(): c})


def reference_coords(v, ring):
    """The ghost coordinates of ``v`` by the oracle, its leaves read over
    ``ring`` (a ``reference`` ring), keyed as ``_keys`` keys them."""
    S = list(v.trunc)
    if len(v.shape) == 1:
        return O.ghost(S, {n: _leaf(c, ring) for n, c in v.comps.items()})
    inner = {s: reference_coords(c, ring) for s, c in v.comps.items()}
    out = {}
    for k in next(iter(inner.values())):
        out.update({(s, k): w for s, w in O.ghost(S, {d: inner[d][k] for d in S}).items()})
    return out


def reference_solve(w, shape, out_ring):
    """The ``_layout`` of the vector of ``shape`` whose ghost coordinates are
    ``w``, by the oracle's inverse in the ring of ``w``, reduced into ``out_ring``."""
    S, rest = list(shape[0]), shape[1:]
    if not rest:
        comps = O.ghost_inverse(S, w)
        return [R.Poly(out_ring, comps[n].terms).canonical() for n in S]
    keys = _keys(rest)
    cols = {k: O.ghost_inverse(S, {s: w[(s, k)] for s in S}) for k in keys}
    return [reference_solve({k: cols[k][s] for k in keys}, rest, out_ring) for s in S]


def reference_op(op, vecs, n=None):
    """``shape_and_layout`` of ``op`` on ``vecs`` by the oracle's ghost route,
    over Z on lifts for Z/m: add, sub, mul, neg, pow (``n``-th power),
    frobenius (F_n) or comult (W_{S*T} -> W_S(W_T), n = (S, T))."""
    a = vecs[0]
    ring = R.ring_of(a.ring)
    lift = R.Z if ring[0] == "Z/" else ring
    g = [reference_coords(v, lift) for v in vecs]
    inner = (n[1],) + a.shape[1:] if op == "comult" else a.shape[1:]
    shape = tuple(map(list, a.shape))
    if op in ("add", "sub", "mul"):
        f = getattr(operator, op)
        w = {k: f(g[0][k], g[1][k]) for k in g[0]}
    elif op in ("neg", "pow"):
        w = {k: -x if op == "neg" else x ** n for k, x in g[0].items()}
    elif op == "frobenius":
        shape = (O.divide(shape[0], n),) + shape[1:]
        w = {k: g[0][_scaled(k, n)] for k in _keys(shape)}
    else:
        shape = tuple(map(list, n)) + shape[1:]
        w = {(s, k): g[0][_scaled(k, s)] for s, k in _keys(shape)}
    return (shape[0], inner), reference_solve(w, shape, ring)


def reference_unghost(comps, S, ring):
    """``_result`` of ``ghost_inverse`` on ghost components ``comps`` over
    ``ring``, by the oracle."""
    pair = R.ring_of(ring)
    try:
        return reference_solve({n: _leaf(c, pair) for n, c in comps.items()}, (list(S),), pair)
    except R.NotDivisible as exc:
        n = exc.divisor
        return NotDivisible, n, f"component a_{n} is not in the coefficient ring: not divisible, witness: {exc.witness}"


def _result(f):
    """The layout of the vector ``f()`` gives, or the type, witness and message
    of the error it raises."""
    try:
        return _layout(f())
    except ForgeError as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)


def shape_and_layout(v):
    """((outer truncation set, inner shape), ``_layout``); a vector with no
    components keeps its inner shape too."""
    return (list(v.trunc), v.shape[1:]), _layout(v)


def _ghost_layout(comps):
    return [(n, p.vars, list(p.terms.items())) for n, p in comps.items()]


def reference_ghost_layout(v):
    """``_ghost_layout`` of ``ghost_map(v).comps`` by the oracle."""
    return [(n, *w.canonical()) for n, w in reference_coords(v, R.ring_of(v.ring)).items()]


def new_op(op, vecs, n=None):
    a = vecs[0]
    if op in ("add", "sub", "mul"):
        return getattr(operator, op)(a, vecs[1])
    return {"neg": lambda: -a, "pow": lambda: a ** n, "frobenius": lambda: frobenius(n, a)}[op]()


ORACLE_RINGS = [ZZ, CoeffRing.modular(4), QQ]
# exponents on both sides of the 1-, 2- and 8-byte field boundaries, before
# and after the route's scale multiplies them
BOUNDARY_EXPS = [1, 2, 127, 128, 255, 256, 32767, 32768, 65535, 65536, 2**63, 2**64 - 1, 2**64]
ORACLE_SHAPES = [(P22,), (TruncationSet.big(3),), (TruncationSet.p_typical(3, 2),), (BIG2, BIG2), (P22, BIG2)]
ORACLE_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def oracle_vectors(draw, shape, count):
    """(ring, vectors of ``shape``): leaves c + c1 * s^e1 (+ c2 * t^e2), each
    exponent the drawn boundary value ``top`` or one below it, or 1."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    names = draw(st.sampled_from([("s",), ("s", "t")]))
    top = draw(st.sampled_from(BOUNDARY_EXPS))
    exps = st.sampled_from(sorted({1, top - 1, top}))

    def leaf():
        out = MultiPoly.const(ring, draw(_scalars(ring)))
        for name in names:
            out = out + MultiPoly.var(ring, name) ** draw(exps) * draw(_scalars(ring))
        return out

    def vec(shape):
        return WittVec(shape[0], ring, {n: vec(shape[1:]) if len(shape) > 1 else leaf() for n in shape[0]})

    return ring, [vec(shape) for _ in range(count)]


@ORACLE_SETTINGS
@given(st.sampled_from(ORACLE_SHAPES).flatmap(lambda shape: oracle_vectors(shape, 2)), st.data())
def test_packed_route_matches_the_polynomial_route(inputs, data):
    _, vecs = inputs
    op = data.draw(st.sampled_from(["add", "sub", "mul", "neg", "pow", "frobenius"]))
    n = data.draw(st.sampled_from([0, 1, 2, 3] if op == "pow" else [2, 3]))
    got = new_op(op, vecs, n)
    assert got.ring == vecs[0].ring
    assert shape_and_layout(got) == reference_op(op, vecs, n)


def _boundary_vector(shape, top, shift):
    """Leaves c - c * s^top + (c + 1) * t^(top - 1), with c = shift, shift + 1, ..."""
    s, t = var("s"), var("t")
    counter = iter(range(shift, shift + 100))

    def leaf(c):
        return s ** top * -c + t ** (top - 1) * (c + 1) + c

    def vec(shape):
        if len(shape) == 1:
            return WittVec(shape[0], ZZ, {n: leaf(next(counter)) for n in shape[0]})
        return WittVec(shape[0], ZZ, {n: vec(shape[1:]) for n in shape[0]})

    return vec(shape)


@pytest.mark.parametrize("top", BOUNDARY_EXPS)
@pytest.mark.parametrize(
    "op, n", [("add", None), ("sub", None), ("mul", None), ("neg", None), ("pow", 2), ("pow", 3), ("frobenius", 2)]
)
def test_packed_route_at_field_boundaries(op, n, top):
    # every exponent near a field boundary, so a field one step too narrow
    # for the combine's degree carries into the next field or out of the key
    for shape in ORACLE_SHAPES:
        vecs = [_boundary_vector(shape, top, 1), _boundary_vector(shape, top, 2)]
        assert shape_and_layout(new_op(op, vecs, n)) == reference_op(op, vecs, n)


@ORACLE_SETTINGS
@given(st.sampled_from([(BIG2, BIG2, ()), (P22, BIG2, ()), (BIG2, BIG2, (BIG2,))]), st.data())
def test_packed_comult_matches_the_polynomial_route(outer, data):
    S, T, rest = outer
    _, (a,) = data.draw(oracle_vectors((S.product(T),) + rest, 1))
    got = comult(a, S, T)
    assert got.shape == (S, T) + rest
    assert shape_and_layout(got) == reference_op("comult", [a], (S, T))


def test_an_empty_nested_vector_keeps_its_inner_shape():
    a = WittVec(BIG2, ZZ, {n: WittVec.zero(BIG2, ZZ) for n in BIG2})
    empty = frobenius(3, a)
    assert empty.shape == (TruncationSet(()), BIG2)
    # as every nested vector, it adds to its own shape alone and has no JSON form
    assert (empty + empty).shape == empty.shape
    with pytest.raises(TruncationMismatch):
        empty + WittVec(TruncationSet(()), ZZ, {})
    with pytest.raises(UsageError, match="no JSON form"):
        empty.to_json()


@ORACLE_SETTINGS
@given(st.sampled_from(ORACLE_SHAPES[:3]).flatmap(lambda shape: oracle_vectors(shape, 1)))
def test_packed_ghost_map_and_inverse_match_the_polynomial_route(inputs):
    ring, (a,) = inputs
    got = ghost_map(a).comps
    assert _ghost_layout(got) == reference_ghost_layout(a)
    if ring.kind != "Z/":
        assert ghost_inverse(GhostVec(a.trunc, ring, got)) == a
    # a's ghost coordinates, and its components read as ghost coordinates:
    # over Z/4 an inverse only where no division by 2 meets a nonzero term
    for comps in (got, a.comps):
        g = GhostVec(a.trunc, ring, comps)
        assert _result(lambda: ghost_inverse(g)) == reference_unghost(comps, a.trunc, ring)


def test_packed_ghost_inverse_over_z_mod_4_drops_terms_that_vanish_mod_4():
    # on the way to a_6 a coefficient sums to 4, which must vanish before the
    # division by 6, a non-unit in Z/4, as it does in the canonical form
    Z4 = CoeffRing.modular(4)
    s = MultiPoly.var(Z4, "s")
    g = ghost_map(WittVec.from_list(TruncationSet.big(6), Z4, [s * 2 + 3, 0, s * 2 + 1, 0, s + 2, 0]))
    got = _result(lambda: ghost_inverse(g))
    assert got == reference_unghost(g.comps, g.trunc, Z4)
    assert not isinstance(got, tuple)


@pytest.mark.parametrize("S", [TruncationSet.p_typical(2, 4), TruncationSet.big(5), TruncationSet.p_typical(3, 3)])
def test_universal_polynomials_match_the_polynomial_route(S):
    def layout(polys):
        return [(k, p.vars, list(p.terms.items())) for k, p in polys.items()]

    def keyed(op, vecs, n=None):
        (outer, inner), rows = reference_op(op, vecs, n)
        if op == "comult":
            return [((s, t), *row) for s, cols in zip(outer, rows) for t, row in zip(inner[0], cols)]
        return [(k, *row) for k, row in zip(outer, rows)]

    a, b = sym(S, "a"), sym(S, "b")
    for op in ("add", "mul", "neg"):
        assert layout(structure_poly_map(op, S)) == keyed(op, [a, b])
    assert layout(frobenius_poly_map(2, S)) == keyed("frobenius", [a], 2)
    assert layout(comult_poly_map(S, BIG2)) == keyed("comult", [sym(S.product(BIG2))], (S, BIG2))


def test_failed_division_in_arithmetic_is_integrality_violation():
    # w_2 + w_1 + w_1^3 makes a_2 = a2 + (a1^3 + a1)/2: packed, the term a1
    # comes first, but the certificate is a1^3, the first term in grlex order
    def combine(ga):
        return {1: ga[1], 2: ga[2] + ga[1] + ga[1] ** 3}

    with pytest.raises(IntegralityViolation) as got:
        witt._ghost_route([sym(P22)], (P22,), combine, 3)
    with pytest.raises(R.NotDivisible) as want:
        reference_solve(combine(reference_coords(sym(P22), R.Z)), (list(P22),), R.Z)
    n, witness = want.value.divisor, want.value.witness
    message = f"index {n}: component a_{n} is not in the coefficient ring: not divisible, witness: {witness}"
    assert (got.value.index, str(got.value)) == (n, message)
    assert str(got.value).endswith("witness: a1^3")


def test_ghost_route_builds_polynomials_only_for_inputs_and_answers(monkeypatch, tmp_path):
    # a MultiPoly per input variable and per answer, and on a load from the
    # disk cache a constant per component and answer of the check's point
    built = []
    init = MultiPoly.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(MultiPoly, "__init__", counting_init)
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(tmp_path))
    B3 = TruncationSet.big(3)
    cases = [(lambda: structure_poly_map("mul", TruncationSet.big(8)), 16, 8), (lambda: comult_poly_map(B3, B3), 6, 9)]
    for make, inputs, answers in cases:
        clear_memo()
        built.clear()
        make()
        assert len(built) <= inputs + answers
        clear_memo()
        built.clear()
        make()
        assert len(built) <= answers + inputs + answers
    clear_memo()


def test_ghost_route_forms_each_power_of_a_component_once(monkeypatch):
    # mul on big:12 runs the ghost map on a and on b, one product a
    # coordinate and the inverse; in each map the powers x_d^j, 2 <= j <= 12/d,
    # are formed at most once each, one square or product apiece, so no
    # product is formed twice
    from lambda_forge import poly

    formed = []
    square, mul = poly._square_terms, poly._mul_terms

    def counting_square(terms):
        formed.append(("square", frozenset(terms.items())))
        return square(terms)

    def counting_mul(left, right, out):
        formed.append(("mul", frozenset(left.items()), frozenset(right.items())))
        return mul(left, right, out)

    monkeypatch.setattr(poly, "_square_terms", counting_square)
    monkeypatch.setattr(poly, "_mul_terms", counting_mul)
    monkeypatch.delenv("LAMBDA_FORGE_CACHE_DIR", raising=False)
    S = TruncationSet.big(12)
    clear_memo()
    structure_poly_map("mul", S)
    clear_memo()
    powers = sum(12 // d - 1 for d in S)
    assert len(set(formed)) == len(formed) <= 3 * powers + len(S)


def test_comult_leaves_its_input_ghost_coordinates_unchanged(monkeypatch):
    # comult hands one ghost coordinate of a to several (s, k) keys: the
    # inverse subtracts in place from a copy, never from a coordinate
    coords, seen = witt._ghost_coords, []

    def recording(v, value, kind):
        out = coords(v, value, kind)
        seen.append((out, {k: dict(w.terms) for k, w in out.items()}))
        return out

    monkeypatch.setattr(witt, "_ghost_coords", recording)
    B3 = TruncationSet.big(3)
    a = sym(B3.product(B3))
    got = comult(a, B3, B3)
    assert seen and all({k: w.terms for k, w in out.items()} == before for out, before in seen)
    assert shape_and_layout(got) == reference_op("comult", [a], (B3, B3))


# ---------------------------------------------------------------------------
# scalar arithmetic over Q and Z_(p) on integer numerators; oracle: the
# ghost route of ``reference_op``, on Fraction constants


SCALAR_RINGS = [QQ, CoeffRing.localized(2), CoeffRing.localized(3)]
SCALAR_SHAPES = [
    (P22,),
    (TruncationSet.p_typical(2, 4),),
    (TruncationSet.p_typical(3, 3),),
    (TruncationSet.big(6),),
    (TruncationSet((1, 2, 3, 6)),),
    (BIG2, BIG2),
    (P22, TruncationSet.big(3)),
]
SCALAR_SETTINGS = settings(max_examples=80, deadline=None)


def _rationals(ring):
    """Fractions over denominators 1, 2, 3, 4, 5 and 7, the units of Z_(p) among them."""
    units = [d for d in (1, 2, 3, 4, 5, 7) if ring.prime is None or d % ring.prime]
    return st.builds(Fraction, st.integers(-30, 30), st.sampled_from(units))


@st.composite
def rational_vectors(draw, shape, count):
    """(ring, vectors of ``shape`` with constant leaves) over Q, Z_(2) or Z_(3)."""
    ring = draw(st.sampled_from(SCALAR_RINGS))

    def vec(shape):
        comps = {n: vec(shape[1:]) if len(shape) > 1 else draw(_rationals(ring)) for n in shape[0]}
        return WittVec(shape[0], ring, comps)

    return ring, [vec(shape) for _ in range(count)]


def _fractions(vec):
    """Every leaf coefficient of ``vec`` is a Fraction, as the ring's canonical form has it."""
    return all(type(c) is Fraction for p in witt._by_key(vec).values() for c in p.terms.values())


@SCALAR_SETTINGS
@given(st.sampled_from(SCALAR_SHAPES).flatmap(lambda shape: rational_vectors(shape, 2)), st.data())
def test_scalar_route_over_q_and_z_p_matches_the_fraction_route(inputs, data):
    # the answers have different weights: 1 for add, sub and neg, 2 for mul,
    # k for ** k and n for F_n
    _, vecs = inputs
    op = data.draw(st.sampled_from(["add", "sub", "mul", "neg", "pow", "frobenius"]))
    n = data.draw(st.sampled_from([0, 1, 2, 3, 4] if op == "pow" else [2, 3]))
    got = new_op(op, vecs, n)
    assert got.ring == vecs[0].ring
    assert shape_and_layout(got) == reference_op(op, vecs, n) and _fractions(got)


@SCALAR_SETTINGS
@given(st.sampled_from([(BIG2, BIG2, ()), (P22, TruncationSet.big(3), ()), (BIG2, P22, (BIG2,))]), st.data())
def test_scalar_comult_over_q_and_z_p_matches_the_fraction_route(outer, data):
    S, T, rest = outer
    _, (a,) = data.draw(rational_vectors((S.product(T),) + rest, 1))
    got = comult(a, S, T)
    assert got.shape == (S, T) + rest
    assert shape_and_layout(got) == reference_op("comult", [a], (S, T)) and _fractions(got)


GHOST_TRUNCS = [
    TruncationSet.big(12),
    TruncationSet.big(20),
    TruncationSet.p_typical(2, 6),
    TruncationSet.p_typical(3, 4),
    TruncationSet.p_typical(5, 3),
    TruncationSet((1, 2, 3, 4, 6, 12)),
]


@SCALAR_SETTINGS
@given(st.sampled_from(GHOST_TRUNCS).flatmap(lambda S: rational_vectors((S,), 1)))
def test_scalar_ghost_map_and_inverse_over_q_and_z_p_match_the_fraction_route(inputs):
    # a's ghost coordinates invert to a.  Its components, read as ghost
    # coordinates, invert over Q, where the integer inverse is exact by
    # Dwork's lemma once the primes of S join the common denominator; over
    # Z_(p) they are refused at the first component with p in its denominator
    ring, (a,) = inputs
    g = ghost_map(a)
    assert _ghost_layout(g.comps) == reference_ghost_layout(a)
    assert _layout(ghost_inverse(g)) == _layout(a)
    want = reference_unghost(a.comps, a.trunc, ring)
    assert _result(lambda: ghost_inverse(GhostVec(a.trunc, ring, a.comps))) == want
    assert ring.kind == "Z_(" or not isinstance(want, tuple)


def test_ghost_inverse_over_z_p_refuses_the_first_component_outside_the_ring():
    # (1/3, 1, 0, 1/6) over Q; over Z_(2) a_4 = 1/6 is refused, with 4 * a_4 = 2/3 as witness
    S = TruncationSet.big(4)
    g = dict(zip(S, [Fraction(1, 3), Fraction(19, 9), Fraction(1, 27), Fraction(217, 81)]))
    want = WittVec.from_list(S, QQ, [Fraction(1, 3), 1, 0, Fraction(1, 6)])
    assert ghost_inverse(GhostVec(S, QQ, g)) == want
    Z2 = CoeffRing.localized(2)
    with pytest.raises(NotDivisible) as exc:
        ghost_inverse(GhostVec(S, Z2, g))
    assert exc.value.witness == 4
    assert str(exc.value) == "component a_4 is not in the coefficient ring: not divisible, witness: 2/3"
    assert exc.value.__cause__ is None and exc.value.__suppress_context__
    assert reference_unghost(g, S, Z2) == (NotDivisible, 4, str(exc.value))


def test_scalar_arithmetic_over_q_builds_one_fraction_per_answer_component(monkeypatch):
    # the route runs on ints: a Fraction is formed for each component of the
    # answer and for none of the ghost coordinates or steps of the inverse
    S = TruncationSet.p_typical(2, 4)
    values = [Fraction(21, 2), Fraction(-17, 3), Fraction(13, 5), Fraction(29, 7)]
    a = WittVec.from_list(S, QQ, values)
    b = WittVec.from_list(S, QQ, values[::-1])
    U = BIG2.product(BIG2)
    c = WittVec(U, QQ, {n: WittVec.from_list(BIG2, QQ, [Fraction(n, 3), Fraction(1, 2)]) for n in U})
    g = ghost_map(a)
    cases = [
        (lambda: a + b, 4), (lambda: a - b, 4), (lambda: a * b, 4), (lambda: -a, 4), (lambda: a ** 3, 4),
        (lambda: frobenius(2, a), 3), (lambda: comult(c, BIG2, BIG2), 8), (lambda: ghost_map(a), 4),
        (lambda: ghost_inverse(g), 4),
    ]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    clear_memo()
    for run, answers in cases:
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counting_new)
            run()
        assert len(built) == answers
        built.clear()
    assert witt._MEMO == {}


# ---------------------------------------------------------------------------
# scalar arithmetic over Z and Z/m, on flat integer loops, against the
# MultiPoly-valued route; the answers leave through the trusted constructor

INT_RINGS = [ZZ, CoeffRing.modular(4), CoeffRing.modular(8), CoeffRing.modular(9)]
INT_SHAPES = [(S,) for S in DIFF_TRUNCS] + [(BIG2, BIG2), (P22, BIG2)]


@st.composite
def integer_vectors(draw, shape, count, rings=INT_RINGS):
    """(ring, vectors of ``shape`` with constant leaves, drawn as ints in -30..30)."""
    ring = draw(st.sampled_from(rings))

    def vec(shape):
        comps = {n: vec(shape[1:]) if len(shape) > 1 else draw(st.integers(-30, 30)) for n in shape[0]}
        return WittVec(shape[0], ring, comps)

    return ring, [vec(shape) for _ in range(count)]


@SCALAR_SETTINGS
@given(st.sampled_from(INT_SHAPES).flatmap(lambda shape: integer_vectors(shape, 2)), st.data())
def test_scalar_route_over_z_and_z_mod_m_matches_the_polynomial_route(inputs, data):
    _, vecs = inputs
    op = data.draw(st.sampled_from(["add", "sub", "mul", "neg", "pow", "frobenius"]))
    n = data.draw(st.sampled_from([0, 1, 2, 3, 4] if op == "pow" else [2, 3]))
    got = new_op(op, vecs, n)
    assert got.ring == vecs[0].ring
    assert shape_and_layout(got) == reference_op(op, vecs, n)


@SCALAR_SETTINGS
@given(st.sampled_from([(BIG2, BIG2, ()), (P22, BIG2, ()), (BIG2, BIG2, (BIG2,))]), st.data())
def test_scalar_comult_over_z_and_z_mod_m_matches_the_polynomial_route(outer, data):
    S, T, rest = outer
    _, (a,) = data.draw(integer_vectors((S.product(T),) + rest, 1))
    got = comult(a, S, T)
    assert got.shape == (S, T) + rest
    assert shape_and_layout(got) == reference_op("comult", [a], (S, T))


@SCALAR_SETTINGS
@given(st.sampled_from(DIFF_TRUNCS + GHOST_TRUNCS).flatmap(lambda S: integer_vectors((S,), 1)))
def test_scalar_ghost_map_and_inverse_over_z_and_z_mod_m_match_the_polynomial_route(inputs):
    # a's ghost coordinates, and its components read as ghost coordinates,
    # which are mostly refused: over Z where a division leaves a remainder,
    # over Z/m where a nonzero residue meets an index that is not a unit
    ring, (a,) = inputs
    g = ghost_map(a)
    assert _ghost_layout(g.comps) == reference_ghost_layout(a)
    if ring == ZZ:
        assert ghost_inverse(g) == a
    for comps in (g.comps, a.comps):
        h = GhostVec(a.trunc, ring, comps)
        assert _result(lambda: ghost_inverse(h)) == reference_unghost(comps, a.trunc, ring)


@pytest.mark.parametrize(
    "ring, ghosts, want",
    [
        (ZZ, [1, 2], "witness: 1"),
        (CoeffRing.modular(4), [1, 2], "witness: 1"),
        (ZZ, [1, 7], [1, 3]),
        (CoeffRing.modular(4), [1, 7], "witness: 2"),
        (CoeffRing.modular(9), [1, 7], [1, 3]),
    ],
)
def test_ghost_inverse_refuses_a_vector_outside_the_ghost_image(ring, ghosts, want):
    # a_2 = (w_2 - a_1) / 2: over Z/4 the residue 6 = 2 meets the non-unit 2
    g = GhostVec(BIG2, ring, dict(zip(BIG2, ghosts)))
    got = _result(lambda: ghost_inverse(g))
    assert got == reference_unghost(g.comps, BIG2, ring)
    if isinstance(want, list):
        assert got == _layout(WittVec.from_list(BIG2, ring, want))
    else:
        assert got == (NotDivisible, 2, f"component a_2 is not in the coefficient ring: not divisible, {want}")


def _assert_built_as_the_constructor_builds(v):
    """``v`` equals what the public constructor makes of its parts, in the same
    shape, keyed in truncation order, every component over ``v.ring`` itself.
    Given no components, the constructor sees no inner shape to keep."""
    again = type(v)(v.trunc, v.ring, dict(v.comps))
    assert v == again and list(v.comps) == list(v.trunc)
    if isinstance(v, WittVec):
        assert again.shape == (v.shape if v.comps else v.shape[:1])
    for c in v.comps.values():
        assert c.ring is v.ring
        if isinstance(c, WittVec):
            _assert_built_as_the_constructor_builds(c)


@SCALAR_SETTINGS
@given(st.sampled_from(INT_SHAPES + SCALAR_SHAPES).flatmap(
    lambda shape: integer_vectors(shape, 2, INT_RINGS + SCALAR_RINGS)), st.data())
def test_scalar_answers_are_built_as_the_constructor_builds_them(inputs, data):
    ring, (a, b) = inputs
    _, (c,) = data.draw(integer_vectors((BIG2.product(BIG2),) + a.shape[1:], 1, [ring]))
    answers = [a + b, a - b, a * b, -a, a ** 3, frobenius(2, a), frobenius(3, a), comult(c, BIG2, BIG2)]
    if len(a.shape) == 1:
        # over Z/m a ghost inverse mostly fails; that of 0 never does
        g = ghost_map(a)
        answers += [g, ghost_inverse(g if ring.kind != "Z/" else GhostVec(a.trunc, ring, dict.fromkeys(a.trunc, 0)))]
    for v in answers:
        _assert_built_as_the_constructor_builds(v)
