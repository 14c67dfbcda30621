"""Every public integer or prime parameter refuses junk with a ``ForgeError``.

``CALLS`` lists public callables of ``rings``, ``poly``, ``series``,
``witt``, ``delta``, ``lambdaring`` and ``abelian`` with valid keyword
arguments and which of them are integers or primes.  One of those is
replaced by a drawn value: a string, a float, a non-integral ``Fraction``,
``None``, a bool, 0, a negative or a composite.  A value that is not an
integer must be refused with a ``ForgeError``; an integer may also be
taken.  A ``TypeError``, or an answer built from a value that is no
integer (a variable named ``x2.5``, a float coefficient), fails.  The JSON
readers take exponents by the same rule, and component keys and
coefficient strings only in ASCII decimal digits; a payload that is not
the shape the writers give is refused with a ``UsageError`` that names the
field.  The Witt operations take only Witt vectors, ghost vectors and
truncation sets where they expect them, the polynomial and lambda-ring
calls only polynomials and coefficient rings, and the reports only a
basis and a collection of primes, each refusal naming what it refused.
The public functions of ``verify`` take a suite name and a seed as
``lambda-forge verify`` does: a name that is no suite, or a seed that is
not a nonnegative integer, is a ``UsageError``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge.abelian import FgAbGroup
from lambda_forge.delta import (
    DeltaPresentation,
    delta_from_phi,
    free_delta_ring,
    w2_congruence_witness,
    w2_pullback_check,
)
from lambda_forge.errors import ForgeError, UsageError
from lambda_forge.lambdaring import (
    AdamsModel,
    FreeLambdaBasis,
    LambdaOps,
    integrality_report,
    plocal_basis_check,
    verify_joyal_rezk,
    wilkerson_lambda,
)
from lambda_forge.poly import MultiPoly, deviation
from lambda_forge.rings import ZZ, CoeffRing
from lambda_forge.series import TruncSeries, from_series, to_series
from lambda_forge.verify import (
    coalgebra_suite,
    fracture_suite,
    ghost_compat_suite,
    joyal_rezk_suite,
    naturality_spotcheck,
    run_suite,
    w2_pullback_suite,
    wilkerson_suite,
    witt_axioms_suite,
)
from lambda_forge.witt import (
    TruncationSet,
    WittVec,
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

INT, OPTIONAL_INT, PRIME = "int", "optional int", "prime"

x = MultiPoly.var(ZZ, "x")
u = MultiPoly.var(ZZ, "u")
S4 = TruncationSet.big(4)
A4 = WittVec.from_list(S4, ZZ, [1, 2, 3, 4])
A2 = WittVec.from_list(S4.divide(2), ZZ, [5, 6])
F3 = to_series(WittVec.from_list(TruncationSet.big(3), ZZ, [1, 2, 3]))
MODEL = AdamsModel(6)
BASIS = FreeLambdaBasis((2, 3), 2, N=40)
GROUP = FgAbGroup(0, (12,))

# (label, call taking keyword arguments, valid keyword arguments, {argument: kind})
CALLS = [
    ("CoeffRing.modular", lambda m: CoeffRing.modular(m), {"m": 6}, {"m": INT}),
    ("CoeffRing.localized", lambda p: CoeffRing.localized(p), {"p": 3}, {"p": PRIME}),
    ("MultiPoly.__pow__", lambda n: x ** n, {"n": 2}, {"n": INT}),
    ("MultiPoly.div_int", lambda d: (x * 4).div_int(d), {"d": 2}, {"d": INT}),
    ("deviation", lambda k, d: deviation(x ** 2 + x * 4, x, k, d), {"k": 2, "d": 2}, {"k": INT, "d": INT}),
    ("TruncSeries.one", lambda n: TruncSeries.one(ZZ, n), {"n": 2}, {"n": INT}),
    ("TruncationSet.big", lambda n: TruncationSet.big(n), {"n": 3}, {"n": INT}),
    ("TruncationSet.p_typical", lambda p, k: TruncationSet.p_typical(p, k), {"p": 2, "k": 3}, {"p": PRIME, "k": INT}),
    ("TruncationSet.divide", lambda n: S4.divide(n), {"n": 2}, {"n": INT}),
    ("WittVec.__pow__", lambda n: A4 ** n, {"n": 2}, {"n": INT}),
    ("frobenius", lambda n: frobenius(n, A4), {"n": 2}, {"n": INT}),
    ("frobenius_poly_map", lambda n: frobenius_poly_map(n, TruncationSet.big(2)), {"n": 2}, {"n": INT}),
    ("verschiebung", lambda n: verschiebung(n, A2, S4), {"n": 2}, {"n": INT}),
    ("from_series", lambda N: from_series(F3, N), {"N": 3}, {"N": INT}),
    ("w2_congruence_witness", lambda p: w2_congruence_witness(p), {"p": 2}, {"p": PRIME}),
    ("w2_pullback_check", lambda p, bound: w2_pullback_check(p, bound), {"p": 2, "bound": 1}, {"p": PRIME, "bound": INT}),
    ("DeltaPresentation", lambda p: DeltaPresentation(p, ("u",), {"u": u}), {"p": 2}, {"p": PRIME}),
    ("delta_from_phi", lambda p: delta_from_phi(p, ("u",), {"u": u ** 2}), {"p": 2}, {"p": PRIME}),
    ("free_delta_ring", lambda p, depth: free_delta_ring(p, depth), {"p": 2, "depth": 2}, {"p": PRIME, "depth": INT}),
    ("AdamsModel", lambda N: AdamsModel(N), {"N": 6}, {"N": INT}),
    ("AdamsModel.gen", lambda n: MODEL.gen(n), {"n": 2}, {"n": INT}),
    ("AdamsModel.psi", lambda m: MODEL.psi(m, MODEL.x), {"m": 2}, {"m": INT}),
    ("AdamsModel.delta", lambda p: MODEL.delta(p, MODEL.x), {"p": 2}, {"p": PRIME}),
    (
        "AdamsModel.frobenius_deviation",
        lambda p, d: MODEL.frobenius_deviation(p, MODEL.x, d),
        {"p": 2, "d": 2},
        {"p": INT, "d": INT},
    ),
    (
        "FreeLambdaBasis",
        lambda p, depth, N: FreeLambdaBasis((p,), depth, N),
        {"p": 2, "depth": 1, "N": None},
        {"p": PRIME, "depth": INT, "N": OPTIONAL_INT},
    ),
    (
        "LambdaOps",
        lambda K: LambdaOps((), lambda n, e: e, K).lambda_values(MultiPoly.const(ZZ, 3)),
        {"K": 2},
        {"K": INT},
    ),
    (
        "wilkerson_lambda",
        lambda p, K: wilkerson_lambda((), {p: {}}, K).lambda_values(MultiPoly.const(ZZ, 3)),
        {"p": 2, "K": 2},
        {"p": PRIME, "K": INT},
    ),
    ("verify_joyal_rezk", lambda bound: verify_joyal_rezk(BASIS, bound), {"bound": 1}, {"bound": OPTIONAL_INT}),
    (
        "plocal_basis_check",
        lambda p, bound: plocal_basis_check(p, BASIS, bound),
        {"p": 2, "bound": 1},
        {"p": PRIME, "bound": INT},
    ),
    (
        "integrality_report",
        lambda p, depth: integrality_report((p,), depth),
        {"p": 2, "depth": 1},
        {"p": PRIME, "depth": INT},
    ),
    ("FgAbGroup", lambda rank, d: repr(FgAbGroup(rank, (d,))), {"rank": 1, "d": 2}, {"rank": INT, "d": INT}),
    (
        "FgAbGroup.from_summands",
        lambda rank, d: repr(FgAbGroup.from_summands(rank, (d,))),
        {"rank": 1, "d": 6},
        {"rank": INT, "d": INT},
    ),
    ("FgAbGroup.localize", lambda p: GROUP.localize(p), {"p": 2}, {"p": PRIME}),
]

NOT_INTEGERS = st.one_of(
    st.text(max_size=3),
    st.floats(),
    st.fractions(max_denominator=10).filter(lambda f: f.denominator != 1),
    st.none(),
)
# a composite kept small: a depth or a bound of 4 is cheap, of 9 is not
INTEGERS = st.one_of(st.booleans(), st.just(0), st.integers(-10**6, -1), st.just(4))
COMPOSITES = st.sampled_from([4, 6, 9, 1000000000000000001])
JUNK = {
    INT: st.one_of(NOT_INTEGERS, INTEGERS),
    OPTIONAL_INT: st.one_of(NOT_INTEGERS.filter(lambda v: v is not None), INTEGERS),
    PRIME: st.one_of(NOT_INTEGERS, INTEGERS, COMPOSITES),
}


@pytest.mark.parametrize("call, valid", [(c[1], c[2]) for c in CALLS], ids=[c[0] for c in CALLS])
def test_valid_arguments_are_taken(call, valid):
    call(**valid)


@pytest.mark.parametrize("call, valid, kinds", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_junk_integer_or_prime_is_refused(call, valid, kinds, data):
    name = data.draw(st.sampled_from(sorted(kinds)), label="argument")
    junk = data.draw(JUNK[kinds[name]], label="value")
    try:
        call(**{**valid, name: junk})
    except ForgeError:
        return
    assert isinstance(junk, int), f"{name}={junk!r} was taken"


def test_integral_fractions_are_integers():
    assert x ** Fraction(4, 2) == x ** 2
    assert MODEL.psi(Fraction(6, 3), MODEL.x) == MODEL.gen(2)
    assert FgAbGroup(0, (Fraction(12, 1),)) == GROUP


# calls seen to raise a TypeError, or to return an answer built from junk
# (a variable x2.5, a float coefficient 2.0, Z/12 from '12', Z/2 from 2.5)
SEEN = [
    ("AdamsModel", {"N": "a"}),
    ("AdamsModel.gen", {"n": "a"}),
    ("AdamsModel.psi", {"m": 2.5}),
    ("FreeLambdaBasis", {"depth": 2.5}),
    ("FreeLambdaBasis", {"p": "2"}),
    ("wilkerson_lambda", {"K": 2.5}),
    ("DeltaPresentation", {"p": 2.5}),
    ("free_delta_ring", {"depth": 2.5}),
    ("w2_pullback_check", {"bound": 2.5}),
    ("frobenius", {"n": "2"}),
    ("FgAbGroup", {"rank": 1.5}),
    ("FgAbGroup", {"d": "12"}),
    ("FgAbGroup", {"d": 2.5}),
    ("integrality_report", {"depth": "a"}),
    ("verify_joyal_rezk", {"bound": "a"}),
    ("from_series", {"N": "a"}),
    ("MultiPoly.div_int", {"d": "a"}),
    ("MultiPoly.div_int", {"d": 2.0}),
    ("LambdaOps", {"K": 2.5}),
    ("LambdaOps", {"K": "3"}),
    ("LambdaOps", {"K": None}),
    ("LambdaOps", {"K": -1}),
    ("AdamsModel.frobenius_deviation", {"d": 2.5}),
    ("AdamsModel.frobenius_deviation", {"d": 0}),
]
BY_LABEL = {label: (call, valid) for label, call, valid, _ in CALLS}


@pytest.mark.parametrize("label, junk", SEEN, ids=[f"{label}{junk}" for label, junk in SEEN])
def test_seen_junk_is_refused(label, junk):
    call, valid = BY_LABEL[label]
    with pytest.raises(ForgeError):
        call(**{**valid, **junk})


def _poly_payload(coef="1", exps=(2,)):
    return {"vars": ["x"][: len(exps)], "ring": {"kind": "Q"}, "terms": [{"coef": coef, "exps": list(exps)}]}


def _witt_payload(key):
    return {"trunc": {"kind": "big", "n": 1}, "comps": {key: _poly_payload(exps=())}}


# JSON payloads whose integers are not ASCII decimal digits: each loaded as a
# polynomial or vector (x^2 from an exponent 2.7 or "2", the component 1 from
# " 1"), or failed with a ValueError or ZeroDivisionError
JSON_JUNK = [
    ("exponent 2.7", MultiPoly.from_json, _poly_payload(exps=(2.7,))),
    ("exponent '2'", MultiPoly.from_json, _poly_payload(exps=("2",))),
    ("coefficient '1.5'", MultiPoly.from_json, _poly_payload("1.5")),
    ("coefficient '1/0'", MultiPoly.from_json, _poly_payload("1/0")),
    ("coefficient ' 1'", MultiPoly.from_json, _poly_payload(" 1")),
    ("coefficient '+1'", MultiPoly.from_json, _poly_payload("+1")),
    ("coefficient '\u0661'", MultiPoly.from_json, _poly_payload("\u0661")),
    ("key '1.0'", WittVec.from_json, _witt_payload("1.0")),
    ("key ' 1'", WittVec.from_json, _witt_payload(" 1")),
    ("key '+1'", WittVec.from_json, _witt_payload("+1")),
    ("key '\u0661'", WittVec.from_json, _witt_payload("\u0661")),
]


@pytest.mark.parametrize("reader, payload", [c[1:] for c in JSON_JUNK], ids=[c[0] for c in JSON_JUNK])
def test_json_integers_are_ascii_digits(reader, payload):
    with pytest.raises(UsageError):
        reader(payload)


def test_json_readers_take_what_the_writers_write():
    p = MultiPoly.from_json(_poly_payload("-7/3", (2,)))
    assert MultiPoly.from_json(p.to_json()) == p
    v = WittVec.from_json(_witt_payload("1"))
    assert WittVec.from_json(v.to_json()) == v


B2 = TruncationSet.big(2)
NESTED = comult(WittVec.from_list(B2.product(B2), ZZ, [1, 2, 3]), B2, B2)
GHOST = ghost_map(WittVec.from_list(B2, ZZ, [1, 2]))
FLAT = WittVec.from_list(B2, ZZ, [1, 2])

# calls seen to raise an AttributeError, or to read ghost components as Witt
# components (restrict(GHOST, big:1) gave WittVec(1: 1), to_series(GHOST)
# gave 1 - t - 5*t^2 + O(t^3)); the polynomial and ring arguments of the
# lambda-ring and polynomial calls below raised an AttributeError
WRONG_KINDS = [
    ("to_series(nested)", lambda: to_series(NESTED)),
    ("to_series(ghost)", lambda: to_series(GHOST)),
    ("frobenius(ghost)", lambda: frobenius(2, GHOST)),
    ("ghost_map(ghost)", lambda: ghost_map(GHOST)),
    ("restrict(ghost)", lambda: restrict(GHOST, TruncationSet.big(1))),
    ("counit(ghost)", lambda: counit(GHOST)),
    ("ghost_inverse(witt)", lambda: ghost_inverse(FLAT)),
    ("restrict(list)", lambda: restrict(FLAT, [1, 2])),
    ("verschiebung(list)", lambda: verschiebung(2, FLAT, [1, 2, 3, 4])),
    ("comult(list)", lambda: comult(FLAT, [1], [1])),
    ("teichmuller(list)", lambda: teichmuller(1, [1, 2])),
    ("from_series(None)", lambda: from_series(None, 2)),
    ("WittVec.zero(list)", lambda: WittVec.zero([1, 2], ZZ)),
    ("structure_poly_map(list)", lambda: structure_poly_map("add", [1])),
    ("frobenius_poly_map(None)", lambda: frobenius_poly_map(2, None)),
    ("comult_poly_map(list)", lambda: comult_poly_map(B2, [1])),
    ("teichmuller(ring 'Z')", lambda: teichmuller(1, B2, "Z")),
    ("WittVec.from_list(ring 'Z')", lambda: WittVec.from_list(B2, "Z", [1, 2])),
    ("WittVec.zero(ring None)", lambda: WittVec.zero(B2, None)),
    ("convert_ring(None)", lambda: x.convert_ring(None)),
    ("deviation(x, 2)", lambda: deviation(x, 2, 2)),
    ("deviation(2, x)", lambda: deviation(2, x, 2)),
    ("to_x_basis(3)", lambda: BASIS.to_x_basis(3)),
    ("AdamsModel.psi(2, 3)", lambda: MODEL.psi(2, 3)),
    ("lambda_values(3)", lambda: LambdaOps((), lambda n, e: e, 2).lambda_values(3)),
]


@pytest.mark.parametrize("call", [c[1] for c in WRONG_KINDS], ids=[c[0] for c in WRONG_KINDS])
def test_witt_operations_refuse_wrong_kinds(call):
    with pytest.raises(UsageError):
        call()


# report, presentation and Wilkerson calls seen to raise a TypeError or an
# AttributeError, to split a string of generators into its letters, or (a
# list of lifts) to build no family: each must be a UsageError that names
# the argument
REPORT_JUNK = [
    ("integrality_report(2, 1)", lambda: integrality_report(2, 1), "P"),
    ("verify_joyal_rezk(None)", lambda: verify_joyal_rezk(None), "basis"),
    ("verify_joyal_rezk(None, psi)", lambda: verify_joyal_rezk(None, psi=MODEL.psi), "basis"),
    ("plocal_basis_check(2, None, 1)", lambda: plocal_basis_check(2, None, 1), "basis"),
    ("delta_from_phi(2, gens, [])", lambda: delta_from_phi(2, ("u",), []), "phi_on_gens"),
    ("delta_from_phi(2, None, {})", lambda: delta_from_phi(2, None, {}), "gens"),
    ("DeltaPresentation(2, gens, [])", lambda: DeltaPresentation(2, ("u",), []), "delta_on_gens"),
    ("DeltaPresentation(2, 'uv', {})", lambda: DeltaPresentation(2, "uv", {}), "gens"),
    ("wilkerson_lambda((), [], 2)", lambda: wilkerson_lambda((), [], 2), "phi_family"),
    ("wilkerson_lambda(gens, {2: []}, 2)", lambda: wilkerson_lambda(("u",), {2: []}, 2), "phi_family"),
    ("wilkerson_lambda(gens, {2: None}, 2)", lambda: wilkerson_lambda(("u",), {2: None}, 2), "phi_family"),
    ("wilkerson_lambda(None, {}, 2)", lambda: wilkerson_lambda(None, {}, 2), "gens"),
    ("wilkerson_lambda('u', {}, 2)", lambda: wilkerson_lambda("u", {}, 2), "gens"),
    ("LambdaOps(None, psi, 2)", lambda: LambdaOps(None, lambda n, e: e, 2), "gens"),
    # a generator is a name by the one name rule, and no name is given twice
    ("DeltaPresentation(2, (1,), {})", lambda: DeltaPresentation(2, (1,), {}), "1"),
    ("DeltaPresentation(2, ('u', 'u'), {})", lambda: DeltaPresentation(2, ("u", "u"), {}), "u"),
    ("DeltaPresentation(2, ('u v',), {})", lambda: DeltaPresentation(2, ("u v",), {}), "u v"),
    ("delta_from_phi(2, (1,), {})", lambda: delta_from_phi(2, (1,), {}), "1"),
    ("delta_from_phi(2, ('u', 'u'), phi)", lambda: delta_from_phi(2, ("u", "u"), {"u": u ** 2}), "u"),
    ("wilkerson_lambda((1,), {}, 2)", lambda: wilkerson_lambda((1,), {}, 2), "1"),
    ("wilkerson_lambda(('u', 'u'), {}, 2)", lambda: wilkerson_lambda(("u", "u"), {}, 2), "u"),
    ("LambdaOps(('u v',), psi, 2)", lambda: LambdaOps(("u v",), lambda n, e: e, 2), "u v"),
    ("LambdaOps(('u', 'u'), psi, 2)", lambda: LambdaOps(("u", "u"), lambda n, e: e, 2), "u"),
]


@pytest.mark.parametrize("call, argument", [c[1:] for c in REPORT_JUNK], ids=[c[0] for c in REPORT_JUNK])
def test_report_refuses_a_wrong_kind_naming_it(call, argument):
    with pytest.raises(UsageError, match=rf"\b{argument}\b"):
        call()


def _ring_payload():
    return {"kind": "Z"}


# payloads seen to raise a KeyError, a TypeError or an AttributeError: each
# must be a UsageError that names the field
JSON_MALFORMED = [
    ("poly {}", MultiPoly.from_json, {}, "'ring'"),
    ("poly []", MultiPoly.from_json, [], "'ring'"),
    ("poly vars 'x'", MultiPoly.from_json, {"ring": _ring_payload(), "vars": "x", "terms": []}, "'vars'"),
    ("poly no terms", MultiPoly.from_json, {"ring": _ring_payload(), "vars": []}, "'terms'"),
    ("term no coef", MultiPoly.from_json, {"ring": _ring_payload(), "vars": ["x"], "terms": [{"exps": [1]}]}, "'coef'"),
    ("term no exps", MultiPoly.from_json, {"ring": _ring_payload(), "vars": ["x"], "terms": [{"coef": "1"}]}, "'exps'"),
    ("term []", MultiPoly.from_json, {"ring": _ring_payload(), "vars": ["x"], "terms": [[1]]}, "'exps'"),
    ("term exps 1", MultiPoly.from_json, {"ring": _ring_payload(), "vars": ["x"], "terms": [{"coef": "1", "exps": 1}]}, "'exps'"),
    ("term exps {}", MultiPoly.from_json, {"ring": _ring_payload(), "vars": [], "terms": [{"coef": "1", "exps": {}}]}, "'exps'"),
    ("term exps '12'", MultiPoly.from_json, {"ring": _ring_payload(), "vars": ["x", "y"], "terms": [{"coef": "1", "exps": "12"}]}, "'exps'"),
    ("witt comps []", WittVec.from_json, {"trunc": {"kind": "big", "n": 1}, "comps": []}, "'comps'"),
    ("witt no trunc", WittVec.from_json, {"comps": {}}, "'trunc'"),
    ("trunc big no n", TruncationSet.from_json, {"kind": "big"}, "'n'"),
    ("trunc p no len", TruncationSet.from_json, {"kind": "p", "p": 2}, "'len'"),
    ("trunc set elems 3", TruncationSet.from_json, {"kind": "set", "elems": 3}, "'elems'"),
    ("trunc 'big'", TruncationSet.from_json, "big", "'kind'"),
    ("ring 'Z'", CoeffRing.from_json, "Z", "'kind'"),
    ("ring Z/n no n", CoeffRing.from_json, {"kind": "Z/n"}, "'n'"),
    ("ring Z_(p) no p", CoeffRing.from_json, {"kind": "Z_(p)"}, "'p'"),
    ("delta {}", DeltaPresentation.from_json, {}, "'delta'"),
    ("delta no p", DeltaPresentation.from_json, {"gens": ["u"], "delta": {}}, "'p'"),
    ("delta no gens", DeltaPresentation.from_json, {"p": 2, "delta": {}}, "'gens'"),
]


@pytest.mark.parametrize("reader, payload, field", [c[1:] for c in JSON_MALFORMED], ids=[c[0] for c in JSON_MALFORMED])
def test_malformed_json_is_a_usage_error_naming_the_field(reader, payload, field):
    with pytest.raises(UsageError, match=field):
        reader(payload)


SUITES = [
    witt_axioms_suite,
    ghost_compat_suite,
    joyal_rezk_suite,
    wilkerson_suite,
    w2_pullback_suite,
    coalgebra_suite,
    fracture_suite,
    naturality_spotcheck,
]
# verify calls seen to raise a TypeError (run_suite([]), and a list seed
# given to random.Random), or to run a suite on a seed that --seed refuses
VERIFY_JUNK = [
    ("run_suite([])", lambda: run_suite([])),
    ("run_suite(None)", lambda: run_suite(None)),
    ("run_suite('nope')", lambda: run_suite("nope")),
    ("run_suite('fracture', -1)", lambda: run_suite("fracture", -1)),
    ("run_suite('all', [])", lambda: run_suite("all", [])),
] + [
    (f"{suite.__name__}({seed!r})", lambda suite=suite, seed=seed: suite(seed))
    for suite in SUITES
    for seed in (-1, [], "1", 2.5, None)
]


@pytest.mark.parametrize("call", [c[1] for c in VERIFY_JUNK], ids=[c[0] for c in VERIFY_JUNK])
def test_verify_refuses_junk_suite_names_and_seeds(call):
    with pytest.raises(UsageError):
        call()


def test_an_integral_seed_is_the_integer():
    assert run_suite("fracture", Fraction(4, 2)) == run_suite("fracture", 2)

