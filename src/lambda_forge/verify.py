"""Verification suites behind `lambda-forge verify`.

Each suite returns a JSON-ready report {"check", "status", ...} with
stable field order and deterministic content for a fixed seed, so two
runs with identical argv produce byte-identical output.  Every suite takes
a seed by one rule, ``_seed``, as ``--seed`` does, and imports the modules
it runs when it runs: a process that runs one suite compiles no other
suite's modules.
"""

from __future__ import annotations

import random
from itertools import product as iter_product
from math import comb

from .errors import NotAFrobeniusLift, UsageError
from .poly import MultiPoly, random_poly
from .rings import QQ, ZZ, CoeffRing, _as_int
from .truncation import TruncationSet


def _seed(seed) -> int:
    """The one rule for a suite's seed, the rule of ``--seed``: a nonnegative integer."""
    return _as_int(seed, 0, "the seed must be nonnegative")


def witt_axioms_suite(seed: int = 0) -> dict:
    """Exhaustive ring axioms of W_{p-typical(2,2)} over Z/4: 16^3 triples."""
    from .witt import WittVec

    _seed(seed)
    ring = CoeffRing.modular(4)
    S = TruncationSet.p_typical(2, 2)
    elements = [
        WittVec.from_list(S, ring, [a, b]) for a, b in iter_product(range(4), range(4))
    ]
    index = {
        tuple(c.constant_value() for c in e.as_list()): i for i, e in enumerate(elements)
    }

    def key(vec):
        return index[tuple(c.constant_value() for c in vec.as_list())]

    n = len(elements)
    add = [[key(elements[i] + elements[j]) for j in range(n)] for i in range(n)]
    mul = [[key(elements[i] * elements[j]) for j in range(n)] for i in range(n)]
    neg = [key(-elements[i]) for i in range(n)]
    zero = key(WittVec.zero(S, ring))
    witnesses = []
    for i in range(n):
        if add[i][neg[i]] != zero:
            witnesses.append({"kind": "inverse", "element": str(elements[i].as_list())})
    checked = 0
    for i in range(n):
        for j in range(n):
            if add[i][j] != add[j][i] or mul[i][j] != mul[j][i]:
                witnesses.append({"kind": "commutativity", "pair": [i, j]})
            for k in range(n):
                checked += 1
                if add[add[i][j]][k] != add[i][add[j][k]]:
                    witnesses.append({"kind": "add_associativity", "triple": [i, j, k]})
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    witnesses.append({"kind": "mul_associativity", "triple": [i, j, k]})
                if mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]:
                    witnesses.append({"kind": "distributivity", "triple": [i, j, k]})
    return {
        "check": "witt-axioms",
        "status": "pass" if not witnesses else "fail",
        "elements": len(elements),
        "triples": checked,
        "witnesses": witnesses[:5],
    }


def ghost_compat_suite(seed: int = 0) -> dict:
    """Ghost additivity/multiplicativity as exact polynomial identities."""
    from .witt import GhostVec, _sym_vec, ghost_map

    seed = _seed(seed)
    truncs = [TruncationSet.p_typical(p, 3) for p in (2, 3, 5)]
    truncs += [TruncationSet.big(n) for n in range(1, 7)]
    witnesses = []
    polys = 0
    for S in truncs:
        a, b = _sym_vec("a", S), _sym_vec("b", S)
        ga, gb = ghost_map(a), ghost_map(b)
        for op in ("add", "mul"):
            polys += len(S)
            combined = a + b if op == "add" else a * b
            got = ghost_map(combined)
            want = GhostVec(
                S,
                ZZ,
                {
                    n: ga.comps[n] + gb.comps[n] if op == "add" else ga.comps[n] * gb.comps[n]
                    for n in S
                },
            )
            if got != want:
                witnesses.append({"kind": op, "trunc": S.label()})
    naturality = naturality_spotcheck(seed)
    if naturality["status"] != "pass":
        witnesses.append({"kind": "naturality"})
    return {
        "check": "ghost-compat",
        "status": "pass" if not witnesses else "fail",
        "truncations": [S.label() for S in truncs],
        "identities": polys,
        "naturality_seed": seed,
        "naturality_cases": naturality["cases"],
        "witnesses": witnesses,
    }


def joyal_rezk_suite(seed: int = 0, primes=(2, 3, 5), depth: int = 2) -> dict:
    """Exact commutation identities plus detection of a corrupted family."""
    from .lambdaring import FreeLambdaBasis, verify_joyal_rezk

    _seed(seed)
    basis = FreeLambdaBasis(primes, depth)
    report = verify_joyal_rezk(basis, depth)
    detection = corrupted_joyal_rezk()
    ok = report["status"] == "pass" and detection["status"] == "fail"
    return {
        "check": "joyal-rezk",
        "status": "pass" if ok else "fail",
        "cases": report["cases"],
        "witnesses": report["witnesses"],
        "corrupted_family_detected": detection["status"] == "fail",
        "corrupted_witness": detection["witnesses"][:1],
    }


def corrupted_joyal_rezk() -> dict:
    """The Joyal-Rezk check fed phi^3(x_n) = x_{3n} + x_n, which must fail."""
    from .lambdaring import FreeLambdaBasis, verify_joyal_rezk

    basis = FreeLambdaBasis((2, 3), 1)
    lift = {f"x{n}": MultiPoly.var(QQ, f"x{3 * n}") + MultiPoly.var(QQ, f"x{n}") for n in range(1, 11)}
    return verify_joyal_rezk(basis, 1, lambda m, e: e.substitute(lift) if m == 3 else basis.model.psi(m, e))


def wilkerson_suite(seed: int = 0) -> dict:
    """Binomial lambda-structure on Z, a line element, and lift rejection."""
    from .lambdaring import wilkerson_lambda

    _seed(seed)
    witnesses = []
    ops = wilkerson_lambda((), {}, 5)
    for m in range(-5, 6):
        lams = ops.lambda_values(MultiPoly.const(ZZ, m))
        expect = [comb(m, n) if m >= 0 else (-1) ** n * comb(-m + n - 1, n) for n in range(1, 6)]
        got = [l.constant_value() for l in lams]
        if got != expect:
            witnesses.append({"kind": "binomial", "m": m, "got": [str(x) for x in got]})
    u = MultiPoly.var(ZZ, "u")
    ops_u = wilkerson_lambda(("u",), {2: {"u": u ** 2}}, 2)
    if ops_u.lambda_values(u)[1] != MultiPoly.zero(ZZ):
        witnesses.append({"kind": "line", "witness": str(ops_u.lambda_values(u)[1])})
    ops_shift = wilkerson_lambda(("u",), {2: {"u": u ** 2 + u * 2}}, 2)
    if ops_shift.lambda_values(u)[1] != -u:
        witnesses.append({"kind": "shifted_line"})
    rejected = None
    try:
        wilkerson_lambda(("u",), {2: {"u": u ** 2 + u}}, 2)
    except NotAFrobeniusLift as exc:
        rejected = {"generator": str(exc.generator), "witness": str(exc.witness)}
    if rejected is None or rejected["witness"] != "u":
        witnesses.append({"kind": "non_lift_not_rejected", "got": rejected})
    return {
        "check": "wilkerson",
        "status": "pass" if not witnesses else "fail",
        "binomial_range": 5,
        "non_lift_rejection": rejected,
        "witnesses": witnesses,
    }


def w2_pullback_suite(seed: int = 0) -> dict:
    """Symbolic congruence w_1 = w_0^p mod p and exhaustive integer boxes."""
    from .delta import w2_congruence_witness, w2_pullback_check

    _seed(seed)
    reports = {}
    ok = True
    boxes = {p: w2_pullback_check(p, 10) for p in (2, 3)}
    for p in (2, 3, 5):
        wit = boxes[p]["congruence"] if p in boxes else w2_congruence_witness(p)
        reports[f"congruence_p{p}"] = wit
        ok = ok and wit["vanishes_mod_p"]
    for p, box in boxes.items():
        reports[f"box_p{p}"] = {
            "status": box["status"],
            "points_in_fibered_product": box.get("points_in_fibered_product"),
            "points_rejected": box.get("points_rejected"),
        }
        ok = ok and box["status"] == "pass"
    return {"check": "w2-pullback", "status": "pass" if ok else "fail", "details": reports}


def coalgebra_suite(seed: int = 0) -> dict:
    """Coaction laws on Z with psi = id and on the free lambda-ring."""
    from .lambdaring import FreeLambdaBasis, coalgebra_check
    from .witt import GhostVec, coaction, ghost_map

    _seed(seed)
    S = TruncationSet.big(2)
    T = TruncationSet.big(2)
    witnesses = []

    def psi_id(n, e):
        return e

    elements = [(str(m), MultiPoly.const(ZZ, m)) for m in range(-10, 11)]
    integers = coalgebra_check(psi_id, elements, S, T, ZZ)
    if integers["status"] != "pass":
        witnesses.extend(integers["witnesses"])

    basis = FreeLambdaBasis((2, 3), 2)
    model = basis.model

    def check_integral(comp):
        xp, integral = basis.to_x_basis(comp)
        return None if integral else str(xp)

    free_elements = [("x", model.x), ("x^2", model.x ** 2)]
    free = coalgebra_check(model.psi, free_elements, S, T, QQ, check_integral)
    if free["status"] != "pass":
        witnesses.extend(free["witnesses"])

    # ghost law on Big(4), fully symbolic
    S4 = TruncationSet.big(4)
    vec = coaction(model.psi, model.x, S4, QQ)
    ghost_ok = ghost_map(vec) == GhostVec(S4, QQ, {n: model.psi(n, model.x) for n in S4})
    if not ghost_ok:
        witnesses.append({"kind": "ghost_law_big4"})
    return {
        "check": "coalgebra",
        "status": "pass" if not witnesses else "fail",
        "integer_elements": len(elements),
        "free_ring_elements": [label for label, _ in free_elements],
        "ghost_law_big4": ghost_ok,
        "witnesses": witnesses,
    }


def fracture_suite(seed: int = 0) -> dict:
    """Fracture pullback for Z/12, Z/p^k and Z + Z/2."""
    from .abelian import FgAbGroup, fracture_check

    _seed(seed)
    groups = [FgAbGroup(0, (12,))]
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            groups.append(FgAbGroup(0, (p ** k,)))
    groups.append(FgAbGroup(1, (2,)))
    results = []
    ok = True
    for g in groups:
        rep = fracture_check(g)
        results.append({"group": repr(g), "status": rep["status"]})
        ok = ok and rep["status"] == "pass"
    return {"check": "fracture", "status": "pass" if ok else "fail", "groups": results}


_DISPATCH = {
    "witt-axioms": witt_axioms_suite,
    "ghost-compat": ghost_compat_suite,
    "joyal-rezk": joyal_rezk_suite,
    "wilkerson": wilkerson_suite,
    "w2-pullback": w2_pullback_suite,
    "coalgebra": coalgebra_suite,
    "fracture": fracture_suite,
}
SUITES = tuple(_DISPATCH)


def run_suite(name: str, seed: int = 0):
    """Run one named suite (or all of them) and return the reports."""
    if name != "all" and not (isinstance(name, str) and name in _DISPATCH):
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return [_DISPATCH[s](seed) for s in (SUITES if name == "all" else (name,))]


def naturality_spotcheck(seed: int) -> dict:
    """ghost_map commutes with base change along random substitutions."""
    from .witt import GhostVec, WittVec, ghost_map

    rng = random.Random(_seed(seed))
    S = TruncationSet.big(4)
    witnesses = []
    for case in range(10):
        comps = {n: random_poly(rng, ZZ, ("s", "t"), 3, 2, 5) for n in S}
        vec = WittVec(S, ZZ, comps)
        image = {
            "s": random_poly(rng, ZZ, ("s", "t"), 2, 2, 3),
            "t": random_poly(rng, ZZ, ("s", "t"), 2, 2, 3),
        }
        mapped = WittVec(S, ZZ, {n: comps[n].substitute(image) for n in S})
        lhs = ghost_map(mapped)
        ghosts = ghost_map(vec).comps
        rhs = GhostVec(S, ZZ, {n: ghosts[n].substitute(image) for n in S})
        if lhs != rhs:
            witnesses.append({"case": case})
    return {
        "check": "naturality",
        "status": "pass" if not witnesses else "fail",
        "cases": 10,
        "witnesses": witnesses,
    }
