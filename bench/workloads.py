"""The four workloads: their set-up, their rounds of operations, their checks.

A workload's ``setup(seed)`` imports lambda-forge, makes every input from
the seed and does the warming the workload declares.  ``round(rng)``
returns one round: a list of ``Op`` whose make-up is the same for every
seed and every round, so that a run of whole rounds attempts the same
operations in the same proportions.  Only ``Op.run`` is timed; ``prepare``
runs just before it and ``check`` just after, both outside the timer.

``check`` returns None for a right answer and a message for a wrong one.
It raises ``OpFailed`` when the program did not complete the operation as
its contract says (an uncaught error, a wrong exit code); such an
operation counts as failed rather than wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from math import prod

import oracles as O


class OpFailed(Exception):
    pass


class Op:
    __slots__ = ("label", "run", "check", "prepare", "key")

    def __init__(self, label, run, check, prepare=None):
        self.label = label
        self.run = run
        self.check = check
        self.prepare = prepare
        self.key = None


def _keyed(ops, rng=None):
    """Number the operations of a round, then shuffle them if rng is given.

    The number names the same operation in every round of a run.
    """
    for i, op in enumerate(ops):
        op.key = i
    if rng is not None:
        rng.shuffle(ops)
    return ops


def _points(rng, indices, count):
    """Pairs (a, b) of integer points with nonzero coordinates, so that no
    monomial vanishes and one altered coefficient always shows."""
    values = (-3, -2, -1, 1, 2, 3)
    return [tuple({n: rng.choice(values) for n in indices} for _ in "ab") for _ in range(count)]


def _trunc_indices(kind, *params):
    return O.p_typical(*params) if kind == "p" else O.big(*params)


class Workload:
    name = ""
    peak_rss_children = False
    calibration = None  # the harness's CPU kernel unless a workload sets one

    def setup(self, seed: int):
        raise NotImplementedError

    def round(self, rng) -> list:
        raise NotImplementedError

    def close(self):
        pass

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.peak_rss_children else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# witt-symbolic: universal polynomials generated from an empty memo


class WittSymbolic(Workload):
    name = "witt-symbolic"
    STRUCTURE = [("p", 2, 3), ("p", 2, 4), ("p", 2, 5), ("p", 3, 3), ("p", 3, 4),
                 ("p", 5, 3), ("p", 7, 2), ("big", 4), ("big", 6), ("big", 8),
                 ("big", 10), ("big", 12), ("big", 16), ("big", 20)]
    # p:2,6 (13,083 and 26,174 terms, 2 s and 4 s to generate) is left out:
    # with a few seconds-long operations in a run, the run's figures follow
    # the host's speed during those seconds.  big:20 mul (3,675 terms) is
    # the largest here; p:2,6 addition is generated in witt-numeric's set-up.
    FROBENIUS = [(2, ("p", 2, 5)), (2, ("p", 2, 6)), (3, ("p", 3, 4)), (5, ("p", 5, 3)),
                 (2, ("big", 12)), (3, ("big", 12))]
    COMULT = [(("big", 2), ("big", 2)), (("big", 3), ("big", 3)), (("big", 3), ("big", 4)),
              (("big", 4), ("big", 4)), (("p", 2, 2), ("p", 2, 3)), (("p", 2, 3), ("p", 2, 3)),
              (("p", 3, 2), ("p", 3, 2)), (("big", 5), ("big", 5)), (("big", 6), ("big", 6))]
    # Witt arithmetic on vectors whose components are polynomials in s, t
    SYMBOLIC = [("p", 2, 3), ("p", 3, 2), ("big", 4), ("p", 5, 2)]

    def setup(self, seed):
        from lambda_forge import witt
        from lambda_forge.poly import MultiPoly
        from lambda_forge.rings import ZZ

        self.w = witt
        rng = random.Random(seed)
        T = witt.TruncationSet
        self.trunc = lambda spec: T.p_typical(*spec[1:]) if spec[0] == "p" else T.big(spec[1])
        specs = [(op, spec) for spec in self.STRUCTURE for op in ("add", "mul", "neg")]
        self.structure = [(op, spec, _points(rng, _trunc_indices(*spec), 2)) for op, spec in specs]
        self.frobenius = [(n, spec, [a for a, _ in _points(rng, _trunc_indices(*spec), 2)])
                          for n, spec in self.FROBENIUS]
        self.comult = []
        for S, T_ in self.COMULT:
            U = O.product_set(_trunc_indices(*S), _trunc_indices(*T_))
            self.comult.append((S, T_, [a for a, _ in _points(rng, U, 2)]))
        self.symbolic = []
        for spec in self.SYMBOLIC:
            S = _trunc_indices(*spec)
            for op in ("add", "mul", "neg", "frobenius"):
                a = {n: self._random_poly(rng, MultiPoly, ZZ) for n in S}
                b = {n: self._random_poly(rng, MultiPoly, ZZ) for n in S}
                pts = [{"s": s, "t": t} for s, t in ((rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))) for _ in range(2))]
                self.symbolic.append((op, spec, a, b, pts))

    @staticmethod
    def _random_poly(rng, MultiPoly, ZZ):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = rng.choice((-3, -2, -1, 1, 2, 3))
        return MultiPoly(ZZ, ("s", "t"), terms)

    def round(self, rng):
        w = self.w
        ops = []
        for op, spec, points in self.structure:
            S = self.trunc(spec)
            idx = _trunc_indices(*spec)
            ops.append(Op(
                f"structure {op} {spec}",
                lambda op=op, S=S: w.structure_poly_map(op, S),
                lambda res, op=op, idx=idx, pts=points: O.check_structure(op, idx, res, pts),
                w.clear_memo,
            ))
        for n, spec, points in self.frobenius:
            S = self.trunc(spec)
            idx = _trunc_indices(*spec)
            ops.append(Op(
                f"frobenius {n} {spec}",
                lambda n=n, S=S: w.frobenius_poly_map(n, S),
                lambda res, n=n, idx=idx, pts=points: O.check_frobenius(n, idx, res, pts),
                w.clear_memo,
            ))
        for s_spec, t_spec, points in self.comult:
            S, T_ = self.trunc(s_spec), self.trunc(t_spec)
            si, ti = _trunc_indices(*s_spec), _trunc_indices(*t_spec)
            ops.append(Op(
                f"comult {s_spec} {t_spec}",
                lambda S=S, T_=T_: w.comult_poly_map(S, T_),
                lambda res, si=si, ti=ti, pts=points: O.check_comult(si, ti, res, pts),
                w.clear_memo,
            ))
        for op, spec, a, b, pts in self.symbolic:
            ops.append(self._symbolic_op(op, spec, a, b, pts))
        return _keyed(ops, rng)

    def _symbolic_op(self, op, spec, a, b, pts):
        w = self.w
        S = self.trunc(spec)
        idx = _trunc_indices(*spec)
        from lambda_forge.rings import ZZ

        va = w.WittVec(S, ZZ, dict(a))
        vb = w.WittVec(S, ZZ, dict(b))
        p = spec[1] if spec[0] == "p" else 2
        run = {
            "add": lambda: va + vb,
            "mul": lambda: va * vb,
            "neg": lambda: -va,
            "frobenius": lambda: w.frobenius(p, va),
        }[op]

        def check(res):
            for pt in pts:
                an = {n: O.eval_poly(a[n], pt) for n in idx}
                bn = {n: O.eval_poly(b[n], pt) for n in idx}
                target, want = O.witt_expected(op, idx, an, bn, n=p)
                got = [O.eval_poly(c, pt) for c in res.as_list()]
                problem = O.check_vector(got, target, want)
                if problem:
                    return f"symbolic {op} at {pt}: {problem}"
            return None

        return Op(f"symbolic {op} {spec}", run, check, w.clear_memo)


# ---------------------------------------------------------------------------
# witt-numeric: numeric Witt arithmetic against a warm memo


class WittNumeric(Workload):
    name = "witt-numeric"
    TRUNCS = [("p", 2, 3), ("p", 2, 4), ("p", 2, 5), ("p", 3, 3), ("p", 3, 4),
              ("p", 5, 3), ("big", 4), ("big", 6)]
    MODULUS = {2: 8, 3: 9, 5: 25}
    # p:2,6 addition takes seconds to generate, so warming it shows in setup_s
    LARGE = ("p", 2, 6)

    def setup(self, seed):
        from lambda_forge import witt
        from lambda_forge.rings import CoeffRing

        self.w = witt
        rng = random.Random(seed)
        T = witt.TruncationSet
        self.rings = {"Z": CoeffRing.integers(), "Q": CoeffRing.rationals()}
        for m in self.MODULUS.values():
            self.rings[f"Z/{m}"] = CoeffRing.modular(m)
        self.cases = []
        for spec in self.TRUNCS:
            p = spec[1] if spec[0] == "p" else 2
            for ring in ("Z", f"Z/{self.MODULUS[p]}", "Q"):
                for op in ("add", "mul", "neg", "pow", "frobenius"):
                    self.cases.append(self._case(rng, T, spec, ring, op, p))
        for ring in ("Z", "Z/8"):
            for _ in range(3):
                self.cases.append(self._case(rng, T, self.LARGE, ring, "add", 2))
        # warm the memo and the ring conversions: one operation of each kind
        seen = set()
        for case in self.cases:
            key = case[:3]
            if key not in seen:
                seen.add(key)
                case[-1]()

    def _case(self, rng, T, spec, ring_name, op, p):
        w = self.w
        ring = self.rings[ring_name]
        S = T.p_typical(*spec[1:]) if spec[0] == "p" else T.big(spec[1])
        idx = _trunc_indices(*spec)
        modulus = ring.modulus

        # the seed picks values; their sizes, denominators and the power
        # are fixed, so every seed asks for the same amount of work
        def value(i):
            if ring_name == "Q":
                return Fraction(rng.choice((-1, 1)) * rng.randint(10, 30), (1, 2, 3, 5, 7)[i % 5])
            if modulus:
                return rng.randrange(modulus // 2, modulus)
            return rng.choice((-1, 1)) * rng.randint(25, 50)

        a = {n: value(i) for i, n in enumerate(idx)}
        b = {n: value(i + 1) for i, n in enumerate(idx)}
        k = 3 if len(idx) <= 4 else 2
        va = w.WittVec.from_list(S, ring, [a[n] for n in idx])
        vb = w.WittVec.from_list(S, ring, [b[n] for n in idx])
        run = {
            "add": lambda: va + vb,
            "mul": lambda: va * vb,
            "neg": lambda: -va,
            "pow": lambda: va ** k,
            "frobenius": lambda: w.frobenius(p, va),
        }[op]
        return (spec, ring_name, op, (idx, a, b, k, p, modulus), run)

    def round(self, rng):
        ops = []
        for spec, ring_name, op, (idx, a, b, k, p, modulus), run in self.cases:
            def check(res, op=op, idx=idx, a=a, b=b, k=k, p=p, modulus=modulus):
                if modulus:
                    target, want = O.witt_expected_mod(op, idx, modulus, a, b, k, p)
                else:
                    target, want = O.witt_expected(op, idx, a, b, k, p)
                got = [c.constant_value() for c in res.as_list()]
                return O.check_vector(got, target, want)

            ops.append(Op(f"{op} {spec} over {ring_name}", run, check))
        return _keyed(ops, rng)


# ---------------------------------------------------------------------------
# lambda-xbasis: re-expressing Adams-model elements over the X basis


def _sigmas(P, depth):
    """Non-decreasing prime sequences over P of length <= depth."""
    out = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [(p,) + s for s in frontier for p in P if not s or p <= s[0]]
        out += frontier
    return out


class LambdaXBasis(Workload):
    name = "lambda-xbasis"
    PRIMES = (2, 3)
    RANDOM_ELEMENTS = 8

    def setup(self, seed):
        from lambda_forge.lambdaring import FreeLambdaBasis, verify_joyal_rezk

        rng = random.Random(seed)
        P = self.PRIMES
        self.verify_joyal_rezk = verify_joyal_rezk
        self.verified = {}
        # the bases of integrality_report(P, 2), and the Joyal-Rezk basis
        self.basis = FreeLambdaBasis(P, 2)
        self.wide = FreeLambdaBasis(P, 3)
        self.jr = FreeLambdaBasis(P, 2, N=81)
        self.point = {n: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for n in range(1, 400)}
        v = self.point
        sig = _sigmas(P, 2)
        embed = self.basis.embed
        model = self.wide.model
        self.cases = []  # (label, basis, element, value at v, divisor, expected X map)
        for i, s in enumerate(sig):
            for t in sig[i:]:
                value = O.sigma_value(s, v) * O.sigma_value(t, v)
                self.cases.append((f"product {s}*{t}", self.wide, embed[s] * embed[t], value, 1, None))
        for s in sig:
            for p in P:
                value = O.sigma_value((p,) + s, v)
                self.cases.append((f"delta_{p} {s}", self.wide, model.delta(p, embed[s]), value, 1, None))
        monomials = [((s,), embed[s]) for s in sig]
        monomials += [((s, t), embed[s] * embed[t]) for i, s in enumerate(sig) for t in sig[i:] if s or t]
        for p in P:
            for factors, e in monomials:
                vp = O.psi_point(v, p)
                value = prod(O.sigma_value(f, vp) for f in factors) - prod(O.sigma_value(f, v) for f in factors) ** p
                self.cases.append((f"congruence_{p} {factors}", self.wide, model.psi(p, e) - e ** p, value, p, None))
        for p in P:
            for s in sig:
                index = prod(s)
                n, m = 0, index
                while m % p == 0:
                    n, m = n + 1, m // p
                vm = O.psi_point(v, m)
                delta_it = self.basis.model.x
                theta_it = self.basis.model.x
                for _ in range(n):
                    delta_it = self.basis.model.delta(p, delta_it)
                    theta_it = self.basis.model.frobenius_deviation(p, theta_it)
                for fam, e, divide in (("delta", delta_it, True), ("theta", theta_it, False)):
                    value = O.delta_iterate_value(p, n, vm, divide)
                    lead = m if divide else p ** n * m
                    element = self.basis.model.psi(m, e)
                    self.cases.append((f"plocal_{p} {fam} n={n} m={m}", self.basis, element, value,
                                       ("plocal", p, s, lead), None))
        jr_top = max(prod(s) for s in sig)
        spans = {prod(s) for s in sig}
        for p in P:
            for s in sig:
                if prod(s) * p in spans:
                    value = O.sigma_value((p,) + s, v)
                    self.cases.append((f"jr delta_{p} {s}", self.jr, self.jr.model.delta(p, self.jr.embed[s]), value, 1, None))
        names = {s: "X" + "_".join(map(str, s)) if s else "X0" for s in sig}
        for r in range(self.RANDOM_ELEMENTS):
            picks = rng.sample(monomials, 3)
            element = None
            expected = {}
            value = Fraction(0)
            for factors, e in picks:
                c = rng.choice([c for c in range(-9, 10) if c])
                element = e * c if element is None else element + e * c
                key = {}
                for f in factors:
                    key[names[f]] = key.get(names[f], 0) + 1
                expected[tuple(sorted(key.items()))] = Fraction(c)
                value += c * prod(O.sigma_value(f, v) for f in factors)
            self.cases.append((f"combination {r}", self.wide, element, value, 1, expected))
        self.commutations = [(p, q, s) for p in P for q in P if p != q for s in sig]
        self.jr_cases = sum(1 for p in P for s in sig if prod(s) * p <= jr_top) + len(self.commutations)

    def _x_op(self, label, basis, element, value, divisor, expected):
        v = self.point

        def check(res):
            xp, integral = res
            # the round trip costs more than the operation; an answer equal
            # to one that passed every check below is right as well
            if label in self.verified:
                return None if (xp, integral) == self.verified[label] else f"{label}: answer changed"
            problem = full_check(xp, integral)
            if problem is None:
                self.verified[label] = (xp, integral)
            return problem

        def full_check(xp, integral):
            problem = O.check_x_expression(xp.vars, xp.terms, value, v)
            if problem:
                return f"{label}: {problem}"
            if isinstance(divisor, tuple):
                _, p, s, lead = divisor
                for c in xp.terms.values():
                    if Fraction(c).denominator % p == 0:
                        return f"{label}: coefficient {c} is not {p}-integral"
                name = "X" + "_".join(map(str, s)) if s else "X0"
                if O.monomial_map(xp.vars, xp.terms).get(((name, 1),)) != lead:
                    return f"{label}: leading coefficient is not {lead}"
            else:
                problem = O.check_integral(xp.terms, divisor)
                if problem:
                    return f"{label}: {problem}"
                if not integral:
                    return f"{label}: flagged non-integral"
            if expected is not None and O.monomial_map(xp.vars, xp.terms) != expected:
                return f"{label}: not the combination it was built from"
            if basis.from_x_basis(xp) != element:
                return f"{label}: from_x_basis(to_x_basis(e)) != e"
            return None

        return Op(label, lambda: basis.to_x_basis(element), check)

    def _commutation_op(self, p, q, s):
        model = self.jr.model
        e = self.jr.embed[s]
        want = O.sigma_value((p,) + s, O.psi_point(self.point, q))

        def run():
            return model.psi(q, model.delta(p, e)), model.delta(p, model.psi(q, e))

        def check(res):
            lhs, rhs = res
            if lhs != rhs:
                return f"psi^{q} delta_{p} {s} != delta_{p} psi^{q} {s}"
            got = O.eval_terms(lhs.vars, lhs.terms, O.x_env_model(lhs.vars, self.point))
            if got != want:
                return f"psi^{q} delta_{p} {s} takes {got} at the point, expected {want}"
            return None

        return Op(f"commute {p} {q} {s}", run, check)

    def round(self, rng):
        ops = [self._x_op(*case) for case in self.cases]
        ops += [self._commutation_op(*c) for c in self.commutations]

        def check_report(report):
            if report.get("status") != "pass" or report.get("cases") != self.jr_cases:
                return f"joyal-rezk report: status {report.get('status')}, cases {report.get('cases')}"
            return None

        ops.append(Op("verify_joyal_rezk", lambda: self.verify_joyal_rezk(self.jr, 2), check_report))
        return _keyed(ops, rng)


# ---------------------------------------------------------------------------
# cli-tour: one lambda-forge process per operation


LAUNCH = "import sys; from lambda_forge.cli import main; sys.exit(main())"
REFERENCE = "import argparse, fractions, json, re, threading"
# about the reference process's wall time on the reference host
REF_PROCESS_S = 0.050


class CliResult:
    __slots__ = ("code", "stdout", "stderr")

    def __init__(self, code, stdout, stderr):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def _expect_code(res, code):
    if "Traceback" in res.stderr:
        raise OpFailed(f"traceback: {res.stderr.strip().splitlines()[-1]}")
    if res.code != code:
        raise OpFailed(f"exit code {res.code}, expected {code}: {res.stderr.strip()[:200]}")


def _fields(res, code=0):
    _expect_code(res, code)
    return O.text_fields(res.stdout)


def _same_poly(text, fn, names, rng_seed):
    """A printed polynomial equals fn(env) at a few integer points."""
    rng = random.Random(rng_seed)
    for _ in range(3):
        env = {n: rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for n in names}
        if O.eval_text(text, env) != fn(env):
            return False
    return True


def _tour(seed):
    """README CLI-tour commands with checks made apart from the program."""
    r = seed

    def structure(res):
        f = _fields(res)
        S = [1, 2]
        polys = {}
        for n in S:
            polys[n] = f[f"polys.{n}"]
        rng = random.Random(r)
        for _ in range(3):
            a = {n: rng.randint(-5, 5) for n in S}
            b = {n: rng.randint(-5, 5) for n in S}
            env = {f"a{n}": a[n] for n in S}
            env.update({f"b{n}": b[n] for n in S})
            comps = {n: O.eval_text(polys[n], env) for n in S}
            wr, wa, wb = O.ghost(S, comps), O.ghost(S, a), O.ghost(S, b)
            if any(wr[n] != wa[n] + wb[n] for n in S):
                return "structure add: ghost additivity fails"
        return None

    def poly_list(key, fns, names):
        def check(res):
            got = O.text_list(_fields(res)[key])
            if len(got) != len(fns):
                return f"{key}: {len(got)} entries, expected {len(fns)}"
            for i, (text, fn) in enumerate(zip(got, fns)):
                if not _same_poly(text, fn, names, r + i):
                    return f"{key}[{i}] = {text} is wrong"
            return None
        return check

    def exact(key, want):
        def check(res):
            got = _fields(res).get(key)
            return None if got == want else f"{key}: {got!r}, expected {want!r}"
        return check

    def poly_field(key, fn, names):
        def check(res):
            text = _fields(res).get(key, "")
            return None if _same_poly(text, fn, names, r) else f"{key} = {text} is wrong"
        return check

    def series(res):
        text = _fields(res)["series"]
        body, _, order = text.rpartition(" + O(")
        if order != "t^4)":
            return f"series precision {order!r}"
        return None if _same_poly(body, lambda e: 1 - e["a"] * e["t"], ("a", "t"), r) else f"series {text}"

    def comult(res):
        f = _fields(res)
        rows = [O.text_list(f["components.1"]), O.text_list(f["components.2"])]
        return None if rows == [["a", "0"], ["0", "0"]] else f"comult of a Teichmuller lift: {rows}"

    def w2(res):
        f = _fields(res)
        inside = sum(1 for u in range(-10, 11) for v in range(-10, 11) if (v - u * u) % 2 == 0)
        if f.get("status") != "pass" or f.get("points_in_fibered_product") != str(inside):
            return f"w2-check: {f.get('status')}, {f.get('points_in_fibered_product')} points"
        return None if f.get("points_rejected") == str(21 * 21 - inside) else "w2-check rejected count"

    def free_phi(res):
        f = _fields(res)
        for i in range(3):
            if not _same_poly(f[f"phi.x{i}"], lambda e, i=i: e[f"x{i}"] ** 2 + 2 * e[f"x{i + 1}"], (f"x{i}", f"x{i + 1}"), r + i):
                return f"phi.x{i} is wrong"
        return None

    def not_a_lift(res):
        f = _fields(res, 2)
        ok = f.get("error") == "NotAFrobeniusLift" and f.get("witness") == "u"
        return None if ok else f"from-phi u->u^2+u: {f}"

    def verify_status(code):
        def check(res):
            f = _fields(res, code)
            want = "pass" if code == 0 else "fail"
            return None if f.get("status") == want else f"status {f.get('status')}, expected {want}"
        return check

    def x_basis(res):
        f = _fields(res)
        if f.get("integral") != "True":
            return "x2 flagged non-integral"
        # x2 = X0^2 + 2*X2 since X2 = delta_2(x) = (x2 - x1^2)/2
        return None if _same_poly(f["x_basis"], lambda e: e["X0"] ** 2 + 2 * e["X2"], ("X0", "X2"), r) else "x_basis wrong"

    def embedding(res):
        f = _fields(res)
        if f.get("element") != "X2":
            return "wrong element"
        return None if _same_poly(f["embedding"], lambda e: Fraction(e["x2"] - e["x1"] ** 2, 2), ("x1", "x2"), r) else "embedding wrong"

    return [
        (["witt", "structure", "--op", "add", "--p", "2", "--len", "2"], structure),
        (["witt", "ghost", "--trunc", "big:4", "--input", "[a,0,0,0]"],
         poly_list("ghost", [lambda e, k=k: e["a"] ** k for k in range(1, 5)], ("a",))),
        (["witt", "add", "--p", "2", "--len", "2", "--a", "[1,0]", "--b", "[1,0]"], exact("add", "[2, -1]")),
        (["witt", "frobenius", "--n", "2", "--p", "2", "--len", "2", "--input", "[a,b]"],
         poly_list("frobenius", [lambda e: e["a"] ** 2 + 2 * e["b"]], ("a", "b"))),
        (["witt", "verschiebung", "--n", "2", "--trunc", "p:2,3", "--input", "[a,b]"], exact("verschiebung", "[0, a, b]")),
        (["witt", "restrict", "--trunc", "big:3", "--to", "big:2", "--input", "[a,b,c]"], exact("restrict", "[a, b]")),
        (["witt", "series", "--trunc", "big:3", "--input", "[a,0,0]"], series),
        (["witt", "comonad", "--op", "comult", "--outer", "big:2", "--inner", "big:2", "--input", "[a,0,0]"], comult),
        (["witt", "w2-check", "--p", "2", "--bound", "10"], w2),
        (["delta", "free", "--p", "2", "--depth", "3", "--show", "phi"], free_phi),
        (["delta", "extend", "--p", "2", "--depth", "3", "--expr", "2*x0"],
         poly_field("delta", lambda e: 2 * e["x1"] - e["x0"] ** 2, ("x0", "x1"))),
        (["delta", "from-phi", "--p", "3", "--ring", "Z", "--phi", "id", "--eval", "2"], exact("value", str((2 - 2 ** 3) // 3))),
        (["delta", "from-phi", "--p", "2", "--ring", "Z[u]", "--phi", "u->u^2+u"], not_a_lift),
        (["delta", "section", "--p", "2", "--ring", "Z", "--eval", "3"], exact("section", "[3, -3]")),
        (["lambda", "free", "--primes", "2,3", "--depth", "2", "--show", "X(2)"], embedding),
        (["lambda", "adams", "--N", "12", "--m", "2", "--expr", "x3"], exact("result", "x6")),
        (["lambda", "newton", "--psi", "id", "--K", "4", "--eval", "5"], exact("lambda", "[5, 10, 10, 5]")),
        (["lambda", "wilkerson", "--ring", "Z[u]", "--phi", "2:u->u^2", "--K", "2", "--eval-gen", "u"], exact("lambda", "[u, 0]")),
        (["lambda", "to-x-basis", "--primes", "2,3", "--depth", "2", "--expr", "x2"], x_basis),
        (["lambda", "coaction", "--ring", "Z", "--psi", "id", "--trunc", "big:2", "--eval", "2"], exact("coaction", "[2, -1]")),
        (["verify", "joyal-rezk", "--primes", "2,3", "--depth", "2"], verify_status(0)),
        (["verify", "fracture", "--group", "Z/12"], verify_status(0)),
        (["verify", "joyal-rezk", "--corrupt"], verify_status(3)),
    ]


# argv the program must reject with exit code 1 or 2 and a clean message;
# the first three are accepted or crash today and count as failed
MALFORMED = [
    ["witt", "ghost", "--trunc", "big:x", "--input", "[a]"],
    ["delta", "extend", "--p", "4", "--depth", "2", "--expr", "x0"],
    ["witt", "structure", "--op", "add", "--p", "1", "--len", "3"],
    ["witt", "frobenius", "--p", "2", "--len", "2", "--input", "[a,b]"],
    ["lambda", "adams", "--m", "2", "--expr", "x3 +"],
    ["witt", "add", "--p", "2", "--len", "2", "--a", "[1,0", "--b", "[1,0]"],
    ["verify", "all", "--seed", "-1"],
    ["lambda", "free", "--primes", "4", "--depth", "2"],
]


def _rejected(res):
    if "Traceback" in res.stderr:
        raise OpFailed(f"traceback: {res.stderr.strip().splitlines()[-1]}")
    if res.code == 1 and res.stderr.startswith("usage error:"):
        return None
    if res.code == 2 and res.stdout.startswith("error:"):
        return None
    raise OpFailed(f"exit code {res.code} for malformed input")


class CliTour(Workload):
    name = "cli-tour"
    peak_rss_children = True
    # (op, p, len) read from the disk cache the setup fills
    CACHED = [("add", 2, 6), ("add", 2, 6), ("mul", 2, 5), ("mul", 2, 5), ("add", 3, 4), ("mul", 3, 4)]

    def __init__(self, root: str, in_process: bool = False):
        self.root = root
        self.in_process = in_process
        if not in_process:
            # a process start slows with the host in its own way (system
            # calls, page faults), so processes are scaled by a process
            from harness import Calibration

            self.calibration = Calibration(self.reference_process, REF_PROCESS_S, 0.25)

    def setup(self, seed):
        from lambda_forge import witt

        self.w = witt
        rng = random.Random(seed)
        self.tmp = os.path.join(self.root, ".bench_tmp", str(os.getpid()))
        self.cache = os.path.join(self.tmp, "cache")
        os.makedirs(self.cache, exist_ok=True)
        previous = os.environ.get("LAMBDA_FORGE_CACHE_DIR")
        os.environ["LAMBDA_FORGE_CACHE_DIR"] = self.cache
        try:
            for op, p, k in sorted(set(self.CACHED)):
                witt.structure_poly_map(op, witt.TruncationSet.p_typical(p, k))
        finally:
            if previous is None:
                os.environ.pop("LAMBDA_FORGE_CACHE_DIR")
            else:
                os.environ["LAMBDA_FORGE_CACHE_DIR"] = previous
        witt.clear_memo()
        self.env = dict(os.environ)
        self.env.pop("LAMBDA_FORGE_CACHE_DIR", None)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.commands = []  # (argv, extra env, check)
        for argv, check in _tour(seed):
            self.commands.append((argv, {}, check))
        first = {}

        def verify_all(key):
            def check(res):
                _expect_code(res, 0)
                report = json.loads(res.stdout)
                if report.get("status") != "pass" or any(r.get("status") != "pass" for r in report["reports"]):
                    return "verify all: a suite did not pass"
                if key == 0:
                    first["out"] = res.stdout
                    return None
                return None if res.stdout == first.get("out") else "verify all differs between PYTHONHASHSEED values"
            return check

        for key in (0, 1):
            self.commands.append((["verify", "all", "--seed", "7", "--format", "json"],
                                  {"PYTHONHASHSEED": str(key)}, verify_all(key)))
        for op, p, k in self.CACHED:
            S = O.p_typical(p, k)
            a = {n: rng.randint(-20, 20) for n in S}
            b = {n: rng.randint(-20, 20) for n in S}
            argv = ["witt", op, "--p", str(p), "--len", str(k),
                    "--a", "[" + ",".join(str(a[n]) for n in S) + "]",
                    "--b", "[" + ",".join(str(b[n]) for n in S) + "]"]
            target, want = O.witt_expected(op, S, a, b)

            def check(res, op=op, target=target, want=want):
                got = [int(x) for x in O.text_list(_fields(res)[op])]
                return O.check_vector(got, target, want)

            self.commands.append((argv, {"LAMBDA_FORGE_CACHE_DIR": self.cache}, check))
        for argv in MALFORMED:
            self.commands.append((argv, {}, _rejected))

    def reference_process(self) -> float:
        """Wall time of a Python process that imports what the CLI's
        standard-library imports and nothing of lambda-forge."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE], env=self.env, cwd=self.root,
                       capture_output=True, timeout=60, check=True)
        return time.perf_counter() - start

    def run_subprocess(self, argv, extra):
        env = dict(self.env)
        env.update(extra)
        proc = subprocess.run([sys.executable, "-c", LAUNCH] + argv, env=env, cwd=self.root,
                              capture_output=True, text=True, timeout=120)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def run_in_process(self, argv, extra):
        """The same command through cli.main, as a fresh process would see it."""
        from lambda_forge import cli

        saved = os.environ.pop("LAMBDA_FORGE_CACHE_DIR", None)
        if "LAMBDA_FORGE_CACHE_DIR" in extra:
            os.environ["LAMBDA_FORGE_CACHE_DIR"] = extra["LAMBDA_FORGE_CACHE_DIR"]
        self.w.clear_memo()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except Exception as exc:  # the program's own uncaught error
                    print(f"Traceback (in process): {exc!r}", file=sys.stderr)
                    code = 1
        finally:
            os.environ.pop("LAMBDA_FORGE_CACHE_DIR", None)
            if saved is not None:
                os.environ["LAMBDA_FORGE_CACHE_DIR"] = saved
        return CliResult(code, out.getvalue(), err.getvalue())

    def round(self, rng):
        run = self.run_in_process if self.in_process else self.run_subprocess
        return _keyed([Op(" ".join(argv), lambda argv=argv, extra=extra: run(argv, extra), check)
                       for argv, extra, check in self.commands])

    def close(self):
        shutil.rmtree(getattr(self, "tmp", ""), ignore_errors=True)
        parent = os.path.join(self.root, ".bench_tmp")
        with contextlib.suppress(OSError):
            os.rmdir(parent)


WORKLOADS = {
    "witt-symbolic": WittSymbolic,
    "witt-numeric": WittNumeric,
    "lambda-xbasis": LambdaXBasis,
    "cli-tour": CliTour,
}
