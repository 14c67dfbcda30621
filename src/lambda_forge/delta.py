"""p-typical delta-rings on torsion-free polynomial presentations.

A presentation fixes a prime p, named generators and a delta-value for
each generator; the Frobenius lift phi(g) = g^p + p*delta(g) extends to
the whole ring by substitution, and delta extends to arbitrary elements
as (phi(e) - e^p)/p, which is exact because the ambient ring is
torsion-free.  The closed-form sum/product recursion is an independent
oracle for this route and lives in the tests.

A delta-structure is a section of W_2(A) -> A, so the checks of the W_2
pullback W_2(A) = A x_{A/p} A live here too; they load ``witt`` when they
run.
"""

from __future__ import annotations

from .errors import CostLimitExceeded, DepthExceeded, NotAFrobeniusLift, NotDivisible, UsageError
from .poly import MultiPoly, _check_gens, _gen_names, deviation
from .rings import ZZ, CoeffRing, _as_int, _prime, _take, json_field


class DeltaPresentation:
    """Prime p, generator names, and delta on each generator.

    ``phi_on_gens`` is the Frobenius lift g -> g^p + p*delta(g), defined
    where delta is and built once.
    """

    __slots__ = ("p", "gens", "delta_on_gens", "phi_on_gens")

    def __init__(self, p: int, gens, delta_on_gens: dict):
        self.p = p = _prime(p, "delta-rings need a prime p")
        self.gens = _gen_names(gens, "the generators gens of a delta presentation")
        fixed = {}
        for g, val in _take(delta_on_gens, dict, "the delta_on_gens of a presentation").items():
            if g not in self.gens:
                raise UsageError(f"delta assigned to unknown generator {g}")
            if not isinstance(val, MultiPoly):
                val = MultiPoly.const(ZZ, val)
            if not set(val.vars) <= set(self.gens):
                raise UsageError(f"delta({g}) leaves the presentation ring")
            fixed[g] = val
        self.delta_on_gens = fixed
        self.phi_on_gens = {g: MultiPoly.var(ZZ, g) ** p + fixed[g] * p for g in self.gens if g in fixed}

    def __repr__(self):
        inner = ", ".join(f"{g}: {v}" for g, v in sorted(self.delta_on_gens.items()))
        return f"DeltaPresentation(p={self.p}, Z[{', '.join(self.gens)}], delta={{{inner}}})"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "gens": list(self.gens),
            "delta": {g: self.delta_on_gens[g].to_json() for g in sorted(self.delta_on_gens)},
        }

    @staticmethod
    def from_json(obj: dict) -> "DeltaPresentation":
        delta = {g: MultiPoly.from_json(v) for g, v in json_field(obj, "delta", dict).items()}
        return DeltaPresentation(json_field(obj, "p"), json_field(obj, "gens", list), delta)

    def _check_in_domain(self, e: MultiPoly):
        _check_gens(e, self.gens)
        missing = sorted(set(e.vars) - set(self.delta_on_gens))
        if missing:
            raise DepthExceeded(
                f"delta({missing[0]}) is not assigned (truncation depth exceeded)"
            )

    def phi(self, e: MultiPoly) -> MultiPoly:
        self._check_in_domain(e)
        return e.substitute(self.phi_on_gens)

    def delta(self, e: MultiPoly) -> MultiPoly:
        """delta(e) = (phi(e) - e^p) / p, exact on the torsion-free base."""
        if not isinstance(e, MultiPoly):
            e = MultiPoly.const(ZZ, e)
        self._check_in_domain(e)
        try:
            return deviation(self.phi(e), e, self.p, self.p)
        except NotDivisible as exc:
            # impossible for torsion-free presentations; surfaced as a bug
            raise NotDivisible(exc.witness, f"internal consistency failure: {exc}") from None


def delta_from_phi(p: int, gens, phi_on_gens: dict) -> DeltaPresentation:
    """Recover delta from a Frobenius lift; the inverse of ``phi_on_gens``.

    Raises ``NotAFrobeniusLift`` with the first witness term when some
    phi(g) - g^p is not divisible by p.
    """
    p = _prime(p, "delta-rings need a prime p")
    gens = _gen_names(gens, "the generators gens of a delta presentation")
    for g in _take(phi_on_gens, dict, "the lift phi_on_gens of a presentation"):
        if g not in gens:
            raise UsageError(f"phi assigned to unknown generator {g}")
    delta = {}
    for g in gens:
        image = phi_on_gens.get(g)
        if image is None:
            raise UsageError(f"phi not given on generator {g}")
        if not isinstance(image, MultiPoly):
            image = MultiPoly.const(ZZ, image)
        try:
            delta[g] = deviation(image, MultiPoly.var(ZZ, g), p, p)
        except NotDivisible as exc:
            raise NotAFrobeniusLift(g, exc.witness) from None
    return DeltaPresentation(p, gens, delta)


def free_delta_ring(p: int, depth: int) -> DeltaPresentation:
    """Z[x_0..x_depth] with delta(x_n) = x_(n+1); phi(x_n) = x_n^p + p x_(n+1).

    delta of the last generator leaves the truncation and raises
    ``DepthExceeded``.
    """
    depth = _as_int(depth, 1, "free delta-rings need depth >= 1")
    gens = [f"x{i}" for i in range(depth + 1)]
    delta = {f"x{i}": MultiPoly.var(ZZ, f"x{i + 1}") for i in range(depth)}
    return DeltaPresentation(p, gens, delta)


def w2_congruence_witness(p: int) -> dict:
    """Symbolic check that w_1 = w_0^p holds mod p on W_2."""
    from .witt import TruncationSet, _sym_vec, ghost_map

    S = TruncationSet.p_typical(p, 2)
    a = _sym_vec("a", S)
    g = ghost_map(a)
    diff = deviation(g.comps[p], g.comps[1], p)
    quotient = diff.div_int(p)  # exact by construction: w_1 - w_0^p = p * a_p
    modp = diff.convert_ring(CoeffRing.modular(p))
    return {
        "p": p,
        "difference": str(diff),
        "quotient_by_p": str(quotient),
        "vanishes_mod_p": modp.is_zero(),
    }


def w2_pullback_check(p: int, bound: int, gens=()) -> dict:
    """Verify W_2(A) -> {(u, v) : v = u^p mod p} is a bijection on a box.

    A is Z, or Z[gens] when generators are named: p-torsion-free, so the
    derived reduction is A/p and the inverse is (u, v) -> (u, (v - u^p) / p).
    Integer boxes are checked exhaustively; a polynomial ring is checked on
    symbolic generators, and its report states no bound.
    """
    from .witt import TruncationSet, WittVec, ghost_map

    bound = _as_int(bound, 0, "the box check needs bound >= 0")
    S = TruncationSet.p_typical(p, 2)
    report = {"p": p} if gens else {"p": p, "bound": bound}
    report["congruence"] = w2_congruence_witness(p)
    if gens:
        # symbolic spot check: (u, v) = (g, g^p + p h) round-trips
        u = MultiPoly.var(ZZ, gens[0])
        h = MultiPoly.var(ZZ, gens[-1] + "_h")
        v = u ** p + h * p
        vec = WittVec(S, ZZ, {1: u, p: deviation(v, u, p, p)})
        g = ghost_map(vec)
        report["symbolic_roundtrip"] = g.comps[1] == u and g.comps[p] == v
        report["status"] = "pass" if report["symbolic_roundtrip"] else "fail"
        return report
    if bound > 100:
        raise CostLimitExceeded(
            f"a box of bound {bound} has {(2 * bound + 1) ** 2} points, over the limit of {201 ** 2} (bound <= 100)"
        )
    accepted = 0
    rejected = 0
    for u in range(-bound, bound + 1):
        for v in range(-bound, bound + 1):
            if (v - u ** p) % p:
                rejected += 1
                continue
            g = ghost_map(WittVec(S, ZZ, {1: u, p: (v - u ** p) // p}))
            got = (g.comps[1].constant_value(), g.comps[p].constant_value())
            if got != (u, v):
                report.update({"status": "fail", "witness": {"u": u, "v": v, "ghost": [str(x) for x in got]}})
                return report
            accepted += 1
    report.update({
        "status": "pass",
        "points_in_fibered_product": accepted,
        "points_rejected": rejected,
    })
    return report
