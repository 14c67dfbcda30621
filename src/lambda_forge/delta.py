"""p-typical delta-rings on torsion-free polynomial presentations.

A presentation fixes a prime p, named generators and a delta-value for
each generator; the Frobenius lift phi(g) = g^p + p*delta(g) extends to
the whole ring by substitution, and delta extends to arbitrary elements
as (phi(e) - e^p)/p, which is exact because the ambient ring is
torsion-free.  The closed-form sum/product recursion is an independent
oracle for this route and lives in the tests.
"""

from __future__ import annotations

from .errors import DepthExceeded, NotAFrobeniusLift, NotDivisible, UsageError
from .poly import MultiPoly, _check_gens, deviation
from .rings import ZZ, _as_int, _collection, _prime, _take, json_field


class DeltaPresentation:
    """Prime p, generator names, and delta on each generator.

    ``phi_on_gens`` is the Frobenius lift g -> g^p + p*delta(g), defined
    where delta is and built once.
    """

    __slots__ = ("p", "gens", "delta_on_gens", "phi_on_gens")

    def __init__(self, p: int, gens, delta_on_gens: dict):
        self.p = p = _prime(p, "delta-rings need a prime p")
        self.gens = _collection(gens, "the generators gens of a delta presentation")
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
    gens = _collection(gens, "the generators gens of a delta presentation")
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

