"""Exception hierarchy.

Domain errors are semantically meaningful: several of them double as
failure certificates (a ``NotDivisible`` carries the exact term that
obstructs an integrality claim, a ``NotAFrobeniusLift`` carries the
witness term of the failed congruence, and so on).  The CLI maps
``UsageError`` to exit code 1 and every ``DomainError`` to exit code 2.
"""


class ForgeError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(ForgeError):
    """Malformed command line or malformed textual input."""


class DomainError(ForgeError):
    """A mathematically meaningful failure (not a bug, not bad argv)."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class MixedCoefficientRings(DomainError):
    """Two operands live over different coefficient rings."""


class NotDivisible(DomainError):
    """Exact division failed; carries the first offending term or index."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"not divisible, witness: {witness}")

    def payload(self) -> dict:
        return {
            "error": "NotDivisible",
            "witness": str(self.witness),
            "message": str(self),
        }


class NonUnitConstantTerm(DomainError):
    """Series operation requires constant coefficient 1."""


class TruncationMismatch(DomainError):
    """Witt vectors indexed by incompatible truncation sets."""


class NotASubset(DomainError):
    """Restriction target is not a sub-truncation-set."""


class IntegralityViolation(DomainError):
    """A universal structure polynomial came out non-integral.

    This must never fire: it indicates a bug in the solver, not bad input,
    and is surfaced rather than swallowed.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"integrality violated at index {index}")


class NotAFrobeniusLift(DomainError):
    """phi(g) - g^p is not divisible by p; carries generator and witness term."""

    def __init__(self, generator, witness):
        self.generator = generator
        self.witness = witness
        super().__init__(f"phi({generator}) - {generator}^p not divisible: witness {witness}")

    def payload(self) -> dict:
        return {
            "error": "NotAFrobeniusLift",
            "generator": str(self.generator),
            "witness": str(self.witness),
            "message": str(self),
        }


class NonCommutingLifts(DomainError):
    """Two Frobenius lifts fail to commute; carries primes and witness."""

    def __init__(self, p, q, witness):
        self.p = p
        self.q = q
        self.witness = witness
        super().__init__(f"lifts for {p} and {q} do not commute, witness: {witness}")


class DepthExceeded(DomainError):
    """A free delta-ring computation needs delta of the last generator."""


class IndexOutOfRange(DomainError):
    """An Adams operation left the finite model Q[x_1..x_N]."""


class NotInSpan(DomainError):
    """An element uses an x-index outside the triangular basis span."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"x-index {index} outside the basis span")


class NotPIntegral(DomainError):
    """A coefficient has the localized prime in its denominator."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not p-integral, witness: {witness}")


class NotFinitelyGenerated(DomainError):
    """Fracture check input is not a finitely generated group."""


class CostLimitExceeded(DomainError):
    """A request whose estimated work is over a fixed limit, refused before
    any of it runs; the message states the estimate and the limit."""
