"""Finitely generated abelian groups and the arithmetic fracture square.

Groups are held in invariant-factor form Z^r + Z/d_1 + ... + Z/d_k with
d_1 | d_2 | ... ; a direct sum of cyclic groups reaches this form through
the gcd-lcm chain on its orders.  The fracture check verifies that

    A  ->  (prod_p A_(p))  x_{(prod_p A_(p)) tensor Q}  (A tensor Q)

is an isomorphism, with the infinite product truncated to the torsion
support plus one witness prime and a symbolic generic-prime summand
carrying the free part.
"""

from __future__ import annotations

import re
from itertools import count, product as iter_product
from math import gcd, prod

from .errors import NotFinitelyGenerated, UsageError
from .rings import _as_int, _factorize, _is_prime, _prime

# largest torsion order whose elements the fracture check enumerates
TORSION_CAP = 200000


class FgAbGroup:
    """Z^rank + Z/d_1 + ... + Z/d_k with d_1 | d_2 | ... and d_i >= 2."""

    __slots__ = ("rank", "factors")

    def __init__(self, rank: int, factors=()):
        factors = [_as_int(d, 1, "invariant factors are positive") for d in factors]
        factors = tuple(d for d in factors if d != 1)
        rank = _as_int(rank)
        if rank < 0:
            raise NotFinitelyGenerated("negative rank")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise UsageError(f"invariant factors must divide: {a} does not divide {b}")
        self.rank = rank
        self.factors = factors

    @staticmethod
    def from_summands(rank: int, torsion) -> "FgAbGroup":
        """Build from arbitrary cyclic summands, e.g. Z/4 + Z/6 -> (2, 12).

        A summand Z/0 is free and the other orders count up to sign.  Each
        pair (d_i, d_j) with i < j is replaced by (gcd, lcm), which leaves
        d_i the gcd of d_i, d_(i+1), ... and so d_1 | d_2 | ... .
        """
        orders = [abs(_as_int(d)) for d in torsion]
        factors = [d for d in orders if d]
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                g = gcd(factors[i], factors[j])
                factors[i], factors[j] = g, factors[i] * factors[j] // g
        return FgAbGroup(_as_int(rank) + orders.count(0), factors)

    def __eq__(self, other):
        return (
            isinstance(other, FgAbGroup)
            and self.rank == other.rank
            and self.factors == other.factors
        )

    __hash__ = None

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.factors]
        return " + ".join(parts) if parts else "0"

    @property
    def torsion_order(self) -> int:
        return prod(self.factors) if self.factors else 1

    def torsion_support(self):
        return sorted({p for d in self.factors for p in _factorize(d)})

    def localize(self, p: int) -> "FgAbGroup":
        """A_(p): the free part survives, torsion keeps only its p-part."""
        p = _prime(p)
        return FgAbGroup(self.rank, [gcd(d, p ** d.bit_length()) for d in self.factors])

    def torsion_elements(self):
        """All torsion elements as tuples, one coordinate per factor."""
        return iter_product(*(range(d) for d in self.factors))


def parse_group(spec: str) -> FgAbGroup:
    """Grammar: summands joined by '+', each 'Z', 'Z^r' or 'Z/n', r and n
    written in decimal digits alone (no sign)."""
    rank = 0
    torsion = []
    for raw in spec.replace(" ", "").split("+"):
        if not raw:
            continue
        if raw == "Z":
            rank += 1
            continue
        m = re.fullmatch(r"Z([/^])([0-9]+)", raw)
        if not m:
            raise UsageError(f"cannot parse group summand {raw!r}")
        if m[1] == "^":
            rank += int(m[2])
        else:
            torsion.append(int(m[2]))
    return FgAbGroup.from_summands(rank, torsion)


def fracture_check(A: FgAbGroup) -> dict:
    """Verify the fracture pullback for a finitely generated group.

    Torsion is compared elementwise against the product of its
    localizations (Chinese remainder); the free part is matched through
    the rational corner by rank, with integrality of pullback elements
    witnessed on sampled denominators.
    """
    if not isinstance(A, FgAbGroup):
        raise NotFinitelyGenerated(f"{A!r} is not a finitely generated group")
    support = A.torsion_support()
    witness_prime = next(q for q in count(2) if _is_prime(q) and q not in support)
    explicit = support + [witness_prime]
    locals_ = {p: A.localize(p) for p in explicit}
    report = {
        "check": "fracture",
        "group": repr(A),
        "explicit_primes": explicit,
        "witness_prime": witness_prime,
        "localizations": {str(p): repr(locals_[p]) for p in explicit},
        "rational_rank": A.rank,
    }
    witnesses = []

    # torsion: A_tors -> prod_p (A_(p))_tors is a bijection (CRT)
    local_order = prod(locals_[p].torsion_order for p in explicit)
    if local_order != A.torsion_order:
        witnesses.append({"kind": "torsion_order", "witness": [A.torsion_order, local_order]})
    if A.torsion_order <= TORSION_CAP:
        # the p-part of each invariant factor; 1 where p does not divide it
        p_parts = {p: [gcd(d, p ** d.bit_length()) for d in A.factors] for p in explicit}
        images = set()
        for elem in A.torsion_elements():
            image = []
            for p in explicit:
                image.append(tuple(x % m for x, m in zip(elem, p_parts[p]) if m > 1))
            images.add(tuple(image))
        if len(images) != A.torsion_order:
            witnesses.append({"kind": "torsion_injectivity", "witness": len(images)})
    else:
        report["torsion_check"] = "structural (order above cap)"

    # free part through the rational corner: an element of the truncated
    # pullback is a rational vector that is p-integral at every explicit
    # prime and integral at the symbolic generic prime, hence integral.
    rank_off = [p for p in explicit if locals_[p].rank != A.rank]
    witnesses.extend({"kind": "rank", "prime": p} for p in rank_off)
    denominators = []
    for q in range(2, 7):
        blocker = next((p for p in explicit if q % p == 0), None)
        denominators.append({"denominator": q, "rejected_by": f"Z_({blocker})" if blocker else "generic summand"})
    report["free_part"] = {"rank_matches": not rank_off, "denominators_rejected": denominators}

    report["status"] = "pass" if not witnesses else "fail"
    report["witnesses"] = witnesses
    return report
