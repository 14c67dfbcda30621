import pytest
from hypothesis import given, settings, strategies as st

from lambda_forge.abelian import (
    FgAbGroup,
    fracture_check,
    parse_group,
)
from lambda_forge.errors import NotFinitelyGenerated, UsageError
from lambda_forge.rings import _factorize


def primary_decomposition_group(rank, torsion):
    """Invariant factors through primary decomposition: the oracle for the gcd-lcm chain.

    It checks ``FgAbGroup.from_summands`` with no gcd or lcm of its own.
    Each summand Z/d splits into prime powers; the i-th invariant factor
    from the top multiplies the i-th largest power of every prime.
    """
    primary = {}
    for d in torsion:
        d = abs(int(d))
        if d == 0:
            rank += 1
            continue
        for p, e in _factorize(d).items():
            primary.setdefault(p, []).append(e)
    depth = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for p, exps in primary.items():
            exps = sorted(exps, reverse=True)
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    return FgAbGroup(rank, sorted(factors))


PRIME_POWERS = [p ** k for p in (2, 3, 5, 7) for k in (1, 2, 3)]


class TestFgAbGroup:
    def test_invariant_factor_normalization(self):
        assert FgAbGroup.from_summands(0, [4, 6]) == FgAbGroup(0, (2, 12))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, -1]),
                st.sampled_from(PRIME_POWERS),
                st.sampled_from(PRIME_POWERS).map(lambda q: -q),
                st.integers(-200, 200),
            ),
            max_size=6,
        ),
    )
    def test_summands_agree_with_primary_decomposition(self, rank, torsion):
        assert FgAbGroup.from_summands(rank, torsion) == primary_decomposition_group(rank, torsion)

    def test_divisibility_enforced(self):
        with pytest.raises(UsageError):
            FgAbGroup(0, (4, 6))

    def test_parse(self):
        assert parse_group("Z/12") == FgAbGroup(0, (12,))
        assert parse_group("Z + Z/2") == FgAbGroup(1, (2,))
        assert parse_group("Z^2+Z/4+Z/6") == FgAbGroup(2, (2, 12))
        assert parse_group("Z^0") == parse_group("Z/1") == parse_group("Z^0+Z/1") == FgAbGroup(0)

    @pytest.mark.parametrize("spec", ["Z^-1+Z^2", "Z/-4", "Z^-1", "Z/1_0", "Z/\u0664", "Z/4.0"])
    def test_parse_refuses_counts_that_are_not_decimal_digits(self, spec):
        with pytest.raises(UsageError, match="cannot parse group summand"):
            parse_group(spec)

    def test_localize(self):
        g = FgAbGroup(1, (12,))
        assert g.localize(2) == FgAbGroup(1, (4,))
        assert g.localize(3) == FgAbGroup(1, (3,))
        assert g.localize(5) == FgAbGroup(1, ())

    def test_torsion_support(self):
        assert FgAbGroup(0, (12,)).torsion_support() == [2, 3]


class TestFractureSquare:
    def test_z_mod_12_crt(self):
        report = fracture_check(parse_group("Z/12"))
        assert report["status"] == "pass"
        assert report["localizations"]["2"] == "Z/4"
        assert report["localizations"]["3"] == "Z/3"
        assert report["rational_rank"] == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_prime_power_single_factor(self, p, k):
        report = fracture_check(FgAbGroup(0, (p ** k,)))
        assert report["status"] == "pass"
        assert report["localizations"][str(p)] == f"Z/{p ** k}"

    def test_mixed_group(self):
        report = fracture_check(parse_group("Z + Z/2"))
        assert report["status"] == "pass"
        assert report["free_part"]["rank_matches"]

    def test_not_a_group(self):
        with pytest.raises(NotFinitelyGenerated):
            fracture_check("Z/12")
