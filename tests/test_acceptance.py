"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison is plain equality (zero
tolerance); each criterion also carries a wall-clock budget.  Run with
``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import json
import os
import subprocess
import sys
import time

from lambda_forge.cli import main as cli_main
from lambda_forge.delta import free_delta_ring
from lambda_forge.lambdaring import FreeLambdaBasis, integrality_report, plocal_basis_check
from lambda_forge.poly import MultiPoly
from lambda_forge.rings import ZZ
from lambda_forge.verify import (
    coalgebra_suite,
    fracture_suite,
    ghost_compat_suite,
    joyal_rezk_suite,
    w2_pullback_suite,
    wilkerson_suite,
    witt_axioms_suite,
)
from test_delta import delta_extend_recursive

_TIMES = {}


def _criterion(number, label, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    _TIMES[number] = elapsed
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_ghost_compatibility():
    def body():
        report = ghost_compat_suite()
        assert report["status"] == "pass", report
        expected = ["p2l3", "p3l3", "p5l3", "big1", "big2", "big3", "big4", "big5", "big6"]
        assert report["truncations"] == expected

    _criterion(1, "ghost additivity/multiplicativity, integral structure polys", 60, body)


def test_criterion_2_exhaustive_ring_axioms():
    def body():
        report = witt_axioms_suite()
        assert report["status"] == "pass", report
        assert report["triples"] == 4096

    _criterion(2, "W_{p-typical(2,2)}(Z/4) ring axioms on all 4096 triples", 5, body)


def test_criterion_3_w2_pullback():
    def body():
        report = w2_pullback_suite()
        assert report["status"] == "pass", report
        for p in (2, 3):
            box = report["details"][f"box_p{p}"]
            total = box["points_in_fibered_product"] + box["points_rejected"]
            assert total == 21 * 21  # exhaustive on |u|,|v| <= 10

    _criterion(3, "W2 pullback: w_1 = w_0^p mod p and box bijection", 5, body)


def test_criterion_4_free_delta_ring():
    def body():
        x0, x1 = MultiPoly.var(ZZ, "x0"), MultiPoly.var(ZZ, "x1")
        for p in (2, 3, 5):
            pres = free_delta_ring(p, 3)
            # phi derived from delta(x_n) = x_{n+1} is a ring map on degree <= 3
            samples = [x0, x1, x0 + x1, x0 * x1, x0 ** 2 - x1, x0 ** 3, x0 ** 2 * x1 - 2]
            for a in samples:
                for b in samples:
                    assert pres.phi(a + b) == pres.phi(a) + pres.phi(b)
                    assert pres.phi(a * b) == pres.phi(a) * pres.phi(b)
            # both delta-extension routes agree on monomials of degree <= 3
            for i in range(4):
                for j in range(4 - i):
                    for c in (1, -2, 3):
                        e = x0 ** i * x1 ** j * c
                        assert pres.delta(e) == delta_extend_recursive(pres, e)

    _criterion(4, "free delta-ring: phi is a ring map, both routes agree", 30, body)


def test_criterion_5_joyal_rezk():
    def body():
        report = joyal_rezk_suite(primes=(2, 3, 5), depth=2)
        assert report["status"] == "pass", report
        assert report["corrupted_family_detected"]
        assert report["corrupted_witness"]

    _criterion(5, "Joyal-Rezk commutation P={2,3,5} depth 2 + corruption detected", 60, body)


def test_criterion_6_wilkerson():
    def body():
        report = wilkerson_suite()
        assert report["status"] == "pass", report
        assert report["non_lift_rejection"] == {"generator": "u", "witness": "u"}

    _criterion(6, "Wilkerson: binomial lambdas, line element, non-lift witness", 5, body)


def test_criterion_7_free_lambda_integrality():
    def body():
        report = integrality_report((2, 3), 2)
        assert report["status"] == "pass", report
        span = plocal_basis_check(2, FreeLambdaBasis((2, 3), 2), 2)
        assert span["status"] == "pass", span
        assert span["span_generated"]
        leads = {row["index"]: row["theta_leading"] for row in span["rows"]}
        assert leads == {1: "1", 2: "2", 3: "3", 4: "4", 6: "6", 9: "9"}

    _criterion(7, "free lambda-ring integrality, triangular pattern, p-local span", 120, body)


def test_criterion_8_coalgebra_laws():
    def body():
        report = coalgebra_suite()
        assert report["status"] == "pass", report
        assert report["ghost_law_big4"]

    _criterion(8, "W-coalgebra: ghost components, ring map, counit, coassociativity", 60, body)


def test_criterion_9_fracture_square():
    def body():
        report = fracture_suite()
        assert report["status"] == "pass", report
        assert len(report["groups"]) == 11  # Z/12, nine prime powers, Z + Z/2

    _criterion(9, "fracture square for Z/12, Z/p^k and Z + Z/2", 5, body)


def test_criterion_10_cli_determinism_and_exit_codes(capsys):
    def body():
        env = dict(os.environ)
        outputs = []
        for hashseed in ("11", "22"):
            env["PYTHONHASHSEED"] = hashseed
            result = subprocess.run(
                [sys.executable, "-m", "lambda_forge.cli", "verify", "all", "--seed", "7", "--format", "json"],
                capture_output=True,
                env=env,
            )
            assert result.returncode == 0
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1], "verify all --seed 7 must be byte-identical"
        payload = json.loads(outputs[0])
        assert payload["status"] == "pass"

        # the full exit-code matrix: 0 pass, 1 usage, 2 domain, 3 verification
        assert cli_main(["witt", "add", "--p", "2", "--len", "2", "--a", "[1,0]", "--b", "[1,0]"]) == 0
        assert cli_main(["witt", "ghost", "--trunc", "bogus"]) == 1
        assert cli_main(["delta", "from-phi", "--p", "2", "--ring", "Z[u]", "--phi", "u->u^2+u"]) == 2
        assert cli_main(["verify", "joyal-rezk", "--corrupt"]) == 3
        capsys.readouterr()

    _criterion(10, "CLI determinism (byte-identical) and 4-code exit matrix", 120, body)


def test_total_budget():
    total = sum(_TIMES.values())
    assert set(_TIMES) == set(range(1, 11)), "all criteria must have run"
    assert total < 120, f"acceptance suite took {total:.1f}s"
    print(f"acceptance total: {total:.2f}s over {len(_TIMES)} criteria")
