"""Tests of the benchmark itself: its oracles reject wrong answers, and
every workload runs to its end.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lambda_forge.lambdaring import FreeLambdaBasis  # noqa: E402
from lambda_forge.poly import MultiPoly  # noqa: E402
from lambda_forge.rings import CoeffRing, QQ, ZZ  # noqa: E402
from lambda_forge.witt import (  # noqa: E402
    TruncationSet,
    WittVec,
    comult_poly_map,
    frobenius,
    frobenius_poly_map,
    structure_poly_map,
)


def _bump(poly, delta=1):
    """The same polynomial with its first coefficient changed."""
    terms = dict(poly.terms)
    first = next(iter(terms))
    terms[first] = terms[first] + delta
    return MultiPoly(poly.ring, poly.vars, terms)


def _points(S, count=2):
    return [({n: (n % 3) + 1 for n in S}, {n: -((n % 2) + 1) for n in S}) for _ in range(count)]


# -- Witt vectors by ghost components ------------------------------------------


@pytest.mark.parametrize("ring,values", [
    (ZZ, ([3, -4, 5], [7, 2, -9])),
    (CoeffRing.modular(8), ([3, 4, 5], [7, 2, 1])),
    (QQ, ([Fraction(1, 2), 3, Fraction(-2, 3)], [2, Fraction(5, 7), -1])),
])
@pytest.mark.parametrize("op", ["add", "mul", "neg", "pow", "frobenius"])
def test_numeric_oracle_accepts_and_rejects(ring, values, op):
    S = O.p_typical(2, 3)
    trunc = TruncationSet.p_typical(2, 3)
    a = dict(zip(S, values[0]))
    b = dict(zip(S, values[1]))
    va = WittVec.from_list(trunc, ring, values[0])
    vb = WittVec.from_list(trunc, ring, values[1])
    res = {"add": lambda: va + vb, "mul": lambda: va * vb, "neg": lambda: -va,
           "pow": lambda: va ** 3, "frobenius": lambda: frobenius(2, va)}[op]()
    if ring.modulus:
        target, want = O.witt_expected_mod(op, S, ring.modulus, a, b, 3, 2)
    else:
        target, want = O.witt_expected(op, S, a, b, 3, 2)
    got = [c.constant_value() for c in res.as_list()]
    assert O.check_vector(got, target, want) is None
    for i in range(len(got)):
        altered = list(got)
        altered[i] = altered[i] + 1
        if ring.modulus:
            altered[i] %= ring.modulus
        assert O.check_vector(altered, target, want) is not None


def test_ghost_inverse_rejects_non_ghost_vectors():
    with pytest.raises(ValueError):
        O.ghost_inverse([1, 2], {1: 1, 2: 2})


@pytest.mark.parametrize("op", ["add", "mul", "neg"])
@pytest.mark.parametrize("S", [O.p_typical(2, 3), O.p_typical(3, 2), O.big(4)])
def test_structure_oracle_rejects_one_altered_coefficient(op, S):
    trunc = TruncationSet(S)
    polys = structure_poly_map(op, trunc)
    points = _points(S)
    assert O.check_structure(op, S, polys, points) is None
    for n in S:
        altered = dict(polys)
        altered[n] = _bump(polys[n])
        assert O.check_structure(op, S, altered, points) is not None


def test_frobenius_and_comult_oracles_reject_one_altered_coefficient():
    S = O.p_typical(2, 4)
    polys = frobenius_poly_map(2, TruncationSet(S))
    points = [a for a, _ in _points(S)]
    assert O.check_frobenius(2, S, polys, points) is None
    for d in polys:
        altered = dict(polys)
        altered[d] = _bump(polys[d])
        assert O.check_frobenius(2, S, altered, points) is not None
    Sb, Tb = O.big(2), O.big(3)
    polys = comult_poly_map(TruncationSet(Sb), TruncationSet(Tb))
    points = [a for a, _ in _points(O.product_set(Sb, Tb))]
    assert O.check_comult(Sb, Tb, polys, points) is None
    for key in polys:
        altered = dict(polys)
        altered[key] = _bump(polys[key])
        assert O.check_comult(Sb, Tb, altered, points) is not None


# -- the X basis -----------------------------------------------------------------


def test_x_basis_oracles_reject_one_altered_coefficient():
    basis = FreeLambdaBasis((2, 3), 2)
    wide = FreeLambdaBasis((2, 3), 3)
    v = {n: (n % 5) - 2 or 3 for n in range(1, 200)}
    e = wide.model.psi(2, basis.embed[(3,)]) - basis.embed[(3,)] ** 2
    value = O.sigma_value((3,), O.psi_point(v, 2)) - O.sigma_value((3,), v) ** 2
    xp, integral = wide.to_x_basis(e)
    assert integral
    assert O.check_x_expression(xp.vars, xp.terms, value, v) is None
    assert O.check_integral(xp.terms, 2) is None
    for delta in (1, Fraction(1, 2)):
        altered = _bump(xp, delta)
        assert O.check_x_expression(altered.vars, altered.terms, value, v) is not None
    assert O.check_integral(_bump(xp, Fraction(1, 2)).terms) is not None
    assert O.check_integral(_bump(xp, 1).terms, 2) is not None


def test_lambda_workload_oracles_reject_altered_answers():
    w = workloads.LambdaXBasis()
    w.setup(0)
    ops = w.round(__import__("random").Random(0))
    for op in ops:
        res = op.run()
        # altered first: an answer that passed once is only compared after
        if op.label.startswith(("product", "combination", "congruence", "plocal")):
            xp, integral = res
            assert op.check((_bump(xp), integral)) is not None, op.label
        elif op.label.startswith("commute"):
            lhs, rhs = res
            assert op.check((_bump(lhs), _bump(rhs))) is not None, op.label
        assert op.check(res) is None, op.label
        if op.label.startswith(("product", "combination", "congruence", "plocal")):
            assert op.check((_bump(res[0]), res[1])) is not None, op.label


# -- the CLI tour --------------------------------------------------------------


def _result(stdout, code=0, stderr=""):
    return workloads.CliResult(code, stdout, stderr)


def test_cli_checks_reject_altered_outputs():
    checks = {" ".join(argv): check for argv, check in workloads._tour(0)}
    add = checks["witt add --p 2 --len 2 --a [1,0] --b [1,0]"]
    assert add(_result("add: [2, -1]\n")) is None
    assert add(_result("add: [2, -2]\n")) is not None
    ghost = checks["witt ghost --trunc big:4 --input [a,0,0,0]"]
    assert ghost(_result("ghost: [a, a^2, a^3, a^4]\n")) is None
    assert ghost(_result("ghost: [a, a^2, 2*a^3, a^4]\n")) is not None
    structure = checks["witt structure --op add --p 2 --len 2"]
    good = "polys.1: a1 + b1\npolys.2: -a1*b1 + a2 + b2\n"
    assert structure(_result(good)) is None
    assert structure(_result(good.replace("-a1*b1", "-2*a1*b1"))) is not None
    newton = checks["lambda newton --psi id --K 4 --eval 5"]
    assert newton(_result("lambda: [5, 10, 10, 5]\n")) is None
    assert newton(_result("lambda: [5, 10, 10, 6]\n")) is not None
    section = checks["delta section --p 2 --ring Z --eval 3"]
    assert section(_result("section: [3, -3]\n")) is None
    with pytest.raises(workloads.OpFailed):
        section(_result("section: [3, -3]\n", code=1))
    corrupt = checks["verify joyal-rezk --corrupt"]
    assert corrupt(_result("status: fail\n", code=3)) is None
    with pytest.raises(workloads.OpFailed):
        corrupt(_result("status: pass\n", code=0))


def test_malformed_argv_contract():
    assert workloads._rejected(_result("", 1, "usage error: bad flag\n")) is None
    assert workloads._rejected(_result("error: NotASubset\n", 2)) is None
    with pytest.raises(workloads.OpFailed):
        workloads._rejected(_result("", 1, "Traceback (most recent call last):\nValueError: x\n"))
    with pytest.raises(workloads.OpFailed):
        workloads._rejected(_result("delta: x1\n", 0))


# -- the benchmark as a whole ----------------------------------------------------


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in run.PER_LAYER.items()}


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_of_every_workload(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # only the three malformed commands the program accepts or crashes on fail
    commands = len(workloads._tour(0)) + 2 + len(workloads.CliTour.CACHED) + len(workloads.MALFORMED)
    rounds = result["attempted"] // commands if workload == "cli-tour" else 0
    assert result["failed"] == 3 * rounds
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["lambda-xbasis", "cli-tour"])
def test_smoke_traced_run(workload):
    result = _run(workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "witt-numeric",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
