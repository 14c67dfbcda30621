"""The benchmark's calls into the package, run once a tier-1 run.

``bench/workloads.py`` reaches lambda-forge through public names: the
universal polynomial maps (``structure_poly_map``, ``frobenius_poly_map``,
``comult_poly_map``), Witt arithmetic, ``AdamsModel.delta`` and
``frobenius_deviation``, ``FreeLambdaBasis(P, 2, N=81)``, ``to_x_basis``,
``from_x_basis`` and ``verify_joyal_rezk(basis, 2)``.  One round of each
in-process workload, set up from seed 1, must run with every check
returning None, so that a changed signature or answer fails here rather
than first in a benchmark run.  The CLI tour starts processes and stays
with ``bench/test_bench.py``.
"""

import random
from pathlib import Path

import pytest

import reference


@pytest.fixture(scope="module")
def workloads():
    module = reference.bench_module("workloads")
    # workloads.py imports ``oracles`` by name: that is bench/oracles.py,
    # which the tests load under the same name, and never a test module
    assert Path(module.O.__file__) == reference.BENCH / "oracles.py"
    return module


@pytest.mark.parametrize("name", ["witt-symbolic", "witt-numeric", "lambda-xbasis"])
def test_one_round_runs_and_checks_clean(workloads, name):
    workload = workloads.WORKLOADS[name]()
    workload.setup(1)
    try:
        ops = workload.round(random.Random(1))
        problems = []
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            problem = op.check(op.run())
            if problem is not None:
                problems.append(f"{op.label}: {problem}")
    finally:
        workload.close()
    assert ops and problems == []
