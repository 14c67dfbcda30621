"""Golden outputs: the CLI must reproduce each recorded answer byte for byte.

``tests/golden/manifest.json`` lists one command per entry: its argv, its
exit code and the file holding its exact standard output.  The files were
recorded from the CLI before the Witt arithmetic moved to the ghost-map
route, so any change to a printed answer fails here.  They cover
``verify all --seed 7``, the universal structure polynomials on p:2,3 and
big:4, a numeric length-6 addition and every command of the README tour.
The later entries were recorded before the polynomial kernels moved to
packed exponent keys: products on big:8 and p:3,3, exponents on both sides
of the 1-byte field boundary and beyond 2**64, and a substitution over Q.
The next eight were recorded before subtraction became one pass and the
CLI's vector parsing one helper: ``witt ghost-inv`` (an answer, a wrong
component count and a ``NotDivisible``), ``delta section --expr``,
``lambda wilkerson`` with ``--eval`` and with no evaluation, the plain
``DomainError`` payload of ``lambda adams`` and ``witt series --dir from``.
The last two were recorded before X-basis re-expression became one
substitution through ghost rows: ``lambda to-x-basis`` on a product of
x-indices with a free variable ``y`` left in place, and a ``NotInSpan``.
The next four were recorded before the ghost route moved to packed term
maps: ``witt ghost-inv`` on polynomial ghost components, one inverse and
one ``NotDivisible`` with its polynomial certificate, a p-typical addition
of polynomial vectors, and a comultiplication for S = big:3, T = big:2.
The last one, ``verify joyal-rezk --primes 2,3,5 --depth 3 --format json``,
was recorded before each Joyal-Rezk commutation case became
(psi^q psi^p e - psi^p psi^q e) / p; it has 168 cases and no witness.
Then ``lambda to-x-basis`` on ``x4*x9 - x6^2/3 + y``, the one entry that
prints ``integral: False``, recorded when the input grammar gained
division by an integer literal; ``tests/test_lambda.py`` checks the same
answer in process against the elimination route.  The last two, ``delta
phi`` and ``witt mul`` on polynomial vectors, were recorded when every
subcommand of the parser came under this gate; the verify suites are under
it through ``verify all``.

``library.txt`` holds library output that no CLI command prints, recorded
before the free lambda-ring checks became case tables and Wilkerson's
family a function: ``integrality_report`` and ``plocal_basis_check``
reports, clean and with ``AdamsModel.frobenius_deviation`` shifted by x/2
or x/3 (which forces the witness and ``NotPIntegral`` paths), and the
lambda-operations of four Wilkerson families.  The last two were recorded
before the same change as the depth-3 CLI entry: ``verify_joyal_rezk``
over the primes {2, 3} at depth 1 (N = 30) and depth 2 (N = 243), fed a
family whose psi^3 sends x_n to x_3n + x_1 and whose other operations are
Adams operations; psi^3 does not commute with psi^2, so the reports carry
6 and 12 commutation witnesses (and 1 and 3 delta witnesses).  Each entry
is a label line and one output line, compared as ``json.dumps`` text, key
order included.

Each ``manifest.json`` command is also run with ``--format json`` placed
before its family, between the family and its subcommand, and after its
subcommand: all three must print the same bytes, since the flags of the
top level, the family and the leaf parser are one option.

``parser.json`` pins what ``manifest.json`` cannot, since that records
stdout only: the ``--help`` text of the top-level parser and of each of
the four command families (on stdout, exit 0) and one argparse usage
error per family (on stderr, exit 1), recorded before the CLI imported
each family's modules only when its command runs.  Help is formatted at
``COLUMNS=80``.
"""

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from lambda_forge.cli import _build_parser, main
from lambda_forge.errors import ForgeError
from lambda_forge.lambdaring import (
    AdamsModel,
    FreeLambdaBasis,
    integrality_report,
    plocal_basis_check,
    verify_joyal_rezk,
    wilkerson_lambda,
)
from lambda_forge.poly import MultiPoly
from lambda_forge.rings import QQ, ZZ

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
PARSER = json.loads((GOLDEN / "parser.json").read_text())
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_cli_output_matches_golden(entry, capsys):
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert out.encode() == (GOLDEN / entry["file"]).read_bytes()


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_format_flag_works_before_the_family_and_after_the_subcommand(entry, capsys):
    argv = list(entry["argv"])
    if "--format" in argv:
        i = argv.index("--format")
        del argv[i : i + 2]
    outputs = []
    for i in (0, 1, 2):
        placed = [*argv[:i], "--format", "json", *argv[i:]]
        assert main(placed) == entry["exit"]
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("entry", PARSER, ids=[e["file"] for e in PARSER])
def test_parser_output_matches_golden(entry, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(entry["argv"]))
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
    captured = capsys.readouterr()
    streams = {"out": captured.out, "err": captured.err}
    assert code == entry["exit"]
    assert streams.pop(entry["stream"]).encode() == (GOLDEN / entry["file"]).read_bytes()
    assert list(streams.values()) == [""]


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_verify_all_golden_across_hash_seeds(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "lambda_forge.cli", "verify", "all", "--seed", "7", "--format", "json"],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "verify_all_seed7.json").read_bytes()


def test_readme_tour_is_under_the_golden_gate():
    # a tour command without a recorded golden would escape the byte-for-byte check
    tour = README.read_text().split("## CLI tour", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    argvs = [
        shlex.split(line, comments=True)[1:]
        for line in tour.splitlines()
        if line.startswith("lambda-forge ")
    ]
    assert len(argvs) >= 24
    recorded = [entry["argv"] for entry in MANIFEST]
    assert [argv for argv in argvs if argv not in recorded] == []


def test_every_subcommand_is_under_the_golden_gate():
    # a (family, subcommand) pair with no recorded argv could change its
    # answer unseen; ``verify all`` runs every verify suite
    families = next(a for a in _build_parser()._actions if a.dest == "command")
    pairs = {
        (family, mode)
        for family, parser in families.choices.items()
        for mode in next(a for a in parser._actions if a.dest in ("subcommand", "suite")).choices
    }
    recorded = {tuple(entry["argv"][:2]) for entry in MANIFEST}
    if ("verify", "all") in recorded:
        recorded |= {pair for pair in pairs if pair[0] == "verify"}
    assert sorted(pairs - recorded) == []


U, V = MultiPoly.var(ZZ, "u"), MultiPoly.var(ZZ, "v")


def _wilkerson(gens, family, K, elements):
    ops = wilkerson_lambda(gens, family, K)
    return {
        "lambda_on_gens": {g: [str(v) for v in values] for g, values in ops.lambda_on_gens.items()},
        "lambda_values": {str(e): [str(v) for v in ops.lambda_values(e)] for e in elements},
    }


LAMBDA_CHECKS = {
    "integrality_report((2,), 2)": lambda: integrality_report((2,), 2),
    "integrality_report((2, 3), 1)": lambda: integrality_report((2, 3), 1),
    "integrality_report((2, 3), 2)": lambda: integrality_report((2, 3), 2),
    "plocal_basis_check(2, FreeLambdaBasis((2, 3), 2), 2)": lambda: plocal_basis_check(2, FreeLambdaBasis((2, 3), 2), 2),
    "plocal_basis_check(3, FreeLambdaBasis((2, 3), 2), 2)": lambda: plocal_basis_check(3, FreeLambdaBasis((2, 3), 2), 2),
    "plocal_basis_check(2, FreeLambdaBasis((2,), 3), 3)": lambda: plocal_basis_check(2, FreeLambdaBasis((2,), 3), 3),
}
WILKERSON_FAMILIES = {
    "wilkerson identity on Z, K = 4": lambda: _wilkerson((), {}, 4, [MultiPoly.const(ZZ, 7), MultiPoly.const(ZZ, -3)]),
    "wilkerson 2: u -> u^2, K = 2": lambda: _wilkerson(("u",), {2: {"u": U ** 2}}, 2, [U ** 3 + U]),
    "wilkerson 2: u -> u^2 + 2u, K = 2": lambda: _wilkerson(("u",), {2: {"u": U ** 2 + U * 2}}, 2, [U ** 2 - 3]),
    "wilkerson 2: x -> x^2, 3: x -> x^3 on u, v, K = 4": lambda: _wilkerson(
        ("u", "v"), {2: {"u": U ** 2, "v": V ** 2}, 3: {"u": U ** 3, "v": V ** 3}}, 4, [U + V, U * V]
    ),
}


def _non_commuting_joyal_rezk(depth, N):
    # psi^3: x_n -> x_{3n} + x_1 is a ring map that does not commute with psi^2
    basis = FreeLambdaBasis((2, 3), depth, N=N)
    lift = {f"x{n}": MultiPoly.var(QQ, f"x{3 * n}") + MultiPoly.var(QQ, "x1") for n in range(1, N // 3 + 1)}
    return verify_joyal_rezk(basis, depth, lambda m, e: e.substitute(lift) if m == 3 else basis.model.psi(m, e))


JOYAL_REZK_FAMILIES = {
    f"verify_joyal_rezk(FreeLambdaBasis((2, 3), {depth}, N={N}), {depth}) with psi^3: x_n -> x_3n + x_1": partial(
        _non_commuting_joyal_rezk, depth, N
    )
    for depth, N in ((1, 30), (2, 243))
}
LIBRARY_CALLS = {**LAMBDA_CHECKS, **WILKERSON_FAMILIES, **JOYAL_REZK_FAMILIES}
# (label, call, k): k shifts frobenius_deviation by x/k, None leaves it alone
LIBRARY_CASES = [
    (call if k is None else f"{call} with frobenius_deviation + x/{k}", call, k)
    for k in (None, 2, 3)
    for call in LAMBDA_CHECKS
] + [(call, call, None) for call in (*WILKERSON_FAMILIES, *JOYAL_REZK_FAMILIES)]


def render_library_case(call, k):
    """One output line: the call's ``json.dumps`` text, or its error."""
    deviation = AdamsModel.frobenius_deviation
    if k is not None:
        AdamsModel.frobenius_deviation = lambda self, p, e, d=1: (
            deviation(self, p, e) + self.x * Fraction(1, k)
        ).div_int(d)
    try:
        return json.dumps(LIBRARY_CALLS[call]())
    except ForgeError as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        AdamsModel.frobenius_deviation = deviation


_LINES = (GOLDEN / "library.txt").read_text().splitlines()
LIBRARY = dict(zip(_LINES[0::2], _LINES[1::2]))


def test_library_golden_lists_every_case():
    assert list(LIBRARY) == [label for label, _, _ in LIBRARY_CASES]


@pytest.mark.parametrize("label, call, k", LIBRARY_CASES, ids=[label for label, _, _ in LIBRARY_CASES])
def test_library_output_matches_golden(label, call, k):
    assert render_library_case(call, k) == LIBRARY[label]
