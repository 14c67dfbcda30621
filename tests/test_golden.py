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
The last eight were recorded before subtraction became one pass and the
CLI's vector parsing one helper: ``witt ghost-inv`` (an answer, a wrong
component count and a ``NotDivisible``), ``delta section --expr``,
``lambda wilkerson`` with ``--eval`` and with no evaluation, the plain
``DomainError`` payload of ``lambda adams`` and ``witt series --dir from``.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lambda_forge.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_cli_output_matches_golden(entry, capsys):
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert out.encode() == (GOLDEN / entry["file"]).read_bytes()


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
