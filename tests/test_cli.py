import argparse
import ast
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_forge import cli, textparse
from lambda_forge.abelian import parse_group
from lambda_forge.cli import main
from lambda_forge.errors import ForgeError, UsageError
from lambda_forge.rings import QQ, ZZ
from lambda_forge.witt import TruncationSet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecExamples:
    def test_structure_contains_correction_term(self, capsys):
        code, out, _ = run(capsys, "witt", "structure", "--op", "add", "--p", "2", "--len", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["polys"]["2"] == "-a1*b1 + a2 + b2"

    def test_ghost_of_teichmuller(self, capsys):
        code, out, _ = run(capsys, "witt", "ghost", "--trunc", "big:4", "--input", "[a,0,0,0]")
        assert code == 0
        assert out.strip() == "ghost: [a, a^2, a^3, a^4]"

    def test_witt_sum_of_units(self, capsys):
        code, out, _ = run(capsys, "witt", "add", "--p", "2", "--len", "2", "--a", "[1,0]", "--b", "[1,0]")
        assert code == 0
        assert out.strip() == "add: [2, -1]"

    def test_delta_free_shows_phi(self, capsys):
        code, out, _ = run(capsys, "delta", "free", "--p", "2", "--depth", "3", "--show", "phi")
        assert code == 0
        assert "phi.x0: x0^2 + 2*x1" in out

    def test_delta_from_phi_on_integers(self, capsys):
        code, out, _ = run(capsys, "delta", "from-phi", "--p", "3", "--ring", "Z", "--phi", "id", "--eval", "2")
        assert code == 0
        assert "value: -2" in out

    def test_newton_binomials(self, capsys):
        code, out, _ = run(capsys, "lambda", "newton", "--psi", "id", "--K", "4", "--eval", "5")
        assert code == 0
        assert out.strip() == "lambda: [5, 10, 10, 5]"

    def test_newton_with_no_operations(self, capsys):
        # K = 0 asks for no lambda-operations; a negative K is a usage error
        code, out, _ = run(capsys, "lambda", "newton", "--K", "0", "--eval", "5")
        assert code == 0
        assert out.strip() == "lambda: []"

    def test_lambda_free_show(self, capsys):
        code, out, _ = run(capsys, "lambda", "free", "--primes", "2,3", "--depth", "2", "--show", "X(2)")
        assert code == 0
        assert "embedding: -1/2*x1^2 + 1/2*x2" in out

    def test_coaction_example(self, capsys):
        code, out, _ = run(capsys, "lambda", "coaction", "--ring", "Z", "--psi", "id", "--trunc", "big:2", "--eval", "2")
        assert code == 0
        assert out.strip() == "coaction: [2, -1]"

    def test_verify_fracture_group(self, capsys):
        code, out, _ = run(capsys, "verify", "fracture", "--group", "Z/12")
        assert code == 0
        assert "status: pass" in out


class TestExitCodeContract:
    def test_success_is_zero(self, capsys):
        code, _, _ = run(capsys, "witt", "ghost", "--trunc", "big:2", "--input", "[1,1]")
        assert code == 0

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_usage_error_is_one(self, capsys):
        code, _, err = run(capsys, "witt", "ghost", "--trunc", "nonsense:4", "--input", "[1]")
        assert code == 1
        assert "usage error" in err
        code, _, _ = run(capsys, "witt", "ghost", "--no-such-flag")
        assert code == 1
        code, _, _ = run(capsys, "witt", "ghost", "--trunc", "big:2", "--input", "[1,1,1]")
        assert code == 1
        # the message names what is refused
        for argv, named in (
            (["witt", "ghost", "--trunc", "big:1", "--input", "[a"], "vectors are written [c1, c2, ...]"),
            (["witt", "ghost", "--trunc", "big:1", "--input", "a]"], "vectors are written [c1, c2, ...]"),
            (["lambda", "wilkerson", "--ring", "Z[u]", "--phi", "2:u->u^2", "--K", "2", "--eval-gen", "v"], "'v'"),
            (["delta", "extend", "--p", "2", "--depth", "2", "--expr", "y"], "y is not a generator"),
            (["delta", "from-phi", "--p", "4", "--ring", "Z[u]", "--phi", "u->u^2+u"], "delta-rings need a prime p"),
            (["delta", "from-phi", "--p", "0", "--ring", "Z[u]", "--phi", "u->u^2+u"], "delta-rings need a prime p"),
            (
                ["witt", "series", "--dir", "from", "--trunc", "p:2,3", "--coeffs", "[1,a,0,0]"],
                "the power series model needs a big truncation big:N",
            ),
            (
                ["witt", "series", "--dir", "to", "--trunc", "p:2,3", "--input", "[a,0,0]"],
                "the power series model needs a big truncation big:N",
            ),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1 and named in err

    def test_domain_error_is_two(self, capsys):
        code, out, _ = run(capsys, "delta", "from-phi", "--p", "2", "--ring", "Z[u]", "--phi", "u->u^2+u")
        assert code == 2
        assert "witness: u" in out
        code, out, _ = run(capsys, "witt", "ghost-inv", "--trunc", "big:2", "--input", "[1,2]")
        assert code == 2
        assert "NotDivisible" in out

    def test_verification_failure_is_three(self, capsys):
        code, out, _ = run(capsys, "verify", "joyal-rezk", "--corrupt")
        assert code == 3
        assert "fail" in out

    def test_verify_pass_is_zero(self, capsys):
        code, _, _ = run(capsys, "verify", "wilkerson")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["witt", "ghost", "--trunc", "big:4", "--input", "[a,0,0,0]"],
            ["witt", "structure", "--op", "add", "--p", "2", "--len", "5"],
        ],
    )
    def test_closed_stdout_is_a_quiet_exit_one(self, argv):
        # the read end is closed before the child starts, so every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "lambda_forge.cli", *argv], stdout=write_end, stderr=subprocess.PIPE
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == b""  # no traceback, no "Exception ignored" at exit


class TestDeterminism:
    def test_verify_all_byte_identical_across_processes(self):
        env = dict(os.environ)
        for fmt in ("json", "text"):
            outputs = []
            for hashseed in ("1", "2"):
                env["PYTHONHASHSEED"] = hashseed
                result = subprocess.run(
                    [sys.executable, "-m", "lambda_forge.cli", "verify", "all", "--seed", "7", "--format", fmt],
                    capture_output=True,
                    env=env,
                )
                assert result.returncode == 0
                outputs.append(result.stdout)
            assert outputs[0] == outputs[1]

    def test_repeat_invocation_identical(self, capsys):
        first = run(capsys, "verify", "ghost-compat", "--seed", "3", "--format", "json")
        second = run(capsys, "verify", "ghost-compat", "--seed", "3", "--format", "json")
        assert first == second


class TestJsonPayloads:
    def test_json_format_parses(self, capsys):
        code, out, _ = run(capsys, "witt", "structure", "--op", "mul", "--p", "3", "--len", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["op"] == "mul"
        assert set(payload["polys"]) == {"1", "3"}

    def test_comonad_counit(self, capsys):
        code, out, _ = run(capsys, "witt", "comonad", "--op", "counit", "--trunc", "big:3", "--input", "[a,b,c]")
        assert code == 0
        assert out.strip() == "counit: a"

    def test_series_roundtrip_via_cli(self, capsys):
        code, out, _ = run(capsys, "witt", "series", "--dir", "from", "--trunc", "big:2", "--coeffs", "[1,-(a+b),a*b]")
        assert code == 0
        assert out.strip() == "witt: [a + b, -a*b]"

    def test_vector_payload_roundtrips_documented_schema(self, capsys):
        from lambda_forge.witt import WittVec

        code, out, _ = run(
            capsys, "witt", "add", "--p", "2", "--len", "2", "--a", "[a1,a2]", "--b", "[b1,b2]", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        vec = WittVec.from_json(payload["witt_json"])
        assert [str(c) for c in vec.as_list()] == payload["add"]

    def test_structure_payload_roundtrips_poly_schema(self, capsys):
        from lambda_forge.poly import MultiPoly

        code, out, _ = run(capsys, "witt", "structure", "--op", "mul", "--p", "2", "--len", "2", "--format", "json")
        payload = json.loads(out)
        for key, obj in payload["polys_json"].items():
            assert str(MultiPoly.from_json(obj)) == payload["polys"][key]

    def test_schema_keys_hidden_in_text_mode(self, capsys):
        code, out, _ = run(capsys, "witt", "add", "--p", "2", "--len", "2", "--a", "[1,0]", "--b", "[1,0]")
        assert code == 0
        assert "witt_json" not in out


def test_cache_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(tmp_path))
    from lambda_forge.witt import clear_memo

    clear_memo()
    code, _, _ = run(capsys, "witt", "structure", "--op", "add", "--trunc", "big:3")
    assert code == 0
    assert any("structure_add" in f.name for f in tmp_path.iterdir())
    clear_memo()


def test_cache_dir_under_a_regular_file_is_skipped(tmp_path, capsys, monkeypatch):
    from lambda_forge.witt import clear_memo

    argv = ("witt", "structure", "--op", "add", "--p", "2", "--len", "2")
    monkeypatch.delenv("LAMBDA_FORGE_CACHE_DIR", raising=False)
    clear_memo()
    want = run(capsys, *argv)
    assert want[0] == 0 and "-a1*b1 + a2 + b2" in want[1]
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(blocker / "cache"))
    clear_memo()
    assert run(capsys, *argv) == want
    assert [f.name for f in tmp_path.iterdir()] == ["file"]
    clear_memo()


def test_frobenius_and_verschiebung_cli(capsys):
    code, out, _ = run(capsys, "witt", "frobenius", "--n", "2", "--p", "2", "--len", "2", "--input", "[a,b]")
    assert code == 0
    assert "a^2 + 2*b" in out
    code, out, _ = run(capsys, "witt", "verschiebung", "--n", "2", "--trunc", "p:2,3", "--input", "[a,b]")
    assert code == 0
    assert out.strip() == "verschiebung: [0, a, b]"


def test_remaining_subcommands(capsys):
    code, out, _ = run(capsys, "witt", "restrict", "--trunc", "big:3", "--to", "big:2", "--input", "[a,b,c]")
    assert code == 0 and out.strip() == "restrict: [a, b]"

    code, out, _ = run(capsys, "witt", "w2-check", "--p", "2", "--bound", "5")
    assert code == 0 and "status: pass" in out

    code, out, _ = run(capsys, "witt", "comonad", "--op", "comult", "--outer", "big:2", "--inner", "big:2", "--input", "[a,0,0]")
    assert code == 0 and "components.1: [a, 0]" in out

    code, out, _ = run(capsys, "witt", "series", "--trunc", "big:3", "--input", "[a,0,0]")
    assert code == 0 and "1 - a*t" in out

    code, out, _ = run(capsys, "witt", "ghost", "--trunc", "big:2", "--input", "[X(2,3), (a+b)*c]")
    assert code == 0 and out.strip() == "ghost: [X2_3, X2_3^2 + 2*a*c + 2*b*c]"
    for empty in ("[]", "[ ]"):
        code, out, _ = run(capsys, "witt", "ghost", "--trunc", "big:0", "--input", empty)
        assert code == 0 and out.strip() == "ghost: []"

    code, out, _ = run(capsys, "delta", "extend", "--p", "2", "--depth", "3", "--expr", "2*x0")
    assert code == 0 and out.strip() == "delta: -x0^2 + 2*x1"

    code, out, _ = run(capsys, "delta", "phi", "--p", "2", "--depth", "3", "--expr", "x0^2")
    assert code == 0 and "x0^4" in out

    code, out, _ = run(capsys, "delta", "section", "--p", "2", "--ring", "Z", "--eval", "3")
    assert code == 0 and out.strip() == "section: [3, -3]"

    # --eval evaluates the certified presentation; every lift fixes Z
    code, out, _ = run(capsys, "delta", "from-phi", "--p", "3", "--ring", "Z[u]", "--phi", "u->u^3+3*u", "--eval", "4")
    assert code == 0 and out.strip() == "delta_on_gens.u: u\nvalue: -20"

    # whitespace around an expression is skipped at either end
    for phi in ("u->u^2;v->v^2", "u->u^2 ; v->v^2"):
        code, out, _ = run(capsys, "delta", "from-phi", "--p", "2", "--ring", "Z[u,v]", "--phi", phi)
        assert code == 0 and out.strip() == "delta_on_gens.u: 0\ndelta_on_gens.v: 0"

    for expr in ("x3", "x3 ", " x3"):
        code, out, _ = run(capsys, "lambda", "adams", "--N", "12", "--m", "2", "--expr", expr)
        assert code == 0 and out.strip() == "result: x6"

    code, out, _ = run(capsys, "lambda", "to-x-basis", "--primes", "2,3", "--depth", "2", "--expr", "x2")
    assert code == 0 and "x_basis: X0^2 + 2*X2" in out

    code, out, _ = run(
        capsys, "lambda", "wilkerson", "--ring", "Z[u]", "--phi", "2:u->u^2", "--K", "2", "--eval-gen", "u"
    )
    assert code == 0 and out.strip() == "lambda: [u, 0]"

    code, out, _ = run(capsys, "lambda", "free", "--primes", "2", "--depth", "1")
    assert code == 0 and "X2" in out

    code, out, _ = run(capsys, "delta", "free", "--p", "3", "--depth", "2", "--show", "delta")
    assert code == 0 and "delta.x0: x1" in out


def _typed_flags(parser):
    """(command and flag, action) for each flag with a type in ``parser`` and the parsers below it."""
    for action in parser._actions:
        if isinstance(action.choices, dict):
            for sub in action.choices.values():
                yield from _typed_flags(sub)
        elif action.type is not None:
            yield f"{parser.prog} {action.option_strings[0]}", action


TYPED_FLAGS = list(_typed_flags(cli._build_parser()))


class TestMalformedArgv:
    def test_parse_trunc_rejects_non_integer_big(self):
        from lambda_forge.errors import UsageError
        from lambda_forge.textparse import parse_trunc

        with pytest.raises(UsageError):
            parse_trunc("big:x")

    def test_w2_check_refuses_a_composite_p_as_not_prime(self, capsys):
        # p:4,2 would read as {1, 4}, which is no division-stable set
        code, out, err = run(capsys, "witt", "w2-check", "--p", "4", "--bound", "1")
        assert (code, out) == (1, "")
        assert err == "usage error: p-typical truncation sets need a prime p, got 4\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["witt", "add", "--p", "2", "--len", "2", "--a", "[1]", "--b", "[1,0]"],
            ["witt", "mul", "--p", "2", "--len", "2", "--a", "[1,0]", "--b", "[1,0,0]"],
            ["witt", "verschiebung", "--n", "2", "--trunc", "p:2,3"],
            ["witt", "verschiebung", "--n", "2", "--trunc", "p:2,3", "--input", "[a]"],
            ["witt", "ghost", "--trunc", "big:x", "--input", "[a]"],
            ["witt", "restrict", "--trunc", "big:3", "--to", "big:x", "--input", "[a,b,c]"],
            ["witt", "structure", "--op", "add", "--p", "1", "--len", "3"],
            ["delta", "extend", "--p", "4", "--depth", "2", "--expr", "x0"],
            ["witt", "ghost", "--trunc", "p:2,-1", "--input", "[]"],
            ["witt", "ghost", "--trunc", "big:-1", "--input", "[]"],
            ["verify", "witt-axioms", "--corrupt"],
            ["verify", "wilkerson", "--group", "Z/4"],
            ["verify", "fracture", "--primes", "2,3"],
            ["verify", "all", "--depth", "1"],
            ["verify", "joyal-rezk", "--group", "Z/4"],
            ["verify", "joyal-rezk", "--corrupt", "--primes", "2,3"],
            ["verify", "joyal-rezk", "--corrupt", "--depth", "1"],
            ["lambda", "coaction", "--ring", "Z[u]", "--psi", "id", "--trunc", "big:2", "--eval", "2"],
            ["delta", "section", "--p", "2", "--ring", "Z[u]", "--eval", "3"],
            ["lambda", "newton", "--psi", "u->u^2", "--K", "2", "--eval", "3"],
            ["lambda", "coaction", "--psi", "2:u->u^2", "--trunc", "big:2", "--eval", "2"],
            ["verify", "fracture", "--group", "Z/x"],
            ["verify", "fracture", "--group", "Z^x"],
            ["verify", "fracture", "--group", "Z^+2"],
            ["lambda", "wilkerson", "--ring", "Z[u]", "--phi", "x:u->u^2", "--K", "2"],
            ["lambda", "newton", "--K", "-1", "--eval", "5"],
            ["lambda", "wilkerson", "--ring", "Z", "--K", "-2", "--eval", "3"],
            ["witt", "w2-check", "--p", "2", "--bound", "-3"],
            ["delta", "extend", "--p", "2", "--expr", "x0/2"],
            ["lambda", "adams", "--m", "2", "--expr", "x3/0"],
            # a flag the chosen mode would ignore
            ["witt", "structure", "--op", "add", "--p", "2", "--len", "2", "--trunc", "big:3"],
            ["witt", "comonad", "--op", "comult", "--outer", "big:2", "--inner", "big:2", "--trunc", "big:9", "--input", "[a,0,0]"],
            ["witt", "comonad", "--op", "counit", "--trunc", "big:2", "--outer", "big:5", "--input", "[a,b]"],
            ["witt", "series", "--dir", "from", "--trunc", "big:3", "--coeffs", "[1,a,0,0]", "--input", "[x]"],
            ["witt", "series", "--dir", "to", "--trunc", "big:2", "--input", "[a,b]", "--coeffs", "[1,2]"],
            ["delta", "section", "--p", "2", "--eval", "3", "--expr", "x0"],
            ["delta", "section", "--p", "2", "--eval", "3", "--depth", "9"],
            ["witt", "w2-check", "--p", "2", "--ring", "Z[u]", "--bound", "7"],
            ["lambda", "wilkerson", "--ring", "Z[u]", "--phi", "2:u->u^2", "--K", "2", "--eval-gen", "u", "--eval", "3"],
            # a name given twice
            ["lambda", "wilkerson", "--ring", "Z[u]", "--phi", "2:u->u^2", "--phi", "2:u->u^2+2*u", "--eval-gen", "u"],
            ["delta", "from-phi", "--p", "2", "--ring", "Z[u]", "--phi", "u->u^2+2*u;u->u^2"],
            ["delta", "from-phi", "--p", "2", "--ring", "Z[u,u]", "--phi", "u->u^2"],
            # a signed count in a group summand
            ["verify", "fracture", "--group", "Z^-1+Z^2"],
            ["verify", "fracture", "--group", "Z/-4"],
            ["verify", "fracture", "--group", "Z^-1"],
            # an integer that is not ASCII decimal digits
            ["witt", "ghost", "--trunc", "big:\u0663", "--input", "[1,2,3]"],
            ["witt", "ghost", "--trunc", "big:+3", "--input", "[1,2,3]"],
            ["witt", "ghost", "--p", "\u0662", "--len", "2", "--input", "[1,2]"],
            ["lambda", "newton", "--K", "\u0663", "--eval", "5"],
            ["lambda", "wilkerson", "--ring", "Z[u]", "--phi", "\u0662:u->u^2", "--K", "1", "--eval-gen", "u"],
            ["verify", "joyal-rezk", "--primes", "2,+3", "--depth", "1", "--seed", "\u0667"],
            ["verify", "joyal-rezk", "--primes", "2,+3", "--depth", "1"],
            ["delta", "extend", "--p", "2", "--expr", "x0^\u0662"],
            ["lambda", "to-x-basis", "--primes", "2,3", "--depth", "2", "--expr", "x2 - X2"],
            # a malformed list; the component count matches what a lax reading would give
            ["witt", "ghost", "--trunc", "big:1", "--input", "[a,]"],
            ["witt", "ghost", "--trunc", "big:1", "--input", "[,a]"],
            ["witt", "ghost", "--trunc", "big:2", "--input", "[a,,b]"],
            ["witt", "ghost", "--trunc", "big:1", "--input", "[a"],
            ["witt", "ghost", "--trunc", "big:1", "--input", "a]"],
            ["witt", "ghost", "--trunc", "big:1", "--input", "[(a,b)]"],
            # --show names one basis element, to the first power with coefficient 1
            ["lambda", "free", "--primes", "2,3", "--depth", "2", "--show", "2*X0"],
            ["lambda", "free", "--primes", "2,3", "--depth", "2", "--show", "X0^2"],
            # --eval-gen names a generator of --ring
            ["lambda", "wilkerson", "--ring", "Z[u]", "--phi", "2:u->u^2", "--K", "2", "--eval-gen", "v"],
            ["lambda", "wilkerson", "--ring", "Z[u]", "--phi", "2:u->u^2", "--K", "2", "--eval-gen", "3"],
            # a name outside the delta presentation's generators
            ["delta", "extend", "--p", "2", "--depth", "2", "--expr", "y"],
            ["delta", "phi", "--p", "2", "--depth", "2", "--expr", "x1*y"],
            ["delta", "section", "--p", "2", "--expr", "x0*y"],
            # a ring with generators has no default Frobenius lift
            ["lambda", "wilkerson", "--ring", "Z[u]", "--K", "2"],
            # --show '' names no basis element
            ["lambda", "free", "--primes", "2,3", "--depth", "2", "--show", ""],
            # trailing whitespace ends an expression, not a missing operand
            ["lambda", "adams", "--m", "2", "--expr", "x3 +"],
        ],
    )
    def test_usage_error_without_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error:")
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("action", [a for _, a in TYPED_FLAGS], ids=[name for name, _ in TYPED_FLAGS])
    def test_every_integer_flag_takes_ascii_digits_only(self, action):
        # every flag with a type is an integer flag; a bare type=int takes '+3' and fails here
        assert [action.type(text) for text in ("7", "-2", " 7 ")] == [7, -2, 7]
        for text in ("\u0663", "+3", "1_0"):
            with pytest.raises(argparse.ArgumentTypeError, match="invalid int value"):
                action.type(text)

    def test_joyal_rezk_depth_alone_is_honoured(self, capsys):
        # primes default to 2,3,5; depth 1 has 4 integrality and 6 * 4 commutation cases
        code, out, _ = run(capsys, "verify", "joyal-rezk", "--depth", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["reports"][0]["cases"] == 28
        code, out, _ = run(capsys, "verify", "joyal-rezk", "--format", "json")
        assert code == 0 and json.loads(out)["reports"][0]["cases"] != 28


def _wilkerson_phi(text):
    """``lambda wilkerson`` on Z[u] with ``text`` as its one --phi clause, in process."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["lambda", "wilkerson", "--ring", "Z[u]", "--phi", text, "--K", "1"])
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()


GRAMMAR_TARGETS = {name: getattr(textparse, name) for name in dir(textparse) if name.startswith("parse_")}
GRAMMAR_TARGETS["parse_phi_spec"] = partial(textparse.parse_phi_spec, gens=("u", "v"))
GRAMMAR_TARGETS["parse_group"] = parse_group
GRAMMAR_TARGETS["lambda wilkerson --phi"] = _wilkerson_phi

GRAMMAR_TOKENS = "u v a x0 X Z id big p".split() + list("0123456789") + "+ - * ^ / : ; , -> ( ) [ ]".split()


@pytest.mark.parametrize("target", sorted(GRAMMAR_TARGETS))
@settings(max_examples=300, deadline=2000)
@given(text=st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=8).map(" ".join))
@example(text="Z / u")
@example(text="Z ^ + 2")
@example(text="u : u -> u ^ 2")
@example(text="[X(2,3), (a+b)*c]")
@example(text="[]")
@example(text="[ ]")
@example(text="[a,]")
@example(text="[,a]")
@example(text="[a,,b]")
@example(text="[a")
@example(text="a]")
@example(text="[(a,b)]")
def test_grammar_fuzz_gives_a_value_or_a_forge_error(target, text):
    # in process: a parser returns or raises a ForgeError, the CLI exits 0, 1 or 2;
    # the first three examples once raised ValueError, which random draws reach
    # rarely, and the bracketed ones are lists, well formed or not
    try:
        GRAMMAR_TARGETS[target](text)
    except ForgeError:
        pass


TRUNCS = ("big:0", "big:2", "big:4", "p:2,3", "p:3,2", "big:x", "p:2")
ARGV_VALUES = {
    "--trunc": TRUNCS,
    "--outer": TRUNCS,
    "--inner": TRUNCS,
    "--to": TRUNCS,
    "--p": ("1", "2", "3", "4"),
    "--len": ("0", "1", "2"),
    "--n": ("0", "1", "2", "3"),
    "--K": ("-1", "0", "2", "5"),
    "--bound": ("-1", "0", "3"),
    "--depth": ("-1", "0", "1", "2"),
    "--primes": ("2", "3", "2,3", "4", "x"),
    "--N": ("0", "1", "4"),
    "--m": ("0", "1", "2", "3"),
    "--seed": ("-1", "0", "7"),
    "--ring": ("Z", "Z[u]", "Z[u,v]", "Q"),
    "--phi": ("id", "u->u^2", "2:u->u^2", "u->u^2+u", "3:u->u^3", "2:v->v^2"),
    "--group": ("Z/4", "Z^2+Z/6", "Z/x"),
    "--eval": ("-2", "0", "3", "5"),
}
# a flag with neither choices nor an entry above takes a vector, an expression or a word
OTHER_VALUES = ("[a]", "[a,b]", "[1,0,0]", "[a,0,0,0]", "[]", "[1,-a", "x0", "x0^2+x1", "u", "X(2)", "x3/0", "x +", "2")


def _commands():
    """(family, subcommand or suite) -> (flag, its values or None for a bare
    flag, required) for each flag its parser takes, read off the CLI parser."""
    families = next(a for a in cli._build_parser()._actions if a.dest == "command")
    out = {}
    for family, parser in families.choices.items():
        modes = next(a for a in parser._actions if a.dest in ("subcommand", "suite"))
        for mode in modes.choices:
            sub = modes.choices[mode] if family != "verify" else parser
            out[family, mode] = [
                (a.option_strings[0], None if a.nargs == 0 else tuple(a.choices or ARGV_VALUES.get(a.option_strings[0], OTHER_VALUES)), a.required)
                for a in sub._actions
                if a.option_strings and a.dest != "help"
            ]
    return out


COMMANDS = _commands()


@st.composite
def argvs(draw):
    family, mode = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [family, mode]
    flags = COMMANDS[family, mode]
    # mostly with the required flags, so that most lines get past the parser
    chosen = [f for f in flags if f[2]] if draw(st.integers(0, 3)) else []
    chosen += draw(st.lists(st.sampled_from(flags), max_size=6 - len(chosen), unique=True))
    for flag, values, _ in chosen:
        argv.append(flag)
        if values is not None:
            argv.append(draw(st.sampled_from(values)))
    return argv


@settings(max_examples=200, deadline=5000)
@given(argv=argvs())
def test_argv_fuzz_keeps_the_exit_code_contract(argv):
    # whole command lines, in process: main returns 0, 1, 2 or 3 and raises nothing
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


class TestDivision:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("u v 2 3 -1 u^2 (u+v)".split()), min_size=1, max_size=4), st.integers(1, 12))
    def test_division_undoes_a_product(self, factors, d):
        e = "*".join(factors)
        assert textparse.parse_poly(f"({e})*{d}/{d}") == textparse.parse_poly(e)
        assert textparse.parse_poly(f"{e}/{d}", QQ) == textparse.parse_poly(e, QQ) * Fraction(1, d)

    def test_division_binds_like_a_product(self):
        parse = partial(textparse.parse_poly, ring=QQ)
        assert parse("x6^2/3") == parse("(x6^2)/3")
        assert parse("2*x/4*y") == parse("((2*x)/4)*y") == parse("x*y/2")
        assert parse("-x/2 + 1") == parse("(-x)/2 + 1")
        assert textparse.parse_poly("(6*u + 4)/2") == textparse.parse_poly("3*u + 2")

    def test_unary_minus_negates_the_whole_power(self):
        # the printer writes -(x^2) as -x^2, so that is how it parses back
        parse = textparse.parse_poly
        assert parse("-x^2") == -parse("x^2") == parse("0 - x^2") != parse("(-x)^2")
        assert parse("2*-x^3") == parse("-2*x^3") and parse("--x^2") == parse("x^2")
        assert parse("-3^2") == parse("-9") and str(parse("-x^2 - y")) == "-x^2 - y"

    @pytest.mark.parametrize(
        "text, ring, message",
        [
            ("u/0", QQ, "divisors must be positive integers, found '0'"),
            ("0/0", ZZ, "divisors must be positive integers, found '0'"),
            ("u/v", QQ, "divisors must be positive integers, found 'v'"),
            ("u/(2)", QQ, "divisors must be positive integers, found '('"),
            ("u/", QQ, "unexpected end of expression"),
            ("u/3", ZZ, "cannot divide by 3 over Z"),
            ("(2*u + 3)/2", ZZ, "cannot divide by 2 over Z"),
            ("u/3*3", ZZ, "cannot divide by 3 over Z"),
        ],
    )
    def test_division_outside_the_ring_is_a_usage_error(self, text, ring, message):
        with pytest.raises(UsageError) as exc:
            textparse.parse_poly(text, ring)
        assert str(exc.value) == message


# the probe imports no json itself, so that it can tell whether the command did
IMPORT_PROBE = """
import contextlib, io, sys
from lambda_forge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(repr([code, sorted(m for m in sys.modules if m.startswith("lambda_forge.")), "json" in sys.modules]))
"""
# what every command loads: the CLI and what parsing needs
BASE_MODULES = {"cli", "errors", "rings"}
# each family's runner, with the grammar and what the grammar reads
WITT_RUN = BASE_MODULES | {"cli_witt", "poly", "textparse", "truncation"}
DELTA_RUN = BASE_MODULES | {"cli_delta", "poly", "textparse", "truncation"}
LAMBDA_RUN = BASE_MODULES | {"cli_lambda", "poly", "textparse", "truncation"}
VERIFY_RUN = BASE_MODULES | {"cli_verify"}
RUNNERS = {"cli_witt", "cli_delta", "cli_lambda", "cli_verify"}
SRC = Path(__file__).resolve().parent.parent / "src"
EVERY_MODULE = {path.stem for path in (SRC / "lambda_forge").glob("*.py")} - {"__init__"}
GHOST = ["witt", "ghost", "--trunc", "big:2", "--input", "[1,1]"]


def _probe(argv, script=IMPORT_PROBE, **environ):
    """What a fresh process running ``script`` with ``argv``, and ``environ``
    added to its environment, prints, as a Python literal: for the import
    probe, (exit code, the package modules loaded, whether json was loaded)
    of the command ``argv``."""
    env = {k: v for k, v in os.environ.items() if k != "LAMBDA_FORGE_CACHE_DIR"} | environ
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.decode())


class TestImportContract:
    """A process imports only the modules its command runs, and builds only its own leaf parser."""

    @pytest.mark.parametrize(
        "argv, code, modules",
        [
            (GHOST, 0, WITT_RUN | {"witt"}),
            # Witt arithmetic substitutes nothing, and only the series model loads series
            (["witt", "add", "--p", "2", "--len", "2", "--a", "[1,0]", "--b", "[1,0]"], 0, WITT_RUN | {"witt"}),
            (["witt", "series", "--trunc", "big:2", "--input", "[a,0]"], 0, WITT_RUN | {"series", "witt"}),
            # the disk-cache format loads only with a cache directory (the row below)
            (["witt", "structure", "--op", "add", "--p", "2", "--len", "2"], 0, WITT_RUN | {"witt"}),
            # the W_2 checks live with delta-structures, the sections of W_2(A) -> A
            (["witt", "w2-check", "--p", "2", "--bound", "2"], 0, WITT_RUN | {"delta", "witt"}),
            # an argparse error is reported before any runner is imported
            (["witt", "frobenius", "--p", "2", "--len", "2", "--input", "[a,b]"], 1, BASE_MODULES),
            # no Witt vector is built, and phi on the generators substitutes nothing
            (["delta", "free", "--p", "2", "--depth", "1"], 0, DELTA_RUN | {"delta"}),
            # the section is the coaction over p:P,2, read off in Witt arithmetic with no lambda-ring
            (["delta", "section", "--p", "2", "--ring", "Z", "--eval", "3"], 0,
             DELTA_RUN | {"delta", "substitution", "witt"}),
            (["delta", "section", "--p", "2", "--expr", "x0"], 0, DELTA_RUN | {"delta", "substitution", "witt"}),
            (["lambda", "to-x-basis", "--primes", "2", "--depth", "1", "--expr", "x2"], 0,
             LAMBDA_RUN | {"lambdaring", "substitution"}),
            (["lambda", "newton", "--K", "2", "--eval", "3"], 0, LAMBDA_RUN | {"delta", "lambdaring", "series", "witt"}),
            (["lambda", "coaction", "--trunc", "big:2", "--eval", "2"], 0, LAMBDA_RUN | {"lambdaring", "witt"}),
            (["verify", "joyal-rezk"], 0, VERIFY_RUN | {"lambdaring", "poly", "substitution", "textparse", "truncation", "verify"}),
            (["verify", "wilkerson"], 0, EVERY_MODULE - {"abelian", "cache"} - (RUNNERS - {"cli_verify"})),
            (["verify", "fracture"], 0, VERIFY_RUN | {"abelian", "poly", "truncation", "verify"}),
            # a given group runs the fracture check alone, and no suite
            (["verify", "fracture", "--group", "Z/12"], 0, VERIFY_RUN | {"abelian"}),
            # the flags are checked before any suite is imported
            (["verify", "all", "--seed", "-1"], 1, VERIFY_RUN),
        ],
        ids=[
            "witt", "witt-add", "witt-series", "witt-structure", "witt-w2-check", "witt-refused", "delta",
            "delta-section-eval", "delta-section-expr", "lambda-x-basis", "lambda-newton", "lambda-coaction",
            "verify-joyal-rezk", "verify", "verify-fracture", "verify-group", "verify-refused",
        ],
    )
    def test_family_loads_its_modules(self, argv, code, modules):
        assert _probe(argv)[:2] == [code, sorted(f"lambda_forge.{m}" for m in modules)]

    def test_the_cache_format_loads_with_a_cache_directory(self, tmp_path):
        argv = ["witt", "structure", "--op", "add", "--p", "2", "--len", "2"]
        modules = WITT_RUN | {"cache", "witt"}
        assert _probe(argv, LAMBDA_FORGE_CACHE_DIR=str(tmp_path))[:2] == [0, sorted(f"lambda_forge.{m}" for m in modules)]
        assert [f.name for f in tmp_path.iterdir()] == ["structure_add_big2.json"]

    @pytest.mark.parametrize(
        "argv, runner",
        [
            (GHOST, "cli_witt"),
            (["delta", "free", "--p", "2", "--depth", "1"], "cli_delta"),
            (["lambda", "free", "--primes", "2", "--depth", "1"], "cli_lambda"),
            (["verify", "fracture", "--group", "Z/12"], "cli_verify"),
        ],
        ids=["witt", "delta", "lambda", "verify"],
    )
    def test_a_command_loads_its_own_runner_alone(self, argv, runner):
        assert {m.removeprefix("lambda_forge.") for m in _probe(argv)[1]} & RUNNERS == {runner}

    def test_json_is_loaded_for_json_output_only(self):
        assert _probe(GHOST)[2] is False
        assert _probe(["--format", "json", *GHOST])[2] is True

    def test_a_command_builds_one_leaf_parser(self, monkeypatch, capsys):
        built, build = [], cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(build()) or built[-1])
        assert main(["witt", "add", "--p", "2", "--len", "2", "--a", "[1,2]", "--b", "[3,4]"]) == 0
        families = next(a for a in built[0]._actions if a.dest == "command")
        modes = next(a for a in families.choices["witt"]._actions if a.dest == "subcommand")
        # dict.values reads the map as it stands, building nothing
        assert [isinstance(v, argparse.ArgumentParser) for v in dict.values(modes.choices)].count(True) == 1

    def test_verify_choices_are_the_suites(self):
        from lambda_forge import verify

        top = cli._build_parser()
        families = next(a for a in top._actions if a.dest == "command")
        suite = next(a for a in families.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == verify.SUITES + ("all",)


class TestLazyRoot:
    """``lambda_forge`` resolves its public names on first access."""

    def test_importing_the_package_loads_no_module_of_it(self):
        script = "import sys, lambda_forge; print(sorted(m for m in sys.modules if m.startswith('lambda_forge')))"
        assert _probe([], script) == ["lambda_forge"]

    def test_a_name_loads_its_home_module_alone(self):
        script = (
            "import sys, lambda_forge; lambda_forge.TruncationSet; "
            "print(sorted(m for m in sys.modules if m.startswith('lambda_forge.')))"
        )
        assert _probe([], script) == ["lambda_forge.errors", "lambda_forge.rings", "lambda_forge.truncation"]

    def test_each_public_name_is_its_home_modules_object(self):
        import importlib

        import lambda_forge

        for name in lambda_forge.__all__:
            value = getattr(lambda_forge, name)
            # a class or function names its module; ZZ and QQ are CoeffRings of rings
            assert getattr(importlib.import_module(value.__module__), name) is value

    def test_dir_lists_every_public_name(self):
        import lambda_forge

        assert set(lambda_forge.__all__) <= set(dir(lambda_forge))

    def test_an_unknown_name_is_an_attribute_error(self):
        import lambda_forge

        with pytest.raises(AttributeError, match="no_such_name"):
            lambda_forge.no_such_name
        assert not hasattr(lambda_forge, "ghost_route")


def run_within(seconds, capsys, *argv):
    """``run``, failed by an alarm when it takes longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"{' '.join(argv)} took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_depth_three_joyal_rezk_runs_within_budget(capsys):
    # 120 commutation cases over {2, 3, 5}, each psi^q psi^p - psi^p psi^q with no p-th power
    argv = ("verify", "joyal-rezk", "--primes", "2,3,5", "--depth", "3", "--format", "json")
    code, out, err = run_within(3, capsys, *argv)
    golden = Path(__file__).parent / "golden" / "verify_joyal_rezk_depth3.json"
    assert (code, err) == (0, "")
    assert out.encode() == golden.read_bytes()


class TestRefusedWork:
    def test_wrong_component_count_on_a_large_truncation_exits_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "witt", "ghost", "--trunc", "big:100000", "--input", "[1]")
        assert time.perf_counter() - start < 2
        assert code == 1 and err.startswith("usage error:") and out == ""

    def test_large_big_truncation_builds_quickly(self):
        start = time.perf_counter()
        S = TruncationSet.big(16000)
        assert time.perf_counter() - start < 0.5
        assert len(S) == 16000

    def test_non_canonical_x_name_is_a_free_variable_of_the_x_basis(self, capsys):
        # x01 is not x1: re-expression leaves it in place, as it does y
        code, out, err = run_within(2, capsys, "lambda", "to-x-basis", "--primes", "2,3", "--depth", "2", "--expr", "x01")
        assert (code, out, err) == (0, "x_basis: x01\nintegral: True\n", "")

    def test_non_canonical_x_name_is_refused_by_adams(self, capsys):
        code, out, err = run_within(2, capsys, "lambda", "adams", "--m", "2", "--N", "4", "--expr", "x01 + x1")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "x01 is not an Adams model variable" in err

    def test_truncation_with_a_large_prime_builds_quickly(self, capsys):
        argv = ("witt", "ghost", "--trunc", "p:1000000000039,3", "--input", "[1,0,0]")
        assert run_within(2, capsys, *argv) == (0, "ghost: [1, 1, 1]\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("witt", "w2-check", "--p", "2", "--bound", "100000"),
            ("lambda", "newton", "--psi", "id", "--K", "100000", "--eval", "5"),
            ("lambda", "wilkerson", "--ring", "Z", "--K", "100000", "--eval", "3"),
        ],
    )
    def test_work_over_a_cost_limit_is_refused(self, capsys, argv):
        code, out, err = run_within(2, capsys, *argv)
        assert (code, err) == (2, "")
        error, message = out.splitlines()
        assert error == "error: CostLimitExceeded"
        assert message.startswith("message: ") and "100000" in message
        assert message.endswith(("(bound <= 100)", "(K <= 100)"))

    def test_fracture_of_a_large_prime_order_runs(self, capsys):
        code, out, err = run_within(2, capsys, "verify", "fracture", "--group", "Z/1000000000000000003")
        assert (code, err) == (0, "") and out.endswith("status: pass\n")

    def test_fracture_of_an_order_past_trial_division_is_refused(self, capsys):
        # 1000000007 * 1000000009: no factor up to the trial bound, and not prime
        code, out, err = run_within(2, capsys, "verify", "fracture", "--group", "Z/1000000016000000063")
        assert (code, err) == (2, "")
        error, message = out.splitlines()
        assert error == "error: CostLimitExceeded"
        assert message.startswith("message: 1000000016000000063 ") and message.endswith("(divisors <= 1000000)")

    def test_work_at_the_cost_limits_runs(self, capsys):
        code, out, _ = run_within(5, capsys, "witt", "w2-check", "--p", "2", "--bound", "100")
        assert code == 0 and "status: pass" in out and "points_in_fibered_product: 20201" in out
        code, out, _ = run_within(5, capsys, "lambda", "newton", "--psi", "id", "--K", "100", "--eval", "5")
        assert code == 0 and out.startswith("lambda: [5, 10, 10, 5, 1, 0, ") and out.count(",") == 99
        code, out, _ = run_within(5, capsys, "lambda", "wilkerson", "--ring", "Z", "--K", "100", "--eval", "3")
        assert code == 0 and out.startswith("lambda: [3, 3, 1, 0, ") and out.count(",") == 99

    @pytest.mark.parametrize("elems", [(1, 2, 3, 12), (1, 4), (2,)])
    def test_set_that_is_not_division_stable_is_refused(self, elems):
        with pytest.raises(UsageError, match="not division-stable"):
            TruncationSet(elems)


def _structure_big2_add(capsys):
    return run(capsys, "witt", "structure", "--op", "add", "--trunc", "big:2")


def test_disk_cache_tampered_file_is_regenerated(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(tmp_path))
    from lambda_forge.witt import clear_memo

    clear_memo()
    code, first, _ = _structure_big2_add(capsys)
    assert code == 0 and "-a1*b1 + a2 + b2" in first
    path = tmp_path / "structure_add_big2.json"
    text = path.read_text()
    assert '"coef": "-1"' in text
    path.write_text(text.replace('"coef": "-1"', '"coef": "-5"'))
    clear_memo()
    code, again, _ = _structure_big2_add(capsys)
    assert code == 0 and again == first
    assert path.read_text() == text
    assert path.stat().st_mode & 0o777 == 0o644
    assert [f.name for f in tmp_path.iterdir()] == ["structure_add_big2.json"]
    clear_memo()


def test_disk_cache_unreadable_file_is_regenerated(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LAMBDA_FORGE_CACHE_DIR", str(tmp_path))
    from lambda_forge.witt import clear_memo

    clear_memo()
    code, first, _ = _structure_big2_add(capsys)
    path = tmp_path / "structure_add_big2.json"
    text = path.read_text()
    # a1 + b1 as 2*a1 - a1 + b1 over a repeated a1: the same value at every point
    repeated = text.replace(
        '[{"coef": "1", "exps": [1, 0]}, {"coef": "1", "exps": [0, 1]}], "vars": ["a1", "b1"]',
        '[{"coef": "2", "exps": [1, 0, 0]}, {"coef": "-1", "exps": [0, 1, 0]}, {"coef": "1", "exps": [0, 0, 1]}], '
        '"vars": ["a1", "a1", "b1"]',
    )
    assert repeated != text
    for junk in ("{not json", '{"polys": []}', text.replace('"coef": "-1"', '"coef": "1/2"'), repeated):
        path.write_text(junk)
        clear_memo()
        assert _structure_big2_add(capsys) == (0, first, "")
        assert path.read_text() == text
    clear_memo()
