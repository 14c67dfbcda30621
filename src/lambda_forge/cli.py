"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 domain error (NotDivisible,
NotAFrobeniusLift, ...), 3 verification failure.  Output is deterministic
for a fixed argv and seed: JSON is emitted with sorted keys and text
renderings iterate canonical orders only.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, UsageError
from .rings import ascii_int

# At module level the CLI imports only what parsing needs.  Each family's
# runner lives in a module of its own (``cli_witt``, ``cli_delta``,
# ``cli_lambda``, ``cli_verify``), which ``main`` imports after parsing, and
# each runner imports what its commands run: Witt arithmetic (``witt``)
# where a Witt vector is built, the series model (``series``) for it alone,
# and the delta, lambda and verify modules for their own commands, so no
# command compiles a runner or a module it never calls.
# These are the names of verify.SUITES, kept here so that building the
# parser imports no suite (a test pins the two lists).
SUITES = ("witt-axioms", "ghost-compat", "joyal-rezk", "wilkerson", "w2-pullback", "coalgebra", "fracture")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int(text: str) -> int:
    """The type of every integer flag: ASCII decimal digits, with an optional leading '-'."""
    try:
        return ascii_int(text.strip(), signed=True)
    except UsageError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# The flags of each parser below the top level, as (name, add_argument keywords).
_REQUIRED, _INT, _REQUIRED_INT = {"required": True}, {"type": _int}, {"type": _int, "required": True}
_EVAL, _REQUIRED_EVAL = {"dest": "eval_at", "type": _int}, {"dest": "eval_at", "type": _int, "required": True}
_Z, _ID = {"choices": ("Z",), "default": "Z"}, {"choices": ("id",), "default": "id"}
_TRUNC = (
    ("--trunc", {"help": "truncation set, big:N or p:P,K"}),
    ("--p", {"type": _int, "help": "p-typical prime"}),
    ("--len", {"type": _int, "dest": "length", "help": "p-typical length"}),
)
_INPUT = _TRUNC + (("--input", {"help": "component list, e.g. '[a,0,0,0]'"}),)
_BINARY = _TRUNC + (("--a", _REQUIRED), ("--b", _REQUIRED))
_EXPR = (("--p", _REQUIRED_INT), ("--depth", {"type": _int, "default": 3}), ("--expr", _REQUIRED))
_X_BASIS = (("--primes", _REQUIRED), ("--depth", _REQUIRED_INT))

# family -> (its help, {subcommand: the flags of its leaf parser})
_LEAVES = {
    "witt": ("Witt vector computations", {
        "ghost": _INPUT,
        "ghost-inv": _INPUT,
        "structure": _TRUNC + (("--op", {"choices": ("add", "mul", "neg"), "required": True}),),
        "add": _BINARY,
        "mul": _BINARY,
        "frobenius": _INPUT + (("--n", _REQUIRED_INT),),
        "verschiebung": _INPUT + (("--n", _REQUIRED_INT),),
        "restrict": _INPUT + (("--to", {"required": True, "help": "target truncation"}),),
        "series": _INPUT + (
            ("--dir", {"choices": ("to", "from"), "default": "to"}),
            ("--coeffs", {"help": "series coefficients for --dir from, e.g. '[1,-a,0]'"}),
        ),
        "comonad": (
            ("--op", {"choices": ("counit", "comult"), "required": True}),
            ("--outer", {"help": "outer truncation for comult"}),
            ("--inner", {"help": "inner truncation for comult"}),
        ) + _INPUT,
        "w2-check": (("--p", _REQUIRED_INT), ("--bound", _INT), ("--ring", {"default": "Z"})),
    }),
    "delta": ("delta-ring computations", {
        "extend": _EXPR,
        "phi": _EXPR,
        "from-phi": (("--p", _REQUIRED_INT), ("--ring", _REQUIRED), ("--phi", _REQUIRED), ("--eval", _EVAL)),
        "free": (
            ("--p", _REQUIRED_INT),
            ("--depth", _REQUIRED_INT),
            ("--show", {"choices": ("phi", "delta"), "default": "phi"}),
        ),
        "section": (("--p", _REQUIRED_INT), ("--ring", _Z), ("--eval", _EVAL), ("--expr", {}), ("--depth", _INT)),
    }),
    "lambda": ("lambda-ring computations", {
        "free": _X_BASIS + (("--show", {"help": "basis element, e.g. 'X(2)' (default: all)"}),),
        "adams": (("--N", {"type": _int, "default": 12}), ("--m", _REQUIRED_INT), ("--expr", _REQUIRED)),
        "newton": (("--psi", _ID), ("--K", _REQUIRED_INT), ("--eval", _REQUIRED_EVAL)),
        "wilkerson": (
            ("--ring", _REQUIRED),
            ("--phi", {"action": "append", "default": [], "help": "'p:gen->expr;...' per prime"}),
            ("--K", {"type": _int, "default": 2}),
            ("--eval-gen", {"help": "generator to expand lambda on"}),
            ("--eval", _EVAL),
        ),
        "to-x-basis": _X_BASIS + (("--expr", _REQUIRED),),
        "coaction": (("--ring", _Z), ("--psi", _ID), ("--trunc", _REQUIRED), ("--eval", _REQUIRED_EVAL)),
    }),
}
_VERIFY = (
    ("suite", {"choices": SUITES + ("all",)}),
    ("--seed", {"type": _int, "default": 0}),
    ("--primes", {}),
    ("--depth", _INT),
    ("--group", {}),
    ("--corrupt", {"action": "store_true", "help": "feed joyal-rezk a corrupted Adams family (expected to fail)"}),
)


def _add_flags(parser, flags):
    for name, keywords in flags:
        parser.add_argument(name, **keywords)
    return parser


class _Leaves(dict):
    """A family's subcommand map, installed as its subparsers action's
    ``_name_parser_map`` and ``choices``.  Every subcommand is registered up
    front, in table order, so help and invalid-choice errors list them all;
    its parser is built from its flags the first time it is looked up, as
    ``add_parser`` builds one.  argparse looks up only the leaf it runs."""

    def __init__(self, action, common, leaves):
        super().__init__(leaves)
        self._action, self._common = action, common

    def __getitem__(self, name):
        leaf = super().__getitem__(name)
        if not isinstance(leaf, argparse.ArgumentParser):
            parser = self._action._parser_class(prog=f"{self._action._prog_prefix} {name}", parents=[self._common])
            leaf = self[name] = _add_flags(parser, leaf)
        return leaf

    def get(self, name, default=None):
        return self[name] if name in self else default

    def items(self):
        return [(name, self[name]) for name in self]

    def values(self):
        return [self[name] for name in self]


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS: a leaf parser that is not given --format leaves the top-level value alone
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    # a family takes the flag too, between the family and its subcommand, but
    # does not list it: it is listed by the top level and by each subcommand
    hidden = argparse.ArgumentParser(add_help=False)
    hidden.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    top = _Parser(prog="lambda-forge", description=__doc__, parents=[common])
    sub = top.add_subparsers(dest="command", required=True)
    for family, (text, leaves) in _LEAVES.items():
        modes = sub.add_parser(family, help=text, parents=[hidden]).add_subparsers(dest="subcommand", required=True)
        modes._name_parser_map = modes.choices = _Leaves(modes, common, leaves)
    _add_flags(sub.add_parser("verify", help="verification suites", parents=[common]), _VERIFY)
    return top


def _unused(mode: str, **flags):
    """Refuse each flag (name -> parsed value) that is set, since ``mode`` ignores it."""
    for flag, value in flags.items():
        if value is not None:
            raise UsageError(f"--{flag} does not apply to {mode}")


def _poly_list(values) -> list:
    return [str(v) for v in values]


def _payload(args, fields: dict, json_fields) -> dict:
    """``fields``, and for ``--format json`` also the fields ``json_fields()``
    gives: the ``*_json`` fields, which text output never prints, so it never
    forms them."""
    if getattr(args, "format", "text") == "json":
        fields.update(json_fields())
    return fields


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(payload, sort_keys=True, indent=1)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            rendered = ", ".join(str(v) for v in value) if all(
                not isinstance(v, (dict, list)) for v in value
            ) else None
            if rendered is not None:
                lines.append(f"{prefix[:-1]}: [{rendered}]")
            else:
                for i, v in enumerate(value):
                    walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", payload)
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    parser = _build_parser()
    fmt = "text"
    code = 0
    try:
        args = parser.parse_args(argv)
        fmt = getattr(args, "format", "text")
        if args.command == "witt":
            from .cli_witt import _run_witt

            payload = _run_witt(args)
        elif args.command == "delta":
            from .cli_delta import _run_delta

            payload = _run_delta(args)
        elif args.command == "lambda":
            from .cli_lambda import _run_lambda

            payload = _run_lambda(args)
        else:
            from .cli_verify import _run_verify

            payload, ok = _run_verify(args)
            code = 0 if ok else 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        payload, code = exc.payload(), 2
    try:
        print(_render(payload, fmt))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the interpreter's exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    # under ``python -m`` this module is __main__: the runners' ``from .cli
    # import`` must find it, not load and run a second copy of this file
    if vars(sys.modules["__main__"]) is globals():
        sys.modules.setdefault("lambda_forge.cli", sys.modules["__main__"])
    sys.exit(main())
