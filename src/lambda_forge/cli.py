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
from .poly import MultiPoly
from .rings import QQ, ZZ
from .series import TruncSeries
from .textparse import (
    ascii_int,
    parse_phi_spec,
    parse_poly,
    parse_primes,
    parse_ring_spec,
    parse_trunc,
    parse_vector,
)
from .witt import (
    TruncationSet,
    WittVec,
    comult,
    counit,
    frobenius,
    from_series,
    ghost_inverse,
    ghost_map,
    GhostVec,
    restrict,
    structure_poly_map,
    to_series,
    verschiebung,
    w2_pullback_check,
)

# Every command loads the modules above.  The delta, lambda and verify
# families import their own modules when they run, so a witt command never
# compiles them.  These are the names of verify.SUITES, kept here so that
# building the parser imports no suite (a test pins the two lists).
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


def _get_trunc(args) -> TruncationSet:
    if args.trunc:
        _unused("a truncation given by --trunc", p=args.p, len=args.length)
        return parse_trunc(args.trunc)
    if args.p is not None and args.length is not None:
        return TruncationSet.p_typical(args.p, args.length)
    raise UsageError("give --trunc big:N|p:P,K or --p P --len K")


def _components(text, trunc: TruncationSet, flag: str = "--input") -> dict:
    """The vector given by ``flag``, as {n: value}, one component per element of ``trunc``."""
    if not text:
        raise UsageError(f"{flag} is required")
    comps = parse_vector(text, ZZ)
    if len(comps) != len(trunc):
        raise UsageError(
            f"{flag} has {len(comps)} components, the truncation set has {len(trunc)}"
        )
    return dict(zip(trunc.elems, comps))


def _vec(text, trunc: TruncationSet, flag: str = "--input") -> WittVec:
    """The Witt vector given by ``flag``."""
    return WittVec(trunc, ZZ, _components(text, trunc, flag))


def _poly_list(values) -> list:
    return [str(v) for v in values]


def _run_witt(args):
    sc = args.subcommand
    if sc == "w2-check":
        gens = parse_ring_spec(args.ring)
        if gens:
            _unused("a ring with generators", bound=args.bound)
        return w2_pullback_check(args.p, 5 if args.bound is None else args.bound, gens)
    if sc == "structure":
        trunc = _get_trunc(args)
        polys = structure_poly_map(args.op, trunc)
        return {
            "op": args.op,
            "trunc": trunc.to_json(),
            "polys": {str(n): str(polys[n]) for n in trunc},
            "polys_json": {str(n): polys[n].to_json() for n in trunc},
        }
    if sc == "comonad":
        if args.op == "counit":
            _unused("counit", outer=args.outer, inner=args.inner)
            trunc = _get_trunc(args)
            return {"counit": str(counit(_vec(args.input, trunc)))}
        if not args.outer or not args.inner:
            raise UsageError("comult needs --outer and --inner truncations")
        _unused("comult", trunc=args.trunc, p=args.p, len=args.length)
        S = parse_trunc(args.outer)
        T = parse_trunc(args.inner)
        U = S.product(T)
        vec = _vec(args.input, U)
        result = comult(vec, S, T)
        return {
            "outer": S.to_json(),
            "inner": T.to_json(),
            "components": {
                str(s): _poly_list(result.comps[s].as_list()) for s in S
            },
        }
    trunc = _get_trunc(args)
    if sc == "ghost":
        g = ghost_map(_vec(args.input, trunc))
        return {"ghost": _poly_list(g.as_list()), "ghost_json": g.to_json()}
    if sc == "ghost-inv":
        vec = ghost_inverse(GhostVec(trunc, ZZ, _components(args.input, trunc)))
        return {"witt": _poly_list(vec.as_list()), "witt_json": vec.to_json()}
    if sc in ("add", "mul"):
        a = _vec(args.a, trunc, "--a")
        b = _vec(args.b, trunc, "--b")
        vec = a + b if sc == "add" else a * b
        return {sc: _poly_list(vec.as_list()), "witt_json": vec.to_json()}
    if sc == "frobenius":
        result = frobenius(args.n, _vec(args.input, trunc))
        return {
            "trunc": result.trunc.to_json(),
            "frobenius": _poly_list(result.as_list()),
            "witt_json": result.to_json(),
        }
    if sc == "verschiebung":
        vec = _vec(args.input, trunc.divide(args.n))
        return {"verschiebung": _poly_list(verschiebung(args.n, vec, trunc).as_list())}
    if sc == "restrict":
        target = parse_trunc(args.to)
        return {"restrict": _poly_list(restrict(_vec(args.input, trunc), target).as_list())}
    # the last subcommand: series
    if args.dir == "to":
        _unused("--dir to", coeffs=args.coeffs)
        return {"series": str(to_series(_vec(args.input, trunc)))}
    _unused("--dir from", input=args.input)
    if not args.coeffs:
        raise UsageError("--dir from needs --coeffs '[1, c1, ...]'")
    n = trunc.series_length()
    return {"witt": _poly_list(from_series(TruncSeries(ZZ, parse_vector(args.coeffs, ZZ)), n).as_list())}


def _run_delta(args):
    from .delta import DeltaPresentation, delta_from_phi, free_delta_ring

    sc = args.subcommand
    if sc in ("extend", "phi"):
        pres = free_delta_ring(args.p, args.depth)
        e = parse_poly(args.expr, ZZ)
        if sc == "extend":
            return {"delta": str(pres.delta(e))}
        return {"phi": str(pres.phi(e))}
    if sc == "from-phi":
        gens = parse_ring_spec(args.ring)
        phi = parse_phi_spec(args.phi, gens)
        pres = delta_from_phi(args.p, gens, phi)
        out = {"delta_on_gens": {g: str(v) for g, v in sorted(pres.delta_on_gens.items())}}
        if args.eval_at is not None:
            out["value"] = str(pres.delta(args.eval_at))
        return out
    if sc == "free":
        pres = free_delta_ring(args.p, args.depth)
        if args.show == "phi":
            return {"phi": {g: str(v) for g, v in sorted(pres.phi_on_gens.items())}}
        return {"delta": {g: str(v) for g, v in sorted(pres.delta_on_gens.items())}}
    # the last subcommand: section
    if args.expr is not None:
        _unused("--expr", eval=args.eval_at)
        # expression in the free delta-ring generators x0..x<depth>
        vec = free_delta_ring(args.p, 3 if args.depth is None else args.depth).section(parse_poly(args.expr, ZZ))
    elif args.eval_at is not None:
        _unused("--eval", depth=args.depth)
        # Z has one delta-structure: its Frobenius lift is the identity
        vec = DeltaPresentation(args.p, (), {}).section(args.eval_at)
    else:
        raise UsageError("section needs --eval N (over Z) or --expr (free delta-ring)")
    return {"section": _poly_list(vec.as_list())}


def _run_lambda(args):
    from .lambdaring import AdamsModel, FreeLambdaBasis, coaction, wilkerson_lambda

    sc = args.subcommand
    if sc == "free":
        basis = FreeLambdaBasis(parse_primes(args.primes), args.depth)
        if args.show is not None:
            e = parse_poly(args.show, QQ)
            # one variable to the first power, coefficient 1
            if e.terms != {(1,): 1}:
                raise UsageError("--show takes a single basis element like 'X(2)'")
            name = e.vars[0]
            match = [s for s, nm in basis.names.items() if nm == name]
            if not match:
                raise UsageError(f"{args.show!r} is not in the basis")
            return {"element": name, "embedding": str(basis.embed[match[0]])}
        return {
            "basis": {
                basis.names[s]: str(basis.embed[s]) for s in basis.sigmas
            }
        }
    if sc == "adams":
        model = AdamsModel(args.N)
        return {"result": str(model.psi(args.m, parse_poly(args.expr, QQ)))}
    if sc == "newton":
        # the Wilkerson family of Z: every Frobenius lift is the identity
        values = wilkerson_lambda((), {}, args.K).lambda_values(MultiPoly.const(ZZ, args.eval_at))
        return {"lambda": [str(v.constant_value()) for v in values]}
    if sc == "wilkerson":
        gens = parse_ring_spec(args.ring)
        if args.eval_gen is not None and args.eval_gen not in gens:
            raise UsageError(f"--eval-gen {args.eval_gen!r} is not a generator of --ring {args.ring!r}")
        family = {}
        for clause in args.phi:
            p, colon, body = clause.partition(":")
            try:
                p = ascii_int(p.strip() if colon else "")
            except UsageError:
                raise UsageError("--phi clauses look like '2:u->u^2'") from None
            if p in family:
                raise UsageError(f"--phi is given twice for p = {p}")
            family[p] = parse_phi_spec(body, gens)
        ops = wilkerson_lambda(gens, family, args.K)
        if args.eval_gen is not None:
            _unused("--eval-gen", eval=args.eval_at)
            values = ops.lambda_values(MultiPoly.var(ZZ, args.eval_gen))
            return {"lambda": _poly_list(values)}
        if args.eval_at is not None:
            values = ops.lambda_values(MultiPoly.const(ZZ, args.eval_at))
            return {"lambda": [str(v.constant_value()) for v in values]}
        return {"lambda_on_gens": {g: _poly_list(v) for g, v in ops.lambda_on_gens.items()}}
    if sc == "to-x-basis":
        basis = FreeLambdaBasis(parse_primes(args.primes), args.depth)
        xp, integral = basis.to_x_basis(parse_poly(args.expr, QQ))
        return {"x_basis": str(xp), "integral": integral}
    # the last subcommand: coaction
    vec = coaction(lambda n, x: x, MultiPoly.const(ZZ, args.eval_at), parse_trunc(args.trunc), ZZ)
    return {"coaction": _poly_list(vec.as_list()), "witt_json": vec.to_json()}


def _run_verify(args):
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    custom = args.primes is not None or args.depth is not None
    if (args.corrupt or custom) and args.suite != "joyal-rezk":
        raise UsageError("--corrupt, --primes and --depth apply to joyal-rezk only")
    if args.group is not None and args.suite != "fracture":
        raise UsageError("--group applies to fracture only")
    if args.corrupt and custom:
        raise UsageError("--corrupt runs a fixed family and takes no --primes or --depth")
    if args.group is not None:
        from .abelian import fracture_check, parse_group

        reports = [fracture_check(parse_group(args.group))]
    else:
        from .verify import corrupted_joyal_rezk, joyal_rezk_suite, run_suite

        if args.corrupt:
            reports = [corrupted_joyal_rezk()]
        elif custom:
            primes = parse_primes(args.primes) if args.primes is not None else (2, 3, 5)
            reports = [joyal_rezk_suite(args.seed, primes, 2 if args.depth is None else args.depth)]
        else:
            reports = run_suite(args.suite, args.seed)
    status = all(r.get("status") == "pass" for r in reports)
    return {"seed": args.seed, "reports": reports, "status": "pass" if status else "fail"}, status


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(payload, sort_keys=True, indent=1)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                if k.endswith("_json"):
                    continue
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
            payload = _run_witt(args)
        elif args.command == "delta":
            payload = _run_delta(args)
        elif args.command == "lambda":
            payload = _run_lambda(args)
        else:
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
    sys.exit(main())
