"""The runner of the ``lambda`` commands, which ``cli.main`` imports after
parsing a ``lambda`` argv."""

from __future__ import annotations

from .cli import _payload, _poly_list, _unused
from .errors import UsageError
from .poly import MultiPoly
from .rings import QQ, ZZ, ascii_int
from .textparse import parse_phi_spec, parse_poly, parse_primes, parse_ring_spec, parse_trunc


def _run_lambda(args):
    from .lambdaring import AdamsModel, FreeLambdaBasis, wilkerson_lambda

    sc = args.subcommand
    if sc == "newton":
        # the Wilkerson family of Z: every Frobenius lift is the identity
        args.ring, args.phi, args.eval_gen, sc = "Z", [], None, "wilkerson"
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
    from .witt import coaction

    vec = coaction(lambda n, x: x, MultiPoly.const(ZZ, args.eval_at), parse_trunc(args.trunc), ZZ)
    return _payload(args, {"coaction": _poly_list(vec.as_list())}, lambda: {"witt_json": vec.to_json()})
