"""The runner of the ``delta`` commands, which ``cli.main`` imports after
parsing a ``delta`` argv."""

from __future__ import annotations

from .cli import _poly_list, _unused
from .errors import UsageError
from .poly import MultiPoly
from .rings import ZZ
from .textparse import parse_phi_spec, parse_poly, parse_ring_spec
from .truncation import TruncationSet


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
    # the last subcommand: section, read off the coaction e -> (e, delta(e)) over p:P,2 with psi^p = phi
    if args.expr is not None:
        _unused("--expr", eval=args.eval_at)
        # expression in the free delta-ring generators x0..x<depth>
        pres, e = free_delta_ring(args.p, 3 if args.depth is None else args.depth), parse_poly(args.expr, ZZ)
    elif args.eval_at is not None:
        _unused("--eval", depth=args.depth)
        # Z has one delta-structure: its Frobenius lift is the identity
        pres, e = DeltaPresentation(args.p, (), {}), MultiPoly.const(ZZ, args.eval_at)
    else:
        raise UsageError("section needs --eval N (over Z) or --expr (free delta-ring)")
    from .witt import coaction

    vec = coaction(lambda n, x: x if n == 1 else pres.phi(x), e, TruncationSet.p_typical(pres.p, 2), ZZ)
    return {"section": _poly_list(vec.as_list())}
