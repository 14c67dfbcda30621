"""The runner of the ``witt`` commands, which ``cli.main`` imports after
parsing a ``witt`` argv."""

from __future__ import annotations

from .cli import _payload, _poly_list, _unused
from .errors import UsageError
from .rings import ZZ
from .textparse import parse_ring_spec, parse_trunc, parse_vector
from .truncation import TruncationSet


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
    from .witt import WittVec

    return WittVec(trunc, ZZ, _components(text, trunc, flag))


def _run_witt(args):
    from .witt import (
        GhostVec, comult, counit, frobenius, ghost_inverse, ghost_map, restrict, structure_poly_map, verschiebung,
    )

    sc = args.subcommand
    if sc == "w2-check":
        from .delta import w2_pullback_check

        gens = parse_ring_spec(args.ring)
        if gens:
            _unused("a ring with generators", bound=args.bound)
        return w2_pullback_check(args.p, 5 if args.bound is None else args.bound, gens)
    if sc == "structure":
        trunc = _get_trunc(args)
        polys = structure_poly_map(args.op, trunc)
        fields = {"op": args.op, "trunc": trunc.to_json(), "polys": {str(n): str(polys[n]) for n in trunc}}
        return _payload(args, fields, lambda: {"polys_json": {str(n): polys[n].to_json() for n in trunc}})
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
        return _payload(args, {"ghost": _poly_list(g.as_list())}, lambda: {"ghost_json": g.to_json()})
    if sc == "ghost-inv":
        vec = ghost_inverse(GhostVec(trunc, ZZ, _components(args.input, trunc)))
        return _payload(args, {"witt": _poly_list(vec.as_list())}, lambda: {"witt_json": vec.to_json()})
    if sc in ("add", "mul"):
        a = _vec(args.a, trunc, "--a")
        b = _vec(args.b, trunc, "--b")
        vec = a + b if sc == "add" else a * b
        return _payload(args, {sc: _poly_list(vec.as_list())}, lambda: {"witt_json": vec.to_json()})
    if sc == "frobenius":
        result = frobenius(args.n, _vec(args.input, trunc))
        fields = {"trunc": result.trunc.to_json(), "frobenius": _poly_list(result.as_list())}
        return _payload(args, fields, lambda: {"witt_json": result.to_json()})
    if sc == "verschiebung":
        vec = _vec(args.input, trunc.divide(args.n))
        return {"verschiebung": _poly_list(verschiebung(args.n, vec, trunc).as_list())}
    if sc == "restrict":
        target = parse_trunc(args.to)
        return {"restrict": _poly_list(restrict(_vec(args.input, trunc), target).as_list())}
    # the last subcommand: series
    from .series import TruncSeries, from_series, to_series

    if args.dir == "to":
        _unused("--dir to", coeffs=args.coeffs)
        return {"series": str(to_series(_vec(args.input, trunc)))}
    _unused("--dir from", input=args.input)
    if not args.coeffs:
        raise UsageError("--dir from needs --coeffs '[1, c1, ...]'")
    n = trunc.series_length()
    return {"witt": _poly_list(from_series(TruncSeries(ZZ, parse_vector(args.coeffs, ZZ)), n).as_list())}
