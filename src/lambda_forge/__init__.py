"""Exact computer algebra for Witt vectors, delta-rings and lambda-rings.

The public names below are resolved on first access (PEP 562), each from
its home module, so ``import lambda_forge`` loads no other module of the
package and a process compiles only the modules whose names it reads.
"""

import importlib

# each public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "rings": ("CoeffRing", "QQ", "ZZ"),
        "poly": ("MultiPoly",),
        "series": ("TruncSeries", "from_series", "to_series"),
        "truncation": ("TruncationSet",),
        "delta": ("w2_pullback_check",),
        "witt": (
            "GhostVec", "WittVec", "comult", "counit", "frobenius", "ghost_inverse", "ghost_map", "restrict",
            "structure_poly_map", "teichmuller", "verschiebung",
        ),
    }.items()
    for name in names
}
__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
