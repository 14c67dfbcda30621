"""Exact computer algebra for Witt vectors, delta-rings and lambda-rings."""

from .rings import CoeffRing, QQ, ZZ
from .poly import MultiPoly
from .series import TruncSeries
from .witt import (
    GhostVec,
    TruncationSet,
    WittVec,
    comult,
    counit,
    frobenius,
    from_series,
    ghost_inverse,
    ghost_map,
    restrict,
    structure_poly_map,
    teichmuller,
    to_series,
    verschiebung,
    w2_pullback_check,
)

__all__ = [
    "CoeffRing",
    "GhostVec",
    "MultiPoly",
    "QQ",
    "TruncSeries",
    "TruncationSet",
    "WittVec",
    "ZZ",
    "comult",
    "counit",
    "frobenius",
    "from_series",
    "ghost_inverse",
    "ghost_map",
    "restrict",
    "structure_poly_map",
    "teichmuller",
    "to_series",
    "verschiebung",
    "w2_pullback_check",
]
