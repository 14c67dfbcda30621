"""The disk cache of universal polynomials: its file format, reader and writer.

Setting LAMBDA_FORGE_CACHE_DIR persists the memo of ``witt._generated``
as JSON files keyed by (operation, truncation); ``witt`` loads this module
only when that variable is set.  A file is written in one streamed pass,
one polynomial's text at a time and no dict a term, byte for byte what
``json.dumps`` of the ``MultiPoly`` JSON schema gives under
``sort_keys=True``.  A cache directory that cannot be written is skipped,
and the answer is unchanged.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

from .errors import ForgeError
from .poly import MultiPoly
from .rings import ascii_int


def _json_text(p: MultiPoly) -> str:
    """``json.dumps(p.to_json(), sort_keys=True)``, formed from the terms
    with one f-string each and no dict a term: its keys are written in
    sorted order, and coefficients and exponents need no escaping."""
    coeff_str = p.ring.coeff_str
    terms = ", ".join([f'{{"coef": "{coeff_str(c)}", "exps": {list(e)}}}' for e, c in p.terms.items()])
    ring, names = json.dumps(p.ring.to_json(), sort_keys=True), json.dumps(list(p.vars))
    return f'{{"ring": {ring}, "terms": [{terms}], "vars": {names}}}'


def _cache_path(key) -> str | None:
    root = os.environ.get("LAMBDA_FORGE_CACHE_DIR")
    if not root:
        return None
    return os.path.join(root, "_".join(str(part) for part in key) + ".json")


def _store(path: str, polys: dict):
    """Write ``polys`` to ``path`` as ``json.dumps({"polys": ...}, sort_keys=True)``
    would, an index tuple keyed by its indices joined with commas, one
    polynomial's text at a time in key order.  The file is written to a
    unique temporary file and renamed into place; a cache that cannot be
    written is skipped, and no temporary file is left behind."""
    folder = os.path.dirname(path) or "."
    keyed = sorted((",".join(map(str, k)) if isinstance(k, tuple) else str(k), k) for k in polys)
    tmp = None
    try:
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            os.chmod(tmp, 0o644)  # mkstemp makes the file private; the cache is meant to be shared
            fh.write('{"polys": {')
            for i, (name, k) in enumerate(keyed):
                fh.write(f'{", " if i else ""}"{name}": {_json_text(polys[k])}')
            fh.write("}}")
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _poly_map_from_json(obj: dict) -> dict:
    """The polynomials ``_store`` writes: a key with a comma is an index tuple."""
    out = {}
    for k, v in obj.items():
        parts = tuple(ascii_int(x) for x in k.split(","))
        out[parts if len(parts) > 1 else parts[0]] = MultiPoly.from_json(v)
    return out


def _load_cached(path: str, check) -> dict | None:
    """The polynomials in a cache file, or None if it is unreadable or fails ``check``."""
    try:
        with open(path) as fh:
            polys = _poly_map_from_json(json.load(fh)["polys"])
        return polys if check(polys) else None
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ForgeError):
        return None
