"""Per-layer spans and counts, recorded around lambda-forge's functions.

The program is not changed: ``Tracer.install`` replaces functions and
methods of the imported modules with wrappers at run time and
``uninstall`` puts the originals back.  A name imported into several
modules (``structure_poly_map`` lives in ``witt``, ``verify`` and ``cli``)
is replaced in every module that binds it, and in module-level dispatch
tables.  A target that a later version of the program renames or drops
is skipped, and its metric then reads 0.

A span's self time is its duration minus the time of the spans it
encloses, so the self times of all layers add up to the traced time.
The verify suites are the exception: they sit at the top of their call
tree and do their work through the other layers, so their time is
reported inclusive, as the time each suite takes.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# metric -> [(module, qualified name), ...]; a span named "layer.x" yields
# the metrics "layer.x_s" (self time) and "layer.x_calls"
SPANS = {
    "poly.mul": [("poly", "MultiPoly.__mul__")],
    "poly.pow": [("poly", "MultiPoly.__pow__")],
    "poly.div_int": [("poly", "MultiPoly.div_int")],
    "poly.substitute": [("poly", "MultiPoly.substitute")],
    "poly.evaluate": [("poly", "MultiPoly.evaluate")],
    "poly.from_json": [("poly", "MultiPoly.from_json")],
    "poly.add": [
        ("poly", "MultiPoly.__add__"),
        ("poly", "MultiPoly.__sub__"),
        ("poly", "MultiPoly.__rsub__"),
        ("poly", "MultiPoly.__neg__"),
        ("poly", "poly_sum"),
    ],
    "series.mul": [("series", "TruncSeries.__mul__")],
    "witt.apply": [
        ("witt", "WittVec.__add__"),
        ("witt", "WittVec.__sub__"),
        ("witt", "WittVec.__mul__"),
        ("witt", "WittVec.__neg__"),
        ("witt", "WittVec.__pow__"),
        ("witt", "frobenius"),
        ("witt", "comult"),
    ],
    "witt.ghost": [("witt", "ghost_map"), ("witt", "ghost_inverse")],
    "witt.disk_load": [("witt", "_poly_map_from_json")],
    "delta.extend": [("delta", "DeltaPresentation.delta"), ("delta", "delta_extend")],
    "lambdaring.basis_build": [("lambdaring", "FreeLambdaBasis.__init__")],
    "lambdaring.to_x_basis": [("lambdaring", "FreeLambdaBasis.to_x_basis")],
    "lambdaring.adams": [
        ("lambdaring", "AdamsModel.psi"),
        ("lambdaring", "AdamsModel.delta"),
        ("lambdaring", "AdamsModel.frobenius_deviation"),
    ],
    "lambdaring.joyal_rezk": [("lambdaring", "verify_joyal_rezk")],
    "abelian.fracture": [("abelian", "fracture_check")],
    "textparse.parse": [
        ("textparse", name)
        for name in (
            "parse_poly",
            "parse_vector",
            "parse_trunc",
            "parse_ring_spec",
            "parse_phi_spec",
            "parse_primes",
        )
    ],
    "verify.witt-axioms": [("verify", "witt_axioms_suite")],
    "verify.ghost-compat": [("verify", "ghost_compat_suite")],
    "verify.joyal-rezk": [("verify", "joyal_rezk_suite")],
    "verify.wilkerson": [("verify", "wilkerson_suite")],
    "verify.w2-pullback": [("verify", "w2_pullback_suite")],
    "verify.coalgebra": [("verify", "coalgebra_suite")],
    "verify.fracture": [("verify", "fracture_suite")],
}

# calls counted without a span: these run per coefficient or per
# polynomial, and a span each would swamp what it measures
COUNTS = {
    "rings.normalize": [("rings", "CoeffRing.normalize")],
    "rings.div_int": [("rings", "CoeffRing.div_int")],
    "poly.init": [("poly", "MultiPoly.__init__")],
}

# memoized generators; a call is a memo hit when it returns the very dict
# an earlier call with the same arguments returned.  A miss served from the
# disk cache adds its self time (reading and parsing the file) to
# witt.disk_load, a miss that generates adds it to witt.gen
GENERATORS = [
    ("witt", "structure_poly_map"),
    ("witt", "frobenius_poly_map"),
    ("witt", "comult_poly_map"),
]


PACKAGE = "lambda_forge"


class Tracer:
    """Accumulates self time per span name and counts per counter name."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []
        self._last_result: dict = {}
        self._on = [True]

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, after=None, inclusive=False):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter
        on = self._on

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            bucket = name
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    bucket = after(args, result) or name
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[bucket] += elapsed if inclusive else elapsed - frame[0]
                counts[bucket + "_calls"] += 1

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        key = name + "_calls"
        on = self._on

        def wrapper(*args, **kwargs):
            if on[0]:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_mul(self, args, result):
        self.counts["poly.mul_terms_out"] += len(result.terms)

    def _after_disk_load(self, args, result):
        self.counts["witt.disk_loads"] += 1

    def _after_generator(self, qualname):
        before = {}

        def start(args):
            before[0] = self.counts["witt.disk_loads"]

        def after(args, result):
            key = (qualname, args)
            hit = self._last_result.get(key) is result
            self._last_result[key] = result
            if hit:
                self.counts["witt.memo_hits"] += 1
                return "witt.memo"
            if self.counts["witt.disk_loads"] != before[0]:
                return "witt.disk_load"
            self.counts["witt.gen_terms"] += sum(len(p.terms) for p in result.values())
            return "witt.gen"

        return start, after

    def _generator_span(self, qualname, fn):
        start, after = self._after_generator(qualname)
        inner = self._span("witt.lookup", fn, after)

        def wrapper(*args, **kwargs):
            if self._on[0]:
                start(args)
            return inner(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _resolve(self, module: str, qualname: str):
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if mod is None:
            return None, None
        owner = mod
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        raw = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
        if raw is None:
            return None, None
        return owner, raw

    def _replace_everywhere(self, original, wrapper, owner, raw):
        """Rebind every reference to ``original`` in the package's namespaces."""
        if isinstance(raw, staticmethod):
            for name, value in list(vars(owner).items()):
                if value is raw:
                    self._patches.append((owner, name, value))
                    setattr(owner, name, staticmethod(wrapper))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            namespaces = [mod]
            namespaces += [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod_name]
            for space in namespaces:
                for name, value in list(vars(space).items()):
                    if value is original:
                        self._patches.append((space, name, value))
                        setattr(space, name, wrapper)
                    elif isinstance(value, dict) and space is mod:
                        for key, item in list(value.items()):
                            if item is original:
                                self._patches.append((value, key, item))
                                value[key] = wrapper

    def install(self):
        if self._patches:
            return
        for name, targets in SPANS.items():
            for module, qualname in targets:
                owner, raw = self._resolve(module, qualname)
                if raw is None:
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                after = {"poly.mul": self._after_mul, "witt.disk_load": self._after_disk_load}.get(name)
                span = self._span(name, fn, after, inclusive=name.startswith("verify."))
                self._replace_everywhere(raw, span, owner, raw)
        for name, targets in COUNTS.items():
            for module, qualname in targets:
                owner, raw = self._resolve(module, qualname)
                if raw is not None:
                    self._replace_everywhere(raw, self._counter(name, raw), owner, raw)
        for module, qualname in GENERATORS:
            owner, raw = self._resolve(module, qualname)
            if raw is not None:
                self._replace_everywhere(raw, self._generator_span(qualname, raw), owner, raw)

    def uninstall(self):
        for space, name, value in reversed(self._patches):
            if isinstance(space, dict):
                space[name] = value
            else:
                setattr(space, name, value)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: for the benchmark's own checks."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        out = {f"{k}_s": v for k, v in self.self_s.items()}
        out.update(self.counts)
        return out
