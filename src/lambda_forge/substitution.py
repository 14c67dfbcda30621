"""Simultaneous substitution into sparse polynomials, prepared once.

Substitution is prepared once, from its whole assignment, and applied to
any number of sources (``_Substitution``): it keeps, for each layout of a
result, every image packed and one power cache an image, so a caller that
substitutes into many sources, as the X basis of the free lambda-ring does
with its ghost rows, packs each image once a layout and forms each power of
it once.  It also keeps the rest of a call's set-up, the result's layout and
each variable's role in it, as one plan a source variable tuple and field
widths.  ``MultiPoly.substitute`` prepares one from the assignment
restricted to its own variables and applies it once.  Applying it is Horner
over the assigned variables whose images have more than one term, the
largest image outermost, in one bottom-up pass: the source terms are grouped
by their exponents of those variables, and each power of an image
multiplies the summed image of its group once rather than once per term.
Each level reads the power cache of its image, so x^4 comes from x^2 and
x^6 from x^3.  An image of one term c * m gets no level: its variable packs
with m's key as its weight, as an unassigned variable packs with its own,
and each source term picks up c ** e.
"""

from __future__ import annotations

from operator import mul

from .poly import (
    MultiPoly, _add_into, _coeff_power, _degree, _field, _keyed, _mul_terms, _numerators, _power, _reduce, _unpacked,
    _weights,
)
from .rings import CoeffRing


def _horner(ring: CoeffRing, items: dict, base: int, bits: int, powers: list) -> dict:
    """Raw image of packed source terms under a substitution, by Horner in
    one bottom-up pass over the levels.

    A key of ``items`` holds the free and riding variables' exponents in its
    lowest ``base`` bits, already in the result's layout, and above them one
    ``bits``-wide field for each level, the innermost lowest; ``powers[j]``
    caches the packed powers of the image at level j.  One map takes each
    upper key to the raw part below it; a level multiplies each part by the
    power of its image that the key's lowest field names, into the part of
    the key shifted down one field.  The caches belong to the caller, a
    ``_Substitution``, and keep every power formed here; no map of theirs is
    written to.
    """
    low = (1 << base) - 1
    parts: dict = {}
    for key, c in items.items():
        part = parts.get(key >> base)
        if part is None:
            parts[key >> base] = part = {}
        part[key & low] = c
    mask = (1 << bits) - 1
    for cache in powers:
        new: dict = {}
        for u, part in parts.items():
            e, u = u & mask, u >> bits
            out = new.get(u)
            if e:
                if out is None:
                    new[u] = out = {}
                _mul_terms(part, _power(ring, cache, e), out)
            elif out is None:
                # a fresh map that nothing else reads
                new[u] = part
            else:
                _add_into(out, part)
        parts = {u: _reduce(ring, part) for u, part in new.items()}
    return parts.get(0, {})


class _Substitution:
    """A simultaneous substitution over ``ring``, given its whole
    ``assignment`` (each value a polynomial over ``ring`` or a coefficient)
    when it is built and never changed; it is applied to any number of
    sources, and unassigned variables map to themselves.

    It holds each variable's image as numerators over a denominator D_v,
    cleared once, with the image's total degree, and for each layout of a
    result (the sorted unassigned variables of a source and the variables
    of its images, and the field width) each image packed into that layout
    as the first entry of the image's power cache.  An image is so packed
    once a layout, and each of its powers formed once a layout, not once a
    call; both live as long as the prepared substitution.

    What a call does besides the arithmetic depends only on the source's
    variable tuple and two field widths, and is worked out once, on first
    use, as a plan (``_plan``): the result's variables, each source
    variable's key weight, the riding images with their scales, and the
    level power caches in order.  A plan points at the caches of its layout
    and copies none of them.  Two threads that fill one power cache or plan
    at once form the same power or plan twice and keep one of them: wasted
    work, not a wrong answer.

    Applying it is Horner over the source's variables whose images have
    more than one term, the one with the largest image outermost: the
    source terms are grouped by that variable's exponent, and each power of
    its image multiplies the summed image of its group once; ``_horner``
    runs the levels in one pass, innermost first.  Unassigned variables and
    one-term images never get a level: their exponents, and their share of
    the degree field, ride along in the low bits of each packed key, and a
    one-term image c * m scales each source term by c ** e.  Two source
    terms can then land on one key, so they are summed.  The same pass
    scales each exponent e of v by D_v ** (E - e), E the top one in the
    source, so that the result lies over the source's denominator * D_v ** E.
    """

    __slots__ = ("ring", "images", "layouts", "plans")

    def __init__(self, ring: CoeffRing, assignment: dict):
        self.ring = ring
        # variable -> (variables, numerators, total degree, denominator) of its image
        self.images: dict = {}
        for v, val in assignment.items():
            if not isinstance(val, MultiPoly):
                val = MultiPoly.const(ring, val)
            ring.require_same(val.ring)
            terms, d = _numerators(ring, val.terms)
            self.images[v] = (val.vars, terms, _degree(terms), d)
        # (sorted variables, w) -> (their weights, {variable: power cache of its image})
        self.layouts: dict = {}
        # source variables -> (result variables, total degree of each one's image, {(w, bits): plan})
        self.plans: dict = {}

    def _shape(self, names: tuple) -> tuple:
        """(result variables, total degree of each image: 1 for an unassigned
        variable, and no plans yet) for a source over ``names``."""
        images = self.images
        vars, degrees = set(), []
        for v in names:
            image = images.get(v)
            if image is None:
                vars.add(v)
                degrees.append(1)
            else:
                vars.update(image[0])
                degrees.append(image[2])
        return tuple(sorted(vars)), degrees, {}

    def _plan(self, names: tuple, vars: tuple, w: int, bits: int) -> tuple:
        """The plan for a source over ``names`` whose result lies over
        ``vars`` at ``w`` bytes a field, with ``bits``-wide level fields:
        (each source variable's key weight, (i, c, D) of each variable i
        whose exponent scales, the level power caches innermost first, the
        bits below the levels)."""
        images = self.images
        layout = self.layouts.get((vars, w))
        if layout is None:
            self.layouts[vars, w] = layout = (_weights(vars, w), {})
        weight, caches = layout
        # the power cache of each assigned variable's image in this layout, packed on first use
        found = {}
        for i, v in enumerate(names):
            if v in images:
                cache = caches.get(v)
                if cache is None:
                    image_vars, terms, _, _ = images[v]
                    caches[v] = cache = {1: _keyed(image_vars, terms, weight)}
                found[i] = cache
        # a one-term image c * m rides in the key: its variable weighs m's
        # key, and each source term picks up c ** e
        riding = {i: next(iter(cache[1].items())) for i, cache in found.items() if len(cache[1]) == 1}
        order = sorted((i for i in found if i not in riding), key=lambda i: len(found[i][1]))
        # a source key holds the free and riding variables' exponents in the
        # result's layout, and above it the exponents of the levels, innermost lowest
        base = 8 * w * (len(vars) + 1)
        at = {i: 1 << base + bits * level for level, i in enumerate(order)}
        weights = [at[i] if i in at else riding[i][0] if i in riding else weight[v] for i, v in enumerate(names)]
        # an exponent e of a variable scales by c ** e * D ** (E - e): a unit
        # coefficient over 1 scales nothing
        scaled = []
        for i in found:
            c, d = riding[i][1] if i in riding else 1, images[names[i]][3]
            if c != 1 or d != 1:
                scaled.append((i, c, d))
        return weights, scaled, [found[i] for i in order], base

    def __call__(self, source: MultiPoly) -> MultiPoly:
        ring = self.ring
        ring.require_same(source.ring)
        shape = self.plans.get(source.vars)
        if shape is None:
            self.plans[source.vars] = shape = self._shape(source.vars)
        vars, degrees, plans = shape
        w = _field(max((sum(map(mul, exps, degrees)) for exps in source.terms), default=0))
        # a level's field holds any exponent of the source
        bits = 8 * _field(_degree(source.terms))
        plan = plans.get((w, bits))
        if plan is None:
            plans[w, bits] = plan = self._plan(source.vars, vars, w, bits)
        weights, scaled, levels, base = plan
        terms, den = _numerators(ring, source.terms)
        scales = []
        for i, c, d in scaled:
            top = max(exps[i] for exps in terms)
            scales.append((i, c, d, top))
            den *= d ** top
        items: dict = {}
        for exps, c in terms.items():
            for i, s, d, top in scales:
                c = c * _coeff_power(ring, s, exps[i]) * d ** (top - exps[i])
            key = sum(map(mul, exps, weights))
            items[key] = items[key] + c if key in items else c
        items = _reduce(ring, items)
        # with no level, the keys are already those of the result
        total = _horner(ring, items, base, bits, levels) if levels else items
        return _unpacked(ring, ring, vars, w, total, den)
