"""Textual input grammar for the CLI.

Polynomials: integer coefficients, `^` powers (a unary minus negates the
whole power: `-x^2` is `-(x^2)`, as printed), `*` products, `/` by a
positive integer literal (exact over the coefficient ring), parentheses,
variable names matching [A-Za-z][A-Za-z0-9_]* (the one name rule,
``poly._NAME``), and `X(2,3)` sugar for
lambda-basis generators (the empty sequence is `X()` or `X0`).  Witt
vectors are bracketed, comma-separated component lists.  Both kinds of list
are read by one rule, ``_Parser.items``.  Truncation sets are `big:N` or
`p:P,K`.  Every integer is written in ASCII decimal digits.
"""

from __future__ import annotations

import re

from .errors import NotDivisible, UsageError
from .poly import _NAME, MultiPoly
from .rings import CoeffRing, ZZ, ascii_int
from .truncation import TruncationSet


def _sigma_name(sigma) -> str:
    """The variable that X(sigma) names: X2_3 for X(2,3), X0 for X()."""
    if not sigma:
        return "X0"
    return "X" + "_".join(str(p) for p in sigma)


_TOKEN = re.compile(rf"\s*([0-9]+|{_NAME.pattern}|\*\*|[-+*/^(),\[\]])")


def _tokenize(text: str):
    out = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if not m:
            raise UsageError(f"cannot tokenize {text[pos:]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, ring: CoeffRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise UsageError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise UsageError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self, rule=None):
        """What ``rule`` (default: ``expr``) reads, which must be the whole input."""
        value = (rule or self.expr)()
        if self.peek() is not None:
            raise UsageError(f"trailing input at {self.peek()!r}")
        return value

    def items(self, opening: str, item, closing: str) -> list:
        """The values of ``item`` in a comma-separated list between the
        tokens ``opening`` and ``closing``; an empty list has no comma."""
        self.take(opening)
        out = []
        if self.peek() != closing:
            out.append(item())
            while self.peek() == ",":
                self.take()
                out.append(item())
        self.take(closing)
        return out

    def prime(self) -> int:
        num = self.take()
        if not num.isdigit():
            raise UsageError(f"X(...) takes primes, found {num!r}")
        return int(num)

    def expr(self) -> MultiPoly:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> MultiPoly:
        value = self.factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                value = value * self.factor()
                continue
            d = self.take()
            if not d.isdigit() or int(d) == 0:
                raise UsageError(f"divisors must be positive integers, found {d!r}")
            try:
                value = value.div_int(int(d))
            except NotDivisible:
                raise UsageError(f"cannot divide by {d} over {self.ring!r}") from None
        return value

    def factor(self) -> MultiPoly:
        # a unary minus negates the whole power: -x^2 is -(x^2), as printed
        if self.peek() == "-":
            self.take()
            return -self.factor()
        value = self.atom()
        while self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise UsageError(f"exponent must be a nonnegative integer, found {exp!r}")
            value = value ** int(exp)
        return value

    def atom(self) -> MultiPoly:
        tok = self.peek()
        if tok == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        tok = self.take()
        if tok.isdigit():
            return MultiPoly.const(self.ring, int(tok))
        if _NAME.fullmatch(tok):
            if tok == "X" and self.peek() == "(":
                return MultiPoly.var(self.ring, _sigma_name(self.items("(", self.prime, ")")))
            return MultiPoly.var(self.ring, tok)
        raise UsageError(f"unexpected token {tok!r}")


def parse_poly(text: str, ring: CoeffRing = ZZ) -> MultiPoly:
    return _Parser(_tokenize(text), ring).parse()


def parse_vector(text: str, ring: CoeffRing = ZZ) -> list:
    """A bracketed, comma-separated list of polynomial expressions."""
    parser = _Parser(_tokenize(text), ring)
    if parser.tokens[:1] != ["["] or parser.tokens[-1:] != ["]"]:
        raise UsageError("vectors are written [c1, c2, ...]")
    return parser.parse(lambda: parser.items("[", parser.expr, "]"))


def parse_trunc(spec: str) -> TruncationSet:
    """Grammar: big:N | p:P,K."""
    spec = spec.strip()
    if spec.startswith("big:"):
        try:
            n = ascii_int(spec[4:].strip())
        except UsageError:
            raise UsageError("big truncations are written big:N") from None
        return TruncationSet.big(n)
    if spec.startswith("p:"):
        body = spec[2:]
        try:
            p, k = (ascii_int(x.strip()) for x in body.split(","))
        except (UsageError, ValueError):
            raise UsageError("p-typical truncations are written p:P,K") from None
        return TruncationSet.p_typical(p, k)
    raise UsageError(f"cannot parse truncation {spec!r} (use big:N or p:P,K)")


def parse_ring_spec(spec: str) -> tuple:
    """'Z' or 'Z[u,v]' -> the generator names of a polynomial ring over Z."""
    spec = spec.replace(" ", "")
    if spec == "Z":
        return ()
    m = re.fullmatch(rf"Z\[({_NAME.pattern}(?:,{_NAME.pattern})*)\]", spec)
    if not m:
        raise UsageError(f"cannot parse ring {spec!r} (use Z or Z[u,v])")
    gens = tuple(m.group(1).split(","))
    if len(set(gens)) != len(gens):
        raise UsageError(f"generator {next(g for g in gens if gens.count(g) > 1)!r} is named twice in ring {spec!r}")
    return gens


def parse_phi_spec(spec: str, gens) -> dict:
    """'id' or 'u->u^2;v->v^3' -> substitution on the generators."""
    spec = spec.strip()
    if spec == "id":
        return {g: MultiPoly.var(ZZ, g) for g in gens}
    out = {}
    for part in spec.split(";"):
        if "->" not in part:
            raise UsageError(f"phi clauses are written gen->expr, found {part!r}")
        name, body = part.split("->", 1)
        name = name.strip()
        if name not in gens:
            raise UsageError(f"{name!r} is not a generator of the ring")
        if name in out:
            raise UsageError(f"phi is given twice on generator {name!r}")
        out[name] = parse_poly(body, ZZ)
    missing = [g for g in gens if g not in out]
    if missing:
        raise UsageError(f"phi not specified on generator {missing[0]!r}")
    return out


def parse_primes(spec: str):
    try:
        return tuple(sorted({ascii_int(p.strip()) for p in spec.split(",")}))
    except UsageError:
        raise UsageError(f"cannot parse prime list {spec!r}") from None
