"""Independent reference computations for checking lambda-forge answers.

Nothing here imports lambda_forge.  Witt vectors are checked through
ghost components computed with plain Python integers and fractions,
universal polynomials are evaluated straight from their ``vars`` and
``terms`` at integer points, and elements of the Adams model
Q[x_1, x_2, ...] are evaluated at rational points by their defining
recursions.  Every check returns None when the answer is right and a
short message naming what is wrong otherwise.
"""

from __future__ import annotations

import ast
from fractions import Fraction


def divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def p_typical(p: int, k: int):
    return [p ** i for i in range(k)]


def big(n: int):
    return list(range(1, n + 1))


def divide(S, n: int):
    """S/n = {d : n*d in S}, in increasing order."""
    members = set(S)
    return [d for d in range(1, max(S) + 1) if n * d in members]


def product_set(S, T):
    return sorted({s * t for s in S for t in T})


# -- ghost components --------------------------------------------------------


def ghost(S, comps: dict) -> dict:
    """w_n = sum_{d | n} d * a_d^(n/d) for every n in S."""
    return {n: sum(d * comps[d] ** (n // d) for d in divisors(n)) for n in S}


def ghost_inverse(S, w: dict) -> dict:
    """Solve w_n = sum_{d | n} d * a_d^(n/d) bottom up over Z or Q.

    Over Z the division by n must be exact; a remainder means ``w`` is not
    the ghost vector of an integral Witt vector and raises ValueError.
    """
    out: dict = {}
    for n in S:
        acc = w[n] - sum(d * out[d] ** (n // d) for d in divisors(n) if d != n)
        if isinstance(acc, Fraction):
            out[n] = acc / n
        else:
            q, r = divmod(acc, n)
            if r:
                raise ValueError(f"ghost component {n} is not integral")
            out[n] = q
    return out


def witt_expected(op: str, S, a: dict, b: dict | None = None, k: int = 1, n: int = 1):
    """The exact result of a numeric Witt operation, by the ghost route.

    op is one of add, mul, neg, pow (exponent k) and frobenius (index n,
    landing on S/n).  Returns (index set, components).
    """
    wa = ghost(S, a)
    if op == "add":
        wb = ghost(S, b)
        return S, ghost_inverse(S, {m: wa[m] + wb[m] for m in S})
    if op == "mul":
        wb = ghost(S, b)
        return S, ghost_inverse(S, {m: wa[m] * wb[m] for m in S})
    if op == "neg":
        return S, ghost_inverse(S, {m: -wa[m] for m in S})
    if op == "pow":
        return S, ghost_inverse(S, {m: wa[m] ** k for m in S})
    if op == "frobenius":
        target = divide(S, n)
        return target, ghost_inverse(target, {d: wa[n * d] for d in target})
    raise ValueError(f"unknown Witt operation {op!r}")


def witt_expected_mod(op: str, S, modulus: int, a: dict, b: dict | None = None, k: int = 1, n: int = 1):
    """Over Z/m: lift to Z, take the ghost route, reduce.

    Sound because the universal polynomials have integer coefficients, so
    reduction mod m commutes with them.
    """
    target, comps = witt_expected(op, S, a, b, k, n)
    return target, {m: c % modulus for m, c in comps.items()}


def check_vector(got: list, target, expected: dict):
    want = [expected[m] for m in target]
    if len(got) != len(want):
        return f"{len(got)} components, expected {len(want)}"
    for m, g, w in zip(target, got, want):
        if g != w:
            return f"component {m}: got {g}, expected {w}"
    return None


# -- polynomials given as vars and terms ---------------------------------------


def eval_terms(vars, terms, env: dict):
    """Evaluate sum c * prod v^e from a vars tuple and an exps->coef dict."""
    values = [env[v] for v in vars]
    total = 0
    for exps, c in terms.items():
        acc = c
        for x, e in zip(values, exps):
            if e:
                acc *= x ** e
        total += acc
    return total


def eval_poly(poly, env: dict):
    return eval_terms(poly.vars, poly.terms, env)


def check_structure(op: str, S, polys: dict, points):
    """Ghost identities of universal add, mul or neg polynomials at points.

    ``points`` is a list of (a, b) dicts index -> int.
    """
    if sorted(polys) != sorted(S):
        return f"indices {sorted(polys)} do not match {list(S)}"
    for a, b in points:
        env = {f"a{n}": a[n] for n in S}
        env.update({f"b{n}": b[n] for n in S})
        comps = {n: eval_poly(polys[n], env) for n in S}
        wr, wa, wb = ghost(S, comps), ghost(S, a), ghost(S, b)
        for n in S:
            want = {"add": wa[n] + wb[n], "mul": wa[n] * wb[n], "neg": -wa[n]}[op]
            if wr[n] != want:
                return f"{op}: ghost component {n} fails at a={a}, b={b}"
    return None


def check_frobenius(n: int, S, polys: dict, points):
    """w_d(F_n a) = w_{nd}(a) on S/n at integer points."""
    target = divide(S, n)
    if sorted(polys) != target:
        return f"indices {sorted(polys)} do not match S/{n} = {target}"
    for a in points:
        env = {f"a{m}": a[m] for m in S}
        comps = {d: eval_poly(polys[d], env) for d in target}
        wf, wa = ghost(target, comps), ghost(S, a)
        for d in target:
            if wf[d] != wa[n * d]:
                return f"frobenius {n}: ghost component {d} fails at a={a}"
    return None


def check_comult(S, T, polys: dict, points):
    """Outer ghost of the inner ghosts: sum_{d|s} d * w_t(c_d)^(s/d) = w_{st}(a)."""
    U = product_set(S, T)
    if sorted(polys) != sorted((s, t) for s in S for t in T):
        return "comultiplication indices do not match S x T"
    for a in points:
        env = {f"a{u}": a[u] for u in U}
        comps = {key: eval_poly(p, env) for key, p in polys.items()}
        wa = ghost(U, a)
        inner = {s: ghost(T, {t: comps[(s, t)] for t in T}) for s in S}
        for s in S:
            for t in T:
                outer = sum(d * inner[d][t] ** (s // d) for d in divisors(s))
                if outer != wa[s * t]:
                    return f"comult: (s, t) = ({s}, {t}) fails at a={a}"
    return None


# -- the Adams model Q[x_1, x_2, ...] at a point -------------------------------


def psi_point(v: dict, m: int) -> dict:
    """The point seen through psi^m: x_n takes the value of x_{mn}."""
    return {n: v[m * n] for n in v if m * n in v}


def sigma_value(sigma, v: dict):
    """X_() = x_1 and X_(p, rest) = (psi^p X_rest - X_rest^p) / p, at v."""
    if not sigma:
        return Fraction(v[1])
    p, rest = sigma[0], sigma[1:]
    return (sigma_value(rest, psi_point(v, p)) - sigma_value(rest, v) ** p) / p


def delta_iterate_value(p: int, n: int, v: dict, divide_by_p: bool = True):
    """delta_p^n(x) (or theta_p^n(x) = (psi^p - (.)^p)^n (x)) at v."""
    if n == 0:
        return Fraction(v[1])
    inner_psi = delta_iterate_value(p, n - 1, psi_point(v, p), divide_by_p)
    inner = delta_iterate_value(p, n - 1, v, divide_by_p)
    diff = inner_psi - inner ** p
    return diff / p if divide_by_p else diff


def sigma_of_name(name: str):
    """Basis variable names: X0 for the generator, X2_3 for X(2,3)."""
    if name == "X0":
        return ()
    if not name.startswith("X"):
        raise ValueError(f"{name} is not a basis variable")
    return tuple(int(part) for part in name[1:].split("_"))


def x_env(vars, v: dict) -> dict:
    return {name: sigma_value(sigma_of_name(name), v) for name in vars}


def x_env_model(vars, v: dict) -> dict:
    """Values of Adams model variables x_n at v."""
    return {name: Fraction(v[int(name[1:])]) for name in vars}


def check_x_expression(xpoly_vars, xpoly_terms, value, v: dict):
    """An X-basis expression must take the element's value at the point."""
    got = eval_terms(xpoly_vars, xpoly_terms, x_env(xpoly_vars, v))
    if got != value:
        return f"X-basis expression is {got} at the point, the element is {value}"
    return None


def check_integral(terms, divisor: int = 1):
    for exps, c in terms.items():
        c = Fraction(c)
        if c.denominator != 1:
            return f"coefficient {c} is not an integer"
        if c.numerator % divisor:
            return f"coefficient {c} is not divisible by {divisor}"
    return None


def monomial_map(vars, terms) -> dict:
    """{((var, exp), ...): coef} without zero exponents, order free."""
    out = {}
    for exps, c in terms.items():
        key = tuple(sorted((v, e) for v, e in zip(vars, exps) if e))
        out[key] = Fraction(c)
    return out


# -- polynomials printed by the CLI -------------------------------------------


def eval_text(text: str, env: dict):
    """Evaluate a printed polynomial such as '-1/2*x1^2 + 1/2*x2' exactly."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return Fraction(env[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.Pow) and right.denominator == 1 and right >= 0:
                return left ** int(right)
        raise ValueError(f"unexpected syntax in {text!r}")

    return walk(tree)


def text_fields(stdout: str) -> dict:
    """'key: value' lines of the CLI's text rendering."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def text_list(value: str) -> list:
    if not (value.startswith("[") and value.endswith("]")):
        raise ValueError(f"not a list: {value!r}")
    inner = value[1:-1].strip()
    return [part.strip() for part in inner.split(",")] if inner else []
