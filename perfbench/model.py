"""Expression trees for generated tasks, and the integer model that checks them.

The generators build each task's function as a small tree of tuples and
render it to DSL text; the library only ever sees that text. The same tree
is compiled here into plain-`int` closures that work modulo p^W. The model
follows the semantics the library documents (binary operations keep the
smaller precision, `divp(e, k)` costs k digits, `digitsum` reads the
argument's known digits) but shares no code with it, so agreement between
the two is evidence.

Node forms:
    ("c", num, den)          rational constant, den coprime to p
    ("x", j)                 variable x_j, 1-based
    ("+", a, b) ("-", a, b) ("*", a, b)
    ("^", a, e)              power with a natural exponent
    ("divp", a, k)           exact division by p^k
    ("ds", j, coeffs, e)     digitsum(x_j, sum_i coeffs[i] * i^k ..., e)
"""
from __future__ import annotations


class Inexact(Exception):
    """A divp operand was not divisible by the required power of p."""


class Exhausted(Exception):
    """An evaluation ran out of known digits."""


def render(node) -> str:
    """DSL text for a tree; every compound term is parenthesized."""
    kind = node[0]
    if kind == "c":
        _, num, den = node
        text = str(num) if den == 1 else f"{num}/{den}"
        return f"({text})" if num < 0 or den != 1 else text
    if kind == "x":
        return f"x{node[1]}"
    if kind in "+-*":
        return f"({render(node[1])} {kind} {render(node[2])})"
    if kind == "^":
        return f"{render(node[1])}^{node[2]}"
    if kind == "divp":
        return f"divp({render(node[1])}, {node[2]})"
    if kind == "ds":
        _, j, coeffs, e = node
        return f"digitsum(x{j}, {_render_ipoly(coeffs)}, {e})"
    raise ValueError(f"unknown node {node!r}")


def _render_ipoly(coeffs) -> str:
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if power == 0 else ("i" if power == 1 else f"i^{power}")
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{c}*{mono}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def divp_budget(node) -> int:
    """Largest total divp exponent along any path of the tree."""
    kind = node[0]
    if kind in ("c", "x", "ds"):
        return 0
    if kind in "+-*":
        return max(divp_budget(node[1]), divp_budget(node[2]))
    if kind == "^":
        return divp_budget(node[1])
    if kind == "divp":
        return node[2] + divp_budget(node[1])
    raise ValueError(f"unknown node {node!r}")


def compile_int(node, p: int, work: int):
    """(fn, prec): fn(xs) is the residue mod p^prec of the tree at integer point xs.

    Every input coordinate is known to `work` digits. prec is static, so
    it is worked out here once; fn raises Inexact or Exhausted where the
    library would raise.
    """
    kind = node[0]
    if kind == "c":
        _, num, den = node
        mod = p**work
        value = num * pow(den, -1, mod) % mod
        return (lambda xs: value), work
    if kind == "x":
        j = node[1] - 1
        mod = p**work
        return (lambda xs: xs[j] % mod), work
    if kind in "+-*":
        fa, pa = compile_int(node[1], p, work)
        fb, pb = compile_int(node[2], p, work)
        prec = min(pa, pb)
        mod = p**prec
        if kind == "+":
            return (lambda xs: (fa(xs) + fb(xs)) % mod), prec
        if kind == "-":
            return (lambda xs: (fa(xs) - fb(xs)) % mod), prec
        return (lambda xs: fa(xs) * fb(xs) % mod), prec
    if kind == "^":
        fa, prec = compile_int(node[1], p, work)
        e, mod = node[2], p**prec
        return (lambda xs: pow(fa(xs), e, mod)), prec
    if kind == "divp":
        fa, pa = compile_int(node[1], p, work)
        k = node[2]
        guard = p ** min(k, pa)
        shift = p**k
        prec = pa - k

        def divp(xs):
            value = fa(xs)
            if value % guard:
                raise Inexact(f"divp operand not divisible by {p}^{k}")
            if prec < 1:
                raise Exhausted(f"divp by {p}^{k} leaves no digits of {pa}")
            return value // shift

        return divp, max(prec, 1)
    if kind == "ds":
        _, j, coeffs, e = node
        j -= 1
        mod = p**work
        weights = [p**i * poly_at(coeffs, i) for i in range(work)]

        def digitsum(xs):
            value = xs[j] % mod
            total = 0
            for w in weights:
                value, d = divmod(value, p)
                if d:
                    total += w * d**e
            return total % mod

        return digitsum, work
    raise ValueError(f"unknown node {node!r}")


def poly_at(coeffs, i: int) -> int:
    return sum(c * i**k for k, c in enumerate(coeffs))


def digits_value(digits, p: int) -> int:
    """Integer with the given base-p digits, low digit first."""
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def top_digit_pos(m: int, p: int) -> int:
    """floor(log_p m) for m >= 1, by repeated division."""
    pos = -1
    while m:
        m //= p
        pos += 1
    return pos


def strip_top(m: int, p: int) -> int:
    """m with its top base-p digit removed (m* in the paper), for m >= p."""
    return m % p ** top_digit_pos(m, p)


def valuation(value: int, p: int, prec: int) -> int:
    """Order of a residue mod p^prec; prec when it is zero."""
    value %= p**prec
    if value == 0:
        return prec
    k = 0
    while value % p == 0:
        value //= p
        k += 1
    return k
