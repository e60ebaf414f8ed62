"""Shared test helpers: independent integer-model oracles and random functions.

Oracles here deliberately avoid the library's digit machinery; they work in
plain Python integers so that agreement is meaningful evidence. The
coefficient and projection-root references at the end take a library
evaluator F, so they use library values, but none of the code under test.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Sequence

from hypothesis import strategies as st

from padicvdp.core import (
    DEFAULT_BUDGET,
    InexactDivisionError,
    PadicInt,
    PadicPoint,
    PrecisionExhaustedError,
    _digit_walk,
    _from_residue,
    from_integer,
    from_rational,
)
from padicvdp.dsl import (
    Add,
    DigitSum,
    DivP,
    FuncDef,
    IntConst,
    Mul,
    Pow,
    RatConst,
    Sub,
    Var,
    _poly_eval,
)
from padicvdp.hensel import roots_mod_uni
from padicvdp.vdp import (
    PointEvaluator,
    UniEvaluator,
    VdpTable,
    as_point_evaluator,
    projection,
)

QUINTIC_TEXT = "-5 + digitsum(x1, 4 + 7*i^3, 5)"  # digit map with root 5 at p=7
FERMAT_DIFF_TEXT = "divp(x1 - x1^7, 1)"  # (x - x^7)/7, total by Fermat


def quintic_int(x: int, modulus_exp: int) -> int:
    """The quintic digit map on integers, computed with plain arithmetic."""
    total = -5
    value = x
    i = 0
    while value > 0 or i == 0:
        total += 7**i * (4 + 7 * i**3) * (value % 7) ** 5
        value //= 7
        i += 1
    return total % 7**modulus_exp


def int_digits(k: int, p: int, n: int) -> list[int]:
    """Base-p digits by repeated division, independent of the library."""
    digits = []
    for _ in range(n):
        k, d = divmod(k, p)
        digits.append(d)
    return digits


@st.composite
def block_residues(draw, p: int, n: int) -> int:
    """A residue below p^n: 0, p^n - 1, or one made of zero, full and random digit blocks.

    Blocks are as wide as the library's digit walk for p, so whole zero blocks
    occur below the top and on top.
    """
    width, residue = _digit_walk(p)[0], 0
    kind = draw(st.sampled_from(["zero", "full", "blocks"]))
    if kind != "blocks":
        return 0 if kind == "zero" else p**n - 1
    for start in range(0, n, width):
        top = p ** min(width, n - start)
        block = draw(st.sampled_from([0, top - 1, None]))
        residue += (draw(st.integers(0, top - 1)) if block is None else block) * p**start
    return residue


def val_mod(v: int, p: int, n: int) -> int:
    """Order of v as a residue mod p^n; n when the residue is zero."""
    v %= p**n
    if v == 0:
        return n
    k = 0
    while v % p == 0:
        v //= p
        k += 1
    return k


def vanishing_verdict_int(checks: Sequence[tuple[int, int, int]], p: int):
    """Three-valued verdict on (residue, precision, order) checks, in plain ints.

    A check fails when one of its known digits below the order is nonzero,
    and is undecided when its known digits all vanish short of the order.
    Returns ("violated", failures, first failing position) when any check
    fails, else ("undecided", 0, first undecided position) or ("holds", 0, None).
    """
    failures, first, short = 0, None, None
    for i, (residue, precision, order) in enumerate(checks):
        if any(int_digits(residue, p, precision)[: max(order, 0)]):
            failures += 1
            first = i if first is None else first
        elif order > precision and short is None:
            short = i
    if failures:
        return "violated", failures, first
    return ("holds", 0, None) if short is None else ("undecided", 0, short)


def totality_replay_int(divides, arity: int, p: int, precision: int, samples: int, seed: int):
    """(failures, first failing point) of the sampled totality check, in plain integers.

    Draws as the library does: per sample, `arity` values below p^precision from
    random.Random(seed). A point fails when divides(values) is false.
    """
    rng = random.Random(seed)
    failures, first = 0, None
    for _ in range(samples):
        values = tuple(rng.randrange(p**precision) for _ in range(arity))
        if not divides(values):
            failures += 1
            first = values if first is None else first
    return failures, first


def residue_replay_int(f_int, k: int, order: int, arity: int, p: int, precision: int,
                       samples: int, seed: int):
    """(failures, first failing pair) of the sampled residue check, in plain integers.

    Draws as the library does: per sample, x below p^k and then t in
    [1, p^(precision - k)), one per coordinate each, from random.Random(seed).
    The lift y = x + p^k t fails when f_int(y) - f_int(x) is not 0 mod p^order.
    The pair is two integers at arity 1.
    """
    rng = random.Random(seed)
    failures, first = 0, None
    for _ in range(samples):
        x = [rng.randrange(p**k) for _ in range(arity)]
        y = [v + rng.randrange(1, p ** (precision - k)) * p**k for v in x]
        if (f_int(y) - f_int(x)) % p**order:
            failures += 1
            if first is None:
                first = (x[0], y[0]) if arity == 1 else (tuple(x), tuple(y))
    return failures, first


def residue_failures_int(f_int, k: int, order: int, arity: int, p: int, lift_digits: int):
    """Every failing lift of the residue check, by enumeration in plain integers.

    That is each (x, y) with x in [0, p^k)^n and y = x + p^k t for t in
    [1, p^lift_digits)^n where f_int(y) - f_int(x) is not 0 mod p^order.
    """
    return {
        (x, y) for x in product(range(p**k), repeat=arity)
        for t in product(range(1, p**lift_digits), repeat=arity)
        for y in [tuple(v + s * p**k for v, s in zip(x, t))]
        if (f_int(y) - f_int(x)) % p**order
    }


def digitsum_int(coeffs: Sequence[int], exponent: int, x: int, p: int, n: int) -> int:
    """digitsum(x, a, e) mod p^n in plain integers, each digit power taken exactly."""
    total = 0
    for i, d in enumerate(int_digits(x, p, n)):
        a = sum(c * i**k for k, c in enumerate(coeffs))
        total += p**i * a * d**exponent
    return total % p**n


_COEFFICIENT_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "neg": 2, "^": 3}


def render_coefficient(tree) -> str:
    """Source text of a coefficient tree, parenthesized only where the grammar needs it.

    Trees are ("int", v), ("i",), ("()", a) for explicit parentheses,
    ("neg", a), (op, a, b) with op in "+-*", and ("^", a, e).
    """

    def prec(node) -> int:
        if node[0] == "int":
            return 2 if node[1] < 0 else 4  # a negative literal parses as unary minus
        return _COEFFICIENT_PRECEDENCE.get(node[0], 4)

    def wrap(node, need: int) -> str:
        text = go(node)
        return f"({text})" if prec(node) < need else text

    def go(node) -> str:
        kind = node[0]
        if kind == "int":
            return str(node[1])
        if kind == "i":
            return "i"
        if kind == "()":
            return f"({go(node[1])})"
        if kind == "neg":
            return "-" + wrap(node[1], 2)
        if kind == "^":
            return f"{wrap(node[1], 4)}^{node[2]}"
        left, right = (0, 1) if kind in "+-" else (1, 2)
        return f"{wrap(node[1], left)} {kind} {wrap(node[2], right)}"

    return go(tree)


def coefficient_int(tree, limit: int) -> tuple[int, ...] | None:
    """Dense coefficients in i of a coefficient tree, by dict arithmetic on ints.

    None when a power's exponent, or the degree of a product or power, would
    exceed limit.
    """

    class TooBig(Exception):
        pass

    def degree(poly: dict) -> int:
        return max((k for k, v in poly.items() if v), default=0)

    def times(a: dict, b: dict) -> dict:
        out: dict = {}
        for i, u in a.items():
            for j, v in b.items():
                out[i + j] = out.get(i + j, 0) + u * v
        return out

    def go(node) -> dict:
        kind = node[0]
        if kind == "int":
            return {0: node[1]}
        if kind == "i":
            return {1: 1}
        if kind == "()":
            return go(node[1])
        if kind == "neg":
            return {k: -v for k, v in go(node[1]).items()}
        if kind == "^":
            if node[2] > limit:
                raise TooBig
            base, out = go(node[1]), {0: 1}
            if degree(base) * node[2] > limit:
                raise TooBig
            for _ in range(node[2]):
                out = times(out, base)
            return out
        a, b = go(node[1]), go(node[2])
        if kind == "*":
            if degree(a) + degree(b) > limit:
                raise TooBig
            return times(a, b)
        sign = 1 if kind == "+" else -1
        return {k: a.get(k, 0) + sign * b.get(k, 0) for k in a.keys() | b.keys()}

    try:
        poly = go(tree)
    except TooBig:
        return None
    return tuple(poly.get(k, 0) for k in range(degree(poly) + 1))


def initial_parts_int(x: int, p: int, level: int) -> list[int]:
    """Distinct truncations x mod p^(k+1) for k < level, plain integers."""
    parts = []
    for k in range(level):
        part = x % p ** (k + 1)
        if not parts or parts[-1] != part:
            parts.append(part)
    return parts


def m_star(m: int, p: int) -> int:
    """m with its top base-p digit stripped; the basis uses it for m >= p only."""
    return m % p if m < p * p else m % p + p * m_star(m // p, p)


def index_set(m: Sequence[int], p: int) -> tuple[int, ...]:
    """I(m): the 1-based coordinates whose entry is at least p, where stripping applies."""
    return tuple(i + 1 for i, v in enumerate(m) if v >= p)


def indicator_table(p: int, level: int, m: tuple[int, ...], n: int = 3) -> VdpTable:
    """The table whose one nonzero coefficient is a 1 at m: its partial sum is e_m."""
    grid = product(range(p**level), repeat=len(m))
    return VdpTable(p, level, tuple(from_integer(int(k == m), p, n) for k in grid), len(m))


def table_eval_int(coeffs: list[int], p: int, level: int, x: int) -> int:
    """Partial sum of a coefficient table at an integer point."""
    return sum(coeffs[m] for m in initial_parts_int(x, p, level))


def initial_part_positions_int(x: Sequence[int], p: int, level: int) -> list[int]:
    """Row-major table positions of the m with every m_i an initial part of x_i.

    The partial sum of a table at the integer point x is the sum of its
    coefficients at these positions.
    """
    side = p**level
    positions = []
    for m in product(*(initial_parts_int(v, p, level) for v in x)):
        pos = 0
        for v in m:
            pos = pos * side + v
        positions.append(pos)
    return positions


def pairwise_lipschitz_int(coeffs: list[int], p: int, level: int, alpha) -> bool:
    """All-pairs check of |F(x) - F(y)| <= max_i p^alpha_i |x_i - y_i| on the level grid.

    F is the partial sum of a row-major coefficient list (the last coordinate
    varies fastest) and every value is a plain integer, so the answer is
    independent of the library's bound check.
    """
    side = p**level
    grid = list(product(range(side), repeat=len(alpha)))

    def value(x) -> int:
        total = 0
        for m in product(*(initial_parts_int(v, p, level) for v in x)):
            pos = 0
            for v in m:
                pos = pos * side + v
            total += coeffs[pos]
        return total

    values = {x: value(x) for x in grid}
    for x, y in combinations(grid, 2):
        # ord(x_i - y_i) < level for distinct grid values; equal ones impose nothing
        order = min(val_mod(a - b, p, level) - w for a, b, w in zip(x, y, alpha) if a != b)
        if order > 0 and (values[x] - values[y]) % p**order:
            return False
    return True


def eval_int_model(expr, values: tuple[int, ...], p: int, n: int) -> int:
    """Big-integer evaluation of a polynomial-only expression, reduced mod p^n."""

    def go(node) -> int:
        if isinstance(node, IntConst):
            return node.value
        if isinstance(node, Var):
            return values[node.index - 1]
        if isinstance(node, Add):
            return go(node.left) + go(node.right)
        if isinstance(node, Sub):
            return go(node.left) - go(node.right)
        if isinstance(node, Mul):
            return go(node.left) * go(node.right)
        if isinstance(node, Pow):
            return go(node.base) ** node.exponent
        raise AssertionError(f"not polynomial-only: {node!r}")

    return go(expr) % p**n


def evaluate(expr, point: PadicPoint) -> PadicInt:
    """The library's value of a bare expression at a point: a FuncDef of the point's arity."""
    return FuncDef(point.arity, expr)(point)


def exact_div_p(x: PadicInt, e: int) -> PadicInt:
    """x / p^e exactly; shifts digits down and costs e digits of precision."""
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    if e == 0:
        return x
    if x.residue % x.prime ** min(e, x.precision):
        raise InexactDivisionError(f"value is not divisible by p^{e} (p={x.prime})")
    if x.precision - e < 1:
        raise PrecisionExhaustedError(
            f"dividing by p^{e} leaves no known digits (precision {x.precision})"
        )
    return _from_residue(x.residue // x.prime**e, x.prime, x.precision - e)


def evaluate_tree(expr, point: PadicPoint) -> PadicInt:
    """Value of the expression at a point, with worst-case precision tracking.

    The library's evaluator before compilation: it walks the tree at every
    point and builds one PadicInt per node. Each divp on the evaluation path
    costs its exponent in digits; joins (binary operations) keep the minimum
    of the branch precisions.
    """
    p = point.prime
    match expr:
        case IntConst(value=v):
            return from_rational(v, 1, p, point.precision)
        case RatConst(numerator=a, denominator=b):
            return from_rational(a, b, p, point.precision)
        case Var(index=k):
            if not 1 <= k <= point.arity:
                raise ValueError(
                    f"expression uses x{k} but the point has arity {point.arity}"
                )
            return point.coords[k - 1]
        case Add(left=a, right=b):
            return evaluate_tree(a, point) + evaluate_tree(b, point)
        case Sub(left=a, right=b):
            return evaluate_tree(a, point) - evaluate_tree(b, point)
        case Mul(left=a, right=b):
            return evaluate_tree(a, point) * evaluate_tree(b, point)
        case Pow(base=b, exponent=e):
            v = evaluate_tree(b, point)
            return _from_residue(
                pow(v.to_integer(), e, p**v.precision), p, v.precision
            )
        case DivP(operand=c, exponent=e):
            return exact_div_p(evaluate_tree(c, point), e)
        case DigitSum(var_index=k, coeffs=cs, exponent=e):
            if not 1 <= k <= point.arity:
                raise ValueError(
                    f"expression uses x{k} but the point has arity {point.arity}"
                )
            if e < 1:
                raise ValueError(f"digitsum exponent must be >= 1, got {e}")
            x = point.coords[k - 1]
            digits = x.digits
            digit_power = {d: pow(d, e, p**x.precision) for d in set(digits)}
            total = 0
            power = 1
            for i, d in enumerate(digits):
                total += power * _poly_eval(cs, i) * digit_power[d]
                power *= p
            return _from_residue(total, p, x.precision)
    raise TypeError(f"not an expression node: {expr!r}")


def random_total_expr(rng: random.Random, arity: int, prime: int, depth: int = 3):
    """Random expression that defines a total function (divp only in safe form)."""

    def leaf():
        choice = rng.randrange(4)
        if choice == 0:
            return IntConst(rng.randrange(-9, 10))
        if choice == 1:
            den = rng.choice([d for d in range(2, 10) if d % prime != 0])
            return RatConst(rng.randrange(-9, 10), den)
        return Var(rng.randrange(1, arity + 1))

    def go(d):
        if d == 0:
            return leaf()
        choice = rng.randrange(7)
        if choice == 0:
            return Add(go(d - 1), go(d - 1))
        if choice == 1:
            return Sub(go(d - 1), go(d - 1))
        if choice == 2:
            return Mul(go(d - 1), go(d - 1))
        if choice == 3:
            return Pow(go(d - 1), rng.randrange(0, 4))
        if choice == 4:
            coeffs = tuple(rng.randrange(-6, 7) for _ in range(rng.randrange(1, 4)))
            return DigitSum(
                rng.randrange(1, arity + 1),
                coeffs if any(coeffs) else (1,),
                rng.randrange(1, 4),
            )
        if choice == 5:
            # x - x^p is divisible by p at every point, so this stays total
            v = Var(rng.randrange(1, arity + 1))
            return Add(go(d - 1), DivP(Sub(v, Pow(v, prime)), 1))
        return leaf()

    return go(depth)


def vdp_coeff_multi_rec(F, m, prime, precision, order=None):
    """Coefficient at m by the nested difference recursion.

    `order` lists the 1-based coordinates of I(m) = {i : m_i >= p} in the
    order they are stripped; it must be a permutation of I(m). Independent
    of the library's closed form and of its per-axis expansion passes; it
    works on library values only because F is a library evaluator.
    """
    idx = index_set(m, prime)
    if order is None:
        order = idx
    if sorted(order) != sorted(idx):
        raise ValueError(f"order {order!r} is not a permutation of I(m) = {idx!r}")
    cache = {}

    def ev(values):
        if values not in cache:
            cache[values] = F(PadicPoint.from_integers(values, prime, precision))
        return cache[values]

    def phi(values, coords):
        if not coords:
            return ev(values)
        rest, last = coords[:-1], coords[-1]
        starred = list(values)
        starred[last - 1] = m_star(starred[last - 1], prime)
        return phi(values, rest) - phi(tuple(starred), rest)

    return phi(tuple(m), tuple(order))


def vdp_coeff_multi_ie(
    F: PointEvaluator, m: Sequence[int], prime: int, precision: int
) -> PadicInt:
    """Coefficient at m by the closed alternating sum over starred corners."""
    idx = index_set(m, prime)
    total = F(PadicPoint.from_integers(m, prime, precision))
    for size in range(1, len(idx) + 1):
        for subset in combinations(idx, size):
            corner = list(m)
            for i in subset:
                corner[i - 1] = m_star(corner[i - 1], prime)
            value = F(PadicPoint.from_integers(corner, prime, precision))
            total = total + value if size % 2 == 0 else total - value
    return total


def vdp_coeff_uni(f: UniEvaluator, m: int, prime: int, precision: int) -> PadicInt:
    """Single coefficient: f(m) - f(m*) for m >= p, plain f(m) below p."""
    return vdp_coeff_multi_ie(as_point_evaluator(f), (m,), prime, precision)


@dataclass(frozen=True)
class ProjectionRootReport:
    """Residue roots of one projection of F across levels.

    The fixed coordinates are supplied explicitly and cover a single
    choice only, so a nonempty answer at every level is evidence for
    liftability, never a proof over all projections.
    """

    coordinate: int
    alpha: int
    fixed: tuple[int, ...]
    roots_by_level: dict[int, list[int]]

    @property
    def all_nonempty(self) -> bool:
        return all(self.roots_by_level.values())


def root_exists_via_projection(
    F: PointEvaluator,
    coordinate: int,
    fixed: Sequence[PadicInt],
    k_values: Iterable[int],
    alpha: int,
    prime: int,
    budget: int = DEFAULT_BUDGET,
) -> ProjectionRootReport:
    """Residue roots of the projection along `coordinate` with `fixed` frozen."""
    proj = projection(F, coordinate, fixed)
    eval_precision = fixed[0].precision if fixed else None
    roots_by_level: dict[int, list[int]] = {}
    for k in k_values:
        roots_by_level[k] = roots_mod_uni(
            proj, alpha, k, prime, eval_precision=eval_precision, budget=budget
        )
    return ProjectionRootReport(
        coordinate=coordinate,
        alpha=alpha,
        fixed=tuple(c.to_integer() for c in fixed),
        roots_by_level=roots_by_level,
    )
