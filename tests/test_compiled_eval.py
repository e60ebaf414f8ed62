"""The compiled evaluator agrees with a walk of the tree, errors included.

A FuncDef compiles its body into closures over columns of plain residues;
calling it on a point is a one-point column. The oracle `evaluate_tree` walks
the tree and builds a PadicInt per node. Both must give the same (precision,
residue), or raise the same class with the same message, the first error in
left-to-right order winning.
"""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from padicvdp.core import InexactDivisionError, PadicPoint, on_columns
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
    divp_budget,
)

from support import evaluate, evaluate_tree, random_total_expr

MAX_ARITY = 3


@st.composite
def trees(draw, p: int, arity: int, depth: int = 4):
    """Random hand-built trees of every node kind, so out-of-range parts occur too."""
    kinds = ["int", "rat", "var", "var", "digitsum"]
    kind = draw(st.sampled_from(kinds + (["+", "-", "*", "^", "divp", "exact"] if depth else [])))
    # mostly in range; 0 and arity + 1 must both raise
    index = st.one_of(st.integers(1, arity), st.integers(1, arity), st.sampled_from([0, arity + 1]))
    if kind == "int":
        return IntConst(draw(st.integers(-p**9, p**9)))
    if kind == "rat":
        return RatConst(draw(st.integers(-50, 50)),
                        draw(st.sampled_from([1, 2, 3, 5, 7, 9, 10, -4, p, 2 * p, 0])))
    if kind == "var":
        return Var(draw(index))
    if kind == "digitsum":
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
        return DigitSum(draw(index), tuple(coeffs), draw(st.integers(0, 3)))
    child = trees(p, arity, depth - 1)
    if kind == "^":
        return Pow(draw(child), draw(st.integers(0, 4)))
    if kind == "divp":
        return DivP(draw(child), draw(st.integers(0, 10)))
    if kind == "exact":  # a multiple of p^e, so that dividing it by p^e is exact
        e = draw(st.integers(0, 4))
        return DivP(Mul(IntConst(draw(st.integers(-3, 3)) * p**e), draw(child)), e)
    return {"+": Add, "-": Sub, "*": Mul}[kind](draw(child), draw(child))


def outcome(evaluator, expr, point):
    try:
        value = evaluator(expr, point)
    except Exception as exc:  # parity covers the error as well as the value
        return type(exc), str(exc)
    return value.precision, value.residue


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_compiled_evaluation_matches_the_tree_walk(p, data):
    n = data.draw(st.integers(1, 8))
    arity = data.draw(st.integers(1, MAX_ARITY))
    expr = data.draw(trees(p, arity))
    values = data.draw(st.lists(st.integers(0, p**n - 1), min_size=arity, max_size=arity))
    point = PadicPoint.from_integers(values, p, n)
    assert outcome(evaluate, expr, point) == outcome(evaluate_tree, expr, point)


def column_outcome(expr, points: list[PadicPoint], undefined: tuple = ()):
    """The column form's (precision, residue) per point, through core's chunked adapter."""
    p, n, arity = points[0].prime, points[0].precision, points[0].arity
    F = on_columns(FuncDef(arity, expr), p, n, arity, undefined)
    try:
        residues, known = F([tuple(c.residue for c in point.coords) for point in points])
    except Exception as exc:
        return type(exc), str(exc)
    return list(zip(known, residues))


def tree_outcome(expr, points: list[PadicPoint], undefined: tuple = ()):
    """Each point's (precision, residue) by the tree walk, or the first point's error.

    A point whose error is one of `undefined` gets (None, None) instead.
    """
    values = [outcome(evaluate_tree, expr, point) for point in points]
    values = [(None, None) if isinstance(v[0], type) and issubclass(v[0], undefined) else v
              for v in values]
    return next((v for v in values if isinstance(v[0], type)), values)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_columnar_evaluation_matches_the_tree_walk_point_by_point(p, data):
    # the column form runs each node over all points; where any point fails, the error
    # raised must still be the first point's, class and message, unless `undefined`
    # catches it: then that point's value is None, as in a loop that catches it
    n = data.draw(st.integers(1, 8))
    arity = data.draw(st.integers(1, MAX_ARITY))
    expr = data.draw(trees(p, arity))
    point = st.lists(st.integers(0, p**n - 1), min_size=arity, max_size=arity)
    points = [PadicPoint.from_integers(values, p, n)
              for values in data.draw(st.lists(point, min_size=1, max_size=20))]
    undefined = data.draw(st.sampled_from([(), (InexactDivisionError,)]))
    assert column_outcome(expr, points, undefined) == tree_outcome(expr, points, undefined)


def test_hand_built_corner_cases_match_the_tree_walk():
    p, n = 7, 3
    point = PadicPoint.from_integers((7**2, 3), p, n)
    cases = [
        DivP(Var(1), 0),
        RatConst(1, p),
        RatConst(1, 0),
        Var(3),
        DigitSum(4, (1,), 1),
        DigitSum(4, (1,), 0),  # the coordinate's range is checked first
        DigitSum(1, (1,), 0),
        Add(DivP(Var(2), 1), RatConst(1, p)),  # the inexact divp on the left wins
        Add(RatConst(1, p), DivP(Var(2), 1)),
        DivP(Var(2), 5),  # inexact is raised before "leaves no known digits"
        DivP(Var(1), 3),
        DivP(Mul(IntConst(p**3), Var(2)), 3),
        DivP(Var(1), -1),
        DivP(RatConst(1, p), -1),  # the child's error wins over the exponent's
        DivP(Var(1), 2),  # exact at the second point only
        Add(DivP(Var(1), 2), DivP(Var(2), 5)),
        "not a node",
    ]
    for expr in cases:
        assert outcome(evaluate, expr, point) == outcome(evaluate_tree, expr, point), expr
        points = [PadicPoint.from_integers((7, 1), p, n), point]  # the second point fails more
        assert column_outcome(expr, points) == tree_outcome(expr, points), expr
        undefined = (InexactDivisionError,)
        assert column_outcome(expr, points, undefined) == tree_outcome(expr, points, undefined)


def test_a_digitsum_exponent_below_one_raises():
    # 0^0 = 1 would weigh every zero digit above the input's top; the parser builds e >= 1 only
    point = PadicPoint.from_integers((3,), 7, 6)
    for e in (0, -2):
        want = (ValueError, f"digitsum exponent must be >= 1, got {e}")
        assert outcome(evaluate, DigitSum(1, (1,), e), point) == want
        assert outcome(evaluate_tree, DigitSum(1, (1,), e), point) == want


def test_coordinates_outside_one_to_arity_raise_in_order():
    # hand-built nodes only: the parser never builds x0 or a negative index
    p, n = 7, 3
    point = PadicPoint.from_integers((2, 3), p, n)
    for expr, index in [(Var(0), 0), (DigitSum(0, (1,), 1), 0), (Var(-5), -5)]:
        message = f"expression uses x{index} but the point has arity 2"
        assert outcome(evaluate, expr, point) == (ValueError, message)
        first = outcome(evaluate, RatConst(1, p), point)  # a denominator divisible by p
        assert outcome(evaluate, Add(RatConst(1, p), expr), point) == first
        assert outcome(evaluate, Add(expr, RatConst(1, p)), point) == (ValueError, message)


def test_the_last_compiled_form_follows_the_point():
    expr = Add(Var(1), DivP(Mul(IntConst(49), Var(1)), 2))
    for p, n, values in [(7, 4, (5,)), (7, 6, (5,)), (3, 4, (5,)), (7, 4, (5, 1)), (7, 4, (5,))]:
        point = PadicPoint.from_integers(values, p, n)
        assert outcome(evaluate, expr, point) == outcome(evaluate_tree, expr, point)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**32))
def test_inputs_padded_by_the_divp_budget_give_exactly_the_asked_precision(p, n, N, seed):
    # so `eval` never has digits to truncate: each divp on a path costs its exponent
    rng = random.Random(seed)
    body = random_total_expr(rng, n, p)
    work = N + divp_budget(body)
    point = PadicPoint.from_integers([rng.randrange(p**work) for _ in range(n)], p, work)
    assert evaluate(body, point).precision == N
