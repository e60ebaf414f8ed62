import json
import math
import random
import re
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicvdp import core
from padicvdp.core import (
    InexactDivisionError,
    PadicPoint,
    PrecisionExhaustedError,
    _digit_walk,
    from_integer,
)
from padicvdp.dsl import (
    MAX_DEPTH,
    Add,
    DigitSum,
    DivP,
    IntConst,
    Mul,
    ParseError,
    Pow,
    RatConst,
    Sub,
    FuncDef,
    Var,
    as_univariate,
    divp_budget,
    parse,
    parse_funcdef,
    well_defined_check,
)
from padicvdp.hensel import hensel_lift_multi

from support import (
    QUINTIC_TEXT,
    block_residues,
    coefficient_int,
    digitsum_int,
    eval_int_model,
    evaluate,
    quintic_int,
    random_total_expr,
    render_coefficient,
    totality_replay_int,
)


def ev1(text, x_int, p, n):
    expr = parse(text, 1)
    return evaluate(expr, PadicPoint((from_integer(x_int, p, n),)))


class TestParser:
    @pytest.mark.parametrize("text, column", [
        ("(" * 300 + "x1" + ")" * 300, MAX_DEPTH + 1),
        ("+".join(["x1"] * 1000), 3 * MAX_DEPTH),
        ("-" * 300 + "x1", MAX_DEPTH + 1),
        ("digitsum(x1, " + "(" * 300 + "i" + ")" * 300 + ", 1)", 14 + MAX_DEPTH - 1),
    ])
    def test_too_deep_is_a_parse_error(self, text, column):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}") as info:
            parse(text, 1)
        assert (info.value.line, info.value.col) == (1, column)

    def test_just_under_the_depth_limit_evaluates(self):
        assert ev1("+".join(["x1"] * MAX_DEPTH), 3, 7, 4).to_integer() == 3 * MAX_DEPTH
        nested = "(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1)
        assert ev1(nested, 3, 7, 4).to_integer() == 3

    def test_sum_of_variables(self):
        assert parse("x1 + x2", 2) == Add(Var(1), Var(2))

    def test_divp_form(self):
        assert parse("divp(x1 - x1^7, 1)", 1) == DivP(Sub(Var(1), Pow(Var(1), 7)), 1)

    def test_digitsum_form(self):
        got = parse(QUINTIC_TEXT, 1)
        assert got == Add(IntConst(-5), DigitSum(1, (4, 0, 0, 7), 5))

    def test_rational_constant(self):
        assert parse("1/2", 1) == RatConst(1, 2)
        assert parse("-1/2 * x1", 1) == Mul(RatConst(-1, 2), Var(1))

    def test_precedence(self):
        assert parse("x1 + x1 * x1^2", 1) == Add(Var(1), Mul(Var(1), Pow(Var(1), 2)))

    def test_unary_minus(self):
        assert parse("-x1", 1) == Sub(IntConst(0), Var(1))
        assert parse("-5", 1) == IntConst(-5)

    def test_parentheses(self):
        assert parse("(x1 + 1) * x1", 1) == Mul(Add(Var(1), IntConst(1)), Var(1))

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x3", 2)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("y + 1", 1)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("x1 + \n + 2", 1)
        assert info.value.line == 2

    def test_division_is_not_an_operator(self):
        with pytest.raises(ParseError):
            parse("x1 / 2", 1)

    def test_divp_exponent_must_be_positive(self):
        with pytest.raises(ParseError):
            parse("divp(x1, 0)", 1)

    def test_digitsum_needs_variable(self):
        with pytest.raises(ParseError):
            parse("digitsum(3, i, 1)", 1)

    def test_digitsum_rejects_rational_coefficients(self):
        with pytest.raises(ParseError, match="integer coefficients"):
            parse("digitsum(x1, 1/2 + i, 1)", 1)

    def test_ipoly_arithmetic(self):
        got = parse("digitsum(x1, (1 + i)^2 - i*i, 3)", 1)
        assert got == DigitSum(1, (1, 2), 3)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 x1", 1)


@st.composite
def coefficient_trees(draw, depth=5):
    """Random digitsum coefficient trees in the form `render_coefficient` reads."""
    kind = draw(st.sampled_from(["int", "i"] if depth == 0 else
                                ["int", "i", "()", "neg", "+", "-", "*", "^"]))
    if kind == "int":
        return ("int", draw(st.integers(-30, 30)))
    if kind == "i":
        return ("i",)
    if kind in ("()", "neg"):
        return (kind, draw(coefficient_trees(depth - 1)))
    if kind == "^":
        return ("^", draw(coefficient_trees(depth - 1)), draw(st.integers(0, 3)))
    return (kind, draw(coefficient_trees(depth - 1)), draw(coefficient_trees(depth - 1)))


class TestDigitsumCoefficient:
    """A digitsum coefficient is an expr over integers and i, folded to dense form."""

    @settings(max_examples=400, deadline=None)
    @given(coefficient_trees())
    def test_fold_matches_the_integer_model(self, tree):
        text = f"digitsum(x1, {render_coefficient(tree)}, 1)"
        expected = coefficient_int(tree, MAX_DEPTH)
        if expected is None:
            with pytest.raises(ParseError, match="power or degree") as info:
                parse(text, 1)
            assert (info.value.line, info.value.col) == (1, 1)
        else:
            assert parse(text, 1) == DigitSum(1, expected, 1)

    @pytest.mark.parametrize("coefficient", [
        "i^101", "i^200000", "((i^30)^30)^30", "2^100000", "i^50 * i^51", "(i^2 + 1)^51",
    ])
    def test_power_or_degree_above_max_depth_is_refused_at_the_keyword(self, coefficient):
        with pytest.raises(ParseError, match=f"power or degree above {MAX_DEPTH}") as info:
            parse(f"x1 + digitsum(x1, {coefficient}, 1)", 1)
        assert (info.value.line, info.value.col) == (1, 6)

    def test_max_depth_itself_is_accepted(self):
        assert parse("digitsum(x1, i^100, 1)", 1).coeffs == (0,) * 100 + (1,)
        binomials = parse("digitsum(x1, (1 + i)^100, 1)", 1).coeffs
        assert binomials[:3] == (1, 100, 4950) and len(binomials) == 101
        assert parse("digitsum(x1, i^50 * i^50, 1)", 1).coeffs[-1] == 1

    def test_coefficient_sizes_under_the_bit_limit_are_accepted(self):
        assert parse("digitsum(x1, 2^100, 1)", 1).coeffs == (2**100,)
        assert parse("digitsum(x1, (2^100)^100, 1)", 1).coeffs == (2**10000,)
        assert parse("digitsum(x1, (1 + i)^100 * 3, 1)", 1).coeffs[50] == 3 * math.comb(100, 50)

    @pytest.mark.parametrize("coefficient", [
        "((2^100)^100)^100", "(2^100)^100 * 2", "(2^100 + i)^100", "((2^100)^50)^2 * 2^100",
    ])
    def test_coefficient_above_the_bit_limit_is_refused_at_the_keyword(self, coefficient):
        with pytest.raises(ParseError, match="size in bits above") as info:
            parse(f"x1 + digitsum(x1, {coefficient}, 1)", 1)
        assert (info.value.line, info.value.col) == (1, 6)

    @pytest.mark.parametrize("text, column", [
        ("x1^" + "7" * 5000, 4), ("x" + "2" * 5000, 1), ("x1^\u00b2", 4),
    ])
    def test_unreadable_integer_literal_is_a_parse_error_at_its_token(self, text, column):
        with pytest.raises(ParseError, match="too long or not decimal") as info:
            parse(text, 1)
        assert (info.value.line, info.value.col) == (1, column)

    @pytest.mark.parametrize("coefficient, column, message", [
        ("1 + x1", 18, "unexpected token 'x1' in digit coefficient polynomial"),
        ("i + 1/2", 18, "must have integer coefficients"),
        ("i * divp(i, 1)", 18, "unexpected token 'divp' in digit coefficient polynomial"),
        ("(digitsum(x1, i, 1))", 15, "unexpected token 'digitsum' in digit coefficient"),
    ])
    def test_foreign_atoms_are_refused_at_their_token(self, coefficient, column, message):
        with pytest.raises(ParseError, match=message) as info:
            parse(f"digitsum(x1, {coefficient}, 1)", 1)
        assert (info.value.line, info.value.col) == (1, column)

    def test_i_is_unknown_outside_a_coefficient(self):
        with pytest.raises(ParseError, match="unknown identifier 'i'") as info:
            parse("digitsum(x1, i, 1) + i", 1)
        assert (info.value.line, info.value.col) == (1, 22)

    def test_a_flat_sum_of_more_than_max_depth_terms_is_too_deep(self):
        flat = "+".join(["i"] * MAX_DEPTH)
        assert parse(f"digitsum(x1, {flat}, 1)", 1).coeffs == (0, MAX_DEPTH)
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
            parse(f"digitsum(x1, {flat} + i, 1)", 1)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.data())
    def test_digit_powers_match_the_integer_model(self, p, data):
        n = data.draw(st.integers(1, 8))
        x = data.draw(st.integers(0, p**n - 1))
        exponent = data.draw(st.one_of(st.integers(1, 3000), st.sampled_from([p, p**2, p**3])))
        coeffs = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
        got = evaluate(DigitSum(1, coeffs, exponent), PadicPoint((from_integer(x, p, n),)))
        assert got.to_integer() == digitsum_int(coeffs, exponent, x, p, n)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11, 101, 257, 1000003]), st.data())
    def test_digit_sums_across_blocks_match_the_integer_model(self, p, data):
        n = data.draw(st.sampled_from([63, 64, 65, 129, 300]))
        x = data.draw(block_residues(p, n))
        exponent = data.draw(st.one_of(st.integers(1, 5), st.sampled_from([49, 343])))
        coeffs = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
        got = evaluate(DigitSum(1, coeffs, exponent), PadicPoint((from_integer(x, p, n),)))
        assert got.to_integer() == digitsum_int(coeffs, exponent, x, p, n)


class TestDigitMapCost:
    """A digit map reads only the digits its input has, with weights linear in N."""

    @pytest.mark.parametrize("x", [3, 7**100_000 - 1], ids=["one-digit", "all-sixes"])
    def test_100000_digits_take_under_a_second(self, x):
        point = PadicPoint.from_integers((x,), 7, 100_000)
        started = time.perf_counter()
        value = evaluate(parse("digitsum(x1, 1, 1)", 1), point)
        assert time.perf_counter() - started < 1.0
        assert value.residue == x  # every weight is 1, so the map is the identity

    def test_a_large_exponent_costs_within_3x_of_a_small_one(self):
        # d^e mod p^N has N digits once e is large: a block takes one product per distinct digit
        p, n = 7, 8000
        x = p**n - 1

        def best(e: int) -> float:
            times = []
            for _ in range(5):
                columns = FuncDef(1, DigitSum(1, (1,), e)).on_columns(p, n, 1)  # slots all empty
                started = time.perf_counter()
                (value,), _ = columns([[x]], ())
                times.append(time.perf_counter() - started)
            assert value == pow(p - 1, e, p**n) * (x // (p - 1)) % p**n  # every digit is p - 1
            return min(times)

        assert best(16807) < 3 * best(5)

    @staticmethod
    def peak_bytes(expr, point) -> int:
        tracemalloc.start()
        try:
            evaluate(expr, point)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_100000_digits_stay_under_40_mb(self):
        point = PadicPoint.from_integers((3,), 7, 100_000)
        assert self.peak_bytes(parse("digitsum(x1, 1, 1)", 1), point) < 40 * 2**20

    def test_a_prime_above_the_table_limit_builds_no_table(self):
        p, n, x = 1_000_003, 300, 10**500 + 12345
        expr = DigitSum(1, (1, 2), 2)
        point = PadicPoint.from_integers((x,), p, n)
        assert evaluate(expr, point).residue == digitsum_int((1, 2), 2, x, p, n)
        _digit_walk.cache_clear()  # a table of p entries would take tens of MB
        assert self.peak_bytes(expr, point) < 2**20

    def test_a_large_prime_keeps_a_bounded_memo_of_digit_powers(self):
        p, n, expr, rng = 1_000_003, 12, DigitSum(1, (1,), 2), random.Random(0)
        points = [PadicPoint.from_integers((rng.randrange(p**n),), p, n) for _ in range(2000)]
        tracemalloc.start()
        try:
            for point in points:  # 24,000 digits, nearly all distinct
                evaluate(expr, point)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**18


@st.composite
def value_walks(draw, p: int, n: int) -> list[int]:
    """Values below p^n in the order one compiled form meets them, so a stale slot shows.

    Each step keeps every block below some position and draws a new top block
    there, changes one block, or goes to 0, p^(kW), p^(kW) - 1 or a fresh value.
    """
    width = _digit_walk(p)[0]
    x = draw(block_residues(p, n))
    walk = [x]
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, (n - 1) // width))  # a block position
        low, size = p ** (k * width), p ** min(width, n - k * width)
        step = draw(st.sampled_from(["top", "one", "zero", "power", "below", "fresh"]))
        if step == "top":  # the blocks below k are shared
            x = x % low + draw(st.integers(1, size - 1)) * low
        elif step == "one":
            x += (draw(st.integers(0, size - 1)) - x // low % size) * low
        elif step == "fresh":
            x = draw(block_residues(p, n))
        else:
            x = {"zero": 0, "power": low, "below": low - 1}[step]
        walk.append(x)
    return walk


class TestDigitSlots:
    """A compiled digitsum keeps (value, sum) of the block last met at each lower position."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 7, 257, 1_000_003]), st.data())
    def test_values_through_one_compiled_form_match_the_integer_model(self, p, data):
        width = _digit_walk(p)[0]
        n = data.draw(st.sampled_from([1, width - 1, width, width + 1, 3 * width + 2]))
        walk = data.draw(value_walks(p, n))
        # a(i) depends on i, so a block's sum at one position is wrong at another
        coeffs = (data.draw(st.integers(-9, 9)), data.draw(st.sampled_from([-3, 1, 2])))
        exponent = data.draw(st.sampled_from([1, 2, 5, width + 1]))
        columns = FuncDef(1, DigitSum(1, coeffs, exponent)).on_columns(p, n, 1)
        want = [digitsum_int(coeffs, exponent, x, p, n) for x in walk]
        assert [columns([[x]], ())[0][0] for x in walk] == want
        assert columns([walk], ())[0] == want  # again, as one column, from the slots left

    def test_blocks_equal_in_value_at_two_positions_keep_their_own_sums(self):
        p = 2
        width = _digit_walk(p)[0]
        n, coeffs, full = 3 * width, (1, 1), 2**width - 1
        columns = FuncDef(1, DigitSum(1, coeffs, 1)).on_columns(p, n, 1)
        for x in [full, full * (1 + 2**width) + 2 ** (2 * width), 2**width, 2 ** (2 * width),
                  2 ** (2 * width) - 1, 0, full * 2**width + 1]:
            assert columns([[x]], ())[0] == [digitsum_int(coeffs, 1, x, p, n)], x

    def test_a_lift_splits_each_lower_block_once_per_change_of_its_value(self, monkeypatch):
        p = 2
        n = 3 * _digit_walk(p)[0] + 10
        split, seen = [], []
        blocks = core._digit_blocks

        def spy(residue, p):
            for digits in blocks(residue, p):
                split.append(residue)
                yield digits

        class Spy(FuncDef):
            def on_columns(self, p, n, arity):
                columns = super().on_columns(p, n, arity)
                return lambda cols, undefined: seen.extend(cols[0]) or columns(cols, undefined)

        monkeypatch.setattr(core, "_digit_blocks", spy)
        trace = hensel_lift_multi(Spy(1, parse("digitsum(x1, 1 + 2*i, 3) - 5", 1)), (0,), (1,),
                                  1, n, p, coordinate=1)
        assert trace.status == "lifted" and len(seen) == 2 + p * (n - 1)
        tops = sum(x > 0 for x in seen)  # every evaluation splits its top block
        # a lower block's digits are fixed once the lift passes it: blocks 0, 1 and 2 are
        # each split once below the top, when they first lie there
        assert len(split) - tops == 3

    def test_2000_values_keep_the_compiled_form_under_256_kib(self):
        p, n, rng = 7, 300, random.Random(0)
        values = [rng.randrange(p**n) for _ in range(2000)]
        tracemalloc.start()
        try:
            columns = FuncDef(1, parse("digitsum(x1, 1 + i, 2)", 1)).on_columns(p, n, 1)
            for x in values:
                columns([[x]], ())
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 256 * 2**10


class TestFuncDef:
    def test_json_round_trip(self):
        text = '{"arity":1,"alpha":[0],"body":"-5 + digitsum(x1, 4+7*i^3, 5)"}'
        defn = parse_funcdef(json.loads(text))
        assert defn.arity == 1
        assert defn.alpha == (0,)
        assert defn.source == "-5 + digitsum(x1, 4+7*i^3, 5)"

    def test_alpha_length_checked(self):
        with pytest.raises(ValueError):
            parse_funcdef({"arity": 2, "alpha": [0], "body": "x1 + x2"})

    def test_alpha_sign_checked(self):
        with pytest.raises(ValueError):
            parse_funcdef({"arity": 1, "alpha": [-1], "body": "x1"})

    @pytest.mark.parametrize("call, error, message", [
        (lambda: FuncDef(0, Var(1)), ValueError, "arity must be >= 1, got 0"),
        (lambda: parse("x1", 0), ValueError, "arity must be >= 1, got 0"),
        (lambda: parse_funcdef([]), ValueError, "malformed function definition: list indices"),
        (lambda: as_univariate(FuncDef(2, Var(2))), ValueError, "expected arity 1, got 2"),
        (lambda: divp_budget("x1"), TypeError, "not an expression node: 'x1'"),
    ], ids=["funcdef-arity", "parse-arity", "not-a-mapping",
            "univariate-of-arity-two", "not-a-node"])
    def test_refusals(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            call()


class TestEvaluate:
    def test_identity(self):
        x = from_integer(11, 7, 5)
        assert evaluate(parse("x1", 1), PadicPoint((x,))) == x

    def test_divp_value(self):
        # (2 - 2^7) / 7 = -18, reduced mod 7^(N-1)
        got = ev1("divp(x1 - x1^7, 1)", 2, 7, 6)
        assert got.precision == 5
        assert got.to_integer() == (-18) % 7**5

    def test_quintic_vanishes_at_its_residue_root(self):
        got = ev1(QUINTIC_TEXT, 5, 7, 8)
        assert quintic_int(5, 1) == 0  # oracle: 4 * 5^5 - 5 is 0 mod 7
        assert got.digits[0] == 0

    def test_quintic_matches_integer_oracle(self):
        for x in (0, 5, 12, 300, 7**5 + 3):
            got = ev1(QUINTIC_TEXT, x, 7, 8)
            assert got.to_integer() == quintic_int(x, 8)

    def test_rational_constant_embedding(self):
        got = ev1("1/2 + 1/2", 0, 3, 4)
        assert got.to_integer() == 1

    def test_pow_zero_is_one(self):
        assert ev1("x1^0", 5, 3, 4).to_integer() == 1

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivisionError):
            ev1("divp(x1, 1)", 1, 7, 4)

    def test_a_divp_past_the_known_digits_never_forms_its_power_of_p(self):
        # with e >= N the division always fails, and p^e would have millions of digits
        started = time.perf_counter()
        f = FuncDef(1, DivP(Var(1), 3 * 10**6)).on_columns(7, 5, 1)
        assert time.perf_counter() - started < 0.5
        with pytest.raises(InexactDivisionError,
                           match=r"^value is not divisible by p\^3000000 \(p=7\)$"):
            f([[1]], ())
        with pytest.raises(PrecisionExhaustedError,
                           match=r"^dividing by p\^3000000 leaves no known digits \(precision 5\)$"):
            f([[0]], ())

    def test_precision_loss_is_worst_case_per_branch(self):
        got = ev1("x1 + divp(x1 - x1^7, 1)", 2, 7, 6)
        assert got.precision == 5

    def test_arity_mismatch(self):
        expr = parse("x1 + x2", 2)
        with pytest.raises(ValueError):
            evaluate(expr, PadicPoint((from_integer(1, 3, 4),)))

    def test_polynomials_match_big_integer_model_exhaustively(self):
        p, n = 3, 3
        exprs = [
            parse("x1^2 + 2*x2 - 1", 2),
            parse("(x1 + x2)^3 - x1*x2", 2),
            parse("7 - x1*x1*x2", 2),
        ]
        for expr in exprs:
            for a, b in product(range(p**n), repeat=2):
                pt = PadicPoint.from_integers((a, b), p, n)
                assert evaluate(expr, pt).to_integer() == eval_int_model(
                    expr, (a, b), p, n
                )

    def test_digitsum_identity_map(self):
        # coefficient polynomial 1 with exponent 1 reassembles the digits
        p, n = 3, 4
        expr = parse("digitsum(x1, 1, 1)", 1)
        for x in range(p**n):
            pt = PadicPoint((from_integer(x, p, n),))
            assert evaluate(expr, pt).to_integer() == x

    def test_deterministic(self):
        rng = random.Random(7)
        expr = random_total_expr(rng, 2, 5)
        pt = PadicPoint.from_integers((123, 456), 5, 6)
        assert evaluate(expr, pt) == evaluate(expr, pt)


class TestDivpBudget:
    def test_no_divp(self):
        assert divp_budget(parse("x1^3 + 2", 1)) == 0

    def test_single(self):
        assert divp_budget(parse("divp(x1 - x1^7, 1)", 1)) == 1

    def test_nested_accumulates(self):
        assert divp_budget(parse("divp(divp(x1, 2) - x1, 3)", 1)) == 5

    def test_branches_take_max(self):
        assert divp_budget(parse("divp(x1, 2) + divp(x1, 3)", 1)) == 3


class TestWellDefined:
    def test_fermat_difference_is_total(self):
        report = well_defined_check(FuncDef(1, parse("divp(x1 - x1^7, 1)", 1)), 1, 7, 8, 500)
        assert report.violations == 0
        assert report.ok

    def test_bare_divp_fails(self):
        report = well_defined_check(FuncDef(1, parse("divp(x1, 1)", 1)), 1, 7, 8, 500)
        assert report.violations > 0
        assert report.first_violation is not None

    def test_polynomial_never_fails(self):
        report = well_defined_check(FuncDef(1, parse("x1^2", 1)), 1, 7, 8, 200)
        assert report.violations == 0

    def test_report_is_seeded(self):
        defn = FuncDef(1, parse("divp(x1, 1)", 1))
        a = well_defined_check(defn, 1, 7, 8, 300, seed=5)
        b = well_defined_check(defn, 1, 7, 8, 300, seed=5)
        assert a == b

    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_replay_in_plain_integers(self, arity, seed):
        # (x1^2 - x1)/7 divides exactly when x1 is 0 or 1 mod 7
        defn = FuncDef(arity, parse("divp(x1^2 - x1, 1)", arity))
        report = well_defined_check(defn, arity, 7, 4, 200, seed)
        replay = totality_replay_int(lambda v: v[0] % 7 in (0, 1), arity, 7, 4, 200, seed)
        assert (report.violations, report.first_violation) == replay
