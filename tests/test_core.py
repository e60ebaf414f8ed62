import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicvdp.core import (
    InexactDivisionError,
    InvalidPrimeError,
    PadicInt,
    PadicPoint,
    PrecisionExhaustedError,
    PrimeMismatchError,
    _digit_blocks,
    _digit_list,
    _digit_walk,
    _from_residue,
    _shifted,
    column_scan,
    digit_length,
    floor_log_p,
    from_integer,
    from_rational,
    is_prime,
    on_residues,
    vanishes_to,
    weight,
)

from support import block_residues, indicator_table, initial_parts_int, int_digits, m_star
from support import vanishing_verdict_int


class TestFromInteger:
    def test_zero(self):
        assert from_integer(0, 3, 4).digits == (0, 0, 0, 0)

    def test_ten_base_three(self):
        # oracle: repeated division by 3
        assert int_digits(10, 3, 4) == [1, 0, 1, 0]
        assert from_integer(10, 3, 4).digits == (1, 0, 1, 0)

    def test_below_prime(self):
        assert from_integer(5, 7, 3).digits == (5, 0, 0)

    def test_invalid_prime(self):
        with pytest.raises(InvalidPrimeError):
            from_integer(1, 6, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            from_integer(-1, 3, 3)

    def test_truncates_to_precision(self):
        assert from_integer(3**5, 3, 3).digits == (0, 0, 0)


class TestOrdAndNorm:
    def test_ord_inner_digit(self):
        assert PadicInt(3, (0, 0, 1, 2)).ord() == 2

    def test_ord_zero_is_infinite(self):
        assert PadicInt(3, (0, 0, 0, 0)).ord() == math.inf

    def test_ord_unit(self):
        assert PadicInt(7, (4, 0, 0)).ord() == 0

    def test_norm_values(self):
        assert PadicInt(3, (0, 0, 1, 2)).norm() == Fraction(1, 9)
        assert PadicInt(3, (0, 0, 0)).norm() == 0
        assert PadicInt(3, (2, 0, 0)).norm() == 1


class TestArithmetic:
    def test_add_carries(self):
        two = from_integer(2, 3, 3)
        assert (two + two).digits == (1, 1, 0)

    def test_mul_identity(self):
        x = from_integer(17, 3, 4)
        one = from_integer(1, 3, 4)
        assert x * one == x

    def test_sub_wraps_to_all_top_digits(self):
        zero = from_integer(0, 5, 3)
        one = from_integer(1, 5, 3)
        assert (zero - one).digits == (4, 4, 4)

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            from_integer(1, 3, 3) + from_integer(1, 5, 3)

    def test_min_precision_propagates(self):
        a = from_integer(7, 3, 5)
        b = from_integer(7, 3, 3)
        assert (a + b).precision == 3

    def test_exhaustive_against_integers_mod_27(self):
        p, n = 3, 3
        mod = p**n
        for a in range(mod):
            for b in range(mod):
                x = from_integer(a, p, n)
                y = from_integer(b, p, n)
                assert (x + y).to_integer() == (a + b) % mod
                assert (x - y).to_integer() == (a - b) % mod
                assert (x * y).to_integer() == (a * b) % mod

    def test_equality_distinguishes_precision(self):
        assert from_integer(4, 3, 3) != from_integer(4, 3, 4)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_ultrametric_inequality(p, data):
    n = 6
    a = data.draw(st.integers(0, p**n - 1))
    b = data.draw(st.integers(0, p**n - 1))
    x, y = from_integer(a, p, n), from_integer(b, p, n)
    lhs = (x + y).norm()
    assert lhs <= max(x.norm(), y.norm())
    if x.norm() != y.norm():
        assert lhs == max(x.norm(), y.norm())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_standard_seq_round_trip(p, data):
    # x_t = x mod p^t is the value of the first t digits, and from_integer builds it
    n = 5
    k = data.draw(st.integers(0, p**n - 1))
    digits = from_integer(k, p, n).digits
    for t in range(1, n + 1):
        assert from_integer(k, p, t) == PadicInt(p, digits[:t])
        assert from_integer(k, p, t).to_integer() == sum(d * p**j for j, d in enumerate(digits[:t]))
    assert from_integer(k, p, n).to_integer() == k


class TestStandardSeq:  # x_t = x mod p^t, read as a value at precision t
    def test_partial_sum(self):
        x = PadicInt(3, (2, 1, 0, 2))
        assert from_integer(x.to_integer(), 3, 2) == PadicInt(3, (2, 1)) == from_integer(5, 3, 2)

    def test_first_digit(self):
        x = PadicInt(3, (2, 1, 0, 2))
        assert from_integer(x.to_integer(), 3, 1).to_integer() == x.digit(0) == 2

    def test_eventually_constant_on_integers(self):
        assert [from_integer(10, 3, t).to_integer() for t in range(1, 6)] == [1, 1, 10, 10, 10]

    def test_out_of_range(self):
        with pytest.raises(PrecisionExhaustedError, match="^digit 4 outside known precision 4$"):
            from_integer(10, 3, 4).digit(4)


def _shift(x: PadicInt, e: int) -> PadicInt:
    """x / p^e for e >= 0, else x * p^-e, by core's shift of residue columns."""
    (residue,), (precision,) = _shifted((x.residue,), (x.precision,), (e,), x.prime)
    return _from_residue(residue, x.prime, precision)


class TestExactDivision:
    def test_shift(self):
        x = PadicInt(3, (0, 0, 1))
        assert _shift(x, 2).digits == (1,)

    def test_identity(self):
        x = from_integer(10, 3, 4)
        assert _shift(x, 0) == x

    def test_unit_not_divisible(self):
        with pytest.raises(InexactDivisionError):
            _shift(PadicInt(3, (1, 0, 0)), 1)

    def test_precision_exhausted(self):
        with pytest.raises(PrecisionExhaustedError):
            _shift(PadicInt(3, (0, 0, 0)), 3)

    def test_round_trip_with_shift_up(self):
        x = PadicInt(3, (0, 0, 2, 1))
        assert _shift(_shift(x, 2), -2) == x


class TestIndexHelpers:
    def test_floor_log(self):
        assert floor_log_p(10, 3) == 2
        assert floor_log_p(1, 3) == 0
        assert floor_log_p(3**4, 3) == 4

    def test_floor_log_zero_undefined(self):
        with pytest.raises(ValueError):
            floor_log_p(0, 3)

    def test_m_star_strips_top_digit(self):  # support's oracle for the coefficient references
        assert m_star(10, 3) == 1

    def test_m_star_at_prime(self):
        assert m_star(3, 3) == 0
        assert m_star(4, 3) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_m_star_is_m_below_its_top_power(self, p):
        for m in range(p, p**4):
            assert m_star(m, p) == m % p ** floor_log_p(m, p)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(2, 10**6))
    def test_m_star_strictly_decreases(self, p, m):
        if m >= p:
            assert m_star(m, p) < min(p ** floor_log_p(m, p), m)


class TestInitialPart:
    # initial_parts_int(x, 3, level) is the oracle the table tests read e_m from
    @pytest.mark.parametrize("x, level, parts", [(6, 4, [0, 6]), (10, 4, [1, 10]), (5, 4, [2, 5]),
                                                 (10, 2, [1])],
                             ids=["zero", "self", "digit-prefix", "needs-enough-digits"])
    def test_oracle_lists_the_truncations(self, x, level, parts):
        assert initial_parts_int(x, 3, level) == parts

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_ball_membership_exhaustively(self, p):
        # a table with one unit coefficient, at m, reads 1 exactly where m is an initial part
        for m in range(p**3):
            value = indicator_table(p, 3, (m,)).on_residues(p, 3, 1)
            for x in range(p**3):
                assert value((x,)).to_integer() == (x % p ** digit_length(m, p) == m)


class TestRational:
    def test_negative_integer_embedding(self):
        x = from_rational(-5, 1, 7, 3)
        assert x.to_integer() == (-5) % 7**3

    def test_half_in_odd_characteristic(self):
        x = from_rational(1, 2, 3, 4)
        assert (x + x).to_integer() == 1

    def test_denominator_must_be_unit(self):
        with pytest.raises(InexactDivisionError):
            from_rational(1, 6, 3, 4)


class TestPoint:
    def test_mixed_primes_rejected(self):
        with pytest.raises(PrimeMismatchError):
            PadicPoint((from_integer(1, 3, 4), from_integer(1, 5, 4)))

    def test_mixed_precision_rejected(self):
        with pytest.raises(PrecisionExhaustedError):
            PadicPoint((from_integer(1, 3, 4), from_integer(1, 3, 5)))

    def test_a_list_of_coordinates_is_kept_as_a_tuple(self):
        pt = PadicPoint([from_integer(9, 3, 5), from_integer(6, 3, 5)])
        assert pt.coords == (from_integer(9, 3, 5), from_integer(6, 3, 5))


def _seven(value: int) -> PadicInt:
    return from_integer(value, 7, 5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: digit_length(-1, 7), ValueError, "digit_length needs m >= 0, got -1"),
    (lambda: _shift(_seven(0), 5), PrecisionExhaustedError,
     "dividing by p^5 leaves no known digits (precision 5)"),
    (lambda: _seven(3) + 3, TypeError, "expected PadicInt, got int"),
    (lambda: from_integer(3, 7, 0), ValueError, "precision must be >= 1, got 0"),
    (lambda: from_rational(1, 2, 7, 0), ValueError, "precision must be >= 1, got 0"),
    (lambda: on_residues(lambda x: x, 7, 0, 1), ValueError, "precision must be >= 1, got 0"),
    (lambda: PadicPoint(()), ValueError, "a point needs at least one coordinate"),
    (lambda: PadicInt(7, ()), PrecisionExhaustedError, "a value needs at least one digit"),
    (lambda: PadicInt(7, (7,)), ValueError, "digit 7 out of range for p=7"),
    (lambda: _seven(3).digit(-1), PrecisionExhaustedError, "digit -1 outside known precision 5"),
], ids=["digit-length", "shift-exhausted", "add-int", "from-integer", "from-rational",
        "on-residues", "empty-point", "empty-digits", "digit-range", "digit-index"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestRendering:
    def test_text_format(self):
        assert str(from_integer(10, 3, 4)) == "1 0 1 0 | p=3 N=4"

    def test_json_round_trip(self):
        x = from_integer(10, 3, 4)
        data = x.to_json()
        assert data == {"p": 3, "precision": 4, "digits": [1, 0, 1, 0]}
        assert PadicInt(data["p"], data["digits"]) == x


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def _model_value(p, data):
    """A precision in 1..8, an integer below p^precision and its model digits."""
    n = data.draw(st.integers(1, 8))
    a = data.draw(st.integers(0, p**n - 1))
    return n, a, int_digits(a, p, n)


def _assert_model(x, p, value, n):
    assert x.prime == p
    assert x.precision == n
    assert list(x.digits) == int_digits(value % p**n, p, n)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_operations_match_integer_model(p, data):
    n, a, da = _model_value(p, data)
    m, b, db = _model_value(p, data)
    x, y = PadicInt(p, da), PadicInt(p, db)
    assert x == from_integer(a, p, n) and hash(x) == hash(from_integer(a, p, n))
    assert x.to_json() == {"p": p, "precision": n, "digits": list(da)}

    k = min(n, m)
    _assert_model(x + y, p, a + b, k)
    _assert_model(x - y, p, a - b, k)
    _assert_model(x * y, p, a * b, k)
    _assert_model(-x, p, -a, n)

    first_nonzero = next((i for i, d in enumerate(da) if d), math.inf)
    assert x.ord() == first_nonzero
    assert (x.residue == 0) == (first_nonzero == math.inf)
    for e in range(n + 3):
        assert x.divisible_by_p_power(e) == all(d == 0 for d in da[:e])
    for i in range(n):
        assert x.digit(i) == da[i]
    for bad in (-1, n):
        with pytest.raises(PrecisionExhaustedError):
            x.digit(bad)

    for e in range(4):
        _assert_model(_shift(x, -e), p, a * p**e, n + e)

    for e in range(n + 2):
        if any(da[:e]):
            with pytest.raises(InexactDivisionError):
                _shift(x, e)
        elif e and n - e < 1:
            with pytest.raises(PrecisionExhaustedError):
                _shift(x, e)
        else:
            _assert_model(_shift(x, e), p, a // p**e, n - e)


@pytest.mark.parametrize(
    "p, digits, error",
    [
        (3, (0, 3), ValueError),
        (3, (-1,), ValueError),
        (5, (1.0,), ValueError),
        (5, ("1",), ValueError),
        (3, (), PrecisionExhaustedError),
        (4, (1,), InvalidPrimeError),
    ],
)
def test_digit_constructor_rejects_bad_input(p, digits, error):
    with pytest.raises(error):
        PadicInt(p, digits)


def test_from_json_rejects_bad_digits():
    data = {"p": 3, "precision": 2, "digits": [1, 3]}
    with pytest.raises(ValueError, match="^digit 3 out of range for p=3$"):
        PadicInt(data["p"], data["digits"])


def _vanishing_cases():
    """A prime and 1-6 (residue, precision, order) checks; residues p^z * u mod p^N."""

    def checks(p):
        check = st.builds(
            lambda n, e, z, u: (p**z * u % p**n, n, e),
            st.integers(1, 6), st.integers(-1, 8), st.integers(0, 6), st.integers(1, p**6),
        )
        return st.tuples(st.just(p), st.lists(check, min_size=1, max_size=6))

    return st.sampled_from([2, 3, 5]).flatmap(checks)


@settings(max_examples=400, deadline=None)
@given(_vanishing_cases(), st.sets(st.integers(1, 5)))
@example((3, [(0, 6, -1), (0, 2, 3), (0, 1, 0), (54, 4, 1)]), set())  # undecided at check 1
@example((2, [(0, 2, 3)]), set())  # undecided
@example((3, [(0, 1, 3), (3, 2, 2)]), set())  # violated after an undecided check
@example((3, [(0, 1, 3), (3, 2, 2)]), {1})  # violated in a later batch than an undecided one
@example((5, [(0, 3, 2), (25, 3, 2)]), {1})  # holds
def test_column_scan_matches_integer_model(case, cuts):
    # the checks cut into batches at the given positions; the rule spans batches, and a
    # site is asked for only when it is reported
    p, checks = case
    residues = [r % p**n for r, n, _ in checks]
    precisions, orders = [n for _, n, _ in checks], [e for _, _, e in checks]
    bounds = [0, *sorted(c for c in cuts if c < len(checks)), len(checks)]
    asked = []

    def batch(lo, hi):
        def site(i):
            asked.append(lo + i)
            return f"site {lo + i}"

        return site, residues[lo:hi], precisions[lo:hi], orders[lo:hi]

    batches = [batch(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    verdict, failures, first = vanishing_verdict_int(checks, p)
    if verdict == "undecided":
        message = f"^check site {first} needs {orders[first]} digits, known {precisions[first]}$"
        with pytest.raises(PrecisionExhaustedError, match=message):
            column_scan(batches, p, "check {}".format)
    else:
        got = column_scan(batches, p, "check {}".format)
        assert got == (failures, None if first is None else f"site {first}")
    assert asked == ([] if first is None else [first])


@settings(max_examples=400, deadline=None)
@given(_vanishing_cases())
def test_vanishes_to_matches_integer_model(case):
    p, checks = case
    for i, (r, n, e) in enumerate(checks):
        value, single = from_integer(r, p, n), vanishing_verdict_int([(r, n, e)], p)[0]
        if single == "undecided":
            with pytest.raises(PrecisionExhaustedError, match=f"^check {i} needs {e} digits"):
                vanishes_to(value, e, "check {}".format, i)
        else:
            assert vanishes_to(value, e, "check {}".format, i) == (single == "holds")


@pytest.mark.parametrize("alpha, arity, expected", [
    (0, 1, (0,)), (3, 1, (3,)), ((1, 2), 2, (1, 2)), ([0, 0, 4], 3, (0, 0, 4)),
])
def test_weight_accepts(alpha, arity, expected):
    assert weight(alpha, arity) == expected


@pytest.mark.parametrize("alpha, arity", [
    (-1, 1), ((0, -1), 2), ((0,), 2), ((0, 0), 1), (True, 1), (1.0, 1), ("1", 1), ((), 1),
])
def test_weight_rejects(alpha, arity):
    with pytest.raises(ValueError, match="weight must be"):
        weight(alpha, arity)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 101, 257, 1000003]), st.data())
def test_digit_walk_matches_repeated_division(p, data):
    n = data.draw(st.one_of(st.integers(1, 300), st.integers(1, 5000)))
    residue = data.draw(block_residues(p, n))
    assert _digit_list(residue, p, n) == int_digits(residue, p, n)
    assert from_integer(residue, p, n).digits == tuple(int_digits(residue, p, n))
    blocks = list(_digit_blocks(residue, p))
    assert all(len(block) == _digit_walk(p)[0] for block in blocks[:-1])
    if residue:  # the top block ends at a chunk holding the top nonzero digit
        assert len(blocks[-1]) <= _digit_walk(p)[0] and any(blocks[-1])
    else:
        assert blocks == []
