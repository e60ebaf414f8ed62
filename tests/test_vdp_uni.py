import random
from dataclasses import fields

import pytest

from padicvdp.core import PrecisionExhaustedError, from_integer
from padicvdp.dsl import FuncDef, as_univariate, parse
from padicvdp.vdp import (
    LipschitzBoundError,
    VdpTable,
    lip_alpha_check_uni,
    normalize_alpha,
    normalize_weighted,
    sampled_lip_check_uni,
    vdp_eval_uni,
    vdp_expand_uni,
)

from support import (
    FERMAT_DIFF_TEXT,
    QUINTIC_TEXT,
    indicator_table,
    initial_parts_int,
    random_total_expr,
    table_eval_int,
    val_mod,
    vdp_coeff_uni,
)


def dsl_uni(text, arity=1):
    return as_univariate(FuncDef(arity=arity, body=parse(text, arity)))


def random_table(rng, p, level, n, satisfying_alpha=None):
    """Random coefficient table; optionally built to satisfy a bound."""
    coeffs = []
    for m in range(p**level):
        value = rng.randrange(p**n)
        if satisfying_alpha is not None:
            from padicvdp.vdp import bound_log

            required = max(0, bound_log(m, p) - satisfying_alpha)
            value = (value * p**required) % p**n
        coeffs.append(from_integer(value, p, n))
    return VdpTable(prime=p, level=level, coeffs=tuple(coeffs))


class TestIndicator:
    """A table with one unit coefficient, at m, evaluates to the basis function e_m."""

    def test_zero_on_zero(self):
        assert vdp_eval_uni(indicator_table(7, 1, (0,)), from_integer(0, 7, 3)).to_integer() == 1

    def test_self(self):
        assert vdp_eval_uni(indicator_table(7, 1, (5,)), from_integer(5, 7, 3)).to_integer() == 1

    def test_ball_membership(self):
        table = indicator_table(3, 2, (3,))
        assert vdp_eval_uni(table, from_integer(3 + 2 * 9, 3, 4)).to_integer() == 1  # 21 = 3 mod 9
        assert vdp_eval_uni(table, from_integer(4, 3, 4)).to_integer() == 0

    def test_initial_parts_listing(self):
        # oracle: truncations of 21 = 0 + 1*3 + 2*9 are 0, 3, 21
        assert initial_parts_int(21, 3, 3) == [0, 3, 21]

    def test_initial_parts_need_precision(self):
        # a level-3 table reads three digits of the point; 5 carries two
        table = random_table(random.Random(0), 3, 3, 4)
        with pytest.raises(PrecisionExhaustedError, match="needs 3 digits, known 2"):
            vdp_eval_uni(table, from_integer(5, 3, 2))


class TestCoefficients:
    def test_identity_below_prime(self):
        f = dsl_uni("x1")
        for m in range(3):
            assert vdp_coeff_uni(f, m, 3, 5).to_integer() == m

    def test_identity_difference(self):
        # m = 10 strips to 1, so the coefficient is 10 - 1 = 9
        f = dsl_uni("x1")
        assert vdp_coeff_uni(f, 10, 3, 5).to_integer() == 9

    def test_constant_has_vanishing_differences(self):
        f = dsl_uni("41")
        for m in range(3, 27):
            assert vdp_coeff_uni(f, m, 3, 5).residue == 0


class TestExpand:
    def test_indicator_function_table(self):
        # callback-backed evaluator: the indicator of the ball around 7
        f = lambda x: from_integer(1 if x.to_integer() % 49 == 7 else 0, 7, x.precision)
        table = vdp_expand_uni(f, 2, 7, 6)
        for m in range(49):
            f_m = 1 if m % 49 == 7 else 0
            if m < 7:
                expected = f_m
            else:
                m_low = m % 7  # strip the top digit of a two-digit index
                expected = f_m - (1 if m_low == 7 else 0)
            assert table.coefficient(m).to_integer() == expected % 7**6

    def test_zero_function(self):
        table = vdp_expand_uni(dsl_uni("0"), 2, 7, 6)
        assert all(c.residue == 0 for c in table.coeffs)

    def test_quintic_level_one_values(self):
        # below p the coefficients are plain values: -5 + 4 m^5 mod 7^N
        table = vdp_expand_uni(dsl_uni(QUINTIC_TEXT), 1, 7, 6)
        for m in range(7):
            assert table.coefficient(m).to_integer() == (-5 + 4 * m**5) % 7**6

    def test_needs_precision_at_least_level(self):
        with pytest.raises(PrecisionExhaustedError):
            vdp_expand_uni(dsl_uni("x1"), 3, 7, 2)

    def test_table_precision_below_level_is_refused(self):
        # divp costs one digit: evaluating at 3 digits leaves a level-3 table 2 digits
        f = dsl_uni(FERMAT_DIFF_TEXT)
        with pytest.raises(PrecisionExhaustedError):
            vdp_expand_uni(f, 3, 7, 3)
        assert vdp_expand_uni(f, 3, 7, 4).precision == 3


class TestEval:
    @pytest.mark.parametrize("p", [2, 3])
    def test_reconstruction_on_random_functions(self, p):
        rng = random.Random(100 + p)
        level, n = 2, 5
        for _ in range(8):
            f = FuncDef(1, random_total_expr(rng, 1, p))
            table = vdp_expand_uni(f, level, p, n)
            for m in range(p**level):
                got = vdp_eval_uni(table, from_integer(m, p, n))
                want = f(from_integer(m, p, n))
                assert got.digits[: got.precision] == want.digits[: got.precision]

    def test_identity_table_truncates(self):
        table = vdp_expand_uni(dsl_uni("x1"), 2, 3, 6)
        x_int = 3**5 + 2 * 9 + 5
        x = from_integer(x_int, 3, 6)
        assert vdp_eval_uni(table, x).to_integer() == x_int % 3**2

    def test_constant_beyond_first_coefficient(self):
        coeffs = [from_integer(0, 3, 4) for _ in range(9)]
        coeffs[0] = from_integer(5, 3, 4)
        table = VdpTable(prime=3, level=2, coeffs=tuple(coeffs))
        for x in (0, 3, 9 + 3):
            assert vdp_eval_uni(table, from_integer(x, 3, 4)).to_integer() == (
                5 if x % 3 == 0 else 0
            )

    def test_table_function_round_trips_through_expand(self):
        rng = random.Random(3)
        table = random_table(rng, 3, 2, 5)
        again = vdp_expand_uni(table, 2, 3, 5)
        assert again.coeffs == table.coeffs


class TestLipschitzCheck:
    def test_identity_is_one_lipschitz(self):
        table = vdp_expand_uni(dsl_uni("x1"), 3, 3, 6)
        assert lip_alpha_check_uni(table, 0).holds

    def test_fermat_difference_alpha_one_holds_alpha_zero_fails(self):
        f = dsl_uni(FERMAT_DIFF_TEXT)
        table = vdp_expand_uni(f, 2, 7, 8)
        assert lip_alpha_check_uni(table, 1).holds
        verdict = lip_alpha_check_uni(table, 0)
        assert not verdict.holds
        assert verdict.violation == 7  # (7 - 7^7)/7 - f(0) = 1 - 7^6, a unit

    def test_unit_coefficient_at_prime_violates(self):
        coeffs = [from_integer(0, 3, 4) for _ in range(9)]
        coeffs[3] = from_integer(1, 3, 4)
        table = VdpTable(prime=3, level=2, coeffs=tuple(coeffs))
        verdict = lip_alpha_check_uni(table, 0)
        assert not verdict.holds and verdict.violation == 3

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_matches_pairwise_brute_force(self, p, alpha):
        # the coefficient bound is equivalent to the pairwise inequality
        rng = random.Random(17 * p + alpha)
        level, n = 2, 5
        for case in range(6):
            table = random_table(
                rng, p, level, n, satisfying_alpha=alpha if case % 2 else None
            )
            ints = [c.to_integer() for c in table.coeffs]
            pairwise_ok = True
            for x in range(p**level):
                for y in range(p**level):
                    if x == y:
                        continue
                    required = val_mod(x - y, p, n) - alpha
                    diff = table_eval_int(ints, p, level, x) - table_eval_int(
                        ints, p, level, y
                    )
                    if required > 0 and val_mod(diff, p, n) < required:
                        pairwise_ok = False
            assert lip_alpha_check_uni(table, alpha).holds == pairwise_ok

    def test_starved_table_is_undecided(self):
        # every m >= 49 needs two digits; the table knows one, and it is zero
        table = VdpTable.from_json({"p": 7, "K": 3, "N": 1, "B": [[0]] * 343})
        with pytest.raises(PrecisionExhaustedError, match=r"m=49 needs 2 digits, known 1"):
            lip_alpha_check_uni(table, 0)
        with pytest.raises(PrecisionExhaustedError, match=r"m=49"):
            normalize_alpha(table, 0)

    def test_violation_after_a_starved_index_is_conclusive(self):
        entries = [[0]] * 343
        entries[100] = [1]  # the known digit is already below the order 2 needed
        table = VdpTable.from_json({"p": 7, "K": 3, "N": 1, "B": entries})
        verdict = lip_alpha_check_uni(table, 0)
        assert not verdict.holds and verdict.violation == 100


class TestNormalization:
    def test_below_prime_alpha_zero_is_untouched(self):
        table = vdp_expand_uni(dsl_uni("x1"), 2, 3, 6)
        normalized = normalize_alpha(table, 0)
        for m in range(3):
            assert normalized.normalized[m] == table.coeffs[m]

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_below_prime_scales_up_by_alpha(self, alpha):
        # the shift is bound_log(m) - alpha = -alpha, so b_m = p^alpha * B_m
        table = vdp_expand_uni(dsl_uni(FERMAT_DIFF_TEXT), 2, 7, 8)
        normalized = normalize_alpha(table, alpha)
        for m in range(7):
            b, c = normalized.normalized[m], table.coeffs[m]
            assert b.precision == c.precision + alpha
            assert b.to_integer() == 7**alpha * c.to_integer()

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_weighted_normalization_agrees_at_arity_one(self, alpha):
        table = vdp_expand_uni(dsl_uni(QUINTIC_TEXT), 2, 7, 8)
        assert normalize_weighted(table, (alpha,)) == normalize_alpha(table, alpha)

    def test_identity_coefficient_scales_to_unit(self):
        # B_10 = 9 and floor(log_3 10) = 2, so b_10 = 9 / 3^2 = 1
        table = vdp_expand_uni(dsl_uni("x1"), 3, 3, 6)
        normalized = normalize_alpha(table, 0)
        assert normalized.normalized[10].to_integer() == 1

    def test_zero_shift_branch(self):
        # at m = p with alpha = 1 the shift exponent is zero
        coeffs = [from_integer(0, 3, 5) for _ in range(9)]
        coeffs[3] = from_integer(3 * 2, 3, 5)
        table = VdpTable(prime=3, level=2, coeffs=tuple(coeffs))
        normalized = normalize_alpha(table, 1)
        assert normalized.normalized[3] == table.coeffs[3]

    def test_round_trip(self):
        table = vdp_expand_uni(dsl_uni(FERMAT_DIFF_TEXT), 2, 7, 8)
        assert normalize_alpha(table, 1).coeffs == table.coeffs

    def test_a_table_without_a_weight_has_no_normalized_coefficients(self):
        table = vdp_expand_uni(dsl_uni("x1"), 2, 3, 6)
        assert table.alpha is None and table.normalized is None
        assert "b" not in table.to_json() and "alpha" not in table.to_json()

    def test_violating_table_is_rejected(self):
        coeffs = [from_integer(0, 3, 4) for _ in range(9)]
        coeffs[3] = from_integer(1, 3, 4)
        table = VdpTable(prime=3, level=2, coeffs=tuple(coeffs))
        with pytest.raises(LipschitzBoundError):
            normalize_alpha(table, 0)

    def test_normalized_entries_are_derived_not_stored(self):
        assert [f.name for f in fields(VdpTable)] == ["prime", "level", "coeffs", "arity", "alpha"]
        table = vdp_expand_uni(dsl_uni(FERMAT_DIFF_TEXT), 2, 7, 8)
        assert table.normalized is None
        built = VdpTable(prime=7, level=2, coeffs=table.coeffs, alpha=1)
        assert built == normalize_alpha(table, 1)
        assert built.normalized == normalize_alpha(table, 1).normalized
        with pytest.raises(LipschitzBoundError, match="m=7"):
            VdpTable(prime=7, level=2, coeffs=table.coeffs, alpha=0)


class TestSampledCheck:
    def test_constant_never_violates(self):
        report = sampled_lip_check_uni(dsl_uni("9"), 0, 300, 7, 6, seed=1)
        assert report.ok

    def test_quintic_is_one_lipschitz(self):
        report = sampled_lip_check_uni(dsl_uni(QUINTIC_TEXT), 0, 400, 7, 6, seed=1)
        assert report.ok

    def test_fermat_difference_violates_alpha_zero(self):
        report = sampled_lip_check_uni(dsl_uni(FERMAT_DIFF_TEXT), 0, 400, 7, 8, seed=1)
        assert not report.ok
        a, b = report.first_violation
        assert (a - b) % 7 == 0  # witnessed pairs differ inside the same residue

    def test_fermat_difference_passes_alpha_one(self):
        report = sampled_lip_check_uni(dsl_uni(FERMAT_DIFF_TEXT), 1, 400, 7, 8, seed=1)
        assert report.ok


class TestSupNorm:
    def test_matches_grid_sup_exhaustively(self):
        rng = random.Random(23)
        p, level, n = 3, 2, 5
        for _ in range(10):
            table = random_table(rng, p, level, n)
            ints = [c.to_integer() for c in table.coeffs]
            grid_min_ord = min(
                val_mod(table_eval_int(ints, p, level, x), p, n)
                for x in range(p**level)
            )
            table_ord = table.sup_norm_ord()
            assert (n if table_ord is None else table_ord) == grid_min_ord

    def test_zero_table_has_no_sup_norm_exponent(self):
        table = vdp_expand_uni(dsl_uni("0"), 2, 3, 5)
        assert table.sup_norm_ord() is None


class TestTableJson:
    def test_round_trip(self):
        table = vdp_expand_uni(dsl_uni(QUINTIC_TEXT), 2, 7, 6)
        data = table.to_json()
        assert data["p"] == 7 and data["K"] == 2 and data["N"] == 6
        assert VdpTable.from_json(data) == table

    def test_round_trip_with_normalization(self):
        table = normalize_alpha(vdp_expand_uni(dsl_uni("x1"), 2, 3, 6), 0)
        again = VdpTable.from_json(table.to_json())
        assert again == table

    def test_keyed_format_with_arity_one_is_read(self):
        table = normalize_alpha(vdp_expand_uni(dsl_uni(QUINTIC_TEXT), 2, 7, 6), 1)
        data = table.to_json()
        keyed = {
            "p": 7, "n": 1, "K": 2, "N": 6, "alpha": [1],
            "A": {f"({m})": digits for m, digits in enumerate(data["B"])},
            "a": {f"({m})": digits for m, digits in enumerate(data["b"])},
        }
        again = VdpTable.from_json(keyed)
        assert again == table and again.alpha == 1
        assert again.to_json() == data

    def test_stored_normalized_entries_must_match_the_coefficients(self):
        data = {"p": 7, "K": 1, "N": 2, "B": [[0, 0]] * 7, "alpha": 0, "b": [[1, 0]] * 7}
        with pytest.raises(ValueError, match="field b does not match"):
            VdpTable.from_json(data)
        data["b"] = [[0, 0]] * 7
        assert VdpTable.from_json(data).coeffs == (from_integer(0, 7, 2),) * 7

    def test_stored_alpha_must_satisfy_the_bound(self):
        data = vdp_expand_uni(dsl_uni(FERMAT_DIFF_TEXT), 2, 7, 8).to_json()
        data.update(alpha=0, b=data["B"])
        with pytest.raises(ValueError, match="bound violated at m=7"):
            VdpTable.from_json(data)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_normalized_table_round_trips_to_equal_json(self, alpha):
        data = normalize_alpha(vdp_expand_uni(dsl_uni(FERMAT_DIFF_TEXT), 2, 7, 8), alpha).to_json()
        assert VdpTable.from_json(data).to_json() == data

    @pytest.mark.parametrize(
        "field,value", [("K", 10**9), ("K", 1e9), ("K", "2"), ("K", True), ("p", 4)]
    )
    def test_invalid_header_is_rejected(self, field, value):
        data = vdp_expand_uni(dsl_uni("x1"), 2, 3, 4).to_json()
        data[field] = value
        with pytest.raises(ValueError):
            VdpTable.from_json(data)
