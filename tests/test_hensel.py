import re

import pytest

from padicvdp.core import EnumerationBudgetError, PrecisionExhaustedError, from_integer
from padicvdp.dsl import FuncDef, as_point_function, as_univariate, parse
from padicvdp.hensel import (
    STATUS_CONDITION_FAILED,
    STATUS_LIFTED,
    STATUS_RESIDUAL_NONLIFTABLE,
    PreconditionError,
    brute_force_roots_multi,
    hensel_lift_multi,
    hensel_lift_uni,
    roots_mod_uni,
    well_defined_residue_check,
)
from padicvdp.vdp import VdpTable

from support import (
    FERMAT_DIFF_TEXT,
    QUINTIC_TEXT,
    quintic_int,
    residue_failures_int,
    residue_replay_int,
    root_exists_via_projection,
    vdp_coeff_uni,
)


def uni(text):
    return as_univariate(FuncDef(arity=1, body=parse(text, 1)))


def multi(text, arity):
    return as_point_function(FuncDef(arity=arity, body=parse(text, arity)))


def partial_roots(trace):
    """Integer partial root after each recorded level."""
    current = list(trace.start)
    out = []
    for lv in trace.levels:
        if lv.chosen_digit:
            current[lv.coordinate - 1] += lv.chosen_digit * trace.prime**lv.level
        out.append(tuple(current))
    return out


class TestRootsModUni:
    def test_quintic_level_one(self):
        assert roots_mod_uni(uni(QUINTIC_TEXT), 0, 1, 7) == [5]

    def test_identity(self):
        assert roots_mod_uni(uni("x1"), 0, 3, 3) == [0]

    def test_square_roots_of_one(self):
        assert roots_mod_uni(uni("x1^2 - 1"), 0, 1, 5) == [1, 4]

    def test_level_must_clear_alpha(self):
        with pytest.raises(PreconditionError):
            roots_mod_uni(uni("x1"), 1, 1, 3)

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            roots_mod_uni(uni("x1"), 0, 10, 7, budget=100)


class TestResidueCheck:
    def test_identity_is_well_defined(self):
        report = well_defined_residue_check(multi("x1", 1), 2, 0, 1, 3, samples=200, seed=1)
        assert report.ok

    def test_quintic_is_well_defined(self):
        report = well_defined_residue_check(
            multi(QUINTIC_TEXT, 1), 2, 0, 1, 7, samples=200, seed=1
        )
        assert report.ok

    def test_table_with_large_tail_coefficient_fails(self):
        # a unit coefficient at m = 4 makes f mod 3 depend on the second digit
        coeffs = [from_integer(0, 3, 4) for _ in range(9)]
        coeffs[4] = from_integer(1, 3, 4)
        table = VdpTable(prime=3, level=2, coeffs=tuple(coeffs))
        report = well_defined_residue_check(
            table, 1, 0, 1, 3, samples=300, seed=1,
            eval_precision=4,
        )
        assert not report.ok
        x, y = report.first_violation
        assert x % 3 == y % 3

    @pytest.mark.parametrize("text, f_int", [
        ("divp(x1 - x1^7, 1) + x2", lambda x: (x[0] - x[0] ** 7) // 7 + x[1]),
        ("x1 + divp(x2 - x2^7, 1)", lambda x: x[0] + (x[1] - x[1] ** 7) // 7),
    ], ids=["divp-in-x1", "divp-in-x2"])
    @pytest.mark.parametrize("alpha", [(1, 0), (0, 1), (0, 0)])
    def test_two_variables_agree_with_brute_force(self, text, f_int, alpha):
        # at precision 3 a sample lifts x < 7^2 by one digit t in [1, 7) per coordinate;
        # the oracle tries every such lift, modulo 7^(2 - max(alpha)) as for the roots
        failing = residue_failures_int(f_int, 2, 2 - max(alpha), 2, 7, 1)
        report = well_defined_residue_check(multi(text, 2), 2, alpha, 2, 7, 300, eval_precision=3)
        assert report.ok == (alpha != (0, 0)) == (not failing)
        assert report.first_violation is None or report.first_violation in failing
        assert (report.violations, report.first_violation) == residue_replay_int(
            f_int, 2, 2 - max(alpha), 2, 7, 3, 300, 0)

    @pytest.mark.parametrize("alpha", [0, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_replay_in_plain_integers(self, alpha, seed):
        # x then t per sample; (x - x^7)/7 mod 49 reads x mod 7^3, so alpha 0 fails
        report = well_defined_residue_check(multi(FERMAT_DIFF_TEXT, 1), 2, alpha, 1, 7, 200,
                                            seed=seed, eval_precision=5)
        replay = residue_replay_int(lambda x: (x[0] - x[0] ** 7) // 7, 2, 2 - alpha, 1, 7, 5,
                                    200, seed)
        assert (report.violations, report.first_violation) == replay
        assert report.ok == (alpha == 1)


class TestLiftUnivariate:
    def test_quintic_lifts_to_ten_digits(self):
        trace = hensel_lift_uni(uni(QUINTIC_TEXT), 0, 5, 1, 10, 7)
        assert trace.status == STATUS_LIFTED
        assert all(lv.condition_complete for lv in trace.levels)
        for lv in trace.levels:
            assert sorted(lv.condition_values) == [1, 2, 3, 4, 5, 6]
        root = trace.root.coords[0].to_integer()
        assert root % 7 == 5
        assert quintic_int(root, 10) == 0  # independent integer replay

    def test_exact_linear_root(self):
        trace = hensel_lift_uni(uni("x1 - 314"), 0, 314 % 3, 1, 8, 3)
        assert trace.status == STATUS_LIFTED
        assert trace.root.coords[0].to_integer() == 314 % 3**8

    def test_positive_alpha_linear_root(self):
        trace = hensel_lift_uni(uni("x1 - 10"), 1, 10 % 9, 1, 6, 3)
        assert trace.status == STATUS_LIFTED
        assert trace.root.coords[0].digits == (1, 0, 1, 0, 0, 0)

    def test_two_adic_square_root_condition_fails(self):
        trace = hensel_lift_uni(uni("x1^2 - 1"), 0, 1, 1, 8, 2)
        assert trace.status == STATUS_CONDITION_FAILED
        assert trace.failed_level == 1
        assert trace.root is None
        # the failure matches non-unique lifting: four square roots of 1 mod 8
        assert roots_mod_uni(uni("x1^2 - 1"), 0, 3, 2) == [1, 3, 5, 7]

    def test_nonintegral_condition_values_fail(self):
        # differences of an exactly flat root have order l - 1 when alpha = 1
        trace = hensel_lift_uni(uni("divp(x1 - x1^7, 1)"), 1, 1, 1, 8, 7,
                                eval_precision=9)
        assert trace.status == STATUS_CONDITION_FAILED
        assert trace.failed_level == 2
        assert set(trace.levels[-1].condition_values) == {None}

    def test_residual_read_names_the_level(self):
        # F keeps exactly 5 digits, so level 5 cannot read its residual digit
        f = uni("divp(7*x1^2 - 7*2, 1)")
        with pytest.raises(PrecisionExhaustedError,
                           match="F at lifting level 5 needs 6 digits, known 5"):
            hensel_lift_uni(f, 0, 3, 1, 6, 7, eval_precision=6)

    def test_condition_read_names_the_level(self):
        # x^2 - 2 with every point but the start known to one digit only
        def f(x):
            return from_integer((x.to_integer() ** 2 - 2) % 7**6, 7, 6 if x.to_integer() == 3 else 1)

        with pytest.raises(PrecisionExhaustedError,
                           match="the condition set at level 1 needs 2 digits, known 1"):
            hensel_lift_uni(f, 0, 3, 1, 6, 7, eval_precision=6)

    def test_start_out_of_range(self):
        with pytest.raises(PreconditionError):
            hensel_lift_uni(uni("x1"), 0, 7, 1, 6, 7)

    def test_start_not_a_residue_root(self):
        with pytest.raises(PreconditionError):
            hensel_lift_uni(uni("x1 - 1"), 0, 0, 1, 6, 7)

    def test_l0_must_be_positive(self):
        with pytest.raises(PreconditionError):
            hensel_lift_uni(uni("x1"), 0, 0, 0, 6, 7)

    def test_monotone_partial_roots(self):
        trace = hensel_lift_uni(uni(QUINTIC_TEXT), 0, 5, 1, 9, 7)
        partials = partial_roots(trace)
        for (lv_a, a), (lv_b, b) in zip(
            zip(trace.levels, partials), zip(trace.levels[1:], partials[1:])
        ):
            assert b[0] % 7 ** (lv_a.level + 1) == a[0] % 7 ** (lv_a.level + 1)
        final = trace.root.coords[0].to_integer()
        assert final == partials[-1][0]

    def test_condition_set_agrees_with_table_coefficients(self):
        # the level-l differences are exactly the coefficients at z + r p^l
        f = uni(QUINTIC_TEXT)
        trace = hensel_lift_uni(f, 0, 5, 1, 6, 7)
        current = [5] + [p[0] for p in partial_roots(trace)]
        for lv, z_hat in zip(trace.levels, current):
            for r in range(1, 7):
                coeff = vdp_coeff_uni(f, z_hat + r * 7**lv.level, 7, 8)
                assert all(d == 0 for d in coeff.digits[: lv.level])
                assert coeff.digits[lv.level] == lv.condition_values[r - 1]

    def test_unique_residue_root_in_start_class(self):
        # path-verified condition implies one compatible residue per level
        f = uni(QUINTIC_TEXT)
        for k in (1, 2, 3):
            compatible = [z for z in roots_mod_uni(f, 0, k, 7) if z % 7 == 5]
            assert len(compatible) == 1

    def test_lifted_root_reduces_into_enumerated_roots(self):
        f = uni(QUINTIC_TEXT)
        trace = hensel_lift_uni(f, 0, 5, 1, 8, 7)
        root = trace.root.coords[0].to_integer()
        for k in (1, 2, 3, 4):
            assert root % 7**k in roots_mod_uni(f, 0, k, 7, eval_precision=8)


class TestLiftMultivariate:
    def test_separable_lift_along_first_coordinate(self):
        F = multi(f"({QUINTIC_TEXT}) + 7 * x2", 2)
        trace = hensel_lift_multi(F, (0, 0), (5, 0), 1, 8, 7, coordinate=1)
        assert trace.status == STATUS_LIFTED
        assert all(lv.coordinate == 1 for lv in trace.levels)
        zeta = tuple(c.residue for c in trace.root.coords)
        assert (quintic_int(zeta[0], 8) + 7 * zeta[1]) % 7**8 == 0
        assert zeta[0] % 7 == 5 and zeta[1] == 0
        # the reduced root shows up in the brute-force enumeration
        reduced = tuple(z % 49 for z in zeta)
        assert reduced in brute_force_roots_multi(F, 2, (0, 0), 2, 7)

    def test_degenerate_second_coordinate(self):
        F = multi("x1 - 14 + 0 * x2", 2)
        trace = hensel_lift_multi(F, (0, 0), (14 % 3, 2), 1, 6, 3, coordinate=1)
        assert trace.status == STATUS_LIFTED
        assert tuple(c.residue for c in trace.root.coords) == (14, 2)

    def test_auto_coordinate_skips_flat_direction(self):
        F = multi("x2 - 14 + 0 * x1", 2)
        trace = hensel_lift_multi(F, (0, 0), (1, 14 % 3), 1, 6, 3, coordinate=None)
        assert trace.status == STATUS_LIFTED
        assert trace.auto_coordinate
        assert all(lv.coordinate == 2 for lv in trace.levels)
        assert tuple(c.residue for c in trace.root.coords) == (1, 14)

    def test_fixed_flat_coordinate_fails(self):
        F = multi("x2 - 14 + 0 * x1", 2)
        trace = hensel_lift_multi(F, (0, 0), (1, 14 % 3), 1, 6, 3, coordinate=1)
        assert trace.status == STATUS_CONDITION_FAILED

    def test_start_must_be_a_residue_root(self):
        F = multi("x1 * x2 - 1", 2)
        with pytest.raises(PreconditionError):
            hensel_lift_multi(F, (0, 0), (0, 0), 1, 6, 7, coordinate=1)

    def test_weight_gap_reports_residual_nonliftable(self):
        # start satisfies the precondition modulus l0 + min(alpha) but the
        # entry level l0 + max(alpha) finds a nonzero residual
        F = multi("x1 + 0 * x2", 2)
        trace = hensel_lift_multi(F, (1, 0), (3, 0), 1, 6, 3, coordinate=1)
        assert trace.status == STATUS_RESIDUAL_NONLIFTABLE
        assert trace.failed_level == 2

    def test_an_empty_level_range_still_replays_the_target(self):
        # levels run from l0 + max(alpha) = 2 up to the target 2, so none runs; the start
        # passes the precondition mod 3, but the replay finds F = -3, of order 1 < 2
        F = FuncDef(2, parse("x1 - 3", 2))
        trace = hensel_lift_multi(F, (0, 1), (0, 0), 1, 2, 3, coordinate=1)
        assert trace.status == STATUS_RESIDUAL_NONLIFTABLE
        assert trace.failed_level == 1
        assert trace.levels == () and trace.root is None

    @pytest.mark.parametrize("p", [2, 3])
    def test_lifted_root_reduces_into_brute_force_roots(self, p):
        F = multi(f"x1 - 5 + {p} * x2", 2)
        trace = hensel_lift_multi(F, (0, 0), (5 % p, 0), 1, 6, p, coordinate=1)
        assert trace.status == STATUS_LIFTED
        zeta = tuple(c.residue for c in trace.root.coords)
        for k in (1, 2, 3):
            reduced = tuple(z % p**k for z in zeta)
            assert reduced in brute_force_roots_multi(
                F, k, (0, 0), 2, p, eval_precision=6
            )

    def test_trace_json_shape(self):
        F = multi(f"({QUINTIC_TEXT}) + 7 * x2", 2)
        trace = hensel_lift_multi(F, (0, 0), (5, 0), 1, 5, 7, coordinate=1)
        data = trace.to_json()
        assert data["status"] == "lifted"
        assert data["start_modulus_exponents"] == [1, 1]
        assert len(data["levels"][0]["condition_values"]) == 6
        assert data["root"]["coords"][0]["digits"][0] == 5


class TestBruteForce:
    def test_additive_roots_mod_three(self):
        F = multi("x1 + x2", 2)
        assert brute_force_roots_multi(F, 1, (0, 0), 2, 3) == [(0, 0), (1, 2), (2, 1)]

    def test_constant_unit_has_no_roots(self):
        F = multi("1 + 0 * x1 + 0 * x2", 2)
        assert brute_force_roots_multi(F, 1, (0, 0), 2, 3) == []

    def test_budget_guard(self):
        F = multi("x1 + x2", 2)
        with pytest.raises(EnumerationBudgetError):
            brute_force_roots_multi(F, 5, (0, 0), 2, 7, budget=1000)


@pytest.mark.parametrize("call, message", [
    (lambda F: hensel_lift_multi(F, (0,), (0,), 1, 0, 7), "target precision must be >= 1, got 0"),
    (lambda F: hensel_lift_multi(F, (0,), (0,), 1, 6, 7, eval_precision=5),
     "evaluation precision 5 below target precision 6"),
    (lambda F: well_defined_residue_check(F, 1, (1,), 1, 7, 10),
     "level k must be >= 1 + max(alpha), got k=1, alpha=(1,)"),
    (lambda F: well_defined_residue_check(F, 2, (0,), 1, 7, 10, eval_precision=2),
     "evaluation precision 2 leaves no room above level 2"),
    (lambda F: brute_force_roots_multi(F, 2, (0,), 1, 7, eval_precision=1),
     "evaluation precision 1 below level 2"),
], ids=["lift-target", "lift-eval-precision", "residue-level", "residue-eval-precision",
        "roots-eval-precision"])
def test_refusals_come_before_any_evaluation(call, message):
    def never(x):
        raise AssertionError("evaluated")

    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call(never)


class TestProjectionRoots:
    def test_projection_of_additive_function(self):
        F = multi("x1 + x2", 2)
        fixed = (from_integer(1, 3, 4),)
        report = root_exists_via_projection(F, 1, fixed, [1], 0, 3)
        assert report.roots_by_level[1] == [2]
        assert report.all_nonempty

    def test_projection_of_constant_unit(self):
        F = multi("1 + 0 * x1 + 0 * x2", 2)
        fixed = (from_integer(0, 3, 4),)
        report = root_exists_via_projection(F, 1, fixed, [1, 2], 0, 3)
        assert report.roots_by_level == {1: [], 2: []}
        assert not report.all_nonempty

    def test_projection_of_separable_quintic(self):
        F = multi(f"({QUINTIC_TEXT}) + 7 * x2", 2)
        fixed = (from_integer(0, 7, 4),)
        report = root_exists_via_projection(F, 1, fixed, [1], 0, 7)
        assert report.roots_by_level[1] == [5]
