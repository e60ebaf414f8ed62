import random
import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicvdp import core, vdp
from padicvdp.core import PadicPoint, PrecisionExhaustedError, from_integer
from padicvdp.dsl import FuncDef, as_point_function, parse, well_defined_check
from padicvdp.vdp import (
    VdpTable,
    lip_alpha_check_uni,
    normalize_weighted,
    projection,
    sampled_weighted_lip_check,
    vdp_eval_multi,
    vdp_expand_multi,
    vdp_expand_uni,
    weighted_lip_bound_check,
)

from support import (
    index_set,
    indicator_table,
    initial_part_positions_int,
    m_star,
    pairwise_lipschitz_int,
    random_total_expr,
    val_mod,
    vdp_coeff_multi_ie,
    vdp_coeff_multi_rec,
    vdp_coeff_uni,
)


def dsl_fn(text, arity):
    return as_point_function(FuncDef(arity=arity, body=parse(text, arity)))


def int_backed(fn, p):
    """Wrap an integer function as a point evaluator (independent of the DSL)."""
    return lambda pt: from_integer(
        fn(*(c.residue for c in pt.coords)) % p**pt.precision, p, pt.precision
    )


def coeff_int_oracle(fn, m, p, modulus_exp):
    """Inclusion-exclusion in plain integers: the independent coefficient oracle."""
    idx = [i for i, v in enumerate(m) if v >= p]
    total = 0
    for mask in range(1 << len(idx)):
        corner = list(m)
        bits = 0
        for b, i in enumerate(idx):
            if mask >> b & 1:
                corner[i] = m_star(corner[i], p)
                bits += 1
        total += (-1) ** bits * fn(*corner)
    return total % p**modulus_exp


def _never(x):
    raise AssertionError("evaluated")


@pytest.mark.parametrize("call, message", [
    (lambda: vdp_expand_multi(_never, 0, 1, 7, 4), "level must be >= 1, got 0"),
    (lambda: vdp_expand_multi(_never, 1, 0, 7, 4), "arity must be >= 1, got 0"),
    (lambda: VdpTable.from_json({"p": 7, "K": 1, "N": 1, "B": [[0]] * 6 + [5]}),
     "coefficient entry must be a digit list, got 5"),
    (lambda: VdpTable(7, 1, (from_integer(0, 5, 2),) * 7),
     "coefficient prime does not match table prime"),
], ids=["expand-level", "expand-arity", "entry-not-a-list",
        "coefficient-prime"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_small_chunks_give_the_same_table_and_reports(monkeypatch):
    # an evaluator's column form sees at most COLUMN_CHUNK points a call, and a sampled
    # check's batches hold COLUMN_CHUNK draws; neither size may change a result
    sizes = []

    class Spy(FuncDef):
        def on_columns(self, p, n, arity):
            columns = super().on_columns(p, n, arity)
            return lambda cols, undefined: sizes.append(len(cols[0])) or columns(cols, undefined)

    def results(F):
        sizes.clear()
        table = normalize_weighted(vdp_expand_multi(F, 2, 2, 7, 6), (1, 0))
        expanded = list(sizes)
        pairs = sampled_weighted_lip_check(F, (0, 0), 300, 2, 7, 6, seed=5)
        totality = well_defined_check(FuncDef(2, parse("divp(x1 + x2, 1)", 2)), 2, 7, 3, 60)
        return (table, table.normalized, pairs, totality), expanded

    text = "divp(x1 - x1^7, 1) + x2 * digitsum(x2, 1 + i, 2)"
    want, whole = results(Spy(2, parse(text, 2)))
    assert whole == [7**4] and 7**4 <= core.COLUMN_CHUNK  # the grid fits one chunk
    monkeypatch.setattr(core, "COLUMN_CHUNK", 7)
    got, chunked = results(Spy(2, parse(text, 2)))
    assert got == want and not want[2].ok and not want[3].ok
    assert sum(chunked) == 7**4 and max(sizes) <= 7
    batches = []  # the batch form holds one chunk's draws at a time
    core.sampled_scan(lambda rng: rng.random(), 20, 0, 7, str,
                      decide=lambda drawn: batches.append(len(drawn)) or [])
    assert batches == [7, 7, 6]


class TestIndexSet:
    def test_examples(self):
        # the oracle the coefficient references take I(m) from
        assert index_set((2, 9), 3) == (2,)
        assert index_set((0, 0, 0), 3) == ()
        assert index_set((3, 3), 3) == (1, 2)


class TestIndicatorProduct:
    """A table with one unit coefficient, at m, evaluates to prod_i e_{m_i}(x_i)."""

    def test_all_coordinates_match(self):
        x = PadicPoint.from_integers((5, 1), 7, 4)
        assert vdp_eval_multi(indicator_table(7, 1, (5, 1)), x).to_integer() == 1

    def test_one_coordinate_fails(self):
        x = PadicPoint.from_integers((5, 2), 7, 4)
        assert vdp_eval_multi(indicator_table(7, 1, (5, 1)), x).to_integer() == 0

    def test_ball_membership_per_coordinate(self):
        x = PadicPoint.from_integers((12, 1), 3, 4)
        # 12 = 3 mod 9 and 1 = 1 mod 3
        assert vdp_eval_multi(indicator_table(3, 2, (3, 1)), x).to_integer() == 1


class TestCoefficientClosedForm:
    def test_additive_function_cancels(self):
        F = dsl_fn("x1 + x2", 2)
        got = vdp_coeff_multi_ie(F, (10, 12), 3, 6)
        assert got.residue == 0

    def test_product_function_factors(self):
        F = dsl_fn("x1 * x2", 2)
        m = (10, 12)
        expected = (10 - m_star(10, 3)) * (12 - m_star(12, 3)) % 3**6
        assert vdp_coeff_multi_ie(F, m, 3, 6).to_integer() == expected

    def test_plain_value_when_all_entries_small(self):
        F = dsl_fn("x1 * x2 + 5", 2)
        assert vdp_coeff_multi_ie(F, (1, 2), 3, 6).to_integer() == 7

    def test_matches_integer_oracle(self):
        fn = lambda a, b, c: a * b - 3 * c + a**2
        F = int_backed(fn, 3)
        for m in [(0, 1, 2), (4, 0, 9), (10, 11, 12), (3, 3, 3)]:
            got = vdp_coeff_multi_ie(F, m, 3, 6)
            assert got.to_integer() == coeff_int_oracle(fn, m, 3, 6)


class TestCoefficientRecursion:
    def test_single_variable_reduces_to_univariate(self):
        rng = random.Random(5)
        expr = random_total_expr(rng, 1, 3)
        F = as_point_function(FuncDef(arity=1, body=expr))
        f = lambda x: F(PadicPoint((x,)))
        for m in range(12):
            rec = vdp_coeff_multi_rec(F, (m,), 3, 6)
            assert rec == vdp_coeff_uni(f, m, 3, 6)

    def test_nested_differences_with_three_active_coordinates(self):
        # all entries of I stripped once each, signs by subset parity
        fn = lambda a, b, c, d: a * b * c + d * a + b**2
        F = int_backed(fn, 2)
        m = (2, 3, 2, 1)  # I(m) = {1, 2, 3} at p = 2
        got = vdp_coeff_multi_rec(F, m, 2, 6)
        assert got.to_integer() == coeff_int_oracle(fn, m, 2, 6)

    @pytest.mark.parametrize("p,arity", [(2, 2), (3, 2), (2, 3)])
    def test_recursion_matches_closed_form(self, p, arity):
        rng = random.Random(31 * p + arity)
        for _ in range(4):
            F = as_point_function(
                FuncDef(arity=arity, body=random_total_expr(rng, arity, p))
            )
            side = p**2
            for m in product(range(side), repeat=arity):
                assert vdp_coeff_multi_rec(F, m, p, 5) == vdp_coeff_multi_ie(
                    F, m, p, 5
                )

    def test_every_stripping_order_agrees(self):
        fn = lambda a, b, c: a**2 * b + c * b + 7
        F = int_backed(fn, 2)
        m = (2, 5, 3)  # I(m) = {1, 2, 3}
        reference = vdp_coeff_multi_ie(F, m, 2, 6)
        for order in permutations(index_set(m, 2)):
            assert vdp_coeff_multi_rec(F, m, 2, 6, order=order) == reference

    def test_order_must_be_permutation(self):
        F = dsl_fn("x1 + x2", 2)
        with pytest.raises(ValueError):
            vdp_coeff_multi_rec(F, (3, 3), 3, 5, order=(1,))


class TestExpandAndEval:
    def test_reconstruction_on_grid(self):
        rng = random.Random(77)
        for p in (2, 3):
            F = as_point_function(FuncDef(arity=2, body=random_total_expr(rng, 2, p)))
            table = vdp_expand_multi(F, 2, 2, p, 5)
            for m in table.indices():
                pt = PadicPoint.from_integers(m, p, 5)
                got = vdp_eval_multi(table, pt)
                want = F(pt)
                assert got.digits[: got.precision] == want.digits[: got.precision]

    def test_zero_function(self):
        table = vdp_expand_multi(dsl_fn("0 * x1 + 0 * x2", 2), 2, 2, 3, 5)
        assert all(c.residue == 0 for c in table.coeffs)

    def test_product_of_indicators(self):
        # the indicator of (x = 3 mod 9) and (y = 1 mod 3), expanded at K = 2
        fn = lambda a, b: int(a % 9 == 3 and b % 3 == 1)
        F = int_backed(fn, 3)
        table = vdp_expand_multi(F, 2, 2, 3, 5)
        for m in table.indices():
            expected = coeff_int_oracle(fn, m, 3, 5)
            assert table.coefficient(m).to_integer() == expected
            assert expected == (1 if m == (3, 1) else 0)

    def test_arity_three_expansion_matches_recursion(self):
        # p = 2, K = 2: every one of the 64 coefficients against nested differences
        rng = random.Random(303)
        for _ in range(4):
            expr = random_total_expr(rng, 3, 2)
            F = as_point_function(FuncDef(arity=3, body=expr))
            table = vdp_expand_multi(F, 2, 3, 2, 6)
            for m in table.indices():
                assert table.coefficient(m) == vdp_coeff_multi_rec(F, m, 2, 6)

    def test_each_coefficient_keeps_the_least_precision_of_its_corners(self):
        # an evaluator whose precision varies by point: the residue passes must
        # track each entry's precision, as PadicInt subtraction does
        p, n = 3, 6

        def F(pt):
            a, b = (c.residue for c in pt.coords)
            return from_integer(a * a + 5 * b, p, n - (a + 2 * b) % 4)

        table = vdp_expand_multi(F, 2, 2, p, n)
        assert len({c.precision for c in table.coeffs}) > 1
        for m in table.indices():
            assert table.coefficient(m) == vdp_coeff_multi_ie(F, m, p, n)

    def test_evaluator_at_another_prime_is_refused(self):
        with pytest.raises(ValueError, match="prime"):
            vdp_expand_multi(lambda pt: from_integer(1, 5, pt.precision), 1, 2, 3, 4)

    def test_a_coefficient_index_of_another_arity_or_out_of_range_is_refused(self):
        table = vdp_expand_multi(dsl_fn("x1 + x2", 2), 2, 2, 3, 5)
        with pytest.raises(ValueError, match="multi-index arity 1, table arity 2"):
            table.coefficient((4,))
        with pytest.raises(ValueError, match=r"index entry 9 outside \[0, 9\)"):
            table.coefficient((0, 9))

    def test_eval_needs_precision(self):
        table = vdp_expand_multi(dsl_fn("x1 + x2", 2), 2, 2, 3, 5)
        from padicvdp.core import PrecisionExhaustedError

        with pytest.raises(PrecisionExhaustedError):
            vdp_eval_multi(table, PadicPoint.from_integers((1, 1), 3, 1))


@st.composite
def tables_and_points(draw):
    """A table over a grid of at most 1,000 entries, each with its own precision, and a point."""
    arity = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    level = draw(st.integers(1, max(k for k in (1, 2, 3) if p ** (k * arity) <= 1000)))
    n, rng = draw(st.integers(1, 6)), random.Random(draw(st.integers(0, 2**32)))
    coeffs = tuple(from_integer(rng.randrange(p**n), p, rng.randint(1, n))
                   for _ in range(p ** (level * arity)))
    precision = draw(st.integers(1, 6))
    x = tuple(draw(st.integers(0, p**precision - 1)) for _ in range(arity))
    return VdpTable(prime=p, level=level, coeffs=coeffs, arity=arity), x, precision


class TestGridLookup:
    @settings(max_examples=300, deadline=None)
    @given(tables_and_points())
    def test_lookup_is_the_sum_over_initial_parts(self, case):
        table, x, precision = case
        point = PadicPoint.from_integers(x, table.prime, precision)
        if precision < table.level:
            with pytest.raises(PrecisionExhaustedError, match=f"needs {table.level} digits"):
                table(point)
            return
        positions = initial_part_positions_int(x, table.prime, table.level)
        chain = [table.coeffs[pos] for pos in positions]
        known = min(c.precision for c in chain)
        got = table(point)
        assert got.precision == known
        assert got.residue == sum(c.residue for c in chain) % table.prime**known
        if table.arity == 1:  # the table is called on one value as well
            assert table(point.coords[0]) == got

    def test_the_grid_is_built_once_per_table(self, monkeypatch):
        calls = []
        yates = vdp._yates
        monkeypatch.setattr(vdp, "_yates", lambda *args: calls.append(1) or yates(*args))
        rng = random.Random(5)
        p, level = 3, 2
        coeffs = tuple(from_integer(rng.randrange(3**4), p, 4) for _ in range(p ** (2 * level)))
        table = VdpTable(prime=p, level=level, coeffs=coeffs, arity=2)
        for _ in range(1000):
            table(PadicPoint.from_integers((rng.randrange(81), rng.randrange(81)), p, 4))
        assert len(calls) == 1


class TestWeightedBound:
    def test_separable_function_with_matching_weight(self):
        F = dsl_fn("divp(x1 - x1^7, 1) + x2", 2)
        table = vdp_expand_multi(F, 2, 2, 7, 8)
        assert weighted_lip_bound_check(table, (1, 0)).holds
        verdict = weighted_lip_bound_check(table, (0, 0))
        assert not verdict.holds
        assert verdict.violation == (7, 0)

    def test_unit_coefficient_at_p_zero_violates(self):
        coeffs = [from_integer(0, 3, 4) for _ in range(81)]
        table = VdpTable(prime=3, arity=2, level=2, coeffs=tuple(coeffs))
        coeffs[table.flat_index((3, 0))] = from_integer(1, 3, 4)
        table = VdpTable(prime=3, arity=2, level=2, coeffs=tuple(coeffs))
        verdict = weighted_lip_bound_check(table, (0, 0))
        assert not verdict.holds and verdict.violation == (3, 0)

    def test_small_indices_never_violate(self):
        # entries with I(m) empty are plain values, bound is vacuous
        coeffs = [from_integer(1, 3, 4) for _ in range(9)]
        table = VdpTable(prime=3, arity=2, level=1, coeffs=tuple(coeffs))
        assert weighted_lip_bound_check(table, (0, 0)).holds

    def test_empty_index_set_is_not_shifted(self):
        # at n >= 2 an index with every entry below p keeps its plain value,
        # whatever the weight (at n = 1 it would be scaled up by p^alpha)
        table = vdp_expand_multi(dsl_fn("x1 + 2 * x2 + 1", 2), 2, 2, 3, 5)
        normalized = normalize_weighted(table, (1, 2))
        for m in product(range(3), repeat=2):
            assert normalized.normalized[table.flat_index(m)] == table.coefficient(m)
        # (0, 3): I(m) = {2}, shift floor(log_3 3) - 2 = -1 multiplies by 3
        a = normalized.normalized[table.flat_index((0, 3))]
        assert a.to_integer() == 3 * table.coefficient((0, 3)).to_integer()

    def test_normalize_round_trip(self):
        F = dsl_fn("divp(x1 - x1^7, 1) + x2", 2)
        table = vdp_expand_multi(F, 2, 2, 7, 8)
        assert normalize_weighted(table, (1, 0)).coeffs == table.coeffs

    def test_stored_keyed_normalized_entries_are_checked(self):
        table = normalize_weighted(vdp_expand_multi(dsl_fn("x1 + 2 * x2", 2), 2, 2, 3, 5), (0, 1))
        data = table.to_json()
        assert VdpTable.from_json(data).to_json() == data
        data["a"]["(1,4)"] = [1, 0, 0, 0, 0]
        with pytest.raises(ValueError, match="field a does not match"):
            VdpTable.from_json(data)


class TestProjection:
    def test_freezing_one_coordinate(self):
        F = dsl_fn("x1 + x2", 2)
        c = from_integer(4, 3, 5)
        proj = projection(F, 1, (c,))
        z = from_integer(7, 3, 5)
        assert proj(z).to_integer() == 11

    def test_projection_inherits_coordinate_class(self):
        # weighted (1, 0) function: first projection is in the alpha = 1 class,
        # second projection in the alpha = 0 class
        F = dsl_fn("divp(x1 - x1^7, 1) + x2", 2)
        fixed = (from_integer(9, 7, 8),)
        table1 = vdp_expand_uni(projection(F, 1, fixed), 2, 7, 8)
        assert lip_alpha_check_uni(table1, 1).holds
        assert not lip_alpha_check_uni(table1, 0).holds
        table2 = vdp_expand_uni(projection(F, 2, fixed), 2, 7, 8)
        assert lip_alpha_check_uni(table2, 0).holds

    def test_coordinate_out_of_range(self):
        F = dsl_fn("x1 + x2", 2)
        with pytest.raises(ValueError):
            projection(F, 3, (from_integer(0, 3, 4),))


class TestSampledWeighted:
    def test_weighted_function_passes_its_weight(self):
        F = dsl_fn("divp(x1 - x1^7, 1) + x2", 2)
        report = sampled_weighted_lip_check(F, (1, 0), 400, 2, 7, 8, seed=2)
        assert report.ok

    def test_weighted_function_fails_smaller_weight(self):
        F = dsl_fn("divp(x1 - x1^7, 1) + x2", 2)
        report = sampled_weighted_lip_check(F, (0, 0), 400, 2, 7, 8, seed=2)
        assert not report.ok
        x, y = report.first_violation
        assert (x[0] - y[0]) % 7 == 0  # the violating pair is close in x

    def test_constant_never_violates(self):
        report = sampled_weighted_lip_check(dsl_fn("3", 2), (0, 0), 200, 2, 3, 6)
        assert report.ok

    def test_violation_matches_projection_violation(self):
        # a weighted violation comes with a violating projection, and a
        # function whose projections all pass also passes pair sampling
        good = dsl_fn("x1 + x2", 2)
        assert sampled_weighted_lip_check(good, (0, 0), 300, 2, 7, 6, seed=3).ok
        for c in (0, 9, 30):
            fixed = (from_integer(c, 7, 6),)
            table = vdp_expand_uni(projection(good, 1, fixed), 2, 7, 6)
            assert lip_alpha_check_uni(table, 0).holds

        bad = dsl_fn("divp(x1 - x1^7, 1) + x2", 2)
        assert not sampled_weighted_lip_check(bad, (0, 0), 400, 2, 7, 8, seed=3).ok
        fixed = (from_integer(9, 7, 8),)
        table = vdp_expand_uni(projection(bad, 1, fixed), 2, 7, 8)
        assert not lip_alpha_check_uni(table, 0).holds


class TestSupNorm:
    def test_matches_grid_sup(self):
        rng = random.Random(11)
        p, level = 3, 2
        for _ in range(6):
            F = as_point_function(FuncDef(arity=2, body=random_total_expr(rng, 2, p)))
            table = vdp_expand_multi(F, level, 2, p, 6)
            cap = table.precision
            table_min = min(
                val_mod(c.to_integer(), p, cap) for c in table.coeffs
            )
            grid_min = min(
                val_mod(
                    F(PadicPoint.from_integers(m, p, 6)).to_integer(), p, cap
                )
                for m in table.indices()
            )
            assert table_min == grid_min
            got = table.sup_norm_ord()
            assert (cap if got is None or got > cap else got) == table_min


class TestTableJson:
    def test_round_trip_with_multi_index_keys(self):
        F = dsl_fn("x1 * x2 + 2", 2)
        table = vdp_expand_multi(F, 1, 2, 3, 5)
        data = table.to_json()
        assert data["p"] == 3 and data["n"] == 2 and data["K"] == 1
        assert "(0,0)" in data["A"] and "(2,2)" in data["A"]
        assert VdpTable.from_json(data) == table

    def test_missing_entry_rejected(self):
        F = dsl_fn("x1 + x2", 2)
        data = vdp_expand_multi(F, 1, 2, 3, 5).to_json()
        del data["A"]["(0,0)"]
        with pytest.raises(ValueError):
            VdpTable.from_json(data)


# (arity, p, level) with at most 81 grid points, so that all pairs stay cheap
GRID_SHAPES = [(n, p, k) for n in (1, 2, 3) for p in (2, 3) for k in (1, 2) if p ** (k * n) <= 81]


def _floor_log(v, p):
    k = 0
    while v >= p ** (k + 1):
        k += 1
    return k


@st.composite
def grid_tables(draw):
    """A table built to meet the bound for a weight, optionally with one unit planted."""
    arity, p, level = draw(st.sampled_from(GRID_SHAPES))
    alpha = tuple(draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=arity, max_size=arity)))
    modulus = p ** (level + 1)
    coeffs, bounded = [], []
    for pos, m in enumerate(product(range(p**level), repeat=arity)):
        need = max([_floor_log(v, p) - a for v, a in zip(m, alpha) if v >= p], default=0)
        coeffs.append(draw(st.integers(0, modulus - 1)) * p ** max(need, 0) % modulus)
        if need > 0:
            bounded.append(pos)
    if bounded and draw(st.booleans()):
        # a unit has order 0, below the positive order required there
        coeffs[draw(st.sampled_from(bounded))] = draw(st.integers(1, p - 1))
    return arity, p, level, alpha, coeffs


@settings(max_examples=300, deadline=None)
@given(grid_tables())
def test_bound_is_exact_on_the_grid(case):
    # the coefficient bound holds exactly when every pair of grid points
    # satisfies the weighted inequality (see weighted_lip_bound_check)
    arity, p, level, alpha, coeffs = case
    values = tuple(from_integer(c, p, level + 1) for c in coeffs)
    table = VdpTable(prime=p, level=level, coeffs=values, arity=arity)
    expected = pairwise_lipschitz_int(coeffs, p, level, alpha)
    assert weighted_lip_bound_check(table, alpha).holds == expected
