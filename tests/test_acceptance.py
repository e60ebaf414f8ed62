"""End-to-end acceptance checks, one test per criterion.

Every check is exact arithmetic (digit equality or integer equality);
sampled checks are seeded. Each test prints one PASS/FAIL line, visible
with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import random
import time
from contextlib import contextmanager
from itertools import permutations, product

from padicvdp.cli import main
from padicvdp.core import PadicPoint, digit_length, from_integer
from padicvdp.dsl import (
    FuncDef,
    as_point_function,
    as_univariate,
    divp_budget,
    parse,
    well_defined_check,
)
from padicvdp.hensel import (
    STATUS_CONDITION_FAILED,
    STATUS_LIFTED,
    brute_force_roots_multi,
    hensel_lift_multi,
    hensel_lift_uni,
    roots_mod_uni,
)
from padicvdp.vdp import (
    VdpTable,
    bound_log,
    lip_alpha_check_uni,
    sampled_weighted_lip_check,
    vdp_eval_uni,
    vdp_expand_multi,
    vdp_expand_uni,
    weighted_lip_bound_check,
)

from support import (
    FERMAT_DIFF_TEXT,
    QUINTIC_TEXT,
    index_set,
    initial_parts_int,
    quintic_int,
    random_total_expr,
    table_eval_int,
    val_mod,
    vdp_coeff_multi_ie,
    vdp_coeff_multi_rec,
)


@contextmanager
def criterion(num, description, limit_seconds=None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {num} took {elapsed:.2f}s, limit {limit_seconds}s"
        )
    print(f"ACCEPTANCE {num:02d} PASS: {description} ({elapsed:.2f}s)")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_c01_quintic_end_to_end(capsys):
    with criterion(1, "digit-map root found at level 1 and lifted to 10 digits", 1.0):
        code, payload = run_cli(
            capsys, "roots", "--prime", "7", "--expr", QUINTIC_TEXT, "--level", "1",
        )
        assert code == 0
        assert payload["result"]["residues"] == [5]

        code, payload = run_cli(
            capsys, "lift", "--prime", "7", "--expr", QUINTIC_TEXT,
            "--start", "5", "--l0", "1", "--alpha", "0", "--target-precision", "10",
        )
        assert code == 0
        result = payload["result"]
        assert result["status"] == STATUS_LIFTED
        assert result["replay_verified"]
        digits = result["root"]["coords"][0]["digits"]
        root = sum(d * 7**i for i, d in enumerate(digits))
        assert quintic_int(root, 10) == 0  # independent integer replay
        assert root % 7 == 5


def test_c02_exact_division_function_certification():
    with criterion(2, "(x - x^7)/7 total over 10^4 samples, in class 1 not 0 at K=3", 5.0):
        f = FuncDef(arity=1, body=parse(FERMAT_DIFF_TEXT, 1))
        report = well_defined_check(f, 1, 7, 9, 10_000, seed=0)
        assert report.violations == 0

        table = vdp_expand_uni(f, 3, 7, 9)
        assert table.size == 343
        assert lip_alpha_check_uni(table, 1).holds
        verdict = lip_alpha_check_uni(table, 0)
        assert not verdict.holds and verdict.violation is not None


def test_c03_univariate_reconstruction():
    with criterion(3, "series rebuilds 20 random functions on the level-3 grid", 30.0):
        level = 3
        for p in (2, 3, 5, 7):
            rng = random.Random(1000 + p)
            for _ in range(20):
                expr = random_total_expr(rng, 1, p)
                work = level + 3 + divp_budget(expr)
                f = as_univariate(FuncDef(arity=1, body=expr))
                table = vdp_expand_uni(f, level, p, work)
                for m in range(p**level):
                    got = vdp_eval_uni(table, from_integer(m, p, work))
                    want = f(from_integer(m, p, work))
                    overlap = min(got.precision, want.precision)
                    assert got.digits[:overlap] == want.digits[:overlap]
                    assert overlap >= level


def test_c04_multivariate_coefficient_equivalence():
    with criterion(4, "closed form, recursion, and all stripping orders agree", 60.0):
        level = 2
        for arity, p, functions in ((2, 2, 6), (2, 3, 6), (3, 2, 6), (3, 3, 3)):
            rng = random.Random(100 * arity + p)
            for _ in range(functions):
                expr = random_total_expr(rng, arity, p)
                work = level + 2 + divp_budget(expr)
                F = as_point_function(FuncDef(arity=arity, body=expr))
                side = p**level
                for m in product(range(side), repeat=arity):
                    reference = vdp_coeff_multi_ie(F, m, p, work)
                    for order in permutations(index_set(m, p)):
                        got = vdp_coeff_multi_rec(F, m, p, work, order=order)
                        assert got == reference


def test_c05_sup_norm_identity():
    with criterion(5, "table sup norm equals grid sup norm for 20 random functions"):
        p, level = 3, 2
        rng = random.Random(55)
        for _ in range(20):
            expr = random_total_expr(rng, 2, p)
            work = level + 3 + divp_budget(expr)
            F = as_point_function(FuncDef(arity=2, body=expr))
            table = vdp_expand_multi(F, level, 2, p, work)
            cap = table.precision
            table_min = min(val_mod(c.to_integer(), p, cap) for c in table.coeffs)
            grid_min = min(
                val_mod(F(PadicPoint.from_integers(m, p, work)).to_integer(), p, cap)
                for m in table.indices()
            )
            assert table_min == grid_min


def test_c06_lipschitz_criterion_biconditional():
    with criterion(6, "coefficient bound verdict matches pairwise brute force"):
        level, n = 3, 6
        for p in (2, 3):
            rng = random.Random(20 + p)
            for alpha in (0, 1, 2):
                for case in range(8):
                    coeffs = []
                    for m in range(p**level):
                        value = rng.randrange(p**n)
                        if case % 2:  # half the tables satisfy the bound
                            required = max(0, bound_log(m, p) - alpha)
                            value = (value * p**required) % p**n
                        coeffs.append(from_integer(value, p, n))
                    table = VdpTable(prime=p, level=level, coeffs=tuple(coeffs))
                    ints = [c.to_integer() for c in table.coeffs]
                    pairwise = True
                    for x in range(p**level):
                        fx = table_eval_int(ints, p, level, x)
                        for y in range(p**level):
                            if x == y:
                                continue
                            required = val_mod(x - y, p, n) - alpha
                            if required <= 0:
                                continue
                            fy = table_eval_int(ints, p, level, y)
                            if val_mod(fx - fy, p, n) < required:
                                pairwise = False
                                break
                        if not pairwise:
                            break
                    assert lip_alpha_check_uni(table, alpha).holds == pairwise


def test_c07_weighted_necessary_bound():
    with criterion(7, "weighted bound holds at (1,0) and is violated at (0,0)"):
        expr = parse(f"({FERMAT_DIFF_TEXT}) + x2", 2)
        work = 8 + divp_budget(expr)
        F = as_point_function(FuncDef(arity=2, body=expr))
        table = vdp_expand_multi(F, 2, 2, 7, work)
        assert weighted_lip_bound_check(table, (1, 0)).holds
        report = sampled_weighted_lip_check(F, (1, 0), 10_000, 2, 7, work, seed=7)
        assert report.violations == 0
        verdict = weighted_lip_bound_check(table, (0, 0))
        assert not verdict.holds and verdict.violation is not None


def test_c08_multivariate_lift():
    with criterion(8, "separable two-variable lift to 8 digits with oracle check", 5.0):
        expr = parse(f"({QUINTIC_TEXT}) + 7 * x2", 2)
        F = as_point_function(FuncDef(arity=2, body=expr))
        trace = hensel_lift_multi(F, (0, 0), (5, 0), 1, 8, 7, coordinate=1)
        assert trace.status == STATUS_LIFTED
        zeta = tuple(c.residue for c in trace.root.coords)
        assert (quintic_int(zeta[0], 8) + 7 * zeta[1]) % 7**8 == 0
        reduced = tuple(z % 7**2 for z in zeta)
        assert reduced in brute_force_roots_multi(F, 2, (0, 0), 2, 7)


def test_c09_negative_control():
    with criterion(9, "2-adic square root of 1 fails the lifting condition"):
        f = as_univariate(FuncDef(arity=1, body=parse("x1^2 - 1", 1)))
        trace = hensel_lift_uni(f, 0, 1, 1, 8, 2)
        assert trace.status == STATUS_CONDITION_FAILED
        assert roots_mod_uni(f, 0, 3, 2) == [1, 3, 5, 7]


def test_c10_core_arithmetic_exhaustives():
    with criterion(10, "ring ops, ultrametric, and initial-part equivalences", 30.0):
        # ring operations against plain integers mod 27, all operand pairs
        p, n = 3, 3
        values = [from_integer(v, p, n) for v in range(p**n)]
        for a in range(p**n):
            for b in range(p**n):
                assert (values[a] + values[b]).to_integer() == (a + b) % p**n
                assert (values[a] - values[b]).to_integer() == (a - b) % p**n
                assert (values[a] * values[b]).to_integer() == (a * b) % p**n

        # ultrametric inequality on 10^4 random pairs per prime
        for prime in (2, 3, 5, 7):
            rng = random.Random(prime)
            modulus = prime**6
            for _ in range(10_000):
                x = from_integer(rng.randrange(modulus), prime, 6)
                y = from_integer(rng.randrange(modulus), prime, 6)
                bound = max(x.norm(), y.norm())
                got = (x + y).norm()
                assert got <= bound
                if x.norm() != y.norm():
                    assert got == bound

        # initial part is exactly ball membership, exhaustively below p^4: the table
        # oracles read a point's basis indicators off this listing
        for prime in (2, 3, 5):
            grid = prime**4
            parts = [set(initial_parts_int(x, prime, 4)) for x in range(grid)]
            for m in range(grid):
                window = prime ** digit_length(m, prime)
                for x in range(grid):
                    assert (m in parts[x]) == (x % window == m)
