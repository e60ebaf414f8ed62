"""Checks of every task's output against the integer model.

Each check returns a list of problems; an empty list means the task's
output is correct. The library's values are read through their digit
tuples only; every expected value is computed with plain ints by
`model.compile_int`.
"""
from __future__ import annotations

import random
from itertools import product

from model import (
    Exhausted,
    Inexact,
    compile_int,
    digits_value,
    strip_top,
    top_digit_pos,
    valuation,
)


def _int(x) -> int:
    return digits_value(x.digits, x.prime)


def _bound_log(m: int, p: int) -> int:
    return top_digit_pos(m, p) if m >= p else 0


def _required(m, alpha, p) -> int:
    """Order a coefficient must reach for the weighted bound (0: no bound)."""
    big = [i for i, v in enumerate(m) if v >= p]
    if not big:
        return 0
    return max(top_digit_pos(m[i], p) - alpha[i] for i in big)


# ---------------------------------------------------------------------------
# certify

def expected_table(task):
    """(coefficients in row-major order, their precision) by per-axis differences."""
    p, n = task.prime, task.arity
    f, prec = compile_int(task.node, p, task.work)
    side = p**task.level
    grid = [f(m) for m in product(range(side), repeat=n)]
    for axis in range(n):
        stride = side ** (n - 1 - axis)
        # descending order: the entry subtracted has not been changed in this pass
        for idx in range(len(grid) - 1, -1, -1):
            v = idx // stride % side
            if v >= p:
                grid[idx] -= grid[idx - (v - strip_top(v, p)) * stride]
    mod = p**prec
    return [c % mod for c in grid], prec


def _check_verdict(task, coeffs, prec, verdict, problems) -> None:
    p, n = task.prime, task.arity
    side = p**task.level
    alpha = task.alpha
    first_violation = None
    starved = None
    for idx, m in enumerate(product(range(side), repeat=n)):
        if n == 1:
            required = _bound_log(m[0], p) - alpha[0]
        else:
            required = _required(m, alpha, p)
        if required <= 0:
            continue
        v = valuation(coeffs[idx], p, prec)
        if v < min(required, prec):
            first_violation = m[0] if n == 1 else m
            break
        if v >= prec and required > prec and starved is None:
            starved = (m, required)
    got_violation = verdict.violation
    if n > 1 and got_violation is not None:
        got_violation = tuple(got_violation)
    if first_violation is not None:
        if verdict.holds or got_violation != first_violation:
            problems.append(
                f"verdict holds={verdict.holds} violation={got_violation}, "
                f"integer model finds violation at {first_violation}"
            )
    elif not verdict.holds:
        problems.append(f"verdict violated at {got_violation}, integer model finds none")
    elif starved is not None:
        m, required = starved
        problems.append(
            f"verdict holds, but index {m} needs {required} digits and the table has {prec}"
        )


def _check_normalized(task, coeffs, prec, normalized, problems) -> None:
    p, n = task.prime, task.arity
    side = p**task.level
    for idx, m in enumerate(product(range(side), repeat=n)):
        if n == 1:
            shift = _bound_log(m[0], p) - task.alpha[0]
        else:
            shift = _required(m, task.alpha, p)
        b = normalized[idx]
        if shift >= 0:
            want = coeffs[idx] // p**shift
        else:
            want = coeffs[idx] * p**-shift
        if _int(b) != want or b.precision != prec - shift:
            problems.append(f"normalized coefficient at {m} is wrong")
            return


def _check_pairs(task, f, prec, report, problems) -> None:
    p, n, alpha = task.prime, task.arity, task.alpha
    rng = random.Random(task.sample_seed)
    mod = p**task.work
    violations = 0
    first = None
    for _ in range(task.samples):
        if n == 1:
            a, b = (rng.randrange(mod),), (rng.randrange(mod),)
        else:
            a = tuple(rng.randrange(mod) for _ in range(n))
            b = tuple(rng.randrange(mod) for _ in range(n))
        orders = [
            valuation(x - y, p, task.work) - ai
            for x, y, ai in zip(a, b, alpha)
            if (x - y) % mod
        ]
        if not orders:
            continue
        required = min(orders)
        if required <= 0:
            continue
        if (f(a) - f(b)) % p ** min(required, prec):
            violations += 1
            if first is None:
                first = (a[0], b[0]) if n == 1 else (a, b)
    got_first = report.first_violation
    if report.samples != task.samples or report.violations != violations or got_first != first:
        problems.append(
            f"pair check found {report.violations} violations (first {got_first}), "
            f"integer model finds {violations} (first {first})"
        )


def check_certify(task, out) -> list[str]:
    problems: list[str] = []
    p = task.prime
    f, _ = compile_int(task.node, p, task.work)
    try:
        coeffs, prec = expected_table(task)
    except (Inexact, Exhausted) as exc:
        return [f"integer model cannot evaluate the function: {exc}"]
    table = out["table"]
    got = [(c.precision, _int(c)) for c in table.coeffs]
    if got != [(prec, c) for c in coeffs]:
        bad = next(i for i, (g, c) in enumerate(zip(got, coeffs)) if g != (prec, c))
        problems.append(f"table coefficient {bad} differs from f(m) - f(m*)")
    _check_verdict(task, coeffs, prec, out["verdict"], problems)
    if out["verdict"].holds:
        if out["normalized"] is None:
            problems.append("bound holds but no normalized table was made")
        else:
            _check_normalized(task, coeffs, prec, out["normalized"].normalized, problems)
    _check_pairs(task, f, prec, out["pairs"], problems)
    mod = p**prec
    for m, value in zip(task.recon_points, out["recon"]):
        point = (m,) if task.arity == 1 else m
        if value.precision != prec or _int(value) % mod != f(point) % mod:
            problems.append(f"reconstruction at {m} differs from f({m})")
    return problems


# ---------------------------------------------------------------------------
# lift

def check_lift(task, out) -> list[str]:
    problems: list[str] = []
    p, k, target = task.prime, task.root_level, task.target

    def point(x):
        return (x,) if task.arity == 1 else (x, task.fixed)

    f_low, _ = compile_int(task.node, p, k)
    want_roots = [x for x in range(p**k) if f_low(point(x)) % p**k == 0]
    if out["roots"] != want_roots:
        problems.append(f"residue roots {out['roots']}, integer model finds {want_roots}")
        return problems
    if len(out["traces"]) != len(want_roots):
        problems.append(f"{len(out['traces'])} lifts for {len(want_roots)} roots")
        return problems
    f, _ = compile_int(task.node, p, target)
    for start, trace in zip(want_roots, out["traces"]):
        where = f"lift from {start}"
        if trace.status != task.expect:
            problems.append(f"{where}: status {trace.status}, expected {task.expect}")
        if trace.status == "lifted":
            if trace.root is None or trace.root.precision != target:
                problems.append(f"{where}: lifted without a root at precision {target}")
                continue
            root = [_int(c) for c in trace.root.coords]
            if task.arity == 2 and root[1] != task.fixed:
                problems.append(f"{where}: the fixed coordinate moved")
            if f(tuple(root)) % p**target:
                problems.append(f"{where}: root does not replay to 0 mod p^{target}")
            if root[0] % p**k != start:
                problems.append(f"{where}: root lost the start congruence")
            if len(trace.levels) != target - k:
                problems.append(f"{where}: {len(trace.levels)} levels for {target - k}")
        elif trace.status == "condition-failed":
            problems.extend(_recheck_failed_level(task, f, start, trace, where))
    return problems


def _recheck_failed_level(task, f, start, trace, where) -> list[str]:
    """Recompute the failed level's residual digit and condition set."""
    p = task.prime
    x = start
    for lv in trace.levels[:-1]:
        x += lv.chosen_digit * p**lv.level
    failed = trace.levels[-1]
    level = failed.level
    if trace.failed_level != level or failed.chosen_digit is not None:
        return [f"{where}: failed level record is inconsistent"]

    def at(v):
        return f((v,) if task.arity == 1 else (v, task.fixed))

    base = at(x)
    mod = p**task.target
    if base % p**level:
        return [f"{where}: F does not vanish below failed level {level}"]
    values = []
    for r in range(1, p):
        d = (at(x + r * p**level) - base) % mod
        values.append(d // p**level % p if d % p**level == 0 else None)
    problems = []
    if tuple(values) != tuple(failed.condition_values):
        problems.append(
            f"{where}: condition set {failed.condition_values} at level {level}, "
            f"integer model gives {values}"
        )
    if failed.residual_digit != base // p**level % p:
        problems.append(f"{where}: residual digit at level {level} is wrong")
    if sorted(v for v in values if v is not None) == list(range(1, p)):
        problems.append(f"{where}: condition set at level {level} is complete")
    return problems


# ---------------------------------------------------------------------------
# cli

def check_cli(task, out, golden) -> list[str]:
    want = golden[task.key]
    code, stdout = out
    problems = []
    if code != want["exit"]:
        problems.append(f"exit code {code}, golden {want['exit']}")
    if stdout != want["stdout"].encode():
        problems.append(f"stdout differs from golden ({len(stdout)} bytes)")
    return problems
