"""Derivative-free root finding on Z_p and Z_p^n.

Lifting extends a root of F modulo a power of p one digit at a time. At
level l the candidate digits r = 1 .. p-1 produce normalized differences

    c_r = (F(z + r p^l e_j) - F(z)) / p^l  mod p

along the chosen coordinate j. When {c_1, ..., c_{p-1}} is exactly
{1, ..., p-1}, any residual digit of F(z) at position l can be cancelled
by a unique r, so the root extends; the digit 0 is taken when the residual
already vanishes. The completeness of that set is the lifting hypothesis,
and it is verified at every level along the constructed path (path
verification, not a proof of the hypothesis for all congruent indices).

A run returns an audited LiftTrace: per-level residual digit, condition
set, chosen digit, plus the replayed final root. Statuses:

    lifted                the root was extended to the target precision
                          and replay confirms F(root) = 0 mod p^N
    condition-failed      some level's condition set is not all of
                          {1, ..., p-1} (no coordinate qualifies, in the
                          multivariate auto mode)
    residual-nonliftable  F was not 0 to the order the level requires,
                          which can happen at the entry level when the
                          coordinate weights differ

Brute-force residue enumeration is provided as the independent oracle.
"""
from __future__ import annotations

from itertools import islice, product
from typing import Callable, Sequence

from .core import (
    COLUMN_CHUNK,
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    InexactDivisionError,
    PadicError,
    PadicPoint,
    SampledReport,
    Value,
    _order,
    failed_check,
    on_columns,
    power_within,
    sampled_scan,
    vanishes_to,
    weight,
)
from .vdp import PointEvaluator, UniEvaluator, _shape, as_point_evaluator

__all__ = [
    "PreconditionError",
    "STATUS_LIFTED",
    "STATUS_CONDITION_FAILED",
    "STATUS_RESIDUAL_NONLIFTABLE",
    "LiftLevel",
    "LiftTrace",
    "hensel_lift_uni",
    "hensel_lift_multi",
    "roots_mod_uni",
    "well_defined_residue_check",
    "brute_force_roots_multi",
]

STATUS_LIFTED = "lifted"
STATUS_CONDITION_FAILED = "condition-failed"
STATUS_RESIDUAL_NONLIFTABLE = "residual-nonliftable"

# how an undecided check at a lifting level is named, formatted only on error
_LEVEL_SITE = "F at lifting level {}".format
_CONDITION_SITE = "the condition set at level {}".format


class PreconditionError(PadicError):
    """The inputs violate a stated precondition of the operation."""


class LiftLevel(Value):
    """One level of a lifting run.

    condition_values[r-1] is the normalized difference for digit r, or
    None when the difference is not divisible by p^level (possible for
    positive weights, and itself a condition failure).
    """

    __slots__ = __match_args__ = ("level", "coordinate", "residual_digit", "chosen_digit",
                                  "condition_values", "condition_complete")

    def to_json(self) -> dict:
        return {**self._asdict(), "condition_values": list(self.condition_values)}


class LiftTrace(Value):
    """Audited record of a lifting run; immutable, replay already verified."""

    __slots__ = __match_args__ = ("status", "prime", "arity", "alpha", "start", "l0",
                                  "target_precision", "levels", "root", "failed_level",
                                  "auto_coordinate")

    @property
    def start_modulus_exponents(self) -> tuple[int, ...]:
        return tuple(self.l0 + a for a in self.alpha)

    @property
    def lifted(self) -> bool:
        return self.status == STATUS_LIFTED

    def to_json(self) -> dict:
        return {
            **self._asdict(), "alpha": list(self.alpha), "start": list(self.start),
            "start_modulus_exponents": list(self.start_modulus_exponents),
            "levels": [lv.to_json() for lv in self.levels],
            "root": None if self.root is None else self.root.to_json(),
        }


def _level_digit(residue: int, known: int, level: int, p: int, describe, step: int) -> int | None:
    """Digit `level` of a value that vanishes below it, else None; undecided raises.

    step is p^level, formed once per level by the caller.
    """
    if known <= level:  # no digit below the level is nonzero, or the known ones cannot tell
        if vanishes_to(residue, known, level, p, describe, level):
            vanishes_to(residue, known, level + 1, p, describe, level)  # raises
        return None
    low = residue % (step * p)
    return None if low % step else low // step


def _in_order(F: Callable, strict: Callable, points: list[tuple]):
    """F's (residue, precision) at each point, in order, all points asked of F at once.

    F treats every error as undefined: a point where it fails is evaluated
    again alone by `strict` when reached, so it raises its own error after the
    points before it are checked, as in a loop over the points.
    """
    residues, precisions = F(points)
    for xs, r, n in zip(points, residues, precisions):
        if r is None:
            (r,), (n,) = strict([xs])
        yield r, n


def _condition_complete(values: tuple[int | None, ...], prime: int) -> bool:
    if any(v is None for v in values):
        return False
    return sorted(values) == list(range(1, prime))  # type: ignore[type-var]


def hensel_lift_multi(
    F: PointEvaluator,
    alpha: Sequence[int],
    start: Sequence[int],
    l0: int,
    target_precision: int,
    prime: int,
    coordinate: int | None = None,
    eval_precision: int | None = None,
) -> LiftTrace:
    """Lift a residue root of F: Z_p^n -> Z_p along one coordinate per level.

    Requires 0 <= start_k < p^(l0 + alpha_k) for every k and
    F(start) = 0 mod p^(l0 + min(alpha)). Levels run from l0 + max(alpha);
    with `coordinate` fixed the condition set is checked there, with
    coordinate=None each level searches j = 1 .. n for a qualifying one
    and records the choice. F is evaluated at eval_precision digits, by
    default enough for both the target and the start's l0 + max(alpha).
    """
    start = tuple(start)
    arity = len(start)
    alpha = weight(alpha, arity)
    auto = coordinate is None
    if l0 < 1:
        raise PreconditionError(f"l0 must be a positive integer, got {l0}")
    if target_precision < 1:
        raise PreconditionError(f"target precision must be >= 1, got {target_precision}")
    if not auto and not 1 <= coordinate <= arity:
        raise PreconditionError(f"coordinate {coordinate} out of range for arity {arity}")
    for k, (z, a) in enumerate(zip(start, alpha), start=1):
        if not 0 <= z < prime ** (l0 + a):
            raise PreconditionError(
                f"start coordinate {k} must lie in [0, p^{l0 + a}), got {z}"
            )
    W = eval_precision if eval_precision is not None else max(target_precision, l0 + max(alpha))
    if W < target_precision:
        raise PreconditionError(
            f"evaluation precision {W} below target precision {target_precision}"
        )

    F, strict = (on_columns(F, prime, W, arity, undefined) for undefined in ((Exception,), ()))

    def value(xs) -> tuple[int, int]:  # one point's residue and precision
        (residue,), (known,) = strict([tuple(xs)])
        return residue, known

    if not vanishes_to(*value(start), l0 + min(alpha), prime, "F at start {}".format, start):
        raise PreconditionError(
            f"F(start) is not 0 mod p^{l0 + min(alpha)}; start={list(start)}"
        )

    def make_trace(status, levels, root, failed_level):
        return LiftTrace(status, prime, arity, alpha, start, l0, target_precision,
                         tuple(levels), root, failed_level, auto)

    current = list(start)
    levels: list[LiftLevel] = []
    for level in range(l0 + max(alpha), target_precision):
        base, known = value(current)
        step = prime**level
        t_bar = _level_digit(base, known, level, prime, _LEVEL_SITE, step)
        if t_bar is None:
            # entry-level gap: F vanishes to the precondition order only
            return make_trace(STATUS_RESIDUAL_NONLIFTABLE, levels, None, level)

        chosen: tuple[int, tuple[int | None, ...]] | None = None
        first_attempt: tuple[int, tuple[int | None, ...]] | None = None
        for coord in [coordinate] if not auto else range(1, arity + 1):
            # c_r for r = 1 .. p-1: the p - 1 shifted points go as one column
            shifted = [tuple(z + r * step if k == coord else z for k, z in enumerate(current, 1))
                       for r in range(1, prime)]
            values = tuple(
                _level_digit(r - base, min(n, known), level, prime, _CONDITION_SITE, step)
                for r, n in _in_order(F, strict, shifted))
            if first_attempt is None:
                first_attempt = (coord, values)
            if _condition_complete(values, prime):
                chosen = (coord, values)
                break
        if chosen is None:
            coord, values = first_attempt  # type: ignore[misc]
            levels.append(LiftLevel(level, coord, t_bar, None, values, False))
            return make_trace(STATUS_CONDITION_FAILED, levels, None, level)

        coord, values = chosen
        digit = 1 + values.index(prime - t_bar) if t_bar else 0
        levels.append(LiftLevel(level, coord, t_bar, digit, values, True))
        if digit:
            current[coord - 1] += digit * step

    root = PadicPoint.from_integers(current, prime, target_precision)
    final, known = value(current)
    if not vanishes_to(final, known, target_precision, prime, "F at the lifted root {}".format,
                       current):
        # reachable only when the loop was empty yet the target exceeds
        # the verified start modulus
        return make_trace(STATUS_RESIDUAL_NONLIFTABLE, levels, None, _order(final, prime))
    for k, (z, a) in enumerate(zip(start, alpha)):
        if current[k] % prime ** (l0 + a) != z % prime ** (l0 + a):
            raise PadicError("internal: lifted root lost the start congruence")
    return make_trace(STATUS_LIFTED, levels, root, None)


def hensel_lift_uni(
    f: UniEvaluator,
    alpha: int,
    start: int,
    l0: int,
    target_precision: int,
    prime: int,
    eval_precision: int | None = None,
) -> LiftTrace:
    """Lift a residue root of a one-variable function digit by digit.

    Requires 0 <= start < p^(l0 + alpha) and f(start) = 0 mod p^(l0 + alpha).
    The returned trace is replay-verified: status "lifted" means the root
    satisfies f = 0 mod p^target_precision and is congruent to start.
    """
    return hensel_lift_multi(
        as_point_evaluator(f), (alpha,), (start,), l0, target_precision, prime,
        coordinate=1, eval_precision=eval_precision,
    )


def roots_mod_uni(
    f: UniEvaluator,
    alpha: int,
    k: int,
    prime: int,
    eval_precision: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[int]:
    """All residues x < p^k with f(x) = 0 mod p^(k - alpha), by enumeration."""
    roots = brute_force_roots_multi(
        as_point_evaluator(f), k, (alpha,), 1, prime, eval_precision, budget
    )
    return [x for (x,) in roots]


def well_defined_residue_check(
    F: PointEvaluator, k: int, alpha: Sequence[int], arity: int, prime: int, samples: int,
    seed: int = 0, eval_precision: int | None = None,
) -> SampledReport:
    """Sampled lifts of residues: F(x + p^k t) must agree with F(x) mod p^(k - max(alpha)).

    That is the modulus at which `brute_force_roots_multi` tests roots at level k.
    A pair where F is undefined fails too. The first failing pair (x, y) is
    two integers at arity 1.
    """
    alpha = weight(alpha, arity)
    if k < 1 + max(alpha):
        raise PreconditionError(f"level k must be >= 1 + max(alpha), got k={k}, alpha={alpha}")
    W = eval_precision if eval_precision is not None else k + 2
    if W <= k:
        raise PreconditionError(f"evaluation precision {W} leaves no room above level {k}")
    F = on_columns(F, prime, W, arity, undefined=(InexactDivisionError,))
    step, lifts = prime**k, prime ** (W - k)

    def draw(rng):
        x = tuple(rng.randrange(step) for _ in range(arity))
        return x, tuple(xi + rng.randrange(1, lifts) * step for xi in x)

    def decide(pairs):  # F(y) - F(x), with F(x) not asked where F(y) is undefined
        ry, ny = F([y for _, y in pairs])
        rx, nx = F([x for (x, _), r in zip(pairs, ry) if r is not None])
        known, checks = iter(zip(rx, nx)), []
        for (x, y), a, n in zip(pairs, ry, ny):
            b, m = (None, None) if a is None else next(known)
            site = _shape(x), _shape(y)
            checks.append(failed_check(site) if b is None else
                          (site, (a - b) % prime ** min(n, m), min(n, m), k - max(alpha)))
        return checks

    return sampled_scan(draw, samples, seed, prime,
                        "deciding the residues of the pair {}".format, "failures",
                        decide=decide, prime=prime, level=k, alpha=_shape(alpha))


def brute_force_roots_multi(
    F: PointEvaluator,
    k: int,
    alpha: Sequence[int],
    arity: int,
    prime: int,
    eval_precision: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, ...]]:
    """All points x in [0, p^k)^n with F(x) = 0 mod p^(k - max(alpha))."""
    alpha = weight(alpha, arity)
    if k < 1 + max(alpha):
        raise PreconditionError(
            f"level k must be >= 1 + max(alpha), got k={k}, alpha={alpha}"
        )
    if power_within(prime, k * arity, budget) is None:
        raise EnumerationBudgetError(
            f"enumerating {prime}^{k * arity} grid points exceeds budget {budget}"
        )
    W = eval_precision if eval_precision is not None else k
    if W < k:
        raise PreconditionError(f"evaluation precision {W} below level {k}")
    F, strict = (on_columns(F, prime, W, arity, undefined) for undefined in ((Exception,), ()))
    order = k - max(alpha)
    describe = "the root test at {}".format
    points, roots = product(range(prime**k), repeat=arity), []
    while chunk := list(islice(points, COLUMN_CHUNK)):  # the first undecided point raises
        roots += [xs for xs, (r, n) in zip(chunk, _in_order(F, strict, chunk))
                  if vanishes_to(r, n, order, prime, describe, xs)]
    return roots
