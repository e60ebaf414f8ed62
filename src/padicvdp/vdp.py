"""Van der Put machinery on Z_p^n; one variable is the case n = 1.

Products E_m(x) = e_{m_1}(x_1) ... e_{m_n}(x_n) of the indicators e_k (is k
an initial part of x?) form an orthonormal basis of the continuous functions
on Z_p^n. The coefficient of E_m is an alternating sum of F over the corners
obtained by stripping top digits of the coordinates in I(m) = {i : m_i >= p};
at n = 1 it is B_m = f(m) - f(m*) for m >= p and plain f(m) below p. The
bound ord(A_m) >= max_{i in I(m)} (floor(log_p m_i) - alpha_i) over a level-K
table is equivalent to |F(x) - F(y)| <= max_i p^alpha_i |x_i - y_i| on the
level-K grid, for every n; at n = 1 it is Anashin's p^alpha-Lipschitz criterion.

Arity-1 results carry scalars where the general ones carry 1-tuples
(weights, violating indices, sampled witness points, the JSON format); the
`_uni` functions are the general code under arity-1 names, or convert and call it.
"""
from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, product, repeat
from operator import add, sub
from typing import Callable, Iterator, Sequence

from .core import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    Evaluator,
    PadicError,
    PadicInt,
    PadicPoint,
    PrecisionExhaustedError,
    SampledReport,
    Value,
    _digit_list,
    _from_residue,
    _json,
    _below,
    _order,
    _residue_of,
    _shifted,
    column_scan,
    floor_log_p,
    is_prime,
    on_columns,
    power_within,
    sampled_scan,
    weight,
)

__all__ = [
    "UniEvaluator",
    "PointEvaluator",
    "as_point_evaluator",
    "LipschitzBoundError",
    "bound_log",
    "VdpTable",
    "vdp_expand_uni",
    "vdp_expand_multi",
    "vdp_eval_uni",
    "vdp_eval_multi",
    "LipschitzVerdict",
    "lip_alpha_check_uni",
    "weighted_lip_bound_check",
    "normalize_alpha",
    "normalize_weighted",
    "projection",
    "sampled_lip_check_uni",
    "sampled_weighted_lip_check",
]

UniEvaluator = Callable[[PadicInt], PadicInt]
PointEvaluator = Callable[[PadicPoint], PadicInt]


class LipschitzBoundError(PadicError):
    """A coefficient table violates the bound required for normalization."""


def as_point_evaluator(f: UniEvaluator) -> PointEvaluator:
    """A one-variable evaluator as one on points of arity 1; an Evaluator already is both."""
    return f if isinstance(f, Evaluator) else lambda x: f(x.coords[0])


def _shape(values: tuple[int, ...]) -> int | tuple[int, ...]:
    """Public form of a weight or index: a 1-tuple becomes a scalar."""
    return values[0] if len(values) == 1 else values


def bound_log(m: int, p: int) -> int:
    """floor(log_p m) as used in coefficient bounds; 0 for all m < p."""
    return floor_log_p(m, p) if m >= p else 0


def _check_count(prime: int, exponent: int, count: int, what: str) -> None:
    """Raise unless count == prime^exponent."""
    if power_within(prime, exponent, count) != count:
        raise ValueError(f"{what} needs {prime}^{exponent} coefficients, got {count}")


def _key(m: tuple[int, ...]) -> str:
    return "(" + ",".join(str(v) for v in m) + ")"


def _entries(p: int, entries: list) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Residues and precisions of stored digit lists, each checked as a PadicInt's digits are."""
    residues = []
    for digits in entries:
        if not isinstance(digits, list):
            raise ValueError(f"coefficient entry must be a digit list, got {digits!r}")
        residues.append(_residue_of(digits, p))
    return tuple(residues), tuple(map(len, entries))


def _padic_ints(p: int, residues, known) -> tuple[PadicInt, ...]:
    return tuple(map(_from_residue, residues, repeat(p), known))


class VdpTable(Value, Evaluator):
    """Dense coefficient table over the grid [0, p^level)^arity, and the partial sum it defines.

    Coefficients are stored row-major: the flat index of m is the integer
    with base-p^level digits m_1 ... m_n, m_n least significant (at arity 1,
    m itself). A table built with alpha (an int at arity 1) checks the bound
    once, then derives `normalized` (else None): a_m = A_m / p^shift.
    The coefficients are kept as `residues`, each reduced mod p^its
    precision, and `known`, their precisions; `coeffs`, `coefficient(m)`
    and `normalized` make PadicInts when read.
    """

    __slots__ = ("prime", "level", "residues", "known", "arity", "alpha", "_normal")
    __match_args__ = ("prime", "level", "coeffs", "arity", "alpha")
    _defaults = (1, None)

    def __init__(self, prime: int, level: int, coeffs, arity: int = 1, alpha=None) -> None:
        """The table of these PadicInt coefficients, in storage order."""
        coeffs = tuple(coeffs)
        _check_count(prime, level * arity, len(coeffs), f"table at level {level} and arity {arity}")
        if any(c.prime != prime for c in coeffs):
            raise ValueError("coefficient prime does not match table prime")
        self._fill(prime, level, tuple(c.residue for c in coeffs),
                   tuple(c.precision for c in coeffs), arity, alpha)

    @classmethod
    def _of(cls, prime: int, level: int, residues: tuple[int, ...], known: tuple[int, ...],
            arity: int, alpha=None) -> VdpTable:
        """The table of coefficients given as residues, reduced mod p^known, and precisions."""
        _check_count(prime, level * arity, len(residues),
                     f"table at level {level} and arity {arity}")
        table = object.__new__(cls)
        table._fill(prime, level, residues, known, arity, alpha)
        return table

    def _fill(self, prime: int, level: int, residues: tuple[int, ...], known: tuple[int, ...],
              arity: int, alpha) -> None:
        alpha = None if alpha is None else _shape(weight(alpha, arity))
        fields = {"prime": prime, "level": level, "residues": residues, "known": known,
                  "arity": arity, "alpha": alpha, "_normal": None}
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if alpha is not None:
            shifts = _shifts(self, alpha)
            m = _first_violation(self, shifts)
            if m is not None:
                raise LipschitzBoundError(
                    f"coefficient bound violated at m={_shape(m)}, cannot normalize"
                )
            object.__setattr__(self, "_normal", _shifted(residues, known, shifts, prime))

    def _key(self) -> tuple:
        return self.prime, self.level, self.residues, self.known, self.arity, self.alpha

    @property
    def coeffs(self) -> tuple[PadicInt, ...]:
        return _padic_ints(self.prime, self.residues, self.known)

    @property
    def normalized(self) -> tuple[PadicInt, ...] | None:
        return None if self._normal is None else _padic_ints(self.prime, *self._normal)

    @property
    def side(self) -> int:
        return self.prime**self.level

    @property
    def size(self) -> int:
        return len(self.residues)

    @property
    def precision(self) -> int:
        return min(self.known)

    def flat_index(self, m: int | Sequence[int]) -> int:
        m = tuple(m) if isinstance(m, (tuple, list)) else (m,)
        if len(m) != self.arity:
            raise ValueError(f"multi-index arity {len(m)}, table arity {self.arity}")
        pos = 0
        for v in m:
            if not 0 <= v < self.side:
                raise ValueError(f"index entry {v} outside [0, {self.side})")
            pos = pos * self.side + v
        return pos

    def coefficient(self, m: int | Sequence[int]) -> PadicInt:
        i = self.flat_index(m)
        return _from_residue(self.residues[i], self.prime, self.known[i])

    def indices(self) -> Iterator[tuple[int, ...]]:
        """Every multi-index of the grid, in storage order."""
        return product(range(self.side), repeat=self.arity)

    def sup_norm_ord(self) -> int | None:
        """min_m ord(A_m), i.e. the sup norm as an exponent; None when all vanish.

        Equals the minimal order of F over the level grid (the partial sums
        telescope), so it reports the sup norm of the truncated function.
        """
        best = min(map(_order, self.residues, repeat(self.prime)))
        return None if best == math.inf else int(best)

    @cached_property
    def _grid(self) -> tuple[list[int], list[int]]:
        """Residues and precisions of the partial sums on the level grid, in storage order."""
        grid, known = list(self.residues), list(self.known)
        _yates(grid, known, self.prime, self.level, self.arity, +1)
        return grid, known

    def on_residues(self, p: int, n: int, arity: int) -> Callable[[tuple], PadicInt]:
        """The partial sum on residues mod p^n, n >= K: the grid value at x mod p^K."""
        if arity != self.arity:
            raise ValueError(f"point arity {arity}, table arity {self.arity}")
        if p != self.prime:
            raise ValueError(f"point prime {p} does not match table prime {self.prime}")
        if n < self.level:
            raise PrecisionExhaustedError(
                f"a table at level {self.level} needs {self.level} digits, known {n}")
        (grid, known), side = self._grid, self.side

        def value(xs: tuple) -> PadicInt:
            pos = self.flat_index([x % side for x in xs])
            return _from_residue(grid[pos], p, known[pos])

        return value

    def to_json(self) -> dict:
        """{p, K, N, B[, alpha, b]} with lists at arity 1, else {p, n, K, N, A[, alpha, a]}."""
        keyed = self.arity > 1

        def entries(residues: tuple[int, ...], known: tuple[int, ...]):
            digits = map(_digit_list, residues, repeat(self.prime), known)
            if keyed:
                return {_key(m): d for m, d in zip(self.indices(), digits)}
            return list(digits)

        out: dict = {"p": self.prime}
        if keyed:
            out["n"] = self.arity
        out.update(K=self.level, N=self.precision)
        out["A" if keyed else "B"] = entries(self.residues, self.known)
        if self.alpha is not None:
            out["alpha"] = _json(self.alpha)
            out["a" if keyed else "b"] = entries(*self._normal)
        return out

    @classmethod
    def from_json(cls, data: dict) -> VdpTable:
        """Read either format (an "n" key selects the keyed one), checking sizes first."""
        keyed = "n" in data
        p, level, precision, arity = data["p"], data["K"], data.get("N"), data["n"] if keyed else 1
        for name, value in (("p", p), ("K", level), ("N", precision), ("n", arity)):
            if type(value) is not int:
                raise ValueError(f"table field {name} must be an integer, got {value!r}")
        if p < 2 or level < 1 or arity < 1:
            raise ValueError(f"table needs p >= 2, K >= 1, n >= 1; got {p}, {level}, {arity}")

        def dense(name: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
            entries = data[name]
            if not isinstance(entries, dict if keyed else list):
                raise ValueError(f"table field {name} must be a {'mapping' if keyed else 'list'}")
            _check_count(p, level * arity, len(entries), f"table field {name}")
            if not is_prime(p):
                raise ValueError(f"table prime {p} is not prime")
            if keyed:
                grid = product(range(p**level), repeat=arity)
                entries = [entries.get(_key(m)) for m in grid]
            return _entries(p, entries)

        try:
            table = cls._of(p, level, *dense("A" if keyed else "B"), arity, data.get("alpha"))
        except LipschitzBoundError as exc:
            raise ValueError(f"stored table: {exc}") from exc
        if precision != table.precision:  # the least entry precision, as to_json writes it
            raise ValueError(f"table field N is {precision}, its entries know "
                             f"{table.precision} digits")
        name = "a" if keyed else "b"  # stored normalized entries must be the derived ones
        if table._normal is not None and dense(name) != table._normal:
            raise ValueError(f"table field {name} does not match the coefficients at alpha")
        return table


def _yates(grid: list[int], known: list[int], p: int, level: int, arity: int, sign: int) -> None:
    """Values on the level grid to coefficients (sign -1) or back (+1), in place.

    Per axis, g(m) += sign * g(m with m_i -> m_i*) for m_i >= p. With that axis outermost and
    (t p^j + r)* = r, each (j, t) is one slice operation against the block below p^j, which
    still holds values going down and partial sums going up. Each entry keeps the least
    precision it met; residues stay unreduced, as its final modulus divides every one it met.
    """
    rest = len(grid) // p**level  # entries per index of the outermost axis
    op = add if sign > 0 else sub
    for _ in range(arity):
        for j in range(1, level) if sign > 0 else range(level - 1, 0, -1):
            width = p**j * rest
            for t in range(1, p):
                block = slice(t * width, (t + 1) * width)
                grid[block] = map(op, grid[block], grid[:width])
                known[block] = map(min, known[block], known[:width])
        for g in grid, known:  # rotate: the next axis becomes the outermost
            g[:] = chain.from_iterable([g[r::rest] for r in range(rest)])


def vdp_expand_multi(
    F: PointEvaluator, level: int, arity: int, prime: int, precision: int,
    budget: int = DEFAULT_BUDGET,
) -> VdpTable:
    """All coefficients over [0, p^level)^arity, from p^(level * arity) evaluations."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if precision < level:
        raise PrecisionExhaustedError(
            f"expanding to level {level} needs precision >= {level}, got {precision}"
        )
    if power_within(prime, level * arity, budget) is None:
        raise EnumerationBudgetError(
            f"expansion needs {prime}^{level * arity} evaluations, budget is {budget}"
        )
    F = on_columns(F, prime, precision, arity)
    grid, known = F(product(range(prime**level), repeat=arity))  # F's residues and precisions
    _yates(grid, known, prime, level, arity, -1)
    residues = tuple(_below(grid, known, prime))  # each mod p^its precision
    table = VdpTable._of(prime, level, residues, tuple(known), arity)
    if table.precision < level:
        raise PrecisionExhaustedError(
            f"expansion to level {level} kept only {table.precision} digits"
        )
    return table


def vdp_expand_uni(
    f: UniEvaluator, level: int, prime: int, precision: int, budget: int = DEFAULT_BUDGET
) -> VdpTable:
    """All p^level coefficients of a one-variable function."""
    return vdp_expand_multi(as_point_evaluator(f), level, 1, prime, precision, budget)


def vdp_eval_multi(table: VdpTable, x: PadicPoint | PadicInt) -> PadicInt:
    """Partial sum at x, a point or one value at arity 1: sum of A_m over initial parts m."""
    return table(x)


class LipschitzVerdict(Value):
    """Outcome of the coefficient-bound check at a fixed truncation level."""

    __slots__ = __match_args__ = ("holds", "alpha", "level", "violation")

    def to_json(self) -> dict:
        return {key: _json(value) for key, value in self._asdict().items()}


def _shifts(table: VdpTable, alpha: int | Sequence[int]) -> list[int]:
    """Order each A_m must reach under weight alpha, in storage order; also its shift.

    That is the max over I(m) of bound_log(m_i) - alpha_i. With I(m) empty the
    bound is vacuous and the shift is 0, or -alpha at n = 1 (b_m = p^alpha B_m).
    """
    alpha = weight(alpha, table.arity)
    p, K, vacuous = table.prime, table.level, -math.inf
    orders = [vacuous]
    for a in alpha:  # bound_log(v) = j for p^j <= v < p^(j+1)
        axis = [vacuous] * p + [j - a for j in range(1, K) for _ in range(p**j * (p - 1))]
        orders = [o if o > w else w for o in orders for w in axis]
    empty = -alpha[0] if table.arity == 1 else 0
    return [empty if o == vacuous else o for o in orders]


def _first_violation(table: VdpTable, shifts: list[int]) -> tuple[int, ...] | None:
    """First index whose coefficient does not vanish to its order, by the strict scan."""
    side, n = table.side, table.arity

    def index(i: int) -> tuple[int, ...]:  # the multi-index at flat position i
        return tuple(i // side ** (n - 1 - j) % side for j in range(n))

    return column_scan([(index, table.residues, table.known, shifts)], table.prime,
                       lambda m: f"deciding the bound at m={_shape(m)}")[1]


def weighted_lip_bound_check(table: VdpTable, alpha: int | Sequence[int]) -> LipschitzVerdict:
    """Check ord(A_m) >= max over I(m) of (floor(log_p m_i) - alpha_i).

    Returns the first violating index in storage order, if any, and raises
    PrecisionExhaustedError when the known digits cannot decide the bound.
    The bound holds exactly when |F(x) - F(y)| <= max_i p^alpha_i |x_i - y_i|
    for all points x, y of the level grid, F being the table's partial sums.
    Sufficient: F(x) - F(y) sums +-A_m over the m initial in one point only;
    some m_i is then initial in one of x_i, y_i only, so floor(log_p m_i) >=
    ord(x_i - y_i), and if that order is positive, i is in I(m) and the bound
    gives ord(A_m) >= ord(x_i - y_i) - alpha_i. Necessary: for the i in I(m)
    with the largest floor(log_p m_i) - alpha_i = s, A_m is an alternating sum
    of F(c) - F(c with m_i -> m_i*) over grid points c; each such pair differs
    in coordinate i alone, by order floor(log_p m_i), so has order >= s.
    """
    m = _first_violation(table, _shifts(table, alpha))
    violation = None if m is None else _shape(m)
    return LipschitzVerdict(m is None, _shape(weight(alpha, table.arity)), table.level, violation)


def normalize_weighted(table: VdpTable, alpha: int | Sequence[int]) -> VdpTable:
    """Attach unit-scale coefficients a_m with A_m = p^shift * a_m.

    Requires the coefficient bound to hold; the shift down is then exact.
    """
    return type(table)._of(table.prime, table.level, table.residues, table.known, table.arity,
                           alpha)


# the arity-1 names: the general functions take a bare int weight, or one value at arity 1
vdp_eval_uni = vdp_eval_multi
lip_alpha_check_uni = weighted_lip_bound_check
normalize_alpha = normalize_weighted


def projection(F: PointEvaluator, coord: int, fixed: Sequence[PadicInt]) -> UniEvaluator:
    """Freeze all coordinates except `coord` (1-based) at the given values.

    The result plugs into every univariate operation; if F satisfies the
    weighted condition with weight alpha, each projection lies in the
    univariate class for alpha_coord.
    """
    fixed = tuple(fixed)
    arity = len(fixed) + 1
    if not 1 <= coord <= arity:
        raise ValueError(f"coordinate {coord} out of range for arity {arity}")

    def call(z: PadicInt) -> PadicInt:
        coords = fixed[: coord - 1] + (z,) + fixed[coord - 1 :]
        return F(PadicPoint(coords))

    return call


def sampled_weighted_lip_check(
    F: PointEvaluator, alpha: Sequence[int], samples: int, arity: int, prime: int,
    precision: int, seed: int = 0,
) -> SampledReport:
    """Randomized point pairs checked against the weighted inequality.

    |F(x) - F(y)| must not exceed max_i p^(alpha_i) |x_i - y_i|, i.e. the
    output difference must vanish to order min_i (ord(x_i - y_i) - alpha_i).
    The witness points in first_violation are integers at arity 1.
    """
    alpha = weight(alpha, arity)
    F = on_columns(F, prime, precision, arity)
    modulus = prime**precision

    def draw(rng):
        a = tuple(rng.randrange(modulus) for _ in range(arity))
        b = tuple(rng.randrange(modulus) for _ in range(arity))
        required = min(_order(ai - bi, prime) - wi for ai, bi, wi in zip(a, b, alpha))
        return None if required == math.inf else (a, b, required)

    def decide(pairs):  # F(a) - F(b) on the precision both values know
        residues, known = F([x for a, b, _ in pairs for x in (a, b)])
        return [((_shape(a), _shape(b)), (ra - rb) % prime**k, k, required)
                for (a, b, required), ra, rb, k
                in zip(pairs, residues[::2], residues[1::2], map(min, known[::2], known[1::2]))]

    return sampled_scan(draw, samples, seed, prime, "deciding the pair {}".format, decide=decide,
                        alpha=alpha)


def sampled_lip_check_uni(
    f: UniEvaluator, alpha: int, samples: int, prime: int, precision: int, seed: int = 0
) -> SampledReport:
    """Randomized pairs x, y checked against the p^alpha-Lipschitz inequality."""
    F = as_point_evaluator(f)
    return sampled_weighted_lip_check(F, (alpha,), samples, 1, prime, precision, seed)
