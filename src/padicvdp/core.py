"""Fixed-precision arithmetic on p-adic integers and tuples of them.

A value of Z_p is stored as its residue mod p^N together with the count N
of base-p digits actually known; the digits themselves are a derived view,
and this is the only module that knows how they are laid out. Operations
follow a "known digits" discipline: a result never claims more precision
than its inputs justify, and exact division by p consumes precision.
Norms and orders are exact (powers of p as Fractions, never floats).

Everything in this module is immutable and pure; values can be shared
freely across threads. Every record class of the package is a `Value`.
"""
from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import islice
from operator import ge, gt, mod, sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from fractions import Fraction  # imported by the norms that make one

__all__ = [
    "Value",
    "PadicError",
    "InvalidPrimeError",
    "PrimeMismatchError",
    "InexactDivisionError",
    "PrecisionExhaustedError",
    "EnumerationBudgetError",
    "PadicInt",
    "PadicPoint",
    "from_integer",
    "from_rational",
    "floor_log_p",
    "digit_length",
    "is_prime",
    "power_within",
    "weight",
    "vanishes_to",
    "column_scan",
    "failed_check",
    "SampledReport",
    "sampled_scan",
    "Evaluator",
    "on_residues",
    "on_columns",
    "DEFAULT_BUDGET",
    "COLUMN_CHUNK",
]

DEFAULT_BUDGET = 10**7  # evaluations an exhaustive enumeration may spend
COLUMN_CHUNK = 2**12  # points per call of an evaluator's column form


class _DataclassFields:
    """A Value class's `__dataclass_fields__`, made on first read from its field tuple.

    `dataclasses.fields` and `dataclasses.replace` then take a Value as the
    dataclass it stands for, and importing the package loads no dataclasses.
    """

    def __get__(self, instance, cls) -> dict:
        import dataclasses

        names, compared = cls.__match_args__, cls._compared or cls.__match_args__
        defaults = dict(zip(reversed(names), reversed(cls._defaults)))
        made = dataclasses.make_dataclass(cls.__name__, [
            (name, object, dataclasses.field(default=defaults.get(name, dataclasses.MISSING),
                                             compare=name in compared)) for name in names])
        cls.__dataclass_fields__ = made.__dataclass_fields__
        return made.__dataclass_fields__


class Value:
    """An immutable record of the fields a subclass names once, as `__slots__ = __match_args__`.

    `_defaults` holds the defaults of the last fields. Equality and hashing
    read the fields in `_compared` (all when None), within one class.
    `_init` is a frozen dataclass's `__init__`: one slot write per field, then
    `__post_init__` if the class has one. It is the `__init__` of a subclass
    that writes none and inherits none written by hand; `_key` likewise.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: tuple = ()
    _compared: tuple[str, ...] | None = None
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__
        source = "\n".join([
            f"def _key(self): return ({''.join(f'self.{n}, ' for n in cls._compared or names)})",
            f"def __init__(self, {', '.join(names)}):",
            *(f" _set_{name}(self, {name})" for name in names),
            " self.__post_init__()" if hasattr(cls, "__post_init__") else " pass",
        ])
        made: dict = {}  # the slots' own setters are faster than object.__setattr__
        exec(source, {f"_set_{name}": getattr(cls, name).__set__ for name in names}, made)
        cls._init = made["__init__"]
        cls._init.__defaults__ = cls._defaults
        cls._init.__qualname__ = f"{cls.__qualname__}.__init__"
        for name, default in (("_key", None), ("__init__", object.__init__)):
            made[name].generated = True
            inherited = getattr(cls, name, None)
            if name not in cls.__dict__ and (inherited is default
                                             or hasattr(inherited, "generated")):
                setattr(cls, name, made[name])

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def _asdict(self) -> dict:
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in self.__match_args__}

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state) -> None:
        """Restore a copy or an unpickled value from what `__getstate__` gave: a dict or two."""
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class PadicError(Exception):
    """Base class for every error raised by this package."""


class InvalidPrimeError(PadicError):
    """The digit base is not a prime number."""


class PrimeMismatchError(PadicError):
    """Two values with different primes were combined."""


class InexactDivisionError(PadicError):
    """Division by a power of p was applied to a value it does not divide."""


class PrecisionExhaustedError(PadicError):
    """Not enough known digits to carry out the operation."""


class EnumerationBudgetError(PadicError):
    """An exhaustive enumeration would exceed the configured budget."""


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test, meant for machine-word sized n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidPrimeError(f"not a prime: {p!r}")


def digit_length(m: int, p: int) -> int:
    """Number of base-p digits of m >= 0; zero has length 1."""
    if m < 0:
        raise ValueError(f"digit_length needs m >= 0, got {m}")
    length = 1
    while m >= p:
        m //= p
        length += 1
    return length


def floor_log_p(m: int, p: int) -> int:
    """Position of the top nonzero base-p digit of m, defined for m >= 1."""
    if m < 1:
        raise ValueError(f"floor_log_p is undefined for m = {m}")
    return digit_length(m, p) - 1


def power_within(base: int, exponent: int, limit: int) -> int | None:
    """base^exponent when it is at most limit, else None.

    Never forms a power above limit, so a huge exponent costs no more than
    log(limit) multiplications.
    """
    size = 1
    for _ in range(exponent):
        size *= base
        if size > limit:
            return None
    return size


def weight(alpha, arity: int) -> tuple[int, ...]:
    """alpha as `arity` non-negative ints; a bare int is a weight of arity 1."""
    weights = tuple(alpha) if isinstance(alpha, (tuple, list)) else (alpha,)
    if len(weights) != arity or any(type(a) is not int or a < 0 for a in weights):
        raise ValueError(f"weight must be {arity} non-negative int(s), got {alpha!r}")
    return weights


class PadicInt(Value):
    """A p-adic integer known modulo p^precision.

    The stored form is the residue in [0, p^precision); `digits` is a view
    of it, digits[i] being the coefficient of p^i. Two values are equal
    only when prime, precision and residue agree; a value known to 3 digits
    is a different object of knowledge than one known to 4.
    """

    __slots__ = __match_args__ = ("prime", "precision", "residue")

    def __init__(self, prime: int, digits) -> None:
        """The value with the given base-p digits, low first; each is validated."""
        _require_prime(prime)
        digits = tuple(digits)
        self._init(prime, len(digits), _residue_of(digits, prime))

    @property
    def digits(self) -> tuple[int, ...]:
        """The known base-p digits, low first."""
        return tuple(_digit_list(self.residue, self.prime, self.precision))

    def digit(self, i: int) -> int:
        """The coefficient of p^i, for 0 <= i < precision."""
        if not 0 <= i < self.precision:
            raise PrecisionExhaustedError(
                f"digit {i} outside known precision {self.precision}"
            )
        return self.residue // self.prime**i % self.prime

    def to_integer(self) -> int:
        """The standard representative in [0, p^N)."""
        return self.residue

    def ord(self) -> int | float:
        """Index of the first nonzero digit; math.inf when all known digits vanish."""
        return _order(self.residue, self.prime)

    def norm(self) -> Fraction:
        """Exact p-adic absolute value p^(-ord); 0 when no digit is nonzero."""
        from fractions import Fraction

        k = self.ord()
        return Fraction(0) if k == math.inf else Fraction(1, self.prime**k)

    def divisible_by_p_power(self, e: int) -> bool:
        """Whether the first e known digits are all zero (all of them if e > N)."""
        return e <= 0 or self.residue % self.prime ** min(e, self.precision) == 0

    def _binop_precision(self, other: PadicInt) -> int:
        if not isinstance(other, PadicInt):
            raise TypeError(f"expected PadicInt, got {type(other).__name__}")
        if self.prime != other.prime:
            raise PrimeMismatchError(f"prime mismatch: {self.prime} vs {other.prime}")
        return min(self.precision, other.precision)

    def __add__(self, other: PadicInt) -> PadicInt:
        n = self._binop_precision(other)
        return _from_residue(self.residue + other.residue, self.prime, n)

    def __sub__(self, other: PadicInt) -> PadicInt:
        n = self._binop_precision(other)
        return _from_residue(self.residue - other.residue, self.prime, n)

    def __mul__(self, other: PadicInt) -> PadicInt:
        n = self._binop_precision(other)
        return _from_residue(self.residue * other.residue, self.prime, n)

    def __neg__(self) -> PadicInt:
        return _from_residue(-self.residue, self.prime, self.precision)

    def __str__(self) -> str:
        body = " ".join(str(d) for d in self.digits)
        return f"{body} | p={self.prime} N={self.precision}"

    def to_json(self) -> dict:
        return {"p": self.prime, "precision": self.precision, "digits": list(self.digits)}


@lru_cache(maxsize=None)
def _digit_walk(p: int) -> tuple[int, int, int, tuple | None]:
    """(W, p^W, p^c, table[v] = the c digits of v < p^c), made on first use; no table past 2^8."""
    c, table = 0, [()]
    while p ** (c + 1) <= 2**8:  # c digits per lookup, the most with p^c <= 2^8
        c, table = c + 1, [t + (d,) for d in range(p) for t in table]
    width = 64 // max(c, 1) * max(c, 1)  # W: a block holds about 64 digits, whole chunks
    return width, p**width, p ** max(c, 1), tuple(table) if c else None


def _digit_blocks(residue: int, p: int) -> Iterator[list[int]]:
    """Base-p digits of residue >= 0 in blocks of W, low first, up to the top nonzero chunk."""
    width, base, chunk, table = _digit_walk(p)
    while residue:
        residue, block = divmod(residue, base)
        digits = []
        while block:
            block, v = divmod(block, chunk)
            digits += table[v] if table else (v,)
        if residue:  # below the top, a block keeps all W digits
            digits += [0] * (width - len(digits))
        yield digits


def _digit_list(residue: int, p: int, precision: int) -> list[int]:
    """The first `precision` base-p digits of 0 <= residue < p^precision, low first."""
    digits = [d for block in _digit_blocks(residue, p) for d in block]
    return digits[:precision] + [0] * (precision - len(digits))


def _residue_of(digits, p: int) -> int:
    """The residue with these base-p digits, low first; each is validated, top digit first."""
    if len(digits) < 1:
        raise PrecisionExhaustedError("a value needs at least one digit")
    residue = 0
    for d in reversed(digits):
        if not isinstance(d, int) or not 0 <= d < p:
            raise ValueError(f"digit {d!r} out of range for p={p}")
        residue = residue * p + d
    return residue


def _order(value: int, p: int) -> int | float:
    """Index of the lowest nonzero base-p digit of an integer; math.inf for 0."""
    if value == 0:
        return math.inf
    k = 0
    while value % p == 0:
        value //= p
        k += 1
    return k


def _below(residues, orders, p: int) -> list[int]:
    """Each residue mod p^order, or 0 where the order is <= 0.

    For a residue reduced mod p^N, that is its known digits below the order,
    as a number: 0 exactly when they vanish.
    """
    moduli = {e: p**e if e > 0 else 1 for e in set(orders)}
    return list(map(mod, residues, map(moduli.__getitem__, orders)))


def _shifted(residues, precisions, shifts, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced residues and their precisions divided by p^e (e > 0) or times p^-e, e in shifts.

    A division must be exact and costs e digits, and one that leaves no known
    digit raises, the first in order; a multiplication gains -e digits.
    """
    below = _below(residues, shifts, p)
    if any(below) or any(map(ge, shifts, precisions)):
        for r, n, e in zip(below, precisions, shifts):
            if r:
                raise InexactDivisionError(f"value is not divisible by p^{e} (p={p})")
            if e >= n:
                raise PrecisionExhaustedError(
                    f"dividing by p^{e} leaves no known digits (precision {n})")
    powers = {e: p ** abs(e) for e in set(shifts)}
    shifted = [r // powers[e] if e > 0 else r * powers[e] for r, e in zip(residues, shifts)]
    return tuple(shifted), tuple(map(sub, precisions, shifts))


def _from_residue(value: int, p: int, precision: int) -> PadicInt:
    """PadicInt for value mod p^precision; p and precision are trusted."""
    x = object.__new__(PadicInt)
    x._init(p, precision, value % p**precision)
    return x


def from_integer(k: int, p: int, precision: int) -> PadicInt:
    """Canonical image of a non-negative integer, truncated to N digits."""
    _require_prime(p)
    if k < 0:
        raise ValueError(f"from_integer needs k >= 0, got {k}; use from_rational")
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    return _from_residue(k, p, precision)


def from_rational(num: int, den: int, p: int, precision: int) -> PadicInt:
    """Image of num/den mod p^N; den must be a p-adic unit."""
    _require_prime(p)
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if den == 0:
        raise ZeroDivisionError("rational constant with zero denominator")
    if den % p == 0:
        raise InexactDivisionError(
            f"denominator {den} is divisible by p={p}, not a p-adic unit"
        )
    modulus = p**precision
    inv = pow(den, -1, modulus)
    return _from_residue(num * inv, p, precision)


def _vanishing(value: PadicInt, order: int) -> bool | None:
    """Whether value vanishes to order; None when its known digits cannot tell.

    A nonzero known digit below the order is conclusive; known digits that
    all vanish but stop short of the order decide nothing.
    """
    if not value.divisible_by_p_power(order):
        return False
    return True if order <= value.precision else None


def vanishes_to(value: PadicInt, order: int, describe: Callable, site) -> bool:
    """Whether value vanishes to order; if undecided, raises naming describe(site)."""
    verdict = _vanishing(value, order)
    if verdict is None:
        raise PrecisionExhaustedError(
            f"{describe(site)} needs {order} digits, known {value.precision}"
        )
    return verdict


def column_scan(batches: Iterable[tuple], p: int, describe: Callable) -> tuple[int, object]:
    """Count the checks whose residue does not vanish to its order; also the first one's site.

    Each batch is (site, residues, precisions, orders): check i is residues[i],
    reduced mod p^precisions[i], against orders[i], and site(i) names it, asked
    only of the first failure or of the check that raises. A failure is
    conclusive, so it wins over any check the known digits cannot decide, in
    any batch; with no failure, the first such check raises as in `vanishes_to`.
    """
    failures, first, short = 0, None, None
    for site, residues, precisions, orders in batches:
        below = _below(residues, orders, p)
        count = len(below) - below.count(0)
        if count and not failures:
            first = site(next(i for i, r in enumerate(below) if r))
        failures += count
        if not failures and short is None and any(map(gt, orders, precisions)):
            i = next(i for i, (e, n) in enumerate(zip(orders, precisions)) if e > n)
            short = site, i, orders[i], precisions[i]
    if short is not None and not failures:
        site, i, order, known = short
        raise PrecisionExhaustedError(f"{describe(site(i))} needs {order} digits, known {known}")
    return failures, first


def failed_check(site) -> tuple:
    """The check of a sample where F is undefined: 1 does not vanish to order 1."""
    return site, 1, 1, 1


def _json(value):
    """value with every tuple in it, nested ones too, as a list."""
    return [_json(v) for v in value] if isinstance(value, tuple) else value


class SampledReport(Value):
    """Evidence from one seeded scan: a violation is conclusive, none is evidence, not proof.

    JSON names the count by `label`, "violations" or "failures", and lists the
    check's settings, the (key, value) pairs in `echo`, beside it.
    """

    __slots__ = __match_args__ = ("samples", "violations", "first_violation", "seed", "label",
                                  "echo")
    _defaults = ("violations", ())

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        first = "first_" + self.label[:-1]  # first_violation or first_failure
        return {**{key: _json(value) for key, value in self.echo}, "samples": self.samples,
                self.label: self.violations, first: _json(self.first_violation),
                "seed": self.seed, "ok": self.ok}


def sampled_scan(draw: Callable, samples: int, seed: int, p: int, describe: Callable,
                 label: str = "violations", decide: Callable | None = None,
                 **echo) -> SampledReport:
    """The one sampling loop: `samples` draws from random.Random(seed), decided by column_scan.

    A check is (site, residue, precision, order) at the prime p, the residue
    reduced mod p^precision, as `column_scan` takes it. Each draw takes the
    generator and returns one check, or None when its sample tests nothing.
    With `decide`, the batch form, a draw reads no F and returns what `decide`
    takes, or None; `decide` maps the list of a batch's draws, Nones left out,
    to a list of checks, so it can evaluate their points together. Either way
    the draws are made COLUMN_CHUNK at a time and scanned in draw order, and
    the generator is read in the same order.
    """
    rng = random.Random(seed)

    def batches() -> Iterator[tuple]:
        for start in range(0, samples, COLUMN_CHUNK):
            drawn = [d for d in (draw(rng) for _ in range(min(COLUMN_CHUNK, samples - start)))
                     if d is not None]
            checks = drawn if decide is None else decide(drawn)
            if checks:
                sites, residues, precisions, orders = zip(*checks)
                yield sites.__getitem__, residues, precisions, orders

    violations, first = column_scan(batches(), p, describe)
    return SampledReport(samples, violations, first, seed, label, tuple(echo.items()))


class PadicPoint(Value):
    """An element of Z_p^n; all coordinates share one prime and precision."""

    __slots__ = __match_args__ = ("coords",)

    def __post_init__(self) -> None:
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) < 1:
            raise ValueError("a point needs at least one coordinate")
        p, n = self.coords[0].prime, self.coords[0].precision
        for c in self.coords:
            if c.prime != p:
                raise PrimeMismatchError("coordinates with mixed primes")
            if c.precision != n:
                raise PrecisionExhaustedError("coordinates with mixed precisions")

    @property
    def arity(self) -> int:
        return len(self.coords)

    @property
    def prime(self) -> int:
        return self.coords[0].prime

    @property
    def precision(self) -> int:
        return self.coords[0].precision

    @classmethod
    def from_integers(cls, values, p: int, precision: int) -> PadicPoint:
        return cls(tuple(from_integer(v, p, precision) for v in values))

    def __str__(self) -> str:
        return "(" + "; ".join(str(c) for c in self.coords) + ")"

    def to_json(self) -> dict:
        return {"coords": [c.to_json() for c in self.coords]}


class Evaluator:
    """A function on Z_p^n that a subclass serves on residues by `on_residues(p, N, n)`.

    A subclass may serve a second form by `on_columns(p, N, n)`, called with one
    sequence of coordinate residues per coordinate, all of one length, and a
    tuple `undefined` of exception classes; it returns the list of the values'
    residues and the list of their precisions. A point where F raises one of
    `undefined` may get None for both. Where F fails otherwise at some point,
    it raises, but not necessarily that point's error: `core.on_columns` is
    what makes the first point's error the one raised.
    """

    def __call__(self, x: PadicPoint | PadicInt) -> PadicInt:
        """Value at a point, or at a single value when the arity is 1."""
        coords = x.coords if isinstance(x, PadicPoint) else (x,)
        f = self.on_residues(coords[0].prime, coords[0].precision, len(coords))
        return f(tuple([c.residue for c in coords]))

    def on_columns(self, p: int, n: int, arity: int) -> Callable | None:
        """The column form, if a subclass has one; None sends `core.on_columns` point by point."""
        return None


def on_residues(F: Callable, p: int, n: int, arity: int) -> Callable[[tuple], PadicInt]:
    """F as a function of `arity` coordinate residues mod p^n: its own form for an Evaluator.

    A plain callable on points is wrapped, so this is the one place a consumer's
    point is built; an evaluator of another arity raises here, before any call.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError(f"precision must be >= 1, got {n}")
    if isinstance(F, Evaluator):
        return F.on_residues(p, n, arity)
    return lambda xs: F(PadicPoint(tuple([_from_residue(x, p, n) for x in xs])))


def on_columns(F: Callable, p: int, n: int, arity: int, undefined: tuple = ()
               ) -> Callable[[Iterable[tuple]], tuple[list, list]]:
    """F on residue tuples, as the list of its values' residues and the list of their precisions.

    A point where F raises one of `undefined` gets None for both. An
    Evaluator's `on_columns` form takes COLUMN_CHUNK points at a time, and may
    mark such points itself. A chunk that raises is evaluated again point by
    point through `on_residues`, so the error raised is the first point's, as
    in a loop over the points. Without that form, and for a plain callable,
    which is wrapped as `on_residues` wraps it, each point is evaluated once
    and in order.
    """
    f = on_residues(F, p, n, arity)
    columns = F.on_columns(p, n, arity) if isinstance(F, Evaluator) else None

    def by_points(points: Iterable[tuple], residues: list, known: list) -> None:
        for xs in points:
            try:
                value = f(xs)
            except undefined:
                residues.append(None)
                known.append(None)
                continue
            if value.prime != p:
                raise ValueError(f"F gave a value at prime {value.prime}, not {p}")
            residues.append(value.residue)
            known.append(value.precision)

    def evaluate(points: Iterable[tuple]) -> tuple[list, list]:
        residues, known, points = [], [], iter(points)
        if columns is None:
            by_points(points, residues, known)
            return residues, known
        while chunk := list(islice(points, COLUMN_CHUNK)):
            try:
                chunk_residues, chunk_known = columns(list(zip(*chunk)), undefined)
            except Exception:
                by_points(chunk, residues, known)
            else:
                residues += chunk_residues
                known += chunk_known
        return residues, known

    return evaluate
