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
    "MStarUndefinedError",
    "EnumerationBudgetError",
    "PadicInt",
    "PadicPoint",
    "from_integer",
    "from_rational",
    "initial_part",
    "m_star",
    "floor_log_p",
    "digit_length",
    "is_prime",
    "power_within",
    "weight",
    "vanishes_to",
    "vanishing_scan",
    "failed_check",
    "SampledReport",
    "sampled_scan",
    "Evaluator",
    "on_residues",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**7  # evaluations an exhaustive enumeration may spend


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
    `__post_init__` if the class has one; it is the `__init__` of a subclass
    that writes none.
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
        cls._key, cls._init = made["_key"], made["__init__"]
        cls._init.__defaults__ = cls._defaults
        cls._init.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._init

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


class MStarUndefinedError(PadicError):
    """Top-digit removal is only defined for indices m >= p."""


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


def m_star(m: int, p: int) -> int:
    """Strip the top base-p digit of m; defined only for m >= p."""
    _require_prime(p)
    if m < p:
        raise MStarUndefinedError(f"m* needs m >= p, got m={m} with p={p}")
    return m % p ** floor_log_p(m, p)


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
        if len(digits) < 1:
            raise PrecisionExhaustedError("a value needs at least one digit")
        residue = 0
        for d in reversed(digits):
            if not isinstance(d, int) or not 0 <= d < prime:
                raise ValueError(f"digit {d!r} out of range for p={prime}")
            residue = residue * prime + d
        self._init(prime, len(digits), residue)

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
        if self.residue == 0:
            return math.inf
        k, value = 0, self.residue
        while value % self.prime == 0:
            value //= self.prime
            k += 1
        return k

    def is_zero(self) -> bool:
        """True when every known digit is zero."""
        return self.residue == 0

    def norm(self) -> Fraction:
        """Exact p-adic absolute value p^(-ord); 0 when no digit is nonzero."""
        from fractions import Fraction

        k = self.ord()
        return Fraction(0) if k == math.inf else Fraction(1, self.prime**k)

    def standard_seq(self, k: int) -> int:
        """Partial sum x_0 + x_1 p + ... + x_k p^k as an exact integer."""
        if not 0 <= k < self.precision:
            raise PrecisionExhaustedError(
                f"standard sequence index {k} needs {k + 1} digits, known {self.precision}"
            )
        return self.residue % self.prime ** (k + 1)

    def divisible_by_p_power(self, e: int) -> bool:
        """Whether the first e known digits are all zero (all of them if e > N)."""
        return e <= 0 or self.residue % self.prime ** min(e, self.precision) == 0

    def exact_div_p(self, e: int) -> PadicInt:
        """Divide by p^e exactly; shifts digits down and costs e digits of precision."""
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        if e == 0:
            return self
        if not self.divisible_by_p_power(e):
            raise InexactDivisionError(
                f"value is not divisible by p^{e} (p={self.prime})"
            )
        if self.precision - e < 1:
            raise PrecisionExhaustedError(
                f"dividing by p^{e} leaves no known digits (precision {self.precision})"
            )
        return _from_residue(self.residue // self.prime**e, self.prime, self.precision - e)

    def mul_pow_p(self, e: int) -> PadicInt:
        """Multiply by p^e; shifts digits up, gaining e digits of precision."""
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        if e == 0:
            return self
        return _from_residue(self.residue * self.prime**e, self.prime, self.precision + e)

    def truncate(self, n: int) -> PadicInt:
        """Forget digits beyond the first n."""
        if not 1 <= n <= self.precision:
            raise PrecisionExhaustedError(
                f"cannot truncate precision {self.precision} to {n}"
            )
        return _from_residue(self.residue, self.prime, n)

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

    @classmethod
    def from_json(cls, data: dict) -> PadicInt:
        digits = tuple(data["digits"])
        if len(digits) != data.get("precision", len(digits)):
            raise ValueError("digit count does not match declared precision")
        return cls(data["p"], digits)


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


def initial_part(m: int, x: PadicInt) -> bool:
    """Whether m occurs in x's standard sequence x^(0), x^(1), ...

    Equivalent to x lying in the ball of radius p^-(s+1) around m, where
    s+1 is the base-p digit length of m.
    """
    if m < 0:
        raise ValueError(f"initial parts are non-negative, got {m}")
    length = digit_length(m, x.prime)
    if length > x.precision:
        raise PrecisionExhaustedError(
            f"deciding initial part of {m} needs {length} digits, "
            f"value has {x.precision}"
        )
    return x.standard_seq(length - 1) == m


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


def vanishing_scan(checks: Iterable[tuple], describe: Callable) -> tuple[int, object]:
    """Count the (site, value, order) checks whose value does not vanish; also the first.

    A failure is conclusive, so it wins over any site the known digits cannot
    decide; with no failure, the first such site raises as in `vanishes_to`.
    """
    failures, first, short = 0, None, None
    for site, value, order in checks:
        verdict = _vanishing(value, order)
        if verdict is False:
            if not failures:
                first = site
            failures += 1
        elif verdict is None and short is None:
            short = (value, order, site)
    if short is not None and not failures:
        vanishes_to(short[0], short[1], describe, short[2])  # undecided, so it raises
    return failures, first


def failed_check(site, p: int) -> tuple:
    """The check of a sample where F is undefined: 1 does not vanish to order 1."""
    return site, _from_residue(1, p, 1), 1


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


def sampled_scan(draw: Callable, samples: int, seed: int, describe: Callable,
                 label: str = "violations", **echo) -> SampledReport:
    """The one sampling loop: `samples` draws from random.Random(seed), decided by vanishing_scan.

    Each draw takes the generator and returns one (site, value, order) check,
    or None when its sample tests nothing.
    """
    rng = random.Random(seed)
    drawn = (draw(rng) for _ in range(samples))
    violations, first = vanishing_scan((check for check in drawn if check is not None), describe)
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

    def ord(self) -> int | float:
        return min(c.ord() for c in self.coords)

    def norm(self) -> Fraction:
        """Max of the coordinate norms (the sup norm on Z_p^n), an exact Fraction."""
        return max(c.norm() for c in self.coords)

    def to_integers(self) -> tuple[int, ...]:
        return tuple(c.to_integer() for c in self.coords)

    @classmethod
    def from_integers(cls, values, p: int, precision: int) -> PadicPoint:
        return cls(tuple(from_integer(v, p, precision) for v in values))

    def __str__(self) -> str:
        return "(" + "; ".join(str(c) for c in self.coords) + ")"

    def to_json(self) -> dict:
        return {"coords": [c.to_json() for c in self.coords]}

    @classmethod
    def from_json(cls, data: dict) -> PadicPoint:
        return cls(tuple(PadicInt.from_json(c) for c in data["coords"]))


class Evaluator:
    """A function on Z_p^n that a subclass serves on residues by `on_residues(p, N, n)`."""

    def __call__(self, x: PadicPoint | PadicInt) -> PadicInt:
        """Value at a point, or at a single value when the arity is 1."""
        coords = x.coords if isinstance(x, PadicPoint) else (x,)
        f = self.on_residues(coords[0].prime, coords[0].precision, len(coords))
        return f(tuple([c.residue for c in coords]))


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
