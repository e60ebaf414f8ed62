"""A small expression language for functions Z_p^n -> Z_p.

Grammar (whitespace-insensitive):

    expr     = term , { ("+"|"-") , term } ;
    term     = factor , { "*" , factor } ;
    factor   = [ "-" ] , base , [ "^" , natural ] ;
    base     = integer | rational | variable | "(" expr ")"
             | "divp" "(" expr "," natural ")"
             | "digitsum" "(" variable "," expr "," natural ")" ;
    variable = "x" , natural ;                      (* x1 ... xn *)
    rational = integer "/" [ "-" ] integer ;        (* 3/-5 is -3/5 *)

divp(e, k) divides by p^k exactly and costs k digits of precision.
digitsum(xj, a, e) maps the digits of xj to sum(p^i * a(i) * digit_i^e),
which is how locally-defined digit maps are written; a is an expr over
integers and the digit index i (a name nowhere else), of degree at most
MAX_DEPTH and below 2^(MAX_DEPTH^2) in absolute sum. Rational constants must
have denominator coprime to p; they are embedded by modular inversion once
per compiled form (see `FuncDef.on_columns`).
"""
from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import add, floordiv, itemgetter, mod, mul, sub
from typing import Callable, Union

from .core import (
    Evaluator,
    InexactDivisionError,
    PadicError,
    PrecisionExhaustedError,
    SampledReport,
    Value,
    _digit_sum,
    _digit_walk,
    failed_check,
    from_rational,
    on_columns,
    sampled_scan,
    weight,
)

__all__ = [
    "ParseError",
    "IntConst",
    "RatConst",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Pow",
    "DivP",
    "DigitSum",
    "FuncExpr",
    "FuncDef",
    "parse",
    "parse_funcdef",
    "divp_budget",
    "as_point_function",
    "as_univariate",
    "well_defined_check",
]


class ParseError(PadicError):
    """Syntax or arity failure, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Node(Value):
    """An expression node; a weak reference to one shows whether a compiled form keeps it."""

    __slots__ = ("__weakref__",)


def _node(name: str, *fields: str) -> type:
    """The node class `name` with these fields, e.g. Add(left, right)."""
    return type(name, (_Node,), {"__slots__": fields, "__match_args__": fields})


IntConst = _node("IntConst", "value")
RatConst = _node("RatConst", "numerator", "denominator")
Var = _node("Var", "index")  # 1-based, matching the surface names x1 ... xn
Add = _node("Add", "left", "right")
Sub = _node("Sub", "left", "right")
Mul = _node("Mul", "left", "right")
Pow = _node("Pow", "base", "exponent")
DivP = _node("DivP", "operand", "exponent")
DigitSum = _node("DigitSum", "var_index", "coeffs", "exponent")  # coeffs: a(i), dense in i
FuncExpr = Union[IntConst, RatConst, Var, Add, Sub, Mul, Pow, DivP, DigitSum]
_DigitIndex = _node("_DigitIndex")  # the symbol i of a digitsum coefficient, folded by the parser


class FuncDef(Value, Evaluator):
    """A parsed function together with its declared arity.

    alpha, when present, is the weight the author claims the function is
    Lipschitz for. It is a claim to verify, never trusted. The source text,
    when kept, is not part of equality.
    """

    __slots__ = __match_args__ = ("arity", "body", "alpha", "source")
    _defaults = (None, None)
    _compared = ("arity", "body", "alpha")

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.alpha is not None:
            weight(self.alpha, self.arity)

    def on_columns(self, p: int, n: int, arity: int) -> Callable[[list, tuple], tuple[list, list]]:
        """The body on columns of coordinate residues mod p^n: its residues and precisions.

        Each divp on a path costs its exponent. A point where a divp does not
        divide exactly gets None for both when `undefined` catches
        InexactDivisionError. Only the latest compile is kept: one slot holds
        it, per body object and (p, N, arity), so no earlier expression stays
        alive; racing callers at worst recompile.
        """
        global _last
        if arity != self.arity:
            raise ValueError(f"function of arity {self.arity} applied to point of arity {arity}")
        last = _last
        if not (last[0] is self.body and last[1] == p and last[2] == n and last[3] == arity):
            compiled, precision = _compile(self.body, p, n, arity)
            modulus = p**precision

            def columns(cols: list, undefined: tuple) -> tuple[list, list]:
                inexact = set() if issubclass(InexactDivisionError, undefined) else None
                residues = list(map(mod, compiled([*cols, inexact]), repeat(modulus)))
                known = [precision] * len(residues)
                for i in inexact or ():
                    residues[i] = known[i] = None
                return residues, known

            last = _last = (self.body, p, n, arity, columns)
        return last[4]


# ---------------------------------------------------------------------------
# Tokenizer


class _Token(Value):
    __slots__ = __match_args__ = ("kind", "text", "line", "col")  # kind: int, name, sym or eof


_SYMBOLS = "+-*^/(),"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token("sym", ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Integer-coefficient polynomials in the digit symbol, as dense lists


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a, b, sign: int = 1) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += sign * v
    return _poly_trim(out)


def _poly_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _poly_trim(out)


def _poly_eval(coeffs: tuple[int, ...], x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


MAX_DEPTH = 100  # parsing and evaluation recurse per level, far below Python's limit


def _deeper(depth: int, tok: _Token) -> int:
    """depth + 1, refused beyond MAX_DEPTH at the token that adds the level."""
    if depth >= MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH} levels", tok.line, tok.col)
    return depth + 1


def _integer(text: str, tok: _Token) -> int:
    """int(text), or a ParseError at tok past Python's int-string digit limit."""
    try:
        return int(text)
    except ValueError:  # also digits outside ASCII, which isdigit() admits
        raise ParseError(f"integer literal of {len(text)} characters is too long or not decimal",
                         tok.line, tok.col) from None


_COEFFICIENT_BITS = MAX_DEPTH**2  # bound on log2 of a digitsum coefficient's absolute sum


def _fold(node, tok: _Token) -> tuple[int, ...]:
    """Dense coefficients in i of a digitsum coefficient; each power, degree and size checked."""

    def within(size: int, limit: int = MAX_DEPTH, what: str = "power or degree") -> None:
        if size > limit:  # refused at tok, the digitsum keyword
            raise ParseError(f"digitsum coefficient {what} above {limit}", tok.line, tok.col)

    def bits(poly: tuple[int, ...]) -> int:  # ceil(log2) of sum |c|: bounds each, adds under *
        return (sum(map(abs, poly)) - 1).bit_length()

    match node:
        case IntConst(value=v):
            return (v,)
        case _DigitIndex():
            return (0, 1)
        case Add(left=a, right=b):
            return _poly_add(_fold(a, tok), _fold(b, tok))
        case Sub(left=a, right=b):
            return _poly_add(_fold(a, tok), _fold(b, tok), -1)
        case Mul(left=a, right=b):
            a, b = _fold(a, tok), _fold(b, tok)
            within(len(a) + len(b) - 2)
            within(bits(a) + bits(b), _COEFFICIENT_BITS, "size in bits")
            return _poly_mul(a, b)
        case Pow(base=b, exponent=e):
            within(e)
            b = _fold(b, tok)
            within((len(b) - 1) * e)
            within(bits(b) * e, _COEFFICIENT_BITS, "size in bits")
            return reduce(_poly_mul, [b] * e, (1,))
    raise TypeError(f"not a coefficient node: {node!r}")


class _Parser:
    def __init__(self, tokens: list[_Token], arity: int):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.nesting = 0  # factors entered and not yet left
        self.coefficient = False  # inside a digitsum coefficient, where i is the only name

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            raise ParseError(f"expected {sym!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def parse(self) -> FuncExpr:
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return node

    def expr(self) -> tuple[FuncExpr, int]:
        node, depth = self.term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.next()
            rhs, rhs_depth = self.term()
            node = Add(node, rhs) if op.text == "+" else Sub(node, rhs)
            depth = _deeper(max(depth, rhs_depth), op)
        return node, depth

    def term(self) -> tuple[FuncExpr, int]:
        node, depth = self.factor()
        while self.peek().kind == "sym" and self.peek().text == "*":
            op = self.next()
            rhs, rhs_depth = self.factor()
            node, depth = Mul(node, rhs), _deeper(max(depth, rhs_depth), op)
        return node, depth

    def factor(self) -> tuple[FuncExpr, int]:
        tok = self.peek()
        self.nesting = _deeper(self.nesting, tok)
        if tok.kind == "sym" and tok.text == "-":
            self.next()
            node, depth = self.factor()
            node, depth = _negate(node), _deeper(depth, tok)
        else:
            node, depth = self.base()
            if self.peek().kind == "sym" and self.peek().text == "^":
                op = self.next()
                node, depth = Pow(node, self.natural()), _deeper(depth, op)
        self.nesting -= 1
        return node, depth

    def natural(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(f"expected a natural number, found {tok.text!r}",
                             tok.line, tok.col)
        self.next()
        return _integer(tok.text, tok)

    def base(self) -> tuple[FuncExpr, int]:
        tok = self.peek()
        if self.coefficient and not (tok.kind == "int" or tok.text in ("(", "i")):
            raise ParseError(f"unexpected token {tok.text!r} in digit coefficient polynomial",
                             tok.line, tok.col)
        if tok.kind == "int":
            self.next()
            value = _integer(tok.text, tok)
            if self.peek().kind == "sym" and self.peek().text == "/":
                if self.coefficient:
                    raise ParseError("digitsum coefficient polynomial must have integer "
                                     "coefficients", tok.line, tok.col)
                self.next()
                den_tok = self.peek()
                sign = 1
                if den_tok.kind == "sym" and den_tok.text == "-":
                    self.next()
                    sign = -1
                    den_tok = self.peek()
                if den_tok.kind != "int":
                    raise ParseError("expected an integer denominator",
                                     den_tok.line, den_tok.col)
                self.next()
                den = sign * _integer(den_tok.text, den_tok)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.col)
                return RatConst(value, den), 1
            return IntConst(value), 1
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            node, depth = self.expr()
            self.expect_sym(")")
            return node, depth
        if tok.kind == "name":
            if self.coefficient:  # the check above admits no other name
                self.next()
                return _DigitIndex(), 1
            if tok.text == "divp":
                self.next()
                self.expect_sym("(")
                operand, depth = self.expr()
                self.expect_sym(",")
                e = self.natural()
                if e < 1:
                    raise ParseError("divp exponent must be >= 1", tok.line, tok.col)
                self.expect_sym(")")
                return DivP(operand, e), _deeper(depth, tok)
            if tok.text == "digitsum":
                self.next()
                self.expect_sym("(")
                var = self.variable()
                self.expect_sym(",")
                self.coefficient = True
                coeff, _ = self.expr()
                self.coefficient = False
                coeffs = _fold(coeff, tok)
                self.expect_sym(",")
                e = self.natural()
                if e < 1:
                    raise ParseError("digitsum exponent must be >= 1", tok.line, tok.col)
                self.expect_sym(")")
                return DigitSum(var.index, coeffs, e), 1
            return self.variable(), 1
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def variable(self) -> Var:
        tok = self.peek()
        if tok.kind != "name":
            raise ParseError(f"expected a variable, found {tok.text!r}",
                             tok.line, tok.col)
        name = tok.text
        if not (name.startswith("x") and name[1:].isdigit()):
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)
        index = _integer(name[1:], tok)
        if not 1 <= index <= self.arity:
            raise ParseError(
                f"variable {name} out of range for arity {self.arity}",
                tok.line, tok.col,
            )
        self.next()
        return Var(index)


def _negate(node: FuncExpr) -> FuncExpr:
    if isinstance(node, IntConst):
        return IntConst(-node.value)
    if isinstance(node, RatConst):
        return RatConst(-node.numerator, node.denominator)
    return Sub(IntConst(0), node)


def parse(text: str, arity: int) -> FuncExpr:
    """Parse an expression over variables x1 ... x{arity}."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    return _Parser(_tokenize(text), arity).parse()


def parse_funcdef(data: dict) -> FuncDef:
    """Build a FuncDef from its JSON object form; field types are checked, never converted."""
    try:
        arity, body_text, alpha = data["arity"], data["body"], data.get("alpha")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed function definition: {exc}") from exc
    if type(arity) is not int:
        raise ValueError(f"function field arity must be an integer, got {arity!r}")
    if not isinstance(body_text, str):
        raise ValueError(f"function field body must be a string, got {body_text!r}")
    if alpha is not None:
        try:
            alpha = weight(alpha, arity)
        except ValueError as exc:
            raise ValueError(f"function field alpha: {exc}") from exc
    return FuncDef(arity=arity, body=parse(body_text, arity), alpha=alpha, source=body_text)


# ---------------------------------------------------------------------------
# Evaluation


def _live(cols: list) -> bool:
    """Whether some point of the column has no inexact division noted yet.

    A noted point failed first in a walk of the tree, so an error raised for
    the whole column is that of the others alone; with none left, nothing raises.
    """
    return cols[-1] is None or len(cols[-1]) < len(cols[0])


def _failing(error: type, message: str, *children: Callable) -> Callable:
    """A compiled node that evaluates its children left to right, then raises."""

    def columns(cols):
        for child in children:
            child(cols)
        if _live(cols):
            raise error(message)
        return [0] * len(cols[0])

    return columns


def _constant(value: int) -> Callable:
    """A compiled constant."""
    return lambda cols: [value] * len(cols[0])


class _DigitPowers(dict):
    """d -> d^e mod modulus, kept for the first 256 digits met (every digit when p <= 256)."""

    def __init__(self, e: int, modulus: int):
        self.e, self.modulus = e, modulus

    def __missing__(self, d: int) -> int:
        value = pow(d, self.e, self.modulus)
        if len(self) < 256:  # a large prime's memo stays bounded
            self[d] = value
        return value


def _compile(expr: FuncExpr, p: int, n: int, arity: int) -> tuple[Callable, int]:
    """The expression as a function of columns of coordinate residues, and its precision.

    Inputs carry n digits; each node's precision is n minus the divp cost on
    its path, so every modulus is fixed here. The compiled node maps one
    list of residues per coordinate to the list of its values, each any
    integer congruent to the value mod p^precision: ring operations keep that
    congruence, and a divp's check and shift only read digits below it. The
    argument ends with one more entry: None, or a set where a divp notes each
    point it cannot divide exactly, instead of raising, and goes on with 0
    there. A node whose evaluation must fail raises when called, never here,
    and runs its children first. So on one point, the first failure in
    left-to-right order wins as in a walk of the tree; on several, a node
    raises when any point fails, with no promise as to which error.
    """
    match expr:
        case IntConst(value=v):
            return _constant(v % p**n), n
        case RatConst(numerator=a, denominator=b):
            try:
                value = from_rational(a, b, p, n).residue
            except (ZeroDivisionError, InexactDivisionError) as exc:
                return _failing(type(exc), str(exc)), n
            return _constant(value), n
        case Var(index=k) | DigitSum(var_index=k) if not 1 <= k <= arity:
            return _failing(ValueError, f"expression uses x{k} but the point has arity {arity}"), n
        case Var(index=k):
            return itemgetter(k - 1), n
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b):
            (ca, na), (cb, nb) = _compile(a, p, n, arity), _compile(b, p, n, arity)
            if isinstance(expr, Add):
                return (lambda cols: list(map(add, ca(cols), cb(cols)))), min(na, nb)
            if isinstance(expr, Sub):
                return (lambda cols: list(map(sub, ca(cols), cb(cols)))), min(na, nb)
            modulus = p ** min(na, nb)
            return ((lambda cols: list(map(mod, map(mul, ca(cols), cb(cols)), repeat(modulus)))),
                    min(na, nb))
        case Pow(base=b, exponent=e):
            cb, nb = _compile(b, p, n, arity)
            modulus = p**nb
            return (lambda cols: list(map(pow, cb(cols), repeat(e), repeat(modulus)))), nb
        case DivP(operand=c, exponent=e):
            cc, nc = _compile(c, p, n, arity)
            if e < 0:
                return _failing(ValueError, f"exponent must be >= 0, got {e}", cc), nc
            check = p ** min(e, nc)  # is p^e whenever the division can succeed
            inexact = f"value is not divisible by p^{e} (p={p})"
            exhausted = f"dividing by p^{e} leaves no known digits (precision {nc})"

            def divp(cols):
                rs = cc(cols)
                if any(map(mod, rs, repeat(check))):
                    if cols[-1] is None:
                        raise InexactDivisionError(inexact)
                    cols[-1].update(i for i, r in enumerate(rs) if r % check)
                    rs = [0 if r % check else r for r in rs]
                if nc <= e and _live(cols):
                    raise PrecisionExhaustedError(exhausted)
                return list(map(floordiv, rs, repeat(check)))

            return divp, max(nc - e, 1)
        case DigitSum(exponent=e) if e < 1:  # 0^0 = 1 would weigh the zeros above the top
            return _failing(ValueError, f"digitsum exponent must be >= 1, got {e}"), n
        case DigitSum(var_index=k, coeffs=cs, exponent=e):
            coordinate, power = itemgetter(k - 1), _DigitPowers(e, p**n).__getitem__
            width = _digit_walk(p)[0]
            weights = [p ** (j % width) * _poly_eval(cs, j) for j in range(n)]  # p^t a(bW + t)
            slices = [weights[j : j + width] for j in range(0, n, width)]
            slots = [(None, 0)] * len(slices)  # what _digit_sum last met at each block position

            def block_sum(b, digits):  # d^e < p^W is no wider than a weight: a product per digit
                return sum(map(mul, slices[b], map(power, digits)))

            if e > width:  # d^e grows to N digits: one product by it per distinct digit d
                def block_sum(b, digits):
                    groups = {}
                    for d, w in zip(digits, slices[b]):
                        groups[d] = groups.get(d, 0) + w
                    return sum(power(d) * w for d, w in groups.items())

            return (lambda cols: [_digit_sum(x, p, block_sum, slots) for x in coordinate(cols)]), n
    return _failing(TypeError, f"not an expression node: {expr!r}"), n


_last: tuple = (None,) * 5  # (body, p, N, arity, column form) of the latest compile


def divp_budget(expr: FuncExpr) -> int:
    """Worst-case total divp exponent along any evaluation path.

    Evaluating at input precision N + divp_budget(expr) guarantees the
    result carries at least N digits.
    """
    match expr:
        case IntConst() | RatConst() | Var() | DigitSum():
            return 0
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b):
            return max(divp_budget(a), divp_budget(b))
        case Pow(base=b):
            return divp_budget(b)
        case DivP(operand=c, exponent=e):
            return e + divp_budget(c)
    raise TypeError(f"not an expression node: {expr!r}")


def as_point_function(defn: FuncDef) -> FuncDef:
    """The definition itself, which is callable on points of its arity."""
    return defn


def as_univariate(defn: FuncDef) -> FuncDef:
    """A one-variable definition, which is callable on single values."""
    if defn.arity != 1:
        raise ValueError(f"expected arity 1, got {defn.arity}")
    return defn


def well_defined_check(
    F, arity: int, prime: int, precision: int, samples: int, seed: int = 0,
) -> SampledReport:
    """Randomized totality check: a point where some divp does not divide exactly fails.

    F is an evaluator of that arity, such as a FuncDef. Zero failures is
    evidence, not proof; any failure disproves totality.
    """
    F = on_columns(F, prime, precision, arity, undefined=(InexactDivisionError,))
    modulus = prime**precision

    def draw(rng):
        return tuple(rng.randrange(modulus) for _ in range(arity))

    def decide(points):
        residues, _ = F(points)
        return [failed_check(xs) for xs, r in zip(points, residues) if r is None]

    return sampled_scan(draw, samples, seed, prime, "the totality check at {}".format, "failures",
                        decide=decide, prime=prime, precision=precision, arity=arity)
