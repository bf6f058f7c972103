"""Expression parsing and truncated-Taylor (jet) differentiation.

The grammar::

    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := ("-")? power
    power   := atom ("^" exponent)?
    atom    := NUMBER | "pi" | "x" | NAME "(" expr ")" | "(" expr ")"

NUMBER is a decimal literal, NAME is one of sin, cos, exp, log, sqrt,
sinc, and exponent is a rational literal (``2``, ``-3``, ``(1/2)``).  Power
binds tighter than unary minus, which binds tighter than * and /.  This
is the package's only grammar; its entry points differ in one rule:

* integrand text, :func:`parse`: an exponent also takes a bare ``/digits``
  (longest match), so ``x^1/2`` is x^(1/2) while ``x^2/x`` is a division;
* rational text, :func:`dmint.symseries.parse_rational`: ``x^3/2`` is
  (x^3)/2, as :func:`dmint.symseries.to_text` writes it.

A jet of order m carries the Taylor coefficients c_0..c_{m-1} of a
function at an expansion point; the k-th derivative is k! * c_k.  Jet
arithmetic is exact truncated-series arithmetic in double precision, so
evaluating an expression on the jet (x0, 1, 0, ...) yields the first m
derivatives at x0 to roundoff.

Plain values come from the same walk on order-1 jets whose coefficient
is a numpy array of points: :func:`evaluate` takes a whole array of nodes
in one call.  An order-1 jet holds no sums, so each element goes through
exactly the operations of a scalar evaluation, and the elementary
functions are the math module's, applied element by element; an array
evaluation is therefore bit-identical to evaluating each point alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class ExprSyntaxError(ValueError):
    """Syntax error with the offending source position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (position %d)" % (message, position))
        self.position = position


class ExprDomainError(ValueError):
    """Evaluation left the domain of a sub-expression (log/sqrt/division)
    or overflowed it (exp)."""


FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "sinc")


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction


@dataclass(frozen=True)
class PiConst(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<num>\d+(?:\.\d*)?|\.\d+)|(?P<name>[A-Za-z_]\w*)"
                       r"|(?P<op>[-+*/^()])|(?P<space>\s+)")


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError("unexpected character %r" % source[pos], pos)
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, bare_fraction_exponents: bool = True):
        self.tokens = _tokenize(source)
        self.index = 0
        # x^1/2 is x^(1/2) in integrand text, (x^1)/2 in rational text.
        self.bare_fraction_exponents = bare_fraction_exponents

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str):
        kind, value, pos = self.advance()
        if value != text:
            raise ExprSyntaxError("expected %r, found %r" % (text, value or "end"), pos)

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected %r" % value, pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.advance()
        return Pow(base, self.exponent())

    def exponent(self) -> Fraction:
        wrapped = self.peek()[1] == "("
        if wrapped:
            self.advance()
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        kind, value, pos = self.advance()
        if kind != "num":
            raise ExprSyntaxError("expected a rational exponent", pos)
        result = Fraction(value)
        if ((wrapped or self.bare_fraction_exponents) and self.peek()[1] == "/"
                and self.tokens[self.index + 1][0] == "num"):
            self.advance()
            kind, value, pos = self.advance()
            if Fraction(value) == 0:
                raise ExprSyntaxError("zero exponent denominator", pos)
            result /= Fraction(value)
        if wrapped:
            self.expect(")")
        return sign * result

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(Fraction(value))
        if kind == "name":
            if value == "x":
                return Var()
            if value == "pi":
                return PiConst()
            if value in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(value, arg)
            raise ExprSyntaxError("unknown identifier %r" % value, pos)
        if value == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError("unexpected %r" % (value or "end"), pos)


def parse(source: str) -> Expr:
    """Parse an integrand expression into its AST; ``x^1/2`` is x^(1/2)."""
    return _Parser(source).parse()


def has_variable(node: Expr) -> bool:
    """Whether x occurs anywhere in the expression."""
    return isinstance(node, Var) or any(
        isinstance(child, Expr) and has_variable(child)
        for child in vars(node).values())


# -- printing ----------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY = 3
_POWER = 4
_ATOM = 5
_BARE_EXPONENT_SUFFIX = re.compile(r"\^\d+$")


def _render(node: Expr, context: int) -> str:
    if isinstance(node, Num):
        text, prec = _render_number(node.value)
    elif isinstance(node, PiConst):
        text, prec = "pi", _ATOM
    elif isinstance(node, Var):
        text, prec = "x", _ATOM
    elif isinstance(node, Call):
        text, prec = "%s(%s)" % (node.func, _render(node.arg, 0)), _ATOM
    elif isinstance(node, Neg):
        text, prec = "-" + _render(node.operand, _UNARY), _UNARY
    elif isinstance(node, Pow):
        e = node.exponent
        if e.denominator == 1 and e >= 0:
            suffix = "^%d" % e
        elif e.denominator == 1:
            suffix = "^(%d)" % e
        else:
            suffix = "^(%d/%d)" % (e.numerator, e.denominator)
        text, prec = _render(node.base, _ATOM) + suffix, _POWER
    elif isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        left = _render(node.left, prec)
        right = _render(node.right, prec + 1)
        if node.op == "/" and _BARE_EXPONENT_SUFFIX.search(left) \
                and right[:1] in "0123456789.":
            # "x^2/3" would re-lex as the exponent 2/3; keep the division.
            right = "(%s)" % right
        text = "%s%s%s" % (left, node.op, right)
    else:
        raise TypeError("unknown node %r" % (node,))
    if prec < context:
        return "(%s)" % text
    return text


def _render_number(value: Fraction) -> tuple[str, int]:
    if value.denominator == 1:
        return str(value.numerator), _ATOM if value >= 0 else _UNARY
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = value.numerator * 10 ** digits // value.denominator
        text = str(abs(scaled)).rjust(digits + 1, "0")
        text = text[:-digits] + "." + text[-digits:]
        if scaled < 0:
            text = "-" + text
        return text, _ATOM if value >= 0 else _UNARY
    # Not exactly representable as a decimal literal; fall back to a
    # quotient, which round-trips by value rather than structure.
    return "(%d/%d)" % (value.numerator, value.denominator), _ATOM


def to_text(node: Expr) -> str:
    """Render the AST in the input grammar; parses back to an equal tree."""
    return _render(node, 0)


# -- jets --------------------------------------------------------------------


class Jet:
    """Truncated Taylor coefficients c_0..c_{m-1} at an expansion point.

    Coefficients are doubles.  An order-1 jet may instead hold one numpy
    array, the values at many points; higher orders need scalar
    coefficients, since their products are exact sums (``math.fsum``).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @classmethod
    def variable(cls, x0: float, order: int) -> "Jet":
        coeffs = [0.0] * order
        coeffs[0] = float(x0)
        if order > 1:
            coeffs[1] = 1.0
        return cls(coeffs)

    @classmethod
    def constant(cls, value: float, order: int) -> "Jet":
        coeffs = [0.0] * order
        coeffs[0] = float(value)
        return cls(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "Jet":
        return Jet(-a for a in self.coeffs)

    def __mul__(self, other: "Jet") -> "Jet":
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            # The fsum of the single product, which turns -0.0 into 0.0.
            return Jet((a[0] * b[0] + 0.0,))
        return Jet(math.fsum(a[i] * b[k - i] for i in range(k + 1))
                   for k in range(len(a)))

    def __repr__(self):
        return "Jet(%r)" % (self.coeffs,)


def _anywhere(mask) -> bool:
    """Whether a test on a coefficient holds at any of its points."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def _apply(fn, value):
    """A math-module function of a coefficient, element by element.

    numpy's own exp and log differ from the C library's in the last bit
    on a few percent of inputs; calling the math function on each element
    keeps array and scalar evaluations identical.  Its errors propagate.
    """
    if isinstance(value, np.ndarray):
        return np.fromiter(map(fn, value.tolist()), float, value.size)
    return fn(value)


def _jet_div(a: Jet, b: Jet) -> Jet:
    if _anywhere(b.coeffs[0] == 0.0):
        raise ZeroDivisionError("division by zero")
    out = [0.0] * a.order
    for k in range(a.order):
        acc = a.coeffs[k] - math.fsum(out[i] * b.coeffs[k - i] for i in range(k))
        out[k] = acc / b.coeffs[0]
    return Jet(out)


def _jet_ipow(u: Jet, k: int) -> Jet:
    if k < 0:
        return _jet_div(Jet.constant(1.0, u.order), _jet_ipow(u, -k))
    result = Jet.constant(1.0, u.order)
    for _ in range(k):
        result = result * u
    return result


def _jet_exp(u: Jet) -> Jet:
    out = [0.0] * u.order
    try:
        out[0] = _apply(math.exp, u.coeffs[0])
    except OverflowError:
        raise ValueError("exp overflow") from None
    for k in range(1, u.order):
        out[k] = math.fsum(j * u.coeffs[j] * out[k - j] for j in range(1, k + 1)) / k
    return Jet(out)


def _jet_log(u: Jet) -> Jet:
    if _anywhere(u.coeffs[0] <= 0.0):
        raise ValueError("log of a non-positive value")
    out = [0.0] * u.order
    out[0] = _apply(math.log, u.coeffs[0])
    for k in range(1, u.order):
        acc = k * u.coeffs[k] - math.fsum(
            j * out[j] * u.coeffs[k - j] for j in range(1, k))
        out[k] = acc / (k * u.coeffs[0])
    return Jet(out)


def _jet_sin_cos(u: Jet) -> tuple[Jet, Jet]:
    s = [0.0] * u.order
    c = [0.0] * u.order
    s[0] = _apply(math.sin, u.coeffs[0])
    c[0] = _apply(math.cos, u.coeffs[0])
    for k in range(1, u.order):
        s[k] = math.fsum(j * u.coeffs[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = -math.fsum(j * u.coeffs[j] * s[k - j] for j in range(1, k + 1)) / k
    return Jet(s), Jet(c)


def _jet_sqrt(u: Jet) -> Jet:
    if _anywhere(u.coeffs[0] < 0.0):
        raise ValueError("sqrt of a negative value")
    out = [0.0] * u.order
    out[0] = _apply(math.sqrt, u.coeffs[0])
    if u.order > 1 and out[0] == 0.0:
        raise ValueError("sqrt is not differentiable at 0")
    for k in range(1, u.order):
        acc = u.coeffs[k] - math.fsum(out[i] * out[k - i] for i in range(1, k))
        out[k] = acc / (2.0 * out[0])
    return Jet(out)


# sinc(z) = sin(z)/z continued by 1 at z = 0.  Near zero the quotient form
# breaks down, so a fixed-length Maclaurin polynomial in z**2 is used; its
# tail is far below double roundoff for |z| <= 0.5.
_SINC_TERMS = [(-1.0) ** n / math.factorial(2 * n + 1) for n in range(12)]


def _jet_sinc(u: Jet) -> Jet:
    big = abs(u.coeffs[0]) >= 0.5
    if not isinstance(big, np.ndarray):
        return _sinc_quotient(u) if big else _sinc_series(u)
    # An array of points: each element takes its own branch.
    z = u.coeffs[0]
    out = np.empty_like(z)
    out[big] = _sinc_quotient(Jet((z[big],))).coeffs[0]
    out[~big] = _sinc_series(Jet((z[~big],))).coeffs[0]
    return Jet((out,))


def _sinc_quotient(u: Jet) -> Jet:
    s, _ = _jet_sin_cos(u)
    return _jet_div(s, u)


def _sinc_series(u: Jet) -> Jet:
    square = u * u
    acc = Jet.constant(_SINC_TERMS[-1], u.order)
    for coeff in reversed(_SINC_TERMS[:-1]):
        acc = acc * square + Jet.constant(coeff, u.order)
    return acc


_JET_FUNCTIONS = {
    "sin": lambda u: _jet_sin_cos(u)[0],
    "cos": lambda u: _jet_sin_cos(u)[1],
    "exp": _jet_exp,
    "log": _jet_log,
    "sqrt": _jet_sqrt,
    "sinc": _jet_sinc,
}


def _jet_eval(node: Expr, x: Jet) -> Jet:
    order = x.order
    if isinstance(node, Num):
        return Jet.constant(float(node.value), order)
    if isinstance(node, PiConst):
        return Jet.constant(math.pi, order)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_jet_eval(node.operand, x)
    if isinstance(node, BinOp):
        left = _jet_eval(node.left, x)
        right = _jet_eval(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            return _jet_div(left, right)
        except ZeroDivisionError as exc:
            raise ExprDomainError("division by zero in '%s'" % to_text(node)) from exc
    if isinstance(node, Pow):
        base = _jet_eval(node.base, x)
        e = node.exponent
        if e.denominator == 1:
            try:
                return _jet_ipow(base, e.numerator)
            except ZeroDivisionError as exc:
                raise ExprDomainError(
                    "zero raised to a negative power in '%s'" % to_text(node)) from exc
        if _anywhere(base.coeffs[0] <= 0.0):
            raise ExprDomainError(
                "fractional power of a non-positive value in '%s'" % to_text(node))
        scaled_log = Jet.constant(float(e), base.order) * _jet_log(base)
        try:
            return _jet_exp(scaled_log)
        except ValueError as exc:
            raise ExprDomainError("overflow in '%s'" % to_text(node)) from exc
    if isinstance(node, Call):
        arg = _jet_eval(node.arg, x)
        try:
            return _JET_FUNCTIONS[node.func](arg)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExprDomainError("%s in '%s'" % (exc, to_text(node))) from exc
    raise TypeError("unknown node %r" % (node,))


def derivatives(ast: Expr, x0: float, count: int) -> list[float]:
    """Values f(x0), f'(x0), ..., f^(count-1)(x0) from one jet evaluation."""
    if count < 1:
        raise ValueError("count must be at least 1")
    result = _jet_eval(ast, Jet.variable(x0, count))
    out = []
    fact = 1
    for k, c in enumerate(result.coeffs):
        if k:
            fact *= k
        out.append(fact * c)
    return out


def evaluate(ast: Expr, x0):
    """Plain evaluation at a point or at every element of an array.

    An array gives an array of the same shape and a float gives a float.
    Either way the values are bit-identical to the first entry of
    :func:`derivatives` at each point: the points ride through one walk
    of the tree as an order-1 jet, which holds no sums.  If any point
    leaves the domain, :class:`ExprDomainError` names the failing
    sub-expression; overflow elsewhere gives inf or nan, as in scalar
    float arithmetic.
    """
    points = np.asarray(x0, dtype=float)
    with np.errstate(all="ignore"):
        value = _jet_eval(ast, Jet((points.ravel(),))).coeffs[0]
    values = np.broadcast_to(value, (points.size,)).reshape(points.shape)
    return float(values) if points.ndim == 0 else values.copy()
