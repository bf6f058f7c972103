"""The expression grammar: tokenizer, parser, syntax tree and printer.

The grammar::

    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := ("-")? power
    power   := atom ("^" exponent)?
    atom    := NUMBER | "pi" | "x" | NAME "(" expr ")" | "(" expr ")"

NUMBER is a decimal literal, NAME is one of sin, cos, exp, log, sqrt,
sinc, and exponent is a rational literal (``2``, ``-3``, ``(1/2)``).  Power
binds tighter than unary minus, which binds tighter than * and /.  This
is the package's only grammar; its entry points differ in one rule, and
no text means two things in them:

* integrand text, :func:`parse`: a bare ``x^3/2`` is refused as
  ambiguous (write ``x^(3/2)`` or ``(x^3)/2``), while ``x^2/x`` is a
  division;
* rational text, :func:`dmint.symseries.parse_rational`: ``x^3/2`` is
  (x^3)/2, as :func:`dmint.symseries.to_text` writes it.

The tree is evaluated by :mod:`dmint.exprtaylor` (jets, numpy) and
lowered to an exact rational function by :mod:`dmint.symseries`.  This
module imports neither numpy nor either of them, so the exact half of the
package starts without numpy.

A long sum nests as deep as it is long; :func:`left_chain` walks such a
chain in a loop for every reader of the tree: the jets, the rational
lowering and the printer.  The nodes are plain slotted records with no
``==``, ``hash`` or ``repr`` of their own; a tree is compared through
:func:`to_text`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._stats import count


class ExprSyntaxError(ValueError):
    """Syntax error with the offending source position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (position %d)" % (message, position))
        self.position = position


class SingularSystemError(ArithmeticError):
    """The extrapolation system is numerically singular; no value is returned.

    Raised by :mod:`dmint.dtransform`, which re-exports it; it is defined
    here so that the command line can map it to its exit code without
    loading numpy.
    """

    def __init__(self, message: str, nu: int | None = None):
        super().__init__(message)
        self.nu = nu


FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "sinc")


class Expr:
    """A node of the tree.  Its fields are its ``__slots__``, which the
    constructor takes in order: ``BinOp("+", left, right)``."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            setattr(self, name, value)


class Num(Expr):
    __slots__ = ("value",)  # a Fraction


class PiConst(Expr):
    __slots__ = ()


class Var(Expr):
    __slots__ = ()


class Neg(Expr):
    __slots__ = ("operand",)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")  # op is one of + - * /


class Pow(Expr):
    __slots__ = ("base", "exponent")  # the exponent is a Fraction


class Call(Expr):
    __slots__ = ("func", "arg")  # func is one of FUNCTIONS


def left_chain(node: Expr) -> tuple[Expr, list[BinOp]]:
    """A left-nested chain's first operand and its operations, innermost first."""
    ops = []
    while isinstance(node, BinOp):
        ops.append(node)
        node = node.left
    return node, ops[::-1]


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
    def __init__(self, source: str, rational: bool = False):
        self.tokens = _tokenize(source)
        self.index = 0
        # x^3/2 is (x^3)/2 in rational text and refused in integrand text.
        self.rational = rational

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
        return Pow(base, self.exponent(base))

    def exponent(self, base: Expr) -> Fraction:
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
        slash = self.peek()[1] == "/" and self.tokens[self.index + 1][0] == "num"
        if slash and not (wrapped or self.rational):
            text = _render(base, _ATOM)
            top = "-" + value if sign < 0 else value
            over = self.tokens[self.index + 1][1]
            raise ExprSyntaxError("ambiguous exponent: write %s^(%s/%s) or (%s^%s)/%s"
                                  % (text, top, over, text, top, over), self.peek()[2])
        if slash and wrapped:
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
    """Parse an integrand expression into its AST; ``x^1/2`` is refused."""
    count("expr.parse")
    return _Parser(source).parse()


def has_variable(node: Expr) -> bool:
    """Whether x occurs anywhere in the expression, at any depth."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            return True
        if isinstance(node, Expr):
            # The fields of a node; a Fraction or a name is skipped when popped.
            stack.extend(getattr(node, name) for name in node.__slots__)
    return False


# -- printing ----------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY = 3
_POWER = 4
_ATOM = 5
_BARE_EXPONENT_SUFFIX = re.compile(r"\^\d+$")


def _render(node: Expr, context: int) -> str:
    node, ops = left_chain(node)
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
        suffix = ("^%s" if e.denominator == 1 and e >= 0 else "^(%s)") % e
        text, prec = _render(node.base, _ATOM) + suffix, _POWER
    else:
        raise TypeError("unknown node %r" % (node,))
    for op in ops:
        left = "(%s)" % text if prec < _PRECEDENCE[op.op] else text
        prec = _PRECEDENCE[op.op]
        right = _render(op.right, prec + 1)
        if op.op == "/" and _BARE_EXPONENT_SUFFIX.search(left) \
                and right[:1] in "0123456789.":
            # "x^2/3" is an ambiguous exponent to the integrand parser.
            right = "(%s)" % right
        text = "%s%s%s" % (left, op.op, right)
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
