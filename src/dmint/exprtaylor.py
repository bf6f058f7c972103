"""Truncated-Taylor (jet) evaluation and differentiation of expressions.

A jet of order m carries the Taylor coefficients c_0..c_{m-1} of a
function at many expansion points at once, each coefficient an array
with one element per point; the k-th derivative is k! * c_k.  Jet
arithmetic is exact truncated-series arithmetic in double precision, so
one walk of the tree on the jet (x0, 1, 0, ...) yields the first m
derivatives at every point to roundoff; :func:`evaluate` is that walk
at order 1.  Each element goes through exactly the operations of a
one-point jet: a sum of products is ``math.fsum`` at each point, and
the elementary functions are the math module's, applied element by
element (the square root, correctly rounded by IEEE 754, is numpy's).
An array of points therefore gives, bit for bit, what each
point gives alone.

The trees come from :mod:`dmint.expr`, the package's one grammar.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import BinOp, Call, Expr, Neg, Num, PiConst, Pow, Var, to_text
from .symseries import _power


class ExprDomainError(ValueError):
    """Evaluation failed in one sub-expression, named in the message.

    Each jet operation raises only its reason; the walk adds the failing
    node once: "<reason> in '<node>'" where a value leaves the domain
    (log, sqrt, division, a power), "overflow in '<node>'" where one
    leaves the float range (exp, a fractional power, a sum of jet
    products, a literal).  ``__cause__`` is the operation's own error.
    """


# -- jets --------------------------------------------------------------------


class Jet:
    """Truncated Taylor coefficients c_0..c_{m-1} at many expansion points.

    Every coefficient is a 1-D float array with one element per point, and
    every element goes through exactly the operations of a scalar jet.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @classmethod
    def variable(cls, x0, order: int) -> "Jet":
        """The jet (x0, 1, 0, ...) at a point or at every element of an array."""
        x = np.asarray(x0, dtype=float).ravel()
        return cls([x, np.ones_like(x)][:order] + [np.zeros_like(x)] * (order - 2))

    @classmethod
    def constant(cls, value: float, order: int, size: int) -> "Jet":
        coeffs = [np.full(size, float(value))]
        if order > 1:
            coeffs += [np.zeros(size)] * (order - 1)
        return cls(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def size(self) -> int:
        return len(self.coeffs[0])

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "Jet":
        return Jet(-a for a in self.coeffs)

    def __mul__(self, other: "Jet") -> "Jet":
        a, b = self.coeffs, other.coeffs
        return Jet(_fsum([a[i] * b[k - i] for i in range(k + 1)])
                   for k in range(len(a)))

    def __repr__(self):
        return "Jet(%r)" % (self.coeffs,)


def _fsum(terms):
    """``math.fsum`` at each point over a list of coefficient arrays.

    One term gives ``term + 0.0``, which is what fsum gives (it maps -0.0
    to 0.0); no terms give 0.0.  Two terms whose sum is finite everywhere
    give ``a + b + 0.0``: one IEEE addition is the correctly rounded sum
    that fsum returns.  Any other case runs fsum, which raises on overflow
    and on inf - inf.
    """
    if len(terms) < 2:
        return terms[0] + 0.0 if terms else 0.0
    if len(terms) == 2:
        total = terms[0] + terms[1]
        if np.isfinite(total).all():
            total += 0.0
            return total
    columns = zip(*[term.tolist() for term in terms])
    return np.fromiter(map(math.fsum, columns), float, len(terms[0]))


def _apply(fn, value):
    """A math-module function of a coefficient, element by element.

    numpy's own exp and log differ from the C library's in the last bit
    on a few percent of inputs; calling the math function on each element
    keeps array and scalar evaluations identical.  Its errors propagate.
    """
    return np.fromiter(map(fn, value.tolist()), float, value.size)


def _jet_div(a: Jet, b: Jet) -> Jet:
    if (b.coeffs[0] == 0.0).any():
        raise ZeroDivisionError("division by zero")
    out = []
    for k in range(a.order):
        acc = a.coeffs[k] - _fsum([out[i] * b.coeffs[k - i] for i in range(k)])
        out.append(acc / b.coeffs[0])
    return Jet(out)


def _jet_exp(u: Jet) -> Jet:
    out = [_apply(math.exp, u.coeffs[0])]
    for k in range(1, u.order):
        out.append(_fsum([j * u.coeffs[j] * out[k - j] for j in range(1, k + 1)]) / k)
    return Jet(out)


def _jet_log(u: Jet) -> Jet:
    if (u.coeffs[0] <= 0.0).any():
        raise ValueError("log of a non-positive value")
    out = [_apply(math.log, u.coeffs[0])]
    for k in range(1, u.order):
        acc = k * u.coeffs[k] - _fsum([j * out[j] * u.coeffs[k - j] for j in range(1, k)])
        out.append(acc / (k * u.coeffs[0]))
    return Jet(out)


def _jet_sin_cos(u: Jet, sin_order: int, cos_order: int) -> tuple[Jet, Jet]:
    """sin(u) to ``sin_order`` coefficients and cos(u) to ``cos_order``.

    Coefficient k of either reads the other only below k, so a caller that
    needs one of them to order K asks for the other to order K - 1.
    """
    s = [_apply(math.sin, u.coeffs[0])] if sin_order else []
    c = [_apply(math.cos, u.coeffs[0])] if cos_order else []
    for k in range(1, max(sin_order, cos_order)):
        if k < sin_order:
            s.append(_fsum([j * u.coeffs[j] * c[k - j] for j in range(1, k + 1)]) / k)
        if k < cos_order:
            c.append(-_fsum([j * u.coeffs[j] * s[k - j] for j in range(1, k + 1)]) / k)
    return Jet(s), Jet(c)


def _jet_sqrt(u: Jet) -> Jet:
    if (u.coeffs[0] < 0.0).any():
        raise ValueError("sqrt of a negative value")
    # IEEE 754 rounds a square root correctly, so numpy's is the math module's.
    out = [np.sqrt(u.coeffs[0])]
    if u.order > 1 and (out[0] == 0.0).any():
        raise ValueError("sqrt is not differentiable at 0")
    for k in range(1, u.order):
        acc = u.coeffs[k] - _fsum([out[i] * out[k - i] for i in range(1, k)])
        out.append(acc / (2.0 * out[0]))
    return Jet(out)


# sinc(z) = sin(z)/z continued by 1 at z = 0.  Near zero the quotient form
# breaks down, so a fixed-length Maclaurin polynomial in z**2 is used; its
# tail is far below double roundoff for |z| <= 0.5.
_SINC_TERMS = [(-1.0) ** n / math.factorial(2 * n + 1) for n in range(12)]


def _jet_sinc(u: Jet) -> Jet:
    # Each point takes its own branch; grid points often all take the quotient.
    big = abs(u.coeffs[0]) >= 0.5
    if big.all():
        return _sinc_quotient(u)
    quotient = _sinc_quotient(Jet(c[big] for c in u.coeffs))
    series = _sinc_series(Jet(c[~big] for c in u.coeffs))
    out = [np.empty(u.size) for _ in range(u.order)]
    for c, q, s in zip(out, quotient.coeffs, series.coeffs):
        c[big], c[~big] = q, s
    return Jet(out)


def _sinc_quotient(u: Jet) -> Jet:
    s, _ = _jet_sin_cos(u, u.order, u.order - 1)
    return _jet_div(s, u)


def _sinc_series(u: Jet) -> Jet:
    square = u * u
    acc = Jet.constant(_SINC_TERMS[-1], u.order, u.size)
    for coeff in reversed(_SINC_TERMS[:-1]):
        # acc * square plus the constant jet (coeff, 0, 0, ...).  Adding its
        # zero coefficients would only map -0.0 to 0.0, which the product's
        # fsum has done already.
        acc = acc * square
        acc.coeffs[0] += coeff
    return acc


# The one operation of each operator and named function.
_JET_OPS = {
    "+": Jet.__add__, "-": Jet.__sub__, "*": Jet.__mul__, "/": _jet_div,
    "sin": lambda u: _jet_sin_cos(u, u.order, u.order - 1)[0],
    "cos": lambda u: _jet_sin_cos(u, u.order - 1, u.order)[1],
    "exp": _jet_exp,
    "log": _jet_log,
    "sqrt": _jet_sqrt,
    "sinc": _jet_sinc,
}


def _jet_pow(u: Jet, e) -> Jet:
    """u**e for a rational e; raises only the reason it fails.

    An integer e is square and multiply on 1 * u, about 2*log2|e| jet
    products, and a negative one divides 1 by that power.  Up to |e| = 3
    the products are those of multiplying |e| times, regrouped: each is a
    sum of the same rounded terms, and fsum is exact.  From |e| = 4 the
    grouping can change the last bits of a coefficient.  A fractional e is
    exp(e * log u).  The failures are ZeroDivisionError("zero raised to a
    negative power"), also where u**|e| underflows to 0, ValueError
    ("fractional power of a non-positive value") and OverflowError.
    """
    if e.denominator != 1:
        if (u.coeffs[0] <= 0.0).any():
            raise ValueError("fractional power of a non-positive value")
        return _jet_exp(Jet.constant(float(e), u.order, u.size) * _jet_log(u))
    one = Jet.constant(1.0, u.order, u.size)
    k = abs(e.numerator)
    # The factor is 1 * u, the first product of multiplying k times onto 1;
    # from k = 1 on, square and multiply never makes the identity.
    power = _power(one * u, k, None) if k else one
    if e >= 0:
        return power
    if (power.coeffs[0] == 0.0).any():
        raise ZeroDivisionError("zero raised to a negative power")
    return _jet_div(one, power)


def _jet_eval(node: Expr, x: Jet) -> Jet:
    # The operands first, outside the try: an operand's ExprDomainError
    # passes as it is, and what this node's one operation raises names it.
    if isinstance(node, Var):
        return x
    if isinstance(node, (Num, PiConst)):
        value = math.pi if isinstance(node, PiConst) else node.value
        op, args = Jet.constant, (value, x.order, x.size)
    elif isinstance(node, BinOp):
        op, args = _JET_OPS[node.op], (_jet_eval(node.left, x), _jet_eval(node.right, x))
    elif isinstance(node, Neg):
        op, args = Jet.__neg__, (_jet_eval(node.operand, x),)
    elif isinstance(node, Pow):
        op, args = _jet_pow, (_jet_eval(node.base, x), node.exponent)
    elif isinstance(node, Call):
        op, args = _JET_OPS[node.func], (_jet_eval(node.arg, x),)
    else:
        raise TypeError("unknown node %r" % (node,))
    try:
        return op(*args)
    except OverflowError as exc:
        raise ExprDomainError("overflow in '%s'" % to_text(node)) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprDomainError("%s in '%s'" % (exc, to_text(node))) from exc


def _factorial(k: int) -> float:
    """k! rounded to a float as int * float rounds it, or inf beyond the range."""
    try:
        return float(math.factorial(k))
    except OverflowError:
        return math.inf


def derivatives(ast: Expr, x0, count: int):
    """Values f(x0), f'(x0), ..., f^(count-1)(x0) from one jet evaluation.

    A float gives a list of ``count`` floats.  An array of n points gives
    an array of shape (count, n) whose column l is what the float x0[l]
    gives, bit for bit: every point goes through the same operations.
    Overflow in an elementwise operation, k! * c_k included, gives inf or
    nan as in scalar float arithmetic, with no warning.  Any other failure
    at any point raises :class:`ExprDomainError` and no other error:
    "overflow in ..." where a sum of jet products (which ``math.fsum``
    refuses), an exp or a literal leaves the float range, else the reason
    a value left the domain.  It names the first failing sub-expression of
    the walk, which need not be the one a point-by-point loop meets first.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    with np.errstate(all="ignore"):
        coeffs = _jet_eval(ast, Jet.variable(x0, count)).coeffs
        rows = np.array([_factorial(k) * c for k, c in enumerate(coeffs)])
    return rows[:, 0].tolist() if np.ndim(x0) == 0 else rows


def evaluate(ast: Expr, x0):
    """Plain evaluation at a point or at every element of an array.

    An array gives an array of the same shape and a float gives a float:
    row 0 of :func:`derivatives` at ``count`` 1.
    """
    points = np.asarray(x0, dtype=float)
    values = derivatives(ast, points, 1)[0]
    return values if points.ndim == 0 else values.reshape(points.shape)
