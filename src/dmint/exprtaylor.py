"""Truncated-Taylor (jet) evaluation and differentiation of expressions.

A jet of order m is one float array of shape (m, points): row k holds
the Taylor coefficient c_k of a function at every expansion point, and
the k-th derivative is k! * c_k.  Jet arithmetic is exact
truncated-series arithmetic in double precision, so one walk of the
tree on the jet (x0, 1, 0, ...) yields the first m derivatives at every
point to roundoff; :func:`evaluate` is that walk at order 1.  A sum or
difference of jets is numpy's, row by row; between arrays ``*`` is the
elementwise product, and the truncated (Cauchy) product is
:func:`_jet_mul`.  Each element goes through exactly the operations of
a one-point jet: a sum of products is ``math.fsum`` at each point, and
the elementary functions are libm's, element by element (the square
root, correctly rounded by IEEE 754, is numpy's).  An array of points
therefore gives, bit for bit, what each point gives alone.  The module
owns every libm call that a sample value depends on, pow for the D^(m)
rows (:func:`power_table`) included: each reads the one table
:data:`LIBM` at call time, where another libm can stand in.

The trees come from :mod:`dmint.expr`, the package's one grammar.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import Call, Expr, Neg, Num, PiConst, Pow, Var, left_chain, to_text


class ExprDomainError(ValueError):
    """Evaluation failed in one sub-expression, named in the message.

    Each jet operation raises only its reason; the walk adds the failing
    node once: "<reason> in '<node>'" where a value leaves the domain
    (log, sqrt, division, a power), "overflow in '<node>'" where one
    leaves the float range (exp, a fractional power, a sum of jet
    products, a literal).  ``__cause__`` is the operation's own error.
    """


# Every libm call that a sample value depends on reads this table at call time.
LIBM = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos, "pow": math.pow}


def _apply(name, value):
    """``LIBM[name]`` element by element: numpy's own differ from libm in the last bit."""
    return np.fromiter(map(LIBM[name], value.tolist()), float, value.size)


def power_table(points, exponents) -> np.ndarray:
    """x**p by libm's pow, row i for ``exponents[i]`` and column l for ``points[l]``.

    Each distinct power once; inf beyond the float range, as numpy's.
    """
    row = {p: n for n, p in enumerate(sorted(set(exponents)))}
    bases, args = list(points) * len(row), [p for p in row for _ in points]
    try:
        table = np.fromiter(map(LIBM["pow"], bases, args), float, len(bases))
    except OverflowError:
        table = np.fromiter(map(_pow_or_inf, bases, args), float, len(bases))
    return table.reshape(len(row), len(points))[[row[p] for p in exponents]]


def _pow_or_inf(x, p):
    try:
        return LIBM["pow"](x, p)
    except OverflowError:
        return math.inf


# -- jets --------------------------------------------------------------------
# No jet function writes into an operand: one jet of x serves every x of
# the tree.


def _constant(value, like: np.ndarray) -> np.ndarray:
    """The jet (float(value), 0, 0, ...) of the shape of ``like``."""
    out = np.zeros_like(like)
    out[0] = float(value)
    return out


def _fsum(terms: np.ndarray):
    """``math.fsum`` over the rows of ``terms``, at each point (column).

    One term gives ``term + 0.0``, which is what fsum gives (it maps -0.0
    to 0.0); no terms give 0.0.  More terms run fsum, which raises on
    overflow and on inf - inf.
    """
    if len(terms) < 2:
        return terms[0] + 0.0 if len(terms) else 0.0
    return np.fromiter(map(math.fsum, terms.T.tolist()), float, terms.shape[1])


def _jet_mul(a, b):
    """The truncated product: c_k is the fsum of a_i * b_(k-i), i = 0..k."""
    out = np.empty_like(a)
    for k in range(len(a)):
        out[k] = _fsum(a[:k + 1] * b[k::-1])
    return out


def _jet_div(a, b):
    if (b[0] == 0.0).any():
        raise ZeroDivisionError("division by zero")
    out = np.empty_like(a)
    for k in range(len(a)):
        out[k] = (a[k] - _fsum(out[:k] * b[k:0:-1])) / b[0]
    return out


def _jet_exp(u):
    ju = np.arange(len(u))[:, None] * u  # row j is j * u_j
    out = np.empty_like(u)
    out[0] = _apply("exp", u[0])
    for k in range(1, len(u)):
        out[k] = _fsum(ju[1:k + 1] * out[k - 1::-1]) / k
    return out


def _jet_log(u):
    if (u[0] <= 0.0).any():
        raise ValueError("log of a non-positive value")
    out = np.empty_like(u)
    out[0] = _apply("log", u[0])
    for k in range(1, len(u)):
        acc = k * u[k] - _fsum(np.arange(1, k)[:, None] * out[1:k] * u[k - 1:0:-1])
        out[k] = acc / (k * u[0])
    return out


def _jet_sin_cos(u, sin_order: int, cos_order: int):
    """sin(u) to ``sin_order`` coefficients and cos(u) to ``cos_order``.

    Coefficient k of either reads the other only below k, so a caller that
    needs one of them to order K asks for the other to order K - 1.
    """
    ju = np.arange(len(u))[:, None] * u  # row j is j * u_j
    s = np.empty((sin_order, u.shape[1]))
    c = np.empty((cos_order, u.shape[1]))
    if sin_order:
        s[0] = _apply("sin", u[0])
    if cos_order:
        c[0] = _apply("cos", u[0])
    for k in range(1, max(sin_order, cos_order)):
        if k < sin_order:
            s[k] = _fsum(ju[1:k + 1] * c[k - 1::-1]) / k
        if k < cos_order:
            c[k] = -_fsum(ju[1:k + 1] * s[k - 1::-1]) / k
    return s, c


def _jet_sqrt(u):
    if (u[0] < 0.0).any():
        raise ValueError("sqrt of a negative value")
    out = np.empty_like(u)
    # IEEE 754 rounds a square root correctly, so numpy's is the math module's.
    out[0] = np.sqrt(u[0])
    if len(u) > 1 and (out[0] == 0.0).any():
        raise ValueError("sqrt is not differentiable at 0")
    for k in range(1, len(u)):
        out[k] = (u[k] - _fsum(out[1:k] * out[k - 1:0:-1])) / (2.0 * out[0])
    return out


# sinc(z) = sin(z)/z continued by 1 at z = 0.  Near zero the quotient form
# breaks down, so a fixed-length Maclaurin polynomial in z**2 is used; its
# tail is far below double roundoff for |z| <= 0.5.
_SINC_TERMS = [(-1.0) ** n / math.factorial(2 * n + 1) for n in range(12)]


def _jet_sinc(u):
    # Each point takes its own branch; grid points often all take the quotient.
    big = abs(u[0]) >= 0.5
    if big.all():
        return _sinc_quotient(u)
    out = np.empty_like(u)
    out[:, big] = _sinc_quotient(u[:, big])
    out[:, ~big] = _sinc_series(u[:, ~big])
    return out


def _sinc_quotient(u):
    s, _ = _jet_sin_cos(u, len(u), len(u) - 1)
    return _jet_div(s, u)


def _sinc_series(u):
    square = _jet_mul(u, u)
    acc = _constant(_SINC_TERMS[-1], u)
    for coeff in reversed(_SINC_TERMS[:-1]):
        # acc * square plus the constant jet (coeff, 0, 0, ...).  Adding its
        # zero coefficients would only map -0.0 to 0.0, which the product's
        # fsum has done already.
        acc = _jet_mul(acc, square)
        acc[0] += coeff
    return acc


# The one operation of each operator and named function.
_JET_OPS = {
    "+": np.add, "-": np.subtract, "*": _jet_mul, "/": _jet_div,
    "sin": lambda u: _jet_sin_cos(u, len(u), len(u) - 1)[0],
    "cos": lambda u: _jet_sin_cos(u, len(u) - 1, len(u))[1],
    "exp": _jet_exp,
    "log": _jet_log,
    "sqrt": _jet_sqrt,
    "sinc": _jet_sinc,
}


def _jet_pow(u, e):
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
        if (u[0] <= 0.0).any():
            raise ValueError("fractional power of a non-positive value")
        return _jet_exp(_jet_mul(_constant(e, u), _jet_log(u)))
    one = _constant(1.0, u)
    k = abs(e.numerator)
    if not k:
        return one
    # The factor is 1 * u, the first product of multiplying k times onto 1;
    # square and multiply never multiplies by the identity after it.
    power, factor = None, _jet_mul(one, u)
    while k:
        if k & 1:
            power = factor if power is None else _jet_mul(power, factor)
        k >>= 1
        if k:
            factor = _jet_mul(factor, factor)
    if e > 0:
        return power
    if (power[0] == 0.0).any():
        raise ZeroDivisionError("zero raised to a negative power")
    return _jet_div(one, power)


def _jet_eval(node: Expr, x: np.ndarray) -> np.ndarray:
    # The operands first, outside the try: an operand's ExprDomainError
    # passes as it is, and what this node's one operation raises names it.
    # Along a chain: left operand, right operand, operation.
    node, ops = left_chain(node)
    if isinstance(node, Var):
        value = x
    elif isinstance(node, (Num, PiConst)):
        constant = math.pi if isinstance(node, PiConst) else node.value
        value = _named(node, _constant, constant, x)
    elif isinstance(node, Neg):
        value = _named(node, np.negative, _jet_eval(node.operand, x))
    elif isinstance(node, Pow):
        value = _named(node, _jet_pow, _jet_eval(node.base, x), node.exponent)
    elif isinstance(node, Call):
        value = _named(node, _JET_OPS[node.func], _jet_eval(node.arg, x))
    else:
        raise TypeError("unknown node %r" % (node,))
    for op in ops:
        value = _named(op, _JET_OPS[op.op], value, _jet_eval(op.right, x))
    return value


def _named(node: Expr, op, *args):
    """``op(*args)``, the one operation of ``node``; a failure names the node."""
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
        points = np.asarray(x0, dtype=float).ravel()
        x = np.zeros((count, points.size))  # the jet (x0, 1, 0, ...)
        x[0], x[1:2] = points, 1.0
        factorials = np.array([_factorial(k) for k in range(count)])[:, None]
        rows = factorials * _jet_eval(ast, x)
    return rows[:, 0].tolist() if np.ndim(x0) == 0 else rows


def evaluate(ast: Expr, x0):
    """Plain evaluation at a point or at every element of an array.

    An array gives an array of the same shape and a float gives a float:
    row 0 of :func:`derivatives` at ``count`` 1.
    """
    points = np.asarray(x0, dtype=float)
    values = derivatives(ast, points, 1)[0]
    return values if points.ndim == 0 else values.reshape(points.shape)
