"""Exact arithmetic over generalized rational functions in x**(1/d).

A generalized polynomial is a finite sum ``sum_j c_j * x**(n_j/d)`` with
exact rational coefficients and exponents on a grid of step ``1/d``.
Quotients of two such polynomials form a field that is closed under
differentiation and under substitution of integer-exponent polynomials,
which makes it a convenient computable domain for functions whose
behaviour as x -> +infinity is the object of interest.

Values are immutable.  Every :class:`GeneralizedRational` is canonical:
numerator and denominator share no polynomial factor, the denominator is
monic, all exponents are non-negative, and the exponent grid of each
polynomial is as coarse as its terms allow.  Canonical form makes equality
structural and lets tests assert exact identities, and it gives a value's
order at infinity with no expansion: ``lead_exponent`` and
``integer_step`` read it from the two term maps.  Every product and every
gcd is held to one size budget, and work beyond it raises SizeBudgetError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from . import expr
from ._stats import count


class RationalParseError(ValueError):
    """A rational-function string that does not follow the text format."""


class SizeBudgetError(ValueError):
    """Exact work refused because its result would pass the size budget."""


# The size budget of every polynomial product, estimated from its factors as
# min(t1*t2, span/step + 1) terms on their common exponent grid (t1+t2-1 for
# dense factors) with the sum of their bits, and of every dense gcd list: at
# most _MAX_TERMS terms and _MAX_BITS coefficient bits in all (terms times
# bits), unless no larger than its larger factor.  (x+1)^499, near both
# bounds, takes 0.8 s (x86-64).
_MAX_TERMS = 500
_MAX_BITS = 1_000_000


def _bits(coefficients, terms: int) -> int:
    # The largest coefficient's bits plus log2(terms), which bounds the
    # growth of a coefficient through one product.  a | b has the bits of
    # the larger of a and b.
    largest = max(abs(c.numerator) | c.denominator for c in coefficients)
    return largest.bit_length() - 1 + (terms - 1).bit_length()


def _refuse_oversized(what: str, terms: int, bits: int, base_terms: int, base_size: int):
    if ((terms > _MAX_TERMS and terms > base_terms)
            or (terms * bits > _MAX_BITS and terms * bits > base_size)):
        raise SizeBudgetError(
            "%s too large (about %d terms and %d coefficient bits, beyond %d terms "
            "or %d bits)" % (what, terms, terms * bits, _MAX_TERMS, _MAX_BITS))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("coefficients must be exact rationals, got %r" % (value,))


class GeneralizedPolynomial:
    """Finite sum of terms ``c * x**(n/d)`` with exact rational ``c``.

    ``terms`` maps the exponent numerator ``n`` (an integer, possibly
    negative in intermediate results) to its coefficient; the step
    denominator ``d`` is shared by the whole polynomial and kept minimal:
    gcd(d, all exponent numerators) == 1.  The zero polynomial is the
    empty term map with d == 1.
    """

    __slots__ = ("terms", "step_denominator")

    def __init__(self, terms: Mapping[int, Fraction] | None = None,
                 step_denominator: int = 1):
        if step_denominator < 1:
            raise ValueError("step denominator must be a positive integer")
        clean: dict[int, Fraction] = {}
        if terms:
            for n, c in terms.items():
                c = _as_fraction(c)
                if c != 0:
                    clean[int(n)] = c
        if not clean:
            self.terms = {}
            self.step_denominator = 1
            return
        g = step_denominator
        for n in clean:
            g = math.gcd(g, abs(n))
        if g > 1:
            clean = {n // g: c for n, c in clean.items()}
            step_denominator //= g
        self.terms = clean
        self.step_denominator = step_denominator

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "GeneralizedPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "GeneralizedPolynomial":
        return cls({0: Fraction(1)})

    @classmethod
    def constant(cls, value) -> "GeneralizedPolynomial":
        return cls({0: _as_fraction(value)})

    @classmethod
    def variable(cls) -> "GeneralizedPolynomial":
        return cls({1: Fraction(1)})

    @classmethod
    def monomial(cls, coeff, exp_numerator: int, exp_denominator: int = 1
                 ) -> "GeneralizedPolynomial":
        return cls({exp_numerator: _as_fraction(coeff)}, exp_denominator)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead_exponent(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading exponent")
        return Fraction(max(self.terms), self.step_denominator)

    @property
    def lead_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.terms[max(self.terms)]

    def rescaled_terms(self, step_denominator: int) -> dict[int, Fraction]:
        """Term map re-expressed on the finer grid ``1/step_denominator``."""
        if step_denominator % self.step_denominator:
            raise ValueError("cannot rescale to a coarser or unrelated grid")
        f = step_denominator // self.step_denominator
        return {n * f: c for n, c in self.terms.items()}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        d = math.lcm(self.step_denominator, other.step_denominator)
        a = self.rescaled_terms(d)
        for n, c in other.rescaled_terms(d).items():
            a[n] = a.get(n, Fraction(0)) + c
        return GeneralizedPolynomial(a, d)

    def __neg__(self):
        return GeneralizedPolynomial(
            {n: -c for n, c in self.terms.items()}, self.step_denominator)

    def __sub__(self, other):
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        count("symseries.polynomial_products")
        d = math.lcm(self.step_denominator, other.step_denominator)
        a = self.rescaled_terms(d)
        b = other.rescaled_terms(d)
        t1, t2 = len(a), len(b)
        if t1 and t2:
            # The result's exponents lie between the sums of the factors'
            # least and greatest ones, on the step of every exponent's
            # offset from its own factor's least (two monomials: span 0).
            low1, low2 = min(a), min(b)
            step = math.gcd(*(n - low1 for n in a), *(n - low2 for n in b)) or 1
            span = max(a) + max(b) - low1 - low2
            b1, b2 = _bits(a.values(), t1), _bits(b.values(), t2)
            _refuse_oversized("product", min(t1 * t2, span // step + 1), b1 + b2,
                              max(t1, t2), max(t1 * b1, t2 * b2))
        out: dict[int, Fraction] = {}
        for n1, c1 in a.items():
            for n2, c2 in b.items():
                n = n1 + n2
                out[n] = out.get(n, Fraction(0)) + c1 * c2
        return GeneralizedPolynomial(out, d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        return _power(self, k, GeneralizedPolynomial.one)

    def scaled(self, factor) -> "GeneralizedPolynomial":
        f = _as_fraction(factor)
        return GeneralizedPolynomial(
            {n: c * f for n, c in self.terms.items()}, self.step_denominator)

    def derivative(self) -> "GeneralizedPolynomial":
        # d/dx x**(n/d) = (n/d) x**((n-d)/d); constant terms vanish.
        d = self.step_denominator
        out = {n - d: c * Fraction(n, d) for n, c in self.terms.items() if n != 0}
        return GeneralizedPolynomial(out, d)

    def substitute(self, g: "GeneralizedPolynomial") -> "GeneralizedPolynomial":
        """Evaluate self at ``x = g(x)``; self must have non-negative integer exponents."""
        if self.step_denominator != 1 or (not self.is_zero and min(self.terms) < 0):
            raise ValueError("substitution target must have non-negative integer exponents")
        result = GeneralizedPolynomial.zero()
        power = GeneralizedPolynomial.one()
        current = 0
        for n in sorted(self.terms):
            if n > current:
                power = power * g ** (n - current)
                current = n
            result = result + power.scaled(self.terms[n])
        return result

    def evaluate(self, x: float) -> float:
        """The float value at x > 0; no command calls it, the tests check pi_k with it."""
        d = self.step_denominator
        return math.fsum(float(c) * x ** (n / d) for n, c in self.terms.items())

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GeneralizedPolynomial):
            return (self.step_denominator == other.step_denominator
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            return set(self.terms) <= {0} and self.terms.get(0, 0) == other
        return NotImplemented

    def __hash__(self):
        # A constant hashes as its Fraction, as the rationals equal to it do.
        if set(self.terms) <= {0}:
            return hash(self.terms.get(0, 0))
        return hash((self.step_denominator, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if self.is_zero:
            return "GeneralizedPolynomial(0)"
        return "GeneralizedPolynomial(%s)" % _format_polynomial(
            self.terms, self.step_denominator)


def _power(base, k: int, one):
    # Square and multiply: about 2*log2(k) products instead of k, none of
    # them by 1.  ``one`` makes the identity, which only k = 0 returns.
    if k == 0:
        return one()
    result = None
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


# -- dense helpers for gcd over Fraction coefficient lists ------------------


def _dense(terms: Mapping[int, Fraction]) -> list[Fraction]:
    size = max(terms) + 1
    out = [Fraction(0)] * size
    for n, c in terms.items():
        out[n] = c
    return out


def _trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a by a monic b, whose lead makes each
    quotient coefficient the remainder's top coefficient, undivided."""
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        coeff = r[shift + len(b) - 1]
        if coeff != 0:
            q[shift] = coeff
            for i, bc in enumerate(b):
                r[shift + i] -= coeff * bc
    return _trim(q), _trim(r)


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The monic gcd of two lists with non-zero top coefficients: Euclid
    over Q, each divisor scaled to lead 1 before it divides.  Remainders
    left unscaled grow in coefficient height at every step, monic ones do
    not (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6); on
    the benchmark's compose batch that halves the whole composition."""
    while b:
        lead = b[-1]
        b = b if lead == 1 else [c / lead for c in b]
        a, b = b, _poly_divmod(a, b)[1]
    return a


class GeneralizedRational:
    """Canonical quotient of two generalized polynomials.

    Construction accepts polynomials, ints or Fractions for either side and
    always reduces to canonical form, so two values are equal exactly when
    their numerator/denominator pairs are structurally equal.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=None):
        num = _to_poly(numerator)
        den = GeneralizedPolynomial.one() if denominator is None else _to_poly(denominator)
        num, den = _canonical_pair(num, den)
        self.numerator = num
        self.denominator = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "GeneralizedRational":
        return cls(GeneralizedPolynomial.zero())

    @classmethod
    def one(cls) -> "GeneralizedRational":
        return cls(GeneralizedPolynomial.one())

    @classmethod
    def variable(cls) -> "GeneralizedRational":
        return cls(GeneralizedPolynomial.variable())

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    @property
    def lead_exponent(self) -> Fraction:
        """Exponent of the dominant behaviour as x -> infinity."""
        if self.is_zero:
            raise ValueError("the zero function has no leading exponent")
        return self.numerator.lead_exponent - self.denominator.lead_exponent

    @property
    def integer_step(self) -> bool:
        """Whether every term of the expansion at infinity sits a whole
        step below the leading one.

        Decided exactly from the canonical pair: on each side, every
        exponent differs from that side's leading exponent by an integer.
        """
        if self.is_zero:
            raise ValueError("the zero function has no expansion")
        return all(len({n % p.step_denominator for n in p.terms}) == 1
                   for p in (self.numerator, self.denominator))

    def evaluate(self, x: float) -> float:
        """The float value at x > 0; no command calls it, the tests check pi_k with it."""
        return self.numerator.evaluate(x) / self.denominator.evaluate(x)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GeneralizedRational(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator)

    __radd__ = __add__

    def __neg__(self):
        return GeneralizedRational(-self.numerator, self.denominator)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GeneralizedRational(
            self.numerator * other.denominator - other.numerator * self.denominator,
            self.denominator * other.denominator)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        count("symseries.rational_products")
        return GeneralizedRational(self.numerator * other.numerator,
                                   self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return GeneralizedRational(self.numerator * other.denominator,
                                   self.denominator * other.numerator)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("rational-function powers must be integers")
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero function")
            return GeneralizedRational(self.denominator, self.numerator) ** (-k)
        return _power(self, k, GeneralizedRational.one)

    def derivative(self) -> "GeneralizedRational":
        num, den = self.numerator, self.denominator
        return GeneralizedRational(num.derivative() * den - num * den.derivative(),
                                   den * den)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        # Equal to a polynomial, int or Fraction only over the denominator 1.
        if self.denominator.terms == {0: 1}:
            return hash(self.numerator)
        return hash((self.numerator, self.denominator))

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return "GeneralizedRational(%s)" % to_text(self)


def _to_poly(value) -> GeneralizedPolynomial:
    if isinstance(value, GeneralizedPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return GeneralizedPolynomial.constant(value)
    raise TypeError("expected polynomial or exact scalar, got %r" % (value,))


def _coerce(value):
    if isinstance(value, GeneralizedRational):
        return value
    if isinstance(value, (int, Fraction, GeneralizedPolynomial)):
        return GeneralizedRational(_to_poly(value))
    return None


def _canonical_pair(num: GeneralizedPolynomial, den: GeneralizedPolynomial):
    count("symseries.canonical_pairs")
    if den.is_zero:
        raise ZeroDivisionError("denominator is the zero function")
    if num.is_zero:
        return GeneralizedPolynomial.zero(), GeneralizedPolynomial.one()
    d = math.lcm(num.step_denominator, den.step_denominator)
    nt = num.rescaled_terms(d)
    dt = den.rescaled_terms(d)
    # Shift exponents so both are ordinary polynomials in t = x**(1/d) and
    # at least one of them has a non-zero constant term.
    lo = min(min(nt), min(dt))
    if lo != 0:
        nt = {n - lo: c for n, c in nt.items()}
        dt = {n - lo: c for n, c in dt.items()}
    # When one side is a single term c*t**n the gcd is 1: after the shift
    # either n == 0 or the other side has a non-zero constant term, which
    # t**n does not divide.  The dense lists, as long as the degree, are
    # then skipped.  A dense list's length counts as its terms, and it is
    # bounded on bits only, so a sparse (x^600+1)/(x+1) is read.
    if len(nt) > 1 and len(dt) > 1:
        for t in (nt, dt):
            length = max(t) + 1
            _refuse_oversized("gcd list", length, _bits(t.values(), length), length, 0)
        a, b = _dense(nt), _dense(dt)
        g = _poly_gcd(a, b)
        if len(g) > 1:
            (a, ra), (b, rb) = _poly_divmod(a, g), _poly_divmod(b, g)
            if ra or rb:
                raise ArithmeticError("inexact polynomial division during canonicalization")
        nt = {n: c for n, c in enumerate(a) if c != 0}
        dt = {n: c for n, c in enumerate(b) if c != 0}
    lead = dt[max(dt)]
    if lead != 1:
        nt = {n: c / lead for n, c in nt.items()}
        dt = {n: c / lead for n, c in dt.items()}
    return GeneralizedPolynomial(nt, d), GeneralizedPolynomial(dt, d)


def substitution_polynomial(g) -> GeneralizedPolynomial:
    """The polynomial g after checking that it may replace x in a composition.

    g (a polynomial, or a rational with denominator 1) must have
    non-negative integer exponents, a positive leading coefficient and
    degree at least 1, so that it tends to +infinity.
    """
    if isinstance(g, GeneralizedRational):
        if g.denominator != GeneralizedPolynomial.one():
            raise ValueError("g must be a polynomial")
        g = g.numerator
    if not isinstance(g, GeneralizedPolynomial):
        raise TypeError("g must be a generalized polynomial")
    if g.is_zero:
        raise ValueError("g must not be the zero polynomial")
    if g.step_denominator != 1 or min(g.terms) < 0:
        raise ValueError("g must have non-negative integer exponents")
    if g.lead_coefficient <= 0:
        raise ValueError("g must tend to +infinity (positive leading coefficient)")
    if g.lead_exponent < 1:
        raise ValueError("g must have degree at least 1")
    return g


def compose_poly(a: GeneralizedRational, g: GeneralizedPolynomial) -> GeneralizedRational:
    """Exact substitution a(g(x)) for an integer-exponent polynomial g.

    Both the rational function and g must live on the integer exponent
    grid; g must pass :func:`substitution_polynomial`, so it has degree at
    least 1 and tends to +infinity.  Composition with fractional powers is
    rejected.
    Raises SizeBudgetError for a result beyond the size budget.
    """
    g = substitution_polynomial(g)
    return GeneralizedRational(a.numerator.substitute(g), a.denominator.substitute(g))


# -- text format -------------------------------------------------------------


def _format_exponent_part(exponent: Fraction) -> str:
    if exponent == 1:
        return "x"
    if exponent.denominator == 1:
        return "x^%d" % exponent.numerator
    return "x^(%d/%d)" % (exponent.numerator, exponent.denominator)


def _format_polynomial(terms: Mapping[int, Fraction], d: int) -> str:
    parts = []
    for n in sorted(terms, reverse=True):
        c = terms[n]
        exponent = Fraction(n, d)
        mag = abs(c)
        if exponent == 0:
            body = str(mag)
        elif mag == 1:
            body = _format_exponent_part(exponent)
        else:
            body = "%s*%s" % (mag, _format_exponent_part(exponent))
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


def to_text(r: GeneralizedRational) -> str:
    """Render in the normalized text format, e.g. ``-(16*x^4+15)/(64*x^3)``.

    Coefficients are scaled to coprime integers, an overall minus sign is
    factored out of the numerator, and the output parses back to the same
    canonical value.  The denominator is monic, so scaling by the lcm of
    the coefficient denominators already leaves coprime integers.
    """
    if r.is_zero:
        return "0"
    scale = math.lcm(*(c.denominator for c in (*r.numerator.terms.values(),
                                                *r.denominator.terms.values())))
    num = {n: int(c * scale) for n, c in r.numerator.terms.items()}
    den = {n: int(c * scale) for n, c in r.denominator.terms.items()}
    negative = num[max(num)] < 0
    if negative:
        num = {n: -c for n, c in num.items()}
    num_str = _format_polynomial(num, r.numerator.step_denominator)
    sign = "-" if negative else ""
    if den == {0: 1}:
        if negative and len(num) > 1:
            return "-(%s)" % num_str
        return sign + num_str
    if len(num) > 1:
        num_str = "(%s)" % num_str
    den_str = _format_polynomial(den, r.denominator.step_denominator)
    if len(den) > 1 or (abs(den[max(den)]) != 1 and max(den) != 0):
        den_str = "(%s)" % den_str
    return "%s%s/%s" % (sign, num_str, den_str)


def _integer_root(value: int, degree: int) -> int:
    if value < 0:
        if degree % 2 == 0:
            raise RationalParseError("even root of a negative coefficient")
        return -_integer_root(-value, degree)
    if value < 2:
        return value
    if degree == 2:
        root = math.isqrt(value)
    elif value.bit_length() <= degree:
        # 2 <= value < 2**degree: the root lies strictly between 1 and 2.
        # Newton would start at 2 and build 2**(degree - 1) first.
        root = 1
    else:
        # Integer Newton from above converges down to the floor of the root.
        root = 1 << -(-value.bit_length() // degree)
        while root:
            step = ((degree - 1) * root + value // root ** (degree - 1)) // degree
            if step >= root:
                break
            root = step
    if root ** degree != value:
        raise RationalParseError("coefficient %d has no exact root of degree %d" % (value, degree))
    return root


def _monomial_power(base, exponent: Fraction) -> GeneralizedPolynomial:
    # Fractional powers are only defined here for pure monomials c*x**e
    # (e >= 0, as the canonical rational has no denominator then) whose
    # coefficient has an exact rational root.
    if base.is_zero:
        raise RationalParseError("fractional power of zero")
    if isinstance(base, GeneralizedRational):
        base = base.numerator if base.denominator == GeneralizedPolynomial.one() else None
    if base is None or len(base.terms) != 1 or min(base.terms) < 0:
        raise RationalParseError(
            "fractional powers are only supported on monomials like x or 4*x")
    (n, c), = base.terms.items()
    q = exponent.denominator
    root = Fraction(_integer_root(c.numerator, q), _integer_root(c.denominator, q))
    # Through GeneralizedRational, so that the size budget refuses a power
    # like (4*x)^(1000000001/2); a Fraction power would build 2**(10**9).
    coeff = (GeneralizedRational(root) ** exponent.numerator).numerator.lead_coefficient
    e = Fraction(n, base.step_denominator) * exponent
    return GeneralizedPolynomial.monomial(coeff, e.numerator, e.denominator)


def _lower(node: expr.Expr):
    # The operations, and their order, are those of reading the text left
    # to right.  A value stays a GeneralizedPolynomial until a quotient or
    # a negative power makes it a GeneralizedRational, so a sub-expression
    # is canonicalized only there; canonical form is unique, so the end
    # result is the one an all-rational walk gives.  Work beyond the size
    # budget is refused as ``<reason> in '<node>'``, naming the node whose
    # own operation it is.
    node, ops = expr.left_chain(node)
    where = node
    try:
        if isinstance(node, expr.Num):
            value = GeneralizedPolynomial.constant(node.value)
        elif isinstance(node, expr.Var):
            value = GeneralizedPolynomial.variable()
        elif isinstance(node, expr.Neg):
            value = -_lower(node.operand)
        elif isinstance(node, expr.Pow):
            value = _lower(node.base)
            k = node.exponent.numerator
            if node.exponent.denominator != 1:
                value = _monomial_power(value, node.exponent)
            elif k < 0 and value.is_zero:
                raise RationalParseError(
                    "negative power of zero in '%s'" % expr.to_text(node))
            else:
                value = (_coerce(value) if k < 0 else value) ** k
        elif isinstance(node, expr.Call) and node.func == "sqrt":
            value = _monomial_power(_lower(node.arg), Fraction(1, 2))
        else:
            raise RationalParseError(
                "'%s' is not a rational function of x" % expr.to_text(node))
        for op in ops:
            rhs = _lower(op.right)
            where = op
            if op.op == "+":
                value = value + rhs
            elif op.op == "-":
                value = value - rhs
            elif op.op == "*":
                value = value * rhs
            elif rhs.is_zero:
                raise RationalParseError("division by zero in '%s'" % expr.to_text(op))
            elif (isinstance(value, GeneralizedPolynomial)
                  and isinstance(rhs, GeneralizedPolynomial)):
                value = GeneralizedRational(value, rhs)
            else:
                value = value / rhs
    except SizeBudgetError as exc:
        raise RationalParseError("%s in '%s'" % (exc, expr.to_text(where))) from exc
    return value


def parse_rational(text: str) -> GeneralizedRational:
    """Parse the text format produced by :func:`to_text`.

    The grammar is :mod:`dmint.expr`'s with its rational exponent
    rule: fractional exponents go in parentheses, ``x^(1/2)``, and
    ``x^3/2`` means (x^3)/2.  Accepts +, -, *, /, integer powers of
    arbitrary subexpressions, fractional powers and ``sqrt`` of monomials,
    and integer or decimal literals.  Sums, products and non-negative
    powers are read as polynomials; each quotient or negative power is
    canonicalized once, where it is read.
    """
    try:
        ast = expr._Parser(text, rational=True).parse()
    except expr.ExprSyntaxError as exc:
        raise RationalParseError(str(exc)) from exc
    value = _lower(ast)
    if isinstance(value, GeneralizedPolynomial):
        value = GeneralizedRational(value)
    return value
