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
``integer_step`` read it from the two term maps.  A polynomial is stored
as one rational content times a sparse primitive integer polynomial, so
products, powers and substitutions multiply ints.  Every product and every
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
# bounds, takes 0.02 s (x86-64).
_MAX_TERMS = 500
_MAX_BITS = 1_000_000


def _bits(content: Fraction, ints, terms: int) -> int:
    # The largest coefficient's bits plus log2(terms), which bounds the
    # growth of a coefficient through one product.  The coefficient
    # content * c, with content = p/q, reduces to (p*c/g)/(q/g) for
    # g = gcd(c, q); a | b has the bits of the larger of a and b.
    p, q = abs(content.numerator), content.denominator
    largest = max(p * abs(c) // (g := math.gcd(c, q)) | q // g for c in ints)
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

    Stored as one signed ``Fraction`` content times a primitive integer
    polynomial: a map from the exponent numerator ``n`` (an integer,
    possibly negative in intermediate results) to an int, the ints with no
    common factor and the one at the highest exponent positive.  The
    coefficient of ``x**(n/d)`` is the content times its int; ``terms``
    builds the map of these coefficients afresh on each read.  The step
    denominator ``d`` is shared by the whole polynomial and kept minimal:
    gcd(d, all exponent numerators) == 1.  The zero polynomial is the
    empty map with content 0 and d == 1.
    """

    __slots__ = ("_ints", "_content", "step_denominator")

    def __new__(cls, terms: Mapping[int, Fraction] | None = None, step_denominator: int = 1):
        if step_denominator < 1:
            raise ValueError("step denominator must be a positive integer")
        clean = {int(n): _as_fraction(c) for n, c in (terms or {}).items()}
        scale = math.lcm(*(c.denominator for c in clean.values()))
        return _polynomial({n: c.numerator * (scale // c.denominator) for n, c in clean.items()},
                           Fraction(1, scale), step_denominator)

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
    def terms(self) -> dict[int, Fraction]:
        """A new map from each exponent numerator to its coefficient."""
        return {n: self._content * c for n, c in self._ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def lead_exponent(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading exponent")
        return Fraction(max(self._ints), self.step_denominator)

    @property
    def lead_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self._content * self._ints[max(self._ints)]

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
        a = _rescaled(self._ints, d // self.step_denominator)
        b = _rescaled(other._ints, d // other.step_denominator)
        # The ints over the contents' common denominator, made primitive.
        scale = math.lcm(self._content.denominator, other._content.denominator)
        u, v = (c.numerator * (scale // c.denominator) for c in (self._content, other._content))
        out = {n: u * c for n, c in a.items()}
        for n, c in b.items():
            out[n] = out.get(n, 0) + v * c
        return _polynomial(out, Fraction(1, scale), d)

    def __neg__(self):
        return _polynomial(self._ints, -self._content, self.step_denominator, primitive=True)

    def __sub__(self, other):
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        count("symseries.polynomial_products")
        d = math.lcm(self.step_denominator, other.step_denominator)
        a = _rescaled(self._ints, d // self.step_denominator)
        b = _rescaled(other._ints, d // other.step_denominator)
        t1, t2 = len(a), len(b)
        if t1 and t2:
            # The result's exponents lie between the sums of the factors'
            # least and greatest ones, on the step of every exponent's
            # offset from its own factor's least (two monomials: span 0).
            low1, low2 = min(a), min(b)
            step = math.gcd(*(n - low1 for n in a), *(n - low2 for n in b)) or 1
            span = max(a) + max(b) - low1 - low2
            b1 = _bits(self._content, a.values(), t1)
            b2 = _bits(other._content, b.values(), t2)
            _refuse_oversized("product", min(t1 * t2, span // step + 1), b1 + b2,
                              max(t1, t2), max(t1 * b1, t2 * b2))
        out: dict[int, int] = {}
        get = out.get
        for n1, c1 in a.items():
            for n2, c2 in b.items():
                n = n1 + n2
                out[n] = get(n, 0) + c1 * c2
        # A product of primitive polynomials is primitive (Gauss's lemma),
        # with the product of their positive leads as its lead.
        return _polynomial(out, self._content * other._content, d, primitive=True)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        return _power(self, k, GeneralizedPolynomial.one)

    def scaled(self, factor) -> "GeneralizedPolynomial":
        return _polynomial(self._ints, self._content * _as_fraction(factor),
                           self.step_denominator, primitive=True)

    def derivative(self) -> "GeneralizedPolynomial":
        # d/dx x**(n/d) = (n/d) x**((n-d)/d); constant terms vanish.
        d = self.step_denominator
        return _polynomial({n - d: c * n for n, c in self._ints.items() if n},
                           self._content / d, d)

    def substitute(self, g: "GeneralizedPolynomial") -> "GeneralizedPolynomial":
        """Evaluate self at ``x = g(x)``; self must have non-negative integer exponents."""
        if self.step_denominator != 1 or (not self.is_zero and min(self._ints) < 0):
            raise ValueError("substitution target must have non-negative integer exponents")
        result = GeneralizedPolynomial.zero()
        power = GeneralizedPolynomial.one()
        current = 0
        for n in sorted(self._ints):
            if n > current:
                power = power * g ** (n - current)
                current = n
            result = result + power.scaled(self._ints[n])
        return result.scaled(self._content)

    def evaluate(self, x: float) -> float:
        """The float value at x > 0; no command calls it, the tests check pi_k with it."""
        d = self.step_denominator
        return math.fsum(float(c) * x ** (n / d) for n, c in self.terms.items())

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GeneralizedPolynomial):
            return (self.step_denominator == other.step_denominator
                    and self._content == other._content and self._ints == other._ints)
        if isinstance(other, (int, Fraction)):
            return self._ints.keys() <= {0} and self._content == other
        return NotImplemented

    def __hash__(self):
        # A constant hashes as its Fraction, as the rationals equal to it do.
        if self._ints.keys() <= {0}:
            return hash(self._content)
        return hash((self.step_denominator, self._content, tuple(sorted(self._ints.items()))))

    def __repr__(self):
        if self.is_zero:
            return "GeneralizedPolynomial(0)"
        return "GeneralizedPolynomial(%s)" % _format_polynomial(
            self.terms, self.step_denominator)


def _polynomial(ints: dict[int, int], content: Fraction, step: int, primitive: bool = False):
    # content * sum ints[n] x**(n/step) in its stored form: no zero int, the
    # ints primitive with a positive lead (the caller may vouch for that),
    # and the coarsest step.  An unchanged map is shared, not copied.
    if 0 in ints.values():
        ints = {n: c for n, c in ints.items() if c}
    if not ints or not content:
        ints, content, step, primitive = {}, Fraction(0), 1, True
    if not primitive:
        g = math.gcd(*ints.values())
        if ints[max(ints)] < 0:
            g = -g
        if g != 1:
            ints = {n: c // g for n, c in ints.items()}
            content = content * g
    g = math.gcd(step, *ints)
    if g > 1:
        ints = {n // g: c for n, c in ints.items()}
        step //= g
    p = object.__new__(GeneralizedPolynomial)
    p._ints, p._content, p.step_denominator = ints, content, step
    return p


def _rescaled(ints: dict[int, int], factor: int, shift: int = 0) -> dict[int, int]:
    # The map on a grid ``factor`` times finer, its exponents less ``shift``.
    if factor == 1 and not shift:
        return ints
    return {n * factor - shift: c for n, c in ints.items()}


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
        # A divisor off the monic contract leaves the degree: raise, not loop.
        if len(b) >= len(a):
            raise ArithmeticError("polynomial remainder did not drop in degree")
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
        self.numerator, self.denominator = _normalized(*_reduced(num, den))

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
        return all(len({n % p.step_denominator for n in p._ints}) == 1
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
        return _rational(-self.numerator, self.denominator)

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
        # Henrici's rule: a/b * c/d reduces only its cross pairs (a, d) and
        # (c, b).  a, b and c, d are coprime as canonical pairs, also on a
        # finer common grid (Bezout), so a'c' and b'd' share no factor.
        a, d = _reduced(self.numerator, other.denominator)
        c, b = _reduced(other.numerator, self.denominator)
        return _rational(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return self * _rational(other.denominator, other.numerator)

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
            return _rational(self.denominator, self.numerator) ** (-k)
        return _power(self, k, GeneralizedRational.one)

    def derivative(self) -> "GeneralizedRational":
        # (num/den)' over den*den/h for h = gcd(den, den'), which holds
        # p**(e-1) of each factor p**e of den: p divides den/h once and not
        # den'/h, nor num, so not the new numerator, which is then reduced.
        num, den = self.numerator, self.denominator
        den_h, dden_h = _reduced(den, den.derivative())
        return _rational(num.derivative() * den_h - num * dden_h, den * den_h)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        # Equal to a polynomial, int or Fraction only over the denominator 1.
        if self.denominator == 1:
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
        return _rational(_to_poly(value), GeneralizedPolynomial.one())
    return None


def _shifted(num: GeneralizedPolynomial, den: GeneralizedPolynomial):
    # Both int maps on the pair's common grid 1/d, shifted by one power of x
    # so that both are polynomials in t = x**(1/d) and at least one of them
    # has a non-zero constant term.
    d = math.lcm(num.step_denominator, den.step_denominator)
    fn, fd = d // num.step_denominator, d // den.step_denominator
    lo = min(min(num._ints) * fn, min(den._ints) * fd)
    return d, _rescaled(num._ints, fn, lo), _rescaled(den._ints, fd, lo)


def _reduced(num: GeneralizedPolynomial, den: GeneralizedPolynomial):
    # num/g and den/g for g = gcd(num, den), both times one power of x, so
    # their ratio is num/den's; a coprime pair comes back as it is.
    count("symseries.canonical_pairs")
    if num.is_zero or den.is_zero:
        return num, den
    d, nt, dt = _shifted(num, den)
    # When one side is a single term c*t**n the gcd is 1: after the shift
    # either n == 0 or the other side has a non-zero constant term, which
    # t**n does not divide.  The dense lists, as long as the degree, are
    # then skipped.  A dense list's length counts as its terms, and it is
    # bounded on bits only, so a sparse (x^600+1)/(x+1) is read.
    if len(nt) > 1 and len(dt) > 1:
        for t, c in ((nt, num._content), (dt, den._content)):
            length = max(t) + 1
            _refuse_oversized("gcd list", length, _bits(c, t.values(), length), length, 0)
        a, b = ([Fraction(t.get(n, 0)) for n in range(max(t) + 1)] for t in (nt, dt))
        g = _poly_gcd(a, b)
        if len(g) > 1:
            (a, ra), (b, rb) = _poly_divmod(a, g), _poly_divmod(b, g)
            if ra or rb:
                raise ArithmeticError("inexact polynomial division during canonicalization")
            return tuple(GeneralizedPolynomial(dict(enumerate(q)), d).scaled(p._content)
                         for q, p in ((a, num), (b, den)))
    return num, den


def _normalized(num: GeneralizedPolynomial, den: GeneralizedPolynomial):
    # A coprime pair in canonical form: shifted to non-negative exponents,
    # each side on its coarsest grid, and the denominator monic by dividing
    # both contents by its lead coefficient.
    if den.is_zero:
        raise ZeroDivisionError("denominator is the zero function")
    if num.is_zero:
        return GeneralizedPolynomial.zero(), GeneralizedPolynomial.one()
    d, nt, dt = _shifted(num, den)
    lead = den.lead_coefficient
    return (_polynomial(nt, num._content / lead, d, primitive=True),
            _polynomial(dt, den._content / lead, d, primitive=True))


def _rational(num: GeneralizedPolynomial, den: GeneralizedPolynomial) -> GeneralizedRational:
    # The value num/den of a coprime pair, normalized with no gcd.
    r = object.__new__(GeneralizedRational)
    r.numerator, r.denominator = _normalized(num, den)
    return r


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
    if g.step_denominator != 1 or min(g._ints) < 0:
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
    # N(g) and D(g) are coprime as N and D are: u*N + v*D = 1 gives
    # u(g)*N(g) + v(g)*D(g) = 1.
    return _rational(a.numerator.substitute(g), a.denominator.substitute(g))


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

    Coefficients are printed as coprime integers: with p/q the reduced
    ratio of the numerator's content to the denominator's, they are the
    numerator's ints times |p| and the denominator's times q.  Each side's
    ints are primitive and gcd(p, q) == 1, so no factor is left to share.
    An overall minus sign is factored out of the numerator, and the output
    parses back to the same canonical value.
    """
    if r.is_zero:
        return "0"
    ratio = r.numerator._content / r.denominator._content
    negative = ratio < 0
    num = {n: abs(ratio.numerator) * c for n, c in r.numerator._ints.items()}
    den = {n: ratio.denominator * c for n, c in r.denominator._ints.items()}
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
    if base is None or len(base._ints) != 1 or min(base._ints) < 0:
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
