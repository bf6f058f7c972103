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
structural and lets tests assert exact identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import exprtaylor


class RationalParseError(ValueError):
    """A rational-function string that does not follow the text format."""


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
    def min_exponent(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no minimal exponent")
        return Fraction(min(self.terms), self.step_denominator)

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
        d = _lcm(self.step_denominator, other.step_denominator)
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
        d = _lcm(self.step_denominator, other.step_denominator)
        a = self.rescaled_terms(d)
        b = other.rescaled_terms(d)
        out: dict[int, Fraction] = {}
        for n1, c1 in a.items():
            for n2, c2 in b.items():
                n = n1 + n2
                out[n] = out.get(n, Fraction(0)) + c1 * c2
        return GeneralizedPolynomial(out, d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = GeneralizedPolynomial.one()
        for _ in range(k):
            result = result * self
        return result

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
            while current < n:
                power = power * g
                current += 1
            result = result + power.scaled(self.terms[n])
        return result

    def evaluate(self, x: float) -> float:
        d = self.step_denominator
        return math.fsum(float(c) * x ** (n / d) for n, c in self.terms.items())

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        return (self.step_denominator == other.step_denominator
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.step_denominator, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if self.is_zero:
            return "GeneralizedPolynomial(0)"
        return "GeneralizedPolynomial(%s)" % _format_polynomial(
            self.terms, self.step_denominator)


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


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
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        coeff = r[shift + len(b) - 1] / lead
        if coeff != 0:
            q[shift] = coeff
            for i, bc in enumerate(b):
                r[shift + i] -= coeff * bc
    return _trim(q), _trim(r)


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_div_exact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    q, r = _poly_divmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division during canonicalization")
    return q


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

    def evaluate(self, x: float) -> float:
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
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
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
        result = GeneralizedRational.one()
        for _ in range(k):
            result = result * self
        return result

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
    if den.is_zero:
        raise ZeroDivisionError("denominator is the zero function")
    if num.is_zero:
        return GeneralizedPolynomial.zero(), GeneralizedPolynomial.one()
    d = _lcm(num.step_denominator, den.step_denominator)
    nt = num.rescaled_terms(d)
    dt = den.rescaled_terms(d)
    # Shift exponents so both are ordinary polynomials in t = x**(1/d) and
    # at least one of them has a non-zero constant term.
    lo = min(min(nt), min(dt))
    if lo != 0:
        nt = {n - lo: c for n, c in nt.items()}
        dt = {n - lo: c for n, c in dt.items()}
    a, b = _dense(nt), _dense(dt)
    g = _poly_gcd(a, b)
    if len(g) > 1:
        a = _poly_div_exact(a, g)
        b = _poly_div_exact(b, g)
    lead = b[-1]
    if lead != 1:
        a = [c / lead for c in a]
        b = [c / lead for c in b]
    return (GeneralizedPolynomial({n: c for n, c in enumerate(a) if c != 0}, d),
            GeneralizedPolynomial({n: c for n, c in enumerate(b) if c != 0}, d))


# -- the operation surface ---------------------------------------------------


def add(a: GeneralizedRational, b: GeneralizedRational) -> GeneralizedRational:
    return a + b


def mul(a: GeneralizedRational, b: GeneralizedRational) -> GeneralizedRational:
    return a * b


def div(a: GeneralizedRational, b: GeneralizedRational) -> GeneralizedRational:
    return a / b


def pow(a: GeneralizedRational, k: int) -> GeneralizedRational:
    return a ** k


def derivative(a: GeneralizedRational) -> GeneralizedRational:
    return a.derivative()


def substitution_polynomial(g) -> GeneralizedPolynomial:
    """The polynomial g after checking that it may replace x in a composition.

    g (a polynomial, or a rational with denominator 1) must have
    non-negative integer exponents and a positive leading coefficient.
    """
    if isinstance(g, GeneralizedRational):
        if g.denominator != GeneralizedPolynomial.one():
            raise ValueError("g must be a polynomial")
        g = g.numerator
    if not isinstance(g, GeneralizedPolynomial):
        raise TypeError("g must be a generalized polynomial")
    if g.is_zero or g.step_denominator != 1 or min(g.terms) < 0:
        raise ValueError("g must have non-negative integer exponents")
    if g.lead_coefficient <= 0:
        raise ValueError("g must tend to +infinity (positive leading coefficient)")
    return g


def compose_poly(a: GeneralizedRational, g: GeneralizedPolynomial) -> GeneralizedRational:
    """Exact substitution a(g(x)) for an integer-exponent polynomial g.

    Both the rational function and g must live on the integer exponent
    grid; g must additionally have a positive leading coefficient, i.e.
    tend to +infinity.  Composition with fractional powers is rejected.
    """
    g = substitution_polynomial(g)
    return GeneralizedRational(a.numerator.substitute(g), a.denominator.substitute(g))


@dataclass(frozen=True)
class AsymptoticProfile:
    """Leading behaviour and truncated expansion of a function at infinity.

    ``coefficients`` holds the first K+1 expansion coefficients in
    descending powers: on the integer grid x**(gamma - i) when
    ``integer_step`` is true, otherwise on the fine grid x**(gamma - i*step).
    The identically-zero function gets the distinguished profile with
    ``is_zero`` set.
    """

    gamma: Fraction
    strict: bool
    integer_step: bool
    coefficients: tuple[Fraction, ...]
    step: Fraction
    is_zero: bool = False


def profile(a: GeneralizedRational, depth: int = 8) -> AsymptoticProfile:
    """Expand ``a`` at x -> infinity down to x**(gamma - depth).

    The expansion is computed by exact long division in descending powers
    of x**(1/d).  ``integer_step`` reports whether every non-zero term in
    the examined window sits an integer number of steps below gamma; only
    then does the function fit an integer-step expansion with the returned
    integer-grid coefficient list.
    """
    if depth < 0:
        raise ValueError("expansion depth must be non-negative")
    if a.is_zero:
        return AsymptoticProfile(Fraction(0), False, True, (), Fraction(1), True)
    d = _lcm(a.numerator.step_denominator, a.denominator.step_denominator)
    nt = a.numerator.rescaled_terms(d)
    dt = a.denominator.rescaled_terms(d)
    top_n, top_d = max(nt), max(dt)
    gamma = Fraction(top_n - top_d, d)
    # Coefficients of the quotient series in u = x**(-1/d):
    #   c_j = a_j - sum_{i>=1} b_i c_{j-i},  a_j, b_i read top-down.
    fine_depth = depth * d
    a_desc = [nt.get(top_n - j, Fraction(0)) for j in range(fine_depth + 1)]
    b_offsets = [(top_d - n, c) for n, c in dt.items() if n != top_d]
    assert dt[top_d] == 1, "canonical denominators are monic"
    c = []
    for j in range(fine_depth + 1):
        val = a_desc[j]
        for off, bc in b_offsets:
            if off <= j:
                val -= bc * c[j - off]
        c.append(val)
    integer_step = all(c[j] == 0 for j in range(fine_depth + 1) if j % d)
    if integer_step:
        coeffs = tuple(c[i * d] for i in range(depth + 1))
        step = Fraction(1)
    else:
        coeffs = tuple(c[: depth + 1])
        step = Fraction(1, d)
    return AsymptoticProfile(gamma, coeffs[0] != 0, integer_step, coeffs, step)


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
    canonical value.
    """
    if r.is_zero:
        return "0"
    scale = Fraction(1)
    for c in list(r.numerator.terms.values()) + list(r.denominator.terms.values()):
        scale = Fraction(_lcm(scale.numerator, c.denominator))
    num = {n: int(c * scale) for n, c in r.numerator.terms.items()}
    den = {n: int(c * scale) for n, c in r.denominator.terms.items()}
    content = 0
    for c in list(num.values()) + list(den.values()):
        content = math.gcd(content, abs(c))
    if content > 1:
        num = {n: c // content for n, c in num.items()}
        den = {n: c // content for n, c in den.items()}
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
    if degree == 2:
        root = math.isqrt(value)
    else:
        # Integer Newton from above converges down to the floor of the root.
        root = 1 << -(-value.bit_length() // degree)
        while root:
            step = ((degree - 1) * root + value // root ** (degree - 1)) // degree
            if step >= root:
                break
            root = step
    if root ** degree != value:
        raise RationalParseError("coefficient %d has no exact %d-th root" % (value, degree))
    return root


def _monomial_power(base: GeneralizedRational, exponent: Fraction) -> GeneralizedRational:
    # Fractional powers are only defined here for pure monomials c*x**e
    # whose coefficient has an exact rational root.
    if base.is_zero:
        raise RationalParseError("fractional power of zero")
    if (base.denominator != GeneralizedPolynomial.one()
            or len(base.numerator.terms) != 1):
        raise RationalParseError(
            "fractional powers are only supported on monomials like x or 4*x")
    (n, c), = base.numerator.terms.items()
    q = exponent.denominator
    root = Fraction(_integer_root(c.numerator, q), _integer_root(c.denominator, q))
    coeff = root ** exponent.numerator
    e = Fraction(n, base.numerator.step_denominator) * exponent
    return GeneralizedRational(
        GeneralizedPolynomial.monomial(coeff, e.numerator, e.denominator))


def _lower(node: exprtaylor.Expr) -> GeneralizedRational:
    # The operations, and their order, are those of reading the text left
    # to right.  A left-nested chain such as a long sum is walked in a
    # loop, so its length is not bounded by the recursion limit.
    chain = []
    while isinstance(node, exprtaylor.BinOp):
        chain.append(node)
        node = node.left
    if isinstance(node, exprtaylor.Num):
        value = GeneralizedRational(GeneralizedPolynomial.constant(node.value))
    elif isinstance(node, exprtaylor.Var):
        value = GeneralizedRational.variable()
    elif isinstance(node, exprtaylor.Neg):
        value = -_lower(node.operand)
    elif isinstance(node, exprtaylor.Pow):
        value = _lower(node.base)
        if node.exponent.denominator != 1:
            value = _monomial_power(value, node.exponent)
        elif node.exponent < 0 and value.is_zero:
            raise RationalParseError(
                "negative power of zero in '%s'" % exprtaylor.to_text(node))
        else:
            value = value ** node.exponent.numerator
    elif isinstance(node, exprtaylor.Call) and node.func == "sqrt":
        value = _monomial_power(_lower(node.arg), Fraction(1, 2))
    else:
        raise RationalParseError(
            "'%s' is not a rational function of x" % exprtaylor.to_text(node))
    for op in reversed(chain):
        rhs = _lower(op.right)
        if op.op == "+":
            value = value + rhs
        elif op.op == "-":
            value = value - rhs
        elif op.op == "*":
            value = value * rhs
        elif rhs.is_zero:
            raise RationalParseError("division by zero in '%s'" % exprtaylor.to_text(op))
        else:
            value = value / rhs
    return value


def parse_rational(text: str) -> GeneralizedRational:
    """Parse the text format produced by :func:`to_text`.

    The grammar is :mod:`dmint.exprtaylor`'s with its rational exponent
    rule: fractional exponents go in parentheses, ``x^(1/2)``, and
    ``x^3/2`` means (x^3)/2.  Accepts +, -, *, /, integer powers of
    arbitrary subexpressions, fractional powers and ``sqrt`` of monomials,
    and integer or decimal literals.
    """
    try:
        ast = exprtaylor._Parser(text, bare_fraction_exponents=False).parse()
    except exprtaylor.ExprSyntaxError as exc:
        raise RationalParseError(str(exc)) from exc
    return _lower(ast)
