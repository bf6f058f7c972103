import random
import re
from fractions import Fraction

import pytest

from dmint.exprtaylor import Pow, Var, parse
from dmint.symseries import (
    GeneralizedPolynomial,
    GeneralizedRational,
    RationalParseError,
    add,
    compose_poly,
    derivative,
    div,
    mul,
    parse_rational,
    pow,
    profile,
    to_text,
)

X = GeneralizedRational.variable()
ONE = GeneralizedRational.one()
ZERO = GeneralizedRational.zero()


def R(text):
    return parse_rational(text)


class TestArithmeticExamples:
    def test_additive_identity(self):
        assert add(R("1/x"), ZERO) == R("1/x")

    def test_cancellation_to_constant(self):
        assert add(R("x/(x-1)"), R("-1/(x-1)")) == ONE

    def test_half_grid_sum_collapses(self):
        f1 = R("x^(1/2)") * R("(x+3)/(x-1)^3")
        f2 = R("-(3*x+1)/(x-1)^3")
        total = add(f1, f2)
        assert total == R("1/(sqrt(x)+1)^3")
        assert total == (R("(sqrt(x)-1)/(x-1)")) ** 3

    def test_mul_monomials(self):
        assert mul(R("x^2"), R("1/x")) == X

    def test_div_lead_exponent(self):
        assert profile(div(ONE, R("(x+1)^3"))).gamma == -3

    def test_pow_of_derivative(self):
        gprime = GeneralizedRational(GeneralizedPolynomial({2: 1})).derivative()
        assert pow(gprime, 3) == R("8*x^3")

    def test_pow_negative(self):
        assert pow(R("x+1"), -2) == R("1/(x+1)^2")
        with pytest.raises(ZeroDivisionError):
            pow(ZERO, -1)


class TestDerivative:
    def test_square(self):
        assert derivative(R("x^2")) == R("2*x")

    def test_power_rule(self):
        assert derivative(R("1/(x+1)^3")) == R("-3/(x+1)^4")

    def test_half_grid_chain_rule(self):
        got = derivative(R("1/(sqrt(x)+1)^3"))
        want = R("-3/2") * R("x^(-1/2)") / R("(sqrt(x)+1)^4")
        assert got == want
        # numeric spot check against a central difference at x = 4
        f = lambda t: R("1/(sqrt(x)+1)^3").evaluate(t)
        h = 1e-6
        fd = (f(4 + h) - f(4 - h)) / (2 * h)
        assert abs(got.evaluate(4.0) - fd) <= 1e-8 * abs(fd)

    def test_constant_derivative_is_zero(self):
        assert derivative(R("5")).is_zero


class TestComposePoly:
    def test_monomial_substitution(self):
        assert compose_poly(R("-x/8"), GeneralizedPolynomial({2: 1})) == R("-x^2/8")

    def test_constant_passthrough(self):
        assert compose_poly(R("7/3"), GeneralizedPolynomial({2: 1})) == R("7/3")

    def test_rational_substitution(self):
        got = compose_poly(R("-(2*x^2+3)/(4*x)"), GeneralizedPolynomial({2: 1}))
        assert got == R("-(2*x^4+3)/(4*x^2)")

    def test_rejects_half_grid_input(self):
        with pytest.raises(ValueError):
            compose_poly(R("sqrt(x)"), GeneralizedPolynomial({2: 1}))

    def test_rejects_negative_lead(self):
        with pytest.raises(ValueError):
            compose_poly(R("x"), GeneralizedPolynomial({2: -1}))


class TestProfile:
    def test_geometric_series(self):
        p = profile(R("1/(x+1)"), 3)
        assert p.gamma == -1
        assert p.coefficients == (1, -1, 1, -1)
        assert p.integer_step and p.strict

    def test_half_grid_membership_failure(self):
        p = profile(R("-2/3") * (X + R("sqrt(x)")), 2)
        assert p.gamma == 1
        assert not p.integer_step
        assert p.step == Fraction(1, 2)

    def test_monomial(self):
        p = profile(R("x^2"), 0)
        assert p.gamma == 2 and p.strict

    def test_zero_is_distinguished(self):
        p = profile(ZERO)
        assert p.is_zero and not p.strict

    def test_half_grid_with_integer_steps(self):
        # (x+1)/sqrt(x) expands in integer steps from gamma = 1/2.
        p = profile(R("(x+1)/sqrt(x)"), 3)
        assert p.gamma == Fraction(1, 2)
        assert p.integer_step
        assert p.coefficients == (1, 1, 0, 0)


def _random_rationals(count, seed, **kwargs):
    from support import random_rational
    rng = random.Random(seed)
    return [random_rational(rng, **kwargs) for _ in range(count)]


class TestCanonicalForm:
    def test_idempotence(self):
        for r in _random_rationals(60, 1):
            again = GeneralizedRational(r.numerator, r.denominator)
            assert again.numerator == r.numerator
            assert again.denominator == r.denominator

    def test_cross_multiplication_equality(self):
        rng = random.Random(2)
        from support import random_int_poly
        for _ in range(40):
            num = random_int_poly(rng, rng.randint(0, 3))
            den = random_int_poly(rng, rng.randint(0, 3))
            scale = random_int_poly(rng, rng.randint(0, 2))
            a = GeneralizedRational(num, den)
            b = GeneralizedRational(num * scale, den * scale)
            assert a == b
            assert a.numerator * b.denominator == b.numerator * a.denominator

    def test_denominator_is_monic(self):
        for r in _random_rationals(40, 3):
            assert r.denominator.lead_coefficient == 1

    def test_exponents_nonnegative_and_grounded(self):
        for r in _random_rationals(40, 4, half_grid=True):
            lo_num = min(r.numerator.terms) if not r.numerator.is_zero else 0
            lo_den = min(r.denominator.terms)
            assert lo_num >= 0 and lo_den >= 0
            assert min(lo_num, lo_den) == 0


class TestFieldAxioms:
    def test_inverse_and_neutral(self):
        values = _random_rationals(40, 5)
        for a, b in zip(values[::2], values[1::2]):
            if not b.is_zero:
                assert (a / b) * b == a
            assert a + (-a) == ZERO
            assert a * ONE == a

    def test_associativity_commutativity_distributivity(self):
        values = _random_rationals(60, 6, max_degree=3)
        for a, b, c in zip(values[::3], values[1::3], values[2::3]):
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


class TestProfileProperties:
    def test_lead_exponent_homomorphism(self):
        values = _random_rationals(60, 7)
        for a, b in zip(values[::2], values[1::2]):
            assert profile(a * b).gamma == profile(a).gamma + profile(b).gamma
            assert profile(a / b).gamma == profile(a).gamma - profile(b).gamma

    def test_derivative_drops_exponent(self):
        for a in _random_rationals(60, 8):
            gamma = profile(a).gamma
            da = a.derivative()
            if gamma != 0:
                assert profile(da).gamma == gamma - 1
            elif not da.is_zero:
                assert profile(da).gamma <= -2

    def test_composition_scales_exponent(self):
        rng = random.Random(9)
        from support import random_int_poly
        for _ in range(30):
            num_deg, den_deg = rng.randint(0, 3), rng.randint(0, 3)
            a = GeneralizedRational(random_int_poly(rng, num_deg),
                                    random_int_poly(rng, den_deg))
            s = rng.randint(1, 3)
            g_terms = {s: rng.randint(1, 3)}
            for n in range(s):
                c = rng.randint(-2, 2)
                if c:
                    g_terms[n] = c
            g = GeneralizedPolynomial(g_terms)
            assert profile(compose_poly(a, g)).gamma == s * profile(a).gamma

    def test_cauchy_product_of_coefficients(self):
        depth = 6
        values = _random_rationals(40, 10, max_degree=3)
        for a, b in zip(values[::2], values[1::2]):
            pa, pb, pab = profile(a, depth), profile(b, depth), profile(a * b, depth)
            for k in range(depth):
                want = sum(pa.coefficients[i] * pb.coefficients[k - i]
                           for i in range(k + 1))
                assert pab.coefficients[k] == want

    def test_cauchy_product_on_half_grid(self):
        a = R("1/(sqrt(x)+1)")
        b = R("1/(sqrt(x)-1)")
        pa, pb = profile(a, 4), profile(b, 4)
        assert pa.step == pb.step == Fraction(1, 2)
        product = profile(a * b, 4)  # 1/(x-1): integer grid
        assert product.integer_step
        for k in range(4):
            fine = sum(pa.coefficients[i] * pb.coefficients[k - i]
                       for i in range(k + 1))
            if k % 2 == 0:
                assert product.coefficients[k // 2] == fine
            else:
                assert fine == 0


class TestTextFormat:
    def test_worked_rendering(self):
        value = R("-1/4") * R("(16*x^4+15)") / R("x^3") / R("16")
        assert to_text(value) == "-(16*x^4+15)/(64*x^3)"

    def test_roundtrip_random(self):
        for r in _random_rationals(80, 11):
            assert parse_rational(to_text(r)) == r

    def test_roundtrip_monomial_over_constant(self):
        # "-x^2/8" must stay (x^2)/8, not become a fractional power.
        for text in ("-x^2/8", "x^3/2", "3*x/4", "x^(1/2)/2"):
            value = parse_rational(text)
            assert parse_rational(to_text(value)) == value
        assert parse_rational("-x^2/8") == R("-1/8") * R("x^2")

    def test_roundtrip_half_grid(self):
        for r in _random_rationals(40, 12, half_grid=True):
            assert parse_rational(to_text(r)) == r

    def test_zero(self):
        assert to_text(ZERO) == "0"
        assert parse_rational("0").is_zero

    def test_parse_errors(self):
        for bad in ("x +", "1/(x", "y+1", "x^^2", "2**x", "sqrt(x+1)", ""):
            with pytest.raises(RationalParseError):
                parse_rational(bad)

    def test_division_by_zero_function(self):
        with pytest.raises(RationalParseError):
            parse_rational("1/(x-x)")
        with pytest.raises(ZeroDivisionError):
            div(ONE, ZERO)

    def test_zero_exponent_denominator(self):
        with pytest.raises(RationalParseError, match=r"\(position 5\)"):
            parse_rational("x^(1/0)")

    def test_long_sum(self):
        assert parse_rational("+".join(["1"] * 1500)) == R("1500")

    def test_exact_integer_roots(self):
        square = (10 ** 16 + 7) ** 2
        assert parse_rational("sqrt(%d*x^2)" % square) == R("%d*x" % (10 ** 16 + 7))
        cube = (2 ** 53 + 1) ** 3
        assert parse_rational("(%d*x^3)^(1/3)" % cube) == R("%d*x" % (2 ** 53 + 1))
        assert parse_rational("(-%d*x^3)^(1/3)" % cube) == R("-%d*x" % (2 ** 53 + 1))
        assert parse_rational("sqrt(1%s*x)" % ("0" * 400)) == \
            R("1%s*x^(1/2)" % ("0" * 200))
        for bad in ("sqrt(%d*x^2)" % (square + 1), "(%d*x^3)^(1/3)" % (cube - 1)):
            with pytest.raises(RationalParseError, match="exact"):
                parse_rational(bad)

    def test_fractional_power_requires_monomial(self):
        assert parse_rational("x^(3/2)") == R("x") * R("sqrt(x)")
        assert parse_rational("sqrt(4*x^2)") == R("2*x")
        with pytest.raises(RationalParseError):
            parse_rational("(x+1)^(1/2)")


# The two entry points share one grammar and differ only in how a bare
# slash after an exponent reads.
@pytest.mark.parametrize("text, integrand, rational", [
    ("x^3/2", Pow(Var(), Fraction(3, 2)), "x^3*(1/2)"),
    ("x^1/2", Pow(Var(), Fraction(1, 2)), "x*(1/2)"),
    ("x^(1/2)", Pow(Var(), Fraction(1, 2)), "sqrt(x)"),
])
def test_exponent_rule_by_entry_point(text, integrand, rational):
    assert parse(text) == integrand
    assert parse_rational(text) == R(rational)


@pytest.mark.parametrize("text, named", [
    ("sin(x)", "sin(x)"), ("cos(x)", "cos(x)"), ("exp(x)", "exp(x)"),
    ("log(x)", "log(x)"), ("sinc(x)", "sinc(x)"), ("pi*x", "pi"),
])
def test_transcendental_text_rejected(text, named):
    with pytest.raises(RationalParseError,
                       match="'%s' is not a rational function of x" % re.escape(named)):
        parse_rational(text)
