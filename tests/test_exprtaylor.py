import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dmint.bell import bell_eval
from dmint.exprtaylor import (
    BinOp,
    Call,
    ExprDomainError,
    ExprSyntaxError,
    Neg,
    Num,
    PiConst,
    Pow,
    Var,
    derivatives,
    evaluate,
    parse,
    to_text,
)

from support import exact_poly_derivatives, fd5_first, fd5_second


class TestParsing:
    def test_sinc_squared_structure(self):
        assert parse("(sin(x)/x)^2") == Pow(BinOp("/", Call("sin", Var()), Var()),
                                            Fraction(2))

    def test_demo_integrands(self):
        assert parse("sin(x^2)^2/x^4") == BinOp(
            "/", Pow(Call("sin", Pow(Var(), Fraction(2))), Fraction(2)),
            Pow(Var(), Fraction(4)))
        assert parse("1/(sqrt(x)+1)^3") == BinOp(
            "/", Num(Fraction(1)),
            Pow(BinOp("+", Call("sqrt", Var()), Num(Fraction(1))), Fraction(3)))

    def test_precedence(self):
        assert parse("-x^2") == Neg(Pow(Var(), Fraction(2)))
        assert parse("2*x+1") == BinOp("+", BinOp("*", Num(Fraction(2)), Var()),
                                       Num(Fraction(1)))
        assert parse("2*-x") == BinOp("*", Num(Fraction(2)), Neg(Var()))

    def test_longest_match_exponent(self):
        # the exponent literal greedily takes p/q ...
        assert parse("x^1/2") == Pow(Var(), Fraction(1, 2))
        # ... but not when the denominator is not a number
        assert parse("x^2/x") == BinOp("/", Pow(Var(), Fraction(2)), Var())
        assert parse("x^(-3)") == Pow(Var(), Fraction(-3))
        assert parse("x^-3") == Pow(Var(), Fraction(-3))

    def test_pi_and_decimals(self):
        assert parse("pi") == PiConst()
        assert parse("0.25") == Num(Fraction(1, 4))
        assert evaluate(parse("2*sqrt(pi)/3"), 0.0) == pytest.approx(
            2 * math.sqrt(math.pi) / 3, rel=1e-15)

    def test_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("sin(x")
        assert info.value.position == 5
        with pytest.raises(ExprSyntaxError) as info:
            parse("x + foo(x)")
        assert info.value.position == 4
        with pytest.raises(ExprSyntaxError):
            parse("x^^2")
        with pytest.raises(ExprSyntaxError):
            parse("")

    def test_zero_exponent_denominator(self):
        for source, position in (("x^(1/0)", 5), ("x^1/0", 4), ("x^(2/0.0)", 5)):
            with pytest.raises(ExprSyntaxError) as info:
                parse(source)
            assert info.value.position == position


def random_expr(rng, depth):
    choices = ["num", "x", "pi"] if depth == 0 else [
        "num", "x", "pi", "neg", "bin", "bin", "pow", "call", "call"]
    kind = rng.choice(choices)
    if kind == "num":
        return Num(Fraction(rng.randint(0, 99), rng.choice([1, 2, 4, 5, 10])))
    if kind == "x":
        return Var()
    if kind == "pi":
        return PiConst()
    if kind == "neg":
        return Neg(random_expr(rng, depth - 1))
    if kind == "bin":
        op = rng.choice("+-*/")
        return BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == "pow":
        exponent = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 1, 2]))
        return Pow(random_expr(rng, depth - 1), exponent)
    return Call(rng.choice(("sin", "cos", "exp", "log", "sqrt", "sinc")),
                random_expr(rng, depth - 1))


class TestPrintRoundTrip:
    def test_thousand_random_expressions(self):
        rng = random.Random(42)
        for _ in range(1000):
            node = random_expr(rng, rng.randint(0, 4))
            assert parse(to_text(node)) == node


class TestDerivatives:
    def test_polynomial(self):
        assert derivatives(parse("x^2"), 3.0, 3) == [9.0, 6.0, 2.0]

    def test_sine_pattern_at_zero(self):
        assert derivatives(parse("sin(x)"), 0.0, 4) == [0.0, 1.0, 0.0, -1.0]

    def test_random_polynomials_against_symbolic(self):
        rng = random.Random(7)
        for _ in range(40):
            degree = rng.randint(0, 6)
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree + 1)]
            node = None
            for i, c in enumerate(coeffs):
                term = BinOp("*", Num(c), Pow(Var(), Fraction(i)))
                node = term if node is None else BinOp("+", node, term)
            x0 = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
            exact = exact_poly_derivatives(coeffs, x0, degree + 2)
            got = derivatives(node, float(x0), degree + 2)
            for g, e in zip(got, exact):
                assert g == pytest.approx(float(e), rel=1e-12, abs=1e-9)

    def test_against_finite_differences(self):
        h = 1e-4
        for source in ("(sin(x)/x)^2", "sin(x^2)^2/x^4"):
            node = parse(source)
            f = lambda t: evaluate(node, t)
            for x0 in [1.6 * j for j in range(1, 12)]:
                d = derivatives(node, x0, 3)
                fd1 = fd5_first(f, x0, h)
                fd2 = fd5_second(f, x0, h)
                assert d[0] == pytest.approx(f(x0), rel=1e-15)
                assert d[1] == pytest.approx(fd1, rel=1e-6)
                assert d[2] == pytest.approx(fd2, rel=1e-6)

    def test_chain_rule_against_bell_assembly(self):
        cases = [
            ("sinc(x)^2", "x^2", "sinc(x^2)^2"),
            ("exp(-x)", "x^2+x", "exp(-(x^2+x))"),
            ("log(x)/x", "x^2+1", "log(x^2+1)/(x^2+1)"),
        ]
        for outer_src, inner_src, composed_src in cases:
            outer, inner, composed = map(parse, (outer_src, inner_src, composed_src))
            for x0 in (1.3, 2.7):
                depth = 6
                inner_vals = derivatives(inner, x0, depth + 1)
                outer_vals = derivatives(outer, inner_vals[0], depth + 1)
                composed_vals = derivatives(composed, x0, depth + 1)
                for n in range(1, depth):
                    assembled = sum(
                        bell_eval(n, k, inner_vals[1: n - k + 2]) * outer_vals[k]
                        for k in range(1, n + 1))
                    assert composed_vals[n] == pytest.approx(assembled, rel=1e-10)


class TestEvaluate:
    def test_sinc_at_zero(self):
        assert evaluate(parse("sinc(x)"), 0.0) == 1.0
        assert evaluate(parse("sinc(x^2)^2"), 0.0) == 1.0

    def test_zero_at_pi(self):
        assert abs(evaluate(parse("(sin(x)/x)^2"), math.pi)) < 1e-30

    def test_composed_at_one(self):
        assert evaluate(parse("sin(x^2)^2/x^4"), 1.0) == pytest.approx(
            math.sin(1.0) ** 2, rel=1e-15)

    def test_matches_first_derivative_entry(self):
        for source in ("sinc(x)^2", "exp(-x)*sin(x)", "x^(1/2)+log(x)"):
            node = parse(source)
            for x0 in (0.3, 1.7, 9.2):
                assert evaluate(node, x0) == derivatives(node, x0, 4)[0]

    def test_sinc_matches_quotient_form(self):
        quotient = parse("sin(x)/x")
        sinc = parse("sinc(x)")
        for x0 in (1e-8, 0.4999, 0.5001, 2.0, 40.0):
            assert evaluate(sinc, x0) == pytest.approx(
                evaluate(quotient, x0), rel=1e-14)
        jet_a = derivatives(sinc, 0.4999, 5)
        jet_b = derivatives(quotient, 0.4999, 5)
        for a, b in zip(jet_a, jet_b):
            assert a == pytest.approx(b, rel=1e-11)


class TestArrayEvaluate:
    SOURCES = ("sinc(x)^2", "sinc(x^2)^2", "exp(-x)*cos(x)", "x^(1/2)+log(x)",
               "1/(1+x)^2", "x*sin(x)/(1+x^2)", "sqrt(x)^(-3)*exp(-x/4)")

    def test_matches_point_by_point(self):
        rng = random.Random(8)
        points = [rng.uniform(0.01, 60.0) for _ in range(300)] + [0.25, 0.5, 0.7071]
        for source in self.SOURCES:
            node = parse(source)
            values = evaluate(node, np.array(points))
            assert isinstance(values, np.ndarray) and values.shape == (len(points),)
            assert values.tolist() == [evaluate(node, x) for x in points]
            assert all(evaluate(node, x) == derivatives(node, x, 3)[0]
                       for x in points[:20])

    def test_sinc_branch_per_element(self):
        # Points on both sides of |z| = 0.5, where sinc switches from its
        # series to the quotient form.
        points = [0.0, 0.3, 0.4999, 0.5, 0.5001, 2.0, -0.2, -0.75]
        node = parse("sinc(x)")
        assert evaluate(node, np.array(points)).tolist() == [
            evaluate(node, x) for x in points]

    def test_shapes(self):
        node = parse("x^2+1")
        grid = np.arange(6.0).reshape(2, 3)
        assert evaluate(node, grid).tolist() == [[1.0, 2.0, 5.0], [10.0, 17.0, 26.0]]
        assert isinstance(evaluate(node, 2.0), float)
        constant = evaluate(parse("2*pi"), np.ones(4))
        assert constant.shape == (4,) and constant.tolist() == [2 * math.pi] * 4

    def test_domain_error_on_any_element(self):
        with pytest.raises(ExprDomainError) as info:
            evaluate(parse("log(x-2)"), np.array([3.0, 2.5, 1.0]))
        assert "log(x-2)" in str(info.value)


class TestDomainErrors:
    def test_log_and_sqrt(self):
        with pytest.raises(ExprDomainError) as info:
            evaluate(parse("log(x-2)"), 1.0)
        assert "log(x-2)" in str(info.value)
        with pytest.raises(ExprDomainError):
            evaluate(parse("sqrt(x-2)"), 1.0)
        with pytest.raises(ExprDomainError):
            derivatives(parse("sqrt(x)"), 0.0, 2)

    def test_division_by_zero(self):
        with pytest.raises(ExprDomainError) as info:
            evaluate(parse("1/(x-1)"), 1.0)
        assert "1/(x-1)" in str(info.value)

    def test_fractional_power_domain(self):
        with pytest.raises(ExprDomainError):
            evaluate(parse("(x-5)^(1/2)"), 1.0)

    def test_exp_overflow_names_subexpression(self):
        node = parse("exp(x^2)*exp(-x^2)")
        for x in (30.0, np.array([1.0, 30.0])):
            with pytest.raises(ExprDomainError) as info:
                evaluate(node, x)
            assert str(info.value) == "exp overflow in 'exp(x^2)'"
        with pytest.raises(ExprDomainError) as info:
            derivatives(parse("exp(x)"), 800.0, 3)
        assert str(info.value) == "exp overflow in 'exp(x)'"
        with pytest.raises(ExprDomainError) as info:
            evaluate(parse("x^(3/2)"), 1e300)
        assert str(info.value) == "overflow in 'x^(3/2)'"

    def test_sqrt_at_zero_value_only(self):
        assert evaluate(parse("sqrt(x)"), 0.0) == 0.0
