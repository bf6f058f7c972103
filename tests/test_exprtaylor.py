import hashlib
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from dmint.expr import (
    BinOp,
    Call,
    ExprSyntaxError,
    Neg,
    Num,
    PiConst,
    Pow,
    Var,
    parse,
    to_text,
)
from dmint.exprtaylor import ExprDomainError, derivatives, evaluate
from dmint.quad import grid_from_descriptor

from support import exact_poly_derivatives, tree_key


def parses_to(source, tree):
    return tree_key(parse(source)) == tree_key(tree)


class TestParsing:
    def test_sinc_squared_structure(self):
        assert parses_to("(sin(x)/x)^2", Pow(BinOp("/", Call("sin", Var()), Var()), Fraction(2)))

    def test_demo_integrands(self):
        assert parses_to("sin(x^2)^2/x^4", BinOp(
            "/", Pow(Call("sin", Pow(Var(), Fraction(2))), Fraction(2)),
            Pow(Var(), Fraction(4))))
        assert parses_to("1/(sqrt(x)+1)^3", BinOp(
            "/", Num(Fraction(1)),
            Pow(BinOp("+", Call("sqrt", Var()), Num(Fraction(1))), Fraction(3))))

    def test_precedence(self):
        assert parses_to("-x^2", Neg(Pow(Var(), Fraction(2))))
        assert parses_to("2*x+1", BinOp("+", BinOp("*", Num(Fraction(2)), Var()),
                                         Num(Fraction(1))))
        assert parses_to("2*-x", BinOp("*", Num(Fraction(2)), Neg(Var())))

    def test_longest_match_exponent(self):
        # a bare p/q after ^ reads two ways, so it is refused ...
        for source, message in (
                ("x^1/2", "write x^(1/2) or (x^1)/2 (position 3)"),
                ("x^-1/2", "write x^(-1/2) or (x^-1)/2 (position 4)"),
                ("(x+1)^3/2", "write (x+1)^(3/2) or ((x+1)^3)/2 (position 7)")):
            with pytest.raises(ExprSyntaxError) as info:
                parse(source)
            assert str(info.value) == "ambiguous exponent: " + message
        # ... but not when the denominator is not a number
        assert parses_to("x^2/x", BinOp("/", Pow(Var(), Fraction(2)), Var()))
        assert parses_to("x^2/(3)", BinOp("/", Pow(Var(), Fraction(2)), Num(Fraction(3))))
        assert parses_to("x^(-3)", Pow(Var(), Fraction(-3)))
        assert parses_to("x^-3", Pow(Var(), Fraction(-3)))

    def test_pi_and_decimals(self):
        assert parses_to("pi", PiConst())
        assert parses_to("0.25", Num(Fraction(1, 4)))
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
        for source, position in (("x^(1/0)", 5), ("x^1/0", 3), ("x^(2/0.0)", 5)):
            with pytest.raises(ExprSyntaxError) as info:
                parse(source)
            assert info.value.position == position
        # A bare x^1/0 is refused as ambiguous before its zero is read.
        with pytest.raises(ExprSyntaxError, match="^ambiguous exponent"):
            parse("x^1/0")


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
            assert parses_to(to_text(node), node)


class TestDerivatives:
    def test_factorials_beyond_the_float_range(self):
        # 171! is beyond the float range: the rows from k = 171 on are
        # inf or nan, with no error and no warning.
        for x0 in (1.0, np.array([1.0, 2.0])):
            rows = derivatives(parse("exp(-x)"), x0, 200)
            assert len(rows) == 200
            assert np.all(np.isfinite(rows[:171]))
            assert not np.any(np.isfinite(rows[171:]))

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


class TestRowsIndependentOfCount:
    # sin and cos jets are carried only to the orders a caller reads; a
    # row must not change when more rows are asked for.  Points lie on both
    # sides of |z| = 0.5, where sinc switches between series and quotient.
    POINTS = np.array([0.1, 0.4999, 0.5, 0.5001, -0.5001, 0.7, 2.3, -9.1])

    @pytest.mark.parametrize("source", ["sin(x)", "cos(x)", "sin(x)*cos(x)",
                                        "sinc(x)", "sinc(x^2)^2"])
    def test_rows_match_a_longer_jet(self, source):
        node = parse(source)
        for count in range(1, 6):
            short = derivatives(node, self.POINTS, count)
            longer = derivatives(node, self.POINTS, count + 2)[:count]
            assert [v.hex() for v in short.ravel()] == [v.hex() for v in longer.ravel()]


class TestIntegerPowers:
    def test_huge_exponents(self):
        # Exact integers at x = 1: n, n(n-1) and -n, n(n+1).
        assert derivatives(parse("x^100000"), 1.0, 3) == [1.0, 1e5, 9999900000.0]
        assert derivatives(parse("x^(-100000)"), 1.0, 3) == [1.0, -1e5, 10000100000.0]

    def test_cube_is_three_products(self):
        points = np.array([0.3, 0.4999, 0.5001, 1.7, 6.2, -3.3])
        cube = derivatives(parse("sinc(x)^3"), points, 4)
        product = derivatives(parse("sinc(x)*sinc(x)*sinc(x)"), points, 4)
        assert [v.hex() for v in cube.ravel()] == [v.hex() for v in product.ravel()]


class TestPortableBits:
    # Sums, products, quotients, integer powers and sqrt take only IEEE 754
    # operations and math.fsum, which no libm moves, so these rows hash the
    # same on every platform.  The array-vs-point tests compare two paths of
    # the same jet code; this one sees a regrouped product, such as a power
    # |e| >= 4 taken another way than square and multiply.
    SOURCES = ("1/(1+x^2)", "(2+x)^(-7)", "sqrt(1+x^2)*x^5", "(x-3)^4/(x^2+1)^5",
               "x^13-2*x^6+1", "-(1-x)^9/(x+2)^5")

    def test_derivative_rows_hash(self):
        points = np.array(grid_from_descriptor("linear:1.6", 91).points)
        digest = hashlib.sha256()
        for source in self.SOURCES:
            node = parse(source)
            for count in range(1, 7):
                rows = derivatives(node, points, count)
                digest.update(" ".join(v.hex() for v in rows.ravel().tolist()).encode())
        assert digest.hexdigest() == (
            "8d6dcbd240f315de6fcf5c68a23b44d857076ddfe1787b1db6d4cad7326bb47f")


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


class TestArrayDerivatives:
    # Points on both sides of |z| = 0.5 for sinc(x) and sinc(x-1); from
    # the third on, every sinc(x) takes the quotient form.
    POINTS = [0.25, 0.4999, 0.5, 0.5001, 1.4999, 1.5001, 2.0, 7.3, 31.0]
    SOURCES = ("sinc(x)", "sinc(x-1)^3", "sinc(x^2)^2", "x^(-3/2)*sin(x)",
               "x^(1/3)*cos(x)", "exp(-x)/x^2", "log(x)*sqrt(x)", "(1+x)^(-5/2)")

    @staticmethod
    def assert_columns_match(node, points, count):
        rows = derivatives(node, np.array(points), count)
        assert isinstance(rows, np.ndarray) and rows.shape == (count, len(points))
        for x, column in zip(points, rows.T.tolist()):
            assert [v.hex() for v in column] == [
                v.hex() for v in derivatives(node, x, count)]

    @pytest.mark.parametrize("source, x, count", [
        # f' = 2*exp(709)*x leaves the float range in a product's sum.
        ("exp(709)*x*x", 1.2, 2),
        ("(exp(354.59)*x)^2", 1.0, 2),
        # f'' = (4a^2 + 2a) exp(a), with 4a^2 exp(a) just below the range.
        ("exp(695.307*x^2)", 1.0, 3),
    ])
    def test_overflow_in_a_jet_sum_names_its_node(self, source, x, count):
        node = parse(source)
        message = "^overflow in '%s'$" % re.escape(source)
        with pytest.raises(ExprDomainError, match=message):
            derivatives(node, np.array([0.5 * x, x]), count)
        with pytest.raises(ExprDomainError, match=message):
            derivatives(node, x, count)
        assert all(map(math.isfinite, derivatives(node, 0.5 * x, count)))

    def test_fixed_expressions(self):
        for source in self.SOURCES:
            for count in (1, 2, 3, 5):
                self.assert_columns_match(parse(source), self.POINTS, count)
                self.assert_columns_match(parse(source), self.POINTS[2:], count)

    def test_elementary_functions_are_the_math_modules(self):
        # numpy's exp and log differ from the C library's in the last bit
        # on some inputs; the jets must give the math module's values.  The
        # square root is numpy's, which IEEE 754 rounds as the math module's,
        # also at signed zeros, subnormals, the float range's ends, inf and nan.
        rng = random.Random(12)
        points = [rng.uniform(0.01, 50.0) for _ in range(2000)]
        rng = random.Random(15)
        extremes = ([rng.uniform(0.0, 1e3) for _ in range(1000)]
                    + [10.0 ** rng.uniform(-320.0, 308.0) for _ in range(1000)]
                    + [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308,
                       1.7976931348623157e308, math.inf, math.nan])
        for name, values in (("exp", points), ("log", points), ("sin", points),
                             ("cos", points), ("sqrt", points + extremes)):
            got = derivatives(parse("%s(x)" % name), np.array(values), 1)[0]
            assert [v.hex() for v in got.tolist()] == [
                getattr(math, name)(x).hex() for x in values]

    def test_random_expressions(self):
        rng = random.Random(11)
        points = [rng.uniform(-4.0, 9.0) for _ in range(30)] + [
            0.4999, 0.5001, -0.4999, -0.5001, 0.0]
        compared = failed = 0
        for _ in range(300):
            node = random_expr(rng, rng.randint(1, 4))
            count = rng.choice((1, 2, 3, 5))
            try:
                derivatives(node, np.array(points), count)
            except ExprDomainError:
                # Some point fails alone too.
                with pytest.raises(ExprDomainError):
                    for x in points:
                        derivatives(node, x, count)
                failed += 1
                continue
            self.assert_columns_match(node, points, count)
            compared += 1
        assert compared > 100 and failed > 20


class TestDomainErrors:
    # Every jet failure: the source, a point where it fails, one where it
    # does not (a literal fails at every point), the derivative count and
    # the exact message.
    @pytest.mark.parametrize("source, bad, good, count, message", [
        pytest.param("1/(x-1)", 1.0, 2.0, 1, "division by zero in '1/(x-1)'",
                     id="division"),
        pytest.param("(x-1)^(-2)", 1.0, 2.0, 1,
                     "zero raised to a negative power in '(x-1)^(-2)'", id="negative-power"),
        # x^200 underflows to 0 at x = 1e-2.
        pytest.param("x^(-200)", 1e-2, 0.5, 1,
                     "zero raised to a negative power in 'x^(-200)'", id="underflowed-power"),
        pytest.param("(x-5)^(1/2)", 1.0, 6.0, 1,
                     "fractional power of a non-positive value in '(x-5)^(1/2)'",
                     id="fractional-power-domain"),
        pytest.param("log(x-2)", 1.0, 3.0, 2, "log of a non-positive value in 'log(x-2)'",
                     id="log"),
        pytest.param("sqrt(x-2)", 1.0, 3.0, 1, "sqrt of a negative value in 'sqrt(x-2)'",
                     id="negative-sqrt"),
        pytest.param("sqrt(x)", 0.0, 1.0, 2, "sqrt is not differentiable at 0 in 'sqrt(x)'",
                     id="sqrt-at-zero"),
        pytest.param("exp(x^2)*exp(-x^2)", 30.0, 1.0, 1, "overflow in 'exp(x^2)'",
                     id="exp-overflow"),
        pytest.param("x^(3/2)", 1e300, 1.0, 1, "overflow in 'x^(3/2)'",
                     id="fractional-power-overflow"),
        pytest.param("exp(709)*x*x", 1.2, 0.6, 2, "overflow in 'exp(709)*x*x'",
                     id="jet-sum-overflow"),
        # inf - inf among the terms of a jet product.
        pytest.param("(exp(709)*x^2+exp(709)*x^2)*(x-2)", 1.5, 0.5, 2,
                     "-inf + inf in fsum in '(exp(709)*x^2+exp(709)*x^2)*(x-2)'",
                     id="jet-sum-inf-minus-inf"),
        pytest.param("x+1" + "0" * 400, 1.0, 2.0, 1, "overflow in '1%s'" % ("0" * 400),
                     id="literal-overflow"),
    ])
    def test_each_failure_names_its_node_once(self, source, bad, good, count, message):
        node = parse(source)
        for x in (bad, np.array([good, bad])):
            with pytest.raises(ExprDomainError) as info:
                derivatives(node, x, count)
            assert str(info.value) == message
            assert info.value.__cause__ is not None
            assert not isinstance(info.value.__cause__, ExprDomainError)

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
            assert str(info.value) == "overflow in 'exp(x^2)'"
        with pytest.raises(ExprDomainError) as info:
            derivatives(parse("exp(x)"), 800.0, 3)
        assert str(info.value) == "overflow in 'exp(x)'"
        with pytest.raises(ExprDomainError) as info:
            evaluate(parse("x^(3/2)"), 1e300)
        assert str(info.value) == "overflow in 'x^(3/2)'"

    def test_sqrt_at_zero_value_only(self):
        assert evaluate(parse("sqrt(x)"), 0.0) == 0.0
