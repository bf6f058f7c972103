import math
import random
import re
import time
from fractions import Fraction

import pytest

from dmint import collect_counts, symseries
from dmint.compose import OdeCoefficients, verify_b1_membership
from dmint.expr import ExprSyntaxError, Pow, Var, parse
from dmint.symseries import (
    GeneralizedPolynomial,
    GeneralizedRational,
    RationalParseError,
    compose_poly,
    parse_rational,
    to_text,
)

from support import tree_key

X = GeneralizedRational.variable()
ONE = GeneralizedRational.one()
ZERO = GeneralizedRational.zero()


def R(text):
    return parse_rational(text)


class TestArithmeticExamples:
    def test_additive_identity(self):
        assert R("1/x") + ZERO == R("1/x")

    def test_cancellation_to_constant(self):
        assert R("x/(x-1)") + R("-1/(x-1)") == ONE

    def test_half_grid_sum_collapses(self):
        f1 = R("x^(1/2)") * R("(x+3)/(x-1)^3")
        f2 = R("-(3*x+1)/(x-1)^3")
        total = f1 + f2
        assert total == R("1/(sqrt(x)+1)^3")
        assert total == (R("(sqrt(x)-1)/(x-1)")) ** 3

    def test_mul_monomials(self):
        assert R("x^2") * R("1/x") == X

    def test_div_lead_exponent(self):
        assert (ONE / R("(x+1)^3")).lead_exponent == -3

    def test_pow_of_derivative(self):
        gprime = GeneralizedRational(GeneralizedPolynomial({2: 1})).derivative()
        assert gprime ** 3 == R("8*x^3")

    def test_pow_negative(self):
        assert R("x+1") ** -2 == R("1/(x+1)^2")
        with pytest.raises(ZeroDivisionError):
            ZERO ** -1


def count_products(power):
    """The value of ``power()`` and the products it takes of each class; a
    runaway loop of products is counted, not stopped, so keep k small."""
    with collect_counts() as counts:
        value = power()
    return value, {GeneralizedPolynomial: counts["symseries.polynomial_products"],
                   GeneralizedRational: counts["symseries.rational_products"]}


class TestPowers:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 4000])
    def test_polynomial_square_and_multiply(self, k):
        power, products = count_products(lambda: GeneralizedPolynomial.variable() ** k)
        assert power == GeneralizedPolynomial({k: 1})
        assert products[GeneralizedPolynomial] <= 2 * k.bit_length()
        assert products[GeneralizedRational] == 0

    @pytest.mark.parametrize("k", [0, 1, 5, 4000, -4000])
    def test_rational_square_and_multiply(self, k):
        power, products = count_products(lambda: X ** k)
        assert products[GeneralizedRational] <= 2 * abs(k).bit_length()
        # Each rational product is two polynomial ones, and nothing else is.
        assert products[GeneralizedPolynomial] == 2 * products[GeneralizedRational]
        if k >= 0:
            assert power.numerator == GeneralizedPolynomial({k: 1})
        else:
            assert power.denominator == GeneralizedPolynomial({-k: 1})

    @pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (5, 3)])
    @pytest.mark.parametrize("cls, base", [
        (GeneralizedPolynomial, GeneralizedPolynomial({0: 1, 1: 1})),
        (GeneralizedRational, GeneralizedRational(GeneralizedPolynomial({0: 1, 1: 1}),
                                                  GeneralizedPolynomial({2: 1, 0: 3}))),
    ], ids=["polynomial", "rational"])
    def test_no_product_by_one(self, cls, base, k, products):
        expected = cls.one()
        for _ in range(k):
            expected = expected * base
        power, counted = count_products(lambda: base ** k)
        assert power == expected
        assert counted[cls] == products

    def test_power_of_a_quotient_reduces_small_cross_pairs(self):
        # Each product of the square and multiply reduces two cross pairs of
        # powers, never the product's own pair of degree 80 and 120: 0.1 s
        # on x86-64, where reducing each product took 2.5-2.8 s.
        start = time.perf_counter()
        value = parse_rational("((x^2+3*x+1)/(x^3+2))^40")
        elapsed = time.perf_counter() - start
        # The two bases are coprime and monic, so their powers are the pair.
        assert value.numerator == GeneralizedPolynomial({2: 1, 1: 3, 0: 1}) ** 40
        assert value.denominator == GeneralizedPolynomial({3: 1, 0: 2}) ** 40
        assert elapsed < 0.5, "the power took %.3f s" % elapsed

    def test_powers_match_repeated_products(self):
        for base in (R("x+1"), R("(2*x-3)/(x^2+1)"), R("x^(1/2)-1/x"), R("-3/x")):
            product = ONE
            for k in range(12):
                assert base ** k == product
                assert base ** -k == ONE / product
                product = product * base

    def test_monomial_sides_skip_the_dense_gcd(self):
        # A one-term side shares no factor with the other: x^-1000000000
        # would otherwise make a gcd list of 10^9 terms, which the size
        # budget refuses.
        assert to_text(R("x^4000")) == "x^4000"
        assert to_text(R("x^-1000000000")) == "1/x^1000000000"
        assert to_text(R("(x^3+2)/(4*x^2000)")) == "(x^3+2)/(4*x^2000)"
        assert to_text(R("3*x^(1/2)/(x+1)^2")) == "3*x^(1/2)/(x^2+2*x+1)"

    def test_canonical_pair_matches_dense_gcd(self):
        from support import assert_canonical, random_int_poly
        rng = random.Random(17)
        for _ in range(300):
            sides = []
            for _side in range(2):
                if rng.random() < 0.5:
                    d = rng.choice((1, 2, 3))
                    sides.append(GeneralizedPolynomial(
                        {rng.randint(-6, 9): Fraction(rng.choice((-5, -1, 1, 2, 7)),
                                                      rng.randint(1, 4))}, d))
                else:
                    sides.append(random_int_poly(rng, rng.randint(0, 4)))
            assert_canonical(GeneralizedRational(*sides), *sides)


class TestDerivative:
    def test_square(self):
        assert R("x^2").derivative() == R("2*x")

    def test_power_rule(self):
        assert R("1/(x+1)^3").derivative() == R("-3/(x+1)^4")

    def test_half_grid_chain_rule(self):
        got = R("1/(sqrt(x)+1)^3").derivative()
        want = R("-3/2") * R("x^(-1/2)") / R("(sqrt(x)+1)^4")
        assert got == want
        # numeric spot check against a central difference at x = 4
        f = lambda t: R("1/(sqrt(x)+1)^3").evaluate(t)
        h = 1e-6
        fd = (f(4 + h) - f(4 - h)) / (2 * h)
        assert abs(got.evaluate(4.0) - fd) <= 1e-8 * abs(fd)

    def test_constant_derivative_is_zero(self):
        assert R("5").derivative().is_zero


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
    # The order of a function at infinity: its leading exponent and whether
    # its expansion there steps down in whole powers of x.
    def test_geometric_series(self):
        a = R("1/(x+1)")
        assert a.lead_exponent == -1
        assert a.integer_step

    def test_monomial(self):
        a = R("x^2")
        assert a.lead_exponent == 2 and a.integer_step

    def test_zero_is_distinguished(self):
        assert ZERO.is_zero
        with pytest.raises(ValueError, match="no leading exponent"):
            ZERO.lead_exponent
        with pytest.raises(ValueError, match="no expansion"):
            ZERO.integer_step

    def test_half_grid_with_integer_steps(self):
        # (x+1)/sqrt(x) expands in integer steps from gamma = 1/2.
        a = R("(x+1)/sqrt(x)")
        assert a.lead_exponent == Fraction(1, 2)
        assert a.integer_step

    def test_integer_step_beyond_the_expansion_depth(self):
        # f/f' for f = x^(-19/2) + x: the first off-grid term sits 21/2
        # below gamma = 1, deeper than a short expansion would look.
        f = R("x^(-19/2)+x")
        a = f / f.derivative()
        assert a.lead_exponent == 1
        assert not a.integer_step

    def test_integer_step_agrees_with_a_long_scan(self):
        # The property and the two callers that read it: OdeCoefficients
        # takes a as p_1, and verify_b1_membership takes a as f and
        # judges its p_1 = a/a'.
        values = _random_rationals(300, 21) + _random_rationals(300, 22, half_grid=True)
        verdicts, members = [], []
        for a in values:
            whole = _scan_integer_step(a, 120)
            verdicts.append(a.integer_step)
            assert verdicts[-1] == whole
            gamma = a.lead_exponent
            try:
                ode = OdeCoefficients([a])
            except ValueError as exc:
                assert not (whole and gamma.denominator == 1)
                assert str(exc).endswith("got leading exponent %s" % gamma)
            else:
                assert whole and ode.i == (gamma,)
            if a.derivative().is_zero:
                continue
            report = verify_b1_membership(a)
            gamma = report.p1.lead_exponent
            members.append(report.member)
            assert report.member == (_scan_integer_step(report.p1, 120)
                                     and gamma.denominator == 1 and gamma <= 1)
        assert 10 < verdicts.count(False) < 300 < verdicts.count(True)
        assert 10 < members.count(False) and 10 < members.count(True)


# Factors that the random values below share: repeated in a denominator,
# across a product's cross pairs, and across grids: (x^(1/2)-1)*(x^(1/2)+1)
# is x-1 and (x^(1/3)+1)*(x^(2/3)-x^(1/3)+1) is x+1.
FACTORS = ("x", "x+1", "x-1", "2*x+3", "x^2+x+1", "x^(1/2)+1", "x^(1/2)-1",
           "x^(1/3)+1", "x^(2/3)-x^(1/3)+1")


def _factored_rational(rng):
    """A canonical rational built from FACTORS, or a constant, or 0."""
    kind = rng.random()
    if kind < 0.05:
        return ZERO
    num = "%d/%d" % (rng.choice((-5, -1, 1, 2, 7)), rng.randint(1, 4))
    if kind < 0.1:
        return R(num)
    num += "".join("*(%s)" % f for f in rng.sample(FACTORS, rng.randint(0, 2)))
    den = "".join("*(%s)^%d" % (f, rng.randint(1, 3)) for f in rng.sample(FACTORS, rng.randint(0, 2)))
    return R("%s/(1%s)" % (num, den))


def test_henrici_rules_match_the_once_reduced_pair():
    # A product and a quotient reduce only their two cross pairs, and a
    # derivative only gcd(den, den'); each equals the cross-multiplied pair
    # reduced once by the constructor, and is canonical by an independent
    # Euclid.  A skipped cross reduction, or h = 1 in the derivative, leaves
    # a common factor that the structural comparison sees.
    from support import assert_canonical
    rng = random.Random(50)
    values = [_factored_rational(rng) for _ in range(300)]
    assert sum(r.is_zero for r in values) > 5 and sum(r.denominator != 1 for r in values) > 150
    for a, b in zip(values, values[1:] + values[:1]):
        cases = [(lambda: a * b, a.numerator * b.numerator, a.denominator * b.denominator, 2),
                 (a.derivative, a.numerator.derivative() * a.denominator
                  - a.numerator * a.denominator.derivative(), a.denominator ** 2, 1)]
        if not b.is_zero:
            cases.append((lambda: a / b, a.numerator * b.denominator,
                          a.denominator * b.numerator, 2))
        for operation, num, den, pairs in cases:
            with collect_counts() as counts:
                value = operation()
            assert counts["symseries.canonical_pairs"] == pairs
            assert value == GeneralizedRational(num, den)
            assert_canonical(value, num, den)


def _scan_integer_step(a, steps):
    """Whether the first ``steps`` fine-grid terms of a's expansion at
    infinity all sit an integer number of steps below the leading one,
    by long division in x**(-1/d)."""
    d = a.numerator.step_denominator * a.denominator.step_denominator
    nt = a.numerator.rescaled_terms(d)
    dt = a.denominator.rescaled_terms(d)
    top_n, top_d = max(nt), max(dt)
    c = []
    for j in range(steps + 1):
        val = nt.get(top_n - j, Fraction(0))
        for n, b in dt.items():
            if 0 < top_d - n <= j:
                val -= b * c[j - (top_d - n)]
        c.append(val / dt[top_d])
    return all(value == 0 for j, value in enumerate(c) if j % d)


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

    def test_negation_keeps_the_pair_without_reducing(self):
        # -r is the pair (-num, den), coprime as r's is, so negation reduces
        # no pair; a - b reduces its one cross-multiplied pair, as a + b does.
        values = _random_rationals(40, 7) + _random_rationals(20, 8, half_grid=True)
        with collect_counts() as counts:
            negated = [-r for r in values + [ZERO]]
        assert counts["symseries.canonical_pairs"] == 0
        for n, r in zip(negated, values + [ZERO]):
            assert type(n) is GeneralizedRational
            assert (n.numerator, n.denominator) == (-r.numerator, r.denominator)
        pairs = list(zip(values, values[1:]))
        with collect_counts() as counts:
            differences = [a - b for a, b in pairs]
        assert counts["symseries.canonical_pairs"] == len(pairs)
        assert differences == [a + -b for a, b in pairs]

    def test_reciprocal_and_substitution_reduce_no_pair(self):
        # 1/r swaps a coprime pair, and N(g), D(g) are coprime when N and D
        # are; both are still canonical.
        from support import assert_canonical
        g = GeneralizedPolynomial({3: 1, 1: 2, 0: 1})
        values = [r for r in _random_rationals(40, 9) if not r.is_zero]
        with collect_counts() as counts:
            reciprocals = [r ** -1 for r in values]
            composed = [compose_poly(r, g) for r in values]
        assert counts["symseries.canonical_pairs"] == 0
        for inverse, r in zip(reciprocals, values):
            assert_canonical(inverse, r.denominator, r.numerator)
        for value, r in zip(composed, values):
            assert_canonical(value, r.numerator.substitute(g), r.denominator.substitute(g))

    def test_equal_values_hash_equal(self):
        # A rational over the denominator 1 equals its numerator and, when
        # that is constant, its int or Fraction, as a constant polynomial
        # does; each pair is one set member.
        P = GeneralizedPolynomial
        for value, equal in ((ONE, 1), (ONE, P.one()), (ZERO, 0), (ZERO, P.zero()),
                             (R("3/2"), Fraction(3, 2)), (R("3/2"), P.constant(Fraction(3, 2))),
                             (R("x"), P.variable()), (P.one(), 1), (P.zero(), 0),
                             (P.constant(Fraction(3, 2)), Fraction(3, 2))):
            assert value == equal and len({value, equal}) == 1
        assert len({1, ONE, P.one()}) == 1

    def test_writing_into_terms_leaves_the_value(self):
        # terms is a new map on each read.  Negation and scaling share the
        # stored ints of the value they start from, and a write into the
        # view of any of them reaches none.
        p = R("(3*x^2-x)/2").numerator
        for q, text in ((p, "(3*x^2-x)/2"), (-p, "-(3*x^2-x)/2"), (p.scaled(4), "6*x^2-2*x")):
            view = q.terms
            view[2] = Fraction(7)
            view[9] = Fraction(1)
            del view[1]
            expected = R(text).numerator
            assert q == expected and q.terms == expected.terms
        assert p.terms == {2: Fraction(3, 2), 1: Fraction(-1, 2)}

    @pytest.mark.parametrize("value, built", [
        ("(2*x^2-5*x-3)/3", lambda P: (
            P({1: 2, 0: 1}) * P({1: Fraction(1, 3), 0: -1}),
            P({2: 2, 1: -5, 0: -3}).scaled(Fraction(1, 3)),
            -P({2: Fraction(-2, 3), 1: Fraction(5, 3), 0: 1}),
            P({3: Fraction(2, 9), 2: Fraction(-5, 6), 1: -1, 0: 7}).derivative())),
        ("(3*x^(1/2)-1)/2", lambda P: (
            P({1: 3, 0: -1}, 2) * P.constant(Fraction(1, 2)),
            P({2: 6, 0: -2}, 4).scaled(Fraction(1, 4)),
            -P({1: Fraction(-3, 2), 0: Fraction(1, 2)}, 2),
            P({3: 1, 2: Fraction(-1, 2)}, 2).derivative())),
        ("-3/2", lambda P: (
            P({0: 3}) * P({0: Fraction(-1, 2)}),
            P.one().scaled(Fraction(-3, 2)),
            -P.constant(Fraction(3, 2)),
            P({1: Fraction(-3, 2), 0: 5}).derivative(),
            Fraction(-3, 2))),
    ], ids=["integer grid", "half grid", "constant"])
    def test_one_value_however_it_is_built(self, value, built):
        # Read, multiplied, scaled, negated and differentiated: each way of
        # building the value gives one that compares and hashes equal.
        parsed = R(value).numerator
        for p in built(GeneralizedPolynomial):
            assert p == parsed and hash(p) == hash(parsed)
        assert len({parsed, *built(GeneralizedPolynomial)}) == 1

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
            assert (a * b).lead_exponent == a.lead_exponent + b.lead_exponent
            assert (a / b).lead_exponent == a.lead_exponent - b.lead_exponent

    def test_derivative_drops_exponent(self):
        for a in _random_rationals(60, 8):
            gamma = a.lead_exponent
            da = a.derivative()
            if gamma != 0:
                assert da.lead_exponent == gamma - 1
            elif not da.is_zero:
                assert da.lead_exponent <= -2

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
            assert compose_poly(a, g).lead_exponent == s * a.lead_exponent


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

    def test_printed_integers_are_coprime(self):
        # The coefficients and constants printed, with the implicit 1 of a
        # bare power of x and of an omitted denominator, have gcd 1: no
        # common factor is left to divide out.
        monomial = re.compile(r"(?:(\d+)\*)?x(?:\^(?:\d+|\(\d+/\d+\)))?")
        rng = random.Random(23)
        values = _random_rationals(200, 24) + _random_rationals(200, 25, half_grid=True)
        for r in values:
            scaled = r * R("%d/%d" % (rng.randint(1, 60), rng.randint(1, 60)))
            for value in (r, scaled):
                text = to_text(value)
                printed = monomial.sub(lambda match: match.group(1) or "1", text)
                integers = [int(n) for n in re.findall(r"\d+", printed)]
                assert math.gcd(*integers, 1 if "/" not in printed else 0) == 1, text

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
            ONE / ZERO

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
        with pytest.raises(RationalParseError,
                           match="^coefficient 2 has no exact root of degree 2$"):
            parse_rational("2^(1/2)")

    def test_root_of_large_degree(self):
        # A coefficient below 2**q has no q-th root but 0 or 1, found
        # without building 2**(q - 1).
        start = time.perf_counter()
        assert parse_rational("x^(1/1000000000)") == R("x^(1/1000000000)")
        assert time.perf_counter() - start < 1.0
        with pytest.raises(RationalParseError,
                           match="^coefficient 2 has no exact root of degree 1000000000$"):
            parse_rational("(2*x)^(1/1000000000)")
        assert parse_rational("(8*x^3)^(1/3)") == R("2*x")
        assert parse_rational("(x/8)^(1/3)") == R("x^(1/3)/2")

    def test_oversized_power_refused_before_it_is_built(self):
        # A power is square and multiply, so the product's estimate refuses
        # it: t1+t2-1 terms for dense factors, each with the sum of the
        # factors' bits (the largest coefficient's plus log2 of the terms).
        # 3^1000000 has 1584961 real bits, so it is refused as a power.
        terms, bits = 500, 1_000_000  # the documented size budget
        for text, size in (
                ("2^10000000000", "1 terms and 1048576 coefficient bits"),
                ("2^%d" % (bits + 1), "1 terms and %d coefficient bits" % (bits + 1)),
                ("3^1000000", "1 terms and 1584961 coefficient bits"),
                ("(x+1)^%d" % terms, "%d terms and 254007 coefficient bits" % (terms + 1)),
                ("(x+1)^(-100000)", "513 terms and 266760 coefficient bits"),
                ("1/(x^2+3)^2000", "513 terms and 529416 coefficient bits"),
                ("(4*x)^(1000000001/2)", "1 terms and 1048576 coefficient bits")):
            start = time.perf_counter()
            with pytest.raises(RationalParseError) as info:
                parse_rational(text)
            assert time.perf_counter() - start < 1.0
            node = text[2:] if text.startswith("1/") else text
            assert str(info.value) == ("product too large (about %s, beyond %d terms "
                                       "or %d bits) in '%s'" % (size, terms, bits, node))
        # Inside the bounds: the largest power of x+1, a long power of a
        # monomial, and powers of x of any size.
        assert len(R("(x+1)^%d" % (terms - 1)).numerator.terms) == terms
        assert R("2^%d" % bits).numerator.terms == {0: 2 ** bits}
        assert R("x^1000000000") == X ** 1000000000

    def test_degree_400_powers_are_read_on_ints(self):
        # Square and multiply on the ints of (x+1) and (x+2): 0.02-0.03 s
        # on x86-64, where the products of Fraction coefficients took 0.4 s.
        start = time.perf_counter()
        a, b = R("(x+1)^400").numerator, R("(x+2)^400").numerator
        elapsed = time.perf_counter() - start
        assert a.terms[200] == math.comb(400, 200) and b.terms[0] == 2 ** 400
        assert elapsed < 0.1, "the two powers took %.3f s" % elapsed

    def test_oversized_product_refused_before_it_is_built(self):
        # Numerator meets numerator and denominator meets denominator, and
        # a sum of quotients builds the product of their denominators.
        # 3^1000000 is refused as a power before its product is reached.
        # Sparse factors, or factors on two exponent grids, are counted as
        # t1*t2 terms where their exponents' span on the common grid allows
        # that many.
        terms, bits = 500, 1_000_000  # the documented size budget
        sparse = "(%s)*(%s)" % ("+".join("x^%d" % (250 * k) for k in range(1, 251)),
                                "+".join(["1"] + ["x^%d" % k for k in range(1, 250)]))
        grids = "(%s)*(%s)" % ("+".join("x^%d" % k for k in range(1, 251)),
                               "+".join("x^(%d/251)" % k for k in range(1, 251)))
        for text, node, size in (
                (sparse, sparse, "62500 terms and 1000000 coefficient bits"),
                (grids, grids, "62500 terms and 1000000 coefficient bits"),
                ("(x+1)^250*(x+1)^250*(x+1)^250*(x+1)^250", "(x+1)^250*(x+1)^250",
                 "501 terms and 253506 coefficient bits"),
                ("1/(x+1)^300*(1/(x+1)^300)", "1/(x+1)^300*(1/(x+1)^300)",
                 "601 terms and 365408 coefficient bits"),
                ("1/(x+1)^300+1/(x+2)^300", "1/(x+1)^300+1/(x+2)^300",
                 "601 terms and 471184 coefficient bits"),
                ("3^1000000*3^1000000", "3^1000000",
                 "1 terms and 1584961 coefficient bits")):
            start = time.perf_counter()
            with pytest.raises(RationalParseError) as info:
                parse_rational(text)
            assert time.perf_counter() - start < 1.0
            assert str(info.value) == ("product too large (about %s, beyond %d terms "
                                       "or %d bits) in '%s'" % (size, terms, bits, node))
        # Inside the bounds: the largest product of powers of x+1, and a
        # power whose factors' exponents lie on the even grid.
        assert len(R("(x+1)^249*(x+1)^250").numerator.terms) == terms
        assert len(R("(x^2+3)^300").numerator.terms) == 301

    def test_oversized_gcd_list_refused_before_it_is_built(self):
        # The gcd's dense lists are bounded on bits only, their length
        # counting as terms: a sparse quotient past the term bound is read,
        # and (x^100000+1)/(x+1), a list of 1.7e6 bits, is refused.
        assert to_text(parse_rational("(x^600+1)/(x+1)")) == "(x^600+1)/(x+1)"
        assert len(parse_rational("(x^601+1)/(x+1)").numerator.terms) == 601
        start = time.perf_counter()
        with pytest.raises(RationalParseError) as info:
            parse_rational("(x^100000+1)/(x+1)")
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "gcd list too large (about 100001 terms and 1700017 coefficient bits, beyond "
            "500 terms or 1000000 bits) in '(x^100000+1)/(x+1)'")

    def test_no_growth_is_no_refusal(self):
        # A written-out sum past the term bound is read as it is, and so are
        # a power and a product of it that grow it on neither measure.
        t = "+".join("x^%d" % k for k in range(1, 602))
        value = parse_rational(t)
        assert len(value.numerator.terms) == 601
        assert parse_rational("(%s)^1" % t) == value
        assert parse_rational("2*(%s)" % t) == R("2") * value
        with pytest.raises(RationalParseError) as info:
            parse_rational("(%s)^2" % t)
        assert str(info.value).startswith("product too large (about 1201 terms and 24020 "
                                          "coefficient bits, beyond 500 terms or 1000000 "
                                          "bits) in '(x^1+x^2+")
        assert str(info.value).endswith(")^2'")

    def test_fractional_power_requires_monomial(self):
        assert parse_rational("x^(3/2)") == R("x") * R("sqrt(x)")
        assert parse_rational("sqrt(4*x^2)") == R("2*x")
        with pytest.raises(RationalParseError):
            parse_rational("(x+1)^(1/2)")


# The two entry points share one grammar and differ only in how a bare
# slash after an exponent reads: rational text divides, and integrand
# text refuses the ambiguous exponent.
@pytest.mark.parametrize("text, integrand, rational", [
    ("x^3/2", ExprSyntaxError("ambiguous exponent: write x^(3/2) or (x^3)/2", 3),
     "x^3*(1/2)"),
    ("x^1/2", ExprSyntaxError("ambiguous exponent: write x^(1/2) or (x^1)/2", 3),
     "x*(1/2)"),
    ("x^(1/2)", Pow(Var(), Fraction(1, 2)), "sqrt(x)"),
])
def test_exponent_rule_by_entry_point(text, integrand, rational):
    if isinstance(integrand, ExprSyntaxError):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert str(info.value) == str(integrand)
    else:
        assert tree_key(parse(text)) == tree_key(integrand)
    assert parse_rational(text) == R(rational)


def _random_shared_text(rng, depth):
    """Text of the grammar both entry points share, bare exponent
    fractions such as x^3/2 included."""
    if depth == 0:
        return rng.choice(["x", "x", "1", "2", "3", "0.5"])
    kind = rng.choice(["atom", "sum", "product", "product", "power", "power",
                       "neg", "sqrt"])
    if kind == "atom":
        return _random_shared_text(rng, 0)
    if kind == "sum":
        return (_random_shared_text(rng, depth - 1) + rng.choice("+-")
                + _random_shared_text(rng, depth - 1))
    if kind == "product":
        return (_random_shared_text(rng, depth - 1) + rng.choice("*/")
                + _random_shared_text(rng, depth - 1))
    if kind == "power":
        base = rng.choice(["x", "2", "sqrt(x)", "(%s)" % _random_shared_text(rng, depth - 1)])
        exponent = rng.choice(["0", "2", "3", "-1", "-2", "(1/2)", "(-3/2)", "(2/3)",
                               "1/2", "3/2", "-1/2", "2/4"])
        return "%s^%s" % (base, exponent)
    if kind == "neg":
        return "-" + _random_shared_text(rng, depth - 1)
    return "sqrt(%s)" % _random_shared_text(rng, depth - 1)


def test_shared_text_reads_alike_in_both_grammars():
    # Every text that both entry points accept is one function: the
    # integrand tree lowers to the rational value.
    from support import reference_lower
    rng = random.Random(13)
    both = refused = 0
    for _ in range(3000):
        text = _random_shared_text(rng, 3)
        try:
            rational = parse_rational(text)
        except RationalParseError:
            continue
        try:
            ast = parse(text)
        except ExprSyntaxError as exc:
            assert "ambiguous exponent" in str(exc), text
            refused += 1
            continue
        assert rational == reference_lower(ast), text
        both += 1
    assert both > 500 and refused > 100


@pytest.mark.parametrize("text, named", [
    ("sin(x)", "sin(x)"), ("cos(x)", "cos(x)"), ("exp(x)", "exp(x)"),
    ("log(x)", "log(x)"), ("sinc(x)", "sinc(x)"), ("pi*x", "pi"),
])
def test_transcendental_text_rejected(text, named):
    with pytest.raises(RationalParseError,
                       match="'%s' is not a rational function of x" % re.escape(named)):
        parse_rational(text)


# parse_rational keeps sub-expressions as polynomials until a quotient or a
# negative power; support.reference_parse_rational makes every one of them
# a canonical rational.  Canonical form is unique, so both give the same
# structure, and both fail with the same error on the same input.
def structure(r):
    return (r.numerator.terms, r.numerator.step_denominator,
            r.denominator.terms, r.denominator.step_denominator)


def test_lowering_matches_the_rational_walk_on_the_compose_batch():
    # "0" stands for an absent p_k.
    from support import benchmark_workloads, reference_parse_rational
    texts = [text for inp in benchmark_workloads().compose_batch()
             for text in (*inp.p_text, inp.g_text) if text != "0"]
    assert len(texts) == 592
    for text in texts:
        assert structure(parse_rational(text)) == structure(reference_parse_rational(text)), text


@pytest.mark.parametrize("text", [
    # fractional, negative and nested powers
    "x^(1/2)", "x^(3/2)", "(4*x^2)^(1/2)", "(8*x^3)^(-2/3)", "(x^(1/2))^(2/3)",
    "x^(-1/2)", "x^(-1/2)+1", "x^(-1/2)*x", "(x^(-1/2))^2", "2*x^6-3*x^(1/3)/x^2",
    "x^-2", "(x+1)^-3", "1/x^-2", "(x^2+1)^-2*(x+1)", "((x+1)^2)^3", "((x^-1)^2)^-3",
    "x^0", "(x-x)^0",
    # sqrt
    "sqrt(x)", "sqrt(4*x^2)", "sqrt(sqrt(x))", "sqrt(x^(1/2)*x^(3/2))",
    "x^(1/2)*(x+3)/(x-1)^3",
    # decimals
    "0.5*x+1.25", "x/0.25",
    # sums of quotients
    "1/x+1/(x+1)", "x/(x-1)-1/(x-1)", "(x+1)/(x-1)+(x-1)/(x+1)", "-(2*x^2+3)/(4*x)", "-x/8",
    # zero
    "0*x", "0*x+1", "x-x", "0*x/(x+1)",
])
def test_lowering_matches_the_rational_walk(text):
    from support import reference_parse_rational
    assert structure(parse_rational(text)) == structure(reference_parse_rational(text))


NOT_A_MONOMIAL = "fractional powers are only supported on monomials like x or 4*x"


@pytest.mark.parametrize("text, message", [
    ("(x+1)^(1/2)", NOT_A_MONOMIAL),
    ("sqrt(x+1)", NOT_A_MONOMIAL),
    ("(x-x)^(1/2)", "fractional power of zero"),
    ("sqrt(0*x)", "fractional power of zero"),
    ("(1/x)^(1/2)", NOT_A_MONOMIAL),
    ("sqrt(x/(x+1))", NOT_A_MONOMIAL),
    # x^(-1/2) is the quotient 1/x^(1/2) in canonical form.
    ("(x^(-1/2))^(1/2)", NOT_A_MONOMIAL),
    ("(x-x)^-1", "negative power of zero in '(x-x)^(-1)'"),
    ("0^-2", "negative power of zero in '0^(-2)'"),
    ("1/(x-x)", "division by zero in '1/(x-x)'"),
    ("x/0", "division by zero in 'x/0'"),
    ("x+sin(x)", "'sin(x)' is not a rational function of x"),
])
def test_lowering_fails_as_the_rational_walk(text, message):
    from support import reference_parse_rational
    for parse in (parse_rational, reference_parse_rational):
        with pytest.raises(RationalParseError) as info:
            parse(text)
        assert type(info.value) is RationalParseError and str(info.value) == message


def test_a_divisor_off_the_monic_contract_fails_fast(monkeypatch):
    # Each divisor the gcd hands _poly_divmod is monic, so each remainder
    # drops in degree.  With every divisor doubled, as with a remainder left
    # unscaled, the degree stays, and the gcd raises at once where it once
    # looped on ever larger coefficients.
    divide = symseries._poly_divmod
    monkeypatch.setattr(symseries, "_poly_divmod", lambda a, b: divide(a, [2 * c for c in b]))
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="^polynomial remainder did not drop in degree$"):
        parse_rational("(x^2-1)/(x^2+3*x+2)")
    assert time.perf_counter() - start < 1.0
