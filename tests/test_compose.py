import time

import numpy as np
import pytest

from dmint.compose import (
    OdeCoefficients,
    compose_ode,
    l_matrix,
    verify_b1_membership,
)
from dmint.expr import parse
from dmint.exprtaylor import derivatives
from dmint.symseries import (
    GeneralizedPolynomial,
    GeneralizedRational,
    SizeBudgetError,
    compose_poly,
    parse_rational,
)

from support import (
    b1_series_digest,
    compose_batch_odes,
    compose_bytes_per_op,
    compose_series_digest,
)

R = parse_rational
X_SQUARED = GeneralizedPolynomial({2: 1})
X_POLY = GeneralizedPolynomial({1: 1})


def demo_ode():
    return OdeCoefficients([R("-(2*x^2+3)/(4*x)"), R("-3/4"), R("-x/8")])


class TestWorkedComposition:
    def test_two_term_hand_solve(self):
        ode = OdeCoefficients([None, R("1")])
        result = compose_ode(ode, X_SQUARED)
        assert result.pi[1] == R("1/(4*x^2)")
        assert result.pi[0] == R("-1/(4*x^3)")


class TestValidation:
    def test_zero_top_coefficient_rejected(self):
        with pytest.raises(ValueError):
            OdeCoefficients([R("1"), GeneralizedRational.zero()])

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValueError):
            OdeCoefficients([R("sqrt(x)")])

    def test_half_grid_coefficient_rejected(self):
        with pytest.raises(ValueError):
            OdeCoefficients([R("1/(sqrt(x)+1)")])

    @pytest.mark.parametrize("coefficients, error, message", [
        ([], ValueError, "at least one coefficient is required"),
        ([R("1"), "x"], TypeError, "coefficients must be GeneralizedRational or None"),
        ([X_POLY], TypeError, "coefficients must be GeneralizedRational or None"),
    ], ids=["empty", "text", "polynomial"])
    def test_coefficient_list_rejected(self, coefficients, error, message):
        with pytest.raises(error) as info:
            OdeCoefficients(coefficients)
        assert type(info.value) is error and str(info.value) == message


class TestOrderBounds:
    def test_demo_bounds(self):
        result = compose_ode(demo_ode(), X_SQUARED)
        assert result.r_bound_recursive == (1, -2, -1)
        assert result.r_bound_closed == (1, -2, -1)

    def test_first_order(self):
        ode = OdeCoefficients([R("x")])
        for s in (1, 2, 5):
            result = compose_ode(ode, GeneralizedPolynomial({s: 1}))
            assert result.s == s
            assert result.r_bound_recursive == result.r_bound_closed == (s * (1 - 1) + 1,) == (1,)

    def test_zero_pattern_pruning(self):
        result = compose_ode(OdeCoefficients([None, R("1")]), X_SQUARED)
        # p_1 absent: only r_2 - 2 feeds the k=1 bound.
        assert result.r_bound_recursive == (-3, -2)


class TestB1Membership:
    def test_power_function(self):
        report = verify_b1_membership(R("x^(-2)"))
        assert report.member
        assert report.p1 == R("-x/2")

    def test_gamma_above_one_rejected(self):
        # f'/f decays like x^-2 when numerator and denominator degrees
        # match, so p_1 has order 2 and membership fails.
        report = verify_b1_membership(R("(x+1)/(x+2)"))
        assert not report.member
        assert report.integer_step
        assert report.gamma == 2
        assert report.p1 == R("(x+1)*(x+2)")

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            verify_b1_membership(R("5"))


class TestSizeBudget:
    """Exact work past the size budget is refused by the product that
    would build it, whichever entry point asks for it."""

    def test_compose_ode(self):
        ode = OdeCoefficients([R("x^1000000000")])
        with pytest.raises(SizeBudgetError, match=r"^product too large \(about 513 terms"):
            compose_ode(ode, R("x+1"))

    def test_l_matrix(self):
        # L[k,k] = (g')**k: 170, 339 and then 508 terms.
        g = GeneralizedPolynomial({k: 1 for k in range(1, 171)})
        assert len(l_matrix(g, 2)[(2, 2)].terms) == 339
        with pytest.raises(SizeBudgetError, match=r"^product too large \(about 508 terms"):
            l_matrix(g, 3)

    def test_verify_b1_membership(self):
        # f' has the denominator's square, 601 terms.
        f = GeneralizedRational(1, GeneralizedPolynomial({k: 1 for k in range(301)}))
        with pytest.raises(SizeBudgetError, match=r"^product too large \(about 601 terms"):
            verify_b1_membership(f)


class TestRandomProperties:
    def test_hand_formulas_low_order(self):
        # pi_1 = p_1(g)/g' at m = 1; at m = 2, pi_2 = p_2(g)/g'^2 and
        # pi_1 = p_1(g)/g' - pi_2 g''/g'.
        for inp, ode, g in compose_batch_odes():
            if inp.m > 2:
                continue
            gp = g.derivative()
            pg = [GeneralizedRational.zero() if pk is None else compose_poly(pk, g)
                  for pk in ode.p]
            expect = [pg[-1] / gp ** inp.m]
            if inp.m == 2:
                expect.insert(0, pg[0] / gp - expect[0] * gp.derivative() / gp)
            assert list(compose_ode(ode, g).pi) == [None if e.is_zero else e for e in expect]

    def test_identity_g_property(self):
        # g = x echoes every ODE: the demo's and the batch's.
        for ode in [demo_ode()] + [ode for _, ode, _ in compose_batch_odes()]:
            result = compose_ode(ode, X_POLY)
            assert result.pi == ode.p
            assert result.r == ode.i


# compose_series_digest(range(4, 8)): every pi_k text of the series past
# the batch's m <= 4.
SERIES_DIGEST = "6db98da20995b1b60a5dfb6eb89fc32079279a472b76dc72e05b902eccaa7a2f"


def test_series_past_the_batch():
    # The series' work grows with m, so the bound on m = 4..7 bounds m = 7.
    start = time.perf_counter()
    digest = compose_series_digest(range(4, 8))
    elapsed = time.perf_counter() - start
    assert digest == SERIES_DIGEST
    assert elapsed <= 6.0, "m = 4..7 took %.2f s" % elapsed


# b1_series_digest((100, 200, 400)): check-b1's four fields at three degrees.
B1_SERIES_DIGEST = "140be3330f1fbfcfa6809504cc31b3a2eee31f9c13722df43838b7e3c74d0a5b"


def test_b1_series_in_degree():
    # f' reduces only gcd(den, den') and f/f' only its two cross pairs, so
    # no gcd of degree 2n is taken: 0.06-0.09 s on x86-64, where reducing
    # the products took 4.7-5.2 s.
    start = time.perf_counter()
    digest = b1_series_digest((100, 200, 400))
    elapsed = time.perf_counter() - start
    assert digest == B1_SERIES_DIGEST
    assert elapsed <= 1.0, "n = 100, 200, 400 took %.2f s" % elapsed


def test_a_batch_round_keeps_few_bytes_per_op():
    # The benchmark keeps every op's output to the end of its run, so its
    # peak RSS grows by what each op's pi_k keep.  Stored as ints and one
    # content per polynomial they keep 3.96 KB per op (Python 3.11,
    # x86-64); as one Fraction per coefficient they kept 5.5 KB.  The
    # bound leaves 14% for object sizes that differ on other versions.
    kept = compose_bytes_per_op()
    assert kept <= 4500, "%.0f bytes per op" % kept


BAD_G = {
    "zero": (R("0"), ValueError, None),
    "rational": (R("x^2/(x+1)"), ValueError, None),
    "half grid": (R("x+sqrt(x)"), ValueError, None),
    "negative lead": (R("-x^2+1"), ValueError, None),
    "not a polynomial": ("x^2", TypeError, None),
    "constant": (R("2"), ValueError, "^g must have degree at least 1$"),
}

G_ENTRY_POINTS = {
    "compose_poly": lambda g: compose_poly(R("x"), g),
    "l_matrix": lambda g: l_matrix(g, 2),
    "compose_ode": lambda g: compose_ode(demo_ode(), g),
}


@pytest.mark.parametrize("entry", sorted(G_ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(BAD_G))
def test_bad_g_rejected_alike(entry, case):
    g, error, message = BAD_G[case]
    with pytest.raises(error, match=message):
        G_ENTRY_POINTS[entry](g)


# Closed-form members of B^(m) with their ODEs f = sum p_k f^(k): the
# integrand text of f(g) ("{}" stands for g) and the p_k.  g is written
# without "/", which the integrand grammar reads as part of an exponent.
CLOSED_FORM_MEMBERS = {
    "sinc(x)^2": ("sinc({})^2", ("-(2*x^2+3)/(4*x)", "-3/4", "-x/8")),
    "exp(-x)": ("exp(-({}))", ("-1",)),
    "exp(-x)*cos(x)": ("exp(-({}))*cos({})", ("-1", "-1/2")),
    "1/(1+x)^3": ("1/(1+{})^3", ("-(x+1)/3",)),
}


@pytest.mark.parametrize("g", ["2*x+1", "x^2+x", "x^3+x"])
@pytest.mark.parametrize("member", sorted(CLOSED_FORM_MEMBERS))
def test_composed_ode_holds_on_the_jets(member, g):
    # The two halves meet: the exact pi_k of compose, evaluated in float,
    # and the derivatives of f(g) from the jets satisfy
    # f(g) = sum pi_k f(g)^(k) to a few ulps of the largest term (measured
    # at most 5.3e-16 relative).  g' > 0 on the samples keeps the pi_k,
    # which divide by (g')^k, free of cancellation.
    template, p = CLOSED_FORM_MEMBERS[member]
    ode = OdeCoefficients([R(text) for text in p])
    pi = compose_ode(ode, R(g)).pi
    x = np.linspace(0.25, 7.25, 29)
    rows = derivatives(parse(template.format(g, g)), x, ode.m + 1)
    terms = np.array([[pk.evaluate(t) for t in x.tolist()] for pk in pi]) * rows[1:]
    bound = 8 * 2.0 ** -52 * np.maximum(abs(rows[0]), abs(terms).max(axis=0))
    assert (abs(rows[0] - terms.sum(axis=0)) <= bound).all()
    # The check can see each pi_k: one off by a relative 1e-9 breaks it.
    for k in range(ode.m):
        perturbed = terms.copy()
        perturbed[k] *= 1 + 1e-9
        assert (abs(rows[0] - perturbed.sum(axis=0)) > bound).any()
