import random
from fractions import Fraction

import pytest

from dmint.bell import l_matrix
from dmint.compose import (
    OdeCoefficients,
    compose_ode,
    order_bounds,
    rho_bounds,
    verify_b1_membership,
)
from dmint.symseries import (
    GeneralizedPolynomial,
    GeneralizedRational,
    compose_poly,
    parse_rational,
    profile,
)

from support import random_bm_instance

R = parse_rational
X_SQUARED = GeneralizedPolynomial({2: 1})
X_POLY = GeneralizedPolynomial({1: 1})


def demo_ode():
    return OdeCoefficients([R("-(2*x^2+3)/(4*x)"), R("-3/4"), R("-x/8")])


def reconstruction_holds(ode, g, result):
    table = l_matrix(g, ode.m)
    for k in range(1, ode.m + 1):
        total = GeneralizedRational.zero()
        for n in range(k, ode.m + 1):
            if result.pi[n - 1] is not None:
                total = total + result.pi[n - 1] * table[(n, k)]
        pk = ode.p[k - 1]
        target = GeneralizedRational.zero() if pk is None else compose_poly(pk, g)
        if total != target:
            return False
    return True


class TestWorkedComposition:
    def test_exact_coefficients(self):
        result = compose_ode(demo_ode(), X_SQUARED)
        assert result.pi[0] == R("-(16*x^4+15)/(64*x^3)")
        assert result.pi[1] == R("-9/(64*x^2)")
        assert result.pi[2] == R("-1/(64*x)")
        assert result.r == (1, -2, -1)
        assert result.s == 2

    def test_reconstruction(self):
        ode = demo_ode()
        assert reconstruction_holds(ode, X_SQUARED, compose_ode(ode, X_SQUARED))

    def test_identity_substitution_echoes(self):
        ode = demo_ode()
        result = compose_ode(ode, X_POLY)
        assert result.pi == ode.p
        assert result.r == ode.i

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

    def test_degenerate_g_rejected(self):
        ode = demo_ode()
        with pytest.raises(ValueError):
            compose_ode(ode, GeneralizedPolynomial({0: 2}))
        with pytest.raises(ValueError):
            compose_ode(ode, GeneralizedPolynomial({2: -1}))


class TestOrderBounds:
    def test_demo_bounds(self):
        bounds = order_bounds(demo_ode(), 2, [False, False, False])
        assert bounds.r_m == -1
        assert bounds.recursive == (1, -2, -1)
        assert bounds.closed == (1, -2, -1)

    def test_identity_degree_collapse(self):
        ode = demo_ode()
        bounds = order_bounds(ode, 1, [False, False, False])
        # s = 1 makes s*(i_k - k) + k = i_k.
        assert bounds.r_m == ode.i[-1]
        assert bounds.closed == (1, 0, 1)

    def test_first_order(self):
        ode = OdeCoefficients([R("x")])
        for s in (1, 2, 5):
            bounds = order_bounds(ode, s, [False])
            assert bounds.r_m == s * (1 - 1) + 1 == 1

    def test_zero_pattern_pruning(self):
        ode = OdeCoefficients([None, R("1")])
        bounds = order_bounds(ode, 2, [False, False])
        # p_1 absent: only r_2 - 2 feeds the k=1 bound.
        assert bounds.r_m == -2
        assert bounds.recursive == (-3, -2)


class TestRhoBounds:
    def test_demo(self):
        assert rho_bounds(demo_ode()) == (1, 0, 1)

    def test_maximal_case(self):
        ode = OdeCoefficients([R("x"), R("x^2"), R("x^3")])
        assert rho_bounds(ode) == (1, 2, 3)

    def test_first_order(self):
        assert rho_bounds(OdeCoefficients([R("x")])) == (1,)


class TestB1Membership:
    def test_member_with_exact_coefficient(self):
        report = verify_b1_membership(R("1/(x+1)^3"))
        assert report.member
        assert report.p1 == R("-(x+1)/3")
        assert report.gamma == 1

    def test_half_grid_non_member(self):
        report = verify_b1_membership(R("1/(sqrt(x)+1)^3"))
        assert not report.member
        assert not report.integer_step
        assert report.p1 == R("-2/3") * (R("x") + R("sqrt(x)"))

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


class TestRandomProperties:
    def test_reconstruction_closure_and_bounds(self):
        rng = random.Random(20)
        for _ in range(60):
            m = rng.randint(1, 4)
            s = rng.randint(1, 3)
            ode, g = random_bm_instance(rng, m, s)
            result = compose_ode(ode, g)
            assert reconstruction_holds(ode, g, result)
            # exact top order
            assert result.r[m - 1] == s * (ode.i[m - 1] - m) + m
            for k in range(1, m + 1):
                rk = result.r[k - 1]
                if rk is None:
                    continue
                assert rk <= k  # class-B closure
                assert rk <= result.r_bound_recursive[k - 1]
                assert result.r_bound_recursive[k - 1] <= result.r_bound_closed[k - 1]

    def test_hand_formulas_low_order(self):
        rng = random.Random(21)
        for _ in range(25):
            s = rng.randint(1, 3)
            ode1, g = random_bm_instance(rng, 1, s)
            gr = GeneralizedRational(g)
            result = compose_ode(ode1, g)
            assert result.pi[0] == compose_poly(ode1.p[0], g) / gr.derivative()

            ode2, g2 = random_bm_instance(rng, 2, s)
            gr2 = GeneralizedRational(g2)
            result2 = compose_ode(ode2, g2)
            gp, gpp = gr2.derivative(), gr2.derivative().derivative()
            pi2 = compose_poly(ode2.p[1], g2) / gp ** 2
            expect2 = None if pi2.is_zero else pi2
            assert result2.pi[1] == expect2
            p1g = (GeneralizedRational.zero() if ode2.p[0] is None
                   else compose_poly(ode2.p[0], g2))
            pi1 = p1g / gp - pi2 * gpp / gp
            expect1 = None if pi1.is_zero else pi1
            assert result2.pi[0] == expect1

    def test_identity_g_property(self):
        rng = random.Random(22)
        for _ in range(20):
            m = rng.randint(1, 4)
            ode, _ = random_bm_instance(rng, m, 2)
            result = compose_ode(ode, X_POLY)
            assert result.pi == ode.p

    def test_rho_bounds_capped_for_class_b(self):
        rng = random.Random(23)
        for _ in range(40):
            m = rng.randint(1, 4)
            ode, _ = random_bm_instance(rng, m, rng.randint(1, 3))
            assert ode.is_class_b
            bounds = rho_bounds(ode)
            assert all(bounds[k] <= k + 1 for k in range(m))


BAD_G = {
    "zero": (R("0"), ValueError),
    "rational": (R("x^2/(x+1)"), ValueError),
    "half grid": (R("x+sqrt(x)"), ValueError),
    "negative lead": (R("-x^2+1"), ValueError),
    "not a polynomial": ("x^2", TypeError),
}

G_ENTRY_POINTS = {
    "compose_poly": lambda g: compose_poly(R("x"), g),
    "l_matrix": lambda g: l_matrix(g, 2),
    "compose_ode": lambda g: compose_ode(demo_ode(), g),
}


@pytest.mark.parametrize("entry", sorted(G_ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(BAD_G))
def test_bad_g_rejected_alike(entry, case):
    g, error = BAD_G[case]
    with pytest.raises(error):
        G_ENTRY_POINTS[entry](g)


def test_constant_g_only_for_compose_poly():
    assert compose_poly(R("x^2+1"), R("2")) == R("5")
    for entry in ("l_matrix", "compose_ode"):
        with pytest.raises(ValueError, match="degree at least 1"):
            G_ENTRY_POINTS[entry](R("2"))
