import hashlib
import math
import random

import numpy as np
import pytest

from dmint.expr import parse
from dmint.exprtaylor import evaluate
from dmint.quad import (
    _COARSE,
    _REFINED,
    QuadratureError,
    SampleGrid,
    cumulative,
    grid_from_descriptor,
)

from support import adaptive_simpson


def make_eval(source):
    node = parse(source)
    return lambda t: evaluate(node, t)


def scalar_products(f, a, b, rule):
    """The products w*f(x) of the (nodes, weights) rule on [a, b], one
    point per call of f; a failing node raises cumulative()'s message for it."""
    nodes, weights = rule
    mid, halfwidth = 0.5 * (a + b), 0.5 * (b - a)
    products = []
    for xi, w in zip(nodes.tolist(), weights.tolist()):
        x = float(mid + halfwidth * xi)
        try:
            value = float(f(x))
            if not math.isfinite(value):
                raise ValueError("non-finite value %r" % value)
        except ValueError as exc:
            raise QuadratureError("integrand failed at node x=%r in panel [%r, %r]: %s"
                                  % (x, a, b, exc)) from None
        products.append(w * value)
    return products


def scalar_sum(products, a, b):
    try:
        value = 0.5 * (b - a) * math.fsum(products)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise QuadratureError("quadrature sum beyond the float range in panel [%r, %r]"
                              % (a, b))
    return value


def scalar_panel(f, a, b, rule):
    """One panel, node by node: fsum of w*f(x) over the rule."""
    return scalar_sum(scalar_products(f, a, b, rule), a, b)


def scalar_cumulative(f, grid):
    """Reference for cumulative(): panel after panel, one point per call,
    with the same 16/32-point test and one-level bisection, each panel's
    (or pair of halves') nodes before its sums.  Returns chi, F and the
    number of bisected panels, or raises cumulative()'s error."""
    chi, F, bisected = [], [], 0
    previous, total = 0.0, 0.0
    for i, point in enumerate(grid.points):
        try:
            rules = [scalar_products(f, previous, point, rule) for rule in (_COARSE, _REFINED)]
            coarse, value = (scalar_sum(products, previous, point) for products in rules)
            if abs(value - coarse) > 1e-12 * max(abs(coarse), abs(value), 1e-30):
                halves = [(previous, 0.5 * (previous + point)),
                          (0.5 * (previous + point), point)]
                rules = [scalar_products(f, a, b, _REFINED) for a, b in halves]
                first, second = (scalar_sum(products, *half)
                                 for products, half in zip(rules, halves))
                value = first + second
                bisected += 1
        except QuadratureError as exc:
            raise QuadratureError("panel %d: %s" % (i, exc)) from None
        chi.append(value)
        total = total + value
        F.append(total)
        previous = point
    return tuple(chi), tuple(F), bisected


def scalar_message(f, grid):
    with pytest.raises(QuadratureError) as info:
        scalar_cumulative(f, grid)
    return str(info.value)


class TestGaussNodes:
    def test_weights_positive_symmetric_sum_two(self):
        for q, (nodes, weights) in ((16, _COARSE), (32, _REFINED)):
            assert len(nodes) == len(weights) == q
            assert (weights > 0).all()
            assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
            assert (nodes == -nodes[::-1]).all() and (weights == weights[::-1]).all()
            assert (np.diff(nodes) > 0).all() and -1 < nodes[0]

    def test_degree_exactness_random_intervals(self):
        rng = random.Random(5)
        for rule in (_COARSE, _REFINED):
            a = rng.uniform(-3, 1)
            b = a + rng.uniform(0.5, 3)
            for degree in range(0, 2 * len(rule[0])):
                exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
                got = scalar_panel(lambda t, d=degree: t ** d, a, b, rule)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)

    def test_rules_keep_their_bits(self):
        # Every published F was integrated with these nodes and weights.
        text = " ".join(v.hex() for rule in (_COARSE, _REFINED)
                        for part in rule for v in part.tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9138e7c6dc90934f5c2ad9f07778df7fdcf86ffb37d0de67693289bd869d3edc")

    @pytest.mark.parametrize("rule", [_COARSE, _REFINED], ids=["16", "32"])
    def test_against_the_50_digit_rule(self, rule):
        # Measured: nodes within 1.2e-16 and weights within 5.7e-15
        # relative at q = 32, 4.7e-17 and 1.9e-15 at q = 16.
        mpmath = pytest.importorskip("mpmath")
        nodes, weights = rule
        q = len(nodes)
        with mpmath.workdps(50):
            for x, w in zip(nodes.tolist(), weights.tolist()):
                root = mpmath.findroot(lambda t: mpmath.legendre(q, t), mpmath.mpf(x))
                p, p_prev = mpmath.legendre(q, root), mpmath.legendre(q - 1, root)
                dp = q * (root * p - p_prev) / (root * root - 1)
                exact = 2 / ((1 - root * root) * dp * dp)
                assert abs(x - root) <= 2.5e-16 * abs(root)
                assert abs(w - exact) <= 1e-14 * exact


class TestPanels:
    def test_linear_exact(self):
        # Symmetric nodes and weights cancel exactly; elsewhere within 2 ulp.
        for rule in (_COARSE, _REFINED):
            assert scalar_panel(lambda t: t, -1.0, 1.0, rule) == 0.0
            assert scalar_panel(lambda t: t, 0.0, 1.0, rule) == pytest.approx(0.5, abs=2.3e-16)

    def test_sine_over_half_period(self):
        assert scalar_panel(math.sin, 0.0, math.pi, _COARSE) == pytest.approx(
            2.0, rel=1e-14)

    def test_against_adaptive_oracle(self):
        f = make_eval("sinc(x)^2")
        oracle = adaptive_simpson(f, 0.0, 1.6, 1e-15)
        assert scalar_panel(f, 0.0, 1.6, _COARSE) == pytest.approx(oracle, abs=1e-13)
        (chi,) = cumulative(f, grid_from_descriptor("linear:1.6", 1)).chi
        assert chi == pytest.approx(oracle, abs=1e-13)

    def test_additivity(self):
        f = make_eval("exp(-x)*sin(x)+sinc(x)")
        rng = random.Random(6)
        for _ in range(10):
            a = rng.uniform(0, 2)
            b = a + rng.uniform(0.5, 2)
            mid = rng.uniform(a + 0.05, b - 0.05)
            whole = scalar_panel(f, a, b, _REFINED)
            split = scalar_panel(f, a, mid, _REFINED) + scalar_panel(f, mid, b, _REFINED)
            assert split == pytest.approx(whole, rel=1e-13, abs=1e-15)

    def test_node_count_refinement_consistency(self):
        # cumulative's 16/32-point panels against the 32-point rule on
        # each half of the panel.
        for source, desc in (("sinc(x)^2", "linear:1.6"),
                             ("sinc(x^2)^2", "sqrtlinear:1.6")):
            f = make_eval(source)
            grid = grid_from_descriptor(desc, 12)
            edges = (0.0,) + grid.points
            hi = [scalar_panel(f, a, 0.5 * (a + b), _REFINED)
                  + scalar_panel(f, 0.5 * (a + b), b, _REFINED)
                  for a, b in zip(edges, edges[1:])]
            for a, b in zip(cumulative(f, grid).chi, hi):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_evaluator_error_carries_node(self):
        f = make_eval("log(x-2)")
        grid = grid_from_descriptor("linear:1.0", 1)
        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid)
        assert str(info.value) == scalar_message(f, grid) == (
            "panel 0: integrand failed at node x=0.005299532504175031 in panel "
            "[0.0, 1.0]: log of a non-positive value in 'log(x-2)'")
        assert isinstance(info.value.__cause__, ValueError)


class TestGrids:
    def test_linear_descriptor(self):
        grid = grid_from_descriptor("linear:1.6", 31)
        assert grid.points[0] == pytest.approx(1.6)
        assert grid.points[30] == pytest.approx(49.6)
        shifted = grid_from_descriptor("linear:2,0.5", 3)
        assert shifted.points == (2.5, 4.5, 6.5)

    def test_sqrtlinear_descriptor(self):
        grid = grid_from_descriptor("sqrtlinear:1.6", 31)
        assert grid.points[0] == pytest.approx(math.sqrt(1.6))
        assert grid.points[30] == pytest.approx(math.sqrt(49.6))

    def test_descriptor_errors(self):
        for bad in ("cubic:1", "linear:", "linear:1,2,3", "sqrtlinear:1,2", "linear:abc"):
            with pytest.raises(ValueError):
                grid_from_descriptor(bad, 4)
        for bad in ("sqrtlinear:-1", "sqrtlinear:0", "sqrtlinear:-0.0"):
            with pytest.raises(ValueError, match="^sqrtlinear parameter a must be positive"):
                grid_from_descriptor(bad, 4)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SampleGrid((0.0, 1.0))
        with pytest.raises(ValueError):
            SampleGrid((2.0, 1.0))
        with pytest.raises(ValueError):
            SampleGrid((1.0, 1.0))
        with pytest.raises(ValueError):
            SampleGrid(())

    @pytest.mark.parametrize("descriptor", ["linear:1e999", "linear:1e308"])
    def test_non_finite_points_named_before_ordering(self, descriptor):
        # inf and nan also fail the ordering test; the message names the cause.
        with pytest.raises(ValueError, match="^grid points must be finite$"):
            grid_from_descriptor(descriptor, 4)


class TestCumulative:
    def test_zero_integrand(self):
        grid = grid_from_descriptor("linear:1.0", 5)
        result = cumulative(lambda t: np.zeros_like(t), grid)
        assert result.chi == (0.0,) * 5
        assert result.F == (0.0,) * 5

    def test_prefix_sums_match_resummation(self):
        f = make_eval("sinc(x)^2")
        grid = grid_from_descriptor("linear:1.6", 20)
        result = cumulative(f, grid)
        total = 0.0
        for index, value in enumerate(result.chi):
            total = total + value
            assert result.F[index] == total

    def test_demo_tail_errors(self):
        f = make_eval("sinc(x)^2")
        grid = grid_from_descriptor("linear:1.6", 31)
        err = abs(cumulative(f, grid).F[30] - math.pi / 2)
        assert err == pytest.approx(9.98e-3, rel=5e-3)

        phi = make_eval("sinc(x^2)^2")
        grid2 = grid_from_descriptor("sqrtlinear:1.6", 31)
        err2 = abs(cumulative(phi, grid2).F[30] - 2 * math.sqrt(math.pi) / 3)
        assert err2 == pytest.approx(4.70e-4, rel=5e-3)

    # The integrands and grids of the accel-deep benchmark catalogue.
    CATALOGUE = (("sinc(x)^2", "linear:1.6"), ("sinc(x^2)^2", "sqrtlinear:1.6"),
                 ("sinc(x)", "linear:1.6"), ("sinc(x)^3", "linear:1.6"),
                 ("1/(1+x^2)", "linear:1.6"), ("cos(x)/(1+x^2)", "linear:1.6"),
                 ("x*sin(x)/(1+x^2)", "linear:1.6"), ("1/(1+x)^2", "linear:1.0"),
                 ("cos(x^2)", "sqrtlinear:1.6"), ("sin(x^2)", "sqrtlinear:1.6"),
                 ("exp(-x)*cos(x)", "linear:1.0"))

    def test_bit_identical_to_node_by_node_loop(self):
        cases = [entry + (61,) for entry in self.CATALOGUE]
        for source, desc, count in cases + [("x^(1/2)*exp(-x)", "linear:1.0", 8)]:
            f = make_eval(source)
            grid = grid_from_descriptor(desc, count)
            chi, F, bisected = scalar_cumulative(f, grid)
            result = cumulative(f, grid)
            assert [v.hex() for v in result.chi] == [v.hex() for v in chi], source
            assert [v.hex() for v in result.F] == [v.hex() for v in F], source
            if source.startswith("x^(1/2)"):
                assert bisected > 0  # the halves stage is covered too

    def test_one_integrand_call_per_rule(self):
        # The coarse and the doubled rule of every panel in one call, 16 + 32
        # nodes a panel; no panel of f needs bisecting.
        calls = []
        node = parse("sinc(x)^2")

        def f(t):
            calls.append(t.size)
            return evaluate(node, t)

        cumulative(f, grid_from_descriptor("linear:1.6", 31))
        assert calls == [31 * 48]

    def test_halves_are_one_more_call(self):
        calls = []
        node = parse("x^(1/2)*exp(-x)")

        def f(t):
            calls.append(t.size)
            return evaluate(node, t)

        grid = grid_from_descriptor("linear:1.0", 8)
        cumulative(f, grid)
        *_, bisected = scalar_cumulative(make_eval("x^(1/2)*exp(-x)"), grid)
        assert bisected > 0 and calls == [8 * 48, bisected * 2 * 32]

    @pytest.mark.parametrize("source, message", [
        ("log(3-x)",
         "panel 3: integrand failed at node x=3.005299532504175 in panel "
         "[3.0, 4.0]: log of a non-positive value in 'log(3-x)'"),
        # Only the doubled rule of panel 2 fails, while every coarse node
        # of panel 3 does: the error must still name panel 2.
        ("log(2.997-x)",
         "panel 2: integrand failed at node x=2.998631930924741 in panel "
         "[2.0, 3.0]: log of a non-positive value in 'log(2.997-x)'"),
        # The right-hand log fails first at the first node, the left-hand
        # one only from the third node on.
        ("log(0.05-x)+log(x-0.03)",
         "panel 0: integrand failed at node x=0.005299532504175031 in panel "
         "[0.0, 1.0]: log of a non-positive value in 'log(x-0.03)'"),
        # Only a node of the bisected halves of panel 1 fails.
        ("sqrt((x-1.00265)^2-0.000001)",
         "panel 1: integrand failed at node x=1.0035971221136828 in panel "
         "[1.0, 1.5]: sqrt of a negative value in 'sqrt((x-1.00265)^2-0.000001)'"),
    ])
    def test_error_names_first_failing_node(self, source, message):
        grid = grid_from_descriptor("linear:1.0", 4)
        with pytest.raises(QuadratureError) as info:
            cumulative(make_eval(source), grid)
        assert str(info.value) == scalar_message(make_eval(source), grid) == message

    def test_non_finite_value_is_an_error(self):
        grid = grid_from_descriptor("linear:1.0", 4)

        def f(t):
            return np.where(t > 2.5, np.inf, t)

        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid)
        assert str(info.value) == scalar_message(f, grid) == (
            "panel 2: integrand failed at node x=2.5475062549188188 in panel "
            "[2.0, 3.0]: non-finite value inf")

    @pytest.mark.parametrize("f, descriptor, message", [
        # math.fsum overflows.
        (make_eval("2*exp(709)"), "linear:1.0",
         "panel 0: quadrature sum beyond the float range in panel [0.0, 1.0]"),
        # The sum is finite, times the half-width 5 it is not.
        (make_eval("exp(708)"), "linear:10",
         "panel 0: quadrature sum beyond the float range in panel [0.0, 10.0]"),
        # The sums of panel 2 overflow in the batch; replayed, panel 0
        # fails first, in a node of its bisected halves.
        (lambda t: np.where(t > 2, 1.5e308,
                            evaluate(parse("sqrt((x-0.00365)^2-0.000001)"), t)), "linear:1.0",
         "panel 0: integrand failed at node x=0.0035971221136829046 in panel "
         "[0.0, 0.5]: sqrt of a negative value in 'sqrt((x-0.00365)^2-0.000001)'"),
    ])
    def test_sum_overflow_is_a_panel_error(self, f, descriptor, message):
        grid = grid_from_descriptor(descriptor, 4)
        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid)
        assert str(info.value) == scalar_message(f, grid) == message

    def test_batch_error_stands_when_no_panel_fails_alone(self):
        # An integrand that fails on long arrays only: the batch fails,
        # the panel-by-panel replay does not, so the batch's error is raised.
        calls = []

        def f(t):
            calls.append(t.size)
            if t.size > 48:
                raise ValueError("too many nodes")
            return np.exp(-t)

        grid = grid_from_descriptor("linear:1.0", 4)
        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid)
        assert str(info.value) == (
            "integrand failed at node x=1.005299532504175 in panel [1.0, 2.0]: "
            "too many nodes")
        # The batch (both rules of four panels), the four panels (both
        # rules in one call each), then the bisection of the batch to its
        # first failing node, the first of panel 1.
        assert calls == [192] + [48] * 4 + [96, 48, 72, 60, 54, 51, 49]

    def test_replay_stops_at_the_first_failing_panel(self):
        calls = []
        node = parse("log(2.1-x)")

        def f(t):
            calls.append(t.size)
            return evaluate(node, t)

        grid = grid_from_descriptor("linear:1.0", 6)
        with pytest.raises(QuadratureError, match="^panel 2: ") as info:
            cumulative(f, grid)
        assert str(info.value) == scalar_message(make_eval("log(2.1-x)"), grid)
        # The batch's call of both rules, not bisected; panel 0 (both
        # rules), panel 1 (both rules, then its halves); panel 2, whose
        # call fails, and its bisection.  Panels 3 to 5 are not replayed.
        assert calls == [288, 48, 48, 64, 48, 24, 12, 6, 3, 4]

    def test_integrand_must_return_an_array(self):
        grid = grid_from_descriptor("linear:1.0", 2)
        with pytest.raises(TypeError):
            cumulative(lambda t: 1.0, grid)

    def test_panel_error_names_panel(self):
        grid = grid_from_descriptor("linear:1.0", 4)
        f = make_eval("log(3-x)")
        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid)
        assert "panel" in str(info.value)
