import math
import random

import numpy as np
import pytest

from dmint.expr import parse
from dmint.exprtaylor import evaluate
from dmint.quad import (
    QuadratureError,
    SampleGrid,
    cumulative,
    gauss_nodes,
    grid_from_descriptor,
    panel_integrate,
)

from support import adaptive_simpson


def make_eval(source):
    node = parse(source)
    return lambda t: evaluate(node, t)


def scalar_panel(node, a, b, q):
    """One panel, node by node: fsum of w*f(x) over the q-point rule."""
    nodes, weights = gauss_nodes(q)
    mid, halfwidth = 0.5 * (a + b), 0.5 * (b - a)
    return halfwidth * math.fsum(w * evaluate(node, float(mid + halfwidth * xi))
                                 for xi, w in zip(nodes, weights))


def scalar_cumulative(node, grid, q):
    """Reference for cumulative(): panel after panel, one point per call,
    with the same doubling test and one-level bisection.  Returns chi, F
    and the number of bisected panels."""
    chi, F, bisected = [], [], 0
    previous, total = 0.0, 0.0
    for point in grid.points:
        coarse = scalar_panel(node, previous, point, q)
        value = scalar_panel(node, previous, point, 2 * q)
        if abs(value - coarse) > 1e-12 * max(abs(coarse), abs(value), 1e-30):
            mid = 0.5 * (previous + point)
            value = (scalar_panel(node, previous, mid, 2 * q)
                     + scalar_panel(node, mid, point, 2 * q))
            bisected += 1
        chi.append(value)
        total = total + value
        F.append(total)
        previous = point
    return tuple(chi), tuple(F), bisected


class TestGaussNodes:
    def test_midpoint(self):
        assert gauss_nodes(1) == ((0.0,), (2.0,))

    def test_two_point_classical(self):
        nodes, weights = gauss_nodes(2)
        assert weights == (1.0, 1.0)
        assert nodes[1] == pytest.approx(1 / math.sqrt(3), abs=1e-16)
        assert nodes[0] == -nodes[1]

    def test_five_point_degree_nine(self):
        nodes, weights = gauss_nodes(5)
        value = sum(w * x ** 8 for x, w in zip(nodes, weights))
        assert value == pytest.approx(2.0 / 9.0, rel=1e-14)

    def test_weights_positive_symmetric_sum_two(self):
        for q in range(1, 65):
            nodes, weights = gauss_nodes(q)
            assert len(nodes) == q
            assert all(w > 0 for w in weights)
            assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
            for i in range(q):
                assert nodes[i] == pytest.approx(-nodes[q - 1 - i], abs=1e-15)
            assert all(a < b for a, b in zip(nodes, nodes[1:]))

    def test_unsupported_order(self):
        gauss_nodes(2)  # a cached rule for 2 must not admit 2.0
        for q in (0, -1, 65, 2.5, 2.0):
            with pytest.raises(ValueError):
                gauss_nodes(q)

    def test_degree_exactness_random_intervals(self):
        rng = random.Random(5)
        for q in (3, 8, 13, 21):
            a = rng.uniform(-3, 1)
            b = a + rng.uniform(0.5, 3)
            for degree in range(0, 2 * q):
                exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
                got = panel_integrate(lambda t, d=degree: t ** d, a, b, q)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


class TestPanels:
    def test_linear_exact(self):
        assert panel_integrate(lambda t: t, 0.0, 1.0, 2) == 0.5

    def test_sine_over_half_period(self):
        assert panel_integrate(np.sin, 0.0, math.pi, 16) == pytest.approx(
            2.0, rel=1e-14)

    def test_against_adaptive_oracle(self):
        f = make_eval("sinc(x)^2")
        oracle = adaptive_simpson(f, 0.0, 1.6, 1e-15)
        assert panel_integrate(f, 0.0, 1.6, 16) == pytest.approx(oracle, abs=1e-13)

    def test_additivity(self):
        f = make_eval("exp(-x)*sin(x)+sinc(x)")
        rng = random.Random(6)
        for _ in range(10):
            a = rng.uniform(0, 2)
            b = a + rng.uniform(0.5, 2)
            mid = rng.uniform(a + 0.05, b - 0.05)
            whole = panel_integrate(f, a, b, 24)
            split = panel_integrate(f, a, mid, 24) + panel_integrate(f, mid, b, 24)
            assert split == pytest.approx(whole, rel=1e-13, abs=1e-15)

    def test_node_count_refinement_consistency(self):
        for source, desc in (("sinc(x)^2", "linear:1.6"),
                             ("sinc(x^2)^2", "sqrtlinear:1.6")):
            f = make_eval(source)
            grid = grid_from_descriptor(desc, 12)
            lo = cumulative(f, grid, 16)
            hi = cumulative(f, grid, 32)
            for a, b in zip(lo.chi, hi.chi):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            panel_integrate(math.sin, 1.0, 1.0, 4)

    def test_evaluator_error_carries_node(self):
        f = make_eval("log(x-2)")
        with pytest.raises(QuadratureError) as info:
            panel_integrate(f, 0.0, 1.0, 4)
        assert str(info.value) == (
            "integrand failed at node x=0.06943184420297371 in panel [0.0, 1.0]: "
            "log of a non-positive value in 'log(x-2)'")
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
        result = cumulative(lambda t: np.zeros_like(t), grid, 8)
        assert result.chi == (0.0,) * 5
        assert result.F == (0.0,) * 5

    def test_prefix_sums_match_resummation(self):
        f = make_eval("sinc(x)^2")
        grid = grid_from_descriptor("linear:1.6", 20)
        result = cumulative(f, grid, 16)
        total = 0.0
        for index, value in enumerate(result.chi):
            total = total + value
            assert result.F[index] == total

    def test_demo_tail_errors(self):
        f = make_eval("sinc(x)^2")
        grid = grid_from_descriptor("linear:1.6", 31)
        err = abs(cumulative(f, grid, 16).F[30] - math.pi / 2)
        assert err == pytest.approx(9.98e-3, rel=5e-3)

        phi = make_eval("sinc(x^2)^2")
        grid2 = grid_from_descriptor("sqrtlinear:1.6", 31)
        err2 = abs(cumulative(phi, grid2, 16).F[30] - 2 * math.sqrt(math.pi) / 3)
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
            node = parse(source)
            grid = grid_from_descriptor(desc, count)
            chi, F, bisected = scalar_cumulative(node, grid, 16)
            result = cumulative(lambda t: evaluate(node, t), grid, 16)
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

        cumulative(f, grid_from_descriptor("linear:1.6", 31), 16)
        assert calls == [31 * 48]

    def test_halves_are_one_more_call(self):
        calls = []
        node = parse("x^(1/2)*exp(-x)")

        def f(t):
            calls.append(t.size)
            return evaluate(node, t)

        grid = grid_from_descriptor("linear:1.0", 8)
        cumulative(f, grid, 16)
        *_, bisected = scalar_cumulative(node, grid, 16)
        assert bisected > 0 and calls == [8 * 48, bisected * 2 * 32]

    def test_top_order_is_one_rule(self):
        # At q = 64 there is no doubled rule: one call, no refinement.
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(-t)

        result = cumulative(f, grid_from_descriptor("linear:1.0", 3), 64)
        assert calls == [3 * 64]
        assert result.chi == tuple(panel_integrate(lambda t: np.exp(-t), a, b, 64)
                                   for a, b in ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)))

    @pytest.mark.parametrize("source, message", [
        ("log(3-x)",
         "panel 3: integrand failed at node x=3.019855071751232 in panel "
         "[3.0, 4.0]: log of a non-positive value in 'log(3-x)'"),
        # Only the doubled rule of panel 2 fails, while every coarse node
        # of panel 3 does: the error must still name panel 2.
        ("log(2.9875-x)",
         "panel 2: integrand failed at node x=2.994700467495825 in panel "
         "[2.0, 3.0]: log of a non-positive value in 'log(2.9875-x)'"),
        # The right-hand log fails first at the first node, the left-hand
        # one only from the second node on.
        ("log(0.05-x)+log(x-0.03)",
         "panel 0: integrand failed at node x=0.019855071751231856 in panel "
         "[0.0, 1.0]: log of a non-positive value in 'log(x-0.03)'"),
        # Only a node of the bisected halves of panel 1 fails.
        ("sqrt((x-1.00265)^2-0.000001)",
         "panel 1: integrand failed at node x=1.0026497662520875 in panel "
         "[1.0, 1.5]: sqrt of a negative value in 'sqrt((x-1.00265)^2-0.000001)'"),
    ])
    def test_error_names_first_failing_node(self, source, message):
        grid = grid_from_descriptor("linear:1.0", 4)
        with pytest.raises(QuadratureError) as info:
            cumulative(make_eval(source), grid, 8)
        assert str(info.value) == message

    def test_non_finite_value_is_an_error(self):
        grid = grid_from_descriptor("linear:1.0", 4)
        with pytest.raises(QuadratureError) as info:
            cumulative(lambda t: np.where(t > 2.5, np.inf, t), grid, 8)
        assert str(info.value) == (
            "panel 2: integrand failed at node x=2.591717321247825 in panel "
            "[2.0, 3.0]: non-finite value inf")

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
            cumulative(f, grid, 8)
        assert str(info.value) == (
            "integrand failed at node x=2.019855071751232 in panel [2.0, 3.0]: "
            "too many nodes")
        # The batch (both rules of four panels), the four panels (both
        # rules in one call each), then the bisection of the batch to its
        # first failing node, the first of panel 2.
        assert calls == [96] + [24] * 4 + [48, 72, 60, 54, 51, 49]

    def test_replay_stops_at_the_first_failing_panel(self):
        calls = []
        node = parse("log(2.5-x)")

        def f(t):
            calls.append(t.size)
            return evaluate(node, t)

        with pytest.raises(QuadratureError, match="^panel 2: "):
            cumulative(f, grid_from_descriptor("linear:1.0", 6), 8)
        # The batch's call of both rules, not bisected; panel 0 (both
        # rules), panel 1 (both rules, then its halves); panel 2, whose
        # call fails, and its bisection.  Panels 3 to 5 are not replayed.
        assert calls == [144, 24, 24, 32, 24, 12, 6, 3, 4, 5]

    def test_integrand_must_return_an_array(self):
        grid = grid_from_descriptor("linear:1.0", 2)
        with pytest.raises(TypeError):
            cumulative(lambda t: 1.0, grid, 8)

    def test_panel_error_names_panel(self):
        grid = grid_from_descriptor("linear:1.0", 4)
        f = make_eval("log(3-x)")
        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid, 8)
        assert "panel" in str(info.value)
