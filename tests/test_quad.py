import hashlib
import math
import random

import numpy as np
import pytest

from dmint.expr import parse
from dmint.exprtaylor import evaluate
from dmint.quad import (
    _RULE,
    _TAIL,
    _gauss_legendre,
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


def scalar_tail(products, a, b):
    """2*h*max|a_k|, k = 28..31: the top Legendre coefficients of the
    interpolant, a_k = (2k+1)/2 * sum w*f(x)*P_k(x), with P_k at each node
    from the three-term recurrence."""
    columns = []
    for xi in _RULE[0].tolist():
        p_prev, p, row = 1.0, xi, []
        for n in range(1, 31):
            p_prev, p = p, ((2 * n + 1) * xi * p - n * p_prev) / (n + 1)
            if n >= 27:
                row.append(p)  # P_{n+1}
        columns.append(row)
    coefficients = [(k + 0.5) * math.fsum(w * column[k - 28]
                                          for w, column in zip(products, columns))
                    for k in range(28, 32)]
    return (b - a) * max(abs(c) for c in coefficients)


def scalar_cumulative(f, grid):
    """Reference for cumulative(): panel after panel, one point per call,
    with the same Legendre-tail test and one-level bisection, each panel's
    (or pair of halves') nodes before its sums.  Returns chi, F and the
    number of bisected panels, or raises cumulative()'s error."""
    chi, F, bisected = [], [], 0
    previous, total = 0.0, 0.0
    for i, point in enumerate(grid.points):
        try:
            products = scalar_products(f, previous, point, _RULE)
            value = scalar_sum(products, previous, point)
            if scalar_tail(products, previous, point) > 1e-10 * max(abs(value), 1e-30):
                halves = [(previous, 0.5 * (previous + point)),
                          (0.5 * (previous + point), point)]
                rules = [scalar_products(f, a, b, _RULE) for a, b in halves]
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
        nodes, weights = _RULE
        assert len(nodes) == len(weights) == 32
        assert (weights > 0).all()
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
        assert (nodes == -nodes[::-1]).all() and (weights == weights[::-1]).all()
        assert (np.diff(nodes) > 0).all() and -1 < nodes[0]

    def test_degree_exactness_random_intervals(self):
        rng = random.Random(5)
        a = rng.uniform(-3, 1)
        b = a + rng.uniform(0.5, 3)
        for degree in range(0, 64):
            exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
            got = scalar_panel(lambda t, d=degree: t ** d, a, b, _RULE)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)

    def test_rules_keep_their_bits(self):
        # Every published F was integrated with these nodes and weights.
        text = " ".join(v.hex() for part in _RULE for v in part.tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "099342f7c3bdfe9f97b76e78389bdb6868a4ada80fb457dc2bc2e103ea8bb832")

    def test_tail_reads_legendre_coefficients(self):
        # The products of P_k, k = 28..31, give the unit vector of a_k, and
        # those of P_27 give zeros: discrete orthogonality of the rule.
        nodes, weights = _RULE
        for k in range(27, 32):
            p = np.polynomial.legendre.legval(nodes, [0] * k + [1])
            expected = [float(k == j) for j in range(28, 32)]
            assert (weights * p) @ _TAIL.T == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("q", [16, 32])
    def test_against_the_50_digit_rule(self, q):
        # The Newton builder at two orders; _RULE is its q = 32 rule.
        # Measured: nodes within 1.2e-16 and weights within 5.7e-15
        # relative at q = 32, 4.7e-17 and 1.9e-15 at q = 16.
        mpmath = pytest.importorskip("mpmath")
        nodes, weights = _gauss_legendre(q)
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
        assert scalar_panel(lambda t: t, -1.0, 1.0, _RULE) == 0.0
        assert scalar_panel(lambda t: t, 0.0, 1.0, _RULE) == pytest.approx(0.5, abs=2.3e-16)

    def test_sine_over_half_period(self):
        assert scalar_panel(math.sin, 0.0, math.pi, _RULE) == pytest.approx(
            2.0, rel=1e-14)

    def test_against_adaptive_oracle(self):
        f = make_eval("sinc(x)^2")
        oracle = adaptive_simpson(f, 0.0, 1.6, 1e-15)
        assert scalar_panel(f, 0.0, 1.6, _RULE) == pytest.approx(oracle, abs=1e-13)
        (chi,) = cumulative(f, grid_from_descriptor("linear:1.6", 1)).chi
        assert chi == pytest.approx(oracle, abs=1e-13)

    def test_additivity(self):
        f = make_eval("exp(-x)*sin(x)+sinc(x)")
        rng = random.Random(6)
        for _ in range(10):
            a = rng.uniform(0, 2)
            b = a + rng.uniform(0.5, 2)
            mid = rng.uniform(a + 0.05, b - 0.05)
            whole = scalar_panel(f, a, b, _RULE)
            split = scalar_panel(f, a, mid, _RULE) + scalar_panel(f, mid, b, _RULE)
            assert split == pytest.approx(whole, rel=1e-13, abs=1e-15)

    def test_node_count_refinement_consistency(self):
        # cumulative's 32-point panels against the 32-point rule on each
        # half of the panel.
        for source, desc in (("sinc(x)^2", "linear:1.6"),
                             ("sinc(x^2)^2", "sqrtlinear:1.6")):
            f = make_eval(source)
            grid = grid_from_descriptor(desc, 12)
            edges = (0.0,) + grid.points
            hi = [scalar_panel(f, a, 0.5 * (a + b), _RULE)
                  + scalar_panel(f, 0.5 * (a + b), b, _RULE)
                  for a, b in zip(edges, edges[1:])]
            for a, b in zip(cumulative(f, grid).chi, hi):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_evaluator_error_carries_node(self):
        f = make_eval("log(x-2)")
        grid = grid_from_descriptor("linear:1.0", 1)
        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid)
        assert str(info.value) == scalar_message(f, grid) == (
            "panel 0: integrand failed at node x=0.001368069075259215 in panel "
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

    # The panels cumulative bisects; every F bit depends on this set.
    BISECTED = {entry + (91,): [] for entry in CATALOGUE}
    BISECTED.update({
        ("sinc(x)^2", "linear:1.6", 31): [],
        ("sinc(x^2)^2", "sqrtlinear:1.6", 31): [],
        ("x^(1/2)*exp(-x)", "linear:1.0", 8): [0],
        ("x^(1/3)*exp(-x)", "linear:1.0", 8): [0],
        ("x^(3/2)*exp(-x)", "linear:1.0", 8): [0],
        ("log(x)*exp(-x)", "linear:1.0", 8): [0],
    })

    @pytest.mark.parametrize("case", BISECTED, ids=lambda case: "%s-%s-%d" % case)
    def test_bisected_panels(self, case):
        # Read from the second call of f: the halves of each bisected
        # panel, whose 64 nodes centre on the panel's midpoint.
        source, descriptor, count = case
        calls = []
        node = parse(source)

        def f(t):
            calls.append(t)
            return evaluate(node, t)

        grid = grid_from_descriptor(descriptor, count)
        cumulative(f, grid)
        halves = calls[1].reshape(-1, 64) if len(calls) > 1 else np.empty((0, 64))
        assert len(calls) <= 2
        assert np.searchsorted(grid.points, halves.mean(axis=1)).tolist() == self.BISECTED[case]

    # The panels whose halves still miss the tolerance after the one
    # bisection, each with the larger of its halves' tail ratios: every
    # panel that BISECTED names is one.
    UNRESOLVED = {
        ("x^(-1/2)*exp(-x)", "linear:1.0", 8): [(0, "1.8e-01")],
        ("x^(1/2)*exp(-x)", "linear:1.0", 8): [(0, "5.7e-04")],
        ("x^(1/3)*exp(-x)", "linear:1.0", 8): [(0, "1.2e-03")],
        ("x^(3/2)*exp(-x)", "linear:1.0", 8): [(0, "4.1e-06")],
        ("log(x)*exp(-x)", "linear:1.0", 8): [(0, "1.6e-02")],
    }

    @pytest.mark.parametrize("case", {**BISECTED, **UNRESOLVED},
                             ids=lambda case: "%s-%s-%d" % case)
    def test_unresolved_panels(self, case):
        source, descriptor, count = case
        result = cumulative(make_eval(source), grid_from_descriptor(descriptor, count))
        assert [(i, "%.1e" % ratio) for i, ratio in result.unresolved_panels] == \
            self.UNRESOLVED.get(case, [])

    def test_one_integrand_call_per_rule(self):
        # The 32 nodes of every panel in one call; no panel of f needs
        # bisecting.
        calls = []
        node = parse("sinc(x)^2")

        def f(t):
            calls.append(t.size)
            return evaluate(node, t)

        cumulative(f, grid_from_descriptor("linear:1.6", 31))
        assert calls == [31 * 32]

    def test_halves_are_one_more_call(self):
        calls = []
        node = parse("x^(1/2)*exp(-x)")

        def f(t):
            calls.append(t.size)
            return evaluate(node, t)

        grid = grid_from_descriptor("linear:1.0", 8)
        cumulative(f, grid)
        *_, bisected = scalar_cumulative(make_eval("x^(1/2)*exp(-x)"), grid)
        assert bisected > 0 and calls == [8 * 32, bisected * 2 * 32]

    @pytest.mark.parametrize("source, message", [
        ("log(3-x)",
         "panel 3: integrand failed at node x=3.001368069075259 in panel "
         "[3.0, 4.0]: log of a non-positive value in 'log(3-x)'"),
        # Only the last node of panel 2 fails, while every node of panel 3
        # does: the error must still name panel 2.
        ("log(2.997-x)",
         "panel 2: integrand failed at node x=2.998631930924741 in panel "
         "[2.0, 3.0]: log of a non-positive value in 'log(2.997-x)'"),
        # The right-hand log fails first at the first node, the left-hand
        # one only from the fifth node on.
        ("log(0.05-x)+log(x-0.03)",
         "panel 0: integrand failed at node x=0.001368069075259215 in panel "
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
            "panel 2: integrand failed at node x=2.524153832843869 in panel "
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
        # The step at 12 flags panel [10, 20], whose own nodes miss the
        # spikes; its half [10, 15] holds all of them and overflows.
        (lambda t: np.where(np.isin(t, 12.5 + 2.5 * _RULE[0]), 1e308, 1.0 * (t > 12)),
         "linear:10", "panel 1: quadrature sum beyond the float range in panel [10.0, 15.0]"),
    ])
    def test_sum_overflow_is_a_panel_error(self, f, descriptor, message):
        grid = grid_from_descriptor(descriptor, 4)
        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid)
        assert str(info.value) == scalar_message(f, grid) == message
        # An overflow has no cause; a failing node has f's error.  Either
        # hides the batch's error it was replayed from.
        assert (info.value.__cause__ is None) == ("beyond the float range" in message)
        assert info.value.__suppress_context__

    def test_batch_error_stands_when_no_panel_fails_alone(self):
        # An integrand that fails on long arrays only: the batch fails,
        # the panel-by-panel replay does not, so the batch's error is raised.
        calls = []

        def f(t):
            calls.append(t.size)
            if t.size > 32:
                raise ValueError("too many nodes")
            return np.exp(-t)

        grid = grid_from_descriptor("linear:1.0", 4)
        with pytest.raises(QuadratureError) as info:
            cumulative(f, grid)
        assert str(info.value) == (
            "integrand failed at node x=1.001368069075259 in panel [1.0, 2.0]: "
            "too many nodes")
        cause = info.value.__cause__
        assert type(cause) is ValueError and str(cause) == "too many nodes"
        # The batch (four panels) and its bisection to its first failing
        # node, the first of panel 1, then the four panels (one call each).
        assert calls == [128, 64, 32, 48, 40, 36, 34, 33, 32, 32, 32, 32]

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
        # The batch's call and its bisection to node 70, in panel 2; panel
        # 0, panel 1 (then its halves); panel 2, whose call fails, and its
        # bisection.  Panels 3 to 5 are not replayed.
        assert calls == [192, 96, 48, 72, 60, 66, 69, 70, 71, 32, 32, 64, 32, 16, 8, 4, 6, 7]

    def test_integrand_must_return_an_array(self):
        grid = grid_from_descriptor("linear:1.0", 2)
        with pytest.raises(TypeError):
            cumulative(lambda t: 1.0, grid)
