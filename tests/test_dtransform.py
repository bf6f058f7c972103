import math
import random
import sys

import numpy as np
import pytest

from dmint import collect_counts, dtransform, exprtaylor
from dmint.cli import BUILTIN_INTEGRANDS
from dmint.dtransform import SingularSystemError, d_sequence, d_sequences, friendly_exponents
from dmint.expr import parse
from dmint.exprtaylor import ExprDomainError, derivatives, evaluate, power_table
from dmint.quad import QuadratureError, cumulative, grid_from_descriptor

from support import benchmark_workloads, exact_first_unknown

PI_HALF = math.pi / 2
VANISHING = ("window nu=%d: every unknown's row vanishes at the sample x=%r, which "
             "fixes D = F(%r); another grid avoids it")
# The sample points handed to _exact_d when a test calls it directly.
POINTS = tuple(float(l) for l in range(1, 100))


def element_loop_system(exponents, nu, samples):
    """Reference assembly: every entry on its own, x**(e_k-i) * f^(k-1)(x).

    ``samples`` are (x, F, derivatives) triples, the first m*nu+1 of
    which make the window; the unknowns are D, then beta_ki i-major, so
    that every smaller window is a leading block.
    """
    size = len(exponents) * nu + 1
    matrix = np.zeros((size, size))
    rhs = np.zeros(size)
    for row, (x, F, derivs) in enumerate(samples[:size]):
        matrix[row, 0] = 1.0
        col = 1
        for i in range(nu):
            for e, base in zip(exponents, derivs):
                matrix[row, col] = float(x) ** (e - i) * float(base)
                col += 1
        rhs[row] = F
    return matrix, rhs


def assert_exactly_rounded(d, matrix, rhs, ulps=1):
    """d is within ``ulps`` ulp of the exact first unknown of the float system."""
    exact = exact_first_unknown(matrix, rhs)
    assert exact is not None
    assert abs(d - float(exact)) <= ulps * math.ulp(float(exact))


def sample_rows(source, grid, m):
    """The samples d_sequence assembles its rows from, made on their own."""
    node = parse(source)
    cum = cumulative(lambda t: evaluate(node, t), grid)
    return [(x, F, derivatives(node, x, m)) for x, F in zip(grid.points, cum.F)]


def oracle_windows(matrix, rhs, m, points=POINTS):
    """Each nested window's D by the rational oracle, rounded, up to the
    first window that fails, and that window's (nu, message) or None;
    row l is the sample at ``points[l]``."""
    values = []
    # The samples at which every unknown's row is 0, over all the unknowns.
    vanishing = [l for l, row in enumerate(matrix[:, 1:]) if not row.any()]
    for nu in range((len(rhs) - 1) // m + 1):
        n = m * nu + 1
        window = matrix[:n, :n]
        if not (np.isfinite(window).all() and window.any(axis=0).all()):
            return values, (nu, "matrix has a zero or non-finite column")
        if not np.isfinite(rhs[:n]).all():
            return values, (nu, "right-hand side is not finite")
        exact = exact_first_unknown(window, rhs[:n])
        if exact is None:
            return values, (nu, "matrix is singular")
        if nu and vanishing and vanishing[0] < n:
            x = points[vanishing[0]]
            return values, (nu, (VANISHING % (nu, x, x)).partition(": ")[2])
        values.append(float(exact))
    return values, None


def full_matrix(g):
    """The matrix of one system as the sweep reads it: a column of ones for
    D, then the unknown g_{p+1} at every sample as column p+1."""
    return np.column_stack((np.ones(g.shape[1]), g.T))


def assert_exact_windows(g, rhs, m):
    """_exact_d gives every window the oracle's D, or the first failure."""
    values, failure = oracle_windows(full_matrix(g), rhs, m)
    if failure is None:
        assert dtransform._exact_d(g, rhs, m, POINTS) == values
    else:
        with pytest.raises(SingularSystemError) as info:
            dtransform._exact_d(g, rhs, m, POINTS)
        assert (info.value.nu, str(info.value)) == (failure[0], "window nu=%d: %s" % failure)
    return failure


# An integrand that fails as soon as it is sampled, and a grid that fails
# as soon as it is built, with the errors they raise.
UNSAMPLEABLE, UNBUILDABLE = "log(x-100)", "linear:-1.0"
QUADRATURE_FAILS = "^panel 0: integrand failed at node "
GRID_FAILS = "^the first grid point must be positive$"


def demo_table(**kwargs):
    return d_sequence("sinc(x)^2", "linear:1.6", 3, 10, **kwargs)


class TestSweepAndExactPath:
    def test_exact_model_is_reproduced(self):
        # F(x) = 1 - 1/x fits the model with D = 1, beta_10 = -1 exactly:
        # the exact fallback gives the oracle's D on its rows (the sweep's
        # is criterion 5 of the acceptance suite).
        for j in range(21):
            xs = [float(j + 1 + t) for t in range(2)]
            g, rhs = np.array([[x * x ** -2.0 for x in xs]]), np.array([1.0 - 1.0 / x for x in xs])
            assert assert_exact_windows(g, rhs, 1) is None

    def test_build_matches_element_loop(self):
        # Random m, nu_max, j, exponents and grids: every window's D is the
        # exact D of the reference assembly's system.  A fault in the rows
        # (a power, a derivative, a sample or the order) moves D far more
        # than the sweep's rounding, which misses exact rounding on two
        # windows of these draws; they are checked last, each in ulps.
        rng = random.Random(11)
        sources = ("sinc(x)^2", "cos(x)/(1+x^2)", "x^(1/2)*exp(-x)", "1/(1+x)^2")
        for _ in range(40):
            m, nu_max, j = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3)
            exponents = tuple(rng.randint(-3, 4) for _ in range(m))
            source = rng.choice(sources)
            descriptor = rng.choice(("linear:1.6", "sqrtlinear:1.6"))
            table = d_sequence(source, descriptor, m, nu_max, exponents=exponents, j=j)
            assert table.exponents == exponents and len(table.entries) == nu_max + 1
            # The table keeps the grid it sampled: the points the windows read.
            assert len(table.grid.points) == j + m * nu_max + 1
            rows = sample_rows(source, table.grid, m)[j:]
            for nu, entry in enumerate(table.entries):
                exact = float(exact_first_unknown(*element_loop_system(exponents, nu, rows)))
                assert abs(entry.d_value - exact) <= 1e-12 * abs(exact)
        # Each within the distance measured there: 8 ulp and 1 ulp.
        for source, descriptor, exponents, j, nu, ulps in (
                ("1/(1+x)^2", "linear:1.6", (2,), 2, 4, 8),
                ("1/(1+x)^2", "sqrtlinear:1.6", (-1, 3, 3, -2), 1, 3, 1)):
            m = len(exponents)
            table = d_sequence(source, descriptor, m, nu, exponents=exponents, j=j)
            rows = sample_rows(source, table.grid, m)[j:]
            assert_exactly_rounded(table.entries[nu].d_value,
                                   *element_loop_system(exponents, nu, rows), ulps=ulps)

    def test_derivatives_only_at_the_samples_read(self):
        # |x - 1.6| has no derivative at the first sample, which the windows
        # from j = 1 do not read; the integral up to it is still summed.
        source = "sqrt((x-1.6)^2)/(1+x^2)^2"
        with pytest.raises(ExprDomainError, match="^sqrt is not differentiable at 0"):
            d_sequence(source, "linear:1.6", 2, 3)
        table = d_sequence(source, "linear:1.6", 2, 3, j=1)
        F = cumulative(lambda t: evaluate(parse(source), t), table.grid).F
        assert [e.f_value for e in table.entries] == [F[1 + 2 * nu] for nu in range(4)]
        assert abs(table.entries[3].d_value - table.entries[2].d_value) < 1e-4
        # Nor is a point past the last one read built: sqrt(7.5-x) fails on
        # the panel past x=7.5, beyond x_3 of linear:1.0.
        assert len(d_sequence("exp(-x)*sqrt(7.5-x)", "linear:1.0", 1, 3).entries) == 4

    def test_power_beyond_the_float_range_is_inf(self):
        # 1e-12**-26 overflows: row i=27 holds inf at the first sample, so
        # window nu=28 is the first with a non-finite column.
        table = power_table([1e-12, 2e-12], [-26, -25, -26])
        assert table[:, 0].tolist() == [math.inf, math.pow(1e-12, -25), math.inf]
        assert table[:, 1].tolist() == [math.pow(2e-12, p) for p in (-26, -25, -26)]
        with pytest.raises(SingularSystemError) as info:
            d_sequence("exp(-x)", "linear:1e-12", 1, 31)
        assert info.value.nu == 28
        assert str(info.value) == "window nu=28: matrix has a zero or non-finite column"

    def test_pivot_off_the_diagonal_in_every_column(self):
        # The exact path eliminates the unknowns g_1..g_{n-1} and then D's
        # column of ones.  In that order the rows are those of an upper
        # triangular matrix rotated by one, so at every step the only non-zero entry of the
        # column is one row down: each step swaps, also where that row is
        # the last of the window being built (m=1), and every window's D
        # is still exact, rounded.  m more unknowns, and m more samples,
        # make the last window; they are non-zero at the first sample, so
        # that sample does not fix D.
        rng = np.random.default_rng(8)
        for n in (2, 3, 9, 17):
            upper = np.triu(rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8, n))
            upper[:, -1] = 1.0
            rotated = upper[np.roll(np.arange(n), 1)]
            rhs = rng.standard_normal(n)
            for m in {1, n - 1}:
                g = np.vstack((np.hstack((rotated[:, :-1].T, rng.standard_normal((n - 1, m)))),
                               rng.standard_normal((m, n + m))))
                assert assert_exact_windows(g, np.append(rhs, rng.standard_normal(m)), m) is None

    def test_singular_messages(self):
        # Each window's checks run in a fixed order (column, right-hand
        # side, singularity), and the first window that fails names itself.
        column, right, singular = ("matrix has a zero or non-finite column",
                                   "right-hand side is not finite", "matrix is singular")
        vanishing = (VANISHING % (1, 1.0, 1.0)).partition(": ")[2]
        inf, nan = np.inf, np.nan
        # Each system is its rows g_{p+1}, D's column of ones implied.
        for g, rhs, m, nu, text in (
                ([[1.0, 1.0]], [1.0, 1.0], 1, 1, singular),
                ([[1.0, 2.0, 3.0], [0.5, 1.0, 1.5]], [1.0] * 3, 2, 1, singular),
                ([[0.0, 0.0]], [1.0, 1.0], 1, 1, column),
                ([[inf, 2.0]], [1.0, 1.0], 1, 1, column),
                ([[nan, 2.0]], [1.0, 1.0], 1, 1, column),
                ([[0.0, 1.0]], [1.0, inf], 1, 1, right),
                ([[0.0, 1.0]], [nan, 1.0], 1, 0, right),
                # Window 0 is the first sample; in window 1, g_1 is 0 there,
                # so that sample reads F(x_0) = D and window 1 is refused.
                ([[0.0, 1.0]], [3.5, -1.0], 1, 1, vanishing),
                # A zero column outranks a non-finite right-hand side, and
                # that outranks a singular matrix.
                ([[0.0, 0.0]], [1.0, inf], 1, 1, column),
                ([[1.0, 1.0]], [1.0, inf], 1, 1, right),
                # Repeated rows: window 1 is singular before window 2 reads
                # the infinity, and the failure of window 1 is reported.
                ([[2.0, 2.0, inf], [3.0, 5.0, 1.0]], [1.0] * 3, 1, 1, singular),
                # A column that is zero in window 1 only: window 1 fails.
                ([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]], [1.0] * 3, 1, 1, column),
                # Every unknown's row is 0 at the first sample: the first
                # window holding it fails, unless it is singular on its own.
                ([[0.0, 1.0, 2.0], [0.0, 3.0, 5.0]], [1.0] * 3, 1, 1, vanishing),
                ([[0.0, 1.0, 1.0], [0.0, 2.0, 2.0]], [1.0] * 3, 2, 1, singular)):
            assert assert_exact_windows(np.array(g), np.array(rhs), m) == (nu, text)
        # A tiny pivot is solved, not reported as singular.
        assert assert_exact_windows(np.array([[1e-305, 3e-305]]), np.array([1.0, 2.0]), 1) is None

    def test_exact_fallback_is_exactly_rounded(self):
        # One Bareiss elimination on the float entries, unknowns spread over
        # 10^+-30, gives every window the exact D, rounded: the same float
        # as the rational oracle, every time.  A repeated sample makes the
        # first window that holds both samples singular.
        rng = np.random.default_rng(13)
        singular = 0
        for trial in range(80):
            m = int(rng.integers(1, 4))
            n = m * int(rng.integers(0, 4)) + 1
            g = rng.standard_normal((n - 1, n)) * 10.0 ** rng.uniform(-30, 30, (n - 1, 1))
            if trial % 4 == 3 and n > 1:
                g[:, int(rng.integers(1, n))] = g[:, 0]
            rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
            failure = assert_exact_windows(g, rhs, m)
            if failure is not None:
                assert failure[1] == "matrix is singular"
                singular += 1
        assert singular >= 15

    def test_exact_windows_match_window_by_window(self):
        # Nested systems of few distinct values, many zeros among them:
        # the one elimination agrees with each window solved on its own,
        # also where a pivot must come from a later row or from no row of
        # the window being built.
        rng = np.random.default_rng(21)
        failures = set()
        for trial in range(300):
            m = int(rng.integers(1, 4))
            n = m * int(rng.integers(1, 4)) + 1
            g = rng.choice([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 0.5], (n - 1, n))
            rhs = rng.choice([0.0, 1.0, -2.0, 0.25], n)
            if trial % 10 == 9:
                g[rng.integers(0, n - 1), rng.integers(0, n)] = rng.choice([np.inf, np.nan])
            if trial % 10 == 4:
                rhs[rng.integers(0, n)] = np.inf
            failure = assert_exact_windows(g, rhs, m)
            failures.add(None if failure is None else failure[1].partition(" at the sample")[0])
        assert failures == {None, "matrix has a zero or non-finite column",
                            "right-hand side is not finite", "matrix is singular",
                            "every unknown's row vanishes"}

    def test_sweep_windows_match_window_by_window(self):
        # The sweep gives every nested window of one system at once; each
        # is within one ulp of that window solved exactly on its own.  A
        # zero row or an infinity planted in g_{p+1} breaks step p, on a
        # window's own step or between two, and the sweep returns None for
        # the system.  No np.errstate here: the sweep owns its own.
        rng = np.random.default_rng(17)
        exact_hits = total = 0
        cuts = set()
        for trial in range(40):
            m = int(rng.integers(1, 4))
            n = m * int(rng.integers(1, 5))
            x = np.sort(rng.uniform(1.0, 30.0, n + 1))
            g = np.array([x ** (1 - p // m) * rng.uniform(0.5, 2.0, n + 1) for p in range(n)])
            rhs = rng.standard_normal(n + 1)
            values, = dtransform._fs_sweep(g[None], rhs[None], m)
            assert len(values) == n // m + 1
            for nu, d in enumerate(values):
                size = m * nu + 1
                exact = float(exact_first_unknown(full_matrix(g[:m * nu, :size]), rhs[:size]))
                assert abs(d - exact) <= math.ulp(exact)
                exact_hits += d == exact
                total += 1
            p = int(rng.integers(0, n))
            if trial % 2:
                g[p] = 0.0
            else:
                g[p, rng.integers(0, n + 1)] = np.inf
            broken, = dtransform._fs_sweep(g[None], rhs[None], m)
            assert broken is None
            cuts.add(p % m != 0)
        assert exact_hits >= 0.9 * total
        # Steps that break at a window's own step and between two.
        assert cuts == {False, True}

    def test_batched_sweep_matches_one_system_at_a_time(self):
        # A batch gives every system the D list it gets alone.  A zero row
        # or an infinity planted in g_{p+1} of some systems, at step 0 or
        # later, makes the sweep return None for those systems only; the
        # others keep every window.
        rng = np.random.default_rng(5)
        steps = set()
        for trial in range(30):
            m = int(rng.integers(1, 4))
            n = m * int(rng.integers(1, 5))
            count = int(rng.integers(2, 6))
            x = np.sort(rng.uniform(1.0, 30.0, (count, 1, n + 1)), axis=-1)
            g = x ** (1 - np.arange(n)[:, None] // m) * rng.uniform(0.5, 2.0, (count, n, n + 1))
            rhs = rng.standard_normal((count, n + 1))
            planted = rng.choice(count, int(rng.integers(0, count + 1)), replace=False)
            for system in planted:
                p = int(rng.integers(0, n))
                if rng.integers(0, 2):
                    g[system, p] = 0.0
                else:
                    g[system, p, rng.integers(0, n + 1)] = np.inf
                steps.add(min(p, 1))
            alone = [dtransform._fs_sweep(g[i:i + 1], rhs[i:i + 1], m)[0] for i in range(count)]
            batch = dtransform._fs_sweep(g, rhs, m)
            assert batch == alone
            assert [values is None for values in batch] == [i in planted for i in range(count)]
            assert all(len(values) == n // m + 1 for values in batch if values is not None)
        # Systems broke at step 0 and at later steps.
        assert steps == {0, 1}


class TestDSequence:
    def test_first_entry_is_first_sample(self):
        # The window nu=0 is the sample F(x_j) itself, bit for bit, also
        # where it is the only window.
        node = parse("sinc(x)^2")
        F = cumulative(lambda t: evaluate(node, t), grid_from_descriptor("linear:1.6", 31)).F
        only = d_sequence("sinc(x)^2", "linear:1.6", 3, 0, j=2)
        assert len(only.entries) == 1
        for table, j in ((demo_table(), 0), (only, 2)):
            assert table.entries[0].d_value == table.entries[0].f_value == F[j]

    def test_demo_window_three(self):
        table = demo_table()
        assert abs(table.entries[3].d_value - PI_HALF) == pytest.approx(1.69e-4, rel=0.05)

    def test_exponent_modes_agree(self):
        friendly = demo_table()
        rho = demo_table(exponents=(1, 0, 1))
        assert friendly.exponents == (1, 2, 3)
        assert friendly.entries[10].d_value == pytest.approx(PI_HALF, abs=1e-9)
        assert rho.entries[10].d_value == pytest.approx(PI_HALF, abs=1e-9)
        e_f, e_r = (abs(t.entries[10].d_value - PI_HALF) for t in (friendly, rho))
        assert max(e_f / e_r, e_r / e_f) <= 100.0

    @pytest.mark.parametrize("source, grid, m, nu_max, exponents, j", [
        ("sinc(x)^2", "linear:1.6", 3, 10, None, 0),
        ("sinc(x^2)^2", "sqrtlinear:1.6", 3, 10, (1, 0, 1), 2),
        ("exp(-x)", "linear:1.0", 1, 12, None, 0),
        ("cos(x)/(1+x^2)", "linear:1.6", 2, 7, (2, -1), 1),
        ("sinc(x^2)^2", "sqrtlinear:1.6", 3, 10, None, 0),
    ])
    def test_windows_are_those_of_the_sweep(self, source, grid, m, nu_max,
                                            exponents, j):
        # Every window on its own, assembled entry by entry: the sweep's D
        # is its exact solution, rounded (the demo windows of f and phi
        # among them).
        table = d_sequence(source, grid, m, nu_max, exponents=exponents, j=j)
        rows = sample_rows(source, table.grid, m)
        assert len(table.entries) == nu_max + 1
        for nu, entry in enumerate(table.entries):
            assert_exactly_rounded(entry.d_value,
                                   *element_loop_system(table.exponents, nu, rows[j:]))

    @pytest.mark.parametrize("source, grid, nu_max, nu", [
        ("exp(-x)*cos(x)", "linear:1.0", 20, 8),
        ("1/(1+x^2)", "linear:1.6", 24, 12),
        ("cos(x^2)", "sqrtlinear:1.6", 30, 10),
        ("sinc(x)^3", "linear:1.6", 22, 9),
    ])
    def test_accel_deep_windows_are_exactly_rounded(self, source, grid, nu_max, nu):
        # A sample of the m=3 windows of long sequences.
        table = d_sequence(source, grid, 3, nu_max)
        rows = sample_rows(source, table.grid, 3)
        assert_exactly_rounded(table.entries[nu].d_value,
                               *element_loop_system(table.exponents, nu, rows))

    @pytest.mark.parametrize("source, grid, m, nu_max, nu, text", [
        ("0", "linear:1.0", 2, 3, 1, "matrix has a zero or non-finite column"),
    ])
    def test_smallest_singular_window_raises(self, source, grid, m, nu_max, nu, text):
        # The error is that of the first window the rational oracle refuses.
        with pytest.raises(SingularSystemError) as info:
            d_sequence(source, grid, m, nu_max)
        assert (info.value.nu, str(info.value)) == (nu, "window nu=%d: %s" % (nu, text))
        rows = sample_rows(source, grid_from_descriptor(grid, m * nu_max + 1), m)
        system = element_loop_system(friendly_exponents(m), nu_max, rows)
        assert oracle_windows(*system, m)[1] == (nu, text)

    @pytest.mark.parametrize("m, nu_max, nu", [(2, 30, 27), (3, 30, 20), (4, 30, 15), (3, 25, 20)])
    def test_exp_cos_windows_are_regular(self, m, nu_max, nu):
        # Exact elimination finds these windows regular, with exact D
        # 0.5 + 2.2e-16; every window of the sequence is solved.
        table = d_sequence("exp(-x)*cos(x)", "linear:1.0", m, nu_max)
        assert len(table.entries) == nu_max + 1
        assert abs(table.entries[nu].d_value - 0.5) <= 1e-12

    def test_vanishing_sample_takes_the_exact_path(self):
        # (x-2)*exp(-x) vanishes at the grid point x=2, so g_1 has a zero
        # and the sweep breaks at its first division: one exact elimination
        # of the whole nu_max system solves every window of the sequence,
        # each D the rational oracle's, rounded.
        table = d_sequence("(x-2)*exp(-x)", "linear:1.0", 2, 6)
        grid = table.grid
        assert grid.points[1] == 2.0
        rows = sample_rows("(x-2)*exp(-x)", grid, 2)
        values, failure = oracle_windows(*element_loop_system((1, 2), 6, rows), 2, grid.points)
        assert [entry.d_value for entry in table.entries] == values and failure is None
        assert values[0] == rows[0][1] and values[5] == -1.0
        # The model is exact from nu=2: D is the integral, -1.
        assert all(abs(d + 1.0) <= 2 * math.ulp(1.0) for d in values[2:])
        # At m=1 the row at x=2 is the sample's only row, so every window
        # holding it reads F(2) = D: the one exact elimination finds
        # window 1 regular and refuses the sequence there.
        with pytest.raises(SingularSystemError) as info:
            d_sequence("(x-2)*exp(-x)", "linear:1.0", 1, 6)
        assert (info.value.nu, str(info.value)) == (1, VANISHING % (1, 2.0, 2.0))

    @pytest.mark.parametrize("source, m", [
        ("(x-2)*exp(-x)", 1),
        ("(x-2)*exp(-x)", 3),
        ("(x-3)*(x-5)*exp(-x)", 2),
        ("exp(-x)*(x-1)", 1),
        ("(x-1)*(x-2)*exp(-x)", 3),
        ("(x-4)/(1+x^4)", 3),
        ("(x-2)*(x-3)*exp(-x)", 1),
        ("0", 2),
        ("exp(-x)", 4),
    ])
    def test_breaking_sequences_match_the_rational_oracle(self, source, m):
        # Each of these sweeps breaks, at a sample where the integrand
        # vanishes or on a singular window, so the one exact elimination
        # solves the sequence: every window is the rational oracle's D,
        # rounded, up to the first window the oracle refuses, whose message
        # the sequence raises.
        nu_max = 24 // m
        grid = grid_from_descriptor("linear:1.0", m * nu_max + 1)
        system = element_loop_system(friendly_exponents(m), nu_max, sample_rows(source, grid, m))
        values, failure = oracle_windows(*system, m, grid.points)
        if failure is None:
            table = d_sequence(source, "linear:1.0", m, nu_max)
            assert table.grid == grid and [e.d_value for e in table.entries] == values
        else:
            with pytest.raises(SingularSystemError) as info:
                d_sequence(source, "linear:1.0", m, nu_max)
            assert (info.value.nu, str(info.value)) == (failure[0], "window nu=%d: %s" % failure)

    def test_one_assembly_per_sequence(self, monkeypatch):
        # Each distinct power e_k - i (here -8..3) taken once at each of
        # the 31 samples by the owner's pow: a second assembly, or the
        # element-by-element fallback after an overflow, would repeat one.
        powers = []
        real_pow = exprtaylor.LIBM["pow"]

        def recording_pow(x, p):
            powers.append((x, p))
            return real_pow(x, p)

        monkeypatch.setitem(exprtaylor.LIBM, "pow", recording_pow)
        d_sequence("sinc(x)^2", "linear:1.6", 3, 10)
        points = grid_from_descriptor("linear:1.6", 31).points
        assert sorted(powers) == sorted((x, p) for x in points for p in range(-8, 4))

    def test_mixed_batch_matches_one_member_at_a_time(self):
        # f, phi and an integrand whose sweep breaks at step 0, in one call.
        members = [("sinc(x)^2", "linear:1.6"), ("sinc(x^2)^2", "sqrtlinear:1.6"),
                   ("(x-2)*exp(-x)", "linear:1.0")]
        tables = d_sequences(members, 3, 10)
        assert len(tables) == len(members)
        for (source, grid), table in zip(members, tables):
            alone = d_sequence(source, grid, 3, 10)
            assert [(e.d_value.hex(), e.f_value.hex()) for e in table.entries] == \
                [(e.d_value.hex(), e.f_value.hex()) for e in alone.entries]
            assert table == alone

    def test_batch_raises_the_single_members_error(self):
        with pytest.raises(SingularSystemError) as alone:
            d_sequence("0", "linear:1.0", 3, 10)
        with pytest.raises(SingularSystemError) as batched:
            d_sequences([("sinc(x)^2", "linear:1.6"), ("0", "linear:1.0")], 3, 10)
        assert str(batched.value) == str(alone.value)
        assert batched.value.nu == alone.value.nu == 1

    def test_empty_batch(self):
        assert d_sequences([], 3, 10) == []

    def test_d_beyond_the_float_range_raises(self):
        # The sweep's D of window 1 is not finite, and neither is the
        # exact one as a float: the window is reported, not a traceback.
        source, grid = "exp(700)*(1+0.000000001*x)/x", "linear:1.0"
        with pytest.raises(SingularSystemError) as info:
            d_sequence(source, grid, 1, 1)
        assert (info.value.nu, str(info.value)) == (
            1, "window nu=1: D is beyond the float range")
        rows = sample_rows(source, grid_from_descriptor(grid, 2), 1)
        exact = exact_first_unknown(*element_loop_system((1,), 1, rows))
        assert abs(exact) > sys.float_info.max

    def test_row_overflow_is_a_non_finite_column(self):
        # x * exp(709) is inf from x = 3 on, so window 2 is the first with
        # a non-finite column; the overflow warns nowhere (the suite turns
        # warnings into errors).
        with pytest.raises(SingularSystemError) as info:
            d_sequence("exp(709)", "linear:1.0", 1, 2)
        assert (info.value.nu, str(info.value)) == (
            2, "window nu=2: matrix has a zero or non-finite column")

    def test_singular_window_keeps_its_number_and_text(self):
        # The integrand vanishes at x=2 and x=3.  From nu=1 the row at x=2
        # reads D = F(2), so window 1 is refused, before window 2, where
        # D = F(3) as well makes the matrix singular.
        with pytest.raises(SingularSystemError) as info:
            d_sequence("(x-2)*(x-3)*exp(-x)", "linear:1.0", 1, 5)
        assert info.value.nu == 1
        assert str(info.value) == VANISHING % (1, 2.0, 2.0)

    def test_m_checked_before_sampling(self):
        # log(x-100) fails as soon as it is sampled: a parameter refused by
        # name was checked before the quadrature ran.
        for m in (0, -1):
            with pytest.raises(ValueError, match="^m must be at least 1$"):
                d_sequence(UNSAMPLEABLE, "linear:1.0", m, 3)
        with pytest.raises(ValueError, match="^the start index j must be non-negative$"):
            d_sequence(UNSAMPLEABLE, "linear:1.0", 1, 3, j=-1)
        with pytest.raises(QuadratureError, match=QUADRATURE_FAILS):
            d_sequence(UNSAMPLEABLE, "linear:1.0", 1, 3, j=0)

    def test_unknowns_bounded_before_sampling(self):
        # An oversized system is refused before its grid is built:
        # linear:-1.0 fails as soon as it is built.  The bounds are the
        # documented 300 unknowns, m at most 171 and j at most 10 000.
        bound = 300
        for m, nu_max in ((1, bound + 1), (3, bound // 3 + 1)):
            message = ("too many unknowns: m = %d, m*nu_max = %d; each must be at most %d"
                       % (m, m * nu_max, bound))
            with pytest.raises(ValueError) as info:
                d_sequence(UNSAMPLEABLE, UNBUILDABLE, m, nu_max)
            assert str(info.value) == message
        # m itself stops where (m-1)! leaves the float range, below the
        # unknowns' bound, and m beyond both is refused by its own bound.
        top = 171
        float(math.factorial(top - 1))
        with pytest.raises(OverflowError):
            float(math.factorial(top))
        for m, nu_max in ((top + 1, 0), (top + 1, 1), (bound, 0), (bound + 1, 0)):
            with pytest.raises(ValueError) as info:
                d_sequence(UNSAMPLEABLE, UNBUILDABLE, m, nu_max)
            assert str(info.value) == ("m must be at most %d, got %d: the derivative rows "
                                       "take k! up to (m-1)!, beyond the float range"
                                       % (top, m))
        # So is a start index j: every point below x_j would be integrated.
        start = 10_000
        with pytest.raises(ValueError) as info:
            d_sequence(UNSAMPLEABLE, UNBUILDABLE, 1, 2, j=start + 1)
        assert str(info.value) == "the start index j must be at most 10000, got 10001"
        # At each bound the parameters pass, and the grid is built.
        for m, nu_max, j in ((1, bound, 0), (top, 1, 0), (1, 2, start)):
            with pytest.raises(ValueError, match=GRID_FAILS):
                d_sequence(UNSAMPLEABLE, UNBUILDABLE, m, nu_max, j=j)
        with pytest.raises(QuadratureError, match=QUADRATURE_FAILS):
            d_sequence(UNSAMPLEABLE, "linear:1.0", top, 1)

    def test_exponent_count_checked_before_sampling(self):
        with pytest.raises(ValueError, match="^need 2 exponents, got 3$"):
            d_sequence(UNSAMPLEABLE, "linear:1.0", 2, 3, exponents=(1, 2, 3))
        with pytest.raises(ValueError, match="^nu_max must be non-negative$"):
            d_sequence(UNSAMPLEABLE, "linear:1.0", 2, -1)
        with pytest.raises(QuadratureError, match=QUADRATURE_FAILS):
            d_sequence(UNSAMPLEABLE, "linear:1.0", 2, 0, exponents=(1, 2))

    def test_non_integral_exponents_rejected_before_sampling(self):
        # 1.5 - i would become 1 - i, and two columns would coincide.
        for exponents in ((1.5,), (2.0,), ("1",)):
            with pytest.raises(ValueError, match="^exponents must be integers, got "):
                d_sequence(UNSAMPLEABLE, "linear:1.0", 1, 4, exponents=exponents)
        # numpy integers pass, and the table records plain ints.
        table = d_sequence("sinc(x)^2", "linear:1.6", 2, 3,
                           exponents=(np.int64(1), np.int32(0)))
        assert table == d_sequence("sinc(x)^2", "linear:1.6", 2, 3, exponents=(1, 0))
        assert table.exponents == (1, 0)
        assert all(type(e) is int for e in table.exponents)

    @pytest.mark.parametrize("source, grid, m, j", [
        ("sinc(x)^2", "linear:1.6", 3, 0),
        ("x^(1/2)*exp(-x)", "sqrtlinear:2", 2, 2),
        ("exp(-x)", "linear:1.0", 1, 0),
    ])
    def test_one_derivatives_call_per_sequence(self, source, grid, m, j):
        with collect_counts() as counts:
            table = d_sequence(source, grid, m, 4, j=j)
        # At the samples the windows read, j on.
        assert counts["dtransform.row_walks"] == 1
        assert counts["dtransform.row_samples"] == len(table.grid.points) - j

    def test_failing_sample_point_named_as_point_by_point(self):
        # The array walk fails first in 1/(x-3.2); the first grid point
        # to fail is x = 1.6, in 1/(x-1.6).
        with pytest.raises(ExprDomainError, match="^division by zero in '1/\\(x-1.6\\)'$"):
            d_sequence("1/(x-3.2)+1/(x-1.6)", "linear:1.6", 2, 2)

    def test_nonzero_start_index(self):
        table = d_sequence("sinc(x)^2", "linear:1.6", 3, 3, j=2)
        assert abs(table.entries[3].d_value - PI_HALF) < 1e-2


def test_no_benchmark_sequence_takes_the_exact_path():
    # Every sequence the benchmark's numeric workloads run sweeps: the demo
    # table's two at nu_max=10 and the accel-deep catalogue at each of its
    # nu_max.  A change that sends one down the exact path fails here, where
    # the benchmark would show it only as a latency cliff.  Nor does any of
    # them leave a quadrature panel above its tolerance (no stderr line).
    # A sequence whose sweep breaks at step 0 is counted.
    workloads = benchmark_workloads()
    with collect_counts() as counts:
        tables = d_sequences([BUILTIN_INTEGRANDS[name][:2] for name in ("f", "phi")], 3, 10)
        members = [(integrand, grid) for integrand, grid, *_ in workloads.CATALOGUE]
        for nu_max in workloads.NU_MAX_RANGE:
            tables += d_sequences(members, workloads.ACCEL_M, nu_max)
        assert counts["dtransform.exact_sequences"] == 0
        d_sequence("(x-2)*exp(-x)", "linear:1.0", 3, 10)
    assert counts["dtransform.exact_sequences"] == 1
    assert len(tables) == 2 + len(members) * len(workloads.NU_MAX_RANGE)
    assert [table.unresolved_panels for table in tables if table.unresolved_panels] == []


class TestExactSampleOracle:
    # |D - I| of each window nu = 6..10 of the demo table with F and the
    # derivative rows taken at 40 digits on the same float64 grid points,
    # every window solved at 40 digits: the method's own error.
    EXACT_ERRORS = {"f": (1.07e-8, 5.66e-11, 1.16e-10, 8.29e-13, 1.23e-12),
                    "phi": (4.58e-9, 3.98e-11, 1.75e-10, 1.55e-12, 4.67e-12)}

    def test_demo_table_against_exact_samples(self):
        # The program's D lies within rounding noise of the exact-sample D
        # on all 22 windows; the largest distance measured is 9.0e-11 (f,
        # nu=5).  The published table's tolerances are checked elsewhere.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        names = ("f", "phi")
        integrands = {"f": lambda t: mp.sinc(t) ** 2, "phi": lambda t: mp.sinc(t * t) ** 2}
        tables = d_sequences([BUILTIN_INTEGRANDS[name][:2] for name in names], 3, 10)
        with mpmath.workdps(40):
            references = {"f": mp.pi / 2, "phi": 2 * mp.sqrt(mp.pi) / 3}
            for name, table in zip(names, tables):
                fn = integrands[name]
                points = [mp.mpf(x) for x in table.grid.points[:31]]
                panels = [mp.quad(fn, [a, b]) for a, b in zip([0] + points, points)]
                F = [mp.fsum(panels[:l + 1]) for l in range(31)]
                # The rows in the i-major order, x**(k+1-i) * f^(k)(x).
                rows = [[x ** (k + 1 - i) * d[k] for i in range(10) for k in range(3)]
                        for x, d in ((x, list(mp.diffs(fn, x, 2))) for x in points)]
                errors = []
                for entry in table.entries:
                    n = 3 * entry.nu + 1
                    matrix = mp.matrix([[1] + row[:n - 1] for row in rows[:n]])
                    d = mp.lu_solve(matrix, mp.matrix(F[:n]))[0]
                    assert abs(mp.mpf(entry.d_value) - d) < 1e-9
                    errors.append(float(abs(d - references[name])))
                assert ["%.2e" % error for error in errors[6:]] == \
                    ["%.2e" % error for error in self.EXACT_ERRORS[name]]
