import csv
import io
import math
import random

import numpy as np
import pytest

from dmint import dtransform
from dmint.dtransform import (
    DSystemSpec,
    SampleRow,
    SingularSystemError,
    build_system,
    d_sequence,
    d_sequences,
    friendly_exponents,
    solve,
    solve_vector,
)

from dmint.exprtaylor import ExprDomainError, derivatives, evaluate, parse
from dmint.quad import cumulative, grid_from_descriptor

from support import exact_first_unknown

PI_HALF = math.pi / 2
PHI_REF = 2 * math.sqrt(math.pi) / 3


def element_loop_system(spec, samples):
    """Reference assembly: every entry on its own, x**(e_k-i) * f^(k-1)(x)."""
    size = spec.N + 1
    matrix = np.zeros((size, size))
    rhs = np.zeros(size)
    for row, sample in enumerate(samples):
        matrix[row, 0] = 1.0
        x = float(sample.x)
        col = 1
        for k in range(1, spec.m + 1):
            base = float(sample.derivs[k - 1])
            e = spec.exponents[k - 1]
            for i in range(spec.n[k - 1]):
                matrix[row, col] = x ** (e - i) * base
                col += 1
        rhs[row] = sample.F
    return matrix, rhs


def assert_exactly_rounded(d, matrix, rhs):
    """d is within one ulp of the exact first unknown of the float system."""
    exact = exact_first_unknown(matrix, rhs)
    assert exact is not None
    assert abs(d - float(exact)) <= math.ulp(float(exact))


def sample_rows(source, grid, m):
    """The SampleRows d_sequence builds its systems from, made on their own."""
    node = parse(source)
    cum = cumulative(lambda t: evaluate(node, t), grid, 16)
    return [SampleRow(x, F, tuple(derivatives(node, x, m)))
            for x, F in zip(grid.points, cum.F)]


def demo_table(**kwargs):
    return d_sequence("sinc(x)^2", "linear:1.6", 3, 10, reference=PI_HALF, **kwargs)


class TestSpecValidation:
    def test_shapes(self):
        spec = DSystemSpec(3, 0, (2, 2, 2), (1, 2, 3))
        assert spec.N == 6
        with pytest.raises(ValueError):
            DSystemSpec(3, 0, (2, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            DSystemSpec(3, 0, (2, 2, -1), (1, 2, 3))
        with pytest.raises(ValueError):
            DSystemSpec(0, 0, (), ())
        with pytest.raises(ValueError, match="^need 3 exponents, got 2$"):
            DSystemSpec(3, 0, (2, 2, 2), (1, 2))
        assert friendly_exponents(4) == (1, 2, 3, 4)


class TestBuildAndSolve:
    def test_trivial_window_returns_first_sample(self):
        rows = [SampleRow(1.6, 0.7755, (0.1, 0.2, 0.3))]
        matrix, rhs = build_system(DSystemSpec(3, 0, (0, 0, 0), (1, 2, 3)), rows)
        assert matrix.shape == (1, 1)
        d, residual = solve(matrix, rhs)
        assert d == 0.7755  # bit-for-bit
        assert residual == 0.0

    def test_identity_system(self):
        d, residual = solve([[1.0, 0.0], [0.0, 1.0]], [3.5, -1.0])
        assert d == 3.5 and residual == 0.0

    def test_exact_model_is_reproduced(self):
        # F(x) = 1 - 1/x fits the model with D = 1, beta_10 = -1 exactly.
        for j in range(21):
            xs = [float(j + 1 + t) for t in range(2)]
            rows = [SampleRow(x, 1.0 - 1.0 / x, (x ** -2.0,)) for x in xs]
            matrix, rhs = build_system(DSystemSpec(1, j, (1,), (1,)), rows)
            d, residual = solve(matrix, rhs)
            assert abs(d - 1.0) <= 1e-13
            solution, _ = solve_vector(matrix, rhs)
            assert solution[1] == pytest.approx(-1.0, abs=1e-12)

    def test_build_matches_element_loop(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.randint(1, 4)
            n = tuple(rng.choice((0, 0, 1, 2, 5, 9)) for _ in range(m))
            exponents = tuple(rng.randint(-3, 4) for _ in range(m))
            spec = DSystemSpec(m, 0, n, exponents)
            rows = [SampleRow(rng.uniform(0.1, 60.0), rng.uniform(-2.0, 2.0),
                              tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-9, 3)
                                    for _ in range(m + rng.randint(0, 1))))
                    for _ in range(spec.N + 1)]
            matrix, rhs = build_system(spec, rows)
            ref_matrix, ref_rhs = element_loop_system(spec, rows)
            assert matrix.dtype == rhs.dtype == np.float64
            assert np.array_equal(matrix, ref_matrix)
            assert np.array_equal(rhs, ref_rhs)

    def test_sample_count_mismatch(self):
        rows = [SampleRow(1.0, 0.5, (0.1,))]
        with pytest.raises(ValueError):
            build_system(DSystemSpec(1, 0, (1,), (1,)), rows)

    def test_power_beyond_the_float_range_is_inf(self):
        # 1e-12**-30 overflows: the entry is inf, and the window singular.
        rows = [SampleRow(1e-12 * (l + 1), 0.5, (1.0,)) for l in range(32)]
        matrix, _ = build_system(DSystemSpec(1, 0, (31,), (1,)), rows)
        assert np.isinf(matrix[0, -1]) and np.isfinite(matrix[-1, -2])
        with pytest.raises(SingularSystemError, match="^matrix has a zero or non-finite column$"):
            solve(matrix, [0.5] * 32)

    def test_solve_matches_exact_elimination(self):
        # Column scales spread over 16 decades and permuted dominant rows:
        # the equilibrated float64 solve stays within 8 cond ulps of the
        # exact solution of the same system.
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(1, 9))
            matrix = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8, n)
            if trial % 2:
                matrix = (matrix + np.diag(10.0 ** rng.uniform(9, 12, n)))[rng.permutation(n)]
            rhs = rng.standard_normal(n)
            exact = float(exact_first_unknown(matrix, rhs))
            d, _ = solve(matrix, rhs)
            cond = np.linalg.cond(matrix / np.max(np.abs(matrix), axis=0))
            assert abs(d - exact) <= 8 * cond * math.ulp(max(abs(exact), 1.0))

    def test_pivot_off_the_diagonal_in_every_column(self):
        # Row c+1 carries the dominant entry of column c, and row 0 that of
        # the last column, so every column but the last pivots on the row
        # below; the solve still recovers the planted unknowns.
        rng = np.random.default_rng(8)
        for n in (2, 3, 17, 40):
            dominant = rng.standard_normal((n, n)) + np.diag(10.0 ** rng.uniform(9, 12, n))
            matrix = dominant[np.roll(np.arange(n), 1)]
            planted = rng.standard_normal(n)
            solution, residual = solve_vector(matrix, matrix @ planted)
            assert np.allclose(solution, planted, rtol=1e-12, atol=1e-12)
            assert residual <= 1e-3 * np.max(np.abs(matrix @ planted))

    def test_singular_messages(self):
        for matrix, text in (([[1.0, 1.0], [1.0, 1.0]], "matrix is singular"),
                             ([[2.0, 1.0, 0.5], [4.0, 2.0, 1.0], [1.0, 3.0, 0.0]],
                              "matrix is singular"),
                             ([[1.0, 0.0], [1.0, 0.0]], "matrix has a zero or non-finite column"),
                             ([[1.0, np.inf], [1.0, 2.0]], "matrix has a zero or non-finite column")):
            with pytest.raises(SingularSystemError, match="^%s$" % text):
                solve_vector(matrix, [1.0] * len(matrix))
            with pytest.raises(SingularSystemError, match="^%s$" % text):
                dtransform._exact_d(np.array(matrix), np.ones(len(matrix)))
        # A tiny pivot is solved, not reported as singular.
        d, _ = solve([[1.0, 1.0], [0.0, 1e-305]], [1.0, 2.0])
        assert d == 1.0 - 2e305

    def test_exact_fallback_is_exactly_rounded(self):
        # Bareiss elimination on the float entries gives the exact D,
        # rounded: the same float as the rational oracle, every time.
        rng = np.random.default_rng(13)
        singular = 0
        for trial in range(80):
            n = int(rng.integers(1, 8))
            matrix = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-30, 30, n)
            if trial % 4 == 3 and n > 1:
                # A repeated row: exactly singular.
                matrix[int(rng.integers(1, n))] = matrix[0]
            rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
            exact = exact_first_unknown(matrix, rhs)
            if exact is None:
                singular += 1
                with pytest.raises(SingularSystemError, match="^matrix is singular$"):
                    dtransform._exact_d(matrix, rhs)
            else:
                assert dtransform._exact_d(matrix, rhs) == float(exact)
        assert singular >= 15

    def test_solve_windows_matches_window_by_window(self):
        # The sweep gives every nested window of one system at once; each
        # is within one ulp of that window solved exactly on its own.  A
        # zero planted in a divisor stops the sweep before the windows
        # that read it.
        rng = np.random.default_rng(17)
        exact_hits = total = 0
        for trial in range(40):
            m = int(rng.integers(1, 4))
            n = m * int(rng.integers(1, 5))
            x = np.sort(rng.uniform(1.0, 30.0, n + 1))
            g = np.array([x ** (1 - p // m) * rng.uniform(0.5, 2.0, n + 1) for p in range(n)])
            rhs = rng.standard_normal(n + 1)
            values = dtransform._fs_sweep(g, rhs, m)
            assert len(values) == n // m + 1
            for nu, d in enumerate(values):
                size = m * nu + 1
                matrix = np.column_stack([np.ones(size)] + [row[:size] for row in g[:m * nu]])
                exact = float(exact_first_unknown(matrix, rhs[:size]))
                assert abs(d - exact) <= math.ulp(exact)
                exact_hits += d == exact
                total += 1
            # g_1 vanishing at sample 0 breaks step 0: only window 0 is left.
            g[0, 0] = 0.0
            assert dtransform._fs_sweep(g, rhs, m) == [rhs[0]]
        assert exact_hits >= 0.9 * total

    def test_batched_sweep_matches_one_system_at_a_time(self):
        # A batch gives every system the D list it gets alone, also when
        # a zero or an infinity planted in g_{p+1} makes systems leave at
        # different steps while the others go on.
        rng = np.random.default_rng(5)
        lengths = set()
        for trial in range(30):
            m = int(rng.integers(1, 4))
            n = m * int(rng.integers(1, 5))
            count = int(rng.integers(2, 6))
            x = np.sort(rng.uniform(1.0, 30.0, (count, 1, n + 1)), axis=-1)
            g = x ** (1 - np.arange(n)[:, None] // m) * rng.uniform(0.5, 2.0, (count, n, n + 1))
            rhs = rng.standard_normal((count, n + 1))
            for system in rng.choice(count, int(rng.integers(0, count + 1)), replace=False):
                g[system, rng.integers(0, n), rng.integers(0, n + 1)] = rng.choice([0.0, np.inf])
            with np.errstate(all="ignore"):
                alone = [dtransform._fs_sweep(g[i], rhs[i], m) for i in range(count)]
                assert dtransform._fs_sweep(g, rhs, m) == alone
                assert dtransform._fs_sweep(g.reshape(1, count, n, n + 1),
                                            rhs.reshape(1, count, n + 1), m) == alone
            lengths.update((len(values), n // m + 1) for values in alone)
        # Systems left at step 0, at later steps, and some ran to the end.
        assert {1, 2} < {done for done, full in lengths if done < full}
        assert any(done == full for done, full in lengths)

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            solve_vector(np.zeros((0, 0)), np.zeros(0))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularSystemError):
            solve([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])
        with pytest.raises(SingularSystemError):
            solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])


class TestDSequence:
    def test_first_entry_is_first_sample(self):
        table = demo_table()
        from dmint.quad import cumulative, grid_from_descriptor
        from dmint.exprtaylor import evaluate, parse
        node = parse("sinc(x)^2")
        grid = grid_from_descriptor("linear:1.6", 31)
        cum = cumulative(lambda t: evaluate(node, t), grid, 16)
        assert table.entries[0].d_value == cum.F[0]
        assert table.entries[0].f_value == cum.F[0]

    def test_demo_window_three(self):
        table = demo_table()
        assert table.entries[3].d_error == pytest.approx(1.69e-4, rel=0.05)

    def test_extrapolation_beats_plain_tail(self):
        for source, grid, ref in (("sinc(x)^2", "linear:1.6", PI_HALF),
                                  ("sinc(x^2)^2", "sqrtlinear:1.6", PHI_REF)):
            table = d_sequence(source, grid, 3, 10, reference=ref)
            for entry in table.entries[2:]:
                assert entry.d_error < entry.f_error

    def test_exponent_modes_agree(self):
        friendly = demo_table()
        rho = demo_table(exponents=(1, 0, 1))
        assert friendly.entries[10].d_value == pytest.approx(PI_HALF, abs=1e-9)
        assert rho.entries[10].d_value == pytest.approx(PI_HALF, abs=1e-9)
        e_f, e_r = friendly.entries[10].d_error, rho.entries[10].d_error
        assert max(e_f / e_r, e_r / e_f) <= 100.0

    def test_zero_integrand_fails_loudly(self):
        with pytest.raises(SingularSystemError) as info:
            d_sequence("0", "linear:1.0", 2, 3)
        assert info.value.nu == 1

    @pytest.mark.parametrize("source, grid, m, nu_max, exponents, j", [
        ("sinc(x)^2", "linear:1.6", 3, 10, None, 0),
        ("sinc(x^2)^2", "sqrtlinear:1.6", 3, 10, (1, 0, 1), 2),
        ("exp(-x)", "linear:1.0", 1, 12, None, 0),
        ("cos(x)/(1+x^2)", "linear:1.6", 2, 7, (2, -1), 1),
        ("sinc(x^2)^2", "sqrtlinear:1.6", 3, 10, None, 0),
    ])
    def test_windows_are_those_of_build_system(self, source, grid, m, nu_max,
                                               exponents, j):
        # Every window on its own, assembled by build_system: the sweep's D
        # is its exact solution, rounded (the demo windows of f and phi
        # among them).
        table = d_sequence(source, grid, m, nu_max, exponents=exponents, j=j)
        rows = sample_rows(source, table.grid, m)
        assert len(table.entries) == nu_max + 1
        for nu, entry in enumerate(table.entries):
            spec = DSystemSpec(m, j, (nu,) * m, table.exponents)
            assert_exactly_rounded(entry.d_value, *build_system(spec, rows[j: j + spec.N + 1]))

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
        spec = DSystemSpec(3, 0, (nu,) * 3, table.exponents)
        assert_exactly_rounded(table.entries[nu].d_value,
                               *build_system(spec, rows[:spec.N + 1]))

    @pytest.mark.parametrize("source, grid, m, nu_max, nu, text", [
        ("0", "linear:1.0", 2, 3, 1, "matrix has a zero or non-finite column"),
    ])
    def test_smallest_singular_window_raises(self, source, grid, m, nu_max, nu, text):
        # The error is that of the first window that fails on its own.
        with pytest.raises(SingularSystemError) as info:
            d_sequence(source, grid, m, nu_max)
        assert info.value.nu == nu
        assert str(info.value) == "window nu=%d: %s" % (nu, text)
        rows = sample_rows(source, grid_from_descriptor(grid, m * nu_max + 1), m)
        spec = DSystemSpec(m, 0, (nu,) * m, friendly_exponents(m))
        with pytest.raises(SingularSystemError, match="^%s$" % text):
            solve(*build_system(spec, rows[:spec.N + 1]))

    @pytest.mark.parametrize("m, nu_max, nu", [(2, 30, 27), (3, 30, 20), (4, 30, 15), (3, 25, 20)])
    def test_exp_cos_windows_are_regular(self, m, nu_max, nu):
        # Exact elimination finds these windows regular, with exact D
        # 0.5 + 2.2e-16; every window of the sequence is solved.
        table = d_sequence("exp(-x)*cos(x)", "linear:1.0", m, nu_max)
        assert len(table.entries) == nu_max + 1
        assert abs(table.entries[nu].d_value - 0.5) <= 1e-12

    def test_vanishing_sample_takes_the_exact_path(self, monkeypatch):
        # (x-2)*exp(-x) vanishes at the grid point x=2, so g_1 has a zero
        # and the sweep stops before its first division: every window
        # from nu=1 on is solved by exact elimination.
        exact_calls = []
        real_exact = dtransform._exact_d

        def recording_exact(matrix, rhs):
            exact_calls.append(len(rhs))
            return real_exact(matrix, rhs)

        monkeypatch.setattr(dtransform, "_exact_d", recording_exact)
        grid = grid_from_descriptor("linear:1.0", 13)
        assert grid.points[1] == 2.0
        for m in (1, 2):
            exact_calls.clear()
            table = d_sequence("(x-2)*exp(-x)", grid, m, 6)
            assert exact_calls == [m * nu + 1 for nu in range(1, 7)]
            rows = sample_rows("(x-2)*exp(-x)", grid, m)
            for nu, entry in enumerate(table.entries[1:], 1):
                spec = DSystemSpec(m, 0, (nu,) * m, friendly_exponents(m))
                exact = exact_first_unknown(*build_system(spec, rows[:spec.N + 1]))
                assert entry.d_value == float(exact)
                if m == 1:
                    # The row at x=2 reads F(2) = D.
                    assert entry.d_value == rows[1].F
                elif nu >= 2:
                    # The model is exact from nu=2: D is the integral, -1.
                    assert abs(entry.d_value + 1.0) <= 2 * math.ulp(1.0)
        assert table.entries[5].d_value == -1.0

    def test_one_assembly_per_sequence(self, monkeypatch):
        specs = []
        real_build = dtransform.build_system

        def recording_build(spec, samples):
            specs.append(spec)
            return real_build(spec, samples)

        monkeypatch.setattr(dtransform, "build_system", recording_build)
        d_sequence("sinc(x)^2", "linear:1.6", 3, 10)
        assert specs == [DSystemSpec(3, 0, (10, 10, 10), (1, 2, 3))]

    def test_mixed_batch_matches_one_member_at_a_time(self):
        # f, phi and an integrand whose sweep breaks at step 0, in one call.
        members = [("sinc(x)^2", "linear:1.6", PI_HALF),
                   ("sinc(x^2)^2", "sqrtlinear:1.6", PHI_REF),
                   ("(x-2)*exp(-x)", "linear:1.0", None)]
        tables = d_sequences(members, 3, 10)
        assert len(tables) == len(members)
        for (source, grid, reference), table in zip(members, tables):
            alone = d_sequence(source, grid, 3, 10, reference=reference)
            assert [(e.d_value.hex(), e.f_value.hex()) for e in table.entries] == \
                [(e.d_value.hex(), e.f_value.hex()) for e in alone.entries]
            assert table == alone

    def test_batch_raises_the_single_members_error(self):
        with pytest.raises(SingularSystemError) as alone:
            d_sequence("0", "linear:1.0", 3, 10)
        with pytest.raises(SingularSystemError) as batched:
            d_sequences([("sinc(x)^2", "linear:1.6", PI_HALF), ("0", "linear:1.0", None)], 3, 10)
        assert str(batched.value) == str(alone.value)
        assert batched.value.nu == alone.value.nu == 1

    def test_empty_batch(self):
        assert d_sequences([], 3, 10) == []

    def test_singular_window_keeps_its_number_and_text(self):
        # The integrand vanishes at x=2 and x=3, so from nu=2 two rows read
        # D = F(2) and D = F(3): the exact elimination finds it singular.
        with pytest.raises(SingularSystemError) as info:
            d_sequence("(x-2)*(x-3)*exp(-x)", "linear:1.0", 1, 5)
        assert info.value.nu == 2
        assert str(info.value) == "window nu=2: matrix is singular"

    def test_m_checked_before_sampling(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(dtransform, "cumulative", no_quadrature)
        for m in (0, -1):
            with pytest.raises(ValueError, match="^m must be at least 1$"):
                d_sequence("exp(-x)", "linear:1.0", m, 3)
        with pytest.raises(ValueError, match="^the start index j must be non-negative$"):
            d_sequence("exp(-x)", "linear:1.0", 1, 3, j=-1)

    def test_exponent_count_checked_before_sampling(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(dtransform, "cumulative", no_quadrature)
        with pytest.raises(ValueError, match="^need 2 exponents, got 3$"):
            d_sequence("exp(-x)", "linear:1.0", 2, 3, exponents=(1, 2, 3))
        with pytest.raises(ValueError, match="^nu_max must be non-negative$"):
            d_sequence("exp(-x)", "linear:1.0", 2, -1)

    @pytest.mark.parametrize("source, grid, m, j", [
        ("sinc(x)^2", "linear:1.6", 3, 0),
        ("x^(1/2)*exp(-x)", "sqrtlinear:2", 2, 2),
        ("exp(-x)", "linear:1.0", 1, 0),
    ])
    def test_one_derivatives_call_per_sequence(self, monkeypatch, source, grid, m, j):
        calls = []

        def counting(ast, x0, count):
            calls.append((np.shape(x0), count))
            return derivatives(ast, x0, count)

        monkeypatch.setattr(dtransform, "derivatives", counting)
        table = d_sequence(source, grid, m, 4, j=j)
        assert calls == [((len(table.grid.points),), m)]

    def test_failing_sample_point_named_as_point_by_point(self):
        # The array walk fails first in 1/(x-3.2); the first grid point
        # to fail is x = 1.6, in 1/(x-1.6).
        with pytest.raises(ExprDomainError, match="^division by zero in '1/\\(x-1.6\\)'$"):
            d_sequence("1/(x-3.2)+1/(x-1.6)", "linear:1.6", 2, 2)

    def test_grid_length_guard(self):
        from dmint.quad import grid_from_descriptor
        short = grid_from_descriptor("linear:1.6", 5)
        with pytest.raises(ValueError):
            d_sequence("sinc(x)^2", short, 3, 10)

    def test_nonzero_start_index(self):
        table = d_sequence("sinc(x)^2", "linear:1.6", 3, 3, j=2, reference=PI_HALF)
        assert table.entries[3].d_error < 1e-2


class TestOutputFormats:
    def test_csv_json_numeric_equivalence(self):
        table = demo_table()
        rows = list(csv.DictReader(io.StringIO(table.to_csv())))
        records = table.to_json_obj()["entries"]
        assert len(rows) == len(records) == 11
        for row, record in zip(rows, records):
            assert int(row["nu"]) == record["nu"]
            assert float(row["F_error"]) == record["F_error"]
            assert float(row["D_error"]) == record["D_error"]
            assert float(row["D_value"]) == record["D_value"]
            assert float(row["F_value"]) == record["F_value"]
        assert table.to_csv().startswith("nu,F_error,D_error,D_value,F_value\n")
        assert list(records[0]) == ["nu", "F_error", "D_error", "D_value", "F_value"]

    def test_errors_blank_without_reference(self):
        table = d_sequence("sinc(x)^2", "linear:1.6", 3, 2)
        rows = list(csv.DictReader(io.StringIO(table.to_csv())))
        assert all(row["F_error"] == "" and row["D_error"] == "" for row in rows)
        assert all(r["F_error"] is None for r in table.to_json_obj()["entries"])
