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
    friendly_exponents,
    solve,
    solve_vector,
)

from dmint.dtransform import _PIVOT_FLOOR, _WIDE
from dmint.exprtaylor import ExprDomainError, derivatives, evaluate, parse
from dmint.quad import cumulative, grid_from_descriptor

PI_HALF = math.pi / 2
PHI_REF = 2 * math.sqrt(math.pi) / 3


def element_loop_system(spec, samples):
    """Reference assembly: every entry on its own, x**(e_k-i) * f^(k-1)(x)."""
    size = spec.N + 1
    matrix = np.zeros((size, size), dtype=_WIDE)
    rhs = np.zeros(size, dtype=_WIDE)
    for row, sample in enumerate(samples):
        matrix[row, 0] = 1.0
        x = _WIDE(sample.x)
        col = 1
        for k in range(1, spec.m + 1):
            base = _WIDE(sample.derivs[k - 1])
            e = spec.exponents[k - 1]
            for i in range(spec.n[k - 1]):
                matrix[row, col] = x ** (e - i) * base
                col += 1
        rhs[row] = sample.F
    return matrix, rhs


def two_array_elimination(matrix, rhs):
    """Reference solve: A and b eliminated apart, whole-row swaps, np.outer."""
    a = np.array(matrix, dtype=_WIDE)
    b = np.array(rhs, dtype=_WIDE)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError("need a square system with matching right-hand side")
    n = a.shape[0]
    scale = np.max(np.abs(a), axis=0)
    if np.any(scale == 0.0) or not np.all(np.isfinite(scale)):
        raise SingularSystemError("matrix has a zero or non-finite column")
    work = a / scale
    y = b.copy()
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        pivot = work[pivot_row, col]
        if abs(pivot) < _PIVOT_FLOOR:
            raise SingularSystemError("pivot %g below threshold in column %d"
                                      % (pivot, col))
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            y[[col, pivot_row]] = y[[pivot_row, col]]
        factors = work[col + 1:, col] / pivot
        work[col + 1:, col + 1:] -= np.outer(factors, work[col, col + 1:])
        y[col + 1:] -= factors * y[col]
    solution = np.zeros(n, dtype=_WIDE)
    for col in range(n - 1, -1, -1):
        solution[col] = (y[col] - work[col, col + 1:] @ solution[col + 1:]) / work[col, col]
    solution /= scale
    if not np.all(np.isfinite(solution)):
        raise SingularSystemError("elimination produced non-finite values")
    residual = float(np.max(np.abs(a @ solution - b))) if n else 0.0
    return solution.astype(float), residual


def assert_same_solve(matrix, rhs):
    """solve_vector gives the reference's exact bits, or its exact error."""
    try:
        expected = two_array_elimination(matrix, rhs)
    except SingularSystemError as exc:
        with pytest.raises(SingularSystemError) as info:
            solve_vector(matrix, rhs)
        assert str(info.value) == str(exc)
        return
    solution, residual = solve_vector(matrix, rhs)
    assert np.array_equal(solution, expected[0])
    assert residual == expected[1]


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
            assert matrix.dtype == rhs.dtype == _WIDE
            # Values, not bytes: the padding of 80-bit longdouble is arbitrary.
            assert np.array_equal(matrix, ref_matrix)
            assert np.array_equal(rhs, ref_rhs)

    def test_sample_count_mismatch(self):
        rows = [SampleRow(1.0, 0.5, (0.1,))]
        with pytest.raises(ValueError):
            build_system(DSystemSpec(1, 0, (1,), (1,)), rows)

    def test_solve_matches_two_array_elimination(self):
        rng = np.random.default_rng(5)
        swaps = 0
        for trial in range(200):
            n = int(rng.integers(1, 40))
            matrix = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8, n)
            if trial % 2:
                # Permuted rows of a diagonally dominant matrix: partial
                # pivoting undoes the permutation by row swaps.
                matrix = (matrix + np.diag(10.0 ** rng.uniform(9, 12, n)))[rng.permutation(n)]
            rhs = rng.standard_normal(n)
            if n > 1 and np.argmax(np.abs(matrix[:, 0])) != 0:
                swaps += 1
            assert_same_solve(matrix, rhs)
        assert swaps > 100

    def test_pivot_off_the_diagonal_in_every_column(self):
        # Row c+1 carries the dominant entry of column c, and row 0 that of
        # the last column; elimination keeps the dominance, so every column
        # but the last takes its pivot from the row below and swaps.
        rng = np.random.default_rng(8)
        for n in (2, 3, 17, 40):
            dominant = rng.standard_normal((n, n)) + np.diag(10.0 ** rng.uniform(9, 12, n))
            matrix = dominant[np.roll(np.arange(n), 1)]
            assert_same_solve(matrix, rng.standard_normal(n))

    def test_singular_messages_match_two_array_elimination(self):
        for matrix in ([[1.0, 1.0], [1.0, 1.0]],          # pivot exactly 0
                       [[1.0, 1.0], [0.0, 1e-305]],       # non-zero, below the floor
                       [[2.0, 1.0, 0.5], [4.0, 2.0, 1.0], [1.0, 3.0, 0.0]],
                       [[1.0, 0.0], [1.0, 0.0]],          # zero column
                       [[1.0, np.inf], [1.0, 2.0]]):      # non-finite column
            with pytest.raises(SingularSystemError):
                two_array_elimination(matrix, [1.0] * len(matrix))
            assert_same_solve(matrix, [1.0] * len(matrix))
        with pytest.raises(SingularSystemError, match="pivot 1e-305 below threshold in column 1"):
            solve_vector([[1.0, 1.0], [0.0, 1e-305]], [1.0, 2.0])

    def test_demo_windows_match_two_array_elimination(self):
        # The demo windows, assembled by build_system on their own: solve
        # gives the reference's bits, and so does d_sequence's batched pass.
        for source, grid, ref in (("sinc(x)^2", "linear:1.6", PI_HALF),
                                  ("sinc(x^2)^2", "sqrtlinear:1.6", PHI_REF)):
            table = d_sequence(source, grid, 3, 10, reference=ref)
            rows = sample_rows(source, table.grid, 3)
            assert len(table.entries) == 11
            for nu, entry in enumerate(table.entries):
                spec = DSystemSpec(3, 0, (nu,) * 3, table.exponents)
                matrix, rhs = build_system(spec, rows[:spec.N + 1])
                assert_same_solve(matrix, rhs)
                solution, residual = two_array_elimination(matrix, rhs)
                assert entry.d_value.hex() == float(solution[0]).hex()
                assert entry.residual.hex() == residual.hex()

    def test_solve_windows_matches_window_by_window(self):
        # Nested windows of one system, as d_sequence's are: leading rows,
        # and column lists that grow by appending (in the system's column
        # order or a drawn one).  Permuted diagonally dominant rows force
        # swaps.  A zero block in rows R and the window's leading p+1
        # columns, |R| = size - p, gives that window pivot exactly 0 in
        # column p; zeroed leading rows of a column make windows whose
        # rows lie inside them vanish.
        rng = np.random.default_rng(17)
        failures = swaps = 0
        for trial in range(120):
            sizes = sorted({int(n) for n in rng.integers(1, 36, rng.integers(1, 7))})
            top = sizes[-1]
            a = rng.standard_normal((top, top)) * 10.0 ** rng.uniform(-6, 6, top)
            if trial % 3 == 1:
                a = (a + np.diag(10.0 ** rng.uniform(8, 11, top)))[rng.permutation(top)]
            order = rng.permutation(top) if trial % 2 else np.arange(top)
            if trial % 3 == 2:
                size = sizes[int(rng.integers(len(sizes)))]
                if size > 1:
                    p = int(rng.integers(1, size))
                    rows = rng.permutation(size)[:size - p]
                    a[np.ix_(rows, order[:p + 1])] = 0.0
                if rng.random() < 0.3:
                    a[:int(rng.integers(1, top + 1)), order[int(rng.integers(top))]] = 0.0
            matrix = np.array(a, dtype=_WIDE)
            rhs = np.array(rng.standard_normal(top), dtype=_WIDE)
            windows = [(n, list(order[:n])) for n in sizes]
            results, failure = dtransform._solve_windows(matrix, rhs, windows)
            expected = []
            for n, cols in windows:
                swaps += n > 1 and np.argmax(np.abs(a[:n, cols[0]])) != 0
                try:
                    expected.append(two_array_elimination(matrix[:n, cols], rhs[:n]))
                except SingularSystemError as exc:
                    expected.append(str(exc))
            failing = [i for i, e in enumerate(expected) if isinstance(e, str)]
            if failing:
                failures += 1
                assert failure == (failing[0], expected[failing[0]])
            else:
                assert failure is None
            assert len(results) == (failing[0] if failing else len(windows))
            for (got, residual), (solution, want) in zip(results, expected):
                assert np.array_equal(got, solution)
                assert residual.hex() == want.hex()
        assert failures > 10 and swaps > 100

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

    def test_residuals_small_and_reliable(self):
        for source, grid, ref in (("sinc(x)^2", "linear:1.6", PI_HALF),
                                  ("sinc(x^2)^2", "sqrtlinear:1.6", PHI_REF)):
            table = d_sequence(source, grid, 3, 10, reference=ref)
            for entry in table.entries:
                assert entry.residual <= 1e-8 * ref
                assert entry.reliable

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
        # Every window on its own: assembled by build_system, solved by
        # the reference elimination, to the bit.
        table = d_sequence(source, grid, m, nu_max, exponents=exponents, j=j)
        rows = sample_rows(source, table.grid, m)
        assert len(table.entries) == nu_max + 1
        for nu, entry in enumerate(table.entries):
            spec = DSystemSpec(m, j, (nu,) * m, table.exponents)
            solution, residual = two_array_elimination(
                *build_system(spec, rows[j: j + spec.N + 1]))
            assert entry.d_value.hex() == float(solution[0]).hex()
            assert entry.residual.hex() == residual.hex()

    @pytest.mark.parametrize("source, grid, m, nu_max, nu, text", [
        ("0", "linear:1.0", 2, 3, 1, "matrix has a zero or non-finite column"),
        ("exp(-x)*cos(x)", "linear:1.0", 2, 30, 27, "pivot 0 below threshold in column 53"),
        ("exp(-x)*cos(x)", "linear:1.0", 3, 30, 20, "pivot 0 below threshold in column 58"),
        ("exp(-x)*cos(x)", "linear:1.0", 4, 30, 15, "pivot 0 below threshold in column 59"),
    ])
    def test_smallest_singular_window_raises(self, source, grid, m, nu_max, nu, text):
        # Larger windows are eliminated alongside; the error is still that
        # of the first window that fails on its own.
        with pytest.raises(SingularSystemError) as info:
            d_sequence(source, grid, m, nu_max)
        assert info.value.nu == nu
        assert str(info.value) == "window nu=%d: %s" % (nu, text)
        rows = sample_rows(source, grid_from_descriptor(grid, m * nu_max + 1), m)
        spec = DSystemSpec(m, 0, (nu,) * m, friendly_exponents(m))
        with pytest.raises(SingularSystemError, match="^%s$" % text):
            two_array_elimination(*build_system(spec, rows[:spec.N + 1]))

    def test_one_assembly_per_sequence(self, monkeypatch):
        specs = []
        real_build = dtransform.build_system

        def recording_build(spec, samples):
            specs.append(spec)
            return real_build(spec, samples)

        monkeypatch.setattr(dtransform, "build_system", recording_build)
        d_sequence("sinc(x)^2", "linear:1.6", 3, 10)
        assert specs == [DSystemSpec(3, 0, (10, 10, 10), (1, 2, 3))]

    def test_singular_window_keeps_its_number_and_text(self):
        with pytest.raises(SingularSystemError) as info:
            d_sequence("exp(-x)*cos(x)", "linear:1.0", 3, 25)
        assert info.value.nu == 20
        assert str(info.value) == "window nu=20: pivot 0 below threshold in column 58"

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
            assert float(row["residual"]) == record["residual"]
            assert float(row["D_value"]) == record["D_value"]
            assert float(row["F_value"]) == record["F_value"]
            assert (row["reliable"] == "yes") == record["reliable"]

    def test_errors_blank_without_reference(self):
        table = d_sequence("sinc(x)^2", "linear:1.6", 3, 2)
        rows = list(csv.DictReader(io.StringIO(table.to_csv())))
        assert all(row["F_error"] == "" and row["D_error"] == "" for row in rows)
        assert all(r["F_error"] is None for r in table.to_json_obj()["entries"])
