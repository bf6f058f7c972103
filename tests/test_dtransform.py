import csv
import io
import math
import random

import numpy as np
import pytest

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

from dmint.dtransform import _WIDE

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
