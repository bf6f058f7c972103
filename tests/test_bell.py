import random
from fractions import Fraction

import pytest

from dmint.compose import l_matrix
from dmint.symseries import GeneralizedPolynomial, GeneralizedRational

from support import bell_eval, enumerate_indices, random_int_poly


class TestEnumeration:
    def test_examples(self):
        assert [idx.j for idx in enumerate_indices(3, 2)] == [(1, 1)]
        assert [idx.j for idx in enumerate_indices(4, 2)] == [(0, 2, 0), (1, 0, 1)]
        for n in range(1, 7):
            assert [idx.j for idx in enumerate_indices(n, n)] == [(n,)]

    def test_invalid_arguments(self):
        for n, k in ((0, 0), (3, 0), (2, 3), (-1, 1)):
            with pytest.raises(ValueError):
                enumerate_indices(n, k)


class TestBellEval:
    def test_last_argument_identity(self):
        rng = random.Random(0)
        for n in range(1, 7):
            y = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            assert bell_eval(n, 1, y) == y[-1]

    def test_diagonal_power(self):
        for n in range(1, 7):
            assert bell_eval(n, n, [Fraction(3)]) == Fraction(3) ** n

    def test_small_closed_form(self):
        y1, y2 = Fraction(2), Fraction(7)
        assert bell_eval(3, 2, [y1, y2]) == 3 * y1 * y2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bell_eval(4, 2, [1.0, 2.0])

    def test_numeric_and_symbolic_agree(self):
        rng = random.Random(1)
        for n in range(1, 6):
            for k in range(1, n + 1):
                y_exact = [Fraction(rng.randint(-4, 4)) for _ in range(n - k + 1)]
                exact = bell_eval(n, k, y_exact)
                approx = bell_eval(n, k, [float(v) for v in y_exact])
                assert approx == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


class TestLMatrix:
    def test_matches_bell_eval_at_the_derivatives(self):
        # Trial 0 is g = x^s, so L for g = x^2 is among the tables, and
        # B_{k,k}(g') = g'^k makes each diagonal the power of g'.
        rng = random.Random(4)
        for s in (1, 2, 3):
            for trial in range(4):
                g = GeneralizedPolynomial({s: 1}) if trial == 0 else random_int_poly(rng, s)
                if g.lead_coefficient < 0:
                    g = g.scaled(-1)
                derivs = [GeneralizedRational(g).derivative()]
                while len(derivs) < 8:
                    derivs.append(derivs[-1].derivative())
                table = l_matrix(g, 8)
                assert sorted(table) == [(n, k) for n in range(1, 9) for k in range(1, n + 1)]
                for (n, k), value in table.items():
                    assert type(value) is GeneralizedPolynomial
                    assert value == bell_eval(n, k, derivs[: n - k + 1])

    def test_rejects_bad_g(self):
        with pytest.raises(ValueError):
            l_matrix(GeneralizedPolynomial({0: 1}), 2)  # constant
        with pytest.raises(ValueError):
            l_matrix(GeneralizedPolynomial({2: -1}), 2)  # negative lead
        with pytest.raises(ValueError):
            l_matrix(GeneralizedPolynomial({1: 1}, 2), 2)  # half grid
