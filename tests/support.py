"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction

from dmint.compose import OdeCoefficients
from dmint.symseries import GeneralizedPolynomial, GeneralizedRational


def random_int_poly(rng, degree, coeff_range=3):
    """Dense integer polynomial of exactly the given degree."""
    lead = rng.choice([c for c in range(-coeff_range, coeff_range + 1) if c])
    terms = {degree: lead}
    for n in range(degree):
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[n] = c
    return GeneralizedPolynomial(terms)


def random_rational(rng, max_degree=4, half_grid=False):
    num_deg = rng.randint(0, max_degree)
    den_deg = rng.randint(0, max_degree)
    num = random_int_poly(rng, num_deg)
    den = random_int_poly(rng, den_deg)
    if half_grid:
        # Move the numerator onto the 1/2 grid with at least one odd exponent.
        shifted = {2 * n + rng.randint(0, 1): c for n, c in num.terms.items()}
        shifted[2 * num_deg + 1] = 1
        num = GeneralizedPolynomial(shifted, 2)
    return GeneralizedRational(num, den)


def random_bm_instance(rng, m, s):
    """A class-B coefficient list (orders forced <= k) and a degree-s g."""
    coefficients = []
    for k in range(1, m + 1):
        if k < m and rng.random() < 0.25:
            coefficients.append(None)
            continue
        den_deg = rng.randint(0, 2)
        ik = rng.randint(max(-den_deg, k - 3), k)
        num_deg = den_deg + ik
        coefficients.append(GeneralizedRational(random_int_poly(rng, num_deg),
                                                random_int_poly(rng, den_deg)))
    g_terms = {s: rng.randint(1, 3)}
    for n in range(s):
        c = rng.randint(-3, 3)
        if c:
            g_terms[n] = c
    return OdeCoefficients(coefficients), GeneralizedPolynomial(g_terms)


def partitions_by_block_count(n: int) -> dict[int, int]:
    """Count the set partitions of {1..n} by number of blocks.

    Independent of any Bell-polynomial code: partitions are built
    element by element and counted at the leaves.
    """
    counts: dict[int, int] = {}

    def place(element: int, blocks: list[list[int]]):
        if element > n:
            counts[len(blocks)] = counts.get(len(blocks), 0) + 1
            return
        for block in blocks:
            block.append(element)
            place(element + 1, blocks)
            block.pop()
        blocks.append([element])
        place(element + 1, blocks)
        blocks.pop()

    place(1, [])
    return counts


def fd5_first(f, x: float, h: float) -> float:
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def fd5_second(f, x: float, h: float) -> float:
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-14) -> float:
    """Nested-interval adaptive Simpson quadrature."""

    def simpson(lo, flo, hi, fhi, mid, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, hi, fhi, mid, fmid, whole, eps, depth):
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid, frmid = f(lmid), f(rmid)
        left = simpson(lo, flo, mid, fmid, lmid, flmid)
        right = simpson(mid, fmid, hi, fhi, rmid, frmid)
        if depth > 60 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, flo, mid, fmid, lmid, flmid, left, eps / 2.0, depth + 1)
                + recurse(mid, fmid, hi, fhi, rmid, frmid, right, eps / 2.0, depth + 1))

    mid = 0.5 * (a + b)
    fa, fb, fmid = f(a), f(b), f(mid)
    whole = simpson(a, fa, b, fb, mid, fmid)
    return recurse(a, fa, b, fb, mid, fmid, whole, tol, 0)


def exact_poly_derivatives(coeffs: list[Fraction], x0: Fraction, count: int) -> list[Fraction]:
    """Derivatives of sum c_i x**i at x0 by the falling-factorial rule."""
    out = []
    for k in range(count):
        total = Fraction(0)
        for i, c in enumerate(coeffs):
            if i < k:
                continue
            falling = 1
            for j in range(k):
                falling *= i - j
            total += c * falling * x0 ** (i - k)
        out.append(total)
    return out


def exact_first_unknown(matrix, rhs) -> Fraction | None:
    """The first unknown of matrix x = rhs in exact rational arithmetic.

    Each float entry is taken at its exact binary value; Gauss elimination
    over Fractions, pivoting on the first non-zero entry of each column,
    then back substitution.  None when the matrix is exactly singular.
    """
    rows = [[Fraction(float(v)) for v in row] + [Fraction(float(b))]
            for row, b in zip(matrix, rhs)]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for row in rows[col + 1:]:
            factor = row[col] / top[col]
            if factor:
                for k in range(col, n + 1):
                    row[k] -= factor * top[k]
    x = [Fraction(0)] * n
    for col in range(n - 1, -1, -1):
        tail = sum((rows[col][k] * x[k] for k in range(col + 1, n)), Fraction(0))
        x[col] = (rows[col][n] - tail) / rows[col][col]
    return x[0]
