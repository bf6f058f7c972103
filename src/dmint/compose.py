"""Change of variable for linear ODE coefficient systems.

A function satisfying f(x) = sum_k p_k(x) f^(k)(x) composed with a
polynomial-like g yields phi = f(g(x)) satisfying an equation of the same
order, phi = sum_k pi_k(x) phi^(k)(x).  Writing L[n,k] for the partial
(incomplete) Bell polynomial B_{n,k}(g', g'', ..., g^(n-k+1)), where

    B_{n,k}(y_1, ..., y_{n-k+1}) = sum n!/prod(j_i!) * prod((y_i/i!)**j_i)

over the non-negative multi-indices j with sum(j_i) == k and
sum(i*j_i) == n, the new coefficients solve the upper triangular system

    p_k(g(x)) = sum_{n=k..m} pi_n(x) * L[n,k](x),   k = 1..m,

whose diagonal L[k,k] = (g')**k is invertible, so back-substitution from
k = m down to k = 1 produces the pi_k exactly.  Alongside the transform
this module computes the exact asymptotic order of pi_m, recursive and
closed bounds for the remaining orders, and the tail-expansion exponent
bounds used by the integral acceleration code.  One rule gives the
integer order of every p_k, pi_k and f/f': a function lies in A^(i) when
its leading exponent is the integer i and its expansion at infinity steps
down in whole powers of x, both read exactly from the canonical pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .symseries import (
    GeneralizedPolynomial,
    GeneralizedRational,
    compose_poly,
    substitution_polynomial,
)


def l_matrix(g: GeneralizedPolynomial, m: int) -> dict[tuple[int, int], GeneralizedPolynomial]:
    """Table L[n,k] = B_{n,k}(g', g'', ..., g^(n-k+1)) for 1 <= k <= n <= m.

    g must pass :func:`dmint.symseries.substitution_polynomial`, which
    also asks for degree >= 1.  The entries are polynomials from the
    recurrence that the chain rule gives for the derivatives of f(g(x)),
    not from the enumeration of B_{n,k}, and equal B_{n,k} at the
    derivatives of g exactly.  The diagonal satisfies L[k,k] = (g')**k.
    Raises SizeBudgetError for work beyond the size budget.
    """
    g = substitution_polynomial(g)
    if m < 1:
        raise ValueError("m must be at least 1")
    # Differentiating f(g)^(n) = sum_k f^(k)(g) L[n,k] once more gives
    # L[n+1,k] = L[n,k]' + g' L[n,k-1], from L[0,0] = 1.
    gprime, zero = g.derivative(), GeneralizedPolynomial.zero()
    row, table = [GeneralizedPolynomial.one()], {}
    for n in range(1, m + 1):
        row = [zero] + [(row[k].derivative() if k < n else zero) + gprime * row[k - 1]
                        for k in range(1, n + 1)]
        table.update({(n, k): row[k] for k in range(1, n + 1)})
    return table


def _integer_order(a: GeneralizedRational) -> int | None:
    """The i with a non-zero ``a`` in A^(i), or None when there is none."""
    gamma = a.lead_exponent
    if gamma.denominator != 1 or not a.integer_step:
        return None
    return int(gamma)


class OdeCoefficients:
    """Coefficients p_1..p_m of f = sum p_k f^(k), with their integer orders.

    ``p[k-1]`` is either None (identically zero) or a GeneralizedRational;
    ``i[k-1]`` is the exact leading exponent of p_k when present.  p_m must
    be non-zero, and every non-zero p_k must have an integer-step expansion
    with integer leading exponent.
    """

    __slots__ = ("p", "i")

    def __init__(self, coefficients):
        p: list[GeneralizedRational | None] = []
        for entry in coefficients:
            if entry is None:
                p.append(None)
            elif isinstance(entry, GeneralizedRational):
                p.append(None if entry.is_zero else entry)
            else:
                raise TypeError("coefficients must be GeneralizedRational or None")
        if not p:
            raise ValueError("at least one coefficient is required")
        if p[-1] is None:
            raise ValueError("the highest-order coefficient p_m must be non-zero")
        orders: list[int | None] = []
        for k, pk in enumerate(p, start=1):
            if pk is None:
                orders.append(None)
                continue
            order = _integer_order(pk)
            if order is None:
                raise ValueError(
                    "p_%d must have an integer-step expansion with integer "
                    "leading exponent, got leading exponent %s" % (k, pk.lead_exponent))
            orders.append(order)
        self.p = tuple(p)
        self.i = tuple(orders)

    @property
    def m(self) -> int:
        return len(self.p)


class CompositionResult(NamedTuple):
    """Composed coefficients pi_1..pi_m with exact orders and bounds.

    ``pi[k-1]`` is None when pi_k vanishes identically (decided by exact
    canonicalization, never numerically); ``r[k-1]`` is the exact integer
    leading exponent of a non-zero pi_k.  The closed bound on r_k is k plus
    the largest s*(i_n - n) over the non-zero p_n with n >= k; at k = m it
    is r_m = s*(i_m - m) + m, which pi_m attains.  The recursive bound
    starts there, and for k < m it is

        max{s*(i_k - k), rbar_{k+1} - (k+1), ..., rbar_m - m} + k

    where the first term is absent when p_k vanishes and rbar_n - n is
    absent when pi_n vanishes; it is None where pi_k vanishes.
    """

    pi: tuple[GeneralizedRational | None, ...]
    r: tuple[int | None, ...]
    r_bound_recursive: tuple[int | None, ...]
    r_bound_closed: tuple[int, ...]
    s: int


def compose_ode(ode: OdeCoefficients, g) -> CompositionResult:
    """Solve the triangular system for the coefficients of f(g(x)).

    Back-substitution runs k = m, m-1, ..., 1:

        pi_m = p_m(g) / (g')**m
        pi_k = (p_k(g) - sum_{n>k} pi_n L[n,k]) / L[k,k]

    with every step exact over generalized rationals.  Raises
    SizeBudgetError for work beyond the size budget.
    """
    g = substitution_polynomial(g)
    m = ode.m
    s = int(g.lead_exponent)
    table = l_matrix(g, m)
    pi: list[GeneralizedRational | None] = [None] * m
    for k in range(m, 0, -1):
        pk = ode.p[k - 1]
        acc = GeneralizedRational.zero() if pk is None else compose_poly(pk, g)
        for n in range(k + 1, m + 1):
            if pi[n - 1] is not None:
                acc = acc - pi[n - 1] * table[(n, k)]
        value = acc / table[(k, k)]
        pi[k - 1] = None if value.is_zero else value
    orders: list[int | None] = []
    for k, pik in enumerate(pi, start=1):
        order = None if pik is None else _integer_order(pik)
        if pik is not None and order is None:
            raise AssertionError("composed coefficient pi_%d has non-integer order" % k)
        orders.append(order)
    closed = _closed_bounds(ode, s)
    recursive: list[int | None] = [None] * m
    recursive[m - 1] = closed[m - 1]
    for k in range(m - 1, 0, -1):
        if pi[k - 1] is None:
            continue
        candidates = [recursive[n - 1] - n for n in range(k + 1, m + 1) if pi[n - 1] is not None]
        if ode.p[k - 1] is not None:
            candidates.append(s * (ode.i[k - 1] - k))
        recursive[k - 1] = max(candidates) + k
    return CompositionResult(tuple(pi), tuple(orders), tuple(recursive), closed, s)


def _closed_bounds(ode: OdeCoefficients, s: int) -> tuple[int, ...]:
    """For k = 1..m, k plus the largest s*(i_n - n) over the non-zero p_n
    with n >= k."""
    return tuple(k + max(s * (ode.i[n - 1] - n)
                         for n in range(k, ode.m + 1) if ode.p[n - 1] is not None)
                 for k in range(1, ode.m + 1))


def rho_bounds(ode: OdeCoefficients) -> tuple[int, ...]:
    """Upper bounds for the tail-expansion exponents of int_x^inf f.

    rhobar_k is k plus the largest i_n - n over the non-zero p_n with
    n >= k: the closed bounds at s = 1, so rhobar_k <= k in class B.
    Kept public because the README names it as the source of the
    ``--exponents rho:`` lists that ``accelerate`` takes.
    """
    return _closed_bounds(ode, 1)


class B1Report(NamedTuple):
    """Outcome of the first-order membership test for a rational function."""

    p1: GeneralizedRational
    gamma: Fraction
    integer_step: bool
    member: bool


def verify_b1_membership(f: GeneralizedRational) -> B1Report:
    """Check whether f = p_1 f' admits an admissible order-1 coefficient.

    p_1 = f/f' is computed exactly; membership requires p_1 to have an
    integer-step expansion with integer leading exponent at most 1.
    Raises SizeBudgetError for work beyond the size budget.
    """
    if f.is_zero:
        raise ValueError("the zero function is excluded")
    fprime = f.derivative()
    if fprime.is_zero:
        raise ValueError("constant functions have no order-1 coefficient")
    p1 = f / fprime
    order = _integer_order(p1)
    return B1Report(p1, p1.lead_exponent, p1.integer_step,
                    order is not None and order <= 1)
