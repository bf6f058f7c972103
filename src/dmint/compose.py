"""Change of variable for linear ODE coefficient systems.

A function satisfying f(x) = sum_k p_k(x) f^(k)(x) composed with a
polynomial-like g yields phi = f(g(x)) satisfying an equation of the same
order, phi = sum_k pi_k(x) phi^(k)(x).  Writing L[n,k] for the Bell
polynomial of the derivatives of g, the new coefficients solve the upper
triangular system

    p_k(g(x)) = sum_{n=k..m} pi_n(x) * L[n,k](x),   k = 1..m,

whose diagonal L[k,k] = (g')**k is invertible, so back-substitution from
k = m down to k = 1 produces the pi_k exactly.  Alongside the transform
this module computes the exact asymptotic order of pi_m, recursive and
closed bounds for the remaining orders, and the tail-expansion exponent
bounds used by the integral acceleration code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bell import l_matrix
from .symseries import (
    GeneralizedRational,
    compose_poly,
    profile,
    substitution_polynomial,
)


class OdeCoefficients:
    """Coefficients p_1..p_m of f = sum p_k f^(k), with their integer orders.

    ``p[k-1]`` is either None (identically zero) or a GeneralizedRational;
    ``i[k-1]`` is the exact leading exponent of p_k when present.  p_m must
    be non-zero, and every non-zero p_k must have an integer-step expansion
    with integer leading exponent.  ``is_class_b`` reports whether i_k <= k
    holds for all non-zero coefficients.
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
            info = profile(pk)
            if not info.integer_step or info.gamma.denominator != 1:
                raise ValueError(
                    "p_%d must have an integer-step expansion with integer "
                    "leading exponent, got leading exponent %s" % (k, info.gamma))
            orders.append(int(info.gamma))
        self.p = tuple(p)
        self.i = tuple(orders)

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def is_class_b(self) -> bool:
        return all(ik <= k for k, ik in enumerate(self.i, start=1) if ik is not None)

    def __repr__(self):
        return "OdeCoefficients(m=%d, i=%r)" % (self.m, self.i)


@dataclass(frozen=True)
class OrderBounds:
    """Exact top order plus the two bound families for the composed system."""

    r_m: int
    recursive: tuple[int | None, ...]
    closed: tuple[int, ...]


@dataclass(frozen=True)
class CompositionResult:
    """Composed coefficients pi_1..pi_m with exact orders and bounds.

    ``pi[k-1]`` is None when pi_k vanishes identically (decided by exact
    canonicalization, never numerically); ``r[k-1]`` is the exact integer
    leading exponent of a non-zero pi_k.
    """

    pi: tuple[GeneralizedRational | None, ...]
    r: tuple[int | None, ...]
    r_bound_recursive: tuple[int | None, ...]
    r_bound_closed: tuple[int, ...]
    s: int

    @property
    def m(self) -> int:
        return len(self.pi)


def compose_ode(ode: OdeCoefficients, g) -> CompositionResult:
    """Solve the triangular system for the coefficients of f(g(x)).

    Back-substitution runs k = m, m-1, ..., 1:

        pi_m = p_m(g) / (g')**m
        pi_k = (p_k(g) - sum_{n>k} pi_n L[n,k]) / L[k,k]

    with every step exact over generalized rationals.
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
        if pik is None:
            orders.append(None)
            continue
        gamma = pik.lead_exponent
        if gamma.denominator != 1:
            raise AssertionError("composed coefficient pi_%d has non-integer order" % k)
        orders.append(int(gamma))
    bounds = order_bounds(ode, s, [pik is None for pik in pi])
    return CompositionResult(tuple(pi), tuple(orders),
                             bounds.recursive, bounds.closed, s)


def order_bounds(ode: OdeCoefficients, s: int, pi_is_zero) -> OrderBounds:
    """Exact r_m and the two bound families for the composed orders.

    r_m = s*(i_m - m) + m always.  The recursive bound for k < m is
    max{s*(i_k - k), rbar_{k+1} - (k+1), ..., rbar_m - m} + k where the
    first term is absent when p_k vanishes and rbar_n - n is absent when
    pi_n vanishes.  The closed bound is max over n >= k with p_n non-zero
    of s*(i_n - n), plus k.
    """
    m = ode.m
    pi_is_zero = list(pi_is_zero)
    if len(pi_is_zero) != m:
        raise ValueError("pi zero pattern must have length m")
    if pi_is_zero[-1]:
        raise ValueError("pi_m never vanishes")
    r_m = s * (ode.i[m - 1] - m) + m
    recursive: list[int | None] = [None] * m
    recursive[m - 1] = r_m
    for k in range(m - 1, 0, -1):
        candidates = []
        if ode.p[k - 1] is not None:
            candidates.append(s * (ode.i[k - 1] - k))
        for n in range(k + 1, m + 1):
            if not pi_is_zero[n - 1]:
                candidates.append(recursive[n - 1] - n)
        recursive[k - 1] = max(candidates) + k if not pi_is_zero[k - 1] else None
    closed: list[int] = []
    for k in range(1, m + 1):
        best = max(s * (ode.i[n - 1] - n)
                   for n in range(k, m + 1) if ode.p[n - 1] is not None)
        closed.append(best + k)
    return OrderBounds(r_m, tuple(recursive), tuple(closed))


def rho_bounds(ode: OdeCoefficients) -> tuple[int, ...]:
    """Upper bounds for the tail-expansion exponents of int_x^inf f.

    rhobar_k = max over n in k+1..m with p_n non-zero of (i_n - n), plus
    k + 1; for a class-B system this never exceeds k + 1.
    """
    m = ode.m
    out = []
    for k in range(m):
        best = max(ode.i[n - 1] - n
                   for n in range(k + 1, m + 1) if ode.p[n - 1] is not None)
        out.append(best + k + 1)
    if ode.is_class_b:
        assert all(out[k] <= k + 1 for k in range(m))
    return tuple(out)


@dataclass(frozen=True)
class B1Report:
    """Outcome of the first-order membership test for a rational function."""

    p1: GeneralizedRational
    gamma: Fraction
    integer_step: bool
    member: bool


def verify_b1_membership(f: GeneralizedRational) -> B1Report:
    """Check whether f = p_1 f' admits an admissible order-1 coefficient.

    p_1 = f/f' is computed exactly; membership requires p_1 to have an
    integer-step expansion with integer leading exponent at most 1.
    """
    if f.is_zero:
        raise ValueError("the zero function is excluded")
    fprime = f.derivative()
    if fprime.is_zero:
        raise ValueError("constant functions have no order-1 coefficient")
    p1 = f / fprime
    info = profile(p1)
    member = (info.integer_step and info.gamma.denominator == 1
              and info.gamma <= 1)
    return B1Report(p1, info.gamma, info.integer_step, member)
