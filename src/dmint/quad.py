"""Gauss-Legendre panel quadrature and cumulative finite-range integrals.

The integral from 0 to x_l of an integrand is assembled from panel values
chi_i over [x_{i-1}, x_i] (with x_{-1} = 0), each from the 32-point
Gauss-Legendre rule, then prefix-summed: F(x_l) = chi_0 + ... + chi_l.
The rule is the only one used; its nodes and weights are built once, at
import, by Newton iteration on the Legendre polynomial.  It judges itself:
the same 32 products give the top Legendre coefficients of the panel's
interpolant (a null rule, Berntsen & Espelid, ACM TOMS 17, 1991), and a
panel whose tail is large is bisected once.  The halves are judged by the
same rule, and a panel whose halves still miss it is reported, not refined.

Integrands take an array of nodes and return the array of their values.
:func:`cumulative` calls f once for the nodes of all panels, panel after
panel, and once more for the halves of any panel whose tail is large.
Each panel is still summed on its own with ``math.fsum``, so for an
integrand that acts element by element (as
:func:`dmint.exprtaylor.evaluate` does, bit for bit) the results are
exactly those of integrating panel after panel, node by node.  The rule
names a failure where it finds it, and a failed batch is replayed panel
by panel to name the first failing panel.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np


class QuadratureError(ValueError):
    """A panel the rule cannot sum: its message names the first failing node,
    or the panel whose sum leaves the float range."""


@dataclass(frozen=True, slots=True)
class SampleGrid:
    """Strictly increasing sample points x_0 < x_1 < ... with x_0 > 0.

    The point x_{-1} = 0 is implicit: the first panel is [0, x_0].
    ``descriptor`` records the generator (see :func:`grid_from_descriptor`).
    """

    points: tuple[float, ...]
    descriptor: str = ""

    def __post_init__(self):
        if not self.points:
            raise ValueError("a sample grid needs at least one point")
        if not all(math.isfinite(p) for p in self.points):
            raise ValueError("grid points must be finite")
        if self.points[0] <= 0.0:
            raise ValueError("the first grid point must be positive")
        for a, b in zip(self.points, self.points[1:]):
            if not b > a:
                raise ValueError("grid points must be strictly increasing")


_DESCRIPTOR_RE = re.compile(r"^(linear|sqrtlinear):([-0-9.,eE+]+)$")


def grid_from_descriptor(descriptor: str, count: int) -> SampleGrid:
    """Build a grid from ``linear:a[,b]`` (x_l = a*(l+1)+b) or
    ``sqrtlinear:a`` (x_l = sqrt(a*(l+1)))."""
    m = _DESCRIPTOR_RE.match(descriptor.strip())
    if m is None:
        raise ValueError("unrecognized grid descriptor %r" % descriptor)
    kind, args = m.group(1), m.group(2).split(",")
    try:
        values = [float(v) for v in args]
    except ValueError as exc:
        raise ValueError("bad number in grid descriptor %r" % descriptor) from exc
    if kind == "linear":
        if len(values) == 1:
            a, b = values[0], 0.0
        elif len(values) == 2:
            a, b = values
        else:
            raise ValueError("linear grids take one or two parameters")
        points = tuple(a * (l + 1) + b for l in range(count))
    else:
        if len(values) != 1:
            raise ValueError("sqrtlinear grids take one parameter")
        a = values[0]
        if a <= 0.0:
            raise ValueError("sqrtlinear parameter a must be positive, got %r" % a)
        points = tuple(math.sqrt(a * (l + 1)) for l in range(count))
    return SampleGrid(points, descriptor)


@dataclass(frozen=True, slots=True)
class CumulativeIntegrals:
    """Panel integrals chi_0..chi_L and their prefix sums F(x_0)..F(x_L).

    ``unresolved_panels`` holds (i, ratio) for each panel i whose bisected
    halves still miss the tail tolerance, ratio the larger of the halves'
    tails over their values.
    """

    chi: tuple[float, ...]
    F: tuple[float, ...]
    unresolved_panels: tuple[tuple[int, float], ...] = ()


def _legendre(q, x):
    """P_q(x) and P_q'(x), by the three-term recurrence."""
    p_prev, p = 1.0, x
    for n in range(1, q):
        p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
    return p, q * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(q):
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1], q even.

    Roots of the degree-q Legendre polynomial are found by Newton
    iteration from the classical cosine initial guesses; the rule is
    exact for polynomials of degree 2q-1.
    """
    half = []
    for i in range(1, q // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (q + 0.5))
        for _ in range(100):
            p, dp = _legendre(q, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        p, dp = _legendre(q, x)
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    nodes = [-x for x, _ in half] + [x for x, _ in reversed(half)]
    weights = [w for _, w in half] + [w for _, w in reversed(half)]
    return np.array(nodes), np.array(weights)


# (nodes, weights) of the 32-point rule, which gives every panel's value.
_RULE = _gauss_legendre(32)
# Row k - 28 is (2k+1)/2 * P_k at the nodes, k = 28..31, by the recurrence.
# The rule is exact on P_j*P_k for j + k <= 63, so the products w*f(x) times
# its transpose are the top four Legendre coefficients of f's interpolant.
_TAIL = np.array([(k + 0.5) * _legendre(k, _RULE[0])[0] for k in range(28, 32)])


def _values(f, x):
    """``(values, None)`` for f at the nodes x, or ``(None, error)``.

    The error is the ValueError f raised, or one naming a non-finite
    value: inf or nan never enters a panel sum.
    """
    try:
        values = f(x)
    except ValueError as exc:
        return None, exc
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape:
        raise TypeError("the integrand must return one value per node: "
                        "got shape %s for nodes of shape %s" % (values.shape, x.shape))
    finite = np.isfinite(values)
    if not finite.all():
        return None, ValueError("non-finite value %r" % float(values[~finite][0]))
    return values, None


def _first_failure(f, x, error):
    """Index of the first node of x at which f fails, and f's error there.

    f acts node by node, so a prefix of x fails exactly when it holds a
    failing node: bisect on the prefix length.  ``error`` is f's error on
    all of x.
    """
    lo, hi = 0, len(x)  # x[:lo] passes, x[:hi] fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        _, found = _values(f, x[:mid])
        if found is None:
            lo = mid
        else:
            hi, error = mid, found
    return hi - 1, error


def _rule(f, lefts, rights):
    """32-point values of the panels [lefts[i], rights[i]] and their tails.

    The nodes of all panels go to f in one array, panel after panel.  A
    panel's tail is twice its half-width times the largest of the Legendre
    coefficients a_28..a_31 of f's interpolant.  A failure raises a
    :class:`QuadratureError` naming its panel: where f fails, the first
    failing node, from f's error there; where a value leaves the float
    range (in ``math.fsum`` or in the scaling by the half-width), the sum.
    """
    nodes, weights = _RULE
    mid = 0.5 * (lefts + rights)
    halfwidth = 0.5 * (rights - lefts)
    x = (mid[:, None] + halfwidth[:, None] * nodes).ravel()
    values, error = _values(f, x)
    if error is not None:
        index, error = _first_failure(f, x, error)
        panel = index // len(nodes)
        raise QuadratureError("integrand failed at node x=%r in panel [%r, %r]: %s" % (
            float(x[index]), float(lefts[panel]), float(rights[panel]), error)) from error
    products = weights * values.reshape(-1, len(nodes))
    sums = []
    for panel, (h, row) in enumerate(zip(halfwidth.tolist(), products.tolist())):
        try:
            sums.append(h * math.fsum(row))
        except OverflowError:
            sums.append(math.inf)
        if math.isinf(sums[-1]):
            raise QuadratureError("quadrature sum beyond the float range in panel [%r, %r]"
                                  % (float(lefts[panel]), float(rights[panel]))) from None
    with np.errstate(over="ignore", invalid="ignore"):
        tails = 2.0 * halfwidth * abs(products @ _TAIL.T).max(axis=1)
    return sums, tails


# A panel meets the rule's tolerance where its tail is at most this share of
# its value.
TAIL_TOLERANCE = 1e-10


def _above(sums, tails):
    """Whether each tail is above the tolerance of its panel's value."""
    return tails > TAIL_TOLERANCE * np.maximum(np.abs(sums), 1e-30)


def _panels(f, lefts, rights):
    # Accept the rule's value; where its tail is above the tolerance, bisect
    # once and integrate the halves.  One level only: panels are expected
    # to be smooth, and one whose halves still miss the tolerance is returned
    # as (panel, larger half's tail over its value) with the values.  The
    # panels are one call of f, the halves one more.
    chi, tails = _rule(f, lefts, rights)
    flagged = np.flatnonzero(_above(chi, tails)).tolist()
    unresolved = []
    if flagged:
        a, b = lefts[flagged], rights[flagged]
        mid = 0.5 * (a + b)
        halves, tails = _rule(f, np.column_stack((a, mid)).ravel(),
                              np.column_stack((mid, b)).ravel())
        missed = _above(halves, tails).reshape(-1, 2).any(axis=1)
        with np.errstate(over="ignore"):
            ratios = (tails / np.maximum(np.abs(halves), 1e-30)).reshape(-1, 2).max(axis=1)
        for n, i in enumerate(flagged):
            chi[i] = halves[2 * n] + halves[2 * n + 1]
            if missed[n]:
                unresolved.append((i, float(ratios[n])))
    return chi, tuple(unresolved)


def cumulative(f, grid: SampleGrid) -> CumulativeIntegrals:
    """Panel integrals over [x_{i-1}, x_i] and their prefix sums.

    f takes an array of nodes and returns the array of its values; it is
    called once for the 32 nodes of every panel, and once more only if
    some panel's Legendre tail asks for bisecting it.  The values are those
    of integrating the panels one at a time, and the prefix sums are formed
    in index order, so F[l] equals the plain left-to-right sum of
    chi[0..l].  A bisected panel whose halves' tails are still above the
    tolerance is named in ``unresolved_panels``.  Batching changes no bits:
    each panel keeps its own ``math.fsum``, and
    :func:`dmint.exprtaylor.evaluate` computes each element as it would a
    single point.  If the batch fails, the panels are replayed one at a
    time (one call of f for the panel, one for its halves) and the first
    failure is raised as ``panel i: ...``, the error a panel-by-panel
    integration hits first, since a panel's nodes come before its sum; if
    none fails alone, the batch's error stands.  Each failed call of f,
    the batch's included, is bisected to its first failing node.
    """
    edges = np.array((0.0,) + grid.points)
    try:
        chi, unresolved = _panels(f, edges[:-1], edges[1:])
    except QuadratureError:
        for i in range(len(grid.points)):
            try:
                _panels(f, edges[i:i + 1], edges[i + 1:i + 2])
            except QuadratureError as failure:
                raise QuadratureError("panel %d: %s" % (i, failure)) from failure.__cause__
        raise
    F = tuple(itertools.accumulate(chi, initial=0.0))[1:]
    return CumulativeIntegrals(tuple(chi), F, unresolved)
