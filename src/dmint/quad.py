"""Gauss-Legendre panel quadrature and cumulative finite-range integrals.

The integral from 0 to x_l of an integrand is assembled from panel values
chi_i over [x_{i-1}, x_i] (with x_{-1} = 0), each computed by a fixed-order
Gauss-Legendre rule, then prefix-summed: F(x_l) = chi_0 + ... + chi_l.

Integrands take an array of nodes and return the array of their values.
:func:`cumulative` makes one call per rule for all panels at once: the
nodes of the q-point rule, then those of the doubled rule, then the
halves of any panel the doubling flags.  Each panel is still summed on its
own with ``math.fsum``, so for an integrand that acts element by element
(as :func:`dmint.exprtaylor.evaluate` does, bit for bit) the results are
exactly those of integrating panel after panel, node by node.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


class QuadratureError(ValueError):
    """Evaluator failure inside a panel; carries the offending node."""


class _PanelFailure(Exception):
    """The integrand failed at a node of panel ``panel`` of a batch."""

    def __init__(self, panel: int, message: str):
        super().__init__(message)
        self.panel = panel


@dataclass(frozen=True)
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
        if self.points[0] <= 0.0:
            raise ValueError("the first grid point must be positive")
        for a, b in zip(self.points, self.points[1:]):
            if not b > a:
                raise ValueError("grid points must be strictly increasing")
        if not all(math.isfinite(p) for p in self.points):
            raise ValueError("grid points must be finite")

    def __len__(self):
        return len(self.points)


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
        points = tuple(math.sqrt(a * (l + 1)) for l in range(count))
    return SampleGrid(points, descriptor)


@dataclass(frozen=True)
class CumulativeIntegrals:
    """Panel integrals chi_0..chi_L and their prefix sums F(x_0)..F(x_L)."""

    chi: tuple[float, ...]
    F: tuple[float, ...]
    node_count: int


_MAX_NODES = 64
_gauss_cache: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}


def gauss_nodes(q: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1].

    Roots of the degree-q Legendre polynomial are found by Newton
    iteration from the classical cosine initial guesses; the rule is
    exact for polynomials of degree 2q-1.
    """
    if not (isinstance(q, int) and 1 <= q <= _MAX_NODES):
        raise ValueError("node count must be an integer in [1, %d]" % _MAX_NODES)
    cached = _gauss_cache.get(q)
    if cached is not None:
        return cached
    if q == 2:
        s = 1.0 / math.sqrt(3.0)
        result = ((-s, s), (1.0, 1.0))
        _gauss_cache[q] = result
        return result
    half: list[tuple[float, float]] = []
    for i in range(1, q // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (q + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for n in range(1, q):
                p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
            dp = q * (x * p - p_prev) / (x * x - 1.0)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        p_prev, p = 1.0, x
        for n in range(1, q):
            p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        dp = q * (x * p - p_prev) / (x * x - 1.0)
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    nodes: list[float] = []
    weights: list[float] = []
    for x, w in half:
        nodes.append(-x)
        weights.append(w)
    if q % 2:
        # P_q(0) = 0 for odd q; only the derivative is needed for the weight.
        p_prev, p = 1.0, 0.0
        for n in range(1, q):
            p_prev, p = p, (-n * p_prev) / (n + 1)
        dp = q * (0.0 - p_prev) / (0.0 - 1.0)
        nodes.append(0.0)
        weights.append(2.0 / (dp * dp))
    for x, w in reversed(half):
        nodes.append(x)
        weights.append(w)
    result = (tuple(nodes), tuple(weights))
    _gauss_cache[q] = result
    return result


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


def _rule(f, lefts, rights, q: int) -> list[float]:
    """q-point Gauss-Legendre values of the panels [lefts[i], rights[i]].

    The nodes of all panels go to f in one array, panel after panel.  A
    failure raises :class:`_PanelFailure` for the first failing node in
    that order.
    """
    nodes, weights = gauss_nodes(q)
    mid = 0.5 * (lefts + rights)
    halfwidth = 0.5 * (rights - lefts)
    x = (mid[:, None] + halfwidth[:, None] * np.array(nodes)).ravel()
    values, error = _values(f, x)
    if error is not None:
        index, error = _first_failure(f, x, error)
        panel = index // q
        raise _PanelFailure(panel, "integrand failed at node x=%r in panel [%r, %r]: %s"
                            % (float(x[index]), float(lefts[panel]),
                               float(rights[panel]), error)) from error
    rows = (np.array(weights) * values.reshape(-1, q)).tolist()
    return [h * math.fsum(row) for h, row in zip(halfwidth.tolist(), rows)]


def panel_integrate(f, a: float, b: float, q: int = 16) -> float:
    """q-point Gauss-Legendre approximation of the integral of f over [a, b].

    f takes the array of the q nodes and returns the array of its values.
    The products w*f(x) are summed with ``math.fsum``, which does not
    depend on how the values were computed: an f that acts element by
    element, such as :func:`dmint.exprtaylor.evaluate`, gives the same
    bits as one call per node.
    """
    if not b > a:
        raise ValueError("need a < b, got [%r, %r]" % (a, b))
    try:
        return _rule(f, np.array([a], dtype=float), np.array([b], dtype=float), q)[0]
    except _PanelFailure as exc:
        raise QuadratureError(str(exc)) from exc.__cause__


def _panels(f, lefts, rights, q: int) -> list[float]:
    # Accept the doubled rule; where doubling moved the value by more than
    # 1e-12 relative, bisect once and integrate the halves at the doubled
    # order.  One level only: panels are expected to be smooth.  Each
    # stage is one call of f for all the panels it covers.
    refined = min(2 * q, _MAX_NODES)
    coarse = _rule(f, lefts, rights, q)
    if refined == q:
        return coarse
    chi = _rule(f, lefts, rights, refined)
    flagged = [i for i, (c, v) in enumerate(zip(coarse, chi))
               if abs(v - c) > 1e-12 * max(abs(c), abs(v), 1e-30)]
    if flagged:
        a, b = lefts[flagged], rights[flagged]
        mid = 0.5 * (a + b)
        try:
            halves = _rule(f, np.column_stack((a, mid)).ravel(),
                           np.column_stack((mid, b)).ravel(), refined)
        except _PanelFailure as exc:
            raise _PanelFailure(flagged[exc.panel // 2], str(exc)) from exc.__cause__
        for n, i in enumerate(flagged):
            chi[i] = halves[2 * n] + halves[2 * n + 1]
    return chi


def cumulative(f, grid: SampleGrid, q: int = 16) -> CumulativeIntegrals:
    """Panel integrals over [x_{i-1}, x_i] and their prefix sums.

    f takes an array of nodes and returns the array of its values; it is
    called once for the q-point nodes of all panels, once for the doubled
    rule, and once more only if some panel needs bisecting.  The values
    are those of integrating the panels one at a time, and the prefix sums
    are formed in index order, so F[l] equals the plain left-to-right sum
    of chi[0..l].  Batching changes no bits: each panel keeps its own
    ``math.fsum``, and :func:`dmint.exprtaylor.evaluate` computes each
    element as it would a single point (order-1 jets hold no sums).  If f
    fails, the error names the node at which a panel-by-panel integration
    would first have failed.
    """
    edges = np.array((0.0,) + grid.points)
    count, failure = len(grid.points), None
    while count:
        try:
            chi = _panels(f, edges[:count], edges[1:count + 1], q)
        except _PanelFailure as exc:
            # A panel before this one may still fail at a later stage.
            failure, count = exc, exc.panel
        else:
            break
    if failure is not None:
        raise QuadratureError("panel %d: %s" % (failure.panel, failure)) from failure.__cause__
    F = []
    total = 0.0
    for value in chi:
        total = total + value
        F.append(total)
    return CumulativeIntegrals(tuple(chi), tuple(F), q)
