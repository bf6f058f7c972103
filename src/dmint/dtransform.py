"""The D^(m) extrapolation of finite-range integrals to the whole half line.

Given samples F(x_l) of the finite-range integral together with the first
m-1 derivatives of the integrand at the x_l, the transformation fits

    F(x_l) = D + sum_{k=1..m} x_l**e_k * f^(k-1)(x_l) * sum_{i<n_k} beta_ki / x_l**i

over a window of N+1 = 1 + sum(n_k) consecutive samples and reads off D
as the approximation to the integral over [0, inf).  The exponents e_k
default to k (the user-friendly variant); callers who know the integrand's
tail-expansion exponents may supply them instead.

The windows of one sequence are nested: window nu holds the leading
m*nu+1 samples and, for each k, the terms i < nu.  :func:`d_sequences`
therefore assembles the rows of the nu_max system once per integrand, in
float64, straight from the samples and in the i-major order (beta_ki with
k inside i): row p = i*m + k - 1 holds x_l**(e_k - i) * f^(k-1)(x_l) at
every sample l, the power taken by libm's pow in :mod:`dmint.exprtaylor`,
which owns every libm call.  Window nu then reads the first m*nu rows at the first
m*nu+1 samples, so one sweep of the FS-algorithm (Ford & Sidi, SIAM J.
Numer. Anal. 24, 1987) gives every window's D, without pivoting, in
O(N^3).  The sweep runs in double-double arithmetic (Dekker, Numer. Math.
18, 1971), about 106 bits: on every window the tests check against exact
rational elimination, D is the exact solution of its float64 system,
rounded, but for two windows of 1/(1+x)^2, 8 ulp off at nu=4 (linear:1.6,
m=1, exponents (2,), j=2) and 1 ulp at nu=3 (sqrtlinear:1.6, m=4,
exponents (-1, 3, 3, -2), j=1).  The sweep uses only IEEE additions,
multiplications and divisions, so given rows give the same bits on every
platform.  The systems of several integrands are swept as one batch, each
to the last step, with the same operations on every element.  A sequence
whose sweep divides by zero (at a sample where the integrand vanishes,
say) is solved instead by one exact fraction-free elimination (Bareiss,
Math. Comp. 22, 1968) of the same entries, :func:`_exact_d`, the one
judge of such a sequence.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from . import exprtaylor
from ._stats import count
from .expr import Expr, SingularSystemError, parse, to_text
from .exprtaylor import ExprDomainError, evaluate, power_table
from .quad import SampleGrid, cumulative, grid_from_descriptor


def derivatives(ast, x0, m):
    """:func:`dmint.exprtaylor.derivatives`, each walk counted; the
    quadrature's walks of the integrand are not."""
    count("dtransform.row_walks")
    count("dtransform.row_samples", np.size(x0))
    return exprtaylor.derivatives(ast, x0, m)


def friendly_exponents(m: int) -> tuple[int, ...]:
    """The default exponents e_k = k used when nothing is known about f."""
    return tuple(range(1, m + 1))


# The most unknowns N = m*nu_max a sequence may have.  The sweep's time
# grows as N^3 and its memory as N^2: at N = 300 one sweep takes about
# 0.35 s and 8 MB (x86-64), at N = 400 about 1.0 s and 14 MB.
_MAX_UNKNOWNS = 300

# The largest m.  Row k of a derivative sample is k! times a Taylor
# coefficient, and 171! is beyond the float range.
_MAX_M = 171

# The largest start index j.  Every point below x_j is integrated before
# any window is checked, at about 3.6 KB a point: a run at j = 10 000
# peaks at 65 MB, against 30 MB at j = 0 (x86-64).
_MAX_START = 10_000

# The most work, rows times the sum of the integer columns' bit lengths, one
# exact elimination may take.  Its time grows about as the square of this
# estimate: (x-2)*exp(-x) at m=3 reads 6.6e5 at nu_max=20 and takes 0.9 s,
# and 9.8e5 at nu_max=23, 2.2 s (x86-64); exp(-x) at m=171, nu_max=1 reads
# 1.5e7 and ran past 300 s.
_MAX_EXACT_WORK = 1_000_000


# Double-double arithmetic (Dekker 1971) on float64 arrays: a value is a
# pair (hi, lo) with |lo| <= ulp(hi)/2.  numpy fuses no multiply-add, so
# every platform with IEEE doubles gives the same bits.
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _dd_sub(a_hi, a_lo, b_hi, b_lo):
    """a - b: the two-sum of the heads, the tails added once."""
    s = a_hi - b_hi
    v = s - a_hi
    e = (a_hi - (s - v)) - (b_hi + v) + (a_lo - b_lo)
    hi = s + e
    return hi, e - (hi - s)


def _dd_div(a_hi, a_lo, b_hi, b_lo):
    """a / b: the quotient of the heads and one correction from the remainder."""
    q = a_hi / b_hi
    p = q * b_hi
    q_hi, q_lo = _split(q)
    b_hh, b_hl = _split(b_hi)
    err = ((q_hi * b_hh - p) + q_hi * b_hl + q_lo * b_hh) + q_lo * b_hl
    c = (((a_hi - p) - err + a_lo) - q * b_lo) / b_hi
    hi = q + c
    return hi, c - (hi - q)


def _fs_sweep(g, rhs, m):
    """D for the windows nu = 0, 1, ... of a batch of systems by the FS-algorithm.

    ``g[s, p, :]`` holds the unknown g_{p+1} of system s at every sample, in
    the i-major order, and ``rhs[s, :]`` its samples F.  The systems are
    swept together, with the same operations on every element as one
    system alone.  Window nu is A_{m nu}^{(0)} of the recursion
    psi_p^{(j)}(u) = (psi_{p-1}^{(j+1)}(u) - psi_{p-1}^{(j)}(u))
    / (psi_{p-1}^{(j+1)}(g_{p+1}) - psi_{p-1}^{(j)}(g_{p+1})), with
    psi_0^{(j)}(u) = u_j / g_1(x_j).  D_nu = psi(F) / psi(1), in which the
    step's divisor cancels, so it is read off the differences at step m nu.
    The rows carried are [F, 1, g_N, ..., g_1]: each step's divisor is the
    last row, and a step drops it.  Every system is swept to the end.  A
    zero or non-finite divisor leaves NaN in its column, which the later
    differences carry into the last window's D.  Returns one D list per
    system, or None for a system with a non-finite D.
    """
    count("dtransform.sweeps")
    systems, n, size = g.shape
    hi = np.concatenate((rhs[:, None], np.ones((systems, 1, size)), g[:, ::-1]), axis=1)
    lo = np.zeros_like(hi)
    heads = []  # rows F and 1 of column 0, (hi, lo), at every m-th step
    with np.errstate(all="ignore"):
        for p in range(n + 1):
            if p:
                hi, lo = _dd_sub(hi[..., 1:], lo[..., 1:], hi[..., :-1], lo[..., :-1])
            if p % m == 0:
                heads.append((hi[:, :2, 0].copy(), lo[:, :2, 0].copy()))
            if p == n:
                break
            hi, lo = _dd_div(hi[:, :-1], lo[:, :-1], hi[:, -1:], lo[:, -1:])
        h = np.array(heads)
        d = _dd_div(h[:, 0, :, 0], h[:, 1, :, 0], h[:, 0, :, 1], h[:, 1, :, 1])[0]
    return [column.tolist() if np.isfinite(column).all() else None for column in d.T]


def _exact_d(g, rhs, m, points) -> list[float]:
    """D of each nested window of one system, exactly rounded.

    ``g[p, :]`` holds the unknown g_{p+1} at every sample ``points[l]`` and
    ``rhs`` the samples F, as :func:`_fs_sweep` reads one system; D's
    coefficient is 1 at every sample.  Window nu is the leading m*nu
    unknowns at the leading m*nu+1 samples.  One fraction-free elimination
    (Bareiss 1968) serves all: each column scaled by a power of two to
    integers, D's last, and each pivot the first non-zero row of the window
    being built, so D_nu is the quotient of row m*nu.  Raises
    :class:`SingularSystemError` with the nu of the first window with a
    zero or non-finite column, a non-finite F, an exactly singular matrix,
    a sample where every unknown's row is 0 (it fixes D = F(x_l)) or a D
    beyond the float range, checked in that order, and :class:`ValueError`
    before eliminating work beyond ``_MAX_EXACT_WORK``.
    """
    count("dtransform.exact_sequences")
    # The first window holding a sample where every unknown's row is 0 is
    # the last one judged (window nu_max + 1, none, without such a sample).
    zero = np.flatnonzero(~g.any(axis=0))
    vanishing = max(1, -(-int(zero[0]) // m)) if zero.size else len(g) // m + 1
    g, rhs = g[:m * vanishing, :m * vanishing + 1], rhs[:m * vanishing + 1]

    def check(nu, singular):
        n = m * nu + 1
        window = g[:n - 1, :n]
        if not (np.isfinite(window).all() and window.any(axis=1).all()):
            text = "matrix has a zero or non-finite column"
        elif not np.isfinite(rhs[:n]).all():
            text = "right-hand side is not finite"
        elif singular:
            text = "matrix is singular"
        elif nu == vanishing:
            text = ("every unknown's row vanishes at the sample x={0!r}, which fixes "
                    "D = F({0!r}); another grid avoids it".format(points[zero[0]]))
        else:
            return
        raise SingularSystemError("window nu=%d: %s" % (nu, text), nu)

    columns, denominators = [], []
    for column in (*g, np.ones(len(rhs)), rhs):
        # A non-finite entry stands in as 0: check refuses every window holding one.
        ratios = [v.as_integer_ratio() if math.isfinite(v) else (0, 1) for v in column.tolist()]
        den = max(d for _, d in ratios)
        columns.append([num * (den // d) for num, d in ratios])
        denominators.append(den)
    bits = sum(max(map(abs, column)).bit_length() for column in columns)
    if len(rhs) * bits > _MAX_EXACT_WORK:
        raise ValueError("exact elimination too large (%d rows times %d column bits, %d in "
                         "all, beyond %d)" % (len(rhs), bits, len(rhs) * bits, _MAX_EXACT_WORK))
    rows = [list(row) for row in zip(*columns)]
    values, previous = [], 1
    for k in range(len(rows)):
        if k % m == 0:
            a, b = rows[k][-2], rows[k][-1]
            check(k // m, singular=not a)
            try:
                values.append(b * denominators[-2] / (a * denominators[-1]))
            except OverflowError:
                raise SingularSystemError("window nu=%d: D is beyond the float range"
                                          % (k // m), k // m) from None
        if k == len(rows) - 1:
            return values
        pivot = next((r for r in range(k, k - k % m + m + 1) if rows[r][k]), None)
        if pivot is None:
            check(k // m + 1, singular=True)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top, a = rows[k], rows[k][k]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(v * a - f * t) // previous
                           for v, t in zip(row[k + 1:], top[k + 1:])]
        previous = a


class TableEntry(NamedTuple):
    """One extrapolation step: the window nu and its value.

    ``f_value`` is the plain finite-range integral F(x_{j+m*nu}) over the
    same window, the natural yardstick for the extrapolated value.
    """

    nu: int
    d_value: float
    f_value: float


class ExtrapolationTable(NamedTuple):
    """Extrapolations D for nu = 0..nu_max plus grid and integrand context.

    ``unresolved_panels`` are the quadrature's panels whose bisected halves
    miss its tail tolerance, as :class:`dmint.quad.CumulativeIntegrals`
    gives them: F from panel i on, and every D, may be off by more.
    """

    entries: tuple[TableEntry, ...]
    m: int
    j: int
    grid: SampleGrid
    integrand: str
    exponents: tuple[int, ...]
    unresolved_panels: tuple[tuple[int, float], ...] = ()


def d_sequence(integrand, grid: str, m: int, nu_max: int, exponents=None,
               j: int = 0) -> ExtrapolationTable:
    """Run the transformation for nu = 0..nu_max on one integrand.

    ``integrand`` is an expression AST or source text; ``grid`` is a
    descriptor string such as ``linear:1.6``, from which the j + m*nu_max + 1
    points the windows read are built, sampled and kept in the table.
    ``exponents`` are m integers (numpy integers too), e_1..e_m.  Window
    nu uses samples l = j..j+m*nu with tail lengths n = (nu, ..., nu).
    Where the sweep breaks, the first window the exact elimination refuses
    (see :func:`_exact_d`) raises :class:`SingularSystemError` carrying its
    ``nu``, and an elimination beyond its work budget raises
    :class:`ValueError`.  This is :func:`d_sequences` with one member.
    """
    return d_sequences([(integrand, grid)], m, nu_max, exponents, j)[0]


def d_sequences(members, m: int, nu_max: int, exponents=None,
                j: int = 0) -> list[ExtrapolationTable]:
    """:func:`d_sequence` for several integrands, with one sweep for all.

    ``members`` lists ``(integrand, grid)`` pairs; the other
    parameters are shared, so every member's nu_max system has one shape
    and a single FS sweep serves them all; a member whose sweep breaks
    does not stop the others'.  Each table is the one :func:`d_sequence`
    gives for its member alone, bit for bit.  Every member is parsed and
    sampled before any window is solved; after the sweep, the first
    member with a singular window raises its error.  The
    parameters are checked before anything is sampled: nu_max >= 0,
    1 <= m <= ``_MAX_M`` (below ``_MAX_UNKNOWNS``), the unknowns m*nu_max
    at most ``_MAX_UNKNOWNS``, 0 <= j <= ``_MAX_START``, and m integral
    exponents, else :class:`ValueError`.
    """
    if nu_max < 0:
        raise ValueError("nu_max must be non-negative")
    if m < 1:
        raise ValueError("m must be at least 1")
    # m <= _MAX_M < _MAX_UNKNOWNS also bounds the derivative rows taken at
    # each point (nu_max = 0 too).
    if m > _MAX_M:
        raise ValueError("m must be at most %d, got %d: the derivative rows "
                         "take k! up to (m-1)!, beyond the float range" % (_MAX_M, m))
    if m * nu_max > _MAX_UNKNOWNS:
        raise ValueError("too many unknowns: m = %d, m*nu_max = %d; each must be "
                         "at most %d" % (m, m * nu_max, _MAX_UNKNOWNS))
    if j < 0:
        raise ValueError("the start index j must be non-negative")
    if j > _MAX_START:
        raise ValueError("the start index j must be at most %d, got %d" % (_MAX_START, j))
    exps = friendly_exponents(m) if exponents is None else tuple(exponents)
    if len(exps) != m:
        raise ValueError("need %d exponents, got %d" % (m, len(exps)))
    try:
        exps = tuple(map(operator.index, exps))
    except TypeError:
        raise ValueError("exponents must be integers, got %r" % (exps,)) from None
    needed = j + m * nu_max + 1
    # Row p = i*m + k of the sweep reads x**(exps[k] - i) times f^(k)(x).
    row_powers = [e - i for i in range(nu_max) for e in exps]
    k_of_row = list(range(m)) * nu_max
    sampled, systems = [], []
    for integrand, grid in members:
        if isinstance(integrand, str):
            ast = parse(integrand)
        elif isinstance(integrand, Expr):
            ast = integrand
        else:
            raise TypeError("integrand must be expression text or a parsed AST")
        if not isinstance(grid, str):
            raise TypeError("grid must be a descriptor string, such as 'linear:1.6'")
        # Only the points the windows read: a later point may fail.
        grid = grid_from_descriptor(grid, needed)
        cum = cumulative(lambda t: evaluate(ast, t), grid)
        # The rows read the samples from j on.
        read = grid.points[j:]
        try:
            derivs = derivatives(ast, np.array(read), m)
        except ExprDomainError:
            # Name the sub-expression that fails at the first failing point.
            for x in read:
                derivatives(ast, x, m)
            raise
        sampled.append((ast, grid, cum))
        # A product beyond the float range is inf, as in the sweep.
        with np.errstate(all="ignore"):
            systems.append((power_table(read, row_powers) * derivs[k_of_row], cum.F[j:]))
    if not systems:
        return []

    rows, rhss = (np.array(parts) for parts in zip(*systems))
    swept = _fs_sweep(rows, rhss, m)
    tables = []
    for (ast, grid, cum), g, rhs, values in zip(sampled, rows, rhss, swept):
        if values is None:
            values = _exact_d(g, rhs, m, grid.points[j:])
        entries = []
        for nu, d_value in enumerate(values):
            f_value = cum.F[j + m * nu]
            entries.append(TableEntry(nu, d_value, f_value))
        tables.append(ExtrapolationTable(tuple(entries), m, j, grid, to_text(ast),
                                         exps, cum.unresolved_panels))
    return tables
