"""The D^(m) extrapolation of finite-range integrals to the whole half line.

Given samples F(x_l) of the finite-range integral together with the first
m-1 derivatives of the integrand at the x_l, the transformation fits

    F(x_l) = D + sum_{k=1..m} x_l**e_k * f^(k-1)(x_l) * sum_{i<n_k} beta_ki / x_l**i

over a window of N+1 = 1 + sum(n_k) consecutive samples and reads off D
as the approximation to the integral over [0, inf).  The exponents e_k
default to k (the user-friendly variant); callers who know the integrand's
tail-expansion exponents may supply them instead.  Each window gives one
dense linear system, solved by column-equilibrated Gaussian elimination
with partial pivoting on the augmented matrix.

The windows of one sequence are nested: window nu holds the leading
m*nu+1 rows of the nu_max window and, of each block of nu_max columns
belonging to one k, the first nu.  :func:`d_sequence` therefore assembles
the nu_max system once; window nu is element for element what
:func:`build_system` gives for it alone.  One private solver,
:func:`_solve_windows`, takes nested windows of one system and owns the
whole pipeline: column scales, the elimination of all windows together
(each aligned at the bottom-right corner of the largest, so one column
step serves every window that has joined), back substitution, unscaling,
the residuals, and which failure wins.  Each element gets the arithmetic
it gets when the window is solved alone, so every D and residual is the
same to the bit.  :func:`d_sequence` and :func:`solve_vector` (one
window) each call it once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expr, SingularSystemError, parse, to_text
from .exprtaylor import derivatives, evaluate
from .quad import SampleGrid, cumulative, grid_from_descriptor


@dataclass(frozen=True, slots=True)
class DSystemSpec:
    """Shape of one extrapolation system.

    ``n`` lists the tail lengths n_1..n_m, ``exponents`` the e_k applied to
    x_l in front of f^(k-1)(x_l); the system has dimension N+1 with
    N = sum(n) and uses samples l = j..j+N.
    """

    m: int
    j: int
    n: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.j < 0:
            raise ValueError("the start index j must be non-negative")
        if len(self.n) != self.m or any(v < 0 for v in self.n):
            raise ValueError("n must hold m non-negative integers")
        if len(self.exponents) != self.m:
            raise ValueError("need %d exponents, got %d" % (self.m, len(self.exponents)))

    @property
    def N(self) -> int:
        return sum(self.n)


@dataclass(frozen=True, slots=True)
class SampleRow:
    """One sample: abscissa, finite-range integral, integrand derivatives."""

    x: float
    F: float
    derivs: tuple[float, ...]


def friendly_exponents(m: int) -> tuple[int, ...]:
    """The default exponents e_k = k used when nothing is known about f."""
    return tuple(range(1, m + 1))


# The sample data is double precision, but the systems become very
# ill-conditioned as the windows grow; carrying the elimination in the
# platform's extended precision keeps the solver's own noise well below
# the noise floor of the samples.
_WIDE = np.longdouble


def build_system(spec: DSystemSpec, samples: Sequence[SampleRow]):
    """Assemble the (N+1)-dimensional matrix and right-hand side.

    The unknown vector is (D, beta_10..beta_1{n_1-1}, beta_20, ...): k-major,
    then i ascending.  Row l encodes F(x_l) = D + sum_k x_l**e_k f^(k-1)(x_l)
    sum_i beta_ki x_l**-i.
    """
    size = spec.N + 1
    if len(samples) != size:
        raise ValueError("expected %d sample rows, got %d" % (size, len(samples)))
    if any(len(sample.derivs) < spec.m for sample in samples):
        raise ValueError("sample rows must carry m derivative values")
    # Column (k, i) holds x**(e_k - i) * f^(k-1)(x) in _WIDE, the same
    # power and product as element by element; columns of different k
    # share their powers, so each distinct power is taken once.
    k_of_column = np.repeat(np.arange(spec.m), spec.n)
    powers, power_of_column = np.unique(
        np.array([e - i for e, n in zip(spec.exponents, spec.n) for i in range(n)],
                 dtype=np.int64), return_inverse=True)
    x = np.array([sample.x for sample in samples], dtype=_WIDE)
    derivs = np.array([sample.derivs[:spec.m] for sample in samples], dtype=_WIDE)
    matrix = np.empty((size, size), dtype=_WIDE)
    matrix[:, 0] = 1.0
    matrix[:, 1:] = (x[:, None] ** powers)[:, power_of_column] * derivs[:, k_of_column]
    rhs = np.array([sample.F for sample in samples], dtype=_WIDE)
    return matrix, rhs


_PIVOT_FLOOR = 1e-300


def _solve_windows(matrix, rhs, windows):
    """Solve the nested windows of one system together.

    ``windows[i] = (size, cols)`` is the system matrix[:size, cols] x =
    rhs[:size], with sizes growing in i.  A window's column scales are
    the max-norms over its rows, read off one running maximum down the
    columns.  [A/scale | b] is eliminated with partial pivoting: the pivot
    is the first maximal |.| of the column, and a swap moves the columns
    from the current one on.  Window i joins the stack, and has its block
    built, at the column step where the largest window has size_i columns
    left; from there one step serves every window in the stack, each
    element with the multiply and subtract it gets in a window on its own.

    Returns ``(results, failure)``.  ``failure`` is None or ``(i, text)``
    for the smallest failing window: a zero or non-finite column scale, a
    pivot below the floor (the text names the window's own column) or a
    non-finite solution.  Larger windows are dropped as soon as it fails.
    ``results[i]``, for every window below it, is the solution of A x = b
    as floats and the max-norm residual of A x - b.
    """
    peaks = np.maximum.accumulate(np.abs(matrix), axis=0)
    scales = [peaks[size - 1, cols] for size, cols in windows]
    count, failure = len(windows), None
    for i, scale in enumerate(scales):
        if np.any(scale == 0.0) or not np.all(np.isfinite(scale)):
            count, failure = i, (i, "matrix has a zero or non-finite column")
            break
    # Stack position p holds window last - p: the largest window still
    # alive comes first, and windows join below it as they fit.
    top = windows[count - 1][0] if count else 0
    work = np.empty((0, top, top + 1), dtype=_WIDE)
    u_rows, lasts = [], []
    joining = last = count - 1
    for c in range(top):
        width = top - c
        while joining >= 0 and windows[joining][0] == width:
            size, cols = windows[joining]
            grown = np.empty((last - joining + 1, width, width + 1), dtype=_WIDE)
            grown[:-1] = work
            grown[-1, :, :-1] = matrix[:size, cols] / scales[joining]
            grown[-1, :, -1] = rhs[:size]
            work = grown
            joining -= 1
        stack = np.arange(len(work))
        pivot_rows = np.abs(work[:, :, 0]).argmax(axis=1)
        pivots = work[stack, pivot_rows, 0]
        small = np.flatnonzero(np.abs(pivots) < _PIVOT_FLOOR)
        if len(small):
            p = int(small[-1])
            failure = (last - p, "pivot %g below threshold in column %d"
                       % (pivots[p], c - top + windows[last - p][0]))
            last -= p + 1
            work, stack, pivot_rows = work[p + 1:], stack[:-p - 1], pivot_rows[p + 1:]
        # The pivot row is kept for back substitution and row 0 takes its
        # place; left of the current column the rows hold spent entries.
        pivot = work[stack, pivot_rows]
        work[stack, pivot_rows] = work[:, 0]
        factors = work[:, 1:, 0] / pivot[:, :1]
        work[:, 1:, 1:] -= factors[:, :, None] * pivot[:, None, 1:]
        u_rows.append(pivot)
        lasts.append(last)
        work = work[:, 1:, 1:]
    solutions = np.zeros((last + 1, top), dtype=_WIDE)
    for c in range(top - 1, -1, -1):
        pivot = u_rows[c][lasts[c] - last:]
        active = solutions[:len(pivot)]
        dots = np.matmul(pivot[:, None, 1:-1], active[:, c + 1:, None])[:, 0, 0]
        active[:, c] = (pivot[:, -1] - dots) / pivot[:, 0]
    results = []
    for i in range(last + 1):
        size, cols = windows[i]
        solution = solutions[last - i, top - size:] / scales[i]
        if not np.all(np.isfinite(solution)):
            return results, (i, "elimination produced non-finite values")
        residual = float(np.max(np.abs(matrix[:size, cols] @ solution - rhs[:size])))
        results.append((solution.astype(float), residual))
    return results, failure


def solve_vector(matrix, rhs):
    """Solve the system, returning the full unknown vector and the residual.

    The one-window case of :func:`_solve_windows`: column-equilibrated
    Gaussian elimination with partial pivoting on [A | b].  A vanishing
    column or pivot, or a non-finite solution, raises
    :class:`SingularSystemError` instead of returning garbage.  The
    residual is the max-norm of A*solution - rhs.
    """
    a = np.array(matrix, dtype=_WIDE)
    b = np.array(rhs, dtype=_WIDE)
    if a.ndim != 2 or b.ndim != 1 or not 0 < len(b) == a.shape[0] == a.shape[1]:
        raise ValueError("need a non-empty square system with matching right-hand side")
    results, failure = _solve_windows(a, b, [(len(b), slice(None))])
    if failure is not None:
        raise SingularSystemError(failure[1])
    return results[0]


def solve(matrix, rhs):
    """Extract the integral approximation D (first unknown) and the residual."""
    solution, residual = solve_vector(matrix, rhs)
    return float(solution[0]), residual


_RELIABLE_FACTOR = 1e-8


@dataclass(frozen=True, slots=True)
class TableEntry:
    """One extrapolation step: the window nu, its value, and diagnostics.

    ``f_value`` is the plain finite-range integral F(x_{j+m*nu}) over the
    same window, the natural yardstick for the extrapolated value.
    ``reliable`` is cleared when the linear-system residual exceeds 1e-8
    times the right-hand side norm.
    """

    nu: int
    d_value: float
    residual: float
    f_value: float
    d_error: float | None
    f_error: float | None
    reliable: bool


@dataclass(frozen=True, slots=True)
class ExtrapolationTable:
    """Extrapolations D for nu = 0..nu_max plus grid and integrand context."""

    entries: tuple[TableEntry, ...]
    m: int
    j: int
    grid: SampleGrid
    integrand: str
    exponents: tuple[int, ...]
    reference: float | None

    def to_csv(self) -> str:
        lines = ["nu,F_error,D_error,residual,D_value,F_value,reliable"]
        for e in self.entries:
            lines.append("%d,%s,%s,%s,%r,%r,%s" % (
                e.nu,
                _sci3(e.f_error) if e.f_error is not None else "",
                _sci3(e.d_error) if e.d_error is not None else "",
                _sci3(e.residual),
                e.d_value,
                e.f_value,
                "yes" if e.reliable else "no",
            ))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        records = []
        for e in self.entries:
            records.append({
                "nu": e.nu,
                "F_error": _round3(e.f_error) if e.f_error is not None else None,
                "D_error": _round3(e.d_error) if e.d_error is not None else None,
                "residual": _round3(e.residual),
                "D_value": e.d_value,
                "F_value": e.f_value,
                "reliable": e.reliable,
            })
        return {
            "integrand": self.integrand,
            "grid": self.grid.descriptor,
            "m": self.m,
            "j": self.j,
            "exponents": list(self.exponents),
            "reference": self.reference,
            "entries": records,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def _sci3(value: float) -> str:
    return "%.2e" % value


def _round3(value: float) -> float:
    return float(_sci3(value))


def d_sequence(integrand, grid, m: int, nu_max: int, exponents=None,
               j: int = 0, reference: float | None = None,
               node_count: int = 16) -> ExtrapolationTable:
    """Run the transformation for nu = 0..nu_max on one integrand.

    ``integrand`` is an expression AST or source text; ``grid`` is a
    SampleGrid or a descriptor string, and must provide j + m*nu_max + 1
    points.  One sampling pass (quadrature prefix sums, derivative rows
    from one jet walk) feeds every window; each window nu uses samples
    l = j..j+m*nu with tail lengths n = (nu, ..., nu).  The nu_max system
    is assembled once; window nu is its leading m*nu+1 rows and the first
    nu columns of each k-block, and :func:`_solve_windows` solves them all
    in one pass, each to the bits :func:`solve` gives it alone.  A failing
    window raises :class:`SingularSystemError` carrying its ``nu``, the
    smallest that fails, with the text :func:`solve` raises for it.
    """
    if nu_max < 0:
        raise ValueError("nu_max must be non-negative")
    exps = friendly_exponents(m) if exponents is None else tuple(exponents)
    spec = DSystemSpec(m, j, (nu_max,) * m, exps)
    if isinstance(integrand, str):
        ast = parse(integrand)
    elif isinstance(integrand, Expr):
        ast = integrand
    else:
        raise TypeError("integrand must be expression text or a parsed AST")
    needed = j + spec.N + 1
    if isinstance(grid, str):
        grid = grid_from_descriptor(grid, needed)
    elif len(grid.points) < needed:
        raise ValueError("grid too short: need %d points, have %d"
                         % (needed, len(grid.points)))

    cum = cumulative(lambda t: evaluate(ast, t), grid, node_count)
    try:
        derivs = derivatives(ast, np.array(grid.points), m)
    except (ValueError, ArithmeticError):
        # Name the sub-expression that fails at the first failing point.
        for x in grid.points:
            derivatives(ast, x, m)
        raise
    rows = [SampleRow(x, F, tuple(d))
            for x, F, d in zip(grid.points, cum.F, derivs.T.tolist())]

    full_matrix, full_rhs = build_system(spec, rows[j: needed])
    windows = [(m * nu + 1, [0] + [1 + k * nu_max + i for k in range(m) for i in range(nu)])
               for nu in range(nu_max + 1)]
    results, failure = _solve_windows(full_matrix, full_rhs, windows)
    if failure is not None:
        nu, text = failure
        raise SingularSystemError("window nu=%d: %s" % (nu, text), nu)
    entries = []
    for nu, (solution, residual) in enumerate(results):
        d_value = float(solution[0])
        f_value = cum.F[j + m * nu]
        d_error = abs(d_value - reference) if reference is not None else None
        f_error = abs(f_value - reference) if reference is not None else None
        rhs_norm = float(np.max(np.abs(full_rhs[:m * nu + 1])))
        reliable = residual <= _RELIABLE_FACTOR * max(rhs_norm, 1e-300)
        entries.append(TableEntry(nu, d_value, residual, f_value,
                                  d_error, f_error, reliable))
    return ExtrapolationTable(tuple(entries), m, j, grid, to_text(ast),
                              exps, reference)
