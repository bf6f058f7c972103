"""The D^(m) extrapolation of finite-range integrals to the whole half line.

Given samples F(x_l) of the finite-range integral together with the first
m-1 derivatives of the integrand at the x_l, the transformation fits

    F(x_l) = D + sum_{k=1..m} x_l**e_k * f^(k-1)(x_l) * sum_{i<n_k} beta_ki / x_l**i

over a window of N+1 = 1 + sum(n_k) consecutive samples and reads off D
as the approximation to the integral over [0, inf).  The exponents e_k
default to k (the user-friendly variant); callers who know the integrand's
tail-expansion exponents may supply them instead.  Each window gives one
dense linear system, solved by column-equilibrated Gaussian elimination
with partial pivoting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exprtaylor import Expr, derivatives, evaluate, parse, to_text
from .quad import SampleGrid, cumulative, grid_from_descriptor


class SingularSystemError(ArithmeticError):
    """The extrapolation system is numerically singular; no value is returned."""

    def __init__(self, message: str, nu: int | None = None):
        super().__init__(message)
        self.nu = nu


@dataclass(frozen=True)
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
            raise ValueError("exponents must hold m integers")

    @property
    def N(self) -> int:
        return sum(self.n)


@dataclass(frozen=True)
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


def solve_vector(matrix, rhs):
    """Solve the system, returning the full unknown vector and the residual.

    Columns are scaled to unit max-norm before Gaussian elimination with
    partial pivoting; a vanishing column or pivot raises
    :class:`SingularSystemError` instead of returning garbage.  The residual
    is the max-norm of A*solution - rhs.
    """
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


def solve(matrix, rhs):
    """Extract the integral approximation D (first unknown) and the residual."""
    solution, residual = solve_vector(matrix, rhs)
    return float(solution[0]), residual


_RELIABLE_FACTOR = 1e-8


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    points.  One sampling pass (quadrature prefix sums plus jet
    derivatives) feeds every window; each window nu uses samples
    l = j..j+m*nu with tail lengths n = (nu, ..., nu).
    """
    if isinstance(integrand, str):
        ast = parse(integrand)
    elif isinstance(integrand, Expr):
        ast = integrand
    else:
        raise TypeError("integrand must be expression text or a parsed AST")
    if nu_max < 0:
        raise ValueError("nu_max must be non-negative")
    needed = j + m * nu_max + 1
    if isinstance(grid, str):
        grid = grid_from_descriptor(grid, needed)
    elif len(grid.points) < needed:
        raise ValueError("grid too short: need %d points, have %d"
                         % (needed, len(grid.points)))
    exps = friendly_exponents(m) if exponents is None else tuple(exponents)
    if len(exps) != m:
        raise ValueError("need %d exponents, got %d" % (m, len(exps)))

    cum = cumulative(lambda t: evaluate(ast, t), grid, node_count)
    rows = [SampleRow(x, F, tuple(derivatives(ast, x, m)))
            for x, F in zip(grid.points, cum.F)]

    entries = []
    for nu in range(nu_max + 1):
        spec = DSystemSpec(m, j, (nu,) * m, exps)
        window = rows[j: j + spec.N + 1]
        matrix, rhs = build_system(spec, window)
        try:
            d_value, residual = solve(matrix, rhs)
        except SingularSystemError as exc:
            raise SingularSystemError("window nu=%d: %s" % (nu, exc), nu) from exc
        f_value = cum.F[j + m * nu]
        d_error = abs(d_value - reference) if reference is not None else None
        f_error = abs(f_value - reference) if reference is not None else None
        rhs_norm = float(np.max(np.abs(rhs))) if len(rhs) else 0.0
        reliable = residual <= _RELIABLE_FACTOR * max(rhs_norm, 1e-300)
        entries.append(TableEntry(nu, d_value, residual, f_value,
                                  d_error, f_error, reliable))
    return ExtrapolationTable(tuple(entries), m, j, grid, to_text(ast),
                              exps, reference)
