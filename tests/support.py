"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

from dmint import cli, expr, symseries
from dmint.compose import OdeCoefficients, compose_ode
from dmint.symseries import (
    GeneralizedPolynomial,
    GeneralizedRational,
    RationalParseError,
    parse_rational,
)


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


def _reference_monomial_power(base, exponent):
    if base.is_zero:
        raise RationalParseError("fractional power of zero")
    if (base.denominator != GeneralizedPolynomial.one()
            or len(base.numerator.terms) != 1):
        raise RationalParseError(
            "fractional powers are only supported on monomials like x or 4*x")
    (n, c), = base.numerator.terms.items()
    q = exponent.denominator
    root = Fraction(symseries._integer_root(c.numerator, q),
                    symseries._integer_root(c.denominator, q))
    e = Fraction(n, base.numerator.step_denominator) * exponent
    return GeneralizedRational(
        GeneralizedPolynomial.monomial(root ** exponent.numerator, e.numerator, e.denominator))


def reference_lower(node):
    # Every sub-expression, down to x and each literal, is a canonical
    # GeneralizedRational, and each operation is the rational one.
    if isinstance(node, expr.BinOp):
        value = reference_lower(node.left)
        rhs = reference_lower(node.right)
        if node.op == "+":
            return value + rhs
        if node.op == "-":
            return value - rhs
        if node.op == "*":
            return value * rhs
        if rhs.is_zero:
            raise RationalParseError("division by zero in '%s'" % expr.to_text(node))
        return value / rhs
    if isinstance(node, expr.Num):
        return GeneralizedRational(GeneralizedPolynomial.constant(node.value))
    if isinstance(node, expr.Var):
        return GeneralizedRational.variable()
    if isinstance(node, expr.Neg):
        return -reference_lower(node.operand)
    if isinstance(node, expr.Pow):
        value = reference_lower(node.base)
        if node.exponent.denominator != 1:
            return _reference_monomial_power(value, node.exponent)
        if node.exponent < 0 and value.is_zero:
            raise RationalParseError("negative power of zero in '%s'" % expr.to_text(node))
        return value ** node.exponent.numerator
    if isinstance(node, expr.Call) and node.func == "sqrt":
        return _reference_monomial_power(reference_lower(node.arg), Fraction(1, 2))
    raise RationalParseError("'%s' is not a rational function of x" % expr.to_text(node))


def tree_key(node):
    """A parse tree as tuples of each node's class name and fields: equal for
    structurally equal trees.  A left-nested chain is one flat tuple, so a
    1500-term sum compares at the default recursion limit."""
    first, ops = expr.left_chain(node)
    key = (type(first).__name__,) + tuple(
        tree_key(value) if isinstance(value, expr.Expr) else value
        for value in (getattr(first, name) for name in first.__slots__))
    return (key,) + tuple((op.op, tree_key(op.right)) for op in ops)


def reference_parse_rational(text):
    """parse_rational as an all-rational walk of the syntax tree.

    The reference for the lowering in :mod:`dmint.symseries`, which keeps
    sub-expressions as polynomials until a quotient or a negative power.
    """
    try:
        ast = expr._Parser(text, rational=True).parse()
    except expr.ExprSyntaxError as exc:
        raise RationalParseError(str(exc)) from exc
    return reference_lower(ast)


def assert_canonical(r: GeneralizedRational, num: GeneralizedPolynomial,
                     den: GeneralizedPolynomial):
    """r is num/den in canonical form, checked without dmint's gcd.

    r is the same function (cross-multiplied, the products agree), its
    denominator is monic, and on their common exponent grid both sides are
    polynomials whose gcd, by Euclid over Fractions, is a constant.
    """
    assert r.numerator * den == num * r.denominator
    assert r.denominator.lead_coefficient == 1
    step = lcm(r.numerator.step_denominator, r.denominator.step_denominator)
    a, b = (side.rescaled_terms(step) for side in (r.numerator, r.denominator))
    assert min(a, default=0) >= 0 and min(b) >= 0
    # Dense lists, constant term first, with no zero at the top.
    a, b = ([t.get(n, Fraction(0)) for n in range(max(t, default=-1) + 1)] for t in (a, b))
    while b:
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            a = [c - q * b[n - shift] if n >= shift else c for n, c in enumerate(a[:-1])]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    assert len(a) == 1


# The partial Bell polynomials by enumeration of their multi-indices: the
# oracle for the recurrence of dmint.compose.l_matrix and the jets' chain rule.


@dataclass(frozen=True)
class PartitionIndex:
    """One multi-index j_1..j_{n-k+1} satisfying both defining constraints."""

    n: int
    k: int
    j: tuple[int, ...]

    def coefficient(self) -> int:
        """n! / (prod j_i! * prod (i!)**j_i), always a positive integer."""
        denom = 1
        for i, ji in enumerate(self.j, start=1):
            denom *= factorial(ji) * factorial(i) ** ji
        quotient, remainder = divmod(factorial(self.n), denom)
        if remainder:
            raise ArithmeticError("non-integer multinomial coefficient for %r" % (self,))
        return quotient


def enumerate_indices(n: int, k: int) -> list[PartitionIndex]:
    """All multi-indices of B_{n,k}, in ascending lexicographic order of j."""
    if not (isinstance(n, int) and isinstance(k, int) and 1 <= k <= n):
        raise ValueError("need integers 1 <= k <= n, got n=%r k=%r" % (n, k))
    length = n - k + 1
    out: list[PartitionIndex] = []

    def extend(prefix: list[int], count: int, weight: int):
        i = len(prefix) + 1
        if i == length:
            last = k - count
            if last >= 0 and weight + i * last == n:
                out.append(PartitionIndex(n, k, tuple(prefix + [last])))
            return
        limit = min(k - count, (n - weight) // i)
        for ji in range(limit + 1):
            extend(prefix + [ji], count + ji, weight + i * ji)

    extend([], 0, 0)
    return out


def bell_eval(n: int, k: int, y):
    """Evaluate B_{n,k} at y_1..y_{n-k+1}.

    Works for any values supporting +, * and integer powers: floats,
    Fractions, or GeneralizedRational arguments.
    """
    y = list(y)
    if len(y) != n - k + 1:
        raise ValueError("B_{%d,%d} takes %d arguments, got %d" % (n, k, n - k + 1, len(y)))
    total = None
    for index in enumerate_indices(n, k):
        term = index.coefficient()
        for i, ji in enumerate(index.j):
            if ji:
                term = term * y[i] ** ji
        total = term if total is None else total + term
    return total


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


# Generated command lines: argparse accepts each, and dmint may refuse it.
POWERS = ("2", "3", "-1", "(1/2)", "(-3/2)", "(2/3)")


def random_text(rng, depth, leaves, functions=()):
    """Expression text of + - * /, integer and (p/q) powers and ``functions``
    over ``leaves``; one text in ten loses its last character."""
    def node(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        kind = rng.randrange(3 if functions else 2)
        if kind == 0:
            return "(%s)%s(%s)" % (node(depth - 1), rng.choice("+-*/"), node(depth - 1))
        if kind == 1:
            return "(%s)^%s" % (node(depth - 1), rng.choice(POWERS))
        return "%s(%s)" % (rng.choice(functions), node(depth - 1))

    text = node(depth)
    return text[:-1] if rng.random() < 0.1 else text


def random_argv(rng):
    """One argument list for any of three commands.  About one in twenty
    carries the unknown option ``--bogus``, half of those in place of the
    command's first option, which is a required one."""
    argv = _accepted_argv(rng)
    draw = rng.random()
    if draw < 0.025:
        argv[1] = "--bogus"
    elif draw < 0.05:
        argv.append("--bogus")
    return argv


def _accepted_argv(rng):
    """One argument list that argparse accepts, for any of three commands."""
    draw = rng.random()
    if draw < 0.6:
        integrand = random_text(rng, 3, ("x", "1", "2", "0.5", "pi"), expr.FUNCTIONS)
        if rng.random() < 0.5:
            integrand = "exp(-x)*" + integrand
        argv = ["accelerate", "--integrand=" + integrand, "--m=%d" % rng.randint(1, 3),
                "--nu-max=%d" % rng.randint(0, 8),
                "--grid=" + rng.choice(("linear:1.0", "linear:1.6", "sqrtlinear:1.6",
                                        "linear:-1", "cubic:1")),
                "--format=" + rng.choice(("pretty", "csv", "json"))]
        reference = rng.choice((None, "1", "pi/2", "10^400"))
        return argv if reference is None else argv + ["--reference=" + reference]
    if draw < 0.8:
        return ["check-b1", "--f=" + random_text(rng, 3, ("x", "1", "2", "3"))]
    p = ["--p=" + random_text(rng, 2, ("x", "1", "2")) for _ in range(rng.randint(1, 3))]
    return ["compose", *p, "--g=" + rng.choice(("x", "x^2", "x+1", "2*x^2-x", "3", "0"))]


def argv_corpus(seeds, count=300):
    """Each of ``count`` :func:`random_argv` lists per seed, run through
    ``cli.main`` in-process, as (argv, exit code, stdout, stderr)."""
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(count):
            argv = random_argv(rng)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            yield argv, code, out.getvalue(), err.getvalue()


def argv_corpus_digest(seeds, count=300) -> str:
    """sha256 over :func:`argv_corpus`: one call on each of two source trees
    tells whether any list's exit code or output differs between them."""
    digest = hashlib.sha256()
    for run in argv_corpus(seeds, count):
        digest.update(repr(run).encode())
    return digest.hexdigest()


# The benchmark's workloads and the digests of the demo table and of the
# accel-deep catalogue, which tier-1 pins under a correctly rounded libm and CI
# reports for each platform's own.


@functools.cache
def benchmark_workloads():
    """``perfbench/workloads.py``, loaded read-only.

    Its ``CATALOGUE``, ``ACCEL_M`` and ``NU_MAX_RANGE`` are the accel-deep
    design.  ``compose_batch`` is tier-1's one class-B generator,
    ``_check_reconstruction`` its one compose oracle (integer polynomials
    of its own, cross-multiplied, no gcd, so none of dmint's arithmetic
    judges dmint's) and ``to_text_digest`` the digest of the pi_k texts.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def compose_batch_odes():
    """Each instance of the benchmark's compose batch with its ODE and g,
    parsed from their text as ``dmint compose`` reads them."""
    for inp in benchmark_workloads().compose_batch():
        ode = OdeCoefficients([None if text == "0" else parse_rational(text)
                               for text in inp.p_text])
        yield inp, ode, parse_rational(inp.g_text)


def compose_series(m):
    """The ODE with p_k = -(x^2+k)/(x+k) for k = 1..m and its g = x^3+2x+1,
    parsed from their text: the series on which the exact half's growth
    in m is measured."""
    ode = OdeCoefficients([parse_rational("-(x^2+%d)/(x+%d)" % (k, k))
                           for k in range(1, m + 1)])
    return ode, parse_rational("x^3+2*x+1")


def compose_series_digest(ms) -> str:
    """sha256 over every pi_k's ``to_text`` of :func:`compose_series` at each
    m of ``ms``: one call on each of two source trees tells whether any
    composed coefficient differs between them."""
    digest = hashlib.sha256()
    for m in ms:
        ode, g = compose_series(m)
        texts = ["0" if pik is None else symseries.to_text(pik)
                 for pik in compose_ode(ode, g).pi]
        digest.update(("m=%d: %s\n" % (m, ", ".join(texts))).encode())
    return digest.hexdigest()


def demo_digests() -> dict[str, str]:
    """sha256 of the ``reproduce-table`` output in each format, and of every
    D and F (in hex) of the accel-deep catalogue at its m, nu_max 20 and 30,
    one ``d_sequence`` each."""
    from dmint import d_sequence
    digests = {}
    for name, fmt in (("CSV", "csv"), ("JSON", "json"), ("pretty", "pretty")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["reproduce-table", "--format", fmt])
        digests["reproduce-table " + name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    workloads = benchmark_workloads()
    accel = hashlib.sha256()
    for integrand, grid, *_ in workloads.CATALOGUE:
        for nu_max in (20, 30):
            entries = d_sequence(integrand, grid, workloads.ACCEL_M, nu_max).entries
            accel.update(" ".join("%s %s" % (e.d_value.hex(), e.f_value.hex())
                                  for e in entries).encode())
    digests["accel-deep (D, F)"] = accel.hexdigest()
    return digests


# demo_digests with this platform's libm on x86-64 Linux (glibc).
NATIVE_DIGESTS = {
    "reproduce-table CSV": "09f53648c9a5db808d0a100ce539790e3f43b7d3ae7948c686b2a74fa0d42c0a",
    "reproduce-table JSON": "65347c1fab617dfe66521cb08a25ed8735d02d1c3c6bd79598222e4381e76113",
    "reproduce-table pretty": "281b78cb94e96d49734c3ba65c0b0945b615f5b2beae315a50bf3c39f3003e2d",
    "accel-deep (D, F)": "73f125d19064b76f9e6e1c9b72de83cb4a3c302c9cbca3302b77e8df478e8132",
}


def report_platform_digests():
    """Print this platform's :func:`demo_digests` and whether each is the
    x86-64 Linux value; a platform whose libm rounds otherwise differs, so
    nothing here fails."""
    for name, digest in demo_digests().items():
        verdict = "matches" if digest == NATIVE_DIGESTS[name] else "differs from"
        print("%s sha256 %s %s the x86-64 Linux value" % (name, digest, verdict))
