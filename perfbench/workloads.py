"""The three benchmark workloads: seeded inputs, the timed op, the check.

Each workload hands out its inputs a round at a time from one seeded
``random.Random``, so the same seed always yields the same op sequence.
A round holds every input of its workload once, in an order the seed
shuffles, and runs measure whole rounds, so every run does the same mix
of cheap and expensive ops.  Op costs within a workload span up to three
orders of magnitude; fresh random draws per seed moved throughput by a
quarter between seeds.

The timed op calls the package through module attributes looked up at
call time (``cli.main``, ``dtransform.d_sequence``, ...), so the tracing
wrappers installed by ``tracing.py`` see every call.  Checks run after the
timed region; the compose check uses arithmetic of its own.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from dmint import cli, compose, dtransform, symseries


class TableWorkload:
    """``dmint reproduce-table`` in-process: both demo integrals, m=3, nu<=10.

    The input is the paper's fixed table, so the seed changes nothing.  An
    op is correct when the CLI exits 0, i.e. every row meets the
    compiled-in reference tolerances.
    """

    ARGV = ("reproduce-table",)

    def __init__(self, seed: int):
        pass

    def next_round(self):
        return [list(self.ARGV)]

    def warmup(self):
        self.run(list(self.ARGV))

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, output):
        code, out, err = output
        if code != 0:
            return "exit code %d: %s" % (code, err.strip())
        rows = [line for line in out.splitlines() if re.match(r"^\s*\d+\s", line)]
        if len(rows) != 11:
            return "expected 11 table rows, got %d" % len(rows)
        return None

    def report(self, records):
        return []


# The accel-deep catalogue: integrand, grid, exact integral over [0, inf),
# accuracy floor on the best |D - I|.  A floor is ten times the best error
# over nu <= 20 at the commit that introduced this benchmark (x86-64, 80-bit
# longdouble), rounded up to one digit and never below ten ulps of I.
# exp(-x)*cos(x) raises SingularSystemError at nu = 20 on this grid there,
# so every draw of it is a failed op until the window solve is fixed; its
# floor is the generic 1e-12.  Integrands singular at 0 (sin(x)/sqrt(x))
# are left out: the smooth-panel rule reaches only about 1e-6 on them,
# which is an accuracy gap, not a speed question.
CATALOGUE = (
    ("sinc(x)^2", "linear:1.6", math.pi / 2, 2e-12),
    ("sinc(x^2)^2", "sqrtlinear:1.6", 2 * math.sqrt(math.pi) / 3, 2e-10),
    ("sinc(x)", "linear:1.6", math.pi / 2, 5e-15),
    ("sinc(x)^3", "linear:1.6", 3 * math.pi / 8, 8e-10),
    ("1/(1+x^2)", "linear:1.6", math.pi / 2, 2e-13),
    ("cos(x)/(1+x^2)", "linear:1.6", math.pi / (2 * math.e), 2e-15),
    ("x*sin(x)/(1+x^2)", "linear:1.6", math.pi / (2 * math.e), 2e-15),
    ("1/(1+x)^2", "linear:1.0", 1.0, 3e-15),
    ("cos(x^2)", "sqrtlinear:1.6", math.sqrt(math.pi / 8), 2e-14),
    ("sin(x^2)", "sqrtlinear:1.6", math.sqrt(math.pi / 8), 2e-14),
    ("exp(-x)*cos(x)", "linear:1.0", 0.5, 1e-12),
)
NU_MAX_RANGE = range(20, 31)
ACCEL_M = 3


@dataclass(frozen=True)
class AccelInput:
    integrand: str
    grid: str
    exact: float
    floor: float
    nu_max: int


class AccelDeepWorkload:
    """``d_sequence`` at m=3 on catalogue integrands with nu_max in 20..30.

    A round is the full design, every integrand with every nu_max once
    (121 ops), in an order shuffled by the seed, so every run does the
    same work whatever the seed.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def next_round(self):
        ops = [AccelInput(*entry, nu) for entry in CATALOGUE for nu in NU_MAX_RANGE]
        self.rng.shuffle(ops)
        return ops

    def warmup(self):
        dtransform.d_sequence("sinc(x)^2", "linear:1.6", ACCEL_M, 2)

    def run(self, inp: AccelInput):
        return dtransform.d_sequence(inp.integrand, inp.grid, ACCEL_M, inp.nu_max)

    def check(self, inp: AccelInput, table):
        values = [entry.d_value for entry in table.entries]
        if len(values) != inp.nu_max + 1:
            return "expected %d windows, got %d" % (inp.nu_max + 1, len(values))
        if not all(math.isfinite(v) for v in values):
            return "non-finite D"
        best = min(abs(v - inp.exact) for v in values)
        if best > inp.floor:
            return "best |D-I| %.3e above floor %.0e" % (best, inp.floor)
        return None

    def report(self, records):
        drawn = sum(1 for inp, _, _ in records if inp.integrand == "exp(-x)*cos(x)")
        return ["accel-deep: %d of %d ops drew exp(-x)*cos(x) (all with nu_max >= 20)"
                % (drawn, len(records))]


# -- compose -----------------------------------------------------------------

COMPOSE_BATCH = 200
COMPOSE_BATCH_SEED = 1234


def _int_poly(rng: random.Random, degree: int, coeff_range: int = 3) -> dict[int, int]:
    # Dense integer polynomial of exactly the given degree.
    terms = {degree: rng.choice([c for c in range(-coeff_range, coeff_range + 1) if c])}
    for n in range(degree):
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[n] = c
    return terms


def _poly_text(terms: dict[int, int]) -> str:
    parts = []
    for n in sorted(terms, reverse=True):
        c = terms[n]
        mono = "" if n == 0 else ("x" if n == 1 else "x^%d" % n)
        if not mono:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


@dataclass(frozen=True)
class ComposeInput:
    index: int
    m: int
    p_text: tuple[str, ...]
    g_text: str
    p_terms: tuple  # per k: None or (numerator terms, denominator terms)
    g_terms: dict


def compose_batch():
    """Random class-B instances in the shape of the acceptance oracle.

    m in 1..4 and s in 1..3 uniform; p_k (k < m) absent with probability
    1/4, else integer entries in [-3, 3], denominator degree 0..2 and
    order i_k in max(-deg, k-3)..k, so i_k <= k; g of degree s with
    leading coefficient 1..3.  The draws follow the oracle's order, so
    its seed gives the oracle's 200 instances.
    """
    rng = random.Random(COMPOSE_BATCH_SEED)
    batch = []
    for index in range(COMPOSE_BATCH):
        m = rng.randint(1, 4)
        s = rng.randint(1, 3)
        p_terms = []
        for k in range(1, m + 1):
            if k < m and rng.random() < 0.25:
                p_terms.append(None)
                continue
            den_deg = rng.randint(0, 2)
            ik = rng.randint(max(-den_deg, k - 3), k)
            numerator = _int_poly(rng, den_deg + ik)
            p_terms.append((numerator, _int_poly(rng, den_deg)))
        g_terms = {s: rng.randint(1, 3)}
        for n in range(s):
            c = rng.randint(-3, 3)
            if c:
                g_terms[n] = c
        p_text = tuple("0" if p is None else "(%s)/(%s)" % (_poly_text(p[0]), _poly_text(p[1]))
                       for p in p_terms)
        batch.append(ComposeInput(index, m, p_text, _poly_text(g_terms), tuple(p_terms), g_terms))
    return batch


class ComposeWorkload:
    """One ``dmint compose`` call per class-B instance, given as text.

    A round is one pass over a fixed batch of 200 instances, the
    acceptance oracle's draws, in an order shuffled by the seed.  The
    fixed batch also lets every run compare its to_text output byte for
    byte with other runs.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.batch = compose_batch()
        self.texts = {}  # instance index -> pi_k texts of its first op

    def next_round(self):
        order = list(self.batch)
        self.rng.shuffle(order)
        return order

    def warmup(self):
        self.run(ComposeInput(-1, 3, ("-(2*x^2+3)/(4*x)", "-3/4", "-x/8"), "x^2", (), {}))

    def run(self, inp: ComposeInput):
        coefficients = [None if text == "0" else symseries.parse_rational(text)
                        for text in inp.p_text]
        g = symseries.parse_rational(inp.g_text)
        result = compose.compose_ode(compose.OdeCoefficients(coefficients), g)
        return tuple("0" if pi is None else symseries.to_text(pi) for pi in result.pi), result

    def check(self, inp: ComposeInput, output):
        texts, result = output
        if self.texts.setdefault(inp.index, texts) != texts:
            return "text differs from an earlier op on the same instance"
        if len(result.pi) != inp.m or result.pi[-1] is None:
            return "pi_m missing"
        return _check_reconstruction(inp, result.pi)

    def report(self, records):
        return ["compose: to_text sha256 over %d of %d batch instances: %s"
                % (len(self.texts), len(self.batch),
                   to_text_digest(self.texts[i] for i in sorted(self.texts)))]


def to_text_digest(texts) -> str:
    """sha256 of every pi_k text, one instance per line, '|' between k."""
    h = hashlib.sha256()
    for pis in texts:
        h.update(("|".join(pis) + "\n").encode())
    return h.hexdigest()


# -- the reconstruction check, in integer dense polynomials of its own -------
# A polynomial is a list of ints, index = exponent.


def _dense(terms: dict[int, int]) -> list[int]:
    out = [0] * (max(terms, default=0) + 1)
    for n, c in terms.items():
        out[n] = c
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:] or [0]


def _substitute(a: list[int], g: list[int]) -> list[int]:
    out = [0]
    for c in reversed(a):
        out = _add(_mul(out, g), [c])
    return out


def _trimmed(a: list[int]) -> list[int]:
    end = len(a)
    while end and a[end - 1] == 0:
        end -= 1
    return a[:end]


def _integer_pair(r):
    """Numerator and denominator of ``r`` as integer polynomials, or None.

    Both are scaled by the lcm of all coefficient denominators, which
    leaves the quotient unchanged.  None if an exponent is not a
    non-negative integer.
    """
    polys = (r.numerator, r.denominator)
    if any(p.step_denominator != 1 or min(p.terms) < 0 for p in polys):
        return None
    scale = 1
    for p in polys:
        for c in p.terms.values():
            scale = math.lcm(scale, c.denominator)
    return tuple(_dense({n: int(c * scale) for n, c in p.terms.items()}) for p in polys)


def _l_table(g: list[int], m: int):
    """L[n][k] from phi^(n) = sum_k f^(k)(g) L[n,k]: L[n+1,k] = L[n,k]' + g' L[n,k-1].

    A recurrence of its own, independent of the Bell enumeration in
    ``dmint.bell``.
    """
    gp = _derivative(g)
    rows = [[[1]] + [[0]] * m]
    for _ in range(m):
        prev = rows[-1]
        rows.append([[0]] + [_add(_derivative(prev[k]), _mul(gp, prev[k - 1]))
                             for k in range(1, m + 1)])
    return rows


def _check_reconstruction(inp: ComposeInput, pi) -> str | None:
    """sum_{n>=k} pi_n L[n,k] == p_k(g) for every k, exactly.

    p_k and g come from the generator's integer terms, not from the
    parser, and the arithmetic is this module's own.  With pi_n = a_n/b_n
    and p_k(g) = P/Q the identity is checked cross-multiplied, so no gcd
    is involved: Q * sum_n a_n L[n,k] prod_{n' != n} b_n' == P * prod_n b_n.
    """
    pairs = {}
    for n, value in enumerate(pi, start=1):
        if value is not None:
            pairs[n] = _integer_pair(value)
            if pairs[n] is None:
                return "pi_%d has a non-integer exponent" % n
    g = _dense(inp.g_terms)
    table = _l_table(g, inp.m)
    for k in range(1, inp.m + 1):
        terms = [n for n in pairs if n >= k]
        den_all = [1]
        lhs = [0]
        for n in terms:
            den_all = _mul(den_all, pairs[n][1])
            part = _mul(pairs[n][0], table[n][k])
            for other in terms:
                if other != n:
                    part = _mul(part, pairs[other][1])
            lhs = _add(lhs, part)
        pk = inp.p_terms[k - 1]
        if pk is None:
            ok = not _trimmed(lhs)
        else:
            P = _substitute(_dense(pk[0]), g)
            Q = _substitute(_dense(pk[1]), g)
            ok = _trimmed(_mul(Q, lhs)) == _trimmed(_mul(P, den_all))
        if not ok:
            return "reconstruction identity fails at k=%d" % k
    return None


_EXPONENT_RE = re.compile(r"x\^\(?(-?\d+)(?:/(\d+))?\)?")


def pi_size_metrics(records) -> dict[str, float]:
    """Highest exponent and widest integer (in bits) in the pi_k texts.

    Read from the normalized text output of the compose ops among
    ``records``, so the numbers do not depend on how the package stores
    its polynomials.
    """
    degree, bits = Fraction(0), 0
    for _, output, _ in records:
        if output is None:
            continue
        for text in output[0]:
            for num, den in _EXPONENT_RE.findall(text):
                degree = max(degree, Fraction(int(num), int(den or 1)))
            if re.search(r"x(?!\^)", text):
                degree = max(degree, Fraction(1))
            for digits in re.findall(r"\d+", _EXPONENT_RE.sub("x", text)):
                bits = max(bits, int(digits).bit_length())
    return {"compose.pi_degree_max": float(degree), "compose.pi_coeff_bits_max": float(bits)}


WORKLOADS = {
    "table": TableWorkload,
    "accel-deep": AccelDeepWorkload,
    "compose": ComposeWorkload,
}
