"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion is the one tier-1 home of its property: no unit test
repeats it on the same or a smaller input, so an assertion a unit test
would add to one goes into its ``ok`` chain instead.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dmint import collect_counts, dtransform
from dmint.compose import l_matrix
from dmint.cli import BUILTIN_INTEGRANDS
from dmint.compose import OdeCoefficients, compose_ode, rho_bounds, verify_b1_membership
from dmint.dtransform import d_sequence
from dmint.expr import parse
from dmint.exprtaylor import derivatives
from dmint.symseries import GeneralizedPolynomial, parse_rational, to_text

from support import (
    bell_eval,
    benchmark_workloads,
    compose_batch_odes,
    enumerate_indices,
    fd5_first,
    fd5_second,
    partitions_by_block_count,
    random_int_poly,
)

COMPOSE_TEXT_DIGEST = "e64bfd39a764591cacc81a55f46a45f39eea845ff26d3457e1f4d8175ad68b61"
COMPOSE_BOUNDS_DIGEST = "4b52a9ac97e11e2e01716c49db785d87b5fe7f394a80a7b255b7289190708b60"
PI_HALF = math.pi / 2
PHI_REF = 2 * math.sqrt(math.pi) / 3
R = parse_rational


def report(number, label, ok, detail=""):
    print("[criterion %d] %s: %s %s" % (number, label, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed %s" % (number, label, detail)


@pytest.fixture(scope="module")
def demo_tables():
    start = time.monotonic()
    f_table = d_sequence("sinc(x)^2", "linear:1.6", 3, 10)
    phi_table = d_sequence("sinc(x^2)^2", "sqrtlinear:1.6", 3, 10)
    elapsed = time.monotonic() - start
    return f_table, phi_table, elapsed


def test_criterion_1_exact_composition():
    start = time.monotonic()
    ode = OdeCoefficients([R("-(2*x^2+3)/(4*x)"), R("-3/4"), R("-x/8")])
    result = compose_ode(ode, GeneralizedPolynomial({2: 1}))
    elapsed = time.monotonic() - start
    ok = (result.pi[0] == R("-(16*x^4+15)/(64*x^3)")
          and result.pi[1] == R("-9/(64*x^2)")
          and result.pi[2] == R("-1/(64*x)")
          and result.r == (1, -2, -1)
          and result.s == 2
          and elapsed < 1.0)
    report(1, "exact composition", ok, "(%.3f s)" % elapsed)


def _order_failure(s, ode, result):
    """The first order claim a composition breaks, or None."""
    m = ode.m
    if result.r[m - 1] != s * (ode.i[m - 1] - m) + m:
        return "top order r_%d = %s" % (m, result.r[m - 1])
    for k, rk in enumerate(result.r, start=1):
        if rk is None:
            continue
        if rk > k:
            return "closure violated at k=%d" % k
        if not rk <= result.r_bound_recursive[k - 1] <= result.r_bound_closed[k - 1]:
            return "bound chain violated at k=%d" % k
    return None


def test_criterion_2_reconstruction_oracle():
    # The benchmark's 200 instances, composed from their text, and its
    # oracle: p_k(g) == sum_{n>=k} pi_n L[n,k] on integer polynomials of its
    # own, cross-multiplied with no gcd.  It does none of dmint's counted
    # work, so it cannot share a fault with the arithmetic it judges.
    workloads = benchmark_workloads()
    start = time.monotonic()
    composed = [(inp, ode, compose_ode(ode, g)) for inp, ode, g in compose_batch_odes()]
    with collect_counts() as counts:
        failures = [(inp.index, workloads._check_reconstruction(inp, result.pi))
                    for inp, _, result in composed]
    failures += [(inp.index, _order_failure(max(inp.g_terms), ode, result))
                 for inp, ode, result in composed]
    # The pi_k texts, '0' for a vanishing pi_k: the digest the compose
    # benchmark prints.
    digest = workloads.to_text_digest(["0" if pi is None else to_text(pi) for pi in result.pi]
                                      for _, _, result in composed)
    # Every order, both bound families and rho, one instance per line.
    bounds_digest = hashlib.sha256("".join(
        "%r %r %r %r\n" % (result.r, result.r_bound_recursive, result.r_bound_closed,
                           rho_bounds(ode))
        for _, ode, result in composed).encode()).hexdigest()
    elapsed = time.monotonic() - start
    seen = {(inp.m, max(inp.g_terms)) for inp, _, _ in composed}
    detail = next(("instance %d: %s" % failure for failure in failures if failure[1]), "")
    if not detail and any(counts.values()):
        detail = "the oracle did dmint's work: %s" % {k: v for k, v in counts.items() if v}
    if not detail and digest != COMPOSE_TEXT_DIGEST:
        detail = "to_text digest %s" % digest
    if not detail and bounds_digest != COMPOSE_BOUNDS_DIGEST:
        detail = "bounds digest %s" % bounds_digest
    ok = not detail and len(composed) == 200 and len(seen) == 12 and elapsed < 30.0
    report(2, "reconstruction oracle", ok,
           detail or "(%d instances over %d (m,s) combos, %.2f s)"
           % (len(composed), len(seen), elapsed))


def _two_digit_match(value, reference):
    exponent = math.floor(math.log10(abs(reference)))
    return abs(value - reference) <= 0.5 * 10.0 ** (exponent - 1)


def test_criterion_3_table_f_columns(demo_tables):
    f_table, phi_table, _ = demo_tables
    ok = True
    detail = ""
    # |F - I| against pi/2 and 2*sqrt(pi)/3, measured here.
    for name, table, exact in (("f", f_table, PI_HALF), ("phi", phi_table, PHI_REF)):
        reference = BUILTIN_INTEGRANDS[name][3]
        for entry in table.entries:
            f_error = abs(entry.f_value - exact)
            if not _two_digit_match(f_error, reference[entry.nu]):
                ok = False
                detail = "%s nu=%d: %.4e vs %.2e" % (
                    name, entry.nu, f_error, reference[entry.nu])
                break
    report(3, "finite-range error columns", ok, detail)


def test_criterion_4_table_d_columns(demo_tables):
    f_table, phi_table, elapsed = demo_tables
    ok = elapsed < 60.0
    detail = "(%.2f s)" % elapsed
    # |D - I| and |F - I| against pi/2 and 2*sqrt(pi)/3, measured here.
    for name, table, exact in (("f", f_table, PI_HALF), ("phi", phi_table, PHI_REF)):
        reference = BUILTIN_INTEGRANDS[name][4]
        for entry in table.entries:
            d_error, f_error = abs(entry.d_value - exact), abs(entry.f_value - exact)
            if entry.nu <= 7:
                ratio = d_error / reference[entry.nu]
                if not (1.0 / 100.0 <= ratio <= 100.0):
                    ok = False
                    detail = "%s nu=%d: ratio %.1f" % (name, entry.nu, ratio)
            if entry.nu == 10 and d_error > 1e-10:
                ok = False
                detail = "%s nu=10: %.3e" % (name, d_error)
            # A factor of 100 from the reference does not put D below F.
            if entry.nu >= 2 and not d_error < f_error:
                ok = False
                detail = "%s nu=%d: D error %.3e not below F's %.3e" % (
                    name, entry.nu, d_error, f_error)
    report(4, "extrapolated error columns", ok, detail)


def test_criterion_5_exact_model():
    # F(x) = 1 - 1/x with f = x^-2 fits the m=1 model exactly (D = 1):
    # the window nu=1 at samples x_j, x_{j+1}, through the program's sweep.
    worst = 0.0
    for j in range(0, 25):
        xs = [float(j + 1 + t) for t in range(2)]
        g = np.array([[[x * x ** -2.0 for x in xs]]])
        d = dtransform._fs_sweep(g, np.array([[1.0 - 1.0 / x for x in xs]]), 1)[0][1]
        worst = max(worst, abs(d - 1.0))
    ok = worst <= 1e-13
    report(5, "exact-model windows", ok, "worst |D-1| = %.2e" % worst)


def test_criterion_6_bell_suite():
    bell_numbers = (1, 2, 5, 15, 52, 203, 877, 4140)
    ok = True
    detail = ""
    for n in range(1, 9):
        counts = partitions_by_block_count(n)
        total = 0
        for k in range(1, n + 1):
            indices = enumerate_indices(n, k)
            # Each multi-index once, in ascending order, of length n-k+1,
            # with k blocks of total size n.
            if [index.j for index in indices] != sorted({index.j for index in indices}):
                ok, detail = False, "indices repeated or out of order at (%d,%d)" % (n, k)
            for index in indices:
                j, coeff = index.j, index.coefficient()
                if not (len(j) == n - k + 1 and sum(j) == k
                        and sum(i * ji for i, ji in enumerate(j, 1)) == n):
                    ok, detail = False, "index %s outside B_{%d,%d}" % (j, n, k)
                if not (isinstance(coeff, int) and coeff > 0):
                    ok, detail = False, "bad coefficient at (%d,%d)" % (n, k)
            value = bell_eval(n, k, [Fraction(1)] * (n - k + 1))
            if value != counts.get(k, 0):
                ok, detail = False, "stirling mismatch at (%d,%d)" % (n, k)
            total += value
        if total != bell_numbers[n - 1]:
            ok, detail = False, "bell number mismatch at n=%d" % n
    # The lead exponent of L[n,k] is at most s*k - n, with equality when
    # n - k + 1 <= s, for g = x^s and for a random g of degree s.
    rng = random.Random(3)
    for s in (1, 2, 3):
        for g in (GeneralizedPolynomial({s: 1}), random_int_poly(rng, s)):
            if g.lead_coefficient < 0:
                g = g.scaled(-1)
            for (n, k), value in l_matrix(g, 8).items():
                if value.is_zero:
                    continue
                gamma = value.lead_exponent
                if gamma > s * k - n or (n - k + 1 <= s and gamma != s * k - n):
                    ok, detail = False, "exponent bound broken at (%d,%d,s=%d)" % (n, k, s)
    report(6, "bell polynomial suite", ok, detail)


def test_criterion_7_derivative_feed():
    ok = True
    detail = ""
    h = 1e-4
    # f in plain floats, rounded as the jets round: evaluate is row 0 of
    # derivatives, so it cannot judge d[0].
    for source, f in (("(sin(x)/x)^2", lambda t: (math.sin(t) / t) ** 2),
                      ("sin(x^2)^2/x^4", lambda t: math.sin(t * t) ** 2 / (t * t) ** 2)):
        node = parse(source)
        for x0 in [1.6 * j for j in range(1, 12)]:
            d = derivatives(node, x0, 3)
            for got, want, rel in ((d[0], f(x0), 1e-15),
                                   (d[1], fd5_first(f, x0, h), 1e-6),
                                   (d[2], fd5_second(f, x0, h), 1e-6)):
                if abs(got - want) > rel * abs(want):
                    ok = False
                    detail = "%s at x=%.1f" % (source, x0)
    # The chain rule: the jets of outer(inner(x)) against the Bell assembly
    # of the outer and inner jets.
    for sources in (("sinc(x)^2", "x^2", "sinc(x^2)^2"),
                    ("exp(-x)", "x^2+x", "exp(-(x^2+x))"),
                    ("log(x)/x", "x^2+1", "log(x^2+1)/(x^2+1)")):
        outer, inner, composed = map(parse, sources)
        for x0 in (1.3, 2.7, 2.9):
            inner_vals = derivatives(inner, x0, 6)
            outer_vals = derivatives(outer, inner_vals[0], 6)
            composed_vals = derivatives(composed, x0, 6)
            for n in range(1, 6):
                assembled = sum(bell_eval(n, k, inner_vals[1: n - k + 2]) * outer_vals[k]
                                for k in range(1, n + 1))
                if abs(composed_vals[n] - assembled) > 1e-10 * abs(assembled):
                    ok = False
                    detail = "chain rule for %s at x=%.1f n=%d" % (sources[2], x0, n)
    report(7, "derivative feed", ok, detail)


def test_criterion_8_first_order_membership_demo():
    member = verify_b1_membership(R("1/(x+1)^3"))
    non_member = verify_b1_membership(R("1/(sqrt(x)+1)^3"))
    ok = (member.member
          and member.p1 == R("-(x+1)/3")
          and member.gamma == 1
          and not non_member.member
          and not non_member.integer_step
          and non_member.gamma == 1
          and non_member.p1 == R("-2/3") * (R("x") + R("sqrt(x)")))
    report(8, "first-order membership demo", ok)


def test_criterion_9_rho_bounds():
    ode = OdeCoefficients([R("-(2*x^2+3)/(4*x)"), R("-3/4"), R("-x/8")])
    # rho is the closed family of order bounds at s = 1, that of f(x) itself.
    identity = compose_ode(ode, GeneralizedPolynomial({1: 1}))
    ok = rho_bounds(ode) == identity.r_bound_closed == (1, 0, 1)
    for inp, instance, _ in compose_batch_odes():
        bounds = rho_bounds(instance)
        in_class_b = all(ik <= k for k, ik in enumerate(instance.i, start=1) if ik is not None)
        if not (in_class_b and all(bounds[k] <= k + 1 for k in range(inp.m))):
            ok = False
    report(9, "tail exponent bounds", ok)
