"""Command-line front end.

Subcommands:

* ``reproduce-table``: run the D^(3) transformation on the two demo
  integrals for nu = 0..10 and check the error decay against the published
  reference values compiled in below.
* ``compose``: transform ODE coefficients under a change of variable.
* ``check-b1``: first-order membership test for a rational function.
* ``accelerate``: run the transformation on a user-supplied integrand.

Exit codes: 0 success, 1 tolerance failure, 2 parse error (of an option too),
3 precondition violation (including exact work beyond the size budget), 4
numerical failure.  On non-zero exit nothing is written to stdout; a single
diagnostic line goes to stderr.  On exit 0, ``reproduce-table`` and
``accelerate`` write one stderr line only where a quadrature panel misses
its tolerance after bisection, naming every such panel.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import compose as compose_mod
from . import expr, symseries

# dtransform and exprtaylor load numpy, so only the numeric handlers import
# them; the exact commands (compose, check-b1) start without numpy.


# The two demo integrals, each as (source, standard grid, I, published
# |F(x_{3nu}) - I|, published |D - I|), the errors for nu = 0..10 to three
# significant digits.  I[f] = pi/2 for f = sinc(x)^2 on x_l = 1.6(l+1);
# I[phi] = 2*sqrt(pi)/3 for phi = sinc(x^2)^2 on x_l = sqrt(1.6(l+1)).
BUILTIN_INTEGRANDS = {
    "f": ("sinc(x)^2", "linear:1.6", math.pi / 2,
          (3.44e-1, 7.86e-2, 4.40e-2, 3.17e-2, 2.37e-2, 1.98e-2,
           1.62e-2, 1.44e-2, 1.23e-2, 1.13e-2, 9.98e-3),
          (3.44e-1, 7.06e-2, 6.96e-3, 1.69e-4, 5.70e-7, 2.48e-7,
           1.32e-8, 1.04e-10, 7.15e-11, 3.88e-12, 4.83e-13)),
    "phi": ("sinc(x^2)^2", "sqrtlinear:1.6", 2.0 * math.sqrt(math.pi) / 3.0,
            (9.64e-2, 1.03e-2, 4.36e-3, 2.66e-3, 1.72e-3, 1.32e-3,
             9.73e-4, 8.14e-4, 6.47e-4, 5.65e-4, 4.70e-4),
            (9.64e-2, 7.06e-3, 8.89e-4, 8.63e-7, 1.88e-6, 5.73e-8,
             9.57e-9, 4.62e-11, 1.65e-10, 1.09e-11, 3.58e-13)),
}

# Checked tolerances: F errors must agree with the reference to two
# significant digits at every nu; D errors must stay within a factor of
# 100 of the reference for nu <= 7 and below 1e-10 at nu = 10 (the
# reference was produced by a different solver at undisclosed precision).
D_RATIO_LIMIT = 100.0
D_FLAT_LIMIT_NU10 = 1e-10

RATIONAL_TEXT_HELP = ("rational text; fractional exponents go in parentheses, "
                      "x^(1/2); x^3/2 means (x^3)/2")


class ToleranceFailure(Exception):
    pass


def _matches_two_digits(value: float, reference: float) -> bool:
    # Agreement when rounded to two significant digits: within half a
    # unit in the reference's second significant digit.
    exponent = math.floor(math.log10(abs(reference)))
    return abs(value - reference) <= 0.5 * 10.0 ** (exponent - 1)


def _error(value: float, reference: float | None) -> str:
    """The error |value - I| to three significant digits, as the reference
    table gives it, or "" where there is no reference I.  An error beyond
    the float range is refused: JSON could not hold it."""
    if reference is None:
        return ""
    if math.isinf(value - reference):
        raise ValueError("an error against the reference %r is beyond the float range"
                         % reference)
    return "%.2e" % abs(value - reference)


def _d_notation(value, reference) -> str:
    return _error(value, reference).replace("e", "D")


# The fields of a table entry, each as (name, its text against the reference
# I), in output order.  CSV writes the texts, JSON the numbers they read.
FIELDS = (
    ("nu", lambda e, reference: "%d" % e.nu),
    ("F_error", lambda e, reference: _error(e.f_value, reference)),
    ("D_error", lambda e, reference: _error(e.d_value, reference)),
    ("D_value", lambda e, reference: repr(e.d_value)),
    ("F_value", lambda e, reference: repr(e.f_value)),
)
CSV_HEADER = ",".join(name for name, _ in FIELDS)


def _csv_rows(table, reference, prefix: str = "") -> list[str]:
    """One CSV row per entry of an extrapolation table, each led by ``prefix``."""
    return [prefix + ",".join(text(e, reference) for _, text in FIELDS) for e in table.entries]


def _json_number(text: str):
    """The number a field's text reads, an int for nu's digits, or None for no text."""
    return None if not text else int(text) if text.isdigit() else float(text)


def _json_obj(table, reference) -> dict:
    """An extrapolation table and its context as one JSON object."""
    return {
        "integrand": table.integrand,
        "grid": table.grid.descriptor,
        "m": table.m,
        "j": table.j,
        "exponents": list(table.exponents),
        "reference": reference,
        "entries": [{name: _json_number(text(e, reference)) for name, text in FIELDS}
                    for e in table.entries],
    }


@functools.cache
def _builtin_ast(name: str) -> expr.Expr:
    """The parsed source of a builtin integrand, parsed once per process."""
    return expr.parse(BUILTIN_INTEGRANDS[name][0])


def _check_demo_tolerances(tables):
    """Return None if all tolerances hold, else a description of the
    first violated row."""
    for name, table in tables.items():
        _, _, exact, f_ref, d_ref = BUILTIN_INTEGRANDS[name]
        for entry in table.entries:
            nu = entry.nu
            f_error, d_error = abs(entry.f_value - exact), abs(entry.d_value - exact)
            if not _matches_two_digits(f_error, f_ref[nu]):
                return ("integrand %s, nu=%d: F error %.3e does not match "
                        "reference %.2e to two digits" % (name, nu, f_error, f_ref[nu]))
            if nu <= 7:
                ratio = d_error / d_ref[nu]
                if ratio > D_RATIO_LIMIT or ratio < 1.0 / D_RATIO_LIMIT:
                    return ("integrand %s, nu=%d: D error %.3e outside factor "
                            "%g of reference %.2e" % (name, nu, d_error,
                                                      D_RATIO_LIMIT, d_ref[nu]))
            if nu == 10 and d_error > D_FLAT_LIMIT_NU10:
                return ("integrand %s, nu=10: D error %.3e above %.0e"
                        % (name, d_error, D_FLAT_LIMIT_NU10))
    return None


def _demo_pretty_lines(tables) -> list[str]:
    lines = ["D^(3) transformation on I[f] (grid linear:1.6) and "
             "I[phi] (grid sqrtlinear:1.6)",
             "",
             " nu  |F(x_3v)-I[f]|  |D[f]-I[f]|   |Phi(x_3v)-I[phi]|  |D[phi]-I[phi]|"]
    i_f, i_phi = BUILTIN_INTEGRANDS["f"][2], BUILTIN_INTEGRANDS["phi"][2]
    for ef, ep in zip(tables["f"].entries, tables["phi"].entries):
        lines.append(" %2d     %s      %s          %s         %s" % (
            ef.nu, _d_notation(ef.f_value, i_f), _d_notation(ef.d_value, i_f),
            _d_notation(ep.f_value, i_phi), _d_notation(ep.d_value, i_phi)))
    return lines


def _warn_unresolved_panels(tables):
    """One stderr line naming every panel whose bisected halves still miss
    the quadrature's tail tolerance; stdout and the exit code stay as they are."""
    named = []
    for table in tables:
        edges = (0.0,) + table.grid.points
        named += ["[%r, %r] of '%s' (tail %.1e of its value)"
                  % (edges[i], edges[i + 1], table.integrand, ratio)
                  for i, ratio in table.unresolved_panels]
    if named:
        from .quad import TAIL_TOLERANCE
        print("warning: quadrature tolerance %g missed after bisection, so F and D may be "
              "off: panel %s" % (TAIL_TOLERANCE, "; ".join(named)), file=sys.stderr)


def _emit(lines: list[str], path: str | None):
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _cmd_reproduce_table(args) -> int:
    from . import dtransform
    # The published table: f and phi at m = 3 for nu = 0..10, in one sweep.
    names = ("f", "phi")
    members = [(_builtin_ast(name), BUILTIN_INTEGRANDS[name][1]) for name in names]
    tables = dict(zip(names, dtransform.d_sequences(members, 3, 10)))
    failure = _check_demo_tolerances(tables)
    if failure is not None:
        raise ToleranceFailure(failure)
    if args.format == "csv":
        lines = ["integrand," + CSV_HEADER]
        for name, table in tables.items():
            lines += _csv_rows(table, BUILTIN_INTEGRANDS[name][2], name + ",")
    elif args.format == "json":
        lines = [json.dumps({name: _json_obj(table, BUILTIN_INTEGRANDS[name][2])
                             for name, table in tables.items()}, indent=2)]
    else:
        lines = _demo_pretty_lines(tables)
    _emit(lines, args.output)
    _warn_unresolved_panels(tables.values())
    return 0


def _cmd_compose(args) -> int:
    coefficients = [symseries.parse_rational(p) for p in args.p]
    g_value = symseries.parse_rational(args.g)
    ode = compose_mod.OdeCoefficients(coefficients)
    result = compose_mod.compose_ode(ode, g_value)
    lines = []
    for k, pik in enumerate(result.pi, start=1):
        lines.append("pi_%d = %s" % (k, "0" if pik is None else symseries.to_text(pik)))
    lines.append("r = (%s)" % ", ".join(
        "-" if rk is None else str(rk) for rk in result.r))
    for name, bounds in (("recursive", result.r_bound_recursive),
                         ("closed", result.r_bound_closed)):
        lines.append("%s bounds: %s" % (name, ", ".join(
            "r_%d <= %d" % (k, bound) for k, bound in enumerate(bounds, start=1)
            if bound is not None)))
    # The theorem needs f in B^(m): every non-zero p_k in A^(i_k) with i_k <= k.
    beyond = [(k, i) for k, i in enumerate(ode.i, start=1) if i is not None and i > k]
    if beyond:
        k, i = beyond[0]
        lines.append("note: p_%d is in A^(%d) and %d > %d, so the equation does not put f "
                     "in B^(%d) and the theorem does not apply" % (k, i, i, k, ode.m))
        # Its conclusion, f(g) in B^(m), read from the orders found above.
        beyond = [(k, r) for k, r in enumerate(result.r, start=1) if r is not None and r > k]
        if beyond:
            k, r = beyond[0]
            lines.append("note: pi_%d is in A^(%d) and %d > %d, so the composed equation "
                         "does not put f(g) in B^(%d)" % (k, r, r, k, ode.m))
        else:
            lines.append("note: every non-zero pi_k has r_k <= k, so the composed equation "
                         "puts f(g) in B^(%d)" % ode.m)
    _emit(lines, args.output)
    return 0


def _cmd_check_b1(args) -> int:
    f_value = symseries.parse_rational(args.f)
    d = max(f_value.numerator.step_denominator, f_value.denominator.step_denominator)
    if d > 2:
        raise symseries.RationalParseError(
            "check-b1 accepts exponent grids no finer than 1/2, got 1/%d" % d)
    report = compose_mod.verify_b1_membership(f_value)
    lines = [
        "p_1 = %s" % symseries.to_text(report.p1),
        "gamma: %s" % report.gamma,
        "integer_step: %s" % ("yes" if report.integer_step else "no"),
        "member: %s" % ("yes" if report.member else "no"),
    ]
    _emit(lines, args.output)
    return 0


def _parse_reference(text: str) -> float:
    from . import exprtaylor
    ast = expr.parse(text)
    if expr.has_variable(ast):
        raise expr.ExprSyntaxError("reference value must not contain x", 0)
    value = exprtaylor.evaluate(ast, 1.0)
    # inf and nan have no JSON form, and no error is measured against them.
    if not math.isfinite(value):
        raise ValueError("reference value must be finite, got %r" % value)
    return value


def _parse_exponents(text: str):
    text = text.strip()
    if text == "friendly":
        return None
    if text.startswith("rho:"):
        try:
            return tuple(int(v) for v in text[4:].split(","))
        except ValueError as exc:
            raise ValueError("bad exponent list %r" % text) from exc
    raise ValueError("exponent mode must be 'friendly' or 'rho:e0,e1,...'")


def _cmd_accelerate(args) -> int:
    from . import dtransform
    builtin = BUILTIN_INTEGRANDS.get(args.integrand)
    if builtin is None:
        grid, reference = args.grid, None
        if grid is None:
            raise ValueError("--grid is required for non-builtin integrands")
    else:
        grid, reference = args.grid or builtin[1], builtin[2]
    if args.reference is not None:
        reference = _parse_reference(args.reference)
    exponents = _parse_exponents(args.exponents)
    ast = expr.parse(args.integrand) if builtin is None else _builtin_ast(args.integrand)
    table = dtransform.d_sequence(ast, grid, args.m, args.nu_max,
                                  exponents=exponents, j=args.j)
    if args.format == "json":
        lines = [json.dumps(_json_obj(table, reference), indent=2)]
    elif args.format == "csv":
        lines = [CSV_HEADER] + _csv_rows(table, reference)
    else:
        # By hand, not from FIELDS: D comes before F and values before
        # errors, and the header is not aligned to the columns.
        lines = ["integrand: %s   grid: %s   m: %d" % (table.integrand,
                                                       table.grid.descriptor, table.m)]
        header = " nu   D_value                    F(x_{j+m*nu})"
        if reference is not None:
            header += "          |D-I|     |F-I|"
        lines.append(header)
        for e in table.entries:
            row = " %2d   %-24.17g   %-24.17g" % (e.nu, e.d_value, e.f_value)
            if reference is not None:
                row += "  %s  %s" % (_d_notation(e.d_value, reference),
                                     _d_notation(e.f_value, reference))
            lines.append(row)
    _emit(lines, args.output)
    _warn_unresolved_panels([table])
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors go to main's exit-code mapping, from subparsers too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dmint",
        description="Accelerate infinite-range integrals and compose ODE "
                    "coefficient systems.")
    # Nothing is required to argparse, so that an unknown option is named
    # before a missing one.  Each command names its required options in
    # ``required``, and main refuses them, or a missing command, itself.
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("reproduce-table",
                       help="reproduce the demo error-decay table and check it")
    p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_reproduce_table, required=())

    p = sub.add_parser("compose",
                       help="transform ODE coefficients under x -> g(x)")
    p.add_argument("--p", action="append",
                   help="coefficient p_k in order k=1..m; use 0 for absent; "
                        + RATIONAL_TEXT_HELP)
    p.add_argument("--g",
                   help="integer-exponent polynomial; " + RATIONAL_TEXT_HELP)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_compose, required=("--p", "--g"))

    p = sub.add_parser("check-b1",
                       help="test f = p_1 f' membership for a rational function")
    p.add_argument("--f", help=RATIONAL_TEXT_HELP)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_check_b1, required=("--f",))

    p = sub.add_parser("accelerate",
                       help="extrapolate the integral of an integrand over [0, inf)")
    p.add_argument("--integrand",
                   help="expression text or builtin name (f, phi); "
                        "write x^(1/2) or (x^1)/2, not x^1/2")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--grid", default=None,
                   help="grid descriptor, e.g. linear:1.6 or sqrtlinear:1.6")
    p.add_argument("--nu-max", type=int, default=10)
    p.add_argument("--j", type=int, default=0,
                   help="index of the first sample each window reads, 0..10000")
    p.add_argument("--reference", default=None,
                   help="exact-value expression, e.g. pi/2 or 2*sqrt(pi)/3")
    p.add_argument("--exponents", default="friendly",
                   help="'friendly' or 'rho:e0,e1,...' with m entries")
    p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_accelerate, required=("--integrand",))
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        parser = _shared_parser()
        args = parser.parse_args(argv)
        missing = [name for name in getattr(args, "required", ("command",))
                   if getattr(args, name.lstrip("-")) is None]
        if missing:
            parser.error("the following arguments are required: " + ", ".join(missing))
        return args.handler(args)
    except ToleranceFailure as exc:
        print("tolerance failure: %s" % exc, file=sys.stderr)
        return 1
    except (argparse.ArgumentError, symseries.RationalParseError, expr.ExprSyntaxError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except expr.SingularSystemError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 3
    except RecursionError:
        print("invalid input: expression nested too deeply", file=sys.stderr)
        return 3
    except OSError as exc:
        print("cannot write output: %s" % exc, file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
