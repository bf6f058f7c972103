"""The lazy package namespace, the public refusals that no other test reaches,
the numpy-free exact half, and what tests reach past it."""

import ast
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dmint

# Every public name of the package namespace, listed here so that none
# can drop out unnoticed.
PUBLIC_NAMES = (
    "GeneralizedPolynomial", "GeneralizedRational",
    "RationalParseError", "compose_poly", "parse_rational", "to_text",
    "l_matrix",
    "B1Report", "CompositionResult", "OdeCoefficients",
    "compose_ode", "rho_bounds", "verify_b1_membership",
    "ExprDomainError", "ExprSyntaxError", "derivatives", "evaluate", "parse",
    "CumulativeIntegrals", "QuadratureError", "SampleGrid", "cumulative",
    "grid_from_descriptor",
    "ExtrapolationTable", "SingularSystemError",
    "TableEntry", "d_sequence", "d_sequences", "friendly_exponents", "collect_counts",
)
SUBMODULES = ("compose", "dtransform", "exprtaylor", "quad", "symseries")


def run_python(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dmint.__file__)))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=60)


class TestPublicApi:
    @pytest.mark.parametrize("name", PUBLIC_NAMES + SUBMODULES)
    def test_name_resolves_and_is_listed(self, name):
        assert getattr(dmint, name) is not None
        assert name in dir(dmint)
        assert name in dmint.__all__

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from dmint import *", namespace)
        for name in PUBLIC_NAMES:
            assert namespace[name] is getattr(dmint, name)
        for name in SUBMODULES:
            assert namespace[name] is sys.modules["dmint." + name]

    def test_names_come_from_their_modules(self):
        from dmint import compose, dtransform, expr, symseries
        assert dmint.to_text is symseries.to_text
        assert dmint.l_matrix is compose.l_matrix
        assert dmint.parse is expr.parse is dtransform.parse
        assert dmint.SingularSystemError is dtransform.SingularSystemError

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dmint.no_such_name

    @pytest.mark.parametrize("name", [
        "TableEntry", "ExtrapolationTable",
        "SampleGrid", "CumulativeIntegrals",
        "CompositionResult", "B1Report",
    ])
    def test_result_classes_carry_no_instance_dict(self, name):
        # Results are kept by the thousand; slots keep each one small.
        cls = getattr(dmint, name)
        assert "__slots__" in vars(cls)
        assert all("__dict__" not in vars(klass) for klass in cls.__mro__)


# Each refusal of a public name that no other tier-1 test raises, named by
# its call: the exception class and the whole text.
REFUSALS = {
    "d_sequence(1.5)": (lambda: dmint.d_sequence(1.5, "linear:1.0", 1, 1), TypeError,
                        "integrand must be expression text or a parsed AST"),
    "d_sequence(SampleGrid)": (
        lambda: dmint.d_sequence("exp(-x)", dmint.SampleGrid((1.0, 2.0)), 1, 1), TypeError,
        "grid must be a descriptor string, such as 'linear:1.6'"),
    "derivatives(ast, x, 0)": (lambda: dmint.derivatives(dmint.parse("x"), 1.0, 0),
                               ValueError, "count must be at least 1"),
    "l_matrix(g, 0)": (lambda: dmint.l_matrix(dmint.GeneralizedPolynomial.variable(), 0),
                       ValueError, "m must be at least 1"),
    "GeneralizedPolynomial({0: 0.5})": (lambda: dmint.GeneralizedPolynomial({0: 0.5}),
                                        TypeError,
                                        "coefficients must be exact rationals, got 0.5"),
    "GeneralizedPolynomial({1: 1}, 0)": (lambda: dmint.GeneralizedPolynomial({1: 1}, 0),
                                         ValueError,
                                         "step denominator must be a positive integer"),
    "rescaled_terms(coarser)": (
        lambda: dmint.GeneralizedPolynomial({1: 1}, 2).rescaled_terms(1),
        ValueError, "cannot rescale to a coarser or unrelated grid"),
    "P ** -1": (lambda: dmint.GeneralizedPolynomial.variable() ** -1, ValueError,
                "polynomial powers must be non-negative integers"),
    "R ** 0.5": (lambda: dmint.GeneralizedRational.variable() ** 0.5, ValueError,
                 "rational-function powers must be integers"),
    "GeneralizedRational(0.5)": (lambda: dmint.GeneralizedRational(0.5), TypeError,
                                 "expected polynomial or exact scalar, got 0.5"),
    "GeneralizedRational(1, 0)": (lambda: dmint.GeneralizedRational(1, 0), ZeroDivisionError,
                                  "denominator is the zero function"),
    "GeneralizedPolynomial().lead_exponent": (
        lambda: dmint.GeneralizedPolynomial().lead_exponent, ValueError,
        "the zero polynomial has no leading exponent"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_public_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_import_loads_no_submodule():
    result = run_python("""
        import sys
        import dmint
        print(sorted(m for m in sys.modules if m.startswith("dmint")))
        dmint.parse("x")
        print(sorted(m for m in sys.modules if m.startswith("dmint")))
        print("numpy" in sys.modules)
        """)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['dmint']\n['dmint', 'dmint._stats', 'dmint.expr']\nFalse\n"


def test_numeric_half_loads_no_exact_arithmetic():
    # Jets and the quadrature rule need numpy's arrays only: the numeric
    # half loads neither the exact half nor numpy.polynomial.
    result = run_python("""
        import sys
        import numpy
        before = set(sys.modules)
        import dmint.dtransform
        loaded = set(sys.modules) - before
        print(sorted(m for m in loaded if m.startswith("dmint")))
        print(sorted(m for m in loaded if m.startswith("numpy.polynomial")))
        """)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("['dmint', 'dmint._stats', 'dmint.dtransform', 'dmint.expr', "
                             "'dmint.exprtaylor', 'dmint.quad']\n[]\n")


def test_a_collector_refuses_an_undeclared_name():
    # A misspelt count fails where it is counted, instead of reading 0.
    from dmint._stats import NAMES, count
    with dmint.collect_counts() as counts:
        with pytest.raises(KeyError):
            count("expr.parses")
    assert counts == dict.fromkeys(NAMES, 0)


def test_exact_half_runs_without_numpy():
    # numpy set to None in sys.modules makes any import of it fail.
    result = run_python("""
        import sys
        sys.modules["numpy"] = None
        import dmint
        from dmint import cli

        print(dmint.expr.to_text(dmint.parse("(sinc(x))^(2)")))
        p = [dmint.parse_rational(t) for t in ("-(2*x^2+3)/(4*x)", "-3/4", "-x/8")]
        print(dmint.to_text(p[0]))
        g = dmint.parse_rational("x^2").numerator
        result = dmint.compose_ode(dmint.OdeCoefficients(p), g)
        print([dmint.to_text(pik) for pik in result.pi], result.r)
        print(cli.main(["compose", "--p=-(2*x^2+3)/(4*x)", "--p=-3/4", "--p=-x/8",
                        "--g=x^2"]))
        print(cli.main(["check-b1", "--f=1/(sqrt(x)+1)^3"]))
        print(cli.main(["compose", "--p=x^", "--g=x"]))
        """)
    assert result.stderr == "parse error: expected a rational exponent (position 2)\n"
    assert result.returncode == 0
    assert result.stdout == textwrap.dedent("""\
        sinc(x)^2
        -(2*x^2+3)/(4*x)
        ['-(16*x^4+15)/(64*x^3)', '-9/(64*x^2)', '-1/(64*x)'] (1, -2, -1)
        pi_1 = -(16*x^4+15)/(64*x^3)
        pi_2 = -9/(64*x^2)
        pi_3 = -1/(64*x)
        r = (1, -2, -1)
        recursive bounds: r_1 <= 1, r_2 <= -2, r_3 <= -1
        closed bounds: r_1 <= 1, r_2 <= -2, r_3 <= -1
        0
        p_1 = -(2*x+2*x^(1/2))/3
        gamma: 1
        integer_step: no
        member: no
        0
        2
        """)


def test_every_command_runs_without_dataclasses():
    # dataclasses set to None in sys.modules makes any import of it fail, so
    # no launch pays for it and the inspect, ast and tokenize it loads.
    result = run_python("""
        import sys
        sys.modules["dataclasses"] = None
        from dmint import cli

        codes = [cli.main(argv) for argv in (
            ["compose", "--p=x", "--g=x^2"], ["check-b1", "--f=1/(x+1)"],
            ["reproduce-table"],
            ["accelerate", "--integrand=exp(-x)", "--m=1", "--grid=linear:1.0"])]
        print(codes)
        """)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith("\n[0, 0, 0, 0]\n")


# Every private name of a dmint module that tests/test_*.py reads, and every
# monkeypatch call, named by its method, as "<file>::<function>: <target>"
# under the reason it stays.  The tests pin what dmint outputs; these pin
# how, where no output shows it yet.  tests/support.py is exempt.  How much
# work a run does is read from dmint.collect_counts, not patched in.
COUPLING = {
    "a system that no integrand's samples reach: random, hand-built or an exact model": (
        "test_acceptance::test_criterion_5_exact_model: _fs_sweep",
        "test_dtransform::assert_exact_windows: _exact_d",
        "test_dtransform::test_sweep_windows_match_window_by_window: _fs_sweep",
        "test_dtransform::test_batched_sweep_matches_one_system_at_a_time: _fs_sweep"),
    "a public table swapped: cli's tolerances, exprtaylor.LIBM, or math's own to show a bypass": (
        "test_cli::test_reference_mismatch_exit_1: setitem(cli.BUILTIN_INTEGRANDS, name)",
        "test_cli::test_tolerance_failure_exit_1: setattr(cli, 'D_FLAT_LIMIT_NU10')",
        "test_dtransform::test_one_assembly_per_sequence: setitem(exprtaylor.LIBM, 'pow')",
        "test_libm::test_correctly_rounded_libm_gives_the_platform_independent_digests: "
        "setitem(exprtaylor.LIBM, name)",
        "test_libm::test_no_libm_call_bypasses_the_owner: setitem(exprtaylor.LIBM, name)",
        "test_libm::test_no_libm_call_bypasses_the_owner: setattr(math, name)"),
    "a contract broken on purpose, to show the breach fails fast instead of hanging": (
        "test_symseries::test_a_divisor_off_the_monic_contract_fails_fast: _poly_divmod",
        "test_symseries::test_a_divisor_off_the_monic_contract_fails_fast: "
        "setattr(symseries, '_poly_divmod')"),
    "a numeric kernel against its reference bit for bit, which no expression isolates": (
        "test_quad::<module>: _RULE",
        "test_quad::<module>: _TAIL",
        "test_quad::<module>: _gauss_legendre"),
}
MODULES = {info.name for info in pkgutil.iter_modules(dmint.__path__)}


def coupling(path):
    """The COUPLING entries that one test file holds."""
    found = set()

    def visit(node, scope):
        scope = node.name if isinstance(node, ast.FunctionDef) else scope
        targets = []
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dmint":
            targets = [a.name for a in node.names if a.name[0] == "_"]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            targets = [node.attr]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("setattr", "setitem")
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "monkeypatch"):
            arguments = ", ".join(map(ast.unparse, node.args[:2]))
            targets = ["%s(%s)" % (node.func.attr, arguments)]
        found.update("%s::%s: %s" % (path.stem, scope, target) for target in targets)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_private_references_and_patches_are_allowlisted():
    found = set().union(*map(coupling, Path(__file__).parent.glob("test_*.py")))
    allowed = {entry for entries in COUPLING.values() for entry in entries}
    assert sorted(found - allowed) == [], "add each to COUPLING under its reason"
    assert sorted(allowed - found) == [], "take out of COUPLING what is gone"
