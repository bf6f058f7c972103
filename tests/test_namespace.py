"""The lazy package namespace and the numpy-free exact half."""

import os
import subprocess
import sys
import textwrap

import pytest

import dmint

# Every public name of the package namespace, listed here so that none
# can drop out unnoticed.
PUBLIC_NAMES = (
    "GeneralizedPolynomial", "GeneralizedRational",
    "RationalParseError", "compose_poly", "parse_rational", "to_text",
    "l_matrix",
    "B1Report", "CompositionResult", "OdeCoefficients", "OrderBounds",
    "compose_ode", "order_bounds", "rho_bounds", "verify_b1_membership",
    "ExprDomainError", "ExprSyntaxError", "derivatives", "evaluate", "parse",
    "CumulativeIntegrals", "QuadratureError", "SampleGrid", "cumulative",
    "grid_from_descriptor",
    "ExtrapolationTable", "SingularSystemError",
    "TableEntry", "d_sequence", "d_sequences", "friendly_exponents",
)
SUBMODULES = ("bell", "compose", "dtransform", "exprtaylor", "quad", "symseries")


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
        from dmint import dtransform, expr, symseries
        assert dmint.to_text is symseries.to_text
        assert dmint.parse is expr.parse is dtransform.parse
        assert dmint.SingularSystemError is dtransform.SingularSystemError

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dmint.no_such_name

    @pytest.mark.parametrize("name", [
        "TableEntry", "ExtrapolationTable",
        "SampleGrid", "CumulativeIntegrals",
        "CompositionResult", "OrderBounds", "B1Report",
    ])
    def test_result_classes_carry_no_instance_dict(self, name):
        # Results are kept by the thousand; slots keep each one small.
        cls = getattr(dmint, name)
        assert "__slots__" in vars(cls)
        assert all("__dict__" not in vars(klass) for klass in cls.__mro__)


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
    assert result.stdout == "['dmint']\n['dmint', 'dmint.expr']\nFalse\n"


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
    assert result.stdout == ("['dmint', 'dmint.dtransform', 'dmint.expr', "
                             "'dmint.exprtaylor', 'dmint.quad']\n[]\n")


def test_exact_half_runs_without_numpy():
    # numpy set to None in sys.modules makes any import of it fail.
    result = run_python("""
        import sys
        sys.modules["numpy"] = None
        import dmint
        from dmint import cli

        print(repr(dmint.parse("sinc(x)^2")))
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
        Pow(base=Call(func='sinc', arg=Var()), exponent=Fraction(2, 1))
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
