import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import dmint
from dmint import cli
from dmint.cli import main

from support import argv_corpus, tree_key

DEMO_P = ("--p=-(2*x^2+3)/(4*x)", "--p=-3/4", "--p=-x/8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReproduceTable:
    def test_default_run_passes(self, capsys):
        code, out, err = run(capsys, "reproduce-table")
        assert code == 0 and err == ""
        lines = out.splitlines()
        row1 = next(line for line in lines if line.strip().startswith("1 "))
        assert "7.86D-02" in row1 and "7.06D-02" in row1

    def test_csv_has_eleven_rows_per_integrand(self, capsys):
        code, out, err = run(capsys, "reproduce-table", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 22
        assert sum(1 for r in rows if r["integrand"] == "f") == 11
        assert sum(1 for r in rows if r["integrand"] == "phi") == 11

    def test_one_sweep_for_both_integrands(self, capsys):
        with dmint.collect_counts() as counts:
            assert run(capsys, "reproduce-table")[0] == 0
        assert (counts["dtransform.sweeps"], counts["dtransform.row_walks"]) == (1, 2)

    def test_each_d_value_is_its_integrand_alone(self, capsys):
        # reproduce-table sweeps f and phi together; each D_value, as
        # printed, is the one accelerate gives for that integrand alone.
        code, out, err = run(capsys, "reproduce-table", "--format", "csv")
        assert code == 0 and err == ""
        table = list(csv.DictReader(io.StringIO(out)))
        for name in ("f", "phi"):
            code, out, err = run(capsys, "accelerate", "--integrand", name,
                                 "--nu-max", "10", "--format", "csv")
            assert code == 0 and err == ""
            alone = [row["D_value"] for row in csv.DictReader(io.StringIO(out))]
            assert len(alone) == 11
            assert [row["D_value"] for row in table if row["integrand"] == name] == alone

    def test_unwritable_output_exit_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.txt"
        code, out, err = run(capsys, "reproduce-table", "--output", str(target))
        assert code == 3 and out == ""
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert str(target) in err and not target.exists()

    def test_tolerance_failure_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "D_FLAT_LIMIT_NU10", 0.0)
        code, out, err = run(capsys, "reproduce-table")
        assert code == 1 and out == ""
        assert err.startswith("tolerance failure: integrand f, nu=10: D error ")
        assert err.endswith(" above 0e+00\n") and err.count("\n") == 1

    @pytest.mark.parametrize("name, error, nu, value, detail", [
        ("phi", "F", 3, 2.80e-3,
         "integrand phi, nu=3: F error 2.663e-03 does not match reference 2.80e-03 "
         "to two digits"),
        ("f", "F", 0, 3.30e-1,
         "integrand f, nu=0: F error 3.439e-01 does not match reference 3.30e-01 "
         "to two digits"),
        # D errors more and less than a factor of 100 from the reference.
        ("f", "D", 2, 1e-5,
         "integrand f, nu=2: D error 6.956e-03 outside factor 100 of reference 1.00e-05"),
        ("phi", "D", 7, 1e-8,
         "integrand phi, nu=7: D error 3.949e-11 outside factor 100 of reference 1.00e-08"),
    ])
    def test_reference_mismatch_exit_1(self, capsys, monkeypatch, name, error, nu, value,
                                       detail):
        # A builtin's record ends with its published |F - I| and |D - I|.
        record = list(cli.BUILTIN_INTEGRANDS[name])
        column = {"F": 3, "D": 4}[error]
        record[column] = record[column][:nu] + (value,) + record[column][nu + 1:]
        monkeypatch.setitem(cli.BUILTIN_INTEGRANDS, name, tuple(record))
        code, out, err = run(capsys, "reproduce-table")
        assert code == 1 and out == ""
        assert err == "tolerance failure: %s\n" % detail

    def test_nu_max_refused_exit_2(self, capsys):
        # The table is the published one, nu = 0..10; argparse's refusal
        # is returned as one line, not raised as SystemExit.
        assert run(capsys, "reproduce-table", "--nu-max", "3") == (
            2, "", "parse error: unrecognized arguments: --nu-max 3\n")

    def test_csv_and_json_agree(self, capsys):
        code, csv_out, _ = run(capsys, "reproduce-table", "--format", "csv")
        assert code == 0
        code, json_out, _ = run(capsys, "reproduce-table", "--format", "json")
        assert code == 0
        payload = json.loads(json_out)
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        for name in ("f", "phi"):
            table_rows = [r for r in rows if r["integrand"] == name]
            for row, record in zip(table_rows, payload[name]["entries"]):
                assert float(row["F_error"]) == record["F_error"]
                assert float(row["D_error"]) == record["D_error"]
                assert float(row["D_value"]) == record["D_value"]


class TestCompose:
    def test_identity_echo(self, capsys):
        code, out, _ = run(capsys, "compose", *DEMO_P, "--g=x")
        assert code == 0
        assert out.splitlines()[0] == "pi_1 = -(2*x^2+3)/(4*x)"
        assert out.splitlines()[2] == "pi_3 = -x/8"

    def test_two_term_system(self, capsys):
        code, out, _ = run(capsys, "compose", "--p=0", "--p=1", "--g=x^2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pi_1 = -1/(4*x^3)"
        assert lines[1] == "pi_2 = 1/(4*x^2)"

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "compose", "--p=x+(", "--g=x")
        assert code == 2 and out == ""
        assert err.count("\n") == 1

    def test_precondition_exit_3(self, capsys):
        code, out, err = run(capsys, "compose", "--p=1/(sqrt(x)+1)", "--g=x^2")
        assert code == 3 and out == ""
        assert run(capsys, "compose", "--p=x", "--g=2") == (
            3, "", "invalid input: g must have degree at least 1\n")
        assert run(capsys, "compose", "--p=x", "--g=0") == (
            3, "", "invalid input: g must not be the zero polynomial\n")

    def test_off_grid_coefficient_rejected_by_name(self, capsys):
        code, out, err = run(capsys, "compose", "--p=x+x^(-15/2)", "--g=x^2")
        assert code == 3 and out == ""
        assert err == ("invalid input: p_1 must have an integer-step expansion with "
                       "integer leading exponent, got leading exponent 1\n")

    @pytest.mark.parametrize("argv, k, i, m, r", [
        (("--p=x^3", "--g=x^2"), 1, 3, 1, 5),
        (("--p=0", "--p=x^3", "--g=x^2"), 2, 3, 2, 3),
        # i_1 = k + 1, one past the class-B limit; g = x keeps pi_1 = p_1.
        (("--p=x^2", "--g=x"), 1, 2, 1, 2),
    ], ids=["p_1 in A^(3)", "p_2 in A^(3)", "p_1 in A^(2)"])
    def test_input_outside_class_b_is_noted(self, capsys, argv, k, i, m, r):
        # The conclusion names pi_1 on each row: r_1 = r > 1.
        code, out, err = run(capsys, "compose", *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == [
            "note: p_%d is in A^(%d) and %d > %d, so the equation does not put f in B^(%d) "
            "and the theorem does not apply" % (k, i, i, k, m),
            "note: pi_1 is in A^(%d) and %d > 1, so the composed equation does not put "
            "f(g) in B^(%d)" % (r, r, m)]
        assert out.count("note:") == 2

    def test_transcendental_coefficient_exit_2(self, capsys):
        code, out, err = run(capsys, "compose", "--p=sin(x)", "--g=x")
        assert code == 2 and out == ""
        assert err == "parse error: 'sin(x)' is not a rational function of x\n"


@pytest.mark.parametrize("argv", [
    ("accelerate", "--integrand", "x^(1/0)*exp(-x)", "--grid", "linear:1", "--m", "1"),
    ("compose", "--p=x^(1/0)", "--g=x"),
])
def test_zero_exponent_denominator_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "parse error: zero exponent denominator (position 5)\n"


class TestCheckB1:
    def test_member(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=1/(x+1)^3")
        assert code == 0
        assert "p_1 = -(x+1)/3" in out
        assert "member: yes" in out

    def test_off_grid_term_past_the_expansion_depth(self, capsys):
        # p_1 = x + (21/2)*x^(-19/2) + ...: off the integer grid 21/2 below
        # its leading term.
        code, out, err = run(capsys, "check-b1", "--f=x^(-19/2)+x")
        assert code == 0 and err == ""
        assert "integer_step: no" in out
        assert "member: no" in out

    def test_root_of_large_degree_exit_2(self, capsys):
        # The root of degree 10^9 is found without building 2^(10^9 - 1),
        # so the grid refusal comes at once.
        start = time.perf_counter()
        code, out, err = run(capsys, "check-b1", "--f=x^(1/1000000000)")
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        assert err == ("parse error: check-b1 accepts exponent grids no finer than 1/2, "
                       "got 1/1000000000\n")

    def test_power_function(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=x^(-2)")
        assert code == 0
        assert "p_1 = -x/2" in out
        assert "member: yes" in out

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=1//x")
        assert code == 2 and out == ""

    def test_zero_function_exit_3(self, capsys):
        # A constant has no order-1 coefficient either.
        for f, detail in (("0", "the zero function is excluded"),
                          ("7", "constant functions have no order-1 coefficient")):
            code, out, err = run(capsys, "check-b1", "--f=" + f)
            assert code == 3 and out == ""
            assert err == "invalid input: %s\n" % detail

    def test_third_root_grid_exit_2(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=x^(1/3)+1")
        assert code == 2 and out == ""
        assert err == ("parse error: check-b1 accepts exponent grids no finer than 1/2, "
                       "got 1/3\n")

    def test_coefficient_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=sqrt(1%s*x)" % ("0" * 400))
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "p_1 = 2*x"

    def test_huge_integer_power(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=x^1000000000")
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "p_1 = x/1000000000"


# Each refusal of accelerate once: its arguments, exit code and one stderr
# line, named by the text at fault.  A text that a library test pins on the
# same input has no row here: that test also pins the exception class, the
# window's nu, or that the check runs before sampling.
REFUSALS = {
    "0": (("--integrand", "0", "--m", "2", "--grid", "linear:1.0", "--nu-max", "3"), 4,
          "numerical failure: window nu=1: matrix has a zero or non-finite column"),
    "exp(x^2)*exp(-x^2)": (("--integrand", "exp(x^2)*exp(-x^2)", "--m", "1",
                            "--grid", "linear:10", "--nu-max", "3"), 3,
                           "invalid input: panel 2: integrand failed at node "
                           "x=26.659343011410638 in panel [20.0, 30.0]: overflow in 'exp(x^2)'"),
    "exp(x)": (("--integrand", "exp(x)", "--m", "3", "--grid", "linear:400"), 3,
               "invalid input: panel 1: integrand failed at node x=717.5431514481525 in "
               "panel [400.0, 800.0]: overflow in 'exp(x)'"),
    # A jet product's sum beyond the float range: ExprDomainError.
    "exp(709)*x*x": (("--integrand", "exp(709)*x*x", "--m", "2", "--grid", "linear:1.2",
                      "--nu-max", "0"), 3,
                     "invalid input: overflow in 'exp(709)*x*x'"),
    # f''(1) = 2! * c_2 is beyond the float range while c_2 is not.
    "exp(708.7)*sin(2*x)": (("--integrand", "exp(708.7)*sin(2*x)", "--m", "3",
                             "--grid", "linear:1.0", "--nu-max", "1"), 4,
                            "numerical failure: window nu=1: matrix has a zero or non-finite "
                            "column"),
    # f, ..., f^(m-1) all vanish at the sample x, so every unknown's row
    # is 0 there and each window holding it would read D = F(x).
    **{integrand: (("--integrand", integrand, "--m", m, "--grid", "linear:1.0",
                    "--nu-max", "8"), 4,
                   "numerical failure: window nu=1: every unknown's row vanishes at the "
                   "sample x=%s, which fixes D = F(%s); another grid avoids it" % (x, x))
       for integrand, m, x in (("(x-2)*exp(-x)", "1", "2.0"),
                               ("(x-2)^2*exp(-x)", "2", "2.0"),
                               ("log(x)*exp(-x)", "1", "1.0"))},
    "sqrtlinear:-1": (("--integrand", "exp(-x)", "--m", "1", "--grid", "sqrtlinear:-1"), 3,
                      "invalid input: sqrtlinear parameter a must be positive, got -1.0"),
    "rho:1,x": (("--integrand", "exp(-x)", "--m", "1", "--grid", "linear:1.0",
                 "--exponents", "rho:1,x"), 3,
                "invalid input: bad exponent list 'rho:1,x'"),
    # Row entries underflow to 0 and break the sweep; the exact
    # elimination that would replace it is refused from its estimate.
    "m-171": (("--integrand", "exp(-x)", "--m", "171", "--grid", "linear:1.0",
               "--nu-max", "1"), 3,
              "invalid input: exact elimination too large (172 rows times 89268 column bits, "
              "15354096 in all, beyond 1000000)"),
    "nu-max-300": (("--integrand", "exp(-x)", "--m", "1", "--grid", "linear:1.0",
                    "--nu-max", "300"), 3,
                   "invalid input: exact elimination too large (301 rows times 300035 column "
                   "bits, 90310535 in all, beyond 1000000)"),
    "no-grid": (("--integrand", "exp(-x)", "--nu-max", "1"), 3,
                "invalid input: --grid is required for non-builtin integrands"),
    "linear:1,2,3": (("--integrand", "exp(-x)", "--m", "1", "--grid", "linear:1,2,3"), 3,
                     "invalid input: linear grids take one or two parameters"),
    "cubic:1": (("--integrand", "exp(-x)", "--m", "1", "--grid", "cubic:1"), 3,
                "invalid input: unrecognized grid descriptor 'cubic:1'"),
    "linear:1.0.0": (("--integrand", "exp(-x)", "--m", "1", "--grid", "linear:1.0.0"), 3,
                     "invalid input: bad number in grid descriptor 'linear:1.0.0'"),
    # inf and nan have no JSON form.
    "10^400": (("--integrand", "f", "--reference", "10^400", "--format", "json"), 3,
               "invalid input: reference value must be finite, got inf"),
    "10^400-10^400": (("--integrand", "f", "--reference", "10^400-10^400",
                       "--format", "json"), 3,
                      "invalid input: reference value must be finite, got nan"),
    # A finite reference whose error is beyond the float range, in every format.
    **{"-10^308 " + fmt: (("--integrand", "10^308*exp(-x)", "--m", "1", "--grid", "linear:1",
                           "--nu-max", "1", "--reference=-10^308", "--format", fmt), 3,
                          "invalid input: an error against the reference "
                          "-1.0000000000000006e+308 is beyond the float range")
       for fmt in ("json", "csv", "pretty")},
    # Checked once, by d_sequence, with its own text.
    "rho:1,2": (("--integrand", "f", "--exponents", "rho:1,2"), 3,
                "invalid input: need 3 exponents, got 2"),
    "foo": (("--integrand", "f", "--exponents", "foo"), 3,
            "invalid input: exponent mode must be 'friendly' or 'rho:e0,e1,...'"),
    "sin(x": (("--integrand", "sin(x", "--grid", "linear:1.0"), 2,
              "parse error: expected ')', found 'end' (position 5)"),
    "x$2": (("--integrand", "x$2", "--m", "1", "--grid", "linear:1.0"), 2,
            "parse error: unexpected character '$' (position 1)"),
    "x x": (("--integrand", "x x", "--m", "1", "--grid", "linear:1.0"), 2,
            "parse error: unexpected 'x' (position 2)"),
    "x+1": (("--integrand", "f", "--reference", "x+1", "--m", "1", "--grid", "linear:1.0"), 2,
            "parse error: reference value must not contain x (position 0)"),
    # x^1/2 is x^(1/2) or (x^1)/2; compose reads it as the latter.
    "x^1/2*exp(-x)": (("--integrand", "x^1/2*exp(-x)", "--m", "1", "--grid", "linear:1.0",
                       "--nu-max", "2"), 2,
                      "parse error: ambiguous exponent: write x^(1/2) or (x^1)/2 (position 3)"),
    # argparse's own refusals, returned by main with the same one line.
    "--m x": (("--integrand", "exp(-x)", "--m", "x"), 2,
              "parse error: argument --m: invalid int value: 'x'"),
    "--tolerance": (("--integrand", "f", "--tolerance", "1e-9"), 2,
                    "parse error: unrecognized arguments: --tolerance 1e-9"),
}


# An unknown option is named before a missing command or required option.
@pytest.mark.parametrize("argv, line", [
    (("--bogus",), "parse error: unrecognized arguments: --bogus"),
    ((), "parse error: the following arguments are required: command"),
    (("compose", "--bogus"), "parse error: unrecognized arguments: --bogus"),
    (("check-b1", "--bogus"), "parse error: unrecognized arguments: --bogus"),
    (("accelerate", "--bogus"), "parse error: unrecognized arguments: --bogus"),
    (("compose", "--p", "x"), "parse error: the following arguments are required: --g"),
], ids=["--bogus", "no command", "compose --bogus", "check-b1 --bogus", "accelerate --bogus",
        "compose without --g"])
def test_refusal_before_the_command(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", line + "\n")


class TestAccelerate:
    @pytest.mark.parametrize("argv, code, line", REFUSALS.values(), ids=list(REFUSALS))
    def test_refusal(self, capsys, argv, code, line):
        start = time.perf_counter()
        assert run(capsys, "accelerate", *argv) == (code, "", line + "\n")
        assert time.perf_counter() - start < 10

    def test_exponential_decays_fast(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "exp(-x)",
                             "--m", "1", "--grid", "linear:1.0",
                             "--nu-max", "6", "--reference", "1",
                             "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[6]["D_error"]) < 1e-10

    def test_builtin_names_and_reference(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "phi",
                             "--nu-max", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"] == "sqrtlinear:1.6"
        assert payload["reference"] == pytest.approx(2 * math.sqrt(math.pi) / 3)

    def test_rho_exponent_mode(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "f",
                             "--nu-max", "5", "--exponents", "rho:1,0,1",
                             "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exponents"] == [1, 0, 1]
        assert payload["entries"][5]["D_error"] < 1e-6

    def test_unresolved_panel_is_named_on_stderr(self, capsys, tmp_path):
        # Panel 0's left half keeps a Legendre tail of 1.8e-1 of its value,
        # and D settles 1.1% away from sqrt(pi).  The run exits 0 with its
        # table, and says so in one stderr line, also with --output.
        argv = ["accelerate", "--integrand", "x^(-1/2)*exp(-x)", "--m", "1",
                "--grid", "linear:1.0"]
        line = ("warning: quadrature tolerance 1e-10 missed after bisection, so F and D "
                "may be off: panel [0.0, 1.0] of 'x^(-1/2)*exp(-x)' (tail 1.8e-01 of its "
                "value)\n")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, line)
        rows = out.splitlines()[2:]
        assert len(rows) == 11 and all(row.split()[1].startswith("1.7535087566")
                                       for row in rows[9:])
        path = tmp_path / "table.txt"
        assert run(capsys, *argv, "--output", str(path)) == (0, "", line)
        assert path.read_text() == out

    def test_pretty_table(self, capsys):
        # " nu   D (%-24.17g)   F (%-24.17g)", then "  |D-I|  |F-I|" in D
        # notation with a reference.  24 characters hold every %.17g text,
        # exp(-x)/100000's exponent forms among them.
        for integrand, nu_max, reference in (
                ("exp(-x)", "2", ()),
                ("exp(-x)", "2", ("--reference", "1")),
                ("exp(-x)/100000", "3", ("--reference", "1/100000"))):
            argv = ("accelerate", "--integrand", integrand, "--m", "1",
                    "--grid", "linear:1.0", "--nu-max", nu_max, *reference)
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            code, csv_out, _ = run(capsys, *argv, "--format", "csv")
            rows = list(csv.DictReader(io.StringIO(csv_out)))
            lines = out.splitlines()
            assert lines[0] == "integrand: %s   grid: linear:1.0   m: 1" % integrand
            header = " nu   D_value                    F(x_{j+m*nu})"
            if reference:
                header += "          |D-I|     |F-I|"
            assert lines[1] == header
            assert len(lines) == 2 + len(rows) == 3 + int(nu_max)
            for line, row in zip(lines[2:], rows):
                assert line[:6] == " %2d   " % int(row["nu"])
                assert float(line[6:30]) == float(row["D_value"])
                assert float(line[33:57]) == float(row["F_value"])
                assert line[30:33] == "   " and len(line) == (77 if reference else 57)
                if reference:
                    assert line[57:] == "  %s  %s" % tuple(
                        ("%.2e" % float(row[key])).replace("e", "D")
                        for key in ("D_error", "F_error"))

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, err = run(capsys, "accelerate", "--integrand", "f",
                             "--nu-max", "1", "--format", "csv",
                             "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("nu,")


class TestOutputFormats:
    @staticmethod
    def formats(capsys, *argv):
        """The CSV rows and the JSON entries of one accelerate run."""
        argv = ("accelerate", "--integrand", "sinc(x)^2", "--m", "3",
                "--grid", "linear:1.6") + argv
        code, csv_out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0 and err == ""
        code, json_out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        return csv_out, list(csv.DictReader(io.StringIO(csv_out))), \
            json.loads(json_out)["entries"]

    def test_csv_json_numeric_equivalence(self, capsys):
        csv_out, rows, records = self.formats(capsys, "--nu-max", "10", "--reference", "pi/2")
        assert len(rows) == len(records) == 11
        for row, record in zip(rows, records):
            assert int(row["nu"]) == record["nu"]
            assert float(row["F_error"]) == record["F_error"]
            assert float(row["D_error"]) == record["D_error"]
            assert float(row["D_value"]) == record["D_value"]
            assert float(row["F_value"]) == record["F_value"]
        assert csv_out.startswith("nu,F_error,D_error,D_value,F_value\n")
        assert list(records[0]) == ["nu", "F_error", "D_error", "D_value", "F_value"]

    def test_errors_blank_without_reference(self, capsys):
        _, rows, records = self.formats(capsys, "--nu-max", "2")
        assert all(row["F_error"] == "" and row["D_error"] == "" for row in rows)
        assert all(r["F_error"] is None for r in records)


def test_every_run_keeps_the_exit_code_contract():
    # About 300 generated runs of accelerate, check-b1 and compose: each
    # exits 0..4 with no exception escaping main (one would fail the test).
    # A refusal writes one stderr line and no stdout; a success writes at
    # most the panel warning, and its JSON holds no NaN or Infinity.
    def reject(constant):
        raise ValueError("JSON constant %s" % constant)

    codes = set()
    for argv, code, out, err in argv_corpus([39]):
        codes.add(code)
        assert code in range(5), argv
        if code:
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, argv
        else:
            assert err == "" or (err.startswith("warning: quadrature tolerance ")
                                 and err.count("\n") == 1), argv
            if "--format=json" in argv:
                json.loads(out, parse_constant=reject)
    # Successes, parse errors, invalid inputs and numerical failures all occur.
    assert codes == {0, 2, 3, 4}


def run_fresh(*argv, timeout=60):
    """The CLI in a fresh interpreter, so a traceback on stderr cannot go
    unseen, with warnings as errors as in-process, and a timeout turns a
    hang into a failure."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dmint.__file__)))
    return subprocess.run([sys.executable, "-W", "error", "-m", "dmint.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_exact_fallback_of_a_long_sequence():
    # (x-2)*exp(-x) vanishes at the sample x=2 and its derivative does
    # not: the sweep breaks at its first step and one exact elimination
    # solves all 21 windows, within the timeout and with no warning.  D at
    # nu=20 is the integral, -1.
    result = run_fresh("accelerate", "--integrand", "(x-2)*exp(-x)", "--m", "3",
                       "--grid", "linear:1.0", "--nu-max", "20", "--format", "csv")
    assert result.returncode == 0 and result.stderr == ""
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert len(rows) == 21 and abs(float(rows[20]["D_value"]) + 1) <= 1e-12


DEEP = "(" * 5000 + "x" + ")" * 5000


@pytest.mark.parametrize("argv", [
    ("compose", "--p=" + "(" * 1200 + "x" + ")" * 1200, "--g=x"),
    ("accelerate", "--integrand=" + DEEP, "--grid", "linear:1", "--m", "1"),
    ("check-b1", "--f=" + DEEP),
    ("compose", "--p=" + DEEP, "--g=x"),
])
def test_deep_input_exit_3(argv):
    result = run_fresh(*argv)
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr == "invalid input: expression nested too deeply\n"


def test_flat_sum_of_any_length():
    # A flat sum is a left-nested chain as deep as it is long; every walk of
    # it is a loop, so only nesting meets the recursion limit.
    source = "+".join(["exp(-x)"] * 1500)
    result = run_fresh("accelerate", "--integrand=" + source, "--grid", "linear:1", "--m", "1",
                       "--reference=" + "+".join(["1"] * 1500))
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.startswith("integrand: %s   grid: linear:1" % source)
    node = dmint.parse(source)
    for x0 in (0.5, 1.7, 3.0):
        total = 0.0
        for _ in range(1500):
            total += math.exp(-x0)
        assert dmint.evaluate(node, x0) == total
    text = source + "-" + source
    assert dmint.expr.to_text(dmint.parse(text)) == text
    # The sum nests to the left, and the tests' tree key walks the chain too.
    chain = dmint.parse("exp(-x)")
    for _ in range(1499):
        chain = dmint.expr.BinOp("+", chain, dmint.parse("exp(-x)"))
    assert tree_key(node) == tree_key(chain)


def test_huge_integer_power_integrand_exit_3():
    # x^1000000000 by square and multiply overflows in a few dozen jet
    # products; multiplied out one factor at a time it would run for hours.
    result = run_fresh("accelerate", "--integrand", "x^1000000000*exp(-x)",
                       "--grid", "linear:1", "--m", "1", "--nu-max", "1")
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr.startswith("invalid input: ")
    assert result.stderr.endswith("non-finite value inf\n")


def test_huge_integer_power_compose():
    # Substituting g into x^1000000000 jumps the exponent gap by square and
    # multiply; one product per unit of exponent would run for hours.
    result = run_fresh("compose", "--p=x^1000000000", "--g=x^2")
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.splitlines()[:2] == ["pi_1 = x^1999999999/2", "r = (1999999999)"]


BUDGET = "beyond 500 terms or 1000000 bits)"


@pytest.mark.parametrize("argv, code, err", [
    # Substituting x+1 into x^1000000000 squares x+1 up to 513 terms.
    (("compose", "--p=x^1000000000", "--g=x+1"), 3,
     "invalid input: product too large (about 513 terms and 266760 coefficient bits, "
     + BUDGET),
    # pi_1's substituted numerator meets g' in a gcd list 2*10^7 long.
    (("compose", "--p=(x^2+1)/(x+1)", "--g=x^10000000+x"), 3,
     "invalid input: gcd list too large (about 20000001 terms and 520000026 "
     "coefficient bits, " + BUDGET),
    (("check-b1", "--f=(x^10000000+1)/(x+1)"), 2,
     "parse error: gcd list too large (about 10000001 terms and 240000024 coefficient "
     "bits, " + BUDGET + " in '(x^10000000+1)/(x+1)'"),
], ids=["compose-power", "compose-gcd-list", "check-b1-gcd-list"])
def test_exact_work_beyond_the_budget(argv, code, err):
    # Refused inside the exact arithmetic with the command's exit code, 2
    # while reading text and 3 in the work after it, and one diagnostic
    # line; unbounded, each of these runs for minutes.
    result = run_fresh(*argv, timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (code, "", err + "\n")


@pytest.mark.parametrize("argv, first_line", [
    # The substituted pair is coprime as (x^2+1, x+1) is, and pi_1 meets
    # only the monomial g', so no gcd list is built.
    (("compose", "--p=(x^2+1)/(x+1)", "--g=x^10000000+1"),
     "pi_1 = (x^20000000+2*x^10000000+2)/(10000000*x^19999999+20000000*x^9999999)"),
    # f' reduces gcd(den, den') = (x+2)^299 and squares no denominator.
    (("check-b1", "--f=(x+1)^300/(x+2)^300"), "p_1 = (x^2+3*x+2)/300"),
], ids=["compose-coprime-substitution", "check-b1-repeated-factor"])
def test_exact_work_within_the_budget(capsys, argv, first_line):
    # Each was once refused as work beyond the budget.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.splitlines()[0] == first_line


@pytest.mark.parametrize("argv", [
    ("compose", "--p=(x+1)^100000", "--g=x"),
    ("check-b1", "--f=(x+1)^100000"),
])
def test_oversized_power_exit_2(capsys, argv):
    # Refused by the first product of its square and multiply that passes
    # the budget, before the power is built.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("parse error: product too large (about 513 terms and 266760 coefficient "
                   "bits, " + BUDGET + " in '(x+1)^100000'\n")


def test_oversized_product_exit_2(capsys):
    code, out, err = run(capsys, "compose", "--p=(x+1)^250*(x+1)^251", "--g=x")
    assert code == 2 and out == ""
    assert err == ("parse error: product too large (about 502 terms and 254514 coefficient "
                   "bits, " + BUDGET + " in '(x+1)^250*(x+1)^251'\n")


class TestSharedParser:
    """main() builds its parser once; no state may carry between calls."""

    def test_repeated_append_options(self, capsys):
        first = run(capsys, "compose", *DEMO_P, "--g=x^2")
        second = run(capsys, "compose", *DEMO_P, "--g=x^2")
        assert first[0] == 0 and first == second

    def test_defaults_restored_after_an_option(self, capsys):
        code, out, err = run(capsys, "reproduce-table", "--format", "csv")
        assert code == 0 and out.startswith("integrand,nu,")
        code, out, err = run(capsys, "reproduce-table")
        assert code == 0 and out.startswith("D^(3) transformation")
        assert len([line for line in out.splitlines() if line[:3].strip().isdigit()]) == 11

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_builtin_integrands_parsed_once(self, capsys):
        # At most once per process: none if an earlier test parsed them.
        with dmint.collect_counts() as counts:
            for _ in range(3):
                assert run(capsys, "reproduce-table")[0] == 0
                assert run(capsys, "accelerate", "--integrand", "f", "--nu-max", "2")[0] == 0
            builtin = counts["expr.parse"]
            dmint.parse("x")
        assert builtin <= 2 and counts["expr.parse"] == builtin + 1
