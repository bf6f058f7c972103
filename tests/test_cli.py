import csv
import io
import json
import math

import pytest

from dmint.cli import main

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

    def test_truncated_run(self, capsys):
        code, out, err = run(capsys, "reproduce-table", "--nu-max", "4",
                             "--format", "csv")
        assert code == 0
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["integrand"] == "f"]
        assert len(rows) == 5
        err4 = float(rows[4]["D_error"])
        assert err4 == pytest.approx(5.70e-7, rel=0.05)

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
    def test_demo_output(self, capsys):
        code, out, err = run(capsys, "compose", *DEMO_P, "--g=x^2")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "pi_1 = -(16*x^4+15)/(64*x^3)"
        assert lines[1] == "pi_2 = -9/(64*x^2)"
        assert lines[2] == "pi_3 = -1/(64*x)"
        assert lines[3] == "r = (1, -2, -1)"

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
        code, out, err = run(capsys, "compose", "--p=x", "--g=2")
        assert code == 3 and out == ""

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

    def test_non_member_half_grid(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=1/(sqrt(x)+1)^3")
        assert code == 0
        assert "integer_step: no" in out
        assert "member: no" in out

    def test_power_function(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=x^(-2)")
        assert code == 0
        assert "p_1 = -x/2" in out
        assert "member: yes" in out

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=1//x")
        assert code == 2 and out == ""

    def test_coefficient_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "check-b1", "--f=sqrt(1%s*x)" % ("0" * 400))
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "p_1 = 2*x"


class TestAccelerate:
    def test_demo_column(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "sinc(x)^2",
                             "--m", "3", "--grid", "linear:1.6",
                             "--nu-max", "10", "--reference", "pi/2",
                             "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        assert float(rows[3]["D_error"]) == pytest.approx(1.69e-4, rel=0.05)
        assert float(rows[10]["D_error"]) <= 1e-10

    def test_exponential_decays_fast(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "exp(-x)",
                             "--m", "1", "--grid", "linear:1.0",
                             "--nu-max", "6", "--reference", "1",
                             "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[6]["D_error"]) < 1e-10

    def test_window_zero_returns_first_sample(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "f",
                             "--nu-max", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 1
        entry = payload["entries"][0]
        assert entry["D_value"] == entry["F_value"]

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

    def test_singular_exit_4(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "0",
                             "--m", "2", "--grid", "linear:1.0", "--nu-max", "3")
        assert code == 4 and out == ""
        assert "nu=1" in err

    @pytest.mark.parametrize("argv, detail", [
        (("--integrand", "exp(x^2)*exp(-x^2)", "--m", "1", "--grid", "linear:10",
          "--nu-max", "3"),
         "panel 2: integrand failed at node x=27.290083888286137 in panel "
         "[20.0, 30.0]: exp overflow in 'exp(x^2)'"),
        (("--integrand", "exp(x)", "--m", "3", "--grid", "linear:400"),
         "panel 1: integrand failed at node x=723.5752488805288 in panel "
         "[400.0, 800.0]: exp overflow in 'exp(x)'"),
    ])
    def test_overflow_exit_3(self, capsys, argv, detail):
        code, out, err = run(capsys, "accelerate", *argv)
        assert code == 3 and out == ""
        assert err == "invalid input: %s\n" % detail

    def test_syntax_error_exit_2(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "sin(x",
                             "--grid", "linear:1.0")
        assert code == 2 and out == ""

    def test_reference_must_be_constant(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "f",
                             "--nu-max", "1", "--reference", "x+1")
        assert code == 2 and out == ""

    def test_missing_grid_for_custom_integrand(self, capsys):
        code, out, err = run(capsys, "accelerate", "--integrand", "exp(-x)",
                             "--nu-max", "1")
        assert code == 3 and out == ""

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, err = run(capsys, "accelerate", "--integrand", "f",
                             "--nu-max", "1", "--format", "csv",
                             "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("nu,")
