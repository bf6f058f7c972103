"""The CI workflow: the steps it keeps, and the worked examples it compares
byte for byte against the installed script."""

import ast
import pathlib
import re
import shlex

import pytest

import support
from dmint.cli import main

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


@pytest.fixture(scope="module")
def steps():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    return {step["name"]: step["run"] for step in workflow["jobs"]["test"]["steps"]
            if "name" in step}


def test_workflow_keeps_its_steps(steps):
    # CI installs numpy, pytest and every oracle a test skips without, so
    # none of them is skipped there unseen; yaml installs as pyyaml.
    oracles = {node.args[0].value for path in pathlib.Path(__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.importorskip"}
    packages = {"numpy", "pytest"} | {{"yaml": "pyyaml"}.get(name, name) for name in oracles}
    install = steps["Install dependencies"].split()
    assert install[:4] == ["python", "-m", "pip", "install"]
    assert sorted(install[4:]) == sorted(packages)
    assert steps["Tier-1 tests"].startswith("pytest ")
    assert steps["Benchmark smoke run"] == "python perfbench/smoke.py"
    script = steps["Installed console script"]
    assert script.startswith("python -m pip install .\n")
    for command in ("reproduce-table", "compose", "check-b1", "accelerate"):
        assert re.search(r"^dmint %s\b" % command, script, re.M), command


def test_digest_step_is_one_support_call(steps, capsys):
    # The step runs the helper that tier-1's digest pin uses, and reports
    # without failing.
    assert steps["Platform digests"] == (
        "PYTHONPATH=tests python -c 'import support; support.report_platform_digests()'")
    support.report_platform_digests()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" sha256 ")[0] for line in lines] == list(support.NATIVE_DIGESTS)


@pytest.mark.parametrize("command", ["compose", "check-b1"])
def test_worked_example_is_the_expected_text(steps, capsys, command):
    # The lines the workflow writes to <command>.expected are what the
    # command it compares them with prints.
    script = steps["Installed console script"].replace("\\\n", " ")
    expected = re.search(r"^printf '%%s\\n' (.*?) > %s\.expected$" % command, script, re.M)
    argv = re.search(r"^dmint (%s .*?) \| tr" % command, script, re.M)
    assert main(shlex.split(argv.group(1))) == 0
    assert capsys.readouterr().out == "".join(
        line + "\n" for line in shlex.split(expected.group(1)))
