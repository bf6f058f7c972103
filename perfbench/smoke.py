"""Smoke test of the benchmark: every workload, tiny, traced and untraced.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json for one second with --trace 0 and
--trace 1 and checks that the last line is the result object, that every
metric named below and in BENCHMARK.json is emitted with its unit, and
that a copy of the benchmark without the package source exits non-zero
without a result.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("table", "accel-deep", "compose")
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "ok_ratio", "peak_rss_mb")
PER_LAYER = (
    "exprtaylor.parse.ms",
    "exprtaylor.evaluate.calls", "exprtaylor.evaluate.ms", "exprtaylor.evaluate.us_per_call",
    "exprtaylor.derivatives.calls", "exprtaylor.derivatives.ms",
    "quad.cumulative.ms", "quad.cumulative.self_ms",
    "quad.panels", "quad.nodes_per_panel", "quad.bisect_ratio",
    "dtransform.build_system.calls", "dtransform.build_system.ms",
    "dtransform.solve.calls", "dtransform.solve.ms",
    "dtransform.window_dim_max", "dtransform.d_sequence.self_ms",
    "cli.reproduce_table.self_ms",
    "symseries.canonicalize.calls", "symseries.canonicalize.ms",
    "compose.compose_ode.self_ms",
    "bell.l_matrix.ms", "symseries.parse_rational.ms", "symseries.to_text.ms",
    "symseries.compose_poly.ms", "symseries.profile.ms",
    "compose.OdeCoefficients.ms", "compose.order_bounds.ms",
    "compose.pi_degree_max", "compose.pi_coeff_bits_max",
    "trace.ops_per_s", "trace.op_p50_ms", "trace.op_tail_ms",
)


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=180)


def check_result(spec, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d: %s" % (where, proc.returncode, proc.stderr.strip()[-500:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("%s: attempted %r" % (where, result["attempted"]))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append("%s: metrics differ from BENCHMARK.json" % where)
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append("%s: %s missing or without unit %s" % (where, metric["name"], metric["unit"]))
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append("%s: %s = %r" % (where, metric["name"], got["value"]))
    return problems


def check_without_source() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(tmp), "table", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:])]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = {w["name"] for w in spec["workloads"]}
    problems += ["workload %s not declared" % w for w in WORKLOADS if w not in names]
    e2e = {m["name"] for m in spec["end_to_end"]}
    problems += ["end-to-end metric %s not declared" % m for m in END_TO_END if m not in e2e]
    layers = {m["name"] for m in spec["per_layer"]}
    problems += ["per-layer metric %s not declared" % m for m in PER_LAYER if m not in layers]
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    problems += check_without_source()
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
