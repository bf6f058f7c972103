"""dmint benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload table|accel-deep|compose \\
        --seed N --seconds S --trace 0|1

The package is loaded from ``src/`` of the checkout this script sits in;
nothing is installed or built.  With ``--trace 0`` the run reports the
end-to-end metrics named in BENCHMARK.json: ``setup_s`` from fresh
interpreter launches, the rest from one closed-loop client in a child
process (``worker.py``).  Times are scaled to a reference machine speed
by a calibration loop timed next to each op (``calibrate.py``).  With ``--trace 1`` the child wraps the package's
layer boundaries (``tracing.py``) and reports the per-layer metrics, plus
the traced run's own end-to-end numbers as ``trace.*`` so the tracing
overhead shows.  Lines starting with ``#`` give context (platform, failure
reasons, tail percentile, compose output digest); the last line is the
JSON result.  Exits non-zero, without a result, when the package source
is missing or the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from calibrate import REFERENCE_S, loop_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A user's first command: a fresh interpreter imports dmint and parses an
# integrand.  One unmeasured launch first, so byte-code caches are warm as
# they are for an installed package.  Then half the launches go before the
# workload and half after it, since start-up time on a shared machine
# drifts over seconds.  Each launch follows a pass of the calibration loop;
# the median launch time is scaled by the median loop time.
SETUP_CODE = "import dmint; dmint.parse('sinc(x)^2')"
SETUP_LAUNCHES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def launch_times(count: int, env, deadline: float) -> list[tuple[float, float]]:
    """(calibration loop time, launch time) for ``count`` launches."""
    times = []
    for _ in range(count):
        loop = loop_seconds()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=max(deadline - monotonic(), 1.0))
        times.append((loop, perf_counter() - start))
    return times


def main(argv=None) -> int:
    started = monotonic()
    deadline = started + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run one dmint benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "dmint" / "__init__.py").is_file():
        print("error: package source %s not found" % (SRC / "dmint"), file=sys.stderr)
        return 2
    env = child_env()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_times = []
    try:
        if not args.trace:
            setup_times += launch_times(SETUP_LAUNCHES + 1, env, deadline)[1:]
        child = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--src", str(SRC)],
            env=env, capture_output=True, text=True,
            timeout=max(deadline - monotonic(), 1.0))
        if not args.trace:
            setup_times += launch_times(SETUP_LAUNCHES, env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    sys.stderr.write(child.stderr)
    if child.returncode != 0 or not child.stdout.strip():
        print("error: worker exited with %d" % child.returncode, file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])
    measured = result["metrics"]
    if setup_times:
        loop = statistics.median(t[0] for t in setup_times)
        raw_setup = statistics.median(t[1] for t in setup_times)
        measured["setup_s"] = raw_setup * REFERENCE_S / loop
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print("error: metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
        return 1

    print("# workload %s, seed %d, %g s, trace %d, wall %.1f s"
          % (args.workload, args.seed, args.seconds, args.trace, monotonic() - started))
    if setup_times:
        print("# setup_s: median of %d launches, raw %.4f s, calibration loop %.3f ms"
              % (len(setup_times), raw_setup, loop * 1e3))
    for line in result["info"]:
        print("# " + line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
