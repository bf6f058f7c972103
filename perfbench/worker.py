"""One closed-loop run of one workload, in a process of its own.

``run.py`` starts this script with the package source first on
PYTHONPATH and BLAS/OpenMP thread counts set to 1.  One client issues ops
back to back, a workload round at a time, and stops after the round in
which the ops have kept it busy for ``--seconds`` at the reference machine
speed (calibrate.py).  Only the ops are timed; each round's inputs are
generated before its first op.  Each op's output is
checked after the timed region.  The script prints one JSON object on
stdout: the op counts, the metrics and lines of context for the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

TAIL_BEYOND = 10
LOOP_WINDOW = 5


def tail_latency(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile); with too few samples for that, the
    maximum and 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory the package must load from")
    args = parser.parse_args(argv)

    import numpy as np
    import dmint

    loaded = Path(dmint.__file__).resolve().parent
    if loaded != (Path(args.src) / "dmint").resolve():
        print("dmint loaded from %s, not from %s" % (loaded, args.src), file=sys.stderr)
        return 2

    from calibrate import REFERENCE_S, loop_seconds
    from tracing import Tracer
    from workloads import WORKLOADS, pi_size_metrics

    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    # Each op is timed right after a pass of the calibration loop and its
    # time scaled by the median of the last LOOP_WINDOW passes
    # (calibrate.py); busy time is counted at the reference speed, so a run
    # does the same work whatever the machine's speed at the time.
    records = []  # (input, output or None, exception text or None)
    raw, scaled, loops = [], [], []
    busy = 0.0
    while busy < args.seconds:
        for inp in workload.next_round():
            loops.append(loop_seconds())
            start = perf_counter()
            try:
                output, error = workload.run(inp), None
            except Exception as exc:  # a refused op is counted, not fatal
                output, error = None, "%s: %s" % (type(exc).__name__, exc)
            elapsed = perf_counter() - start
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / statistics.median(loops[-LOOP_WINDOW:]))
            busy += scaled[-1]
            records.append((inp, output, error))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raised, wrong = Counter(), Counter()
    for inp, output, error in records:
        if error is not None:
            raised[error] += 1
            continue
        reason = workload.check(inp, output)
        if reason is not None:
            wrong[reason] += 1
    attempted = len(records)
    failed = sum(raised.values()) + sum(wrong.values())
    ok = attempted - failed

    tail, tail_pct = tail_latency(scaled)
    end_to_end = {
        "ops_per_s": ok / busy,
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ok_ratio": ok / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    scale = busy / sum(raw)
    info = [
        "platform: python %s, numpy %s, longdouble nmant %d, nproc %d, %s"
        % (platform.python_version(), np.__version__, np.finfo(np.longdouble).nmant,
           len(os.sched_getaffinity(0)), platform.machine()),
        "ops: attempted %d, ok %d, raised %d, wrong %d, fail_ratio %.6f, busy %.3f s"
        % (attempted, ok, sum(raised.values()), sum(wrong.values()), failed / attempted, busy),
        "op_tail_ms is p%.2f over %d samples (%d beyond it)"
        % (tail_pct, attempted, min(TAIL_BEYOND, attempted - 1)),
        "speed: calibration loop median %.3f ms over %d ops, reference %.3f ms, busy time scaled by %.4f"
        % (statistics.median(loops) * 1e3, len(loops), REFERENCE_S * 1e3, scale),
        "raw wall clock: ops_per_s %.4f, op_p50_ms %.4f, op_tail_ms %.4f"
        % (ok / sum(raw), statistics.median(raw) * 1e3, tail_latency(raw)[0] * 1e3),
    ]
    info += ["raised x%d: %s" % (count, text[:200]) for text, count in raised.most_common(3)]
    info += ["wrong x%d: %s" % (count, text[:200]) for text, count in wrong.most_common(3)]
    info += workload.report(records)

    if tracer is None:
        metrics = end_to_end
    else:
        metrics = tracer.layer_metrics(attempted, scale)
        metrics.update({"trace." + name: value for name, value in end_to_end.items()})
        metrics.update(pi_size_metrics(records if args.workload == "compose" else []))
        if tracer.absent:
            info.append("absent from the package: " + ", ".join(tracer.absent))

    json.dump({"attempted": attempted, "failed": failed, "correct": not wrong,
               "metrics": metrics, "info": info}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
