"""One workload process: set up, say "ready", run its units, print one JSON line.

Started by run.py, which times set-up from process start to the "ready" line.
That line carries the input generation time, with and without the reference
sampling of speed.py, and the mean reference time during generation, so
run.py can normalise set-up time.
With --setup-only the process exits right after "ready".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the src path above)
from speed import Speed  # noqa: E402

# wall seconds of the timed phase, as a multiple of --seconds, after which no
# further unit starts
CAP_FACTOR = 3


def run_op(op, ctx, p, around=contextlib.nullcontext):
    """(start_ns, end_ns, reasons) for one op; only op.run is inside the interval.

    `around` is entered just outside the timed region (the tracer uses it to
    switch recording on for the op and off for its check).
    """
    with around():
        start = time.perf_counter_ns()
        try:
            out = op.run(ctx, p)
        except Exception as exc:  # a raising op is a failed op, not a broken run
            return start, time.perf_counter_ns(), [f"raised {type(exc).__name__}: {exc}"]
        end = time.perf_counter_ns()
    try:
        return start, end, op.check(out, ctx, p)
    except Exception as exc:  # a malformed answer can break its check
        return start, end, [f"check raised {type(exc).__name__}: {exc}"]


def run_unit(unit, p, around=lambda index: contextlib.nullcontext()):
    """(op intervals, failures) of one unit at pass index p."""
    intervals, failures = [], []
    ctx: dict = {}
    for index, op in enumerate(unit):
        start, end, reasons = run_op(op, ctx, p, lambda: around(index))
        intervals.append((start, end))
        if reasons:
            failures.append(
                {"op": op.kind, "pass": p, "index": index, "reasons": reasons, "known": set(reasons) <= op.known}
            )
    return intervals, failures


def timed(wl, seconds) -> dict:
    """Run every unit of the workload in order; stop early only past the safety cap.

    The units, and so the op mix behind every percentile, are fixed by the
    seed and --seconds (workloads.unit_count), never by how fast the ops run.
    The cap only keeps a pathologically slow program inside the time limit.
    """
    intervals, failures = [], []
    cap = CAP_FACTOR * seconds
    with Speed() as speed:
        start = time.perf_counter()
        for p, unit in enumerate(wl.units):
            unit_intervals, unit_failures = run_unit(unit, p)
            intervals += unit_intervals
            failures += unit_failures
            if time.perf_counter() - start > cap:
                break
    latencies = [speed.scaled(s, e) for s, e in intervals]
    raw = sum(speed.net_ns(s, e) for s, e in intervals) / 1e9
    pct = tail_pct(len(latencies))
    return {
        "attempted": len(latencies),
        "failures": failures,
        "passes": p + 1,
        "units": len(wl.units),
        "ops_per_s": len(latencies) / sum(latencies),
        "raw_ops_per_s": len(latencies) / raw,
        "latency_p50_ms": 1e3 * central_mean(latencies),
        "latency_tail_ms": 1e3 * percentile(latencies, pct),
        "tail_pct": pct,
    }


def central_mean(values) -> float:
    """The median, estimated as the mean of the values from the 40th to the 60th percentile.

    Op latencies cluster by size and verb. The plain median falls into a gap
    between clusters and jumps across it from run to run; the band's mean
    does not.
    """
    ranked = sorted(values)
    n = len(ranked)
    return statistics.fmean(ranked[n * 40 // 100 : -(-n * 60 // 100)])


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least ten of n ops beyond it (p50 at least)."""
    return max(50, 100 - -(-1000 // n))


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)
    with Speed() as speed:
        start = time.perf_counter_ns()
        wl = workloads.build(args.workload, args.seed, ROOT, args.seconds)
        end = time.perf_counter_ns()
    wall, net = (end - start) / 1e9, speed.net_ns(start, end) / 1e9
    print(f"ready {wall!r} {net!r} {speed.ref(start, end)!r}", flush=True)
    try:
        if args.setup_only:
            return 0
        if args.trace:
            import tracer

            result = tracer.traced(wl, args.seconds, args.spans_out)
        else:
            result = timed(wl, args.seconds)
    finally:
        wl.cleanup()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
