"""Benchmark of the basecondary library and the `bck` CLI.

    python3 bench/run.py --workload eval-mix|certify|cli-verbs --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a separate traced run. The lines before it are a readable summary.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import BARE_NOMINAL_S, REF_NOMINAL_S

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("eval-mix", "certify", "cli-verbs")
REQUIRED = ("src/basecondary/__init__.py", "src/basecondary/cli.py", "fixtures/a1367_gcd.json")
SETUP_REPEATS = 3
COLD_START_RUNS = 9
COLD_START_ARGV = ["-m", "basecondary.cli", "eval", "--input", "fixtures/a1367_gcd.json"]
BARE_ARGV = ["-c", "pass"]
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # the traced call counts must repeat exactly
    return env


def git_sha() -> str:
    """HEAD of the checkout, read without git; "unknown" outside a git tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _subprocess_seconds(argv) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    return time.perf_counter() - start, proc


def run_worker(args, setup_only=False, spans_out=None) -> tuple[float, float, dict]:
    """(raw and normalised seconds from process start to "ready", the worker's result).

    Set-up is interpreter start and imports, scaled by a bare interpreter
    start measured just before, plus input generation, scaled by the
    reference loop the worker ran during generation (see speed.py).
    """
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    bare, _ = _subprocess_seconds(BARE_ARGV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    word, *numbers = first.split() or [""]
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {first.strip()!r}")
    wall, net, ref = map(float, numbers)
    scaled = (setup_s - wall) * BARE_NOMINAL_S / bare + net * REF_NOMINAL_S / ref
    lines = rest.strip().splitlines()
    return setup_s, scaled, (json.loads(lines[-1]) if lines else {})


def _json_value(text):
    try:
        return json.loads(text).get("value")
    except (ValueError, AttributeError):
        return None


def cold_start() -> tuple[float, float, int]:
    """Median raw and normalised wall time of sequential `bck eval` subprocesses.

    The bytecode cache is warm: a first, untimed run writes it. Process
    start-up does not track the reference loop of speed.py, but it does track
    a bare `python -c pass` start, so each run is scaled by the mean of the
    bare starts just before and after it, to a bare start of BARE_NOMINAL_S.
    Also returns how many timed runs gave a wrong answer or exit code.
    """
    raw, norm, wrong = [], [], 0
    bare, _ = _subprocess_seconds(BARE_ARGV)
    for i in range(COLD_START_RUNS + 1):
        elapsed, proc = _subprocess_seconds(COLD_START_ARGV)
        after, _ = _subprocess_seconds(BARE_ARGV)
        if i:
            wrong += proc.returncode != 0 or _json_value(proc.stdout) != "-8"
            raw.append(elapsed)
            norm.append(elapsed * BARE_NOMINAL_S / ((bare + after) / 2))
        bare = after
    return statistics.median(raw), statistics.median(norm), wrong


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> dict:
    setups = [run_worker(args, setup_only=True)[:2] for _ in range(SETUP_REPEATS - 1)]
    raw_setup, norm_setup, res = run_worker(args)
    setups.append((raw_setup, norm_setup))
    cold_raw, cold_s, cold_wrong = cold_start()
    failures = res["failures"]
    unexpected = [f for f in failures if not f["known"]]
    attempted = res["attempted"] + COLD_START_RUNS
    metrics = {
        "ops_per_s": metric(res["ops_per_s"], "1/s"),
        "latency_p50_ms": metric(res["latency_p50_ms"], "ms"),
        "latency_tail_ms": metric(res["latency_tail_ms"], "ms"),
        "setup_s": metric(statistics.median(n for _, n in setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "cold_start_ms": metric(1e3 * cold_s, "ms"),
    }
    print(f"workload {args.workload}: {res['attempted']} ops in {res['passes']} units and "
          f"{COLD_START_RUNS} cold starts; latency_tail_ms is p{res['tail_pct']}")
    if res["passes"] < res["units"]:
        print(f"  safety cap: stopped after {res['passes']} of {res['units']} units")
    raw = {
        "ops_per_s": res["raw_ops_per_s"],
        "setup_s": statistics.median(r for r, _ in setups),
        "cold_start_ms": 1e3 * cold_raw,
    }
    for name, m in metrics.items():
        note = f"  (unscaled {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:16s} {m['value']:.4f} {m['unit']}{note}")
    failed = len(failures) + cold_wrong
    print(f"  fail_share       {failed / attempted:.4f} ({failed} of {attempted}; "
          f"{failed - len(unexpected) - cold_wrong} known defects, {len(unexpected) + cold_wrong} unexpected)")
    for f in failures:
        print(f"  failed: pass {f['pass']} op {f['index']} {f['op']}: {'; '.join(f['reasons'])}")
    if cold_wrong:
        print(f"  failed: {cold_wrong} cold-start `bck eval` runs gave a wrong answer")
    return {"correct": not unexpected and not cold_wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(args) -> dict:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_out = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
    _, _, res = run_worker(args, spans_out=spans_out)
    failures = res["failures"]
    unexpected = [f for f in failures if not f["known"]]
    print(f"workload {args.workload} (traced): {res['attempted']} ops; spans in {spans_out}")
    print(f"  tracing overhead: {res['metrics']['trace.overhead_ms']['value']:.1f} ms per unit "
          f"({100 * res['metrics']['trace.overhead_share']['value']:.1f} %)")
    for v in res["sanity"]:
        print(f"  trace sanity violation: {v}")
    for name, m in res["metrics"].items():
        if m["value"]:
            print(f"  {name:52s} {m['value']:.4f} {m['unit']}")
    return {
        "correct": not unexpected,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": res["metrics"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write(f"bench: run from a checkout of the repository; missing {', '.join(missing)}\n")
        return 2
    print(f"env: seed {args.seed}, python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"git {git_sha()}")
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
