"""Check that every traced `.calls` count repeats exactly between two runs.

    python3 bench/trace_repeat.py --workload eval-mix --seed 1 --seconds 10

The library is deterministic, so two traced runs on one seed must make the
same calls into every layer. Prints each count that differs and exits 1 if
any does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def traced_metrics(args) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=400, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)
    first, second = traced_metrics(args), traced_metrics(args)
    counts = [name for name in first if name.endswith(".calls")]
    differ = [name for name in counts if first[name]["value"] != second[name]["value"]]
    for name in differ:
        print(f"{name}: {first[name]['value']} then {second[name]['value']}")
    print(f"{args.workload} seed {args.seed}: {len(counts) - len(differ)} of {len(counts)} call counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
