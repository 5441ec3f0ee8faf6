"""Regenerate the numbers of the ROADMAP "Baseline" section.

    python3 bench/baseline.py

Runs the tier-1 suite unmodified with `-s --durations=5`, then parses the
acceptance suite's `criterion N (label): PASS in X s` lines, the suite total
and the slowest tests. Then times `bck` verbs on `fixtures/` as subprocesses,
the way a user runs them. This is a report, not a benchmark workload: it
prints lines for people and one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import child_env, git_sha  # noqa: E402

CRITERION = re.compile(r"criterion (\d+) \((.*)\): (PASS|FAIL) in ([0-9.]+)s \(limit ([0-9.]+)s\)")
DURATION = re.compile(r"^([0-9.]+)s call\s+(\S+)$", re.M)
SUMMARY = re.compile(r"(\d+) passed.* in ([0-9.]+)s")
BCK_RUNS = (
    ("eval a1367_gcd", ["eval", "--input", "fixtures/a1367_gcd.json"]),
    ("polytope a1367_gcd", ["polytope", "--input", "fixtures/a1367_gcd.json"]),
    ("morse-polytope morse_1367", ["morse-polytope", "--input", "fixtures/morse_1367.json"]),
    ("morse-polytope morse_1367 maxwell",
     ["morse-polytope", "--input", "fixtures/morse_1367.json", "--variant", "maxwell"]),
    ("trop-sample trop_012 10k", ["trop-sample", "--input", "fixtures/trop_012.json", "--seed", "20240817"]),
    ("polytope pentagon 2000 samples",
     ["polytope", "--input", "fixtures/pentagon_indicator.json", "--samples", "2000", "--seed", "20240811"]),
)


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "--durations=5", "--continue-on-collection-errors"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=1800,
    )
    wall = time.perf_counter() - start
    out = proc.stdout
    summary = SUMMARY.search(out)
    return {
        "exit": proc.returncode,
        "passed": int(summary.group(1)) if summary else None,
        "pytest_s": float(summary.group(2)) if summary else None,
        "wall_s": wall,
        "criteria": [
            {"criterion": int(n), "label": label, "status": status, "s": float(s), "limit_s": float(limit)}
            for n, label, status, s, limit in CRITERION.findall(out)
        ],
        "slowest": [{"test": name, "s": float(s)} for s, name in DURATION.findall(out)],
    }


def bck_times() -> list:
    rows = []
    for label, argv in BCK_RUNS:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "basecondary.cli"] + argv,
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600,
        )
        rows.append({"run": label, "exit": proc.returncode, "s": time.perf_counter() - start})
    return rows


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    report = {"python": platform.python_version(), "nproc": os.cpu_count(), "git": git_sha()}
    print(f"env: python {report['python']}, nproc {report['nproc']}, git {report['git']}")
    report["tier1"] = t = tier1()
    print(f"tier-1: {t['passed']} passed in {t['pytest_s']} s (exit {t['exit']})")
    for c in t["criteria"]:
        print(f"  criterion {c['criterion']:2d} {c['status']} {c['s']:7.2f} s (limit {c['limit_s']} s)  {c['label']}")
    for row in t["slowest"]:
        print(f"  slow: {row['s']:7.2f} s  {row['test']}")
    report["bck"] = bck_times()
    for row in report["bck"]:
        print(f"  bck {row['run']:36s} {row['s']:6.2f} s (exit {row['exit']})")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
