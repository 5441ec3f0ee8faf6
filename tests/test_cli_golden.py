"""Byte-identity of the CLI: every verb on every fixture under four flag sets.

`tests/golden/cli_matrix.jsonl` records the exit code and stdout of each run,
and of `bck --help` (the usage text).
A change that must not move any answer keeps this test passing unchanged.
Rewrite the file (only when an answer is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py

which first prints how many runs change bytes, and how many change exit code
or parsed JSON value. A rewrite for layout alone must change no parsed value.
No answer may print a Python repr such as `Fraction(-4, 1)`.

    PYTHONPATH=src python tests/test_cli_golden.py --check

prints the same counts, rewrites nothing and exits 1 when any run differs
from the file. It needs no pytest, so it checks any Python the package
supports (`requires-python` in pyproject.toml).
"""

import contextlib
import io
import json
import os
import sys

from basecondary.cli import VERBS, main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden", "cli_matrix.jsonl")
FLAG_SETS = (
    (),
    ("--convexifier", "3"),
    ("--samples", "50", "--seed", "7"),
    ("--variant", "maxwell"),
)


def _runs():
    yield "--help", None, ()
    for verb in VERBS:
        for name in sorted(os.listdir(FIXTURES)):
            for flags in FLAG_SETS:
                yield verb, name, flags


def _record(verb, name, flags):
    out, err = io.StringIO(), io.StringIO()
    argv = [verb] if name is None else [verb, "--input", os.path.join(FIXTURES, name), *flags]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"verb": verb, "fixture": name, "flags": list(flags), "exit": code, "stdout": out.getvalue()}


def _matrix():
    return [_record(*run) for run in _runs()]


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _answer(row):
    """A run's exit code and its stdout as parsed JSON (`--help` prints text)."""
    return row["exit"], row["stdout"] if row["verb"] == "--help" else json.loads(row["stdout"])


def test_cli_matrix_is_byte_identical_to_the_golden_file():
    assert _matrix() == _golden()


def test_no_golden_answer_prints_a_python_repr():
    assert not [row for row in _golden() if "Fraction(" in row["stdout"]]


if __name__ == "__main__":
    rows = _matrix()
    old = {(r["verb"], r["fixture"], tuple(r["flags"])): r for r in (_golden() if os.path.exists(GOLDEN) else [])}
    pairs = [(old.get((r["verb"], r["fixture"], tuple(r["flags"]))), r) for r in rows]
    print(
        f"{len(rows)} runs: {sum(o != r for o, r in pairs)} change bytes, "
        f"{sum(o is not None and _answer(o) != _answer(r) for o, r in pairs)} change exit code or parsed value, "
        f"{sum(o is None for o, _ in pairs)} are new"
    )
    if sys.argv[1:] == ["--check"]:
        sys.exit(0 if os.path.exists(GOLDEN) and rows == _golden() else 1)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
