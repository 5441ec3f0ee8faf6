"""Byte-identity of the CLI: every verb on every fixture under four flag sets.

`tests/golden/cli_matrix.jsonl` records the exit code and stdout of each run,
and of `bck --help` (the usage text).
A change that must not move any answer keeps this test passing unchanged.
Rewrite the file (only when an answer is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os

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


def test_cli_matrix_is_byte_identical_to_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = [json.loads(line) for line in fh]
    assert _matrix() == golden


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for row in _matrix():
            fh.write(json.dumps(row, sort_keys=True) + "\n")
