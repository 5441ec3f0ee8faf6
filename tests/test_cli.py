"""Command-line surface: verbs, JSON I/O, exit codes, determinism."""

import json
import os

import pytest

from basecondary.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_unknown_verb(capsys):
    code = main(["frobnicate", "--input", "x"])
    captured = capsys.readouterr()
    assert code == 64
    assert "usage" in captured.err


def test_help(capsys):
    assert main(["--help"]) == 0
    assert "verbs" in capsys.readouterr().out


def test_missing_input_file(capsys):
    code, out = run(capsys, "eval", "--input", "/nonexistent.json")
    assert code == 2
    assert "error" in json.loads(out)


def test_eval_deterministic(capsys):
    code1, out1 = run(capsys, "eval", "--input", fixture("a1367_gcd.json"))
    code2, out2 = run(capsys, "eval", "--input", fixture("a1367_gcd.json"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1) == {"value": "-8"}


def test_simplicial_fixture(capsys):
    code, out = run(capsys, "simplicial", "--input", fixture("a1367_gamma1.json"))
    assert code == 0
    doc = json.loads(out)
    slopes = {tuple(s["linear"]) for s in doc["supports"]}
    assert slopes == {("1",), ("1/3",), ("-2",)}
    assert doc["generic"] is True


def test_subdivision_and_secondary(capsys, tmp_path):
    svg = tmp_path / "lift.svg"
    code, out = run(
        capsys, "subdivision", "--input", fixture("a1367_gamma1.json"), "--svg", str(svg)
    )
    assert code == 0
    assert json.loads(out) == {"cells": [[1, 2], [2, 3], [3, 4]], "triangulation": True}
    assert svg.exists() and svg.read_text().startswith("<svg")
    code, out = run(capsys, "secondary", "--input", fixture("a1367_gamma1.json"))
    assert json.loads(out) == {"value": "47"}


def test_eval_terms(capsys):
    code, out = run(capsys, "eval-terms", "--input", fixture("a1367_gcd.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "-8"
    assert len(doc["terms"]) <= 6
    assert all(set(t) == {"tuple", "f_difference", "volume"} for t in doc["terms"])


def test_domain_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "A": [[1], [3], [6], [7]],
                               "F": {"kind": "neg_gcd"}, "gamma": [1, 2, 3]}))
    code, out = run(capsys, "eval", "--input", str(bad))
    assert code == 2
    assert "gamma" in json.loads(out)["error"]


def test_convexify_and_polytope(capsys, tmp_path):
    doc = {"n": 1, "A": [[1], [3], [6], [7]], "F": {"kind": "neg_gcd"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "convexify", "--input", str(path))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["value"] == "2" and parsed["exact"] is True
    assert len(parsed["walls"]) == 4
    code, out = run(capsys, "polytope", "--input", str(path), "--convexifier", "2")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["certified"] is True
    code, out = run(capsys, "polytope", "--input", str(path))
    assert json.loads(out)["certified"] is False


def test_check_verbs(capsys, tmp_path):
    doc = {"n": 1, "A": [[1], [3], [6], [7]], "F": {"kind": "neg_gcd"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check-circuit-condition", "--input", str(path))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["passed"] is False
    values = {tuple(r["J"]): r["value"] for r in parsed["rows"]}
    assert values[(1, 2, 3)] == "-2"

    doc2 = {"m": 3, "F": {"kind": "neg_card_ratio"}}
    path2 = tmp_path / "q.json"
    path2.write_text(json.dumps(doc2))
    code, out = run(capsys, "check-submodular", "--input", str(path2))
    assert json.loads(out) == {"holds": True}
    code, out = run(capsys, "lovasz", "--input", str(path2))
    assert code == 2  # x missing
    doc2["x"] = [3, 2, 1]
    path2.write_text(json.dumps(doc2))
    code, out = run(capsys, "lovasz", "--input", str(path2))
    assert json.loads(out) == {"value": "-2"}


def test_base_polytope_verb(capsys, tmp_path):
    doc = {
        "m": 2,
        "F": {"kind": "table", "default": "0",
              "values": {"1": "1", "2": "1", "1,2": "1"}},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "base-polytope", "--input", str(path))
    assert code == 0
    assert sorted(json.loads(out)["vertices"]) == [["0", "1"], ["1", "0"]]


def test_morse_verbs(capsys):
    code, out = run(capsys, "morse-support", "--input", fixture("morse_1367.json"))
    assert code == 0
    mu = json.loads(out)["value"]
    code, out = run(capsys, "maxwell-support", "--input", fixture("morse_1367.json"))
    mx = json.loads(out)["value"]
    assert mu == "84" and mx == "36"
    code, out = run(
        capsys, "morse-polytope", "--input", fixture("morse_1367.json"),
        "--variant", "maxwell",
    )
    parsed = json.loads(out)
    assert parsed["certified"] is True and parsed["variant"] == "maxwell"


def test_trop_morse_fixture(capsys, tmp_path):
    svg = tmp_path / "w.svg"
    code, out = run(
        capsys, "trop-morse", "--input", fixture("w_shape.json"), "--svg", str(svg)
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["morse"] is False
    assert "coinciding_critical_values" in parsed["reasons"]
    assert svg.exists()


def test_trop_sample_requires_seed(capsys):
    code, out = run(capsys, "trop-sample", "--input", fixture("trop_012.json"))
    assert code == 2
    assert "seed" in json.loads(out)["error"]
    code, out = run(
        capsys, "trop-sample", "--input", fixture("trop_012.json"),
        "--seed", "3", "--samples", "200",
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["samples"] == 200
    assert parsed["morse_count"] >= 198


def test_output_file_round_trip(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code = main(
        ["eval", "--input", fixture("a1367_gcd.json"), "--output", str(out_path)]
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == {"value": "-8"}


def test_pentagon_polytope_needs_seed(capsys):
    code, out = run(capsys, "polytope", "--input", fixture("pentagon_indicator.json"))
    assert code == 2
    assert "seed" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("lovasz", {"n": 0, "m": "x", "F": {"kind": "table", "values": {}}, "x": [1]}),
        ("eval", {"n": 0, "m": "x", "F": {"kind": "neg_card_ratio"}, "gamma": [1]}),
        ("check-submodular", {"m": 2, "F": {"kind": "table", "values": {"1,a": "1"}}}),
        ("lovasz", {"m": 2, "F": {"kind": "neg_indicator_full", "point": "p"}, "x": [1, 2]}),
        ("trop-sample", {"support": [0, 1, 2], "samples": "many"}),
        ("trop-sample", {"support": [0, 1, 2], "samples": 5, "bound": "big"}),
        ("trop-sample", {"support": [0, "x", 2], "samples": 5}),
        ("trop-morse", {"support": [0, "x", 2], "coefficients": [0, 1, 0]}),
        ("morse-support", {"A": [1, "z", 3], "gamma": [1, 1, 1]}),
        ("maxwell-support", {"A": [1, "z", 3], "gamma": [1, 1, 1]}),
        ("morse-polytope", {"A": [1, "z", 3]}),
        ("morse-support", {"A": [1, 2.5, 3], "gamma": [1, 1, 1]}),
        ("eval", {"n": 0, "m": 2.5, "F": {"kind": "neg_card_ratio"}, "gamma": [1, 2]}),
    ],
)
def test_malformed_integers_exit_2(capsys, tmp_path, verb, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, verb, "--input", str(path), "--seed", "1")
    assert code == 2
    assert "must be an integer" in json.loads(out)["error"]
