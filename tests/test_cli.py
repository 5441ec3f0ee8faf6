"""Command-line surface: verbs, JSON I/O, exit codes, determinism."""

import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

import basecondary
from basecondary import core, tropical
from basecondary.cli import main
from basecondary.errors import InternalError
from basecondary.exact_core import make_config, rat_str
from basecondary.setfun import is_submodular, neg_gcd_function

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
    assert main(["eval", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: bck eval")
    for verb in ("polytope", "convexify"):
        assert main([verb, "--help"]) == 0
        assert "m <= 5" in capsys.readouterr().out.replace("\n", " ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trop-sample", "--input", fixture("trop_012.json"), "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["eval"], "the following arguments are required: --input"),
        (["eval", "--input", fixture("a1367_gcd.json"), "--frob", "1"], "unrecognized arguments: --frob 1"),
    ],
)
def test_argument_errors_exit_2_with_json(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"error": message}
    assert captured.err == ""


def test_missing_input_file(capsys):
    code, out = run(capsys, "eval", "--input", "/nonexistent.json")
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "case", ["missing", "invalid-json", "directory", "not-utf8", "output-dir", "svg-dir"]
)
def test_unreadable_input_and_unwritable_output_exit_2(capfd, tmp_path, case):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"support": [0, 1, 2], "coefficients": [0, 1, 0]}))
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "latin1.json").write_bytes('{"support": [0, 1], "coefficients": ["\xe9"]}'.encode("latin-1"))
    nowhere = str(tmp_path / "no" / "such" / "dir" / "out")
    argv = {
        "missing": ["--input", str(tmp_path / "absent.json")],
        "invalid-json": ["--input", str(tmp_path / "bad.json")],
        "directory": ["--input", str(tmp_path)],
        "not-utf8": ["--input", str(tmp_path / "latin1.json")],
        "output-dir": ["--input", str(good), "--output", nowhere],
        "svg-dir": ["--input", str(good), "--svg", nowhere],
    }[case]
    code = main(["trop-morse", *argv])
    captured = capfd.readouterr()
    assert code == 2
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


def test_trop_morse_computes_the_critical_points_once(capsys, monkeypatch):
    calls = []
    real = tropical.critical_points
    monkeypatch.setattr(tropical, "critical_points", lambda p: calls.append(p) or real(p))
    code, out = run(capsys, "trop-morse", "--input", fixture("w_shape.json"))
    assert code == 0 and len(json.loads(out)["critical_points"]) == 3
    assert len(calls) == 1


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


@pytest.mark.parametrize("verb, doc, key", [
    ("eval", {"n": 0, "m": 4, "gamma": [1, 2, 3, 4], "F": {"kind": "table", "values": {"1,9": "5", "1,2": "1"}}},
     "[1, 9]"),
    ("check-submodular", {"m": 3, "F": {"kind": "table", "values": {"1,4": "1"}}}, "[1, 4]"),
    ("lovasz", {"m": 2, "x": [1, 2], "F": {"kind": "table", "values": {"0": "1"}}}, "[0]"),
])
def test_table_keys_outside_the_ground_set_exit_2(capsys, tmp_path, verb, doc, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, verb, "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"] == f"table key {key} not within 1..{doc['m']}"


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
    # F({1,2,3,4}) = 1 and 0 elsewhere is not submodular above size 2: refused
    doc["F"] = {"kind": "table", "values": {"1,2,3,4": 1}, "default": 0}
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "convexify", "--input", str(path))
    assert code == 2 and "not submodular above size 2" in json.loads(out)["error"]


def test_unsorted_1d_labels(capsys, tmp_path):
    # labels out of coordinate order used to find no generic cone witness
    doc = {"n": 1, "A": [[3], [1], [2], [4]], "F": {"kind": "neg_gcd"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "convexify", "--input", str(path))
    assert code == 0
    assert json.loads(out)["exact"] is True
    code, out = run(capsys, "polytope", "--input", str(path), "--convexifier", json.loads(out)["value"])
    assert code == 0
    assert json.loads(out)["certified"] is True


@pytest.mark.parametrize("verb, doc", [
    ("polytope", {"n": 1, "A": [[x] for x in range(1, 31)], "F": {"kind": "neg_gcd"}}),
    ("morse-polytope", {"A": list(range(1, 31))}),
])
def test_wide_1d_polytopes_are_refused_at_once(capsys, tmp_path, verb, doc):
    # 30 points have 2^28 triangulations: the cap refuses them before listing any
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, verb, "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out) == {"error": "1D triangulation enumeration capped at m = 16"}


def test_wide_0d_polytopes_are_refused_at_once(capsys, tmp_path):
    # one greedy vertex per order: m! of them, 40,320 at the cap and 9 times that beyond it
    path = tmp_path / "wide0.json"
    path.write_text(json.dumps({"n": 0, "m": 9, "F": {"kind": "neg_card_ratio"}}))
    start = time.perf_counter()
    code, out = run(capsys, "polytope", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out) == {"error": "full vertex enumeration capped at m = 8"}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))  # 1.5 GB, in the child only


_RNG_200 = random.Random("n = 200")
POINTS_200 = [[_RNG_200.randint(-9, 9) for _ in range(200)] for _ in range(203)]  # m = n + 3 seeded points


@pytest.mark.parametrize("verb, doc, message", [
    ("eval", {"n": 0, "m": 3_000_000, "F": {"kind": "neg_card_ratio"}, "gamma": [1]},
     "lift kernel capped at 500000 circuit forms; m = 3000000 at n = 0 has 4499998500000"),
    ("eval", {"n": 0, "m": 1000, "F": {"kind": "neg_card_ratio"}, "gamma": [1]},  # the cap admits m = 1000
     "field 'gamma' must be a list of 1000 rationals"),
    ("eval", {"n": 0, "m": 1001, "F": {"kind": "neg_card_ratio"}, "gamma": [1]},
     "lift kernel capped at 500000 circuit forms; m = 1001 at n = 0 has 500500"),
    ("check-circuit-condition", {"n": 0, "m": 10**9, "F": {"kind": "neg_card_ratio"}},
     "lift kernel capped at 500000 circuit forms; m = 1000000000 at n = 0 has 499999999500000000"),
    ("lovasz", {"m": 10**9, "F": {"kind": "table", "values": {}}, "x": [0]}, "expected a vector of length 1000000000"),
    ("check-submodular", {"m": 10**9, "F": {"kind": "table", "values": {}}}, "exhaustive check capped at m = 16"),
    ("eval", {"n": 0, "m": -3, "F": {"kind": "neg_card_ratio"}, "gamma": [1]}, "ground size must exceed 1"),
    ("eval", {"n": 1, "A": list(range(1, 301)), "F": {"kind": "neg_gcd"}, "gamma": [0] * 300},
     "lift kernel capped at 500000 circuit forms; m = 300 at n = 1 has 4455100"),
    ("eval", {"n": 0, "A": [[]] * 20_000, "F": {"kind": "neg_card_ratio"}, "gamma": [0] * 20_000},
     "lift kernel capped at 500000 circuit forms; m = 20000 at n = 0 has 199990000"),
    ("check-circuit-condition", {"n": 1, "A": list(range(1, 301)), "F": {"kind": "neg_gcd"}},
     "lift kernel capped at 500000 circuit forms; m = 300 at n = 1 has 4455100"),
    ("eval", {"n": 200, "A": POINTS_200, "F": {"kind": "neg_card_ratio"}, "gamma": [0] * 203},  # before the rank check
     "lift kernel capped at 25000000 volume steps; m = 203 at n = 200 has 164024000000"),
])
def test_a_bare_m_is_bounded_before_allocating(tmp_path, verb, doc, message):
    # above the cap no n = 0 label is built, and a table F builds no ground set; listed points, at any n, reach the
    # same cap before their rank check and at the top of `PointConfig.lift_forms`: a 1.5 GB child answers at once
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(basecondary.__file__))}
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "basecondary.cli", verb, "--input", str(path)],
                         capture_output=True, text=True, env=env, preexec_fn=_limit_address_space, timeout=60)
    assert time.perf_counter() - start < 1
    assert (res.returncode, json.loads(res.stdout), res.stderr) == (2, {"error": message}, "")


def test_verbs_of_f_alone_read_listed_points_past_the_lift_cap(capsys, tmp_path):
    # lovasz reads m off 'A' and lifts nothing, so the kernel's cap does not refuse it
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 1, "A": list(range(1, 301)), "F": {"kind": "neg_card_ratio"}, "x": [0] * 300}))
    assert run(capsys, "lovasz", "--input", str(path)) == (0, '{"value": "0"}\n')


@pytest.mark.parametrize("xs, d", [([0, 1, 2, 3, 4], 1000), ([0, 1, 3, 4, 6, 7], 100000)])
def test_closely_spaced_rational_coordinates(capsys, tmp_path, xs, d):
    # the cone witness jitter once broke concavity here, and polytope exited 3
    doc = {"n": 1, "A": [[f"{x}/{d}"] for x in xs], "F": {"kind": "neg_card_ratio"}}
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "polytope", "--input", str(path))
    assert code == 0
    assert json.loads(out)["cones"]


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


def test_check_submodular_reads_m_off_the_configuration(capsys):
    report = is_submodular(neg_gcd_function(make_config(1, [[1], [3], [6], [7]])))
    x, x1, x2, values = report.witness
    code, out = run(capsys, "check-submodular", "--input", fixture("a1367_gcd.json"))
    assert code == 0 and not report.holds
    witness = {"X": list(x), "x1": x1, "x2": x2, "values": list(map(rat_str, values))}
    assert json.loads(out) == {"holds": False, "witness": witness}


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


@pytest.mark.parametrize(
    "verb, doc, points",
    [
        (
            "trop-morse",
            {"support": [0, 1, 2], "coefficients": ["1e400", "0", "1e400"]},
            "20.00,300.00 240.00,206.67 460.00,20.00",
        ),
        (
            "subdivision",
            {"n": 1, "A": [[1], [3], [6]], "gamma": ["1e400", "0", "1e400"]},
            "20.00,20.00 196.00,300.00 460.00,20.00",
        ),
    ],
    ids=["trop-morse", "subdivision"],
)
def test_svg_of_rationals_beyond_float_range(capsys, tmp_path, verb, doc, points):
    path, svg = tmp_path / "big.json", tmp_path / "big.svg"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, verb, "--input", str(path), "--svg", str(svg))
    assert code == 0 and json.loads(out)
    assert f'points="{points}"' in svg.read_text()


def test_trop_morse_svg_of_a_support_without_critical_points(capsys, tmp_path):
    # one nonzero exponent: x f' has no root, and the plot is that term's line
    path, svg = tmp_path / "line.json", tmp_path / "line.svg"
    path.write_text(json.dumps({"support": [0, 1], "coefficients": [3, 1]}))
    code, out = run(capsys, "trop-morse", "--input", str(path), "--svg", str(svg))
    assert code == 0 and json.loads(out)["critical_points"] == [] and json.loads(out)["morse"] is True
    assert 'points="20.00,300.00 240.00,160.00 460.00,20.00"' in svg.read_text()


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


def test_bare_numbers_read_as_1d_points(capsys, tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"n": 1, "A": [1, 3, 6, 7], "F": {"kind": "neg_gcd"}, "gamma": [2, 4, 5, 3]}))
    for verb in ("eval", "simplicial", "circuital", "polytope"):
        assert run(capsys, verb, "--input", str(bare)) == run(capsys, verb, "--input", fixture("a1367_gcd.json"))


_LINE = {"n": 1, "A": [[1], [3], [6], [7]], "gamma": [2, 4, 5, 3], "F": {"kind": "neg_gcd"}}


def _internal_failure(*args):
    raise InternalError("forced")


@pytest.mark.parametrize(
    "verb, doc, flags, code, message",
    [
        ("eval", [1, 2], (), 2, "input must be a JSON object"),
        ("eval", {**_LINE, "A": []}, (), 2, "field 'A' must be a nonempty list of points"),
        ("eval", {**_LINE, "n": 2, "A": [1, 2, 3]}, (), 2, "points of 'A' must be coordinate lists"),
        ("eval", {**_LINE, "n": 2, "A": [[0, 0], [1], [0, 1], [1, 1]]}, (), 2, "points of 'A' must have 2 coordinates"),
        ("eval", {**_LINE, "F": 5}, (), 2, "field 'F' must be an object with a 'kind'"),
        ("eval", {**_LINE, "F": {"values": {}}}, (), 2, "field 'F' must be an object with a 'kind'"),
        ("eval", {**_LINE, "F": {"kind": "frob"}}, (), 2, "unknown set-function kind 'frob'"),
        ("trop-sample", {"support": [0, 1, 2]}, ("--seed", "1"), 2, "trop-sample needs --samples (or a 'samples' field)"),
        ("eval", _LINE, (), 3, "internal invariant failure: forced"),
    ],
)
def test_input_branches_exit_with_their_json_error(capsys, tmp_path, monkeypatch, verb, doc, flags, code, message):
    if code == 3:
        monkeypatch.setattr(core, "eval_basecondary_general", _internal_failure)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, verb, "--input", str(path), *flags) == (code, json.dumps({"error": message}) + "\n")


def test_output_file_round_trip(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code = main(
        ["eval", "--input", fixture("a1367_gcd.json"), "--output", str(out_path)]
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == {"value": "-8"}


@pytest.mark.parametrize(
    "verb, name, flags",
    [
        ("eval-terms", "a1367_gcd.json", ()),
        ("polytope", "n0_pair_row.json", ("--convexifier", "3")),
        ("morse-polytope", "morse_1367.json", ("--variant", "maxwell")),
        ("trop-sample", "trop_ties.json", ("--samples", "50", "--seed", "7")),
    ],
)
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, verb, name, flags):
    code, out = run(capsys, verb, "--input", fixture(name), *flags)
    out_path = tmp_path / "out.json"
    assert run(capsys, verb, "--input", fixture(name), *flags, "--output", str(out_path)) == (code, "")
    assert code == 0 and out_path.read_bytes() == out.encode() and out.count("\n") == 1


def test_hexagon_polytope_needs_seed(capsys, tmp_path):
    path = tmp_path / "hexagon.json"
    doc = {"n": 2, "A": [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2], [1, 1]], "F": {"kind": "neg_indicator_full"}}
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "polytope", "--input", str(path))
    assert code == 2
    assert "seed" in json.loads(out)["error"]


@pytest.mark.parametrize("flags", [(), ("--samples", "3", "--seed", "1")])
def test_pentagon_polytope_reads_every_cone_and_ignores_the_seed(capsys, flags):
    code, out = run(capsys, "polytope", "--input", fixture("pentagon_indicator.json"), *flags)
    answer = json.loads(out)
    assert code == 0 and answer["certified"] is True
    assert len({tuple(v) for v in answer["vertices"]}) == 5
    assert (code, out) == run(capsys, "polytope", "--input", fixture("pentagon_indicator.json"))


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


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("morse-support", {"A": 5, "gamma": [1, 1, 1]}),
        ("maxwell-support", {"A": 5, "gamma": [1, 1, 1]}),
        ("morse-polytope", {"A": 5}),
        ("trop-morse", {"support": 5, "coefficients": [0, 1, 0]}),
        ("trop-morse", {"support": [0, 1, 2], "coefficients": 5}),
        ("trop-sample", {"support": 5, "samples": 5}),
        ("eval", {"n": 1, "A": [[1], [3], [6], [7]], "gamma": [1, 2, 3, 4],
                  "F": {"kind": "table", "values": [1, 2]}}),
        ("check-submodular", {"m": 2, "F": {"kind": "matrix_rank", "columns": [[1, 0], 5]}}),
        ("lovasz", {"m": 2, "F": {"kind": "matrix_rank", "columns": [5, [0, 1]]}, "x": [1, 2]}),
        ("lovasz", {"m": 2, "F": {"kind": "neg_card_ratio"}, "x": 5}),
        ("check-submodular", {"m": 2, "F": {"kind": "matrix_rank", "columns": [[1, 0], [1]]}}),
    ],
)
def test_wrong_field_shapes_exit_2(capsys, tmp_path, verb, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, verb, "--input", str(path), "--seed", "1")
    assert code == 2
    assert "must be" in json.loads(out)["error"]


@pytest.mark.parametrize("doc", [
    {"n": True, "A": [[1], [3], [6], [7]], "F": {"kind": "neg_card_ratio"}, "gamma": [2, 4, 5, 3]},
    {"n": False, "m": 3, "F": {"kind": "neg_card_ratio"}, "gamma": [1, 2, 3]},
])
def test_boolean_n_exits_2(capsys, tmp_path, doc):
    # a JSON true or false is not read as n = 1 or n = 0
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "eval", "--input", str(path))
    assert code == 2
    assert "field 'n' must be a nonnegative integer" in json.loads(out)["error"]


@pytest.mark.parametrize("verb", ["subdivision", "simplicial", "secondary", "eval"])
def test_non_spanning_configuration_exits_2(capsys, tmp_path, verb):
    # three collinear points in Q^2 have no full-dimensional cell
    doc = {"n": 2, "A": [[0, 0], [1, 1], [2, 2]], "F": {"kind": "neg_card_ratio"}, "gamma": [1, 2, 3]}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, verb, "--input", str(path))
    assert code == 2
    assert "affinely span" in json.loads(out)["error"]
