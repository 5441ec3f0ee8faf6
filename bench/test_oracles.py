"""Self-tests of the benchmark's answer checks: a wrong answer must count as failed.

    python3 -m pytest -q bench/test_oracles.py

Each test pushes a deliberately wrong result through a workload's check, so
no later change can reach fail_share 0 by making a check vacuous. The two
documented defect shapes (ROADMAP 1a and the ROADMAP 5 malformed inputs)
must also count as failures.
"""

import os
import random
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import basecondary as bc  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

A1367 = bc.make_config(1, [[1], [3], [6], [7]])


def failed(op, out, p=0):
    """Reasons the check gives, as the runner would record them."""
    return op.check(out, {}, p)


# ---------------------------------------------------------------------------
# eval-mix


def eval_op(n, m, generic, seed=1):
    rng = random.Random(seed)
    config = W.random_config(rng, n, m)
    f = W._eval_set_function(rng, "table", config, n)
    gamma = W.random_generic_gamma(rng, config) if generic else tuple(Fraction(rng.randint(0, 3)) for _ in range(m))
    return W._eval_op(config, f, gamma, generic, rng)


@pytest.mark.parametrize("n,m", [(0, 4), (1, 5), (2, 5)])
def test_eval_generic_off_by_one_fails(n, m):
    op = eval_op(n, m, generic=True)
    a, b = op.run({}, 0)
    assert failed(op, (a, b)) == []
    assert "general and generic evaluators disagree" in failed(eval_op(n, m, True), (a, b + 1))


@pytest.mark.parametrize("n,m", [(0, 5), (1, 6), (2, 5)])
def test_eval_ties_off_by_one_fails(n, m):
    op = eval_op(n, m, generic=False)
    a, _ = op.run({}, 0)
    assert failed(op, (a, None)) == []
    assert failed(eval_op(n, m, False), (a + 1, None)) != []


def test_eval_value_must_survive_the_affine_shift_of_later_passes():
    op = eval_op(1, 6, generic=True)
    a, b = op.run({}, 0)
    assert failed(op, (a, b), 0) == []
    assert failed(op, op.run({}, 1), 1) == []
    assert failed(op, (a + 1, b + 1), 2) != []


# ---------------------------------------------------------------------------
# certify


def certify_op(seed=3):
    return W._certify_op(*W.certify_instance(random.Random(seed), 4, 2), 7)


def test_certify_known_defect_is_a_known_failure():
    # this instance shows ROADMAP 1a: certified, yet a vertex of a cone on
    # which the value is not linear is missing
    op = certify_op(seed=11)
    reasons = failed(op, op.run({}, 0))
    assert reasons == [W.MISSED_VERTEX]
    # a known defect still counts as a failure; it only is not unexpected
    assert set(reasons) <= op.known


def test_certify_dropped_vertex_on_a_linear_cone_is_an_unexpected_failure():
    op = certify_op()
    defects, rep = op.run({}, 0)
    assert failed(op, (defects, rep)) == []
    assert len(rep.entries) > 1
    dropped = bc.PiecewiseLinearRep(entries=rep.entries[1:], certified=True)
    reasons = failed(op, (defects, dropped))
    assert W.DROPPED_VERTEX in reasons
    assert not set(reasons) <= op.known


def test_certify_dropped_vertex_beside_the_known_defect_is_unexpected():
    op = certify_op(seed=4)
    defects, rep = op.run({}, 0)
    assert failed(op, (defects, rep)) == [W.MISSED_VERTEX]
    dropped = bc.PiecewiseLinearRep(entries=rep.entries[1:], certified=True)
    assert not set(failed(op, (defects, dropped))) <= op.known


def test_certify_dropping_the_gradient_of_the_defective_cone_is_unexpected():
    # the same instance as the known defect; removing the one gradient the
    # non-linear cone has is not the known shape, though the cone stays non-linear
    config, f = W.certify_instance(random.Random(11), 4, 2)
    op = W._certify_op(config, f, 7)
    defects, rep = op.run({}, 0)
    below, _ = W.support_misses(config, f, rep.gradients, random.Random(7))
    witness = bc.cone_witness(config, bc.regular_subdivision(config, below[0][0]))
    value = bc.eval_basecondary_general(config, f, witness)
    kept = tuple(e for e in rep.entries if oracles.support([e[1]], witness) != value)
    assert 0 < len(kept) < len(rep.entries)
    reasons = failed(op, (defects, bc.PiecewiseLinearRep(entries=kept, certified=True)))
    assert W.DROPPED_VERTEX in reasons
    assert not set(reasons) <= op.known


def test_certify_wrong_gradient_is_an_unexpected_failure():
    op = certify_op()
    defects, rep = op.run({}, 0)
    (w, g), *rest = rep.entries
    bumped = bc.PiecewiseLinearRep(entries=((w, tuple(x + 1 for x in g)), *rest), certified=True)
    reasons = failed(op, (defects, bumped))
    assert "support above the value" in reasons
    assert not set(reasons) <= op.known


def test_certify_negative_defect_and_missing_certificate_fail():
    op = certify_op()
    defects, rep = op.run({}, 0)
    assert "negative wall defect" in failed(op, ([Fraction(-1)] + defects[1:], rep))
    uncertified = bc.PiecewiseLinearRep(entries=rep.entries, certified=False)
    assert "not certified" in failed(op, (defects, uncertified))


def test_pentagon_with_four_vertices_fails():
    op = W._pentagon_op(5)
    rep = bc.reconstruct_polytope(W.PENTAGON, bc.neg_indicator_function(5, min_size=2), 0,
                                  samples=W.PENTAGON_SAMPLES, seed=W.PENTAGON_SEED)
    assert failed(op, rep) == []
    four = bc.PiecewiseLinearRep(entries=rep.entries[:4], certified=True)
    assert any("4 vertices" in r for r in failed(op, four))


# ---------------------------------------------------------------------------
# cli-verbs


@pytest.fixture(scope="module")
def cli_unit(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("cli"))
    b = W._CliUnit(tmp, lambda name: os.path.join(ROOT, "fixtures", name), random.Random(11), 0)
    W._fixture_ops(b)
    W._generated_ops(b)
    return b.ops


def by_kind(ops, kind, nth=0):
    return [op for op in ops if op.kind == kind][nth]


def test_cli_unit_passes_except_the_known_crashes(cli_unit):
    ctx: dict = {}
    for op in cli_unit:
        reasons = op.check(op.run(ctx, 0), ctx, 0)
        if op.kind == "malformed" and op.known:
            assert reasons == [W.MALFORMED_CRASH]  # ROADMAP 5: counted as failed
        else:
            assert reasons == [], (op.kind, reasons)


def test_cli_exit_1_with_traceback_fails(cli_unit):
    op = by_kind(cli_unit, "eval")
    crash = W.CliResult(1, "Traceback (most recent call last): ...", "/nonexistent", crashed="ValueError: x")
    assert failed(op, crash) != []


def test_cli_non_json_output_fails(cli_unit, tmp_path):
    op = by_kind(cli_unit, "eval")
    path = tmp_path / "out.json"
    path.write_text("value: -8\n")
    assert any("not JSON" in r for r in failed(op, W.CliResult(0, "", str(path))))


def test_cli_eval_off_by_one_fails(cli_unit, tmp_path):
    op = by_kind(cli_unit, "eval")
    path = tmp_path / "out.json"
    path.write_text('{"value": "-7"}\n')  # the right value is -8
    assert failed(op, W.CliResult(0, "", str(path))) != []
    path.write_text('{"value": "-8"}\n')
    assert failed(op, W.CliResult(0, "", str(path))) == []


def test_cli_malformed_that_exits_0_fails(cli_unit, tmp_path):
    op = [o for o in cli_unit if o.kind == "malformed" and not o.known][0]
    path = tmp_path / "out.json"
    path.write_text('{"value": "1"}\n')
    assert failed(op, W.CliResult(0, "", str(path))) != []


def test_cli_pentagon_with_four_vertices_fails(cli_unit, tmp_path):
    op = [o for o in cli_unit if o.kind == "polytope"][2]
    path = tmp_path / "out.json"
    path.write_text('{"certified": true, "vertices": [["1"], ["2"], ["3"], ["4"]], "cones": []}\n')
    assert failed(op, W.CliResult(0, "", str(path))) != []


def test_known_failures_are_counted_by_the_runner():
    known = W.Op(kind="k", run=lambda ctx, p: None, check=lambda out, ctx, p: ["x"], known=frozenset({"x"}))
    ok = W.Op(kind="ok", run=lambda ctx, p: None, check=lambda out, ctx, p: [])
    raises = W.Op(kind="r", run=lambda ctx, p: 1 / 0, check=lambda out, ctx, p: [])
    intervals, failures = worker.run_unit([known, ok, raises], 0)
    assert len(intervals) == 3
    assert [(f["op"], f["known"]) for f in failures] == [("k", True), ("r", False)]


# ---------------------------------------------------------------------------
# the independent oracles themselves


def test_random_cone_point_keeps_the_upper_hull():
    xs, rng = [-3, 1, 4, 6, 9], random.Random(2)
    for chain in ([0, 4], [0, 1, 4], [0, 2, 3, 4], [0, 1, 2, 3, 4]):
        for _ in range(20):
            assert oracles.upper_hull_1d(xs, oracles.random_cone_point_1d(xs, chain, rng)) == chain


def test_op_set_depends_on_seed_and_seconds_only():
    assert W.unit_count(25) == 3
    assert W.unit_count(1) == 1
    assert [worker.tail_pct(n) for n in (567, 36, 171, 12)] == [98, 72, 94, 50]
    assert worker.central_mean(range(1, 11)) == 5.5
    assert worker.central_mean([7]) == 7


def test_oracles_match_the_worked_example():
    xs, g = [1, 3, 6, 7], [2, 4, 5, 3]
    assert oracles.subdivision_cells_1d(xs, g) == [[1, 2], [2, 3], [3, 4]]
    assert oracles.secondary_1d(xs, g) == bc.secondary_support(A1367, g)
    assert 2 * oracles.area_under_1d(xs, g) == oracles.secondary_1d(xs, g)
    assert oracles.subdivision_cells_1d(xs, [3, 3, 3, 1]) == [[1, 2, 3], [3, 4]]
