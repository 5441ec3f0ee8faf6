"""The three seeded workloads: op sets, the timed call of each op, and its check.

A workload is a list of units, run in order. A unit is a fixed list of op
classes (sizes, set-function kinds, verbs) whose concrete inputs are drawn
from the workload seed, so every seed runs the same mix. How many units a run
holds follows from --seconds alone (UNIT_SECONDS), never from measured time,
so the op set is fixed by the seed and --seconds.

Every op has a `run` (the timed call through the public API or `bck`) and a
`check` that runs outside the timed region and returns the reasons the answer
is wrong, an empty list when it is right. `known` lists the reasons that are
documented open defects (see README.md); they still count as failures.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import basecondary as bc
from basecondary import cli

import oracles

MISSED_VERTEX = "support below the value in a cone where the value is not linear (ROADMAP 1a)"
DROPPED_VERTEX = "support below the value outside the known defect: dropped vertex"
MALFORMED_CRASH = "malformed input crashed instead of exit 2 (ROADMAP 5)"


@dataclass
class Op:
    kind: str
    run: Callable[[dict, int], Any]
    check: Callable[[Any, dict, int], list]
    known: frozenset = frozenset()


@dataclass
class Workload:
    name: str
    units: list  # list[list[Op]]; pass p runs units[p]
    cleanup: Callable[[], None] = field(default=lambda: None)


# Seconds of --seconds that buy one unit. One unit takes about 5.5, 7.4 and
# 9.2 s at the reference speed of speed.py (eval-mix, certify, cli-verbs), so
# at --seconds 25 every workload runs 3 units, 17 to 28 s of op time. With
# two cli-verbs units, latency_p50_ms spread by up to 10 % over ten seeds.
UNIT_SECONDS = 8


def unit_count(seconds: float) -> int:
    return max(1, int(seconds // UNIT_SECONDS))


def build(name: str, seed: int, root: str, seconds: float) -> Workload:
    count = unit_count(seconds)
    if name == "eval-mix":
        return _eval_mix(seed, count)
    if name == "certify":
        return _certify(seed, count)
    if name == "cli-verbs":
        return _cli_verbs(seed, root, count)
    raise ValueError(f"unknown workload {name!r}")


def _sub_rng(seed: int, *parts) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(map(str, parts)))


# ---------------------------------------------------------------------------
# shared generators


def random_config(rng, n, m):
    if n == 0:
        return bc.make_config(0, [[] for _ in range(m)])
    if n == 1:
        # nonzero points, so -gcd is defined on every configuration
        return bc.make_config(1, [[a] for a in sorted(rng.sample([a for a in range(-9, 12) if a], m))])
    while True:
        pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(m)]
        if len(set(pts)) == m and bc.affine_rank([tuple(map(Fraction, p)) for p in pts]) == 2:
            return bc.make_config(2, pts)


def random_table_values(rng, m, min_size, lo=-4, hi=4):
    return {
        frozenset(sub): Fraction(rng.randint(lo, hi), rng.randint(1, 3))
        for r in range(max(1, min_size), m + 1)
        for sub in itertools.combinations(range(1, m + 1), r)
    }


def submodular_values(rng, m):
    """Coverage plus a modular part: submodular, F(empty) = 0."""
    groups = rng.randint(2, 4)
    sets = [frozenset(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(groups)]
    weights = [Fraction(rng.randint(0, 6)) for _ in range(groups)]
    modular = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
    return {
        frozenset(sub): sum((w for w, s in zip(weights, sets) if s & set(sub)), Fraction(0))
        + sum(modular[i - 1] for i in sub)
        for r in range(1, m + 1)
        for sub in itertools.combinations(range(1, m + 1), r)
    }


def random_generic_gamma(rng, config, bound=40):
    while True:
        gamma = tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 8)) for _ in range(config.m))
        if bc.is_generic(config, gamma):
            return gamma


def affine_shift(config, gamma, linear, const, times=1):
    """gamma + times * (linear o A + const): the same function value, new input."""
    return tuple(
        g + times * (sum(l * x for l, x in zip(linear, p)) + const)
        for g, p in zip(gamma, config.points)
    )


# ---------------------------------------------------------------------------
# eval-mix

# Sizes drive the brute-force lift cost: C(m, n+1) affine solves per lift.
EVAL_SIZES = (
    [(0, m) for m in range(3, 9)] + [(1, m) for m in range(4, 15)] + [(2, m) for m in range(4, 8)]
)
# per size: seven generic heights, two tie-heavy integer heights in {0..3}
EVAL_HEIGHTS = ("generic", "generic", "generic", "ties") * 2 + ("generic",)


def _eval_set_function(rng, kind, config, n):
    m = config.m
    if kind == "matrix_rank":
        cols = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(m)]
        return bc.matrix_rank_function(cols, min_size=n)
    if kind == "neg_gcd":
        return bc.neg_gcd_function(config, min_size=n)
    return bc.SetFunction(kind="table", m=m, min_size=n, table=random_table_values(rng, m, n))


def _eval_op(config, f, gamma, generic, rng) -> Op:
    n = config.n
    shift = ([Fraction(rng.randint(-3, 3)) for _ in range(n)], Fraction(rng.randint(-5, 5)))
    probe = ([Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(n)], Fraction(rng.randint(-5, 5)))
    first: dict = {}

    def heights(p):
        return affine_shift(config, gamma, *shift, times=p)

    def run(ctx, p):
        g = heights(p)
        a = bc.eval_basecondary_general(config, f, g)
        b = bc.eval_basecondary_generic(config, f, g) if generic else None
        return a, b

    def check(out, ctx, p):
        a, b = out
        reasons = []
        if first.setdefault("value", a) != a:
            reasons.append("value changed under an affine shift of the heights")
        if generic:
            if a != b:
                reasons.append("general and generic evaluators disagree")
        elif n == 0:
            g = heights(p)
            expected = bc.lovasz_extension(f, g) - max(g) * bc.evaluate_f(f, f.ground())
            if a != expected:
                reasons.append("n = 0 value differs from the Lovasz reduction")
        elif bc.eval_basecondary_general(config, f, affine_shift(config, heights(p), *probe)) != a:
            reasons.append("value changed under an affine shift of the heights")
        return reasons

    return Op(kind=f"n{n}-m{config.m}-{'generic' if generic else 'ties'}", run=run, check=check)


def _eval_mix(seed, count) -> Workload:
    unit = []
    slot = 0
    for n, m in EVAL_SIZES:
        for height in EVAL_HEIGHTS:
            rng = _sub_rng(seed, "eval-mix", slot)
            kind = "table"
            if slot % 7 == 3:
                kind = "matrix_rank"
            elif slot % 7 == 6 and n == 1:
                kind = "neg_gcd"
            config = random_config(rng, n, m)
            f = _eval_set_function(rng, kind, config, n)
            if height == "generic":
                gamma = random_generic_gamma(rng, config)
            else:
                gamma = tuple(Fraction(rng.randint(0, 3)) for _ in range(m))
            unit.append(_eval_op(config, f, gamma, height == "generic", rng))
            slot += 1
    # one unit of distinct instances; later passes shift every height vector
    # by its own affine function, so no pass repeats an input
    return Workload(name="eval-mix", units=[unit] * count)


# ---------------------------------------------------------------------------
# certify

PENTAGON_POINTS = ((0, 0), (2, 0), (3, 2), (1, 4), (-1, 2))
PENTAGON = bc.make_config(2, PENTAGON_POINTS)
PENTAGON_SAMPLES = 200
PENTAGON_SEED = 20240811
# (m, generator style) per n = 1 slot, or the pentagon. m = 4 is most ops and
# holds the median. The pentagon, the same work every time, holds the p72
# tail (the highest percentile with ten ops beyond it in a three-unit run),
# so the tail does not hinge on a few random instances. Style 2 varies least
# in cost, so it fills the costly m = 5 and m = 6 slots.
CERTIFY_UNIT = (
    (4, 0), "pentagon", (4, 1), (4, 2), (5, 2), (4, 0), "pentagon",
    (4, 1), (6, 2), (4, 2), "pentagon", (4, 0),
)
SUPPORT_PROBES = 24
CONE_PARTNERS = 12


def certify_instance(rng, m, style):
    """A criterion-5 style table: submodular above 1, passing the circuit condition."""
    while True:
        config = bc.make_config(1, [[a] for a in sorted(rng.sample(range(-8, 12), m))])
        if style == 0:  # concave decreasing cardinality profile
            drops = sorted((Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)), reverse=True)
            values = {
                frozenset(sub): -sum(drops[:r])
                for r in range(1, m + 1)
                for sub in itertools.combinations(range(1, m + 1), r)
            }
        elif style == 1:  # modular with nonpositive total weight
            w = [Fraction(rng.randint(-5, 2), rng.randint(1, 2)) for _ in range(m)]
            if sum(w) > 0:
                w[0] -= sum(w)
            values = {
                frozenset(sub): sum(w[i - 1] for i in sub)
                for r in range(1, m + 1)
                for sub in itertools.combinations(range(1, m + 1), r)
            }
        else:
            values = submodular_values(rng, m)
        f = bc.SetFunction(kind="table", m=m, min_size=1, table=values)
        if bc.is_submodular_above(f, 1).holds and bc.circuit_condition_check(f, config).passed:
            return config, f


def random_probe(config, rng) -> tuple:
    """Random heights; for n = 1 off every wall, so the probe has a secondary cone.

    The coarse grid puts a probe on a wall now and then, and a probe there
    cannot be assigned to the cone whose gradient should reach its value.
    """
    xs = [p[0] for p in config.points]
    while True:
        gamma = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(config.m))
        if config.n != 1 or all(len(cell) == 2 for cell in oracles.subdivision_cells_1d(xs, gamma)):
            return gamma


def support_misses(config, f, gradients, rng) -> tuple[list, list]:
    """Compare max_k <g_k, gamma> with the value at seeded random probes.

    Returns the probes at which the support lies below the value, and the
    reasons for any probe at which it lies above (a wrong gradient).
    """
    below, above = [], []
    for _ in range(SUPPORT_PROBES):
        gamma = random_probe(config, rng)
        value = bc.eval_basecondary_general(config, f, gamma)
        top = oracles.support(gradients, gamma)
        if top < value:
            below.append((gamma, value))
        if top > value and not above:
            above.append("support above the value")
    return below, above


def miss_reason(config, f, gradients, gamma, value, rng) -> str:
    """Why the support lies below the value at gamma: ROADMAP 1a, or a dropped vertex.

    ROADMAP 1a is `reconstruct_polytope` taking one gradient per secondary
    cone, at the cone's `cone_witness`, on a cone where the value is not
    linear. A miss is that defect only when both hold:

    - the cone still has its gradient: at the cone's witness the support
      reaches the value;
    - the value is provably not linear on the cone. A function linear on a
      convex cone is additive there, so one height gamma' in the cone with
      h(gamma + gamma') != h(gamma) + h(gamma') proves it. The candidates are
      the witness and CONE_PARTNERS random points of the cone. Where a
      candidate comes from does not matter for the proof: cone membership is
      decided by the independent upper hull of `oracles.py`, and the
      additivity by the value alone.

    Anything else is a dropped vertex.
    """
    xs = [p[0] for p in config.points]
    chain = oracles.upper_hull_1d(xs, gamma)
    witness = bc.cone_witness(config, bc.regular_subdivision(config, gamma))
    if oracles.support(gradients, witness) < bc.eval_basecondary_general(config, f, witness):
        return DROPPED_VERTEX
    partners = [witness] + [oracles.random_cone_point_1d(xs, chain, rng) for _ in range(CONE_PARTNERS)]
    for other in partners:
        if oracles.upper_hull_1d(xs, other) != chain:
            continue
        total = tuple(a + b for a, b in zip(gamma, other))
        if bc.eval_basecondary_general(config, f, total) != value + bc.eval_basecondary_general(config, f, other):
            return MISSED_VERTEX
    return DROPPED_VERTEX


def _certify_op(config, f, probe_seed) -> Op:
    def run(ctx, p):
        defects = [bc.wall_defect_numeric(config, f, w) for w in bc.enumerate_walls_1d(config)]
        return defects, bc.reconstruct_polytope(config, f, 0)

    def check(out, ctx, p):
        defects, rep = out
        reasons = []
        if any(d < 0 for d in defects):
            reasons.append("negative wall defect")
        if not rep.certified:
            reasons.append("not certified")
        rng = random.Random(probe_seed)
        below, above = support_misses(config, f, rep.gradients, rng)
        misses = {miss_reason(config, f, rep.gradients, g, v, rng) for g, v in below}
        return reasons + [r for r in (MISSED_VERTEX, DROPPED_VERTEX) if r in misses] + above

    return Op(kind=f"n1-m{config.m}", run=run, check=check, known=frozenset({MISSED_VERTEX}))


def _pentagon_op(probe_seed, shift=(0, 0)) -> Op:
    """The pentagon fixture translated by `shift`: new input, same cones and answer."""
    config = bc.make_config(2, [(x + shift[0], y + shift[1]) for x, y in PENTAGON_POINTS])
    f = bc.neg_indicator_function(5, min_size=2)

    def run(ctx, p):
        return bc.reconstruct_polytope(config, f, 0, samples=PENTAGON_SAMPLES, seed=PENTAGON_SEED)

    def check(rep, ctx, p):
        reasons = [] if rep.certified else ["not certified"]
        if len(set(rep.gradients)) != 5:
            reasons.append(f"pentagon has {len(set(rep.gradients))} vertices, not 5")
        below, above = support_misses(config, f, rep.gradients, random.Random(probe_seed))
        return reasons + (["support below the value: missing vertex"] if below else []) + above

    return Op(kind="n2-pentagon", run=run, check=check)


def _certify(seed, count) -> Workload:
    units = []
    pentagons = 0
    for u in range(count):
        unit = []
        for slot, spec in enumerate(CERTIFY_UNIT):
            rng = _sub_rng(seed, "certify", u, slot)
            probe_seed = rng.randrange(1 << 30)
            if spec == "pentagon":
                unit.append(_pentagon_op(probe_seed, divmod(pentagons, 6)))
                pentagons += 1
            else:
                unit.append(_certify_op(*certify_instance(rng, *spec), probe_seed))
        units.append(unit)
    return Workload(name="certify", units=units)


# ---------------------------------------------------------------------------
# cli-verbs

TROP_SAMPLES = 1000
# fixed, so the costliest ops, which hold the p94 tail, are the same work at every seed
MORSE_POLYTOPE_SETS = ([1, 2], [1, 2, 4], [1, 2, 4, 7], [1, 3, 4, 6], [1, 2, 3, 5, 8])


@dataclass
class CliResult:
    code: int
    stdout: str
    output_path: str
    crashed: str = ""


def run_cli(argv, output_path) -> CliResult:
    """One in-process `bck` call; an exception escaping main is a crash (exit 1)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv + ["--output", output_path])
        except Exception as exc:  # the crash is the measured outcome
            return CliResult(1, buf.getvalue(), output_path, crashed=f"{type(exc).__name__}: {exc}")
    return CliResult(code, buf.getvalue(), output_path)


def parse_cli(res: CliResult, expect_code: int):
    """(payload, reasons): the JSON document for the expected exit code.

    Removes the output file, so a later call cannot pass on a stale one.
    """
    try:
        if res.crashed:
            return None, [f"exit 1 with a traceback ({res.crashed})"]
        if res.code != expect_code:
            return None, [f"exit {res.code}, expected {expect_code}"]
        if res.code == 0:
            with open(res.output_path, encoding="utf-8") as fh:
                return json.load(fh), []
        return json.loads(res.stdout), []
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"output is not JSON ({exc})"]
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(res.output_path)


def _write(tmpdir, name, doc) -> str:
    path = os.path.join(tmpdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


def _morse_exponents(rng, m):
    while True:
        pts = sorted(rng.sample(range(1, 10), m))
        if math.gcd(*(b - pts[0] for b in pts[1:])) == 1:
            return pts


class _CliUnit:
    """Builds the ops of one cli-verbs unit; `verify` closures read `ctx`."""

    def __init__(self, tmpdir, fixtures, rng, u):
        self.tmpdir, self.fx, self.rng, self.u = tmpdir, fixtures, rng, u
        self.ops: list = []

    def add(self, kind, argv, verify, expect_code=0, known=frozenset()):
        out = os.path.join(self.tmpdir, f"out-{self.u}-{len(self.ops)}.json")

        def run(ctx, p):
            return run_cli(argv(ctx) if callable(argv) else argv, out)

        def check(res, ctx, p):
            payload, reasons = parse_cli(res, expect_code)
            if res.crashed and known:
                return [MALFORMED_CRASH]
            if payload is None:
                return reasons
            if expect_code == 2:
                return [] if isinstance(payload.get("error"), str) else ["exit 2 without an error field"]
            return [r for r in [verify(payload, ctx)] if r]

        self.ops.append(Op(kind=kind, run=run, check=check, known=known))

    def doc(self, name, doc):
        return _write(self.tmpdir, f"u{self.u}-{name}.json", doc)


def _expect(cond, reason):
    return None if cond else reason


def _fixture_ops(b: _CliUnit):
    fx = b.fx
    gcd, gamma1 = fx("a1367_gcd.json"), fx("a1367_gamma1.json")
    xs, g1 = [1, 3, 6, 7], [2, 4, 5, 3]
    a1367 = bc.make_config(1, [[1], [3], [6], [7]])
    f_gcd = bc.neg_gcd_function(a1367, min_size=1)
    ref = {}

    def generic_value():
        if "v" not in ref:
            ref["v"] = bc.eval_basecondary_generic(a1367, f_gcd, g1)
        return ref["v"]

    def terms_ok(d, ctx):
        total = sum((Fraction(t["f_difference"]) * Fraction(t["volume"]) for t in d["terms"]), Fraction(0))
        return _expect(total == Fraction(d["value"]) == generic_value(), "eval-terms sum differs")

    b.add("eval", ["eval", "--input", gcd], lambda d, c: _expect(Fraction(d["value"]) == generic_value(), "eval differs from eval-terms"))
    b.add("eval-terms", ["eval-terms", "--input", gcd], terms_ok)
    worked = {("1",): [1, 2], ("1/3",): [2, 3], ("-2",): [3, 4]}
    for path in (gamma1, gcd):
        b.add(
            "simplicial",
            ["simplicial", "--input", path],
            lambda d, c: _expect(
                d["generic"] is True
                and len(d["supports"]) == 3
                and all(worked.get(tuple(s["linear"])) == s["maximizers"] and s["generic"] for s in d["supports"]),
                "simplicial supports differ from the worked example",
            ),
        )
        b.add("circuital", ["circuital", "--input", path], lambda d, c: _expect(d["supports"] == [], "circuital support at a generic height"))
        b.add(
            "subdivision",
            ["subdivision", "--input", path],
            lambda d, c: _expect(d["cells"] == oracles.subdivision_cells_1d(xs, g1), "subdivision cells differ"),
        )
        b.add(
            "secondary",
            ["secondary", "--input", path],
            lambda d, c: _expect(Fraction(d["value"]) == 2 * oracles.area_under_1d(xs, g1), "secondary != 2 area_N"),
        )
    b.add(
        "check-circuit-condition",
        ["check-circuit-condition", "--input", gcd],
        lambda d, c: _expect(
            d["passed"] is False and any(r["J"] == [1, 2, 3] and r["value"] == "-2" for r in d["rows"]),
            "circuit-condition rows differ from criterion 6",
        ),
    )

    def convexify_ok(d, ctx):
        ctx["c"] = d["value"]
        return _expect(d["exact"] is True and Fraction(d["value"]) > 0, "convexifier not exact and positive")

    b.add("convexify", ["convexify", "--input", gcd], convexify_ok)
    b.add(
        "polytope",
        lambda ctx: ["polytope", "--input", gcd, "--convexifier", ctx.get("c", "0")],
        lambda d, c: _expect(d["certified"] is True, "not certified at the convexifier"),
    )
    b.add(
        "polytope",
        lambda ctx: ["polytope", "--input", gcd, "--convexifier", str(Fraction(ctx.get("c", "0")) * Fraction(999, 1000))],
        lambda d, c: _expect(d["certified"] is False, "certified below the convexifier"),
    )
    pent = fx("pentagon_indicator.json")
    b.add(
        "polytope",
        ["polytope", "--input", pent, "--samples", str(PENTAGON_SAMPLES), "--seed", str(PENTAGON_SEED)],
        lambda d, c: _expect(d["certified"] is True and len({tuple(v) for v in d["vertices"]}) == 5, "pentagon polytope not 5 certified vertices"),
    )
    b.add(
        "polytope",
        ["polytope", "--input", gcd],
        lambda d, c: _expect(d["certified"] is False and "failure" in d, "-gcd certified without a convexifier"),
    )
    b.add(
        "check-circuit-condition",
        ["check-circuit-condition", "--input", pent],
        lambda d, c: _expect(isinstance(d["passed"], bool) and len(d["rows"]) > 0, "no circuit rows for the pentagon"),
    )
    _morse_ops(b, fx("morse_1367.json"), [1, 3, 6, 7], [1, 1, 1, 1], polytope=True)
    b.add(
        "trop-morse",
        ["trop-morse", "--input", fx("w_shape.json")],
        lambda d, c: _expect(d["morse"] is False and "coinciding_critical_values" in d["reasons"], "w_shape not reported as coinciding"),
    )
    trop_seed = str(b.rng.randrange(1 << 30))
    b.add("trop-sample", ["trop-sample", "--input", fx("trop_012.json"), "--samples", str(TROP_SAMPLES), "--seed", trop_seed], _trop_ok(True))
    b.add("trop-sample", ["trop-sample", "--input", fx("w_shape.json"), "--samples", str(TROP_SAMPLES), "--seed", trop_seed], _trop_ok(False))


def _trop_ok(near_one):
    def verify(d, ctx):
        frac = Fraction(d["fraction"])
        if d["samples"] != TROP_SAMPLES or frac != Fraction(d["morse_count"], TROP_SAMPLES):
            return "trop-sample counts inconsistent"
        if len(d["non_morse"]) != TROP_SAMPLES - d["morse_count"]:
            return "trop-sample non-Morse list inconsistent"
        return _expect(frac >= Fraction(99, 100) or not near_one, "Morse fraction on [0,1,2] below 99/100")

    return verify


def _morse_ops(b: _CliUnit, path, exps, gamma, polytope):
    """morse-support and maxwell-support at gamma; morse - 2 maxwell = 2 area_N."""
    key = f"morse-{path}"

    def morse_ok(d, ctx):
        ctx[key] = Fraction(d["value"])
        return None

    def maxwell_ok(d, ctx):
        if key not in ctx:
            return "morse-support missing for the identity"
        return _expect(
            ctx[key] - 2 * Fraction(d["value"]) == 2 * oracles.area_under_1d(exps, gamma),
            "morse - 2 maxwell != 2 area_N",
        )

    b.add("morse-support", ["morse-support", "--input", path], morse_ok)
    b.add("maxwell-support", ["maxwell-support", "--input", path], maxwell_ok)
    if polytope:
        _morse_polytope_ops(b, path)


def _morse_polytope_ops(b: _CliUnit, path):
    def one_level(d, ctx):
        levels = {sum(Fraction(x) for x in v) for v in d["vertices"]}
        return _expect(d["certified"] is True and len(levels) == 1, "morse polytope not certified on one level")

    for variant in ("morse", "maxwell"):
        b.add("morse-polytope", ["morse-polytope", "--input", path, "--variant", variant], one_level)


MALFORMED_HANDLED = (
    ("missing-F", {"n": 1, "A": [[1], [3], [6], [7]], "gamma": [2, 4, 5, 3]}, "eval"),
    ("short-gamma", {"n": 1, "A": [[1], [3], [6], [7]], "F": {"kind": "neg_gcd"}, "gamma": [2, 4]}, "eval"),
    ("not-json", "{\"n\": 1, \"A\": [[1], [3]", "simplicial"),
    ("not-object", [1, 2, 3], "secondary"),
    ("unknown-kind", {"n": 1, "A": [[1], [3], [6]], "F": {"kind": "nope"}, "gamma": [1, 2, 3]}, "eval"),
)


def _generated_ops(b: _CliUnit):
    rng = b.rng
    # n = 0: a submodular table
    m0 = 5
    values = submodular_values(rng, m0)
    table = {",".join(map(str, sorted(k))): str(v) for k, v in values.items()}
    x = [str(Fraction(rng.randint(-6, 6), rng.randint(1, 2))) for _ in range(m0)]
    doc0 = b.doc("n0", {"n": 0, "m": m0, "F": {"kind": "table", "values": table}, "x": x})

    def base_ok(d, ctx):
        verts = [[Fraction(c) for c in v] for v in d["vertices"]]
        probes = [[1 if i in sub else 0 for i in range(1, m0 + 1)] for r in range(m0 + 1) for sub in itertools.combinations(range(1, m0 + 1), r)]
        return _expect(all(oracles.support(verts, p) == oracles.lovasz(values, p) for p in probes), "base polytope support differs from Lovasz")

    b.add("base-polytope", ["base-polytope", "--input", doc0], base_ok)
    b.add("lovasz", ["lovasz", "--input", doc0], lambda d, c: _expect(Fraction(d["value"]) == oracles.lovasz(values, x), "lovasz value differs"))
    b.add("check-submodular", ["check-submodular", "--input", doc0], lambda d, c: _expect(d["holds"] is oracles.is_submodular(values, m0), "submodularity verdict differs"))

    # n = 1: a random table at a generic height
    m1 = 6
    config = random_config(rng, 1, m1)
    xs = [p[0] for p in config.points]
    vals1 = random_table_values(rng, m1, 1)
    f1 = bc.SetFunction(kind="table", m=m1, min_size=1, table=vals1)
    gamma = random_generic_gamma(rng, config)
    doc1 = b.doc("n1", {
        "n": 1,
        "A": [[int(a)] for a in xs],
        "F": {"kind": "table", "values": {",".join(map(str, sorted(k))): str(v) for k, v in vals1.items()}},
        "gamma": [str(g) for g in gamma],
    })
    ref = {}

    def generic_value():
        if "v" not in ref:
            ref["v"] = bc.eval_basecondary_generic(config, f1, gamma)
        return ref["v"]

    b.add("eval", ["eval", "--input", doc1], lambda d, c: _expect(Fraction(d["value"]) == generic_value(), "eval differs from eval-terms"))
    b.add(
        "eval-terms",
        ["eval-terms", "--input", doc1],
        lambda d, c: _expect(
            sum((Fraction(t["f_difference"]) * Fraction(t["volume"]) for t in d["terms"]), Fraction(0)) == Fraction(d["value"]) == generic_value(),
            "eval-terms sum differs",
        ),
    )
    b.add("simplicial", ["simplicial", "--input", doc1], lambda d, c: _expect(d["generic"] is True and len(d["supports"]) == len(oracles.upper_hull_1d(xs, gamma)) - 1, "simplicial support count differs from hull edges"))
    b.add("subdivision", ["subdivision", "--input", doc1], lambda d, c: _expect(d["cells"] == oracles.subdivision_cells_1d(xs, gamma), "subdivision cells differ"))
    b.add("secondary", ["secondary", "--input", doc1], lambda d, c: _expect(Fraction(d["value"]) == oracles.secondary_1d(xs, gamma), "secondary value differs"))
    b.add("check-circuit-condition", ["check-circuit-condition", "--input", doc1], lambda d, c: _expect(d["passed"] == all(Fraction(r["value"]) >= 0 for r in d["rows"]) and len(d["rows"]) == math.comb(m1, 3), "circuit rows inconsistent"))

    # Morse/Maxwell: polytopes at m = 2..5, supports at seeded heights
    for exps in MORSE_POLYTOPE_SETS:
        _morse_polytope_ops(b, b.doc(f"morse{len(exps)}", {"A": exps}))
    for m in (3, 4, 4):
        exps = _morse_exponents(rng, m)
        heights = [Fraction(rng.randint(0, 15), rng.randint(1, 3)) for _ in range(m)]
        path = b.doc(f"support{len(b.ops)}", {"A": exps, "gamma": [str(h) for h in heights]})
        _morse_ops(b, path, exps, heights, polytope=False)

    supports = [[0, 1, 2]] + [sorted(rng.sample(range(-6, 8), k)) for k in (3, 4, 4, 5)]
    for support in supports:
        path = b.doc(f"trop{len(b.ops)}", {"support": support})
        seed = str(rng.randrange(1 << 30))
        b.add("trop-sample", ["trop-sample", "--input", path, "--samples", str(TROP_SAMPLES), "--seed", seed], _trop_ok(support == [0, 1, 2]))

    # malformed documents: two known crash shapes and one handled shape
    bad_m = b.doc("bad-m", {"n": 0, "m": "x", "F": {"kind": "table", "values": {}}, "x": [1]})
    b.add("malformed", ["lovasz", "--input", bad_m], None, expect_code=2, known=frozenset({MALFORMED_CRASH}))
    bad_key = b.doc("bad-key", {"n": 0, "m": 2, "F": {"kind": "table", "values": {"1,a": "1"}}, "x": [1, 2]})
    b.add("malformed", ["check-submodular", "--input", bad_key], None, expect_code=2, known=frozenset({MALFORMED_CRASH}))
    label, doc, verb = MALFORMED_HANDLED[b.u % len(MALFORMED_HANDLED)]
    b.add("malformed", [verb, "--input", b.doc(f"bad-{label}", doc)], None, expect_code=2)


def _cli_verbs(seed, root, count) -> Workload:
    tmpdir = os.path.join(root, ".bench_tmp", f"cli-verbs-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    fixtures = lambda name: os.path.join(root, "fixtures", name)
    units = []
    for u in range(count):
        b = _CliUnit(tmpdir, fixtures, _sub_rng(seed, "cli-verbs", u), u)
        _fixture_ops(b)
        _generated_ops(b)
        units.append(b.ops)

    def cleanup():
        for name in os.listdir(tmpdir):
            os.remove(os.path.join(tmpdir, name))
        os.rmdir(tmpdir)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmpdir))

    return Workload(name="cli-verbs", units=units, cleanup=cleanup)
