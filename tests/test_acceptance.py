"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from fractions import Fraction as F

import itertools
import random
import time

import quantity_reference
from numeric_oracle import fiber_polygon_grid_area

from basecondary.core import (
    enumerate_circuital,
    enumerate_simplicial,
    eval_basecondary_general,
    eval_basecondary_generic,
    is_generic,
    min_convexifier,
    order_circuital,
    order_simplicial,
    reconstruct_polytope,
    wall_defect_numeric,
)
from basecondary.exact_core import (
    affine_rank,
    fiber_polygon,
    make_config,
)
from basecondary.fiber_morse import (
    area_P_bar,
    build_delta_bar,
    FIBER_SUPPORT_SCALE,
    iterated_fiber_support,
    maxwell_support,
    morse_config,
    morse_polytope,
    morse_support,
)
from basecondary.secondary import (
    discover_cones_random,
    enumerate_triangulations_1d,
    enumerate_walls_1d,
    gkz_vector,
    regular_subdivision,
    secondary_support,
)
from basecondary.setfun import (
    SetFunction,
    base_polytope,
    circuit_condition_check,
    evaluate_f,
    is_submodular,
    is_submodular_above,
    lovasz_extension,
    neg_gcd_function,
    neg_indicator_function,
)
from basecondary.tropical import (
    critical_points,
    is_morse,
    sample_morse_fraction,
    tropical_polynomial,
)

A1367 = make_config(1, [[1], [3], [6], [7]])
PENTAGON = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])


class criterion:
    """Times a criterion body, checks its budget, prints one line."""

    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number} ({self.label}): {status} "
            f"in {elapsed:.2f}s (limit {self.limit}s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def table_from(values, m, min_size):
    return SetFunction(kind="table", m=m, min_size=min_size, table=dict(values))


def random_table(rng, m, min_size, lo=-4, hi=4):
    values = {}
    for r in range(max(1, min_size), m + 1):
        for sub in itertools.combinations(range(1, m + 1), r):
            values[frozenset(sub)] = F(rng.randint(lo, hi), rng.randint(1, 3))
    return table_from(values, m, min_size)


def random_generic_gamma(rng, config, bound=40):
    while True:
        gamma = tuple(
            F(rng.randint(-bound, bound), rng.randint(1, 8)) for _ in range(config.m)
        )
        if is_generic(config, gamma):
            return gamma


def random_config(rng, n, m):
    if n == 0:
        return make_config(0, [[] for _ in range(m)])
    if n == 1:
        return make_config(1, [[a] for a in sorted(rng.sample(range(-9, 12), m))])
    while True:
        pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(m)]
        if len(set(pts)) == m and affine_rank([tuple(map(F, p)) for p in pts]) == 2:
            return make_config(2, pts)


def submodular_generator(rng, m):
    """Coverage plus modular part: submodular with F(empty) = 0."""
    groups = rng.randint(2, 4)
    sets = [frozenset(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(groups)]
    weights = [F(rng.randint(0, 6)) for _ in range(groups)]
    modular = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
    values = {}
    for r in range(1, m + 1):
        for sub in itertools.combinations(range(1, m + 1), r):
            x = frozenset(sub)
            values[x] = sum(w for w, s in zip(weights, sets) if s & x) + sum(
                modular[i - 1] for i in x
            )
    return table_from(values, m, 0)


def test_criterion_1_worked_example_fidelity():
    with criterion(1, "worked-example fidelity", 1):
        g1 = (2, 4, 5, 3)
        supports = {s.linear[0]: s for s in enumerate_simplicial(A1367, g1)}
        assert set(supports) == {F(1), F(1, 3), F(-2)}
        assert supports[F(1)].maximizers == (1, 2)
        assert supports[F(1, 3)].maximizers == (2, 3)
        assert supports[F(-2)].maximizers == (3, 4)
        assert all(s.generic for s in supports.values())
        assert order_simplicial(A1367, g1, supports[F(1)]).tuple == (1, 2, 3, 4)
        assert order_simplicial(A1367, g1, supports[F(1, 3)]).tuple == (2, 3, 1, 4)
        assert order_simplicial(A1367, g1, supports[F(-2)]).tuple == (3, 4, 2, 1)

        g2 = (1, 3, 3, 1)
        s2 = {s.linear[0]: s for s in enumerate_simplicial(A1367, g2)}
        assert not s2[F(0)].generic

        g3 = (3, 3, 3, 1)
        circ = enumerate_circuital(A1367, g3)
        assert len(circ) == 1
        assert circ[0].linear == (F(0),)
        assert circ[0].maximizers == (1, 2, 3)


def test_criterion_2_dual_evaluator_equivalence():
    with criterion(2, "dual-evaluator equivalence on 500 instances", 60):
        rng = random.Random(20240812)
        plan = [(0, 200), (1, 200), (2, 100)]
        for n, count in plan:
            for _ in range(count):
                m = rng.randint(max(2, n + 2), 7 if n <= 1 else 6)
                config = random_config(rng, n, m)
                f = random_table(rng, m, min_size=n)
                gamma = random_generic_gamma(rng, config)
                a = eval_basecondary_general(config, f, gamma)
                b = eval_basecondary_generic(config, f, gamma)
                assert a == b


def test_criterion_3_lovasz_reduction():
    with criterion(3, "n=0 reduction and greedy support", 60):
        rng = random.Random(20240813)
        ground_checked = 0
        while ground_checked < 200:
            m = rng.randint(2, 6)
            f = submodular_generator(rng, m)
            assert is_submodular(f).holds
            ground_checked += 1
            config = make_config(0, [[] for _ in range(m)])
            gamma = random_generic_gamma(rng, config, bound=15)
            expected = lovasz_extension(f, gamma) - max(gamma) * evaluate_f(
                f, set(range(1, m + 1))
            )
            assert eval_basecondary_general(config, f, gamma) == expected
        for m in range(2, 6):
            f = submodular_generator(rng, m)
            vertices = base_polytope(f)
            probes = [
                [1 if i in sub else 0 for i in range(1, m + 1)]
                for r in range(m + 1)
                for sub in itertools.combinations(range(1, m + 1), r)
            ]
            probes += [
                [F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(m)]
                for _ in range(20)
            ]
            for x in probes:
                best = max(sum(a * b for a, b in zip(v, x)) for v in vertices)
                assert best == lovasz_extension(f, x)


def test_criterion_4_secondary_recovery():
    with criterion(4, "secondary polytope recovery from the point indicator", 5):
        f = neg_indicator_function(4, min_size=1)
        rep = reconstruct_polytope(A1367, f, 0)
        assert rep.certified
        gradients = rep.gradients
        assert len(gradients) == 4
        assert len(set(gradients)) == 4
        phis = {
            t.cells: gkz_vector(A1367, t) for t in enumerate_triangulations_1d(A1367)
        }
        pairs = []
        for w, g in rep.entries:
            pairs.append((g, phis[regular_subdivision(A1367, w).cells]))
        for (g1, p1), (g2, p2) in itertools.combinations(pairs, 2):
            dg = tuple(a - b for a, b in zip(g1, g2))
            dp = tuple(a - b for a, b in zip(p1, p2))
            # parallel over Q: cross-ratios vanish
            assert any(c != 0 for c in dp)
            ratio = next((a / b) for a, b in zip(dg, dp) if b != 0)
            assert all(a == ratio * b for a, b in zip(dg, dp))


def test_criterion_5_convexity_theorem_desk_scale():
    with criterion(5, "circuit condition implies certified convexity (100 f)", 120):
        rng = random.Random(20240814)
        accepted = 0
        attempts = 0
        while accepted < 100:
            attempts += 1
            assert attempts < 4000, "generator failed to produce passing instances"
            m = 4 if accepted % 3 != 2 else rng.randint(5, 6)
            config = make_config(
                1, [[a] for a in sorted(rng.sample(range(-8, 12), m))]
            )
            style = rng.randrange(3)
            if style == 0:
                # concave decreasing cardinality profile
                drops = sorted(
                    [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)],
                    reverse=True,
                )
                values = {}
                for r in range(1, m + 1):
                    level = -sum(drops[:r])
                    for sub in itertools.combinations(range(1, m + 1), r):
                        values[frozenset(sub)] = level
                f = table_from(values, m, 1)
            elif style == 1:
                # modular with nonpositive total weight
                w = [F(rng.randint(-5, 2), rng.randint(1, 2)) for _ in range(m)]
                if sum(w) > 0:
                    w[0] -= sum(w)
                values = {}
                for r in range(1, m + 1):
                    for sub in itertools.combinations(range(1, m + 1), r):
                        values[frozenset(sub)] = sum(w[i - 1] for i in sub)
                f = table_from(values, m, 1)
            else:
                f = submodular_generator(rng, m)
                f = table_from(f.table, m, 1)
            if not is_submodular_above(f, 1).holds:
                continue
            if not circuit_condition_check(f, config).passed:
                continue
            accepted += 1
            for wall in enumerate_walls_1d(config):
                assert wall_defect_numeric(config, f, wall) >= 0
            rep = reconstruct_polytope(config, f, 0)
            assert rep.certified


def test_criterion_6_minimal_convexifier():
    with criterion(6, "minimal convexifier for -gcd", 10):
        f = neg_gcd_function(A1367, min_size=1)
        report = circuit_condition_check(f, A1367)
        assert not report.passed
        assert dict(report.rows)[(1, 2, 3)] == -2
        result = min_convexifier(A1367, f)
        assert result.exact and result.value > 0
        assert reconstruct_polytope(A1367, f, result.value).certified
        shy = result.value * F(999, 1000)
        assert not reconstruct_polytope(A1367, f, shy).certified


def test_criterion_7_circuit_ordering_identity():
    with criterion(7, "circuit ordering volume identity", 30):
        fixtures = [
            make_config(2, [[2, 2], [0, 0], [4, 0], [2, 6]]),  # point in triangle
            make_config(2, [[0, 0], [2, 0], [0, 2], [2, 2]]),  # square
            make_config(2, [[0, 0], [1, 0], [2, 0], [1, 2]]),  # collinear triple
        ]
        expected_pq = [(1, 3), (2, 2), (1, 2)]
        for config, (p, q) in zip(fixtures, expected_pq):
            circ = enumerate_circuital(config, (0,) * config.m)
            assert len(circ) == 1
            assert (circ[0].circuit.p, circ[0].circuit.q) == (p, q)
            ordered = order_circuital(config, (0,) * config.m, circ[0])
            assert len(ordered.tuple) == config.m

        rng = random.Random(20240815)
        done = 0
        while done < 200:
            n = rng.choice([1, 2, 3])
            pts = [tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n + 2)]
            if len(set(pts)) < n + 2 or affine_rank(pts) != n:
                continue
            config = make_config(n, pts)
            circ = enumerate_circuital(config, (0,) * (n + 2))
            if len(circ) != 1:
                continue
            # order_circuital validates the double alternating identity
            ordered = order_circuital(config, (0,) * (n + 2), circ[0])
            assert sorted(ordered.tuple) == list(range(1, n + 3))
            done += 1


def test_criterion_8_fiber_identities():
    with criterion(8, "fiber and support identities", 120):
        rng = random.Random(20240816)
        # secondary support = twice the Euclidean lifted area, from its own hull
        for _ in range(200):
            m = rng.randint(2, 7)
            config = make_config(
                1, [[a] for a in sorted(rng.sample(range(-9, 12), m))]
            )
            gamma = tuple(F(rng.randint(0, 25), rng.randint(1, 4)) for _ in range(m))
            assert secondary_support(config, gamma) == 2 * quantity_reference.area_N(config, gamma)
        # the iterated-fiber summand is trusted only after the grid oracle agrees
        probe = morse_config([1, 3, 6, 7])
        for _ in range(2):
            gamma = tuple(F(rng.randint(0, 6)) for _ in range(4))
            verts = build_delta_bar(probe, gamma)
            raw = fiber_polygon(verts).area()
            approx, bound = fiber_polygon_grid_area(verts, 48)
            assert abs(raw - approx) <= bound
            assert area_P_bar(probe, gamma) == FIBER_SUPPORT_SCALE * raw
        # homogeneity of the extension
        level = area_P_bar(probe, (1, 1, 1, 1))
        for _ in range(25):
            gamma = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4))
            c = F(rng.randint(-5, 5), rng.randint(1, 2))
            assert iterated_fiber_support(
                probe, tuple(g + c for g in gamma)
            ) == iterated_fiber_support(probe, gamma) + c * level
        # Morse/Maxwell difference identity on nonnegative heights
        for pts in ([1, 2], [1, 2, 4], [1, 3, 6, 7]):
            mc = morse_config(pts)
            pc = mc.config()
            for _ in range(12):
                gamma = tuple(
                    F(rng.randint(0, 15), rng.randint(1, 3)) for _ in range(mc.m)
                )
                mu = morse_support(mc, gamma)
                mx = maxwell_support(mc, gamma)
                assert mu - 2 * mx == 2 * quantity_reference.area_N(pc, gamma)


def test_criterion_9_morse_polytope_certification():
    with criterion(9, "Morse/Maxwell polytope certification", 60):
        for pts in ([1, 2], [1, 2, 3], [1, 3, 6, 7]):
            mc = morse_config(pts)
            for variant in ("morse", "maxwell"):
                rep = morse_polytope(mc, variant)
                assert rep.certified, (pts, variant)
                levels = {sum(g) for g in rep.gradients}
                assert len(levels) == 1


def test_criterion_10_tropical_suite():
    with criterion(10, "tropical classification and sampling", 30):
        morse_fixture = tropical_polynomial([0, 1, 2], [0, 0, -1])
        assert is_morse(morse_fixture).morse

        coinciding = tropical_polynomial([-2, -1, 1, 2], [-2, 0, 0, -2])
        report = is_morse(coinciding)
        assert not report.morse
        assert "coinciding_critical_values" in report.reasons

        degenerate = tropical_polynomial([-1, 1, 2, 3], [0, 0, -1, -1])
        report = is_morse(degenerate)
        assert not report.morse
        assert "degenerate_critical_point" in report.reasons

        stats = sample_morse_fraction([0, 1, 2], 10_000, seed=20240817)
        assert stats.fraction >= F(99, 100)

        rng = random.Random(20240818)
        for _ in range(500):
            m = rng.randint(2, 5)
            support = sorted(rng.sample(range(-6, 7), m))
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(m)]
            p = tropical_polynomial(support, coeffs)
            base = critical_points(p)
            c = F(rng.randint(-5, 5), rng.randint(1, 2))
            shifted = tropical_polynomial(support, [x + c for x in coeffs])
            assert [cp.value for cp in critical_points(shifted)] == [
                cp.value + c for cp in base
            ]
            assert is_morse(shifted).morse == is_morse(p).morse
            t = F(rng.randint(-4, 4), rng.randint(1, 2))
            sheared = tropical_polynomial(
                support, [x + t * a for a, x in zip(support, coeffs)]
            )
            assert [cp.location for cp in critical_points(sheared)] == [
                cp.location - t for cp in base
            ]
            assert is_morse(sheared).morse == is_morse(p).morse


def test_criterion_11_pentagon_associahedron():
    with criterion(11, "pentagon associahedron recovery", 60):
        cones = discover_cones_random(PENTAGON, 2000, seed=20240811)
        assert len(cones) == 5
        for sub, witness in cones:
            assert sub.is_triangulation
            assert regular_subdivision(PENTAGON, witness).cells == sub.cells
        f = neg_indicator_function(5, min_size=2)
        rep = reconstruct_polytope(PENTAGON, f, 0, samples=2000, seed=20240811)
        assert rep.certified
        assert len(set(rep.gradients)) == 5
