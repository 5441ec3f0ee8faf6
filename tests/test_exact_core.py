"""Exact geometry primitives: volumes, circuits, polygons, fiber slices, seeded draws, and the reference jet.

The dense `jet_reference.Jet`, which the Morse reference loop runs, must order, hash and refuse
nonlinear products as a first-order jet does.
"""

from fractions import Fraction as F

import math
import operator
import random

import pytest

import linalg_reference as ref
import jet_reference
from jet_reference import Jet, fiber_slice
from numeric_oracle import fiber_polygon_grid_area
from basecondary.errors import InputError, InternalError
from basecondary.exact_core import (
    Polygon2,
    affine_rank,
    convex_hull_2d,
    fiber_polygon,
    find_circuit,
    integer_normal,
    kronecker_point,
    lattice_volume,
    make_config,
    minkowski_sum,
    oriented_volume,
    point,
    probe_polygon,
    rat,
    rat_str,
    rational_draws,
)


def pts(*coords):
    return [point(c) for c in coords]


def test_rational_parsing_round_trip():
    assert rat("3/4") == F(3, 4)
    assert rat("-2") == -2
    assert rat(5) == 5
    assert rat_str(F(6, 4)) == "3/2"
    assert rat_str(F(-8, 2)) == "-4"
    assert rat_str(5) == "5"
    assert rat_str(F(-3, 6)) == "-1/2"
    with pytest.raises(InputError):
        rat("x")
    with pytest.raises(InputError):
        rat(True)


def test_oriented_volume_examples():
    assert oriented_volume(pts([0], [1])) == 1
    assert oriented_volume(pts([0, 0], [1, 1], [2, 0])) == -2
    assert oriented_volume(pts([1], [3])) == 2
    # the empty simplex of Q^0 carries volume 1
    assert oriented_volume(pts([])) == 1


def test_oriented_volume_antisymmetry_and_degeneracy():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.choice([1, 2, 3])
        simplex = [tuple(F(rng.randint(-5, 5)) for _ in range(k)) for _ in range(k + 1)]
        vol = oriented_volume(simplex)
        i, j = rng.sample(range(k + 1), 2)
        swapped = list(simplex)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert oriented_volume(swapped) == -vol
        if vol == 0:
            assert affine_rank(simplex) < k


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_config_volume_is_the_scaled_oriented_volume(n):
    rng = random.Random(f"kernel-volume/{n}")
    for _ in range(10):
        m = n + 1 + rng.randint(1, 4)
        coords = set()
        while n and len(coords) < m:  # a small grid, so some simplices are flat
            coords.add(tuple(F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(n)))
        config = make_config(n, rng.sample(sorted(coords), m) if n else [()] * m)
        dx = math.lcm(*(c.denominator for p in config.points for c in p))
        for _ in range(10):
            labels = rng.sample(range(1, m + 1), n + 1)
            vol = config.volume(labels)
            assert type(vol) is int and vol == oriented_volume(config.subset_points(labels)) * dx**n, labels
    short, repeated = list(range(1, n + 1)), [1] + list(range(1, n + 1))  # n labels; 1 twice when n > 0
    for bad in [short, short + [0], short + [m + 1], list(range(1, n + 3))] + [repeated] * (n > 0):
        with pytest.raises(InputError, match="distinct labels"):
            config.volume(bad)


def test_oriented_volume_dimension_mismatch():
    with pytest.raises(InputError):
        oriented_volume(pts([0, 0], [1, 1]))


def test_lattice_volume_examples():
    assert lattice_volume(pts([0], [1], [2])) == 2
    assert lattice_volume(pts([0, 0], [1, 0], [0, 1], [1, 1])) == 2
    assert lattice_volume(pts([0, 0], [1, 1], [2, 2])) == 0
    assert lattice_volume(pts([], [])) == 1


def test_affine_rank_examples():
    assert affine_rank(pts([0, 0])) == 0
    assert affine_rank(pts([0, 0], [2, 0], [0, 2], [2, 2])) == 2
    assert affine_rank(pts([1], [3], [6])) == 1
    with pytest.raises(InputError):
        affine_rank([])


def test_find_circuit_square():
    circ = find_circuit(pts([0, 0], [2, 0], [0, 2], [2, 2]))
    assert circ.p == 2 and circ.q == 2
    # diagonal pairs: (0,0)+(2,2) vs (2,0)+(0,2)
    assert [i for i, _ in circ.positive] == [1, 4]
    assert [i for i, _ in circ.negative] == [2, 3]
    assert min(c for _, c in circ.positive) == 1


def test_find_circuit_partial_support():
    circ = find_circuit(pts([0, 0], [1, 0], [2, 0], [1, 2]))
    assert circ.p == 1 and circ.q == 2
    assert len(circ.support) == 3
    assert circ.zeros == (4,)


def test_find_circuit_interval():
    circ = find_circuit(pts([1], [3], [6]))
    assert circ.positive == ((2, F(1)),)
    assert circ.negative == ((1, F(3, 5)), (3, F(2, 5)))


def test_find_circuit_requires_spanning():
    with pytest.raises(InputError):
        find_circuit(pts([0, 0], [1, 0], [2, 0], [3, 0]))


def test_find_circuit_random_relation():
    rng = random.Random(7)
    found = 0
    while found < 30:
        n = rng.choice([1, 2, 3])
        raw = [tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n + 2)]
        if len(set(raw)) < n + 2 or affine_rank(raw) != n:
            continue
        found += 1
        circ = find_circuit(raw)
        lam = sum(c for _, c in circ.positive)
        mu = sum(c for _, c in circ.negative)
        assert lam == mu
        for axis in range(n):
            left = sum(c * raw[i - 1][axis] for i, c in circ.positive)
            right = sum(c * raw[i - 1][axis] for i, c in circ.negative)
            assert left == right
        assert all(c > 0 for _, c in circ.positive + circ.negative)


def test_polygon_canonical_form():
    square = Polygon2.from_points([(1, 0), (0, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))])
    assert square.vertices == ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))
    assert square.area() == 1
    collinear = Polygon2.from_points([(0, 0), (2, 2), (1, 1)])
    assert collinear.vertices == ((F(0), F(0)), (F(2), F(2)))
    assert collinear.area() == 0


def test_minkowski_examples():
    square = Polygon2.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    pt = Polygon2.from_points([(3, 4)])
    shifted = minkowski_sum(square, pt)
    assert shifted.vertices == ((F(3), F(4)), (F(4), F(4)), (F(4), F(5)), (F(3), F(5)))
    doubled = minkowski_sum(square, square)
    assert doubled.area() == 4
    seg_x = Polygon2.from_points([(0, 0), (1, 0)])
    seg_y = Polygon2.from_points([(0, 0), (0, 1)])
    assert minkowski_sum(seg_x, seg_y).vertices == square.vertices


def test_minkowski_commutes_and_superadditive_area():
    rng = random.Random(3)
    for _ in range(25):
        a = Polygon2.from_points(
            [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(rng.randint(1, 6))]
        )
        b = Polygon2.from_points(
            [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(rng.randint(1, 6))]
        )
        ab = minkowski_sum(a, b)
        assert ab.vertices == minkowski_sum(b, a).vertices
        assert ab.area() >= a.area() + b.area()
        # hull-of-pairwise-sums oracle
        oracle = Polygon2.from_points(
            [(p[0] + q[0], p[1] + q[1]) for p in a.vertices for q in b.vertices]
        )
        assert ab.vertices == oracle.vertices


# the Kronecker scale: at (x, K y + s) with small digits s, y decides every comparison it does not tie
K = 2**64


def _summand(rng, kronecker):
    """A point, a segment, or a polygon on a coarse grid, so that edges of summands run parallel."""
    kind = rng.randrange(3)
    if kind == 0:
        raw = [(rng.randint(-3, 3), rng.randint(-3, 3))]
    elif kind == 1:
        x, y, dx, dy = (rng.randint(-2, 2) for _ in range(4))
        raw = [(x + t * dx, y + t * dy) for t in range(rng.randint(2, 3))]
    else:
        raw = [(rng.randint(-2, 2), F(rng.randint(-4, 4), 2)) for _ in range(rng.randint(3, 5))]
    if kronecker:  # the second coordinate K y plus small digits, as fiber slices at a Kronecker point have it
        raw = [(x, K * y + K // 2**32 * rng.randint(-1, 1) + rng.randint(-1, 1)) for x, y in raw]
    return Polygon2.from_points(raw)


@pytest.mark.parametrize("kronecker", [False, True], ids=["rational", "kronecker"])
def test_minkowski_sum_of_many_summands_is_the_hull_of_vertex_sums(kronecker):
    def check(*summands):
        sums = {(F(0), F(0))}
        for p in summands:
            sums = {(s[0] + v[0], s[1] + v[1]) for s in sums for v in p.vertices}
        vertices = minkowski_sum(*summands).vertices
        assert vertices == Polygon2.from_points(sums).vertices
        return vertices

    def poly(*raw):  # at the Kronecker scale, sheared by (x, y) -> (x, K y + x): parallel edges stay parallel
        if kronecker:
            raw = [(x, K * y + x) for x, y in raw]
        return Polygon2.from_points(raw)

    rng = random.Random(f"minkowski/{kronecker}")
    for _ in range(120):
        check(*(_summand(rng, kronecker) for _ in range(rng.randint(3, 4))))
    # every summand a segment along one line: the sum is a segment
    assert len(check(poly((0, 0), (1, 2)), poly((3, 1), (1, -3)), poly((2, 2), (4, 6)))) == 2
    # runs of three and four parallel edges
    square, rectangle = poly((0, 0), (1, 0), (1, 1), (0, 1)), poly((0, 0), (3, 0), (3, 1), (0, 1))
    assert len(check(square, rectangle, poly((0, 0), (2, 0), (2, 2), (0, 2)))) == 4
    assert len(check(poly((0, 0), (2, 1)), poly((0, 0), (2, 1)), poly((4, 2), (6, 3)), square)) == 6
    # a lone point among segments
    assert len(check(poly((0, 1)), poly((0, 0), (1, 0)), poly((2, 2)), poly((0, 0), (0, 3)))) == 4
    if kronecker:  # along one line at scale K, off it in the small digits: a polygon of small area
        lean = [Polygon2.from_points([(0, 0), (x, K * x + s)]) for x, s in ((1, K // 2**32), (2, 1), (1, 0))]
        assert len(check(*lean)) > 2
    square = Polygon2.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert minkowski_sum().vertices == ((F(0), F(0)),)
    assert minkowski_sum(square, square, square).vertices == tuple((3 * x, 3 * y) for x, y in square.vertices)
    assert minkowski_sum(square, Polygon2(vertices=()), square).is_empty


def test_kronecker_point_signs_are_those_of_z_plus_eps():
    # a form with coefficients below the base reads the sign of l(z), and on l(z) = 0 of its first nonzero coefficient
    rng = random.Random("kronecker")
    for _ in range(300):
        m, base = rng.randint(1, 5), 1 << rng.randint(1, 4)
        z = [rng.randint(-2, 2) for _ in range(m)]
        form = [rng.randint(1 - base, base - 1) for _ in range(m)]
        at_z = sum(a * b for a, b in zip(form, z))
        expected = at_z or next((c for c in form if c), 0)
        at_kronecker = sum(a * b for a, b in zip(form, kronecker_point(z, base)))
        assert (at_kronecker > 0) - (at_kronecker < 0) == (expected > 0) - (expected < 0), (z, form, base)


def _polygon_oracles(vertices, calls):
    """The value and vertex calls of the polygon with these vertices, counted in `calls`."""
    def value(nu):
        calls["value"] += 1
        return max(sum(map(operator.mul, p, nu)) for p in vertices)

    def vertex(nu):
        calls["vertex"] += 1
        return max(vertices, key=lambda p: (sum(map(operator.mul, p, nu)), p))  # an end of the face: a vertex

    return value, vertex


def test_probe_polygon_reads_the_hull_with_one_vertex_call_per_vertex():
    rng = random.Random("probe")
    for _ in range(200):
        while len(hull := convex_hull_2d([(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(12)])) < 3:
            pass
        hull, calls = tuple((int(x), int(y)) for x, y in hull), {"value": 0, "vertex": 0}
        ring, edges = probe_polygon(*_polygon_oracles(hull, calls), 2)
        start = ring.index(min(ring))
        assert tuple(ring[start:] + ring[:start]) == hull
        assert calls == {"value": 2 * len(hull) - 2, "vertex": len(hull)} and len(edges) == len(hull)
        for (nu, top), a, b in zip(edges, ring, ring[1:] + ring[:1]):
            assert math.gcd(*nu) == 1 and max(sum(map(operator.mul, p, nu)) for p in hull) == top
            assert sum(map(operator.mul, a, nu)) == top == sum(map(operator.mul, b, nu))


def test_probe_polygon_needs_only_the_seed_calls_below_dimension_two():
    calls = {"value": 0, "vertex": 0}
    assert probe_polygon(*_polygon_oracles([()], calls), 0) == ([()], [])
    assert calls == {"value": 0, "vertex": 1}
    calls = {"value": 0, "vertex": 0}
    assert probe_polygon(*_polygon_oracles([(-3,), (4,)], calls), 1) == ([(-3,), (4,)], [])
    assert calls == {"value": 0, "vertex": 2}


def test_probe_polygon_refuses_a_support_that_is_not_convex():
    # the seeds of the triangle are (0, 0) and (2, 0): their edge's normal (0, -1) has the value 0, the callback -1
    value, vertex = _polygon_oracles([(0, 0), (2, 0), (1, 3)], {"value": 0, "vertex": 0})
    with pytest.raises(InternalError, match=r"support is convex: value\(\(0, -1\)\) = -1 is below 0"):
        probe_polygon(lambda nu: value(nu) - (nu == (0, -1)), vertex, 2)
    with pytest.raises(InternalError, match=r"vertex call attains its value: <\(0, -1\), \(2, 0\)> is not value\(\(0, -1\)\) = 1"):
        probe_polygon(lambda nu: value(nu) + 1, vertex, 2)


def test_integer_normal_against_reference_minors():
    rng = random.Random("integer-normal")
    for k in range(1, 10):
        for rep in range(10):
            rows = [[rng.randint(-6, 6) for _ in range(k + 1)] for _ in range(k)]
            if rep % 3 == 1:  # a zero column: skipped by the elimination
                for r in rows:
                    r[rng.randrange(k + 1)] = 0
            if rep % 3 == 2 and k > 1:  # dependent rows: the zero normal
                rows[-1] = [3 * x for x in rows[0]]
            want = [(-1) ** j * ref.det([list(map(F, r[:j] + r[j + 1:])) for r in rows]) for j in range(k + 1)]
            normal = integer_normal(rows)
            assert normal == want and all(type(x) is int for x in normal), (k, rows)
            assert all(sum(a * x for a, x in zip(normal, r)) == 0 for r in rows)


CUBE = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
]


def test_fiber_slice_cube():
    sq = fiber_slice(CUBE, F(1, 2))
    assert sq.area() == 1
    assert fiber_slice(CUBE, 2).is_empty
    # boundary slice is the hull of the extreme vertices' projections
    assert fiber_slice(CUBE, 1).area() == 1


def test_fiber_slice_cone():
    cone = [(1, 0, 0), (2, 0, 0), (0, 1, 0)]
    seg = fiber_slice(cone, 1)
    assert seg.vertices == ((F(0), F(0)), (F(1, 2), F(0)))


def test_fiber_polygon_cube():
    assert fiber_polygon(CUBE).area() == 1


def test_fiber_polygon_flat_body():
    flat = [(0, 0, 0), (1, 2, 0), (3, 1, 0), (2, -1, 0)]
    poly = fiber_polygon(flat)
    assert poly.area() == 0


def test_fiber_polygon_cone_segment():
    # direct double integral: int_0^1 xi/2 + int_1^2 (1 - xi/2) = 1/2
    poly = fiber_polygon([(1, 0, 0), (2, 0, 0), (0, 1, 0)])
    assert poly.area() == 0
    (y0, z0), (y1, z1) = poly.vertices
    assert z0 == 0 and z1 == 0
    assert y1 - y0 == F(1, 2)


def test_fiber_polygon_translation_and_scaling():
    rng = random.Random(11)
    for _ in range(10):
        verts = [
            (F(rng.randint(0, 5)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            for _ in range(6)
        ]
        base = fiber_polygon(verts)
        dy, dz = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        moved = fiber_polygon([(x, y + dy, z + dz) for x, y, z in verts])
        assert moved.area() == base.area()
        diffs = {
            (q[0] - p[0], q[1] - p[1])
            for p, q in zip(base.vertices, moved.vertices)
        }
        assert len(diffs) == 1
        t = F(rng.randint(1, 4))
        scaled = fiber_polygon([(t * x, y, z) for x, y, z in verts])
        assert scaled.vertices == tuple((t * y, t * z) for y, z in base.vertices)


def test_fiber_polygon_grid_oracle():
    rng = random.Random(13)
    for _ in range(6):
        verts = [
            (F(rng.randint(0, 4)), F(rng.randint(0, 3)), F(rng.randint(0, 3)))
            for _ in range(rng.randint(4, 8))
        ]
        if len(set(v[0] for v in verts)) < 2:
            continue
        exact = fiber_polygon(verts).area()
        approx, bound = fiber_polygon_grid_area(verts, 29)
        assert abs(exact - approx) <= bound
        # refining the grid shrinks the certified error
        approx2, bound2 = fiber_polygon_grid_area(verts, 58)
        assert bound2 <= bound
        assert abs(exact - approx2) <= bound2


def test_grid_oracle_converges():
    verts = [(0, 0, 0), (2, 0, 0), (1, 3, 1), (2, 1, 2), (0, 1, 1)]
    exact = fiber_polygon(verts).area()
    approx, bound = fiber_polygon_grid_area(verts, 200)
    assert abs(exact - approx) <= bound
    assert abs(exact - approx) < F(1, 10)


def test_jets_order_lexicographically():
    a, b, c = Jet.seed((F(1), F(1), F(0)))  # 1 + eps_1, 1 + eps_2, eps_3
    assert b < a and c < b and 0 < c < 1
    assert sorted([a, F(1), b, F(1, 2), c, F(2)]) == [c, F(1, 2), F(1), b, a, F(2)]
    assert max([F(1), -a + 2, b]) == b and min([F(1), -b + 2]) == -b + 2
    assert a - b > 0 and (a - b) + (b - a) == 0 and 1 - a == -(a - 1)
    assert a + b - 2 == Jet(F(0), (1, 1, 0))
    assert a * 3 == 3 * a == Jet(F(3), (3, 0, 0))
    assert (a - 1) / 2 == Jet(F(0), (F(1, 2), 0, 0))


def test_jets_with_zero_gradient_equal_and_hash_like_their_value():
    a, b = Jet.seed((F(3, 2), F(3, 2)))
    flat = a - a + F(3, 2)
    assert flat == F(3, 2) and F(3, 2) == flat and hash(flat) == hash(F(3, 2))
    assert len({flat, F(3, 2), a, b, a + 0, Jet(F(3, 2), (1, 0))}) == 3
    assert a != b and a != F(3, 2) and a != "3/2"
    assert jet_reference.rat(a) is a and jet_reference.point((a, 1)) == (a, F(1))


def test_jet_products_and_quotients_raise():
    a, b = Jet.seed((F(1), F(2)))
    for op in (lambda: a * b, lambda: a / b, lambda: 1 / a, lambda: F(1) / a):
        with pytest.raises(InternalError, match="not linear in eps"):
            op()


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 10**4, 2**31])
def test_rational_draws_are_the_randint_stream(bound):
    # both samplers draw here; consecutive calls continue one stream
    for seed in (0, 1, 41, 2**40, "draws"):
        rng, draws = random.Random(seed), rational_draws(seed, bound)
        for k in (0, 1, 5, 2, 9):
            assert draws(k) == [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(k)]
