"""The integer fiber kernel against the `Fraction` route it replaced.

`fiber_polygon` clears the vertices' denominators once, cuts, hulls and sums
its breakpoint slices in integers at one common scale, and divides once. It
must return the polygons of `jet_reference`'s `Fraction` route vertex for vertex,
`repr`-equal: on Morse pyramids at cone witnesses, wide and
Laurent exponent sets included, on seeded rational point sets with coplanar
and collinear runs and repeated points, and on small solids. A pin keeps
the hulls, sums and shoelaces of `fiber_polygon` and of the support routes,
which read `_fiber_sum` itself, in integers.
"""

import random
from fractions import Fraction as F

import jet_reference as ref
import pytest
from quantity_reference import build_delta
from test_jet_reference import EXPONENTS

from basecondary import exact_core, fiber_morse
from basecondary.exact_core import fiber_polygon
from basecondary.fiber_morse import area_P_bar, build_delta_bar, maxwell_support, morse_config
from basecondary.secondary import cone_witness, enumerate_triangulations_1d

WIDE = [[1, 97, 1000, 10007], [-9973, -30, 1, 7919, 104729]]

CUBE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def _pyramids(points, rng):
    """Barred and roof-only pyramids at shifted cone witnesses, each moved by a seeded offset."""
    mc = morse_config(points)
    pc = mc.config()
    for t in enumerate_triangulations_1d(pc)[:4]:
        w = tuple(x + F(rng.randint(0, 3), rng.randint(1, 3)) for x in cone_witness(pc, t))
        for build in (build_delta_bar, build_delta):
            yield build(mc, w)


def _point_set(rng):
    """Points of Q^3 with non-integer x: a few on one plane, a few on one line, some repeated."""
    def q(lo, hi):
        return F(rng.randint(lo, hi), rng.choice((1, 2, 3, 6)))

    pts = [(q(-6, 6), q(-4, 4), q(-4, 4)) for _ in range(rng.randint(1, 5))]
    a, b, c = q(-2, 2), q(-2, 2), q(-3, 3)  # the plane z = a x + b y + c
    pts += [(x, y, a * x + b * y + c) for x, y in ((q(-6, 6), q(-4, 4)) for _ in range(rng.randint(0, 4)))]
    p, d = pts[0], (q(-2, 2), q(-2, 2), q(-2, 2))  # the line p + s d
    pts += [tuple(pi + s * di for pi, di in zip(p, d)) for s in (q(-3, 3) for _ in range(rng.randint(0, 3)))]
    pts += rng.sample(pts, min(len(pts), rng.randint(0, 2)))
    rng.shuffle(pts)
    return pts


def _check(vertices):
    assert repr(fiber_polygon(vertices)) == repr(ref.fiber_polygon(vertices)), vertices


@pytest.mark.parametrize("points", EXPONENTS + WIDE, ids=str)
def test_fiber_polygon_matches_the_fraction_route_on_morse_pyramids(points):
    rng = random.Random(f"fiber kernel/{points}")
    for vertices in _pyramids(points, rng):
        _check(vertices)


def test_fiber_polygon_matches_the_fraction_route_on_rational_point_sets():
    rng = random.Random("fiber kernel/point sets")
    for _ in range(100):
        _check(_point_set(rng))


def test_fiber_polygon_matches_the_fraction_route_on_small_solids():
    flat = [(0, 0, 0), (1, 2, 0), (3, 1, 0), (2, -1, 0)]
    single = [(F(5, 2), 0, 0), (F(5, 2), 1, F(1, 3)), (F(5, 2), -1, 2)]
    for vertices in (CUBE, flat, single, single[:1], [(1, 0, 0), (2, 0, 0), (0, 1, 0)]):
        _check(vertices)
    assert fiber_polygon(single).vertices == ((F(0), F(0)),)


def test_fiber_polygon_hulls_integers(monkeypatch):
    """`fiber_polygon`, `area_P_bar` and `maxwell_support` below 0 hull, sum and shoelace ints only.

    The support routes read `_fiber_sum` and never call `fiber_polygon`.
    """
    rng = random.Random("fiber kernel/integers")
    mc = morse_config([-3, -1, 1, 2, 4])
    gamma = [F(rng.randint(1, 12), rng.randint(1, 5)) for _ in range(mc.m)]
    pyramid = build_delta_bar(mc, gamma)
    hull, msum, area = exact_core._hull, exact_core.minkowski_sum, exact_core.Polygon2.area
    seen = []

    def record(points):
        seen.extend(c for p in points for c in p)
        return points

    def sum_spy(*summands):
        record([v for p in summands for v in p.vertices])
        return msum(*summands)

    def area_spy(polygon):
        record(polygon.vertices)
        return area(polygon)

    def no_fiber_polygon(vertices):
        raise AssertionError("a support route called fiber_polygon")

    monkeypatch.setattr(exact_core, "_hull", lambda points: hull(record(list(points))))
    monkeypatch.setattr(exact_core, "minkowski_sum", sum_spy)
    monkeypatch.setattr(exact_core.Polygon2, "area", area_spy)
    fiber_polygon(pyramid)
    assert seen and all(type(c) is int for c in seen)
    monkeypatch.setattr(exact_core, "fiber_polygon", no_fiber_polygon)
    monkeypatch.setattr(fiber_morse, "fiber_polygon", no_fiber_polygon, raising=False)
    for run in (lambda: area_P_bar(mc, gamma), lambda: maxwell_support(mc, [g - 7 for g in gamma])):
        seen.clear()
        run()
        assert seen and all(type(c) is int for c in seen)
