"""Pyramids, fiber areas, Morse/Maxwell supports and their polytopes."""

from fractions import Fraction as F

import random

import pytest
from numeric_oracle import numeric_gradient

from basecondary.errors import InputError
from basecondary.exact_core import fiber_polygon, fiber_polygon_grid_area
from basecondary.fiber_morse import (
    FIBER_SUPPORT_SCALE,
    area_P_bar,
    build_delta,
    build_delta_bar,
    iterated_fiber_support,
    maxwell_support,
    morse_config,
    morse_polytope,
    morse_support,
)
from basecondary.secondary import area_N, secondary_support
from basecondary.core import eval_basecondary_general
from basecondary.secondary import cone_witness, enumerate_triangulations_1d

MC = morse_config([1, 3, 6, 7])
PC = MC.config()


def random_nonneg(rng, m, hi=20):
    return tuple(F(rng.randint(0, hi), rng.randint(1, 4)) for _ in range(m))


def test_morse_config_validation():
    with pytest.raises(InputError):
        morse_config([0, 1])
    with pytest.raises(InputError):
        morse_config([2, 4, 6])
    with pytest.raises(InputError):
        morse_config([3, 1])
    morse_config([-2, -1, 1, 2])


def test_build_delta_bar_examples():
    mc = morse_config([1, 2])
    flat = build_delta_bar(mc, (0, 0))
    assert set(flat.vertices) == {(1, 0, 0), (2, 0, 0), (0, 1, 0)}
    lifted = build_delta_bar(mc, (1, 1))
    assert len(lifted.vertices) == 5
    assert (0, 1, 0) in lifted.vertices
    assert lifted.barred
    unb = build_delta(mc, (1, 1))
    assert not unb.barred
    assert all(v[1] == 1 or v[2] != 0 or v[0] != 0 for v in unb.vertices)
    with pytest.raises(InputError):
        build_delta_bar(mc, (1, -1))


def test_area_p_bar_zero_and_scaling():
    assert area_P_bar(MC, (0, 0, 0, 0)) == 0
    rng = random.Random(1)
    for _ in range(6):
        gamma = random_nonneg(rng, 4)
        lam = F(rng.randint(1, 6), rng.randint(1, 3))
        assert area_P_bar(MC, tuple(lam * g for g in gamma)) == lam * area_P_bar(
            MC, gamma
        )


def test_area_p_bar_grid_oracle():
    rng = random.Random(2)
    for _ in range(3):
        gamma = random_nonneg(rng, 4, hi=6)
        verts = build_delta_bar(MC, gamma).vertices
        exact_raw = fiber_polygon(verts).area()
        approx, bound = fiber_polygon_grid_area(verts, 60)
        assert abs(exact_raw - approx) <= bound
        assert area_P_bar(MC, gamma) == FIBER_SUPPORT_SCALE * exact_raw


def test_iterated_fiber_support_branches():
    rng = random.Random(3)
    level = area_P_bar(MC, (1, 1, 1, 1))
    for _ in range(6):
        gamma = random_nonneg(rng, 4)
        assert iterated_fiber_support(MC, gamma) == area_P_bar(MC, gamma)
    minus_one = (-1, -1, -1, -1)
    assert iterated_fiber_support(MC, minus_one) == -level


def test_iterated_fiber_homogeneity():
    rng = random.Random(4)
    level = area_P_bar(MC, (1, 1, 1, 1))
    for _ in range(8):
        gamma = tuple(F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(4))
        c = F(rng.randint(-6, 6), rng.randint(1, 2))
        lhs = iterated_fiber_support(MC, tuple(g + c for g in gamma))
        assert lhs == iterated_fiber_support(MC, gamma) + c * level


def test_morse_support_assembly():
    rng = random.Random(5)
    f = MC.gcd_function()
    for _ in range(6):
        gamma = random_nonneg(rng, 4)
        total = morse_support(MC, gamma)
        parts = (
            area_P_bar(MC, gamma)
            + eval_basecondary_general(PC, f, gamma)
            - 6 * area_N(PC, gamma)
        )
        assert total == parts
    with pytest.raises(InputError):
        morse_support(MC, (1, -1, 1, 1))


def test_maxwell_support_assembly():
    rng = random.Random(6)
    f = MC.gcd_function()
    for _ in range(6):
        gamma = tuple(F(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(4))
        total = maxwell_support(MC, gamma)
        parts = (
            iterated_fiber_support(MC, gamma)
            + eval_basecondary_general(PC, f, gamma)
            - 4 * secondary_support(PC, gamma)
        ) / 2
        assert total == parts


def test_morse_minus_twice_maxwell():
    rng = random.Random(7)
    for _ in range(10):
        gamma = random_nonneg(rng, 4)
        mu = morse_support(MC, gamma)
        mx = maxwell_support(MC, gamma)
        assert mu - 2 * mx == 2 * area_N(PC, gamma)


def test_morse_support_linear_along_affine_families():
    rng = random.Random(8)
    base = random_nonneg(rng, 4, hi=8)
    direction = tuple(2 * a + 3 for a in MC.points)  # affine on the exponents
    v0 = maxwell_support(MC, base)
    v1 = maxwell_support(MC, tuple(b + d for b, d in zip(base, direction)))
    v2 = maxwell_support(MC, tuple(b + 2 * d for b, d in zip(base, direction)))
    assert v2 - v1 == v1 - v0


def test_morse_support_piecewise_linear_in_cones():
    rng = random.Random(9)
    for t in enumerate_triangulations_1d(PC):
        w = cone_witness(PC, t)
        shift = 1 - min(w)
        w = tuple(c + shift for c in w)
        # three collinear probes inside one cone stay collinear in value
        direction = tuple(F(rng.randint(-2, 2), 10) for _ in range(4))
        vals = [
            morse_support(MC, tuple(c + k * d for c, d in zip(w, direction)))
            for k in range(3)
        ]
        assert vals[2] - vals[1] == vals[1] - vals[0]


def test_morse_polytope_certified_and_homogeneous():
    for pts in ([1, 2], [1, 2, 3], [1, 3, 6, 7]):
        mc = morse_config(pts)
        for variant in ("morse", "maxwell"):
            rep = morse_polytope(mc, variant)
            assert rep.certified
            sums = {sum(g) for g in rep.gradients}
            assert len(sums) == 1
    with pytest.raises(InputError):
        morse_polytope(MC, "caustic")


def test_morse_polytope_gradient_additivity():
    f = MC.gcd_function()
    rep = morse_polytope(MC, "morse")
    for w, g in rep.entries:
        g_fiber = numeric_gradient(PC, lambda x: area_P_bar(MC, x), w)
        g_base = numeric_gradient(PC, lambda x: eval_basecondary_general(PC, f, x), w)
        g_area = numeric_gradient(PC, lambda x: area_N(PC, x), w)
        combined = tuple(a + b - 6 * c for a, b, c in zip(g_fiber, g_base, g_area))
        assert combined == g


def test_ground_truth_shapes():
    # cubic exponents: the Maxwell stratum is empty, so the Maxwell polytope
    # is a point and the Morse polytope is the caustic segment with
    # exponent difference parallel to (1, -2, 1)
    mc = morse_config([1, 2, 3])
    maxwell = morse_polytope(mc, "maxwell")
    assert maxwell.certified and len(maxwell.gradients) == 1
    morse = morse_polytope(mc, "morse")
    assert morse.certified and len(morse.gradients) == 2
    g0, g1 = morse.gradients
    diff = tuple(a - b for a, b in zip(g0, g1))
    assert diff in ((1, -2, 1), (-1, 2, -1))
    # quartic with a gap: the Maxwell stratum is a single monomial
    mc2 = morse_config([1, 2, 4])
    maxwell2 = morse_polytope(mc2, "maxwell")
    assert maxwell2.certified and len(maxwell2.gradients) == 1


def test_delta_comparison_invariant():
    rng = random.Random(10)
    for _ in range(6):
        gamma = random_nonneg(rng, 4, hi=9)
        barred = fiber_polygon(build_delta_bar(MC, gamma).vertices)
        plain = fiber_polygon(build_delta(MC, gamma).vertices)
        assert plain.area() <= barred.area()
        assert _upper_integral(plain) == _upper_integral(barred)


def _upper_integral(poly):
    """Integral of the upper envelope of a convex polygon over its y-range."""
    if len(poly.vertices) < 2:
        return F(0)
    verts = list(poly.vertices)
    lo = min(v[0] for v in verts)
    hi = max(v[0] for v in verts)
    start = verts.index(max(verts, key=lambda v: (v[0], v[1])))
    # walk CCW from the rightmost-top vertex back to the leftmost: upper chain
    chain = []
    k = start
    while True:
        chain.append(verts[k])
        if verts[k][0] == lo and (len(chain) > 1 or start != k):
            break
        k = (k + 1) % len(verts)
        if k == start:
            break
    total = F(0)
    for (x1, y1), (x0, y0) in zip(chain, chain[1:]):
        total += (x1 - x0) * (y0 + y1) / 2
    return total


def test_supports_continuous_across_walls():
    from basecondary.secondary import enumerate_walls_1d

    walls = enumerate_walls_1d(PC)
    for wall in walls[:2]:
        shift = 1 - min(wall.witness)
        w = tuple(c + shift for c in wall.witness)
        for fn in (lambda g: morse_support(MC, g), lambda g: maxwell_support(MC, g)):
            base = fn(w)
            for sign in (1, -1):
                eps = F(1, 64)
                v1 = fn(tuple(c + sign * eps * d for c, d in zip(w, wall.direction)))
                v2 = fn(tuple(c + sign * (eps / 2) * d for c, d in zip(w, wall.direction)))
                # one-sided linear extension hits the wall value exactly
                assert 2 * v2 - v1 == base


def test_standing_identity_on_wall_witnesses():
    from basecondary.secondary import enumerate_walls_1d, secondary_support

    for wall in enumerate_walls_1d(PC):
        shift = 1 - min(wall.witness)
        w = tuple(c + shift for c in wall.witness)
        assert secondary_support(PC, w) == 2 * area_N(PC, w)
