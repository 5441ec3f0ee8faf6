"""Pyramids, fiber areas, Morse/Maxwell supports and their polytopes."""

from fractions import Fraction as F

import contextlib
import io
import json
import random

import pytest
import quantity_reference
import witness_reference
from jet_reference import fiber_slice
from numeric_oracle import fiber_polygon_grid_area, numeric_gradient

from basecondary import exact_core, fiber_morse
from basecondary.cli import main
from basecondary.errors import InputError
from basecondary.exact_core import fiber_polygon
from basecondary.fiber_morse import (
    FIBER_SUPPORT_SCALE,
    _gradient,
    area_P_bar,
    build_delta_bar,
    iterated_fiber_support,
    maxwell_support,
    morse_config,
    morse_polytope,
    morse_support,
)
from basecondary.secondary import area_N, secondary_support
from basecondary.core import eval_basecondary_general
from basecondary.secondary import cone_witness, enumerate_triangulations_1d, regular_subdivision

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
    assert set(flat) == {(1, 0, 0), (2, 0, 0), (0, 1, 0)}
    lifted = build_delta_bar(mc, (1, 1))
    assert len(lifted) == 5
    assert (0, 1, 0) in lifted
    unb = quantity_reference.build_delta(mc, (1, 1))
    assert all(v[1] == 1 or v[2] != 0 or v[0] != 0 for v in unb)
    with pytest.raises(InputError):
        build_delta_bar(mc, (1, -1))


def test_build_delta_bar_keeps_only_hull_vertices():
    # (2,0,1) lies under the roof's upper chain and (5,0,3) on it; the base points between the corners lie inside
    pyramid = build_delta_bar(morse_config([1, 2, 3, 5, 7]), (2, 1, 4, 3, 2))
    assert sorted(pyramid) == sorted([(1, 0, 0), (7, 0, 0), (1, 0, 2), (3, 0, 4), (7, 0, 2), (0, 1, 0)])
    # a roof corner at height 0 is a base corner already
    pyramid = build_delta_bar(morse_config([1, 2, 3]), (0, 1, 0))
    assert sorted(pyramid) == sorted([(1, 0, 0), (3, 0, 0), (2, 0, 1), (0, 1, 0)])


def test_fiber_polygon_hulls_once_per_breakpoint(monkeypatch):
    # one hull per slice and none for the Minkowski sum; weighting a slice keeps its canonical form
    calls = []
    real = exact_core._hull
    monkeypatch.setattr(exact_core, "_hull", lambda pts: calls.append(pts) or real(pts))
    vertices = build_delta_bar(MC, (2, 4, 5, 3))
    assert len({v[0] for v in vertices}) == 5
    fiber_polygon(vertices)
    assert len(calls) == 5


def test_minkowski_sum_takes_no_hull(monkeypatch):
    # the angle-sorted walk is convex and in order, so it is canonicalised without a hull
    vertices = build_delta_bar(MC, (2, 4, 5, 3))
    slices = [fiber_slice(vertices, x) for x in sorted({v[0] for v in vertices})]
    calls = []
    real = exact_core._hull
    monkeypatch.setattr(exact_core, "_hull", lambda pts: calls.append(pts) or real(pts))
    assert len(exact_core.minkowski_sum(*slices).vertices) > 2
    assert calls == []


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
        verts = build_delta_bar(MC, gamma)
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
            - 6 * quantity_reference.area_N(PC, gamma)
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
        assert mu - 2 * mx == 2 * quantity_reference.area_N(PC, gamma)


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
        barred = fiber_polygon(build_delta_bar(MC, gamma))
        plain = fiber_polygon(quantity_reference.build_delta(MC, gamma))
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
    points = witness_reference.walls_by_side(PC)
    for wall in walls[:2]:
        witness = points[(wall.left, wall.moved)].witness
        shift = 1 - min(witness)
        w = tuple(c + shift for c in witness)
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

    points = witness_reference.walls_by_side(PC)
    for wall in enumerate_walls_1d(PC):
        witness = points[(wall.left, wall.moved)].witness
        shift = 1 - min(witness)
        w = tuple(c + shift for c in witness)
        assert secondary_support(PC, w) == 2 * quantity_reference.area_N(PC, w)


def _same_cone_pairs(mc, rng, count, bound=12):
    """Seeded pairs of nonnegative integer heights inducing the same subdivision."""
    pc = mc.config()
    seen = {}
    pairs = []
    while len(pairs) < count:
        g = tuple(F(rng.randint(0, bound)) for _ in range(mc.m))
        cells = regular_subdivision(pc, g).cells
        pairs.extend((g, h) for h in seen.get(cells, [])[: count - len(pairs)])
        seen.setdefault(cells, []).append(g)
    return pairs


def _additive(mc, g, h):
    total = tuple(a + b for a, b in zip(g, h))
    return area_P_bar(mc, total) == area_P_bar(mc, g) + area_P_bar(mc, h)


def test_fiber_summand_additive_on_same_sign_cones():
    # With every exponent on one side of 0 the fiber summand is additive on
    # each secondary cone, so a gradient built from the cone's rays would be
    # exact there. With interior vertices on both sides of 0 it is not.
    rng = random.Random(31)
    for pts in ([1, 2, 4, 7], [1, 3, 4, 6], [2, 3, 5], [-5, -3, -2, -1], [-7, -4, -3]):
        mc = morse_config(pts)
        assert all(_additive(mc, g, h) for g, h in _same_cone_pairs(mc, rng, 24)), pts
    mixed = morse_config([-2, -1, 1, 3])
    assert not all(_additive(mixed, g, h) for g, h in _same_cone_pairs(mixed, rng, 40))


@pytest.mark.parametrize(
    "pts",
    [[1, 2, 4, 7], [1, 3, 4, 6], [2, 3, 5], [-5, -3, -2, -1], [-7, -4, -3]]  # the same-sign sets above
    + [[1, 3, 6, 7], [1, 2, 4, 5, 7], [-3, -1, 2, 5]],
)
def test_fiber_jet_gradient_matches_the_oracle(pts):
    # the gradients at the jet w + eps, which `_gradient` reads off two integer
    # evaluations; at a generic witness they are the difference quotients'.
    # Maxwell at heights of both signs, w - min(w) - 1, has the gradient at w.
    mc = morse_config(pts)
    pc = mc.config()
    for t in enumerate_triangulations_1d(pc):
        w = cone_witness(pc, t)
        for fn in (area_P_bar, morse_support, maxwell_support):
            assert _gradient(mc, fn, w) == numeric_gradient(pc, lambda x: fn(mc, x), w), fn
        below = tuple(x - min(w) - 1 for x in w)
        assert _gradient(mc, maxwell_support, w) == numeric_gradient(pc, lambda x: maxwell_support(mc, x), below)


@pytest.mark.parametrize("variant", ["morse", "maxwell"])
def test_morse_polytope_at_a_witness_on_a_fiber_chamber_wall(tmp_path, variant):
    # A cone witness of these exponents lies on a wall between linearity
    # chambers of the fiber summand, where coordinate difference quotients
    # mix two chambers; `_gradient` takes the gradient of the chamber toward
    # eps_1 >> eps_2 >> ..., which the lexicographic line w + s (1, d, d^2, ...)
    # stays in for small s.
    exponents = [-8, -6, -3, -1, 3, 8]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"A": exponents}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["morse-polytope", "--input", str(path), "--variant", variant]) == 0
    rep = json.loads(out.getvalue())
    assert rep["certified"] is True
    mc = morse_config(exponents)
    fn = morse_support if variant == "morse" else maxwell_support
    step = tuple(F(1, 10**6) * F(1, 10**3) ** k for k in range(mc.m))
    for cone in rep["cones"]:
        w, g = tuple(map(F, cone["witness"])), tuple(map(F, cone["gradient"]))
        value = fn(mc, w)
        assert sum(a * b for a, b in zip(g, w)) == value
        moved = tuple(a + b for a, b in zip(w, step))
        assert fn(mc, moved) == value + sum(a * b for a, b in zip(g, step))


@pytest.mark.parametrize("points", [[1, 2, 3, 4], [1, 3, 6, 7], [1, 2, 4, 5, 7], [-3, -1, 1, 2, 4], [1, 2, 3, 5, 8]])
def test_reflection_moves_each_support_by_a_linear_function(points):
    # x -> 1/x keeps every critical value, so the supports of A and -A (labels reversed) differ by a linear part
    mc, mirror = morse_config(points), morse_config([-a for a in reversed(points)])
    rng = random.Random(f"reflection/{points}")
    for support in (morse_support, maxwell_support):
        def d(gamma):
            return support(mirror, gamma[::-1]) - support(mc, gamma)

        for _ in range(10):
            g1, g2 = ([rng.randint(0, 6) for _ in points] for _ in range(2))
            assert d([a + b for a, b in zip(g1, g2)]) == d(g1) + d(g2), (support.__name__, g1, g2)


def test_maxwell_support_lifts_once(monkeypatch):
    # the basecondary value and the secondary support read one lift of gamma:
    # one real integer scan (the second call reads the config's kept lift);
    # a cone witness runs none, and a fresh config keeps no lift yet
    from basecondary import secondary

    lifts = []
    real = secondary._oriented_scan
    monkeypatch.setattr(secondary, "_oriented_scan", lambda *a: lifts.append(a) or real(*a))
    mc = morse_config(MC.points)
    for gamma in ((1, 2, 3, 5), (-1, 0, 4, 2)):
        lifts.clear()
        maxwell_support(mc, gamma)
        assert len(lifts) == 1
    for variant in ("morse", "maxwell"):  # 4 cones and 8 evaluations, two per gradient
        lifts.clear()
        morse_polytope(mc, variant)
        assert len(lifts) == 8


def test_morse_polytope_reads_each_gcd_set_once(monkeypatch):
    # one F per config: its cleared lookup outlives each support evaluation
    from basecondary import setfun

    calls = []
    real = setfun._mask_value
    monkeypatch.setattr(setfun, "_mask_value", lambda f, mask: calls.append(mask) or real(f, mask))
    mc = morse_config([1, 2, 3, 5, 8])
    assert mc.gcd_function() is mc.gcd_function()
    for variant in ("morse", "maxwell"):
        morse_polytope(mc, variant)
    assert len(calls) == len(set(calls)) == 26
