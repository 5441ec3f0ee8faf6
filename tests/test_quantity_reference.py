"""Each quantity computed in one place, against the second route it replaced.

The general evaluator, the secondary support and the planar lattice volume
must return exactly what `quantity_reference` returns, type included, on
seeded n = 0, 1 and 2 configurations with tie-heavy integer heights (and
jets for n <= 1, as `maxwell_support` passes them). The fiber polygon of
the pyramid's hull vertices must be that of all its base and roof points,
and `area_N`, half the secondary support, the area of its own hull. Three
pins keep the single routes single: an oriented volume runs no rational
elimination, a cell with k values below its maximum costs the evaluator
k + 1 F calls, and `area_N` takes no hull.
"""

import itertools
import random
from fractions import Fraction as F

import linalg_reference
import pytest
import quantity_reference as ref

from basecondary import core, exact_core, secondary
from basecondary.core import eval_basecondary_general
from basecondary.exact_core import Jet, fiber_polygon, lattice_volume, make_config, oriented_volume
from basecondary.fiber_morse import build_delta_bar, morse_config
from basecondary.secondary import area_N, secondary_support, upper_cells
from basecondary.setfun import SetFunction, evaluate_f

CONFIGS = 40


def _key(x):
    return repr((x.value, x.grad)) if isinstance(x, Jet) else repr(x)


def _config(rng, n, m):
    if n == 0:
        return make_config(0, [[] for _ in range(m)])
    if n == 1:
        return make_config(1, [[a] for a in rng.sample(range(-6, 8), m)])
    pts = set()  # a small grid: several points on one line
    while len(pts) < m:
        pts.add((rng.randint(0, 3), F(rng.randint(0, 6), rng.randint(1, 2))))
    return make_config(2, sorted(pts))


def _heights(rng, config):
    """Integers from 0..3, or an integer affine function with some points pushed down."""
    if rng.random() < 0.5:
        return tuple(F(rng.randint(0, 3)) for _ in range(config.m))
    slope = [rng.randint(-2, 2) for _ in range(config.n)]
    return tuple(
        F(sum(s * x for s, x in zip(slope, p)) - (rng.random() < 0.4) * rng.randint(1, 2))
        for p in config.points
    )


def _table(rng, config):
    """Small integer values on every set of size >= n, so differences often vanish."""
    values = {
        frozenset(sub): F(rng.randint(-3, 3))
        for r in range(max(1, config.n), config.m + 1)
        for sub in itertools.combinations(range(1, config.m + 1), r)
    }
    return SetFunction(kind="table", m=config.m, min_size=config.n, table=values)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_evaluator_and_secondary_support_match_the_references(n):
    rng = random.Random(f"one-route/{n}")
    ties = jets = 0
    for _ in range(CONFIGS):
        config = _config(rng, n, rng.randint(n + 2, {0: 7, 1: 8, 2: 7}[n]))
        f = _table(rng, config)
        for _ in range(4):
            gamma = _heights(rng, config)
            ties += any(len(set(c.values)) < config.m - len(c.cell) + 1 for c in upper_cells(config, gamma))
            heights = [gamma] + [Jet.seed(gamma)] * (n <= 1)
            for h in heights:
                jets += isinstance(h[0], Jet)
                want = ref.eval_basecondary_general(config, f, h)
                assert _key(eval_basecondary_general(config, f, h)) == _key(want)
                assert _key(secondary_support(config, h)) == _key(ref.secondary_support(config, h))
    assert ties >= CONFIGS  # tail values do tie
    assert jets == (4 * CONFIGS if n <= 1 else 0)


def test_planar_lattice_volume_matches_its_own_hull():
    rng = random.Random("one-route/area")
    for _ in range(400):
        k = rng.randint(1, 7)
        if rng.random() < 0.2:  # collinear
            a, b = rng.randint(-2, 2), F(rng.randint(-3, 3), rng.randint(1, 3))
            pts = [(F(x), a * x + b) for x in (rng.randint(-4, 4) for _ in range(k))]
        else:
            pts = [(F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4))) for _ in range(k)]
        assert repr(lattice_volume(pts)) == repr(ref.lattice_volume(pts)), pts


def test_oriented_volume_runs_no_elimination(monkeypatch):
    calls = []
    for name in ("_bareiss",):
        real = getattr(exact_core, name)
        monkeypatch.setattr(exact_core, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    rng = random.Random("one-route/volume")
    for k in range(5):
        vertices = [tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)) for _ in range(k + 1)]
        rows = [[v[c] - vertices[0][c] for c in range(k)] for v in vertices[1:]]
        assert repr(oriented_volume(vertices)) == repr(linalg_reference.det(rows))
        # up to 2 x 2 a closed form; larger determinants eliminate in integers only
        assert set(calls) <= ({"_bareiss"} if k > 2 else set()), (k, calls)


def test_each_threshold_set_costs_one_f_call(monkeypatch):
    calls = []
    monkeypatch.setattr(core, "evaluate_f", lambda f, s: calls.append(s) or evaluate_f(f, s))
    f = SetFunction(kind="table", m=6, table={frozenset({1, 2, 3}): F(-1)}, default=F(1))
    config = make_config(0, [[] for _ in range(6)])
    for gamma, k in (((5, 5, 2, 2, 2, 0), 2), ((4, 1, 1, 1, 1, 1), 1), ((3,) * 6, 0)):
        calls.clear()
        assert eval_basecondary_general(config, f, gamma) == ref.eval_basecondary_general(config, f, gamma)
        assert len(calls) == (k + 1 if k else 0)  # the reference queries 2k sets
        assert len(calls) == len(set(calls))
    rng = random.Random("one-route/calls")
    for _ in range(CONFIGS):
        config = _config(rng, 1, rng.randint(3, 8))
        gamma = _heights(rng, config)
        levels = [len(set(c.values)) - 1 for c in upper_cells(config, gamma)]
        calls.clear()
        eval_basecondary_general(config, _table(rng, config), gamma)
        assert len(calls) == sum(k + 1 for k in levels if k)


@pytest.mark.parametrize("points", [[1, 3, 6, 7], [1, 2, 3, 5, 8], [-3, -1, 1, 2, 4], [-8, -6, -3, -1, 3, 8]])
def test_pyramid_hull_vertices_give_the_fiber_of_all_points(points):
    mc = morse_config(points)
    rng = random.Random(f"pyramid/{points}")
    for rep in range(16):
        if rep % 4 < 2:  # rational, then tie-heavy integer heights
            gamma = [F(rng.randint(0, 12), rng.randint(1, 3)) if rep % 4 == 0 else F(rng.randint(0, 2)) for _ in points]
        else:  # jets, then tie-heavy integer jets
            gamma = Jet.seed([F(rng.randint(0, 12), rng.randint(1, 3)) if rep % 4 == 2 else F(rng.randint(0, 2)) for _ in points])
        got = fiber_polygon(build_delta_bar(mc, gamma)).vertices
        want = fiber_polygon(ref.build_delta_bar(mc, gamma)).vertices
        assert [tuple(map(_key, v)) for v in got] == [tuple(map(_key, v)) for v in want], (points, gamma)


def test_area_N_matches_its_own_hull(monkeypatch):
    hulls = []
    real = exact_core.convex_hull_2d
    for module in (exact_core, secondary):
        monkeypatch.setattr(module, "convex_hull_2d", lambda pts: hulls.append(pts) or real(pts))
    rng = random.Random("one-route/area_N")
    for _ in range(CONFIGS):
        config = _config(rng, 1, rng.randint(2, 8))
        for rep in range(6):
            if rep % 3 == 0:  # rational
                gamma = tuple(F(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(config.m))
            else:  # tie-heavy integer
                gamma = tuple(F(rng.randint(0, 2)) for _ in range(config.m))
            for h in (gamma, Jet.seed(gamma)):
                hulls.clear()
                got = area_N(config, h)
                assert not hulls
                assert _key(got) == _key(ref.area_N(config, h)), (config, h)
