"""Closed-form gradients and wall defects against the step-halving oracle.

Seeded instances: basecondary gradients (cofactor sums) for n = 0/1/2 and
at the pentagon's discovered cones, GKZ vectors against the secondary
support's gradient, circuit-lemma wall
defects and min_convexifier rows for 1D configurations with m = 4..8, and
morse_polytope against the oracle gradient of the whole Morse/Maxwell
support. Every comparison is exact equality of Fractions.
"""

from fractions import Fraction as F

import itertools
import random

import pytest
import witness_reference
from numeric_oracle import numeric_gradient, second_difference

from basecondary.core import eval_basecondary_general, gradient_on_cone, min_convexifier, wall_defect_numeric
from basecondary.errors import InputError
from basecondary.exact_core import affine_rank, make_config
from basecondary.fiber_morse import (
    maxwell_support,
    morse_config,
    morse_polytope,
    morse_support,
)
from basecondary.secondary import (
    cone_witness,
    discover_cones_random,
    enumerate_triangulations_1d,
    enumerate_walls_1d,
    gkz_vector,
    is_generic,
    regular_subdivision,
    secondary_support,
    upper_cells,
)
from basecondary.setfun import (
    SetFunction, is_submodular_above, neg_gcd_function, neg_indicator_function, table_function,
)


def random_table(rng, m):
    values = {
        frozenset(sub): F(rng.randint(-5, 5), rng.randint(1, 3))
        for r in range(1, m + 1)
        for sub in itertools.combinations(range(1, m + 1), r)
    }
    return SetFunction(kind="table", m=m, min_size=0, table=values)


def random_config(rng, n):
    if n == 0:
        return make_config(0, [[] for _ in range(rng.randint(2, 5))])
    if n == 1:
        xs = rng.sample(range(-9, 10), rng.randint(3, 7))
        return make_config(1, [[x] for x in xs])
    while True:
        pts = rng.sample([(x, y) for x in range(-3, 4) for y in range(-3, 4)], rng.randint(4, 6))
        if affine_rank([(F(x), F(y)) for x, y in pts]) == 2:
            return make_config(2, [list(p) for p in pts])


def random_generic_witness(rng, config):
    while True:
        gamma = tuple(F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(config.m))
        if is_generic(config, gamma):
            return gamma


@pytest.mark.parametrize("n, count", [(0, 60), (1, 60), (2, 30)])
def test_gradient_and_gkz_match_the_oracle(n, count):
    rng = random.Random(300 + n)
    for _ in range(count):
        config = random_config(rng, n)
        f = random_table(rng, config.m)
        w = random_generic_witness(rng, config)
        assert gradient_on_cone(config, f, w) == numeric_gradient(
            config, lambda g: eval_basecondary_general(config, f, g), w
        )
        gkz = gkz_vector(config, regular_subdivision(config, w))
        assert gkz == numeric_gradient(config, lambda g: secondary_support(config, g), w)


PENTAGON = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])


@pytest.mark.parametrize("f", [
    neg_indicator_function(5, min_size=2),
    table_function(5, {(1, 2, 3): -1, (2, 4): 3, (1, 3, 5): F(1, 2), (1, 2, 3, 4, 5): 2}, min_size=2),
], ids=["neg-indicator", "table"])
def test_gradients_at_the_pentagon_cone_witnesses(f):
    cones = discover_cones_random(PENTAGON, 200, 41)
    assert len(cones) == 5
    for t, w in cones:
        assert gradient_on_cone(PENTAGON, f, w) == numeric_gradient(
            PENTAGON, lambda g: eval_basecondary_general(PENTAGON, f, g), w
        )
        gkz = gkz_vector(PENTAGON, t)
        assert gkz == numeric_gradient(PENTAGON, lambda g: secondary_support(PENTAGON, g), w)


# [0, 1, 2, 4, 5, 7, 8] has wall witnesses whose circuital cell ties two
# off-cell values unless every cell is required to be tail-distinct
# and rational coordinates scale every volume of the kernel by 1 / dx
WALL_CONFIGS = [[0, 1, 2, 4, 5, 7, 8]] + [
    sorted(random.Random(400 + m).sample(range(1, 25), m)) for m in (4, 5, 6, 7, 8)
] + [[F(-7, 3), F(-1, 2), 0, F(2, 3), F(3, 2), F(11, 4)]]


@pytest.mark.parametrize("xs", WALL_CONFIGS, ids=lambda xs: f"m{len(xs)}" + "_rational" * any(isinstance(x, F) for x in xs))
def test_walls_meet_the_lemma_and_match_the_oracle(xs):
    config = make_config(1, [[x] for x in xs])
    rng = random.Random(len(xs))
    walls = enumerate_walls_1d(config)
    # the oracle steps off a wall point of the reference's, matched by (left, moved)
    by_side = witness_reference.walls_by_side(config)
    points = [by_side[(wall.left, wall.moved)] for wall in walls]
    for point in points:
        cells = upper_cells(config, point.witness)
        assert sum(len(c.cell) == 3 for c in cells) == 1
        assert all(c.distinct_tail for c in cells)
    fs = [random_table(rng, config.m), neg_indicator_function(config.m, min_size=1)]
    if 0 not in xs:
        fs.append(neg_gcd_function(config, min_size=1))
    # the oracle is slow: compare a seeded sample of at most 24 walls
    checked = sorted(rng.sample(range(len(walls)), min(len(walls), 24)))
    sec = {
        k: second_difference(config, lambda g: secondary_support(config, g), points[k])[0]
        for k in checked
    }
    for f in fs:
        d_fs = {
            k: second_difference(config, lambda g: eval_basecondary_general(config, f, g), points[k])[0]
            for k in checked
        }
        if not is_submodular_above(f, 2).holds:
            # refused, yet each wall defect still follows the circuit lemma
            with pytest.raises(InputError, match="not submodular above size 2"):
                min_convexifier(config, f)
            assert all(wall_defect_numeric(config, f, walls[k]) == d_fs[k] for k in checked)
            continue
        result = min_convexifier(config, f)
        # one row per circuit; every 3-subset is the circuit of some wall
        rows = {circ: (d_f, d_sec) for circ, d_f, d_sec in result.walls}
        assert len(rows) == len(result.walls) == len(list(itertools.combinations(xs, 3)))
        assert set(rows) == {wall.circuit.support for wall in walls}
        for k in checked:
            assert rows[walls[k].circuit.support] == (d_fs[k], sec[k])
        assert result.value == max([F(0)] + [-d_f / d_sec for d_f, d_sec in rows.values()])


@pytest.mark.parametrize("points", [[1, 2, 3], [1, 3, 6, 7], [1, 2, 4], [-2, -1, 1, 2], [2, 3, 5, 6]])
@pytest.mark.parametrize("variant", ["morse", "maxwell"])
def test_morse_polytope_matches_the_oracle(points, variant):
    mc = morse_config(points)
    pc = mc.config()
    fn = morse_support if variant == "morse" else maxwell_support
    expected = []
    for t in enumerate_triangulations_1d(pc):
        w = cone_witness(pc, t)
        g = numeric_gradient(pc, lambda x: fn(mc, x), w)
        if g not in [e[1] for e in expected]:
            expected.append((w, g))
    assert morse_polytope(mc, variant).entries == tuple(expected)

