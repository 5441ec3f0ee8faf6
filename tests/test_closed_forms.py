"""Closed-form gradients and wall defects against the step-halving oracle.

Seeded instances: basecondary gradients (cofactor sums) for n = 0/1/2, GKZ
vectors against the secondary support's gradient, circuit-lemma wall
defects and min_convexifier rows for 1D configurations with m = 4..8, and
morse_polytope against the oracle gradient of the whole Morse/Maxwell
support. Every comparison is exact equality of Fractions.
"""

from fractions import Fraction as F

import itertools
import random

import pytest
from numeric_oracle import numeric_gradient, second_difference

from basecondary.core import eval_basecondary_general, gradient_on_cone, min_convexifier
from basecondary.exact_core import affine_rank, make_config
from basecondary.fiber_morse import (
    _shifted_witness,
    maxwell_support,
    morse_config,
    morse_polytope,
    morse_support,
)
from basecondary.secondary import (
    cone_witness,
    enumerate_triangulations_1d,
    enumerate_walls_1d,
    gkz_vector,
    is_generic,
    regular_subdivision,
    secondary_support,
    upper_cells,
)
from basecondary.setfun import SetFunction, neg_gcd_function, neg_indicator_function


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


# [0, 1, 2, 4, 5, 7, 8] has wall witnesses whose circuital cell ties two
# off-cell values unless every cell is required to be tail-distinct
WALL_CONFIGS = [[0, 1, 2, 4, 5, 7, 8]] + [
    sorted(random.Random(400 + m).sample(range(1, 25), m)) for m in (4, 5, 6, 7, 8)
]


@pytest.mark.parametrize("xs", WALL_CONFIGS, ids=lambda xs: f"m{len(xs)}")
def test_walls_meet_the_lemma_and_match_the_oracle(xs):
    config = make_config(1, [[x] for x in xs])
    rng = random.Random(len(xs))
    walls = enumerate_walls_1d(config)
    for wall in walls:
        cells = upper_cells(config, wall.witness)
        assert sum(len(c.cell) == 3 for c in cells) == 1
        assert all(c.distinct_tail for c in cells)
    fs = [random_table(rng, config.m), neg_indicator_function(config.m, min_size=1)]
    if 0 not in xs:
        fs.append(neg_gcd_function(config, min_size=1))
    # the oracle is slow: compare a seeded sample of at most 24 walls
    checked = sorted(rng.sample(range(len(walls)), min(len(walls), 24)))
    sec = {
        k: second_difference(config, lambda g: secondary_support(config, g), walls[k])[0]
        for k in checked
    }
    for f in fs:
        result = min_convexifier(config, f)
        assert len(result.walls) == len(walls)
        for k in checked:
            d_f, _ = second_difference(
                config, lambda g: eval_basecondary_general(config, f, g), walls[k]
            )
            assert result.walls[k] == (walls[k].circuit.support, d_f, sec[k])
        assert result.value == max([F(0)] + [-d_f / d_sec for _, d_f, d_sec in result.walls])


@pytest.mark.parametrize("points", [[1, 2, 3], [1, 3, 6, 7], [1, 2, 4], [-2, -1, 1, 2], [2, 3, 5, 6]])
@pytest.mark.parametrize("variant", ["morse", "maxwell"])
def test_morse_polytope_matches_the_oracle(points, variant):
    mc = morse_config(points)
    pc = mc.config()
    fn = morse_support if variant == "morse" else maxwell_support
    expected = []
    for t in enumerate_triangulations_1d(pc):
        w = _shifted_witness(pc, cone_witness(pc, t))
        g = numeric_gradient(pc, lambda x: fn(mc, x), w)
        if g not in [e[1] for e in expected]:
            expected.append((w, g))
    assert morse_polytope(mc, variant).entries == tuple(expected)

