"""Seeded and generated properties of what the library returns.

- An `exact` convexifier c makes h + c * secondary sublinear, that is convex.
- A `certified` gradient representation is the support of its function:
  max_k <g_k, gamma> = h(gamma) everywhere. Per-cone gradients miss vertices
  where h is not linear on a secondary cone, so this is a strict xfail
  until reconstruction walks the linearity chambers of h (ROADMAP item 2).
  A certified pentagon has all 5 vertices: its cones are read off the
  secondary polygon, whatever samples and seed ask for.
- The basecondary value is positively homogeneous and blind to affine
  functions added to the heights; the secondary support is homogeneous and
  additive on them.
"""

from fractions import Fraction as F

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basecondary.core import eval_basecondary_general, min_convexifier, reconstruct_polytope
from basecondary.errors import InputError
from basecondary.exact_core import make_config
from basecondary.fiber_morse import morse_config, morse_polytope, morse_support
from basecondary.secondary import secondary_support
from basecondary.setfun import SetFunction, circuit_condition_check, is_submodular_above, neg_indicator_function


def _subsets(m):
    for r in range(1, m + 1):
        for sub in itertools.combinations(range(1, m + 1), r):
            yield frozenset(sub)


def _table(values, m, min_size):
    return SetFunction(kind="table", m=m, min_size=min_size, table=dict(values))


def _random_table(rng, m, min_size):
    return _table({x: F(rng.randint(-5, 5), rng.randint(1, 3)) for x in _subsets(m)}, m, min_size)


def _coverage_table(rng, m, min_size, lowered):
    """Coverage plus a modular part with some sets of size `lowered` pushed down.

    Lowering sets of size k breaks submodularity only on base sets of size
    k - 1, so the table stays submodular above size k.
    """
    groups = [(frozenset(rng.sample(range(1, m + 1), rng.randint(1, m))), rng.randint(0, 6))
              for _ in range(rng.randint(2, 4))]
    modular = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
    values = {x: sum(w for s, w in groups if s & x) + sum(modular[i - 1] for i in x) for x in _subsets(m)}
    for x in rng.sample([x for x in values if len(x) == lowered], 2):
        values[x] -= rng.randint(1, 5)
    return _table(values, m, min_size)


def _heights(rng, m, low=-12):
    return tuple(F(rng.randint(low, 12), rng.randint(1, 4)) for _ in range(m))


def _convexified(config, f, c, gamma):
    return eval_basecondary_general(config, f, gamma) + c * secondary_support(config, gamma)


def test_exact_convexifier_makes_h_sublinear():
    rng = random.Random(1001)
    exact = refused = 0
    for trial in range(48):
        n = 1 if trial % 4 else 0
        m = rng.randint(4, 5) if n else rng.randint(3, 4)
        config = make_config(n, [[a] for a in sorted(rng.sample(range(-8, 12), m))] if n else [[]] * m)
        roll = rng.randrange(3)
        f = _random_table(rng, m, n) if roll == 0 else _coverage_table(rng, m, n, lowered=n + roll)
        try:
            result = min_convexifier(config, f)
        except InputError:
            assert not is_submodular_above(f, n + 1).holds
            refused += 1
            continue
        assert result.exact
        exact += 1
        c = result.value
        for _ in range(30):
            a, b = _heights(rng, m), _heights(rng, m)
            total = _convexified(config, f, c, tuple(x + y for x, y in zip(a, b)))
            assert total <= _convexified(config, f, c, a) + _convexified(config, f, c, b), (config, f, a, b)
    assert exact >= 12 and refused >= 12, (exact, refused)


def _certified_reconstruction(rng):
    """A table submodular above size 2, convexified by its exact c, and its certified gradients."""
    while True:
        m = rng.randint(4, 5)
        config = make_config(1, [[a] for a in sorted(rng.sample(range(-8, 12), m))])
        f = _coverage_table(rng, m, 1, lowered=2)
        c = min_convexifier(config, f).value
        rep = reconstruct_polytope(config, f, c)
        if rep.certified:
            return rep.gradients, -12, lambda g: _convexified(config, f, c, g)


def _certified_morse(rng):
    mc = morse_config([1, 3, 6, 7])
    rep = morse_polytope(mc, "morse")
    assert rep.certified
    return rep.gradients, 0, lambda gamma: morse_support(mc, gamma)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP 2: one gradient per secondary cone misses vertices"
)
@pytest.mark.parametrize("source", [_certified_reconstruction, _certified_morse], ids=["reconstruct", "morse"])
def test_certified_gradients_are_the_support(source):
    rng = random.Random(1002)
    for _ in range(3):
        gradients, low, h = source(rng)
        for _ in range(60):
            gamma = _heights(rng, len(gradients[0]), low)
            top = max(sum(g * x for g, x in zip(grad, gamma)) for grad in gradients)
            assert top == h(gamma)


PENTAGON = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])


@pytest.mark.parametrize("samples, seed", [(3, 1), (5, -1)])
def test_certified_pentagon_has_all_five_vertices(samples, seed):
    rep = reconstruct_polytope(PENTAGON, neg_indicator_function(5, min_size=2), 0, samples=samples, seed=seed)
    assert not rep.certified or len(set(rep.gradients)) == 5, (rep.certified, len(set(rep.gradients)))


rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 4))


@st.composite
def instances(draw):
    """An n = 0/1/2 configuration, a table F, heights, a scale t > 0 and an affine function."""
    n = draw(st.integers(0, 2))
    if n == 0:
        points = [[] for _ in range(draw(st.integers(2, 4)))]
    else:
        coordinate = st.tuples(*[st.integers(-3, 3)] * n)
        points = [list(p) for p in draw(st.lists(coordinate, min_size=n + 2, max_size=5, unique=True))]
    config = make_config(n, points)
    values = {x: draw(rationals) for x in _subsets(config.m) if len(x) >= n}
    f = _table(values, config.m, n)
    gamma = tuple(draw(st.lists(rationals, min_size=config.m, max_size=config.m)))
    t = draw(st.builds(F, st.integers(1, 9), st.integers(1, 4)))
    linear = draw(st.lists(rationals, min_size=n, max_size=n))
    shift = draw(rationals)
    affine = tuple(sum(a * x for a, x in zip(linear, p)) + shift for p in config.points)
    return config, f, gamma, t, affine


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(instance=instances())
def test_eval_and_secondary_are_homogeneous_and_affine_invariant(instance):
    config, f, gamma, t, affine = instance
    scaled = tuple(t * g for g in gamma)
    moved = tuple(g + a for g, a in zip(gamma, affine))
    value = eval_basecondary_general(config, f, gamma)
    assert eval_basecondary_general(config, f, scaled) == t * value
    assert eval_basecondary_general(config, f, moved) == value
    sec = secondary_support(config, gamma)
    assert secondary_support(config, scaled) == t * sec
    assert secondary_support(config, moved) == sec + secondary_support(config, affine)
