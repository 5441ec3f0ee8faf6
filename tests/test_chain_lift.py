"""The circuit-form lift at n <= 1 against the routes it replaced, and jets at n = 2.

`upper_cells` runs one circuit-form scan for every n. For n = 0 the library
once took the argmax, for n = 1 the upper chain with `_values_under`; both
are kept as `quantity_reference.chain_upper_cells`. Every cell must be
typed-equal to the reference, on rationals and on seeded jets (compared by
value, gradient entries and size, each with its type), and `is_generic` must
give the reference's verdict. At n = 2, jet heights must give the closed-form
gradients at every discovered pentagon cone; at n = 3 they are refused.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
import quantity_reference as ref

from basecondary.core import eval_basecondary_general, gradient_on_cone, is_generic
from basecondary.errors import InputError
from basecondary.exact_core import Jet, make_config
from basecondary.secondary import discover_cones_random, gkz_vector, secondary_support, upper_cells
from basecondary.setfun import neg_indicator_function, table_function


def _typed(x):
    """A key that is equal exactly for equal values of equal types; a jet by its value, terms and size."""
    if isinstance(x, Jet):
        return "jet", _typed(x.value), {k: _typed(g) for k, g in x.terms.items()}, x.size
    if isinstance(x, tuple):
        return tuple(_typed(y) for y in x)
    return type(x).__name__, x


def _cells(cells):
    return [(c.cell, _typed(c.linear), _typed(c.max_value), _typed(c.values)) for c in cells]


def _heights(rng, m, kind):
    if kind == "generic":
        return [F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(m)]
    if kind == "small":
        return [F(rng.randint(-3, 3)) for _ in range(m)]
    return [F(rng.randint(-3, 3))] * m


def _config(rng, n, m, rational):
    if n == 0:
        return make_config(0, [[] for _ in range(m)])
    if rational:  # distinct rationals with small denominators, in random label order
        xs = set()
        while len(xs) < m:
            xs.add(F(rng.randint(-20, 20), rng.randint(1, 4)))
        xs = list(xs)
        rng.shuffle(xs)
        return make_config(1, [[x] for x in xs])
    return make_config(1, [[a] for a in rng.sample(range(-9, 12), m)])


# n = 0: 7 sizes x 3 height kinds x 2 (rationals, jets) x 6 repeats = 252 lifts;
# n = 1: 13 sizes x 2 coordinate kinds x 3 height kinds x 2 x 6 repeats = 936 lifts
CASES = [(0, False, m) for m in range(2, 9)] + [(1, r, m) for r in (False, True) for m in range(2, 15)]


@pytest.mark.parametrize("n, rational, m", CASES)
def test_circuit_form_lift_matches_the_chain_lift(n, rational, m):
    seen_ties = 0
    for kind, rep in itertools.product(("generic", "small", "equal"), range(6)):
        rng = random.Random(f"chain-lift/{n}/{rational}/{m}/{kind}/{rep}")
        config = _config(rng, n, m, rational)
        heights = _heights(rng, m, kind)
        for gamma in (tuple(heights), Jet.seed(heights)):
            want = ref.chain_upper_cells(config, gamma)
            assert _cells(upper_cells(config, gamma)) == _cells(want), (config, gamma)
            assert is_generic(config, gamma) == ref.is_generic_lift(n, want), (config, gamma)
            seen_ties += any(len(c.cell) > n + 1 for c in want)
    assert seen_ties or m == n + 1  # small and equal heights put more than n + 1 labels on one cell


PENTAGON = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])


@pytest.mark.parametrize("f", [
    neg_indicator_function(5, min_size=2),
    table_function(5, {(1, 2, 3): -1, (2, 4): 3, (1, 3, 5): F(1, 2), (1, 2, 3, 4, 5): 2}, min_size=2),
], ids=["neg-indicator", "table"])
def test_jet_gradients_at_the_pentagon_cone_witnesses(f):
    cones = discover_cones_random(PENTAGON, 200, 41)
    assert len(cones) == 5
    for t, w in cones:
        jets = Jet.seed(w)
        assert eval_basecondary_general(PENTAGON, f, jets).grad == gradient_on_cone(PENTAGON, f, w)
        assert secondary_support(PENTAGON, jets).grad == gkz_vector(PENTAGON, t)


def test_jet_heights_above_n_2_are_refused():
    config = make_config(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    heights = (F(0), F(1), F(2), F(3), F(5))
    assert upper_cells(config, heights)
    with pytest.raises(InputError, match="n <= 2"):
        upper_cells(config, Jet.seed(heights))
