"""The circuit-form lift at n <= 1 against the routes it replaced.

`upper_cells` runs one circuit-form scan for every n. For n = 0 the library
once took the argmax, for n = 1 the upper chain with `_values_under`; both
are kept as `quantity_reference.chain_upper_cells`. Every cell must be
typed-equal to the reference on seeded rational heights, and `is_generic`
must give the reference's verdict.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
import quantity_reference as ref

from basecondary.core import is_generic
from basecondary.exact_core import make_config
from basecondary.secondary import upper_cells


def _typed(x):
    """A key that is equal exactly for equal values of equal types."""
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


# n = 0: 7 sizes x 3 height kinds x 6 repeats = 126 lifts;
# n = 1: 13 sizes x 2 coordinate kinds x 3 height kinds x 6 repeats = 468 lifts
CASES = [(0, False, m) for m in range(2, 9)] + [(1, r, m) for r in (False, True) for m in range(2, 15)]


@pytest.mark.parametrize("n, rational, m", CASES)
def test_circuit_form_lift_matches_the_chain_lift(n, rational, m):
    seen_ties = 0
    for kind, rep in itertools.product(("generic", "small", "equal"), range(6)):
        rng = random.Random(f"chain-lift/{n}/{rational}/{m}/{kind}/{rep}")
        config = _config(rng, n, m, rational)
        gamma = tuple(_heights(rng, m, kind))
        want = ref.chain_upper_cells(config, gamma)
        assert _cells(upper_cells(config, gamma)) == _cells(want), (config, gamma)
        assert is_generic(config, gamma) == ref.is_generic_lift(n, want), (config, gamma)
        seen_ties += any(len(c.cell) > n + 1 for c in want)
    assert seen_ties or m == n + 1  # small and equal heights put more than n + 1 labels on one cell
