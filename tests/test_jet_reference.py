"""The library's hulls and Morse gradients against the dense-jet reference.

`upper_chain` and `convex_hull_2d` must be `repr`-equal with the loops that
multiplied jets at every turn, on ints and on tie-heavy rationals. Dense jets
of different lengths must not add. `morse_polytope` and the fiber summand's
gradients, which the library reads off two integer evaluations
(`fiber_morse._gradient`), must be `repr`-equal with one evaluation at the
dense jet w + eps on `jet_reference`'s routes: on the sets below and on
seeded ones, both variants.
"""

import random
from fractions import Fraction as F

import jet_reference as ref
import pytest

from basecondary.exact_core import convex_hull_2d, upper_chain
from basecondary.fiber_morse import _gradient, area_P_bar, morse_config, morse_polytope
from basecondary.errors import InputError
from basecondary.secondary import cone_witness, enumerate_triangulations_1d

# the seeded sets of test_fiber_morse.py and a few more
EXPONENTS = [
    [1, 2], [1, 2, 3], [1, 3, 6, 7], [1, 2, 4], [1, 2, 4, 7], [1, 3, 4, 6], [1, 2, 3, 5, 8],
    [2, 3, 5], [-5, -3, -2, -1], [-7, -4, -3], [1, 2, 4, 5, 7], [-3, -1, 2, 5], [-2, -1, 1, 3],
    [-8, -6, -3, -1, 3, 8],
]


def test_jets_of_different_lengths_do_not_add():
    short, long = ref.Jet.seed((F(1), F(2)))[0], ref.Jet.seed((F(1), F(2), F(3)))[0]
    for op in (lambda: short + long, lambda: long + short, lambda: short - long, lambda: long - short):
        with pytest.raises(ValueError):
            op()


def _on_runs(rng, xs):
    """Heights at xs lying on random lines, one per run of consecutive xs: collinear runs and many ties."""
    ys = []
    while len(ys) < len(xs):
        slope, at = F(rng.randint(-2, 2), rng.randint(1, 3)), F(rng.randint(-2, 2))
        ys += [at + slope * x for x in xs[len(ys):len(ys) + rng.randint(1, 4)]]
    return ys


def _chain_inputs(rng):
    """Heights over strictly increasing xs: ints, and rationals on collinear runs."""
    xs = sorted(rng.sample(range(-9, 10), rng.randint(1, 9)))
    ints = [rng.randint(-3, 3) for _ in xs]
    return xs, (ints, _on_runs(rng, xs))


def test_hull_chains_match_the_multiplying_loops():
    rng = random.Random("hull chains")
    for _ in range(400):
        xs, heights = _chain_inputs(rng)
        for ys in heights:
            assert repr(upper_chain(xs, ys)) == repr(ref.upper_chain(xs, ys))
            # equal x for the hull: the abscissae drawn again from a few values
            points = [(F(rng.randint(-2, 2), rng.choice((1, 1, 2))), y) for y in ys]
            assert repr(convex_hull_2d(points)) == repr(ref.convex_hull_2d(points))


def _seeded_sets(count):
    """Distinct exponent sets of 2 to 5 nonzero integers in [-9, 9] whose differences generate Z, most of 3 or 4."""
    rng, out = random.Random("dense reference sets"), {}
    while len(out) < count:
        pts = tuple(sorted(rng.sample([a for a in range(-9, 10) if a], rng.choice((2, 3, 3, 4, 4, 5)))))
        try:
            out.setdefault(pts, morse_config(pts))
        except InputError:
            pass
    return list(out.values())


def test_morse_polytope_and_fiber_gradients_match_the_dense_reference():
    exponents = [morse_config(pts) for pts in EXPONENTS]
    for mc in exponents + _seeded_sets(40):
        for variant in ("morse", "maxwell"):
            assert repr(morse_polytope(mc, variant)) == repr(ref.morse_polytope(mc, variant)), (mc, variant)
    rng = random.Random("witnesses")
    for mc in exponents:  # the fiber summand at seeded offsets of the cone witnesses
        pc = mc.config()
        for t in enumerate_triangulations_1d(pc)[:4]:
            w = tuple(x + F(rng.randint(0, 3), rng.randint(1, 3)) for x in cone_witness(pc, t))
            jet = ref.area_P_bar(mc, ref.Jet.seed(w))
            assert repr((area_P_bar(mc, w), _gradient(mc, area_P_bar, w))) == repr((jet.value, jet.grad)), (mc, w)
