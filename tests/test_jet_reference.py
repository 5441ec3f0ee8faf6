"""The sparse `Jet` and the value-first polygon predicates, against the dense reference.

Seeded random sums, differences, rational scalings, negations and
comparisons must give the same values, gradients, order and hash classes
on both jets. `upper_chain` and `convex_hull_2d` must be `repr`-equal with
the loops that multiplied jets at every turn, on ints, tie-heavy rationals
and jets. `morse_polytope` and fiber-summand gradients must be `repr`-equal
with the dense jet, the jet-multiplying hull, upper chain and Minkowski sum,
the `Fraction` fiber route, which multiplies dense jets, and the `Fraction`
Morse and Maxwell supports of `quantity_reference` on the n <= 1 chain lift
swapped in, since the circuit-form lift clears sparse jets. A
pin keeps both chains deciding on values: with no value cross product 0
they multiply no jet.
"""

import itertools
import operator
import random
from fractions import Fraction as F

import jet_reference as ref
import pytest
import quantity_reference

from basecondary import exact_core, fiber_morse, secondary, tropical
from basecondary.exact_core import Jet, convex_hull_2d, upper_chain
from basecondary.fiber_morse import _shifted_witness, area_P_bar, morse_config, morse_polytope
from basecondary.secondary import cone_witness, enumerate_triangulations_1d

# the seeded sets of test_fiber_morse.py and a few more
EXPONENTS = [
    [1, 2], [1, 2, 3], [1, 3, 6, 7], [1, 2, 4], [1, 2, 4, 7], [1, 3, 4, 6], [1, 2, 3, 5, 8],
    [2, 3, 5], [-5, -3, -2, -1], [-7, -4, -3], [1, 2, 4, 5, 7], [-3, -1, 2, 5], [-2, -1, 1, 3],
    [-8, -6, -3, -1, 3, 8],
]


def _rational(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 2))


def _random_pair(rng, pool):
    """One random operation on (sparse, dense) pairs or rationals of the pool, applied to both."""
    a, b = rng.choice(pool), rng.choice(pool)
    q = _rational(rng)
    op = rng.randrange(8)
    if op == 0:
        return a[0] + b[0], a[1] + b[1]
    if op == 1:
        return a[0] - b[0], a[1] - b[1]
    if op == 2:
        return a[0] * q, a[1] * q
    if op == 3:
        return q * a[0], q * a[1]
    if op == 4:
        return -a[0], -a[1]
    if op == 5:
        return a[0] + q, q + a[1]
    if op == 6:
        return q - a[0], q - a[1]
    return (a[0] / q, a[1] / q) if q else (a[0] - q, a[1] - q)


def _key(x):
    return repr((x.value, x.grad)) if isinstance(x, (Jet, ref.Jet)) else repr(x)


@pytest.mark.parametrize("seed", range(6))
def test_sparse_jets_match_the_dense_reference(seed):
    rng = random.Random(f"jets/{seed}")
    m = rng.randint(1, 5)
    heights = [F(rng.randint(0, 2)) for _ in range(m)]
    pool = list(zip(Jet.seed(heights), ref.Jet.seed(heights)))
    pool += [(q, q) for q in (F(0), F(1), F(-1, 2))]
    for _ in range(300):
        pool.append(_random_pair(rng, pool))
    for sparse, dense in pool:
        assert _key(sparse) == _key(dense)
        if isinstance(sparse, Jet):
            assert sparse.size == m and all(sparse.terms.values())
    tests = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
    flat = [(q, q) for q in (F(0), F(1), F(-1, 2), 2)]
    for (a, da), (b, db) in itertools.product(rng.sample(pool, 60) + flat, repeat=2):
        assert [t(a, b) for t in tests] == [t(da, db) for t in tests]
        if a == b:
            assert hash(a) == hash(b)
    assert sorted(range(len(pool)), key=lambda i: (pool[i][0], i)) == sorted(
        range(len(pool)), key=lambda i: (pool[i][1], i)
    )
    assert len({s for s, _ in pool}) == len({d for _, d in pool})


def test_jets_of_different_lengths_do_not_add():
    for kind in (Jet, ref.Jet):
        short, long = kind.seed((F(1), F(2)))[0], kind.seed((F(1), F(2), F(3)))[0]
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
    """Heights over strictly increasing xs: ints, rationals on collinear runs, and jets on such runs."""
    xs = sorted(rng.sample(range(-9, 10), rng.randint(1, 9)))
    ints = [rng.randint(-3, 3) for _ in xs]
    runs = _on_runs(rng, xs)
    jets = [s if rng.random() < 0.8 else s.value for s in Jet.seed(_on_runs(rng, xs))]
    return xs, (ints, runs, jets)


def test_hull_chains_match_the_multiplying_loops():
    rng = random.Random("hull chains")
    for _ in range(400):
        xs, heights = _chain_inputs(rng)
        for ys in heights:
            assert repr(upper_chain(xs, ys)) == repr(ref.upper_chain(xs, ys))
            # equal x for the hull: the abscissae drawn again from a few values
            points = [(F(rng.randint(-2, 2), rng.choice((1, 1, 2))), y) for y in ys]
            want = [tuple(_key(c) for c in p) for p in ref.convex_hull_2d(points)]
            assert [tuple(_key(c) for c in p) for p in convex_hull_2d(points)] == want


@pytest.fixture
def dense(monkeypatch):
    """The dense jet, the jet-multiplying hull, upper chain and Minkowski sum, the Fraction fiber and supports.

    The integer fiber kernel and the circuit-form lift read sparse jets, so
    the dense side runs the reference routes, the supports on the upper
    chain's lift, which multiply dense jets end to end.
    """
    for module in (exact_core, fiber_morse):
        monkeypatch.setattr(module, "Jet", ref.Jet)
        monkeypatch.setattr(module, "fiber_polygon", ref.fiber_polygon)
    monkeypatch.setattr(exact_core, "convex_hull_2d", ref.convex_hull_2d)
    monkeypatch.setattr(exact_core, "minkowski_sum", ref.minkowski_sum)
    for module in (exact_core, fiber_morse, tropical):
        monkeypatch.setattr(module, "upper_chain", ref.upper_chain)
    monkeypatch.setattr(secondary, "upper_cells", quantity_reference.chain_upper_cells)
    monkeypatch.setattr(fiber_morse, "morse_support", quantity_reference.morse_support)
    monkeypatch.setattr(fiber_morse, "maxwell_support", quantity_reference.maxwell_support)


def _results(rng_seed):
    rng = random.Random(rng_seed)
    out = []
    for pts in EXPONENTS:
        mc = morse_config(pts)
        pc = mc.config()
        for variant in ("morse", "maxwell"):
            out.append(repr(morse_polytope(mc, variant).entries))
        for t in enumerate_triangulations_1d(pc)[:4]:
            w = tuple(x + F(rng.randint(0, 3), rng.randint(1, 3)) for x in _shifted_witness(pc, cone_witness(pc, t)))
            jet = area_P_bar(mc, fiber_morse.Jet.seed(w))
            assert isinstance(jet, fiber_morse.Jet)
            out.append(repr((jet.value, jet.grad)))
    return out


def test_morse_polytope_and_fiber_gradients_match_the_dense_reference(request):
    sparse = _results("witnesses")
    request.getfixturevalue("dense")
    assert exact_core.Jet is ref.Jet
    assert _results("witnesses") == sparse


def test_hull_multiplies_no_jet_when_no_value_cross_product_is_zero(monkeypatch):
    rng = random.Random("value-first hull")
    products = []
    real = Jet.__mul__

    def counted(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    hulls = 0
    while hulls < 40:
        raw = {(F(rng.randint(-6, 6)), F(rng.randint(-6, 6), 2)) for _ in range(rng.randint(3, 8))}
        if any(ref._cross(o, a, b) == 0 for o, a, b in itertools.combinations(raw, 3)):
            continue
        eps = [s - s.value for s in Jet.seed([0] * len(raw))]
        points = [(x, y + rng.randint(-1, 1) * e) for (x, y), e in zip(raw, eps)]
        products.clear()
        hull = convex_hull_2d(points)
        assert products == []
        assert [(x, y.value) for x, y in hull] == list(convex_hull_2d(raw))
        hulls += 1
    chains = 0
    while chains < 40:
        xs = sorted(F(x) for x in rng.sample(range(-9, 10), rng.randint(3, 8)))
        ys = [F(rng.randint(-6, 6), 2) for _ in xs]
        if any(ref._cross(o, a, b) == 0 for o, a, b in itertools.combinations(zip(xs, ys), 3)):
            continue
        eps = [s - s.value for s in Jet.seed([0] * len(xs))]
        jets = [y + rng.randint(-1, 1) * e for y, e in zip(ys, eps)]
        products.clear()
        assert upper_chain(xs, jets) == upper_chain(xs, ys)
        assert products == []
        chains += 1
    assert upper_chain([0, 1, 2], Jet.seed((F(0), F(0), F(0)))) and products  # a value tie multiplies
    products.clear()
    assert convex_hull_2d([(0, s) for s in Jet.seed((F(0), F(0), F(0)))]) and products
