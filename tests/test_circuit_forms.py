"""The n <= 1 convexifier and the circuit ordering against the searches they replace.

`min_convexifier` for n <= 1 reads one circuit value per (n+2)-subset, and
`order_circuital` fixes its arrangement by one sign rule, the sign of one
volume read off the lift's kernel; `convexifier_reference` keeps the wall,
order-cone and permutation searches they replaced. Also here: an n = 0
convexifier beyond the order-cone range checked against the submodularity
of the Lovász-extension set function it convexifies, and 1D configurations
whose labels are not in coordinate order.
"""

from fractions import Fraction as F

import itertools
import random

import convexifier_reference as ref
import pytest

from basecondary import exact_core
from basecondary.core import (
    CircuitalSupport,
    enumerate_circuital,
    min_convexifier,
    order_circuital,
    reconstruct_polytope,
)
from basecondary.errors import InputError
from basecondary.exact_core import affine_rank, find_circuit, make_config
from basecondary.secondary import enumerate_walls_1d
from basecondary.setfun import (
    SetFunction,
    evaluate_f,
    is_submodular,
    is_submodular_above,
    neg_gcd_function,
    neg_indicator_function,
)


def _table(values, m, min_size=0):
    return SetFunction(kind="table", m=m, min_size=min_size, table=dict(values))


def _subsets(m):
    for r in range(1, m + 1):
        for sub in itertools.combinations(range(1, m + 1), r):
            yield frozenset(sub)


def random_table(rng, m, min_size=0):
    return _table({x: F(rng.randint(-5, 5), rng.randint(1, 3)) for x in _subsets(m)}, m, min_size)


def coverage_table(rng, m, min_size=0, lowered=0):
    """Coverage plus a modular part (submodular), with `lowered` singletons
    pushed down, which keeps F submodular above size 1."""
    groups = [(frozenset(rng.sample(range(1, m + 1), rng.randint(1, m))), rng.randint(0, 6))
              for _ in range(rng.randint(2, 4))]
    modular = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
    values = {
        x: sum(w for s, w in groups if s & x) + sum(modular[i - 1] for i in x) for x in _subsets(m)
    }
    for i in rng.sample(range(1, m + 1), lowered):
        values[frozenset({i})] -= rng.randint(1, 5)
    return _table(values, m, min_size)


def criterion_5_table(rng, m):
    """A concave cardinality profile or a modular table of nonpositive total."""
    if rng.randrange(2):
        drops = sorted([F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)], reverse=True)
        return _table({x: -sum(drops[: len(x)]) for x in _subsets(m)}, m, 1)
    w = [F(rng.randint(-5, 2), rng.randint(1, 2)) for _ in range(m)]
    w[0] -= max(sum(w), 0)
    return _table({x: sum(w[i - 1] for i in x) for x in _subsets(m)}, m, 1)


def _shuffled_1d(rng, xs):
    """xs with labels shuffled; label perm[k] + 1 of the sorted config becomes k + 1."""
    perm = list(range(len(xs)))
    rng.shuffle(perm)
    return make_config(1, [[xs[k]] for k in perm]), {perm[k] + 1: k + 1 for k in range(len(xs))}


def _same_answer(result, expected):
    assert (result.value, result.exact) == (expected.value, expected.exact)
    assert set(result.walls) == set(expected.walls)
    assert len(result.walls) == len(set(result.walls))


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_n1_convexifier_matches_the_wall_search(m):
    rng = random.Random(500 + m)
    configs = [make_config(1, [[x] for x in sorted(rng.sample(range(1, 25), m))])]
    configs.append(_shuffled_1d(rng, sorted(rng.sample(range(-12, 13), m)))[0])
    xs = set()  # rational coordinates: the rows scale the kernel's volumes by 1 / dx
    while len(xs) < m:
        xs.add(F(rng.randint(-30, 30), rng.randint(2, 7)))
    configs.append(_shuffled_1d(rng, sorted(xs))[0])
    assert configs[-1].lift_forms[1] > 1
    for config in configs:
        fs = [random_table(rng, m, 1), coverage_table(rng, m, 1), criterion_5_table(rng, m)]
        fs += [neg_indicator_function(m, point=rng.randint(1, m), min_size=1)]
        if all(p[0] != 0 and p[0].denominator == 1 for p in config.points):
            fs.append(neg_gcd_function(config, min_size=1))
        for f in fs:
            if not is_submodular_above(f, 2).holds:
                with pytest.raises(InputError, match="not submodular above size 2"):
                    min_convexifier(config, f)
                continue
            result = min_convexifier(config, f)
            _same_answer(result, ref.min_convexifier(config, f))
            assert len(result.walls) == len(list(itertools.combinations(range(m), 3)))


def test_n0_convexifier_matches_the_order_cone_search():
    rng = random.Random(600)
    compared = refused = 0
    for m in [3] * 10 + [4] * 10 + [5] * 4:
        config = make_config(0, [[] for _ in range(m)])
        roll = rng.randrange(3)
        f = random_table(rng, m) if roll == 0 else coverage_table(rng, m, lowered=roll)
        try:
            expected = ref.min_convexifier(config, f)
        except InputError:
            refused += 1
            with pytest.raises(InputError, match="not submodular above size 1"):
                min_convexifier(config, f)
            continue
        compared += 1
        _same_answer(min_convexifier(config, f), expected)
    assert compared >= 10 and refused >= 5


def test_n0_convexifier_beyond_the_order_cones_is_the_lovasz_bound():
    # h + c max(gamma) is the Lovász extension of G_c = F - F(N) + c on
    # nonempty sets: c is minimal exactly when G_c is submodular there and
    # G_c for any smaller c is not
    rng = random.Random(9009)
    m = 9
    config = make_config(0, [[] for _ in range(m)])
    f = coverage_table(rng, m, lowered=3)
    assert is_submodular_above(f, 1).holds and not is_submodular(f).holds
    result = min_convexifier(config, f)
    assert result.exact and result.value > 0
    assert len(result.walls) == m * (m - 1) // 2

    def lifted(c):
        full = evaluate_f(f, range(1, m + 1))
        return _table({x: evaluate_f(f, x) - full + c for x in _subsets(m)}, m)

    assert is_submodular(lifted(result.value)).holds
    assert not is_submodular(lifted(result.value * F(999, 1000))).holds


def _random_circuit(rng):
    """A spanning (n+2)-subset of a grid configuration with spare points,
    as the support where it is the only maximizing cell."""
    n = rng.choice([1, 2, 3])
    while True:
        m = n + 2 + rng.randint(0, 2)
        grid = list(itertools.product(range(-2, 3), repeat=n))
        config = make_config(n, rng.sample(grid, m))
        cell = tuple(sorted(rng.sample(range(1, m + 1), n + 2)))
        pts = config.subset_points(cell)
        if affine_rank(pts) == n:
            break
    tail = rng.sample(range(1, m + 1), m)
    gamma = tuple(F(0) if i in cell else F(-tail[i - 1]) for i in range(1, m + 1))
    support = CircuitalSupport(
        linear=(F(0),) * n, max_value=F(0), maximizers=cell, circuit=find_circuit(pts, labels=list(cell))
    )
    return config, gamma, support


def test_circuit_ordering_sign_rule_matches_the_search():
    rng = random.Random(700)
    swapped = with_zeros = 0
    for _ in range(2000):
        config, gamma, c = _random_circuit(rng)
        ordered = order_circuital(config, gamma, c)
        assert ordered == ref.order_circuital(config, gamma, c), (config, c)
        swapped += ordered.tuple[: config.n + 2] != c.circuit.ordering
        with_zeros += bool(c.circuit.zeros)
    assert swapped >= 500 and with_zeros >= 200


def test_circuit_ordering_takes_no_determinant(monkeypatch):
    # the one orientation it reads is a minor the lift's kernel already holds
    calls = []
    real = exact_core._int_det
    monkeypatch.setattr(exact_core, "_int_det", lambda a: calls.append(a) or real(a))
    rng = random.Random(701)
    for _ in range(200):
        config, gamma, c = _random_circuit(rng)
        config.lift_forms
        calls.clear()
        order_circuital(config, gamma, c)
        assert calls == [], (config, c)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_unsorted_1d_labels_give_the_relabelled_answer(m):
    rng = random.Random(800 + m)
    for _ in range(4):
        xs = sorted(rng.sample(range(1, 20), m))
        config = make_config(1, [[x] for x in xs])
        shuffled, relabel = _shuffled_1d(rng, xs)

        def moved(labels):
            return tuple(sorted(relabel[i] for i in labels))

        walls = sorted(moved(w.circuit.support) for w in enumerate_walls_1d(config))
        assert sorted(w.circuit.support for w in enumerate_walls_1d(shuffled)) == walls
        def moved_table(t):
            return _table({frozenset(moved(x)): v for x, v in t.table.items()}, m, 1)

        f = random_table(rng, m, 1)
        g = moved_table(f)
        c = coverage_table(rng, m, 1)
        pairs = ((f, g), (c, moved_table(c)), (neg_gcd_function(config, 1), neg_gcd_function(shuffled, 1)))
        for here, there in pairs:
            if not is_submodular_above(here, 2).holds:
                for cfg, fn in ((config, here), (shuffled, there)):
                    with pytest.raises(InputError, match="not submodular above size 2"):
                        min_convexifier(cfg, fn)
                continue
            a, b = min_convexifier(config, here), min_convexifier(shuffled, there)
            assert a.value == b.value
            assert {(moved(j), d, v) for j, d, v in a.walls} == set(b.walls)
        reconstruct_polytope(shuffled, g)  # used to find no generic witness


def test_n0_circuits_have_no_ordering():
    config = make_config(0, [[], [], []])
    gamma = (F(1), F(1), F(0))
    (support,) = enumerate_circuital(config, gamma)
    assert support.maximizers == (1, 2)
    with pytest.raises(InputError, match="n >= 1"):
        order_circuital(config, gamma, support)
