"""Subdivisions, triangulations, GKZ vectors, walls, and witnesses."""

from fractions import Fraction as F

import itertools
import operator
import random

import pytest
import quantity_reference
import witness_reference
from numeric_oracle import second_difference

from basecondary import core, fiber_morse, secondary

from basecondary.core import (
    enumerate_circuital,
    enumerate_simplicial,
    gradient_on_cone,
    is_generic,
)
from basecondary.errors import InputError, ResourceError
from basecondary.exact_core import make_config
from basecondary.secondary import (
    Subdivision,
    area_N,
    cone_witness,
    discover_cones_random,
    enumerate_triangulations_1d,
    enumerate_walls_1d,
    gkz_vector,
    regular_subdivision,
    secondary_support,
)
from basecondary.setfun import neg_indicator_function, table_function

A1367 = make_config(1, [[1], [3], [6], [7]])
G1 = (2, 4, 5, 3)


def test_regular_subdivision_examples():
    assert regular_subdivision(A1367, G1).cells == ((1, 2), (2, 3), (3, 4))
    assert regular_subdivision(A1367, (3, 3, 3, 1)).cells == ((1, 2, 3), (3, 4))
    affine = tuple(2 * a + 5 for a in (1, 3, 6, 7))
    sub = regular_subdivision(A1367, affine)
    assert sub.cells == ((1, 2, 3, 4),)
    assert not sub.is_triangulation


def test_regular_subdivision_invariances():
    rng = random.Random(2)
    for _ in range(15):
        gamma = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4))
        base = regular_subdivision(A1367, gamma).cells
        alpha, beta = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        shifted = tuple(
            g + alpha * A1367.image(i)[0] + beta for i, g in enumerate(gamma, start=1)
        )
        assert regular_subdivision(A1367, shifted).cells == base
        lam = F(rng.randint(1, 5), rng.randint(1, 3))
        assert regular_subdivision(A1367, tuple(lam * g for g in gamma)).cells == base


def test_subdivision_cells_cover_volume():
    rng = random.Random(3)
    for _ in range(10):
        gamma = tuple(F(rng.randint(-9, 9)) for _ in range(4))
        sub = regular_subdivision(A1367, gamma)
        total = sum(
            A1367.image(c[-1])[0] - A1367.image(c[0])[0] for c in sub.cells
        )
        assert total == 6


def test_1d_triangulation_enumeration_is_capped():
    # 2^(m - 2) triangulations: 16,384 at the cap, fewer than the 8! order cones of n = 0
    assert len(enumerate_triangulations_1d(make_config(1, [[x] for x in range(16)]))) == 2**14
    wide = make_config(1, [[x] for x in range(17)])
    for enumerate_ in (enumerate_triangulations_1d, enumerate_walls_1d):
        with pytest.raises(ResourceError, match="capped at m = 16"):
            enumerate_(wide)


def test_enumerate_triangulations_1d():
    tris = enumerate_triangulations_1d(A1367)
    assert [t.vertex_set() for t in tris] == [
        (1, 4),
        (1, 2, 4),
        (1, 3, 4),
        (1, 2, 3, 4),
    ]
    two = make_config(1, [[0], [5]])
    assert len(enumerate_triangulations_1d(two)) == 1
    five = make_config(1, [[0], [1], [2], [3], [4]])
    assert len(enumerate_triangulations_1d(five)) == 8


def test_gkz_vector_examples():
    tris = {t.vertex_set(): t for t in enumerate_triangulations_1d(A1367)}
    assert gkz_vector(A1367, tris[(1, 4)]) == (6, 0, 0, 6)
    assert gkz_vector(A1367, tris[(1, 2, 3, 4)]) == (2, 5, 4, 1)
    for t in tris.values():
        assert sum(gkz_vector(A1367, t)) == 12


def test_secondary_support_examples():
    assert secondary_support(A1367, (1, 1, 1, 1)) == 12
    assert secondary_support(A1367, G1) == 47
    affine = tuple(3 * a - 1 for a in (1, 3, 6, 7))
    phi = gkz_vector(
        A1367, enumerate_triangulations_1d(A1367)[-1]
    )
    assert secondary_support(A1367, affine) == sum(
        p * g for p, g in zip(phi, affine)
    )


def test_secondary_support_matches_gkz_oracle():
    rng = random.Random(4)
    tris = enumerate_triangulations_1d(A1367)
    for _ in range(20):
        gamma = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4))
        best = max(
            sum(p * g for p, g in zip(gkz_vector(A1367, t), gamma)) for t in tris
        )
        assert secondary_support(A1367, gamma) == best


def test_area_N_examples():
    assert area_N(A1367, (0, 0, 0, 0)) == 0
    assert area_N(A1367, (1, 1, 1, 1)) == 6
    with pytest.raises(InputError):
        area_N(A1367, (1, -1, 1, 1))


def test_secondary_equals_twice_area_N():
    rng = random.Random(5)
    for _ in range(30):
        gamma = tuple(F(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(4))
        assert secondary_support(A1367, gamma) == 2 * quantity_reference.area_N(A1367, gamma)


def test_cone_witness_all_triangulations():
    for t in enumerate_triangulations_1d(A1367):
        w = cone_witness(A1367, t)
        assert regular_subdivision(A1367, w).cells == t.cells
        assert is_generic(A1367, w)
    two = make_config(1, [[0], [5]])
    t = enumerate_triangulations_1d(two)[0]
    assert is_generic(two, cone_witness(two, t))


def test_cone_witness_arithmetic_progression():
    # with rational coordinates the parabola clears a chord by only 1/d^2, d their lcm denominator
    for xs in ([1, 2, 3, 4], [F(x, 1000) for x in range(5)], [F(x, 100000) for x in (0, 1, 3, 4, 6, 7)]):
        cfg = make_config(1, [[x] for x in xs])
        for t in enumerate_triangulations_1d(cfg):
            w = cone_witness(cfg, t)
            assert regular_subdivision(cfg, w).cells == t.cells
            assert is_generic(cfg, w)


def _witness_configs():
    """Seeded n = 1 sets with m = 3..10, integer and rational coordinates, and two tie-heavy progressions."""
    rng = random.Random("kronecker witnesses")
    configs = [make_config(1, [[x] for x in range(10)]), make_config(1, [[F(x, 1000)] for x in range(10)])]
    for m in range(3, 11):
        for denominators in ((1,), (1, 2, 3, 7)):
            pts = set()
            while len(pts) < m:
                pts.add(F(rng.randint(-20, 20), rng.choice(denominators)))
            configs.append(make_config(1, [[a] for a in rng.sample(sorted(pts), m)]))
    return configs


def test_cone_witness_is_a_positive_generic_witness_of_its_triangulation():
    for config in _witness_configs():
        for t in enumerate_triangulations_1d(config):
            w = cone_witness(config, t)
            assert min(w) > 0
            cells = secondary._generic_triangulation(config, secondary._oriented_scan(config, [int(c) for c in w]))
            assert cells is not None and tuple(cells) == t.cells, (config, t)


def test_cone_witness_makes_no_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("cone_witness scanned a lift")

    monkeypatch.setattr(secondary, "_oriented_scan", refuse)
    for config in (A1367, make_config(1, [[x] for x in range(6)])):
        assert len({cone_witness(config, t) for t in enumerate_triangulations_1d(config)}) == 2 ** (config.m - 2)


def test_cone_witness_refuses_a_subdivision_of_another_configuration():
    for cells in (((1, 2), (2, 3)), ((1, 3), (2, 4)), ((1, 2, 3), (3, 4)), ()):
        with pytest.raises(InputError, match="not a triangulation"):
            cone_witness(A1367, Subdivision(n=1, cells=cells))
    with pytest.raises(InputError, match="one-dimensional"):
        cone_witness(make_config(0, [[], []]), Subdivision(n=0, cells=((1,),)))


def test_every_kronecker_point_is_built_by_one_helper():
    assert {"kronecker_point", "_kronecker_base"} <= set(secondary.cone_witness.__code__.co_names)
    assert "_kronecker_base" in secondary.polygon_cones.__code__.co_names
    assert "kronecker_point" in fiber_morse._gradient.__code__.co_names


def test_kronecker_base_equals_the_span_and_the_circuit_form_bounds():
    """The one base is the power of 2 above twice the cleared span at n = 1, and above twice the largest
    circuit-form coefficient wherever a circuit exists; a lone triangle has none."""
    rng = random.Random("kronecker")
    for _ in range(300):
        pts = {F(rng.randint(-20, 20), rng.choice((1, 2, 3))) for _ in range(rng.randint(2, 8))}
        config = make_config(1, [[a] for a in pts])
        xs = [x for x, in config.lift_forms[0]]
        assert secondary._kronecker_base(config) == 1 << (2 * (max(xs) - min(xs))).bit_length()
    for config in _planar_configs(120, 40):
        largest = max((abs(c) for _, cs in config.lift_forms[2] for c in cs), default=None)
        if largest is not None:
            assert secondary._kronecker_base(config) == 1 << (2 * largest).bit_length()
    triangle = make_config(2, [[0, 0], [2, 0], [0, 3]])
    assert not triangle.lift_forms[2] and secondary._kronecker_base(triangle) == 16


def test_walls_1367():
    walls = enumerate_walls_1d(A1367)
    points = witness_reference.walls_by_side(A1367)
    assert len(walls) == 4
    seen = {(w.left.vertex_set(), w.moved) for w in walls}
    assert seen == {
        ((1, 2, 3, 4), 2),
        ((1, 2, 3, 4), 3),
        ((1, 2, 4), 2),
        ((1, 3, 4), 3),
    }
    for w in walls:
        assert w.moved not in set(w.right.vertex_set())
        # exactly one hull circuit at the reference's wall point, all simplicial supports generic
        witness = points[(w.left, w.moved)].witness
        circ = enumerate_circuital(A1367, witness)
        assert len(circ) == 1
        assert all(s.generic for s in enumerate_simplicial(A1367, witness))
        assert set(w.circuit.support) <= set(circ[0].maximizers)


def test_walls_empty_for_two_points():
    two = make_config(1, [[0], [5]])
    assert enumerate_walls_1d(two) == ()


def _wall_configs():
    """A1367, unsorted labels, a set with many tied coordinate sums, and seeded sets."""
    configs = [A1367, make_config(1, [[3], [1], [2], [4]]), make_config(1, [[a] for a in (0, 1, 2, 4, 5, 7, 8)])]
    rng = random.Random("walls")
    for m in range(3, 9):
        for _ in range(2):
            pts = set()
            while len(pts) < m:  # some rational coordinates, labels in random order
                pts.add(F(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))))
            configs.append(make_config(1, [[a] for a in rng.sample(sorted(pts), m)]))
    return configs


def test_walls_and_witnesses_match_the_salt_loop():
    rng, bare = random.Random("salt loop"), 0
    for config in _wall_configs():
        labels = range(1, config.m + 1)
        f = table_function(config.m, {s: rng.randint(-9, 9) for r in labels for s in itertools.combinations(labels, r)})
        for t in enumerate_triangulations_1d(config):
            ours, ref = cone_witness(config, t), witness_reference.cone_witness(config, t)
            assert regular_subdivision(config, ours) == regular_subdivision(config, ref) == t
            assert is_generic(config, ours)
            if ref == witness_reference.parabola(config, t):  # generic at z, so z + eps is in z's chamber
                bare += 1
                assert gradient_on_cone(config, f, ours) == gradient_on_cone(config, f, ref)
        # the reference's walls carry a witness point too; compare the rest
        ours, ref = enumerate_walls_1d(config), witness_reference.enumerate_walls_1d(config)
        assert repr([(w.left, w.right, w.direction, w.circuit) for w in ours]) == repr(
            [(w.left, w.right, w.direction, w.circuit) for w in ref]
        )
    assert bare > 0


def test_walls_are_read_off_the_triangulations(monkeypatch):
    calls = []
    real = secondary.upper_cells
    monkeypatch.setattr(secondary, "upper_cells", lambda *a: calls.append(a) or real(*a))
    assert len(enumerate_walls_1d(A1367)) == 4
    assert calls == []


def test_secondary_support_strictly_convex_across_walls():
    points = witness_reference.walls_by_side(A1367)
    for w in enumerate_walls_1d(A1367):
        defect, _ = second_difference(
            A1367, lambda g: secondary_support(A1367, g), points[(w.left, w.moved)]
        )
        assert defect > 0


def test_gkz_maximality_on_witnesses():
    tris = enumerate_triangulations_1d(A1367)
    for t in tris:
        w = cone_witness(A1367, t)
        own = sum(p * g for p, g in zip(gkz_vector(A1367, t), w))
        for other in tris:
            score = sum(p * g for p, g in zip(gkz_vector(A1367, other), w))
            if other.cells == t.cells:
                assert score == own
            else:
                assert score < own


def test_discover_cones_random_1d():
    found = discover_cones_random(A1367, 400, seed=99)
    assert len(found) == 4
    for sub, witness in found:
        assert regular_subdivision(A1367, witness).cells == sub.cells
        assert is_generic(A1367, witness)
    assert len(discover_cones_random(A1367, 1, seed=1)) <= 1
    # determinism
    again = discover_cones_random(A1367, 400, seed=99)
    assert again == found


def test_upper_cells_n0():
    cfg = make_config(0, [[], [], []])
    assert regular_subdivision(cfg, (3, 2, 1)).cells == ((1,),)
    assert regular_subdivision(cfg, (3, 3, 1)).cells == ((1, 2),)


def _planar_configs(count, seed):
    """Seeded configurations spanning Q^2 with m = 3, 4, 5 in turn, on a small grid scaled by 1, 2 or 3."""
    rng, configs = random.Random(seed), []
    while len(configs) < count:
        scale = rng.choice([1, 1, 2, 3])
        grid = [(F(x, scale), F(y, scale)) for x in range(-3, 4) for y in range(-3, 4)]
        config = make_config(2, rng.sample(grid, 3 + len(configs) % 3))
        if config.lift_forms[3]:  # it spans
            configs.append(config)
    return configs


def _has_collinear_triple(config):
    return any(v == 0 for v in config.lift_forms[4].values())


def test_polygon_cones_equal_sampled_discovery_on_150_planar_configurations():
    configs = _planar_configs(150, 38)
    assert sum(map(_has_collinear_triple, configs)) >= 20
    assert sum(any(c.denominator > 1 for p in config.points for c in p) for config in configs) >= 20
    rng = random.Random(39)
    for k, config in enumerate(configs):
        pairs = secondary.polygon_cones(config)
        assert [t.cells for t, _ in pairs] == [t.cells for t, _ in discover_cones_random(config, 1000, k)]
        for t, w in pairs:
            assert is_generic(config, w) and regular_subdivision(config, w) == t
        vertices = [gkz_vector(config, t) for t, _ in pairs]
        for _ in range(3):
            gamma = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(config.m))
            assert max(sum(map(operator.mul, v, gamma)) for v in vertices) == secondary_support(config, gamma)


def _counting_probe(monkeypatch):
    """Counts of the vertex and value calls that `polygon_cones` makes, and of `discover_cones_random` calls."""
    calls = {"vertex": 0, "value": 0, "discover": 0}
    probe, discover = secondary.probe_polygon, core.discover_cones_random

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(secondary, "probe_polygon",
                        lambda value, vertex, d: probe(counted("value", value), counted("vertex", vertex), d))
    monkeypatch.setattr(core, "discover_cones_random", counted("discover", discover))
    return calls


def test_the_pentagon_costs_five_vertex_and_eight_value_calls_and_no_sample(monkeypatch):
    calls = _counting_probe(monkeypatch)
    pentagon = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])
    f = neg_indicator_function(5, min_size=2)
    rep = core.reconstruct_polytope(pentagon, f, 0, samples=3, seed=1)
    assert rep.certified and len(set(rep.gradients)) == 5
    assert calls == {"vertex": 5, "value": 8, "discover": 0}
    assert core.min_convexifier(pentagon, f) == core.min_convexifier(pentagon, f, samples=800, seed=20240811)
    assert calls == {"vertex": 15, "value": 24, "discover": 0}


@pytest.mark.parametrize("points, vertex_calls", [
    ([[0, 0], [2, 0], [0, 3]], 1),
    ([[0, 0], [2, 0], [2, 2], [0, 2]], 2),
    ([[0, 0], [4, 0], [0, 4], [1, 1]], 2),
    ([[0, 0], [2, 0], [1, 0], [1, 2]], 2),  # a collinear triple
])
def test_triangles_and_quadrilaterals_need_only_the_seed_calls(monkeypatch, points, vertex_calls):
    calls = _counting_probe(monkeypatch)
    config = make_config(2, points)
    pairs = core.cone_witnesses(config)
    assert calls == {"vertex": vertex_calls, "value": 0, "discover": 0}
    assert len(pairs) == vertex_calls
    assert [t.cells for t, _ in pairs] == [t.cells for t, _ in discover_cones_random(config, 300, 5)]


def test_other_planar_configurations_keep_sampled_discovery(monkeypatch):
    calls = _counting_probe(monkeypatch)
    hexagon = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2], [1, 1]])
    with pytest.raises(InputError, match="needs samples and a seed"):
        core.cone_witnesses(hexagon)
    assert core.cone_witnesses(hexagon, samples=20, seed=3) == discover_cones_random(hexagon, 20, 3)
    assert calls == {"vertex": 0, "value": 0, "discover": 1}
