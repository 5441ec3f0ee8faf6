"""Subdivisions, triangulations, GKZ vectors, walls, and witnesses."""

from fractions import Fraction as F

import random

import pytest
from numeric_oracle import second_difference

from basecondary.core import (
    enumerate_circuital,
    enumerate_simplicial,
    is_generic,
)
from basecondary.errors import InputError
from basecondary.exact_core import make_config
from basecondary.secondary import (
    area_N,
    cone_witness,
    discover_cones_random,
    enumerate_triangulations_1d,
    enumerate_walls_1d,
    gkz_vector,
    regular_subdivision,
    secondary_support,
)

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
        assert secondary_support(A1367, gamma) == 2 * area_N(A1367, gamma)


def test_cone_witness_all_triangulations():
    for t in enumerate_triangulations_1d(A1367):
        w = cone_witness(A1367, t)
        assert regular_subdivision(A1367, w).cells == t.cells
        assert is_generic(A1367, w)
    two = make_config(1, [[0], [5]])
    t = enumerate_triangulations_1d(two)[0]
    assert is_generic(two, cone_witness(two, t))


def test_cone_witness_arithmetic_progression():
    cfg = make_config(1, [[1], [2], [3], [4]])
    for t in enumerate_triangulations_1d(cfg):
        w = cone_witness(cfg, t)
        assert regular_subdivision(cfg, w).cells == t.cells
        assert is_generic(cfg, w)


def test_walls_1367():
    walls = enumerate_walls_1d(A1367)
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
        # exactly one hull circuit at the witness, all simplicial supports generic
        circ = enumerate_circuital(A1367, w.witness)
        assert len(circ) == 1
        assert all(s.generic for s in enumerate_simplicial(A1367, w.witness))
        assert set(w.circuit.support) <= set(circ[0].maximizers)


def test_walls_empty_for_two_points():
    two = make_config(1, [[0], [5]])
    assert enumerate_walls_1d(two) == ()


def test_secondary_support_strictly_convex_across_walls():
    for w in enumerate_walls_1d(A1367):
        defect, _ = second_difference(
            A1367, lambda g: secondary_support(A1367, g), w
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
