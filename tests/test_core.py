"""Basecondary evaluators, orderings, wall defects, convexification."""

from fractions import Fraction as F

import itertools
import random

import pytest
from numeric_oracle import second_difference

from basecondary.core import (
    convexity_certificate,
    enumerate_circuital,
    enumerate_simplicial,
    eval_basecondary_general,
    eval_basecondary_generic,
    expansion_terms,
    gradient_on_cone,
    is_generic,
    min_convexifier,
    order_circuital,
    order_simplicial,
    reconstruct_polytope,
    wall_defect_numeric,
)
from basecondary.errors import InputError
from basecondary.exact_core import make_config
from basecondary.secondary import (
    cone_witness,
    enumerate_triangulations_1d,
    enumerate_walls_1d,
    gkz_vector,
    regular_subdivision,
)
from basecondary.setfun import (
    SetFunction,
    evaluate_f,
    greedy_vertex,
    lovasz_extension,
    neg_card_ratio_function,
    neg_gcd_function,
    neg_indicator_function,
    table_function,
)

A1367 = make_config(1, [[1], [3], [6], [7]])
G1 = (2, 4, 5, 3)
G2 = (1, 3, 3, 1)
G3 = (3, 3, 3, 1)


def random_table(rng, m, min_size=0, lo=-4, hi=4):
    values = {}
    for r in range(max(1, min_size), m + 1):
        for sub in itertools.combinations(range(1, m + 1), r):
            values[frozenset(sub)] = F(rng.randint(lo, hi), rng.randint(1, 3))
    return SetFunction(kind="table", m=m, min_size=min_size, table=values)


def random_generic_gamma(rng, config, bound=20):
    while True:
        gamma = tuple(
            F(rng.randint(-bound, bound), rng.randint(1, 6)) for _ in range(config.m)
        )
        if is_generic(config, gamma):
            return gamma


def test_simplicial_supports_worked_example():
    supports = enumerate_simplicial(A1367, G1)
    slopes = {s.linear[0]: s for s in supports}
    assert set(slopes) == {F(1), F(1, 3), F(-2)}
    assert slopes[F(1)].maximizers == (1, 2)
    assert slopes[F(1, 3)].maximizers == (2, 3)
    assert slopes[F(-2)].maximizers == (3, 4)
    assert all(s.generic for s in supports)
    assert is_generic(A1367, G1)


def test_simplicial_orderings_worked_example():
    supports = {s.linear[0]: s for s in enumerate_simplicial(A1367, G1)}
    assert order_simplicial(A1367, G1, supports[F(1)]).tuple == (1, 2, 3, 4)
    assert order_simplicial(A1367, G1, supports[F(1, 3)]).tuple == (2, 3, 1, 4)
    assert order_simplicial(A1367, G1, supports[F(-2)]).tuple == (3, 4, 2, 1)


def test_nongeneric_and_circuital_examples():
    supports = {s.linear[0]: s for s in enumerate_simplicial(A1367, G2)}
    assert not supports[F(0)].generic
    assert not is_generic(A1367, G2)
    with pytest.raises(InputError):
        order_simplicial(A1367, G2, supports[F(0)])

    circ = enumerate_circuital(A1367, G3)
    assert len(circ) == 1
    assert circ[0].linear == (F(0),)
    assert circ[0].maximizers == (1, 2, 3)
    assert not is_generic(A1367, G3)
    assert enumerate_circuital(A1367, G1) == ()

    wall_gamma = (2, F(16, 5), 5, 3)
    circ2 = enumerate_circuital(A1367, wall_gamma)
    assert len(circ2) == 1
    assert circ2[0].linear == (F(3, 5),)
    assert circ2[0].maximizers == (1, 2, 3)


def test_affine_heights_not_generic():
    affine = tuple(2 * a + 1 for a in (1, 3, 6, 7))
    assert not is_generic(A1367, affine)
    constant = (5, 5, 5, 5)
    assert not is_generic(A1367, constant)


def test_n0_simplicial():
    cfg = make_config(0, [[], [], []])
    sup = enumerate_simplicial(cfg, (3, 2, 1))
    assert len(sup) == 1 and sup[0].maximizers == (1,)
    assert enumerate_simplicial(cfg, (3, 3, 1)) == ()
    assert is_generic(cfg, (3, 2, 1))
    assert not is_generic(cfg, (3, 2, 2))


def test_order_circuital_point_in_triangle():
    cfg = make_config(2, [[2, 2], [0, 0], [4, 0], [2, 6]])
    circ = enumerate_circuital(cfg, (0, 0, 0, 0))
    assert len(circ) == 1
    assert circ[0].circuit.p == 1 and circ[0].circuit.q == 3
    ordered = order_circuital(cfg, (0, 0, 0, 0), circ[0])
    assert ordered.tuple[0] == 1  # interior point first
    assert ordered.head == 4


def test_order_circuital_square():
    cfg = make_config(2, [[0, 0], [2, 0], [0, 2], [2, 2]])
    circ = enumerate_circuital(cfg, (0, 0, 0, 0))
    assert len(circ) == 1
    assert circ[0].circuit.p == 2 and circ[0].circuit.q == 2
    ordered = order_circuital(cfg, (0, 0, 0, 0), circ[0])
    assert set(ordered.tuple[:2]) == {1, 4}
    assert set(ordered.tuple[2:4]) == {2, 3}


def test_order_circuital_collinear_triple():
    cfg = make_config(2, [[0, 0], [1, 0], [2, 0], [1, 2]])
    circ = enumerate_circuital(cfg, (0, 0, 0, 0))
    assert len(circ) == 1
    data = circ[0].circuit
    assert data.p == 1 and data.q == 2
    assert data.zeros == (4,)
    ordered = order_circuital(cfg, (0, 0, 0, 0), circ[0])
    assert ordered.tuple[0] == 2  # the midpoint
    assert ordered.tuple[3] == 4  # zero-coefficient member closes the head


def test_expansion_terms_worked_example():
    rng = random.Random(10)
    f = random_table(rng, 4, min_size=1)
    terms = expansion_terms(A1367, f, G1)
    patterns = {t[0] for t in terms}
    assert patterns == {
        (1, 2, 3),
        (1, 2, 4),
        (2, 3, 1),
        (2, 3, 4),
        (3, 4, 2),
        (3, 4, 1),
    }
    assert all(vol > 0 for _, _, vol in terms)
    volumes = {t[0]: t[2] for t in terms}
    assert volumes[(1, 2, 3)] == 4
    assert volumes[(1, 2, 4)] == 10
    assert volumes[(2, 3, 1)] == 4
    assert volumes[(2, 3, 4)] == 7
    assert volumes[(3, 4, 2)] == 7
    assert volumes[(3, 4, 1)] == 13
    diffs = {t[0]: t[1] for t in terms}
    assert diffs[(1, 2, 3)] == evaluate_f(f, {1, 2}) - evaluate_f(f, {1, 2, 3})
    assert diffs[(3, 4, 1)] == evaluate_f(f, {2, 3, 4}) - evaluate_f(f, {1, 2, 3, 4})


def test_expansion_terms_zero_function_and_degenerate():
    zero = table_function(4, {}, min_size=1)
    assert expansion_terms(A1367, zero, G1) == ()
    cfg = make_config(0, [[], []])
    f = table_function(2, {frozenset({1}): 3, frozenset({2}): 5, frozenset({1, 2}): 4})
    terms = expansion_terms(cfg, f, (1, 0))
    assert len(terms) == 1
    tup, diff, vol = terms[0]
    assert tup == (1, 2) and vol == 1
    assert diff == evaluate_f(f, {1}) - evaluate_f(f, {1, 2})


def test_eval_known_values():
    gcd = neg_gcd_function(A1367, min_size=1)
    assert eval_basecondary_general(A1367, gcd, G1) == -8
    assert eval_basecondary_generic(A1367, gcd, G1) == -8
    ind = neg_indicator_function(4, min_size=1)
    assert eval_basecondary_general(A1367, ind, G1) == 17
    zero = table_function(4, {}, min_size=1)
    for gamma in (G1, G2, G3):
        assert eval_basecondary_general(A1367, zero, gamma) == 0


def test_eval_generic_requires_generic():
    gcd = neg_gcd_function(A1367, min_size=1)
    with pytest.raises(InputError):
        eval_basecondary_generic(A1367, gcd, G3)


def test_eval_n0_lovasz_reduction():
    cfg = make_config(0, [[], [], []])
    f = neg_card_ratio_function(3)
    assert eval_basecondary_general(cfg, f, (3, 2, 1)) == 1
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(2, 5)
        cfg = make_config(0, [[] for _ in range(m)])
        f = random_table(rng, m)
        gamma = random_generic_gamma(rng, cfg)
        expected = lovasz_extension(f, gamma) - max(gamma) * evaluate_f(
            f, set(range(1, m + 1))
        )
        assert eval_basecondary_general(cfg, f, gamma) == expected
        assert eval_basecondary_generic(cfg, f, gamma) == expected


def test_dual_path_equality_small():
    rng = random.Random(12)
    for _ in range(25):
        m = rng.randint(3, 5)
        pts = sorted(rng.sample(range(-6, 9), m))
        cfg = make_config(1, [[a] for a in pts])
        f = random_table(rng, m, min_size=1)
        gamma = random_generic_gamma(rng, cfg)
        assert eval_basecondary_general(cfg, f, gamma) == eval_basecondary_generic(
            cfg, f, gamma
        )


def test_positive_homogeneity():
    rng = random.Random(13)
    gcd = neg_gcd_function(A1367, min_size=1)
    for _ in range(10):
        gamma = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4))
        lam = F(rng.randint(1, 7), rng.randint(1, 4))
        assert eval_basecondary_general(
            A1367, gcd, tuple(lam * g for g in gamma)
        ) == lam * eval_basecondary_general(A1367, gcd, gamma)


def test_f_locality_below_n():
    # perturbing F on subsets of size <= n leaves the value unchanged
    rng = random.Random(14)
    base = random_table(rng, 4, min_size=0)
    perturbed_table = dict(base.table)
    for sub in [frozenset({1}), frozenset({3}), frozenset({4})]:
        perturbed_table[sub] = perturbed_table.get(sub, F(0)) + F(rng.randint(1, 5))
    perturbed = SetFunction(kind="table", m=4, min_size=0, table=perturbed_table)
    for gamma in (G1, G3, (0, 7, 1, 2)):
        assert eval_basecondary_general(A1367, base, gamma) == eval_basecondary_general(
            A1367, perturbed, gamma
        )


def test_wall_defects_zero_function():
    zero = table_function(4, {}, min_size=1)
    for wall in enumerate_walls_1d(A1367):
        assert wall_defect_numeric(A1367, zero, wall) == 0


def test_wall_defects_neg_gcd_frozen():
    gcd = neg_gcd_function(A1367, min_size=1)
    values = {}
    for wall in enumerate_walls_1d(A1367):
        values[wall.circuit.support] = wall_defect_numeric(A1367, gcd, wall)
    assert values == {(1, 2, 3): -10, (2, 3, 4): -8, (1, 2, 4): 0, (1, 3, 4): 0}


def test_wall_defects_indicator_one_sign():
    ind = neg_indicator_function(4, min_size=1)
    defects = [
        wall_defect_numeric(A1367, ind, wall) for wall in enumerate_walls_1d(A1367)
    ]
    assert all(d > 0 for d in defects)


def test_wall_defect_symbolic_matches_numeric():
    # the circuit lemma equals the step-halving second difference exactly
    rng = random.Random(15)
    walls = enumerate_walls_1d(A1367)
    fs = [random_table(rng, 4, min_size=1) for _ in range(8)]
    fs += [neg_gcd_function(A1367, min_size=1), neg_indicator_function(4, min_size=1)]
    for f in fs:
        for wall in walls:
            oracle, _ = second_difference(
                A1367, lambda g: eval_basecondary_general(A1367, f, g), wall
            )
            assert wall_defect_numeric(A1367, f, wall) == oracle


def test_min_convexifier_zero_cases():
    zero = table_function(4, {}, min_size=1)
    assert min_convexifier(A1367, zero).value == 0
    ind = neg_indicator_function(4, min_size=1)
    assert min_convexifier(A1367, ind).value == 0


def test_min_convexifier_neg_gcd():
    gcd = neg_gcd_function(A1367, min_size=1)
    result = min_convexifier(A1367, gcd)
    assert result.exact
    assert result.value == 2
    certified = reconstruct_polytope(A1367, gcd, result.value)
    assert certified.certified
    barely_under = reconstruct_polytope(A1367, gcd, result.value * F(999, 1000))
    assert not barely_under.certified
    assert barely_under.failure_witness is not None


def test_gradient_zero_function():
    zero = table_function(4, {}, min_size=1)
    w = cone_witness(A1367, enumerate_triangulations_1d(A1367)[-1])
    assert gradient_on_cone(A1367, zero, w) == (0, 0, 0, 0)


def test_gradient_n0_greedy_identity():
    rng = random.Random(16)
    from basecondary.setfun import is_submodular

    found = 0
    while found < 5:
        m = rng.randint(2, 4)
        f = random_table(rng, m)
        if not is_submodular(f).holds:
            continue
        found += 1
        cfg = make_config(0, [[] for _ in range(m)])
        order = list(range(1, m + 1))
        rng.shuffle(order)
        gamma = [F(0)] * m
        for rank, i in enumerate(order):
            gamma[i - 1] = F(3 * (m - rank))
        g = gradient_on_cone(cfg, f, tuple(gamma))
        greedy = greedy_vertex(f, order)
        full = evaluate_f(f, set(range(1, m + 1)))
        expected = list(greedy)
        expected[order[0] - 1] -= full
        assert list(g) == expected


def test_gradient_linearity_on_cone():
    ind = neg_indicator_function(4, min_size=1)
    for t in enumerate_triangulations_1d(A1367):
        w = cone_witness(A1367, t)
        g = gradient_on_cone(A1367, ind, w)
        rng = random.Random(17)
        hits = 0
        while hits < 5:
            probe = tuple(
                c + F(rng.randint(-40, 40), 100) for c in w
            )
            if regular_subdivision(A1367, probe).cells != t.cells:
                continue
            hits += 1
            assert eval_basecondary_general(A1367, ind, probe) == sum(
                a * b for a, b in zip(g, probe)
            )


def test_reconstruct_zero_function():
    zero = table_function(4, {}, min_size=1)
    rep = reconstruct_polytope(A1367, zero, 0)
    assert rep.certified
    assert rep.gradients == ((0, 0, 0, 0),)


def test_reconstruct_indicator_matches_gkz():
    ind = neg_indicator_function(4, min_size=1)
    rep = reconstruct_polytope(A1367, ind, 0)
    assert rep.certified
    assert len(rep.entries) == 4
    tris = enumerate_triangulations_1d(A1367)
    by_cells = {t.cells: gkz_vector(A1367, t) for t in tris}
    for w, g in rep.entries:
        phi = by_cells[regular_subdivision(A1367, w).cells]
        shift = tuple(p - q for p, q in zip(phi, g))
        assert shift == (6, 0, 0, 6)


def test_reconstruct_neg_gcd_uncertified():
    gcd = neg_gcd_function(A1367, min_size=1)
    rep = reconstruct_polytope(A1367, gcd, 0)
    assert not rep.certified
    witness, j, k = rep.failure_witness
    own = sum(a * b for a, b in zip(rep.entries[j][1], witness))
    other = sum(a * b for a, b in zip(rep.entries[k][1], witness))
    assert other > own


def test_certificate_single_and_counterexample():
    ok, _ = convexity_certificate([((1, 1), (2, 3))])
    assert ok
    ind = neg_indicator_function(4, min_size=1)
    rep = reconstruct_polytope(A1367, ind, 0)
    broken = list(rep.entries)
    j = next(
        k
        for k, (w, g) in enumerate(broken)
        if sum(a * b for a, b in zip(g, w)) > 0
    )
    wj, gj = broken[j]
    broken[j] = (wj, tuple(-c for c in gj))
    ok, failure = convexity_certificate(broken)
    assert not ok and failure is not None


def test_theorem_direction_convexifier_always_certifies():
    # submodular above n is enough for a finite convexifier and a certified
    # convexified reconstruction, without the circuit condition
    rng = random.Random(18)
    done = 0
    while done < 12:
        m = rng.randint(4, 5)
        pts = sorted(rng.sample(range(-7, 10), m))
        cfg = make_config(1, [[a] for a in pts])
        groups = rng.randint(2, 4)
        sets = [frozenset(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(groups)]
        weights = [F(rng.randint(0, 6)) for _ in range(groups)]
        modular = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
        values = {}
        for r in range(1, m + 1):
            for sub in itertools.combinations(range(1, m + 1), r):
                x = frozenset(sub)
                values[x] = sum(w for w, s in zip(weights, sets) if s & x) + sum(
                    modular[i - 1] for i in x
                )
        f = SetFunction(kind="table", m=m, min_size=1, table=values)
        from basecondary.setfun import is_submodular_above

        if not is_submodular_above(f, 1).holds:
            continue
        done += 1
        result = min_convexifier(cfg, f)
        assert result.exact
        rep = reconstruct_polytope(cfg, f, result.value)
        assert rep.certified


def test_min_convexifier_sampled_pentagon():
    pentagon = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])
    ind = neg_indicator_function(5, min_size=2)
    result = min_convexifier(pentagon, ind, samples=800, seed=20240811)
    assert result.value == 0
    assert not result.exact


def test_reconstruct_n0_base_polytope_shift():
    from basecondary.setfun import base_polytope, is_submodular

    rng = random.Random(19)
    while True:
        f = random_table(rng, 3)
        if is_submodular(f).holds:
            break
    cfg = make_config(0, [[], [], []])
    rep = reconstruct_polytope(cfg, f, 0)
    assert rep.certified
    full = evaluate_f(f, {1, 2, 3})
    vertices = set(base_polytope(f))
    # every gradient is a greedy vertex minus F(ground) on the top coordinate
    for w, g in rep.entries:
        top = max(range(3), key=lambda k: w[k])
        restored = list(g)
        restored[top] += full
        assert tuple(restored) in vertices


def test_order_circuital_1d_wall():
    g3 = (3, 3, 3, 1)
    circ = enumerate_circuital(A1367, g3)[0]
    assert circ.circuit.p == 1 and circ.circuit.q == 2
    ordered = order_circuital(A1367, g3, circ)
    assert ordered.tuple[0] == 2  # the middle point of {1, 3, 6}
    assert set(ordered.tuple[1:3]) == {1, 3}
    assert ordered.tuple[3] == 4
