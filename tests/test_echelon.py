"""The fraction-free elimination against the Fraction eliminations it replaced.

`exact_core` computes determinants, ranks, square solves and kernel vectors
from one Bareiss elimination. On seeded matrices of every shape the kernel
uses (empty, square, singular, rank-deficient, wide and tall, small and huge
denominators) each reader must return exactly what the textbook elimination
in `linalg_reference` returns: the same value of the same type.
"""

import random
from fractions import Fraction as F

import linalg_reference as ref
from basecondary.exact_core import _det, _echelon, _null_vector, matrix_rank, solve_linear

MATRICES = 2400


def _entry(rng):
    roll = rng.random()
    if roll < 0.35:
        return F(rng.randint(-2, 2))  # many zeros: skipped columns, row swaps
    if roll < 0.8:
        return F(rng.randint(-9, 9), rng.randint(1, 7))
    return F(rng.randint(-10**15, 10**15), rng.randint(1, 10**12))


def _random(rng, nrows, ncols):
    return [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def _low_rank(rng, nrows, ncols, rank):
    left = _random(rng, nrows, rank)
    right = _random(rng, rank, ncols)
    return [[sum((l[t] * right[t][c] for t in range(rank)), F(0)) for c in range(ncols)] for l in left]


def _singular(rng, k):
    rows = _random(rng, k, k)
    i, j = rng.sample(range(k), 2)
    t = _entry(rng)
    rows[i] = [t * x for x in rows[j]]
    return rows


def _matrix(rng):
    """One seeded matrix; the shape family rotates through the cases."""
    family = rng.randrange(6)
    if family == 0:
        return [], [[]], [[], []], [[F(0)]], [[F(0), F(0)], [F(0), F(0)]]
    k = rng.randint(1, 5)
    if family == 1:
        return (_random(rng, k, k),)
    if family == 2:
        return (_singular(rng, k + 1),)
    if family == 3:
        rank = rng.randint(0, k)
        return (_low_rank(rng, k, k, rank), _low_rank(rng, k, k + rng.randint(1, 2), rank))
    if family == 4:
        return (_random(rng, k, k + rng.randint(1, 3)),)
    return (_random(rng, k + rng.randint(1, 2), k),)


def _same(a, b):
    return repr(a) == repr(b)


def test_kernel_matches_the_fraction_eliminations():
    rng = random.Random(20241104)
    seen = dets = solves = 0
    for _ in range(MATRICES):
        for rows in _matrix(rng):
            seen += 1
            assert _same(matrix_rank(rows), ref.matrix_rank(rows)), rows
            if rows:  # the back-substitution shared by solve_linear and find_circuit
                a, pivots = _echelon(rows)
                assert _same(_null_vector(a, pivots, len(rows[0])), ref.kernel_vector(rows)), rows
            if all(len(r) == len(rows) for r in rows):
                dets += 1
                assert _same(_det(rows), ref.det(rows)), rows
                rhs = [_entry(rng) for _ in rows]
                solves += 1
                assert _same(solve_linear(rows, rhs), ref.solve_linear(rows, rhs)), (rows, rhs)
    assert seen >= 2000 and dets >= 1000 and solves >= 1000
