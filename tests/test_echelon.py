"""The fraction-free elimination against the Fraction eliminations it replaced.

`exact_core` computes determinants and ranks from one Bareiss elimination,
and kernel vectors and square solves as vectors of minors. On seeded
matrices of every shape the kernel uses (empty, square, singular,
rank-deficient, wide and tall, small and huge denominators) each reader must
return exactly what the textbook elimination in `linalg_reference` returns:
the same value of the same type. The minors of a k x (k+1) matrix must be
the reference kernel vector up to a nonzero scale, and zero below rank k,
and circuits must be those of the reference's kernel vector: the circuits
of `find_circuit`, and those a configuration reads off its lift's kernel
(`PointConfig.circuit`), which is None exactly where the reference refuses.
"""

import itertools
import random
from fractions import Fraction as F

import linalg_reference as ref
import pytest

from basecondary import exact_core
from basecondary.errors import InputError
from basecondary.exact_core import (
    _det,
    clear_denominators,
    find_circuit,
    integer_normal,
    make_config,
    matrix_rank,
    solve_linear,
)

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


def _kernel_of_minors(rows):
    """Whether `integer_normal` of the cleared k x (k+1) rows is the reference kernel vector up to scale."""
    normal = integer_normal([clear_denominators(r)[0] for r in rows])
    if ref.matrix_rank(rows) < len(rows):
        return not any(normal)
    want = ref.kernel_vector(rows)
    i = next(i for i, x in enumerate(want) if x)
    scale = normal[i] / want[i]
    return scale != 0 and normal == [scale * x for x in want]


def test_kernel_matches_the_fraction_eliminations():
    rng = random.Random(20241104)
    seen = dets = solves = kernels = 0
    for _ in range(MATRICES):
        for rows in _matrix(rng):
            seen += 1
            assert _same(matrix_rank(rows), ref.matrix_rank(rows)), rows
            if rows and all(len(r) == len(rows) + 1 for r in rows):  # the shape of find_circuit's matrix
                kernels += 1
                assert _kernel_of_minors(rows), rows
            if all(len(r) == len(rows) for r in rows):
                dets += 1
                assert _same(_det(rows), ref.det(rows)), rows
                rhs = [_entry(rng) for _ in rows]
                solves += 1
                assert _same(solve_linear(rows, rhs), ref.solve_linear(rows, rhs)), (rows, rhs)
                if rows:  # the matrix [rows | -rhs] whose minors solve_linear reads
                    kernels += 1
                    assert _kernel_of_minors([[*r, -b] for r, b in zip(rows, rhs)]), (rows, rhs)
    assert seen >= 2000 and dets >= 1000 and solves >= 1000 and kernels >= 1500


def test_rank_eliminates_the_shorter_side(monkeypatch):
    # rank M^T = rank M: a matrix_rank F's k columns of length 3 are eliminated as 3 rows of length k
    shapes = []
    real = exact_core._bareiss
    monkeypatch.setattr(exact_core, "_bareiss", lambda a: shapes.append((len(a), len(a[0]) if a else 0)) or real(a))
    rng = random.Random("rank/shorter-side")
    deficient = 0
    for _ in range(200):
        short, long = rng.randint(1, 4), rng.randint(5, 14)
        rank = rng.randint(0, short - 1)
        tall, low = _random(rng, long, short), _low_rank(rng, long, short, rank)
        for rows in (tall, low, [list(c) for c in zip(*tall)], [list(c) for c in zip(*low)]):
            shapes.clear()
            got = matrix_rank(rows)
            assert _same(got, ref.matrix_rank(rows)), rows
            assert shapes == [(short, long)], rows
            deficient += got < short
    assert deficient >= 400
    assert matrix_rank([[]] * 3) == matrix_rank([]) == 0


def _circuit_points(rng, n):
    """n + 2 distinct points of Q^n, often with a relation that skips a point, or not spanning."""
    while True:
        pts = [tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)) for _ in range(n + 2)]
        if rng.random() < 0.3:  # the last point on the line through two others: a zero coefficient
            a, b = rng.sample(pts[:-1], 2)
            t = F(rng.randint(-2, 3), 2)
            pts[-1] = tuple(x + t * (y - x) for x, y in zip(a, b))
        if len(set(pts)) == n + 2:
            return pts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_circuits_match_the_kernel_vector(n):
    rng = random.Random(f"circuits/{n}")
    flat = zeros = 0
    for _ in range(1000):
        pts = _circuit_points(rng, n)
        labels = rng.sample(range(1, 20), n + 2)
        try:
            want = ref.find_circuit(pts, labels)
        except InputError:
            flat += 1
            with pytest.raises(InputError):
                find_circuit(pts, labels)
            continue
        zeros += bool(want.zeros)
        assert _same(find_circuit(pts, labels), want), (pts, labels)
    assert n == 1 or (flat and zeros > 50)  # three distinct points of Q^1 always span, each with a coefficient


def _config_with_flats(rng, n, m):
    """m distinct points of Q^n, many on the hyperplane through the first n, some of them collinear."""
    pts = []
    while len(pts) < m:
        p = tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n))
        if n >= 2 and len(pts) >= n and rng.random() < 0.6:
            w = [F(rng.randint(-2, 3), 2) for _ in range(n - 1)]
            p = tuple(sum((c * q[k] for c, q in zip([*w, 1 - sum(w)], pts)), F(0)) for k in range(n))
        if n == 0 or p not in pts:
            pts.append(p)
    return make_config(n, pts)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_config_circuits_match_the_kernel_vector(n):
    rng = random.Random(f"config-circuits/{n}")
    seen = flat = zeros = 0
    for _ in range(30):
        config = _config_with_flats(rng, n, rng.randint(n + 2, n + 5))
        for labels in itertools.combinations(range(1, config.m + 1), n + 2):
            labels = tuple(rng.sample(labels, n + 2))
            seen += 1
            try:
                want = ref.find_circuit(config.subset_points(labels), labels=labels)
            except InputError:
                flat += 1
                assert config.circuit(labels) is None, (config, labels)
                continue
            zeros += bool(want.zeros)
            assert _same(config.circuit(labels), want), (config, labels)
    assert seen >= 100 and (n < 2 or (flat > 20 and zeros > 20)), (seen, flat, zeros)


@pytest.mark.parametrize("config, bad", [
    (make_config(0, [[], [], []]), [(1,), (1, 2, 3), (1, 1), (0, 1), (1, 4)]),
    (make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]]),
     [(1, 2, 3), (1, 2, 3, 4, 5), (1, 2, 2, 3), (0, 1, 2, 3), (1, 2, 3, 6)]),
])
def test_config_circuit_refuses_bad_labels(config, bad):
    for labels in bad:
        with pytest.raises(InputError, match=f"needs {config.n + 2} distinct labels in 1..{config.m}"):
            config.circuit(labels)
