"""Gaussian eliminations over `Fraction`: the reference for the Bareiss kernel.

The library runs all of its exact linear algebra in integers: Bareiss's
fraction-free elimination (`exact_core._bareiss`) and kernels read off
minors. These are the four textbook eliminations it replaced, kept verbatim
so the kernel can be checked against them: a forward elimination for
determinants, Gauss-Jordan for the rank and for square solves, and a reduced
row echelon form for kernel vectors. `find_circuit` is the circuit as the
library once took it, the echelon kernel vector of the points under a row
of ones, here on the reduced row echelon form.
"""

from fractions import Fraction

from basecondary.errors import InputError
from basecondary.exact_core import CircuitData


def det(rows):
    """Determinant by Gaussian elimination with Fraction pivots."""
    k = len(rows)
    assert all(len(r) == k for r in rows), "determinant needs a square matrix"
    if k == 0:
        return Fraction(1)
    a = [list(r) for r in rows]
    value = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            value = -value
        value *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, k):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, k):
                    a[r][c] -= factor * a[col][c]
    return value


def matrix_rank(rows):
    """Rank over Q by Gauss-Jordan elimination."""
    a = [list(map(Fraction, r)) for r in rows]
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        for r in range(nrows):
            if r != row and a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, ncols):
                    a[r][c] -= factor * a[row][c]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def solve_linear(rows, rhs):
    """Solve a square system by Gauss-Jordan on the augmented matrix; None when singular."""
    k = len(rows)
    a = [list(rows[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        for r in range(k):
            if r != col and a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, k + 1):
                    a[r][c] -= factor * a[col][c]
    return [a[i][k] / a[i][i] for i in range(k)]


def kernel_vector(rows):
    """Kernel vector from the reduced row echelon form, or None if the kernel is 0.

    The first free column carries 1 and every other free column 0.
    """
    a = [list(r) for r in rows]
    if not a:
        return None
    ncols = len(a[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    f = free[0]
    vec = [Fraction(0)] * ncols
    vec[f] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -a[r][f]
    return vec


def find_circuit(points, labels=None):
    """Signed affine relation of n+2 points affinely spanning Q^n, from the kernel vector."""
    n = len(points[0])
    if labels is None:
        labels = list(range(1, n + 3))
    rows = [[Fraction(1)] * (n + 2)] + [[Fraction(p[c]) for p in points] for c in range(n)]
    if matrix_rank(rows) != n + 1:
        raise InputError("points lie in a hyperplane; no unique circuit")
    alpha = kernel_vector(rows)
    pos = [(labels[i], alpha[i]) for i in range(n + 2) if alpha[i] > 0]
    neg = [(labels[i], -alpha[i]) for i in range(n + 2) if alpha[i] < 0]
    zer = [labels[i] for i in range(n + 2) if alpha[i] == 0]
    # positive side: fewer points, ties broken toward the smallest label
    if len(pos) > len(neg) or (
        len(pos) == len(neg) and min(i for i, _ in neg) < min(i for i, _ in pos)
    ):
        pos, neg = neg, pos
    scale = min(c for _, c in pos)
    pos = tuple((i, c / scale) for i, c in sorted(pos))
    neg = tuple((i, c / scale) for i, c in sorted(neg))
    return CircuitData(positive=pos, negative=neg, zeros=tuple(sorted(zer)))
