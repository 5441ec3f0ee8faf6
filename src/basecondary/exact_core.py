"""Exact rational geometry: volumes, circuits, convex polygons, fiber slices.

Everything below computes with `fractions.Fraction`; there is no floating
point anywhere, so equality tests are meaningful and results are
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalError

Point = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# rational coercion / serialization


def rat(x) -> Fraction:
    """Coerce an int, Fraction, or "p/q"/"p" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {x!r}") from exc
    raise InputError(f"not a rational: {x!r}")


def as_int(x, what: str = "value") -> int:
    """Coerce an int or an integral rational string to an int, exactly.

    Non-integral or non-numeric input is an InputError, never truncated.
    """
    try:
        q = rat(x)
    except InputError:
        q = None
    if q is None or q.denominator != 1:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return q.numerator


def rat_str(q: Fraction) -> str:
    """Serialize a rational in lowest terms: "p" for integers, else "p/q"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def point(coords) -> Point:
    return tuple(rat(c) for c in coords)


# ---------------------------------------------------------------------------
# point configurations


@dataclass(frozen=True)
class PointConfig:
    """Ground set {1..m} together with its image points in Q^n."""

    n: int
    points: tuple[Point, ...]

    def __post_init__(self):
        if self.n < 0:
            raise InputError("ambient dimension must be >= 0")
        if len(self.points) < 2:
            raise InputError("ground size must exceed 1")
        for p in self.points:
            if len(p) != self.n:
                raise InputError(f"point {p} does not live in Q^{self.n}")
        if self.n >= 1 and len(set(self.points)) != len(self.points):
            raise InputError("points must be pairwise distinct when n >= 1")

    @property
    def m(self) -> int:
        return len(self.points)

    def image(self, label: int) -> Point:
        """Point of the 1-based ground element `label`."""
        if not 1 <= label <= self.m:
            raise InputError(f"ground label {label} out of range 1..{self.m}")
        return self.points[label - 1]

    def subset_points(self, labels: Iterable[int]) -> list[Point]:
        return [self.image(i) for i in labels]


def make_config(n: int, points) -> PointConfig:
    return PointConfig(n=n, points=tuple(point(p) for p in points))


# ---------------------------------------------------------------------------
# exact linear algebra on small matrices


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free-enough Gaussian elimination."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise InputError("determinant needs a square matrix")
    if k == 0:
        return Fraction(1)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, k):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, k):
                    a[r][c] -= factor * a[col][c]
    return det


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination."""
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


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve a square system exactly; None when singular."""
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


def kernel_vector(rows: list[list[Fraction]]) -> Optional[list[Fraction]]:
    """A nonzero kernel vector of the matrix, or None if the kernel is 0.

    Intended for systems whose kernel is at most one-dimensional; returns a
    generator of the kernel in that case.
    """
    a = [list(r) for r in rows]
    if not a:
        return None
    ncols = len(a[0])
    pivots: list[int] = []
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


# ---------------------------------------------------------------------------
# volumes and ranks


def oriented_volume(vertices: Sequence[Point]) -> Fraction:
    """Lattice-normalized oriented volume det(v1-v0, ..., vk-v0).

    Takes k+1 points of Q^k; the empty 0-simplex in Q^0 has volume 1.
    Antisymmetric under vertex transpositions, zero iff affinely dependent.
    """
    k = len(vertices) - 1
    if k < 0:
        raise InputError("oriented_volume needs at least one vertex")
    if any(len(v) != k for v in vertices):
        raise InputError(f"oriented_volume of {k + 1} points needs ambient dimension {k}")
    v0 = vertices[0]
    rows = [[vertices[i + 1][c] - v0[c] for c in range(k)] for i in range(k)]
    return _det(rows)


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine span of a nonempty point list."""
    if not points:
        raise InputError("affine_rank of an empty point list")
    p0 = points[0]
    rows = [[p[c] - p0[c] for c in range(len(p0))] for p in points[1:]]
    return matrix_rank(rows) if rows else 0


def lattice_volume(points: Sequence[Point]) -> Fraction:
    """Nonnegative lattice d-volume of the convex hull (d = ambient dim <= 2).

    0 when the hull is lower-dimensional; the hull of points in Q^0 has
    volume 1 (counting measure of the single point).
    """
    if not points:
        return Fraction(0)
    d = len(points[0])
    if d == 0:
        return Fraction(1)
    if d == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs)
    if d == 2:
        hull = convex_hull_2d(points)
        if len(hull) < 3:
            return Fraction(0)
        return 2 * _shoelace_area(hull)
    raise InputError("lattice_volume implemented for ambient dimension <= 2")


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class CircuitData:
    """The unique signed affine relation of n+2 points spanning Q^n.

    `positive`/`negative` hold (label, coefficient) pairs; the sides satisfy
    sum(lam_i * A(b_i)) == sum(mu_j * A(b_j)) and sum(lam) == sum(mu), all
    coefficients strictly positive, smallest positive-side coefficient 1.
    Labels not taking part carry coefficient zero and appear in `zeros`.
    """

    positive: tuple[tuple[int, Fraction], ...]
    negative: tuple[tuple[int, Fraction], ...]
    zeros: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.positive)

    @property
    def q(self) -> int:
        return len(self.negative)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted([i for i, _ in self.positive] + [i for i, _ in self.negative]))

    @property
    def ordering(self) -> tuple[int, ...]:
        return tuple([i for i, _ in self.positive] + [i for i, _ in self.negative] + list(self.zeros))


def find_circuit(points: Sequence[Point], labels: Optional[Sequence[int]] = None) -> CircuitData:
    """Signed affine relation of n+2 points affinely spanning Q^n."""
    if not points:
        raise InputError("find_circuit needs points")
    n = len(points[0])
    if len(points) != n + 2:
        raise InputError(f"find_circuit needs exactly {n + 2} points in Q^{n}")
    if affine_rank(points) != n:
        raise InputError("points lie in a hyperplane; no unique circuit")
    if labels is None:
        labels = list(range(1, n + 3))
    # kernel of the (n+1) x (n+2) matrix with a row of ones atop the coordinates
    rows = [[Fraction(1)] * (n + 2)]
    for c in range(n):
        rows.append([p[c] for p in points])
    alpha = kernel_vector(rows)
    if alpha is None:
        raise InternalError("rank-n configuration of n+2 points must have a relation")
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


# ---------------------------------------------------------------------------
# convex polygons in Q^2

Point2 = tuple[Fraction, Fraction]


def _cross(o: Point2, a: Point2, b: Point2) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Sequence[Point2]) -> tuple[Point2, ...]:
    """Strict convex hull, CCW, starting at the lexicographic minimum.

    Degenerate inputs collapse to a segment (two vertices) or a point.
    """
    pts = sorted(set((Fraction(p[0]), Fraction(p[1])) for p in points))
    if len(pts) <= 2:
        return tuple(pts)
    lower: list[Point2] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point2] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear
        return (pts[0], pts[-1])
    return tuple(hull)


def upper_chain(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> list[int]:
    """Indices of the strict corners of the upper hull of (xs[k], ys[k]).

    Andrew's monotone chain over points given by strictly increasing x; a
    point on the segment between its neighbours is not a corner.
    """
    chain: list[int] = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        while len(chain) >= 2:
            x0, y0 = xs[chain[-2]], ys[chain[-2]]
            x1, y1 = xs[chain[-1]], ys[chain[-1]]
            # pop unless (x0,y0) -> (x1,y1) -> (x,y) turns strictly right
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) >= 0:
                chain.pop()
            else:
                break
        chain.append(k)
    return chain


def _shoelace_area(vertices: Sequence[Point2]) -> Fraction:
    s = Fraction(0)
    k = len(vertices)
    for i in range(k):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % k]
        s += x0 * y1 - x1 * y0
    return s / 2


@dataclass(frozen=True)
class Polygon2:
    """Convex polygon in Q^2 in canonical form.

    CCW vertex order starting at the lexicographic minimum, no three
    consecutive vertices collinear; degenerates to a segment, a point, or
    the empty polygon.
    """

    vertices: tuple[Point2, ...]

    @staticmethod
    def from_points(points: Iterable[Point2]) -> "Polygon2":
        pts = list(points)
        if not pts:
            return Polygon2(vertices=())
        return Polygon2(vertices=convex_hull_2d(pts))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def area(self) -> Fraction:
        if len(self.vertices) < 3:
            return Fraction(0)
        return _shoelace_area(self.vertices)

    def perimeter_l1(self) -> Fraction:
        """Taxicab perimeter; an exact upper bound for the Euclidean one."""
        k = len(self.vertices)
        if k < 2:
            return Fraction(0)
        total = Fraction(0)
        for i in range(k):
            x0, y0 = self.vertices[i]
            x1, y1 = self.vertices[(i + 1) % k]
            total += abs(x1 - x0) + abs(y1 - y0)
        return total

    def scaled(self, t) -> "Polygon2":
        t = rat(t)
        if t < 0:
            raise InputError("polygon scaling expects t >= 0")
        if t == 0:
            return Polygon2.from_points([(Fraction(0), Fraction(0))]) if self.vertices else self
        return Polygon2.from_points([(t * x, t * y) for x, y in self.vertices])


def _merge_start(vertices: tuple[Point2, ...]) -> int:
    """Index of the bottommost (then leftmost) vertex."""
    return min(range(len(vertices)), key=lambda i: (vertices[i][1], vertices[i][0]))


def _edge_cycle(poly: Polygon2) -> tuple[Point2, list[Point2]]:
    """Start vertex and CCW edge vectors beginning at the bottommost vertex."""
    vs = poly.vertices
    if len(vs) == 1:
        return vs[0], []
    start = _merge_start(vs)
    ordered = [vs[(start + i) % len(vs)] for i in range(len(vs))]
    if len(vs) == 2:
        a, b = ordered
        return a, [(b[0] - a[0], b[1] - a[1]), (a[0] - b[0], a[1] - b[1])]
    edges = []
    for i in range(len(ordered)):
        a, b = ordered[i], ordered[(i + 1) % len(ordered)]
        edges.append((b[0] - a[0], b[1] - a[1]))
    return ordered[0], edges


def _angle_less(u: Point2, v: Point2) -> bool:
    """Compare direction angles in [0, 2*pi) without transcendentals."""

    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return hu < hv
    return u[0] * v[1] - u[1] * v[0] > 0


def minkowski_sum(a: Polygon2, b: Polygon2) -> Polygon2:
    """Exact Minkowski sum of convex polygons via the edge-vector merge."""
    if a.is_empty or b.is_empty:
        return Polygon2(vertices=())
    sa, ea = _edge_cycle(a)
    sb, eb = _edge_cycle(b)
    cur = (sa[0] + sb[0], sa[1] + sb[1])
    out = [cur]
    i = j = 0
    while i < len(ea) or j < len(eb):
        if j >= len(eb):
            step = ea[i]
            i += 1
        elif i >= len(ea):
            step = eb[j]
            j += 1
        elif _angle_less(ea[i], eb[j]):
            step = ea[i]
            i += 1
        elif _angle_less(eb[j], ea[i]):
            step = eb[j]
            j += 1
        else:  # parallel edges advance together
            step = (ea[i][0] + eb[j][0], ea[i][1] + eb[j][1])
            i += 1
            j += 1
        cur = (cur[0] + step[0], cur[1] + step[1])
        out.append(cur)
    return Polygon2.from_points(out)


# ---------------------------------------------------------------------------
# fiber slices of 3-polytopes along the first axis

Point3 = tuple[Fraction, Fraction, Fraction]


def fiber_slice(vertices: Sequence[Point3], xi) -> Polygon2:
    """The (y, z) polygon {(y, z) : (xi, y, z) in conv(vertices)}.

    Computed as the hull of all cuts of pair segments [v_i, v_j] with
    x_i <= xi <= x_j; provably the true fiber of the hull. Empty when xi is
    outside the first-coordinate range.
    """
    xi = rat(xi)
    vs = [point(v) for v in vertices]
    if any(len(v) != 3 for v in vs):
        raise InputError("fiber_slice expects points of Q^3")
    if not vs:
        return Polygon2(vertices=())
    xs = [v[0] for v in vs]
    if xi < min(xs) or xi > max(xs):
        return Polygon2(vertices=())
    cuts: list[Point2] = [(v[1], v[2]) for v in vs if v[0] == xi]
    for u, w in itertools.combinations(vs, 2):
        if u[0] == w[0]:
            continue
        lo, hi = (u, w) if u[0] < w[0] else (w, u)
        if lo[0] <= xi <= hi[0]:
            t = (xi - lo[0]) / (hi[0] - lo[0])
            cuts.append((lo[1] + t * (hi[1] - lo[1]), lo[2] + t * (hi[2] - lo[2])))
    return Polygon2.from_points(cuts)


def fiber_polygon(vertices: Sequence[Point3]) -> Polygon2:
    """Minkowski integral of the first-axis fibers of conv(vertices).

    Between consecutive distinct first coordinates the fiber varies
    Minkowski-linearly, so each cell [xi0, xi1] contributes exactly
    ((xi1-xi0)/2) * fiber(xi0) + ((xi1-xi0)/2) * fiber(xi1).
    """
    vs = [point(v) for v in vertices]
    if not vs:
        raise InputError("fiber_polygon needs vertices")
    breaks = sorted(set(v[0] for v in vs))
    if len(breaks) == 1:
        return Polygon2.from_points([(Fraction(0), Fraction(0))])
    total = Polygon2.from_points([(Fraction(0), Fraction(0))])
    slices = {x: fiber_slice(vs, x) for x in breaks}
    for x0, x1 in zip(breaks, breaks[1:]):
        half = (x1 - x0) / 2
        cell = minkowski_sum(slices[x0].scaled(half), slices[x1].scaled(half))
        total = minkowski_sum(total, cell)
    return total


def fiber_polygon_grid_area(vertices: Sequence[Point3], cells: int) -> tuple[Fraction, Fraction]:
    """Grid-trapezoid approximation of area(fiber_polygon) with an error bound.

    Splits the first-coordinate range into `cells` uniform cells and sums the
    Minkowski trapezoids ((h/2) fiber(left) + (h/2) fiber(right)) without any
    knowledge of the true breakpoints. A cell free of breakpoints contributes
    exactly; each of the <= len(breaks) contaminated cells perturbs every
    support value by at most h * D, D the (y, z) diameter bound. With
    eps = (#breaks) * h * D the two polygons are within eps in support, so
    |area_true - area_grid| <= eps * perimeter(grid) + 10 * eps^2
    (two disc paddings, 3*pi <= 10). Returns (approximate area, rigorous
    bound); both exact rationals.
    """
    if cells < 1:
        raise InputError("grid oracle needs at least one cell")
    vs = [point(v) for v in vertices]
    xs = sorted(set(v[0] for v in vs))
    if len(xs) == 1:
        return Fraction(0), Fraction(0)
    lo, hi = xs[0], xs[-1]
    h = (hi - lo) / cells
    grid = [lo + h * k for k in range(cells + 1)]
    slices = [fiber_slice(vs, x) for x in grid]
    total = Polygon2.from_points([(Fraction(0), Fraction(0))])
    for k in range(cells):
        half = h / 2
        cell = minkowski_sum(slices[k].scaled(half), slices[k + 1].scaled(half))
        total = minkowski_sum(total, cell)
    ys = [v[1] for v in vs]
    zs = [v[2] for v in vs]
    diameter = (max(ys) - min(ys)) + (max(zs) - min(zs))
    eps = len(xs) * h * diameter
    bound = eps * total.perimeter_l1() + 10 * eps * eps
    return total.area(), bound
