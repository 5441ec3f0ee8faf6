"""Exact rational geometry: volumes, circuits, convex polygons, fiber slices.

Every result is an exact `fractions.Fraction` or integer; there is no
floating point anywhere, so equality tests are meaningful and results are
reproducible bit for bit.

Every hull is one monotone `_chain`. A Minkowski sum canonicalises its
angle-sorted walk in one pass, without a hull.

All linear algebra runs in integers, on rows cleared of denominators by
`clear_denominators`. Every determinant (oriented volumes, the minors of
`integer_normal`) is one `_int_det`: closed forms up to 2 x 2, else the last
pivot of `_bareiss`, Bareiss's fraction-free elimination, whose exact
divisions keep every entry a minor. Ranks count the pivots of `_bareiss`.
Every kernel is a vector of minors, with no back-substitution: a circuit is
the signed maximal minors of its points under a row of ones, in `_circuit`'s
normal form, and `solve_linear` reads x = N[:k] / N[k] off the minors N of [A | -b].
The lift, for every n, takes the coordinate volumes and one integer form per circuit once per config, a `LiftKernel`
(`PointConfig.lift_forms`), and `_oriented_scan` beside it reads each lifted height as a signed circuit form of the
cleared heights, each form summed at most once per lift; its minors are every simplex volume, orientation and circuit
of A (`volume`, `circuit`, the witness base `kronecker_base`). `check_lift_size` caps its forms and volume steps.
Tropical critical points, cone discovery and fiber polygons run on scaled
integers: a positive scale per coordinate keeps every sign, equality, hull
and edge-angle order, so only reported values become Fractions. `_fiber_sum` is the one fiber route: it cuts, hulls
and sums integer slices at one scale L with integer weights; `fiber_polygon` and `fiber_morse.area_P_bar` divide once.
`kronecker_point` is the one symbolic perturbation: cone witnesses and Morse gradients read z + eps off it.
`probe_polygon` reads a polytope of dimension <= 2 off a support oracle and a vertex oracle, with no hull.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InputError, InternalError, ResourceError

Point = tuple[Fraction, ...]
CIRCUIT_FORM_CAP = 500_000  # C(m, n + 2) forms: m <= 1000 at n = 0, 145 at n = 1, 60 at n = 2, 37 at n = 3
VOLUME_STEP_CAP = 25_000_000  # C(m, n + 1) n^3 steps: first binding at n = 6, m <= 20; m <= 33 at n = 30


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


def as_list(x, what: str = "value") -> list:
    """The entries of a list or tuple; any other input is an InputError."""
    if not isinstance(x, (list, tuple)):
        raise InputError(f"{what} must be a list, got {x!r}")
    return list(x)


def rat_str(q: Fraction | int) -> str:
    """Serialize an int or a Fraction, both in lowest terms: "p" for integers, else "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def point(coords) -> Point:
    return tuple(rat(c) for c in coords)


def rational_draws(seed, bound: int):
    """`draws(k)`: the next k pairs (randint(-bound, bound), randint(1, bound)) of `random.Random(seed)`.

    Read off `randint`'s rejection loop: a range of w integers draws its least plus the first
    `getrandbits(w.bit_length())` below w. Both seeded samplers, tropical and cone discovery, draw here.
    """
    getrandbits, w_p, w_q = random.Random(seed).getrandbits, 2 * bound + 1, bound
    k_p, k_q = w_p.bit_length(), w_q.bit_length()

    def draws(k: int) -> list[tuple[int, int]]:
        out = []
        for _ in range(k):
            while (p := getrandbits(k_p)) >= w_p:
                pass
            while (q := getrandbits(k_q)) >= w_q:
                pass
            out.append((p - bound, q + 1))
        return out

    return draws


# ---------------------------------------------------------------------------
# point configurations


def check_lift_size(n: int, m: int) -> None:
    """Refuse, before anything is allocated, a lift kernel over `CIRCUIT_FORM_CAP` forms or `VOLUME_STEP_CAP` steps."""
    if (forms := math.comb(max(m, 0), n + 2)) > CIRCUIT_FORM_CAP:  # a negative bare m is InputError's to refuse
        raise ResourceError(f"lift kernel capped at {CIRCUIT_FORM_CAP} circuit forms; m = {m} at n = {n} has {forms}")
    if (steps := math.comb(max(m, 0), n + 1) * n**3) > VOLUME_STEP_CAP:  # n^3 per n x n volume
        raise ResourceError(f"lift kernel capped at {VOLUME_STEP_CAP} volume steps; m = {m} at n = {n} has {steps}")


class LiftKernel(NamedTuple):
    """`PointConfig.lift_forms`, the lift's integer kernel, and its volume scale dx^n."""

    x: tuple[tuple[int, ...], ...]
    dx: int
    circuits: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    bases: dict[tuple[int, ...], tuple[int, ...]]
    vol: dict[tuple[int, ...], int]
    scale: int


@dataclass(frozen=True)
class PointConfig:
    """Ground set {1..m} together with its image points in Q^n.

    Kept with the config, no fields, so ignored by ==, hash and repr: here `lift_forms`, the lift's integer
    kernel, built on first use and refused above either cap of `check_lift_size`, and `kronecker_base`, its
    witnesses' base; in `secondary`, the last lift (`_lift`), the scan rows of the last
    integer heights lifted, keyed by them. The routes that share a lift run back to back, so one entry serves
    them and keeps one alive.
    """

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

    def volume(self, labels: Sequence[int]) -> int:
        """dx^n times the oriented volume of n + 1 distinct 1-based labels in the order given: V times its parity."""
        v = self.lift_forms.vol.get(tuple(sorted(i - 1 for i in labels)))
        if v is None:
            raise InputError(f"a simplex of A needs {self.n + 1} distinct labels in 1..{self.m}, got {labels!r}")
        return -v if sum(a > b for a, b in itertools.combinations(labels, 2)) % 2 else v

    def circuit(self, labels: Sequence[int]) -> Optional["CircuitData"]:
        """The `_circuit` of the minors (-1)^k V(C - c_k) of n + 2 distinct sorted labels C; None unless C spans Q^n."""
        c = sorted(i - 1 for i in labels)
        if len(c) != self.n + 2 or len(set(c)) != len(c) or not 0 <= c[0] <= c[-1] < self.m:
            raise InputError(f"a circuit of A needs {self.n + 2} distinct labels in 1..{self.m}, got {labels!r}")
        vol = self.lift_forms.vol
        return _circuit([(-1) ** k * vol[tuple(c[:k] + c[k + 1:])] for k in range(len(c))], [i + 1 for i in c])

    @functools.cached_property
    def lift_forms(self) -> LiftKernel:
        """The lift's integer kernel (x, dx, circuits, bases, vol, scale): the coordinates cleared by their lcm dx.

        Lift x_k to (x_k, z_k); V(S) is the integer volume of an (n+1)-subset
        S of the x. For a base B with V(B) != 0 and a label l off it, the
        height h_l = <N, P_l - P_b0> above the lifted base, N its normal with
        N_z > 0, is the circuit form sum_i (-1)^i V(C - c_i) z_ci of the sorted
        C = B + l (the determinant of the rows (1, x, z) of C expanded along
        z; GKZ 1994, ch. 7), signed so that z_l has the coefficient |V(B)|.
        `circuits` holds each (n+2)-subset C's form once, as its labels and nonzero
        coefficients (ks, cs), shared by the up to n + 2 bases of C. `bases` maps
        each B with V(B) != 0, 0-based, to a signed 1-based ref per label: +j or
        -j when h_l is form j or its negative, 0 on B. Both follow `itertools.combinations`.
        For n = 0 every point has volume 1 and the forms are z_a - z_b; for n = 1 they are
        the 3-point circuits. `vol` maps every sorted S to V(S): `volume` and `circuit` read it; `scale` is dx^n.
        Over either cap `check_lift_size` raises before anything is built. The form count bounds the C(m, n + 1) m
        ref slots too: (n + 2) m / (m - n - 1) per form, at most 2 (n + 2) once m >= 2 (n + 1).
        """
        n, m = self.n, self.m
        check_lift_size(n, m)
        flat, dx = clear_denominators([c for p in self.points for c in p])
        xs = tuple(tuple(flat[k * n:(k + 1) * n]) for k in range(m))
        vol = {s: _int_det([[a - b for a, b in zip(xs[k], xs[s[0]])] for k in s[1:]])
               for s in itertools.combinations(range(m), n + 1)}
        refs, circuits, signs = {s: [0] * m for s, v in vol.items() if v}, [], [(-1) ** i for i in range(n + 2)]
        for j, c in enumerate(itertools.combinations(range(m), n + 2), 1):
            ks, cs = [], []
            for i, l in enumerate(c):
                if a := vol[face := c[:i] + c[i + 1:]]:  # the base C - l has nonzero volume
                    ks.append(l)
                    cs.append(a * signs[i])
                    refs[face][l] = j if cs[-1] > 0 else -j
            circuits.append((tuple(ks), tuple(cs)))
        return LiftKernel(xs, dx, tuple(circuits), {s: tuple(r) for s, r in refs.items()}, vol, dx**n)

    @functools.cached_property
    def kronecker_base(self) -> int:
        """N, the power of 2 above 2 M, M the largest |V| of the kernel (`lift_forms`), built on first use.

        Every cone witness is `kronecker_point(z, N)` of integer heights z whose subdivision it is to refine. The scan
        (`_oriented_scan`, `secondary._generic_triangulation`) compares only a height h, a circuit form, with 0, and
        two heights h_a - h_b over one base B with each other. A form's coefficients are +-V of n + 1 of its points,
        so at most M, and h_a - h_b has +-V(B) on z_a and z_b and a difference of two on each label of B, so at most
        2 M < N. Neither is 0: h_l has |V(B)| != 0 on z_l, and h_a - h_b has it on z_a. So at `kronecker_point(z, N)`
        none is 0, each has its sign at z where that is not 0: it is generic, and its triangulation refines z's.
        """
        return 1 << (2 * max(map(abs, self.lift_forms.vol.values()))).bit_length()


def kronecker_point(z: Sequence[int], base: int) -> list[int]:
    """Z = base^m z + (base^(m-1), ..., base, 1) for integers z of length m: z + eps, eps_1 >> ... >> eps_m.

    For an integer linear form l with every |l_k| < base, l(Z) = base^m l(z) + sum_k l_k base^(m-1-k) has
    the sign of l(z), or where l(z) = 0 that of l's first nonzero coefficient, and is 0 only for l = 0
    (simulation of simplicity, Edelsbrunner-Mücke 1990).
    """
    m = len(z)
    top = base**m
    return [top * c + base ** (m - 1 - k) for k, c in enumerate(z)]


def _oriented_scan(config: PointConfig, zs: Sequence):
    """Upper cells from the circuit forms of `PointConfig.lift_forms`, for every n: the one lift.

    Takes the heights cleared to integers zs, at any positive scale. Yields
    (cell, base, heights h) once per cell and builds no Fraction; a base is
    an upper face when no h is positive, and `secondary.upper_cells` turns it into
    affine data. Circuit form j is summed at most
    once per call, when a base first reads ref +j or -j; `signed`, indexed by
    ref, keeps both signs, and signed[0] = 0 for a label on the base. A base
    stops at its first positive h and builds its heights only if it survives.
    `secondary._lift` keeps its triples for given heights; the seeded samplers stop at the first non-generic cell.
    """
    circuits, bases = config.lift_forms.circuits, config.lift_forms.bases
    signed, z = [None] * (2 * len(circuits) + 1), zs.__getitem__
    signed[0], seen = 0, set()
    for base, refs in bases.items():
        for r in refs:
            if (h := signed[r]) is None:
                ks, cs = circuits[abs(r) - 1]
                h = sum(map(operator.mul, cs, map(z, ks)))
                if r < 0:
                    h = -h
                signed[r], signed[-r] = h, -h
            if h > 0:  # a point lies above: not an upper face
                break
        else:
            heights = [signed[r] for r in refs]
            cell = tuple(i for i, h in enumerate(heights, 1) if h == 0)
            if cell not in seen:
                seen.add(cell)
                yield cell, base, heights


def make_config(n: int, points) -> PointConfig:
    return PointConfig(n=n, points=tuple(point(p) for p in points))


# ---------------------------------------------------------------------------
# exact linear algebra on small matrices


def clear_denominators(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers d * x for d the lcm of the denominators of xs, and d > 0."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _bareiss(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free row echelon form (Bareiss 1968) of an integer matrix, in place.

    Zero columns are skipped, pivots swapped up, and each lower row becomes
    (pivot * row - lead * pivot row) // previous pivot, exact by Sylvester's
    identity, so entry (r, pivots[r]) is a leading minor of the row-permuted
    matrix. Returns the pivot columns and the sign of the row permutation.
    """
    pivots: list[int] = []
    sign = prev = 1
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        p = next((i for i in range(top, len(a)) if a[i][col]), None)
        if p is None:
            continue
        if p != top:
            a[top], a[p] = a[p], a[top]
            sign = -sign
        head = a[top]
        piv = head[col]
        for row in a[top + 1:]:
            lead = row[col]
            row[col:] = [0] + [(piv * x - lead * y) // prev for x, y in zip(row[col + 1:], head[col + 1:])]
        prev = piv
        pivots.append(col)
    return pivots, sign


def _int_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: closed forms up to 2 x 2, else its last Bareiss pivot."""
    if not a:
        return 1
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    rows = [list(r) for r in a]
    pivots, sign = _bareiss(rows)
    return sign * rows[-1][-1] if len(pivots) == len(rows) else 0


def integer_normal(rows: Sequence[Sequence[int]]) -> list[int]:
    """The signed maximal minors N of a k x (k+1) integer matrix.

    N[j] is (-1)^j times the minor without column j, so <N, r> is the
    determinant of the matrix with r put on top (k = 2: the cross product).
    N is orthogonal to every row, and zero exactly when the rows are
    dependent. Minors up to 2 x 2 are closed forms; larger ones are the
    last pivot of `_bareiss`, O(k^3) each.
    """
    return [(-1) ** j * _int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(len(rows) + 1)]


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix: `_int_det` of its rows cleared to integers over the row scales."""
    cleared = [clear_denominators(r) for r in rows]
    return Fraction(_int_det([r for r, _ in cleared]), math.prod(d for _, d in cleared))


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: the `_bareiss` pivots of the rows each scaled to integers, transposed if tall (rank M^T = rank M)."""
    if rows and len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    return len(_bareiss([clear_denominators(r)[0] for r in rows])[0])


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve a square system exactly; None when singular.

    The minors N of [rows | -rhs], each row cleared, span its kernel, and
    N[k] is +-det(rows): the solution is N[:k] / N[k], singular when N[k] = 0.
    No library route calls it; it stays because the benchmark tracer binds it.
    """
    k = len(rows)
    normal = integer_normal([clear_denominators([*r, -b])[0] for r, b in zip(rows, rhs)])
    return [Fraction(v, normal[k]) for v in normal[:k]] if normal[k] else None


# ---------------------------------------------------------------------------
# volumes and ranks


def oriented_volume(vertices: Sequence[Point]) -> Fraction:
    """Lattice-normalized oriented volume det(v1-v0, ..., vk-v0), the `_det` of the edge rows.

    Takes k+1 points of Q^k; the empty 0-simplex in Q^0 has volume 1. Antisymmetric under vertex transpositions,
    zero iff affinely dependent. No library route calls it or `_det`; both stay because the benchmark tracer binds it.
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
    return matrix_rank(rows)


def lattice_volume(points: Sequence[Point]) -> Fraction:
    """Nonnegative lattice d-volume of the convex hull (d = ambient dim <= 2).

    0 when the hull is lower-dimensional; the hull of points in Q^0 has volume 1 (counting measure of the single
    point). No library route calls it; it stays because the benchmark tracer binds it.
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
        return 2 * Polygon2.from_points(points).area()
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


def _circuit(alpha: Sequence[int], labels: Sequence[int]) -> Optional[CircuitData]:
    """The circuit of an affine relation alpha of the labels' points, None when alpha is 0.

    Its one normal form, the same for any nonzero multiple of alpha: the positive side has fewer
    points, a tie goes to the side holding the least label, and the least positive coefficient is 1.
    """
    pos = [(l, a) for l, a in zip(labels, alpha) if a > 0]
    neg = [(l, -a) for l, a in zip(labels, alpha) if a < 0]
    if not pos:  # the coefficients sum to 0, so a nonzero relation has both signs
        return None
    if (len(neg), min(neg)[0]) < (len(pos), min(pos)[0]):
        pos, neg = neg, pos
    scale = min(c for _, c in pos)
    return CircuitData(positive=tuple((l, Fraction(c, scale)) for l, c in sorted(pos)),
                       negative=tuple((l, Fraction(c, scale)) for l, c in sorted(neg)),
                       zeros=tuple(sorted(l for l, a in zip(labels, alpha) if not a)))


def find_circuit(points: Sequence[Point], labels: Optional[Sequence[int]] = None) -> CircuitData:
    """Signed affine relation of n+2 points affinely spanning Q^n, labelled 1..n+2 unless given.

    The `_circuit` of the `integer_normal` of the cleared coordinates under a row of ones. No library route calls
    it, as a configuration's labels read theirs off the kernel (`PointConfig.circuit`); the benchmark tracer binds it.
    """
    if not points:
        raise InputError("find_circuit needs points")
    n = len(points[0])
    if len(points) != n + 2:
        raise InputError(f"find_circuit needs exactly {n + 2} points in Q^{n}")
    rows = [[1] * (n + 2)] + [clear_denominators([p[c] for p in points])[0] for c in range(n)]
    if (circuit := _circuit(integer_normal(rows), list(range(1, n + 3)) if labels is None else labels)) is None:
        raise InputError("points lie in a hyperplane; no unique circuit")
    return circuit


# ---------------------------------------------------------------------------
# convex polygons in Q^2

Point2 = tuple[Fraction, Fraction]


def _chain(xs: Sequence, ys: Sequence, order: Iterable[int]) -> list[int]:
    """Andrew's monotone chain (1979): the indices of `order` kept where each turn is strictly left."""
    out: list[int] = []
    for k in order:
        xk, yk = xs[k], ys[k]
        while len(out) >= 2:
            i, j = out[-2], out[-1]
            xi, yi = xs[i], ys[i]
            if (xs[j] - xi) * (yk - yi) - (ys[j] - yi) * (xk - xi) > 0:
                break
            out.pop()
        out.append(k)
    return out


def convex_hull_2d(points: Iterable[Point2]) -> tuple[Point2, ...]:
    """Strict convex hull, CCW, starting at the lexicographic minimum, of the points coerced by `rat`."""
    return _hull((rat(p[0]), rat(p[1])) for p in points)


def _hull(points: Iterable) -> tuple:
    """`convex_hull_2d` of exact coordinates (ints, rationals): the lower, then the upper `_chain`.

    Degenerate inputs collapse to a segment (two vertices) or a point.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    hull = _chain(xs, ys, range(len(pts)))[:-1] + _chain(xs, ys, reversed(range(len(pts))))[:-1]
    if len(hull) < 3:  # all collinear
        return (pts[0], pts[-1])
    return tuple(pts[k] for k in hull)


def upper_chain(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> list[int]:
    """Indices of the strict corners of the upper hull of (xs[k], ys[k]), by increasing x.

    For strictly increasing xs: `_chain` from right to left, where the upper
    hull turns left, then reversed. A point on the segment between its
    neighbours is not a corner.
    """
    return _chain(xs, ys, reversed(range(len(xs))))[::-1]


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
        return Polygon2(vertices=convex_hull_2d(points))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def area(self) -> Fraction:
        """Euclidean area by the shoelace formula, one `Fraction` for integer vertices; 0 below three vertices."""
        vs = self.vertices
        if len(vs) < 3:
            return Fraction(0)
        edges = zip(vs, vs[1:] + vs[:1])
        return Fraction(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges), 2)


def probe_polygon(value, vertex, d: int) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, int], int]]]:
    """The vertex ring and confirmed edges of an integer polytope spanning Z^d, d <= 2, read off two oracles.

    `value(nu)` is the support, max <p, nu> over the polytope, and `vertex(nu)` a vertex attaining it, both at
    integer nu of length d. The seeds are vertex calls at -e_1 and e_1, or one call at () when d = 0; they
    differ, as the span is Z^d, and at d <= 1 they are the answer, with no edges. Then each edge (a, b) of the
    CCW ring gets one value call at its primitive outer normal nu: a value equal to <nu, a> confirms it, and a
    larger one costs a vertex call, whose answer goes between a and b, as the vertices beyond the edge's line
    lie between its ends (Dobkin-Edelsbrunner-Yap, *Probing convex polytopes*, 1986). So a polygon of V
    vertices costs V vertex and 2V - 2 value calls. A value below <nu, a>, or a vertex off its value, is no
    support of the vertices found: `InternalError`.
    Returns the ring, and (nu, value) per confirmed edge in ring order.
    """
    if d == 0:
        return [vertex(())], []
    ring, edges, k = [vertex((sign,) + (0,) * (d - 1)) for sign in (-1, 1)], [], 0
    while d == 2 and k < len(ring):  # ring[k] -> ring[k + 1] is the first unconfirmed edge
        a, b = ring[k], ring[(k + 1) % len(ring)]
        g = math.gcd(b[1] - a[1], b[0] - a[0])
        nu = ((b[1] - a[1]) // g, (a[0] - b[0]) // g)
        top, edge = value(nu), nu[0] * a[0] + nu[1] * a[1]
        if top < edge:
            raise InternalError(f"the polygon's support is convex: value({nu}) = {top} is below {edge}, "
                                f"the value of its vertices {a} and {b}")
        if top == edge:
            edges.append((nu, top))
            k += 1
            continue
        c = vertex(nu)
        if nu[0] * c[0] + nu[1] * c[1] != top:
            raise InternalError(f"a vertex call attains its value: <{nu}, {c}> is not value({nu}) = {top}")
        ring.insert(k + 1, c)
    return ring, edges


def _angle_cmp(u, v) -> int:
    """-1, 0 or 1 as u's direction angle in [0, 2*pi) is below, at or above v's.

    Exact: the half-plane of each vector first, then the sign of the cross
    product, which orders two directions within one half-plane.
    """

    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return hu - hv
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def minkowski_sum(*polygons: Polygon2) -> Polygon2:
    """Exact Minkowski sum of convex polygons by one merge of all edge vectors.

    The sum's bottommost (then leftmost) vertex is the sum of the summands'
    ones; from there its boundary runs through every summand's edge vectors
    in angle order, parallel edges one after another (de Berg et al.,
    *Computational Geometry*, 2008, sec. 13.3). That walk is convex and in
    order, so it is canonicalised without a hull: the vertex between two
    parallel edges and the closing point are dropped, and the rest rotated
    to start at the lexicographic minimum. The walk's sums start at 0, so
    ints stay ints. No summands sum to the origin; an empty summand gives the
    empty polygon.
    """
    if any(p.is_empty for p in polygons):
        return Polygon2(vertices=())
    edges = []
    for p in polygons:
        vs = p.vertices
        if len(vs) > 1:
            edges += [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vs, vs[1:] + vs[:1])]
    bottoms = [min(p.vertices, key=lambda v: (v[1], v[0])) for p in polygons]
    cur = (sum(v[0] for v in bottoms), sum(v[1] for v in bottoms))
    out = [cur]
    walk = sorted(edges, key=functools.cmp_to_key(_angle_cmp))
    for edge, after in zip(walk, walk[1:]):  # the last edge closes the walk
        cur = (cur[0] + edge[0], cur[1] + edge[1])
        if _angle_cmp(edge, after):
            out.append(cur)
    k = out.index(min(out))
    return Polygon2(vertices=tuple(out[k:] + out[:k]))


# ---------------------------------------------------------------------------
# fiber slices of 3-polytopes along the first axis

Point3 = tuple[Fraction, Fraction, Fraction]


def _slice(vs: list, xi: int, scale: int) -> tuple:
    """`_hull` of scale times the fiber at xi of integer vertices, scale a multiple of every x gap across xi."""
    cuts = [(scale * y, scale * z) for x, y, z in vs if x == xi]  # then each segment across xi adds its cut
    right = [v for v in vs if v[0] > xi]
    for xl, yl, zl in vs:
        if xl < xi:
            for xh, yh, zh in right:
                q = scale // (xh - xl)
                a, b = q * (xh - xi), q * (xi - xl)  # a + b = scale, and scale * cut = a * lo + b * hi
                cuts.append((a * yl + b * yh, a * zl + b * zh))
    return _hull(cuts)


def _fiber_sum(vs: list) -> tuple[Polygon2, int]:
    """2L times `fiber_polygon` of integer vertices, and L: its `_slice`s at L weighted x_{k+1} - x_{k-1}, summed."""
    breaks = sorted({v[0] for v in vs})
    scale = math.lcm(*(hi - lo for k, lo in enumerate(breaks) for hi in breaks[k + 2:]))
    ends = [breaks[0], *breaks, breaks[-1]]
    slices = [(hi - lo, _slice(vs, x, scale)) for lo, x, hi in zip(ends, breaks, ends[2:])]
    return minkowski_sum(*(Polygon2(tuple((w * y, w * z) for y, z in hull)) for w, hull in slices if w)), scale


def fiber_polygon(vertices: Sequence[Point3]) -> Polygon2:
    """Minkowski integral of the first-axis fibers of conv(vertices).

    Between consecutive breakpoints x_0 < ... < x_K, the distinct first coordinates, the fiber varies
    Minkowski-linearly, so the cell [x_{k-1}, x_k] contributes exactly ((x_k - x_{k-1})/2) * (fiber(x_{k-1})
    + fiber(x_k)). Regrouped by breakpoint, the integral is one Minkowski sum of the slices fiber(x_k) weighted
    (x_{k+1} - x_{k-1})/2, the ends (x_1 - x_0)/2 and (x_K - x_{K-1})/2; a single breakpoint gives the origin.

    In integers: `_fiber_sum` of the vertices cleared by coordinate (scales dx, dy, dz), L the lcm of the x gaps
    that span a breakpoint, divided once by 2 dx L dy and 2 dx L dz. No library route calls it, as
    `fiber_morse.area_P_bar` sums its own fibers; it stays because the benchmark tracer binds it and
    `tests/test_acceptance.py` imports it.
    """
    vs = [point(v) for v in vertices]
    if any(len(v) != 3 for v in vs):
        raise InputError("fiber vertices must be points of Q^3")
    if not vs:
        raise InputError("fiber_polygon needs vertices")
    (xs, dx), (ys, dy), (zs, dz) = (clear_denominators([v[k] for v in vs]) for k in range(3))
    total, scale = _fiber_sum(list(zip(xs, ys, zs)))
    sy, sz = 2 * dx * scale * dy, 2 * dx * scale * dz
    return Polygon2(vertices=tuple((Fraction(y, sy), Fraction(z, sz)) for y, z in total.vertices))
