"""Regular subdivisions, 1D triangulations and walls, GKZ vectors, secondary support."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InternalError
from .exact_core import (
    CircuitData,
    PointConfig,
    Polygon2,
    convex_hull_2d,
    find_circuit,
    lattice_volume,
    rat,
    solve_linear,
    upper_chain,
)

Covector = tuple[Fraction, ...]

RANDOM_HEIGHT_BOUND = 10**4
WITNESS_RETRY_CAP = 64


def covector(config: PointConfig, values) -> Covector:
    vec = tuple(rat(v) for v in values)
    if len(vec) != config.m:
        raise InputError(f"covector length {len(vec)} does not match m = {config.m}")
    return vec


@dataclass(frozen=True)
class Subdivision:
    """Cells of a regular subdivision, canonically sorted label tuples."""

    n: int
    cells: tuple[tuple[int, ...], ...]

    @property
    def is_triangulation(self) -> bool:
        return all(len(c) == self.n + 1 for c in self.cells)

    def vertex_set(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*map(set, self.cells))))


@dataclass(frozen=True)
class UpperCell:
    """A full-dimensional upper cell with its affine data.

    `values` is gamma - L o A over the whole ground set; the cell is its
    maximizer set and `max_value` the attained maximum.
    """

    cell: tuple[int, ...]
    linear: tuple[Fraction, ...]
    max_value: Fraction
    values: tuple[Fraction, ...]

    @property
    def distinct_tail(self) -> bool:
        """Whether the values off the cell are pairwise distinct."""
        off = [v for i, v in enumerate(self.values, 1) if i not in self.cell]
        return len(off) == len(set(off))


@dataclass(frozen=True)
class SimplicialSupport:
    """Affine functional whose offset heights peak on exactly n+1 spanning points."""

    linear: tuple[Fraction, ...]
    max_value: Fraction
    maximizers: tuple[int, ...]
    generic: bool


@dataclass(frozen=True)
class CircuitalSupport:
    """Affine functional whose offset heights peak on exactly n+2 spanning points."""

    linear: tuple[Fraction, ...]
    max_value: Fraction
    maximizers: tuple[int, ...]
    circuit: CircuitData


def _values_under(config: PointConfig, gamma: Covector, linear) -> tuple[Fraction, ...]:
    n = config.n
    return tuple(
        gamma[i - 1] - sum(linear[c] * config.points[i - 1][c] for c in range(n))
        for i in range(1, config.m + 1)
    )


def _subset_fits(config: PointConfig, gamma: Covector):
    """(L, c) with gamma = L o A + c on each affinely independent (n+1)-subset."""
    n = config.n
    for base in itertools.combinations(range(1, config.m + 1), n + 1):
        sol = solve_linear(
            [list(config.image(i)) + [Fraction(1)] for i in base],
            [gamma[i - 1] for i in base],
        )
        if sol is not None:  # None: the base is affinely dependent
            yield tuple(sol[:n]), sol[n]


def upper_cells(config: PointConfig, gamma: Covector) -> tuple[UpperCell, ...]:
    """All full-dimensional upper cells of the lift i -> (A(i), gamma(i)).

    Every cell is the maximizer set of gamma - L o A for the unique affine
    functional L through its points; points lifted strictly below are
    excluded. The candidate functionals come from one pass per call:

    - n = 0: the constant max(gamma), whose cell is the argmax set;
    - n = 1: the edges of one strict monotone-chain upper hull (Andrew 1979)
      over the points sorted by coordinate; each cell holds every label on
      its edge, collinear ones included;
    - n >= 2: the affine functional through each affinely independent
      (n+1)-subset, kept when no point lies above it.
    """
    gamma = covector(config, gamma)
    if config.n == 0:
        fits = [((), max(gamma))]
    elif config.n == 1:
        order = _labels_by_coordinate(config)
        xs = [config.image(i)[0] for i in order]
        ys = [gamma[i - 1] for i in order]
        chain = upper_chain(xs, ys)
        fits = []
        for a, b in zip(chain, chain[1:]):
            slope = (ys[b] - ys[a]) / (xs[b] - xs[a])
            fits.append(((slope,), ys[a] - slope * xs[a]))
    else:
        fits = _subset_fits(config, gamma)
    out: dict[tuple[int, ...], UpperCell] = {}
    for linear, top in fits:
        values = _values_under(config, gamma, linear)
        if max(values) != top:  # a point lies above: not an upper face
            continue
        cell = tuple(i for i in range(1, config.m + 1) if values[i - 1] == top)
        if cell not in out:
            out[cell] = UpperCell(cell=cell, linear=linear, max_value=top, values=values)
    return tuple(sorted(out.values(), key=lambda c: c.cell))


def _is_generic_lift(n: int, cells: Sequence[UpperCell]) -> bool:
    return all(len(c.cell) == n + 1 and c.distinct_tail for c in cells)


def is_generic(config: PointConfig, gamma) -> bool:
    """Whether the heights induce a triangulation with generic simplicial supports.

    Checks exactly two things: every upper cell has n+1 points, so the
    subdivision is a triangulation and has no circuital support; and for
    each cell, a simplicial support, the values of gamma - L o A off the cell
    are pairwise distinct.
    """
    return _is_generic_lift(config.n, upper_cells(config, gamma))


def enumerate_simplicial(config: PointConfig, gamma) -> tuple[SimplicialSupport, ...]:
    """All affine supports maximized on exactly n+1 affinely spanning points.

    These are the upper cells of size n+1.
    """
    return tuple(
        SimplicialSupport(
            linear=c.linear, max_value=c.max_value, maximizers=c.cell, generic=c.distinct_tail
        )
        for c in upper_cells(config, gamma)
        if len(c.cell) == config.n + 1
    )


def enumerate_circuital(config: PointConfig, gamma) -> tuple[CircuitalSupport, ...]:
    """All affine supports maximized on exactly n+2 affinely spanning points.

    These are the upper cells of size n+2.
    """
    return tuple(
        CircuitalSupport(
            linear=c.linear,
            max_value=c.max_value,
            maximizers=c.cell,
            circuit=find_circuit(config.subset_points(c.cell), labels=list(c.cell)),
        )
        for c in upper_cells(config, gamma)
        if len(c.cell) == config.n + 2
    )


def regular_subdivision(config: PointConfig, gamma) -> Subdivision:
    """The regular subdivision induced by the heights gamma (upper convention)."""
    cells = tuple(c.cell for c in upper_cells(config, covector(config, gamma)))
    return Subdivision(n=config.n, cells=cells)


# ---------------------------------------------------------------------------
# 1D triangulations


def _labels_by_coordinate(config: PointConfig) -> list[int]:
    if config.n != 1:
        raise InputError("this operation needs a one-dimensional configuration")
    return sorted(range(1, config.m + 1), key=lambda i: config.image(i)[0])


def _chain_cells(ordered_vertices: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted((a, b))) for a, b in zip(ordered_vertices, ordered_vertices[1:])
    )


def enumerate_triangulations_1d(config: PointConfig) -> tuple[Subdivision, ...]:
    """All 2^(m-2) regular triangulations: vertex sets containing both extremes."""
    order = _labels_by_coordinate(config)
    first, last, interior = order[0], order[-1], order[1:-1]
    subs = []
    for r in range(len(interior) + 1):
        for chosen in itertools.combinations(interior, r):
            keep = [i for i in order if i == first or i == last or i in chosen]
            subs.append(Subdivision(n=1, cells=_chain_cells(keep)))
    return tuple(sorted(subs, key=lambda s: (len(s.vertex_set()), s.vertex_set())))


def gkz_vector(config: PointConfig, t: Subdivision) -> tuple[Fraction, ...]:
    """Per-point total volume of incident cells; zero on non-vertices."""
    if not t.is_triangulation:
        raise InputError("GKZ vectors are defined for triangulations")
    phi = [Fraction(0)] * config.m
    for cell in t.cells:
        vol = lattice_volume(config.subset_points(cell))
        for i in cell:
            phi[i - 1] += vol
    return tuple(phi)


# ---------------------------------------------------------------------------
# secondary support and the lifted-area polygon


def _refine_cell(config: PointConfig, cell: Sequence[int]) -> list[tuple[int, ...]]:
    """Deterministic simplicial refinement of one subdivision cell."""
    n = config.n
    cell = tuple(sorted(cell))
    if len(cell) == n + 1:
        return [cell]
    if n == 0:
        return [(cell[0],)]
    if n == 1:
        order = sorted(cell, key=lambda i: config.image(i)[0])
        return [tuple(sorted(p)) for p in zip(order, order[1:])]
    if n == 2:
        hull = convex_hull_2d(config.subset_points(cell))
        by_point = {config.image(i): i for i in cell}
        ring = [by_point[p] for p in hull]
        pivot = min(range(len(ring)), key=lambda k: ring[k])
        ring = ring[pivot:] + ring[:pivot]
        return [
            tuple(sorted((ring[0], ring[k], ring[k + 1])))
            for k in range(1, len(ring) - 1)
        ]
    raise InputError("cell refinement implemented for n <= 2")


def secondary_support(config: PointConfig, gamma) -> Fraction:
    """Support value of the secondary polytope at gamma.

    Computed as sum over a simplicial refinement of the induced subdivision
    of volume(simplex) * sum of heights at its vertices; the value does not
    depend on the refinement because gamma is affine on each cell.
    """
    gamma = covector(config, gamma)
    total = Fraction(0)
    for cell in upper_cells(config, gamma):
        for simplex in _refine_cell(config, cell.cell):
            vol = lattice_volume(config.subset_points(simplex))
            total += vol * sum(gamma[i - 1] for i in simplex)
    return total


def area_N(config: PointConfig, gamma) -> Fraction:
    """Euclidean area of conv({(a, 0)} union {(a, gamma(a))}) for gamma >= 0."""
    if config.n != 1:
        raise InputError("area_N needs a one-dimensional configuration")
    gamma = covector(config, gamma)
    if any(g < 0 for g in gamma):
        raise InputError("area_N needs nonnegative heights")
    pts = []
    for i in range(1, config.m + 1):
        a = config.image(i)[0]
        pts.append((a, Fraction(0)))
        pts.append((a, gamma[i - 1]))
    return Polygon2.from_points(pts).area()


# ---------------------------------------------------------------------------
# cone witnesses and walls (exact for n = 1)


def cone_witness(config: PointConfig, t: Subdivision, salt: int = 0) -> Covector:
    """A deterministic generic height vector inducing the triangulation t.

    Vertices sit on a concave parabola, non-vertices at small negative
    values strictly below every chord. Parabola heights alone tie two tail
    values whenever two vertex pairs share their coordinate sum, so a
    geometric jitter (prime ratio, shrinking amplitude) is applied until the
    genericity check passes.
    """
    if not t.is_triangulation:
        raise InputError("cone witnesses are built for triangulations")
    verts = set(t.vertex_set())
    if config.n != 1:
        raise InputError("deterministic witnesses implemented for n = 1")
    big = 1 + max(p[0] * p[0] for p in config.points)
    base = []
    for i in range(1, config.m + 1):
        a = config.image(i)[0]
        if i in verts:
            base.append(big - a * a)
        else:
            base.append(Fraction(i, config.m + 1) - 1)
    primes = (2, 3, 5, 7, 11, 13)
    for raw_attempt in range(WITNESS_RETRY_CAP):
        attempt = raw_attempt + salt
        if attempt == 0:
            jitter = {i: Fraction(0) for i in verts}
        else:
            r = primes[(attempt - 1) % len(primes)]
            amp = Fraction(1, 2 ** ((attempt - 1) // len(primes) + 1))
            jitter = {i: amp * Fraction(r**i, r**config.m) for i in verts}
        gamma = tuple(
            base[i - 1] + jitter.get(i, Fraction(0))
            for i in range(1, config.m + 1)
        )
        cells = upper_cells(config, gamma)
        if tuple(c.cell for c in cells) == t.cells and _is_generic_lift(config.n, cells):
            return gamma
    raise InternalError(f"no generic witness found for {t.cells} within the retry budget")


@dataclass(frozen=True)
class Wall:
    """Codimension-1 boundary between two adjacent full secondary cones."""

    left: Subdivision
    right: Subdivision
    witness: Covector
    direction: Covector
    circuit: CircuitData

    @property
    def moved(self) -> int:
        return next(i + 1 for i, d in enumerate(self.direction) if d != 0)


def _wall_between(config: PointConfig, t: Subdivision, j: int) -> Wall:
    order = [i for i in _labels_by_coordinate(config) if i in set(t.vertex_set())]
    pos = order.index(j)
    ln, rn = order[pos - 1], order[pos + 1]
    al, aj, ar = (config.image(i)[0] for i in (ln, j, rn))
    right = Subdivision(n=1, cells=_chain_cells([i for i in order if i != j]))
    direction = tuple(
        Fraction(1) if i == j else Fraction(0) for i in range(1, config.m + 1)
    )
    # moving gamma(j) onto the chord can tie off-cell values, so retry from
    # differently jittered cone witnesses until the circuit lemma's
    # hypotheses hold: exactly one circuital cell, and every cell, the
    # circuital one included, with pairwise distinct off-cell values. Without
    # the latter the wall defect is taken on a tail-order boundary and
    # differs from the lemma's closed form.
    for salt in range(WITNESS_RETRY_CAP):
        w0 = list(cone_witness(config, t, salt=salt))
        w0[j - 1] = w0[ln - 1] + (w0[rn - 1] - w0[ln - 1]) * (aj - al) / (ar - al)
        witness = tuple(w0)
        cells = upper_cells(config, witness)
        if sum(len(c.cell) == 3 for c in cells) != 1:
            continue
        if not all(c.distinct_tail for c in cells):
            continue
        return Wall(
            left=t,
            right=right,
            witness=witness,
            direction=direction,
            circuit=find_circuit(config.subset_points((ln, j, rn)), labels=[ln, j, rn]),
        )
    raise InternalError(f"no valid wall witness between {t.cells} and {right.cells}")


def enumerate_walls_1d(config: PointConfig) -> tuple[Wall, ...]:
    """One wall per (triangulation, interior vertex) pair, each listed once."""
    walls = []
    for t in enumerate_triangulations_1d(config):
        verts = [i for i in _labels_by_coordinate(config) if i in set(t.vertex_set())]
        for j in verts[1:-1]:
            walls.append(_wall_between(config, t, j))
    return tuple(sorted(walls, key=lambda w: (w.left.cells, w.moved)))


def discover_cones_random(
    config: PointConfig, samples: int, seed: int
) -> tuple[tuple[Subdivision, Covector], ...]:
    """Deduplicated (triangulation, generic witness) pairs from seeded heights."""
    if samples < 1:
        raise InputError("need at least one sample")
    rng = random.Random(seed)
    found: dict[tuple, tuple[Subdivision, Covector]] = {}
    bound = RANDOM_HEIGHT_BOUND
    for _ in range(samples):
        gamma = tuple(
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in range(config.m)
        )
        cells = upper_cells(config, gamma)
        key = tuple(c.cell for c in cells)
        if key not in found and _is_generic_lift(config.n, cells):
            found[key] = (Subdivision(n=config.n, cells=key), gamma)
    return tuple(found[key] for key in sorted(found))
