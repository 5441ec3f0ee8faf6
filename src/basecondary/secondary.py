"""Regular subdivisions, 1D triangulations and walls, GKZ vectors, secondary support.

Cells, supports, genericity and both `core` evaluators read one lift per height vector (GKZ 1994, ch. 7), `_lift`,
kept on the config. Its scan `_oriented_scan`, streamed by the samplers, and `kronecker_base` are `exact_core`'s.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, ResourceError
from .exact_core import (
    CircuitData, PointConfig, _hull, _oriented_scan, clear_denominators, integer_normal, kronecker_point,
    probe_polygon, rat, rational_draws,
)

Covector = tuple[Fraction, ...]

RANDOM_HEIGHT_BOUND = 10**4
TRIANGULATION_1D_CAP = 16


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


def _lift(config: PointConfig, zs: Sequence[int]) -> list:
    """`_oriented_scan`'s triples of zs, kept as the config's one last lift (`PointConfig`); callers never mutate a row."""
    key, kept = tuple(zs), vars(config)
    last = kept.get("last_lift")
    if last is None or last[0] != key:
        last = kept["last_lift"] = key, list(_oriented_scan(config, key))
    return last[1]


def upper_cells(config: PointConfig, gamma: Covector) -> tuple[UpperCell, ...]:
    """All full-dimensional upper cells of the lift i -> (A(i), gamma(i)).

    Every cell is the maximizer set of gamma - L o A for the unique affine
    functional L through its points; points lifted strictly below are
    excluded. A configuration that does not affinely span Q^n has no
    full-dimensional cell, so its result is empty.

    One pass for every n: an orientation test of every (n+1)-subset in
    integers (Fortune-Van Wyk 1996). Coordinates are scaled by the lcm dx of
    their denominators and heights by the lcm dz of theirs; both are
    positive, so the scaled lift has the same upper faces and the same
    coplanar points. The coordinate minors do not depend on the heights, so
    `PointConfig.lift_forms` takes them once per config: above each base of
    nonzero volume, the height h = <N, P - P0> of every lifted point P, N the
    base's integer normal turned so that N_z > 0, is a fixed integer
    combination of the cleared heights, a circuit form up to sign, and
    `_oriented_scan` sums each circuit's form at most once per lift. The base is an upper face's when no
    h > 0, and its cell is the points with h = 0: for n = 0 the argmax set,
    for n = 1 an edge of the upper chain with its collinear labels. Only then
    is N computed, by `integer_normal`: L = -dx N_x / (dz N_z), and
    gamma - L o A is its maximum plus h / (dz |N_z|).
    """
    gamma = covector(config, gamma)
    xs, dx = config.lift_forms.x, config.lift_forms.dx
    zs, dz = clear_denominators(gamma)
    cells = {}
    for cell, (b, *rest), heights in _lift(config, zs):
        normal = integer_normal([[a - c for a, c in zip(xs[k] + (zs[k],), xs[b] + (zs[b],))] for k in rest])
        slope, unit = Fraction(-dx, dz * normal[-1]), Fraction(1, dz * abs(normal[-1]))
        linear = tuple(slope * c for c in normal[:-1])
        top = gamma[b] - sum(x * a for x, a in zip(linear, config.points[b]))
        values = tuple(top + unit * h if h else top for h in heights)
        cells[cell] = UpperCell(cell=cell, linear=linear, max_value=top, values=values)
    return tuple(sorted(cells.values(), key=lambda c: c.cell))


def _generic_triangulation(config: PointConfig, scan):
    """{cell: scan heights h by label - 1} of a lift's scan when it passes `is_generic`, else None.

    Takes `_oriented_scan`'s triples, of heights cleared to integers at any
    positive scale: a kept `_lift`, or the stream itself, which stops at the
    first failing cell. It builds no affine data: a cell's values are its maximum plus
    h / (dz |N_z|), so they are distinct, and descend, exactly where the h
    do. A configuration that does not span is generic with no cells: {}.
    """
    cells, size, free = {}, config.n + 1, config.m - config.n
    for cell, _, heights in scan:
        if len(cell) != size or len(set(heights)) != free:
            return None
        cells[cell] = heights
    return dict(sorted(cells.items()))


def is_generic(config: PointConfig, gamma) -> bool:
    """Whether the heights induce a triangulation with generic simplicial supports.

    Checks exactly two things: every upper cell has n+1 points, so the
    subdivision is a triangulation and has no circuital support; and for
    each cell, a simplicial support, the values of gamma - L o A off the cell
    are pairwise distinct.
    """
    return _generic_triangulation(config, _lift(config, clear_denominators(covector(config, gamma))[0])) is not None


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

    These are the upper cells of size n+2, each with its `PointConfig.circuit`.
    """
    return tuple(
        CircuitalSupport(
            linear=c.linear,
            max_value=c.max_value,
            maximizers=c.cell,
            circuit=config.circuit(c.cell),
        )
        for c in upper_cells(config, gamma)
        if len(c.cell) == config.n + 2
    )


def regular_subdivision(config: PointConfig, gamma) -> Subdivision:
    """The regular subdivision induced by the heights gamma (upper convention)."""
    zs = clear_denominators(covector(config, gamma))[0]
    return Subdivision(n=config.n, cells=tuple(sorted(c for c, _, _ in _lift(config, zs))))


# ---------------------------------------------------------------------------
# 1D triangulations


def _labels_by_coordinate(config: PointConfig) -> list[int]:
    if config.n != 1:
        raise InputError("this operation needs a one-dimensional configuration")
    return sorted(range(1, config.m + 1), key=lambda i: config.image(i)[0])


def _chain_cells(ordered_vertices: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cells between consecutive vertices, label-sorted as `upper_cells` lists them."""
    return tuple(sorted(tuple(sorted(e)) for e in zip(ordered_vertices, ordered_vertices[1:])))


def enumerate_triangulations_1d(config: PointConfig) -> tuple[Subdivision, ...]:
    """All 2^(m-2) regular triangulations: vertex sets containing both extremes; m is capped."""
    order = _labels_by_coordinate(config)
    if config.m > TRIANGULATION_1D_CAP:
        raise ResourceError(f"1D triangulation enumeration capped at m = {TRIANGULATION_1D_CAP}")
    first, last, interior = order[0], order[-1], order[1:-1]
    subs = []
    for r in range(len(interior) + 1):
        for chosen in itertools.combinations(interior, r):
            keep = [i for i in order if i == first or i == last or i in chosen]
            subs.append(Subdivision(n=1, cells=_chain_cells(keep)))
    return tuple(sorted(subs, key=lambda s: (len(s.vertex_set()), s.vertex_set())))


def _gkz_ints(config: PointConfig, simplices) -> list[int]:
    """dx^n times the GKZ vector: per point, the total |V(simplex)| (`PointConfig.volume`) of incident simplices."""
    phi = [0] * config.m
    for cell in simplices:
        vol = abs(config.volume(cell))
        for i in cell:
            phi[i - 1] += vol
    return phi


def gkz_vector(config: PointConfig, t: Subdivision) -> tuple[Fraction, ...]:
    """Per-point total volume |V(cell)| / dx^n of incident cells (`_gkz_ints`); zero on non-vertices."""
    if not t.is_triangulation:
        raise InputError("GKZ vectors are defined for triangulations")
    return tuple(Fraction(v, config.lift_forms.scale) for v in _gkz_ints(config, t.cells))


# ---------------------------------------------------------------------------
# secondary support and the lifted-area polygon


def _refine_cell(config: PointConfig, cell: Sequence[int]) -> list[tuple[int, ...]]:
    """Deterministic simplicial refinement of one cell; at n = 2 a fan over the `_hull` of its coordinates x * dx."""
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
        xs = config.lift_forms.x
        by_point = {xs[i - 1]: i for i in cell}  # dx > 0 keeps the hull ring and its start
        ring = [by_point[p] for p in _hull(by_point)]
        pivot = min(range(len(ring)), key=lambda k: ring[k])
        ring = ring[pivot:] + ring[:pivot]
        return [
            tuple(sorted((ring[0], ring[k], ring[k + 1])))
            for k in range(1, len(ring) - 1)
        ]
    raise InputError("cell refinement implemented for ambient dimension <= 2")


def _pairing(config: PointConfig, zs: Sequence[int]) -> int:
    """dx^n <phi_T, zs> at integer heights: the `_gkz_ints` of T, the `_refine_cell` simplices of their `_lift`."""
    phi = _gkz_ints(config, (s for cell, _, _ in _lift(config, zs) for s in _refine_cell(config, cell)))
    return sum(map(operator.mul, phi, zs))


def secondary_support(config: PointConfig, gamma) -> Fraction:
    """Support value of the secondary polytope at gamma: <phi_T, gamma> (GKZ 1994).

    phi_T is the `gkz_vector` of T, the simplicial refinement of the induced
    subdivision by `_refine_cell`; the value does not depend on the
    refinement because gamma is affine on each cell. In integers: the
    `_pairing` of gamma cleared by dz, over dx^n dz.
    """
    zs, dz = clear_denominators(covector(config, gamma))
    return Fraction(_pairing(config, zs), dz * config.lift_forms.scale)


def area_N(config: PointConfig, gamma) -> Fraction:
    """Euclidean area of conv({(a, 0)} union {(a, gamma(a))}) for gamma >= 0."""
    if config.n != 1:
        raise InputError("area_N needs a one-dimensional configuration")
    gamma = covector(config, gamma)
    if any(g < 0 for g in gamma):
        raise InputError("area_N needs nonnegative heights")
    return secondary_support(config, gamma) / 2  # the region under the lift's upper chain


# ---------------------------------------------------------------------------
# cone witnesses and walls (exact for n = 1)


def cone_witness(config: PointConfig, t: Subdivision) -> Covector:
    """A positive generic integer height vector inducing the triangulation t, with no scan and no retry.

    The heights big + 1 - x^2 on t's vertices (big = 1 + max x^2, so each is at least 2) and i / (m + 1)
    on each other label i, cleared to integers z, induce t: the vertices lie on a strictly concave parabola,
    and a non-vertex lies below every line through two vertices, which is at least 2 over the vertices' span.
    So over each cell of t every other lifted height h < 0, and over every other base some h > 0: z's
    subdivision is t, a triangulation, and the witness `kronecker_point(z, config.kronecker_base)` induces t
    and is generic (`PointConfig.kronecker_base`).
    """
    order = _labels_by_coordinate(config)
    verts = set(t.vertex_set())
    chain = [i for i in order if i in verts]
    if chain[:1] + chain[-1:] != [order[0], order[-1]] or _chain_cells(chain) != t.cells:
        raise InputError(f"{t.cells} is not a triangulation of the configuration")
    big = 1 + max(p[0] * p[0] for p in config.points)
    z = clear_denominators([big + 1 - p[0] * p[0] if i in verts else Fraction(i, config.m + 1)
                            for i, p in enumerate(config.points, 1)])[0]
    return tuple(map(Fraction, kronecker_point(z, config.kronecker_base)))


@dataclass(frozen=True)
class Wall:
    """Codimension-1 boundary between two adjacent full secondary cones.

    `direction` is the unit vector at the moved label, pointing into `left`'s
    cone; `circuit` is that label with its two neighbours in `left`.
    """

    left: Subdivision
    right: Subdivision
    direction: Covector
    circuit: CircuitData

    @property
    def moved(self) -> int:
        return next(i + 1 for i, d in enumerate(self.direction) if d != 0)


def enumerate_walls_1d(config: PointConfig) -> tuple[Wall, ...]:
    """One wall per (triangulation t, interior vertex j) pair, read off t with no lift.

    In one dimension every wall of the secondary fan is a circuit flip (GKZ
    1994; De Loera-Rambau-Santos, *Triangulations*, 2010): the wall of (t, j)
    has t on one side, t without j on the other, and the circuit of j with
    its neighbours ln, rn in t. Walls are sorted by t's cells, then by j.
    """
    walls = []
    for t in enumerate_triangulations_1d(config):
        verts = sorted(t.vertex_set(), key=lambda i: config.image(i)[0])
        for ln, j, rn in zip(verts, verts[1:], verts[2:]):
            walls.append(Wall(
                left=t,
                right=Subdivision(n=1, cells=_chain_cells([i for i in verts if i != j])),
                direction=tuple(Fraction(int(i == j)) for i in range(1, config.m + 1)),
                circuit=config.circuit((ln, j, rn)),
            ))
    return tuple(sorted(walls, key=lambda w: (w.left.cells, w.moved)))


def polygon_cones(config: PointConfig) -> tuple[tuple[Subdivision, Covector], ...]:
    """Every (triangulation, generic witness) pair of a configuration spanning Q^2 with m <= 5, with no sampling.

    Its secondary polytope has dimension m - 3 <= 2, and `probe_polygon` reads it off two integer calls at
    the heights z that are nu off B, the first base of `PointConfig.lift_forms`, and 0 on B. The polytope's
    points p satisfy sum_i p_i (1, a_i) = const, and the (1, a_i) of B are a basis, so the coordinates off B
    fix p: the polygon is the projection of dx^2 times the polytope there, whose support at nu is the
    secondary support at z. The value call is that support, the `_pairing` of z. The vertex call is
    `_generic_triangulation` at the witness Z = `kronecker_point(z, config.kronecker_base)`, and its
    `_gkz_ints` off B. Z is generic and its triangulation refines z's subdivision (`config.kronecker_base`), so its
    GKZ vector is a vertex maximizing <., z>. Pairs are sorted by cells, as `discover_cones_random` sorts them.
    """
    off = [k for k in range(config.m) if k not in next(iter(config.lift_forms.bases))]
    big, found = config.kronecker_base, {}

    def heights(nu):
        spot = dict(zip(off, nu))
        return [spot.get(k, 0) for k in range(config.m)]

    def vertex(nu):
        witness = kronecker_point(heights(nu), big)
        cells = tuple(_generic_triangulation(config, _oriented_scan(config, witness)))
        phi = _gkz_ints(config, cells)
        found[p := tuple(phi[k] for k in off)] = Subdivision(n=2, cells=cells), tuple(map(Fraction, witness))
        return p

    ring, _ = probe_polygon(lambda nu: _pairing(config, heights(nu)), vertex, len(off))
    return tuple(sorted((found[p] for p in ring), key=lambda pair: pair[0].cells))


def discover_cones_random(
    config: PointConfig, samples: int, seed: int
) -> tuple[tuple[Subdivision, Covector], ...]:
    """Deduplicated (triangulation, generic witness) pairs from seeded heights.

    Each sample draws, label by label, p = randint(-bound, bound) and then
    q = randint(1, bound) off `rational_draws`, as the tropical sampler does,
    for the height p/q. `_generic_triangulation` classifies the integers
    p * lcm(q) / q, which need no clearing: a positive scale keeps every
    verdict. A witness is built as `Fraction`s only for a new triangulation.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    draw = rational_draws(seed, RANDOM_HEIGHT_BOUND)
    found: dict[tuple, tuple[Subdivision, Covector]] = {}
    for _ in range(samples):
        draws = draw(config.m)
        d = math.lcm(*(q for _, q in draws))
        cells = _generic_triangulation(config, _oriented_scan(config, [p * (d // q) for p, q in draws]))
        if cells is not None and (key := tuple(cells)) not in found:
            found[key] = (Subdivision(n=config.n, cells=key), tuple(Fraction(p, q) for p, q in draws))
    return tuple(found[key] for key in sorted(found))
