"""Basecondary functions: supports, orderings, evaluators, convexity machinery.

The function attached to a point configuration A and a set function F is
piecewise linear in the height vector; this module provides two independent
evaluation routes (a threshold sum over subdivision cells and the
simplicial-support expansion), the minimal convexifying multiple of the
secondary support, and reconstruction of the per-cone gradient
representation with an exact convexity certificate.

Gradients and wall defects are closed forms read off one lift, never
difference quotients. At a generic witness the expansion is a fixed sum of
F-differences times lifted simplex volumes, and each volume is linear in the
heights, so the gradient is the sum of the F-differences times the volumes'
height cofactors. The secondary support's gradient there is the GKZ vector
of the induced triangulation. Across a 1D wall whose witness has every tail
distinct, the wall defect is the lifted circuit volume times the circuit
expression in F.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, InternalError, ResourceError
from .exact_core import PointConfig, lattice_volume, oriented_volume, rat

# The supports and the genericity test live beside the lift in `secondary`;
# they are re-exported here as part of this module's interface.
from .secondary import (
    CircuitalSupport,
    Covector,
    SimplicialSupport,
    Wall,
    cone_witness,
    covector,
    discover_cones_random,
    enumerate_circuital,
    enumerate_simplicial,
    enumerate_triangulations_1d,
    enumerate_walls_1d,
    gkz_vector,
    is_generic,
    regular_subdivision,
    upper_cells,
    _is_generic_lift,
    _values_under,
)
from .setfun import SetFunction, evaluate_f

ORDER_CONE_CAP = 8


@dataclass(frozen=True)
class OrderedSupport:
    """Full arrangement of the ground set: head block first, then descending tail."""

    tuple: tuple[int, ...]
    head: int


@dataclass(frozen=True)
class PiecewiseLinearRep:
    """Per-cone (witness, gradient) pairs with an exact convexity certificate."""

    entries: tuple[tuple[Covector, tuple[Fraction, ...]], ...]
    certified: bool
    failure_witness: Optional[tuple[Covector, int, int]] = None

    @property
    def gradients(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(g for _, g in self.entries)


# ---------------------------------------------------------------------------
# supports and orderings


def _positive_orientation(config: PointConfig, labels: Sequence[int]) -> tuple[int, ...]:
    """Even-permutation representative with positive base orientation."""
    head = sorted(labels)
    if config.n == 0:
        return tuple(head)
    vol = oriented_volume(config.subset_points(head))
    if vol == 0:
        raise InternalError("support maximizers must span affinely")
    if vol < 0:
        head[-1], head[-2] = head[-2], head[-1]
    return tuple(head)


def _descending_tail(config: PointConfig, head, values) -> tuple[int, ...]:
    """Labels off the head by descending value, ties broken by label."""
    return tuple(
        sorted(
            (i for i in range(1, config.m + 1) if i not in head),
            key=lambda i: (-values[i - 1], i),
        )
    )


def order_simplicial(
    config: PointConfig, gamma, s: SimplicialSupport
) -> OrderedSupport:
    """Maximizers in positive orientation, then the tail strictly descending."""
    if not s.generic:
        raise InputError("ordering needs a generic simplicial support")
    gamma = covector(config, gamma)
    values = _values_under(config, gamma, s.linear)
    head = _positive_orientation(config, s.maximizers)
    return OrderedSupport(tuple=head + _descending_tail(config, head, values), head=config.n + 1)


def order_circuital(
    config: PointConfig, gamma, c: CircuitalSupport
) -> OrderedSupport:
    """Circuit-compatible arrangement validated by the double alternating sum.

    The head holds the positive side, the negative side, then the
    zero-coefficient members; among the arrangements satisfying the exact
    volume identities the lexicographically smallest is returned.
    """
    gamma = covector(config, gamma)
    values = _values_under(config, gamma, c.linear)
    off = [values[i - 1] for i in range(1, config.m + 1) if i not in c.maximizers]
    if len(off) != len(set(off)):
        raise InputError("tail values must be pairwise distinct to order a circuit")
    tail = _descending_tail(config, c.maximizers, values)
    circ = c.circuit
    pos = [i for i, _ in circ.positive]
    neg = [i for i, _ in circ.negative]
    zer = list(circ.zeros)
    n = config.n
    # hull of a circuit configuration = union of the simplices obtained by
    # dropping one positive-side point, with disjoint interiors
    target = sum(
        abs(oriented_volume(config.subset_points([j for j in c.maximizers if j != i])))
        for i in pos
    )
    best = None
    for pp in itertools.permutations(pos):
        for nn in itertools.permutations(neg):
            for zz in itertools.permutations(zer):
                head = list(pp) + list(nn) + list(zz)
                if best is not None and tuple(head) >= best:
                    continue
                if _circuit_identity_holds(config, head, len(pp), len(nn), target):
                    best = tuple(head)
    if best is None:
        raise InternalError("no arrangement satisfies the circuit volume identity")
    return OrderedSupport(tuple=best + tail, head=n + 2)


def _circuit_identity_holds(config, head, p, q, target) -> bool:
    first = Fraction(0)
    second = Fraction(0)
    for i in range(1, p + q + 1):  # 1-based position within the head
        rest = [head[k] for k in range(len(head)) if k != i - 1]
        vol = oriented_volume(config.subset_points(rest))
        if i <= p:
            first += vol if i % 2 == 0 else -vol
        else:
            second += vol if i % 2 == 1 else -vol
    return first == target and second == target


# ---------------------------------------------------------------------------
# the two evaluators


def _check_f(config: PointConfig, f: SetFunction):
    if f.m != config.m:
        raise InputError("set function and configuration disagree on m")
    if f.min_size > config.n:
        raise InputError("F must be defined on all sets of size >= n")


def eval_basecondary_general(config: PointConfig, f: SetFunction, gamma) -> Fraction:
    """Threshold-form evaluation, valid for arbitrary (also non-generic) heights.

    Per full-dimensional upper cell with offset heights v and maximum M:
    volume(cell) * sum over values c < M of (c - M) * (F{v >= c} - F{v > c}).
    Only subsets with more than n elements are ever queried.
    """
    _check_f(config, f)
    gamma = covector(config, gamma)
    total = Fraction(0)
    for cell in upper_cells(config, gamma):
        vol = lattice_volume(config.subset_points(cell.cell))
        if vol == 0:
            continue
        v = cell.values
        top = cell.max_value
        for c in sorted(set(v)):
            if c >= top:
                continue
            ge = frozenset(i for i in range(1, config.m + 1) if v[i - 1] >= c)
            gt = frozenset(i for i in range(1, config.m + 1) if v[i - 1] > c)
            total += vol * (c - top) * (evaluate_f(f, ge) - evaluate_f(f, gt))
    return total


def _expansion_summands(config: PointConfig, f: SetFunction, gamma: Covector):
    """(ordered simplex, F-difference) per nonzero summand at a generic height.

    The simplex is the cell's labels in positive base orientation followed
    by one tail label; tails are taken in descending value order.
    """
    cells = upper_cells(config, gamma)
    if not _is_generic_lift(config.n, cells):
        raise InputError("expansion needs a generic height vector; use the general evaluator")
    for cell in cells:
        head = _positive_orientation(config, cell.cell)
        prefix = set(head)
        prev = evaluate_f(f, prefix)
        for i in _descending_tail(config, head, cell.values):
            prefix.add(i)
            cur = evaluate_f(f, prefix)
            if prev != cur:
                yield head + (i,), prev - cur
            prev = cur


def expansion_terms(
    config: PointConfig, f: SetFunction, gamma
) -> tuple[tuple[tuple[int, ...], Fraction, Fraction], ...]:
    """Nonzero summands of the simplicial-support expansion at a generic height.

    Each term is (ordered simplex tuple, F-difference, lifted volume); the
    lifted volume is taken with maximizers first in positive base orientation
    and is positive for every genuine tail point.
    """
    _check_f(config, f)
    gamma = covector(config, gamma)
    lifted = {i: config.image(i) + (gamma[i - 1],) for i in range(1, config.m + 1)}
    return tuple(
        (simplex, diff, -oriented_volume([lifted[i] for i in simplex]))
        for simplex, diff in _expansion_summands(config, f, gamma)
    )


def eval_basecondary_generic(config: PointConfig, f: SetFunction, gamma) -> Fraction:
    """Simplicial-expansion evaluation; requires a generic height vector."""
    return sum(
        (diff * volume for _, diff, volume in expansion_terms(config, f, gamma)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# wall defects


def wall_defect_numeric(config: PointConfig, f: SetFunction, wall: Wall) -> Fraction:
    """Second difference of the basecondary function across the wall, per unit step.

    Computed by the circuit lemma: with I the wall circuit's labels and N the
    ground set, the defect is |vol(I lifted by wall.direction)| times
    sum over k in the circuit's support of F(I - k)
    - (|support| - 1) * F(I) - F(N).
    The lemma's hypotheses are that the witness carries exactly one circuital
    cell and that every cell's values off the cell are pairwise distinct;
    `enumerate_walls_1d` builds its witnesses to meet both. The name dates
    from the difference-quotient implementation and is kept because the
    benchmark tracer binds it.
    """
    _check_f(config, f)
    circ = wall.circuit
    labels = frozenset(circ.ordering)
    vol = abs(oriented_volume([config.image(i) + (wall.direction[i - 1],) for i in labels]))
    ground = frozenset(range(1, config.m + 1))
    expr = -(len(circ.support) - 1) * evaluate_f(f, labels) - evaluate_f(f, ground)
    for k in circ.support:
        expr += evaluate_f(f, labels - {k})
    return vol * expr


# ---------------------------------------------------------------------------
# gradients, convexifier, reconstruction


def gradient_on_cone(config: PointConfig, f: SetFunction, witness) -> tuple[Fraction, ...]:
    """Exact gradient of the basecondary function at a generic witness.

    Near a generic witness the expansion terms of `expansion_terms` keep
    their simplices and F-differences, and each lifted volume is linear in
    the heights, so the gradient is the sum over the terms of F-difference
    times d(volume)/d(gamma_k): the same volume with the simplex lifted by the
    unit heights e_k, a cofactor of the lifted simplex. Non-generic witnesses
    are refused with InputError.
    """
    witness = covector(config, witness)
    _check_f(config, f)
    grad = [Fraction(0)] * config.m
    for simplex, diff in _expansion_summands(config, f, witness):
        for k in simplex:
            unit_lift = [config.image(i) + (int(i == k),) for i in simplex]
            grad[k - 1] -= diff * oriented_volume(unit_lift)
    return tuple(grad)


def convexity_certificate(rep_or_entries) -> tuple[bool, Optional[tuple]]:
    """Pairwise support maximality: <g_j, w_j> >= <g_k, w_j> for all pairs.

    Returns (True, None) or (False, (witness_j, j, k)) for the first failing
    pair; with full cone coverage success certifies that the represented
    function is the support function of the convex hull of the gradients.
    """
    if isinstance(rep_or_entries, PiecewiseLinearRep):
        entries = rep_or_entries.entries
    else:
        entries = tuple(rep_or_entries)
    if not entries:
        raise InputError("certificate needs at least one entry")
    for j, (wj, gj) in enumerate(entries):
        own = sum(a * b for a, b in zip(gj, wj))
        for k, (_, gk) in enumerate(entries):
            if k == j:
                continue
            if sum(a * b for a, b in zip(gk, wj)) > own:
                return False, (wj, j, k)
    return True, None


def _order_cone_witnesses(config: PointConfig) -> list[Covector]:
    """Witnesses of the strict-order cones for a zero-dimensional configuration."""
    if config.m > ORDER_CONE_CAP:
        raise ResourceError(f"order-cone enumeration capped at m = {ORDER_CONE_CAP}")
    out = []
    for perm in itertools.permutations(range(1, config.m + 1)):
        gamma = [Fraction(0)] * config.m
        for rank, i in enumerate(perm):
            gamma[i - 1] = Fraction(config.m - rank)
        out.append(tuple(gamma))
    return out


def cone_witnesses(
    config: PointConfig, samples: Optional[int] = None, seed: Optional[int] = None
) -> tuple[Covector, ...]:
    """Generic witnesses covering the secondary cones (exact for n <= 1)."""
    if config.n == 0:
        return tuple(_order_cone_witnesses(config))
    if config.n == 1:
        return tuple(
            cone_witness(config, t) for t in enumerate_triangulations_1d(config)
        )
    if samples is None or seed is None:
        raise InputError("cone discovery for n >= 2 needs samples and a seed")
    return tuple(w for _, w in discover_cones_random(config, samples, seed))


@dataclass(frozen=True)
class MinConvexifier:
    value: Fraction
    exact: bool
    walls: tuple[tuple[tuple[int, ...], Fraction, Fraction], ...] = ()


def min_convexifier(
    config: PointConfig,
    f: SetFunction,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> MinConvexifier:
    """Smallest c >= 0 making the function wall-convex after adding c times
    the secondary support.

    Exact via wall enumeration for n = 1 (and via order cones for n = 0);
    for n >= 2 a lower bound over discovered cones, flagged not exact.
    For n = 1 each wall's basecondary defect is the circuit lemma of
    `wall_defect_numeric`, and the secondary support's defect is the jump
    gkz(left)[j] - gkz(right)[j] of the GKZ vectors at the moved label j.
    Otherwise the rows compare closed-form gradients (`gradient_on_cone`)
    and GKZ vectors at generic cone witnesses.
    """
    _check_f(config, f)
    if config.n == 1:
        rows = []
        best = Fraction(0)
        for wall in enumerate_walls_1d(config):
            d_f = wall_defect_numeric(config, f, wall)
            j = wall.moved - 1
            d_sec = gkz_vector(config, wall.left)[j] - gkz_vector(config, wall.right)[j]
            if d_sec <= 0:
                raise InternalError("secondary support must be strictly wall-convex")
            rows.append((wall.circuit.support, d_f, d_sec))
            if -d_f / d_sec > best:
                best = -d_f / d_sec
        return MinConvexifier(value=best, exact=True, walls=tuple(rows))
    witnesses = cone_witnesses(config, samples=samples, seed=seed)
    f_grads = [gradient_on_cone(config, f, w) for w in witnesses]
    s_grads = [gkz_vector(config, regular_subdivision(config, w)) for w in witnesses]
    best = Fraction(0)
    for j, wj in enumerate(witnesses):
        for k in range(len(witnesses)):
            if k == j:
                continue
            denom = sum((a - b) * c for a, b, c in zip(s_grads[j], s_grads[k], wj))
            numer = sum((a - b) * c for a, b, c in zip(f_grads[k], f_grads[j], wj))
            if denom > 0 and numer / denom > best:
                best = numer / denom
    return MinConvexifier(value=best, exact=config.n == 0)


def reconstruct_polytope(
    config: PointConfig,
    f: SetFunction,
    convexifier=0,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> PiecewiseLinearRep:
    """Per-cone gradients of the (optionally convexified) function.

    Each gradient is gradient_on_cone plus c times the GKZ vector at the
    cone witness. A failed certificate is a legitimate result describing a
    non-convex function, returned with the failing pair, never raised.
    """
    _check_f(config, f)
    c = rat(convexifier)
    entries = []
    seen_gradients = set()
    for w in cone_witnesses(config, samples=samples, seed=seed):
        g = gradient_on_cone(config, f, w)
        if c != 0:
            gkz = gkz_vector(config, regular_subdivision(config, w))
            g = tuple(a + c * b for a, b in zip(g, gkz))
        if g not in seen_gradients:
            seen_gradients.add(g)
            entries.append((w, g))
    ok, failure = convexity_certificate(entries)
    return PiecewiseLinearRep(
        entries=tuple(entries), certified=ok, failure_witness=failure
    )
