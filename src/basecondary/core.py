"""Basecondary functions: supports, orderings, evaluators, convexity machinery.

The function attached to a point configuration A and a set function F is
piecewise linear in the height vector; this module provides two independent
evaluation routes, a threshold sum over subdivision cells and the
simplicial-support expansion, both summed in integers off the lift's scan
heights and F cleared to integers (Fortune-Van Wyk 1996), and at one gamma
reading one lift, which the configuration keeps (`secondary._lift`); the minimal
convexifying multiple of the secondary support; and reconstruction of the
per-cone gradient representation with an exact convexity certificate: at n = 0 the
cones are label orders, walked once for their greedy vertices (Edmonds 1970) and
certified by the submodularity of one set function (Lovász 1983).

Gradients and wall defects are closed forms read off one lift, never
difference quotients. At a generic witness the expansion is a fixed sum of
F-differences times lifted simplex volumes, each a circuit form linear in the
heights, so the gradient is the sum of the F-differences times the tail
labels' form coefficients. The secondary support's gradient there is the GKZ
vector of the induced triangulation. At a point of a 1D wall where every tail is
distinct, the wall defect is the lifted circuit volume times the circuit
expression in F.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, ResourceError
from .exact_core import PointConfig, clear_denominators, rat

# The supports and the genericity test live beside the lift in `secondary`;
# they are re-exported here as part of this module's interface. The expansion
# reads its cells and tails off the genericity scan, `_generic_triangulation`.
from .secondary import (
    CircuitalSupport,
    Covector,
    SimplicialSupport,
    Subdivision,
    Wall,
    _generic_triangulation,
    _lift,
    _refine_cell,
    cone_witness,
    covector,
    discover_cones_random,
    enumerate_circuital,
    enumerate_simplicial,
    enumerate_triangulations_1d,
    gkz_vector,
    is_generic,
    polygon_cones,
)
from .setfun import BASE_POLYTOPE_CAP, SetFunction, circuit_condition_check, circuit_value, greedy_vertex, is_submodular_above


@dataclass(frozen=True)
class OrderedSupport:
    """Full arrangement of the ground set: head block first, then descending tail."""

    tuple: tuple[int, ...]
    head: int


@dataclass(frozen=True)
class PiecewiseLinearRep:
    """Per-cone (witness, gradient) pairs, certified convex: pairwise for n >= 1; n = 0 cones are label orders."""

    entries: tuple[tuple[Covector, tuple[Fraction, ...]], ...]
    certified: bool
    failure_witness: Optional[tuple[Covector, int, int]] = None

    @property
    def gradients(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(g for _, g in self.entries)

    @classmethod
    def certify(cls, pairs) -> "PiecewiseLinearRep":
        """The first (witness, gradient) pair of each distinct gradient, with its `convexity_certificate`.

        A failed certificate is a legitimate result describing a non-convex
        function, returned with the failing pair, never raised.
        """
        first = {}
        for w, g in pairs:
            first.setdefault(g, (w, g))
        entries = tuple(first.values())
        ok, failure = convexity_certificate(entries)
        return cls(entries=entries, certified=ok, failure_witness=failure)


# ---------------------------------------------------------------------------
# supports and orderings


def _positive_orientation(config: PointConfig, labels: Sequence[int]) -> tuple[int, ...]:
    """Even-permutation representative with positive base orientation: `PointConfig.volume` > 0 (!= 0 on a cell)."""
    head = sorted(labels)
    if config.volume(head) < 0:
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


def _cell_heights(config: PointConfig, gamma, maximizers, tie: str) -> list[int]:
    """The kept lift's scan heights (`secondary._lift`) of the upper cell `maximizers` at gamma, by label - 1.

    On a cell, h is gamma - L o A less its maximum times a positive scale, so it orders and ties the tail alike.
    Maximizers that are no upper cell at gamma are refused, and tail heights that tie (`_generic_triangulation`).
    """
    cell = tuple(sorted(maximizers))
    zs = clear_denominators(covector(config, gamma))[0]
    heights = next((h for c, _, h in _lift(config, zs) if c == cell), None)
    if heights is None:
        raise InputError(f"support maximizers {list(cell)} are not an upper cell at gamma")
    if len(set(heights)) != config.m - len(cell) + 1:
        raise InputError(tie)
    return heights


def order_simplicial(config: PointConfig, gamma, s: SimplicialSupport) -> OrderedSupport:
    """Maximizers in positive orientation, then the tail strictly descending, read off the lift at gamma."""
    heights = _cell_heights(config, gamma, s.maximizers, "ordering needs a generic simplicial support")
    head = _positive_orientation(config, s.maximizers)
    return OrderedSupport(tuple=head + _descending_tail(config, head, heights), head=config.n + 1)


def order_circuital(config: PointConfig, gamma, c: CircuitalSupport) -> OrderedSupport:
    """The lexicographically smallest arrangement satisfying the double alternating sum.

    The head holds the positive side, the negative side, then the
    zero-coefficient members. By Cramer's rule the volume of the head
    without position i is (-1)^i * lam * alpha_i for the circuit's
    coefficients alpha and one scalar lam, and the identities hold exactly
    when lam > 0, that is, when the head without its first (positive-side)
    label has negative volume. Then the answer is the circuit ordering, each
    side sorted by label; else it swaps the last two labels of the last
    block of two or more members (a circuit of distinct points has one),
    which turns the sign of lam. The tail descends by the lift's heights at
    gamma, as `order_simplicial`'s does. An n = 0 circuit, two points of
    Q^0, has no orientation, and is refused.
    """
    if config.n == 0:
        raise InputError("circuit orderings need n >= 1; an n = 0 circuit has no orientation")
    heights = _cell_heights(config, gamma, c.maximizers, "tail values must be pairwise distinct to order a circuit")
    tail = _descending_tail(config, c.maximizers, heights)
    circ = c.circuit
    head = list(circ.ordering)
    if config.volume(head[1:]) > 0:
        sizes = (circ.p, circ.q, len(circ.zeros))
        for end, size in reversed(list(zip(itertools.accumulate(sizes), sizes))):
            if size >= 2:
                head[end - 2], head[end - 1] = head[end - 1], head[end - 2]
                break
    return OrderedSupport(tuple=tuple(head) + tail, head=config.n + 2)


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
    volume(cell) * sum over values c < M of (c - M) * (F{v >= c} - F{v > c}),
    read off the lift's integer heights h = dz |V(B)| (v - M) (`_lift`)
    and F in integers (`SetFunction.cleared`), with one Fraction per call.
    Sorted by descending h, each {v >= c} is a prefix, so a cell with k levels
    below M makes k + 1 queries of F, none when k = 0. The sets are chosen by
    value, not by the tail order of the generic evaluator, which stays an
    independent check; only sets of more than n labels are queried.

    By parts: F{h >= c} weighs c minus the next level down, and F of every
    label the lowest. A simplex's volume |V(B)| / dx^n cancels the |V(B)| in
    h; another cell scales by the sum of |V| over `_refine_cell`, over |V(B)|.
    """
    _check_f(config, f)
    zs, dz = clear_denominators(covector(config, gamma))
    (value, d), total = f.cleared, 0
    for cell, base, heights in _lift(config, zs):
        s, mask, level = 0, 0, 0
        for k in sorted(range(config.m), key=heights.__getitem__, reverse=True):
            if heights[k] != level:  # mask is {h >= level}
                s += (level - heights[k]) * value(mask)
                level = heights[k]
            mask |= 1 << k
        if level:  # else every label is on the top level: no term
            s += level * value(mask)
            if len(cell) > config.n + 1:
                s *= Fraction(sum(abs(config.volume(t)) for t in _refine_cell(config, cell)),
                              abs(config.volume([j + 1 for j in base])))
            total += s
    return total * Fraction(1, d * dz * config.lift_forms.scale)


def _expansion_summands(config: PointConfig, f: SetFunction, gamma: Covector):
    """([(ordered simplex, dF, -h)], d, dx^n dz) for the nonzero summands at a generic height.

    A summand is dF / d (`SetFunction.cleared`) times the lifted volume
    -h / (dx^n dz). The simplex is the cell's labels in positive base
    orientation and one tail label, by descending h.
    """
    _check_f(config, f)
    zs, dz = clear_denominators(gamma)
    cells = _generic_triangulation(config, _lift(config, zs))
    if cells is None:
        raise InputError("expansion needs a generic height vector; use the general evaluator")
    value, d = f.cleared
    terms = []
    for cell, heights in cells.items():
        head = _positive_orientation(config, cell)
        mask = sum(1 << i - 1 for i in head)
        prev = value(mask)
        for i in _descending_tail(config, head, heights):
            mask |= 1 << i - 1
            cur = value(mask)
            if prev != cur:
                terms.append((head + (i,), prev - cur, -heights[i - 1]))
            prev = cur
    return terms, d, config.lift_forms.scale * dz


def expansion_terms(
    config: PointConfig, f: SetFunction, gamma
) -> tuple[tuple[tuple[int, ...], Fraction, Fraction], ...]:
    """Nonzero summands of the simplicial-support expansion at a generic height.

    Each term is (ordered simplex tuple, F-difference, lifted volume). With
    maximizers first in positive base orientation, the volume is -h / (dx^n dz),
    positive for every genuine tail point, h the tail label's scan height.
    """
    terms, d, s = _expansion_summands(config, f, covector(config, gamma))
    return tuple((simplex, Fraction(df, d), Fraction(v, s)) for simplex, df, v in terms)


def eval_basecondary_generic(config: PointConfig, f: SetFunction, gamma) -> Fraction:
    """Simplicial-expansion evaluation; requires a generic height vector. Sums dF * (-h) in integers."""
    terms, d, s = _expansion_summands(config, f, covector(config, gamma))
    return Fraction(sum(df * v for _, df, v in terms), d * s)


# ---------------------------------------------------------------------------
# wall defects


def wall_defect_numeric(config: PointConfig, f: SetFunction, wall: Wall) -> Fraction:
    """Second difference of the basecondary function across the wall, per unit step.

    Computed by the circuit lemma: |vol(I lifted by wall.direction)| times
    `circuit_value` of the wall circuit, with I the circuit's labels. The
    direction is the unit vector at the moved label j, so that volume is,
    up to sign, |`PointConfig.volume`| / dx^n of the circuit's labels but j.
    It is the jump at any wall point that meets the lemma's hypotheses:
    exactly one circuital cell, and every cell's values off the cell pairwise
    distinct. `tests/witness_reference.py` finds such points, and the numeric
    oracle checks the closed form there. The name dates
    from the difference-quotient implementation and is kept because the
    benchmark tracer binds it.
    """
    _check_f(config, f)
    circ = wall.circuit
    others = sorted(frozenset(circ.ordering) - {wall.moved})
    return Fraction(abs(config.volume(others)), config.lift_forms.scale) * circuit_value(f, circ)


# ---------------------------------------------------------------------------
# gradients, convexifier, reconstruction


def gradient_on_cone(config: PointConfig, f: SetFunction, witness) -> tuple[Fraction, ...]:
    """Exact gradient of the basecondary function at a generic witness.

    Near a generic witness the expansion terms of `expansion_terms` keep
    their simplices and F-differences, and each lifted volume -h / (dx^n dz)
    is linear in the heights: h is the circuit form sum_k c_k dz gamma_k of the
    cell's base and the tail label, through the label's signed ref over the base
    (`PointConfig.lift_forms`). So the gradient is the sum over the terms of
    -dF * c_k, negated with the ref, divided once by d dx^n. Non-generic witnesses are refused with InputError.
    """
    terms, d, _ = _expansion_summands(config, f, covector(config, witness))
    grad, circuits, bases = [0] * config.m, config.lift_forms.circuits, config.lift_forms.bases
    for simplex, df, _ in terms:
        r = bases[tuple(sorted(i - 1 for i in simplex[:-1]))][simplex[-1] - 1]
        for k, c in zip(*circuits[abs(r) - 1]):
            grad[k] -= (df if r > 0 else -df) * c
    return tuple(Fraction(g, d * config.lift_forms.scale) for g in grad)


def convexity_certificate(entries) -> tuple[bool, Optional[tuple]]:
    """Pairwise support maximality of (witness, gradient) entries: <g_j, w_j> >= <g_k, w_j> for all pairs.

    Returns (True, None) or (False, (witness_j, j, k)) for the first failing
    pair, by j then k. With full cone coverage, success certifies that the
    function is the support function of the gradients' convex hull. Decided
    in integers: one scale for all gradients and one per witness, all > 0.
    """
    if not entries:
        raise InputError("certificate needs at least one entry")
    flat = iter(clear_denominators([c for _, g in entries for c in g])[0])
    grads = [list(itertools.islice(flat, len(g))) for _, g in entries]
    for j, (wj, _) in enumerate(entries):
        w = clear_denominators(wj)[0]
        own = sum(map(operator.mul, grads[j], w))
        for k, gk in enumerate(grads):
            if k != j and sum(map(operator.mul, gk, w)) > own:
                return False, (wj, j, k)
    return True, None


def cone_witnesses(
    config: PointConfig, samples: Optional[int] = None, seed: Optional[int] = None
) -> tuple[tuple[Subdivision, Covector], ...]:
    """(triangulation, generic witness) pairs covering the secondary cones (all of them for n = 1 and planar m <= 5).

    n = 1: every triangulation with its `cone_witness`, a positive integer vector by construction;
    n = 2 spanning Q^2 with m <= 5: every triangulation, read off the secondary polygon's `polygon_cones`,
    which accepts and ignores samples and seed; other n >= 2: `discover_cones_random`; n = 0 is refused.
    """
    if config.n == 0:
        raise InputError("n = 0 cones are label orders; reconstruct_polytope reads them")
    if config.n == 1:
        return tuple((t, cone_witness(config, t)) for t in enumerate_triangulations_1d(config))
    if config.n == 2 and config.m <= 5 and config.lift_forms.bases:
        return polygon_cones(config)
    if samples is None or seed is None:
        raise InputError("cone discovery for n >= 2 needs samples and a seed")
    return discover_cones_random(config, samples, seed)


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

    For n <= 1 this is the circuit condition, exact: one row
    (J, vol(J) * value(J), vol(J)) per spanning (n+2)-subset J, in
    lexicographic order, with value(J) its `circuit_value` and vol(J) its
    lattice volume, sum_j |V(J - j)| / (2 dx^n), as both triangulations of
    the circuit cover conv J; c is max(0, -min value). For n = 1 every
    3-subset J is the circuit of a wall, whose basecondary defect is that
    row's second entry and whose secondary defect, the GKZ jump at the
    middle label, is its third. For n = 0 the rows are the pair conditions
    of the submodularity that `_order_cone_rep` certifies.
    The rule for every n <= 1: F must be submodular above size n + 1, or
    InputError carries the violating pair. For n = 1 the rows do not test
    that rule, and without it h + c * secondary at their c need not be
    convex. The exhaustive check evaluates F once per set.
    For n >= 2 the value is a lower bound, flagged not exact: the largest
    ratio over pairs of `cone_witnesses`, comparing closed-form gradients
    (`gradient_on_cone`) and GKZ vectors at their witnesses. The cones are
    discovered from `samples` seeded heights, except on a configuration
    spanning Q^2 with m <= 5, which reads every cone and ignores samples
    and seed.
    """
    _check_f(config, f)
    if config.n <= 1:
        report = is_submodular_above(f, config.n + 1)
        if not report.holds:
            raise InputError(
                f"no convexifier: F is not submodular above size {config.n + 1} "
                f"({report.witness_str()})"
            )
        rows, scale = [], 2 * config.lift_forms.scale
        for j, value in circuit_condition_check(f, config).rows:
            vol = Fraction(sum(abs(config.volume(face)) for face in itertools.combinations(j, config.n + 1)), scale)
            rows.append((j, vol * value, vol))
        best = max([Fraction(0)] + [-d_f / vol for _, d_f, vol in rows])
        return MinConvexifier(value=best, exact=True, walls=tuple(rows))
    cones = cone_witnesses(config, samples=samples, seed=seed)
    f_grads = [gradient_on_cone(config, f, w) for _, w in cones]
    s_grads = [gkz_vector(config, t) for t, _ in cones]
    best = Fraction(0)
    for j, (_, wj) in enumerate(cones):
        for k in range(len(cones)):
            if k == j:
                continue
            denom = sum((a - b) * c for a, b, c in zip(s_grads[j], s_grads[k], wj))
            numer = sum((a - b) * c for a, b, c in zip(f_grads[k], f_grads[j], wj))
            if denom > 0 and numer / denom > best:
                best = numer / denom
    return MinConvexifier(value=best, exact=False)


def reconstruct_polytope(
    config: PointConfig,
    f: SetFunction,
    convexifier=0,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> PiecewiseLinearRep:
    """Per-cone gradients of the (optionally convexified) function, certified.

    Each gradient is gradient_on_cone plus c times the GKZ vector at the cone witness, and
    `PiecewiseLinearRep.certify` keeps one witness per gradient; n = 0 is `_order_cone_rep`.
    The cones are `cone_witnesses`: every cone for n = 1 and for a configuration spanning Q^2 with
    m <= 5, which accepts and ignores samples and seed; else those found at `samples` seeded heights.
    """
    _check_f(config, f)
    c = rat(convexifier)
    if config.n == 0:
        return _order_cone_rep(config, f, c)
    pairs = []
    for t, w in cone_witnesses(config, samples=samples, seed=seed):
        g = gradient_on_cone(config, f, w)
        if c != 0:
            g = tuple(a + c * b for a, b in zip(g, gkz_vector(config, t)))
        pairs.append((w, g))
    return PiecewiseLinearRep.certify(pairs)


def _order_cone_rep(config: PointConfig, f: SetFunction, c: Fraction) -> PiecewiseLinearRep:
    """n = 0: h + c max(gamma) is the Lovász extension of G = F - F(N) + c on nonempty sets, G(empty) = 0.

    One walk over the label orders (m <= `BASE_POLYTOPE_CAP`) keeps the first order sigma of each gradient,
    `greedy_vertex` plus c - F(N) at sigma[0]; only kept and failing orders get witnesses, ranking m, ..., 1.
    The sum is convex iff G is submodular: F above size 1, c + v >= 0 on each `circuit_condition_check` pair
    row v. At a violation (X, i, j), sigma' = (X, j, i, rest) beats sigma = (X, i, j, rest) at sigma's witness.
    """
    m, first = config.m, {}
    if m > BASE_POLYTOPE_CAP:
        raise ResourceError(f"full vertex enumeration capped at m = {BASE_POLYTOPE_CAP}")
    value, d = f.cleared
    shift = c - Fraction(value((1 << m) - 1), d)
    ranks = [Fraction(k) for k in range(m + 1)]  # one Fraction per rank, shared by every witness

    def gradient(order):
        g, top = greedy_vertex(f, order), order[0] - 1
        return g[:top] + (g[top] + shift,) + g[top + 1:]

    def witness(order):
        return tuple(ranks[m - order.index(i)] for i in range(1, m + 1))

    for order in itertools.permutations(range(1, m + 1)):
        first.setdefault(gradient(order), order)
    report = is_submodular_above(f, 1)
    pairs = (((), *j) for j, v in circuit_condition_check(f, config).rows if c + v < 0)
    violation, failure = next(pairs, None) if report.holds else report.witness[:3], None
    if violation is not None:
        x, i, j = violation
        rest = tuple(k for k in range(1, m + 1) if k not in (*x, i, j))
        sigma, index = (*x, i, j, *rest), list(first)
        failure = (witness(sigma), index.index(gradient(sigma)), index.index(gradient((*x, j, i, *rest))))
    return PiecewiseLinearRep(tuple((witness(order), g) for g, order in first.items()), failure is None, failure)
