"""Wall and order-cone searches: the reference the circuit closed forms are tested against.

The library reads the n <= 1 convexifier off one circuit value per
(n+2)-subset and orders a circuit by one sign rule. These helpers recover
the same answers the long way, as the library once did: the convexifier
from every wall of the 1D secondary fan (GKZ jumps and the circuit lemma,
spelled out here) or from every pair of order cones for n = 0, and the
circuit ordering from a search over all arrangements of its sides, each
tested by the double alternating volume identity `_circuit_identity_holds`.
"""

import functools
import itertools
from fractions import Fraction

from quantity_reference import _values_under, evaluate_f

from basecondary.core import (
    MinConvexifier,
    OrderedSupport,
    _descending_tail,
    covector,
    gradient_on_cone,
)
from basecondary.errors import InputError
from basecondary.exact_core import oriented_volume
from basecondary.secondary import enumerate_walls_1d, gkz_vector, regular_subdivision
from basecondary.setfun import is_submodular_above


# one wall enumeration per configuration, shared by every F tested on it
_walls = functools.lru_cache(maxsize=4)(enumerate_walls_1d)


def _lemma_defect(config, f, wall):
    """|vol of the wall circuit without the moved label| times the circuit expression."""
    circ = wall.circuit
    labels = frozenset(circ.ordering)
    vol = abs(oriented_volume(config.subset_points(sorted(labels - {wall.moved}))))
    ground = frozenset(range(1, config.m + 1))
    expr = -(len(circ.support) - 1) * evaluate_f(f, labels) - evaluate_f(f, ground)
    for k in circ.support:
        expr += evaluate_f(f, labels - {k})
    return vol * expr


def min_convexifier(config, f):
    """The convexifier for n <= 1 by walls (n = 1) or order-cone pairs (n = 0).

    n = 1: one row per wall, its basecondary defect over the GKZ jump at the
    moved label. n = 0: the largest ratio over all pairs of the m! order
    cones, with one row per pair of cones that swap the top two labels a, b:
    the jumps of the basecondary and secondary gradients at a.
    """
    if config.n == 1:
        rows = []
        best = Fraction(0)
        for wall in _walls(config):
            d_f = _lemma_defect(config, f, wall)
            j = wall.moved - 1
            d_sec = gkz_vector(config, wall.left)[j] - gkz_vector(config, wall.right)[j]
            assert d_sec > 0, "secondary support must be strictly wall-convex"
            rows.append((wall.circuit.support, d_f, d_sec))
            best = max(best, -d_f / d_sec)
        return MinConvexifier(value=best, exact=True, walls=tuple(rows))
    assert config.n == 0
    witnesses = [tuple(Fraction(config.m - perm.index(i)) for i in range(1, config.m + 1))
                 for perm in itertools.permutations(range(1, config.m + 1))]
    report = is_submodular_above(f, 1)
    if not report.holds:
        raise InputError(f"no convexifier: F is not submodular above size 1 ({report.witness})")
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
    orders = [tuple(sorted(range(1, config.m + 1), key=lambda i: -w[i - 1])) for w in witnesses]
    index = {order: k for k, order in enumerate(orders)}
    rows = []
    for j, (a, b, *rest) in enumerate(orders):
        k = index[(b, a, *rest)]
        rows.append((tuple(sorted((a, b))), f_grads[j][a - 1] - f_grads[k][a - 1],
                     s_grads[j][a - 1] - s_grads[k][a - 1]))
    return MinConvexifier(value=best, exact=True, walls=tuple(rows))


def _circuit_identity_holds(config, head, p, q, target) -> bool:
    """Both alternating sums of the head's facet volumes, over each side, equal target."""
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


def order_circuital(config, gamma, c):
    """The lexicographically smallest arrangement of the circuit's sides
    that satisfies the double alternating volume identity, by search."""
    gamma = covector(config, gamma)
    values = _values_under(config, gamma, c.linear)
    tail = _descending_tail(config, c.maximizers, values)
    circ = c.circuit
    pos = [i for i, _ in circ.positive]
    neg = [i for i, _ in circ.negative]
    target = sum(
        abs(oriented_volume(config.subset_points([j for j in c.maximizers if j != i])))
        for i in pos
    )
    best = None
    for pp in itertools.permutations(pos):
        for nn in itertools.permutations(neg):
            for zz in itertools.permutations(circ.zeros):
                head = list(pp) + list(nn) + list(zz)
                if best is not None and tuple(head) >= best:
                    continue
                if _circuit_identity_holds(config, head, len(pp), len(nn), target):
                    best = tuple(head)
    if best is None:
        return None
    return OrderedSupport(tuple=best + tail, head=config.n + 2)
