"""Numeric oracles: the references the closed forms are tested against.

The library computes gradients (cofactor sums, GKZ vectors) and wall defects
(the circuit lemma) in closed form. The step-halving helpers recover the
same numbers from function values alone, by halving a step until the
perturbed heights stay in the right cone and the quotient is stable, so they
share no code with the closed forms beyond the evaluators and the lift.
The grid oracle bounds the area of a fiber polygon from slices at uniform
abscissae, with no knowledge of the true breakpoints. It cuts them with
`jet_reference.fiber_slice`, so it shares no slice code with the library's
integer kernel.
"""

from fractions import Fraction

from basecondary.errors import InputError
from basecondary.exact_core import minkowski_sum, point
from basecondary.secondary import covector, is_generic, regular_subdivision
from jet_reference import fiber_slice, scaled

STEP_SEARCH_CAP = 64


def numeric_gradient(config, fn, witness):
    """Gradient of fn at a generic witness by coordinate difference quotients.

    Each coordinate step is halved until the perturbed height keeps the
    witness's subdivision and the quotient is stable under one more halving;
    the result must satisfy the homogeneity identity <g, witness> = fn(witness).
    """
    witness = covector(config, witness)
    assert is_generic(config, witness), "gradients are taken at generic witnesses"
    base_cells = regular_subdivision(config, witness).cells
    value = fn(witness)
    grad = []
    for k in range(config.m):
        eps = Fraction(1)
        prev = None
        for _ in range(STEP_SEARCH_CAP):
            pert = tuple(w + (eps if i == k else 0) for i, w in enumerate(witness))
            if regular_subdivision(config, pert).cells == base_cells:
                slope = (fn(pert) - value) / eps
                if slope == prev:
                    break
                prev = slope
            else:
                prev = None
            eps /= 2
        else:
            raise AssertionError("no stable coordinate step inside the cone")
        grad.append(slope)
    assert sum(g * w for g, w in zip(grad, witness)) == value, "homogeneity fails"
    return tuple(grad)


def second_difference(config, fn, wall):
    """(fn(w + eps u) + fn(w - eps u) - 2 fn(w)) / eps across a wall, and eps.

    The wall is a `witness_reference.WallWitness`, w its witness point and u
    its direction. The step is halved until both offsets land in the wall's
    two cones and the value is stable under one more halving, so it is the
    exact jump of the one-sided derivatives along the wall direction.
    """
    w, u = wall.witness, wall.direction
    base = fn(w)
    eps = Fraction(1)
    prev = None
    for _ in range(STEP_SEARCH_CAP):
        plus = tuple(a + eps * b for a, b in zip(w, u))
        minus = tuple(a - eps * b for a, b in zip(w, u))
        if (
            regular_subdivision(config, plus).cells == wall.left.cells
            and regular_subdivision(config, minus).cells == wall.right.cells
        ):
            value = (fn(plus) + fn(minus) - 2 * base) / eps
            if value == prev:
                return value, eps * 2
            prev = value
        else:
            prev = None
        eps /= 2
    raise AssertionError("no stable step across the wall")


def perimeter_l1(polygon):
    """Taxicab perimeter of a `Polygon2`; an exact upper bound for the Euclidean one."""
    k = len(polygon.vertices)
    if k < 2:
        return Fraction(0)
    total = Fraction(0)
    for i in range(k):
        x0, y0 = polygon.vertices[i]
        x1, y1 = polygon.vertices[(i + 1) % k]
        total += abs(x1 - x0) + abs(y1 - y0)
    return total


def fiber_polygon_grid_area(vertices, cells):
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
    total = minkowski_sum(*(scaled(s, h / 2) for cell in zip(slices, slices[1:]) for s in cell))
    ys = [v[1] for v in vs]
    zs = [v[2] for v in vs]
    diameter = (max(ys) - min(ys)) + (max(zs) - min(zs))
    eps = len(xs) * h * diameter
    bound = eps * perimeter_l1(total) + 10 * eps * eps
    return total.area(), bound
