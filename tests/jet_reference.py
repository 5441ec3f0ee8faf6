"""The dense `Jet`, the polygon code that multiplied jets out at every predicate, and the jet loop of
`fiber_morse.morse_polytope`.

A jet here holds its whole gradient tuple, and `convex_hull_2d`,
`minkowski_sum` and `upper_chain` take full jet cross products at every
turn. The library takes no jets: it reads each Morse and Maxwell gradient off
two integer evaluations (`fiber_morse._gradient`). `morse_polytope` is the
loop it replaced, one support evaluation at the dense jet w + eps per cone
witness w, on test-side routes only: `rat`, `point` and `covector` let jets
pass, the fiber summand is the `Fraction` route below on every base and roof
point, and h and S are read off the edges of the lift's `upper_chain`. Its
answers must be the library's.

`fiber_slice` and `fiber_polygon` are the `Fraction` route the library's
integer kernel replaced: a `t = (xi - lo_x) / (hi_x - lo_x)` per cut, jets
scaled by it, and each slice weighted by a rational `scaled`. The library
must return the same polygons, vertex for vertex. `fiber_slice` is also the
slice that the grid oracle and the slice tests read.
"""

import functools
import itertools
import operator
from fractions import Fraction

from basecondary import exact_core
from basecondary.core import PiecewiseLinearRep, cone_witnesses
from basecondary.errors import InputError, InternalError
from basecondary.exact_core import Polygon2
from basecondary.fiber_morse import FIBER_SUPPORT_SCALE
from basecondary.setfun import evaluate_f


def _order(test):
    """A jet comparison: `test` on (value, *grad), a rational having zero gradient; ties read grad."""

    def compare(self, other):
        if isinstance(other, Jet):
            value, grad = other.value, other.grad
        elif isinstance(other, (int, Fraction)):
            value, grad = other, (0,) * len(self.grad)
        else:
            return NotImplemented
        return test(self.value, value) if self.value != value else test(self.grad, grad)

    return compare


class Jet:
    """value + <grad, eps> for infinitesimals eps_1 >> eps_2 >> ... > 0, the gradient dense."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value, self.grad = value, tuple(grad)

    @staticmethod
    def seed(values) -> tuple["Jet", ...]:
        """values[k] + eps_k for every coordinate k."""
        zeros = [Fraction(0)] * len(values)
        return tuple(Jet(v, zeros[:k] + [Fraction(1)] + zeros[k + 1:]) for k, v in enumerate(values))

    __eq__, __lt__, __le__ = _order(operator.eq), _order(operator.lt), _order(operator.le)
    __gt__, __ge__ = _order(operator.gt), _order(operator.ge)

    def __hash__(self):
        return hash((self.value, self.grad) if any(self.grad) else self.value)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value, (a + b for a, b in zip(self.grad, other.grad, strict=True)))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Jet(self.value + other, self.grad)

    def __mul__(self, other):
        if isinstance(other, Jet):
            raise InternalError("a product of two jets is not linear in eps")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Jet(self.value * other, (g * other for g in self.grad))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value - other.value, (a - b for a, b in zip(self.grad, other.grad, strict=True)))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Jet(self.value - other, self.grad)

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        if isinstance(other, Jet):
            raise InternalError("a quotient of two jets is not linear in eps")
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        raise InternalError("a division by a jet is not linear in eps")


def rat(x):
    """`exact_core.rat`, with jets passing as they are."""
    return x if isinstance(x, Jet) else exact_core.rat(x)


def point(coords):
    return tuple(rat(c) for c in coords)


def covector(config, values):
    """The heights as a tuple of rationals and jets, one per label."""
    vec = tuple(rat(v) for v in values)
    if len(vec) != config.m:
        raise InputError(f"covector length {len(vec)} does not match m = {config.m}")
    return vec


def _shoelace_area(vertices):
    s = Fraction(0)
    k = len(vertices)
    for i in range(k):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % k]
        s += x0 * y1 - x1 * y0
    return s / 2


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points):
    """Strict convex hull, CCW, starting at the lexicographic minimum."""
    pts = sorted(set((rat(p[0]), rat(p[1])) for p in points))
    if len(pts) <= 2:
        return tuple(pts)

    def chain(seq):  # its last point starts the other chain
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    if len(hull) < 3:  # all collinear
        return (pts[0], pts[-1])
    return tuple(hull)


def upper_chain(xs, ys):
    """Indices of the strict corners of the upper hull of (xs[k], ys[k]).

    Andrew's monotone chain over points given by strictly increasing x; a
    point on the segment between its neighbours is not a corner.
    """
    chain = []
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


def _angle_cmp(u, v):
    """-1, 0 or 1 as u's direction angle in [0, 2*pi) is below, at or above v's."""

    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return hu - hv
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def minkowski_sum(*polygons):
    """Exact Minkowski sum of convex polygons by one angle sort of all edge vectors."""
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
    for dx, dy in sorted(edges, key=functools.cmp_to_key(_angle_cmp)):
        cur = (cur[0] + dx, cur[1] + dy)
        out.append(cur)
    return Polygon2(vertices=convex_hull_2d(out))


def scaled(polygon, t):
    """t times the polygon; t > 0 keeps the canonical form, so no re-hull."""
    t = rat(t)
    if t < 0:
        raise InputError("polygon scaling expects t >= 0")
    if t == 0:
        return Polygon2.from_points([(Fraction(0), Fraction(0))]) if polygon.vertices else polygon
    return Polygon2(vertices=tuple((t * x, t * y) for x, y in polygon.vertices))


def fiber_slice(vertices, xi):
    """The (y, z) polygon {(y, z) : (xi, y, z) in conv(vertices)}.

    Computed as the hull of the vertices at xi and the cuts of the segments
    [v_i, v_j] with x_i < xi < x_j; provably the true fiber of the hull. A
    segment with an endpoint at xi would only cut that endpoint again. Empty
    when xi is outside the first-coordinate range.
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
    cuts = [(v[1], v[2]) for v in vs if v[0] == xi]
    left = [v for v in vs if v[0] < xi]
    right = [v for v in vs if v[0] > xi]
    for lo, hi in itertools.product(left, right):
        t = (xi - lo[0]) / (hi[0] - lo[0])
        cuts.append((lo[1] + t * (hi[1] - lo[1]), lo[2] + t * (hi[2] - lo[2])))
    return Polygon2(vertices=convex_hull_2d(cuts))


def fiber_polygon(vertices):
    """Minkowski integral of the first-axis fibers of conv(vertices).

    Between consecutive breakpoints x_0 < ... < x_K, the distinct first
    coordinates, the fiber varies Minkowski-linearly, so the cell
    [x_{k-1}, x_k] contributes exactly ((x_k - x_{k-1})/2) * (fiber(x_{k-1})
    + fiber(x_k)). Regrouped by breakpoint, the integral is one Minkowski
    sum of the slices fiber(x_k) weighted (x_{k+1} - x_{k-1})/2, the ends
    (x_1 - x_0)/2 and (x_K - x_{K-1})/2; a single breakpoint gives the origin.
    """
    vs = [point(v) for v in vertices]
    if not vs:
        raise InputError("fiber_polygon needs vertices")
    breaks = sorted(set(v[0] for v in vs))
    ends = [breaks[0], *breaks, breaks[-1]]
    return minkowski_sum(
        *(scaled(fiber_slice(vs, x), (ends[k + 2] - ends[k]) / 2) for k, x in enumerate(breaks))
    )


def area_P_bar(config, gamma):
    """The fiber summand at nonnegative heights: the area of the `fiber_polygon` of every base and roof point."""
    gamma = covector(config.config(), gamma)
    if any(g < 0 for g in gamma):
        raise InputError("heights must be nonnegative here")
    zero = Fraction(0)
    points = [(Fraction(a), zero, z) for a, g in zip(config.points, gamma) for z in (zero, g)]
    return FIBER_SUPPORT_SCALE * _shoelace_area(fiber_polygon(points + [(zero, Fraction(1), zero)]).vertices)


def _chain_parts(config, gamma):
    """The basecondary value h of F = -gcd and the secondary support S, off the edges of the lift's upper chain.

    An edge (a, b) is a cell of volume x_b - x_a: h adds volume * (c - M) * (F{v >= c} - F{v > c}) for each
    value c < M of v = gamma - slope * x, M its value at a and b, and S adds volume * (gamma_a + gamma_b).
    """
    xs, f, labels = [Fraction(a) for a in config.points], config.gcd_function(), range(1, config.m + 1)
    chain = upper_chain(xs, gamma)
    h = s = Fraction(0)
    for a, b in zip(chain, chain[1:]):
        vol = xs[b] - xs[a]
        slope = (gamma[b] - gamma[a]) / vol
        v = [g - slope * x for g, x in zip(gamma, xs)]
        for c in sorted(set(v)):
            if c < v[a]:
                ge = frozenset(i for i in labels if v[i - 1] >= c)
                gt = frozenset(i for i in labels if v[i - 1] > c)
                h += vol * (c - v[a]) * (evaluate_f(f, ge) - evaluate_f(f, gt))
        s += vol * (gamma[a] + gamma[b])
    return h, s


def morse_support(config, gamma):
    """P + h - 3 S at nonnegative heights."""
    h, s = _chain_parts(config, covector(config.config(), gamma))
    return area_P_bar(config, gamma) + h - 3 * s


def maxwell_support(config, gamma):
    """(P + h - 4 S) / 2 at nonnegative heights."""
    h, s = _chain_parts(config, covector(config.config(), gamma))
    return (area_P_bar(config, gamma) + h - 4 * s) / 2


def _shifted_witness(pc, witness):
    """Push a witness into the strictly positive orthant by a constant, which is affine on the
    configuration, so the secondary cone and genericity are preserved."""
    low = min(witness)
    shift = Fraction(0) if low >= 1 else 1 - low
    return tuple(w + shift for w in witness)


def morse_polytope(config, variant="morse"):
    """The jet loop of `fiber_morse.morse_polytope`: each cone's gradient is that of the support at the
    dense jet w + eps of its shifted witness w, whose homogeneity identity <g, w> = support(w) is checked."""
    support = morse_support if variant == "morse" else maxwell_support
    pc = config.config()
    pairs = []
    for _, w in cone_witnesses(pc):
        w = _shifted_witness(pc, w)
        jet = support(config, Jet.seed(w))
        if sum(g * x for g, x in zip(jet.grad, w)) != jet.value:
            raise InternalError("support gradient fails the homogeneity identity at its witness")
        pairs.append((w, jet.grad))
    return PiecewiseLinearRep.certify(pairs)
