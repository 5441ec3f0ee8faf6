"""Second routes to quantities the library now computes in one place.

`eval_basecondary_general` once made two F calls per threshold, F{v >= c}
and F{v > c}, where it now reads F{v > c} off the level above c; it once
read `Fraction` values off `upper_cells` and F through `evaluate_f`, where
it now reads the lift's integer heights and F cleared to integers. The
expansion once took each lifted volume as an `oriented_volume` of
`Fraction` lifted points, where it now reads it off the same heights; the
Morse and Maxwell supports took both their lift-read parts off
`upper_cells`.
`secondary_support` once summed volume(simplex) * (heights on the simplex)
over the refined subdivision, where it is now <GKZ vector, gamma>.
`lattice_volume` once took its own hull and shoelace sum in the plane, where
it now reads `Polygon2.area`. `build_delta_bar` once emitted every base
point (a,0,0) and every roof point (a,0,gamma(a)), where it now emits only
the pyramid's hull vertices. `area_N` once took the hull of every base and
roof point, where it now halves the secondary support. The n >= 2 lift
once took `integer_normal` of every lifted base and its dot products with
every lifted point, per height vector, where it now reads each height off a
circuit form built once per configuration. That scan once summed a form of
its own for every (base, label) pair it read (`form_scan`), where it now
sums each circuit's form at most once per lift and shares it between the
bases of the circuit. The n <= 1 lift once had routes
of its own, the argmax for n = 0 and the upper chain with `_values_under` for
n = 1 (`chain_upper_cells`), where it now runs the circuit-form scan of every
n. The expansion once decided genericity a second time, on the `Fraction`
cells of a full lift (`is_generic_lift`), where it now reads the integer scan
that `is_generic` reads. `gradient_on_cone` once took each term's gradient
as n + 2 height cofactors, facet `oriented_volume`s with signs, where it now
reads the coefficients of the tail label's circuit form. The submodularity
scan, `circuit_value` and `greedy_vertex` once built a frozenset per query
and read it through `evaluate_f`, where they now read bitmasks off
`SetFunction.cleared`. Every first read of F once went through `evaluate_f`,
a `frozenset`, the m-element ground set and a `Fraction` per set, where
`SetFunction.cleared` now reads each kind on the bitmask itself
(`setfun._mask_value`); this module's `evaluate_f` is the reader it
replaced, and every reference here reads F through it. `order_simplicial`
and `order_circuital` once sorted their tails by the `Fraction` values
gamma - L o A of the support's own functional (`_values_under`), where they
now read the kept lift's scan heights of their cell.
`convexity_certificate` once took every pairwise support value as a `Fraction` dot product, where it now compares integers,
the gradients cleared once to one scale and each witness to its own. The
n = 0 reconstruction once took every order cone's expansion gradient at a
witness of `cone_witnesses` and certified all (m!)^2 pairs
(`order_cone_polytope` on `order_cone_witnesses`), where it now walks the
label orders, reading greedy vertices, and makes one submodularity scan. Each is kept here, the
evaluator and the support on the kept `lattice_volume`, so results can be
compared exactly.

The Morse and Maxwell supports take P off `jet_reference.area_P_bar`, the
`Fraction` fiber route on every base and roof point, where the library reads
the integer `exact_core._fiber_sum` of the barred pyramid's hull vertices.

`build_delta` is the roof-only pyramid, without the base row: its fiber
polygon bounds the barred one's from below, with the same upper envelope.
"""

import itertools
import math
from fractions import Fraction

import jet_reference
from jet_reference import _shoelace_area

from basecondary import core, exact_core, secondary
from basecondary.core import OrderedSupport, _check_f, _descending_tail, _expansion_summands, _positive_orientation
from basecondary.errors import InputError
from basecondary.exact_core import (
    PointConfig,
    Polygon2,
    clear_denominators,
    convex_hull_2d,
    integer_normal,
    matrix_rank,
    oriented_volume,
)
from basecondary.secondary import Covector, UpperCell, _labels_by_coordinate, _refine_cell, covector
from basecondary.setfun import SetFunction, SubmodularityReport


def evaluate_f(f: SetFunction, subset) -> Fraction:
    """Value of F on a subset of the ground set."""
    x = frozenset(subset)
    if not x <= f.ground():
        raise InputError(f"subset {sorted(x)} not within 1..{f.m}")
    if len(x) < f.min_size and not (len(x) == 0 and f.min_size == 0):
        raise InputError(f"F is only defined on subsets of size >= {f.min_size}")
    if f.kind == "table":
        v = f.table.get(x, f.default if x else 0)
        return v if type(v) is Fraction else Fraction(v)
    if f.kind == "neg_gcd":
        if not x:
            return Fraction(0)
        return Fraction(-math.gcd(*(abs(f.gcd_points[i - 1]) for i in x)))
    if f.kind == "neg_indicator_full":
        return Fraction(-1) if f.point in x else Fraction(0)
    if f.kind == "matrix_rank":
        if not x:
            return Fraction(0)
        cols = [f.columns[i - 1] for i in sorted(x)]
        return Fraction(matrix_rank(cols))
    if f.kind == "neg_card_ratio":
        return Fraction(-len(x), f.m)
    raise InputError(f"unknown kind {f.kind!r}")


def _values_under(config: PointConfig, gamma: Covector, linear) -> tuple[Fraction, ...]:
    n = config.n
    return tuple(
        gamma[i - 1] - sum(linear[c] * config.points[i - 1][c] for c in range(n))
        for i in range(1, config.m + 1)
    )


def order_simplicial(config, gamma, s):
    """Maximizers in positive orientation, then the tail by the support's own values gamma - L o A."""
    if not s.generic:
        raise InputError("ordering needs a generic simplicial support")
    gamma = covector(config, gamma)
    values = _values_under(config, gamma, s.linear)
    head = _positive_orientation(config, s.maximizers)
    return OrderedSupport(tuple=head + _descending_tail(config, head, values), head=config.n + 1)


def lattice_volume(points):
    """Nonnegative lattice d-volume of the convex hull (d = ambient dim <= 2)."""
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


def eval_basecondary_general(config, f, gamma):
    """Threshold form with both F{v >= c} and F{v > c} queried for every c < M."""
    _check_f(config, f)
    gamma = covector(config, gamma)
    total = Fraction(0)
    for cell in secondary.upper_cells(config, gamma):
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


def secondary_support(config, gamma):
    """Sum over the refined subdivision of volume(simplex) * sum of its heights."""
    gamma = covector(config, gamma)
    total = Fraction(0)
    for cell in secondary.upper_cells(config, gamma):
        for simplex in _refine_cell(config, cell.cell):
            vol = lattice_volume(config.subset_points(simplex))
            total += vol * sum(gamma[i - 1] for i in simplex)
    return total


def expansion_terms(config, f, gamma):
    """The expansion's terms on the `Fraction` lift, each volume an `oriented_volume` of lifted points.

    Cells, genericity and tail orders are read off `upper_cells`, and F
    through `evaluate_f`.
    """
    _check_f(config, f)
    gamma = covector(config, gamma)
    cells = secondary.upper_cells(config, gamma)
    if not is_generic_lift(config.n, cells):
        raise InputError("expansion needs a generic height vector; use the general evaluator")
    lifted = {i: config.image(i) + (gamma[i - 1],) for i in range(1, config.m + 1)}
    terms = []
    for cell in cells:
        head = _positive_orientation(config, cell.cell)
        prefix = set(head)
        prev = evaluate_f(f, prefix)
        for i in _descending_tail(config, head, cell.values):
            prefix.add(i)
            cur = evaluate_f(f, prefix)
            if prev != cur:
                simplex = head + (i,)
                terms.append((simplex, prev - cur, -oriented_volume([lifted[j] for j in simplex])))
            prev = cur
    return tuple(terms)


def eval_basecondary_generic(config, f, gamma):
    """The sum of F-difference times lifted volume over the reference `expansion_terms`."""
    return sum((diff * volume for _, diff, volume in expansion_terms(config, f, gamma)), Fraction(0))


def fiber_summand(config, gamma):
    """P off `jet_reference.area_P_bar` at heights of any sign.

    Below 0 through h(gamma + c*1) = h(gamma) + c*h(1), with c = ceil(-min gamma), so the lowest shifted height is 0
    (the library shifts one further).
    """
    c = max(0, math.ceil(-min(gamma)))
    if not c:
        return jet_reference.area_P_bar(config, gamma)
    level = jet_reference.area_P_bar(config, [1] * config.m)
    return jet_reference.area_P_bar(config, [g + c for g in gamma]) - c * level


def morse_support(config, gamma):
    """P + h - 3 S with P, h and S the references above, each on its own route."""
    pc = config.config()
    gamma = covector(pc, gamma)
    if any(g < 0 for g in gamma):
        raise InputError("heights must be nonnegative here")
    h = eval_basecondary_general(pc, config.gcd_function(), gamma)
    return fiber_summand(config, gamma) + h - 3 * secondary_support(pc, gamma)


def maxwell_support(config, gamma):
    """(P + h - 4 S) / 2 with P, h and S the references above, each on its own route."""
    pc = config.config()
    gamma = covector(pc, gamma)
    h = eval_basecondary_general(pc, config.gcd_function(), gamma)
    return (fiber_summand(config, gamma) + h - 4 * secondary_support(pc, gamma)) / 2


def build_delta_bar(config, gamma):
    """The barred pyramid's vertex list with every base and roof point: base row, roof, apex (0,1,0)."""
    gamma = covector(config.config(), gamma)
    if any(g < 0 for g in gamma):
        raise InputError("heights must be nonnegative here")
    verts = []
    for a, g in zip(config.points, gamma):
        verts.append((Fraction(a), Fraction(0), Fraction(0)))
        if g != 0:
            verts.append((Fraction(a), Fraction(0), g))
    verts.append((Fraction(0), Fraction(1), Fraction(0)))
    return tuple(verts)


def build_delta(config, gamma):
    """Vertices of the roof-only pyramid: (a,0,gamma(a)) plus the apex, no base row."""
    gamma = covector(config.config(), gamma)
    if any(g < 0 for g in gamma):
        raise InputError("heights must be nonnegative here")
    verts = [(Fraction(a), Fraction(0), g) for a, g in zip(config.points, gamma)]
    verts.append((Fraction(0), Fraction(1), Fraction(0)))
    return tuple(verts)


def area_N(config, gamma):
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


def _oriented_scan(config: PointConfig, gamma: Covector):
    """Upper cells for n >= 2 by integer orientation tests on every (n+1)-subset.

    Yields (cell, base index, normal N, heights h, dx, dz) once per cell and
    builds no Fraction; `upper_cells` turns them into affine data.
    """
    n, m = config.n, config.m
    flat, dx = clear_denominators([c for p in config.points for c in p])
    zs, dz = clear_denominators(gamma)
    lifted = [flat[k * n:(k + 1) * n] + [zs[k]] for k in range(m)]
    seen = set()
    for base in itertools.combinations(range(m), n + 1):
        p0 = lifted[base[0]]
        normal = integer_normal([[x - y for x, y in zip(lifted[k], p0)] for k in base[1:]])
        if normal[n] == 0:  # the base is affinely dependent
            continue
        if normal[n] < 0:
            normal = [-x for x in normal]
        offset = sum(a * x for a, x in zip(normal, p0))
        heights = []
        for p in lifted:
            h = sum(a * x for a, x in zip(normal, p)) - offset
            if h > 0:  # a point lies above: not an upper face
                break
            heights.append(h)
        else:
            cell = tuple(i for i, h in enumerate(heights, 1) if h == 0)
            if cell not in seen:
                seen.add(cell)
                yield cell, base[0], normal, heights, dx, dz


def form_scan(config: PointConfig, zs) -> tuple[list, int]:
    """`secondary._oriented_scan` over a per-(base, label) form table, and its number of non-empty form sums.

    Every base B with V(B) != 0 maps each label to its circuit form over B
    as (k, c_k) pairs, signed so that the label has a positive coefficient,
    and empty on B; each (base, label) pair read sums its own form, the zero
    height of a base label included. Returns the (cell, base, heights)
    triples in scan order.
    """
    n, m, vol = config.n, config.m, config.lift_forms[4]
    forms = {s: [()] * m for s, v in vol.items() if v}
    for c in itertools.combinations(range(m), n + 2):
        faces = [c[:i] + c[i + 1:] for i in range(n + 2)]
        coefficients = [(-1) ** i * vol[face] for i, face in enumerate(faces)]
        form = tuple((l, a) for l, a in zip(c, coefficients) if a)
        negated = tuple((l, -a) for l, a in form)
        for l, face, a in zip(c, faces, coefficients):
            if a:  # the base C - l has nonzero volume
                forms[face][l] = form if a > 0 else negated
    out, seen, sums = [], set(), 0
    for base, table in forms.items():
        heights = []
        for form in table:
            h = sum([c * zs[k] for k, c in form])
            sums += bool(form)
            if h > 0:
                break
            heights.append(h)
        else:
            cell = tuple(i for i, h in enumerate(heights, 1) if h == 0)
            if cell not in seen:
                seen.add(cell)
                out.append((cell, base, heights))
    return out, sums


def chain_upper_cells(config: PointConfig, gamma: Covector):
    """`upper_cells` for n <= 1: the argmax for n = 0, the strict upper chain's edges for n = 1."""
    if config.n > 1:
        raise InputError("the chain lift covers n <= 1")
    gamma = covector(config, gamma)
    if config.n == 0:
        fits = [((), max(gamma))]
    else:
        order = _labels_by_coordinate(config)
        xs = [config.image(i)[0] for i in order]
        ys = [gamma[i - 1] for i in order]
        chain = exact_core.upper_chain(xs, ys)
        fits = []
        for a, b in zip(chain, chain[1:]):
            slope = (ys[b] - ys[a]) / (xs[b] - xs[a])
            fits.append(((slope,), ys[a] - slope * xs[a]))
    cells = {}
    for linear, top in fits:  # the argmax and the strict chain put no point above
        values = _values_under(config, gamma, linear)
        cell = tuple(i for i in range(1, config.m + 1) if values[i - 1] == top)
        cells[cell] = UpperCell(cell=cell, linear=linear, max_value=top, values=values)
    return tuple(sorted(cells.values(), key=lambda c: c.cell))


def is_generic_lift(n, cells):
    """Genericity read off the `UpperCell`s of a lift: every cell has n + 1 points and pairwise distinct tail values."""
    return all(len(c.cell) == n + 1 and c.distinct_tail for c in cells)


def gradient_on_cone(config, f, witness):
    """The gradient as the sum over the expansion terms of F-difference times each lifted volume's height cofactor.

    The cofactor of label k is (-1)^(n+1+pos) times the volume of the
    simplex without k, at 0-based position pos.
    """
    grad = [Fraction(0)] * config.m
    terms, d, _ = _expansion_summands(config, f, covector(config, witness))
    for simplex, df, _ in terms:
        diff = Fraction(df, d)
        for pos, k in enumerate(simplex):
            facet = config.subset_points(simplex[:pos] + simplex[pos + 1:])
            grad[k - 1] -= diff * (-1) ** (config.n + 1 + pos) * oriented_volume(facet)
    return tuple(grad)


def _pair_violation(f, x, x1, x2):
    a = evaluate_f(f, x | {x1})
    b = evaluate_f(f, x | {x2})
    c = evaluate_f(f, x)
    d = evaluate_f(f, x | {x1, x2})
    if a + b < c + d:
        return (tuple(sorted(x)), x1, x2, (a, b, c, d))
    return None


def _subsets_by_mask(m, min_size=0):
    ground = list(range(1, m + 1))
    for mask in range(1 << m):
        if mask.bit_count() < min_size:
            continue
        yield frozenset(ground[i] for i in range(m) if mask >> i & 1)


def is_submodular_above(f, n):
    """Element-pair submodularity above size n, four `evaluate_f` calls per (X, x1, x2)."""
    for x in _subsets_by_mask(f.m, max(n, f.min_size)):
        rest = sorted(f.ground() - x)
        for x1, x2 in itertools.combinations(rest, 2):
            hit = _pair_violation(f, x, x1, x2)
            if hit is not None:
                return SubmodularityReport(holds=False, witness=hit)
    return SubmodularityReport(holds=True)


def circuit_value(f, circuit):
    """sum_{k in J0} F(J \\ k) - (|J0| - 1) F(J) - F(N) on frozensets."""
    labels = frozenset(circuit.ordering)
    value = -(len(circuit.support) - 1) * evaluate_f(f, labels) - evaluate_f(f, f.ground())
    for k in circuit.support:
        value += evaluate_f(f, labels - {k})
    return value


def greedy_vertex(f, order):
    """Telescoping increments of F along the order, one growing set per step."""
    if f.min_size != 0:
        raise InputError("greedy construction needs min_size 0")
    perm = list(order)
    if sorted(perm) != list(range(1, f.m + 1)):
        raise InputError("order must be a permutation of 1..m")
    y = [Fraction(0)] * f.m
    prev = Fraction(0)
    chain = set()
    for i in perm:
        chain.add(i)
        cur = evaluate_f(f, chain)
        y[i - 1] = cur - prev
        prev = cur
    return tuple(y)


def convexity_certificate(entries):
    """Pairwise support maximality in `Fraction` dot products, pair by pair: (True, None) or (False, (w_j, j, k))."""
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


def order_cone_witnesses(config):
    """n = 0: one (subdivision, witness) pair per strict order of the labels, the witness ranking them
    m, m - 1, ..., 1 and the subdivision its top label alone."""
    for perm in itertools.permutations(range(1, config.m + 1)):
        yield (secondary.Subdivision(n=0, cells=((perm[0],),)),
               tuple(Fraction(config.m - perm.index(i)) for i in range(1, config.m + 1)))


def order_cone_polytope(config, f, c):
    """n = 0 entries and certificate by search: each order cone's expansion gradient plus c times its GKZ
    vector, the first witness of each distinct gradient, and every pair compared in `Fraction`s."""
    first = {}
    for t, w in order_cone_witnesses(config):
        g = tuple(a + c * b for a, b in zip(core.gradient_on_cone(config, f, w), secondary.gkz_vector(config, t)))
        first.setdefault(g, (w, g))
    entries = tuple(first.values())
    return entries, convexity_certificate(entries)
