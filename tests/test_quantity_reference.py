"""Each quantity computed in one place, against the second route it replaced.

The general evaluator, the secondary support and the planar lattice volume
must return exactly what `quantity_reference` returns, type included, on
seeded n = 0, 1 and 2 configurations with tie-heavy integer heights. The
integer evaluators must be `repr`-equal with the `Fraction` routes, values
and expansion terms included, for every kind of F, on tie-heavy heights and
generic ones with large denominators; so must the Morse and Maxwell
supports. The fiber polygon of the pyramid's hull vertices must
be that of all its base and roof points, and `area_N`, half the secondary
support, the area of its own hull. Five pins keep the single routes
single: an oriented volume runs no rational elimination, a cell with k
values below its maximum costs the evaluator k + 1 queries of F, `area_N`
takes no hull, the circuit check and the 1D walls take no determinant once
the lift's kernel is built, and a planar cell is refined by one hull of the
kernel's integer coordinates, never by `convex_hull_2d`. The gradient, read
off the lift's circuit forms, must be `repr`-equal with the sum of height
cofactors at n = 0..3, and, like the expansion, take no determinant once the
lift's kernel is built. At n = 3, where no planar hull exists, each GKZ
vector must be the sum of the cells' determinants. The integer convexity
certificate must return what the pairwise `Fraction` products return, the
first failing pair and the caller's own witness object included. At n = 0
the reconstruction must return the order-cone search's entries and verdict,
from greedy vertices and one submodularity scan, with a failing pair that
fails at its witness, and without reading `cone_witnesses`, which refuses
n = 0.
"""

import itertools
import math
import operator
import random
from fractions import Fraction as F

import linalg_reference
import pytest
import quantity_reference as ref
from test_circuit_forms import coverage_table, random_table

from basecondary import core, exact_core, secondary, setfun
from basecondary.core import (
    cone_witnesses,
    convexity_certificate,
    eval_basecondary_general,
    eval_basecondary_generic,
    expansion_terms,
    gradient_on_cone,
    is_generic,
    min_convexifier,
    order_simplicial,
    reconstruct_polytope,
)
from basecondary.errors import InputError
from basecondary.exact_core import fiber_polygon, lattice_volume, make_config, oriented_volume
from basecondary.fiber_morse import build_delta_bar, maxwell_support, morse_config, morse_support
from basecondary.secondary import (
    area_N,
    discover_cones_random,
    enumerate_simplicial,
    enumerate_walls_1d,
    gkz_vector,
    secondary_support,
    upper_cells,
)
from basecondary.setfun import (
    KINDS,
    SetFunction,
    circuit_condition_check,
    evaluate_f,
    neg_card_ratio_function,
    neg_gcd_function,
)

CONFIGS = 40


def _config(rng, n, m):
    if n == 0:
        return make_config(0, [[] for _ in range(m)])
    if n == 1:
        return make_config(1, [[a] for a in rng.sample(range(-6, 8), m)])
    pts = set()  # a small grid: several points on one line
    while len(pts) < m:
        pts.add((rng.randint(0, 3), F(rng.randint(0, 6), rng.randint(1, 2))))
    return make_config(2, sorted(pts))


def _heights(rng, config):
    """Integers from 0..3, or an integer affine function with some points pushed down."""
    if rng.random() < 0.5:
        return tuple(F(rng.randint(0, 3)) for _ in range(config.m))
    slope = [rng.randint(-2, 2) for _ in range(config.n)]
    return tuple(
        F(sum(s * x for s, x in zip(slope, p)) - (rng.random() < 0.4) * rng.randint(1, 2))
        for p in config.points
    )


def _table(rng, config):
    """Small integer values on every set of size >= n, so differences often vanish."""
    values = {
        frozenset(sub): F(rng.randint(-3, 3))
        for r in range(max(1, config.n), config.m + 1)
        for sub in itertools.combinations(range(1, config.m + 1), r)
    }
    return SetFunction(kind="table", m=config.m, min_size=config.n, table=values)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_evaluator_and_secondary_support_match_the_references(n):
    rng = random.Random(f"one-route/{n}")
    ties = 0
    for _ in range(CONFIGS):
        config = _config(rng, n, rng.randint(n + 2, {0: 7, 1: 8, 2: 7}[n]))
        f = _table(rng, config)
        for _ in range(4):
            gamma = _heights(rng, config)
            ties += any(len(set(c.values)) < config.m - len(c.cell) + 1 for c in upper_cells(config, gamma))
            want = ref.eval_basecondary_general(config, f, gamma)
            assert repr(eval_basecondary_general(config, f, gamma)) == repr(want)
            assert repr(secondary_support(config, gamma)) == repr(ref.secondary_support(config, gamma))
    assert ties >= CONFIGS  # tail values do tie


def _set_function(rng, config, kind):
    """F of the kind with min_size n; a table lists about half its sets and has a rational default."""
    m, n = config.m, config.n
    if kind == "table":
        values = {
            frozenset(sub): F(rng.randint(-3, 3), rng.randint(1, 4))
            for r in range(max(1, n), m + 1)
            for sub in itertools.combinations(range(1, m + 1), r)
            if rng.random() < 0.5
        }
        default = F(rng.randint(-3, 3), rng.randint(1, 5))
        return SetFunction(kind="table", m=m, min_size=n, table=values, default=default)
    if kind == "neg_gcd":
        points = tuple(rng.choice([-6, -4, 2, 3, 9]) for _ in range(m))
        return SetFunction(kind=kind, m=m, min_size=n, gcd_points=points)
    if kind == "neg_indicator_full":
        return SetFunction(kind=kind, m=m, min_size=n, point=rng.randint(1, m))
    if kind == "matrix_rank":
        columns = tuple(tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)) for _ in range(m))
        return SetFunction(kind=kind, m=m, min_size=n, columns=columns)
    return SetFunction(kind=kind, m=m, min_size=n)


def _wide_rationals(rng, m):
    """Heights with denominators up to 10^9, so the scale dz is large; generic almost surely."""
    return tuple(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**9)) for _ in range(m))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_integer_evaluators_match_the_fraction_routes(n):
    rng = random.Random(f"integer-evaluators/{n}")
    wide = generic = 0
    for rep in range(CONFIGS):
        config = _config(rng, n, rng.randint(n + 2, {0: 7, 1: 8, 2: 7}[n]))
        f = _set_function(rng, config, KINDS[rep % len(KINDS)])
        ties, spread = _heights(rng, config), _wide_rationals(rng, config.m)
        wide += any(len(c.cell) > n + 1 for c in upper_cells(config, ties))
        for gamma in (ties, spread):
            want = ref.eval_basecondary_general(config, f, gamma)
            assert repr(eval_basecondary_general(config, f, gamma)) == repr(want), (config, f, gamma)
        if is_generic(config, spread):
            generic += 1
            assert repr(expansion_terms(config, f, spread)) == repr(ref.expansion_terms(config, f, spread))
            want = ref.eval_basecondary_generic(config, f, spread)
            assert repr(eval_basecondary_generic(config, f, spread)) == repr(want)
    assert wide >= CONFIGS // 4  # cells that are not simplices
    assert generic >= CONFIGS - 2


@pytest.mark.parametrize("points", [[1, 3, 6, 7], [1, 2, 3, 5, 8], [-3, -1, 1, 2, 4], [-8, -6, -3, -1, 3, 8]])
def test_morse_and_maxwell_supports_match_the_fraction_routes(points):
    mc = morse_config(points)
    rng = random.Random(f"supports/{points}")
    for rep in range(9):
        if rep % 3 == 0:
            gamma = [F(rng.randint(0, 12), rng.randint(1, 3)) for _ in points]
        elif rep % 3 == 1:  # tie-heavy
            gamma = [F(rng.randint(0, 2)) for _ in points]
        else:
            gamma = [abs(g) for g in _wide_rationals(rng, len(points))]
        assert repr(morse_support(mc, gamma)) == repr(ref.morse_support(mc, gamma)), gamma
        assert repr(maxwell_support(mc, gamma)) == repr(ref.maxwell_support(mc, gamma)), gamma
        below = [g - 1 for g in gamma]  # the Maxwell support takes heights of any sign
        assert repr(maxwell_support(mc, below)) == repr(ref.maxwell_support(mc, below))


SPATIAL = make_config(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 2], [2, -1, 1]])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_gradient_reads_the_circuit_forms_like_the_cofactors(n):
    rng = random.Random(f"gradient/{n}")
    generic = 0
    for rep in range(CONFIGS):
        config = SPATIAL if n == 3 else _config(rng, n, rng.randint(n + 2, {0: 7, 1: 8, 2: 7}[n]))
        values = {
            frozenset(sub): F(rng.randint(-10**6, 10**6), rng.randint(1, 10**9))
            for r in range(max(1, n), config.m + 1)
            for sub in itertools.combinations(range(1, config.m + 1), r)
            if rng.random() < 0.5
        }
        wide = SetFunction(kind="table", m=config.m, min_size=n, table=values, default=F(rng.randint(-9, 9), 10**9 + 7))
        zero = SetFunction(kind="table", m=config.m, min_size=n, table={})
        gcd = neg_gcd_function([rng.choice([-6, -4, 2, 3, 9]) for _ in range(config.m)], min_size=n)
        gamma = _wide_rationals(rng, config.m)
        if not is_generic(config, gamma):
            continue
        generic += 1
        for f in (_set_function(rng, config, KINDS[rep % len(KINDS)]), wide, zero, gcd):
            assert repr(gradient_on_cone(config, f, gamma)) == repr(ref.gradient_on_cone(config, f, gamma)), (config, f)
    assert generic >= CONFIGS - 2


PENTAGON = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])


@pytest.mark.parametrize("config", [make_config(1, [[1], [3], [6], [7]]), PENTAGON])
def test_gradient_takes_no_volume_beyond_the_expansion(config, monkeypatch):
    # once the kernel is built, every orientation and volume is a minor it holds
    calls = []
    real = exact_core._int_det
    monkeypatch.setattr(exact_core, "_int_det", lambda a: calls.append(a) or real(a))
    f = neg_card_ratio_function(config.m, min_size=config.n)  # every tail label is a term
    for t, w in cone_witnesses(config, samples=40, seed=1):
        calls.clear()
        terms = expansion_terms(config, f, w)
        gradient_on_cone(config, f, w)
        assert calls == [] and len(terms) >= len(t.cells)
        ref.gradient_on_cone(config, f, w)  # n + 2 facet determinants per term
        assert len(calls) == (config.n + 2) * len(terms)


@pytest.mark.parametrize("config", [make_config(1, [[1], [3], [6], [7], [10]]), PENTAGON])
def test_circuits_take_no_determinant_once_the_kernel_is_built(config, monkeypatch):
    # every circuit of A is read off the kernel's minors, so neither the check nor the walls eliminate
    config.lift_forms
    calls = []
    real = exact_core._int_det
    monkeypatch.setattr(exact_core, "_int_det", lambda a: calls.append(a) or real(a))
    report = circuit_condition_check(neg_card_ratio_function(config.m), config)
    assert len(report.rows) == math.comb(config.m, config.n + 2)
    if config.n == 1:
        assert enumerate_walls_1d(config)
    assert calls == []


@pytest.mark.parametrize("points", [PENTAGON.points, [[0, 0], [2, 0], [2, 2], [0, 2], [1, 0], [1, 1]]])
def test_refinement_hulls_the_kernel_coordinates(points, monkeypatch):
    # an affine height lifts every point onto one plane: one cell, refined by one hull of integers
    config = make_config(2, points)
    gamma = tuple(x - 2 * y + 1 for x, y in config.points)
    want = ref.secondary_support(config, gamma)  # refines by `_refine_cell` too
    hulls, rational = [], []
    real_hull, real_rational = exact_core._hull, exact_core.convex_hull_2d

    def hull(pts):
        hulls.append(pts := list(pts))
        return real_hull(pts)

    for module in (exact_core, secondary):
        monkeypatch.setattr(module, "_hull", hull, raising=False)
        monkeypatch.setattr(module, "convex_hull_2d", lambda pts: rational.append(pts) or real_rational(pts), raising=False)
    assert repr(secondary_support(config, gamma)) == repr(want)
    assert rational == [] and len(hulls) == 1
    assert all(type(c) is int for p in hulls[0] for c in p)


def test_general_evaluator_reads_simplex_volumes_off_the_scan_at_n3():
    # a simplex cell needs no hull, so n = 3 evaluates where the subdivision is a triangulation
    config = make_config(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 2], [2, -1, 1]])
    rng = random.Random("n3")
    for kind in KINDS:
        f = _set_function(rng, config, kind)
        for _ in range(4):
            gamma = _wide_rationals(rng, config.m)
            assert repr(eval_basecondary_general(config, f, gamma)) == repr(eval_basecondary_generic(config, f, gamma))
    with pytest.raises(InputError, match="ambient dimension <= 2"):  # a cell that is not a simplex takes its hull
        eval_basecondary_general(config, f, (0, 0, 0, 0, 0, -1))


def test_gkz_vectors_at_n3_are_determinant_sums():
    # gkz_vector once took a hull per cell, which exists only up to n = 2
    triangulations = discover_cones_random(SPATIAL, 60, 3)
    assert len(triangulations) >= 2
    for t, _ in triangulations:
        want = [F(0)] * SPATIAL.m
        for cell in t.cells:
            p0, *rest = SPATIAL.subset_points(cell)
            vol = abs(linalg_reference.det([[a - b for a, b in zip(p, p0)] for p in rest]))
            for i in cell:
                want[i - 1] += vol
        assert gkz_vector(SPATIAL, t) == tuple(want), t


def test_planar_lattice_volume_matches_its_own_hull():
    rng = random.Random("one-route/area")
    for _ in range(400):
        k = rng.randint(1, 7)
        if rng.random() < 0.2:  # collinear
            a, b = rng.randint(-2, 2), F(rng.randint(-3, 3), rng.randint(1, 3))
            pts = [(F(x), a * x + b) for x in (rng.randint(-4, 4) for _ in range(k))]
        else:
            pts = [(F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4))) for _ in range(k)]
        assert repr(lattice_volume(pts)) == repr(ref.lattice_volume(pts)), pts


def test_oriented_volume_runs_no_elimination(monkeypatch):
    calls = []
    for name in ("_bareiss",):
        real = getattr(exact_core, name)
        monkeypatch.setattr(exact_core, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    rng = random.Random("one-route/volume")
    for k in range(5):
        vertices = [tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)) for _ in range(k + 1)]
        rows = [[v[c] - vertices[0][c] for c in range(k)] for v in vertices[1:]]
        assert repr(oriented_volume(vertices)) == repr(linalg_reference.det(rows))
        # up to 2 x 2 a closed form; larger determinants eliminate in integers only
        assert set(calls) <= ({"_bareiss"} if k > 2 else set()), (k, calls)


def test_simplicial_orderings_read_the_lift_as_the_support_values_did():
    rng = random.Random("orderings/lift")
    answers = []
    for n in (0, 1, 2):
        for _ in range(CONFIGS):
            config = _config(rng, n, rng.randint(n + 2, 7))
            gamma = _heights(rng, config) if rng.random() < 0.5 else tuple(
                F(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(config.m))
            for s in enumerate_simplicial(config, gamma):
                got, want = (_ordering(route, config, gamma, s) for route in (order_simplicial, ref.order_simplicial))
                assert got == want, (config, gamma, s)
                answers.append(got)
    assert sum(isinstance(a, tuple) for a in answers) >= 150 and sum(isinstance(a, str) for a in answers) >= 25


def _ordering(route, config, gamma, s):
    """The ordered tuple, or the message of the InputError that refuses it."""
    try:
        return route(config, gamma, s).tuple
    except InputError as e:
        return str(e)


def test_each_threshold_set_costs_one_f_call(monkeypatch):
    # a fresh F per evaluation: each set's first read is one call of the integer reader
    calls = []
    real = setfun._mask_value
    monkeypatch.setattr(setfun, "_mask_value", lambda f, mask: calls.append(mask) or real(f, mask))
    config = make_config(0, [[] for _ in range(6)])
    for gamma, k in (((5, 5, 2, 2, 2, 0), 2), ((4, 1, 1, 1, 1, 1), 1), ((3,) * 6, 0)):
        f = SetFunction(kind="table", m=6, table={frozenset({1, 2, 3}): F(-1)}, default=F(1))
        calls.clear()
        assert eval_basecondary_general(config, f, gamma) == ref.eval_basecondary_general(config, f, gamma)
        assert len(calls) == (k + 1 if k else 0)  # the reference queries 2k sets
        assert len(calls) == len(set(calls))
    rng = random.Random("one-route/calls")
    for _ in range(CONFIGS):
        config = _config(rng, 1, rng.randint(3, 8))
        gamma = _heights(rng, config)
        sets = set()  # {v >= c} for every level c of every cell with more than one level
        for c in upper_cells(config, gamma):
            if len(levels := set(c.values)) > 1:
                sets |= {sum(1 << i for i, v in enumerate(c.values) if v >= top) for top in levels}
        calls.clear()
        eval_basecondary_general(config, _table(rng, config), gamma)
        assert sorted(calls) == sorted(sets)  # the cells share the set of every label


@pytest.mark.parametrize("points", [[1, 3, 6, 7], [1, 2, 3, 5, 8], [-3, -1, 1, 2, 4], [-8, -6, -3, -1, 3, 8]])
def test_pyramid_hull_vertices_give_the_fiber_of_all_points(points):
    mc = morse_config(points)
    rng = random.Random(f"pyramid/{points}")
    for rep in range(16):
        # rational, then tie-heavy integer heights
        gamma = [F(rng.randint(0, 12), rng.randint(1, 3)) if rep % 2 == 0 else F(rng.randint(0, 2)) for _ in points]
        got = fiber_polygon(build_delta_bar(mc, gamma)).vertices
        want = fiber_polygon(ref.build_delta_bar(mc, gamma)).vertices
        assert repr(got) == repr(want), (points, gamma)


def test_area_N_matches_its_own_hull(monkeypatch):
    hulls = []  # every hull is one `_hull`, `convex_hull_2d`'s included
    real = exact_core._hull
    for module in (exact_core, secondary):
        monkeypatch.setattr(module, "_hull", lambda pts: hulls.append(pts) or real(pts))
    rng = random.Random("one-route/area_N")
    for _ in range(CONFIGS):
        config = _config(rng, 1, rng.randint(2, 8))
        for rep in range(6):
            if rep % 3 == 0:  # rational
                gamma = tuple(F(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(config.m))
            else:  # tie-heavy integer
                gamma = tuple(F(rng.randint(0, 2)) for _ in range(config.m))
            hulls.clear()
            got = area_N(config, gamma)
            assert not hulls
            assert repr(got) == repr(ref.area_N(config, gamma)), (config, gamma)


def _certificate_entries(rng):
    """Entries to certify: reconstructions at n = 0, 1 and 2, each also with one gradient negated or
    perturbed; int-only entries; witnesses with negative entries and mixed denominators; single entries."""
    for n, top in ((0, 4), (1, 6), (2, 6)):
        for rep in range(12):
            config = _config(rng, n, rng.randint(n + 2, top))
            f = _set_function(rng, config, KINDS[rep % len(KINDS)])
            c = rng.choice([0, 0, F(rng.randint(1, 40), rng.randint(1, 3))])
            entries = list(reconstruct_polytope(config, f, c, samples=30, seed=rep).entries)
            yield entries
            j = rng.randrange(len(entries))
            w, g = entries[j]
            yield entries[:j] + [(w, tuple(-a for a in g))] + entries[j + 1:]
            k = rng.randrange(len(g))
            bumped = tuple(a + F(rng.randint(-5, 5), rng.randint(1, 9)) * (i == k) for i, a in enumerate(g))
            yield entries[:j] + [(w, bumped)] + entries[j + 1:]
            yield [entries[j]]
    for _ in range(40):
        m, size = rng.randint(2, 5), rng.randint(1, 6)
        yield [(tuple(rng.randint(-4, 4) for _ in range(m)), tuple(rng.randint(-3, 3) for _ in range(m)))
               for _ in range(size)]
        yield [(tuple(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(m)),
                tuple(F(rng.randint(-5, 5), rng.choice([1, 2, 3, 7, 10**9])) for _ in range(m)))
               for _ in range(size)]
    yield [((1, 1), (2, 3))]


def test_integer_certificate_matches_the_fraction_reference():
    rng = random.Random("certificate")
    verdicts = []
    for entries in _certificate_entries(rng):
        got = convexity_certificate(entries)
        assert repr(got) == repr(ref.convexity_certificate(entries)), entries
        ok, failure = got
        if not ok:
            assert failure[0] is entries[failure[1]][0]
        verdicts.append(ok)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def _n0_table(rng, rep):
    """A random table, a coverage table (submodular) or one with singletons lowered (submodular above size 1)."""
    m = rng.randint(2, 5)
    if rep % 3 == 0:
        return random_table(rng, m)
    return coverage_table(rng, m, lowered=rng.randint(1, m) if rep % 3 == 2 else 0)


def test_n0_reconstruction_matches_the_order_cone_search():
    # h + c max(gamma) is the Lovász extension of G = F - F(N) + c on nonempty sets
    rng = random.Random("order cones")
    verdicts = []
    for rep in range(36):
        f = _n0_table(rng, rep)
        config = make_config(0, [[] for _ in range(f.m)])
        try:
            result = min_convexifier(config, f)
        except InputError:  # not submodular above size 1: no c convexifies
            least = None
        else:  # the least c, also below 0, where min_convexifier answers 0
            least = max(-d_f / vol for _, d_f, vol in result.walls)
            assert result.value == max(0, least)
        base = F(0) if least is None else least
        for c in (F(-rng.randint(1, 8), 2), F(0), base, base - F(1, 2), F(100)):
            got = reconstruct_polytope(config, f, c)
            entries, (ok, _) = ref.order_cone_polytope(config, f, c)
            assert repr(got.entries) == repr(entries), (f, c)
            assert got.certified == ok == (least is not None and c >= least), (f, c)
            if not ok:
                w, j, k = got.failure_witness
                order = sorted(range(1, f.m + 1), key=lambda i: -w[i - 1])
                g = list(ref.greedy_vertex(f, order))
                g[order[0] - 1] += c - evaluate_f(f, f.ground())
                assert entries[j][1] == tuple(g)
                assert sum(map(operator.mul, entries[k][1], w)) > sum(map(operator.mul, g, w))
            verdicts.append(ok)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_n0_reconstruction_takes_one_scan_and_no_pairs(monkeypatch):
    # no expansion per order cone and no pairwise certificate: the greedy vertices and one submodularity scan
    calls = []
    for name in ("convexity_certificate", "_expansion_summands", "is_submodular_above"):
        real = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    rng = random.Random(27)
    config = make_config(0, [[] for _ in range(5)])
    verdicts = []
    for f, c in ((coverage_table(rng, 5), 100), (coverage_table(rng, 5), -100), (random_table(rng, 5), 100)):
        calls.clear()
        verdicts.append(reconstruct_polytope(config, f, c).certified)
        assert calls == ["is_submodular_above"]
    assert verdicts == [True, False, False]


def test_n0_reconstruction_walks_the_orders_without_cone_witnesses(monkeypatch):
    # one walk over the label orders: no (subdivision, witness) pair per order, a witness only per entry
    def refuse(*args, **kwargs):
        raise AssertionError("n = 0 reconstruction read cone_witnesses")

    monkeypatch.setattr(core, "cone_witnesses", refuse)
    rng = random.Random("order walk")
    verdicts = []
    for m in range(2, 6):
        config = make_config(0, [[] for _ in range(m)])
        for f in (random_table(rng, m), coverage_table(rng, m), coverage_table(rng, m, lowered=1)):
            for c in (F(-3, 2), F(0), F(100)):
                got = reconstruct_polytope(config, f, c)
                entries, (ok, _) = ref.order_cone_polytope(config, f, c)
                assert repr(got.entries) == repr(entries), (f, c)
                assert got.certified == ok, (f, c)
                verdicts.append(ok)
    assert verdicts.count(True) >= 8 and verdicts.count(False) >= 8


def test_n0_cone_witnesses_are_refused():
    # n = 0 cones are label orders, which reconstruct_polytope walks; the n >= 2 sampling message would mislead
    with pytest.raises(InputError, match="n = 0 cones are label orders"):
        cone_witnesses(make_config(0, [[], [], []]))
