"""The lift against a brute-force oracle: every (n+1)- and (n+2)-subset scanned.

The oracle below is the subset scan the library used before it computed one
lift per height vector: an affine solve per subset, one pass each for the
upper cells, the simplicial supports and the circuital supports, with
genericity read off all three. Results must agree exactly, Fraction types included.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import time
from fractions import Fraction as F

import pytest
import quantity_reference as ref

from basecondary.core import (
    CircuitalSupport,
    SimplicialSupport,
    enumerate_circuital,
    enumerate_simplicial,
    eval_basecondary_generic,
    is_generic,
)
from basecondary.secondary import Subdivision, discover_cones_random
from basecondary import core, exact_core, secondary
from basecondary.cli import main
from basecondary.fiber_morse import maxwell_support, morse_config, morse_support
from basecondary.errors import ResourceError
from basecondary.exact_core import (
    CIRCUIT_FORM_CAP,
    VOLUME_STEP_CAP,
    affine_rank,
    check_lift_size,
    clear_denominators,
    find_circuit,
    make_config,
    solve_linear,
)
from basecondary.secondary import RANDOM_HEIGHT_BOUND, UpperCell, upper_cells
from basecondary.setfun import neg_card_ratio_function


def _fit(config, gamma, labels):
    """(L, c) with gamma = L o A + c on `labels`, or None."""
    n = config.n
    if len(labels) > n + 1:
        for sub in itertools.combinations(labels, n + 1):
            if affine_rank(config.subset_points(sub)) == n:
                fit = _fit(config, gamma, sub)
                if fit is None:
                    return None
                linear, const = fit
                for i in labels:
                    p = config.image(i)
                    if sum(linear[c] * p[c] for c in range(n)) + const != gamma[i - 1]:
                        return None
                return fit
        return None
    sol = solve_linear(
        [list(config.image(i)) + [F(1)] for i in labels], [gamma[i - 1] for i in labels]
    )
    return None if sol is None else (tuple(sol[:n]), sol[n])


def _values(config, gamma, linear):
    return tuple(
        gamma[i - 1] - sum(linear[c] * config.points[i - 1][c] for c in range(config.n))
        for i in range(1, config.m + 1)
    )


def _peaks(config, gamma, size):
    """(base, linear, top, values) for each spanning `size`-subset that is a maximizer set."""
    for base in itertools.combinations(range(1, config.m + 1), size):
        if affine_rank(config.subset_points(base)) != config.n:
            continue
        fit = _fit(config, gamma, base)
        if fit is None:
            continue
        values = _values(config, gamma, fit[0])
        top = max(values)
        if tuple(i for i in range(1, config.m + 1) if values[i - 1] == top) == base:
            yield base, fit[0], top, values


def oracle_upper_cells(config, gamma):
    out = {}
    for base in itertools.combinations(range(1, config.m + 1), config.n + 1):
        if affine_rank(config.subset_points(base)) != config.n:
            continue
        fit = _fit(config, gamma, base)
        if fit is None:
            continue
        values = _values(config, gamma, fit[0])
        top = max(values)
        cell = tuple(i for i in range(1, config.m + 1) if values[i - 1] == top)
        if cell not in out and affine_rank(config.subset_points(cell)) == config.n:
            out[cell] = UpperCell(cell=cell, linear=fit[0], max_value=top, values=values)
    return tuple(sorted(out.values(), key=lambda c: c.cell))


def oracle_simplicial(config, gamma):
    out = []
    for base, linear, top, values in _peaks(config, gamma, config.n + 1):
        off = [values[i - 1] for i in range(1, config.m + 1) if i not in base]
        out.append(SimplicialSupport(linear, top, base, len(off) == len(set(off))))
    return tuple(out)


def oracle_circuital(config, gamma):
    return tuple(
        CircuitalSupport(linear, top, base, find_circuit(config.subset_points(base), list(base)))
        for base, linear, top, _ in _peaks(config, gamma, config.n + 2)
    )


def _config(rng, n, m, rational):
    if n == 0:
        return make_config(0, [[] for _ in range(m)])
    if n == 1:  # labels deliberately not in coordinate order
        return make_config(1, [[a] for a in rng.sample(range(-9, 12), m)])
    # grid points, or rationals with small denominators: both put several
    # points on one line or plane
    coordinate = (lambda: F(rng.randint(0, 8), rng.randint(1, 3))) if rational else (lambda: rng.randint(0, 4))
    pts = set()
    while len(pts) < m:
        pts.add(tuple(coordinate() for _ in range(n)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return make_config(n, pts)


def _heights(rng, config, kind):
    if kind == "generic":
        return tuple(F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(config.m))
    if kind == "random":  # as discover_cones_random draws them
        bound = RANDOM_HEIGHT_BOUND
        return tuple(F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(config.m))
    if kind == "ties":
        return tuple(F(rng.randint(0, 3)) for _ in range(config.m))
    # an integer affine function with some points pushed down: many lifted
    # points on one line (n = 1) or plane (n = 2) of the upper hull
    slope = [rng.randint(-2, 2) for _ in range(config.n)]
    const = rng.randint(-3, 3)
    return tuple(
        F(sum(s * x for s, x in zip(slope, p)) + const - (rng.random() < 0.4) * rng.randint(1, 3))
        for p in config.points
    )


KINDS = ("generic", "ties", "affine", "random")
SIZES = {0: range(2, 9), 1: range(2, 15), 2: range(3, 8), 3: range(4, 8)}
REPEATS = {0: 6, 1: 3, 2: 6, 3: 6}
# 168 + 156 + 120 + 120 + 96 = 660 seeded instances
CASES = [
    pytest.param(0, False, id="0"),
    pytest.param(1, False, id="1"),
    pytest.param(2, False, id="2"),
    pytest.param(2, True, id="2-rational"),
    pytest.param(3, False, id="3"),
]


@pytest.mark.parametrize("n, rational", CASES)
def test_lift_matches_subset_scan(n, rational):
    collinear = 0
    for m, kind, rep in itertools.product(SIZES[n], KINDS, range(REPEATS[n])):
        rng = random.Random(f"lift/{n}{'/rational' * rational}/{m}/{kind}/{rep}")
        config = _config(rng, n, m, rational)
        gamma = _heights(rng, config, kind)
        cells = upper_cells(config, gamma)
        want_cells = oracle_upper_cells(config, gamma)
        want_simplicial = oracle_simplicial(config, gamma)
        want_circuital = oracle_circuital(config, gamma)
        assert repr(cells) == repr(want_cells), (config, gamma)
        assert repr(enumerate_simplicial(config, gamma)) == repr(want_simplicial)
        assert repr(enumerate_circuital(config, gamma)) == repr(want_circuital)
        assert is_generic(config, gamma) == (
            all(len(c.cell) == n + 1 for c in want_cells)
            and all(s.generic for s in want_simplicial)
            and not want_circuital
        )
        collinear += any(len(c.cell) > n + 1 for c in cells)
    # the tie-heavy heights do put more than n+1 lifted points on one upper face
    assert collinear >= 10


@pytest.mark.parametrize("n", [2, 3])
def test_lift_runs_no_elimination_for_n_at_least_2(monkeypatch, n):
    calls = []
    for module in (exact_core, secondary):
        for name in ("solve_linear",):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    rng = random.Random(f"no-elimination/{n}")
    config = _config(rng, n, 6, rational=True)
    cells = upper_cells(config, _heights(rng, config, "random"))
    assert cells and calls == []


def reference_discover(config, samples, seed):
    """Cone discovery as one `upper_cells` lift per sample, genericity read off its cells."""
    rng = random.Random(seed)
    bound = secondary.RANDOM_HEIGHT_BOUND
    found = {}
    for _ in range(samples):
        gamma = tuple(F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(config.m))
        cells = upper_cells(config, gamma)
        key = tuple(c.cell for c in cells)
        if key not in found and ref.is_generic_lift(config.n, cells):
            found[key] = (Subdivision(n=config.n, cells=key), gamma)
    return tuple(found[key] for key in sorted(found))


PENTAGON = make_config(2, [[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])
COLLINEAR_TRIPLE = make_config(2, [[0, 0], [1, 1], [2, 2]])


@pytest.mark.parametrize("n, rational", CASES[2:])
def test_integer_discovery_matches_the_lift(monkeypatch, n, rational):
    """120 seeded configurations with collinear or coplanar points (40 per case)."""
    for m, rep in itertools.product(SIZES[n], range(40 // len(SIZES[n]))):
        rng = random.Random(f"discover/{n}{'/rational' * rational}/{m}/{rep}")
        config = _config(rng, n, m, rational)
        for kind in KINDS:
            gamma = _heights(rng, config, kind)
            assert is_generic(config, gamma) == ref.is_generic_lift(n, upper_cells(config, gamma)), (config, gamma)
        with monkeypatch.context() as patch:
            # heights from -3..3 over 1..3 tie often; the default bound almost never does
            patch.setattr(secondary, "RANDOM_HEIGHT_BOUND", 3)
            assert repr(discover_cones_random(config, 30, rep)) == repr(reference_discover(config, 30, rep))
        assert repr(discover_cones_random(config, 10, rep)) == repr(reference_discover(config, 10, rep))


def test_the_genericity_scan_clears_no_height_twice(monkeypatch):
    # the expansion clears a fresh height vector once; discovery draws integers and clears none
    calls = []
    for module in (core, secondary):
        real = module.clear_denominators
        monkeypatch.setattr(module, "clear_denominators", lambda cs, _real=real: calls.append(cs) or _real(cs))
    rng = random.Random("clear-once")
    for n, m in ((0, 4), (1, 5), (2, 5)):
        config = _config(rng, n, m, True)
        f = neg_card_ratio_function(m, min_size=n)
        gamma = tuple(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**9)) for _ in range(m))
        calls.clear()
        eval_basecondary_generic(config, f, gamma)
        assert len(calls) == 1, (config, gamma)
    calls.clear()
    discover_cones_random(PENTAGON, 200, 41)
    assert calls == []


def test_integer_discovery_on_the_pentagon_and_a_collinear_triple():
    assert repr(discover_cones_random(PENTAGON, 200, 41)) == repr(reference_discover(PENTAGON, 200, 41))
    found = discover_cones_random(COLLINEAR_TRIPLE, 5, 1)
    assert repr(found) == repr(reference_discover(COLLINEAR_TRIPLE, 5, 1))
    assert [sub.cells for sub, _ in found] == [()]  # no full-dimensional cell, generic
    assert is_generic(COLLINEAR_TRIPLE, (F(0), F(1), F(0)))


@pytest.mark.parametrize("n", [2, 3])
def test_discovery_makes_no_lift_for_n_at_least_2(monkeypatch, n):
    calls = []
    real = secondary.upper_cells
    monkeypatch.setattr(secondary, "upper_cells", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(f"no-lift/{n}")
    config = _config(rng, n, 6, rational=True)
    assert discover_cones_random(config, 20, 1)
    is_generic(config, _heights(rng, config, "ties"))
    assert calls == []


COPLANAR_3D = make_config(3, [[0, 0, 0], [1, 0, 0], [0, 2, 0], [1, 1, 0], [F(1, 2), 3, 0]])


def _fixed_scan_cases(n):
    """Non-spanning sets and, for n = 2, the pentagon, each at every height kind."""
    configs = [COLLINEAR_TRIPLE, PENTAGON] if n == 2 else [COPLANAR_3D]
    rng = random.Random(f"forms/fixed/{n}")
    for config in configs:
        for kind in KINDS:
            yield config, _heights(rng, config, kind)


@pytest.mark.parametrize("n, rational", CASES[2:])
def test_circuit_forms_reproduce_the_normal_scan(n, rational):
    """The same cells, first bases and integer heights, in the same order, as a normal per base.

    The seeded configurations of `test_lift_matches_subset_scan`, with grid
    or small-denominator points (coplanar runs) and generic, tie-heavy,
    affine and discovery heights; plus non-spanning sets, which yield nothing.
    """
    cases = [
        (config, _heights(rng, config, kind))
        for m, kind, rep in itertools.product(SIZES[n], KINDS, range(REPEATS[n]))
        for rng in [random.Random(f"lift/{n}{'/rational' * rational}/{m}/{kind}/{rep}")]
        for config in [_config(rng, n, m, rational)]
    ] + list(_fixed_scan_cases(n))
    below = 0
    for config, gamma in cases:
        zs = clear_denominators(gamma)[0]
        got = [(cell, base[0], heights) for cell, base, heights in secondary._oriented_scan(config, zs)]
        want = [(cell, b, heights) for cell, b, _, heights, _, _ in ref._oriented_scan(config, gamma)]
        assert got == want, (config, gamma)
        below += sum(h < 0 for _, _, heights in got for h in heights)
    assert below > 100  # the heights of points strictly below are compared, not only the zeros


def test_lift_forms_are_built_once_per_config(monkeypatch):
    dets = []
    real = exact_core._int_det
    monkeypatch.setattr(exact_core, "_int_det", lambda a: dets.append(a) or real(a))
    counts = []
    for samples in (20, 200):
        dets.clear()
        discover_cones_random(make_config(2, PENTAGON.points), samples, 41)
        counts.append(len(dets))
    assert counts[0] == counts[1] > 0  # one volume per base, none per sample
    config, fresh = make_config(2, PENTAGON.points), make_config(2, PENTAGON.points)
    dets.clear()
    is_generic(config, (F(0), F(1), F(5), F(2), F(3)))
    forms, built = config.lift_forms, len(dets)
    is_generic(config, (F(1), F(1), F(1), F(1), F(1)))
    assert built == counts[0] and len(dets) == built and config.lift_forms is forms
    assert "lift_forms" in vars(config) and "lift_forms" not in vars(fresh)
    assert config == fresh and hash(config) == hash(fresh) and repr(config) == repr(fresh)


@pytest.mark.parametrize("route", ["eval", "morse-support"])
def test_a_huge_listed_configuration_is_refused_before_its_kernel(monkeypatch, route):
    # C(300, 3) = 4,455,100 circuit forms: refused before the kernel takes a volume, and a refused
    # cached_property stores nothing, so the next read is refused again
    dets = []
    monkeypatch.setattr(exact_core, "_int_det", dets.append)
    exponents = morse_config(list(range(1, 301)))
    config = make_config(1, [[a] for a in range(1, 301)]) if route == "eval" else exponents.config()
    message = "lift kernel capped at 500000 circuit forms; m = 300 at n = 1 has 4455100"
    start = time.perf_counter()
    with pytest.raises(ResourceError) as refused:
        if route == "eval":
            core.eval_basecondary_general(config, neg_card_ratio_function(300, min_size=1), [0] * 300)
        else:
            morse_support(exponents, [0] * 300)
    assert time.perf_counter() - start < 1 and str(refused.value) == message
    assert not dets and "lift_forms" not in vars(config)
    with pytest.raises(ResourceError) as again:
        config.lift_forms
    assert str(again.value) == message and "lift_forms" not in vars(config)


@pytest.mark.parametrize("n, m, forms", [(1, 145, 497_640), (1, 146, 508_080), (2, 60, 487_635), (2, 61, 521_855)])
def test_the_kernel_cap_edges(n, m, forms):
    # the helper counts C(m, n + 2) and builds nothing; the n = 0 edges, m = 1000 and 1001, run through the CLI
    assert math.comb(m, n + 2) == forms
    if forms <= CIRCUIT_FORM_CAP:
        assert check_lift_size(n, m) is None
    else:
        with pytest.raises(ResourceError) as refused:
            check_lift_size(n, m)
        assert str(refused.value) == f"lift kernel capped at 500000 circuit forms; m = {m} at n = {n} has {forms}"


@pytest.mark.parametrize("n, m, steps", [(3, 37, 1_783_215), (5, 25, 22_137_500), (6, 20, 16_744_320),
                                         (6, 21, 25_116_480), (30, 33, 14_256_000), (40, 42, 2_688_000),
                                         (40, 43, 57_792_000)])
def test_the_volume_step_cap_edges(n, m, steps):
    # below m = 2 (n + 1) the kernel's cost is its C(m, n + 1) n x n volumes, counted at n^3 steps each; the form
    # cap binds first up to n = 5, where m = 37 at n = 3 and m = 25 at n = 5 are admitted by both counts
    assert math.comb(m, n + 1) * n**3 == steps and math.comb(m, n + 2) <= CIRCUIT_FORM_CAP
    if steps <= VOLUME_STEP_CAP:
        assert check_lift_size(n, m) is None
    else:
        with pytest.raises(ResourceError) as refused:
            check_lift_size(n, m)
        assert str(refused.value) == f"lift kernel capped at 25000000 volume steps; m = {m} at n = {n} has {steps}"


@pytest.mark.parametrize("n, m", [(40, 43), (60, 63)])
def test_a_near_simplex_is_refused_before_its_volumes(monkeypatch, capsys, tmp_path, n, m):
    # m = n + 3 seeded points in [-5, 5]^n, documents of 6 and 13 KB: their 903 and 1,953 volumes of n x n
    # determinants, well under the form cap, would take seconds to build
    dets = []
    monkeypatch.setattr(exact_core, "_int_det", dets.append)
    rng = random.Random(f"near-simplex/{n}")
    points = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    path = tmp_path / "near_simplex.json"
    path.write_text(json.dumps({"n": n, "A": points, "F": {"kind": "neg_card_ratio"}, "gamma": [0] * m}))
    steps = math.comb(m, n + 1) * n**3
    start = time.perf_counter()
    code = main(["eval", "--input", str(path)])
    assert time.perf_counter() - start < 1 and not dets
    assert (code, json.loads(capsys.readouterr().out)) == (
        2, {"error": f"lift kernel capped at 25000000 volume steps; m = {m} at n = {n} has {steps}"})


class _CountedTable(tuple):
    """A circuit table that counts its reads: one per circuit form the scan sums."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


def _count_circuit_reads(config):
    """Swap a counting table into the config's kernel and return it."""
    table = _CountedTable(config.lift_forms.circuits)
    vars(config)["lift_forms"] = config.lift_forms._replace(circuits=table)
    return table


def _scan_types(scan):
    return [(cell, base, [type(h) for h in heights]) for cell, base, heights in scan]


@pytest.mark.parametrize("n, rational", CASES)
def test_each_circuit_form_is_summed_at_most_once_per_lift(n, rational):
    """The scan against `form_scan` on the 660 seeded instances of `test_lift_matches_subset_scan`.

    The same (cell, base, heights), in the same order and of the same types,
    for the heights cleared to integers; and each scan sums
    at most C(m, n + 2) circuit forms, and no more than the form table did.
    """
    saved = 0
    for m, kind, rep in itertools.product(SIZES[n], KINDS, range(REPEATS[n])):
        rng = random.Random(f"lift/{n}{'/rational' * rational}/{m}/{kind}/{rep}")
        config = _config(rng, n, m, rational)
        gamma = _heights(rng, config, kind)
        table = _count_circuit_reads(config)
        zs = clear_denominators(gamma)[0]
        table.reads = 0
        got = list(secondary._oriented_scan(config, zs))
        want, sums = ref.form_scan(config, zs)
        assert got == want and _scan_types(got) == _scan_types(want), (config, gamma)
        assert table.reads <= min(math.comb(m, n + 2), sums), (config, gamma)
        saved += sums - table.reads
    assert saved > 0


def test_a_pentagon_lift_sums_at_most_its_five_circuit_forms():
    config = make_config(2, PENTAGON.points)
    table = _count_circuit_reads(config)
    draw = exact_core.rational_draws(41, RANDOM_HEIGHT_BOUND)
    reads, sums = [], 0
    for _ in range(200):
        draws = draw(config.m)
        d = math.lcm(*(q for _, q in draws))
        zs = [p * (d // q) for p, q in draws]
        want, form_sums = ref.form_scan(config, zs)
        table.reads = 0
        assert list(secondary._oriented_scan(config, zs)) == want
        reads.append(table.reads)
        sums += form_sums
    assert max(reads) <= 5 and sums >= 2 * sum(reads), (sum(reads), sums)  # the form table sums about 15 per lift


# ---------------------------------------------------------------------------
# the kept lift: each configuration keeps the scan of its last height vector

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def _count_scans(monkeypatch):
    """The integer vectors of the real scans from here on: `_lift` calls `_oriented_scan` only on a miss."""
    scans = []
    real = secondary._oriented_scan
    monkeypatch.setattr(secondary, "_oriented_scan", lambda config, zs: scans.append(tuple(zs)) or real(config, zs))
    return scans


def _every_lift_route(config, f, gamma):
    """Each route that evaluates at the heights it is given, in turn; the expansion's only where they are generic."""
    core.eval_basecondary_general(config, f, gamma)
    if is_generic(config, gamma):
        eval_basecondary_generic(config, f, gamma)
        core.expansion_terms(config, f, gamma)
        core.gradient_on_cone(config, f, gamma)
    upper_cells(config, gamma)
    enumerate_simplicial(config, gamma)
    enumerate_circuital(config, gamma)
    secondary.regular_subdivision(config, gamma)
    secondary.secondary_support(config, gamma)


def test_general_then_generic_evaluation_scans_once(monkeypatch):
    scans = _count_scans(monkeypatch)
    rng = random.Random("kept-lift/evaluators")
    for n, m in ((0, 5), (1, 7), (2, 6)):
        config = _config(rng, n, m, rational=True)
        f = neg_card_ratio_function(m, min_size=n)
        gamma = _heights(rng, config, "random")
        assert is_generic(make_config(n, config.points), gamma)  # an equal config: its own lift
        scans.clear()
        assert core.eval_basecondary_general(config, f, gamma) == eval_basecondary_generic(config, f, gamma)
        assert scans == [tuple(clear_denominators(gamma)[0])]
        _every_lift_route(config, f, gamma)
        assert len(scans) == 1


def test_bck_simplicial_scans_once(monkeypatch):
    # enumerate_simplicial and is_generic read one lift of the document's gamma
    scans = _count_scans(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simplicial", "--input", os.path.join(FIXTURES, "a1367_gcd.json")]) == 0
    assert json.loads(out.getvalue())["generic"] is True
    assert scans == [(2, 4, 5, 3)]


def test_morse_and_maxwell_supports_share_one_scan(monkeypatch):
    scans = _count_scans(monkeypatch)
    mc = morse_config([1, 3, 6, 7])
    morse_support(mc, (1, 2, 3, 5))
    assert len(scans) == 1  # the basecondary value scans, the secondary support reads its lift
    maxwell_support(mc, (1, 2, 3, 5))
    assert len(scans) == 1
    maxwell_support(mc, (1, 2, 3, 6))
    assert len(scans) == 2


def test_new_heights_or_an_equal_config_scan_again(monkeypatch):
    scans = _count_scans(monkeypatch)
    config, twin = make_config(1, [[1], [3], [6], [7]]), make_config(1, [[1], [3], [6], [7]])
    calls = (
        (config, (2, 4, 5, 3), 1),
        (config, (2, 4, 5, 3), 1),  # the kept lift
        (config, (1, 2, F(5, 2), F(3, 2)), 1),  # clears to the same integers: the same lift
        (twin, (2, 4, 5, 3), 2),  # equal, but a config of its own
        (config, (2, 4, 5, 4), 3),
        (config, (2, 4, 5, 3), 4),  # one entry: the lift before last is gone
        (config, (4, 8, 10, 6), 5),  # other integers, though the same cells
    )
    for c, gamma, count in calls:
        is_generic(c, gamma)
        assert len(scans) == count, gamma
    assert config == twin and hash(config) == hash(twin) and repr(config) == repr(twin)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_the_kept_lift_is_the_streaming_scan(monkeypatch, n):
    """After every lift route ran at seeded heights (ties and affine heights included), one scan, unmutated."""
    scans = _count_scans(monkeypatch)
    rng = random.Random(f"kept-lift/{n}")
    generic = 0
    for m, kind in itertools.product(SIZES[n], KINDS):
        config = _config(rng, n, m, rational=n == 2)
        gamma = _heights(rng, config, kind)
        zs = tuple(clear_denominators(gamma)[0])
        scans.clear()
        _every_lift_route(config, neg_card_ratio_function(m, min_size=n), gamma)
        kept = vars(config)["last_lift"]
        assert scans == [zs] and kept == (zs, list(secondary._oriented_scan(config, zs))), (config, gamma)
        assert _scan_types(kept[1]) == _scan_types(secondary._oriented_scan(config, zs))
        generic += is_generic(config, gamma)
    assert 0 < generic < len(SIZES[n]) * len(KINDS)


def test_the_samplers_never_read_the_kept_lift(monkeypatch):
    def refuse(*args):
        raise AssertionError("a seeded sampler read the kept lift")

    monkeypatch.setattr(secondary, "_lift", refuse)
    pentagon = make_config(2, PENTAGON.points)
    assert len(discover_cones_random(pentagon, 200, 41)) == 5
    config = make_config(1, [[1], [3], [6], [7]])
    for t in secondary.enumerate_triangulations_1d(config):
        secondary.cone_witness(config, t)
    assert "last_lift" not in vars(pentagon) and "last_lift" not in vars(config)
