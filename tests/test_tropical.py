"""Tropical univariate polynomials: envelopes, degeneracy, Morse tests."""

from fractions import Fraction as F

import functools
import itertools
import json
import math
import os
import random
import time
import tracemalloc

import pytest

import tropical_reference
from basecondary import tropical
from basecondary.errors import InputError
from basecondary.exact_core import clear_denominators
from basecondary.tropical import (
    TropicalPolynomial,
    critical_points,
    is_morse,
    sample_morse_fraction,
    tropical_polynomial,
)


def test_validation():
    with pytest.raises(InputError):
        tropical_polynomial([0], [1])
    with pytest.raises(InputError):
        tropical_polynomial([0, 0], [1, 2])
    with pytest.raises(InputError):
        tropical_polynomial([1, 0], [1, 2])


def test_single_breakpoint():
    p = tropical_polynomial([1, 2], [0, 0])
    cps = critical_points(p)
    assert len(cps) == 1
    assert cps[0].location == 0 and cps[0].value == 0
    assert not cps[0].degenerate
    assert is_morse(p).morse
    # one nonzero exponent: x f' has a single term and no root
    constant = tropical_polynomial([0, 1], [0, 0])
    assert critical_points(constant) == () and is_morse(constant).morse


def test_two_breakpoints():
    p = tropical_polynomial([1, 2, 3], [0, 0, -1])
    cps = critical_points(p)
    assert [(cp.location, cp.value) for cp in cps] == [(0, 0), (1, 2)]
    assert all(not cp.degenerate for cp in cps)
    assert is_morse(p).morse
    assert not tropical_reference.has_degenerate_root(p)
    # a constant term adds no breakpoint, wherever it lies
    assert critical_points(tropical_polynomial([0, 1, 2, 3], [7, 0, 0, -1])) == cps


def test_triple_tie_degenerate():
    p = tropical_polynomial([1, 2, 3], [0, 0, 0])
    cps = critical_points(p)
    assert len(cps) == 1
    assert cps[0].location == 0
    assert len(cps[0].tie_pairs) == 3
    assert cps[0].degenerate
    assert tropical_reference.has_degenerate_root(p)
    report = is_morse(p)
    assert not report.morse and "degenerate_critical_point" in report.reasons


def _with_constant(support, coeffs, c0):
    return tropical_polynomial(support, [c0 if a == 0 else c for a, c in zip(support, coeffs)])


def test_verdicts_do_not_depend_on_the_constant_term():
    # f + k has the critical points of f, its values moved by k: neither is_morse nor the sampler reads c0
    rng = random.Random("tropical/constant")
    for support in ([-1, 0, 1], [-1, 0, 2], [-2, -1, 0, 3, 5], [-6, 0, 2, 5], [0, 1, 2]):
        for _ in range(300):
            coeffs = [F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in support]
            want = is_morse(tropical_polynomial(support, coeffs))
            for c0 in (F(-10**6), F(10**6), F(rng.randint(-20, 20), 7)):
                assert is_morse(_with_constant(support, coeffs, c0)) == want, (support, coeffs, c0)
        for seed, bound in enumerate(TIE_HEAVY_BOUNDS + (None,)):
            draws, b = random.Random(seed), bound or tropical.DEFAULT_COEFF_BOUND  # the sampler's stream
            want = []
            for _ in range(200):
                coeffs = tuple(F(draws.randint(-b, b), draws.randint(1, b)) for _ in support)
                if reasons := is_morse(_with_constant(support, coeffs, F(-10**6))).reasons:
                    want.append((coeffs, reasons))
            assert sample_morse_fraction(support, 200, seed, bound).non_morse == tuple(want), (support, seed)


def test_two_term_polynomial_never_degenerate():
    rng = random.Random(1)
    for _ in range(20):
        p = tropical_polynomial(
            sorted(rng.sample(range(-5, 6), 2)),
            [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2)],
        )
        assert not tropical_reference.has_degenerate_root(p)
        assert is_morse(p).morse


def test_coinciding_values_fixture():
    p = tropical_polynomial([-2, -1, 1, 2], [-2, 0, 0, -2])
    cps = critical_points(p)
    assert [cp.value for cp in cps] == [2, 0, 2]
    report = is_morse(p)
    assert not report.morse
    assert "coinciding_critical_values" in report.reasons
    (a, b, v), = report.value_collisions
    assert v == 2 and a == -2 and b == 2
    # the symmetric coefficients also tie the outer terms below the envelope
    # at the middle breakpoint, so the degenerate label appears as well
    assert cps[1].degenerate


def test_degenerate_point_fixture():
    p = tropical_polynomial([-1, 1, 2, 3], [0, 0, -1, -1])
    cps = critical_points(p)
    first = cps[0]
    assert first.location == 0
    assert (2, 3) in first.tie_pairs and (-1, 1) in first.tie_pairs
    assert first.degenerate
    report = is_morse(p)
    assert not report.morse
    assert "degenerate_critical_point" in report.reasons


def test_unique_maximizer_between_breakpoints():
    rng = random.Random(2)
    for _ in range(30):
        m = rng.randint(2, 6)
        p = tropical_polynomial(
            sorted(rng.sample(range(-6, 7), m)),
            [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(m)],
        )
        cps = critical_points(p)
        for cp in cps:
            values = p.term_values(cp.location)
            assert sum(1 for v in values if v == cp.value) >= 2
        locations = [cp.location for cp in cps]
        assert locations == sorted(locations)
        probes = []
        if locations:
            probes.append(locations[0] - 1)
            probes.append(locations[-1] + 1)
            for a, b in zip(locations, locations[1:]):
                probes.append((a + b) / 2)
        for x in probes:
            values = p.term_values(x)
            top = max(values)
            assert sum(1 for v in values if v == top) == 1


def test_translation_and_linear_equivariance():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(2, 5)
        support = sorted(rng.sample(range(-6, 7), m))
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(m)]
        p = tropical_polynomial(support, coeffs)
        base = critical_points(p)
        c = F(rng.randint(-5, 5), rng.randint(1, 2))
        shifted = tropical_polynomial(support, [x + c for x in coeffs])
        moved = critical_points(shifted)
        assert [cp.location for cp in moved] == [cp.location for cp in base]
        assert [cp.value for cp in moved] == [cp.value + c for cp in base]
        assert is_morse(shifted).morse == is_morse(p).morse
        t = F(rng.randint(-4, 4), rng.randint(1, 2))
        sheared = tropical_polynomial(support, [x + t * a for a, x in zip(support, coeffs)])
        slid = critical_points(sheared)
        assert [cp.location for cp in slid] == [cp.location - t for cp in base]
        assert is_morse(sheared).morse == is_morse(p).morse


def test_perturbation_forces_non_morse():
    rng = random.Random(4)
    forced = 0
    while forced < 15:
        m = rng.randint(3, 5)
        support = sorted(rng.sample(range(-6, 7), m))
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(m)]
        p = tropical_polynomial(support, coeffs)
        report = is_morse(p)
        cps = critical_points(p)
        if not report.morse or len(cps) < 2:
            continue
        # raise the last exponent's coefficient so the final breakpoint's
        # value matches the first one: solves one linear equation
        target = cps[0].value
        a_last = support[-1]
        a_prev = p.support[[i for i, v in enumerate(p.term_values(cps[-1].location)) if v == cps[-1].value][0]]
        # the last breakpoint is the crossing of the last envelope pair;
        # move c_last so that crossing value equals `target`
        i = len(support) - 1
        j = support.index(cps[-1].max_pair[0])
        ci, aj, cj = coeffs[i], support[j], coeffs[j]
        # crossing of terms j and i: x = (cj - c) / (ai - aj), value = cj + aj x
        # set value == target: cj + aj (cj - c)/(ai - aj) == target
        ai = support[i]
        c_new = cj - (target - cj) * F(ai - aj, aj) if aj != 0 else None
        if c_new is None:
            continue
        q = tropical_polynomial(support, coeffs[:i] + [c_new])
        qr = is_morse(q)
        values = [cp.value for cp in critical_points(q)]
        if target in values and values.count(target) >= 2:
            forced += 1
            assert not qr.morse


def test_sample_morse_fraction_deterministic():
    r1 = sample_morse_fraction([0, 1, 2], 500, seed=7)
    r2 = sample_morse_fraction([0, 1, 2], 500, seed=7)
    assert r1 == r2
    assert r1.fraction >= F(99, 100)
    two = sample_morse_fraction([3, 9], 200, seed=1)
    assert two.fraction == 1
    with pytest.raises(InputError):
        sample_morse_fraction([0, 1], 0, seed=1)


def test_coefficients_must_be_rational():
    with pytest.raises(InputError):
        TropicalPolynomial(support=(0, 1), coefficients=(F(0), 0.5))


def _oracle_polynomials():
    """22,000 seeded polynomials, m = 2..6: 20,000 with tie-heavy small
    coefficients p/q (|p| <= 4, q <= 3), 2,000 with denominators up to 10^4."""
    rng = random.Random("tropical-oracle")
    for k in range(22_000):
        m = rng.randint(2, 6)
        support = sorted(rng.sample(range(-6, 7), m))
        if k < 20_000:
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
        else:
            coeffs = [F(rng.randint(-10**4, 10**4), rng.randint(1, 10**4)) for _ in range(m)]
        yield tropical_polynomial(support, coeffs)


def test_integer_kernel_matches_the_fraction_reference(monkeypatch):
    polys = list(_oracle_polynomials())

    def three_at_the_maximum(p):  # read off the tie pairs, where the reference counts term values
        return any(sum(a == cp.max_pair[0] for a, _ in cp.tie_pairs) >= 2 for cp in tropical.critical_points(p))

    def answers(degenerate):
        return [(repr(tropical.critical_points(p)), repr(tropical.is_morse(p)), degenerate(p)) for p in polys]

    got = answers(three_at_the_maximum)
    with monkeypatch.context() as patch:  # each reference evaluation made once
        cached = functools.cache(tropical_reference.critical_points)
        for module in (tropical, tropical_reference):
            patch.setattr(module, "critical_points", cached)
        patch.setattr(tropical, "is_morse", tropical_reference.is_morse)
        want = answers(tropical_reference.has_degenerate_root)
    for p, g, w in zip(polys, got, want):
        assert g == w, p
    # the small coefficients make degenerate points common; two critical values coincide on 54 polynomials
    assert sum("degenerate=True" in g[0] for g in got) >= 1000
    assert sum("coinciding_critical_values" in g[1] for g in got) >= 50
    assert sum(g[2] for g in got) >= 500


# the last two have exponents of one sign: their envelope is monotone, so no two critical values can coincide
SAMPLED_SUPPORTS = [
    [0, 1, 2], [3, 9], [-2, -1, 1, 2], [0, 1, 3, 4, 6], [-3, 0, 1, 5, 6, 8], [1, 2, 4, 7], [-7, -4, -2, -1],
]
TIE_HEAVY_BOUNDS = (1, 2, 6)
# bit-length edges of the draw widths 2 * bound + 1 and bound; past 2**32 a draw spans several words
EDGE_BOUNDS = (8, 2**15, 2**31, 2**40)


@pytest.mark.parametrize("support", SAMPLED_SUPPORTS)
def test_sample_reports_match_the_fraction_reference(support):
    for seed, bound in enumerate(TIE_HEAVY_BOUNDS + EDGE_BOUNDS + (None,)):  # then the default draw
        got = sample_morse_fraction(support, 200, seed, bound)
        assert repr(got) == repr(tropical_reference.sample_morse_fraction(support, 200, seed, bound))


@pytest.mark.parametrize("support", [[-2, -1, 1, 2], [0, 1, 3, 4, 6], [1, 2, 4, 7], [-7, -4, -2, -1]])
def test_sample_counts_around_the_block_match_the_fraction_reference(support):
    block = tropical._BLOCK
    for samples in (block - 1, block, block + 1, 2 * block + 1):
        for bound in (1, None):
            got = sample_morse_fraction(support, samples, samples, bound)
            assert repr(got) == repr(tropical_reference.sample_morse_fraction(support, samples, samples, bound))


def _peak_bytes(support, samples):
    tracemalloc.start()
    try:
        sample_morse_fraction(support, samples, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_is_bounded_by_its_block():
    # ten times the draws peak below one bound, a block at a time; holding all 10**4 draws would take megabytes
    support, bound = [-3, -1, 2, 4, 5], 2**20
    assert _peak_bytes(support, 10**3) < bound
    assert _peak_bytes(support, 10**4) < bound


# draws whose critical values coincide while their lines cross at distinct abscissae: only the value test flags them
EQUAL_VALUES_PAST_DISTINCT_CROSSINGS = {
    (-3, -1, 1, 2): [[(6, 2), (3, 3), (-3, 2), (-6, 2)], [(-5, 1), (2, 2), (1, 2), (-3, 1)]],
    (-3, -1, 2, 5): [[(0, 1), (2, 3), (-3, 3), (-4, 1)], [(-5, 3), (2, 2), (3, 1), (4, 1)]],
    (-4, -3, -1, 1, 2, 5): [
        [(-5, 3), (2, 3), (3, 3), (4, 2), (3, 1), (-4, 1)],
        [(-3, 1), (-1, 2), (1, 2), (3, 3), (-2, 2), (3, 3)],
    ],
}


@pytest.mark.parametrize("support", list(EQUAL_VALUES_PAST_DISTINCT_CROSSINGS))
def test_equal_critical_values_past_distinct_crossings_are_reported(monkeypatch, support):
    draws = EQUAL_VALUES_PAST_DISTINCT_CROSSINGS[support] + [[(1, 1)] * len(support)]  # then a degenerate draw
    coefficients = [tuple(F(p, q) for p, q in draw) for draw in draws]
    for cs in coefficients[:-1]:
        xs = [(cs[u] - cs[w]) / (support[w] - support[u]) for u, w in itertools.combinations(range(len(cs)), 2)]
        assert len(set(xs)) == len(xs), cs
    stream = iter([pair for draw in draws for pair in draw])
    monkeypatch.setattr(tropical, "rational_draws", lambda seed, bound: lambda k: list(itertools.islice(stream, k)))
    report = sample_morse_fraction(support, len(draws), seed=1)
    assert report.non_morse == tuple((cs, is_morse(tropical_polynomial(support, cs)).reasons) for cs in coefficients)
    assert {reasons for _, reasons in report.non_morse[:-1]} == {("coinciding_critical_values",)}


def test_tie_heavy_bounds_draw_both_reasons():
    reasons = [
        r
        for support in SAMPLED_SUPPORTS
        for seed, bound in enumerate(TIE_HEAVY_BOUNDS)
        for _, rs in sample_morse_fraction(support, 200, seed, bound).non_morse
        for r in rs
    ]
    assert reasons.count("degenerate_critical_point") >= 100
    # 27 draws, all on [-2, -1, 1, 2]: without c0 no other sampled support draws coinciding values; one sign cannot
    assert reasons.count("coinciding_critical_values") >= 25


SIX_NONZERO = [[-4, -3, -1, 1, 2, 5], [0, 1, 2, 4, 7, 8, 11]]


def _integer_vector(support, draw):
    """p * (d // q) over the draw's nonzero exponents, d the lcm of their q: the vector the sampler hands `_reasons`."""
    terms = [pq for a, pq in zip(support, draw) if a != 0]
    d = math.lcm(*(q for _, q in terms))
    return tuple(p * (d // q) for p, q in terms)


def _recorded_run(monkeypatch, support, samples, seed, bound):
    """One sampler call: its report, every draw it made, and the indices of the draws that reached `_reasons`.

    The sampler draws a block of draws at a call, so the recorded pairs split into draws of len(support) pairs. A
    draw reached `_reasons` when its integer vector did: the certificate reads nothing else of the draw.
    """
    pairs, handed = [], set()
    rational_draws, reasons = tropical.rational_draws, tropical._reasons

    def recording_draws(seed, bound):
        draw = rational_draws(seed, bound)
        return lambda k: pairs.extend(block := draw(k)) or block

    def recording_reasons(kept, cs):
        handed.add(tuple(cs))
        return reasons(kept, cs)

    with monkeypatch.context() as patch:
        patch.setattr(tropical, "rational_draws", recording_draws)
        patch.setattr(tropical, "_reasons", recording_reasons)
        report = sample_morse_fraction(support, samples, seed, bound)
    t = len(support)
    draws = [pairs[i:i + t] for i in range(0, len(pairs), t)]
    return report, draws, {i for i, draw in enumerate(draws) if _integer_vector(support, draw) in handed}


def test_the_crossing_certificate_passes_only_morse_draws(monkeypatch):
    # all crossings at distinct abscissae and distinct values: no degenerate point and no equal critical values
    made = fell_back = at_one = at_one_fell_back = 0
    for support in SAMPLED_SUPPORTS + SIX_NONZERO:
        kept = tuple(a for a in support if a != 0)
        for seed, bound in enumerate(TIE_HEAVY_BOUNDS):
            report, draws, fallback = _recorded_run(monkeypatch, support, 200, seed, bound)
            assert repr(report) == repr(tropical_reference.sample_morse_fraction(support, 200, seed, bound))
            for i, draw in enumerate(draws):
                if i not in fallback:
                    cs, _ = clear_denominators([F(p, q) for a, (p, q) in zip(support, draw) if a != 0])
                    assert tropical._reasons(kept, cs) == (), (support, seed, draw)
            made, fell_back = made + len(draws), fell_back + len(fallback)
            if bound == 1:
                at_one, at_one_fell_back = at_one + len(draws), at_one_fell_back + len(fallback)
    # the exact fallback stays exercised: it decides about 80 % of the bound-1 draws
    assert at_one_fell_back >= at_one / 4 > 0 and fell_back < made


def test_the_crossing_certificate_decides_almost_every_default_draw(monkeypatch):
    for support in [s for s in SAMPLED_SUPPORTS if sum(a != 0 for a in s) >= 3] + SIX_NONZERO:
        _, draws, fallback = _recorded_run(monkeypatch, support, 1000, 43, None)
        assert len(draws) == 1000 and len(fallback) <= 10, support


class _CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        _CountingRandom.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("support", [[0, 1, 2], [3, 9], [-1, 0, 2], [0, 5]])
def test_at_most_two_nonzero_exponents_draw_nothing(monkeypatch, support):
    # two lines cross once, with one tie pair at one level, and one line has no breakpoint: every draw is Morse
    monkeypatch.setattr(random, "Random", _CountingRandom)
    _CountingRandom.calls = 0
    start = time.perf_counter()
    report = sample_morse_fraction(support, 10**6, seed=1)
    assert time.perf_counter() - start < 0.1
    assert _CountingRandom.calls == 0
    assert report == tropical.MorseSampleReport(10**6, 10**6, F(1), ())
    sample_morse_fraction([-1, 1, 2], 1, seed=1)  # three nonzero exponents do draw, through the counted stream
    assert _CountingRandom.calls > 0
    monkeypatch.undo()
    for seed, bound in enumerate(TIE_HEAVY_BOUNDS):
        got = sample_morse_fraction(support, 200, seed, bound)
        assert repr(got) == repr(tropical_reference.sample_morse_fraction(support, 200, seed, bound))
    for sample in (sample_morse_fraction, tropical_reference.sample_morse_fraction):
        with pytest.raises(TypeError):  # the seed is still handed to random.Random, which refuses a list
            sample(support, 5, seed=[1])


def test_criterion_10_fixture_loop_matches_the_fraction_reference():
    # criterion 10 samples [0, 1, 2], which draws nothing; its other fixture has four nonzero exponents
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures", "w_shape.json")) as fh:
        support = json.load(fh)["support"]
    assert sum(a != 0 for a in support) >= 3
    got = sample_morse_fraction(support, 2000, seed=20240817)
    assert repr(got) == repr(tropical_reference.sample_morse_fraction(support, 2000, seed=20240817))


@pytest.mark.parametrize(
    "support, message",
    [
        ([2, 1, 0], "support must be strictly increasing"),
        ([0, 0, 1], "support must be strictly increasing"),
        ([1], "need at least two terms"),
    ],
)
def test_sampler_checks_the_support(support, message):
    for sample in (sample_morse_fraction, tropical_reference.sample_morse_fraction):
        with pytest.raises(InputError, match=message):
            sample(support, 5, seed=1)
