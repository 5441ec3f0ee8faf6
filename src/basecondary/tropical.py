"""Univariate max-plus polynomials: critical points, degeneracy, Morse tests.

Critical points are read off the envelope of the nonzero exponents (`CRITICAL_POINTS`).
Verdicts are decided in integers by one scan of the envelope chain. The sampler
takes `randint`'s draws off `exact_core.rational_draws`, as cone discovery does
and as the `randint` sampler of `tests/tropical_reference.py` pins, and builds
`Fraction`s only for the samples its report lists. It scans a chain only where
a draw fails the crossing certificate of `sample_morse_fraction`, and draws
nothing when at most two exponents are nonzero: every such draw is Morse.

The certificate compares the crossing abscissae of every pair of lines, but
crossing values only across the sign split: with no exponent 0 the envelope
falls strictly left of its minimum and rises strictly right of it, so two equal
critical values join two negative exponents and two positive ones. The sampler
decides `_BLOCK` draws at a time, each integer stage mapped over the block's
columns, one per term, so its working memory does not grow with the samples.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .exact_core import as_int, as_list, clear_denominators, rat, rational_draws, upper_chain

DEFAULT_COEFF_BOUND = 10**4
_BLOCK = 256  # draws the sampler decides at a time: its working memory is bounded by this, whatever `samples` is
CRITICAL_POINTS = ("Critical points are the roots of x f', the breakpoints of the envelope over the nonzero exponents: "
                   "the constant term decides no verdict, and a support with one nonzero exponent is Morse.")


@dataclass(frozen=True)
class TropicalPolynomial:
    """max_a (c_a + a*x) with strictly increasing integer support and rational coefficients."""

    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) < 2:
            raise InputError("need at least two terms")
        if len(self.support) != len(self.coefficients):
            raise InputError("support and coefficients must have equal length")
        if any(a >= b for a, b in zip(self.support, self.support[1:])):
            raise InputError("support must be strictly increasing")
        if not all(isinstance(c, (int, Fraction)) for c in self.coefficients):
            raise InputError("coefficients must be rationals")

    def term_values(self, x) -> tuple[Fraction, ...]:
        x = rat(x)
        return tuple(c + a * x for a, c in zip(self.support, self.coefficients))


def tropical_polynomial(support, coefficients) -> TropicalPolynomial:
    return TropicalPolynomial(
        support=tuple(as_int(a, "support entry") for a in as_list(support, "support")),
        coefficients=tuple(rat(c) for c in as_list(coefficients, "coefficients")),
    )


@dataclass(frozen=True)
class CriticalPoint:
    """Breakpoint of the upper envelope with its tie bookkeeping.

    `max_pair` holds the two envelope exponents meeting there; `tie_pairs`
    lists every unordered exponent pair taking equal values at the point,
    at any level, and the point is degenerate when there are at least two.
    """

    location: Fraction
    value: Fraction
    max_pair: tuple[int, int]
    tie_pairs: tuple[tuple[int, int], ...]
    degenerate: bool


def _equal_pairs(values) -> list[tuple[int, int]]:
    """The index pairs u < w with values[u] == values[w], in lexicographic order."""
    return [(u, w) for u, w in itertools.combinations(range(len(values)), 2) if values[u] == values[w]]


def _zero_term(support) -> int:
    """The index of exponent 0 in the support, else its length: the one term that decides no verdict."""
    return support.index(0) if 0 in support else len(support)


def _breakpoints(support, cs):
    """(i, j, den, num, values) per breakpoint of the envelope of integer cs over nonzero exponents, ascending.

    Chain pair (i, j) breaks at num / den, den = a_j - a_i > 0, num = cs_i - cs_j, where the term values times
    den are values[k] = cs_k * den + a_k * num. The maximizers run from i, the first, to j, the last.
    """
    chain = upper_chain(support, cs)
    for i, j in zip(chain, chain[1:]):
        den, num = support[j] - support[i], cs[i] - cs[j]
        yield i, j, den, num, [c * den + a * num for a, c in zip(support, cs)]


def _times(column, s):
    """The entries of column times s, lazily."""
    return map(operator.mul, column, itertools.repeat(s))


def _reasons(support, cs) -> tuple[str, ...]:
    """Why the envelope of integer coefficients cs is not Morse, () when it is; scaling cs keeps it.

    A breakpoint is degenerate when its values hold two or more equal pairs, that is, at least two
    more values than distinct ones. Critical values values[i] / den compare as gcd-reduced pairs.
    """
    degenerate, levels = False, []
    for i, _, den, _, values in _breakpoints(support, cs):
        degenerate = degenerate or len(values) - len(set(values)) >= 2
        g = math.gcd(values[i], den)
        levels.append((values[i] // g, den // g))
    coinciding = len(set(levels)) < len(levels)
    return ("degenerate_critical_point",) * degenerate + ("coinciding_critical_values",) * coinciding


def critical_points(p: TropicalPolynomial) -> tuple[CriticalPoint, ...]:
    """All critical points, the breakpoints of the envelope over the nonzero exponents, ascending, with tie annotations.

    They are the `_breakpoints` of cs = d * coefficients, d > 0, without the `_zero_term`, with location and
    value divided by d.
    """
    k = _zero_term(p.support)
    support, coefficients = p.support[:k] + p.support[k + 1:], p.coefficients[:k] + p.coefficients[k + 1:]
    cs, d = clear_denominators(coefficients)
    out = []
    for i, j, den, num, values in _breakpoints(support, cs):
        ties = [(support[u], support[w]) for u, w in _equal_pairs(values)]
        out.append(
            CriticalPoint(
                location=Fraction(num, d * den),
                value=Fraction(values[i], d * den),
                max_pair=(support[i], support[j]),
                tie_pairs=tuple(ties),
                degenerate=len(ties) >= 2,
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class MorseReport:
    """A Morse verdict, its reasons, and the critical points and value collisions it is read off."""

    morse: bool
    reasons: tuple[str, ...] = ()
    critical_points: tuple[CriticalPoint, ...] = ()
    value_collisions: tuple[tuple[Fraction, Fraction, Fraction], ...] = ()


def is_morse(p: TropicalPolynomial) -> MorseReport:
    """Nondegenerate critical points with distinct values: the sampler's `_reasons`, read off `critical_points`."""
    cps = critical_points(p)
    pairs = _equal_pairs([cp.value for cp in cps])
    degenerate = any(cp.degenerate for cp in cps)
    reasons = ("degenerate_critical_point",) * degenerate + ("coinciding_critical_values",) * bool(pairs)
    return MorseReport(
        morse=not reasons,
        reasons=reasons,
        critical_points=cps,
        value_collisions=tuple((cps[u].location, cps[w].location, cps[u].value) for u, w in pairs),
    )


@dataclass(frozen=True)
class MorseSampleReport:
    """Of `samples` draws `morse_count` were Morse; `non_morse` lists the others' coefficients and reasons."""

    samples: int
    morse_count: int
    fraction: Fraction
    non_morse: tuple[tuple[tuple[Fraction, ...], tuple[str, ...]], ...]


def sample_morse_fraction(
    support, samples: int, seed: int, bound: Optional[int] = None
) -> MorseSampleReport:
    """Fraction of seeded random coefficient vectors classified Morse.

    Each term, in support order, draws p in [-bound, bound] and then q in [1, bound] from
    `random.Random(seed)`; its coefficient is p/q, reported reduced. The draws are `randint`'s,
    read off its rejection stream by `rational_draws`, as `tests/tropical_reference.py` pins. Verdicts
    are decided in integers without the `_zero_term`, found once: the other p scaled by the lcm of their q.
    `Fraction`s are built only for listed samples, of every term.

    With at most two nonzero exponents the report is (samples, samples, 1, ()) whatever the draws, so
    none is made; the seed still goes to `rational_draws`. Two lines cross once, with one tie pair at
    one level, and one line has no breakpoint. With more, the kept lines u < w cross at
    X = (c_u - c_w) / (a_w - a_u) with value V = (c_u a_w - c_w a_u) / (a_w - a_u), both compared
    as integers times the lcm of the gaps a_w - a_u. A draw is Morse when its X are distinct and the
    V of its negative-negative pairs avoid those of its positive-positive pairs; only the others reach
    `_reasons`. Proof: a degenerate breakpoint has two tie pairs, which cross at its abscissa. A
    critical value is the V of its chain pair. No kept exponent is 0, so the envelope's slope, the
    maximizing exponent, is negative left of the breakpoint where a negative line meets a positive one
    and positive right of it: the envelope falls strictly to that minimum and rises strictly after it.
    The critical values of the breakpoints left of it, which join two negative exponents, are then
    distinct, and so are those right of it, which join two positive ones; the minimum lies below both.
    Two equal critical values are therefore a negative-negative V and a positive-positive V, so with
    exponents of one sign there is no value test.

    The draws are decided `_BLOCK` at a time. One `draw(len(support) * block)` call continues the
    stream; each kept term's p * (d // q) over the block, d the lcm of a draw's q, is one column, and
    the X and V of every draw are mapped over the columns, so working memory is bounded by the block.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    bound = DEFAULT_COEFF_BOUND if bound is None else as_int(bound, "coefficient bound")
    if bound < 1:
        raise InputError("coefficient bound must be positive")
    supp = tuple(as_int(a, "support entry") for a in as_list(support, "support"))
    TropicalPolynomial(support=supp, coefficients=(0,) * len(supp))  # the support's checks, once
    k, draw, bad = _zero_term(supp), rational_draws(seed, bound), []
    kept = supp[:k] + supp[k + 1:]
    if len(kept) <= 2:  # at most one breakpoint, so one tie pair and one level: no draw is needed
        return MorseSampleReport(samples=samples, morse_count=samples, fraction=Fraction(1), non_morse=())
    t, columns = len(supp), [j for j in range(len(supp)) if j != k]
    pairs = [(u, w, kept[w] - kept[u]) for u, w in itertools.combinations(range(len(kept)), 2)]
    lcm, n = math.lcm(*(g for _, _, g in pairs)), len(pairs)
    xs = [(u, w, lcm // g) for u, w, g in pairs]  # lcm X_uw = (c_u - c_w) lcm / g
    vs = [(u, w, lcm // g * kept[w], lcm // g * kept[u]) for u, w, g in pairs]  # lcm V_uw
    sides = [v for v in vs if kept[v[1]] < 0], [v for v in vs if kept[v[0]] > 0]  # negative-negative, positive-positive
    for start in range(0, samples, _BLOCK):
        ps, qs = zip(*draw(t * min(_BLOCK, samples - start)))  # term j of draw i is pair t * i + j
        ds = list(map(math.lcm, *(qs[j::t] for j in columns)))
        cs = [list(map(operator.mul, ps[j::t], map(operator.floordiv, ds, qs[j::t]))) for j in columns]
        x = zip(*(_times(map(operator.sub, cs[u], cs[w]), s) for u, w, s in xs))
        passed = map(n.__eq__, map(len, map(set, x)))
        if all(sides):
            neg, pos = (zip(*(map(operator.sub, _times(cs[u], sw), _times(cs[w], su)) for u, w, sw, su in side))
                        for side in sides)
            passed = map(operator.and_, passed, map(set.isdisjoint, map(set, neg), pos))
        for i in itertools.compress(range(len(ds)), map(operator.not_, passed)):  # the certificate failed: scan a chain
            if reasons := _reasons(kept, [c[i] for c in cs]):
                bad.append((tuple(map(Fraction, ps[t * i:t * i + t], qs[t * i:t * i + t])), reasons))
    morse_count = samples - len(bad)
    return MorseSampleReport(
        samples=samples,
        morse_count=morse_count,
        fraction=Fraction(morse_count, samples),
        non_morse=tuple(bad),
    )
