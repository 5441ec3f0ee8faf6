"""Univariate max-plus polynomials: critical points, degeneracy, Morse tests."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .exact_core import as_int, rat, upper_chain

DEFAULT_COEFF_BOUND = 10**4


@dataclass(frozen=True)
class TropicalPolynomial:
    """max_a (c_a + a*x) with strictly increasing integer support."""

    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) < 2:
            raise InputError("need at least two terms")
        if len(self.support) != len(self.coefficients):
            raise InputError("support and coefficients must have equal length")
        if any(a >= b for a, b in zip(self.support, self.support[1:])):
            raise InputError("support must be strictly increasing")

    def value(self, x) -> Fraction:
        x = rat(x)
        return max(c + a * x for a, c in zip(self.support, self.coefficients))

    def term_values(self, x) -> tuple[Fraction, ...]:
        x = rat(x)
        return tuple(c + a * x for a, c in zip(self.support, self.coefficients))


def tropical_polynomial(support, coefficients) -> TropicalPolynomial:
    return TropicalPolynomial(
        support=tuple(as_int(a, "support entry") for a in support),
        coefficients=tuple(rat(c) for c in coefficients),
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


def critical_points(p: TropicalPolynomial) -> tuple[CriticalPoint, ...]:
    """All breakpoints of the upper envelope, ascending, with tie annotations."""
    chain = upper_chain(p.support, p.coefficients)
    out = []
    for i, j in zip(chain, chain[1:]):
        ai, ci = p.support[i], p.coefficients[i]
        aj, cj = p.support[j], p.coefficients[j]
        x = (ci - cj) / Fraction(aj - ai)
        values = p.term_values(x)
        top = max(values)
        groups: dict[Fraction, list[int]] = {}
        for k, v in enumerate(values):
            groups.setdefault(v, []).append(k)
        ties = []
        for members in groups.values():
            if len(members) > 1:
                for u in range(len(members)):
                    for w in range(u + 1, len(members)):
                        ties.append((p.support[members[u]], p.support[members[w]]))
        maximizers = [k for k, v in enumerate(values) if v == top]
        out.append(
            CriticalPoint(
                location=x,
                value=top,
                max_pair=(p.support[maximizers[0]], p.support[maximizers[-1]]),
                tie_pairs=tuple(sorted(ties)),
                degenerate=len(ties) >= 2,
            )
        )
    return tuple(out)


def has_degenerate_root(p: TropicalPolynomial) -> bool:
    """Whether some point sees three or more terms at the envelope maximum."""
    for cp in critical_points(p):
        if sum(1 for v in p.term_values(cp.location) if v == cp.value) >= 3:
            return True
    return False


@dataclass(frozen=True)
class MorseReport:
    morse: bool
    reasons: tuple[str, ...] = ()
    degenerate_points: tuple[CriticalPoint, ...] = ()
    value_collisions: tuple[tuple[Fraction, Fraction, Fraction], ...] = ()

    def __bool__(self) -> bool:
        return self.morse


def is_morse(p: TropicalPolynomial) -> MorseReport:
    """Nondegenerate breakpoints with pairwise distinct critical values."""
    cps = critical_points(p)
    degenerate = tuple(cp for cp in cps if cp.degenerate)
    collisions = []
    for u in range(len(cps)):
        for w in range(u + 1, len(cps)):
            if cps[u].value == cps[w].value:
                collisions.append((cps[u].location, cps[w].location, cps[u].value))
    reasons = []
    if degenerate:
        reasons.append("degenerate_critical_point")
    if collisions:
        reasons.append("coinciding_critical_values")
    return MorseReport(
        morse=not reasons,
        reasons=tuple(reasons),
        degenerate_points=degenerate,
        value_collisions=tuple(collisions),
    )


@dataclass(frozen=True)
class MorseSampleReport:
    samples: int
    morse_count: int
    fraction: Fraction
    non_morse: tuple[tuple[tuple[Fraction, ...], tuple[str, ...]], ...]


def sample_morse_fraction(
    support, samples: int, seed: int, bound: Optional[int] = None
) -> MorseSampleReport:
    """Fraction of seeded random coefficient vectors classified Morse."""
    if samples < 1:
        raise InputError("need at least one sample")
    bound = DEFAULT_COEFF_BOUND if bound is None else as_int(bound, "coefficient bound")
    if bound < 1:
        raise InputError("coefficient bound must be positive")
    supp = tuple(as_int(a, "support entry") for a in support)
    rng = random.Random(seed)
    hits = 0
    bad = []
    for _ in range(samples):
        coeffs = tuple(
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in supp
        )
        report = is_morse(TropicalPolynomial(support=supp, coefficients=coeffs))
        if report.morse:
            hits += 1
        else:
            bad.append((coeffs, report.reasons))
    return MorseSampleReport(
        samples=samples,
        morse_count=hits,
        fraction=Fraction(hits, samples),
        non_morse=tuple(bad),
    )
