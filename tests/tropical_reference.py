"""Critical points over `Fraction`: the reference for the integer tropical kernel.

The library clears the coefficients' denominators once and finds each
breakpoint's ties and maximizers among integers. This is the evaluation it
replaced, kept verbatim: the envelope chain on the rational coefficients,
each breakpoint as a Fraction, and every term value there as a Fraction.
`has_degenerate_root` is likewise the test that counted the Fraction term
values at the envelope maximum; the library keeps no such test, and the
tests check its tie pairs against this count. `is_morse` is the double loop over critical points that found equal
critical values, where the library shares one equal-value rule with the
tie pairs. `sample_morse_fraction` is the sampler that built every draw's
Fractions, polynomial and report, where the library decides each verdict in
integers; here it reads the reasons off this module's `is_morse`. It draws
with `random.randint`, so it also pins the library's draws, which read the
same stream off `getrandbits`.

Like the library, every route here reads the critical points off the terms
of nonzero exponent (`nonconstant`): they are the roots of x f', so the
constant term moves every critical value alike and decides no verdict.
"""

import random
from fractions import Fraction
from typing import Optional

from basecondary.errors import InputError
from basecondary.exact_core import as_int, as_list, upper_chain
from basecondary.tropical import (
    DEFAULT_COEFF_BOUND,
    CriticalPoint,
    MorseReport,
    MorseSampleReport,
    TropicalPolynomial,
)


def nonconstant(p: TropicalPolynomial) -> Optional[TropicalPolynomial]:
    """p without its exponent-0 term, or None when one term is left: that term has no breakpoint."""
    kept = [(a, c) for a, c in zip(p.support, p.coefficients) if a != 0]
    if len(kept) < 2:
        return None
    return TropicalPolynomial(support=tuple(a for a, _ in kept), coefficients=tuple(c for _, c in kept))


def critical_points(p: TropicalPolynomial) -> tuple[CriticalPoint, ...]:
    """All breakpoints of the upper envelope over the nonzero exponents, ascending, with tie annotations."""
    p = nonconstant(p)
    if p is None:
        return ()
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
    """Whether some critical point sees three or more nonconstant terms at the envelope maximum."""
    q = nonconstant(p)
    for cp in critical_points(p):
        if sum(1 for v in q.term_values(cp.location) if v == cp.value) >= 3:
            return True
    return False


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
        critical_points=cps,
        value_collisions=tuple(collisions),
    )


def sample_morse_fraction(
    support, samples: int, seed: int, bound: Optional[int] = None
) -> MorseSampleReport:
    """Fraction of seeded random coefficient vectors classified Morse."""
    if samples < 1:
        raise InputError("need at least one sample")
    bound = DEFAULT_COEFF_BOUND if bound is None else as_int(bound, "coefficient bound")
    if bound < 1:
        raise InputError("coefficient bound must be positive")
    supp = tuple(as_int(a, "support entry") for a in as_list(support, "support"))
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        coeffs = tuple(
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in supp
        )
        report = is_morse(TropicalPolynomial(support=supp, coefficients=coeffs))
        if not report.morse:
            bad.append((coeffs, report.reasons))
    morse_count = samples - len(bad)
    return MorseSampleReport(
        samples=samples,
        morse_count=morse_count,
        fraction=Fraction(morse_count, samples),
        non_morse=tuple(bad),
    )
