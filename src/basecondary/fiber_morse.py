"""Morse/Maxwell Newton-polytope support functions via 3D fiber polygons.

The pipeline never materializes the high-dimensional iterated fiber
polytope: all its support values are obtained by slicing the 3D pyramid
projection, which commutes with Minkowski integration. The Morse and
Maxwell formulas are spelled once, over one lift, in `morse_support`
(P + h - 3 S) and `maxwell_support` ((P + h - 4 S) / 2), for the fiber summand
P, the basecondary value h of F = -gcd and the secondary support S;
`morse_polytope` evaluates them on jets (`exact_core.Jet`) for gradients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError
from .core import PiecewiseLinearRep, _threshold_sum, cone_witnesses
from .exact_core import Jet, PointConfig, Point3, as_int, as_list, fiber_polygon, make_config, upper_chain
from .secondary import Covector, _gkz_pairing, _scan, covector
from .setfun import SetFunction, neg_gcd_function

VARIANTS = ("morse", "maxwell")

# The iterated-fiber summand uses the Minkowski-integral normalization under
# which the fiber body of the coefficient simplex is literally the secondary
# polytope (each 1D integration doubles the raw integral), and its area is
# lattice-normalized (twice Euclidean). Relative to the raw Euclidean area of
# the raw fiber polygon this is a factor 2 * 2 * 2. No test checks it against a
# computed Morse discriminant yet: that is ROADMAP item 7's resultant oracle.
FIBER_SUPPORT_SCALE = Fraction(8)


@dataclass(frozen=True)
class MorseConfig:
    """Strictly increasing nonzero integer exponents affinely generating Z."""

    points: tuple[int, ...]

    def __post_init__(self):
        pts = self.points
        if len(pts) < 2:
            raise InputError("need at least two exponents")
        if any(a == 0 for a in pts):
            raise InputError("exponents must be nonzero")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise InputError("exponents must be strictly increasing")
        if math.gcd(*(b - pts[0] for b in pts[1:])) != 1:
            raise InputError("exponent differences must generate Z")

    @property
    def m(self) -> int:
        return len(self.points)

    def config(self) -> PointConfig:
        """The exponents as points of Q^1, built once, so their lift forms are too."""
        return self._point_config

    @functools.cached_property
    def _point_config(self) -> PointConfig:
        return make_config(1, [[a] for a in self.points])

    def gcd_function(self) -> SetFunction:
        """F = -gcd on sets of at least one exponent, built once, so its cleared lookup is too."""
        return self._gcd_function

    @functools.cached_property
    def _gcd_function(self) -> SetFunction:
        return neg_gcd_function(self.points, min_size=1)


def morse_config(points) -> MorseConfig:
    return MorseConfig(points=tuple(as_int(a, "exponent") for a in as_list(points, "exponents")))


def _nonnegative(gamma: Covector):
    if any(g < 0 for g in gamma):
        raise InputError("heights must be nonnegative here")


def build_delta_bar(config: MorseConfig, gamma) -> tuple[Point3, ...]:
    """Hull vertices of the pyramid over base row (a,0,0) and roof (a,0,gamma(a)) to apex (0,1,0).

    They are the base corners, the roof points off the base at strict
    corners of the roof's upper chain, and the apex. The other points lie
    in the hull, so the fiber is the same.
    """
    gamma = covector(config.config(), gamma)
    _nonnegative(gamma)
    xs = [Fraction(a) for a in config.points]
    zero = Fraction(0)
    roof = [(xs[k], zero, gamma[k]) for k in upper_chain(xs, gamma) if gamma[k] != 0]
    verts = [(xs[0], zero, zero), (xs[-1], zero, zero), *roof, (zero, Fraction(1), zero)]
    return tuple(verts)


def area_P_bar(config: MorseConfig, gamma) -> Fraction:
    """Support value of the iterated fiber body at nonnegative heights.

    Equals FIBER_SUPPORT_SCALE times the raw Euclidean area of the raw
    fiber polygon of the barred pyramid.
    """
    return FIBER_SUPPORT_SCALE * fiber_polygon(build_delta_bar(config, gamma)).area()


def iterated_fiber_support(config: MorseConfig, gamma) -> Fraction:
    """Support value of the iterated fiber polytope, any sign of heights.

    On nonnegative heights this is area_P_bar; elsewhere it extends through
    the homogeneous-polytope identity h(gamma + c*1) = h(gamma) + c*h(1),
    with the level h(1) computed once as area_P_bar(1,...,1). The integer
    c exceeds minus the lowest value part, so every shifted height, a jet
    included, is positive.
    """
    gamma = covector(config.config(), gamma)
    low = min(gamma)
    if low >= 0:
        return area_P_bar(config, gamma)
    shift = Fraction(math.floor(-(low.value if isinstance(low, Jet) else low)) + 1)
    level = area_P_bar(config, (Fraction(1),) * config.m)
    lifted = tuple(g + shift for g in gamma)
    return area_P_bar(config, lifted) - shift * level


def _one_scan(config: MorseConfig, gamma: Covector) -> tuple[Fraction, Fraction]:
    """The basecondary value h of F = -gcd and the secondary support S, read off one integer scan."""
    pc = config.config()
    scan, dz = _scan(pc, gamma)
    return _threshold_sum(pc, config.gcd_function(), scan, dz), _gkz_pairing(pc, [c for c, _, _ in scan], gamma)


def morse_support(config: MorseConfig, gamma) -> Fraction:
    """Support of the Newton polytope of the Morse discriminant, up to a shift.

    P + h - 3 S on nonnegative heights: the iterated-fiber summand P, the
    basecondary value h for F = -gcd, and -3 times the secondary support S
    (twice the Euclidean `area_N`), with h and S read off one lift.
    """
    gamma = covector(config.config(), gamma)
    _nonnegative(gamma)
    h, s = _one_scan(config, gamma)
    return area_P_bar(config, gamma) + h - 3 * s


def maxwell_support(config: MorseConfig, gamma) -> Fraction:
    """Support of the Newton polytope of the Maxwell stratum, up to a linear part: (P + h - 4 S) / 2."""
    gamma = covector(config.config(), gamma)
    h, s = _one_scan(config, gamma)
    return (iterated_fiber_support(config, gamma) + h - 4 * s) / 2


def _shifted_witness(pc: PointConfig, witness: Covector) -> Covector:
    """Push a witness into the strictly positive orthant by a constant.

    Constants are affine on the configuration, so the secondary cone and
    genericity are preserved.
    """
    low = min(witness)
    shift = Fraction(0) if low >= 1 else 1 - low
    return tuple(w + shift for w in witness)


def morse_polytope(config: MorseConfig, variant: str = "morse") -> PiecewiseLinearRep:
    """Per-secondary-cone gradient representation of the chosen support.

    Each cone's gradient is read off one evaluation of `morse_support` or
    `maxwell_support` at its positive witness w seeded as the jet w + eps:
    the heights enter every predicate and area linearly, so the jet's
    gradient is exact, and on a wall of the support's linearity chambers it
    is that of the chamber toward eps_1 >> eps_2 >> ... The homogeneity
    identity <g, w> = support(w) is checked as an invariant.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
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
