"""Morse/Maxwell Newton-polytope support functions via 3D fiber polygons.

The pipeline never materializes the high-dimensional iterated fiber
polytope: all its support values are obtained by slicing the 3D pyramid
projection, which commutes with Minkowski integration. The Morse and
Maxwell formulas are spelled once, over one lift, in `morse_support`
(P + h - 3 S) and `maxwell_support` ((P + h - 4 S) / 2), for the fiber summand
P, read off `exact_core._fiber_sum` (the one fiber route) with one division, the
basecondary value h of F = -gcd and the secondary support S; `morse_polytope`
reads each gradient off two integer evaluations (`_gradient`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError
from .core import PiecewiseLinearRep, cone_witnesses, eval_basecondary_general
from .exact_core import (
    PointConfig, Point3, _fiber_sum, as_int, as_list, clear_denominators, kronecker_point, make_config, upper_chain,
)
from .secondary import Covector, covector, secondary_support
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


def build_delta_bar(config: MorseConfig, gamma) -> tuple[Point3, ...]:
    """Hull vertices of the pyramid over base row (a,0,0) and roof (a,0,gamma(a)) to apex (0,1,0).

    They are the base corners, the roof points off the base at strict
    corners of the roof's upper chain, and the apex. The other points lie
    in the hull, so the fiber is the same.
    """
    gamma = covector(config.config(), gamma)
    if any(g < 0 for g in gamma):
        raise InputError("heights must be nonnegative here")
    xs = config.points
    roof = [(xs[k], 0, gamma[k]) for k in upper_chain(xs, gamma) if gamma[k] != 0]
    return ((xs[0], 0, 0), (xs[-1], 0, 0), *roof, (0, 1, 0))


def area_P_bar(config: MorseConfig, gamma) -> Fraction:
    """Support value of the iterated fiber body at nonnegative heights.

    FIBER_SUPPORT_SCALE times the raw Euclidean area of the raw fiber polygon of the barred pyramid, whose
    x and y are integers: with its heights cleared by dz, its `_fiber_sum` is that polygon scaled 2L in y, 2L dz in z.
    """
    pyramid = build_delta_bar(config, gamma)
    zs, dz = clear_denominators([v[2] for v in pyramid])
    total, scale = _fiber_sum([(x, y, z) for (x, y, _), z in zip(pyramid, zs)])
    return FIBER_SUPPORT_SCALE * total.area() / (4 * scale * scale * dz)


def iterated_fiber_support(config: MorseConfig, gamma) -> Fraction:
    """Support value of the iterated fiber polytope, any sign of heights.

    On nonnegative heights this is area_P_bar; elsewhere it extends through
    the homogeneous-polytope identity h(gamma + c*1) = h(gamma) + c*h(1),
    with the level h(1) computed once as area_P_bar(1,...,1). The integer
    c exceeds minus the lowest height, so every shifted height is positive.
    """
    gamma = covector(config.config(), gamma)
    low = min(gamma)
    if low >= 0:
        return area_P_bar(config, gamma)
    shift = math.floor(-low) + 1
    level = area_P_bar(config, (1,) * config.m)
    return area_P_bar(config, [g + shift for g in gamma]) - shift * level


def morse_support(config: MorseConfig, gamma) -> Fraction:
    """Support of the Newton polytope of the Morse discriminant, up to a shift.

    P + h - 3 S on nonnegative heights: the iterated-fiber summand P, the
    basecondary value h for F = -gcd, and -3 times the secondary support S
    (twice the Euclidean `area_N`), with h and S read off one lift: S reads
    the lift of gamma that h's evaluation left on the configuration.
    """
    gamma = covector(pc := config.config(), gamma)
    p = area_P_bar(config, gamma)  # refuses negative heights
    h, s = eval_basecondary_general(pc, config.gcd_function(), gamma), secondary_support(pc, gamma)
    return p + h - 3 * s


def maxwell_support(config: MorseConfig, gamma) -> Fraction:
    """Support of the Newton polytope of the Maxwell stratum, up to a linear part: (P + h - 4 S) / 2."""
    gamma = covector(pc := config.config(), gamma)
    h, s = eval_basecondary_general(pc, config.gcd_function(), gamma), secondary_support(pc, gamma)
    return (iterated_fiber_support(config, gamma) + h - 4 * s) / 2


def _gradient(config: MorseConfig, support, w: Covector) -> tuple[Fraction, ...]:
    """The gradient g of `support` at w + eps, w a positive witness, read off two integer evaluations.

    Let R be the span and L the lcm of the pairwise gaps of A and 0. At integer
    heights every fiber, Morse and Maxwell value lies in (1/D) Z, D = 2 L^2:
    the fiber value is an integer over s^2 for the kernel's scale s | L, h one
    over a gap, and Maxwell halves. With w cleared to integers z, evaluate at z
    and at Z = N^m z + (N^(m-1), ..., N, 1), N a power of 2: the shared
    `exact_core.kronecker_point`, which `cone_witness` also builds. Every comparison
    the supports make is the sign of an integer linear form l in the heights,
    and l(Z) = N^m l(z) + l(N^(m-1), ..., 1). Where l's coefficients are below
    N, that is the sign of l(z), or where l(z) = 0 of l's first nonzero
    coefficient: the order of z + eps, eps_1 >> eps_2 >> ... (simulation of
    simplicity, Edelsbrunner-Mücke 1990). So at Z the support takes the
    branches of z + eps, where it is the linear g, and
    D (support(Z) - N^m support(z)) = sum_k D g_k N^(m-1-k) holds each D g_k
    as a balanced base-N digit (Kronecker's substitution). The bounds, stage
    by stage; only the pyramid's z coordinates carry heights:
    - scan forms: gaps of three exponents, <= R; two over one base, which the
      threshold sum compares, differ by <= 2R;
    - the roof's upper chain: cross products with coefficients <= R;
    - cuts: a z_l + b z_h with a, b >= 0 and a + b = s, and y in [0, s];
    - the cuts' hull cross products: <= 2 s^2;
    - slices weighted by gaps <= R: edges <= R s, angle cross products
      <= 2 R^2 s^2; the Minkowski sum's vertices <= 2 R s (weights sum to 2R);
    - shoelace: twice the sum's area has coefficients <= 16 R^2 s^2 (its y
      span is <= 2 R s); over s^2, the fiber summand's |g_k| <= 16 R^2.
      The basecondary summand's |g_k| <= 3 R^2 (-gcd moves by < R in all
      along a tail, and a label is a vertex of at most two cells), the GKZ
      vector's <= R.
    So |g_k| <= 22 R^2 for either support, every comparison coefficient is at
    most 2 R^2 L^2, and N > 2 * 22 R^2 D bounds both. InternalError when that
    difference times D is no integer, a carry is left over, or
    <g, w> != support(w), checked at z. support(z) is evaluated, not read off
    the digits of D support(Z) above g's: read off, <g, z> = support(z) would
    hold by construction, and the check could not catch a Kronecker point
    that left the chambers at z.
    """
    xs = sorted({0, *config.points})
    lcm = math.lcm(*(b - a for a, b in itertools.combinations(xs, 2)))
    d, m = 2 * lcm * lcm, config.m
    base = 1 << (44 * (xs[-1] - xs[0]) ** 2 * d).bit_length()
    z, _ = clear_denominators(w)
    value = support(config, z)
    packed = d * (support(config, kronecker_point(z, base)) - base**m * value)
    if packed.denominator != 1:
        raise InternalError("support at the Kronecker point is off the (1/D) Z grid")
    rest, grad = packed.numerator, []
    for _ in range(m):
        digit = (rest + base // 2) % base - base // 2
        grad.append(Fraction(digit, d))
        rest = (rest - digit) // base
    grad.reverse()
    if rest:
        raise InternalError("support gradient overflows its Kronecker digits")
    if sum(g * c for g, c in zip(grad, z)) != value:
        raise InternalError("support gradient fails the homogeneity identity at its witness")
    return tuple(grad)


def morse_polytope(config: MorseConfig, variant: str = "morse") -> PiecewiseLinearRep:
    """Per-secondary-cone gradient representation of the chosen support.

    Each cone's gradient is `_gradient` of `morse_support` or
    `maxwell_support` at its witness w, positive by construction
    (`secondary.cone_witness`), as the supports need: on a wall of the support's
    linearity chambers it is that of the chamber toward
    eps_1 >> eps_2 >> ... The homogeneity identity <g, w> = support(w) is
    checked as an invariant.

    Known defect, the missed-vertex defect of ROADMAP items 22 and 9: `certified: true` does not imply
    that the gradients are all the polytope's vertices. With m >= 4 exponents one gradient per secondary
    cone misses vertices, so their max falls below the support at some heights, and `certified` is still true.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    support = morse_support if variant == "morse" else maxwell_support
    return PiecewiseLinearRep.certify([(w, _gradient(config, support, w)) for _, w in cone_witnesses(config.config())])
