"""Morse/Maxwell Newton-polytope support functions via 3D fiber polygons.

The pipeline never materializes the high-dimensional iterated fiber
polytope: all its support values are obtained by slicing the 3D pyramid
projection, which commutes with Minkowski integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError
from .core import (
    PiecewiseLinearRep,
    convexity_certificate,
    eval_basecondary_general,
    gradient_on_cone,
)
from .exact_core import PointConfig, Point3, as_int, as_list, fiber_polygon, make_config
from .secondary import (
    Covector,
    area_N,
    cone_witness,
    covector,
    enumerate_triangulations_1d,
    gkz_vector,
    regular_subdivision,
    secondary_support,
)
from .setfun import SetFunction, neg_gcd_function

VARIANTS = ("morse", "maxwell")

# The iterated-fiber summand uses the Minkowski-integral normalization under
# which the fiber body of the coefficient simplex is literally the secondary
# polytope (each 1D integration doubles the raw integral), and its area is
# lattice-normalized (twice Euclidean). Relative to the raw Euclidean area of
# the raw fiber polygon this is a factor 2 * 2 * 2. Calibrated and verified
# against symbolically computed Morse discriminants for exponent sets
# {1,2,3}, {1,2,4}, {1,2,3,4}.
FIBER_SUPPORT_SCALE = Fraction(8)
STEP_HALVINGS = 64


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
        return make_config(1, [[a] for a in self.points])

    def gcd_function(self) -> SetFunction:
        return neg_gcd_function(self.points, min_size=1)


def morse_config(points) -> MorseConfig:
    return MorseConfig(points=tuple(as_int(a, "exponent") for a in as_list(points, "exponents")))


@dataclass(frozen=True)
class Pyramid3:
    """Vertex set of the height pyramid over the exponent axis."""

    vertices: tuple[Point3, ...]
    barred: bool


def _nonnegative(gamma: Covector):
    if any(g < 0 for g in gamma):
        raise InputError("heights must be nonnegative here")


def build_delta_bar(config: MorseConfig, gamma) -> Pyramid3:
    """Pyramid with base row (a,0,0), roof (a,0,gamma(a)), apex (0,1,0)."""
    gamma = covector(config.config(), gamma)
    _nonnegative(gamma)
    verts: list[Point3] = []
    for a, g in zip(config.points, gamma):
        verts.append((Fraction(a), Fraction(0), Fraction(0)))
        if g != 0:
            verts.append((Fraction(a), Fraction(0), g))
    verts.append((Fraction(0), Fraction(1), Fraction(0)))
    return Pyramid3(vertices=tuple(verts), barred=True)


def build_delta(config: MorseConfig, gamma) -> Pyramid3:
    """Roof-only pyramid: (a,0,gamma(a)) plus the apex, no base row."""
    gamma = covector(config.config(), gamma)
    _nonnegative(gamma)
    verts: list[Point3] = [
        (Fraction(a), Fraction(0), g) for a, g in zip(config.points, gamma)
    ]
    verts.append((Fraction(0), Fraction(1), Fraction(0)))
    return Pyramid3(vertices=tuple(verts), barred=False)


def area_P_bar(config: MorseConfig, gamma) -> Fraction:
    """Support value of the iterated fiber body at nonnegative heights.

    Equals FIBER_SUPPORT_SCALE times the raw Euclidean area of the raw
    fiber polygon of the barred pyramid.
    """
    return FIBER_SUPPORT_SCALE * fiber_polygon(build_delta_bar(config, gamma).vertices).area()


def iterated_fiber_support(config: MorseConfig, gamma) -> Fraction:
    """Support value of the iterated fiber polytope, any sign of heights.

    On nonnegative heights this is area_P_bar; elsewhere it extends through
    the homogeneous-polytope identity h(gamma + c*1) = h(gamma) + c*h(1),
    with the level h(1) computed once as area_P_bar(1,...,1).
    """
    gamma = covector(config.config(), gamma)
    low = min(gamma)
    if low >= 0:
        return area_P_bar(config, gamma)
    shift = Fraction(math.ceil(-low))
    level = area_P_bar(config, (Fraction(1),) * config.m)
    lifted = tuple(g + shift for g in gamma)
    return area_P_bar(config, lifted) - shift * level


def morse_support(config: MorseConfig, gamma) -> Fraction:
    """Support of the Newton polytope of the Morse discriminant, up to a shift.

    The sum of the iterated-fiber summand, the basecondary value for
    F = -gcd, and -3 times the lattice-normalized area of the lifted region
    (= -6 times the Euclidean area_N), on nonnegative heights. Verified
    against symbolically computed Morse discriminants at desk scale.
    """
    pc = config.config()
    gamma = covector(pc, gamma)
    _nonnegative(gamma)
    return (
        area_P_bar(config, gamma)
        + eval_basecondary_general(pc, config.gcd_function(), gamma)
        - 6 * area_N(pc, gamma)
    )


def maxwell_support(config: MorseConfig, gamma) -> Fraction:
    """Support of the Newton polytope of the Maxwell stratum, up to a linear part."""
    pc = config.config()
    gamma = covector(pc, gamma)
    return (
        iterated_fiber_support(config, gamma)
        + eval_basecondary_general(pc, config.gcd_function(), gamma)
        - 4 * secondary_support(pc, gamma)
    ) / 2


def _shifted_witness(pc: PointConfig, witness: Covector) -> Covector:
    """Push a witness into the strictly positive orthant by a constant.

    Constants are affine on the configuration, so the secondary cone and
    genericity are preserved.
    """
    low = min(witness)
    shift = Fraction(0) if low >= 1 else 1 - low
    return tuple(w + shift for w in witness)


def _fiber_gradient(config: MorseConfig, witness: Covector) -> tuple[Fraction, ...]:
    """Gradient of area_P_bar at a positive generic witness, by difference quotients.

    area_P_bar has no closed form yet, so each coordinate step is halved
    until the perturbed heights induce the witness's subdivision and the
    quotient is stable under one further halving; the result must satisfy
    the homogeneity identity <g, witness> = area_P_bar(witness). This is the
    library's only step search; it can go once the linearity chambers of
    the fiber body are known.
    """
    pc = config.config()
    cells = regular_subdivision(pc, witness).cells
    value = area_P_bar(config, witness)
    grad = []
    for k in range(config.m):
        eps = Fraction(1)
        prev = None
        for _ in range(STEP_HALVINGS):
            pert = tuple(w + (eps if i == k else 0) for i, w in enumerate(witness))
            if regular_subdivision(pc, pert).cells == cells:
                slope = (area_P_bar(config, pert) - value) / eps
                if slope == prev:
                    break
                prev = slope
            else:
                prev = None
            eps /= 2
        else:
            raise InternalError("no stable coordinate step for the fiber gradient")
        grad.append(slope)
    if sum(g * w for g, w in zip(grad, witness)) != value:
        raise InternalError("fiber gradient fails the homogeneity identity at its witness")
    return tuple(grad)


def morse_polytope(config: MorseConfig, variant: str = "morse") -> PiecewiseLinearRep:
    """Per-secondary-cone gradient representation of the chosen support.

    Each cone's gradient sums three parts at its positive witness: the fiber
    gradient, the closed-form basecondary gradient for F = -gcd, and a GKZ
    term. On nonnegative heights area_N is half the secondary support, so
    Morse takes fiber + base - 3 * gkz and Maxwell (fiber + base - 4 * gkz) / 2.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    pc = config.config()
    f = config.gcd_function()
    entries = []
    seen = set()
    for t in enumerate_triangulations_1d(pc):
        w = _shifted_witness(pc, cone_witness(pc, t))
        parts = zip(_fiber_gradient(config, w), gradient_on_cone(pc, f, w), gkz_vector(pc, t))
        if variant == "morse":
            g = tuple(a + b - 3 * c for a, b, c in parts)
        else:
            g = tuple((a + b - 4 * c) / 2 for a, b, c in parts)
        if g not in seen:
            seen.add(g)
            entries.append((w, g))
    ok, failure = convexity_certificate(entries)
    return PiecewiseLinearRep(entries=tuple(entries), certified=ok, failure_witness=failure)
