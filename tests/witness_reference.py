"""Cone witnesses and 1D wall points by nested retries: the reference for the library's reads.

The library builds each 1D triangulation's cone witness as one Kronecker
point, with no lift, and reads its walls off the triangulation. These helpers find
the same cones and walls the long way, as the library once did: a cone
witness restarts its jitter loop at an offset `salt`, and each wall retries
cone witnesses at salts 0, 1, 2, ... until one still meets the circuit
lemma's hypotheses with the moved height on its neighbours' chord. That
point is the wall's witness, where the numeric oracle checks the closed-form
wall defects.
"""

from dataclasses import dataclass
from fractions import Fraction

from quantity_reference import is_generic_lift

from basecondary.errors import InputError, InternalError
from basecondary.exact_core import CircuitData, clear_denominators, find_circuit
from basecondary.secondary import (
    Covector,
    Subdivision,
    _chain_cells,
    _labels_by_coordinate,
    enumerate_triangulations_1d,
    upper_cells,
)

WITNESS_RETRY_CAP = 64


@dataclass(frozen=True)
class WallWitness:
    """A wall with a point on it: exactly one circuital cell, every tail distinct."""

    left: Subdivision
    right: Subdivision
    witness: Covector
    direction: Covector
    circuit: CircuitData

    @property
    def moved(self) -> int:
        return next(i + 1 for i, d in enumerate(self.direction) if d != 0)


def parabola(config, t):
    """Attempt 0: a concave parabola on t's vertices, small negative heights below every chord elsewhere."""
    verts = set(t.vertex_set())
    big = 1 + max(p[0] * p[0] for p in config.points)
    base = []
    for i in range(1, config.m + 1):
        a = config.image(i)[0]
        if i in verts:
            base.append(big - a * a)
        else:
            base.append(Fraction(i, config.m + 1) - 1)
    return tuple(base)


def cone_witness(config, t, salt=0):
    """Parabola heights on t's vertices, jittered from attempt `salt` on until generic."""
    if not t.is_triangulation:
        raise InputError("cone witnesses are built for triangulations")
    verts = set(t.vertex_set())
    if config.n != 1:
        raise InputError("deterministic witnesses implemented for n = 1")
    base = parabola(config, t)
    # the parabola clears each chord by >= 1/d^2; the jitter stays below half that
    d = clear_denominators([p[0] for p in config.points])[1]
    primes = (2, 3, 5, 7, 11, 13)
    for raw_attempt in range(WITNESS_RETRY_CAP):
        attempt = raw_attempt + salt
        if attempt == 0:
            jitter = {i: Fraction(0) for i in verts}
        else:
            r = primes[(attempt - 1) % len(primes)]
            amp = Fraction(1, 2 ** ((attempt - 1) // len(primes) + 1)) / (d * d)
            jitter = {i: amp * Fraction(r**i, r**config.m) for i in verts}
        gamma = tuple(
            base[i - 1] + jitter.get(i, Fraction(0))
            for i in range(1, config.m + 1)
        )
        cells = upper_cells(config, gamma)
        if tuple(c.cell for c in cells) == t.cells and is_generic_lift(config.n, cells):
            return gamma
    raise InternalError(f"no generic witness found for {t.cells} within the retry budget")


def wall_between(config, t, j):
    """The wall moving vertex j of t, from the first salt whose witness still qualifies."""
    order = [i for i in _labels_by_coordinate(config) if i in set(t.vertex_set())]
    pos = order.index(j)
    ln, rn = order[pos - 1], order[pos + 1]
    al, aj, ar = (config.image(i)[0] for i in (ln, j, rn))
    right = Subdivision(n=1, cells=_chain_cells([i for i in order if i != j]))
    direction = tuple(
        Fraction(1) if i == j else Fraction(0) for i in range(1, config.m + 1)
    )
    for salt in range(WITNESS_RETRY_CAP):
        w0 = list(cone_witness(config, t, salt=salt))
        w0[j - 1] = w0[ln - 1] + (w0[rn - 1] - w0[ln - 1]) * (aj - al) / (ar - al)
        witness = tuple(w0)
        cells = upper_cells(config, witness)
        if sum(len(c.cell) == 3 for c in cells) != 1:
            continue
        if not all(c.distinct_tail for c in cells):
            continue
        return WallWitness(
            left=t,
            right=right,
            witness=witness,
            direction=direction,
            circuit=find_circuit(config.subset_points((ln, j, rn)), labels=[ln, j, rn]),
        )
    raise InternalError(f"no valid wall witness between {t.cells} and {right.cells}")


def enumerate_walls_1d(config):
    walls = []
    for t in enumerate_triangulations_1d(config):
        verts = [i for i in _labels_by_coordinate(config) if i in set(t.vertex_set())]
        for j in verts[1:-1]:
            walls.append(wall_between(config, t, j))
    return tuple(sorted(walls, key=lambda w: (w.left.cells, w.moved)))


def walls_by_side(config):
    """The reference walls keyed by (left subdivision, moved label), as a library wall is matched."""
    return {(w.left, w.moved): w for w in enumerate_walls_1d(config)}
