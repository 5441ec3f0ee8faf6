"""Answer checks written from the definitions, sharing no code with the library.

Each function here recomputes a quantity the benchmark compares a library
answer against. They use only `fractions` and are small enough to read at a
glance, so a wrong library answer cannot also be a wrong oracle answer.
"""

from __future__ import annotations

from fractions import Fraction


def upper_hull_1d(xs, heights) -> list[int]:
    """0-based indices of the points on the upper convex hull of (x, h), by x.

    Only strict corners are kept: a point lying on the segment between its
    neighbours is dropped.
    """
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    chain: list[int] = []
    for k in order:
        while len(chain) >= 2:
            i, j = chain[-2], chain[-1]
            turn = (xs[j] - xs[i]) * (heights[k] - heights[i]) - (heights[j] - heights[i]) * (
                xs[k] - xs[i]
            )
            if turn >= 0:
                chain.pop()
            else:
                break
        chain.append(k)
    return chain


def subdivision_cells_1d(xs, heights) -> list[list[int]]:
    """Cells (1-based label pairs, sorted) of the regular subdivision of a 1D lift.

    A cell holds every label whose lifted point lies on the upper-hull
    segment, so points on a segment join its cell.
    """
    chain = upper_hull_1d(xs, heights)
    cells = []
    for a, b in zip(chain, chain[1:]):
        members = []
        for k in range(len(xs)):
            if not min(xs[a], xs[b]) <= xs[k] <= max(xs[a], xs[b]):
                continue
            # on the segment from (xs[a], h[a]) to (xs[b], h[b])
            if (xs[b] - xs[a]) * (heights[k] - heights[a]) == (heights[b] - heights[a]) * (
                xs[k] - xs[a]
            ):
                members.append(k + 1)
        cells.append(sorted(members))
    return sorted(cells)


def random_cone_point_1d(xs, chain, rng) -> tuple:
    """Random heights whose upper hull has exactly the strict corners `chain`.

    `chain` lists 0-based point indices by x, as `upper_hull_1d` returns
    them. The corners get a strictly concave profile with random slopes; every
    other point lies a random depth below the hull segment above it.
    """
    slopes = sorted(
        {Fraction(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(4 * len(chain))}, reverse=True
    )[: len(chain) - 1]
    while len(slopes) < len(chain) - 1:  # too few distinct draws: extend downwards
        slopes.append(slopes[-1] - 1 if slopes else Fraction(0))
    heights = [Fraction(0)] * len(xs)
    for (a, b), slope in zip(zip(chain, chain[1:]), slopes):
        heights[b] = heights[a] + slope * (xs[b] - xs[a])
    for k in range(len(xs)):
        if k in chain:
            continue
        a, b = next((a, b) for a, b in zip(chain, chain[1:]) if min(xs[a], xs[b]) < xs[k] < max(xs[a], xs[b]))
        on_hull = heights[a] + (heights[b] - heights[a]) * Fraction(xs[k] - xs[a], xs[b] - xs[a])
        heights[k] = on_hull - Fraction(rng.randint(1, 20), rng.randint(1, 4))
    return tuple(heights)


def area_under_1d(xs, heights) -> Fraction:
    """Euclidean area of conv({(x, 0)} and {(x, h)}) for heights h >= 0."""
    pts = [(Fraction(x), Fraction(0)) for x in xs] + [
        (Fraction(x), Fraction(h)) for x, h in zip(xs, heights)
    ]
    # the region is bounded below by y = 0, above by the upper hull
    upper = upper_hull_1d([p[0] for p in pts], [p[1] for p in pts])
    area = Fraction(0)
    for i, j in zip(upper, upper[1:]):
        (x0, y0), (x1, y1) = pts[i], pts[j]
        area += (x1 - x0) * (y0 + y1) / 2
    return area


def secondary_1d(xs, heights) -> Fraction:
    """Secondary-polytope support of a 1D lift: sum over hull edges of length * height sum."""
    chain = upper_hull_1d(xs, heights)
    return sum(
        ((Fraction(xs[b]) - xs[a]) * (Fraction(heights[a]) + heights[b]) for a, b in zip(chain, chain[1:])),
        Fraction(0),
    )


def lovasz(values: dict, x) -> Fraction:
    """Lovász extension of the set function `values` (frozenset -> value) at x.

    Sorts coordinates in descending order and telescopes along the chain.
    """
    order = sorted(range(len(x)), key=lambda i: -Fraction(x[i]))
    total = Fraction(0)
    prev = Fraction(0)
    chain: set[int] = set()
    for i in order:
        chain.add(i + 1)
        cur = values.get(frozenset(chain), Fraction(0))
        total += Fraction(x[i]) * (cur - prev)
        prev = cur
    return total


def support(vertices, direction) -> Fraction:
    """max over vertices v of <v, direction>."""
    return max(sum(Fraction(a) * Fraction(b) for a, b in zip(v, direction)) for v in vertices)


def is_submodular(values: dict, m: int) -> bool:
    """F(X+a) + F(X+b) >= F(X) + F(X+a+b) for every X and a, b outside X."""

    def f(s):
        return values.get(frozenset(s), Fraction(0))

    for mask in range(1 << m):
        x = frozenset(i + 1 for i in range(m) if mask >> i & 1)
        rest = [i for i in range(1, m + 1) if i not in x]
        for ai, a in enumerate(rest):
            for b in rest[ai + 1 :]:
                if f(x | {a}) + f(x | {b}) < f(x) + f(x | {a, b}):
                    return False
    return True
