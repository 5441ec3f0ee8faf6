"""Step-halving difference quotients: the reference the closed forms are tested against.

The library computes gradients (cofactor sums, GKZ vectors) and wall defects
(the circuit lemma) in closed form. These helpers recover the same numbers
from function values alone, by halving a step until the perturbed heights
stay in the right cone and the quotient is stable, so they share no code
with the closed forms beyond the evaluators and the lift.
"""

from fractions import Fraction

from basecondary.secondary import covector, is_generic, regular_subdivision

STEP_SEARCH_CAP = 64


def numeric_gradient(config, fn, witness):
    """Gradient of fn at a generic witness by coordinate difference quotients.

    Each coordinate step is halved until the perturbed height keeps the
    witness's subdivision and the quotient is stable under one more halving;
    the result must satisfy the homogeneity identity <g, witness> = fn(witness).
    """
    witness = covector(config, witness)
    assert is_generic(config, witness), "gradients are taken at generic witnesses"
    base_cells = regular_subdivision(config, witness).cells
    value = fn(witness)
    grad = []
    for k in range(config.m):
        eps = Fraction(1)
        prev = None
        for _ in range(STEP_SEARCH_CAP):
            pert = tuple(w + (eps if i == k else 0) for i, w in enumerate(witness))
            if regular_subdivision(config, pert).cells == base_cells:
                slope = (fn(pert) - value) / eps
                if slope == prev:
                    break
                prev = slope
            else:
                prev = None
            eps /= 2
        else:
            raise AssertionError("no stable coordinate step inside the cone")
        grad.append(slope)
    assert sum(g * w for g, w in zip(grad, witness)) == value, "homogeneity fails"
    return tuple(grad)


def second_difference(config, fn, wall):
    """(fn(w + eps u) + fn(w - eps u) - 2 fn(w)) / eps across a wall, and eps.

    The wall is a `witness_reference.WallWitness`, w its witness point and u
    its direction. The step is halved until both offsets land in the wall's
    two cones and the value is stable under one more halving, so it is the
    exact jump of the one-sided derivatives along the wall direction.
    """
    w, u = wall.witness, wall.direction
    base = fn(w)
    eps = Fraction(1)
    prev = None
    for _ in range(STEP_SEARCH_CAP):
        plus = tuple(a + eps * b for a, b in zip(w, u))
        minus = tuple(a - eps * b for a, b in zip(w, u))
        if (
            regular_subdivision(config, plus).cells == wall.left.cells
            and regular_subdivision(config, minus).cells == wall.right.cells
        ):
            value = (fn(plus) + fn(minus) - 2 * base) / eps
            if value == prev:
                return value, eps * 2
            prev = value
        else:
            prev = None
        eps /= 2
    raise AssertionError("no stable step across the wall")
