"""Set functions on 2^{1..m}: submodularity, Lovász extensions, base polytopes.

F is read on bitmasks, in integers, by `_mask_value`, once per set (`SetFunction.cleared`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import InputError, ResourceError
from .exact_core import CircuitData, PointConfig, as_int, as_list, matrix_rank, rat, rat_str

SUBMODULAR_CHECK_CAP = 16
BASE_POLYTOPE_CAP = 8

Subset = frozenset[int]

KINDS = ("table", "neg_gcd", "neg_indicator_full", "matrix_rank", "neg_card_ratio")


@dataclass(frozen=True)
class SetFunction:
    """A rational-valued function on subsets of {1..m} of size >= min_size.

    Kinds:
      table              explicit values with a default for unlisted subsets
      neg_gcd            -gcd of the 1D integer points indexed by the subset
      neg_indicator_full -1 exactly on subsets containing the marked element
      matrix_rank        rank over Q of the selected columns
      neg_card_ratio     -|X|/m

    A table's keys must be frozensets within 1..m and its values and default
    ints or Fractions; the one pass that checks them takes `scale`, the lcm
    of their denominators (m for neg_card_ratio, 1 else). `scale` and
    `cleared` (F in integers, kept once built) are no fields: ==, hash and
    repr ignore them.
    """

    kind: str
    m: int
    min_size: int = 0
    table: Optional[dict] = None
    default: Fraction = Fraction(0)
    gcd_points: Optional[tuple[int, ...]] = None
    columns: Optional[tuple[tuple[Fraction, ...], ...]] = None
    point: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown set-function kind {self.kind!r}")
        if self.m < 1:
            raise InputError("ground size must be positive")
        if not 0 <= self.min_size <= self.m:
            raise InputError("min_size out of range")
        if self.kind == "neg_gcd":
            if self.gcd_points is None or len(self.gcd_points) != self.m:
                raise InputError("neg_gcd needs one integer point per ground element")
            if any(a == 0 for a in self.gcd_points):
                raise InputError("neg_gcd needs nonzero integer points")
        if self.kind == "matrix_rank":
            if self.columns is None or len(self.columns) != self.m:
                raise InputError("matrix_rank needs one column per ground element")
            if len({len(c) for c in self.columns}) != 1:
                raise InputError("matrix_rank columns must be equally long")
        if self.kind == "neg_indicator_full" and not 1 <= self.point <= self.m:
            raise InputError("marked element out of range")
        scale = self.m if self.kind == "neg_card_ratio" else 1
        if self.kind == "table":
            if self.table is None:
                raise InputError("table kind needs a value map")
            ground, denominators = range(1, self.m + 1), {_rational(self.default, "default").denominator}
            seen = set()  # the labels checked so far, all within 1..m: `_mask`'s rule, with no m-element set
            for key, q in self.table.items():
                if not isinstance(key, frozenset):
                    raise InputError(f"table key {key!r} is not a frozenset")
                if not key <= seen:
                    if not all(i in ground for i in key):
                        shown = sorted(key) if all(isinstance(i, int) for i in key) else set(key)
                        raise InputError(f"table key {shown} not within 1..{self.m}")
                    seen |= key
                if type(q) is not Fraction and type(q) is not int:  # exact types skip the full check
                    _rational(q, "value")
                denominators.add(q.denominator)
            if self.min_size == 0 and self.table.get(frozenset(), 0) != 0:
                raise InputError("F(empty set) must be 0 when min_size is 0")
            scale = math.lcm(*denominators)
        vars(self)["scale"] = scale

    def ground(self) -> Subset:
        return frozenset(range(1, self.m + 1))

    @functools.cached_property
    def cleared(self) -> tuple[Callable[[int], int], int]:
        """(value, d): value(mask) = d * F(X), X the labels of mask's bits (label i at bit i - 1).

        d is `scale`, taken at construction, so no query scans a table. Every
        reader of F in this package reads it, and each set costs one call of
        the module's `_mask_value`, on its first query only: an evaluation
        reads few of the 2^m sets, a submodularity scan all of them.
        """
        return functools.cache(lambda mask: _mask_value(self, mask)), self.scale


def _rational(q, what: str):
    """q itself; a table value or default that is no int or Fraction (a bool included) is an InputError."""
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise InputError(f"table {what} {q!r} is not an int or Fraction")
    return q


def table_function(m: int, values: dict, default=0, min_size: int = 0) -> SetFunction:
    tbl = {frozenset(k): rat(v) for k, v in values.items()}
    return SetFunction(kind="table", m=m, min_size=min_size, table=tbl, default=rat(default))


def neg_gcd_function(config_or_points, min_size: int = 0) -> SetFunction:
    if isinstance(config_or_points, PointConfig):
        if config_or_points.n != 1:
            raise InputError("neg_gcd needs a one-dimensional configuration")
        config_or_points = [p[0] for p in config_or_points.points]
    pts = tuple(as_int(a, "neg_gcd point") for a in config_or_points)
    return SetFunction(kind="neg_gcd", m=len(pts), min_size=min_size, gcd_points=pts)


def neg_indicator_function(m: int, point: int = 1, min_size: int = 0) -> SetFunction:
    return SetFunction(kind="neg_indicator_full", m=m, min_size=min_size, point=point)


def matrix_rank_function(columns, min_size: int = 0) -> SetFunction:
    cols = tuple(tuple(rat(x) for x in as_list(col, "matrix column")) for col in columns)
    return SetFunction(kind="matrix_rank", m=len(cols), min_size=min_size, columns=cols)


def neg_card_ratio_function(m: int, min_size: int = 0) -> SetFunction:
    return SetFunction(kind="neg_card_ratio", m=m, min_size=min_size)


def _mask_value(f: SetFunction, mask: int) -> int:
    """f.scale * F(X), X the labels of mask's bits; a set below min_size is an InputError."""
    if mask.bit_count() < f.min_size:
        raise InputError(f"F is only defined on subsets of size >= {f.min_size}")
    if f.kind == "neg_indicator_full":
        return -(mask >> f.point - 1 & 1)
    if f.kind == "neg_card_ratio":
        return -mask.bit_count()  # -|X| / m at the scale m
    labels = [i for i, bit in enumerate(bin(mask)[:1:-1], 1) if bit == "1"]
    if f.kind == "table":
        q = f.table.get(frozenset(labels), f.default if mask else 0)
        return q.numerator * (f.scale // q.denominator)
    if f.kind == "neg_gcd":
        return -math.gcd(*(f.gcd_points[i - 1] for i in labels))
    return matrix_rank([f.columns[i - 1] for i in labels])


def _mask(f: SetFunction, subset) -> int:
    """The bitmask of a subset of 1..m; a label out of range is an InputError."""
    x, ground = frozenset(subset), range(1, f.m + 1)
    if not all(i in ground for i in x):
        raise InputError(f"subset {sorted(x)} not within 1..{f.m}")
    return sum(1 << i - 1 for i in x)


def evaluate_f(f: SetFunction, subset) -> Fraction:
    """Value of F on a subset of the ground set: its `SetFunction.cleared` read, divided once."""
    value, d = f.cleared
    return Fraction(value(_mask(f, subset)), d)


@dataclass(frozen=True)
class SubmodularityReport:
    holds: bool
    witness: Optional[tuple] = None  # (X, x1, x2, the four values)

    def witness_str(self) -> str:
        """The witness for an error message, each value by `rat_str`."""
        x, i, j, values = self.witness
        return f"X = {list(x)}, pair ({i}, {j}), values {', '.join(map(rat_str, values))}"


def is_submodular(f: SetFunction) -> SubmodularityReport:
    """Exhaustive submodularity check; reports the first violation found."""
    if f.min_size != 0:
        raise InputError("submodularity check needs min_size 0")
    return is_submodular_above(f, 0)


def is_submodular_above(f: SetFunction, n: int) -> SubmodularityReport:
    """Element-pair submodularity restricted to base sets of size >= n, read off `SetFunction.cleared`."""
    if f.m > SUBMODULAR_CHECK_CAP:
        raise ResourceError(f"exhaustive check capped at m = {SUBMODULAR_CHECK_CAP}")
    value, d = f.cleared
    for mask in (s for s in range(1 << f.m) if s.bit_count() >= max(n, f.min_size)):
        for i, j in itertools.combinations([k for k in range(f.m) if not mask >> k & 1], 2):
            a, b, c, e = value(mask | 1 << i), value(mask | 1 << j), value(mask), value(mask | 1 << i | 1 << j)
            if a + b < c + e:
                x = tuple(k + 1 for k in range(f.m) if mask >> k & 1)
                values = tuple(Fraction(v, d) for v in (a, b, c, e))
                return SubmodularityReport(holds=False, witness=(x, i + 1, j + 1, values))
    return SubmodularityReport(holds=True)


@dataclass(frozen=True)
class CircuitConditionReport:
    passed: bool
    rows: tuple[tuple[tuple[int, ...], Fraction], ...] = field(default=())


def circuit_value(f: SetFunction, circuit: CircuitData) -> Fraction:
    """The circuit expression of F, the value the convexity theorem tests.

    With J the circuit's labels (`circuit.ordering`), J0 its support and N
    the ground set: sum_{k in J0} F(J \\ k) - (|J0| - 1) F(J) - F(N).
    """
    (value, d), labels = f.cleared, _mask(f, circuit.ordering)
    total = -(len(circuit.support) - 1) * value(labels) - value((1 << f.m) - 1)
    for k in circuit.support:
        total += value(labels & ~(1 << k - 1))
    return Fraction(total, d)


def circuit_condition_check(f: SetFunction, config: PointConfig) -> CircuitConditionReport:
    """Evaluate the circuit inequality on every spanning (n+2)-subset.

    Each row is a subset J whose `PointConfig.circuit` exists (its image
    spans Q^n), in lexicographic order, and the `circuit_value` of that
    circuit; the report passes when every value is >= 0.
    """
    if f.m != config.m:
        raise InputError("set function and configuration disagree on m")
    rows = []
    for j in itertools.combinations(range(1, config.m + 1), config.n + 2):
        if (circuit := config.circuit(j)) is not None:  # a hyperplane is outside the theorem's hypothesis
            rows.append((j, circuit_value(f, circuit)))
    return CircuitConditionReport(passed=all(v >= 0 for _, v in rows), rows=tuple(rows))


def lovasz_extension(f: SetFunction, x) -> Fraction:
    """Piecewise-linear extension: <x, greedy_vertex(f, order)> for x's descending order.

    Ties are broken by ascending index; the value does not depend on the
    tie break.
    """
    if f.min_size != 0:
        raise InputError("Lovász extension needs min_size 0")
    vec = [rat(c) for c in as_list(x, "x")]
    if len(vec) != f.m:
        raise InputError(f"expected a vector of length {f.m}")
    order = sorted(range(1, f.m + 1), key=lambda i: (-vec[i - 1], i))
    return sum((c * y for c, y in zip(vec, greedy_vertex(f, order))), Fraction(0))


def greedy_vertex(f: SetFunction, order) -> tuple[Fraction, ...]:
    """Telescoping increments of F along a permutation of the ground set."""
    if f.min_size != 0:
        raise InputError("greedy construction needs min_size 0")
    perm = list(order)
    if sorted(perm) != list(range(1, f.m + 1)):
        raise InputError("order must be a permutation of 1..m")
    (value, d), y = f.cleared, [Fraction(0)] * f.m
    mask = prev = 0
    for i in perm:
        mask |= 1 << i - 1
        cur = value(mask)
        y[i - 1] = Fraction(cur - prev, d)
        prev = cur
    return tuple(y)


def base_polytope(f: SetFunction) -> tuple[tuple[Fraction, ...], ...]:
    """Deduplicated greedy vertices over all m! orders (submodular f only)."""
    if f.m > BASE_POLYTOPE_CAP:
        raise ResourceError(f"full vertex enumeration capped at m = {BASE_POLYTOPE_CAP}")
    report = is_submodular(f)
    if not report.holds:
        raise InputError(f"not submodular; witness {report.witness_str()}")
    return tuple(sorted({greedy_vertex(f, order) for order in itertools.permutations(range(1, f.m + 1))}))
