"""Set functions, submodularity, Lovász extensions, base polytopes.

The bitmask readers of `SetFunction.cleared` must be `repr`-equal with the
frozenset routes of `quantity_reference` and query each set once.
"""

from fractions import Fraction as F

import dataclasses
import itertools
import random
import re

import pytest
import quantity_reference as ref

from basecondary import core, setfun
from basecondary.core import wall_defect_numeric
from basecondary.errors import InputError, ResourceError
from basecondary.exact_core import find_circuit, make_config
from basecondary.secondary import enumerate_walls_1d
from basecondary.setfun import (
    KINDS,
    SetFunction,
    base_polytope,
    circuit_condition_check,
    circuit_value,
    evaluate_f,
    greedy_vertex,
    is_submodular,
    is_submodular_above,
    lovasz_extension,
    matrix_rank_function,
    neg_card_ratio_function,
    neg_gcd_function,
    neg_indicator_function,
    table_function,
)

A1367 = make_config(1, [[1], [3], [6], [7]])


def random_table(rng, m, min_size=0, lo=-4, hi=4):
    values = {}
    for r in range(min_size, m + 1):
        for sub in itertools.combinations(range(1, m + 1), r):
            if r == 0:
                continue
            values[frozenset(sub)] = F(rng.randint(lo, hi), rng.randint(1, 3))
    return SetFunction(kind="table", m=m, min_size=min_size, table=values)


def coverage_function(rng, m, groups=3):
    """Random weighted coverage plus a modular part: always submodular."""
    sets = [frozenset(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(groups)]
    weights = [F(rng.randint(0, 5)) for _ in range(groups)]
    modular = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
    values = {}
    for r in range(1, m + 1):
        for sub in itertools.combinations(range(1, m + 1), r):
            x = frozenset(sub)
            cov = sum(w for w, s in zip(weights, sets) if s & x)
            values[x] = cov + sum(modular[i - 1] for i in x)
    return SetFunction(kind="table", m=m, min_size=0, table=values)


def test_evaluate_examples():
    f = neg_card_ratio_function(3)
    assert evaluate_f(f, {1, 2}) == F(-2, 3)
    g = neg_gcd_function([1, 3, 6, 7])
    assert evaluate_f(g, {2, 3}) == -3
    ind = neg_indicator_function(4)
    assert evaluate_f(ind, {1, 2, 3, 4}) == -1
    # the marked ground element (default 1) decides membership
    assert evaluate_f(ind, {1, 2, 3}) == -1
    assert evaluate_f(ind, {2, 3, 4}) == 0


def test_neg_gcd_points_are_parsed_exactly():
    assert neg_gcd_function([4, "6", F(9)]).gcd_points == (4, 6, 9)
    for bad in ([4, 6.5, "9"], [4, F(13, 2), 9], [4, "13/2", 9], [4, "x", 9]):
        with pytest.raises(InputError, match="must be an integer"):
            neg_gcd_function(bad)
    with pytest.raises(InputError, match="must be an integer"):
        neg_gcd_function(make_config(1, [[1], ["5/2"], [6]]))


def test_evaluate_domain_errors():
    f = neg_gcd_function([1, 3, 6, 7], min_size=1)
    with pytest.raises(InputError):
        evaluate_f(f, set())
    with pytest.raises(InputError):
        evaluate_f(f, {5})


def test_table_empty_set_invariant():
    with pytest.raises(InputError):
        SetFunction(kind="table", m=2, min_size=0, table={frozenset(): F(1)})
    f = table_function(2, {frozenset({1}): 1, frozenset({2}): 2, frozenset({1, 2}): 2})
    assert evaluate_f(f, set()) == 0


def test_evaluate_f_returns_fractions_for_int_table_values():
    f = SetFunction(kind="table", m=2, table={frozenset({1}): 3}, default=2)
    for x, value in (({1}, 3), ({2}, 2), ({1, 2}, 2), ((), 0)):
        got = evaluate_f(f, x)
        assert type(got) is F and got == value


def test_table_keys_outside_the_ground_set_are_refused():
    for key in ({1, 9}, {0, 2}, {5}):
        with pytest.raises(InputError, match=re.escape(f"table key {sorted(key)} not within 1..4")):
            table_function(4, {frozenset(key): 1, frozenset({1, 2}): 2})
    assert table_function(4, {frozenset({1, 4}): 1}).table == {frozenset({1, 4}): 1}


@pytest.mark.parametrize("table, default, message", [
    ({(1, 2): F(1)}, F(0), "table key (1, 2) is not a frozenset"),
    ({3: F(1)}, F(0), "table key 3 is not a frozenset"),
    ({frozenset({1, "a"}): F(1)}, F(0), "not within 1..4"),
    ({frozenset({1}): 0.5}, F(0), "table value 0.5 is not an int or Fraction"),
    ({frozenset({1}): "1/2"}, F(0), "table value '1/2' is not an int or Fraction"),
    ({frozenset({1}): None}, F(0), "table value None is not an int or Fraction"),
    ({frozenset({1}): True}, F(0), "table value True is not an int or Fraction"),
    ({frozenset({1}): F(1)}, 0.25, "table default 0.25 is not an int or Fraction"),
], ids=["tuple-key", "int-key", "str-label", "float", "str", "None", "bool", "float-default"])
def test_table_refuses_bad_keys_and_values_at_construction(table, default, message):
    with pytest.raises(InputError, match=re.escape(message)):
        SetFunction(kind="table", m=4, min_size=1, table=table, default=default)


def test_table_scale_is_taken_at_construction():
    f = SetFunction(kind="table", m=3, table={frozenset({1}): F(1, 6), frozenset({2, 3}): 4}, default=F(3, 4))
    assert vars(f)["scale"] == 12 and "cleared" not in vars(f)
    assert f.cleared[1] == 12 and f.cleared[0](0b110) == 48
    assert "scale" not in repr(f) and f == SetFunction(kind="table", m=3, table=dict(f.table), default=F(3, 4))


class _CountedTable(dict):
    """A table that counts the calls that scan it; `get` is not counted."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scans = []

    def items(self):
        self.scans.append("items")
        return super().items()

    def values(self):
        self.scans.append("values")
        return super().values()

    def __iter__(self):
        self.scans.append("__iter__")
        return super().__iter__()


def test_no_reader_scans_the_table():
    rng = random.Random("unscanned table")
    values = {frozenset(sub): F(rng.randint(-5, 5), rng.randint(1, 6))
              for r in range(1, 5) for sub in itertools.combinations(range(1, 5), r)}
    circuit = find_circuit(A1367.subset_points([1, 2, 3]), labels=[1, 2, 3])
    readers = [
        lambda f: core.eval_basecondary_general(A1367, f, (2, 4, 5, 3)),
        lambda f: core.eval_basecondary_generic(A1367, f, (2, 4, 5, 3)),
        lambda f: circuit_value(f, circuit),
        lambda f: greedy_vertex(f, (3, 1, 4, 2)),
    ]
    for read in readers:
        table = _CountedTable(values)
        f = SetFunction(kind="table", m=4, table=table, default=F(1, 7))
        table.scans.clear()
        got = read(f)
        assert table.scans == []
        assert repr(got) == repr(read(SetFunction(kind="table", m=4, table=dict(values), default=F(1, 7))))


def _every_kind(rng, m):
    """One F of each kind on 1..m, min_size 1; the table lists about half the sets and has a default."""
    table = {
        frozenset(sub): F(rng.randint(-5, 5), rng.randint(1, 6))
        for r in range(1, m + 1)
        for sub in itertools.combinations(range(1, m + 1), r)
        if rng.random() < 0.5
    }
    columns = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)] for _ in range(m)]
    return [
        SetFunction(kind="table", m=m, min_size=1, table=table, default=F(rng.randint(-5, 5), rng.randint(1, 7))),
        neg_gcd_function([rng.choice([-6, -4, -3, 2, 3, 9]) for _ in range(m)], min_size=1),
        neg_indicator_function(m, point=rng.randint(1, m), min_size=1),
        matrix_rank_function(columns, min_size=1),
        neg_card_ratio_function(m, min_size=1),
    ]


def _subsets(m):
    for mask in range(1, 1 << m):
        yield mask, frozenset(i for i in range(1, m + 1) if mask >> i - 1 & 1)


def test_cleared_values_are_evaluate_f_times_one_denominator():
    rng = random.Random("cleared")
    for m in range(1, 7):
        for f in _every_kind(rng, m):
            value, d = f.cleared
            assert d >= 1 and all(value(mask) == d * ref.evaluate_f(f, x) for mask, x in _subsets(m)), f
            assert type(value((1 << m) - 1)) is int
    table = SetFunction(kind="table", m=2, table={frozenset({1}): F(1, 6)}, default=F(3, 4))
    assert table.cleared[1] == 12 and table.cleared[0](3) == 9


def test_evaluate_f_matches_the_per_kind_reference():
    # the bitmask reader against the frozenset one it replaced, refusals and their messages included
    rng = random.Random("evaluate_f/reference")
    kinds = set()
    for m in range(1, 7):
        for f in _every_kind(rng, m):
            kinds.add(f.kind)
            for min_size in range(m + 1):
                g = dataclasses.replace(f, min_size=min_size)
                for x in [()] + [x for _, x in _subsets(m)] + [{0}, {m + 1}, {-1, 1}, {1, m + 1}]:
                    got, want = _outcome(evaluate_f, g, x), _outcome(ref.evaluate_f, g, x)
                    assert got == want, (g, x)
    assert kinds == set(KINDS)


def test_cleared_keeps_equality_and_repr_and_its_matrix_columns():
    rng = random.Random("cleared/hygiene")
    for m in range(1, 7):
        for f in _every_kind(rng, m):
            twin = SetFunction(**{k: getattr(f, k) for k in f.__dataclass_fields__})
            before = repr(f)
            f.cleared
            assert f == twin and repr(f) == before == repr(twin)
        f = matrix_rank_function([[rng.randint(-2, 2) for _ in range(4)] for _ in range(m)])
        columns = f.columns
        value, _ = f.cleared
        for _ in range(3):  # each rank runs on copies: no query changes a later one
            for mask, x in rng.sample(list(_subsets(m)), (1 << m) - 1):
                assert value(mask) == evaluate_f(f, x), (f, x)
        assert f.columns == columns


def test_is_submodular_examples():
    assert is_submodular(neg_card_ratio_function(4)).holds
    cols = [[1, v] for v in (0, 1, 2, 5)]
    assert is_submodular(matrix_rank_function(cols)).holds
    report = is_submodular(neg_gcd_function([1, 2]))
    assert not report.holds
    x, x1, x2, values = report.witness
    assert x == () and {x1, x2} == {1, 2}
    a, b, c, d = values
    assert a + b < c + d


def test_is_submodular_above():
    f = neg_card_ratio_function(4)
    for n in range(4):
        assert is_submodular_above(f, n).holds
    bad = neg_gcd_function([1, 2])
    assert is_submodular_above(bad, 1).holds  # vacuous: no room for two outside elements
    assert is_submodular_above(neg_gcd_function([1, 3, 6, 7]), 1).holds


def test_submodular_check_cap():
    with pytest.raises(ResourceError):
        is_submodular(neg_card_ratio_function(17))


def test_circuit_condition_zero_function():
    f = table_function(4, {}, default=0, min_size=1)
    report = circuit_condition_check(f, A1367)
    assert report.passed
    assert all(v == 0 for _, v in report.rows)


def test_circuit_condition_neg_gcd():
    f = neg_gcd_function(A1367, min_size=1)
    report = circuit_condition_check(f, A1367)
    assert not report.passed
    values = dict(report.rows)
    assert values[(1, 2, 3)] == -2
    assert values[(2, 3, 4)] == -2
    assert values[(1, 2, 4)] == 0
    assert values[(1, 3, 4)] == 0


def test_circuit_condition_indicator():
    f = neg_indicator_function(4, min_size=1)
    report = circuit_condition_check(f, A1367)
    assert report.passed
    assert all(v == 1 for _, v in report.rows)


def test_circuit_value_refuses_labels_off_the_ground_set():
    for labels in ([1, 2, 5], [0, 1, 2]):
        circuit = find_circuit(A1367.subset_points([1, 2, 3]), labels=labels)
        with pytest.raises(InputError, match=re.escape(f"subset {labels} not within 1..4")):
            circuit_value(neg_card_ratio_function(4), circuit)


def test_circuit_condition_skips_hyperplane_subsets():
    square = make_config(2, [[0, 0], [2, 0], [0, 2], [2, 2], [4, 0]])
    f = table_function(5, {}, default=0, min_size=2)
    report = circuit_condition_check(f, square)
    # the subset {1,2,5} is collinear and must be skipped
    assert all(set(j) != {1, 2, 5} for j, _ in report.rows)


def test_lovasz_examples():
    f = neg_card_ratio_function(3)
    assert lovasz_extension(f, (3, 2, 1)) == -2
    assert lovasz_extension(f, (6, 4, 2)) == -4
    tbl = table_function(2, {frozenset({1}): 1, frozenset({2}): 2, frozenset({1, 2}): 2})
    assert lovasz_extension(tbl, (1, 0)) == 1


def test_lovasz_indicator_consistency():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(2, 5)
        f = random_table(rng, m)
        for r in range(m + 1):
            for sub in itertools.combinations(range(1, m + 1), r):
                x = [1 if i in sub else 0 for i in range(1, m + 1)]
                assert lovasz_extension(f, x) == evaluate_f(f, sub)


def test_lovasz_homogeneity_and_tie_independence():
    rng = random.Random(6)
    for _ in range(30):
        m = rng.randint(2, 5)
        f = random_table(rng, m)
        x = [F(rng.randint(-4, 4)) for _ in range(m)]
        if m >= 2:
            x[1] = x[0]  # force a tie
        lam = F(rng.randint(1, 5), rng.randint(1, 3))
        base = lovasz_extension(f, x)
        assert lovasz_extension(f, [lam * c for c in x]) == lam * base
        # evaluating after swapping the tied coordinates' identities changes nothing
        perm = list(range(m))
        perm[0], perm[1] = perm[1], perm[0]
        assert lovasz_extension(f, [x[perm[i]] for i in range(m)]) == lovasz_extension(
            f, x
        ) or x[0] != x[1]


def test_lovasz_convexity_iff_submodular():
    rng = random.Random(7)
    checked_convex = checked_violation = 0
    while checked_convex < 10 or checked_violation < 10:
        m = rng.randint(2, 4)
        f = coverage_function(rng, m) if checked_convex < 10 else random_table(rng, m)
        report = is_submodular(f)
        if report.holds:
            checked_convex += 1
            for _ in range(10):
                x = [F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(m)]
                y = [F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(m)]
                mid = [(a + b) / 2 for a, b in zip(x, y)]
                assert 2 * lovasz_extension(f, mid) <= lovasz_extension(f, x) + lovasz_extension(f, y)
        else:
            checked_violation += 1
            x_set, x1, x2, _ = report.witness
            base = [1 if i in x_set else 0 for i in range(1, m + 1)]
            u = list(base)
            v = list(base)
            u[x1 - 1] = 1
            v[x2 - 1] = 1
            mid = [(a + b) / F(2) for a, b in zip(u, v)]
            assert 2 * lovasz_extension(f, mid) > lovasz_extension(f, u) + lovasz_extension(f, v)


def test_greedy_examples():
    f = neg_card_ratio_function(3)
    for order in itertools.permutations((1, 2, 3)):
        assert greedy_vertex(f, order) == (F(-1, 3), F(-1, 3), F(-1, 3))
    tbl = table_function(2, {frozenset({1}): 1, frozenset({2}): 2, frozenset({1, 2}): 2})
    assert greedy_vertex(tbl, (1, 2)) == (1, 1)
    assert greedy_vertex(tbl, (2, 1)) == (0, 2)


def test_greedy_coordinates_sum_to_full_value():
    rng = random.Random(8)
    for _ in range(20):
        m = rng.randint(2, 5)
        f = random_table(rng, m)
        order = list(range(1, m + 1))
        rng.shuffle(order)
        v = greedy_vertex(f, order)
        assert sum(v) == evaluate_f(f, set(range(1, m + 1)))


def test_base_polytope_examples():
    assert base_polytope(neg_card_ratio_function(3)) == ((F(-1, 3),) * 3,)
    matroid = table_function(
        2, {frozenset({1}): 1, frozenset({2}): 1, frozenset({1, 2}): 1}
    )
    assert set(base_polytope(matroid)) == {(F(0), F(1)), (F(1), F(0))}
    zero = table_function(3, {})
    assert base_polytope(zero) == ((F(0), F(0), F(0)),)
    with pytest.raises(InputError):
        base_polytope(neg_gcd_function([1, 2]))


def submodular_polyhedron_contains(f, y):
    """Whether sum_{s in X} y_s <= F(X) for every nonempty subset X: the oracle for `base_polytope`."""
    ground = range(1, f.m + 1)
    return all(
        sum(y[i - 1] for i in x) <= evaluate_f(f, x)
        for r in range(1, f.m + 1)
        for x in itertools.combinations(ground, r)
    )


def test_submodular_polyhedron_examples():
    nonneg = table_function(3, {}, default=2)
    assert submodular_polyhedron_contains(nonneg, (0, 0, 0))
    assert not submodular_polyhedron_contains(neg_card_ratio_function(3), (0, 0, 0))


def test_greedy_vertices_feasible_and_optimal():
    rng = random.Random(9)
    for _ in range(10):
        m = rng.randint(2, 4)
        f = coverage_function(rng, m)
        assert is_submodular(f).holds
        vertices = base_polytope(f)
        for v in vertices:
            assert submodular_polyhedron_contains(f, v)
        for _ in range(8):
            x = [F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(m)]
            best = max(sum(a * b for a, b in zip(v, x)) for v in vertices)
            assert best == lovasz_extension(f, x)


def _outcome(route, *args):
    """repr of the route's result, or of the InputError it raises."""
    try:
        return repr(route(*args))
    except InputError as e:
        return repr(e)


def _on_frozensets(monkeypatch, route, *args):
    """`_outcome` with the submodularity scan, `circuit_value` and `greedy_vertex` read through frozensets."""
    with monkeypatch.context() as mp:
        for module, name in ((setfun, "is_submodular_above"), (setfun, "circuit_value"),
                             (core, "circuit_value"), (setfun, "greedy_vertex")):
            mp.setattr(module, name, getattr(ref, name))
        return _outcome(route, *args)


def _functions(rng, m, min_size):
    """Every kind on 1..m at min_size; the tables are a coverage function (submodular) and a random one."""
    coverage = coverage_function(rng, m)
    tables = [
        SetFunction(kind="table", m=m, min_size=min_size, table=dict(coverage.table)),
        SetFunction(kind="table", m=m, min_size=min_size, table=random_table(rng, m).table,
                    default=F(rng.randint(-5, 5), rng.randint(1, 7))),
    ]
    others = [dataclasses.replace(f, min_size=min_size) for f in _every_kind(rng, m)[1:]]
    return tables + others


@pytest.mark.parametrize("min_size", [0, 1, 2])
def test_bitmask_readers_match_the_frozenset_routes(min_size, monkeypatch):
    rng = random.Random(f"setfun-routes/{min_size}")
    holds = fails = walls = 0
    for _ in range(6):
        m = rng.randint(max(3, min_size + 2), 6)
        n = max(1, min_size)
        config = make_config(n, sorted(set(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(3 * m)))[:m])
        for f in _functions(rng, config.m, min_size):
            for above in range(config.m):
                got = _outcome(is_submodular_above, f, above)
                assert got == _on_frozensets(monkeypatch, is_submodular_above, f, above), (f, above)
                holds, fails = (holds + 1, fails) if "holds=True" in got else (holds, fails + 1)
            assert _outcome(circuit_condition_check, f, config) == _on_frozensets(
                monkeypatch, circuit_condition_check, f, config)
            for wall in enumerate_walls_1d(config) if n == 1 else ():
                walls += 1
                assert _outcome(wall_defect_numeric, config, f, wall) == _on_frozensets(
                    monkeypatch, wall_defect_numeric, config, f, wall)
            if min_size:
                continue
            for _ in range(4):
                order = rng.sample(range(1, f.m + 1), f.m)
                assert repr(greedy_vertex(f, order)) == repr(ref.greedy_vertex(f, order))
                x = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(f.m)]
                assert _outcome(lovasz_extension, f, x) == _on_frozensets(monkeypatch, lovasz_extension, f, x)
            assert _outcome(base_polytope, f) == _on_frozensets(monkeypatch, base_polytope, f)
    assert holds >= 100 and fails >= 10
    assert walls >= (100 if min_size <= 1 else 0)


def test_each_set_costs_one_f_call(monkeypatch):
    calls = []
    real, real_ref = setfun._mask_value, ref.evaluate_f
    monkeypatch.setattr(setfun, "_mask_value", lambda f, mask: calls.append(mask) or real(f, mask))
    monkeypatch.setattr(ref, "evaluate_f", lambda f, x: calls.append(frozenset(x)) or real_ref(f, x))
    assert is_submodular_above(neg_card_ratio_function(6), 0).holds
    assert len(calls) == len(set(calls)) == 64
    calls.clear()
    base_polytope(neg_card_ratio_function(5))
    assert len(calls) == len(set(calls)) == 32
    calls.clear()
    assert ref.is_submodular_above(neg_card_ratio_function(6), 0).holds
    assert len(calls) == 960  # four frozenset queries per (X, x1, x2)
