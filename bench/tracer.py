"""Per-layer spans recorded from outside the library.

Each listed public function is wrapped by rebinding its name in every
`basecondary` module that holds it: `core`, `secondary` and `fiber_morse`
import names directly (`from .secondary import upper_cells`), so patching
only the defining module would miss their calls. A span records its name,
start, end, parent span and op id; spans stay in memory and are written out
when the run ends. Recording is on only while an op's timed call runs, never
during its answer check.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time

import worker
from speed import Speed

LAYERS = {
    "exact_core": ("solve_linear", "affine_rank", "oriented_volume", "lattice_volume", "find_circuit",
                   "fiber_polygon", "minkowski_sum"),
    "setfun": ("evaluate_f", "circuit_condition_check", "lovasz_extension"),
    "secondary": ("upper_cells", "regular_subdivision", "secondary_support", "cone_witness",
                  "enumerate_walls_1d", "discover_cones_random"),
    "core": ("eval_basecondary_general", "expansion_terms", "is_generic", "enumerate_simplicial",
             "enumerate_circuital", "gradient_on_cone", "wall_defect_numeric", "min_convexifier",
             "reconstruct_polytope", "convexity_certificate"),
    "fiber_morse": ("morse_polytope", "morse_support", "maxwell_support", "area_P_bar"),
    "tropical": ("sample_morse_fraction", "is_morse", "critical_points"),
    "cli": ("main",),
}
NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
# one brute-force pass over point subsets, each with its own affine solves
LIFT_PASSES = ("secondary.upper_cells", "core.enumerate_simplicial", "core.enumerate_circuital")
DISCOVER = "secondary.discover_cones_random"
# ratio name -> (ancestor span, counted descendant spans)
RATIOS = {
    "secondary.upper_cells.solves_per_call": ("secondary.upper_cells", ("exact_core.solve_linear",)),
    "core.is_generic.lifts_per_call": ("core.is_generic", LIFT_PASSES),
    "core.gradient_on_cone.lifts_per_call": ("core.gradient_on_cone", LIFT_PASSES),
    "core.gradient_on_cone.evals_per_call": ("core.gradient_on_cone", ("core.eval_basecondary_general",)),
    "core.wall_defect_numeric.lifts_per_call": ("core.wall_defect_numeric", LIFT_PASSES),
    "secondary.cone_witness.lifts_per_call": ("secondary.cone_witness", LIFT_PASSES),
}
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.ops: list = []  # [op id, start_ns, end_ns] of each traced op call
        self.stack: list = []
        self.active = False
        self.op_id = -1
        self.discover = [0, 0]  # samples drawn, cones found
        self.patched: list = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                self.stack.pop()
            if name == DISCOVER:
                self.discover[0] += args[1] if len(args) > 1 else kwargs["samples"]
                self.discover[1] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "basecondary" or key.startswith("basecondary.")]
        for name in NAMES:
            layer, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"basecondary.{layer}"), fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    @contextlib.contextmanager
    def op(self, op_id):
        self.op_id = op_id
        start = time.perf_counter_ns()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.ops.append([op_id, start, time.perf_counter_ns()])


def _union_net(intervals, speed) -> int:
    """ns covered by the union of the intervals, reference sampling removed."""
    total, cur = 0, None
    for s, e in sorted(intervals):
        if cur is None or s > cur[1]:
            if cur is not None:
                total += speed.net_ns(*cur)
            cur = [s, e]
        else:
            cur[1] = max(cur[1], e)
    return total + (speed.net_ns(*cur) if cur is not None else 0)


def summarize(tracer: Tracer, speed) -> tuple[dict, list]:
    """Per-name calls, busy and self time, the waste ratios, and sanity violations."""
    spans = tracer.spans
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
    violations = []
    calls = dict.fromkeys(NAMES, 0)
    busy = {name: [] for name in NAMES}
    self_ns = dict.fromkeys(NAMES, 0)
    self_by_op: dict = {}
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        busy[s[NAME]].append((s[START], s[END]))
        kids = [(spans[c][START], spans[c][END]) for c in children.get(i, ())]
        own = speed.net_ns(s[START], s[END]) - _union_net(kids, speed)
        self_ns[s[NAME]] += own
        self_by_op[s[OP]] = self_by_op.get(s[OP], 0) + own
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            if not parent[START] <= s[START] <= s[END] <= parent[END]:
                violations.append(f"span {i} {s[NAME]} lies outside its parent {parent[NAME]}")
    ops = {op_id: (start, end) for op_id, start, end in tracer.ops}
    for op_id, (start, end) in ops.items():
        if self_by_op.get(op_id, 0) > speed.net_ns(start, end):
            violations.append(f"op {op_id}: self times sum to more than the op's wall time")
    for i in children.get(-1, ()):
        s = spans[i]
        start, end = ops[s[OP]]
        if not start <= s[START] <= s[END] <= end:
            violations.append(f"span {i} {s[NAME]} lies outside its op")

    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.ms"] = (_union_net(busy[name], speed) / 1e6, "ms")
        metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
    for ratio, (ancestor, counted) in RATIOS.items():
        hits = 0
        for s in spans:
            if s[NAME] not in counted:
                continue
            j = s[PARENT]
            while j >= 0 and spans[j][NAME] != ancestor:
                j = spans[j][PARENT]
            hits += j >= 0
        metrics[ratio] = (hits / calls[ancestor] if calls[ancestor] else 0.0, "ratio")
    samples, cones = tracer.discover
    metrics["secondary.discover_cones_random.cones_per_sample"] = (cones / samples if samples else 0.0, "ratio")
    return metrics, violations


def traced(wl, seconds, spans_out=None) -> dict:
    """Alternate an untraced and a traced run of the first unit, one pair per two units.

    A pair costs about two units, so the traced run takes about as long as
    the timed one, and the number of pairs, like the timed op set, follows
    from the seed and --seconds alone. Every pass runs the same op classes
    and sizes, so `.calls` must repeat exactly from pass to pass; `.ms` and
    `.self_ms` are medians over passes, with the reference sampling of
    speed.py removed but not scaled. The overhead compares normalised op
    times.
    """
    unit = wl.units[0]
    passes, attempted, failures = [], 0, []
    cap = worker.CAP_FACTOR * seconds
    with Speed() as speed:
        start = time.perf_counter()
        for p in range(max(1, len(wl.units) // 2)):
            plain, _ = worker.run_unit(unit, p)
            tracer = Tracer()
            tracer.install()
            try:
                traced_ops, fail = worker.run_unit(unit, p, tracer.op)
            finally:
                tracer.uninstall()
            attempted += len(traced_ops)
            failures += fail
            passes.append((plain, traced_ops, tracer))
            if time.perf_counter() - start > cap:
                break

    per_pass, overhead, violations, dumps = [], [], [], []
    for p, (plain, traced_ops, tracer) in enumerate(passes):
        base = sum(speed.scaled(*iv) for iv in plain)
        overhead.append((sum(speed.scaled(*iv) for iv in traced_ops) - base, base))
        metrics, bad = summarize(tracer, speed)
        violations += [f"pass {p}: {v}" for v in bad]
        per_pass.append(metrics)
        dumps.append({"pass": p, "ops": tracer.ops, "spans": tracer.spans})
    out = {}
    for name, (value, unit_name) in per_pass[0].items():
        if unit_name == "ms":
            value = statistics.median(m[name][0] for m in per_pass)
        out[name] = {"value": value, "unit": unit_name}
    for m in per_pass[1:]:
        for name in NAMES:
            if m[f"{name}.calls"][0] != per_pass[0][f"{name}.calls"][0]:
                violations.append(f"{name}.calls differs between traced passes")
    extra_s = statistics.median(d for d, _ in overhead)
    out["trace.overhead_ms"] = {"value": 1e3 * extra_s, "unit": "ms"}
    out["trace.overhead_share"] = {"value": extra_s / statistics.median(b for _, b in overhead), "unit": "share"}
    out["trace.sanity_violations"] = {"value": len(violations), "unit": "count"}
    if spans_out:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": wl.name,
                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "reference_samples": {"start_ns": speed.starts, "seconds": speed.refs},
                "passes": dumps,
            }, fh)
    return {"attempted": attempted, "failures": failures, "metrics": out, "sanity": violations}
