"""Every simplex volume, orientation and circuit of A has one route: the lift kernel's minors.

`PointConfig.volume` and `PointConfig.circuit` read them off
`PointConfig.lift_forms`, and a cell's refinement hulls the kernel's integer
coordinates. `exact_core` keeps `oriented_volume`, `lattice_volume`,
`find_circuit` and `convex_hull_2d` as public functions of given points. No
other library module may call those four or the determinant `_int_det`
itself. The modules are read with `ast`, so none is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "basecondary"
VOLUME_ROUTES = {"oriented_volume", "lattice_volume", "find_circuit", "convex_hull_2d", "_int_det"}


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_exact_core_takes_a_determinant():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "exact_core.py")
    assert {p.name for p in modules} >= {"core.py", "secondary.py", "fiber_morse.py", "cli.py"}
    offending = [
        f"{p.name}: {name}"
        for p in modules
        for name in _called_names(ast.parse(p.read_text()))
        if name in VOLUME_ROUTES
    ]
    assert offending == []
