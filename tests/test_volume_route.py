"""Every simplex volume and orientation of A has one route: the lift kernel's minors.

`PointConfig.volume` reads them off `PointConfig.lift_forms`, and
`exact_core` keeps `oriented_volume` and `lattice_volume` as public functions.
No other library module may call those two or the determinant `_int_det`
itself. The modules are read with `ast`, so none is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "basecondary"
VOLUME_ROUTES = {"oriented_volume", "lattice_volume", "_int_det"}


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
