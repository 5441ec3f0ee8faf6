"""Every Morse and Maxwell gradient has one route: two integer evaluations of its support.

`fiber_morse._gradient` reads a gradient off the support at the witness and
at one Kronecker point, so no library module may define, import or test for
a jet class; the dense jet lives on in `tests/jet_reference.py` as the
reference. The modules are read with `ast`, so none is imported.
"""

import ast

from test_volume_route import PACKAGE


def _jet_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            yield node.asname
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_library_module_knows_a_jet():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"exact_core.py", "core.py", "secondary.py", "fiber_morse.py"}
    offending = [f"{p.name}: {name}" for p in modules for name in _jet_names(ast.parse(p.read_text())) if name == "Jet"]
    assert offending == []
