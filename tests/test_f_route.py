"""F and the tail orderings each have one route: the bitmask reader and the kept lift.

Every read of F in the library goes through `SetFunction.cleared`, whose
cached integer reader takes a bitmask, so no library module calls
`evaluate_f` (the public `Fraction` read) or builds the ground set with
`.ground()`. `order_simplicial` and `order_circuital` read their tails off the
kept lift's scan heights, so `src/` defines no `_values_under`, the second
route that recomputed gamma - L o A. The modules are read with `ast`, so none
is imported.
"""

import ast

from test_volume_route import PACKAGE, _called_names


def _modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"core.py", "setfun.py", "secondary.py", "cli.py"}
    return [(p.name, ast.parse(p.read_text())) for p in modules]


def test_no_library_module_reads_f_through_a_frozenset():
    offending = [
        f"{name}: {called}"
        for name, tree in _modules()
        for called in _called_names(tree)
        if called in ("evaluate_f", "ground")
    ]
    assert offending == []


def test_no_library_module_defines_values_under():
    defined = [
        f"{name}: {node.name}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_values_under"
    ]
    assert defined == []
