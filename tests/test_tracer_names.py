"""The benchmark tracer binds library functions by name; each name must exist.

`bench/tracer.py` wraps every function its `LAYERS` table lists, looked up
as an attribute of `basecondary.<layer>`, and a missing one raises
AttributeError when the tracer installs. The table is read with `ast`, so
the tracer is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py has no LAYERS table")


def test_every_traced_name_is_a_library_attribute():
    layers = _layers()
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"basecondary.{layer}"), name)
    ]
    assert missing == []
