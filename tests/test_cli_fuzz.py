"""CLI contract under generated documents: exit 0 or 2, JSON on stdout, never a traceback.

Documents are n = 0/1/2 configurations with labels in arbitrary order, every
set-function kind (valid or not for the configuration) and seeded heights;
each one runs through the verbs that read a configuration and F.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from basecondary.cli import main
from basecondary.setfun import KINDS

VERBS = ("eval", "subdivision", "secondary", "check-circuit-condition", "convexify", "polytope")

rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 9), st.integers(1, 4)),
)


@st.composite
def documents(draw):
    n = draw(st.integers(0, 2))
    if n == 0:
        m = draw(st.integers(2, 4))
        points = [[] for _ in range(m)]
    else:
        coordinate = st.tuples(*[st.integers(-4, 4)] * n)
        points = [list(p) for p in draw(st.lists(coordinate, min_size=n + 1, max_size=5, unique=True))]
        m = len(points)
    kind = draw(st.sampled_from(KINDS))
    spec = {"kind": kind}
    if kind == "table":
        keys = st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True)
        table = draw(st.dictionaries(keys.map(lambda k: ",".join(map(str, sorted(k)))), rationals, max_size=8))
        spec.update(values=table, default=draw(rationals))
    elif kind == "neg_indicator_full":
        spec["point"] = draw(st.integers(1, m))
    elif kind == "matrix_rank":
        rows, ragged = draw(st.integers(1, 3)), draw(st.booleans())
        heights = [draw(st.integers(1, 3)) if ragged else rows for _ in range(m)]
        spec["columns"] = [draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)) for k in heights]
    gamma = draw(st.lists(rationals, min_size=m, max_size=m))
    return {"n": n, "A": points, "F": spec, "gamma": gamma}


flags = st.lists(
    st.sampled_from([("--samples", "12"), ("--seed", "5"), ("--convexifier", "3/2")]), unique=True
).map(lambda pairs: [token for pair in pairs for token in pair])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(doc=documents(), extra=flags)
def test_verbs_exit_0_or_2_with_json(doc, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for verb in VERBS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([verb, "--input", path, *extra])
            assert code in (0, 2), (verb, doc, extra, out.getvalue())
            json.loads(out.getvalue())
