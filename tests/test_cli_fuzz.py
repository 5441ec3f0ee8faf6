"""CLI contract under generated documents: exit 0 or 2, one JSON line on stdout, never a traceback.

Documents are n = 0..3 configurations with integer or "p/q" coordinates and
labels in arbitrary order, every set-function kind (valid or not for the
configuration) and seeded heights; each one runs through the verbs that read
a configuration and F, so an n = 3 `secondary` exits 2. Ground sizes m
(valid or not), or one-dimensional configurations of m points, with F of
every kind and vectors x of the right or the wrong length run through the
verbs that read F alone. Exponent lists (m <= 4,
valid or not) with heights run through the Morse verbs, and max-plus supports
with coefficients through the tropical verbs.
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

VERBS = (
    "eval",
    "eval-terms",
    "simplicial",
    "circuital",
    "subdivision",
    "secondary",
    "check-circuit-condition",
    "convexify",
    "polytope",
)

rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 9), st.integers(1, 4)),
)


@st.composite
def documents(draw):
    n = draw(st.integers(0, 3))
    if n == 0:
        m = draw(st.integers(2, 4))
        points = [[] for _ in range(m)]
    else:
        coordinate = st.tuples(*[st.integers(-4, 4) if draw(st.integers(0, 2)) else rationals] * n)
        points = [list(p) for p in draw(st.lists(coordinate, min_size=n + 1, max_size=5, unique=True))]
        m = len(points)
    spec = _set_function_spec(draw, m)
    gamma = draw(st.lists(rationals, min_size=m, max_size=m))
    return {"n": n, "A": points, "F": spec, "gamma": gamma}


def _set_function_spec(draw, m):
    """A spec of every kind on a ground set of size m >= 1, valid or not."""
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
    return spec


flags = st.lists(
    st.sampled_from([("--samples", "12"), ("--seed", "5"), ("--convexifier", "3/2")]), unique=True
).map(lambda pairs: [token for pair in pairs for token in pair])


def _exits_0_or_2_with_json(verbs, doc, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for verb in verbs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([verb, "--input", path, *extra])
            assert code in (0, 2), (verb, doc, extra, out.getvalue())
            assert out.getvalue().count("\n") == 1 and out.getvalue().endswith("\n"), out.getvalue()
            json.loads(out.getvalue())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(doc=documents(), extra=flags)
def test_verbs_exit_0_or_2_with_json(doc, extra):
    _exits_0_or_2_with_json(VERBS, doc, extra)


@st.composite
def set_function_documents(draw):
    m = draw(st.integers(1, 5))
    doc = {"F": _set_function_spec(draw, m)}
    # the ground size as an integer or an integral string, invalid, missing, or read off m points of a line
    ground = draw(st.sampled_from([m, m, str(m), 0, -1, "x", "3/2", 2.5, None, "A", "A"]))
    if ground == "A":
        doc.update(n=1, A=[[a] for a in draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m, unique=True))])
    elif ground is not None:
        doc["m"] = ground
    size = m if draw(st.integers(0, 2)) else draw(st.integers(0, 6))
    doc["x"] = draw(st.lists(rationals, min_size=size, max_size=size))
    return doc


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(doc=set_function_documents())
def test_set_function_verbs_exit_0_or_2_with_json(doc):
    _exits_0_or_2_with_json(("base-polytope", "lovasz", "check-submodular"), doc, [])


@st.composite
def morse_documents(draw):
    exponents = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=4, unique=True))
    if draw(st.integers(0, 3)):
        exponents = sorted(a for a in exponents if a) or [0]
    heights = rationals if draw(st.booleans()) else st.integers(0, 6)
    gamma = draw(st.lists(heights, min_size=len(exponents), max_size=len(exponents)))
    return {"A": exponents, "gamma": gamma}


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(doc=morse_documents(), variant=st.sampled_from(["morse", "maxwell"]))
def test_morse_verbs_exit_0_or_2_with_json(doc, variant):
    verbs = ("morse-support", "maxwell-support", "morse-polytope")
    _exits_0_or_2_with_json(verbs, doc, ["--variant", variant])


@st.composite
def tropical_documents(draw):
    support = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    if draw(st.integers(0, 3)):
        support = sorted(set(support))
    size = len(support) if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
    doc = {"support": support, "coefficients": draw(st.lists(rationals, min_size=size, max_size=size))}
    if draw(st.booleans()):
        doc["bound"] = draw(st.integers(-1, 5))
    return doc


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(doc=tropical_documents(), samples=st.integers(-1, 20))
def test_tropical_verbs_exit_0_or_2_with_json(doc, samples):
    _exits_0_or_2_with_json(("trop-morse", "trop-sample"), doc, ["--seed", "7", "--samples", str(samples)])
