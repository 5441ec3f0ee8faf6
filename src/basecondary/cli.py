"""Command-line interface: JSON in, JSON out, deterministic output.

`VERB_TABLE` spells each verb once, with its help line, its --help description
and its handler, which reads the input document by name (`_Document`). Each
verb returns library values as they are, and names keys itself only to
print a tuple row or to add a derived field. One writer, `_write`, prints each
answer and each error payload as one compact JSON line, keys sorted, so that
CPython's C encoder runs, with one rule, `_json`, for the rest: a Fraction as
its `rat_str` ("p" or "p/q"), a library record (a frozen dataclass) as an
object of its fields. `python -m json.tool` pretty-prints a line for reading.

Exit codes: 0 success, 2 input/domain error (machine-readable {"error": ...}
payload), 3 internal invariant failure, 64 unknown verb.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import core, fiber_morse, secondary, setfun, tropical
from .errors import InputError, InternalError
from .exact_core import PointConfig, affine_rank, as_int, check_lift_size, make_config, rat, rat_str

CONE_DISCOVERY = ("For n >= 2 the cones are found at --samples seeded heights (--seed); a configuration spanning Q^2 "
                  "with m <= 5 reads every cone off its secondary polygon, and accepts and ignores both flags.")
SVG_WIDTH, SVG_HEIGHT = 480, 320  # pixels of each --svg picture


def _json(value):
    """The one JSON rule beyond json's own: a Fraction prints as its `rat_str`, and a library
    record (a frozen dataclass) as an object of its fields; anything else raises TypeError."""
    if isinstance(value, Fraction):
        return rat_str(value)
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def _write(payload, path: Optional[str] = None) -> None:
    """Print `payload` as one compact JSON line, keys sorted, to `path` or stdout."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(payload, sort_keys=True, default=_json) + "\n")


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise InputError(f"input file cannot be read: {path}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError before it
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    return doc


def _need(doc: dict, key: str):
    if key not in doc:
        raise InputError(f"input is missing the required field {key!r}")
    return doc[key]


def _load_config(doc: dict, lifted: bool) -> PointConfig:
    n = _need(doc, "n")
    if type(n) is not int or n < 0:  # a JSON true or false is a bool, an int subclass
        raise InputError("field 'n' must be a nonnegative integer")
    if "A" in doc:
        raw = doc["A"]
        if not isinstance(raw, list) or not raw:
            raise InputError("field 'A' must be a nonempty list of points")
        pts = []
        for entry in raw:
            if isinstance(entry, list):
                pts.append([rat(c) for c in entry])
            elif n == 1:
                pts.append([rat(entry)])
            else:
                raise InputError("points of 'A' must be coordinate lists")
        if any(len(p) != n for p in pts):
            raise InputError(f"points of 'A' must have {n} coordinates")
        if lifted:  # an oversized kernel is refused before the rank check, whose cost grows with the size as well
            check_lift_size(n, len(pts))
        config = make_config(n, pts)
        if affine_rank(config.points) != n:
            raise InputError(f"the points of 'A' must affinely span Q^{n}")
        return config
    if n == 0 and "m" in doc:
        m = as_int(doc["m"], "field 'm'")
        check_lift_size(0, m)  # refused before any label is built
        return make_config(0, [[] for _ in range(m)])
    raise InputError("input needs a point list 'A' (or 'm' when n = 0)")


def _load_set_function(doc: dict, config: Optional[PointConfig], min_size: int) -> setfun.SetFunction:
    spec = _need(doc, "F")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("field 'F' must be an object with a 'kind'")
    kind = spec["kind"]
    if config is None and "A" in doc:  # the verbs of F alone read m off a configuration too, and never lift it
        config = _load_config(doc, lifted=False)
    m = config.m if config is not None else as_int(_need(doc, "m"), "field 'm'")
    if kind == "table":
        raw = spec.get("values", {})
        if not isinstance(raw, dict):
            raise InputError("table 'values' must be an object")
        values = {}
        for key, val in raw.items():  # each entry's labels, then its value
            labels = [as_int(tok, "table key label") for tok in key.split(",") if tok.strip()]
            values[frozenset(labels)] = rat(val)
        return setfun.table_function(m, values, spec.get("default", 0), min_size)
    if kind == "neg_gcd":
        if config is None or config.n != 1:
            raise InputError("neg_gcd needs a one-dimensional configuration 'A'")
        return setfun.neg_gcd_function(config, min_size=min_size)
    if kind == "neg_indicator_full":
        point = as_int(spec.get("point", 1), "field 'point'")
        return setfun.neg_indicator_function(m, point=point, min_size=min_size)
    if kind == "matrix_rank":
        cols = spec.get("columns")
        if not isinstance(cols, list) or len(cols) != m:
            raise InputError("matrix_rank needs one column per ground element")
        return setfun.matrix_rank_function(cols, min_size=min_size)
    if kind == "neg_card_ratio":
        return setfun.neg_card_ratio_function(m, min_size=min_size)
    raise InputError(f"unknown set-function kind {kind!r}")


def _load_gamma(doc: dict, config: PointConfig):
    gamma = _need(doc, "gamma")
    if not isinstance(gamma, list) or len(gamma) != config.m:
        raise InputError(f"field 'gamma' must be a list of {config.m} rationals")
    return tuple(rat(v) for v in gamma)


def _rep_json(rep: core.PiecewiseLinearRep) -> dict:
    out = {
        "certified": rep.certified,
        "vertices": rep.gradients,
        "cones": [{"witness": w, "gradient": g} for w, g in rep.entries],
    }
    if rep.failure_witness is not None:
        out["failure"] = dict(zip(("witness", "entry", "dominating_entry"), rep.failure_witness))
    return out


def _svg_polyline(points, path):
    """Best-effort SVG dump of a piecewise-linear graph; each pixel is exact until printed."""
    if not points:
        return

    def pixels(vs, size):  # 20 + (v - min) * (size - 40) / (max - min), or 20 where all v are equal
        lo, hi = min(vs), max(vs)
        return [20 + (v - lo) * (size - 40) / (hi - lo) if hi > lo else Fraction(20) for v in vs]

    xs = pixels([rat(p[0]) for p in points], SVG_WIDTH)
    ys = pixels([rat(p[1]) for p in points], SVG_HEIGHT)
    cmds = " ".join(f"{float(x):.2f},{float(SVG_HEIGHT - y):.2f}" for x, y in zip(xs, ys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}">'
                 f'<polyline fill="none" stroke="black" points="{cmds}"/></svg>')


class _Document(dict):
    """The input document of one call, read by name: loaded whole when the reader is built, and each other
    field on its first read, through its `_load_*`. So the order in which a verb reads its fields decides
    which message a document with two faults gets."""

    def __init__(self, path: str):
        super().__init__(_load_doc(path))

    @functools.cached_property
    def config(self) -> PointConfig:
        return _load_config(self, lifted=True)

    @functools.cached_property
    def f(self) -> setfun.SetFunction:
        """F at min_size = n, on `config`."""
        return _load_set_function(self, self.config, min_size=self.config.n)

    @functools.cached_property
    def f0(self) -> setfun.SetFunction:
        """F at min_size 0, for the verbs of F alone: m is read off 'A' if there is one, else off 'm'."""
        return _load_set_function(self, None, min_size=0)

    @functools.cached_property
    def gamma(self) -> tuple[Fraction, ...]:
        return _load_gamma(self, self.config)

    @functools.cached_property
    def exponents(self) -> fiber_morse.MorseConfig:
        """The Morse exponents 'A'. Their points are `config` from then on, so `gamma` has one per exponent."""
        mcfg = fiber_morse.morse_config(_need(self, "A"))
        vars(self)["config"] = mcfg.config()
        return mcfg


def _eval_terms(doc, args):
    terms = core.expansion_terms(doc.config, doc.f, doc.gamma)
    return {
        "value": sum((d * v for _, d, v in terms), Fraction(0)),
        "terms": [{"tuple": t, "f_difference": d, "volume": v} for t, d, v in terms],
    }


def _subdivision(doc, args):
    config, gamma = doc.config, doc.gamma
    sub = secondary.regular_subdivision(config, gamma)
    if args.svg and config.n == 1:
        _svg_polyline(sorted((config.image(i)[0], gamma[i - 1]) for i in range(1, config.m + 1)), args.svg)
    return {"cells": sub.cells, "triangulation": sub.is_triangulation}


def _check_submodular(doc, args):
    report = setfun.is_submodular(doc.f0)
    out = {"holds": report.holds}
    if report.witness is not None:
        out["witness"] = dict(zip(("X", "x1", "x2", "values"), report.witness))
    return out


def _trop_morse(doc, args):
    poly = tropical.tropical_polynomial(_need(doc, "support"), _need(doc, "coefficients"))
    report = tropical.is_morse(poly)
    if args.svg:  # the envelope of the nonzero exponents, whose breakpoints are the critical points
        xs = [cp.location for cp in report.critical_points] or [Fraction(0)]  # none: one nonzero exponent, a line
        terms = [(a, c) for a, c in zip(poly.support, poly.coefficients) if a]
        _svg_polyline([(x, max(c + a * x for a, c in terms)) for x in (xs[0] - 1, *xs, xs[-1] + 1)], args.svg)
    return {**_json(report), "reason": report.reasons[0] if report.reasons else None}


def _trop_sample(doc, args):
    if args.seed is None:
        raise InputError(f"{args.verb} is randomized and requires --seed")
    samples = args.samples if args.samples is not None else doc.get("samples")
    if samples is None:
        raise InputError(f"{args.verb} needs --samples (or a 'samples' field)")
    report = tropical.sample_morse_fraction(
        _need(doc, "support"), as_int(samples, "field 'samples'"), args.seed, doc.get("bound"))
    return {**_json(report), "non_morse": [{"coefficients": c, "reasons": r} for c, r in report.non_morse]}


# verb: (help line, description of the verb's --help, handler (document, flags) -> answer)
VERB_TABLE = {
    "eval": ("basecondary value at gamma (general evaluator)", None,
             lambda doc, args: {"value": core.eval_basecondary_general(doc.config, doc.f, doc.gamma)}),
    "eval-terms": ("simplicial-expansion summands at a generic gamma", None, _eval_terms),
    "simplicial": ("affine supports peaking on n+1 points", None, lambda doc, args: {
        "supports": core.enumerate_simplicial(doc.config, doc.gamma), "generic": core.is_generic(doc.config, doc.gamma)}),
    "circuital": ("affine supports peaking on n+2 points", None, lambda doc, args: {"supports": [
        {**_json(s), "circuit": {**_json(c := s.circuit), "support": c.support, "p": c.p, "q": c.q}}
        for s in core.enumerate_circuital(doc.config, doc.gamma)]}),
    "subdivision": ("regular subdivision induced by gamma", None, _subdivision),
    "secondary": ("secondary-polytope support value at gamma", None,
                  lambda doc, args: {"value": secondary.secondary_support(doc.config, doc.gamma)}),
    "base-polytope": ("greedy vertices of a submodular base polytope", None,
                      lambda doc, args: {"vertices": setfun.base_polytope(doc.f0)}),
    "lovasz": ("Lovász extension value at x", None,
               lambda doc, args: {"value": setfun.lovasz_extension(doc.f0, _need(doc, "x"))}),
    "check-submodular": ("exhaustive submodularity check", None, _check_submodular),
    "check-circuit-condition": ("circuit inequality over all spanning (n+2)-subsets", None, lambda doc, args: {
        **_json(r := setfun.circuit_condition_check(doc.f, doc.config)), "rows": [{"J": j, "value": v} for j, v in r.rows]}),
    "convexify": ("minimal convexifying multiple of the secondary support", CONE_DISCOVERY, lambda doc, args: {
        **_json(r := core.min_convexifier(doc.config, doc.f, samples=args.samples, seed=args.seed)),
        "walls": [{"circuit": c, "defect": d, "defect_secondary": ds} for c, d, ds in r.walls]}),
    "polytope": ("per-cone gradients with convexity certificate; n = 1 witnesses print as integers", CONE_DISCOVERY,
                 lambda doc, args: _rep_json(core.reconstruct_polytope(
                     doc.config, doc.f, args.convexifier, samples=args.samples, seed=args.seed))),
    "morse-support": ("Morse-discriminant Newton-polytope support at gamma", None,
                      lambda doc, args: {"value": fiber_morse.morse_support(doc.exponents, doc.gamma)}),
    "maxwell-support": ("Maxwell-stratum Newton-polytope support at gamma", None,
                        lambda doc, args: {"value": fiber_morse.maxwell_support(doc.exponents, doc.gamma)}),
    "morse-polytope": ("certified gradient representation (--variant); witnesses print as integers", None,
                       lambda doc, args: {**_rep_json(fiber_morse.morse_polytope(doc.exponents, args.variant)),
                                          "variant": args.variant}),
    "trop-morse": ("tropical Morse classification of a max-plus polynomial", tropical.CRITICAL_POINTS, _trop_morse),
    "trop-sample": ("seeded Morse-fraction sampling over coefficients", tropical.CRITICAL_POINTS, _trop_sample),
}
VERBS = tuple(VERB_TABLE)
USAGE = """usage: bck VERB --input PATH [--output PATH] [--seed N] [--samples N]
           [--convexifier Q] [--variant morse|maxwell] [--svg PATH]

verbs:
""" + "".join(f"  {verb:<24} {text}\n" for verb, (text, _, _) in VERB_TABLE.items())


class _ArgumentParser(argparse.ArgumentParser):
    """An argument error raises `InputError` with argparse's message, so `main` prints it as JSON."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _parser(verb: str) -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog=f"bck {verb}", description=VERB_TABLE[verb][1])
    parser.set_defaults(verb=verb)
    parser.add_argument("--input", required=True, help="path of the JSON problem file")
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--convexifier", default="0", help="rational multiple, e.g. 2 or 3/2")
    parser.add_argument("--variant", choices=("morse", "maxwell"), default="morse")
    parser.add_argument("--svg", default=None, help="best-effort SVG dump for 2D graphs")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0 if argv else 64
    verb = argv[0]
    if verb not in VERB_TABLE:
        sys.stderr.write(f"unknown verb: {verb}\n\n{USAGE}")
        return 64
    try:
        args = _parser(verb).parse_args(argv[1:])
        _write(VERB_TABLE[verb][2](_Document(args.input), args), args.output)
        return 0
    except InputError as exc:
        error, code = str(exc), 2
    except InternalError as exc:
        error, code = f"internal invariant failure: {exc}", 3
    except OSError as exc:  # an --output or --svg path that cannot be written
        error, code = f"output cannot be written: {exc.filename}", 2
    except SystemExit as exc:  # a verb's --help, printed by argparse
        return int(exc.code or 0)
    _write({"error": error})
    return code


if __name__ == "__main__":
    sys.exit(main())
