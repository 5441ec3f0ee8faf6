"""Command-line interface: JSON in, JSON out, deterministic output.

Exit codes: 0 success, 2 input/domain error (machine-readable {"error": ...}
payload), 3 internal invariant failure, 64 unknown verb.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import core, fiber_morse, secondary, setfun, tropical
from .errors import InputError, InternalError
from .exact_core import PointConfig, as_int, make_config, rat, rat_str

VERBS = (
    "eval",
    "eval-terms",
    "simplicial",
    "circuital",
    "subdivision",
    "secondary",
    "base-polytope",
    "lovasz",
    "check-submodular",
    "check-circuit-condition",
    "convexify",
    "polytope",
    "morse-support",
    "maxwell-support",
    "morse-polytope",
    "trop-morse",
    "trop-sample",
)

USAGE = """usage: bck VERB --input PATH [--output PATH] [--seed N] [--samples N]
           [--convexifier Q] [--variant morse|maxwell] [--svg PATH]

verbs:
  eval                     basecondary value at gamma (general evaluator)
  eval-terms               simplicial-expansion summands at a generic gamma
  simplicial               affine supports peaking on n+1 points
  circuital                affine supports peaking on n+2 points
  subdivision              regular subdivision induced by gamma
  secondary                secondary-polytope support value at gamma
  base-polytope            greedy vertices of a submodular base polytope
  lovasz                   Lovász extension value at x
  check-submodular         exhaustive submodularity check
  check-circuit-condition  circuit inequality over all spanning (n+2)-subsets
  convexify                minimal convexifying multiple of the secondary support
  polytope                 per-cone gradients with convexity certificate
  morse-support            Morse-discriminant Newton-polytope support at gamma
  maxwell-support          Maxwell-stratum Newton-polytope support at gamma
  morse-polytope           certified gradient representation (--variant)
  trop-morse               tropical Morse classification of a max-plus polynomial
  trop-sample              seeded Morse-fraction sampling over coefficients
"""


def _vec(values) -> list[str]:
    return [rat_str(rat(v)) for v in values]


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    return doc


def _need(doc: dict, key: str):
    if key not in doc:
        raise InputError(f"input is missing the required field {key!r}")
    return doc[key]


def _load_config(doc: dict) -> PointConfig:
    n = _need(doc, "n")
    if not isinstance(n, int) or n < 0:
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
        return make_config(n, pts)
    if n == 0 and "m" in doc:
        return make_config(0, [[] for _ in range(as_int(doc["m"], "field 'm'"))])
    raise InputError("input needs a point list 'A' (or 'm' when n = 0)")


def _load_set_function(doc: dict, config: Optional[PointConfig], min_size: int) -> setfun.SetFunction:
    spec = _need(doc, "F")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("field 'F' must be an object with a 'kind'")
    kind = spec["kind"]
    if config is not None:
        m = config.m
    elif "m" in doc:
        m = as_int(doc["m"], "field 'm'")
    else:
        raise InputError("set-function input needs 'm' or a configuration 'A'")
    if kind == "table":
        values = {}
        for key, val in spec.get("values", {}).items():
            labels = [as_int(tok, "table key label") for tok in key.split(",") if tok.strip()]
            values[frozenset(labels)] = rat(val)
        return setfun.SetFunction(
            kind="table",
            m=m,
            min_size=min_size,
            table=values,
            default=rat(spec.get("default", 0)),
        )
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


def _subdivision_json(sub: secondary.Subdivision) -> dict:
    return {
        "cells": [list(c) for c in sub.cells],
        "triangulation": sub.is_triangulation,
    }


def _circuit_json(circ) -> dict:
    return {
        "support": list(circ.support),
        "p": circ.p,
        "q": circ.q,
        "positive": [[i, rat_str(c)] for i, c in circ.positive],
        "negative": [[i, rat_str(c)] for i, c in circ.negative],
        "zeros": list(circ.zeros),
    }


def _rep_json(rep: core.PiecewiseLinearRep) -> dict:
    out = {
        "certified": rep.certified,
        "vertices": [_vec(g) for g in rep.gradients],
        "cones": [
            {"witness": _vec(w), "gradient": _vec(g)} for w, g in rep.entries
        ],
    }
    if rep.failure_witness is not None:
        witness, j, k = rep.failure_witness
        out["failure"] = {"witness": _vec(witness), "entry": j, "dominating_entry": k}
    return out


def _critical_point_json(cp: tropical.CriticalPoint) -> dict:
    return {
        "location": rat_str(cp.location),
        "value": rat_str(cp.value),
        "max_pair": list(cp.max_pair),
        "tie_pairs": [list(p) for p in cp.tie_pairs],
        "degenerate": cp.degenerate,
    }


def _svg_polyline(points, path, width=480, height=320):
    """Best-effort SVG dump of a piecewise-linear graph."""
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    if not xs:
        return
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (width - 40) / (x1 - x0) if x1 > x0 else 1.0
    sy = (height - 40) / (y1 - y0) if y1 > y0 else 1.0
    cmds = " ".join(
        f"{20 + (x - x0) * sx:.2f},{height - 20 - (y - y0) * sy:.2f}" for x, y in zip(xs, ys)
    )
    body = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<polyline fill="none" stroke="black" points="{cmds}"/></svg>'
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)


def _tropical_input(doc: dict) -> tropical.TropicalPolynomial:
    return tropical.tropical_polynomial(_need(doc, "support"), _need(doc, "coefficients"))


def _run(verb: str, args, doc: dict):
    if verb == "eval":
        config = _load_config(doc)
        f = _load_set_function(doc, config, min_size=config.n)
        value = core.eval_basecondary_general(config, f, _load_gamma(doc, config))
        return {"value": rat_str(value)}

    if verb == "eval-terms":
        config = _load_config(doc)
        f = _load_set_function(doc, config, min_size=config.n)
        gamma = _load_gamma(doc, config)
        terms = core.expansion_terms(config, f, gamma)
        return {
            "value": rat_str(sum((d * v for _, d, v in terms), Fraction(0))),
            "terms": [
                {"tuple": list(t), "f_difference": rat_str(d), "volume": rat_str(v)}
                for t, d, v in terms
            ],
        }

    if verb == "simplicial":
        config = _load_config(doc)
        gamma = _load_gamma(doc, config)
        return {
            "supports": [
                {
                    "linear": _vec(s.linear),
                    "max_value": rat_str(s.max_value),
                    "maximizers": list(s.maximizers),
                    "generic": s.generic,
                }
                for s in core.enumerate_simplicial(config, gamma)
            ],
            "generic": core.is_generic(config, gamma),
        }

    if verb == "circuital":
        config = _load_config(doc)
        gamma = _load_gamma(doc, config)
        return {
            "supports": [
                {
                    "linear": _vec(s.linear),
                    "max_value": rat_str(s.max_value),
                    "maximizers": list(s.maximizers),
                    "circuit": _circuit_json(s.circuit),
                }
                for s in core.enumerate_circuital(config, gamma)
            ]
        }

    if verb == "subdivision":
        config = _load_config(doc)
        gamma = _load_gamma(doc, config)
        sub = secondary.regular_subdivision(config, gamma)
        if args.svg and config.n == 1:
            pts = sorted(
                (config.image(i)[0], gamma[i - 1]) for i in range(1, config.m + 1)
            )
            _svg_polyline(pts, args.svg)
        return _subdivision_json(sub)

    if verb == "secondary":
        config = _load_config(doc)
        value = secondary.secondary_support(config, _load_gamma(doc, config))
        return {"value": rat_str(value)}

    if verb == "base-polytope":
        f = _load_set_function(doc, None, min_size=0)
        vertices = setfun.base_polytope(f)
        return {"vertices": [_vec(v) for v in vertices]}

    if verb == "lovasz":
        f = _load_set_function(doc, None, min_size=0)
        x = _need(doc, "x")
        return {"value": rat_str(setfun.lovasz_extension(f, x))}

    if verb == "check-submodular":
        f = _load_set_function(doc, None, min_size=0)
        report = setfun.is_submodular(f)
        out = {"holds": report.holds}
        if report.witness is not None:
            x, x1, x2, values = report.witness
            out["witness"] = {
                "X": list(x),
                "x1": x1,
                "x2": x2,
                "values": _vec(values),
            }
        return out

    if verb == "check-circuit-condition":
        config = _load_config(doc)
        f = _load_set_function(doc, config, min_size=config.n)
        report = setfun.circuit_condition_check(f, config)
        return {
            "passed": report.passed,
            "rows": [
                {"J": list(j), "value": rat_str(v)} for j, v in report.rows
            ],
        }

    if verb == "convexify":
        config = _load_config(doc)
        f = _load_set_function(doc, config, min_size=config.n)
        result = core.min_convexifier(
            config, f, samples=args.samples, seed=args.seed
        )
        return {
            "value": rat_str(result.value),
            "exact": result.exact,
            "walls": [
                {
                    "circuit": list(circ),
                    "defect": rat_str(d),
                    "defect_secondary": rat_str(ds),
                }
                for circ, d, ds in result.walls
            ],
        }

    if verb == "polytope":
        config = _load_config(doc)
        f = _load_set_function(doc, config, min_size=config.n)
        convexifier = rat(args.convexifier) if args.convexifier is not None else Fraction(0)
        rep = core.reconstruct_polytope(
            config, f, convexifier, samples=args.samples, seed=args.seed
        )
        return _rep_json(rep)

    if verb in ("morse-support", "maxwell-support"):
        mcfg = fiber_morse.morse_config(_need(doc, "A"))
        gamma = _load_gamma(doc, mcfg.config())
        fn = fiber_morse.morse_support if verb == "morse-support" else fiber_morse.maxwell_support
        return {"value": rat_str(fn(mcfg, gamma))}

    if verb == "morse-polytope":
        mcfg = fiber_morse.morse_config(_need(doc, "A"))
        rep = fiber_morse.morse_polytope(mcfg, args.variant)
        out = _rep_json(rep)
        out["variant"] = args.variant
        return out

    if verb == "trop-morse":
        poly = _tropical_input(doc)
        report = tropical.is_morse(poly)
        cps = tropical.critical_points(poly)
        if args.svg:
            lo = min(cp.location for cp in cps) - 1
            hi = max(cp.location for cp in cps) + 1
            pts = [(lo, poly.value(lo))] + [(cp.location, cp.value) for cp in cps] + [(hi, poly.value(hi))]
            _svg_polyline(pts, args.svg)
        return {
            "morse": report.morse,
            "reason": report.reasons[0] if report.reasons else None,
            "reasons": list(report.reasons),
            "critical_points": [_critical_point_json(cp) for cp in cps],
            "value_collisions": [
                [rat_str(a), rat_str(bq), rat_str(v)] for a, bq, v in report.value_collisions
            ],
        }

    if verb == "trop-sample":
        if args.seed is None:
            raise InputError("trop-sample is randomized and requires --seed")
        samples = args.samples if args.samples is not None else doc.get("samples")
        if samples is None:
            raise InputError("trop-sample needs --samples (or a 'samples' field)")
        report = tropical.sample_morse_fraction(
            _need(doc, "support"), as_int(samples, "field 'samples'"), args.seed, doc.get("bound")
        )
        return {
            "samples": report.samples,
            "morse_count": report.morse_count,
            "fraction": rat_str(report.fraction),
            "non_morse": [
                {"coefficients": _vec(c), "reasons": list(r)}
                for c, r in report.non_morse
            ],
        }

    raise InputError(f"unhandled verb {verb}")


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0 if argv else 64
    verb = argv[0]
    if verb not in VERBS:
        sys.stderr.write(f"unknown verb: {verb}\n\n{USAGE}")
        return 64
    parser = argparse.ArgumentParser(prog=f"bck {verb}", add_help=True)
    parser.add_argument("--input", required=True, help="path of the JSON problem file")
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--convexifier", default=None, help="rational multiple, e.g. 2 or 3/2")
    parser.add_argument("--variant", choices=("morse", "maxwell"), default="morse")
    parser.add_argument("--svg", default=None, help="best-effort SVG dump for 2D graphs")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = _load_doc(args.input)
        result = _run(verb, args, doc)
        payload = json.dumps(result, sort_keys=True, indent=2) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    except InputError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except InternalError as exc:
        sys.stdout.write(json.dumps({"error": f"internal invariant failure: {exc}"}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
