"""Command-line front door.

Subcommands: classify, region, julia, equidist, heights, lattes, certify.
Polynomials are ascending-coefficient JSON arrays, rationals "p/q" strings.
Exit codes: 0 ok, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__, lattes
from .classifier import classify_real_julia
from .cubic_region import region_scan
from .heights import height_report
from .lattes import (SingularCurveError, WeierstrassCurve, certify_nonabelian,
                     duplication_lattes)
from .orbit import (EmpiricalMeasure, backward_orbit, check_non_exceptional,
                    empirical_cdf_distance, max_imag_stat, render_filled_julia)
from .poly import poly_from_json


def _in_float_range(x):
    """An int or Fraction that converts to a finite float."""
    return abs(x) <= sys.float_info.max


def _is_coefficient(c):
    """A finite JSON number other than a bool, or a "p/q" string with q != 0,
    within the float range."""
    if isinstance(c, str):
        try:
            return _in_float_range(Fraction(c))
        except (ValueError, ZeroDivisionError):
            return False
    # JSON NaN and Infinity, and decimals too large for a float, parse as
    # non-finite floats; integers and strings that large are rejected alike
    return (isinstance(c, int) and not isinstance(c, bool) and _in_float_range(c)
            or isinstance(c, float) and math.isfinite(c))


def _parse_poly(text):
    try:
        coeffs = json.loads(text)
    except json.JSONDecodeError as err:
        raise argparse.ArgumentTypeError(f"bad polynomial {text!r}: {err}")
    if not isinstance(coeffs, list) or not coeffs:
        raise argparse.ArgumentTypeError("polynomial must be a nonempty JSON array")
    if not all(map(_is_coefficient, coeffs)):
        raise argparse.ArgumentTypeError(
            f'expected finite numbers or "p/q" strings within the float range as '
            f'coefficients, got {text!r}')
    return poly_from_json(coeffs)


def _checked(convert, what, ok=lambda value: True):
    """argparse type: convert(text), a usage error unless ok(value)."""
    def parse(text):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_parse_rational = _checked(Fraction, "a rational p/q")
_parse_float_rational = _checked(Fraction, "a rational p/q within the float range",
                                 _in_float_range)
_parse_range = _checked(lambda t: tuple(float(v) for v in t.split(":")),
                        "a finite range lo:hi with lo <= hi",
                        lambda r: len(r) == 2 and all(map(math.isfinite, r)) and r[0] <= r[1])
_parse_resolution = _checked(lambda t: tuple(int(v) for v in t.split("x")),
                             "WxH, both positive", lambda r: len(r) == 2 and min(r) >= 1)
_parse_step = _checked(float, "a positive step", lambda v: 0 < v < math.inf)
_parse_count = _checked(int, "an integer >= 0", lambda v: v >= 0)
_parse_positive = _checked(int, "an integer >= 1", lambda v: v >= 1)


def _header(args):
    return f"juliareal {__version__} | {' '.join(args)}"


def _emit_json(payload, out, argv):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(f"// {_header(argv)}\n{text}\n")
    else:
        print(text)


def _cmd_classify(args, argv):
    report = classify_real_julia(args.poly.to_float())
    _emit_json(report.to_json(args.poly), args.out, argv)
    return 0


def _cmd_region(args, argv):
    summary = region_scan(args.a_range, args.b_range, args.step)
    with open(args.out, "w", newline="") as fh:
        summary.to_csv(fh, header_comment=_header(argv))
    if args.pgm:
        with open(args.pgm, "wb") as fh:
            fh.write(summary.to_pgm())
    print(json.dumps({"cells": summary.cells,
                      "disagreements": summary.disagreements,
                      "max_disagree_distance": summary.max_disagree_distance}))
    return 0


def _cmd_julia(args, argv):
    re_rng = args.re_range
    im_rng = args.im_range
    width, height = args.resolution
    grid = render_filled_julia(args.poly, (re_rng[0], re_rng[1], im_rng[0], im_rng[1]),
                               (width, height), max_iter=args.max_iter)
    with open(args.out, "wb") as fh:
        fh.write(f"P5\n# {_header(argv)}\n{width} {height}\n255\n".encode())
        fh.write(grid.tobytes())
    print(json.dumps({"width": width, "height": height,
                      "not_escaped": int((grid == 255).sum())}))
    return 0


def _cmd_equidist(args, argv):
    check_non_exceptional(args.poly, args.alpha)
    orbit = backward_orbit(args.poly, float(args.alpha), args.depth)
    payload = {
        "alpha": str(args.alpha),
        "depth": args.depth,
        "points": orbit.points.size,
        "max_imag": max_imag_stat(orbit),
    }
    if args.compare_depth is not None:
        other = backward_orbit(args.poly, float(args.alpha), args.compare_depth)
        payload["ks_distance"] = empirical_cdf_distance(
            EmpiricalMeasure.from_orbit(orbit), EmpiricalMeasure.from_orbit(other))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(f"# {_header(argv)}\r\n")
            fh.write("re,im,weight\r\n")
            w = 1.0 / orbit.points.size
            for z in orbit.points:
                fh.write(f"{z.real:.17g},{z.imag:.17g},{w:.17g}\r\n")
    print(json.dumps(payload))
    return 0


def _cmd_heights(args, argv):
    est, err, residual = height_report(args.poly, args.x, args.depth)
    payload = {
        "x": str(args.x),
        "depth": args.depth,
        "estimate": est,
        "error_bound": err,
        "residual": residual,
    }
    _emit_json(payload, args.out, argv)
    return 0


def _parse_curve(text):
    try:
        a, b, c = (Fraction(v) for v in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"curve must be a,b,c  got {text!r}")
    try:
        return WeierstrassCurve(a, b, c)
    except SingularCurveError as err:
        raise argparse.ArgumentTypeError(f"singular curve: {err}")


def _cmd_lattes(args, argv):
    curve = args.curve
    f = duplication_lattes(curve)
    # the critical points and poles are computed once and shared with the
    # surjectivity decision
    crit, poles = lattes._critical_points_and_poles(curve)
    payload = {
        "curve": {"a": str(curve.a), "b": str(curve.b), "c": str(curve.c)},
        "disc": str(curve.disc),
        "map": f.to_json(),
        "critical_points": crit,
        "surjectivity": lattes._surjectivity(curve, crit, poles),
    }
    _emit_json(payload, args.out, argv)
    return 0


def _cmd_certify(args, argv):
    if args.curve is not None:
        curve = args.curve
        cert = certify_nonabelian(duplication_lattes(curve), args.alpha, curve=curve)
    elif args.poly is not None:
        cert = certify_nonabelian(args.poly, args.alpha)
    else:
        print("certify needs --poly or --curve", file=sys.stderr)
        return 2
    _emit_json(cert.to_json(), args.out, argv)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="juliareal")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide whether the Julia set is real")
    p.add_argument("--poly", type=_parse_poly, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("region", help="scan the cubic parameter region")
    p.add_argument("--a-range", type=_parse_range, default=(-6.0, 1.0))
    p.add_argument("--b-range", type=_parse_range, default=(-4.0, 4.0))
    p.add_argument("--step", type=_parse_step, default=0.05)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("julia", help="render a filled Julia set to PGM")
    p.add_argument("--poly", type=_parse_poly, required=True)
    p.add_argument("--re-range", type=_parse_range, default=(-2.5, 2.5))
    p.add_argument("--im-range", type=_parse_range, default=(-1.0, 1.0))
    p.add_argument("--resolution", type=_parse_resolution, default="512x205")
    p.add_argument("--max-iter", type=_parse_positive, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_julia)

    p = sub.add_parser("equidist", help="backward-orbit equidistribution report")
    p.add_argument("--poly", type=_parse_poly, required=True)
    p.add_argument("--alpha", type=_parse_float_rational, required=True)
    p.add_argument("--depth", type=_parse_count, default=10)
    p.add_argument("--compare-depth", type=_parse_count)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_equidist)

    p = sub.add_parser("heights", help="canonical height report")
    p.add_argument("--poly", type=_parse_poly, required=True)
    p.add_argument("--x", type=_parse_rational, required=True)
    p.add_argument("--depth", type=_parse_positive, default=10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_heights)

    p = sub.add_parser("lattes", help="duplication Lattes analysis of a curve")
    p.add_argument("--curve", type=_parse_curve, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lattes)

    p = sub.add_parser("certify", help="non-abelian certificate")
    p.add_argument("--poly", type=_parse_poly)
    p.add_argument("--curve", type=_parse_curve)
    p.add_argument("--alpha", type=_parse_rational, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)
    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
