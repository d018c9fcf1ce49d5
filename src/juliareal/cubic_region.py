"""The explicit parameter region for the family X^3 + A X + B.

Membership is the closed analytic condition A <= -3, B^2 <= -4A(A+3)^2/27
(Milnor, "Remarks on iterated cubic maps", 1992).  region_verdict decides it
exactly for every rational cubic with a positive lead, through the real
conjugacy to this family.  The scan machinery cross-validates the region
cell by cell against the general classifier and reports each cell's
distance to the analytic boundary curve.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classifier import classify_batch
from .poly import Polynomial, _number_text
from .roots import _FLOOR_UNIT, RootFindingError, _fujiwara_radius

# cells per classify_batch call in region_scan: bounds each (cells, 66)
# cross-check array to about 0.5 MB
_SCAN_BLOCK = 1024
# Newton steps boundary_distance allows toward the largest root of q.  From
# Fujiwara's bound a simple root takes at most 17 steps on random points with
# |A| and |B| anywhere up to 1e300; a double root of q, on the curve's evolute
# (t from 1 to 1e30), is approached linearly, the error halving each step,
# and takes up to 35
_NEWTON_MAX_STEPS = 100


def region_bound(A):
    """The boundary value -4A(A+3)^2/27; B is admissible iff B^2 <= this.
    A float A gives a float, each operation rounded once; a Fraction A gives
    the exact value."""
    return -4 * A * (A + 3) ** 2 / 27


def in_region(A, B) -> bool:
    """Closed inequalities, no tolerance: A <= -3 and B^2 <= -4A(A+3)^2/27."""
    return A <= -3.0 and B * B <= region_bound(A)


def normal_form(p: Polynomial):
    """(A, S) for p = a3 x^3 + a2 x^2 + a1 x + a0 with a3 > 0, each
    coefficient taken at its exact value: p is conjugate to X^3 + A X + B,
    B = S / sqrt(a3), both A and S rational.

    x = u X + v with u = 1 / sqrt(a3) and v = -a2 / (3 a3) gives
    (p(u X + v) - v) / u = X^3 + p'(v) X + (p(v) - v) / u, so A = p'(v) =
    a1 - a2^2 / (3 a3) and S = sqrt(a3) B = a3 (p(v) - v) =
    a3 a0 - a1 a2 / 3 + 2 a2^3 / (27 a3) + a2 / 3.
    """
    if p.degree != 3 or p.lead <= 0:
        raise ValueError("a cubic with a positive lead required")
    a0, a1, a2, a3 = (Fraction(c) for c in p.coeffs)
    A = a1 - a2 * a2 / (3 * a3)
    S = a3 * a0 - a1 * a2 / 3 + 2 * a2 ** 3 / (27 * a3) + a2 / 3
    return A, S


def region_verdict(p: Polynomial):
    """(julia_real, reason) for a cubic p with a positive lead a3, decided by
    the region in Fractions, with no root solve and no square root.

    The conjugacy of normal_form is real, so it maps the real line and p's
    Julia set onto those of X^3 + A X + B: p's Julia set is real iff A <= -3
    and B^2 <= region_bound(A), that is S^2 = a3 B^2 <= a3 region_bound(A).
    """
    A, S = normal_form(p)
    text = _number_text(A.numerator if A.denominator == 1 else A)
    region = "the region A <= -3, B^2 <= -4A(A+3)^2/27"
    if A > -3:
        return False, f"conjugate to X^3 + AX + B with A = {text} > -3: outside {region}"
    real = S * S <= Fraction(p.lead) * region_bound(A)
    sign = "<=" if real else ">"
    return real, (f"conjugate to X^3 + AX + B with A = {text} <= -3 and "
                  f"B^2 {sign} -4A(A+3)^2/27: {'inside' if real else 'outside'} {region}")


def b_zero(a) -> float:
    """Largest B >= 0 with (-3a^2, B) in the region, for a >= 1: 2a(a^2-1)."""
    if a < 1:
        raise ValueError("no admissible B for a < 1")
    return 2.0 * a * (a * a - 1.0)


def _nearest_distance(a, b):
    """boundary_distance at finite points, b >= 0, on q(2^e s) / 2^(5e).

    With 2^e at least cbrt(b), |a|^(1/4) and 1 no coefficient, iterate or
    value overflows, and each step is the unscaled step times 2^(-e),
    exactly.  Both candidate distances are formed times 2^(-3e), each
    operation the unscaled one times a power of two, so that no hypot
    overflows, and scaled back once, after the minimum.
    """
    e = np.frexp(np.maximum(np.maximum(np.cbrt(b), np.sqrt(np.sqrt(np.abs(a)))), 1.0))[1]
    # rows of q(2^e s) / 2^(5e) in ascending powers of s; scaling is exact
    C = np.zeros((a.size, 6))
    C[:, 0] = c0 = np.ldexp(b, -5 * e)
    C[:, 1] = c1 = 3.0 * np.ldexp(a, -4 * e) + np.ldexp(2.0, -4 * e)
    C[:, 2] = c2 = -3.0 * np.ldexp(b, -3 * e)
    C[:, 3] = c3 = np.ldexp(1.0, -2 * e)
    C[:, 5] = 6.0
    # s = 2^-e is t = 1, where the curve starts
    floor = np.ldexp(1.0, -e)
    s = np.maximum(_fujiwara_radius(C), floor)
    last = np.full(s.shape, np.inf)
    d2, d3 = 2.0 * c2, 3.0 * c3
    for _ in range(_NEWTON_MAX_STEPS):
        s2 = s * s
        q = (((6.0 * s2 + c3) * s + c2) * s + c1) * s + c0
        dq = ((30.0 * s2 + d3) * s + d2) * s + c1
        # q' <= 0 at an iterate: by convexity q has no root right of it, so
        # step to t = 1
        step = np.divide(q, dq, out=np.full(s.shape, np.inf), where=dq > 0)
        new = np.maximum(s - step, floor)
        moving = new < s
        # count_nonzero: a cheaper test than any() on arrays of a tile's size
        stalled = moving & (step >= last)
        if np.count_nonzero(stalled):
            size = (((6.0 * s2 + c3) * s + np.abs(c2)) * s + np.abs(c1)) * s + c0
            stalled &= np.abs(q) <= _FLOOR_UNIT * size
            new[stalled] = s[stalled]
            moving &= ~stalled
        if not np.count_nonzero(moving):
            cusp = np.hypot(np.ldexp(a + 3.0, -3 * e), np.ldexp(b, -3 * e))
            # the curve point (-3t^2, 2t(t^2 - 1)) at t = 2^e s, less (A, b)
            half_b = np.ldexp(0.5 * b, -3 * e)
            x = np.ldexp(3.0 * s * s, -e) + np.ldexp(a, -3 * e)
            y = 2.0 * (s * (s * s - c3) - half_b)
            # where y is inside Horner's rounding of its terms, at a root of q
            # right of t = 1, take it as -6t(3t^2 + A)/(6t^2 - 2) =
            # -3 s x / (3 2^e s^2 - 2^-e)
            lost = (s > floor) & (np.abs(y) <= _FLOOR_UNIT * 2.0 * (s * (s * s + c3) + half_b))
            if np.count_nonzero(lost):
                r = s[lost]
                y[lost] = -3.0 * r * x[lost] / (np.ldexp(3.0 * r * r, e[lost]) - floor[lost])
            return np.ldexp(np.minimum(cusp, np.hypot(x, y)), 3 * e)
        s = np.minimum(s, new)
        last = step
    raise RootFindingError(
        f"Newton's method on the boundary quintic still moving after {_NEWTON_MAX_STEPS} steps")


def boundary_distance(A, B):
    """Euclidean distance in the (A, B) plane to the region's boundary, the
    A <= -3 branch of B^2 = -4A(A+3)^2/27: the curve C(t) = (-3t^2,
    +-2t(t^2 - 1)), t >= 1, exact to rounding.

    With b = |B| the nearer sign is +, and the squared distance to C(t) is
    D(t) = (3t^2 + A)^2 + (2t^3 - 2t - b)^2, whose derivative is 4q(t),
    q(t) = 6t^5 + t^3 - 3bt^2 + (3A + 2)t + b.  D's least value on t >= 1 is
    at t = 1 (the cusp (-3, 0)) or at a root of q where q changes sign from
    - to +.

    Lemma: if r > 0 is a root of q with q'(r) >= 0, then q'' > 0 on [r, oo),
    for every A and every b >= 0.  For q(r) = 0 gives 3A + 2 =
    -6r^4 - r^2 + 3br - b/r, so q'(r) = 24r^4 + 2r^2 - b(3r^2 + 1)/r, and
    q'(r) >= 0 means b <= (24r^5 + 2r^3)/(3r^2 + 1) < 20r^3 + r, as
    (20r^3 + r)(3r^2 + 1) = 60r^5 + 23r^3 + r.  So q''(r) = 120r^3 + 6r - 6b
    > 0, and q'' increases, its derivative 360t^2 + 6 being positive.

    So q is convex and positive right of such a root: q has at most one
    up-crossing on t > 0, its largest root r, and only r can be a local
    minimum of D right of 1.  Newton's method started at Fujiwara's bound on
    |roots of q| (or at 1), right of every root, decreases monotonically to
    r: at an iterate t > r, q(t) > 0 and q'(t) > 0, and the tangent there
    lies below the convex q, so its zero, the next iterate, lies in [r, t).
    If q has no root right of 1 the iterates fall below 1, or reach a point
    with q' <= 0, and are set to 1.  The distance is then the lesser of
    sqrt D(1) and sqrt D at the last iterate.  In floats an iterate also stays
    where its step stops shrinking with q inside Horner's rounding floor,
    FLOOR_ULPS eps sum |c_i| |t|^i, a root to rounding; far out on the
    curve's evolute Horner's sum can come out as exactly q's constant term,
    and the steps would otherwise creep by a few ulps each.

    The distance takes the second coordinate 2t^3 - 2t - b as it is, where
    sqrt D is stationary in t; but far out along the curve it cancels, and
    its rounding, of order eps |B|, would pass the distance itself.  Where
    it lies inside Horner's rounding of its terms, at a last iterate right
    of 1, a root of q, it is taken as -6t(3t^2 + A)/(6t^2 - 2), D'(t) = 0.
    So the distance is exact to relative rounding wherever 3t^2 + A does not
    cancel; near the curve, where it does, the error is of order eps |A|.
    A and B may be arrays of one shape; the result then has that shape.  A
    NaN coordinate gives NaN, an infinite one inf, and a finite point a
    finite distance, with no overflow on the way.
    Raises RootFindingError if Newton's method is still moving after
    _NEWTON_MAX_STEPS steps.
    """
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    a, b = A.ravel(), np.abs(B.ravel())
    finite = np.isfinite(a) & np.isfinite(b)
    out = np.empty(a.shape)
    # |a| + b is NaN for a NaN coordinate and inf for an infinite one
    out[~finite] = np.abs(a[~finite]) + b[~finite]
    out[finite] = _nearest_distance(a[finite], b[finite])
    out = out.reshape(A.shape)
    return float(out) if out.ndim == 0 else out


@dataclass
class ScanSummary:
    cells: int
    disagreements: int
    max_disagree_distance: float
    rows: list       # (A, B, analytic, classifier, agree, boundary_distance)
    shape: tuple     # (number of A values, number of B values) of the grid

    def to_csv(self, stream, header_comment=None):
        if header_comment:
            stream.write(f"# {header_comment}\r\n")
        w = csv.writer(stream, lineterminator="\r\n")
        w.writerow(["A", "B", "analytic", "classifier", "agree",
                    "boundary_distance"])
        for A, B, an, cl, ag, dist in self.rows:
            w.writerow([f"{A:.6g}", f"{B:.6g}", int(an), int(cl), int(ag),
                        f"{dist:.6g}"])

    def to_pgm(self):
        """P5 bitmap, rows over A, columns over B: 255 in-region, 0 out, 128 disagree."""
        a_count, b_count = self.shape
        img = np.zeros((a_count, b_count), dtype=np.uint8)
        for idx, (A, B, an, cl, ag, dist) in enumerate(self.rows):
            i, j = divmod(idx, b_count)
            img[i, j] = 128 if not ag else (255 if an else 0)
        buf = io.BytesIO()
        buf.write(f"P5\n{b_count} {a_count}\n255\n".encode())
        buf.write(img.tobytes())
        return buf.getvalue()


def region_scan(a_range, b_range, step) -> ScanSummary:
    """Grid cross-validation of the analytic region against the classifier.

    a_range/b_range are inclusive (lo, hi) bounds with lo <= hi, stepped by
    `step`.  Rows are emitted in (A, B) lexicographic order; the classifier
    verdicts come from classify_batch, a block of cells at a time.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    a_lo, a_hi = a_range
    b_lo, b_hi = b_range
    if not (a_lo <= a_hi and b_lo <= b_hi):
        raise ValueError(f"ranges must run from lo to hi, got {a_range} and {b_range}")
    a_vals = np.arange(round((a_hi - a_lo) / step) + 1) * step + a_lo
    b_vals = np.arange(round((b_hi - b_lo) / step) + 1) * step + b_lo
    a_cells, b_cells = (g.ravel() for g in np.meshgrid(a_vals, b_vals, indexing="ij"))

    # rows of X^3 + AX + B in ascending powers
    C = np.zeros((a_cells.size, 4))
    C[:, 0], C[:, 1], C[:, 3] = b_cells, a_cells, 1.0
    verdicts = np.zeros(a_cells.size, dtype=bool)
    for i in range(0, a_cells.size, _SCAN_BLOCK):
        verdicts[i:i + _SCAN_BLOCK] = classify_batch(C[i:i + _SCAN_BLOCK])
    distances = boundary_distance(a_cells, b_cells)

    rows = []
    disagreements = 0
    max_dist = 0.0
    for A, B, verdict, dist in zip(a_cells.tolist(), b_cells.tolist(), verdicts.tolist(),
                                   distances.tolist()):
        analytic = in_region(A, B)
        agree = analytic == verdict
        if not agree:
            disagreements += 1
            max_dist = max(max_dist, dist)
        rows.append((A, B, analytic, verdict, agree, dist))
    return ScanSummary(len(rows), disagreements, max_dist, rows, (a_vals.size, b_vals.size))
