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
from .roots import RootFindingError, _fujiwara_radius, roots_batch

# cells per classify_batch call in region_scan: bounds each (cells, 66)
# cross-check array to about 0.5 MB
_SCAN_BLOCK = 1024
# Newton steps boundary_distance allows toward the largest root of q.  From
# Fujiwara's bound a simple root takes at most 15 steps on random points with
# |B| <= 21 and A down to -1e12; a double root of q, on the curve's evolute,
# is approached linearly, the error halving each step, and takes up to 37
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


def _stationarity(a, b, e=0):
    """Rows of q(2^e s) / 2^(5e) in ascending powers of s, for the
    stationarity quintic q(t) = 6t^5 + t^3 - 3bt^2 + (3a + 2)t + b of
    boundary_distance.  Scaling by 2^e is exact, and e = 0 gives q itself."""
    C = np.zeros((a.size, 6))
    C[:, 0] = np.ldexp(b, -5 * e)
    C[:, 1] = 3.0 * np.ldexp(a, -4 * e) + np.ldexp(2.0, -4 * e)
    C[:, 2] = -3.0 * np.ldexp(b, -3 * e)
    C[:, 3] = np.ldexp(1.0, -2 * e)
    C[:, 5] = 6.0
    return C


def _curve_distance(t, a, b):
    """Distance from (a, b) to the curve point (-3t^2, 2t(t^2 - 1)).  The
    halving is exact, and keeps 2t^3 from overflowing where b is near the
    largest float."""
    return np.hypot(3.0 * t * t + a, 2.0 * (t * (t * t - 1.0) - 0.5 * b))


def _largest_root_distance(a, b):
    """Distance from each (a[i], b[i]), 0 <= b <= 21, to the curve point at
    the largest root of q if that is at least 1 (else at t = 1), by Newton's
    method from right of every root (boundary_distance gives the proof)."""
    C = _stationarity(a, b)
    c1, c2 = C[:, 1], C[:, 2]
    t = np.maximum(_fujiwara_radius(C), 1.0)
    for _ in range(_NEWTON_MAX_STEPS):
        t2 = t * t
        q = (((6.0 * t2 + 1.0) * t + c2) * t + c1) * t + b
        dq = ((30.0 * t2 + 3.0) * t + 2.0 * c2) * t + c1
        # q' <= 0 at an iterate: by convexity q has no root right of 1, so
        # step to t = 1
        step = np.divide(q, dq, out=np.full(t.shape, np.inf), where=dq > 0)
        new = np.maximum(t - step, 1.0)
        if not (new < t).any():
            return _curve_distance(t, a, b)
        # fmin: a NaN step, from an overflow of q, is never taken
        t = np.fmin(t, new)
    raise RootFindingError(
        f"Newton's method on the boundary quintic still moving after {_NEWTON_MAX_STEPS} steps")


def _all_roots_distance(a, b):
    """Distance from each (a[i], b[i]), b >= 0, to the curve points at the
    real parts of all five roots of q, each raised to at least 1.

    Every such t is a curve point, so the least distance is at least the
    distance sought, and it is that distance when the nearest point is at a
    real root of q.  The roots are those of q(2^e s) / 2^(5e), with 2^e at
    least cbrt(b) and |a|^(1/4), so that no coefficient or root of the
    scaled quintic overflows.
    """
    e = np.frexp(np.maximum(np.cbrt(b), np.sqrt(np.sqrt(np.abs(a)))))[1]
    t = np.maximum(np.ldexp(roots_batch(_stationarity(a, b, e)).real, e[:, None]), 1.0)
    return _curve_distance(t, a[:, None], b[:, None]).min(axis=1)


def boundary_distance(A, B):
    """Euclidean distance in the (A, B) plane to the region's boundary, the
    A <= -3 branch of B^2 = -4A(A+3)^2/27: the curve C(t) = (-3t^2,
    +-2t(t^2 - 1)), t >= 1, exact to rounding.

    With b = |B| the nearer sign is +, and the squared distance to C(t) is
    D(t) = (3t^2 + A)^2 + (2t^3 - 2t - b)^2, whose derivative is 4q(t),
    q(t) = 6t^5 + t^3 - 3bt^2 + (3A + 2)t + b.  D's least value on t >= 1 is
    at t = 1 (the cusp (-3, 0)) or at a root of q where q changes sign from
    - to +.  Where b <= 21, q''(t) = 120t^3 + 6t - 6b >= 126 - 6b >= 0 on
    t >= 1, so q is convex there: it has at most two roots right of 1, and
    only the largest, r, is a local minimum of D.  Newton's method started at
    Fujiwara's bound on |roots of q| (or at 1), right of every root,
    decreases monotonically to r: at an iterate t > r, q(t) > 0 and q'(t) > 0,
    and the tangent there lies below the convex q, so its zero, the next
    iterate, lies in [r, t).  If q has no root right of 1 the iterates fall
    below 1, or reach a point with q' <= 0, and are set to 1.  The
    distance is then the lesser of sqrt D(1) and sqrt D at the last iterate.
    Where b > 21 convexity may fail, and the distance is the least over t = 1
    and the real parts of all roots of q (_all_roots_distance).

    The rounding error is of order eps (|A| + |B|), since 2t^3 - 2t - b
    cancels near the curve; it passes the distance itself only far out along
    the curve (|B| past about 1e47).  A and B may be arrays of one shape;
    the result then has that shape.  A NaN coordinate gives NaN, an infinite
    one inf, and a finite point a finite distance.  Past |A| of about 1e245
    with b <= 21 q overflows, with numpy's warning, and Newton's method stays
    at its start; sqrt D(1) is then the distance to rounding.  Raises
    RootFindingError if Newton's method is still moving after
    _NEWTON_MAX_STEPS steps.
    """
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    a, b = A.ravel(), np.abs(B.ravel())
    finite = np.isfinite(a) & np.isfinite(b)
    # |a| + b is NaN for a NaN coordinate and inf for an infinite one
    out = np.where(finite, np.hypot(a + 3.0, b), np.abs(a) + b)
    convex = finite & (b <= 21.0)
    out[convex] = np.minimum(out[convex], _largest_root_distance(a[convex], b[convex]))
    rest = finite & ~convex
    if rest.any():
        out[rest] = np.minimum(out[rest], _all_roots_distance(a[rest], b[rest]))
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
