"""The explicit parameter region for the family X^3 + A X + B.

Membership is the closed analytic condition A <= -3, B^2 <= -4A(A+3)^2/27.
The scan machinery cross-validates it cell by cell against the general
classifier and reports each cell's distance to the analytic boundary curve.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .classifier import classify_batch
from .roots import roots_batch

# cells per classify_batch call in region_scan: bounds each (cells, 66)
# cross-check array to about 0.5 MB
_SCAN_BLOCK = 1024
# float64 elements per boundary_distance temporary: about 1 MB
_DISTANCE_CHUNK = 1 << 17


def region_bound(A):
    """The boundary value -4A(A+3)^2/27; B is admissible iff B^2 <= this."""
    return -4.0 * A * (A + 3.0) ** 2 / 27.0


def in_region(A, B) -> bool:
    """Closed inequalities, no tolerance: A <= -3 and B^2 <= -4A(A+3)^2/27."""
    return A <= -3.0 and B * B <= region_bound(A)


def b_zero(a) -> float:
    """Largest B >= 0 with (-3a^2, B) in the region, for a >= 1: 2a(a^2-1)."""
    if a < 1:
        raise ValueError("no admissible B for a < 1")
    return 2.0 * a * (a * a - 1.0)


def in_three_fixed_set(A, B) -> bool:
    """Closed set where X^3 + (A-1)X + B has three real roots (disc >= 0)."""
    return -4.0 * (A - 1.0) ** 3 - 27.0 * B * B >= 0.0


def fixed_point_trajectory(a, b_grid):
    """Rows (B, alpha1, alpha2, in_set) tracking the extreme real fixed points.

    alpha1/alpha2 are the smallest/largest real roots of f - X for
    f = X^3 - 3a^2 X + B; rows outside the three-real-fixed-point set carry
    in_set = False and NaN alphas instead of aborting the sweep.
    """
    A = -3.0 * a * a
    rows = []
    for B in b_grid:
        B = float(B)
        if not in_three_fixed_set(A, B):
            rows.append((B, math.nan, math.nan, False))
            continue
        r = roots_batch(np.array([[B, A - 1.0, 0.0, 1.0]]))[0]
        real = np.sort(r.real[np.abs(r.imag) <= 1e-7 * (1.0 + np.abs(r))])
        rows.append((B, float(real[0]), float(real[-1]), True))
    return rows


# samples of the boundary curve's A <= -3 branch, B >= 0, for boundary_distance
_CURVE_A = np.linspace(-9.0, -3.0, 2001)
_CURVE_B = np.sqrt(np.maximum(region_bound(_CURVE_A), 0.0))


def boundary_distance(A, B):
    """Euclidean distance in the (A, B) plane to the curve B^2 = -4A(A+3)^2/27.

    The curve (A <= -3 branch, both signs of B) is sampled densely and the
    minimum point distance returned; accurate to the sampling resolution,
    which is all the scan band test needs.  A and B may be arrays of one
    shape; the result then has that shape.
    """
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    a, b = A.ravel(), np.abs(B.ravel())
    out = np.empty(a.size)
    # the nearer branch is the one on B's side: (Bs - |B|)^2 is the smaller
    # of (Bs - B)^2 and (Bs + B)^2, bit for bit
    step = max(1, _DISTANCE_CHUNK // _CURVE_A.size)
    for i in range(0, a.size, step):
        d2 = np.square(_CURVE_A - a[i:i + step, None])
        d2 += np.square(_CURVE_B - b[i:i + step, None])
        out[i:i + step] = np.sqrt(d2.min(axis=1))
    out = out.reshape(A.shape)
    return float(out) if out.ndim == 0 else out


@dataclass
class ScanSummary:
    cells: int
    disagreements: int
    max_disagree_distance: float
    rows: list       # (A, B, analytic, classifier, agree, boundary_distance)

    def to_csv(self, stream, header_comment=None):
        if header_comment:
            stream.write(f"# {header_comment}\r\n")
        w = csv.writer(stream, lineterminator="\r\n")
        w.writerow(["A", "B", "analytic", "classifier", "agree",
                    "boundary_distance"])
        for A, B, an, cl, ag, dist in self.rows:
            w.writerow([f"{A:.6g}", f"{B:.6g}", int(an), int(cl), int(ag),
                        f"{dist:.6g}"])

    def to_pgm(self, a_count, b_count):
        """P5 bitmap, rows over A, columns over B: 255 in-region, 0 out, 128 disagree."""
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
    return ScanSummary(len(rows), disagreements, max_dist, rows)
