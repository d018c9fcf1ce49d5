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
# float64 elements per boundary_distance temporary, about 1 MB: the coarse
# distances of a chunk of cells and the samples of a chunk of their windows
# each stay within it
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


# samples of the arc A in [-9, -3], B >= 0 of the boundary curve's A <= -3
# branch, for boundary_distance; the rest of that branch, (-3a^2, 2a(a^2 - 1))
# for a > sqrt 3, lies in the quadrant A <= -9, B >= 4 sqrt 3 = _CURVE_B[0]
_CURVE_A = np.linspace(-9.0, -3.0, 2001)
_CURVE_B = np.sqrt(np.maximum(region_bound(_CURVE_A), 0.0))

# boundary_distance's coarse pass takes every _COARSE_STRIDE-th sample and
# the last.  Window w holds the samples strictly between coarse samples w and
# w + 1 (the last window's row padded with its end sample), and its polyline,
# from one coarse sample to the next, has length _WINDOW_LENGTH[w]
_COARSE_STRIDE = 32
_coarse = np.append(np.arange(0, _CURVE_A.size - 1, _COARSE_STRIDE), _CURVE_A.size - 1)
_window = np.minimum(_coarse[:-1, None] + np.arange(1, _COARSE_STRIDE), _coarse[1:, None])
_segments = np.hypot(np.diff(_CURVE_A), np.diff(_CURVE_B))
_COARSE_A, _COARSE_B = _CURVE_A[_coarse], _CURVE_B[_coarse]
_WINDOW_A, _WINDOW_B = _CURVE_A[_window], _CURVE_B[_window]
_WINDOW_LENGTH = np.add.reduceat(_segments, _coarse[:-1])
# the widening of each window's lower bound: the largest sample spacing,
# about 5.5e-3, far above the rounding of the distances near the arc, plus
# the relative rounding of a distance d and of the bound, under 4 eps d
# (1.5 eps d in each distance, 2.5 eps d in the bound), taken twice
_SPACING = _segments.max()
_ROUNDING = 8 * np.finfo(float).eps
del _coarse, _window, _segments


def _beyond_arc_distance(A, B):
    """Distance from each (A[i], B[i]), B >= 0, to the curve points
    (-3t^2, 2t(t^2 - 1)) with t >= sqrt 3.

    The nearest is t = sqrt 3 or a real root of the derivative of the squared
    distance over 4, 12t^5 + 2t^3 - 6Bt^2 + (6A + 4)t + 2B.  The real part of
    every root, raised to at least sqrt 3, is a curve point, so the least
    distance to those points is the distance sought.
    """
    C = np.zeros((A.size, 6))
    C[:, 0], C[:, 1], C[:, 2], C[:, 3], C[:, 5] = 2.0 * B, 6.0 * A + 4.0, -6.0 * B, 2.0, 12.0
    t = np.maximum(roots_batch(C).real, math.sqrt(3.0))
    d2 = np.square(-3.0 * t * t - A[:, None]) + np.square(2.0 * t * (t * t - 1.0) - B[:, None])
    return np.sqrt(d2.min(axis=1))


def _coarse_pass(a, b):
    """For each (a[i], b[i]), b >= 0: the least squared distance to a coarse
    sample, and which windows may hold a nearer sample.  A function of its
    own, so that its (cells, coarse samples) arrays are freed before the
    windows are measured."""
    d2 = np.square(_COARSE_A - a[:, None])
    d2 += np.square(_COARSE_B - b[:, None])
    least = d2.min(axis=1)
    d = np.sqrt(d2, out=d2)
    best = np.sqrt(least)
    bound = d[:, :-1] + d[:, 1:]
    bound -= _WINDOW_LENGTH
    bound /= 2
    # NaN fails the comparison, so a NaN cell keeps its NaN coarse minimum
    return least, bound <= (best + _SPACING + _ROUNDING * best)[:, None]


def _arc_distance(a, b):
    """Distance from each (a[i], b[i]), b >= 0, to the nearest arc sample:
    the square root of the least (_CURVE_A[j] - a)^2 + (_CURVE_B[j] - b)^2."""
    least, keep = _coarse_pass(a, b)
    cells, windows = np.nonzero(keep)
    step = _DISTANCE_CHUNK // _WINDOW_A.shape[1]
    for i in range(0, cells.size, step):
        c, w = cells[i:i + step], windows[i:i + step]
        d2 = np.square(_WINDOW_A[w] - a[c, None])
        d2 += np.square(_WINDOW_B[w] - b[c, None])
        np.minimum.at(least, c, d2.min(axis=1))
    return np.sqrt(least)


def boundary_distance(A, B):
    """Euclidean distance in the (A, B) plane to the curve B^2 = -4A(A+3)^2/27.

    The curve (A <= -3 branch, both signs of B) is sampled densely on the arc
    A in [-9, -3] and the least distance to a sample taken; accurate to the
    sampling resolution, which is all the scan band test needs.  A coarse
    pass measures every _COARSE_STRIDE-th sample, and `best` is the least of
    those.  Between coarse samples at distances d0 and d1, joined by a
    polyline of length L, every sample is at least (d0 + d1 - L) / 2 away
    (triangle inequality).  A window whose bound, widened by the largest
    sample spacing and by the distances' relative rounding, exceeds `best`
    cannot hold a sample nearer than `best` and is skipped.  The samples of
    the other windows are measured with the same operations, so the minimum,
    and the distance, are those of all 2,001 samples bit for bit.  Past the
    arc the curve lies in the quadrant A <= -9, |B| >= 4 sqrt 3, so a point
    nearer that quadrant than to the arc also gets its exact distance to the
    curve there (_beyond_arc_distance).  A and B may be arrays of one shape;
    the result then has that shape.
    """
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    a, b = A.ravel(), np.abs(B.ravel())
    out = np.empty(a.size)
    # the nearer branch is the one on B's side: (Bs - |B|)^2 is the smaller
    # of (Bs - B)^2 and (Bs + B)^2, bit for bit
    step = _DISTANCE_CHUNK // _COARSE_A.size
    for i in range(0, a.size, step):
        out[i:i + step] = _arc_distance(a[i:i + step], b[i:i + step])
    # an infinite arc distance is an overflow of huge A or B: kept as it is
    beyond = np.isfinite(out) & (
        np.hypot(np.maximum(a - _CURVE_A[0], 0.0), np.maximum(_CURVE_B[0] - b, 0.0)) < out)
    if beyond.any():
        out[beyond] = np.minimum(out[beyond], _beyond_arc_distance(a[beyond], b[beyond]))
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
