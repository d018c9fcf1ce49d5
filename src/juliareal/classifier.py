"""Decide whether a real polynomial has real Julia set.

The decision reduces to interval containments: the critical interval (all t
with deg-many real preimages) must capture the real fixed points, with the
four cases split by degree parity and the sign of the lead coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial, poly_to_json
from .roots import all_real_batch, all_real_shifted, real_roots_batch, real_roots_ex

# containment slack for "fixed point inside interval" (relative)
CONTAIN_TOL = 1e-8
# verdicts this close to an interval endpoint are flagged marginal
MARGINAL_TOL = 1e-7
# realness tolerances for the critical points and for the fixed points
_CRIT_REALNESS_TOL = 1e-7
_FIXED_REALNESS_TOL = 1e-6


def _locate(x, lo, hi):
    """(inside, near) for points x and intervals [lo, hi], floats or arrays.

    inside: lo <= x <= hi up to CONTAIN_TOL; near: x within MARGINAL_TOL of
    an end; both relative to 1 + |x|.  An infinite end is never near.
    """
    size = 1.0 + abs(x)
    inside = (x >= lo - CONTAIN_TOL * size) & (x <= hi + CONTAIN_TOL * size)
    near = (abs(x - lo) <= MARGINAL_TOL * size) | (abs(x - hi) <= MARGINAL_TOL * size)
    return inside, near


class CriticalIntervalError(RuntimeError):
    """Fast-path interval disagrees with the all-real-roots oracle."""


@dataclass(frozen=True)
class CriticalInterval:
    """Closed set of shifts t for which p - t splits over the reals.

    May be empty, a point, or unbounded on either side (lo/hi of +-inf).
    """

    lo: float
    hi: float
    empty: bool = False

    def contains(self, x):
        return not self.empty and bool(_locate(x, self.lo, self.hi)[0])

    def near_boundary(self, x):
        return not self.empty and bool(_locate(x, self.lo, self.hi)[1])

    def to_json(self):
        if self.empty:
            return {"empty": True}
        return {"empty": False, "lo": self.lo, "hi": self.hi}


@dataclass
class ClassificationReport:
    julia_real: bool
    branch: str                      # odd-positive / odd-negative / even-positive / even-negative
    fixed_points: list = field(default_factory=list)
    interval: CriticalInterval | None = None
    test_interval: tuple | None = None   # [a1, a2] for even branches
    marginal: bool = False
    witness: float | None = None     # a point violating containment, when false
    reason: str = ""

    def to_json(self, p: Polynomial | None = None):
        out = {
            "julia_real": self.julia_real,
            "branch": self.branch,
            "fixed_points": self.fixed_points,
            "interval": self.interval.to_json() if self.interval else None,
            "marginal": self.marginal,
            "reason": self.reason,
        }
        if self.test_interval is not None:
            out["test_interval"] = list(self.test_interval)
        if self.witness is not None:
            out["witness"] = self.witness
        if p is not None:
            out["poly"] = poly_to_json(p)
        return out


# Chebyshev nodes on (-1, 1): the cross-check samples of a critical interval
_SAMPLE_NODES = np.cos(np.pi * (np.arange(64) + 0.5) / 64)
# all-real tolerance at those samples, then at the two pulled-in endpoints
_CROSS_CHECK_TOL = np.r_[np.full(len(_SAMPLE_NODES), 1e-6), 1e-5, 1e-5]
# how far the cross-check pulls a finite endpoint into the interval, and the
# gap by which lo may exceed hi before the interval counts as empty (relative)
_ENDPOINT_PULL = 1e-9


def _cross_check_targets(lo, hi, scale):
    """The all-real cross-check targets of intervals [lo, hi] with lo < hi.

    lo, hi and scale are floats or arrays of one shape; the targets have
    that shape plus a last axis of 66: 64 Chebyshev samples of [lo, hi],
    then lo and hi pulled in by _ENDPOINT_PULL * scale.  An infinite end
    stays infinite and is sampled as if it lay 10 (1 + |other end|) away
    (0 stands in for an infinite other end).  _CROSS_CHECK_TOL holds the
    tolerances.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    end = np.where(np.isfinite(hi), hi, 0.0)
    a = np.where(np.isfinite(lo), lo, end - 10.0 * (1.0 + np.abs(end)))
    b = np.where(np.isfinite(hi), hi, a + 10.0 * (1.0 + np.abs(a)))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pull = _ENDPOINT_PULL * scale
    return np.concatenate([mid[..., None] + half[..., None] * _SAMPLE_NODES,
                           (lo + pull)[..., None], (hi - pull)[..., None]], axis=-1)


def critical_interval(p: Polynomial) -> CriticalInterval:
    """Closure of {t : p - t has deg(p) real roots with multiplicity}.

    Fast path from critical values: the interval is bounded below by values
    at local minima, above by values at local maxima, and pinned to p(w) at
    any multiple critical point (a repeated root of p' must be a root of
    p - t whenever p - t splits).  The result is cross-checked against the
    all-real predicate in one call over 64 interior samples and the finite
    endpoints, pulled slightly inward.
    """
    q = p.to_float()
    if q.degree < 2:
        raise ValueError("degree >= 2 required")
    dq = q.derivative()
    crit, _ = real_roots_ex(dq, realness_tol=_CRIT_REALNESS_TOL)
    after = sum(m for _, m in crit)
    if after < dq.degree:
        # nonreal critical point: p - t can never split over R
        return CriticalInterval(math.nan, math.nan, empty=True)

    lo, hi = -math.inf, math.inf
    # p' has the sign of its lead right of the last critical point and flips
    # at each root of odd multiplicity: right of x it has the sign of
    # lead * (-1)^after, with after the multiplicities right of x
    for x, m in crit:
        after -= m
        v = q(x)
        if m >= 2:
            lo = max(lo, v)
            hi = min(hi, v)
        elif (q.lead > 0) == (after % 2 == 0):      # p' > 0 to the right: local min
            lo = max(lo, v)
        else:                                       # local max
            hi = min(hi, v)

    scale = 1.0 + max((abs(v) for v in (lo, hi) if math.isfinite(v)), default=0.0)
    if lo > hi + _ENDPOINT_PULL * scale:
        return CriticalInterval(math.nan, math.nan, empty=True)
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)

    if lo < hi:
        ts = _cross_check_targets(lo, hi, scale)
        finite = np.flatnonzero(np.isfinite(ts))
        failed = finite[~all_real_shifted(q, ts[finite], tol=_CROSS_CHECK_TOL[finite])]
        if failed.size:
            end = failed[0] - len(_SAMPLE_NODES)
            raise CriticalIntervalError(
                f"fast-path endpoint {(lo, hi)[end]} fails the all-real oracle" if end >= 0
                else f"fast-path interval [{lo}, {hi}] fails the all-real oracle at "
                     f"t={float(ts[failed[0]])}; the all-real set may be disconnected")
    return CriticalInterval(lo, hi)


def real_fixed_points(p: Polynomial, of_iterate=1):
    """Sorted distinct real fixed points of p (or p^2), with multiplicities."""
    if p.degree < 2:
        raise ValueError("degree >= 2 required")
    q = p.to_float().iterate(of_iterate) - Polynomial([0.0, 1.0])
    return real_roots_ex(q, realness_tol=_FIXED_REALNESS_TOL)


def classify_real_julia(p: Polynomial) -> ClassificationReport:
    """Dispatch on (degree parity, lead sign) and test the containments."""
    q = p.to_float()
    if q.degree < 2:
        raise ValueError("degree >= 2 required")
    odd = q.degree % 2 == 1
    positive = q.lead > 0
    branch = f"{'odd' if odd else 'even'}-{'positive' if positive else 'negative'}"
    # the odd-negative branch works on f o f
    iterate = 2 if odd and not positive else 1
    interval = critical_interval(q.iterate(2) if iterate == 2 else q)
    fps, marginal = real_fixed_points(q, of_iterate=iterate)
    points = [x for x, _ in fps]
    report = ClassificationReport(False, branch, points, interval, marginal=marginal)
    if odd:
        return _decide(report, points, max(points, default=None),
                       "fixed point outside critical interval",
                       "all fixed points inside critical interval")

    if not points:
        report.reason = "no real fixed point"
        return report
    # the extreme fixed point on the lead's side, then its farthest real preimage
    end = max(points) if positive else min(points)
    pre, pre_marginal = real_roots_ex(q - Polynomial([end]), realness_tol=_FIXED_REALNESS_TOL)
    real_pre = [x for x, _ in pre] or [end]
    a1, a2 = (min(real_pre), end) if positive else (end, max(real_pre))
    report.marginal = report.marginal or pre_marginal
    report.test_interval = (a1, a2)
    return _decide(report, (a1, a2), a1, "test interval escapes critical interval",
                   "test interval inside critical interval")


def _decide(report, xs, empty_witness, outside, inside):
    """Finish report: julia_real iff every x in xs lies in report.interval."""
    interval = report.interval
    if interval.empty:
        report.reason, report.witness = "empty critical interval", empty_witness
        return report
    for x in xs:
        if not interval.contains(x):
            report.reason, report.witness = outside, x
            return report
        report.marginal = report.marginal or interval.near_boundary(x)
    report.julia_real, report.reason = True, inside
    return report


def classify_batch(C):
    """classify_real_julia(...).julia_real for every row of C, shape (rows, d+1).

    The rows are coefficients in ascending powers, all of one odd degree
    d >= 3 with a positive lead: the branch a scan of X^3 + AX + B needs.
    Two batched solves give the critical points and the fixed points;
    realness, the critical interval, the cross-check of critical_interval
    (one all-real call over the same 66 targets per bounded row) and
    containment are then array operations.  A row that this does not
    decide by a wide margin goes through classify_real_julia unchanged, so
    its errors still raise: clustered roots, a root near the realness
    tolerance, an interval near a single point, a fixed point near an
    interval endpoint, a failed residual or cross-check, a non-finite value.
    """
    C = np.asarray(C, dtype=float)
    d = C.shape[-1] - 1
    if C.ndim != 2 or d < 3 or d % 2 == 0 or not (C[:, -1] > 0).all():
        raise ValueError("rows of one odd degree >= 3 with positive lead required")
    crit, crit_clear = real_roots_batch(C[:, 1:] * np.arange(1, d + 1), _CRIT_REALNESS_TOL)
    fixed, fixed_clear = real_roots_batch(C - np.eye(1, d + 1, 1), _FIXED_REALNESS_TOL)
    decided = crit_clear & fixed_clear & np.isfinite(C).all(axis=1)

    # p' has even degree and positive lead: with all its roots real and
    # simple, p has local maxima at the even positions of the sorted
    # critical points and minima at the odd ones
    split = decided & ~np.isnan(crit).any(axis=1)
    values = _horner_real(C[split], crit[split])
    hi = np.full(len(C), np.nan)
    lo = np.full(len(C), np.nan)
    hi[split] = values[:, 0::2].min(axis=1)
    lo[split] = values[:, 1::2].max(axis=1)
    scale = 1.0 + np.maximum(np.abs(lo), np.abs(hi))
    # nonreal critical points leave the interval empty
    empty = decided & ~split
    empty[split] = lo[split] > hi[split] + 10 * _ENDPOINT_PULL * scale[split]
    bounded = split & (lo < hi - 10 * _ENDPOINT_PULL * scale)
    decided &= empty | bounded

    rows = np.flatnonzero(bounded)
    ts = _cross_check_targets(lo[rows], hi[rows], scale[rows])
    decided[rows] &= all_real_batch(C[rows], ts, _CROSS_CHECK_TOL).all(axis=1)

    inside, near = _locate(fixed, lo[:, None], hi[:, None])
    real = ~np.isnan(fixed)
    decided &= empty | ~near.any(axis=1)
    verdict = bounded & (inside | ~real).all(axis=1)
    for i in np.flatnonzero(~decided):
        verdict[i] = classify_real_julia(Polynomial(C[i].tolist())).julia_real
    return verdict


def _horner_real(C, x):
    """p(x) elementwise for x of shape (rows, k), p given by the rows of C.

    Same operations in the same order as Polynomial.__call__, so the
    critical values equal those critical_interval computes.
    """
    acc = np.repeat(C[:, -1:], x.shape[1], axis=1)
    for i in range(C.shape[1] - 2, -1, -1):
        acc = acc * x + C[:, i:i + 1]
    return acc


def forward_escape_check(p: Polynomial, x, max_iter=256):
    """Does the forward orbit of x run off to +inf?  (positive lead only)

    True once the orbit exceeds the escape radius on the positive side;
    False means no escape within the iteration budget.
    """
    from .orbit import escape_radius

    q = p.to_float()
    if q.lead <= 0:
        raise ValueError("positive lead coefficient required")
    radius = escape_radius(q)
    v = float(x)
    for _ in range(max_iter):
        if v > radius:
            return True
        if v < -radius:
            if q.degree % 2 == 1:
                return False    # certified escape to -inf instead
            # even degree: next iterate is large positive
        v = q(v)
        if not math.isfinite(v):
            return v > 0
    return False
