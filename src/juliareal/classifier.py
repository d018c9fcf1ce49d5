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

    def contains(self, x, slack=CONTAIN_TOL):
        if self.empty:
            return False
        eps = slack * (1.0 + abs(x))
        return self.lo - eps <= x <= self.hi + eps

    def near_boundary(self, x, slack=MARGINAL_TOL):
        if self.empty:
            return False
        eps = slack * (1.0 + abs(x))
        return (math.isfinite(self.lo) and abs(x - self.lo) <= eps) or \
               (math.isfinite(self.hi) and abs(x - self.hi) <= eps)

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
# all-real tolerance at the interior samples and at the pulled-in endpoints
_SAMPLE_TOL = 1e-6
_ENDPOINT_TOL = 1e-5
# how far the cross-check pulls a finite endpoint into the interval, and the
# gap by which lo may exceed hi before the interval counts as empty (relative)
_ENDPOINT_PULL = 1e-9


def _sample_points(lo, hi):
    """Strictly interior Chebyshev-style sample of [lo, hi] (finite part)."""
    if not math.isfinite(lo):
        lo = hi - 10.0 * (1.0 + abs(hi)) if math.isfinite(hi) else -10.0
    if not math.isfinite(hi):
        hi = lo + 10.0 * (1.0 + abs(lo))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * _SAMPLE_NODES


def critical_interval(p: Polynomial, cross_check=True) -> CriticalInterval:
    """Closure of {t : p - t has deg(p) real roots with multiplicity}.

    Fast path from critical values: the interval is bounded below by values
    at local minima, above by values at local maxima, and pinned to p(w) at
    any multiple critical point (a repeated root of p' must be a root of
    p - t whenever p - t splits).  The result is cross-checked against the
    all-real predicate at 64 interior samples plus both endpoints.
    """
    q = p.to_float()
    if q.degree < 2:
        raise ValueError("degree >= 2 required")
    dq = q.derivative()
    crit, _ = real_roots_ex(dq, realness_tol=_CRIT_REALNESS_TOL)
    total_mult = sum(m for _, m in crit)
    if total_mult < dq.degree:
        # nonreal critical point: p - t can never split over R
        return CriticalInterval(math.nan, math.nan, empty=True)

    xs = [x for x, _ in crit]
    lo, hi = -math.inf, math.inf
    # signs of p' between consecutive critical points decide min vs max
    probes = []
    span = (xs[-1] - xs[0]) + 1.0
    probes.append(xs[0] - span)
    for a, b in zip(xs, xs[1:]):
        probes.append(0.5 * (a + b))
    probes.append(xs[-1] + span)
    signs = [1.0 if dq(t) > 0 else -1.0 for t in probes]
    for i, (x, m) in enumerate(crit):
        v = q(x)
        if m >= 2:
            lo = max(lo, v)
            hi = min(hi, v)
        elif signs[i] > 0 and signs[i + 1] < 0:     # local max
            hi = min(hi, v)
        elif signs[i] < 0 and signs[i + 1] > 0:     # local min
            lo = max(lo, v)
        else:
            # simple critical point without sign change cannot happen; treat
            # as pinned to be safe
            lo = max(lo, v)
            hi = min(hi, v)

    scale = 1.0 + max(abs(v) for v in (lo, hi) if math.isfinite(v)) \
        if (math.isfinite(lo) or math.isfinite(hi)) else 1.0
    if lo > hi + _ENDPOINT_PULL * scale:
        return CriticalInterval(math.nan, math.nan, empty=True)
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)

    interval = CriticalInterval(lo, hi)
    if cross_check and lo < hi:
        ts = _sample_points(lo, hi)
        ok = all_real_shifted(q, ts, tol=_SAMPLE_TOL)
        if not ok.all():
            bad = float(np.asarray(ts)[~np.asarray(ok)][0])
            raise CriticalIntervalError(
                f"fast-path interval [{lo}, {hi}] fails the all-real oracle "
                f"at t={bad}; the all-real set may be disconnected")
        for endpoint in (lo, hi):
            if math.isfinite(endpoint):
                pull = _ENDPOINT_PULL * scale
                pulled = endpoint + (pull if endpoint == lo else -pull)
                if not all_real_shifted(q, [pulled], tol=_ENDPOINT_TOL)[0]:
                    raise CriticalIntervalError(
                        f"fast-path endpoint {endpoint} fails the all-real oracle")
    return interval


def real_fixed_points(p: Polynomial, of_iterate=1):
    """Sorted distinct real fixed points of p (or p^2), with multiplicities."""
    if p.degree < 2:
        raise ValueError("degree >= 2 required")
    q = p.to_float().iterate(of_iterate) - Polynomial([0.0, 1.0])
    roots, marginal = real_roots_ex(q, realness_tol=_FIXED_REALNESS_TOL)
    return roots, marginal


def classify_real_julia(p: Polynomial, cross_check=True) -> ClassificationReport:
    """Dispatch on (degree parity, lead sign) and test the containments."""
    q = p.to_float()
    if q.degree < 2:
        raise ValueError("degree >= 2 required")
    odd = q.degree % 2 == 1
    positive = q.lead > 0
    branch = f"{'odd' if odd else 'even'}-{'positive' if positive else 'negative'}"

    if odd:
        base = q if positive else q.iterate(2)
        interval = critical_interval(base, cross_check=cross_check)
        fps, marginal = real_fixed_points(q, of_iterate=1 if positive else 2)
        points = [x for x, _ in fps]
        report = ClassificationReport(False, branch, points, interval, marginal=marginal)
        if interval.empty:
            report.reason = "empty critical interval"
            report.witness = max(points) if points else None
            return report
        for x in points:
            if not interval.contains(x):
                report.reason = "fixed point outside critical interval"
                report.witness = x
                return report
            if interval.near_boundary(x):
                report.marginal = True
        report.julia_real = True
        report.reason = "all fixed points inside critical interval"
        return report

    # even degree
    interval = critical_interval(q, cross_check=cross_check)
    fps, marginal = real_fixed_points(q, of_iterate=1)
    points = [x for x, _ in fps]
    report = ClassificationReport(False, branch, points, interval, marginal=marginal)
    if not points:
        report.reason = "no real fixed point"
        return report
    if positive:
        a2 = max(points)
        pre, pre_marginal = real_roots_ex(q - Polynomial([a2]), realness_tol=1e-6)
        real_pre = [x for x, _ in pre]
        a1 = min(real_pre) if real_pre else a2
    else:
        a1 = min(points)
        pre, pre_marginal = real_roots_ex(q - Polynomial([a1]), realness_tol=1e-6)
        real_pre = [x for x, _ in pre]
        a2 = max(real_pre) if real_pre else a1
    report.marginal = report.marginal or pre_marginal
    report.test_interval = (a1, a2)
    if interval.empty:
        report.reason = "empty critical interval"
        report.witness = a1
        return report
    for x in (a1, a2):
        if not interval.contains(x):
            report.reason = "test interval escapes critical interval"
            report.witness = x
            return report
        if interval.near_boundary(x):
            report.marginal = True
    report.julia_real = True
    report.reason = "test interval inside critical interval"
    return report


def classify_batch(C, cross_check=True):
    """classify_real_julia(...).julia_real for every row of C, shape (rows, d+1).

    The rows are coefficients in ascending powers, all of one odd degree
    d >= 3 with a positive lead: the branch a scan of X^3 + AX + B needs.
    Two batched solves give the critical points and the fixed points;
    realness, the critical interval, the cross-check of critical_interval
    and containment are then array operations.  A row that this does not
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

    if cross_check:
        rows = np.flatnonzero(bounded)
        mid = 0.5 * (lo[rows] + hi[rows])
        half = 0.5 * (hi[rows] - lo[rows])
        pull = _ENDPOINT_PULL * scale[rows]
        ts = np.concatenate([mid[:, None] + half[:, None] * _SAMPLE_NODES,
                             (lo[rows] + pull)[:, None], (hi[rows] - pull)[:, None]], axis=1)
        tol = np.r_[np.full(len(_SAMPLE_NODES), _SAMPLE_TOL), _ENDPOINT_TOL, _ENDPOINT_TOL]
        decided[rows] &= all_real_batch(C[rows], ts, tol).all(axis=1)

    slack = 1.0 + np.abs(fixed)
    inside = (fixed >= lo[:, None] - CONTAIN_TOL * slack) & (fixed <= hi[:, None] + CONTAIN_TOL * slack)
    near = ((np.abs(fixed - lo[:, None]) <= MARGINAL_TOL * slack)
            | (np.abs(fixed - hi[:, None]) <= MARGINAL_TOL * slack))
    real = ~np.isnan(fixed)
    decided &= empty | ~near.any(axis=1)
    verdict = bounded & (inside | ~real).all(axis=1)
    for i in np.flatnonzero(~decided):
        verdict[i] = classify_real_julia(Polynomial(C[i].tolist()),
                                         cross_check=cross_check).julia_real
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
