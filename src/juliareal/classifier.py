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
from .roots import (TwoCycles, all_real_batch, all_real_shifted, near_axis, real_roots_batch,
                    real_roots_ex, roots_batch, shifted_rows)
from .tolerances import (CLUSTER_TOL, CONTAIN_TOL, CRIT_REALNESS_TOL, ENDPOINT_PULL,
                         FIXED_REALNESS_TOL, MARGINAL_TOL, SPLIT_ENDPOINT_TOL, SPLIT_TOL)


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
_CROSS_CHECK_TOL = np.r_[np.full(len(_SAMPLE_NODES), SPLIT_TOL), [SPLIT_ENDPOINT_TOL] * 2]


def _cross_check_targets(lo, hi, scale):
    """The all-real cross-check targets of intervals [lo, hi] with lo < hi.

    lo, hi and scale are floats or arrays of one shape; the targets have
    that shape plus a last axis of 66: 64 Chebyshev samples of [lo, hi],
    then lo and hi pulled in by ENDPOINT_PULL * scale.  An infinite end
    stays infinite and is sampled as if it lay 10 (1 + |other end|) away
    (0 stands in for an infinite other end).  _CROSS_CHECK_TOL holds the
    tolerances.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    end = np.where(np.isfinite(hi), hi, 0.0)
    a = np.where(np.isfinite(lo), lo, end - 10.0 * (1.0 + np.abs(end)))
    b = np.where(np.isfinite(hi), hi, a + 10.0 * (1.0 + np.abs(a)))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pull = ENDPOINT_PULL * scale
    return np.concatenate([mid[..., None] + half[..., None] * _SAMPLE_NODES,
                           (lo + pull)[..., None], (hi - pull)[..., None]], axis=-1)


def _critical_points(q):
    """Real critical points (x, kind) of q in ascending order, or None.

    kind is +1 at a local minimum, -1 at a local maximum and 0 at a
    multiple critical point (a root of q' of multiplicity >= 2).  None
    means some critical point is nonreal.
    """
    dq = q.derivative()
    crit, _ = real_roots_ex(dq, realness_tol=CRIT_REALNESS_TOL)
    after = sum(m for _, m in crit)
    if after < dq.degree:
        return None
    out = []
    # p' has the sign of its lead right of the last critical point and flips
    # at each root of odd multiplicity: right of x it has the sign of
    # lead * (-1)^after, with after the multiplicities right of x
    for x, m in crit:
        after -= m
        if m >= 2:
            kind = 0
        elif (q.lead > 0) == (after % 2 == 0):      # p' > 0 to the right: local min
            kind = 1
        else:                                       # local max
            kind = -1
        out.append((x, kind))
    return out


def _bounds(extremes):
    """[lo, hi] from (value, kind) pairs: lo is the largest value at a
    minimum, hi the smallest at a maximum, and a multiple critical point
    pins both (a repeated root of p' must be a root of p - t whenever p - t
    splits)."""
    lo, hi = -math.inf, math.inf
    for v, kind in extremes:
        if kind >= 0:
            lo = max(lo, v)
        if kind <= 0:
            hi = min(hi, v)
    return lo, hi


_EMPTY = CriticalInterval(math.nan, math.nan, empty=True)


def _fix_interval(lo, hi):
    """(interval, targets): the CriticalInterval [lo, hi] before its cross-check.

    Past lo > hi + ENDPOINT_PULL * scale it is _EMPTY; narrower than twice
    the pull (or lo > hi), the pulled-in ends would cross, and it is the
    point at its midpoint.  targets is None for those; for any other
    interval it is the finite ones of the 66 targets of
    _cross_check_targets, with their indices among the 66.
    """
    scale = 1.0 + max((abs(v) for v in (lo, hi) if math.isfinite(v)), default=0.0)
    if lo > hi + ENDPOINT_PULL * scale:
        return _EMPTY, None
    if lo > hi - 2 * ENDPOINT_PULL * scale:
        lo = hi = 0.5 * (lo + hi)
    if not lo < hi:
        return CriticalInterval(lo, hi), None
    ts = _cross_check_targets(lo, hi, scale)
    index = np.flatnonzero(np.isfinite(ts))
    return CriticalInterval(lo, hi), (ts[index], index)


def _cross_check(q, interval, targets, within=None):
    """The cross-check of (interval, targets) from _fix_interval, as a
    (rows, judge) pair for _solve_together.

    p - t must split over R at each target t, to that target's realness
    tolerance in _CROSS_CHECK_TOL (with every root in within = (lo, hi),
    when that is given); the first target where it does not raises
    CriticalIntervalError.  The rows are the p - t, except where no solve is
    needed: with no targets, and at degree 3 and below with no within, where
    judge takes the discriminant's sign (all_real_shifted).  There the rows
    are shifted_rows(q, []), shape (0, d + 1).
    """
    if targets is None:
        return shifted_rows(q, []), lambda _: interval
    ts, index = targets
    tol = _CROSS_CHECK_TOL[index]

    def splits(z):
        ok = near_axis(z, tol[:, None])
        if within is not None:
            ok &= _locate(z.real, *within)[0]
        return ok.all(axis=1)

    def judged(ok):
        failed = np.flatnonzero(~ok)
        if failed.size:
            lo, hi = interval.lo, interval.hi
            end = index[failed[0]] - len(_SAMPLE_NODES)
            raise CriticalIntervalError(
                f"fast-path endpoint {(lo, hi)[end]} fails the all-real oracle" if end >= 0
                else f"fast-path interval [{lo}, {hi}] fails the all-real oracle at "
                     f"t={float(ts[failed[0]])}; the all-real set may be disconnected")
        return interval

    if q.degree > 3 or within is not None:
        return shifted_rows(q, ts), lambda z: judged(splits(z))
    return shifted_rows(q, []), lambda _: judged(all_real_shifted(q, ts, tol=tol))


def _solve_together(groups):
    """What the judge of each (rows, judge) group makes of its rows' roots.

    The rows of every group, all of one degree, are solved in one
    roots_batch call (none when there are no rows), and a row gets the
    roots it would get alone, so each judge sees what a solve of its own
    rows would give.  The judges run in order.  A stalled solve raises its
    RootFindingError, which names the rows of the whole call.
    """
    C = np.concatenate([rows for rows, _ in groups])
    z = roots_batch(C) if len(C) else C
    out, at = [], 0
    for rows, judge in groups:
        out.append(judge(z[at:at + len(rows)]))
        at += len(rows)
    return out


def _interval_targets(q):
    """critical_interval(q) before its cross-check: (interval, targets)."""
    crit = _critical_points(q)
    if crit is None:
        # nonreal critical point: p - t can never split over R
        return _EMPTY, None
    return _fix_interval(*_bounds((q(x), kind) for x, kind in crit))


def critical_interval(p: Polynomial) -> CriticalInterval:
    """Closure of {t : p - t has deg(p) real roots with multiplicity}.

    Fast path from critical values: the interval is bounded below by values
    at local minima, above by values at local maxima, and pinned to p(w) at
    any multiple critical point.  The result is cross-checked against the
    all-real predicate in one call over 64 interior samples and the finite
    endpoints, pulled slightly inward.
    """
    q = p.to_float()
    if q.degree < 2:
        raise ValueError("degree >= 2 required")
    return _solve_together([_cross_check(q, *_interval_targets(q))])[0]


def square_critical_interval(p: Polynomial) -> CriticalInterval:
    """critical_interval of p o p for p of odd degree with a negative lead.

    p o p is never expanded.  With g = p o p, g - t splits iff p - t splits
    with every root in I_p = [lo, hi], p's critical interval, so g has real
    critical points only if crit(p) lies in I_p.  Then p decreases left of
    its least critical point and right of its greatest, both in I_p: the
    least root of p - t is >= lo iff t <= p(lo), the greatest is <= hi iff
    t >= p(hi), and I_g = [max(lo, p(hi)), min(hi, p(lo))].  Where p(c) is
    a critical point for some critical point c (or c is multiple), c is a
    multiple critical point of g and its value p(p(c)) pins both ends.

    The cross-check of I_g solves p - t, one degree-d row per target, and
    asks that it split with every root in I_p; I_p is cross-checked as in
    critical_interval.  Above degree 3 the rows of both cross-checks are
    solved in one call: the targets of I_g follow from I_p before its
    cross-check, and join only when crit(p) lies in I_p.
    """
    q = p.to_float()
    if q.degree < 3 or q.degree % 2 == 0 or q.lead > 0:
        raise ValueError("odd degree >= 3 with negative lead required")
    crit = _critical_points(q)
    if crit is None:
        return _EMPTY
    values = [(q(x), kind) for x, kind in crit]
    outer, targets = _fix_interval(*_bounds(values))
    checks = [_cross_check(q, outer, targets)]
    # a critical point outside I_p has nonreal preimages
    if not outer.empty and all(outer.contains(x) for x, _ in crit):
        lo, hi = outer.lo, outer.hi
        pins = [(q(v), 0) for v, kind in values
                if kind == 0 or any(abs(v - c) <= CLUSTER_TOL * (1.0 + abs(v)) for c, _ in crit)]
        inner = _fix_interval(*_bounds([(lo, 1), (q(hi), 1), (hi, -1), (q(lo), -1)] + pins))
        checks.append(_cross_check(q, *inner, within=(lo, hi)))
    intervals = _solve_together(checks)
    return intervals[1] if len(intervals) > 1 else _EMPTY


def classify_real_julia(p: Polynomial) -> ClassificationReport:
    """Dispatch on (degree parity, lead sign) and test the containments.

    The odd-negative branch decides on p o p, which has odd degree and a
    positive lead, without expanding it: its critical interval is p's
    critical interval [lo, hi] cut to [p(hi), p(lo)]
    (square_critical_interval), and its real fixed points (those of p and
    its real 2-cycles) come from TwoCycles.
    """
    q = p.to_float()
    if q.degree < 2:
        raise ValueError("degree >= 2 required")
    odd = q.degree % 2 == 1
    positive = q.lead > 0
    branch = f"{'odd' if odd else 'even'}-{'positive' if positive else 'negative'}"
    if odd and not positive:
        interval = square_critical_interval(q)
        fps, marginal = real_roots_ex(TwoCycles(q), realness_tol=FIXED_REALNESS_TOL)
    else:
        # critical_interval and the real fixed points, the row p - X solved
        # in the cross-check's call
        fixed = q - Polynomial([0.0, 1.0])
        interval, (fps, marginal) = _solve_together([
            _cross_check(q, *_interval_targets(q)),
            (shifted_rows(fixed, [0.0]),
             lambda z: real_roots_ex(fixed, FIXED_REALNESS_TOL, solved=z[0]))])
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
    pre, pre_marginal = real_roots_ex(q - Polynomial([end]), realness_tol=FIXED_REALNESS_TOL)
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
    crit, crit_clear = real_roots_batch(C[:, 1:] * np.arange(1, d + 1), CRIT_REALNESS_TOL)
    fixed, fixed_clear = real_roots_batch(C - np.eye(1, d + 1, 1), FIXED_REALNESS_TOL)
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
    empty[split] = lo[split] > hi[split] + 10 * ENDPOINT_PULL * scale[split]
    bounded = split & (lo < hi - 10 * ENDPOINT_PULL * scale)
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
