import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliareal import classifier, roots
from juliareal.classifier import (CriticalInterval, CriticalIntervalError, classify_real_julia,
                                  critical_interval, square_critical_interval)
from juliareal.poly import AffineMap, Polynomial, conjugate
from juliareal.roots import (TwoCycles, all_real_shifted, near_axis, real_roots_ex,
                             roots_shifted)
from juliareal.tolerances import CLUSTER_TOL, FIXED_REALNESS_TOL


def P(*coeffs):
    return Polynomial(list(coeffs))


class TestCriticalInterval:
    def test_quadratic_half_line(self):
        iv = critical_interval(P(-2.0, 0.0, 1.0))
        assert iv.lo == -2.0 and iv.hi == math.inf

    def test_negative_lead_quadratic(self):
        iv = critical_interval(P(0.0, 0.0, -1.0))
        assert iv.lo == -math.inf and iv.hi == 0.0

    def test_chebyshev_cubic(self):
        iv = critical_interval(P(0.0, -3.0, 0.0, 1.0))
        assert abs(iv.lo + 2) < 1e-9 and abs(iv.hi - 2) < 1e-9

    def test_nonreal_critical_points_empty(self):
        iv = critical_interval(P(0.0, 1.0, 0.0, 1.0))    # x^3 + x
        assert iv.empty

    def test_multiple_critical_point_pins(self):
        iv = critical_interval(P(0.0, 0.0, 0.0, 0.0, 1.0))   # x^4
        assert iv.lo == iv.hi == 0.0

    def test_incompatible_extrema_empty(self):
        # I(f^2) for f = -x^3 + 2x: min of local maxima sits below max of
        # local minima, so no shift has nine real preimages
        f = P(0.0, 2.0, 0.0, -1.0)
        iv = critical_interval(f.iterate(2))
        assert iv.empty

    def test_membership_oracle_agreement(self):
        rng = np.random.default_rng(21)
        from juliareal.roots import all_roots_real
        for _ in range(25):
            c = rng.uniform(-2, 2, rng.integers(3, 6))
            if abs(c[-1]) < 0.3:
                c[-1] = 1.0
            p = Polynomial(list(c))
            iv = critical_interval(p)
            for t in rng.uniform(-3, 3, 8):
                truth = all_roots_real(p - Polynomial([float(t)]))
                if iv.empty:
                    assert not truth
                elif iv.lo + 1e-7 < t < iv.hi - 1e-7:
                    assert truth
                elif t < iv.lo - 1e-7 or t > iv.hi + 1e-7:
                    assert not truth


class TestFixedPoints:
    def test_chebyshev_square_fixed_points(self):
        # fixed points of f o f for f = -x^3 + 3x, from nested evaluation
        f = P(0.0, 3.0, 0.0, -1.0)
        fps, _ = real_roots_ex(TwoCycles(f), realness_tol=1e-6)
        xs = sorted(x for x, _ in fps)
        golden = sorted([0.0, 2.0, -2.0, math.sqrt(2), -math.sqrt(2),
                         (1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2,
                         (-1 + math.sqrt(5)) / 2, (-1 - math.sqrt(5)) / 2])
        assert np.allclose(xs, golden, atol=1e-6)

    def test_triple_roots_listed_once(self):
        # f'(+-1) = -1 for f = -x^3 + 2x, so f o f - x has triple roots there
        rep = classify_real_julia(P(0.0, 2.0, 0.0, -1.0))
        golden = [-math.sqrt(3), -1.0, 0.0, 1.0, math.sqrt(3)]
        assert len(rep.fixed_points) == len(golden)
        assert np.allclose(rep.fixed_points, golden, rtol=0, atol=1e-9)
        assert rep.marginal

    def test_two_cycles_match_expansion(self):
        f = P(0.3, 2.0, 0.1, -1.2)
        g = TwoCycles(f)
        expanded = f.iterate(2) - P(0.0, 1.0)
        x = 0.7 + 0.2j
        for _ in range(5):
            assert abs(g(x) - expanded(x)) <= 1e-12 * (1 + abs(expanded(x)))
            g, expanded = g.derivative(), expanded.derivative()


class TestQuadraticLaw:
    def test_threshold(self):
        # real Julia set exactly for c <= -2, boundary included
        for c, expect in [(-3.0, True), (-2.5, True), (-2.0, True),
                          (-1.99, False), (-1.0, False), (0.0, False),
                          (0.5, False)]:
            rep = classify_real_julia(P(c, 0.0, 1.0))
            assert rep.julia_real is expect, c

    def test_boundary_is_marginal(self):
        rep = classify_real_julia(P(-2.0, 0.0, 1.0))
        assert rep.julia_real and rep.marginal

    def test_no_real_fixed_point_branch(self):
        rep = classify_real_julia(P(1.0, 0.0, 1.0))
        assert not rep.julia_real
        assert rep.reason == "no real fixed point"


class TestCubicExamples:
    def test_negative_chebyshev_real(self):
        rep = classify_real_julia(P(0.0, 3.0, 0.0, -1.0))
        assert rep.julia_real
        assert rep.branch == "odd-negative"
        assert abs(rep.interval.lo + 2) < 1e-9
        assert abs(rep.interval.hi - 2) < 1e-9

    def test_weakened_coefficient_not_real(self):
        rep = classify_real_julia(P(0.0, 2.0, 0.0, -1.0))
        assert not rep.julia_real
        assert rep.interval.empty
        assert abs(abs(rep.witness) - math.sqrt(3)) < 1e-9

    def test_odd_positive_cubic(self):
        rep = classify_real_julia(P(0.0, -1.0, 0.0, 1.0))    # x^3 - x
        assert not rep.julia_real
        bound = 2 / (3 * math.sqrt(3))
        assert abs(rep.interval.lo + bound) < 1e-9
        assert abs(rep.interval.hi - bound) < 1e-9
        assert abs(abs(rep.witness) - math.sqrt(2)) < 1e-9

    def test_strong_odd_positive_cubic(self):
        rep = classify_real_julia(P(0.0, -4.0, 0.0, 1.0))    # x^3 - 4x
        # fixed points 0, +-sqrt(5); I(f) endpoints +-16/(3 sqrt 3) ~ 3.08
        assert rep.julia_real


class TestEvenNegative:
    def test_mirrored_quadratic(self):
        # -x^2 + c is conjugate to x^2 - c by x -> -x
        for c, expect in [(2.0, True), (1.0, False)]:
            rep = classify_real_julia(P(c, 0.0, -1.0))
            assert rep.branch == "even-negative"
            assert rep.julia_real is expect, c


class TestConjugationInvariance:
    def test_verdict_invariant(self):
        rng = np.random.default_rng(17)
        bases = [P(-2.5, 0.0, 1.0), P(-1.0, 0.0, 1.0),
                 P(0.0, 3.0, 0.0, -1.0), P(0.0, -1.0, 0.0, 1.0),
                 P(0.0, -4.0, 0.0, 1.0)]
        for p in bases:
            want = classify_real_julia(p).julia_real
            for _ in range(6):
                scale = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
                phi = AffineMap(scale, rng.uniform(-1.0, 1.0))
                rep = classify_real_julia(conjugate(p, phi))
                assert rep.julia_real is want

    def test_interval_transforms(self):
        p = P(0.0, 3.0, 0.0, -1.0)
        phi = AffineMap(2.0, 1.0)
        rep = classify_real_julia(conjugate(p, phi))
        # I transforms through phi on the value axis (positive scale)
        assert abs(rep.interval.lo - phi(-2.0)) < 1e-6
        assert abs(rep.interval.hi - phi(2.0)) < 1e-6


def chebyshev(d):
    """Coefficients of 2 T_d(x/2): P0 = 2, P1 = x, P(n+1) = x Pn - P(n-1)."""
    prev, cur = [2.0], [0.0, 1.0]
    for _ in range(d - 1):
        nxt = [0.0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


class TestOddNegative:
    """f o f is decided from degree-d solves of f and nested evaluation."""

    def test_fixed_faulty_conjugate(self):
        # -s 2T_5(x/2), s = 2.1959, conjugated by x -> 0.52 x + 0.95: the
        # monomial expansion of f o f gave julia_real=False here
        f = P(-0.1640145477184376, -23.699426895131577, 142.59479902344336,
              -231.07067881639261, 142.7766240101416, -30.01534793573532)
        rep = classify_real_julia(f)
        assert rep.branch == "odd-negative"
        assert rep.julia_real

    @pytest.mark.parametrize("d", [3, 5])
    def test_conjugates_follow_the_law(self, d):
        # -s 2T_d(x/2) under a real affine conjugation has a real Julia set
        # iff |s| >= 1
        rng = np.random.default_rng(700 + d)
        base = chebyshev(d)
        for k in range(24):
            real = k % 2 == 0
            s = rng.uniform(1.25, 2.5) if real else rng.uniform(0.3, 0.8)
            phi = AffineMap(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(-0.7, 0.7)),
                            rng.uniform(-1.5, 1.5))
            rep = classify_real_julia(conjugate(P(*(-s * c for c in base)), phi))
            assert rep.branch == "odd-negative"
            assert rep.julia_real is real, (d, s, phi)

    def test_square_interval_matches_expansion(self):
        rng = np.random.default_rng(27)
        random_cubics = [P(rng.uniform(-1, 1), rng.uniform(1, 4), rng.uniform(-0.5, 0.5),
                           -rng.uniform(0.5, 1.5)) for _ in range(20)]
        for f in (P(0.0, 3.0, 0.0, -1.0), P(0.5, 3.2, -0.1, -1.0),
                  P(0.0, 2.0, 0.0, -1.0), *random_cubics):
            iv, ref = square_critical_interval(f), critical_interval(f.iterate(2))
            assert iv.empty == ref.empty
            if not iv.empty:
                assert abs(iv.lo - ref.lo) < 1e-9 and abs(iv.hi - ref.hi) < 1e-9

    def test_fixed_critical_point_pins_the_interval(self, monkeypatch):
        # f fixes its critical point -a, so -a is a multiple critical point
        # of f o f and I(f o f) is the point f(-a) = -a.  The expansion's
        # own interval fails its cross-check here, so the bits are pinned
        f = P(4.282787606852868, 6.030922632826312, 0.0, -1.0)
        iv = square_critical_interval(f)
        assert (iv.empty, iv.lo, iv.hi) == (False, -1.4178541462261443, -1.4178541462261443)
        rep = classify_real_julia(f)
        assert rep.julia_real is False
        assert rep.reason == "fixed point outside critical interval"
        # without the pin the closed form leaves a sliver narrower than
        # twice the endpoint pull, which collapses to its midpoint
        monkeypatch.setattr(classifier, "CLUSTER_TOL", 0.0)
        iv = square_critical_interval(f)
        assert (iv.empty, iv.lo, iv.hi) == (False, -1.417854146228271, -1.417854146228271)
        rep = classify_real_julia(f)
        assert rep.julia_real is False
        assert rep.reason == "fixed point outside critical interval"

    def test_sliver_interval_collapses_to_a_point(self):
        # the least critical value misses the critical point by 1.2e-6
        # relative, so nothing pins I(f o f) = [lo, f(lo)], 6.3e-11 wide:
        # narrower than twice the endpoint pull, it is its midpoint
        f = P(9.73459715853076, 9.644048224833158, 0.0, -1.0)
        iv = square_critical_interval(f)
        assert not iv.empty and iv.lo == iv.hi
        rep = classify_real_julia(f)
        assert rep.julia_real is False
        assert rep.reason == "fixed point outside critical interval"

    def test_square_cross_check_keeps_roots_within_the_outer_interval(self):
        # -0.99 2T_5(x/2): I(f o f) = [p(hi), p(lo)] is cut from I_f = [lo, hi],
        # so at its pulled-in ends the extreme roots of p - t lie just inside
        # I_f.  Every target splits over R, and only the within condition
        # fails the cross-check when I_f shrinks by 1e-6 of its width
        q = P(*(-0.99 * c for c in chebyshev(5)))
        outer, inner = critical_interval(q), square_critical_interval(q)
        assert outer.lo < inner.lo < inner.hi < outer.hi
        interval, targets = classifier._fix_interval(inner.lo, inner.hi)
        check = lambda lo, hi: classifier._solve_together(
            [classifier._cross_check(q, interval, targets, within=(lo, hi))])
        assert check(outer.lo, outer.hi) == [inner]
        shrink = 1e-6 * (outer.hi - outer.lo)
        # the least root leaves [lo + shrink, hi] at t = p(lo), the greatest
        # leaves [lo, hi - shrink] at t = p(hi)
        with pytest.raises(CriticalIntervalError, match=re.escape(f"endpoint {inner.hi} fails")):
            check(outer.lo + shrink, outer.hi)
        with pytest.raises(CriticalIntervalError, match=re.escape(f"endpoint {inner.lo} fails")):
            check(outer.lo, outer.hi - shrink)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([3, 5]), st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           st.floats(0.2, 2.5))
    def test_odd_maps_fixing_zero_classify(self, d, coeffs, s):
        # f(0) = 0 is a fixed point of f o f, found as a tiny z whose residual
        # the solve of f o f - X must accept
        rep = classify_real_julia(P(0.0, *coeffs[:d - 1], -s))
        assert rep.branch == "odd-negative"

    @pytest.mark.parametrize("f", [P(0.0, 3.0, 0.0, -0.5, 0.0, 0.1),    # positive lead
                                   P(-2.0, 0.0, -1.0),                 # even degree
                                   P(0.0, 3.0, 0.0, 0.0, -1.0)])
    def test_square_interval_needs_odd_negative(self, f):
        with pytest.raises(ValueError):
            square_critical_interval(f)


def checked_interval(lo, hi, splits):
    """The CriticalInterval [lo, hi] cross-checked by splits(ts, tol), which
    makes its own solve: whether p - t splits at each target t, to that
    target's realness tolerance.  Empty past lo > hi + the pull, the point
    at the midpoint when the pulled-in ends would cross, and otherwise
    checked over the finite ones of the 66 targets of _cross_check_targets,
    with the first failure raising as critical_interval does."""
    scale = 1.0 + max((abs(v) for v in (lo, hi) if math.isfinite(v)), default=0.0)
    pull = classifier.ENDPOINT_PULL
    if lo > hi + pull * scale:
        return classifier._EMPTY
    if lo > hi - 2 * pull * scale:
        lo = hi = 0.5 * (lo + hi)
    if lo < hi:
        ts = classifier._cross_check_targets(lo, hi, scale)
        finite = np.flatnonzero(np.isfinite(ts))
        failed = finite[~splits(ts[finite], classifier._CROSS_CHECK_TOL[finite])]
        if failed.size:
            end = failed[0] - len(classifier._SAMPLE_NODES)
            raise CriticalIntervalError(
                f"fast-path endpoint {(lo, hi)[end]} fails the all-real oracle" if end >= 0
                else f"fast-path interval [{lo}, {hi}] fails the all-real oracle at "
                     f"t={float(ts[failed[0]])}; the all-real set may be disconnected")
    return CriticalInterval(lo, hi)


def separate_interval(p):
    """critical_interval(p), or square_critical_interval(p) for an odd degree
    with a negative lead, with each cross-check solved by itself: I_p by
    all_real_shifted, I(p o p) by roots_shifted and _locate in I_p."""
    q = p.to_float()
    crit = classifier._critical_points(q)
    if crit is None:
        return classifier._EMPTY
    values = [(q(x), kind) for x, kind in crit]
    outer = checked_interval(*classifier._bounds(values),
                             lambda ts, tol: all_real_shifted(q, ts, tol=tol))
    if q.degree % 2 == 0 or q.lead > 0:
        return outer
    if outer.empty or not all(outer.contains(x) for x, _ in crit):
        return classifier._EMPTY
    lo, hi = outer.lo, outer.hi
    pins = [(q(v), 0) for v, kind in values
            if kind == 0 or any(abs(v - c) <= CLUSTER_TOL * (1.0 + abs(v)) for c, _ in crit)]

    def splits(ts, tol):
        z = roots_shifted(q, ts)
        return (near_axis(z, tol[:, None]) & classifier._locate(z.real, lo, hi)[0]).all(axis=1)

    return checked_interval(*classifier._bounds([(lo, 1), (q(hi), 1), (hi, -1), (q(lo), -1)]
                                                + pins), splits)


def separate_report(p):
    """classify_real_julia's report fields with every solve made by itself:
    separate_interval, and the real roots of p - X or, for an odd degree with
    a negative lead, of TwoCycles; then, for an even degree, p minus its
    extreme fixed point."""
    q = p.to_float()
    odd, positive = q.degree % 2 == 1, q.lead > 0
    interval = separate_interval(q)
    if odd and not positive:
        fps, marginal = real_roots_ex(TwoCycles(q), realness_tol=FIXED_REALNESS_TOL)
    else:
        fps, marginal = real_roots_ex(q - Polynomial([0.0, 1.0]),
                                      realness_tol=FIXED_REALNESS_TOL)
    points = [x for x, _ in fps]
    out = {"fixed_points": points, "interval": interval.to_json(), "test_interval": None,
           "julia_real": False, "witness": None}
    if odd:
        xs, empty_witness = points, max(points, default=None)
        reasons = ("fixed point outside critical interval",
                   "all fixed points inside critical interval")
    elif not points:
        return {**out, "marginal": marginal, "reason": "no real fixed point"}
    else:
        end = max(points) if positive else min(points)
        pre, pre_marginal = real_roots_ex(q - Polynomial([end]), realness_tol=FIXED_REALNESS_TOL)
        real_pre = [x for x, _ in pre] or [end]
        xs = (min(real_pre), end) if positive else (end, max(real_pre))
        out["test_interval"], empty_witness = xs, xs[0]
        marginal = marginal or pre_marginal
        reasons = ("test interval escapes critical interval", "test interval inside critical interval")
    if interval.empty:
        return {**out, "marginal": marginal, "reason": "empty critical interval",
                "witness": empty_witness}
    for x in xs:
        if not interval.contains(x):
            return {**out, "marginal": marginal, "reason": reasons[0], "witness": x}
        marginal = marginal or interval.near_boundary(x)
    return {**out, "marginal": marginal, "reason": reasons[1], "julia_real": True}


def report_fields(p):
    """separate_report's fields of classify_real_julia(p)."""
    rep = classify_real_julia(p)
    return {"fixed_points": rep.fixed_points, "interval": rep.interval.to_json(),
            "test_interval": rep.test_interval, "julia_real": rep.julia_real,
            "witness": rep.witness, "marginal": rep.marginal, "reason": rep.reason}


def public_interval(p):
    """critical_interval(p), or square_critical_interval(p) for an odd degree
    with a negative lead, as JSON."""
    odd_negative = p.degree % 2 == 1 and p.lead < 0
    return (square_critical_interval if odd_negative else critical_interval)(p).to_json()


def separate_interval_json(p):
    return separate_interval(p).to_json()


def outcome(build, p):
    try:
        return build(p)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


class TestSharedSolve:
    """classify_real_julia solves the fixed-point row p - X with the
    cross-check's rows, and the odd-negative branch both cross-checks, in one
    roots_batch call; each row gets the roots it would get alone.  The
    reference, separate_report, solves each cross-check by itself."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(4, 6), st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7),
           st.floats(0.05, 3.0), st.sampled_from([-1.0, 1.0]))
    def test_random_maps_match_separate_solves(self, d, coeffs, lead, sign):
        p = P(*coeffs[:d], sign * lead)
        assert outcome(report_fields, p) == outcome(separate_report, p)
        assert outcome(public_interval, p) == outcome(separate_interval_json, p)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(4, 6), st.sampled_from([-1.0, 1.0]), st.floats(0.3, 2.5),
           st.floats(-0.7, 0.7), st.sampled_from([-1.0, 1.0]), st.floats(-1.5, 1.5))
    def test_chebyshev_conjugates_match_separate_solves(self, d, sign, s, log_scale,
                                                         flip, shift):
        # +-s 2T_d(x/2) conjugated by x -> u x + v: all four branches, the
        # odd-negative quintics included, with real and nonreal Julia sets
        phi = AffineMap(flip * math.exp(log_scale), shift)
        p = conjugate(P(*(sign * s * c for c in chebyshev(d))), phi)
        assert outcome(report_fields, p) == outcome(separate_report, p)
        assert outcome(public_interval, p) == outcome(separate_interval_json, p)

    @pytest.mark.parametrize("sign, s, d, rows", [
        # p', then p - t at the 66 targets with p - X, then p minus the
        # extreme fixed point
        (1.0, 2.0, 4, [1, 67, 1]),
        (-1.0, 2.0, 6, [1, 67, 1]),
        (1.0, 2.0, 5, [1, 67]),
        # p', both cross-checks of 66 targets each, then f(f(X)) - X
        (-1.0, 2.2, 5, [1, 132, 1]),
        # crit(p) outside I_p: the cross-check of I_g never joins
        (-1.0, 0.6, 5, [1, 66, 1]),
        # degree 3: discriminants, and each closed-form solve by itself
        (1.0, 2.0, 3, [1, 1]),
        (-1.0, 2.0, 3, [1, 66, 1]),
    ])
    def test_roots_batch_calls(self, monkeypatch, sign, s, d, rows):
        calls = []
        solve = roots.roots_batch
        counted = lambda C, *a, **k: calls.append(len(C)) or solve(C, *a, **k)
        for module in (roots, classifier):
            monkeypatch.setattr(module, "roots_batch", counted)
        rep = classify_real_julia(P(*(sign * s * c for c in chebyshev(d))))
        assert rep.julia_real is (s > 1)
        assert calls == rows

    def test_failed_shared_solve_raises_its_own_error(self, monkeypatch):
        # with a low iteration cap the shared solve stalls and raises its own
        # RootFindingError, which names the rows of the shared call; where
        # the separate solves succeed, so does the shared one, with the same
        # report
        monkeypatch.setattr(roots, "_ABERTH_MAX_ITER", 12)
        rng = np.random.default_rng(38)
        raised = 0
        for k in range(40):
            d = 4 + k % 3
            sign = -1.0 if d == 5 else rng.choice([-1.0, 1.0])
            phi = AffineMap(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(-0.7, 0.7)),
                            rng.uniform(-1.5, 1.5))
            p = conjugate(P(*(sign * rng.uniform(0.3, 2.5) * c for c in chebyshev(d))), phi)
            got, separate = outcome(report_fields, p), outcome(separate_report, p)
            if isinstance(separate, tuple):
                assert isinstance(got, tuple) and got[0] is separate[0], (got, separate)
                raised += 1
            else:
                assert got == separate
        assert raised >= 10

    def test_failed_cross_checks_raise_as_separate_solves(self, monkeypatch):
        # pushed out past the interval's ends, the endpoint targets fail the
        # all-real check (or, for I(f o f), have a root outside I_f): the
        # error names the first failed target, as the separate check does,
        # in every branch from degree 2
        monkeypatch.setattr(classifier, "ENDPOINT_PULL", -1e-4)
        rng = np.random.default_rng(39)
        raised = {}
        for k in range(60):
            d, sign = 2 + k % 5, rng.choice([-1.0, 1.0])
            phi = AffineMap(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(-0.7, 0.7)),
                            rng.uniform(-1.5, 1.5))
            p = conjugate(P(*(sign * rng.uniform(1.1, 2.5) * c for c in chebyshev(d))), phi)
            got = outcome(report_fields, p)
            assert got == outcome(separate_report, p)
            assert outcome(public_interval, p) == outcome(separate_interval_json, p)
            if isinstance(got, tuple):
                raised[d % 2, sign] = raised.get((d % 2, sign), 0) + 1
        assert len(raised) == 4 and min(raised.values()) >= 5, raised


class TestDegreeGuards:
    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            classify_real_julia(P(1.0, 2.0))
        with pytest.raises(ValueError):
            critical_interval(P(1.0, 2.0))
