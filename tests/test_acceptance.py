"""Acceptance gate: the twelve headline criteria, one pass/fail line each.

Run under pytest (use -s to see the per-criterion lines) or directly:

    python tests/test_acceptance.py
"""

import functools
import math
import time
import traceback
from fractions import Fraction

import numpy as np
import pytest

from juliareal.classifier import CriticalIntervalError, classify_real_julia
from juliareal.cubic_region import b_zero, region_bound, region_scan
from juliareal.heights import canonical_height, functional_equation_residual
from juliareal.lattes import (INFINITY, RationalMap, SingularCurveError,
                              WeierstrassCurve, certify_nonabelian,
                              duplication_lattes, lattes_critical_points,
                              real_surjectivity)
from juliareal.orbit import (EmpiricalMeasure, ExceptionalPointError,
                             backward_orbit, check_non_exceptional,
                             empirical_cdf_distance, max_imag_stat,
                             orbit_status, render_filled_julia)
from juliareal.poly import Polynomial
from reference_oracles import check_commutation

_CRITERIA = []


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except Exception:
                print(f"[criterion {num:2d}] {name}: FAIL")
                raise
            print(f"[criterion {num:2d}] {name}: PASS")
        _CRITERIA.append((num, name, wrapper))
        return wrapper
    return deco


def P(*coeffs):
    return Polynomial(list(coeffs))


@criterion(1, "quadratic law")
def test_criterion_01_quadratic_law():
    t0 = time.perf_counter()
    cs = np.arange(-300, 101) / 100.0
    for c in cs:
        verdict = classify_real_julia(P(float(c), 0.0, 1.0)).julia_real
        assert verdict == (c <= -2.0), f"c={c}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s"


@criterion(2, "worked cubic examples")
def test_criterion_02_cubic_examples():
    rep = classify_real_julia(P(0.0, 3.0, 0.0, -1.0))
    assert rep.julia_real
    assert abs(rep.interval.lo + 2.0) <= 1e-9
    assert abs(rep.interval.hi - 2.0) <= 1e-9

    rep = classify_real_julia(P(0.0, 2.0, 0.0, -1.0))
    assert not rep.julia_real
    assert abs(abs(rep.witness) - math.sqrt(3)) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the recorded endpoint value (44/27)sqrt(2/3) for I(f^2) of "
           "f = -X^3+2X contradicts the all-real-roots definition: direct "
           "root counting shows f^2 - t has at most 7 of 9 real roots for "
           "every t, so the interval is empty; the critical value actually "
           "attained at the pinning points is (88/81)sqrt(2/3), and no "
           "definition-consistent interval matches the quoted endpoints "
           "(the test's docstring gives the full analysis)")
def test_criterion_02_reference_endpoints():
    """The recorded endpoints of I(f^2) for f = -X^3 + 2X; expected to fail.

    The reference gives I(f^2) = [-(44/27)sqrt(2/3), (44/27)sqrt(2/3)],
    about [-1.3306, 1.3306].  The package defines I(g) as the closure of
    the t for which g - t has deg g real roots counted with multiplicity,
    and under that definition I(f^2) is empty:

    - f^2 = X^9 - 6X^7 + 12X^5 - 10X^3 + 4X has eight simple real critical
      points: +-sqrt(2/3), the critical points of f, where f^2 takes the
      values +-(88/81)sqrt(2/3) ~ +-0.8871; and the six preimages of
      +-sqrt(2/3) under f, where it takes +-(4/3)sqrt(2/3) ~ +-1.0887.
    - From the left, the local maxima of f^2 take the values 1.0887,
      -0.8871, 1.0887, 1.0887 and the local minima -1.0887, -1.0887,
      0.8871, -1.0887.  f^2 - t has nine real roots only if t lies at or
      below every local maximum and at or above every local minimum,
      that is 0.8871 <= t <= -0.8871: no t does.
    - Direct root counting agrees: for t on a grid over [-3, 3], at most
      7 of the 9 roots of f^2 - t are real.
    - (44/27)sqrt(2/3) is not a critical value of f^2, so no interval
      bounded by critical values, as the definition's intervals are,
      has the quoted endpoints.

    The verdict for f itself (not real, the check of criterion 2 above)
    does not depend on this.  The test stays a strict xfail so that a
    change that starts to reproduce the quoted endpoints is noticed.
    """
    rep = classify_real_julia(P(0.0, 2.0, 0.0, -1.0))
    endpoint = (44.0 / 27.0) * math.sqrt(2.0 / 3.0)
    try:
        assert not rep.interval.empty
        assert abs(rep.interval.lo + endpoint) <= 1e-9
        assert abs(rep.interval.hi - endpoint) <= 1e-9
    except AssertionError:
        print("[criterion  2] reference endpoints: FAIL (expected; see its docstring)")
        raise
    print("[criterion  2] reference endpoints: PASS")


@criterion(3, "cubic region scan")
def test_criterion_03_region_scan():
    t0 = time.perf_counter()
    summary = region_scan((-6.0, 1.0), (-4.0, 4.0), 0.05)
    elapsed = time.perf_counter() - t0
    assert summary.cells == 141 * 161
    for A, B, analytic, verdict, agree, dist in summary.rows:
        if dist > 2 * 0.05:
            assert agree, f"off-boundary disagreement at ({A},{B}), dist {dist}"
    assert summary.max_disagree_distance <= 2 * 0.05
    assert elapsed < 60.0, f"scan took {elapsed:.2f}s"


@criterion(4, "b_zero boundary identity")
def test_criterion_04_b_zero():
    for a in (1.0, 1.5, 2.0, 2.5, 3.0):
        A = -3.0 * a * a
        B0 = b_zero(a)
        rhs = region_bound(A)
        assert abs(B0 * B0 - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _arcsine_cdf(x):
    if x <= -2:
        return 0.0
    if x >= 2:
        return 1.0
    return 0.5 + math.asin(x / 2) / math.pi


@criterion(5, "equidistribution vs arcsine")
def test_criterion_05_equidistribution():
    cheb = P(-2.0, 0.0, 1.0)
    measures = {n: EmpiricalMeasure.from_orbit(backward_orbit(cheb, 1 / 3, n))
                for n in (10, 12, 14)}
    assert measures[14].cdf_distance(_arcsine_cdf) <= 0.02
    d1 = empirical_cdf_distance(measures[10], measures[12])
    d2 = empirical_cdf_distance(measures[12], measures[14])
    assert d2 <= d1 + 0.005, f"distances increased: {d1} -> {d2}"


@criterion(6, "non-real detector")
def test_criterion_06_max_imag():
    orb = backward_orbit(P(-1.0, 0.0, 1.0), 1 / 3, 2)
    stat = max_imag_stat(orb)
    assert stat > 0.39
    assert abs(stat - math.sqrt(math.sqrt(4 / 3) - 1)) <= 1e-6
    cheb = P(-2.0, 0.0, 1.0)
    for depth in range(1, 13):
        assert max_imag_stat(backward_orbit(cheb, 1 / 3, depth)) <= 1e-9


@criterion(7, "canonical heights")
def test_criterion_07_heights():
    sq = P(0, 0, 1)
    for n in range(1, 11):
        est, _ = canonical_height(sq, 2, n)
        assert est == math.log(2)

    rng = np.random.default_rng(2024)
    done = 0
    while done < 50:
        d = int(rng.integers(2, 4))
        coeffs = [int(v) for v in rng.integers(-4, 5, d)] + [1]
        p = Polynomial(coeffs)
        x = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
        n = 8 if d == 2 else 5
        assert functional_equation_residual(p, x, n) <= 1e-12
        done += 1

    for p, x in [(P(-2, 0, 1), Fraction(0)), (P(-2, 0, 1), Fraction(2)),
                 (P(-1, 0, 1), Fraction(-1))]:
        assert orbit_status(p, x).tag in ("periodic", "preperiodic")
        est, err = canonical_height(p, x, 12)
        assert est <= err


@criterion(8, "Lattes commutation")
def test_criterion_08_commutation():
    rng = np.random.default_rng(88)
    curves = []
    while len(curves) < 10:
        a, b, c = (int(v) for v in rng.integers(-3, 4, 3))
        try:
            curves.append(WeierstrassCurve(a, b, c))
        except SingularCurveError:
            continue
    for curve in curves:
        f = duplication_lattes(curve)
        ff = RationalMap(f.num.to_float(), f.den.to_float())
        Fp = curve.F.to_float()
        done = 0
        while done < 100:
            x0 = float(rng.uniform(-6, 6))
            if Fp(x0) <= 1e-6:
                continue
            val = ff(x0)
            if val is INFINITY or abs(float(val)) > 1e8:
                continue
            assert check_commutation(curve, x0) <= 1e-8 * (1 + abs(float(val)))
            done += 1


@criterion(9, "surjectivity dichotomy")
def test_criterion_09_surjectivity():
    neg = WeierstrassCurve(0, 0, -2)
    out = real_surjectivity(neg)
    assert out["surjective"]
    c1, c2 = lattes_critical_points(neg)
    assert c1 < 2.0 ** (1.0 / 3.0) < c2
    assert abs(out["witness"]["f_c1"] - out["witness"]["f_c2"]) <= 1e-8
    for a in (1, 2):
        out = real_surjectivity(WeierstrassCurve(0, -a * a, 0))
        assert not out["surjective"]
        lo, hi = out["witness"]["gap"]
        assert lo < 0 < hi


@criterion(10, "certificate logic")
def test_criterion_10_certificates():
    assert certify_nonabelian(P(0, -1, 0, 1), Fraction(1, 2)).certified
    neg = WeierstrassCurve(0, 0, -2)
    lat = certify_nonabelian(duplication_lattes(neg), Fraction(1, 3), curve=neg)
    assert lat.nonperiodic["tag"] != "undecided"   # orbit status resolves
    assert lat.certified
    assert not certify_nonabelian(P(-1, 0, 1), Fraction(1, 3)).certified
    assert not certify_nonabelian(P(-1, 0, 1), Fraction(0)).certified

    mutations = [
        (P(-1, 0, 1), Fraction(1, 3), "surjective"),
        (P(0, 3, 0, -1), Fraction(1, 3), "julia_nonreal"),
        (P(0, -1, 0, 1), Fraction(0), "nonperiodic"),
    ]
    for poly, alpha, check in mutations:
        # the named check alone fails, and it alone denies the certificate
        cert = certify_nonabelian(poly, alpha)
        assert not cert.certified
        checks = cert.to_json()["checks"]
        assert {name for name in checks if not checks[name]["pass"]} == {check}


@criterion(11, "classifier vs orbit oracle")
def test_criterion_11_oracle_cross_check():
    rng = np.random.default_rng(1111)
    mismatches = []
    done = 0
    while done < 200:
        d = int(rng.integers(2, 5))
        coeffs = rng.uniform(-3, 3, d + 1)
        if abs(coeffs[-1]) < 0.3:
            continue
        p = Polynomial([float(v) for v in coeffs])
        try:
            rep = classify_real_julia(p)
        except CriticalIntervalError:
            continue
        if rep.marginal:
            continue
        alpha = max(rep.fixed_points) if rep.fixed_points else 0.0
        try:
            check_non_exceptional(p, alpha)
        except ExceptionalPointError:
            continue
        orb = backward_orbit(p, alpha, 8, cap=4 ** 8)
        oracle_real = max_imag_stat(orb) <= 1e-6
        if oracle_real != rep.julia_real:
            mismatches.append((list(p.coeffs), alpha))
        done += 1
    assert mismatches == [], f"{len(mismatches)} mismatches: {mismatches[:3]}"


@criterion(12, "render sanity")
def test_criterion_12_render():
    grid = render_filled_julia(P(-2.0, 0.0, 1.0), (-2.5, 2.5, -1.0, 1.0),
                               (512, 205))
    rows = np.where((grid == 255).any(axis=1))[0]
    mid = (205 - 1) / 2
    assert rows.size > 0 and all(abs(r - mid) <= 1.0 for r in rows)

    grid = render_filled_julia(P(-1.0, 0.0, 1.0), (-2.0, 2.0, -1.0, 1.0),
                               (512, 257))
    ys, _ = np.where(grid == 255)
    assert ys.size > 0
    off_axis = np.abs(ys - (257 - 1) / 2) > 1.0
    assert off_axis.sum() >= 0.05 * ys.size


if __name__ == "__main__":
    failures = 0
    for num, name, fn in sorted(_CRITERIA):
        try:
            fn()
        except Exception:
            traceback.print_exc()
            failures += 1
    try:
        test_criterion_02_reference_endpoints()
    except AssertionError:
        pass
    raise SystemExit(1 if failures else 0)
