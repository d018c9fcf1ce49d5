import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliareal.lattes import (INFINITY, RationalMap, SingularCurveError,
                              WeierstrassCurve, certify_nonabelian,
                              duplication_lattes, lattes_critical_points,
                              rational_orbit_status, real_surjectivity)
from juliareal import classifier, lattes, orbit, poly, roots
from juliareal.cli import main
from juliareal.lattes import InvariantError, _bezout_constant
from juliareal.orbit import ExceptionalPointError, check_non_exceptional
from juliareal.poly import Polynomial, _PairMap
from juliareal.roots import complex_roots, real_roots_ex, real_root_count, rounded_real_roots
from reference_oracles import CurvePoint, check_commutation, double_point

GOLDEN = Path(__file__).resolve().parent / "data" / "lattes_golden.json"


def P(*coeffs):
    return Polynomial(list(coeffs))


E_NEG = WeierstrassCurve(0, 0, -2)        # y^2 = x^3 - 2, disc < 0
E_POS = WeierstrassCurve(0, -1, 0)        # y^2 = x^3 - x,  disc > 0

# curves on which the numeric torsion route met double roots
DOUBLE_TORSION = [(-6, 2, 0), (-4, -4, 0), (2, -6, -3), (5, 0, 6)]
# the curves of the box |a|, |b|, |c| <= 6 on which the two routes still
# disagreed after the cluster refinement stopped jumping between roots
NEAR_DOUBLE_TORSION = [
    (-6, -4, 3), (-6, 2, -3), (-6, 2, -2), (-6, 2, 2), (-5, -2, 4), (-5, -1, 0),
    (-4, 0, 5), (-4, 1, 0), (-3, -1, 6), (-3, 2, -6), (-3, 2, 6), (-2, -4, 3),
    (-2, -2, 0), (-2, 2, -4), (-1, -2, 0), (0, -6, 4), (4, -2, 0), (4, -2, 1),
    (5, 2, -1), (5, 5, 1), (6, -1, 4)]
# rational curves, both signs of disc
RATIONAL_CURVES = [
    (Fraction(1, 2), -3, Fraction(1, 4)), (Fraction(-7, 3), Fraction(1, 5), Fraction(2, 7)),
    (0, Fraction(-1, 4), 0), (Fraction(3, 2), Fraction(-1, 2), Fraction(-5, 9)),
    (Fraction(1, 3), 0, Fraction(-2, 5))]


def box_curves(box):
    """Every nonsingular integer curve with |a|, |b|, |c| <= box."""
    out = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            for c in range(-box, box + 1):
                try:
                    out.append(WeierstrassCurve(a, b, c))
                except SingularCurveError:
                    continue
    return out


def derivative_numerator(curve):
    """w = num' den - num den', the exact numerator of f'."""
    num, den = lattes._duplication_polys(curve)
    return num.derivative() * den - num * den.derivative()


def derivative_route(curve):
    """Oracle for the critical points: the float real roots of w."""
    return sorted(x for x, _ in real_roots_ex(derivative_numerator(curve).to_float())[0])


def assert_matches_derivative_route(curve, tol=1e-12):
    crit = lattes_critical_points(curve)
    oracle = derivative_route(curve)
    scale = 1.0 + max(abs(x) for x in oracle)
    assert len(crit) == len(oracle), curve
    assert all(abs(u - v) <= tol * scale for u, v in zip(crit, oracle)), (curve, crit, oracle)
    return crit


def numeric_torsion_route(curve):
    """Oracle for route 2: solve num - rho den for each real root rho of F."""
    num, den = (p.to_float() for p in lattes._duplication_polys(curve))
    out = []
    for rho, _ in real_roots_ex(curve.F.to_float())[0]:
        out.extend(x for x, _ in real_roots_ex(num - Polynomial([rho]) * den)[0])
    return sorted(out)


def probing_piece_ranges(num, den, crit, poles):
    """Oracle: the piece ranges as found before the closed forms, with a
    breakpoint within 1e-12 (relative) of a pole taken as that pole and the
    side of the pole read from the value 1e-7 (relative) beside it."""
    edges = [-math.inf] + sorted(crit + poles) + [math.inf]

    def value(x):
        n, d = num(x), den(x)
        return INFINITY if d == 0 else n / d

    def limit(x, side):
        if x == -math.inf:
            return -math.inf if num.degree > den.degree else None
        if x == math.inf:
            return math.inf if num.degree > den.degree else None
        near = min(poles, default=None, key=lambda p: abs(p - x))
        if near is not None and abs(near - x) <= 1e-12 * (1.0 + abs(x)):
            return math.copysign(math.inf, value(x + side * 1e-7 * (1.0 + abs(x))))
        return value(x)

    ranges = []
    for lo, hi in zip(edges, edges[1:]):
        a, b = limit(lo, +1.0), limit(hi, -1.0)
        ranges.append((min(a, b), max(a, b)))
    return ranges


def uncovered(ranges):
    """The gaps that the union of the ranges leaves in [-inf, +inf], a gap
    narrower than 1e-9 (1 + |its lower end|) counting as covered."""
    ranges = sorted(ranges)
    gaps = [] if ranges[0][0] == -math.inf else [(-math.inf, ranges[0][0])]
    covered_hi = ranges[0][1]
    for lo, hi in ranges[1:]:
        if lo > covered_hi + 1e-9 * (1.0 + abs(covered_hi)):
            gaps.append((covered_hi, lo))
        covered_hi = max(covered_hi, hi)
    return gaps if covered_hi == math.inf else gaps + [(covered_hi, math.inf)]


def euclid_bezout_constant(n_coeffs, d_coeffs):
    """Oracle for _bezout_constant: extended Euclid over Q[x], then the lcm
    of the denominators of u, v in u N + v D = 1."""
    a = Polynomial([Fraction(c) for c in n_coeffs])
    b = Polynomial([Fraction(c) for c in d_coeffs])
    r0, r1 = a, b
    s0, s1 = Polynomial([Fraction(1)]), Polynomial([Fraction(0)])
    t0, t1 = Polynomial([Fraction(0)]), Polynomial([Fraction(1)])
    while not r1.is_zero:
        q, rem = r0.divmod_exact(r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise ValueError("inputs share a common factor")
    g = r0.coeffs[0]
    u = [Fraction(c) / g for c in s0.coeffs]
    v = [Fraction(c) / g for c in t0.coeffs]
    L = math.lcm(*(c.denominator for c in u + v))
    U = Polynomial([int(c * L) for c in u])
    V = Polynomial([int(c * L) for c in v])
    assert U * a + V * b == Polynomial([L])
    return L, sum(abs(c) for c in U.coeffs) + sum(abs(c) for c in V.coeffs)


def nearest_floats(p):
    """Oracle for rounded roots: each real root of the exact square-free p as
    the float nearest it, by Sturm counts on Fraction intervals and exact
    bisection until the interval rounds to one float (float() of a Fraction
    rounds correctly, half to even)."""
    bound = 1 + max(abs(Fraction(c) / p.lead) for c in p.coeffs[:-1])
    out, stack = [], [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = real_root_count(p, lo, hi)
        if n == 0:
            continue
        if float(lo) == float(hi):
            out += [float(lo)] * n
        elif n == 1 and p(lo) * p(hi) < 0:
            while float(lo) != float(hi):
                mid = (lo + hi) / 2
                if p(mid) == 0:
                    lo = hi = mid
                elif (p(mid) > 0) == (p(lo) > 0):
                    lo = mid
                else:
                    hi = mid
            out.append(float(lo))
        else:
            mid, k = (lo + hi) / 2, 3
            while p(mid) == 0:
                # [lo, mid] and [mid, hi] would both count a root at mid
                mid, k = lo + (hi - lo) / k, k + 1
            stack += [(lo, mid), (mid, hi)]
    return sorted(out)


def close_pair_curve(eps, r=1, s=2):
    """F = (X - r)(X - s)(X - s - eps)."""
    t = s + eps
    return WeierstrassCurve(-(r + s + t), r * s + r * t + s * t, -r * s * t)


def count_float_solves(monkeypatch):
    """Every float solve goes through roots.roots_batch; count its calls."""
    calls = []
    solve = roots.roots_batch
    monkeypatch.setattr(roots, "roots_batch", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


def count_roundings(monkeypatch):
    """The degree of each polynomial lattes rounds the real roots of."""
    calls = []
    monkeypatch.setattr(lattes, "rounded_real_roots",
                        lambda p, xs, n: calls.append(p.degree) or rounded_real_roots(p, xs, n))
    return calls


def resultant_calls(monkeypatch):
    """The argument pairs of every sylvester_resultant call, through either
    binding: RationalMap's check calls lattes', the pair map poly's."""
    calls = []
    resultant = poly.sylvester_resultant
    counted = lambda a, b: calls.append((a, b)) or resultant(a, b)
    monkeypatch.setattr(poly, "sylvester_resultant", counted)
    monkeypatch.setattr(lattes, "sylvester_resultant", counted)
    return calls


def random_curves(rng, count):
    out = []
    while len(out) < count:
        a, b, c = (int(v) for v in rng.integers(-3, 4, 3))
        try:
            out.append(WeierstrassCurve(a, b, c))
        except SingularCurveError:
            continue
    return out


class TestCurve:
    def test_disc_values(self):
        assert E_NEG.disc == -108
        assert E_POS.disc == 4

    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(0, 0, 0)
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(0, -3, 2)       # (x-1)^2 (x+2)


class TestDuplicationMap:
    def test_explicit_form_x3_minus_2(self):
        f = duplication_lattes(E_NEG)
        assert f.num.coeffs == (0, 16, 0, 0, 1)
        assert f.den.coeffs == (-8, 0, 0, 4)

    def test_explicit_form_x3_minus_x(self):
        f = duplication_lattes(E_POS)
        assert f.num.coeffs == (1, 0, 2, 0, 1)      # (x^2+1)^2
        assert f.den.coeffs == (0, -4, 0, 4)        # 4x(x^2-1)

    def test_random_curves_coprime_degree_4(self):
        rng = np.random.default_rng(51)
        for curve in random_curves(rng, 10):
            f = duplication_lattes(curve)
            assert f.degree == 4

    def test_shared_root_rejected(self):
        with pytest.raises(ValueError):
            RationalMap(P(-1.0, 1.0), P(-1.0, 1.0) * P(1.0, 1.0))

    def test_hand_built_singular_duplication_rejected(self):
        # the duplication polynomials of the singular y^2 = (x - 1)^2 (x + 2),
        # where 256 disc(F)^2 = 0: built by hand, Bareiss finds the shared root
        with pytest.raises(ValueError, match="share a root"):
            RationalMap(P(9, -16, 6, 0, 1), P(8, -12, 0, 4))

    def test_hand_built_map_keeps_its_checks(self, monkeypatch):
        # only duplication_lattes knows Res(num, den) = 256 disc(F)^2: the
        # same polynomials built by hand are checked by Bareiss, and their
        # orbit step computes R by Bareiss, to the same certificate
        calls = resultant_calls(monkeypatch)
        f = duplication_lattes(E_NEG)
        assert calls == []
        g = RationalMap(f.num, f.den)
        assert g == f and calls == [([0, 16, 0, 0, 1], [-8, 0, 0, 4])]
        assert rational_orbit_status(g, Fraction(1, 3)) == rational_orbit_status(f, Fraction(1, 3))
        assert calls[1:] == [([0, 16, 0, 0, 1], [-8, 0, 0, 4, 0])]

    def test_evaluation_at_infinity(self):
        f = duplication_lattes(E_NEG)
        assert f(INFINITY) is INFINITY

    def test_pole_value(self):
        f = duplication_lattes(E_POS)
        assert f(0) is INFINITY
        assert f(Fraction(1)) is INFINITY


class TestGroupLaw:
    def test_two_torsion_doubles_to_infinity(self):
        pt = double_point(E_POS, CurvePoint(1.0, 0.0))
        assert pt.at_infinity
        assert double_point(E_POS, CurvePoint.zero()).at_infinity

    def test_fixed_point_of_dynamics(self):
        # (2, sqrt 6) on y^2 = x^3 - 2 doubles back over x = 2
        pt = double_point(E_NEG, CurvePoint(2.0, math.sqrt(6.0)))
        assert abs(pt.x - 2.0) < 1e-12
        assert pt.on_curve(E_NEG)

    def test_double_stays_on_curve(self):
        rng = np.random.default_rng(52)
        for curve in random_curves(rng, 8):
            Fp = curve.F.to_float()
            for _ in range(10):
                x0 = float(rng.uniform(-4, 4))
                if Fp(x0) <= 1e-9:
                    continue
                pt = double_point(curve, CurvePoint(x0, math.sqrt(Fp(x0))))
                if not pt.at_infinity:
                    assert pt.on_curve(curve, rel=1e-6)


class TestCommutation:
    def test_fixed_point(self):
        assert check_commutation(E_NEG, 2.0) < 1e-12

    def test_two_torsion_both_infinite(self):
        assert check_commutation(E_POS, 1.0) == 0.0
        assert check_commutation(E_POS, 0.0) == 0.0

    def test_random_curves_and_points(self):
        rng = np.random.default_rng(53)
        for curve in random_curves(rng, 10):
            f = duplication_lattes(curve)
            ff = RationalMap(f.num.to_float(), f.den.to_float())
            Fp = curve.F.to_float()
            done = 0
            while done < 100:
                x0 = float(rng.uniform(-6, 6))
                if Fp(x0) <= 1e-6:
                    continue
                val = ff(x0)
                if val is INFINITY or abs(float(val)) > 1e6:
                    continue
                assert check_commutation(curve, x0) <= 1e-8 * (1 + abs(float(val)))
                done += 1

    def test_no_real_point_rejected(self):
        with pytest.raises(ValueError):
            check_commutation(E_NEG, 0.0)       # F(0) = -2 < 0


class TestCriticalPoints:
    def test_disc_negative_straddle(self):
        crit = lattes_critical_points(E_NEG)
        alpha = 2.0 ** (1.0 / 3.0)
        assert len(crit) == 2
        assert crit[0] < alpha < crit[1]
        f = duplication_lattes(E_NEG)
        ff = RationalMap(f.num.to_float(), f.den.to_float())
        assert abs(float(ff(crit[0])) - float(ff(crit[1]))) <= 1e-8

    def test_disc_positive_count(self):
        crit = lattes_critical_points(E_POS)
        assert len(crit) == 4

    def test_routes_agree_random(self):
        rng = np.random.default_rng(54)
        for curve in random_curves(rng, 10):
            assert_matches_derivative_route(curve)

    def test_routes_agree_on_the_box(self):
        for curve in box_curves(3) + [WeierstrassCurve(*abc) for abc in RATIONAL_CURVES]:
            assert_matches_derivative_route(curve)

    def test_float_curve_certified_as_its_rational_values(self):
        # a float coefficient is taken at its exact value, so a float curve
        # is its rational curve: same points, cover and certificate verdict
        for floats in [(1.0, -4.0, -3.0), (0.0, 0.0, -2.0), (0.0, -1.0, 0.0), (-0.1, 0.3, 0.7)]:
            curve = WeierstrassCurve(*floats)
            rational = WeierstrassCurve(*(Fraction(v) for v in floats))
            assert all(isinstance(v, (int, Fraction)) for v in (curve.a, curve.b, curve.c))
            assert curve.disc == rational.disc
            assert lattes_critical_points(curve) == lattes_critical_points(rational)
            assert real_surjectivity(curve) == real_surjectivity(rational)
            certs = [certify_nonabelian(duplication_lattes(e), Fraction(1, 3), curve=e)
                     for e in (curve, rational)]
            assert certs[0].to_json() == certs[1].to_json()
        integers = WeierstrassCurve(0, 0, -2)
        curve = WeierstrassCurve(0.0, 0.0, -2.0)
        assert lattes_critical_points(curve) == lattes_critical_points(integers)
        assert real_surjectivity(curve) == real_surjectivity(integers)
        certs = [certify_nonabelian(duplication_lattes(e), Fraction(1, 3), curve=e).to_json()
                 for e in (curve, integers)]
        assert certs[0].pop("map") != certs[1].pop("map")
        assert certs[0] == certs[1] and certs[0]["verdict"] == "certified"
        assert duplication_lattes(curve).to_json() == {
            "num": ["0/1", "16/1", "0/1", "0/1", 1], "den": ["-8/1", "0/1", "0/1", 4]}

    def test_near_singular_float_curve_takes_the_exact_disc_branch(self):
        floats = (-8.105115402196073, 21.638157073607804, -18.968416961161065)
        a, b, c = floats
        # in floats disc(F) comes out positive; its exact value is negative
        assert 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c > 0
        curve = WeierstrassCurve(*floats)
        assert curve.disc < 0
        assert len(lattes_critical_points(curve)) == 2
        out = real_surjectivity(curve)
        assert out["surjective"] and set(out["witness"]) == {"c1", "c2", "alpha", "f_c1", "f_c2"}

    def test_near_singular_float_curve_gets_its_one_pole(self):
        # the float solve of F used to return the close complex pair near
        # 2.9958 as a second real root, and f(c2) was read in floats, where
        # num and den cancel beside that pair: f_c2 came out 2.1538
        curve = WeierstrassCurve(-8.105115402196073, 21.638157073607804, -18.968416961161065)
        crit, poles = lattes._critical_points_and_poles(curve)
        assert len(crit) == 2 and len(poles) == 1
        w = real_surjectivity(curve)["witness"]
        assert w["alpha"] == poles[0]
        assert math.isclose(w["f_c1"], w["alpha"], rel_tol=1e-9)
        assert math.isclose(w["f_c2"], w["alpha"], rel_tol=1e-9)

    def test_large_root_cubic_gets_its_one_pole(self):
        # real_roots_ex merged the complex pair 0.4163 +- 0.3809i of F into a
        # real double root, beside the root near -864813.83, and raised
        curve = WeierstrassCurve(864813, -720079, 275355)
        assert curve.disc < 0
        crit = lattes_critical_points(curve)
        assert len(crit) == 2
        poles = lattes._critical_points_and_poles(curve)[1]
        assert len(poles) == 1 and abs(poles[0] + 864813.83) < 0.01
        assert crit[0] < poles[0] < crit[1]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.tuples(*[st.integers(-10**6, 10**6)] * 3))
    def test_large_integer_curves_certified(self, abc):
        try:
            curve = WeierstrassCurve(*abc)
        except SingularCurveError:
            return
        poles = lattes._critical_points_and_poles(curve)[1]
        assert len(poles) == real_root_count(curve.F)
        w = real_surjectivity(curve)["witness"]
        if curve.disc < 0:
            assert w["c1"] < w["alpha"] < w["c2"]
        else:
            assert w["gap"] == (poles[0], poles[-1])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.tuples(*[st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1, 1]),
                                 st.floats(-40, 40))] * 3))
    def test_wide_float_curves_certified(self, abc):
        # coefficients 40 orders of magnitude apart: the float solve of F and
        # its fixed brackets used to raise on about a third of such curves
        try:
            curve = WeierstrassCurve(*abc)
        except SingularCurveError:
            return
        crit, poles = lattes._critical_points_and_poles(curve)
        assert len(poles) == real_root_count(curve.F)
        assert len(crit) == (4 if curve.disc > 0 else 2)
        w = real_surjectivity(curve)["witness"]
        if curve.disc < 0:
            assert w["c1"] < w["alpha"] < w["c2"]
        else:
            assert w["gap"] == (poles[0], poles[-1])

    def test_disc_rule_counts_the_real_roots_of_w(self):
        # the exact Sturm count of w against 4 real roots for disc > 0, 2 for disc < 0
        for curve in box_curves(3) + [WeierstrassCurve(*abc) for abc in RATIONAL_CURVES]:
            assert real_root_count(derivative_numerator(curve)) == (4 if curve.disc > 0 else 2)

    @pytest.mark.parametrize("mutate", [
        lambda xs: xs[:1] + [xs[1] + 1e-6] + xs[2:], lambda xs: xs[1:],
        lambda xs: xs[:1] + xs[:1] + xs[2:]], ids=["moved", "dropped", "doubled"])
    def test_moved_critical_point_is_corrected(self, monkeypatch, capsys, mutate):
        # a candidate that isolates no root hands the roots of w to Sturm
        # isolation, which returns the same floats as the closed form
        expected = lattes_critical_points(E_POS)
        assert main(["lattes", "--curve", "0,-1,0"]) == 0
        payload = capsys.readouterr().out
        closed_form = lattes._torsion_route
        monkeypatch.setattr(lattes, "_torsion_route", lambda *a: mutate(closed_form(*a)))
        sturm, isolate = [], roots._sturm_brackets
        monkeypatch.setattr(roots, "_sturm_brackets",
                            lambda p, sign, n: sturm.append((p.degree, n)) or isolate(p, sign, n))
        assert lattes_critical_points(E_POS) == expected
        assert sturm == [(6, 4)]
        assert main(["lattes", "--curve", "0,-1,0"]) == 0
        assert capsys.readouterr().out == payload

    @pytest.mark.parametrize("mutate", [lambda xs: [xs[0] + 1e-6] + xs[1:], lambda xs: xs[1:]],
                             ids=["moved", "dropped"])
    def test_moved_pole_is_corrected(self, monkeypatch, capsys, mutate):
        expected = real_surjectivity(E_POS)
        closed_form = lattes._cubic_candidates
        monkeypatch.setattr(lattes, "_cubic_candidates", lambda *a: mutate(closed_form(*a)))
        sturm, isolate = [], roots._sturm_brackets
        monkeypatch.setattr(roots, "_sturm_brackets",
                            lambda p, sign, n: sturm.append((p.degree, n)) or isolate(p, sign, n))
        assert real_surjectivity(E_POS) == expected
        assert lattes._real_roots_of_F(E_POS) == [-1.0, 0.0, 1.0]
        assert sturm == [(3, 3), (3, 3)]
        assert main(["lattes", "--curve", "0,-1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["surjectivity"]["witness"]["gap"] == [-1.0, 1.0]

    def test_sturm_count_mismatch_raises(self, monkeypatch, capsys):
        # the candidates cannot match a wrong count, and Sturm isolation,
        # which counts the roots exactly, refuses it
        monkeypatch.setattr(lattes, "rounded_real_roots",
                            lambda p, xs, n: rounded_real_roots(p, xs, n + 1))
        with pytest.raises(InvariantError, match=r"finds 3 real roots of Polynomial\(\[0, -1, 0, 1\]\), not 4"):
            lattes_critical_points(E_POS)
        assert main(["lattes", "--curve", "0,-1,0"]) == 1
        assert "finds 3 real roots" in capsys.readouterr().err

    def test_double_torsion_preimages_kept(self):
        # route 2 meets two double roots here; refining one of them used to
        # land on the other and drop -4.6696
        crit = lattes_critical_points(WeierstrassCurve(1, -4, -3))
        ref = [-4.669591295300725, -1.3732418151647825, 0.2722088082687308,
               5.197700172133576]
        assert np.allclose(crit, ref, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("abc", DOUBLE_TORSION)
    def test_routes_agree_on_double_roots(self, abc):
        assert_matches_derivative_route(WeierstrassCurve(*abc))

    def test_double_roots_not_merged_with_a_neighbour(self):
        # route 2 used to return -1.0, the mean of the double roots -1 +- sqrt 11
        crit = lattes_critical_points(WeierstrassCurve(-6, -4, 3))
        ref = [-1 - math.sqrt(11), -0.231537705748297, -1 + math.sqrt(11), 13.314300236046517]
        assert np.allclose(crit, ref, rtol=0, atol=1e-8)

    def test_double_root_refined_past_the_noise(self):
        # route 2's double root at 11.4016 used to miss route 1 by 1.28e-7,
        # the noise of |p| near a double root, against a bound of 1.24e-7
        crit = lattes_critical_points(WeierstrassCurve(-6, 2, -3))
        assert np.allclose(crit, [0.08377713420656234, 11.401622530196239], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("abc", NEAR_DOUBLE_TORSION)
    def test_routes_agree_on_near_double_torsion_preimages(self, abc):
        curve = WeierstrassCurve(*abc)
        crit = assert_matches_derivative_route(curve)
        assert len(crit) == (2 if curve.disc < 0 else 4)

    @pytest.mark.parametrize("abc", [(1, -4, -3)] + DOUBLE_TORSION + NEAR_DOUBLE_TORSION)
    def test_closed_form_matches_the_numeric_torsion_route(self, abc):
        # the numeric route solves for double roots, good to about sqrt(eps)
        curve = WeierstrassCurve(*abc)
        closed = lattes_critical_points(curve)
        numeric = numeric_torsion_route(curve)
        scale = 1.0 + max(abs(x) for x in closed)
        assert len(closed) == len(numeric)
        assert all(abs(u - v) <= 1e-8 * scale for u, v in zip(closed, numeric))

    @pytest.mark.parametrize("roots", [
        (-1, 0, 1), (-3, 1, 5), (0, 2, 7), (-6, -2, 4), (Fraction(-1, 2), Fraction(1, 3), 2)])
    def test_torsion_fibre_is_a_square(self, roots):
        # with F(rho) = 0, num - rho den = ((X - rho)^2 - F'(rho))^2 exactly
        e1, e2, e3 = (Fraction(e) for e in roots)
        curve = WeierstrassCurve(-(e1 + e2 + e3), e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3)
        num, den = lattes._duplication_polys(curve)
        dF = curve.F.derivative()
        for rho in (e1, e2, e3):
            assert curve.F(rho) == 0
            square = P(rho * rho - dF(rho), -2 * rho, Fraction(1))
            assert num - Polynomial([rho]) * den == square * square


class TestRamification:
    def test_generic_fiber_has_four_preimages(self):
        from juliareal.roots import complex_roots
        rng = np.random.default_rng(55)
        for curve in random_curves(rng, 5):
            f = duplication_lattes(curve)
            for t in rng.uniform(-5, 5, 5):
                g = f.num.to_float() - Polynomial([float(t)]) * f.den.to_float()
                assert g.degree == 4
                assert len(complex_roots(g)) == 4


class TestSurjectivity:
    def test_disc_negative_surjective(self):
        out = real_surjectivity(E_NEG)
        assert out["surjective"]
        w = out["witness"]
        assert abs(w["f_c1"] - w["f_c2"]) <= 1e-8

    def test_family_gap_contains_zero(self):
        for a in (1, 2, 3):
            curve = WeierstrassCurve(0, -a * a, 0)
            out = real_surjectivity(curve)
            assert not out["surjective"]
            lo, hi = out["witness"]["gap"]
            assert lo < 0 < hi
            # the image stays away from zero by roughly a
            assert abs(lo) > 0.5 * a and hi > 0.5 * a

    def test_gap_values_really_omitted(self):
        out = real_surjectivity(E_POS)
        lo, hi = out["witness"]["gap"]
        probe = (lo + hi) / 2
        f = duplication_lattes(E_POS)
        g = f.num.to_float() - Polynomial([probe]) * f.den.to_float()
        assert real_roots_ex(g)[0] == []

    def test_probed_ranges_leave_exactly_the_gap(self):
        # the union of the monotone-piece ranges, found by probing beside
        # the poles, misses (e1, e3) when disc > 0 and nothing when disc < 0
        for curve in box_curves(3):
            crit, poles = lattes._critical_points_and_poles(curve)
            num, den = (p.to_float() for p in lattes._duplication_polys(curve))
            gaps = uncovered(probing_piece_ranges(num, den, crit, poles))
            out = real_surjectivity(curve)
            assert out["surjective"] == (curve.disc < 0) == (gaps == []), curve
            if curve.disc > 0:
                (lo, hi), = gaps
                expected = out["witness"]["gap"]
                assert set(out["witness"]) == {"gap"}
                assert math.isclose(lo, expected[0], rel_tol=1e-9, abs_tol=1e-9), curve
                assert math.isclose(hi, expected[1], rel_tol=1e-9, abs_tol=1e-9), curve

    def test_poles_solved_once(self, monkeypatch):
        # one solve, of F, exact and from a closed form: its rounded roots are
        # the real poles; no float solve, no solve of f' and no second pole solve
        solves, roundings = count_float_solves(monkeypatch), count_roundings(monkeypatch)
        out = real_surjectivity(E_POS)
        assert (solves, roundings) == ([], [3])
        assert not out["surjective"]

    def test_close_real_roots_need_no_critical_points(self):
        # F = (X - 1)(X - 2)(X - 2 - 1e-4): the critical point near 1.9901 is
        # ill-conditioned, but the disc > 0 witness is the outer roots of F
        eps = Fraction(1, 10**4)
        curve = WeierstrassCurve(-(5 + eps), 8 + 3 * eps, -(4 + 2 * eps))
        out = real_surjectivity(curve)
        assert not out["surjective"]
        # the outer roots of F, correctly rounded
        assert out["witness"]["gap"] == (1.0, float(2 + eps))
        cert = certify_nonabelian(duplication_lattes(curve), Fraction(1, 3), curve=curve)
        assert cert.surjective == {"pass": False, "witness": out["witness"]}

    @pytest.mark.parametrize("k", [4, 6, 9, 12, 30])
    def test_close_real_roots_are_rounded(self, k, capsys):
        # F = (X - 1)(X - 2)(X - 2 - 10^-k): the closed-form candidates miss
        # the close pair by far more than an ulp, and at k = 30 both of its
        # roots round to 2.0
        eps = Fraction(1, 10**k)
        curve = close_pair_curve(eps)
        crit, poles = lattes._critical_points_and_poles(curve)
        assert poles == [1.0, 2.0, float(2 + eps)] == nearest_floats(curve.F)
        assert crit == nearest_floats(derivative_numerator(curve))
        out = real_surjectivity(curve)
        assert out == {"surjective": False, "witness": {"gap": (1.0, float(2 + eps))}}
        cert = certify_nonabelian(duplication_lattes(curve), Fraction(1, 3), curve=curve)
        assert cert.surjective == {"pass": False, "witness": out["witness"]}
        assert cert.certified is False
        assert main(["lattes", f"--curve={curve.a},{curve.b},{curve.c}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["critical_points"] == crit and len(crit) == 4

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.fractions(-20, 20, max_denominator=50), st.fractions(-20, 20, max_denominator=50),
           st.integers(1, 999), st.integers(3, 40), st.booleans())
    def test_close_real_roots_rounded_exactly(self, r, s, m, k, negative):
        eps = Fraction(-m if negative else m, 10**k)
        try:
            curve = close_pair_curve(eps, r, s)
        except SingularCurveError:
            return
        poles = lattes._critical_points_and_poles(curve)[1]
        assert len(poles) == real_root_count(curve.F) == 3
        assert poles == nearest_floats(curve.F)
        assert real_surjectivity(curve)["witness"]["gap"] == (poles[0], poles[-1])

    def test_lattes_command_computes_each_object_once(self, monkeypatch, capsys):
        # one map, whose resultant 256 disc(F)^2 needs no determinant; one set
        # of critical points and poles, from the one exact solve of F, and no
        # float solve
        counts = {"resultant": 0, "critical": 0}

        def counted(name, fn):
            def wrapper(*a, **k):
                counts[name] += 1
                return fn(*a, **k)
            return wrapper
        monkeypatch.setattr(lattes, "sylvester_resultant",
                            counted("resultant", lattes.sylvester_resultant))
        monkeypatch.setattr(lattes, "_critical_points_and_poles",
                            counted("critical", lattes._critical_points_and_poles))
        solves, roundings = count_float_solves(monkeypatch), count_roundings(monkeypatch)
        assert main(["lattes", "--curve", "0,-1,0"]) == 0
        assert counts == {"resultant": 0, "critical": 1}
        # F once, and the numerator of f', degree 6, once
        assert (solves, roundings) == ([], [3, 6])
        payload = json.loads(capsys.readouterr().out)
        assert payload["critical_points"] == lattes_critical_points(E_POS)
        assert payload["surjectivity"] == json.loads(json.dumps(real_surjectivity(E_POS)))


class TestRationalOrbit:
    def test_height_growth_certificate(self):
        f = duplication_lattes(E_NEG)
        st = rational_orbit_status(f, Fraction(1, 3))
        assert st.tag == "nonperiodic"
        assert "height-growth" in st.reason

    def test_fixed_point_periodic(self):
        f = duplication_lattes(E_NEG)
        st = rational_orbit_status(f, Fraction(2))
        assert st.tag == "periodic" and st.period == 1

    def test_pole_orbit(self):
        f = duplication_lattes(E_POS)
        st = rational_orbit_status(f, Fraction(1))
        assert st.tag == "nonperiodic"
        assert "pole" in st.reason

    def test_rejects_float(self):
        f = duplication_lattes(E_NEG)
        ff = RationalMap(f.num.to_float(), f.den.to_float())
        with pytest.raises(ValueError):
            rational_orbit_status(ff, Fraction(1, 3))

    def test_rejects_reciprocal(self):
        # 0 -> infinity -> 0 is periodic, so a pole hit proves nothing
        with pytest.raises(ValueError, match="fix infinity"):
            rational_orbit_status(RationalMap(P(1), P(0, 1)), Fraction(0))

    def test_rejects_equal_degrees(self):
        # (x^2 + 1) / (x^2 + x) sends infinity to 1
        with pytest.raises(ValueError, match="fix infinity"):
            rational_orbit_status(RationalMap(P(1, 0, 1), P(0, 1, 1)), Fraction(-1))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(*[st.one_of(st.integers(-6, 6), st.fractions(-20, 20, max_denominator=50),
                       st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9)))
             for _ in range(3)])
    def test_closed_form_resultant_matches_bareiss(self, a, b, c):
        # Res(num, den) = 256 disc(F)^2, and the padded R of the orbit step
        # read from it, equal the Sylvester determinants exactly
        try:
            curve = WeierstrassCurve(a, b, c)
        except SingularCurveError:
            return
        f = duplication_lattes(curve)
        assert f._resultant == 256 * curve.disc ** 2
        assert f._resultant == poly.sylvester_resultant(list(f.num.coeffs), list(f.den.coeffs))
        step = _PairMap(f.num, f.den, f._resultant)
        assert step.R == _PairMap(f.num, f.den).R == abs(poly.sylvester_resultant(step.G, step.H))

    def test_height_bound_forms_describe_the_map(self):
        # num and den have different denominators (2 and 1); one common L
        # keeps G / H = num / den, where clearing each alone gives 2f
        f = duplication_lattes(WeierstrassCurve(Fraction(1, 2), -3, Fraction(1, 4)))
        step = _PairMap(f.num, f.den)
        assert P(*step.G) * f.den == P(*step.H) * f.num
        growth = lattes._height_growth_data(step)
        assert (growth.gamma_num, growth.gamma_den, growth.resultant) == (3254, 21208, 677665024)


class TestCertify:
    def test_odd_cubic_certified(self):
        cert = certify_nonabelian(P(0, -1, 0, 1), Fraction(1, 2))
        assert cert.certified
        assert cert.to_json()["verdict"] == "certified"

    def test_lattes_certified(self):
        cert = certify_nonabelian(duplication_lattes(E_NEG), Fraction(1, 3),
                                  curve=E_NEG)
        assert cert.certified

    def test_even_degree_not_certified(self):
        cert = certify_nonabelian(P(-1, 0, 1), Fraction(1, 3))
        assert not cert.certified
        assert not cert.surjective["pass"]
        assert cert.julia_nonreal["pass"]

    def test_periodic_alpha_not_certified(self):
        cert = certify_nonabelian(P(-1, 0, 1), Fraction(0))
        assert not cert.certified
        assert cert.nonperiodic["tag"] == "periodic"

    def test_real_julia_not_certified(self):
        # -x^3 + 3x has a real Julia set; only that check fails
        cert = certify_nonabelian(P(0, 3, 0, -1), Fraction(1, 3))
        assert not cert.certified
        assert cert.surjective["pass"]
        assert not cert.julia_nonreal["pass"]

    def test_mutation_each_check_matters(self):
        flips = [
            (P(-1, 0, 1), Fraction(1, 3), "surjective"),
            (P(0, 3, 0, -1), Fraction(1, 3), "julia_nonreal"),
            (P(0, -1, 0, 1), Fraction(0), "nonperiodic"),
        ]
        for poly, alpha, check in flips:
            # the named check alone fails, and it alone denies the certificate
            cert = certify_nonabelian(poly, alpha)
            assert not cert.certified
            checks = cert.to_json()["checks"]
            assert not checks[check]["pass"]
            assert all(checks[name]["pass"] for name in checks if name != check)

    def test_exceptional_alpha_rejected(self):
        with pytest.raises(ExceptionalPointError):
            certify_nonabelian(P(0, 0, 0, 1), Fraction(0))

    def test_exceptional_alpha_rejected_for_rational_map(self):
        # X^2 / 1 is totally ramified over 0
        with pytest.raises(ExceptionalPointError):
            check_non_exceptional(RationalMap(P(0, 0, 1), P(1)), Fraction(0))
        check_non_exceptional(duplication_lattes(E_NEG), Fraction(1, 3))

    def test_lattes_certificate_checks_coprimality_once(self, monkeypatch):
        # disc(F) != 0, checked once where the curve is built, proves the map
        # coprime, and the height bound reads R from 256 disc(F)^2: neither
        # duplication_lattes nor the certificate computes a resultant.  Both
        # bindings are counted: RationalMap's coprimality check calls
        # lattes.sylvester_resultant, the pair map poly.sylvester_resultant
        calls = resultant_calls(monkeypatch)
        cert = certify_nonabelian(duplication_lattes(E_POS), Fraction(1, 3), curve=E_POS)
        assert calls == []
        assert not cert.surjective["pass"]

    @pytest.mark.parametrize("curve", [E_NEG, E_POS, WeierstrassCurve(1, -4, -3)])
    def test_lattes_certificate_makes_one_solve(self, monkeypatch, curve):
        # one exact solve of F, whose roots are the rho of the closed form and
        # the real poles, and no float solve; the roots of f''s numerator
        # (degree 6) are rounded only when disc(F) < 0
        solves, roundings = count_float_solves(monkeypatch), count_roundings(monkeypatch)
        certify_nonabelian(duplication_lattes(curve), Fraction(1, 3), curve=curve)
        assert (solves, roundings) == ([], [3, 6] if curve.disc < 0 else [3])

    @pytest.mark.parametrize("curve", [E_NEG, E_POS, WeierstrassCurve(1, -4, -3)])
    def test_lattes_certificate_makes_one_root_solve(self, monkeypatch, curve):
        # the one solve of F is exact (rounded_real_roots), so roots_shifted
        # is never called; no check_non_exceptional solve either
        calls = []
        solve = roots.roots_shifted
        counted = lambda p, t: calls.append(p.degree) or solve(p, t)
        monkeypatch.setattr(roots, "roots_shifted", counted)
        monkeypatch.setattr(orbit, "roots_shifted", counted)
        certify_nonabelian(duplication_lattes(curve), Fraction(1, 3), curve=curve)
        assert calls == []

    @pytest.mark.parametrize("coeffs", [[0, -1, 0, 1], [5, -7, 0, 1], [1, 3, 0, 1],
                                        [0, 3, 0, -1], [-1, 0, 0, 0, 1]])
    def test_polynomial_certificate_makes_two_root_solves(self, monkeypatch, coeffs):
        # a cubic with a positive lead takes the exact region and solves
        # nothing; any other polynomial makes the classifier's solves, as
        # (rows, degree of the rows): of p', then of p - x (and, for an even
        # degree, of p minus its extreme fixed point), or for -x^3 + 3x the
        # cross-check of I(f o f) and f(f(X)) - X on the row of f;
        # check_non_exceptional solves nothing.  Every float solve goes
        # through roots_batch
        solves = {(0, 3, 0, -1): [(1, 2), (66, 3), (1, 3)],
                  (-1, 0, 0, 0, 1): [(1, 3), (1, 4), (1, 4)]}.get(tuple(coeffs), [])
        calls = []
        solve = roots.roots_batch
        counted = lambda C, *a, **k: calls.append(np.shape(C)) or solve(C, *a, **k)
        for module in (roots, classifier):
            monkeypatch.setattr(module, "roots_batch", counted)
        certify_nonabelian(P(*coeffs), Fraction(1, 2))
        assert [(rows, cols - 1) for rows, cols in calls] == solves

    def test_cubic_at_the_region_corner(self, monkeypatch):
        # x^3 - 3x + 10^-9 is conjugate to X^3 + AX + B with A = -3 and
        # B^2 = 10^-18 > 0: outside the region, so its Julia set is not real.
        # The float classifier calls it real, with the marginal flag
        monkeypatch.setattr(lattes, "classify_real_julia", None)
        cert = certify_nonabelian(P(Fraction(1, 10**9), -3, 0, 1), Fraction(1, 2))
        assert cert.julia_nonreal == {
            "pass": True,
            "reason": "conjugate to X^3 + AX + B with A = -3 <= -3 and B^2 > -4A(A+3)^2/27: "
                      "outside the region A <= -3, B^2 <= -4A(A+3)^2/27"}

    def test_huge_alpha_written_past_the_str_limit(self):
        # height-growth reason and certificate JSON stay printable when H and
        # alpha have more digits than str() allows
        q = 10 ** 1100
        cert = certify_nonabelian(duplication_lattes(E_NEG), Fraction(1, q), curve=E_NEG)
        assert cert.certified
        assert "H = 0x" in cert.nonperiodic["reason"]
        assert cert.to_json()["alpha"] == f"1/{q}"
        cert = certify_nonabelian(duplication_lattes(E_NEG), Fraction(1, 10**5000), curve=E_NEG)
        assert cert.to_json()["alpha"] == f"1/{10**5000:#x}"

    def test_coefficient_past_the_str_limit(self):
        # the map's JSON writes a coefficient of more digits than str() allows
        # in hexadecimal, as _number_text does
        q = 10 ** 5000
        cert = certify_nonabelian(P(Fraction(1, q), -1, 0, 1), Fraction(3))
        assert cert.certified
        assert cert.to_json()["map"]["poly"] == [f"1/{q:#x}", -1, 0, 1]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.fractions())
    def test_coefficient_text_unchanged_where_it_fits(self, c):
        assert poly.coeff_to_json(c) == f"{c.numerator}/{c.denominator}"

    def test_lattes_map_of_another_curve_rejected(self):
        with pytest.raises(ValueError, match="not the duplication map"):
            certify_nonabelian(duplication_lattes(E_NEG), Fraction(1, 3),
                               curve=WeierstrassCurve(1, -4, -3))

    def test_json_shape(self):
        cert = certify_nonabelian(duplication_lattes(E_NEG), Fraction(1, 3),
                                  curve=E_NEG)
        js = cert.to_json()
        assert set(js) == {"map", "alpha", "checks", "verdict"}
        assert set(js["checks"]) == {"surjective", "julia_nonreal", "nonperiodic"}


class TestInvariantErrors:
    def test_critical_points_not_straddling_the_root(self, monkeypatch, capsys):
        shared = lattes._critical_points_and_poles
        monkeypatch.setattr(lattes, "_critical_points_and_poles",
                            lambda curve: ([5.0, 6.0], shared(curve)[1]))
        with pytest.raises(InvariantError, match="do not straddle"):
            real_surjectivity(E_NEG)
        assert main(["lattes", "--curve", "0,0,-2"]) == 1
        assert "do not straddle" in capsys.readouterr().err

    def test_bezout_identity_fails(self, monkeypatch):
        # X^2 + 1 and 2X: u = 1, v = -X/2, so L = 2; a gcd three times too
        # large truncates the integer solution, which then fails the identity
        assert _bezout_constant([1, 0, 1], [0, 2]) == (2, 3)
        gcd = math.gcd
        monkeypatch.setattr(lattes.math, "gcd", lambda *v: 3 * gcd(*v))
        with pytest.raises(InvariantError, match="Bezout"):
            _bezout_constant([1, 0, 1], [0, 2])


class TestBezoutConstant:
    def test_matches_extended_euclid_on_the_box(self):
        # both orientations of every map of the box, as _height_growth_data
        # takes them from the padded forms G, H of the map's integer step
        for curve in box_curves(3):
            f = duplication_lattes(curve)
            step = _PairMap(f.num, f.den)
            for pair in ((step.G, step.H), (step.G[::-1], step.H[::-1])):
                assert _bezout_constant(*pair) == euclid_bezout_constant(*pair), (curve, pair)

    @pytest.mark.parametrize("pair", [
        ([1, 0, 1], [0, 2]), ([3], [-3]), ([0, 0, 1], [1]), ([1, 0, 0], [0, 0, 1]),
        ([5], [0, 1, 1]), ([2, -3, 0, 7], [-4, 0, 6])])
    def test_matches_extended_euclid_on_small_pairs(self, pair):
        assert _bezout_constant(*pair) == euclid_bezout_constant(*pair)

    @pytest.mark.parametrize("pair", [
        ([-1, 0, 1], [-1, 1]), ([2, 3, 1], [1, 1]), ([0, 1], [0, 0, 1]), ([1, 1], [2, 2])])
    def test_common_factor_rejected(self, pair):
        with pytest.raises(ValueError):
            euclid_bezout_constant(*pair)
        with pytest.raises(ValueError):
            _bezout_constant(*pair)


class TestGolden:
    """Outputs recorded from the numeric torsion route and the Fraction
    extended Euclid; the closed form and integer Bezout must reproduce them."""

    golden = json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("case", golden["certify"],
                             ids=lambda c: f"{c['curve']}@{c['alpha']}")
    def test_certificate(self, case):
        curve = WeierstrassCurve(*(Fraction(v) for v in case["curve"].split(",")))
        cert = certify_nonabelian(duplication_lattes(curve), Fraction(case["alpha"]),
                                  curve=curve)
        assert json.loads(json.dumps(cert.to_json())) == case["json"]

    @pytest.mark.parametrize("case", golden["lattes"], ids=lambda c: c["curve"])
    def test_lattes_payload(self, case, capsys):
        assert main(["lattes", f"--curve={case['curve']}"]) == 0
        assert json.loads(capsys.readouterr().out) == case["payload"]
