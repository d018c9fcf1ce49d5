import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from juliareal.lattes import (INFINITY, CriticalPointMismatchError, CurvePoint,
                              NonAbelianCertificate, RationalMap,
                              SingularCurveError, WeierstrassCurve,
                              certify_nonabelian, check_commutation,
                              double_point, duplication_lattes,
                              lattes_critical_points, rational_orbit_status,
                              real_surjectivity)
from juliareal import lattes
from juliareal.cli import main
from juliareal.lattes import InvariantError, _bezout_constant, _torsion_route
from juliareal.orbit import ExceptionalPointError, check_non_exceptional
from juliareal.poly import Polynomial, clear_denominators
from juliareal.roots import real_roots_ex
from juliareal.tolerances import CRIT_MATCH_TOL

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


def numeric_torsion_route(curve):
    """Oracle for route 2: solve num - rho den for each real root rho of F."""
    num, den = (p.to_float() for p in lattes._duplication_polys(curve))
    out = []
    for rho, _ in real_roots_ex(curve.F.to_float())[0]:
        out.extend(x for x, _ in real_roots_ex(num - Polynomial([rho]) * den)[0])
    return sorted(out)


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
            lattes_critical_points(curve)       # mismatch raises

    def test_double_torsion_preimages_kept(self):
        # route 2 meets two double roots here; refining one of them used to
        # land on the other and drop -4.6696
        crit = lattes_critical_points(WeierstrassCurve(1, -4, -3))
        ref = [-4.669591295300725, -1.3732418151647825, 0.2722088082687308,
               5.197700172133576]
        assert np.allclose(crit, ref, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("abc", DOUBLE_TORSION)
    def test_routes_agree_on_double_roots(self, abc):
        lattes_critical_points(WeierstrassCurve(*abc))       # mismatch raises

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
        crit = lattes_critical_points(curve)      # mismatch raises
        assert len(crit) == (2 if curve.disc < 0 else 4)

    @pytest.mark.parametrize("abc", [(1, -4, -3)] + DOUBLE_TORSION + NEAR_DOUBLE_TORSION)
    def test_closed_form_matches_the_numeric_torsion_route(self, abc):
        curve = WeierstrassCurve(*abc)
        F = curve.F.to_float()
        closed = _torsion_route(F, [x for x, _ in real_roots_ex(F)[0]])
        numeric = numeric_torsion_route(curve)
        scale = 1.0 + max(abs(x) for x in closed)
        assert len(closed) == len(numeric)
        assert all(abs(u - v) <= CRIT_MATCH_TOL * scale for u, v in zip(closed, numeric))

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

    def test_poles_solved_once(self, monkeypatch):
        # route 1 and the roots of F, which are also the real poles: 2, with
        # no torsion-route solves and no second pole solve
        calls = []
        solve = lattes.real_roots_ex
        monkeypatch.setattr(lattes, "real_roots_ex",
                            lambda p, *a, **k: calls.append(1) or solve(p, *a, **k))
        out = real_surjectivity(E_POS)
        assert len(calls) == 2
        assert not out["surjective"]

    def test_lattes_command_computes_each_object_once(self, monkeypatch, capsys):
        # one map, checked once; one set of critical points and poles
        # (route 1 and the roots of F)
        counts = {"resultant": 0, "critical": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*a, **k):
                counts[name] += 1
                return fn(*a, **k)
            return wrapper
        monkeypatch.setattr(lattes, "sylvester_resultant",
                            counted("resultant", lattes.sylvester_resultant))
        monkeypatch.setattr(lattes, "_critical_points_and_poles",
                            counted("critical", lattes._critical_points_and_poles))
        monkeypatch.setattr(lattes, "real_roots_ex", counted("solve", lattes.real_roots_ex))
        assert main(["lattes", "--curve", "0,-1,0"]) == 0
        assert counts == {"resultant": 1, "critical": 1, "solve": 2}
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
            baseline = certify_nonabelian(poly, alpha)
            mutated = certify_nonabelian(poly, alpha, disabled={check})
            assert not baseline.certified
            assert mutated.certified

    def test_exceptional_alpha_rejected(self):
        with pytest.raises(ExceptionalPointError):
            certify_nonabelian(P(0, 0, 0, 1), Fraction(0))

    def test_exceptional_alpha_rejected_for_rational_map(self):
        # X^2 / 1 is totally ramified over 0
        with pytest.raises(ExceptionalPointError):
            check_non_exceptional(RationalMap(P(0, 0, 1), P(1)), Fraction(0))
        check_non_exceptional(duplication_lattes(E_NEG), Fraction(1, 3))

    def test_unknown_check_name(self):
        with pytest.raises(ValueError):
            certify_nonabelian(P(0, -1, 0, 1), Fraction(1, 2),
                               disabled={"bogus"})

    def test_lattes_certificate_checks_coprimality_once(self, monkeypatch):
        # the caller's duplication_lattes has checked the map; the
        # certificate adds only the padded resultant of its height bound
        f = duplication_lattes(E_POS)
        calls = []
        resultant = lattes.sylvester_resultant
        monkeypatch.setattr(lattes, "sylvester_resultant",
                            lambda a, b: calls.append((a, b)) or resultant(a, b))
        cert = certify_nonabelian(f, Fraction(1, 3), curve=E_POS)
        assert calls == [([1, 0, 2, 0, 1], [0, -4, 0, 4, 0])]
        assert not cert.surjective["pass"]

    @pytest.mark.parametrize("curve", [E_NEG, E_POS, WeierstrassCurve(1, -4, -3)])
    def test_lattes_certificate_makes_two_solves(self, monkeypatch, curve):
        # the numerator of f' and F, whose roots are also the real poles
        calls = []
        solve = lattes.real_roots_ex
        monkeypatch.setattr(lattes, "real_roots_ex",
                            lambda p, *a, **k: calls.append(p.degree) or solve(p, *a, **k))
        certify_nonabelian(duplication_lattes(curve), Fraction(1, 3), curve=curve)
        assert calls == [6, 3]

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
        # builds them: N, D and the reversed padded pair
        for curve in box_curves(3):
            f = duplication_lattes(curve)
            N = clear_denominators(f.num.coeffs)[1]
            D = clear_denominators(f.den.coeffs)[1]
            Npad = N + [0] * (5 - len(N))
            Dpad = D + [0] * (5 - len(D))
            for pair in ((N, D), (Npad[::-1], Dpad[::-1])):
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
