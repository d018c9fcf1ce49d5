import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliareal import orbit
from juliareal.orbit import (BackwardOrbit, EmpiricalMeasure, ExceptionalPointError,
                             OrbitCapError, backward_orbit, check_non_exceptional,
                             empirical_cdf_distance, escape_radius,
                             max_imag_stat, orbit_status,
                             render_filled_julia)
from juliareal.lattes import RationalMap
from juliareal.poly import Polynomial, _number_text


def P(*coeffs):
    return Polynomial(list(coeffs))


CHEB = P(-2.0, 0.0, 1.0)          # x^2 - 2
BASILICA = P(-1.0, 0.0, 1.0)      # x^2 - 1


def arcsine_cdf(x):
    """CDF of the x = 2cos(theta) pushforward of uniform theta; validated
    in TestArcsineOracle before anything else relies on it."""
    if x <= -2:
        return 0.0
    if x >= 2:
        return 1.0
    return 0.5 + math.asin(x / 2) / math.pi


class TestEscapeRadius:
    def test_known_values(self):
        assert escape_radius(P(0.0, 0.0, 1.0)) == 2.0
        assert escape_radius(CHEB) == 4.0
        assert escape_radius(P(0.0, -3.0, 0.0, 1.0)) == 5.0

    def test_exact_for_exact_input(self):
        # (2 + 2) / 3 for 3X^2 + 2; the Fraction of its float lies 2^-52/3 below
        R = escape_radius(P(2, 0, 3))
        assert R == Fraction(4, 3) and isinstance(R, Fraction)

    def test_escape_property(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = Polynomial(list(rng.uniform(-2, 2, 4)))
            if abs(p.lead) < 0.2:
                continue
            R = escape_radius(p)
            for ang in np.linspace(0, 2 * math.pi, 7):
                z = (R + 0.01) * complex(math.cos(ang), math.sin(ang))
                assert abs(p(z)) > abs(z)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            escape_radius(P(0.0, 1.0))


class TestRender:
    def test_chebyshev_confined_to_axis(self):
        grid = render_filled_julia(CHEB, (-2.5, 2.5, -1.0, 1.0), (512, 205))
        rows = np.where((grid == 255).any(axis=1))[0]
        mid = (205 - 1) / 2
        assert rows.size > 0
        assert all(abs(r - mid) <= 1.0 for r in rows)

    def test_powering_unit_disk(self):
        grid = render_filled_julia(P(0.0, 0.0, 1.0), (-1.5, 1.5, -1.5, 1.5),
                                   (101, 101), max_iter=200)
        ys, xs = np.where(grid == 255)
        x = np.linspace(-1.5, 1.5, 101)[xs]
        y = np.linspace(1.5, -1.5, 101)[ys]
        assert (np.hypot(x, y) <= 1.0 + 0.05).all()

    def test_basilica_spreads_off_axis(self):
        grid = render_filled_julia(BASILICA, (-2.0, 2.0, -1.0, 1.0), (256, 129))
        ys, _ = np.where(grid == 255)
        mid = (129 - 1) / 2
        off = np.abs(ys - mid) > 1.0
        assert off.sum() >= 0.05 * ys.size

    def test_determinism(self):
        a = render_filled_julia(BASILICA, (-2, 2, -1, 1), (64, 33))
        b = render_filled_julia(BASILICA, (-2, 2, -1, 1), (64, 33))
        assert (a == b).all()

    def test_exact_coefficients_render_as_floats(self):
        # the radius is the float one: exact coefficients change no pixel
        for p in (P(-1, 0, 1), Polynomial([Fraction(-3, 4), 0, 1])):
            grid = render_filled_julia(p, (-2, 2, -1, 1), (64, 33))
            assert (grid == render_filled_julia(p.to_float(), (-2, 2, -1, 1), (64, 33))).all()


class TestBackwardOrbit:
    def test_level_one(self):
        orb = backward_orbit(CHEB, 0.0, 1)
        assert np.allclose(sorted(orb.points.real),
                           [-math.sqrt(2), math.sqrt(2)], atol=1e-12)

    def test_level_two(self):
        orb = backward_orbit(CHEB, 0.0, 2)
        want = sorted([math.sqrt(2 + math.sqrt(2)), -math.sqrt(2 + math.sqrt(2)),
                       math.sqrt(2 - math.sqrt(2)), -math.sqrt(2 - math.sqrt(2))])
        assert np.allclose(sorted(orb.points.real), want, atol=1e-10)
        assert np.abs(orb.points.imag).max() < 1e-12

    def test_residual_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = Polynomial(list(rng.uniform(-2, 2, rng.integers(3, 5))))
            if abs(p.lead) < 0.3:
                continue
            alpha = rng.uniform(-1, 1)
            orb = backward_orbit(p, alpha, 5)
            assert orb.residuals().max() <= 1e-6 * (1 + abs(alpha))

    def test_conjugation_closure(self):
        # each point is matched one to one with a conjugate: the two members
        # of a pair may differ by an ulp, so their sort orders need not agree
        orb = backward_orbit(BASILICA, 1 / 3, 4)
        conj = list(np.conj(orb.points))
        for z in orb.points:
            k = int(np.argmin(np.abs(np.array(conj) - z)))
            assert abs(conj.pop(k) - z) <= 1e-9

    def test_cap(self):
        with pytest.raises(OrbitCapError):
            backward_orbit(CHEB, 0.0, 40)

    def test_level_order_keeps_ties_in_solver_order(self, monkeypatch):
        # equal points and +-0.0 parts keep the order of a lexsort on
        # (imag, real), sign bits included; 64 points, past the length at
        # which an unstable sort reorders ties
        parts = np.random.default_rng(31).choice([0.0, -0.0, 1.0, -1.0, 2.0], (64, 2))
        level = np.array([complex(x, y) for x, y in parts])
        monkeypatch.setattr(orbit, "roots_shifted", lambda q, ts: level[None, :])
        got = backward_orbit(P(*[0.0] * 64, 1.0), 0.0, 1).points
        want = level[np.lexsort((level.imag, level.real))]
        assert got.tobytes() == want.tobytes()

    def test_cardinality(self):
        orb = backward_orbit(P(0.0, -1.0, 0.0, 1.0), 0.25, 3)
        assert orb.points.size == 27


class TestMaxImag:
    def test_basilica_depth_two_hand_value(self):
        orb = backward_orbit(BASILICA, 1 / 3, 2)
        want = math.sqrt(math.sqrt(4 / 3) - 1)
        assert abs(max_imag_stat(orb) - want) < 1e-6
        assert max_imag_stat(orb) > 0.39

    def test_chebyshev_stays_real(self):
        for depth in (4, 8, 12):
            orb = backward_orbit(CHEB, 1 / 3, depth)
            assert max_imag_stat(orb) <= 1e-9


class TestArcsineOracle:
    def test_closed_form_matches_simulation(self):
        # independent validation: push uniform theta through 2cos(theta)
        rng = np.random.default_rng(100)
        sample = 2 * np.cos(rng.uniform(0, math.pi, 200_000))
        xs = np.linspace(-1.95, 1.95, 41)
        emp = np.searchsorted(np.sort(sample), xs, side="right") / sample.size
        closed = np.array([arcsine_cdf(x) for x in xs])
        assert np.abs(emp - closed).max() < 5e-3

    def test_equidistribution_limit(self):
        orb = backward_orbit(CHEB, 1 / 3, 14)
        m = EmpiricalMeasure.from_orbit(orb)
        assert not m.has_nonreal
        assert m.cdf_distance(arcsine_cdf) <= 0.02


class TestKS:
    def test_identical_zero(self):
        m = EmpiricalMeasure(np.array([1.0, 2.0, 3.0], dtype=complex))
        assert empirical_cdf_distance(m, m) == 0.0

    def test_symmetry(self):
        a = EmpiricalMeasure(np.array([0.0, 1.0], dtype=complex))
        b = EmpiricalMeasure(np.array([0.5, 1.5, 2.0], dtype=complex))
        assert empirical_cdf_distance(a, b) == empirical_cdf_distance(b, a)

    def test_known_distance(self):
        a = EmpiricalMeasure(np.array([0.0], dtype=complex))
        b = EmpiricalMeasure(np.array([1.0], dtype=complex))
        assert empirical_cdf_distance(a, b) == 1.0

    def test_cauchy_levels(self):
        dists = []
        for n in (6, 8, 10):
            m1 = EmpiricalMeasure.from_orbit(backward_orbit(CHEB, 1 / 3, n))
            m2 = EmpiricalMeasure.from_orbit(backward_orbit(CHEB, 1 / 3, n + 2))
            dists.append(empirical_cdf_distance(m1, m2))
        inversions = [y - x for x, y in zip(dists, dists[1:]) if y > x]
        assert len(inversions) <= 1
        assert all(v < 0.005 for v in inversions)

    def test_nonreal_flagged(self):
        orb = backward_orbit(BASILICA, 1 / 3, 3)
        assert EmpiricalMeasure.from_orbit(orb).has_nonreal


class TestExceptionalGuard:
    def test_powering_origin_refused(self):
        with pytest.raises(ExceptionalPointError):
            check_non_exceptional(P(0.0, 0.0, 1.0), 0.0)

    def test_ordinary_point_passes(self):
        check_non_exceptional(CHEB, 0.0)

    def test_totally_ramified_cubic_refused(self):
        # f + 4 = (X + 1)^3 / 3: the float roots of a triple root scatter by
        # about eps^(1/3), far past any fixed tolerance
        f = P(Fraction(-11, 3), 1, 1, Fraction(1, 3))
        with pytest.raises(ExceptionalPointError, match="single point -1/1"):
            check_non_exceptional(f, -4)
        check_non_exceptional(f, Fraction(-4) + Fraction(1, 10**30))

    def test_totally_ramified_quartic_refused(self):
        # (X + 1)^4 at 0
        with pytest.raises(ExceptionalPointError, match="single point -1/1"):
            check_non_exceptional(P(1, 4, 6, 4, 1), 0)

    def test_float_input_taken_exactly(self):
        # (X - 1/2)^2 in floats is exact, so 0.0 is refused; 2^-60 is not
        with pytest.raises(ExceptionalPointError):
            check_non_exceptional(P(0.25, -1.0, 1.0), 0.0)
        check_non_exceptional(P(0.25, -1.0, 1.0), 2.0**-60)

    def test_infinity_as_a_second_preimage(self):
        # (X^2 + 2X + 2) / (X^2 + 1) = 1 at X = -1/2 and at infinity
        check_non_exceptional(RationalMap(P(2, 2, 1), P(1, 0, 1)), 1)

    def test_infinity_as_the_only_preimage(self):
        # 1 / X^2 takes the value 0 at infinity only
        with pytest.raises(ExceptionalPointError, match="degenerate"):
            check_non_exceptional(RationalMap(P(1), P(0, 0, 1)), 0)


NONZERO_Q = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 50))
RATIONAL = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(NONZERO_Q, RATIONAL, RATIONAL, st.integers(2, 6), NONZERO_Q)
def test_power_map_exceptional_exactly_at_its_critical_value(c, beta, alpha, d, delta):
    # c (X - beta)^d + alpha has the one preimage beta over alpha, and d
    # distinct preimages over every other value
    f = P(*(c * math.comb(d, k) * (-beta) ** (d - k) + (alpha if k == 0 else 0)
            for k in range(d + 1)))
    with pytest.raises(ExceptionalPointError):
        check_non_exceptional(f, alpha)
    check_non_exceptional(f, alpha + delta)


class TestInputChecks:
    def test_negative_depth(self):
        with pytest.raises(ValueError):
            backward_orbit(CHEB, 0.5, -1)

    def test_zero_max_iter(self):
        with pytest.raises(ValueError):
            render_filled_julia(CHEB, (-2, 2, -1, 1), (4, 4), max_iter=0)


class TestOrbitStatus:
    def test_periodic(self):
        st = orbit_status(P(-1, 0, 1), Fraction(0))
        assert st.tag == "periodic" and st.period == 2

    def test_preperiodic(self):
        st = orbit_status(P(-2, 0, 1), Fraction(0))
        assert st.tag == "preperiodic"
        assert st.tail == 2 and st.period == 1

    def test_denominator_growth(self):
        st = orbit_status(P(-2, 0, 1), Fraction(1, 3))
        assert st.tag == "nonperiodic"
        assert "denominator-growth" in st.reason
        assert st.prefix[:3] == [Fraction(1, 3), Fraction(-17, 9), Fraction(127, 81)]

    def test_escape(self):
        st = orbit_status(P(-2, 0, 1), Fraction(3))
        assert st.tag == "nonperiodic"
        assert "escape" in st.reason

    def test_deterministic(self):
        a = orbit_status(P(-2, 0, 1), Fraction(1, 3))
        b = orbit_status(P(-2, 0, 1), Fraction(1, 3))
        assert a.to_json() == b.to_json()

    def test_rejects_float_coefficients(self):
        with pytest.raises(ValueError):
            orbit_status(P(0.5, 0.25, 1.0), Fraction(1))

    def test_rejects_degree_below_two(self):
        # x -> -x and x -> x + 1 keep the denominator 2 of 1/2: the
        # denominator-growth rule holds only for d >= 2
        for p in (P(0, -1), P(1, 1)):
            with pytest.raises(ValueError, match="degree >= 2"):
                orbit_status(p, Fraction(1, 2))

    def test_denominator_growth_needs_no_orbit(self, monkeypatch):
        # the rule is a proof: it holds with no step taken and past the bit cap
        st = orbit_status(P(-2, 0, 1), Fraction(1, 3), max_steps=0)
        assert st.tag == "nonperiodic" and st.prefix == [Fraction(1, 3)]
        monkeypatch.setattr(orbit, "DEFAULT_BIT_CAP", 8)
        st = orbit_status(P(-2, 0, 1), Fraction(1, 3))
        assert st.tag == "nonperiodic" and "denominator-growth" in st.reason
        assert st.prefix == [Fraction(1, 3), Fraction(-17, 9), Fraction(127, 81),
                             Fraction(3007, 6561)]

    def test_denominator_past_the_str_limit(self):
        # str() refuses integers of more than 4,300 digits; the reason and
        # the prefix write such an integer in hexadecimal
        q = 3 ** 70000
        status = orbit_status(P(-2, 0, 1), Fraction(1, q))
        assert status.tag == "nonperiodic"
        assert f"q={q:#x}, d=2" in status.reason
        assert status.to_json()["prefix"][0] == f"1/{q:#x}"

    def test_escape_past_the_float_range(self):
        status = orbit_status(P(0, Fraction(-1, 2), 0, 1), Fraction(10**400))
        assert status.reason == "escape: |f^1(alpha)| = 1e+1200 exceeds escape radius 2.5"

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-17, 9), Fraction(10**300, 7),
                                   Fraction(7, 10**300), Fraction(123456789, 1000)])
    def test_number_text_as_before_where_it_fits(self, x):
        assert _number_text(x) == f"{x.numerator}/{x.denominator}"
        assert _number_text(x.numerator) == str(x.numerator)
        assert _number_text(x, True) == f"{x.numerator / x.denominator:.6g}"

    def test_undecided_possible(self):
        # non-monic map with a bounded, apparently aperiodic rational orbit
        st = orbit_status(Polynomial([Fraction(-7, 8), 0, 1]), Fraction(0),
                          max_steps=12)
        assert st.tag == "undecided"
