import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from juliareal import heights
from juliareal.cli import main
from juliareal.heights import (BitSizeCapError, _ball_log_height, _exact_orbit_point,
                               _log_height, _orbit_height, canonical_height,
                               functional_equation_residual, height_constant,
                               weil_height)
from juliareal.orbit import orbit_status
from juliareal.poly import Polynomial, _PairMap


def P(*coeffs):
    return Polynomial(list(coeffs))


SQ = P(0, 0, 1)
CHEB = P(-2, 0, 1)


class TestWeil:
    def test_values(self):
        assert weil_height(0) == 0.0
        assert weil_height(2) == math.log(2)
        assert weil_height(Fraction(3, 5)) == math.log(5)
        assert weil_height(Fraction(-7, 2)) == math.log(7)

    def test_reduction_to_lowest_terms(self):
        assert weil_height(Fraction(4, 8)) == math.log(2)


class TestCanonical:
    def test_powering_exact_log2(self):
        for n in range(1, 11):
            est, err = canonical_height(SQ, 2, n)
            assert est == math.log(2)

    def test_fixed_point_of_chebyshev(self):
        for n in (3, 6, 9):
            est, err = canonical_height(CHEB, 2, n)
            assert est <= err

    def test_preperiodic_below_error_bound(self):
        for p, x in [(CHEB, Fraction(0)), (P(-1, 0, 1), Fraction(-1)),
                     (CHEB, Fraction(-2))]:
            st = orbit_status(p, x)
            assert st.tag in ("periodic", "preperiodic")
            est, err = canonical_height(p, x, 12)
            assert est <= err

    def test_monotone_convergence(self):
        p = CHEB
        x = Fraction(1, 3)
        C = height_constant(p)
        prev, _ = canonical_height(p, x, 4)
        for n in range(5, 14):
            cur, _ = canonical_height(p, x, n)
            assert abs(cur - prev) <= C / 2 ** (n - 1)
            prev = cur

    def test_nonnegative_within_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            coeffs = [int(v) for v in rng.integers(-3, 4, 3)] + [1]
            p = Polynomial(coeffs)
            x = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
            est, err = canonical_height(p, x, 6)
            assert est >= -err

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            canonical_height(P(1, 1), 2, 3)

    def test_bit_cap(self):
        with pytest.raises(BitSizeCapError):
            canonical_height(P(0, 0, 0, 0, 1), Fraction(12345, 7), 12)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_bound_holds_with_coefficient_denominators(self, n):
        # X^2/1000 sends 1 to 1/1000, which it fixes: h^(1) = log 1000
        est, err = canonical_height(P(0, 0, Fraction(1, 1000)), 1, n)
        assert abs(est - math.log(1000)) <= err


SMALL_DEN = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 1000])
RATIONAL = st.builds(Fraction, st.integers(-12, 12), SMALL_DEN)


class TestHeightConstant:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(RATIONAL, min_size=2, max_size=5),
           st.builds(Fraction, st.integers(-12, 12).filter(bool), SMALL_DEN),
           st.builds(Fraction, st.integers(-10 ** 5, 10 ** 5), st.integers(1, 10 ** 5)))
    # points where the parent's crude constant failed: X^2/1000 at 1, and a
    # point near the real root 2^(1/2) of X^2 - 2, where A = N^2 - 2 D^2 is small
    @example([Fraction(0), Fraction(0)], Fraction(1, 1000), Fraction(1))
    @example([Fraction(-2), Fraction(0)], Fraction(1), Fraction(141421, 100000))
    def test_one_step(self, low, lead, y):
        coeffs = low + [lead]
        d = len(low)
        fy = fraction_orbit_point(coeffs, y, 1)
        assert abs(weil_height(fy) - d * weil_height(y)) <= height_constant(Polynomial(coeffs))

    def test_powering_keeps_the_crude_constant(self):
        # C_up = C_low = 0 for X^2; the crude constant in the max keeps C > 0
        assert height_constant(SQ) == math.log(2.0) + 2 * math.log(2.0)


class TestFunctionalEquation:
    def test_powering_zero_residual(self):
        assert functional_equation_residual(SQ, 3, 5) == 0.0

    def test_chebyshev_rational(self):
        assert functional_equation_residual(CHEB, Fraction(1, 3), 10) <= 1e-12

    def test_preperiodic(self):
        assert functional_equation_residual(CHEB, 2, 8) == 0.0

    def test_random_monic_integer(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            coeffs = [int(v) for v in rng.integers(-4, 5, d)] + [1]
            p = Polynomial(coeffs)
            x = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
            n = 8 if d == 2 else 5
            assert functional_equation_residual(p, x, n) <= 1e-12


def fraction_orbit_point(coeffs, x, n):
    """f^n(x) by Horner's rule over Fraction."""
    v = Fraction(x)
    for _ in range(n):
        acc = Fraction(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * v + c
        v = acc
    return v


# denominators built from the primes 2 and 3, so that the denominators of
# x, the lead coefficient and the lcm L of the coefficient denominators
# share primes in every combination
SMOOTH = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 27])
COEFF = st.builds(Fraction, st.integers(-12, 12), SMOOTH)
NONZERO = st.builds(Fraction, st.integers(-12, 12).filter(bool), SMOOTH)


class TestIntegerOrbit:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(COEFF, min_size=0, max_size=4), NONZERO, COEFF, st.integers(0, 4))
    # orbits that land on 0, from x with a denominator
    @example([Fraction(0), Fraction(1)], Fraction(2), Fraction(-1, 2), 1)
    @example([Fraction(-1, 3), Fraction(0)], Fraction(3), Fraction(1, 3), 2)
    # a non-monic lead sharing the prime 2 with L and with the denominator of x
    @example([Fraction(1, 4), Fraction(-3, 2)], Fraction(6), Fraction(5, 8), 4)
    def test_equals_fraction_horner_in_lowest_terms(self, low, lead, x, n):
        coeffs = low + [lead]
        N, D = _exact_orbit_point(Polynomial(coeffs), x, n, heights.DEFAULT_BIT_CAP)
        ref = fraction_orbit_point(coeffs, x, n)
        assert (N, D) == (ref.numerator, ref.denominator)

    def test_float_and_integer_coefficients(self):
        p = Polynomial([0.5, -3, 2])
        N, D = _exact_orbit_point(p, 0.25, 3, heights.DEFAULT_BIT_CAP)
        ref = fraction_orbit_point([Fraction(1, 2), -3, 2], Fraction(1, 4), 3)
        assert (N, D) == (ref.numerator, ref.denominator)

    def test_residual_runs_one_orbit(self, monkeypatch):
        calls = []
        orbit = heights._orbit_height
        monkeypatch.setattr(heights, "_orbit_height",
                            lambda *a: calls.append(a[2]) or orbit(*a))
        functional_equation_residual(CHEB, Fraction(1, 3), 10)
        assert calls == [10]

    def test_heights_command_runs_one_orbit(self, monkeypatch, capsys):
        calls = []
        orbit = heights._orbit_height
        monkeypatch.setattr(heights, "_orbit_height",
                            lambda *a: calls.append(a[2]) or orbit(*a))
        assert main(["heights", "--poly", "[-2,0,1]", "--x", "1/3", "--depth", "8"]) == 0
        assert calls == [8]
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] == canonical_height(CHEB, Fraction(1, 3), 8)[0]
        assert payload["residual"] == functional_equation_residual(CHEB, Fraction(1, 3), 8)

    def test_residual_cap_counts_steps_from_x(self):
        with pytest.raises(BitSizeCapError) as residual:
            functional_equation_residual(P(0, 0, 0, 0, 1), Fraction(12345, 7), 12)
        with pytest.raises(BitSizeCapError) as height:
            canonical_height(P(0, 0, 0, 0, 1), Fraction(12345, 7), 12)
        assert str(residual.value) == str(height.value)


INT_LOW = st.lists(st.integers(-6, 6), min_size=2, max_size=5)
UNIT = st.sampled_from([-1, 1])
X = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))


def exact_height(p, x, n, bit_cap):
    """log height of f^n(x) by the exact orbit, or its BitSizeCapError text."""
    try:
        return _log_height(*_exact_orbit_point(p, x, n, bit_cap))
    except BitSizeCapError as exc:
        return str(exc)


def ball_height(p, x, n, bit_cap):
    """The ball orbit's log height (None when undecided), or its
    BitSizeCapError text."""
    try:
        return _ball_log_height(_PairMap(p, P(1)), Fraction(x), n, bit_cap)
    except BitSizeCapError as exc:
        return str(exc)


class TestBallOrbit:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(INT_LOW, UNIT, X, st.integers(1, 12), st.integers(50, 3000))
    @example([0, 0], 1, Fraction(2), 12, 3000)     # N = 2^(2^k), a power of two
    @example([-2, 0], 1, Fraction(2), 12, 50)      # a fixed point, never trimmed
    @example([-3, 0], -1, Fraction(5, 7), 12, 3000)
    def test_bit_identical_to_exact_orbit(self, low, lead, x, n, bit_cap):
        p = Polynomial(low + [lead])
        assert ball_height(p, x, n, bit_cap) == exact_height(p, x, n, bit_cap)

    def test_deep_orbit(self):
        # N has about 207k bits at step 16, D = 7^(2^16) about 184k
        p = P(-3, 0, 1)
        N, D = _exact_orbit_point(p, Fraction(5, 7), 16, heights.DEFAULT_BIT_CAP)
        assert N.bit_length() > 200_000
        assert ball_height(p, Fraction(5, 7), 16, heights.DEFAULT_BIT_CAP) == _log_height(N, D)

    def test_fast_path_runs_no_exact_orbit(self, monkeypatch):
        def no_exact(*a):
            raise AssertionError("exact orbit ran")
        monkeypatch.setattr(heights, "_exact_orbit_point", no_exact)
        assert canonical_height(CHEB, Fraction(1, 3), 10)[0] > 0

    def test_undecided_balls_fall_back(self, monkeypatch):
        cases = [(CHEB, Fraction(1, 3), 10), (P(1, -2, 0, 1), Fraction(-4, 7), 9)]
        expected = [heights.height_report(*case) for case in cases]
        calls = []
        orbit = heights._exact_orbit_point
        monkeypatch.setattr(heights, "_exact_orbit_point",
                            lambda *a: calls.append(a[2]) or orbit(*a))
        monkeypatch.setattr(heights, "BALL_BITS", 4)
        assert [ball_height(*case, heights.DEFAULT_BIT_CAP) for case in cases] == [None, None]
        assert [heights.height_report(*case) for case in cases] == expected
        assert calls == [10, 9]

    def test_undecided_cap_check_falls_back(self):
        # X^5 at 2: N = 2^625 after 4 steps, a ball of bit length 625 or 626
        # with D = 1, while 627 bits is the exact count.  With cap 783 the
        # check before step 5 refuses more than 4 * 783 // 5 = 626 bits,
        # which the balls cannot decide
        p, x, cap = P(0, 0, 0, 0, 0, 1), Fraction(2), 783
        assert ball_height(p, x, 5, cap) is None
        with pytest.raises(BitSizeCapError) as orbit:
            _orbit_height(p, x, 5, cap)
        assert str(orbit.value) == exact_height(p, x, 5, cap)
        assert "would exceed" in str(orbit.value)

    @pytest.mark.parametrize("p", [P(0, 0, Fraction(1, 1000)), P(1, 0, 2),
                                   P(Fraction(1, 4), Fraction(-3, 2), 6)],
                             ids=["X^2/1000", "2X^2+1", "golden"])
    def test_other_maps_take_the_exact_orbit(self, monkeypatch, p):
        def no_balls(*a):
            raise AssertionError("ball orbit ran with R != 1")
        monkeypatch.setattr(heights, "_ball_log_height", no_balls)
        x = Fraction(5, 8)
        assert _orbit_height(p.to_exact(), x, 6, heights.DEFAULT_BIT_CAP) == \
            _log_height(*_exact_orbit_point(p, x, 6, heights.DEFAULT_BIT_CAP))
