import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from juliareal import heights
from juliareal.cli import main
from juliareal.heights import (BitSizeCapError, _exact_orbit_point, canonical_height,
                               functional_equation_residual, height_constant,
                               weil_height)
from juliareal.orbit import orbit_status
from juliareal.poly import Polynomial


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
        orbit = heights._exact_orbit_point
        monkeypatch.setattr(heights, "_exact_orbit_point",
                            lambda *a: calls.append(a[2]) or orbit(*a))
        functional_equation_residual(CHEB, Fraction(1, 3), 10)
        assert calls == [10]

    def test_heights_command_runs_one_orbit(self, monkeypatch, capsys):
        calls = []
        orbit = heights._exact_orbit_point
        monkeypatch.setattr(heights, "_exact_orbit_point",
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
