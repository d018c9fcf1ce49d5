import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from juliareal.poly import (AffineMap, DegreeCapError, Polynomial, _det_exact, conjugate,
                            poly_from_json, poly_to_json, sylvester_resultant)


def P(*coeffs):
    return Polynomial(list(coeffs))


def reference_array_horner(p, z):
    """Horner's rule on an array with every coefficient cast to its dtype."""
    cast = complex if np.iscomplexobj(z) else float
    acc = np.full(z.shape, cast(p.coeffs[-1]), dtype=z.dtype)
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + cast(c)
    return acc


class TestBasics:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0).degree == 0 and P(0).is_zero

    def test_eval_horner(self):
        p = P(1, -3, 2)        # 2x^2 - 3x + 1
        assert p(2) == 3
        assert p(Fraction(1, 2)) == 0

    def test_call_on_arrays(self):
        # numpy arrays go through the same Horner loop as numbers: a real array
        # gives the scalar values bit for bit, a complex array the bytes of
        # Horner with complex-cast coefficients (numpy's vector complex product
        # may round differently from Python's scalar one)
        rng = np.random.default_rng(7)
        for degree, scale in itertools.product(range(1, 8), (1e-3, 1.0, 1e3)):
            p = Polynomial([float(c) for c in scale * rng.normal(size=degree + 1)])
            x = 3.0 * rng.normal(size=37)
            z = x + 3j * rng.normal(size=37)
            assert p(x).tobytes() == np.array([p(float(v)) for v in x]).tobytes()
            assert p(z).tobytes() == reference_array_horner(p, z).tobytes()
            bound = 1e-13 * sum(abs(c) * np.abs(z) ** i for i, c in enumerate(p.coeffs))
            assert (np.abs(p(z) - np.array([p(complex(v)) for v in z])) <= bound).all()

    def test_exactness_tracking(self):
        assert P(1, Fraction(1, 2)).is_exact
        assert not P(1.0, 2).is_exact
        assert P(1.0, 2).to_exact().is_exact

    def test_immutable(self):
        p = P(1, 2)
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_arithmetic(self):
        p, q = P(1, 1), P(-1, 1)
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - p).is_zero


    def test_derivative(self):
        assert P(5, 3, 0, 2).derivative().coeffs == (3, 0, 6)
        assert P(7).derivative().is_zero


class TestComposeIterate:
    def test_compose(self):
        f = P(-2, 0, 1)        # x^2 - 2
        g = f.compose(f)
        x = 1.7
        assert math.isclose(g(x), f(f(x)), rel_tol=1e-9, abs_tol=1e-12)

    def test_iterate_chebyshev_identity(self):
        # x^2 - 2 semiconjugates to doubling: f^n(2cos t) = 2cos(2^n t)
        f = P(-2.0, 0.0, 1.0)
        g = f.iterate(3)
        for t in np.linspace(0, math.pi, 9):
            assert math.isclose(g(2 * math.cos(t)), 2 * math.cos(8 * t),
                                rel_tol=1e-9, abs_tol=1e-9)

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            P(0, 0, 0, 1).iterate(20)

    def test_divmod_exact(self):
        a = P(Fraction(-1), 0, 1)          # x^2 - 1
        b = P(Fraction(-1), 1)             # x - 1
        q, r = a.divmod_exact(b)
        assert q.coeffs == (1, 1) and r.is_zero


class TestAffine:
    def test_inverse_roundtrip(self):
        phi = AffineMap(2.5, -0.75)
        inv = phi.inverse()
        for x in (-3.0, 0.1, 7.0):
            assert math.isclose(inv(phi(x)), x, rel_tol=1e-9, abs_tol=1e-12)

    def test_conjugation_preserves_dynamics(self):
        f = P(-1.0, 0.5, 1.0)
        phi = AffineMap(1.7, 0.3)
        g = conjugate(f, phi)
        x = 0.42
        assert math.isclose(g(phi(x)), phi(f(x)), rel_tol=1e-9, abs_tol=1e-12)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(0.0, 1.0)


class TestResultants:
    def test_resultant_of_coprime_linear(self):
        # res(x-a, x-b) = b - a up to sign convention
        a, b = Fraction(2), Fraction(5)
        r = sylvester_resultant([-a, 1], [-b, 1])
        assert abs(r) == 3

    def test_resultant_zero_iff_common_root(self):
        assert sylvester_resultant([-1, 0, 1], [-1, 1]) == 0
        assert sylvester_resultant([-1, 0, 1], [-3, 1]) != 0

    def test_homogeneous_padding(self):
        # padded sequences give resultants of forms of the padded degree:
        # res over forms of (x-1, x-2) padded to quadratics picks up the
        # extra root at infinity
        plain = sylvester_resultant([-1, 1], [-2, 1])
        padded = sylvester_resultant([-1, 1, 0], [-2, 1, 0])
        assert plain != 0
        assert padded == 0

    def test_float_coefficients_taken_exactly(self):
        # 0.1 is the dyadic Fraction(0.1), not 1/10, and the resultant of
        # its rows is that Fraction's, with no rounding
        r = sylvester_resultant([0.1, 1.0], [3.0, 1.0])
        assert r == sylvester_resultant([Fraction(0.1), 1], [3, 1])
        assert isinstance(r, Fraction)


def fraction_bareiss(rows):
    """Bareiss determinant over Fraction, pivoting on the first nonzero entry."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# mostly zeros, so that pivots vanish and rows or whole columns are zero
ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                  st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    return [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(n)]


class TestExactDeterminant:
    @PROPERTY
    @given(square_matrices())
    # a zero pivot that forces a row swap
    @example([[0, 1, 2], [3, 0, 1], [Fraction(1, 2), 4, 0]])
    # singular: a zero column, and two proportional rows
    @example([[0, 1], [0, Fraction(2, 3)]])
    @example([[1, Fraction(1, 2), 3], [2, 1, 6], [5, 7, Fraction(-1, 9)]])
    def test_equals_fraction_bareiss(self, rows):
        det = _det_exact(rows)
        assert isinstance(det, Fraction)
        assert det == fraction_bareiss(rows)

    def test_row_swap_sign(self):
        assert _det_exact([[0, 1], [1, 0]]) == -1
        assert _det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_singular(self):
        assert _det_exact([[Fraction(1, 3), Fraction(2, 3)], [1, 2]]) == 0
        assert _det_exact([[0, 5], [0, 7]]) == 0

    @PROPERTY
    @given(st.lists(ENTRY, min_size=1, max_size=6), st.lists(ENTRY, min_size=1, max_size=6))
    def test_resultant_is_the_sylvester_determinant(self, a, b):
        m, n = len(a) - 1, len(b) - 1
        if m == n == 0:
            assert sylvester_resultant(a, b) == 1
            return
        size = m + n
        rows = ([[0] * i + a[::-1] + [0] * (size - m - 1 - i) for i in range(n)]
                + [[0] * i + b[::-1] + [0] * (size - n - 1 - i) for i in range(m)])
        assert sylvester_resultant(a, b) == fraction_bareiss(rows)


class TestSerialization:
    def test_roundtrip_exact(self):
        p = P(Fraction(1, 3), -2, Fraction(7, 5))
        assert poly_from_json(poly_to_json(p)) == p

    def test_roundtrip_float(self):
        p = P(0.25, -1.5)
        assert poly_from_json(poly_to_json(p)) == p
