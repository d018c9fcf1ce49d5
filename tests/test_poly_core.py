import math
from fractions import Fraction

import numpy as np
import pytest

from juliareal.poly import (AffineMap, DegreeCapError, Polynomial, close,
                            conjugate, discriminant,
                            poly_from_json, poly_to_json, resultant,
                            sylvester_resultant)


def P(*coeffs):
    return Polynomial(list(coeffs))


class TestBasics:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0).degree == 0 and P(0).is_zero

    def test_eval_horner(self):
        p = P(1, -3, 2)        # 2x^2 - 3x + 1
        assert p(2) == 3
        assert p(Fraction(1, 2)) == 0

    def test_eval_many_matches_scalar(self):
        p = P(0.5, -1.0, 0.0, 2.0)
        xs = np.linspace(-2, 2, 17)
        assert np.allclose(p.eval_many(xs), [p(x) for x in xs])

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

    def test_mul_large_float_path_matches_exact(self):
        rng = np.random.default_rng(0)
        a = Polynomial(list(rng.uniform(-1, 1, 70)))
        b = Polynomial(list(rng.uniform(-1, 1, 70)))
        slow = Polynomial([0.0])
        # exact reference via integer-free convolution by hand
        out = [0.0] * (a.degree + b.degree + 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
        prod = a * b
        assert np.allclose(prod.coeffs, out)
        del slow

    def test_derivative(self):
        assert P(5, 3, 0, 2).derivative().coeffs == (3, 0, 6)
        assert P(7).derivative().is_zero


class TestComposeIterate:
    def test_compose(self):
        f = P(-2, 0, 1)        # x^2 - 2
        g = f.compose(f)
        x = 1.7
        assert close(g(x), f(f(x)))

    def test_iterate_chebyshev_identity(self):
        # x^2 - 2 semiconjugates to doubling: f^n(2cos t) = 2cos(2^n t)
        f = P(-2.0, 0.0, 1.0)
        g = f.iterate(3)
        for t in np.linspace(0, math.pi, 9):
            assert close(g(2 * math.cos(t)), 2 * math.cos(8 * t), rel=1e-9, abs_=1e-9)

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            P(0, 0, 0, 1).iterate(20)

    def test_divmod_exact(self):
        a = P(Fraction(-1), 0, 1)          # x^2 - 1
        b = P(Fraction(-1), 1)             # x - 1
        q, r = a.divmod_exact(b)
        assert q.coeffs == (1, 1) and r.is_zero

    def test_gcd_exact(self):
        a = P(-1, 0, 1)                    # (x-1)(x+1)
        b = P(-1, 2, -1).__neg__()         # (x-1)^2
        g = a.gcd_exact(b)
        assert g.coeffs == (-1, 1)


class TestAffine:
    def test_inverse_roundtrip(self):
        phi = AffineMap(2.5, -0.75)
        inv = phi.inverse()
        for x in (-3.0, 0.1, 7.0):
            assert close(inv(phi(x)), x)

    def test_conjugation_preserves_dynamics(self):
        f = P(-1.0, 0.5, 1.0)
        phi = AffineMap(1.7, 0.3)
        g = conjugate(f, phi)
        x = 0.42
        assert close(g(phi(x)), phi(f(x)))

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(0.0, 1.0)


class TestResultants:
    def test_resultant_of_coprime_linear(self):
        # res(x-a, x-b) = b - a up to sign convention
        a, b = Fraction(2), Fraction(5)
        r = resultant(P(-a, 1), P(-b, 1))
        assert abs(r) == 3

    def test_resultant_zero_iff_common_root(self):
        assert resultant(P(-1, 0, 1), P(-1, 1)) == 0
        assert resultant(P(-1, 0, 1), P(-3, 1)) != 0

    def test_quadratic_discriminant(self):
        assert discriminant(P(Fraction(-2), 0, 1)) == 8
        assert discriminant(P(1, 0, 1)) == -4

    def test_cubic_discriminant_sign(self):
        # three real roots -> positive, one real root -> negative
        assert discriminant(P(0, -1, 0, 1)) > 0     # x^3 - x
        assert discriminant(P(-2, 0, 0, 1)) < 0     # x^3 - 2
        assert discriminant(P(-2, 0, 0, 1)) == -108

    def test_general_discriminant_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = [Fraction(int(v), 8) for v in rng.integers(-16, 17, 4)]
            if c[3] == 0:
                c[3] = Fraction(1)
            p = Polynomial(c)
            closed = discriminant(p)
            # degree-4 padding route: multiply by (x - 5) and use the
            # factor formula disc(pq) = disc(p) disc(q) res(p,q)^2
            q = Polynomial([Fraction(-5), Fraction(1)])
            whole = discriminant(p * q)
            assert whole == closed * resultant(p, q) ** 2

    def test_homogeneous_padding(self):
        # padded sequences give resultants of forms of the padded degree:
        # res over forms of (x-1, x-2) padded to quadratics picks up the
        # extra root at infinity
        plain = sylvester_resultant([-1, 1], [-2, 1])
        padded = sylvester_resultant([-1, 1, 0], [-2, 1, 0])
        assert plain != 0
        assert padded == 0


class TestSerialization:
    def test_roundtrip_exact(self):
        p = P(Fraction(1, 3), -2, Fraction(7, 5))
        assert poly_from_json(poly_to_json(p)) == p

    def test_roundtrip_float(self):
        p = P(0.25, -1.5)
        assert poly_from_json(poly_to_json(p)) == p
