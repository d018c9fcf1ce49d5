import math
from fractions import Fraction

import numpy as np
import pytest

from juliareal import roots
from juliareal.orbit import backward_orbit
from juliareal.poly import Polynomial
from juliareal.roots import (RootFindingError, all_real_batch, all_real_shifted,
                             all_roots_real, complex_roots, real_root_count,
                             real_roots_batch, real_roots_ex, roots_batch,
                             roots_shifted, square_free_decomposition,
                             square_free_part)


def P(*coeffs):
    return Polynomial(list(coeffs))


def from_roots(roots):
    p = Polynomial([1.0])
    for r in roots:
        p = p * Polynomial([-r, 1.0])
    return p


def reference_horner(C, z):
    """Out-of-place Horner's rule: a fresh array for every term."""
    p = np.broadcast_to(C[:, -1:], z.shape).astype(complex)
    dp = np.zeros(z.shape, dtype=complex)
    for i in range(C.shape[1] - 2, -1, -1):
        dp = dp * z + p
        p = p * z + C[:, i:i + 1]
    return p, dp


class TestComplexRoots:
    def test_quadratic_closed_form(self):
        r = complex_roots(P(-2.0, 0.0, 1.0))
        assert np.allclose(sorted(r.real), [-math.sqrt(2), math.sqrt(2)])
        assert np.allclose(r.imag, 0)

    def test_cancellation_stability(self):
        # x^2 - 1e8 x + 1: naive formula loses the small root entirely
        r = complex_roots(P(1.0, -1e8, 1.0))
        small = min(abs(z) for z in r)
        assert abs(small - 1e-8) < 1e-16

    def test_cubic_three_real(self):
        r = complex_roots(P(0.0, -1.0, 0.0, 1.0))
        assert np.allclose(sorted(r.real), [-1, 0, 1], atol=1e-12)

    def test_cubic_one_real(self):
        r = complex_roots(P(-2.0, 0.0, 0.0, 1.0))
        reals = [z for z in r if abs(z.imag) < 1e-9]
        assert len(reals) == 1
        assert abs(reals[0].real - 2 ** (1 / 3)) < 1e-12

    def test_high_degree_random(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            true = rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7)
            p = Polynomial([1.0])
            for t in true:
                p = p * Polynomial([-t, 1.0])
            r = complex_roots(p)
            # greedy matching
            got = list(r)
            for t in sorted(true, key=abs):
                j = min(range(len(got)), key=lambda k: abs(got[k] - t))
                assert abs(got.pop(j) - t) < 1e-6

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = Polynomial(list(rng.uniform(-2, 2, 6)))
            if abs(p.lead) < 0.1:
                continue
            r = complex_roots(p)
            conj = np.sort_complex(np.conj(r))
            assert np.allclose(np.sort_complex(r), conj, atol=1e-9)

    def test_wilkinson_mild(self):
        p = from_roots(np.arange(1.0, 11.0))
        r = np.sort(complex_roots(p).real)
        assert np.allclose(r, np.arange(1, 11), atol=1e-5)


class TestRootsShifted:
    def test_batch_matches_single(self):
        p = P(0.3, -1.2, 0.0, 0.5, 1.0)
        targets = np.array([-1.0, 0.0, 0.7, 2.5])
        batch = roots_shifted(p, targets)
        for t, row in zip(targets, batch):
            single = complex_roots(p - Polynomial([float(t)]))
            assert np.allclose(np.sort_complex(row), single, atol=1e-7)

    def test_roots_batch_rows_are_independent(self):
        # a row gets the roots it would get alone, bit for bit, even next to
        # a slow row: (X - 1)^2 (X + 2)(X - 3) shifted to a near-double root
        rng = np.random.default_rng(12)
        slow = np.array([-6.0 + 1e-9, 11.0, -3.0, -3.0, 1.0])
        for d in (2, 3, 4, 5, 6):
            C = rng.uniform(-2, 2, (6, d + 1))
            if d == 4:
                C = np.vstack([C, slow])
            batch = roots_batch(C)
            for row, z in zip(C, batch):
                assert np.array_equal(z, roots_shifted(Polynomial(list(row)), [0.0])[0])

    def test_stops_at_rounding_floor_near_double_root(self, monkeypatch):
        # 2T_4(x/2) - t at the cross-check's pulled-in endpoint t = -2 + 1e-9
        # has two pairs of roots 4e-5 apart: their Aberth steps stay rounding
        # noise, far above the step test, and used to run to the cap
        calls = []
        horner = roots._horner_many
        monkeypatch.setattr(roots, "_horner_many",
                            lambda C, z: calls.append(1) or horner(C, z))
        z = roots_batch(np.array([[2.0 + 2.0 - 1e-9, 0.0, -4.0, 0.0, 1.0]]))
        assert len(calls) < roots._ABERTH_MAX_ITER // 3
        x = np.sort(z[0].real)
        assert np.allclose(x, [-np.sqrt(2), -np.sqrt(2), np.sqrt(2), np.sqrt(2)], atol=1e-4)
        assert np.abs(z.imag).max() <= 1e-12

    def test_polish_reuses_each_residual(self, monkeypatch):
        # closed form, then one pass at the start of the polish and one per
        # step, whose value is both that step's residual and the next p
        calls = []
        horner = roots._horner_many
        monkeypatch.setattr(roots, "_horner_many",
                            lambda C, z: calls.append(1) or horner(C, z))
        roots_batch(np.array([[-0.5, 2.0, -1.0, 1.0]]))
        assert len(calls) == 1 + roots._POLISH_STEPS == 5

    def test_residuals_small(self):
        rng = np.random.default_rng(9)
        p = Polynomial(list(rng.uniform(-2, 2, 5)))
        targets = rng.uniform(-3, 3, 50)
        roots = roots_shifted(p, targets)
        vals = np.array([[p(z) for z in row] for row in roots])
        assert np.abs(vals - targets[:, None]).max() < 1e-7


class TestHornerKernel:
    def test_in_place_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for d in range(1, 7):
            for rows, k in ((1, d), (5, 3), (40, 7)):
                scale = 10.0 ** rng.uniform(-3, 3, (rows, d + 1))
                C = scale * (rng.standard_normal((rows, d + 1))
                             + 1j * rng.standard_normal((rows, d + 1)))
                z = 10.0 ** rng.uniform(-2, 1, (rows, k)) * np.exp(
                    2j * np.pi * rng.random((rows, k)))
                p, dp = roots._horner_many(C, z)
                ref_p, ref_dp = reference_horner(C, z)
                assert np.array_equal(p, ref_p) and np.array_equal(dp, ref_dp)


class TestNonConvergence:
    QUARTIC = P(0.3, -1.2, 0.0, 0.5, 1.0)

    def test_backward_orbit_names_the_level(self, monkeypatch):
        monkeypatch.setattr(roots, "_ABERTH_MAX_ITER", 1)
        with pytest.raises(RootFindingError, match="level 1") as info:
            backward_orbit(self.QUARTIC, 0.25, 2)
        assert info.value.best.shape == (1, 4)

    def test_complex_roots_raises(self, monkeypatch):
        monkeypatch.setattr(roots, "_ABERTH_MAX_ITER", 1)
        with pytest.raises(RootFindingError, match="did not converge") as info:
            complex_roots(self.QUARTIC)
        assert np.isfinite(info.value.best).all()


class TestRealRootsMultiplicity:
    def test_simple_roots(self):
        roots, marginal = real_roots_ex(P(0.0, -1.0, 0.0, 1.0))
        assert [m for _, m in roots] == [1, 1, 1]
        assert not marginal

    def test_double_root(self):
        roots, _ = real_roots_ex(from_roots([1.0, 1.0, -2.0]))
        assert sorted((round(x, 5), m) for x, m in roots) == [(-2.0, 1), (1.0, 2)]

    def test_triple_root(self):
        roots, _ = real_roots_ex(from_roots([0.5, 0.5, 0.5]))
        assert len(roots) == 1 and roots[0][1] == 3
        assert abs(roots[0][0] - 0.5) < 1e-5

    def test_iterated_cubic_triple_cluster(self):
        # (f^2 - X) for f = -X^3 + 2X factors as X (X^2-1)^3 (X^2-3)
        f = P(0.0, 2.0, 0.0, -1.0)
        q = f.iterate(2) - P(0.0, 1.0)
        roots, _ = real_roots_ex(q)
        assert sum(m for _, m in roots) == 9
        mults = {round(x, 3): m for x, m in roots}
        assert mults[1.0] == 3 and mults[-1.0] == 3
        assert mults[round(math.sqrt(3), 3)] == 1

    def test_no_real_roots(self):
        roots, _ = real_roots_ex(P(1.0, 0.0, 1.0))
        assert roots == []

    def test_simple_real_roots(self):
        assert real_roots_ex(P(-4.0, 0.0, 1.0)) == ([(-2.0, 1), (2.0, 1)], False)

    def test_cluster_refinement_stays_at_its_cluster(self):
        # double roots at -4.6696 and 0.2722 (the torsion route of the Lattes
        # map of y^2 = x^3 + x^2 - 4x - 3): refining the left cluster must not
        # jump to the right one, where |p| is just as small
        p = from_roots([-4.669591295300725, -4.669591295300725,
                        0.2722088082687308, 0.2722088082687308])
        roots, _ = real_roots_ex(p)
        assert [m for _, m in roots] == [2, 2]
        assert abs(roots[0][0] + 4.669591295300725) < 1e-6
        assert abs(roots[1][0] - 0.2722088082687308) < 1e-6


class TestPairConjugates:
    def test_far_apart_roots_are_not_averaged(self):
        # route 2 of the Lattes map of y^2 = x^3 - 6x^2 - 6x + 3 at
        # rho = 6.8157: two near-double roots whose scatter puts both
        # copies of 13.997 above the axis and both copies of -0.366 below;
        # pairing by sort order averaged them to 6.8157 four times
        z = np.array([13.997236084274710 + 2.25e-8j, 13.997236257364218 + 1.72e-8j,
                      -0.365763946381089 - 1.76e-10j, -0.365763930265975 - 1.44e-11j])
        out = roots._pair_conjugates(z)
        assert np.abs(out - 6.815736116938951).min() > 1.0
        assert np.array_equal(np.sort_complex(out), np.sort_complex(z))

    def test_near_conjugates_are_paired(self):
        z = np.array([2.0 + 1e-3j, 2.0 + 1e-9 - 1e-3j, -1.0])
        out = np.sort_complex(roots._pair_conjugates(z))
        assert out[1] == np.conj(out[2])


class TestRealRootsBatch:
    def test_clear_rows_match_real_roots_ex(self):
        rng = np.random.default_rng(21)
        C = rng.uniform(-3, 3, (40, 4))
        C[:, 3] = 1.0
        x, clear = real_roots_batch(C)
        assert clear.all()
        for row, xs in zip(C, x):
            ref = [r for r, _ in real_roots_ex(Polynomial(list(row)))[0]]
            assert np.allclose(xs[~np.isnan(xs)], ref, rtol=1e-12, atol=1e-12)

    def test_multiple_and_near_real_roots_are_not_clear(self):
        C = np.array([[-1.0, 3.0, -3.0, 1.0],      # (x-1)^3
                      [2.0, -3.0, 0.0, 1.0],       # (x-1)^2 (x+2)
                      [0.0, 1e-16, 0.0, 1.0]])     # x (x^2 + 1e-16)
        _, clear = real_roots_batch(C)
        assert not clear.any()


class TestAllReal:
    def test_float_predicate(self):
        assert all_roots_real(P(0.0, -1.0, 0.0, 1.0))
        assert not all_roots_real(P(2.0, -1.0, 0.0, 1.0))

    def test_exact_predicate_uses_sturm(self):
        assert all_roots_real(P(Fraction(0), -1, 0, 1))
        assert not all_roots_real(P(1, 0, 1))
        # multiple roots still count with multiplicity
        assert all_roots_real(P(1, -2, 1))          # (x-1)^2

    def test_all_real_shifted_matches_pointwise(self):
        p = P(0.0, -3.0, 0.0, 1.0)      # x^3 - 3x, critical values +-2
        ts = np.array([-2.5, -2.0, 0.0, 1.9, 2.0, 2.1])
        got = all_real_shifted(p, ts)
        assert list(got) == [False, True, True, True, True, False]

    def test_all_real_batch_rows_match_shifted(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 4):
            C = rng.uniform(-2, 2, (5, d + 1))
            ts = rng.uniform(-3, 3, (5, 7))
            got = all_real_batch(C, ts)
            for row, t, g in zip(C, ts, got):
                assert g.tolist() == all_real_shifted(Polynomial(list(row)), t).tolist()

    def test_all_real_shifted_quartic(self):
        p = from_roots([-1.5, -0.3, 0.4, 2.0])
        ts = np.linspace(-4, 4, 60)
        got = all_real_shifted(p, ts)
        ref = [all_roots_real(p - Polynomial([float(t)])) for t in ts]
        assert list(got) == ref


class TestSturm:
    def test_real_root_count_line(self):
        assert real_root_count(P(Fraction(0), -1, 0, 1)) == 3
        assert real_root_count(P(2, -1, 0, 1)) == 1

    def test_real_root_count_interval(self):
        p = P(Fraction(0), -1, 0, 1)     # roots -1, 0, 1
        assert real_root_count(p, Fraction(-1, 2), Fraction(2)) == 2
        assert real_root_count(p, Fraction(-2), Fraction(2)) == 3

    def test_square_free_part(self):
        p = P(1, -2, 1)                  # (x-1)^2
        sf = square_free_part(p)
        assert sf.degree == 1

    def test_square_free_decomposition(self):
        # (x-1)^2 (x+2) exactly
        p = P(Fraction(1), -2, 1) * P(Fraction(2), 1)
        dec = square_free_decomposition(p)
        by_mult = {m: f for f, m in dec if f.degree > 0}
        assert by_mult[1].coeffs == (2, 1)
        assert by_mult[2].coeffs == (-1, 1)


class TestPolishGuard:
    def test_near_double_root_not_perturbed(self):
        # x^3 - 0.75x + 0.25 has a double root at 1/2; an unguarded Newton
        # polish wanders off it
        r = complex_roots(P(0.25, -0.75, 0.0, 1.0))
        near_half = sorted(r, key=lambda z: abs(z - 0.5))[:2]
        for z in near_half:
            assert abs(z - 0.5) < 1e-6
