import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliareal import roots
from juliareal.orbit import backward_orbit
from juliareal.poly import Polynomial
from juliareal.roots import (InvariantError, NestedHorner, RootFindingError, all_real_batch,
                             all_real_shifted, all_roots_real, complex_roots, real_root_count,
                             real_roots_batch, real_roots_ex, roots_batch, roots_shifted,
                             rounded_real_roots, square_free_part)


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
        # f(f(z)) - z of degree 9 and 25: a sum over j in numpy's pairwise
        # order would depend on the width of the batch
        for d in (3, 5):
            C = rng.uniform(-2, 2, (5, d + 1))
            batch = roots_batch(C, NestedHorner)
            for row, z in zip(C, batch):
                assert np.array_equal(z, roots_batch(row[None, :], NestedHorner)[0])
        # wider than two blocks of columns, the last one narrow
        C = rng.uniform(-2, 2, (2 * roots._DIFF_BLOCK_ROWS + 52, 7))
        batch = roots_batch(C)
        for i in (*range(0, len(C), 97), len(C) - 1):
            assert np.array_equal(batch[i], roots_batch(C[i:i + 1])[0])

    def test_difference_blocks_change_no_root(self, monkeypatch):
        # the Aberth pair terms are formed a block of columns (batch rows) at
        # a time; blocks of 3 columns, one of them short, give the same roots
        # bit for bit
        C = np.random.default_rng(13).uniform(-2, 2, (8, 6))
        whole = roots_batch(C)
        monkeypatch.setattr(roots, "_DIFF_BLOCK_ROWS", 3)
        assert np.array_equal(roots_batch(C), whole)

    def test_wide_and_narrow_blocks_agree(self, monkeypatch):
        # a narrow block forms all d^2 pair terms, a wide one each pair once
        # with T_ji = -T_ij: the two give the same sums bit for bit
        rng = np.random.default_rng(14)
        for d, n in ((4, 70), (6, 130), (25, 3)):
            z = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
            monkeypatch.setattr(roots, "_NARROW_BLOCK", n + 1)
            narrow = roots._pair_sums(z)
            monkeypatch.setattr(roots, "_NARROW_BLOCK", 0)
            wide = roots._pair_sums(z)
            assert np.array_equal(narrow, wide)
            ref = [sum(1 / (z[i] - z[j]) for j in range(d) if j != i) for i in range(d)]
            assert np.allclose(wide, ref, rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("expected", [(-2.0, -1.0, 0.5), (-2.0, -1.0, 1.0),
                                          (-2.0, -0.5, 2.0)])
    def test_cardano_rows_polish_to_exact_roots(self, expected):
        # Cardano's roots of these cubics lie on the rounding floor a few
        # ulps off the dyadic roots: the floor gate would keep them there, and
        # only the full polish reaches the roots exactly
        z = roots_batch(np.array([from_roots(expected).coeffs]))
        assert sorted(z[0].real.tolist()) == list(expected)
        assert not z.imag.any()

    def test_on_floor_quadratic_is_kept(self, monkeypatch):
        # the quadratic formula's roots of x^2 - 2 and x^2 - 1e8 x + 1 lie on
        # the rounding floor: the polish makes its first pass and keeps them
        calls = []
        horner = roots._horner_many
        monkeypatch.setattr(roots, "_horner_many",
                            lambda C, z: calls.append(1) or horner(C, z))
        C = np.array([[-2.0, 0.0, 1.0], [1.0, -1e8, 1.0]], dtype=complex)
        z = roots_batch(C)
        assert len(calls) == 1
        assert np.array_equal(z, roots._quadratic_batch(C))

    def test_on_floor_aberth_row_is_kept(self, monkeypatch):
        # Aberth's roots of this quartic lie on the floor: the polish adds
        # one pass to Aberth's and keeps them
        calls = []
        horner = roots._horner_many
        monkeypatch.setattr(roots, "_horner_many",
                            lambda C, z: calls.append(1) or horner(C, z))
        C = np.array([[0.3, -1.2, 0.0, 0.5, 1.0]], dtype=complex)
        aberth, _ = roots._aberth_batch(roots.Horner(C))
        iterations = len(calls)
        calls.clear()
        z = roots_batch(C)
        assert len(calls) == iterations + 1
        assert np.array_equal(z, aberth)

    def test_row_above_floor_gets_the_full_polish(self):
        C = np.array([[-2.0, 0.0, 1.0], [-3.0, 1.0, 1.0], [2.0, 0.5, 1.0]], dtype=complex)
        ev = roots.Horner(C)
        z = roots._quadratic_batch(C)
        z[1, 0] += 1e-9
        start = z.copy()
        gated = roots._polish_batch(ev, z)
        full = roots._polish_batch(ev, z, keep_on_floor=False)
        assert np.array_equal(z, start)
        assert np.array_equal(gated[1], full[1]) and not np.array_equal(gated[1], z[1])
        assert np.array_equal(gated[[0, 2]], z[[0, 2]])

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


class TestLinearRoots:
    """The one root of a degree-1 polynomial is the closed form -c0 / c1: the
    float quotient for real coefficients, numpy's complex one otherwise.
    complex_roots checks its residual at that single point.  _horner_many on
    one point can round differently from the same point in a larger array
    (numpy's one-element in-place complex product), so this pins that the
    check never rejects the closed form."""

    coefficient = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda c: abs(c) > 1e-6)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(coefficient, coefficient)
    def test_real_linear_root(self, c0, c1):
        z = complex_roots(P(c0, c1))
        assert z.tolist() == [-c0 / c1] and z[0].imag == 0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(coefficient, coefficient, coefficient, coefficient)
    def test_complex_linear_root(self, a0, b0, a1, b1):
        c0, c1 = complex(a0, b0), complex(a1, b1)
        z = complex_roots(P(c0, c1))
        C = np.array([[c0, c1]])
        assert z.tolist() == (-C[:, 0] / C[:, 1]).tolist()


class TestBackwardOrbitMemory:
    # tracemalloc's peak over one tree, which the benchmark's peak_rss_mb
    # carries: no higher than with the rows-major Aberth blocks and the
    # ungated polish, which peaked at these byte counts (numpy 2.4)
    @pytest.mark.parametrize("coeffs, depth, before", [
        ([-2.0, 0.0, 1.0], 16, 11_801_048),
        ([-2.0, 0.0, 9.0, 0.0, -6.0, 0.0, 1.0], 6, 11_048_768)])
    def test_peak_no_higher(self, coeffs, depth, before):
        p = Polynomial(coeffs)
        backward_orbit(p, 0.5, depth, cap=10 ** 5)
        tracemalloc.start()
        try:
            backward_orbit(p, 0.5, depth, cap=10 ** 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= before


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

    def test_simple_nonreal_roots_are_not_refined(self, monkeypatch):
        # the regroup pass refines a group only at combined multiplicity 2 or
        # more: a lone nonreal root gets no Newton run
        calls, refine = [], roots._modified_newton
        monkeypatch.setattr(roots, "_modified_newton",
                            lambda q, x, m, radius: calls.append(m) or refine(q, x, m, radius))
        assert real_roots_ex(P(-1.0, 1.0, -1.0, 1.0)) == ([(1.0, 1)], False)
        assert calls == []
        roots_, _ = real_roots_ex(from_roots([1.0, 1.0, -2.0]))
        assert [m for _, m in roots_] == [1, 2] and calls and min(calls) >= 2

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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.fractions(-5, 5, max_denominator=12).filter(bool),
           st.lists(st.tuples(st.fractions(-5, 5, max_denominator=12), st.integers(1, 3)),
                    max_size=3),
           st.lists(st.tuples(st.fractions(Fraction(1, 12), 5, max_denominator=12),
                              st.integers(1, 2)), max_size=2))
    def test_exact_predicate_on_constructed_products(self, lead, linear, quadratic):
        # lead prod (X - r)^m prod (X^2 + s)^k, s > 0: it splits over the
        # reals exactly when there is no quadratic factor
        p = Polynomial([lead])
        for r, m in linear:
            for _ in range(m):
                p = p * Polynomial([-r, 1])
        for s, k in quadratic:
            for _ in range(k):
                p = p * Polynomial([s, 0, 1])
        assert all_roots_real(p) == (not quadratic)

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

    def test_near_axis_same_on_numbers_and_arrays(self):
        rng = np.random.default_rng(41)
        z = rng.uniform(-5, 5, 200) + 1j * rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-3], 200)
        for tol in (1e-9, 1e-6):
            got = roots.near_axis(z, tol)
            assert got.tolist() == [bool(roots.near_axis(complex(v), tol)) for v in z]
            assert got.tolist() == (np.abs(z.imag) <= tol * (1.0 + np.abs(z))).tolist()


class TestSturm:
    def test_real_root_count_line(self):
        assert real_root_count(P(Fraction(0), -1, 0, 1)) == 3
        assert real_root_count(P(2, -1, 0, 1)) == 1

    def test_real_root_count_interval(self):
        p = P(Fraction(0), -1, 0, 1)     # roots -1, 0, 1
        assert real_root_count(p, Fraction(-1, 2), Fraction(2)) == 2
        assert real_root_count(p, Fraction(-2), Fraction(2)) == 3

    def test_square_free_part(self):
        # p over the monic gcd(p, p'), so it keeps p's lead
        assert square_free_part(P(1, -2, 1)) == P(-1, 1)                   # (x-1)^2
        p = P(2) * P(-1, 1) * P(-1, 1) * P(3, 1)                           # 2 (x-1)^2 (x+3)
        assert square_free_part(p) == P(-6, 4, 2)
        assert square_free_part(P(Fraction(1, 2), 0, 3)) == P(Fraction(1, 2), 0, 3)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.fractions(-5, 5, max_denominator=12).filter(bool),
           st.lists(st.tuples(st.fractions(-5, 5, max_denominator=12), st.integers(1, 3)),
                    min_size=1, max_size=4),
           st.lists(st.tuples(st.fractions(Fraction(1, 12), 5, max_denominator=12),
                              st.integers(1, 2)), max_size=2),
           st.data())
    def test_counts_on_constructed_products(self, lead, linear, quadratic, data):
        # lead prod (X - r)^m prod (X^2 + s)^k, s > 0: its real roots are the
        # r, and its square-free part is lead prod (X - r) prod (X^2 + s)
        p = sf = Polynomial([lead])
        for r, m in linear:
            for _ in range(m):
                p = p * Polynomial([-r, 1])
        for s, k in quadratic:
            for _ in range(k):
                p = p * Polynomial([s, 0, 1])
        rs = sorted({r for r, _ in linear})
        for r in rs:
            sf = sf * Polynomial([-r, 1])
        for s in sorted({s for s, _ in quadratic}):
            sf = sf * Polynomial([s, 0, 1])
        assert square_free_part(p) == sf
        assert real_root_count(p) == len(rs)
        # ends on simple roots, on multiple roots and between roots
        ends = [rs[0] - 1, *rs, *((a + b) / 2 for a, b in zip(rs, rs[1:])), rs[-1] + 1]
        for _ in range(3):
            lo, hi = sorted(data.draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
            assert real_root_count(p, lo, hi) == sum(lo <= r <= hi for r in rs)


def exact_product(*roots):
    p = P(Fraction(1))
    for r in roots:
        p = p * P(-Fraction(r), 1)
    return p


class TestRoundedRealRoots:
    """rounded_real_roots returns each real root as the float nearest it,
    half to even, from the candidates or, failing them, by Sturm isolation."""

    def spy_sturm(self, monkeypatch):
        calls, isolate = [], roots._sturm_brackets
        monkeypatch.setattr(roots, "_sturm_brackets",
                            lambda p, sign, n: calls.append(n) or isolate(p, sign, n))
        return calls

    def test_roots_that_are_floats(self, monkeypatch):
        p = exact_product(Fraction(-5), Fraction(3, 4), Fraction(1, 2**40))
        sturm = self.spy_sturm(monkeypatch)
        expected = [-5.0, 2.0**-40, 0.75]
        assert rounded_real_roots(p, expected, 3) == expected
        # candidates an ulp or 10 ulps off are corrected in their own brackets
        near = [math.nextafter(-5.0, 0.0), 2.0**-40 + 10 * math.ulp(2.0**-40), 0.75]
        assert rounded_real_roots(p, near, 3) == expected
        assert sturm == []
        assert rounded_real_roots(p, [], 3) == expected
        assert sturm == [3]

    @pytest.mark.parametrize("k, rounded", [(2, 1.0), (6, 1.0 + 2.0**-51), (-1, 1.0),
                                            (-3, 1.0 - 2.0**-52)])
    def test_root_on_a_midpoint_rounds_half_to_even(self, monkeypatch, k, rounded):
        # 1 + k 2^-54 lies halfway between two floats (spaced 2^-52 above 1,
        # 2^-53 below); the tie goes to the float whose last significand bit is 0
        root = 1 + Fraction(k, 2**54)
        assert float(root) == rounded
        p = exact_product(root)
        sturm = self.spy_sturm(monkeypatch)
        for candidate in (1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 1.0 + 2.0**-40):
            assert rounded_real_roots(p, [candidate], 1) == [rounded]
        assert sturm == []
        assert rounded_real_roots(p, [], 1) == [rounded]
        # on the midpoint of a bracket's bisection too
        assert rounded_real_roots(exact_product(root, 7), [1.25, 7.0], 2) == [rounded, 7.0]

    def test_root_at_zero(self, monkeypatch):
        p = exact_product(-1, 0, 1)
        sturm = self.spy_sturm(monkeypatch)
        for candidates in ([-1.0, 0.0, 1.0], [-1.0, -0.0, 1.0], [-1.0, 1e-320, 1.0],
                           [-1.0, -5e-324, 1.0]):
            out = rounded_real_roots(p, candidates, 3)
            assert out == [-1.0, 0.0, 1.0] and math.copysign(1.0, out[1]) == 1.0
        assert sturm == []
        assert rounded_real_roots(p, [], 3) == [-1.0, 0.0, 1.0]
        # the nearest floats to +-2^-1100, below the least subnormal, are +-0.0
        tiny = Fraction(1, 2**1100)
        assert rounded_real_roots(exact_product(-tiny, tiny), [], 2) == [0.0, 0.0]

    def test_irrational_roots(self):
        # x^2 - 2: the float nearest sqrt 2, which math.sqrt rounds correctly
        p = P(-2, 0, 1)
        assert rounded_real_roots(p, [-1.4, 1.4], 2) == [-math.sqrt(2), math.sqrt(2)]
        assert rounded_real_roots(p, [1.4142135623730951, -1.4142135623730951], 2) == [
            -math.sqrt(2), math.sqrt(2)]

    def test_close_roots_fall_back_to_sturm(self, monkeypatch):
        # two roots 10^-30 apart round to one float, and it is listed twice
        p = exact_product(1, 2, 2 + Fraction(1, 10**30))
        sturm = self.spy_sturm(monkeypatch)
        assert rounded_real_roots(p, [1.0, 2.0, 2.0], 3) == [1.0, 2.0, 2.0]
        assert sturm == [3]
        p = exact_product(1, 2, 2 + Fraction(1, 10**9))
        assert rounded_real_roots(p, [1.0, 2.0, 2.0], 3) == [1.0, 2.0, float(2 + Fraction(1, 10**9))]

    def test_wrong_count_raises(self):
        with pytest.raises(InvariantError, match="finds 3 real roots"):
            rounded_real_roots(exact_product(-1, 0, 1), [-1.0, 0.0, 1.0], 2)
        with pytest.raises(InvariantError, match="finds 0 real roots"):
            rounded_real_roots(P(1, 0, 1), [], 1)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.fractions(-100, 100, max_denominator=10**6), min_size=1, max_size=5,
                    unique=True))
    def test_rational_roots_round_like_float(self, rs):
        # float() of a Fraction is the nearest float, half to even
        p = exact_product(*rs)
        expected = sorted(float(r) for r in rs)
        assert rounded_real_roots(p, [float(r) for r in rs], len(rs)) == expected
        assert rounded_real_roots(p, [], len(rs)) == expected


class TestPolishGuard:
    def test_near_double_root_not_perturbed(self):
        # x^3 - 0.75x + 0.25 has a double root at 1/2; an unguarded Newton
        # polish wanders off it
        r = complex_roots(P(0.25, -0.75, 0.0, 1.0))
        near_half = sorted(r, key=lambda z: abs(z - 0.5))[:2]
        for z in near_half:
            assert abs(z - 0.5) < 1e-6
