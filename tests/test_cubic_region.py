import io
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliareal import classifier
from juliareal.classifier import classify_batch, classify_real_julia
from juliareal import cubic_region
from juliareal.cubic_region import (b_zero, boundary_distance, in_region, normal_form,
                                    region_bound, region_scan, region_verdict)
from juliareal.roots import RootFindingError
from juliareal.poly import AffineMap, Polynomial, conjugate
from reference_oracles import fixed_point_trajectory, in_three_fixed_set

# the same examples on every run, and no example database on disk
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

A_VALUES = st.one_of(st.floats(-10.0, 3.0), st.sampled_from([-6.0, -3.0, -2.0, 0.0, 1.0]))
B_VALUES = st.one_of(st.floats(-12.0, 12.0), st.sampled_from([-2.0, 0.0, 2.0, math.sqrt(8)]))

# cells where classify_batch cannot decide and calls classify_real_julia: a
# fixed point on an interval endpoint (-3, 0) and (-6, +-sqrt 8), a double
# critical point (A = 0), a double fixed point (-2, +-2)
FALLBACK_CELLS = [(-3.0, 0.0), (0.0, 0.0), (0.0, 0.5), (-2.0, 2.0), (-2.0, -2.0),
                  (-6.0, math.sqrt(8)), (-6.0, -math.sqrt(8))]


def scalar_verdict(A, B):
    return classify_real_julia(Polynomial([B, A, 0.0, 1.0])).julia_real


@pytest.fixture
def scalar_calls(monkeypatch):
    """The polynomials classify_batch hands to classify_real_julia."""
    calls = []

    def counted(p):
        calls.append(p)
        return classify_real_julia(p)

    monkeypatch.setattr(classifier, "classify_real_julia", counted)
    return calls


def reference_distance(A, B):
    """The per-cell distance loop region_scan once ran: the least distance to
    2,001 samples of the arc A in [-9, -3], both branches.  Every sample is a
    curve point, so this bounds the distance from above."""
    As = np.linspace(-9.0, -3.0, 2001)
    Bs = np.sqrt(np.maximum(region_bound(As), 0.0))
    d2 = np.minimum((As - A) ** 2 + (Bs - B) ** 2, (As - A) ** 2 + (-Bs - B) ** 2)
    return float(math.sqrt(d2.min()))


def quintic_roots(A, b):
    """The roots of q(t) = 6t^5 + t^3 - 3bt^2 + (3A + 2)t + b, where the
    derivative of the squared distance to the branch vanishes.  numpy.roots
    solves q(2^e s) / 2^(5e), 2^e > max(cbrt b, |A|^(1/4), 1), whose roots are
    of order 1 where q's would not fit its companion matrix."""
    e = math.frexp(max(b ** (1.0 / 3.0), math.sqrt(math.sqrt(abs(A))), 1.0))[1]
    s = np.roots([6.0, 0.0, math.ldexp(1.0, -2 * e), -3.0 * math.ldexp(b, -3 * e),
                  3.0 * math.ldexp(A, -4 * e) + math.ldexp(2.0, -4 * e), math.ldexp(b, -5 * e)])
    return s * 2.0 ** e


def roots_distance(A, B):
    """The distance to the branch C(t) = (-3t^2, +-2t(t^2 - 1)), t >= 1: the
    least over t = 1 and the real parts >= 1 of the roots of q, b = |B|."""
    b = abs(B)
    r = quintic_roots(A, b).real
    t = np.r_[1.0, r[r >= 1.0]]
    return float(np.hypot(3.0 * t * t + A, 2.0 * t * (t * t - 1.0) - b).min())


def stationary_distance(A, B):
    """roots_distance by a formula that does not cancel far out: at a root t
    of q, D'(t) = 0 gives 2t^3 - 2t - b = -6t(3t^2 + A)/(6t^2 - 2), so the
    distance there is |3t^2 + A| sqrt(1 + (6t/(6t^2 - 2))^2).  The least of
    that over the real roots t >= 1, and the cusp distance.  Near a double
    root, where q's roots split off the axis, it is not to be trusted, nor
    near the curve, where 3t^2 + A cancels in floats: at
    (-26317752495902.46, 5.195999617821713e19) it reads 4.1e-11 off."""
    t = quintic_roots(A, abs(B))
    t = t.real[(np.abs(t.imag) <= 1e-8 * np.abs(t)) & (t.real >= 1.0)]
    at_roots = np.abs(3.0 * t * t + A) * np.hypot(1.0, 6.0 * t / (6.0 * t * t - 2.0))
    return min([math.hypot(A + 3.0, B)] + at_roots.tolist())


def decimal_distance(A, B):
    """The distance to 50 digits: sqrt D(t) in Decimal at t = 1 and at each
    real part >= 1 of a float root of q, before and after Newton steps on q
    in Decimal.  Every t >= 1 bounds the distance from above, and the least
    is the distance once a candidate reaches the root where D is least.
    Fifty digits hold the cancellation of D's terms up to coordinates of
    about 10^100; past that the distance can be lost entirely."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b = Decimal(A), abs(Decimal(B))
        D = lambda t: (3 * t * t + a) ** 2 + (2 * t * (t * t - 1) - b) ** 2
        q = lambda t: (((6 * t * t + 1) * t - 3 * b) * t + 3 * a + 2) * t + b
        dq = lambda t: ((30 * t * t + 3) * t - 6 * b) * t + 3 * a + 2
        least = D(Decimal(1))
        r = quintic_roots(A, abs(B)).real
        for r in r[r >= 1.0]:
            t = Decimal(r)
            least = min(least, D(t))
            for _ in range(6):
                if dq(t) == 0:
                    break
                t -= q(t) / dq(t)
                if t >= 1:
                    least = min(least, D(t))
        return least.sqrt()


def brute_force_distance(A, B):
    """Distance to the whole A <= -3 branch (-3a^2, +-2a(a^2 - 1)), a >= 1,
    sampled densely out to where A alone is farther than the arc's distance."""
    a_max = math.sqrt((reference_distance(A, B) - A) / 3.0 + 3.0)
    a = np.linspace(1.0, a_max, 200_001)
    d2 = np.square(-3.0 * a * a - A) + np.square(2.0 * a * (a * a - 1.0) - abs(B))
    return float(math.sqrt(d2.min()))


def assert_distance(A, B, dist):
    """dist is roots_distance to within 1e-12 (1 + that distance), and at
    most the sampled distance, up to a few ulps of the coordinates."""
    exact = roots_distance(A, B)
    assert abs(dist - exact) <= 1e-12 * (1.0 + exact), (A, B, dist, exact)
    assert dist <= reference_distance(A, B) + 1e-14 * (1.0 + abs(A) + abs(B))


def assert_distances(A, B):
    """assert_distance at every (A[i], B[i]) of two arrays of one shape."""
    for a, b, dist in zip(np.ravel(A), np.ravel(B), np.ravel(boundary_distance(A, B))):
        assert_distance(a, b, dist)


def reference_distances(A, B, chunk=256):
    """reference_distance at each (A[i], B[i]) by the same arithmetic, a
    chunk of points at a time."""
    As = np.linspace(-9.0, -3.0, 2001)
    Bs = np.sqrt(np.maximum(region_bound(As), 0.0))
    out = np.empty(A.size)
    for i in range(0, A.size, chunk):
        a, b = A[i:i + chunk, None], B[i:i + chunk, None]
        d2 = np.minimum((As - a) ** 2 + (Bs - b) ** 2, (As - a) ** 2 + (-Bs - b) ** 2)
        out[i:i + chunk] = np.sqrt(d2.min(axis=1))
    return out


def evolute(t):
    """The center of curvature of the branch at C(t), B >= 0: there q has a
    double root at t."""
    k = (9.0 * t**4 + 3.0 * t**2 + 1.0) / (3.0 * (3.0 * t**2 + 1.0))
    return -3.0 * t * t + (6.0 * t * t - 2.0) * k, 2.0 * t * (t * t - 1.0) + 6.0 * t * k


class TestMembership:
    def test_boundary_cases(self):
        assert in_region(-3, 0)
        assert not in_region(-3, 0.01)
        assert not in_region(1, 0)
        assert in_region(-6, 2)
        assert not in_region(-6, 3)

    def test_bound_value(self):
        assert abs(region_bound(-6.0) - 8.0) < 1e-12

    def test_b_symmetry(self):
        rng = np.random.default_rng(2)
        for A, B in rng.uniform(-8, 2, (200, 2)):
            assert in_region(A, B) == in_region(A, -B)


class TestExactVerdict:
    """region_verdict: the region decides every exact cubic with a positive
    lead through the real conjugacy of normal_form."""

    @PROPERTY
    @given(st.fractions(Fraction(1, 20), 20, max_denominator=20),
           st.fractions(-5, 5, max_denominator=20).filter(bool),
           st.fractions(-30, 5, max_denominator=20), st.fractions(-20, 20, max_denominator=20))
    def test_matches_classifier_off_the_margin(self, a3, a2, a1, a0):
        p = Polynomial([a0, a1, a2, a3])
        report = classify_real_julia(p.to_float())
        if not report.marginal:
            assert region_verdict(p)[0] == report.julia_real

    @PROPERTY
    @given(st.fractions(Fraction(1, 10), 10, max_denominator=12),
           *[st.fractions(-20, 20, max_denominator=30) for _ in range(3)])
    def test_conjugacy_back_gives_p(self, r, a2, a1, a0):
        # with a3 = r^2 the conjugacy x = X / r - a2 / (3 a3) is rational, and
        # conjugating X^3 + AX + B, B = S / r, back by it gives p exactly
        p = Polynomial([a0, a1, a2, r * r])
        A, S = normal_form(p)
        q = Polynomial([S / r, A, 0, 1])
        assert conjugate(q, AffineMap(1 / r, -a2 / (3 * r * r))) == p

    @pytest.mark.parametrize("A, B, expected", [
        (-3, 0, True), (-6, 2, True), (-6, 3, False), (-2, 0, False), (3, 1, False)])
    def test_depressed_cubic_is_in_region(self, A, B, expected):
        # for X^3 + AX + B itself, normal_form is the identity and the
        # verdict is in_region
        p = Polynomial([B, A, 0, 1])
        assert normal_form(p) == (A, B)
        assert region_verdict(p)[0] == in_region(float(A), float(B)) == expected

    @pytest.mark.parametrize("coeffs", [[0, -3, 0, -1], [0, -3, 1], [1, 0, 0, 0, 1]])
    def test_rejects_other_shapes(self, coeffs):
        with pytest.raises(ValueError, match="positive lead"):
            normal_form(Polynomial(coeffs))


class TestBZero:
    def test_values(self):
        assert b_zero(1) == 0.0
        assert b_zero(2) == 12.0
        assert abs(b_zero(math.sqrt(2)) - 2 * math.sqrt(2)) < 1e-12

    def test_rejects_small_a(self):
        with pytest.raises(ValueError):
            b_zero(0.99)

    def test_consistency_with_region(self):
        for a in np.arange(1.0, 3.01, 0.25):
            A = -3 * a * a
            B0 = b_zero(a)
            assert in_region(A, B0)
            assert not in_region(A, B0 + 1e-6)

    def test_exact_boundary_identity(self):
        # B0^2 = -4A(A+3)^2/27 with A = -3a^2
        for a in (1.0, 1.5, 2.0, 2.5, 3.0):
            A = -3 * a * a
            B0 = b_zero(a)
            rhs = region_bound(A)
            assert abs(B0 * B0 - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestTrajectory:
    def test_known_endpoint(self):
        rows = fixed_point_trajectory(1.0, [0.0])
        B, a1, a2, ok = rows[0]
        assert ok and abs(a1 + 2) < 1e-9 and abs(a2 - 2) < 1e-9

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 50:
            a = rng.uniform(1.0, 2.5)
            grid = np.arange(0.0, b_zero(a) + 1e-9, max(b_zero(a) / 20, 1e-3))
            rows = [r for r in fixed_point_trajectory(a, grid) if r[3]]
            if len(rows) < 3:
                continue
            a1s = [r[1] for r in rows]
            a2s = [r[2] for r in rows]
            assert all(x > y - 1e-9 for x, y in zip(a1s, a1s[1:]))
            assert all(x > y - 1e-9 for x, y in zip(a2s, a2s[1:]))
            checked += 1

    def test_mirror_symmetry(self):
        a = 1.3
        grid = [0.0, 0.5, 1.0]
        fwd = fixed_point_trajectory(a, grid)
        rev = fixed_point_trajectory(a, [-b for b in grid])
        for (B, a1, a2, ok), (Bn, b1, b2, okn) in zip(fwd, rev):
            assert ok == okn
            if ok:
                assert abs(a1 + b2) < 1e-9 and abs(a2 + b1) < 1e-9

    def test_outside_set_flagged(self):
        rows = fixed_point_trajectory(0.2, [5.0])
        assert rows[0][3] is False and math.isnan(rows[0][1])

    def test_three_fixed_set(self):
        assert in_three_fixed_set(-3.0, 0.0)
        assert not in_three_fixed_set(2.0, 0.0)


class TestScan:
    def test_small_scan_agrees(self):
        s = region_scan((-4.0, -2.0), (-1.0, 1.0), 0.25)
        assert s.cells == 9 * 9
        for A, B, analytic, verdict, agree, dist in s.rows:
            if dist > 0.5:
                assert agree

    def test_single_cells(self):
        s = region_scan((-6.75, -6.75), (0.0, 0.0), 1.0)
        (A, B, analytic, verdict, agree, dist) = s.rows[0]
        assert analytic and verdict and agree
        s = region_scan((0.5, 0.5), (0.0, 0.0), 1.0)
        assert s.rows[0][2] is False and s.rows[0][3] is False and s.rows[0][4]

    def test_csv_shape(self):
        s = region_scan((-4.0, -3.5), (0.0, 0.5), 0.5)
        buf = io.StringIO()
        s.to_csv(buf, header_comment="test")
        lines = buf.getvalue().strip().split("\r\n")
        assert lines[0].startswith("#")
        assert lines[1] == "A,B,analytic,classifier,agree,boundary_distance"
        assert len(lines) == 2 + s.cells

    def test_pgm_bytes(self):
        s = region_scan((-4.0, -3.5), (0.0, 0.5), 0.5)
        data = s.to_pgm()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert len(data) == len(b"P5\n2 2\n255\n") + 4
        # 2 A values by 3 B values: the header gives width (B) then height (A)
        s = region_scan((-4.0, -3.5), (0.0, 1.0), 0.5)
        assert s.shape == (2, 3)
        assert s.to_pgm() == b"P5\n3 2\n255\n" + bytes(
            128 if not ag else (255 if an else 0) for _, _, an, _, ag, _ in s.rows)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            region_scan((0, 1), (0, 1), 0.0)

    def test_row_types(self):
        s = region_scan((-4.0, 0.5), (-0.5, 0.5), 0.5)
        for row in s.rows:
            assert [type(v) for v in row] == [float, float, bool, bool, bool, float]


class TestBatchEquivalence:
    @PROPERTY
    @given(st.lists(st.tuples(A_VALUES, B_VALUES), min_size=1, max_size=24))
    def test_classify_batch_matches_scalar(self, cells):
        C = np.array([[B, A, 0.0, 1.0] for A, B in cells])
        assert classify_batch(C).tolist() == [scalar_verdict(A, B) for A, B in cells]

    @PROPERTY
    @given(st.floats(-8.0, 2.0), st.floats(-6.0, 6.0), st.integers(1, 5),
           st.integers(1, 5), st.sampled_from([0.05, 0.25, 0.5, 1.0]))
    def test_region_scan_matches_per_cell(self, a_lo, b_lo, na, nb, step):
        s = region_scan((a_lo, a_lo + (na - 1) * step), (b_lo, b_lo + (nb - 1) * step), step)
        assert s.cells == na * nb
        for A, B, analytic, verdict, agree, dist in s.rows:
            expected = scalar_verdict(A, B)
            assert (analytic, verdict, agree) == (in_region(A, B), expected,
                                                  in_region(A, B) == expected)
            assert_distance(A, B, dist)
        assert [r[:2] for r in s.rows] == sorted(r[:2] for r in s.rows)

    def test_fallback_cells(self, scalar_calls):
        C = np.array([[B, A, 0.0, 1.0] for A, B in FALLBACK_CELLS])
        verdicts = classify_batch(C).tolist()
        assert len(scalar_calls) == len(FALLBACK_CELLS)
        assert verdicts == [scalar_verdict(A, B) for A, B in FALLBACK_CELLS]
        assert verdicts[0] and verdicts[5] and verdicts[6]

    def test_failed_cross_check_falls_back(self, scalar_calls, monkeypatch):
        monkeypatch.setattr(classifier, "all_real_batch",
                            lambda C, t, tol: np.zeros(np.shape(t), dtype=bool))
        cells = [(-6.75, 0.0), (-4.0, 1.0), (-12.0, 3.0)]
        expected = [scalar_verdict(A, B) for A, B in cells]
        C = np.array([[B, A, 0.0, 1.0] for A, B in cells])
        assert classify_batch(C).tolist() == expected
        assert len(scalar_calls) == len(cells)

    def test_quintics_match_scalar(self):
        rng = np.random.default_rng(5)
        cheb = np.array([0.0, 5.0, 0.0, -5.0, 0.0, 1.0])      # 2 T_5(x/2)
        rows = [s * cheb for s in (0.5, 0.9, 1.0, 1.25, 2.0)]
        rows += [np.r_[rng.uniform(-2, 2, 5), 1.0] for _ in range(8)]
        C = np.array(rows)
        assert classify_batch(C).tolist() == [
            classify_real_julia(Polynomial(list(row))).julia_real for row in C]

    @pytest.mark.parametrize("row", [[0.0, -1.0, 1.0],              # degree 2
                                     [1.0, 0.0, 0.0, 0.0, 1.0],     # even degree
                                     [0.0, 3.0, 0.0, -1.0]])        # negative lead
    def test_rejects_other_branches(self, row):
        with pytest.raises(ValueError):
            classify_batch(np.array([row]))


class TestBoundaryDistance:
    def test_on_curve_zero(self):
        A = -6.0
        B = math.sqrt(region_bound(A))
        assert boundary_distance(A, B) < 1e-14

    def test_far_point(self):
        assert boundary_distance(1.0, 0.0) > 3.5

    def test_arrays_match_per_point(self):
        rng = np.random.default_rng(8)
        A = rng.uniform(-10, 2, (10, 30))
        B = rng.uniform(-8, 8, (10, 30))
        d = boundary_distance(A, B)
        assert d.shape == A.shape
        for a, b, dist in zip(A.ravel(), B.ravel(), d.ravel()):
            assert_distance(a, b, dist)
            assert dist == boundary_distance(a, b)
        assert type(boundary_distance(-4.0, 1.0)) is float

    @pytest.mark.parametrize("A, B, expected", [(-100.0, 0.0, 85.14), (-6.0, 100.0, 35.42),
                                                (-6.0, -100.0, 35.42)])
    def test_beyond_the_sampled_arc(self, A, B, expected):
        # the nearest curve points lie past A = -9, e.g. near (-20.89, 31.48)
        # for (-100, 0)
        dist = boundary_distance(A, B)
        assert abs(dist - expected) < 5e-3
        assert_distance(A, B, dist)

    def test_matches_brute_force_far_out(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(-60, 2, 150)
        B = rng.uniform(-60, 60, 150)
        for a, b, dist in zip(A, B, boundary_distance(A, B)):
            assert_distance(a, b, dist)
            assert -1e-12 <= brute_force_distance(a, b) - dist <= 2e-3

    @PROPERTY
    @given(st.floats(-60.0, 3.0), st.floats(-30.0, 30.0))
    def test_matches_roots_distance(self, A, B):
        # past |B| = 21 q need not be convex on all of t >= 1, only right of
        # its largest root
        assert_distance(A, B, boundary_distance(A, B))

    def test_reference_distances_is_reference_distance(self):
        rng = np.random.default_rng(10)
        A, B = rng.uniform(-12, 1, 40), rng.uniform(-10, 10, 40)
        assert reference_distances(A, B).tolist() == [reference_distance(a, b)
                                                      for a, b in zip(A, B)]

    def test_pruned_search_on_a_dense_grid(self):
        # the grid holds the concave side above the upper branch, where the
        # distance along the curve has two local minima, and points past A = -9
        A, B = np.meshgrid(np.linspace(-12.0, 1.0, 131), np.linspace(-10.0, 10.0, 201),
                           indexing="ij")
        assert_distances(A, B)
        bound = reference_distances(A.ravel(), B.ravel()).reshape(A.shape)
        assert (boundary_distance(A, B) <= bound + 1e-14 * (1.0 + np.abs(A) + np.abs(B))).all()

    def test_cusp(self):
        assert boundary_distance(-3.0, 0.0) == 0.0
        assert_distances(np.array([-3.0, -3.0, -2.5, -3.5, -3.0]),
                         np.array([0.25, -1.0, 0.0, 0.0, 1e-9]))

    def test_on_samples_and_window_ends(self):
        # the 2,001 arc samples of the sampled distance lie on the curve up to
        # the rounding of their B, and read within a few ulps of 0
        As = np.linspace(-9.0, -3.0, 2001)
        Bs = np.sqrt(np.maximum(region_bound(As), 0.0))
        ulp = np.spacing(np.abs(As) + Bs)
        assert (boundary_distance(As, Bs) <= 8 * ulp).all()
        assert (boundary_distance(As, -Bs) <= 8 * ulp).all()
        k = np.arange(0, 2001, 50)
        for dA, dB in [(0.0, 0.5), (0.0, -0.5), (0.25, 0.0), (-0.25, 0.0), (0.1, 2.0)]:
            assert_distances(As[k] + dA, Bs[k] + dB)
        assert_distances(As[k], np.zeros(k.size))

    @pytest.mark.parametrize("t", np.r_[np.linspace(1.0, 1.4, 9), 1.5, 2.0, 3.0, 10.0, 100.0, 1e4])
    def test_on_the_evolute(self, t):
        # q has a double root at t, where Newton's method converges only
        # linearly, and nearby two close roots; past t = 1.43, |B| > 21
        A, B = evolute(t)
        for c in ([6.0, 0.0, 1.0, -3.0 * B, 3.0 * A + 2.0, B], [30.0, 0.0, 3.0, -6.0 * B, 3.0 * A + 2.0]):
            assert abs(np.polyval(c, t)) < 1e-12 * np.polyval(np.abs(c), t)
        for dA, dB in [(0.0, 0.0), (1e-9, 0.0), (-1e-9, 0.0), (0.0, 1e-7), (0.0, -1e-7)]:
            assert_distance(A + dA, B + dB, boundary_distance(A + dA, B + dB))
            assert_distance(A + dA, -B - dB, boundary_distance(A + dA, -B - dB))

    def test_far_evolute_stops_at_rounding(self, monkeypatch):
        # for t from about 1e6 to 1e15, q(2^e s) / 2^(5e)'s constant term lies
        # below the rounding of its others, and Horner's sum can come out as
        # exactly that constant: steps of a few ulps, 94 of them at the first
        # point, until the iterate stops where its step stops shrinking
        monkeypatch.setattr(cubic_region, "_NEWTON_MAX_STEPS", 40)
        A, B = evolute(10.0 ** np.linspace(6.0, 15.0, 400))
        A, B = np.r_[8.085670377045507e39, A], np.r_[1.7793589772766246e30, B]
        assert_distances(A, B)
        assert_distances(A, -B)

    def test_default_grid_to_rounding(self):
        # on the default `juliareal region` grid the second coordinate is
        # 2t^3 - 2t - b as it is, where sqrt D is stationary in t: every
        # distance within eps (1 + |A| + |B|) of a 50-digit one (0.82 of that
        # at worst; 2.5 with the identity at every root of q)
        A, B = np.meshgrid(np.arange(141) * 0.05 - 6.0, np.arange(161) * 0.05 - 4.0)
        A, B = A.ravel(), B.ravel()
        bound = np.finfo(float).eps * (1.0 + np.abs(A) + np.abs(B))
        for a, b, dist, tol in zip(A, B, boundary_distance(A, B), bound):
            assert abs(Decimal(dist) - decimal_distance(a, b)) <= tol, (a, b, dist)

    def test_huge_coordinates(self):
        # Newton's method steps the quintic scaled to roots of about 1; no
        # coefficient, iterate or value overflows
        rng = np.random.default_rng(11)
        for scale in (1e12, 1e15, 1e16, 1e18):
            A, B = rng.uniform(-scale, scale, 2000), rng.uniform(-scale, scale, 2000)
            assert_distances(A, B)
        # far out the second coordinate comes from the identity at a root of
        # q, not from 2t^3 - 2t - b, whose rounding, of order eps |B|, would
        # pass the distance itself: relative rounding at every scale (50
        # digits no longer hold the distance there)
        sign = rng.choice([-1.0, 1.0], (2, 500))
        A, B = sign * 10.0 ** rng.uniform(100.0, 200.0, (2, 500))
        for a, b, dist in zip(A, B, boundary_distance(A, B)):
            exact = stationary_distance(a, b)
            assert abs(dist - exact) <= 1e-12 * exact, (a, b, dist, exact)
        # up to 10^100, against the 50-digit distance, to the rounding of the
        # docstring: relative, plus eps |A| near the curve, where 3t^2 + A
        # cancels (at t from 10 to 10^15, offsets of 10^-16 to 10^-4)
        eps = np.finfo(float).eps
        sign = rng.choice([-1.0, 1.0], (2, 500))
        far = sign * 10.0 ** rng.uniform(1.0, 100.0, (2, 500))
        t = 10.0 ** rng.uniform(1.0, 15.0, 300)
        off = rng.choice([-1.0, 1.0], (2, 300)) * 10.0 ** rng.uniform(-16.0, -4.0, (2, 300))
        near = (-3.0 * t * t * (1.0 + off[0]),
                rng.choice([-1.0, 1.0], 300) * 2.0 * t * (t * t - 1.0) * (1.0 + off[1]))
        for A, B in (far, near):
            for a, b, dist in zip(A, B, boundary_distance(A, B)):
                ref = float(decimal_distance(a, b))
                assert abs(dist - ref) <= 1e-12 * ref + 4.0 * eps * abs(a), (a, b, dist, ref)

    @pytest.mark.parametrize("A, B, expected", [(1e200, 0.0, 1e200), (-1e200, 0.0, 1e200),
                                                (-5.0, 1e200, 4.071626424892e133),
                                                (-1e250, 0.0, 1e250),
                                                (4.6159904574995045e122, -9.452656647056335e199,
                                                 3.92166518784725e133)])
    def test_huge_finite_coordinates(self, A, B, expected):
        # (-5, 1e200): the nearest curve point has 2t^3 = 1e200, 3t^2 about
        # the distance.  (4.6e122, -9.5e199): 3t^2 + A is the distance, to
        # 15 digits of a 200-digit solve, where 2t^3 - 2t - b at the float
        # root rounds to about 5 ulps of B, 3.4e184
        assert abs(boundary_distance(A, B) - expected) <= 1e-12 * expected

    def test_finite_input_gives_finite_distance(self):
        # nothing overflows, under the suite's warnings-as-errors filter: the
        # curve passes within about |A|, and the cusp distance is compared
        # halved
        big = [0.0, 1.0, 1e100, 1e250, 1.7e308, np.finfo(float).max]
        A, B = np.meshgrid(np.r_[big, np.negative(big)], np.r_[big, np.negative(big)])
        dist = boundary_distance(A, B)
        assert (0.5 * dist <= np.hypot(0.5 * (A + 3.0), 0.5 * B) * (1 + 1e-15)).all()
        assert np.isfinite(dist).all()
        assert (dist >= np.maximum(A, 0.0)).all()

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(cubic_region, "_NEWTON_MAX_STEPS", 2)
        with pytest.raises(RootFindingError):
            boundary_distance(-5.0, 1.0)

    @pytest.mark.parametrize("A, B", [(math.nan, 0.0), (-5.0, math.nan), (math.nan, math.inf)])
    def test_nan_gives_nan(self, A, B):
        assert math.isnan(boundary_distance(A, B))
        assert np.isnan(boundary_distance(np.array([A, -5.0]), np.array([B, 1.0]))).tolist() == [
            True, False]

    @pytest.mark.parametrize("A, B", [(math.inf, 0.0), (-math.inf, 0.0), (-5.0, math.inf),
                                      (-5.0, -math.inf)])
    def test_infinite_or_overflowing_gives_inf(self, A, B):
        assert boundary_distance(A, B) == math.inf

    def test_empty_and_zero_dimensional(self):
        empty = boundary_distance(np.zeros((0, 3)), np.zeros((0, 3)))
        assert isinstance(empty, np.ndarray) and empty.shape == (0, 3)
        assert type(boundary_distance(np.float64(-4.0), np.array(1.0))) is float
