import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliareal import classifier
from juliareal.classifier import classify_batch, classify_real_julia
from juliareal.cubic_region import (b_zero, boundary_distance,
                                    fixed_point_trajectory, in_region,
                                    in_three_fixed_set, region_bound,
                                    region_scan)
from juliareal.poly import Polynomial

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
    """The per-cell distance loop region_scan used to run: both curve branches."""
    As = np.linspace(-9.0, -3.0, 2001)
    Bs = np.sqrt(np.maximum(region_bound(As), 0.0))
    d2 = np.minimum((As - A) ** 2 + (Bs - B) ** 2, (As - A) ** 2 + (-Bs - B) ** 2)
    return float(math.sqrt(d2.min()))


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
        data = s.to_pgm(2, 2)
        assert data.startswith(b"P5\n2 2\n255\n")
        assert len(data) == len(b"P5\n2 2\n255\n") + 4

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
            assert dist == reference_distance(A, B)
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
        assert boundary_distance(A, B) < 5e-3

    def test_far_point(self):
        assert boundary_distance(1.0, 0.0) > 3.5

    def test_arrays_match_per_point(self):
        rng = np.random.default_rng(8)
        A = rng.uniform(-10, 2, (10, 30))      # more points than one chunk
        B = rng.uniform(-8, 8, (10, 30))
        d = boundary_distance(A, B)
        assert d.shape == A.shape
        assert d.ravel().tolist() == [reference_distance(a, b)
                                      for a, b in zip(A.ravel(), B.ravel())]
        assert type(boundary_distance(-4.0, 1.0)) is float
