"""Tests of the benchmark's own helpers.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from juliareal import Polynomial, in_region, orbit_status  # noqa: E402


class TestTailPercentile:
    def test_forty_samples_give_p75(self):
        value, pct, n = run.tail_percentile(list(range(40)))
        assert (value, pct, n) == (29, 75.0, 40)

    def test_ten_samples_beyond_the_value(self):
        samples = [float(x) for x in np.random.default_rng(0).permutation(257)]
        value, pct, n = run.tail_percentile(samples)
        assert sum(s > value for s in samples) == 10
        assert pct == pytest.approx(100 * 247 / 257)

    def test_too_few_samples(self):
        assert run.tail_percentile(list(range(10))) is None
        assert run.tail_percentile(list(range(11)))[:2] == (0, 100 / 11)


class TestCubicRegion:
    def test_known_points(self):
        # B0(a) = 2a(a^2 - 1) bounds the region at A = -3a^2
        a = 2.0
        b0 = 2 * a * (a * a - 1)
        assert oracles.in_cubic_region(-3 * a * a, b0)
        assert not oracles.in_cubic_region(-3 * a * a, b0 + 1e-9)
        assert oracles.in_cubic_region(-3.0, 0.0)
        assert not oracles.in_cubic_region(-2.999, 0.0)

    def test_agrees_with_the_program_on_a_grid(self):
        A, B = np.meshgrid(np.linspace(-7, 1, 41), np.linspace(-5, 5, 37))
        ours = oracles.in_cubic_region(A, B)
        theirs = np.vectorize(in_region)(A, B)
        assert (ours == theirs).all()

    def test_boundary_distance(self):
        a = 1.5
        on_curve = (-3 * a * a, 2 * a * (a * a - 1))
        assert oracles.cubic_boundary_distance(*on_curve)[0] < 1e-6
        assert oracles.cubic_boundary_distance(0.0, 0.0)[0] == pytest.approx(3.0)
        # above the cusp (-3, 0) the curve bends closer than the cusp itself
        assert 0.4 < oracles.cubic_boundary_distance(-3.0, 0.5)[0] < 0.5


class TestArcsine:
    def test_cdf_values(self):
        F = oracles.arcsine_cdf
        assert F(-2.0) == 0.0 and F(2.0) == 1.0 and F(0.0) == 0.5
        assert F(math.sqrt(2.0)) == pytest.approx(0.75)
        assert F(-5.0) == 0.0 and F(5.0) == 1.0

    def test_ks_of_chebyshev_nodes_is_small(self):
        n = 1000
        nodes = 2 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        assert oracles.ks_distance(nodes, oracles.arcsine_cdf) <= 0.5 / n + 1e-12

    def test_ks_of_uniform_is_large(self):
        x = np.linspace(-2, 2, 2001)
        assert oracles.ks_distance(x, oracles.arcsine_cdf) > 0.05


class TestFractionOrbit:
    def test_orbit_values(self):
        assert list(oracles.fraction_orbit([-1, 0, 1], Fraction(1, 2), 2)) == [
            Fraction(1, 2), Fraction(-3, 4), Fraction(-7, 16)]

    def test_first_repeat(self):
        assert oracles.first_repeat(oracles.fraction_orbit([-1, 0, 1], 0, 10)) == (0, 2)
        assert oracles.first_repeat(oracles.fraction_orbit([-2, 0, 1], 1, 10)) == (1, 2)
        assert oracles.first_repeat(oracles.fraction_orbit([1, 0, 1], 1, 5)) is None

    def test_pole_ends_the_orbit(self):
        # f = 1/x sends 0 to the pole
        assert list(oracles.fraction_orbit([1], 0, 3, den=[0, 1])) == [0, None]

    @pytest.mark.parametrize("coeffs, alpha", [
        ([-1, 0, 1], 0), ([-2, 0, 1], 1), ([-2, 0, 1], 0), ([1, -4, 0, 1], 3),
        ([-2, 0, 1], Fraction(1, 3)), ([0, -1, 0, 1], 1)])
    def test_tags_agree_with_orbit_status(self, coeffs, alpha):
        status = orbit_status(Polynomial(coeffs), alpha)
        assert oracles.orbit_tag_holds(status.tag, coeffs, alpha,
                                       period=status.period, tail=status.tail)

    def test_wrong_tags_are_caught(self):
        assert not oracles.orbit_tag_holds("periodic", [-1, 0, 1], 0, period=3)
        assert not oracles.orbit_tag_holds("preperiodic", [-1, 0, 1], 0)
        assert not oracles.orbit_tag_holds("nonperiodic", [-2, 0, 1], 1)
        assert not oracles.orbit_tag_holds("periodic", [1, 0, 1], 1)


class TestPolynomials:
    def test_chebyshev(self):
        assert oracles.chebyshev(2) == [-2, 0, 1]
        assert oracles.chebyshev(5) == [0, 5, 0, -5, 0, 1]

    def test_affine_conjugate(self):
        f = [Fraction(c) for c in oracles.chebyshev(3)]
        g = oracles.affine_conjugate(f, Fraction(2), Fraction(1))
        phi = lambda x: 2 * x + 1  # noqa: E731
        for x in (Fraction(-1), Fraction(1, 3), Fraction(5, 2)):
            assert oracles.horner(g, phi(x)) == phi(oracles.horner(f, x))

    def test_conjugation_closure(self):
        z = np.array([1 + 2j, 1 - 2j, 3.0, -1 + 1e-3j, -1 - 1e-3j])
        assert oracles.closed_under_conjugation(z, 1e-9)
        assert not oracles.closed_under_conjugation(z[:-1], 1e-9)

    def test_conjugation_closure_with_aligned_pairs(self):
        # pairs on one vertical line: rounding in the real parts must not
        # make them miss their partners
        rng = np.random.default_rng(1)
        w = 1e-17 * rng.normal(size=40) + 1j * rng.uniform(0.1, 2.0, size=40)
        z = np.concatenate([w, np.conj(w) + 1e-17 * rng.normal(size=40)])
        rng.shuffle(z)
        assert oracles.closed_under_conjugation(z, 1e-9)
        assert not oracles.closed_under_conjugation(np.r_[z, 0.5j, -0.6j], 1e-9)

    def test_duplication_map_doubles_points(self):
        # y^2 = x^3 - 2 has P = (3, 5); the tangent at P gives x(2P)
        num, den = oracles.duplication_map(0, 0, -2)
        lam = Fraction(27, 10)
        assert oracles.horner(num, 3) / Fraction(oracles.horner(den, 3)) == lam * lam - 6


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "items_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_tracer_counts_calls_and_restores_the_program():
    import juliareal
    from juliareal import classifier
    original = classifier.real_roots_ex
    tracer = tracing.Tracer()
    tracer.install()
    try:
        juliareal.classify_real_julia(Polynomial([0.0, -4.0, 0.0, 1.0]))
    finally:
        tracer.uninstall()
    assert classifier.real_roots_ex is original
    m = tracer.metrics(1)
    assert m["classifier.classify_real_julia.calls"]["value"] == 1
    assert m["roots.real_roots_ex.calls"]["value"] == 2
    assert m["roots.roots_shifted.rows_per_call"]["value"] == 1
    assert 0 < m["classifier.classify_real_julia.self_ms"]["value"] \
        < m["classifier.classify_real_julia.ms"]["value"]
