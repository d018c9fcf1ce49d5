"""The four benchmark workloads.

A workload builds one round of operations at a time from a random.Random:
a fixed list of public juliareal calls, each with the number of items it
covers and a check of its result computed apart from the program (see
oracles.py).  Every run repeats whole rounds, so every run attempts the same
mix of operations.  Calls look juliareal's functions up at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import juliareal
import oracles
from juliareal import heights, lattes, orbit


@dataclass
class Op:
    call: Callable[[], object]
    items: int
    check: Callable[[object], bool]
    # an operation on fixed inputs that fails because of a named fault in
    # the program; its failures are counted but do not make the run incorrect
    known_fault: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    # builds the round maker (rng -> list of Op); not part of any timing
    prepare: Callable[[], Callable]
    # one operation on fixed input: the untimed warm-up of a run, and what a
    # fresh interpreter runs right after `import juliareal` to time set-up
    warmup: str
    # seconds one round takes on the reference machine (README); a run of
    # --seconds repeats round(seconds / round_seconds) rounds
    round_seconds: float


# -- cubic-region ---------------------------------------------------------------
# One tile of the (A, B) plane of X^3 + AX + B is one region_scan call; one
# cell is one item.  A round covers A in [-6, 1] and B in [-4, 4] with a grid
# whose origin moves by up to one step from round to round.

STEP = 0.25
TILE_A, TILES_A = 7, 4          # 28 cells along A
TILE_B, TILES_B = 16, 2         # 32 cells along B


def _region_scan(a_range, b_range):
    return juliareal.region_scan(a_range, b_range, STEP)


def _check_tile(summary):
    if summary.cells != TILE_A * TILE_B or len(summary.rows) != summary.cells:
        return False
    A = np.array([r[0] for r in summary.rows])
    B = np.array([r[1] for r in summary.rows])
    verdict = np.array([bool(r[3]) for r in summary.rows])
    far = oracles.cubic_boundary_distance(A, B) > 2 * STEP
    return bool((verdict[far] == oracles.in_cubic_region(A[far], B[far])).all())


def cubic_region_round(rng):
    a0 = -6.0 + rng.uniform(0.0, STEP)
    b0 = -4.0 + rng.uniform(0.0, STEP)
    ops = []
    for i in range(TILES_A):
        for j in range(TILES_B):
            a_lo = a0 + i * TILE_A * STEP
            b_lo = b0 + j * TILE_B * STEP
            call = partial(_region_scan, (a_lo, a_lo + (TILE_A - 1) * STEP),
                           (b_lo, b_lo + (TILE_B - 1) * STEP))
            ops.append(Op(call, TILE_A * TILE_B, _check_tile))
    return ops


# -- classify-mixed -------------------------------------------------------------
# One map +-s * 2T_d(x/2), conjugated by a random real affine map, is one
# operation and one item.  Its Julia set is real iff |s| >= 1.

def _classify(p):
    return juliareal.classify_real_julia(p)


def _verdict_is(expected, report):
    return report.julia_real == expected


def _conjugated(sign, s, d, scale, shift):
    coeffs = [sign * s * c for c in oracles.chebyshev(d)]
    return juliareal.Polynomial(oracles.affine_conjugate(coeffs, scale, shift))


# For d = 5 the odd-negative branch works on f o f expanded to degree 25:
# random conjugates of -s*2T_5(x/2) fail on some inputs and not others
# (wrong verdicts and CriticalIntervalError for |s| > 1, RootFindingError
# now and then for |s| < 1), so they are left out and this fixed conjugate,
# which returns julia_real=False, stands for the fault.
FAULTY_MAP = (-1, 2.195881289156068, 5, 0.5200754685718052, 0.9513574476353566)


def _random_map_op(rng, d, sign, real_julia):
    s = rng.uniform(1.25, 2.5) if real_julia else rng.uniform(0.3, 0.8)
    scale = rng.choice((1.0, -1.0)) * math.exp(rng.uniform(-math.log(2), math.log(2)))
    p = _conjugated(sign, s, d, scale, rng.uniform(-1.5, 1.5))
    return Op(partial(_classify, p), 1, partial(_verdict_is, real_julia))


def classify_mixed_round(rng):
    ops = [_random_map_op(rng, d, sign, real_julia)
           for d in range(2, 7) for sign in (1, -1) for real_julia in (False, True)
           if not (d == 5 and sign < 0)]
    # one more quadratic puts the median latency in the middle of the
    # degree-4 maps (single-row Aberth) instead of on their upper edge
    ops.append(_random_map_op(rng, 2, rng.choice((1, -1)), rng.random() < 0.5))
    p = _conjugated(*FAULTY_MAP)
    ops.append(Op(partial(_classify, p), 1, partial(_verdict_is, True), known_fault=True))
    return ops


# -- backward-orbit -------------------------------------------------------------
# One preimage tree of s * 2T_d(x/2) is one operation; one point is one item.
# Depths give 10^4 - 10^5 points per tree.

DEPTHS = {2: 16, 3: 10, 4: 7, 5: 6, 6: 6}
ORBIT_CAP = 10 ** 5
REAL_TOL = 1e-6         # |Im z| / (1 + |z|) below this counts as real
RESIDUAL_TOL = 1e-10    # |f^n(z) - alpha| / (1 + |(f^n)'(z)|)
KS_BOUND = 1e-3         # sup distance to the arcsine law for s = +-1


def _backward_orbit(p, alpha, depth):
    return juliareal.backward_orbit(p, alpha, depth, cap=ORBIT_CAP)


def _check_tree(coeffs, alpha, depth, kind, tree):
    z = tree.points
    if z.size != (len(coeffs) - 1) ** depth:
        return False
    residual, gain = oracles.forward_residuals(coeffs, z, depth, alpha)
    if not (residual <= RESIDUAL_TOL * (1.0 + gain)).all():
        return False
    if not oracles.closed_under_conjugation(z, REAL_TOL):
        return False
    real = np.abs(z.imag) <= REAL_TOL * (1.0 + np.abs(z))
    if kind == "nonreal":
        return bool(not real.all())
    if not real.all():
        return False
    return kind != "chebyshev" or oracles.ks_distance(z.real, oracles.arcsine_cdf) < KS_BOUND


def backward_orbit_round(rng):
    ops = []
    for d, depth in DEPTHS.items():
        for kind in ("real", "chebyshev", "nonreal"):
            s = rng.choice((1.0, -1.0)) * {"real": rng.uniform(1.25, 2.5), "chebyshev": 1.0,
                                            "nonreal": rng.uniform(0.3, 0.8)}[kind]
            coeffs = [s * c for c in oracles.chebyshev(d)]
            alpha = rng.uniform(-1.9, 1.9)
            call = partial(_backward_orbit, juliareal.Polynomial(coeffs), alpha, depth)
            ops.append(Op(call, d ** depth, partial(_check_tree, coeffs, alpha, depth, kind)))
    return ops


# -- exact-certify --------------------------------------------------------------
# One call is one operation and one item: certify_nonabelian on duplication
# Lattes maps and on integer cubics, canonical heights and the functional
# equation on exact orbits, and orbit_status.  Five cheaper calls, five
# functional-equation checks and five Lattes certificates: the median
# latency falls in the middle of one class of cost, not on the edge of two.

CURVE_BOX = 6           # integer curves with |a|, |b|, |c| <= CURVE_BOX
REFERENCE = Path(__file__).resolve().parent / "data" / "lattes_excluded.json"
# y^2 = x^3 + x^2 - 4x - 3: cluster refinement in roots._modified_newton
# returns one double root twice, so lattes_critical_points raises
FAULTY_CURVE = (1, -4, -3)
HEIGHT_DEPTH = {2: 14, 3: 9}
FE_TOL = 1e-12


def _curves():
    """Nonsingular curves of the box, less those stored in the reference file."""
    excluded = {tuple(c) for c in json.loads(REFERENCE.read_text())["curves"]}
    box = range(-CURVE_BOX, CURVE_BOX + 1)
    return [(a, b, c) for a in box for b in box for c in box
            if oracles.cubic_discriminant(a, b, c) != 0 and (a, b, c) not in excluded]


def _random_rational(rng, top=9):
    q = rng.randint(2, top)
    return Fraction(rng.choice([p for p in range(-top, top + 1) if math.gcd(p, q) == 1]), q)


def _certify_lattes(abc, alpha):
    curve = lattes.WeierstrassCurve(*abc)
    return lattes.certify_nonabelian(lattes.duplication_lattes(curve), alpha, curve=curve)


def _check_lattes(abc, alpha, targets, cert):
    num, den = oracles.duplication_map(*abc)
    surjective = oracles.cubic_discriminant(*abc) < 0
    if cert.surjective["pass"] != surjective:
        return False
    if surjective:
        if not all(oracles.has_real_preimage(num, den, t) for t in targets):
            return False
    else:
        lo, hi = cert.surjective["witness"]["gap"]
        t = lo + 1.0 if hi == math.inf else (hi - 1.0 if lo == -math.inf else (lo + hi) / 2)
        if oracles.has_real_preimage(num, den, t):
            return False
    tag = cert.nonperiodic["tag"]
    if not oracles.orbit_tag_holds(tag, num, alpha, den):
        return False
    return cert.certified == (surjective and tag in ("nonperiodic", "preperiodic"))


def _certify_poly(coeffs, alpha):
    return lattes.certify_nonabelian(juliareal.Polynomial(coeffs), alpha)


def _check_poly(coeffs, alpha, julia_real, cert):
    if not cert.surjective["pass"]:
        return False
    if julia_real is not None and cert.julia_nonreal["pass"] == julia_real:
        return False
    if not oracles.orbit_tag_holds(cert.nonperiodic["tag"], coeffs, alpha):
        return False
    checks = (cert.surjective["pass"], cert.julia_nonreal["pass"], cert.nonperiodic["pass"])
    return cert.certified == all(checks)


def _canonical_height(coeffs, x, n):
    return heights.canonical_height(juliareal.Polynomial(coeffs), x, n)


def _check_height(coeffs, x, n, result):
    value, bound = result
    d = len(coeffs) - 1
    expected = oracles.weil_height(list(oracles.fraction_orbit(coeffs, x, n))[-1]) / d ** n
    return abs(value - expected) <= 1e-12 * (1.0 + expected) and 0.0 < bound < math.inf


def _fe_residual(coeffs, x, n):
    return heights.functional_equation_residual(juliareal.Polynomial(coeffs), x, n)


def _orbit_status(coeffs, alpha):
    return orbit.orbit_status(juliareal.Polynomial(coeffs), alpha)


def _check_orbit(coeffs, alpha, status):
    return oracles.orbit_tag_holds(status.tag, coeffs, alpha, period=status.period,
                                   tail=status.tail)


def _cubic_region_verdict(A, B):
    """Exact region membership, or None on the boundary itself."""
    bound = Fraction(-4 * A * (A + 3) ** 2, 27)
    if A == -3 or B * B == bound:
        return None
    return A < -3 and B * B < bound


def _height_point(rng):
    """A rational with denominator 7: orbits of monic integer maps then have
    denominators 7^(d^n), so every height call of a depth does the same work."""
    return Fraction(rng.choice([p for p in range(-6, 7) if p]), 7)


def _small_poly(rng):
    """A monic integer quadratic or cubic with a nonzero linear or constant part."""
    if rng.random() < 0.5:
        return [rng.randint(-3, 2), 0, 1]
    return [rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2)), 0, 1]


def exact_certify_round(rng, curves):
    ops = []
    for _ in range(4):
        abc = rng.choice(curves)
        alpha = _random_rational(rng)
        targets = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        ops.append(Op(partial(_certify_lattes, abc, alpha), 1,
                      partial(_check_lattes, abc, alpha, targets)))
    ops.append(Op(partial(_certify_lattes, FAULTY_CURVE, Fraction(1, 3)), 1,
                  partial(_check_lattes, FAULTY_CURVE, Fraction(1, 3), [0.0]),
                  known_fault=True))

    # X^3 + AX + B, checked against the analytic region
    A = rng.choice([a for a in range(-14, 5) if a != 0])
    B = rng.randint(-20, 20)
    alpha = rng.randint(-3, 3) if rng.random() < 0.5 else _random_rational(rng)
    ops.append(Op(partial(_certify_poly, [B, A, 0, 1], alpha), 1,
                  partial(_check_poly, [B, A, 0, 1], alpha, _cubic_region_verdict(A, B))))

    coeffs = _small_poly(rng)
    x, n = _height_point(rng), HEIGHT_DEPTH[len(coeffs) - 1]
    ops.append(Op(partial(_canonical_height, coeffs, x, n), 1,
                  partial(_check_height, coeffs, x, n)))
    n = HEIGHT_DEPTH[2]
    ops.append(Op(partial(_canonical_height, [0, 0, 1], 2, n), 1,
                  lambda r: abs(r[0] - math.log(2)) <= 1e-12))
    for _ in range(5):
        coeffs = _small_poly(rng)
        x, n = _height_point(rng), HEIGHT_DEPTH[len(coeffs) - 1]
        ops.append(Op(partial(_fe_residual, coeffs, x, n), 1, lambda r: 0.0 <= r <= FE_TOL))

    for alpha in (rng.randint(-3, 3), _random_rational(rng)):
        coeffs = _small_poly(rng)
        ops.append(Op(partial(_orbit_status, coeffs, alpha), 1,
                      partial(_check_orbit, coeffs, alpha)))
    return ops


def _exact_certify_factory():
    curves = _curves()
    return lambda rng: exact_certify_round(rng, curves)


WORKLOADS = {w.name: w for w in (
    Workload("cubic-region", lambda: cubic_region_round,
             "juliareal.region_scan((-4.0, -3.75), (0.0, 0.25), 0.25)", 1.05),
    Workload("classify-mixed", lambda: classify_mixed_round,
             "juliareal.classify_real_julia(juliareal.Polynomial([3.0, 0.0, -6.0, 0.0, 1.5]))",
             0.5),
    Workload("backward-orbit", lambda: backward_orbit_round,
             "juliareal.backward_orbit(juliareal.Polynomial([-2.0, 0.0, 1.0]), 0.5, 10)", 3.85),
    Workload("exact-certify", _exact_certify_factory,
             "from juliareal import lattes; c = lattes.WeierstrassCurve(0, 0, -2); "
             "lattes.certify_nonabelian(lattes.duplication_lattes(c), 1, curve=c)", 0.17),
)}
