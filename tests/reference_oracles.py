"""Independent reference oracles that the tests check the library against.

The chord-tangent group law on a Weierstrass curve, which the duplication
Lattes map must commute with, and the extreme real fixed points of
X^3 - 3a^2 X + B along a sweep of B.  No library code calls these; they
live here so that the package holds only what its callers use.
"""

import math
from dataclasses import dataclass

import numpy as np

from juliareal.lattes import INFINITY, WeierstrassCurve, duplication_lattes
from juliareal.roots import near_axis, roots_batch

# (x, y) is on y^2 = F(x) when |y^2 - F(x)| is at most this times
# 1 + |y^2| + |F(x)|
ON_CURVE_TOL = 1e-9
# an extreme fixed point along fixed_point_trajectory: |Im z| <= this (1 + |z|)
TRAJECTORY_REALNESS_TOL = 1e-7


@dataclass(frozen=True)
class CurvePoint:
    x: object = None
    y: object = None
    at_infinity: bool = False

    @staticmethod
    def zero():
        return CurvePoint(at_infinity=True)

    def on_curve(self, curve: WeierstrassCurve, rel=ON_CURVE_TOL):
        if self.at_infinity:
            return True
        lhs = self.y * self.y
        rhs = curve.F(self.x)
        return abs(lhs - rhs) <= rel * (1.0 + abs(float(lhs)) + abs(float(rhs)))


def double_point(curve: WeierstrassCurve, P: CurvePoint) -> CurvePoint:
    """Chord-tangent doubling; independent of the Lattes formula."""
    if P.at_infinity:
        return P
    if P.y == 0:
        return CurvePoint.zero()
    lam = curve.F.derivative()(P.x) / (2 * P.y)
    x2 = lam * lam - curve.a - 2 * P.x
    y2 = lam * (P.x - x2) - P.y
    return CurvePoint(x2, y2)


def check_commutation(curve: WeierstrassCurve, x0: float) -> float:
    """|f(x0) - x([2](x0, sqrt(F(x0))))|, with 0 when both sides are infinite."""
    Fx = float(curve.F(x0))
    if Fx < 0:
        raise ValueError("F(x0) < 0: no real point above x0")
    f = duplication_lattes(curve)
    P = CurvePoint(float(x0), math.sqrt(Fx))
    twoP = double_point(curve, P)
    fx = f(float(x0))
    if twoP.at_infinity and fx is INFINITY:
        return 0.0
    if twoP.at_infinity or fx is INFINITY:
        return math.inf
    return abs(fx - float(twoP.x))


def in_three_fixed_set(A, B) -> bool:
    """Closed set where X^3 + (A-1)X + B has three real roots (disc >= 0)."""
    return -4.0 * (A - 1.0) ** 3 - 27.0 * B * B >= 0.0


def fixed_point_trajectory(a, b_grid):
    """Rows (B, alpha1, alpha2, in_set) tracking the extreme real fixed points.

    alpha1/alpha2 are the smallest/largest real roots of f - X for
    f = X^3 - 3a^2 X + B; rows outside the three-real-fixed-point set carry
    in_set = False and NaN alphas instead of aborting the sweep.
    """
    A = -3.0 * a * a
    rows = []
    for B in b_grid:
        B = float(B)
        if not in_three_fixed_set(A, B):
            rows.append((B, math.nan, math.nan, False))
            continue
        r = roots_batch(np.array([[B, A - 1.0, 0.0, 1.0]]))[0]
        real = np.sort(r.real[near_axis(r, TRAJECTORY_REALNESS_TOL)])
        rows.append((B, float(real[0]), float(real[-1]), True))
    return rows
