"""Reference computations the benchmark checks juliareal's outputs against.

Nothing here imports juliareal: each function recomputes a fact from its
definition (the analytic cubic region, the arcsine law, exact orbits over
Fraction, the duplication formula, numpy.roots), so a fault in the program
cannot hide inside its own check.  Polynomials are lists of coefficients in
ascending power order, as juliareal stores them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# -- polynomials as coefficient lists ---------------------------------------

def _add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def chebyshev(d):
    """Integer coefficients of 2 T_d(x/2): P0 = 2, P1 = x, P(n+1) = x Pn - P(n-1).

    s * P_d has a real Julia set iff |s| >= 1, and real affine conjugation
    keeps that true; for s = +-1 the Julia set is [-2, 2] with the arcsine
    law as its equilibrium measure.
    """
    prev, cur = [2], [0, 1]
    if d == 0:
        return prev
    for _ in range(d - 1):
        prev, cur = cur, _add([0] + cur, [-c for c in prev])
    return cur


def affine_conjugate(coeffs, scale, shift):
    """Coefficients of phi o f o phi^-1 for phi(x) = scale * x + shift.

    Works in the arithmetic of its arguments: floats give floats, Fractions
    and ints give exact coefficients.
    """
    inverse = [-shift / scale, 1 / scale]
    acc = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        acc = _add(_mul(acc, inverse), [c])
    out = [scale * c for c in acc]
    out[0] += shift
    return out


# -- the cubic region X^3 + A X + B ------------------------------------------

def in_cubic_region(A, B):
    """A <= -3 and B^2 <= -4A(A+3)^2/27, elementwise on arrays."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return (A <= -3.0) & (B * B <= -4.0 * A * (A + 3.0) ** 2 / 27.0)


_CURVE_A = np.linspace(-15.0, -3.0, 12001)
_CURVE_B = np.sqrt(-4.0 * _CURVE_A * (_CURVE_A + 3.0) ** 2 / 27.0)


def cubic_boundary_distance(A, B):
    """Distance from each (A, B) to the region's boundary B = +-sqrt(-4A(A+3)^2/27).

    The boundary is sampled every 0.001 in A over [-15, -3], so the result
    is accurate to about 1e-3 for points with A >= -9: far finer than the
    two-step band the scan check leaves out.
    """
    A = np.atleast_1d(np.asarray(A, dtype=float))
    B = np.abs(np.atleast_1d(np.asarray(B, dtype=float)))
    d2 = (A[:, None] - _CURVE_A[None, :]) ** 2 + (B[:, None] - _CURVE_B[None, :]) ** 2
    return np.sqrt(d2.min(axis=1))


# -- measures -----------------------------------------------------------------

def arcsine_cdf(x):
    """CDF of the equilibrium measure of [-2, 2]: 1/2 + asin(x/2)/pi."""
    return 0.5 + np.arcsin(np.clip(np.asarray(x, dtype=float) / 2.0, -1.0, 1.0)) / math.pi


def ks_distance(samples, cdf):
    """Sup distance between the empirical CDF of samples and a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    fx = cdf(x)
    above = np.arange(1, n + 1) / n - fx
    below = fx - np.arange(n) / n
    return float(max(above.max(), below.max()))


def forward_residuals(coeffs, points, depth, alpha):
    """(|f^depth(z) - alpha|, |(f^depth)'(z)|) for each point z.

    The derivative of the iterate bounds how far rounding in z can move
    f^depth(z), so it scales the residual bound.
    """
    c = [complex(x) for x in coeffs]
    dc = [i * c[i] for i in range(1, len(c))]
    v = np.asarray(points, dtype=complex)
    gain = np.ones(v.shape)
    for _ in range(depth):
        gain = gain * np.abs(horner(dc, v))
        v = horner(c, v)
    return np.abs(v - alpha), gain


def _has_partner(a, b, tol):
    """Is every point of a within tol * (1 + |point|) of some point of b?"""
    b = b[np.argsort(b.real)]
    radius = tol * (1.0 + np.abs(a))
    lo = np.searchsorted(b.real, a.real - radius, "left")
    hi = np.searchsorted(b.real, a.real + radius, "right")
    best = np.full(a.shape, np.inf)
    for k in range(int((hi - lo).max(initial=0))):
        near = np.abs(a - b[np.minimum(lo + k, b.size - 1)])
        best = np.minimum(best, np.where(lo + k < hi, near, np.inf))
    return bool((best <= radius).all())


def closed_under_conjugation(points, tol):
    """Do the nonreal points pair off with their conjugates within tol?

    As many points lie above the axis as below, and each one on either side
    has a mirror image on the other within tol * (1 + |z|).
    """
    z = np.asarray(points, dtype=complex)
    scale = 1.0 + np.abs(z)
    upper = z[z.imag > tol * scale]
    lower = np.conj(z[z.imag < -tol * scale])
    return (upper.size == lower.size and _has_partner(upper, lower, tol)
            and _has_partner(lower, upper, tol))


# -- exact orbits ---------------------------------------------------------------

def fraction_orbit(num, x, steps, den=(1,)):
    """Yield x, f(x), ..., f^steps(x) over Fraction for f = num/den.

    Yields None and stops when the orbit lands on a pole.
    """
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    v = Fraction(x)
    yield v
    for _ in range(steps):
        q = horner(den, v)
        if q == 0:
            yield None
            return
        v = horner(num, v) / q
        yield v


def first_repeat(values, bit_cap=20000):
    """(j, k) for the first k with values[k] == values[j], j < k.

    None when the values end, reach a pole or outgrow bit_cap bits first.
    """
    seen = {}
    for k, v in enumerate(values):
        if v is None or v.numerator.bit_length() + v.denominator.bit_length() > bit_cap:
            return None
        if v in seen:
            return seen[v], k
        seen[v] = k
    return None


def orbit_tag_holds(tag, num, x, den=(1,), period=None, tail=None, horizon=64,
                    distinct_steps=4):
    """Does the exact orbit of x under num/den bear out an orbit-status tag?

    periodic and preperiodic must match the first repeat of the Fraction
    orbit, including period and tail where given; nonperiodic needs the first
    distinct_steps iterates to be distinct (or the orbit to reach a pole).
    """
    if tag in ("periodic", "preperiodic"):
        hit = first_repeat(fraction_orbit(num, x, horizon, den))
        if hit is None or (hit[0] == 0) != (tag == "periodic"):
            return False
        j, k = hit
        return period in (None, k - j) and (tag == "periodic" or tail in (None, j))
    if tag == "nonperiodic":
        return first_repeat(fraction_orbit(num, x, distinct_steps, den)) is None
    return False


def weil_height(x):
    x = Fraction(x)
    return math.log(max(abs(x.numerator), x.denominator))


# -- duplication Lattes maps --------------------------------------------------

def cubic_discriminant(a, b, c):
    """Discriminant of x^3 + a x^2 + b x + c."""
    return 18 * a * b * c - 4 * a ** 3 * c + a * a * b * b - 4 * b ** 3 - 27 * c * c


def duplication_map(a, b, c):
    """(num, den) with x([2]P) = num(x)/den(x) on y^2 = x^3 + a x^2 + b x + c."""
    return [b * b - 4 * a * c, -8 * c, -2 * b, 0, 1], [4 * c, 4 * b, 4 * a, 4]


def has_real_preimage(num, den, t, tol=1e-7):
    """Does num(x) - t den(x) = 0 have a real root (numpy.roots)?"""
    coeffs = _add([float(v) for v in num], [-t * float(v) for v in den])
    roots = np.roots(coeffs[::-1])
    return bool((np.abs(roots.imag) <= tol * (1.0 + np.abs(roots))).any())
