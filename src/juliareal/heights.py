"""Weil and canonical heights for rational points under polynomial maps.

Everything runs on exact orbits, stepped as lowest-terms integer pairs by
``poly._PairMap``; floating iterates are useless at the depths where the
height limit stabilizes.  math.log on Python ints is correctly rounded,
which keeps h(f^n(x))/d^n accurate to the last few ulps.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Polynomial, _PairMap

DEFAULT_BIT_CAP = 10 ** 6


class BitSizeCapError(ValueError):
    """Orbit value too large; retry with a smaller depth."""


def _log_height(num, den) -> float:
    """log max(|num|, den) of num/den in lowest terms with den > 0."""
    return math.log(max(abs(num), den))


def weil_height(x) -> float:
    """log max(|num|, |den|) of x in lowest terms; h(0) = 0."""
    x = Fraction(x)
    return _log_height(x.numerator, x.denominator)


def _exact_orbit_point(p: Polynomial, x, n, bit_cap):
    """f^n(x) as a lowest-terms integer pair (N, D) with D > 0."""
    q = p.to_exact()
    d = q.degree
    step = _PairMap(q, Polynomial([1]))
    x = Fraction(x)
    N, D = x.numerator, x.denominator
    for k in range(n):
        # the next value has about d times the bits; refuse before paying
        # for a multiplication that would blow the cap anyway
        bits = N.bit_length() + D.bit_length()
        if bits > bit_cap or d * bits > 4 * bit_cap:
            raise BitSizeCapError(
                f"orbit value at step {k + 1} would exceed {bit_cap} bits; "
                f"use a depth below {k + 1}")
        N, D = step(N, D)
        if N.bit_length() + D.bit_length() > bit_cap:
            raise BitSizeCapError(
                f"orbit value at step {k + 1} exceeds {bit_cap} bits; "
                f"use a depth below {k + 1}")
    return N, D


def height_constant(p: Polynomial) -> float:
    """Telescoping constant C with |h(f(y)) - d h(y)| <= C for all rational y.

    Crude but explicit: log(1 + sum |c_i|) + d log 2 from clearing
    denominators in the two-variable homogenization.  Used as an error bar
    only.
    """
    q = p.to_exact()
    total = sum(abs(Fraction(c)) for c in q.coeffs)
    return math.log(1.0 + float(total)) + q.degree * math.log(2.0)


def _terminal_height(p: Polynomial, x, n):
    """(exact copy of p, h(f^n(x))); degree >= 2."""
    q = p.to_exact()
    if q.degree < 2:
        raise ValueError("degree >= 2 required")
    return q, _log_height(*_exact_orbit_point(q, x, n, DEFAULT_BIT_CAP))


def canonical_height(p: Polynomial, x, n) -> tuple[float, float]:
    """(h(f^n(x)) / d^n, C_f / d^n) for exact rational x; degree >= 2."""
    q, h = _terminal_height(p, x, n)
    dn = q.degree ** n
    return h / dn, height_constant(q) / dn


def functional_equation_residual(p: Polynomial, x, n) -> float:
    """|h^(f(x), n-1) - d h^(x, n)| with aligned terminal orbit point.

    Both estimates end at f^n(x), so one orbit serves both and the residual
    is pure log rounding.
    """
    return height_report(p, x, n)[2]


def height_report(p: Polynomial, x, n) -> tuple[float, float, float]:
    """(estimate, error bound, residual): canonical_height(p, x, n) and
    functional_equation_residual(p, x, n) from one orbit."""
    if n < 1:
        raise ValueError("depth >= 1 required")
    q, h = _terminal_height(p, x, n)
    d = q.degree
    dn = d ** n
    # h^(f(x), n-1) and h^(x, n) both end at f^n(x), whose height is h
    return h / dn, height_constant(q) / dn, abs(h / d ** (n - 1) - d * (h / dn))
