"""Dense univariate polynomials over floats or exact rationals.

One coefficient representation serves both domains: floats for the numeric
pipeline, ``fractions.Fraction`` (or int) for exact orbit work.  Coefficients
are stored in ascending power order, c0 .. cd, trailing zeros trimmed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Composition/iteration refuses to build anything bigger than this many
# coefficients.
DEGREE_CAP = 10**6

_EXACT_TYPES = (int, Fraction)


class DegreeCapError(ValueError):
    """Raised when iteration would exceed the coefficient-count cap."""


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class Polynomial:
    """Immutable dense polynomial; exact iff all coefficients are int/Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if len(coeffs) == 0:
            coeffs = [0]
        object.__setattr__(self, "coeffs", tuple(_trim(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ---------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lead(self):
        return self.coeffs[-1]

    @property
    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0

    @property
    def is_exact(self):
        return all(isinstance(c, _EXACT_TYPES) for c in self.coeffs)

    def to_float(self):
        return Polynomial([float(c) for c in self.coeffs])

    def to_exact(self):
        return Polynomial([c if isinstance(c, _EXACT_TYPES) else Fraction(c)
                           for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    # -- evaluation --------------------------------------------------------
    def __call__(self, z):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    def eval_many(self, z):
        """Vectorized Horner on a numpy array (float coefficients)."""
        z = np.asarray(z)
        acc = np.full(z.shape, complex(self.coeffs[-1]) if np.iscomplexobj(z)
                      else float(self.coeffs[-1]), dtype=z.dtype)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + (complex(c) if np.iscomplexobj(z) else float(c))
        return acc

    # -- arithmetic --------------------------------------------------------
    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if (len(a) + len(b) > 128 and not self.is_exact and not other.is_exact):
            return Polynomial(list(np.convolve(np.asarray(a, dtype=float),
                                               np.asarray(b, dtype=float))))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Polynomial(out)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(v):
        if isinstance(v, Polynomial):
            return v
        return Polynomial([v])

    # -- calculus / composition -------------------------------------------
    def derivative(self):
        if self.degree == 0:
            return Polynomial([0 * self.coeffs[0]])
        return Polynomial([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def compose(self, inner):
        """self(inner(X)) by Horner over the outer coefficients."""
        if (self.degree * inner.degree) + 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"composition would need {self.degree * inner.degree + 1} "
                f"coefficients (cap {DEGREE_CAP})")
        acc = Polynomial([self.coeffs[-1]])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * inner + Polynomial([c])
        return acc

    def iterate(self, n):
        """n-fold self-composition, n >= 1."""
        if n < 1:
            raise ValueError("iteration count must be >= 1")
        if self.degree ** n + 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"degree {self.degree}^{n} exceeds coefficient cap {DEGREE_CAP}")
        out = self
        for _ in range(n - 1):
            out = self.compose(out)
        return out

    # -- exact division (Fraction/int coefficients) ------------------------
    def divmod_exact(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        div = [Fraction(c) for c in other.coeffs]
        dq = len(rem) - len(div)
        if dq < 0:
            return Polynomial([Fraction(0)]), Polynomial(rem)
        quo = [Fraction(0)] * (dq + 1)
        for k in range(dq, -1, -1):
            q = rem[k + len(div) - 1] / div[-1]
            quo[k] = q
            if q:
                for j, d in enumerate(div):
                    rem[k + j] -= q * d
        return Polynomial(quo), Polynomial(rem[:len(div) - 1] or [Fraction(0)])

    def gcd_exact(self, other):
        """Monic gcd over the rationals."""
        a, b = self.to_exact(), other.to_exact()
        while not b.is_zero:
            a, b = b, a.divmod_exact(b)[1]
        if a.is_zero:
            return a
        lead = a.lead
        return Polynomial([c / lead for c in a.coeffs])


# -- affine conjugation ----------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x -> scale*x + shift with scale != 0."""

    scale: float
    shift: float = 0.0

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("affine map needs nonzero scale")

    def __call__(self, x):
        return self.scale * x + self.shift

    def inverse(self):
        return AffineMap(1 / self.scale, -self.shift / self.scale)

    def as_poly(self):
        return Polynomial([self.shift, self.scale])


def conjugate(p: Polynomial, phi: AffineMap) -> Polynomial:
    """phi o p o phi^{-1}."""
    inner = p.compose(phi.inverse().as_poly())
    return phi.as_poly().compose(inner)


# -- resultants -----------------------------------------------------------

def clear_denominators(values):
    """(L, [L v for v in values]) for ints and Fractions, with L the lcm of
    their denominators, so that every L v is an int."""
    L = math.lcm(*(v.denominator for v in values))
    return L, [v.numerator * (L // v.denominator) for v in values]


def _bareiss(m):
    """Fraction-free Bareiss elimination of an integer matrix, in place.

    m has n rows and at least n columns; every division is exact.  Row k
    ends as m[k][k] x_k + sum_{j>k} m[k][j] x_j = (its columns past n) of a
    system with the solutions of the original; entries below the diagonal
    are left unused.  Returns the sign of the row swaps, so that the
    determinant of the first n columns is sign * m[n-1][n-1], or 0 when
    those columns are singular.
    """
    n, width = len(m), len(m[0])
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign


def _det_exact(rows):
    """Determinant of a square matrix of ints and Fractions, as a Fraction.

    Each row is scaled by the lcm of its denominators, the integer matrix
    goes through fraction-free Bareiss elimination, and the result is
    divided by the product of the row scales.
    """
    scaled = [clear_denominators(row) for row in rows]
    m = [row for _, row in scaled]
    sign = _bareiss(m)
    return Fraction(sign * m[-1][-1], math.prod(scale for scale, _ in scaled))


def sylvester_resultant(a, b):
    """Resultant of two coefficient sequences (ascending order).

    Degrees are taken from the sequence lengths, so padded sequences give the
    resultant of the corresponding homogeneous forms.
    """
    m = len(a) - 1
    n = len(b) - 1
    if m == 0 and n == 0:
        return 1
    ar = list(reversed(a))
    br = list(reversed(b))
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + ar + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + br + [0] * (size - n - 1 - i))
    exact = all(isinstance(x, _EXACT_TYPES) for x in a + b)
    if exact:
        return _det_exact(rows)
    return float(np.linalg.det(np.array(rows, dtype=float)))


# -- serialization ---------------------------------------------------------

def coeff_to_json(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return c


def coeff_from_json(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def poly_to_json(p: Polynomial):
    return [coeff_to_json(c) for c in p.coeffs]


def poly_from_json(values):
    return Polynomial([coeff_from_json(v) for v in values])
