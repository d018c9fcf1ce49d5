"""Weil and canonical heights for rational points under polynomial maps.

Everything runs on orbits of lowest-terms integer pairs (N, D), stepped as
``poly._PairMap`` steps them; floating iterates are useless at the depths
where the height limit stabilizes.  A height is math.log(max(|N|, D)), and
math.log of a Python int depends only on that int rounded to 53 bits
(PyLong_AsDouble, or _PyLong_Frexp past the float range).  So when R = 1
the orbit runs on integer balls, which bracket N and D closely enough to
give that rounding, and every other case runs the exact orbit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Polynomial, _PairMap

DEFAULT_BIT_CAP = 10 ** 6
# bits kept in the midpoint of each ball of the R = 1 orbit
BALL_BITS = 128


class BitSizeCapError(ValueError):
    """Orbit value too large; retry with a smaller depth."""


def _log_height(num, den) -> float:
    """log max(|num|, den) of num/den in lowest terms with den > 0."""
    return math.log(max(abs(num), den))


def weil_height(x) -> float:
    """log max(|num|, |den|) of x in lowest terms; h(0) = 0."""
    x = Fraction(x)
    return _log_height(x.numerator, x.denominator)


def _cap_message(k, bit_cap, before):
    if before:
        return (f"orbit value at step {k + 1} would exceed {bit_cap} bits; "
                f"use a depth below {k + 1}")
    return f"orbit value at step {k + 1} exceeds {bit_cap} bits; use a depth below {k + 1}"


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
            raise BitSizeCapError(_cap_message(k, bit_cap, True))
        N, D = step(N, D)
        if N.bit_length() + D.bit_length() > bit_cap:
            raise BitSizeCapError(_cap_message(k, bit_cap, False))
    return N, D


# -- integer balls ----------------------------------------------------------
# A ball (m, r, e) holds every value v with |v - m 2^e| <= r 2^e: m and r
# are ints, r >= 0, e >= 0.  Midpoints keep BALL_BITS bits (Rump, Acta
# Numerica 19, 2010, on midpoint-radius arithmetic).

def _cut(m, r, e, t):
    """The ball (m, r, e) at exponent e + t, t > 0: floor the midpoint,
    whose dropped bits are below 1, and add 2 for them and r's."""
    return m >> t, (r >> t) + 2, e + t


def _trim(m, r, e):
    t = max(m.bit_length(), r.bit_length()) - BALL_BITS
    return _cut(m, r, e, t) if t > 0 else (m, r, e)


def _mul(a, b):
    (m, r, e), (k, s, f) = a, b
    return _trim(m * k, abs(m) * s + abs(k) * r + r * s, e + f)


def _add(a, b):
    if a[2] < b[2]:
        a, b = b, a
    (m, r, e), (k, s, f) = a, b
    if f < e:
        k, s, f = _cut(k, s, f, e - f)
    return _trim(m + k, r + s, e)


def _bit_bounds(N, D):
    """(least, greatest) sum of the bit lengths of two integers, one in
    each ball."""
    lo = hi = 0
    for m, r, e in (N, D):
        a = abs(m)
        if a > r:
            lo += (a - r).bit_length() + e
        if a + r:
            hi += (a + r).bit_length() + e
    return lo, hi


def _ball_log_height(step, x, n, bit_cap):
    """log max(|N|, D) of f^n(x) for a step with R = 1, bit for bit as
    _log_height(*_exact_orbit_point(...)) gives it, raising the same
    BitSizeCapError; None where the balls cannot decide a cap check or the
    final rounding.

    R = 1 makes every step's gcd 1, so N and D need no gcd and can be
    balls: N' = G(N, D) by the homogeneous Horner of _PairMap.__call__,
    and D' = D^d, each ball with its own exponent.  The cap checks are
    those of _exact_orbit_point, decided on bit-length bounds.
    """
    G = step.G
    # bits > bit_cap or d bits > 4 bit_cap, as _exact_orbit_point refuses
    limit = min(bit_cap, 4 * bit_cap // (len(G) - 1))
    N, D = _trim(x.numerator, 0, 0), _trim(x.denominator, 0, 0)
    lo, hi = _bit_bounds(N, D)
    for k in range(n):
        if lo > limit:
            raise BitSizeCapError(_cap_message(k, bit_cap, True))
        if hi > limit:
            return None
        A, Dk = (G[-1] * N[0], N[1], N[2]), D  # G[-1] N, exactly: G[-1] = +-1
        for i, g in enumerate(G[-2::-1]):
            if i:
                Dk = _mul(Dk, D)
                A = _mul(A, N)
            if g:
                A = _add(A, _trim(g * Dk[0], abs(g) * Dk[1], Dk[2]))
        N, D = A, Dk
        lo, hi = _bit_bounds(N, D)
        if lo > bit_cap:
            raise BitSizeCapError(_cap_message(k, bit_cap, False))
        if hi > bit_cap:
            return None
    # max(|N|, D) lies in [lo, hi] 2^s; a rounding of V/2^s to 53 bits
    # that both ends share is V's own, scaled by 2^-s
    s = max(N[2], D[2])
    lo = hi = 0
    for m, r, e in (N, D):
        a = abs(m)
        lo = max(lo, max(a - r, 0) >> (s - e))
        hi = max(hi, -(-(a + r) >> (s - e)))
    if float(lo) != float(hi):
        return None
    return math.log(int(float(lo)) << s)


def _orbit_height(q: Polynomial, x, n, bit_cap):
    """h(f^n(x)) for an exact polynomial q: by the ball orbit when its step
    has R = 1 (integer coefficients, lead +-1), by the exact orbit for any
    other q and wherever the balls leave a cap check or the rounding
    undecided."""
    x = Fraction(x)
    step = _PairMap(q, Polynomial([1]))
    if step.R == 1:
        h = _ball_log_height(step, x, n, bit_cap)
        if h is not None:
            return h
    return _log_height(*_exact_orbit_point(q, x, n, bit_cap))


def height_constant(p: Polynomial) -> float:
    """Telescoping constant C with |h(f(y)) - d h(y)| <= C for all rational y.

    Write f = G / (L Z^d) as _PairMap does, G an integer form of degree d
    and L the common denominator of the coefficients, and let
    S = sum_{i<d} |G_i| and K = 1 + S / |G_d|.  For y = N/D in lowest terms
    f(y) = A/B with A = G(N, D) and B = L D^d, so with M = max(|N|, D):
    - max(|A|, B) <= max(sum |G_i|, L) M^d, so h(f(y)) - d h(y) <= C_up
      = log max(sum |G_i|, L);
    - gcd(A, B) divides R = (L |G_d|)^d.  If |N| <= K D, then
      B >= (L / K^d) M^d.  If |N| > K D, then M = |N| > D and
      |A| >= |N|^(d-1) (|G_d| |N| - S D) > (|G_d| / K) M^d.  So
      d h(y) - h(f(y)) <= C_low = d log(L |G_d|) - log min(L / K^d, |G_d| / K).
    C is the max of C_up, C_low and the cruder log(1 + sum |c_i|) + d log 2,
    kept so that no bound shrinks and C > 0 even for X^d.  Used as an error
    bar: |h^(x) - h(f^n(x)) / d^n| <= C / d^n.
    """
    q = p.to_exact()
    d = q.degree
    step = _PairMap(q, Polynomial([1]))
    G, L = step.G, step.H[0]
    lead = abs(G[-1])
    S = sum(abs(g) for g in G[:-1])
    log_K = math.log(lead + S) - math.log(lead)
    crude = math.log(1.0 + (S + lead) / L) + d * math.log(2.0)
    c_up = math.log(max(S + lead, L))
    c_low = d * math.log(L * lead) - min(math.log(L) - d * log_K, math.log(lead) - log_K)
    return max(crude, c_up, c_low)


def _terminal_height(p: Polynomial, x, n):
    """(exact copy of p, h(f^n(x))); degree >= 2."""
    q = p.to_exact()
    if q.degree < 2:
        raise ValueError("degree >= 2 required")
    return q, _orbit_height(q, x, n, DEFAULT_BIT_CAP)


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
