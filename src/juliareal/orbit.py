"""Brute-force dynamical ground truth.

Escape-time renders, backward-orbit trees via the batched
root solver, empirical preimage measures with a Kolmogorov-Smirnov distance,
and exact orbit status on lowest-terms integer pairs (``poly._PairMap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .heights import DEFAULT_BIT_CAP
from .poly import Polynomial, _number_text, _PairMap
from .roots import RootFindingError, roots_shifted
from .tolerances import NONREAL_TOL

DEFAULT_ORBIT_CAP = 3 ** 10


class OrbitCapError(ValueError):
    """Backward-orbit level would exceed the point cap."""


class ExceptionalPointError(ValueError):
    """Base point has a one-point preimage set; measures degenerate."""


def escape_radius(p: Polynomial):
    """R with |z| > R implying |p(z)| >= 2|z| (and hence monotone escape).

    max(1, (2 + sum_{i<d} |c_i|) / |c_d|): a Fraction, exactly, when p has
    exact coefficients, else a float.
    """
    if p.degree < 2:
        raise ValueError("degree >= 2 required")
    if p.is_exact:
        coeffs = [abs(Fraction(c)) for c in p.coeffs]
        return max(Fraction(1), (2 + sum(coeffs[:-1])) / coeffs[-1])
    q = p.to_float()
    return max(1.0, (2.0 + sum(abs(float(c)) for c in q.coeffs[:-1])) / abs(float(q.lead)))


def render_filled_julia(p: Polynomial, window, resolution, max_iter=100):
    """Escape-time byte grid over a complex rectangle.

    window = (re_min, re_max, im_min, im_max); resolution = (width, height).
    255 = not escaped within budget, lower bytes = earlier escape.  Row 0 is
    the top of the window (largest imaginary part).
    """
    re_min, re_max, im_min, im_max = window
    width, height = resolution
    if width < 1 or height < 1:
        raise ValueError("positive resolution required")
    if max_iter < 1:
        raise ValueError("max_iter >= 1 required")
    q = p.to_float()
    radius = escape_radius(q)
    xs = np.linspace(re_min, re_max, width)
    ys = np.linspace(im_max, im_min, height)
    z = xs[None, :] + 1j * ys[:, None]
    steps = np.full(z.shape, -1, dtype=np.int32)
    active = np.abs(z) <= radius
    steps[~active] = 0
    v = z.copy()
    for k in range(max_iter):
        v[active] = q(v[active])
        escaped = active & (np.abs(v) > radius)
        steps[escaped] = k + 1
        active &= ~escaped
        if not active.any():
            break
    out = np.where(steps < 0, 255,
                   np.minimum(254, (255.0 * steps / max_iter)).astype(np.int32))
    return out.astype(np.uint8)


@dataclass
class BackwardOrbit:
    """Level-n preimage multiset of a base point (multiplicities kept)."""

    base: complex
    depth: int
    points: np.ndarray          # complex, d^depth entries
    poly: Polynomial

    def residuals(self):
        """|f^n(point) - base| by n-fold forward evaluation."""
        q = self.poly.to_float()
        v = self.points.copy()
        for _ in range(self.depth):
            v = q(v)
        return np.abs(v - self.base)


def backward_orbit(p: Polynomial, alpha, depth, cap=DEFAULT_ORBIT_CAP) -> BackwardOrbit:
    """Full preimage tree level `depth` via iterated root extraction."""
    q = p.to_float()
    d = q.degree
    if d < 1:
        raise ValueError("degree >= 1 required")
    if depth < 0:
        raise ValueError("depth >= 0 required")
    if d ** depth > cap:
        raise OrbitCapError(f"{d}^{depth} points exceeds cap {cap}")
    level = np.array([complex(alpha)], dtype=complex)
    for n in range(depth):
        try:
            level = roots_shifted(q, level).ravel()
        except RootFindingError as err:
            raise RootFindingError(
                f"root finding failed expanding level {n + 1}", best=err.best) from err
        # deterministic order for reproducible measures: by real part, then
        # imaginary part, ties (and +-0.0) kept in solver order
        level = np.sort(level, kind="stable")
    return BackwardOrbit(complex(alpha), depth, level, q)


def max_imag_stat(orbit: BackwardOrbit) -> float:
    """Largest |Im| over the orbit; nonzero falsifies total realness."""
    if orbit.points.size == 0:
        return 0.0
    return float(np.abs(orbit.points.imag).max())


def check_non_exceptional(f, alpha):
    """Refuse measure work when f^-1(alpha) is a single point (as a set).

    f (a Polynomial or a rational map num/den) and alpha are taken exactly, a
    float as the Fraction it is.  f^-1(alpha) is the roots of
    g = num - alpha den, and infinity when deg g < deg f: one point when
    deg g = 0 (infinity alone), or when deg g = deg f = d >= 2 and
    g = g_d (X - beta)^d, beta = -g_{d-1} / (d g_d), checked coefficient by
    coefficient.  No root is solved.
    """
    alpha = Fraction(alpha)
    num, den = (f, Polynomial([1])) if isinstance(f, Polynomial) else (f.num, f.den)
    g = num.to_exact() - Polynomial([alpha]) * den.to_exact()
    d, c = g.degree, g.coeffs
    if d < 1:
        raise ExceptionalPointError(
            f"degenerate preimage equation at {_number_text(alpha)}")
    if d == f.degree >= 2:
        beta = Fraction(-c[d - 1], d * c[d])
        if all(c[k] == c[d] * math.comb(d, k) * (-beta) ** (d - k) for k in range(d)):
            raise ExceptionalPointError(
                f"f^-1({_number_text(alpha)}) is the single point {_number_text(beta)}; "
                "equidistribution does not apply")


@dataclass
class EmpiricalMeasure:
    """Uniform-weight sample measure; comparisons use real parts."""

    samples: np.ndarray
    has_nonreal: bool = False

    @classmethod
    def from_orbit(cls, orbit: BackwardOrbit):
        return cls(samples=orbit.points, has_nonreal=bool(max_imag_stat(orbit) > NONREAL_TOL))

    @property
    def real_parts(self):
        return np.sort(self.samples.real.astype(float))

    def cdf_distance(self, cdf):
        """Sup distance between the empirical CDF and a callable CDF."""
        x = self.real_parts
        n = x.size
        fx = np.asarray([cdf(v) for v in x], dtype=float)
        upper = np.abs(np.arange(1, n + 1) / n - fx)
        lower = np.abs(np.arange(0, n) / n - fx)
        return float(np.maximum(upper, lower).max())


def empirical_cdf_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance of real-part CDFs."""
    a = m1.real_parts
    b = m2.real_parts
    if a.size == 0 or b.size == 0:
        raise ValueError("empty measure")
    grid = np.concatenate([a, b])
    grid.sort(kind="mergesort")
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


# ---------------------------------------------------------------------------
# exact orbit-status certification
# ---------------------------------------------------------------------------

@dataclass
class OrbitStatus:
    tag: str                       # periodic | preperiodic | nonperiodic | undecided
    period: int | None = None
    tail: int | None = None
    reason: str | None = None      # escape / denominator-growth / height-growth
    # the first orbit values f^k(alpha) = N/D as pairs (N, D) in lowest terms,
    # D > 0, so that no Fraction is built (and no gcd run) unless one is read
    pairs: list = field(default_factory=list)

    @property
    def prefix(self):
        """The first orbit values as Fractions."""
        return [Fraction(N, D) for N, D in self.pairs]

    @property
    def counts_as_nonperiodic(self):
        """Nonperiodic in the strict sense: never returns to itself."""
        return self.tag == "nonperiodic" or self.tag == "preperiodic"

    def to_json(self):
        out = {"tag": self.tag}
        for key in ("period", "tail", "reason"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        out["prefix"] = [f"{_number_text(N)}/{_number_text(D)}" for N, D in self.pairs]
        return out


_PREFIX_KEEP = 8


def _orbit_loop(step: _PairMap, alpha: Fraction, max_steps, nonperiodic) -> OrbitStatus:
    """Orbit status of alpha under `step`: (pre)periodic at the first repeat;
    nonperiodic at the pole (each caller's map fixes infinity) or when
    nonperiodic(k, N, D) gives a reason for f^k(alpha) = N/D; else undecided,
    after max_steps steps or past DEFAULT_BIT_CAP bits."""
    x = (alpha.numerator, alpha.denominator)
    prefix, seen = [x], {x: 0}

    def status(tag, **kw):
        return OrbitStatus(tag, pairs=prefix, **kw)

    for k in range(1, max_steps + 1):
        N, D = x = step(*x)
        if D == 0:
            return status("nonperiodic", reason=f"orbit hits the pole at step {k}; "
                                                "infinity is a fixed point of the map")
        if len(prefix) < _PREFIX_KEEP:
            prefix.append(x)
        if x in seen:
            j = seen[x]
            return (status("periodic", period=k) if j == 0
                    else status("preperiodic", tail=j, period=k - j))
        seen[x] = k
        if reason := nonperiodic(k, N, D):
            return status("nonperiodic", reason=reason)
        if N.bit_length() + D.bit_length() > DEFAULT_BIT_CAP:
            break
    return status("undecided")


def orbit_status(p: Polynomial, alpha, max_steps=64) -> OrbitStatus:
    """Exact orbit classification for rational alpha under an exact polynomial.

    periodic(k): alpha revisits itself after exactly k steps.
    preperiodic(tail, k): some later value repeats.
    nonperiodic: certified by monotone escape past the escape radius, or --
    for integer coefficients with the lead prime to the denominator q of
    alpha -- by exact q^(d^k) denominator growth.  Anything else within the
    step budget, or past DEFAULT_BIT_CAP bits, is 'undecided'.  Degree >= 2.
    """
    if not p.is_exact:
        raise ValueError("exact rational coefficients required")
    radius = escape_radius(p)   # and the degree >= 2 check
    alpha = Fraction(alpha)
    step = _PairMap(p, Polynomial([1]))

    # integer coefficients (L = 1, so H = Z^d) and a lead prime to the
    # denominator q of alpha: the orbit denominators are exactly q^(d^k), so
    # no value repeats as d >= 2; this needs no orbit, three steps are shown
    if step.H[0] == 1 < alpha.denominator and math.gcd(step.G[-1], alpha.denominator) == 1:
        pairs = [(alpha.numerator, alpha.denominator)]
        for _ in range(min(3, max_steps)):
            pairs.append(step(*pairs[-1]))
        return OrbitStatus(
            "nonperiodic", pairs=pairs,
            reason=f"denominator-growth: denominators are q^(d^k) with "
                   f"q={_number_text(alpha.denominator)}, d={p.degree}, strictly increasing")

    def escape(k, N, D):
        if abs(N) * radius.denominator > radius.numerator * D:
            return (f"escape: |f^{k}(alpha)| = {_number_text(Fraction(abs(N), D), True)} "
                    f"exceeds escape radius {_number_text(radius, True)}")

    return _orbit_loop(step, alpha, max_steps, escape)
