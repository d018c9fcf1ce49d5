"""Duplication Lattes maps from Weierstrass data, and the certificate pipeline.

A curve y^2 = F(x) = x^3 + a x^2 + b x + c induces the degree-4 rational map
f with x([2]P) = f(x(P)).  This module builds f, cross-checks it against an
independent chord-tangent group law, locates its critical points two ways
(the real roots of the numerator of f', and the closed form rho +- sqrt F'(rho)
over the real roots rho of F), decides surjectivity on the real projective
line, and assembles the non-abelian certificate (surjectivity + non-real
Julia set + certified nonperiodic base point).  Its critical points and
poles take two float root solves, of the numerator of f' and of F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .classifier import classify_real_julia
from .orbit import _PREFIX_KEEP, OrbitStatus, check_non_exceptional, orbit_status
from .poly import (Polynomial, _bareiss, clear_denominators, poly_to_json,
                   sylvester_resultant)
from .roots import real_roots_ex
from .tolerances import COVER_TOL, CRIT_MATCH_TOL, ON_CURVE_TOL, POLE_MATCH_TOL, POLE_PROBE

_EXACT = (int, Fraction)


class SingularCurveError(ValueError):
    """Zero discriminant; the Weierstrass cubic has a repeated root."""


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a x^2 + b x + c, nonsingular."""

    a: object
    b: object
    c: object

    def __post_init__(self):
        if self.disc == 0:
            raise SingularCurveError(f"disc(F) = 0 for (a,b,c)=({self.a},{self.b},{self.c})")

    @property
    def F(self) -> Polynomial:
        return Polynomial([self.c, self.b, self.a, 1 if self._exact else 1.0])

    @property
    def _exact(self):
        return all(isinstance(v, _EXACT) for v in (self.a, self.b, self.c))

    @property
    def disc(self):
        a, b, c = self.a, self.b, self.c
        return (18 * a * b * c - 4 * a**3 * c + a * a * b * b
                - 4 * b**3 - 27 * c * c)


INFINITY = object()     # the point at infinity on the curve / pole value of f


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


@dataclass(frozen=True)
class RationalMap:
    """Coprime fraction of polynomials; degree = max of the two degrees."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("zero denominator")
        res = sylvester_resultant(list(self.num.coeffs), list(self.den.coeffs))
        if res == 0:
            raise ValueError("numerator and denominator share a root")

    @property
    def degree(self):
        return max(self.num.degree, self.den.degree)

    @property
    def is_exact(self):
        return self.num.is_exact and self.den.is_exact

    def __call__(self, x):
        """Value at x, INFINITY at poles; accepts Fraction for exact work."""
        if x is INFINITY:
            if self.num.degree > self.den.degree:
                return INFINITY
            if self.num.degree < self.den.degree:
                return 0
            return self.num.lead / self.den.lead
        n, d = self.num(x), self.den(x)
        if d == 0:
            return INFINITY
        if isinstance(n, _EXACT) and isinstance(d, _EXACT):
            return Fraction(n, d)
        return n / d

    def to_json(self):
        return {"num": poly_to_json(self.num), "den": poly_to_json(self.den)}


def _duplication_polys(curve: WeierstrassCurve):
    """Numerator and denominator of x([2]P) in x(P), with no coprimality check."""
    a, b, c = curve.a, curve.b, curve.c
    num = Polynomial([b * b - 4 * a * c, -8 * c, -2 * b, 0 * b, 1 if curve._exact else 1.0])
    den = Polynomial([4 * c, 4 * b, 4 * a, 4 if curve._exact else 4.0])
    return num, den


def duplication_lattes(curve: WeierstrassCurve) -> RationalMap:
    """x([2]P) as a rational function of x(P)."""
    return RationalMap(*_duplication_polys(curve))


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


class CriticalPointMismatchError(RuntimeError):
    """Derivative route and torsion route disagree; indicates a bug."""


class InvariantError(RuntimeError):
    """A fact the certificate relies on failed in computation; indicates a bug."""


def lattes_critical_points(curve: WeierstrassCurve):
    """Real critical points of f, computed twice and reconciled.

    Route 1: real roots of the numerator of f'.  Route 2: the real solutions
    of f(X) = rho over the real roots rho of F (x-coordinates of points Q with
    [2]Q a finite 2-torsion point).  Since F(rho) = 0 makes
    num - rho den = ((X - rho)^2 - F'(rho))^2, they are rho +- sqrt F'(rho)
    for each rho with F'(rho) >= 0.  The two sets must agree within
    CRIT_MATCH_TOL; route 1 is returned.
    """
    return _critical_points_and_poles(curve)[0]


def _critical_points_and_poles(curve: WeierstrassCurve):
    """(lattes_critical_points(curve), the real poles of f).

    The real poles are the real roots of den = 4F, found by the one solve of
    F that route 2 needs (scaling by 4 leaves the float roots unchanged).
    """
    num, den = _duplication_polys(curve)
    # the numerator of f'
    w = (num.derivative() * den - num * den.derivative()).to_float()
    route1 = sorted(x for x, _ in real_roots_ex(w)[0])

    F = curve.F.to_float()
    poles = [x for x, _ in real_roots_ex(F)[0]]
    route2 = _torsion_route(F, poles)

    scale = 1.0 + max((abs(x) for x in route1), default=0.0)
    if len(route1) != len(route2) or any(
            abs(u - v) > CRIT_MATCH_TOL * scale for u, v in zip(route1, route2)):
        raise CriticalPointMismatchError(
            f"derivative route {route1} vs torsion route {route2}")
    return route1, poles


def _torsion_route(F: Polynomial, roots):
    """rho +- sqrt F'(rho) over the real roots rho of F with F'(rho) >= 0, sorted."""
    dF = F.derivative()
    out = []
    for rho in roots:
        slope = dF(rho)
        if slope >= 0:
            out += [rho - math.sqrt(slope), rho + math.sqrt(slope)]
    return sorted(out)


def _value(num: Polynomial, den: Polynomial, x):
    """num(x) / den(x) at a float x, INFINITY at a pole."""
    n, d = num(x), den(x)
    return INFINITY if d == 0 else n / d


def _piece_ranges(num: Polynomial, den: Polynomial, crit, poles):
    """Monotone-piece ranges of num/den over the real line split at its real
    critical points and poles.

    Each piece has no interior critical point or pole, so its range is the
    interval between its endpoint limits; pole limits are resolved by sign
    probes just inside the piece.
    """
    edges = [-math.inf] + sorted(crit + poles) + [math.inf]

    def limit(x, side):
        if x == -math.inf:
            return -math.inf if num.degree > den.degree else None
        if x == math.inf:
            return math.inf if num.degree > den.degree else None
        near = min(poles, default=None, key=lambda p: abs(p - x))
        if near is not None and abs(near - x) <= POLE_MATCH_TOL * (1.0 + abs(x)):
            h = POLE_PROBE * (1.0 + abs(x))
            v = _value(num, den, x + side * h)
            return math.copysign(math.inf, v)
        return _value(num, den, x)

    ranges = []
    for lo, hi in zip(edges, edges[1:]):
        a = limit(lo, +1.0)
        b = limit(hi, -1.0)
        ranges.append((min(a, b), max(a, b)))
    return ranges


def real_surjectivity(curve: WeierstrassCurve):
    """Is the duplication Lattes map onto the real projective line?

    Negative disc(F): yes, witnessed by the two real critical points c1 < c2
    straddling the single real root of F with f(c1) = f(c2) and the covering
    piece ranges.  Positive disc: the piece ranges are unioned exactly and
    any uncovered gap interval is returned as the witness.
    """
    return _surjectivity(curve, *_critical_points_and_poles(curve))


def _surjectivity(curve: WeierstrassCurve, crit, poles):
    """real_surjectivity(curve) from the real critical points and poles of its map."""
    num, den = (p.to_float() for p in _duplication_polys(curve))
    disc = float(curve.disc)

    if disc < 0:
        c1, c2 = crit
        alpha = poles[0]
        witness = {
            "c1": c1, "c2": c2, "alpha": alpha,
            "f_c1": float(_value(num, den, c1)), "f_c2": float(_value(num, den, c2)),
        }
        if not c1 < alpha < c2:
            raise InvariantError(
                f"critical points {c1}, {c2} do not straddle the real root {alpha} of F")
        return {"surjective": True, "witness": witness}

    ranges = _piece_ranges(num, den, crit, poles)
    ranges.sort()
    covered_hi = -math.inf
    gap = None
    for lo, hi in ranges:
        pad = COVER_TOL * (1.0 + abs(lo))
        if lo > covered_hi + pad and covered_hi > -math.inf:
            gap = (covered_hi, lo)
            break
        covered_hi = max(covered_hi, hi)
    if gap is None and covered_hi < math.inf:
        gap = (covered_hi, math.inf)
    if gap is None:
        return {"surjective": True, "witness": {"ranges": ranges}}
    return {"surjective": False, "witness": {"gap": gap, "ranges": ranges}}


# ---------------------------------------------------------------------------
# exact orbit status for integer-coefficient rational maps
# ---------------------------------------------------------------------------

def _bezout_constant(n_coeffs, d_coeffs):
    """Integer (L, S): U N + V D = L with integer U, V and S = sum |coeffs|.

    u N + v D = 1 with deg u < deg D and deg v < deg N has exactly one
    solution, the solution z of the Sylvester system M z = e_0.  [M | e_0]
    goes through fraction-free Bareiss elimination and back-substitution on
    integers, which gives y = p z with p = +-det M.  L = |p| / gcd(p, y) is
    the least positive integer that clears the denominators of u and v.
    """
    a, b = Polynomial(n_coeffs), Polynomial(d_coeffs)
    N, D, m, n = a.coeffs, b.coeffs, a.degree, b.degree
    if m == n == 0:
        # two constants: 0 N + (1/D) D = 1
        return abs(D[0]), 1
    size = m + n
    # column j < n holds X^j N (for u_j), column n + j holds X^j D (for v_j)
    rows = [[N[k - j] if 0 <= k - j <= m else 0 for j in range(n)]
            + [D[k - j] if 0 <= k - j <= n else 0 for j in range(m)]
            + [int(k == 0)] for k in range(size)]
    if not _bareiss(rows):
        raise ValueError("inputs share a common factor")
    # y = p z with p = rows[-1][-2] = +-det M, an integer vector by Cramer's rule
    p = rows[-1][-2]
    y = [0] * size
    for k in reversed(range(size)):
        q, r = divmod(p * rows[k][size]
                      - sum(rows[k][j] * y[j] for j in range(k + 1, size)), rows[k][k])
        if r:
            raise InvariantError(f"Bezout back-substitution: {rows[k][k]} does not divide")
        y[k] = q
    g = math.gcd(p, *y)
    sign = 1 if p > 0 else -1
    L = abs(p) // g
    U = [sign * x // g for x in y[:n]]
    V = [sign * x // g for x in y[n:]]
    if Polynomial(U) * a + Polynomial(V) * b != Polynomial([L]):
        raise InvariantError(f"Bezout identity U N + V D = {L} fails in integers")
    S = sum(abs(c) for c in U) + sum(abs(c) for c in V)
    return L, S


@dataclass
class _HeightGrowth:
    """Machine-checkable lower bound H(f(x)) >= gamma * H(x)^d / |Res|."""

    gamma_num: int        # min Bezout constant
    gamma_den: int        # max coefficient-sum
    resultant: int
    degree: int

    def threshold_exceeded(self, H):
        # growth is strict once gamma * H^(d-1) > |Res|
        return self.gamma_num * H ** (self.degree - 1) > self.gamma_den * abs(self.resultant)


def _height_growth_data(f: RationalMap) -> _HeightGrowth:
    d = f.degree
    N = clear_denominators(f.num.coeffs)[1]
    D = clear_denominators(f.den.coeffs)[1]
    Npad = N + [0] * (d + 1 - len(N))
    Dpad = D + [0] * (d + 1 - len(D))
    res = int(sylvester_resultant(Npad, Dpad))
    if res == 0:
        raise ValueError("degenerate map: homogeneous forms share a factor")
    e1, s1 = _bezout_constant(N, D)
    # reversed coefficients swap the roles of numerator and denominator of x
    e2, s2 = _bezout_constant(Npad[::-1], Dpad[::-1])
    return _HeightGrowth(min(e1, e2), max(s1, s2), res, d)


def rational_orbit_status(f: RationalMap, alpha, max_steps=64) -> OrbitStatus:
    """Exact orbit classification under a rational map over Q.

    Certified nonperiodic by height growth: once the current height exceeds
    both the resultant threshold and every earlier orbit height, all later
    heights strictly increase, so no value can ever recur.
    """
    if not f.is_exact:
        raise ValueError("exact rational coefficients required")
    growth = _height_growth_data(f)
    x = Fraction(alpha)
    seen = {x: 0}
    prefix = [x]
    heights = [max(abs(x.numerator), x.denominator)]
    for k in range(1, max_steps + 1):
        x = f(x)
        if x is INFINITY:
            return OrbitStatus("nonperiodic",
                               reason=f"orbit hits the pole at step {k}; "
                                      "infinity is a fixed point of the map",
                               prefix=prefix)
        if len(prefix) < _PREFIX_KEEP:
            prefix.append(x)
        if x in seen:
            j = seen[x]
            if j == 0:
                return OrbitStatus("periodic", period=k, prefix=prefix)
            return OrbitStatus("preperiodic", tail=j, period=k - j, prefix=prefix)
        seen[x] = k
        H = max(abs(x.numerator), x.denominator)
        if growth.threshold_exceeded(H) and H > max(heights):
            return OrbitStatus(
                "nonperiodic",
                reason=f"height-growth: H = {H} exceeds the resultant bound "
                       f"(gamma = {growth.gamma_num}/{growth.gamma_den}, "
                       f"|Res| = {abs(growth.resultant)}, degree {growth.degree}) "
                       "and all earlier orbit heights; heights now strictly increase",
                prefix=prefix)
        heights.append(H)
    return OrbitStatus("undecided", prefix=prefix)


# ---------------------------------------------------------------------------
# certificate pipeline
# ---------------------------------------------------------------------------

@dataclass
class NonAbelianCertificate:
    map_json: dict
    alpha: Fraction
    surjective: dict = field(default_factory=dict)
    julia_nonreal: dict = field(default_factory=dict)
    nonperiodic: dict = field(default_factory=dict)
    certified: bool = False

    def to_json(self):
        return {
            "map": self.map_json,
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "checks": {
                "surjective": self.surjective,
                "julia_nonreal": self.julia_nonreal,
                "nonperiodic": self.nonperiodic,
            },
            "verdict": "certified" if self.certified else "not-certified",
        }


def certify_nonabelian(target, alpha, curve: WeierstrassCurve | None = None,
                       disabled=frozenset()) -> NonAbelianCertificate:
    """Assemble the three-part certificate for a polynomial or Lattes map.

    target: a Polynomial with rational coefficients, or a RationalMap built
    by duplication_lattes (pass the curve for the Julia-set fact).  `disabled`
    names sub-checks to skip (treated as passing) for mutation testing.
    """
    alpha = Fraction(alpha)
    cert = NonAbelianCertificate(map_json={}, alpha=alpha)

    if isinstance(target, Polynomial):
        p = target.to_exact()
        if not p.is_exact:
            raise ValueError("rational coefficients required")
        cert.map_json = {"poly": poly_to_json(p)}
        d = p.degree
        if d % 2 == 1:
            cert.surjective = {"pass": True,
                               "witness": "odd degree polynomial is onto the reals"}
        else:
            cert.surjective = {"pass": False,
                               "witness": "even degree polynomial has bounded range on one side"}
        report = classify_real_julia(p.to_float())
        cert.julia_nonreal = {"pass": not report.julia_real,
                              "reason": report.reason}
        check_non_exceptional(p, float(alpha))
        status = orbit_status(p, alpha)
    elif isinstance(target, RationalMap):
        cert.map_json = target.to_json()
        if curve is None:
            raise ValueError("pass the Weierstrass curve with a Lattes map")
        surj = real_surjectivity(curve)
        cert.surjective = {"pass": surj["surjective"], "witness": surj["witness"]}
        cert.julia_nonreal = {
            "pass": True,
            "reason": "Lattes map: Julia set is the whole complex projective line",
        }
        check_non_exceptional(target, alpha)
        status = rational_orbit_status(target, alpha)
    else:
        raise TypeError("target must be a Polynomial or RationalMap")

    ok = status.counts_as_nonperiodic
    cert.nonperiodic = {"pass": ok, "tag": status.tag,
                        "reason": status.reason or status.tag}
    checks = {"surjective": cert.surjective["pass"],
              "julia_nonreal": cert.julia_nonreal["pass"],
              "nonperiodic": cert.nonperiodic["pass"]}
    for name in disabled:
        if name not in checks:
            raise ValueError(f"unknown check {name!r}")
        checks[name] = True
    cert.certified = all(checks.values())
    if status.tag == "undecided" and "nonperiodic" not in disabled:
        cert.nonperiodic["reason"] = "periodicity undecided"
    return cert
