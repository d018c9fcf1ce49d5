"""Duplication Lattes maps from Weierstrass data, and the certificate pipeline.

A curve y^2 = F(x) = x^3 + a x^2 + b x + c induces the degree-4 rational map
f with x([2]P) = f(x(P)).  This module builds f, finds the real roots of F
(the real poles of f) from the trigonometric or Cardano form of the cubic,
and its real critical points from the closed form rho +- sqrt F'(rho) over
those roots, and returns both correctly rounded, certified on integers by
sign changes of F and of the numerator of f' (roots.rounded_real_roots).
It decides surjectivity on the real projective line by the sign of disc(F),
and assembles the non-abelian certificate (surjectivity + non-real Julia
set + a base point certified nonperiodic on integer pairs by
``poly._PairMap``).  Res(num, den) = 256 disc(F)^2 (duplication_lattes has
the proof), so the map's coprimality and the height bound of its orbit step
need no determinant.  A Lattes certificate makes no float root solve and
computes no resultant, and computes critical points only when disc(F) < 0.
A polynomial certificate of a cubic with a positive lead takes its
non-real Julia set from the exact cubic region
(``cubic_region.region_verdict``), with no float root solve either.  The
tests check f against the chord-tangent group law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .classifier import classify_real_julia
from .cubic_region import region_verdict
from .orbit import OrbitStatus, _orbit_loop, check_non_exceptional, orbit_status
from .poly import (_EXACT_TYPES, Polynomial, _bareiss, _number_text, _PairMap,
                   poly_to_json, sylvester_resultant)
from .roots import InvariantError, rounded_real_roots


class SingularCurveError(ValueError):
    """Zero discriminant; the Weierstrass cubic has a repeated root."""


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a x^2 + b x + c, nonsingular.

    Coefficients are exact: ints and Fractions are kept, and a float is
    taken at its exact value, the Fraction it is.
    """

    a: object
    b: object
    c: object

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, _EXACT_TYPES):
                object.__setattr__(self, name, Fraction(v))
        if self.disc == 0:
            raise SingularCurveError(f"disc(F) = 0 for (a,b,c)=({self.a},{self.b},{self.c})")

    @property
    def F(self) -> Polynomial:
        return Polynomial([self.c, self.b, self.a, 1])

    @property
    def disc(self):
        a, b, c = self.a, self.b, self.c
        return (18 * a * b * c - 4 * a**3 * c + a * a * b * b
                - 4 * b**3 - 27 * c * c)


INFINITY = object()     # the point at infinity on the curve / pole value of f


@dataclass(frozen=True)
class RationalMap:
    """Coprime fraction of polynomials; degree = max of the two degrees."""

    num: Polynomial
    den: Polynomial
    # Res(num, den) where it is known in closed form, else None (not a field,
    # so neither compared nor a constructor argument); set only by _coprime
    _resultant = None

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("zero denominator")
        res = sylvester_resultant(list(self.num.coeffs), list(self.den.coeffs))
        if res == 0:
            raise ValueError("numerator and denominator share a root")

    @classmethod
    def _coprime(cls, num: Polynomial, den: Polynomial, resultant):
        """num / den with Res(num, den) = resultant, a nonzero value the caller
        has proved, so no Bareiss check is run; rational_orbit_status reads it."""
        f = object.__new__(cls)
        for name, value in (("num", num), ("den", den), ("_resultant", resultant)):
            object.__setattr__(f, name, value)
        return f

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
        if isinstance(n, _EXACT_TYPES) and isinstance(d, _EXACT_TYPES):
            return Fraction(n, d)
        return n / d

    def to_json(self):
        return {"num": poly_to_json(self.num), "den": poly_to_json(self.den)}


def _duplication_polys(curve: WeierstrassCurve):
    """Numerator and denominator of x([2]P) in x(P), with no coprimality check."""
    a, b, c = curve.a, curve.b, curve.c
    num = Polynomial([b * b - 4 * a * c, -8 * c, -2 * b, 0 * b, 1])
    den = Polynomial([4 * c, 4 * b, 4 * a, 4])
    return num, den


def duplication_lattes(curve: WeierstrassCurve) -> RationalMap:
    """x([2]P) as a rational function of x(P), with Res(num, den) = 256 disc(F)^2.

    den = 4F has lead 4 and deg num = 4, so Res(num, den) = 4^4 prod num(rho)
    over the roots rho of F.  At a root, num - rho den = ((X - rho)^2 -
    F'(rho))^2, so num(rho) = F'(rho)^2, and prod F'(rho) = -disc(F) for a
    monic cubic.  WeierstrassCurve has checked disc(F) != 0, which makes the
    resultant nonzero and num and den coprime: the map needs no Bareiss check.
    """
    num, den = _duplication_polys(curve)
    return RationalMap._coprime(num, den, 256 * curve.disc ** 2)


# residual-monotone Newton steps that polish a float candidate: each closed-form
# critical point on the numerator of f', each closed-form root of F on F
_POLISH_STEPS = 3
_CUBIC_POLISH_STEPS = 2


def lattes_critical_points(curve: WeierstrassCurve):
    """Real critical points of f, from a closed form, correctly rounded.

    F(rho) = 0 makes num - rho den = ((X - rho)^2 - F'(rho))^2, so the
    numerator of f' is w = 4 prod ((X - rho)^2 - F'(rho)) over the roots rho
    of F, and the critical points are rho +- sqrt F'(rho).  A nonreal rho
    gives no real one (f(x) = rho has no real solution), and F' is positive
    at the outer real roots of F and negative at the middle one: w has 4 real
    roots when disc(F) > 0 and 2 when disc(F) < 0.  The float points, each
    polished by Newton on w, are the candidates from which
    roots.rounded_real_roots returns the real roots of w, each correctly
    rounded and certified by sign changes of w on integers.
    """
    return _critical_points_and_poles(curve)[0]


def _critical_points_and_poles(curve: WeierstrassCurve):
    """(lattes_critical_points(curve), the real poles of f), both correctly
    rounded.

    The real roots rho of F (_real_roots_of_F) are the real poles, the roots
    of den = 4F, and the rho of the closed form.  Two distinct roots may round
    to one float, so either list may repeat a value.
    """
    poles = _real_roots_of_F(curve)
    num, den = _duplication_polys(curve)
    w = num.derivative() * den - num * den.derivative()
    candidates = _torsion_route(curve.F.to_float(), poles, w.to_float())
    return rounded_real_roots(w, candidates, 4 if curve.disc > 0 else 2), poles


def _real_roots_of_F(curve: WeierstrassCurve):
    """The real roots of F, sorted, each correctly rounded: 3 when disc(F) > 0
    and 1 when disc(F) < 0, from the candidates of _cubic_candidates."""
    n_roots = 3 if curve.disc > 0 else 1
    return rounded_real_roots(curve.F, _cubic_candidates(curve, n_roots), n_roots)


def _cubic_candidates(curve: WeierstrassCurve, n_roots):
    """Float approximations of the n_roots real roots of F, in pure Python.

    x = t - a/3 turns F into t^3 + p t + q, p and q rounded once from their
    exact values.  With three real roots (p < 0) they are the trigonometric
    form 2 r cos((acos(-q / (2 r^3)) - 2 pi k) / 3), r = sqrt(-p/3); with one
    it is Cardano's u - p / (3u), u^3 = -q/2 -+ sqrt(q^2/4 + p^3/27), the sign
    taken that avoids cancellation.  Each is polished by at most
    _CUBIC_POLISH_STEPS Newton steps on F, kept only while they lower |F|.
    """
    a, b, c = curve.a, curve.b, curve.c
    p = float((3 * b - a * a) / 3)
    q = float((2 * a * a * a - 9 * a * b + 27 * c) / 27)
    shift = float(a / 3)
    if n_roots == 3:
        r = math.sqrt(max(-p / 3, 0.0))
        cos3 = -q / (2 * r * r * r) if r else 0.0
        phi = math.acos(max(-1.0, min(1.0, cos3)))
        ts = [2 * r * math.cos((phi - 2 * math.pi * k) / 3) for k in range(3)]
    else:
        u3 = -q / 2 - math.copysign(math.sqrt(max(q * q / 4 + p * p * p / 27, 0.0)), q)
        u = math.copysign(abs(u3) ** (1 / 3), u3)
        ts = [u - p / (3 * u) if u else u]
    F = curve.F.to_float()
    dF = F.derivative()
    return [_newton_polish(F, dF, t - shift, _CUBIC_POLISH_STEPS) for t in ts]


def _newton_polish(f: Polynomial, df: Polynomial, x, steps):
    """At most steps Newton steps on the float f from x, a step kept only
    while it lowers |f|."""
    value = f(x)
    for _ in range(steps):
        slope = df(x)
        if value == 0 or slope == 0:
            break
        y = x - value / slope
        fy = f(y)
        if not abs(fy) < abs(value):
            break
        x, value = y, fy
    return x


def _torsion_route(F: Polynomial, roots, w: Polynomial):
    """rho +- sqrt F'(rho) over the real roots rho of F with F'(rho) >= 0,
    each polished by at most _POLISH_STEPS Newton steps on the float
    numerator w of f', a step kept only while it lowers |w|; sorted."""
    dF, dw = F.derivative(), w.derivative()
    out = []
    for rho in roots:
        slope = dF(rho)
        if slope < 0:
            continue
        out += [_newton_polish(w, dw, x, _POLISH_STEPS)
                for x in (rho - math.sqrt(slope), rho + math.sqrt(slope))]
    return sorted(out)


def real_surjectivity(curve: WeierstrassCurve):
    """Is the duplication Lattes map onto the real projective line?

    Exactly when disc(F) < 0.  A real x is x(P) for a real point P of E:
    y^2 = F(x) when F(x) >= 0, and of its twist by -1, -y^2 = F(x), when
    F(x) <= 0; f(x) = x([2]P) on that curve, and doubling maps the real
    points of each curve onto their identity component (Silverman, The
    Arithmetic of Elliptic Curves, V.2).  With disc(F) < 0, F has one real
    root alpha and both curves' real points are connected, x >= alpha on E
    and x <= alpha on the twist, so f is onto; the witness is the critical
    points c1 < c2 straddling alpha, with f(c1) = f(c2) = alpha (f_c1, f_c2:
    f at the float points, in exact arithmetic).  With disc(F) > 0 and real
    roots e1 < e2 < e3 the identity components are x >= e3 and x <= e1, so
    f misses (e1, e3): the witness "gap" is the outer poles, and no critical
    point is computed.  Each witness point is a root of F or of the
    numerator of f', correctly rounded to the nearest float and certified on
    integers (roots.rounded_real_roots).  Two roots of F may round to one
    float, but the order c1 < alpha < c2 is checked strict.
    """
    if curve.disc > 0:
        return _surjectivity(curve, [], _real_roots_of_F(curve))
    return _surjectivity(curve, *_critical_points_and_poles(curve))


def _surjectivity(curve: WeierstrassCurve, crit, poles):
    """real_surjectivity(curve) from the rounded real poles of its map and,
    when disc(F) < 0, its rounded real critical points (unused otherwise)."""
    if curve.disc > 0:
        return {"surjective": False, "witness": {"gap": (poles[0], poles[-1])}}
    num, den = _duplication_polys(curve)

    def value(x):
        # f(x) in exact arithmetic at the float x = n / d, rounded once: in
        # floats num and den cancel near a close pair of complex roots of F
        n, d = x.as_integer_ratio()
        num_x, den_x = (sum(c * n**i * d**(4 - i) for i, c in enumerate(p.coeffs))
                        for p in (num, den))
        return float(Fraction(num_x) / den_x)

    c1, c2 = crit
    alpha = poles[0]
    witness = {"c1": c1, "c2": c2, "alpha": alpha, "f_c1": value(c1), "f_c2": value(c2)}
    if not c1 < alpha < c2:
        raise InvariantError(
            f"critical points {c1}, {c2} do not straddle the real root {alpha} of F")
    return {"surjective": True, "witness": witness}


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
    resultant: int        # |Res(G, H)|
    degree: int

    def threshold_exceeded(self, H):
        # growth is strict once gamma * H^(d-1) > |Res|
        return self.gamma_num * H ** (self.degree - 1) > self.gamma_den * self.resultant


def _height_growth_data(step: _PairMap) -> _HeightGrowth:
    e1, s1 = _bezout_constant(step.G, step.H)
    # reversed coefficients swap the roles of numerator and denominator of x
    e2, s2 = _bezout_constant(step.G[::-1], step.H[::-1])
    return _HeightGrowth(min(e1, e2), max(s1, s2), step.R, len(step.G) - 1)


def rational_orbit_status(f: RationalMap, alpha, max_steps=64) -> OrbitStatus:
    """Exact orbit classification under a rational map over Q that fixes infinity.

    Certified nonperiodic by height growth: once the current height exceeds
    both the resultant threshold and every earlier orbit height, all later
    heights strictly increase, so no value can ever recur.
    """
    if not f.is_exact:
        raise ValueError("exact rational coefficients required")
    if f.num.degree <= f.den.degree:
        raise ValueError("the map must fix infinity: deg num > deg den required")
    step = _PairMap(f.num, f.den, f._resultant)
    growth = _height_growth_data(step)
    alpha = Fraction(alpha)
    highest = max(abs(alpha.numerator), alpha.denominator)

    def height_growth(k, N, D):
        nonlocal highest
        H = max(abs(N), D)
        if growth.threshold_exceeded(H) and H > highest:
            t = _number_text
            return (f"height-growth: H = {t(H)} exceeds the resultant bound "
                    f"(gamma = {t(growth.gamma_num)}/{t(growth.gamma_den)}, "
                    f"|Res| = {t(growth.resultant)}, degree {growth.degree}) "
                    "and all earlier orbit heights; heights now strictly increase")
        highest = max(highest, H)

    return _orbit_loop(step, alpha, max_steps, height_growth)


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
            "alpha": _number_text(self.alpha),
            "checks": {
                "surjective": self.surjective,
                "julia_nonreal": self.julia_nonreal,
                "nonperiodic": self.nonperiodic,
            },
            "verdict": "certified" if self.certified else "not-certified",
        }


def certify_nonabelian(target, alpha,
                       curve: WeierstrassCurve | None = None) -> NonAbelianCertificate:
    """Assemble the three-part certificate for a polynomial or Lattes map.

    target: a Polynomial with rational coefficients, or a RationalMap built
    by duplication_lattes (pass the curve for the Julia-set fact).  Each
    check records its own pass flag, and the map is certified exactly when
    all three pass: surjective, julia_nonreal and nonperiodic.  A cubic with
    a positive lead takes julia_nonreal from cubic_region.region_verdict, in
    exact arithmetic; every other polynomial from classify_real_julia.
    """
    alpha = Fraction(alpha)
    cert = NonAbelianCertificate(map_json={}, alpha=alpha)

    if isinstance(target, Polynomial):
        p = target.to_exact()
        cert.map_json = {"poly": poly_to_json(p)}
        d = p.degree
        if d % 2 == 1:
            cert.surjective = {"pass": True,
                               "witness": "odd degree polynomial is onto the reals"}
        else:
            cert.surjective = {"pass": False,
                               "witness": "even degree polynomial has bounded range on one side"}
        if d == 3 and p.lead > 0:
            julia_real, reason = region_verdict(p)
        else:
            report = classify_real_julia(p.to_float())
            julia_real, reason = report.julia_real, report.reason
        cert.julia_nonreal = {"pass": not julia_real, "reason": reason}
        check_non_exceptional(p, alpha)
        status = orbit_status(p, alpha)
    elif isinstance(target, RationalMap):
        cert.map_json = target.to_json()
        if curve is None:
            raise ValueError("pass the Weierstrass curve with a Lattes map")
        if (target.num, target.den) != _duplication_polys(curve):
            raise ValueError("target is not the duplication map of the curve")
        surj = real_surjectivity(curve)
        cert.surjective = {"pass": surj["surjective"], "witness": surj["witness"]}
        # no check_non_exceptional: a Lattes map has no exceptional point, as
        # those lie in the Fatou set and its Julia set is all of P^1
        cert.julia_nonreal = {
            "pass": True,
            "reason": "Lattes map: Julia set is the whole complex projective line",
        }
        status = rational_orbit_status(target, alpha)
    else:
        raise TypeError("target must be a Polynomial or RationalMap")

    ok = status.counts_as_nonperiodic
    cert.nonperiodic = {"pass": ok, "tag": status.tag,
                        "reason": status.reason or status.tag}
    cert.certified = all(check["pass"] for check in
                         (cert.surjective, cert.julia_nonreal, cert.nonperiodic))
    if status.tag == "undecided":
        cert.nonperiodic["reason"] = "periodicity undecided"
    return cert
