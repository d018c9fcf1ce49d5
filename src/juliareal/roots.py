"""Complex root extraction and exact real-root counting.

Float side: closed forms for degrees <= 3, simultaneous Aberth-Ehrlich
iteration with Newton polishing above that.  The batched entry point,
roots_batch, solves every row of a coefficient matrix at once; roots_shifted
builds that matrix for p(X) = t over a whole vector of targets, which is what
backward-orbit expansion needs.  Aberth and the polish see a polynomial only
through an evaluator returning p, p' and the rounding floor: Horner for the
rows of a coefficient matrix, NestedHorner for f(f(z)) - z without expanding
f o f (as MPSolve evaluates implicitly defined polynomials, Bini & Robol
2014).  Aberth stops a row once each of its roots takes a step below
1e-14 (1 + |z|) or lies on the rounding floor, for Horner's rule
|p(z)| <= 8 eps sum |c_i| |z|^i (MPSolve's rule, Bini & Fiorentino 2000), so
roots next to a multiple root stop as soon as their steps are noise; a row
still moving after _ABERTH_MAX_ITER iterations raises RootFindingError.
The Newton polish reuses each step's residual evaluation as the next
step's p and p', so it makes 1 + _POLISH_STEPS = 5 evaluator passes, and
Horner's rule runs in place on one buffer each for p and p'.
real_roots_ex merges root clusters into multiple roots and refines an
m-fold cluster by Newton's method on p^(m-1), where it is a simple root; it
takes a Polynomial or a TwoCycles, f(f(X)) - X.

Exact side: Sturm chains and Yun square-free decomposition over Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .poly import Polynomial

# default realness tolerance (relative)
REALNESS_TOL = 1e-9
# float-domain root clustering radius (relative)
CLUSTER_TOL = 1e-6
# wider radius at which off-axis clusters are regrouped (relative)
_REGROUP_TOL = 1e-4
# roots this close to the axis are left alone by conjugate pairing (relative)
_PAIR_TOL = 1e-13

_ABERTH_MAX_ITER = 120
# Aberth's rounding-floor stop, in units of eps (Horner, NestedHorner)
_FLOOR_ULPS = 8
_POLISH_STEPS = 4


class RootFindingError(RuntimeError):
    """Non-convergence; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# batched solvers: coefficient matrix C has shape (B, d+1), ascending powers
# ---------------------------------------------------------------------------

def _horner_many(C, z):
    """p(z) and p'(z) for each row of C at the points z of that row.

    Horner's rule in place on one buffer each for p and p', with the
    operations, and so the rounding, of p = p z + c_i and p' = p' z + p.
    """
    p = np.empty(z.shape, dtype=complex)
    p[...] = C[:, -1:]
    dp = np.zeros(z.shape, dtype=complex)
    for i in range(C.shape[1] - 2, -1, -1):
        dp *= z
        dp += p
        p *= z
        p += C[:, i:i + 1]
    return p, dp


def _quadratic_batch(C):
    c0, c1, c2 = C[:, 0], C[:, 1], C[:, 2]
    s = np.sqrt((c1 * c1 - 4 * c2 * c0).astype(complex))
    cs = np.where(np.real(np.conj(c1) * s) >= 0, s, -s)
    t = -(c1 + cs) / 2
    r1 = t / c2
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(t != 0, c0 / np.where(t != 0, t, 1), 0)
    return np.stack([r1, r2], axis=1)


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)


def _cubic_batch(C):
    c3 = C[:, 3]
    b = C[:, 2] / c3
    c = C[:, 1] / c3
    d = C[:, 0] / c3
    shift = b / 3
    p = c - b * b / 3
    q = 2 * b**3 / 27 - b * c / 3 + d
    s = np.sqrt((q * q / 4 + p**3 / 27).astype(complex))
    u3a = -q / 2 + s
    u3b = -q / 2 - s
    u3 = np.where(np.abs(u3a) >= np.abs(u3b), u3a, u3b)
    u = u3.astype(complex) ** (1.0 / 3.0)
    w = u[:, None] * _CUBE_ROOTS_OF_UNITY[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(np.abs(w) > 0, w - p[:, None] / np.where(np.abs(w) > 0, 3 * w, 1), 0)
    return y - shift[:, None]


def _fujiwara_radius(C):
    d = C.shape[1] - 1
    lead = C[:, -1:]
    ratios = np.abs(C[:, :-1] / lead)
    k = d - np.arange(d)
    with np.errstate(divide="ignore"):
        r = ratios ** (1.0 / k)
    return 2.0 * np.maximum(r.max(axis=1), 1e-30)


def _magnitude(C, z):
    """sum |c_i| |z|^i for each row of C at the points z of that row.

    Formed by Horner's rule in place on |z|, so it costs two temporaries of
    z's shape.  Horner's rule evaluates p(z) to within a small multiple of
    eps times this.
    """
    size = np.abs(z)
    acc = np.abs(C[:, -1:]) * size
    for i in range(C.shape[1] - 2, 0, -1):
        acc += np.abs(C[:, i:i + 1])
        acc *= size
    acc += np.abs(C[:, :1])
    return acc


class Horner:
    """Evaluator of the rows of a coefficient matrix C, shape (rows, d+1).

    Called on z of shape (rows, k), it returns p(z), p'(z) and, with
    floor=True, the rounding floor of Horner's rule, _FLOOR_ULPS * eps *
    sum |c_i| |z|^i (else None).  take(rows) restricts it to some rows.
    """

    def __init__(self, C):
        self.C = C
        self.degree = C.shape[1] - 1

    def radius(self):
        return _fujiwara_radius(self.C)

    def take(self, rows):
        return Horner(self.C[rows])

    def __call__(self, z, floor=False):
        p, dp = _horner_many(self.C, z)
        if not floor:
            return p, dp, None
        bound = _magnitude(self.C, z)
        bound *= _FLOOR_ULPS * np.finfo(float).eps
        return p, dp, bound


class NestedHorner:
    """Evaluator of f(f(z)) - z for each row f of a coefficient matrix C.

    f o f is never expanded: w = f(z) and f(w) are two Horner passes of
    degree d, the derivative is f'(w) f'(z) - 1, and the rounding floor
    carries the error of w through f'(w) and adds the floors of the outer
    pass and of the subtraction, _FLOOR_ULPS * eps * (|f'(w)| sum |c_i|
    |z|^i + sum |c_i| |w|^i + |z|).  The polynomial has degree d^2; its
    roots are the fixed points and the 2-cycles of f.
    """

    def __init__(self, C):
        self.C = C
        self.degree = (C.shape[1] - 1) ** 2

    def radius(self):
        # past the positive root of |c_d| r^d - sum_{i<d} |c_i| r^i - r,
        # |f(z)| > |z|, so no point there is periodic; the Fujiwara bound
        # of that Cauchy polynomial bounds the root
        A = np.abs(self.C)
        A[:, 1] += 1.0
        return _fujiwara_radius(A)

    def take(self, rows):
        return NestedHorner(self.C[rows])

    def __call__(self, z, floor=False):
        w, dw = _horner_many(self.C, z)
        u, du = _horner_many(self.C, w)
        p, dp = u - z, du * dw - 1.0
        if not floor:
            return p, dp, None
        bound = np.abs(du) * _magnitude(self.C, z)
        bound += _magnitude(self.C, w)
        bound += np.abs(z)
        bound *= _FLOOR_ULPS * np.finfo(float).eps
        return p, dp, bound


def _aberth_batch(ev):
    """Aberth-Ehrlich on every row of evaluator ev, from a circle of starts.

    A row stops once each of its roots takes a step below 1e-14 (1 + |z|)
    or lies on ev's rounding floor: a root next to a multiple root never
    meets the step test, since its steps are rounding noise.  Returns the
    iterates and the indices of the rows still live after _ABERTH_MAX_ITER
    iterations.
    """
    d = ev.degree
    R = ev.radius()
    angles = 2 * np.pi * (np.arange(d) + 0.37) / d + 0.61
    radii = 0.9 * (1.0 + 0.08 * np.arange(d) / max(d - 1, 1))
    z = R[:, None] * radii[None, :] * np.exp(1j * angles)[None, :]
    tol = 1e-14
    # each row stops at its own convergence, so it gets the roots it would
    # get alone and a slow row costs no work on the others
    rows, eva, za = np.arange(len(R)), ev, z
    for _ in range(_ABERTH_MAX_ITER):
        if rows.size == 0:
            break
        p, dpv, floor = eva(za, floor=True)
        on_floor = np.abs(p) <= floor
        bad = dpv == 0
        if bad.any():
            dpv = np.where(bad, 1e-30, dpv)
        N = p / dpv
        diffs = za[:, :, None] - za[:, None, :]
        np.einsum("bii->bi", diffs)[:] = np.inf
        S = np.divide(1.0, diffs, out=diffs).sum(axis=2)
        w = N / (1.0 - N * S)
        w = np.where(np.isfinite(w), w, N)
        za = za - w
        live = ~(on_floor | (np.abs(w) <= tol * (1.0 + np.abs(za)))).all(axis=1)
        if not live.all():
            z[rows] = za
            rows, eva, za = rows[live], eva.take(live), za[live]
    z[rows] = za
    return z, rows


def _polish_batch(ev, z):
    # Residual-monotone Newton: near multiple roots p/p' is noise over noise
    # and an unguarded step can wander by O(1e-2), so a step is kept only
    # where it actually shrinks |p|.  The evaluation that gives a step's
    # residual also gives the next step's p and p', so the polish makes
    # 1 + _POLISH_STEPS evaluator passes.
    p, dpv, _ = ev(z)
    best, best_res = z, np.abs(p)
    for _ in range(_POLISH_STEPS):
        bad = dpv == 0
        if bad.any():
            dpv = np.where(bad, 1, dpv)
        step = np.where(bad, 0, p / dpv)
        step = np.where(np.abs(step) < 1.0 + np.abs(z), step, 0)
        z = z - step
        p, dpv, _ = ev(z)
        res = np.abs(p)
        improved = res < best_res
        best = np.where(improved, z, best)
        best_res = np.where(improved, res, best_res)
    return best


def roots_batch(C, evaluator=Horner):
    """All roots of every row of C, shape (rows, d+1) in ascending powers.

    With the default evaluator the rows are polynomials: closed forms for
    d <= 3, Aberth-Ehrlich above.  With evaluator=NestedHorner the roots
    are those of f(f(z)) - z for each row f, by Aberth with nested
    evaluation.  A residual-monotone Newton polish follows; returns shape
    (rows, degree), complex.  Each row gets the roots it would get alone.
    Raises RootFindingError, with the polished iterates as best, if any row
    is still moving after _ABERTH_MAX_ITER Aberth iterations.
    """
    C = np.asarray(C, dtype=complex)
    d = C.shape[1] - 1
    if d < 1:
        raise ValueError("degree >= 1 required")
    ev = evaluator(C)
    stalled = ()
    if evaluator is not Horner or d > 3:
        z, stalled = _aberth_batch(ev)
    elif d == 1:
        return (-C[:, 0] / C[:, 1])[:, None]
    elif d == 2:
        z = _quadratic_batch(C)
    else:
        z = _cubic_batch(C)
    z = _polish_batch(ev, z)
    if len(stalled):
        raise RootFindingError(
            f"Aberth iteration did not converge on {len(stalled)} of {len(z)} rows "
            f"in {_ABERTH_MAX_ITER} iterations", best=z)
    return z


def roots_shifted(p: Polynomial, targets):
    """Roots of p(X) - t for every t in targets; shape (len(targets), deg)."""
    t = np.asarray(targets, dtype=complex).ravel()
    C = np.tile(np.array([complex(c) for c in p.coeffs]), (t.size, 1))
    C[:, 0] -= t
    return roots_batch(C)


def _residual_ok(C, z, slack=1.0):
    """Per row: is every |p(z)| within slack * 1e-8 of the coefficient scale
    times max(1, |z|)^d?  Also returns each row's largest |p(z)|."""
    p, _ = _horner_many(C, z)
    maxc = np.abs(C).max(axis=1, keepdims=True)
    d = C.shape[1] - 1
    thresh = slack * 1e-8 * maxc * np.maximum(1.0, np.abs(z)) ** d
    return (np.abs(p) <= thresh).all(axis=1), np.abs(p).max(axis=1)


def _pair_conjugates(roots):
    """Symmetrize the root multiset of a real polynomial under conjugation.

    Roots above the axis are matched, in sort order, with the conjugates of
    those below it; the roots come back unchanged unless every matched pair
    lies within CLUSTER_TOL of each other (relative).
    """
    scale = 1.0 + np.abs(roots).max()
    tiny = _PAIR_TOL * scale
    pos = sorted((z for z in roots if z.imag > tiny), key=lambda z: (z.real, z.imag))
    neg = sorted((z.conjugate() for z in roots if z.imag < -tiny),
                 key=lambda z: (z.real, z.imag))
    if len(pos) != len(neg) or any(abs(a - b) > CLUSTER_TOL * scale
                                   for a, b in zip(pos, neg)):
        return roots
    out = [z for z in roots if abs(z.imag) <= tiny]
    for a, b in zip(pos, neg):
        u = (a + b) / 2
        out.extend([u, u.conjugate()])
    return np.array(out, dtype=complex)


def _series_horner(coeffs, s):
    """The polynomial with these coefficients at the power series s, truncated
    to len(s) terms, by Horner's rule."""
    n = len(s)
    acc = [coeffs[-1]] + [0.0] * (n - 1)
    for c in reversed(coeffs[:-1]):
        acc = [sum(acc[i] * s[k - i] for i in range(k + 1)) for k in range(n)]
        acc[0] += c
    return acc


class TwoCycles:
    """f(f(X)) - X for a real polynomial f of degree d >= 2, never expanded.

    Its d^2 roots, with multiplicity, are the fixed points and the 2-cycles
    of f.  It has what real_roots_ex needs of a polynomial: degree,
    to_float, evaluation at a point and derivative(); the order-th
    derivative is evaluated by Horner's rule on Taylor series truncated
    after that order.  complex_roots solves it with NestedHorner, and its
    residuals are held to 1e-8 of the magnitude sum whose eps multiple is
    NestedHorner's rounding floor, as a polynomial's are held to 1e-8 of
    its coefficient scale.
    """

    def __init__(self, f: Polynomial, order=0):
        f = f.to_float()
        if f.degree < 2:
            raise ValueError("degree >= 2 required")
        self.f, self.order = f, order
        self.degree = f.degree ** 2 - order
        self.C = np.array([[complex(c) for c in f.coeffs]])

    def to_float(self):
        return self

    def derivative(self):
        return TwoCycles(self.f, self.order + 1)

    def __call__(self, x):
        n = self.order + 1
        s = [x, 1.0, *[0.0] * (n - 2)][:n]
        for _ in range(2):
            s = _series_horner(self.f.coeffs, s)
        s[0] -= x
        if n > 1:
            s[1] -= 1.0
        return math.factorial(self.order) * s[-1]

    def residual_tol(self, z):
        """The largest |f(f(z)) - z| accepted at each point of z."""
        z = np.asarray(z, dtype=complex).reshape(1, -1)
        floor = NestedHorner(self.C)(z, floor=True)[2][0]
        return 1e-8 / (_FLOOR_ULPS * np.finfo(float).eps) * floor


def complex_roots(p):
    """All deg(p) complex roots with multiplicity, polished.

    p is a Polynomial or a TwoCycles.  Conjugate pairing is enforced for
    real input.  Raises RootFindingError if Aberth does not converge or
    residuals stay above 1e-8 relative to the coefficient scale (for
    TwoCycles, the scale of nested evaluation).
    """
    d = p.degree
    if d < 1:
        raise ValueError("degree >= 1 required")
    if isinstance(p, TwoCycles):
        z = roots_batch(p.C, NestedHorner)[0]
        res = np.abs(NestedHorner(p.C)(z[None, :])[0][0])
        ok, worst, real = bool((res <= p.residual_tol(z)).all()), res.max(), True
    else:
        z = roots_shifted(p, [0.0])[0]
        C = np.array([[complex(c) for c in p.coeffs]])
        ok, res = _residual_ok(C, z[None, :])
        ok, worst = ok[0], res[0]
        real = all(float(complex(c).imag) == 0.0 for c in p.coeffs)
    if not ok:
        raise RootFindingError(
            f"root polishing stalled (max residual {worst:.3e})", best=z)
    if real:
        z = _pair_conjugates(z)
    return np.sort_complex(z)


# ---------------------------------------------------------------------------
# real roots with multiplicities (float domain)
# ---------------------------------------------------------------------------

def _res_tol(p, x):
    if isinstance(p, TwoCycles):
        return float(p.residual_tol([x])[0])
    maxc = max(abs(complex(c)) for c in p.coeffs)
    return 1e-8 * maxc * max(1.0, abs(x)) ** p.degree


def _modified_newton(p, x, m, radius, steps=12):
    # near an m-fold root p is rounding noise, but the root is a simple root
    # of p^(m-1), where Newton converges.  Keep the best iterate by that
    # residual, but only among iterates within radius of the cluster center:
    # one farther out has jumped toward another root.
    q = p
    for _ in range(m - 1):
        q = q.derivative()
    dq = q.derivative()
    x0 = x
    best, best_res = x, abs(q(x))
    for _ in range(steps):
        dv = dq(x)
        if dv == 0:
            break
        step = q(x) / dv
        x = x - step
        if abs(x - x0) > radius:
            break
        res = abs(q(x))
        if res < best_res:
            best, best_res = x, res
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    return best


def _chain_clusters(values, tol):
    """Agglomerative 1-D/complex clustering with chaining threshold tol."""
    order = np.argsort(values.real, kind="stable")
    clusters = []
    for idx in order:
        z = values[idx]
        if clusters and min(abs(z - w) for w in clusters[-1]) <= tol:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return clusters


def real_roots_ex(p, realness_tol=REALNESS_TOL):
    """Distinct real roots with multiplicities, plus a marginality flag.

    p is a Polynomial or a TwoCycles (f(f(X)) - X, never expanded).

    Clusters within 1e-6 (relative) are merged as multiple roots, an m-fold
    cluster refined by Newton on p^(m-1); near-real clusters that refine onto
    the axis are accepted too (this recovers e.g. triple roots whose float
    images scatter ~eps^(1/3) off the axis).
    """
    q = p.to_float()
    roots = complex_roots(q)
    scale = 1.0 + float(np.abs(roots).max())
    accepted = []   # (center: complex, mult)
    leftovers = []  # clusters that stayed off-axis
    marginal = False
    for cluster in _chain_clusters(roots, CLUSTER_TOL * scale):
        m = len(cluster)
        center = sum(cluster) / m
        if m >= 2:
            center = _modified_newton(q, center, m, CLUSTER_TOL * scale)
        if abs(center.imag) <= (realness_tol if m == 1 else 1e-6) * (1.0 + abs(center)):
            accepted.append((center, m))
            if m == 1 and abs(center.imag) > 0.1 * realness_tol * (1.0 + abs(center)):
                marginal = True
        else:
            leftovers.append((center, m))
    # Second pass: multiple roots scatter ~eps^(1/m), well past the 1e-6
    # cluster radius, so the members of one may stay off the axis, refine
    # onto it as a smaller cluster, or pass as simple roots that did not
    # polish onto the axis (loose: farther off it than REALNESS_TOL).
    # Regroup at a wider radius; re-refine each group of two or more that
    # holds such a member with the combined multiplicity, and accept the
    # result only if it lands on the axis with a small residual.
    def settled(c, m, real):
        return real and m == 1 and abs(c.imag) <= REALNESS_TOL * (1.0 + abs(c))

    out = []
    pool = [(c, m, True) for c, m in accepted] + [(c, m, False) for c, m in leftovers]
    if leftovers or not all(settled(*member) for member in pool):
        vals = np.array([c for c, m, _ in pool])
        for g in _chain_clusters(vals, _REGROUP_TOL * scale):
            idxs = sorted({int(np.argmin(np.abs(vals - z))) for z in g})
            members = [pool[i] for i in idxs]
            if all(real for _, _, real in members) and (
                    len(members) == 1 or all(settled(*member) for member in members)):
                out.extend((float(c.real), m) for c, m, _ in members)
                continue
            m = sum(mm for _, mm, _ in members)
            center = _modified_newton(q, sum(c for c, _, _ in members) / len(members),
                                      m, _REGROUP_TOL * scale)
            if (m >= 2 and abs(center.imag) <= 1e-6 * (1.0 + abs(center))
                    and abs(q(center)) <= _res_tol(q, center)):
                out.append((float(center.real), m))
                marginal = True
            else:
                # genuinely nonreal: keep only the real members
                out.extend((float(c.real), mm) for c, mm, real in members if real)
    else:
        out = [(float(c.real), m) for c, m in accepted]
    out.sort()
    return out, marginal


def all_roots_real(p: Polynomial, tol=REALNESS_TOL):
    """True iff every root is real within tol (exact Sturm path for exact input)."""
    if p.is_exact:
        return real_count_with_multiplicity(p) == p.degree
    roots = complex_roots(p)
    return bool((np.abs(roots.imag) <= tol * (1.0 + np.abs(roots))).all())


def all_real_batch(C, targets, tol=1e-6):
    """all_roots_real(p_i - t) for every target t in row i of targets.

    C has shape (rows, d+1), real coefficients in ascending powers; targets
    has shape (rows, k) and so has the result.  tol may be an array that
    broadcasts against it.  Degrees 2 and 3 go through the discriminant
    sign, higher degrees through the batched solver.
    """
    C = np.asarray(C, dtype=float)
    t = np.asarray(targets, dtype=float)
    d = C.shape[1] - 1
    c = [C[:, i:i + 1] for i in range(d + 1)]
    if d == 2:
        disc = c[1] * c[1] - 4 * c[2] * (c[0] - t)
        floor = tol * np.maximum(1.0, np.abs(c[1] * c[1]) + np.abs(4 * c[2] * (c[0] - t)))
        return disc >= -floor
    if d == 3:
        a3, a2, a1 = c[3], c[2], c[1]
        a0 = c[0] - t
        disc = (18 * a3 * a2 * a1 * a0 - 4 * a2**3 * a0 + a2**2 * a1**2
                - 4 * a3 * a1**3 - 27 * a3**2 * a0**2)
        mag = (np.abs(18 * a3 * a2 * a1 * a0) + np.abs(4 * a2**3 * a0)
               + a2**2 * a1**2 + np.abs(4 * a3 * a1**3) + 27 * a3**2 * a0**2)
        return disc >= -tol * np.maximum(1.0, mag)
    shifted = np.repeat(C[:, None, :], t.shape[1], axis=1)
    shifted[:, :, 0] -= t
    z = roots_batch(shifted.reshape(-1, d + 1)).reshape(t.shape + (d,))
    tol = np.asarray(tol)[..., None]
    return (np.abs(z.imag) <= tol * (1.0 + np.abs(z))).all(axis=-1)


def all_real_shifted(p: Polynomial, targets, tol=1e-6):
    """Vectorized all_roots_real(p - t) over a target vector (float domain)."""
    t = np.asarray(targets, dtype=float).ravel()
    C = np.array([[float(c) for c in p.coeffs]])
    return all_real_batch(C, t[None, :], tol)[0]


def real_roots_batch(C, realness_tol=REALNESS_TOL):
    """Real roots of every row of a real coefficient matrix C, shape (rows, d+1).

    Returns (x, clear).  x has shape (rows, d): a row's real roots in
    ascending order, then NaN for each nonreal root.  clear marks the rows
    on which real_roots_ex certainly finds the same roots, all simple: the
    residuals are a tenth of the bound complex_roots enforces, every root
    lies on the axis to within the conjugate-pairing threshold or off it by
    ten times realness_tol, and no two roots lie within ten times the radius
    at which real_roots_ex would merge them.  The other rows need
    real_roots_ex.
    """
    C = np.asarray(C, dtype=complex)
    d = C.shape[1] - 1
    z = roots_batch(C)
    residual_ok, _ = _residual_ok(C, z, slack=0.1)
    size = np.abs(z)
    scale = 1.0 + size.max(axis=1, initial=0.0, keepdims=True)
    off_axis = np.abs(z.imag)
    real = (off_axis <= _PAIR_TOL * scale) & (off_axis <= 0.1 * realness_tol * (1.0 + size))
    nonreal = off_axis > 10 * realness_tol * (1.0 + size)
    pairwise = np.abs(z[:, :, None] - z[:, None, :]) + np.diag(np.full(d, np.inf))
    gap = pairwise.min(axis=(1, 2), initial=np.inf)
    # off-axis roots are regrouped at the wider radius
    radius = np.where(nonreal.any(axis=1), _REGROUP_TOL, CLUSTER_TOL) * scale[:, 0]
    clear = (residual_ok & np.isfinite(z).all(axis=1) & (real | nonreal).all(axis=1)
             & (gap > 10 * radius))
    return np.sort(np.where(real, z.real, np.nan), axis=1), clear


# ---------------------------------------------------------------------------
# exact real-root counting (Sturm + Yun)
# ---------------------------------------------------------------------------

def _sign(x):
    return (x > 0) - (x < 0)


def _sturm_chain(p: Polynomial):
    chain = [p, p.derivative().to_exact()]
    while chain[-1].degree > 0:
        rem = chain[-2].divmod_exact(chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return chain


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain, x):
    return _variations([_sign(q(x)) for q in chain])


def _variations_at_inf(chain, positive):
    signs = []
    for q in chain:
        s = _sign(q.lead)
        if not positive and q.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def square_free_part(p: Polynomial):
    p = p.to_exact()
    g = p.gcd_exact(p.derivative().to_exact())
    if g.degree == 0:
        return p
    return p.divmod_exact(g)[0]


def real_root_count(p: Polynomial, lo=None, hi=None):
    """Exact count of distinct real roots, whole line or closed interval [lo, hi]."""
    p = p.to_exact()
    if p.degree == 0:
        return 0
    sf = square_free_part(p)
    if sf.degree == 0:
        return 0
    chain = _sturm_chain(sf)
    if lo is None and hi is None:
        return _variations_at_inf(chain, False) - _variations_at_inf(chain, True)
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    count = _variations_at(chain, lo) - _variations_at(chain, hi)
    if sf(lo) == 0:
        count += 1
    return count


def square_free_decomposition(p: Polynomial):
    """Yun's algorithm: returns [(q_i, i)] with p = lead * prod q_i^i, q_i monic."""
    p = p.to_exact()
    if p.degree == 0:
        return []
    lead = p.lead
    p = Polynomial([c / lead for c in p.coeffs])
    dp = p.derivative()
    g = p.gcd_exact(dp)
    out = []
    if g.degree == 0:
        return [(p, 1)]
    b = p.divmod_exact(g)[0]
    c = dp.divmod_exact(g)[0]
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = b.gcd_exact(d)
        if a.degree > 0:
            out.append((a, i))
        b = b.divmod_exact(a)[0]
        c = d.divmod_exact(a)[0]
        d = c - b.derivative()
        i += 1
    return out


def real_count_with_multiplicity(p: Polynomial):
    """Number of real roots counted with multiplicity (exact)."""
    return sum(m * real_root_count(q) for q, m in square_free_decomposition(p))
