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
ABERTH_STEP_TOL (1 + |z|) or lies on the rounding floor, for Horner's rule
|p(z)| <= FLOOR_ULPS eps sum |c_i| |z|^i (MPSolve's rule, Bini & Fiorentino
2000), so roots next to a multiple root stop as soon as their steps are
noise; a row still moving after _ABERTH_MAX_ITER iterations raises
RootFindingError.  The tolerances are those of the tolerances module.
Aberth holds its iterates roots-major, shape (d, rows), so Horner's rule,
the floor, the update and the pair sums run along the long rows axis; the
sums take their terms in one fixed order, so a row gets the same bits
alone or in any batch.  The first pass of the Newton polish also returns
the floor: a row of Aberth or quadratic roots that all lie on it comes
back as it is, after that one pass.  Every other row, and every row of
Cardano's cubic, gets the full polish, which reuses each step's residual
evaluation as the next step's p and p', so it makes 1 + _POLISH_STEPS = 5
evaluator passes.  Horner's rule runs in place on one buffer each for p
and p'.
real_roots_ex merges root clusters into multiple roots and refines an
m-fold cluster by Newton's method on p^(m-1), where it is a simple root; it
takes a Polynomial or a TwoCycles, f(f(X)) - X.

Exact side, on integers: a polynomial is evaluated only by the sign of its
integer form, by homogeneous Horner at n / d.  One Sturm chain, the signed
remainder sequence of p and p' divided by its last member gcd(p, p'),
gives real_root_count, square_free_part and the exact all_roots_real.
rounded_real_roots returns each real root of an exact square-free
polynomial correctly rounded to the nearest float.  It certifies every
result by a sign change across that float's rounding cell, and it falls
back to Sturm isolation when the float candidates it is given do not
isolate the roots.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction

import numpy as np

from .poly import Polynomial, clear_denominators
from .tolerances import (ABERTH_STEP_TOL, CLUSTER_TOL, DIVISION_GUARD, FLOOR_ULPS,
                         MULTIPLE_REALNESS_TOL, NEWTON_STEP_TOL, PAIR_TOL, REALNESS_TOL,
                         REGROUP_TOL, RESIDUAL_TOL, SPLIT_TOL)

_ABERTH_MAX_ITER = 120
_POLISH_STEPS = 4
# batch rows, the columns of the roots-major iterates, per block of the
# Aberth pair terms 1 / (z_i - z_j): 0.25 MB of terms at d = 6
_DIFF_BLOCK_ROWS = 1024
# below this many columns a block's d^2 pair terms, in a few numpy calls,
# cost less than its d (d - 1) / 2 pairs taken one at a time; the two cross
# between 32 and 128 columns for d = 4 to 25 (BENCH_24.json, variants)
_NARROW_BLOCK = 64
# the rounding floor's factor FLOOR_ULPS * eps, built once
_FLOOR_UNIT = FLOOR_ULPS * np.finfo(float).eps


def near_axis(z, tol):
    """The realness rule |Im z| <= tol (1 + |z|), on a number or an array."""
    return abs(z.imag) <= tol * (1.0 + abs(z))


class InvariantError(RuntimeError):
    """A fact the certificate relies on failed in computation; indicates a bug."""


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
    The buffers take z's memory order, so a roots-major z is evaluated
    along its rows.
    """
    p = np.empty_like(z, dtype=complex)
    p[...] = C[:, -1:]
    dp = np.zeros_like(z, dtype=complex)
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
    return np.stack([r1, r2]).T


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
    w = u[None, :] * _CUBE_ROOTS_OF_UNITY[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(np.abs(w) > 0, w - p[None, :] / np.where(np.abs(w) > 0, 3 * w, 1), 0)
    return (y - shift[None, :]).T


def _fujiwara_radius(C):
    d = C.shape[1] - 1
    lead = C[:, -1:]
    ratios = np.abs(C[:, :-1] / lead)
    k = d - np.arange(d)
    with np.errstate(divide="ignore"):
        r = ratios ** (1.0 / k)
    return 2.0 * np.maximum(r.max(axis=1), DIVISION_GUARD)


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
    floor=True, the rounding floor of Horner's rule, FLOOR_ULPS * eps *
    sum |c_i| |z|^i (else None), each in z's memory order.  take(rows)
    restricts it to some rows.
    """

    def __init__(self, C):
        self.C = C
        self.degree = C.shape[1] - 1

    def radius(self):
        return _fujiwara_radius(self.C)

    def take(self, rows):
        # through C.T, so that a column-major C stays column-major
        return Horner(self.C.T[:, rows].T)

    def __call__(self, z, floor=False):
        p, dp = _horner_many(self.C, z)
        if not floor:
            return p, dp, None
        bound = _magnitude(self.C, z)
        bound *= _FLOOR_UNIT
        return p, dp, bound

    def residual_tol(self, z, rel=RESIDUAL_TOL):
        """The largest |p(z)| accepted at each point of z: rel times the
        coefficient scale max |c_i| times max(1, |z|)^d."""
        scale = np.abs(self.C).max(axis=1, keepdims=True)
        return rel * scale * np.maximum(1.0, np.abs(z)) ** self.degree


class NestedHorner:
    """Evaluator of f(f(z)) - z for each row f of a coefficient matrix C.

    f o f is never expanded: w = f(z) and f(w) are two Horner passes of
    degree d, the derivative is f'(w) f'(z) - 1, and the rounding floor
    carries the error of w through f'(w) and adds the floors of the outer
    pass and of the subtraction, FLOOR_ULPS * eps * (|f'(w)| sum |c_i|
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
        bound *= _FLOOR_UNIT
        return p, dp, bound

    def residual_tol(self, z):
        """The largest |f(f(z)) - z| accepted at each point of z: RESIDUAL_TOL
        times the larger of max |c_i| and the magnitude sum whose FLOOR_ULPS *
        eps multiple is the floor.  The absolute term, Horner.residual_tol's
        at |z| <= 1, is needed where f(0) = 0: the sum then shrinks with |z|,
        and the fixed point 0, found as a tiny z, could never meet it."""
        bound = RESIDUAL_TOL / _FLOOR_UNIT * self(z, floor=True)[2]
        return np.maximum(bound, RESIDUAL_TOL * np.abs(self.C).max(axis=1, keepdims=True))


def _pair_sums(z):
    """S_i = sum_j 1 / (z_i - z_j) over j != i, for roots-major z, shape (d, rows).

    S_i takes the terms T_ij = 1 / (z_i - z_j) in the order j = 0, ..., d - 1,
    over blocks of at most _DIFF_BLOCK_ROWS columns, so a column gets the same
    bits whatever the width of the batch.  A block narrower than
    _NARROW_BLOCK forms all d^2 terms in a few calls, T_ii = 1 / inf = 0; a
    wider one divides each pair once, column j holding T_kj for k > j, and
    subtracts T_kj where it needs T_jk = -T_kj.  The two give the same bits:
    negation is exact, in z_i - z_j and in the division alike.
    """
    d, n = z.shape
    S = np.zeros_like(z)
    for lo in range(0, n, _DIFF_BLOCK_ROWS):
        block, sums = z[:, lo:lo + _DIFF_BLOCK_ROWS], S[:, lo:lo + _DIFF_BLOCK_ROWS]
        if block.shape[1] < _NARROW_BLOCK:
            T = block[:, None, :] - block[None, :, :]
            T[np.arange(d), np.arange(d)] = np.inf
            np.divide(1.0, T, out=T)
            sums[...] = np.add.accumulate(T, axis=1, out=T)[:, -1]
            continue
        cols = []
        for j in range(d):
            for i in range(j):
                sums[i] -= cols[i][j - i - 1]
            col = block[j + 1:] - block[j]
            sums[j + 1:] += np.divide(1.0, col, out=col)
            cols.append(col)
    return S


def _aberth_batch(ev):
    """Aberth-Ehrlich on every row of evaluator ev, from a circle of starts.

    A row stops once each of its roots takes a step below ABERTH_STEP_TOL
    (1 + |z|) or lies on ev's rounding floor: a root next to a multiple
    root never meets the step test, since its steps are rounding noise.  The
    iterates are held roots-major, shape (d, rows), so every operation runs
    along the long rows axis; ev sees their transpose, a (rows, d) view that
    keeps that memory order.  Returns the iterates, shape (rows, d), and the
    indices of the rows still live after _ABERTH_MAX_ITER iterations.
    """
    d = ev.degree
    R = ev.radius()
    angles = 2 * np.pi * (np.arange(d) + 0.37) / d + 0.61
    radii = 0.9 * (1.0 + 0.08 * np.arange(d) / max(d - 1, 1))
    z = R[None, :] * radii[:, None] * np.exp(1j * angles)[:, None]
    # each row stops at its own convergence, so it gets the roots it would
    # get alone and a slow row costs no work on the others
    rows, eva, za = np.arange(len(R)), ev, z
    for _ in range(_ABERTH_MAX_ITER):
        if rows.size == 0:
            break
        p, dpv, floor = (a.T for a in eva(za.T, floor=True))
        on_floor = np.abs(p) <= floor
        bad = dpv == 0
        if bad.any():
            dpv = np.where(bad, DIVISION_GUARD, dpv)
        N = p / dpv
        w = N / (1.0 - N * _pair_sums(za))
        w = np.where(np.isfinite(w), w, N)
        za = za - w
        live = ~(on_floor | (np.abs(w) <= ABERTH_STEP_TOL * (1.0 + np.abs(za)))).all(axis=0)
        if not live.all():
            z[:, rows] = za
            rows, eva, za = rows[live], eva.take(live), za[:, live]
    z[:, rows] = za
    return z.T, rows


def _polish_batch(ev, z, keep_on_floor=True):
    """Residual-monotone Newton polish of the roots z, shape (rows, d).

    Near multiple roots p/p' is noise over noise and an unguarded step can
    wander by O(1e-2), so a step is kept only where it actually shrinks |p|.
    The evaluation that gives a step's residual also gives the next step's
    p and p', so the polish makes 1 + _POLISH_STEPS evaluator passes.  With
    keep_on_floor the first pass also returns the rounding floor, and a row
    whose roots all satisfy |p| <= floor comes back as it is, after that one
    pass; the other rows are polished, each with the bits it would get
    alone.
    """
    p, dpv, floor = ev(z, floor=keep_on_floor)
    if keep_on_floor:
        off = np.flatnonzero(~(np.abs(p) <= floor).all(axis=1))
        if off.size == 0:
            return z
        out = z.copy()
        # polish the off-floor rows alone, letting the full-size arrays go
        ev, z, p, dpv, floor = ev.take(off), z[off], p[off], dpv[off], None
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
    if not keep_on_floor:
        return best
    out[off] = best
    return out


def roots_batch(C, evaluator=Horner):
    """All roots of every row of C, shape (rows, d+1) in ascending powers.

    With the default evaluator the rows are polynomials: closed forms for
    d <= 3, Aberth-Ehrlich above.  With evaluator=NestedHorner the roots
    are those of f(f(z)) - z for each row f, by Aberth with nested
    evaluation.  A residual-monotone Newton polish follows: on every row of
    Cardano's cubic, and on those rows of the quadratic formula and of
    Aberth that have a root above the rounding floor.  Returns shape (rows,
    degree), complex, held roots-major in memory.  Each row gets the roots
    it would get alone.  Raises RootFindingError, with the polished
    iterates as best, if any row is still moving after _ABERTH_MAX_ITER
    Aberth iterations.
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
        # numpy's complex quotient can miss a real row's float quotient by an ulp
        z = -C[:, 0] / C[:, 1]
        real = ~C.imag.any(axis=1)
        z[real] = -(C.real[real, 0] / C.real[real, 1])
        return z[:, None]
    elif d == 2:
        z = _quadratic_batch(C)
    else:
        # Cardano's roots can lie on the floor a few ulps off the polished
        # ones (-0.9999999999999998 for -1), so every cubic row is polished
        return _polish_batch(ev, _cubic_batch(C), keep_on_floor=False)
    z = _polish_batch(ev, z)
    if len(stalled):
        raise RootFindingError(
            f"Aberth iteration did not converge on {len(stalled)} of {len(z)} rows "
            f"in {_ABERTH_MAX_ITER} iterations", best=z)
    return z


def shifted_rows(p: Polynomial, targets):
    """The rows p(X) - t for every t in targets, shape (len(targets), deg + 1):
    the coefficient matrix roots_shifted solves."""
    t = np.asarray(targets, dtype=complex).ravel()
    # column-major, so that each coefficient is one vector along the rows
    C = np.empty((t.size, p.degree + 1), dtype=complex, order="F")
    C[...] = [complex(c) for c in p.coeffs]
    C[:, 0] -= t
    return C


def roots_shifted(p: Polynomial, targets):
    """Roots of p(X) - t for every t in targets; shape (len(targets), deg)."""
    return roots_batch(shifted_rows(p, targets))


def _pair_conjugates(roots):
    """Symmetrize the root multiset of a real polynomial under conjugation.

    Roots above the axis are matched, in sort order, with the conjugates of
    those below it; the roots come back unchanged unless every matched pair
    lies within CLUSTER_TOL of each other (relative).
    """
    scale = 1.0 + np.abs(roots).max()
    tiny = PAIR_TOL * scale
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
    after that order.  complex_roots solves it with NestedHorner.
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


def _evaluator(p):
    """The evaluator of p, as one row: NestedHorner for a TwoCycles, else Horner."""
    if isinstance(p, TwoCycles):
        return NestedHorner(p.C)
    return Horner(np.array([[complex(c) for c in p.coeffs]]))


def complex_roots(p):
    """All deg(p) complex roots with multiplicity, polished.

    p is a Polynomial or a TwoCycles.  Conjugate pairing is enforced for
    real input.  Raises RootFindingError if Aberth does not converge or a
    residual exceeds its evaluator's residual_tol.
    """
    if p.degree < 1:
        raise ValueError("degree >= 1 required")
    ev = _evaluator(p)
    # a polynomial is solved as p - 0, like every other shifted solve
    z = roots_shifted(p, [0.0]) if isinstance(ev, Horner) else roots_batch(ev.C, NestedHorner)
    return _checked_roots(ev, z[0])


def _checked_roots(ev, z):
    """complex_roots from z, the roots roots_batch gave the one row of ev."""
    res = np.abs(ev(z[None, :])[0][0])
    if not (res <= ev.residual_tol(z[None, :])[0]).all():
        raise RootFindingError(
            f"root polishing stalled (max residual {res.max():.3e})", best=z)
    if not ev.C.imag.any():
        z = _pair_conjugates(z)
    return np.sort_complex(z)


# ---------------------------------------------------------------------------
# real roots with multiplicities (float domain)
# ---------------------------------------------------------------------------

def _modified_newton(p, x, m, radius):
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
    for _ in range(12):
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
        if abs(step) <= NEWTON_STEP_TOL * (1.0 + abs(x)):
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


def real_roots_ex(p, realness_tol=REALNESS_TOL, solved=None):
    """Distinct real roots with multiplicities, plus a marginality flag.

    p is a Polynomial or a TwoCycles (f(f(X)) - X, never expanded).

    Clusters within CLUSTER_TOL (relative) are merged as multiple roots, an
    m-fold cluster refined by Newton on p^(m-1); near-real clusters that
    refine onto the axis are accepted too (this recovers e.g. triple roots whose float
    images scatter ~eps^(1/3) off the axis).

    solved, when given, holds the roots roots_batch gave the row
    shifted_rows(p, [0.0]) in some batch.  A row gets the roots it would get
    alone, so they stand in for complex_roots' solve, with its residual
    check and conjugate pairing, and the result is the same.
    """
    q = p.to_float()
    roots = complex_roots(q) if solved is None else _checked_roots(_evaluator(q), solved)
    scale = 1.0 + float(np.abs(roots).max())
    accepted = []   # (center: complex, mult)
    leftovers = []  # clusters that stayed off-axis
    marginal = False
    for cluster in _chain_clusters(roots, CLUSTER_TOL * scale):
        m = len(cluster)
        center = sum(cluster) / m
        if m >= 2:
            center = _modified_newton(q, center, m, CLUSTER_TOL * scale)
        if near_axis(center, realness_tol if m == 1 else MULTIPLE_REALNESS_TOL):
            accepted.append((center, m))
            if m == 1 and not near_axis(center, 0.1 * realness_tol):
                marginal = True
        else:
            leftovers.append((center, m))
    # Second pass: multiple roots scatter ~eps^(1/m), well past the
    # CLUSTER_TOL radius, so the members of one may stay off the axis,
    # refine onto it as a smaller cluster, or pass as simple roots that did
    # not polish onto the axis (loose: farther off it than REALNESS_TOL).
    # Regroup at a wider radius; re-refine each group of two or more that
    # holds such a member with the combined multiplicity, and accept the
    # result only if it lands on the axis with a small residual.
    def settled(c, m, real):
        return real and m == 1 and near_axis(c, REALNESS_TOL)

    out = []
    pool = [(c, m, True) for c, m in accepted] + [(c, m, False) for c, m in leftovers]
    if leftovers or not all(settled(*member) for member in pool):
        vals = np.array([c for c, m, _ in pool])
        for g in _chain_clusters(vals, REGROUP_TOL * scale):
            idxs = sorted({int(np.argmin(np.abs(vals - z))) for z in g})
            members = [pool[i] for i in idxs]
            if all(real for _, _, real in members) and (
                    len(members) == 1 or all(settled(*member) for member in members)):
                out.extend((float(c.real), m) for c, m, _ in members)
                continue
            m = sum(mm for _, mm, _ in members)
            if m >= 2:
                center = _modified_newton(q, sum(c for c, _, _ in members) / len(members),
                                          m, REGROUP_TOL * scale)
                if (near_axis(center, MULTIPLE_REALNESS_TOL) and abs(q(center))
                        <= _evaluator(q).residual_tol(np.array([[center]]))[0, 0]):
                    out.append((float(center.real), m))
                    marginal = True
                    continue
            # genuinely nonreal: keep only the real members
            out.extend((float(c.real), mm) for c, mm, real in members if real)
    else:
        out = [(float(c.real), m) for c, m in accepted]
    out.sort()
    return out, marginal


def all_roots_real(p: Polynomial, tol=REALNESS_TOL):
    """True iff every root is real within tol.

    Exact input is decided exactly: p splits over the reals iff its
    square-free part does, that is iff the part's Sturm count of distinct
    real roots equals its degree.
    """
    if p.is_exact:
        chain = _sturm_chain(p)
        forms = [_sign_form(q) for q in chain]
        return _variations(forms, -1, 0) - _variations(forms, 1, 0) == chain[0].degree
    roots = complex_roots(p)
    return bool(near_axis(roots, tol).all())


def all_real_batch(C, targets, tol=SPLIT_TOL):
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
    return near_axis(z, np.asarray(tol)[..., None]).all(axis=-1)


def all_real_shifted(p: Polynomial, targets, tol=SPLIT_TOL):
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
    ev = Horner(C)
    residual_ok = (np.abs(ev(z)[0]) <= ev.residual_tol(z, 0.1 * RESIDUAL_TOL)).all(axis=1)
    scale = 1.0 + np.abs(z).max(axis=1, initial=0.0, keepdims=True)
    real = (np.abs(z.imag) <= PAIR_TOL * scale) & near_axis(z, 0.1 * realness_tol)
    nonreal = ~near_axis(z, 10 * realness_tol)
    pairwise = np.abs(z[:, :, None] - z[:, None, :]) + np.diag(np.full(d, np.inf))
    gap = pairwise.min(axis=(1, 2), initial=np.inf)
    # off-axis roots are regrouped at the wider radius
    radius = np.where(nonreal.any(axis=1), REGROUP_TOL, CLUSTER_TOL) * scale[:, 0]
    clear = (residual_ok & np.isfinite(z).all(axis=1) & (real | nonreal).all(axis=1)
             & (gap > 10 * radius))
    return np.sort(np.where(real, z.real, np.nan), axis=1), clear


# ---------------------------------------------------------------------------
# exact real roots (integers only): Sturm counts
# ---------------------------------------------------------------------------

def _sign_form(p: Polynomial):
    """sign(n, d), the sign of the exact p at n / d for d > 0, or at +-inf
    for (n, d) = (+-1, 0).

    G = L p has integer coefficients, L > 0, and G(n, d) = sum g_i n^i
    d^(deg - i), by homogeneous Horner on integers, has the sign of p(n / d)
    for d > 0; G(+-1, 0) = g_deg (+-1)^deg has the sign of p at +-inf.
    """
    G = clear_denominators(p.coeffs)[1]
    top, rest = G[-1], G[-2::-1]

    def sign(n, d):
        acc, dk = top, 1
        for g in rest:
            dk *= d
            acc = acc * n + g * dk
        return (acc > 0) - (acc < 0)
    return sign


def _sturm_chain(p: Polynomial):
    """The signed remainder sequence p, p', -rem, ... of the exact p, each
    member divided by the last one, g = gcd(p, p') up to a constant factor.

    The first member is then p's square-free part up to a constant factor,
    and the chain counts its distinct real roots: V(lo) - V(hi), V the sign
    variations of the members, is the number in (lo, hi].  At a root of p
    of multiplicity k, p'/g and (p/g)' have the same sign (k > 0), so this
    holds at p's multiple roots too, interval ends included (Basu, Pollack
    & Roy, Algorithms in Real Algebraic Geometry, ch. 2).
    """
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = chain[-2].divmod_exact(chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)
    g = chain[-1]
    if g.degree > 0:
        chain = [q.divmod_exact(g)[0] for q in chain]
    return chain


def _variations(forms, n, d):
    """Sign variations of a chain, given by its members' sign forms, at n / d."""
    signs = [s for s in (sign(n, d) for sign in forms) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def square_free_part(p: Polynomial):
    """p over the monic gcd(p, p'): p's distinct factors, with p's lead."""
    p = p.to_exact()
    sf = _sturm_chain(p)[0]
    if sf.degree == p.degree:
        return p
    scale = p.lead / sf.lead
    return Polynomial([c * scale for c in sf.coeffs])


def real_root_count(p: Polynomial, lo=None, hi=None):
    """Exact count of distinct real roots, whole line or closed interval [lo, hi]."""
    p = p.to_exact()
    if p.degree == 0:
        return 0
    forms = [_sign_form(q) for q in _sturm_chain(p)]
    if lo is None and hi is None:
        return _variations(forms, -1, 0) - _variations(forms, 1, 0)
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    lo, hi = lo.as_integer_ratio(), hi.as_integer_ratio()
    # the chain counts (lo, hi], and a root at lo makes its first member 0
    return _variations(forms, *lo) - _variations(forms, *hi) + (forms[0](*lo) == 0)


# ---------------------------------------------------------------------------
# exact real roots (integers only): correct rounding
# ---------------------------------------------------------------------------
#
# A point of the search is named by its half-key h.  The floats, in
# increasing order, have the keys ..., -1, 0, 1, ... (-0.0 and 0.0 share the
# key 0, and a key's parity is that of the float's last significand bit);
# h = 2k is the float of key k, and h = 2k + 1 the dyadic midpoint of the
# floats of keys k and k + 1.  A real number rounds to the float of key k
# exactly when it lies between the half-keys 2k - 1 and 2k + 1, and one on
# an odd half-key rounds half to even.

_SIGN_BIT = 1 << 63
# the key of the largest finite float
_MAX_KEY = 0x7FEFFFFFFFFFFFFF
# a candidate's brackets after its own rounding cell, in floats either side
_WIDENINGS = (16, 1 << 10, 1 << 20)


def _key(x):
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return -(bits ^ _SIGN_BIT) if bits & _SIGN_BIT else bits


def _from_key(k):
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else -k | _SIGN_BIT))[0]


def _dyadic(h):
    """(n, d) with d a power of 2 and n / d the point of half-key h."""
    n, d = _from_key(h >> 1).as_integer_ratio()
    if h & 1:
        n2, d2 = _from_key((h >> 1) + 1).as_integer_ratio()
        if d2 > d:
            n, d = n * (d2 // d), d2
        else:
            n2 *= d // d2
        n, d = n + n2, 2 * d
    return n, d


def _tie_to_even(h):
    """The key of the float that the point of half-key h rounds to."""
    k = h >> 1
    return k + (k & 1) if h & 1 else k


def _bracket(sign, x):
    """Half-keys (lo, hi) around the float x: lo < hi with sign(lo) sign(hi) < 0,
    or lo == hi with sign(lo) == 0; None if none is found.

    The rounding cell of x comes first, then _WIDENINGS floats either side.
    """
    if not math.isfinite(x):
        return None
    h = 2 * _key(x)
    for lo, hi in ((h - 1, h + 1), *((h - 2 * w, h + 2 * w) for w in _WIDENINGS)):
        if max(-lo, hi) > 2 * _MAX_KEY:
            return None
        s_lo, s_hi = sign(*_dyadic(lo)), sign(*_dyadic(hi))
        if s_lo * s_hi < 0:
            return lo, hi
        if s_lo == 0 or s_hi == 0:
            return (lo, lo) if s_lo == 0 else (hi, hi)
    return None


def _splits(lo, hi):
    """Is there a midpoint (an odd half-key) strictly between lo and hi?"""
    return hi - lo > 2 or (hi - lo == 2 and not lo & 1)


def _rounded_key(sign, lo, hi):
    """The key of the float that the one root in a bracket rounds to.

    (lo, lo) is a root.  Otherwise the open (lo, hi) holds it, and it is
    bisected exactly at midpoints until none lies inside: every point of
    (lo, hi) then rounds to the float of key (lo + 1) >> 1.  The bisection
    needs sign(lo) != 0 while (lo, hi) holds a midpoint.
    """
    if lo == hi:
        return _tie_to_even(lo)
    if _splits(lo, hi):
        s_lo = sign(*_dyadic(lo))
        while _splits(lo, hi):
            m = ((lo + hi) >> 1) | 1
            s = sign(*_dyadic(m))
            if s == 0:
                return _tie_to_even(m)
            if s == s_lo:
                lo = m
            else:
                hi = m
    return (lo + 1) >> 1


def _sturm_brackets(p: Polynomial, sign, count):
    """Brackets for the count real roots of the square-free p, by Sturm
    isolation on half-keys from a Cauchy bound; raises InvariantError if the
    Sturm count is not count.

    An interval (lo, hi] holding one root, sign nonzero at both ends, is a
    bracket.  One that holds more, or whose lo is a root, is split at a
    midpoint while it holds one; after that its roots all round to one float,
    and each is a bracket of its own: (hi, hi) if hi is a root, else (lo, hi).
    """
    forms = [_sign_form(q) for q in _sturm_chain(p)]
    bound = 1 + max(abs(Fraction(c) / p.lead) for c in p.coeffs[:-1])
    top = 2 * min(_key(float(min(bound, sys.float_info.max))) + 1, _MAX_KEY)

    def variations(h):
        return _variations(forms, *_dyadic(h))

    lo, hi = -top, top
    v_lo, v_hi = variations(lo), variations(hi)
    if v_lo - v_hi != count:
        raise InvariantError(
            f"Sturm isolation finds {v_lo - v_hi} real roots of {p}, not {count}")
    out, stack = [], [(lo, v_lo, hi, v_hi)]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        n = v_lo - v_hi
        if n == 0:
            continue
        if n == 1 and sign(*_dyadic(lo)) and sign(*_dyadic(hi)):
            out.append((lo, hi))
        elif _splits(lo, hi):
            m = ((lo + hi) >> 1) | 1
            v_m = variations(m)
            stack += [(lo, v_lo, m, v_m), (m, v_m, hi, v_hi)]
        else:
            at_hi = int(sign(*_dyadic(hi)) == 0)
            out += [(hi, hi)] * at_hi + [(lo, hi)] * (n - at_hi)
    return out


def rounded_real_roots(p: Polynomial, candidates, count):
    """The count real roots of the exact square-free p, each correctly rounded
    to the nearest float (half to even), sorted.

    Each float candidate x gets a bracket (_bracket): its rounding cell,
    between the dyadic midpoints to its two neighbours, or a wider one,
    across which p changes sign, evaluated on integers.  Disjoint brackets,
    count of them, hold one root each, and each is bisected exactly to its
    rounded root.  If a bracket fails, two meet, or their number is not
    count, Sturm isolation (_sturm_brackets) finds the brackets instead.
    Two distinct roots may round to one float; it is then listed twice.
    """
    p = p.to_exact()
    sign = _sign_form(p)
    brackets = [_bracket(sign, x) for x in candidates]
    isolated = None not in brackets and len(brackets) == count
    if isolated:
        brackets.sort()
        isolated = all(a[1] <= b[0] and a != b for a, b in zip(brackets, brackets[1:]))
    if not isolated:
        brackets = _sturm_brackets(p, sign, count)
    return [_from_key(k) for k in sorted(_rounded_key(sign, *b) for b in brackets)]
