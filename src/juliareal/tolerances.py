"""Every tolerance the package decides with, defined once.

Each comment says what its tolerance bounds and what it is scaled by.
Iteration caps and block sizes live with the code they bound.
"""

# -- realness: z counts as real when |Im z| <= tol (1 + |z|), roots.near_axis
# a simple root (real_roots_ex's default)
REALNESS_TOL = 1e-9
# a critical point, a root of p'
CRIT_REALNESS_TOL = 1e-7
# a fixed point, a point of a 2-cycle, or a preimage of a fixed point
FIXED_REALNESS_TOL = 1e-6
# the refined center of a cluster merged as a multiple root
MULTIPLE_REALNESS_TOL = 1e-6
# an extreme fixed point along cubic_region.fixed_point_trajectory
TRAJECTORY_REALNESS_TOL = 1e-7
# every root of p - t, for p - t to split: at a sample inside a critical
# interval, and at an endpoint pulled in by ENDPOINT_PULL
SPLIT_TOL = 1e-6
SPLIT_ENDPOINT_TOL = 1e-5
# a backward-orbit point with a larger |Im z| (absolute) makes its measure nonreal
NONREAL_TOL = 1e-9

# -- clustering: distances between roots, times 1 + the largest |root|
# roots this close merge into one multiple root
CLUSTER_TOL = 1e-6
# the wider radius at which off-axis clusters are regrouped
REGROUP_TOL = 1e-4
# a root this close to the axis is left alone by conjugate pairing
PAIR_TOL = 1e-13
# preimages of alpha all this close to one another make alpha exceptional
EXCEPTIONAL_TOL = 1e-6
# a Lattes map's real critical points, the float roots of the numerator of
# f', agree this closely with rho +- sqrt F'(rho) over the real roots rho of F
CRIT_MATCH_TOL = 1e-8

# -- residuals: a root z of p is accepted when |p(z)| is at most this times
# max |c_i| max(1, |z|)^d (Horner), or this over FLOOR_ULPS * eps times the
# rounding floor (NestedHorner)
RESIDUAL_TOL = 1e-8

# -- convergence
# Aberth stops a root whose step is below this times 1 + |z|
ABERTH_STEP_TOL = 1e-14
# Newton on a multiple-root cluster stops at a step below this times 1 + |x|
NEWTON_STEP_TOL = 1e-15
# the rounding floor of Horner's rule, in units of eps times sum |c_i| |z|^i
FLOOR_ULPS = 8
# stands in for a zero divisor: a Fujiwara radius and p' in an Aberth step
DIVISION_GUARD = 1e-30

# -- containment: distances on the real line, times 1 + |x|
# x counts as inside [lo, hi] when it lies outside by at most this
CONTAIN_TOL = 1e-8
# x this close to an end of the interval makes its verdict marginal
MARGINAL_TOL = 1e-7
# how far the cross-check pulls a finite endpoint into a critical interval,
# and the gap by which lo may exceed hi before the interval is empty (times
# 1 + the largest finite |end|)
ENDPOINT_PULL = 1e-9
# a narrower gap between the ranges of a map's monotone pieces is no gap
# (times 1 + |the lower end of the range above it|)
COVER_TOL = 1e-9
# a map's value at a pole is probed this far beside it
POLE_PROBE = 1e-7
# a breakpoint this close to a real pole is that pole
POLE_MATCH_TOL = 1e-12
# (x, y) is on y^2 = F(x) when |y^2 - F(x)| is at most this times
# 1 + |y^2| + |F(x)|
ON_CURVE_TOL = 1e-9
