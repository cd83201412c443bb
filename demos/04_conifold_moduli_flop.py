"""
Conifold moduli and the Atiyah flop
===================================

The two stability structures on the conifold setting give the two small
resolutions; their charts, exceptional fibers, and the flop between them.
"""

from qsing import (
    MarkedQuiverSetting,
    central_fiber,
    invariant_generators,
    is_theta_semistable,
    proj_charts,
    semi_invariant_generators,
    toric_relations,
)

conifold = MarkedQuiverSetting.make([1, 1], [[0, 2], [2, 0]])
arrows = conifold.arrow_list()
print("arrow legend:", [(i, f"{a.tail}->{a.head}") for i, a in enumerate(arrows)])

# The affine quotient: four cycle invariants with one binomial relation,
# i.e. the hypersurface xy = uv.
basis = invariant_generators(conifold)
print("invariants:", basis)
print("relation:  ", toric_relations(basis)[0].lhs, "=", toric_relations(basis)[0].rhs)

# Stability theta = (-1, 1): the arrows out of the theta < 0 vertex become
# the degree-one semi-invariants.
print("\ntheta = (-1, 1) generators (exponents, degree):")
for g in semi_invariant_generators(conifold, (-1, 1)):
    print("   ", g.exponents, g.degree)

# proj is covered by one smooth chart per degree-one generator; each chart
# monoid is free of rank 3, so the resolution is smooth.
for chart in proj_charts(conifold, (-1, 1)):
    print("chart at", chart.pivot.exponents, "-> free rank", chart.free_rank)

# Over the central singularity the fiber is a projective line: two point
# strata and one 1-dimensional stratum of stable supports.
print("\nexceptional fiber for theta = (-1, 1):")
for stratum in central_fiber(conifold, (-1, 1)):
    print("   support", stratum.support, "dim", stratum.orbit_space_dim)

# The opposite stability swaps the roles of the two arrow pairs: the other
# small resolution.  Passing from one to the other is the Atiyah flop.
print("\ntheta = (1, -1) chart pivots:",
      [c.pivot.exponents for c in proj_charts(conifold, (1, -1))])

# A representation with one forward arrow nonzero is stable for (-1, 1).
print("\nstability of the support {arrow 0}:",
      is_theta_semistable(conifold, [arrows[0]], (-1, 1)))
