"""Cones and determinant divisors
=================================

Walk through the divisor calculus on the moduli space of one-dimensional
plane sheaves: express the theta-like divisor in the geometric basis,
compute intersection degrees against test families by Riemann-Roch, and
produce the nef and effective cone generators for a range of degrees.
"""

from planemoduli import (d_in_AL, effective_generators, family_class,
                         first_wall_destabilizer, genus, intersection_degree,
                         nef_generators, orthogonal_wall_class, wall_divisor)
from planemoduli.divisors import d_class
from planemoduli.ktheory import line_bundle, moduli, point

# %% The two test curves.
# A pencil of degree-d curves with fixed base points meets the divisor A
# exactly once and misses L; the Jacobian-type family T along one fixed
# curve misses A.  Riemann-Roch gives the degree of the theta-like divisor
# D on both, which pins D in the {A, L} basis.

for d in (4, 5, 6):
    pencil = family_class("pencil", d)
    jac = family_class("jacobian", d)
    w = d_class(d)
    print(f"degree {d}:  D.P = {intersection_degree(pencil, w)}"
          f"   D.T = {intersection_degree(jac, w)}"
          f"   (d*g = {d * genus(d)})"
          f"   =>  D = {d_in_AL(d)}")

# %% A is a pullback divisor, so the constants behave as expected.
# Its K-class is the point sheaf.
print("\nA.P =", intersection_degree(family_class("pencil", 6), point()))
print("A.T =", intersection_degree(family_class("jacobian", 6), point()))

# %% Wall divisors.
# A class orthogonal to both the moduli class and a destabilizer spans the
# divisor contracted on that wall.  The collapsing wall (structure sheaf
# destabilizer) recovers the effective generator L at every degree.

for d in (4, 5, 6, 7):
    collapse = orthogonal_wall_class(moduli(d), line_bundle(0))
    print(f"degree {d}: collapsing class {collapse} "
          f"-> divisor {wall_divisor(d, line_bundle(0))}")

# %% Cone generators.
# The nef cone is spanned by A and the divisor of the first (outermost)
# actual wall; the effective cone by A and L.

print()
print(f"{'d':>3} {'first-wall destabilizer':>25} {'nef B':>12} {'effective':>12}")
for d in range(3, 13):
    destab = first_wall_destabilizer(d)
    _, b = nef_generators(d)
    eff = effective_generators(d)
    print(f"{d:>3} {str(destab):>25} {str(b):>12} {str(eff[0]) + ', ' + str(eff[1]):>12}")
