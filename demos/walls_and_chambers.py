"""Walls and chamber location
==============================

Enumerate the potential Bridgeland walls for the degree-6 moduli space,
transform tabulated Hilbert-scheme wall systems, and locate walls inside
their chambers to read off birational model indices.  The picture of the
degree-6 walls, nested semicircles about -4/3, is drawn by the command
line: `planemoduli walls --degree 6 --svg FILE`.
"""

from fractions import Fraction

from planemoduli import (abch_reference_walls, enumerate_potential_walls,
                         locate_model, transform_walls, wall_between)
from planemoduli.ktheory import ChernP2, moduli

# %% Potential walls at degree 6.
# All semicircles share the center -4/3; nine rank-one candidates survive
# the radius window between the collapsing wall and the first wall.  Seven
# of them are actual walls; the two extras are excluded by the sheaf
# classification, not by any numeric test.

candidates = enumerate_potential_walls(6)
print("degree 6 potential walls (center -4/3):")
for chern, wall in candidates:
    print(f"  radius_sq = {str(wall.radius_sq):>6}   destabilizer {chern}")

# %% Reference wall systems and their transforms.
# The tabulated walls for eight points, twisted by 3, bracket the
# innermost degree-6 wall; the count of enclosing walls is the index of
# the birational model appearing at that wall.

hilb8 = transform_walls(abch_reference_walls(8), "twist", 3)
w1 = wall_between(moduli(6), ChernP2(1, 3, Fraction(-7, 2)))
print("\ninnermost wall:", w1)
print("model index against the eight-point system:", locate_model(w1, hilb8))

# %% The four-point system needs a dual and a twist first.
hilb4 = transform_walls(transform_walls(abch_reference_walls(4), "dual"),
                        "twist", -5)
w4 = wall_between(moduli(6), ChernP2(1, 1, Fraction(1, 2)))
print("\nfourth wall:", w4)
print("model index against the four-point system:", locate_model(w4, hilb4))
for ref in hilb4.walls:
    print(f"  transformed reference wall: {ref}")
