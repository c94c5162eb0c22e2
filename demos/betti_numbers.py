"""Betti numbers by wall crossing
=================================

Compute Poincare polynomials of the building blocks (Hilbert schemes of
plane points, Kronecker quiver moduli), cross-check the quiver recursion
against a literal finite-field count, and assemble the degree-6 moduli
space polynomial from its six wall contributions.
"""

from planemoduli import (assemble_m6, brute_force_kronecker_count,
                         ext_dims_at_wall, hilb_poincare, kronecker_poincare,
                         m6_wall_records, n6_poincare, q6_poincare,
                         wall_contribution)

# %% Hilbert schemes of points.
for n in range(5):
    poly = hilb_poincare(n)
    print(f"Hilb^{n}:  {poly}   (euler = {poly(1)})")

# %% Kronecker quiver moduli.
# The Harder-Narasimhan recursion computes the point count over a field
# with q elements; specializing q to an actual prime must agree with a
# brute-force count of semistable matrix tuples.

for dv in ((1, 1), (2, 1), (3, 2)):
    poly = kronecker_poincare(3, dv)
    checks = {p: (poly(p), brute_force_kronecker_count(3, dv, p))
              for p in (2, 3)}
    print(f"N(3; {dv[0]}, {dv[1]}): {poly}")
    for p, (want, got) in checks.items():
        marker = "ok" if want == got else "MISMATCH"
        print(f"   q = {p}: recursion {want}, enumeration {got}  [{marker}]")

# %% The big one.
n6 = n6_poincare()
print(f"\nN(3; 5, 4) has degree {n6.degree} and euler {n6(1)}")
print(f"projective bundle model: euler {q6_poincare()(1)}")

# %% Wall contributions.
# Each flipping wall trades a projective bundle for another one over the
# same center; the exceptional fiber dimensions come from Euler pairings.

total = q6_poincare()
print()
for rec in m6_wall_records():
    a, b = ext_dims_at_wall(6, rec.destabilizer)
    delta = wall_contribution(6, rec)
    total = total + delta
    print(f"wall {rec.label:>3} ({rec.destabilizer}): "
          f"P^{a - 1} replaces P^{b - 1}, contribution degree {delta.degree}")

assert total == assemble_m6()
print(f"\nmoduli space polynomial, degree {total.degree}, euler {total(1)}:")
print(total)
