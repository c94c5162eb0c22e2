"""Exact computations for moduli spaces of one-dimensional plane sheaves.

The package computes, in exact rational arithmetic throughout:

  * Bridgeland potential walls for the moduli space of stable sheaves on
    the plane with linear Hilbert polynomial, and chamber location against
    tabulated Hilbert-scheme wall systems (walls);
  * nef and effective cone generators and determinant-line-bundle
    intersection numbers via Riemann-Roch on test families (divisors,
    chow, ktheory);
  * Poincare polynomials of Hilbert schemes, Kronecker quiver moduli, and
    the degree-6 moduli space assembled by wall crossing (betti);
  * the exact rational and polynomial arithmetic underneath (exactmath).
"""

from .betti import (DimVector, assemble_m6, brute_force_kronecker_count,
                    ext_dims_at_wall, hilb_model_poincare, hilb_poincare,
                    kronecker_poincare, m6_wall_records, n6_poincare,
                    q6_poincare, space_poincare, wall_contribution)
from .chow import ChowCurveP2, ChowP2, coeff, exp_class, todd_relative
from .divisors import (DivisorAL, FamilyClass, d_in_AL, effective_generators,
                       family_class, first_wall_destabilizer, genus,
                       intersection_degree, lambda_decompose, nef_generators,
                       orthogonal_wall_class, wall_divisor)
from .errors import (AmbiguousChamberError, ConventionError, DomainError,
                     EmptyWallError, ExactDivisionError, NoWallError,
                     PlaneModuliError)
from .exactmath import (QPoly, Rational, grassmannian_poincare,
                        is_palindromic, projective_poincare)
from .ktheory import (ChernP2, dual, euler_hom, euler_product,
                      hilbert_polynomial, ideal_twisted, line_bundle,
                      line_support, moduli, point, shift, twist)
from .walls import (ReferenceWallSystem, Wall, abch_reference_walls,
                    enumerate_potential_walls, locate_model, transform_walls,
                    wall_between)

__version__ = "0.1.0"
